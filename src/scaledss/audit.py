"""The independent record that `verify --audit` keeps beside the kernel.

`certificates` imports this module only when a replay is audited, so a
plain `verify` compiles none of it.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from .complexes import OrderedComplex, Simplex, _missing_face, simplex_key
from .errors import AmbientMismatch, InputError
from .scaling import ScaledComplex, _check_thin


def _index_vsets(by_vset: dict[frozenset[str], Simplex], tuples: AbstractSet[Simplex]) -> None:
    """Index tuples by vertex set, rejecting repeated vertices and a second
    tuple on a vertex set, indexed or among `tuples`; a rejection names the
    first offender in `simplex_key` order."""
    for t in tuples:
        vs = frozenset(t)
        if len(vs) != len(t) or by_vset.setdefault(vs, t) != t:
            break
    else:
        return
    # the first offender in `simplex_key` order, against what the index held
    # before this call: a tuple of `tuples` in it is read as not yet indexed
    first: dict[frozenset[str], Simplex] = {}
    for t in sorted(tuples, key=simplex_key):
        vs = frozenset(t)
        if len(vs) != len(t):
            raise InputError(f"repeated vertex in tuple {t}")
        other = first.setdefault(vs, t if by_vset.get(vs, t) in tuples else by_vset[vs])
        if other != t:
            raise AmbientMismatch(f"tuples {other} and {t} share a vertex set")


class AuditRecord:
    """The audit's own record of the replayed state, kept apart from the
    kernel's and fed only the delta each step reports.

    It validates the start with the validating constructor; of each step it
    checks only the added tuples (no repeated vertex, one tuple per vertex
    set, every face present, alternating count 0) and marks.  A face-closed
    complex that gains only tuples whose faces it holds stays face-closed,
    so this is the check of a full rebuild at the cost of the delta.
    Unlike the kernel, which reads the vertex-set rule off the new edges and
    so relies on face closure, it keeps a full index by vertex set and
    files every added tuple in it: a rule broken by a tuple whose faces are
    missing is still caught here.  It compares its record with the
    kernel's state at the end.
    """

    __slots__ = ("tuples", "thin", "by_vset")

    def __init__(self, start: ScaledComplex):
        cx = OrderedComplex(start.complex.tuples)
        _check_thin(cx.tuples, start.thin)
        self.tuples = set(cx.tuples)
        self.thin = set(start.thin)
        self.by_vset: dict[frozenset[str], Simplex] = {}
        _index_vsets(self.by_vset, cx.tuples)

    def check(self, added: frozenset[Simplex], added_thin: frozenset[Simplex]) -> Optional[str]:
        """Record one step's delta; return what is wrong with it, or None.

        A generator is a weak homotopy equivalence, so the tuples a step
        adds to the record have alternating count sum (-1)^dim = 0: a horn
        filler adds the 2^|M| tuples that contain its core, whose count is
        +-(1 - 1)^|M|, and `an2` adds none.  The count is taken before they
        are filed and checked once they are known to be simplices.
        """
        count = sum(1 if len(t) % 2 else -1 for t in added if t not in self.tuples)
        try:
            _index_vsets(self.by_vset, added)
            self.tuples |= added
            gap = _missing_face(added, self.tuples)
            if gap is not None:
                return f"missing face {gap[1]} of {gap[0]}"
            if count:
                return f"the step's new tuples have alternating count {count}, not 0"
            _check_thin(self.tuples, added_thin)
            self.thin |= added_thin
        except InputError as exc:
            return str(exc)
        return None

    def agrees(self, tuples: AbstractSet[Simplex], thin: AbstractSet[Simplex]) -> bool:
        return self.tuples == tuples and self.thin == thin
