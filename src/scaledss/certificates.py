"""Replayable certificates: generator pushouts and scaling extensions.

A certificate is one flat list of steps that, replayed from its start
complex, must land exactly on its target complex (tuple sets and thin sets
equal).  Verification replays everything and re-checks every step-level
invariant; nothing is trusted from construction time.  Each step costs what
it reads and adds, not the size of the state.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Union

from .complexes import Simplex, _carried, _check_edges, _image, _require_strings, _thin_image, position_key
from .errors import InputError
from .generators import KINDS, GeneratorInstance, NotAdmissible, instantiate
from .record import Record, set_field
from .scaling import PushoutShape, ScaledComplex, _check_thin


class StepError(Exception):
    """A step failed validation during replay."""


def _string_pairs(pairs: object, what: str) -> tuple[tuple[str, str], ...]:
    """A tuple of pairs of strings: a certificate's metadata."""
    if type(pairs) is not tuple or not all(type(p) is tuple and len(p) == 2 for p in pairs):
        raise InputError(f"{what} must be a tuple of string pairs")
    _require_strings((k for k, _ in pairs), f"{what} key")
    _require_strings((v for _, v in pairs), f"{what} value")
    return pairs


def _word(word: object, what: str) -> Simplex:
    """A tuple of labels, the images of a generator's vertices 0..r."""
    if type(word) is not tuple:
        raise InputError(f"{what} must be a tuple of labels, not {type(word).__name__}")
    _require_strings(word, "attach value")
    return word


class GeneratorPushout(Record):
    """Attach a generator of `kind` along `cell`, the images of the vertices
    0..r of its target Delta^r under an injective scaled map; the kernel
    reads the instance off the state (see `step_instance`)."""

    __slots__ = ("kind", "cell")

    def __init__(self, kind: str, cell: Simplex):
        if type(kind) is not str:
            raise InputError(f"a generator kind is a string, not {type(kind).__name__}")
        if kind not in KINDS:
            raise InputError(f"unknown generator kind {kind!r}")
        set_field(self, "kind", kind)
        set_field(self, "cell", _word(cell, "a cell"))


class ScalingExtension(Record):
    """Add thin marks: the pushout of the `an2` generator along `word`, its
    five vertices' images, which may repeat.  The generator adds no tuple,
    so the underlying complex is unchanged.  This is the one step that
    attaches `an2`, whose kind no generator step names."""

    __slots__ = ("word",)

    def __init__(self, word: Simplex):
        if len(_word(word, "an an2 word")) != 5:
            raise InputError(f"an an2 word has 5 letters, not {len(word)}")
        set_field(self, "word", word)


Step = Union[GeneratorPushout, ScalingExtension]

SCALED_ANODYNE = "scaled_anodyne"
TRIVIAL_COFIBRATION = "trivial_cofibration"


class Certificate(Record):
    __slots__ = ("claimed_class", "start", "target", "steps", "metadata")

    def __init__(self, claimed_class: str, start: ScaledComplex, target: ScaledComplex,
                 steps: tuple[Step, ...], metadata: tuple[tuple[str, str], ...] = ()):
        if claimed_class not in (SCALED_ANODYNE, TRIVIAL_COFIBRATION):
            raise InputError(f"unknown certificate class {claimed_class!r}")
        for name, value in (("start", start), ("target", target)):
            if not isinstance(value, ScaledComplex):
                raise InputError(f"a certificate's {name} is a scaled complex, not {type(value).__name__}")
        if type(steps) is not tuple:
            raise InputError(f"certificate steps must be a tuple, not {type(steps).__name__}")
        set_field(self, "claimed_class", claimed_class)
        set_field(self, "start", start)
        set_field(self, "target", target)
        set_field(self, "steps", steps)
        set_field(self, "metadata", _string_pairs(metadata, "metadata"))


class VerifyReport(Record):
    __slots__ = ("ok", "first_failure", "stats", "steps")

    def __init__(self, ok: bool, first_failure: Optional[tuple[int, str]],
                 stats: tuple[tuple[str, int], ...], steps: int):
        set_field(self, "ok", ok)
        set_field(self, "first_failure", first_failure)
        set_field(self, "stats", stats)
        set_field(self, "steps", steps)


# ---------------------------------------------------------------------------
# Step deltas: every step is one pushout, checked by `_pushout_delta` on a
# state given as its tuple set and thin set, face-closed and one tuple per
# vertex set, which the check reads and does not change.

Delta = tuple[frozenset[Simplex], frozenset[Simplex]]

def _pushout_delta(tuples: AbstractSet[Simplex], thin: AbstractSet[Simplex], shape: PushoutShape,
                   word: Simplex) -> Delta:
    """Check that attaching a target along `word`, the map f that sends its
    vertex j to letter j, is a pushout of the inclusion of its source along
    f into the state; return the tuples and thin marks it adds.

    The pushout adds to the state one simplex for each target-only tuple,
    with the faces and the thin marks f gives it.  It is the union of the
    state with the images of those tuples, scaled as f says, exactly when:
    - f carries the source into the state as a scaled map (`_carried`);
    - f is injective on the target-only tuples, and their images are
      nondegenerate, so that the face of an image is the image of a face;
    - those images miss the state.
    A horn's target-only tuples include the whole simplex, so the second
    rule holds exactly when the word has distinct letters.  The `an2`
    generator adds no tuple, so the rule is empty for it, and a scaling
    extension's word may repeat a letter.

    Two of the rules read only some of the source and target-only tuples,
    as the state is closed under faces and f carries faces to faces:
    - the source lands in the state when the tuples the shape lists do
      (see `_carried`).  A horn lists none: M is the positions whose faces
      the state lacks (`step_instance`), so each face d_j, j not in M, is
      its own image word and in the state, and so is every face of it;
    - the target-only images miss the state when the image of the first
      target-only tuple does.  A horn on M lists first its core [r] - M,
      which is a face of every target-only tuple, so of every image: all
      the tuples returned are new, and `apply_step` adds them as they are.
    """
    if shape.added and len(set(word)) != len(word):
        raise StepError("the map is not injective on the target vertices")
    _carried(tuples, thin, shape.source_tuples, shape.source_thin, word, StepError, position_key)
    added = _image(shape.added, word)
    if not tuples.isdisjoint(added[:1]):
        raise StepError("pushout condition fails: the target meets the state beyond the source: "
                        f"{shape.added[0]} maps to {added[0]}")
    return frozenset(added), _thin_image(shape.added_thin, word).difference(thin)


def absent_faces(tuples: AbstractSet[Simplex], cell: Simplex) -> tuple[int, ...]:
    """M: the positions j whose face d_j of `cell` is not in `tuples`."""
    return tuple(j for j in range(len(cell)) if cell[:j] + cell[j + 1:] not in tuples)


def horn_instance(thin: AbstractSet[Simplex], kind: str, cell: Simplex,
                  m: tuple[int, ...]) -> Union[GeneratorInstance, NotAdmissible]:
    """The `an1` or `gen_horn` instance on `cell` for the horn on M = `m` at
    a state with thin set `thin`, or NotAdmissible: an1 has n = r and i the
    one member of M; a generalized horn declares thin the run triangles
    (i, t, t + 1), i < t = max M, that are thin in the state.  `instantiate`
    checks the rest."""
    r = len(cell) - 1
    if kind == "an1":
        return instantiate("an1", r, m, ())
    t = max(m, default=r)
    run = tuple((i, t, t + 1) for i in range(t if t < r else 0) if cell[i:i + 1] + cell[t:t + 2] in thin)
    return instantiate("gen_horn", r, m, run)


def step_instance(tuples: AbstractSet[Simplex], thin: AbstractSet[Simplex], step: GeneratorPushout) -> GeneratorInstance:
    """The instance `step` attaches at the state, on its cell.  A present
    face of the cell brings its 2^r - 1 nonempty subsequences into the
    state, so a cell too long for the state is rejected before any face of
    it is built."""
    cell = step.cell
    r = len(cell) - 1
    if r > 0 and (1 << r) - 1 > len(tuples):
        raise StepError(f"no face of the {r}-simplex of the attach map is in the state")
    m = absent_faces(tuples, cell)
    gen = horn_instance(thin, step.kind, cell, m)
    if not gen:
        raise StepError(f"no {step.kind} attaches {cell} at the state, which lacks its faces {list(m)}: {gen.clause}")
    return gen


def _delta(tuples: AbstractSet[Simplex], thin: AbstractSet[Simplex], step: Step) -> Delta:
    """Check one step of any kind against the state; return the tuples and
    thin marks it adds.  A rejection raises StepError, or InputError from a
    complex the step would build.  A scaling extension is the pushout of
    the `an2` generator along its word.

    Of a generator pushout, `step_instance` reads r, M and the run
    triangles off the state, and `instantiate` decides a generalized horn's
    admissibility: every accepted step is a pushout, checked by
    `_pushout_delta`, of an instance `instantiate` made.  No certificate is
    lost: the pushout needs the faces d_j, j not in M, in the state and the
    core [r] - M out of it, so M can only be the faces the state lacks.  The
    check reads the instance's closed-form shape and covers the rest of the
    criterion:
    - a declared thin triangle in the horn lies in the source's thin set,
      which must land on thin ones; one outside it holds the core;
    - a run triangle lies in the horn: t is in M, and |M| <= r - 2 leaves a
      position outside M and the triangle;
    - when |M| = r - 2 the face opposite M is the core, so not in the state.
    Declaring every triangle of the cell thin in the state would give the
    same delta: admissibility reads only the run triangles and the core,
    which is not in the state; a thin triangle in the horn adds a check that
    holds and no mark; and one outside it would put the core in the state.
    """
    if isinstance(step, GeneratorPushout):
        return _pushout_delta(tuples, thin, step_instance(tuples, thin, step).shape, step.cell)
    if isinstance(step, ScalingExtension):
        return _pushout_delta(tuples, thin, instantiate("an2", 4, (), ()).shape, step.word)
    raise StepError(f"unknown step type {type(step).__name__}")


def step_kind(step: Step) -> str:
    if isinstance(step, GeneratorPushout):
        return step.kind
    if isinstance(step, ScalingExtension):
        return "an2_marks"
    return "unknown"


class _State:
    """The state of one replay or construction: the tuple set and the thin
    set, which only `apply_step` advances.

    The state is face-closed: the start is a complex, and every step adds
    the images of target-only tuples whose faces are target-only or land
    in the state (see `_pushout_delta`).  So the vertex-set rule (no
    repeated vertex, one tuple per vertex set) needs no index: a step
    breaks it exactly when one of its new edges (a, b) finds (b, a) in the
    state, as `_check_edges` argues.
    """

    __slots__ = ("tuples", "thin")

    def __init__(self, start: ScaledComplex):
        self.tuples = set(start.complex.tuples)
        self.thin = set(start.thin)

    def matches(self, goal: ScaledComplex) -> bool:
        """The state is `goal`: the same tuples and the same thin set."""
        return self.tuples == goal.complex.tuples and self.thin == goal.thin


def apply_step(state: _State, step: Step) -> Delta:
    """Check one step against the state and extend the state in place by
    the tuples and marks the step adds; return (added, added_thin).  Every
    step only adds: the state is never replaced.

    The added tuples must keep the vertex-set rule and the marks must be
    2-simplices of the old state and what is added; both are checked before
    the state changes, so a rejection leaves the state as it was.  Every
    rejection, an input error from a complex the step would build or an
    irregular image too, surfaces as a StepError.
    """
    try:
        added, added_thin = _delta(state.tuples, state.thin, step)
        _check_edges(added, state.tuples)
        _check_thin(state.tuples, added_thin, added)
    except InputError as exc:
        raise StepError(str(exc)) from exc
    state.tuples |= added
    state.thin |= added_thin
    return added, added_thin


def _replay(cert: Certificate, audit: bool, stats: dict[str, int]) -> Optional[tuple[int, str]]:
    """Replay the certificate on one owned state, counting each step kind in
    `stats`; return the first failure as (step index, message), or None.
    The steps are one flat list, so the index is the whole location.

    Every accepted step is one pushout of a generator checked by
    `_pushout_delta`: a generator step of its kind, a scaling extension of
    `an2`.  The scaled anodyne maps hold the generators and are weakly
    saturated (Lurie, arXiv:0905.0462, §3.1): closed under composition and
    pushout along any map.  So every accepted certificate is scaled
    anodyne, so a trivial cofibration too: either claimed class holds and
    needs no check."""
    state = _State(cert.start)
    record = None
    if audit:
        from .audit import AuditRecord

        try:
            record = AuditRecord(cert.start)
        except InputError as exc:
            return 0, f"audit: {exc}"
    for idx, step in enumerate(cert.steps):
        try:
            added, added_thin = apply_step(state, step)
        except StepError as exc:
            return idx, str(exc)
        if record is not None:
            wrong = record.check(added, added_thin)
            if wrong is not None:
                return idx, f"audit: {wrong}"
        kind = step_kind(step)
        stats[kind] = stats.get(kind, 0) + 1
    end = len(cert.steps)
    if record is not None and not record.agrees(state.tuples, state.thin):
        return end, "audit: recomputed state disagrees"
    if state.tuples != cert.target.complex.tuples:
        return end, "target complex not reached"
    if state.thin != cert.target.thin:
        return end, "target thin set not reached"
    return None


def verify_certificate(cert: Certificate, audit: bool = False) -> VerifyReport:
    """Replay the certificate on one state, which each step extends by its
    delta once it is checked against the state as a pushout.  With
    ``audit`` an independent record checks the start, every delta and the
    end (see `audit.AuditRecord`)."""
    stats: dict[str, int] = {}
    failure = _replay(cert, audit, stats)
    return VerifyReport(failure is None, failure, tuple(sorted(stats.items())), len(cert.steps))
