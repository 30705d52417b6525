"""Helpers the tests share: a canonical listing of a complex by dimension,
the empty complex, the grid-to-join relabelling `omega`, the second path
to the minus half that the tower tests check `ts_minus` against, and the
nested inner-horn, cosegal and theta files that older versions wrote.
None of this is program code: no command lists by dimension, runs `omega`
or writes a transport step."""

from typing import Iterable

from scaledss import certify_cosegal, certify_inner_horn, certify_lemma_minus, certify_lemma_plus, certify_theta
from scaledss.certificates import SCALED_ANODYNE, Certificate
from scaledss.complexes import OrderedComplex, Simplex, simplex_key
from scaledss.errors import InputError
from scaledss.grid import PLUS_ROWS, vcol, vlabel, vrow
from scaledss.produce import certificate_to_json, step_to_json
from scaledss.proofs import _Builder
from scaledss.search import DEFAULT_BUDGET
from scaledss.tower import coface_vmap, theta_complexes


def simplices(k: OrderedComplex, dim: int) -> list[Simplex]:
    """The simplices of `k` of dimension `dim`, in `simplex_key` order."""
    return sorted((t for t in k.tuples if len(t) == dim + 1), key=simplex_key)


def empty() -> OrderedComplex:
    return OrderedComplex(frozenset(), _validated=True)


def join_position(label: str, n: int) -> tuple[int, int]:
    """Position in the three-block join order (middle row reversed)."""
    row, col = vrow(label), vcol(label)
    if row == "00":
        return (0, col)
    if row == "10":
        return (1, n - col)
    if row == "11":
        return (2, col)
    raise InputError(f"label {label!r} is not a minus-side vertex")


def join_sort(vset: Iterable[str], n: int) -> Simplex:
    return tuple(sorted(vset, key=lambda v: join_position(v, n)))


OMEGA_ROW = {"00": "00", "01": "10", "11": "11"}


def omega(k: OrderedComplex, n: int) -> tuple[OrderedComplex, dict[str, str]]:
    """Relabel a subcomplex of the three-row grid into the join.

    Each tuple's vertex set is pushed through 00->00, 01->10, 11->11 (columns
    unchanged) and re-sorted by the join order.  The image is face-closed;
    the validating constructor checks this rather than assuming it.  The
    returned vertex assignment is injective but not order-preserving.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    # (row index, column) of each grid vertex; the grid order is the product order
    pos = {vlabel(r, c): (i, c) for i, r in enumerate(PLUS_ROWS) for c in range(n + 1)}
    for t in k.tuples:
        if not all(v in pos for v in t) or not all(
            pos[a] != pos[b] and pos[a][0] <= pos[b][0] and pos[a][1] <= pos[b][1]
            for a, b in zip(t, t[1:])
        ):
            raise InputError("omega input must be a subcomplex of the three-row grid nerve")
    vmap = {v: vlabel(OMEGA_ROW[vrow(v)], vcol(v)) for v in k.vertices}
    image = OrderedComplex(join_sort([vmap[v] for v in t], n) for t in k.tuples)
    return image, vmap


# ---------------------------------------------------------------------------
# Nested certificate files.  `certify` writes the steps of a certificate
# pushed out along a vertex map into the outer list, each relabelled through
# the map.  Older files held each such certificate whole, in a transport
# step {"kind": "transport", "along": map, "inner": certificate, "map_kind":
# "injective" or "quotient"}; these builders write those files.


def _transport(inner: dict, along: dict[str, str]) -> dict:
    return {"kind": "transport", "map_kind": "quotient", "along": along, "inner": inner}


def _nested(flat: Certificate, steps: list[dict]) -> dict:
    """The JSON of `flat` with `steps` in place of its own."""
    return dict(certificate_to_json(flat), steps=steps)


def _half_transports(n: int, i: int, budget: int) -> list[dict]:
    halves = (certify_lemma_plus(n, i, budget), certify_lemma_minus(n, i, budget))
    return [_transport(certificate_to_json(h), {v: v for v in h.start.complex.vertices}) for h in halves]


def nested_inner_horn(n: int, i: int, budget: int = DEFAULT_BUDGET) -> dict:
    """inner(n, i) as one identity transport of each half."""
    return _nested(certify_inner_horn(n, i, budget), _half_transports(n, i, budget))


def nested_cosegal(n: int, budget: int = DEFAULT_BUDGET) -> dict:
    """cosegal(n) as a transport of the nested previous level along the
    coface map, the searched steps up to the inner horn, then one identity
    transport of each half."""
    flat = certify_cosegal(n, budget)
    if n == 1:
        return certificate_to_json(flat)
    prev = certify_cosegal(n - 1, budget)
    halves = _half_transports(n, 1, budget)
    searched = flat.steps[len(prev.steps):len(flat.steps) - sum(len(h["inner"]["steps"]) for h in halves)]
    along = coface_vmap(n - 1, n, prev.start.complex.vertices)
    return _nested(flat, [_transport(nested_cosegal(n - 1, budget), along), *map(step_to_json, searched), *halves])


def nested_theta(i: int, budget: int = DEFAULT_BUDGET) -> dict:
    """theta(i) as one transport of each chain along the edge collapse."""
    data = theta_complexes(i)
    steps = []
    for chain, stages in (("f", data.f_stages), ("g", data.g_stages)):
        builder = _Builder(stages[0])
        builder.stage(stages[1], budget, f"{chain}1")
        builder.stage(stages[2], budget, f"{chain}2")
        inner = Certificate(SCALED_ANODYNE, stages[0], stages[2], tuple(builder.steps),
                            metadata=(("chain", chain), ("theta", str(i))))
        steps.append(_transport(certificate_to_json(inner), dict(data.collapse_vmap)))
    return _nested(certify_theta(i, budget), steps)


def with_injective_transports(data: dict) -> dict:
    """A certificate's JSON with every transport, nested ones too, of
    `map_kind` "injective", in place."""
    for step in data["steps"]:
        if step["kind"] == "transport":
            step["map_kind"] = "injective"
            with_injective_transports(step["inner"])
    return data
