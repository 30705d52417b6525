"""Helpers the tests share: a canonical listing of a complex by dimension,
the empty complex, the grid-to-join relabelling `omega`, the second path
to the minus half that the tower tests check `ts_minus` against, the
tuple on a vertex set, a step relabelled through a vertex map, a copy of
a replay state, a generator's source and target complexes, a log of the
stages `certify` runs, and the batched and nested half, inner-horn,
cosegal and theta files that older versions wrote.  None of this is
program code: no command lists by dimension, runs `omega`, looks a tuple
up by its vertex set, relabels a step, copies a replay state, builds a
generator's complexes or writes a batch or a transport step."""

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional

from scaledss import certify_cosegal, certify_inner_horn, certify_lemma_minus, certify_lemma_plus, certify_theta
from scaledss import proofs
from scaledss.certificates import SCALED_ANODYNE, Certificate, Step, _State
from scaledss.complexes import OrderedComplex, Simplex, close_tuples, simplex_key
from scaledss.errors import InputError
from scaledss.generators import GeneratorInstance
from scaledss.grid import PLUS_ROWS, vcol, vlabel, vrow
from scaledss.produce import certificate_to_json, step_to_json
from scaledss.proofs import _Builder
from scaledss.scaling import ScaledComplex
from scaledss.tower import (_frame, _sweep_cell, coface_vmap, fsr, horn, simplex_complex, sub_scaled, tilde_ts1, ts,
                            ts_minus)


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


def tuple_on(cx: OrderedComplex, vset: Iterable[str]) -> Optional[Simplex]:
    """The unique tuple of `cx` on the vertex set `vset`, if any."""
    vset = frozenset(vset)
    return next((t for t in cx.tuples if len(t) == len(vset) and frozenset(t) == vset), None)


def relabelled(step: Step, along: dict[str, str]) -> Step:
    """`step` with each letter of its word mapped through `along`, which is
    the identity off its keys."""
    return Step(step.kind, tuple(along.get(v, v) for v in step.word))


def copy_state(state: _State) -> _State:
    """A replay state with the tuples and thin set of `state`, which
    advances apart from it."""
    out = _State.__new__(_State)
    out.tuples, out.thin = set(state.tuples), set(state.thin)
    return out


def generator_complexes(gen: GeneratorInstance) -> tuple[ScaledComplex, ScaledComplex]:
    """The source and target of a generator as scaled complexes on the
    labels "0".."r", so one attach map both restricts to the source and
    realizes the target.  The target is the simplex and the source its
    horn on the positions M, or the whole simplex for an2, which lacks no
    face; both read their thin sets off the instance, whose position j is
    the label "j".  Built anew on each call, independently of the
    instance's tuple lists."""
    labels = [str(j) for j in range(gen.r + 1)]
    target = simplex_complex(labels)
    source = horn(labels, [labels[j] for j in gen.m]) if gen.m else target
    source_thin = [tuple(labels[j] for j in t) for t in gen.source_thin]
    added_thin = [tuple(labels[j] for j in t) for t in gen.added_thin]
    return ScaledComplex(source, source_thin), ScaledComplex(target, source_thin + added_thin)


# ---------------------------------------------------------------------------
# The stages `certify` runs


@contextmanager
def stage_log() -> Iterator[list[tuple[str, int, int, bool]]]:
    """While open, record each `proofs._Builder.stage` call as (name, steps
    before, steps after, whether it fell back to `search_steps`)."""
    log: list[tuple[str, int, int, bool]] = []
    stage, search = proofs._Builder.stage, proofs.search_steps
    searched = []

    def recording_search(*args):
        searched.append(True)
        return search(*args)

    def recording_stage(self, tuples, name, cells=()):
        before = len(self.steps)
        searched.clear()
        stage(self, tuples, name, cells)
        log.append((name, before, len(self.steps), bool(searched)))

    proofs._Builder.stage, proofs.search_steps = recording_stage, recording_search
    try:
        yield log
    finally:
        proofs._Builder.stage, proofs.search_steps = stage, search


# ---------------------------------------------------------------------------
# Older certificate files.  `certify` writes every step at the top level of
# one flat list.  Older files attached the cells of a sweep stage, where
# there were two or more, as one batch step {"kind": "batch", "items":
# [...]}, and older still held each certificate pushed out along a vertex
# map whole, in a transport step {"kind": "transport", "along": map,
# "inner": certificate, "map_kind": "injective" or "quotient"}, in place of
# its steps relabelled through the map; these builders write those files.


def batched_half(certify: Callable[..., Certificate], n: int, i: int) -> dict:
    """The JSON of the half certificate `certify(n, i)` with the
    steps of each stage that attached two or more named cells as one batch
    step, as `certify` wrote it while a stage attached its cells at once."""
    with stage_log() as log:
        cert = certify(n, i)
    steps = [step_to_json(s) for s in cert.steps]
    for _, before, after, searched in reversed(log):
        if not searched and after - before > 1:
            steps[before:after] = [{"kind": "batch", "items": steps[before:after]}]
    return dict(certificate_to_json(cert), steps=steps)


def _transport(inner: dict, along: dict[str, str]) -> dict:
    return {"kind": "transport", "map_kind": "quotient", "along": along, "inner": inner}


def _relabel(step: dict, along: dict[str, str]) -> dict:
    """`step` with its attach map, or each batch item's, composed with
    `along`, and the identity off its keys."""
    if step["kind"] == "batch":
        return dict(step, items=[_relabel(item, along) for item in step["items"]])
    return dict(step, attach={k: along.get(v, v) for k, v in step["attach"].items()})


def _pushed_out(inner: dict, along: dict[str, str], nest: bool) -> list[dict]:
    """The steps that push the certificate `inner` out along `along`: one
    transport if `nest`, else its steps relabelled through `along`."""
    return [_transport(inner, along)] if nest else [_relabel(s, along) for s in inner["steps"]]


def _nested(flat: Certificate, steps: list[dict]) -> dict:
    """The JSON of `flat` with `steps` in place of its own."""
    return dict(certificate_to_json(flat), steps=steps)


def _halves(n: int, i: int, nest: bool) -> list[dict]:
    """The batched plus and minus halves at (n, i), pushed out along the
    identity (see `_pushed_out`)."""
    halves = (batched_half(certify_lemma_plus, n, i), batched_half(certify_lemma_minus, n, i))
    return [s for h in halves for s in _pushed_out(h, {v: v for v in h["start"]["vertices"]}, nest)]


def batched_inner_horn(n: int, i: int, nest: bool = False) -> dict:
    """inner(n, i) as the steps of the batched halves, or, if `nest`, as one
    identity transport of each."""
    return _nested(certify_inner_horn(n, i), _halves(n, i, nest))


def batched_cosegal(n: int, nest: bool = False) -> dict:
    """cosegal(n) as the previous level pushed out along the coface map, the
    searched steps up to the inner horn, then the batched halves; with
    `nest` each of these pushouts is one transport."""
    flat = certify_cosegal(n)
    if n == 1:
        return certificate_to_json(flat)
    prev = certify_cosegal(n - 1)
    halves = len(certify_lemma_plus(n, 1).steps) + len(certify_lemma_minus(n, 1).steps)
    searched = flat.steps[len(prev.steps):len(flat.steps) - halves]
    along = coface_vmap(n - 1, n, prev.start.complex.vertices)
    return _nested(flat, [*_pushed_out(batched_cosegal(n - 1, nest), along, nest),
                          *map(step_to_json, searched), *_halves(n, 1, nest)])


def nested_theta(i: int) -> dict:
    """theta(i) as one transport of each chain along the edge collapse.
    Each chain was searched on level one before the collapse: f from the
    frame through two minus sweep cells, g from the frame and the minus
    half through two plus sweep cells to tilde_ts1; the sweep cells skip
    the one that holds the collapsed edge."""
    tilde = tilde_ts1()
    if i == 1:
        frame, edge, ks = fsr(1), ("000", "001"), (0, 0)
    else:
        frame, edge, ks = _frame("TB", 0), ("110", "111"), (1, 0)
    collapse = {v: (edge[0] if v in edge else v) for v in sorted(ts(1).complex.vertices)}
    g0 = sub_scaled(tilde, frame.complex.tuples | ts_minus(1).complex.tuples)
    steps = []
    for chain, start, half in (("f", frame, "minus"), ("g", g0, "plus")):
        builder = _Builder(start, tilde)
        for s, k in enumerate(ks):
            builder.stage(close_tuples([_sweep_cell(half, 1, s, k)]), f"{chain}{s + 1}")
        end = sub_scaled(tilde, builder.state.tuples)
        inner = Certificate(SCALED_ANODYNE, start, end, tuple(builder.steps),
                            metadata=(("chain", chain), ("theta", str(i))))
        steps.append(_transport(certificate_to_json(inner), collapse))
    return _nested(certify_theta(i), steps)


def with_injective_transports(data: dict) -> dict:
    """A certificate's JSON with every transport, nested ones too, of
    `map_kind` "injective", in place."""
    for step in data["steps"]:
        if step["kind"] == "transport":
            step["map_kind"] = "injective"
            with_injective_transports(step["inner"])
    return data
