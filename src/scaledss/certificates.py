"""Replayable certificates: pushout steps, scaling extensions, transports.

A certificate is an ordered list of steps that, replayed from its start
complex, must land exactly on its target complex (tuple sets and thin sets
equal).  Verification replays everything and re-checks every step-level
invariant; nothing is trusted from construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .complexes import OrderedComplex, Simplex, dedup_word
from .errors import InputError
from .generators import AN2_EXTRA_THIN, AN2_SOURCE_THIN, PARAMETERS, GeneratorInstance, instantiate
from .scaling import ScaledComplex, image_scaled


class StepError(Exception):
    """A step failed validation during replay."""


@dataclass(frozen=True)
class GeneratorPushout:
    """Attach a generator along an injective, scaled attach map.

    The attach map is given on the generator's (shared source/target)
    vertex labels.
    """

    gen: GeneratorInstance
    attach: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ScalingExtension:
    """Add thin marks by a (possibly degenerate) map of the Delta^4 scaling
    generator; the underlying complex is unchanged."""

    attach: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Transport:
    """Push a verified inner certificate forward along a map.

    map_kind "injective": the result is the union with the image of the
    inner target, under the pushout condition that the image of the target
    meets the state exactly in the image of the start.  map_kind
    "quotient": the map is a collapse-regular vertex quotient; the result
    is the recomputed quotient of the inner target.
    """

    inner: "Certificate"
    along: tuple[tuple[str, str], ...]
    map_kind: str


@dataclass(frozen=True)
class BatchPushout:
    """Generator pushouts with pairwise disjoint added cells, attached
    simultaneously to one state."""

    items: tuple[GeneratorPushout, ...]


Step = Union[GeneratorPushout, ScalingExtension, Transport, BatchPushout]

SCALED_ANODYNE = "scaled_anodyne"
TRIVIAL_COFIBRATION = "trivial_cofibration"

# The deepest chain of transports inside transports that the verifier
# replays; the certificates `proofs` builds nest at most 3 deep.  The bound
# keeps replay, and the recursion it takes, small for any input.
MAX_NESTING = 32


@dataclass(frozen=True)
class Certificate:
    claimed_class: str
    start: ScaledComplex
    target: ScaledComplex
    steps: tuple[Step, ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.claimed_class not in (SCALED_ANODYNE, TRIVIAL_COFIBRATION):
            raise InputError(f"unknown certificate class {self.claimed_class!r}")


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    first_failure: Optional[tuple[int, str]]
    stats: tuple[tuple[str, int], ...]
    steps: int

    def stat(self, kind: str) -> int:
        return dict(self.stats).get(kind, 0)


# ---------------------------------------------------------------------------
# Step application


def _image(tuples: Iterable[Simplex], vmap: dict[str, str]) -> frozenset[Simplex]:
    """Tuples relabelled letter by letter (no deduplication)."""
    return frozenset(tuple(map(vmap.__getitem__, t)) for t in tuples)


def _extend(state: ScaledComplex, added: Iterable[Simplex], added_thin: Iterable[Simplex]) -> tuple[ScaledComplex, frozenset[Simplex], frozenset[Simplex]]:
    added, added_thin = frozenset(added), frozenset(added_thin)
    return state.extended(added, added_thin), added, added_thin


def _pushout_delta(state: ScaledComplex, source: ScaledComplex, target: ScaledComplex,
                   vmap: dict[str, str]) -> tuple[frozenset[Simplex], frozenset[Simplex]]:
    """Check that attaching `target` along `vmap`, a map on its vertex
    labels, is a pushout of the inclusion of `source` onto the state; return
    the tuples and thin marks it adds.

    The map must be injective on the target's vertices, carry the source
    into the state and its thin triangles to thin ones, and the target must
    meet the state exactly in the source.
    """
    verts = target.complex.vertices
    if verts - vmap.keys():
        raise StepError("the map does not cover the target vertices")
    if len({vmap[v] for v in verts}) != len(verts):
        raise StepError("the map is not injective on the target vertices")
    src_img = _image(source.complex.tuples, vmap)
    if not src_img <= state.complex.tuples:
        raise StepError("the map does not carry the source into the state")
    if not _image(source.thin, vmap) <= state.thin:
        raise StepError("the map does not carry the source's thin triangles to thin ones")
    tgt_img = _image(target.complex.tuples, vmap)
    if tgt_img & state.complex.tuples != src_img:
        raise StepError("pushout condition fails: the target meets the state beyond the source")
    return tgt_img - src_img, _image(target.thin, vmap) - state.thin


def _generator_delta(state: ScaledComplex, step: GeneratorPushout) -> tuple[frozenset[Simplex], frozenset[Simplex]]:
    """Check one generator pushout against the state; return the tuples and
    thin marks it adds.

    The instance must be the one `instantiate` builds from its kind and
    parameters, so the kernel trusts no source or target a step brings.
    `instantiate` re-derives admissibility and the witness of a generalized
    horn, and then the pushout check covers the rest of its criterion:
    - a declared thin triple inside the horn is in the source's thin set,
      which must land on thin triangles; one outside the horn is
      target-only, so the pushout condition keeps it out of the state;
    - a run triangle (i, t, t + 1) lies in the horn, because t is in M and
      |M| <= r - 2 leaves a vertex outside M that it misses;
    - when |M| = r - 2 the face opposite M is target-only, so it is neither
      in the state nor, by admissibility, declared thin.
    """
    gen = step.gen
    names = PARAMETERS.get(gen.kind, ())
    if gen != instantiate(gen.kind, **{k: v for k, v in gen.params if k in names}):
        raise StepError("the generator instance is not the one its kind and parameters define")
    return _pushout_delta(state, gen.source, gen.target, dict(step.attach))


def _apply_scaling_extension(state: ScaledComplex, step: ScalingExtension) -> tuple[ScaledComplex, frozenset[Simplex], frozenset[Simplex]]:
    vmap = dict(step.attach)
    gen = instantiate("an2")
    if gen.source.complex.vertices - vmap.keys():
        raise StepError("scaling extension attach must cover the five vertices")
    for t in gen.source.complex.tuples:
        img = dedup_word([vmap[v] for v in t])
        if img is None or img not in state.complex.tuples:
            raise StepError("scaling extension attach is not simplicial into the state")
    for t in AN2_SOURCE_THIN:
        img = dedup_word([vmap[v] for v in t])
        if img is None:
            raise StepError("scaling extension attach is not simplicial on a thin triple")
        if len(img) == 3 and img not in state.thin:
            raise StepError(f"required thin triangle {img} is not thin in the state")
    marks = set()
    for t in AN2_EXTRA_THIN:
        img = dedup_word([vmap[v] for v in t])
        if img is not None and len(img) == 3:
            marks.add(img)
    return _extend(state, (), frozenset(marks) - state.thin)


def _apply_transport(state: ScaledComplex, step: Transport) -> tuple[ScaledComplex, frozenset[Simplex], frozenset[Simplex]]:
    inner = step.inner
    report = verify_certificate(inner)
    if not report.ok:
        idx, msg = report.first_failure
        raise StepError(f"inner step {idx}: {msg}")
    vmap = dict(step.along)
    if step.map_kind not in ("quotient", "injective"):
        raise StepError(f"unknown transport kind {step.map_kind!r}")
    missing = inner.start.complex.vertices - vmap.keys()
    if missing:
        raise StepError("transport map does not cover the inner start vertices")
    full = dict(vmap)
    for v in inner.target.complex.vertices - vmap.keys():
        full[v] = v

    if step.map_kind == "quotient":
        src_img = image_scaled(inner.start, full)
        if src_img != state:
            raise StepError("quotient of the inner start does not match the state")
        new = image_scaled(inner.target, full)
        if not state.complex.tuples <= new.complex.tuples or not state.thin <= new.thin:
            raise StepError("quotient transport lost part of the state")
        added = new.complex.tuples - state.complex.tuples
        added_thin = new.thin - state.thin
        return new, added, added_thin

    return _extend(state, *_pushout_delta(state, inner.start, inner.target, full))


def _apply_batch(state: ScaledComplex, step: BatchPushout) -> tuple[ScaledComplex, frozenset[Simplex], frozenset[Simplex]]:
    """Every item is checked against the same state; one state holds them all."""
    if not step.items:
        raise StepError("empty batch")
    if not all(isinstance(item, GeneratorPushout) for item in step.items):
        raise StepError("batch items must be generator pushouts")
    all_added: set[Simplex] = set()
    all_thin: set[Simplex] = set()
    for item in step.items:
        added, added_thin = _generator_delta(state, item)
        if not all_added.isdisjoint(added):
            raise StepError("batch items do not have disjoint interiors")
        all_added |= added
        all_thin |= added_thin
    return _extend(state, all_added, all_thin)


def apply_step(state: ScaledComplex, step: Step) -> tuple[ScaledComplex, frozenset[Simplex], frozenset[Simplex]]:
    """Apply one step; every rejection, including an input error raised by a
    complex the step would build, surfaces as a StepError."""
    try:
        if isinstance(step, GeneratorPushout):
            return _extend(state, *_generator_delta(state, step))
        if isinstance(step, ScalingExtension):
            return _apply_scaling_extension(state, step)
        if isinstance(step, Transport):
            return _apply_transport(state, step)
        if isinstance(step, BatchPushout):
            return _apply_batch(state, step)
    except InputError as exc:
        raise StepError(str(exc)) from exc
    raise StepError(f"unknown step type {type(step).__name__}")


def step_kind(step: Step) -> str:
    if isinstance(step, GeneratorPushout):
        return step.gen.kind
    if isinstance(step, ScalingExtension):
        return "an2_marks"
    if isinstance(step, Transport):
        return f"transport_{step.map_kind}"
    if isinstance(step, BatchPushout):
        return "batch"
    return "unknown"


def _nesting_violation(cert: Certificate) -> Optional[tuple[int, str]]:
    """The first top-level step under which transports nest deeper than
    MAX_NESTING, found level by level without recursion."""
    for idx, step in enumerate(cert.steps):
        level = [step]
        for _ in range(MAX_NESTING):
            level = [s for t in level if isinstance(t, Transport) for s in t.inner.steps]
            if not level:
                break
        if any(isinstance(t, Transport) for t in level):
            return idx, f"transports nest deeper than {MAX_NESTING}"
    return None


def _class_violation(cert: Certificate) -> Optional[str]:
    if cert.claimed_class == TRIVIAL_COFIBRATION:
        return None

    # A batch is looked into one level deep: `_apply_batch` rejects, at its
    # own step, any item that is not a generator pushout.  So recursion
    # follows transports only, which `_nesting_violation` bounds.
    def scan(steps: Iterable[Step]) -> Optional[str]:
        for step in steps:
            items = step.items if isinstance(step, BatchPushout) else (step,)
            if any(isinstance(s, GeneratorPushout) and s.gen.kind == "special_tc" for s in items):
                return "special_tc step inside a scaled_anodyne certificate"
            if isinstance(step, Transport):
                vals = [v for _, v in step.along]
                if len(set(vals)) != len(vals):
                    return "non-injective transport inside a scaled_anodyne certificate"
                if step.inner.claimed_class != SCALED_ANODYNE:
                    return "trivial_cofibration inner certificate inside a scaled_anodyne one"
                bad = scan(step.inner.steps)
                if bad:
                    return bad
        return None

    return scan(cert.steps)


def _replay(cert: Certificate, audit: bool, stats: dict[str, int]) -> Optional[tuple[int, str]]:
    """Replay the certificate, counting each step kind in `stats`; return
    the first failure as (step index, message), or None."""
    deep = _nesting_violation(cert)
    if deep is not None:
        return deep
    bad = _class_violation(cert)
    if bad is not None:
        return -1, bad
    state = cert.start
    for idx, step in enumerate(cert.steps):
        try:
            new, added, added_thin = apply_step(state, step)
        except StepError as exc:
            return idx, str(exc)
        if audit:
            try:
                recomputed = OrderedComplex(set(state.complex.tuples) | set(added))
            except InputError as exc:
                return idx, f"audit: {exc}"
            if isinstance(step, Transport) and step.map_kind == "quotient":
                recomputed = new.complex  # quotients replace the state wholesale
            if recomputed != new.complex or not state.thin <= new.thin:
                return idx, "audit: recomputed state disagrees"
        kind = step_kind(step)
        stats[kind] = stats.get(kind, 0) + 1
        state = new
    if state.complex != cert.target.complex:
        return len(cert.steps), "target complex not reached"
    if state.thin != cert.target.thin:
        return len(cert.steps), "target thin set not reached"
    return None


def verify_certificate(cert: Certificate, audit: bool = False) -> VerifyReport:
    """Replay the certificate and check every invariant.

    With ``audit`` the state after every step is also recomputed from raw
    tuple sets with full face-closure validation, as an independent path.
    """
    stats: dict[str, int] = {}
    failure = _replay(cert, audit, stats)
    return VerifyReport(failure is None, failure, tuple(sorted(stats.items())), len(cert.steps))
