"""Acceptance gate: every criterion at its stated bound, one line each.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

from scaledss import (
    certify_cosegal,
    certify_inner_horn,
    certify_lemma_minus,
    certify_lemma_plus,
    certify_theta,
    d_iso_check,
    latching,
    oplax_square,
    rev_duality_check,
    search_decomposition,
    thin_audit,
    tilde_ts1,
    ts,
    ts_minus,
    ts_plus,
    verify_certificate,
)
from scaledss import generators
from scaledss.certificates import GeneratorPushout, _State, apply_step, step_instance
from scaledss.complexes import OrderedComplex, close_tuples
from scaledss.checks import check_cosimplicial_identities, segment_image
from scaledss.tower import cosegal_source, image_scaled, restrict_scaling, theta_complexes


# ts(0) -> the oplax square.  It swaps the middle rows: only a swap carries
# ts(0)'s one thin triangle (000, 010, 110) onto the square's (00, 10, 11).
TS0_TO_OPLAX_SQUARE = {"000": "00", "010": "10", "100": "01", "110": "11"}


def is_scaled_isomorphism(vmap, source, target) -> bool:
    """`vmap` is a bijection from the vertices of `source` onto those of
    `target` whose image of `source`, thin triangles included, is `target`."""
    return (vmap.keys() == source.complex.vertices
            and sorted(vmap.values()) == sorted(target.complex.vertices)
            and image_scaled(source, vmap) == target)


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} criterion {num}: {name} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded its time budget"


def test_criterion_1_thin_audits():
    t0 = time.monotonic()
    ok = True
    for n in range(6):
        for part in ("plus", "minus", "full"):
            ok = ok and thin_audit(n, part)["ok"]
    for part, total, thin in (("plus", 10, 6), ("minus", 10, 2), ("full", 18, 8)):
        rep = thin_audit(1, part)
        ok = ok and rep["total"] == total and rep["thin"] == thin
    _report(1, "thin-family audits n<=5 with exact n=1 counts", ok, time.monotonic() - t0, 5.0)


def test_criterion_2_cosimplicial_identities():
    t0 = time.monotonic()
    rep = check_cosimplicial_identities(4)
    _report(2, "cosimplicial identities and scaled structure maps n<=4",
            rep["ok"], time.monotonic() - t0, 30.0)


def test_criterion_3_latching():
    t0 = time.monotonic()
    ok = all(latching(n)[1]["ok"] for n in range(1, 5))
    _report(3, "latching objects equal the column-boundary subcomplex 1<=n<=4",
            ok, time.monotonic() - t0, 30.0)


def replayed_generators(cert):
    """(state, step, instance) for each generator pushout that a replay of
    `cert` applies: the instance is the one the kernel derives at the state
    the step meets, and the state is valid until the next triple is drawn."""
    state = _State(cert.start)
    for step in cert.steps:
        if isinstance(step, GeneratorPushout):
            yield state, step, step_instance(state.tuples, state.thin, step)
        apply_step(state, step)


def json_generator_steps(steps):
    """Every generator step of a certificate's JSON in replay order: the
    order of `replayed_generators`."""
    return (s for s in steps if s["kind"] in generators.KINDS)


def _witnesses_derived(cert) -> bool:
    return all(isinstance(gen.witness_s, int)
               for _, _, gen in replayed_generators(cert) if gen.kind == "gen_horn")


def test_criterion_4_lemma_replays():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 5):
        for i in range(1, n):
            plus = certify_lemma_plus(n, i)
            minus = certify_lemma_minus(n, i)
            ok = ok and verify_certificate(plus).ok and verify_certificate(minus).ok
            ok = ok and plus.target == ts_plus(n) and minus.target == ts_minus(n)
            ok = ok and _witnesses_derived(plus) and _witnesses_derived(minus)
    _report(4, "half-lemma replays for all 0<i<n<=4 with re-checked witnesses",
            ok, time.monotonic() - t0, 300.0)


def _segment_as_coface_composite(n: int, c: int) -> frozenset:
    from scaledss.tower import coface_vmap

    skipped = [j for j in range(n + 1) if j not in (c, c + 1)]
    tuples = set()
    for t in ts(1).complex.tuples:
        cur, lev = t, 1
        for j in sorted(skipped):
            vm = coface_vmap(lev, j, cur)
            cur = tuple(vm[v] for v in cur)
            lev += 1
        tuples.add(cur)
    return frozenset(tuples)


def test_criterion_5_inner_horn_and_cosegal():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 5):
        for i in range(1, n):
            cert = certify_inner_horn(n, i)
            ok = ok and verify_certificate(cert).ok and cert.target == ts(n)
    for n in range(1, 4):
        cert = certify_cosegal(n)
        ok = ok and verify_certificate(cert).ok
        spine = cosegal_source(n)
        if n == 1:
            union = ts(1).complex.tuples
        else:
            union = frozenset().union(*(_segment_as_coface_composite(n, c) for c in range(n)))
            ok = ok and union == frozenset().union(*(segment_image(n, c) for c in range(n)))
        ok = ok and spine.complex.tuples == frozenset(union)
    _report(5, "inner-horn replays n<=4 and spine replays n<=3",
            ok, time.monotonic() - t0, 300.0)


def test_criterion_6_completeness_objects():
    t0 = time.monotonic()
    base = ts(1)
    extras = tilde_ts1().thin - base.thin
    ok = len(extras) == 6 and all(t in base.complex.tuples for t in extras)
    for i in (0, 1):
        cert = certify_theta(i)
        rep = verify_certificate(cert, audit=True)
        ok = ok and rep.ok and dict(rep.stats) == {"an1": 6, "an2_marks": 2, "gen_horn": 2}
        ok = ok and cert.target == theta_complexes(i)[1]
        ok = ok and d_iso_check(i)["ok"]
    _report(6, "six extra thin triangles, theta on its collapsed level, end-square checks",
            ok, time.monotonic() - t0, 60.0)


def test_criterion_7_duality():
    t0 = time.monotonic()
    ok = all(rev_duality_check(n)["ok"] for n in range(4))
    _report(7, "B/R duality with coface intertwining n<=3", ok, time.monotonic() - t0, 60.0)


def _sorted(tuples):
    return sorted(tuples, key=lambda t: (len(t), t))


def criterion_8_trials():
    """The 1000 seeded (source, goal) search inputs of criterion 8, on ts(2).
    Sets are read in sorted order, so the trials do not depend on the hash
    seed."""
    amb = ts(2)
    pool = _sorted(amb.complex.tuples)
    rng = random.Random(20260808)
    for trial in range(1000):
        if trial % 2 == 0:
            b_tuples = _sorted(close_tuples(rng.sample(pool, rng.randint(1, 12))))
            a_gen = [t for t in b_tuples if rng.random() < 0.6]
            a_tuples = close_tuples(a_gen) if a_gen else frozenset(
                (v,) for t in b_tuples for v in t
            )
        else:
            # keep all vertices so fills are often possible
            b_tuples = _sorted(close_tuples(rng.sample(pool, rng.randint(4, 16))))
            drop = {t for t in b_tuples if len(t) >= 3 and rng.random() < 0.5}
            a_tuples = frozenset(
                t for t in b_tuples if not any(set(d) <= set(t) for d in drop)
            )
        b = restrict_scaling(OrderedComplex(b_tuples, _validated=True), amb)
        a = restrict_scaling(OrderedComplex(a_tuples, _validated=True), amb)
        yield a, b


def test_criterion_8_randomized_soundness():
    t0 = time.monotonic()
    ok = True
    produced = 0
    for a, b in criterion_8_trials():
        cert = search_decomposition(a, b, 64)
        if cert is None:
            ok = ok and search_decomposition(a, b, 64) is None
            continue
        produced += 1
        plain = verify_certificate(cert)
        audited = verify_certificate(cert, audit=True)
        ok = ok and plain.ok and audited.ok and plain.stats == audited.stats
    print(f"    criterion 8 produced {produced} certificates out of 1000 trials")
    ok = ok and produced > 50
    _report(8, "randomized certificates agree across both verification paths",
            ok, time.monotonic() - t0, 120.0)


def test_criterion_9_oplax_square():
    t0 = time.monotonic()
    ok = is_scaled_isomorphism(TS0_TO_OPLAX_SQUARE, ts(0), oplax_square())
    print(f"    criterion 9 maps level zero along {TS0_TO_OPLAX_SQUARE}")
    _report(9, "level zero is scaling-preserving isomorphic to the oplax square",
            ok, time.monotonic() - t0, 10.0)
