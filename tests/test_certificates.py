"""Certificate kernel: step semantics, replay, tampering, and search."""

import pytest

from scaledss import (
    Certificate,
    GeneratorPushout,
    InputError,
    IrregularCollapse,
    ScaledComplex,
    Transport,
    certify_cosegal,
    certify_inner_horn,
    certify_lemma_minus,
    certify_lemma_plus,
    certify_theta,
    d_iso_check,
    horn,
    instantiate,
    scale,
    search_decomposition,
    simplex_complex,
    verify_certificate,
)
from scaledss.certificates import MAX_NESTING, BatchPushout, ScalingExtension, StepError, apply_step
from scaledss.complexes import OrderedComplex
from scaledss.scaling import restrict_scaling
from scaledss.search import search_steps
from scaledss.tower import horn_variants, theta_complexes, ts, ts_minus, ts_plus


def _an1_cert():
    gen = instantiate("an1", n=2, i=1)
    start = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    target = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    step = GeneratorPushout(gen, (("0", "0"), ("1", "1"), ("2", "2")))
    return Certificate("scaled_anodyne", start, target, (step,))


def test_single_an1_certificate():
    report = verify_certificate(_an1_cert(), audit=True)
    assert report.ok
    assert report.stat("an1") == 1


def test_thin_mismatch_detected():
    cert = _an1_cert()
    bad = Certificate(cert.claimed_class, cert.start,
                      ScaledComplex(cert.target.complex, ()), cert.steps)
    report = verify_certificate(bad)
    assert not report.ok
    assert "thin" in report.first_failure[1]


def test_pushout_condition_enforced():
    # attaching onto a state that already holds the filler must fail
    gen = instantiate("an1", n=2, i=1)
    full = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    step = GeneratorPushout(gen, (("0", "0"), ("1", "1"), ("2", "2")))
    with pytest.raises(StepError):
        apply_step(full, step)


def test_attach_must_be_injective_and_scaled():
    gen = instantiate("an1", n=2, i=1)
    start = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    with pytest.raises(StepError):
        apply_step(start, GeneratorPushout(gen, (("0", "0"), ("1", "0"), ("2", "2"))))
    g3 = instantiate("an1", n=3, i=1)
    lam = horn(["0", "1", "2", "3"], {"1"})
    flat = ScaledComplex(lam, ())  # middle triangle unthin: scaled-source check fails
    attach = tuple((str(j), str(j)) for j in range(4))
    with pytest.raises(StepError):
        apply_step(flat, GeneratorPushout(g3, attach))


def test_batch_requires_disjoint_interiors():
    gen = instantiate("an1", n=2, i=1)
    start = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    step = GeneratorPushout(gen, (("0", "0"), ("1", "1"), ("2", "2")))
    with pytest.raises(StepError, match="disjoint interiors"):
        apply_step(start, BatchPushout((step, step)))


def test_scaling_extension_degenerate_attach():
    # mark (a,b,d) on a tetrahedron whose other three faces are thin
    cx = simplex_complex(["a", "b", "c", "d"])
    state = ScaledComplex(cx, {("a", "c", "d"), ("a", "b", "c"), ("b", "c", "d")})
    step = ScalingExtension((("0", "a"), ("1", "b"), ("2", "c"), ("3", "c"), ("4", "d")))
    new, _, added = apply_step(state, step)
    assert added == frozenset({("a", "b", "d")})
    assert new.complex == cx
    # missing a required thin triangle: rejected
    weak = ScaledComplex(cx, {("a", "c", "d"), ("a", "b", "c")})
    with pytest.raises(StepError):
        apply_step(weak, step)


def test_class_rules():
    cert = certify_theta(1)
    assert cert.claimed_class == "trivial_cofibration"
    relabeled = Certificate("scaled_anodyne", cert.start, cert.target, cert.steps)
    report = verify_certificate(relabeled)
    assert not report.ok and report.first_failure[0] == -1


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
def test_lemma_plus(n, i):
    cert = certify_lemma_plus(n, i)
    assert verify_certificate(cert).ok
    assert cert.target == ts_plus(n)
    # every generalized-horn step carries its re-checked witness
    def check(steps):
        for s in steps:
            if isinstance(s, GeneratorPushout) and s.gen.kind == "gen_horn":
                assert isinstance(s.gen.param("witness_s"), int)
            if isinstance(s, BatchPushout):
                check(s.items)
    check(cert.steps)


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
def test_lemma_minus(n, i):
    cert = certify_lemma_minus(n, i)
    assert verify_certificate(cert).ok
    assert cert.target == ts_minus(n)


def test_lemma_rejects_outer_horn():
    with pytest.raises(InputError):
        certify_lemma_plus(2, 0)


@pytest.mark.parametrize("n,i", [(2, 1), (3, 2)])
def test_inner_horn(n, i):
    cert = certify_inner_horn(n, i)
    assert verify_certificate(cert).ok
    assert cert.target == ts(n)
    # replaying the first transport lands exactly on horn-union-plus-half
    state, _, _ = apply_step(cert.start, cert.steps[0])
    expected = restrict_scaling(
        OrderedComplex(
            horn_variants(n, i, "full").complex.tuples | ts_plus(n).complex.tuples,
            _validated=True,
        ),
        ts(n),
    )
    assert state == expected


def test_cosegal():
    c1 = certify_cosegal(1)
    assert verify_certificate(c1).ok and not c1.steps
    c2 = certify_cosegal(2)
    assert verify_certificate(c2).ok
    assert c2.target == ts(2)


@pytest.mark.parametrize("i", [0, 1])
def test_theta(i):
    cert = certify_theta(i)
    report = verify_certificate(cert, audit=True)
    assert report.ok
    assert report.stat("special_tc") == 2
    assert report.stat("transport_quotient") == 2
    assert cert.target == theta_complexes(i).e2


def test_theta_tamper_fails():
    cert = certify_theta(1)
    # dropping a collapse transport loses content
    pruned = Certificate(cert.claimed_class, cert.start, cert.target,
                         tuple(s for s in cert.steps if not isinstance(s, Transport)))
    assert not verify_certificate(pruned).ok
    truncated = Certificate(cert.claimed_class, cert.start, cert.target, cert.steps[:1])
    report = verify_certificate(truncated)
    assert not report.ok and "not reached" in report.first_failure[1]


@pytest.mark.parametrize("i", [0, 1])
def test_d_iso_check(i):
    assert d_iso_check(i)["ok"]
    # the double collapse is insensitive to the extra thin marks: every extra
    # has a same-class pair, so its image is degenerate either way
    assert d_iso_check(i, "plain")["ok"]


def test_search_examples():
    lam = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    filled = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    cert = search_decomposition(lam, filled)
    assert cert is not None and len(cert.steps) == 1
    assert verify_certificate(cert).ok
    # flat target: the inner-horn generator needs the thin middle triangle
    assert search_decomposition(lam, scale(simplex_complex(["0", "1", "2"]), "flat")) is None


def test_search_prism_subgoal():
    # the prism gluing stage of the plus lemma: top prism over the 2-horn
    amb = ts_plus(2)
    start_tuples = frozenset(
        t for t in amb.complex.tuples
        if {v[:2] for v in t} <= {"00", "01"}
        and any(s not in {int(v[2:]) for v in t} for s in (0, 2))
        or {v[:2] for v in t} <= {"00"} or {v[:2] for v in t} <= {"01"}
    )
    goal_tuples = frozenset(
        t for t in amb.complex.tuples if {v[:2] for v in t} <= {"00", "01"}
    ) | start_tuples
    a = restrict_scaling(OrderedComplex(start_tuples, _validated=True), amb)
    b = restrict_scaling(OrderedComplex(goal_tuples, _validated=True), amb)
    found = search_steps(a, b, 64)
    assert found is not None
    assert found[1] == b


def test_search_literal_an2_match():
    labels = [str(j) for j in range(5)]
    cx = simplex_complex(labels)
    t5 = {("0", "2", "4"), ("1", "2", "3"), ("0", "1", "3"), ("1", "3", "4"), ("0", "1", "2")}
    a = ScaledComplex(cx, t5)
    b = ScaledComplex(cx, t5 | {("0", "3", "4"), ("0", "1", "4")})
    cert = search_decomposition(a, b)
    assert cert is not None and verify_certificate(cert).ok
    kinds = [s.gen.kind for s in cert.steps if isinstance(s, GeneratorPushout)]
    assert kinds == ["an2"]


def test_search_requires_subcomplex():
    d2 = scale(simplex_complex(["0", "1", "2"]), "flat")
    other = scale(simplex_complex(["3", "4"]), "flat")
    with pytest.raises(InputError):
        search_decomposition(other, d2)


def test_search_never_invents_vertices():
    edge = scale(simplex_complex(["0", "1"]), "flat")
    tri = scale(simplex_complex(["0", "1", "2"]), "sharp")
    assert search_decomposition(restrict_scaling(edge.complex, tri), tri) is None


def _adds_tuples(step, state):
    try:
        _, added, _ = apply_step(state, step)
    except StepError:
        return False
    return bool(added)


def test_tamper_fuzz_drop_and_duplicate():
    cert = certify_lemma_plus(2, 1)
    assert verify_certificate(cert).ok
    # replay once to know each step's entry state
    states = [cert.start]
    for step in cert.steps:
        new, _, _ = apply_step(states[-1], step)
        states.append(new)
    for idx, step in enumerate(cert.steps):
        if not _adds_tuples(step, states[idx]):
            continue
        dropped = Certificate(cert.claimed_class, cert.start, cert.target,
                              cert.steps[:idx] + cert.steps[idx + 1:])
        assert not verify_certificate(dropped).ok, f"drop {idx} slipped through"
        doubled = Certificate(cert.claimed_class, cert.start, cert.target,
                              cert.steps[:idx + 1] + cert.steps[idx:])
        assert not verify_certificate(doubled).ok, f"duplicate {idx} slipped through"


def test_input_validation_edges():
    with pytest.raises(InputError):
        certify_inner_horn(1, 1)
    with pytest.raises(InputError):
        certify_theta(2)
    with pytest.raises(InputError):
        d_iso_check(3)
    with pytest.raises(InputError):
        d_iso_check(0, scaling="bogus")


def test_transport_quotient_revalidates():
    cert = certify_theta(1)
    first = cert.steps[0]
    wrong_state = theta_complexes(1).e2
    with pytest.raises(StepError):
        apply_step(wrong_state, first)


def test_forged_horn_declaration_rejected():
    # a declaration that satisfies the criterion in the abstract, attached to a
    # state where those triangles are present but unthin, must be rejected
    gen = instantiate("gen_horn", r=4, m=(1, 2), thin=((0, 2, 3), (1, 2, 3)))
    labels = [str(j) for j in range(5)]
    state = ScaledComplex(horn(labels, {"1", "2"}), ())  # flat horn
    step = GeneratorPushout(gen, tuple((v, v) for v in labels))
    with pytest.raises(StepError):
        apply_step(state, step)
    # with the declared triangles genuinely thin, the same step applies
    honest = ScaledComplex(horn(labels, {"1", "2"}), {("0", "2", "3"), ("1", "2", "3")})
    new, added, _ = apply_step(honest, step)
    assert len(added) == 4


def test_forged_witness_rejected_on_load():
    import json

    from scaledss.serialize import certificate_from_json, certificate_to_json

    cert = certify_lemma_plus(2, 1)
    data = json.loads(json.dumps(certificate_to_json(cert)))

    def forge(steps):
        for s in steps:
            if s.get("kind") == "gen_horn":
                s["witness_s"] = s["witness_s"] + 1
                return True
            if s.get("kind") == "batch" and forge(s["items"]):
                return True
        return False

    assert forge(data["steps"])
    with pytest.raises(InputError):
        certificate_from_json(data)


def test_overclaiming_thin_fails_at_target():
    # an An1 fill of a flat triangle replays, but the mark overshoots the target
    gen = instantiate("an1", n=2, i=1)
    start = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    flat_target = scale(simplex_complex(["0", "1", "2"]), "flat")
    step = GeneratorPushout(gen, (("0", "0"), ("1", "1"), ("2", "2")))
    cert = Certificate("scaled_anodyne", start, flat_target, (step,))
    report = verify_certificate(cert)
    assert not report.ok and "thin" in report.first_failure[1]


def test_injective_transport_pushout_condition_rejected():
    inner = _an1_cert()
    # the state already holds part of the transported target beyond the source
    state_cx = OrderedComplex.from_tuples([("a", "b"), ("b", "c"), ("a", "c")])
    state = ScaledComplex(state_cx, ())
    step = Transport(inner, (("0", "a"), ("1", "b"), ("2", "c")), "injective")
    with pytest.raises(StepError):
        apply_step(state, step)


def _misattached_an1_cert():
    # the state holds (y, x); attaching 0->x, 1->z, 2->y would add (x, y)
    # on the same vertex set
    gen = instantiate("an1", n=2, i=1)
    start = ScaledComplex(OrderedComplex.from_tuples([("x", "z"), ("z", "y"), ("y", "x")]), ())
    step = GeneratorPushout(gen, (("0", "x"), ("1", "z"), ("2", "y")))
    return Certificate("scaled_anodyne", start, start, (step,))


def test_in_kernel_input_error_is_a_located_failure():
    cert = _misattached_an1_cert()
    for audit in (False, True):
        report = verify_certificate(cert, audit=audit)
        assert not report.ok and report.first_failure[0] == 0
    with pytest.raises(StepError):
        apply_step(cert.start, cert.steps[0])


def test_irregular_transport_image_is_a_located_failure():
    # a quotient transport along 0->a, 1->b, 2->a sends (0, 1, 2) to (a, b, a)
    d2 = scale(simplex_complex(["0", "1", "2"]), "flat")
    inner = Certificate("scaled_anodyne", d2, d2, ())
    state = ScaledComplex(OrderedComplex.from_tuples([("a", "b")]), ())
    step = Transport(inner, (("0", "a"), ("1", "b"), ("2", "a")), "quotient")
    with pytest.raises(StepError) as info:
        apply_step(state, step)
    assert isinstance(info.value.__cause__, IrregularCollapse)
    report = verify_certificate(Certificate("trivial_cofibration", state, state, (step,)))
    assert not report.ok and report.first_failure[0] == 0


def test_cli_rejects_misattached_certificate(tmp_path):
    from scaledss.cli import main
    from scaledss.serialize import canonical_dumps, certificate_to_json

    path = tmp_path / "misattached.json"
    path.write_text(canonical_dumps(certificate_to_json(_misattached_an1_cert())))
    assert main(["verify", "--cert", str(path)]) == 1
    assert main(["verify", "--cert", str(path), "--audit"]) == 1


def _count_full_constructions(monkeypatch):
    calls = []
    init = OrderedComplex.__init__

    def counting(self, tuples, *, _validated=False):
        calls.append(_validated)
        init(self, tuples, _validated=_validated)

    monkeypatch.setattr(OrderedComplex, "__init__", counting)
    return calls


def test_plain_replay_builds_no_full_state(monkeypatch):
    cert = certify_lemma_plus(3, 1)
    instantiate("an2")  # scaling extensions read the memoised instance
    calls = _count_full_constructions(monkeypatch)
    assert verify_certificate(cert).ok
    assert calls == []
    # the audit still rebuilds every state with the validating constructor
    assert verify_certificate(cert, audit=True).ok
    assert calls == [False] * len(cert.steps)


def _an1_batch(names):
    gen = instantiate("an1", n=2, i=1)
    return BatchPushout(tuple(
        GeneratorPushout(gen, tuple((str(j), f"{x}{j}") for j in range(3))) for x in names))


def _horns(names):
    cx = OrderedComplex.empty()
    for x in names:
        cx = cx.union(horn([f"{x}0", f"{x}1", f"{x}2"], {f"{x}1"}))
    return ScaledComplex(cx, ())


def test_batch_builds_one_state_like_its_items_in_turn():
    start = _horns("abc")
    batch = _an1_batch("abc")
    new, added, added_thin = apply_step(start, batch)
    state = start
    for item in batch.items:
        state, _, _ = apply_step(state, item)
    assert new == state
    assert added == state.complex.tuples - start.complex.tuples
    assert added_thin == state.thin == {("a0", "a1", "a2"), ("b0", "b1", "b2"), ("c0", "c1", "c2")}


def test_batch_failures_are_located():
    batch = _an1_batch("abc")
    with pytest.raises(StepError, match="disjoint interiors"):
        apply_step(_horns("abc"), BatchPushout(batch.items + batch.items[1:2]))
    # the middle item's horn is missing: the batch step is the located failure
    start = _horns("ac")
    target = ScaledComplex(start.complex.union(_horns("b").complex), ())
    report = verify_certificate(Certificate("scaled_anodyne", start, target, (batch,)))
    assert not report.ok
    assert report.first_failure == (0, "attach does not carry the generator source into the state")


def _transport_chain(base, depth):
    """`base` inside `depth` identity injective transports, each landing on
    the base target."""
    ident = tuple((v, v) for v in sorted(base.start.complex.vertices))
    cert = base
    for _ in range(depth):
        cert = Certificate(base.claimed_class, base.start, base.target,
                           (Transport(cert, ident, "injective"),))
    return cert


def test_transport_nesting_bound():
    base = _an1_cert()
    report = verify_certificate(_transport_chain(base, MAX_NESTING), audit=True)
    assert report.ok and report.stat("transport_injective") == 1
    for depth in (MAX_NESTING + 1, 5000):  # 5000 would exhaust the stack
        report = verify_certificate(_transport_chain(base, depth))
        assert not report.ok
        assert report.first_failure == (0, f"transports nest deeper than {MAX_NESTING}")
    # nesting under a later step is located at that step
    deep = _transport_chain(base, MAX_NESTING + 1)
    cert = Certificate(base.claimed_class, base.start, base.target,
                       base.steps + deep.steps)
    assert verify_certificate(cert).first_failure[0] == 1
