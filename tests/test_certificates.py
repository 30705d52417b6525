"""Certificate kernel: step semantics, replay, tampering, and search."""

import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from scaledss import (
    Admissible,
    Certificate,
    CertifyFailure,
    GeneratorInstance,
    InputError,
    IrregularCollapse,
    ScaledComplex,
    Step,
    certify_cosegal,
    certify_inner_horn,
    certify_lemma_minus,
    certify_lemma_plus,
    certify_theta,
    d_iso_check,
    gen_horn_admissible,
    horn,
    instantiate,
    search_decomposition,
    simplex_complex,
    verify_certificate,
)
from scaledss import certificates, complexes, generators, proofs, search
from scaledss.cli import main
from scaledss.audit import AuditRecord, _index_vsets
from scaledss.certificates import StepError, _State, apply_step, step_instance
from scaledss.complexes import OrderedComplex, close_tuples, dedup_word, faces
from scaledss.produce import certificate_to_json, scaled_to_json
from scaledss.serialize import certificate_from_json
from scaledss.search import _try_attach, search_steps
from scaledss.tower import (_sweep_cell, horn_variants, image_scaled, restrict_scaling, sub_scaled, theta_complexes,
                            ts, ts_minus, ts_plus, vlabel)
from support import copy_state, generator_complexes, relabelled, simplices, tuple_on
from test_acceptance import json_generator_steps, replayed_generators


# theta's one stage, searched on the collapsed level
THETA_STATS = {"an1": 6, "an2_marks": 2, "gen_horn": 2}


def _an1_cert():
    start = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    target = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    step = Step("an1", ("0", "1", "2"))
    return Certificate("scaled_anodyne", start, target, (step,))


def test_single_an1_certificate():
    report = verify_certificate(_an1_cert(), audit=True)
    assert report.ok
    assert dict(report.stats) == {"an1": 1}


def test_thin_mismatch_detected():
    cert = _an1_cert()
    bad = Certificate(cert.claimed_class, cert.start,
                      ScaledComplex(cert.target.complex, ()), cert.steps)
    report = verify_certificate(bad)
    assert not report.ok
    assert "thin" in report.first_failure[1]


def test_pushout_condition_enforced():
    # attaching onto a state that already holds the filler must fail
    full = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    step = Step("an1", ("0", "1", "2"))
    with pytest.raises(StepError):
        apply_step(_State(full), step)


def test_attach_must_be_injective_and_scaled():
    start = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    with pytest.raises(StepError):
        apply_step(_State(start), Step("an1", ("0", "0", "2")))
    lam = horn(["0", "1", "2", "3"], {"1"})
    flat = ScaledComplex(lam, ())  # middle triangle unthin: scaled-source check fails
    with pytest.raises(StepError, match="thin"):
        apply_step(_State(flat), Step("an1", tuple("0123")))


def test_scaling_extension_degenerate_attach():
    # mark (a,b,d) on a tetrahedron whose other three faces are thin
    cx = simplex_complex(["a", "b", "c", "d"])
    state = ScaledComplex(cx, {("a", "c", "d"), ("a", "b", "c"), ("b", "c", "d")})
    step = Step("an2_marks", ("a", "b", "c", "c", "d"))
    new = _State(state)
    added, added_thin = apply_step(new, step)
    assert not added and added_thin == frozenset({("a", "b", "d")})
    assert new.tuples == cx.tuples
    # missing a required thin triangle: rejected
    weak = ScaledComplex(cx, {("a", "c", "d"), ("a", "b", "c")})
    with pytest.raises(StepError):
        apply_step(_State(weak), step)


def _reference_scaling_delta(tuples, thin, step):
    """The separate scaling-extension check the kernel once ran, kept as a
    reference for the `an2` pushout that replaced it."""
    word = step.word
    img = dedup_word(word)
    if img is None or img not in tuples:
        raise StepError("scaling extension attach is not simplicial into the state")
    for t in generators.AN2_SOURCE_THIN:
        img = dedup_word([word[j] for j in t])
        if len(img) == 3 and img not in thin:
            raise StepError(f"required thin triangle {img} is not thin in the state")
    marks = {img for img in (dedup_word([word[j] for j in t]) for t in generators.AN2_EXTRA_THIN)
             if len(img) == 3}
    return frozenset(), frozenset(marks).difference(thin)


def _seeded_scaling_states(count):
    """Delta^4 on abcde thin but for the two triangles the identity attach
    marks, then with seeded random thin sets, and a partial complex of two
    of its 3-faces and an edge."""
    rng = random.Random(4)
    full = OrderedComplex(close_tuples([tuple("abcde")]))
    yield ScaledComplex(full, set(simplices(full, 2)) - {tuple("ade"), tuple("abe")})
    partial = OrderedComplex(close_tuples([tuple("abcd"), tuple("bcde"), tuple("ae")]))
    for cx in [full] * (count - 2) + [partial]:
        yield ScaledComplex(cx, [t for t in simplices(cx, 2) if rng.random() < 0.6])


def test_scaling_extension_is_the_an2_pushout():
    accepted = marked = 0
    for start in _seeded_scaling_states(8):
        state = _State(start)
        for word in product("abcde", repeat=5):
            step = Step("an2_marks", word)
            try:
                expected = _reference_scaling_delta(state.tuples, state.thin, step)
            except StepError:
                expected = None
            trial = copy_state(state)
            try:
                got = apply_step(trial, step)
            except StepError:
                got = None
            assert got == expected, (start, word)
            accepted += got is not None
            marked += got is not None and bool(got[1])
    assert accepted > marked > 0


def _an2_on_abcde():
    """Delta^4 on a..e with the an2 source's five triangles thin, the two
    marks the word abcde adds, and the scaling extension along it."""
    word = tuple("abcde")
    source_thin = [tuple(word[j] for j in t) for t in generators.AN2_SOURCE_THIN]
    marks = [tuple(word[j] for j in t) for t in generators.AN2_EXTRA_THIN]
    return ScaledComplex(simplex_complex(word), source_thin), marks, Step("an2_marks", word)


def test_an2_attaches_along_its_vertices_only(tmp_path: Path, capsys):
    """A scaling extension, the one step that attaches an2, is the word of
    its five vertices' images: on Delta^4 with the five source triangles
    thin the word abcde adds the two marks.  A word of six letters is no
    scaling extension, and a file whose an2_marks attach map holds a sixth
    key exits 2 naming it, plain and audited."""
    start, marks, good = _an2_on_abcde()
    target = ScaledComplex(start.complex, start.thin | set(marks))
    assert apply_step(_State(start), good) == (frozenset(), frozenset(marks))
    with pytest.raises(InputError, match="an an2 word has 5 letters, not 6"):
        Step("an2_marks", good.word + ("zz",))
    cert = Certificate("scaled_anodyne", start, target, (good,))
    data = certificate_to_json(cert)
    data["steps"][0]["attach"]["9"] = "zz"
    path = tmp_path / "extra_label.json"
    path.write_text(json.dumps(data))
    message = 'the attach map has the key \'9\': its keys must be "0".."4"'
    for audit in (False, True):
        assert verify_certificate(cert, audit=audit).ok
        assert main(["verify", "--cert", str(path)] + ["--audit"] * audit) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


def _an1_missing_2():
    start = ScaledComplex(OrderedComplex.from_tuples([("a", "b"), ("b", "c")]))
    target = ScaledComplex(simplex_complex("abc"), [("a", "b", "c")])
    data = certificate_to_json(Certificate("scaled_anodyne", start, target, (Step("an1", tuple("abc")),)))
    data["steps"][0]["attach"] = {"0": "a", "1": "b", "3": "c"}
    return data, 'has the key \'3\': its keys must be "0".."2"'


def _an2_missing_3():
    start, _, step = _an2_on_abcde()
    data = certificate_to_json(Certificate("scaled_anodyne", start, start, (step,)))
    del data["steps"][0]["attach"]["3"]
    return data, 'lacks the key \'3\': its keys must be "0".."4"'


@pytest.mark.parametrize("case", [_an2_missing_3, _an1_missing_2], ids=["an2_marks", "an1"])
def test_an_attach_map_that_misses_a_label_exits_2(tmp_path: Path, capsys, case):
    """The decoder reads an attach map's keys as the positions "0".."r", and
    for an an2_marks step r = 4: a scaling extension without "3", or an an1
    step on "0", "1" and "3", is malformed, and the message names the key."""
    data, message = case()
    path = tmp_path / "uncovered.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputError, match=re.escape(message)):
        certificate_from_json(data)
    for audit in (False, True):
        assert main(["verify", "--cert", str(path)] + ["--audit"] * audit) == 2
        assert capsys.readouterr().err == f"input error: the attach map {message}\n"


def test_class_rules():
    """Every accepted step is a checked pushout, so an accepted certificate
    is scaled anodyne: theta, which claims the weaker class, verifies as
    scaled_anodyne too, with the steps of its collapsed chains."""
    cert = certify_theta(1)
    assert cert.claimed_class == "trivial_cofibration"
    relabeled = Certificate("scaled_anodyne", cert.start, cert.target, cert.steps)
    for audit in (False, True):
        report = verify_certificate(relabeled, audit=audit)
        assert report.ok and dict(report.stats) == THETA_STATS


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
def test_lemma_plus(n, i):
    cert = certify_lemma_plus(n, i)
    assert verify_certificate(cert).ok
    assert cert.target == ts_plus(n)
    # every generalized horn the kernel derives carries its re-checked witness
    for _, _, gen in replayed_generators(cert):
        if gen.kind == "gen_horn":
            assert isinstance(gen.witness_s, int)


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
def test_lemma_minus(n, i):
    cert = certify_lemma_minus(n, i)
    assert verify_certificate(cert).ok
    assert cert.target == ts_minus(n)


def _oracle_positions(half, n, i, s, k):
    """The horn positions M of the sweep cell (s, k), in closed form: the
    positions of the vertices that every face d_j with j in M misses."""
    if half == "plus":
        if i < k:
            verts = {vlabel("00", i), vlabel("01", k), vlabel("01", k + s)}
        elif i <= k + s:
            verts = {vlabel("01", k), vlabel("01", i), vlabel("01", k + s)}
        else:
            verts = {vlabel("01", k), vlabel("01", k + s), vlabel("11", i)}
    elif k == 0:
        if i < s < n:
            verts = {vlabel("10", i), vlabel("11", s)}
        elif i < s == n:
            verts = {vlabel("10", i)}
        else:
            verts = {vlabel("11", s), vlabel("11", i)}
    elif k + s < n:
        if i <= k:
            verts = {vlabel("00", i), vlabel("00", k), vlabel("11", k + s)}
        elif i < k + s:
            verts = {vlabel("00", k), vlabel("10", i), vlabel("11", k + s)}
        else:
            verts = {vlabel("00", k), vlabel("11", k + s), vlabel("11", i)}
    elif i <= k:
        verts = {vlabel("00", i), vlabel("00", k)}
    else:
        verts = {vlabel("00", k), vlabel("10", i)}
    cell = _sweep_cell(half, n, s, k)
    return tuple(j for j, v in enumerate(cell) if v in verts)


# the sweep stages whose cells do not all attach: at plus s = n for n = 2, 3
# the top cell has no admissible horn on the stage's start, and search fills it
SEARCHED_SWEEPS = {("plus", 2, 2), ("plus", 3, 3)}


@pytest.mark.parametrize("half", ["plus", "minus"])
def test_sweep_horns_match_the_closed_form_oracle(half):
    """Each sweep cell is attached once, as a top-dimensional generalized
    horn whose M, read off the state, is the closed-form table's."""
    certify = certify_lemma_plus if half == "plus" else certify_lemma_minus
    for n in range(2, 7):
        cells = {_sweep_cell(half, n, s, k): (s, k) for s in range(n + 1) for k in range(n - s + 1)}
        for i in range(1, n):
            seen = []
            for _, item, gen in replayed_generators(certify(n, i)):
                if gen.kind == "gen_horn" and len(item.word) == n + 3:
                    s, k = cells[item.word]
                    seen.append((s, k))
                    if (half, n, s) not in SEARCHED_SWEEPS:
                        assert gen.m == _oracle_positions(half, n, i, s, k), (n, i, s, k)
            assert sorted(seen) == sorted(cells.values()), (n, i)


def _reject_the_first_sweep_cell(monkeypatch, certify):
    """Build `certify()` with the kernel rejecting the first cell of plus(4,
    1)'s first sweep stage; check the failure names the plus half at (4, 1)
    and the cell's index in the certificate being written."""
    cell = _sweep_cell("plus", 4, 4, 0)
    index = [step.word for step in certify().steps].index(cell)
    apply = proofs.apply_step

    def reject_cell(state, step):
        if step.word == cell:
            raise StepError("rejected on purpose")
        return apply(state, step)

    monkeypatch.setattr(proofs, "apply_step", reject_cell)
    with pytest.raises(CertifyFailure, match=rf"^plus half \(4, 1\): step {index} rejected: rejected on purpose$"):
        certify()


def test_a_named_cell_the_kernel_rejects_is_a_loud_failure(monkeypatch):
    """A stage pushes each named cell's step on the builder's state, so a
    rejected one fails the build at its step index instead of handing the
    stage to search."""
    _reject_the_first_sweep_cell(monkeypatch, lambda: certify_lemma_plus(4, 1))


@pytest.mark.parametrize("certify", [lambda: certify_inner_horn(4, 1), lambda: certify_cosegal(4)],
                         ids=["inner41", "cosegal4"])
def test_a_rejected_cell_of_a_part_is_located_in_the_composite(monkeypatch, certify):
    """A composite runs its halves' stages on its own builder: a cell
    rejected there is named by its index in the composite's steps."""
    _reject_the_first_sweep_cell(monkeypatch, certify)


def test_lemma_rejects_outer_horn():
    with pytest.raises(InputError):
        certify_lemma_plus(2, 0)


@pytest.mark.parametrize("n,i", [(2, 1), (3, 2)])
def test_inner_horn(n, i):
    cert = certify_inner_horn(n, i)
    assert verify_certificate(cert).ok
    assert cert.target == ts(n)
    # replaying the plus half's steps lands exactly on horn-union-plus-half
    state = _State(cert.start)
    for step in cert.steps[:len(certify_lemma_plus(n, i).steps)]:
        apply_step(state, step)
    expected = restrict_scaling(
        OrderedComplex(
            horn_variants(n, i, "full").complex.tuples | ts_plus(n).complex.tuples,
            _validated=True,
        ),
        ts(n),
    )
    assert state.matches(expected)


def test_cosegal():
    c1 = certify_cosegal(1)
    assert verify_certificate(c1).ok and not c1.steps
    c2 = certify_cosegal(2)
    assert verify_certificate(c2).ok
    assert c2.target == ts(2)


@pytest.mark.parametrize("certify", [lambda: certify_cosegal(4), lambda: certify_inner_horn(4, 1)],
                         ids=["cosegal4", "inner41"])
def test_a_composite_applies_each_of_its_steps_once(monkeypatch, certify):
    """A composite runs its parts' stages on its own state: no part is
    built apart and replayed, so each step is applied once."""
    applied = []

    def counting(state, step):
        out = apply_step(state, step)
        applied.append(step)
        return out

    monkeypatch.setattr(proofs, "apply_step", counting)
    monkeypatch.setattr(search, "apply_step", counting)
    steps = certify().steps
    assert len(applied) == len(steps)


def test_a_failed_search_names_the_part_and_the_level(monkeypatch):
    """All stages of a spine build share one builder; a stage that search
    cannot complete is named with the part and the level it ran in, and
    with how many of its tuples and marks are still missing and the first
    of them in `simplex_key` order."""
    real = proofs.search_steps
    monkeypatch.setattr(proofs, "search_steps", lambda state, tuples, marks, budget: None)
    # level two's spine is its inner horn (2, 1): the first search is the plus half's
    with pytest.raises(CertifyFailure, match=r"^plus half \(2, 1\): search could not complete stage 'rows': "
                                             r"still missing 6 of its tuples and 3 of its marks, "
                                             r"first \('000', '002'\)$"):
        certify_cosegal(3)

    def fail_past_level_2(state, tuples, marks, budget):
        return None if ts(2).complex.tuples <= state.tuples else real(state, tuples, marks, budget)

    monkeypatch.setattr(proofs, "search_steps", fail_past_level_2)
    with pytest.raises(CertifyFailure, match=r"^cosegal level 3: search could not complete stage 'spine-to-horn': "
                                             r"still missing 168 of its tuples and 30 of its marks, "
                                             r"first \('000', '003'\)$"):
        certify_cosegal(3)


def _in_stages(monkeypatch):
    """Patch `proofs._Builder.stage` to keep, while it runs, the tuples of
    the stage in the last item of the list returned, None outside one."""
    running = [None]
    stage = proofs._Builder.stage

    def tracking(self, tuples, name, cells=()):
        running.append(tuples)
        try:
            stage(self, tuples, name, cells)
        finally:
            running.pop()

    monkeypatch.setattr(proofs._Builder, "stage", tracking)
    return running


def test_a_stage_builds_no_complex(monkeypatch):
    """A stage hands search the tuples and marks it adds, not a goal
    complex: no `OrderedComplex` or `ScaledComplex` is built inside one."""
    running, built = _in_stages(monkeypatch), []
    for cls in (complexes.OrderedComplex, ScaledComplex):
        def counting(self, *args, init=cls.__init__, **kwargs):
            if running[-1] is not None:
                built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    certify_cosegal(4)
    assert built == []


def test_the_mark_pass_reads_only_the_stage(monkeypatch):
    """Each mark pass of a stage's search finds the cells of its missing
    marks among the stage's tuples, not in the whole state."""
    running, reads = _in_stages(monkeypatch), []
    mark_cells = search._mark_cells

    def recording(tuples, marks):
        tuples = set(tuples)
        reads.append(tuples <= running[-1])
        return mark_cells(tuples, marks)

    monkeypatch.setattr(search, "_mark_cells", recording)
    certify_cosegal(4)
    assert reads and all(reads)


@pytest.mark.parametrize("i", [0, 1])
def test_theta(i):
    cert = certify_theta(i)
    report = verify_certificate(cert, audit=True)
    assert report.ok
    assert dict(report.stats) == THETA_STATS
    assert cert.target == theta_complexes(i)[1]


def test_theta_tamper_fails():
    cert = certify_theta(1)
    # dropping the scaling extensions loses marks
    pruned = Certificate(cert.claimed_class, cert.start, cert.target,
                         tuple(s for s in cert.steps if s.kind != "an2_marks"))
    assert not verify_certificate(pruned).ok
    truncated = Certificate(cert.claimed_class, cert.start, cert.target, cert.steps[:1])
    report = verify_certificate(truncated)
    assert not report.ok and "not reached" in report.first_failure[1]


@pytest.mark.parametrize("i", [0, 1])
def test_d_iso_check(i):
    assert d_iso_check(i)["ok"]


def test_search_examples():
    lam = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    filled = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    cert = search_decomposition(lam, filled)
    assert cert is not None and len(cert.steps) == 1
    assert verify_certificate(cert).ok
    # flat target: the inner-horn generator needs the thin middle triangle
    assert search_decomposition(lam, ScaledComplex(simplex_complex(["0", "1", "2"]))) is None


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
    found = search_steps(_State(a), b.complex.tuples, b.thin, 64)
    assert found is not None
    assert found[1].matches(b)


def test_search_advances_the_state_it_is_given():
    """`search_steps` copies nothing: it returns the very state it was
    given, advanced to the goal."""
    state = _State(ScaledComplex(horn(["0", "1", "2"], {"1"}), ()))
    goal = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    found = search_steps(state, goal.complex.tuples, goal.thin, None)
    assert found is not None and found[1] is state and state.matches(goal)


def test_search_literal_an2_match():
    labels = [str(j) for j in range(5)]
    cx = simplex_complex(labels)
    t5 = {("0", "2", "4"), ("1", "2", "3"), ("0", "1", "3"), ("1", "3", "4"), ("0", "1", "2")}
    a = ScaledComplex(cx, t5)
    b = ScaledComplex(cx, t5 | {("0", "3", "4"), ("0", "1", "4")})
    cert = search_decomposition(a, b)
    assert cert is not None and verify_certificate(cert).ok
    # every step is a scaling extension, and one of them, the literal match,
    # attaches along an injective map
    assert all(s.kind == "an2_marks" for s in cert.steps)
    literal = [s for s in cert.steps if len(set(s.word)) == 5]
    assert literal == [Step("an2_marks", tuple(labels))]


def test_search_skips_a_mark_an_earlier_step_of_the_pass_made():
    """One an2_marks step on a..e adds both of the goal's missing marks, so
    the rest of the mark pass offers no step for either: none is kept that
    adds nothing."""
    start, marks, step = _an2_on_abcde()
    cert = search_decomposition(start, ScaledComplex(start.complex, start.thin | set(marks)))
    assert cert is not None and cert.steps == (step,)


def test_search_requires_subcomplex():
    d2 = ScaledComplex(simplex_complex(["0", "1", "2"]))
    other = ScaledComplex(simplex_complex(["3", "4"]))
    with pytest.raises(InputError):
        search_decomposition(other, d2)


def test_search_never_invents_vertices():
    edge = ScaledComplex(simplex_complex(["0", "1"]))
    tri = ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")})
    assert search_decomposition(restrict_scaling(edge.complex, tri), tri) is None


def _is_exact_horn(state, t):
    """Brute force: every nonempty subsequence of `t` is in the state
    exactly when it misses a vertex of the core, the vertices whose
    opposite faces are present."""
    core = {v for j, v in enumerate(t) if t[:j] + t[j + 1:] in state.tuples}
    subsequences = (ss for k in range(1, len(t) + 1) for ss in combinations(t, k))
    return all((ss in state.tuples) == (not core <= set(ss)) for ss in subsequences)


def test_try_attach_only_fills_exact_horns():
    rng = random.Random(0)
    pools = {n: sorted(ts(n).complex.tuples, key=lambda t: (len(t), t)) for n in (2, 3)}
    attached = 0
    for _ in range(200):
        n = rng.choice((2, 3))
        b = ts(n)
        picks = rng.sample(pools[n], rng.randint(1, 48))
        state = _State(restrict_scaling(OrderedComplex.from_tuples(picks), b))
        for t in pools[n]:
            if len(t) < 3 or t in state.tuples:
                continue
            if _try_attach(state, b.thin, t) is not None:
                assert _is_exact_horn(state, t), t
                attached += 1
    assert attached > 0


def _adds_tuples(step, state):
    try:
        added, _ = apply_step(copy_state(state), step)
    except StepError:
        return False
    return bool(added)


def test_tamper_fuzz_drop_and_duplicate():
    cert = certify_lemma_plus(2, 1)
    assert verify_certificate(cert).ok
    # replay once to know each step's entry state
    state = _State(cert.start)
    states = []
    for step in cert.steps:
        states.append(copy_state(state))
        apply_step(state, step)
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


def test_a_theta_step_is_rejected_where_its_cell_is_present():
    """A step of theta is checked on the state it meets: at the collapsed
    level, which already holds its cell, it is rejected."""
    cert = certify_theta(1)
    first = cert.steps[0]
    wrong_state = theta_complexes(1)[1]
    with pytest.raises(StepError):
        apply_step(_State(wrong_state), first)


def test_forged_horn_declaration_rejected():
    # the horn on M = {1, 2} of Delta^4 is admissible when its run triangles
    # (0, 2, 3) and (1, 2, 3) are thin; the kernel reads them off the state,
    # so where they are present but unthin the step is rejected
    labels = [str(j) for j in range(5)]
    state = ScaledComplex(horn(labels, {"1", "2"}), ())  # flat horn
    step = Step("gen_horn", tuple(labels))
    with pytest.raises(StepError, match="inadmissible"):
        apply_step(_State(state), step)
    # with the declared triangles genuinely thin, the same step applies
    honest = ScaledComplex(horn(labels, {"1", "2"}), {("0", "2", "3"), ("1", "2", "3")})
    assert step_instance(honest.complex.tuples, honest.thin, step) == \
        instantiate("gen_horn", 4, (1, 2), ((0, 2, 3), (1, 2, 3)))
    added, _ = apply_step(_State(honest), step)
    assert len(added) == 4


def test_forged_generator_instance_rejected(tmp_path):
    """The boundary of Delta^2 into Delta^2 with its triangle thin, which is
    not anodyne, claimed as one an1 pushout.  No instance can carry the
    boundary as its source, a step holds a kind and no instance, and the
    an1 attached from the boundary, which lacks no face of the cell, is
    rejected, plain and audited."""
    real = instantiate("an1", 2, (1,), ())
    labels = ["0", "1", "2"]
    boundary = ScaledComplex(OrderedComplex.from_tuples(faces(tuple(labels))))
    target = ScaledComplex(simplex_complex(labels), {tuple(labels)})
    with pytest.raises(TypeError):
        GeneratorInstance("an1", 2, (1,), (), boundary, target)

    class Forged(GeneratorInstance):
        __slots__ = ()

    ident = tuple(labels)
    for forged in (real, object.__new__(Forged)):
        with pytest.raises(InputError, match="a step kind is a string"):
            Step(forged, ident)
    cert = Certificate("scaled_anodyne", boundary, target, (Step("an1", ident),))
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(certificate_to_json(cert)))
    for audit in (False, True):
        report = verify_certificate(cert, audit=audit)
        assert report.first_failure == (0, "no an1 attaches ('0', '1', '2') at the state, which lacks its faces []: "
                                           "an1 fills a horn that lacks one face, not 0")
        assert main(["verify", "--cert", str(path)] + ["--audit"] * audit) == 1


def _revalidate_gen_horn(state, gen, cell):
    """The generalized-horn criterion checked on the state by hand: the
    oracle that `instantiate` and the kernel's one pushout check must never
    contradict."""
    r = gen.r
    m = frozenset(gen.m)
    thin_decl = frozenset(gen.thin)
    verdict = gen_horn_admissible(r, m, thin_decl)
    assert isinstance(verdict, Admissible) and verdict.s == gen.witness_s
    # M is exactly the faces of the cell that the state lacks
    assert m == {j for j in range(r + 1) if cell[:j] + cell[j + 1:] not in state.tuples}
    # declared-thin triples must be thin in the state wherever present
    for (a, b, c) in thin_decl:
        img = (cell[a], cell[b], cell[c])
        assert img not in state.tuples or img in state.thin
    t = max(m)
    for i in range(verdict.s, t):
        assert (cell[i], cell[t], cell[t + 1]) in state.thin
    if len(m) == r - 2:
        core = tuple(sorted(set(range(r + 1)) - m))
        assert tuple(cell[j] for j in core) not in state.thin
        assert core not in thin_decl


def test_certified_horns_satisfy_the_oracle():
    certs = [certify_cosegal(n) for n in (2, 3)]
    certs += [certify(n, i) for certify in (certify_lemma_plus, certify_lemma_minus)
              for n in (2, 3, 4) for i in range(1, n)]
    seen = 0
    for cert in certs:
        for state, step, gen in replayed_generators(cert):
            if gen.kind == "gen_horn":
                _revalidate_gen_horn(state, gen, step.word)
                seen += 1
    assert seen > 100


def _random_gen_horn(rng, r):
    triples = list(combinations(range(r + 1), 3))
    while True:
        m = tuple(sorted(rng.sample(range(r), rng.randint(1, r - 2))))
        thin = tuple(p for p in triples if rng.random() < 0.5)
        gen = instantiate("gen_horn", r, m, thin)
        if gen:
            return gen


def test_random_horn_attaches_satisfy_the_oracle():
    rng = random.Random(0)
    accepted = 0
    for _ in range(300):
        r = rng.randint(3, 5)
        source_cx, target_cx = (c.complex for c in generator_complexes(_random_gen_horn(rng, r)))
        slots = sorted(rng.sample(range(r + 3), r + 1))
        vmap = {str(j): f"v{x}" for j, x in enumerate(slots)}
        source = [tuple(map(vmap.get, t)) for t in source_cx.maximal()]
        if rng.random() < 0.2:
            source = rng.sample(source, len(source) - 1)
        extra = [tuple(map(vmap.get, t)) for t in target_cx.tuples - source_cx.tuples]
        if rng.random() < 0.2:
            source.append(rng.choice(extra))
        cx = OrderedComplex.from_tuples(source)
        thin = [t for t in sorted(simplices(cx, 2)) if rng.random() < 0.75]
        state = ScaledComplex(cx, thin)
        step = Step("gen_horn", tuple(vmap[str(j)] for j in range(r + 1)))
        try:
            apply_step(_State(state), step)
        except StepError:
            continue
        _revalidate_gen_horn(_State(state), step_instance(cx.tuples, state.thin, step), step.word)
        accepted += 1
    assert accepted >= 30


def test_forged_witness_rejected_on_load():
    """A step records no witness: one that does, off by one from the
    witness the kernel derives, is an input error."""
    cert = certify_lemma_plus(2, 1)
    data = json.loads(json.dumps(certificate_to_json(cert)))
    _, step, gen = next(t for t in replayed_generators(cert) if t[2].kind == "gen_horn")
    (s,) = [s for s in data["steps"] if s.get("attach") == {str(j): v for j, v in enumerate(step.word)}]
    s["witness_s"] = gen.witness_s + 1
    with pytest.raises(InputError, match="'witness_s'.*records only its kind and attach map"):
        certificate_from_json(data)


def test_overclaiming_thin_fails_at_target():
    # an An1 fill of a flat triangle replays, but the mark overshoots the target
    start = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    flat_target = ScaledComplex(simplex_complex(["0", "1", "2"]))
    step = Step("an1", ("0", "1", "2"))
    cert = Certificate("scaled_anodyne", start, flat_target, (step,))
    report = verify_certificate(cert)
    assert not report.ok and "thin" in report.first_failure[1]


def test_a_word_relabelled_into_the_target_beyond_the_source_is_rejected():
    """A step whose word is relabelled through an injective map
    (`support.relabelled`) is checked on the state it meets, which here
    already holds part of the target beyond the source."""
    state_cx = OrderedComplex.from_tuples([("a", "b"), ("b", "c"), ("a", "c")])
    state = ScaledComplex(state_cx, ())
    step = relabelled(_an1_cert().steps[0], {"0": "a", "1": "b", "2": "c"})
    with pytest.raises(StepError, match="no an1 attaches"):
        apply_step(_State(state), step)


def _misattached_an1_cert():
    # the state holds (y, x); attaching 0->x, 1->z, 2->y would add (x, y)
    # on the same vertex set
    start = ScaledComplex(OrderedComplex.from_tuples([("x", "z"), ("z", "y"), ("y", "x")]), ())
    step = Step("an1", ("x", "z", "y"))
    return Certificate("scaled_anodyne", start, start, (step,))


def test_in_kernel_input_error_is_a_located_failure():
    cert = _misattached_an1_cert()
    for audit in (False, True):
        report = verify_certificate(cert, audit=audit)
        assert not report.ok and report.first_failure[0] == 0
    with pytest.raises(StepError):
        apply_step(_State(cert.start), cert.steps[0])


# a relabelled step is checked as a pushout whichever class is claimed
CLASSES = ("scaled_anodyne", "trivial_cofibration")

AN2_IDENTITY = Step("an2_marks", tuple("01234"))


def test_an_irregular_relabelled_word_is_a_located_failure():
    # a scaling extension relabelled along 0->a, 1->b, 2->a, 3->c, 4->d
    # sends (0, 1, 2, 3, 4) to (a, b, a, c, d)
    state = ScaledComplex(OrderedComplex.from_tuples([("a", "b")]), ())
    step = relabelled(AN2_IDENTITY, {"0": "a", "1": "b", "2": "a", "3": "c", "4": "d"})
    with pytest.raises(StepError) as info:
        apply_step(_State(state), step)
    assert isinstance(info.value.__cause__, IrregularCollapse)
    for claimed in CLASSES:
        report = verify_certificate(Certificate(claimed, state, state, (step,)))
        assert not report.ok and report.first_failure[0] == 0


def _seeded_outputs(path: Path) -> set:
    """The stdout of `verify` on `path` under four hash seeds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {subprocess.run([sys.executable, "-m", "scaledss", "verify", "--cert", str(path)], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))).stdout
            for seed in range(4)}


def test_a_rejection_names_its_first_offender_under_any_hash_seed(tmp_path):
    """The an2 source's thin triangles all land on unthin ones of a flat
    Delta^4; the rejection names the first in canonical order under every
    hash seed."""
    labels = ["a", "b", "c", "d", "e"]
    state = ScaledComplex(simplex_complex(labels))
    step = relabelled(AN2_IDENTITY, dict(zip("01234", labels)))
    path = tmp_path / "offenders.json"
    path.write_text(json.dumps(certificate_to_json(Certificate("scaled_anodyne", state, state, (step,)))))
    outs = _seeded_outputs(path)
    assert len(outs) == 1
    assert json.loads(outs.pop())["first_failure"] == [
        0, "the map does not carry the source's thin triangles to thin ones: (0, 1, 2) maps to ('a', 'b', 'c')"]


def test_an_irregular_image_names_its_first_tuple_under_any_hash_seed(tmp_path):
    """theta(0) with the values of 2 and 3 swapped in the attach map of its
    first scaling extension sends Delta^4 to an irregular word; the
    rejection names it under every seed."""
    data = certificate_to_json(certify_theta(0))
    k = next(k for k, s in enumerate(data["steps"]) if s["kind"] == "an2_marks")
    attach = data["steps"][k]["attach"]
    attach["2"], attach["3"] = attach["3"], attach["2"]
    path = tmp_path / "irregular.json"
    path.write_text(json.dumps(data))
    outs = _seeded_outputs(path)
    assert len(outs) == 1
    assert json.loads(outs.pop())["first_failure"] == [
        k, "tuple (0, 1, 2, 3, 4) maps to irregular word ('000', '001', '011', '001', '110')"]


def _an1_relabelled(along):
    """The step of the an1 pushout of the horn on 0, 1, 2 to Delta^2, its
    word relabelled along `along`."""
    return relabelled(Step("an1", ("0", "1", "2")), dict(along))


def test_quotient_hiding_target_only_tuples_is_rejected():
    # along 1 -> 0 the horn lands on the edge (0, 2), which is also the image
    # of the new edge (0, 2), and the new triangle degenerates: no pushout
    edge = ScaledComplex(simplex_complex(["0", "2"]), ())
    step = _an1_relabelled((("0", "0"), ("1", "0"), ("2", "2")))
    message = "no an1 attaches ('0', '0', '2') at the state, which lacks its faces [2]: an1 requires 0 < i < n"
    with pytest.raises(StepError, match=re.escape(message)):
        apply_step(_State(edge), step)
    for claimed, audit in product(CLASSES, (False, True)):
        report = verify_certificate(Certificate(claimed, edge, edge, (step,)), audit=audit)
        assert report.first_failure == (0, message)


def test_quotient_identifying_two_target_only_tuples_is_rejected():
    """The an1 fills of (a, d, c) and (b, e, c) add the edges (a, c) and
    (b, c), which a map sending a and b to x identifies.  The pushout along
    it keeps both as parallel edges, so the cycle x-d-c-e-x of the state
    stays a cycle of the pushout.  Relabelled, the first fill adds the
    edge (x, c), and the second finds it in the state and is rejected, so
    the relabelled steps never fill that cycle."""
    fills = [("a", "d", "c"), ("b", "e", "c")]
    along = {"a": "x", "b": "x"}
    steps = tuple(relabelled(Step("an1", t), along) for t in fills)
    state = ScaledComplex(OrderedComplex.from_tuples([("x", "d"), ("d", "c"), ("x", "e"), ("e", "c")]), ())
    filled = [("x", "d", "c"), ("x", "e", "c")]
    union = ScaledComplex(OrderedComplex.from_tuples(list(state.complex.tuples) + filled), filled)
    for audit in (False, True):
        report = verify_certificate(Certificate("scaled_anodyne", state, union, steps), audit=audit)
        assert report.first_failure == (1, "no an1 attaches ('x', 'e', 'c') at the state, which lacks its faces "
                                           "[]: an1 fills a horn that lacks one face, not 0")


def test_a_generator_map_that_identifies_vertices_is_rejected():
    """A generator pushout's map must be injective on the target's vertices.
    `step_instance` rejects such a cell first, since a repeated vertex
    leaves no admissible horn, so the rule is checked on `_pushout_delta`
    directly: the horn on {1} of Delta^2 along 0 -> a, 1 -> b, 2 -> a."""
    tuples = {("a",), ("b",), ("a", "b")}
    gen = instantiate("an1", 2, (1,), ())
    with pytest.raises(StepError) as info:
        certificates._pushout_delta(tuples, set(), gen, ("a", "b", "a"))
    assert str(info.value) == "the map is not injective on the target vertices"


def test_the_audit_names_a_repeated_vertex():
    """The audit files every added tuple by its vertex set, and a tuple
    that repeats a vertex is named as such before its faces are read."""
    record = AuditRecord(ScaledComplex(simplex_complex(["a", "b"])))
    assert record.check(frozenset({("a", "b", "a")}), frozenset()) == "repeated vertex in tuple ('a', 'b', 'a')"


def test_a_non_step_in_an_in_process_certificate_is_a_located_failure():
    """A certificate made in process may hold any object as a step; the
    verifier still returns a report, never a traceback."""
    start = _an1_cert().start
    for audit in (False, True):
        report = verify_certificate(Certificate("scaled_anodyne", start, start, (42,)), audit=audit)
        assert report.first_failure == (0, "unknown step type int")


def test_quotient_into_the_state_adds_the_target_only_images():
    # the relabelling collapses 4 -> 3, off the step's cell, and the state
    # holds an edge (2, 5) that is not in the image of the generator's horn
    tuples = [("0", "1"), ("1", "2"), ("2", "5"), ("3",)]
    state = ScaledComplex(OrderedComplex.from_tuples(tuples), ())
    step = _an1_relabelled((("0", "0"), ("1", "1"), ("2", "2"), ("3", "3"), ("4", "3")))
    grown = _State(state)
    added, added_thin = apply_step(grown, step)
    assert added == {("0", "2"), ("0", "1", "2")} and added_thin == {("0", "1", "2")}
    target = ScaledComplex(OrderedComplex.from_tuples(tuples + [("0", "1", "2")]), {("0", "1", "2")})
    assert grown.matches(target)
    for claimed, audit in product(CLASSES, (False, True)):
        report = verify_certificate(Certificate(claimed, state, target, (step,)), audit=audit)
        assert report.ok and dict(report.stats) == {"an1": 1}


def _rejection(kind, monkeypatch):
    """A start and a step that `apply_step` rejects, by rejection kind."""
    ident = ("0", "1", "2")
    lam = ScaledComplex(horn(["0", "1", "2"], {"1"}), ())
    if kind == "pushout":
        return ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")}), Step("an1", ident)
    if kind == "non-injective":
        return lam, Step("an1", ("0", "0", "2"))
    if kind == "edge rule":
        cert = _misattached_an1_cert()  # the delta passes, then (x, y) meets (y, x)
        return cert.start, cert.steps[0]
    if kind == "mark":
        step = Step("an1", ident)
        delta = certificates._delta

        def stray_mark(tuples, thin, s):
            added, added_thin = delta(tuples, thin, s)
            return added, added_thin | {("0", "1", "9")}

        monkeypatch.setattr(certificates, "_delta", stray_mark)
        return lam, step
    assert kind == "present cell"
    return theta_complexes(1)[1], certify_theta(1).steps[0]


@pytest.mark.parametrize("kind", ["pushout", "non-injective", "edge rule", "mark", "present cell"])
def test_rejected_step_leaves_the_state_unchanged(monkeypatch, kind):
    start, step = _rejection(kind, monkeypatch)
    state = _State(start)
    with pytest.raises(StepError):
        apply_step(state, step)
    assert state.matches(start)


def test_cli_rejects_misattached_certificate(tmp_path):
    from scaledss.cli import main
    from scaledss.produce import certificate_to_json
    from scaledss.serialize import canonical_dumps

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


@pytest.mark.parametrize("build", [lambda: certify_lemma_plus(3, 1), lambda: certify_theta(1)],
                         ids=["plus31", "theta1"])
def test_replay_and_audit_validate_no_state_per_step(monkeypatch, build):
    cert = build()
    instantiate("an2", 4, (), ())  # scaling extensions read the memoised instance
    calls = _count_full_constructions(monkeypatch)
    assert verify_certificate(cert).ok
    assert calls == []  # no complex is built at all
    # the audit validates its start in full, once
    assert verify_certificate(cert, audit=True).ok
    assert calls == [False]


def test_audit_rejects_a_delta_with_a_missing_face(monkeypatch):
    cert = certify_lemma_plus(3, 1)
    idx = next(j for j, s in enumerate(cert.steps) if s.kind != "an2_marks")
    delta = certificates._delta
    stray = ("p", "q", "r")  # none of its faces is in any state

    def faulty(tuples, thin, step):
        added, added_thin = delta(tuples, thin, step)
        if step is cert.steps[idx]:
            added = added | {stray}
        return added, added_thin

    monkeypatch.setattr(certificates, "_delta", faulty)
    report = verify_certificate(cert, audit=True)
    assert not report.ok and report.first_failure[0] == idx
    assert report.first_failure[1].startswith("audit: missing face") and str(stray) in report.first_failure[1]
    # the kernel does not look for faces: plain replay fails only at the target
    assert verify_certificate(cert).first_failure == (len(cert.steps), "target complex not reached")


def test_audit_counts_what_a_kernel_without_its_core_rule_adds(monkeypatch):
    """A gen_horn step on r = 4, M = {1, 2} whose core (c0, c3, c4) is
    already in the state is no pushout, and the kernel's rule that the
    target misses the state rejects it.  Without that rule plain replay
    accepts it, and the audit's alternating count names it: two
    3-simplices and the 4-simplex are new, a count of -1."""
    cell = tuple(f"c{j}" for j in range(5))
    core = ("c0", "c3", "c4")
    run = {("c0", "c2", "c3"), ("c1", "c2", "c3")}
    start_tuples = horn(list(cell), {"c1", "c2"}).tuples | {core}
    start = ScaledComplex(OrderedComplex(start_tuples), run)
    target = ScaledComplex(simplex_complex(list(cell)), run)
    cert = Certificate("scaled_anodyne", start, target, (Step("gen_horn", cell),))
    assert verify_certificate(cert).first_failure == (0, "pushout condition fails: the target meets the state "
                                                          f"beyond the source: (0, 3, 4) maps to {core}")
    pushout_delta = certificates._pushout_delta

    def without_core_rule(tuples, thin, gen, word):
        # the rule reads only the first target-only image, so hiding that
        # image from it deletes the rule and changes nothing else
        return pushout_delta(tuples - set(complexes._image(gen.added[:1], word)), thin, gen, word)

    monkeypatch.setattr(certificates, "_pushout_delta", without_core_rule)
    assert verify_certificate(cert).ok
    assert verify_certificate(cert, audit=True).first_failure == (
        0, "audit: the step's new tuples have alternating count -1, not 0")


@pytest.mark.parametrize("kind, params", [
    ("gen_horn", {"r": 6, "m": (2, 3), "thin": ((1, 3, 4), (2, 3, 4))}),
    ("gen_horn", {"r": 5, "m": (3,), "thin": ((2, 3, 4),)}),
    ("an1", {"r": 5, "m": (2,)}),
])
def test_horn_pushout_relabels_what_it_reads_and_adds(monkeypatch, kind, params):
    gen = instantiate(kind, params["r"], params["m"], params.get("thin", ()))
    source, target = generator_complexes(gen)
    r = len(target.complex.vertices) - 1
    m = params["m"]
    vmap = {str(j): f"v{j}" for j in range(r + 1)}
    state = _State(image_scaled(source, vmap))
    step = Step(kind, tuple(vmap[str(j)] for j in range(r + 1)))
    # the kernel reads this instance off the horn's image
    assert step_instance(state.tuples, state.thin, step) is gen
    relabelled = []
    image = complexes._image

    def counting(tuples, vm):
        out = image(tuples, vm)
        relabelled.extend(out)
        return out

    # the kernel images the added tuples itself and the rest through
    # `_carried` and `_thin_image`, all with the one helper in `complexes`
    for module in (complexes, certificates):
        monkeypatch.setattr(module, "_image", counting)
    added, added_thin = apply_step(state, step)
    # the generator's thin triangles and the 2^|M| tuples that contain the
    # core [r] - M, each relabelled once; not the horn's faces d_j, j not in
    # M, which are in the state because M is the faces it lacks
    assert len(added) == 2 ** len(m)
    assert len(relabelled) == len(target.thin) + 2 ** len(m)
    horn_faces = {step.word[:j] + step.word[j + 1:] for j in range(r + 1) if j not in m}
    assert horn_faces <= state.tuples and horn_faces.isdisjoint(relabelled)
    assert len(relabelled) < 2 ** (r + 1) - 1
    assert state.tuples == image_scaled(target, vmap).complex.tuples


def _accepted_prefix(start, steps):
    """The states `apply_step` reaches along `steps`, each frozen by a full
    rebuild that validates face closure and vertex sets, up to the first
    rejection, and that rejection as (index, message), or None."""
    state = _State(start)
    states = [start]
    for idx, step in enumerate(steps):
        try:
            apply_step(state, step)
        except StepError as exc:
            return states, (idx, str(exc))
        states.append(ScaledComplex(OrderedComplex(state.tuples), state.thin))
    return states, None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_replay_state_agrees_with_frozen_states_and_a_full_rebuild(data):
    amb = ts(data.draw(st.sampled_from([2, 3])))
    maximal = amb.complex.maximal()
    picks = data.draw(st.lists(st.sampled_from(maximal), min_size=1, max_size=3, unique=True))
    goal = sub_scaled(amb, close_tuples(picks))
    tri = set(data.draw(st.sampled_from(simplices(goal.complex, 2))))
    start = sub_scaled(amb, [t for t in goal.complex.tuples if not tri <= set(t)])
    found = search_decomposition(start, goal, 64)
    assume(found is not None and found.steps)
    steps = list(found.steps)
    drop = data.draw(st.none() | st.integers(0, len(steps) - 1))
    if drop is not None:
        del steps[drop]
    cert = Certificate(found.claimed_class, start, goal, tuple(steps))

    made = []

    class Recording(certificates._State):
        def __init__(self, begin):
            super().__init__(begin)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "_State", Recording)
        plain = verify_certificate(cert)
    audited = verify_certificate(cert, audit=True)
    assert (plain.ok, plain.first_failure, plain.stats) == (audited.ok, audited.first_failure, audited.stats)

    states, rejected = _accepted_prefix(start, steps)
    if rejected is not None:
        assert plain.first_failure == rejected
        return
    (acc,) = made  # one state per replay
    final = states[-1]
    assert acc.tuples == final.complex.tuples and acc.thin == final.thin
    # the accumulator keeps no index by vertex set; a full one, built tuple
    # by tuple, accepts its tuples and agrees with the frozen state's
    by_vset = {}
    _index_vsets(by_vset, acc.tuples)
    assert all(tuple_on(final.complex, vs) == t for vs, t in by_vset.items())
    rebuilt = OrderedComplex(acc.tuples)  # validates face closure and vertex sets
    assert ScaledComplex(rebuilt, acc.thin) == final
    assert plain.ok == (final == goal)


@pytest.mark.parametrize("make, message", [
    (lambda: Step("junk", ()), "unknown step kind 'junk'"),
    (lambda: Step(5, ()), "a step kind is a string, not int"),
    (lambda: Step("an1", 5), "a step word is a tuple of labels, not int"),
    (lambda: Step("an2_marks", 5), "a step word is a tuple of labels, not int"),
    (lambda: Step("an2_marks", (("x",),)), re.escape("attach value ('x',) is not a string")),
], ids=["gen_str", "kind_int", "attach_int", "scaling_int", "scaling_1_tuple"])
def test_step_fields_of_the_wrong_type_are_input_errors(make, message):
    with pytest.raises(InputError, match=message):
        make()


@pytest.mark.parametrize("fields, message", [
    (lambda c: (c.start, c.target, 5), "steps must be a tuple, not int"),
    (lambda c: (c.start, c.target, list(c.steps)), "steps must be a tuple, not list"),
    (lambda c: ("x", c.target, c.steps), "start is a scaled complex, not str"),
    (lambda c: (c.start, c.target.complex, c.steps), "target is a scaled complex, not OrderedComplex"),
    (lambda c: (c.start, c.target, c.steps, 7), "metadata must be a tuple"),
    (lambda c: (c.start, c.target, c.steps, {"lemma": "an1"}), "metadata must be a tuple"),
    (lambda c: (c.start, c.target, c.steps, (("n", 2),)), "metadata value 2 is not a string"),
], ids=["steps_int", "steps_list", "start_str", "target_complex", "metadata_int", "metadata_dict",
        "metadata_int_value"])
def test_certificate_fields_of_the_wrong_type_are_input_errors(fields, message):
    with pytest.raises(InputError, match=message):
        Certificate("scaled_anodyne", *fields(_an1_cert()))


def test_subtriples_of_a_regular_word_are_regular():
    """Why `_pushout_delta` may deduplicate the images of a scaling
    extension's marks unchecked: once the image of the word 01234, the
    `an2` source's one maximal tuple, is regular, so is that of every
    triple."""
    regular = 0
    for word in product("abcde", repeat=5):
        if dedup_word(word) is None:
            continue
        regular += 1
        assert all(dedup_word(sub) is not None for sub in combinations(word, 3)), word
    assert regular == 1045


@pytest.fixture
def no_large_simplex(monkeypatch):
    """Face closure that refuses a tuple on more than 12 vertices, and
    generator shapes and cell faces that refuse more than 13, so a test of
    a long attach map fails at once instead of running long or out of
    memory."""
    close = complexes.close_tuples
    horn_added = generators._horn_added
    absent = certificates.absent_faces

    def small_horn(r, m):
        if r > 12:
            raise AssertionError(f"the target-only tuples of a generator on positions 0..{r}")
        return horn_added(r, m)

    def guarded(tuples):
        tuples = [tuple(t) for t in tuples]
        big = [t for t in tuples if len(t) > 12]
        if big:
            raise AssertionError(f"face closure of a tuple on {len(big[0])} vertices")
        return close(tuples)

    def few_faces(tuples, cell):
        if len(cell) > 13:
            raise AssertionError(f"the faces of a cell on {len(cell)} vertices")
        return absent(tuples, cell)

    monkeypatch.setattr(complexes, "close_tuples", guarded)
    monkeypatch.setattr(generators, "_horn_added", small_horn)
    monkeypatch.setattr(certificates, "absent_faces", few_faces)


def _no_face(r):
    return f"no face of the {r}-simplex of the attach map is in the state"


def test_large_generator_parameter_in_a_ladder_certificate(no_large_simplex):
    """A generator's dimension r is its attach map's length less one: an
    an1 step of theta(1) on 41 labels is rejected before any face of its
    cell is built."""
    data = certificate_to_json(certify_theta(1))
    k, step = next((k, s) for k, s in enumerate(data["steps"]) if s["kind"] == "an1")
    step["attach"] = {str(x): f"w{x}" for x in range(41)}
    cert = certificate_from_json(data)
    for audit in (False, True):
        report = verify_certificate(cert, audit=audit)
        assert report.first_failure == (k, _no_face(40))


@pytest.mark.parametrize("kind, params", [
    ("an1", {"r": 40}),
    ("an1", {"r": 10 ** 5}),
    ("gen_horn", {"r": 40}),
    ("gen_horn", {"r": 10 ** 5}),
])
def test_large_generator_parameter_builds_nothing_before_the_cover_check(no_large_simplex, kind, params):
    """An attach map on r + 1 labels is rejected, plain and audited, before
    any face of its r-simplex is built: a state of fewer than 2^r - 1
    tuples holds no face of it."""
    r = params["r"]
    start = scaled_to_json(ScaledComplex(simplex_complex(["a", "b", "c"])))
    step = {"kind": kind, "attach": {str(j): f"v{j}" for j in range(r + 1)}}
    data = {"class": "scaled_anodyne", "start": start, "target": start, "steps": [step]}
    cert = certificate_from_json(data)
    for audit in (False, True):
        assert verify_certificate(cert, audit=audit).first_failure == (0, _no_face(r))


def test_an_attach_on_100000_labels_exits_1_at_once(tmp_path):
    start = scaled_to_json(_an1_cert().start)
    step = {"kind": "gen_horn", "attach": {str(j): f"v{j}" for j in range(100_000)}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"class": "scaled_anodyne", "start": start, "target": start, "steps": [step]}))
    for flags in ([], ["--audit"]):
        began = time.perf_counter()
        assert main(["verify", "--cert", str(path), *flags]) == 1
        assert time.perf_counter() - began < 1.0


def _ladder_certificates():
    return [certify_lemma_plus(n, 1) for n in range(2, 6)] + [certify_lemma_minus(n, 1) for n in range(2, 6)] \
        + [certify_inner_horn(n, 1) for n in range(2, 6)] + [certify_cosegal(n) for n in (2, 3, 4)] \
        + [certify_theta(i) for i in (0, 1)]


def test_swapping_two_attach_values_is_a_rejection(tmp_path):
    """The kernel reads a generator off the cell its attach map names, so a
    swap of two values names another cell: in every ladder certificate,
    seeded swaps in generator steps exit 1, plain and audited."""
    rng = random.Random(0)
    path = tmp_path / "swapped.json"
    for cert in _ladder_certificates():
        data = certificate_to_json(cert)
        attaches = [step["attach"] for step in json_generator_steps(data["steps"])]
        for attach in rng.sample(attaches, min(3, len(attaches))):
            a, b = rng.choice([(a, b) for a, b in combinations(sorted(attach), 2) if attach[a] != attach[b]])
            attach[a], attach[b] = attach[b], attach[a]
            path.write_text(json.dumps(data))
            attach[a], attach[b] = attach[b], attach[a]
            for flags in ([], ["--audit"]):
                assert main(["verify", "--cert", str(path), *flags]) == 1, (cert.metadata, a, b)
