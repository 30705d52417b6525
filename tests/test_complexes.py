"""Core complex operations against small frozen oracles."""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from scaledss import (
    AmbientMismatch,
    InputError,
    IrregularCollapse,
    OrderedComplex,
    horn,
    simplex_complex,
)
from scaledss import certificates
from scaledss.certificates import StepError, _State, apply_step
from scaledss.audit import _index_vsets
from scaledss.complexes import ComplexMap, _check_edges, close_tuples, dedup_word, faces
from scaledss.scaling import ScaledComplex
from scaledss.grid import PLUS_ROWS
from scaledss.tower import ts, ts_plus, vertex_image
from support import empty, omega, simplices, tuple_on


def _grid_chains(rows, n):
    """Brute-force nerve of the grid rows x [n] (rows ordered as given):
    every subset of the grid, listed in row-major order, which is a linear
    extension of the product order, that the order predicate makes a
    strictly increasing chain."""
    elems = [f"{r}{c}" for r in rows for c in range(n + 1)]

    def lt(a, b):
        return a != b and rows.index(a[:2]) <= rows.index(b[:2]) and int(a[2:]) <= int(b[2:])

    # a chain climbs at most len(rows) - 1 rows and n columns
    return OrderedComplex(
        c for length in range(1, len(rows) + n + 1) for c in combinations(elems, length)
        if all(lt(a, b) for a, b in zip(c, c[1:]))
    )


def test_nerve_simplex_counts():
    d2 = _grid_chains(("00",), 2)
    assert len(simplices(d2, 0)) == 3
    assert len(simplices(d2, 1)) == 3
    assert len(simplices(d2, 2)) == 1
    assert len(simplices(_grid_chains(("00", "11"), 2), 2)) == 10  # [1] x [2]
    assert len(_grid_chains(("00",), 0).tuples) == 1
    # the plus half is the nerve of [2] x [n]: 3(n+1) vertices, and one top
    # simplex per lattice path, C(n+2, 2) of them
    for n in range(4):
        plus = ts_plus(n).complex
        assert len(plus.vertices) == 3 * (n + 1)
        assert not simplices(plus, n + 3)  # top dimension n + 2
        assert len(simplices(plus, n + 2)) == (n + 1) * (n + 2) // 2


def test_span_join_generators():
    # three 3-simplices sharing faces: dedup by brute-force closure
    gens = [
        ("000", "100", "110", "111"),
        ("000", "101", "100", "111"),
        ("000", "001", "101", "111"),
    ]
    k = OrderedComplex.from_tuples(gens)
    assert len(k.vertices) == 6
    assert len(simplices(k, 2)) == 10


def test_horn_inner():
    h = horn(["0", "1", "2"], {"1"})
    assert set(simplices(h, 1)) == {("0", "1"), ("1", "2")}
    assert not simplices(h, 2)
    assert ("0", "2") not in h


def test_horn_multi_vertex_subset():
    # union over s outside N: one top face per such s
    h = horn([str(j) for j in range(5)], {"1", "2"})
    tops = simplices(h, 3)
    assert len(tops) == 3
    assert set(tops) == {
        ("1", "2", "3", "4"),
        ("0", "1", "2", "4"),
        ("0", "1", "2", "3"),
    }
    # missing exactly the 2^{|N|} faces containing the complement of N
    full = simplex_complex([str(j) for j in range(5)])
    missing = full.tuples - h.tuples
    core = {"0", "3", "4"}
    assert missing == frozenset(t for t in full.tuples if core <= set(t))
    assert len(missing) == 2 ** 2


def test_the_constructor_rejects_a_set_that_misses_a_face():
    """The decoder closes every complex it reads, so only a caller of the
    API meets this check."""
    with pytest.raises(InputError) as info:
        OrderedComplex({("a", "b")})
    assert str(info.value) == "missing face ('b',) of ('a', 'b')"


def test_horn_boundary():
    b = OrderedComplex.from_tuples(faces(("0", "1", "2")))
    assert len(simplices(b, 1)) == 3 and not simplices(b, 2)
    with pytest.raises(InputError, match="horn subset must be nonempty"):
        horn(["0", "1", "2"], set())
    with pytest.raises(InputError):
        horn(["0", "1"], {"0", "1"})


@pytest.mark.parametrize("s, n", [(["0", "0", "1"], {"1"}), (["0", "1", "0"], {"1"}), (["2", "1", "2"], {"2"})])
def test_horn_rejects_repeated_labels(s, n):
    """Like `simplex_complex`, a horn needs distinct simplex labels: a
    repeated label is not a simplex, and its faces would collapse."""
    with pytest.raises(InputError, match="simplex labels must be distinct"):
        simplex_complex(s)
    with pytest.raises(InputError, match="simplex labels must be distinct"):
        horn(s, n)


def test_omega_examples():
    img, _ = omega(_grid_chains(PLUS_ROWS, 0), 0)
    assert sorted(img.vertices) == ["000", "100", "110"]
    assert len(simplices(img, 2)) == 1
    # injective on vertices; every image vertex set spans a tuple of the image
    grid1 = _grid_chains(PLUS_ROWS, 1)
    img1, vmap = omega(grid1, 1)
    assert len(set(vmap.values())) == len(vmap)
    for t in grid1.tuples:
        assert tuple_on(img1, [vmap[v] for v in t]) is not None
    gens = [
        ("000", "100", "110", "111"),
        ("000", "101", "100", "111"),
        ("000", "001", "101", "111"),
    ]
    assert img1 == OrderedComplex.from_tuples(gens)


def test_omega_rejects_foreign_complex():
    with pytest.raises(InputError):
        omega(simplex_complex(["a", "b"]), 1)
    # grid vertices, but out of range or against the grid order
    for tuples in ([("002",)], [("010", "000")], [("001", "010")]):
        with pytest.raises(InputError):
            omega(OrderedComplex.from_tuples(tuples), 1)


def test_combine_union_and_intersection():
    lam = horn(["0", "1", "2"], {"1"})
    edge = OrderedComplex.from_tuples([("0", "2")])
    boundary = OrderedComplex(lam.tuples | edge.tuples, _validated=True)
    assert len(simplices(boundary, 1)) == 3 and not simplices(boundary, 2)
    assert OrderedComplex(lam.tuples | empty().tuples, _validated=True) == lam
    # the intersection of complexes is face-closed
    assert OrderedComplex(boundary.tuples & edge.tuples) == edge
    with pytest.raises(AmbientMismatch):
        OrderedComplex(close_tuples([("0", "1")]) | close_tuples([("1", "0")]), _validated=True)


def test_quotient_edge_collapse():
    d2 = simplex_complex(["0", "1", "2"])
    collapse = {"0": "0", "1": "0", "2": "2"}
    q = vertex_image(d2, collapse)
    assert q == simplex_complex(["0", "2"])
    assert tuple_on(q, (collapse[v] for v in ("0", "1", "2"))) == ("0", "2")
    assert ComplexMap(ScaledComplex(d2), ScaledComplex(q), collapse).vmap == collapse
    with pytest.raises(IrregularCollapse):
        vertex_image(d2, {"0": "0", "1": "1", "2": "0"})
    # a map is rejected in the kernel's words
    with pytest.raises(IrregularCollapse, match=r"tuple \('0', '1', '2'\) maps to irregular word"):
        ComplexMap(ScaledComplex(d2), ScaledComplex(d2), {"0": "0", "1": "1", "2": "0"})
    points = OrderedComplex.from_tuples([("0",), ("2",)])
    with pytest.raises(InputError, match=r"into the state: \('0', '1', '2'\) maps to \('0', '2'\)"):
        ComplexMap(ScaledComplex(d2), ScaledComplex(points), collapse)


def _seeded_outputs(code: str) -> set:
    """The stdout of `code` under the hash seeds 0-3."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))).stdout
            for seed in range(4)}


def test_an_irregular_vertex_image_names_its_first_tuple_under_any_hash_seed():
    """Delta^3 on a, b, c, d with a, c -> x and b, d -> y sends (a, b, c),
    (b, c, d) and (a, b, c, d) to irregular words, listed in frozenset
    order, which follows the hash seed; the error names the first in
    `simplex_key` order under every seed."""
    code = ("from scaledss.tower import simplex_complex, vertex_image\n"
            "try:\n"
            "    vertex_image(simplex_complex('abcd'), dict(zip('abcd', 'xyxy')))\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    assert _seeded_outputs(code) == {"IrregularCollapse tuple ('a', 'b', 'c') maps to irregular word ('x', 'y', 'x')\n"}


def test_a_missing_face_is_named_alike_under_any_hash_seed():
    """Two triangles whose edges are all missing: the constructor names the
    first triangle in `simplex_key` order and its face d_j of lowest j,
    whatever order the set iterates in."""
    code = ("from scaledss.complexes import OrderedComplex\n"
            "try:\n"
            "    OrderedComplex([('a', 'b', 'c'), ('d', 'e', 'f'), *[(v,) for v in 'abcdef']])\n"
            "except Exception as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    assert _seeded_outputs(code) == {"InputError missing face ('b', 'c') of ('a', 'b', 'c')\n"}


def test_the_audit_names_its_first_offender_alike_under_any_hash_seed():
    """Three added tuples that each repeat a vertex, and three added edges of
    which two share a vertex set with each other and one with an indexed
    edge: the audit names the first offender in `simplex_key` order."""
    code = ("from scaledss.audit import AuditRecord\n"
            "from scaledss.complexes import OrderedComplex\n"
            "from scaledss.scaling import ScaledComplex\n"
            "start = ScaledComplex(OrderedComplex([('a', 'b'), *[(v,) for v in 'abcd']]))\n"
            "print(AuditRecord(start).check(frozenset({('a', 'b', 'a'), ('b', 'c', 'b'), ('c', 'a', 'c')}), "
            "frozenset()))\n"
            "print(AuditRecord(start).check(frozenset({('b', 'a'), ('c', 'd'), ('d', 'c')}), frozenset()))\n"
            "print(AuditRecord(start).check(frozenset({('c', 'd'), ('d', 'c')}), frozenset()))\n")
    assert _seeded_outputs(code) == {"repeated vertex in tuple ('a', 'b', 'a')\n"
                                     "tuples ('a', 'b') and ('b', 'a') share a vertex set\n"
                                     "tuples ('c', 'd') and ('d', 'c') share a vertex set\n"}


def test_simplices_listing_sorted():
    g = _grid_chains(("00", "11"), 2)
    tris = simplices(g, 2)
    assert tris == sorted(tris, key=lambda t: (len(t), t))
    assert len(tris) == 10


def _random_subcomplex(rng, ambient):
    pool = sorted(ambient.tuples, key=lambda t: (len(t), t))
    picks = rng.sample(pool, rng.randint(1, min(8, len(pool))))
    return OrderedComplex(close_tuples(picks), _validated=True)


def test_face_closure_fuzz():
    rng = random.Random(7)
    ambient = _grid_chains(PLUS_ROWS, 2)
    for _ in range(50):
        k = _random_subcomplex(rng, ambient)
        for t in k.tuples:
            for j in range(len(t)):
                face = t[:j] + t[j + 1:]
                assert not face or face in k.tuples


def test_dedup_word():
    assert dedup_word(("a", "a", "b")) == ("a", "b")
    assert dedup_word(("a", "b", "a")) is None
    assert dedup_word(("a", "b")) == ("a", "b")


# ---------------------------------------------------------------------------
# A step agrees with a full rebuild of the union

_EXTEND_SETTINGS = settings(max_examples=60, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


def _ambient_tuples(n):
    return sorted(ts(n).complex.tuples, key=lambda t: (len(t), t))


@st.composite
def _grown(draw):
    """A subcomplex of ts(2) or ts(3) and tuples whose union with it is
    face-closed: more ambient tuples and the faces of random simplices on
    ambient and fresh labels (which may repeat a vertex or reorder a stored
    vertex set)."""
    pool = _ambient_tuples(draw(st.sampled_from([2, 3])))
    k = OrderedComplex.from_tuples(draw(st.lists(st.sampled_from(pool), max_size=6)))
    labels = sorted({v for t in pool for v in t})[:6] + ["x", "y", "z"]
    gens = draw(st.lists(st.sampled_from(pool), max_size=4))
    gens += draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=4)
                          .map(tuple), max_size=2))
    return k, close_tuples(gens)


def _outcome(build):
    try:
        return build(), None
    except InputError as exc:
        return None, exc


def _step_adding(state, added, added_thin=frozenset()):
    """Advance `state` through `apply_step` by a step whose delta adds
    exactly `added` and `added_thin`; a rejection raises the input error
    that `apply_step` reports as its cause."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certificates, "_delta",
                   lambda tuples, thin, step: (frozenset(added), frozenset(added_thin)))
        try:
            return apply_step(state, None)
        except StepError as exc:
            assert isinstance(exc.__cause__, InputError)
            raise exc.__cause__


@_EXTEND_SETTINGS
@given(_grown())
def test_step_and_union_agree_with_full_rebuild(case):
    k, added = case
    full, full_err = _outcome(lambda: OrderedComplex(k.tuples | added, _validated=True))
    state = _State(ScaledComplex(k))
    _, step_err = _outcome(lambda: _step_adding(state, added))
    assert (step_err is None) == (full_err is None)
    assert state.tuples == (k.tuples if full is None else full.tuples)


@_EXTEND_SETTINGS
@given(st.data())
def test_step_and_union_reject_like_full_rebuild(data):
    pool = _ambient_tuples(data.draw(st.sampled_from([2, 3])))
    k = OrderedComplex.from_tuples(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    stored = data.draw(st.sampled_from(sorted(t for t in k.tuples if len(t) >= 2) or [None]))
    if stored is not None:
        # another order of a stored vertex set: only vertex-set clashes
        perm = data.draw(st.permutations(stored).filter(lambda p: tuple(p) != stored))
        clash = close_tuples([tuple(perm)])
        for build in (lambda: _step_adding(_State(ScaledComplex(k)), clash),
                      lambda: OrderedComplex(k.tuples | clash, _validated=True)):
            with pytest.raises(AmbientMismatch):
                build()
    v = data.draw(st.sampled_from(sorted(k.vertices)))
    repeated = frozenset({(v, v)})
    for build in (lambda: _step_adding(_State(ScaledComplex(k)), repeated),
                  lambda: OrderedComplex(k.tuples | repeated, _validated=True)):
        with pytest.raises(InputError) as info:
            build()
        assert not isinstance(info.value, AmbientMismatch)


def test_step_adding_nothing_new_keeps_the_state():
    k = simplex_complex(["a", "b", "c"])
    state = _State(ScaledComplex(k))
    _step_adding(state, ())
    _step_adding(state, {("a", "b")})
    assert state.matches(ScaledComplex(k))
    added, _ = _step_adding(state, {("d",), ("c", "d")})
    assert added == {("d",), ("c", "d")}
    grown = OrderedComplex(k.tuples | simplex_complex(["c", "d"]).tuples, _validated=True)
    assert grown.vertices == {"a", "b", "c", "d"} and ("c", "d") in grown
    assert state.matches(ScaledComplex(grown))
    assert OrderedComplex(k.tuples | simplex_complex(["a", "b"]).tuples, _validated=True) == k


def _brute_maximal(tuples):
    """Tuples that are no proper subsequence of another stored tuple."""
    def below(t, u):
        return len(t) < len(u) and t in combinations(u, len(t))

    return sorted((t for t in tuples if not any(below(t, u) for u in tuples)),
                  key=lambda t: (len(t), tuple((len(v), v) for v in t)))


def face_pass_maximal(k):
    """The maximal tuples of `k` by the face pass: those of a complex on the
    same tuples whose builder states none."""
    return OrderedComplex(k.tuples, _validated=True).maximal()


@st.composite
def _generator_lists(draw):
    """Tuples of ts(1) or ts(2), shuffled together with repeats of some,
    faces of some (the empty face too) and isolated fresh vertices."""
    pool = _ambient_tuples(draw(st.sampled_from([1, 2])))
    members = draw(st.lists(st.sampled_from(pool), max_size=6))
    gens = list(members)
    if members:
        gens += draw(st.lists(st.sampled_from(members), max_size=3))
        for t in draw(st.lists(st.sampled_from(members), max_size=3)):
            keep = draw(st.sets(st.sampled_from(range(len(t)))))
            gens.append(tuple(v for j, v in enumerate(t) if j in keep))
    gens += [(v,) for v in draw(st.lists(st.sampled_from(["x", "y"]), max_size=2))]
    return draw(st.permutations(gens))


@_EXTEND_SETTINGS
@given(_generator_lists())
@example(gens=[()])  # the empty tuple alone closes to the empty complex
def test_maximal_matches_a_brute_force_oracle(gens):
    k = OrderedComplex.from_tuples(gens)
    assert k.maximal() == _brute_maximal(k.tuples) == face_pass_maximal(k)


def test_maximal_of_whole_levels_matches_the_oracle():
    for n in (1, 2):
        k = ts(n).complex
        assert k.maximal() == _brute_maximal(k.tuples)
        assert close_tuples(k.maximal()) == k.tuples


_LABELS = ["a", "b", "c", "d", "e"]


@st.composite
def _split_tuple_sets(draw):
    """Words on a few labels, which may repeat a vertex or order a vertex
    set two ways, split into a start and the rest; sometimes with an
    injected conflict in the rest: a repeated vertex, or a stored word in
    another order."""
    words = draw(st.lists(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=4).map(tuple),
                          min_size=1, max_size=5))
    inject = draw(st.sampled_from([None, "repeat", "reorder"]))
    if inject == "repeat":
        v = draw(st.sampled_from(_LABELS))
        words.append((v, v))
    elif inject == "reorder":
        word = draw(st.sampled_from(words))
        words.append(tuple(draw(st.permutations(word))))
    split = draw(st.integers(0, len(words)))
    return words[:split], words[split:]


def _raises(build):
    try:
        build()
    except InputError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(_split_tuple_sets())
def test_edge_rule_raises_exactly_when_the_full_index_does(case):
    first, rest = case
    tset = close_tuples(first + rest)
    full = _raises(lambda: _index_vsets({}, tset))
    # at construction, with and without the face-closure check
    assert _raises(lambda: OrderedComplex(tset)) == full
    assert _raises(lambda: OrderedComplex(tset, _validated=True)) == full
    # and on the new tuples alone, directly and through a step on the
    # replay state, from a valid start; a rejected step changes nothing
    start = close_tuples(first)
    assume(not _raises(lambda: _index_vsets({}, start)))
    state = _State(ScaledComplex(OrderedComplex(start, _validated=True)))
    added = frozenset(tset - start)
    assert _raises(lambda: _check_edges(added, start)) == full
    assert _raises(lambda: _step_adding(state, added)) == full
    assert state.tuples == (start if full else tset)


# ComplexMap checks the maximal tuples only; it must reject exactly what a
# check of every tuple and every thin triangle rejects.


def _map_rejected_on_every_tuple(source, target, vmap):
    if source.complex.vertices - vmap.keys():
        return True
    for t in source.complex.tuples:
        img = dedup_word([vmap[v] for v in t])
        if img is None or img not in target.complex.tuples:
            return True
    for t in source.thin:
        img = dedup_word([vmap[v] for v in t])
        if len(img) == 3 and img not in target.thin:
            return True
    return False


def _thin_subset(draw, k):
    """Some of the triangles of the complex `k`."""
    triangles = simplices(k, 2)
    return draw(st.sets(st.sampled_from(triangles))) if triangles else set()


@st.composite
def _vertex_maps(draw):
    """A subcomplex of ts(1) or ts(2), a vertex map onto a few labels (or
    the vertex itself) that may collapse irregularly or miss a vertex, and
    a target closed from the images of some of its maximal tuples and from
    a few random words, less some of its maximal tuples (whose faces all
    stay); each scaled by some of its triangles, the target's thin set
    perhaps holding every nondegenerate image of a thin source triangle."""
    pool = _ambient_tuples(draw(st.sampled_from([1, 2])))
    source = OrderedComplex.from_tuples(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))
    source_thin = _thin_subset(draw, source)
    vmap = {v: draw(st.sampled_from(["p", "q", "r", v])) for v in sorted(source.vertices)}
    if draw(st.booleans()):
        del vmap[draw(st.sampled_from(sorted(vmap)))]
    words = [dedup_word([vmap.get(v, v) for v in t]) for t in source.maximal()]
    keep_all = draw(st.booleans())
    words = [w for w in words if w is not None and (keep_all or draw(st.booleans()))]
    words += draw(st.lists(st.permutations(["p", "q", "r"]).map(tuple), max_size=1))
    tuples = close_tuples(words)
    assume(not _raises(lambda: _index_vsets({}, tuples)))
    hollow = draw(st.sets(st.sampled_from(OrderedComplex(tuples, _validated=True).maximal() or [()])))
    target = OrderedComplex(tuples - hollow, _validated=True)
    target_thin = _thin_subset(draw, target)
    if draw(st.booleans()):
        images = (dedup_word([vmap.get(v, v) for v in t]) for t in source_thin)
        target_thin |= {img for img in images if img is not None and len(img) == 3 and img in target.tuples}
    return ScaledComplex(source, source_thin), ScaledComplex(target, target_thin), vmap


_D2, _D3 = simplex_complex("012"), simplex_complex("0123")


@settings(max_examples=300, deadline=None)
@given(_vertex_maps())
# a thin triangle onto an unthin one, onto a degenerate one, and a thin face
# of no maximal tuple onto an unthin one
@example((ScaledComplex(_D2, [("0", "1", "2")]), ScaledComplex(_D2), {"0": "0", "1": "1", "2": "2"}))
@example((ScaledComplex(_D2, [("0", "1", "2")]), ScaledComplex(_D2), {"0": "0", "1": "0", "2": "2"}))
@example((ScaledComplex(_D3, [("0", "1", "3")]), ScaledComplex(_D3, [("0", "1", "2")]), {v: v for v in "0123"}))
def test_complex_map_rejects_exactly_what_every_tuple_rejects(case):
    source, target, vmap = case
    assert _raises(lambda: ComplexMap(source, target, vmap)) == \
        _map_rejected_on_every_tuple(source, target, vmap)
