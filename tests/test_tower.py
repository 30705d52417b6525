"""The tower: halves, glue, faces, horns, structure maps, duality, spine."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from scaledss import (
    InputError,
    OrderedComplex,
    ScaledComplex,
    latching,
    oplax_square,
    rev_duality_check,
    thin_audit,
    tilde_ts1,
    ts,
    ts_minus,
    ts_plus,
)
from scaledss.grid import PLUS_ROWS
from test_acceptance import TS0_TO_OPLAX_SQUARE, is_scaled_isomorphism
from test_complexes import face_pass_maximal
from scaledss.checks import (
    boundary_face,
    check_cosimplicial_identities,
    codegeneracy,
    coface,
    rev_duality_vmap,
    segment_image,
)
from scaledss.tower import (
    HORN_VARIANTS,
    _sweep_cell,
    coface_image,
    cosegal_source,
    fsr,
    horn_variants,
    image_scaled,
    row_tuples,
    theta_complexes,
)

from support import omega, simplices
from test_complexes import _grid_chains

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_ts_plus_small_levels():
    t0 = ts_plus(0)
    assert sorted(t0.complex.vertices) == ["000", "010", "110"]
    assert t0.thin_sorted() == [("000", "010", "110")]
    t1 = ts_plus(1)
    assert len(simplices(t1.complex, 2)) == 10
    assert len(t1.thin) == 6


@pytest.mark.parametrize("n", range(6))
def test_ts_plus_is_the_grid_oracle(n):
    # two independent constructions: sweep-cell closure vs brute-force chains
    assert ts_plus(n).complex == _grid_chains(PLUS_ROWS, n)


def test_oplax_square_is_the_square_nerve():
    # the strictly increasing chains of {0, 1}^2, by brute force
    square = ("00", "01", "10", "11")
    chains = [c for k in (1, 2, 3) for c in combinations(square, k)
              if all(a != b and a[0] <= b[0] and a[1] <= b[1] for a, b in zip(c, c[1:]))]
    assert oplax_square().complex == OrderedComplex(chains)


def test_ts_plus_family_membership():
    t2 = ts_plus(2)
    assert ("000", "011", "112") in t2.thin
    assert ("000", "001", "112") not in t2.thin


def test_ts_minus_small_levels():
    t0 = ts_minus(0)
    assert sorted(t0.complex.vertices) == ["000", "100", "110"]
    assert not t0.thin
    t1 = ts_minus(1)
    assert len(simplices(t1.complex, 3)) == 3
    assert len(simplices(t1.complex, 2)) == 10
    assert t1.thin == frozenset({("000", "001", "101"), ("100", "110", "111")})
    t2 = ts_minus(2)
    assert len(t2.complex.maximal()) == 6  # pairs 0 <= k <= k' <= 2


def test_sigma_tuples():
    assert _sweep_cell("plus", 1, 0, 0) == ("000", "010", "110", "111")
    assert _sweep_cell("minus", 1, 1, 0) == ("000", "101", "100", "111")
    with pytest.raises(InputError):
        _sweep_cell("plus", 1, 2, 0)


def test_ts_glue():
    t1 = ts(1)
    assert len(t1.complex.vertices) == 8
    # inclusion-exclusion: 10 + 10 - (2 shared prism triangles)
    assert len(simplices(t1.complex, 2)) == 18
    assert len(t1.thin) == 8


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_ts_is_the_union_of_its_halves(n):
    plus, minus = ts_plus(n), ts_minus(n)
    assert ts(n).complex.tuples == plus.complex.tuples | minus.complex.tuples
    assert ts(n).thin == plus.thin | minus.thin


def test_ts_audits_the_glue(monkeypatch):
    from scaledss import AuditFailure, tower

    plus = tower.ts_plus
    # a plus half without the prism's far corner 111
    monkeypatch.setattr(tower, "ts_plus", lambda n: tower.sub_scaled(
        plus(n), (t for t in plus(n).complex.tuples if "111" not in t)))
    with pytest.raises(AuditFailure, match="disagree on the shared flat prism"):
        tower.ts.__wrapped__(1)
    # a minus half that also holds the plus half's middle row
    monkeypatch.setattr(tower, "ts_plus", plus)
    monkeypatch.setattr(tower, "ts_minus", plus)
    with pytest.raises(AuditFailure, match="share a vertex outside the flat prism"):
        tower.ts.__wrapped__(1)


def test_tower_levels_build_no_complex_map():
    code = (
        "from scaledss import checks, complexes, tower\n"
        "built = []\n"
        "init = complexes.ComplexMap.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "complexes.ComplexMap.__init__ = counted\n"
        "tower.ts(4)\n"
        "for f in 'TFRB':\n"
        "    checks.boundary_face(4, f)\n"
        "tower.cosegal_source(4)\n"
        "print(len(built))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "0"


def test_levels_and_their_maps_take_no_face_pass(monkeypatch, capsys):
    """The levels, the halves and the structure maps out of them read their
    maximal simplices off the sweep cells, never off every face."""
    from scaledss import complexes, tower
    from scaledss.cli import main

    def no_face_pass(tuples):
        raise AssertionError("face pass taken")

    for built in (tower.ts_plus, tower.ts_minus, tower.ts):
        built.cache_clear()
    monkeypatch.setattr(complexes, "_face_passes", no_face_pass)
    for n in range(7):
        for obj in ("ts", "ts-plus", "ts-minus"):
            assert main(["build", "--object", obj, "--n", str(n)]) == 0
    capsys.readouterr()
    for n in range(4):
        for j in range(n + 2):
            coface(n, j)
        for j in range(n):
            codegeneracy(n, j)


def test_maximal_matches_the_face_pass_on_the_tower():
    for n in range(9):
        for level in (ts(n), ts_plus(n), ts_minus(n)):
            assert level.complex.maximal() == face_pass_maximal(level.complex)
        for f in "TFRB":
            face = boundary_face(n, f).complex
            assert face.maximal() == face_pass_maximal(face)
    for n in range(2, 6):
        for i in range(1, n):
            for which in HORN_VARIANTS:
                variant = horn_variants(n, i, which).complex
                assert variant.maximal() == face_pass_maximal(variant)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_ts_vertex_count(n):
    assert len(ts(n).complex.vertices) == 4 * (n + 1)


def test_parts_intersect_in_flat_prism():
    shared = OrderedComplex(ts_plus(1).complex.tuples & ts_minus(1).complex.tuples)
    assert sorted(shared.vertices) == ["000", "001", "110", "111"]
    assert len(simplices(shared, 1)) == 5
    assert len(simplices(shared, 2)) == 2
    assert not simplices(shared, 3)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_minus_half_equals_relabel_image(n):
    # two independent constructions: sweep-cell closure vs grid relabeling
    img, _ = omega(_grid_chains(PLUS_ROWS, n), n)
    assert img == ts_minus(n).complex


@pytest.mark.parametrize("n", [1, 2])
def test_twisted_faces_equal_relabel_images(n):
    top, bottom = _grid_chains(("00", "01"), n), _grid_chains(("01", "11"), n)
    assert omega(top, n)[0] == boundary_face(n, "R").complex
    assert omega(bottom, n)[0] == boundary_face(n, "B").complex


@pytest.mark.parametrize("n,i", [(2, 1), (3, 2)])
def test_horn_variants_equal_relabel_images(n, i):
    grid = _grid_chains(PLUS_ROWS, n)
    horn_grid = OrderedComplex(
        frozenset(
            t for t in grid.tuples
            if any(s not in {int(v[2:]) for v in t} for s in range(n + 1) if s != i)
        ),
        _validated=True,
    )
    img = omega(horn_grid, n)[0]
    prism = frozenset(
        t for t in ts_minus(n).complex.tuples if {v[:2] for v in t} <= {"00", "11"}
    )
    assert horn_variants(n, i, "hat_minus").complex.tuples == img.tuples | prism
    assert horn_variants(n, i, "full").complex.tuples == horn_grid.tuples | img.tuples


def test_ts0_is_oplax_square():
    a, b = ts(0), oplax_square()
    assert is_scaled_isomorphism(TS0_TO_OPLAX_SQUARE, a, b)
    # without the swap the complexes match but the thin triangles do not
    unswapped = image_scaled(a, {v: v[:2] for v in a.complex.vertices})
    assert unswapped.complex == b.complex and unswapped != b


@pytest.mark.parametrize("n,part,total,thin", [
    (1, "plus", 10, 6),
    (1, "minus", 10, 2),
    (1, "full", 18, 8),
    (0, "full", 2, 1),
])
def test_thin_audit_counts(n, part, total, thin):
    report = thin_audit(n, part)
    assert report["ok"]
    assert report["total"] == total and report["thin"] == thin


@pytest.mark.parametrize("half", ["plus", "minus"])
def test_thin_audit_rejects_a_wrong_thin_set(half, monkeypatch):
    from scaledss import AuditFailure, tower

    level = getattr(tower, f"ts_{half}")(2)
    # off the glued rows, so that the full level misses it too
    member = next(t for t in level.thin_sorted() if tower.HALVES[half][0] in {v[:2] for v in t})
    extra = next(t for t in simplices(level.complex, 2) if t not in level.thin)
    monkeypatch.setattr(tower, "ts", tower.ts.__wrapped__)  # glue the patched half, not a cached level
    # a stored thin set that misses one family member, then one with an extra 2-simplex
    for thin in (level.thin - {member}, level.thin | {extra}):
        monkeypatch.setattr(tower, f"ts_{half}", lambda n: ScaledComplex(level.complex, thin))
        with pytest.raises(AuditFailure, match="thin audit failed"):
            thin_audit(2, half)
        with pytest.raises(AuditFailure, match="thin audit failed"):
            thin_audit(2, "full")


def test_boundary_faces():
    top = boundary_face(1, "T")
    assert len(simplices(top.complex, 2)) == 2
    assert len(top.thin) == 1
    r_face = boundary_face(2, "R")
    assert {v[:2] for v in r_face.complex.vertices} == {"00", "10"}
    b0 = boundary_face(0, "B")
    assert sorted(b0.complex.vertices) == ["100", "110"]
    assert not simplices(b0.complex, 2)
    assert boundary_face(2, "R") is boundary_face(2, "R")  # cached like ts


def test_horn_variants():
    plus = horn_variants(2, 1, "plus")
    assert plus.complex.tuples <= ts_plus(2).complex.tuples
    assert all(any(s not in {int(v[2:]) for v in t} for s in (0, 2)) for t in plus.complex.tuples)
    full = horn_variants(2, 1, "full")
    assert full.complex.tuples < ts(2).complex.tuples
    bar = horn_variants(2, 1, "bar_plus")
    assert plus.complex.tuples < bar.complex.tuples
    with pytest.raises(InputError):
        horn_variants(2, 0, "full")


def test_horn_variants_are_built_once():
    assert horn_variants(3, 1, "full") is horn_variants(3, 1, "full")
    for _ in range(2):  # a rejected call is not cached
        with pytest.raises(InputError):
            horn_variants(3, 3, "full")
        with pytest.raises(InputError):
            horn_variants(3, 1, "hat")


# Every tower filter against a per-tuple predicate that parses each label.


def _cols(t):
    return {int(v[2:]) for v in t}


def _rows(t):
    return {v[:2] for v in t}


def _brute_horn(n, i, which):
    ambient, prisms = HORN_VARIANTS[which]
    return frozenset(
        t for t in ambient(n).complex.tuples
        if any(s not in _cols(t) for s in range(n + 1) if s != i)
        or any(_rows(t) <= set(rows) for rows in prisms)
    )


@pytest.mark.parametrize("which", sorted(HORN_VARIANTS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_horn_variant_filter_matches_the_per_tuple_predicate(n, which):
    for i in range(1, n):
        assert horn_variants(n, i, which).complex.tuples == _brute_horn(n, i, which)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_row_filter_matches_the_per_tuple_predicate(n):
    codes = ("00", "01", "10", "11")
    for amb in (ts(n), ts_plus(n), ts_minus(n)):
        for k in range(len(codes) + 1):
            for rows in combinations(codes, k):
                assert row_tuples(amb, rows) == frozenset(
                    t for t in amb.complex.tuples if _rows(t) <= set(rows))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_latching_and_cosegal_filters_match_the_per_tuple_predicates(n):
    total = ts(n).complex.tuples
    assert latching(n)[0].tuples == frozenset(t for t in total if _cols(t) != set(range(n + 1)))
    assert cosegal_source(n).complex.tuples == frozenset(
        t for t in total if any(_cols(t) <= {c, c + 1} for c in range(n)))


def test_coface_codegeneracy_basics():
    d1 = coface(0, 1)
    assert {d1.vmap[v] for v in ts(0).complex.vertices} == {"000", "010", "100", "110"}
    d0a = coface(0, 0)
    dd_left = {v: coface(1, 1).vmap[d0a.vmap[v]] for v in ts(0).complex.vertices}
    dd_right = {v: coface(1, 0).vmap[d0a.vmap[v]] for v in ts(0).complex.vertices}
    assert dd_left == dd_right  # d^1 d^0 = d^0 d^0
    s0 = codegeneracy(1, 0)
    assert {s0.vmap[v] for v in ts(1).complex.vertices} == set(ts(0).complex.vertices)
    with pytest.raises(InputError):
        codegeneracy(1, 1)


def test_cosimplicial_identities_small():
    report = check_cosimplicial_identities(1)
    assert report["ok"] and report["checked"] > 0


def test_latching():
    l1, rep1 = latching(1)
    expected = coface_image(0, 0).tuples | coface_image(0, 1).tuples
    assert l1.tuples == expected
    assert l1.tuples < ts(1).complex.tuples
    latching(2)
    with pytest.raises(InputError):
        latching(0)


def test_tilde_ts1():
    tilde = tilde_ts1()
    assert len(tilde.thin) == len(ts(1).thin) + 6
    assert ("000", "101", "100") in tilde.thin  # listed by vertex set, stored in join order


def test_fsr_subcomplex():
    for i in (0, 1):
        frame = fsr(i)
        assert frame.complex.tuples <= ts(1).complex.tuples
        assert frame.thin <= tilde_ts1().thin
        assert not simplices(frame.complex, 3)


def test_theta_complexes_structure():
    """The frame and level one, each with one end edge collapsed: the
    initial bottom edge at index 1, the terminal top edge at index 0."""
    for i, collapsed, gone in ((1, "000", "001"), (0, "110", "111")):
        e0, e2 = theta_complexes(i)
        assert e0.complex.tuples < e2.complex.tuples and e0.thin <= e2.thin
        assert e2.complex.vertices == ts(1).complex.vertices - {gone}
        assert collapsed in e0.complex.vertices
        assert theta_complexes(i) is theta_complexes(i)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_rev_duality(n):
    report = rev_duality_check(n)
    assert report["ok"]
    assert report["cofaces_intertwined"] == n + 2
    # the map reverses order: applied to the unreversed B face it misses R
    assert image_scaled(boundary_face(n, "B"), rev_duality_vmap(n)) != boundary_face(n, "R")


def test_cosegal_source():
    s1 = cosegal_source(1)
    assert s1 == ts(1)
    s2 = cosegal_source(2)
    assert s2.complex.tuples == segment_image(2, 0) | segment_image(2, 1)
    for n in (1, 2, 3):
        assert len(cosegal_source(n).complex.vertices) == 4 * (n + 1)
