"""Scalings, scaled maps, and their closure properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from scaledss import (
    InputError,
    IrregularCollapse,
    OrderedComplex,
    ScaledComplex,
    ScaledMap,
    horn,
    restrict_scaling,
    simplex_complex,
)
from scaledss.complexes import ComplexMap, dedup_word, simplex_key
from scaledss.checks import boundary_face, codegeneracy_vmap, oplax_square
from scaledss.tower import coface_vmap, image_scaled, tilde_ts1, ts, ts_plus
from support import simplices


def test_scale_modes():
    d2 = simplex_complex(["0", "1", "2"])
    assert len(ScaledComplex(d2, simplices(d2, 2)).thin) == 1
    flat = ScaledComplex(d2)
    assert not flat.thin
    # the degeneracy convention: a thin triangle may land on a degenerate
    # one, which no thin set stores, but not on a nondegenerate unmarked one
    sharp = ScaledComplex(d2, simplices(d2, 2))
    ScaledMap(ComplexMap(d2, d2, {"0": "0", "1": "0", "2": "1"}), sharp, flat)
    with pytest.raises(InputError, match="thin triangles to thin ones"):
        ScaledMap(ComplexMap(d2, d2, {v: v for v in d2.vertices}), sharp, flat)
    with pytest.raises(InputError):
        ScaledComplex(d2, [("0", "2", "1")])


def test_oplax_square_scaling():
    sq = oplax_square()
    assert len(simplices(sq.complex, 2)) == 2
    assert sq.thin_sorted() == [("00", "10", "11")]


def test_restrict_scaling_prism():
    top = boundary_face(1, "T")
    # oracle: intersect the audited thin list with the prism triangles
    expected = {t for t in ts(1).thin if t in top.complex.tuples}
    assert top.thin == expected
    assert len(expected) == 1
    # idempotence
    again = restrict_scaling(top.complex, top)
    assert again == top
    sharp = ScaledComplex(top.complex, simplices(top.complex, 2))
    assert restrict_scaling(top.complex, sharp) == sharp
    point = simplex_complex(["000"])
    assert restrict_scaling(point, ts(1)).thin == frozenset()


def test_image_scaled():
    level = ts(1)
    assert image_scaled(level, {v: v for v in level.complex.vertices}) == level
    # an injective relabeling is the directly relabeled complex and thin set
    rename = {v: "x" + v for v in level.complex.vertices}
    relabeled = ScaledComplex(
        OrderedComplex(tuple(rename[v] for v in t) for t in level.complex.tuples),
        [tuple(rename[v] for v in t) for t in level.thin],
    )
    assert image_scaled(level, rename) == relabeled
    # collapsing the edge 01 keeps only the nondegenerate thin images
    cx = simplex_complex(["0", "1", "2", "3"])
    d3 = ScaledComplex(cx, simplices(cx, 2))
    collapsed = image_scaled(d3, {"0": "0", "1": "0", "2": "2", "3": "3"})
    assert collapsed.complex == simplex_complex(["0", "2", "3"])
    assert collapsed.thin == {("0", "2", "3")}
    # identifying the non-adjacent vertices 0 and 2 is irregular
    with pytest.raises(IrregularCollapse):
        image_scaled(ScaledComplex(simplex_complex(["0", "1", "2"]), {("0", "1", "2")}),
                     {"0": "0", "1": "1", "2": "0"})


def test_check_scaled_map():
    d2 = simplex_complex(["0", "1", "2"])
    sharp, flat = ScaledComplex(d2, simplices(d2, 2)), ScaledComplex(d2)
    ident = ComplexMap(d2, d2, {v: v for v in d2.vertices})
    assert ScaledMap(ident, sharp, sharp)("1") == "1"
    with pytest.raises(InputError) as info:
        ScaledMap(ident, sharp, flat)
    assert str(info.value) == ("the map does not carry the source's thin triangles to thin ones: "
                               "('0', '1', '2') maps to ('0', '1', '2')")
    with pytest.raises(InputError, match="map endpoints do not match"):
        ScaledMap(ident, sharp, ScaledComplex(simplex_complex(["0", "1"])))


def test_coface_is_scaled():
    from scaledss.checks import coface

    d1 = coface(0, 1)  # built as a ScaledMap, raises if not thin-preserving
    tri = next(iter(ts(0).thin))
    assert tuple(d1(v) for v in tri) in ts(1).thin


def test_add_thin_monotone():
    lam = horn([str(j) for j in range(5)], {"2"})
    s = ScaledComplex(lam)
    tris = simplices(lam, 2)
    grown = ScaledComplex(lam, s.thin | set(tris[:3]))
    assert ScaledComplex(lam, grown.thin) == grown
    for t in tris[:3]:
        assert t in grown.thin
    assert ScaledComplex(simplex_complex(["0", "1", "2"]), [("0", "1", "2")]).thin == frozenset(
        {("0", "1", "2")}
    )
    with pytest.raises(InputError):
        ScaledComplex(lam, s.thin | {("9", "9", "9")})


def test_composition_closure_random():
    rng = random.Random(3)
    amb = ts_plus(2)
    verts = sorted(amb.complex.vertices)
    for _ in range(25):
        # random column-monotone self-maps compose to scaled maps
        import scaledss.grid as grid

        cuts = sorted(rng.sample(range(3), 2))

        def clamp(k, lo=cuts[0], hi=cuts[1]):
            return min(max(k, lo), hi)

        vmap = {v: grid.vlabel(grid.vrow(v), clamp(grid.vcol(v))) for v in verts}
        f = ComplexMap(amb.complex, amb.complex, vmap)
        ScaledMap(f, amb, amb)  # raises unless scaled
        gmap = {v: vmap[vmap[v]] for v in verts}
        g = ComplexMap(amb.complex, amb.complex, gmap)
        ScaledMap(g, amb, amb)


def test_tilde_extras_are_simplices():
    tilde = tilde_ts1()
    base = ts(1)
    extras = tilde.thin - base.thin
    assert len(extras) == 6
    for t in extras:
        assert t in tilde.complex.tuples


def _sorted_scan(f, s, t):
    """The first thin triangle, in `simplex_key` order, whose image is
    neither thin nor degenerate, and that image; or None."""
    for tri in sorted(s.thin, key=simplex_key):
        img = dedup_word([f.vmap[v] for v in tri])
        if len(img) == 3 and img not in t.thin:
            return tri, img
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_scaled_map_names_what_a_sorted_scan_names(data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, n + 1))
        src, tgt, vmap = ts(n), ts(n + 1), coface_vmap(n, j, ts(n).complex.vertices)
    else:  # codegeneracies collapse some thin triangles to degenerate ones
        j = data.draw(st.integers(0, n - 1))
        src, tgt, vmap = ts(n), ts(n - 1), codegeneracy_vmap(n, j, ts(n).complex.vertices)
    thin = data.draw(st.sets(st.sampled_from(sorted(tgt.thin, key=simplex_key))))
    target = ScaledComplex(tgt.complex, thin)
    f = ComplexMap(src.complex, tgt.complex, vmap)
    first = _sorted_scan(f, src, target)
    if first is None:
        ScaledMap(f, src, target)
        return
    with pytest.raises(InputError) as info:
        ScaledMap(f, src, target)
    message = "the map does not carry the source's thin triangles to thin ones: {} maps to {}"
    assert str(info.value) == message.format(*first)
