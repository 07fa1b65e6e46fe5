"""Zonotope facets, ridges, the parallelohedron condition, vertex oracles."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonocert import (RatMatrix, RatVector, Zonotope, facets, rank,
                      ridge_classification, venkov_check, vertices_oracle)
from zonocert.errors import (DimensionTooLarge, DimensionTooSmall,
                             InvalidZonotope, SpanDeficient)
from zonocert.zonotope import (HEXAGON, OTHER, PARALLELOGRAM, _extreme_points,
                               _in_convex_hull)

from conftest import vec, zono
from oracles import hull_facet_planes

HEX_GENERATORS = [("2/3", "-1/3"), ("-1/3", "2/3"), ("1/3", "1/3")]
HEX_VERTICES = {vec("2/3", "-1/3"), vec("-2/3", "1/3"), vec("1/3", "1/3"),
                vec("-1/3", "-1/3"), vec("-1/3", "2/3"), vec("1/3", "-2/3")}
CUBE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
RHOMBIC_GENERATORS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
COUNTEREXAMPLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, -1, 0)]


# ---------------------------------------------------------------------------
# construction


def test_parallel_generators_merge_to_summed_length():
    z = zono([(1, 0), (2, 0), (0, 1)])
    assert z.generators == (vec(3, 0), vec(0, 1))


def test_antiparallel_generators_merge_keeping_first_orientation():
    z = zono([(1, 0), (-2, 0), (0, 1)])
    assert z.generators == (vec(3, 0), vec(0, 1))


def test_repeated_parallel_generators_merge_into_the_first():
    z = zono([(1, 0), (2, 0), (-1, 0), (0, 1)])
    assert z.generators == (vec(4, 0), vec(0, 1))


def test_rational_antiparallel_generators_merge():
    z = zono([("1/2", "1/3"), (-3, -2), (1, 0)])
    assert z.generators == (vec("7/2", "7/3"), vec(1, 0))


def test_zero_generator_rejected():
    with pytest.raises(InvalidZonotope):
        zono([(1, 0), (0, 0)])


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", True])
def test_dimension_must_be_an_int(bad):
    with pytest.raises(TypeError):
        Zonotope(bad, (vec(1, 0), vec(0, 1)))


def test_deficient_span_rejected():
    with pytest.raises(SpanDeficient):
        zono([(1, 0)])
    with pytest.raises(SpanDeficient):
        zono([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


# ---------------------------------------------------------------------------
# facets


def test_hexagon_has_three_facet_pairs():
    assert len(facets(zono(HEX_GENERATORS))) == 3


def test_cube_facets():
    fs = facets(zono(CUBE))
    assert len(fs) == 3
    assert all(f.support == Fraction(1, 2) for f in fs)


def test_rhombic_dodecahedron_has_six_facet_pairs():
    assert len(facets(zono(RHOMBIC_GENERATORS))) == 6


@pytest.mark.parametrize("rows", [HEX_GENERATORS, CUBE, RHOMBIC_GENERATORS])
def test_facet_descriptors_are_consistent(rows):
    z = zono(rows)
    for f in facets(z):
        in_plane = [z.generators[i] for i in f.generator_subset]
        assert all(f.normal.dot(v) == 0 for v in in_plane)
        outside = [v for i, v in enumerate(z.generators)
                   if i not in f.generator_subset]
        assert all(f.normal.dot(v) != 0 for v in outside)
        assert f.support == sum(
            (abs(f.normal.dot(v)) for v in z.generators), Fraction(0)) / 2
        assert f.normal.dot(f.center) == f.support


@pytest.mark.parametrize("rows", [HEX_GENERATORS, CUBE, RHOMBIC_GENERATORS])
def test_facet_supports_match_vertex_maxima(rows):
    z = zono(rows)
    verts = vertices_oracle(z)
    for f in facets(z):
        assert f.support == max(f.normal.dot(v) for v in verts)


@settings(max_examples=60)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=3)] * d),
    min_size=d, max_size=5)))
def test_facet_centers_are_signed_half_sums(rows):
    try:
        z = zono(rows)
    except (InvalidZonotope, SpanDeficient):
        assume(False)
    for f in facets(z):
        center = [Fraction(0)] * z.dimension
        for g in z.generators:
            p = f.normal.dot(g)
            s = (p > 0) - (p < 0)
            center = [c + s * e / 2 for c, e in zip(center, g.entries)]
        assert f.center.entries == tuple(center)


# ---------------------------------------------------------------------------
# ridges and the parallelohedron conditions


def test_cube_ridges_are_parallelograms():
    classes = ridge_classification(zono(CUBE))
    assert len(classes) == 3
    assert all(r.classification == PARALLELOGRAM for r in classes)


def test_rhombic_dodecahedron_ridges_are_hexagons():
    classes = ridge_classification(zono(RHOMBIC_GENERATORS))
    assert len(classes) == 4
    assert all(r.classification == HEXAGON for r in classes)
    assert all(r.direction_count == 3 for r in classes)


def test_counterexample_ridge_along_third_axis_is_other():
    classes = {r.flat: r for r in ridge_classification(zono(COUNTEREXAMPLE))}
    assert classes[(2,)].classification == OTHER
    assert classes[(2,)].direction_count == 4


def test_zonogon_single_ridge_is_the_whole_figure():
    classes = ridge_classification(zono(HEX_GENERATORS))
    assert classes == ridge_classification(zono(HEX_GENERATORS))
    assert len(classes) == 1
    assert classes[0].flat == ()
    assert classes[0].classification == HEXAGON


def test_ridges_need_dimension_two():
    with pytest.raises(DimensionTooSmall):
        ridge_classification(Zonotope(1, (vec(1),)))


def test_venkov_cube_and_rhombic_dodecahedron_hold():
    assert venkov_check(zono(CUBE)).holds
    assert bool(venkov_check(zono(RHOMBIC_GENERATORS)))


def test_venkov_counterexample_reports_witnesses():
    report = venkov_check(zono(COUNTEREXAMPLE))
    assert not report.holds
    witness_flats = {r.flat for r in report.witnesses}
    assert (2,) in witness_flats
    assert all(r.classification == OTHER for r in report.witnesses)


# ---------------------------------------------------------------------------
# vertex oracle and hull cross-checks


def test_cube_vertices():
    verts = vertices_oracle(zono(CUBE))
    half = Fraction(1, 2)
    assert set(verts) == {vec(sx * half, sy * half, sz * half)
                          for sx in (-1, 1) for sy in (-1, 1)
                          for sz in (-1, 1)}


def test_hexagon_vertices_drop_interior_sums():
    assert set(vertices_oracle(zono(HEX_GENERATORS))) == HEX_VERTICES


def test_vertices_are_centrally_symmetric():
    for rows in (HEX_GENERATORS, CUBE, RHOMBIC_GENERATORS, COUNTEREXAMPLE):
        verts = set(vertices_oracle(zono(rows)))
        assert verts == {-v for v in verts}


def test_segment_vertices_are_its_two_ends():
    assert vertices_oracle(zono([(2,), (3,)])) == (vec("-5/2"), vec("5/2"))


def test_vertex_oracle_dimension_cap():
    z = zono([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(DimensionTooLarge):
        vertices_oracle(z)


@st.composite
def clouds(draw, d):
    """Rational points plus repeats and points on lines through two others."""
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        t = draw(st.fractions(min_value=0, max_value=2, max_denominator=2))
        pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    return pts


def _cross2(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def monotone_chain(points):
    """Vertices of the 2d convex hull, monotone chain with strict turns."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@settings(max_examples=60)
@given(clouds(1), clouds(2))
def test_hull_membership_finds_the_same_extreme_points(line, plane):
    # the monotone chain shares no arithmetic with the simplex
    assert set(_extreme_points(line)) == {min(line), max(line)}
    assert set(_extreme_points(plane)) == set(monotone_chain(plane))


@settings(max_examples=60, deadline=None)
@given(clouds(3))
def test_extreme_points_in_space_are_where_three_hull_planes_meet(pts):
    # repeats, points inside and points on segments are all refused
    vectors = [RatVector(p) for p in pts]
    assume(rank(RatMatrix([v - vectors[0] for v in vectors], cols=3)) == 3)
    planes = hull_facet_planes(vectors)

    def is_vertex(v):
        normals = [n for n, h in planes if n.dot(v) == h]
        return rank(RatMatrix(normals, cols=3)) == 3

    assert _extreme_points(pts) == sorted(
        p for p in set(pts) if is_vertex(RatVector(p)))


@settings(max_examples=60)
@given(clouds(3), st.data())
def test_hull_membership_in_space(pts, data):
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(pts),
                                 max_size=len(pts)).filter(any))
    inside = tuple(sum(w * q[i] for w, q in zip(weights, pts)) / sum(weights)
                   for i in range(3))
    assert _in_convex_hull(inside, pts)
    assert all(_in_convex_hull(q, pts) for q in pts)
    c = data.draw(st.tuples(*[st.integers(-2, 2)] * 3).filter(any))
    top = max(pts, key=lambda q: sum(a * x for a, x in zip(c, q)))
    assert not _in_convex_hull(tuple(x + a for x, a in zip(top, c)), pts)
    assert not _in_convex_hull(inside, [])


def test_hull_membership_is_exact_and_terminates_on_integer_points():
    # the origin is (1/6, 5/12, 1/6, 1/4) on points 0, 2, 5, 6; breaking
    # ratio ties by the largest basis index cycles on this cloud
    pts = [(-2, 1, 1), (0, 1, -2), (1, 0, -2), (-2, -2, -1), (-1, 1, -1),
           (1, 2, 1), (-1, -2, 2)]
    assert _in_convex_hull((0, 0, 0), pts)


def test_hull_planes_of_cube_vertices():
    half = Fraction(1, 2)
    corners = [vec(sx * half, sy * half, sz * half)
               for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    planes = hull_facet_planes(corners)
    assert len(planes) == 6
    assert all(h == half for _, h in planes)


@pytest.mark.parametrize("rows", [HEX_GENERATORS, CUBE, RHOMBIC_GENERATORS])
def test_facets_agree_with_hull_of_oracle_vertices(rows):
    z = zono(rows)
    from_facets = set()
    for f in facets(z):
        from_facets.add((f.normal.entries, f.support))
        from_facets.add(((-f.normal).entries, f.support))
    hull = {(n.entries, h) for n, h in
            hull_facet_planes(list(vertices_oracle(z)))}
    assert from_facets == hull
