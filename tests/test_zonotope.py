"""Zonotope facets, ridges, the parallelohedron condition, vertex oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonocert import (Zonotope, facets, hull_facet_planes,
                      ridge_classification, support_value, venkov_check,
                      vertices_oracle)
from zonocert.errors import (DimensionTooLarge, DimensionTooSmall,
                             InvalidZonotope, SpanDeficient, ZeroDirection)
from zonocert.zonotope import (HEXAGON, OTHER, PARALLELOGRAM, _extreme_points,
                               _hull2d, _in_convex_hull)

from conftest import vec, zono

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
# support values


def test_cube_support_along_diagonal():
    assert support_value(zono(CUBE), vec(1, 1, 1)) == Fraction(3, 2)


def test_hexagon_support_along_axis():
    assert support_value(zono(HEX_GENERATORS), vec(1, 0)) == Fraction(2, 3)


def test_support_is_homogeneous():
    z = zono(HEX_GENERATORS)
    base = support_value(z, vec(1, -2))
    assert support_value(z, vec(3, -6)) == 3 * base


def test_support_rejects_zero_direction():
    with pytest.raises(ZeroDirection):
        support_value(zono(CUBE), vec(0, 0, 0))


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


@settings(max_examples=60)
@given(clouds(1), clouds(2))
def test_hull_membership_finds_the_same_extreme_points(line, plane):
    # the monotone chain shares no arithmetic with the simplex
    assert set(_extreme_points(line)) == {min(line), max(line)}
    assert set(_extreme_points(plane)) == set(_hull2d(plane))


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
