"""The certification pipeline: form, zone vectors, cell, facet vectors."""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonocert import (EdgeSet, FacetVectorSet, LatticeBasis, NormalSet,
                      QuadraticForm, RatMatrix, RatVector, certify_second_voronoi,
                      check_n_equals_e, compute_edge_set, delone_duality_check,
                      det, dv_cell_oracle, dv_zonotope, extract_basis,
                      facet_vectors, facets, hnf_lattice_basis, inverse,
                      lattice_contains, lattice_of_dicing, quadratic_form,
                      ridge_classification, vertices_oracle, venkov_check,
                      verify_certificate, zone_vectors)
from zonocert.cli import bundled_corpus_path
from zonocert.errors import (BasisCheckFailed, CertificationError,
                             DimensionMismatch, DimensionTooLarge,
                             DualityViolation, EnumerationInsufficient,
                             InvalidNormalSet, Mismatch, NotADicing,
                             NotInLattice, NotPositiveDefinite)
from zonocert.jsonio import parse_normal_set
from zonocert import parallelohedron
from zonocert.parallelohedron import (VertexDuality, _facet_vectors_from,
                                      _short_vectors)

from conftest import (CHECKER, CUBIC, FIVE_FAMILY, HEXAGONAL, NON_DICING,
                      RHOMBIC, SQUARE, mat, normal_set, vec)


# ---------------------------------------------------------------------------
# quadratic forms and zone vectors


def test_form_of_standard_grid_is_identity():
    assert quadratic_form(normal_set(SQUARE)).matrix == mat([[1, 0], [0, 1]])


def test_form_of_hexagonal_fixture():
    assert quadratic_form(normal_set(HEXAGONAL)).matrix == mat([[2, 1],
                                                                [1, 2]])


def test_form_with_diagonal_weights():
    ns = normal_set(SQUARE, weights=[2, 3])
    assert quadratic_form(ns).matrix == mat([[2, 0], [0, 3]])


def test_form_constructor_rejects_indefinite_matrices():
    # an indefinite case names the first leading principal minor that is
    # not positive
    minor = "leading principal minor of order {} is not positive".format
    for rows, message in (([[1, 2], [2, 1]], minor(2)),
                          ([[0, 0], [0, 1]], minor(1)),
                          ([[1, 0, 1], [0, 1, 1], [1, 1, 1]], minor(3)),
                          ([[1, 0, 0], [0, 1, 0]], "form matrix must be square"),
                          ([[1, 2], [0, 1]], "form matrix must be symmetric")):
        with pytest.raises(NotPositiveDefinite) as info:
            QuadraticForm(mat(rows))
        assert str(info.value) == message


def test_zone_vectors_of_standard_grid():
    assert zone_vectors(normal_set(SQUARE)) == (vec(1, 0), vec(0, 1))


def test_zone_vectors_of_hexagonal_fixture():
    assert zone_vectors(normal_set(HEXAGONAL)) == (
        vec("2/3", "-1/3"), vec("-1/3", "2/3"), vec("1/3", "1/3"))


def test_zone_vectors_euclidean_special_case():
    ns = normal_set([("3/5", "4/5"), ("4/5", "-3/5")])
    assert quadratic_form(ns).matrix == mat([[1, 0], [0, 1]])
    assert zone_vectors(ns) == ns.normals


# ---------------------------------------------------------------------------
# the cell as a zonotope, against the brute-force oracle


HEX_VERTICES = {vec("2/3", "-1/3"), vec("-2/3", "1/3"), vec("1/3", "1/3"),
                vec("-1/3", "-1/3"), vec("-1/3", "2/3"), vec("1/3", "-2/3")}


def test_square_cell_is_the_unit_square():
    verts = vertices_oracle(dv_zonotope(normal_set(SQUARE)))
    half = Fraction(1, 2)
    assert set(verts) == {vec(sx * half, sy * half)
                          for sx in (-1, 1) for sy in (-1, 1)}


def test_hexagonal_cell_vertices():
    assert set(vertices_oracle(dv_zonotope(normal_set(HEXAGONAL)))) == \
        HEX_VERTICES


def test_rhombic_cell_has_twelve_facets():
    assert len(facets(dv_zonotope(normal_set(RHOMBIC)))) == 6


def test_oracle_square_lattice():
    ns = normal_set(SQUARE)
    verts = dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))
    half = Fraction(1, 2)
    assert set(verts) == {vec(sx * half, sy * half)
                          for sx in (-1, 1) for sy in (-1, 1)}


def test_oracle_hexagonal_form_on_unit_lattice():
    ns = normal_set(HEXAGONAL)
    verts = dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))
    assert set(verts) == HEX_VERTICES


def test_oracle_cubic_lattice():
    ns = normal_set(CUBIC)
    verts = dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))
    assert len(verts) == 8


def test_oracle_refuses_radius_that_cannot_span(monkeypatch):
    # an enumeration at a thousandth of the fixed radius finds no point
    monkeypatch.setattr(parallelohedron, "_short_vectors",
                        lambda gram, cap: _short_vectors(gram, cap // 4000))
    ns = normal_set(HEXAGONAL)
    with pytest.raises(EnumerationInsufficient,
                       match="^enumerated lattice vectors do not span the space$"):
        dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))


def test_oracle_refuses_unprovable_completeness(monkeypatch):
    # A radius of a quarter of the fixed one covers exactly the right
    # constraints of the cube, but not the certification ball (4 * 3/4 >
    # 2), so the oracle must decline rather than return the (correct)
    # answer.
    monkeypatch.setattr(parallelohedron, "RADIUS_MULTIPLIER", 1)
    ns = normal_set(CUBIC)
    with pytest.raises(EnumerationInsufficient,
                       match="^enumeration radius too small to certify"):
        dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))


def test_oracle_dimension_cap():
    ns = normal_set([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(DimensionTooLarge):
        dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))
    with open(bundled_corpus_path(), encoding="utf-8") as fh:
        grid, = [e["normal_set"] for e in json.load(fh)
                 if e["name"] == "standard-grid-4d"]
    with pytest.raises(DimensionTooLarge,
                       match="^duality check supports dimension at most 3$"):
        delone_duality_check(parse_normal_set(grid))


@pytest.mark.parametrize("rows", [SQUARE, HEXAGONAL, CHECKER,
                                  [(2, 1), (1, 2)], CUBIC, RHOMBIC])
def test_zonotope_matches_oracle_on_fixtures(rows):
    ns = normal_set(rows)
    assert vertices_oracle(dv_zonotope(ns)) == dv_cell_oracle(
        lattice_of_dicing(ns), quadratic_form(ns))


def test_oracle_names_both_dimensions_of_a_mismatched_form():
    with pytest.raises(DimensionMismatch) as info:
        dv_cell_oracle(lattice_of_dicing(normal_set(SQUARE)),
                       quadratic_form(normal_set(CUBIC)))
    assert str(info.value) == "form of dimension 3 on a lattice of dimension 2"


def _rationals(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 4))


def _basis(d):
    return st.lists(st.lists(_rationals(-3, 3), min_size=d, max_size=d),
                    min_size=d, max_size=d).map(RatMatrix)


def _gram(d):
    # C^T C for lower triangular C with diagonal in [1/4, 2]
    entries = st.lists(st.lists(_rationals(-2, 2), min_size=d, max_size=d),
                       min_size=d, max_size=d)
    diagonal = st.lists(_rationals(1, 2), min_size=d, max_size=d)

    def build(rows, diag):
        c = RatMatrix([[diag[i] if i == j else rows[i][j] if j < i else 0
                        for j in range(d)] for i in range(d)])
        return c.transpose() @ c
    return st.builds(build, entries, diagonal)


def _unimodular(d):
    # a signed product of up to three elementary column operations
    ops = st.tuples(st.permutations(range(d)), st.sampled_from([-1, 1]))
    return st.builds(_elementary, st.just(d),
                     st.lists(ops, min_size=1, max_size=3), st.booleans())


def _elementary(d, ops, flip):
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for (src, dst, *_), k in ops:
        for row in u:
            row[dst] += k * row[src]
    if flip:
        u[0] = [-x for x in u[0]]
    return RatMatrix(u)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda d: st.tuples(_basis(d), _gram(d), _unimodular(d))))
def test_oracle_is_independent_of_the_lattice_basis(data):
    b, gram, u = data
    assume(det(b) != 0)
    # The form is a random rational form whose Gram matrix in the basis b
    # is the well-conditioned C^T C, which keeps the enumeration small.
    b_inv = inverse(b)
    q = QuadraticForm(b_inv.transpose() @ gram @ b_inv)
    # at the fixed radius the oracle answers for every basis in d <= 3
    vertices = dv_cell_oracle(LatticeBasis(b), q)
    assert dv_cell_oracle(LatticeBasis(b @ u), q) == vertices
    # Babai's bound, which makes that radius suffice: 4 phi(x) <= 3 M, M
    # the largest phi of a basis vector or a sum of two
    peak = max(q.value(x) for x in vertices)
    for basis in (b, b @ u):
        columns = list(basis.columns())
        m = max(q.value(v) for v in columns + [
            v + w for v, w in itertools.combinations(columns, 2)])
        assert 4 * peak <= 3 * m


def _low_dimensional_corpus():
    with open(bundled_corpus_path(), encoding="utf-8") as handle:
        return [entry["normal_set"] for entry in json.load(handle)
                if entry["normal_set"]["dim"] <= 3
                and "error" not in entry["expected"]]


def test_facet_vectors_are_the_relevant_vectors_on_the_corpus():
    # Voronoi: lam is relevant exactly when +-lam are the only points of
    # least phi in lam + 2 Lambda; coefficients in [-3, 3] hold them here
    docs = _low_dimensional_corpus()
    assert len(docs) == 12
    for doc in docs:
        ns = parse_normal_set(doc)
        q = quadratic_form(ns)
        basis = lattice_of_dicing(ns).basis
        classes = {}
        for c in itertools.product(range(-3, 4), repeat=ns.dimension):
            if any(x % 2 for x in c):
                p = basis @ RatVector(c)
                classes.setdefault(tuple(x % 2 for x in c), []).append(
                    (q.value(p), p))
        relevant = set()
        for points in classes.values():
            least = min(phi for phi, _ in points)
            shortest = [p for phi, p in points if phi == least]
            if len(shortest) == 2:
                relevant.update(shortest)
        vectors = certify_second_voronoi(ns).facet_vectors.vectors
        assert relevant == {v for lam in vectors for v in (lam, -lam)}, doc


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(_low_dimensional_corpus()), st.integers(0, 2**32))
def test_oracle_matches_the_zonotope_under_seeded_weights(doc, seed):
    rng = random.Random(seed)
    ns = NormalSet(doc["dim"], parse_normal_set(doc).normals,
                   tuple(Fraction(rng.randint(1, 60), rng.randint(1, 9))
                         for _ in doc["normals"]))
    vertices = dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))
    assert vertices == vertices_oracle(dv_zonotope(ns))
    assert tuple(vd.vertex for vd in delone_duality_check(ns).entries) == \
        vertices


def _identity_plus_gram(d):
    # C^T C + D for integer C and a diagonal D >= 1, so the form is at
    # least the identity and Phi(c) <= cap forces |c_i| <= isqrt(cap)
    square = st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                      min_size=d, max_size=d)
    diagonal = st.lists(st.integers(1, 3), min_size=d, max_size=d)

    def build(c, diag):
        return [[sum(row[i] * row[j] for row in c) + (diag[i] if i == j else 0)
                 for j in range(d)] for i in range(d)]
    return st.builds(build, square, diagonal)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(_identity_plus_gram), st.data())
def test_short_vectors_match_a_box_enumeration(gram, data):
    d = len(gram)
    cap = data.draw(st.integers(0, max(gram[i][i] for i in range(d)) + 3))
    r = math.isqrt(cap)
    box = {}
    for c in itertools.product(range(-r, r + 1), repeat=d):
        phi = sum(c[i] * gram[i][j] * c[j] for i in range(d) for j in range(d))
        if any(c) and phi <= cap:
            box[c] = phi
    found = _short_vectors(gram, cap)
    assert (0,) * d not in dict(found)
    assert len(found) == len(box)
    assert dict(found) == box


def _leibniz_det(rows):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        term = Fraction(-1) ** sum(
            perm[i] > perm[j]
            for i, j in itertools.combinations(range(len(perm)), 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _symmetric(n):
    # mixed denominators; a diagonal shift makes positive definite
    # matrices as common as indefinite ones
    upper = st.lists(_rationals(-6, 6), min_size=n * (n + 1) // 2,
                     max_size=n * (n + 1) // 2)

    def build(entries, shift):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), e in zip(itertools.combinations_with_replacement(
                range(n), 2), entries):
            rows[i][j] = rows[j][i] = e + (shift if i == j else 0)
        return rows
    return st.builds(build, upper, st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(_symmetric))
def test_form_is_accepted_exactly_when_every_leading_minor_is_positive(rows):
    first_bad = next((k for k in range(1, len(rows) + 1)
                      if _leibniz_det([row[:k] for row in rows[:k]]) <= 0),
                     None)
    if first_bad is None:
        assert QuadraticForm(RatMatrix(rows)).matrix == RatMatrix(rows)
    else:
        with pytest.raises(NotPositiveDefinite) as info:
            QuadraticForm(RatMatrix(rows))
        assert str(info.value) == \
            f"leading principal minor of order {first_bad} is not positive"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.lists(_rationals(-3, 3), min_size=d, max_size=d), max_size=4),
    st.lists(_rationals(1, 5), min_size=d + 4, max_size=d + 4))))
def test_form_is_the_weighted_sum_of_rank_one_forms(data):
    # the unit normals span; extra normals parallel to another are skipped
    d, extra, weights = data
    rows = [[int(i == j) for j in range(d)] for i in range(d)] + extra
    try:
        ns = normal_set(rows, weights[:len(rows)])
    except InvalidNormalSet:
        assume(False)
    expected = [[Fraction(0)] * d for _ in range(d)]
    for v, w in zip(ns.normals, ns.weights):
        for i in range(d):
            for j in range(d):
                expected[i][j] += w * v[i] * v[j]
    assert quadratic_form(ns).matrix == RatMatrix(expected)


# ---------------------------------------------------------------------------
# facet vectors and the edge matching


def test_facet_vectors_of_square_grid():
    fv = facet_vectors(normal_set(SQUARE))
    assert set(fv.vectors) == {vec(1, 0), vec(0, 1)}


def test_facet_vectors_of_hexagonal_fixture():
    ns = normal_set(HEXAGONAL)
    fv = facet_vectors(ns)
    q = quadratic_form(ns)
    assert set(fv.vectors) == {vec(1, 0), vec(0, 1), vec(1, -1)}
    assert all(q.value(v) == 2 for v in fv.vectors)


def test_facet_vectors_of_rhombic_fixture():
    fv = facet_vectors(normal_set(RHOMBIC))
    assert set(fv.vectors) == {vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1),
                               vec(0, 1, -1), vec(1, 0, -1), vec(1, -1, 0)}


@pytest.mark.parametrize("rows", [SQUARE, HEXAGONAL, CHECKER, CUBIC, RHOMBIC,
                                  FIVE_FAMILY])
def test_facet_vectors_lie_in_the_lattice_and_bisect(rows):
    ns = normal_set(rows)
    fv = facet_vectors(ns)
    q = quadratic_form(ns)
    lat = lattice_of_dicing(ns)
    facet_list = facets(dv_zonotope(ns))
    assert len(fv.vectors) == len(facet_list)
    for lam, f in zip(fv.vectors, facet_list):
        assert lattice_contains(lat, lam)
        image = q.matrix @ lam
        assert image.dot(f.center) == q.value(lam) / 2
        assert f.normal.dot(lam) != 0
        scaled = [image.entries[i] * f.normal.entries[j] -
                  image.entries[j] * f.normal.entries[i]
                  for i in range(ns.dimension) for j in range(i)]
        assert all(x == 0 for x in scaled)


def _square_facet_data():
    # the unit square: the form and the lattice are the identity, and the
    # facet with normal (1, 0) has support 1/2 and centre (1/2, 0)
    ns = normal_set(SQUARE)
    f = next(f for f in facets(dv_zonotope(ns)) if f.normal == vec(1, 0))
    assert (f.support, f.center) == (Fraction(1, 2), vec("1/2", 0))
    return quadratic_form(ns), lattice_of_dicing(ns), f


def test_a_facet_off_the_bisector_is_refused():
    q, lat, f = _square_facet_data()
    wrong = dataclasses.replace(f, support=Fraction(1))
    with pytest.raises(NotInLattice, match="^facet with normal .* is not a "
                                           "point bisector$"):
        _facet_vectors_from(q, lat, (wrong,))


def test_a_facet_vector_off_the_lattice_is_refused():
    q, _, f = _square_facet_data()
    coarse = LatticeBasis(mat([[2, 0], [0, 2]]))
    assert _facet_vectors_from(q, LatticeBasis(mat(SQUARE)), (f,)).vectors \
        == (vec(1, 0),)
    with pytest.raises(NotInLattice, match=r"^facet vector \(Fraction\(1, 1\), "
                                           r"Fraction\(0, 1\)\) is not a "
                                           "lattice point$"):
        _facet_vectors_from(q, coarse, (f,))


def test_matching_on_hexagonal_fixture():
    ns = normal_set(HEXAGONAL)
    es = compute_edge_set(ns)
    bij = check_n_equals_e(facet_vectors(ns), es)
    assert len(bij) == 3
    assert [edge for edge, _, _ in bij] == [0, 1, 2]


def test_matching_on_standard_grids():
    for rows in (SQUARE, CUBIC):
        ns = normal_set(rows)
        bij = check_n_equals_e(facet_vectors(ns), compute_edge_set(ns))
        assert len(bij) == len(rows)


def test_matching_rejects_corrupted_edge_set():
    ns = normal_set(HEXAGONAL)
    fv = facet_vectors(ns)
    corrupt = EdgeSet(2, (vec(0, 1), vec(1, 0), vec(1, 1)),
                      ((0,), (1,), (2,)))
    with pytest.raises(Mismatch) as info:
        check_n_equals_e(fv, corrupt)
    assert vec(1, 1) in info.value.missing
    assert vec(1, -1) in info.value.extra
    # a zero facet vector matches no edge: it is reported, not raised on
    with pytest.raises(Mismatch) as info:
        check_n_equals_e(FacetVectorSet((vec(0, 0),) + fv.vectors[1:]),
                         compute_edge_set(ns))
    assert info.value.extra == (vec(0, 0),)


def test_matching_is_up_to_sign_for_negative_led_edges():
    ns = normal_set(SQUARE)
    fv = facet_vectors(ns)
    edges = EdgeSet(2, [vec(-1, 0), vec(0, 1)], [(1,), (0,)])
    bij = check_n_equals_e(fv, edges)
    assert bij == ((0, 1, -1), (1, 0, 1))
    for i, j, sign in bij:
        assert edges.edges[i] == fv.vectors[j].scale(sign)


# ---------------------------------------------------------------------------
# basis extraction


def test_basis_of_hexagonal_fixture():
    ns = normal_set(HEXAGONAL)
    es = compute_edge_set(ns)
    fv = facet_vectors(ns)
    bij = check_n_equals_e(fv, es)
    lat = lattice_of_dicing(ns)
    indices, determinant = extract_basis(ns, es, fv, bij, lat)
    assert {fv.vectors[i] for i in indices} == {vec(1, 0), vec(0, 1)}
    assert determinant == 1


def test_basis_of_rhombic_fixture():
    ns = normal_set(RHOMBIC)
    es = compute_edge_set(ns)
    fv = facet_vectors(ns)
    indices, determinant = extract_basis(
        ns, es, fv, check_n_equals_e(fv, es), lattice_of_dicing(ns))
    assert {fv.vectors[i] for i in indices} == {vec(1, 0, 0), vec(0, 1, 0),
                                                vec(0, 0, 1)}
    assert determinant == 1


# on the square normals e1, e2 the edges e2, e1 match facet vectors 1, 0
SQUARE_EDGES = EdgeSet(2, [vec(0, 1), vec(1, 0)], [(0,), (1,)])
SQUARE_BIJECTION = ((0, 1, 1), (1, 0, 1))


@pytest.mark.parametrize("es, vectors, bijection, lattice, message", [
    (EdgeSet(2, [vec(1, 1)], [(0,)]), [(1, 1)], ((0, 0, 1),), [[1, 0], [0, 1]],
     "no edge is dual to basis normal 0"),
    (SQUARE_EDGES, [(2, 0), (0, 1)], SQUARE_BIJECTION, [[1, 0], [0, 1]],
     "facet vector 0 pairs 2 with basis normal 0"),
    (SQUARE_EDGES, [(1, 1), (1, 1)], SQUARE_BIJECTION, [[1, 0], [0, 1]],
     "selected facet vectors are dependent: matrix is singular"),
    (SQUARE_EDGES, [(1, 0), (0, 1), ("1/2", 0)], SQUARE_BIJECTION,
     [[1, 0], [0, 1]], "facet vector 2 is fractional in the extracted basis"),
    (SQUARE_EDGES, [(1, 0), (0, 1)], SQUARE_BIJECTION, [[2, 0], [0, 1]],
     "extracted basis has determinant 1/2 in lattice coordinates"),
])
def test_basis_extraction_names_the_failed_check(es, vectors, bijection,
                                                 lattice, message):
    fv = FacetVectorSet(tuple(vec(*v) for v in vectors))
    with pytest.raises(BasisCheckFailed) as info:
        extract_basis(normal_set(SQUARE), es, fv, bijection,
                      LatticeBasis(mat(lattice)))
    assert str(info.value) == message


def test_basis_of_checker_fixture_is_negatively_oriented():
    cert = certify_second_voronoi(normal_set(CHECKER))
    assert cert.lattice_coordinate_det == -1


# ---------------------------------------------------------------------------
# Delone duality


def test_duality_hexagonal_vertex():
    report = delone_duality_check(normal_set(HEXAGONAL))
    target = {vd.vertex: vd for vd in report.entries}[vec("2/3", "-1/3")]
    assert target.radius == Fraction(2, 3)
    assert set(target.equidistant) == {vec(0, 0), vec(1, 0), vec(1, -1)}


def test_duality_square_vertex():
    report = delone_duality_check(normal_set(SQUARE))
    target = {vd.vertex: vd for vd in report.entries}[vec("1/2", "1/2")]
    assert target.radius == Fraction(1, 2)
    assert set(target.equidistant) == {vec(0, 0), vec(1, 0), vec(0, 1),
                                       vec(1, 1)}


def test_duality_cube_vertex():
    report = delone_duality_check(normal_set(CUBIC))
    half = Fraction(1, 2)
    target = {vd.vertex: vd for vd in report.entries}[vec(half, half, half)]
    assert len(target.equidistant) == 8


def _duality_check_with_one_vertex(monkeypatch, *points):
    # the square grid, its cell oracle replaced by one vertex with the
    # given equidistant points
    cell = VertexDuality(vec("1/2", "1/2"), tuple(vec(*p) for p in points),
                         Fraction(1, 2))
    monkeypatch.setattr(parallelohedron, "_cell_data", lambda lat, q: [cell])
    return delone_duality_check(normal_set(SQUARE))


def test_duality_refuses_equidistant_points_that_do_not_span(monkeypatch):
    with pytest.raises(DualityViolation, match=r"^equidistant set of vertex "
                       r"\(Fraction\(1, 2\), Fraction\(1, 2\)\) does not "
                       "affinely span$"):
        _duality_check_with_one_vertex(monkeypatch, (0, 0), (1, 0), (2, 0))


def test_duality_refuses_an_equidistant_point_off_a_family(monkeypatch):
    with pytest.raises(DualityViolation, match=r"^equidistant point "
                       r"\(Fraction\(1, 2\), Fraction\(0, 1\)\) misses "
                       "family 0$"):
        _duality_check_with_one_vertex(monkeypatch, (0, 0), ("1/2", 0), (0, 1))


@pytest.mark.parametrize("rows, weights", [
    (CHECKER, None), (HEXAGONAL, [1, 2, 3]), (FIVE_FAMILY, [1, 2, 3, 4, 5])])
def test_duality_records_match_a_box_search(rows, weights):
    # CHECKER has a half-integer lattice; the weights give vertices of
    # different radii
    ns = normal_set(rows, weights)
    q = quadratic_form(ns)
    basis = lattice_of_dicing(ns).basis
    box = [basis @ RatVector(c)
           for c in itertools.product(range(-3, 4), repeat=ns.dimension)]
    for vd in delone_duality_check(ns).entries:
        assert vd.radius == q.value(vd.vertex)
        assert min(q.value(vd.vertex - p) for p in box) == vd.radius
        ties = [p for p in box if q.value(vd.vertex - p) == vd.radius]
        assert vd.equidistant == tuple(sorted(ties, key=lambda p: p.entries))


@pytest.mark.parametrize("rows", [SQUARE, HEXAGONAL, CHECKER, CUBIC, RHOMBIC,
                                  FIVE_FAMILY])
def test_duality_families_pass_through_equidistant_points(rows):
    ns = normal_set(rows)
    report = delone_duality_check(ns)
    for vd in report.entries:
        assert len(vd.equidistant) >= ns.dimension + 1
        for p in vd.equidistant:
            assert all(n.dot(p).denominator == 1 for n in ns.normals)


# ---------------------------------------------------------------------------
# certification and independent verification


def test_certificate_of_hexagonal_fixture():
    cert = certify_second_voronoi(normal_set(HEXAGONAL))
    assert len(cert.edge_set.edges) == 3
    assert len(cert.facet_vectors.vectors) == 3
    assert cert.lattice_coordinate_det == 1
    assert len(cert.basis_indices) == 2


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_certificates_of_standard_grids(d):
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    cert = certify_second_voronoi(normal_set(rows))
    assert len(cert.edge_set.edges) == d
    assert cert.lattice_coordinate_det == 1


def test_certification_fails_on_non_dicing_at_the_edge_stage():
    with pytest.raises(CertificationError) as info:
        certify_second_voronoi(normal_set(NON_DICING))
    assert info.value.stage == "edge-set"
    assert isinstance(info.value.cause, NotADicing)


def _connected(vertices, edges) -> bool:
    """Whether a nonempty vertex set induces a connected subgraph."""
    start = min(vertices)
    reached, todo = {start}, [start]
    while todo:
        u = todo.pop()
        for a, b in edges:
            v = b if a == u else a if b == u else None
            if v in vertices and v not in reached:
                reached.add(v)
                todo.append(v)
    return reached == set(vertices)


def _connected_partitions(n, edges, blocks) -> int:
    """Partitions of the vertices 0..n-1 into the given number of blocks,
    each inducing a connected subgraph, by brute force over labelings."""
    found = set()
    for labels in itertools.product(range(blocks), repeat=n):
        parts = [frozenset(v for v in range(n) if labels[v] == b)
                 for b in range(blocks)]
        if all(parts) and all(_connected(p, edges) for p in parts):
            found.add(frozenset(parts))
    return len(found)


@st.composite
def graphic_dicings(draw):
    """A random connected simple graph on at most 6 vertices (a random
    spanning tree plus extra edges), with positive weights per edge."""
    n = draw(st.integers(2, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [p for p in itertools.combinations(range(n), 2) if p not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    edges = sorted(tree + extra)
    weights = draw(st.lists(st.integers(1, 3), min_size=len(edges),
                            max_size=len(edges)))
    return n, edges, weights


def graphic_normals(n, edges):
    """Normals e_i - e_j per graph edge, with vertex 0 at the origin."""
    def unit(v):
        return [int(v > 0 and k == v - 1) for k in range(n - 1)]
    return [[a - b for a, b in zip(unit(i), unit(j))] for i, j in edges]


@settings(max_examples=20, deadline=None)
@given(graphic_dicings())
def test_graphic_dicing_counts_match_the_graph(data):
    # In the graphic matroid a rank n-1-r flat is a partition of the
    # vertices into r+1 connected blocks: facets and edges are bonds,
    # ridge flats are partitions into 3 connected blocks.
    n, edges, weights = data
    cert = certify_second_voronoi(normal_set(graphic_normals(n, edges), weights))
    assert verify_certificate(cert).ok
    bonds = _connected_partitions(n, edges, 2)
    assert len(cert.edge_set.edges) == len(cert.facet_vectors.vectors) == bonds
    if n >= 3:
        assert len(ridge_classification(cert.zonotope)) == \
            _connected_partitions(n, edges, 3)


def test_graphic_count_oracle_on_small_graphs():
    # K4: 7 bonds, 6 partitions into 3 blocks; the 4-cycle: 6 bonds
    k4 = list(itertools.combinations(range(4), 2))
    assert _connected_partitions(4, k4, 2) == 7
    assert _connected_partitions(4, k4, 3) == 6
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert _connected_partitions(4, cycle, 2) == 6
    cert = certify_second_voronoi(normal_set(graphic_normals(4, k4)))
    assert len(cert.edge_set.edges) == 7


def _nullity(edges) -> int:
    """Edge count minus the rank of the edges in the graphic matroid: the
    number of independent cycles, by union-find."""
    root = {}

    def find(v):
        while root.get(v, v) != v:
            v = root[v]
        return v

    rank = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            rank += 1
    return len(edges) - rank


def _bridgeless_subsets(edges, nullity) -> int:
    """Edge subsets of the given nullity in which every edge lies on a
    cycle (dropping it lowers the nullity), by brute force over subsets."""
    found = 0
    for k in range(len(edges) + 1):
        for sub in itertools.combinations(edges, k):
            if _nullity(sub) == nullity and all(
                    _nullity(sub[:i] + sub[i + 1:]) == nullity - 1
                    for i in range(k)):
                found += 1
    return found


def cographic_normals(n, edges):
    """One normal per graph edge: its column of the signed fundamental-cycle
    matrix of a breadth-first spanning tree from vertex 0, one row per
    edge off the tree, so d = m - n + 1."""
    # up[v]: tree edge index -> +1 or -1, walking from v up to vertex 0
    # along or against the edge's orientation
    up = {0: {}}
    tree = set()
    todo = [0]
    while todo:
        u = todo.pop(0)
        for k, (a, b) in enumerate(edges):
            v = b if a == u else a if b == u else None
            if v is not None and v not in up:
                up[v] = {**up[u], k: 1 if a == v else -1}
                tree.add(k)
                todo.append(v)
    rows = []
    for f, (a, b) in enumerate(edges):
        if f in tree:
            continue
        # the cycle runs a -> b along f, then b up the tree and down to a
        row = [up[b].get(k, 0) - up[a].get(k, 0) for k in range(len(edges))]
        row[f] = 1
        rows.append(row)
    return [list(col) for col in zip(*rows)]


K5_GRAPH = list(itertools.combinations(range(5), 2))
# bridgeless, minimum degree 3 and no two edges in series, so no two
# normals are parallel
COGRAPHIC_GRAPHS = {
    "K4": (4, list(itertools.combinations(range(4), 2))),
    "K3,3": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 3), (1, 4), (2, 5)]),
    "W4": (5, [(1, 2), (2, 3), (3, 4), (1, 4)] + [(0, i) for i in range(1, 5)]),
    "K5-e": (5, K5_GRAPH[1:]),
    "K5": (5, K5_GRAPH),
}


@st.composite
def cographic_dicings(draw):
    """One of the fixed graphs, with positive weights per edge."""
    name = draw(st.sampled_from(sorted(COGRAPHIC_GRAPHS)))
    n, edges = COGRAPHIC_GRAPHS[name]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(edges),
                            max_size=len(edges)))
    return n, edges, weights


@settings(max_examples=12, deadline=None)
@given(cographic_dicings())
def test_cographic_dicing_counts_match_the_graph(data):
    # The normals realize the bond matroid M*(G).  Its hyperplanes are the
    # complements of the cycles of G, so edges and facets are cycles; its
    # rank d-2 flats are the complements of the bridgeless edge subsets of
    # nullity 2.
    n, edges, weights = data
    normals = cographic_normals(n, edges)
    assert len(normals[0]) == len(edges) - n + 1
    cert = certify_second_voronoi(normal_set(normals, weights))
    assert verify_certificate(cert).ok
    cycles = _bridgeless_subsets(edges, 1)
    assert len(cert.edge_set.edges) == len(cert.facet_vectors.vectors) == cycles
    assert len(ridge_classification(cert.zonotope)) == \
        _bridgeless_subsets(edges, 2)


@pytest.mark.parametrize("name, cycles, ridges", [
    ("K4", 7, 6), ("K3,3", 15, 24), ("prism", 14, 22), ("W4", 13, 20),
    ("K5-e", 22, 49), ("K5", 37, 115)])
def test_cographic_counts_on_the_fixed_graphs(name, cycles, ridges):
    n, edges = COGRAPHIC_GRAPHS[name]
    assert _bridgeless_subsets(edges, 1) == cycles
    assert _bridgeless_subsets(edges, 2) == ridges
    cert = certify_second_voronoi(normal_set(cographic_normals(n, edges)))
    assert len(cert.edge_set.edges) == cycles
    assert len(ridge_classification(cert.zonotope)) == ridges


@pytest.mark.parametrize("rows", [SQUARE, HEXAGONAL, CHECKER, CUBIC, RHOMBIC,
                                  FIVE_FAMILY])
def test_verifier_accepts_fresh_certificates(rows):
    audit = verify_certificate(certify_second_voronoi(normal_set(rows)))
    assert audit.ok
    assert audit.failures == ()


def test_verifier_flags_tampered_determinant():
    cert = certify_second_voronoi(normal_set(HEXAGONAL))
    bad = dataclasses.replace(cert, lattice_coordinate_det=Fraction(2))
    audit = verify_certificate(bad)
    assert not audit.ok
    assert any("det" in failure for failure in audit.failures)


def test_verifier_flags_tampered_facet_vector():
    cert = certify_second_voronoi(normal_set(HEXAGONAL))
    vectors = (vec(5, 5),) + cert.facet_vectors.vectors[1:]
    bad = dataclasses.replace(
        cert, facet_vectors=dataclasses.replace(cert.facet_vectors,
                                                vectors=vectors))
    assert not verify_certificate(bad).ok


def test_verifier_flags_tampered_bijection_sign():
    cert = certify_second_voronoi(normal_set(HEXAGONAL))
    edge, vector, sign = cert.ne_bijection[0]
    bad = dataclasses.replace(
        cert, ne_bijection=((edge, vector, -sign),) + cert.ne_bijection[1:])
    assert not verify_certificate(bad).ok


def test_verifier_flags_tampered_generators():
    cert = certify_second_voronoi(normal_set(HEXAGONAL))
    bad = dataclasses.replace(cert, zonotope=dv_zonotope(normal_set(SQUARE)))
    assert not verify_certificate(bad).ok


def _with_vectors(cert, vectors):
    return dataclasses.replace(cert, facet_vectors=FacetVectorSet(vectors))


def _drop_facet_vector(cert):
    return (_with_vectors(cert, cert.facet_vectors.vectors[:-1]),
            "edge and facet vector counts differ")


def _drop_matched_pair(cert):
    return (dataclasses.replace(cert, ne_bijection=cert.ne_bijection[:-1]),
            "ne_bijection is not a complete matching")


def _double_edge(cert):
    es = cert.edge_set
    doubled = es.edges[0].scale(2)
    edge_set = dataclasses.replace(es, edges=(doubled,) + es.edges[1:])
    return (dataclasses.replace(cert, edge_set=edge_set),
            f"edge {doubled.entries} pairs 2 with a normal")


def _double_lattice(cert):
    lattice = LatticeBasis(cert.lattice.basis.scale(2))
    return (dataclasses.replace(cert, lattice=lattice),
            "stored lattice is not the dicing lattice")


def _halve_facet_vector(cert):
    first, *rest = cert.facet_vectors.vectors
    half = first.scale(Fraction(1, 2))
    return (_with_vectors(cert, (half, *rest)),
            f"facet vector {half.entries} is outside the lattice")


def _add_spurious_pair(cert):
    # (1, 1) is a lattice point pairing 1 with both normals, but no facet
    # of the unit square lies on its bisector
    spurious = vec(1, 1)
    es, k = cert.edge_set, len(cert.edge_set.edges)
    edge_set = dataclasses.replace(es, edges=es.edges + (spurious,),
                                   provenance=es.provenance + ((0,),))
    return (dataclasses.replace(
        _with_vectors(cert, cert.facet_vectors.vectors + (spurious,)),
        edge_set=edge_set, ne_bijection=cert.ne_bijection + ((k, k, 1),)),
        f"facet vector {spurious.entries} bisects no facet")


def _repeat_basis_index(cert):
    return (dataclasses.replace(cert, basis_indices=(0, 0)),
            "basis_indices is not a set of d facet vector indices")


def _dependent_basis(cert):
    # (0, 1, 0), (1, 0, 0) and (1, -1, 0) are facet vectors in one plane
    indices = tuple(cert.facet_vectors.vectors.index(vec(*v))
                    for v in [(0, 1, 0), (1, 0, 0), (1, -1, 0)])
    return (dataclasses.replace(cert, basis_indices=indices),
            "stored basis vectors are linearly dependent")


def _with_provenance(cert, provenance):
    edge_set = dataclasses.replace(cert.edge_set, provenance=provenance)
    return dataclasses.replace(cert, edge_set=edge_set)


def _forge_provenance(cert):
    # no normal has index -5 or 7, and edge 2 does not lie on normal 0
    return (_with_provenance(cert, ((-5,), (7, 7, 7), (0,))),
            "provenance (-5,) of edge 0 names no normal")


def _swap_provenance(cert):
    first, second, *rest = cert.edge_set.provenance
    return (_with_provenance(cert, (second, first, *rest)),
            f"provenance {second} of edge 0 holds a normal that pairs "
            "nonzero with it")


def _repeat_provenance_index(cert):
    (i, _), *rest = cert.edge_set.provenance
    return (_with_provenance(cert, ((i, i), *rest)),
            f"provenance {(i, i)} of edge 0 does not have rank 2")


def _lift_facet_vector(cert):
    first, *rest = cert.facet_vectors.vectors
    return (_with_vectors(cert, (vec(*first, 0), *rest)),
            "facet vector 0 has dimension 3, expected 2")


def _lift_lattice(cert):
    return (dataclasses.replace(cert, lattice=lattice_of_dicing(
        normal_set(CUBIC))), "lattice basis vector 0 has dimension 3, expected 2")


def _lift_zonotope(cert):
    return (dataclasses.replace(cert, zonotope=dv_zonotope(normal_set(CUBIC))),
            "generator 0 has dimension 3, expected 2")


def _lift_edge_set(cert):
    return (dataclasses.replace(cert, edge_set=compute_edge_set(
        normal_set(CUBIC))), "edge 0 has dimension 3, expected 2")


def _negate_det(cert):
    # checker-2d stores -1; +1 has the right size and the wrong sign
    return (dataclasses.replace(
        cert, lattice_coordinate_det=-cert.lattice_coordinate_det),
        "stored determinant disagrees with the basis")


def _reverse_basis_indices(cert):
    # the k-th stored vector must pair +-1 with the k-th first basis normal
    first, second, third = cert.basis_indices
    return (dataclasses.replace(cert, basis_indices=(third, second, first)),
            f"facet vector {third} pairs 0 with basis normal 0")


@pytest.mark.parametrize("rows, forge", [
    (HEXAGONAL, _drop_facet_vector), (HEXAGONAL, _drop_matched_pair),
    (HEXAGONAL, _double_edge), (HEXAGONAL, _double_lattice),
    (HEXAGONAL, _halve_facet_vector), (HEXAGONAL, _repeat_basis_index),
    (RHOMBIC, _dependent_basis), (SQUARE, _add_spurious_pair),
    (HEXAGONAL, _forge_provenance), (HEXAGONAL, _swap_provenance),
    (RHOMBIC, _repeat_provenance_index), (HEXAGONAL, _lift_facet_vector),
    (HEXAGONAL, _lift_lattice), (HEXAGONAL, _lift_zonotope),
    (HEXAGONAL, _lift_edge_set), (CHECKER, _negate_det),
    (RHOMBIC, _reverse_basis_indices)])
def test_verifier_names_each_forged_invariant(rows, forge):
    bad, message = forge(certify_second_voronoi(normal_set(rows)))
    audit = verify_certificate(bad)
    assert not audit.ok
    assert not audit, "a failed audit must be falsy"
    assert message in audit.failures


def test_verifier_names_every_edge_with_a_forged_provenance():
    bad, _ = _forge_provenance(certify_second_voronoi(normal_set(HEXAGONAL)))
    assert [f for f in verify_certificate(bad).failures
            if f.startswith("provenance")] == [
        "provenance (-5,) of edge 0 names no normal",
        "provenance (7, 7, 7) of edge 1 names no normal",
        "provenance (0,) of edge 2 holds a normal that pairs nonzero with it"]


# ---------------------------------------------------------------------------
# metamorphic properties


def test_weight_rescaling_leaves_certificate_data():
    rng = random.Random(11)
    ns = normal_set(HEXAGONAL)
    base = certify_second_voronoi(ns)
    for _ in range(10):
        c = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        scaled = normal_set(HEXAGONAL, weights=[c, c, c])
        cert = certify_second_voronoi(scaled)
        assert cert.edge_set == base.edge_set
        assert cert.facet_vectors.vectors == base.facet_vectors.vectors
        assert cert.basis_indices == base.basis_indices
        assert cert.lattice_coordinate_det == base.lattice_coordinate_det
        assert quadratic_form(scaled).matrix == quadratic_form(ns).matrix.scale(c)
        assert zone_vectors(scaled) == zone_vectors(ns)


def test_cell_is_a_parallelohedron_for_fixtures():
    for rows in (SQUARE, HEXAGONAL, CHECKER, CUBIC, RHOMBIC, FIVE_FAMILY):
        assert venkov_check(dv_zonotope(normal_set(rows))).holds
