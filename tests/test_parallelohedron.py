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
                      vertices_oracle, venkov_check, verify_certificate,
                      zone_vectors)
from zonocert.cli import bundled_corpus_path
from zonocert.errors import (BasisCheckFailed, CertificationError,
                             DimensionMismatch, DimensionTooLarge,
                             EnumerationInsufficient, Mismatch, NotADicing,
                             NotPositiveDefinite)
from zonocert.jsonio import parse_normal_set
from zonocert.parallelohedron import _short_vectors

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
    # each case names the first leading principal minor that is not positive
    for rows, order in (([[1, 2], [2, 1]], 2), ([[0, 0], [0, 1]], 1),
                        ([[1, 0, 1], [0, 1, 1], [1, 1, 1]], 3)):
        with pytest.raises(NotPositiveDefinite) as info:
            QuadraticForm(mat(rows))
        assert str(info.value) == \
            f"leading principal minor of order {order} is not positive"


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


def test_oracle_refuses_radius_that_cannot_span():
    ns = normal_set(HEXAGONAL)
    with pytest.raises(EnumerationInsufficient):
        dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns),
                       Fraction(1, 1000))


def test_oracle_refuses_unprovable_completeness():
    # A radius of a third of the default covers exactly the right
    # constraints here, but not the certification ball, so the oracle
    # must decline rather than return the (correct) answer.
    ns = normal_set(HEXAGONAL)
    with pytest.raises(EnumerationInsufficient):
        dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns),
                       Fraction(1, 3))


def test_oracle_dimension_cap():
    ns = normal_set([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(DimensionTooLarge):
        dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))


@pytest.mark.parametrize("rows", [SQUARE, HEXAGONAL, CHECKER,
                                  [(2, 1), (1, 2)], CUBIC, RHOMBIC])
def test_zonotope_matches_oracle_on_fixtures(rows):
    ns = normal_set(rows)
    assert vertices_oracle(dv_zonotope(ns)) == dv_cell_oracle(
        lattice_of_dicing(ns), quadratic_form(ns))


def test_oracle_rejects_float_and_string_multipliers():
    ns = normal_set(HEXAGONAL)
    lat, q = lattice_of_dicing(ns), quadratic_form(ns)
    for bad in (0.5, 4.0, "4"):
        with pytest.raises(TypeError):
            dv_cell_oracle(lat, q, bad)
        with pytest.raises(TypeError):
            delone_duality_check(ns, bad)
    assert dv_cell_oracle(lat, q, 4) == dv_cell_oracle(lat, q)


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
    # at the default multiplier the oracle answers for every basis in d <= 3
    assert dv_cell_oracle(LatticeBasis(b @ u), q) == \
        dv_cell_oracle(LatticeBasis(b), q)


def _low_dimensional_corpus():
    with open(bundled_corpus_path(), encoding="utf-8") as handle:
        return [entry["normal_set"] for entry in json.load(handle)
                if entry["normal_set"]["dim"] <= 3
                and "error" not in entry["expected"]]


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


def _repeat_basis_index(cert):
    return (dataclasses.replace(cert, basis_indices=(0, 0)),
            "basis_indices is not a set of d facet vector indices")


def _dependent_basis(cert):
    # (0, 1, 0), (1, 0, 0) and (1, -1, 0) are facet vectors in one plane
    indices = tuple(cert.facet_vectors.vectors.index(vec(*v))
                    for v in [(0, 1, 0), (1, 0, 0), (1, -1, 0)])
    return (dataclasses.replace(cert, basis_indices=indices),
            "stored basis vectors are linearly dependent")


@pytest.mark.parametrize("rows, forge", [
    (HEXAGONAL, _drop_facet_vector), (HEXAGONAL, _drop_matched_pair),
    (HEXAGONAL, _double_edge), (HEXAGONAL, _double_lattice),
    (HEXAGONAL, _halve_facet_vector), (HEXAGONAL, _repeat_basis_index),
    (RHOMBIC, _dependent_basis)])
def test_verifier_names_each_forged_invariant(rows, forge):
    bad, message = forge(certify_second_voronoi(normal_set(rows)))
    audit = verify_certificate(bad)
    assert not audit.ok
    assert message in audit.failures


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
