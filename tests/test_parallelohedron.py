"""The certification pipeline: form, zone vectors, cell, facet vectors."""

import dataclasses
import random
from fractions import Fraction

import pytest

from zonocert import (EdgeSet, QuadraticForm, RatVector, certify_second_voronoi,
                      check_n_equals_e, compute_edge_set, delone_duality_check,
                      dv_cell_oracle, dv_zonotope, extract_basis, facet_vectors,
                      facets, hnf_lattice_basis, lattice_contains,
                      lattice_of_dicing, quadratic_form, vertices_oracle,
                      venkov_check, verify_certificate, zone_vectors)
from zonocert.errors import (BasisCheckFailed, CertificationError,
                             DimensionTooLarge, EnumerationInsufficient,
                             Mismatch, NotADicing, NotPositiveDefinite)

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
    with pytest.raises(NotPositiveDefinite):
        QuadraticForm(mat([[1, 2], [2, 1]]))
    with pytest.raises(NotPositiveDefinite):
        QuadraticForm(mat([[0, 0], [0, 1]]))


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
