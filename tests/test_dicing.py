"""Normal sets, edge sets, lattices, and the unimodular representation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonocert import (EdgeSet, NormalSet, RatMatrix, Zonotope,
                      compute_edge_set, det, first_basis_indices,
                      hnf_lattice_basis, inverse, is_totally_unimodular,
                      lattice_of_dicing, rank, same_lattice,
                      unimodular_representation)
from zonocert import ratgeom
from zonocert.errors import (DegenerateSpan, InvalidNormalSet, InvalidZonotope,
                             NonIntegerEntries, NotADicing, NotSquare,
                             RepresentationCheckFailed, Singular)

from conftest import (CHECKER, CUBIC, FIVE_FAMILY, HEXAGONAL, NON_DICING,
                      RHOMBIC, SQUARE, entries, mat, normal_set, vec)
from oracles import apply_affine

# the cographic dicing of K3,3: 9 normals in dimension 4, 15 edge lines
COGRAPHIC_K33 = [(1, 1, 1, 1), (-1, 0, -1, 0), (0, -1, 0, -1), (-1, -1, 0, 0),
                 (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, -1), (0, 0, 1, 0),
                 (0, 0, 0, 1)]

DICING_FIXTURES = [SQUARE, HEXAGONAL, CHECKER, [(2, 1), (1, 2)], CUBIC,
                   RHOMBIC, FIVE_FAMILY, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]]


# ---------------------------------------------------------------------------
# construction guards


def test_normal_set_rejects_zero_vector():
    with pytest.raises(InvalidNormalSet):
        normal_set([(1, 0), (0, 0)])


def test_normal_set_rejects_parallel_pair():
    with pytest.raises(InvalidNormalSet):
        normal_set([(1, 0), (0, 1), (-2, 0)])


def test_normal_set_rejects_deficient_span():
    with pytest.raises(InvalidNormalSet):
        normal_set([(1, 1, 0), (2, 1, 0), (1, 2, 0)])


def test_normal_set_rejects_nonpositive_weight():
    with pytest.raises(InvalidNormalSet):
        normal_set(SQUARE, weights=[1, 0])
    with pytest.raises(InvalidNormalSet):
        normal_set(SQUARE, weights=[1, -2])


def test_normal_set_rejects_dimension_mismatch():
    with pytest.raises(InvalidNormalSet):
        NormalSet(3, (vec(1, 0), vec(0, 1)), (Fraction(1), Fraction(1)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: NormalSet(0, (), ()), InvalidNormalSet,
     "dimension must be at least 1"),
    (lambda: EdgeSet(2, (vec(1, 0),), ()), ValueError,
     "one provenance subset per edge required"),
    (lambda: RatMatrix.from_columns([]), ValueError, "no columns"),
    (lambda: inverse(mat([[1, 0, 0], [0, 1, 0]])), NotSquare,
     "inverse of a 2x3 matrix"),
    (lambda: hnf_lattice_basis([]), DegenerateSpan, "no generators"),
    (lambda: hnf_lattice_basis([vec(1, 0), vec(1)]), ValueError,
     "generators of mixed dimension"),
    (lambda: Zonotope(2, (vec(1, 0), vec(0, 1, 0))), InvalidZonotope,
     "generator 1 has dimension 3, expected 2")],
    ids=["normal-set-dimension", "edge-provenance-count", "no-columns",
         "inverse-not-square", "hnf-no-generators", "hnf-mixed-dimension",
         "zonotope-generator-dimension"])
def test_constructors_refuse_malformed_shapes(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_normal_set_takes_int_and_fraction_weights_only():
    normals = (vec(1, 0), vec(0, 1))
    assert NormalSet(2, normals, (2, Fraction(1, 3))).weights == \
        (Fraction(2), Fraction(1, 3))
    for bad in (0.1, 1.0, "1/3", "2"):
        with pytest.raises(TypeError):
            NormalSet(2, normals, (1, bad))


@pytest.mark.parametrize("bad", [2.7, 2.0, "2", True])
def test_normal_set_dimension_must_be_an_int(bad):
    with pytest.raises(TypeError):
        NormalSet(bad, (vec(1, 0), vec(0, 1)), (1, 1))


@pytest.mark.parametrize("bad", [2.0, "2", True])
def test_edge_set_dimension_must_be_an_int(bad):
    with pytest.raises(TypeError):
        EdgeSet(bad, (vec(1, 0),), ((0,),))


@pytest.mark.parametrize("bad", [0.9, "0", False])
def test_edge_set_provenance_indices_must_be_ints(bad):
    with pytest.raises(TypeError):
        EdgeSet(2, (vec(1, 0),), ((bad,),))
    assert EdgeSet(2, (vec(1, 0),), ((1,),)).provenance == ((1,),)


def test_edge_set_refuses_an_edge_of_another_dimension():
    # such an edge would make the verifier's products raise
    with pytest.raises(ValueError) as err:
        EdgeSet(2, (vec(1, 0, 0), vec(0, 1)), ((0,), (1,)))
    assert str(err.value) == "edge 0 has dimension 3, expected 2"


# ---------------------------------------------------------------------------
# edge sets


def test_edge_set_hexagonal():
    es = compute_edge_set(normal_set(HEXAGONAL))
    assert es.edges == (vec(0, 1), vec(1, 0), vec(1, -1))
    assert es.provenance == ((0,), (1,), (2,))


def test_edge_set_square_grid():
    es = compute_edge_set(normal_set(SQUARE))
    assert es.edges == (vec(0, 1), vec(1, 0))


def test_edge_set_checker_has_half_integer_edges():
    es = compute_edge_set(normal_set(CHECKER))
    assert es.edges == (vec("1/2", "-1/2"), vec("1/2", "1/2"))


def test_edge_set_rejects_non_dicing_with_witness():
    with pytest.raises(NotADicing) as info:
        compute_edge_set(normal_set(NON_DICING))
    err = info.value
    kernel = vec(*err.kernel)
    products = [kernel.dot(n) for n in (vec(*r) for r in NON_DICING)]
    assert tuple(products) == tuple(err.products)
    magnitudes = {abs(p) for p in products if p != 0}
    assert len(magnitudes) > 1


def test_edge_set_shared_kernel_lines_deduplicate():
    es = compute_edge_set(normal_set(FIVE_FAMILY))
    assert len(es.edges) == 6
    assert len({e.entries for e in es.edges}) == 6


def test_edge_set_eliminates_each_subset_once(monkeypatch):
    ns = normal_set(COGRAPHIC_K33)
    real = ratgeom._bareiss
    calls = []

    def counted(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(ratgeom, "_bareiss", counted)
    es = compute_edge_set(ns)
    assert len(es.edges) == 15
    # C(9, 3) subsets; the kernel lines of the 78 of rank 3 reuse the
    # elimination their rank came from
    assert calls == [3] * 84


@pytest.mark.parametrize("rows", DICING_FIXTURES)
def test_edge_pairings_are_unimodular(rows):
    ns = normal_set(rows)
    es = compute_edge_set(ns)
    for e in es.edges:
        for n in ns.normals:
            assert n.dot(e) in (-1, 0, 1)


@pytest.mark.parametrize("rows", DICING_FIXTURES)
def test_edge_set_covers_every_corank_one_subset(rows):
    ns = normal_set(rows)
    es = compute_edge_set(ns)
    d = ns.dimension
    lines = {tuple(e.entries) for e in es.edges}
    for subset in itertools.combinations(range(len(ns.normals)), d - 1):
        m = RatMatrix([ns.normals[i] for i in subset], cols=d)
        if rank(m) != d - 1:
            continue
        hits = [e for e in es.edges if (m @ e).is_zero()]
        assert len(hits) == 1
        assert tuple(hits[0].entries) in lines


# ---------------------------------------------------------------------------
# the dicing lattice


def test_lattice_of_hexagonal_is_unit():
    lat = lattice_of_dicing(normal_set(HEXAGONAL))
    assert abs(det(lat.basis)) == 1
    assert same_lattice(lat, hnf_lattice_basis([vec(1, 0), vec(0, 1)]))


def test_lattice_of_checker_is_half_integer():
    lat = lattice_of_dicing(normal_set(CHECKER))
    expected = hnf_lattice_basis([vec("1/2", "1/2"), vec("1/2", "-1/2")])
    assert same_lattice(lat, expected)


def test_lattice_of_cubic_grid_is_identity():
    lat = lattice_of_dicing(normal_set(CUBIC))
    assert lat.basis == RatMatrix.identity(3)


@pytest.mark.parametrize("rows", DICING_FIXTURES)
def test_edges_generate_the_dicing_lattice(rows):
    ns = normal_set(rows)
    es = compute_edge_set(ns)
    assert same_lattice(hnf_lattice_basis(es.edges), lattice_of_dicing(ns))


# ---------------------------------------------------------------------------
# totally unimodular representation


def test_tu_accepts_interval_matrix():
    assert is_totally_unimodular(mat([[1, 0, 1], [0, 1, 1]]))


def test_tu_rejects_determinant_two():
    assert not is_totally_unimodular(mat([[1, 1], [-1, 1]]))


def test_tu_accepts_identity():
    assert is_totally_unimodular(RatMatrix.identity(4))


def test_tu_requires_integers():
    with pytest.raises(NonIntegerEntries):
        is_totally_unimodular(mat([["1/2", 0], [0, 1]]))


def test_representation_of_checker_dicing():
    ns = normal_set(CHECKER)
    rep = unimodular_representation(ns, compute_edge_set(ns))
    assert rep.transform == mat([[1, 1], [1, -1]])
    assert rep.normals_matrix == RatMatrix.identity(2)
    assert set(c.entries for c in rep.edges_matrix.columns()) == {
        (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    assert rep.edge_signs == (1, 1)


def test_representation_of_hexagonal_is_already_reduced():
    ns = normal_set(HEXAGONAL)
    es = compute_edge_set(ns)
    rep = unimodular_representation(ns, es)
    assert rep.transform == RatMatrix.identity(2)
    assert rep.normals_matrix == RatMatrix.from_columns(ns.normals)
    assert rep.edges_matrix == RatMatrix.from_columns(es.edges)


def test_representation_of_standard_grid_3d():
    ns = normal_set(CUBIC)
    rep = unimodular_representation(ns, compute_edge_set(ns))
    assert rep.transform == RatMatrix.identity(3)
    assert rep.normals_matrix == RatMatrix.identity(3)


@pytest.mark.parametrize("rows", DICING_FIXTURES)
def test_representation_invariants(rows):
    ns = normal_set(rows)
    es = compute_edge_set(ns)
    rep = unimodular_representation(ns, es)
    d = ns.dimension
    allowed = {Fraction(-1), Fraction(0), Fraction(1)}
    for matrix in (rep.normals_matrix, rep.edges_matrix):
        assert {e for row in entries(matrix) for e in row} <= allowed
        cols = {c.entries for c in matrix.columns()}
        for i in range(d):
            assert tuple(Fraction(int(i == j)) for j in range(d)) in cols
    assert is_totally_unimodular(rep.normals_matrix)


@pytest.mark.parametrize("rows, edges, message", [
    (SQUARE, [(1, 1)], "no edge is dual to basis normal 0"),
    (SQUARE, [(2, 0), (0, 1)], "edge 0 pairs 2 with basis normal 0"),
    ([(1, 0), (0, 1), (1, 2)], [(1, 0), (0, 1)],
     "normal column 2 has entry 2 outside 0/+-1"),
    # the minor of (1, 1, 0), (0, 1, 1), (1, 0, 1) has determinant 2
    (CUBIC + [(1, 1, 0), (0, 1, 1), (1, 0, 1)], CUBIC,
     "normal matrix is not totally unimodular")])
def test_representation_names_the_failed_check(rows, edges, message):
    es = EdgeSet(len(rows[0]), [vec(*e) for e in edges], [(0,)] * len(edges))
    with pytest.raises(RepresentationCheckFailed) as err:
        unimodular_representation(normal_set(rows), es)
    assert str(err.value) == message


@pytest.mark.parametrize("rows", DICING_FIXTURES)
def test_representation_recovers_originals(rows):
    ns = normal_set(rows)
    es = compute_edge_set(ns)
    rep = unimodular_representation(ns, es)
    l_inv = inverse(rep.transform)
    back_normals = rep.transform.transpose() @ rep.normals_matrix
    assert back_normals == RatMatrix.from_columns(ns.normals)
    back_edges = (l_inv @ rep.edges_matrix).columns()
    for edge, sign, col in zip(es.edges, rep.edge_signs, back_edges):
        assert col == edge.scale(Fraction(sign))


# ---------------------------------------------------------------------------
# affine transport


def test_affine_identity_is_noop():
    ns = normal_set(CHECKER)
    es = compute_edge_set(ns)
    assert apply_affine(ns, es, RatMatrix.identity(2)) == (ns, es)


def test_affine_reduction_of_checker():
    ns = normal_set(CHECKER)
    es = compute_edge_set(ns)
    ns2, es2 = apply_affine(ns, es, mat([[1, 1], [1, -1]]))
    assert ns2.normals == (vec(1, 0), vec(0, 1))
    assert es2.edges == (vec(0, 1), vec(1, 0))


def test_affine_scaling_duality():
    ns = normal_set(HEXAGONAL)
    es = compute_edge_set(ns)
    ns2, es2 = apply_affine(ns, es, RatMatrix.identity(2).scale(Fraction(2)))
    assert ns2.normals == tuple(n.scale(Fraction(1, 2)) for n in ns.normals)
    assert es2.edges == tuple(e.scale(Fraction(2)) for e in es.edges)


def test_affine_preserves_pairings():
    rng = random.Random(2024)
    ns = normal_set(FIVE_FAMILY)
    es = compute_edge_set(ns)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                for _ in range(3)]
        m = mat(rows)
        try:
            ns2, es2 = apply_affine(ns, es, m)
        except Singular:
            continue
        for n, n2 in zip(ns.normals, ns2.normals):
            for e, e2 in zip(es.edges, es2.edges):
                assert n.dot(e) == n2.dot(e2)


def test_first_basis_indices_skips_dependent_prefix():
    ns = normal_set([(1, 1, 0), (2, 2, 1), (1, 1, 1), (0, 1, 0)])
    assert first_basis_indices(ns) == (0, 1, 3)


def greedy_basis(ns):
    """First d normals, each independent of the ones picked before it."""
    picked = []
    for i, v in enumerate(ns.normals):
        if rank(RatMatrix([ns.normals[j] for j in picked] + [v])) \
                == len(picked) + 1:
            picked.append(i)
    return tuple(picked[:ns.dimension])


@settings(max_examples=60)
@given(st.integers(3, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                 min_size=2, max_size=6),
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                 max_size=3))))
def test_first_basis_indices_is_the_greedy_basis(data):
    rows, sums = data
    # the third normal is dependent on the first two, and later sums of
    # earlier normals add more dependent ones
    rows = rows[:2] + [[a + b for a, b in zip(*rows[:2])]] + rows[2:]
    for i, j in sums:
        rows.append([a + b for a, b in zip(rows[i % len(rows)],
                                           rows[j % len(rows)])])
    try:
        ns = normal_set(rows)
    except InvalidNormalSet:
        assume(False)
    assert first_basis_indices(ns) == greedy_basis(ns)
    assert 2 not in first_basis_indices(ns)
