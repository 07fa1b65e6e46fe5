"""Exact linear algebra: frozen hand-computed values plus algebraic laws."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonocert import (LatticeBasis, RatMatrix, RatVector, canonical_direction,
                      det, dual_lattice_basis, hnf_lattice_basis, inverse,
                      kernel_basis, kernel_line, lattice_contains,
                      lattice_coordinates, rank, rref, same_lattice)
from zonocert.errors import (DegenerateSpan, InternalFault, NotSquare,
                             RankMismatch, Singular)
from zonocert.ratgeom import (_bareiss_det, _cleared_rows, _pivot,
                              first_parallel_pair, independent_spans)

from conftest import mat, vec


def naive_det(rows):
    """Cofactor expansion, independent of the fraction-free routine."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        sub = [list(r[:j]) + list(r[j + 1:]) for r in rows[1:]]
        term = Fraction(rows[0][j]) * naive_det(sub)
        total += term if j % 2 == 0 else -term
    return total


def minor_rank(rows):
    """Largest order of a nonzero minor, by full enumeration."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                if naive_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def matrix_rows(rows, cols, elements=rationals):
    return st.lists(st.lists(elements, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# ---------------------------------------------------------------------------
# rank


def test_rank_identity():
    assert rank(RatMatrix.identity(2)) == 2


# rank 2, determinant 0: column 1 has no pivot, column 2 has one after it
SKIPPED_PIVOT = [[1, 2, 0], [2, 4, 1], [0, 0, 1]]


def test_rank_dependent_columns():
    m = RatMatrix.from_columns([vec(1, 0), vec(0, 1), vec(1, 1)])
    assert rank(m) == 2
    assert rank(mat(SKIPPED_PIVOT)) == 2


def test_rank_zero_matrix():
    assert rank(mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == 0


@settings(max_examples=60)
@given(st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: matrix_rows(r, c, st.integers(-2, 2).map(Fraction)))))
def test_rank_matches_minor_enumeration(rows):
    assert rank(mat(rows)) == minor_rank(rows)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_line_axis():
    assert kernel_line(mat([[1, 0]])) == vec(0, 1)


def test_kernel_line_antidiagonal():
    assert kernel_line(mat([[1, 1]])) == vec(1, -1)


def test_kernel_line_3d():
    assert kernel_line(mat([[1, 0, 0], [1, 1, 1]])) == vec(0, 1, -1)


def test_kernel_line_needs_corank_one():
    with pytest.raises(RankMismatch):
        kernel_line(RatMatrix.identity(2))


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(lambda d: matrix_rows(d - 1, d)))
def test_kernel_line_annihilates(rows):
    m = mat(rows)
    assume(rank(m) == m.cols - 1)
    v = kernel_line(m)
    assert not v.is_zero()
    assert (m @ v).is_zero()
    assert v == canonical_direction(v)


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(
    lambda d: st.tuples(matrix_rows(d - 1, d), st.booleans())))
def test_kernel_line_is_the_canonical_first_kernel_basis_vector(data):
    rows, dependent_row = data
    if dependent_row:
        rows = rows + [[a + b for a, b in zip(rows[0], rows[-1])]]
    m = mat(rows)
    assume(len(kernel_basis(m)) == 1)
    assert kernel_line(m) == canonical_direction(kernel_basis(m)[0])


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda r: matrix_rows(r, 4)))
def test_kernel_basis_spans_nullspace(rows):
    m = mat(rows)
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert (m @ v).is_zero()


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 5).flatmap(lambda c: matrix_rows(r, c))))
def test_kernel_basis_is_one_unit_vector_per_free_column(rows):
    m = mat(rows)
    pivots = rref(m)[1]
    free = [c for c in range(m.cols) if c not in pivots]
    basis = kernel_basis(m)
    assert len(basis) == len(free)
    for v, own in zip(basis, free):
        assert [v[c] for c in free] == [1 if c == own else 0 for c in free]


# ---------------------------------------------------------------------------
# span enumeration


def spans(rows, k, kernel=kernel_line):
    return list(independent_spans([vec(*r) for r in rows], k, kernel))


def test_spans_keep_the_first_subset_of_each_span():
    # rows 0, 1 and 2 all lie in the plane z = 0
    got = spans([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], 2)
    assert [subset for subset, _ in got] == [(0, 1), (0, 3), (1, 3), (2, 3)]
    assert got[0][1] == vec(0, 0, 1)


def test_spans_skip_rank_deficient_subsets():
    got = spans([[1, 2], [2, 4], [0, 1]], 2, kernel_basis)
    assert [subset for subset, _ in got] == [(0, 2)]
    assert got[0][1] == ()


def test_spans_deduplicate_parallel_rows():
    got = spans([[1, 1], [2, 2], [1, -1], ["-1/2", "1/2"]], 1)
    assert got == [((0,), vec(1, -1)), ((2,), vec(1, 1))]


def test_spans_of_size_zero_are_one_empty_subset():
    got = spans([[1, 0], [0, 1]], 0, kernel_basis)
    assert got == [((), (vec(1, 0), vec(0, 1)))]


@settings(max_examples=60)
@given(st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(st.integers(-2, 2).map(Fraction), min_size=d,
                          max_size=d), min_size=1, max_size=6),
        st.integers(0, d))))
def test_spans_match_grouping_by_row_space(data):
    rows, k = data
    vectors = [vec(*r) for r in rows]
    first: dict = {}
    for subset in itertools.combinations(range(len(rows)), k):
        m = RatMatrix.from_rows([vectors[i] for i in subset], cols=len(rows[0]))
        if minor_rank([list(r) for r in m.entries] or [[0]]) == k:
            first.setdefault(rref(m)[0].entries, subset)
    got = [subset for subset, _ in
           independent_spans(vectors, k, kernel_basis)]
    assert got == sorted(first.values())


def test_first_parallel_pair_in_combinations_order():
    vectors = [vec(1, 0), vec(0, 1), vec(0, -3), vec(2, 0), vec(1, 1)]
    assert first_parallel_pair(vectors) == (0, 3)
    assert first_parallel_pair(vectors[1:]) == (0, 1)
    assert first_parallel_pair([vec(1, 0), vec(1, 1)]) is None


# ---------------------------------------------------------------------------
# determinants and inverses


def test_det_identity():
    assert det(RatMatrix.identity(3)) == 1


def test_det_skew():
    assert det(mat([[1, 1], [1, -1]])) == -2


def test_det_hexagonal_form():
    assert det(mat([[2, 1], [1, 2]])) == 3


def test_det_rejects_rectangular():
    with pytest.raises(NotSquare):
        det(mat([[1, 0, 0], [0, 1, 0]]))


def test_pivot_refuses_a_wrong_previous_pivot():
    a = [[2, 1], [1, 3]]
    _pivot(a, 0, 0, 1)
    assert a == [[2, 1], [0, 5]]
    b = [row[:] for row in a]
    _pivot(b, 1, 1, 2)
    assert b == [[5, 0], [0, 5]]
    # row 0 becomes [10, 0] / prev, and 3 is not the previous pivot
    with pytest.raises(InternalFault):
        _pivot(a, 1, 1, 3)


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: matrix_rows(n, n)))
def test_det_matches_cofactor_expansion(rows):
    assert det(mat(rows)) == naive_det(rows)
    ints, factor = _cleared_rows(mat(rows).entries)
    assert _bareiss_det(ints) == naive_det(ints) == det(mat(rows)) * factor


def test_inverse_identity():
    assert inverse(RatMatrix.identity(3)) == RatMatrix.identity(3)


def test_inverse_hexagonal_form():
    expected = mat([["2/3", "-1/3"], ["-1/3", "2/3"]])
    assert inverse(mat([[2, 1], [1, 2]])) == expected


def test_inverse_skew():
    expected = mat([["1/2", "1/2"], ["1/2", "-1/2"]])
    assert inverse(mat([[1, 1], [1, -1]])) == expected


def test_inverse_singular():
    for rows in ([[1, 1], [1, 1]], SKIPPED_PIVOT):
        assert det(mat(rows)) == 0
        with pytest.raises(Singular):
            inverse(mat(rows))


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: matrix_rows(n, n)))
def test_inverse_is_exact_two_sided(rows):
    m = mat(rows)
    assume(naive_det(rows) != 0)
    ident = RatMatrix.identity(m.rows)
    assert m @ inverse(m) == ident
    assert inverse(m) @ m == ident


def test_rref_reports_pivots():
    reduced, pivots = rref(mat([[1, 2, 3], [2, 4, 6]]))
    assert pivots == (0,)
    assert reduced == mat([[1, 2, 3], [0, 0, 0]])
    reduced, pivots = rref(mat(SKIPPED_PIVOT))
    assert pivots == (0, 2)
    assert reduced == mat([[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert kernel_basis(mat(SKIPPED_PIVOT)) == (vec(-2, 1, 0),)


@settings(max_examples=80)
@given(st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.one_of(matrix_rows(r, c),
                            matrix_rows(r, c, st.integers(-2, 2).map(Fraction))))))
def test_rref_is_the_reduced_echelon_form_of_the_row_space(rows):
    reduced, pivots = rref(mat(rows))
    ents = reduced.entries
    k = len(pivots)
    assert k == minor_rank(rows)
    assert list(pivots) == sorted(set(pivots))
    for r, p in enumerate(pivots):
        # unit pivot, zeros left of it, and a unit pivot column
        assert ents[r][p] == 1 and not any(ents[r][:p])
        assert [row[p] for row in ents] == [int(i == r) for i in range(len(ents))]
    assert all(not any(row) for row in ents[k:])
    # every input row is the combination of the pivot rows given by its
    # pivot-column entries, so with k = rank both row spaces coincide
    for row in rows:
        combo = [sum((row[p] * ents[r][j] for r, p in enumerate(pivots)),
                     Fraction(0)) for j in range(len(row))]
        assert combo == list(row)


# ---------------------------------------------------------------------------
# lattice bases


def hnf_det(generators):
    return det(hnf_lattice_basis(generators).basis)


def test_hnf_redundant_generators_give_unit_lattice():
    assert abs(hnf_det([vec(1, 0), vec(0, 1), vec(1, -1)])) == 1


def test_hnf_doubled_grid():
    assert abs(hnf_det([vec(2, 0), vec(0, 2)])) == 4


def test_hnf_half_integer_lattice():
    gens = [vec("1/2", "1/2"), vec("1/2", "-1/2")]
    assert abs(hnf_det(gens)) == Fraction(1, 2)


def test_hnf_rejects_deficient_span():
    with pytest.raises(DegenerateSpan):
        hnf_lattice_basis([vec(1, 2), vec(2, 4)])


def test_dual_standard_basis_is_self_dual():
    b = LatticeBasis(RatMatrix.identity(3))
    assert dual_lattice_basis(b).basis == b.basis


def test_dual_skew_basis():
    b = LatticeBasis(RatMatrix.from_columns([vec(1, 1), vec(1, -1)]))
    assert dual_lattice_basis(b).vectors == (vec("1/2", "1/2"),
                                             vec("1/2", "-1/2"))


def test_dual_diagonal_basis():
    b = LatticeBasis(RatMatrix.from_columns([vec(2, 0), vec(0, 1)]))
    assert dual_lattice_basis(b).vectors == (vec("1/2", 0), vec(0, 1))


@settings(max_examples=60)
@given(st.integers(2, 3).flatmap(lambda n: matrix_rows(n, n)))
def test_dual_pairing_and_involution(rows):
    assume(naive_det(rows) != 0)
    b = LatticeBasis(mat(rows))
    dual = dual_lattice_basis(b)
    for i, dv in enumerate(dual.vectors):
        for j, pv in enumerate(b.vectors):
            assert dv.dot(pv) == (1 if i == j else 0)
    assert dual_lattice_basis(dual).basis == b.basis


@settings(max_examples=60)
@given(st.integers(2, 3).flatmap(
    lambda d: st.lists(st.lists(st.integers(-3, 3).map(Fraction), min_size=d,
                                max_size=d), min_size=d, max_size=d + 2)))
def test_hnf_idempotent(rows):
    gens = [vec(*r) for r in rows]
    assume(rank(RatMatrix.from_rows(gens)) == len(rows[0]))
    once = hnf_lattice_basis(gens)
    again = hnf_lattice_basis(once.vectors)
    assert once.basis == again.basis
    assert same_lattice(once, again)


def test_lattice_membership_and_coordinates():
    b = hnf_lattice_basis([vec(1, 1), vec(1, -1)])
    inside = vec(2, 0)
    assert lattice_contains(b, inside)
    coords = lattice_coordinates(b, inside)
    assert all(c.denominator == 1 for c in coords.entries)
    assert not lattice_contains(b, vec(1, 0))


def test_lattice_basis_rejects_bad_matrices():
    with pytest.raises(NotSquare):
        LatticeBasis(mat([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(Singular):
        LatticeBasis(mat([[1, 1], [1, 1]]))


def test_lattice_basis_inverts_once_outside_equality_and_repr():
    b = LatticeBasis(mat([[2, 1], [0, 1]]))
    assert b.basis @ b.inverse == RatMatrix.identity(2)
    assert lattice_coordinates(b, vec(3, 1)) == vec(1, 1)
    assert b == LatticeBasis(mat([[2, 1], [0, 1]]))
    assert "inverse" not in repr(b)
    with pytest.raises(Singular, match="^lattice basis columns are dependent$"):
        LatticeBasis(mat([[1, 2], [2, 4]]))


# ---------------------------------------------------------------------------
# directions


def test_canonical_direction_strips_scale_and_sign():
    assert canonical_direction(vec(2, -4)) == vec(1, -2)
    assert canonical_direction(vec(-2, 4)) == vec(1, -2)
    assert canonical_direction(vec(0, "-1/3")) == vec(0, 1)
    assert canonical_direction(vec("-1/2", "1/3", 0)) == vec(3, -2, 0)


def test_canonical_direction_rejects_zero():
    with pytest.raises(ValueError):
        canonical_direction(vec(0, 0))
