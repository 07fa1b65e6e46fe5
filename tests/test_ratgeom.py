"""Exact linear algebra: frozen hand-computed values plus algebraic laws."""

import contextlib
import itertools
import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonocert import (LatticeBasis, NormalSet, RatMatrix, RatVector,
                      canonical_direction, det, dual_lattice_basis,
                      hnf_lattice_basis, inverse, kernel_basis, kernel_line,
                      lattice_contains, rank, same_lattice)
from zonocert.errors import (DegenerateSpan, InternalFault, NotSquare,
                             RankMismatch, Singular)
from zonocert import ratgeom
from zonocert.ratgeom import (_bareiss_det, _pivot, first_parallel_pair,
                              independent_spans)

from conftest import entries, mat, vec
from oracles import rref


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
# products


def as_matrix(rows, cols):
    return RatMatrix([RatVector(r) for r in rows], cols=cols)


# shapes include no rows (RatMatrix([], cols=k)) and a zero inner dimension
@settings(max_examples=100)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
       .flatmap(lambda s: st.tuples(st.just(s), matrix_rows(s[0], s[1]),
                                    matrix_rows(s[1], s[2]),
                                    matrix_rows(2, s[1]))))
def test_products_match_an_index_loop(data):
    (m, k, n), a, b, (v, u) = data
    zero = Fraction(0)
    product = [[sum((a[i][t] * b[t][j] for t in range(k)), zero)
                for j in range(n)] for i in range(m)]
    image = [sum((a[i][t] * v[t] for t in range(k)), zero) for i in range(m)]
    assert entries(as_matrix(a, k) @ as_matrix(b, n)) == \
        tuple(map(tuple, product))
    assert (as_matrix(a, k) @ as_matrix(b, n)).cols == n
    assert (as_matrix(a, k) @ RatVector(v)).entries == tuple(image)
    assert RatVector(v).dot(RatVector(u)) == \
        sum((v[t] * u[t] for t in range(k)), zero)


wide_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=60)


@settings(max_examples=50)
@given(st.integers(0, 5).flatmap(
    lambda k: st.tuples(matrix_rows(2, k, wide_rationals),
                        matrix_rows(1, k, wide_rationals))))
def test_cleared_products_equal_a_fraction_sum(data):
    rows, (v,) = data
    vector = RatVector(v)
    expected = [sum(map(mul, row, v), Fraction(0)) for row in rows]
    assert [RatVector(row).dot(vector) for row in rows] == expected
    assert (as_matrix(rows, len(v)) @ vector).entries == tuple(expected)


def assert_cleared(v, entries):
    """v is the canonical cleared form of these entries."""
    assert v.den > 0 and math.gcd(v.den, *v.nums) == 1
    assert v.entries == tuple(entries)
    assert RatVector(v.entries) == v


@settings(max_examples=150)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(wide_rationals, min_size=n, max_size=n),
    st.lists(wide_rationals, min_size=n, max_size=n), st.booleans(),
    wide_rationals, st.integers(-12, 12).filter(bool))))
def test_cleared_form_matches_fraction_arithmetic(data):
    a, b, same, c, k = data
    if same:
        # the same entries, given as ints where they are integral
        b = [int(x) if x.denominator == 1 else x for x in a]
    u, v = RatVector(a), RatVector(b)
    assert_cleared(u, a)
    assert_cleared(v, b)
    assert (u == v) == (a == b)
    if a == b:
        assert hash(u) == hash(v)
    assert_cleared(u + v, [x + y for x, y in zip(a, b)])
    assert_cleared(u - v, [x - y for x, y in zip(a, b)])
    assert_cleared(-u, [-x for x in a])
    assert_cleared(u.scale(c), [c * x for x in a])
    assert u.dot(v) == sum(map(mul, a, b), Fraction(0))
    # any nonzero multiple of the form, of either sign, reduces to it
    assert ratgeom._from_cleared(k * u.den, [k * x for x in u.nums]) == u


def test_a_vector_is_its_cleared_form_and_holds_no_cache():
    u, v = vec("1/2", "-2/3", 3), vec("1/2", "-2/3", 3)
    before = hash(u)
    assert v.dot(v) == Fraction(1, 4) + Fraction(4, 9) + 9
    assert (u.den, u.nums) == (v.den, v.nums) == (6, (3, -4, 18))
    assert not hasattr(v, "__dict__")
    assert u == v and hash(u) == hash(v) == before and repr(u) == repr(v)
    # a row given as a sequence is cleared when the matrix is built
    row = [1, Fraction(1, 2), 0]
    m, n = RatMatrix([row]), RatMatrix([row])
    assert m @ v == vec("1/6")
    (mrow,), (nrow,) = m.row_vectors, n.row_vectors
    assert (mrow.den, mrow.nums) == (nrow.den, nrow.nums) == (2, (2, 1, 0))
    assert m == n and hash(m) == hash(n) and repr(m) == repr(n)
    assert rank(m) == 1
    assert "_echelon" in vars(m) and "_echelon" not in vars(n)
    assert m == n and hash(m) == hash(n) and repr(m) == repr(n)
    # every reader of the one elimination leaves it as it was
    cached = [row[:] for row in m._echelon[0]]
    assert kernel_basis(m) == kernel_basis(n)
    assert rref(m) == rref(n) and rank(m) == rank(n)
    assert m._echelon[0] == cached


def test_one_constructor_keeps_vector_rows_and_coerces_sequence_rows():
    u, v = vec("1/2", "-2/3", 3), vec(4, 0, "1/5")
    m = RatMatrix([u, v, u])
    assert all(a is b for a, b in zip(m.row_vectors, (u, v, u)))
    assert entries(m) == (u.entries, v.entries, u.entries)
    assert [(r.den, r.nums) for r in m.row_vectors] == \
        [(6, (3, -4, 18)), (5, (20, 0, 1)), (6, (3, -4, 18))]
    mixed = RatMatrix([u.entries, v, [Fraction(1, 2), Fraction(-2, 3), 3]])
    assert mixed == m and hash(mixed) == hash(m)
    assert all(type(r) is RatVector for r in mixed.row_vectors)
    assert RatMatrix([], cols=3).cols == 3


def test_row_and_column_constructors_refuse_ragged_input():
    with pytest.raises(ValueError, match="ragged matrix"):
        RatMatrix([vec(1, 2), vec(1, 2, 3)])
    with pytest.raises(ValueError, match="ragged matrix"):
        RatMatrix([[1, 2], [1, 2, 3]])
    with pytest.raises(ValueError, match="explicit column count"):
        RatMatrix([])
    for columns in ([vec(1, 2), vec(1)], [vec(1), vec(1, 2)]):
        with pytest.raises(ValueError, match="ragged matrix"):
            RatMatrix.from_columns(columns)


def test_both_row_shapes_refuse_a_width_unlike_the_rows():
    with pytest.raises(ValueError, match="rows of length 2 in a matrix of 3"):
        RatMatrix([vec(1, 2)], cols=3)
    with pytest.raises(ValueError, match="rows of length 2 in a matrix of 3"):
        RatMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="ragged matrix"):
        RatMatrix([vec(1, 2), [1, 2, 3]])
    assert RatMatrix([vec(1, 2)], cols=2) == RatMatrix([[1, 2]])


def test_width_is_part_of_a_matrix_without_rows():
    narrow = RatMatrix([], cols=3)
    wide = RatMatrix([], cols=5)
    assert narrow != wide and (narrow.cols, wide.cols) == (3, 5)
    assert narrow == RatMatrix([], cols=3)
    assert hash(narrow) == hash(RatMatrix([], cols=3))


def test_a_matrix_without_rows_needs_a_non_negative_int_width():
    with pytest.raises(ValueError, match="negative column count -2"):
        RatMatrix([], cols=-2)
    with pytest.raises(TypeError, match="expected int, got bool"):
        RatMatrix([], cols=True)
    with pytest.raises(TypeError, match="expected int, got float"):
        RatMatrix([], cols=2.0)
    assert RatMatrix([], cols=0).cols == 0


@pytest.mark.parametrize("build", [
    lambda: RatVector([True, False]),
    lambda: RatMatrix([[1, False]]),
    lambda: vec(1, 2).scale(True),
    lambda: NormalSet(2, (vec(1, 0), vec(0, 1)), (True, 1))],
    ids=["vector", "matrix", "scale", "weight"])
def test_a_rational_is_never_a_bool(build):
    with pytest.raises(TypeError, match="^expected int or Fraction, got bool$"):
        build()


def test_transpose_and_scale_keep_the_width():
    m = RatMatrix([[], []])
    assert (m.rows, m.cols) == (2, 0)
    t = m.transpose()
    assert (t.rows, t.cols) == (0, 2) and t.transpose() == m
    assert RatMatrix([], cols=4).scale(2).cols == 4


def test_vector_sums_and_differences_refuse_mismatched_dimensions():
    for short, long in ((vec(5), vec(1, 2)), (vec(1, 2), vec(5, 6, 7))):
        for a, b in ((short, long), (long, short)):
            with pytest.raises(ValueError,
                               match="sum of vectors of different dimension"):
                a + b
            with pytest.raises(
                    ValueError,
                    match="difference of vectors of different dimension"):
                a - b
    assert vec(1, 2) + vec(5, 6) == vec(6, 8)
    assert vec(1, 2) - vec(5, 6) == vec(-4, -4)


def test_products_refuse_mismatched_dimensions():
    with pytest.raises(ValueError):
        mat([[1, 2]]) @ mat([[1, 2]])
    with pytest.raises(ValueError):
        mat([[1, 2]]) @ vec(1)
    with pytest.raises(ValueError):
        vec(1, 2).dot(vec(1))


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
        m = RatMatrix([vectors[i] for i in subset], cols=len(rows[0]))
        if minor_rank([list(r) for r in entries(m)] or [[0]]) == k:
            first.setdefault(entries(rref(m)[0]), subset)
    got = [subset for subset, _ in
           independent_spans(vectors, k, kernel_basis)]
    assert got == sorted(first.values())


def test_spans_skip_zero_rows_and_scan_directions():
    got = spans([[0, 0], [1, 2], [0, 0], [-2, -4], ["1/3", 0]], 1)
    assert got == [((1,), vec(2, -1)), ((4,), vec(0, 1))]
    assert spans([[0, 0], [1, 2]], 2, kernel_basis) == []
    assert spans([[0, 0, 0], ["-1/2", 0, 3]], 0, kernel_basis) == \
        [((), (vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)))]


def test_span_kernel_receives_the_rows_directions():
    received = []

    def kernel(m):
        received.append(entries(m))
        return kernel_line(m)

    vectors = [vec("-1/2", 1), vec(0, 3), vec(0, 0)]
    got = list(independent_spans(vectors, 1, kernel))
    assert got == [((0,), vec(2, 1)), ((1,), vec(1, 0))]
    assert received == [((1, -2),), ((0, 1),)]


def reference_spans(vectors, k, kernel):
    """The span scan on the vectors as given: RatMatrix, rank, kernel."""
    dim = vectors[0].dim
    seen, out = set(), []
    for subset in itertools.combinations(range(len(vectors)), k):
        m = RatMatrix([vectors[i] for i in subset], cols=dim)
        if rank(m) != k:
            continue
        key = kernel(m)
        if key not in seen:
            seen.add(key)
            out.append((subset, key))
    return out


nonzero_scales = st.fractions(min_value=-5, max_value=5,
                              max_denominator=7).filter(bool)


@settings(max_examples=80)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=d,
                                    max_size=d), nonzero_scales),
                 min_size=1, max_size=6),
        st.sampled_from(["line", "basis"]),
        st.integers(0, d))))
def test_spans_are_invariant_under_row_scaling(data):
    drawn, which, k = data
    d = len(drawn[0][0])
    kernel, k = (kernel_line, d - 1) if which == "line" else (kernel_basis, k)
    rows = [vec(*r) for r, _ in drawn]
    scaled = [v.scale(c) for v, (_, c) in zip(rows, drawn)]
    got = list(independent_spans(scaled, k, kernel))
    assert got == list(independent_spans(rows, k, kernel))
    assert got == reference_spans(scaled, k, kernel)


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


def test_det_reads_the_elimination_rank_made(monkeypatch):
    real = ratgeom._bareiss
    calls = []

    def counted(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(ratgeom, "_bareiss", counted)
    m, singular = mat([[2, "1/3"], ["1/2", 5]]), mat([[1, 2], [2, 4]])
    assert rank(m) == 2 and det(m) == Fraction(59, 6)
    assert rank(singular) == 1 and det(singular) == 0
    assert calls == [2, 2]


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
    cleared = mat(rows).row_vectors
    ints = [v.nums for v in cleared]
    factor = math.prod(v.den for v in cleared)
    assert _bareiss_det(ints) == naive_det(ints) == det(mat(rows)) * factor


# ---------------------------------------------------------------------------
# kernels on unit and wider pivots


def fraction_echelon(rows):
    """Reduced echelon form and pivot columns by plain Fraction
    Gauss-Jordan elimination, independent of the fraction-free routine."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * t for x, t in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def primitive(v):
    """Integer multiple of a nonzero vector with content 1, first nonzero
    entry positive."""
    den = math.lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return tuple(x // g for x in ints)


@contextlib.contextmanager
def previous_pivots():
    """Record the previous pivot of every ``_pivot`` call inside."""
    seen = []
    original = ratgeom._pivot

    def spy(a, r, c, prev):
        seen.append(prev)
        return original(a, r, c, prev)

    ratgeom._pivot = spy
    try:
        yield seen
    finally:
        ratgeom._pivot = original


def check_kernels(rows):
    """_bareiss_det, rank and kernel_line of square integer rows against
    cofactor expansion and plain Fraction elimination; returns every
    previous pivot the fraction-free routines used."""
    with previous_pivots() as prevs:
        assert _bareiss_det(rows) == naive_det(rows)
        assert rank(mat(rows)) == len(fraction_echelon(rows)[1])
        head = rows[:-1]
        echelon, pivots = fraction_echelon(head)
        if len(pivots) == len(head):
            (free,) = set(range(len(rows))) - set(pivots)
            line = [Fraction(0)] * len(rows)
            line[free] = Fraction(1)
            for k, c in enumerate(pivots):
                line[c] = -echelon[k][free]
            assert kernel_line(mat(head)).entries == primitive(line)
        else:
            with pytest.raises(RankMismatch):
                kernel_line(mat(head))
    return prevs


def tu_rows(n):
    """n x n rows with at most one +1 and one -1 each, times a sign: the
    transpose of a network matrix, so totally unimodular."""
    index = st.one_of(st.none(), st.integers(0, n - 1))

    def row(spec):
        i, j, sign = spec
        r = [0] * n
        if j is not None:
            r[j] = -sign
        if i is not None:
            r[i] = sign
        return r

    return st.lists(st.tuples(index, index, st.sampled_from([1, -1])).map(row),
                    min_size=n, max_size=n)


@settings(max_examples=80)
@given(st.integers(2, 5).flatmap(tu_rows))
def test_unit_pivots_of_totally_unimodular_rows(rows):
    prevs = check_kernels(rows)
    assert set(prevs) <= {1, -1}


@settings(max_examples=80)
@given(st.integers(2, 5).flatmap(
    lambda n: matrix_rows(n, n, st.integers(-4, 4))))
def test_kernels_on_wide_integer_rows(rows):
    check_kernels(rows)


@settings(max_examples=80)
@given(st.integers(3, 5).flatmap(
    lambda n: st.tuples(st.sampled_from([1, -1]),
                        matrix_rows(n, n, st.integers(-5, 5)))))
def test_kernels_switch_from_unit_to_wider_pivots(data):
    first, rows = data
    rows[0][0] = first
    check_kernels(rows)


def test_a_unit_pivot_then_a_wider_one():
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert check_kernels(rows)[:3] == [1, 1, -3]


def pivot_by_formula(a, r, c, prev):
    """(row * a[r][c] - row[c] * a[r]) / prev on every other whole row,
    with the division checked to be exact."""
    out = []
    for i, row in enumerate(a):
        if i == r:
            out.append(row[:])
            continue
        new = [Fraction(x * a[r][c] - row[c] * t, prev)
               for x, t in zip(row, a[r])]
        assert all(x.denominator == 1 for x in new)
        out.append([int(x) for x in new])
    return out


def test_pivot_with_previous_pivot_minus_one():
    # pivot equal to prev: f != 0 subtracts, f == 0 leaves the row alone
    a = [[-1, 2, 0], [3, 4, 1], [0, 5, 2]]
    expected = pivot_by_formula(a, 0, 0, -1)
    _pivot(a, 0, 0, -1)
    assert a == expected == [[-1, 2, 0], [0, 10, 1], [0, 5, 2]]
    # pivot unlike prev: f != 0 updates, f == 0 scales by pivot * prev
    b = [[2, 1], [3, 1], [0, 4]]
    expected = pivot_by_formula(b, 0, 0, -1)
    _pivot(b, 0, 0, -1)
    assert b == expected == [[2, 1], [0, 1], [0, -8]]


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(matrix_rows(n, n + 1, st.integers(-6, 6)),
                        st.integers(0, n - 1), st.integers(0, n),
                        st.sampled_from([1, -1]))))
def test_unit_previous_pivot_matches_the_formula(data):
    rows, r, c, prev = data
    assume(rows[r][c] != 0)
    kept = list(rows)
    expected = pivot_by_formula(rows, r, c, prev)
    _pivot(rows, r, c, prev)
    assert rows == expected
    # every row is updated in place, so references to rows stay valid
    assert all(a is b for a, b in zip(rows, kept))


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
    ents = entries(reduced)
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
    assume(rank(RatMatrix(gens)) == len(rows[0]))
    once = hnf_lattice_basis(gens)
    again = hnf_lattice_basis(once.vectors)
    assert once.basis == again.basis
    assert same_lattice(once, again)


def test_same_lattice_inverts_no_basis(monkeypatch):
    checker = hnf_lattice_basis([vec(1, 1), vec(1, -1)])
    skew = LatticeBasis(mat([[2, 1], [0, 1]]))
    unit = LatticeBasis(RatMatrix.identity(2))

    def refuse(m):
        raise AssertionError("same_lattice inverted a basis")

    monkeypatch.setattr(ratgeom, "inverse", refuse)
    assert same_lattice(checker, skew)
    assert not same_lattice(checker, unit)


def test_lattice_membership_and_coordinates():
    b = hnf_lattice_basis([vec(1, 1), vec(1, -1)])
    inside = vec(2, 0)
    assert lattice_contains(b, inside)
    coords = b.inverse @ inside
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
    assert b.inverse @ vec(3, 1) == vec(1, 1)
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
