"""Exact linear algebra over the rationals.

A vector is its cleared form: one positive common denominator and a tuple
of integer numerators with no common factor, so every rank, determinant,
kernel, and Hermite form below is computed without rounding, and a sum,
a scaled vector or a matrix-vector product is integer work and one gcd.
A vector's ``Fraction`` entries are computed only when read, at the edges:
JSON, messages, and sort order.
Rank, determinant, kernels and inverses all come from one fraction-free
Gauss-Jordan loop (Bareiss) over integer-cleared rows.  Each matrix runs
it once for rank, determinant, pivot columns and kernels together and
caches the eliminated rows; kernels are read off them as integer
vectors, with no rational echelon form in between, and the determinant
is the signed last pivot over the row denominators.
A matrix is its tuple of row vectors, each kept as given.  A
matrix's width is part of its value, so one with no rows keeps it.  The
span enumerator scans the primitive integer directions of its vectors,
not the vectors themselves, so each subset costs one elimination on
small integer rows.  The same pivot step, ``_pivot``, also
drives the integer simplex tableau of the hull oracle in ``zonotope`` and
the integer Schur complements behind the positive definiteness check of
quadratic forms and the short-vector enumeration of the cell oracle in
``parallelohedron``.  When the previous pivot is +-1, as on every pivot
of a totally unimodular system, the step divides by multiplying and needs
no exactness check; any other previous pivot keeps the checked exact
division.  Only the Hermite form has its own integer column reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .errors import DegenerateSpan, InternalFault, NotSquare, RankMismatch, Singular

_ZERO = Fraction(0)


def _as_rational(x) -> Fraction:
    """Coerce int or Fraction; reject bool, a flag and not a number, and
    float, to keep arithmetic exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _as_index(x) -> int:
    """Accept an int as a dimension or index; reject bool, float and str
    instead of truncating or parsing them."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"expected int, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# vectors


@dataclass(frozen=True, slots=True)
class RatVector:
    """Immutable rational vector, stored as its cleared form: entry i is
    ``nums[i] / den`` with ``den > 0`` and gcd(den, *nums) = 1.

    The form is canonical, so equality and hashing read it.  With den the
    lcm of the entries' reduced denominators, the largest power p^k of a
    prime dividing den divides the denominator b of some entry a/b, and
    p does not divide a, so a * (den / b) is prime to p; any other common
    denominator m * den scales every numerator by m as well."""

    den: int
    nums: tuple[int, ...]

    def __init__(self, entries: Iterable):
        es = [_as_rational(e) for e in entries]
        den = math.lcm(*(e.denominator for e in es))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums",
                           tuple(e.numerator * (den // e.denominator) for e in es))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def dot(self, other: "RatVector") -> Fraction:
        """One integer sum over the cleared forms, one Fraction."""
        if len(self.nums) != len(other.nums):
            raise ValueError("dot product of vectors of different dimension")
        return Fraction(sum(map(mul, self.nums, other.nums)), self.den * other.den)

    def __add__(self, other: "RatVector") -> "RatVector":
        if len(self.nums) != len(other.nums):
            raise ValueError("sum of vectors of different dimension")
        s, t = self.den, other.den
        return _from_cleared(s * t, [a * t + b * s
                                     for a, b in zip(self.nums, other.nums)])

    def __sub__(self, other: "RatVector") -> "RatVector":
        if len(self.nums) != len(other.nums):
            raise ValueError("difference of vectors of different dimension")
        s, t = self.den, other.den
        return _from_cleared(s * t, [a * t - b * s
                                     for a, b in zip(self.nums, other.nums)])

    def __neg__(self) -> "RatVector":
        return _from_cleared(self.den, [-a for a in self.nums])

    def scale(self, c) -> "RatVector":
        c = _as_rational(c)
        return _from_cleared(self.den * c.denominator,
                             [a * c.numerator for a in self.nums])

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.nums)


def _from_cleared(den: int, nums: Iterable[int]) -> RatVector:
    """The vector nums / den for a nonzero int den of either sign, brought
    to its cleared form by one gcd."""
    nums = tuple(nums)
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = tuple(a // g for a in nums)
    v = object.__new__(RatVector)
    object.__setattr__(v, "den", den)
    object.__setattr__(v, "nums", nums)
    return v


def zero_vector(dim: int) -> RatVector:
    return RatVector([_ZERO] * dim)


def canonical_direction(v: RatVector) -> RatVector:
    """Scale a nonzero vector to integer entries, content 1, first nonzero positive."""
    return _primitive(v.nums)


def first_parallel_pair(vectors: Sequence[RatVector]) -> tuple[int, int] | None:
    """The lexicographically first index pair i < j of parallel nonzero
    vectors, or None when all directions differ."""
    first: dict[RatVector, int] = {}
    pairs = []
    for j, v in enumerate(vectors):
        i = first.setdefault(canonical_direction(v), j)
        if i != j:
            pairs.append((i, j))
    return min(pairs, default=None)


# ---------------------------------------------------------------------------
# matrices


def _width(rows: Sequence[Sequence], cols: int | None) -> int:
    """The column count of a matrix with these rows: all rows share one
    length, a given ``cols`` must equal it, and a matrix with no rows
    needs ``cols``, a non-negative int."""
    if not rows:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if _as_index(cols) < 0:
            raise ValueError(f"negative column count {cols}")
        return cols
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    if cols is not None and cols != width:
        raise ValueError(
            f"rows of length {width} in a matrix of {cols} columns")
    return width


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rational matrix: its tuple of row vectors and its width.

    Each row is given either as a ``RatVector``, kept as it is, or as a
    sequence of ints and Fractions, coerced like a vector's entries.  The
    width is part of the value: matrices with no rows and different
    ``cols`` differ."""

    row_vectors: tuple[RatVector, ...]
    cols: int

    def __init__(self, rows: Iterable[RatVector | Iterable], cols: int | None = None):
        vs = tuple(r if isinstance(r, RatVector) else RatVector(r) for r in rows)
        object.__setattr__(self, "row_vectors", vs)
        object.__setattr__(self, "cols", _width(vs, cols))

    @classmethod
    def from_columns(cls, vectors: Sequence[RatVector]) -> "RatMatrix":
        if not vectors:
            raise ValueError("no columns")
        return cls(vectors).transpose()

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @property
    def rows(self) -> int:
        return len(self.row_vectors)

    @cached_property
    def _echelon(self) -> tuple[list[list[int]], int, int, tuple[int, ...]]:
        """The cleared rows after one Bareiss elimination, the sign of its
        row swaps, the last pivot p and the pivot columns; rank, det, the
        pivot columns and kernels all read it, and none mutates the rows."""
        a = [list(v.nums) for v in self.row_vectors]
        _, sign, p, pivots = _bareiss(a)
        return a, sign, p, pivots

    def columns(self) -> tuple[RatVector, ...]:
        s, a = _common_cleared(self.row_vectors)
        return tuple(_from_cleared(s, [row[j] for row in a])
                     for j in range(self.cols))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.columns(), cols=self.rows)

    def __matmul__(self, other):
        if isinstance(other, RatVector):
            if self.cols != other.dim:
                raise ValueError("matrix and vector dimensions differ")
            s = math.lcm(*(v.den for v in self.row_vectors))
            return _from_cleared(s * other.den,
                                 [sum(map(mul, v.nums, other.nums)) * (s // v.den)
                                  for v in self.row_vectors])
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError("inner matrix dimensions differ")
            # row i of the product is other^T applied to row i
            t = other.transpose()
            return RatMatrix([t @ v for v in self.row_vectors], cols=other.cols)
        return NotImplemented

    def scale(self, c) -> "RatMatrix":
        return RatMatrix([v.scale(c) for v in self.row_vectors], cols=self.cols)


# ---------------------------------------------------------------------------
# fraction-free elimination


def _common_cleared(rows: Sequence[RatVector]) -> tuple[int, list[list[int]]]:
    """Scale all rows by one common denominator s, the lcm of the rows'
    denominators; returns s and the integer rows."""
    s = math.lcm(*(v.den for v in rows))
    return s, [[x * (s // v.den) for x in v.nums] for v in rows]


def _primitive(ints: Sequence[int]) -> RatVector:
    """Divide a nonzero integer vector by its content, first nonzero
    positive."""
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("cannot canonicalize the zero vector")
    if next(x for x in ints if x) < 0:
        g = -g
    return _from_cleared(g, ints)


def _pivot(a: list[list[int]], r: int, c: int, prev: int) -> None:
    """Fraction-free pivot on a[r][c], in place: every other row becomes
    (row * a[r][c] - row[c] * a[r]) / prev over its whole length.  With
    prev the previous pivot the division is exact (Bareiss).  Each row is
    overwritten in place, so a caller may keep a reference to it.

    A unit prev (+-1), as on every pivot of a totally unimodular system,
    divides by multiplying: no remainder check and no floor division, and
    a row with row[c] == 0 is left alone when a[r][c] == prev."""
    top = a[r]
    piv = top[c]
    unit = prev == 1 or prev == -1
    for i, row in enumerate(a):
        if i == r:
            continue
        f = row[c]
        if unit:
            if piv == prev:
                if f:
                    g = f * prev
                    row[:] = [x - g * t for x, t in zip(row, top)]
            elif f:
                row[:] = [(x * piv - f * t) * prev for x, t in zip(row, top)]
            else:
                g = piv * prev
                row[:] = [x * g for x in row]
            continue
        new = [x * piv - f * t for x, t in zip(row, top)]
        if any(x % prev for x in new):
            raise InternalFault("fraction-free elimination not exact")
        row[:] = [x // prev for x in new]


def _bareiss(a: list[list[int]]) -> tuple[int, int, int, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each pivot clears its column above and below, over whole rows; every
    division by the previous pivot is exact (Bareiss).  Returns the rank,
    the sign of the row swaps, the last pivot p and the pivot columns.
    Afterwards every pivot row holds p in its pivot column and 0 in the
    other pivot columns, so the rows divided by p are the reduced echelon
    form, and for a square matrix of full rank sign * p is the
    determinant.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if a[r][c] == 0:
            piv_row = next((i for i in range(r + 1, nrows) if a[i][c] != 0),
                           None)
            if piv_row is None:
                continue
            a[r], a[piv_row] = a[piv_row], a[r]
            sign = -sign
        _pivot(a, r, c, prev)
        prev = a[r][c]
        pivots.append(c)
    return len(pivots), sign, prev, tuple(pivots)


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix (a sequence of integer
    sequences, left untouched), fraction-free."""
    r, sign, last, _ = _bareiss([list(row) for row in a])
    return sign * last if r == len(a) else 0


def rank(m: RatMatrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return len(m._echelon[3])


def det(m: RatMatrix) -> Fraction:
    """Exact determinant, read off the cached elimination: sign * p over
    the product of the row denominators; raises NotSquare for rectangular
    input."""
    if m.rows != m.cols:
        raise NotSquare(f"determinant of a {m.rows}x{m.cols} matrix")
    _, sign, p, pivots = m._echelon
    if len(pivots) < m.rows:
        return _ZERO
    return Fraction(sign * p, math.prod(v.den for v in m.row_vectors))


# ---------------------------------------------------------------------------
# kernels, inverses


def _integer_kernel(m: RatMatrix) -> tuple[int, list[list[int]]]:
    """The last pivot p of the cleared rows of m and one integer kernel
    vector per free column: p there, minus that column of the eliminated
    rows at the pivot columns, 0 at the other free columns."""
    a, _, p, pivots = m._echelon
    out = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [0] * m.cols
        v[free] = p
        for row, c in zip(a, pivots):
            v[c] = -row[free]
        out.append(v)
    return p, out


def kernel_basis(m: RatMatrix) -> tuple[RatVector, ...]:
    """Deterministic basis of the right kernel, one vector per free column."""
    p, vectors = _integer_kernel(m)
    return tuple(_from_cleared(p, v) for v in vectors)


def kernel_line(m: RatMatrix) -> RatVector:
    """The one-dimensional kernel of a rank d-1 matrix with d columns.

    The result is canonical: integer entries with content 1 and positive
    first nonzero entry.
    """
    _, vectors = _integer_kernel(m)
    if len(vectors) != 1:
        raise RankMismatch(f"kernel line needs rank {m.cols - 1}, "
                           f"got rank {m.cols - len(vectors)}")
    return _primitive(vectors[0])


def independent_spans(vectors: Sequence[RatVector], k: int,
                      kernel: Callable[[RatMatrix], Hashable]
                      ) -> Iterator[tuple[tuple[int, ...], Hashable]]:
    """Yield (subset, kernel(m)) once per rank-k span of k of the vectors.

    Index subsets are scanned in lexicographic order; each span is
    reported with the first subset spanning it.  The scan runs on
    directions: each nonzero vector is scaled to its canonical direction
    (integer, content 1) and a zero vector is kept, so m, which ``rank``
    and ``kernel`` receive, holds the directions of the rows the subset
    picks, as small integers.  Rescaling a row changes no row space, so no
    rank, subset or key either.  ``kernel`` must give equal values exactly
    on equal row spaces, as ``kernel_line`` and ``kernel_basis`` do; that
    value deduplicates.  ``rank`` and ``kernel`` share one elimination of m.
    """
    dim = vectors[0].dim
    rows = [v if v.is_zero() else canonical_direction(v) for v in vectors]
    seen = set()
    for subset in itertools.combinations(range(len(rows)), k):
        m = RatMatrix([rows[i] for i in subset], dim)
        if rank(m) != k:
            continue
        key = kernel(m)
        if key in seen:
            continue
        seen.add(key)
        yield subset, key


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse; raises Singular when det is 0.

    Elimination turns the cleared rows of [m | I] into [p I | p m^-1]
    exactly when the pivots are the first n columns.
    """
    if m.rows != m.cols:
        raise NotSquare(f"inverse of a {m.rows}x{m.cols} matrix")
    n = m.rows
    a = [list(v.nums) + [v.den if i == j else 0 for j in range(n)]
         for i, v in enumerate(m.row_vectors)]
    _, _, p, pivots = _bareiss(a)
    if pivots != tuple(range(n)):
        raise Singular("matrix is singular")
    return RatMatrix([_from_cleared(p, row[n:]) for row in a], cols=n)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice basis; columns of ``basis`` are the basis vectors.
    ``inverse``, computed once, maps space to lattice coordinates."""

    basis: RatMatrix
    inverse: RatMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.basis.rows != self.basis.cols:
            raise NotSquare("lattice basis matrix must be square")
        try:
            object.__setattr__(self, "inverse", inverse(self.basis))
        except Singular:
            raise Singular("lattice basis columns are dependent") from None

    @property
    def dimension(self) -> int:
        return self.basis.rows

    @property
    def vectors(self) -> tuple[RatVector, ...]:
        return self.basis.columns()


def _column_hnf(cols: list[list[int]], dim: int) -> list[list[int]]:
    """Column-style Hermite normal form of an integer column list.

    Returns the pivot columns in staircase order: per pivot row a positive
    pivot entry, zeros above it, and earlier columns reduced modulo it.
    """
    work = [c[:] for c in cols if any(c)]
    fixed: list[list[int]] = []
    for r in range(dim):
        live = [c for c in work if c[r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            piv = live[0]
            for c in live[1:]:
                q = c[r] // piv[r]
                for i in range(dim):
                    c[i] -= q * piv[i]
            live = [c for c in live if c[r] != 0]
        if not live:
            continue
        piv = live[0]
        work.remove(piv)
        if piv[r] < 0:
            piv[:] = [-x for x in piv]
        fixed.append(piv)
    # reduce entries left of each pivot
    for k in range(1, len(fixed)):
        pk = fixed[k]
        r = next(i for i in range(dim) if pk[i] != 0)
        for j in range(k):
            q = fixed[j][r] // pk[r]
            if q:
                for i in range(dim):
                    fixed[j][i] -= q * pk[i]
    return fixed


def _hnf_matrix(generators: Sequence[RatVector]) -> RatMatrix:
    """Canonical basis matrix (basis vectors as columns) of the lattice
    generated by rational vectors.

    All generators are scaled by one common denominator, reduced to integer
    Hermite normal form, and scaled back, so the result is deterministic.
    Raises DegenerateSpan when the generators do not span the space.
    """
    if not generators:
        raise DegenerateSpan("no generators")
    dim = generators[0].dim
    if any(g.dim != dim for g in generators):
        raise ValueError("generators of mixed dimension")
    den, cols = _common_cleared(generators)
    fixed = _column_hnf(cols, dim)
    if len(fixed) < dim:
        raise DegenerateSpan(
            f"generators span a rank {len(fixed)} sublattice of rank {dim} space")
    return RatMatrix([_from_cleared(den, [fixed[j][i] for j in range(dim)])
                      for i in range(dim)], cols=dim)


def hnf_lattice_basis(generators: Sequence[RatVector]) -> LatticeBasis:
    """Canonical basis of the lattice generated by rational vectors (see
    ``_hnf_matrix``); raises DegenerateSpan when they do not span."""
    return LatticeBasis(_hnf_matrix(generators))


def dual_lattice_basis(b: LatticeBasis) -> LatticeBasis:
    """Dual lattice basis: the inverse transpose of the primal basis."""
    return LatticeBasis(b.inverse.transpose())


def lattice_contains(b: LatticeBasis, v: RatVector) -> bool:
    """True when v is an integer combination of the basis vectors."""
    return (b.inverse @ v).den == 1


def same_lattice(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Lattice equality through canonical Hermite forms; no basis built
    from them is inverted."""
    return _hnf_matrix(a.vectors) == _hnf_matrix(b.vectors)
