"""Exact linear algebra over the rationals.

Vectors and matrices store ``fractions.Fraction`` entries, so every rank,
determinant, kernel, and Hermite form below is computed without rounding.
Rank, determinant, reduced echelon form, kernels and inverses all come
from one fraction-free Gauss-Jordan loop (Bareiss) over integer-cleared
rows; kernels are read off its integer rows as integer vectors, with no
rational echelon form in between.  The same pivot step, ``_pivot``, also
drives the integer simplex tableau of the hull oracle in ``zonotope`` and
the integer Schur complements behind the positive definiteness check of
quadratic forms and the short-vector enumeration of the cell oracle in
``parallelohedron``.  Only the Hermite form has its own integer column
reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .errors import DegenerateSpan, InternalFault, NotSquare, RankMismatch, Singular

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_rational(x) -> Fraction:
    """Coerce int or Fraction; reject floats to keep arithmetic exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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


@dataclass(frozen=True)
class RatVector:
    """Immutable rational vector."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries",
                           tuple(_as_rational(e) for e in entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def dot(self, other: "RatVector") -> Fraction:
        if self.dim != other.dim:
            raise ValueError("dot product of vectors of different dimension")
        return sum((a * b for a, b in zip(self.entries, other.entries)), _ZERO)

    def __add__(self, other: "RatVector") -> "RatVector":
        return RatVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "RatVector") -> "RatVector":
        return RatVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "RatVector":
        return RatVector(-a for a in self.entries)

    def scale(self, c) -> "RatVector":
        c = _as_rational(c)
        return RatVector(c * a for a in self.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def zero_vector(dim: int) -> RatVector:
    return RatVector([_ZERO] * dim)


def unit_vector(dim: int, i: int) -> RatVector:
    return RatVector([_ONE if j == i else _ZERO for j in range(dim)])


def canonical_direction(v: RatVector) -> RatVector:
    """Scale a nonzero vector to integer entries, content 1, first nonzero positive."""
    (ints,), _ = _cleared_rows([v.entries])
    return _primitive(ints)


def first_parallel_pair(vectors: Sequence[RatVector]) -> tuple[int, int] | None:
    """The lexicographically first index pair i < j of parallel nonzero
    vectors, or None when all directions differ."""
    first: dict[tuple[Fraction, ...], int] = {}
    pairs = []
    for j, v in enumerate(vectors):
        i = first.setdefault(canonical_direction(v).entries, j)
        if i != j:
            pairs.append((i, j))
    return min(pairs, default=None)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rational matrix, row major."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(_as_rational(e) for e in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, vectors: Sequence[RatVector], cols: int | None = None) -> "RatMatrix":
        if not vectors:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            m = cls.__new__(cls)
            object.__setattr__(m, "entries", ())
            object.__setattr__(m, "_empty_cols", cols)
            return m
        return cls(v.entries for v in vectors)

    @classmethod
    def from_columns(cls, vectors: Sequence[RatVector]) -> "RatMatrix":
        if not vectors:
            raise ValueError("no columns")
        dim = vectors[0].dim
        return cls([[v[i] for v in vectors] for i in range(dim)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)]
                    for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        if not self.entries:
            return getattr(self, "_empty_cols", 0)
        return len(self.entries[0])

    def row(self, i: int) -> RatVector:
        return RatVector(self.entries[i])

    def column(self, j: int) -> RatVector:
        return RatVector(r[j] for r in self.entries)

    def columns(self) -> tuple[RatVector, ...]:
        return tuple(self.column(j) for j in range(self.cols))

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __matmul__(self, other):
        if isinstance(other, RatVector):
            if self.cols != other.dim:
                raise ValueError("matrix and vector dimensions differ")
            return RatVector(self.row(i).dot(other) for i in range(self.rows))
        if isinstance(other, RatMatrix):
            if self.cols != other.rows:
                raise ValueError("inner matrix dimensions differ")
            cols = other.cols
            return RatMatrix([[sum((self.entries[i][k] * other.entries[k][j]
                                    for k in range(self.cols)), _ZERO)
                               for j in range(cols)]
                              for i in range(self.rows)])
        return NotImplemented

    def scale(self, c) -> "RatMatrix":
        c = _as_rational(c)
        return RatMatrix([[c * e for e in row] for row in self.entries])


# ---------------------------------------------------------------------------
# fraction-free elimination


def _cleared_rows(rows: Iterable[Sequence[Fraction]]
                  ) -> tuple[list[list[int]], int]:
    """Clear denominators row by row; returns integer rows and the product
    of the scaling factors (for determinant correction)."""
    out = []
    factor = 1
    for row in rows:
        den = math.lcm(*(e.denominator for e in row)) if row else 1
        out.append([e.numerator * (den // e.denominator) for e in row])
        factor *= den
    return out, factor


def _common_cleared(rows: Sequence[Sequence[Fraction]]
                    ) -> tuple[int, list[list[int]]]:
    """Scale all rows by one common denominator s, the lcm of every
    entry's denominator; returns s and the integer rows."""
    s = math.lcm(*(e.denominator for row in rows for e in row))
    return s, [[e.numerator * (s // e.denominator) for e in row] for row in rows]


def _primitive(ints: Sequence[int]) -> RatVector:
    """Divide a nonzero integer vector by its content, first nonzero positive."""
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("cannot canonicalize the zero vector")
    if next(x for x in ints if x) < 0:
        g = -g
    return RatVector(x // g for x in ints)


def _pivot(a: list[list[int]], r: int, c: int, prev: int,
           starts: Sequence[int] = ()) -> None:
    """Fraction-free pivot on a[r][c], in place: every other row i becomes
    (row * a[r][c] - row[c] * a[r]) / prev from column starts[i] (or 0)
    on.  With prev the previous pivot the division is exact (Bareiss)."""
    top = a[r]
    piv = top[c]
    for i, row in enumerate(a):
        if i == r:
            continue
        lo = starts[i] if starts else 0
        f = row[c]
        new = [x * piv - f * t for x, t in zip(row[lo:], top[lo:])]
        if any(x % prev for x in new):
            raise InternalFault("fraction-free elimination not exact")
        row[lo:] = [x // prev for x in new]


def _bareiss(a: list[list[int]]) -> tuple[int, int, int, tuple[int, ...]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each pivot clears its column above and below; every division by the
    previous pivot is exact (Bareiss).  Returns the rank, the sign of the
    row swaps, the last pivot p and the pivot columns.  Afterwards every
    pivot row holds p in its pivot column and 0 in the other pivot
    columns, so the rows divided by p are the reduced echelon form, and
    for a square matrix of full rank sign * p is the determinant.
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
        # rows above start at their own pivot, rows below at column c;
        # everything left of that is already 0
        _pivot(a, r, c, prev, pivots + [c] * (nrows - r))
        prev = a[r][c]
        pivots.append(c)
    return len(pivots), sign, prev, tuple(pivots)


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    r, sign, last, _ = _bareiss([row[:] for row in a])
    return sign * last if r == len(a) else 0


def rank(m: RatMatrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    a, _ = _cleared_rows(m.entries)
    return _bareiss(a)[0]


def det(m: RatMatrix) -> Fraction:
    """Exact determinant; raises NotSquare for rectangular input."""
    if m.rows != m.cols:
        raise NotSquare(f"determinant of a {m.rows}x{m.cols} matrix")
    a, factor = _cleared_rows(m.entries)
    return Fraction(_bareiss_det(a), factor)


# ---------------------------------------------------------------------------
# echelon forms, kernels, inverses


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    if not m.entries:
        return RatMatrix.from_rows([], cols=m.cols), ()
    a, _ = _cleared_rows(m.entries)
    _, _, p, pivots = _bareiss(a)
    return RatMatrix([[Fraction(x, p) for x in row] for row in a]), pivots


def _integer_kernel(m: RatMatrix) -> tuple[int, list[list[int]]]:
    """The last pivot p of the cleared rows of m and one integer kernel
    vector per free column: p there, minus that column of the eliminated
    rows at the pivot columns, 0 at the other free columns."""
    a, _ = _cleared_rows(m.entries)
    _, _, p, pivots = _bareiss(a)
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
    return tuple(RatVector(Fraction(x, p) for x in v) for v in vectors)


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

    Index subsets are scanned in lexicographic order and m holds the rows
    they pick; each span is reported with the first subset spanning it.
    ``kernel`` must give equal values exactly on equal row spaces, as
    ``kernel_line`` and ``kernel_basis`` do; that value deduplicates.
    """
    dim = vectors[0].dim
    seen = set()
    for subset in itertools.combinations(range(len(vectors)), k):
        m = RatMatrix.from_rows([vectors[i] for i in subset], cols=dim)
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
    a, _ = _cleared_rows(row + tuple(_ONE if i == j else _ZERO for j in range(n))
                         for i, row in enumerate(m.entries))
    _, _, p, pivots = _bareiss(a)
    if pivots != tuple(range(n)):
        raise Singular("matrix is singular")
    return RatMatrix([[Fraction(x, p) for x in row[n:]] for row in a])


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


def hnf_lattice_basis(generators: Sequence[RatVector]) -> LatticeBasis:
    """Canonical basis of the lattice generated by rational vectors.

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
    matrix = RatMatrix([[Fraction(fixed[j][i], den) for j in range(dim)]
                        for i in range(dim)])
    return LatticeBasis(matrix)


def dual_lattice_basis(b: LatticeBasis) -> LatticeBasis:
    """Dual lattice basis: the inverse transpose of the primal basis."""
    return LatticeBasis(b.inverse.transpose())


def lattice_coordinates(b: LatticeBasis, v: RatVector) -> RatVector:
    """Coordinates of v in the basis, exact."""
    return b.inverse @ v


def lattice_contains(b: LatticeBasis, v: RatVector) -> bool:
    """True when v is an integer combination of the basis vectors."""
    return all(c.denominator == 1 for c in lattice_coordinates(b, v))


def same_lattice(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Lattice equality through canonical Hermite forms."""
    ha = hnf_lattice_basis(a.vectors)
    hb = hnf_lattice_basis(b.vectors)
    return ha.basis.entries == hb.basis.entries
