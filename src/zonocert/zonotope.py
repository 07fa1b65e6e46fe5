"""Centered zonotopes with exact facet and ridge combinatorics.

A zonotope here is the set of sums sum t_i v_i with t_i in [-1/2, 1/2],
so it is centrally symmetric about the origin by construction.  Facet
normals come from rank d-1 generator subsets; the independent cross-check
``vertices_oracle`` keeps each of the 2^n signed generator sums that an
exact phase-1 LP puts outside the hull of the others, the same rule for
every d <= 3, using no zonotope combinatorics at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (DimensionTooLarge, DimensionTooSmall, InternalFault,
                     InvalidZonotope, SpanDeficient)
from .ratgeom import (RatMatrix, RatVector, _as_index, _pivot,
                      canonical_direction, independent_spans, kernel_basis,
                      kernel_line, rank, zero_vector)

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

PARALLELOGRAM = "parallelogram"
HEXAGON = "hexagon"
OTHER = "other"


@dataclass(frozen=True)
class Zonotope:
    """Zonotope sum of centered segments [-v/2, v/2].

    Parallel input generators are merged at construction: a later v with
    v == c*g extends the earlier generator g to (1 + |c|)*g, keeping the
    first seen orientation.  Generators must be nonzero and span the
    ambient space; the dimension must be an int.
    """

    dimension: int
    generators: tuple[RatVector, ...]

    def __init__(self, dimension, generators):
        d = _as_index(dimension)
        # canonical direction -> merged generator, in order of first sight
        merged: dict[RatVector, RatVector] = {}
        for k, v in enumerate(generators):
            if v.dim != d:
                raise InvalidZonotope(f"generator {k} has dimension {v.dim}, expected {d}")
            if v.is_zero():
                raise InvalidZonotope(f"generator {k} is zero")
            key = canonical_direction(v)
            if key in merged:
                g = merged[key]
                c = v.dot(g) / g.dot(g)
                v = g.scale(1 + abs(c))
            merged[key] = v
        gens = tuple(merged.values())
        if rank(RatMatrix(gens, cols=d)) != d:
            raise SpanDeficient("generators do not span the ambient space")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "generators", gens)


@dataclass(frozen=True)
class FacetDescriptor:
    """One facet of the +- pair with the given outward normal."""

    normal: RatVector
    support: Fraction
    generator_subset: tuple[int, ...]
    center: RatVector


def facets(z: Zonotope) -> tuple[FacetDescriptor, ...]:
    """One descriptor per facet pair, in order of first spanning subset.

    Each rank d-1 subset of generators spans a candidate facet hyperplane;
    the facet support is half the sum of |normal . v| over all generators
    and the facet center is half the signed sum of the generators off the
    hyperplane.
    """
    d = z.dimension
    gens = z.generators
    out: list[FacetDescriptor] = []
    for _, normal in independent_spans(gens, d - 1, kernel_line):
        products = [normal.dot(g) for g in gens]
        support = sum((abs(p) for p in products), _ZERO) * _HALF
        on_facet = tuple(i for i, p in enumerate(products) if p == 0)
        center = sum((g.scale(_HALF if p > 0 else -_HALF)
                      for g, p in zip(gens, products) if p), zero_vector(d))
        out.append(FacetDescriptor(normal, support, on_facet, center))
    return tuple(out)


@dataclass(frozen=True)
class RidgeClass:
    """A rank d-2 generator flat and the shape of the ridge figure on it."""

    flat: tuple[int, ...]
    direction_count: int
    classification: str


def ridge_classification(z: Zonotope) -> tuple[RidgeClass, ...]:
    """Classify every ridge flat by its projected generator directions.

    Projecting along a rank d-2 generator flat maps the remaining
    generators to the plane; 2 distinct directions give a parallelogram
    ridge figure, 3 a hexagon, more fall in the catch-all class.
    """
    d = z.dimension
    if d < 2:
        raise DimensionTooSmall("ridges need dimension at least 2")
    gens = z.generators
    out: list[RidgeClass] = []
    for subset, (k1, k2) in independent_spans(gens, d - 2, kernel_basis):
        directions: set[RatVector] = set()
        for g in gens:
            image = RatVector([k1.dot(g), k2.dot(g)])
            if image.is_zero():
                continue
            directions.add(canonical_direction(image))
        count = len(directions)
        if count < 2:
            raise InternalFault("projected generators collapse to a line")
        shape = PARALLELOGRAM if count == 2 else HEXAGON if count == 3 else OTHER
        out.append(RidgeClass(subset, count, shape))
    return tuple(out)


@dataclass(frozen=True)
class VenkovReport:
    """Outcome of the ridge conditions for space filling by translations."""

    holds: bool
    ridges: tuple[RidgeClass, ...]
    witnesses: tuple[RidgeClass, ...]

    def __bool__(self) -> bool:
        return self.holds


def venkov_check(z: Zonotope) -> VenkovReport:
    """Check the conditions for tiling space by translates.

    Central symmetry of the body and of every facet holds for any
    zonotope by construction; what remains is that every ridge figure is
    a parallelogram or a hexagon.  Offending ridges are reported.
    """
    ridges = ridge_classification(z)
    witnesses = tuple(r for r in ridges
                      if r.classification not in (PARALLELOGRAM, HEXAGON))
    return VenkovReport(holds=not witnesses, ridges=ridges,
                        witnesses=witnesses)


# ---------------------------------------------------------------------------
# independent hull oracle


def _in_convex_hull(p: tuple[Fraction, ...],
                    pts: list[tuple[Fraction, ...]]) -> bool:
    """Exact membership of p in conv(pts) via a phase-1 simplex.

    Feasibility of: lambda >= 0, sum lambda = 1, sum lambda q = p.  The
    tableau is integer: cleared constraint rows with nonnegative right-hand
    sides, identity artificials, and last the cost row of the sum of the
    artificials, all updated by fraction-free pivots.  Every pivot is
    positive, so each entry keeps the sign of the value it scales.  Bland's
    rule on entering and leaving variables guarantees termination.
    """
    if not pts:
        return False
    n = len(pts)
    m = len(p) + 1
    rows = [RatVector([q[r] for q in pts] + [p[r]]).nums for r in range(m - 1)]
    rows.append((1,) * (n + 1))
    rows = [[-x for x in row] if row[-1] < 0 else list(row) for row in rows]
    sums = [sum(col) for col in zip(*rows)]
    tableau = [row[:n] + [int(i == r) for i in range(m)] + row[n:]
               for r, row in enumerate(rows)]
    tableau.append(sums[:n] + [0] * m + sums[n:])
    cost = tableau[m]
    basis = list(range(n, n + m))
    prev = 1
    while True:
        enter = next((j for j in range(n + m) if cost[j] > 0), None)
        if enter is None:
            return cost[-1] == 0
        leave = min((i for i in range(m) if tableau[i][enter] > 0),
                    key=lambda i: (Fraction(tableau[i][-1], tableau[i][enter]),
                                   basis[i]), default=None)
        if leave is None:
            raise InternalFault("phase-1 simplex is unbounded")
        _pivot(tableau, leave, enter, prev)
        prev = tableau[leave][enter]
        basis[leave] = enter


def _extreme_points(points: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    """Sorted distinct points that lie outside the hull of the others."""
    pts = sorted(set(points))
    return [p for i, p in enumerate(pts)
            if not _in_convex_hull(p, pts[:i] + pts[i + 1:])]


def vertices_oracle(z: Zonotope) -> tuple[RatVector, ...]:
    """Vertex set by brute force, independent of facet combinatorics.

    Enumerates all 2^n signed sums (1/2) sum +-v_i and keeps, in sorted
    order, each sum that the exact phase-1 LP of ``_in_convex_hull`` puts
    outside the hull of the other sums.  Exponential in the generator
    count; usable for dimension at most 3 at desk scale.
    """
    d = z.dimension
    if d > 3:
        raise DimensionTooLarge("vertex oracle supports dimension at most 3")
    sums: list[tuple[Fraction, ...]] = [tuple([_ZERO] * d)]
    for g in z.generators:
        half = [e * _HALF for e in g.entries]
        nxt = []
        for s in sums:
            nxt.append(tuple(a + b for a, b in zip(s, half)))
            nxt.append(tuple(a - b for a, b in zip(s, half)))
        sums = nxt
    return tuple(RatVector(p) for p in _extreme_points(sums))
