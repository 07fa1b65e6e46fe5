"""Test-only oracles and tooling: nothing in the package calls these.

``hull_facet_planes`` is the independent hull cross-check of acceptance
criterion 8, ``apply_affine`` moves a dicing by an invertible matrix for
the metamorphic tests, and ``rref`` reads the reduced echelon form off a
matrix's cached elimination.
"""

import itertools
from fractions import Fraction

from zonocert import (EdgeSet, NormalSet, RatMatrix, RatVector, inverse,
                      kernel_line, rank)
from zonocert.errors import Singular


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns."""
    a, _, p, pivots = m._echelon
    return RatMatrix([[Fraction(x, p) for x in row] for row in a],
                     cols=m.cols), pivots


def apply_affine(ns: NormalSet, es: EdgeSet, m: RatMatrix) -> tuple[NormalSet, EdgeSet]:
    """Transform a dicing by an invertible matrix.

    Points move by m, so edges move by m and normals by the inverse
    transpose; all normal-edge pairings are preserved exactly.
    """
    if m.rows != m.cols or m.rows != ns.dimension:
        raise Singular("transform must be square of the ambient dimension")
    inv_t = inverse(m).transpose()
    new_ns = NormalSet(ns.dimension, [inv_t @ v for v in ns.normals], ns.weights)
    new_es = EdgeSet(es.dimension, [m @ e for e in es.edges], es.provenance)
    return new_ns, new_es


def hull_facet_planes(points: list[RatVector]) -> tuple[tuple[RatVector, Fraction], ...]:
    """Supporting hyperplanes of conv(points) spanned by d of the points.

    Returns (outward normal, support) pairs with canonical integer
    normals; both members of an opposite facet pair appear.  Intended as
    an independent cross-check against facet enumeration.
    """
    if not points:
        return ()
    d = points[0].dim
    found: dict[tuple, tuple[RatVector, Fraction]] = {}
    for subset in itertools.combinations(points, d):
        diffs = [q - subset[0] for q in subset[1:]]
        m = RatMatrix(diffs, cols=d)
        if rank(m) != d - 1:
            continue
        normal = kernel_line(m)
        values = [normal.dot(q) for q in points]
        h = normal.dot(subset[0])
        if max(values) == h:
            found[(normal.entries, h)] = (normal, h)
        if min(values) == h:
            neg = -normal
            found[(neg.entries, -h)] = (neg, -h)
    return tuple(found[k] for k in sorted(found))
