"""Hyperplane dicings: normal sets, edge sets, and 0/+-1 representations.

A dicing is described by one normal per parallel family of hyperplanes,
together with a positive weight per family.  The defining property used
throughout is combinatorial: every d-1 independent normals single out a
kernel line, that line must carry an edge vector whose scalar products
with all normals are 0 or +-1, and distinct subsets must agree on the
scale of that edge.  compute_edge_set either produces the full edge set
or raises NotADicing with an explicit witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InvalidNormalSet, NonIntegerEntries, NotADicing,
                     RepresentationCheckFailed)
from .ratgeom import (RatMatrix, RatVector, _as_index, _as_rational,
                      _bareiss_det, first_parallel_pair, independent_spans,
                      inverse, kernel_line, rank)


@dataclass(frozen=True)
class NormalSet:
    """One normal and one positive weight per hyperplane family.

    The dimension must be an int and the weights int or Fraction; bools,
    floats and strings raise TypeError.
    """

    dimension: int
    normals: tuple[RatVector, ...]
    weights: tuple[Fraction, ...]

    def __init__(self, dimension, normals, weights):
        object.__setattr__(self, "dimension", _as_index(dimension))
        object.__setattr__(self, "normals", tuple(normals))
        object.__setattr__(self, "weights",
                           tuple(_as_rational(w) for w in weights))
        self._validate()

    def _validate(self):
        d = self.dimension
        if d < 1:
            raise InvalidNormalSet("dimension must be at least 1")
        if len(self.normals) != len(self.weights):
            raise InvalidNormalSet("one weight per normal required")
        if not self.normals:
            raise InvalidNormalSet("at least one normal required")
        for k, v in enumerate(self.normals):
            if v.dim != d:
                raise InvalidNormalSet(f"normal {k} has dimension {v.dim}, expected {d}")
            if v.is_zero():
                raise InvalidNormalSet(f"normal {k} is zero")
        for k, w in enumerate(self.weights):
            if w <= 0:
                raise InvalidNormalSet(f"weight {k} is not positive")
        pair = first_parallel_pair(self.normals)
        if pair is not None:
            raise InvalidNormalSet("normals {} and {} are parallel".format(*pair))
        if rank(RatMatrix(self.normals)) != d:
            raise InvalidNormalSet("normals do not span the space")


@dataclass(frozen=True)
class EdgeSet:
    """Half set of dicing edges, one per kernel line, with provenance.

    ``provenance[k]`` is the first index subset of normals whose kernel
    line produced ``edges[k]``.  The dimension and the indices must be ints.
    """

    dimension: int
    edges: tuple[RatVector, ...]
    provenance: tuple[tuple[int, ...], ...]

    def __init__(self, dimension, edges, provenance):
        object.__setattr__(self, "dimension", _as_index(dimension))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "provenance",
                           tuple(tuple(map(_as_index, p)) for p in provenance))
        if len(self.edges) != len(self.provenance):
            raise ValueError("one provenance subset per edge required")
        for k, e in enumerate(self.edges):
            if e.dim != self.dimension:
                raise ValueError(f"edge {k} has dimension {e.dim}, "
                                 f"expected {self.dimension}")
            if e.is_zero():
                raise ValueError(f"edge {k} is zero")
        pair = first_parallel_pair(self.edges)
        if pair is not None:
            raise ValueError("edges {} and {} are parallel".format(*pair))


def compute_edge_set(ns: NormalSet) -> EdgeSet:
    """Edge set of a dicing, or NotADicing with a witness.

    For every d-1 element subset of normals with rank d-1, the kernel
    line is computed exactly.  The nonzero scalar products of all normals
    with that line must share a single absolute value a; dividing by a
    yields the edge, whose products with every normal are then 0 or +-1.
    Subsets spanning the same hyperplane are deduplicated up front, which
    also enforces scale consistency across subsets.
    """
    d = ns.dimension
    edges: list[RatVector] = []
    provenance: list[tuple[int, ...]] = []
    for subset, line in independent_spans(ns.normals, d - 1, kernel_line):
        products = tuple(v.dot(line) for v in ns.normals)
        magnitudes = {abs(p) for p in products if p != 0}
        if len(magnitudes) != 1:
            raise NotADicing(
                "kernel line of subset "
                f"{subset} meets the normals at more than one spacing",
                subset=subset, kernel=line.entries, products=products)
        a = magnitudes.pop()
        edges.append(line.scale(Fraction(1) / a))
        provenance.append(subset)
    return EdgeSet(d, edges, provenance)


@dataclass(frozen=True)
class DicingRep:
    """Affine 0/+-1 representation of a dicing.

    ``transform`` is L = B^T for B the first d independent normals;
    ``normals_matrix`` holds (L^-1)^T applied to the normals and
    ``edges_matrix`` holds L applied to the edges, one column each, with
    edge signs chosen so the d edges dual to B map to +standard basis.
    """

    transform: RatMatrix
    normals_matrix: RatMatrix
    edges_matrix: RatMatrix
    edge_signs: tuple[int, ...]


def first_basis_indices(ns: NormalSet) -> tuple[int, ...]:
    """Indices of the first d independent normals: the pivot columns of
    the matrix whose columns are the normals, d of them as a NormalSet
    spans the space."""
    return RatMatrix.from_columns(ns.normals)._echelon[3]


def dual_edge_indices(ns: NormalSet, es: EdgeSet,
                      b_idx: tuple[int, ...]) -> tuple[int | None, ...]:
    """Per basis normal b_idx[k], the index of the first edge orthogonal to
    the other basis normals but not to it, or None when no edge is."""
    out = []
    for i in b_idx:
        others = [ns.normals[j] for j in b_idx if j != i]
        out.append(next(
            (k for k, e in enumerate(es.edges)
             if all(w.dot(e) == 0 for w in others) and ns.normals[i].dot(e) != 0),
            None))
    return tuple(out)


def is_totally_unimodular(m: RatMatrix) -> bool:
    """Exhaustive minor check: every square minor is 0 or +-1.

    Exponential in the matrix size; meant for the desk scale this package
    targets.  Raises NonIntegerEntries when some entry is fractional.
    """
    if any(v.den != 1 for v in m.row_vectors):
        raise NonIntegerEntries("total unimodularity needs integer entries")
    columns = list(zip(*(v.nums for v in m.row_vectors)))
    for k in range(1, min(m.rows, m.cols) + 1):
        for rows_sub in itertools.combinations(range(m.rows), k):
            # each column cut to the row subset; a minor is k of these,
            # its transpose, with the same |det|
            cut = [tuple(col[i] for i in rows_sub) for col in columns]
            for cols_sub in itertools.combinations(cut, k):
                if abs(_bareiss_det(cols_sub)) > 1:
                    return False
    return True


def unimodular_representation(ns: NormalSet, es: EdgeSet) -> DicingRep:
    """Totally unimodular coordinates for a dicing and its edge set.

    In the coordinates of the basis B of first independent normals the
    normals and edges become 0/+-1 matrices, each containing the standard
    basis, and the normal matrix is totally unimodular.  Any violation
    raises RepresentationCheckFailed.
    """
    b_idx = first_basis_indices(ns)
    b_mat = RatMatrix.from_columns([ns.normals[i] for i in b_idx])
    transform = b_mat.transpose()
    b_inv = inverse(b_mat)

    normals_cols = [b_inv @ v for v in ns.normals]

    dual = dual_edge_indices(ns, es, b_idx)
    for i, e_idx in zip(b_idx, dual):
        if e_idx is None:
            raise RepresentationCheckFailed(
                f"no edge is dual to basis normal {i}")

    signs = [1] * len(es.edges)
    for i, e_idx in zip(b_idx, dual):
        pairing = ns.normals[i].dot(es.edges[e_idx])
        if abs(pairing) != 1:
            raise RepresentationCheckFailed(
                f"edge {e_idx} pairs {pairing} with basis normal {i}")
        signs[e_idx] = 1 if pairing == 1 else -1

    edges_cols = [(transform @ e).scale(s) for e, s in zip(es.edges, signs)]

    for label, cols in (("normal", normals_cols), ("edge", edges_cols)):
        for k, col in enumerate(cols):
            for e in col.entries:
                if e not in (-1, 0, 1):
                    raise RepresentationCheckFailed(
                        f"{label} column {k} has entry {e} outside 0/+-1")

    # B^-1 b_k = e_k, and b_k's dual edge, signed to pair +1, maps to e_k
    normals_matrix = RatMatrix.from_columns(normals_cols)
    if not is_totally_unimodular(normals_matrix):
        raise RepresentationCheckFailed("normal matrix is not totally unimodular")
    edges_matrix = RatMatrix.from_columns(edges_cols)
    return DicingRep(transform, normals_matrix, edges_matrix, tuple(signs))
