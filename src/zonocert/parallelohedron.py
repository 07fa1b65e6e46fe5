"""Dirichlet-Voronoi cells of dicing lattices and their certification.

The pipeline: a weighted normal set induces a positive definite form Q,
zone vectors generate the candidate cell as a zonotope, each facet gives
the lattice vector twice its centre, checked on the Q-bisector, and the
certificate records that these facet vectors coincide with the dicing
edges up to sign and contain a basis of the lattice with determinant
+-1 in lattice coordinates.  An independent brute-force cell oracle and
a verifier that re-checks certificates from raw fields are included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dicing import (EdgeSet, NormalSet, compute_edge_set, dual_edge_indices,
                     first_basis_indices, unimodular_representation)
from .errors import (BasisCheckFailed, CertificationError, DimensionMismatch,
                     DimensionTooLarge, DualityViolation, EnumerationInsufficient,
                     InternalFault, Mismatch, NotInLattice, NotPositiveDefinite,
                     ZonocertError)
from .ratgeom import (LatticeBasis, RatMatrix, RatVector, _bareiss,
                      _common_cleared, _from_cleared, _pivot, det,
                      dual_lattice_basis,
                      hnf_lattice_basis, inverse, lattice_contains, rank,
                      same_lattice)
from .zonotope import FacetDescriptor, Zonotope, facets

_HALF = Fraction(1, 2)
RADIUS_MULTIPLIER = 4  # the cell oracle's enumeration radius, see _cell_data


def _schur_blocks(g: list[list[int]]) -> list[tuple[int, list[list[int]]]]:
    """Per level j of a symmetric integer matrix g, the leading principal
    minor D_j of order j (D_0 = 1) and the trailing block S_j that j
    fraction-free pivot steps on the diagonal leave.

    By Sylvester's identity S_j / D_j is the Schur complement of the
    leading j x j block, so with c_T = (c_j, ..., c_{n-1}) the minimum of
    c^T g c over real c_0, ..., c_{j-1} is c_T^T S_j c_T / D_j.  The pivot
    S_j[0][0] is D_{j+1}; the first one that is not positive names the
    first leading principal minor that is not positive.
    """
    out = []
    prev, block = 1, g
    for j in range(len(g)):
        out.append((prev, block))
        piv = block[0][0]
        if piv <= 0:
            raise NotPositiveDefinite(
                f"leading principal minor of order {j + 1} is not positive")
        work = [row[:] for row in block]
        _pivot(work, 0, 0, prev)
        prev, block = piv, [row[1:] for row in work[1:]]
    return out


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric positive definite rational form."""

    matrix: RatMatrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != m.cols:
            raise NotPositiveDefinite("form matrix must be square")
        if m != m.transpose():
            raise NotPositiveDefinite("form matrix must be symmetric")
        # a positive common scale keeps the sign of every leading minor
        _schur_blocks(_common_cleared(m.row_vectors)[1])

    @property
    def dimension(self) -> int:
        return self.matrix.rows

    def value(self, v: RatVector) -> Fraction:
        return v.dot(self.matrix @ v)


def quadratic_form(ns: NormalSet) -> QuadraticForm:
    """Weighted sum of rank one forms, one per hyperplane family:
    Q = N^T (W N) with the normals as rows of N and diagonal weights W."""
    n = RatMatrix(ns.normals)
    wn = RatMatrix([v.scale(w) for v, w in zip(ns.normals, ns.weights)])
    return QuadraticForm(n.transpose() @ wn)


def zone_vectors(ns: NormalSet) -> tuple[RatVector, ...]:
    """Zone vector per family: the form inverse applied to weight * normal.

    When the form is the identity this reduces to weight * normal.
    """
    q = quadratic_form(ns)
    q_inv = inverse(q.matrix)
    return tuple((q_inv @ v).scale(w) for v, w in zip(ns.normals, ns.weights))


def dv_zonotope(ns: NormalSet) -> Zonotope:
    """The Dirichlet-Voronoi cell of the dicing as a zonotope.

    Requires a valid dicing; NotADicing propagates from the edge set.
    """
    compute_edge_set(ns)
    return Zonotope(ns.dimension, zone_vectors(ns))


# ---------------------------------------------------------------------------
# the dicing lattice


def _lattice_from(ns: NormalSet, es: EdgeSet) -> LatticeBasis:
    lat = dual_lattice_basis(hnf_lattice_basis(ns.normals))
    for e in es.edges:
        if not lattice_contains(lat, e):
            raise InternalFault(f"edge {e.entries} escapes the dicing lattice")
    return lat


def lattice_of_dicing(ns: NormalSet) -> LatticeBasis:
    """Basis of the lattice of points with integer position in every family.

    That lattice is the dual of the lattice generated by the normals.  As
    a postcondition every dicing edge must lie in it; a failure there is
    an internal fault, not a property of the input.
    """
    return _lattice_from(ns, compute_edge_set(ns))


# ---------------------------------------------------------------------------
# facet vectors


@dataclass(frozen=True)
class FacetVectorSet:
    """One lattice vector per facet pair, in the order of facets()."""

    vectors: tuple[RatVector, ...]


def _facet_vectors_from(q: QuadraticForm, lattice: LatticeBasis,
                        facet_list: tuple[FacetDescriptor, ...]) -> FacetVectorSet:
    vectors = []
    for f in facet_list:
        # the neighbour across F is centred at 2 c_F
        lam = f.center.scale(2)
        image = q.matrix @ lam
        # bisector identity: the plane x . n = support is x . Q lam = phi(lam)/2
        if image.scale(f.support) != f.normal.scale(lam.dot(image) * _HALF):
            raise NotInLattice(
                f"facet with normal {f.normal.entries} is not a point bisector")
        if not lattice_contains(lattice, lam):
            raise NotInLattice(
                f"facet vector {lam.entries} is not a lattice point")
        vectors.append(lam)
    return FacetVectorSet(tuple(vectors))


def facet_vectors(ns: NormalSet) -> FacetVectorSet:
    """Facet vectors of the DV cell: twice the facet centres of the zone
    vector zonotope, each a lattice point whose bisector carries its facet."""
    q = quadratic_form(ns)
    lat = lattice_of_dicing(ns)
    z = dv_zonotope(ns)
    return _facet_vectors_from(q, lat, facets(z))


def check_n_equals_e(fv: FacetVectorSet, es: EdgeSet) -> tuple[tuple[int, int, int], ...]:
    """Match facet vectors against dicing edges, exactly and up to sign.

    Returns the complete matching as (edge index, vector index, sign)
    triples with edges[i] == sign * vectors[j]; raises Mismatch listing
    unmatched edges and unmatched facet vectors otherwise.
    """
    unmatched = {e: i for i, e in enumerate(es.edges)}
    pairs = []
    extra = []
    for j, lam in enumerate(fv.vectors):
        if lam in unmatched:
            pairs.append((unmatched.pop(lam), j, 1))
        elif -lam in unmatched:
            pairs.append((unmatched.pop(-lam), j, -1))
        else:
            extra.append(lam)
    if unmatched or extra:
        missing = tuple(es.edges[i] for i in sorted(unmatched.values()))
        raise Mismatch(
            f"{len(missing)} edge(s) without facet vector, "
            f"{len(extra)} facet vector(s) without edge",
            missing=missing, extra=tuple(extra))
    return tuple(sorted(pairs))


def extract_basis(ns: NormalSet, es: EdgeSet, fv: FacetVectorSet,
                  bijection: tuple[tuple[int, int, int], ...],
                  lattice: LatticeBasis) -> tuple[tuple[int, ...], Fraction]:
    """Select d facet vectors forming a lattice basis, constructively.

    For each normal b of the first independent basis of normals, the edge
    orthogonal to the other basis normals pairs +-1 with b; its matched
    facet vector, sign-adjusted to pairing +1, joins the candidate basis.
    The candidates must make every facet vector integral and must have
    determinant +-1 in lattice coordinates.
    """
    d = ns.dimension
    b_idx = first_basis_indices(ns)
    edge_to_vector = {i: (j, s) for i, j, s in bijection}
    chosen_indices: list[int] = []
    chosen: list[RatVector] = []
    for bi, edge_i in zip(b_idx, dual_edge_indices(ns, es, b_idx)):
        if edge_i is None:
            raise BasisCheckFailed(f"no edge is dual to basis normal {bi}")
        j, _ = edge_to_vector[edge_i]
        lam = fv.vectors[j]
        pairing = ns.normals[bi].dot(lam)
        if abs(pairing) != 1:
            raise BasisCheckFailed(
                f"facet vector {j} pairs {pairing} with basis normal {bi}")
        chosen_indices.append(j)
        chosen.append(-lam if pairing < 0 else lam)
    basis_matrix = RatMatrix.from_columns(chosen)
    try:
        basis_inv = inverse(basis_matrix)
    except ZonocertError as err:
        raise BasisCheckFailed(f"selected facet vectors are dependent: {err}")
    for k, v in enumerate(fv.vectors):
        if (basis_inv @ v).den != 1:
            raise BasisCheckFailed(
                f"facet vector {k} is fractional in the extracted basis")
    coord_matrix = lattice.inverse @ basis_matrix
    determinant = det(coord_matrix)
    if abs(determinant) != 1:
        raise BasisCheckFailed(
            f"extracted basis has determinant {determinant} in lattice coordinates")
    return tuple(chosen_indices), determinant


# ---------------------------------------------------------------------------
# brute-force cell oracle


@dataclass(frozen=True)
class VertexDuality:
    """A cell vertex with its equidistant lattice points and radius."""

    vertex: RatVector
    equidistant: tuple[RatVector, ...]
    radius: Fraction


def _short_vectors(gram: list[list[int]], cap: int
                   ) -> list[tuple[tuple[int, ...], int]]:
    """All nonzero integer c with Phi(c) = c^T gram c at most cap, each
    paired with Phi(c), for a positive definite integer Gram matrix.

    Fincke-Pohst on the integer Schur blocks of the Gram matrix (see
    _schur_blocks): the coefficients are fixed from c_{n-1} down to c_0,
    and at level j, with the later ones fixed, k = c_j can extend to a
    point with Phi <= cap only if a k^2 + 2 beta k + gamma <= D_j cap,
    where a = S_j[0][0], beta = S_j[0][1:] . c_T' and gamma = c_T'^T
    S_j[1:, 1:] c_T' for c_T' = (c_{j+1}, ..., c_{n-1}).  That is
    (a k + beta)^2 <= beta^2 - a (gamma - D_j cap), solved exactly with
    isqrt; at level 0, D_0 = 1 and the left side is Phi itself.
    """
    blocks = _schur_blocks(gram)
    coeffs = [0] * len(gram)
    found: list[tuple[tuple[int, ...], int]] = []

    def descend(j: int):
        prev, block = blocks[j]
        rest = coeffs[j + 1:]
        a = block[0][0]
        beta = sum(map(mul, block[0][1:], rest))
        gamma = sum(c * sum(map(mul, row[1:], rest))
                    for c, row in zip(rest, block[1:]))
        disc = beta * beta - a * (gamma - prev * cap)
        if disc < 0:
            return
        r = math.isqrt(disc)
        for k in range(-((r + beta) // a), (r - beta) // a + 1):
            if j:
                coeffs[j] = k
                descend(j - 1)
            elif k or any(rest):
                found.append(((k, *rest), (a * k + 2 * beta) * k + gamma))
        coeffs[j] = 0

    descend(len(gram) - 1)
    return found


def _cell_data(lattice: LatticeBasis, q: QuadraticForm) -> list[VertexDuality]:
    """Cell vertices, each with its equidistant lattice points and phi(x).

    Enumerates lattice vectors in a fixed ball, keeps the half-spaces of
    the relevant ones by Voronoi's parity rule, intersects them, and
    refuses to answer unless the result is provably complete: the
    enumerated set must span, every vertex must be equidistant to at
    least d+1 lattice points and to none closer, and the ball must cover
    four times the largest vertex norm (Babai's bound: it does in d <= 3),
    which by Cauchy-Schwarz rules out any forgotten constraint.
    Vertices and their equidistant points (origin included) are sorted.

    All of it runs in integers.  The Gram matrix G = B^T Q B of the
    lattice basis B is built once and cleared by the lcm s of its
    denominators; a lattice point Bc is its coefficient tuple c with the
    integer form value Phi(c) = c^T (sG) c = s phi(Bc), enumerated by
    _short_vectors on sG, and a point x of space is its dual coordinate
    vector z = 2s B^T Q x, in which the bisector half-space
    x . Q(Bc) <= phi(Bc)/2 reads z . c <= Phi(c).  B cleared by one lcm t
    gives t Bc, the tie-break of Phi and, over t, the point Bc in space.
    """
    d = lattice.dimension
    if d > 3:
        raise DimensionTooLarge("cell oracle supports dimension at most 3")
    if q.dimension != d:
        raise DimensionMismatch(
            f"form of dimension {q.dimension} on a lattice of dimension {d}")
    b = lattice.basis
    s, gram = _common_cleared((b.transpose() @ (q.matrix @ b)).row_vectors)
    # Phi of the basis vectors and of their pairwise sums.  By Babai's bound
    # (Combinatorica 6, 1986) every vertex has 4s phi(x) <= s sum phi(b_i*)
    # <= 3 max(norms) in d <= 3, so the 4 * peak guard below always holds.
    norms = [gram[i][i] for i in range(d)]
    norms += [gram[i][i] + 2 * gram[i][j] + gram[j][j]
              for i, j in itertools.combinations(range(d), 2)]
    cap = RADIUS_MULTIPLIER * max(norms)
    enumerated = _short_vectors(gram, cap)

    # Voronoi: c is relevant exactly when +-c are the only points of least
    # phi in c + 2 Lambda.  Such a nu != +-c gives c = a + b with a, b =
    # (c +- nu)/2 and phi(a) + phi(b) <= phi(c), a decomposition gives
    # nu = a - b, and all of them lie in the enumerated ball.  Sorted by
    # phi, the first points seen of a class are its shortest; ties break by
    # t Bc, in the order of the entries of Bc as t > 0, so vertices are
    # found, and a failing one is named, in the order of space coordinates.
    t, rows = _common_cleared(b.row_vectors)
    image = {c: tuple(sum(map(mul, r, c)) for r in rows) for c, _ in enumerated}
    enumerated.sort(key=lambda item: (item[1], image[item[0]]))
    shortest: dict[tuple[int, ...], tuple[int, list[tuple[int, ...]]]] = {}
    for c, phi in enumerated:
        least, points = shortest.setdefault(tuple(x % 2 for x in c), (phi, []))
        if phi == least:
            points.append(c)
    relevant = {c for parity, (_, points) in shortest.items()
                if any(parity) and len(points) == 2 for c in points}
    # one half-space z . c <= Phi(c) per relevant lattice point
    constraints = [(c, phi) for c, phi in enumerated if c in relevant]
    # Every pruned c is a sum of two points of smaller Phi, so by induction
    # the kept rows span what the enumerated rows span (B is invertible,
    # so coefficient rows have the rank of the vectors Bc).
    if not constraints or rank(RatMatrix([c for c, _ in constraints])) < d:
        raise EnumerationInsufficient(
            "enumerated lattice vectors do not span the space")

    # By induction on phi the kept half-spaces imply every pruned one:
    # x . Q(mu + nu) <= (phi(mu) + phi(nu))/2 <= phi(mu + nu)/2.
    # Each d of them meet in z = (last column) / p of the eliminated
    # [C | Phi] when its pivots are the first d columns; (z numerator,
    # positive denominator) in lowest terms is the vertex's key.
    square = tuple(range(d))
    candidates: dict[tuple[tuple[int, ...], int], None] = {}
    for subset in itertools.combinations(constraints, d):
        a = [[*c, phi] for c, phi in subset]
        _, _, p, pivots = _bareiss(a)
        if pivots != square:
            continue
        g = math.gcd(p, *(row[d] for row in a)) * (1 if p > 0 else -1)
        key = (tuple(row[d] // g for row in a), p // g)
        if key in candidates:
            continue
        num, den = key
        if all(sum(map(mul, c, num)) <= den * phi for c, phi in constraints):
            candidates[key] = None
    if not candidates:
        raise EnumerationInsufficient("no cell vertex found inside the radius")
    back = inverse((b.transpose() @ q.matrix).scale(2 * s))
    vertices = [back @ _from_cleared(den, num) for num, den in candidates]

    radii = [q.value(x) for x in vertices]
    peak = max(radii)
    if 4 * s * peak > cap:
        raise EnumerationInsufficient(
            "enumeration radius too small to certify the vertex set")
    # By Cauchy-Schwarz a lattice point with phi > 4*phi(x) is strictly
    # farther from any vertex x than the origin, so the 4*peak ball holds
    # every point that can tie or beat a vertex, and it is fully
    # enumerated by the guard above.
    # phi(x - lam) - phi(x) = phi(lam) - 2 x . Q lam, so lam = Bc is
    # closer to x than the origin exactly when z . c > Phi(c).
    limit = math.floor(4 * s * peak)
    near = [(c, phi) for c, phi in enumerated if phi <= limit]
    cells = []
    for (num, den), x, phi_x in zip(candidates, vertices, radii):
        equidistant = [(0,) * d]
        for c, phi in near:
            h = sum(map(mul, c, num))
            if h > den * phi:
                raise InternalFault("cell vertex closer to a nonzero lattice point")
            if h == den * phi:
                equidistant.append(image[c])
        if len(equidistant) < d + 1:
            raise EnumerationInsufficient(
                f"vertex {x.entries} is equidistant to only {len(equidistant)} "
                "lattice points")
        cells.append(VertexDuality(x, tuple(_from_cleared(t, p)
                                            for p in sorted(equidistant)), phi_x))
    cells.sort(key=lambda cell: cell.vertex.entries)
    return cells


def dv_cell_oracle(lattice: LatticeBasis, q: QuadraticForm) -> tuple[RatVector, ...]:
    """Vertices of the Dirichlet-Voronoi cell by half-space enumeration.

    Independent of zonotope combinatorics: works for any lattice basis
    and positive form in dimension at most 3, at a radius that by Babai's
    bound always covers the cell; if the enumeration cannot prove the cell
    complete the oracle raises EnumerationInsufficient rather than
    guessing.  delone_duality_check reports these cells.
    """
    return tuple(cell.vertex for cell in _cell_data(lattice, q))


# ---------------------------------------------------------------------------
# Delone duality


@dataclass(frozen=True)
class DualityReport:
    entries: tuple[VertexDuality, ...]


def delone_duality_check(ns: NormalSet) -> DualityReport:
    """Check that every cell vertex is a proper Delone center.

    Each vertex of the DV cell must be equidistant, in the dicing form,
    to at least d+1 lattice points that affinely span the space, with no
    lattice point strictly closer, and each such point must lie on a
    hyperplane of every family.  The cell oracle at its fixed radius
    enforces the count and the distances; span and family checks raise
    DualityViolation.
    """
    d = ns.dimension
    if d > 3:
        raise DimensionTooLarge("duality check supports dimension at most 3")
    lat = lattice_of_dicing(ns)
    q = quadratic_form(ns)
    cells = _cell_data(lat, q)
    for cell in cells:
        first, *rest = cell.equidistant
        if rank(RatMatrix([p - first for p in rest], cols=d)) != d:
            raise DualityViolation(
                f"equidistant set of vertex {cell.vertex.entries} "
                "does not affinely span")
        for p in cell.equidistant:
            for k, v in enumerate(ns.normals):
                if v.dot(p).denominator != 1:
                    raise DualityViolation(
                        f"equidistant point {p.entries} misses family {k}")
    return DualityReport(tuple(cells))


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class VoronoiCertificate:
    """Instance certificate: facet vectors equal dicing edges and contain
    a lattice basis with determinant +-1 in lattice coordinates."""

    normal_set: NormalSet
    edge_set: EdgeSet
    zonotope: Zonotope
    facet_vectors: FacetVectorSet
    ne_bijection: tuple[tuple[int, int, int], ...]
    lattice: LatticeBasis
    basis_indices: tuple[int, ...]
    lattice_coordinate_det: Fraction


def certify_second_voronoi(ns: NormalSet) -> VoronoiCertificate:
    """Run the full pipeline and assemble the certificate.

    Any domain error is re-raised as CertificationError carrying the
    pipeline stage where it occurred.
    """

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except ZonocertError as err:
            raise CertificationError(name, err) from err

    es = stage("edge-set", compute_edge_set, ns)
    lat = stage("lattice", _lattice_from, ns, es)
    q = stage("quadratic-form", quadratic_form, ns)
    zv = stage("zone-vectors", zone_vectors, ns)
    z = stage("zonotope", Zonotope, ns.dimension, zv)
    facet_list = stage("facets", facets, z)
    fv = stage("facet-vectors", _facet_vectors_from, q, lat, facet_list)
    bijection = stage("n-equals-e", check_n_equals_e, fv, es)
    indices, determinant = stage("basis", extract_basis, ns, es, fv, bijection, lat)
    stage("unimodular-representation", unimodular_representation, ns, es)
    return VoronoiCertificate(
        normal_set=ns, edge_set=es, zonotope=z, facet_vectors=fv,
        ne_bijection=bijection, lattice=lat, basis_indices=indices,
        lattice_coordinate_det=determinant)


@dataclass(frozen=True)
class CertificateAudit:
    """Verdict of the independent verifier, with reasons on failure."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: VoronoiCertificate) -> CertificateAudit:
    """Re-check every certificate invariant from the raw fields alone.

    It reruns no certify stage that searches: no edge set scan and no
    facet enumeration, so a certificate forged or corrupted after
    certification is caught here.  It does reuse pipeline code:
    ``quadratic_form`` and ``zone_vectors`` for the form and the
    generators, ``hnf_lattice_basis``, ``dual_lattice_basis`` and
    ``same_lattice`` for the dicing lattice, ``first_basis_indices`` for
    the sign of the stored determinant, and ``rank``, ``inverse``, ``det``
    and ``lattice_contains`` for the linear algebra.  A checker
    that shares no code with the pipeline is ROADMAP item 6.
    """
    ns, es, fv = cert.normal_set, cert.edge_set, cert.facet_vectors
    d = ns.dimension
    # a part of another dimension admits no product with the normals
    bad = [f"{label} {k} has dimension {v.dim}, expected {d}"
           for label, vecs in (("edge", es.edges), ("facet vector", fv.vectors),
                               ("generator", cert.zonotope.generators),
                               ("lattice basis vector", cert.lattice.vectors))
           for k, v in enumerate(vecs) if v.dim != d]
    if bad:
        return CertificateAudit(ok=False, failures=tuple(bad))

    if len(es.edges) != len(fv.vectors):
        bad.append("edge and facet vector counts differ")
    edge_seen = sorted(i for i, _, _ in cert.ne_bijection)
    vec_seen = sorted(j for _, j, _ in cert.ne_bijection)
    if edge_seen != list(range(len(es.edges))) or \
            vec_seen != list(range(len(fv.vectors))):
        bad.append("ne_bijection is not a complete matching")
    else:
        for i, j, s in cert.ne_bijection:
            if s not in (1, -1) or es.edges[i] != fv.vectors[j].scale(s):
                bad.append(f"matched pair ({i}, {j}) differs beyond sign")

    for e in es.edges:
        for v in ns.normals:
            p = v.dot(e)
            if p not in (-1, 0, 1):
                bad.append(f"edge {e.entries} pairs {p} with a normal")
                break
    # each edge spans the kernel line of its provenance: d-1 independent
    # normals, all orthogonal to it
    for k, (e, sub) in enumerate(zip(es.edges, es.provenance)):
        if any(not 0 <= i < len(ns.normals) for i in sub):
            bad.append(f"provenance {sub} of edge {k} names no normal")
        elif any(ns.normals[i].dot(e) != 0 for i in sub):
            bad.append(f"provenance {sub} of edge {k} holds a normal "
                       "that pairs nonzero with it")
        elif len(sub) != d - 1 or rank(RatMatrix(
                [ns.normals[i] for i in sub], cols=d)) != d - 1:
            bad.append(f"provenance {sub} of edge {k} does not have "
                       f"rank {d - 1}")

    try:
        q = quadratic_form(ns)
        recomputed = zone_vectors(ns)
        gens = cert.zonotope.generators
        if recomputed != gens:
            bad.append("zonotope generators are not the zone vectors")
        # lam carries a facet: the support of the cell along Q lam is
        # phi(lam)/2, and the generators orthogonal to Q lam have rank d-1
        for lam in fv.vectors:
            image = q.matrix @ lam
            products = [image.dot(g) for g in gens]
            if sum(map(abs, products)) != lam.dot(image):
                bad.append(f"facet vector {lam.entries} does not bisect a "
                           "supporting plane")
                continue
            on_facet = [g for g, p in zip(gens, products) if p == 0]
            if rank(RatMatrix(on_facet, cols=d)) != d - 1:
                bad.append(f"facet vector {lam.entries} bisects no facet")
    except ZonocertError as err:
        bad.append(f"quadratic form rejected: {err}")

    if not same_lattice(cert.lattice,
                        dual_lattice_basis(hnf_lattice_basis(ns.normals))):
        bad.append("stored lattice is not the dicing lattice")
    for label, vecs in (("edge", es.edges), ("facet vector", fv.vectors)):
        for v in vecs:
            if not lattice_contains(cert.lattice, v):
                bad.append(f"{label} {v.entries} is outside the lattice")

    idx = cert.basis_indices
    if len(idx) != d or len(set(idx)) != d or \
            any(i < 0 or i >= len(fv.vectors) for i in idx):
        bad.append("basis_indices is not a set of d facet vector indices")
    else:
        chosen = RatMatrix.from_columns([fv.vectors[i] for i in idx])
        # extract_basis signs its k-th vector to pair +1 with the k-th of
        # the first independent normals, and its det is over those columns
        sign = 1
        for b, i in zip(first_basis_indices(ns), idx):
            pairing = ns.normals[b].dot(fv.vectors[i])
            if pairing == 0:
                bad.append(f"facet vector {i} pairs 0 with basis normal {b}")
            elif pairing < 0:
                sign = -sign
        try:
            chosen_inv = inverse(chosen)
            for k, v in enumerate(fv.vectors):
                if (chosen_inv @ v).den != 1:
                    bad.append(f"facet vector {k} fractional in the stored basis")
            coord_det = det(cert.lattice.inverse @ chosen)
            if abs(coord_det) != 1:
                bad.append(f"stored basis has lattice determinant {coord_det}")
            if abs(cert.lattice_coordinate_det) != 1 or \
                    cert.lattice_coordinate_det != sign * coord_det:
                bad.append("stored determinant disagrees with the basis")
        except ZonocertError:
            bad.append("stored basis vectors are linearly dependent")

    return CertificateAudit(ok=not bad, failures=tuple(bad))
