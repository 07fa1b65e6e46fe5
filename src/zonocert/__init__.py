"""Exact certification of facet-vector lattice bases for dicing zonotopes."""

from .dicing import (DicingRep, EdgeSet, NormalSet, apply_affine,
                     compute_edge_set, first_basis_indices,
                     is_totally_unimodular, unimodular_representation)
from .errors import ZonocertError
from .parallelohedron import (CertificateAudit, DualityReport, FacetVectorSet,
                              QuadraticForm, VertexDuality, VoronoiCertificate,
                              certify_second_voronoi, check_n_equals_e,
                              delone_duality_check, dv_cell_oracle, dv_zonotope,
                              extract_basis, facet_vectors, lattice_of_dicing,
                              quadratic_form, verify_certificate, zone_vectors)
from .ratgeom import (LatticeBasis, RatMatrix, Rational, RatVector,
                      canonical_direction, det, dual_lattice_basis,
                      hnf_lattice_basis, inverse, kernel_basis, kernel_line,
                      lattice_contains, lattice_coordinates, rank, rref,
                      same_lattice)
from .zonotope import (FacetDescriptor, RidgeClass, VenkovReport, Zonotope,
                       facets, hull_facet_planes, ridge_classification,
                       support_value, venkov_check, vertices_oracle)

__version__ = "0.1.0"

__all__ = [
    "Rational", "RatVector", "RatMatrix", "LatticeBasis",
    "rank", "det", "inverse", "kernel_line", "kernel_basis", "rref",
    "canonical_direction", "hnf_lattice_basis", "dual_lattice_basis",
    "lattice_contains", "lattice_coordinates", "same_lattice",
    "NormalSet", "EdgeSet", "DicingRep", "compute_edge_set",
    "lattice_of_dicing", "unimodular_representation", "is_totally_unimodular",
    "apply_affine", "first_basis_indices",
    "Zonotope", "FacetDescriptor", "RidgeClass", "VenkovReport",
    "facets", "ridge_classification", "venkov_check", "support_value",
    "vertices_oracle", "hull_facet_planes",
    "QuadraticForm", "FacetVectorSet", "VoronoiCertificate",
    "CertificateAudit", "DualityReport", "VertexDuality",
    "quadratic_form", "zone_vectors", "dv_zonotope", "dv_cell_oracle",
    "facet_vectors", "check_n_equals_e", "extract_basis",
    "delone_duality_check", "certify_second_voronoi", "verify_certificate",
    "ZonocertError",
    "__version__",
]
