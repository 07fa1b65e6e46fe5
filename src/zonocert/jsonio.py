"""JSON serialization for library types.

Rationals travel as strings "p/q" (the "/q" part omitted for integers),
so no float ever enters or leaves a document.  Every top-level document
carries a "schema" version field; emission is deterministic, so equal
values produce byte-identical output.  Parsers raise SchemaError naming
the offending field by a dotted location path.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .dicing import EdgeSet, NormalSet
from .errors import SchemaError
from .parallelohedron import FacetVectorSet, VoronoiCertificate
from .ratgeom import LatticeBasis, RatMatrix, RatVector
from .zonotope import Zonotope

SCHEMA_VERSION = "v1"

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


# ---------------------------------------------------------------------------
# scalars and vectors


def rational_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(obj, location: str) -> Fraction:
    if not isinstance(obj, str) or not _RATIONAL_RE.match(obj):
        raise SchemaError(location, f"expected a rational string 'p/q', got {obj!r}")
    num, _, den = obj.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        # int() refuses strings beyond the interpreter's digit limit
        raise SchemaError(location, f"too many digits ({len(obj)} characters) "
                                    "for an exact integer conversion")
    if den == 0:
        raise SchemaError(location, "zero denominator")
    return Fraction(num, den)


def vector_to_json(v: RatVector) -> list[str]:
    return [rational_to_str(e) for e in v.entries]


def parse_vector(obj, location: str, dim: int | None = None) -> RatVector:
    if not isinstance(obj, list):
        raise SchemaError(location, "expected a list of rational strings")
    if dim is not None and len(obj) != dim:
        raise SchemaError(location, f"expected {dim} entries, got {len(obj)}")
    return RatVector(parse_rational(e, f"{location}[{k}]")
                     for k, e in enumerate(obj))


def _expect_object(obj, location: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(location, "expected a JSON object")
    return obj


def _expect_list(obj, location: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(location, "expected a JSON array")
    return obj


def _field(doc: dict, key: str, location: str):
    if key not in doc:
        raise SchemaError(f"{location}.{key}", "missing field")
    return doc[key]


def _parse_indices(obj, location: str) -> tuple[int, ...]:
    """A list of JSON integers; booleans, floats and strings are refused."""
    obj = _expect_list(obj, location)
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in obj):
        raise SchemaError(location, "expected integer indices")
    return tuple(obj)


def _parse_dim(doc: dict, location: str) -> int:
    dim = _field(doc, "dim", location)
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"{location}.dim", "expected a positive integer")
    return dim


def _header(doc, location: str) -> tuple[dict, int]:
    """The object, schema and dim checks every v1 document starts with."""
    doc = _expect_object(doc, location)
    if "schema" in doc and doc["schema"] != SCHEMA_VERSION:
        raise SchemaError(f"{location}.schema",
                          f"unsupported schema {doc['schema']!r}, "
                          f"expected {SCHEMA_VERSION!r}")
    return doc, _parse_dim(doc, location)


def _vectors(doc: dict, key: str, location: str, dim: int) -> list[RatVector]:
    """The list field ``key`` of vectors with ``dim`` entries each."""
    loc = f"{location}.{key}"
    raw = _expect_list(_field(doc, key, location), loc)
    return [parse_vector(v, f"{loc}[{k}]", dim) for k, v in enumerate(raw)]


def dumps(doc) -> str:
    """Deterministic serialization: fixed indentation, insertion order."""
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# library types


def normal_set_to_json(ns: NormalSet) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dim": ns.dimension,
        "normals": [vector_to_json(v) for v in ns.normals],
        "weights": [rational_to_str(w) for w in ns.weights],
    }


def parse_normal_set(doc, location: str = "$") -> NormalSet:
    doc, dim = _header(doc, location)
    normals = _vectors(doc, "normals", location, dim)
    weights_raw = _expect_list(_field(doc, "weights", location),
                               f"{location}.weights")
    weights = [parse_rational(w, f"{location}.weights[{k}]")
               for k, w in enumerate(weights_raw)]
    return NormalSet(dim, normals, weights)


def edge_set_to_json(es: EdgeSet) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dim": es.dimension,
        "edges": [vector_to_json(v) for v in es.edges],
        "provenance": [list(p) for p in es.provenance],
    }


def parse_edge_set(doc, location: str = "$") -> EdgeSet:
    doc, dim = _header(doc, location)
    edges = _vectors(doc, "edges", location, dim)
    prov_raw = _expect_list(_field(doc, "provenance", location),
                            f"{location}.provenance")
    provenance = [_parse_indices(sub, f"{location}.provenance[{k}]")
                  for k, sub in enumerate(prov_raw)]
    return EdgeSet(dim, edges, provenance)


def zonotope_to_json(z: Zonotope) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dim": z.dimension,
        "generators": [vector_to_json(v) for v in z.generators],
    }


def parse_zonotope(doc, location: str = "$") -> Zonotope:
    doc, dim = _header(doc, location)
    return Zonotope(dim, _vectors(doc, "generators", location, dim))


def lattice_to_json(lat: LatticeBasis) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dim": lat.dimension,
        "basis": [vector_to_json(v) for v in lat.vectors],
    }


def parse_lattice(doc, location: str = "$") -> LatticeBasis:
    doc, dim = _header(doc, location)
    count = len(_expect_list(_field(doc, "basis", location), f"{location}.basis"))
    if count != dim:
        raise SchemaError(f"{location}.basis",
                          f"expected {dim} basis vectors, got {count}")
    return LatticeBasis(RatMatrix.from_columns(
        _vectors(doc, "basis", location, dim)))


def certificate_to_json(cert: VoronoiCertificate, verified: bool) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "dim": cert.normal_set.dimension,
        "normal_set": normal_set_to_json(cert.normal_set),
        "edge_set": edge_set_to_json(cert.edge_set),
        "zonotope": zonotope_to_json(cert.zonotope),
        "facet_vectors": {
            "vectors": [vector_to_json(v) for v in cert.facet_vectors.vectors],
            "facet_link": list(range(len(cert.facet_vectors.vectors))),
        },
        "ne_bijection": [{"edge": i, "vector": j, "sign": s}
                         for i, j, s in cert.ne_bijection],
        "lattice": lattice_to_json(cert.lattice),
        "basis_indices": list(cert.basis_indices),
        "det": rational_to_str(cert.lattice_coordinate_det),
        "verified": bool(verified),
    }


def _parse_part(doc: dict, key: str, parse, dim: int, location: str):
    """Parse the sub-document ``key``, which must have dimension ``dim``."""
    loc = f"{location}.{key}"
    sub = _expect_object(_field(doc, key, location), loc)
    if _parse_dim(sub, loc) != dim:
        raise SchemaError(f"{loc}.dim",
                          f"expected the certificate dimension {dim}")
    return parse(sub, loc)


def parse_certificate(doc, location: str = "$") -> tuple[VoronoiCertificate, bool]:
    doc, dim = _header(doc, location)
    ns = _parse_part(doc, "normal_set", parse_normal_set, dim, location)
    es = _parse_part(doc, "edge_set", parse_edge_set, dim, location)
    z = _parse_part(doc, "zonotope", parse_zonotope, dim, location)
    fv_loc = f"{location}.facet_vectors"
    fv_doc = _expect_object(_field(doc, "facet_vectors", location), fv_loc)
    vectors = tuple(_vectors(fv_doc, "vectors", fv_loc, dim))
    # facet vector k belongs to facet pair k, as written
    if _parse_indices(_field(fv_doc, "facet_link", fv_loc),
                      f"{fv_loc}.facet_link") != tuple(range(len(vectors))):
        raise SchemaError(f"{fv_loc}.facet_link",
                          f"expected 0..n-1 for the n = {len(vectors)} "
                          "facet vectors")
    fv = FacetVectorSet(vectors)
    bij = []
    for k, item in enumerate(_expect_list(_field(doc, "ne_bijection", location),
                                          f"{location}.ne_bijection")):
        loc = f"{location}.ne_bijection[{k}]"
        item = _expect_object(item, loc)
        bij.append(_parse_indices([item.get(key) for key in
                                   ("edge", "vector", "sign")], loc))
    lat = _parse_part(doc, "lattice", parse_lattice, dim, location)
    idx = _parse_indices(_field(doc, "basis_indices", location),
                         f"{location}.basis_indices")
    determinant = parse_rational(_field(doc, "det", location), f"{location}.det")
    verified = _field(doc, "verified", location)
    if not isinstance(verified, bool):
        raise SchemaError(f"{location}.verified", "expected a boolean")
    cert = VoronoiCertificate(
        normal_set=ns, edge_set=es, zonotope=z, facet_vectors=fv,
        ne_bijection=tuple(bij), lattice=lat,
        basis_indices=idx, lattice_coordinate_det=determinant)
    return cert, verified


def detect_payload(doc, location: str = "$") -> str:
    """Classify a top-level document by its fields.

    Returns one of "normal_set", "edge_set", "zonotope", "lattice",
    "certificate"; raises SchemaError for unrecognizable documents.
    """
    doc = _expect_object(doc, location)
    if "normals" in doc and "weights" in doc:
        return "normal_set"
    if "edges" in doc:
        return "edge_set"
    if "generators" in doc:
        return "zonotope"
    if "basis" in doc:
        return "lattice"
    if "normal_set" in doc and "facet_vectors" in doc:
        return "certificate"
    raise SchemaError(location, "unrecognizable document; expected one of "
                      "normal_set, edge_set, zonotope, lattice, certificate")
