"""The v1 JSON format: library types, reports and error payloads.

This module builds every JSON document the command line writes: the
library types, the facets, venkov and dv-cell reports, and the payload
of a domain error, and it reads the corpus file format.  Rationals
travel as strings "p/q" (the "/q" part omitted for integers), so no
float ever enters or leaves a document.  Every top-level document
except an error payload carries a "schema" version field; emission is
deterministic, so equal values produce byte-identical output.  Parsers
raise SchemaError naming the offending field by a dotted location path.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .dicing import EdgeSet, NormalSet
from .errors import (CertificationError, Mismatch, NotADicing, SchemaError,
                     ZonocertError)
from .parallelohedron import (RADIUS_MULTIPLIER, FacetVectorSet,
                              VoronoiCertificate)
from .ratgeom import LatticeBasis, RatMatrix, RatVector
from .zonotope import FacetDescriptor, VenkovReport, Zonotope

SCHEMA_VERSION = "v1"

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


# ---------------------------------------------------------------------------
# scalars and vectors


def rational_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(obj, location: str) -> Fraction:
    if not isinstance(obj, str) or not _RATIONAL_RE.fullmatch(obj):
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


def parse_vector(obj, location: str, dim: int) -> RatVector:
    if not isinstance(obj, list):
        raise SchemaError(location, "expected a list of rational strings")
    if len(obj) != dim:
        raise SchemaError(location, f"expected {dim} entries, got {len(obj)}")
    return RatVector(parse_rational(e, f"{location}[{k}]")
                     for k, e in enumerate(obj))


def _expect(obj, kind: type, location: str):
    if not isinstance(obj, kind):
        raise SchemaError(location, "expected a JSON "
                          + ("object" if kind is dict else "array"))
    return obj


def _field(doc: dict, key: str, location: str):
    if key not in doc:
        raise SchemaError(f"{location}.{key}", "missing field")
    return doc[key]


def _parse_indices(obj, location: str) -> tuple[int, ...]:
    """A list of JSON integers; booleans, floats and strings are refused."""
    obj = _expect(obj, list, location)
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
    doc = _expect(doc, dict, location)
    if "schema" in doc and doc["schema"] != SCHEMA_VERSION:
        raise SchemaError(f"{location}.schema",
                          f"unsupported schema {doc['schema']!r}, "
                          f"expected {SCHEMA_VERSION!r}")
    return doc, _parse_dim(doc, location)


def _items(doc: dict, key: str, location: str, parse) -> list:
    """The list field ``key``, each item parsed by ``parse(item, location)``."""
    loc = f"{location}.{key}"
    raw = _expect(_field(doc, key, location), list, loc)
    return [parse(v, f"{loc}[{k}]") for k, v in enumerate(raw)]


def _vectors(doc: dict, key: str, location: str, dim: int) -> list[RatVector]:
    """The list field ``key`` of vectors with ``dim`` entries each."""
    return _items(doc, key, location, lambda v, loc: parse_vector(v, loc, dim))


def dumps(doc) -> str:
    """Deterministic serialization: fixed indentation, insertion order."""
    return json.dumps(doc, indent=2) + "\n"


def _document(dim: int, **fields) -> dict:
    """A v1 document: the schema version and dim, then ``fields`` in order."""
    return {"schema": SCHEMA_VERSION, "dim": dim, **fields}


# ---------------------------------------------------------------------------
# library types


def normal_set_to_json(ns: NormalSet) -> dict:
    return _document(ns.dimension,
                     normals=[vector_to_json(v) for v in ns.normals],
                     weights=[rational_to_str(w) for w in ns.weights])


def parse_normal_set(doc, location: str = "$") -> NormalSet:
    doc, dim = _header(doc, location)
    normals = _vectors(doc, "normals", location, dim)
    weights = _items(doc, "weights", location, parse_rational)
    return NormalSet(dim, normals, weights)


def edge_set_to_json(es: EdgeSet) -> dict:
    return _document(es.dimension,
                     edges=[vector_to_json(v) for v in es.edges],
                     provenance=[list(p) for p in es.provenance])


def parse_edge_set(doc, location: str = "$") -> EdgeSet:
    doc, dim = _header(doc, location)
    edges = _vectors(doc, "edges", location, dim)
    prov_loc = f"{location}.provenance"
    provenance = _items(doc, "provenance", location, _parse_indices)
    for k, sub in enumerate(provenance):
        if len(sub) != dim - 1 or min(sub, default=0) < 0 or \
                list(sub) != sorted(set(sub)):
            raise SchemaError(f"{prov_loc}[{k}]",
                              f"expected {dim - 1} strictly increasing "
                              "non-negative indices")
    if len(provenance) != len(edges):
        raise SchemaError(prov_loc, f"expected {len(edges)} subsets, one per "
                                    f"edge, got {len(provenance)}")
    try:
        return EdgeSet(dim, edges, provenance)
    except ValueError as err:
        # a zero edge or two parallel edges
        raise SchemaError(f"{location}.edges", str(err)) from None


def zonotope_to_json(z: Zonotope) -> dict:
    return _document(z.dimension,
                     generators=[vector_to_json(v) for v in z.generators])


def parse_zonotope(doc, location: str = "$") -> Zonotope:
    doc, dim = _header(doc, location)
    return Zonotope(dim, _vectors(doc, "generators", location, dim))


def lattice_to_json(lat: LatticeBasis) -> dict:
    return _document(lat.dimension,
                     basis=[vector_to_json(v) for v in lat.vectors])


def parse_lattice(doc, location: str = "$") -> LatticeBasis:
    doc, dim = _header(doc, location)
    count = len(_expect(_field(doc, "basis", location), list, f"{location}.basis"))
    if count != dim:
        raise SchemaError(f"{location}.basis",
                          f"expected {dim} basis vectors, got {count}")
    return LatticeBasis(RatMatrix.from_columns(
        _vectors(doc, "basis", location, dim)))


def certificate_to_json(cert: VoronoiCertificate, verified: bool) -> dict:
    return _document(
        cert.normal_set.dimension,
        normal_set=normal_set_to_json(cert.normal_set),
        edge_set=edge_set_to_json(cert.edge_set),
        zonotope=zonotope_to_json(cert.zonotope),
        facet_vectors={
            "vectors": [vector_to_json(v) for v in cert.facet_vectors.vectors],
            "facet_link": list(range(len(cert.facet_vectors.vectors))),
        },
        ne_bijection=[{"edge": i, "vector": j, "sign": s}
                      for i, j, s in cert.ne_bijection],
        lattice=lattice_to_json(cert.lattice),
        basis_indices=list(cert.basis_indices),
        det=rational_to_str(cert.lattice_coordinate_det),
        verified=bool(verified))


def _parse_part(doc: dict, key: str, parse, dim: int, location: str):
    """Parse the sub-document ``key``, which must have dimension ``dim``."""
    loc = f"{location}.{key}"
    sub = _expect(_field(doc, key, location), dict, loc)
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
    fv_doc = _expect(_field(doc, "facet_vectors", location), dict, fv_loc)
    vectors = tuple(_vectors(fv_doc, "vectors", fv_loc, dim))
    # facet vector k belongs to facet pair k, as written
    if _parse_indices(_field(fv_doc, "facet_link", fv_loc),
                      f"{fv_loc}.facet_link") != tuple(range(len(vectors))):
        raise SchemaError(f"{fv_loc}.facet_link",
                          f"expected 0..n-1 for the n = {len(vectors)} "
                          "facet vectors")
    fv = FacetVectorSet(vectors)
    bij = _items(doc, "ne_bijection", location, lambda item, loc: _parse_indices(
        [_expect(item, dict, loc).get(k) for k in ("edge", "vector", "sign")], loc))
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
    doc = _expect(doc, dict, location)
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


# ---------------------------------------------------------------------------
# corpus files


def _parse_name(obj, location: str) -> str:
    if not isinstance(obj, str) or not obj:
        raise SchemaError(location, "expected a non-empty string")
    return obj


def _parse_count(obj, location: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(location, f"expected an integer, got {obj!r}")
    return obj


# The counts a corpus entry may pin, in the order of a corpus line: parser,
# value on a certificate, and phrase on the line.
CORPUS_COUNTS = {
    "edge_pairs": (_parse_count, lambda c: len(c.edge_set.edges),
                   "{} edge pairs"),
    "facet_pairs": (_parse_count, lambda c: len(c.facet_vectors.vectors),
                    "{} facet pairs"),
    "det": (parse_rational, lambda c: c.lattice_coordinate_det, "det {}"),
}


def parse_corpus(doc, location: str = "$") -> list[tuple[str, dict, object, str]]:
    """Each entry as (name, expected outcome with parsed values, normal_set
    document, its location).  The normal_set is left unparsed, as an entry
    may expect the domain error that parsing it raises."""
    entries, names = [], set()
    for k, entry in enumerate(_expect(doc, list, location)):
        loc = f"{location}[{k}]"
        name = _parse_name(_expect(entry, dict, loc).get("name"), f"{loc}.name")
        if name in names:
            raise SchemaError(f"{loc}.name", f"duplicate entry name {name!r}")
        names.add(name)
        raw = _expect(entry.get("expected", {}), dict, f"{loc}.expected")
        expected = {}
        for key, value in raw.items():
            at = f"{loc}.expected.{key}"
            if key != "error" and (key not in CORPUS_COUNTS or "error" in raw):
                raise SchemaError(at, "expected an error alone or some of "
                                      + ", ".join(CORPUS_COUNTS))
            parse = _parse_name if key == "error" else CORPUS_COUNTS[key][0]
            expected[key] = parse(value, at)
        entries.append((name, expected, _field(entry, "normal_set", loc),
                        f"{loc}.normal_set"))
    return entries


# ---------------------------------------------------------------------------
# reports and error payloads


def facet_pairs_to_json(dim: int, pairs: tuple[FacetDescriptor, ...]) -> dict:
    return _document(dim, facet_pairs=[{
        "normal": vector_to_json(f.normal),
        "support": rational_to_str(f.support),
        "subset": list(f.generator_subset),
        "center": vector_to_json(f.center),
    } for f in pairs])


def venkov_to_json(dim: int, report: VenkovReport) -> dict:
    # every zonotope and each of its faces is centrally symmetric
    return _document(
        dim, parallelohedron=report.holds, centrally_symmetric=True,
        facets_centrally_symmetric=True,
        ridges=[{"flat": list(r.flat), "direction_count": r.direction_count,
                 "class": r.classification} for r in report.ridges],
        witnesses=[list(r.flat) for r in report.witnesses])


def dv_cell_to_json(dim: int, vertices: tuple[RatVector, ...]) -> dict:
    return _document(dim, multiplier=str(RADIUS_MULTIPLIER),
                     vertices=[vector_to_json(v) for v in vertices])


def error_to_json(err: ZonocertError) -> dict:
    """Payload of a domain error: the name and message of its cause (the
    error a CertificationError wraps, else err), the cause's witness data,
    and last the stage of a CertificationError."""
    cause = err.cause if isinstance(err, CertificationError) else err
    doc = {"error": type(cause).__name__, "message": str(cause)}
    if isinstance(cause, NotADicing):
        doc["witness"] = {
            "subset": list(cause.subset),
            "kernel": [rational_to_str(x) for x in cause.kernel],
            "products": [rational_to_str(x) for x in cause.products],
        }
    elif isinstance(cause, Mismatch):
        doc["missing"] = [vector_to_json(v) for v in cause.missing]
        doc["extra"] = [vector_to_json(v) for v in cause.extra]
    if cause is not err:
        doc["stage"] = err.stage
    return doc
