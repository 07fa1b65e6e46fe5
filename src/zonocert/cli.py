"""Command line front end: JSON pipeline verbs, batch corpus runs, exports.

Exit codes: 0 success, 1 usage or IO error (including schema violations),
2 domain error; domain errors are written as JSON payloads so batch
drivers can triage.  Rendering converts exact rationals to decimals only
at emission, with ZONOCERT_RENDER_DIGITS significant digits (default 12).
"""

from __future__ import annotations

import argparse
import decimal
import functools
import importlib.resources
import itertools
import json
import os
import sys
from fractions import Fraction

from . import jsonio
from .dicing import NormalSet, compute_edge_set
from .errors import (CertificationError, DimensionMismatch, InternalFault,
                     SchemaError, ZonocertError)
from .parallelohedron import (certify_second_voronoi, dv_cell_oracle,
                              dv_zonotope, facet_vectors, lattice_of_dicing,
                              quadratic_form, verify_certificate)
from .ratgeom import RatMatrix, RatVector, det, kernel_basis, zero_vector
from .zonotope import Zonotope, facets, venkov_check, vertices_oracle


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with 2."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="zonocert",
                     description="exact dicing-zonotope certification")
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    sub.required = True

    def add(name, help_text, payload=True):
        p = sub.add_parser(name, help=help_text)
        if payload:
            p.add_argument("input", nargs="?", default="-",
                           help="input JSON path, or - for stdin")
        p.add_argument("-o", "--output", default="-",
                       help="output path, or - for stdout")
        return p

    add("edges", "edge set of a dicing normal set")
    add("lattice", "lattice basis of a dicing")
    add("zonotope", "DV cell of a dicing as a zonotope")
    add("facets", "facet pairs of a zonotope or of a dicing's DV cell")
    add("venkov", "ridge-shape report for a zonotope or a dicing's DV cell")
    p = add("dv-cell", "brute-force DV cell vertices of a dicing")
    p.add_argument("--multiplier", default="4",
                   help="enumeration radius multiplier, a positive rational")
    add("certify", "full certificate for a dicing normal set")
    p = add("export", "render a DV cell to SVG (d=2) or OBJ (d=3)")
    p.add_argument("--format", required=True, choices=("svg", "obj"))
    p.add_argument("--patch-radius", type=int, default=0,
                   help="draw lattice translates with coordinates in [-r, r]")
    p = sub.add_parser("corpus", help="certify every entry of a corpus file")
    p.add_argument("input", nargs="?", default=None,
                   help="corpus JSON path; defaults to the bundled corpus")
    p.add_argument("-o", "--output", default="-")
    return parser


# ---------------------------------------------------------------------------
# IO plumbing


def _read_input(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise _UsageError(f"{path}: not valid JSON: {err}")


def _write_output(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise _UsageError(f"cannot write {path}: {err}")


def _load_normal_set(doc) -> NormalSet:
    if jsonio.detect_payload(doc) != "normal_set":
        raise SchemaError("$", "this verb needs a normal_set document")
    return jsonio.parse_normal_set(doc)


def _load_cell(doc) -> tuple[NormalSet | None, Zonotope]:
    """Normal set plus DV cell, or a bare zonotope."""
    kind = jsonio.detect_payload(doc)
    if kind == "normal_set":
        ns = jsonio.parse_normal_set(doc)
        return ns, dv_zonotope(ns)
    if kind == "zonotope":
        return None, jsonio.parse_zonotope(doc)
    raise SchemaError("$", "expected a normal_set or zonotope document")


# ---------------------------------------------------------------------------
# decimal emission


def _render_digits() -> int:
    raw = os.environ.get("ZONOCERT_RENDER_DIGITS", "12")
    try:
        digits = int(raw)
    except ValueError:
        raise _UsageError(f"ZONOCERT_RENDER_DIGITS must be an integer, got {raw!r}")
    if digits < 1:
        raise _UsageError("ZONOCERT_RENDER_DIGITS must be positive")
    return digits


def _decimal_str(x: Fraction, digits: int) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        value = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
    text = str(value)
    return "0" if text in ("-0", "0") else text


# ---------------------------------------------------------------------------
# cyclic ordering of planar points, exact


def _quadrant(p: tuple[Fraction, Fraction]) -> int:
    x, y = p
    if x > 0 and y >= 0:
        return 0
    if x <= 0 and y > 0:
        return 1
    if x < 0 and y <= 0:
        return 2
    return 3


def _angular_cmp(p, q) -> int:
    qp, qq = _quadrant(p), _quadrant(q)
    if qp != qq:
        return -1 if qp < qq else 1
    cross = p[0] * q[1] - p[1] * q[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def _cyclic_order(points: list[tuple[Fraction, Fraction]]):
    return sorted(points, key=functools.cmp_to_key(_angular_cmp))


# ---------------------------------------------------------------------------
# lattice patches


def _patch_offsets(ns: NormalSet | None, z: Zonotope, patch_radius: int,
                   fmt: str, dim: int) -> list[RatVector]:
    """Sorted translates of the cell drawn by an export: the lattice points
    with coordinates in [-r, r] in the lattice basis, or the origin alone."""
    if z.dimension != dim:
        raise DimensionMismatch(f"{fmt} export needs a {dim}-dimensional cell")
    if patch_radius < 0:
        raise _UsageError("patch radius must be non-negative")
    if ns is None and patch_radius > 0:
        raise _UsageError("a lattice patch needs a normal_set input")
    if patch_radius == 0:
        return [zero_vector(dim)]
    basis = lattice_of_dicing(ns).basis
    span = range(-patch_radius, patch_radius + 1)
    offsets = [basis @ RatVector(c) for c in itertools.product(span, repeat=dim)]
    return sorted(offsets, key=lambda v: v.entries)


# ---------------------------------------------------------------------------
# SVG (d = 2)


def _svg_document(ns: NormalSet | None, z: Zonotope, patch_radius: int,
                  digits: int) -> str:
    offsets = _patch_offsets(ns, z, patch_radius, "svg", 2)
    polygon = _cyclic_order([v.entries for v in vertices_oracle(z)])
    arrows: list[tuple[Fraction, Fraction]] = []
    if ns is not None:
        for lam in facet_vectors(ns).vectors:
            arrows.append((lam[0], lam[1]))
            arrows.append((-lam[0], -lam[1]))

    xs = [x + ox for x, _ in polygon for ox, _ in offsets]
    ys = [y + oy for _, y in polygon for _, oy in offsets]
    xs += [a for a, _ in arrows]
    ys += [b for _, b in arrows]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    margin = span / 20
    x0, y0 = min(xs) - margin, -(max(ys) + margin)
    width = max(xs) - min(xs) + 2 * margin
    height = max(ys) - min(ys) + 2 * margin

    dec = lambda v: _decimal_str(v, digits)
    stroke = dec(span / 200)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{dec(x0)} {dec(y0)}'
        f' {dec(width)} {dec(height)}">',
        '  <defs>',
        '    <marker id="tip" viewBox="0 0 4 4" refX="3" refY="2"'
        ' markerWidth="4" markerHeight="4" orient="auto">',
        '      <path d="M 0 0 L 4 2 L 0 4 z" fill="#b02a2a"/>',
        '    </marker>',
        '  </defs>',
        f'  <g fill="#a8c6e8" fill-opacity="0.55" stroke="#274b6d"'
        f' stroke-width="{stroke}">',
    ]
    for ox, oy in offsets:
        pts = " ".join(f"{dec(x + ox)},{dec(-(y + oy))}" for x, y in polygon)
        lines.append(f'    <polygon points="{pts}"/>')
    lines.append('  </g>')
    if arrows:
        lines.append(f'  <g stroke="#b02a2a" stroke-width="{stroke}"'
                     ' marker-end="url(#tip)">')
        for ax, ay in arrows:
            lines.append(f'    <line x1="0" y1="0" x2="{dec(ax)}"'
                         f' y2="{dec(-ay)}"/>')
        lines.append('  </g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# OBJ (d = 3)


def _facet_polygons(z: Zonotope) -> tuple[list[RatVector], list[list[int]]]:
    """Vertices and facet polygons, each polygon ordered around its center
    counterclockwise as seen from outside."""
    verts = list(vertices_oracle(z))
    index = {v.entries: k for k, v in enumerate(verts)}
    polygons: list[list[int]] = []
    for f in facets(z):
        for sign in (1, -1):
            normal = f.normal.scale(sign)
            center = f.center.scale(sign)
            support = f.support
            on_facet = [v for v in verts if normal.dot(v) == support]
            k1, k2 = kernel_basis(RatMatrix.from_rows([normal], cols=3))
            if det(RatMatrix.from_rows([k1, k2, normal])) < 0:
                k1, k2 = k2, k1
            planar = []
            for v in on_facet:
                rel = v - center
                planar.append(((k1.dot(rel), k2.dot(rel)), v))
            ordered = sorted(planar, key=functools.cmp_to_key(
                lambda a, b: _angular_cmp(a[0], b[0])))
            polygons.append([index[v.entries] for _, v in ordered])
    return verts, polygons


def _obj_document(ns: NormalSet | None, z: Zonotope, patch_radius: int,
                  digits: int) -> str:
    offsets = _patch_offsets(ns, z, patch_radius, "obj", 3)
    verts, polygons = _facet_polygons(z)

    dec = lambda v: _decimal_str(v, digits)
    lines = ["# zonocert DV cell export"]
    for off in offsets:
        for v in verts:
            p = v + off
            lines.append(f"v {dec(p[0])} {dec(p[1])} {dec(p[2])}")
    block = len(verts)
    for b, _ in enumerate(offsets):
        for poly in polygons:
            face = " ".join(str(b * block + i + 1) for i in poly)
            lines.append(f"f {face}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verbs


def _verb_edges(args) -> tuple[int, str]:
    ns = _load_normal_set(_read_input(args.input))
    return 0, jsonio.dumps(jsonio.edge_set_to_json(compute_edge_set(ns)))


def _verb_lattice(args) -> tuple[int, str]:
    ns = _load_normal_set(_read_input(args.input))
    return 0, jsonio.dumps(jsonio.lattice_to_json(lattice_of_dicing(ns)))


def _verb_zonotope(args) -> tuple[int, str]:
    ns = _load_normal_set(_read_input(args.input))
    return 0, jsonio.dumps(jsonio.zonotope_to_json(dv_zonotope(ns)))


def _verb_facets(args) -> tuple[int, str]:
    _, z = _load_cell(_read_input(args.input))
    report = {
        "schema": jsonio.SCHEMA_VERSION,
        "dim": z.dimension,
        "facet_pairs": [{
            "normal": jsonio.vector_to_json(f.normal),
            "support": jsonio.rational_to_str(f.support),
            "subset": list(f.generator_subset),
            "center": jsonio.vector_to_json(f.center),
        } for f in facets(z)],
    }
    return 0, jsonio.dumps(report)


def _verb_venkov(args) -> tuple[int, str]:
    _, z = _load_cell(_read_input(args.input))
    report = venkov_check(z)
    doc = {
        "schema": jsonio.SCHEMA_VERSION,
        "dim": z.dimension,
        "parallelohedron": report.holds,
        # every zonotope and each of its faces is centrally symmetric
        "centrally_symmetric": True,
        "facets_centrally_symmetric": True,
        "ridges": [{
            "flat": list(r.flat),
            "direction_count": r.direction_count,
            "class": r.classification,
        } for r in report.ridges],
        "witnesses": [list(r.flat) for r in report.witnesses],
    }
    return 0, jsonio.dumps(doc)


def _verb_dv_cell(args) -> tuple[int, str]:
    ns = _load_normal_set(_read_input(args.input))
    multiplier = jsonio.parse_rational(args.multiplier, "--multiplier")
    if multiplier <= 0:
        raise _UsageError("--multiplier must be positive")
    lat = lattice_of_dicing(ns)
    vertices = dv_cell_oracle(lat, quadratic_form(ns), multiplier)
    doc = {
        "schema": jsonio.SCHEMA_VERSION,
        "dim": ns.dimension,
        "multiplier": jsonio.rational_to_str(multiplier),
        "vertices": [jsonio.vector_to_json(v) for v in vertices],
    }
    return 0, jsonio.dumps(doc)


def _verb_certify(args) -> tuple[int, str]:
    ns = _load_normal_set(_read_input(args.input))
    cert = certify_second_voronoi(ns)
    audit = verify_certificate(cert)
    if not audit.ok:
        raise InternalFault(
            "certificate failed independent verification: "
            + "; ".join(audit.failures))
    return 0, jsonio.dumps(jsonio.certificate_to_json(cert, verified=True))


def _verb_export(args) -> tuple[int, str]:
    ns, z = _load_cell(_read_input(args.input))
    digits = _render_digits()
    if args.format == "svg":
        return 0, _svg_document(ns, z, args.patch_radius, digits)
    return 0, _obj_document(ns, z, args.patch_radius, digits)


def bundled_corpus_path() -> str:
    """Path of the corpus file shipped with the package."""
    return str(importlib.resources.files("zonocert").joinpath("data/corpus.json"))


def _corpus_line(name: str, status: str, detail: str) -> str:
    return f"{name:<28} {status:<5} {detail}"


def _run_corpus_entry(entry, location: str) -> tuple[bool, str, str]:
    entry = jsonio._expect_object(entry, location)
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{location}.name", "expected a non-empty string")
    expected = entry.get("expected", {})
    if not isinstance(expected, dict):
        raise SchemaError(f"{location}.expected", "expected an object")
    try:
        ns = jsonio.parse_normal_set(
            jsonio._field(entry, "normal_set", location),
            f"{location}.normal_set")
        cert = certify_second_voronoi(ns)
        audit = verify_certificate(cert)
    except SchemaError:
        raise
    except ZonocertError as err:
        cause = err.cause if isinstance(err, CertificationError) else err
        got = type(cause).__name__
        if expected.get("error") == got:
            return True, name, _corpus_line(name, "pass", f"expected error {got}")
        return False, name, _corpus_line(name, "FAIL",
                                         f"unexpected error {got}: {cause}")
    if "error" in expected:
        return False, name, _corpus_line(
            name, "FAIL",
            f"expected error {expected['error']}, got a certificate")
    problems = []
    if not audit.ok:
        problems.append("verifier rejected: " + "; ".join(audit.failures))
    edge_pairs = len(cert.edge_set.edges)
    facet_pairs = len(cert.facet_vectors.vectors)
    determinant = jsonio.rational_to_str(cert.lattice_coordinate_det)
    if "edge_pairs" in expected and expected["edge_pairs"] != edge_pairs:
        problems.append(
            f"expected {expected['edge_pairs']} edge pairs, got {edge_pairs}")
    if "facet_pairs" in expected and expected["facet_pairs"] != facet_pairs:
        problems.append(
            f"expected {expected['facet_pairs']} facet pairs, got {facet_pairs}")
    if "det" in expected and expected["det"] != determinant:
        problems.append(f"expected det {expected['det']}, got {determinant}")
    if problems:
        return False, name, _corpus_line(name, "FAIL", "; ".join(problems))
    detail = (f"{edge_pairs} edge pairs, {facet_pairs} facet pairs, "
              f"det {determinant}")
    return True, name, _corpus_line(name, "pass", detail)


def _verb_corpus(args) -> tuple[int, str]:
    path = args.input if args.input is not None else bundled_corpus_path()
    doc = _read_input(path)
    entries = jsonio._expect_list(doc, "$")
    names = set()
    lines = []
    passed = 0
    for k, entry in enumerate(entries):
        ok, name, line = _run_corpus_entry(entry, f"$[{k}]")
        if name in names:
            raise SchemaError(f"$[{k}].name", f"duplicate entry name {name!r}")
        names.add(name)
        lines.append(line)
        passed += ok
    lines.append(f"{len(entries)} entries, {passed} passed, "
                 f"{len(entries) - passed} failed")
    return (0 if passed == len(entries) else 2), "\n".join(lines) + "\n"


_VERBS = {
    "edges": _verb_edges,
    "lattice": _verb_lattice,
    "zonotope": _verb_zonotope,
    "facets": _verb_facets,
    "venkov": _verb_venkov,
    "dv-cell": _verb_dv_cell,
    "certify": _verb_certify,
    "export": _verb_export,
    "corpus": _verb_corpus,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(str(err) + "\n")
        return 1
    except SystemExit as err:
        return int(err.code or 0)
    try:
        code, text = _VERBS[args.verb](args)
        _write_output(args.output, text)
        return code
    except (_UsageError, SchemaError) as err:
        sys.stderr.write(f"zonocert: {err}\n")
        return 1
    except ZonocertError as err:
        _write_output(args.output, jsonio.dumps(err.payload()))
        sys.stderr.write(f"zonocert: {err}\n")
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
