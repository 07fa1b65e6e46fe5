"""Command line front end: JSON pipeline verbs, batch corpus runs, exports.

The verbs compute, and jsonio builds every JSON document they write.
Exit codes: 0 success, 1 usage or IO error (schema violations and an
unwritable stdout included), 2 domain error; domain errors are written as
jsonio.error_to_json payloads so batch drivers can triage.  A full or
closed stderr changes no exit code.
Exports convert exact rationals to decimals only at emission: 12
significant digits, rounded half to even, whatever decimal context or
environment variables the calling program has set.
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
from pathlib import Path

from . import jsonio
from .dicing import NormalSet, compute_edge_set
from .errors import DimensionMismatch, InternalFault, SchemaError, ZonocertError
from .parallelohedron import (certify_second_voronoi, dv_cell_oracle,
                              dv_zonotope, facet_vectors, lattice_of_dicing,
                              quadratic_form, verify_certificate)
from .ratgeom import RatMatrix, RatVector, det, kernel_basis, zero_vector
from .zonotope import Zonotope, facets, venkov_check, vertices_oracle


# Every emitted coordinate is rounded in this context, never in the caller's.
_RENDER = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
# Upper bound on the lattice translates of one export patch.
_MAX_PATCH_TRANSLATES = 10 ** 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with 2."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="zonocert",
                     description="exact dicing-zonotope certification")
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    sub.required = True

    def add(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("input", nargs="?", default="-",
                       help="input JSON path, or - for stdin")
        p.add_argument("-o", "--output", default="-",
                       help="output path, or - for stdout")
        return p

    add("edges", "edge set of a dicing normal set", _verb_edges)
    add("lattice", "lattice basis of a dicing", _verb_lattice)
    add("zonotope", "DV cell of a dicing as a zonotope", _verb_zonotope)
    add("facets", "facet pairs of a zonotope or of a dicing's DV cell",
        _verb_facets)
    add("venkov", "ridge-shape report for a zonotope or a dicing's DV cell",
        _verb_venkov)
    add("dv-cell", "brute-force DV cell vertices of a dicing", _verb_dv_cell)
    add("certify", "full certificate for a dicing normal set", _verb_certify)
    p = add("export", "render a DV cell to SVG (d=2) or OBJ (d=3)", _verb_export)
    p.add_argument("--format", required=True, choices=("svg", "obj"))
    p.add_argument("--patch-radius", type=int, default=0,
                   help="draw lattice translates with coordinates in [-r, r], "
                        "at most 10000 of them")
    p = sub.add_parser("corpus", help="certify every entry of a corpus file")
    p.set_defaults(run=_verb_corpus)
    p.add_argument("input", nargs="?", default=None,
                   help="corpus JSON path; defaults to the bundled corpus")
    p.add_argument("-o", "--output", default="-")
    return parser


# ---------------------------------------------------------------------------
# IO plumbing


def _read_input(path: str):
    try:
        text = (sys.stdin.read() if path == "-"
                else Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise _UsageError(f"cannot read {path}: {err}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError covers JSONDecodeError and the int digit limit
        raise _UsageError(f"{path}: not valid JSON: {err}")


def _silence(stream):
    """Point stream's descriptor at os.devnull after a failed write, so that
    the flush at exit drops what it still buffers instead of failing."""
    try:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), stream.fileno())
    except (AttributeError, ValueError, OSError):
        pass  # an in-process stream without a descriptor


def _write_output(path: str, text: str):
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        if path == "-":
            _silence(sys.stdout)
        raise _UsageError(f"cannot write {path}: {err}")


def _note(text: str):
    """Write to stderr; a stderr that is closed or full changes no exit code."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError):  # sys.stderr is None when fd 2 is closed
        _silence(sys.stderr)


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


def _decimal_str(x: Fraction) -> str:
    """x rounded in _RENDER: its numerator divided by its denominator."""
    return _RENDER.to_sci_string(_RENDER.divide(x.numerator, x.denominator))


# ---------------------------------------------------------------------------
# cyclic ordering of planar points, exact
#
# The SVG polygon orders the vertices_oracle vertices of a 2-d cell: the
# signed sums that the exact phase-1 LP puts outside the hull of the others.
# Each OBJ face orders the vertices of a facet zonogon (_zonogon_corners).
# Points are taken relative to the cell or facet centre, which is never one
# of them, so _angle_key never sees the origin.


def _angle_key(p: tuple[Fraction, Fraction]) -> tuple[int, Fraction]:
    """Sort key of a nonzero planar point by its counterclockwise angle from
    the positive x axis: the quarter turn that holds it, then a ratio that
    grows with the angle inside that quarter turn.  Points on one ray tie."""
    x, y = p
    if x > 0 and y >= 0:
        return 0, y / x
    if x <= 0 and y > 0:
        return 1, -x / y
    if x < 0 and y <= 0:
        return 2, y / x
    return 3, -x / y


# ---------------------------------------------------------------------------
# lattice patches


def _patch_offsets(ns: NormalSet | None, z: Zonotope, patch_radius: int,
                   fmt: str, dim: int) -> list[tuple[Fraction, ...]]:
    """Sorted entry tuples of the translates an export draws: the lattice
    points with coordinates in [-r, r] in the lattice basis, or the origin."""
    if z.dimension != dim:
        raise DimensionMismatch(f"{fmt} export needs a {dim}-dimensional cell")
    if patch_radius < 0:
        raise _UsageError("patch radius must be non-negative")
    if ns is None and patch_radius > 0:
        raise _UsageError("a lattice patch needs a normal_set input")
    if (2 * patch_radius + 1) ** dim > _MAX_PATCH_TRANSLATES:
        largest = next(r for r in itertools.count()
                       if (2 * r + 3) ** dim > _MAX_PATCH_TRANSLATES)
        raise _UsageError(
            f"patch radius must be at most {largest} in {dim} dimensions "
            f"(at most {_MAX_PATCH_TRANSLATES} translates)")
    if patch_radius == 0:
        return [zero_vector(dim).entries]
    basis = lattice_of_dicing(ns).basis
    span = range(-patch_radius, patch_radius + 1)
    return sorted((basis @ RatVector(c)).entries
                  for c in itertools.product(span, repeat=dim))


# ---------------------------------------------------------------------------
# SVG (d = 2)


def _svg_document(ns: NormalSet | None, z: Zonotope, patch_radius: int) -> str:
    offsets = _patch_offsets(ns, z, patch_radius, "svg", 2)
    polygon = sorted((v.entries for v in vertices_oracle(z)), key=_angle_key)
    lams = () if ns is None else facet_vectors(ns).vectors
    arrows = [(s * lam[0], s * lam[1]) for lam in lams for s in (1, -1)]

    xs = [x + ox for x, _ in polygon for ox, _ in offsets]
    ys = [y + oy for _, y in polygon for _, oy in offsets]
    xs += [a for a, _ in arrows]
    ys += [b for _, b in arrows]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    margin = span / 20
    x0, y0 = min(xs) - margin, -(max(ys) + margin)
    width = max(xs) - min(xs) + 2 * margin
    height = max(ys) - min(ys) + 2 * margin

    dec = _decimal_str
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


def _zonogon_corners(plane: list[RatVector], k1: RatVector,
                     k2: RatVector) -> list[RatVector]:
    """Vertices, relative to its centre, of the zonogon of the generators in
    ``plane``, a plane with basis k1, k2 (Ziegler, Lectures on Polytopes,
    Lecture 7).

    The two zonogon edges parallel to g_j run from +-u_j/2 - g_j/2 to
    +-u_j/2 + g_j/2, where u_j sums the other generators, each signed by
    the side of g_j it lies on; their end points are the 2|plane| vertices.
    """
    half = Fraction(1, 2)
    images = [(k1.dot(g), k2.dot(g)) for g in plane]
    corners: dict[RatVector, None] = {}
    for g, (x, y) in zip(plane, images):
        u = sum((h if x * b > y * a else -h
                 for h, (a, b) in zip(plane, images) if h is not g),
                zero_vector(3))
        for rel in (u + g, u - g, g - u, -u - g):
            corners[rel.scale(half)] = None
    return list(corners)


def _facet_polygons(z: Zonotope) -> tuple[list[RatVector], list[list[int]]]:
    """Sorted vertices and the facet polygons, one per facet in the order of
    ``facets`` with the facet before its opposite, each ordered around its
    center counterclockwise as seen from outside.

    A facet is its center plus the zonogon of the generators in its plane,
    and its opposite is the same zonogon about the opposite center.  Every
    vertex of the cell lies on a facet, so no hull is computed.  One plane
    basis serves a facet pair: (k1, k2, n) is positively oriented, and the
    opposite facet takes (k2, k1), as -n has the same kernel as n.
    """
    sides: list[dict[tuple[Fraction, Fraction], RatVector]] = []
    for f in facets(z):
        k1, k2 = kernel_basis(RatMatrix([f.normal], cols=3))
        if det(RatMatrix([k1, k2, f.normal])) < 0:
            k1, k2 = k2, k1
        corners = _zonogon_corners(
            [z.generators[i] for i in f.generator_subset], k1, k2)
        for center, a, b in ((f.center, k1, k2), (-f.center, k2, k1)):
            sides.append({(a.dot(r), b.dot(r)): center + r for r in corners})
    verts = sorted({v for planar in sides for v in planar.values()},
                   key=lambda v: v.entries)
    index = {v: k for k, v in enumerate(verts)}
    polygons = [[index[planar[p]] for p in sorted(planar, key=_angle_key)]
                for planar in sides]
    return verts, polygons


def _obj_document(ns: NormalSet | None, z: Zonotope, patch_radius: int) -> str:
    offsets = _patch_offsets(ns, z, patch_radius, "obj", 3)
    verts, polygons = _facet_polygons(z)

    lines = ["# zonocert DV cell export"]
    for off in offsets:
        for v in verts:
            lines.append("v " + " ".join(_decimal_str(a + b)
                                         for a, b in zip(v, off)))
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
    return 0, jsonio.dumps(jsonio.facet_pairs_to_json(z.dimension, facets(z)))


def _verb_venkov(args) -> tuple[int, str]:
    _, z = _load_cell(_read_input(args.input))
    return 0, jsonio.dumps(jsonio.venkov_to_json(z.dimension, venkov_check(z)))


def _verb_dv_cell(args) -> tuple[int, str]:
    ns = _load_normal_set(_read_input(args.input))
    vertices = dv_cell_oracle(lattice_of_dicing(ns), quadratic_form(ns))
    return 0, jsonio.dumps(jsonio.dv_cell_to_json(ns.dimension, vertices))


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
    render = _svg_document if args.format == "svg" else _obj_document
    return 0, render(ns, z, args.patch_radius)


def bundled_corpus_path() -> str:
    """Path of the corpus file shipped with the package."""
    return str(importlib.resources.files("zonocert").joinpath("data/corpus.json"))


def _run_corpus_entry(expected: dict, ns_doc, location: str) -> tuple[bool, str]:
    """Whether a corpus entry meets its expectation, and its line's detail."""
    try:
        cert = certify_second_voronoi(jsonio.parse_normal_set(ns_doc, location))
        audit = verify_certificate(cert)
    except ZonocertError as err:
        payload = jsonio.error_to_json(err)
        got = payload["error"]
        if expected.get("error") == got:
            return True, f"expected error {got}"
        return False, f"unexpected error {got}: {payload['message']}"
    if "error" in expected:
        return False, f"expected error {expected['error']}, got a certificate"
    shown = jsonio.rational_to_str
    counts = [(key, value(cert), phrase)
              for key, (_, value, phrase) in jsonio.CORPUS_COUNTS.items()]
    problems = [] if audit.ok else [
        "verifier rejected: " + "; ".join(audit.failures)]
    problems += [f"expected {phrase.format(shown(expected[key]))}, "
                 f"got {shown(got)}" for key, got, phrase in counts
                 if key in expected and expected[key] != got]
    if problems:
        return False, "; ".join(problems)
    return True, ", ".join(phrase.format(shown(got)) for _, got, phrase in counts)


def _verb_corpus(args) -> tuple[int, str]:
    path = args.input if args.input is not None else bundled_corpus_path()
    entries = jsonio.parse_corpus(_read_input(path))
    lines, passed = [], 0
    for name, expected, ns_doc, ns_location in entries:
        ok, detail = _run_corpus_entry(expected, ns_doc, ns_location)
        lines.append(f"{name:<28} {'pass' if ok else 'FAIL':<5} {detail}")
        passed += ok
    lines.append(f"{len(entries)} entries, {passed} passed, "
                 f"{len(entries) - passed} failed")
    return (0 if passed == len(entries) else 2), "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as err:
        _note(f"{err}\n")
        return 1
    except SystemExit as err:
        return int(err.code or 0)
    message = ""
    try:
        try:
            code, text = args.run(args)
        except ZonocertError as err:
            code, text = 2, jsonio.dumps(jsonio.error_to_json(err))
            message = f"zonocert: {err}\n"
        _write_output(args.output, text)
    except (_UsageError, SchemaError) as err:
        _note(f"zonocert: {err}\n")
        return 1
    _note(message)
    return code


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
