"""End-to-end tests for the zonocert command line interface.

Most tests drive zonocert.cli.main in process and inspect the exit code
plus whatever landed on stdout, stderr, or the output file.  A few run
``python -m zonocert.cli`` as a real subprocess: the console script, a
stdout that is a closed pipe or a full device, and a full stderr.
"""

import contextlib
import decimal
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonocert import (FacetVectorSet, RatVector, Zonotope, ZonocertError, cli,
                      dv_zonotope, facets, jsonio, parallelohedron,
                      vertices_oracle)
from zonocert.cli import bundled_corpus_path, main

HEX_DOC = {
    "schema": "v1",
    "dim": 2,
    "normals": [["1", "0"], ["0", "1"], ["1", "1"]],
    "weights": ["1", "1", "1"],
}
NON_DICING_DOC = {
    "schema": "v1",
    "dim": 2,
    "normals": [["1", "0"], ["0", "1"], ["1", "2"]],
    "weights": ["1", "1", "1"],
}
CUBE_DOC = {
    "schema": "v1",
    "dim": 3,
    "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}
RHOMBIC_DOC = {
    "schema": "v1",
    "dim": 3,
    "normals": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                ["1", "1", "1"]],
    "weights": ["1", "1", "1", "1"],
}
COUNTEREXAMPLE_DOC = {
    "schema": "v1",
    "dim": 3,
    "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                   ["1", "1", "1"], ["1", "-1", "0"]],
}


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_certify_hexagonal(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, err = run("certify", src)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["det"] == "1"
    assert payload["verified"] is True
    cert, verified = jsonio.parse_certificate(payload)
    assert verified is True
    assert len(cert.edge_set.edges) == 3
    assert len(cert.facet_vectors.vectors) == 3


def test_certify_output_file_matches_stdout(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    out_path = tmp_path / "cert.json"
    code, out, _ = run("certify", src, "-o", str(out_path))
    assert code == 0
    assert out == ""
    code2, stdout_text, _ = run("certify", src)
    assert code2 == 0
    assert out_path.read_text() == stdout_text
    assert stdout_text.endswith("\n")


@pytest.mark.parametrize("verb", ["edges", "certify"])
def test_non_dicing_exit_code_and_witness(run, tmp_path, verb):
    src = write_doc(tmp_path, "bad.json", NON_DICING_DOC)
    out_path = tmp_path / "report.json"
    code, out, err = run(verb, src, "-o", str(out_path))
    assert code == 2
    assert out == ""
    assert "zonocert:" in err
    payload = json.loads(out_path.read_text())
    assert payload["error"] == "NotADicing"
    assert payload["witness"]["subset"] == [0]
    assert payload["witness"]["kernel"] == ["0", "1"]
    assert payload["witness"]["products"] == ["0", "1", "2"]
    # certify names the pipeline stage that refused the input
    assert payload.get("stage") == (None if verb == "edges" else "edge-set")


def test_unknown_verb_exits_one(run):
    code, out, err = run("frobnicate")
    assert code == 1
    assert out == ""
    assert "invalid choice" in err


def test_missing_input_file_exits_one(run, tmp_path):
    code, out, err = run("edges", str(tmp_path / "absent.json"))
    assert code == 1
    assert out == ""
    assert "absent.json" in err


def test_schema_error_exits_one_with_location(run, tmp_path):
    # an Arabic-Indic digit is not an ASCII rational
    for bad in ("oops", "\u0663"):
        doc = dict(HEX_DOC)
        doc["normals"] = [["1", "0"], ["0", bad], ["1", "1"]]
        src = write_doc(tmp_path, "broken.json", doc)
        code, _, err = run("edges", src)
        assert code == 1
        assert "$.normals[1][1]" in err


@pytest.mark.parametrize("weight", ["1" + "0" * 5000, "1/1" + "0" * 5000])
def test_overlong_rational_exits_one_with_location(run, tmp_path, weight):
    doc = dict(HEX_DOC)
    doc["weights"] = [weight, "1", "1"]
    src = write_doc(tmp_path, "long.json", doc)
    code, out, err = run("edges", src)
    assert code == 1
    assert out == ""
    assert "$.weights[0]" in err
    assert "Traceback" not in err


MALFORMED_INPUTS = {
    "not-utf8": b'\xff\xfe{"dim":1}',
    "deep": b"[" * 200000 + b"]" * 200000,
    "long-int": b'{"dim": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("verb", ["edges", "corpus"])
@pytest.mark.parametrize("kind", sorted(MALFORMED_INPUTS))
def test_unreadable_or_unparsable_input_exits_one(run, tmp_path, verb, kind):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_INPUTS[kind])
    code, out, err = run(verb, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("zonocert: ")
    assert "Traceback" not in err


def test_non_utf8_stdin_exits_one(run, monkeypatch):
    raw = io.BytesIO(MALFORMED_INPUTS["not-utf8"])
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    code, out, err = run("edges", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("zonocert: cannot read -: ")


@pytest.mark.parametrize("doc, argv, message", [
    (CUBE_DOC, ["edges"], "$: this verb needs a normal_set document"),
    (HEX_DOC, ["certify", "-o", "{tmp}/absent/cert.json"], "cannot write"),
    (HEX_DOC, ["export", "--format", "svg", "--patch-radius", "-1"],
     "patch radius must be non-negative"),
    (HEX_DOC, ["dv-cell", "--multiplier", "4"], "unrecognized arguments"),
])
def test_invalid_invocation_exits_one(run, tmp_path, doc, argv, message):
    src = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run(*[a.format(tmp=tmp_path) for a in argv], src)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("zonocert: ")
    assert message in err


def test_help_names_every_verb(run):
    code, out, _ = run("-h")
    assert code == 0
    for verb in ("edges", "lattice", "zonotope", "facets", "venkov", "dv-cell",
                 "certify", "export", "corpus"):
        assert verb in out


def test_parser_is_reused_without_carrying_options(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("export", "--format", "svg", "--patch-radius", "1", src)
    assert code == 0
    assert out.count("<polygon") == 9
    code, out, _ = run("export", "--format", "svg", src)
    assert code == 0
    assert out.count("<polygon") == 1
    code, out, _ = run("edges", src)
    assert code == 0
    assert len(jsonio.parse_edge_set(json.loads(out)).edges) == 3


def test_edges_verb_round_trip(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("edges", src)
    assert code == 0
    es = jsonio.parse_edge_set(json.loads(out))
    assert sorted(e.entries for e in es.edges) == \
        sorted([(0, 1), (1, 0), (1, -1)])
    assert es.provenance == ((0,), (1,), (2,))


def test_lattice_verb(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("lattice", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == [["1", "0"], ["0", "1"]]


def test_zonotope_verb_round_trip(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("zonotope", src)
    assert code == 0
    z = jsonio.parse_zonotope(json.loads(out))
    expected = sorted([
        (Fraction(2, 3), Fraction(-1, 3)),
        (Fraction(-1, 3), Fraction(2, 3)),
        (Fraction(1, 3), Fraction(1, 3)),
    ])
    assert sorted(g.entries for g in z.generators) == expected


def test_facets_verb(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("facets", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert len(payload["facet_pairs"]) == 3
    first = payload["facet_pairs"][0]
    assert set(first) == {"normal", "support", "subset", "center"}


@pytest.mark.parametrize("verb", [["facets"], ["venkov"],
                                  ["export", "--format", "svg"]])
def test_cell_verbs_refuse_an_edge_set_document(run, tmp_path, verb):
    code, edges, _ = run("edges", write_doc(tmp_path, "hex.json", HEX_DOC))
    assert code == 0
    src = tmp_path / "edges.json"
    src.write_text(edges)
    code, out, err = run(*verb, str(src))
    assert code == 1
    assert out == ""
    assert err == "zonocert: $: expected a normal_set or zonotope document\n"


def test_venkov_verb_accepts_cube(run, tmp_path):
    src = write_doc(tmp_path, "cube.json", CUBE_DOC)
    code, out, _ = run("venkov", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["parallelohedron"] is True
    assert payload["witnesses"] == []
    assert all(r["class"] == "parallelogram" for r in payload["ridges"])


def test_venkov_verb_rejects_five_generator_counterexample(run, tmp_path):
    src = write_doc(tmp_path, "counter.json", COUNTEREXAMPLE_DOC)
    code, out, _ = run("venkov", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["parallelohedron"] is False
    assert payload["centrally_symmetric"] is True
    assert payload["facets_centrally_symmetric"] is True
    assert payload["witnesses"] == [[2], [3]]
    flagged = {tuple(r["flat"]): r for r in payload["ridges"]}
    assert flagged[(2,)]["class"] == "other"
    assert flagged[(2,)]["direction_count"] == 4


def test_dv_cell_verb(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("dv-cell", src)
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplier"] == "4"
    assert ["2/3", "-1/3"] in payload["vertices"]
    assert len(payload["vertices"]) == 6


def test_dv_cell_multiplier_too_small_is_domain_error(run, tmp_path,
                                                    monkeypatch):
    # at a quarter of the fixed radius the cube's cell cannot be certified
    monkeypatch.setattr(parallelohedron, "RADIUS_MULTIPLIER", 1)
    src = write_doc(tmp_path, "cube.json", dict(
        RHOMBIC_DOC, normals=RHOMBIC_DOC["normals"][:3], weights=["1"] * 3))
    code, out, err = run("dv-cell", src)
    assert code == 2
    assert json.loads(out)["error"] == "EnumerationInsufficient"
    assert "zonocert:" in err
    # so is a normal set with fewer weights than normals
    src = write_doc(tmp_path, "short.json", dict(HEX_DOC, weights=["1", "1"]))
    code, out, err = run("certify", src)
    assert code == 2
    assert json.loads(out)["error"] == "InvalidNormalSet"
    assert err == "zonocert: one weight per normal required\n"


def test_stdin_input(run, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(HEX_DOC)))
    code, out, _ = run("edges", "-")
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_output_is_byte_deterministic(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    _, first, _ = run("certify", src)
    _, second, _ = run("certify", src)
    assert first == second


def test_export_svg_single_cell(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("export", "--format", "svg", src)
    assert code == 0
    assert out.count("<polygon") == 1
    assert out.count("<line") == 6
    assert 'viewBox="-1.1 -1.1 2.2 2.2"' in out


def test_export_svg_patch(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, _ = run("export", "--format", "svg", "--patch-radius", "1", src)
    assert code == 0
    assert out.count("<polygon") == 9
    assert out.count("<line") == 6


def corpus_normal_set(tmp_path, name):
    with open(bundled_corpus_path(), encoding="utf-8") as fh:
        entry = next(e for e in json.load(fh) if e["name"] == name)
    return write_doc(tmp_path, f"{name}.json", entry["normal_set"])


def test_export_svg_polygon_is_pinned(run, tmp_path):
    # the vertices in their cyclic order, not only their count
    src = corpus_normal_set(tmp_path, "hexagonal-weighted")
    code, out, _ = run("export", "--format", "svg", src)
    assert code == 0
    polygons = [l.strip() for l in out.splitlines() if "<polygon" in l]
    assert polygons == [
        '<polygon points="0.227272727273,-0.363636363636'
        ' -0.227272727273,-0.636363636364 -0.772727272727,-0.363636363636'
        ' -0.227272727273,0.363636363636 0.227272727273,0.636363636364'
        ' 0.772727272727,0.363636363636"/>']


def test_export_obj_faces_are_pinned(run, tmp_path):
    src = corpus_normal_set(tmp_path, "rhombic-dodecahedral")
    code, out, _ = run("export", "--format", "obj", src)
    assert code == 0
    assert [l for l in out.splitlines() if l.startswith("f ")] == [
        "f 4 6 12 10", "f 5 3 9 11", "f 7 4 10 13", "f 2 5 11 8",
        "f 13 9 3 7", "f 12 6 2 8", "f 10 12 14 13", "f 1 3 5 2",
        "f 13 14 11 9", "f 4 1 2 6", "f 12 8 11 14", "f 4 7 3 1"]


OCTAGONAL_PRISM_DOC = {
    "schema": "v1",
    "dim": 3,
    "generators": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"],
                   ["1", "-1", "0"], ["0", "0", "1"]],
}


def test_export_obj_octagonal_faces_are_pinned(run, tmp_path):
    # each octagon holds 4 generators; no other pinned face holds more than 3
    src = write_doc(tmp_path, "prism.json", OCTAGONAL_PRISM_DOC)
    code, out, _ = run("export", "--format", "obj", src)
    assert code == 0
    lines = out.splitlines()
    assert sum(l.startswith("v ") for l in lines) == 16
    assert [l for l in lines if l.startswith("f ")] == [
        "f 16 12 8 4 2 6 10 14", "f 11 15 13 9 5 1 3 7", "f 12 11 7 8",
        "f 10 6 5 9", "f 16 14 13 15", "f 4 3 1 2", "f 14 10 9 13",
        "f 8 7 3 4", "f 12 16 15 11", "f 2 1 5 6"]


def _cross(a, b):
    return RatVector((a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                      a[0] * b[1] - a[1] * b[0]))


def assert_faces_match_the_vertex_oracle(z):
    """The OBJ faces against the hull oracle: the same vertices, each face
    the oracle vertices on its facet plane, turning counterclockwise about
    the outward normal."""
    verts, polygons = cli._facet_polygons(z)
    oracle = vertices_oracle(z)
    assert [v.entries for v in verts] == [v.entries for v in oracle]
    sides = [(f.normal.scale(s), f.support) for f in facets(z) for s in (1, -1)]
    assert len(polygons) == len(sides)
    for poly, (normal, support) in zip(polygons, sides):
        assert len(set(poly)) == len(poly)
        assert {verts[i].entries for i in poly} == \
            {v.entries for v in oracle if normal.dot(v) == support}
        corners = [verts[i] for i in poly]
        for a, b, c in zip(corners, corners[1:] + corners[:1],
                           corners[2:] + corners[:2]):
            assert normal.dot(_cross(b - a, c - b)) > 0


def _dicing_cells():
    with open(bundled_corpus_path(), encoding="utf-8") as fh:
        cells = [(e["name"], e["normal_set"]) for e in json.load(fh)
                 if e["normal_set"]["dim"] == 3 and "error" not in e["expected"]]
    k4 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "-1", "0"],
          ["1", "0", "-1"], ["0", "1", "-1"]]
    return cells + [("graphic-K4", {"dim": 3, "normals": k4,
                                    "weights": ["1"] * 6})]


@pytest.mark.parametrize("doc", [pytest.param(d, id=n)
                                 for n, d in _dicing_cells()])
def test_obj_faces_of_dicing_cells_match_the_vertex_oracle(doc):
    assert_faces_match_the_vertex_oracle(
        dv_zonotope(jsonio.parse_normal_set(doc)))


small_rows = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rows, min_size=3, max_size=7), st.booleans(),
       st.integers(-2, 2), st.integers(-2, 2))
def test_obj_faces_of_random_zonotopes_match_the_vertex_oracle(rows, coplanar,
                                                               a, b):
    if coplanar:
        rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    try:
        z = Zonotope(3, [RatVector(map(Fraction, r)) for r in rows if any(r)])
    except ZonocertError:
        assume(False)
    assert_faces_match_the_vertex_oracle(z)


@pytest.mark.parametrize("fmt, doc", [
    ("svg", dict(HEX_DOC, weights=["1", "3", "7"])),
    ("obj", dict(RHOMBIC_DOC, weights=["1", "3", "7", "2"])),
], ids=["svg", "obj"])
def test_export_bytes_ignore_the_callers_decimal_context(run, tmp_path, fmt,
                                                         doc):
    src = write_doc(tmp_path, "doc.json", doc)
    argv = ("export", "--format", fmt, "--patch-radius", "1", src)
    plain = run(*argv)
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.rounding = decimal.ROUND_FLOOR
        assert run(*argv) == plain
    assert plain[0] == 0


@pytest.mark.parametrize("raw", ["3", "40", "many", "0", str(10 ** 9)])
def test_export_bytes_ignore_the_render_digits_variable(run, tmp_path,
                                                        monkeypatch, raw):
    # the variable set the precision once; it is no longer read
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    argv = ("export", "--format", "svg", "--patch-radius", "1", src)
    monkeypatch.delenv("ZONOCERT_RENDER_DIGITS", raising=False)
    plain = run(*argv)
    monkeypatch.setenv("ZONOCERT_RENDER_DIGITS", raw)
    assert run(*argv) == plain
    assert plain[0] == 0
    assert ('viewBox="-1.83333333333 -1.83333333333 3.66666666667 '
            '3.66666666667"') in plain[1]


@pytest.mark.parametrize("doc, fmt, largest", [
    (HEX_DOC, "svg", 49),
    (RHOMBIC_DOC, "obj", 10),
])
def test_patch_radius_refuses_a_huge_patch_at_once(run, tmp_path, monkeypatch,
                                                   doc, fmt, largest):
    src = write_doc(tmp_path, "doc.json", doc)

    def lattice(ns):
        raise AssertionError("built a lattice for a refused patch")

    monkeypatch.setattr(cli, "lattice_of_dicing", lattice)
    code, out, err = run("export", "--format", fmt,
                         "--patch-radius", str(10 ** 9), src)
    assert code == 1
    assert out == ""
    assert err.startswith(f"zonocert: patch radius must be at most {largest} ")
    assert err.count("\n") == 1 and "Traceback" not in err
    code, _, err = run("export", "--format", fmt,
                       "--patch-radius", str(largest + 1), src)
    assert code == 1 and "patch radius must be at most" in err


def test_export_obj_cube(run, tmp_path):
    src = write_doc(tmp_path, "cube.json", CUBE_DOC)
    code, out, _ = run("export", "--format", "obj", src)
    assert code == 0
    lines = out.splitlines()
    vertex_lines = [l for l in lines if l.startswith("v ")]
    face_lines = [l for l in lines if l.startswith("f ")]
    assert len(vertex_lines) == 8
    assert len(face_lines) == 6
    assert all(len(l.split()) == 5 for l in face_lines)
    indices = {int(tok) for l in face_lines for tok in l.split()[1:]}
    assert indices == set(range(1, 9))


def test_export_obj_needs_three_dimensions(run, tmp_path):
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, err = run("export", "--format", "obj", src)
    assert code == 2
    assert json.loads(out)["error"] == "DimensionMismatch"
    assert "3-dimensional" in err


def test_export_svg_needs_two_dimensions(run, tmp_path):
    src = write_doc(tmp_path, "cube.json", CUBE_DOC)
    code, out, _ = run("export", "--format", "svg", src)
    assert code == 2
    assert json.loads(out)["error"] == "DimensionMismatch"


def test_export_patch_needs_normals(run, tmp_path):
    doc = {"schema": "v1", "dim": 2,
           "generators": [["1", "0"], ["0", "1"]]}
    src = write_doc(tmp_path, "zono.json", doc)
    code, _, err = run("export", "--format", "svg", "--patch-radius", "1", src)
    assert code == 1
    assert "patch" in err


def test_corpus_bundled_all_pass(run):
    code, out, err = run("corpus")
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[-1] == "16 entries, 16 passed, 0 failed"
    assert all(" pass " in line for line in lines[:-1])
    assert any(line.startswith("hexagonal ") for line in lines)
    assert any("det -1" in line for line in lines)


def test_corpus_explicit_path_matches_bundled(run):
    code, out, _ = run("corpus", bundled_corpus_path())
    assert code == 0
    assert out.strip().splitlines()[-1] == "16 entries, 16 passed, 0 failed"


@pytest.mark.parametrize("doc, expected, message", [
    pytest.param(HEX_DOC, {"edge_pairs": 3, "facet_pairs": 4, "det": "1"},
                 "expected 4 facet pairs, got 3", id="facet_pairs"),
    pytest.param(HEX_DOC, {"edge_pairs": 4},
                 "expected 4 edge pairs, got 3", id="edge_pairs"),
    pytest.param(HEX_DOC, {"det": "-1"}, "expected det -1, got 1", id="det"),
    pytest.param(NON_DICING_DOC, {}, "unexpected error NotADicing: ",
                 id="unexpected_error"),
])
def test_corpus_flags_wrong_expectation(run, tmp_path, doc, expected, message):
    entry = {"name": "wrong", "normal_set": doc, "expected": expected}
    src = write_doc(tmp_path, "corpus.json", [entry])
    code, out, _ = run("corpus", src)
    assert code == 2
    assert "FAIL" in out
    assert message in out
    assert out.strip().splitlines()[-1] == "1 entries, 0 passed, 1 failed"


def test_corpus_expected_error_entry_passes(run, tmp_path):
    entry = {
        "name": "declared non-dicing",
        "normal_set": NON_DICING_DOC,
        "expected": {"error": "NotADicing"},
    }
    src = write_doc(tmp_path, "corpus.json", [entry])
    code, out, _ = run("corpus", src)
    assert code == 0
    assert "pass" in out
    assert "NotADicing" in out


def test_corpus_compares_det_as_a_rational(run, tmp_path):
    entry = {"name": "hex", "normal_set": HEX_DOC, "expected": {"det": "2/2"}}
    code, out, _ = run("corpus", write_doc(tmp_path, "corpus.json", [entry]))
    assert code == 0
    assert out == (f"{'hex':<28} pass  3 edge pairs, 3 facet pairs, det 1\n"
                   "1 entries, 1 passed, 0 failed\n")


def test_corpus_surprise_success_fails(run, tmp_path):
    entry = {
        "name": "mislabeled",
        "normal_set": HEX_DOC,
        "expected": {"error": "NotADicing"},
    }
    src = write_doc(tmp_path, "corpus.json", [entry])
    code, out, _ = run("corpus", src)
    assert code == 2
    assert "FAIL" in out


def _reject_every_certificate(monkeypatch):
    audit = parallelohedron.CertificateAudit(ok=False, failures=("forged",))
    monkeypatch.setattr(cli, "verify_certificate", lambda cert: audit)


def test_certify_refuses_what_the_verifier_rejects(run, tmp_path, monkeypatch):
    _reject_every_certificate(monkeypatch)
    code, out, err = run("certify", write_doc(tmp_path, "hex.json", HEX_DOC))
    assert code == 2
    assert json.loads(out)["error"] == "InternalFault"
    assert err == ("zonocert: certificate failed independent verification: "
                   "forged\n")


def test_corpus_fails_what_the_verifier_rejects(run, tmp_path, monkeypatch):
    _reject_every_certificate(monkeypatch)
    entry = {"name": "forged", "normal_set": HEX_DOC, "expected": {}}
    code, out, _ = run("corpus", write_doc(tmp_path, "corpus.json", [entry]))
    assert code == 2
    assert out.splitlines()[0] == \
        f"{'forged':<28} FAIL  verifier rejected: forged"
    assert out.strip().splitlines()[-1] == "1 entries, 0 passed, 1 failed"


def _count_certify_calls(monkeypatch) -> list:
    calls = []

    def counting(ns):
        calls.append(ns)
        return parallelohedron.certify_second_voronoi(ns)
    monkeypatch.setattr(cli, "certify_second_voronoi", counting)
    return calls


def _expecting(doc, expected):
    return [{"name": "a", "normal_set": doc, "expected": expected}]


SQUARE_DOC = dict(HEX_DOC, normals=[["1", "0"], ["0", "1"]], weights=["1", "1"])


@pytest.mark.parametrize("entries, message", [
    ([{"name": "a", "normal_set": HEX_DOC}, {"name": "a", "normal_set": HEX_DOC}],
     "$[1].name: duplicate entry name 'a'"),
    ([{"normal_set": HEX_DOC}], "$[0].name: "),
    ([{"name": "a", "normal_set": HEX_DOC, "expected": []}], "$[0].expected: "),
    ([{"name": "a", "normal_set": {"dim": 2, "weights": ["1"]}}],
     "$[0].normal_set.normals: missing field"),
    (_expecting(SQUARE_DOC, {"edge_pair": 99, "dett": "7"}),
     "$[0].expected.edge_pair: "),
    (_expecting(SQUARE_DOC, {"edge_pairs": "2"}), "$[0].expected.edge_pairs: "),
    (_expecting(HEX_DOC, {"edge_pairs": True}), "$[0].expected.edge_pairs: "),
    (_expecting(HEX_DOC, {"facet_pairs": 3.0}), "$[0].expected.facet_pairs: "),
    (_expecting(NON_DICING_DOC, {"error": "NotADicing", "edge_pairs": 5}),
     "$[0].expected.edge_pairs: "),
    (_expecting(NON_DICING_DOC, {"det": "1", "error": "NotADicing"}),
     "$[0].expected.det: "),
    (_expecting(NON_DICING_DOC, {"error": 3}), "$[0].expected.error: "),
    (_expecting(HEX_DOC, {"det": 1}), "$[0].expected.det: "),
    (_expecting(HEX_DOC, {"det": "1/0"}), "$[0].expected.det: "),
])
def test_corpus_rejects_malformed_entries(run, tmp_path, monkeypatch, entries,
                                          message):
    calls = _count_certify_calls(monkeypatch)
    src = write_doc(tmp_path, "corpus.json", entries)
    code, out, err = run("corpus", src)
    assert code == 1
    assert out == ""
    assert err.startswith(f"zonocert: {message}")
    assert len(err.splitlines()) == 1
    assert calls == []


def test_corpus_refuses_a_duplicate_name_before_any_entry_runs(run, tmp_path,
                                                               monkeypatch):
    calls = _count_certify_calls(monkeypatch)
    entries = [{"name": "hex", "normal_set": HEX_DOC},
               {"name": "hex", "normal_set": RHOMBIC_DOC}]
    code, out, err = run("corpus", write_doc(tmp_path, "corpus.json", entries))
    assert (code, out, err) == (
        1, "", "zonocert: $[1].name: duplicate entry name 'hex'\n")
    assert calls == []


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "zonocert.cli", "corpus"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == \
        "16 entries, 16 passed, 0 failed"


def _corpus_into(stdout):
    # buffered, as by default, so that the error shows only at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "zonocert.cli", "corpus"], env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def _assert_one_write_error(code, err):
    assert code == 1
    line, = err.splitlines()
    assert line.startswith("zonocert: cannot write -: ")
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_closed_stdout_pipe_exits_one():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _corpus_into(write_end)
    finally:
        os.close(write_end)
    _assert_one_write_error(proc.returncode, proc.stderr)
    assert "Broken pipe" in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_one():
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = _corpus_into(full)
    _assert_one_write_error(proc.returncode, proc.stderr)


class _BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("verb, doc", [("corpus", None),
                                       ("certify", NON_DICING_DOC)])
def test_broken_in_process_stdout_exits_one(capsys, monkeypatch, tmp_path,
                                            verb, doc):
    # certify on a non-dicing fails while writing its error payload
    argv = [verb] if doc is None else [verb, write_doc(tmp_path, "in.json", doc)]
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    code = main(argv)
    _assert_one_write_error(code, capsys.readouterr().err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stderr_keeps_the_domain_exit_code(run, tmp_path):
    src = write_doc(tmp_path, "in.json", NON_DICING_DOC)
    _, payload, _ = run("certify", src)
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "zonocert.cli", "certify", src],
            stdout=subprocess.PIPE, stderr=full, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == payload
    assert json.loads(payload)["stage"] == "edge-set"


class _FullStderr(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stderr", [_FullStderr, lambda: None],
                         ids=["full", "closed"])
@pytest.mark.parametrize("argv, code", [(["certify"], 2),
                                        (["certify", "--bogus"], 1)],
                         ids=["domain-error", "usage-error"])
def test_unwritable_stderr_keeps_the_exit_code(capsys, monkeypatch, tmp_path,
                                               stderr, argv, code):
    # sys.stderr is None when the process starts with descriptor 2 closed
    src = write_doc(tmp_path, "in.json", NON_DICING_DOC)
    monkeypatch.setattr(sys, "stderr", stderr())
    assert main(argv + [src]) == code
    out = capsys.readouterr().out
    if code == 2:
        assert json.loads(out)["stage"] == "edge-set"
    else:
        assert out == ""


def test_certify_mismatch_payload(run, tmp_path, monkeypatch):
    real = parallelohedron._facet_vectors_from
    monkeypatch.setattr(parallelohedron, "_facet_vectors_from", lambda *args:
                        FacetVectorSet(real(*args).vectors[:-1]))
    src = write_doc(tmp_path, "hex.json", HEX_DOC)
    code, out, err = run("certify", src)
    assert code == 2
    payload = json.loads(out)
    assert list(payload) == ["error", "message", "missing", "extra", "stage"]
    assert payload["error"] == "Mismatch"
    assert payload["stage"] == "n-equals-e"
    assert len(payload["missing"]) == 1
    assert payload["extra"] == []
    assert err.startswith("zonocert: certification failed at stage 'n-equals-e'")


# ---------------------------------------------------------------------------
# fuzzing every verb

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
# rational strings, some malformed, and a few non-string entries
entries = st.one_of(st.integers(-2, 2).map(str),
                    st.sampled_from(["1/2", "-3/2", "0/1", "1/0", "x", ""]),
                    json_values)


@st.composite
def documents(draw):
    """A normal set or a zonotope of dimension at most 4: often the unit
    rows plus a few small rows, so that many are valid; sometimes one
    field is replaced by any JSON value."""
    d = draw(st.integers(1, 4))
    key = draw(st.sampled_from(["normals", "generators"]))
    unit = [[str(int(i == j)) for j in range(d)] for i in range(d)]
    small = st.lists(st.sampled_from(["-1", "0", "1", "2"]),
                     min_size=d, max_size=d)
    rows = draw(st.sampled_from([unit, []])) + draw(st.lists(small, max_size=3))
    doc = {"schema": "v1", "dim": d, key: rows}
    if key == "normals":
        doc["weights"] = draw(st.lists(st.sampled_from(["1", "2", "1/2", "0"]),
                                       min_size=len(rows), max_size=len(rows)))
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(sorted(doc) + ["extra"]))
        doc[field] = draw(json_values | st.lists(st.lists(entries, max_size=5),
                                                 max_size=4))
    return doc


VERBS = [["edges"], ["lattice"], ["zonotope"], ["facets"], ["venkov"],
         ["dv-cell"], ["certify"],
         ["export", "--format", "svg"], ["export", "--format", "obj"],
         ["export", "--format", "svg", "--patch-radius", "1"],
         ["export", "--format", "obj", "--patch-radius", "1"], ["corpus"]]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(VERBS), st.one_of(
    documents(), documents(), json_values,
    st.lists(st.fixed_dictionaries({"name": st.text(max_size=2),
                                    "normal_set": documents()}), max_size=2)))
def test_cli_fuzz_exits_cleanly(verb, doc):
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.json"), os.path.join(tmp, "out")
        with open(src, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(verb + [src, "-o", dst])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            with open(dst, encoding="utf-8") as fh:
                text = fh.read()
            if verb == ["corpus"]:
                assert text.endswith(" failed\n")
            else:
                assert "error" in json.loads(text)
