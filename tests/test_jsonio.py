"""JSON serialization: round trips, canonical text, schema errors."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from zonocert import (certify_second_voronoi, compute_edge_set, dv_zonotope,
                      errors, jsonio, lattice_of_dicing)
from zonocert.errors import SchemaError

from conftest import CHECKER, HEXAGONAL, RHOMBIC, normal_set


# ---------------------------------------------------------------------------
# rational strings


def test_rational_strings_omit_unit_denominators():
    assert jsonio.rational_to_str(Fraction(4)) == "4"
    assert jsonio.rational_to_str(Fraction(-2, 3)) == "-2/3"
    assert jsonio.rational_to_str(Fraction(0)) == "0"


def test_rational_parsing_normalizes():
    assert jsonio.parse_rational("-4/6", "x") == Fraction(-2, 3)
    assert jsonio.parse_rational("007", "x") == 7


@pytest.mark.parametrize("text", ["1.5", "", "1e3", "2 / 3", "--1", "1/",
                                  "1\n", "\u0663", "\uff11", "1/\u0662"])
def test_rational_parsing_rejects_non_rationals(text):
    with pytest.raises(SchemaError):
        jsonio.parse_rational(text, "x")


def test_rational_parsing_rejects_zero_denominator():
    with pytest.raises(SchemaError):
        jsonio.parse_rational("2/0", "x")


@pytest.mark.parametrize("text", ["-1" + "0" * 5000, "1/1" + "0" * 5000])
def test_rational_parsing_rejects_overlong_integers(text):
    # beyond Python's int-string limit for numerator and denominator
    with pytest.raises(SchemaError) as info:
        jsonio.parse_rational(text, "$.weights[0]")
    assert info.value.location == "$.weights[0]"


# ---------------------------------------------------------------------------
# document round trips


@pytest.mark.parametrize("rows", [HEXAGONAL, CHECKER, RHOMBIC])
def test_normal_set_round_trip(rows):
    ns = normal_set(rows, weights=[Fraction(i + 1, 3)
                                   for i in range(len(rows))])
    doc = jsonio.normal_set_to_json(ns)
    assert doc["schema"] == "v1"
    assert jsonio.parse_normal_set(doc) == ns


@pytest.mark.parametrize("rows", [HEXAGONAL, CHECKER, RHOMBIC])
def test_edge_set_round_trip(rows):
    es = compute_edge_set(normal_set(rows))
    doc = jsonio.edge_set_to_json(es)
    assert jsonio.parse_edge_set(doc) == es


@pytest.mark.parametrize("rows", [HEXAGONAL, RHOMBIC])
def test_zonotope_round_trip(rows):
    z = dv_zonotope(normal_set(rows))
    doc = jsonio.zonotope_to_json(z)
    assert jsonio.parse_zonotope(doc) == z


@pytest.mark.parametrize("rows", [HEXAGONAL, CHECKER])
def test_lattice_round_trip(rows):
    lat = lattice_of_dicing(normal_set(rows))
    doc = jsonio.lattice_to_json(lat)
    assert jsonio.parse_lattice(doc).basis == lat.basis


@pytest.mark.parametrize("rows", [HEXAGONAL, CHECKER, RHOMBIC])
def test_certificate_round_trip(rows):
    cert = certify_second_voronoi(normal_set(rows))
    doc = jsonio.certificate_to_json(cert, verified=True)
    assert doc["schema"] == "v1"
    parsed, verified = jsonio.parse_certificate(doc)
    assert parsed == cert
    assert verified is True


def test_certificate_verified_flag_round_trips_false():
    cert = certify_second_voronoi(normal_set(HEXAGONAL))
    doc = jsonio.certificate_to_json(cert, verified=False)
    assert jsonio.parse_certificate(doc)[1] is False
    doc["verified"] = "yes"
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(doc)
    assert str(info.value) == "$.verified: expected a boolean"


def test_dumps_is_byte_deterministic():
    cert = certify_second_voronoi(normal_set(HEXAGONAL))
    one = jsonio.dumps(jsonio.certificate_to_json(cert, verified=True))
    two = jsonio.dumps(jsonio.certificate_to_json(
        certify_second_voronoi(normal_set(HEXAGONAL)), verified=True))
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one)["det"] == "1"


def test_schema_field_is_optional_on_parse():
    doc = jsonio.normal_set_to_json(normal_set(HEXAGONAL))
    del doc["schema"]
    assert jsonio.parse_normal_set(doc) == normal_set(HEXAGONAL)


# ---------------------------------------------------------------------------
# schema errors carry dotted locations


def test_error_location_for_bad_entry():
    doc = {"dim": 2, "normals": [["1", "0"], ["x", "1"]],
           "weights": ["1", "1"]}
    with pytest.raises(SchemaError) as info:
        jsonio.parse_normal_set(doc)
    assert info.value.location == "$.normals[1][0]"


def test_error_location_for_short_vector():
    doc = {"dim": 2, "normals": [["1", "0"], ["1"]], "weights": ["1", "1"]}
    with pytest.raises(SchemaError) as info:
        jsonio.parse_normal_set(doc)
    assert info.value.location == "$.normals[1]"
    # a vector that is not a list at all, and a basis short of vectors
    doc["normals"] = [5, ["0", "1"]]
    with pytest.raises(SchemaError) as info:
        jsonio.parse_normal_set(doc)
    assert str(info.value) == "$.normals[0]: expected a list of rational strings"
    with pytest.raises(SchemaError) as info:
        jsonio.parse_lattice({"dim": 2, "basis": [["1", "0"]]})
    assert str(info.value) == "$.basis: expected 2 basis vectors, got 1"


def test_error_for_unknown_schema_version():
    doc = jsonio.normal_set_to_json(normal_set(HEXAGONAL))
    doc["schema"] = "v2"
    with pytest.raises(SchemaError) as info:
        jsonio.parse_normal_set(doc)
    assert info.value.location == "$.schema"


def test_error_for_missing_field():
    with pytest.raises(SchemaError) as info:
        jsonio.parse_normal_set({"dim": 2, "normals": [["1", "0"],
                                                       ["0", "1"]]})
    assert info.value.location == "$.weights"


def test_error_for_non_object():
    with pytest.raises(SchemaError):
        jsonio.parse_normal_set([])


def hexagonal_certificate_doc():
    return jsonio.certificate_to_json(
        certify_second_voronoi(normal_set(HEXAGONAL)), verified=True)


@pytest.mark.parametrize("bad", [["x"], 0.9, "0", True, None])
def test_certificate_refuses_non_integer_facet_link(bad):
    doc = hexagonal_certificate_doc()
    doc["facet_vectors"]["facet_link"][1] = bad
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(doc)
    assert info.value.location == "$.facet_vectors.facet_link"


def test_certificate_writes_facet_link_in_facet_order():
    doc = hexagonal_certificate_doc()
    assert doc["facet_vectors"]["facet_link"] == [0, 1, 2]
    cert, _ = jsonio.parse_certificate(doc)
    assert len(cert.facet_vectors.vectors) == 3


@pytest.mark.parametrize("link", [[99, -4, 7], [0], [1, 0, 2]])
def test_certificate_refuses_a_facet_link_out_of_facet_order(link):
    # the verifier pairs facet vector k with facet pair k, so any other
    # link would be carried without being checked
    doc = hexagonal_certificate_doc()
    doc["facet_vectors"]["facet_link"] = link
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(doc)
    assert info.value.location == "$.facet_vectors.facet_link"


@pytest.mark.parametrize("key", ["edge", "vector", "sign"])
@pytest.mark.parametrize("bad", [["x"], 0.9, "0", True])
def test_certificate_refuses_non_integer_bijection(key, bad):
    # 0.9 must not be read as index 0, which would make a valid certificate
    doc = hexagonal_certificate_doc()
    doc["ne_bijection"][0][key] = bad
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(doc)
    assert info.value.location == "$.ne_bijection[0]"


def test_certificate_refuses_bijection_without_sign():
    doc = hexagonal_certificate_doc()
    del doc["ne_bijection"][2]["sign"]
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(doc)
    assert info.value.location == "$.ne_bijection[2]"


@pytest.mark.parametrize("key", ["normal_set", "edge_set", "zonotope",
                                 "lattice"])
def test_certificate_refuses_sub_document_of_other_dimension(key):
    doc = hexagonal_certificate_doc()
    doc[key] = jsonio.certificate_to_json(
        certify_second_voronoi(normal_set(RHOMBIC)), verified=True)[key]
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(doc)
    assert info.value.location == f"$.{key}.dim"


def test_certificate_refuses_non_integer_basis_indices():
    doc = hexagonal_certificate_doc()
    doc["basis_indices"][0] = 1.0
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(doc)
    assert info.value.location == "$.basis_indices"


def _break_edge_set(doc, fault):
    if fault == "zero":
        doc["edges"][1] = ["0"] * doc["dim"]
    elif fault == "parallel":
        doc["edges"][1] = list(doc["edges"][0])
    else:
        del doc["provenance"][-1]


EDGE_SET_FAULTS = [
    ("zero", "edges", "edge 1 is zero"),
    ("parallel", "edges", "edges 0 and 1 are parallel"),
    ("count", "provenance", "expected 3 subsets, one per edge, got 2"),
]


@pytest.mark.parametrize("fault, key, message", EDGE_SET_FAULTS)
def test_edge_set_faults_are_schema_errors(fault, key, message):
    doc = jsonio.edge_set_to_json(compute_edge_set(normal_set(HEXAGONAL)))
    _break_edge_set(doc, fault)
    with pytest.raises(SchemaError) as info:
        jsonio.parse_edge_set(doc)
    assert info.value.location == f"$.{key}"
    assert str(info.value) == f"$.{key}: {message}"
    cert = hexagonal_certificate_doc()
    _break_edge_set(cert["edge_set"], fault)
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(cert)
    assert info.value.location == f"$.edge_set.{key}"


@pytest.mark.parametrize("rows, subsets", [
    (HEXAGONAL, {0: [-5], 1: [7, 7, 7], 2: [0]}), (HEXAGONAL, {1: [1, 2]}),
    (HEXAGONAL, {2: []}), (RHOMBIC, {0: [1, 0]}), (RHOMBIC, {3: [2, 2]})])
def test_edge_set_provenance_is_d_minus_1_increasing_indices(rows, subsets):
    doc = jsonio.edge_set_to_json(compute_edge_set(normal_set(rows)))
    cert = jsonio.certificate_to_json(
        certify_second_voronoi(normal_set(rows)), verified=True)
    for k, subset in subsets.items():
        doc["provenance"][k] = cert["edge_set"]["provenance"][k] = subset
    k, d = min(subsets), doc["dim"]
    with pytest.raises(SchemaError) as info:
        jsonio.parse_edge_set(doc)
    assert str(info.value) == (f"$.provenance[{k}]: expected {d - 1} strictly "
                               "increasing non-negative indices")
    with pytest.raises(SchemaError) as info:
        jsonio.parse_certificate(cert)
    assert info.value.location == f"$.edge_set.provenance[{k}]"


# ---------------------------------------------------------------------------
# payload detection


def test_detect_payload_kinds():
    ns = normal_set(HEXAGONAL)
    cert = certify_second_voronoi(ns)
    assert jsonio.detect_payload(jsonio.normal_set_to_json(ns)) == "normal_set"
    assert jsonio.detect_payload(
        jsonio.edge_set_to_json(compute_edge_set(ns))) == "edge_set"
    assert jsonio.detect_payload(
        jsonio.zonotope_to_json(dv_zonotope(ns))) == "zonotope"
    assert jsonio.detect_payload(
        jsonio.lattice_to_json(lattice_of_dicing(ns))) == "lattice"
    assert jsonio.detect_payload(
        jsonio.certificate_to_json(cert, verified=False)) == "certificate"


# ---------------------------------------------------------------------------
# ownership of the format


def test_a_schema_error_is_not_a_domain_error():
    # the class says what the command line does: exit 1, not the exit 2
    # and JSON payload of a ZonocertError
    assert not issubclass(SchemaError, errors.ZonocertError)


def test_errors_module_holds_data_only():
    # jsonio renders the error payloads; errors imports no zonocert module
    # and defines no payload method
    tree = ast.parse(Path(errors.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.partition(".")[0] != \
                "zonocert", f"line {node.lineno} imports from zonocert"
        elif isinstance(node, ast.Import):
            assert all(a.name.partition(".")[0] != "zonocert"
                       for a in node.names), node.lineno
        elif isinstance(node, ast.FunctionDef):
            assert node.name != "payload", f"line {node.lineno}"
