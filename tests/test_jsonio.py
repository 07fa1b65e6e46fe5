"""JSON serialization: round trips, canonical text, schema errors."""

import json
from fractions import Fraction

import pytest

from zonocert import (certify_second_voronoi, compute_edge_set, dv_zonotope,
                      jsonio, lattice_of_dicing)
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


@pytest.mark.parametrize("text", ["1.5", "", "1e3", "2 / 3", "--1", "1/"])
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
