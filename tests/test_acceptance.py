"""Acceptance suite.

Eight criteria, one test each.  Every test produces a single line

    [criterion N] pass: <detail>   or   [criterion N] fail: <detail>

printed immediately when capture is off and replayed in the terminal
summary otherwise (see the hook in conftest.py), then fails normally on
violation.  All comparisons are exact rational equality; there are no
tolerances anywhere.
"""

import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from conftest import HEXAGONAL, NON_DICING, RHOMBIC, mat, normal_set, vec, zono
from oracles import apply_affine, hull_facet_planes
from zonocert import (NormalSet, certify_second_voronoi, compute_edge_set,
                      delone_duality_check, dv_cell_oracle, dv_zonotope,
                      facets, is_totally_unimodular, kernel_line,
                      lattice_of_dicing, quadratic_form, rank,
                      unimodular_representation, venkov_check,
                      verify_certificate, vertices_oracle)
from zonocert.cli import bundled_corpus_path
from zonocert.dicing import NotADicing
from zonocert.jsonio import parse_normal_set, parse_rational
from zonocert.zonotope import OTHER


VERDICT_LINES: list[str] = []


def _report(number: int, ok: bool, detail: str) -> None:
    status = "pass" if ok else "fail"
    line = f"[criterion {number}] {status}: {detail}"
    VERDICT_LINES.append(line)
    print(line)
    sys.stdout.flush()


def _criterion(number: int, body) -> str:
    try:
        detail = body()
    except BaseException as exc:
        _report(number, False, str(exc) or type(exc).__name__)
        raise
    _report(number, True, detail)
    return detail


def _corpus_entries():
    with open(bundled_corpus_path(), encoding="utf-8") as handle:
        raw = json.load(handle)
    entries = []
    for item in raw:
        ns = parse_normal_set(item["normal_set"])
        entries.append((item["name"], ns, item["expected"]))
    return entries


def _dicing_entries():
    return [(name, ns, expected) for name, ns, expected in _corpus_entries()
            if "error" not in expected]


def _normals_key(ns: NormalSet) -> frozenset:
    return frozenset(n.entries for n in ns.normals)


def test_criterion_1_corpus_certificates():
    def body():
        start = time.perf_counter()
        dicings = _dicing_entries()
        assert len(dicings) >= 10
        dims = {ns.dimension for _, ns, _ in dicings}
        assert dims == {2, 3, 4}
        keys = {_normals_key(ns) for _, ns, _ in dicings}
        required = [
            [(1, 0), (0, 1), (1, 1)],
            [(1, 0), (0, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        ]
        for rows in required:
            key = frozenset(tuple(Fraction(x) for x in row) for row in rows)
            assert key in keys, f"required fixture missing: {rows}"
        for name, ns, expected in dicings:
            cert = certify_second_voronoi(ns)
            audit = verify_certificate(cert)
            assert audit.ok, f"{name}: {audit.failures}"
            assert abs(cert.lattice_coordinate_det) == 1, name
            assert cert.lattice_coordinate_det == \
                parse_rational(expected["det"], "$"), name
            edges = len(cert.edge_set.edges)
            vectors = len(cert.facet_vectors.vectors)
            assert edges == expected["edge_pairs"], name
            assert vectors == expected["facet_pairs"], name
            assert len(cert.ne_bijection) == edges == vectors, name
            assert sorted(e for e, _, _ in cert.ne_bijection) == \
                list(range(edges)), name
            assert sorted(v for _, v, _ in cert.ne_bijection) == \
                list(range(vectors)), name
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        return (f"{len(dicings)} dicings certified, dims 2..4, "
                f"all |det| = 1 with full matching, {elapsed:.2f}s")
    _criterion(1, body)


def test_criterion_2_cell_oracle_agreement():
    def body():
        start = time.perf_counter()
        rng = random.Random(20260814)
        trials = 0
        for rows in (HEXAGONAL, RHOMBIC):
            for _ in range(20):
                weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                for _ in rows)
                ns = normal_set(rows, weights)
                from_zonotope = {v.entries
                                 for v in vertices_oracle(dv_zonotope(ns))}
                from_oracle = {v.entries
                               for v in dv_cell_oracle(lattice_of_dicing(ns),
                                                       quadratic_form(ns))}
                assert from_zonotope == from_oracle, weights
                trials += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
        return (f"{trials} randomized weight vectors, zonotope vertices == "
                f"closest-point cell vertices exactly, {elapsed:.2f}s")
    _criterion(2, body)


def test_criterion_3_edge_conditions_and_rejection():
    def body():
        checked = 0
        for name, ns, _ in _dicing_entries():
            es = compute_edge_set(ns)
            d = ns.dimension
            for edge in es.edges:
                for n in ns.normals:
                    assert n.dot(edge) in (Fraction(-1), Fraction(0),
                                           Fraction(1)), name
            for subset in itertools.combinations(range(len(ns.normals)),
                                                 d - 1):
                chosen = [ns.normals[i] for i in subset]
                if rank(mat([v.entries for v in chosen])) != d - 1:
                    continue
                line = kernel_line(mat([v.entries for v in chosen]))
                assert any(rank(mat([e.entries, line.entries])) == 1
                           for e in es.edges), \
                    f"{name}: subset {subset} has no edge"
            checked += 1
        with pytest.raises(NotADicing) as exc:
            compute_edge_set(normal_set(NON_DICING))
        err = exc.value
        assert err.subset == (0,)
        kernel = vec(*err.kernel)
        recomputed = tuple(n.dot(kernel)
                           for n in normal_set(NON_DICING).normals)
        assert tuple(err.products) == recomputed
        assert len({abs(p) for p in err.products if p != 0}) > 1
        return (f"{checked} dicings satisfy kernel-line coverage and "
                f"0/+-1 pairings; {NON_DICING} rejected with witness "
                f"subset {err.subset}")
    _criterion(3, body)


def test_criterion_4_unimodular_representation():
    def body():
        allowed = {Fraction(-1), Fraction(0), Fraction(1)}
        for name, ns, _ in _dicing_entries():
            es = compute_edge_set(ns)
            rep = unimodular_representation(ns, es)
            assert is_totally_unimodular(rep.normals_matrix), name
            for matrix in (rep.normals_matrix, rep.edges_matrix):
                columns = matrix.columns()
                for col in columns:
                    assert set(col.entries) <= allowed, name
                seen = {c.entries for c in columns}
                for i in range(ns.dimension):
                    unit = tuple(Fraction(int(j == i))
                                 for j in range(ns.dimension))
                    assert unit in seen, f"{name}: e{i} missing"
        count = len(_dicing_entries())
        return (f"{count} dicings: transformed normals totally unimodular "
                f"(all minors enumerated), entries 0/+-1, standard basis "
                f"inside both matrices")
    _criterion(4, body)


def test_criterion_5_venkov():
    def body():
        for name, ns, _ in _dicing_entries():
            report = venkov_check(dv_zonotope(ns))
            assert report.holds, f"{name}: witnesses {report.witnesses}"
        counter = zono([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                        (1, 1, 1), (1, -1, 0)])
        report = venkov_check(counter)
        assert not report.holds
        assert {w.flat for w in report.witnesses} == {(2,), (3,)}
        for witness in report.witnesses:
            assert witness.classification == OTHER
            assert witness.direction_count == 4
        count = len(_dicing_entries())
        return (f"{count} corpus cells pass the ridge test; 5-generator "
                f"counterexample refused with witness flats (2,) and (3,)")
    _criterion(5, body)


def test_criterion_6_delone_duality():
    def body():
        low_dim = [(name, ns) for name, ns, _ in _dicing_entries()
                   if ns.dimension <= 3]
        assert low_dim
        vertices_seen = 0
        for name, ns in low_dim:
            report = delone_duality_check(ns)
            assert report.entries, name
            for entry in report.entries:
                assert len(entry.equidistant) >= ns.dimension + 1, \
                    f"{name}: vertex {entry.vertex.entries}"
                for point in entry.equidistant:
                    for n in ns.normals:
                        assert n.dot(point).denominator == 1, \
                            f"{name}: {point.entries} off family {n.entries}"
                vertices_seen += 1
        hex_report = delone_duality_check(normal_set(HEXAGONAL))
        frozen = {e.vertex.entries: e for e in hex_report.entries}
        pinned = frozen[(Fraction(2, 3), Fraction(-1, 3))]
        assert pinned.radius == Fraction(2, 3)
        assert {p.entries for p in pinned.equidistant} == {
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(-1)),
        }
        return (f"{len(low_dim)} low-dimensional dicings, {vertices_seen} "
                f"cell vertices, every vertex >= d+1 equidistant lattice "
                f"points on all families; hexagonal pin at radius 2/3 "
                f"confirmed")
    _criterion(6, body)


def _random_unimodular(rng: random.Random, d: int) -> list[list[int]]:
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(8):
        op = rng.randrange(3)
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return rows


def test_criterion_7_metamorphic_invariance():
    def body():
        rng = random.Random(1789)
        fixtures = [HEXAGONAL, [(1, 1), (1, -1)], RHOMBIC,
                    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0)]]
        rescales = 0
        for trial in range(50):
            rows = fixtures[trial % len(fixtures)]
            base = normal_set(rows)
            cert = certify_second_voronoi(base)
            c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            scaled = NormalSet(base.dimension, base.normals,
                               tuple(c * w for w in base.weights))
            cert2 = certify_second_voronoi(scaled)
            assert cert2.edge_set.edges == cert.edge_set.edges
            assert cert2.facet_vectors.vectors == cert.facet_vectors.vectors
            assert cert2.basis_indices == cert.basis_indices
            assert cert2.lattice_coordinate_det == \
                cert.lattice_coordinate_det
            rescales += 1
        remaps = 0
        for trial in range(50):
            rows = fixtures[trial % len(fixtures)]
            base = normal_set(rows)
            m = mat(_random_unimodular(rng, base.dimension))
            moved, _ = apply_affine(base, compute_edge_set(base), m)
            cert = certify_second_voronoi(moved)
            assert abs(cert.lattice_coordinate_det) == 1, m.entries
            assert verify_certificate(cert).ok
            remaps += 1
        return (f"{rescales} weight rescalings leave edges, facet vectors, "
                f"basis indices, det unchanged; {remaps} unimodular "
                f"coordinate changes keep |det| = 1")
    _criterion(7, body)


def test_criterion_8_facets_match_hull():
    def body():
        pinned = {
            frozenset({(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                       (Fraction(1), Fraction(1))}): 3,
            frozenset({(Fraction(1), Fraction(0), Fraction(0)),
                       (Fraction(0), Fraction(1), Fraction(0)),
                       (Fraction(0), Fraction(0), Fraction(1)),
                       (Fraction(1), Fraction(1), Fraction(1))}): 6,
            frozenset({(Fraction(1), Fraction(0), Fraction(0)),
                       (Fraction(0), Fraction(1), Fraction(0)),
                       (Fraction(0), Fraction(0), Fraction(1))}): 3,
        }
        pins_hit = 0
        checked = 0
        for name, ns, _ in _dicing_entries():
            if ns.dimension > 3:
                continue
            z = dv_zonotope(ns)
            facet_list = facets(z)
            from_facets = set()
            for f in facet_list:
                from_facets.add((f.normal.entries, f.support))
                from_facets.add(((-f.normal).entries, f.support))
            hull = {(n.entries, h) for n, h in
                    hull_facet_planes(list(vertices_oracle(z)))}
            assert from_facets == hull, name
            key = _normals_key(ns)
            if key in pinned and len(facet_list) == pinned[key]:
                pins_hit += 1
            checked += 1
        assert pins_hit >= 3
        return (f"{checked} low-dimensional cells: facet planes equal the "
                f"hull of enumerated vertices; pinned pair counts "
                f"(hexagon 3, rhombic dodecahedron 6, cube 3) confirmed")
    _criterion(8, body)
