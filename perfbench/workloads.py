"""The three benchmark workloads: what one instance runs and how it is checked.

A workload builds its inputs outside the timed region, runs one instance
at a time through zonocert (a closed loop in one thread), and checks each
output afterwards.  Checks return failure reasons; an empty list is a
pass.  ``documents`` names the bytes whose sha256 is compared with
expect.json on the reference pass.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import ladder


@dataclass
class Instance:
    name: str
    data: dict = field(default_factory=dict)


def _run_cli(zc, argv) -> tuple[int, str, str]:
    """In-process ``zonocert <argv>``: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zc.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _reference_weights(name: str, normals) -> tuple:
    """The weights the reference pass gives ``name``, for child inputs."""
    return ladder.WeightSource().weights(ladder.REFERENCE_SEED,
                                         ladder.REFERENCE_REP, name, normals)


def _parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def certify_round_trip(zc, ns) -> dict:
    """certify -> verify -> certificate JSON round trip -> venkov_check."""
    p, j = zc.parallelohedron, zc.jsonio
    cert = p.certify_second_voronoi(ns)
    audit = p.verify_certificate(cert)
    text = j.dumps(j.certificate_to_json(cert, verified=audit.ok))
    back, verified = j.parse_certificate(json.loads(text))
    report = zc.zonotope.venkov_check(cert.zonotope)
    return {"cert": cert, "audit": audit, "text": text, "back": back,
            "verified": verified, "venkov": report}


def check_round_trip(out) -> list[str]:
    """The pin-free checks of ``certify_round_trip``'s output."""
    bad = []
    if not out["audit"].ok:
        bad.append("verifier rejected: " + "; ".join(out["audit"].failures))
    if out["back"] != out["cert"] or out["verified"] is not True:
        bad.append("certificate changed in the JSON round trip")
    if not out["venkov"].holds:
        bad.append("venkov check failed")
    return bad


class Workload:
    """Inputs, one instance's work and its checks.

    Subclasses set ``reference`` (the seed-0 instances) in ``__init__`` and
    implement ``_instances(seed, rep, tag)``, ``run(inst, tracer)``,
    ``check(inst, out, pins, oracle)``, ``documents(inst, out)`` and
    ``child_argv()``.
    """

    name: str
    # A run makes max(3, round(seconds / pass_seconds)) passes: fixed work,
    # so every commit gets the same sample count.
    pass_seconds: float

    def __init__(self, zc, tmp: Path, seed: int, only=None):
        self.zc = zc
        self.tmp = tmp
        self.seed = seed
        self.only = set(only) if only else None
        self.weights = ladder.WeightSource()

    def _keep(self, name: str) -> bool:
        return self.only is None or name in self.only

    def _reference(self):
        return self._instances(ladder.REFERENCE_SEED, ladder.REFERENCE_REP,
                               "ref")

    def reference_pass(self):
        return self.reference

    def make_pass(self, rep):
        return self._instances(self.seed, rep, "pass")


# ---------------------------------------------------------------------------
# regular-ladder


class RegularLadder(Workload):
    """The regular-matroid ladder through ``certify_round_trip``."""

    name = "regular-ladder"
    pass_seconds = 3.4

    def __init__(self, zc, tmp, seed, only=None):
        super().__init__(zc, tmp, seed, only)
        self.entries = [e for e in ladder.LADDER if self._keep(e.name)]
        self.reference = self._reference()
        r10 = next(e for e in ladder.LADDER if e.name == "R10")
        self.child_input = _write_json(
            tmp / "child-R10.json",
            ladder.normal_set_doc(r10.normals,
                                  _reference_weights("R10", r10.normals)))

    def _instances(self, seed, rep, tag):
        d, rv = self.zc.dicing, self.zc.ratgeom
        out = []
        for e in self.entries:
            w = self.weights.weights(seed, rep, e.name, e.normals)
            ns = d.NormalSet(e.dimension,
                             [rv.RatVector(row) for row in e.normals], w)
            out.append(Instance(e.name, {"ns": ns}))
        return out

    def run(self, inst, tracer):
        return certify_round_trip(self.zc, inst.data["ns"])

    def check(self, inst, out, pins, oracle):
        pin = pins[inst.name]
        cert = out["cert"]
        bad = []
        got = {"edge_pairs": len(cert.edge_set.edges),
               "facet_pairs": len(cert.facet_vectors.vectors),
               "det_abs": abs(cert.lattice_coordinate_det),
               "ridge_flats": len(out["venkov"].ridges)}
        for key, value in got.items():
            if value != pin[key]:
                bad.append(f"{key} {value}, pinned {pin[key]}")
        return bad + check_round_trip(out)

    def documents(self, inst, out):
        return {"certificate": out["text"]}

    def child_argv(self):
        return ["certify", self.child_input]


# ---------------------------------------------------------------------------
# corpus


class Corpus(Workload):
    """Each bundled corpus entry as its own in-process ``zonocert corpus`` call."""

    name = "corpus"
    pass_seconds = 0.3

    def __init__(self, zc, tmp, seed, only=None):
        super().__init__(zc, tmp, seed, only)
        path = Path(zc.cli.bundled_corpus_path())
        self.entries = [e for e in json.loads(path.read_text(encoding="utf-8"))
                        if self._keep(e["name"])]
        self.reference = self._reference()

    def _instances(self, seed, rep, tag):
        out = []
        for k, entry in enumerate(self.entries):
            doc = dict(entry["normal_set"])
            doc["weights"] = [ladder.rational_str(w) for w in
                              self.weights.weights(seed, rep, entry["name"],
                                                   doc["normals"])]
            path = self.tmp / f"corpus-{tag}-{k}.json"
            _write_json(path, [dict(entry, normal_set=doc)])
            out.append(Instance(entry["name"], {"path": str(path)}))
        return out

    def run(self, inst, tracer):
        code, stdout, stderr = _run_cli(self.zc, ["corpus", inst.data["path"]])
        return {"code": code, "stdout": stdout, "stderr": stderr}

    def check(self, inst, out, pins, oracle):
        pin = pins[inst.name]
        if "error" in pin:
            detail = f"expected error {pin['error']}"
        else:
            detail = (f"{pin['edge_pairs']} edge pairs, "
                      f"{pin['facet_pairs']} facet pairs, det {pin['det']}")
        lines = out["stdout"].splitlines()
        bad = []
        if out["code"] != 0:
            bad.append(f"exit code {out['code']}")
        if len(lines) != 2 or lines[0].split(None, 2) != \
                [inst.name, "pass", detail] or \
                lines[1] != "1 entries, 1 passed, 0 failed":
            bad.append(f"output {out['stdout']!r}, expected a pass with {detail}")
        return bad

    def documents(self, inst, out):
        return {"stdout": out["stdout"]}

    def child_argv(self):
        return ["corpus"]


# ---------------------------------------------------------------------------
# cell-oracle


class CellOracle(Workload):
    """dv-cell, delone_duality_check and export on the d <= 3 dicings."""

    name = "cell-oracle"
    pass_seconds = 7.5

    def __init__(self, zc, tmp, seed, only=None):
        super().__init__(zc, tmp, seed, only)
        path = Path(zc.cli.bundled_corpus_path())
        docs = [(e["name"], e["normal_set"])
                for e in json.loads(path.read_text(encoding="utf-8"))
                if e["normal_set"]["dim"] <= 3 and "error" not in e["expected"]]
        k4 = ladder.GRAPHIC_K4
        docs.append((k4.name, ladder.normal_set_doc(k4.normals,
                                                    [1] * len(k4.normals))))
        self.docs = [(n, d) for n, d in docs if self._keep(n)]
        self.reference = self._reference()
        rhombic = dict(dict(docs)["rhombic-dodecahedral"])
        rhombic["weights"] = [ladder.rational_str(w) for w in
                              _reference_weights("rhombic-dodecahedral",
                                                 rhombic["normals"])]
        self.child_input = _write_json(tmp / "child-rhombic.json", rhombic)

    def _instances(self, seed, rep, tag):
        out = []
        for name, base in self.docs:
            doc = dict(base)
            doc["weights"] = [ladder.rational_str(w) for w in
                              self.weights.weights(seed, rep, name,
                                                   doc["normals"])]
            path = _write_json(self.tmp / f"cell-{tag}-{name}.json", doc)
            ns = self.zc.jsonio.parse_normal_set(doc)
            fmt = "svg" if doc["dim"] == 2 else "obj"
            out.append(Instance(name, {"path": path, "ns": ns, "format": fmt}))
        return out

    def run(self, inst, tracer):
        zc, data = self.zc, inst.data
        dv = _run_cli(zc, ["dv-cell", data["path"]])
        report = zc.parallelohedron.delone_duality_check(data["ns"])
        with tracer.span("cli.export"):
            export = _run_cli(zc, ["export", data["path"], "--format",
                                   data["format"], "--patch-radius", "1"])
        return {"dv": dv, "delone": report, "export": export}

    def check(self, inst, out, pins, oracle):
        pin = pins[inst.name]
        bad = []
        for verb in ("dv", "export"):
            code, _, stderr = out[verb]
            if code != 0:
                bad.append(f"{verb} exit code {code}: {stderr.strip()}")
        if bad:
            return bad
        vertices = [tuple(_parse_fraction(x) for x in v)
                    for v in json.loads(out["dv"][1])["vertices"]]
        if len(vertices) != pin["vertices"]:
            bad.append(f"{len(vertices)} vertices, pinned {pin['vertices']}")
        delone = [v.vertex.entries for v in out["delone"].entries]
        if delone != vertices:
            bad.append("delone vertices differ from dv-cell vertices")
        bad += self._check_export(inst, out["export"][1], pin)
        if oracle:
            zc = self.zc
            hull = zc.zonotope.vertices_oracle(
                zc.parallelohedron.dv_zonotope(inst.data["ns"]))
            if [v.entries for v in hull] != vertices:
                bad.append("dv-cell vertices differ from vertices_oracle")
        return bad

    @staticmethod
    def _check_export(inst, text, pin):
        copies = 3 ** (2 if inst.data["format"] == "svg" else 3)
        if inst.data["format"] == "svg":
            got = (text.count("<polygon "), text.count("<line "))
            want = (copies, 2 * pin["facet_pairs"])
        else:
            lines = text.splitlines()
            got = (sum(1 for x in lines if x.startswith("v ")),
                   sum(1 for x in lines if x.startswith("f ")))
            want = (copies * pin["vertices"], copies * 2 * pin["facet_pairs"])
        if got != want:
            return [f"export has {got} elements, expected {want}"]
        return []

    def documents(self, inst, out):
        return {"dv-cell": out["dv"][1], "export": out["export"][1]}

    def child_argv(self):
        return ["dv-cell", self.child_input]


WORKLOADS = {w.name: w for w in (RegularLadder, Corpus, CellOracle)}


# ---------------------------------------------------------------------------
# layer probe of the traced run


class LayerProbe:
    """One small dicing through every hooked layer, for the traced run.

    Each traced pass ends with the probe: ``certify_round_trip`` plus the
    cell-oracle verbs on ``square-grid-2d`` with its reference weights.
    So every per-layer metric is measured on every workload, also for a
    layer the workload itself never calls, and no time reads a constant 0.
    The probe costs a few milliseconds of CPU, small next to any pass.
    """

    name = "probe-square-grid-2d"
    source = "square-grid-2d"

    def __init__(self, zc, tmp: Path, cell_pins):
        self.zc = zc
        self.pins = cell_pins
        self.cells = CellOracle(zc, tmp, ladder.REFERENCE_SEED,
                                only={self.source})
        self.inst = self.cells.reference[0]

    def run(self, tracer):
        return {"certify": certify_round_trip(self.zc, self.inst.data["ns"]),
                "cell": self.cells.run(self.inst, tracer)}

    def check(self, out) -> list[str]:
        pin = self.pins[self.source]
        bad = check_round_trip(out["certify"])
        edges = len(out["certify"]["cert"].edge_set.edges)
        if edges != pin["facet_pairs"]:
            bad.append(f"edge_pairs {edges}, pinned {pin['facet_pairs']}")
        return bad + self.cells.check(self.inst, out["cell"], self.pins,
                                      oracle=True)
