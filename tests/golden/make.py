"""Byte digests of every zonocert verb on a fixed set of inputs.

Each case runs ``zonocert.cli.main`` in process with its input document on
stdin and records the sha256 of (exit code, stdout, stderr).  The inputs
are every bundled corpus entry at its stored weights and at two seeded
weight sets, graphic K4 and K5, cographic K3,3, the octagonal prism as a
bare zonotope, one NotADicing and one InvalidNormalSet input, and a few
seeded bare zonotopes in d = 2 and d = 3.  Every input goes through every
single-document verb, ``export`` as SVG and as OBJ at patch radius 0 and
1; the bundled corpus also goes through ``corpus``.

``tests/test_golden.py`` recomputes the digests and names every case that
differs.  A change that moves output bytes on purpose rewrites the file:

    PYTHONPATH=src python tests/golden/make.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from zonocert import cli

DIGESTS = Path(__file__).with_name("digests.json")

VERBS = {
    "edges": ["edges"],
    "lattice": ["lattice"],
    "zonotope": ["zonotope"],
    "facets": ["facets"],
    "venkov": ["venkov"],
    "dv-cell": ["dv-cell"],
    "certify": ["certify"],
    "svg-0": ["export", "--format", "svg"],
    "svg-1": ["export", "--format", "svg", "--patch-radius", "1"],
    "obj-0": ["export", "--format", "obj"],
    "obj-1": ["export", "--format", "obj", "--patch-radius", "1"],
}

WEIGHT_SEEDS = (1, 2)
ZONOTOPE_SEEDS = (1, 2, 3)


def _rows(rows) -> list[list[str]]:
    return [[str(e) for e in row] for row in rows]


def _normal_set(normals, weights) -> dict:
    return {"schema": "v1", "dim": len(normals[0]), "normals": _rows(normals),
            "weights": [str(Fraction(w)) for w in weights]}


def _graphic(vertices: int) -> list[list[int]]:
    d = vertices - 1
    rows = [[int(k == i) for k in range(d)] for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        rows.append([1 if k == i else -1 if k == j else 0 for k in range(d)])
    return rows


COGRAPHIC_K33 = [[1, 1, 1, 1], [-1, 0, -1, 0], [0, -1, 0, -1], [-1, -1, 0, 0],
                 [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, -1], [0, 0, 1, 0],
                 [0, 0, 0, 1]]
OCTAGONAL_PRISM = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, 0], [0, 0, 1]]


def _seeded_weights(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(count)]


def _seeded_zonotope(seed: int, dim: int) -> dict:
    """The unit vectors plus a few nonzero rows with entries in [-2, 2]."""
    rng = random.Random(f"zonotope/{dim}/{seed}")
    rows = [[int(k == i) for k in range(dim)] for i in range(dim)]
    while len(rows) < dim + 1 + seed % 3:
        row = [rng.randint(-2, 2) for _ in range(dim)]
        if any(row):
            rows.append(row)
    return {"schema": "v1", "dim": dim, "generators": _rows(rows)}


def _bundled_corpus() -> list:
    with open(cli.bundled_corpus_path(), encoding="utf-8") as fh:
        return json.load(fh)


def inputs() -> dict[str, dict]:
    """The input documents by case name, in a fixed order."""
    docs = {}
    for entry in _bundled_corpus():
        ns = entry["normal_set"]
        docs[entry["name"]] = ns
        for seed in WEIGHT_SEEDS:
            rng = random.Random(f"{entry['name']}/{seed}")
            docs[f"{entry['name']}@{seed}"] = dict(
                ns, weights=[str(w) for w in
                             _seeded_weights(rng, len(ns["weights"]))])
    for name, normals in (("graphic-K4", _graphic(4)),
                          ("graphic-K5", _graphic(5)),
                          ("cographic-K33", COGRAPHIC_K33)):
        docs[name] = _normal_set(normals, [1] * len(normals))
    docs["octagonal-prism"] = {"schema": "v1", "dim": 3,
                               "generators": _rows(OCTAGONAL_PRISM)}
    docs["not-a-dicing"] = _normal_set([[1, 0], [0, 1], [1, 2]], [1, 1, 1])
    docs["parallel-normals"] = _normal_set([[1, 0], [0, 1], [2, 0]], [1, 1, 1])
    for dim, seed in itertools.product((2, 3), ZONOTOPE_SEEDS):
        docs[f"zonotope-{dim}d-{seed}"] = _seeded_zonotope(seed, dim)
    return docs


def cases() -> dict[str, tuple[list[str], object]]:
    """argv and stdin document by case name ``input/verb``."""
    out = {f"{name}/{verb}": (argv, doc)
           for name, doc in inputs().items() for verb, argv in VERBS.items()}
    out["bundled/corpus"] = (["corpus", "-"], _bundled_corpus())
    return out


def digest(argv: list[str], doc) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    return {name: digest(argv, doc) for name, (argv, doc) in cases().items()}


def main():
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
