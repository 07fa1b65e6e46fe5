"""Benchmark inputs: the regular-matroid ladder, graphic K4, seeded weights.

Every dicing has a regular normal matroid, and Seymour's decomposition
splits regular matroids into graphic, cographic and R10 pieces, so the
ladder holds one or two of each.  Normals are typed in as integer tuples;
weights are scaled per repetition by a factor drawn from ``--seed`` so
that no two calls in one run see the same normal set.  Edge, facet and
ridge counts and |det| do not depend on the weights, so the pins in
``expect.json`` hold for every seed.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction

# An input with n hyperplane families gets the first n of these weights, in
# an order fixed per input.  Distinct values avoid coincident signed sums.
WEIGHT_SEQUENCE = tuple(Fraction(x) for x in (
    "1", "2", "3", "1/2", "3/2", "2/3", "4/3", "5/2", "5/3", "3/4", "5/4",
    "4/5", "6/5", "5/6", "7/4"))

# Every pass but the reference pass scales an input's weights by a whole
# number from 2 to SCALES + 1, drawn from the seed.
SCALES = 1000

# Weights of the reference pass, the first timed pass of every run, whose
# outputs are compared byte for byte with the digests in expect.json
# whatever --seed is.
REFERENCE_SEED = 0
REFERENCE_REP = 0


@dataclass(frozen=True)
class LadderEntry:
    """A dicing given by integer normals, one row per hyperplane family."""

    name: str
    normals: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.normals[0])


def _unit(d: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(d))


def graphic_complete(vertices: int) -> tuple[tuple[int, ...], ...]:
    """Normals e_i and e_i - e_j of the graphic dicing of K_vertices."""
    d = vertices - 1
    rows = [_unit(d, i) for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        rows.append(tuple(1 if k == i else -1 if k == j else 0
                          for k in range(d)))
    return tuple(rows)


COGRAPHIC_K33 = (
    (1, 1, 1, 1), (-1, 0, -1, 0), (0, -1, 0, -1), (-1, -1, 0, 0),
    _unit(4, 0), _unit(4, 1), (0, 0, -1, -1), _unit(4, 2), _unit(4, 3),
)

COGRAPHIC_K5 = (
    (1, 1, 1, 0, 0, 0), (-1, 0, 0, 1, 1, 0), (0, -1, 0, -1, 0, 1),
    (0, 0, -1, 0, -1, -1),
) + tuple(_unit(6, i) for i in range(6))

# R10 as the columns of [I5 | A].
_R10_A = (
    (-1, 1, 0, 0, 1), (1, -1, 1, 0, 0), (0, 1, -1, 1, 0),
    (0, 0, 1, -1, 1), (1, 0, 0, 1, -1),
)
R10 = tuple(_unit(5, i) for i in range(5)) + tuple(
    tuple(_R10_A[r][c] for r in range(5)) for c in range(5))

LADDER = (
    LadderEntry("graphic-K5", graphic_complete(5)),
    LadderEntry("graphic-K6", graphic_complete(6)),
    LadderEntry("cographic-K33", COGRAPHIC_K33),
    LadderEntry("cographic-K5", COGRAPHIC_K5),
    LadderEntry("R10", R10),
)

GRAPHIC_K4 = LadderEntry("graphic-K4", graphic_complete(4))


def _draw(seed: int, rep: int, name: str, k: int) -> int:
    key = f"{seed}/{rep}/{name}/{k}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class WeightSource:
    """Seeded weights that never repeat for the same normals in a run.

    Each input has one fixed order of its weights, the order of the
    reference pass.  Every other pass multiplies all of them by a whole
    number drawn from the seed.  A common factor scales the cell without
    changing its shape, so an input costs the same work on every pass
    and for every seed, while no two calls see the same normal set.  A
    fresh order per pass instead moved one input's time by up to a factor
    of two, which made run-to-run spreads a property of the seed.
    """

    def __init__(self):
        self._used: set = set()

    def weights(self, seed: int, rep: int, name: str,
                normals) -> tuple[Fraction, ...]:
        count = len(normals)
        if count > len(WEIGHT_SEQUENCE):
            raise ValueError(f"{name}: more families than WEIGHT_SEQUENCE")
        base = list(WEIGHT_SEQUENCE[:count])
        for i in range(count - 1, 0, -1):  # Fisher-Yates
            j = _draw(REFERENCE_SEED, REFERENCE_REP, name, i) % (i + 1)
            base[i], base[j] = base[j], base[i]
        if (seed, rep) == (REFERENCE_SEED, REFERENCE_REP):
            scale = 1
        else:
            scale = 2 + _draw(seed, rep, name, 0) % SCALES
        key = tuple(tuple(str(e) for e in row) for row in normals)
        while (key, scale) in self._used:
            scale += 1
        self._used.add((key, scale))
        return tuple(x * scale for x in base)


def rational_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def normal_set_doc(normals, weights) -> dict:
    """A schema v1 normal_set document."""
    return {
        "schema": "v1",
        "dim": len(normals[0]),
        "normals": [[rational_str(Fraction(e)) for e in row] for row in normals],
        "weights": [rational_str(w) for w in weights],
    }
