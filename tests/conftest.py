"""Shared builders for the test suite."""

from fractions import Fraction

from zonocert import NormalSet, RatMatrix, RatVector, Zonotope


def vec(*entries) -> RatVector:
    return RatVector(tuple(Fraction(e) for e in entries))


def mat(rows) -> RatMatrix:
    return RatMatrix([vec(*r) for r in rows])


def entries(m: RatMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """A matrix's entries, row by row."""
    return tuple(v.entries for v in m.row_vectors)


def normal_set(rows, weights=None) -> NormalSet:
    normals = tuple(vec(*r) for r in rows)
    ws = tuple(Fraction(w) for w in (weights or [1] * len(normals)))
    return NormalSet(len(rows[0]), normals, ws)


def zono(rows) -> Zonotope:
    return Zonotope(len(rows[0]), tuple(vec(*r) for r in rows))


HEXAGONAL = [(1, 0), (0, 1), (1, 1)]
SQUARE = [(1, 0), (0, 1)]
CHECKER = [(1, 1), (1, -1)]
CUBIC = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
RHOMBIC = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
FIVE_FAMILY = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0)]
NON_DICING = [(1, 0), (0, 1), (1, 2)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if not VERDICT_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in VERDICT_LINES:
        terminalreporter.write_line(line)
