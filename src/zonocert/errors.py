"""Exception hierarchy shared by every zonocert module.

Every domain failure derives from ZonocertError, which jsonio.error_to_json
renders as the payload the command line writes on exit 2.  SchemaError,
the input-format error, is not one: it exits 1.  All hold data only.
"""

from __future__ import annotations


class ZonocertError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# exact linear algebra


class NotSquare(ZonocertError):
    pass


class Singular(ZonocertError):
    pass


class RankMismatch(ZonocertError):
    pass


class DegenerateSpan(ZonocertError):
    pass


# ---------------------------------------------------------------------------
# dicings


class InvalidNormalSet(ZonocertError):
    pass


class NotADicing(ZonocertError):
    """A hyperplane family set fails the edge-set conditions.

    Carries the witnessing subset of normal indices, the kernel direction
    of that subset, and the full list of scalar products that could not be
    normalized to 0 and a single absolute value.
    """

    def __init__(self, message: str, subset: tuple[int, ...],
                 kernel: tuple, products: tuple):
        super().__init__(message)
        self.subset = subset
        self.kernel = kernel
        self.products = products


class RepresentationCheckFailed(ZonocertError):
    pass


class NonIntegerEntries(ZonocertError):
    pass


# ---------------------------------------------------------------------------
# zonotopes


class InvalidZonotope(ZonocertError):
    pass


class SpanDeficient(ZonocertError):
    pass


class DimensionTooSmall(ZonocertError):
    pass


class DimensionTooLarge(ZonocertError):
    pass


# ---------------------------------------------------------------------------
# parallelohedra and certification


class NotPositiveDefinite(ZonocertError):
    pass


class NotInLattice(ZonocertError):
    pass


class Mismatch(ZonocertError):
    """Facet vectors and dicing edges fail to match up to sign.

    ``missing`` holds edges without a matching facet vector, ``extra``
    holds facet vectors without a matching edge.
    """

    def __init__(self, message: str, missing: tuple, extra: tuple):
        super().__init__(message)
        self.missing = missing
        self.extra = extra


class BasisCheckFailed(ZonocertError):
    pass


class DualityViolation(ZonocertError):
    pass


class EnumerationInsufficient(ZonocertError):
    pass


class InternalFault(ZonocertError):
    """A postcondition that is provable for valid inputs failed anyway."""


# ---------------------------------------------------------------------------
# pipeline and IO


class CertificationError(ZonocertError):
    """Wraps a domain error with the pipeline stage where it occurred."""

    def __init__(self, stage: str, cause: ZonocertError):
        super().__init__(f"certification failed at stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


class SchemaError(Exception):
    """Input JSON does not match a documented schema.

    ``location`` is a dotted path into the offending document.
    """

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class DimensionMismatch(ZonocertError):
    pass
