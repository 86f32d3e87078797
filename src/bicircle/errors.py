"""Exception hierarchy shared by all bicircle modules.

Every domain failure derives from GeometryError so callers (and the CLI)
can distinguish domain errors from programming errors.
"""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class IdenticalPoints(GeometryError):
    """Two points that must be distinct coincide."""


class CoincidentLines(GeometryError):
    """Two lines that must be distinct are the same line."""


class PointNotOnCircle(GeometryError):
    """A point required to lie exactly on a circle does not."""


class InvalidScenario(GeometryError):
    """Scenario parameters fall outside the supported configurations."""


class DegenerateProbe(GeometryError):
    """The probe point coincides with a base point, leaving a chord undefined."""


class WrongOrdering(GeometryError):
    """An operation requires a specific circle ordering the scenario lacks."""


class ParseError(GeometryError):
    """Text does not parse as an exact rational."""


class ZeroDenominator(ParseError):
    """A rational literal has denominator zero."""
