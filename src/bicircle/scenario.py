"""The canonical two-circle frame and its derived named points.

Circle k1 sits at (-a, 0) with radius r1, circle k2 at (a, 0) with radius
r2, so the common center line is the x-axis. A and C are the axis points of
k1, B and D those of k2. Only two orderings along the axis are supported:
A B C D (properly intersecting circles) and A C B D (disjoint circles), with
external tangency as the boundary case where B = C. Configurations where one
circle contains or internally touches the other are rejected outright.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvalidScenario, ParseError
from .exact import _ZERO, Circle, Line, Point2, as_rational, parse_rational

__all__ = [
    "Ordering",
    "ScenarioConfig",
    "DerivedScene",
    "validate",
    "derive",
    "probe_line",
    "parse_scenario",
]


class Ordering(Enum):
    INTERSECTING_ABCD = "Intersecting_ABCD"
    DISJOINT_ACBD = "Disjoint_ACBD"
    EXTERNALLY_TANGENT = "ExternallyTangent"


@dataclass(frozen=True, init=False)
class ScenarioConfig:
    """Half center distance and the two radii, all exact rationals."""

    a: Fraction
    r1: Fraction
    r2: Fraction

    def __init__(self, a, r1, r2):
        object.__setattr__(self, "a", as_rational(a))
        object.__setattr__(self, "r1", as_rational(r1))
        object.__setattr__(self, "r2", as_rational(r2))


@dataclass(frozen=True)
class DerivedScene:
    """A validated ScenarioConfig, its ordering, and everything named that follows."""

    cfg: ScenarioConfig
    ordering: Ordering
    k1: Circle
    k2: Circle
    A: Point2
    B: Point2
    C: Point2
    D: Point2
    axis: Line
    radical_axis_x: Fraction
    Z: Point2


def _numerators(cfg: ScenarioConfig, p: Fraction | None = None) -> tuple[int, ...]:
    """Integers (d, a, r1, r2) with cfg.a = a/d, cfg.r1 = r1/d, cfg.r2 = r2/d.

    d is the product of the denominators, so it is positive and comparisons
    and signs carry over from the rationals to the integers. Given p, the
    tuple is (d, a, r1, r2, p) with p over the same d.
    """
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    ad, r1d, r2d = a.denominator, r1.denominator, r2.denominator
    d = ad * r1d * r2d
    a_n, r1_n, r2_n = a.numerator * r1d * r2d, r1.numerator * ad * r2d, r2.numerator * ad * r1d
    if p is None:
        return d, a_n, r1_n, r2_n
    pd = p.denominator
    return d * pd, a_n * pd, r1_n * pd, r2_n * pd, p.numerator * d


def validate(cfg: ScenarioConfig) -> Ordering:
    """Classify the configuration, rejecting everything outside the two orderings."""
    if cfg.a.numerator <= 0:
        raise InvalidScenario(f"a must be positive, got {cfg.a}")
    if cfg.r1.numerator <= 0:
        raise InvalidScenario(f"r1 must be positive, got {cfg.r1}")
    if cfg.r2.numerator <= 0:
        raise InvalidScenario(f"r2 must be positive, got {cfg.r2}")
    _, a, r1, r2 = _numerators(cfg)
    if 2 * a <= abs(r1 - r2):
        raise InvalidScenario(
            "one circle contains or internally touches the other (2a <= |r1 - r2|)"
        )
    gap = r1 + r2 - 2 * a
    if gap > 0:
        return Ordering.INTERSECTING_ABCD
    if gap == 0:
        return Ordering.EXTERNALLY_TANGENT
    return Ordering.DISJOINT_ACBD


_AXIS = Line(0, 1, 0)


def derive(cfg: ScenarioConfig) -> DerivedScene:
    """Build circles, axis points, the axis, and the radical axis abscissa."""
    ordering = validate(cfg)
    d, a, r1, r2 = _numerators(cfg)
    radical_x = Fraction(r1 * r1 - r2 * r2, 4 * a * d)
    return DerivedScene(
        cfg=cfg,
        ordering=ordering,
        k1=Circle(Point2(-cfg.a, _ZERO), cfg.r1),
        k2=Circle(Point2(cfg.a, _ZERO), cfg.r2),
        A=Point2(Fraction(-a - r1, d), _ZERO),
        B=Point2(Fraction(a - r2, d), _ZERO),
        C=Point2(Fraction(r1 - a, d), _ZERO),
        D=Point2(Fraction(a + r2, d), _ZERO),
        axis=_AXIS,
        radical_axis_x=radical_x,
        Z=Point2(radical_x, _ZERO),
    )


def probe_line(cfg: ScenarioConfig, p) -> Line:
    """The vertical probe line x = p."""
    validate(cfg)
    return Line(1, 0, -as_rational(p))


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse 'a r1 r2' (whitespace-separated rationals) or a JSON object form.

    The JSON form is an object with exactly the keys a, r1, r2, each a
    rational string: {"a": "2", "r1": "3", "r2": "2"}.
    """
    body = text.strip()
    if body.startswith("{"):
        try:
            data = json.loads(body)
        # Malformed JSON, a number over the digit cap, or nesting too deep.
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad scenario JSON: {exc}") from None
        if not isinstance(data, dict) or set(data) != {"a", "r1", "r2"}:
            raise ParseError("scenario JSON needs exactly the keys a, r1, r2")
        return ScenarioConfig(
            parse_rational(str(data["a"])),
            parse_rational(str(data["r1"])),
            parse_rational(str(data["r2"])),
        )
    parts = body.split()
    if len(parts) != 3:
        raise ParseError(f"expected three rationals 'a r1 r2', got {text!r}")
    a, r1, r2 = (parse_rational(part) for part in parts)
    return ScenarioConfig(a, r1, r2)
