"""The canonical two-circle frame and its derived named points.

Circle k1 sits at (-a, 0) with radius r1, circle k2 at (a, 0) with radius
r2, so the common center line is the x-axis. A and C are the axis points of
k1, B and D those of k2. Only two orderings along the axis are supported:
A B C D (properly intersecting circles) and A C B D (disjoint circles), with
external tangency as the boundary case where B = C. Configurations where one
circle contains or internally touches the other are rejected outright. The
ordering is decided on integers over one common denominator, by _order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import InvalidScenario, ParseError
from .exact import _ZERO, Circle, Point2, _conic, _triple, as_rational, parse_rational


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
    radical_axis_x: Fraction
    # The kernel form of k1, k2 and of A, B, C, D, built once for construct_image and render_svg.
    _conics: tuple = field(init=False, compare=False, repr=False)
    _triples: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_conics", (_conic(self.k1), _conic(self.k2)))
        object.__setattr__(self, "_triples", tuple(map(_triple, (self.A, self.B, self.C, self.D))))


def _order(a: int, r1: int, r2: int) -> Ordering | None:
    """The ordering of positive a, r1 and r2, written over one denominator.

    None when one circle contains or internally touches the other (2a <= |r1 - r2|).
    """
    if 2 * a <= abs(r1 - r2):
        return None
    gap = r1 + r2 - 2 * a
    if gap > 0:
        return Ordering.INTERSECTING_ABCD
    return Ordering.EXTERNALLY_TANGENT if gap == 0 else Ordering.DISJOINT_ACBD


def _frame(cfg: ScenarioConfig, p=None) -> tuple:
    """Validate cfg and write it over one denominator: (ordering, d, a, r1, r2).

    The integers give cfg.a = a/d, cfg.r1 = r1/d and cfg.r2 = r2/d. d is the
    product of the denominators, so it is positive and comparisons and signs
    carry over from the rationals to the integers. Given p, the tuple is
    (ordering, d, a, r1, r2, p) with p over the same d. Raises
    InvalidScenario outside the two orderings.
    """
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    if a.numerator <= 0:
        raise InvalidScenario(f"a must be positive, got {a}")
    if r1.numerator <= 0:
        raise InvalidScenario(f"r1 must be positive, got {r1}")
    if r2.numerator <= 0:
        raise InvalidScenario(f"r2 must be positive, got {r2}")
    ad, r1d, r2d = a.denominator, r1.denominator, r2.denominator
    d = ad * r1d * r2d
    a, r1, r2 = a.numerator * r1d * r2d, r1.numerator * ad * r2d, r2.numerator * ad * r1d
    ordering = _order(a, r1, r2)
    if ordering is None:
        raise InvalidScenario(
            "one circle contains or internally touches the other (2a <= |r1 - r2|)"
        )
    if p is None:
        return ordering, d, a, r1, r2
    p = as_rational(p)
    pd = p.denominator
    return ordering, d * pd, a * pd, r1 * pd, r2 * pd, p.numerator * d


def validate(cfg: ScenarioConfig) -> Ordering:
    """Classify the configuration, rejecting everything outside the two orderings."""
    return _frame(cfg)[0]


def derive(cfg: ScenarioConfig) -> DerivedScene:
    """Build circles, axis points, and the radical axis abscissa."""
    ordering, d, a, r1, r2 = _frame(cfg)
    return DerivedScene(
        cfg=cfg,
        ordering=ordering,
        k1=Circle(Point2(-cfg.a, _ZERO), cfg.r1),
        k2=Circle(Point2(cfg.a, _ZERO), cfg.r2),
        A=Point2(Fraction(-a - r1, d), _ZERO),
        B=Point2(Fraction(a - r2, d), _ZERO),
        C=Point2(Fraction(r1 - a, d), _ZERO),
        D=Point2(Fraction(a + r2, d), _ZERO),
        radical_axis_x=Fraction(r1 * r1 - r2 * r2, 4 * a * d),
    )


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a ParseError, not a silent overwrite."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"scenario JSON repeats the key {key!r}")
        data[key] = value
    return data


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse 'a r1 r2' (whitespace-separated rationals) or a JSON object form.

    The JSON form is an object with exactly the keys a, r1, r2, each given
    once, each a rational string or a JSON number: {"a": "2", "r1": 3,
    "r2": 2.5}. A number is read from its literal text, so it is exact like
    a string.
    """
    body = text.strip()
    if body.startswith("{"):
        try:
            data = json.loads(body, parse_float=str, object_pairs_hook=_unique_keys)
        # Malformed JSON, a number over the digit cap, or nesting too deep.
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad scenario JSON: {exc}") from None
        if not isinstance(data, dict) or set(data) != {"a", "r1", "r2"}:
            raise ParseError("scenario JSON needs exactly the keys a, r1, r2")
        values = data["a"], data["r1"], data["r2"]
    else:
        values = body.split()
        if len(values) != 3:
            raise ParseError(f"expected three rationals 'a r1 r2', got {text!r}")
    return ScenarioConfig(*(parse_rational(str(v)) for v in values))
