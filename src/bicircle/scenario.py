"""The canonical two-circle frame and its derived named points.

Circle k1 sits at (-a, 0) with radius r1, circle k2 at (a, 0) with radius
r2, so the common center line is the x-axis. A and C are the axis points of
k1, B and D those of k2. Only two orderings along the axis are supported:
A B C D (properly intersecting circles) and A C B D (disjoint circles), with
external tangency as the boundary case where B = C. Configurations where one
circle contains or internally touches the other are rejected outright. The
ordering is decided on integers over one common denominator, by _order.

A config is checked and converted once, by its constructor: it writes its
frame, the three values over one denominator and their ordering, and
_frame only reads it. A DerivedScene comes only from derive; its named
points and radical axis are views built when read.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import InvalidScenario, ParseError
from .exact import _SPACE, _ZERO, Point2, _circle_conic, _Value, as_rational, parse_rational

_SEPARATOR_RE = re.compile(f"[{_SPACE}]+")


class Ordering(Enum):
    INTERSECTING_ABCD = "Intersecting_ABCD"
    DISJOINT_ACBD = "Disjoint_ACBD"
    EXTERNALLY_TANGENT = "ExternallyTangent"


class ScenarioConfig(_Value):
    """Half center distance and the two radii, all exact rationals.

    The constructor also writes the frame (ordering, d, a, r1, r2), which
    _frame reads: a/d, r1/d and r2/d are the three values, d the product of
    their denominators, and the ordering is None outside the two orderings.
    The frame takes no part in equality, hash or repr.
    """

    a: Fraction
    r1: Fraction
    r2: Fraction

    def __init__(self, a, r1, r2):
        a, r1, r2 = as_rational(a), as_rational(r1), as_rational(r2)
        self.__dict__.update(a=a, r1=r1, r2=r2)
        ad, r1d, r2d = a.denominator, r1.denominator, r2.denominator
        a, r1, r2 = a.numerator * r1d * r2d, r1.numerator * ad * r2d, r2.numerator * ad * r1d
        # _order refuses a <= 0 itself, because then 2a <= 0 <= |r1 - r2|.
        ordering = _order(a, r1, r2) if r1 > 0 and r2 > 0 else None
        self.__dict__["_frame"] = (ordering, ad * r1d * r2d, a, r1, r2)


def _axis_point(i: int) -> cached_property:
    """The view of the axis point whose triple is _triples[i]."""
    return cached_property(lambda self: Point2(Fraction(*self._triples[i][::2]), _ZERO))


def _radical_axis_x(scene) -> Fraction:
    _, d, a, r1, r2 = _frame(scene.cfg)
    return Fraction(r1 * r1 - r2 * r2, 4 * a * d)


class DerivedScene(_Value):
    """A validated ScenarioConfig, its ordering, and everything named that follows.

    Built only by derive. Integer-first: _conics and _triples are the
    kernel form of k1, k2 and A, B, C, D, built from cfg's frame (see
    _frame). The other fields are views built on first read, which
    equality, hash and repr read.
    """

    cfg: ScenarioConfig
    ordering: Ordering
    A: Point2 = _axis_point(0)
    B: Point2 = _axis_point(1)
    C: Point2 = _axis_point(2)
    D: Point2 = _axis_point(3)
    radical_axis_x: Fraction = cached_property(_radical_axis_x)

    def __init__(self, *args, **kwargs):
        raise TypeError("a DerivedScene comes only from derive")


def _order(a: int, r1: int, r2: int) -> Ordering | None:
    """The ordering of a and positive r1 and r2, written over one denominator.

    None when one circle contains or internally touches the other (2a <= |r1 - r2|).
    """
    if 2 * a <= abs(r1 - r2):
        return None
    gap = r1 + r2 - 2 * a
    if gap > 0:
        return Ordering.INTERSECTING_ABCD
    return Ordering.EXTERNALLY_TANGENT if gap == 0 else Ordering.DISJOINT_ACBD


def _frame(cfg: ScenarioConfig) -> tuple:
    """cfg's frame (ordering, d, a, r1, r2), written by its constructor.

    The integers give cfg.a = a/d, cfg.r1 = r1/d and cfg.r2 = r2/d. d is
    positive, so comparisons and signs carry over from the rationals to the
    integers. Raises InvalidScenario outside the two orderings, on every
    call: on a, r1 or r2 not positive, in that order, then on nesting.
    """
    frame = cfg._frame
    if frame[0] is None:
        for name in ("a", "r1", "r2"):
            if (value := getattr(cfg, name)) <= 0:
                raise InvalidScenario(f"{name} must be positive, got {value}")
        raise InvalidScenario(
            "one circle contains or internally touches the other (2a <= |r1 - r2|)"
        )
    return frame


def validate(cfg: ScenarioConfig) -> Ordering:
    """Classify the configuration, rejecting everything outside the two orderings."""
    return _frame(cfg)[0]


def _axis_circle(c: int, r: int, d: int) -> tuple:
    """The circle about (c/d, 0) of radius r/d, d > 0: its conic and its axis points (c ∓ r)/d."""
    left, right = c - r, c + r
    g, h = gcd(left, d), gcd(right, d)
    return _circle_conic(c, 0, r, d), (left // g, 0, d // g), (right // h, 0, d // h)


def derive(cfg: ScenarioConfig) -> DerivedScene:
    """Validate cfg and build the scene on its frame's integers; views are built when read."""
    ordering, d, a, r1, r2 = _frame(cfg)
    (k1, A, C), (k2, B, D) = _axis_circle(-a, r1, d), _axis_circle(a, r2, d)
    scene = object.__new__(DerivedScene)
    scene.__dict__.update(cfg=cfg, ordering=ordering, _conics=(k1, k2), _triples=(A, B, C, D))
    return scene


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a ParseError, not a silent overwrite."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"scenario JSON repeats the key {key!r}")
        data[key] = value
    return data


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse 'a r1 r2' (rationals separated by ASCII whitespace) or a JSON object form.

    The JSON form is an object with exactly the keys a, r1, r2, each given
    once, each a rational string or a JSON number: {"a": "2", "r1": 3,
    "r2": 2.5}. A number is read from its literal text, so it is exact like
    a string.
    """
    body = text.strip(_SPACE)
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
        values = _SEPARATOR_RE.split(body)
        if len(values) != 3:
            raise ParseError(f"expected three rationals 'a r1 r2', got {text!r}")
    return ScenarioConfig(*(parse_rational(str(v)) for v in values))
