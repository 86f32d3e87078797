"""Exact rational primitives for plane geometry.

Every coordinate is an arbitrary-precision rational (``fractions.Fraction``)
and every operation is exact: no floating point enters this module, and no
square root is ever taken. Points at infinity are explicit values carrying
a normalized direction, never approximations by large coordinates.

All types are immutable values and all operations are pure functions, so
everything here is safe to share freely across threads.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CoincidentLines,
    ConcentricCircles,
    IdenticalPoints,
    ParseError,
    PointNotOnCircle,
    ZeroDenominator,
)


class _Infinity:
    """Symbolic infinity for scalar parameters; a single shared instance."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Infinity"


INFINITY = _Infinity()

#: A scalar that is either an exact rational or the symbolic INFINITY.
ExtendedScalar = Fraction | _Infinity

_RATIONAL_RE = re.compile(r"[+-]?(?:\d+(?:/\d+)?|\d*\.\d+|\d+\.)")


def as_rational(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction; floats are rejected as inexact."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing inexact float {value!r}; pass a Fraction, an int, or a rational string"
        )
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse "13", "-18", "5/8", or a finite decimal such as "0.625" exactly.

    Each integer part may have at most sys.get_int_max_str_digits() digits,
    CPython's cap on converting text to int.
    """
    body = text.strip()
    if not _RATIONAL_RE.fullmatch(body):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        if "/" in body:
            num, _, den = body.partition("/")
            if int(den) == 0:
                raise ZeroDenominator(f"zero denominator: {text!r}")
            return Fraction(int(num), int(den))
        return Fraction(body)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"literal too long: a part has more than {limit} digits") from None


def format_rational(value: Fraction) -> str:
    """Canonical text form: lowest terms, "/" only for non-integers."""
    return str(value)


def normalize_direction(dx, dy) -> tuple[Fraction, Fraction]:
    """Canonical direction: coprime integer pair, first nonzero component positive."""
    dx, dy = as_rational(dx), as_rational(dy)
    if dx == 0 and dy == 0:
        raise ValueError("direction must be nonzero")
    m = lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * m), int(dy * m)
    g = gcd(ix, iy)
    ix //= g
    iy //= g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return (Fraction(ix), Fraction(iy))


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "y", as_rational(self.y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the extended plane: finite, or a direction at infinity.

    Two at-infinity values compare equal exactly when their normalized
    directions coincide, so all parallels share one point at infinity.
    """

    point: Point2 | None = None
    direction: tuple[Fraction, Fraction] | None = None

    def __post_init__(self):
        if (self.point is None) == (self.direction is None):
            raise ValueError("exactly one of point/direction must be set")
        if self.direction is not None:
            object.__setattr__(self, "direction", normalize_direction(*self.direction))

    @classmethod
    def finite(cls, point: Point2) -> "ExtendedPoint":
        return cls(point=point)

    @classmethod
    def at_infinity(cls, dx, dy) -> "ExtendedPoint":
        return cls(direction=(dx, dy))

    @property
    def is_finite(self) -> bool:
        return self.point is not None

    def __str__(self) -> str:
        if self.is_finite:
            return str(self.point)
        dx, dy = self.direction
        return f"at infinity, direction ({dx}, {dy})"


@dataclass(frozen=True)
class Line:
    """Locus of a*x + b*y + c = 0, scaled so the first nonzero of (a, b) is 1.

    The scaling makes equality of Line values coincide with equality of the
    loci they describe.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        a, b, c = as_rational(self.a), as_rational(self.b), as_rational(self.c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a and b are both zero")
        scale = a if a != 0 else b
        object.__setattr__(self, "a", a / scale)
        object.__setattr__(self, "b", b / scale)
        object.__setattr__(self, "c", c / scale)

    def contains(self, point: Point2) -> bool:
        return self.a * point.x + self.b * point.y + self.c == 0

    def __str__(self) -> str:
        return f"[{self.a}]x + [{self.b}]y + [{self.c}] = 0"

    @property
    def direction(self) -> tuple[Fraction, Fraction]:
        """Normalized direction vector of the line."""
        return normalize_direction(self.b, -self.a)


@dataclass(frozen=True)
class Circle:
    center: Point2
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", as_rational(self.radius))
        if self.radius <= 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")

    def __str__(self) -> str:
        return f"circle(center={self.center}, r={self.radius})"


def line_through(p1: Point2, p2: Point2) -> Line:
    """The unique line containing two distinct points."""
    if p1 == p2:
        raise IdenticalPoints(f"cannot join a point to itself: {p1}")
    return Line(p2.y - p1.y, p1.x - p2.x, p2.x * p1.y - p1.x * p2.y)


def meet(l1: Line, l2: Line) -> ExtendedPoint:
    """Intersection of two distinct lines; parallels meet at infinity."""
    if l1 == l2:
        raise CoincidentLines("lines coincide; intersection is not a point")
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return ExtendedPoint.at_infinity(l1.b, -l1.a)
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l1.c * l2.a - l2.c * l1.a) / det
    return ExtendedPoint.finite(Point2(x, y))


def collinear_det(p1: Point2, p2: Point2, p3: Point2) -> Fraction:
    """Determinant of the 3x3 matrix with rows (x_i, y_i, 1); zero iff collinear."""
    return (
        p1.x * (p2.y - p3.y)
        - p1.y * (p2.x - p3.x)
        + (p2.x * p3.y - p3.x * p2.y)
    )


def circle_contains(k: Circle, point: Point2) -> bool:
    """Exact membership test for the circle (the curve, not the disk)."""
    dx = point.x - k.center.x
    dy = point.y - k.center.y
    return dx * dx + dy * dy == k.radius * k.radius


def param_point(k: Circle, t: ExtendedScalar) -> Point2:
    """Rational parametrization of the circle.

    Finite t maps to center + (r(1-t^2)/(1+t^2), 2rt/(1+t^2)); INFINITY maps
    to the leftmost point (center.x - r, center.y). Together these cover the
    whole circle with t in Q u {INFINITY}, and every image is exactly on k.
    """
    if t is INFINITY:
        return Point2(k.center.x - k.radius, k.center.y)
    t = as_rational(t)
    den = 1 + t * t
    return Point2(
        k.center.x + k.radius * (1 - t * t) / den,
        k.center.y + 2 * k.radius * t / den,
    )


def second_intersection(k: Circle, base: Point2, through: Point2) -> Point2:
    """Other intersection of k with the line joining ``base`` (on k) to ``through``.

    Writing points of the line as base + s * (through - base) and substituting
    into the circle equation gives a quadratic in s whose constant term
    vanishes because base lies on k. The known root s = 0 factors out, so the
    second root is rational (Vieta); no square root is ever needed. When the
    line is tangent at ``base`` the two roots coincide and ``base`` itself is
    returned.
    """
    if not circle_contains(k, base):
        raise PointNotOnCircle(f"{base} is not on {k}")
    if base == through:
        raise IdenticalPoints("chord direction undefined: points coincide")
    dx = through.x - base.x
    dy = through.y - base.y
    ex = base.x - k.center.x
    ey = base.y - k.center.y
    s = -2 * (dx * ex + dy * ey) / (dx * dx + dy * dy)
    return Point2(base.x + s * dx, base.y + s * dy)


def tangent_at(k: Circle, point: Point2) -> Line:
    """Tangent line of k at a point of k: through the point, normal to the radius."""
    if not circle_contains(k, point):
        raise PointNotOnCircle(f"{point} is not on {k}")
    a = point.x - k.center.x
    b = point.y - k.center.y
    return Line(a, b, -(a * point.x + b * point.y))


def power_of_point(k: Circle, point: Point2) -> Fraction:
    """Squared distance to the center minus the squared radius, exact."""
    dx = point.x - k.center.x
    dy = point.y - k.center.y
    return dx * dx + dy * dy - k.radius * k.radius


def radical_axis(k1: Circle, k2: Circle) -> Line:
    """Line of equal power with respect to two non-concentric circles.

    Subtracting the two circle equations cancels the quadratic terms, which
    is why the locus is a line.
    """
    if k1.center == k2.center:
        raise ConcentricCircles("concentric circles have no radical axis")
    a = 2 * (k2.center.x - k1.center.x)
    b = 2 * (k2.center.y - k1.center.y)
    c = (
        k1.center.x * k1.center.x
        + k1.center.y * k1.center.y
        - k1.radius * k1.radius
    ) - (
        k2.center.x * k2.center.x
        + k2.center.y * k2.center.y
        - k2.radius * k2.radius
    )
    return Line(a, b, c)


def point_on_line(line: Line, t) -> Point2:
    """Sample a point of the line: x = t if the line is not vertical, else y = t."""
    t = as_rational(t)
    if line.b != 0:
        return Point2(t, -(line.c + line.a * t) / line.b)
    return Point2(-line.c / line.a, t)
