"""Exact rational primitives for plane geometry.

Every coordinate is an arbitrary-precision rational (``fractions.Fraction``)
and every operation is exact: no floating point enters this module, and no
square root is ever taken. A point at infinity is an integer triple (x : y : 0),
an exact direction, never an approximation by large coordinates.

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
    """Coerce int/str/Fraction to Fraction; floats are rejected as inexact.

    A Fraction is returned as it is: Fractions are immutable, so sharing one
    is safe, and the kernel builds each Fraction it returns exactly once.
    """
    if type(value) is Fraction:
        return value
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
    """A point of the extended plane as a primitive integer triple (x : y : w).

    w > 0 is the finite point (x/w, y/w), w = 0 the point at infinity in
    direction (x, y), which all parallels share. The triple is divided by its
    gcd and signed so the first nonzero of (w, x, y) is positive: each point
    has one triple, so equal points compare and hash equal.
    """

    x: int
    y: int
    w: int

    def __post_init__(self):
        x, y, w = self.x, self.y, self.w
        g = gcd(x, y, w)
        if g == 0:
            raise ValueError("direction must be nonzero")
        if (w, x, y) < (0, 0, 0):
            g = -g
        if g != 1:
            object.__setattr__(self, "x", x // g)
            object.__setattr__(self, "y", y // g)
            object.__setattr__(self, "w", w // g)

    @classmethod
    def finite(cls, point: Point2) -> "ExtendedPoint":
        return cls(*_homogeneous(point))

    @classmethod
    def at_infinity(cls, dx, dy) -> "ExtendedPoint":
        x, y, _ = _homogeneous(Point2(dx, dy))
        return cls(x, y, 0)

    @property
    def is_finite(self) -> bool:
        return self.w != 0

    @property
    def point(self) -> Point2 | None:
        return _point(self.x, self.y, self.w) if self.w else None

    @property
    def direction(self) -> tuple[Fraction, Fraction] | None:
        return None if self.w else (Fraction(self.x), Fraction(self.y))

    def __str__(self) -> str:
        if self.is_finite:
            return str(self.point)
        return f"at infinity, direction ({self.x}, {self.y})"


def normalize_direction(dx, dy) -> tuple[Fraction, Fraction]:
    """Canonical direction: coprime integer pair, first nonzero component positive."""
    return ExtendedPoint.at_infinity(dx, dy).direction


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


# The four kernel constructions below compute on integers: a point or a
# difference of points becomes integer coordinates over the lcm of its own
# denominators, a line its integer coefficients over theirs. Scaling each
# vector by its own lcm, not all inputs by one, keeps the integers short on
# tall rationals. Each Fraction of a result is built once, by _point or _line.

def _homogeneous(p: Point2) -> tuple[int, int, int]:
    """Integers (x, y, w) with p = (x/w, y/w), w the lcm of p's denominators."""
    xd, yd = p.x.denominator, p.y.denominator
    w = lcm(xd, yd)
    return p.x.numerator * (w // xd), p.y.numerator * (w // yd), w


def _delta(p: Point2, q: Point2) -> tuple[int, int, int]:
    """Integers (x, y, w) with q - p = (x/w, y/w)."""
    pxd, pyd, qxd, qyd = p.x.denominator, p.y.denominator, q.x.denominator, q.y.denominator
    w = lcm(pxd, pyd, qxd, qyd)
    return (
        q.x.numerator * (w // qxd) - p.x.numerator * (w // pxd),
        q.y.numerator * (w // qyd) - p.y.numerator * (w // pyd),
        w,
    )


def _coefficients(line: Line) -> tuple[int, int, int]:
    """Integers proportional to (a, b, c): a is 0 or 1, so only b and c have denominators."""
    bd, cd = line.b.denominator, line.c.denominator
    w = lcm(bd, cd)
    return line.a.numerator * w, line.b.numerator * (w // bd), line.c.numerator * (w // cd)


def _point(x: int, y: int, w: int) -> Point2:
    """The point (x/w, y/w) of integers, w nonzero."""
    return Point2(Fraction(x, w), Fraction(y, w))


_ZERO, _ONE = Fraction(0), Fraction(1)


def _line(a: int, b: int, c: int) -> Line:
    """The Line a*x + b*y + c = 0 of integers, (a, b) nonzero, scaled as Line scales."""
    scale = a or b
    line = object.__new__(Line)
    object.__setattr__(line, "a", _ONE if a else _ZERO)
    object.__setattr__(line, "b", Fraction(b, a) if a else _ONE)
    object.__setattr__(line, "c", Fraction(c, scale))
    return line


def _radius_vector(k: Circle, point: Point2) -> tuple[int, int, int]:
    """Integers (x, y, w) with point - center = (x/w, y/w); PointNotOnCircle if off k."""
    x, y, w = _delta(k.center, point)
    r = k.radius
    if (x * x + y * y) * r.denominator**2 != (r.numerator * w) ** 2:
        raise PointNotOnCircle(f"{point} is not on {k}")
    return x, y, w


def line_through(p1: Point2, p2: Point2) -> Line:
    """The unique line containing two distinct points."""
    if p1 == p2:
        raise IdenticalPoints(f"cannot join a point to itself: {p1}")
    dx, dy, _ = _delta(p1, p2)
    x, y, w = _homogeneous(p1)
    # Normal (dy, -dx) through p1, times w.
    return _line(dy * w, -dx * w, dx * y - dy * x)


def meet(l1: Line, l2: Line) -> ExtendedPoint:
    """Intersection of two distinct lines; parallels meet at infinity, where w = 0."""
    if l1 == l2:
        raise CoincidentLines("lines coincide; intersection is not a point")
    a1, b1, c1 = _coefficients(l1)
    a2, b2, c2 = _coefficients(l2)
    return ExtendedPoint(b1 * c2 - b2 * c1, c1 * a2 - c2 * a1, a1 * b2 - a2 * b1)


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
    ex, ey, m = _radius_vector(k, base)
    if base == through:
        raise IdenticalPoints("chord direction undefined: points coincide")
    dx, dy, _ = _delta(base, through)
    # With d = through - base and e = base - center, the second root is
    # s = -2 (d.e) / (d.d). The scale of d cancels from s * d, so d may be
    # any multiple of through - base; e must be exact, hence the m below.
    x, y, w = _homogeneous(base)
    num = -2 * (dx * ex + dy * ey) * w
    den = (dx * dx + dy * dy) * m
    return _point(x * den + num * dx, y * den + num * dy, w * den)


def tangent_at(k: Circle, point: Point2) -> Line:
    """Tangent line of k at a point of k: through the point, normal to the radius."""
    a, b, _ = _radius_vector(k, point)
    x, y, w = _homogeneous(point)
    return _line(a * w, b * w, -(a * x + b * y))


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
