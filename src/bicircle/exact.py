"""Exact rational values and the four kernel operations of the construction.

Point2 and Circle hold arbitrary-precision rationals (``fractions.Fraction``).
ExtendedPoint, Line and a circle's conic are primitive integer tuples, and
ExtendedPoint and Line are built from the three ints they store only. The
kernel, line_through, meet, second_intersection and tangent_at, computes on
those integers with +, - and * and divides by a gcd only where it stores a
value. No floating point enters this module, and no square root is ever
taken. A point at infinity (x : y : 0) is an exact direction, never an
approximation by large coordinates.

All types are immutable values and all operations are pure functions, so
everything here is safe to share freely across threads.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import attrgetter

from .errors import (
    CoincidentLines,
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

_RATIONAL_RE = re.compile(r"[+-]?(?:\d+(?:/\d+)?|\d*\.\d+|\d+\.)", re.ASCII)
# The whitespace the grammar allows around a literal: ASCII only, not str.strip's Unicode set.
_SPACE = " \t\n\r\f\v"


def as_rational(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction; a float (inexact) or a bool raises TypeError.

    A str is read by parse_rational. A Fraction is returned as it is:
    Fractions are immutable, so sharing one is safe, and the kernel builds
    each Fraction it returns exactly once.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (bool, float)):
        kind = "bool" if isinstance(value, bool) else "inexact float"
        raise TypeError(f"refusing {kind} {value!r}; pass a Fraction, an int, or a rational string")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse "13", "-18", "5/8", or a finite decimal such as "0.625" exactly.

    Digits and the whitespace around the literal are ASCII. Each integer part may have at most
    sys.get_int_max_str_digits() digits, CPython's cap on converting text to int.
    """
    body = text.strip(_SPACE)
    if not _RATIONAL_RE.fullmatch(body):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ZeroDenominator(f"zero denominator: {text!r}") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"literal too long: a part has more than {limit} digits") from None


class _Value:
    """Base of the package's frozen value types.

    A subclass's fields are its own annotated names, in order: equality,
    hash, repr and positional match patterns read them, and values of
    different classes never compare equal. A constructor sets each field
    once through self.__dict__; assigning or deleting an attribute later
    raises AttributeError. copy, deepcopy and pickle rebuild a value from
    its __dict__ without running its constructor. Nothing is generated per
    class, so defining a value type costs no code generation at import.
    """

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point2(_Value):
    x: Fraction
    y: Fraction

    def __init__(self, x, y):
        self.__dict__.update(x=as_rational(x), y=as_rational(y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


class ExtendedPoint(_Value):
    """A point of the extended plane as a primitive integer triple (x : y : w).

    w > 0 is the finite point (x/w, y/w), w = 0 the point at infinity in
    direction (x, y), which all parallels share. The triple is divided by its
    gcd and signed so the first nonzero of (w, x, y) is positive: each point
    has one triple, so equal points compare and hash equal. It is built from
    ints only. ``point`` and ``direction`` are Fraction views, built on first read.
    """

    x: int
    y: int
    w: int

    def __init__(self, x: int, y: int, w: int):
        if not (type(x) is type(y) is type(w) is int):  # a bool is refused too
            raise TypeError(f"x, y and w must be ints, got {(x, y, w)!r}")
        g = gcd(x, y, w)
        if g == 0:
            raise ValueError("direction must be nonzero")
        if (w, x, y) < (0, 0, 0):
            g = -g
        self.__dict__.update(x=x // g, y=y // g, w=w // g)

    @property
    def is_finite(self) -> bool:
        return self.w != 0

    @cached_property
    def point(self) -> Point2 | None:
        return Point2(Fraction(self.x, self.w), Fraction(self.y, self.w)) if self.w else None

    @cached_property
    def direction(self) -> tuple[Fraction, Fraction] | None:
        return None if self.w else (Fraction(self.x), Fraction(self.y))

    def __str__(self) -> str:
        if self.is_finite:
            return str(self.point)
        return f"at infinity, direction ({self.x}, {self.y})"


_ZERO = Fraction(0)


class Line(_Value):
    """Locus of a*x + b*y + c = 0 as a primitive integer triple ``coefficients``.

    The triple is divided by its gcd and signed so the first nonzero of
    (a, b) is positive: equal lines compare and hash equal. It is built from
    ints only. ``a``, ``b`` and ``c`` are Fraction views, each coefficient over
    that first nonzero, built on first read.
    """

    coefficients: tuple[int, int, int]

    def __init__(self, a: int, b: int, c: int):
        if not (type(a) is type(b) is type(c) is int):  # a bool is refused too
            raise TypeError(f"a, b and c must be ints, got {(a, b, c)!r}")
        if not (a or b):
            raise ValueError("degenerate line: a and b are both zero")
        g = gcd(a, b, c)
        if (a, b) < (0, 0):
            g = -g
        self.__dict__["coefficients"] = (a // g, b // g, c // g)

    @cached_property
    def _fractions(self) -> tuple[Fraction, Fraction, Fraction]:
        a, b, c = self.coefficients
        return Fraction(a, a or b), Fraction(b, a or b), Fraction(c, a or b)

    a = property(lambda self: self._fractions[0])
    b = property(lambda self: self._fractions[1])
    c = property(lambda self: self._fractions[2])

    def __str__(self) -> str:
        return f"[{self.a}]x + [{self.b}]y + [{self.c}] = 0"


def _line(coefficients: tuple[int, int, int]) -> Line:
    """The Line of a triple already primitive and signed by Line's rule, as _axis_join's are."""
    line = object.__new__(Line)
    line.__dict__["coefficients"] = coefficients
    return line


class Circle(_Value):
    center: Point2
    radius: Fraction

    def __init__(self, center: Point2, radius):
        if type(center) is not Point2:
            raise TypeError(f"center must be a Point2, got {type(center).__name__}")
        radius = as_rational(radius)
        if radius.numerator <= 0:
            raise ValueError(f"circle radius must be positive, got {radius}")
        self.__dict__.update(center=center, radius=radius)

    def __str__(self) -> str:
        return f"circle(center={self.center}, r={self.radius})"


# The kernel core computes on integer triples: a point (x : y : w), a line (a : b : c) through
# the points with a*x + b*y + c*w = 0, and a circle as the conic s(x² + y²) + u*x*w + v*y*w +
# t*w² = 0, written (s, u, v, t). Join and meet are cross products and the tangent is a polar.
# _cross, _polar and _second use +, - and * alone, so they run over any commutative ring, and so
# does _chain once _axis_join is replaced by _cross; _circle_conic and _axis_join divide by a gcd.

def _triple(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    """Integers (X, Y, w) with (x, y) = (X/w, Y/w), w the product of x's and y's denominators."""
    xd, yd = x.denominator, y.denominator
    return x.numerator * yd, y.numerator * xd, xd * yd


def _conic(k: Circle) -> tuple[int, int, int, int]:
    """(s, u, v, t) of k: _circle_conic of its center and radius over one denominator."""
    (x, y, w), rn, rd = _triple(k.center.x, k.center.y), k.radius.numerator, k.radius.denominator
    return _circle_conic(x * rd, y * rd, rn * w, w * rd)


def _circle_conic(x: int, y: int, r: int, d: int) -> tuple[int, int, int, int]:
    """The one primitive (s, u, v, t), s > 0, of the circle with center (x/d, y/d) and radius r/d."""
    s, u, v, t = d * d, -2 * x * d, -2 * y * d, x * x + y * y - r * r
    g = gcd(s, u, v, t)
    return s // g, u // g, v // g, t // g


def _cross(u, v) -> tuple[int, int, int]:
    """The line through two points, or the point on two lines; zero iff they coincide."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def _axis_join(base, p) -> tuple[int, int, int]:
    """The coefficients of Line(*_cross(base, p)), or (w, 0, -x) if p is base = (x, 0, w).

    base has w > 0 and gcd(x, w) = 1. That cross, (-w·p1, w·p0 - x·p2, x·p1), has the two-term
    content gcd(p1, w·p0 - x·p2).
    """
    x, _, w = base
    p1, t = p[1], w * p[0] - x * p[2]
    g = gcd(p1, t)
    if not g:  # p is base: the vertical through it, the tangent there to any axis-centered circle
        p1, g = -1, 1
    if (-p1, t) < (0, 0):  # Line's sign rule: the first nonzero of (-w·p1, t) is positive
        g = -g
    k = p1 // g
    return -w * k, t // g, x * k


def _polar(k, p) -> tuple[int, int, int]:
    """Twice the polar line of p for the conic k: the tangent at p when p is on k."""
    s, u, v, t = k
    x, y, w = p
    return 2 * s * x + u * w, 2 * s * y + v * w, u * x + v * y + 2 * t * w


def _second(k, base, through) -> tuple[int, int, int]:
    """Second point of the conic k on the line from ``base`` (on k) to ``through``.

    On base + λ·through, k takes 2λ·B(base, through) + λ²·Q(through), since
    Q(base) = 0. The other root λ = -2B/Q gives Q·base - 2B·through (Vieta):
    base itself when the line is tangent there, and zero iff through = base.
    """
    l0, l1, l2 = _polar(k, through)
    (b0, b1, b2), (t0, t1, t2) = base, through
    q, b = t0 * l0 + t1 * l1 + t2 * l2, 2 * (b0 * l0 + b1 * l1 + b2 * l2)
    return q * b0 - b * t0, q * b1 - b * t1, q * b2 - b * t2


def _chain(conics, triples, p) -> tuple:
    """The construction from the probe p: (m, n, line AM, line DN, AM × DN), all integer triples.

    conics is (k1, k2) and triples (A, B, C, D), as derive stores them. The chord through C and p
    meets k1 again at m, and the chord through B and p meets k2 again at n (_second), each zero
    exactly when p is its base. A probe on the axis gives M = A and N = D, where _axis_join takes
    the vertical tangents, the limits of the moving chord lines. Only the lines are divided, by
    one two-term gcd each; the last value is P′ undivided, or zero when AM = DN.
    """
    (k1, k2), (a, b, c, d) = conics, triples
    m, n = _second(k1, c, p), _second(k2, b, p)
    am, dn = _axis_join(a, m), _axis_join(d, n)
    return m, n, am, dn, _cross(am, dn)


def _on_circle(k: Circle, point: Point2) -> tuple[tuple, tuple, tuple]:
    """k's conic, the point's triple and its polar; PointNotOnCircle off k, where p·polar ≠ 0."""
    conic, p = _conic(k), _triple(point.x, point.y)
    polar = _polar(conic, p)
    if p[0] * polar[0] + p[1] * polar[1] + p[2] * polar[2]:
        raise PointNotOnCircle(f"{point} is not on {k}")
    return conic, p, polar


def line_through(p1: Point2, p2: Point2) -> Line:
    """The unique line containing two distinct points."""
    if p1 == p2:
        raise IdenticalPoints(f"cannot join a point to itself: {p1}")
    return Line(*_cross(_triple(p1.x, p1.y), _triple(p2.x, p2.y)))


def meet(l1: Line, l2: Line) -> ExtendedPoint:
    """Intersection of two distinct lines; parallels meet at infinity, where w = 0."""
    if l1 == l2:
        raise CoincidentLines("lines coincide; intersection is not a point")
    return ExtendedPoint(*_cross(l1.coefficients, l2.coefficients))


def second_intersection(k: Circle, base: Point2, through: Point2) -> Point2:
    """Other intersection of k with the line joining ``base`` (on k) to ``through``.

    Rational by Vieta's formula, no square root needed; ``base`` itself when
    the line is tangent there.
    """
    conic, b, _ = _on_circle(k, base)
    if base == through:
        raise IdenticalPoints("chord direction undefined: points coincide")
    return ExtendedPoint(*_second(conic, b, _triple(through.x, through.y))).point


def tangent_at(k: Circle, point: Point2) -> Line:
    """Tangent line of k at a point of k: the polar of the point."""
    return Line(*_on_circle(k, point)[2])
