"""Helpers the tests share: the Fraction kernel formulas that the integer
kernel replaced, against which the shipped kernel and construct_image are
checked; Fraction formulas for circles and lines that the package does not
ship, against which its circles, scenes and kernel are checked; a call
counter, and the environment of a child interpreter. Not a test module, so
pytest does not collect it.
"""

import os
import sys
from pathlib import Path

import bicircle
from bicircle import INFINITY, Circle, ExtendedPoint, Line, Point2


def child_env() -> dict:
    """os.environ with this bicircle's directory first on PYTHONPATH.

    A child interpreter started with it imports the same package as the
    test, installed or not.
    """
    paths = [str(Path(bicircle.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def calls_made(target, fn, *args, caller=None):
    """Count calls of the Python function target made while fn runs, with a profile hook.

    With caller given, count only the calls that caller makes directly.
    """
    code = target.__code__
    outer = caller and caller.__code__
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code and (outer is None or frame.f_back.f_code is outer):
            calls += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def ref_line_through(p1, p2):
    return Line(p2.y - p1.y, p1.x - p2.x, p2.x * p1.y - p1.x * p2.y)


def ref_meet(l1, l2):
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return at_infinity(l1.b, -l1.a)
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l1.c * l2.a - l2.c * l1.a) / det
    return ExtendedPoint.finite(Point2(x, y))


def ref_second_intersection(k, base, through):
    dx, dy = through.x - base.x, through.y - base.y
    ex, ey = base.x - k.center.x, base.y - k.center.y
    s = -2 * (dx * ex + dy * ey) / (dx * dx + dy * dy)
    return Point2(base.x + s * dx, base.y + s * dy)


def ref_tangent_at(k, point):
    a, b = point.x - k.center.x, point.y - k.center.y
    return Line(a, b, -(a * point.x + b * point.y))


def at_infinity(dx, dy):
    """The point at infinity in the direction (dx, dy) of two Fractions, scaled to integers."""
    return ExtendedPoint(dx.numerator * dy.denominator, dy.numerator * dx.denominator, 0)


def circles(cfg):
    """The scenario's circles: k1 about (-a, 0) of radius r1 and k2 about (a, 0) of radius r2."""
    return Circle(Point2(-cfg.a, 0), cfg.r1), Circle(Point2(cfg.a, 0), cfg.r2)


def collinear_det(p1, p2, p3):
    """The determinant with rows (x_i, y_i, 1): zero iff the three points are collinear."""
    return (p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x)


def power_of_point(k, point):
    """Squared distance to the center minus the squared radius."""
    dx, dy = point.x - k.center.x, point.y - k.center.y
    return dx * dx + dy * dy - k.radius * k.radius


def circle_contains(k, point):
    """Membership of the circle: the curve, not the disk."""
    return power_of_point(k, point) == 0


def param_point(k, t):
    """center + r·((1 - t²), 2t)/(1 + t²) for rational t; INFINITY gives the leftmost point.

    Together these cover the whole circle, each exactly on it.
    """
    if t is INFINITY:
        return Point2(k.center.x - k.radius, k.center.y)
    den = 1 + t * t
    return Point2(k.center.x + k.radius * (1 - t * t) / den, k.center.y + 2 * k.radius * t / den)


def radical_axis(k1, k2):
    """The line of equal power: the difference of the two circles' power functions.

    For concentric circles its x and y terms vanish, and Line raises ValueError.
    """
    (x1, y1), r1 = (k1.center.x, k1.center.y), k1.radius
    (x2, y2), r2 = (k2.center.x, k2.center.y), k2.radius
    return Line(2 * (x2 - x1), 2 * (y2 - y1), x1 * x1 + y1 * y1 - r1 * r1 - x2 * x2 - y2 * y2 + r2 * r2)


def point_on_line(line, t):
    """The point of the line with x = t, or with y = t if the line is vertical."""
    if line.b:
        return Point2(t, -(line.c + line.a * t) / line.b)
    return Point2(-line.c / line.a, t)


def line_contains(line, point):
    return line.a * point.x + line.b * point.y + line.c == 0


def line_direction(line):
    """(b, -a): parallel lines share it, as Line scales a and b so the first nonzero is 1."""
    return line.b, -line.a
