"""Helpers the tests share: the Fraction kernel formulas that the integer
kernel replaced, against which the shipped kernel and construct_image are
checked; Fraction formulas for circles and lines that the package does not
ship, against which its circles, scenes and kernel are checked; the integer
values of a rational point and line, which the package builds from ints
only; a figure's model, its named points and lines by those formulas,
against which rendered documents are checked; a call counter, the
environment of a child interpreter, and the size of the closed form over a
benchmark's ops. Not a test module, so pytest does not collect it.
"""

import os
import sys
from fractions import Fraction
from math import lcm
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


def map_bits(ops) -> int:
    """Bit lengths of _image_map's x, w and s, summed over (cfg, scene, probe) ops.

    The closed form's work count on a benchmark workload: the tests pin it
    for sweep-tall, and CI writes it per op to each run's summary.
    """
    image_map = bicircle.construction._image_map
    return sum(sum(n.bit_length() for n in image_map(cfg, probe.p)[1:4]) for cfg, _, probe in ops)


def finite(point):
    """The ExtendedPoint of a Point2: its coordinates over their least common denominator."""
    x, y = point.x, point.y
    m = lcm(x.denominator, y.denominator)
    return ExtendedPoint(int(x * m), int(y * m), m)


def line(a, b, c):
    """The Line a*x + b*y + c = 0 of three rationals: each over their least common denominator."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    m = lcm(a.denominator, b.denominator, c.denominator)
    return Line(int(a * m), int(b * m), int(c * m))


def ref_line_through(p1, p2):
    return line(p2.y - p1.y, p1.x - p2.x, p2.x * p1.y - p1.x * p2.y)


def ref_meet(l1, l2):
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return at_infinity(l1.b, -l1.a)
    x = (l1.b * l2.c - l2.b * l1.c) / det
    y = (l1.c * l2.a - l2.c * l1.a) / det
    return finite(Point2(x, y))


def ref_second_intersection(k, base, through):
    dx, dy = through.x - base.x, through.y - base.y
    ex, ey = base.x - k.center.x, base.y - k.center.y
    s = -2 * (dx * ex + dy * ey) / (dx * dx + dy * dy)
    return Point2(base.x + s * dx, base.y + s * dy)


def ref_tangent_at(k, point):
    a, b = point.x - k.center.x, point.y - k.center.y
    return line(a, b, -(a * point.x + b * point.y))


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

    For concentric circles its x and y terms vanish, and line raises ValueError.
    """
    (x1, y1), r1 = (k1.center.x, k1.center.y), k1.radius
    (x2, y2), r2 = (k2.center.x, k2.center.y), k2.radius
    return line(2 * (x2 - x1), 2 * (y2 - y1), x1 * x1 + y1 * y1 - r1 * r1 - x2 * x2 - y2 * y2 + r2 * r2)


def figure_model(cfg, p, q):
    """A figure's named points and lines by the Fraction formulas above, never by construct_image.

    Returns (points, lines). points maps "A" to "N" to Point2s, and "P′" to a
    Point2, or to None at infinity. lines maps the class of each line the
    figure can draw to its Line; "image-line" is the vertical through the
    image of (p, 1), absent for tangent circles, whose images all lie at
    infinity. For a probe on the axis M = A and N = D, and the lines AM and
    DN are the vertical tangents there.
    """
    k1, k2 = circles(cfg)
    A, C = Point2(k1.center.x - k1.radius, 0), Point2(k1.center.x + k1.radius, 0)
    B, D = Point2(k2.center.x - k2.radius, 0), Point2(k2.center.x + k2.radius, 0)

    def image(q):
        P = Point2(p, q)
        M, N = ref_second_intersection(k1, C, P), ref_second_intersection(k2, B, P)
        am = ref_line_through(A, M) if M != A else line(1, 0, -A.x)
        dn = ref_line_through(D, N) if N != D else line(1, 0, -D.x)
        return P, M, N, am, dn, ref_meet(am, dn).point

    P, M, N, am, dn, image_point = image(q)
    points = {"A": A, "B": B, "C": C, "D": D, "P": P, "M": M, "N": N, "P′": image_point}
    lines = {
        "axis": line(0, 1, 0),
        "radical-axis": radical_axis(k1, k2),
        "probe-line": line(1, 0, -p),
        "chord chord-cm": ref_line_through(C, P),
        "chord chord-bn": ref_line_through(B, P),
        "construction construction-am": am,
        "construction construction-dn": dn,
    }
    on_line = image_point or image(1)[-1]  # P′ of (p, 1) when P′ is at infinity
    if on_line is not None:
        lines["image-line"] = line(1, 0, -on_line.x)
    return points, lines


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
