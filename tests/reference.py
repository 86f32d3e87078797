"""Helpers the tests share: the Fraction kernel formulas that the integer
kernel replaced, against which the shipped kernel and construct_image are
checked, a call counter, and the environment of a child interpreter. Not a
test module, so pytest does not collect it.
"""

import os
import sys
from pathlib import Path

import bicircle
from bicircle import ExtendedPoint, Line, Point2


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
        return ExtendedPoint.at_infinity(l1.b, -l1.a)
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
