"""Kernel operations: frozen example values plus exact property tests."""

import ast
import inspect
import random
import sys
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicircle import (
    INFINITY,
    Circle,
    CoincidentLines,
    ExtendedPoint,
    IdenticalPoints,
    Line,
    ParseError,
    Point2,
    PointNotOnCircle,
    ProbePoint,
    ScenarioConfig,
    ZeroDenominator,
    as_rational,
    derive,
    line_through,
    locus_x,
    meet,
    parse_rational,
    second_intersection,
    tangent_at,
    verify_concurrency,
)
from bicircle.exact import _conic
from reference import (
    at_infinity,
    circle_contains,
    collinear_det,
    finite,
    line,
    line_contains,
    param_point,
    point_on_line,
    power_of_point,
    radical_axis,
    ref_line_through,
    ref_meet,
    ref_second_intersection,
    ref_tangent_at,
)

K1 = Circle(Point2(-2, 0), 3)
K2 = Circle(Point2(2, 0), 2)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
points = st.builds(Point2, rationals, rationals)
radii = st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20)
circles = st.builds(Circle, points, radii)
params = st.one_of(st.just(INFINITY), rationals)
# Homogeneous triples, small and ~40-digit, with a nonzero entry.
integers = st.one_of(st.integers(-50, 50), st.integers(-10**40, 10**40))
nonzero_integers = integers.filter(bool)
triples = st.tuples(integers, integers, integers).filter(any)
line_triples = st.tuples(integers, integers, integers).filter(lambda t: t[0] or t[1])


class TestRationalText:
    def test_fraction(self):
        assert parse_rational("5/8") == F(5, 8)

    def test_exact_decimal(self):
        assert parse_rational("0.625") == F(5, 8)

    def test_negative_and_sign(self):
        assert parse_rational("-18") == -18
        assert parse_rational("+7/3") == F(7, 3)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            parse_rational("1/0")

    def test_garbage(self):
        for bad in ["", "x", "1/2/3", "1e3", "nan", "1 / 2"]:
            with pytest.raises(ParseError):
                parse_rational(bad)

    @pytest.mark.parametrize("text", ["٣/٤", "３", "1/٤", "٠.٥", "-٢"])
    def test_ascii_digits_only(self, text):
        # Fraction(text) reads any Unicode decimal digit: Fraction("٣/٤") is 3/4.
        for build in (parse_rational, lambda t: ScenarioConfig(t, 3, 2)):
            with pytest.raises(ParseError, match="not a rational literal"):
                build(text)

    @pytest.mark.parametrize("text", ["\u00a02", "2\u00a0", "\u20032", "\x1c2", "\u30002"],
                             ids=["no-break-space", "trailing", "em-space", "file-separator", "ideographic"])
    def test_ascii_whitespace_only(self, text):
        # str.strip() removes any Unicode whitespace, and \x1c-\x1f with it.
        with pytest.raises(ParseError, match="not a rational literal"):
            parse_rational(text)
        assert parse_rational(" \t\n\r\f\v2 \t\n\r\f\v") == 2

    def test_over_cap_numerator_over_zero(self):
        # Fraction reads the numerator first, so the digit cap fires before the zero test.
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError, match="literal too long"):
            parse_rational(f"{huge}/0")

    @pytest.mark.parametrize("text", ["1e3", "1_000", "1 / 2", "nan", ""])
    def test_library_strings_share_the_cli_grammar(self, text):
        # Fraction(text) would accept the first two; as_rational reads every str with parse_rational.
        for build in (as_rational, lambda t: Point2(t, 0), lambda t: ScenarioConfig(t, 3, 2),
                      lambda t: Circle(Point2(0, 0), t)):
            with pytest.raises(ParseError):
                build(text)
        assert as_rational(" -5/8 ") == F(-5, 8)
        assert ScenarioConfig("0.5", "3", "2").a == F(1, 2)

    def test_one_conversion(self):
        # One Fraction(...) call after the regex; no second path that splits on "/".
        tree = ast.parse(inspect.getsource(parse_rational))
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert sum(isinstance(f, ast.Name) and f.id == "Fraction" for f in calls) == 1
        assert not any(isinstance(f, ast.Attribute) and f.attr == "partition" for f in calls)

    def test_canonical_output(self):
        assert str(F(10, 16)) == "5/8"
        assert str(F(-6, 3)) == "-2"

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(str(value)) == value


class TestLineThrough:
    def test_diagonal(self):
        assert line_through(Point2(0, 0), Point2(1, 1)) == Line(1, -1, 0)

    def test_worked_case_line_am(self):
        assert line_through(Point2(-5, 0), Point2(-2, -3)) == Line(1, 1, 5)

    def test_vertical(self):
        assert line_through(Point2(3, 0), Point2(3, 7)) == Line(1, 0, -3)

    def test_identical_points(self):
        with pytest.raises(IdenticalPoints):
            line_through(Point2(1, 2), Point2(1, 2))

    @given(points, points)
    def test_symmetric_and_incident(self, p1, p2):
        assume(p1 != p2)
        line = line_through(p1, p2)
        assert line == line_through(p2, p1)
        assert line_contains(line, p1) and line_contains(line, p2)


class TestMeet:
    def test_simple(self):
        assert meet(Line(1, 0, -1), Line(1, -1, 0)) == finite(Point2(1, 1))

    def test_parallel_verticals(self):
        result = meet(Line(1, 0, 5), Line(1, 0, -4))
        assert result == ExtendedPoint(0, 1, 0)

    def test_worked_case_image(self):
        result = meet(Line(1, 1, 5), Line(2, 1, -8))
        assert result == finite(Point2(13, -18))

    def test_coincident(self):
        with pytest.raises(CoincidentLines):
            meet(Line(2, 2, 10), Line(1, 1, 5))

    @given(points, points, points)
    def test_common_point(self, p1, p2, p3):
        assume(collinear_det(p1, p2, p3) != 0)
        joined = meet(line_through(p1, p2), line_through(p1, p3))
        assert joined == finite(p1)


class TestCollinearDet:
    def test_collinear(self):
        assert collinear_det(Point2(0, 0), Point2(1, 1), Point2(2, 2)) == 0

    def test_unit_triangle(self):
        assert collinear_det(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1

    def test_worked_case_chord(self):
        assert collinear_det(Point2(2, 1), Point2(1, 0), Point2(-2, -3)) == 0

    @given(points, points, points)
    def test_matches_the_fraction_determinant(self, p1, p2, p3):
        det = collinear_det(p1, p2, p3)
        assert type(det) is F
        assert det == p1.x * (p2.y - p3.y) - p1.y * (p2.x - p3.x) + (p2.x * p3.y - p3.x * p2.y)


class TestCircleContains:
    def test_rightmost(self):
        assert circle_contains(K1, Point2(1, 0))

    def test_worked_case_m(self):
        assert circle_contains(K1, Point2(-2, -3))

    def test_inside_is_not_on(self):
        assert not circle_contains(K1, Point2(0, 0))


class TestParamPoint:
    def test_zero_gives_rightmost(self):
        assert param_point(K1, 0) == Point2(1, 0)

    def test_infinity_gives_leftmost(self):
        assert param_point(K1, INFINITY) == Point2(-5, 0)

    def test_unit_parameter(self):
        assert param_point(K1, 1) == Point2(-2, 3)

    @given(circles, params)
    def test_always_on_circle(self, k, t):
        assert circle_contains(k, param_point(k, t))


class TestSecondIntersection:
    def test_worked_case_m(self):
        assert second_intersection(K1, Point2(1, 0), Point2(2, 1)) == Point2(-2, -3)

    def test_worked_case_n(self):
        assert second_intersection(K2, Point2(0, 0), Point2(2, 1)) == Point2(F(16, 5), F(8, 5))

    def test_tangent_returns_base(self):
        assert second_intersection(K2, Point2(0, 0), Point2(0, 5)) == Point2(0, 0)

    def test_base_off_circle(self):
        with pytest.raises(PointNotOnCircle):
            second_intersection(K1, Point2(0, 0), Point2(2, 1))

    def test_identical_points(self):
        with pytest.raises(IdenticalPoints):
            second_intersection(K1, Point2(1, 0), Point2(1, 0))

    @given(circles, params, points)
    @settings(max_examples=150)
    def test_on_circle_and_collinear(self, k, t, through):
        base = param_point(k, t)
        assume(through != base)
        other = second_intersection(k, base, through)
        assert circle_contains(k, other)
        assert collinear_det(base, through, other) == 0

    @given(circles, params, points)
    @settings(max_examples=150)
    def test_secant_involution(self, k, t, through):
        base = param_point(k, t)
        assume(through != base)
        other = second_intersection(k, base, through)
        assume(other != base and other != through)
        assert second_intersection(k, other, through) == base


class TestTangentAt:
    def test_leftmost_vertical(self):
        assert tangent_at(K1, Point2(-5, 0)) == Line(1, 0, 5)

    def test_rightmost_vertical(self):
        assert tangent_at(K2, Point2(4, 0)) == Line(1, 0, -4)

    def test_topmost_horizontal(self):
        assert tangent_at(K1, Point2(-2, 3)) == Line(0, 1, -3)

    def test_off_circle(self):
        with pytest.raises(PointNotOnCircle):
            tangent_at(K1, Point2(0, 0))

    @given(circles, params)
    def test_touches_only_at_point(self, k, t):
        base = param_point(k, t)
        line = tangent_at(k, base)
        assert line_contains(line, base)
        # tangency: the second intersection along any point of the line is base
        probe = point_on_line(line, base.x + 1 if line.b != 0 else base.y + 1)
        assume(probe != base)
        assert second_intersection(k, base, probe) == base


class TestPowerAndRadicalAxis:
    def test_center(self):
        assert power_of_point(Circle(Point2(0, 0), 1), Point2(0, 0)) == -1

    def test_outside(self):
        assert power_of_point(Circle(Point2(0, 0), 1), Point2(2, 0)) == 3

    def test_equal_powers_on_radical_axis(self):
        z = Point2(F(5, 8), 0)
        assert power_of_point(K1, z) == power_of_point(K2, z) == F(-135, 64)

    def test_worked_case_axis(self):
        assert radical_axis(K1, K2) == line(1, 0, F(-5, 8))

    def test_equal_circles(self):
        k1 = Circle(Point2(-3, 0), 2)
        k2 = Circle(Point2(3, 0), 2)
        assert radical_axis(k1, k2) == Line(1, 0, 0)

    def test_symmetric_pair(self):
        k1 = Circle(Point2(0, 0), 1)
        k2 = Circle(Point2(4, 0), 1)
        assert radical_axis(k1, k2) == Line(1, 0, -2)

    def test_concentric(self):
        with pytest.raises(ValueError):
            radical_axis(K1, Circle(Point2(-2, 0), 1))

    @given(circles, points)
    def test_conic_is_primitive(self, k, point):
        # One conic per circle: divided by its gcd, s > 0, and its value at a
        # point is s times the point's power.
        s, u, v, t = _conic(k)
        assert gcd(s, u, v, t) == 1 and s > 0
        x, y = point.x, point.y
        assert s * (x * x + y * y) + u * x + v * y + t == s * power_of_point(k, point)

    @given(circles, circles, rationals, rationals)
    def test_equal_power_property(self, k1, k2, t1, t2):
        assume(k1.center != k2.center)
        axis = radical_axis(k1, k2)
        for t in (t1, t2):
            sample = point_on_line(axis, t)
            assert power_of_point(k1, sample) == power_of_point(k2, sample)


class TestExtendedPoint:
    def test_direction_normalization(self):
        assert ExtendedPoint(2, -4, 0) == ExtendedPoint(-1, 2, 0)

    def test_first_nonzero_positive(self):
        assert ExtendedPoint(0, -5, 0).direction == (0, 1)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be nonzero"):
            at_infinity(F(0), F(0))

    def test_finite_vs_infinite(self):
        assert finite(Point2(0, 0)) != ExtendedPoint(1, 0, 0)

    def test_normalize_direction_integers(self):
        assert ExtendedPoint(6, -9, 0).direction == (2, -3)

    def test_triple_is_primitive_and_signed(self):
        assert ExtendedPoint(4, 6, -2) == ExtendedPoint(-2, -3, 1)
        value = ExtendedPoint(0, -6, 0)
        assert (value.x, value.y, value.w) == (0, 1, 0)
        # gcd 1 and gcd -1: the triple is kept, or only its sign flips.
        for triple, stored in (((3, -5, 2), (3, -5, 2)), ((1, 2, -1), (-1, -2, 1))):
            value = ExtendedPoint(*triple)
            assert (value.x, value.y, value.w) == stored

    def test_zero_triple_rejected(self):
        with pytest.raises(ValueError, match="direction must be nonzero"):
            ExtendedPoint(0, 0, 0)

    def test_float_direction_rejected(self):
        with pytest.raises(TypeError):
            ExtendedPoint(0.5, 1, 0)

    def test_bool_triple_rejected(self):
        # bool subclasses int: ExtendedPoint(True, False, True) would be the point (1, 0).
        with pytest.raises(TypeError, match=r"x, y and w must be ints, got \(True, False, True\)"):
            ExtendedPoint(True, False, True)

    @given(triples, nonzero_integers)
    def test_scaled_triple_is_the_same_point(self, triple, k):
        value = ExtendedPoint(*triple)
        scaled = ExtendedPoint(*(k * c for c in triple))
        assert scaled == value
        assert hash(scaled) == hash(value)

    @given(triples)
    def test_views_are_cached(self, triple):
        value, fresh = ExtendedPoint(*triple), ExtendedPoint(*triple)
        before = hash(value)
        assert value.point is value.point
        assert value.direction is value.direction
        assert value == fresh and hash(value) == before == hash(fresh)
        assert fresh == value and repr(fresh) == repr(value)

    @given(points)
    def test_finite_round_trip(self, p):
        value = finite(p)
        assert value.is_finite and value.direction is None
        assert value.point == p
        assert type(value.point.x) is F and type(value.point.y) is F

    @given(rationals, rationals)
    def test_at_infinity_matches_reference(self, dx, dy):
        assume(dx or dy)
        value = at_infinity(dx, dy)
        assert not value.is_finite and value.point is None
        assert value.direction == ref_normalize_direction(dx, dy)
        assert all(type(c) is F for c in value.direction)

    @given(points, points, rationals)
    def test_parallel_lines_meet_at_their_direction(self, p1, p2, shift):
        assume(p1 != p2 and shift != 0)
        l1 = line_through(p1, p2)
        l2 = line(l1.a, l1.b, l1.c + shift)
        assert meet(l1, l2) == at_infinity(p2.x - p1.x, p2.y - p1.y)


class TestLineTriple:
    def test_worked_case(self):
        line = Line(2, 1, -8)
        assert line.coefficients == (2, 1, -8)
        assert (line.a, line.b, line.c) == (1, F(1, 2), -4)

    @pytest.mark.parametrize("triple, views, text", [
        ((0, 3, 0), (0, 1, 0), "[0]x + [1]y + [0] = 0"),
        ((2, 0, 0), (1, 0, 0), "[1]x + [0]y + [0] = 0"),
        ((-4, 6, 0), (1, F(-3, 2), 0), "[1]x + [-3/2]y + [0] = 0"),
        ((0, -2, 8), (0, 1, -4), "[0]x + [1]y + [-4] = 0"),
        ((-5, 0, 10), (1, 0, -2), "[1]x + [0]y + [-2] = 0"),
        ((3, -6, 9), (1, -2, 3), "[1]x + [-2]y + [3] = 0"),
        ((-2, -3, 5), (1, F(3, 2), F(-5, 2)), "[1]x + [3/2]y + [-5/2] = 0"),
        ((0, 7, 3), (0, 1, F(3, 7)), "[0]x + [1]y + [3/7] = 0"),
    ])
    def test_views_on_every_zero_and_sign_pattern(self, triple, views, text):
        # Each view is its coefficient over the first nonzero of (a, b), zeros included.
        line = Line(*triple)
        assert (line.a, line.b, line.c) == views
        assert all(type(v) is F for v in (line.a, line.b, line.c))
        assert str(line) == text

    @pytest.mark.parametrize("value", [F(1, 2), "1", 1.0, True], ids=["Fraction", "str", "float", "bool"])
    def test_ints_only(self, value):
        # A rational line is built by scaling to ints first, as reference.line does.
        with pytest.raises(TypeError, match="a, b and c must be ints, got"):
            Line(value, 1, 0)

    @given(line_triples, nonzero_integers)
    def test_scaled_triple_is_the_same_line(self, triple, k):
        line = Line(*triple)
        scaled = Line(*(k * c for c in triple))
        assert scaled == line
        assert hash(scaled) == hash(line)

    @given(line_triples)
    def test_views_are_fractions_with_a_leading_one(self, triple):
        line = Line(*triple)
        assert all(type(v) is F for v in (line.a, line.b, line.c))
        assert (line.a or line.b) == 1
        a, b, c = triple
        assert (line.a, line.b, line.c) == (F(a, a or b), F(b, a or b), F(c, a or b))
        assert gcd(*line.coefficients) == 1

    @given(line_triples)
    def test_views_are_cached_and_leave_equality_alone(self, triple):
        line, fresh = Line(*triple), Line(*triple)
        before = hash(line)
        assert line.a is line.a and line.b is line.b and line.c is line.c
        assert line == fresh and hash(line) == before == hash(fresh)

    @given(line_triples, nonzero_integers)
    def test_meet_of_coincident_lines_raises(self, triple, k):
        with pytest.raises(CoincidentLines):
            meet(Line(*triple), Line(*(k * c for c in triple)))


class TestReferenceHelpers:
    """reference.line and reference.finite, which build expected values, agree with the kernel."""

    @staticmethod
    def seeded_rationals(rng, count):
        """Rationals of small and ~40-digit heights, never zero."""
        height = rng.choice((50, 10**40))
        return [F(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height)) for _ in range(count)]

    def test_line_is_line_through_two_of_its_points(self):
        rng = random.Random("reference-line")
        for _ in range(300):
            a, b, c, t, u = self.seeded_rationals(rng, 5)
            a, b = (v if rng.random() < 0.8 else F(0) for v in (a, b))  # horizontals and verticals too
            if not (a or b) or t == u:
                continue
            if b:
                p, q = Point2(t, -(c + a * t) / b), Point2(u, -(c + a * u) / b)
            else:
                p, q = Point2(-c / a, t), Point2(-c / a, u)
            assert line(a, b, c) == line_through(p, q)

    def test_finite_is_the_meet_of_two_lines_through_it(self):
        rng = random.Random("reference-finite")
        for _ in range(300):
            x, y, a1, b1, a2, b2 = self.seeded_rationals(rng, 6)
            if a1 * b2 == a2 * b1:
                continue
            l1, l2 = (line(a, b, -(a * x + b * y)) for a, b in ((a1, b1), (a2, b2)))
            assert finite(Point2(x, y)) == meet(l1, l2)


def ref_normalize_direction(dx, dy):
    """The Fraction normalization of a direction that ExtendedPoint's integer triple replaced."""
    dx, dy = F(dx), F(dy)
    if dx == 0 and dy == 0:
        raise ValueError("direction must be nonzero")
    m = lcm(dx.denominator, dy.denominator)
    ix = dx.numerator * (m // dx.denominator)
    iy = dy.numerator * (m // dy.denominator)
    g = gcd(ix, iy)
    ix //= g
    iy //= g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return (F(ix), F(iy))


class TestValueDiscipline:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Point2(0.5, 1)

    @pytest.mark.parametrize("build", [
        lambda: Point2(False, 1),
        lambda: ProbePoint(True, 1),
        lambda: ScenarioConfig(True, 2, 2),
        lambda: locus_x(ScenarioConfig(2, 3, 2), True),
        lambda: verify_concurrency(derive(ScenarioConfig(2, 3, 2)), [True]),
    ], ids=["Point2", "ProbePoint", "ScenarioConfig", "locus_x", "verify_concurrency"])
    def test_bools_rejected(self, build):
        # bool subclasses int, so Fraction(True) would read it as 1.
        with pytest.raises(TypeError, match="refusing bool (True|False)"):
            build()

    def test_line_needs_nonzero_gradient(self):
        with pytest.raises(ValueError):
            Line(0, 0, 1)

    def test_circle_needs_positive_radius(self):
        with pytest.raises(ValueError):
            Circle(Point2(0, 0), 0)

    def test_circle_needs_a_point_center(self):
        # Checked when the circle is built, not at the kernel's first read of center.x.
        with pytest.raises(TypeError, match="center must be a Point2, got tuple"):
            Circle((0, 0), 1)

    def test_line_normalization_is_canonical(self):
        assert Line(2, 4, 6) == Line(1, 2, 3)
        assert Line(0, -2, 8) == Line(0, 1, -4)
        # gcd 1 and gcd -1: the triple is kept, or only its sign flips.
        assert Line(3, -5, 7).coefficients == (3, -5, 7)
        assert Line(-1, 2, 3).coefficients == (1, -2, -3)


# --- the integer kernel against the Fraction formulas it replaced ----------

TALL = 10**50
tall_rationals = st.builds(F, st.integers(-TALL, TALL), st.integers(TALL // 10, TALL))
tall_radii = st.builds(F, st.integers(1, TALL), st.integers(TALL // 10, TALL))
# Small heights as in the fuzz oracle, and ~50-digit numerators and denominators.
KERNEL_INPUTS = {
    "small": (rationals, radii),
    "tall": (tall_rationals, tall_radii),
}


def kernel_strategies(height):
    values, radius = KERNEL_INPUTS[height]
    pts = st.builds(Point2, values, values)
    return values, pts, st.builds(Circle, pts, radius), st.one_of(st.just(INFINITY), values)


def assert_exact_fields(*values):
    assert all(type(value) is F for value in values)


@pytest.mark.parametrize("height", sorted(KERNEL_INPUTS))
class TestKernelMatchesReference:
    def test_line_through(self, height):
        _, pts, _, _ = kernel_strategies(height)

        @given(pts, pts)
        def check(p1, p2):
            assume(p1 != p2)
            line = line_through(p1, p2)
            assert line == ref_line_through(p1, p2)
            assert_exact_fields(line.a, line.b, line.c)

        check()

    def test_meet(self, height):
        values, pts, _, _ = kernel_strategies(height)

        @given(pts, pts, pts, values, st.booleans())
        def check(p1, p2, p3, shift, parallel):
            assume(p1 != p2 and p1 != p3)
            l1 = line_through(p1, p2)
            l2 = line(l1.a, l1.b, l1.c + shift) if parallel else line_through(p1, p3)
            assume(l1 != l2)
            result = meet(l1, l2)
            assert result == ref_meet(l1, l2)
            if result.is_finite:
                assert_exact_fields(result.point.x, result.point.y)

        check()

    def test_second_intersection(self, height):
        _, pts, circs, ts = kernel_strategies(height)

        @given(circs, ts, pts)
        def check(k, t, through):
            base = param_point(k, t)
            assume(through != base)
            other = second_intersection(k, base, through)
            assert other == ref_second_intersection(k, base, through)
            assert_exact_fields(other.x, other.y)

        check()

    def test_tangent_at(self, height):
        _, _, circs, ts = kernel_strategies(height)

        @given(circs, ts)
        def check(k, t):
            base = param_point(k, t)
            line = tangent_at(k, base)
            assert line == ref_tangent_at(k, base)
            assert_exact_fields(line.a, line.b, line.c)

        check()

    def test_errors_still_raise(self, height):
        _, pts, circs, ts = kernel_strategies(height)

        @given(circs, ts, pts)
        def check(k, t, point):
            with pytest.raises(IdenticalPoints):
                line_through(point, point)
            base = param_point(k, t)
            with pytest.raises(IdenticalPoints):
                second_intersection(k, base, base)
            assume(not circle_contains(k, point))
            with pytest.raises(PointNotOnCircle):
                second_intersection(k, point, base)
            with pytest.raises(PointNotOnCircle):
                tangent_at(k, point)

        check()
