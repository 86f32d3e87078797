"""Scenario validation, derivation, and the probe line."""

from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicircle import (
    Circle,
    DerivedScene,
    InvalidScenario,
    Line,
    Ordering,
    ParseError,
    Point2,
    ScenarioConfig,
    circle_contains,
    derive,
    parse_scenario,
    power_of_point,
    radical_axis,
    validate,
)
from bicircle.exact import _conic, _triple

positives = st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20)


def admissible_configs():
    return (
        st.builds(ScenarioConfig, positives, positives, positives)
        .filter(lambda cfg: 2 * cfg.a > abs(cfg.r1 - cfg.r2))
    )


class TestValidate:
    def test_intersecting(self):
        assert validate(ScenarioConfig(2, 3, 2)) is Ordering.INTERSECTING_ABCD

    def test_disjoint(self):
        assert validate(ScenarioConfig(5, 2, 2)) is Ordering.DISJOINT_ACBD

    def test_externally_tangent(self):
        assert validate(ScenarioConfig(2, 2, 2)) is Ordering.EXTERNALLY_TANGENT

    @pytest.mark.parametrize(
        "a,r1,r2",
        [(0, 1, 1), (-2, 3, 2), (2, 0, 1), (2, 3, -1), (1, 5, 1), (1, 1, 3), (1, 4, 2)],
    )
    def test_rejections(self, a, r1, r2):
        with pytest.raises(InvalidScenario):
            validate(ScenarioConfig(a, r1, r2))


class TestDerive:
    def test_worked_scene(self):
        scene = derive(ScenarioConfig(2, 3, 2))
        assert scene.A == Point2(-5, 0)
        assert scene.B == Point2(0, 0)
        assert scene.C == Point2(1, 0)
        assert scene.D == Point2(4, 0)
        assert scene.radical_axis_x == F(5, 8)

    def test_tangent_keeps_b_equal_c(self):
        scene = derive(ScenarioConfig(1, 1, 1))
        assert scene.A == Point2(-2, 0)
        assert scene.B == scene.C == Point2(0, 0)
        assert scene.D == Point2(2, 0)

    def test_symmetric_disjoint(self):
        scene = derive(ScenarioConfig(5, 2, 2))
        assert (scene.A, scene.C, scene.B, scene.D) == (
            Point2(-7, 0), Point2(-3, 0), Point2(3, 0), Point2(7, 0)
        )
        assert scene.radical_axis_x == 0

    def test_containment_rejected(self):
        with pytest.raises(InvalidScenario):
            derive(ScenarioConfig(1, 5, 1))

    @given(admissible_configs())
    def test_axis_points_on_circles_and_axis(self, cfg):
        scene = derive(cfg)
        assert circle_contains(scene.k1, scene.A) and circle_contains(scene.k1, scene.C)
        assert circle_contains(scene.k2, scene.B) and circle_contains(scene.k2, scene.D)
        for point in (scene.A, scene.B, scene.C, scene.D):
            assert Line(0, 1, 0).contains(point)

    @given(admissible_configs())
    def test_ordering_matches_point_order(self, cfg):
        scene = derive(cfg)
        ordering = validate(cfg)
        if ordering is Ordering.INTERSECTING_ABCD:
            assert scene.A.x < scene.B.x < scene.C.x < scene.D.x
        elif ordering is Ordering.DISJOINT_ACBD:
            assert scene.A.x < scene.C.x < scene.B.x < scene.D.x
        else:
            assert scene.B == scene.C

    @given(admissible_configs())
    def test_radical_axis_agrees_with_kernel(self, cfg):
        scene = derive(cfg)
        assert radical_axis(scene.k1, scene.k2) == Line(1, 0, -scene.radical_axis_x)
        z = Point2(scene.radical_axis_x, 0)
        assert power_of_point(scene.k1, z) == power_of_point(scene.k2, z)


class TestParseScenario:
    def test_whitespace_form(self):
        assert parse_scenario("2 3 2") == ScenarioConfig(2, 3, 2)
        assert parse_scenario("  1/2\t3/4  0.25 ") == ScenarioConfig(F(1, 2), F(3, 4), F(1, 4))

    def test_json_form(self):
        text = '{"a": "2", "r1": "3", "r2": "2"}'
        assert parse_scenario(text) == ScenarioConfig(2, 3, 2)
        text = '{"a": 2.00000000000000001, "r1": 3, "r2": 0.5}'
        assert parse_scenario(text) == ScenarioConfig(F(200000000000000001, 10**17), 3, F(1, 2))

    def test_json_rejects_wrong_keys(self):
        with pytest.raises(ParseError):
            parse_scenario('{"a": "2", "r1": "3"}')
        with pytest.raises(ParseError):
            parse_scenario('{"a": "2", "r1": "3", "r2": "2", "x": "1"}')

    @pytest.mark.parametrize("text", [
        '{"a": 2, "r1": 3, "r2": 2, "a": 5}',
        '{"a": "2", "a": "2", "r1": "3", "r2": "2"}',
        '{"a": {"x": 1, "x": 2}, "r1": 3, "r2": 2}',
    ], ids=["last-wins", "same-value", "nested"])
    def test_json_rejects_repeated_keys(self, text):
        # json.loads alone keeps the last value of a repeated key.
        with pytest.raises(ParseError, match="repeats the key"):
            parse_scenario(text)

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_scenario("2 3")
        with pytest.raises(ParseError):
            parse_scenario("2 3 2 1")

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_scenario("{not json")
        with pytest.raises(ParseError):
            parse_scenario('{"a": 1e400, "r1": 3, "r2": 2}')


# Reference versions of validate and derive: the Fraction formulas the
# integer versions replaced.

def ref_validate(cfg):
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    if a <= 0:
        raise InvalidScenario(f"a must be positive, got {a}")
    if r1 <= 0:
        raise InvalidScenario(f"r1 must be positive, got {r1}")
    if r2 <= 0:
        raise InvalidScenario(f"r2 must be positive, got {r2}")
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


def ref_derive(cfg):
    ordering = ref_validate(cfg)
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    radical_x = (r1 * r1 - r2 * r2) / (4 * a)
    return DerivedScene(
        cfg=cfg,
        ordering=ordering,
        k1=Circle(Point2(-a, 0), r1),
        k2=Circle(Point2(a, 0), r2),
        A=Point2(-a - r1, 0),
        B=Point2(a - r2, 0),
        C=Point2(r1 - a, 0),
        D=Point2(a + r2, 0),
        radical_axis_x=radical_x,
    )


def outcome(fn, *args):
    """The result of fn, or the type and message of the InvalidScenario it raised."""
    try:
        return fn(*args)
    except InvalidScenario as exc:
        return InvalidScenario, str(exc)


def scene_fields(scene):
    points = (scene.k1.center, scene.k2.center, scene.A, scene.B, scene.C, scene.D)
    values = [scene.k1.radius, scene.k2.radius, scene.radical_axis_x]
    return values + [v for point in points for v in (point.x, point.y)]


TALL = 10**50
# Small heights as in the fuzz oracle, and ~50-digit numerators and denominators.
SCENARIO_INPUTS = {
    "small": (
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        positives,
    ),
    "tall": (
        st.builds(F, st.integers(-TALL, TALL), st.integers(TALL // 10, TALL)),
        st.builds(F, st.integers(1, TALL), st.integers(TALL // 10, TALL)),
    ),
}


def scenario_configs(height):
    """Any signs, positive values, and externally tangent circles."""
    values, radius = SCENARIO_INPUTS[height]
    tangent = st.builds(
        lambda a, r1: ScenarioConfig(a + r1, 2 * r1, 2 * a), radius, radius
    )
    return st.one_of(
        st.builds(ScenarioConfig, values, values, values),
        st.builds(ScenarioConfig, radius, radius, radius),
        tangent,
    )


@pytest.mark.parametrize("height", sorted(SCENARIO_INPUTS))
class TestScenarioMatchesReference:
    def test_validate(self, height):
        @given(scenario_configs(height))
        def check(cfg):
            assert outcome(validate, cfg) == outcome(ref_validate, cfg)

        check()

    def test_derive(self, height):
        @given(scenario_configs(height))
        def check(cfg):
            scene = outcome(derive, cfg)
            assert scene == outcome(ref_derive, cfg)
            if isinstance(scene, DerivedScene):
                assert all(type(value) is F for value in scene_fields(scene))

        check()

    def test_kernel_form(self, height):
        @given(scenario_configs(height))
        def check(cfg):
            scene = outcome(derive, cfg)
            if not isinstance(scene, DerivedScene):
                return
            conics = (_conic(scene.k1), _conic(scene.k2))
            triples = tuple(_triple(point) for point in (scene.A, scene.B, scene.C, scene.D))
            hand_built = ref_derive(cfg)
            for built in (scene, hand_built):
                assert built._conics == conics and built._triples == triples
            # The kernel form takes no part in repr, equality or hash.
            names = [f.name for f in fields(DerivedScene) if f.init]
            values = ", ".join(f"{name}={getattr(scene, name)!r}" for name in names)
            assert repr(scene) == f"DerivedScene({values})"
            object.__setattr__(hand_built, "_triples", ())
            assert hand_built == scene and hash(hand_built) == hash(scene)

        check()
