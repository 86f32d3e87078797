"""Scenario validation, derivation, and the probe line."""

import copy
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bicircle import (
    DerivedScene,
    GeometryError,
    InvalidScenario,
    Line,
    Ordering,
    ParseError,
    Point2,
    ProbePoint,
    ScenarioConfig,
    derive,
    image_closed_form,
    parse_scenario,
    validate,
)
from bicircle.exact import _conic, _triple
from bicircle.scenario import _frame
from reference import circle_contains, circles, line, line_contains, power_of_point, radical_axis

positives = st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20)


# DerivedScene's fields, in order: its repr, equality and hash read them.
DERIVED_FIELDS = ("cfg", "ordering", "A", "B", "C", "D", "radical_axis_x")
COPIES = pytest.mark.parametrize("make", [
    copy.copy,
    copy.deepcopy,
    lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])


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


@pytest.mark.parametrize("sides", [(2, 3, 2), (F(5, 2), F(7, 3), F(3, 4)), (0, 1, 1), (1, 5, 1)],
                         ids=["worked", "fractions", "sign", "nested"])
@COPIES
def test_copies_carry_a_fresh_frame(make, sides):
    """A config made from another has the frame of a fresh config equal to it."""
    made = make(ScenarioConfig(*sides))
    fresh = ScenarioConfig(made.a, made.r1, made.r2)
    assert made._frame == fresh._frame
    assert outcome(validate, made) == outcome(validate, fresh)


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

    def test_scenes_come_only_from_derive(self):
        # A hand-built scene could hold views that disagree with its kernel
        # form, and an empty one would have no fields at all.
        values = dict(ref_derive(ScenarioConfig(2, 3, 2)), A=Point2(99, 0), ordering=Ordering.DISJOINT_ACBD)
        for kwargs in (values, {}):
            with pytest.raises(TypeError, match="comes only from derive"):
                DerivedScene(**kwargs)

    @COPIES
    def test_copies_keep_the_kernel_form(self, make):
        scene = derive(ScenarioConfig(F(5, 2), F(7, 3), F(3, 4)))
        made = make(scene)
        assert type(made) is DerivedScene and made is not scene
        assert (made._conics, made._triples) == (scene._conics, scene._triples)
        assert made.cfg._frame == scene.cfg._frame
        assert made == scene and hash(made) == hash(scene) and repr(made) == repr(scene)

    @given(admissible_configs())
    def test_axis_points_on_circles_and_axis(self, cfg):
        scene, (k1, k2) = derive(cfg), circles(cfg)
        assert circle_contains(k1, scene.A) and circle_contains(k1, scene.C)
        assert circle_contains(k2, scene.B) and circle_contains(k2, scene.D)
        for point in (scene.A, scene.B, scene.C, scene.D):
            assert line_contains(Line(0, 1, 0), point)

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
        scene, (k1, k2) = derive(cfg), circles(cfg)
        assert radical_axis(k1, k2) == line(1, 0, -scene.radical_axis_x)
        z = Point2(scene.radical_axis_x, 0)
        assert power_of_point(k1, z) == power_of_point(k2, z)


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

    @pytest.mark.parametrize("text", ['{"a": "٢", "r1": "3", "r2": "2"}', '{"a": "2", "r1": "\\u0663", "r2": "2"}',
                                      "٢ 3 2"], ids=["json", "json-escape", "whitespace"])
    def test_ascii_digits_only(self, text):
        with pytest.raises(ParseError, match="not a rational literal"):
            parse_scenario(text)

    @pytest.mark.parametrize("text", ["2\u00a03 2", "\u00a02 3 2", "2 3\u20282"],
                             ids=["no-break-space", "leading", "line-separator"])
    def test_ascii_whitespace_only(self, text):
        # str.split() would read each of these as the three values 2, 3, 2.
        with pytest.raises(ParseError):
            parse_scenario(text)
        assert parse_scenario("\v2\f3\r\n2\t") == ScenarioConfig(2, 3, 2)

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
    """The field values of derive(cfg), by name."""
    ordering = ref_validate(cfg)
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    radical_x = (r1 * r1 - r2 * r2) / (4 * a)
    return dict(
        cfg=cfg,
        ordering=ordering,
        A=Point2(-a - r1, 0),
        B=Point2(a - r2, 0),
        C=Point2(r1 - a, 0),
        D=Point2(a + r2, 0),
        radical_axis_x=radical_x,
    )


def derived_fields(cfg):
    """The field values of derive(cfg), by name, as ref_derive gives them."""
    scene = derive(cfg)
    return {name: getattr(scene, name) for name in DERIVED_FIELDS}


def outcome(fn, *args):
    """The result of fn, or the type and message of the GeometryError it raised."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def scene_fields(scene):
    points = (scene.A, scene.B, scene.C, scene.D)
    return [scene.radical_axis_x] + [v for point in points for v in (point.x, point.y)]


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
            assert outcome(derived_fields, cfg) == outcome(ref_derive, cfg)
            scene = outcome(derive, cfg)
            if isinstance(scene, DerivedScene):
                assert all(type(value) is F for value in scene_fields(scene))

        check()

    def test_kernel_form(self, height):
        @given(scenario_configs(height))
        def check(cfg):
            scene = outcome(derive, cfg)
            if not isinstance(scene, DerivedScene):
                return
            expected = ref_derive(cfg)
            assert scene._conics == tuple(map(_conic, circles(cfg)))
            assert scene._triples == tuple(_triple(expected[name]) for name in "ABCD")
            # The kernel form takes no part in repr, equality or hash.
            values = ", ".join(f"{name}={getattr(scene, name)!r}" for name in DERIVED_FIELDS)
            assert repr(scene) == f"DerivedScene({values})"
            twin = derive(ScenarioConfig(cfg.a, cfg.r1, cfg.r2))
            repr(twin)  # builds the views from the kernel form first
            object.__setattr__(twin, "_conics", ())
            object.__setattr__(twin, "_triples", ())
            assert twin == scene and hash(twin) == hash(scene)

        check()

    def test_conics_are_canonical(self, height):
        # Each circle has one conic, primitive with s > 0, so derive's equals
        # _conic of the view because the conic is unique. The example's
        # circles are x² + y² ± x = 0.
        @given(scenario_configs(height))
        @example(ScenarioConfig("1/2", "1/2", "1/2"))
        def check(cfg):
            scene = outcome(derive, cfg)
            if not isinstance(scene, DerivedScene):
                return
            for conic, circle in zip(scene._conics, circles(cfg)):
                assert gcd(*conic) == 1 and conic[0] > 0
                assert _conic(circle) == conic

        check()

    def test_stored_integers(self, height):
        values, _ = SCENARIO_INPUTS[height]

        # line picks the probe line: free, through B, through C or the radical axis.
        @given(scenario_configs(height), st.sampled_from(range(4)), values, st.one_of(values, st.just(F(0))))
        def check(cfg, line, p, q):
            scene = outcome(derive, cfg)
            if not isinstance(scene, DerivedScene):
                return
            # cfg, already derived, gives what an equal fresh config gives.
            fresh = ScenarioConfig(cfg.a, cfg.r1, cfg.r2)
            assert _frame(cfg) == _frame(fresh)
            p = (p, scene.B.x, scene.C.x, scene.radical_axis_x)[line]
            probe = ProbePoint(p, q)
            assert outcome(image_closed_form, cfg, probe) == outcome(image_closed_form, fresh, probe)

        check()
