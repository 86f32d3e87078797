"""The probe-to-image construction: both routes, degeneracies, and properties."""

import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicircle import (
    DEFAULT_Q_SAMPLES,
    INFINITY,
    CaseFlag,
    DegenerateProbe,
    ExtendedPoint,
    GeometryError,
    IndeterminateParam,
    InvalidScenario,
    Line,
    Ordering,
    Point2,
    ProbePoint,
    ScenarioConfig,
    WrongOrdering,
    classify_case,
    collinear_det,
    construct_image,
    construct_m,
    construct_n,
    derive,
    image_closed_form,
    locus_x,
    param_point,
    random_probe,
    random_rational,
    random_scenario,
    run_oracle_fuzz,
    tangent_half_params,
    trial_rng,
    validate,
    verify_concurrency,
)

WORKED = ScenarioConfig(2, 3, 2)
TANGENT = ScenarioConfig(2, 2, 2)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
positives = st.fractions(min_value=F(1, 20), max_value=50, max_denominator=20)
configs = (
    st.builds(ScenarioConfig, positives, positives, positives)
    .filter(lambda cfg: 2 * cfg.a > abs(cfg.r1 - cfg.r2))
)


def probe_for(scene, p, q):
    probe = ProbePoint(p, q)
    assume(probe.point != scene.B and probe.point != scene.C)
    return probe


class TestChordPoints:
    def test_worked_m(self):
        assert construct_m(derive(WORKED), ProbePoint(2, 1)) == Point2(-2, -3)

    def test_worked_n(self):
        assert construct_n(derive(WORKED), ProbePoint(2, 1)) == Point2(F(16, 5), F(8, 5))

    def test_axis_probe_sends_m_to_a_and_n_to_d(self):
        scene = derive(WORKED)
        assert construct_m(scene, ProbePoint(3, 0)) == scene.A
        assert construct_n(scene, ProbePoint(3, 0)) == scene.D

    def test_tangent_chords_return_base(self):
        scene = derive(WORKED)
        assert construct_m(scene, ProbePoint(1, 5)) == scene.C
        assert construct_n(scene, ProbePoint(0, 7)) == scene.B

    def test_degenerate_probes(self):
        scene = derive(WORKED)
        with pytest.raises(DegenerateProbe):
            construct_m(scene, ProbePoint(1, 0))
        with pytest.raises(DegenerateProbe):
            construct_n(scene, ProbePoint(0, 0))


class TestConstructImage:
    def test_worked_case(self):
        result = construct_image(derive(WORKED), ProbePoint(2, 1))
        assert result.M == Point2(-2, -3)
        assert result.N == Point2(F(16, 5), F(8, 5))
        assert result.line_am == Line(1, 1, 5)
        assert result.line_dn == Line(2, 1, -8)
        assert result.p_prime == ExtendedPoint.finite(Point2(13, -18))
        assert result.flags == frozenset({CaseFlag.GENERIC})

    def test_probe_on_axis_goes_to_infinity(self):
        scene = derive(WORKED)
        result = construct_image(scene, ProbePoint(3, 0))
        assert result.p_prime == ExtendedPoint.at_infinity(0, 1)
        # the limiting lines are the vertical tangents at A and D
        assert result.line_am == Line(1, 0, 5)
        assert result.line_dn == Line(1, 0, -4)

    def test_tangent_circles_parallel_lines(self):
        result = construct_image(derive(TANGENT), ProbePoint(1, 1))
        assert not result.p_prime.is_finite
        assert result.line_am.direction == result.line_dn.direction
        assert result.line_am != result.line_dn

    def test_tangent_circles_probe_above_contact(self):
        # Both chords are tangent at B = C, so AM and DN collapse onto the
        # axis; the image recedes along the axis direction.
        result = construct_image(derive(TANGENT), ProbePoint(0, 3))
        assert result.M == result.N == Point2(0, 0)
        assert result.p_prime == ExtendedPoint.at_infinity(1, 0)
        assert image_closed_form(TANGENT, ProbePoint(0, 3)) == result.p_prime

    def test_collapse_to_a(self):
        scene = derive(WORKED)
        for q in (F(1), F(-7), F(2, 3)):
            result = construct_image(scene, ProbePoint(0, q))
            assert result.p_prime == ExtendedPoint.finite(scene.A)

    def test_collapse_to_d(self):
        scene = derive(WORKED)
        for q in (F(1), F(-7), F(2, 3)):
            result = construct_image(scene, ProbePoint(1, q))
            assert result.p_prime == ExtendedPoint.finite(scene.D)

    def test_degenerate_probe(self):
        with pytest.raises(DegenerateProbe):
            construct_image(derive(WORKED), ProbePoint(1, 0))


class TestClosedForm:
    def test_worked_case(self):
        assert image_closed_form(WORKED, ProbePoint(2, 1)) == ExtendedPoint.finite(
            Point2(13, -18)
        )

    def test_collapse_cases(self):
        assert image_closed_form(WORKED, ProbePoint(0, 5)) == ExtendedPoint.finite(
            Point2(-5, 0)
        )
        assert image_closed_form(WORKED, ProbePoint(1, F(-3, 7))) == ExtendedPoint.finite(
            Point2(4, 0)
        )

    def test_axis_probe(self):
        assert image_closed_form(WORKED, ProbePoint(9, 0)) == ExtendedPoint.at_infinity(0, 1)

    def test_tangent_scenario(self):
        value = image_closed_form(TANGENT, ProbePoint(1, 1))
        assert value == ExtendedPoint.at_infinity(1, -1)

    def test_degenerate_probe(self):
        with pytest.raises(DegenerateProbe):
            image_closed_form(WORKED, ProbePoint(0, 0))

    @given(configs, rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_oracle_equivalence(self, cfg, p, q):
        scene = derive(cfg)
        probe = probe_for(scene, p, q)
        assert construct_image(scene, probe).p_prime == image_closed_form(cfg, probe)

    @given(configs, rationals, rationals, rationals)
    @settings(max_examples=150, deadline=None)
    def test_q_independence(self, cfg, p, q1, q2):
        assume(validate(cfg) is not Ordering.EXTERNALLY_TANGENT)
        assume(q1 != 0 and q2 != 0 and q1 != q2)
        first = image_closed_form(cfg, ProbePoint(p, q1))
        second = image_closed_form(cfg, ProbePoint(p, q2))
        assert first.is_finite and second.is_finite
        assert first.point.x == second.point.x

    @given(configs, rationals, rationals)
    @settings(max_examples=150, deadline=None)
    def test_image_abscissa_is_locus_x(self, cfg, p, q):
        assume(q != 0)
        image = image_closed_form(cfg, ProbePoint(p, q))
        if image.is_finite:
            assert image.point.x == locus_x(cfg, p)
        else:
            assert locus_x(cfg, p) is INFINITY

    @given(configs, rationals, rationals)
    @settings(max_examples=150, deadline=None)
    def test_collinearity_witnesses(self, cfg, p, q):
        scene = derive(cfg)
        probe = probe_for(scene, p, q)
        result = construct_image(scene, probe)
        assert collinear_det(probe.point, scene.C, result.M) == 0
        assert collinear_det(probe.point, scene.B, result.N) == 0
        if result.p_prime.is_finite:
            image = result.p_prime.point
            assert collinear_det(image, scene.A, result.M) == 0
            assert collinear_det(image, scene.D, result.N) == 0


class TestLocusX:
    def test_worked_value(self):
        assert locus_x(WORKED, 2) == 13

    def test_radical_axis_fixed_point(self):
        assert locus_x(WORKED, F(5, 8)) == F(5, 8)

    def test_tangent_scenario_infinite(self):
        assert locus_x(TANGENT, 12) is INFINITY
        assert locus_x(TANGENT, F(-3, 7)) is INFINITY

    @given(configs)
    def test_fixed_point_is_radical_axis(self, cfg):
        assume(validate(cfg) is not Ordering.EXTERNALLY_TANGENT)
        rx = derive(cfg).radical_axis_x
        assert locus_x(cfg, rx) == rx


class TestClassify:
    def test_on_radical_axis(self):
        assert classify_case(WORKED, ProbePoint(F(5, 8), 3)) == frozenset(
            {CaseFlag.ON_RADICAL_AXIS}
        )

    def test_probe_on_axis(self):
        assert classify_case(WORKED, ProbePoint(7, 0)) == frozenset(
            {CaseFlag.PROBE_ON_AXIS}
        )

    def test_everything_at_once(self):
        assert classify_case(TANGENT, ProbePoint(0, 0)) == frozenset(
            {
                CaseFlag.PROBE_ON_AXIS,
                CaseFlag.COLLAPSES_TO_A,
                CaseFlag.COLLAPSES_TO_D,
                CaseFlag.TOUCHING_CIRCLES,
                CaseFlag.ON_RADICAL_AXIS,
            }
        )

    def test_generic(self):
        assert classify_case(WORKED, ProbePoint(2, 1)) == frozenset({CaseFlag.GENERIC})


class TestTangentHalfParams:
    def test_worked_case(self):
        assert tangent_half_params(WORKED, ProbePoint(2, 1)) == (-1, F(1, 2))

    def test_axis_probe(self):
        u, v = tangent_half_params(WORKED, ProbePoint(3, 0))
        assert u is INFINITY and v == 0

    def test_tangent_at_c(self):
        u, v = tangent_half_params(WORKED, ProbePoint(1, 2))
        assert u == 0

    def test_indeterminate_on_c(self):
        with pytest.raises(IndeterminateParam):
            tangent_half_params(WORKED, ProbePoint(1, 0))

    def test_indeterminate_on_b(self):
        with pytest.raises(IndeterminateParam):
            tangent_half_params(WORKED, ProbePoint(0, 0))

    @given(configs, rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_consistent_with_chord_points(self, cfg, p, q):
        scene = derive(cfg)
        probe = probe_for(scene, p, q)
        u, v = tangent_half_params(cfg, probe)
        assert param_point(scene.k1, u) == construct_m(scene, probe)
        assert param_point(scene.k2, v) == construct_n(scene, probe)


class TestVerifyConcurrency:
    def test_worked_scenario(self):
        assert verify_concurrency(WORKED, [F(1), F(2), F(-3), F(1, 7)])

    def test_default_samples(self):
        assert verify_concurrency(WORKED, DEFAULT_Q_SAMPLES)

    def test_disjoint_rejected(self):
        with pytest.raises(WrongOrdering):
            verify_concurrency(ScenarioConfig(5, 2, 2), [1])

    def test_tangent_rejected(self):
        with pytest.raises(WrongOrdering):
            verify_concurrency(TANGENT, [1])

    def test_vacuous(self):
        assert verify_concurrency(WORKED, [])

    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError):
            verify_concurrency(WORKED, [0])


class TestSeededTrials:
    def test_fuzz_clean_and_reproducible(self):
        first = run_oracle_fuzz(trials=120, seed=360)
        second = run_oracle_fuzz(trials=120, seed=360)
        assert first == second
        assert first.failures == ()

    def test_trial_streams_are_independent(self):
        assert trial_rng(360, 0).random() != trial_rng(360, 1).random()

    def test_random_scenario_is_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            validate(random_scenario(rng))

    def test_random_probe_avoids_base_points(self):
        rng = random.Random(11)
        for _ in range(50):
            scene = derive(random_scenario(rng))
            probe = random_probe(rng, scene)
            assert probe.point != scene.B and probe.point != scene.C

    def test_random_scenario_keeps_the_rng_stream(self):
        def reference(rng):
            while True:
                cfg = ScenarioConfig(
                    random_rational(rng), random_rational(rng), random_rational(rng)
                )
                try:
                    validate(cfg)
                except InvalidScenario:
                    continue
                return cfg

        for seed in range(3000):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert random_scenario(rng) == reference(ref_rng)
            assert rng.getstate() == ref_rng.getstate()

    def test_random_probe_keeps_the_rng_stream(self):
        rejected = set()

        def reference(rng, scene):
            while True:
                probe = ProbePoint(random_rational(rng), random_rational(rng))
                if probe.point != scene.B and probe.point != scene.C:
                    return probe
                rejected.add((scene.ordering, probe.point == scene.B, probe.point == scene.C))

        scenes = [derive(WORKED), derive(TANGENT)]
        for seed in range(3000):
            scene = scenes[seed % 2]
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(10):
                probe = random_probe(rng, scene)
                assert probe == reference(ref_rng, scene)
                assert type(probe.p) is F and type(probe.q) is F
            assert rng.getstate() == ref_rng.getstate()
        # The streams reach a draw on B alone, on C alone, and on B = C.
        assert rejected == {
            (Ordering.INTERSECTING_ABCD, True, False),
            (Ordering.INTERSECTING_ABCD, False, True),
            (Ordering.EXTERNALLY_TANGENT, True, True),
        }


def fractions_built(fn, *args):
    """Count Fraction.__new__ calls made while fn runs, with a profile hook."""
    code = F.__new__.__code__
    built = 0

    def hook(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is code:
            built += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return built


class TestWorkCount:
    """Fraction objects built per call: exact counts, the same on any machine.

    The kernel and the scenario layer build each Fraction of a result once.
    Measured on the worked case: construct_image builds 10 (87 with the
    Fraction kernel), derive 6 (30 with Fraction formulas), image_closed_form
    2 (29) and locus_x 2 (19); run_oracle_fuzz(20, 360) builds 478 (4860
    before integer pre-rejection in random_scenario and the integer kernel,
    1636 before the integer scenario layer).
    """

    def test_construct_image_worked_case(self):
        scene, probe = derive(WORKED), ProbePoint(2, 1)
        assert fractions_built(construct_image, scene, probe) <= 10

    def test_derive_worked_case(self):
        assert fractions_built(derive, WORKED) <= 6

    def test_image_closed_form_worked_case(self):
        assert fractions_built(image_closed_form, WORKED, ProbePoint(2, 1)) <= 2

    def test_locus_x_worked_case(self):
        assert fractions_built(locus_x, WORKED, 2) <= 2

    def test_oracle_fuzz(self):
        assert fractions_built(run_oracle_fuzz, 20, 360) <= 478


# Reference versions of image_closed_form and locus_x: the Fraction formulas
# the integer versions replaced.

def ref_image_closed_form(cfg, probe):
    ordering = validate(cfg)
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    p, q = probe.p, probe.q
    if q == 0 and (p == a - r2 or p == r1 - a):
        raise DegenerateProbe(f"probe {probe.point} coincides with a chord base point")
    if ordering is Ordering.EXTERNALLY_TANGENT:
        return ExtendedPoint.at_infinity(q, (a - r2) - p)
    if q == 0:
        return ExtendedPoint.at_infinity(0, 1)
    den = r1 + r2 - 2 * a
    p_im = (r2 * r2 - r1 * r1 + p * (r1 + r2 + 2 * a)) / den
    q_im = ((r1 + r2 + 2 * a) * (a - r1 + p) * (a - r2 - p)) / (q * den)
    return ExtendedPoint.finite(Point2(p_im, q_im))


def ref_locus_x(cfg, p):
    ordering = validate(cfg)
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    if ordering is Ordering.EXTERNALLY_TANGENT:
        return INFINITY
    return (r2 * r2 - r1 * r1 + p * (r1 + r2 + 2 * a)) / (r1 + r2 - 2 * a)


def outcome(fn, *args):
    """The result of fn, or the type and message of the GeometryError it raised."""
    try:
        return fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


TALL = 10**50
# Small heights as in the fuzz oracle, and ~50-digit numerators and denominators.
CLOSED_FORM_INPUTS = {
    "small": (rationals, positives),
    "tall": (
        st.builds(F, st.integers(-TALL, TALL), st.integers(TALL // 10, TALL)),
        st.builds(F, st.integers(1, TALL), st.integers(TALL // 10, TALL)),
    ),
}


@st.composite
def closed_form_inputs(draw, height):
    """A scenario (possibly invalid or tangent) and a probe, often on a special line."""
    values, radius = CLOSED_FORM_INPUTS[height]
    a, r1 = draw(radius), draw(radius)
    cfg = draw(st.sampled_from([
        ScenarioConfig(a, r1, draw(radius)),
        ScenarioConfig(draw(values), r1, draw(radius)),
        ScenarioConfig(a + r1, 2 * r1, 2 * a),  # externally tangent
    ]))
    # B.x, C.x and the radical axis, as long as a is nonzero.
    special = [cfg.a - cfg.r2, cfg.r1 - cfg.a]
    if cfg.a:
        special.append((cfg.r1 * cfg.r1 - cfg.r2 * cfg.r2) / (4 * cfg.a))
    p = draw(st.one_of(values, st.sampled_from(special)))
    q = draw(st.one_of(values, st.just(F(0))))
    return cfg, ProbePoint(p, q)


@pytest.mark.parametrize("height", sorted(CLOSED_FORM_INPUTS))
class TestClosedFormMatchesReference:
    def test_image_closed_form(self, height):
        @given(closed_form_inputs(height))
        def check(inputs):
            image = outcome(image_closed_form, *inputs)
            assert image == outcome(ref_image_closed_form, *inputs)
            if isinstance(image, ExtendedPoint):
                fields = (image.point.x, image.point.y) if image.is_finite else image.direction
                assert all(type(value) is F for value in fields)

        check()

    def test_locus_x(self, height):
        @given(closed_form_inputs(height))
        def check(inputs):
            cfg, probe = inputs
            value = outcome(locus_x, cfg, probe.p)
            assert value == outcome(ref_locus_x, cfg, probe.p)
            if not isinstance(value, tuple):
                assert value is INFINITY or type(value) is F

        check()
