"""The probe-to-image construction: both routes, degeneracies, and properties."""

import hashlib
import random
import sys
import threading
from fractions import Fraction as F
from types import SimpleNamespace

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
    InvalidScenario,
    Line,
    Ordering,
    Point2,
    ProbePoint,
    RenderSpec,
    ScenarioConfig,
    WrongOrdering,
    classify_case,
    construct_image,
    derive,
    image_closed_form,
    layout,
    locus_x,
    random_probe,
    random_rational,
    random_scenario,
    render_svg,
    run_oracle_fuzz,
    tangent_half_params,
    trial_rng,
    validate,
    verify_concurrency,
)
from bicircle import cli, construction, exact, scenario
from reference import (
    at_infinity,
    calls_made,
    circles,
    collinear_det,
    finite,
    line_direction,
    param_point,
    power_of_point,
    ref_line_through,
    ref_meet,
    ref_second_intersection,
    ref_tangent_at,
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
        assert construct_image(derive(WORKED), ProbePoint(2, 1)).M == Point2(-2, -3)

    def test_worked_n(self):
        assert construct_image(derive(WORKED), ProbePoint(2, 1)).N == Point2(F(16, 5), F(8, 5))

    def test_axis_probe_sends_m_to_a_and_n_to_d(self):
        scene = derive(WORKED)
        assert construct_image(scene, ProbePoint(3, 0)).M == scene.A
        assert construct_image(scene, ProbePoint(3, 0)).N == scene.D

    def test_tangent_chords_return_base(self):
        scene = derive(WORKED)
        assert construct_image(scene, ProbePoint(1, 5)).M == scene.C
        assert construct_image(scene, ProbePoint(0, 7)).N == scene.B

    def test_degenerate_probes(self):
        scene = derive(WORKED)
        with pytest.raises(DegenerateProbe):
            construct_image(scene, ProbePoint(1, 0)).M
        with pytest.raises(DegenerateProbe):
            construct_image(scene, ProbePoint(0, 0)).N


class TestConstructImage:
    def test_worked_case(self):
        result = construct_image(derive(WORKED), ProbePoint(2, 1))
        assert result.M == Point2(-2, -3)
        assert result.N == Point2(F(16, 5), F(8, 5))
        assert result.line_am == Line(1, 1, 5)
        assert result.line_dn == Line(2, 1, -8)
        assert result.p_prime == finite(Point2(13, -18))

    def test_probe_on_axis_goes_to_infinity(self):
        scene = derive(WORKED)
        result = construct_image(scene, ProbePoint(3, 0))
        assert result.p_prime == ExtendedPoint(0, 1, 0)
        # the limiting lines are the vertical tangents at A and D
        assert result.line_am == Line(1, 0, 5)
        assert result.line_dn == Line(1, 0, -4)

    def test_tangent_circles_parallel_lines(self):
        result = construct_image(derive(TANGENT), ProbePoint(1, 1))
        assert not result.p_prime.is_finite
        assert line_direction(result.line_am) == line_direction(result.line_dn)
        assert result.line_am != result.line_dn

    def test_tangent_circles_probe_above_contact(self):
        # Both chords are tangent at B = C, so AM and DN collapse onto the
        # axis; the image recedes along the axis direction.
        result = construct_image(derive(TANGENT), ProbePoint(0, 3))
        assert result.M == result.N == Point2(0, 0)
        assert result.p_prime == ExtendedPoint(1, 0, 0)
        assert image_closed_form(TANGENT, ProbePoint(0, 3)) == result.p_prime

    def test_collapse_to_a(self):
        scene = derive(WORKED)
        for q in (F(1), F(-7), F(2, 3)):
            result = construct_image(scene, ProbePoint(0, q))
            assert result.p_prime == finite(scene.A)

    def test_collapse_to_d(self):
        scene = derive(WORKED)
        for q in (F(1), F(-7), F(2, 3)):
            result = construct_image(scene, ProbePoint(1, q))
            assert result.p_prime == finite(scene.D)

    def test_degenerate_probe(self):
        with pytest.raises(DegenerateProbe):
            construct_image(derive(WORKED), ProbePoint(1, 0))


class TestClosedForm:
    def test_worked_case(self):
        assert image_closed_form(WORKED, ProbePoint(2, 1)) == finite(
            Point2(13, -18)
        )

    def test_collapse_cases(self):
        assert image_closed_form(WORKED, ProbePoint(0, 5)) == finite(
            Point2(-5, 0)
        )
        assert image_closed_form(WORKED, ProbePoint(1, F(-3, 7))) == finite(
            Point2(4, 0)
        )

    def test_axis_probe(self):
        assert image_closed_form(WORKED, ProbePoint(9, 0)) == ExtendedPoint(0, 1, 0)

    def test_tangent_scenario(self):
        value = image_closed_form(TANGENT, ProbePoint(1, 1))
        assert value == ExtendedPoint(1, -1, 0)

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
        assert tangent_half_params(derive(WORKED), ProbePoint(2, 1)) == (-1, F(1, 2))

    def test_axis_probe(self):
        u, v = tangent_half_params(derive(WORKED), ProbePoint(3, 0))
        assert u is INFINITY and v == 0

    def test_tangent_at_c(self):
        u, v = tangent_half_params(derive(WORKED), ProbePoint(1, 2))
        assert u == 0

    def test_indeterminate_on_c(self):
        with pytest.raises(DegenerateProbe):
            tangent_half_params(derive(WORKED), ProbePoint(1, 0))

    def test_indeterminate_on_b(self):
        with pytest.raises(DegenerateProbe):
            tangent_half_params(derive(WORKED), ProbePoint(0, 0))

    @given(configs, rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_consistent_with_chord_points(self, cfg, p, q):
        scene = derive(cfg)
        probe = probe_for(scene, p, q)
        u, v = tangent_half_params(scene, probe)
        k1, k2 = circles(cfg)
        assert param_point(k1, u) == construct_image(scene, probe).M
        assert param_point(k2, v) == construct_image(scene, probe).N


class TestVerifyConcurrency:
    def test_worked_scenario(self):
        assert verify_concurrency(derive(WORKED), [F(1), F(2), F(-3), F(1, 7)])

    def test_default_samples(self):
        assert verify_concurrency(derive(WORKED), DEFAULT_Q_SAMPLES)

    def test_disjoint_rejected(self):
        with pytest.raises(WrongOrdering):
            verify_concurrency(derive(ScenarioConfig(5, 2, 2)), [1])

    def test_tangent_rejected(self):
        with pytest.raises(WrongOrdering):
            verify_concurrency(derive(TANGENT), [1])

    def test_empty_samples_rejected(self):
        # An empty sample list would check nothing and pass vacuously.
        with pytest.raises(ValueError, match="at least one q sample"):
            verify_concurrency(derive(WORKED), [])
        with pytest.raises(ValueError, match="at least one q sample"):
            verify_concurrency(derive(WORKED), iter(()))

    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError):
            verify_concurrency(derive(WORKED), [0])

    @pytest.mark.parametrize("samples", ["12", b"12", bytearray(b"12"), "1/2"],
                             ids=["str", "bytes", "bytearray", "fraction-str"])
    def test_text_samples_rejected(self, samples):
        # "12" passed as one q = 1 and one q = 2, and b"12" as q = 49 and q = 50.
        with pytest.raises(TypeError, match="q_samples"):
            verify_concurrency(derive(WORKED), samples)

    def test_rational_strings_accepted(self):
        assert verify_concurrency(derive(WORKED), ["1", "-3", "1/7"])

    def test_image_off_the_radical_axis_fails(self, monkeypatch):
        # P' one unit right of the radical axis for the last sample only:
        # every sample's image is read, not just the first.
        construct = construction.construct_image

        def moved(scene, probe):
            point = construct(scene, probe).p_prime.point
            shift = probe.q == DEFAULT_Q_SAMPLES[-1]
            return SimpleNamespace(p_prime=finite(Point2(point.x + shift, point.y)))

        monkeypatch.setattr(construction, "construct_image", moved)
        assert verify_concurrency(derive(WORKED), DEFAULT_Q_SAMPLES[:-1]) is True
        assert verify_concurrency(derive(WORKED), DEFAULT_Q_SAMPLES) is False


class TestSeededTrials:
    def test_fuzz_clean_and_reproducible(self):
        first = run_oracle_fuzz(trials=120, seed=360)
        second = run_oracle_fuzz(trials=120, seed=360)
        assert first == second
        assert first.failures == ()

    def test_negative_trials_rejected(self):
        # range(-3) is empty: the run would check nothing and report clean.
        with pytest.raises(ValueError, match="at least 0"):
            run_oracle_fuzz(trials=-3)

    def test_negative_seed_rejected(self):
        # random.Random seeds from abs(seed): seed -5 would replay seed 5's trials,
        # and index -1 of seed 0 would replay index 1.
        for seed, index in ((-5, 0), (0, -1)):
            with pytest.raises(ValueError, match="seed and index must be at least 0"):
                trial_rng(seed, index)
        # run_oracle_fuzz checks the seed itself, so a run of no trials is refused too.
        for trials in (1, 0):
            with pytest.raises(ValueError, match="seed must be at least 0"):
                run_oracle_fuzz(trials=trials, seed=-5)

    def test_bool_seed_rejected(self):
        # bool subclasses int: trial_rng(True, False) would replay trial_rng(1, 0).
        with pytest.raises(TypeError, match="seed and index must be ints, got True and False"):
            trial_rng(True, False)

    def test_bool_trials_rejected(self):
        # run_oracle_fuzz(True, 360) would run one trial and report trials=True.
        with pytest.raises(TypeError, match="trials and seed must be ints, got True and 360"):
            run_oracle_fuzz(True, 360)

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

    def test_random_probe_rejects_base_points_on_integers(self):
        # Each draw pair (n, d) gives (n - 50)/(d + 1): the probes (0, 0) = B and
        # (1, 0) = C of WORKED are redrawn, and (0, 1) is returned.
        draws = iter([50, 0, 50, 0, 51, 0, 50, 0, 50, 0, 51, 0])
        scene = derive(WORKED)
        probe = random_probe(SimpleNamespace(getrandbits=lambda bits: next(draws)), scene)
        assert probe == ProbePoint(0, 1)
        assert not {"B", "C"} & set(vars(scene))

    def test_random_rational_keeps_the_rng_stream(self):
        def reference(rng):
            return F(rng.randint(-50, 50), rng.randint(1, 20))

        for seed in range(3000):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_rational(rng) == reference(ref_rng)
            assert rng.getstate() == ref_rng.getstate()

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

    def test_rational_table(self):
        table = construction._rationals()
        assert len(table) == 101 and {len(row) for row in table} == {20}
        for n, row in enumerate(table):
            for d, value in enumerate(row):
                assert type(value) is F and value == F(n - 50, d + 1)

    def test_rational_table_built_once(self):
        construction._rationals.cache_clear()
        assert fractions_built(construction._rationals) == 2020
        assert fractions_built(construction._rationals) == 0

    def test_random_scenario_keeps_a_fresh_configs_frame(self):
        # A config of shared table values has the frame of an equal config of
        # fresh Fractions: reduced numerators over the product of the reduced
        # denominators, not the raw draws.
        for seed in range(3000):
            cfg = random_scenario(random.Random(seed))
            fresh = ScenarioConfig(F(str(cfg.a)), F(str(cfg.r1)), F(str(cfg.r2)))
            assert scenario._frame(cfg) == scenario._frame(fresh)


def worked_spec(clip):
    """The render spec of the worked case, probe (2, 1), at the default canvas."""
    scene, probe = derive(WORKED), ProbePoint(2, 1)
    return RenderSpec(scene=scene, probe=probe, result=construct_image(scene, probe), clip=clip)


def fractions_built(fn, *args):
    """Count Fraction.__new__ calls made while fn runs."""
    return calls_made(F.__new__, fn, *args)


def frames_computed(fn, *args, caller=None):
    """Count scenario._order calls made while fn runs, or only those caller makes.

    ScenarioConfig's constructor orders its values once, to write its frame.
    Nothing else orders a scenario.
    """
    return calls_made(scenario._order, fn, *args, caller=caller)


class TestWorkCount:
    """Fraction objects built per call: exact counts, the same on any machine.

    The kernel and the scenario layer build each Fraction of a result once,
    and an ExtendedPoint holds integers, so meet and image_closed_form build
    none; construct_image chains integer triples and its Fraction views are
    built only when read, so it builds none either. On the worked case
    construct_image, derive and image_closed_form build 0 and locus_x 2.
    run_oracle_fuzz(20, 360) builds 0 once the table of the 2,020 values a
    draw can take is built. render_svg on the worked case builds 3 with or
    without clipping, the scale, tx and ty of layout: layout finds its
    bounds on integer pairs, and render_svg clips, places markers and writes
    coordinates on integer triples and draws the radical axis and the image
    line from the config's frame.

    The scene's conics and axis-point triples are built once, by derive,
    straight from _frame's integers: derive calls Point2.__init__ and
    Circle.__init__ 0 times. construct_image calls _conic 0 times, and
    construct_image and render_svg each call _triple once, for P: on probe.p
    and probe.q, building no Point2. layout reads P from probe.p and probe.q
    too. A config computes its frame once, in its constructor, and no later
    call orders it again. A fuzz trial computes one frame per config
    random_scenario builds, and derive, image_closed_form and, on a draw
    with q = 0, random_probe's _image_map read the one it returns.
    classify_case builds 0 on probes on B, C and the radical axis, since it
    compares p with them on the frame's integers.

    construct_image runs exact._chain once, on every probe and in every
    fuzz trial, and _chain calls _second twice and _axis_join twice. The
    chain joins A and D to the raw triples of M and N, and construct_image
    builds one ExtendedPoint, P′; m and n are built when read. It calls
    Line.__init__ 0 times: AM and DN take their content from one two-term
    gcd (exact._axis_join), which also gives the vertical tangents at A and
    D for a probe on the axis, so construct_image calls _polar only in the
    two _second calls. random_scenario calls _order and _frame 0 times
    itself: it builds a ScenarioConfig for each attempt with three positive
    numerators, whose constructor orders it, and returns the first with an
    ordering.
    """

    def test_construct_image_worked_case(self):
        scene, probe = derive(WORKED), ProbePoint(2, 1)
        assert fractions_built(construct_image, scene, probe) <= 0

    def test_derive_worked_case(self):
        assert fractions_built(derive, WORKED) <= 0

    @pytest.mark.parametrize("target", [Point2.__init__, exact.Circle.__init__], ids=["point", "circle"])
    def test_derive_builds_no_views(self, target):
        assert calls_made(target, derive, WORKED) == 0

    def test_image_closed_form_worked_case(self):
        assert fractions_built(image_closed_form, WORKED, ProbePoint(2, 1)) <= 0

    def test_locus_x_worked_case(self):
        assert fractions_built(locus_x, WORKED, 2) <= 2

    def test_oracle_fuzz(self):
        construction._rationals()  # the table of draws, built once per process
        assert fractions_built(run_oracle_fuzz, 20, 360) == 0

    @pytest.mark.parametrize("p", [0, 1, F(5, 8)], ids=["B", "C", "radical-axis"])
    def test_classify_case_on_special_lines(self, p):
        assert fractions_built(classify_case, WORKED, ProbePoint(p, 0)) <= 0

    def test_oracle_fuzz_checks_each_scenario_once(self):
        # Every _order call of a trial is made while sampling, by the constructor of a
        # config random_scenario builds: the 20 it returns and 6 it rejects.
        sampled = sum(frames_computed(random_scenario, trial_rng(360, i)) for i in range(20))
        assert frames_computed(run_oracle_fuzz, 20, 360) == sampled == 26
        assert frames_computed(run_oracle_fuzz, 20, 360, caller=ScenarioConfig.__init__) == 26

    def test_construct_image_builds_no_line(self):
        for probe in ProbePoint(2, 1), ProbePoint(3, 0):  # off and on the axis
            assert calls_made(Line.__init__, construct_image, derive(WORKED), probe) == 0

    def test_construct_image_polars_only_for_second_points(self):
        # Two polars for M and N; the tangents at A and D of an axis probe take none.
        assert calls_made(exact._polar, construct_image, derive(WORKED), ProbePoint(3, 0)) == 2

    def test_construct_image_runs_the_chain_once(self):
        # Off the axis, on it, and for tangent circles over B = C, where AM = DN.
        for cfg, probe in (WORKED, ProbePoint(2, 1)), (WORKED, ProbePoint(3, 0)), (TANGENT, ProbePoint(0, 1)):
            assert calls_made(exact._chain, construct_image, derive(cfg), probe) == 1
        assert construct_image(derive(TANGENT), ProbePoint(0, 1)).p_prime == ExtendedPoint(1, 0, 0)
        scene, probe = derive(WORKED), ProbePoint(2, 1)
        for step in exact._second, exact._axis_join:
            assert calls_made(step, construct_image, scene, probe, caller=exact._chain) == 2
        assert calls_made(exact._chain, run_oracle_fuzz, 20, 360) == 20

    def test_construct_image_builds_one_extended_point(self):
        scene, probe = derive(WORKED), ProbePoint(2, 1)
        assert calls_made(ExtendedPoint.__init__, construct_image, scene, probe) == 1

    def test_random_scenario_admits_on_integers(self):
        def sign_passing(rng):
            """How many attempts have three positive values, up to the first admissible one."""
            passed = 0
            while True:
                values = random_rational(rng), random_rational(rng), random_rational(rng)
                if min(values) > 0:
                    passed += 1
                    try:
                        validate(ScenarioConfig(*values))
                    except InvalidScenario:
                        continue
                    return passed

        built = 0
        for seed in range(20):
            assert calls_made(scenario._frame, random_scenario, random.Random(seed)) == 0
            assert frames_computed(random_scenario, random.Random(seed), caller=random_scenario) == 0
            configs = calls_made(ScenarioConfig.__init__, random_scenario, random.Random(seed))
            assert configs == sign_passing(random.Random(seed))
            built += configs
        # Some seeds reject a sign-passing attempt before the one returned.
        assert built > 20

    @pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
    def test_render_svg_worked_case(self, clip):
        spec = worked_spec(clip)
        assert fractions_built(render_svg, spec) <= 3  # layout's scale, tx and ty

    @pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
    def test_layout_worked_case(self, clip):
        spec = worked_spec(clip)
        assert fractions_built(layout, spec) <= 3  # scale, tx and ty

    @pytest.mark.parametrize("target, calls", [(exact._conic, 0), (exact._triple, 1)], ids=["conic", "triple"])
    def test_construct_image_reads_the_kernel_form(self, target, calls):
        scene, probe = derive(WORKED), ProbePoint(2, 1)
        assert calls_made(target, construct_image, scene, probe) == calls  # P's triple, once
        assert calls_made(Point2.__init__, construct_image, scene, probe) == 0  # from p and q

    @pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
    def test_render_svg_reads_the_kernel_form(self, clip):
        spec = worked_spec(clip)
        assert calls_made(exact._conic, render_svg, spec) == 0
        assert calls_made(exact._triple, render_svg, spec) == 1  # P's triple, once
        assert calls_made(Point2.__init__, render_svg, spec) == 0  # from p and q


@pytest.mark.parametrize("cfg", [ScenarioConfig(2, 3, 2), ScenarioConfig(2, 2, 2)])
class TestOneCheckPerCall:
    """Each config's frame, its check and conversion in one pass, is computed once, by its constructor."""

    def test_derive(self, cfg):
        assert frames_computed(derive, cfg) == 0

    def test_image_closed_form(self, cfg):
        assert frames_computed(image_closed_form, cfg, ProbePoint(2, 1)) == 0

    def test_locus_x(self, cfg):
        assert frames_computed(locus_x, cfg, 2) == 0

    @pytest.mark.parametrize("fn, args", [
        (validate, ()), (image_closed_form, (ProbePoint(2, 1),)), (locus_x, (2,)),
        (classify_case, (ProbePoint(2, 1),)),
    ], ids=["validate", "image_closed_form", "locus_x", "classify_case"])
    def test_none_after_derive(self, cfg, fn, args):
        derive(cfg)
        assert frames_computed(fn, cfg, *args) == 0

    @pytest.mark.parametrize("command", ["compute", "locus", "classify", "verify"])
    def test_cli(self, cfg, command):
        probe = {"locus": ["--p", "2"], "verify": []}.get(command, ["--p", "2", "--q", "1"])
        argv = [command, *scenario_argv(cfg), *probe]
        assert frames_computed(cli.main, argv) == 1
        assert frames_computed(cli.main, argv, caller=ScenarioConfig.__init__) == 1

    def test_cli_render(self, cfg, tmp_path):
        out = str(tmp_path / "figure.svg")
        argv = ["render", *scenario_argv(cfg), "--p", "2", "--q", "1", "--out", out]
        # render_svg draws the circles, radical axis and image line from the frame.
        assert frames_computed(cli.main, argv) == 1
        assert frames_computed(cli.main, argv, caller=ScenarioConfig.__init__) == 1


@pytest.mark.parametrize("sides, message", [
    ((0, 1, 1), "a must be positive, got 0"),
    ((1, 5, 1), "one circle contains or internally touches the other (2a <= |r1 - r2|)"),
], ids=["sign", "nested"])
def test_invalid_config_caches_nothing(sides, message):
    """An invalid config raises the same InvalidScenario on every call."""
    cfg = ScenarioConfig(*sides)
    probe = ProbePoint(2, 1)
    for check, args in ((validate, ()), (derive, ()), (image_closed_form, (probe,)), (locus_x, (2,)),
                        (classify_case, (probe,)), (validate, ())):
        with pytest.raises(InvalidScenario) as caught:
            check(cfg, *args)
        assert str(caught.value) == message


def test_shared_configs_across_threads():
    """Threads that read the same configs at once all get the serial results."""
    sides = [(F(a, 3), F(r1, 2), F(r2, 5)) for a in range(1, 6) for r1 in range(1, 6) for r2 in range(1, 6)]
    sides = [s for s in sides if 2 * s[0] > abs(s[1] - s[2])]
    probe = ProbePoint(F(1, 3), 2)

    def results(configs):
        return [(validate(c), image_closed_form(c, probe), locus_x(c, probe.p), classify_case(c, probe))
                for c in configs]

    expected = results([ScenarioConfig(*s) for s in sides])
    shared = [ScenarioConfig(*s) for s in sides]
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: seen.append(results(shared))) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert seen == [expected] * 4
    assert all(c._frame == ScenarioConfig(*s)._frame for c, s in zip(shared, sides))


def scenario_argv(cfg):
    return ["--a", str(cfg.a), "--r1", str(cfg.r1), "--r2", str(cfg.r2)]


# Reference versions of image_closed_form and locus_x: the Fraction formulas
# the integer versions replaced.

def ref_image_closed_form(cfg, probe):
    ordering = validate(cfg)
    a, r1, r2 = cfg.a, cfg.r1, cfg.r2
    p, q = probe.p, probe.q
    if q == 0 and (p == a - r2 or p == r1 - a):
        raise DegenerateProbe(f"probe {probe.point} coincides with a chord base point")
    if ordering is Ordering.EXTERNALLY_TANGENT:
        return at_infinity(q, (a - r2) - p)
    if q == 0:
        return ExtendedPoint(0, 1, 0)
    den = r1 + r2 - 2 * a
    p_im = (r2 * r2 - r1 * r1 + p * (r1 + r2 + 2 * a)) / den
    q_im = ((r1 + r2 + 2 * a) * (a - r1 + p) * (a - r2 - p)) / (q * den)
    return finite(Point2(p_im, q_im))


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


# Reference version of construct_image: the Fraction construction that the
# chain of integer triples replaced, with the Fraction kernel formulas of
# reference.py.

def ref_classify(scene, probe):
    flags = set()
    if probe.q == 0:
        flags.add(CaseFlag.PROBE_ON_AXIS)
    if probe.p == scene.B.x:
        flags.add(CaseFlag.COLLAPSES_TO_A)
    if probe.p == scene.C.x:
        flags.add(CaseFlag.COLLAPSES_TO_D)
    if scene.ordering is Ordering.EXTERNALLY_TANGENT:
        flags.add(CaseFlag.TOUCHING_CIRCLES)
    if probe.p == scene.radical_axis_x:
        flags.add(CaseFlag.ON_RADICAL_AXIS)
    return frozenset(flags or {CaseFlag.GENERIC})


def ref_construct_image(scene, probe):
    """The fields (M, N, line_am, line_dn, p_prime, flags), by Fraction formulas."""
    point = probe.point
    if point == scene.C:
        raise DegenerateProbe("probe coincides with C; chord CP is undefined")
    k1, k2 = circles(scene.cfg)
    m = ref_second_intersection(k1, scene.C, point)
    if point == scene.B:
        raise DegenerateProbe("probe coincides with B; chord BP is undefined")
    n = ref_second_intersection(k2, scene.B, point)
    line_am = ref_tangent_at(k1, scene.A) if m == scene.A else ref_line_through(scene.A, m)
    line_dn = ref_tangent_at(k2, scene.D) if n == scene.D else ref_line_through(scene.D, n)
    # Parallel or coincident lines: ref_meet sends the image along their direction.
    return m, n, line_am, line_dn, ref_meet(line_am, line_dn), ref_classify(scene, probe)


def image_fields(scene, probe):
    result = construct_image(scene, probe)
    flags = classify_case(scene.cfg, probe)
    return result.M, result.N, result.line_am, result.line_dn, result.p_prime, flags


# Each degenerate stratum is built directly: the probe is put on it, never
# drawn in the hope of landing there.
STRATA = ("generic", "q = 0", "p = B.x", "p = C.x", "radical axis", "tangent", "tangent, p = B.x = C.x")


def stratum_case(stratum, r1, r2, gap, p, q):
    """A scene and probe in the stratum, from two radii, a positive gap and a free probe."""
    if stratum.startswith("tangent"):
        cfg = ScenarioConfig((r1 + r2) / 2, r1, r2)  # r1 + r2 = 2a
    else:
        cfg = ScenarioConfig((abs(r1 - r2) + gap) / 2, r1, r2)  # 2a > |r1 - r2|
    scene = derive(cfg)
    p = {
        "p = B.x": scene.B.x,
        "p = C.x": scene.C.x,
        "radical axis": scene.radical_axis_x,
        "tangent, p = B.x = C.x": scene.B.x,
    }.get(stratum, p)
    return scene, ProbePoint(p, F(0) if stratum == "q = 0" else q)


def seeded_value(rng, height, positive):
    """A seeded value within the bounds of CLOSED_FORM_INPUTS[height]: a radius if positive."""
    if height == "small":
        d = rng.randint(1, 20)
        return F(rng.randint(1 if positive else -50 * d, 50 * d), d)
    return F(rng.randint(1 if positive else -TALL, TALL), rng.randint(TALL // 10, TALL))


def encoded(value):
    """One closed-form outcome as text: flags in CaseFlag order, an error as its type and message."""
    if isinstance(value, frozenset):
        return ",".join(flag.value for flag in CaseFlag if flag in value)
    if isinstance(value, tuple) and isinstance(value[0], type):
        return f"{value[0].__name__}: {value[1]}"
    return repr(value)


def stratum_cases(seed, draws=6):
    """Seeded scenes and probes of every stratum and height: each drawn probe, then its q = 0 twin."""
    rng = random.Random(seed)
    for height in sorted(CLOSED_FORM_INPUTS):
        for stratum in STRATA:
            for _ in range(draws):
                r1, r2, gap = (seeded_value(rng, height, True) for _ in range(3))
                p, q = seeded_value(rng, height, False), seeded_value(rng, height, False)
                scene, probe = stratum_case(stratum, r1, r2, gap, p, q)
                yield scene, probe
                yield scene, ProbePoint(probe.p, 0)


def closed_form_corpus(seed, draws=6):
    """The closed-form readers on seeded cases of every stratum and height, one line per case.

    The stratum cases come first, then one config with a nonpositive value
    and one with nested circles.
    """
    cases = [(scene.cfg, probe) for scene, probe in stratum_cases(seed, draws)]
    cases += [(ScenarioConfig(0, 1, 1), ProbePoint(2, 1)), (ScenarioConfig(1, 5, 1), ProbePoint(2, 1))]
    return "\n".join(" | ".join(encoded(value) for value in (
        outcome(classify_case, cfg, probe),
        outcome(image_closed_form, cfg, probe),
        outcome(locus_x, cfg, probe.p),
        outcome(lambda: tangent_half_params(derive(cfg), probe)),
    )) for cfg, probe in cases).encode()


# SHA-256 of closed_form_corpus(seed), recorded at a5fbbfb, before
# image_closed_form, locus_x, classify_case and tangent_half_params read one
# integer image map; re-recorded when tangent_half_params took
# image_closed_form's DegenerateProbe for a probe on B or C, which changed
# only its column.
CLOSED_FORM_CORPUS = {
    360: "dda4159caa2904b7fb3f96bbf72b6aacb2db0ea937a30cba079145802826752a",
    2408: "da831cce8206674ce83f810ea1279435f65b08999fb8284f2707eb48e48efbb2",
}


@pytest.mark.parametrize("seed", sorted(CLOSED_FORM_CORPUS))
def test_closed_form_corpus_frozen(seed):
    assert hashlib.sha256(closed_form_corpus(seed)).hexdigest() == CLOSED_FORM_CORPUS[seed]


def refusal(fn, *args):
    """The type and message of the GeometryError that fn raises, or None."""
    try:
        fn(*args)
    except GeometryError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", sorted(CLOSED_FORM_CORPUS))
def test_tangent_half_params_refuses_as_closed_form(seed):
    # Both read a probe on B or C from the same _image_map factors: one condition, one error.
    cases = list(stratum_cases(seed))
    closed = [refusal(image_closed_form, scene.cfg, probe) for scene, probe in cases]
    assert [refusal(tangent_half_params, scene, probe) for scene, probe in cases] == closed
    assert any(closed)


def assert_matches_reference(scene, probe):
    fields = outcome(image_fields, scene, probe)
    assert fields == outcome(ref_construct_image, scene, probe)
    if fields[0] is DegenerateProbe:
        return
    m, n, line_am, line_dn, _, _ = fields
    assert all(type(v) is F for v in (m.x, m.y, n.x, n.y))
    assert all(type(v) is F for line in (line_am, line_dn) for v in (line.a, line.b, line.c))


class TestConstructImageMatchesReference:
    @pytest.mark.parametrize("height", sorted(CLOSED_FORM_INPUTS))
    def test_every_field(self, height):
        values, radius = CLOSED_FORM_INPUTS[height]

        @given(st.sampled_from(STRATA), radius, radius, radius, values, values)
        @settings(max_examples=300, deadline=None)
        def check(stratum, r1, r2, gap, p, q):
            assert_matches_reference(*stratum_case(stratum, r1, r2, gap, p, q))

        check()

    @pytest.mark.parametrize("height", sorted(CLOSED_FORM_INPUTS))
    def test_lazy_chord_points(self, height):
        values, radius = CLOSED_FORM_INPUTS[height]

        @given(st.sampled_from(STRATA), radius, radius, radius, values, values)
        @settings(max_examples=200, deadline=None)
        def check(stratum, r1, r2, gap, p, q):
            scene, probe = stratum_case(stratum, r1, r2, gap, p, q)
            assume(probe.point != scene.B and probe.point != scene.C)
            first, second = construct_image(scene, probe), construct_image(scene, probe)
            assert "m" not in vars(first) and "n" not in vars(first)
            # Equality and hash read m and n like the other fields.
            assert first == second and hash(first) == hash(second)
            (k1, k2), (_, b, c, _) = scene._conics, scene._triples
            xyw = exact._triple(probe.p, probe.q)
            assert first.m == ExtendedPoint(*exact._second(k1, c, xyw))
            assert first.n == ExtendedPoint(*exact._second(k2, b, xyw))
            assert first.m is first.m and first.n is first.n
            u, v = tangent_half_params(scene, probe)
            circle1, circle2 = circles(scene.cfg)
            assert first.M == param_point(circle1, u) and first.N == param_point(circle2, v)

        check()

    @pytest.mark.parametrize("height", sorted(CLOSED_FORM_INPUTS))
    def test_axis_join_normalizes_as_line(self, height):
        values, radius = CLOSED_FORM_INPUTS[height]

        @given(st.sampled_from(STRATA), radius, radius, radius, values, values)
        @settings(max_examples=200, deadline=None)
        def check(stratum, r1, r2, gap, p, q):
            scene, probe = stratum_case(stratum, r1, r2, gap, p, q)
            (k1, k2), (a, b, c, d) = scene._conics, scene._triples
            assert a[0] < 0 < d[0]
            xyw = exact._triple(probe.p, probe.q)
            for k, base, point in ((k1, a, exact._second(k1, c, xyw)), (k2, d, exact._second(k2, b, xyw))):
                cross, line = exact._cross(base, point), exact._axis_join(base, point)
                assert type(line) is Line
                if any(cross):
                    assert line.coefficients == Line(*cross).coefficients
                else:  # the probe is on the axis, or is the chord's base: the tangent at base
                    assert line.coefficients == Line(*exact._polar(k, base)).coefficients

        check()

    @pytest.mark.parametrize("stratum", STRATA)
    def test_stratum_reached(self, stratum):
        scene, probe = stratum_case(stratum, F(3), F(2), F(3), F(2), F(1))
        assert_matches_reference(scene, probe)
        result = construct_image(scene, probe)
        expected = {
            "generic": CaseFlag.GENERIC,
            "q = 0": CaseFlag.PROBE_ON_AXIS,
            "p = B.x": CaseFlag.COLLAPSES_TO_A,
            "p = C.x": CaseFlag.COLLAPSES_TO_D,
            "radical axis": CaseFlag.ON_RADICAL_AXIS,
            "tangent": CaseFlag.TOUCHING_CIRCLES,
            "tangent, p = B.x = C.x": CaseFlag.COLLAPSES_TO_A,
        }[stratum]
        assert expected in classify_case(scene.cfg, probe)
        # Only the probe over B = C makes AM and DN coincide.
        assert (result.line_am == result.line_dn) == (stratum == "tangent, p = B.x = C.x")

    @pytest.mark.parametrize("stratum", STRATA)
    def test_no_classification(self, stratum):
        scene, probe = stratum_case(stratum, F(3), F(2), F(3), F(2), F(1))
        assert calls_made(classify_case, construct_image, scene, probe) == 0
        # The synthetic route is the oracle for the closed form, so it never reads it.
        assert calls_made(construction._image_map, construct_image, scene, probe) == 0

    def test_concurrency_check_reads_no_closed_form(self):
        scene = derive(WORKED)
        assert scene.ordering is Ordering.INTERSECTING_ABCD
        assert calls_made(construction._image_map, verify_concurrency, scene, DEFAULT_Q_SAMPLES) == 0

    @pytest.mark.parametrize("cfg, p", [(WORKED, 0), (WORKED, 1), (TANGENT, 0)])
    def test_probe_on_a_base_point(self, cfg, p):
        # B = (0, 0) and C = (1, 0) in WORKED; B = C = (0, 0) in TANGENT.
        scene, probe = derive(cfg), ProbePoint(p, 0)
        with pytest.raises(DegenerateProbe):
            construct_image(scene, probe)
        assert_matches_reference(scene, probe)

    def test_results_compare_by_their_points(self):
        # Probes on the axis all send M to A and N to D, from raw triples of different scale.
        scene = derive(WORKED)
        first = construct_image(scene, ProbePoint(3, 0))
        second = construct_image(scene, ProbePoint(5, 0))
        assert first._m != second._m
        assert first == second and hash(first) == hash(second)
        assert first.M == scene.A and first.N == scene.D

    def test_views_are_lazy_and_cached(self):
        result = construct_image(derive(WORKED), ProbePoint(2, 1))
        assert "point" not in vars(result.m) and "_fractions" not in vars(result.line_am)
        assert result.M is result.M and result.line_am.b is result.line_am.b


# The image map as one value: p' - p* = α·(p - p*) about the radical axis
# x = p*, and q·q' = κ(p). Both follow from the closed form; here they are
# checked on each route by itself.
MAP_STRATA = ("generic", "p = B.x", "p = C.x", "radical axis")


@pytest.mark.parametrize("height", sorted(CLOSED_FORM_INPUTS))
class TestImageMapIdentities:
    def test_construct_image_inverts_q_through_kappa(self, height):
        values, radius = CLOSED_FORM_INPUTS[height]

        @given(st.sampled_from(MAP_STRATA), radius, radius, radius, values, values.filter(bool))
        @settings(max_examples=200, deadline=None)
        def check(stratum, r1, r2, gap, p, q):
            scene, probe = stratum_case(stratum, r1, r2, gap, p, q)
            assume(scene.ordering is not Ordering.EXTERNALLY_TANGENT)
            result = construct_image(scene, probe)
            assert result.p_prime.is_finite
            a, r1, r2, p = scene.cfg.a, scene.cfg.r1, scene.cfg.r2, probe.p
            kappa = (r1 + r2 + 2 * a) * (a - r1 + p) * (a - r2 - p) / (r1 + r2 - 2 * a)
            assert probe.q * result.p_prime.point.y == kappa

        check()

    def test_map_integers_at_the_line_scale(self, height):
        # Only u and v take the common denominator e = d·pd; x, w and s stay at
        # the frame's scale, so p' = x/w carries no spare factor of pd.
        values, radius = CLOSED_FORM_INPUTS[height]
        strata = MAP_STRATA + ("tangent", "tangent, p = B.x = C.x")

        @given(st.sampled_from(strata), radius, radius, radius, values)
        @settings(max_examples=200, deadline=None)
        def check(stratum, r1, r2, gap, p):
            scene, probe = stratum_case(stratum, r1, r2, gap, p, F(1))
            cfg, p = scene.cfg, probe.p
            _, d, a, r1, r2 = scenario._frame(cfg)
            e, x, w, s, u, v = construction._image_map(cfg, p)
            assert e == d * p.denominator
            assert s == r1 + r2 + 2 * a and w == e * (r1 + r2 - 2 * a)
            assert u == (a - r1) * p.denominator + p.numerator * d
            assert v == (a - r2) * p.denominator - p.numerator * d
            if w:
                a, r1, r2 = cfg.a, cfg.r1, cfg.r2
                kappa = (r1 + r2 + 2 * a) * (a - r1 + p) * (a - r2 - p) / (r1 + r2 - 2 * a)
                assert F(x, w) == ref_locus_x(cfg, p) and F(s * u * v, e * w) == kappa
            else:
                assert (x == 0) == (p == scene.radical_axis_x)

        check()

    def test_locus_x_dilates_about_the_radical_axis(self, height):
        values, radius = CLOSED_FORM_INPUTS[height]

        @given(st.sampled_from(MAP_STRATA), radius, radius, radius, values)
        @settings(max_examples=200, deadline=None)
        def check(stratum, r1, r2, gap, p):
            scene, probe = stratum_case(stratum, r1, r2, gap, p, F(1))
            assume(scene.ordering is not Ordering.EXTERNALLY_TANGENT)
            a, r1, r2, p = scene.cfg.a, scene.cfg.r1, scene.cfg.r2, probe.p
            p_star = (r1 * r1 - r2 * r2) / (4 * a)
            alpha = (r1 + r2 + 2 * a) / (r1 + r2 - 2 * a)
            assert locus_x(scene.cfg, p) - p_star == alpha * (p - p_star)

        check()

    def test_radical_axis_probe_inverts_q_in_the_power_of_its_foot(self, height):
        # On x = p*, q·q' = κ(p*) = −pow(Z) for Z = (p*, 0): the inversion in the
        # circle through the common points, or an anti-inversion for disjoint circles.
        values, radius = CLOSED_FORM_INPUTS[height]

        @given(radius, radius, radius, values.filter(bool))
        @settings(max_examples=200, deadline=None)
        def check(r1, r2, gap, q):
            scene, probe = stratum_case("radical axis", r1, r2, gap, F(0), q)
            assume(scene.ordering is not Ordering.EXTERNALLY_TANGENT)
            z = Point2(probe.p, 0)
            k1, k2 = circles(scene.cfg)
            assert power_of_point(k1, z) == power_of_point(k2, z)
            image = construct_image(scene, probe).p_prime.point
            assert image.x == probe.p and probe.q * image.y == -power_of_point(k1, z)

        check()
