"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every equality here is exact (Fraction == Fraction); the only tolerances are
the stated runtime budgets and the 1e-6 model-unit bound for coordinates
parsed back out of rendered SVG text.
"""

import functools
import json
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from bicircle import (
    DEFAULT_Q_SAMPLES,
    INFINITY,
    Circle,
    ExtendedPoint,
    InvalidScenario,
    Ordering,
    Point2,
    ProbePoint,
    RenderSpec,
    ScenarioConfig,
    construct_image,
    derive,
    image_closed_form,
    locus_x,
    random_probe,
    random_rational,
    random_scenario,
    render_svg,
    run_oracle_fuzz,
    second_intersection,
    tangent_at,
    validate,
    verify_concurrency,
)
from reference import (
    child_env,
    circle_contains,
    circles,
    collinear_det,
    finite,
    line,
    line_direction,
    param_point,
    point_on_line,
    power_of_point,
    radical_axis,
    ref_tangent_at,
)

WORKED = ScenarioConfig(2, 3, 2)
TANGENT = ScenarioConfig(2, 2, 2)
SVG_TOLERANCE = F(1, 10**6)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number} ({title}): FAIL")
                raise
            print(f"acceptance {number} ({title}): PASS")

        return wrapper

    return decorate


def intersecting_scenario(rng):
    while True:
        cfg = random_scenario(rng)
        if validate(cfg) is Ordering.INTERSECTING_ABCD:
            return cfg


def non_tangent_scenario(rng):
    while True:
        cfg = random_scenario(rng)
        if validate(cfg) is not Ordering.EXTERNALLY_TANGENT:
            return cfg


def random_circle(rng):
    while True:
        radius = random_rational(rng)
        if radius > 0:
            return Circle(Point2(random_rational(rng), random_rational(rng)), radius)


@criterion(1, "worked-case exactness")
def test_criterion_1_worked_case():
    started = time.perf_counter()
    result = construct_image(derive(WORKED), ProbePoint(2, 1))
    elapsed = time.perf_counter() - started
    assert result.M == Point2(-2, -3)
    assert result.N == Point2(F(16, 5), F(8, 5))
    assert result.p_prime == finite(Point2(13, -18))
    assert elapsed < 1.0


@criterion(2, "oracle equivalence, 1000 seeded trials")
def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    report = run_oracle_fuzz(trials=1000, seed=360)
    elapsed = time.perf_counter() - started
    assert report.trials == 1000
    assert report.failures == ()
    assert elapsed < 5.0, f"fuzz took {elapsed:.2f}s"


@criterion(3, "image abscissa independent of q, 500 trials")
def test_criterion_3_q_independence():
    rng = random.Random(361)
    for _ in range(500):
        cfg = non_tangent_scenario(rng)
        p = random_rational(rng)
        q1 = random_rational(rng)
        q2 = random_rational(rng)
        while q1 == 0:
            q1 = random_rational(rng)
        while q2 == 0 or q2 == q1:
            q2 = random_rational(rng)
        scene = derive(cfg)
        first = construct_image(scene, ProbePoint(p, q1)).p_prime
        second = construct_image(scene, ProbePoint(p, q2)).p_prime
        assert first.is_finite and second.is_finite
        assert first.point.x == second.point.x


@criterion(4, "concurrency with the radical axis, 100 intersecting scenarios")
def test_criterion_4_original_concurrency():
    rng = random.Random(362)
    for _ in range(100):
        cfg = intersecting_scenario(rng)
        assert verify_concurrency(derive(cfg), DEFAULT_Q_SAMPLES)


@criterion(5, "radical-axis abscissa is a fixed point, 100 scenarios")
def test_criterion_5_radical_axis_fixed_point():
    rng = random.Random(363)
    for _ in range(100):
        cfg = non_tangent_scenario(rng)
        rx = derive(cfg).radical_axis_x
        assert locus_x(cfg, rx) == rx


class TestCriterion6SpecialCases:
    @criterion("6i", "probe on axis sends the image to infinity")
    def test_axis_probe(self):
        rng = random.Random(364)
        cases = [(WORKED, F(3)), (WORKED, F(-9)), (ScenarioConfig(5, 2, 2), F(1))]
        for _ in range(10):
            cfg = random_scenario(rng)
            scene = derive(cfg)
            p = random_rational(rng)
            if p in (scene.B.x, scene.C.x):
                continue
            cases.append((cfg, p))
        for cfg, p in cases:
            scene = derive(cfg)
            result = construct_image(scene, ProbePoint(p, 0))
            assert result.p_prime == ExtendedPoint(0, 1, 0)
            assert result.line_am == line(1, 0, -scene.A.x)
            assert result.line_dn == line(1, 0, -scene.D.x)
            assert image_closed_form(cfg, ProbePoint(p, 0)) == result.p_prime

    @criterion("6ii", "probe lines through B and C collapse the image to A and D")
    def test_collapses(self):
        rng = random.Random(365)
        for _ in range(25):
            cfg = non_tangent_scenario(rng)
            scene = derive(cfg)
            q = random_rational(rng)
            while q == 0:
                q = random_rational(rng)
            to_a = ProbePoint(scene.B.x, q)
            to_d = ProbePoint(scene.C.x, q)
            assert construct_image(scene, to_a).p_prime == finite(scene.A)
            assert image_closed_form(cfg, to_a) == finite(scene.A)
            assert construct_image(scene, to_d).p_prime == finite(scene.D)
            assert image_closed_form(cfg, to_d) == finite(scene.D)

    @criterion("6iii", "touching circles keep AM and DN parallel, 50 probes")
    def test_touching_parallel(self):
        rng = random.Random(366)
        scene = derive(TANGENT)
        for _ in range(50):
            probe = random_probe(rng, scene)
            result = construct_image(scene, probe)
            assert not result.p_prime.is_finite
            assert line_direction(result.line_am) == line_direction(result.line_dn)
            assert image_closed_form(TANGENT, probe) == result.p_prime

    @criterion("6iv", "containment scenario is rejected")
    def test_containment_rejected(self):
        with pytest.raises(InvalidScenario):
            validate(ScenarioConfig(1, 5, 1))
        with pytest.raises(InvalidScenario):
            derive(ScenarioConfig(1, 5, 1))


class TestCriterion7KernelProperties:
    @criterion("7a", "param_point lands on the circle and tangent_at accepts it, 200 parameters")
    def test_param_point(self):
        rng = random.Random(367)
        for index in range(200):
            k = random_circle(rng)
            t = INFINITY if index % 10 == 0 else random_rational(rng)
            point = param_point(k, t)
            assert circle_contains(k, point)
            assert tangent_at(k, point) == ref_tangent_at(k, point)

    @criterion("7b", "second_intersection stays on circle and chord, 200 trials")
    def test_second_intersection(self):
        rng = random.Random(368)
        trials = 0
        while trials < 200:
            k = random_circle(rng)
            t = INFINITY if trials % 9 == 0 else random_rational(rng)
            base = param_point(k, t)
            through = Point2(random_rational(rng), random_rational(rng))
            if through == base:
                continue
            other = second_intersection(k, base, through)
            assert circle_contains(k, other)
            assert collinear_det(base, through, other) == 0
            trials += 1

    @criterion("7c", "equal powers on the radical axis, 100 scenarios")
    def test_radical_axis_powers(self):
        rng = random.Random(369)
        for _ in range(100):
            k1, k2 = circles(random_scenario(rng))
            axis = radical_axis(k1, k2)
            for t in (random_rational(rng), random_rational(rng) + 61):
                sample = point_on_line(axis, t)
                assert power_of_point(k1, sample) == power_of_point(k2, sample)


def _figure_specs():
    def with_probe(cfg, p, q):
        scene = derive(cfg)
        probe = ProbePoint(p, q)
        return RenderSpec(scene=scene, probe=probe, result=construct_image(scene, probe))

    return {
        "generic": with_probe(WORKED, 2, 1),
        "axis-probe": with_probe(WORKED, 3, 0),
        "touching": with_probe(TANGENT, 1, 1),
    }


def _svg_elements(svg, tag=None, cls=None):
    for el in ET.fromstring(svg).iter():
        if tag and el.tag.split("}")[-1] != tag:
            continue
        if cls and cls not in el.get("class", "").split():
            continue
        yield el


@criterion(8, "render determinism, element presence, coordinate round-trip")
def test_criterion_8_render():
    specs = _figure_specs()
    for spec in specs.values():
        assert render_svg(spec).encode() == render_svg(spec).encode()

    generic = render_svg(specs["generic"])
    assert len(list(_svg_elements(generic, tag="circle", cls="circle-k1"))) == 1
    assert len(list(_svg_elements(generic, tag="circle", cls="circle-k2"))) == 1
    (rad,) = _svg_elements(generic, cls="radical-axis")
    assert "stroke-dasharray" in rad.attrib
    labels = {el.text for el in _svg_elements(generic, tag="text", cls="point-label")}
    assert {"A", "B", "C", "D", "P", "M", "N", "P′"} <= labels

    spec = specs["generic"]
    scene = spec.scene
    expected_markers = {
        "A": scene.A, "B": scene.B, "C": scene.C, "D": scene.D,
        "P": Point2(spec.probe.p, spec.probe.q), "M": spec.result.M, "N": spec.result.N,
        "P′": spec.result.p_prime.point,
    }
    for cls, circle in zip(("circle-k1", "circle-k2"), circles(scene.cfg)):
        (el,) = _svg_elements(generic, tag="circle", cls=cls)
        assert abs(F(el.get("cx")) - circle.center.x) < SVG_TOLERANCE
        assert abs(F(el.get("cy")) + circle.center.y) < SVG_TOLERANCE
        assert abs(F(el.get("r")) - circle.radius) < SVG_TOLERANCE
    markers = {
        el.get("data-name"): el
        for el in _svg_elements(generic, tag="circle", cls="point-marker")
    }
    for name, point in expected_markers.items():
        el = markers[name]
        assert abs(F(el.get("cx")) - point.x) < SVG_TOLERANCE
        assert abs(F(el.get("cy")) + point.y) < SVG_TOLERANCE

    axis_style = render_svg(specs["axis-probe"])
    assert not any(
        el.get("data-name") == "P′"
        for el in _svg_elements(axis_style, tag="circle", cls="point-marker")
    )
    (caption,) = _svg_elements(axis_style, cls="caption")
    assert caption.text == "P′ at infinity"


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bicircle", *args], capture_output=True, text=True, env=child_env()
    )


@criterion(9, "CLI contract and fuzz reproducibility")
def test_criterion_9_cli():
    compute = _cli("compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2", "--q", "1")
    assert compute.returncode == 0
    assert json.loads(compute.stdout)["Pprime"] == {"finite": ["13", "-18"]}

    locus = _cli("locus", "--a", "2", "--r1", "3", "--r2", "2", "--p", "5/8")
    assert locus.returncode == 0
    locus_report = json.loads(locus.stdout)
    assert locus_report["pPrime"] == "5/8"
    assert locus_report["fixedPoint"] is True

    degenerate = _cli("compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "1", "--q", "0")
    assert degenerate.returncode == 1
    assert "DegenerateProbe" in degenerate.stderr

    first = _cli("fuzz", "--trials", "300", "--seed", "360")
    second = _cli("fuzz", "--trials", "300", "--seed", "360")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout.encode() == second.stdout.encode()
    assert json.loads(first.stdout)["failures"] == 0
