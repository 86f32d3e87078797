"""The frozen value types: fields, equality, hash, repr, match patterns and start-up cost."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bicircle import (
    Circle,
    DerivedScene,
    ExtendedPoint,
    FuzzFailure,
    FuzzReport,
    ImageResult,
    Line,
    Point2,
    ProbePoint,
    RenderSpec,
    ScenarioConfig,
    construct_image,
    derive,
    layout,
)
from bicircle.figures import Viewport
from reference import child_env

GUARD = Path(__file__).with_name("startup_guard.py")


def worked_spec():
    scene, probe = derive(ScenarioConfig(2, 3, 2)), ProbePoint(2, 1)
    return RenderSpec(scene, probe, construct_image(scene, probe))


def fuzz_failure():
    return FuzzFailure(
        3, ScenarioConfig(2, 3, 2), ProbePoint(2, 1),
        ExtendedPoint(13, -18, 1), ExtendedPoint(0, 1, 0),
    )


# Each type, a maker of fresh equal values, and its fields in order.
VALUES = {
    Point2: (lambda: Point2(F(1, 2), -3), ("x", "y")),
    ExtendedPoint: (lambda: ExtendedPoint(2, -4, 6), ("x", "y", "w")),
    Line: (lambda: Line(1, 2, 3), ("coefficients",)),
    Circle: (lambda: Circle(Point2(-2, 0), 3), ("center", "radius")),
    ScenarioConfig: (lambda: ScenarioConfig(2, 3, 2), ("a", "r1", "r2")),
    DerivedScene: (
        lambda: derive(ScenarioConfig(2, 3, 2)),
        ("cfg", "ordering", "A", "B", "C", "D", "radical_axis_x"),
    ),
    ProbePoint: (lambda: ProbePoint(2, 1), ("p", "q")),
    ImageResult: (
        lambda: construct_image(derive(ScenarioConfig(2, 3, 2)), ProbePoint(2, 1)),
        ("m", "n", "line_am", "line_dn", "p_prime"),
    ),
    FuzzFailure: (fuzz_failure, ("trial", "config", "probe", "geometric", "closed_form")),
    FuzzReport: (lambda: FuzzReport(5, 360, (fuzz_failure(),)), ("trials", "seed", "failures")),
    RenderSpec: (
        worked_spec,
        ("scene", "probe", "result", "width", "height", "show_radical_axis", "labels", "clip"),
    ),
    Viewport: (lambda: layout(worked_spec()), ("width", "height", "scale", "tx", "ty")),
}
each_type = pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)


def positional(value):
    """The values that a positional class pattern of value's type binds, in order."""
    match value:
        case Point2(x, y):
            return x, y
        case ExtendedPoint(x, y, w):
            return x, y, w
        case Line(coefficients):
            return (coefficients,)
        case Circle(center, radius):
            return center, radius
        case ScenarioConfig(a, r1, r2):
            return a, r1, r2
        case DerivedScene(cfg, ordering, a, b, c, d, radical_axis_x):
            return cfg, ordering, a, b, c, d, radical_axis_x
        case ProbePoint(p, q):
            return p, q
        case ImageResult(m, n, line_am, line_dn, p_prime):
            return m, n, line_am, line_dn, p_prime
        case FuzzFailure(trial, config, probe, geometric, closed_form):
            return trial, config, probe, geometric, closed_form
        case FuzzReport(trials, seed, failures):
            return trials, seed, failures
        case RenderSpec(scene, probe, result, width, height, radical, labels, clip):
            return scene, probe, result, width, height, radical, labels, clip
        case Viewport(width, height, scale, tx, ty):
            return width, height, scale, tx, ty


class TestValueTypes:
    @each_type
    def test_fields_are_frozen(self, cls):
        make, fields = VALUES[cls]
        value = make()
        for name in (*fields, "other"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(value, name, 0)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(value, name)
        assert make() == value

    @each_type
    def test_equal_values_hash_equal(self, cls):
        make, _ = VALUES[cls]
        first, second = make(), make()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert not first != second

    @each_type
    def test_repr_lists_the_fields_in_order(self, cls):
        make, fields = VALUES[cls]
        value = make()
        values = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert repr(value) == f"{cls.__name__}({values})"

    @each_type
    def test_positional_pattern_binds_the_fields(self, cls):
        make, fields = VALUES[cls]
        value = make()
        assert cls.__match_args__ == fields
        assert positional(value) == tuple(getattr(value, name) for name in fields)

    def test_other_classes_never_compare_equal(self):
        assert Point2(2, 1) != ProbePoint(2, 1)
        assert ProbePoint(2, 1) != Point2(2, 1)
        assert Point2(2, 1) != (F(2), F(1))


class TestConstructors:
    def test_fuzz_failure_by_position_and_keyword(self):
        by_keyword = FuzzFailure(
            trial=3, config=ScenarioConfig(2, 3, 2), probe=ProbePoint(2, 1),
            geometric=ExtendedPoint(13, -18, 1), closed_form=ExtendedPoint(0, 1, 0),
        )
        assert by_keyword == fuzz_failure()

    def test_fuzz_report_by_position_and_keyword(self):
        assert FuzzReport(trials=5, seed=360, failures=()) == FuzzReport(5, 360, ())
        with pytest.raises(TypeError):
            FuzzReport(5, 360)

    def test_viewport_by_position_and_keyword(self):
        by_keyword = Viewport(width=800, height=600, scale=F(60), tx=F(400), ty=F(300))
        assert by_keyword == Viewport(800, 600, F(60), F(400), F(300))

    def test_render_spec_by_position_and_keyword(self):
        spec = worked_spec()
        options = (640, 480, False, False, True)
        by_position = RenderSpec(spec.scene, spec.probe, spec.result, *options)
        by_keyword = RenderSpec(
            scene=spec.scene, probe=spec.probe, result=spec.result, width=640, height=480,
            show_radical_axis=False, labels=False, clip=True,
        )
        assert by_position == by_keyword
        assert positional(by_keyword)[3:] == options

    def test_render_spec_defaults(self):
        spec = worked_spec()
        assert positional(spec)[3:] == (800, 600, True, True, False)

    @pytest.mark.parametrize("size, error, message", [
        ({"width": 63}, ValueError, "width and height must be at least 64 pixels"),
        ({"height": 63}, ValueError, "width and height must be at least 64 pixels"),
        ({"width": 800.0}, TypeError, "width must be an int, got float"),
        ({"height": True}, TypeError, "height must be an int, got bool"),
        ({"clip": "false"}, TypeError, "clip must be a bool, got str"),
        ({"labels": 0}, TypeError, "labels must be a bool, got int"),
        ({"show_radical_axis": None}, TypeError, "show_radical_axis must be a bool, got NoneType"),
    ])
    def test_render_spec_checks_its_size(self, size, error, message):
        spec = worked_spec()
        with pytest.raises(error) as caught:
            RenderSpec(spec.scene, spec.probe, spec.result, **size)
        assert str(caught.value) == message

    @pytest.mark.parametrize("field, wrong, message", [
        ("scene", lambda spec: spec.scene.cfg, "scene must be a DerivedScene, got ScenarioConfig"),
        ("probe", lambda spec: spec.probe.point, "probe must be a ProbePoint, got Point2"),
        ("result", lambda spec: spec.result.p_prime, "result must be an ImageResult, got ExtendedPoint"),
        ("result", lambda spec: None, "result must be an ImageResult, got NoneType"),
    ], ids=["config", "point", "extended-point", "none"])
    def test_render_spec_checks_its_parts(self, field, wrong, message):
        # Checked when the spec is built, not later as an AttributeError in render_svg.
        spec = worked_spec()
        parts = {"scene": spec.scene, "probe": spec.probe, "result": spec.result, field: wrong(spec)}
        with pytest.raises(TypeError) as caught:
            RenderSpec(**parts)
        assert str(caught.value) == message


def test_startup_imports_neither_dataclasses_nor_inspect():
    # A fresh interpreter, so modules the tests import do not hide the cost.
    child = subprocess.run([sys.executable, str(GUARD)], capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
