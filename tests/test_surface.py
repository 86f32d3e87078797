"""The public surface, listed in full: a name or option added or dropped shows here in review."""

import argparse
import types

import bicircle
from bicircle import cli

PUBLIC_NAMES = [
    "CaseFlag", "Circle", "CoincidentLines", "ConcentricCircles", "DEFAULT_Q_SAMPLES",
    "DEFAULT_SEED", "DEFAULT_TRIALS", "DegenerateProbe", "DerivedScene", "ExtendedPoint",
    "FuzzFailure", "FuzzReport", "GeometryError", "INFINITY", "IdenticalPoints", "ImageResult",
    "IndeterminateParam", "InvalidScenario", "Line", "Ordering", "ParseError", "Point2",
    "PointNotOnCircle", "ProbePoint", "RenderSpec", "ScenarioConfig", "WrongOrdering",
    "ZeroDenominator", "as_rational", "circle_contains", "classify_case", "collinear_det",
    "construct_image", "decimal6", "derive", "image_closed_form", "layout", "line_through",
    "locus_x", "meet", "param_point", "parse_rational", "parse_scenario", "point_on_line",
    "power_of_point", "radical_axis", "random_probe", "random_rational", "random_scenario",
    "render_svg", "run_oracle_fuzz", "second_intersection", "tangent_at", "tangent_half_params",
    "trial_rng", "validate", "verify_concurrency",
]

SCENARIO = ["--a", "--r1", "--r2", "--scenario"]
CLI_OPTIONS = {
    "bicircle": ["-h", "--help"],
    "compute": ["-h", "--help", *SCENARIO, "--p", "--q"],
    "locus": ["-h", "--help", *SCENARIO, "--p"],
    "classify": ["-h", "--help", *SCENARIO, "--p", "--q"],
    "verify": ["-h", "--help", *SCENARIO, "--q-samples"],
    "fuzz": ["-h", "--help", "--trials", "--seed"],
    "render": [
        "-h", "--help", *SCENARIO, "--p", "--q", "--out", "--width", "--height",
        "--no-radical-axis", "--no-labels", "--clip",
    ],
}


def option_strings(parser):
    return [option for action in parser._actions for option in action.option_strings]


def test_public_names():
    names = sorted(
        name for name, value in vars(bicircle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 57
    assert names == PUBLIC_NAMES


def test_cli_commands_and_options():
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    found = {"bicircle": option_strings(parser)}
    found.update((name, option_strings(sub)) for name, sub in commands.choices.items())
    assert found == CLI_OPTIONS
    assert list(commands.choices) == list(CLI_OPTIONS)[1:]
