"""The public surface, listed in full: a name or option added or dropped shows here in review."""

import argparse
import ast
import inspect
import types
from pathlib import Path

import bicircle
from bicircle import cli

ROOT = Path(__file__).resolve().parent.parent
# The kernel layer of the north star: public wrappers of the integer core,
# which the package itself calls directly.
KERNEL_WRAPPERS = ["line_through", "meet", "second_intersection", "tangent_at"]

PUBLIC_NAMES = [
    "CaseFlag", "Circle", "CoincidentLines", "DEFAULT_Q_SAMPLES", "DEFAULT_SEED",
    "DEFAULT_TRIALS", "DegenerateProbe", "DerivedScene", "ExtendedPoint", "FuzzFailure",
    "FuzzReport", "GeometryError", "INFINITY", "IdenticalPoints", "ImageResult",
    "IndeterminateParam", "InvalidScenario", "Line", "Ordering", "ParseError", "Point2",
    "PointNotOnCircle", "ProbePoint", "RenderSpec", "ScenarioConfig", "WrongOrdering",
    "ZeroDenominator", "as_rational", "classify_case", "construct_image", "decimal6", "derive",
    "image_closed_form", "layout", "line_through", "locus_x", "meet", "parse_rational",
    "parse_scenario", "random_probe", "random_rational", "random_scenario", "render_svg",
    "run_oracle_fuzz", "second_intersection", "tangent_at", "tangent_half_params", "trial_rng",
    "validate", "verify_concurrency",
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


def exported():
    return {
        name: value for name, value in vars(bicircle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_public_names():
    assert len(PUBLIC_NAMES) == 50
    assert sorted(exported()) == PUBLIC_NAMES


def test_every_exported_function_has_a_caller():
    # A function only the tests call belongs in the tests, not the public surface.
    called = set()
    for directory in ("src", "demos", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    called.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
    functions = sorted(name for name, value in exported().items() if inspect.isfunction(value))
    assert set(KERNEL_WRAPPERS) <= set(functions)
    assert [name for name in functions if name not in called and name not in KERNEL_WRAPPERS] == []


def test_cli_commands_and_options():
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    found = {"bicircle": option_strings(parser)}
    found.update((name, option_strings(sub)) for name, sub in commands.choices.items())
    assert found == CLI_OPTIONS
    assert list(commands.choices) == list(CLI_OPTIONS)[1:]
