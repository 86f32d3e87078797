"""The public surface, listed in full: a name or option added or dropped shows here in review."""

import argparse
import ast
import inspect
import io
import runpy
import sys
import types
from collections import Counter
from contextlib import redirect_stdout
from functools import cached_property
from pathlib import Path

import pytest

import bicircle
from bicircle import cli, exact

ROOT = Path(__file__).resolve().parent.parent
# The kernel layer of the north star: public wrappers of the integer core,
# which the package itself calls directly.
KERNEL_WRAPPERS = ["line_through", "meet", "second_intersection", "tangent_at"]
# Public value-type members whose name another value type's field or member,
# or a CLI option's dest, also carries: the static read guard below matches
# names only, so any read of that other name counts for these, and none of
# them can ever show as unread there. The traffic census counts their reads.
SHARED_MEMBERS = ["Line.a"]

PUBLIC_NAMES = [
    "CaseFlag", "Circle", "CoincidentLines", "DEFAULT_Q_SAMPLES", "DEFAULT_SEED",
    "DEFAULT_TRIALS", "DegenerateProbe", "DerivedScene", "ExtendedPoint", "FuzzFailure",
    "FuzzReport", "GeometryError", "INFINITY", "IdenticalPoints", "ImageResult",
    "InvalidScenario", "Line", "Ordering", "ParseError", "Point2",
    "PointNotOnCircle", "ProbePoint", "RenderSpec", "ScenarioConfig", "WrongOrdering",
    "ZeroDenominator", "as_rational", "classify_case", "construct_image", "derive",
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


def subcommands(parser):
    """The CLI's subparsers by command name, in the order they were added."""
    (commands,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


def exported():
    return {
        name: value for name, value in vars(bicircle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def exported_functions():
    return sorted(name for name, value in exported().items() if inspect.isfunction(value))


def value_types(cls=exact._Value):
    """Every subclass of the frozen value base, depth first."""
    for sub in cls.__subclasses__():
        yield sub
        yield from value_types(sub)


def value_type_members():
    """Each public method, property, cached view and classmethod of a value type, as "Class.name"."""
    kinds = (types.FunctionType, property, cached_property, classmethod, staticmethod)
    return sorted(
        f"{cls.__name__}.{name}" for cls in value_types() for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, kinds)
    )


def package_nodes():
    """Every syntax node of the Python files in src/, demos/ and perfbench/: all but the tests."""
    for directory in ("src", "demos", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def test_public_names():
    assert len(PUBLIC_NAMES) == 48
    assert sorted(exported()) == PUBLIC_NAMES


def test_every_exported_function_has_a_caller():
    # A function only the tests call belongs in the tests, not the public surface.
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in package_nodes() if isinstance(node, ast.Call)
    }
    functions = exported_functions()
    assert set(KERNEL_WRAPPERS) <= set(functions)
    assert [name for name in functions if name not in called and name not in KERNEL_WRAPPERS] == []


def test_every_value_type_member_is_read():
    # A member only the tests read belongs in the tests, as a helper of their own.
    read = {node.attr for node in package_nodes() if isinstance(node, ast.Attribute)}
    assert len(value_type_members()) == 15
    assert [member for member in value_type_members() if member.split(".")[1] not in read] == []


def traffic_census(workdir) -> Counter:
    """Reads of each value-type member and calls of each exported function in the real traffic.

    The traffic is every golden CLI command through cli.main in workdir, the
    three printing demos with their stdout captured, each demo figure, and one
    cycle of each benchmark workload at seed 360, whose checks must all read 0.
    A read is a call of the member's property getter or cached_property
    function; a call is counted in every bicircle module that binds the
    function, as perfbench/tracer.py rebinds names. All is restored on return.
    """
    import test_golden  # here, not at collection: no test module imports another there

    used = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            used[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        classes = {cls.__name__: cls for cls in value_types()}
        for member in value_type_members():
            owner, name = member.split(".")
            view = vars(classes[owner])[name]
            if isinstance(view, cached_property):
                view = cached_property(counted(member, view.func))
                view.__set_name__(classes[owner], name)
            else:
                view = property(counted(member, view.fget))
            patch.setattr(classes[owner], name, view)
        modules = [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "bicircle"]
        for name in exported_functions():
            original = getattr(bicircle, name)
            wrapper = counted(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    patch.setattr(module, name, wrapper)

        patch.chdir(workdir)
        for case in test_golden.CASES:
            test_golden.run_case(case)
        for script in test_golden.DEMO_SCRIPTS:
            with redirect_stdout(io.StringIO()):
                runpy.run_path(str(test_golden.DEMOS / f"{script}.py"), run_name="__main__")
        demo = test_golden.load_demo_figures()
        for _, cfg, p, q, options in demo.FIGURES:
            demo.figure(cfg, p, q, **options)
        patch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
        for workload in workloads.WORKLOADS.values():
            run = workload(360)
            assert [run.check(i, run.op(i)) for i in range(run.cycle)] == [0] * run.cycle, run.name
    return used


def test_traffic_reads_every_member_and_calls_all_but_the_kernel_wrappers(tmp_path):
    # The dynamic twin of the two static guards above, which it sees past: a
    # member whose name another carries must be read itself.
    used = traffic_census(tmp_path)
    assert [member for member in value_type_members() if not used[member]] == []
    assert [name for name in exported_functions() if not used[name]] == KERNEL_WRAPPERS


def test_members_the_read_guard_cannot_see():
    members = [member.split(".") for member in value_type_members()]
    owners = {}
    for cls in value_types():
        for name in inspect.get_annotations(cls):
            owners.setdefault(name, set()).add(cls.__name__)
    for owner, name in members:
        owners.setdefault(name, set()).add(owner)
    subs = subcommands(cli.build_parser()).values()
    dests = {action.dest for sub in subs for action in sub._actions if action.option_strings}
    shared = [f"{owner}.{name}" for owner, name in members if owners[name] != {owner} or name in dests]
    assert shared == SHARED_MEMBERS


def test_cli_commands_and_options():
    parser = cli.build_parser()
    commands = subcommands(parser)
    found = {"bicircle": option_strings(parser)}
    found.update((name, option_strings(sub)) for name, sub in commands.items())
    assert found == CLI_OPTIONS
    assert list(commands) == list(CLI_OPTIONS)[1:]
