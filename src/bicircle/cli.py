"""Command-line front end with exact JSON reports.

Each command is declared once, in build_parser: its subparser, its options
and its runner (set_defaults(run=...)). main resolves the scenario for a
command that declares the scenario options and the probe for one that
declares --p and --q, and each report names its command first.

Every numeric value in a report is an exact rational string ("13", "-18",
"5/8"); nothing is ever serialized through floating point. Exit status is 0
on success, 1 on a domain or I/O error or a report value too long to write
(the error name goes to stderr), and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .construction import (
    DEFAULT_Q_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    CaseFlag,
    FuzzFailure,
    ProbePoint,
    classify_case,
    construct_image,
    locus_x,
    run_oracle_fuzz,
    verify_concurrency,
)
from .errors import GeometryError
from .exact import _SPACE, INFINITY, ExtendedPoint, Line, Point2, parse_rational
from .figures import RenderSpec, render_svg
from .scenario import Ordering, ScenarioConfig, derive, parse_scenario


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except GeometryError as exc:
        raise argparse.ArgumentTypeError(f"{type(exc).__name__}: {exc}")


def _q_samples(text: str) -> list[Fraction]:
    samples = [_rational(part) for part in text.split(",") if part.strip(_SPACE)]
    if not samples:
        raise argparse.ArgumentTypeError("needs at least one q sample")
    if 0 in samples:
        raise argparse.ArgumentTypeError("q samples must be nonzero")
    return samples


_INTEGER_RE = re.compile("[+-]?[0-9]+")


def _at_least(low: int):
    """argparse type: an integer of ASCII digits, no smaller than ``low``."""
    def integer(text: str) -> int:
        body = text.strip(_SPACE)
        if not _INTEGER_RE.fullmatch(body):
            raise ValueError(text)  # argparse: "invalid integer value"
        value = int(body)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


# How each value a report holds is written; rationals become exact strings.
_JSON_FORMS = {
    Fraction: str,
    type(INFINITY): lambda _: "infinity",
    Ordering: lambda ordering: ordering.value,
    frozenset: lambda flags: [flag.value for flag in CaseFlag if flag in flags],
    Point2: lambda point: [point.x, point.y],
    Line: lambda line: [line.a, line.b, line.c],
    ExtendedPoint: lambda value: (
        {"finite": value.point} if value.is_finite else {"atInfinity": value.direction}
    ),
    ScenarioConfig: lambda cfg: {"a": cfg.a, "r1": cfg.r1, "r2": cfg.r2},
    ProbePoint: vars,
    FuzzFailure: lambda failure: {
        "trial": failure.trial,
        "scenario": failure.config,
        "probe": failure.probe,
        "geometric": failure.geometric,
        "closedForm": failure.closed_form,
    },
}


def _encode(value):
    """The ``default`` hook of json.dumps for the package's value types."""
    return _JSON_FORMS[type(value)](value)


def _report(args, fields: dict, status: int = 0) -> tuple[str, int]:
    """args.command's JSON report and exit status; ValueError if a value is too long to write."""
    return json.dumps({"command": args.command, **fields}, indent=2, default=_encode), status


def _scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=_rational, help="half center distance")
    parser.add_argument("--r1", type=_rational, help="radius of the left circle")
    parser.add_argument("--r2", type=_rational, help="radius of the right circle")
    parser.add_argument(
        "--scenario",
        help="alternative to --a/--r1/--r2: 'a r1 r2' or JSON {\"a\": ..., \"r1\": ..., \"r2\": ...}",
    )
    # main resolves the scenario through this parser, which reports a bad one
    # as argparse does a bad option.
    parser.set_defaults(subparser=parser)


def _resolve_scenario(parser: argparse.ArgumentParser, args) -> ScenarioConfig:
    if args.scenario is not None:
        if not (args.a is None and args.r1 is None and args.r2 is None):
            parser.error("give either --scenario or --a/--r1/--r2, not both")
        try:
            return parse_scenario(args.scenario)
        except GeometryError as exc:
            parser.error(f"{type(exc).__name__}: {exc}")
    if args.a is None or args.r1 is None or args.r2 is None:
        parser.error("scenario required: --scenario, or all of --a, --r1, --r2")
    return ScenarioConfig(args.a, args.r1, args.r2)


def _probe_args(parser: argparse.ArgumentParser) -> None:
    # main builds args.probe for every command that declares --q.
    parser.add_argument("--p", type=_rational, required=True, help="probe x-coordinate")
    parser.add_argument("--q", type=_rational, required=True, help="probe y-coordinate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicircle",
        description="Exact two-circle chord construction: probe to image, locus, and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="construct M, N and the image point for one probe")
    compute.set_defaults(run=_run_compute)
    _scenario_args(compute)
    _probe_args(compute)

    locus = sub.add_parser("locus", help="abscissa of the image line for a probe line x = p")
    locus.set_defaults(run=_run_locus)
    _scenario_args(locus)
    locus.add_argument("--p", type=_rational, required=True, help="probe line abscissa")

    classify = sub.add_parser("classify", help="degeneracy flags for a probe")
    classify.set_defaults(run=_run_classify)
    _scenario_args(classify)
    _probe_args(classify)

    verify = sub.add_parser("verify", help="check that AM, DN and the radical axis concur")
    verify.set_defaults(run=_run_verify)
    _scenario_args(verify)
    verify.add_argument(
        "--q-samples",
        type=_q_samples,
        default=list(DEFAULT_Q_SAMPLES),
        help='comma-separated nonzero q values (default "1,2,-3,1/7")',
    )

    fuzz = sub.add_parser("fuzz", help="random trials comparing the two image routes")
    fuzz.set_defaults(run=_run_fuzz)
    fuzz.add_argument("--trials", type=_at_least(0), default=DEFAULT_TRIALS)
    fuzz.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)

    render = sub.add_parser("render", help="write an SVG figure for one probe")
    render.set_defaults(run=_run_render)
    _scenario_args(render)
    _probe_args(render)
    render.add_argument("--out", required=True, help="output SVG path")
    render.add_argument("--width", type=_at_least(64), default=800)
    render.add_argument("--height", type=_at_least(64), default=600)
    render.add_argument("--no-radical-axis", action="store_true")
    render.add_argument("--no-labels", action="store_true")
    render.add_argument("--clip", action="store_true",
                        help="bound the viewport by the circles and clip far points")
    return parser


def _run_compute(args) -> tuple[str, int]:
    scene = derive(args.cfg)
    result = construct_image(scene, args.probe)
    return _report(args, {
        "scenario": scene.cfg,
        "ordering": scene.ordering,
        "probe": args.probe,
        "M": result.M,
        "N": result.N,
        "lineAM": result.line_am,
        "lineDN": result.line_dn,
        "Pprime": result.p_prime,
        "classification": classify_case(scene.cfg, args.probe),
    })


def _run_locus(args) -> tuple[str, int]:
    value = locus_x(args.cfg, args.p)
    return _report(args, {
        "scenario": args.cfg,
        "p": args.p,
        "pPrime": value,
        "fixedPoint": value == args.p,
    })


def _run_classify(args) -> tuple[str, int]:
    return _report(args, {
        "scenario": args.cfg,
        "probe": args.probe,
        "classification": classify_case(args.cfg, args.probe),
    })


def _run_verify(args) -> tuple[str, int]:
    scene = derive(args.cfg)
    passed = verify_concurrency(scene, args.q_samples)
    return _report(args, {
        "scenario": scene.cfg,
        "p": scene.radical_axis_x,
        "qSamples": args.q_samples,
        "passed": passed,
    }, 0 if passed else 1)


def _run_fuzz(args) -> tuple[str, int]:
    report = run_oracle_fuzz(trials=args.trials, seed=args.seed)
    return _report(args, {
        "trials": report.trials,
        "seed": report.seed,
        "failures": len(report.failures),
        "failureDetails": report.failures,
    }, 0 if not report.failures else 1)


def _run_render(args) -> tuple[str, int]:
    scene = derive(args.cfg)
    result = construct_image(scene, args.probe)
    spec = RenderSpec(
        scene=scene,
        probe=args.probe,
        result=result,
        width=args.width,
        height=args.height,
        show_radical_axis=not args.no_radical_axis,
        labels=not args.no_labels,
        clip=args.clip,
    )
    data = render_svg(spec).encode("utf-8")
    # Encoded first: a report that cannot be encoded leaves no figure, one stdout refuses does.
    report = _report(args, {
        "out": args.out,
        "bytes": len(data),
        "Pprime": result.p_prime,
    })
    with open(args.out, "wb") as handle:
        handle.write(data)
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "subparser"):
        args.cfg = _resolve_scenario(args.subparser, args)
    if hasattr(args, "q"):
        args.probe = ProbePoint(args.p, args.q)
    text = None
    try:
        text, status = args.run(args)
        print(text, flush=True)
    # ValueError: a report rational with more digits than
    # sys.get_int_max_str_digits(), though every input had fewer.
    except (GeometryError, OSError, ValueError) as exc:
        if text is not None:
            # The report is still buffered for the closed pipe or full disk that refused
            # it; point stdout at the null device, so the flush at exit cannot fail again.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return status
