"""Frozen CLI and figure output: every byte must match the files in tests/golden/.

Each case stores the command's exit status and exact stdout in
tests/golden/<name>.out; render cases also store the SVG they write in
tests/golden/<name>.svg. The three printing demo scripts store theirs, from a
child interpreter, in tests/golden/demo-<script>.out. The six demo figures are
compared with the committed demos/output/*.svg, and the README's library
quickstart runs as a doctest. After an intended output
change, rewrite the corpus with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import doctest
import hashlib
import importlib.util
import io
import os
import random
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

from bicircle import (
    ExtendedPoint,
    FuzzFailure,
    FuzzReport,
    Point2,
    ProbePoint,
    RenderSpec,
    ScenarioConfig,
    cli,
    construct_image,
    derive,
    random_probe,
    random_scenario,
    render_svg,
)
from reference import child_env

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = ROOT / "demos"
SVG_NAME = "figure.svg"

WORKED = ["--a", "2", "--r1", "3", "--r2", "2"]
TANGENT = ["--a", "2", "--r1", "2", "--r2", "2"]
DISJOINT = ["--a", "3", "--r1", "2", "--r2", "1"]
NESTED = ["--a", "1", "--r1", "5", "--r2", "1"]
# Intersecting circles and a probe written with ~100-digit numerators and
# denominators; q is about 2.6e-11, so P′ lies about 9.3e9 below the axis.
TALL = [
    "--a",
    "889355134819376259412988256157371281650895376919925683088831457423378962580978493471144239025268977/"
    "848669819497218309768839000707972859611416717354932207532243940246481047913380857577508802570097392",
    "--r1",
    "553014102570080229535345878410747107911109457260821387379622720981435168304435220912082060937838747/"
    "296001093803523760578267396119596152447906128700621345392431318722374156032818270155190482301233901",
    "--r2",
    "3380270710960065956524891638578994347281162907875024329272540442994943770626599061868267308405014723/"
    "6900928287726411744852427123198326837523374424739213762390654267501347314770603633252323695133580505",
    "--p",
    "4422025183847185187875046171882666828354205020759363575003482548139462412635966947164222827662022078/"
    "8629488376353152729642535632804225297777854859376651891998802539601707529533171665549233176110563839",
    "--q",
    "119197163512936547880453276239916073823817242311836626161581320665988992265105875062594074/"
    "4637605704143117052783931651747346238351330847820670419948193334031198402962229214295860883525695939",
]

CASES = {
    "compute-worked": ["compute", *WORKED, "--p", "2", "--q", "1"],
    "compute-axis": ["compute", *WORKED, "--p", "3", "--q", "0"],
    "compute-collapse-to-a": ["compute", *WORKED, "--p", "0", "--q", "2"],
    "compute-collapse-to-d": ["compute", *WORKED, "--p", "1", "--q", "2"],
    "compute-radical-axis": ["compute", *WORKED, "--p", "5/8", "--q", "-3"],
    "compute-tangent": ["compute", *TANGENT, "--p", "1", "--q", "1"],
    "compute-tangent-through-bc": ["compute", *TANGENT, "--p", "0", "--q", "1"],
    "compute-disjoint": ["compute", *DISJOINT, "--p", "1", "--q", "2"],
    "compute-scenario-json": [
        "compute", "--scenario", '{"a": "2", "r1": "3", "r2": "2"}', "--p", "1/3", "--q", "0.5",
    ],
    "compute-scenario-text": ["compute", "--scenario", " 7/2 3 1.5 ", "--p=-1/2", "--q=-3/7"],
    "compute-degenerate-probe": ["compute", *WORKED, "--p", "1", "--q", "0"],
    "locus-generic": ["locus", *WORKED, "--p", "2"],
    "locus-fixed-point": ["locus", *WORKED, "--p", "5/8"],
    "locus-tangent": ["locus", *TANGENT, "--p", "1"],
    # argparse reads "--p -2/3" as an option, so this case pins the usage error.
    "locus-disjoint": ["locus", *DISJOINT, "--p", "-2/3"],
    "locus-disjoint-negative-p": ["locus", *DISJOINT, "--p=-2/3"],
    "locus-invalid-scenario": ["locus", *NESTED, "--p", "2"],
    "classify-generic": ["classify", *WORKED, "--p", "2", "--q", "1"],
    "classify-all-flags": ["classify", *TANGENT, "--p", "0", "--q", "0"],
    "verify-pass": ["verify", *WORKED],
    "verify-custom-samples": ["verify", *WORKED, "--q-samples", "4,-1/9, 5"],
    "verify-wrong-ordering": ["verify", *DISJOINT],
    "fuzz-default": ["fuzz", "--trials", "1000", "--seed", "360"],
    "fuzz-failures": ["fuzz", "--trials", "2", "--seed", "7"],
    "render-worked": ["render", *WORKED, "--p", "2", "--q", "1", "--out", SVG_NAME],
    "render-clip": ["render", *WORKED, "--p", "2", "--q", "1", "--out", SVG_NAME, "--clip"],
    "render-bare": [
        "render", *WORKED, "--p", "5/8", "--q", "1", "--out", SVG_NAME,
        "--no-labels", "--no-radical-axis", "--width", "640", "--height", "480",
    ],
    "render-axis-clip": ["render", *WORKED, "--p", "3", "--q", "0", "--out", SVG_NAME, "--clip"],
    "render-far-clip": [
        "render", *WORKED, "--p", "9", "--q", "7", "--out", SVG_NAME, "--clip",
        "--width", "64", "--height", "400",
    ],
    "render-tall": ["render", *TALL, "--out", SVG_NAME, "--width", "64", "--height", "1001"],
    "render-tangent": ["render", *TANGENT, "--p", "0", "--q", "1", "--out", SVG_NAME],
    "render-disjoint": ["render", *DISJOINT, "--p", "1", "--q", "2", "--out", SVG_NAME],
}


def _fake_fuzz(trials, seed):
    """A fuzz report with one finite and one at-infinity disagreement."""
    return FuzzReport(trials, seed, (
        FuzzFailure(
            0, ScenarioConfig(2, 3, 2), ProbePoint(2, 1),
            ExtendedPoint.finite(Point2(13, -18)), ExtendedPoint.finite(Point2(13, "18/5")),
        ),
        FuzzFailure(
            1, ScenarioConfig(2, 2, 2), ProbePoint(1, "-1/2"),
            ExtendedPoint(1, 2, 0), ExtendedPoint(0, -3, 0),
        ),
    ))


# Demo scripts that print their results; render_figures.py writes files instead.
DEMO_SCRIPTS = ("locus_sweep", "special_cases", "worked_example")


# Cases whose command runs with a module attribute of the CLI replaced.
PATCHED = {"fuzz-failures": ("run_oracle_fuzz", _fake_fuzz)}


def run_case(name: str) -> tuple[bytes, bytes | None]:
    """(exit line plus stdout, SVG written or None), run in the current directory."""
    stdout = io.StringIO()
    patch = mock.patch.object(cli, *PATCHED[name]) if name in PATCHED else nullcontext()
    with patch, redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(CASES[name]))
        except SystemExit as exc:
            code = exc.code
    svg = Path(SVG_NAME)
    written = svg.read_bytes() if svg.exists() else None
    if written is not None:
        svg.unlink()
    return f"exit {code}\n{stdout.getvalue()}".encode(), written


def run_demo(script: str) -> bytes:
    """Exit line plus stdout of demos/<script>.py, run in a child interpreter."""
    child = subprocess.run(
        [sys.executable, str(DEMOS / f"{script}.py")], capture_output=True, env=child_env()
    )
    return b"exit %d\n" % child.returncode + child.stdout


def load_demo_figures():
    spec = importlib.util.spec_from_file_location("render_figures", DEMOS / "render_figures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out, svg = run_case(name)
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    expected_svg = GOLDEN / f"{name}.svg"
    assert svg == (expected_svg.read_bytes() if expected_svg.exists() else None)


@pytest.mark.parametrize("script", DEMO_SCRIPTS)
def test_demo_output_matches_golden(script):
    assert run_demo(script) == (GOLDEN / f"demo-{script}.out").read_bytes()


def test_corpus_has_no_stray_files():
    recorded = {path.stem for path in GOLDEN.iterdir()}
    assert recorded == set(CASES) | {f"demo-{script}" for script in DEMO_SCRIPTS}


def test_demo_figures_match_committed_svgs():
    demo = load_demo_figures()
    assert sorted(name for name, *_ in demo.FIGURES) == sorted(
        path.stem for path in (DEMOS / "output").glob("*.svg")
    )
    for name, cfg, p, q, options in demo.FIGURES:
        svg = demo.figure(cfg, p, q, **options).encode("utf-8")
        assert svg == (DEMOS / "output" / f"{name}.svg").read_bytes(), name


# SHA-256 of render_svg under all 8 combinations of show_radical_axis, labels
# and clip, at 800x600 and at 64x1001, joined in loop order: the six demo
# figures' scenes and probes (the q = 0 caption, tangent circles, clipped
# arrows) and 12 seeded ones. The golden files and the render-svg corpora
# draw little but the default options and clip, so this pins the bytes of the
# rest. Recorded at a0e1742.
ALL_OPTIONS_DIGEST = "416684b92c1da8039f410965afcfc06de975468b3ac4934bc76736edb031fb56"


def test_every_render_option_frozen():
    inputs = [(cfg, ProbePoint(p, q)) for _, cfg, p, q, _ in load_demo_figures().FIGURES]
    rng = random.Random("all-options")
    for _ in range(12):
        cfg = random_scenario(rng)
        inputs.append((cfg, random_probe(rng, derive(cfg))))
    digest = hashlib.sha256()
    for cfg, probe in inputs:
        scene = derive(cfg)
        result = construct_image(scene, probe)
        for (width, height), options in product(((800, 600), (64, 1001)), product((False, True), repeat=3)):
            spec = RenderSpec(scene, probe, result, width, height, *options)
            digest.update(render_svg(spec).encode())
    assert digest.hexdigest() == ALL_OPTIONS_DIGEST


def record() -> None:
    """Rewrite every golden file from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    with tempfile.TemporaryDirectory() as workdir:
        here = os.getcwd()
        os.chdir(workdir)
        try:
            for name in sorted(CASES):
                out, svg = run_case(name)
                (GOLDEN / f"{name}.out").write_bytes(out)
                if svg is not None:
                    (GOLDEN / f"{name}.svg").write_bytes(svg)
        finally:
            os.chdir(here)
    for script in DEMO_SCRIPTS:
        (GOLDEN / f"demo-{script}.out").write_bytes(run_demo(script))
    print(f"recorded {len(CASES) + len(DEMO_SCRIPTS)} cases into {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()


def test_readme_quickstart_runs():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False, encoding="utf-8")
    assert result.attempted > 0 and result.failed == 0, result
