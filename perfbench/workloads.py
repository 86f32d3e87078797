"""The benchmark workloads, and the CLI commands the traced run probes.

Each workload builds its inputs from the seed when constructed (that is the
set-up the benchmark times), then exposes:

* ``op(i)``: timed operation ``i`` of a fixed cycle of ``cycle`` operations,
  which the benchmark runs over and over; returns the program's output.
* ``check(i, out)``: how many of the op's units failed (0 when correct).
* ``cases(i)``: (ordering, case flags) for each unit of op ``i``, computed
  with ``validate`` and ``classify_case`` outside the timed region.
* ``encode(i, out)``: canonical bytes of an output, for golden digests.

``per_call`` is the number of ops (the unit every rate and latency is quoted
in) one call performs, and ``trace_calls`` the length of the prefix of the
cycle that the traced run repeats.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import bicircle
from bicircle import cli, construction, figures

def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def encode_point(value) -> str:
    """Canonical text of an ExtendedPoint (finite or a direction at infinity)."""
    if value.is_finite:
        return f"{value.point.x},{value.point.y}"
    dx, dy = value.direction
    return f"inf:{dx},{dy}"


def _tall(rng: random.Random, digits: int) -> Fraction:
    """Positive rational whose numerator and denominator both have ``digits`` digits."""
    low, high = 10 ** (digits - 1), 10**digits
    return Fraction(rng.randrange(low, high), rng.randrange(low, high))


class FuzzOracle:
    """``run_oracle_fuzz`` in fixed-size chunks; one op is one trial."""

    name = "fuzz-oracle"
    per_call = 10
    cycle = 100
    trace_calls = 40

    def __init__(self, seed: int):
        self.seed = seed
        self.op(0)

    def chunk_seed(self, i: int) -> int:
        # trial_rng(seed, index) draws from seed * 1_000_003 + index, so chunk
        # seeds one apart never share a trial stream while per_call < 1_000_003.
        return self.seed * 100_000 + i

    def op(self, i):
        return bicircle.run_oracle_fuzz(self.per_call, self.chunk_seed(i))

    def check(self, i, report) -> int:
        if self.encode(i, report) != self._expected(i):
            return self.per_call
        return 0

    def _expected(self, i) -> bytes:
        return json.dumps(
            {"trials": self.per_call, "seed": self.chunk_seed(i), "failures": []}
        ).encode()

    def encode(self, i, report) -> bytes:
        failures = [
            [f.trial, encode_point(f.geometric), encode_point(f.closed_form)]
            for f in report.failures
        ]
        return json.dumps(
            {"trials": report.trials, "seed": report.seed, "failures": failures}
        ).encode()

    def cases(self, i):
        """Redraw the chunk's trials exactly as run_oracle_fuzz does."""
        items = []
        for index in range(self.per_call):
            rng = bicircle.trial_rng(self.chunk_seed(i), index)
            cfg = bicircle.random_scenario(rng)
            probe = bicircle.random_probe(rng, bicircle.derive(cfg))
            items.append((bicircle.validate(cfg), bicircle.classify_case(cfg, probe)))
        return items


class SweepTall:
    """The fixed-line experiment on scenes with ~100-digit rationals.

    One op is one probe through ``construct_image``, ``image_closed_form`` and
    ``locus_x``. The op list is built once and cycled, so every run sees the
    same mix of strata.
    """

    name = "sweep-tall"
    per_call = 1
    trace_calls = 96
    digits = 50  # of numerator and of denominator: ~100 digits per rational
    generic_lines = 5
    q_per_line = 11
    # Stated minimum share of ops in each degenerate stratum.
    min_shares = {
        "ProbeOnAxis": 0.04,
        "CollapsesToA": 0.08,
        "CollapsesToD": 0.08,
        "OnRadicalAxis": 0.08,
        "TouchingCircles": 0.15,
    }

    def __init__(self, seed: int):
        rng = random.Random(f"sweep-tall/{seed}")
        configs = [self._scenario(rng, want) for want in (
            bicircle.Ordering.INTERSECTING_ABCD,
            bicircle.Ordering.DISJOINT_ACBD,
            bicircle.Ordering.INTERSECTING_ABCD,
        )]
        a, r1 = _tall(rng, self.digits), _tall(rng, self.digits)
        a = max(a, r1)  # r1 < 2a keeps r2 = 2a - r1 positive
        configs.append(bicircle.ScenarioConfig(a, r1, 2 * a - r1))
        self.ops = []
        for cfg in configs:
            scene = bicircle.derive(cfg)
            lines = [scene.B.x, scene.C.x, scene.radical_axis_x]
            lines += [_tall(rng, self.digits) for _ in range(self.generic_lines)]
            for p in dict.fromkeys(lines):
                qs = [_tall(rng, self.digits) * rng.choice((1, -1))
                      for _ in range(self.q_per_line)]
                if p not in (scene.B.x, scene.C.x):
                    qs.append(Fraction(0))
                self.ops += [(cfg, scene, bicircle.ProbePoint(p, q)) for q in qs]
        random.Random(seed).shuffle(self.ops)
        self.cycle = len(self.ops)
        for i in range(8):
            self.op(i)

    @staticmethod
    def _scenario(rng, want):
        while True:
            cfg = bicircle.ScenarioConfig(*(_tall(rng, SweepTall.digits) for _ in range(3)))
            try:
                if bicircle.validate(cfg) is want:
                    return cfg
            except bicircle.InvalidScenario:
                pass

    def op(self, i):
        cfg, scene, probe = self.ops[i]
        return (
            construction.construct_image(scene, probe).p_prime,
            construction.image_closed_form(cfg, probe),
            construction.locus_x(cfg, probe.p),
        )

    def check(self, i, out) -> int:
        geometric, closed, x = out
        if geometric != closed:
            return 1
        if x is bicircle.INFINITY:
            return int(geometric.is_finite)
        if geometric.is_finite:
            return int(geometric.point.x != x)
        # q = 0: the image is the vertical direction, the far point of x = p'.
        return int(geometric.direction != (0, 1))

    def encode(self, i, out) -> bytes:
        geometric, closed, x = out
        return f"{encode_point(geometric)}|{encode_point(closed)}|{x}\n".encode()

    def cases(self, i):
        cfg, _, probe = self.ops[i]
        return [(bicircle.validate(cfg), bicircle.classify_case(cfg, probe))]


# The six figures of demos/render_figures.py, with the SHA-256 of each
# committed demos/output/<name>.svg they must reproduce byte for byte.
DEMO_FIGURES = (
    ("concurrency", (2, 3, 2), None, 1, {},
     "0101405550f27ece2409c957fea98eed23d0d1fe18dd2e38a17fc4d1f2519f75"),
    ("generic", (2, 3, 2), 2, 1, {"clip": True},
     "0e065d1e1134983a474ff5d1f05909db47d685b7591f8e530700436d31ecc18f"),
    ("probe_on_axis", (2, 3, 2), 3, 0, {},
     "62155851f93cfff86142f9f2b1a2ae9e37d522a2c80c06715e820640120f0c14"),
    ("probe_through_b", (2, 3, 2), 0, 2, {},
     "c9b92da2968b772be0bc38a0b51794a66a61e0c59ced1098434e62f8d30079e0"),
    ("touching", (2, 2, 2), 1, 1, {},
     "2b8b3734274e9054ca6d2a27b980db37ebca528e862fa18045c9e83af36f9ab7"),
    ("generic_wide", (2, 3, 2), 2, 1, {},
     "296aff4a7d93bf93a9ae8cb69b17bfbdd49630527275c24e6e706744ca0f6e58"),
)


# The option sets the repository's callers render with: the CLI's defaults
# (`bicircle render`: 800x600, labels and radical axis on, clip off) and the
# demos' only other setting, clip on.
VARIANT_OPTIONS = ({}, {"clip": True})


class RenderSvg:
    """``render_svg`` on the demo figures plus seeded variants; one op is one document.

    Each seeded scene and probe is rendered once with each of VARIANT_OPTIONS.
    """

    name = "render-svg"
    per_call = 1
    trace_calls = 24
    variant_scenes = 47

    def __init__(self, seed: int):
        rng = random.Random(f"render-svg/{seed}")
        inputs = []
        for _, abc, p, q, options, _ in DEMO_FIGURES:
            cfg = bicircle.ScenarioConfig(*abc)
            if p is None:  # the concurrency figure probes the radical axis
                p = bicircle.derive(cfg).radical_axis_x
            inputs.append((cfg, bicircle.ProbePoint(p, q), options))
        for _ in range(self.variant_scenes):
            cfg = bicircle.random_scenario(rng)
            probe = bicircle.random_probe(rng, bicircle.derive(cfg))
            inputs += [(cfg, probe, options) for options in VARIANT_OPTIONS]
        self.configs = [cfg for cfg, _, _ in inputs]
        self.specs = []
        for cfg, probe, options in inputs:
            scene = bicircle.derive(cfg)
            result = bicircle.construct_image(scene, probe)
            self.specs.append(bicircle.RenderSpec(scene=scene, probe=probe, result=result, **options))
        self.cycle = len(self.specs)
        # Demo figures must match the committed files; every variant must
        # render to the bytes of its first rendering.
        self.expected = [figure[-1] for figure in DEMO_FIGURES]
        self.expected += [None] * (self.cycle - len(DEMO_FIGURES))
        self.op(0)

    def op(self, i):
        return figures.render_svg(self.specs[i])

    def check(self, i, svg) -> int:
        digest = sha(svg.encode())
        if self.expected[i] is None:
            self.expected[i] = digest
        return int(digest != self.expected[i])

    def encode(self, i, svg) -> bytes:
        return svg.encode()

    def cases(self, i):
        cfg = self.configs[i]
        return [(bicircle.validate(cfg), bicircle.classify_case(cfg, self.specs[i].probe))]


def cli_commands(seed: int, workdir: Path) -> list[list[str]]:
    """Every CLI command once, on one seeded scenario; ``render`` writes into workdir."""
    rng = random.Random(f"cli/{seed}")
    while True:
        cfg = bicircle.random_scenario(rng)
        if bicircle.validate(cfg) is bicircle.Ordering.INTERSECTING_ABCD:
            break  # `verify` needs intersecting circles to exit 0
    probe = bicircle.random_probe(rng, bicircle.derive(cfg))
    sc = [f"--a={cfg.a}", f"--r1={cfg.r1}", f"--r2={cfg.r2}"]
    pq = [f"--p={probe.p}", f"--q={probe.q}"]
    return [
        ["compute", *sc, *pq],
        ["locus", *sc, f"--p={probe.p}"],
        ["classify", *sc, *pq],
        ["verify", *sc],
        ["fuzz", "--trials", "20", "--seed", str(rng.randrange(10**6))],
        ["render", *sc, *pq, f"--out={workdir / 'figure.svg'}"],
    ]


def run_cli(argv) -> tuple[int, str]:
    """``bicircle.cli.main(argv)`` in this process, with its stdout captured."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


WORKLOADS = {w.name: w for w in (FuzzOracle, SweepTall, RenderSvg)}
