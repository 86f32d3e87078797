"""The bicircle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it sets up the workload, runs whole cycles of its ops in a
closed loop (one client; the next op starts when the previous one ends) for S
seconds, checks every output, and reports the end-to-end metrics. With
``--trace 1`` it repeats a fixed prefix of the cycle without and then with
spans around each layer's public functions, and reports the per-layer
metrics. The lines before the last are a readable report (environment,
failed ratio, sample counts, case coverage, problems); the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 360
HELD_OUT_SEED = 2408
SETUP_CHILDREN = 20  # spread evenly over the timed phase
CLI_PROBES = 5
CLI_MIXES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds it took, and exit")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json for the default and held-out seeds")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_golden:
        parser.error("--workload is required")
    return args


def load_workloads():
    if not (ROOT / "src" / "bicircle" / "__init__.py").is_file():
        sys.exit(f"bicircle sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def tail_percentile(n: int) -> float:
    """Highest percentile, in steps of 0.5, with at least ten of n samples beyond it."""
    pct = 99.5
    while pct > 50 and n - math.ceil(pct / 100 * n) < 10:
        pct -= 0.5
    return pct


def case_shares(wl):
    """Share of ops per Ordering and per CaseFlag over one cycle of the workload.

    Every run repeats whole cycles, so these are the shares of the whole run.
    """
    from bicircle import CaseFlag, Ordering

    orderings, flags = Counter(), Counter()
    n = 0
    for i in range(wl.cycle):
        for ordering, case in wl.cases(i):
            n += 1
            orderings[ordering.value] += 1
            flags.update(flag.value for flag in case)
    return {
        "base": n,
        "Ordering": {o.value: orderings[o.value] / n for o in Ordering},
        "CaseFlag": {f.value: flags[f.value] / n for f in CaseFlag},
    }


def reference_digest(wl):
    """Digest of the traced prefix's outputs and cases, as recorded in golden.json."""
    digest = hashlib.sha256()
    for i in range(wl.trace_calls):
        digest.update(wl.encode(i, wl.op(i)))
        for ordering, case in wl.cases(i):
            digest.update(repr((ordering.value, sorted(f.value for f in case))).encode())
    return digest.hexdigest()


def check_golden(wl, seed, problems):
    recorded = json.loads(GOLDEN.read_text())["digests"].get(wl.name, {}).get(str(seed))
    if recorded is not None and reference_digest(wl) != recorded:
        problems.append(f"outputs for seed {seed} differ from golden.json")


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed):
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def child_env() -> dict:
    """Environment for child interpreters: ``bicircle`` is importable from src."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(call, wl, i, problems):
    """One op with its output checked; returns (seconds, units failed)."""
    try:
        t0 = time.perf_counter()
        out = call(i)
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # a raising op is a failed op, never a skipped one
        problems.append(f"op {i}: {type(exc).__name__}: {exc}")
        return None, wl.per_call
    return elapsed, wl.check(i, out)


def setup_sample(args) -> float:
    """Set-up time of one fresh interpreter, which this process waits for."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, check=True, cwd=ROOT, text=True,
    ).stdout
    return float(out.split()[-1])


def untraced(args, wl, setup_s, problems):
    """Closed loop over whole cycles of the workload for ``args.seconds``.

    Other programs on a shared machine slow ops down, for seconds to minutes
    and often on one CPU only, and never speed them up. So successive cycles
    run on each of this process's CPUs in turn, each op's latency is its
    fastest run across the cycles, and the rate, median and tail all come from
    those per-op latencies. Between cycles, fresh interpreters set the
    workload up again at SETUP_CHILDREN evenly spaced moments, so the median
    set-up time does not hang on one slow stretch.
    """
    setup = [setup_s]
    cpus = sorted(os.sched_getaffinity(0))
    best = [math.inf] * wl.cycle
    attempted = failed = cycles = 0
    start = time.perf_counter()
    try:
        while cycles == 0 or time.perf_counter() - start < args.seconds:
            os.sched_setaffinity(0, {cpus[cycles % len(cpus)]})
            for i in range(wl.cycle):
                seconds, bad = run_op(wl.op, wl, i, problems)
                attempted += wl.per_call
                failed += bad
                if seconds is not None and not bad:
                    best[i] = min(best[i], seconds)
            cycles += 1
            if time.perf_counter() - start >= (len(setup) - 1) * args.seconds / SETUP_CHILDREN:
                os.sched_setaffinity(0, cpus)  # the child may run on either CPU
                setup.append(setup_sample(args))
    finally:
        os.sched_setaffinity(0, cpus)
    wall = time.perf_counter() - start
    if failed and not problems:
        problems.append(f"{failed} of {attempted} ops gave wrong output")
    latencies = sorted(b / wl.per_call * 1e6 for b in best if b < math.inf) or [math.inf]
    pct = tail_percentile(len(latencies))
    rank = math.ceil(pct / 100 * len(latencies))
    coverage = case_shares(wl)
    for flag, minimum in getattr(wl, "min_shares", {}).items():
        if coverage["CaseFlag"][flag] < minimum:
            problems.append(f"{flag} share below its stated minimum {minimum}")
    check_golden(wl, args.seed, problems)
    while len(setup) <= SETUP_CHILDREN:
        setup.append(setup_sample(args))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (1e6 * len(latencies) / sum(latencies), "ops/s"),
        "op_p50_us": (statistics.median(latencies), "us"),
        "op_tail_us": (latencies[rank - 1], "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "failed_ratio": {"value": failed / attempted, "unit": "fraction",
                         "failed": failed, "attempted": attempted},
        "cycles": cycles,
        "op_tail_us": {"percentile": pct, "samples": len(latencies),
                       "beyond": len(latencies) - rank},
        "wall_ops_per_s": (attempted - failed) / wall,
        "setup_s": {"samples": setup},
        "coverage": coverage,
    }
    return metrics, details, attempted, failed


def cli_probes(workloads, seed, problems):
    """The cli layer: start-up split from child interpreters, then warm main() in-process."""
    env = child_env()
    bare, site, imports = [], [], []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        bare.append((time.perf_counter() - t0) * 1e3)
        stderr = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bicircle.cli"],
            check=True, env=env, cwd=ROOT, capture_output=True, text=True,
        ).stderr
        # Top-level lines only: "import time: self | cumulative | name".
        top = {
            m.group(2): int(m.group(1))
            for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \| (\S+)$", stderr, re.M)
        }
        site.append(top["site"] / 1e3)
        imports.append(top["bicircle.cli"] / 1e3)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        commands = workloads.cli_commands(seed, Path(workdir))
        expected = [workloads.run_cli(argv) for argv in commands]  # also the warm-up
        t0 = time.perf_counter()
        outputs = [workloads.run_cli(argv) for _ in range(CLI_MIXES) for argv in commands]
        main_s = time.perf_counter() - t0
    if any(code != 0 for code, _ in expected) or outputs != expected * CLI_MIXES:
        problems.append("in-process CLI commands failed or gave different output")
    return {
        "cli.interpreter_ms": (statistics.median(bare), "ms"),
        "cli.site_ms": (statistics.median(site), "ms"),
        "cli.import_ms": (statistics.median(imports), "ms"),
        "cli.main_us": (main_s / len(outputs) * 1e6, "us/cmd"),
        "cli.stdout_bytes": (sum(len(out.encode()) for _, out in outputs) / len(outputs), "bytes/cmd"),
    }


def traced(args, wl, workloads, problems):
    from tracer import Tracer, count_fractions

    budget = args.seconds * 0.3
    ops_per_pass = wl.trace_calls * wl.per_call
    attempted = failed = 0

    def run_pass(call):
        """Run the traced prefix of the cycle once; return the seconds spent in ops."""
        nonlocal attempted, failed
        total = 0.0
        for i in range(wl.trace_calls):
            seconds, bad = run_op(call, wl, i, problems)
            total += seconds or 0.0
            attempted += wl.per_call
            failed += bad
        return total

    plain = []
    while sum(plain) < budget or len(plain) < 2:
        plain.append(run_pass(wl.op))

    tracers, passes = [], []
    while sum(passes) < budget or len(passes) < 2:
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(lambda i: tracer.run_op(i, wl.op, i)))
        finally:
            tracer.uninstall()
        tracers.append(tracer)

    fraction_counts = []
    for _ in range(2):
        built = []

        def counted(i):
            n, out = count_fractions(wl.op, i)
            built.append(n)
            return out

        run_pass(counted)
        fraction_counts.append(sum(built))

    if failed and not problems:
        problems.append(f"{failed} of {attempted} traced ops gave wrong output")
    counts = [t.call_counts() for t in tracers]
    if any(c != counts[0] for c in counts) or fraction_counts[0] != fraction_counts[1]:
        problems.append("deterministic counts differ between traced passes")
    check_golden(wl, args.seed, problems)

    total, own = Counter(), Counter()
    for tracer in tracers:
        t, o = tracer.times_ns()
        total.update(t)
        own.update(o)
    traced_ops = ops_per_pass * len(tracers)

    def us(counter, name):
        return counter[name] / traced_ops / 1e3

    count = counts[0]

    def per_op(name):
        return count[name] / ops_per_pass

    draws = count["scenario.validate.sampling"]
    metrics = {
        "exact.second_intersection.us": (us(total, "exact.second_intersection"), "us/op"),
        "exact.line_through.us": (us(total, "exact.line_through"), "us/op"),
        "exact.meet.us": (us(total, "exact.meet"), "us/op"),
        "exact.tangent_at.us": (us(total, "exact.tangent_at"), "us/op"),
        "exact.calls": (per_op("exact.calls"), "count/op"),
        "exact.fraction_new": (fraction_counts[0] / ops_per_pass, "count/op"),
        "exact.max_bits": (max(t.max_bits for t in tracers), "bits"),
        "scenario.validate.us": (us(total, "scenario.validate"), "us/op"),
        "scenario.validate.calls": (per_op("scenario.validate"), "count/op"),
        "scenario.derive.us": (us(total, "scenario.derive"), "us/op"),
        "scenario.accept_ratio": (count["construction.random_scenario"] / draws if draws else 0.0, "ratio"),
        "construction.construct_image.self_us": (us(own, "construction.construct_image"), "us/op"),
        "construction.image_closed_form.us": (us(total, "construction.image_closed_form"), "us/op"),
        "construction.locus_x.us": (us(total, "construction.locus_x"), "us/op"),
        "construction.sampling.us": (us(total, "construction.sampling"), "us/op"),
        "figures.layout.us": (us(total, "figures.layout"), "us/op"),
        "figures.render_svg.self_us": (us(own, "figures.render_svg"), "us/op"),
        "figures.meet.calls": (per_op("figures.meet"), "count/op"),
        "figures.decimal6.calls": (per_op("figures.decimal6"), "count/op"),
        "figures.svg_bytes": (per_op("figures.svg_bytes"), "bytes/op"),
        **cli_probes(workloads, args.seed, problems),
        "trace.overhead_ratio": (min(plain) / min(passes), "ratio"),
    }
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{wl.name}-{args.seed}.json"
    trace_file.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "op", "caller"],
        "passes": [t.spans for t in tracers],
    }))
    details = {
        "trace_file": str(trace_file.relative_to(ROOT)),
        "ops_per_pass": ops_per_pass,
        "traced_passes": len(tracers),
        "untraced_passes": len(plain),
        "untraced_ops_per_s": ops_per_pass / min(plain),
        "traced_ops_per_s": ops_per_pass / min(passes),
        "accept_ratio_base": draws,
        "counts_per_pass": dict(sorted(count.items())),
        "fraction_new_per_pass": fraction_counts,
        "coverage": case_shares(wl),
    }
    return metrics, details, attempted, failed


def record_golden(workloads):
    digests = {
        name: {str(seed): reference_digest(cls(seed)) for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        for name, cls in workloads.WORKLOADS.items()
    }
    GOLDEN.write_text(json.dumps({"digests": digests}, indent=2) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_workloads()
    if args.record_golden:
        record_golden(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(setup_s)
        return 0
    problems = []
    if args.trace:
        metrics, details, attempted, failed = traced(args, wl, workloads, problems)
    else:
        metrics, details, attempted, failed = untraced(args, wl, setup_s, problems)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": metrics,
        "details": details,
        "problems": problems[:20],
    }, indent=2))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
