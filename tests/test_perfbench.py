"""The benchmark under perfbench/ still binds to the package it measures.

Each workload calls the public API, and the traced run (--trace 1) looks up
every name in tracer.SPANNED and tracer.COUNTED with getattr. A name the
package drops breaks the benchmark, so both are exercised here on a few ops.
"""

import sys
from pathlib import Path

import pytest

import bicircle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 360
OPS = 3

sys.path.insert(0, str(PERFBENCH))
try:
    import tracer
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_ops_check_clean(name):
    workload = workloads.WORKLOADS[name](SEED)
    for i in range(OPS):
        assert workload.check(i, workload.op(i)) == 0
        assert workload.cases(i)


def test_tracer_installs_and_uninstalls():
    original = bicircle.scenario.derive
    spans = tracer.Tracer()
    spans.install()
    try:
        assert bicircle.scenario.derive is not original
        bicircle.run_oracle_fuzz(2, SEED)
    finally:
        spans.uninstall()
    assert bicircle.scenario.derive is original
    assert "scenario.derive" in {span[tracer.NAME] for span in spans.spans}
