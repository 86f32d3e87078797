"""The benchmark under perfbench/ still binds to the package it measures.

Each workload calls the public API, and the traced run (--trace 1) looks up
every name in tracer.SPANNED and tracer.COUNTED with getattr. A name the
package drops breaks the benchmark, so both are exercised here on a few ops.
"""

import sys
from math import gcd
from pathlib import Path
from xml.etree import ElementTree

import pytest

import bicircle
from reference import calls_made, circles, map_bits

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden"
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
        bicircle.derive(bicircle.ScenarioConfig(2, 3, 2))
    finally:
        spans.uninstall()
    assert bicircle.scenario.derive is original
    assert "scenario.derive" in {span[tracer.NAME] for span in spans.spans}


def test_traced_decimal6_counts_every_coordinate():
    # figures.decimal6.calls is the benchmark's rounding work count: the
    # traced counter must see each coordinate the renderer formats.
    workload = workloads.RenderSvg(SEED)
    rounding = bicircle.figures.decimal6
    made = calls_made(rounding, lambda: [workload.op(i) for i in range(OPS)])
    counter = tracer.Tracer()
    counter.install()
    try:
        for i in range(OPS):
            workload.op(i)
    finally:
        counter.uninstall()
    assert bicircle.figures.decimal6 is rounding
    assert counter.counts["figures.decimal6"] == made > 50 * OPS


def cycle_calls(workload, target):
    """Calls of the Python function target made over one cycle of the workload's ops."""
    return calls_made(target, lambda: [workload.op(i) for i in range(workload.cycle)])


def test_sweep_tall_cycle_computes_no_frames():
    # Set-up builds every config, whose constructor writes its frame, so the
    # timed ops order no scenario.
    assert cycle_calls(workloads.SweepTall(SEED), bicircle.scenario._order) == 0


def test_sweep_tall_cycle_builds_no_line():
    # AM and DN take their content from one two-term gcd, without Line.__init__,
    # and so do the tangents at A and D of the cycle's 23 probes on the axis.
    workload = workloads.SweepTall(SEED)
    assert sum(probe.q == 0 for _, _, probe in workload.ops) == 23
    assert cycle_calls(workload, bicircle.Line.__init__) == 0


@pytest.mark.parametrize("seed", [360, 2408])
def test_sweep_tall_conics_are_canonical(seed):
    # ~100-digit values: written over the frame's denominator, each conic of
    # these scenes has a common factor of 325 to 821 bits, which derive drops.
    for scene in {id(scene): scene for _, scene, _ in workloads.SweepTall(seed).ops}.values():
        for conic, circle in zip(scene._conics, circles(scene.cfg)):
            assert gcd(*conic) == 1 and conic[0] > 0
            assert bicircle.exact._conic(circle) == conic


# The closed form's size on sweep-tall: bit lengths of _image_map's x, w and s
# summed over a cycle (reference.map_bits). Unlike the timings it is exact on
# any machine, and a spare factor of the probe line's denominator raises it.
SWEEP_TALL_MAP_BITS = {360: 963_520, 2408: 994_577}


@pytest.mark.parametrize("seed", sorted(SWEEP_TALL_MAP_BITS))
def test_sweep_tall_image_map_bits(seed):
    assert map_bits(workloads.SweepTall(seed).ops) == SWEEP_TALL_MAP_BITS[seed]


# SHA-256 of all RenderSvg(seed) documents joined in op order, recorded at
# 018eb28. The workload's own check compares each seeded variant only with
# its first rendering, so a change that alters every rendering alike would
# still read "correct" there; this digest pins the bytes themselves.
RENDER_CORPUS = {
    360: "e88502a6a41d0e87da5eef92280dd2b60f75b5fc8f68f1d13f004609f8ec89ec",
    2408: "a0f4a768bbfe6cdfef27ae729d72ee3e9d9730d42d33da61775e44fcf7ce82dc",
}


@pytest.mark.parametrize("seed", sorted(RENDER_CORPUS))
def test_render_svg_corpus_frozen(seed):
    workload = workloads.RenderSvg(seed)
    assert workload.cycle == 100
    corpus = "".join(workload.op(i) for i in range(workload.cycle))
    assert workloads.sha(corpus.encode()) == RENDER_CORPUS[seed]


def test_each_element_class_has_one_paint():
    # Over both corpora and the golden figures: a class has one colour in
    # every document, and one stroke width, dash array and font size within
    # a document, whose scale sets them. The classes are the style table's.
    corpora = [workloads.RenderSvg(seed) for seed in RENDER_CORPUS]
    documents = [workload.op(i) for workload in corpora for i in range(workload.cycle)]
    documents += [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.svg"))]
    colours = {}
    for document in documents:
        sizes = {}
        for element in ElementTree.fromstring(document).find("{http://www.w3.org/2000/svg}g"):
            get = element.get
            cls = get("class")
            colours.setdefault(cls, set()).add((get("stroke"), get("fill"), get("font-family")))
            sizes.setdefault(cls, set()).add((get("stroke-width"), get("stroke-dasharray"), get("font-size")))
        assert {cls: paints for cls, paints in sizes.items() if len(paints) > 1} == {}
    assert {cls: paints for cls, paints in colours.items() if len(paints) > 1} == {}
    assert set(colours) == set(bicircle.figures._STYLES)


# SHA-256 of SweepTall(seed).encode(i, op(i)) over the whole 353-op cycle,
# recorded at e11c22f. perfbench/golden.json pins only the 96-op prefix the
# traced run repeats; this digest pins every op's P′ (both routes) and p'.
SWEEP_TALL_CORPUS = {
    360: "e8bf8b31d2a8381cef08da2969d3b97edb901f4a645862a38f1a2fcf325bd1b4",
    2408: "f35433d758d3b3eab5d7b9b145ee3652fd543a12837397cde2c03d4bab5e79ec",
}


@pytest.mark.parametrize("seed", sorted(SWEEP_TALL_CORPUS))
def test_sweep_tall_corpus_frozen(seed):
    workload = workloads.SweepTall(seed)
    assert workload.cycle == 353
    corpus = b"".join(workload.encode(i, workload.op(i)) for i in range(workload.cycle))
    assert workloads.sha(corpus) == SWEEP_TALL_CORPUS[seed]
