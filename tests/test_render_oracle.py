"""A geometric oracle for rendered figures: each document checked against its model.

The golden files prove that a figure is unchanged, not that it is right.
check_document parses a document with xml.etree, reads every six-decimal text
as an exact Fraction and compares it with the model: the named points and
lines of reference.figure_model, which never calls construct_image, and a
canvas computed here from them. A printed coordinate is its exact value
rounded to six decimals, so within DELTA of it, and a printed point moved by
a pixel offset is within 2·DELTA of the printed point at that offset. It
checks:

* the transform, the circles and every marker on the canvas, each at its model value;
* which elements are drawn: one marker or arrow, and with labels one label,
  per named point; the caption exactly when P′ is at infinity; each line
  exactly when it meets the canvas, the image line unless the circles touch;
* every line's ends on its model line; a full line's ends on the canvas
  edge, apart; a chord's ends at its extreme points, or where it leaves the
  canvas between them;
* every clipped-marker arrow: its tip on the canvas edge on its point's
  side, on the ray from the canvas center to the point, and its base
  ARROW_LEN pixels back along the signs of that ray, ARROW_HALF either side;
* every label anchor at its pixel offset from its marker or its arrow's tip,
  and the caption at its offset from the top-left corner.

The comparisons cross-multiply numerators and denominators instead of
building Fractions, so that the 1,350 documents of the first test render
and pass in under 3 s.
"""

import random
import re
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction as F

from bicircle import (
    DegenerateProbe,
    ProbePoint,
    RenderSpec,
    ScenarioConfig,
    construct_image,
    derive,
    random_probe,
    random_scenario,
    render_svg,
)
from bicircle.cli import build_parser
from reference import circles, figure_model
from test_figures import far_probe_specs, render_svg_cycle
from test_golden import CASES, GOLDEN

DELTA = F(1, 2 * 10**6)  # the largest rounding error of one six-decimal text
SVG = "{http://www.w3.org/2000/svg}"
SIX = re.compile(r"-?\d+\.\d{6}")
TRANSFORM = re.compile(r"translate\((\S+) (\S+)\) scale\((\S+)\)")
NAMES = ("A", "B", "C", "D", "P", "M", "N", "P′")
LABEL = (5, 7)  # a label's offset from its marker, in pixels, y up
ARROW_LEN, ARROW_HALF = 9, 3  # a clipped-marker arrow's length and half width, in pixels
CAPTION = (10, -21)  # the caption's offset from the canvas's top-left corner, in pixels, y up


def six(text) -> F:
    """The exact value of a six-decimal text; ValueError for any other text."""
    if not SIX.fullmatch(text):
        raise ValueError(f"not a six-decimal text: {text!r}")
    return F(int(text.replace(".", "")), 10**6)


def within(u, v, slack=1) -> bool:
    """|u - v| <= slack·DELTA for exact rationals u and v."""
    ud, vd = u.denominator, v.denominator
    return 2 * 10**6 * abs(u.numerator * vd - v.numerator * ud) <= slack * ud * vd


def near(printed, exact, slack=1) -> bool:
    """Each printed coordinate within slack·DELTA of its exact value."""
    return all(within(u, v, slack) for u, v in zip(printed, exact))


def sign(v) -> int:
    return (v > 0) - (v < 0)


def value(coefficients, x, y) -> tuple[int, int]:
    """a·x + b·y + c for a line's integer coefficients at rationals (x, y), as (numerator, denominator)."""
    a, b, c = coefficients
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    return a * xn * yd + b * yn * xd + c * xd * yd, xd * yd


class Canvas:
    """The canvas of a spec in model units, y up, computed from the model's points.

    The circles' box, and without clipping every finite named point too,
    fills 4/5 of the canvas in its tighter dimension, centered.
    """

    def __init__(self, spec, points):
        r = max(spec.scene.cfg.r1, spec.scene.cfg.r2)
        xs, ys = [points["A"].x, points["D"].x], [-r, r]
        if not spec.clip:
            xs += [point.x for point in points.values() if point]
            ys += [point.y for point in points.values() if point]
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        width, height = spec.width, spec.height
        self.scale = scale = min(F(4 * width, 5) / (x1 - x0), F(4 * height, 5) / (y1 - y0))
        self.tx, self.ty = F(width, 2) - scale * (x0 + x1) / 2, F(height, 2) + scale * (y0 + y1) / 2
        self.xmin, self.xmax = -self.tx / scale, (width - self.tx) / scale
        self.ymin, self.ymax = (self.ty - height) / scale, self.ty / scale
        self.center = (self.xmin + self.xmax) / 2, (self.ymin + self.ymax) / 2

    def inside(self, point) -> bool:
        return self.xmin <= point.x <= self.xmax and self.ymin <= point.y <= self.ymax

    def meets(self, coefficients) -> bool:
        """The line takes both signs, or zero, on the canvas's corners."""
        signs = {sign(value(coefficients, x, y)[0]) for x in (self.xmin, self.xmax) for y in (self.ymin, self.ymax)}
        return signs != {1} and signs != {-1}

    def edges_near(self, end) -> list[bool]:
        """Whether end is within DELTA of the edges x = xmin, x = xmax, y = ymin and y = ymax."""
        x, y = end
        return [within(x, self.xmin), within(x, self.xmax), within(y, self.ymin), within(y, self.ymax)]

    def on_edge(self, end) -> bool:
        """end is in the canvas and on its edge, each within DELTA."""
        (x, y), (left, right, bottom, top) = end, self.edges_near(end)
        return ((self.xmin <= x <= self.xmax or left or right) and (self.ymin <= y <= self.ymax or bottom or top)
                and (left or right or bottom or top))

    def moved(self, start, dx, dy) -> tuple[F, F]:
        """start moved by (dx, dy) pixels, y up."""
        return start[0] + F(dx) / self.scale, start[1] + F(dy) / self.scale


def at(el, x="x", y="y") -> tuple[F, F]:
    """An element's printed point in model units, y up."""
    return six(el.get(x)), -six(el.get(y))


def check_document(spec, svg, seen=None) -> list[str]:
    """The oracle's complaints about spec's rendered document svg, as strings: none when it is right.

    seen, a Counter, counts the arrows by their direction, the cut chord
    ends, the labels by what they are placed from, and the captions checked.
    """
    seen = Counter() if seen is None else seen
    points, lines = figure_model(spec.scene.cfg, spec.probe.p, spec.probe.q)
    if not spec.show_radical_axis:
        del lines["radical-axis"]
    canvas = Canvas(spec, points)
    named = [(name, points[name]) for name in NAMES if points[name]]  # P′ at infinity has no marker

    group = ET.fromstring(svg).find(SVG + "g")
    printed = [six(v) for v in TRANSFORM.fullmatch(group.get("transform")).groups()]
    transform = canvas.tx, canvas.ty, canvas.scale
    bad = [] if near(printed, transform) else [f"transform {printed} is not {transform}"]

    elements = {}  # each element by (tag, class, data-name)
    for el in group:
        key = el.tag.removeprefix(SVG), el.get("class"), el.get("data-name")
        bad += [f"{key} is drawn twice"] * (key in elements)
        elements[key] = el
    expected = {("circle", "circle-k1", None), ("circle", "circle-k2", None)}
    expected |= {("line", cls, None) for cls, model in lines.items() if canvas.meets(model.coefficients)}
    for name, point in named:
        marker = ("circle", "point-marker", name) if canvas.inside(point) else ("polygon", "point-marker clipped", name)
        expected |= {marker, ("text", "point-label", name)} if spec.labels else {marker}
    if points["P′"] is None:
        expected.add(("text", "caption", None))
    if set(elements) != expected:
        missing, extra = sorted(expected - set(elements), key=str), sorted(set(elements) - expected, key=str)
        return bad + [f"elements missing: {missing}; extra: {extra}"]

    for cls, circle in zip(("circle-k1", "circle-k2"), circles(spec.scene.cfg)):
        el = elements["circle", cls, None]
        if not near((*at(el, "cx", "cy"), six(el.get("r"))), (circle.center.x, circle.center.y, circle.radius)):
            bad.append(f"{cls} is not {circle}")

    for cls, model in lines.items():
        if ("line", cls, None) in elements:
            bad += check_line(cls, model, elements["line", cls, None], points, canvas, seen)

    for name, point in named:
        if canvas.inside(point):
            anchor, offset = at(elements["circle", "point-marker", name], "cx", "cy"), LABEL
            if not near(anchor, (point.x, point.y)):
                bad.append(f"marker {name} at {anchor} is not {point}")
        else:
            arrow = elements["polygon", "point-marker clipped", name]
            bad += check_arrow(name, point, arrow, canvas)
            anchor = at_pair(arrow.get("points").split()[0])
            ux, uy = sign(point.x - canvas.center[0]), sign(point.y - canvas.center[1])
            offset = (1 - 4 * (ux > 0)) * LABEL[0], (1 - 3 * (uy > 0)) * LABEL[1]
            seen["arrow", ux, uy] += 1
        label = elements.get(("text", "point-label", name))
        if label is not None:
            seen["label from", "marker" if offset == LABEL else "tip"] += 1
            if label.text != name or not near(at(label), canvas.moved(anchor, *offset), 2):
                bad.append(f"label {name} is not {offset} pixels from its marker or tip")

    caption = elements.get(("text", "caption", None))
    if caption is not None:
        seen["caption"] += 1
        corner = canvas.xmin, canvas.ymax
        if caption.text != "P′ at infinity" or not near(at(caption), canvas.moved(corner, *CAPTION)):
            bad.append("the caption is not at its offset from the top-left corner")
    return bad


def check_line(cls, model, el, points, canvas, seen) -> list[str]:
    """The complaints about a drawn line: its ends on its model line, from edge to edge or at a chord's ends."""
    ends = at(el, "x1", "y1"), at(el, "x2", "y2")
    a, b, _ = model.coefficients
    bad = []
    for x, y in ends:
        n, d = value(model.coefficients, x, y)
        if 2 * 10**6 * abs(n) > (abs(a) + abs(b)) * d:  # |a·x + b·y + c| > (|a| + |b|)·DELTA
            bad.append(f"{cls} end ({x}, {y}) is off its line {model}")
    if not cls.startswith("chord"):  # a full line
        if not all(map(canvas.on_edge, ends)) or near(*ends, 2):
            bad.append(f"{cls} does not run from edge to edge: {ends}")
        return bad
    # A chord's ends: its extreme points in (x, y) order, each cut where it leaves the canvas if off it.
    base, other = cls[-2:].upper()
    first, *_, last = sorted({points[base], points["P"], points[other]}, key=lambda pt: (pt.x, pt.y))
    (x0, x1), (y0, y1) = sorted((first.x, last.x)), sorted((first.y, last.y))
    for end, extreme in zip(ends, (first, last)):
        if canvas.inside(extreme):
            right = near(end, (extreme.x, extreme.y))
        else:
            seen["cut chord end"] += 1
            right = canvas.on_edge(end) and near(end, (min(max(end[0], x0), x1), min(max(end[1], y0), y1)))
        if not right:
            bad.append(f"{cls} end {end} is neither its extreme point {extreme} nor where it leaves the canvas")
    return bad


def at_pair(pair) -> tuple[F, F]:
    """A polygon's printed "x,y" point in model units, y up."""
    x, y = pair.split(",")
    return six(x), -six(y)


def check_arrow(name, point, polygon, canvas) -> list[str]:
    """The complaints about the arrow that marks an off-canvas point."""
    tip, left, right = map(at_pair, polygon.get("points").split())
    (cx, cy), bad = canvas.center, []
    # On an edge beyond which the point lies: the canvas's side where the point is.
    beyond = point.x < canvas.xmin, point.x > canvas.xmax, point.y < canvas.ymin, point.y > canvas.ymax
    if not (canvas.on_edge(tip) and any(map(bool.__and__, canvas.edges_near(tip), beyond))):
        bad.append(f"arrow {name}'s tip {tip} is not on the canvas edge on the side of {point}")
    (dx, dy), (ex, ey) = (point.x - cx, point.y - cy), (tip[0] - cx, tip[1] - cy)
    if not within(ex * dy, ey * dx, abs(dx) + abs(dy)) or ex * dx + ey * dy <= 0:
        bad.append(f"arrow {name}'s tip {tip} is not on the ray from the canvas center to {point}")
    ux, uy = sign(dx), sign(dy)
    base = canvas.moved(tip, -ux * ARROW_LEN, -uy * ARROW_LEN)
    wings = canvas.moved(base, -uy * ARROW_HALF, ux * ARROW_HALF), canvas.moved(base, uy * ARROW_HALF, -ux * ARROW_HALF)
    if not (near(left, wings[0], 2) and near(right, wings[1], 2)):
        bad.append(f"arrow {name} does not point along ({ux}, {uy}) from its tip")
    return bad


def clipped_specs(seed, count):
    """count clipped specs of seeded scenes, about one in five tangent, with P pushed out every way.

    About one probe in eight is put on the axis, and about one in eight over
    the canvas's center, straight above or below it. Canvases run from 64 to
    1001 pixels a side, and the labels and the radical axis are each left
    out of about one document in five.
    """
    rng = random.Random(f"render-oracle/{seed}")
    specs = []
    while len(specs) < count:
        cfg = random_scenario(rng)
        if rng.random() < 0.2 and 2 * cfg.a > cfg.r1:
            cfg = ScenarioConfig(cfg.a, cfg.r1, 2 * cfg.a - cfg.r1)
        scene = derive(cfg)
        probe = random_probe(rng, scene)
        x, y = rng.choice(((1, 1), (40, 1), (1, 40), (25, 25), (-40, 1), (1, -40), (-25, 25), (25, -25)))
        p = (cfg.r2 - cfg.r1) / 2 if rng.random() < 0.125 else probe.p * x  # the center is ((r2 - r1)/2, 0)
        probe = ProbePoint(p, 0 if rng.random() < 0.125 else probe.q * y)
        options = {"width": rng.randint(64, 1001), "height": rng.randint(64, 1001),
                   "labels": rng.random() < 0.8, "show_radical_axis": rng.random() < 0.8}
        try:
            specs.append(RenderSpec(scene, probe, construct_image(scene, probe), clip=True, **options))
        except DegenerateProbe:  # pushed onto B or C along the axis
            continue
    return specs


def violations(specs, seen=None) -> dict:
    """The oracle's complaints about each spec's rendered document, by the spec's index, where it has any."""
    return {i: bad for i, spec in enumerate(specs) if (bad := check_document(spec, render_svg(spec), seen))}


def test_every_figure_is_drawn_where_its_model_puts_it():
    # The benchmark's render-svg cycles, far probes with cut chords, and
    # clipped documents with arrows on every side of the canvas.
    specs = render_svg_cycle(360) + render_svg_cycle(2408) + far_probe_specs() + clipped_specs(360, 1000)
    seen = Counter()
    assert violations(specs, seen) == {}
    # Arrows of all eight directions, with their labels; cut chords; captions.
    directions = {key[1:] for key in seen if key[0] == "arrow"}
    assert directions == {(ux, uy) for ux in (-1, 0, 1) for uy in (-1, 0, 1)} - {(0, 0)}
    assert min(seen[key] for key in seen if key[0] == "arrow") >= 30
    assert seen["label from", "tip"] >= 1000 and seen["cut chord end"] >= 1000 and seen["caption"] >= 300


def test_every_golden_figure_is_drawn_where_its_model_puts_it():
    # The render command's committed SVGs, the ~100-digit one among them, each
    # against the spec its arguments ask for. The six demo figures open the
    # render-svg cycle above; tests/test_golden.py holds them to demos/output.
    names = [name for name, argv in CASES.items() if argv[0] == "render"]
    for name in names:
        args = build_parser().parse_args(CASES[name])
        scene, probe = derive(ScenarioConfig(args.a, args.r1, args.r2)), ProbePoint(args.p, args.q)
        spec = RenderSpec(scene, probe, construct_image(scene, probe), args.width, args.height,
                          not args.no_radical_axis, not args.no_labels, args.clip)
        assert check_document(spec, (GOLDEN / f"{name}.svg").read_text(encoding="utf-8")) == [], name
    assert len(names) == 8
