"""SVG rendering: determinism, element presence, exact coordinate round-trips."""

import ast
import inspect
import random
import string
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from bicircle import (
    DegenerateProbe,
    Ordering,
    ProbePoint,
    RenderSpec,
    ScenarioConfig,
    construct_image,
    derive,
    figures,
    layout,
    render_svg,
)
from bicircle.exact import Line, Point2, _cross, _triple
from bicircle.figures import _PIXELS, _STYLES, Viewport, _clip, _Emitter, _octant, decimal6
from reference import calls_made, circles, far_probe_specs, render_svg_cycle

WORKED = ScenarioConfig(2, 3, 2)
TANGENT = ScenarioConfig(2, 2, 2)
TOLERANCE = F(1, 10**6)


def spec_with_probe(cfg, p, q, **kwargs):
    scene = derive(cfg)
    probe = ProbePoint(p, q)
    return RenderSpec(scene=scene, probe=probe, result=construct_image(scene, probe), **kwargs)


FIG_GENERIC = spec_with_probe(WORKED, 2, 1)
FIG_AXIS_PROBE = spec_with_probe(WORKED, 3, 0)
FIG_TOUCHING = spec_with_probe(TANGENT, 1, 1)


def find(svg, tag=None, cls=None, name=None):
    out = []
    for el in ET.fromstring(svg).iter():
        if tag and el.tag.split("}")[-1] != tag:
            continue
        if cls and cls not in el.get("class", "").split():
            continue
        if name and el.get("data-name") != name:
            continue
        out.append(el)
    return out


def assert_close(attr_text, exact):
    assert abs(F(attr_text) - exact) < TOLERANCE


class TestDecimal6:
    def test_simple(self):
        assert decimal6(5, 8) == "0.625000"
        assert decimal6(13, 1) == "13.000000"
        assert decimal6(-18, 1) == "-18.000000"

    def test_truncating_repeating(self):
        assert decimal6(1, 3) == "0.333333"
        assert decimal6(-1, 3) == "-0.333333"
        assert decimal6(2, 3) == "0.666667"

    def test_half_to_even_ties(self):
        assert decimal6(1, 2_000_000) == "0.000000"
        assert decimal6(3, 2_000_000) == "0.000002"
        assert decimal6(-1, 2_000_000) == "0.000000"

    def test_matches_fraction_rounding(self):
        # round() on a Fraction rounds half to even; the renderer's one
        # rounding function must write its result.
        rng = random.Random(6)
        pairs = []
        for digits in (1, 7, 100):
            top = 10**digits
            for _ in range(200):
                n, d = rng.randrange(-top, top), rng.randrange(1, top)
                k, s = rng.randrange(-top, top), rng.randrange(1, top)
                # n/d, n/d near the sixth digit, zero over d, and a tie:
                # 2 * 10**6 * n an odd multiple of d.
                pairs += [(n, d), (n, d * 10**6), (0, d), ((2 * k + 1) * s, 2_000_000 * s)]
        ties = [n for n, d in pairs if 2_000_000 * n % d == 0 and 2_000_000 * n // d % 2]
        assert len(ties) >= 600 and min(ties) < 0 < max(ties)
        for n, d in pairs:
            k = round(F(n, d) * 10**6)
            expected = "-" * (k < 0) + "%d.%06d" % divmod(abs(k), 10**6)
            assert decimal6(n, d) == expected, (n, d)


class TestLayout:
    def test_circle_bbox_fills_constrained_dimension(self):
        # With clipping the layout covers the circles only.
        vp = layout(spec_with_probe(WORKED, 2, 1, clip=True))
        # model x-range [-5, 4] is the constrained dimension at 800x600
        assert vp.tx + vp.scale * -5 == 80
        assert vp.tx + vp.scale * 4 == 720
        assert vp.scale == F(640, 9)

    def test_far_image_point_included_by_default(self):
        xmin, xmax, ymin, ymax = ref_visible_rect(layout(FIG_GENERIC))
        point = FIG_GENERIC.result.p_prime.point
        assert xmin <= point.x <= xmax and ymin <= point.y <= ymax

    def test_clip_keeps_viewport_on_circles(self):
        clipped = RenderSpec(
            scene=FIG_GENERIC.scene, probe=FIG_GENERIC.probe,
            result=FIG_GENERIC.result, clip=True,
        )
        vp = layout(clipped)
        xmin, xmax, ymin, ymax = ref_visible_rect(vp)
        point = FIG_GENERIC.result.p_prime.point
        assert not (xmin <= point.x <= xmax and ymin <= point.y <= ymax)
        assert vp == layout(spec_with_probe(WORKED, 3, 0, clip=True))

    def test_minimum_canvas_size(self):
        with pytest.raises(ValueError):
            spec_with_probe(WORKED, 2, 1, width=63)
        with pytest.raises(ValueError):
            spec_with_probe(WORKED, 2, 1, height=32)

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [800.0, 600.0, "800", True, F(800)])
    def test_canvas_size_must_be_int(self, field, value):
        # Checked when the spec is built, naming the field, not later in layout.
        with pytest.raises(TypeError, match=field):
            spec_with_probe(WORKED, 2, 1, **{field: value})

    def test_probe_and_result_required(self):
        with pytest.raises(TypeError):
            RenderSpec(scene=derive(WORKED))


# Reference version of layout: the bounds over nine points it replaced.

def ref_layout(spec):
    scene, result = spec.scene, spec.result
    xs = [scene.A.x, scene.C.x, scene.B.x, scene.D.x]
    r1, r2 = scene.cfg.r1, scene.cfg.r2
    ys = [-r1, r1, -r2, r2]
    if not spec.clip:
        xs.append(scene.radical_axis_x)
        named = [Point2(spec.probe.p, spec.probe.q), result.M, result.N]
        if result.p_prime.is_finite:
            named.append(result.p_prime.point)
        xs += [point.x for point in named]
        ys += [point.y for point in named]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    scale = min(spec.width * F(4, 5) / (xmax - xmin), spec.height * F(4, 5) / (ymax - ymin))
    tx = F(spec.width, 2) - scale * (xmin + xmax) / 2
    ty = F(spec.height, 2) + scale * (ymin + ymax) / 2
    return Viewport(spec.width, spec.height, scale, tx, ty)


def ref_visible_rect(vp):
    """The model rectangle (xmin, xmax, ymin, ymax) on the full canvas, by Fraction formulas."""
    return (
        -vp.tx / vp.scale,
        (vp.width - vp.tx) / vp.scale,
        (vp.ty - vp.height) / vp.scale,
        vp.ty / vp.scale,
    )


def positive(rng, digits):
    """A small positive rational, or one whose numerator and denominator have ``digits`` digits."""
    if digits is None:
        return F(rng.randint(1, 40), rng.randint(1, 6))
    low, high = 10 ** (digits - 1), 10**digits
    return F(rng.randrange(low, high), rng.randrange(low, high))


CANVASES = ((64, 1001), (1001, 64))  # the most extreme aspect ratios drawn here


def seeded_specs(seed, count, digits=None):
    """Specs of every ordering; probes on the B, C or radical axis lines or off them, q = 0 or not.

    With digits, a, r1, r2, a free p and a nonzero q are drawn with numerators
    and denominators of that many digits. About one spec in five is drawn on
    one of CANVASES, the others on a canvas of 64 to 1001 pixels a side.
    """
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        a, r1 = positive(rng, digits), positive(rng, digits)
        tangent = rng.random() < 0.2 and 2 * a > r1
        r2 = 2 * a - r1 if tangent else positive(rng, digits)
        if 2 * a <= abs(r1 - r2):
            continue
        scene = derive(ScenarioConfig(a, r1, r2))
        if digits is None:
            free = F(rng.randint(-90, 90), 7)
        else:
            free = rng.choice((-1, 1)) * positive(rng, digits)
        p = rng.choice((scene.B.x, scene.C.x, scene.radical_axis_x, free))
        if rng.random() < 0.2:
            q = 0
        elif digits is None:
            q = F(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 9))
        else:
            q = rng.choice((-1, 1)) * positive(rng, digits)
        if rng.random() < 0.2:
            width, height = rng.choice(CANVASES)
        else:
            width, height = rng.randint(64, 1001), rng.randint(64, 1001)
        try:
            specs.append(spec_with_probe(scene.cfg, p, q, clip=rng.random() < 0.5,
                                         width=width, height=height))
        except DegenerateProbe:
            continue
    return specs


@pytest.fixture(scope="module")
def layout_specs():
    """1,500 small seeded specs and 200 with ~100-digit rationals, built once, when first asked for."""
    return seeded_specs("layout", 1500), seeded_specs("layout-tall", 200, digits=100)


class TestLayoutAgainstReference:
    def test_cases_cover_every_ordering_and_probe_line(self, layout_specs):
        small, tall = layout_specs
        for specs in (small, tall):
            assert {spec.scene.ordering for spec in specs} == set(Ordering)
            on = lambda line: sum(spec.probe.p == getattr(spec.scene, line).x for spec in specs)
            assert on("B") and on("C")
            assert sum(spec.probe.p == spec.scene.radical_axis_x for spec in specs)
            assert sum(spec.probe.q == 0 for spec in specs)
            assert {spec.clip for spec in specs} == {False, True}
            assert set(CANVASES) <= {(spec.width, spec.height) for spec in specs}
        for spec in tall:
            # Denominators of 100 digits, less the rare common factor.
            assert min(spec.scene.cfg.a.denominator, spec.scene.cfg.r1.denominator) > 10**90
            assert spec.probe.q == 0 or spec.probe.q.denominator > 10**90

    def test_layout_matches_reference(self, layout_specs):
        for spec in sum(layout_specs, []):
            assert layout(spec) == ref_layout(spec)

    def test_visible_rect_matches_reference(self, layout_specs):
        for spec in sum(layout_specs, []):
            vp = layout(spec)
            assert tuple(F(n, d) for n, d in vp._rect()) == ref_visible_rect(vp)
            assert all(d > 0 for _, d in vp._rect())  # _clip needs positive denominators

    def test_named_points_lie_in_the_circles_box(self, layout_specs):
        for spec in sum(layout_specs, []):
            scene, result = spec.scene, spec.result
            r = max(scene.cfg.r1, scene.cfg.r2)
            assert scene.A.x < scene.radical_axis_x < scene.D.x
            for point in (result.M, result.N, scene.B, scene.C):
                assert scene.A.x <= point.x <= scene.D.x and -r <= point.y <= r


class TestRenderedElements:
    def test_two_circles(self):
        svg = render_svg(FIG_GENERIC)
        assert len(find(svg, tag="circle", cls="circle-k1")) == 1
        assert len(find(svg, tag="circle", cls="circle-k2")) == 1

    def test_radical_axis_dashed_and_positioned(self):
        svg = render_svg(FIG_GENERIC)
        (axis,) = find(svg, cls="radical-axis")
        assert "stroke-dasharray" in axis.attrib
        assert axis.get("x1") == axis.get("x2") == "0.625000"

    def test_radical_axis_toggle(self):
        spec = spec_with_probe(WORKED, 2, 1, show_radical_axis=False)
        assert find(render_svg(spec), cls="radical-axis") == []

    def test_labels_present(self):
        svg = render_svg(FIG_GENERIC)
        texts = {el.text for el in find(svg, tag="text", cls="point-label")}
        assert {"A", "B", "C", "D", "P", "M", "N", "P′"} <= texts

    def test_labels_toggle(self):
        spec = spec_with_probe(WORKED, 2, 1, labels=False)
        svg = render_svg(spec)
        assert find(svg, cls="point-label") == []
        assert find(svg, cls="point-marker")  # markers stay

    def test_probe_and_image_lines(self):
        svg = render_svg(FIG_GENERIC)
        (probe,) = find(svg, cls="probe-line")
        (image,) = find(svg, cls="image-line")
        assert probe.get("x1") == "2.000000"
        assert image.get("x1") == "13.000000"

    def test_chords_drawn(self):
        svg = render_svg(FIG_GENERIC)
        assert find(svg, cls="chord-cm") and find(svg, cls="chord-bn")

    def test_styles_use_every_pixel_length(self):
        # A misspelt {key} would fail only when a document is rendered, and a
        # length no style names would go stale unnoticed.
        keys = {key for style in _STYLES.values() for _, key, _, _ in string.Formatter().parse(style)}
        assert keys - {None} == set(_PIXELS)


class TestDegenerateFigures:
    def test_axis_probe_tangent_lines_and_caption(self):
        svg = render_svg(FIG_AXIS_PROBE)
        assert find(svg, cls="point-marker", name="P′") == []
        (caption,) = find(svg, cls="caption")
        assert caption.text == "P′ at infinity"
        (am,) = find(svg, cls="construction-am")
        (dn,) = find(svg, cls="construction-dn")
        assert am.get("x1") == am.get("x2") == "-5.000000"
        assert dn.get("x1") == dn.get("x2") == "4.000000"

    def test_axis_probe_keeps_visible_image_line(self):
        # the image point is at infinity, but the image line itself is finite
        spec = spec_with_probe(WORKED, F(1, 2), 0)
        svg = render_svg(spec)
        (image,) = find(svg, cls="image-line")
        assert image.get("x1") == "-0.500000"
        assert find(svg, cls="caption")

    def test_touching_circles_have_no_image_line(self):
        assert find(render_svg(FIG_TOUCHING), cls="image-line") == []

    def test_touching_circles_parallel_lines(self):
        svg = render_svg(FIG_TOUCHING)
        (am,) = find(svg, cls="construction-am")
        (dn,) = find(svg, cls="construction-dn")
        vec = lambda el: (
            F(el.get("x2")) - F(el.get("x1")),
            F(el.get("y2")) - F(el.get("y1")),
        )
        ax, ay = vec(am)
        dx, dy = vec(dn)
        assert ax * dy - ay * dx == 0  # parallel
        assert find(svg, cls="caption")


class TestDeterminismAndRoundTrip:
    @pytest.mark.parametrize("spec", [FIG_GENERIC, FIG_AXIS_PROBE, FIG_TOUCHING])
    def test_byte_identical(self, spec):
        assert render_svg(spec) == render_svg(spec)

    def test_circle_attributes_round_trip(self):
        svg = render_svg(FIG_GENERIC)
        scene = FIG_GENERIC.scene
        for cls, circle in zip(("circle-k1", "circle-k2"), circles(scene.cfg)):
            (el,) = find(svg, cls=cls)
            assert_close(el.get("cx"), circle.center.x)
            assert_close(el.get("cy"), -circle.center.y)
            assert_close(el.get("r"), circle.radius)

    def test_marker_positions_round_trip(self):
        svg = render_svg(FIG_GENERIC)
        scene = FIG_GENERIC.scene
        expected = {
            "A": scene.A, "B": scene.B, "C": scene.C, "D": scene.D,
            "P": Point2(FIG_GENERIC.probe.p, FIG_GENERIC.probe.q),
            "M": FIG_GENERIC.result.M, "N": FIG_GENERIC.result.N,
            "P′": FIG_GENERIC.result.p_prime.point,
        }
        for name, point in expected.items():
            (el,) = find(svg, cls="point-marker", name=name)
            assert_close(el.get("cx"), point.x)
            assert_close(el.get("cy"), -point.y)


class TestClippedMarkers:
    def test_far_image_point_gets_arrow(self):
        spec = RenderSpec(
            scene=FIG_GENERIC.scene, probe=FIG_GENERIC.probe,
            result=FIG_GENERIC.result, clip=True,
        )
        svg = render_svg(spec)
        assert find(svg, tag="circle", cls="point-marker", name="P′") == []
        (arrow,) = find(svg, tag="polygon", name="P′")
        assert "clipped" in arrow.get("class")
        rect = ref_visible_rect(layout(spec))
        for pair in arrow.get("points").split():
            x, y = (F(part) for part in pair.split(","))
            assert rect[0] - TOLERANCE <= x <= rect[1] + TOLERANCE
            assert rect[2] - TOLERANCE <= -y <= rect[3] + TOLERANCE


# Reference versions of the clipper: the two that figures used before, edge
# substitution for full lines and Liang-Barsky for segments.

def ref_line_in_rect(line, rect):
    xmin, xmax, ymin, ymax = rect
    a, b, c = line.coefficients

    def solve(t, u, v):
        return F(-u * t.numerator - c * t.denominator, v * t.denominator)

    candidates = set()
    if b:
        candidates.update(Point2(x, solve(x, a, b)) for x in (xmin, xmax))
    if a:
        candidates.update(Point2(solve(y, b, a), y) for y in (ymin, ymax))
    inside = sorted(
        (p for p in candidates if xmin <= p.x <= xmax and ymin <= p.y <= ymax),
        key=lambda p: (p.x, p.y),
    )
    if len(inside) < 2:
        return None
    return inside[0], inside[-1]


def ref_clip_segment(p1, p2, rect):
    xmin, xmax, ymin, ymax = rect
    s_lo, s_hi = F(0), F(1)
    for start, delta, lo, hi in (
        (p1.x, p2.x - p1.x, xmin, xmax),
        (p1.y, p2.y - p1.y, ymin, ymax),
    ):
        if delta == 0:
            if not lo <= start <= hi:
                return None
            continue
        s_a = (lo - start) / delta
        s_b = (hi - start) / delta
        if s_a > s_b:
            s_a, s_b = s_b, s_a
        s_lo = max(s_lo, s_a)
        s_hi = min(s_hi, s_b)
    if s_lo > s_hi:
        return None
    at = lambda s: Point2(p1.x + s * (p2.x - p1.x), p1.y + s * (p2.y - p1.y))
    return at(s_lo), at(s_hi)


def small(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def random_case(rng):
    """A rectangle and two distinct points in (x, y) order; about 30% are corners."""
    xs = ys = ()
    while len(set(xs)) < 2:
        xs = sorted((small(rng), small(rng)))
    while len(set(ys)) < 2:
        ys = sorted((small(rng), small(rng)))
    rect = (*xs, *ys)

    def point():
        if rng.random() < 0.3:
            return Point2(rng.choice(xs), rng.choice(ys))
        return Point2(small(rng), small(rng))

    p1 = point()
    p2 = p1
    while p2 == p1:
        shape = rng.random()
        p2 = point()
        if shape < 0.1:  # vertical
            p2 = Point2(p1.x, p2.y)
        elif shape < 0.2:  # horizontal
            p2 = Point2(p2.x, p1.y)
    first, last = sorted((p1, p2), key=lambda p: (p.x, p.y))
    return rect, first, last


def pairs(rect):
    """A Fraction rectangle as the (numerator, denominator) pairs _clip takes."""
    return [(v.numerator, v.denominator) for v in rect]


def points(span):
    """_clip's triples (x, y, w) as Point2s."""
    return tuple(Point2(F(x, w), F(y, w)) for x, y, w in span)


class TestClipAgainstReference:
    CASES = 3000

    def test_full_lines(self):
        # _clip takes a line through the rectangle's inside, so the lines here
        # that miss the rectangle are skipped; one that only touches a corner
        # still gives that corner twice.
        rng = random.Random("clip-lines")
        drawn = corners = 0
        for _ in range(self.CASES):
            rect, p1, p2 = random_case(rng)
            line = Line(*_cross(_triple(p1.x, p1.y), _triple(p2.x, p2.y)))
            a, b, c = line.coefficients
            expected = ref_line_in_rect(line, rect)
            if expected is None:
                touched = [Point2(x, y) for x in rect[:2] for y in rect[2:] if a * x + b * y + c == 0]
                if not touched:  # the line misses the rectangle
                    continue
                expected = touched * 2
                corners += 1
            assert points(_clip(line.coefficients, pairs(rect))) == tuple(expected)
            drawn += 1
        assert corners > 0 and drawn > corners

    def test_segments(self):
        # render_svg's chords on 150 clipped documents whose P is pushed off
        # the canvas (290 chords cut), against the segment between each
        # chord's extreme points as the reference clips it, written as the
        # renderer writes coordinates.
        cut = 0
        for spec in far_probe_specs():
            scene, probe = spec.scene, spec.probe
            svg, rect = render_svg(spec), ref_visible_rect(layout(spec))
            for cls, base, other in (("chord-cm", scene.C, spec.result.M), ("chord-bn", scene.B, spec.result.N)):
                ends = sorted({base, Point2(probe.p, probe.q), other}, key=lambda p: (p.x, p.y))
                drawn = [[line.get(k) for k in ("x1", "y1", "x2", "y2")] for line in find(svg, "line", cls)]
                if len(ends) == 1:  # a chord of zero length is not drawn
                    assert drawn == []
                    continue
                segment = ref_clip_segment(ends[0], ends[-1], rect)
                texts = [decimal6(v.numerator, v.denominator) for p in segment for v in (p.x, -p.y)]
                assert drawn == [texts]
                cut += segment != (ends[0], ends[-1])
        assert cut >= 200


def test_every_clipped_line_leaves_two_ends_on_the_canvas(monkeypatch):
    # RenderSpec takes only construct_image's result, so every line render_svg
    # clips passes through A, B, C, D or the canvas center, strictly inside
    # the canvas: each _clip call gives two distinct ends on the canvas.
    spans = []

    def clip(line, rect):
        span = _clip(line, rect)
        spans.append((span, [F(n, d) for n, d in rect]))
        return span

    specs = render_svg_cycle(360) + render_svg_cycle(2408) + far_probe_specs()
    monkeypatch.setattr(figures, "_clip", clip)
    for spec in specs:
        render_svg(spec)
    for span, (xmin, xmax, ymin, ymax) in spans:
        lo, hi = points(span)
        assert lo != hi
        assert all(xmin <= end.x <= xmax and ymin <= end.y <= ymax for end in (lo, hi))
    assert len(specs) == 350 and len(spans) > 1200


class TestClipCases:
    """Targeted clipper cases on the rectangle [0, 4] x [0, 3]."""

    RECT = pairs((F(0), F(4), F(0), F(3)))

    def clip(self, line):
        return points(_clip(line, self.RECT))

    @pytest.mark.parametrize("line, first, last", [
        ((0, 1, 0), (0, 0), (4, 0)),  # y = 0
        ((0, -1, 3), (0, 3), (4, 3)),  # y = 3
        ((-1, 0, 0), (0, 0), (0, 3)),  # x = 0
        ((2, 0, -8), (4, 0), (4, 3)),  # x = 4
    ])
    def test_line_along_each_edge(self, line, first, last):
        assert self.clip(line) == (Point2(*first), Point2(*last))

    @pytest.mark.parametrize("line", [
        (0, 1, -4), (0, 1, 1), (1, 0, -5), (1, 0, 1),  # y = 4, y = -1, x = 5, x = -1
    ])
    def test_line_missing_the_rectangle(self, line):
        # Only a vertical or horizontal line can miss the canvas, and full_line
        # draws nothing for it without calling _clip.
        em = _Emitter(Viewport(400, 300, F(100), F(0), F(300)))
        assert [F(n, d) for n, d in em.rect] == [0, 4, 0, 3]
        em.full_line("axis", line)
        assert em.parts == []

    def test_corner_only_touch_with_ends(self):
        # x + y = 0 meets the rectangle only at its corner (0, 0).
        corner = (Point2(0, 0), Point2(0, 0))
        assert self.clip((1, 1, 0)) == corner


# The six figures of demos/render_figures.py, then each again with clipping on.
DEMO_FIGURES = [
    (WORKED, derive(WORKED).radical_axis_x, 1, {}),
    (WORKED, 2, 1, {"clip": True}),
    (WORKED, 3, 0, {}),
    (WORKED, 0, 2, {}),
    (TANGENT, 1, 1, {}),
    (WORKED, 2, 1, {}),
]
DEMO_SPECS = [spec_with_probe(cfg, p, q, **options) for cfg, p, q, options in DEMO_FIGURES]
DEMO_SPECS += [spec_with_probe(cfg, p, q, clip=True) for cfg, p, q, _ in DEMO_FIGURES]


class TestWorkCounts:
    """How often render_svg formats a coordinate, clips a line and signs a direction, per document."""

    def test_pinned_calls(self):
        targets = (decimal6, _clip, _octant)
        counts = {f.__name__: [calls_made(f, render_svg, spec) for spec in DEMO_SPECS] for f in targets}
        assert counts == {
            "decimal6": [64, 67, 55, 61, 61, 64, 64, 67, 55, 61, 61, 67],
            "_clip": [2, 3, 0, 1, 2, 2, 2, 3, 0, 1, 2, 3],
            "_octant": [0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1],  # one per clipped-marker arrow
        }
        # Drawing every full line through _clip and formatting each point once
        # per use made 936 decimal6 and 87 _clip calls over these documents;
        # cutting every chord of a clipped document by the canvas made 803 and 35.
        assert sum(counts["decimal6"]) < 803
        assert sum(counts["_clip"]) < 35

    def test_cut_chords_format_only_p_end(self):
        # P = (2, 40) is off the clipped canvas, so both chords are cut. Each
        # keeps the text of its end on the canvas, formatted once for that
        # point's marker; cutting each chord to the segment between its ends made 79.
        spec = spec_with_probe(WORKED, 2, 40, clip=True)
        assert [calls_made(f, render_svg, spec) for f in (decimal6, _clip)] == [75, 6]


def test_only_layout_reads_clip():
    # render_svg draws a chord whole when both its ends are on the canvas and
    # cuts any other by the canvas, so the option decides the viewport alone.
    tree = ast.parse(inspect.getsource(figures))
    readers = {
        function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if isinstance(node, ast.Attribute) and node.attr == "clip"
    }
    assert readers == {"layout"}


def near(pair):
    """The rational of an (n, d) pair and the two 10**-9/d either side of it, as (n, d) pairs."""
    n, d = pair
    return [(n, d), (n * 10**9 - 1, d * 10**9), (n * 10**9 + 1, d * 10**9)]


class TestAxisParallelLines:
    """full_line draws vertical and horizontal lines edge to edge as the _clip route would."""

    @staticmethod
    def clip_route(em, cls, line):
        """The element that clipping the line by the canvas writes."""
        (x1, y1, w1), (x2, y2, w2) = _clip(line, em.rect)
        ends = decimal6(x1, w1), decimal6(-y1, w1), decimal6(x2, w2), decimal6(-y2, w2)
        em.add("line", cls, 'x1="%s" y1="%s" x2="%s" y2="%s"' % ends)

    @pytest.mark.parametrize("clip", [False, True])
    def test_matches_clip(self, clip):
        viewport = layout(spec_with_probe(WORKED, 2, 1, clip=clip))
        xmin, xmax, ymin, ymax = _Emitter(viewport).rect
        mid_x = (xmin[0] * xmax[1] + xmax[0] * xmin[1], 2 * xmin[1] * xmax[1])
        mid_y = (ymin[0] * ymax[1] + ymax[0] * ymin[1], 2 * ymin[1] * ymax[1])
        lines = []
        for n, d in [mid_x, *near(xmin), *near(xmax)]:  # verticals x = n/d
            lines += [(d, 0, -n), (-3 * d, 0, 3 * n)]
        for n, d in [mid_y, (0, 1), *near(ymin), *near(ymax)]:  # horizontals y = n/d
            lines += [(0, d, -n), (0, -2 * d, 2 * n)]
        rect = tuple(F(n, d) for n, d in (xmin, xmax, ymin, ymax))
        drawn = missed = 0
        for line in lines:
            em, ref = _Emitter(viewport), _Emitter(viewport)
            em.full_line("axis", line)
            if ref_line_in_rect(Line(*line), rect) is None:
                assert em.parts == []
                missed += 1
            else:
                self.clip_route(ref, "axis", line)
                assert em.parts == ref.parts and len(em.parts) == 1
                drawn += 1
        # Drawn: inside, and on and just inside each edge; missed: just outside each edge.
        assert (drawn, missed) == (22, 8)
