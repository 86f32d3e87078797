"""Deterministic SVG rendering of scenes, probes, and construction results.

The geometry model stays exact all the way to serialization: every emitted
coordinate is a rational rounded to exactly six decimal places (half to
even) at the last moment. Geometry is written in model units inside a
single translate+scale group; the y axis is flipped by negating y values at
emission time, which keeps text upright without nested transforms. Styling
is fixed, so identical specs yield byte-identical documents.

A point at infinity is never drawn as a far-away marker: the two parallel
(or tangent) lines are drawn instead and a caption notes that the image is
at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construction import ImageResult, ProbePoint, locus_x
from .exact import INFINITY, Line, Point2, as_rational
from .scenario import DerivedScene

__all__ = ["RenderSpec", "Viewport", "decimal6", "layout", "render_svg"]

# Fixed pixel-unit style constants (converted to model units via the scale).
_CIRCLE_WIDTH = Fraction(3, 2)
_LINE_WIDTH = Fraction(1)
_ACCENT_WIDTH = Fraction(5, 4)
_MARKER_RADIUS = Fraction(5, 2)
_DASH_ON = Fraction(4)
_DASH_OFF = Fraction(2)
_FONT_SIZE = Fraction(12)
_LABEL_DX = Fraction(5)
_LABEL_DY = Fraction(7)
_ARROW_LEN = Fraction(9)
_ARROW_HALF = Fraction(3)

_FONT = "Helvetica, Arial, sans-serif"

_COLORS = {
    "circle": "#2b2b2b",
    "axis": "#888888",
    "radical": "#666666",
    "probe": "#1f6fd0",
    "image": "#d04a1f",
    "chord": "#9a9a9a",
    "construction": "#3c8c3c",
    "marker": "#111111",
    "label": "#111111",
    "caption": "#333333",
}


def decimal6(value: Fraction) -> str:
    """Decimal string with exactly six fractional digits, rounded half to even."""
    scaled = as_rational(value) * 10**6
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r > scaled.denominator or (2 * r == scaled.denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    magnitude = abs(q)
    return f"{sign}{magnitude // 10**6}.{magnitude % 10**6:06d}"


@dataclass(frozen=True)
class RenderSpec:
    """What to draw. width/height are pixels; margin is a fraction of them."""

    scene: DerivedScene
    probe: ProbePoint | None = None
    result: ImageResult | None = None
    width: int = 800
    height: int = 600
    margin: Fraction = Fraction(1, 10)
    show_radical_axis: bool = True
    labels: bool = True
    clip: bool = False

    def __post_init__(self):
        if self.width < 64 or self.height < 64:
            raise ValueError("width and height must be at least 64 pixels")
        object.__setattr__(self, "margin", as_rational(self.margin))


@dataclass(frozen=True)
class Viewport:
    """Affine model-to-pixel map: px = tx + scale*x, py = ty - scale*y."""

    width: int
    height: int
    scale: Fraction
    tx: Fraction
    ty: Fraction

    def visible_rect(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Model-space rectangle mapped onto the full canvas: (xmin, xmax, ymin, ymax)."""
        return (
            -self.tx / self.scale,
            (self.width - self.tx) / self.scale,
            (self.ty - self.height) / self.scale,
            self.ty / self.scale,
        )

    def contains(self, point: Point2) -> bool:
        xmin, xmax, ymin, ymax = self.visible_rect()
        return xmin <= point.x <= xmax and ymin <= point.y <= ymax


def _model_points(spec: RenderSpec) -> list[Point2]:
    points = [spec.scene.Z]
    if spec.probe is not None:
        points.append(spec.probe.point)
    if spec.result is not None:
        points.extend([spec.result.M, spec.result.N])
        if spec.result.p_prime.is_finite:
            points.append(spec.result.p_prime.point)
    return points


def layout(spec: RenderSpec) -> Viewport:
    """Aspect-preserving viewport for the scene.

    Without clipping the viewport covers both circles and every finite named
    point; with clipping it covers the circles only and off-canvas markers
    are drawn clipped at the border.
    """
    scene = spec.scene
    xs = [
        scene.k1.center.x - scene.k1.radius,
        scene.k1.center.x + scene.k1.radius,
        scene.k2.center.x - scene.k2.radius,
        scene.k2.center.x + scene.k2.radius,
    ]
    ys = [-scene.k1.radius, scene.k1.radius, -scene.k2.radius, scene.k2.radius]
    if not spec.clip:
        for point in _model_points(spec):
            xs.append(point.x)
            ys.append(point.y)
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    effective_w = spec.width * (1 - 2 * spec.margin)
    effective_h = spec.height * (1 - 2 * spec.margin)
    scale = min(effective_w / (xmax - xmin), effective_h / (ymax - ymin))
    tx = Fraction(spec.width, 2) - scale * (xmin + xmax) / 2
    ty = Fraction(spec.height, 2) + scale * (ymin + ymax) / 2
    return Viewport(spec.width, spec.height, scale, tx, ty)


def _line_in_rect(line: Line, rect) -> tuple[Point2, Point2] | None:
    """Extreme intersection points of a line with a rectangle, or None if outside."""
    xmin, xmax, ymin, ymax = rect
    a, b, c = line.a, line.b, line.c
    # Substitute each edge into a*x + b*y + c = 0. A line lying on an edge
    # meets the two perpendicular edges at that edge's corners.
    candidates = set()
    if b != 0:
        candidates.update(Point2(x, -(a * x + c) / b) for x in (xmin, xmax))
    if a != 0:
        candidates.update(Point2(-(b * y + c) / a, y) for y in (ymin, ymax))
    inside = sorted(
        (p for p in candidates if xmin <= p.x <= xmax and ymin <= p.y <= ymax),
        key=lambda p: (p.x, p.y),
    )
    if len(inside) < 2:
        return None
    return inside[0], inside[-1]


def _clip_segment(p1: Point2, p2: Point2, rect) -> tuple[Point2, Point2] | None:
    """Exact Liang-Barsky clip of segment p1..p2 against a rectangle."""
    xmin, xmax, ymin, ymax = rect
    s_lo, s_hi = Fraction(0), Fraction(1)
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


def _chord_span(points: list[Point2]) -> tuple[Point2, Point2]:
    """Endpoints of the minimal segment covering collinear points."""
    ordered = sorted(points, key=lambda p: (p.x, p.y))
    return ordered[0], ordered[-1]


def _octant(dx: Fraction, dy: Fraction) -> tuple[int, int]:
    return ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))


class _Emitter:
    """Accumulates SVG elements in model coordinates (y negated on output)."""

    def __init__(self, viewport: Viewport):
        self.viewport = viewport
        self.scale = viewport.scale
        self.parts: list[str] = []

    def px(self, pixels: Fraction) -> str:
        """A fixed pixel-unit length expressed in model units."""
        return decimal6(pixels / self.scale)

    def segment(self, cls: str, p1: Point2, p2: Point2, color: str,
                width: Fraction, dash: bool = False) -> None:
        dash_attr = (
            f' stroke-dasharray="{self.px(_DASH_ON)} {self.px(_DASH_OFF)}"' if dash else ""
        )
        self.parts.append(
            f'<line class="{cls}" x1="{decimal6(p1.x)}" y1="{decimal6(-p1.y)}"'
            f' x2="{decimal6(p2.x)}" y2="{decimal6(-p2.y)}"'
            f' stroke="{color}" stroke-width="{self.px(width)}"{dash_attr}/>'
        )

    def full_line(self, cls: str, line: Line, color: str, width: Fraction,
                  dash: bool = False) -> None:
        span = _line_in_rect(line, self.viewport.visible_rect())
        if span is not None:
            self.segment(cls, span[0], span[1], color, width, dash)

    def circle(self, cls: str, center: Point2, radius: Fraction,
               color: str, width: Fraction) -> None:
        self.parts.append(
            f'<circle class="{cls}" cx="{decimal6(center.x)}" cy="{decimal6(-center.y)}"'
            f' r="{decimal6(radius)}" fill="none" stroke="{color}"'
            f' stroke-width="{self.px(width)}"/>'
        )

    def marker(self, name: str, point: Point2) -> None:
        self.parts.append(
            f'<circle class="point-marker" data-name="{name}" cx="{decimal6(point.x)}"'
            f' cy="{decimal6(-point.y)}" r="{self.px(_MARKER_RADIUS)}"'
            f' fill="{_COLORS["marker"]}"/>'
        )

    def text(self, cls: str, name: str, anchor: Point2, content: str, color: str) -> None:
        data = f' data-name="{name}"' if name else ""
        self.parts.append(
            f'<text class="{cls}"{data} x="{decimal6(anchor.x)}" y="{decimal6(-anchor.y)}"'
            f' font-family="{_FONT}" font-size="{self.px(_FONT_SIZE)}"'
            f' fill="{color}">{content}</text>'
        )

    def arrow(self, name: str, tip: Point2, direction: tuple[int, int]) -> None:
        """Clipped-marker arrow: a small triangle pointing out of the canvas."""
        ux, uy = direction
        shaft = _ARROW_LEN / self.scale
        half = _ARROW_HALF / self.scale
        base = Point2(tip.x - ux * shaft, tip.y - uy * shaft)
        left = Point2(base.x - uy * half, base.y + ux * half)
        right = Point2(base.x + uy * half, base.y - ux * half)
        points = " ".join(
            f"{decimal6(p.x)},{decimal6(-p.y)}" for p in (tip, left, right)
        )
        self.parts.append(
            f'<polygon class="point-marker clipped" data-name="{name}"'
            f' points="{points}" fill="{_COLORS["marker"]}"/>'
        )


def render_svg(spec: RenderSpec) -> str:
    """Produce the SVG document text for a render spec (byte-deterministic)."""
    viewport = layout(spec)
    rect = viewport.visible_rect()
    scene = spec.scene
    em = _Emitter(viewport)

    em.circle("circle-k1", scene.k1.center, scene.k1.radius, _COLORS["circle"], _CIRCLE_WIDTH)
    em.circle("circle-k2", scene.k2.center, scene.k2.radius, _COLORS["circle"], _CIRCLE_WIDTH)
    em.full_line("axis", scene.axis, _COLORS["axis"], _LINE_WIDTH)
    if spec.show_radical_axis:
        em.full_line(
            "radical-axis",
            Line(1, 0, -scene.radical_axis_x),
            _COLORS["radical"],
            _LINE_WIDTH,
            dash=True,
        )
    if spec.probe is not None:
        em.full_line("probe-line", Line(1, 0, -spec.probe.p), _COLORS["probe"], _ACCENT_WIDTH)
        # The image line exists whenever the circles are not tangent, even if
        # this particular probe sends its image point to infinity along it.
        image_x = locus_x(scene.cfg, spec.probe.p)
        if image_x is not INFINITY:
            em.full_line("image-line", Line(1, 0, -image_x), _COLORS["image"], _ACCENT_WIDTH)

    result = spec.result
    if result is not None:
        if spec.probe is not None:
            probe_pt = spec.probe.point
            for cls, pts in (
                ("chord chord-cm", [scene.C, probe_pt, result.M]),
                ("chord chord-bn", [scene.B, probe_pt, result.N]),
            ):
                first, last = _chord_span(pts)
                if first != last:
                    span = _clip_segment(first, last, rect) if spec.clip else (first, last)
                    if span is not None:
                        em.segment(cls, span[0], span[1], _COLORS["chord"], _LINE_WIDTH)
        em.full_line("construction construction-am", result.line_am,
                     _COLORS["construction"], _ACCENT_WIDTH)
        em.full_line("construction construction-dn", result.line_dn,
                     _COLORS["construction"], _ACCENT_WIDTH)

    named: list[tuple[str, Point2]] = [
        ("A", scene.A), ("B", scene.B), ("C", scene.C), ("D", scene.D)
    ]
    if spec.probe is not None:
        named.append(("P", spec.probe.point))
    if result is not None:
        named.extend([("M", result.M), ("N", result.N)])
        if result.p_prime.is_finite:
            named.append(("P′", result.p_prime.point))

    label_dx = _LABEL_DX / viewport.scale
    label_dy = _LABEL_DY / viewport.scale
    center = Point2((rect[0] + rect[1]) / 2, (rect[2] + rect[3]) / 2)
    for name, point in named:
        if viewport.contains(point):
            em.marker(name, point)
            anchor = Point2(point.x + label_dx, point.y + label_dy)
        else:
            # Outside the canvas (possible only with clipping): mark the spot
            # where the point left the viewport with an outward arrow.
            clipped = _clip_segment(center, point, rect)
            if clipped is None:
                continue
            tip = clipped[1]
            em.arrow(name, tip, _octant(point.x - center.x, point.y - center.y))
            anchor = Point2(
                tip.x - (point.x - center.x > 0) * 4 * label_dx + label_dx,
                tip.y - (point.y - center.y > 0) * 3 * label_dy + label_dy,
            )
        if spec.labels:
            em.text("point-label", name, anchor, name, _COLORS["label"])

    if result is not None and not result.p_prime.is_finite:
        caption_at = Point2(rect[0] + 2 * label_dx, rect[3] - 3 * label_dy)
        em.text("caption", "", caption_at, "P′ at infinity", _COLORS["caption"])

    body = "\n".join(em.parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{spec.width}"'
        f' height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">\n'
        f'<rect class="background" x="0" y="0" width="{spec.width}"'
        f' height="{spec.height}" fill="#ffffff"/>\n'
        f'<g transform="translate({decimal6(viewport.tx)} {decimal6(viewport.ty)})'
        f' scale({decimal6(viewport.scale)})">\n'
        f"{body}\n"
        "</g>\n"
        "</svg>\n"
    )
