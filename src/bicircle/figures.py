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
from .exact import INFINITY, Point2, _cross, _triple, as_rational
from .scenario import DerivedScene

_AXIS = (0, 1, 0)  # the common center line y = 0, as a triple (a, b, c)
_MARGIN = Fraction(1, 10)  # of the width and the height, blank on each side
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
    value = as_rational(value)
    q, r = divmod(value.numerator * 10**6, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    magnitude = abs(q)
    return f"{sign}{magnitude // 10**6}.{magnitude % 10**6:06d}"


@dataclass(frozen=True)
class RenderSpec:
    """What to draw: a scene, a probe and its construction result. width/height are pixels."""

    scene: DerivedScene
    probe: ProbePoint
    result: ImageResult
    width: int = 800
    height: int = 600
    show_radical_axis: bool = True
    labels: bool = True
    clip: bool = False

    def __post_init__(self):
        if self.width < 64 or self.height < 64:
            raise ValueError("width and height must be at least 64 pixels")


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


def _probe_points(spec: RenderSpec) -> list[tuple[str, Point2]]:
    """P, M, N and, if finite, P′, with their names."""
    result = spec.result
    named = [("P", spec.probe.point), ("M", result.M), ("N", result.N)]
    if result.p_prime.is_finite:
        named.append(("P′", result.p_prime.point))
    return named


def layout(spec: RenderSpec) -> Viewport:
    """Aspect-preserving viewport for the scene.

    Without clipping the viewport covers both circles and every finite named
    point; with clipping it covers the circles only and off-canvas markers
    are drawn clipped at the border.
    """
    scene = spec.scene
    xs = [scene.A.x, scene.C.x, scene.B.x, scene.D.x]
    ys = [-scene.k1.radius, scene.k1.radius, -scene.k2.radius, scene.k2.radius]
    if not spec.clip:
        # The radical axis point (radical_axis_x, 0); ys already spans y = 0.
        xs.append(scene.radical_axis_x)
        for _, point in _probe_points(spec):
            xs.append(point.x)
            ys.append(point.y)
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    effective_w = spec.width * (1 - 2 * _MARGIN)
    effective_h = spec.height * (1 - 2 * _MARGIN)
    scale = min(effective_w / (xmax - xmin), effective_h / (ymax - ymin))
    tx = Fraction(spec.width, 2) - scale * (xmin + xmax) / 2
    ty = Fraction(spec.height, 2) + scale * (ymin + ymax) / 2
    return Viewport(spec.width, spec.height, scale, tx, ty)


def _clip(line, rect, ends=None) -> tuple[Point2, Point2] | None:
    """Extreme points, in (x, y) order, of the line a*x + b*y + c = 0 in a rectangle.

    With ends, two points of the line in (x, y) order, the span is cut to the
    segment between them. None if nothing is left; a line that only touches
    a corner gives that corner twice.
    """
    xmin, xmax, ymin, ymax = rect
    a, b, c = line

    def solve(t: Fraction, u: int, v: int) -> Fraction:  # s with u*t + v*s + c = 0
        return Fraction(-u * t.numerator - c * t.denominator, v * t.denominator)

    # Substitute each edge into a*x + b*y + c = 0. A line lying on an edge
    # meets the two perpendicular edges at that edge's corners.
    candidates = set()
    if b:
        candidates.update((x, solve(x, a, b)) for x in (xmin, xmax))
    if a:
        candidates.update((solve(y, b, a), y) for y in (ymin, ymax))
    inside = sorted((x, y) for x, y in candidates if xmin <= x <= xmax and ymin <= y <= ymax)
    if not inside:
        return None
    first, last = inside[0], inside[-1]
    if ends is not None:
        first, last = max(first, _xy(ends[0])), min(last, _xy(ends[1]))
        if first > last:
            return None
    return Point2(*first), Point2(*last)


def _xy(p: Point2) -> tuple[Fraction, Fraction]:
    return p.x, p.y


def _vertical(t: Fraction) -> tuple[int, int, int]:
    """The line x = t as a triple (a, b, c)."""
    return t.denominator, 0, -t.numerator


def _octant(dx: Fraction, dy: Fraction) -> tuple[int, int]:
    return ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))


class _Emitter:
    """Accumulates SVG elements in model coordinates (y negated on output)."""

    def __init__(self, viewport: Viewport):
        self.rect = viewport.visible_rect()
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

    def full_line(self, cls: str, line: tuple[int, int, int], color: str, width: Fraction,
                  dash: bool = False) -> None:
        span = _clip(line, self.rect)
        if span is not None and span[0] != span[1]:
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
    scene = spec.scene
    em = _Emitter(viewport)
    rect = xmin, xmax, ymin, ymax = em.rect

    em.circle("circle-k1", scene.k1.center, scene.k1.radius, _COLORS["circle"], _CIRCLE_WIDTH)
    em.circle("circle-k2", scene.k2.center, scene.k2.radius, _COLORS["circle"], _CIRCLE_WIDTH)
    em.full_line("axis", _AXIS, _COLORS["axis"], _LINE_WIDTH)
    if spec.show_radical_axis:
        em.full_line(
            "radical-axis",
            _vertical(scene.radical_axis_x),
            _COLORS["radical"],
            _LINE_WIDTH,
            dash=True,
        )
    probe, result = spec.probe, spec.result
    em.full_line("probe-line", _vertical(probe.p), _COLORS["probe"], _ACCENT_WIDTH)
    # The image line exists whenever the circles are not tangent, even if
    # this particular probe sends its image point to infinity along it.
    image_x = locus_x(scene.cfg, probe.p)
    if image_x is not INFINITY:
        em.full_line("image-line", _vertical(image_x), _COLORS["image"], _ACCENT_WIDTH)

    for cls, pts in (
        ("chord chord-cm", [scene.C, probe.point, result.M]),
        ("chord chord-bn", [scene.B, probe.point, result.N]),
    ):
        first, last = min(pts, key=_xy), max(pts, key=_xy)
        if first != last:
            line = _cross(_triple(first), _triple(last))
            span = _clip(line, rect, (first, last)) if spec.clip else (first, last)
            if span is not None:
                em.segment(cls, span[0], span[1], _COLORS["chord"], _LINE_WIDTH)
    em.full_line("construction construction-am", result.line_am.coefficients,
                 _COLORS["construction"], _ACCENT_WIDTH)
    em.full_line("construction construction-dn", result.line_dn.coefficients,
                 _COLORS["construction"], _ACCENT_WIDTH)

    label_dx = _LABEL_DX / viewport.scale
    label_dy = _LABEL_DY / viewport.scale
    center = Point2((xmin + xmax) / 2, (ymin + ymax) / 2)
    named = [("A", scene.A), ("B", scene.B), ("C", scene.C), ("D", scene.D), *_probe_points(spec)]
    for name, point in named:
        if xmin <= point.x <= xmax and ymin <= point.y <= ymax:
            em.marker(name, point)
            anchor = Point2(point.x + label_dx, point.y + label_dy)
        else:
            # Outside the canvas (possible only with clipping): mark the spot
            # where the point left the viewport with an outward arrow. The
            # center is strictly inside, so the line from it to the point
            # leaves the canvas at the end on the point's side.
            span = _clip(_cross(_triple(center), _triple(point)), rect)
            tip = span[1] if _xy(point) > _xy(center) else span[0]
            em.arrow(name, tip, _octant(point.x - center.x, point.y - center.y))
            anchor = Point2(
                tip.x - (point.x - center.x > 0) * 4 * label_dx + label_dx,
                tip.y - (point.y - center.y > 0) * 3 * label_dy + label_dy,
            )
        if spec.labels:
            em.text("point-label", name, anchor, name, _COLORS["label"])

    if not result.p_prime.is_finite:
        caption_at = Point2(xmin + 2 * label_dx, ymax - 3 * label_dy)
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
