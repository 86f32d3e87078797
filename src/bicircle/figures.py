"""Deterministic SVG rendering of scenes, probes, and construction results.

The geometry model stays exact all the way to serialization: everything
drawn is an integer triple (x, y, w) with w > 0, and each emitted coordinate
x/w is rounded to exactly six decimal places (half to even) at the last
moment. layout finds the bounds and the scale on integer (numerator,
denominator) pairs too; Fractions remain only in the scale, tx and ty of its
Viewport. Geometry is written in model units inside a single translate+scale
group; the y axis is flipped by negating y values at emission time, which
keeps text upright without nested transforms. Styling is fixed, so identical
specs yield byte-identical documents.

A point at infinity is never drawn as a far-away marker: the two parallel
(or tangent) lines are drawn instead and a caption notes that the image is
at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construction import ImageResult, ProbePoint, locus_x
from .exact import INFINITY, Circle, _cross, _triple, as_rational
from .scenario import DerivedScene

_AXIS = (0, 1, 0)  # the common center line y = 0, as a triple (a, b, c)
# Fixed pixel-unit style lengths as (numerator, denominator) pairs, each
# written in model units (divided by the scale) once per document.
_PIXELS = {
    "circle": (3, 2),
    "line": (1, 1),
    "accent": (5, 4),
    "marker": (5, 2),
    "dash-on": (4, 1),
    "dash-off": (2, 1),
    "font": (12, 1),
}
_LABEL_DX, _LABEL_DY = 5, 7  # label offset from its point, in pixels
_ARROW_LEN, _ARROW_HALF = 9, 3  # clipped-marker arrow length and half width, in pixels

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


def _dec6(n: int, d: int) -> str:
    """n/d, d > 0, as a decimal string with exactly six fractional digits, rounded half to even."""
    q, r = divmod(n * 1_000_000, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    if q < 0:
        return "-%d.%06d" % divmod(-q, 1_000_000)
    return "%d.%06d" % divmod(q, 1_000_000)


def decimal6(value: Fraction) -> str:
    """Decimal string with exactly six fractional digits, rounded half to even."""
    value = as_rational(value)
    return _dec6(value.numerator, value.denominator)


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
        for name in ("width", "height"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
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

    def _rect(self) -> tuple[tuple[int, int], ...]:
        """visible_rect as (numerator, denominator) pairs with positive denominators, unreduced."""
        sn, sd = self.scale.numerator, self.scale.denominator
        tn, td = self.tx.numerator, self.tx.denominator
        un, ud = self.ty.numerator, self.ty.denominator
        return (
            (-tn * sd, td * sn),
            ((self.width * td - tn) * sd, td * sn),
            ((un - self.height * ud) * sd, ud * sn),
            (un * sd, ud * sn),
        )

    def visible_rect(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Model-space rectangle mapped onto the full canvas: (xmin, xmax, ymin, ymax)."""
        return tuple(Fraction(n, d) for n, d in self._rect())


def _less(u, v) -> bool:
    """u < v for (numerator, denominator) pairs with positive denominators."""
    return u[0] * v[1] < v[0] * u[1]


def layout(spec: RenderSpec) -> Viewport:
    """Aspect-preserving viewport for the scene.

    The circles' box is [A.x, D.x] × [-R, R], R the larger radius. Without
    clipping the viewport covers it and every finite named point; with
    clipping it covers the box only and off-canvas markers are drawn clipped
    at the border. B, C and the radical axis lie between A and D, and M and
    N on the circles, so only P and a finite P′ can widen the box. The
    bounds are compared as (numerator, denominator) pairs; only the scale
    and the translation are built as Fractions.
    """
    scene = spec.scene
    r1, r2 = ((k.radius.numerator, k.radius.denominator) for k in (scene.k1, scene.k2))
    rn, rd = r2 if _less(r1, r2) else r1
    (ax, _, aw), (dx, _, dw) = scene._triples[0], scene._triples[3]
    xmin, xmax, ymin, ymax = (ax, aw), (dx, dw), (-rn, rd), (rn, rd)
    if not spec.clip:
        p, q, image = spec.probe.p, spec.probe.q, spec.result.p_prime
        points = [((p.numerator, p.denominator), (q.numerator, q.denominator))]
        if image.w:  # 0 for P′ at infinity
            points.append(((image.x, image.w), (image.y, image.w)))
        for x, y in points:
            if _less(x, xmin):
                xmin = x
            elif _less(xmax, x):
                xmax = x
            if _less(y, ymin):
                ymin = y
            elif _less(ymax, y):
                ymax = y
    (xn, xd), (Xn, Xd), (yn, yd), (Yn, Yd) = xmin, xmax, ymin, ymax
    width, height = spec.width, spec.height
    # The extents are (Xn*xd - xn*Xd)/(xd*Xd) and (Yn*yd - yn*Yd)/(yd*Yd),
    # both positive; the scale maps the tighter one onto 4/5 of the canvas,
    # which leaves a tenth of the width and the height blank on each side.
    ex, ey = Xn * xd - xn * Xd, Yn * yd - yn * Yd
    if width * xd * Xd * ey <= height * yd * Yd * ex:
        scale = Fraction(4 * width * xd * Xd, 5 * ex)
    else:
        scale = Fraction(4 * height * yd * Yd, 5 * ey)
    sn, sd = scale.numerator, scale.denominator
    # tx = width/2 - scale*(xmin + xmax)/2, ty = height/2 + scale*(ymin + ymax)/2.
    tx = Fraction(width * sd * xd * Xd - sn * (xn * Xd + Xn * xd), 2 * sd * xd * Xd)
    ty = Fraction(height * sd * yd * Yd + sn * (yn * Yd + Yn * yd), 2 * sd * yd * Yd)
    return Viewport(width, height, scale, tx, ty)


def _clip(line, rect, ends=None) -> tuple[tuple[int, int, int], tuple[int, int, int]] | None:
    """Extreme points, in (x, y) order, of the line a*x + b*y + c = 0 in a rectangle.

    rect is (xmin, xmax, ymin, ymax), each a (numerator, denominator) pair
    with a positive denominator; the points are triples (x, y, w) with w > 0.
    With ends, two triples of points of the line in (x, y) order, the span is
    cut to the segment between them. None if nothing is left; a line that
    only touches a corner gives that corner twice.
    """
    a, b, c = line
    vertical = not b
    xs, ys = rect[:2], rect[2:]
    if vertical:  # walked by y: swap the roles of x and y
        a, b, xs, ys = b, a, ys, xs
        ends = ends and [(y, x, w) for x, y, w in ends]
    if b < 0:
        a, b, c = -a, -b, -c
    # On the line y = -(a*x + c)/b. Bound x below and above by (n, d) pairs.
    lows, highs = [xs[0]], [xs[1]]
    if a:  # x at y = n/d; y falls as x grows when a > 0
        cuts = [(b * n + c * d, -a * d) if a < 0 else (-b * n - c * d, a * d) for n, d in ys]
        if a > 0:
            cuts.reverse()
        lows.append(cuts[0])
        highs.append(cuts[1])
    elif not (ys[0][0] * b <= -c * ys[0][1] and -c * ys[1][1] <= ys[1][0] * b):
        return None
    if ends:
        lows.append(ends[0][::2])  # (x, w)
        highs.append(ends[1][::2])
    lo, hi = lows[0], highs[0]
    for n, d in lows:
        if n * lo[1] > lo[0] * d:
            lo = n, d
    for n, d in highs:
        if n * hi[1] < hi[0] * d:
            hi = n, d
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    span = [(n * b, -(a * n + c * d), d * b) for n, d in (lo, hi)]
    return tuple((y, x, w) for x, y, w in span) if vertical else tuple(span)


def _vertical(t: Fraction) -> tuple[int, int, int]:
    """The line x = t as a triple (a, b, c)."""
    return t.denominator, 0, -t.numerator


def _at(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int, int]:
    """The triple of the point with coordinates given as (numerator, denominator) pairs."""
    return x[0] * y[1], y[0] * x[1], x[1] * y[1]


def _shift(t, dx: int, dy: int, d: int = 1) -> tuple[int, int, int]:
    """The triple of t + (dx/d, dy/d), for a triple t = (x, y, w) with w > 0 and d > 0."""
    x, y, w = t
    return x * d + dx * w, y * d + dy * w, w * d


def _octant(p, q) -> tuple[int, int]:
    """Signs of the x and y components of p - q, for triples p and q."""
    dx, dy, _ = _shift(p, -q[0], -q[1], q[2])
    return (dx > 0) - (dx < 0), (dy > 0) - (dy < 0)


def _place(t, x: str = "x", y: str = "y") -> str:
    """SVG attributes x="..." y="..." for the point of a triple (x, y, w), y negated."""
    return f'{x}="{_dec6(t[0], t[2])}" {y}="{_dec6(-t[1], t[2])}"'


class _Emitter:
    """Accumulates SVG elements in model coordinates (y negated on output)."""

    def __init__(self, viewport: Viewport):
        self.rect = viewport._rect()
        self.sn, self.sd = viewport.scale.numerator, viewport.scale.denominator
        self.px = {key: _dec6(n * self.sd, d * self.sn) for key, (n, d) in _PIXELS.items()}
        self.parts: list[str] = []

    def offset(self, t, dx: int, dy: int) -> tuple[int, int, int]:
        """t moved by (dx, dy) pixels, in model units."""
        return _shift(t, dx * self.sd, dy * self.sd, self.sn)

    def segment(self, cls: str, p1, p2, color: str, width: str, dash: bool = False) -> None:
        dash_attr = (
            f' stroke-dasharray="{self.px["dash-on"]} {self.px["dash-off"]}"' if dash else ""
        )
        self.parts.append(
            f'<line class="{cls}" {_place(p1, "x1", "y1")} {_place(p2, "x2", "y2")}'
            f' stroke="{color}" stroke-width="{self.px[width]}"{dash_attr}/>'
        )

    def full_line(self, cls: str, line: tuple[int, int, int], color: str, width: str,
                  dash: bool = False) -> None:
        span = _clip(line, self.rect)
        if span is not None and any(_octant(*span)):
            self.segment(cls, span[0], span[1], color, width, dash)

    def circle(self, cls: str, k: Circle, color: str, width: str) -> None:
        r = _dec6(k.radius.numerator, k.radius.denominator)
        self.parts.append(
            f'<circle class="{cls}" {_place(_triple(k.center), "cx", "cy")}'
            f' r="{r}" fill="none" stroke="{color}" stroke-width="{self.px[width]}"/>'
        )

    def marker(self, name: str, point) -> None:
        self.parts.append(
            f'<circle class="point-marker" data-name="{name}" {_place(point, "cx", "cy")}'
            f' r="{self.px["marker"]}" fill="{_COLORS["marker"]}"/>'
        )

    def text(self, cls: str, name: str, anchor, content: str, color: str) -> None:
        data = f' data-name="{name}"' if name else ""
        self.parts.append(
            f'<text class="{cls}"{data} {_place(anchor)}'
            f' font-family="{_FONT}" font-size="{self.px["font"]}"'
            f' fill="{color}">{content}</text>'
        )

    def arrow(self, name: str, tip, direction: tuple[int, int]) -> None:
        """Clipped-marker arrow: a small triangle pointing out of the canvas."""
        ux, uy = direction
        base = self.offset(tip, -ux * _ARROW_LEN, -uy * _ARROW_LEN)
        left = self.offset(base, -uy * _ARROW_HALF, ux * _ARROW_HALF)
        right = self.offset(base, uy * _ARROW_HALF, -ux * _ARROW_HALF)
        points = " ".join(f"{_dec6(x, w)},{_dec6(-y, w)}" for x, y, w in (tip, left, right))
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

    for cls, k in (("circle-k1", scene.k1), ("circle-k2", scene.k2)):
        em.circle(cls, k, _COLORS["circle"], "circle")
    em.full_line("axis", _AXIS, _COLORS["axis"], "line")
    if spec.show_radical_axis:
        em.full_line(
            "radical-axis",
            _vertical(scene.radical_axis_x),
            _COLORS["radical"],
            "line",
            dash=True,
        )
    probe, result = spec.probe, spec.result
    em.full_line("probe-line", _vertical(probe.p), _COLORS["probe"], "accent")
    # The image line exists whenever the circles are not tangent, even if
    # this particular probe sends its image point to infinity along it.
    image_x = locus_x(scene.cfg, probe.p)
    if image_x is not INFINITY:
        em.full_line("image-line", _vertical(image_x), _COLORS["image"], "accent")

    m, n, image = result.m, result.n, result.p_prime
    named = [*zip("ABCD", scene._triples), ("P", _triple(probe.point)),
             ("M", (m.x, m.y, m.w)), ("N", (n.x, n.y, n.w))]
    if image.w:
        named.append(("P′", (image.x, image.y, image.w)))
    points = dict(named)
    for cls, chord in (("chord chord-cm", "CPM"), ("chord chord-bn", "BPN")):
        first = last = points[chord[0]]
        for t in (points[chord[1]], points[chord[2]]):
            if _octant(t, first) < (0, 0):
                first = t
            elif _octant(t, last) > (0, 0):
                last = t
        if any(_octant(first, last)):
            span = _clip(_cross(first, last), rect, (first, last)) if spec.clip else (first, last)
            if span is not None:
                em.segment(cls, span[0], span[1], _COLORS["chord"], "line")
    em.full_line("construction construction-am", result.line_am.coefficients,
                 _COLORS["construction"], "accent")
    em.full_line("construction construction-dn", result.line_dn.coefficients,
                 _COLORS["construction"], "accent")

    low, high = _at(xmin, ymin), _at(xmax, ymax)
    x, y, w = _shift(low, *high)
    center = x, y, 2 * w
    for name, point in named:
        if min(_octant(point, low)) >= 0 and max(_octant(point, high)) <= 0:
            em.marker(name, point)
            anchor = em.offset(point, _LABEL_DX, _LABEL_DY)
        else:
            # Outside the canvas (possible only with clipping): mark the spot
            # where the point left the viewport with an outward arrow. The
            # center is strictly inside, so the line from it to the point
            # leaves the canvas at the end on the point's side.
            span = _clip(_cross(center, point), rect)
            direction = _octant(point, center)
            tip = span[1] if direction > (0, 0) else span[0]
            em.arrow(name, tip, direction)
            ox, oy = direction
            anchor = em.offset(tip, (1 - 4 * (ox > 0)) * _LABEL_DX, (1 - 3 * (oy > 0)) * _LABEL_DY)
        if spec.labels:
            em.text("point-label", name, anchor, name, _COLORS["label"])

    if not result.p_prime.is_finite:
        caption_at = em.offset(_at(xmin, ymax), 2 * _LABEL_DX, -3 * _LABEL_DY)
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
