"""Deterministic SVG rendering of scenes, probes, and construction results.

The geometry model stays exact all the way to serialization: everything drawn
is an integer triple (x, y, w) with w > 0, and each emitted coordinate x/w is
rounded to exactly six decimal places (half to even) at the last moment, by
decimal6 on the ints the emitter built. layout finds the bounds and the scale
on integer (numerator, denominator) pairs too; Fractions remain only in the
scale, tx and ty of its Viewport. Geometry is written in model units inside a
single translate+scale group; the y axis is flipped by negating y values at
emission time, which keeps text upright without nested transforms. One emitter
method writes every element, then the whole paint of its class from one style
table (_STYLES), formatted in one pass per document. The canvas edges and each
named point on the canvas are formatted once too: vertical and horizontal
lines run edge to edge, and a point's marker and the chords that end on it
share its text. RenderSpec checks once that its result is construct_image's
for its scene and probe, so P is neither B nor C: each chord, its points
ordered by cross-multiplication, has positive length, and every line cut by
_clip passes through A, B, C, D or the canvas center, strictly inside the
canvas. A chord with both ends on the canvas is drawn whole; any other has
only P off the canvas and is cut where its line leaves it on P's side, so only
layout reads RenderSpec.clip. Identical specs yield byte-identical documents.

A point at infinity is never drawn as a far-away marker: the two parallel
(or tangent) lines are drawn instead and a caption notes that the image is
at infinity.
"""

from fractions import Fraction

from .construction import ImageResult, ProbePoint, _image_map, construct_image
from .exact import _cross, _triple, _Value
from .scenario import DerivedScene, _frame

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

# Each element class drawn and its whole paint, written after the geometry;
# {key} stands for the _PIXELS length of that key.
_STYLES = {
    "circle-k1": 'fill="none" stroke="#2b2b2b" stroke-width="{circle}"',
    "circle-k2": 'fill="none" stroke="#2b2b2b" stroke-width="{circle}"',
    "axis": 'stroke="#888888" stroke-width="{line}"',
    "radical-axis": 'stroke="#666666" stroke-width="{line}" stroke-dasharray="{dash-on} {dash-off}"',
    "probe-line": 'stroke="#1f6fd0" stroke-width="{accent}"',
    "image-line": 'stroke="#d04a1f" stroke-width="{accent}"',
    "chord chord-cm": 'stroke="#9a9a9a" stroke-width="{line}"',
    "chord chord-bn": 'stroke="#9a9a9a" stroke-width="{line}"',
    "construction construction-am": 'stroke="#3c8c3c" stroke-width="{accent}"',
    "construction construction-dn": 'stroke="#3c8c3c" stroke-width="{accent}"',
    "point-marker": 'r="{marker}" fill="#111111"',
    "point-marker clipped": 'fill="#111111"',
    "point-label": 'font-family="Helvetica, Arial, sans-serif" font-size="{font}" fill="#111111"',
    "caption": 'font-family="Helvetica, Arial, sans-serif" font-size="{font}" fill="#333333"',
}
_PAINT = "\n".join(_STYLES.values())  # the whole table, formatted in one pass
_SEGMENT = 'x1="%s" y1="%s" x2="%s" y2="%s"'  # a line's ends as (x, y) texts, y negated


def decimal6(n: int, d: int) -> str:
    """n/d with exactly six fractional digits, rounded half to even.

    The renderer's internal rounding, for ints n and d > 0 that the renderer
    built itself: unchecked, and not exported.
    """
    if not n:
        return "0.000000"
    q, r = divmod(2_000_000 * n + d, 2 * d)  # n/d * 10**6 + 1/2, floored
    if not r and q & 1:  # a tie rounded up to an odd q: round it down to even
        q -= 1
    if q < 0:
        return "-%d.%06d" % divmod(-q, 1_000_000)
    return "%d.%06d" % divmod(q, 1_000_000)


class RenderSpec(_Value):
    """What to draw: a scene, a probe and its construction result. width/height are pixels.

    TypeError unless each field's class is exactly its annotation, so no bool or IntEnum is a width.
    ValueError unless result == construct_image(scene, probe), whose DegenerateProbe refuses a probe on B or C.
    """

    scene: DerivedScene
    probe: ProbePoint
    result: ImageResult
    width: int
    height: int
    show_radical_axis: bool
    labels: bool
    clip: bool

    def __init__(self, scene, probe, result, width=800, height=600,
                 show_radical_axis=True, labels=True, clip=False):
        values = scene, probe, result, width, height, show_radical_axis, labels, clip
        for (name, kind), value in zip(RenderSpec.__annotations__.items(), values):
            if type(value) is not kind:
                article = "an" if kind.__name__[0] in "aeiouAEIOU" else "a"
                raise TypeError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")
        if width < 64 or height < 64:
            raise ValueError("width and height must be at least 64 pixels")
        if result != construct_image(scene, probe):
            raise ValueError("result must be construct_image(scene, probe)")
        self.__dict__.update(zip(RenderSpec.__annotations__, values))


class Viewport(_Value):
    """Affine model-to-pixel map: px = tx + scale*x, py = ty - scale*y."""

    width: int
    height: int
    scale: Fraction
    tx: Fraction
    ty: Fraction

    def __init__(self, width, height, scale, tx, ty):
        self.__dict__.update(width=width, height=height, scale=scale, tx=tx, ty=ty)

    def _rect(self) -> tuple[tuple[int, int], ...]:
        """The canvas in model space, (xmin, xmax, ymin, ymax), as unreduced (n, d) pairs, d > 0."""
        sn, sd = self.scale.numerator, self.scale.denominator
        tn, td = self.tx.numerator, self.tx.denominator
        un, ud = self.ty.numerator, self.ty.denominator
        return (
            (-tn * sd, td * sn),
            ((self.width * td - tn) * sd, td * sn),
            ((un - self.height * ud) * sd, ud * sn),
            (un * sd, ud * sn),
        )


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
    _, d, _, r1, r2 = _frame(scene.cfg)
    (ax, _, aw), (dx, _, dw) = scene._triples[0], scene._triples[3]
    xmin, xmax, ymin, ymax = (ax, aw), (dx, dw), (-max(r1, r2), d), (max(r1, r2), d)
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


def _clip(line, rect) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Extreme points, in (x, y) order, of the line a*x + b*y + c = 0 in a rectangle.

    rect is (xmin, xmax, ymin, ymax) as (numerator, denominator) pairs with
    positive denominators; the points are triples (x, y, w) with w > 0. The line
    passes through a point strictly inside the rectangle, as every line render_svg clips.
    """
    a, b, c = line
    vertical = not b
    xs, ys = rect[:2], rect[2:]
    if vertical:  # walked by y: swap the roles of x and y
        a, b, xs, ys = b, a, ys, xs
    if b < 0:
        a, b, c = -a, -b, -c
    # On the line y = -(a*x + c)/b. Bound x below and above by (n, d) pairs.
    lo, hi = xs
    if a:  # x at y = n/d; y falls as x grows when a > 0
        cuts = [(b * n + c * d, -a * d) if a < 0 else (-b * n - c * d, a * d) for n, d in ys]
        (n, d), (m, e) = reversed(cuts) if a > 0 else cuts
        if n * lo[1] > lo[0] * d:
            lo = n, d
        if m * hi[1] < hi[0] * e:
            hi = m, e
    span = [(n * b, -(a * n + c * d), d * b) for n, d in (lo, hi)]
    return tuple((y, x, w) for x, y, w in span) if vertical else tuple(span)


def _at(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int, int]:
    """The triple of the point with coordinates given as (numerator, denominator) pairs."""
    return x[0] * y[1], y[0] * x[1], x[1] * y[1]


def _octant(p, q) -> tuple[int, int]:
    """Signs of the x and y components of p - q, for triples p and q."""
    dx, dy = p[0] * q[2] - q[0] * p[2], p[1] * q[2] - q[1] * p[2]
    return (dx > 0) - (dx < 0), (dy > 0) - (dy < 0)


def _before(p, q) -> bool:
    """p comes before q in (x, y) order, for triples p and q with w > 0."""
    dx = p[0] * q[2] - q[0] * p[2]
    return dx < 0 or not dx and p[1] * q[2] < q[1] * p[2]


def _coords(t) -> tuple[str, str]:
    """The texts of x/w and -y/w for a triple (x, y, w): the point's SVG coordinates."""
    return decimal6(t[0], t[2]), decimal6(-t[1], t[2])


class _Emitter:
    """Accumulates SVG elements in model coordinates (y negated on output)."""

    def __init__(self, viewport: Viewport):
        self.rect = (xn, xd), (Xn, Xd), (yn, yd), (Yn, Yd) = viewport._rect()
        self.sn, self.sd = viewport.scale.numerator, viewport.scale.denominator
        px = {key: decimal6(n * self.sd, d * self.sn) for key, (n, d) in _PIXELS.items()}
        self.paint = dict(zip(_STYLES, _PAINT.format_map(px).split("\n")))
        self.edges = decimal6(xn, xd), decimal6(Xn, Xd), decimal6(-yn, yd), decimal6(-Yn, Yd)
        self.parts: list[str] = []

    def offset(self, t, dx: int, dy: int) -> tuple[int, int, int]:
        """t moved by (dx, dy) pixels, in model units."""
        x, y, w = t
        return x * self.sn + dx * self.sd * w, y * self.sn + dy * self.sd * w, w * self.sn

    def add(self, tag: str, cls: str, attrs: str, name: str = "", text: str = "") -> None:
        """One element of class cls, painted by its class: geometry attrs, a data-name, text content."""
        data = f' data-name="{name}"' if name else ""
        end = f">{text}</{tag}>" if text else "/>"
        self.parts.append(f'<{tag} class="{cls}"{data} {attrs} {self.paint[cls]}{end}')

    def full_line(self, cls: str, line: tuple[int, int, int]) -> None:
        """The line a*x + b*y + c = 0 across the canvas, or nothing if it misses the canvas."""
        a, b, c = line
        if a and b:  # AM or DN, through A or D strictly inside the canvas, as _clip needs
            lo, hi = _clip(line, self.rect)
            self.add("line", cls, _SEGMENT % (*_coords(lo), *_coords(hi)))
            return
        n, d = (-c, a or b) if a + b > 0 else (c, -a - b)  # the line is x = n/d or y = n/d
        (lo, lw), (hi, hw) = self.rect[:2] if a else self.rect[2:]
        if lo * d <= n * lw and n * hw <= hi * d:
            left, right, bottom, top = self.edges  # texts of the x and, negated, the y of the edges
            v = decimal6(n if a else -n, d)
            self.add("line", cls, _SEGMENT % ((v, bottom, v, top) if a else (left, v, right, v)))

    def arrow(self, name: str, tip, direction: tuple[int, int]) -> None:
        """Clipped-marker arrow: a small triangle pointing out of the canvas."""
        ux, uy = direction
        base = self.offset(tip, -ux * _ARROW_LEN, -uy * _ARROW_LEN)
        left = self.offset(base, -uy * _ARROW_HALF, ux * _ARROW_HALF)
        right = self.offset(base, uy * _ARROW_HALF, -ux * _ARROW_HALF)
        points = " ".join(f"{decimal6(x, w)},{decimal6(-y, w)}" for x, y, w in (tip, left, right))
        self.add("polygon", "point-marker clipped", f'points="{points}"', name)


def render_svg(spec: RenderSpec) -> str:
    """Produce the SVG document text for a render spec (byte-deterministic)."""
    viewport = layout(spec)
    scene = spec.scene
    em = _Emitter(viewport)
    rect = xmin, xmax, ymin, ymax = (xn, xd), (Xn, Xd), (yn, yd), (Yn, Yd) = em.rect

    _, d, a, r1, r2 = frame = _frame(scene.cfg)
    for cls, x, r in (("circle-k1", -a, r1), ("circle-k2", a, r2)):
        em.add("circle", cls, 'cx="%s" cy="%s" r="%s"' % (*_coords((x, 0, d)), decimal6(r, d)))
    em.full_line("axis", _AXIS)
    # The radical axis, the probe line and the image line are verticals
    # x = n/w, drawn as the triples (w, 0, -n).
    if spec.show_radical_axis:
        em.full_line("radical-axis", (4 * a * d, 0, r2 * r2 - r1 * r1))
    probe, result = spec.probe, spec.result
    em.full_line("probe-line", (probe.p.denominator, 0, -probe.p.numerator))
    # The image line exists whenever the circles are not tangent, even if
    # this particular probe sends its image point to infinity along it.
    _, image_x, image_w, *_ = _image_map(frame, probe.p)
    if image_w:
        em.full_line("image-line", (image_w, 0, -image_x))

    m, n, image = result.m, result.n, result.p_prime
    points = dict(zip("ABCD", scene._triples), P=_triple(probe.p, probe.q),
                  M=(m.x, m.y, m.w), N=(n.x, n.y, n.w))
    if image.w:
        points["P′"] = image.x, image.y, image.w
    # The coordinate texts of each point on the canvas, for its marker and the chords ending on it.
    text = {(x, y, w): _coords((x, y, w)) for x, y, w in points.values()
            if xn * w <= x * xd and x * Xd <= Xn * w and yn * w <= y * yd and y * Yd <= Yn * w}
    for cls, chord in (("chord chord-cm", "CPM"), ("chord chord-bn", "BPN")):
        first = last = points[chord[0]]
        for t in (points[chord[1]], points[chord[2]]):
            if _before(t, first):
                first = t
            elif _before(last, t):
                last = t
        if first in text and last in text:  # both ends on the canvas: nothing to cut
            em.add("line", cls, _SEGMENT % (*text[first], *text[last]))
        else:  # only P, an end, is off the canvas: cut where the line leaves it on P's side
            lo, hi = _clip(_cross(first, last), rect)
            ends = (*text[first], *_coords(hi)) if first in text else (*_coords(lo), *text[last])
            em.add("line", cls, _SEGMENT % ends)
    em.full_line("construction construction-am", result.line_am.coefficients)
    em.full_line("construction construction-dn", result.line_dn.coefficients)

    (lx, ly, lw), (hx, hy, hw) = _at(xmin, ymin), _at(xmax, ymax)
    center = lx * hw + hx * lw, ly * hw + hy * lw, 2 * lw * hw
    for name, point in points.items():
        if point in text:
            em.add("circle", "point-marker", 'cx="%s" cy="%s"' % text[point], name)
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
            em.add("text", "point-label", 'x="%s" y="%s"' % _coords(anchor), name, name)

    if not result.p_prime.is_finite:
        caption_at = em.offset(_at(xmin, ymax), 2 * _LABEL_DX, -3 * _LABEL_DY)
        em.add("text", "caption", 'x="%s" y="%s"' % _coords(caption_at), text="P′ at infinity")

    transform = viewport.tx, viewport.ty, viewport.scale
    tx, ty, scale = (decimal6(v.numerator, v.denominator) for v in transform)
    body = "\n".join(em.parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{spec.width}"'
        f' height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">\n'
        f'<rect class="background" x="0" y="0" width="{spec.width}"'
        f' height="{spec.height}" fill="#ffffff"/>\n'
        f'<g transform="translate({tx} {ty}) scale({scale})">\n'
        f"{body}\n"
        "</g>\n"
        "</svg>\n"
    )
