"""The probe-to-image construction, computed two independent ways.

Given a valid scene and a probe point P = (p, q), the chord through C and P
meets k1 again at M, the chord through B and P meets k2 again at N, and the
lines AM and DN meet at the image P'. The synthetic route (construct_image)
runs those steps once, as exact._chain on integer triples. The closed-form
route (image_closed_form) evaluates

    p' = (r2^2 - r1^2 + p(r1 + r2 + 2a)) / (r1 + r2 - 2a)
    q' = (r1 + r2 + 2a)(a - r1 + p)(a - r2 - p) / (q(r1 + r2 - 2a))

directly. The central invariant of the package is that the two routes agree
exactly on every admissible input, including the degenerate ones:

* q = 0: the chords run along the axis, M = A and N = D, and line AM / DN
  are taken to be the vertical tangents at A and D; the image is the point
  at infinity in direction (0, 1).
* probe line through B (p = a - r2): the image collapses to A for every q.
  Through C (p = r1 - a): it collapses to D.
* externally tangent circles (r1 + r2 = 2a): AM and DN are parallel for
  every probe and the image is at infinity, perpendicular to the chord
  through B = C.

The closed form is written once, as the integers of _image_map, which
image_closed_form, locus_x, classify_case, tangent_half_params,
random_probe and the figure's image line read: each degenerate case above
is a zero of one of its factors, and the radical axis is its fixed point.
The synthetic route never calls it. Everything is a pure function over
immutable values. Each fuzz trial draws from its own deterministically
derived stream, so trials could run concurrently without changing the
report. A config writes its frame once, in its constructor
(scenario._frame), and both routes read it.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property

from .errors import DegenerateProbe, WrongOrdering
from .exact import (
    INFINITY,
    ExtendedPoint,
    ExtendedScalar,
    Line,
    Point2,
    _chain,
    _triple,
    _Value,
    as_rational,
)
from .scenario import DerivedScene, Ordering, ScenarioConfig, _frame, derive

DEFAULT_SEED = 360
DEFAULT_TRIALS = 1000
DEFAULT_Q_SAMPLES = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 7))


class CaseFlag(Enum):
    GENERIC = "Generic"
    PROBE_ON_AXIS = "ProbeOnAxis"
    COLLAPSES_TO_A = "CollapsesToA"
    COLLAPSES_TO_D = "CollapsesToD"
    TOUCHING_CIRCLES = "TouchingCircles"
    ON_RADICAL_AXIS = "OnRadicalAxis"


class ProbePoint(_Value):
    """The probe P = (p, q); p doubles as the abscissa of the probe line."""

    p: Fraction
    q: Fraction

    def __init__(self, p, q):
        self.__dict__.update(p=as_rational(p), q=as_rational(q))

    @property
    def point(self) -> Point2:
        return Point2(self.p, self.q)


class ImageResult(_Value):
    """Everything the synthetic construction produces for one probe.

    The constructor takes m and n as integer triples of any scale; they
    become ExtendedPoints on first read, and M and N are their Point2
    views. Equality, hash and repr read m and n like the other fields.
    """

    m: ExtendedPoint = cached_property(lambda self: ExtendedPoint(*self._m))
    n: ExtendedPoint = cached_property(lambda self: ExtendedPoint(*self._n))
    line_am: Line
    line_dn: Line
    p_prime: ExtendedPoint
    M = property(lambda self: self.m.point)
    N = property(lambda self: self.n.point)

    def __init__(self, m, n, line_am, line_dn, p_prime):
        self.__dict__.update(_m=m, _n=n, line_am=line_am, line_dn=line_dn, p_prime=p_prime)


_GENERIC = frozenset({CaseFlag.GENERIC})


def _image_map(cfg: ScenarioConfig, p: Fraction) -> tuple:
    """The closed form on the line x = p: integers (e, x, w, s, u, v); the frame puts a, r1, r2 over d.

    p' = x/w and q q' = s u v / (e w), where s = r1 + r2 + 2a and w = e(r1 + r2 - 2a) is
    zero exactly for tangent circles. Only u and v take the common denominator e = d·pd:
    u/e = (a - r1)/d + p is zero on the line through C, v/e = (a - r2)/d - p through B.
    The radical axis is the fixed point x/w = p, or x = 0 where w = 0.
    """
    _, d, a, r1, r2 = _frame(cfg)
    pd, pn, s = p.denominator, p.numerator * d, r1 + r2 + 2 * a
    x, e = (r2 - r1) * (r2 + r1) * pd + pn * s, d * pd
    return e, x, e * (r1 + r2 - 2 * a), s, (a - r1) * pd + pn, (a - r2) * pd - pn


def classify_case(cfg: ScenarioConfig, probe: ProbePoint) -> frozenset:
    """Degeneracy flags, several at once: zeros of _image_map's factors, or its fixed point."""
    _, x, w, _, u, v = _image_map(cfg, probe.p)
    flags = frozenset(flag for flag, holds in (
        (CaseFlag.PROBE_ON_AXIS, probe.q == 0),
        (CaseFlag.COLLAPSES_TO_A, v == 0),
        (CaseFlag.COLLAPSES_TO_D, u == 0),
        (CaseFlag.TOUCHING_CIRCLES, w == 0),
        (CaseFlag.ON_RADICAL_AXIS, x * probe.p.denominator == probe.p.numerator * w),
    ) if holds)
    return flags or _GENERIC


def construct_image(scene: DerivedScene, probe: ProbePoint) -> ImageResult:
    """Synthetic route: exact._chain from P once, with its two zero tests and one fallback.

    M or N is zero exactly when the probe is C or B, which raises DegenerateProbe. AM and DN
    coincide only for tangent circles with the probe over B = C: both chords are tangent there,
    both lines are the axis, and the image escapes along it, (1 : 0 : 0), which no formula of
    the closed form gives. The route never calls the closed form: it is image_closed_form's oracle.
    """
    m, n, line_am, line_dn, (x, y, w) = _chain(scene._conics, scene._triples, _triple(probe.p, probe.q))
    if not any(m):
        raise DegenerateProbe("probe coincides with C; chord CP is undefined")
    if not any(n):
        raise DegenerateProbe("probe coincides with B; chord BP is undefined")
    if not (x or y or w):  # AM = DN, the axis: see above
        x, y = 1, 0
    return ImageResult(m, n, line_am, line_dn, ExtendedPoint(x, y, w))


def image_closed_form(cfg: ScenarioConfig, probe: ProbePoint) -> ExtendedPoint:
    """Closed-form route: the image (p' : q' : 1) from (a, r1, r2, p, q) as one triple.

    q = 0 gives w = 0 and x = 0, the vertical direction; tangent circles give
    w = 0 and (x, y) along the normal (q, a - r2 - p) of the chord through B = C.
    """
    d, x, w, s, u, v = _image_map(cfg, probe.p)
    q_n, q_d = probe.q.numerator, probe.q.denominator
    if q_n == 0 and not (u and v):
        raise DegenerateProbe(f"probe {probe.point} coincides with a chord base point")
    x, y, w = x * d * q_n, s * u * v * q_d, d * w * q_n
    # All zero for tangent circles with the probe line through B = C: AM and
    # DN both collapse onto the axis, so the image escapes along it.
    return ExtendedPoint(x, y, w) if x or y or w else ExtendedPoint(1, 0, 0)


def locus_x(cfg: ScenarioConfig, p) -> ExtendedScalar:
    """Abscissa of the image line; INFINITY exactly for tangent circles.

    Depends on (a, r1, r2, p) only, never on q: that is the fixed-line
    theorem this package verifies.
    """
    _, x, w, *_ = _image_map(cfg, as_rational(p))
    return Fraction(x, w) if w else INFINITY


def tangent_half_params(scene: DerivedScene, probe: ProbePoint) -> tuple[ExtendedScalar, ExtendedScalar]:
    """Parameters (u, v) of M on k1 and N on k2: t names center + r·((1 - t²), 2t)/(1 + t²).

    INFINITY names the leftmost point. u = (C.x - p)/q and v = q/(p - B.x), with
    the convention that a nonzero numerator over zero is INFINITY. A probe on
    C or B makes one of them 0/0 and raises DegenerateProbe, as in
    image_closed_form.
    """
    d, _, _, _, u, v = _image_map(scene.cfg, probe.p)  # C.x - p = -u/d, p - B.x = -v/d
    q = probe.q
    if q == 0 and not (u and v):
        raise DegenerateProbe(f"probe {probe.point} coincides with a chord base point")
    return (Fraction(-u, d) / q if q else INFINITY), (q * d / -v if v else INFINITY)


def verify_concurrency(scene: DerivedScene, q_samples) -> bool:
    """Check that AM, DN and the radical axis concur, for probes on the radical axis.

    Requires properly intersecting circles (the configuration in which the
    radical axis is the common-chord line). For each q sample the probe
    (radical_axis_x, q) is pushed through the synthetic construction and the
    image must land exactly back on the radical axis. ValueError unless
    there is at least one sample and every sample is nonzero; TypeError for
    a str, bytes or bytearray, which would be read one item at a time.
    """
    if isinstance(q_samples, (str, bytes, bytearray)):
        raise TypeError(f"q_samples must be a collection of rationals, not {type(q_samples).__name__}")
    if scene.ordering is not Ordering.INTERSECTING_ABCD:
        raise WrongOrdering("concurrency check needs properly intersecting circles")
    samples = [as_rational(q) for q in q_samples]
    if not samples or 0 in samples:
        raise ValueError("needs at least one q sample, and q samples must be nonzero")
    p = scene.radical_axis_x
    for q in samples:
        result = construct_image(scene, ProbePoint(p, q))
        if not (result.p_prime.is_finite and result.p_prime.point.x == p):
            return False
    return True


# --- seeded pseudorandom trials -------------------------------------------

@cache
def _rationals() -> tuple:
    """Every value a seeded draw can take: _rationals()[n][d] is Fraction(n - 50, d + 1).

    Built on the first draw, not at import, and shared from then on;
    Fractions are immutable, so sharing one is safe.
    """
    return tuple(tuple(Fraction(n - 50, d + 1) for d in range(20)) for n in range(101))


def random_rational(rng: random.Random) -> Fraction:
    """Fraction with numerator in [-50, 50] and denominator in [1, 20], shared from _rationals.

    randint redraws getrandbits(k), k the bit length of the range size, until
    a draw is below that size, so these loops draw what rng.randint(-50, 50)
    and rng.randint(1, 20) draw, and leave getstate() as they would.
    """
    getrandbits = rng.getrandbits
    while (n := getrandbits(7)) > 100:
        pass
    while (d := getrandbits(5)) > 19:
        pass
    return _rationals()[n][d]


def random_scenario(rng: random.Random) -> ScenarioConfig:
    """Rejection-sample (a, r1, r2) until the configuration is admissible.

    Each attempt draws what three random_rational(rng) calls draw, in the same
    order: a numerator is getrandbits(7) redrawn until below 101, minus 50,
    and a denominator getrandbits(5) redrawn until below 20, plus 1, as
    random_rational draws but without a Python call per draw. An attempt
    with a nonpositive numerator is rejected at once. Each other attempt
    builds a ScenarioConfig of Fractions shared from _rationals, whose
    constructor orders it; the first with an ordering is returned.
    """
    getrandbits, rationals = rng.getrandbits, _rationals()
    while True:
        while (a := getrandbits(7)) > 100:
            pass
        while (ad := getrandbits(5)) > 19:
            pass
        while (r1 := getrandbits(7)) > 100:
            pass
        while (r1d := getrandbits(5)) > 19:
            pass
        while (r2 := getrandbits(7)) > 100:
            pass
        while (r2d := getrandbits(5)) > 19:
            pass
        if a > 50 and r1 > 50 and r2 > 50:  # three positive numerators
            cfg = ScenarioConfig(rationals[a][ad], rationals[r1][r1d], rationals[r2][r2d])
            if cfg._frame[0] is not None:
                return cfg


def random_probe(rng: random.Random, scene: DerivedScene) -> ProbePoint:
    """Random probe that does not sit on a chord base point (B or C).

    Draws what two random_rational(rng) calls draw, in the same order.
    """
    while True:
        probe = ProbePoint(random_rational(rng), random_rational(rng))
        # B and C lie on the axis: only a probe with q = 0 and u v = 0 (_image_map) is on one.
        if probe.q or all(_image_map(scene.cfg, probe.p)[4:]):
            return probe


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent deterministic stream for one trial (seed plus trial index).

    TypeError unless seed and index are ints, not bools; ValueError unless
    they are at least 0, as random.Random seeds from abs(seed). Two seeds'
    streams stay distinct only while the index is below 1,000,003:
    trial_rng(3, 1_000_003) is trial_rng(4, 0).
    """
    if not (type(seed) is type(index) is int):
        raise TypeError(f"seed and index must be ints, got {seed!r} and {index!r}")
    if seed < 0 or index < 0:
        raise ValueError(f"seed and index must be at least 0, got {seed} and {index}")
    return random.Random(seed * 1_000_003 + index)


class FuzzFailure(_Value):
    """A fuzz trial whose two routes disagree: its index, its inputs and both images of P."""

    trial: int
    config: ScenarioConfig
    probe: ProbePoint
    geometric: ExtendedPoint
    closed_form: ExtendedPoint

    def __init__(self, trial, config, probe, geometric, closed_form):
        self.__dict__.update(
            trial=trial, config=config, probe=probe, geometric=geometric, closed_form=closed_form
        )


class FuzzReport(_Value):
    """What run_oracle_fuzz ran, trials at seed, and the FuzzFailure of each disagreeing trial."""

    trials: int
    seed: int
    failures: tuple

    def __init__(self, trials, seed, failures):
        self.__dict__.update(trials=trials, seed=seed, failures=failures)


def run_oracle_fuzz(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> FuzzReport:
    """Compare the synthetic and closed-form routes on random admissible inputs."""
    if not (type(trials) is type(seed) is int):
        raise TypeError(f"trials and seed must be ints, got {trials!r} and {seed!r}")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    failures = []
    for index in range(trials):
        rng = trial_rng(seed, index)
        cfg = random_scenario(rng)
        scene = derive(cfg)
        probe = random_probe(rng, scene)
        geometric = construct_image(scene, probe).p_prime
        closed = image_closed_form(cfg, probe)
        if geometric != closed:
            failures.append(FuzzFailure(index, cfg, probe, geometric, closed))
    return FuzzReport(trials=trials, seed=seed, failures=tuple(failures))
