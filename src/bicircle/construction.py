"""The probe-to-image construction, computed two independent ways.

Given a valid scene and a probe point P = (p, q), the chord through C and P
meets k1 again at M, the chord through B and P meets k2 again at N, and the
lines AM and DN meet at the image P'. The synthetic route (construct_image)
performs exactly those kernel steps, on integer triples (see exact.py). The
closed-form route (image_closed_form) evaluates

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

Everything is a pure function over immutable values. The fuzz harness draws
each trial's randomness from its own deterministically derived stream, so
trials could be evaluated concurrently without changing the report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DegenerateProbe, IndeterminateParam, InvalidScenario, WrongOrdering
from .exact import (
    INFINITY,
    ExtendedPoint,
    ExtendedScalar,
    Line,
    Point2,
    _cross,
    _polar,
    _second,
    as_rational,
)
from .scenario import DerivedScene, Ordering, ScenarioConfig, _frame, derive, validate

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


@dataclass(frozen=True, init=False)
class ProbePoint:
    """The probe P = (p, q); p doubles as the abscissa of the probe line."""

    p: Fraction
    q: Fraction

    def __init__(self, p, q):
        object.__setattr__(self, "p", as_rational(p))
        object.__setattr__(self, "q", as_rational(q))

    @property
    def point(self) -> Point2:
        return Point2(self.p, self.q)


@dataclass(frozen=True, init=False)
class ImageResult:
    """Everything the synthetic construction produces for one probe.

    M and N are the Point2 views of the ExtendedPoint triples m and n.
    """

    m: ExtendedPoint
    n: ExtendedPoint
    line_am: Line
    line_dn: Line
    p_prime: ExtendedPoint
    M = property(lambda self: self.m.point)
    N = property(lambda self: self.n.point)

    def __init__(self, m, n, line_am, line_dn, p_prime):  # past the frozen __setattr__
        self.__dict__.update(m=m, n=n, line_am=line_am, line_dn=line_dn, p_prime=p_prime)


_GENERIC = frozenset({CaseFlag.GENERIC})


def _classify(scene: DerivedScene, probe: ProbePoint) -> frozenset:
    p = probe.p
    flags = frozenset(flag for flag, holds in (
        (CaseFlag.PROBE_ON_AXIS, probe.q == 0),
        (CaseFlag.COLLAPSES_TO_A, p == scene.B.x),
        (CaseFlag.COLLAPSES_TO_D, p == scene.C.x),
        (CaseFlag.TOUCHING_CIRCLES, scene.ordering is Ordering.EXTERNALLY_TANGENT),
        (CaseFlag.ON_RADICAL_AXIS, p == scene.radical_axis_x),
    ) if holds)
    return flags or _GENERIC


def classify_case(cfg: ScenarioConfig, probe: ProbePoint) -> frozenset:
    """Degeneracy flags for the probe; several can hold at once."""
    return _classify(derive(cfg), probe)


def construct_image(scene: DerivedScene, probe: ProbePoint) -> ImageResult:
    """Synthetic route: M, N, lines AM and DN, and their intersection P'.

    The steps are chained on integer triples; M, N, the lines and P' are
    divided by their gcd where they are stored. When a chord degenerates
    (M = A or N = D, exactly for probes on the axis) the join is the zero
    triple and the line is the tangent at A or D, the limiting position of
    the moving chord line. This route uses only kernel constructions and
    never the closed form, so it is the independent oracle for
    image_closed_form.
    """
    p, q = probe.p, probe.q
    xyw = p.numerator * q.denominator, q.numerator * p.denominator, p.denominator * q.denominator
    (k1, k2), (a, b, c, d) = scene._conics, scene._triples
    m = _second(k1, c, xyw)
    if not any(m):  # zero exactly when the probe is the base
        raise DegenerateProbe("probe coincides with C; chord CP is undefined")
    n = _second(k2, b, xyw)
    if not any(n):
        raise DegenerateProbe("probe coincides with B; chord BP is undefined")
    m, n = ExtendedPoint(*m), ExtendedPoint(*n)
    am, dn = _cross(a, (m.x, m.y, m.w)), _cross(d, (n.x, n.y, n.w))
    line_am = Line(*(am if any(am) else _polar(k1, a)))
    line_dn = Line(*(dn if any(dn) else _polar(k2, d)))
    x, y, w = _cross(line_am.coefficients, line_dn.coefficients)
    if not (x or y or w):
        # Only reachable for tangent circles with the probe on the vertical
        # through B = C: both chords are tangent there and AM, DN collapse
        # onto the axis. The image escapes along that common direction.
        x, y = line_am.coefficients[1], -line_am.coefficients[0]
    return ImageResult(m, n, line_am, line_dn, ExtendedPoint(x, y, w))


def image_closed_form(cfg: ScenarioConfig, probe: ProbePoint) -> ExtendedPoint:
    """Closed-form route: the image (p' : q' : 1) from (a, r1, r2, p, q) as one triple.

    q = 0 gives w = 0 and x = 0, the vertical direction; tangent circles give
    w = 0 and (x, y) along the normal (q, a - r2 - p) of the chord through B = C.
    """
    # a, r1, r2 and p over one common denominator d > 0.
    _, d, a, r1, r2, p = _frame(cfg, probe.p)
    q_n, q_d = probe.q.numerator, probe.q.denominator
    if q_n == 0 and (p == a - r2 or p == r1 - a):
        raise DegenerateProbe(f"probe {probe.point} coincides with a chord base point")
    s, den = r1 + r2 + 2 * a, r1 + r2 - 2 * a
    x = (r2 * r2 - r1 * r1 + p * s) * d * q_n
    y = s * (a - r1 + p) * (a - r2 - p) * q_d
    w = d * d * den * q_n
    # All zero for tangent circles with the probe line through B = C: AM and
    # DN both collapse onto the axis, so the image escapes along it.
    return ExtendedPoint(x, y, w) if x or y or w else ExtendedPoint(1, 0, 0)


def locus_x(cfg: ScenarioConfig, p) -> ExtendedScalar:
    """Abscissa of the image line; INFINITY exactly for tangent circles.

    Depends on (a, r1, r2, p) only, never on q: that is the fixed-line
    theorem this package verifies.
    """
    ordering, d, a, r1, r2, p = _frame(cfg, p)
    if ordering is Ordering.EXTERNALLY_TANGENT:
        return INFINITY
    return Fraction(r2 * r2 - r1 * r1 + p * (r1 + r2 + 2 * a), d * (r1 + r2 - 2 * a))


def tangent_half_params(scene: DerivedScene, probe: ProbePoint) -> tuple[ExtendedScalar, ExtendedScalar]:
    """Circle parameters (u, v) with param_point(k1, u) = M and param_point(k2, v) = N.

    u = (C.x - p)/q and v = q/(p - B.x), with the conventions that a nonzero
    numerator over zero is INFINITY and 0/0 (probe on C or B) is an error.
    """
    p, q = probe.p, probe.q
    u_num, v_den = scene.C.x - p, p - scene.B.x
    if q == 0 and u_num == 0:
        raise IndeterminateParam("probe coincides with C: u = 0/0")
    if q == 0 and v_den == 0:
        raise IndeterminateParam("probe coincides with B: v = 0/0")
    return (u_num / q if q else INFINITY), (q / v_den if v_den else INFINITY)


def verify_concurrency(scene: DerivedScene, q_samples) -> bool:
    """Check that AM, DN and the radical axis concur, for probes on the radical axis.

    Requires properly intersecting circles (the configuration in which the
    radical axis is the common-chord line). For each nonzero q sample the
    probe (radical_axis_x, q) is pushed through the synthetic construction
    and the image must land exactly back on the radical axis.
    """
    if scene.ordering is not Ordering.INTERSECTING_ABCD:
        raise WrongOrdering("concurrency check needs properly intersecting circles")
    p = scene.radical_axis_x
    for q in q_samples:
        q = as_rational(q)
        if q == 0:
            raise ValueError("q samples must be nonzero")
        result = construct_image(scene, ProbePoint(p, q))
        if not (result.p_prime.is_finite and result.p_prime.point.x == p):
            return False
    return True


# --- seeded pseudorandom trials -------------------------------------------

def random_rational(rng: random.Random) -> Fraction:
    """Fraction with numerator in [-50, 50] and denominator in [1, 20]."""
    return Fraction(rng.randint(-50, 50), rng.randint(1, 20))


def _randint(getrandbits, low: int, high: int) -> int:
    """What randint(low, high) returns for a random.Random whose getrandbits is given.

    randint draws getrandbits(k), k the bit length of the range size, until
    a draw falls below that size. Drawing the same way here, without
    randint's layers of calls, leaves every seeded stream and getstate()
    as randint would.
    """
    size = high - low + 1
    k = size.bit_length()
    r = getrandbits(k)
    while r >= size:
        r = getrandbits(k)
    return low + r


def random_scenario(rng: random.Random) -> ScenarioConfig:
    """Rejection-sample (a, r1, r2) until the configuration is admissible.

    Each attempt draws what three random_rational(rng) calls draw, in the same
    order, but rejects a nonpositive numerator before building anything:
    validate rejects those, since every denominator is positive.
    """
    getrandbits = rng.getrandbits
    while True:
        a, ad, r1, r1d, r2, r2d = (
            _randint(getrandbits, -50, 50), _randint(getrandbits, 1, 20),
            _randint(getrandbits, -50, 50), _randint(getrandbits, 1, 20),
            _randint(getrandbits, -50, 50), _randint(getrandbits, 1, 20),
        )
        if a <= 0 or r1 <= 0 or r2 <= 0:
            continue
        cfg = ScenarioConfig(Fraction(a, ad), Fraction(r1, r1d), Fraction(r2, r2d))
        try:
            validate(cfg)
        except InvalidScenario:
            continue
        return cfg


def random_probe(rng: random.Random, scene: DerivedScene) -> ProbePoint:
    """Random probe that does not sit on a chord base point (B or C).

    Draws what two random_rational(rng) calls draw, in the same order.
    """
    getrandbits = rng.getrandbits
    while True:
        pn, pd, qn, qd = (
            _randint(getrandbits, -50, 50), _randint(getrandbits, 1, 20),
            _randint(getrandbits, -50, 50), _randint(getrandbits, 1, 20),
        )
        p = Fraction(pn, pd)
        # B and C lie on the axis, so only a probe with q = 0 can hit them.
        if qn or (p != scene.B.x and p != scene.C.x):
            return ProbePoint(p, Fraction(qn, qd))


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent deterministic stream for one trial (seed plus trial index)."""
    return random.Random(seed * 1_000_003 + index)


@dataclass(frozen=True)
class FuzzFailure:
    trial: int
    config: ScenarioConfig
    probe: ProbePoint
    geometric: ExtendedPoint
    closed_form: ExtendedPoint


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    seed: int
    failures: tuple


def run_oracle_fuzz(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> FuzzReport:
    """Compare the synthetic and closed-form routes on random admissible inputs."""
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
