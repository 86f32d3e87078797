"""The kernel's image chain over ℤ/pℤ: the fixed-line theorem at random points.

_polar, _second and _cross use only +, -, * and integer literals, so they run
unchanged over any commutative ring, and so does exact._chain once its one
dividing step, _axis_join, is replaced by the _cross join. Here _chain's own
code runs so over ℤ/pℤ, p = 2⁶¹ − 1, from the probe P through M, N and the
lines AM and DN to P′ = (X : Y : W), at random a, r1, r2, p and q, and four
polynomial identities are checked there:

- q-independence: X(q₁)·W(q₂) = X(q₂)·W(q₁);
- the closed form: X·(r1 + r2 − 2a) = W·(r2² − r1² + s·p), s = r1 + r2 + 2a;
- q·q′ = κ(p): Y·q·(r1 + r2 − 2a) = W·s·(a − r1 + p)(a − r2 − p);
- the raw triple: (X, Y, W) = 16·r1·r2·q²·((r2² − r1² + s·p)·q,
  s·(a − r1 + p)(a − r2 − p), (r1 + r2 − 2a)·q), the scale as well as the point.

Each side has degree at most 13, so by Schwartz–Zippel (J. T. Schwartz,
JACM 27, 1980) a false identity passes one random point with probability at
most 13/p < 2⁻⁵⁷. construct_image runs the same _chain with _axis_join, so
one more test runs the _cross join over ℤ and compares its P′ with
construct_image's: the two joins must give the same point.

The chain sees only the arithmetic it runs. Both circles are centred on the
axis, so v = 0 in both conics and the v terms of _polar never show there. A
second check covers them: on a random conic with v ≠ 0, _second's point from
a point of the conic through another lies on the conic and on their line.
Flipping the sign of _cross's middle component passes the first three
identities: the _cross join takes A and D to M and N, and the mutant's three
crosses compose to −P′, the same point. The raw triple fixes the sign as
well, so the fourth catches it. construct_image joins A and D with
_axis_join, so only its last cross is the mutant's, and the two-route oracle
catches that too; the last test here runs it.
"""

import inspect
import random
from types import FunctionType

import pytest

from bicircle import (
    ExtendedPoint,
    InvalidScenario,
    ProbePoint,
    ScenarioConfig,
    construct_image,
    derive,
    exact,
    image_closed_form,
    run_oracle_fuzz,
)

MODULUS = 2**61 - 1


class ModP:
    """An element of ℤ/pℤ, p = MODULUS; ints on either side are read mod p."""

    def __init__(self, v):
        self.v = v % MODULUS

    def __add__(self, other):
        return ModP(self.v + int(other))

    def __sub__(self, other):
        return ModP(self.v - int(other))

    def __rsub__(self, other):
        return ModP(int(other) - self.v)

    def __mul__(self, other):
        return ModP(self.v * int(other))

    def __neg__(self):
        return ModP(-self.v)

    def __int__(self):
        return self.v

    def __eq__(self, other):
        return (self.v - int(other)) % MODULUS == 0

    __radd__ = __add__
    __rmul__ = __mul__


def over_ring(namespace: dict) -> dict:
    """namespace, with _chain's code run on its names and _axis_join the _cross join.

    The _cross join is namespace's raw _cross of the two points, looked up
    at each call, so _chain uses +, - and * alone and runs over any ring.
    """
    namespace["_axis_join"] = lambda base, p: namespace["_cross"](base, p)
    namespace["_chain"] = FunctionType(exact._chain.__code__, namespace)
    return namespace


KERNEL = over_ring(dict(vars(exact)))


def image(a, r1, r2, p, q, kernel=KERNEL):
    """P′ = AM × DN from kernel's _chain; k1 is centred at (−a, 0) with radius r1, k2 at (a, 0) with r2."""
    k1 = (1, 2 * a, 0, a * a - r1 * r1)  # (s, u, v, t): s(x² + y²) + u·x + v·y + t
    k2 = (1, -2 * a, 0, a * a - r2 * r2)
    triples = tuple((x, 0, 1) for x in (-a - r1, a - r2, r1 - a, a + r2))  # A, B, C, D
    return kernel["_chain"]((k1, k2), triples, (p, q, 1))[4]


def integer_cases(rng, count):
    """count seeded valid integer configs (a, r1, r2), each with an integer probe (p, q), q ≠ 0."""
    cases = []
    while len(cases) < count:
        a, r1, r2 = (rng.randint(1, 40) for _ in range(3))
        p, q = rng.randint(-80, 80), rng.choice((-1, 1)) * rng.randint(1, 80)
        try:
            scene = derive(ScenarioConfig(a, r1, r2))
        except InvalidScenario:  # nested circles
            continue
        cases.append((scene, a, r1, r2, p, q))
    return cases


def identities_hold(rng, kernel=KERNEL) -> bool:
    a, r1, r2, p, q1, q2 = (ModP(rng.randrange(MODULUS)) for _ in range(6))
    x1, y1, w1 = image(a, r1, r2, p, q1, kernel)
    x2, _, w2 = image(a, r1, r2, p, q2, kernel)
    s, gap = r1 + r2 + 2 * a, r1 + r2 - 2 * a
    return (
        w1 != 0  # a zero triple would satisfy every identity below
        and x1 * w2 == x2 * w1
        and x1 * gap == w1 * (r2 * r2 - r1 * r1 + s * p)
        and y1 * q1 * gap == w1 * s * (a - r1 + p) * (a - r2 - p)
    )


def raw_image_holds(rng, kernel=KERNEL) -> bool:
    """The chain's raw triple is the closed form scaled by 16·r1·r2·q², not only the same point."""
    a, r1, r2, p, q = (ModP(rng.randrange(MODULUS)) for _ in range(5))
    s, gap = r1 + r2 + 2 * a, r1 + r2 - 2 * a
    scale = 16 * r1 * r2 * q * q
    expected = (
        scale * (r2 * r2 - r1 * r1 + s * p) * q,
        scale * s * (a - r1 + p) * (a - r2 - p),
        scale * gap * q,
    )
    return all(u == v for u, v in zip(image(a, r1, r2, p, q, kernel), expected))


def second_point_holds(rng, second=exact._second) -> bool:
    """_second on a random conic with v ≠ 0, from a random point of it through a random point."""
    s, u, x, y, X, Y, W = (ModP(rng.randrange(MODULUS)) for _ in range(7))
    v = ModP(rng.randrange(1, MODULUS))
    t = -(s * (x * x + y * y) + u * x + v * y)  # so that base = (x, y, 1) lies on the conic
    base, through = (x, y, 1), (X, Y, W)
    m0, m1, m2 = point = second((s, u, v, t), base, through)
    return (
        m2 != 0
        and s * (m0 * m0 + m1 * m1) + u * m0 * m2 + v * m1 * m2 + t * m2 * m2 == 0
        and sum(a * b for a, b in zip(exact._cross(base, through), point)) == 0
    )


def mutant(old: str, new: str) -> dict:
    """over_ring's names, with _cross, _polar, _second and _chain recompiled, ``old`` replaced by ``new``.

    ``old`` occurs once in the four sources. Each recompiled function calls
    the recompiled others, so a mutant of _polar shows through _second, and
    one of any of the three through _chain.
    """
    sources = [inspect.getsource(f) for f in (exact._cross, exact._polar, exact._second, exact._chain)]
    assert sum(source.count(old) for source in sources) == 1, old
    namespace = over_ring(dict(vars(exact)))
    for source in sources:
        exec(source.replace(old, new), namespace)
    return namespace


class TestImageChainModP:
    POINTS = 50

    def test_shipped_kernel(self):
        rng = random.Random(2408)
        assert all(identities_hold(rng) for _ in range(self.POINTS))

    def test_sign_flip_in_second_is_caught(self):
        kernel, rng = mutant("- b * t0", "+ b * t0"), random.Random(2408)
        assert not any(identities_hold(rng, kernel) for _ in range(self.POINTS))

    @pytest.mark.parametrize("old, new", [
        ("2 * s * x + u * w", "2 * s * x - u * w"),
        ("2 * t * w", "t * w"),
    ], ids=["sign-of-uw", "halved-tw"])
    def test_mutant_in_polar_is_caught(self, old, new):
        kernel, rng = mutant(old, new), random.Random(2408)
        assert not any(identities_hold(rng, kernel) for _ in range(self.POINTS))

    def test_raw_image_is_the_scaled_closed_form(self):
        rng = random.Random(2408)
        assert all(raw_image_holds(rng) for _ in range(self.POINTS))

    def test_sign_flip_in_cross_is_caught(self):
        kernel, rng = mutant("u2 * v0 - u0 * v2", "u0 * v2 - u2 * v0"), random.Random(2408)
        assert not any(raw_image_holds(rng, kernel) for _ in range(self.POINTS))

    def test_second_point_on_a_conic_off_the_axis(self):
        rng = random.Random(2408)
        assert all(second_point_holds(rng) for _ in range(self.POINTS))

    @pytest.mark.parametrize("old, new", [
        ("2 * s * y + v * w", "2 * s * y - v * w"),
        ("u * x + v * y", "u * x - v * y"),
    ], ids=["sign-of-vw", "sign-of-vy"])
    def test_v_term_mutant_in_polar_is_caught(self, old, new):
        second, rng = mutant(old, new)["_second"], random.Random(2408)
        assert not any(second_point_holds(rng, second) for _ in range(self.POINTS))


def test_chain_is_the_shipped_route():
    # The identities above hold on _chain with the _cross join; over ℤ it must give
    # the P′ that construct_image's _chain gives with _axis_join, or the two joins differ.
    compared = 0
    for scene, a, r1, r2, p, q in integer_cases(random.Random(2408), 200):
        triple = image(a, r1, r2, p, q)
        if any(triple):  # zero only for tangent circles with the probe over B = C
            assert ExtendedPoint(*triple) == construct_image(scene, ProbePoint(p, q)).p_prime
            compared += 1
    assert compared > 190


def test_sign_flip_in_cross_is_caught_by_the_oracle(monkeypatch):
    # The projective identities above cannot see it, only the raw triple. The
    # shipped route joins A and D with _axis_join, so only _chain's last cross,
    # AM × DN, is the mutant's: 198 of the 200 trials fail.
    cross = mutant("u2 * v0 - u0 * v2", "u0 * v2 - u2 * v0")["_cross"]
    monkeypatch.setattr(exact, "_cross", cross)
    failures = run_oracle_fuzz(200, 360).failures
    assert len(failures) > 190
    # The oracle compares triples; a failure reports both routes' P′ as the public wrappers give it.
    for failure in failures:
        assert failure.closed_form == image_closed_form(failure.config, failure.probe)
        assert failure.geometric == construct_image(derive(failure.config), failure.probe).p_prime
        assert failure.geometric != failure.closed_form
