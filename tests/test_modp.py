"""The kernel's image chain over ℤ/pℤ: the fixed-line theorem at random points.

_polar, _second and _cross use only +, -, * and integer literals, so they run
unchanged over any commutative ring. Here they run over ℤ/pℤ, p = 2⁶¹ − 1,
from the probe P through M, N and the lines AM and DN to P′ = (X : Y : W), at
random a, r1, r2, p and q, and three polynomial identities are checked there:

- q-independence: X(q₁)·W(q₂) = X(q₂)·W(q₁);
- the closed form: X·(r1 + r2 − 2a) = W·(r2² − r1² + s·p), s = r1 + r2 + 2a;
- q·q′ = κ(p): Y·q·(r1 + r2 − 2a) = W·s·(a − r1 + p)(a − r2 − p).

Each side has degree at most 13, so by Schwartz–Zippel (J. T. Schwartz,
JACM 27, 1980) a false identity passes one random point with probability at
most 13/p < 2⁻⁵⁷.

The check sees only the arithmetic this chain runs. Both circles are centred
on the axis, so v = 0 in both conics and the v terms of _polar never show.
Flipping the sign of _cross's middle component passes too: the chain joins A
and D to M and N with _cross, and the mutant's three crosses compose to −P′,
the same point. construct_image joins A and D with exact._axis_join instead,
so the two-route oracle catches that mutant; the last test here runs it.
"""

import inspect
import random

import pytest

from bicircle import construction, exact, run_oracle_fuzz

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


def image(a, r1, r2, p, q, second=exact._second):
    """P′ = AM × DN from the kernel; k1 is centred at (−a, 0) with radius r1, k2 at (a, 0) with r2."""
    k1 = (1, 2 * a, 0, a * a - r1 * r1)  # (s, u, v, t): s(x² + y²) + u·x + v·y + t
    k2 = (1, -2 * a, 0, a * a - r2 * r2)
    A, B, C, D = ((x, 0, 1) for x in (-a - r1, a - r2, r1 - a, a + r2))
    m, n = second(k1, C, (p, q, 1)), second(k2, B, (p, q, 1))
    return exact._cross(exact._cross(A, m), exact._cross(D, n))


def identities_hold(rng, second=exact._second) -> bool:
    a, r1, r2, p, q1, q2 = (ModP(rng.randrange(MODULUS)) for _ in range(6))
    x1, y1, w1 = image(a, r1, r2, p, q1, second)
    x2, _, w2 = image(a, r1, r2, p, q2, second)
    s, gap = r1 + r2 + 2 * a, r1 + r2 - 2 * a
    return (
        w1 != 0  # a zero triple would satisfy every identity below
        and x1 * w2 == x2 * w1
        and x1 * gap == w1 * (r2 * r2 - r1 * r1 + s * p)
        and y1 * q1 * gap == w1 * s * (a - r1 + p) * (a - r2 - p)
    )


def mutant(old: str, new: str) -> dict:
    """exact's names, with _cross, _polar and _second recompiled, ``old`` replaced by ``new``.

    ``old`` occurs once in the three sources. The recompiled _second calls
    the recompiled _polar, so a mutant of _polar shows through _second.
    """
    sources = [inspect.getsource(f) for f in (exact._cross, exact._polar, exact._second)]
    assert sum(source.count(old) for source in sources) == 1, old
    namespace = dict(vars(exact))
    for source in sources:
        exec(source.replace(old, new), namespace)
    return namespace


class TestImageChainModP:
    POINTS = 50

    def test_shipped_kernel(self):
        rng = random.Random(2408)
        assert all(identities_hold(rng) for _ in range(self.POINTS))

    def test_sign_flip_in_second_is_caught(self):
        second, rng = mutant("- b * t0", "+ b * t0")["_second"], random.Random(2408)
        assert not any(identities_hold(rng, second) for _ in range(self.POINTS))

    @pytest.mark.parametrize("old, new", [
        ("2 * s * x + u * w", "2 * s * x - u * w"),
        ("2 * t * w", "t * w"),
    ], ids=["sign-of-uw", "halved-tw"])
    def test_mutant_in_polar_is_caught(self, old, new):
        second, rng = mutant(old, new)["_second"], random.Random(2408)
        assert not any(identities_hold(rng, second) for _ in range(self.POINTS))


def test_sign_flip_in_cross_is_caught_by_the_oracle(monkeypatch):
    # Invisible over ℤ/pℤ above. The shipped route joins A and D with
    # _axis_join, so only its last cross, AM × DN, is the mutant's: 198 of
    # the 200 trials fail.
    cross = mutant("u2 * v0 - u0 * v2", "u0 * v2 - u2 * v0")["_cross"]
    monkeypatch.setattr(construction, "_cross", cross)
    assert len(run_oracle_fuzz(200, 360).failures) > 190
