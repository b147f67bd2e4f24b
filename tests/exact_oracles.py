"""Fraction-arithmetic forms of the exact lamination and measure builders.

These are the forms ``v2lam.laminations.build_2L``/``build_L`` and
``v2lam.measure.cumulative`` had before they ran on integers over one shared
denominator: every arc start, arc length and partial sum is a ``Fraction``.
Tests compare the library against them, on generators drawn by
``even_generators``.
"""
from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

from v2lam.angles import HALF, angle, digit_stream, require_nonperiodic
from v2lam.laminations import INSIDE, OUTSIDE, Lamination, Leaf
from v2lam.measure import sigma0_arc


def _arc_preimages_quad(start: Fraction, length: Fraction):
    """Components of the t -> 4t preimage of the ccw arc (start, start+length)."""
    for k in range(4):
        yield (angle((start + k) / 4), length / 4)


def _arc_preimages_neg2(start: Fraction, length: Fraction):
    """Components of the t -> -2t preimage of the ccw arc (start, start+length)."""
    s = angle((1 - start - length) / 2)
    yield (s, length / 2)
    yield (angle(s + HALF), length / 2)


def _pullbacks(kind: str, theta0: Fraction, depth: int, preimages, sides) -> Lamination:
    t0 = require_nonperiodic(theta0)
    sigma = sigma0_arc(t0)
    lam = Lamination(kind=kind, generator=t0, depth=depth)
    layer = [(sigma.start, sigma.length)]
    for n in range(depth + 1):
        for start, length in layer:
            lam.add(Leaf(start, angle(start + length), sides(n), n))
        if n < depth:
            layer = [p for arc in layer for p in preimages(*arc)]
    return lam


def build_L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over the quadrupling preimages of the half-arc, on Fractions."""
    return _pullbacks("L", theta0, depth, _arc_preimages_quad, lambda n: INSIDE)


def build_2L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over the t -> -2t preimages of the half-arc, on Fractions."""
    return _pullbacks("twoSided", theta0, depth, _arc_preimages_neg2,
                      lambda n: INSIDE if n % 2 == 0 else OUTSIDE)


def cumulative(theta0: Fraction, t: Fraction, M=None) -> Fraction:
    """F(t) = measure of [0, t), summed term by term on Fractions."""
    t0 = require_nonperiodic(theta0)
    t = angle(t)
    if M is not None:
        return sum(
            (Fraction(math.ceil(t * (1 << m) - t0), 2 * 4**m) for m in range(M + 1)),
            Fraction(0),
        )
    s = digit_stream(t)
    P, L = s.p, s.l
    total = Fraction(0)
    for m in range(P):
        total += Fraction(math.ceil(t * (1 << m) - t0), 2 * 4**m)
    total += t * Fraction(1, 1 << P)
    total -= t0 * Fraction(2, 3) * Fraction(1, 4**P)
    ctail = Fraction(0)
    for j in range(L):
        c = angle(t0 - Fraction(2) ** (P + j) * t)
        ctail += c * Fraction(1, 4**j)
    total += HALF * Fraction(1, 4**P) * ctail / (1 - Fraction(1, 4**L))
    return total


@st.composite
def even_generators(draw):
    """n/den with den = odd * 2^e <= 2^12, e >= 1 and n odd, so den stays even."""
    odd = 2 * draw(st.integers(0, 127)) + 1
    den = odd << draw(st.integers(1, max(1, (4096 // odd).bit_length() - 1)))
    return Fraction(2 * draw(st.integers(0, den // 2 - 1)) + 1, den)
