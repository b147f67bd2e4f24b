"""Tuple-based digit streams: slow oracles for v2lam's packed digit streams.

``TupleStream`` keeps an eventually periodic bit sequence as two tuples of
bits, the form ``v2lam.angles.DigitStream`` had before it held packed
integers.  The functions below build the x0 stream and the critical body by
interleaving whole streams symbol by symbol, independently of the one bit
kernel the library uses; ``binary_digit`` reads one digit off the angle
itself.  Tests compare the library against these.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from v2lam.angles import DigitStream, angle


def _bits(word: int, n: int) -> tuple[int, ...]:
    return tuple(int(c) for c in format(word, "0%db" % n)) if n else ()


@dataclass(frozen=True)
class TupleStream:
    """An eventually periodic bit sequence as (preperiod, period) bit tuples."""

    pre: tuple[int, ...]
    period: tuple[int, ...]

    @staticmethod
    def make(pre, period) -> "TupleStream":
        return TupleStream(tuple(pre), tuple(period)).canonical()

    @staticmethod
    def of(s: DigitStream) -> "TupleStream":
        """The same representation (not canonicalised) unpacked to tuples."""
        return TupleStream(_bits(s.pre, s.p), _bits(s.per, s.l))

    def packed(self) -> DigitStream:
        """The same representation (not canonicalised) packed for the library."""
        return DigitStream(int("".join(map(str, self.pre)) or "0", 2), len(self.pre),
                           int("".join(map(str, self.period)), 2), len(self.period))

    def canonical(self) -> "TupleStream":
        per = list(self.period)
        for d in range(1, len(per) + 1):
            if len(per) % d == 0 and per == per[:d] * (len(per) // d):
                per = per[:d]
                break
        pre = list(self.pre)
        while pre and pre[-1] == per[-1]:
            per = [per[-1]] + per[:-1]
            pre.pop()
        return TupleStream(tuple(pre), tuple(per))

    def digit(self, m: int) -> int:
        i = m - 1
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def prefix(self, n: int) -> list[int]:
        return [self.digit(m) for m in range(1, n + 1)]

    def shifted(self, k: int = 1) -> "TupleStream":
        pre, per = list(self.pre), list(self.period)
        for _ in range(k):
            if pre:
                pre.pop(0)
            else:
                per = per[1:] + per[:1]
        return TupleStream.make(pre, per)

    def to_fraction(self) -> Fraction:
        p, l = len(self.pre), len(self.period)
        pre_int = int("".join(map(str, self.pre)), 2) if p else 0
        per_int = int("".join(map(str, self.period)), 2)
        return Fraction(pre_int, 1 << p) + Fraction(per_int, (1 << p) * ((1 << l) - 1))

    def __str__(self) -> str:
        return "%s(%s)" % ("".join(map(str, self.pre)), "".join(map(str, self.period)))


def binary_digit(theta: Fraction, m: int) -> int:
    """m-th binary digit of theta (m >= 1): floor(2^m t) - 2 floor(2^(m-1) t)."""
    t = angle(theta)
    return (t.numerator << m) // t.denominator - 2 * ((t.numerator << (m - 1)) // t.denominator)


def digit_stream(theta: Fraction) -> TupleStream:
    """Binary expansion by long division, stopping at the first repeated remainder."""
    t = angle(theta)
    num, den = t.numerator, t.denominator
    seen: dict[int, int] = {}
    bits: list[int] = []
    r = num
    while r not in seen:
        seen[r] = len(bits)
        r *= 2
        bits.append(r // den)
        r %= den
    start = seen[r]
    return TupleStream.make(bits[:start], bits[start:])


def nu_stream(theta0: Fraction) -> TupleStream:
    """nu_m(theta0) for m = 1, 2, ...: [frac(2^m theta0) >= theta0]."""
    t = angle(theta0)
    s = digit_stream(t)
    p, l = len(s.pre), len(s.period)
    num, den = t.numerator, t.denominator
    vals = []
    r = num
    for _ in range(p + l):
        r = (2 * r) % den
        vals.append(1 if r >= num else 0)
    return TupleStream.make(vals[:p], vals[p:])


def complement_stream(s: TupleStream) -> TupleStream:
    return TupleStream.make(tuple(1 - b for b in s.pre), tuple(1 - b for b in s.period))


def interleave_streams(first: TupleStream, second: TupleStream, lead=()) -> TupleStream:
    """lead + a1 b1 a2 b2 ... from streams a, b, canonicalised."""
    p = max(len(first.pre), len(second.pre))
    l = math.lcm(len(first.period), len(second.period))
    pre = list(lead)
    for m in range(1, p + 1):
        pre += [first.digit(m), second.digit(m)]
    per: list[int] = []
    for m in range(p + 1, p + l + 1):
        per += [first.digit(m), second.digit(m)]
    return TupleStream.make(pre, per)


def x0_digit_stream(theta0: Fraction) -> TupleStream:
    """0, then theta0[m] interleaved with nu_m(theta0)."""
    return interleave_streams(digit_stream(theta0), nu_stream(theta0), lead=(0,))


def epsilon_star(theta0: Fraction) -> TupleStream:
    """theta0[m] interleaved with 1 - nu_m(theta0)."""
    return interleave_streams(digit_stream(theta0), complement_stream(nu_stream(theta0)))


def flip_odd(s: TupleStream) -> TupleStream:
    """Flip the bits in odd (1-indexed) positions."""
    p, l = len(s.pre), len(s.period)
    if l % 2:
        l *= 2
    return TupleStream.make(
        tuple(s.digit(m) ^ (m & 1) for m in range(1, p + 1)),
        tuple(s.digit(m) ^ (m & 1) for m in range(p + 1, p + l + 1)))


def angle_reps(t: Fraction) -> list[TupleStream]:
    """All binary expansions of an angle: one, or two for dyadic angles."""
    s = digit_stream(t)
    reps = [s]
    if t == 0:
        reps.append(TupleStream.make((), (1,)))
    elif t.denominator & (t.denominator - 1) == 0:
        reps.append(TupleStream.make(s.pre[:-1] + (0,), (1,)))
    return reps
