"""Exact arithmetic on circle angles.

Angles are rationals in [0,1) represented by fractions.Fraction ("CircleAngle").
Everything here is exact; no floating point (``circle_distance`` also takes
floats, for the numerical layer).  ``angle`` returns a Fraction already in
[0,1) as it is, so layers that work on integers over a shared denominator
pay for one Fraction per output and none for re-normalising it.

Provides: the doubling map, eventually periodic binary digit streams,
the nu_m comparison functions, the x0 and y0 angle correspondences, and
classification of doubling orbits.

A digit stream holds its preperiod and period as packed integers with bit
lengths, so shifts, canonical forms and values are integer operations.  The
x0 digits (pairs of a theta0 digit and nu_m) come from one kernel,
``_interleaved_bit_ints``, which also builds the x0 stream; only this module
reads the kernel's packed format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its stated tolerance."""


def angle(value) -> Fraction:
    """Parse/normalize an angle into a Fraction in [0,1).

    Accepts Fraction, int, or a string like "5/12" or "0.25".  A Fraction
    already in [0,1) is returned as it is, not rebuilt.
    """
    f = value if type(value) is Fraction else Fraction(value)
    n, d = f.numerator, f.denominator
    if 0 <= n < d:
        return f
    return f - (n // d)


#: The half turn.
HALF = Fraction(1, 2)


def circle_distance(u, v):
    """Distance between u and v on the circle R/Z, in [0, 1/2].

    Exact on Fractions; on floats it is min(d, 1 - d) with d = |u - v| mod 1
    in float arithmetic.
    """
    d = abs(u - v) % 1
    return min(d, 1 - d)


def double(theta: Fraction, k: int = 1) -> Fraction:
    """The doubling map applied k >= 0 times, t -> 2^k t mod 1, as one modular power."""
    t = Fraction(theta)
    den = t.denominator
    return Fraction(t.numerator * pow(2, k, den) % den, den)


def nu(theta: Fraction, m: int) -> int:
    """nu_m(theta): 1 if frac(2^m theta) >= theta else 0 (ties give 1)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    t = angle(theta)
    return 1 if double(t, m) >= t else 0


def _rotate(word: int, l: int, s: int) -> int:
    """The l-bit word rotated left by s (mod l) places."""
    s %= l
    return ((word << s) | (word >> (l - s))) & ((1 << l) - 1)


def _repeat(word: int, l: int, n: int) -> int:
    """The first n bits of the l-bit word repeated forever."""
    while l < n:
        word = (word << l) | word
        l *= 2
    return word >> (l - n)


def _alternating(n: int) -> int:
    """The n-bit word 1010...: ones at the odd (1-indexed) positions."""
    return ((2 << n) - 1) // 3


@dataclass(frozen=True)
class DigitStream:
    """An eventually periodic bit sequence: finite preperiod + repeating period.

    The preperiod is the p-bit integer ``pre`` and the period the l-bit
    integer ``per`` (l >= 1), both read most significant bit first, so digit
    1 is the top bit of ``pre``.  This is a pure symbol sequence.  Streams
    produced from angle expansions (digit_stream) never carry an all-ones
    period; address streams may.  Canonical form: shortest period, then
    shortest preperiod.  ``parse`` validates and canonicalises.
    """

    pre: int
    p: int
    per: int
    l: int

    # -- construction -----------------------------------------------------

    def canonical(self) -> "DigitStream":
        """Shortest-period, shortest-preperiod representative (symbolwise)."""
        pre, p, per, l = self.pre, self.p, self.per, self.l
        # l/q is a period iff the top and bottom l - l/q bits of the period agree
        for q in _factor_small(l):
            while l % q == 0 and per >> (l // q) == per & ((1 << (l - l // q)) - 1):
                per >>= l - l // q
                l //= q
        if p:
            # drop the preperiod's trailing bits that continue the period backwards
            ends = _repeat(per, l, l * -(-p // l)) & ((1 << p) - 1)
            diff = pre ^ ends
            k = (diff & -diff).bit_length() - 1 if diff else p
            pre, p, per = pre >> k, p - k, _rotate(per, l, -k)
        return DigitStream(pre, p, per, l)

    # -- access -----------------------------------------------------------

    def digit(self, m: int) -> int:
        """1-indexed digit."""
        if m < 1:
            raise DomainError("digit index must be >= 1")
        if m <= self.p:
            return (self.pre >> (self.p - m)) & 1
        j = (m - 1 - self.p) % self.l
        return (self.per >> (self.l - 1 - j)) & 1

    def prefix(self, n: int) -> list[int]:
        return [self.digit(m) for m in range(1, n + 1)]

    def shifted(self, k: int = 1) -> "DigitStream":
        """Drop the first k symbols; a canonical stream stays canonical."""
        if k < 0:
            raise DomainError("shift must be >= 0")
        if k <= self.p:
            return DigitStream(self.pre & ((1 << (self.p - k)) - 1), self.p - k,
                               self.per, self.l)
        return DigitStream(0, 0, _rotate(self.per, self.l, k - self.p), self.l)

    def prepended(self, word: int, n: int) -> "DigitStream":
        """The canonical stream of the n-bit word followed by this stream."""
        return DigitStream((word << self.p) | self.pre, n + self.p,
                           self.per, self.l).canonical()

    # -- value semantics --------------------------------------------------

    def to_fraction(self) -> Fraction:
        """The rational value of 0.<pre><period><period>...; all-ones tails carry."""
        ones = (1 << self.l) - 1
        return Fraction(self.pre * ones + self.per, ones << self.p)

    def __str__(self) -> str:
        return "%s(%s)" % (format(self.pre, "0%db" % self.p) if self.p else "",
                           format(self.per, "0%db" % self.l))

    @staticmethod
    def parse(text: str) -> "DigitStream":
        """Inverse of str: "pre(period)" e.g. "0(01)"."""
        text = text.strip()
        if "(" not in text or not text.endswith(")"):
            raise DomainError("digit stream must look like 'pre(period)'")
        pre_s, per_s = text[:-1].split("(", 1)
        if not per_s or set(pre_s + per_s) - {"0", "1"}:
            raise DomainError("digit stream bits must be 0/1, period non-empty")
        return DigitStream(int(pre_s or "0", 2), len(pre_s),
                           int(per_s, 2), len(per_s)).canonical()


def digit_stream(theta: Fraction) -> DigitStream:
    """Canonical eventually periodic binary expansion of a rational angle.

    Long division: for t = num/den in lowest terms the preperiod is e bits,
    e the power of 2 in den, after which the remainder r cycles with period
    L, the order of 2 modulo the odd part den/2^e; the bits are
    floor(2^e t) and floor(2^L r/den).  Both lengths are minimal, and the
    expansion never ends in all-ones.
    """
    t = angle(theta)
    num, den = t.numerator, t.denominator
    e = (den & -den).bit_length() - 1
    pre, r = divmod(num << e, den)
    L = _order_of_two(den >> e)
    return DigitStream(pre, e, (r << L) // den, L)


@dataclass(frozen=True)
class OrbitType:
    """Classification of a rational angle under the doubling map."""

    tag: str  # "periodic" | "dyadic" | "preperiodic"
    preperiod: int
    period: int


def orbit_type(theta: Fraction) -> OrbitType:
    """Doubling-orbit classification; lengths match digit_stream's pre/period."""
    s = digit_stream(theta)
    den = angle(theta).denominator
    if den % 2 == 1:
        tag = "periodic"
    elif den & (den - 1) == 0:
        tag = "dyadic"
    else:
        tag = "preperiodic"
    return OrbitType(tag, s.p, s.l)


def is_periodic(theta: Fraction) -> bool:
    """Periodic under doubling == odd denominator."""
    return angle(theta).denominator % 2 == 1


def require_nonperiodic(theta: Fraction) -> Fraction:
    t = angle(theta)
    if is_periodic(t):
        raise DomainError(
            "angle %s is periodic under doubling (odd denominator); not supported here" % t
        )
    return t


# -- the x0 and y0 correspondences ---------------------------------------


def x0_series(theta0: Fraction, M: int) -> tuple[Fraction, Fraction]:
    """Exact enclosure [lo, hi] of x0 = sum_{m>=1} (floor((2^m-1) theta0)+1)/2^(2m+1).

    lo is the exact partial sum over m <= M; hi = lo + 2^-(M+1), valid because
    each term is < 2^-(m+1) (theta0 < 1 forces floor((2^m-1)theta0) <= 2^m-2).
    """
    t = angle(theta0)
    if not 0 < t < 1:
        raise DomainError("theta0 must lie in (0,1)")
    if M < 1:
        raise DomainError("M must be >= 1")
    num, den = t.numerator, t.denominator
    # lo = s / 2^(2M+1) with s = sum of the terms' numerators times 4^(M-m)
    s = 0
    for m in range(1, M + 1):
        s = (s << 2) + (((1 << m) - 1) * num) // den + 1
    D = 1 << (2 * M + 1)
    return Fraction(s, D), Fraction(s + (1 << M), D)


def _factor_small(n: int) -> dict[int, int]:
    """Prime factorization by trial division (intended for n up to ~2^40)."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def _order_of_two(m: int) -> int:
    """Multiplicative order of 2 modulo odd m >= 1 (the doubling period).

    The walk 2^k mod m comes first: below 2^40 for at most m's bit length
    of steps, which finds every order that short (2^k - 1 has order k)
    before trial division could pay O(sqrt m) for it.  Below 2^40 a longer
    order is Carmichael's exponent, reduced prime by prime.  From 2^40 on
    the walk runs to the end: its steps never outnumber the period, so it
    costs no more than the period's bits that every caller then computes.
    """
    k, v, bits = 1, 2 % m, m.bit_length()
    while v != 1 and (k < bits or m >= 1 << 40):
        k, v = k + 1, 2 * v % m
    if v == 1:
        return k
    lam = 1
    for p, k in _factor_small(m).items():
        lam = math.lcm(lam, (p - 1) * p ** (k - 1))
    d = lam
    for q in _factor_small(lam):
        while d % q == 0 and pow(2, d // q, m) == 1:
            d //= q
    return d


#: Orbit length n = e + L from which the numpy table beats the integer
#: loop: both take about 12 us at n = 72, and at n = 400 the loop takes 4x
#: longer (x86-64 Xeon, Python 3.11).  Below it no x0 call imports numpy.
_TABLE_FROM = 72


def _interleaved_bit_ints(theta0: Fraction) -> tuple[int, int, int, int]:
    """The x0 kernel: (pre, e, per, L), the interleaved digit/nu bits packed.

    Bit pairs are (theta digit d_m, nu_m) for m = 1..e+L, split after m = e
    into the 2e-bit ``pre`` and the 2L-bit ``per``; e and L are the
    preperiod and period of theta0, which must not be doubling-periodic.
    The remainders r_m = 2^m num mod den give both: d_m = (2 r_{m-1}) // den
    and nu_m = [r_m >= num].  Short orbits and denominators beyond the
    table's uint64 products take the integer loop, the rest the numpy table.
    """
    t = require_nonperiodic(theta0)
    num, den = t.numerator, t.denominator
    e = (den & -den).bit_length() - 1
    L = _order_of_two(den >> e)
    if e + L < _TABLE_FROM or den >= 1 << 31:
        return _interleaved_by_loop(num, den, e, L)
    return _interleaved_by_table(num, den, e, L)


def _interleaved_by_loop(num: int, den: int, e: int, L: int) -> tuple[int, int, int, int]:
    """``_interleaved_bit_ints`` of num/den by one remainder step per digit."""
    pre_i = per_i = 0
    r = num
    for m in range(1, e + L + 1):
        r2 = 2 * r
        d, r = divmod(r2, den)
        bits = 2 * d + (1 if r >= num else 0)
        if m <= e:
            pre_i = (pre_i << 2) | bits
        else:
            per_i = (per_i << 2) | bits
    return pre_i, e, per_i, L


def _interleaved_by_table(num: int, den: int, e: int, L: int) -> tuple[int, int, int, int]:
    """``_interleaved_bit_ints`` of num/den (den < 2^31) from a numpy remainder table."""
    import numpy as np

    n = e + L
    # r[m] = num 2^m mod den for m = 0..n via blocked outer products
    b = math.isqrt(n) + 1
    small = np.empty(b, dtype=np.uint64)
    v = 1
    for j in range(b):
        small[j] = v
        v = (2 * v) % den
    step = v  # 2^b mod den
    big = np.empty(b + 1, dtype=np.uint64)
    v = num % den
    for i in range(b + 1):
        big[i] = v
        v = (v * step) % den
    r = ((big[:, None] * small[None, :]) % den).ravel()[: n + 1]
    d = (2 * r[:-1]) // den
    nu_bits = r[1:] >= num
    inter = np.empty(2 * n, dtype=np.uint8)
    inter[0::2] = d
    inter[1::2] = nu_bits

    def bits_to_int(a: "np.ndarray") -> int:
        packed = np.packbits(a)
        return int.from_bytes(packed.tobytes(), "big") >> (-len(a) % 8)

    return bits_to_int(inter[: 2 * e]), e, bits_to_int(inter[2 * e:]), L


def _x0_digit_pair(theta0: Fraction) -> tuple[int, int]:
    """Unreduced (num, den) with num/den == x0_digits(theta0).

    Same domain checks as x0_digits.  Callers that only compare x0 against
    other rationals can cross-multiply with this pair and skip the gcd, which
    is quadratic in CPython and dominates for million-bit denominators.
    """
    pre_i, e, per_i, L = _interleaved_bit_ints(theta0)
    two_l = (1 << (2 * L)) - 1
    return pre_i * two_l + per_i, (1 << (2 * e + 1)) * two_l


def x0_digits(theta0: Fraction) -> Fraction:
    """Exact x0 assembled digitwise: x0[1]=0, x0[2m]=theta0[m], x0[2m+1]=nu_m(theta0).

    Rejects odd-denominator (doubling-periodic) theta0, where the digit
    identity does not apply.  The digits are generated in bulk from the
    doubling-orbit remainders, so large denominators stay fast.
    """
    return Fraction(*_x0_digit_pair(theta0))


def x0_digit_stream(theta0: Fraction) -> DigitStream:
    """The interleaved digit stream of x0 (digit 1 is 0, then theta/nu digits)."""
    pre_i, e, per_i, L = _interleaved_bit_ints(theta0)
    return DigitStream(pre_i, 2 * e + 1, per_i, 2 * L).canonical()


def y0_from_theta(theta0: Fraction) -> Fraction:
    """Exact y0 = 1/3 + sum_{m>=1} theta0[m]/4^m.

    The preperiod and period bit strings of theta0, read in base 4, are the
    numerators of that sum over the preperiod and over one period.
    """
    s = digit_stream(theta0)
    ones = (1 << (2 * s.l)) - 1
    head, tail = int(format(s.pre, "b"), 4), int(format(s.per, "b"), 4)
    return angle(Fraction(1, 3) + Fraction(head * ones + tail, ones << (2 * s.p)))
