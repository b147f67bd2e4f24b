"""Exact arithmetic on circle angles.

Angles are rationals in [0,1) represented by fractions.Fraction ("CircleAngle").
Everything here is exact; no floating point (``circle_distance`` also takes
floats, for the numerical layer).

Provides: the doubling map, binary digits and eventually periodic digit streams,
the nu_m comparison functions, the x0 and y0 angle correspondences, and
classification of doubling orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


class DomainError(ValueError):
    """Input outside an operation's documented domain."""


def angle(value) -> Fraction:
    """Parse/normalize an angle into a Fraction in [0,1).

    Accepts Fraction, int, or a string like "5/12" or "0.25".
    """
    f = Fraction(value)
    return f - (f.numerator // f.denominator)


#: The half turn.
HALF = Fraction(1, 2)


def circle_distance(u, v):
    """Distance between u and v on the circle R/Z, in [0, 1/2].

    Exact on Fractions; on floats it is min(d, 1 - d) with d = |u - v| mod 1
    in float arithmetic.
    """
    d = abs(u - v) % 1
    return min(d, 1 - d)


def double(theta: Fraction) -> Fraction:
    """The doubling map t -> 2t mod 1."""
    return angle(2 * Fraction(theta))


def binary_digit(theta: Fraction, m: int) -> int:
    """m-th binary digit of theta (m >= 1): floor(2^m t) - 2 floor(2^(m-1) t)."""
    if m < 1:
        raise DomainError("digit index must be >= 1")
    t = angle(theta)
    return int((t.numerator << m) // t.denominator) - 2 * int(
        (t.numerator << (m - 1)) // t.denominator
    )


def nu(theta: Fraction, m: int) -> int:
    """nu_m(theta): 1 if frac(2^m theta) >= theta else 0 (ties give 1)."""
    if m < 0:
        raise DomainError("m must be >= 0")
    t = angle(theta)
    return 1 if angle(Fraction(2) ** m * t) >= t else 0


@dataclass(frozen=True)
class DigitStream:
    """An eventually periodic bit sequence: finite preperiod + repeating period.

    This is a pure symbol sequence.  Streams produced from angle expansions
    (digit_stream) never carry an all-ones period; address streams may.
    Canonical form: shortest period, then shortest preperiod.
    """

    pre: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise DomainError("period must be non-empty")
        if any(b not in (0, 1) for b in self.pre + self.period):
            raise DomainError("bits must be 0 or 1")

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(pre: Iterable[int], period: Iterable[int]) -> "DigitStream":
        return DigitStream(tuple(pre), tuple(period)).canonical()

    def canonical(self) -> "DigitStream":
        """Shortest-period, shortest-preperiod representative (symbolwise)."""
        per = list(self.period)
        # minimal period: smallest divisor-length block that tiles the period
        for d in range(1, len(per) + 1):
            if len(per) % d == 0 and per == per[: d] * (len(per) // d):
                per = per[:d]
                break
        pre = list(self.pre)
        while pre and pre[-1] == per[-1]:
            per = [per[-1]] + per[:-1]
            pre.pop()
        return DigitStream(tuple(pre), tuple(per))

    # -- access -----------------------------------------------------------

    def digit(self, m: int) -> int:
        """1-indexed digit."""
        if m < 1:
            raise DomainError("digit index must be >= 1")
        i = m - 1
        if i < len(self.pre):
            return self.pre[i]
        return self.period[(i - len(self.pre)) % len(self.period)]

    def prefix(self, n: int) -> list[int]:
        return [self.digit(m) for m in range(1, n + 1)]

    def __iter__(self) -> Iterator[int]:
        yield from self.pre
        while True:
            yield from self.period

    def shifted(self, k: int = 1) -> "DigitStream":
        """Drop the first k symbols."""
        pre, per = list(self.pre), list(self.period)
        for _ in range(k):
            if pre:
                pre.pop(0)
            else:
                per = per[1:] + per[:1]
        return DigitStream.make(pre, per)

    # -- value semantics --------------------------------------------------

    def to_fraction(self) -> Fraction:
        """The rational value of 0.<pre><period><period>...; all-ones tails carry."""
        p, l = len(self.pre), len(self.period)
        pre_int = int("".join(map(str, self.pre)), 2) if p else 0
        per_int = int("".join(map(str, self.period)), 2)
        return Fraction(pre_int, 1 << p) + Fraction(per_int, (1 << p) * ((1 << l) - 1))

    def __str__(self) -> str:
        return "%s(%s)" % (
            "".join(map(str, self.pre)),
            "".join(map(str, self.period)),
        )

    @staticmethod
    def parse(text: str) -> "DigitStream":
        """Inverse of str: "pre(period)" e.g. "0(01)"."""
        text = text.strip()
        if "(" not in text or not text.endswith(")"):
            raise DomainError("digit stream must look like 'pre(period)'")
        pre_s, per_s = text[:-1].split("(", 1)
        if not per_s or set(pre_s + per_s) - {"0", "1"}:
            raise DomainError("digit stream bits must be 0/1, period non-empty")
        return DigitStream.make([int(c) for c in pre_s], [int(c) for c in per_s])


def digit_stream(theta: Fraction) -> DigitStream:
    """Canonical eventually periodic binary expansion of a rational angle.

    Long division; the remainder cycle makes preperiod and period minimal by
    construction, and the expansion never ends in all-ones.
    """
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
    return DigitStream(tuple(bits[:start]), tuple(bits[start:])).canonical()


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
    return OrbitType(tag, len(s.pre), len(s.period))


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


def doubling_orbit(theta: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """(preperiodic part, cycle) of the doubling orbit of theta."""
    t = angle(theta)
    seen: dict[Fraction, int] = {}
    orb: list[Fraction] = []
    while t not in seen:
        seen[t] = len(orb)
        orb.append(t)
        t = double(t)
    k = seen[t]
    return orb[:k], orb[k:]


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
    total = Fraction(0)
    for m in range(1, M + 1):
        fl = ((((1 << m) - 1) * num) // den + 1)
        total += Fraction(fl, 1 << (2 * m + 1))
    return total, total + Fraction(1, 1 << (M + 1))


def nu_stream(theta0: Fraction) -> DigitStream:
    """nu_m(theta0) for m = 1, 2, ... as an eventually periodic stream.

    nu_m depends only on frac(2^m theta0), so it repeats with the doubling
    orbit: preperiod/period bounded by the digit stream's.
    """
    t = angle(theta0)
    s = digit_stream(t)
    p, l = len(s.pre), len(s.period)
    # frac(2^m t) = r_m/den with r_m the doubling-orbit remainder, so each
    # nu_m is a single small-integer comparison.
    num, den = t.numerator, t.denominator
    vals = []
    r = num
    for _ in range(p + l):
        r = (2 * r) % den
        vals.append(1 if r >= num else 0)
    return DigitStream.make(vals[:p], vals[p:])


def interleave_streams(first: DigitStream, second: DigitStream, lead: tuple[int, ...] = ()
                       ) -> DigitStream:
    """Stream lead + a1 b1 a2 b2 ... from streams a, b, canonicalized."""
    p = max(len(first.pre), len(second.pre))
    l = math.lcm(len(first.period), len(second.period))
    pre = list(lead)
    for m in range(1, p + 1):
        pre += [first.digit(m), second.digit(m)]
    per: list[int] = []
    for m in range(p + 1, p + l + 1):
        per += [first.digit(m), second.digit(m)]
    return DigitStream.make(pre, per)


try:
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - optional accelerator
    _gmpy2 = None


def _reduced_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for positive ints, reduced in GMP when worthwhile.

    CPython's builtin gcd is quadratic in the operand size; the digit
    assembly below can produce million-bit numerators, where GMP's
    subquadratic gcd is orders of magnitude faster.
    """
    if _gmpy2 is None or den.bit_length() < 4096:
        return Fraction(num, den)
    n, d = _gmpy2.mpz(num), _gmpy2.mpz(den)
    g = _gmpy2.gcd(n, d)
    n, d = int(n // g), int(d // g)
    try:
        f = Fraction.__new__(Fraction)
        f._numerator = n
        f._denominator = d
        return f
    except AttributeError:  # pragma: no cover - unexpected Fraction internals
        return Fraction(n, d)


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
    """Multiplicative order of 2 modulo odd m > 1 (the doubling period)."""
    lam = 1
    for p, k in _factor_small(m).items():
        lam = math.lcm(lam, (p - 1) * p ** (k - 1))
    d = lam
    for q in _factor_small(lam):
        while d % q == 0 and pow(2, d // q, m) == 1:
            d //= q
    return d


def _orbit_lengths(den: int) -> tuple[int, int]:
    """(preperiod, period) of the binary expansion of a reduced p/den."""
    e = (den & -den).bit_length() - 1
    m = den >> e
    return e, (1 if m == 1 else _order_of_two(m))


def _interleaved_bit_ints(num: int, den: int, e: int, L: int) -> tuple[int, int]:
    """Packed integers (pre, per) of the 2e+2L interleaved digit/nu bits.

    Bit pairs are (theta digit d_m, nu_m) for m = 1..e+L, split after m = e.
    The remainders r_m = 2^m num mod den give both: d_m = (2 r_{m-1}) // den
    and nu_m = [r_m >= num].
    """
    n = e + L
    if den < (1 << 31):
        import numpy as np

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
            if not len(a):
                return 0
            packed = np.packbits(a)
            return int.from_bytes(packed.tobytes(), "big") >> (-len(a) % 8)

        return bits_to_int(inter[: 2 * e]), bits_to_int(inter[2 * e:])
    pre_i = per_i = 0
    r = num
    for m in range(1, n + 1):
        r2 = 2 * r
        d, r = divmod(r2, den)
        bits = 2 * d + (1 if r >= num else 0)
        if m <= e:
            pre_i = (pre_i << 2) | bits
        else:
            per_i = (per_i << 2) | bits
    return pre_i, per_i


def _x0_digit_pair(theta0: Fraction) -> tuple[int, int]:
    """Unreduced (num, den) with num/den == x0_digits(theta0).

    Same domain checks as x0_digits.  Callers that only compare x0 against
    other rationals can cross-multiply with this pair and skip the gcd, which
    is quadratic in CPython and dominates for million-bit denominators.
    """
    t = require_nonperiodic(theta0)
    if t == 0:
        raise DomainError("theta0 must lie in (0,1)")
    num, den = t.numerator, t.denominator
    e, L = _orbit_lengths(den)
    pre_i, per_i = _interleaved_bit_ints(num, den, e, L)
    two_l = (1 << (2 * L)) - 1
    return pre_i * two_l + per_i, (1 << (2 * e + 1)) * two_l


def x0_digits(theta0: Fraction) -> Fraction:
    """Exact x0 assembled digitwise: x0[1]=0, x0[2m]=theta0[m], x0[2m+1]=nu_m(theta0).

    Rejects odd-denominator (doubling-periodic) theta0, where the digit
    identity does not apply.  The digits are generated in bulk from the
    doubling-orbit remainders, so large denominators stay fast.
    """
    return _reduced_fraction(*_x0_digit_pair(theta0))


def x0_digit_stream(theta0: Fraction) -> DigitStream:
    """The interleaved digit stream of x0 (digit 1 is 0, then theta/nu digits)."""
    t = require_nonperiodic(theta0)
    return interleave_streams(digit_stream(t), nu_stream(t), lead=(0,))


def y0_from_theta(theta0: Fraction) -> Fraction:
    """Exact y0 = 1/3 + sum_{m>=1} theta0[m]/4^m."""
    t = angle(theta0)
    s = digit_stream(t)
    p, l = len(s.pre), len(s.period)
    total = Fraction(1, 3)
    for m in range(1, p + 1):
        if s.digit(m):
            total += Fraction(1, 1 << (2 * m))
    tail = Fraction(0)
    for j in range(1, l + 1):
        if s.digit(p + j):
            tail += Fraction(1, 1 << (2 * j))
    total += tail * Fraction(1, 1 << (2 * p)) / (1 - Fraction(1, 1 << (2 * l)))
    return angle(total)
