"""The atomic measure on backward doubling-orbits of theta0, its cumulative
distribution, and the induced monotone circle map (arcs / "shadows").

The measure puts weight 1/(2*4^m) on every angle t with 2^m t = theta0 (mod 1),
m >= 0.  For theta0 that is not periodic under doubling these atoms are
distinct across depths, each angle carries at most one summand, and the total
mass over depths <= M is exactly 1 - 2^-(M+1).

The blow-up map h is the generalized inverse of the cumulative function F
below: the full h-preimage of an atom t is the arc [F(t), F(t)+weight(t)).
The normalization pins h(0) = 0: for non-periodic theta0 the angle 0 carries
no atom, so F(0) = 0 and 0 is (the center of) its own h-preimage.  (If the
construction were extended to theta0 = 0, the atom at angle 0 would be split
symmetrically around 0; periodic theta0 is rejected here.)

All arithmetic is exact: the cumulative function sums integers over one
shared denominator and reduces them into one Fraction at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .angles import (
    HALF,
    DomainError,
    angle,
    digit_stream,
    require_nonperiodic,
    x0_digits,
)


@dataclass(frozen=True)
class Arc:
    """Counterclockwise circle arc from start to end (angles in [0,1))."""

    start: Fraction
    end: Fraction

    @property
    def length(self) -> Fraction:
        return angle(self.end - self.start)

    def contains(self, t: Fraction) -> bool:
        """Membership of angle t in the open arc."""
        return Fraction(0) < angle(Fraction(t) - self.start) < self.length

    def __str__(self) -> str:
        return "[%s, %s)" % (self.start, self.end)


def preimages_of_angle(theta0: Fraction, n: int) -> list[Fraction]:
    """The 2^n angles (theta0+k)/2^n, sorted."""
    if n < 0:
        raise DomainError("depth must be >= 0")
    t = angle(theta0)
    p, q = t.numerator, t.denominator
    # (p + k q)/(q 2^n) lies in [0, 1) and grows with k
    return [Fraction(p + k * q, q << n) for k in range(1 << n)]


def mu_weight(z: Fraction, theta0: Fraction, M: Optional[int] = None) -> Fraction:
    """Atom weight at z: sum of 1/(2*4^m) over the hit depths m (<= M if
    given), those with 2^m z = theta0 mod 1.

    For z = p/q with q = 2^e q' (q' odd), 2^m z has the denominator
    q >> min(m, e), so the first hit can only be at m0 = e - e0, where e0 is
    the power of 2 in theta0's denominator q0; there 2^m0 z = r/q0 with
    r = ((p << m0) % q) >> m0.  A nonperiodic theta0 is hit at most there.
    A periodic one (e0 = 0) is hit, if at all, within its period L of m0,
    and from then on every L steps; M=None sums that geometric series in
    closed form (e.g. z=theta0=0 gives 2/3).
    """
    z, t0 = angle(z), angle(theta0)
    p, q, p0, q0 = z.numerator, z.denominator, t0.numerator, t0.denominator
    m0 = (q & -q).bit_length() - (q0 & -q0).bit_length()
    if m0 < 0 or q >> m0 != q0:
        return Fraction(0)
    r = ((p << m0) % q) >> m0
    if q0 % 2 == 0:
        hit = r == p0 and (M is None or m0 <= M)
        return Fraction(1, 2 << (2 * m0)) if hit else Fraction(0)
    L = digit_stream(t0).l
    for _ in range(L):
        if r == p0:
            break
        r, m0 = 2 * r % q0, m0 + 1
    else:
        return Fraction(0)
    if M is None:
        ones = (1 << (2 * L)) - 1              # 4^L - 1
        return Fraction(ones + 1, ones << (2 * m0 + 1))
    return sum((Fraction(1, 2 << (2 * m)) for m in range(m0, M + 1, L)), Fraction(0))


def _counts_base4(a: int, b: int, Q: int, n: int) -> int:
    """sum_{m<n} N_m 4^(n-1-m), N_m = ceil((2^m a - b)/Q) preimages below t = a/Q."""
    acc = 0
    for m in range(n):
        acc = 4 * acc - ((b - (a << m)) // Q)
    return acc


def cumulative(theta0: Fraction, t: Fraction, M: Optional[int] = None) -> Fraction:
    """F(t) = measure of [0, t), exactly.

    With a depth cap M this is the truncated measure (O(M) terms); with
    M=None it is the full measure, summed in closed form using the eventual
    periodicity of the doubling orbit of t.  The depth-m term counts
    preimages (theta0+k)/2^m below t: N_m = ceil(2^m t - theta0), never
    needing clamping for t, theta0 in [0,1).  With t = p/q and theta0 =
    p0/q0 every term is an integer over q*q0 times a power of 4, so the sum
    is accumulated as one integer and reduced once.
    """
    t0 = require_nonperiodic(theta0)
    t = angle(t)
    p, q, p0, q0 = t.numerator, t.denominator, t0.numerator, t0.denominator
    Q, a, b = q * q0, p * q0, p0 * q           # t = a/Q, theta0 = b/Q
    if M is not None:
        if M < 0:
            raise DomainError("depth cap must be >= 0")
        # F_M = sum_m N_m / (2 4^m) = (sum_m N_m 4^(M-m)) / (2 4^M)
        return Fraction(_counts_base4(a, b, Q, M + 1), 2 << (2 * M))
    s = digit_stream(t)
    P, L = s.p, s.l
    # prefix terms m < P: sum N_m / (2 4^m) = 2 pre / 4^P
    pre = _counts_base4(a, b, Q, P)
    # tail m >= P: N_m = 2^m t - theta0 + c_m with c_m = frac(theta0 - 2^m t),
    # and c_m = C_j / Q is L-periodic in m from m = P on (j = m - P).  The
    # tail sums to t/2^P - (2/3) theta0/4^P + 2 tail / (Q 4^P (4^L - 1)),
    # tail = sum_j C_j 4^(L-1-j).
    r, tail = (a << P) % Q, 0
    for _ in range(L):
        tail = 4 * tail + (b - r) % Q
        r = (2 * r) % Q
    ones = (1 << (2 * L)) - 1                  # 4^L - 1
    num = 3 * ones * (2 * pre * Q + (a << P)) - 2 * b * ones + 6 * tail
    return Fraction(num, 3 * Q * ones << (2 * P))


def truncation_width(M: Optional[int]) -> Fraction:
    """Upper bound on F - F_M (zero when M is None)."""
    return Fraction(0) if M is None else Fraction(1, 1 << (M + 1))


def h_arc(z: Fraction, theta0: Fraction, M: Optional[int] = None) -> Arc:
    """The full h-preimage arc of the circle point at angle z.

    Start = F(z), end = F(z) + weight(z); zero-length for non-atoms.  With a
    depth cap M both endpoints are truncations from below, each within
    ``truncation_width(M)`` = 2^-(M+1) of the exact value; with M=None they
    are exact.
    """
    t0 = require_nonperiodic(theta0)
    z = angle(z)
    start = cumulative(t0, z, M)
    w = mu_weight(z, t0, M)
    return Arc(angle(start), angle(start + w))


def sigma0_arc(theta0: Fraction) -> Arc:
    """The arc (x0, x0 + 1/2): length exactly 1/2, excludes angle 0."""
    x0 = x0_digits(theta0)
    return Arc(x0, angle(x0 + HALF))


def sigma_lengths_periodic(p: int) -> list[Fraction]:
    """Arc lengths for a doubling-periodic generator of period p:
    [4^j / (2 (4^p - 1)) for j = 1..p]."""
    if p < 1:
        raise DomainError("period must be >= 1")
    den = 2 * (4**p - 1)
    return [Fraction(4**j, den) for j in range(1, p + 1)]


def h_point(u: Fraction, theta0: Fraction, M: Optional[int] = None, bits: int = 48
            ) -> tuple[Fraction, Fraction]:
    """Enclosure [t_lo, t_hi] of h(u) by bisection on the cumulative function."""
    t0 = require_nonperiodic(theta0)
    u = angle(u)
    total = Fraction(1) - truncation_width(M)
    if u >= total:
        return Fraction(1) - Fraction(1, 1 << bits), Fraction(1)
    # after j steps the enclosure is [k/2^j, (k+1)/2^j]; its midpoint is (2k+1)/2^(j+1)
    k = 0
    for j in range(bits):
        k *= 2
        if cumulative(t0, Fraction(k + 1, 2 << j), M) <= u:
            k += 1
    return Fraction(k, 1 << bits), Fraction(k + 1, 1 << bits)


@dataclass
class SemiConjReport:
    """Per-sample agreement of h(4u) with 2 h(u)."""

    entries: list[tuple[Fraction, tuple[Fraction, Fraction], tuple[Fraction, Fraction], Fraction]]
    skipped: list[Fraction]
    max_defect: Fraction


def _interval_gap(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> Fraction:
    """Circular distance between two (mod 1) intervals; 0 if they overlap."""
    la, lb = angle(a[1] - a[0]) if a[1] != a[0] else Fraction(0), \
        angle(b[1] - b[0]) if b[1] != b[0] else Fraction(0)
    if la + lb >= 1:
        return Fraction(0)
    a0, a1 = angle(a[0]), angle(a[0]) + la
    b0, b1 = angle(b[0]), angle(b[0]) + lb
    fwd = angle(b0 - a1)  # ccw gap from a to b
    bwd = angle(a0 - b1)  # ccw gap from b to a
    if fwd + bwd > 1:  # the two arcs overlap
        return Fraction(0)
    return min(fwd, bwd)


def semiconjugacy_check(theta0: Fraction, samples: list[Fraction], M: int) -> SemiConjReport:
    """Check h(4u) = 2 h(u) (mod 1) per sample, within truncation enclosures.

    Samples inside the open central arc (where h collapses to theta0) are
    reported as skipped, matching the operation's stated domain.
    """
    t0 = require_nonperiodic(theta0)
    sigma = sigma0_arc(t0)
    bits = 48 if M is None else M + 16
    entries = []
    skipped = []
    worst = Fraction(0)
    for u in samples:
        u = angle(u)
        if sigma.contains(u):
            skipped.append(u)
            continue
        lo, hi = h_point(u, t0, M, bits)
        two_h = (angle(2 * lo), angle(2 * lo) + 2 * (hi - lo))
        lo4, hi4 = h_point(angle(4 * u), t0, M, bits)
        h4 = (lo4, hi4)
        defect = _interval_gap(two_h, h4)
        worst = max(worst, defect)
        entries.append((u, two_h, h4, defect))
    return SemiConjReport(entries, skipped, worst)
