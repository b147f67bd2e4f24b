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

All arithmetic is exact (Fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .angles import (
    HALF,
    DomainError,
    angle,
    digit_stream,
    double,
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

    def contains(self, t: Fraction, strict: bool = True) -> bool:
        """Membership of angle t in the (open by default) arc."""
        d = angle(Fraction(t) - self.start)
        if strict:
            return Fraction(0) < d < self.length
        return d <= self.length

    def __str__(self) -> str:
        return "[%s, %s)" % (self.start, self.end)


def preimages_of_angle(theta0: Fraction, n: int) -> list[Fraction]:
    """The 2^n angles (theta0+k)/2^n, sorted."""
    if n < 0:
        raise DomainError("depth must be >= 0")
    t = angle(theta0)
    return sorted(angle((t + k) / (1 << n)) for k in range(1 << n))


def _hit_depths(z: Fraction, theta0: Fraction, M: Optional[int]):
    """Depths m (<= M if given) with 2^m z = theta0 mod 1.

    Returns (finite_hits, cycle_hit) where cycle_hit = (m0, L) describes the
    arithmetic progression m0 + j*L of hits inside the orbit cycle (only
    possible for periodic theta0), or None.
    """
    z = angle(z)
    t0 = angle(theta0)
    seen: dict[Fraction, int] = {}
    orbit: list[Fraction] = []
    u = z
    while u not in seen:
        seen[u] = len(orbit)
        orbit.append(u)
        u = double(u)
    cyc_start = seen[u]
    L = len(orbit) - cyc_start
    finite = [m for m in range(cyc_start) if orbit[m] == t0]
    cycle_hit = None
    for m in range(cyc_start, len(orbit)):
        if orbit[m] == t0:
            cycle_hit = (m, L)
            break
    if M is not None:
        hits = [m for m in finite if m <= M]
        if cycle_hit is not None:
            m0, L = cycle_hit
            hits += list(range(m0, M + 1, L))
            cycle_hit = None
        return hits, None
    return finite, cycle_hit


def mu_weight(z: Fraction, theta0: Fraction, M: Optional[int] = None) -> Fraction:
    """Atom weight at z: sum of 1/(2*4^m) over hit depths m (<= M if given).

    M=None sums the full series; for periodic theta0 the cycle hits form a
    geometric series summed in closed form (e.g. z=theta0=0 gives 2/3).
    """
    finite, cycle_hit = _hit_depths(z, theta0, M)
    w = sum((Fraction(1, 2 * 4**m) for m in finite), Fraction(0))
    if cycle_hit is not None:
        m0, L = cycle_hit
        w += Fraction(1, 2 * 4**m0) / (1 - Fraction(1, 4**L))
    return w


def cumulative(theta0: Fraction, t: Fraction, M: Optional[int] = None) -> Fraction:
    """F(t) = measure of [0, t), exactly.

    With a depth cap M this is the truncated measure (O(M) terms); with
    M=None it is the full measure, summed in closed form using the eventual
    periodicity of the doubling orbit of t.  The depth-m term counts
    preimages (theta0+k)/2^m below t: N_m = ceil(2^m t - theta0), never
    needing clamping for t, theta0 in [0,1).
    """
    t0 = require_nonperiodic(theta0)
    t = angle(t)
    if M is not None:
        if M < 0:
            raise DomainError("depth cap must be >= 0")
        return sum(
            (Fraction(math.ceil(t * (1 << m) - t0), 2 * 4**m) for m in range(M + 1)),
            Fraction(0),
        )
    s = digit_stream(t)
    P, L = len(s.pre), len(s.period)
    # prefix terms m < P, done directly
    total = Fraction(0)
    for m in range(P):
        total += Fraction(math.ceil(t * (1 << m) - t0), 2 * 4**m)
    # tail m >= P: N_m = 2^m t - theta0 + c_m with c_m = frac(theta0 - 2^m t),
    # and c_m is L-periodic in m from m = P on.
    total += t * Fraction(1, 1 << P)                      # sum 2^m t/(2 4^m)
    total -= t0 * Fraction(2, 3) * Fraction(1, 4**P)      # sum theta0/(2 4^m)
    ctail = Fraction(0)
    for j in range(L):
        c = angle(t0 - Fraction(2) ** (P + j) * t)
        ctail += c * Fraction(1, 4**j)
    total += HALF * Fraction(1, 4**P) * ctail / (1 - Fraction(1, 4**L))
    return total


def truncation_width(M: Optional[int]) -> Fraction:
    """Upper bound on F - F_M (zero when M is None)."""
    return Fraction(0) if M is None else Fraction(1, 1 << (M + 1))


@dataclass(frozen=True)
class HArc:
    """h-preimage arc of an atom, with the endpoint enclosure width."""

    arc: Arc
    enclosure: Fraction

    @property
    def start(self) -> Fraction:
        return self.arc.start

    @property
    def end(self) -> Fraction:
        return self.arc.end

    def __str__(self) -> str:
        return str(self.arc)


def h_arc(z: Fraction, theta0: Fraction, M: Optional[int] = None) -> HArc:
    """The full h-preimage arc of the circle point at angle z.

    Start = F(z), end = F(z) + weight(z); zero-length for non-atoms.  With a
    depth cap M both endpoints are truncations from below, each within
    2^-(M+1) of the exact value; with M=None they are exact.
    """
    t0 = require_nonperiodic(theta0)
    z = angle(z)
    start = cumulative(t0, z, M)
    w = mu_weight(z, t0, M)
    return HArc(Arc(angle(start), angle(start + w)), truncation_width(M))


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


@dataclass
class AtomicMeasure:
    """Depth-capped truncation of the measure; atoms listed up to list_cap."""

    theta0: Fraction
    depth_cap: int
    list_cap: int = 12
    atoms: list[tuple[Fraction, Fraction]] = field(default_factory=list)

    def __post_init__(self):
        self.theta0 = require_nonperiodic(self.theta0)
        if self.depth_cap < 0:
            raise DomainError("depth cap must be >= 0")
        listed = min(self.depth_cap, self.list_cap)
        self.atoms = [
            (t, Fraction(1, 2 * 4**m))
            for m in range(listed + 1)
            for t in preimages_of_angle(self.theta0, m)
        ]

    def total_mass(self) -> Fraction:
        """Exact truncated mass 1 - 2^-(cap+1), via per-depth counts."""
        return sum(
            (Fraction(1 << m, 2 * 4**m) for m in range(self.depth_cap + 1)),
            Fraction(0),
        )

    def listed_mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))


def h_point(u: Fraction, theta0: Fraction, M: Optional[int] = None, bits: int = 48
            ) -> tuple[Fraction, Fraction]:
    """Enclosure [t_lo, t_hi] of h(u) by bisection on the cumulative function."""
    t0 = require_nonperiodic(theta0)
    u = angle(u)
    lo, hi = Fraction(0), Fraction(1)
    total = Fraction(1) - truncation_width(M)
    if u >= total:
        return Fraction(1) - Fraction(1, 1 << bits), Fraction(1)
    for _ in range(bits):
        mid = (lo + hi) / 2
        if cumulative(t0, mid, M) <= u:
            lo = mid
        else:
            hi = mid
    return lo, hi


@dataclass
class SemiConjReport:
    """Per-sample agreement of h(4u) with 2 h(u)."""

    entries: list[tuple[Fraction, tuple[Fraction, Fraction], tuple[Fraction, Fraction], Fraction]]
    skipped: list[Fraction]
    max_defect: Fraction

    @property
    def ok(self) -> bool:
        return True  # defect magnitude is the caller's acceptance knob


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
    if fwd == 0 or bwd == 0:
        return Fraction(0)
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
        if sigma.contains(u, strict=True):
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
