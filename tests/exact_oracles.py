"""Slow forms of the exact lamination, measure and address code, kept as oracles.

* ``Lamination``: the leaf store as it was before the library's integer
  chords, one validating ``Leaf`` per leaf keyed by ``(side, a, b)`` with
  ``Fraction`` endpoints; ``mirror_outside``, ``check_two_sided_invariance``
  and ``mate`` run on it with ``Fraction`` arithmetic.  ``Lamination.of``
  is the Fraction view of a library lamination's integer chords, through
  which tests read the library's laminations.
* ``build_L0``: one leaf per atom of the blow-up measure, over the atom's
  exact h-preimage arc (``v2lam.measure.h_arc``) and rescaled to one
  denominator, as it was before the library pulled the critical leaf back
  under quadrupling.
* ``build_L``/``build_2L``/``cumulative``/``x0_series``: the forms the
  library's builders, ``v2lam.measure.cumulative`` and
  ``v2lam.angles.x0_series`` had before they ran on integers over one
  shared denominator; every arc start, arc length and partial sum is a
  ``Fraction``.
* ``build_quadratic_lamination``: the O(n^2) loop that walks the doubling
  orbit of every pair of points, as it was before the library's pullback.
* ``pairs_cross``, ``crossings``/``count_same_side_crossings`` and
  ``build_basilica``: the crossing predicate on arc lengths, the O(n^2)
  pair scan, and the basilica filter that tests every candidate against the
  whole accumulated leaf set, as they were before the library's one
  predicate and one sorted sweep.
* ``complementary_regions``: the faces found by a general planar face walk
  (half-edges, twins, departure directions over 4*den, the next half-edge
  clockwise at each vertex), as it was before the library read them off
  the nesting of the chords.
* ``AtomicMeasure``: the depth-capped atom list of the measure, with its
  exact truncated mass.
* ``doubling_orbit``/``mu_weight``/``h_point``: the doubling orbit walked on
  Fractions, the atom weight read off it, and the bisection of h on
  Fraction endpoints, as they were before ``v2lam.measure`` took the hit
  depths from denominators and bisected one integer.
* ``packed_epsilon_star``/``critical_tails``: the critical body read from
  the x0 kernel's packed bit pairs, and the tails of the address relation
  computed from it, as they were before ``v2lam.symbolic`` took both from
  x0.
* ``addr_equivalent``/``leaf_addresses_match``: the address relation decided
  on digit streams (first difference, then both tails against the critical
  body, over every binary expansion of both angles), recomputing the
  critical body per pair; the report builds every ``Leaf`` and both
  addresses of every endpoint and word, as they were before
  ``v2lam.symbolic`` decided the relation on integer angles.

Tests compare the library against them, on generators drawn by
``even_generators``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from hypothesis import strategies as st

from v2lam.angles import (
    HALF,
    DigitStream,
    DomainError,
    _alternating,
    _interleaved_bit_ints,
    _repeat,
    angle,
    digit_stream,
    double,
    require_nonperiodic,
)
from v2lam.laminations import (
    INSIDE,
    OUTSIDE,
    InvarianceReport,
    Leaf,
    _crossings,
    _orbit_admits,
    _over_common_denominator,
    build_2L as library_build_2L,
    quadratic_major,
)
from v2lam.measure import cumulative as library_cumulative
from v2lam.measure import h_arc, preimages_of_angle, sigma0_arc, truncation_width
from v2lam.symbolic import (
    Address,
    AddressMatchReport,
    _flip_odd,
    address_to_angle,
    angle_to_address,
    epsilon_star,
)


class Lamination:
    """Leaves deduplicated by (side, Fraction a, Fraction b), keeping the
    smaller depth; iteration in insertion order."""

    def __init__(self, leaves=()):
        self._by_key: dict[tuple, Leaf] = {}
        for leaf in leaves:
            self.add(leaf)

    @classmethod
    def of(cls, lam) -> "Lamination":
        """The chords of the library lamination lam as Leafs, in its order."""
        return cls(Leaf(Fraction(a, lam.den), Fraction(b, lam.den), side, d)
                   for (side, a, b), d in lam.chords.items())

    def add(self, leaf: Leaf) -> None:
        key = (leaf.side, leaf.a, leaf.b)
        old = self._by_key.get(key)
        if old is None or leaf.depth < old.depth:
            self._by_key[key] = leaf

    def __iter__(self):
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, leaf: Leaf) -> bool:
        return (leaf.side, leaf.a, leaf.b) in self._by_key

    def has(self, side: str, a: Fraction, b: Fraction) -> bool:
        a, b = angle(a), angle(b)
        if b < a:
            a, b = b, a
        return (side, a, b) in self._by_key

    def side_leaves(self, side: str) -> list[Leaf]:
        return [l for l in self if l.side == side]

    def key_set(self) -> frozenset:
        return frozenset(self._by_key)

    def to_text(self) -> str:
        return "".join("%s\n" % l for l in self)

    @classmethod
    def from_text(cls, text: str) -> "Lamination":
        lam = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DomainError("bad leaf line: %r" % line)
            lam.add(Leaf(angle(parts[1]), angle(parts[2]), parts[0]))
        return lam


def mirror_outside(lam) -> Lamination:
    """Each inside leaf {a,b} to the outside leaf {-2a, -2b}, on Fractions."""
    out = Lamination()
    for l in lam.side_leaves(INSIDE):
        ia, ib = angle(-2 * l.a), angle(-2 * l.b)
        if ia == ib:
            continue
        out.add(Leaf(ia, ib, OUTSIDE, l.depth))
    return out


def _neg2_images(a: Fraction) -> tuple[Fraction, Fraction]:
    """The two solutions w of -2w = a (mod 1)."""
    w = angle((1 - a) / 2)
    return (w, angle(w + HALF))


def check_two_sided_invariance(lam: Lamination, depth: int) -> InvarianceReport:
    """The forward, antipodal and backward conditions, on Fractions."""
    flip = {INSIDE: OUTSIDE, OUTSIDE: INSIDE}
    failures: list[tuple[Leaf, str]] = []
    checked = 0
    for leaf in lam:
        if leaf.depth > depth:
            continue
        checked += 1
        other = flip[leaf.side]
        ia, ib = angle(-2 * leaf.a), angle(-2 * leaf.b)
        if ia != ib and not lam.has(other, ia, ib):
            failures.append((leaf, "forward"))
        if not lam.has(leaf.side, angle(leaf.a + HALF), angle(leaf.b + HALF)):
            failures.append((leaf, "antipodal"))
        cands = [(w1, w2) for w1 in _neg2_images(leaf.a) for w2 in _neg2_images(leaf.b)
                 if w1 != w2]
        if not any(lam.has(other, w1, w2) for w1, w2 in cands):
            failures.append((leaf, "backward"))
    return InvarianceReport(checked, failures)


def mate(L1, L2) -> Lamination:
    """L1's inside leaves inside; L2's inside leaves negated, outside."""
    out = Lamination()
    for l in L1.side_leaves(INSIDE):
        out.add(Leaf(l.a, l.b, INSIDE, l.depth))
    for l in L2.side_leaves(INSIDE):
        out.add(Leaf(angle(-l.a), angle(-l.b), OUTSIDE, l.depth))
    return out


def build_quadratic_lamination(y0: Fraction, depth: int) -> Lamination:
    """Every pair of points tested by its own doubling-orbit walk."""
    y0 = angle(y0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    major = Leaf(*quadratic_major(y0))
    first_depth: dict[Fraction, int] = {}
    for k in range(depth + 1):
        for e in (major.a, major.b):
            for t in preimages_of_angle(e, k):
                first_depth.setdefault(t, k)
    points = sorted(first_depth)
    (l0a, l0b, *ints), den = _over_common_denominator([major.a, major.b, *points])
    lam = Lamination()
    lam.add(major)
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if _orbit_admits(ints[i], ints[j], l0a, l0b, den):
                lam.add(Leaf(points[i], points[j], INSIDE,
                             max(first_depth[points[i]], first_depth[points[j]])))
    return lam


def _arc_preimages_quad(start: Fraction, length: Fraction):
    """Components of the t -> 4t preimage of the ccw arc (start, start+length)."""
    for k in range(4):
        yield (angle((start + k) / 4), length / 4)


def _arc_preimages_neg2(start: Fraction, length: Fraction):
    """Components of the t -> -2t preimage of the ccw arc (start, start+length)."""
    s = angle((1 - start - length) / 2)
    yield (s, length / 2)
    yield (angle(s + HALF), length / 2)


def _pullbacks(theta0: Fraction, depth: int, preimages, sides) -> Lamination:
    t0 = require_nonperiodic(theta0)
    sigma = sigma0_arc(t0)
    lam = Lamination()
    layer = [(sigma.start, sigma.length)]
    for n in range(depth + 1):
        for start, length in layer:
            lam.add(Leaf(start, angle(start + length), sides(n), n))
        if n < depth:
            layer = [p for arc in layer for p in preimages(*arc)]
    return lam


def build_L0(theta0: Fraction, depth: int) -> Lamination:
    """One inside leaf per atom of depth <= depth, over its h-preimage arc."""
    t0 = require_nonperiodic(theta0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    return Lamination(Leaf(arc.start, arc.end, INSIDE, m) for m in range(depth + 1)
                      for arc in (h_arc(t, t0) for t in preimages_of_angle(t0, m)))


def build_L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over the quadrupling preimages of the half-arc, on Fractions."""
    return _pullbacks(theta0, depth, _arc_preimages_quad, lambda n: INSIDE)


def build_2L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over the t -> -2t preimages of the half-arc, on Fractions."""
    return _pullbacks(theta0, depth, _arc_preimages_neg2,
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


def x0_series(theta0: Fraction, M: int) -> tuple[Fraction, Fraction]:
    """The enclosure [lo, lo + 2^-(M+1)] of x0, lo summed term by term on Fractions."""
    t = angle(theta0)
    total = Fraction(0)
    for m in range(1, M + 1):
        total += Fraction(((1 << m) - 1) * t.numerator // t.denominator + 1, 1 << (2 * m + 1))
    return total, total + Fraction(1, 1 << (M + 1))


def doubling_orbit(theta: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """(preperiodic part, cycle) of the doubling orbit of theta, walked on Fractions."""
    t = angle(theta)
    seen: dict[Fraction, int] = {}
    orb: list[Fraction] = []
    while t not in seen:
        seen[t] = len(orb)
        orb.append(t)
        t = double(t)
    k = seen[t]
    return orb[:k], orb[k:]


def mu_weight(z: Fraction, theta0: Fraction, M=None) -> Fraction:
    """Sum of 1/(2*4^m) over the depths m (<= M if given) where the walked
    doubling orbit of z meets theta0; the hits in its cycle are a geometric
    series, summed in closed form when M is None."""
    t0 = angle(theta0)
    pre, cyc = doubling_orbit(z)
    hits = [m for m, u in enumerate(pre) if u == t0]
    w = Fraction(0)
    if t0 in cyc:
        m0, L = len(pre) + cyc.index(t0), len(cyc)
        if M is None:
            w += Fraction(1, 2 * 4**m0) / (1 - Fraction(1, 4**L))
        else:
            hits += range(m0, M + 1, L)
    return w + sum((Fraction(1, 2 * 4**m) for m in hits if M is None or m <= M), Fraction(0))


def h_point(u: Fraction, theta0: Fraction, M=None, bits: int = 48) -> tuple[Fraction, Fraction]:
    """The enclosure of h(u), bisected on Fraction endpoints."""
    t0 = require_nonperiodic(theta0)
    u = angle(u)
    if u >= 1 - truncation_width(M):
        return Fraction(1) - Fraction(1, 1 << bits), Fraction(1)
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(bits):
        mid = (lo + hi) / 2
        if library_cumulative(t0, mid, M) <= u:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _strictly_inside(x: Fraction, start: Fraction, length: Fraction) -> bool:
    d = angle(x - start)
    return Fraction(0) < d < length


def pairs_cross(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction) -> bool:
    """Strict interleaving of {a1,b1} and {a2,b2}, tested on the ccw arc from a1.

    Shared endpoints are recognised only when equal as given, so callers pass
    angles already reduced mod 1.
    """
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        return False
    length = angle(b1 - a1)
    return _strictly_inside(a2, a1, length) != _strictly_inside(b2, a1, length)


def crossings(pts) -> int:
    """Crossing pairs among integer chords (lo, hi), lo < hi, by testing every pair."""
    bad = 0
    n = len(pts)
    for i in range(n):
        a1, b1 = pts[i]
        for j in range(i + 1, n):
            a2, b2 = pts[j]
            if a1 in (a2, b2) or b1 in (a2, b2):
                continue
            in1 = a1 < a2 < b1
            in2 = a1 < b2 < b1
            if in1 != in2:
                bad += 1
    return bad


def count_same_side_crossings(lam: Lamination) -> tuple[int, int]:
    """(crossing same-side pairs, pairs examined), every pair scanned."""
    bad = 0
    checked = 0
    for side in (INSIDE, OUTSIDE):
        leaves = lam.side_leaves(side)
        d = math.lcm(*[x.denominator for l in leaves for x in (l.a, l.b)])
        pts = [(l.a.numerator * (d // l.a.denominator), l.b.numerator * (d // l.b.denominator))
               for l in leaves]
        checked += len(pts) * (len(pts) - 1) // 2
        bad += crossings(pts)
    return bad, checked


def build_basilica(depth: int) -> Lamination:
    """Basilica preimages filtered against every accumulated leaf."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    lam = Lamination()
    lam.add(Leaf(Fraction(1, 3), Fraction(2, 3), INSIDE, 0))
    den = 3 << depth
    accum = [(den // 3, 2 * den // 3)]
    layer = accum[:]
    for n in range(1, depth + 1):
        nxt = []
        seen_keys = set()
        for (a, b) in layer:
            for k in (0, 1):
                ca, cb = (a + k * den) // 2, (b + k * den) // 2
                lo, hi = (ca, cb) if ca <= cb else (cb, ca)
                if (lo, hi) in seen_keys:
                    continue
                if any(
                    lo not in (u, v) and hi not in (u, v)
                    and ((u < lo < v) != (u < hi < v))
                    for (u, v) in accum
                ):
                    continue
                seen_keys.add((lo, hi))
                nxt.append((lo, hi))
        for (lo, hi) in nxt:
            lam.add(Leaf(Fraction(lo, den), Fraction(hi, den), INSIDE, n))
        accum.extend(nxt)
        layer = nxt
    return lam


def complementary_regions(lam, side: str) -> list[list[tuple]]:
    """Faces of the side's chords in the closed disk, by a planar face walk.

    Returns the regions that touch the circle, each as a boundary cycle of
    ("chord", from_angle, to_angle) and ("arc", from_angle, to_angle) edges
    in counterclockwise walk order, angles as Fractions.  Pure-chord
    pockets (faces meeting the circle in no arc, only at vertices) are not
    listed.  The empty arrangement yields the single full-disk region.
    """
    leaves = lam.side_leaves(side)
    ints, den = _over_common_denominator([x for l in leaves for x in (l.a, l.b)])
    ends = list(zip(ints[::2], ints[1::2]))
    bad = _crossings(ends)
    if bad:
        raise DomainError("crossing chord pairs: %d" % bad)
    chords = sorted(set(ends))
    if not chords:
        return [[("arc", Fraction(0), Fraction(0))]]

    verts = sorted({x for c in chords for x in c})
    vid = {v: i for i, v in enumerate(verts)}
    nvert = len(verts)

    # Half-edges: ("chord", i, j) from verts[i] to verts[j], and ("arc", i)
    # the ccw circle arc from verts[i] to its circular successor, plus the
    # reversed arc ("rarc", i).  Departure directions, in turns as integers
    # over 4*den: chord i->j: (t_i + t_j')/2 + 1/4 with t_j' the ccw lift of
    # t_j; ccw arc at t: t + 1/4; cw arc at t: t + 3/4.
    den4 = 4 * den
    outgoing: dict[int, list[tuple[int, tuple]]] = {i: [] for i in range(nvert)}

    def chord_dir(i: int, j: int) -> int:
        ti = verts[i]
        tj = ti + (verts[j] - ti) % den
        return (2 * (ti + tj) + den) % den4

    half_edges: list[tuple] = []
    for (a, b) in chords:
        i, j = vid[a], vid[b]
        for (s, t) in ((i, j), (j, i)):
            h = ("chord", s, t)
            half_edges.append(h)
            outgoing[s].append((chord_dir(s, t), h))
    for i in range(nvert):
        h = ("arc", i)                      # ccw from verts[i]
        half_edges.append(h)
        outgoing[i].append(((4 * verts[i] + den) % den4, h))
        h = ("rarc", i)                     # cw from successor back to verts[i]
        half_edges.append(h)
        succ = (i + 1) % nvert
        outgoing[succ].append(((4 * verts[succ] + 3 * den) % den4, h))

    for i in range(nvert):
        outgoing[i].sort()

    def twin(h: tuple) -> tuple:
        if h[0] == "chord":
            return ("chord", h[2], h[1])
        if h[0] == "arc":
            return ("rarc", h[1])
        return ("arc", h[1])

    ring_pos = {
        e: (i, k) for i in range(nvert) for k, (_, e) in enumerate(outgoing[i])
    }

    def next_half_edge(h: tuple) -> tuple:
        back = twin(h)
        v, pos = ring_pos[back]
        return outgoing[v][pos - 1][1]  # next clockwise from the reversed edge

    turns = [Fraction(v, den) for v in verts]
    seen: set[tuple] = set()
    regions = []
    for start in half_edges:
        if start in seen:
            continue
        cycle = []
        h = start
        while h not in seen:
            seen.add(h)
            cycle.append(h)
            h = next_half_edge(h)
        kinds = {e[0] for e in cycle}
        if "rarc" in kinds or "arc" not in kinds:
            continue  # outer face, or a pure-chord pocket
        walk = []
        for e in cycle:
            if e[0] == "chord":
                walk.append(("chord", turns[e[1]], turns[e[2]]))
            else:
                i = e[1]
                walk.append(("arc", turns[i], turns[(i + 1) % nvert]))
        regions.append(walk)
    return regions


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


def _first_difference(sx: DigitStream, sy: DigitStream):
    """1-indexed position of the first differing bit, or None if equal."""
    if sx == sy:
        return None
    n = max(sx.p, sy.p) + math.lcm(sx.l, sy.l)
    diff = _head(sx, n) ^ _head(sy, n)
    return n + 1 - diff.bit_length() if diff else None


def _head(s: DigitStream, n: int) -> int:
    """The first n >= s.p bits of s, packed."""
    return (s.pre << (n - s.p)) | _repeat(s.per, s.l, n - s.p)


def _is_critical_pair(sx: DigitStream, sy: DigitStream, eps: DigitStream) -> bool:
    """True iff {sx, sy} = {w0 eps, w1 eps} for some common finite prefix w."""
    d = _first_difference(sx, sy)
    if d is None:
        return False
    return sx.shifted(d) == eps and sy.shifted(d) == eps


def _angle_reps(t: Fraction) -> list[DigitStream]:
    """All binary expansions of an angle: one, or two for dyadic angles."""
    s = digit_stream(t)
    if s.per:
        return [s]
    # a terminating expansion pre(0) has pre ending in 1, or is 0 = (0); its
    # twin is (pre - 1)(1), or (1)
    return [s, DigitStream(max(s.pre - 1, 0), s.p, 1, 1)]


def _representatives(x: Address) -> list[Address]:
    """The addresses sharing x's underlying angle (x itself among them)."""
    return [Address(_flip_odd(s)) for s in _angle_reps(address_to_angle(x))]


def addr_equivalent(x: Address, y: Address, theta0: Fraction) -> bool:
    """Equal sequences, equal angles, or a critical pair over any expansions."""
    t = require_nonperiodic(theta0)
    if x.stream == y.stream:
        return True
    if address_to_angle(x) == address_to_angle(y):
        return True
    eps = epsilon_star(t)
    for xr in _representatives(x):
        for yr in _representatives(y):
            if _is_critical_pair(xr.stream, yr.stream, eps):
                return True
    return False


def leaf_addresses_match(theta0: Fraction, depth: int,
                         build_2L=library_build_2L) -> AddressMatchReport:
    """Both directions on Leaf objects and Address streams; build_2L(theta0,
    depth) gives the lamination compared against."""
    t = require_nonperiodic(theta0)
    if depth < 0:
        return AddressMatchReport(0, (), 0, ())
    lam = Lamination.of(build_2L(t, depth))
    eps = epsilon_star(t)
    leaf_failures = []
    count = 0
    for leaf in lam:
        count += 1
        ax, ay = angle_to_address(leaf.a), angle_to_address(leaf.b)
        if not addr_equivalent(ax, ay, t):
            leaf_failures.append(leaf)
    word_failures = []
    nwords = 0
    for k in range(depth + 1):
        side = INSIDE if k % 2 == 0 else OUTSIDE
        for w in range(1 << k):
            nwords += 1
            tu, tv = (address_to_angle(Address(eps.prepended((w << 1) | b, k + 1)))
                      for b in (0, 1))
            if tu == tv:
                continue
            if not lam.has(side, tu, tv):
                word_failures.append((format(w, "0%db" % k) if k else "", tu, tv))
    return AddressMatchReport(count, tuple(leaf_failures), nwords, tuple(word_failures))


def packed_epsilon_star(theta0: Fraction) -> DigitStream:
    """The critical body from the x0 kernel's packed bit pairs, every second bit flipped."""
    pre, e, per, L = _interleaved_bit_ints(theta0, theta0)
    return DigitStream(pre ^ (_alternating(2 * e) >> 1), 2 * e,
                       per ^ (_alternating(2 * L) >> 1), 2 * L).canonical()


def critical_tails(theta0: Fraction) -> tuple[int, tuple[int, int]]:
    """(den, numerators of c_0 and c_1 over den), c_0 the packed critical body
    flipped at its odd positions and c_1 = 1 - c_0."""
    c0 = _flip_odd(packed_epsilon_star(theta0)).to_fraction()
    return c0.denominator, (c0.numerator, c0.denominator - c0.numerator)


@st.composite
def even_generators(draw):
    """n/den with den = odd * 2^e <= 2^12, e >= 1 and n odd, so den stays even."""
    odd = 2 * draw(st.integers(0, 127)) + 1
    den = odd << draw(st.integers(1, max(1, (4096 // odd).bit_length() - 1)))
    return Fraction(2 * draw(st.integers(0, den // 2 - 1)) + 1, den)
