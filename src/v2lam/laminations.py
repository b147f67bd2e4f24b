"""Chord laminations on the unit circle.

Leaves are chords between rational angles, tagged inside ("I") or outside
("O") the circle and carrying the pullback depth at which they first appear.
Builders produce:

* the bridge lamination over the atoms of the blow-up measure,
* its quadrupling-pullback completion (pullbacks of the central half-arc
  under t -> 4t),
* the two-sided system (pullbacks under t -> -2t, alternating sides),
* the outside mirror of an inside lamination (endpoint angles doubled and
  negated),
* invariant quadratic laminations generated by a diameter-like major chord,
* the basilica lamination and matings of two inside laminations.

All endpoint arithmetic is exact and runs on integers over one shared
denominator: the pullback builders carry arc starts as integers and build
each endpoint Fraction once.  Each chord concept is written once: one
crossing predicate (_chords_cross), one sorted sweep counting crossing
pairs (_crossings), and one conversion of Fractions to integers over their
common denominator (_over_common_denominator).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .angles import HALF, DomainError, angle, require_nonperiodic, x0_digits
from .measure import h_arc, preimages_of_angle


INSIDE = "I"
OUTSIDE = "O"


@dataclass(frozen=True)
class Leaf:
    """Chord {a, b} with a side tag and the depth of first appearance."""

    a: Fraction
    b: Fraction
    side: str = INSIDE
    depth: int = 0

    def __post_init__(self):
        a, b = angle(self.a), angle(self.b)
        if a == b:
            raise DomainError("leaf endpoints must be distinct")
        if b < a:
            a, b = b, a
        if self.side not in (INSIDE, OUTSIDE):
            raise DomainError("side must be %r or %r" % (INSIDE, OUTSIDE))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def key(self) -> tuple:
        return (self.side, self.a, self.b)

    @property
    def endpoints(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def antipode(self) -> "Leaf":
        return Leaf(angle(self.a + HALF), angle(self.b + HALF), self.side, self.depth)

    def __str__(self) -> str:
        return "%s %s %s" % (self.side, self.a, self.b)


class Lamination:
    """Finite leaf set with a kind tag, generator data, and build depth.

    Leaves are deduplicated by (side, endpoints); a leaf reachable at two
    depths keeps the smaller depth.  Iteration order is insertion order,
    which builders keep deterministic.
    """

    KINDS = ("L0", "L", "twoSided", "quadratic", "basilica", "mating", "file")

    def __init__(self, kind: str = "file", generator=None, depth: int = 0,
                 leaves: Iterable[Leaf] = ()):
        self.kind = kind
        self.generator = generator
        self.depth = depth
        self._by_key: dict[tuple, Leaf] = {}
        for leaf in leaves:
            self.add(leaf)

    def add(self, leaf: Leaf) -> None:
        old = self._by_key.get(leaf.key)
        if old is None or leaf.depth < old.depth:
            self._by_key[leaf.key] = leaf

    @property
    def leaves(self) -> list[Leaf]:
        return list(self._by_key.values())

    def __iter__(self):
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, item) -> bool:
        if isinstance(item, Leaf):
            return item.key in self._by_key
        return tuple(item) in self._by_key

    def has(self, side: str, a: Fraction, b: Fraction) -> bool:
        a, b = angle(a), angle(b)
        if b < a:
            a, b = b, a
        return (side, a, b) in self._by_key

    def side_leaves(self, side: str) -> list[Leaf]:
        return [l for l in self if l.side == side]

    def key_set(self) -> frozenset:
        return frozenset(self._by_key)

    def max_depth(self) -> int:
        return max((l.depth for l in self), default=-1)

    def to_text(self) -> str:
        return "".join("%s\n" % l for l in self)

    @classmethod
    def from_text(cls, text: str, kind: str = "file") -> "Lamination":
        lam = cls(kind=kind)
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DomainError("bad leaf line: %r" % line)
            lam.add(Leaf(angle(parts[1]), angle(parts[2]), parts[0]))
        return lam


# ---------------------------------------------------------------------------
# crossing predicates


def _chords_cross(lo1, hi1, lo2, hi2) -> bool:
    """Strict interleaving of the chords lo1 < hi1 and lo2 < hi2 (any ordered
    type); chords that share an endpoint never cross."""
    return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1


def _crossings(chords: Iterable[tuple[int, int]]) -> int:
    """Number of crossing pairs among the chords (lo, hi), lo < hi.

    One sweep by increasing lo (ties by decreasing hi, so equal-lo chords
    never count): a chord crosses exactly the earlier chords whose hi lies
    strictly between its own lo and hi.
    """
    his, bad = [], 0
    for lo, hi in sorted(chords, key=lambda c: (c[0], -c[1])):
        bad += bisect_left(his, hi) - bisect_right(his, lo)
        insort(his, hi)
    return bad


def _over_common_denominator(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, den): the Fractions xs as integers over their least common
    denominator (den = 1 for no xs)."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _int_chords(leaves: Sequence[Leaf]) -> list[tuple[int, int]]:
    """The leaves' (a, b) endpoint pairs as integers over one denominator."""
    ints, _ = _over_common_denominator([x for l in leaves for x in (l.a, l.b)])
    return list(zip(ints[::2], ints[1::2]))


def pairs_cross(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction) -> bool:
    """Strict interleaving of {a1,b1} and {a2,b2} on the circle, endpoints
    taken mod 1; shared endpoints never cross."""
    lo1, hi1 = sorted((angle(a1), angle(b1)))
    lo2, hi2 = sorted((angle(a2), angle(b2)))
    return _chords_cross(lo1, hi1, lo2, hi2)


def leaves_cross(l1: Leaf, l2: Leaf) -> bool:
    return pairs_cross(l1.a, l1.b, l2.a, l2.b)


def count_same_side_crossings(lam: Lamination) -> tuple[int, int]:
    """(number of crossing same-side pairs, number of pairs examined).

    Every same-side pair counts as examined; the crossings are counted by
    one sorted sweep per side.
    """
    bad = checked = 0
    for side in (INSIDE, OUTSIDE):
        leaves = lam.side_leaves(side)
        bad += _crossings(_int_chords(leaves))
        checked += len(leaves) * (len(leaves) - 1) // 2
    return bad, checked


# ---------------------------------------------------------------------------
# bridge and pullback laminations


def build_L0(theta0: Fraction, depth: int, M: Optional[int] = None) -> Lamination:
    """One inside bridge leaf per atom of depth <= depth.

    Endpoints are the h-preimage arc endpoints of each atom (exact when M is
    None, depth-M truncations otherwise).  The depth-0 leaf is the central
    chord over the half-arc.
    """
    t0 = require_nonperiodic(theta0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    lam = Lamination(kind="L0", generator=t0, depth=depth)
    for m in range(depth + 1):
        for t in preimages_of_angle(t0, m):
            ha = h_arc(t, t0, M)
            lam.add(Leaf(ha.start, ha.end, INSIDE, m))
    return lam


def _half_arc_pullbacks(lam: Lamination, theta0: Fraction, depth: int, bits: int,
                        pull, sides: tuple[str, ...]) -> Lamination:
    """Add to lam the bridges over the pullbacks of the half-arc (x0, x0 + 1/2).

    Each pullback step divides the arc length by 2^bits.  Arc starts are
    integers over the one denominator D = den(x0) * 2^(bits*depth + 1), on
    which every layer's common arc length is an integer too; pull(starts,
    length, D) gives the next layer's starts in insertion order.  Layer n
    leaves take side sides[n % len(sides)], and each endpoint Fraction is
    built once.
    """
    x0 = x0_digits(theta0)
    e = bits * depth + 1
    D = x0.denominator << e
    starts, length = [x0.numerator << e], D >> 1
    for n in range(depth + 1):
        side = sides[n % len(sides)]
        for s in starts:
            lam.add(Leaf(Fraction(s, D), Fraction((s + length) % D, D), side, n))
        if n < depth:
            starts = pull(starts, length, D)
            length >>= bits
    return lam


def _quad_pull(starts: list[int], length: int, D: int) -> list[int]:
    """Starts of the t -> 4t preimages of the arcs (s, s + length) over D."""
    return [(s + k * D) >> 2 for s in starts for k in range(4)]


def _neg2_pull(starts: list[int], length: int, D: int) -> list[int]:
    """Starts of the t -> -2t preimages of the arcs (s, s + length) over D."""
    half, out = D >> 1, []
    for s in starts:
        x = ((D - s - length) % (2 * D)) >> 1
        out += (x, (x + half) % D)
    return out


def build_L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over all n-fold quadrupling preimages of the half-arc, n <= depth.

    Layer n holds 4^n inside leaves, each subtending an arc of length
    (1/2) * 4^-n; the system is invariant under the antipodal map.  The
    arcs are carried as integers over one denominator.
    """
    t0 = require_nonperiodic(theta0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    lam = Lamination(kind="L", generator=t0, depth=depth)
    return _half_arc_pullbacks(lam, t0, depth, 2, _quad_pull, (INSIDE,))


def build_2L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over all n-fold preimages of the half-arc under t -> -2t.

    Layer n holds 2^n leaves of arc length (1/2) * 2^-n, inside for even n
    and outside for odd n.  The arcs are carried as integers over one
    denominator.
    """
    t0 = require_nonperiodic(theta0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    lam = Lamination(kind="twoSided", generator=t0, depth=depth)
    return _half_arc_pullbacks(lam, t0, depth, 1, _neg2_pull, (INSIDE, OUTSIDE))


def mirror_outside(lam: Lamination) -> Lamination:
    """Outside mirror: each inside leaf {a,b} maps to {-2a mod 1, -2b mod 1}.

    Degenerate images (antipodal endpoint pairs) are dropped; duplicates are
    coalesced keeping the smaller depth.
    """
    out = Lamination(kind=lam.kind, generator=lam.generator, depth=lam.depth)
    for l in lam.side_leaves(INSIDE):
        ia, ib = angle(-2 * l.a), angle(-2 * l.b)
        if ia == ib:
            continue
        out.add(Leaf(ia, ib, OUTSIDE, l.depth))
    return out


# ---------------------------------------------------------------------------
# invariance checking


@dataclass
class InvarianceReport:
    checked: int
    failures: list[tuple[Leaf, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


def _neg2_images(a: Fraction) -> tuple[Fraction, Fraction]:
    """The two solutions w of -2w = a (mod 1)."""
    w = angle((1 - a) / 2)
    return (w, angle(w + HALF))


def check_two_sided_invariance(lam: Lamination, depth: int) -> InvarianceReport:
    """Verify forward, antipodal, and backward conditions on leaves of
    depth <= depth, on both sides symmetrically.

    * forward: the endpoint image pair under t -> -2t is degenerate (antipodal
      endpoints) or a leaf of the opposite side;
    * antipodal: the antipodal leaf is present on the same side;
    * backward: some choice of t -> -2t endpoint preimages forms a leaf of the
      opposite side.

    The lamination should be built to depth+1 so backward partners exist.
    """
    flip = {INSIDE: OUTSIDE, OUTSIDE: INSIDE}
    failures: list[tuple[Leaf, str]] = []
    checked = 0
    for leaf in lam:
        if leaf.depth > depth:
            continue
        checked += 1
        other = flip[leaf.side]
        # forward
        ia, ib = angle(-2 * leaf.a), angle(-2 * leaf.b)
        if ia != ib and not lam.has(other, ia, ib):
            failures.append((leaf, "forward"))
        # antipodal
        if not lam.has(leaf.side, angle(leaf.a + HALF), angle(leaf.b + HALF)):
            failures.append((leaf, "antipodal"))
        # backward
        cands = [
            (w1, w2)
            for w1 in _neg2_images(leaf.a)
            for w2 in _neg2_images(leaf.b)
            if w1 != w2
        ]
        if not any(lam.has(other, w1, w2) for w1, w2 in cands):
            failures.append((leaf, "backward"))
    return InvarianceReport(checked, failures)


# ---------------------------------------------------------------------------
# quadratic laminations, basilica, matings


def quadratic_major(y0: Fraction) -> Leaf:
    """The generating chord {y0/2, y0/2 + 1/2}."""
    y0 = angle(y0)
    return Leaf(angle(y0 / 2), angle(y0 / 2 + HALF), INSIDE, 0)


def _orbit_admits(a: int, b: int, l0a: int, l0b: int, den: int) -> bool:
    """Integer-angle core of the membership test: no forward doubling image
    of the chord {a/den, b/den} strictly crosses {l0a/den, l0b/den}."""
    seen = set()
    while a != b:
        lo, hi = (a, b) if a < b else (b, a)
        if _chords_cross(lo, hi, l0a, l0b):
            return False
        if (lo, hi) in seen:
            return True
        seen.add((lo, hi))
        a, b = (2 * a) % den, (2 * b) % den
    return True


def leaf_in_quadratic_lamination(y0: Fraction, leaf: Leaf | tuple) -> bool:
    """True iff no forward doubling image of the chord strictly crosses the
    major chord (coincidence and shared endpoints allowed).

    Terminates because rational endpoint pairs are eventually periodic under
    doubling.
    """
    if isinstance(leaf, Leaf):
        a, b = leaf.a, leaf.b
    else:
        a, b = (angle(x) for x in leaf)
    major = quadratic_major(y0)
    (ia, ib, l0a, l0b), den = _over_common_denominator([a, b, major.a, major.b])
    return _orbit_admits(ia, ib, l0a, l0b, den)


def build_quadratic_lamination(y0: Fraction, depth: int) -> Lamination:
    """All admissible chords on k-fold doubling preimages of the major chord's
    endpoints, k <= depth; always contains the major chord.

    Admissibility is exactly leaf_in_quadratic_lamination.  For generators
    whose identification collapses large angle classes (y0 = 0 identifies all
    dyadic angles; some periodic y0 such as 1/3 and 1/7 behave similarly),
    the admitted set eventually contains all diagonals of a collapsing class,
    and diagonals of one class cross each other.  For such generators deep
    truncations are chord systems of the quotient rather than non-crossing
    laminations; count_same_side_crossings reports the overlap honestly.
    """
    y0 = angle(y0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    major = quadratic_major(y0)
    first_depth: dict[Fraction, int] = {}
    for k in range(depth + 1):
        for e in major.endpoints:
            for t in preimages_of_angle(e, k):
                first_depth.setdefault(t, k)
    points = sorted(first_depth)
    (l0a, l0b, *ints), den = _over_common_denominator([major.a, major.b, *points])
    lam = Lamination(kind="quadratic", generator=y0, depth=depth)
    lam.add(major)
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if _orbit_admits(ints[i], ints[j], l0a, l0b, den):
                lam.add(Leaf(points[i], points[j], INSIDE,
                             max(first_depth[points[i]], first_depth[points[j]])))
    return lam


def build_basilica(depth: int) -> Lamination:
    """Iterated doubling-preimages of the chord {1/3, 2/3}, keeping the
    endpoint pairing that halves both angles together, minus the preimages
    that cross {1/3, 2/3}.

    That one test is the whole non-crossing filter (Thurston's pullback
    argument for invariant laminations).  A halves-together preimage lies in
    one half of the circle, where doubling keeps cyclic order.  If a
    candidate crossed a kept leaf of depth >= 1, that leaf would lie in the
    same half (chords in opposite halves cannot cross), so doubling both
    would make the candidate's kept parent cross that leaf's parent, a kept
    leaf of lower depth; by induction on the depth no such pair exists.
    Angles are integers over den = 3 * 2^depth.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    lam = Lamination(kind="basilica", generator=Fraction(1, 3), depth=depth)
    lam.add(Leaf(Fraction(1, 3), Fraction(2, 3), INSIDE, 0))
    den = 3 << depth
    major = (den // 3, 2 * den // 3)
    layer = [major]
    for n in range(1, depth + 1):
        halves = (((a + k * den) >> 1, (b + k * den) >> 1) for a, b in layer for k in (0, 1))
        layer = list(dict.fromkeys(c for c in halves if not _chords_cross(*c, *major)))
        for lo, hi in layer:
            lam.add(Leaf(Fraction(lo, den), Fraction(hi, den), INSIDE, n))
    return lam


def mate(L1: Lamination, L2: Lamination) -> Lamination:
    """Two-sided mating: L1 inside; L2 outside with angles negated mod 1."""
    out = Lamination(kind="mating", generator=(L1.generator, L2.generator),
                     depth=max(L1.depth, L2.depth))
    for l in L1.side_leaves(INSIDE):
        out.add(Leaf(l.a, l.b, INSIDE, l.depth))
    for l in L2.side_leaves(INSIDE):
        out.add(Leaf(angle(-l.a), angle(-l.b), OUTSIDE, l.depth))
    return out


# ---------------------------------------------------------------------------
# complementary regions


def complementary_regions(leaves: Sequence[Leaf] | Lamination) -> list[list[tuple]]:
    """Faces of a non-crossing chord arrangement in the closed disk.

    Returns the regions that touch the circle, each as a boundary cycle of
    ("chord", from_angle, to_angle) and ("arc", from_angle, to_angle) edges
    in counterclockwise walk order.  Pure-chord pockets (faces meeting the
    circle in no arc, only at vertices) are not listed.  The empty
    arrangement yields the single full-disk region.
    """
    if isinstance(leaves, Lamination):
        leaves = leaves.leaves
    bad = _crossings(_int_chords(leaves))
    if bad:
        raise DomainError("crossing chord pairs: %d" % bad)
    chords = sorted({(l.a, l.b) for l in leaves})
    if not chords:
        return [[("arc", Fraction(0), Fraction(0))]]

    verts = sorted({x for c in chords for x in c})
    vid = {v: i for i, v in enumerate(verts)}
    nvert = len(verts)

    # Half-edges: ("chord", i, j) from verts[i] to verts[j], and ("arc", i)
    # the ccw circle arc from verts[i] to its circular successor, plus the
    # reversed arc ("rarc", i).  Departure directions (in turns, exact):
    # chord i->j: (t_i + t_j')/2 + 1/4 with t_j' the ccw lift of t_j;
    # ccw arc at t: t + 1/4; cw arc at t: t + 3/4.
    outgoing: dict[int, list[tuple[Fraction, tuple]]] = {i: [] for i in range(nvert)}

    def chord_dir(i: int, j: int) -> Fraction:
        ti = verts[i]
        tj = ti + angle(verts[j] - ti)
        return angle((ti + tj) / 2 + Fraction(1, 4))

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
        outgoing[i].append((angle(verts[i] + Fraction(1, 4)), h))
        h = ("rarc", i)                     # cw from successor back to verts[i]
        half_edges.append(h)
        succ = (i + 1) % nvert
        outgoing[succ].append((angle(verts[succ] + Fraction(3, 4)), h))

    for i in range(nvert):
        outgoing[i].sort()

    def head(h: tuple) -> int:
        if h[0] == "chord":
            return h[2]
        if h[0] == "arc":
            return (h[1] + 1) % nvert
        return h[1]

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
                walk.append(("chord", verts[e[1]], verts[e[2]]))
            else:
                i = e[1]
                walk.append(("arc", verts[i], verts[(i + 1) % nvert]))
        regions.append(walk)
    return regions
