"""Chord laminations on the unit circle.

Leaves are chords between rational angles, tagged inside ("I") or outside
("O") the circle and carrying the pullback depth at which they first appear.
Builders produce:

* L0, the t -> 4t pullbacks of the critical leaf {x0, x0 + 1/2} outside
  the half-arc (x0, x0 + 1/2), and L, all its t -> 4t pullbacks,
* the two-sided system (pullbacks under t -> -2t, alternating sides),
* the outside mirror of an inside lamination (endpoint angles doubled and
  negated),
* invariant quadratic laminations generated by a diameter-like major chord,
  found by pulling admitted chords back along doubling,
* the basilica lamination and matings of two inside laminations.

A ``Lamination`` is nothing but integer chords over one denominator
``den``: a map (side, lo, hi) -> depth with 0 <= lo < hi < den meaning the
chord {lo/den, hi/den}.  Building, deduplication, the crossing sweep, the
invariance check, complementary regions, the leaf file and the SVG all run
on these integers.  ``Leaf``, the validating Fraction form of one chord, is
built only where a chord meets the outside world: a chord given by the
caller (``leaves_cross``, ``leaf_in_quadratic_lamination``, the CLI's
``lam cross`` and ``lam quadratic --leaf``) and a failing chord in a report
(``InvarianceReport``, ``v2lam.symbolic.AddressMatchReport``).  ``mate``
rescales once to the lcm of its two denominators.  Each chord concept is
written once: one pullback loop building L0, L, 2L and the basilica
(_pullbacks), one crossing predicate (_chords_cross), one sorted sweep
counting crossing pairs (_crossings), and one conversion of Fractions to
integers over their common denominator (_over_common_denominator).
Complementary regions are read off the nesting of non-crossing chords.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .angles import HALF, DomainError, angle, require_nonperiodic, x0_digits


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

    def __str__(self) -> str:
        return "%s %s %s" % (self.side, self.a, self.b)


def _turns_text(x: int, den: int) -> str:
    """str(Fraction(x, den)) for 0 <= x < den."""
    if not x:
        return "0"
    g = gcd(x, den)
    return "%d/%d" % (x // g, den // g)


class Lamination:
    """Finite leaf set: integer chords over one denominator.

    ``chords`` maps (side, lo, hi) to the leaf depth, lo < hi being integers
    in [0, den) for the chord {lo/den, hi/den}.  A chord reachable at two
    depths keeps the smaller depth.  ``chords`` keeps insertion order,
    which builders keep deterministic.
    """

    def __init__(self, den: int):
        self.den = den
        self.chords: dict[tuple[str, int, int], int] = {}

    def add(self, side: str, a: int, b: int, depth: int) -> None:
        """Add the chord {a/den, b/den} on side; a != b are integers in [0, den)."""
        key = (side, a, b) if a < b else (side, b, a)
        old = self.chords.get(key)
        if old is None or depth < old:
            self.chords[key] = depth

    def _leaf(self, key: tuple[str, int, int], depth: int) -> Leaf:
        side, a, b = key
        return Leaf(Fraction(a, self.den), Fraction(b, self.den), side, depth)

    def __len__(self) -> int:
        return len(self.chords)

    def to_text(self) -> str:
        den = self.den
        return "".join("%s %s %s\n" % (s, _turns_text(a, den), _turns_text(b, den))
                       for s, a, b in self.chords)


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
        chords = [(a, b) for s, a, b in lam.chords if s == side]
        bad += _crossings(chords)
        checked += len(chords) * (len(chords) - 1) // 2
    return bad, checked


# ---------------------------------------------------------------------------
# bridge and pullback laminations


def _pullbacks(den: int, start: int, length: int, depth: int, bits: int, pull,
               sides: tuple[str, ...]) -> Lamination:
    """The bridges over the arc (start, start + length) and its pullbacks.

    Starts and the common length of a layer are integers over den.  Each
    step divides the length by 2^bits; pull(starts, length, den) gives the
    next layer's starts in insertion order, after its own filter if any.
    Layer n takes side sides[n % len(sides)].
    """
    lam = Lamination(den=den)
    add = lam.add
    starts = [start]
    for n in range(depth + 1):
        side = sides[n % len(sides)]
        for s in starts:
            add(side, s, (s + length) % den, n)
        if n < depth:
            starts = pull(starts, length, den)
            length >>= bits
    return lam


def _central_arc(theta0: Fraction, depth: int, bits: int) -> tuple[int, int]:
    """(D, s0): the half-arc (x0, x0 + 1/2) starts at s0/D, where D = den(x0) *
    2^(bits*depth + 1) keeps depth pullback steps of 2^bits integral."""
    theta0 = require_nonperiodic(theta0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    x0 = x0_digits(theta0)
    e = bits * depth + 1
    return x0.denominator << e, x0.numerator << e


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
    D, s0 = _central_arc(theta0, depth, 2)
    return _pullbacks(D, s0, D >> 1, depth, 2, _quad_pull, (INSIDE,))


def build_2L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over all n-fold preimages of the half-arc under t -> -2t.

    Layer n holds 2^n leaves of arc length (1/2) * 2^-n, inside for even n
    and outside for odd n.  The arcs are carried as integers over one
    denominator.
    """
    D, s0 = _central_arc(theta0, depth, 1)
    return _pullbacks(D, s0, D >> 1, depth, 1, _neg2_pull, (INSIDE, OUTSIDE))


def build_L0(theta0: Fraction, depth: int) -> Lamination:
    """Pullbacks of the critical leaf {x0, x0 + 1/2} under t -> 4t, n <= depth.

    Layer n is the two of the four quadrupling preimages of each layer n - 1
    arc that lie outside the half-arc (x0, x0 + 1/2): by h(4u) = 2h(u) they
    are the h-preimage arcs of the depth-n atoms, and h collapses the other
    two to theta0 (Thurston's pullback argument).  So its 2^n leaves, sorted
    by start as h orders the atoms, are leaves of build_L at depth n.
    """
    D, s0 = _central_arc(theta0, depth, 2)
    half = D >> 1

    def outside(starts: list[int], length: int, D: int) -> list[int]:
        return sorted(x for x in _quad_pull(starts, length, D) if (x - s0) % D >= half)

    return _pullbacks(D, s0, half, depth, 2, outside, (INSIDE,))


def mirror_outside(lam: Lamination) -> Lamination:
    """Outside mirror: each inside leaf {a,b} maps to {-2a mod 1, -2b mod 1}.

    Degenerate images (antipodal endpoint pairs) are dropped; duplicates are
    coalesced keeping the smaller depth.
    """
    den = lam.den
    out = Lamination(den=den)
    for (side, a, b), d in lam.chords.items():
        if side == INSIDE:
            ia, ib = -2 * a % den, -2 * b % den
            if ia != ib:
                out.add(OUTSIDE, ia, ib, d)
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


def check_two_sided_invariance(lam: Lamination, depth: int) -> InvarianceReport:
    """Verify forward, antipodal, and backward conditions on leaves of
    depth <= depth, on both sides symmetrically.

    * forward: the endpoint image pair under t -> -2t is degenerate (antipodal
      endpoints) or a leaf of the opposite side;
    * antipodal: the antipodal leaf is present on the same side;
    * backward: some choice of t -> -2t endpoint preimages forms a leaf of the
      opposite side.

    The lamination should be built to depth+1 so backward partners exist.
    Images, antipodes and preimages are integers over D = 2*den; one with
    an odd integer is not over den, so it is on no leaf.
    """
    den, chords = lam.den, lam.chords
    D = 2 * den
    flip = {INSIDE: OUTSIDE, OUTSIDE: INSIDE}

    def has(side: str, u: int, v: int) -> bool:
        if u & 1 or v & 1:
            return False
        u, v = u >> 1, v >> 1
        return ((side, u, v) if u < v else (side, v, u)) in chords

    failures: list[tuple[Leaf, str]] = []
    checked = 0
    for key, d in chords.items():
        if d > depth:
            continue
        checked += 1
        side, a, b = key
        other = flip[side]
        # forward
        fa, fb = -4 * a % D, -4 * b % D
        if fa != fb and not has(other, fa, fb):
            failures.append((lam._leaf(key, d), "forward"))
        # antipodal
        if not has(side, (2 * a + den) % D, (2 * b + den) % D):
            failures.append((lam._leaf(key, d), "antipodal"))
        # backward: the solutions w of -2w = t are (1 - t)/2 and (1 - t)/2 + 1/2
        pa, pb = (den - a, (D - a) % D), (den - b, (D - b) % D)
        if not any(has(other, w1, w2) for w1 in pa for w2 in pb if w1 != w2):
            failures.append((lam._leaf(key, d), "backward"))
    return InvarianceReport(checked, failures)


# ---------------------------------------------------------------------------
# quadratic laminations, basilica, matings


def quadratic_major(y0: Fraction) -> tuple[Fraction, Fraction]:
    """The endpoints (y0/2, y0/2 + 1/2) of the generating chord, both in [0, 1)."""
    y0 = angle(y0)
    return y0 / 2, y0 / 2 + HALF


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


def leaf_in_quadratic_lamination(y0: Fraction, leaf: Leaf) -> bool:
    """True iff no forward doubling image of the chord strictly crosses the
    major chord (coincidence and shared endpoints allowed).

    Terminates because rational endpoint pairs are eventually periodic under
    doubling.
    """
    (ia, ib, l0a, l0b), den = _over_common_denominator([leaf.a, leaf.b, *quadratic_major(y0)])
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

    The admitted set is found by pullback, in time that scales with its
    size rather than with all pairs of points.  Write P for the point set
    and fd(t) for the least k at which t appears; the only points with
    fd = 0 are the major's endpoints, and fd(t) >= 1 puts 2t in P with
    fd(2t) < fd(t).  A chord {p, q} with 2p != 2q is admitted iff it does
    not cross the major and its image {2p, 2q} is admitted, since the
    image's orbit is the rest of the chord's orbit.  A chord with 2p = 2q
    is a diameter, and every diameter but the major crosses the major.  So
    the chords with an endpoint of fd 0, tested by their orbit walks, seed
    the whole set: a worklist pulls each admitted chord back through the
    <= 4 pairs of its endpoints' halves that lie in P and do not cross the
    major, and by induction on max(fd(p), fd(q)) the image of every other
    admitted chord is admitted, and pulled back, before it (Thurston's
    pullback argument, "On the geometry and dynamics of iterated rational
    maps").  Angles are integers over den = den(y0) * 2^(depth+1); leaves
    are emitted in point order, the major first.
    """
    y0 = angle(y0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    den = y0.denominator << (depth + 1)
    half = den >> 1
    l0a = y0.numerator << depth
    l0b = l0a + half
    first_depth: dict[int, int] = {}
    for k in range(depth + 1):
        for m in range(2 << k):
            first_depth.setdefault((l0a + m * half) >> k, k)

    def halves(u: int) -> list[int]:
        """The points of P that double to u (an odd u has no halves over den)."""
        return [] if u & 1 else [h for h in (u >> 1, (u + den) >> 1) if h in first_depth]

    admitted = {(p, q) if p < q else (q, p)
                for p in (l0a, l0b) for q in first_depth
                if q != p and _orbit_admits(p, q, l0a, l0b, den)}
    work = list(admitted)
    while work:
        u, v = work.pop()
        for p in halves(u):
            for q in halves(v):
                c = (p, q) if p < q else (q, p)
                if c not in admitted and not _chords_cross(*c, l0a, l0b):
                    admitted.add(c)
                    work.append(c)

    lam = Lamination(den=den)
    lam.add(INSIDE, l0a, l0b, 0)
    for p, q in sorted(admitted):
        lam.add(INSIDE, p, q, max(first_depth[p], first_depth[q]))
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
    Angles are integers over den = 3 * 2^depth.  Doubling gives a chord's
    halves back, so no layer repeats a chord.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    den = 3 << depth
    third = den // 3

    def uncrossing(starts: list[int], length: int, D: int) -> list[int]:
        half = length >> 1
        return [x for s in starts for x in (s >> 1, (s + D) >> 1)
                if not _chords_cross(x, x + half, third, 2 * third)]

    return _pullbacks(den, third, third, depth, 1, uncrossing, (INSIDE,))


def mate(L1: Lamination, L2: Lamination) -> Lamination:
    """Two-sided mating: L1 inside; L2 outside with angles negated mod 1."""
    den = lcm(L1.den, L2.den)
    out = Lamination(den=den)
    for lam, side, sign in ((L1, INSIDE, 1), (L2, OUTSIDE, -1)):
        k = sign * (den // lam.den)
        for (s, a, b), d in lam.chords.items():
            if s == INSIDE:
                out.add(side, a * k % den, b * k % den, d)
    return out


# ---------------------------------------------------------------------------
# complementary regions


def complementary_regions(lam: Lamination, side: str) -> list[list[tuple[str, int, int]]]:
    """Faces of the chords of one side of lam in the closed disk.

    Returns the regions that touch the circle, each as a boundary cycle of
    ("chord", from_angle, to_angle) and ("arc", from_angle, to_angle) edges
    in counterclockwise walk order, an angle x standing for x/lam.den as in
    ``lam.chords``.  Pure-chord pockets (faces meeting the circle in no
    arc, only at vertices) are not listed.  No chords yield the single
    full-disk region; crossing chords are refused.

    Non-crossing chords are nested or disjoint, so a face is the inside of
    one chord (lo, hi), bounded by hi -> lo and a walk from lo to hi, or the
    outer face, a walk from the least vertex v0 round to v0.  The walk takes
    at each vertex the outermost chord from there that stays in the face,
    else the arc to the next vertex.  Faces are listed in the order of their
    first chord half-edge (lo -> hi of the k-th chord in sorted order is
    number 2k, hi -> lo is 2k + 1), each cycle starting at that edge.
    """
    chords = sorted((a, b) for s, a, b in lam.chords if s == side)
    bad = _crossings(chords)
    if bad:
        raise DomainError("crossing chord pairs: %d" % bad)
    if not chords:
        return [[("arc", 0, 0)]]
    his: dict[int, list[int]] = {}     # the sorted his of the chords from each lo
    for lo, hi in chords:
        his.setdefault(lo, []).append(hi)
    number = {c: 2 * k for k, c in enumerate(chords)}   # of the half-edge lo -> hi
    verts = sorted({x for c in chords for x in c})
    succ = dict(zip(verts, verts[1:] + verts[:1]))

    def walk(edge: tuple, end: int) -> list[tuple]:
        """edge, then the outermost chord or the next arc up to end."""
        cycle, x = [edge], edge[2]
        while x != end:
            out = his.get(x)
            y, kind = (out[-1], "chord") if out else (succ[x], "arc")
            cycle.append((kind, x, y))
            x = y
        return cycle

    v0 = verts[0]
    faces = [(number[v0, his[v0][-1]], walk(("chord", v0, his[v0][-1]), v0))]
    for lo, hi in chords:
        j = bisect_left(his[lo], hi)
        if j:   # the child from lo comes first
            child = (lo, his[lo][j - 1])
            faces.append((number[child], walk(("chord", *child), hi) + [("chord", hi, lo)]))
        else:
            back = [("chord", hi, lo)]
            faces.append((number[lo, hi] + 1, back + walk(("arc", lo, succ[lo]), hi)))
    # the numbers differ, so no two cycles are compared
    return [cycle for _, cycle in sorted(faces) if any(e[0] == "arc" for e in cycle)]
