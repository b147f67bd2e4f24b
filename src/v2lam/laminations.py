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

All endpoint arithmetic is exact; crossing sweeps run on integers over a
common denominator for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .angles import HALF, DomainError, angle, require_nonperiodic
from .measure import h_arc, preimages_of_angle, sigma0_arc


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


def _strictly_inside(x: Fraction, start: Fraction, length: Fraction) -> bool:
    d = angle(x - start)
    return Fraction(0) < d < length


def pairs_cross(a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction) -> bool:
    """Strict interleaving of {a1,b1} and {a2,b2}; shared endpoints never cross."""
    if a1 == a2 or a1 == b2 or b1 == a2 or b1 == b2:
        return False
    length = angle(b1 - a1)
    return _strictly_inside(a2, a1, length) != _strictly_inside(b2, a1, length)


def leaves_cross(l1: Leaf, l2: Leaf) -> bool:
    return pairs_cross(l1.a, l1.b, l2.a, l2.b)


def _int_endpoints(leaves: Sequence[Leaf]) -> tuple[list[tuple[int, int]], int]:
    """Endpoints as integers over the common denominator (for fast sweeps)."""
    if not leaves:
        return [], 1
    d = lcm(*[x.denominator for l in leaves for x in (l.a, l.b)])
    out = []
    for l in leaves:
        p, q = l.a.numerator * (d // l.a.denominator), l.b.numerator * (d // l.b.denominator)
        out.append((p, q) if p <= q else (q, p))
    return out, d


def count_same_side_crossings(lam: Lamination) -> tuple[int, int]:
    """(number of crossing same-side pairs, number of pairs examined)."""
    bad = 0
    checked = 0
    for side in (INSIDE, OUTSIDE):
        pts, _ = _int_endpoints(lam.side_leaves(side))
        n = len(pts)
        checked += n * (n - 1) // 2
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


def _arc_preimages_quad(start: Fraction, length: Fraction):
    """Components of the t -> 4t preimage of the ccw arc (start, start+length)."""
    for k in range(4):
        yield (angle((start + k) / 4), length / 4)


def _arc_preimages_neg2(start: Fraction, length: Fraction):
    """Components of the t -> -2t preimage of the ccw arc (start, start+length)."""
    s = angle((1 - start - length) / 2)
    yield (s, length / 2)
    yield (angle(s + HALF), length / 2)


def build_L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over all n-fold quadrupling preimages of the half-arc, n <= depth.

    Layer n holds 4^n inside leaves, each subtending an arc of length
    (1/2) * 4^-n; the system is invariant under the antipodal map.
    """
    t0 = require_nonperiodic(theta0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    sigma = sigma0_arc(t0)
    lam = Lamination(kind="L", generator=t0, depth=depth)
    layer = [(sigma.start, sigma.length)]
    for n in range(depth + 1):
        for start, length in layer:
            lam.add(Leaf(start, angle(start + length), INSIDE, n))
        if n < depth:
            layer = [p for arc in layer for p in _arc_preimages_quad(*arc)]
    return lam


def build_2L(theta0: Fraction, depth: int) -> Lamination:
    """Bridges over all n-fold preimages of the half-arc under t -> -2t.

    Layer n holds 2^n leaves of arc length (1/2) * 2^-n, inside for even n
    and outside for odd n.
    """
    t0 = require_nonperiodic(theta0)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    sigma = sigma0_arc(t0)
    lam = Lamination(kind="twoSided", generator=t0, depth=depth)
    layer = [(sigma.start, sigma.length)]
    for n in range(depth + 1):
        side = INSIDE if n % 2 == 0 else OUTSIDE
        for start, length in layer:
            lam.add(Leaf(start, angle(start + length), side, n))
        if n < depth:
            layer = [p for arc in layer for p in _arc_preimages_neg2(*arc)]
    return lam


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
    while True:
        if a == b:
            return True
        lo, hi = (a, b) if a < b else (b, a)
        if not (lo in (l0a, l0b) or hi in (l0a, l0b)):
            in1 = lo < l0a < hi
            in2 = lo < l0b < hi
            if in1 != in2:
                return False
        if (lo, hi) in seen:
            return True
        seen.add((lo, hi))
        a, b = (2 * a) % den, (2 * b) % den


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
    den = lcm(a.denominator, b.denominator, major.a.denominator, major.b.denominator)
    return _orbit_admits(
        a.numerator * (den // a.denominator),
        b.numerator * (den // b.denominator),
        major.a.numerator * (den // major.a.denominator),
        major.b.numerator * (den // major.b.denominator),
        den,
    )


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
    den = lcm(*[t.denominator for t in points]) if points else 1
    ints = [t.numerator * (den // t.denominator) for t in points]
    l0a = major.a.numerator * (den // major.a.denominator)
    l0b = major.b.numerator * (den // major.b.denominator)
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
    endpoint pairing that halves both angles together, filtered for
    non-crossing against the accumulated set."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    lam = Lamination(kind="basilica", generator=Fraction(1, 3), depth=depth)
    lam.add(Leaf(Fraction(1, 3), Fraction(2, 3), INSIDE, 0))
    # integer angles over denominator 3 * 2^depth for the crossing filter
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
    chords = sorted({(l.a, l.b) if l.a <= l.b else (l.b, l.a) for l in leaves})
    for i, c1 in enumerate(chords):
        for c2 in chords[i + 1:]:
            if pairs_cross(*c1, *c2):
                raise DomainError("crossing chords: %s/%s and %s/%s" % (*c1, *c2))
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
