"""Ray leaves: circle coordinates for the leaf structure of an exterior map.

For a parameter a in the exterior region (critical orbit escaping to the
supercycle, critical value -a in the infinity half-basin), the Julia set J
of f_a(z) = a/(z^2+2z) is a quasicircle carrying f|J conjugate to the
degree -2 circle map m(t) = -2t.  The conjugating parametrization h is
normalized by h(0) = omega, the common landing point of the zero-angle
rays; h(1/2) is then forced to be omega' = -2 - omega.

The Green function of the basin has a saddle at the critical point -1 and,
pulling back, 2^k saddles at depth k (solutions of f^k(q) = -1).  Each
saddle carries two "legs": descending gradient curves that land on J at a
pair of h-coordinates — a *ray leaf*.  This module measures those
coordinates:

1. trace the ray through the critical value; its upper tail pulls back to
   the separatrices of the depth-0 saddle, its lower tail to the legs;
2. build the separation curve Sigma through 0, -1, -2 and the landing
   points omega, omega' (assembled from the zero-angle ray, its
   pullbacks, the separatrices, and their deck copies under z -> -2-z),
   which splits the plane into the two sides corresponding to the model
   arcs (0, 1/2) and (1/2, 1);
3. for each leg take two deep sample points and walk their f-orbits while
   the orbit potential stays small; one batched side test over the orbit
   points of every sample of every leg gives each point its side bit (the
   crossing parity of the segment from the point to a reference point
   against Sigma) and its margin to the polyline, and each itinerary
   stops at its first point whose margin is too small to trust;
4. convert the itinerary to an exact dyadic interval by nested pullback
   under m on integer numerators; the midpoint is the coordinate.

Two deep samples per leg give independent estimates; a leg keeps the one
with more bits.  A leaf is ``unresolved`` when either estimate has too
few trusted bits or the two midpoints disagree beyond 5e-3.

Orientation: h and t -> -t give equally valid parametrizations (both
conjugate m to f|J and fix omega), so the measured coordinates carry a
global mirror ambiguity.  Passing the defining angle ``theta0`` resolves
it: when the depth-0 leaf's intervals miss {x0, x0 + 1/2} for the
corresponding interleaved angle x0 but their mirror images contain it,
every interval is mirrored exactly.  Without ``theta0`` a fixed
convention (side of the zero-angle ray) is used and the result may be the
mirror image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..angles import DomainError, NumericError, circle_distance, x0_digits
from .core import _f, _inverse_roots, _require_param, green_value, is_infinite
from .rays import trace_dynamical_ray, trace_ray_through_point

__all__ = ["RayLeaf", "ray_leaf_endpoints"]

# Newton steps on the ray through the critical value and on the zero-angle
# ray of the separation curve; the potential the first ray's lower tail (the
# legs' source) reaches; the orbit potential above which itinerary bits are
# not read; the most bits read, and the fewest that make an estimate.
_STEPS, _SIGMA_STEPS = 240, 460
_S_DEEP, _S_STOP = 1e-4, 0.05
_MAX_BITS, _MIN_BITS = 40, 8


@dataclass
class RayLeaf:
    """One measured leaf: a saddle with the h-coordinates of its leg landings.

    A leg's landing is the dyadic interval [num/2^bits, (num+1)/2^bits] of
    its best estimate as ``(num, bits)``, or ``None`` when it has no
    estimate; ``t1`` and ``t2`` are the midpoints (0.0 for ``None``).
    """

    saddle: complex
    depth: int
    side: str            # "I" for even depth (0-half), "O" for odd (infinity-half)
    leg1: tuple[int, int] | None
    leg2: tuple[int, int] | None
    unresolved: bool
    err: float

    @property
    def t1(self) -> float:
        return _midpoint(self.leg1)

    @property
    def t2(self) -> float:
        return _midpoint(self.leg2)

    def lands_on(self, lo: int, hi: int, den: int) -> bool:
        """Whether the two legs' intervals contain lo/den and hi/den, in either order."""
        return ((_contains(self.leg1, lo, den) and _contains(self.leg2, hi, den))
                or (_contains(self.leg1, hi, den) and _contains(self.leg2, lo, den)))


def _midpoint(leg: tuple[int, int] | None) -> float:
    """The midpoint of a dyadic interval; exact, as bits <= ``_MAX_BITS``."""
    return 0.0 if leg is None else (2 * leg[0] + 1) / (1 << (leg[1] + 1))


def _contains(leg: tuple[int, int] | None, x: int, den: int) -> bool:
    """Whether the dyadic interval contains x/den on the circle (x/den = 0 is also 1)."""
    return leg is not None and any(leg[0] * den <= y << leg[1] <= (leg[0] + 1) * den
                                   for y in (x, x + den))


def _mirror(leg: tuple[int, int] | None) -> tuple[int, int] | None:
    """The image of a dyadic interval under t -> -t."""
    return None if leg is None else ((1 << leg[1]) - 1 - leg[0], leg[1])


# ---------------------------------------------------------------------------
# Separation curve
# ---------------------------------------------------------------------------

class _Sigma:
    """Polyline through far / omega / 0 / -1 / -2 / omega' / far, with side tests.

    The segments are indexed once, in blocks of ``_BLOCK`` consecutive
    segments.  A block keeps its bounding box, its first vertex, the
    distance from ``ref`` to its box, and the range of directions under
    which ``ref`` sees it.  ``side_bits`` tests a batch of points against
    the blocks and runs the per-segment expressions on the surviving
    (point, segment) pairs only.

    The result is bit-identical to running the same expressions on every
    segment.  They are elementwise, so a pair gives the same floats alone
    or among all segments.  A segment that crosses [p, ref] has a point on
    it, so ref sees the segment's block in p's direction and no farther
    than |p - ref|.  The segment nearest p is no farther than the nearest
    block vertex, and a pruned block's box is farther than that.  Each
    pruning test is padded by ``_PAD`` (relative, or in radians) and by
    ``tol``, far beyond the rounding of the quantities compared, and blocks
    too close to ref for reliable directions are tested whatever the
    direction.  Among equally near segments the first in polyline order
    sets the margin, as ``argmin`` over all would.  This holds for finite
    points far inside the float range, as orbit points of small potential
    are.
    """

    _BLOCK = 16
    _CHUNK = 64      # points per batch; bounds the (point, block) and pair arrays
    _PAD = 1e-9      # relative and angular slack of the pruning tests

    def __init__(self, vertices: list[complex], ref: complex):
        pts = np.asarray(vertices, dtype=np.complex128)
        self.x1 = pts[:-1].real
        self.y1 = pts[:-1].imag
        self.x2 = pts[1:].real
        self.y2 = pts[1:].imag
        self.ex = self.x2 - self.x1
        self.ey = self.y2 - self.y1
        self.seg_len = np.hypot(self.ex, self.ey)
        self.ref = ref
        qx, qy = ref.real, ref.imag
        # The terms of the side test that do not depend on the point.
        self.d4 = self.ex * (qy - self.y1) - self.ey * (qx - self.x1)
        self.denom = self.ex * self.ex + self.ey * self.ey
        # Absolute slack, far above the rounding of any distance computed here.
        self.tol = self._PAD * (1.0 + float(np.max(np.abs(pts))) + abs(ref))

        starts = np.arange(0, len(self.x1), self._BLOCK)
        self.bx0 = np.minimum.reduceat(np.minimum(self.x1, self.x2), starts)
        self.bx1 = np.maximum.reduceat(np.maximum(self.x1, self.x2), starts)
        self.by0 = np.minimum.reduceat(np.minimum(self.y1, self.y2), starts)
        self.by1 = np.maximum.reduceat(np.maximum(self.y1, self.y2), starts)
        self.vx, self.vy = self.x1[starts], self.y1[starts]
        self.ref_near = np.sqrt(self._box_dist2(qx, qy))
        # Vertex directions from ref, unwrapped along the polyline: a segment
        # that misses ref turns the direction by less than pi.
        ang = np.angle(pts - ref)
        turn = (np.diff(ang) + np.pi) % (2.0 * np.pi) - np.pi
        unwrapped = ang[0] + np.concatenate(([0.0], np.cumsum(turn)))
        lo = np.minimum.reduceat(np.minimum(unwrapped[:-1], unwrapped[1:]), starts)
        hi = np.maximum.reduceat(np.maximum(unwrapped[:-1], unwrapped[1:]), starts)
        self.mid = (0.5 * (lo + hi) + np.pi) % (2.0 * np.pi) - np.pi
        self.half = 0.5 * (hi - lo) + self._PAD
        # Blocks close to ref are tested in every direction: only a segment
        # that passes close to ref turns by nearly pi, which unwraps either
        # way, and a point whose direction from ref is unreliable (closer
        # than 1e3 * tol) reaches no other block.
        self.always = self.ref_near <= 2e3 * self.tol

    def _box_dist2(self, px, py):
        """Squared distance from each point (rows) to each block box (columns)."""
        gx = np.maximum(np.maximum(self.bx0 - px, px - self.bx1), 0.0)
        gy = np.maximum(np.maximum(self.by0 - py, py - self.by1), 0.0)
        return gx * gx + gy * gy

    def side_bits(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: (crossing parity of [p, ref] against the polyline, margin of p).

        The margin is the distance from p to the polyline relative to the
        local segment length; bits with small margin are untrustworthy
        (the polyline is a chordal approximation of the true curve).
        Points go through in chunks of ``_CHUNK``.
        """
        parity = np.empty(len(points), dtype=np.int64)
        margin = np.empty(len(points), dtype=np.float64)
        for k in range(0, len(points), self._CHUNK):
            chunk = slice(k, k + self._CHUNK)
            parity[chunk], margin[chunk] = self._side_bits(points[chunk])
        return parity, margin

    def _pairs(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (point, segment) pairs of the (point, block) pairs set in ``mask``,
        ordered by point, then segment."""
        pi, bi = np.nonzero(mask)
        seg = (bi[:, None] * self._BLOCK + np.arange(self._BLOCK)).ravel()
        pi = np.repeat(pi, self._BLOCK)
        keep = seg < len(self.x1)
        return pi[keep], seg[keep]

    def _side_bits(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        px, py = p.real, p.imag
        qx, qy = self.ref.real, self.ref.imag
        # Crossing candidates: blocks that ref sees in p's direction, no
        # farther than p.
        rp = np.hypot(px - qx, py - qy)
        off = np.abs(np.arctan2(py - qy, px - qx)[:, None] - self.mid)
        seen = (off <= self.half) | (off >= 2.0 * np.pi - self.half) | self.always
        crossable = seen & (self.ref_near <= (rp * (1.0 + self._PAD) + self.tol)[:, None])
        # Margin candidates: blocks within reach of the nearest block vertex.
        cx, cy = px[:, None] - self.vx, py[:, None] - self.vy
        reach = np.sqrt(np.min(cx * cx + cy * cy, axis=1)) * (1.0 + self._PAD) + self.tol
        close = self._box_dist2(px[:, None], py[:, None]) <= (reach * reach)[:, None]

        # Proper-crossing test: endpoints of each polyline segment strictly
        # on opposite sides of [p, q], and vice versa.
        i, s = self._pairs(crossable)
        x1, y1, pxi, pyi = self.x1[s], self.y1[s], px[i], py[i]
        dx, dy = qx - pxi, qy - pyi
        d1 = dx * (y1 - pyi) - dy * (x1 - pxi)
        d2 = dx * (self.y2[s] - pyi) - dy * (self.x2[s] - pxi)
        d3 = self.ex[s] * (pyi - y1) - self.ey[s] * (pxi - x1)
        crossing = (d1 * d2 < 0.0) & (d3 * self.d4[s] < 0.0)
        parity = np.bincount(i[crossing], minlength=len(p)) & 1
        # Distance from p to each segment; the first nearest segment in
        # polyline order sets the margin, as argmin would.
        i, s = self._pairs(close)
        x1, y1, ex, ey, denom = self.x1[s], self.y1[s], self.ex[s], self.ey[s], self.denom[s]
        pxi, pyi = px[i], py[i]
        t = ((pxi - x1) * ex + (pyi - y1) * ey)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.clip(np.where(denom > 0, t / denom, 0.0), 0.0, 1.0)
        cx = x1 + t * ex - pxi
        cy = y1 + t * ey - pyi
        dist = np.hypot(cx, cy)
        nearest = np.minimum.reduceat(dist, np.flatnonzero(np.diff(i, prepend=-1)))
        hit = np.flatnonzero(dist == nearest[i])
        first = hit[np.flatnonzero(np.diff(i[hit], prepend=-1))]
        margin = dist[first] / (0.05 * self.seg_len[s[first]] + 1e-12)
        return parity, margin


def _build_sigma(a: complex, upper_pts, s_lo: float, s_anchor: float) -> _Sigma:
    ray0 = trace_dynamical_ray(a, "inf", Fraction(0), s_from=max(8.0, s_anchor + 4.0),
                               s_to=s_lo, steps=_SIGMA_STEPS)
    p1 = [z for _, z, _ in ray0.points]
    s1 = [s for s, _, _ in ray0.points]
    # Pullback branch approaching 0 at deep potential.
    p2 = [-1.0 + r for r in _inverse_roots(a, p1, 1.0)]
    # Separatrices of the depth-0 saddle: pullbacks of the upper tail of the
    # ray through the critical value.  The first upper point is -a itself,
    # whose pullback is exactly the saddle -1.
    roots = _inverse_roots(a, [w for _, w, _ in upper_pts[1:]])
    da: list[complex] = [-1.0] + [-1.0 + r for r in roots]
    db: list[complex] = [-1.0] + [-1.0 - r for r in roots]
    # Label the separatrix ending near 0 versus the one ending near -2.
    if abs(da[-1]) <= abs(db[-1]):
        d_zero, d_two = da, db
    else:
        d_zero, d_two = db, da
    vertices = (
        p1
        + list(reversed(p2))
        + list(reversed(d_zero))
        + d_two
        + [-2.0 - z for z in p2]
        + [-2.0 - z for z in reversed(p1)]
    )
    # Reference point: offset to the side of the zero-angle ray at a
    # potential where every other Sigma piece is far away.
    idx = min(range(len(s1)), key=lambda i: abs(s1[i] - s_anchor))
    idx = min(idx, len(p1) - 2)
    v, w = p1[idx], p1[idx + 1]
    ref = 0.5 * (v + w) + 0.25j * (w - v)
    return _Sigma(vertices, ref)


# ---------------------------------------------------------------------------
# Saddles and legs
# ---------------------------------------------------------------------------

def _pullback_leg(a: complex, saddle: complex, parent_leg, parent_depth: int):
    """Branch-continuous preimage of a parent leg, starting near ``saddle``.

    Potentials: preimages of the 0-half (even-depth) lie in the
    infinity-half at half the potential magnitude; preimages of the
    infinity-half lie in the 0-half at the same magnitude.
    """
    halve = parent_depth % 2 == 0
    roots = _inverse_roots(a, [p for _, p in parent_leg], saddle + 1.0)
    return [(sigma * 0.5 if halve else sigma, -1.0 + r)
            for (sigma, _), r in zip(parent_leg, roots)]


# ---------------------------------------------------------------------------
# Itinerary -> exact circle coordinate
# ---------------------------------------------------------------------------

def _orbit(a: complex, z: complex, pot: float, depth: int) -> list[complex]:
    """The f-orbit of a leg sample while its potential stays at most ``_S_STOP``."""
    orbit: list[complex] = []
    in_zero_half = depth % 2 == 0
    for _ in range(_MAX_BITS):
        if pot > _S_STOP:
            break
        orbit.append(z)
        if not in_zero_half:
            pot *= 2.0
        in_zero_half = not in_zero_half
        z = _f(a, z)
        if is_infinite(z):
            break
    return orbit


def _itineraries(sigma: _Sigma, orbits: list[list[complex]]) -> list[list[int]]:
    """Side bits of every orbit, each cut at its first point of margin < 1."""
    parity, margin = sigma.side_bits(
        np.array([z for orbit in orbits for z in orbit], dtype=np.complex128))
    untrusted = margin < 1.0
    out, k = [], 0
    for orbit in orbits:
        end = k + len(orbit)
        cut = np.flatnonzero(untrusted[k:end])
        stop = k + cut[0] if len(cut) else end
        out.append(parity[k:stop].tolist())
        k = end
    return out


def _interval(bits: list[int]) -> tuple[int, int]:
    """Nested m-pullback: the interval [num/2^k, (num+1)/2^k], k = len(bits),
    of t whose m-itinerary matches bits, as (num, k).

    Bit 0 stands for the model arc (0, 1/2), bit 1 for (1/2, 1).  The
    m-preimage of a non-wrapping interval (lo, hi) inside one arc is
    ((1-hi)/2, (1-lo)/2) in arc 0 together with its +1/2 translate in
    arc 1, so the refinement never wraps and selection is exact.  Over
    2^(k+1), that takes num to 2^k - 1 - num, plus 2^k in arc 1.
    """
    num, k = bits[-1], 1
    for b in reversed(bits[:-1]):
        num = ((1 + b) << k) - 1 - num
        k += 1
    return num, k


def _samples(leg) -> list[tuple[float, complex]]:
    """Two deep samples of a leg: its last point, and the last point at twice
    that potential or more."""
    deep_pot = leg[-1][0]
    samples = [leg[-1]]
    for j in range(len(leg) - 1, -1, -1):
        if leg[j][0] >= 2.0 * deep_pot:
            samples.append(leg[j])
            break
    return samples


def _leg_coordinate(itineraries: list[list[int]]) -> tuple[tuple[int, int] | None, bool, float]:
    """(interval with the most bits, unresolved, err) for one leg from its samples' itineraries."""
    estimates = [_interval(bits) for bits in itineraries if len(bits) >= _MIN_BITS]
    if not estimates:
        return None, True, 1.0
    best = max(estimates, key=lambda e: e[1])
    width = 2.0 ** (-best[1])
    if len(estimates) < 2:
        return best, True, width
    spread = circle_distance(_midpoint(estimates[0]), _midpoint(estimates[1]))
    return best, spread > 5e-3, max(width, spread)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def ray_leaf_endpoints(a: complex, depth: int, theta0: Fraction | None = None) -> list[RayLeaf]:
    """Measure the leaf coordinates of all saddles up to ``depth``.

    Requires a parameter in the exterior region, off the periodic parameter
    rays (the zero-angle ray is used to build the separation curve and the
    critical value must not lie on it).  Returns leaves in deterministic
    order: depth-major, then by the branch choices of the saddle tree.
    Pass ``theta0`` (the angle whose parameter ray the caller took ``a``
    from) to resolve the global mirror ambiguity of the parametrization.
    Raises ``NumericError`` when no leaf resolves, as at the ends of the
    1/2, 1/4 and 3/4 parameter rays.
    """
    if depth < 0:
        return []
    a = _require_param(a)
    s_par = green_value(a, -a)
    if not (0.0 < s_par < math.inf):
        raise DomainError("ray leaves require the critical value in the infinity half-basin")

    upper, lower, _ = trace_ray_through_point(
        a, -a, s_to=_S_DEEP, s_up=max(8.0, 2.0 * s_par), steps=_STEPS
    )
    s_lo = _S_DEEP * 0.5 ** math.ceil(max(0, depth - 1) / 2) / 3.0
    sigma = _build_sigma(a, upper.points, s_lo, s_par + 2.0)

    # Depth-0 legs: the two pullback branches of the lower tail (the exact
    # first point, the critical value itself, pulls back to the saddle and
    # is skipped so the two branches can be told apart).
    tail = lower.points[1:]
    roots = _inverse_roots(a, [w for _, w, _ in tail])
    leg_a = [(s, -1.0 + r) for (s, _, _), r in zip(tail, roots)]
    leg_b = [(s, -1.0 - r) for (s, _, _), r in zip(tail, roots)]

    root_entry: tuple[complex, int, list, list] = (-1.0 + 0.0j, 0, leg_a, leg_b)
    leaves_raw: list[tuple[complex, int, list, list]] = [root_entry]
    frontier = [root_entry]
    for d in range(1, depth + 1):
        nxt = []
        for saddle, pd, la, lb in frontier:
            (r,) = _inverse_roots(a, [saddle])
            for q in (-1.0 + r, -1.0 - r):
                entry = (q, d, _pullback_leg(a, q, la, pd), _pullback_leg(a, q, lb, pd))
                nxt.append(entry)
                leaves_raw.append(entry)
        frontier = nxt

    # One batched side test for the orbits of every sample of every leg.
    samples = [[(d, pot, z) for pot, z in _samples(leg)]
               for _, d, la, lb in leaves_raw for leg in (la, lb)]
    bits = iter(_itineraries(sigma, [_orbit(a, z, pot, d) for ss in samples for d, pot, z in ss]))
    coords = [_leg_coordinate([next(bits) for _ in ss]) for ss in samples]

    leaves = [RayLeaf(saddle, d, "I" if d % 2 == 0 else "O", leg1, leg2, u1 or u2, max(e1, e2))
              for (saddle, d, _, _), (leg1, u1, e1), (leg2, u2, e2)
              in zip(leaves_raw, coords[::2], coords[1::2])]
    if all(lf.unresolved for lf in leaves):
        raise NumericError("no ray leaf resolves at a=%r" % a)

    if theta0 is not None:
        _apply_mirror_calibration(leaves, Fraction(theta0))
    return leaves


def _apply_mirror_calibration(leaves: list[RayLeaf], theta0: Fraction) -> None:
    """Resolve the parametrization mirror using the depth-0 leaf.

    Only the 1-bit orientation is taken from the expected pair
    {x0, x0 + 1/2}; the intervals themselves remain measurements.
    """
    x0 = x0_digits(theta0)
    den, lo = 2 * x0.denominator, 2 * x0.numerator
    hi = (lo + x0.denominator) % den
    base = leaves[0]     # the depth-0 leaf
    if base.unresolved or base.lands_on(lo, hi, den):
        return
    if base.lands_on(-lo % den, -hi % den, den):     # its mirror image lands on {x0, x0 + 1/2}
        for lf in leaves:
            lf.leg1, lf.leg2 = _mirror(lf.leg1), _mirror(lf.leg2)
