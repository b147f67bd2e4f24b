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
3. for each leg take a deep sample point, record the itinerary of sides of
   its f-orbit while the orbit potential stays small (side bits are
   crossing parities against Sigma, dropped when the margin to the
   polyline is too small to trust);
4. convert the itinerary to an exact dyadic interval by nested pullback
   under m with Fraction arithmetic; the midpoint is the coordinate.

Two deep samples per leg give independent estimates; a leaf is
``unresolved`` when either estimate has too few trusted bits or the two
disagree beyond 5e-3.

Orientation: h and t -> -t give equally valid parametrizations (both
conjugate m to f|J and fix omega), so the measured coordinates carry a
global mirror ambiguity.  Passing the defining angle ``theta0`` resolves
it: the depth-0 leaf is compared against {x0, x0 + 1/2} for the
corresponding interleaved angle x0 and the mirror with the smaller
deviation is chosen.  Without ``theta0`` a fixed convention (side of the
zero-angle ray) is used and the result may be the mirror image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..angles import HALF, DomainError, circle_distance, x0_digits
from .core import _f, _inverse_roots, _require_param, green_value
from .rays import trace_dynamical_ray, trace_ray_through_point

__all__ = ["RayLeaf", "ray_leaf_endpoints"]


@dataclass
class RayLeaf:
    """One measured leaf: a saddle with the h-coordinates of its leg landings."""

    saddle: complex
    depth: int
    side: str            # "I" for even depth (0-half), "O" for odd (infinity-half)
    t1: float
    t2: float
    unresolved: bool
    err: float


# ---------------------------------------------------------------------------
# Separation curve
# ---------------------------------------------------------------------------

class _Sigma:
    """Polyline through far / omega / 0 / -1 / -2 / omega' / far, with side tests."""

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

    def side_bit(self, p: complex) -> tuple[int, float]:
        """(crossing parity of [p, ref] against the polyline, margin of p).

        The margin is the distance from p to the polyline relative to the
        local segment length; bits with small margin are untrustworthy
        (the polyline is a chordal approximation of the true curve).
        """
        px, py = p.real, p.imag
        qx, qy = self.ref.real, self.ref.imag
        dx, dy = qx - px, qy - py
        # Proper-crossing test: endpoints of each polyline segment strictly
        # on opposite sides of [p, q], and vice versa.
        d1 = dx * (self.y1 - py) - dy * (self.x1 - px)
        d2 = dx * (self.y2 - py) - dy * (self.x2 - px)
        d3 = self.ex * (py - self.y1) - self.ey * (px - self.x1)
        d4 = self.ex * (qy - self.y1) - self.ey * (qx - self.x1)
        crossing = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
        parity = int(np.count_nonzero(crossing)) & 1
        # Distance from p to each segment.
        t = ((px - self.x1) * self.ex + (py - self.y1) * self.ey)
        denom = self.ex * self.ex + self.ey * self.ey
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.clip(np.where(denom > 0, t / denom, 0.0), 0.0, 1.0)
        cx = self.x1 + t * self.ex - px
        cy = self.y1 + t * self.ey - py
        dist = np.hypot(cx, cy)
        i = int(np.argmin(dist))
        margin = float(dist[i]) / (0.05 * float(self.seg_len[i]) + 1e-12)
        return parity, margin


def _build_sigma(a: complex, upper_pts, s_lo: float, s_anchor: float,
                 sigma_steps: int) -> _Sigma:
    ray0 = trace_dynamical_ray(a, "inf", Fraction(0), s_from=max(8.0, s_anchor + 4.0),
                               s_to=s_lo, steps=sigma_steps)
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

def _itinerary_bits(sigma: _Sigma, a: complex, z: complex, pot: float,
                    depth: int, s_stop: float, max_bits: int = 40) -> list[int]:
    bits: list[int] = []
    in_zero_half = depth % 2 == 0
    for _ in range(max_bits):
        if pot > s_stop:
            break
        parity, margin = sigma.side_bit(z)
        if margin < 1.0:
            break
        bits.append(parity)
        if not in_zero_half:
            pot *= 2.0
        in_zero_half = not in_zero_half
        z = _f(a, z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            break
    return bits


def _interval_from_bits(bits: list[int]) -> tuple[Fraction, Fraction]:
    """Nested m-pullback: the interval of t whose m-itinerary matches bits.

    Bit 0 stands for the model arc (0, 1/2), bit 1 for (1/2, 1).  The
    m-preimage of a non-wrapping interval (lo, hi) inside one arc is
    ((1-hi)/2, (1-lo)/2) in arc 0 together with its +1/2 translate in
    arc 1, so the refinement never wraps and selection is exact.
    """
    lo, hi = (Fraction(0), HALF) if bits[-1] == 0 else (HALF, Fraction(1))
    for b in reversed(bits[:-1]):
        lo, hi = (1 - hi) / 2, (1 - lo) / 2
        if b == 1:
            lo, hi = lo + HALF, hi + HALF
    return lo, hi


def _leg_coordinate(sigma: _Sigma, a: complex, leg, depth: int, s_stop: float,
                    min_bits: int = 8) -> tuple[float, bool, float]:
    """(coordinate, unresolved, err) for one leg from two deep samples."""
    deep_pot = leg[-1][0]
    estimates: list[tuple[float, int]] = []
    targets = [len(leg) - 1]
    for j in range(len(leg) - 1, -1, -1):
        if leg[j][0] >= 2.0 * deep_pot:
            targets.append(j)
            break
    for j in targets:
        pot, z = leg[j]
        bits = _itinerary_bits(sigma, a, z, pot, depth, s_stop)
        if len(bits) >= min_bits:
            lo, hi = _interval_from_bits(bits)
            estimates.append((float((lo + hi) / 2), len(bits)))
    if not estimates:
        return 0.0, True, 1.0
    t_best = max(estimates, key=lambda e: e[1])
    width = 2.0 ** (-t_best[1])
    if len(estimates) < 2:
        return t_best[0], True, width
    spread = circle_distance(estimates[0][0], estimates[1][0])
    unresolved = spread > 5e-3
    return t_best[0], unresolved, max(width, spread)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def ray_leaf_endpoints(
    a: complex,
    depth: int,
    theta0: Fraction | None = None,
    *,
    steps: int = 240,
    s_deep: float = 1e-4,
    s_stop: float = 0.05,
    sigma_steps: int = 460,
) -> list[RayLeaf]:
    """Measure the leaf coordinates of all saddles up to ``depth``.

    Requires a parameter in the exterior region, off the periodic parameter
    rays (the zero-angle ray is used to build the separation curve and the
    critical value must not lie on it).  Returns leaves in deterministic
    order: depth-major, then by the branch choices of the saddle tree.
    Pass ``theta0`` (the angle whose parameter ray the caller took ``a``
    from) to resolve the global mirror ambiguity of the parametrization.
    """
    if depth < 0:
        return []
    a = _require_param(a)
    s_par = green_value(a, -a)
    if not (0.0 < s_par < math.inf):
        raise DomainError("ray leaves require the critical value in the infinity half-basin")

    upper, lower, _ = trace_ray_through_point(
        a, -a, s_to=s_deep, s_up=max(8.0, 2.0 * s_par), steps=steps
    )
    s_lo = s_deep * 0.5 ** math.ceil(max(0, depth - 1) / 2) / 3.0
    sigma = _build_sigma(a, upper.points, s_lo, s_par + 2.0, sigma_steps)

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
                entry = (
                    q,
                    d,
                    _pullback_leg(a, q, la, pd),
                    _pullback_leg(a, q, lb, pd),
                )
                nxt.append(entry)
                leaves_raw.append(entry)
        frontier = nxt

    leaves: list[RayLeaf] = []
    for saddle, d, la, lb in leaves_raw:
        t1, u1, e1 = _leg_coordinate(sigma, a, la, d, s_stop)
        t2, u2, e2 = _leg_coordinate(sigma, a, lb, d, s_stop)
        leaves.append(
            RayLeaf(
                saddle=saddle,
                depth=d,
                side="I" if d % 2 == 0 else "O",
                t1=t1,
                t2=t2,
                unresolved=u1 or u2,
                err=max(e1, e2),
            )
        )

    if theta0 is not None:
        _apply_mirror_calibration(leaves, Fraction(theta0))
    return leaves


def _apply_mirror_calibration(leaves: list[RayLeaf], theta0: Fraction) -> None:
    """Resolve the parametrization mirror using the depth-0 leaf.

    Only the 1-bit orientation is taken from the expected pair
    {x0, x0 + 1/2}; the coordinate values themselves remain measurements.
    """
    x0 = float(x0_digits(theta0))
    base = next((lf for lf in leaves if lf.depth == 0), None)
    if base is None or base.unresolved:
        return
    direct = _pair_dist((base.t1, base.t2), (x0, (x0 + 0.5) % 1.0))
    mirrored = _pair_dist(((-base.t1) % 1.0, (-base.t2) % 1.0), (x0, (x0 + 0.5) % 1.0))
    if mirrored < direct:
        for lf in leaves:
            lf.t1 = (-lf.t1) % 1.0
            lf.t2 = (-lf.t2) % 1.0


def _pair_dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    d1 = max(circle_distance(p[0], q[0]), circle_distance(p[1], q[1]))
    d2 = max(circle_distance(p[0], q[1]), circle_distance(p[1], q[0]))
    return min(d1, d2)
