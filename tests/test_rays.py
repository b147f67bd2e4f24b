import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_oracles as oracle
from v2lam.angles import DomainError
from v2lam.dynamics import (
    INF,
    RayLeaf,
    apply_F,
    boettcher_infty,
    critical_value_angle_error,
    green_value,
    is_infinite,
    ray_leaf_endpoints,
    rayleaves,
    trace_dynamical_ray,
    trace_parameter_ray,
    trace_ray_through_point,
)
from v2lam.dynamics.core import NumericError, _f, _inverse_roots, apply_f
from v2lam.dynamics.rayleaves import _pullback_leg, _Sigma
from v2lam.dynamics.rays import _Marcher, window_exponent
from v2lam.laminations import build_2L


def _circ(u, v):
    d = abs(u - v) % 1.0
    return min(d, 1.0 - d)


def _pair_dist(p, q):
    return min(
        max(_circ(p[0], q[0]), _circ(p[1], q[1])),
        max(_circ(p[0], q[1]), _circ(p[1], q[0])),
    )


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def test_window_exponent():
    assert window_exponent(8.0) == 0
    assert window_exponent(20.0) == 0
    assert window_exponent(7.9) == 1
    assert window_exponent(0.5) == 4
    for s in (5.0, 1.3, 0.02, 1e-4):
        n = window_exponent(s)
        assert (2.0 ** n) * s >= 8.0
        assert n == 0 or (2.0 ** (n - 1)) * s < 8.0
    with pytest.raises(DomainError):
        window_exponent(0.0)


# ---------------------------------------------------------------------------
# Dynamical rays in the infinity half
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ray0_a6():
    return trace_dynamical_ray(6.0, "inf", Fr(0), s_from=8.0, s_to=1e-3, steps=200)


def test_zero_ray_is_real_and_accurate(ray0_a6):
    pts = ray0_a6.points
    assert len(pts) == 200
    assert all(z.imag == 0.0 for _, z, _ in pts)
    assert all(res < 1e-9 for _, _, res in pts)
    ss = [s for s, _, _ in pts]
    assert all(a > b for a, b in zip(ss, ss[1:]))


def test_zero_ray_lands_on_fixed_point(ray0_a6):
    land = ray0_a6.points[-1][1]
    assert abs(apply_f(6.0, land) - land) < 0.02
    assert ray0_a6.landing_err < 1e-3


def test_half_turn_deck_symmetry(ray0_a6):
    ray_h = trace_dynamical_ray(6.0, "inf", Fr(1, 2), s_from=8.0, s_to=1e-3, steps=200)
    for (s1, z1, _), (s2, z2, _) in zip(ray0_a6.points, ray_h.points):
        assert s1 == s2
        assert abs(z2 - (-2.0 - z1)) < 1e-7


def test_zero_pullback_shares_landing(ray0_a6):
    r0 = trace_dynamical_ray(6.0, "0", Fr(0), s_from=8.0, s_to=1e-3, steps=200)
    assert not r0.crashed and r0.complete
    assert abs(r0.points[0][1]) < 1e-2            # deep tail starts near 0
    assert abs(r0.points[-1][1] - ray0_a6.points[-1][1]) < 1e-2


def test_pullback_crash_at_critical_point():
    # For real a = 6 the critical value -6 sits on the half-turn ray, so its
    # pullback terminates at the critical point -1.
    r = trace_dynamical_ray(6.0, "0", Fr(1, 2), s_from=8.0, s_to=1e-3, steps=200)
    assert r.crashed
    assert r.crash_potential == pytest.approx(green_value(6.0, -6.0), abs=1e-12)
    assert abs(r.crash_point - (-1.0)) < 1e-4
    assert r.points[-1][0] == r.crash_potential
    assert all(s >= r.crash_potential for s, _, _ in r.points)


def test_dynamical_ray_validation():
    with pytest.raises(DomainError):
        trace_dynamical_ray(6.0, "both", Fr(0))
    with pytest.raises(DomainError):
        trace_dynamical_ray(6.0, "inf", Fr(0), s_from=1.0, s_to=2.0)
    with pytest.raises(DomainError):
        trace_dynamical_ray(6.0, "inf", Fr(0), s_from=40.0, s_to=1.0)


def test_ray_csv_format(ray0_a6):
    lines = ray0_a6.to_csv().splitlines()
    assert lines[0] == "s,re,im,residual"
    assert len(lines) == 201
    s, re, im, res = lines[1].split(",")
    assert float(s) == 8.0
    assert float(im) == 0.0


# ---------------------------------------------------------------------------
# Ray through a point (no angle prescribed)
# ---------------------------------------------------------------------------

def test_through_point_reproduces_known_ray():
    upper, lower, s0 = trace_ray_through_point(6.0, -6.0, s_to=1e-3, s_up=8.0, steps=150)
    assert s0 == pytest.approx(green_value(6.0, -6.0), abs=1e-12)
    known = trace_dynamical_ray(6.0, "inf", Fr(1, 2), s_from=8.0, s_to=1e-3, steps=150)
    assert abs(lower.points[-1][1] - known.points[-1][1]) < 1e-8
    assert abs(upper.points[-1][1] - known.points[0][1]) < 1e-5 * abs(known.points[0][1])
    ss_up = [s for s, _, _ in upper.points]
    assert all(a < b for a, b in zip(ss_up, ss_up[1:]))


def test_through_point_validation():
    with pytest.raises(DomainError):
        trace_ray_through_point(1.0, -1.0)   # member parameter: no potential


# ---------------------------------------------------------------------------
# Parameter rays
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def param_ray_sixth():
    return trace_parameter_ray(Fr(1, 6), s_from=8.0, s_to=0.05, steps=150)


def test_parameter_ray_zero_angle_is_real():
    p = trace_parameter_ray(Fr(0), s_from=8.0, s_to=0.05, steps=120)
    assert p.complete
    assert all(abs(a.imag) <= 1e-10 for _, a, _ in p.points)
    assert all(a.real < 0 for _, a, _ in p.points)


def test_parameter_ray_angle_reevaluation(param_ray_sixth):
    p = param_ray_sixth
    assert p.complete and len(p.points) == 150
    for _, a, _ in p.points[::7]:
        assert critical_value_angle_error(a, Fr(1, 6)) < 1e-6


def test_parameter_ray_conjugate_pair(param_ray_sixth):
    q = trace_parameter_ray(Fr(5, 6), s_from=8.0, s_to=0.05, steps=150)
    for (s1, a1, _), (s2, a2, _) in zip(param_ray_sixth.points, q.points):
        assert s1 == s2
        assert abs(a2 - a1.conjugate()) < 1e-9 * max(1.0, abs(a1))


def test_parameter_ray_landing_fields(param_ray_sixth):
    p = param_ray_sixth
    assert p.landing == p.points[-1][1]
    assert p.landing_err is not None and p.landing_err < 1.0


# ---------------------------------------------------------------------------
# Ray leaves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def a_on_sixth_ray():
    p = trace_parameter_ray(Fr(1, 6), s_from=8.0, s_to=0.5, steps=120)
    return p.points[-1][1]


@pytest.fixture(scope="module")
def leaves_depth2(a_on_sixth_ray):
    return ray_leaf_endpoints(a_on_sixth_ray, 2, theta0=Fr(1, 6))


def test_ray_leaf_count_and_tags(leaves_depth2):
    assert len(leaves_depth2) == 7
    by_depth = {}
    for lf in leaves_depth2:
        by_depth[lf.depth] = by_depth.get(lf.depth, 0) + 1
        assert lf.side == ("I" if lf.depth % 2 == 0 else "O")
    assert by_depth == {0: 1, 1: 2, 2: 4}


def test_ray_leaf_saddles_solve_critical_equation(leaves_depth2, a_on_sixth_ray):
    a = a_on_sixth_ray
    for lf in leaves_depth2:
        z = lf.saddle
        for _ in range(lf.depth):
            z = apply_f(a, z)
        assert abs(z - (-1.0)) < 1e-6


def test_ray_leaf_depth0_is_half_turn_pair(leaves_depth2):
    lf = leaves_depth2[0]
    assert lf.depth == 0 and not lf.unresolved
    assert _circ(lf.t1, lf.t2) == pytest.approx(0.5, abs=1e-3)
    want = (11.0 / 60.0, 41.0 / 60.0)
    assert _pair_dist((lf.t1, lf.t2), want) < 1e-3


def test_ray_leaves_match_model(leaves_depth2):
    lam = build_2L(Fr(1, 6), 2)
    cands = {}
    for leaf in oracle.Lamination.of(lam):
        cands.setdefault((leaf.depth, leaf.side), []).append((float(leaf.a), float(leaf.b)))
    unresolved = 0
    matched = set()
    for lf in leaves_depth2:
        if lf.unresolved:
            unresolved += 1
            continue
        pool = cands[(lf.depth, lf.side)]
        dists = [_pair_dist((lf.t1, lf.t2), c) for c in pool]
        best = min(range(len(pool)), key=lambda i: dists[i])
        assert dists[best] < 1e-2
        matched.add((lf.depth, lf.side, best))
    assert unresolved <= 1
    assert len(matched) == len(leaves_depth2) - unresolved  # distinct model leaves


def test_ray_leaf_mirror_without_calibration(a_on_sixth_ray, leaves_depth2):
    plain = ray_leaf_endpoints(a_on_sixth_ray, 0)
    lf, ref = plain[0], leaves_depth2[0]
    direct = _pair_dist((lf.t1, lf.t2), (ref.t1, ref.t2))
    mirrored = _pair_dist(((-lf.t1) % 1.0, (-lf.t2) % 1.0), (ref.t1, ref.t2))
    assert min(direct, mirrored) < 1e-6


def test_ray_leaf_validation():
    with pytest.raises(DomainError):
        ray_leaf_endpoints(1.0, 1)     # member parameter
    assert ray_leaf_endpoints(6.0, -1) == []


# ---------------------------------------------------------------------------
# Oracle: the Fraction pullback that the integer dyadic intervals replaced
# ---------------------------------------------------------------------------

def _interval_oracle(bits):
    """Nested m-pullback in Fraction arithmetic: the interval (lo, hi) of t
    whose m-itinerary matches bits."""
    half = Fr(1, 2)
    lo, hi = (Fr(0), half) if bits[-1] == 0 else (half, Fr(1))
    for b in reversed(bits[:-1]):
        lo, hi = (1 - hi) / 2, (1 - lo) / 2
        if b == 1:
            lo, hi = lo + half, hi + half
    return lo, hi


def _as_fractions(leg):
    num, bits = leg
    return Fr(num, 1 << bits), Fr(num + 1, 1 << bits)


@settings(max_examples=400)
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=rayleaves._MAX_BITS))
def test_integer_intervals_match_the_fraction_pullback(bits):
    lo, hi = _interval_oracle(bits)
    leg = rayleaves._interval(bits)
    assert leg[1] == len(bits) and _as_fractions(leg) == (lo, hi)
    mirrored = rayleaves._mirror(leg)
    assert _as_fractions(mirrored) == (1 - hi, 1 - lo)
    lf = RayLeaf(-1 + 0j, 0, "I", leg, mirrored, False, 0.0)
    assert lf.t1 == float((lo + hi) / 2)
    assert lf.t2 == (-lf.t1) % 1.0


def _leg_at(x, bits=20):
    """The dyadic interval of ``bits`` bits that contains the angle x."""
    return (x.numerator << bits) // x.denominator, bits


def test_lands_on_is_exact_containment_in_either_order():
    lo, hi, den = 11, 41, 60
    lf = RayLeaf(-1 + 0j, 0, "I", _leg_at(Fr(lo, den)), _leg_at(Fr(hi, den)), False, 0.0)
    assert lf.lands_on(lo, hi, den) and lf.lands_on(hi, lo, den)
    assert lf.lands_on(2 * lo, 2 * hi, 2 * den)
    assert not lf.lands_on(lo, hi + 1, den) and not lf.lands_on(lo, lo, den)
    # one step of 2^-bits off the endpoint, or no interval at all
    num, bits = lf.leg1
    for leg1 in ((num + 1, bits), (num - 1, bits), None):
        assert not replace(lf, leg1=leg1).lands_on(lo, hi, den)
    # the circle closes: 0 is also 1, at both ends of an interval
    for leg1 in ((0, 3), (7, 3)):
        assert RayLeaf(0j, 1, "O", leg1, (3, 3), False, 0.0).lands_on(0, 1, 2)


def test_mirror_calibration_flips_mirrored_leaves_back_exactly():
    # the depth-0 leaf of 2L(1/6) is {x0, x0 + 1/2} = {11/60, 41/60}
    direct = [RayLeaf(-1 + 0j, 0, "I", _leg_at(Fr(41, 60)), _leg_at(Fr(11, 60)), False, 1e-6),
              RayLeaf(0.5 + 0j, 1, "O", _leg_at(Fr(1, 7)), None, True, 1.0)]
    mirrored = [replace(lf, leg1=rayleaves._mirror(lf.leg1), leg2=rayleaves._mirror(lf.leg2))
                for lf in direct]
    assert mirrored != direct
    for leaves in (direct, mirrored):
        got = [replace(lf) for lf in leaves]
        rayleaves._apply_mirror_calibration(got, Fr(1, 6))
        assert got == direct
    # a depth-0 leaf that lands in neither orientation, or is unresolved,
    # leaves the orientation as measured
    astray = [replace(direct[0], leg2=_leg_at(Fr(1, 3)))] + direct[1:]
    unresolved = [replace(mirrored[0], unresolved=True)] + mirrored[1:]
    for leaves in (astray, unresolved):
        got = [replace(lf) for lf in leaves]
        rayleaves._apply_mirror_calibration(got, Fr(1, 6))
        assert got == leaves


# ---------------------------------------------------------------------------
# Oracle: the full-scan side test that the indexed, batched one replaced
# ---------------------------------------------------------------------------

def _side_bit_oracle(sigma, p):
    """(crossing parity, margin) of one point, scanning every segment of sigma
    with the expressions that ``_Sigma.side_bits`` runs on its candidates."""
    px, py = p.real, p.imag
    qx, qy = sigma.ref.real, sigma.ref.imag
    dx, dy = qx - px, qy - py
    d1 = dx * (sigma.y1 - py) - dy * (sigma.x1 - px)
    d2 = dx * (sigma.y2 - py) - dy * (sigma.x2 - px)
    d3 = sigma.ex * (py - sigma.y1) - sigma.ey * (px - sigma.x1)
    d4 = sigma.ex * (qy - sigma.y1) - sigma.ey * (qx - sigma.x1)
    crossing = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
    parity = int(np.count_nonzero(crossing)) & 1
    t = ((px - sigma.x1) * sigma.ex + (py - sigma.y1) * sigma.ey)
    denom = sigma.ex * sigma.ex + sigma.ey * sigma.ey
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(np.where(denom > 0, t / denom, 0.0), 0.0, 1.0)
    cx = sigma.x1 + t * sigma.ex - px
    cy = sigma.y1 + t * sigma.ey - py
    dist = np.hypot(cx, cy)
    i = int(np.argmin(dist))
    margin = float(dist[i]) / (0.05 * float(sigma.seg_len[i]) + 1e-12)
    return parity, margin


def _itineraries_oracle(sigma, orbits):
    """Side bits point by point, each orbit stopped at its first margin < 1."""
    out = []
    for orbit in orbits:
        bits = []
        for z in orbit:
            parity, margin = _side_bit_oracle(sigma, z)
            if margin < 1.0:
                break
            bits.append(parity)
        out.append(bits)
    return out


def _batched(sigma, points):
    parity, margin = sigma.side_bits(np.array(points, dtype=np.complex128))
    return [(int(b), float(m)) for b, m in zip(parity, margin)]


@pytest.fixture(scope="module")
def sixth_sigma(a_on_sixth_ray):
    """The separation curve at the end of the 1/6 ray, and the orbit points
    that depth 3 tests against it."""
    calls = []
    side_bits = _Sigma.side_bits

    def recording(sigma, points):
        calls.append((sigma, points))
        return side_bits(sigma, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Sigma, "side_bits", recording)
        ray_leaf_endpoints(a_on_sixth_ray, 3, theta0=Fr(1, 6))
    ((sigma, points),) = calls
    return sigma, list(points)


def test_side_bits_match_the_full_scan_on_orbit_points(sixth_sigma):
    sigma, points = sixth_sigma
    assert len(points) == 1156
    assert _batched(sigma, points) == [_side_bit_oracle(sigma, z) for z in points]


@pytest.mark.parametrize("ends", [(1.0, -1.0), (-1.0, 1.0)], ids=["leftward", "rightward"])
def test_side_bits_match_the_full_scan_next_to_ref(ends):
    # the first segment passes 1e-17 from ref: seen from ref, it turns by pi
    # up to rounding
    a, b = ends
    sigma = _Sigma([complex(a, 1e-17), complex(b, 1e-17), complex(b, 5.0)], 0j)
    points = [complex(x, y) for x in (-2.0, -0.5, 0.0, 0.5, 2.0)
              for y in (-1.0, -1e-17, 0.0, 1e-17, 2e-17, 1.0, 6.0)]
    got = _batched(sigma, points)
    assert got == [_side_bit_oracle(sigma, z) for z in points]
    assert sum(parity for parity, _ in got) > 0


def _vertex_index(sigma):
    # any vertex, or one that two blocks share
    shared = st.integers(1, (len(sigma.x1) - 1) // _Sigma._BLOCK).map(lambda b: b * _Sigma._BLOCK)
    return st.integers(0, len(sigma.x1) - 1) | shared


def _near_vertex(sigma):
    def build(k, ox, oy):
        x, y = float(sigma.x1[k]), float(sigma.y1[k])
        return complex(ox(x), oy(y))
    offsets = st.sampled_from([
        lambda v: v,
        lambda v: math.nextafter(v, math.inf),
        lambda v: math.nextafter(v, -math.inf),
    ]) | st.builds(lambda e, sign: lambda v: v + sign * 10.0 ** e,
                   st.integers(-15, -3), st.sampled_from([1.0, -1.0]))
    return st.builds(build, _vertex_index(sigma), offsets, offsets)


def _on_segment(sigma):
    def build(k, u):
        return complex(sigma.x1[k] + u * sigma.ex[k], sigma.y1[k] + u * sigma.ey[k])
    return st.builds(build, st.integers(0, len(sigma.x1) - 1), st.floats(0.0, 1.0))


def _behind_vertex(sigma):
    # on the line from ref through a vertex
    def build(k, lam):
        return sigma.ref + lam * (complex(sigma.x1[k], sigma.y1[k]) - sigma.ref)
    return st.builds(build, _vertex_index(sigma), st.floats(1.0, 4.0))


def _far(sigma):
    return st.builds(lambda r, t: sigma.ref + r * cmath.exp(2j * math.pi * t),
                     st.floats(10.0, 1e4), st.floats(0.0, 1.0))


@pytest.fixture(scope="module")
def side_test_points(sixth_sigma):
    sigma, orbit = sixth_sigma
    drawn = st.lists(_near_vertex(sigma) | _on_segment(sigma) | _behind_vertex(sigma)
                     | _far(sigma) | st.just(sigma.ref) | st.sampled_from(orbit),
                     min_size=1, max_size=24)
    chunk = _Sigma._CHUNK
    sizes = st.sampled_from([1, chunk - 1, chunk, chunk + 1, 255, 256, 257])
    # drawn points first, then orbit points up to a size at a chunk boundary
    return st.builds(lambda pts, n: (pts + orbit)[:n], drawn, sizes)


def test_side_bits_match_the_full_scan(sixth_sigma, side_test_points):
    sigma, _ = sixth_sigma

    @settings(max_examples=40)
    @given(points=side_test_points)
    def check(points):
        assert _batched(sigma, points) == [_side_bit_oracle(sigma, z) for z in points]

    check()


@pytest.mark.parametrize("theta0, depth", [(Fr(1, 6), d) for d in range(6)] + [(Fr(5, 12), 5)],
                         ids=lambda v: str(v))
def test_ray_leaves_match_the_full_scan_run(monkeypatch, theta0, depth):
    a = trace_parameter_ray(theta0, s_from=8.0, s_to=0.5, steps=120).points[-1][1]
    got = ray_leaf_endpoints(a, depth, theta0=theta0)
    monkeypatch.setattr(rayleaves, "_itineraries", _itineraries_oracle)
    want = ray_leaf_endpoints(a, depth, theta0=theta0)
    assert repr(got) == repr(want)
    assert sum(lf.unresolved for lf in got) < len(got)


@pytest.mark.parametrize("theta0", [Fr(1, 2), Fr(1, 4), Fr(3, 4)], ids=str)
def test_ray_leaves_refuse_a_parameter_where_no_leaf_resolves(theta0):
    a = trace_parameter_ray(theta0, s_from=8.0, s_to=0.5, steps=120).points[-1][1]
    with pytest.raises(NumericError, match="no ray leaf resolves"):
        ray_leaf_endpoints(a, 1, theta0=theta0)


def test_parameter_ray_truncates_on_newton_failure(monkeypatch):
    from v2lam.dynamics.rays import _geometric_grid

    newton = _Marcher.newton

    def failing_below_one(self, x, n, A, s):
        if s < 1.0:
            raise NumericError("forced failure at potential %.6g" % s)
        return newton(self, x, n, A, s)

    full = trace_parameter_ray(Fr(1, 6), s_from=8.0, s_to=0.05, steps=40)
    monkeypatch.setattr(_Marcher, "newton", failing_below_one)
    p = trace_parameter_ray(Fr(1, 6), s_from=8.0, s_to=0.05, steps=40)
    grid = _geometric_grid(8.0, 0.05, 40)
    kept = [s for s in grid if s >= 1.0]
    assert not p.complete
    assert [s for s, _, _ in p.points] == kept
    assert p.points == full.points[:len(kept)]
    first_below = grid[len(kept)]
    assert first_below < 1.0
    assert p.note == "parameter-ray Newton stalled at potential %.6g" % first_below
    assert p.landing == p.points[-1][1]


def test_parameter_ray_failures_before_the_first_grid_point_raise(monkeypatch):
    newton = _Marcher.newton

    def failing_below(s_min):
        def solve(self, x, n, A, s):
            if s < s_min:
                raise NumericError("forced failure at potential %.6g" % s)
            return newton(self, x, n, A, s)
        return solve

    # the first solve, at potential 8, succeeds; the walk down to s_from = 4 fails
    monkeypatch.setattr(_Marcher, "newton", failing_below(8.0))
    with pytest.raises(NumericError, match="^parameter-ray Newton stalled at potential 4$"):
        trace_parameter_ray(Fr(1, 6), s_from=4.0, s_to=0.05, steps=40)
    # the first solve fails: its own error, not the stall note
    monkeypatch.setattr(_Marcher, "newton", failing_below(9.0))
    with pytest.raises(NumericError, match="^forced failure at potential 8$"):
        trace_parameter_ray(Fr(1, 6), s_from=4.0, s_to=0.05, steps=40)


# ---------------------------------------------------------------------------
# The unchecked step and the validating edge
# ---------------------------------------------------------------------------

NAN = complex(math.nan, 0.0)
EDGE_POINTS = [INF, NAN, complex(0.0, math.inf), 0j, -0.0j, -2 + 0j, 1e151 + 0j,
               -1e200j, complex(1e150, 1e150), 1e150 + 0j, 1e-300 + 0j, -1 + 0j,
               complex(1.2711610061536462e308, 1.2711610061536464e308),
               # every non-finite kind: _f's ordinary-case guard is False for all
               complex(math.inf, math.nan), complex(math.nan, math.inf),
               complex(math.nan, 0.0), complex(-math.inf, -math.inf),
               # on the _HUGE boundary, where the guard admits |z| == 1e150
               complex(1e150, 1e-300),
               # signed zeros at the two poles
               complex(-2.0, -0.0), complex(-0.0, 0.0)]
params = st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                            allow_nan=False, allow_infinity=False)


def _apply_f_oracle(a, z):
    """f_a(z) = a/(z^2 + 2z) on the sphere, spelled out: infinity maps to 0,
    the poles to INF, and beyond |z| = 1e150, where z^2 + 2z may overflow,
    a is divided by z and by z + 2 in turn."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return 0j
    if abs(z.real) > 1e150 or abs(z.imag) > 1e150 or abs(z) > 1e150:
        return a / z / (z + 2.0)
    den = z * (z + 2.0)
    if den == 0:
        return INF
    return a / den


@settings(max_examples=300)
@given(a=params, z=st.one_of(st.sampled_from(EDGE_POINTS), st.complex_numbers()))
def test_unchecked_step_equals_apply_f(a, z):
    assert repr(_f(a, z)) == repr(apply_f(a, z)) == repr(_apply_f_oracle(a, z))


def test_unchecked_step_beyond_the_overflow_radius():
    # a/(z^2 + 2z) is far from negligible for huge a, and 0 only on underflow
    for a, z in ((1e300, 3.5e302 + 0j), (1e300j, 1e200 - 1e200j), (1e300, 1e160 + 1e160j)):
        w = _f(a, z)
        assert w != 0 and math.isfinite(w.real) and math.isfinite(w.imag)
        assert abs(w * z * z / a - 1.0) < 1e-12
    assert _f(1e-300, 1e200 + 0j) == 0
    assert _f(1.0, complex(1.2711610061536462e308, 1.2711610061536464e308)) == 0


def test_unchecked_step_at_edge_points():
    for a in (1.0, 3 + 1j, -0.37 - 2.97j, 1e-300, 1e300j):
        for z in EDGE_POINTS:
            assert repr(_f(a, z)) == repr(apply_f(a, z)) == repr(_apply_f_oracle(a, z))
    assert repr(_f(a, _f(a, z))) == repr(apply_F(a, z))


finite_or_not = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300)
@given(x=finite_or_not, y=finite_or_not)
def test_is_infinite_equals_the_two_part_test(x, y):
    z = complex(x, y)
    assert is_infinite(z) == (not (math.isfinite(z.real) and math.isfinite(z.imag)))


@pytest.mark.parametrize("a, message", [
    (0, "nonzero"), (0j, "nonzero"), (INF, "finite"), (NAN, "finite"),
    (complex(1.0, -math.inf), "finite"),
])
def test_invalid_parameter_raises_domain_error_at_every_edge(a, message):
    calls = [
        lambda: apply_f(a, 1.0),
        lambda: apply_F(a, 1.0),
        lambda: green_value(a, 3.0),
        lambda: boettcher_infty(a, 3.0),
        lambda: trace_dynamical_ray(a, "inf", Fr(1, 3), steps=5),
        lambda: trace_dynamical_ray(a, "0", Fr(1, 3), steps=5),
        lambda: trace_ray_through_point(a, 3.0),
        lambda: critical_value_angle_error(a, Fr(1, 6)),
        lambda: ray_leaf_endpoints(a, 1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="parameter a must be " + message):
            call()


# ---------------------------------------------------------------------------
# Oracles: the per-site branch-tracking loops that core._inverse_roots replaced
# ---------------------------------------------------------------------------

def _sqrt_track(prev, disc):
    root = cmath.sqrt(disc)
    if prev is not None and abs(-root - prev) < abs(root - prev):
        root = -root
    return root


def _tracked_roots_oracle(a, ws, prev):
    out = []
    for w in ws:
        prev = _sqrt_track(prev, 1.0 + a / w)
        out.append(prev)
    return out


def _pullback_leg_oracle(a, saddle, parent_leg, parent_depth):
    halve = parent_depth % 2 == 0
    out = []
    prev = None
    for sigma, p in parent_leg:
        disc = 1.0 + a / p
        r1 = cmath.sqrt(disc)
        c1, c2 = -1.0 + r1, -1.0 - r1
        if prev is None:
            z = c1 if abs(c1 - saddle) <= abs(c2 - saddle) else c2
        else:
            z = c1 if abs(c1 - prev) <= abs(c2 - prev) else c2
        out.append((sigma * 0.5 if halve else sigma, z))
        prev = z
    return out


def _base0_oracle(a, inf_pts, crash_potential):
    pts = []
    prev = None
    for s, w, res in inf_pts:
        if crash_potential is not None and s <= crash_potential:
            break
        disc = 1.0 + a / w
        root = cmath.sqrt(disc)
        if prev is None:
            z = -1.0 + root
        else:
            z = -1.0 + root if abs(prev + 1.0 - root) <= abs(prev + 1.0 + root) else -1.0 - root
        pts.append((s, z, res))
        prev = z
    return pts


ORACLE_PARAMS = [6.0, -0.37 - 2.97j, -4.0 + 2.0j, 2.0 - 5.0j, "sixth"]


@pytest.fixture(scope="module", params=ORACLE_PARAMS, ids=str)
def oracle_param(request, a_on_sixth_ray):
    return a_on_sixth_ray if request.param == "sixth" else complex(request.param)


def test_base0_branch_matches_oracle(oracle_param):
    a = oracle_param
    crashes = 0
    for theta in (Fr(0), Fr(1, 6), Fr(1, 3), Fr(1, 2), Fr(5, 7)):
        inf_ray = trace_dynamical_ray(a, "inf", theta, steps=80)
        ray = trace_dynamical_ray(a, "0", theta, steps=80)
        want = _base0_oracle(a, inf_ray.points, ray.crash_potential)
        got = ray.points[:-1] if ray.crashed else ray.points
        assert repr(got) == repr(want)
        crashes += ray.crashed
    if a == 6.0:
        assert crashes == 1   # the half-turn ray passes through -6


def test_inverse_roots_and_pullback_legs_match_oracles(oracle_param):
    a = oracle_param
    upper, lower, _ = trace_ray_through_point(a, -a, s_to=1e-4, steps=80)
    for pts in (upper.points[1:], lower.points[1:]):
        ws = [w for _, w, _ in pts]
        for prev in (None, 1.0, 1j):
            assert repr(_inverse_roots(a, ws, prev)) == repr(_tracked_roots_oracle(a, ws, prev))
    roots = _tracked_roots_oracle(a, [w for _, w, _ in lower.points[1:]], None)
    legs = [[(s, -1.0 + sign * r) for (s, _, _), r in zip(lower.points[1:], roots)]
            for sign in (1, -1)]
    frontier = [(-1.0 + 0j, 0, legs)]
    for d in (1, 2):
        nxt = []
        for saddle, pd, parent_legs in frontier:
            r = cmath.sqrt(1.0 + a / saddle)
            for q in (-1.0 + r, -1.0 - r):
                new = [_pullback_leg(a, q, leg, pd) for leg in parent_legs]
                assert repr(new) == repr([_pullback_leg_oracle(a, q, leg, pd)
                                          for leg in parent_legs])
                nxt.append((q, d, new))
        frontier = nxt


# ---------------------------------------------------------------------------
# Oracle: the Newton solve that evaluated phi twice at every accepted point
# ---------------------------------------------------------------------------

def _newton_oracle(self, x, n, A, s):
    """``_Marcher.newton`` as it was: phi(x) evaluated afresh each iteration."""
    target = cmath.exp(complex((2.0 ** n) * s, A))
    mag_t = abs(target)
    for _ in range(40):
        try:
            val = self.phi(x, n) - target
        except NumericError:
            break
        rel = abs(val) / mag_t
        if rel < 1e-9:
            return x, rel
        h = complex(1e-7 * max(1.0, abs(x)), 0.0)
        try:
            der = (self.phi(x + h, n) - (val + target)) / h
        except NumericError:
            break
        if der == 0 or cmath.isnan(der):
            break
        step = val / der
        lam = 1.0
        moved = False
        for _ in range(6):
            cand = x - lam * step
            try:
                cand_rel = abs(self.phi(cand, n) - target) / mag_t
            except NumericError:
                lam *= 0.5
                continue
            if cand_rel < rel or lam < 0.2:
                x = cand
                moved = True
                break
            lam *= 0.5
        if not moved:
            break
    raise NumericError(f"ray Newton failed to converge at potential {s:.6g}")


# The parameter-ray angles of the benchmark's numerics workload at seed 1.
BENCH_RAY_ANGLES = ("0", "11/12", "7/18", "5/24", "1/10", "1/12", "7/20", "1/3", "17/40",
                    "5/12", "1/4", "5/18", "7/10")


def _outcome(call):
    try:
        return repr(call())
    except (NumericError, DomainError) as exc:
        return "raised " + repr(exc)


def _newton_cases():
    rng = random.Random(14)
    cases = [lambda t=Fr(t): trace_parameter_ray(t, s_from=8.0, s_to=0.05, steps=200)
             for t in BENCH_RAY_ANGLES]
    for base in ("inf", "0"):
        for _ in range(3):
            a = round(rng.uniform(4.0, 8.0), 3)
            t = Fr(rng.randrange(1, 12), 12)
            cases.append(lambda a=a, t=t, base=base: trace_dynamical_ray(a, base, t, steps=120))
    # the half-turn pullback at a = 6 crashes into the critical point -1
    cases.append(lambda: trace_dynamical_ray(6.0, "0", Fr(1, 2), steps=120))
    # single solves from seeded starting points: most fail to converge
    for dynamical in (True, False):
        for _ in range(12):
            a, t = round(rng.uniform(4.0, 8.0), 3), Fr(rng.randrange(12), 12)
            s = 10.0 ** rng.uniform(-3.0, 0.5)
            x = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
            n = window_exponent(s)
            cases.append(lambda m=_Marcher(a if dynamical else None, t), x=x, n=n, s=s:
                         m.newton(x, n, m.anchor(x, n), s))
    cases.append(lambda: trace_ray_through_point(6.0, -6.0, s_to=1e-3, steps=120))
    cases.append(lambda: trace_ray_through_point(-0.37 - 2.97j, 2.0 + 1.0j, steps=120))
    return cases


def test_one_evaluation_newton_matches_the_oracle(monkeypatch, a_on_sixth_ray):
    cases = _newton_cases()
    cases.append(lambda: ray_leaf_endpoints(a_on_sixth_ray, 2, theta0=Fr(1, 6)))
    got = [_outcome(call) for call in cases]
    monkeypatch.setattr(_Marcher, "newton", _newton_oracle)
    want = [_outcome(call) for call in cases]
    assert got == want
    assert sum(case.startswith("raised NumericError") for case in got) >= 6
    assert any("crashed=True" in case for case in got)


def _phi_calls(monkeypatch):
    calls = [0]
    phi = _Marcher.phi

    def counting(self, x, n):
        calls[0] += 1
        return phi(self, x, n)

    monkeypatch.setattr(_Marcher, "phi", counting)
    trace_parameter_ray(Fr(1, 6), s_from=8.0, s_to=0.5, steps=120)
    monkeypatch.setattr(_Marcher, "phi", phi)
    return calls[0]


def test_one_evaluation_newton_saves_a_quarter_of_the_phi_calls(monkeypatch):
    new = _phi_calls(monkeypatch)
    monkeypatch.setattr(_Marcher, "newton", _newton_oracle)
    old = _phi_calls(monkeypatch)
    assert new <= 0.75 * old
