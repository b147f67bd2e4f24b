import cmath
import math
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2lam.angles import DomainError
from v2lam.dynamics import (
    INF,
    apply_F,
    boettcher_infty,
    critical_value_angle_error,
    green_value,
    ray_leaf_endpoints,
    trace_dynamical_ray,
    trace_parameter_ray,
    trace_ray_through_point,
)
from v2lam.dynamics.core import _f, _inverse_roots, apply_f
from v2lam.dynamics.rayleaves import _pullback_leg
from v2lam.dynamics.rays import window_exponent
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
    for leaf in lam.leaves:
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


def test_parameter_ray_truncates_on_newton_failure(monkeypatch):
    from v2lam.dynamics.core import NumericError
    from v2lam.dynamics.rays import _geometric_grid, _Marcher

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


# ---------------------------------------------------------------------------
# The unchecked step and the validating edge
# ---------------------------------------------------------------------------

NAN = complex(math.nan, 0.0)
EDGE_POINTS = [INF, NAN, complex(0.0, math.inf), 0j, -0.0j, -2 + 0j, 1e151 + 0j,
               -1e200j, complex(1e150, 1e150), 1e150 + 0j, 1e-300 + 0j, -1 + 0j]
params = st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300,
                            allow_nan=False, allow_infinity=False)


def _apply_f_oracle(a, z):
    """The body apply_f had before the unchecked step was split out."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return 0j
    if abs(z) > 1e150:
        return 0j
    den = z * (z + 2.0)
    if den == 0:
        return INF
    return a / den


@settings(max_examples=300, deadline=None)
@given(a=params, z=st.one_of(st.sampled_from(EDGE_POINTS), st.complex_numbers()))
def test_unchecked_step_equals_apply_f(a, z):
    assert repr(_f(a, z)) == repr(apply_f(a, z)) == repr(_apply_f_oracle(a, z))


def test_unchecked_step_at_edge_points():
    for a in (1.0, 3 + 1j, -0.37 - 2.97j, 1e-300, 1e300j):
        for z in EDGE_POINTS:
            assert repr(_f(a, z)) == repr(apply_f(a, z)) == repr(_apply_f_oracle(a, z))
    assert repr(_f(a, _f(a, z))) == repr(apply_F(a, z))


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
