import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2lam.angles import DomainError
from v2lam.dynamics import (
    INF,
    NumericError,
    apply_F,
    apply_f,
    attracted_to_supercycle,
    blaschke_critical_points,
    blaschke_eval,
    boettcher_infty,
    fixed_points,
    green_value,
    is_infinite,
    julia_agreement,
    julia_raster,
    m2_raster,
    multiplier,
    trap_radii,
)


# ---------------------------------------------------------------------------
# Sphere-total evaluation
# ---------------------------------------------------------------------------

def test_apply_f_examples():
    assert apply_f(1.0, -1.0) == -1.0          # fixed point of f_1
    assert apply_f(3.0, INF) == 0.0            # infinity -> 0
    assert is_infinite(apply_f(3.0, 0.0))      # pole at 0
    assert is_infinite(apply_f(3.0, -2.0))     # pole at -2
    assert apply_F(3.0, 0.0) == 0.0            # F fixes 0 through the cycle
    z = 0.3 + 0.2j
    assert apply_F(2.0 - 1j, z) == apply_f(2.0 - 1j, apply_f(2.0 - 1j, z))


def test_parameter_validation():
    with pytest.raises(DomainError):
        apply_f(0.0, 1.0)
    with pytest.raises(DomainError):
        fixed_points(0.0)
    with pytest.raises(DomainError):
        green_value(0.0, 1.0)


def test_huge_argument_routes_to_zero():
    assert apply_f(1.0, 1e200) == 0.0


# ---------------------------------------------------------------------------
# Fixed points and multipliers
# ---------------------------------------------------------------------------

def test_fixed_points_a1_exact():
    got = fixed_points(1.0)
    want = sorted([-1.0, (-1.0 + math.sqrt(5.0)) / 2.0, (-1.0 - math.sqrt(5.0)) / 2.0])
    assert len(got) == 3
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-9


def test_fixed_points_vieta_random():
    rng = random.Random(7)
    for _ in range(100):
        a = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(a) < 1e-3:
            continue
        fp = fixed_points(a)
        tol = 1e-10 * max(1.0, abs(a))
        assert abs(sum(fp) + 2.0) < tol
        assert abs(fp[0] * fp[1] * fp[2] - a) < tol
        for z in fp:
            assert abs(apply_f(a, z) - z) < 1e-8 * max(1.0, abs(z))


def test_multiplier_golden():
    z = (-1.0 + math.sqrt(5.0)) / 2.0
    assert abs(multiplier(1.0, z) - (1.0 - math.sqrt(5.0))) < 1e-9


def test_multiplier_rejects_poles():
    for z in (0.0, -2.0, INF):
        with pytest.raises(DomainError):
            multiplier(1.0, z)


# ---------------------------------------------------------------------------
# Trap and membership iteration
# ---------------------------------------------------------------------------

def test_trap_radii_values():
    rho, r_out = trap_radii(1.0)
    assert rho == pytest.approx(1.0 / 21.0)
    assert r_out == pytest.approx(1.0 + math.sqrt(22.0))
    rho, r_out = trap_radii(100.0)
    assert rho == 0.25
    assert r_out == pytest.approx(1.0 + math.sqrt(401.0))


def test_trap_inequalities_sampled():
    rng = random.Random(3)
    for _ in range(200):
        a = cmath.rect(10.0 ** rng.uniform(-3, 3), rng.uniform(0, 2 * math.pi))
        rho, r_out = trap_radii(a)
        z = cmath.rect(r_out, rng.uniform(0, 2 * math.pi))
        assert abs(apply_f(a, z)) <= rho * (1 + 1e-9)
        z = cmath.rect(rho, rng.uniform(0, 2 * math.pi))
        fz = apply_f(a, z)
        assert is_infinite(fz) or abs(fz) >= r_out * (1 - 1e-9)
        ffz = apply_f(a, fz)
        assert is_infinite(ffz) or abs(ffz) <= 0.5 * rho * (1 + 1e-9)


def test_attracted_examples():
    assert attracted_to_supercycle(100.0, 1.0) == (True, 1)
    assert attracted_to_supercycle(1.0, 0.0) == (True, 0)
    assert attracted_to_supercycle(1.0, INF) == (True, 0)
    ok, step = attracted_to_supercycle(1.0, -1.0, 512)
    assert not ok and step is None


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------

def test_green_asymptote_at_infinity():
    a = 2.0 - 1.0j
    for arg in (0.3, 1.7, 4.4):
        z = 1e6 * cmath.exp(1j * arg)
        assert abs(green_value(a, z) - (math.log(abs(z)) - math.log(2.0))) < 1e-3


def test_green_asymptote_at_zero():
    a = 2.0 - 1.0j
    z = 1e-6 * cmath.exp(0.9j)
    want = math.log(abs(z)) + math.log(4.0) - math.log(abs(a))
    assert abs(green_value(a, z) - want) < 1e-3


def test_green_functional_equations():
    a = 2.0 - 1.0j
    z = 3.0 + 2.0j
    assert green_value(a, apply_F(a, z)) == pytest.approx(2 * green_value(a, z), abs=1e-12)
    w = 1e4 + 5.0j          # infinity half: G(f(w)) = -2 G(w)
    assert green_value(a, apply_f(a, w)) == pytest.approx(-2 * green_value(a, w), abs=1e-10)
    u = 1e-4 * cmath.exp(1.3j)   # zero half: G(f(u)) = -G(u)
    assert green_value(a, apply_f(a, u)) == pytest.approx(-green_value(a, u), abs=1e-10)


def test_green_sentinels():
    a = 1.0 + 0.5j
    assert green_value(a, 0.0) == -math.inf
    assert green_value(a, INF) == math.inf
    assert green_value(a, -2.0) == -math.inf   # pole: lands on the cycle


# ---------------------------------------------------------------------------
# Boettcher coordinate
# ---------------------------------------------------------------------------

def test_boettcher_functional_equation():
    a = 2.0 - 1.0j
    for z in (500.0 + 100.0j, -300.0 + 40.0j, 5000.0j):
        phi = boettcher_infty(a, z)
        phi2 = boettcher_infty(a, apply_F(a, z))
        assert abs(phi2 - phi * phi) / abs(phi * phi) < 1e-9


def test_boettcher_normalization_and_green():
    a = 2.0 - 1.0j
    z = 1e8 + 1e5j
    phi = boettcher_infty(a, z)
    assert abs(phi - z / 2.0) / abs(z) < 1e-6
    z = 400.0 + 70.0j
    assert math.log(abs(boettcher_infty(a, z))) == pytest.approx(green_value(a, z), abs=1e-12)


def test_boettcher_deck_symmetry():
    a = 2.0 - 1.0j
    z = 321.0 + 55.0j
    assert abs(boettcher_infty(a, -2.0 - z) + boettcher_infty(a, z)) < 1e-9 * abs(z)


def test_boettcher_rejects_julia_adjacent():
    # A repelling fixed point lies on the Julia set; the product has no
    # trustworthy branch there.
    a = 6.0
    zfix = max(fixed_points(a), key=lambda z: abs(multiplier(a, z)))
    with pytest.raises((NumericError, DomainError)):
        boettcher_infty(a, zfix)


# ---------------------------------------------------------------------------
# Blaschke normal forms
# ---------------------------------------------------------------------------

def test_blaschke_critical_points_half():
    c1, c2 = blaschke_critical_points(0.5)
    assert abs(c1 - (-2.0 + math.sqrt(3.0))) < 1e-12
    assert abs(c2 - (-2.0 - math.sqrt(3.0))) < 1e-12


def test_blaschke_critical_symmetry():
    rng = random.Random(11)
    for _ in range(25):
        b = cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * math.pi))
        c1, c2 = blaschke_critical_points(b)
        assert abs(c1) < 1.0 < abs(c2)
        assert abs(abs(c1 * c2) - 1.0) < 1e-9
        h = 1e-6
        d = (blaschke_eval(b, c1 + h) - blaschke_eval(b, c1 - h)) / (2 * h)
        assert abs(d) < 1e-4


def test_blaschke_validation():
    for b in (0.0, 1.0, 2.0):
        with pytest.raises(DomainError):
            blaschke_eval(b, 0.1)
    assert blaschke_eval(0.5, 0.0) == 0.0
    with pytest.raises(DomainError):
        blaschke_eval(0.5, -2.0)  # the pole -1/conj(b)
    for z in (1e200, complex(1e200, 1e200), INF, complex(math.nan, 0.0)):
        with pytest.raises(NumericError):
            blaschke_eval(0.5, z)  # inf+nani / nan+nani before


# ---------------------------------------------------------------------------
# Parameter-plane raster
# ---------------------------------------------------------------------------

def test_m2_membership_and_symmetry():
    r = m2_raster(120, 120, n_max=256)
    xs, ys = r.xs(), r.ys()
    i1 = int(np.argmin(np.abs(xs - 1.0)))
    j0 = int(np.argmin(np.abs(ys)))
    assert r.values[j0, i1] == 0                     # a ~ 1 is a member
    assert (r.values == r.values[::-1, :]).all()     # conjugation symmetry
    assert r.values.dtype == np.int32


def test_m2_escape_value_matches_scalar():
    r = m2_raster(40, 40, re_min=90.0, re_max=110.0, im_min=-10.0, im_max=10.0, n_max=64)
    xs, ys = r.xs(), r.ys()
    a = complex(xs[5], ys[7])
    ok, step = attracted_to_supercycle(a, -1.0, 64)
    assert ok
    assert r.values[7, 5] == step


def test_m2_puncture_pixel():
    r = m2_raster(1, 1, re_min=-0.5, re_max=0.5, im_min=-0.5, im_max=0.5, n_max=16)
    assert r.values[0, 0] == -1


def test_raster_geometry_symmetric_centers():
    r = m2_raster(8, 8, n_max=4)
    ys = r.ys()
    assert np.array_equal(ys, -ys[::-1])


# ---------------------------------------------------------------------------
# Julia rasters
# ---------------------------------------------------------------------------

def test_julia_escape_signs():
    r = julia_raster(6.0, 160, 160, n_max=256)
    v = r.values
    assert (v > 0).any() and (v < 0).any()
    # Far corner escapes outward immediately; a deep-basin point near zero
    # goes inward.
    assert v[0, 0] > 0
    xs, ys = r.xs(), r.ys()
    i0 = int(np.argmin(np.abs(xs + 0.05)))
    j0 = int(np.argmin(np.abs(ys)))
    assert v[j0, i0] < 0


def test_julia_methods_agree():
    esc = julia_raster(6.0, 160, 160, n_max=256)
    inv = julia_raster(6.0, 160, 160, method="inverse", points=60000, seed=2)
    assert julia_agreement(esc, inv) >= 0.9


def test_julia_inverse_requires_repelling_point():
    with pytest.raises(DomainError):
        julia_raster(6.0, 10, 10, method="bogus")


def test_raster_writers_deterministic(tmp_path):
    r = julia_raster(6.0, 40, 40, n_max=64)
    p1 = tmp_path / "a.pgm"
    p2 = tmp_path / "b.pgm"
    r.write_pgm(str(p1))
    r.write_pgm(str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"P5\n40 40\n255\n")
    assert len(b1) == len(b"P5\n40 40\n255\n") + 40 * 40
    sidecar = (tmp_path / "a.pgm.txt").read_text()
    assert "width 40" in sidecar and "kind 'julia-escape'" in sidecar
    p3 = tmp_path / "c.ppm"
    r.write_ppm(str(p3))
    b3 = p3.read_bytes()
    assert b3.startswith(b"P6\n40 40\n255\n")
    assert len(b3) == len(b"P6\n40 40\n255\n") + 3 * 40 * 40


def test_empty_raster():
    r = m2_raster(0, 0, n_max=4)
    assert r.values.shape == (0, 0)


# ---------------------------------------------------------------------------
# The compacted trap-iteration kernel against the full-grid loops it replaced
# ---------------------------------------------------------------------------

def _m2_full_grid(r):
    """The full-grid m2 loop: every step masks every pixel of the grid."""
    A = r.xs()[None, :] + 1j * r.ys()[:, None]
    values = np.zeros(A.shape, dtype=np.int32)
    punct = A == 0
    values[punct] = -1
    active = ~punct
    mod_a = np.abs(A)
    rho = np.minimum(0.25, mod_a / 21.0)
    r_out = 1.0 + np.sqrt(1.0 + np.maximum(4.0 * mod_a, 21.0))
    z = np.full(A.shape, -1.0, dtype=np.complex128)
    for k in range(1, r.meta["n_max"] + 1):
        if not active.any():
            break
        za = z[active]
        den = za * (za + 2.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            za = A[active] / den
        z[active] = za
        mag = np.abs(z)
        with np.errstate(invalid="ignore"):
            hit = active & (~np.isfinite(mag) | (mag <= rho) | (mag >= r_out))
        values[hit] = k
        active &= ~hit
    return values


def _julia_escape_full_grid(r):
    """The full-grid Julia escape loop: test every pixel, then step F on all active."""
    a, rho, r_out = r.meta["a"], r.meta["rho"], r.meta["R"]
    Z = (r.xs()[None, :] + 1j * r.ys()[:, None]).astype(np.complex128)
    values = np.zeros(Z.shape, dtype=np.int32)
    active = np.ones(Z.shape, dtype=bool)
    for k in range(1, r.meta["n_max"] + 1):
        mag = np.abs(Z)
        with np.errstate(invalid="ignore"):
            outer = active & (~np.isfinite(mag) | (mag >= r_out))
            inner = active & np.isfinite(mag) & (mag <= rho)
        values[outer] = k
        values[inner] = -k
        active &= ~(outer | inner)
        if not active.any():
            break
        Za = Z[active]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = a / (Za * (Za + 2.0))
            Za = a / (w * (w + 2.0))
        Z[active] = Za
    return values


def _assert_same_values(got, want):
    assert got.dtype == want.dtype == np.int32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


ZOOM = dict(re_min=1.0, re_max=1.6, im_min=-0.3, im_max=0.3)
HUGE = dict(re_min=-1e305, re_max=1e305, im_min=-1e305, im_max=1e305)


@pytest.mark.parametrize("size, kw", [
    ((400, 400), {}),
    ((200, 200), ZOOM),
    ((1, 1), dict(re_min=-0.5, re_max=0.5, im_min=-0.5, im_max=0.5, n_max=16)),
    ((0, 0), {}),
    ((0, 7), {}),
    ((64, 48), HUGE),
    ((101, 77), dict(n_max=1)),
    ((101, 77), dict(n_max=2)),
    ((101, 77), dict(n_max=4)),
    ((33, 21), dict(n_max=0)),
], ids=["default-400", "zoom", "puncture", "empty", "no-columns", "overflow",
        "n1", "n2", "n4", "n0"])
def test_m2_kernel_matches_full_grid(size, kw):
    r = m2_raster(*size, **kw)
    _assert_same_values(r.values, _m2_full_grid(r))


A_RAY_1_6 = -0.370367002870486 - 2.97015077044292j


@pytest.mark.parametrize("a, size, kw", [
    (1.0, (160, 120), {}),
    (6.0, (160, 160), {}),
    (1e300, (120, 90), {}),
    (1e-300, (120, 90), {}),
    (A_RAY_1_6, (150, 150), {}),
    (3 + 1j, (64, 64), HUGE),
    (1.0, (90, 60), dict(n_max=1)),
    (1.0, (90, 60), dict(n_max=2)),
    (6.0, (90, 60), dict(n_max=4)),
    (2.0, (0, 5), {}),
], ids=["a1", "a6", "a1e300", "a1e-300", "ray-1/6", "overflow", "n1", "n2", "n4",
        "empty"])
def test_julia_kernel_matches_full_grid(a, size, kw):
    r = julia_raster(a, *size, **kw)
    _assert_same_values(r.values, _julia_escape_full_grid(r))


@pytest.mark.parametrize("a", [1.0, 6.0, 2.0 - 1.0j])
def test_julia_kernel_trap_discs_are_closed(a):
    # One-pixel windows of zero width put the pixel center exactly on |z| = R
    # and on |z| = rho; both circles belong to their trap at step 1.
    rho, r_out = trap_radii(a)
    for x, want in ((r_out, 1), (-r_out, 1), (rho, -1), (-rho, -1)):
        r = julia_raster(a, 1, 1, re_min=x, re_max=x, im_min=0.0, im_max=0.0)
        assert abs(complex(r.xs()[0], r.ys()[0])) in (r_out, rho)
        assert r.values[0, 0] == want
        _assert_same_values(r.values, _julia_escape_full_grid(r))


_coord = st.floats(min_value=-12.0, max_value=12.0, allow_nan=False)


@st.composite
def _windows(draw):
    re = sorted((draw(_coord), draw(_coord)))
    im = sorted((draw(_coord), draw(_coord)))
    return dict(re_min=re[0], re_max=re[1], im_min=im[0], im_max=im[1],
                n_max=draw(st.integers(min_value=0, max_value=80)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), _windows())
def test_m2_kernel_property(width, height, window):
    r = m2_raster(width, height, **window)
    _assert_same_values(r.values, _m2_full_grid(r))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), _windows(),
       st.floats(-3.0, 3.0), st.floats(0.0, 2.0 * math.pi))
def test_julia_kernel_property(width, height, window, log_mod, arg):
    a = cmath.rect(10.0 ** log_mod, arg)
    r = julia_raster(a, width, height, **window)
    _assert_same_values(r.values, _julia_escape_full_grid(r))
