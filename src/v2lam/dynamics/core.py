"""Scalar numerics for the family f_a(z) = a / (z^2 + 2z).

The map f_a is a degree-2 rational map with a superattracting 2-cycle
{0, infinity}: the critical point z = infinity maps to 0 and z = 0 is a
pole.  The second iterate F = f∘f therefore fixes both 0 and infinity with
local degree 4 at each.  This module provides:

- sphere-total evaluation of f and F with an explicit ``INF`` sentinel;
- fixed points of f and their multipliers;
- a certified "trap" pair of radii (rho, R): once an orbit enters
  {|z| <= rho} or {|z| >= R} it is attracted to the supercycle;
- the Green function G of the basin of the supercycle, normalized so that
  G(z) ~ log|z| - log 2 as z -> infinity;
- the Boettcher coordinate phi at infinity, normalized phi(z) ~ z/2,
  satisfying phi(F(z)) = phi(z)^2;
- degree-2 Blaschke products z(z+b)/(conj(b)z+1) and their critical points,
  used as normal forms for the basin dynamics.

All functions operate on Python ``complex`` scalars; vectorized rasters
live in :mod:`v2lam.dynamics.raster`.  Public functions validate the
parameter once on entry (``DomainError`` for a = 0 or a non-finite a) and
then iterate the unchecked step ``_f``; ``_f`` and the branch-tracked
inverse ``_inverse_roots`` are internals that take an already validated a.
"""

from __future__ import annotations

import cmath
import math

from ..angles import DomainError

__all__ = [
    "INF",
    "NumericError",
    "is_infinite",
    "apply_f",
    "apply_F",
    "fixed_points",
    "multiplier",
    "trap_radii",
    "attracted_to_supercycle",
    "green_value",
    "blaschke_eval",
    "blaschke_critical_points",
    "boettcher_infty",
]


class NumericError(RuntimeError):
    """A numerical routine failed to reach its stated tolerance."""


#: Sentinel for the point at infinity on the Riemann sphere.
INF = complex(math.inf, 0.0)

# Beyond this modulus, z^2 + 2z overflows double precision or loses all
# relative accuracy; such points are numerically indistinguishable from
# infinity, so f sends them straight to f(INF) = 0.
_HUGE = 1e150


def is_infinite(z: complex) -> bool:
    """True when ``z`` plays the role of the point at infinity."""
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


def _require_param(a: complex) -> complex:
    a = complex(a)
    if a == 0:
        raise DomainError("parameter a must be nonzero")
    if is_infinite(a) or cmath.isnan(a):
        raise DomainError("parameter a must be finite")
    return a


def apply_f(a: complex, z: complex) -> complex:
    """One step of f_a(z) = a/(z^2 + 2z), total on the sphere.

    The point at infinity (any non-finite complex, see ``INF``) maps to 0;
    the poles z = 0 and z = -2 map to ``INF``.
    """
    return _f(_require_param(a), complex(z))


def apply_F(a: complex, z: complex) -> complex:
    """The second iterate F = f_a ∘ f_a (degree 4, fixes 0 and infinity)."""
    a = _require_param(a)
    return _f(a, _f(a, complex(z)))


def _f(a: complex, z: complex) -> complex:
    """``apply_f`` for a validated parameter and a ``complex`` z (no checks)."""
    if is_infinite(z) or abs(z) > _HUGE:
        # Beyond _HUGE, z^2 + 2z would overflow; the true image is ~ a/z^2 ~ 0.
        return 0j
    den = z * (z + 2.0)
    if den == 0:
        return INF
    return a / den


def _inverse_roots(a: complex, ws, prev: complex | None = None) -> list[complex]:
    """Roots r = ±sqrt(1 + a/w) along ``ws``, for a validated parameter (no checks).

    The preimages of w under f_a are -1 ± r.  Each sign is the one nearer
    the previous root (``prev`` for the first point; + without one, and +
    on ties), so the roots follow one continuous branch of f_a^{-1}.
    """
    out = []
    for w in ws:
        r = cmath.sqrt(1.0 + a / w)
        if prev is not None and abs(-r - prev) < abs(r - prev):
            r = -r
        out.append(r)
        prev = r
    return out


def fixed_points(a: complex) -> list[complex]:
    """The three finite fixed points of f_a, i.e. roots of z^3 + 2z^2 = a.

    Roots are Newton-polished to residual |z^3 + 2z^2 - a| below
    1e-10 * max(1, |a|) and returned sorted by (real, imag).
    """
    import numpy as np

    a = _require_param(a)
    roots = np.roots([1.0, 2.0, 0.0, -a])
    tol = 1e-10 * max(1.0, abs(a))
    out: list[complex] = []
    for r in roots:
        z = complex(r)
        for _ in range(8):
            p = z * z * z + 2.0 * z * z - a
            if abs(p) < 1e-2 * tol:
                break
            dp = 3.0 * z * z + 4.0 * z
            if dp == 0:
                break
            z = z - p / dp
        if abs(z * z * z + 2.0 * z * z - a) >= tol:
            raise NumericError(f"fixed-point residual above tolerance for a={a}")
        out.append(z)
    out.sort(key=lambda w: (w.real, w.imag))
    return out


def multiplier(a: complex, z: complex) -> complex:
    """f_a'(z) = -a(2z+2)/(z^2+2z)^2 at a finite non-pole point z.

    Where den^2 = (z^2+2z)^2 or the quotient leaves double range (|z| beyond
    ~1e77, as at the fixed points for |a| beyond ~1e231) it is taken as
    (a/den)((2z+2)/den) instead.  Raises ``NumericError`` when even that is
    not finite.
    """
    a = _require_param(a)
    z = complex(z)
    if is_infinite(z):
        raise DomainError("multiplier requires a finite point")
    den = z * (z + 2.0)
    if den == 0:
        raise DomainError("multiplier undefined at a pole of f_a")
    den2 = den * den
    d = INF if is_infinite(den2) or den2 == 0 else -a * (2.0 * z + 2.0) / den2
    if is_infinite(d):
        d = -(a / den) * ((2.0 * z + 2.0) / den)
    if is_infinite(d):
        raise NumericError(f"multiplier of f_a at z={z} overflows double precision")
    return d


# ---------------------------------------------------------------------------
# Certified supercycle trap
# ---------------------------------------------------------------------------

def trap_radii(a: complex) -> tuple[float, float]:
    """Radii (rho, R) trapping orbits into the supercycle {0, infinity}.

    With rho = min(1/4, |a|/21) and R = 1 + sqrt(1 + max(4|a|, 21)):

    - |z| >= R implies |f_a(z)| <= rho, because |z^2+2z| >= R(R-2) =
      max(4|a|, 21) so |f| <= |a|/max(4|a|,21) <= min(1/4, |a|/21);
    - |z| <= rho implies |f_a(z)| >= |a|/(rho^2+2rho) >= |a|/(3rho) >= R
      is not used directly; instead |z| <= rho gives |z^2+2z| <= 3rho so
      |f| >= |a|/(3rho) >= 7 > 2rho and |F(z)| <= |z|/2, so orbits inside
      either disc converge to the 2-cycle.

    The inequalities are exact in real arithmetic; ``attracted_to_supercycle``
    additionally certifies them numerically (once per process) on a sample
    grid of radii and arguments.  Raises ``NumericError`` when R overflows
    double precision (|a| beyond ~4.5e307).
    """
    a = _require_param(a)
    m = abs(a)
    rho = min(0.25, m / 21.0)
    big = max(4.0 * m, 21.0)
    r_out = 1.0 + math.sqrt(1.0 + big)
    if math.isinf(r_out):
        raise NumericError(f"trap radius R overflows double precision for |a| = {m!r}")
    return rho, r_out


_trap_certified = False


def _certify_trap_once() -> None:
    """Numerically spot-check the trap inequalities on a grid (first use only)."""
    global _trap_certified
    if _trap_certified:
        return
    for ea in range(-3, 4):
        a = complex(10.0 ** ea, 0.37 * 10.0 ** ea)
        rho, r_out = trap_radii(a)
        for k in range(16):
            u = cmath.exp(2j * math.pi * k / 16.0)
            z_out = r_out * u
            fz = _f(a, z_out)
            if is_infinite(fz) or abs(fz) > rho * (1.0 + 1e-9):
                raise NumericError("trap certification failed on outer circle")
            z_in = rho * u
            fz = _f(a, z_in)
            if not is_infinite(fz) and abs(fz) < r_out * (1.0 - 1e-9):
                raise NumericError("trap certification failed on inner circle")
            ffz = _f(a, fz)
            if not is_infinite(ffz) and abs(ffz) > 0.5 * rho * (1.0 + 1e-9):
                raise NumericError("trap certification failed on contraction")
    _trap_certified = True


def attracted_to_supercycle(a: complex, z: complex, n_max: int = 512) -> tuple[bool, int | None]:
    """Does the orbit of z enter the certified trap within n_max steps of f?

    Returns ``(True, k)`` with the first step index k at which the orbit
    lies in {|z| <= rho} ∪ {|z| >= R} (k = 0 if z starts there), or
    ``(False, None)`` if it has not entered after ``n_max`` steps.
    """
    a = _require_param(a)
    _certify_trap_once()
    rho, r_out = trap_radii(a)
    z = complex(z)
    for k in range(n_max + 1):
        if is_infinite(z) or abs(z) >= r_out or abs(z) <= rho:
            return True, k
        z = _f(a, z)
    return False, None


# ---------------------------------------------------------------------------
# Green function and Boettcher coordinate
# ---------------------------------------------------------------------------

def green_value(a: complex, z: complex, n: int = 64) -> float:
    """Green function of the supercycle basin, G(z) = lim 2^-k log|F^k(z)|.

    Normalization: G(z) = log|z| - log 2 + o(1) as z -> infinity and
    G(z) = log|z| + log 4 - log|a| + o(1) as z -> 0.  Sentinels: G(0) and
    every preimage of 0 give ``-inf``; G at infinity and its preimages give
    ``+inf``.  G ∘ F = 2 G, and on the two half-basins G ∘ f = -G (from the
    0-side) or -2 G (from the infinity-side).

    The iteration closes early once |F^k(z)| leaves [1e-100, 1e100], using
    the asymptotic normalizations above; otherwise it returns
    2^-n log|F^n(z)|.
    """
    a = _require_param(a)
    z = complex(z)
    log_a = math.log(abs(a))
    w = z
    for k in range(n + 1):
        if cmath.isnan(w):
            raise NumericError("green_value hit NaN")
        if is_infinite(w):
            return math.inf
        if w == 0:
            return -math.inf
        mag = abs(w)
        if mag > 1e100:
            return (math.log(mag) - math.log(2.0)) / (2.0 ** k)
        if mag < 1e-100:
            return (math.log(mag) + math.log(4.0) - log_a) / (2.0 ** k)
        if k == n:
            return math.log(mag) / (2.0 ** n)
        w = _f(a, _f(a, w))
    raise NumericError("green_value: unreachable")


def boettcher_infty(a: complex, z: complex, max_iter: int = 64) -> complex:
    """Boettcher coordinate phi at infinity: phi(z) ~ z/2, phi(F(z)) = phi(z)^2.

    Computed from the telescoping product
    phi(z) = (z/2) * prod_k (2 F(w_k) / w_k^2)^(2^-(k+1)) with w_0 = z,
    stopping once |w_k| > 1e15.  Valid for z deep in the basin of infinity
    (the product factors must stay near 1); raises ``NumericError`` when z
    is too close to the Julia set for the principal-branch product to be
    trustworthy.
    """
    return _boettcher(_require_param(a), complex(z), max_iter)


def _boettcher(a: complex, z: complex, max_iter: int = 64) -> complex:
    """``boettcher_infty`` for a validated parameter and a ``complex`` z."""
    if is_infinite(z):
        raise DomainError("boettcher_infty requires a finite point")
    if z == 0:
        raise DomainError("boettcher_infty requires a point in the basin of infinity")
    log_phi = cmath.log(z / 2.0)
    w = z
    for k in range(max_iter):
        if abs(w) > 1e15:
            return cmath.exp(log_phi)
        fw = _f(a, _f(a, w))
        if is_infinite(fw) or fw == 0:
            raise NumericError("boettcher_infty: orbit hit the supercycle exactly")
        ratio = 2.0 * fw / (w * w)
        # The principal log is only the right branch when the factor has not
        # wound around 0; near the Julia set this fails and phi is undefined.
        if ratio.real <= 0.0 or abs(ratio - 1.0) > 0.9:
            raise NumericError(
                "boettcher_infty: point too close to the Julia set "
                f"(factor {ratio:.3g} at step {k})"
            )
        log_phi += cmath.log(ratio) / (2.0 ** (k + 1))
        w = fw
    raise NumericError("boettcher_infty: insufficient iteration depth")


# ---------------------------------------------------------------------------
# Blaschke normal forms
# ---------------------------------------------------------------------------

def _require_blaschke_param(b: complex) -> complex:
    b = complex(b)
    if not 0.0 < abs(b) < 1.0:
        raise DomainError("Blaschke parameter must satisfy 0 < |b| < 1")
    return b


def blaschke_eval(b: complex, z: complex) -> complex:
    """Degree-2 Blaschke product B_b(z) = z (z + b) / (conj(b) z + 1).

    Fixes 0 with multiplier b and preserves the unit circle; requires
    0 < |b| < 1.  The pole z = -1/conj(b) is rejected, and a value that is
    not finite (z non-finite, or z*(z+b) overflowing) raises ``NumericError``.
    """
    b = _require_blaschke_param(b)
    z = complex(z)
    den = b.conjugate() * z + 1.0
    if den == 0:
        raise DomainError("blaschke_eval at the pole -1/conj(b)")
    value = z * (z + b) / den
    if is_infinite(value):
        raise NumericError(f"blaschke_eval at z={z} leaves double range")
    return value


def blaschke_critical_points(b: complex) -> tuple[complex, complex]:
    """The two critical points of B_b, ordered with |c1| < 1 < |c2|.

    They are (-1 ± sqrt(1 - |b|^2)) / conj(b); their product has modulus 1
    (they are symmetric in the unit circle).
    """
    b = _require_blaschke_param(b)
    s = math.sqrt(1.0 - abs(b) ** 2)
    c1 = (-1.0 + s) / b.conjugate()
    c2 = (-1.0 - s) / b.conjugate()
    if abs(c1) >= 1.0:
        c1, c2 = c2, c1
    return c1, c2
