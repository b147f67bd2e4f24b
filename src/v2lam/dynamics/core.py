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
On the ordinary path, |z| <= 1e150, ``_f`` makes one comparison before it
divides; only the other points are sorted into infinity and huge z.  Only
``fixed_points`` and the trap radii use numpy, which they import when
called, so loading this module loads no numpy.
"""

from __future__ import annotations

import cmath
import math

from ..angles import DomainError, NumericError

__all__ = [
    "INF",
    "NumericError",
    "is_infinite",
    "apply_f",
    "apply_F",
    "fixed_points",
    "fixed_point_multiplier",
    "multiplier",
    "trap_radii",
    "attracted_to_supercycle",
    "green_value",
    "blaschke_eval",
    "blaschke_critical_points",
    "boettcher_infty",
]


#: Sentinel for the point at infinity on the Riemann sphere.
INF = complex(math.inf, 0.0)

# Beyond this modulus, z^2 + 2z may overflow double precision, so f divides
# by z and by z + 2 in turn; that quotient can only underflow, and is 0 only
# where the image a/(z^2 + 2z) is below the float range.
_HUGE = 1e150


def _abs(z: complex) -> float:
    """|z|, or inf where finite parts give a modulus beyond the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _log_abs(z: complex) -> float:
    """log|z| for a finite nonzero z, also where |z| exceeds the float range."""
    try:
        return math.log(abs(z))
    except OverflowError:
        return math.log(abs(z / 2.0)) + math.log(2.0)


def is_infinite(z: complex) -> bool:
    """True when ``z`` plays the role of the point at infinity (a part is inf or nan)."""
    return not cmath.isfinite(z)


def _require_param(a: complex) -> complex:
    """a as a complex, the one gate of the parameter: ``DomainError`` for
    a = 0 or a non-finite part, ``NumericError`` for finite parts whose
    modulus |a|, which every use of a takes, is beyond the float range.
    """
    a = complex(a)
    if a == 0:
        raise DomainError("parameter a must be nonzero")
    if is_infinite(a):
        raise DomainError("parameter a must be finite")
    if _abs(a) == math.inf:
        raise NumericError("|a| exceeds the float range")
    return a


def _require_point(z: complex) -> complex:
    """z as a complex; ``DomainError`` for a NaN part (an infinite one is ``INF``)."""
    z = complex(z)
    if cmath.isnan(z):
        raise DomainError("point z must not be NaN")
    return z


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
    """``apply_f`` for a validated parameter and a ``complex`` z (no checks).

    One comparison guards the ordinary case |z| <= ``_HUGE``; it is False
    for a nan or infinite part, and a modulus beyond the float range
    (``OverflowError``) is not ordinary either.  Only the rest is sorted
    into the point at infinity and the huge branch.
    """
    try:
        ordinary = abs(z) <= _HUGE
    except OverflowError:  # finite parts whose modulus exceeds the float range
        ordinary = False
    if ordinary:
        den = z * (z + 2.0)
        if den == 0:
            return INF
        return a / den
    if is_infinite(z):
        return 0j
    return a / z / (z + 2.0)


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

    Roots of ``np.roots`` are accepted at a residual |z^3 + 2z^2 - a| below
    1e-10 times the size of the terms, |z|^2 (|z| + 2) + |a|, the scale of
    its rounding error, and returned sorted by (real, imag).  The root
    within 1e-3 of the pole -2 (|a| below about 4e-3) is found as -2 + w by
    a contraction on w (``_near_pole_root``), and the pair ±sqrt(a/2) + ...
    within 1e-3 of the pole 0 (|a| below about 2e-6) by a contraction on z
    (``_near_zero_root``); both already meet the tolerance.  Raises ``NumericError`` when a root misses that tolerance or
    rounds onto a pole (0 or -2), as the root -2 + a/4 + ... does for real a
    with |a| below about 4e-16 (9e-16 for negative a).
    """
    import numpy as np

    a = _require_param(a)
    roots = [complex(r) for r in np.roots([1.0, 2.0, 0.0, -a])]
    if sum(abs(z) < 1e-3 for z in roots) == 2:
        # np.roots returns this pair as exactly 0 for |a| below about 1e-50,
        # so both are found anew
        roots = [max(roots, key=abs), _near_zero_root(a, 1.0), _near_zero_root(a, -1.0)]
    out: list[complex] = []
    for z in roots:
        if abs(z + 2.0) < 1e-3:
            z = _near_pole_root(a)
        if abs(z * z * z + 2.0 * z * z - a) >= 1e-10 * (abs(z) ** 2 * (abs(z) + 2.0) + abs(a)):
            raise NumericError(f"fixed-point residual above tolerance for a={a}")
        if z == 0 or z == -2:
            raise NumericError(f"a fixed point of f_a rounds onto a pole for a={a}")
        out.append(z)
    out.sort(key=lambda w: (w.real, w.imag))
    return out


def _near_pole_root(a: complex) -> complex:
    """The fixed point -2 + w next to the pole -2, for |a| below about 4e-3.

    z^2 (z + 2) = a reads w = a / (w - 2)^2 in w = z + 2.  Iterated from
    w = 0 this is a contraction with factor about |a|/4, so w is found to
    full relative accuracy in a few steps; the root that ``np.roots`` gives
    loses it, since that root carries an absolute error of one rounding
    of 2.
    """
    return _contract_from_zero(lambda w: a / ((w - 2.0) * (w - 2.0))) - 2.0


def _near_zero_root(a: complex, sign: float) -> complex:
    """The fixed point sign * sqrt(a/2) + ... next to the pole 0, for |a| below about 2e-6.

    z^2 (z + 2) = a reads z = r * sqrt(2 / (z + 2)), r = sign * sqrt(a/2), a
    contraction with factor about |z|/4 whose sqrt stays near 1, off its cut.
    """
    r = sign * cmath.sqrt(a / 2.0)
    return _contract_from_zero(lambda z: r * cmath.sqrt(2.0 / (z + 2.0)))


def _contract_from_zero(step) -> complex:
    """Iterate a contraction from 0 until it stops moving (at most 16 steps)."""
    z = 0j
    for _ in range(16):
        nxt = step(z)
        if nxt == z:
            break
        z = nxt
    return z


def fixed_point_multiplier(a: complex, z: complex) -> complex:
    """f_a'(z) at a fixed point z of f_a.

    Away from the pole -2 this is ``multiplier``.  Within 1e-3 of -2 (the
    fixed point -2 + a/4 + ... for |a| below about 4e-3) the quotient
    -a(2z+2)/(z^2+2z)^2 multiplies the rounding error of z by about
    4/|z + 2|; there the fixed-point identity z^2 + 2z = a/z gives the
    multiplier as -2z * (z(z+1)/a), accurate to a few roundings.  Raises
    ``NumericError`` when the value is not finite.
    """
    a = _require_param(a)
    z = complex(z)
    if abs(z + 2.0) >= 1e-3:
        return multiplier(a, z)
    d = -2.0 * z * (z * (z + 1.0) / a)
    if is_infinite(d):
        raise NumericError(f"multiplier of f_a at z={z} overflows double precision")
    return d


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

    The inequalities are exact in real arithmetic.  Raises ``NumericError``
    when R overflows double precision (|a| beyond ~4.5e307).
    """
    rho, r_out = _trap_radii_of_modulus(abs(_require_param(a)))
    return float(rho), float(r_out)


def _trap_radii_of_modulus(m):
    """``trap_radii`` as a function of m = |a|: a float, or an array of moduli."""
    import numpy as np

    with np.errstate(over="ignore"):
        r_out = 1.0 + np.sqrt(1.0 + np.maximum(4.0 * m, 21.0))
    if np.isinf(r_out).any():
        raise NumericError(
            f"trap radius R overflows double precision for |a| = {float(np.max(m))!r}")
    return np.minimum(0.25, m / 21.0), r_out


def attracted_to_supercycle(a: complex, z: complex, n_max: int = 512) -> tuple[bool, int | None]:
    """Does the orbit of z enter the certified trap within n_max steps of f?

    Returns ``(True, k)`` with the first step index k at which the orbit
    lies in {|z| <= rho} ∪ {|z| >= R} (k = 0 if z starts there), or
    ``(False, None)`` if it has not entered after ``n_max`` steps.
    Raises ``DomainError`` for a NaN z.
    """
    a = _require_param(a)
    z = _require_point(z)
    rho, r_out = trap_radii(a)
    for k in range(n_max + 1):
        if is_infinite(z) or not rho < _abs(z) < r_out:
            return True, k
        z = _f(a, z)
    return False, None


# ---------------------------------------------------------------------------
# Green function and Boettcher coordinate
# ---------------------------------------------------------------------------

def _halved(value: float, k: int) -> float:
    """value / 2^k, correctly rounded for every k >= 0.

    For k <= 1023 this is the quotient by 2.0 ** k bit for bit; from
    k = 1024 on, 2.0 ** k itself would overflow.
    """
    return math.ldexp(value, -k)


def green_value(a: complex, z: complex, n: int = 64) -> float:
    """Green function of the supercycle basin, G(z) = lim 2^-k log|F^k(z)|.

    Normalization: G(z) = log|z| - log 2 + o(1) as z -> infinity and
    G(z) = log|z| + log 4 - log|a| + o(1) as z -> 0.  Sentinels: G(0) and
    every preimage of 0 give ``-inf``; G at infinity and its preimages give
    ``+inf``.  G ∘ F = 2 G, and on the two half-basins G ∘ f = -G (from the
    0-side) or -2 G (from the infinity-side).

    The iteration closes early once |F^k(z)| leaves [1e-100, 1e100], or
    once the half step a/(w^2+2w) underflows to 0 (tiny |a|, w far out),
    or once it overflows or F(w) underflows (huge |a|, w not a pole) with
    log|F(w)| computed from logarithms, using the asymptotic normalizations
    above; otherwise it returns 2^-n log|F^n(z)|.  Raises ``DomainError``
    for n < 0 or a NaN z.
    """
    a = _require_param(a)
    if n < 0:
        raise DomainError("green_value needs n >= 0")
    z = _require_point(z)
    log_a = math.log(abs(a))
    w, k = z, 0
    while True:
        if cmath.isnan(w):
            raise NumericError("green_value hit NaN")
        if is_infinite(w):
            return math.inf
        if w == 0:
            return -math.inf
        mag = _abs(w)
        if mag > 1e100:
            return _halved(_log_abs(w) - math.log(2.0), k)
        if mag < 1e-100:
            return _halved(math.log(mag) + math.log(4.0) - log_a, k)
        if k == n:
            return _halved(math.log(mag), n)
        half = _f(a, w)
        if half == 0:
            # not a pole but an underflow: w is deep in the basin of infinity
            return _halved(math.log(mag) - math.log(2.0), k)
        if is_infinite(half) and w * (w + 2.0) != 0:
            # not a pole but an overflow: F(w) ~ a/half^2 lies deep in the
            # basin of 0, with log|half| = log|a| - log|w| - log|w + 2|
            log_fw = log_a - 2.0 * (log_a - math.log(mag) - _log_abs(w + 2.0))
            return _halved(log_fw + math.log(4.0) - log_a, k + 1)
        w = _f(a, half)
        if w == 0 and not is_infinite(half):
            # not a preimage of 0 but an underflow of a/(half^2 + 2 half)
            log_fw = log_a - _log_abs(half) - _log_abs(half + 2.0)
            return _halved(log_fw + math.log(4.0) - log_a, k + 1)
        k += 1


#: Steps of F the Boettcher product may take before it gives up.
_BOETTCHER_STEPS = 64


def boettcher_infty(a: complex, z: complex) -> complex:
    """Boettcher coordinate phi at infinity: phi(z) ~ z/2, phi(F(z)) = phi(z)^2.

    Computed from the telescoping product
    phi(z) = (z/2) * prod_k (2 F(w_k) / w_k^2)^(2^-(k+1)) with w_0 = z,
    stopping once |w_k| > 1e15 or once the half step a/(w_k^2+2w_k)
    underflows to 0 (w_k deep in the basin of infinity, as in
    ``green_value``).  Valid for z deep in the basin of infinity
    (the product factors must stay near 1); raises ``NumericError`` when z
    is too close to the Julia set for the principal-branch product to be
    trustworthy.
    """
    return _boettcher(_require_param(a), complex(z))


def _boettcher(a: complex, z: complex) -> complex:
    """``boettcher_infty`` for a validated parameter and a ``complex`` z."""
    if is_infinite(z):
        raise DomainError("boettcher_infty requires a finite point")
    if z == 0:
        raise DomainError("boettcher_infty requires a point in the basin of infinity")
    log_phi = cmath.log(z / 2.0)
    w = z
    for k in range(_BOETTCHER_STEPS):
        try:
            far = abs(w) > 1e15
        except OverflowError:  # finite parts whose modulus exceeds the float range
            far = True
        if far:
            return cmath.exp(log_phi)
        half = _f(a, w)
        if half == 0:
            # not a pole but an underflow: w is deep in the basin of infinity,
            # where phi(w) ~ w/2, as in green_value
            return cmath.exp(log_phi)
        fw = _f(a, half)
        if is_infinite(fw) or fw == 0:
            raise NumericError("boettcher_infty: orbit hit the supercycle exactly")
        if w * w == 0:
            raise NumericError("boettcher_infty: point is not in the basin of infinity")
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
    (they are symmetric in the unit circle).  The + sign is the inner one:
    with s = sqrt(1 - |b|^2), |c1| = (1 - s)/|b| = |b|/(1 + s) < 1, and s is
    at least 1e-8 for every float |b| < 1.  Raises ``NumericError`` when the
    outer one leaves double range (|b| below ~1e-308).
    """
    b = _require_blaschke_param(b)
    s = math.sqrt(1.0 - abs(b) ** 2)
    c1 = (-1.0 + s) / b.conjugate()
    c2 = (-1.0 - s) / b.conjugate()
    if is_infinite(c2):
        raise NumericError(f"Blaschke critical point -2/conj(b) leaves double range for b={b}")
    return c1, c2
