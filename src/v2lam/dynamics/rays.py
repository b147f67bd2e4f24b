"""Dynamical and parameter ray tracing for f_a(z) = a/(z^2 + 2z).

External rays are traced as level/argument curves of the Boettcher
coordinate phi at infinity (phi(z) ~ z/2, phi∘F = phi^2, F = f∘f).  A point
at potential s on the ray of angle theta satisfies

    phi(F^n(z)) = exp(2^n s + 2 pi i frac(2^n theta))

for every n >= 0.  Direct evaluation of phi requires a point deep in the
basin, so the tracer works in a sliding window: it picks the exponent n
with 2^n s in [8, 16), where F^n(z) is far out and phi is accurate to
machine precision, and solves the displayed equation for z by a damped
Newton iteration with numerical derivative, walking a monotone grid of
potentials and re-anchoring the argument whenever the window shifts.

Supported traces:

- ``trace_dynamical_ray(a, "inf", theta, ...)``: the ray of angle theta in
  the basin half approaching infinity (anchors are exact multiples of
  theta);
- ``trace_dynamical_ray(a, "0", theta, ...)``: its image-side counterpart,
  the branch of f^{-1} of the infinity-ray that approaches 0 at deep
  potential.  This branch crashes into the critical point -1 exactly when
  the infinity-ray of the same angle passes through the critical value -a;
  the crash is detected, the crash potential refined, and the path
  truncated with the crash point as its last point;
- ``trace_parameter_ray(theta0, ...)``: the parameter ray, solving
  phi_a(F_a^n(-a)) = target over the parameter a, with the same windowing.
  Rays at real angles stay exactly real because the Newton derivative uses
  a real finite-difference step;
- ``trace_ray_through_point(a, w0, ...)``: the ray passing through a given
  basin point (no angle needed; arguments are measured, not prescribed).

Both exact-angle tracers start with ``_march``, one Newton solve at the
top of the grid; every tracer walks its grid, which ``_geometric_grid``
alone validates, with ``_Marcher.walk``.
A dynamical marcher validates its parameter once, when it is built; a
parameter marcher validates it at every evaluation of phi, since there a
is the Newton unknown.  phi then iterates the unchecked ``core._f``.
Newton evaluates phi once per point it visits: the value the line search
found at the accepted point is the next iteration's value there.
Pullbacks to the 0-side follow one branch with ``core._inverse_roots``.
Invalid parameters raise ``DomainError`` from the public tracers.

A ``RayPath`` stores ``points``, ``crashed``, ``complete`` and ``note``;
``crash_potential``, ``crash_point``, ``landing`` and ``landing_err`` are
derived from ``points``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..angles import DomainError, circle_distance, double
from .core import (NumericError, _boettcher, _f, _inverse_roots, _require_param, green_value,
                   is_infinite)

__all__ = [
    "RayPath",
    "trace_dynamical_ray",
    "trace_parameter_ray",
    "trace_ray_through_point",
    "critical_value_angle_error",
]

TWO_PI = 2.0 * math.pi


@dataclass
class RayPath:
    """A traced ray: the points it measured, and what follows from them.

    ``points`` holds (potential, point, relative_residual) triples with
    strictly decreasing (or, for through-point upper tails, increasing)
    potential; the point is z, or the parameter a for a parameter ray.  The
    crash is the last point of a crashed path; the landing is the last
    point of any other, and its error the length of the last step.
    """

    points: list[tuple[float, complex, float]] = field(default_factory=list)
    crashed: bool = False
    complete: bool = True
    note: str = ""

    @property
    def crash_potential(self) -> float | None:
        return self.points[-1][0] if self.crashed else None

    @property
    def crash_point(self) -> complex | None:
        return self.points[-1][1] if self.crashed else None

    @property
    def landing(self) -> complex | None:
        return None if self.crashed or len(self.points) < 2 else self.points[-1][1]

    @property
    def landing_err(self) -> float | None:
        return None if self.landing is None else abs(self.points[-1][1] - self.points[-2][1])

    def to_csv(self) -> str:
        rows = ["s,re,im,residual"]
        for s, z, res in self.points:
            rows.append(f"{s:.12g},{z.real:.17g},{z.imag:.17g},{res:.3g}")
        return "\n".join(rows) + "\n"


def window_exponent(s: float) -> int:
    """Smallest n >= 0 with 2^n s >= 8 (the sliding-window exponent)."""
    if not s > 0:
        raise DomainError("potential must be positive")
    n = 0
    while (2.0 ** n) * s < 8.0 and n < 60:
        n += 1
    return n


class _Marcher:
    """Shared windowed-Newton machinery for dynamical and parameter rays.

    A dynamical marcher solves for z at the parameter ``a``, validated here
    once; a parameter marcher (``a=None``) solves for a, which phi
    validates on every call since it is the unknown.  With an angle
    ``theta`` the anchors are exact; without one they are measured.
    """

    def __init__(self, a: complex | None, theta: Fraction | None = None):
        self.a = None if a is None else _require_param(a)
        self.theta = theta

    def phi(self, x: complex, n: int) -> complex:
        a, w = (self.a, x) if self.a is not None else (_require_param(x), -x)
        for _ in range(n):
            w = _f(a, _f(a, w))
            if is_infinite(w) or w == 0:
                raise NumericError("ray orbit hit the supercycle")
        return _boettcher(a, w)

    def anchor(self, x: complex, n: int) -> float:
        if self.theta is not None:
            return TWO_PI * float(double(self.theta, n))
        return cmath.phase(self.phi(x, n))

    def newton(self, x: complex, n: int, A: float, s: float) -> tuple[complex, float]:
        """Damped Newton for phi(x) = target: one phi per point it visits.

        The line search's value at an accepted candidate is the next
        iteration's value at x, so phi(x) is never evaluated twice.
        """
        target = cmath.exp(complex((2.0 ** n) * s, A))
        mag_t = abs(target)
        try:
            val = self.phi(x, n) - target
        except NumericError:
            raise NumericError(f"ray Newton failed to converge at potential {s:.6g}") from None
        for _ in range(40):
            rel = abs(val) / mag_t
            if rel < 1e-9:
                return x, rel
            # A real step keeps real-symmetric traces exactly real.
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
                    cand_val = self.phi(cand, n) - target
                except NumericError:
                    lam *= 0.5
                    continue
                if abs(cand_val) / mag_t < rel or lam < 0.2:
                    x, val = cand, cand_val
                    moved = True
                    break
                lam *= 0.5
            if not moved:
                break
        raise NumericError(f"ray Newton failed to converge at potential {s:.6g}")

    def _solve_window(self, x: complex, n: int, A: float, s_cur: float,
                      s_t: float, depth: int = 0) -> tuple[complex, float]:
        """Newton from s_cur to s_t inside one window, bisecting on failure."""
        try:
            return self.newton(x, n, A, s_t)
        except NumericError:
            if depth >= 6:
                raise
            s_mid = 0.5 * (s_cur + s_t)
            x, _ = self._solve_window(x, n, A, s_cur, s_mid, depth + 1)
            return self._solve_window(x, n, A, s_mid, s_t, depth + 1)

    def advance(self, x: complex, s_cur: float, n: int, A: float,
                s_next: float) -> tuple[complex, float, int, float]:
        """Move from (x at s_cur, window n, anchor A) to potential s_next.

        Crosses window boundaries one at a time: the point is first solved
        to the boundary potential inside the current window (where the
        target magnitude is still moderate), then the window shifts and the
        anchor is re-measured.  Returns (x, residual, n, A) at s_next.
        """
        while n < window_exponent(s_next):
            s_b = 8.0 / (2.0 ** n)
            if s_b < s_cur:
                x, _ = self._solve_window(x, n, A, s_cur, s_b)
                s_cur = s_b
            n += 1
            A = self.anchor(x, n)
        while n > window_exponent(s_next):
            s_b = 16.0 / (2.0 ** n)
            if s_b > s_cur:
                x, _ = self._solve_window(x, n, A, s_cur, s_b)
                s_cur = s_b
            n -= 1
            A = self.anchor(x, n)
        x, res = self._solve_window(x, n, A, s_cur, s_next)
        return x, res, n, A

    def walk(self, x: complex, res: float, s: float, n: int, A: float, grid: list[float]):
        """Yield (s, x, residual) along ``grid`` from x solved at s (window n, anchor A)."""
        for s_next in grid:
            if s_next != s:
                x, res, n, A = self.advance(x, s, n, A, s_next)
                s = s_next
            yield s, x, res


def _geometric_grid(s_from: float, s_to: float, steps: int) -> list[float]:
    """``steps`` potentials from s_from down to s_to, in geometric progression."""
    if s_to >= s_from:
        raise DomainError("require s_to < s_from")
    if steps < 2:
        raise DomainError("ray trace needs at least 2 steps")
    if math.isnan(s_from) or math.isnan(s_to):
        raise DomainError("potential is not a number")
    if not (s_from > 0 and s_to > 0):
        raise DomainError("potentials must be positive")
    if s_from > 30.0:
        raise DomainError("potentials above 30 overflow the Boettcher target")
    r = (s_to / s_from) ** (1.0 / (steps - 1))
    out = [s_from * (r ** i) for i in range(steps)]
    out[-1] = s_to
    return out


def _march(marcher: _Marcher, sign: float, grid: list[float]):
    """The walk of an exact-angle ray along a decreasing ``grid``.

    Its first point is solved here, at potential s0 = max(8, grid[0]) in
    window 0 from sign·2·exp(s0 + 2 pi i theta), so a failure there raises
    at once; the returned generator solves each grid point as it is drawn.
    """
    s0 = max(8.0, grid[0])
    A = marcher.anchor(None, 0)
    x, res = marcher.newton(sign * 2.0 * cmath.exp(complex(s0, A)), 0, A, s0)
    return marcher.walk(x, res, s0, 0, A, grid)


def trace_dynamical_ray(
    a: complex,
    base: str,
    theta: Fraction,
    s_from: float = 8.0,
    s_to: float = 1e-3,
    steps: int = 200,
) -> RayPath:
    """Trace a dynamical-plane external ray of exact angle ``theta``.

    ``base="inf"``: the ray in the half-basin at infinity, sampled on a
    geometric potential grid from ``s_from`` down to ``s_to``.

    ``base="0"``: the 0-approaching branch of f^{-1} of that ray (same
    potentials).  If the infinity-ray passes through the critical value -a
    (at potential s* = G(-a)), the branch terminates at the critical point
    -1: the path ends at s* with the crash point (accurate to about the
    square root of the Newton residual), and ``crashed`` is set.
    """
    a = complex(a)
    theta = Fraction(theta) % 1
    if base not in ("inf", "0"):
        raise DomainError("ray base must be 'inf' or '0'")
    grid = _geometric_grid(s_from, s_to, steps)
    marcher = _Marcher(a, theta)
    inf_pts = list(_march(marcher, 1.0, grid))
    if base == "inf":
        return RayPath(inf_pts)

    # base "0": decide up front whether the infinity-ray hits the critical
    # value -a inside the traced potential range; if so the pullback branch
    # terminates at the critical point -1 at that exact potential.
    s_star = green_value(a, -a)
    if s_star >= s_from:
        raise DomainError("s_from must exceed the critical-value potential "
                          f"G(-a) = {s_star:.6g} for a 0-based ray")
    crash: tuple[float, complex, float] | None = None
    if s_star > s_to:
        # inf_pts starts at grid[0] = s_from > s_star, so a point above s* exists;
        # the ray is walked down from the last of them to s*
        s0, x = [(s, w) for s, w, _ in inf_pts if s > s_star][-1]
        n = window_exponent(s0)
        try:
            w_star, res_star, _, _ = marcher.advance(x, s0, n, marcher.anchor(x, n), s_star)
            if abs(w_star + a) / abs(a) < 1e-3:
                crash = (s_star, -1.0 + cmath.sqrt(1.0 + a / w_star), res_star)
        except NumericError:
            pass

    # Potentials decrease along the grid: keep the points above the crash.
    kept = [p for p in inf_pts if crash is None or p[0] > crash[0]]
    # Deep tail: the + branch at the first point tends to 0, not -2.
    roots = _inverse_roots(a, [w for _, w, _ in kept])
    pts = [(s, -1.0 + r, res) for (s, _, res), r in zip(kept, roots)]
    if crash is None:
        return RayPath(pts)
    note = f"pullback branch crashes into the critical point -1 at potential {crash[0]:.9g}"
    return RayPath(pts + [crash], crashed=True, note=note)


def trace_ray_through_point(
    a: complex,
    w0: complex,
    s_to: float = 1e-3,
    s_up: float = 8.0,
    steps: int = 200,
) -> tuple[RayPath, RayPath, float]:
    """Trace the infinity-basin ray through a given point, both directions.

    Returns (upper, lower, s0) where s0 = G(w0) is the potential of ``w0``,
    ``upper`` samples the tail from s0 up to ``s_up`` (increasing
    potentials), and ``lower`` the tail from s0 down to ``s_to``.  The
    ray's angle is not needed: the argument anchor is measured from the
    orbit of ``w0`` and re-measured at every window shift.
    """
    a, w0 = complex(a), complex(w0)
    s0 = green_value(a, w0)
    if not (0 < s0 < math.inf):
        raise DomainError("trace_ray_through_point requires a point in the infinity half-basin")
    if not (s_to < s0 < s_up):
        raise DomainError("require s_to < G(w0) < s_up")
    up_grid = [s for s in reversed(_geometric_grid(s_up, s0, steps)) if s > s0]
    marcher = _Marcher(a)
    n0 = window_exponent(s0)
    A0 = marcher.anchor(w0, n0)
    upper = RayPath([(s0, w0, 0.0), *marcher.walk(w0, 0.0, s0, n0, A0, up_grid)])
    down_grid = [s for s in _geometric_grid(s0, s_to, steps) if s < s0]
    lower = RayPath([(s0, w0, 0.0), *marcher.walk(w0, 0.0, s0, n0, A0, down_grid)])
    return upper, lower, s0


def trace_parameter_ray(
    theta0: Fraction,
    s_from: float = 8.0,
    s_to: float = 0.05,
    steps: int = 200,
) -> RayPath:
    """Trace the parameter ray of exact angle ``theta0``.

    Solves phi_a(F_a^n(-a)) = exp(2^n s + 2 pi i frac(2^n theta0)) for the
    parameter a along a decreasing geometric grid of potentials, with the
    same sliding window as dynamical rays.  On persistent Newton failure
    the path is truncated (``complete=False``) rather than raising, unless
    not even the first grid point was reached (``NumericError``).  The
    final point is the ``landing``, with a step-difference error heuristic.
    """
    theta0 = Fraction(theta0) % 1
    grid = _geometric_grid(s_from, s_to, steps)
    points = _march(_Marcher(None, theta0), -1.0, grid)
    path = RayPath()
    try:
        for point in points:
            path.points.append(point)
    except NumericError:
        path.complete = False
        path.note = f"parameter-ray Newton stalled at potential {grid[len(path.points)]:.6g}"
        if not path.points:
            raise NumericError(path.note) from None
    return path


def critical_value_angle_error(a: complex, theta0: Fraction) -> float:
    """Angular deviation (in turns) of the critical value from a parameter ray.

    Measures the Boettcher argument of F_a^n(-a) in the sliding window at
    potential s = G_a(-a) and returns the circular distance to the exact
    anchor frac(2^n theta0), rescaled by 2^-n: an upper bound for the
    distance from theta0 to the nearest angle whose parameter ray could
    pass through ``a`` at this window resolution.
    """
    a = complex(a)
    theta0 = Fraction(theta0) % 1
    s = green_value(a, -a)
    if not (0 < s < math.inf):
        raise DomainError("critical value is not in the infinity half-basin")
    n = window_exponent(s)
    measured = cmath.phase(_Marcher(a).phi(-a, n)) / TWO_PI % 1.0
    return circle_distance(measured, float(double(theta0, n))) / (2.0 ** n)
