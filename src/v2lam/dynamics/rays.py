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
  truncated with the crash point recorded;
- ``trace_parameter_ray(theta0, ...)``: the parameter ray, solving
  phi_a(F_a^n(-a)) = target over the parameter a, with the same windowing.
  Rays at real angles stay exactly real because the Newton derivative uses
  a real finite-difference step;
- ``trace_ray_through_point(a, w0, ...)``: the ray passing through a given
  basin point (no angle needed; arguments are measured, not prescribed).

Each tracer walks its potential grid with ``_Marcher.walk``.  A dynamical
marcher validates its parameter once, when it is built; a parameter
marcher validates it at every evaluation of phi, since there a is the
Newton unknown.  phi then iterates the unchecked ``core._f``.  Newton
evaluates phi once per point it visits: the value the line search found
at the accepted point is the next iteration's value there.  Pullbacks to
the 0-side follow one branch with ``core._inverse_roots``.  Invalid
parameters raise ``DomainError`` from the public tracers.
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
    """A traced ray: sampled points with bookkeeping.

    ``points`` holds (potential, point, relative_residual) triples with
    strictly decreasing (or, for through-point upper tails, increasing)
    potential.  For dynamical rays the point is z in the dynamical plane;
    for parameter rays it is the parameter a.
    """

    points: list[tuple[float, complex, float]] = field(default_factory=list)
    crashed: bool = False
    crash_potential: float | None = None
    crash_point: complex | None = None
    complete: bool = True
    note: str = ""
    landing: complex | None = None
    landing_err: float | None = None

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


def _window_turns(theta: Fraction, n: int) -> float:
    """frac(2^n theta): the exact argument, in turns, of the window at exponent n."""
    return float(double(theta, n))


def _exact_anchor(theta: Fraction, n: int) -> float:
    return TWO_PI * _window_turns(theta, n)


class _Marcher:
    """Shared windowed-Newton machinery for dynamical and parameter rays."""

    def __init__(self, a: complex | None, theta: Fraction | None, mode: str):
        # "dyn": solve for z at a fixed a, validated here once; "par": solve
        # for a, which phi validates on every call since it is the unknown.
        self.a = _require_param(a) if mode == "dyn" else None
        self.theta = theta
        self.mode = mode

    def phi(self, x: complex, n: int) -> complex:
        a, w = (self.a, x) if self.mode == "dyn" else (_require_param(x), -x)
        for _ in range(n):
            w = _f(a, _f(a, w))
            if is_infinite(w) or w == 0:
                raise NumericError("ray orbit hit the supercycle")
        return _boettcher(a, w)

    def anchor(self, x: complex, n: int) -> float:
        if self.theta is not None:
            return _exact_anchor(self.theta, n)
        return cmath.phase(self.phi(x, n))

    def _fd_step(self, x: complex) -> complex:
        h = 1e-7 * max(1.0, abs(x))
        # A real step keeps real-symmetric traces exactly real.
        return complex(h, 0.0)

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
            h = self._fd_step(x)
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
    if steps < 2:
        raise DomainError("ray trace needs at least 2 steps")
    if not (s_from > 0 and s_to > 0):
        raise DomainError("potentials must be positive")
    if max(s_from, s_to) > 30.0:
        raise DomainError("potentials above 30 overflow the Boettcher target")
    r = (s_to / s_from) ** (1.0 / (steps - 1))
    out = [s_from * (r ** i) for i in range(steps)]
    out[-1] = s_to
    return out


def _march_infinity(a: complex, theta: Fraction, grid: list[float]) -> list[tuple[float, complex, float]]:
    """Solve the infinity-ray of exact angle theta on a decreasing grid.

    The first point is solved at potential s0 = max(8, grid[0]) in window 0.
    """
    marcher = _Marcher(a, theta, "dyn")
    s0, A = max(8.0, grid[0]), _exact_anchor(theta, 0)
    x = 2.0 * cmath.exp(complex(s0, TWO_PI * float(theta % 1)))
    x, res = marcher.newton(x, 0, A, s0)
    return list(marcher.walk(x, res, s0, 0, A, grid))


def _solve_infinity_at(a: complex, theta: Fraction, s_star: float,
                       start: tuple[float, complex]) -> tuple[complex, float]:
    """The infinity-ray point of angle theta at potential s_star, walked down
    from ``start``, an infinity-ray point (s0, x) at a potential s0 > s_star."""
    s0, x = start
    n = window_exponent(s0)
    marcher = _Marcher(a, theta, "dyn")
    ((_, x, res),) = marcher.walk(x, 0.0, s0, n, _exact_anchor(theta, n), [s_star])
    return x, res


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
    -1: the path is truncated at s*, ``crashed`` is set, and
    ``crash_point`` records the endpoint (accurate to about the square root
    of the Newton residual).
    """
    a = complex(a)
    theta = Fraction(theta) % 1
    if base not in ("inf", "0"):
        raise DomainError("ray base must be 'inf' or '0'")
    if s_to >= s_from:
        raise DomainError("require s_to < s_from")
    grid = _geometric_grid(s_from, s_to, steps)
    inf_pts = _march_infinity(a, theta, grid)
    if base == "inf":
        path = RayPath(inf_pts)
        _finish_landing(path)
        return path

    # base "0": decide up front whether the infinity-ray hits the critical
    # value -a inside the traced potential range; if so the pullback branch
    # terminates at the critical point -1 at that exact potential.
    s_star = green_value(a, -a)
    if s_star >= s_from:
        raise DomainError(
            "s_from must exceed the critical-value potential "
            f"G(-a) = {s_star:.6g} for a 0-based ray"
        )
    crash: tuple[float, complex, float] | None = None
    if s_star > s_to:
        # inf_pts starts at grid[0] = s_from > s_star, so a point above s* exists
        start = [(s, w) for s, w, _ in inf_pts if s > s_star][-1]
        try:
            w_star, res_star = _solve_infinity_at(a, theta, s_star, start)
            if abs(w_star + a) / abs(a) < 1e-3:
                crash = (s_star, w_star, res_star)
        except NumericError:
            pass

    # Potentials decrease along the grid: keep the points above the crash.
    kept = [p for p in inf_pts if crash is None or p[0] > crash[0]]
    # Deep tail: the + branch at the first point tends to 0, not -2.
    roots = _inverse_roots(a, [w for _, w, _ in kept])
    pts = [(s, -1.0 + r, res) for (s, _, res), r in zip(kept, roots)]

    path = RayPath(pts)
    if crash is not None:
        s_c, w_star, res_star = crash
        path.crashed = True
        path.crash_potential = s_c
        path.crash_point = -1.0 + cmath.sqrt(1.0 + a / w_star)
        path.points = pts + [(s_c, path.crash_point, res_star)]
        path.note = (
            "pullback branch crashes into the critical point -1 at "
            f"potential {s_c:.9g}"
        )
        return path
    _finish_landing(path)
    return path


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
    a = complex(a)
    w0 = complex(w0)
    s0 = green_value(a, w0)
    if not (0 < s0 < math.inf):
        raise DomainError("trace_ray_through_point requires a point in the infinity half-basin")
    if not (s_to < s0 < s_up):
        raise DomainError("require s_to < G(w0) < s_up")
    if s_up > 30.0:
        raise DomainError("potentials above 30 overflow the Boettcher target")
    marcher = _Marcher(a, None, "dyn")
    n0 = window_exponent(s0)
    A0 = marcher.anchor(w0, n0)

    up_grid = [s for s in reversed(_geometric_grid(s_up, s0, steps)) if s > s0]
    upper = RayPath([(s0, w0, 0.0)])
    upper.points += marcher.walk(w0, 0.0, s0, n0, A0, up_grid)

    down_grid = [s for s in _geometric_grid(s0, s_to, steps) if s < s0]
    lower = RayPath([(s0, w0, 0.0)])
    lower.points += marcher.walk(w0, 0.0, s0, n0, A0, down_grid)
    _finish_landing(lower)
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
    final point is reported as ``landing`` with a step-difference error
    heuristic.
    """
    theta0 = Fraction(theta0) % 1
    if s_to >= s_from:
        raise DomainError("require s_to < s_from")
    grid = _geometric_grid(s_from, s_to, steps)
    marcher = _Marcher(None, theta0, "par")
    s0 = max(8.0, grid[0])
    x = -2.0 * cmath.exp(complex(s0, TWO_PI * float(theta0)))
    n, A = 0, _exact_anchor(theta0, 0)
    x, res = marcher.newton(x, n, A, s0)
    path = RayPath()
    try:
        for point in marcher.walk(x, res, s0, n, A, grid):
            path.points.append(point)
    except NumericError:
        path.complete = False
        path.note = f"parameter-ray Newton stalled at potential {grid[len(path.points)]:.6g}"
        if not path.points:
            raise NumericError(path.note) from None
    _finish_landing(path)
    return path


def _finish_landing(path: RayPath) -> None:
    if len(path.points) >= 2:
        path.landing = path.points[-1][1]
        path.landing_err = abs(path.points[-1][1] - path.points[-2][1])


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
    marcher = _Marcher(a, None, "dyn")
    measured = cmath.phase(marcher.phi(-a, n)) / TWO_PI % 1.0
    return circle_distance(measured, _window_turns(theta0, n)) / (2.0 ** n)
