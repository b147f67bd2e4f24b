"""Refusals of the library's public functions, one table for every module.

Each row calls a function outside its documented domain and names the
exception and a fragment of its message.  The CLI guards most of these
arguments before it calls the library, so only this table reaches them.
"""
from __future__ import annotations

from fractions import Fraction as Fr

import pytest

from v2lam.angles import DomainError, NumericError, digit_stream, nu, x0_series
from v2lam.checks import run_check, run_suite
from v2lam.dynamics import (blaschke_critical_points, critical_value_angle_error,
                            fixed_point_multiplier, fixed_points, green_value, julia_agreement,
                            julia_raster, m2_raster, multiplier, ray_leaf_endpoints,
                            trace_dynamical_ray, trace_parameter_ray, trace_ray_through_point,
                            trap_radii)
from v2lam.laminations import Leaf, build_2L, build_basilica, build_L0, build_quadratic_lamination
from v2lam.measure import cumulative, preimages_of_angle, sigma_lengths_periodic
from v2lam.symbolic import Address


NAN = float("nan")
#: Finite parts whose modulus exceeds the float range.
BEYOND = complex(1.7e308, 1e308)


def _near_pole_multiplier(a):
    """The multiplier at the fixed point next to the pole -2."""
    return fixed_point_multiplier(a, min(fixed_points(a), key=lambda z: abs(z + 2.0)))


REFUSALS = [
    # angles
    ("nu-negative-m", lambda: nu(Fr(1, 3), -1), DomainError, "m must be >= 0"),
    ("digit-zero", lambda: digit_stream(Fr(1, 3)).digit(0), DomainError,
     "digit index must be >= 1"),
    ("shift-negative", lambda: digit_stream(Fr(1, 3)).shifted(-1), DomainError,
     "shift must be >= 0"),
    ("x0-series-theta-0", lambda: x0_series(Fr(0), 5), DomainError, "theta0 must lie in (0,1)"),
    ("x0-series-M-0", lambda: x0_series(Fr(1, 6), 0), DomainError, "M must be >= 1"),
    # symbolic
    ("address-leading-2", lambda: Address.from_leading_body(2, digit_stream(Fr(1, 3))),
     DomainError, "leading bit must be 0 or 1"),
    # laminations
    ("leaf-side", lambda: Leaf(Fr(0), Fr(1, 2), "X"), DomainError, "side must be"),
    ("L0-depth", lambda: build_L0(Fr(1, 6), -1), DomainError, "depth must be >= 0"),
    ("2L-depth", lambda: build_2L(Fr(1, 6), -1), DomainError, "depth must be >= 0"),
    ("quadratic-depth", lambda: build_quadratic_lamination(Fr(1, 3), -1), DomainError,
     "depth must be >= 0"),
    ("basilica-depth", lambda: build_basilica(-1), DomainError, "depth must be >= 0"),
    # measure
    ("preimages-depth", lambda: preimages_of_angle(Fr(1, 3), -1), DomainError,
     "depth must be >= 0"),
    ("cumulative-cap", lambda: cumulative(Fr(1, 6), Fr(1, 5), M=-1), DomainError,
     "depth cap must be >= 0"),
    ("sigma-period-0", lambda: sigma_lengths_periodic(0), DomainError, "period must be >= 1"),
    # checks
    ("check-13", lambda: run_check(13), DomainError, "no check numbered 13"),
    ("suite-bogus", lambda: run_suite(("bogus",)), DomainError, "unknown check group 'bogus'"),
    # dynamics.core
    ("multiplier-overflow", lambda: multiplier(1e300, 1e-160), NumericError,
     "overflows double precision"),
    ("near-pole-multiplier-overflow", lambda: _near_pole_multiplier(1e-308j), NumericError,
     "overflows double precision"),
    ("blaschke-critical-overflow", lambda: blaschke_critical_points(1e-320), NumericError,
     "leaves double range"),
    *[("%s-modulus-overflow" % name, call, NumericError, "|a| exceeds the float range")
      for name, call in (("fixed-points", lambda: fixed_points(BEYOND)),
                         ("green-value", lambda: green_value(BEYOND, 3.0)),
                         ("trap-radii", lambda: trap_radii(BEYOND)),
                         ("julia-raster", lambda: julia_raster(BEYOND, 4, 4, n_max=8)),
                         ("dynamical-ray", lambda: trace_dynamical_ray(BEYOND, "inf", Fr(1, 3))),
                         ("ray-leaves", lambda: ray_leaf_endpoints(BEYOND, 1)))],
    # dynamics.raster
    ("m2-negative-width", lambda: m2_raster(-1, 4), DomainError,
     "raster dimensions must be nonnegative"),
    ("m2-unordered", lambda: m2_raster(4, 4, re_min=1.0, re_max=-1.0), DomainError,
     "raster bounds must be ordered"),
    ("agreement-shapes", lambda: julia_agreement(julia_raster(1.0, 4, 4, n_max=8),
                                                 julia_raster(1.0, 4, 6, n_max=8)),
     DomainError, "requires equal raster shapes"),
    # dynamics.rays
    ("ray-one-step", lambda: trace_dynamical_ray(1.0, "inf", Fr(1, 3), steps=1), DomainError,
     "at least 2 steps"),
    ("ray-negative-potential", lambda: trace_dynamical_ray(1.0, "inf", Fr(1, 3), s_to=-1.0),
     DomainError, "potentials must be positive"),
    ("ray-nan-potential", lambda: trace_dynamical_ray(1.0, "inf", Fr(1, 3), s_to=NAN),
     DomainError, "potential is not a number"),
    ("parameter-ray-nan-potential", lambda: trace_parameter_ray(Fr(1, 3), s_to=NAN),
     DomainError, "potential is not a number"),
    # the grid is validated before the parameter
    ("ray-grid-before-parameter", lambda: trace_dynamical_ray(0, "inf", Fr(1, 3), steps=1),
     DomainError, "at least 2 steps"),
    ("through-point-s-up", lambda: trace_ray_through_point(1.0, 10.0, s_up=31.0), DomainError,
     "potentials above 30"),
    ("through-point-outside", lambda: trace_ray_through_point(1.0, 10.0, s_up=1.0), DomainError,
     "require s_to < G(w0) < s_up"),
    ("parameter-ray-order", lambda: trace_parameter_ray(Fr(1, 3), s_from=0.1, s_to=0.2),
     DomainError, "require s_to < s_from"),
    ("angle-error-bounded-critical-orbit", lambda: critical_value_angle_error(1.0, Fr(1, 6)),
     DomainError, "critical value is not in the infinity half-basin"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
