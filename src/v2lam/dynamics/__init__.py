"""Numerical engine for the rational family f_a(z) = a/(z^2 + 2z).

Submodules:

- :mod:`v2lam.dynamics.core`: sphere-total evaluation, fixed points and
  multipliers, the certified supercycle trap, Green function, Boettcher
  coordinate, Blaschke helpers;
- :mod:`v2lam.dynamics.raster`: parameter-space (M2) and Julia-set rasters
  with PGM/PPM writers;
- :mod:`v2lam.dynamics.rays`: dynamical and parameter ray tracing by Newton
  continuation in the Boettcher coordinate;
- :mod:`v2lam.dynamics.rayleaves`: ray-leaf extraction at iterated
  preimages of the critical point, with circle coordinates recovered from
  separation-curve itineraries.

Everything here is double-precision numerics with explicit tolerances; the
exact combinatorics live in the other v2lam modules.
"""

from .core import (
    INF,
    NumericError,
    apply_F,
    apply_f,
    attracted_to_supercycle,
    blaschke_critical_points,
    blaschke_eval,
    boettcher_infty,
    fixed_point_multiplier,
    fixed_points,
    green_value,
    is_infinite,
    multiplier,
    trap_radii,
)
from .raster import Raster, julia_agreement, julia_raster, m2_raster
from .rays import (
    RayPath,
    critical_value_angle_error,
    trace_dynamical_ray,
    trace_parameter_ray,
    trace_ray_through_point,
)
from .rayleaves import RayLeaf, ray_leaf_endpoints

__all__ = [
    "INF",
    "NumericError",
    "apply_F",
    "apply_f",
    "attracted_to_supercycle",
    "blaschke_critical_points",
    "blaschke_eval",
    "boettcher_infty",
    "fixed_point_multiplier",
    "fixed_points",
    "green_value",
    "is_infinite",
    "multiplier",
    "trap_radii",
    "Raster",
    "julia_agreement",
    "julia_raster",
    "m2_raster",
    "RayPath",
    "critical_value_angle_error",
    "trace_dynamical_ray",
    "trace_parameter_ray",
    "trace_ray_through_point",
    "RayLeaf",
    "ray_leaf_endpoints",
]
