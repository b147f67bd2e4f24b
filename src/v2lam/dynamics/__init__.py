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

``core`` and ``rays`` load with the package and import no numpy until a
call needs it; ``raster`` and ``rayleaves``, the array kernels, load on the
first use of one of their names here (``__getattr__``, PEP 562).
"""

from importlib import import_module

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
from .rays import (
    RayPath,
    critical_value_angle_error,
    trace_dynamical_ray,
    trace_parameter_ray,
    trace_ray_through_point,
)

#: The names of the array kernels, by the submodule that defines them.
_LAZY = {"Raster": "raster", "julia_agreement": "raster", "julia_raster": "raster",
         "m2_raster": "raster", "RayLeaf": "rayleaves", "ray_leaf_endpoints": "rayleaves"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module("." + _LAZY[name], __name__), name)


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
