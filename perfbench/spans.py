"""Spans around calls into v2lam's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every binding the
package holds of it: the defining module, the re-exports of
``v2lam.dynamics`` and the ``from ... import`` names in ``cli``, ``checks``
and the other modules.  ``uninstall`` puts the originals back, so untraced
rounds run the program unchanged.

A span is ``(name, start, end, parent index)``; spans are kept in memory.
A layer's self time is its span's duration minus the time of its child
spans.  Counters are computed from arguments and returned values after the
span ends; that bookkeeping is recorded as a child span named ``~count`` so
that it is charged to no layer.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time


def _raster_counts(r):
    """pixel_steps: sum over pixels of the step at which each left the trap
    test (undecided pixels count n_max); grid_steps: pixels times the last
    step reached."""
    meta = r.meta
    if "n_max" not in meta:          # inverse-iteration rasters carry no steps
        return {}
    v = abs(r.values.astype("int64"))
    n_max = int(meta["n_max"])
    undecided = int((r.values == 0).sum())
    steps = int(v.sum()) + undecided * n_max
    last = n_max if undecided else int(v.max(initial=0))
    return {"pixels": int(v.size), "pixel_steps": steps, "grid_steps": int(v.size) * last,
            "undecided": undecided}


def _ray_counts(path):
    return {"points": len(path.points),
            "max:dynamics.rays.max_residual": max((p[2] for p in path.points), default=0.0)}


def _file_bytes(args):
    path = args[1]
    return {"bytes": os.path.getsize(path) + os.path.getsize(path + ".txt")}


# (module, attribute, span name, counter(args, result) -> {counter: value})
TARGETS = (
    ("v2lam.cli", "main", "cli.main", None),
    ("v2lam.angles", "x0_digits", "angles.x0_digits",
     lambda a, r: {"den_bits": r.denominator.bit_length()}),
    ("v2lam.angles", "x0_digit_stream", "angles.x0_digit_stream", None),
    ("v2lam.angles", "x0_series", "angles.x0_series", None),
    ("v2lam.angles", "digit_stream", "angles.digit_stream", None),
    ("v2lam.measure", "cumulative", "measure.cumulative", None),
    ("v2lam.measure", "h_arc", "measure.h_arc", None),
    ("v2lam.measure", "semiconjugacy_check", "measure.semiconjugacy_check", None),
    ("v2lam.laminations", "build_2L", "laminations.build_2L", lambda a, r: {"leaves": len(r)}),
    ("v2lam.laminations", "build_L", "laminations.build_L", lambda a, r: {"leaves": len(r)}),
    ("v2lam.laminations", "count_same_side_crossings", "laminations.count_same_side_crossings",
     lambda a, r: {"pairs": r[1]}),
    ("v2lam.laminations", "check_two_sided_invariance",
     "laminations.check_two_sided_invariance", None),
    ("v2lam.laminations", "complementary_regions", "laminations.complementary_regions", None),
    ("v2lam.laminations", "build_quadratic_lamination",
     "laminations.build_quadratic_lamination", lambda a, r: {"leaves": len(r)}),
    ("v2lam.laminations", "build_basilica", "laminations.build_basilica", None),
    ("v2lam.laminations", "mate", "laminations.mate", None),
    ("v2lam.laminations", "Lamination.to_text", "laminations.Lamination.to_text", None),
    ("v2lam.svg", "render_svg", "svg.render_svg", lambda a, r: {"bytes": len(r)}),
    ("v2lam.symbolic", "leaf_addresses_match", "symbolic.leaf_addresses_match",
     lambda a, r: {"leaves": r.leaves_checked}),
    ("v2lam.symbolic", "addr_equivalent", "symbolic.addr_equivalent", None),
    ("v2lam.symbolic", "regulated_ray_image", "symbolic.regulated_ray", None),
    ("v2lam.symbolic", "regulated_ray_preimage", "symbolic.regulated_ray", None),
    ("v2lam.dynamics.core", "fixed_points", "dynamics.core", None),
    ("v2lam.dynamics.core", "multiplier", "dynamics.core", None),
    ("v2lam.dynamics.core", "trap_radii", "dynamics.core", None),
    ("v2lam.dynamics.core", "green_value", "dynamics.core", None),
    ("v2lam.dynamics.core", "boettcher_infty", "dynamics.core", None),
    ("v2lam.dynamics.core", "attracted_to_supercycle", "dynamics.core", None),
    ("v2lam.dynamics.raster", "m2_raster", "dynamics.raster.m2_raster",
     lambda a, r: _raster_counts(r)),
    ("v2lam.dynamics.raster", "julia_raster", "dynamics.raster.julia_raster",
     lambda a, r: _raster_counts(r)),
    ("v2lam.dynamics.raster", "Raster.write_pgm", "dynamics.raster.write",
     lambda a, r: _file_bytes(a)),
    ("v2lam.dynamics.raster", "Raster.write_ppm", "dynamics.raster.write",
     lambda a, r: _file_bytes(a)),
    ("v2lam.dynamics.rays", "trace_parameter_ray", "dynamics.rays.trace_parameter_ray",
     lambda a, r: _ray_counts(r)),
    ("v2lam.dynamics.rays", "trace_dynamical_ray", "dynamics.rays.trace_dynamical_ray",
     lambda a, r: _ray_counts(r)),
    ("v2lam.dynamics.rays", "critical_value_angle_error",
     "dynamics.rays.critical_value_angle_error", None),
    ("v2lam.dynamics.rayleaves", "ray_leaf_endpoints", "dynamics.rayleaves.ray_leaf_endpoints",
     lambda a, r: {"leaves": len(r), "unresolved": sum(1 for l in r if l.unresolved)}),
    ("v2lam.checks", "run_check", "checks.run_check", None),
)

COUNT = "~count"


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "v2lam" or n.startswith("v2lam."))]
        for modname, attr, name, counter in self.targets:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._replace(cls, meth, orig, self._wrap(name, orig, counter))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._replace(mod, key, orig, wrapper)

    def _replace(self, holder, key, orig, wrapper) -> None:
        self._saved.append((holder, key, orig))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._saved):
            setattr(holder, key, orig)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                for key, val in counter(args, result).items():
                    if key.startswith("max:"):
                        full = key[4:]
                        counters[full] = max(counters.get(full, val), val)
                    else:
                        full = "%s.%s" % (name, key)
                        counters[full] = counters.get(full, 0) + val
                spans.append((COUNT, end, clock(), parent))
            return result

        return traced

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def layer_totals(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` per span name, plus counters."""
        return layer_totals(self.spans, self.counters)


def layer_totals(spans, counters=None) -> dict[str, float]:
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, parent), inner in zip(spans, child):
        if name == COUNT:
            continue
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start) - inner
    out.update(counters or {})
    return out
