"""Command-line front end.

Five subcommands expose the library: ``angle`` (exact angle correspondences
and measure/blow-up values), ``lam`` (lamination builders, reports, SVG and
leaf files), ``sym`` (binary addresses and regulated-ray symbols), ``dyn``
(rasters, rays, ray leaves and related numerics), and ``check`` (the twelve
verification suites).

Conventions: long flags only; angles are written ``p/q``; complex numbers
are written ``re,im`` (use ``--a=-1.5,2`` syntax for negative reals).
Depth-like flags are capped at 16, iteration-like and count flags at 4096
(``dyn julia --points`` at 2^20), and the leaf count a
``lam L``/``L0``/``two-sided`` request predicts at 2^17 unless
``--unsafe-limits`` is given.  A flag that takes one word of a fixed set
(``--side``, ``--op``, ``--method``, ``--base``) refuses any other word as
a usage error.  ``--config PATH`` reads ``key=value`` lines
(keys are flag names without the dashes) used as defaults.  Exit codes:
0 success, 1 domain error, 2 numeric failure, 64 usage error (sysexits
``EX_USAGE``), 74 I/O error such as an unwritable output path (sysexits
``EX_IOERR``).

Every operation's documented examples can be reproduced from here; each
sub-subcommand's ``--help`` shows a worked invocation.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from .angles import (
    DomainError,
    digit_stream,
    nu,
    orbit_type,
    x0_digit_stream,
    x0_digits,
    x0_series,
    y0_from_theta,
)
from .dynamics import NumericError

DEPTH_CAP = 16
ITER_CAP = 4096
#: Inverse-iteration samples of ``dyn julia``: admits the default 200,000.
POINTS_CAP = 1 << 20
SIDES = ("I", "O")
#: Leaves a lamination request may predict: 2^(d+1) - 1 for two-sided and
#: L0 stay within it up to DEPTH_CAP, the sum of 4^n for L up to depth 8.
LEAF_BUDGET = 1 << 17


class UsageError(Exception):
    """Flag-grammar violation; reported with exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


# ---------------------------------------------------------------------------
# flag-value parsing (flags and config values both arrive as strings)
# ---------------------------------------------------------------------------

def _angle_value(text) -> Fraction:
    if isinstance(text, Fraction):
        return text
    try:
        f = Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad angle %r (write p/q): %s" % (text, exc))
    return f % 1


def _int_value(text, what: str) -> int:
    try:
        return int(str(text).strip())
    except ValueError:
        raise UsageError("bad integer for %s: %r" % (what, text))


def _float_value(text, what: str) -> float:
    try:
        return float(str(text).strip())
    except ValueError:
        raise UsageError("bad number for %s: %r" % (what, text))


def _complex_value(text, what: str) -> complex:
    s = str(text).strip()
    parts = s.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError("bad complex for %s: %r (write re,im)" % (what, text))


def _chord_value(text, what: str) -> tuple[Fraction, Fraction]:
    pair = str(text).split(",")
    if len(pair) != 2:
        raise UsageError("bad chord for %s: %r (write a/b,c/d)" % (what, text))
    return _angle_value(pair[0]), _angle_value(pair[1])


def _count_value(text, what: str) -> int:
    n = _int_value(text, what)
    if n < 0:
        raise UsageError("%s must be >= 0" % what)
    return n


def _truthy(v) -> bool:
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off", ""):
        return False
    raise UsageError("bad boolean value %r" % v)


def _req(args, *names: str) -> None:
    for n in names:
        if getattr(args, n, None) is None:
            raise UsageError("--%s is required (give the flag or a config default)"
                             % n.replace("_", "-"))


def _choice(args, name: str, allowed: tuple[str, ...]) -> str:
    """A flag (or config value) that takes one word of a fixed set."""
    value = str(getattr(args, name))
    if value not in allowed:
        raise UsageError("--%s must be one of %s, not %r" % (name, ", ".join(allowed), value))
    return value


def _capped(val: int, cap: int, what: str, args) -> int:
    if val > cap and not _truthy(args.unsafe_limits):
        raise UsageError("%s %d exceeds the cap %d; pass --unsafe-limits to override"
                         % (what, val, cap))
    return val


def _depth_value(args, field: str = "depth", minimum: int = 0) -> int:
    d = _int_value(getattr(args, field), field)
    if d < minimum:
        raise UsageError("%s must be >= %d" % (field, minimum))
    return _capped(d, DEPTH_CAP, field, args)


def _leaf_depth(args, branching: int) -> int:
    """The depth flag, refused when the predicted leaf count exceeds LEAF_BUDGET.

    Layer n of the lamination holds branching**n leaves.  A depth beyond
    DEPTH_CAP has passed --unsafe-limits already, so its count is not needed.
    """
    d = _depth_value(args)
    n = min(d, DEPTH_CAP) + 1
    _capped((branching ** n - 1) // (branching - 1), LEAF_BUDGET, "predicted leaf count", args)
    return d


def _fmt_c(z: complex) -> str:
    return "%.12g%+.12gi" % (z.real, z.imag)


@contextlib.contextmanager
def _int_str_digits_unlimited():
    """Lift Python's int/str digit limit (3.10.7 and later) for the block only.

    Long periods give exact values with more digits than the default limit
    of 4300 allows; the process-wide limit is restored afterwards.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# angle subcommand
# ---------------------------------------------------------------------------

def _cmd_angle_x0(args) -> int:
    _req(args, "theta")
    theta = _angle_value(args.theta)
    m = None if args.terms is None else _capped(
        _int_value(args.terms, "terms"), ITER_CAP, "terms", args)
    x0 = x0_digits(theta)
    stream = x0_digit_stream(theta)
    enclosure = None if m is None else x0_series(theta, m) + (m + 1,)
    print(x0)
    print(stream)
    if enclosure is not None:
        print("enclosure [%s, %s] width 2^-%d" % enclosure)
    return 0


def _cmd_angle_y0(args) -> int:
    _req(args, "theta")
    print(y0_from_theta(_angle_value(args.theta)))
    return 0


def _cmd_angle_nu(args) -> int:
    _req(args, "theta", "m")
    theta = _angle_value(args.theta)
    m = _int_value(args.m, "m")
    print(nu(theta, m))
    return 0


def _cmd_angle_digits(args) -> int:
    _req(args, "theta")
    theta = _angle_value(args.theta)
    sh = _count_value(args.shift, "shift")
    n = (None if args.count is None
         else _capped(_count_value(args.count, "count"), ITER_CAP, "count", args))
    den = theta.denominator
    theta = Fraction(theta.numerator * pow(2, sh, den) % den, den)  # frac(2^sh theta)
    s = digit_stream(theta)
    print(theta)
    print(s)
    if n is not None:
        print("".join(str(b) for b in s.prefix(n)))
    return 0


def _cmd_angle_orbit_type(args) -> int:
    _req(args, "theta")
    t = orbit_type(_angle_value(args.theta))
    print("%s preperiod=%d period=%d" % (t.tag, t.preperiod, t.period))
    return 0


def _cmd_angle_mu(args) -> int:
    _req(args, "z", "theta")
    from .measure import mu_weight

    cap = None if args.cap is None else _int_value(args.cap, "cap")
    print(mu_weight(_angle_value(args.z), _angle_value(args.theta), cap))
    return 0


def _cmd_angle_h_arc(args) -> int:
    _req(args, "z", "theta")
    from .measure import h_arc

    cap = None if args.cap is None else _int_value(args.cap, "cap")
    ha = h_arc(_angle_value(args.z), _angle_value(args.theta), cap)
    print(ha.arc)
    print("enclosure %s" % ha.enclosure)
    return 0


def _cmd_angle_preimages(args) -> int:
    _req(args, "theta", "depth")
    from .measure import preimages_of_angle

    n = _depth_value(args)
    for t in preimages_of_angle(_angle_value(args.theta), n):
        print(t)
    return 0


def _cmd_angle_sigma(args) -> int:
    from .measure import sigma0_arc, sigma_lengths_periodic

    if args.period is not None:
        p = _int_value(args.period, "period")
        for ln in sigma_lengths_periodic(p):
            print(ln)
        return 0
    if args.theta is None:
        raise UsageError("sigma needs --theta (arc) or --period (lengths)")
    arc = sigma0_arc(_angle_value(args.theta))
    print(arc)
    print("length %s" % arc.length)
    return 0


def _cmd_angle_semiconj(args) -> int:
    _req(args, "theta")
    from .measure import semiconjugacy_check

    n = _capped(_int_value(args.samples, "samples"), ITER_CAP, "samples", args)
    if n < 1:
        raise UsageError("samples must be >= 1")
    cap = _int_value(args.cap, "cap")
    samples = [Fraction(k, n) for k in range(n)]
    rep = semiconjugacy_check(_angle_value(args.theta), samples, cap)
    print("samples %d skipped %d max-defect %s"
          % (len(rep.entries), len(rep.skipped), rep.max_defect))
    return 0


# ---------------------------------------------------------------------------
# lam subcommand
# ---------------------------------------------------------------------------

def _emit_lamination(lam, args) -> int:
    from .svg import render_svg

    if getattr(args, "leaves", None):
        _write_text(args.leaves, lam.to_text())
        print("wrote %s" % args.leaves)
    if getattr(args, "svg", None):
        _write_text(args.svg, render_svg(
            lam, color_by_depth=_truthy(getattr(args, "color_by_depth", False))))
        print("wrote %s" % args.svg)
    print("leaves: %d" % len(lam))
    return 0


def _cmd_lam_L0(args) -> int:
    _req(args, "theta", "depth")
    from .laminations import build_L0

    cap = None if args.measure_cap is None else _int_value(args.measure_cap, "measure-cap")
    return _emit_lamination(
        build_L0(_angle_value(args.theta), _leaf_depth(args, 2), cap), args)


def _cmd_lam_L(args) -> int:
    _req(args, "theta", "depth")
    from .laminations import build_L, mirror_outside

    lam = build_L(_angle_value(args.theta), _leaf_depth(args, 4))
    if _truthy(args.mirror):
        lam = mirror_outside(lam)
    return _emit_lamination(lam, args)


def _cmd_lam_two_sided(args) -> int:
    _req(args, "theta", "depth")
    from .laminations import build_2L

    return _emit_lamination(
        build_2L(_angle_value(args.theta), _leaf_depth(args, 2)), args)


def _cmd_lam_quadratic(args) -> int:
    from .laminations import Leaf, build_quadratic_lamination, leaf_in_quadratic_lamination

    _req(args, "y0")
    y0 = _angle_value(args.y0)
    if args.leaf is not None:
        leaf = Leaf(*_chord_value(args.leaf, "leaf"))
        print("member" if leaf_in_quadratic_lamination(y0, leaf) else "non-member")
        return 0
    _req(args, "depth")
    return _emit_lamination(build_quadratic_lamination(y0, _depth_value(args)), args)


def _cmd_lam_basilica(args) -> int:
    _req(args, "depth")
    from .laminations import build_basilica

    return _emit_lamination(build_basilica(_depth_value(args)), args)


def _cmd_lam_mate(args) -> int:
    _req(args, "outer_y0", "depth")
    from .laminations import build_basilica, build_quadratic_lamination, mate

    depth = _depth_value(args)
    inner = (build_basilica(depth) if args.inner_y0 is None
             else build_quadratic_lamination(_angle_value(args.inner_y0), depth))
    outer = build_quadratic_lamination(_angle_value(args.outer_y0), depth)
    return _emit_lamination(mate(inner, outer), args)


def _cmd_lam_check_invariance(args) -> int:
    _req(args, "theta", "depth")
    from .laminations import build_2L, check_two_sided_invariance

    depth = _depth_value(args)
    at = depth - 1 if args.at_depth is None else _int_value(args.at_depth, "at-depth")
    rep = check_two_sided_invariance(build_2L(_angle_value(args.theta), depth), at)
    print("checked %d failures %d" % (rep.checked, len(rep.failures)))
    for leaf, kind in rep.failures[:16]:
        print("failure %s %s" % (kind, leaf))
    return 0 if rep.ok else 1


def _cmd_lam_regions(args) -> int:
    _req(args, "theta", "depth")
    from .laminations import build_2L, complementary_regions

    side = _choice(args, "side", SIDES)
    lam = build_2L(_angle_value(args.theta), _depth_value(args))
    regions = complementary_regions(lam.side_leaves(side))
    print("regions: %d" % len(regions))
    for cyc in regions:
        print(" ".join("%s(%s,%s)" % (kind, a, b) for kind, a, b in cyc))
    return 0


def _cmd_lam_cross(args) -> int:
    _req(args, "leaf1", "leaf2")
    from .laminations import Leaf, leaves_cross

    side = _choice(args, "side", SIDES)
    l1 = Leaf(*_chord_value(args.leaf1, "leaf1"), side)
    l2 = Leaf(*_chord_value(args.leaf2, "leaf2"), side)
    print("cross" if leaves_cross(l1, l2) else "disjoint")
    return 0


# ---------------------------------------------------------------------------
# sym subcommand
# ---------------------------------------------------------------------------

def _cmd_sym_critical_address(args) -> int:
    _req(args, "theta")
    from .symbolic import critical_address

    for a in critical_address(_angle_value(args.theta)):
        print(a)
    return 0


def _cmd_sym_equiv(args) -> int:
    _req(args, "x", "y", "theta")
    from .symbolic import Address, addr_equivalent

    x = Address.parse(str(args.x))
    y = Address.parse(str(args.y))
    eq = addr_equivalent(x, y, _angle_value(args.theta))
    print("equivalent" if eq else "not equivalent")
    return 0


def _cmd_sym_angle_to_address(args) -> int:
    from .symbolic import Address, address_to_angle, angle_to_address

    sh = _count_value(args.shift, "shift")
    if args.address is not None:
        if args.theta is not None:
            raise UsageError("give either --theta or --address, not both")
        a = Address.parse(str(args.address))
        print(address_to_angle(a.shift(sh)))
        return 0
    if args.theta is None:
        raise UsageError("angle-to-address needs --theta or --address")
    a = angle_to_address(_angle_value(args.theta))
    print(a.shift(sh))
    return 0


def _cmd_sym_match_leaves(args) -> int:
    _req(args, "theta", "depth")
    from .symbolic import leaf_addresses_match

    rep = leaf_addresses_match(_angle_value(args.theta), _depth_value(args))
    print(rep)
    return 0 if rep.ok else 1


def _cmd_sym_reg_ray(args) -> int:
    _req(args, "symbol")
    from .symbolic import RegulatedRaySymbol, regulated_ray_image, regulated_ray_preimage

    op = _choice(args, "op", ("image", "preimage"))
    g = RegulatedRaySymbol.parse(str(args.symbol))
    if op == "image":
        print(regulated_ray_image(g))
    else:
        for q in regulated_ray_preimage(g):
            print(q)
    return 0


def _cmd_sym_cells(args) -> int:
    _req(args, "depth")
    from .symbolic import cells_at_depth

    for w in cells_at_depth(_depth_value(args)):
        print(w)
    return 0


# ---------------------------------------------------------------------------
# dyn subcommand
# ---------------------------------------------------------------------------

def _bounds(args, defaults) -> tuple[float, float, float, float]:
    vals = []
    for name, dflt in zip(("re_min", "re_max", "im_min", "im_max"), defaults):
        v = getattr(args, name)
        vals.append(dflt if v is None else _float_value(v, name.replace("_", "-")))
    return tuple(vals)


def _cmd_dyn_m2(args) -> int:
    _req(args, "out")
    from .dynamics import m2_raster

    w = _int_value(args.width, "width")
    h = _int_value(args.height, "height")
    n_max = _capped(_int_value(args.n_max, "n-max"), ITER_CAP, "n-max", args)
    re_min, re_max, im_min, im_max = _bounds(args, (-8.0, 4.0, -6.0, 6.0))
    r = m2_raster(w, h, re_min=re_min, re_max=re_max,
                  im_min=im_min, im_max=im_max, n_max=n_max)
    r.write_pgm(args.out)
    print("wrote %s (%dx%d)" % (args.out, w, h))
    print("members: %d" % int((r.values == 0).sum()))
    return 0


def _cmd_dyn_julia(args) -> int:
    _req(args, "a")
    from .dynamics import julia_agreement, julia_raster

    method = _choice(args, "method", ("escape", "inverse"))
    a = _complex_value(args.a, "a")
    w = _int_value(args.width, "width")
    h = _int_value(args.height, "height")
    n_max = _capped(_int_value(args.n_max, "n-max"), ITER_CAP, "n-max", args)
    re_min, re_max, im_min, im_max = _bounds(args, (-3.5, 1.5, -2.5, 2.5))
    kw = dict(re_min=re_min, re_max=re_max, im_min=im_min, im_max=im_max,
              n_max=n_max,
              points=_capped(_int_value(args.points, "points"), POINTS_CAP, "points", args),
              seed=_int_value(args.seed, "seed"))
    r = julia_raster(a, w, h, method=method, **kw)
    if args.out:
        if str(args.out).endswith(".ppm"):
            r.write_ppm(args.out)
        else:
            r.write_pgm(args.out)
        print("wrote %s (%dx%d)" % (args.out, w, h))
    if _truthy(args.agreement):
        esc = r if method == "escape" else julia_raster(a, w, h, method="escape", **kw)
        inv = r if method == "inverse" else julia_raster(a, w, h, method="inverse", **kw)
        print("agreement: %.4f" % julia_agreement(esc, inv))
    print("zero-side pixels: %d" % int((r.values > 0).sum()))
    print("infinity-side pixels: %d" % int((r.values < 0).sum()))
    return 0


def _cmd_dyn_fixed(args) -> int:
    _req(args, "a")
    from .dynamics import fixed_point_multiplier, fixed_points, trap_radii

    a = _complex_value(args.a, "a")
    # Compute everything first, so a numeric failure prints no partial table.
    rows = [(z, fixed_point_multiplier(a, z)) for z in fixed_points(a)]
    rho, r_out = trap_radii(a)
    for z, m in rows:
        print("z = %s  multiplier = %s" % (_fmt_c(z), _fmt_c(m)))
        if _fmt_c(z) in ("-2+0i", "-2-0i"):
            # the point -2 + a/4 + ... prints as the pole; z + 2 = a/z^2 by
            # z^2 (z + 2) = a, to a few roundings
            print("    z + 2 = %s" % _fmt_c(a / (z * z)))
    print("trap rho = %.12g  R = %.12g" % (rho, r_out))
    return 0


def _cmd_dyn_green(args) -> int:
    _req(args, "a", "z")
    from .dynamics import (
        apply_f,
        attracted_to_supercycle,
        boettcher_infty,
        green_value,
        is_infinite,
    )

    a = _complex_value(args.a, "a")
    z = _complex_value(args.z, "z")
    n = _count_value(args.n, "n")
    orbit = _count_value(args.orbit, "orbit")
    print("G = %.15g" % green_value(a, z, n))
    if _truthy(args.boettcher):
        print("phi = %s" % _fmt_c(boettcher_infty(a, z)))
    if _truthy(args.trap):
        hit, k = attracted_to_supercycle(a, z)
        print("attracted: %s%s" % (hit, "" if k is None else " at step %d" % k))
    w = z
    for i in range(orbit):
        w = apply_f(a, w)
        print("f^%d = %s" % (i + 1, "inf" if is_infinite(w) else _fmt_c(w)))
    return 0


def _ray_summary(path) -> None:
    print("points: %d" % len(path.points))
    s_last, z_last, res_last = path.points[-1]
    print("last: s=%.6g z=%s residual=%.3g" % (s_last, _fmt_c(z_last), res_last))
    if path.crashed:
        print("crashed: s=%.9g at %s" % (path.crash_potential, _fmt_c(path.crash_point)))
    if not path.complete:
        print("incomplete: %s" % path.note)
    if path.landing is not None and not path.crashed and path.complete:
        print("landing ~ %s (err %.2g)" % (_fmt_c(path.landing), path.landing_err))


def _cmd_dyn_ray(args) -> int:
    _req(args, "a", "theta")
    from .dynamics import trace_dynamical_ray

    path = trace_dynamical_ray(
        _complex_value(args.a, "a"), _choice(args, "base", ("inf", "0")),
        _angle_value(args.theta),
        s_from=_float_value(args.s_from, "s-from"),
        s_to=_float_value(args.s_to, "s-to"),
        steps=_capped(_int_value(args.steps, "steps"), ITER_CAP, "steps", args))
    if args.out:
        _write_text(args.out, path.to_csv())
        print("wrote %s" % args.out)
    _ray_summary(path)
    return 0


def _cmd_dyn_param_ray(args) -> int:
    _req(args, "theta")
    from .dynamics import critical_value_angle_error, trace_parameter_ray

    theta = _angle_value(args.theta)
    path = trace_parameter_ray(
        theta,
        s_from=_float_value(args.s_from, "s-from"),
        s_to=_float_value(args.s_to, "s-to"),
        steps=_capped(_int_value(args.steps, "steps"), ITER_CAP, "steps", args))
    if args.out:
        _write_text(args.out, path.to_csv())
        print("wrote %s" % args.out)
    _ray_summary(path)
    if _truthy(args.angle_errors):
        worst = max(critical_value_angle_error(a, theta) for _, a, _ in path.points)
        print("max angle error: %.3g" % worst)
    return 0


def _cmd_dyn_ray_leaves(args) -> int:
    _req(args, "a", "depth")
    from .dynamics import ray_leaf_endpoints

    theta0 = None if args.theta0 is None else _angle_value(args.theta0)
    leaves = ray_leaf_endpoints(
        _complex_value(args.a, "a"), _depth_value(args), theta0=theta0)
    lines = []
    for lf in leaves:
        lines.append("%d %s %.9f %.9f err=%.2g%s" % (
            lf.depth, lf.side, lf.t1, lf.t2, lf.err,
            " unresolved" if lf.unresolved else ""))
    text = "".join(ln + "\n" for ln in lines)
    if args.out:
        _write_text(args.out, text)
        print("wrote %s" % args.out)
    sys.stdout.write(text)
    return 0


def _cmd_dyn_blaschke(args) -> int:
    _req(args, "b")
    from .dynamics import blaschke_critical_points, blaschke_eval

    b = _complex_value(args.b, "b")
    c1, c2 = blaschke_critical_points(b)
    # evaluate before printing, so a failure prints nothing
    value = None if args.z is None else blaschke_eval(b, _complex_value(args.z, "z"))
    print("c1 = %s" % _fmt_c(c1))
    print("c2 = %s" % _fmt_c(c2))
    if value is not None:
        print("B(z) = %s" % _fmt_c(value))
    return 0


# ---------------------------------------------------------------------------
# check subcommand
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    from .checks import GROUPS, CheckParams, run_suite

    which = str(args.which)
    groups = GROUPS if which == "all" else (which,)
    thetas = tuple(_angle_value(t) for t in str(args.theta_set).split(","))
    params = CheckParams(
        thetas=thetas,
        depth=_depth_value(args),
        seed=_int_value(args.seed, "seed"),
        samples=_int_value(args.samples, "samples"),
        raster_size=_int_value(args.raster_size, "raster-size"),
        raster_iters=_capped(_int_value(args.n_max, "n-max"), ITER_CAP, "n-max", args),
        ray_steps=_capped(_int_value(args.steps, "steps"), ITER_CAP, "steps", args),
        leaf_depth=_depth_value(args, "leaf_depth"),
    )
    results = run_suite(groups, params)
    ok = True
    for r in results:
        print(json.dumps(dataclasses.asdict(r)) if _truthy(args.json) else r.line())
        print("check %02d took %.2fs" % (r.number, r.seconds), file=sys.stderr)
        ok = ok and r.ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _sub(subparsers, name: str, help_text: str, example: str, registry: list):
    p = subparsers.add_parser(
        name, help=help_text, description=help_text,
        epilog="example:\n  %s" % example,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--unsafe-limits", action="store_true",
                   help="lift the depth/iteration caps")
    registry.append(p)
    return p


def _build_parser() -> _Parser:
    top = _Parser(
        prog="v2lam",
        description=("Exact angle correspondences, invariant laminations, "
                     "binary addresses, and dynamics numerics for the "
                     "quadratic-rational family a/(z^2+2z)."),
        epilog="Pass --config PATH anywhere to preload key=value flag defaults.")
    top.add_argument("--config", help="key=value defaults file (handled upfront)")
    registry: list = [top]
    cmds = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # angle ---------------------------------------------------------------
    angle = cmds.add_parser("angle", help="exact circle-angle computations")
    asub = angle.add_subparsers(dest="sub", required=True, metavar="OP")

    p = _sub(asub, "x0", "interleaved digit angle x0 and its digit stream",
             "v2lam angle x0 --theta 1/6", registry)
    p.add_argument("--theta")
    p.add_argument("--terms", help="also print the series enclosure with this many terms")
    p.set_defaults(func=_cmd_angle_x0)

    p = _sub(asub, "y0", "quadratic external angle y0",
             "v2lam angle y0 --theta 1/2", registry)
    p.add_argument("--theta")
    p.set_defaults(func=_cmd_angle_y0)

    p = _sub(asub, "nu", "comparison bit nu_m(theta)",
             "v2lam angle nu --theta 1/6 --m 2", registry)
    p.add_argument("--theta")
    p.add_argument("--m")
    p.set_defaults(func=_cmd_angle_nu)

    p = _sub(asub, "digits", "binary digit stream (optionally after doublings)",
             "v2lam angle digits --theta 1/6 --count 8", registry)
    p.add_argument("--theta")
    p.add_argument("--count", help="also print this many leading digits")
    p.add_argument("--shift", default="0", help="apply the doubling map this many times first")
    p.set_defaults(func=_cmd_angle_digits)

    p = _sub(asub, "orbit-type", "doubling-orbit classification",
             "v2lam angle orbit-type --theta 3/10", registry)
    p.add_argument("--theta")
    p.set_defaults(func=_cmd_angle_orbit_type)

    p = _sub(asub, "mu", "atom weight of the blow-up measure",
             "v2lam angle mu --z 1/2 --theta 1/2", registry)
    p.add_argument("--z")
    p.add_argument("--theta")
    p.add_argument("--cap", help="truncation depth (default: full series)")
    p.set_defaults(func=_cmd_angle_mu)

    p = _sub(asub, "h-arc", "blow-up preimage arc of an angle",
             "v2lam angle h-arc --z 1/2 --theta 1/2 --cap 30", registry)
    p.add_argument("--z")
    p.add_argument("--theta")
    p.add_argument("--cap", help="truncation depth (default: full series)")
    p.set_defaults(func=_cmd_angle_h_arc)

    p = _sub(asub, "preimages", "doubling preimages (theta+k)/2^n",
             "v2lam angle preimages --theta 1/2 --depth 2", registry)
    p.add_argument("--theta")
    p.add_argument("--depth")
    p.set_defaults(func=_cmd_angle_preimages)

    p = _sub(asub, "sigma", "critical arc, or periodic-generator arc lengths",
             "v2lam angle sigma --period 2", registry)
    p.add_argument("--theta", help="print the critical arc for this generator")
    p.add_argument("--period", help="print the periodic arc lengths for this period")
    p.set_defaults(func=_cmd_angle_sigma)

    p = _sub(asub, "semiconj", "doubling/quadrupling semiconjugacy defect report",
             "v2lam angle semiconj --theta 1/2 --samples 64 --cap 24", registry)
    p.add_argument("--theta")
    p.add_argument("--samples", default="64", help="number of evenly spaced sample points")
    p.add_argument("--cap", default="24", help="truncation depth")
    p.set_defaults(func=_cmd_angle_semiconj)

    # lam -----------------------------------------------------------------
    lam = cmds.add_parser("lam", help="invariant laminations and reports")
    lsub = lam.add_subparsers(dest="sub", required=True, metavar="OP")

    def lam_common(p, theta=True):
        if theta:
            p.add_argument("--theta")
        p.add_argument("--depth")
        p.add_argument("--svg", help="write an SVG rendering here")
        p.add_argument("--leaves", help="write a leaf file here")
        p.add_argument("--color-by-depth", action="store_true",
                       help="SVG: color leaves by depth instead of side")

    p = _sub(lsub, "L0", "pullback lamination of the critical leaf",
             "v2lam lam L0 --theta 1/2 --depth 4", registry)
    lam_common(p)
    p.add_argument("--measure-cap", help="truncation depth for leaf placement")
    p.set_defaults(func=_cmd_lam_L0)

    p = _sub(lsub, "L", "inside lamination (optionally mirrored outside)",
             "v2lam lam L --theta 1/2 --depth 4 --svg out.svg", registry)
    lam_common(p)
    p.add_argument("--mirror", action="store_true",
                   help="emit the outside mirror instead")
    p.set_defaults(func=_cmd_lam_L)

    p = _sub(lsub, "two-sided", "two-sided lamination",
             "v2lam lam two-sided --theta 1/2 --depth 6 --svg out.svg --leaves out.leaves", registry)
    lam_common(p)
    p.set_defaults(func=_cmd_lam_two_sided)

    p = _sub(lsub, "quadratic", "quadratic-polynomial lamination (or one-leaf test)",
             "v2lam lam quadratic --y0 1/3 --depth 5", registry)
    p.add_argument("--y0")
    lam_common(p, theta=False)
    p.add_argument("--leaf", help="test membership of one chord a/b,c/d instead")
    p.set_defaults(func=_cmd_lam_quadratic)

    p = _sub(lsub, "basilica", "basilica lamination",
             "v2lam lam basilica --depth 6 --svg basilica.svg", registry)
    lam_common(p, theta=False)
    p.set_defaults(func=_cmd_lam_basilica)

    p = _sub(lsub, "mate", "mating: inside lamination + negated outside lamination",
             "v2lam lam mate --outer-y0 1/3 --depth 5", registry)
    lam_common(p, theta=False)
    p.add_argument("--outer-y0")
    p.add_argument("--inner-y0", help="inside generator (default: basilica)")
    p.set_defaults(func=_cmd_lam_mate)

    p = _sub(lsub, "check-invariance", "two-sided invariance report",
             "v2lam lam check-invariance --theta 1/2 --depth 6", registry)
    p.add_argument("--theta")
    p.add_argument("--depth")
    p.add_argument("--at-depth", help="check depth (default: depth-1)")
    p.set_defaults(func=_cmd_lam_check_invariance)

    p = _sub(lsub, "regions", "complementary regions of one side",
             "v2lam lam regions --theta 1/2 --depth 3 --side I", registry)
    p.add_argument("--theta")
    p.add_argument("--depth")
    p.add_argument("--side", default="I")
    p.set_defaults(func=_cmd_lam_regions)

    p = _sub(lsub, "cross", "do two same-side chords cross?",
             "v2lam lam cross --leaf1 0,1/2 --leaf2 1/4,3/4", registry)
    p.add_argument("--leaf1")
    p.add_argument("--leaf2")
    p.add_argument("--side", default="I")
    p.set_defaults(func=_cmd_lam_cross)

    # sym -----------------------------------------------------------------
    sym = cmds.add_parser("sym", help="binary addresses and ray symbols")
    ssub = sym.add_subparsers(dest="sub", required=True, metavar="OP")

    p = _sub(ssub, "critical-address", "the two addresses of the critical point",
             "v2lam sym critical-address --theta 1/2", registry)
    p.add_argument("--theta")
    p.set_defaults(func=_cmd_sym_critical_address)

    p = _sub(ssub, "equiv", "address equivalence under the identification rules",
             'v2lam sym equiv --x "0|(10)" --y "1|(01)" --theta 1/2', registry)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--theta")
    p.set_defaults(func=_cmd_sym_equiv)

    p = _sub(ssub, "angle-to-address", "angle to address (or back with --address)",
             "v2lam sym angle-to-address --theta 1/4", registry)
    p.add_argument("--theta")
    p.add_argument("--address", help="convert this address to an angle instead")
    p.add_argument("--shift", default="0", help="apply the shift this many times")
    p.set_defaults(func=_cmd_sym_angle_to_address)

    p = _sub(ssub, "match-leaves", "two-way lamination/address comparison",
             "v2lam sym match-leaves --theta 1/2 --depth 6", registry)
    p.add_argument("--theta")
    p.add_argument("--depth")
    p.set_defaults(func=_cmd_sym_match_leaves)

    p = _sub(ssub, "reg-ray", "regulated-ray symbol rewrite",
             'v2lam sym reg-ray --symbol "G(0;1/2)" --op preimage', registry)
    p.add_argument("--symbol")
    p.add_argument("--op", default="image")
    p.set_defaults(func=_cmd_sym_reg_ray)

    p = _sub(ssub, "cells", "all binary cell labels of one depth",
             "v2lam sym cells --depth 2", registry)
    p.add_argument("--depth")
    p.set_defaults(func=_cmd_sym_cells)

    # dyn -----------------------------------------------------------------
    dyn = cmds.add_parser("dyn", help="rasters, rays, and numerics")
    dsub = dyn.add_subparsers(dest="sub", required=True, metavar="OP")

    def grid_common(p):
        p.add_argument("--width", default="400")
        p.add_argument("--height", default="400")
        p.add_argument("--re-min")
        p.add_argument("--re-max")
        p.add_argument("--im-min")
        p.add_argument("--im-max")
        p.add_argument("--n-max", default="512")

    p = _sub(dsub, "m2", "parameter-plane membership raster (PGM + sidecar)",
             "v2lam dyn m2 --width 400 --height 400 --out m2.pgm", registry)
    grid_common(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dyn_m2)

    p = _sub(dsub, "julia", "Julia-set raster by escape or inverse iteration",
             "v2lam dyn julia --a 6 --width 400 --height 400 --out julia.ppm", registry)
    grid_common(p)
    p.add_argument("--a")
    p.add_argument("--method", default="escape")
    p.add_argument("--points", default="200000", help="inverse-iteration sample count")
    p.add_argument("--seed", default="0")
    p.add_argument("--out")
    p.add_argument("--agreement", action="store_true",
                   help="print the escape/inverse agreement fraction")
    p.set_defaults(func=_cmd_dyn_julia)

    p = _sub(dsub, "fixed", "fixed points, multipliers, and trap radii",
             "v2lam dyn fixed --a 1", registry)
    p.add_argument("--a")
    p.set_defaults(func=_cmd_dyn_fixed)

    p = _sub(dsub, "green", "Green value (plus Boettcher/trap/orbit views)",
             "v2lam dyn green --a 6 --z 3,1 --boettcher", registry)
    p.add_argument("--a")
    p.add_argument("--z")
    p.add_argument("--n", default="64")
    p.add_argument("--boettcher", action="store_true")
    p.add_argument("--trap", action="store_true")
    p.add_argument("--orbit", default="0", help="print this many forward iterates")
    p.set_defaults(func=_cmd_dyn_green)

    p = _sub(dsub, "ray", "dynamical ray from infinity or toward zero",
             "v2lam dyn ray --a 6 --base inf --theta 0 --out ray.csv", registry)
    p.add_argument("--a")
    p.add_argument("--base", default="inf")
    p.add_argument("--theta")
    p.add_argument("--s-from", default="8")
    p.add_argument("--s-to", default="0.001")
    p.add_argument("--steps", default="200")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dyn_ray)

    p = _sub(dsub, "param-ray", "external parameter ray in the a-plane",
             "v2lam dyn param-ray --theta 1/6 --s-to 0.05 --out pray.csv", registry)
    p.add_argument("--theta")
    p.add_argument("--s-from", default="8")
    p.add_argument("--s-to", default="0.05")
    p.add_argument("--steps", default="200")
    p.add_argument("--out")
    p.add_argument("--angle-errors", action="store_true",
                   help="re-evaluate the critical-value angle along the ray")
    p.set_defaults(func=_cmd_dyn_param_ray)

    p = _sub(dsub, "ray-leaves", "saddle ray-leaf circle coordinates",
             "v2lam dyn ray-leaves --a=-0.37,-2.97 --depth 2 --theta0 1/6", registry)
    p.add_argument("--a")
    p.add_argument("--depth")
    p.add_argument("--theta0", help="calibrate circle orientation for this generator")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dyn_ray_leaves)

    p = _sub(dsub, "blaschke", "Blaschke factor critical points and values",
             "v2lam dyn blaschke --b 0.5,0 --z 0.3,0.1", registry)
    p.add_argument("--b")
    p.add_argument("--z")
    p.set_defaults(func=_cmd_dyn_blaschke)

    # check ---------------------------------------------------------------
    p = _sub(cmds, "check", "run the verification suites",
             "v2lam check all --theta-set 1/2,1/6,5/12 --depth 8", registry)
    p.add_argument("which", choices=("all", "angle", "lam", "sym", "dyn"))
    p.add_argument("--theta-set", default="1/2,1/6,5/12")
    p.add_argument("--depth", default="8")
    p.add_argument("--seed", default="0")
    p.add_argument("--samples", default="200")
    p.add_argument("--raster-size", default="400")
    p.add_argument("--n-max", default="512")
    p.add_argument("--steps", default="200")
    p.add_argument("--leaf-depth", default="3")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per check: number, name, group, ok, "
                        "detail, seconds")
    p.set_defaults(func=_cmd_check)

    top.all_parsers = tuple(registry)
    return top


@functools.cache
def _shared_parser() -> _Parser:
    """The parser without config defaults, built on first use and reused."""
    return _build_parser()


# ---------------------------------------------------------------------------
# config + entry point
# ---------------------------------------------------------------------------

def _extract_config(argv: list[str]) -> tuple[list[str], dict]:
    out: list[str] = []
    path = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            path = argv[i + 1]
            i += 2
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
            i += 1
        else:
            out.append(arg)
            i += 1
    cfg: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError("cannot read config %s: %s" % (path, exc))
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError("config %s line %d: expected key=value" % (path, lineno))
            key, val = line.split("=", 1)
            cfg[key.strip().replace("-", "_")] = val.strip()
    return out, cfg


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, cfg = _extract_config(argv)
        if cfg:
            # config values become parser defaults, so they get a parser of their own
            parser = _build_parser()
            for p in parser.all_parsers:
                p.set_defaults(**cfg)
        else:
            parser = _shared_parser()
        args = parser.parse_args(argv)
        with _int_str_digits_unlimited():
            return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        print("run 'v2lam --help' for the flag grammar", file=sys.stderr)
        return 64
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except NumericError as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 74


if __name__ == "__main__":
    sys.exit(main())
