"""Command-line front end.

Five subcommands expose the library: ``angle`` (exact angle correspondences
and measure/blow-up values), ``lam`` (lamination builders, reports, SVG and
leaf files), ``sym`` (binary addresses and regulated-ray symbols), ``dyn``
(rasters, rays, ray leaves and related numerics), and ``check`` (the twelve
verification suites).

Conventions: long flags only; angles are written ``p/q``; complex numbers
are written ``re,im`` (use ``--a=-1.5,2`` syntax for negative reals).
Depth-like flags are capped at 16, iteration-like, count and size flags at
4096 (``dyn julia --points`` at 2^20), a raster at 2^22 pixels, and the
leaf count a ``lam L``/``L0``/``two-sided`` request predicts at 2^17 unless
``--unsafe-limits`` is given.  A flag of count kind (``--depth``,
``--cap``, ``--count``, ...) refuses a negative value, and ``--n-max``,
``--points`` and ``--samples`` refuse 0 too.  A flag that takes one word
of a fixed set (``--side``, ``--op``, ``--method``, ``--base``) refuses
any other word as a usage error.  ``--config PATH`` reads ``key=value``
lines (keys are flag names without the dashes) used as defaults; a key
that is no command's flag is a usage error.  Exit codes:
0 success, 1 domain error, 2 numeric failure, 64 usage error (sysexits
``EX_USAGE``), 74 I/O error such as an unwritable output path (sysexits
``EX_IOERR``).

A flag's grammar lives where ``_build_parser`` declares it: ``_flag`` gives
it a kind, the converter argparse applies alike to the flag's text and to a
config value, and a default or ``REQUIRED``.  ``CAPS`` holds the cap of
every size flag.  ``_checked`` refuses a missing required flag and a value
over its cap, so the handlers receive typed values; they keep only the
requirements that depend on other flags and the leaf and pixel budgets.

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
    NumericError,
    digit_stream,
    double,
    nu,
    orbit_type,
    x0_digit_stream,
    x0_digits,
    x0_series,
    y0_from_theta,
)

DEPTH_CAP = 16
ITER_CAP = 4096
#: Inverse-iteration samples of ``dyn julia``: admits the default 200,000.
POINTS_CAP = 1 << 20
SIDES = ("I", "O")
#: Leaves a lamination request may predict: 2^(d+1) - 1 for two-sided and
#: L0 stay within it up to DEPTH_CAP, the sum of 4^n for L up to depth 8.
LEAF_BUDGET = 1 << 17
#: Pixels a raster may allocate before its first step: admits 2048 x 2048.
PIXEL_BUDGET = 1 << 22
#: The cap of every size flag, by config key; --unsafe-limits lifts them.
CAPS = {
    "depth": DEPTH_CAP, "leaf_depth": DEPTH_CAP,
    "n_max": ITER_CAP, "steps": ITER_CAP, "terms": ITER_CAP, "samples": ITER_CAP,
    "count": ITER_CAP, "period": ITER_CAP, "cap": ITER_CAP,
    "orbit": ITER_CAP, "n": ITER_CAP,
    "points": POINTS_CAP,
}
#: The default of a flag that needs a value, from the command line or a config.
REQUIRED = object()


class UsageError(Exception):
    """Flag-grammar violation; reported with exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


# ---------------------------------------------------------------------------
# flag kinds: each takes the flag's name and its text, from argv or a config
# ---------------------------------------------------------------------------

def _angle(what: str, text: str) -> Fraction:
    try:
        f = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad angle %r (write p/q): %s" % (text, exc))
    return f % 1


def _angles(what: str, text: str) -> tuple[Fraction, ...]:
    return tuple(_angle(what, t) for t in text.split(","))


def _int(what: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise UsageError("bad integer for %s: %r" % (what, text))


def _count(what: str, text: str, minimum: int = 0) -> int:
    n = _int(what, text)
    if n < minimum:
        raise UsageError("%s must be >= %d" % (what, minimum))
    return n


#: The kind of a size flag that must be at least 1.
_positive = functools.partial(_count, minimum=1)
#: The kind of a ray's step count: a ray needs two points.
_steps = functools.partial(_count, minimum=2)


def _float(what: str, text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise UsageError("bad number for %s: %r" % (what, text))


def _complex(what: str, text: str) -> complex:
    parts = text.strip().split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise UsageError("bad complex for %s: %r (write re,im)" % (what, text))


def _chord(what: str, text: str) -> tuple[Fraction, Fraction]:
    pair = text.split(",")
    if len(pair) != 2:
        raise UsageError("bad chord for %s: %r (write a/b,c/d)" % (what, text))
    return _angle(what, pair[0]), _angle(what, pair[1])


def _one_of(*allowed: str):
    """The kind of a flag that takes one word of a fixed set."""
    def word(what: str, text: str) -> str:
        if text not in allowed:
            raise UsageError("--%s must be one of %s, not %r" % (what, ", ".join(allowed), text))
        return text
    return word


def _truthy(text: str) -> bool:
    s = text.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off", ""):
        return False
    raise UsageError("bad boolean value %r" % text)


class _Switch(argparse.Action):
    """A store-true flag whose config text (``true``, ``0``, ...) argparse converts."""

    def __init__(self, option_strings, dest, help=None):  # noqa: A002 - argparse API
        super().__init__(option_strings, dest, nargs=0, default=False, type=_truthy, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True)


def _flag(p, name: str, kind=None, default=None, help=None) -> None:  # noqa: A002
    """Declare ``--name``: argparse converts its text with ``kind(name, text)``."""
    p.add_argument("--" + name, default=default, help=help,
                   type=None if kind is None else functools.partial(kind, name))


# ---------------------------------------------------------------------------
# the checks after parsing, and the budgets the handlers keep
# ---------------------------------------------------------------------------

def _missing(dest: str) -> UsageError:
    return UsageError("--%s is required (give the flag or a config default)"
                      % dest.replace("_", "-"))


def _capped(value: int, cap: int, what: str, args) -> None:
    if value > cap and not args.unsafe_limits:
        raise UsageError("%s %d exceeds the cap %d; pass --unsafe-limits to override"
                         % (what, value, cap))


def _checked(args):
    """The parsed flags, once none is missing and no size flag exceeds its cap."""
    # argparse fills the namespace in the order the flags are declared
    for dest, value in vars(args).items():
        if value is REQUIRED:
            raise _missing(dest)
    for dest, cap in CAPS.items():
        value = getattr(args, dest, None)
        if isinstance(value, int):  # a config key the command has no flag for stays text
            _capped(value, cap, dest.replace("_", "-"), args)
    return args


def _leaf_depth(args, branching: int) -> int:
    """The depth flag, refused when the predicted leaf count exceeds LEAF_BUDGET.

    Layer n of the lamination holds branching**n leaves.  A depth beyond
    DEPTH_CAP has passed --unsafe-limits already, so its count is not needed.
    """
    n = min(args.depth, DEPTH_CAP) + 1
    _capped((branching ** n - 1) // (branching - 1), LEAF_BUDGET, "predicted leaf count", args)
    return args.depth


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
    theta, m = args.theta, args.terms
    x0 = x0_digits(theta)
    stream = x0_digit_stream(theta)
    enclosure = None if m is None else x0_series(theta, m) + (m + 1,)
    print(x0)
    print(stream)
    if enclosure is not None:
        print("enclosure [%s, %s] width 2^-%d" % enclosure)
    return 0


def _cmd_angle_y0(args) -> int:
    print(y0_from_theta(args.theta))
    return 0


def _cmd_angle_nu(args) -> int:
    print(nu(args.theta, args.m))
    return 0


def _cmd_angle_digits(args) -> int:
    theta = double(args.theta, args.shift)
    s = digit_stream(theta)
    print(theta)
    print(s)
    if args.count is not None:
        print("".join(str(b) for b in s.prefix(args.count)))
    return 0


def _cmd_angle_orbit_type(args) -> int:
    t = orbit_type(args.theta)
    print("%s preperiod=%d period=%d" % (t.tag, t.preperiod, t.period))
    return 0


def _cmd_angle_mu(args) -> int:
    from .measure import mu_weight

    print(mu_weight(args.z, args.theta, args.cap))
    return 0


def _cmd_angle_h_arc(args) -> int:
    from .measure import h_arc, truncation_width

    print(h_arc(args.z, args.theta, args.cap))
    print("enclosure %s" % truncation_width(args.cap))
    return 0


def _cmd_angle_preimages(args) -> int:
    from .measure import preimages_of_angle

    for t in preimages_of_angle(args.theta, args.depth):
        print(t)
    return 0


def _cmd_angle_sigma(args) -> int:
    from .measure import sigma0_arc, sigma_lengths_periodic

    if args.period is not None:
        for ln in sigma_lengths_periodic(args.period):
            print(ln)
        return 0
    if args.theta is None:
        raise UsageError("sigma needs --theta (arc) or --period (lengths)")
    arc = sigma0_arc(args.theta)
    print(arc)
    print("length %s" % arc.length)
    return 0


def _cmd_angle_semiconj(args) -> int:
    from .measure import semiconjugacy_check

    n = args.samples
    rep = semiconjugacy_check(args.theta, [Fraction(k, n) for k in range(n)], args.cap)
    print("samples %d skipped %d max-defect %s"
          % (len(rep.entries), len(rep.skipped), rep.max_defect))
    return 0


# ---------------------------------------------------------------------------
# lam subcommand
# ---------------------------------------------------------------------------

def _emit_lamination(lam, args) -> int:
    from .svg import render_svg

    if args.leaves:
        _write_text(args.leaves, lam.to_text())
        print("wrote %s" % args.leaves)
    if args.svg:
        _write_text(args.svg, render_svg(lam, color_by_depth=args.color_by_depth))
        print("wrote %s" % args.svg)
    print("leaves: %d" % len(lam))
    return 0


def _cmd_lam_L0(args) -> int:
    from .laminations import build_L0

    return _emit_lamination(build_L0(args.theta, _leaf_depth(args, 2)), args)


def _cmd_lam_L(args) -> int:
    from .laminations import build_L, mirror_outside

    lam = build_L(args.theta, _leaf_depth(args, 4))
    if args.mirror:
        lam = mirror_outside(lam)
    return _emit_lamination(lam, args)


def _cmd_lam_two_sided(args) -> int:
    from .laminations import build_2L

    return _emit_lamination(build_2L(args.theta, _leaf_depth(args, 2)), args)


def _cmd_lam_quadratic(args) -> int:
    from .laminations import Leaf, build_quadratic_lamination, leaf_in_quadratic_lamination

    if args.leaf is not None:
        member = leaf_in_quadratic_lamination(args.y0, Leaf(*args.leaf))
        print("member" if member else "non-member")
        return 0
    if args.depth is None:
        raise _missing("depth")
    return _emit_lamination(build_quadratic_lamination(args.y0, args.depth), args)


def _cmd_lam_basilica(args) -> int:
    from .laminations import build_basilica

    return _emit_lamination(build_basilica(args.depth), args)


def _cmd_lam_mate(args) -> int:
    from .laminations import build_basilica, build_quadratic_lamination, mate

    depth = args.depth
    inner = (build_basilica(depth) if args.inner_y0 is None
             else build_quadratic_lamination(args.inner_y0, depth))
    outer = build_quadratic_lamination(args.outer_y0, depth)
    return _emit_lamination(mate(inner, outer), args)


def _cmd_lam_check_invariance(args) -> int:
    from .laminations import build_2L, check_two_sided_invariance

    at = args.depth - 1 if args.at_depth is None else args.at_depth
    if not 0 <= at <= args.depth:
        # below 0 no leaf is checked; the leaves stop at --depth
        raise UsageError("--at-depth %d is outside 0..%d (its default is --depth minus 1)"
                         % (at, args.depth))
    rep = check_two_sided_invariance(build_2L(args.theta, args.depth), at)
    print("checked %d failures %d" % (rep.checked, len(rep.failures)))
    for leaf, kind in rep.failures[:16]:
        print("failure %s %s" % (kind, leaf))
    return 0 if rep.ok else 1


def _cmd_lam_regions(args) -> int:
    from .laminations import _turns_text, build_2L, complementary_regions

    lam = build_2L(args.theta, args.depth)
    regions = complementary_regions(lam, args.side)
    # each vertex's text once, however many edges meet there (a cycle's
    # edges start at all of its vertices)
    text = {x: _turns_text(x, lam.den) for cycle in regions for _, x, _ in cycle}
    print("regions: %d" % len(regions))
    for cycle in regions:
        print(" ".join("%s(%s,%s)" % (kind, text[x], text[y]) for kind, x, y in cycle))
    return 0


def _cmd_lam_cross(args) -> int:
    from .laminations import Leaf, leaves_cross

    l1 = Leaf(*args.leaf1, args.side)
    l2 = Leaf(*args.leaf2, args.side)
    print("cross" if leaves_cross(l1, l2) else "disjoint")
    return 0


# ---------------------------------------------------------------------------
# sym subcommand
# ---------------------------------------------------------------------------

def _cmd_sym_critical_address(args) -> int:
    from .symbolic import critical_address

    for a in critical_address(args.theta):
        print(a)
    return 0


def _cmd_sym_equiv(args) -> int:
    from .symbolic import Address, addr_equivalent

    eq = addr_equivalent(Address.parse(args.x), Address.parse(args.y), args.theta)
    print("equivalent" if eq else "not equivalent")
    return 0


def _cmd_sym_angle_to_address(args) -> int:
    from .symbolic import Address, address_to_angle, angle_to_address

    if args.address is not None:
        if args.theta is not None:
            raise UsageError("give either --theta or --address, not both")
        print(address_to_angle(Address.parse(args.address).shift(args.shift)))
        return 0
    if args.theta is None:
        raise UsageError("angle-to-address needs --theta or --address")
    print(angle_to_address(args.theta).shift(args.shift))
    return 0


def _cmd_sym_match_leaves(args) -> int:
    from .symbolic import leaf_addresses_match

    rep = leaf_addresses_match(args.theta, args.depth)
    print(rep)
    return 0 if rep.ok else 1


def _cmd_sym_reg_ray(args) -> int:
    from .symbolic import RegulatedRaySymbol, regulated_ray_image, regulated_ray_preimage

    g = RegulatedRaySymbol.parse(args.symbol)
    if args.op == "image":
        print(regulated_ray_image(g))
    else:
        for q in regulated_ray_preimage(g):
            print(q)
    return 0


def _cmd_sym_cells(args) -> int:
    from .symbolic import cells_at_depth

    for w in cells_at_depth(args.depth):
        print(w)
    return 0


# ---------------------------------------------------------------------------
# dyn subcommand
# ---------------------------------------------------------------------------

def _window(args) -> dict:
    return dict(re_min=args.re_min, re_max=args.re_max, im_min=args.im_min,
                im_max=args.im_max, n_max=args.n_max)


def _cmd_dyn_m2(args) -> int:
    from .dynamics import m2_raster

    w, h = args.width, args.height
    _capped(w * h, PIXEL_BUDGET, "pixel count", args)
    r = m2_raster(w, h, **_window(args))
    r.write_pgm(args.out)
    print("wrote %s (%dx%d)" % (args.out, w, h))
    print("members: %d" % int((r.values == 0).sum()))
    return 0


def _cmd_dyn_julia(args) -> int:
    from .dynamics import julia_agreement, julia_raster

    a, w, h, method = args.a, args.width, args.height, args.method
    _capped(w * h, PIXEL_BUDGET, "pixel count", args)
    kw = dict(_window(args), points=args.points, seed=args.seed)
    r = julia_raster(a, w, h, method=method, **kw)
    if args.out:
        if args.out.endswith(".ppm"):
            r.write_ppm(args.out)
        else:
            r.write_pgm(args.out)
        print("wrote %s (%dx%d)" % (args.out, w, h))
    if args.agreement:
        esc = r if method == "escape" else julia_raster(a, w, h, method="escape", **kw)
        inv = r if method == "inverse" else julia_raster(a, w, h, method="inverse", **kw)
        print("agreement: %.4f" % julia_agreement(esc, inv))
    if method == "inverse":
        print("hit pixels: %d" % int((r.values > 0).sum()))
    else:
        # a pixel entered the inner trap (value < 0) or the outer one (> 0)
        print("zero-side pixels: %d" % int((r.values < 0).sum()))
        print("infinity-side pixels: %d" % int((r.values > 0).sum()))
    return 0


def _cmd_dyn_fixed(args) -> int:
    from .dynamics import fixed_point_multiplier, fixed_points, trap_radii

    a = args.a
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
    from .dynamics import (
        apply_f,
        attracted_to_supercycle,
        boettcher_infty,
        green_value,
        is_infinite,
    )

    a, z = args.a, args.z
    # Compute every view first, so a failing one prints nothing.
    lines = ["G = %.15g" % green_value(a, z, args.n)]
    if args.boettcher:
        lines.append("phi = %s" % _fmt_c(boettcher_infty(a, z)))
    if args.trap:
        hit, k = attracted_to_supercycle(a, z)
        lines.append("attracted: %s%s" % (hit, "" if k is None else " at step %d" % k))
    w = z
    for i in range(args.orbit):
        w = apply_f(a, w)
        lines.append("f^%d = %s" % (i + 1, "inf" if is_infinite(w) else _fmt_c(w)))
    print("\n".join(lines))
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
    from .dynamics import trace_dynamical_ray

    path = trace_dynamical_ray(args.a, args.base, args.theta, s_from=args.s_from,
                               s_to=args.s_to, steps=args.steps)
    if args.out:
        _write_text(args.out, path.to_csv())
        print("wrote %s" % args.out)
    _ray_summary(path)
    return 0


def _cmd_dyn_param_ray(args) -> int:
    from .dynamics import critical_value_angle_error, trace_parameter_ray

    theta = args.theta
    path = trace_parameter_ray(theta, s_from=args.s_from, s_to=args.s_to, steps=args.steps)
    if args.out:
        _write_text(args.out, path.to_csv())
        print("wrote %s" % args.out)
    _ray_summary(path)
    if args.angle_errors:
        worst = max(critical_value_angle_error(a, theta) for _, a, _ in path.points)
        print("max angle error: %.3g" % worst)
    return 0


def _cmd_dyn_ray_leaves(args) -> int:
    from .dynamics import ray_leaf_endpoints

    leaves = ray_leaf_endpoints(args.a, args.depth, theta0=args.theta0)
    lines = []
    for lf in leaves:
        # a leg with no interval has no coordinate to print
        legs = " ".join("-" if leg is None else "%.9f" % t
                        for leg, t in ((lf.leg1, lf.t1), (lf.leg2, lf.t2)))
        lines.append("%d %s %s err=%.2g%s" % (
            lf.depth, lf.side, legs, lf.err, " unresolved" if lf.unresolved else ""))
    text = "".join(ln + "\n" for ln in lines)
    if args.out:
        _write_text(args.out, text)
        print("wrote %s" % args.out)
    sys.stdout.write(text)
    return 0


def _cmd_dyn_blaschke(args) -> int:
    from .dynamics import blaschke_critical_points, blaschke_eval

    c1, c2 = blaschke_critical_points(args.b)
    # evaluate before printing, so a failure prints nothing
    value = None if args.z is None else blaschke_eval(args.b, args.z)
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

    _capped(args.raster_size ** 2, PIXEL_BUDGET, "pixel count", args)
    groups = GROUPS if args.which == "all" else (args.which,)
    params = CheckParams(
        thetas=args.theta_set, depth=args.depth, seed=args.seed, samples=args.samples,
        raster_size=args.raster_size, raster_iters=args.n_max, ray_steps=args.steps,
        leaf_depth=args.leaf_depth)
    results = run_suite(groups, params)
    ok = True
    for r in results:
        print(json.dumps(dataclasses.asdict(r)) if args.json else r.line())
        print("check %02d took %.2fs" % (r.number, r.seconds), file=sys.stderr)
        ok = ok and r.ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _sub(subparsers, name: str, help_text: str, example: str, registry: list, func):
    p = subparsers.add_parser(
        name, help=help_text, description=help_text,
        epilog="example:\n  %s" % example,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--unsafe-limits", action=_Switch,
                   help="lift the depth/iteration caps")
    p.set_defaults(func=func)
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
             "v2lam angle x0 --theta 1/6", registry, _cmd_angle_x0)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "terms", _positive, help="also print the series enclosure with this many terms")

    p = _sub(asub, "y0", "quadratic external angle y0",
             "v2lam angle y0 --theta 1/2", registry, _cmd_angle_y0)
    _flag(p, "theta", _angle, REQUIRED)

    p = _sub(asub, "nu", "comparison bit nu_m(theta)",
             "v2lam angle nu --theta 1/6 --m 2", registry, _cmd_angle_nu)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "m", _count, REQUIRED)

    p = _sub(asub, "digits", "binary digit stream (optionally after doublings)",
             "v2lam angle digits --theta 1/6 --count 8", registry, _cmd_angle_digits)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "count", _count, help="also print this many leading digits")
    _flag(p, "shift", _count, 0, help="apply the doubling map this many times first")

    p = _sub(asub, "orbit-type", "doubling-orbit classification",
             "v2lam angle orbit-type --theta 3/10", registry, _cmd_angle_orbit_type)
    _flag(p, "theta", _angle, REQUIRED)

    p = _sub(asub, "mu", "atom weight of the blow-up measure",
             "v2lam angle mu --z 1/2 --theta 1/2", registry, _cmd_angle_mu)
    _flag(p, "z", _angle, REQUIRED)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "cap", _count, help="truncation depth (default: full series)")

    p = _sub(asub, "h-arc", "blow-up preimage arc of an angle",
             "v2lam angle h-arc --z 1/2 --theta 1/2 --cap 30", registry, _cmd_angle_h_arc)
    _flag(p, "z", _angle, REQUIRED)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "cap", _count, help="truncation depth (default: full series)")

    p = _sub(asub, "preimages", "doubling preimages (theta+k)/2^n",
             "v2lam angle preimages --theta 1/2 --depth 2", registry, _cmd_angle_preimages)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "depth", _count, REQUIRED)

    p = _sub(asub, "sigma", "critical arc, or periodic-generator arc lengths",
             "v2lam angle sigma --period 2", registry, _cmd_angle_sigma)
    _flag(p, "theta", _angle, help="print the critical arc for this generator")
    _flag(p, "period", _positive, help="print the periodic arc lengths for this period")

    p = _sub(asub, "semiconj", "doubling/quadrupling semiconjugacy defect report",
             "v2lam angle semiconj --theta 1/2 --samples 64 --cap 24",
             registry, _cmd_angle_semiconj)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "samples", _positive, 64, help="number of evenly spaced sample points")
    _flag(p, "cap", _count, 24, help="truncation depth")

    # lam -----------------------------------------------------------------
    lam = cmds.add_parser("lam", help="invariant laminations and reports")
    lsub = lam.add_subparsers(dest="sub", required=True, metavar="OP")

    def lam_common(p, theta=True, depth=REQUIRED):
        if theta:
            _flag(p, "theta", _angle, REQUIRED)
        _flag(p, "depth", _count, depth)
        p.add_argument("--svg", help="write an SVG rendering here")
        p.add_argument("--leaves", help="write a leaf file here")
        p.add_argument("--color-by-depth", action=_Switch,
                       help="SVG: color leaves by depth instead of side")

    p = _sub(lsub, "L0", "pullback lamination of the critical leaf",
             "v2lam lam L0 --theta 1/2 --depth 4", registry, _cmd_lam_L0)
    lam_common(p)

    p = _sub(lsub, "L", "inside lamination (optionally mirrored outside)",
             "v2lam lam L --theta 1/2 --depth 4 --svg out.svg", registry, _cmd_lam_L)
    lam_common(p)
    p.add_argument("--mirror", action=_Switch,
                   help="emit the outside mirror instead")

    p = _sub(lsub, "two-sided", "two-sided lamination",
             "v2lam lam two-sided --theta 1/2 --depth 6 --svg out.svg --leaves out.leaves",
             registry, _cmd_lam_two_sided)
    lam_common(p)

    p = _sub(lsub, "quadratic", "quadratic-polynomial lamination (or one-leaf test)",
             "v2lam lam quadratic --y0 1/3 --depth 5", registry, _cmd_lam_quadratic)
    _flag(p, "y0", _angle, REQUIRED)
    lam_common(p, theta=False, depth=None)  # required only without --leaf
    _flag(p, "leaf", _chord, help="test membership of one chord a/b,c/d instead")

    p = _sub(lsub, "basilica", "basilica lamination",
             "v2lam lam basilica --depth 6 --svg basilica.svg", registry, _cmd_lam_basilica)
    lam_common(p, theta=False)

    p = _sub(lsub, "mate", "mating: inside lamination + negated outside lamination",
             "v2lam lam mate --outer-y0 1/3 --depth 5", registry, _cmd_lam_mate)
    lam_common(p, theta=False)
    _flag(p, "outer-y0", _angle, REQUIRED)
    _flag(p, "inner-y0", _angle, help="inside generator (default: basilica)")

    p = _sub(lsub, "check-invariance", "two-sided invariance report",
             "v2lam lam check-invariance --theta 1/2 --depth 6",
             registry, _cmd_lam_check_invariance)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "depth", _count, REQUIRED)
    _flag(p, "at-depth", _int, help="check depth, 0..depth (default: depth-1)")

    p = _sub(lsub, "regions", "complementary regions of one side",
             "v2lam lam regions --theta 1/2 --depth 3 --side I", registry, _cmd_lam_regions)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "depth", _count, REQUIRED)
    _flag(p, "side", _one_of(*SIDES), "I")

    p = _sub(lsub, "cross", "do two same-side chords cross?",
             "v2lam lam cross --leaf1 0,1/2 --leaf2 1/4,3/4", registry, _cmd_lam_cross)
    _flag(p, "leaf1", _chord, REQUIRED)
    _flag(p, "leaf2", _chord, REQUIRED)
    _flag(p, "side", _one_of(*SIDES), "I")

    # sym -----------------------------------------------------------------
    sym = cmds.add_parser("sym", help="binary addresses and ray symbols")
    ssub = sym.add_subparsers(dest="sub", required=True, metavar="OP")

    p = _sub(ssub, "critical-address", "the two addresses of the critical point",
             "v2lam sym critical-address --theta 1/2", registry, _cmd_sym_critical_address)
    _flag(p, "theta", _angle, REQUIRED)

    p = _sub(ssub, "equiv", "address equivalence under the identification rules",
             'v2lam sym equiv --x "0|(10)" --y "1|(01)" --theta 1/2', registry, _cmd_sym_equiv)
    _flag(p, "x", default=REQUIRED)
    _flag(p, "y", default=REQUIRED)
    _flag(p, "theta", _angle, REQUIRED)

    p = _sub(ssub, "angle-to-address", "angle to address (or back with --address)",
             "v2lam sym angle-to-address --theta 1/4", registry, _cmd_sym_angle_to_address)
    _flag(p, "theta", _angle)
    p.add_argument("--address", help="convert this address to an angle instead")
    _flag(p, "shift", _count, 0, help="apply the shift this many times")

    p = _sub(ssub, "match-leaves", "two-way lamination/address comparison",
             "v2lam sym match-leaves --theta 1/2 --depth 6", registry, _cmd_sym_match_leaves)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "depth", _count, REQUIRED)

    p = _sub(ssub, "reg-ray", "regulated-ray symbol rewrite",
             'v2lam sym reg-ray --symbol "G(0;1/2)" --op preimage', registry, _cmd_sym_reg_ray)
    _flag(p, "symbol", default=REQUIRED)
    _flag(p, "op", _one_of("image", "preimage"), "image")

    p = _sub(ssub, "cells", "all binary cell labels of one depth",
             "v2lam sym cells --depth 2", registry, _cmd_sym_cells)
    _flag(p, "depth", _count, REQUIRED)

    # dyn -----------------------------------------------------------------
    dyn = cmds.add_parser("dyn", help="rasters, rays, and numerics")
    dsub = dyn.add_subparsers(dest="sub", required=True, metavar="OP")

    def grid_common(p, window):
        _flag(p, "width", _positive, 400)
        _flag(p, "height", _positive, 400)
        for name, default in zip(("re-min", "re-max", "im-min", "im-max"), window):
            _flag(p, name, _float, default)
        _flag(p, "n-max", _positive, 512)

    p = _sub(dsub, "m2", "parameter-plane membership raster (PGM + sidecar)",
             "v2lam dyn m2 --width 400 --height 400 --out m2.pgm", registry, _cmd_dyn_m2)
    grid_common(p, (-8.0, 4.0, -6.0, 6.0))
    _flag(p, "out", default=REQUIRED)

    p = _sub(dsub, "julia", "Julia-set raster by escape or inverse iteration",
             "v2lam dyn julia --a 6 --width 400 --height 400 --out julia.ppm",
             registry, _cmd_dyn_julia)
    grid_common(p, (-3.5, 1.5, -2.5, 2.5))
    _flag(p, "a", _complex, REQUIRED)
    _flag(p, "method", _one_of("escape", "inverse"), "escape")
    _flag(p, "points", _positive, 200000, help="inverse-iteration sample count")
    _flag(p, "seed", _int, 0)
    p.add_argument("--out")
    p.add_argument("--agreement", action=_Switch,
                   help="print the escape/inverse agreement fraction")

    p = _sub(dsub, "fixed", "fixed points, multipliers, and trap radii",
             "v2lam dyn fixed --a 1", registry, _cmd_dyn_fixed)
    _flag(p, "a", _complex, REQUIRED)

    p = _sub(dsub, "green", "Green value (plus Boettcher/trap/orbit views)",
             "v2lam dyn green --a 6 --z 3,1 --boettcher", registry, _cmd_dyn_green)
    _flag(p, "a", _complex, REQUIRED)
    _flag(p, "z", _complex, REQUIRED)
    _flag(p, "n", _count, 64)
    p.add_argument("--boettcher", action=_Switch)
    p.add_argument("--trap", action=_Switch)
    _flag(p, "orbit", _count, 0, help="print this many forward iterates")

    p = _sub(dsub, "ray", "dynamical ray from infinity or toward zero",
             "v2lam dyn ray --a 6 --base inf --theta 0 --out ray.csv", registry, _cmd_dyn_ray)
    _flag(p, "a", _complex, REQUIRED)
    _flag(p, "base", _one_of("inf", "0"), "inf")
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "s-from", _float, 8.0)
    _flag(p, "s-to", _float, 0.001)
    _flag(p, "steps", _steps, 200)
    p.add_argument("--out")

    p = _sub(dsub, "param-ray", "external parameter ray in the a-plane",
             "v2lam dyn param-ray --theta 1/6 --s-to 0.05 --out pray.csv",
             registry, _cmd_dyn_param_ray)
    _flag(p, "theta", _angle, REQUIRED)
    _flag(p, "s-from", _float, 8.0)
    _flag(p, "s-to", _float, 0.05)
    _flag(p, "steps", _steps, 200)
    p.add_argument("--out")
    p.add_argument("--angle-errors", action=_Switch,
                   help="re-evaluate the critical-value angle along the ray")

    p = _sub(dsub, "ray-leaves", "saddle ray-leaf circle coordinates",
             "v2lam dyn ray-leaves --a=-0.37,-2.97 --depth 2 --theta0 1/6",
             registry, _cmd_dyn_ray_leaves)
    _flag(p, "a", _complex, REQUIRED)
    _flag(p, "depth", _count, REQUIRED)
    _flag(p, "theta0", _angle, help="calibrate circle orientation for this generator")
    p.add_argument("--out")

    p = _sub(dsub, "blaschke", "Blaschke factor critical points and values",
             "v2lam dyn blaschke --b 0.5,0 --z 0.3,0.1", registry, _cmd_dyn_blaschke)
    _flag(p, "b", _complex, REQUIRED)
    _flag(p, "z", _complex)

    # check ---------------------------------------------------------------
    p = _sub(cmds, "check", "run the verification suites",
             "v2lam check all --theta-set 1/2,1/6,5/12 --depth 8", registry, _cmd_check)
    p.add_argument("which", choices=("all", "angle", "lam", "sym", "dyn"))
    _flag(p, "theta-set", _angles, "1/2,1/6,5/12")
    _flag(p, "depth", _count, 8)
    _flag(p, "seed", _int, 0)
    _flag(p, "samples", _positive, 200)
    _flag(p, "raster-size", _positive, 400)
    _flag(p, "n-max", _positive, 512)
    _flag(p, "steps", _steps, 200)
    _flag(p, "leaf-depth", _count, 3)
    p.add_argument("--json", action=_Switch,
                   help="print one JSON object per check: number, name, group, ok, "
                        "detail, seconds")

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
        except (OSError, UnicodeDecodeError) as exc:
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
            # a key that is no command's flag is a typo; one that only other
            # commands take is not, since a config file serves every command
            declared = {a.dest for p in parser.all_parsers for a in p._actions
                        if a.option_strings}
            unknown = [key for key in cfg if key not in declared]
            if unknown:
                raise UsageError("config key %s is no command's flag" % ", ".join(unknown))
            for p in parser.all_parsers:
                p.set_defaults(**cfg)
        else:
            parser = _shared_parser()
        # flag values and exact results may have more digits than the default limit
        with _int_str_digits_unlimited():
            args = _checked(parser.parse_args(argv))
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
