"""Aggregated verification suites.

Twelve numbered checks cover the package end to end: exact digit/series
agreement for the interleaved angle x0, blow-up arc endpoints, measure mass,
lamination crossing/invariance/equivalence properties, the symbolic address
model, and the numerical dynamics engine (algebraic sanity, rasters,
parameter rays, ray leaves).  Each check returns a :class:`CheckResult`
with a one-line detail string; the ``check`` CLI subcommand and the
acceptance test suite both run these same functions.
"""
from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .angles import (DomainError, NumericError, _cumulative_pair, circle_distance, x0_digits,
                     x0_series)
from .laminations import (
    build_2L,
    build_L,
    check_two_sided_invariance,
    count_same_side_crossings,
    mirror_outside,
)
from .measure import cumulative, h_arc, preimages_of_angle, sigma_lengths_periodic
from .symbolic import (
    RegulatedRaySymbol,
    angle_to_address,
    critical_address,
    leaf_addresses_match,
    regulated_ray_image,
    regulated_ray_preimage,
)

DEFAULT_THETAS = (Fraction(1, 2), Fraction(1, 6), Fraction(5, 12))


@dataclass(frozen=True)
class CheckParams:
    """Knobs shared by the check suites; defaults match the acceptance runs."""

    thetas: tuple[Fraction, ...] = DEFAULT_THETAS
    depth: int = 8
    seed: int = 0
    samples: int = 200
    raster_size: int = 400
    raster_iters: int = 512
    ray_steps: int = 200
    leaf_depth: int = 3


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    group: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        return "%-4s check %02d %-22s [%s] %s" % (
            "ok" if self.ok else "FAIL", self.number, self.name, self.group,
            self.detail)


class CheckFailure(AssertionError):
    """Raised inside a check body to fail with a message."""


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# angle group
# ---------------------------------------------------------------------------

def _check_digit_series(p: CheckParams) -> str:
    rng = random.Random(p.seed)
    done = 0
    while done < p.samples:
        den = rng.randrange(2, 1 << 20)
        theta = Fraction(rng.randrange(0, den), den)
        if theta.denominator % 2 == 1:
            continue  # reduced to an odd denominator: periodic under doubling
        lo, hi = x0_series(theta, 40)
        # x0 = num/den unreduced; cross-multiply instead of reducing it
        num, den = _cumulative_pair(theta, theta)
        _need(lo.numerator * den <= num * lo.denominator
              and num * hi.denominator <= hi.numerator * den,
              "series enclosure misses digits at theta=%s" % theta)
        done += 1
    _need(x0_digits(Fraction(1, 2)) == Fraction(1, 4), "x0(1/2) != 1/4")
    _need(x0_digits(Fraction(1, 6)) == Fraction(11, 60), "x0(1/6) != 11/60")
    return "%d random enclosures + 2 exact values" % p.samples


def _check_blowup_endpoints(p: CheckParams) -> str:
    tol = Fraction(1, 1 << 31)
    thetas = (Fraction(1, 2), Fraction(1, 6), Fraction(5, 12), Fraction(3, 10))
    for t0 in thetas:
        ha = h_arc(t0, t0, M=30)
        x0 = x0_digits(t0)
        _need(circle_distance(ha.start, x0) <= tol,
              "h-arc start off x0 by %s at theta0=%s" % (circle_distance(ha.start, x0), t0))
        _need(circle_distance(ha.end, x0 + Fraction(1, 2)) <= tol,
              "h-arc end off x0+1/2 at theta0=%s" % t0)
    return "4 generators, endpoint error <= 2^-31"


def _check_measure_mass(p: CheckParams) -> str:
    near_one = Fraction((1 << 30) - 1, 1 << 30)
    for t0 in p.thetas:
        for M in (0, 3, 20):
            mass = cumulative(t0, near_one, M)
            want = 1 - Fraction(1, 1 << (M + 1))
            _need(mass == want, "truncated mass %s != %s (theta0=%s, M=%d)"
                  % (mass, want, t0, M))
        atoms = [Fraction(1, 2 * 4 ** m)
                 for m in range(11) for _ in preimages_of_angle(t0, m)]
        _need(sum(atoms) == 1 - Fraction(1, 1 << 11),
              "atom-list mass mismatch at theta0=%s" % t0)
    _need(sigma_lengths_periodic(1) == [Fraction(2, 3)], "period-1 arcs wrong")
    _need(sigma_lengths_periodic(2) == [Fraction(2, 15), Fraction(8, 15)],
          "period-2 arcs wrong")
    return "truncated mass exact for M in {0,3,20}; periodic arcs exact"


# ---------------------------------------------------------------------------
# lam group
# ---------------------------------------------------------------------------

def _check_disjoint_bridges(p: CheckParams) -> str:
    pairs = 0
    for t0 in p.thetas:
        bad, n = count_same_side_crossings(build_2L(t0, p.depth))
        _need(bad == 0, "%d crossings in two-sided lamination theta0=%s" % (bad, t0))
        pairs += n
        bad, n = count_same_side_crossings(build_L(t0, p.depth // 2))
        _need(bad == 0, "%d crossings in one-sided lamination theta0=%s" % (bad, t0))
        pairs += n
    _need(pairs >= 10_000, "only %d leaf pairs checked" % pairs)
    return "0 crossings over %d leaf pairs" % pairs


def _check_invariance(p: CheckParams) -> str:
    checked = 0
    for t0 in p.thetas:
        rep = check_two_sided_invariance(build_2L(t0, 6), 5)
        _need(rep.ok, "invariance failures at theta0=%s: %r" % (t0, rep.failures[:3]))
        checked += rep.checked
    return "%d leaves obey both map directions" % checked


def _check_construction_equivalence(p: CheckParams) -> str:
    for t0 in p.thetas:
        for d in range(min(p.depth, 8) + 1):
            lams = (build_2L(t0, d), build_L(t0, d // 2),
                    mirror_outside(build_L(t0, (d + 1) // 2)))
            # the chords of all three as integers over one denominator
            den = math.lcm(*(lam.den for lam in lams))
            two, ins, outs = ({(s, a * (den // lam.den), b * (den // lam.den))
                               for s, a, b in lam.chords} for lam in lams)
            _need(two == (ins | outs),
                  "leaf sets differ at theta0=%s depth=%d" % (t0, d))
    return "two-sided == one-sided + mirrored, depths 0..%d" % min(p.depth, 8)


# ---------------------------------------------------------------------------
# sym group
# ---------------------------------------------------------------------------

def _check_leaf_addresses(p: CheckParams) -> str:
    leaves = 0
    for t0 in (Fraction(1, 2), Fraction(1, 6)):
        rep = leaf_addresses_match(t0, p.depth)
        _need(rep.ok, "address mismatch at theta0=%s: %s" % (t0, rep))
        leaves += rep.leaves_checked
        crit = set(critical_address(t0))
        x0 = x0_digits(t0)
        ends = {angle_to_address(x0), angle_to_address(x0 + Fraction(1, 2))}
        _need(ends == crit, "critical leaf endpoints != critical addresses")
    return "%d leaves matched; critical endpoints exact" % leaves


def _check_regulated_rays(p: CheckParams) -> str:
    # The enumeration is exhaustive per the stated bounds; the expected
    # doublings are computed in Fraction arithmetic, independently of the rules.
    fracs = [Fraction(k, 16) for k in range(1, 16)]
    dyadics = RegulatedRaySymbol.of("0", fracs).angles
    half = RegulatedRaySymbol.of("0", (Fraction(1, 2),)).angles[0]
    doubled = {r: RegulatedRaySymbol.of("0", (2 * f % 1,)).angles[0]
               for r, f in zip(dyadics, fracs) if r != half}
    count = 0
    for length in (1, 2, 3, 4):
        for rs in product(dyadics, repeat=length):
            g0 = RegulatedRaySymbol("0", rs)
            gi = RegulatedRaySymbol("inf", rs)
            img = regulated_ray_image(g0)
            _need(img.base == "inf" and img.angles == rs and not img.marker,
                  "base-0 image rule")
            img2 = regulated_ray_image(gi)
            r1 = rs[0]
            if r1 == half:
                _need(img2.base == "inf" and img2.angles == rs[1:] and img2.marker,
                      "absorption rule")
            else:
                _need(img2.base == "0" and img2.angles[0] == doubled[r1]
                      and img2.angles[1:] == rs[1:], "doubling rule")
            q1, q2 = regulated_ray_preimage(g0)
            _need(q1.base == "inf" and q2.base == "inf", "preimage bases")
            _need(regulated_ray_image(q1) == g0 and regulated_ray_image(q2) == g0,
                  "image o preimage != id")
            count += 7
    return "%d rewrite applications verified" % count


# ---------------------------------------------------------------------------
# dyn group
# ---------------------------------------------------------------------------

def _check_dynamics_sanity(p: CheckParams) -> str:
    import cmath

    from .dynamics import apply_F, boettcher_infty, fixed_points, green_value, multiplier

    mults = [multiplier(1.0, z) for z in fixed_points(1.0)]
    golden = 1.0 - math.sqrt(5.0)
    _need(min(abs(m - golden) for m in mults) < 1e-9, "no multiplier 1-sqrt(5)")
    rng = random.Random(p.seed)
    for _ in range(100):
        a = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(a) < 1e-3:
            continue
        r1, r2, r3 = fixed_points(a)
        tol = 1e-10 * max(1.0, abs(a))
        _need(abs(r1 + r2 + r3 + 2.0) < tol, "Vieta sum fails at a=%r" % a)
        _need(abs(r1 * r2 * r3 - a) < tol, "Vieta product fails at a=%r" % a)
        _need(abs(r1 * r2 + r1 * r3 + r2 * r3) < tol, "Vieta pair sum fails at a=%r" % a)
    for a in (1.0, 6.0, complex(2.0, 5.0)):
        for arg in (0.3, 2.0, 4.5):
            z = 1e6 * cmath.exp(1j * arg)
            _need(abs(green_value(a, z) - (math.log(abs(z)) - math.log(2.0))) < 1e-3,
                  "Green asymptote fails at a=%r" % a)
            w = 40.0 * cmath.exp(1j * arg)
            ph = boettcher_infty(a, w)
            phF = boettcher_infty(a, apply_F(a, w))
            _need(abs(phF - ph * ph) < 1e-9 * max(1.0, abs(ph) ** 2),
                  "Boettcher equation fails at a=%r" % a)
    return "multiplier, Vieta x100, Green asymptote, Boettcher"


def _check_m2_raster(p: CheckParams) -> str:
    from .dynamics import attracted_to_supercycle, m2_raster

    esc1, _ = attracted_to_supercycle(1.0, -1.0, p.raster_iters)
    _need(not esc1, "a=1 misclassified as non-member")
    esc100, _ = attracted_to_supercycle(100.0, -1.0, p.raster_iters)
    _need(esc100, "a=100 misclassified as member")
    r = m2_raster(p.raster_size, p.raster_size, n_max=p.raster_iters)
    _need(_orbits_stay_conjugate(r), "conjugation symmetry broken")
    members = int((r.values == 0).sum())
    return "member/non-member ok; %dx%d symmetric, %d member pixels" % (
        p.raster_size, p.raster_size, members)


def _orbits_stay_conjugate(r) -> bool:
    """Does the m2 raster ``r`` rest on exact conjugation symmetry?

    ``m2_raster`` iterates half of a window symmetric under conjugation and
    mirrors it.  That is exact when the pixel parameters of the mirrored rows
    are the conjugates of the iterated ones, and when the step commutes with
    conjugation bit for bit (up to the sign of a zero), so that the orbits
    from -1 at a and at conj(a) stay exact conjugates.  This checks the first
    on the grid and the second by iterating the raster's own step at both
    parameters of every iterated pixel, comparing after every step up to the
    step at which the raster found the orbit at a trapped (all ``n_max``
    steps for a member).
    """
    import numpy as np

    from .dynamics.raster import _f_step

    A = r.xs()[None, :] + 1j * r.ys()[:, None]
    rows = (r.height + 1) // 2
    if not np.array_equal(A[rows:][::-1], np.conj(A[:r.height - rows])):
        return False
    n_max = r.meta["n_max"]
    steps = r.values[:rows].ravel()
    A = A[:rows].ravel()[steps >= 0]
    steps = steps[steps >= 0]
    steps[steps == 0] = n_max
    # Longest orbits first, so the orbits still running are a leading slice.
    order = np.argsort(-steps, kind="stable")
    A, steps = A[order], steps[order]
    running = np.searchsorted(-steps, -np.arange(1, n_max + 1), side="right")
    AB = np.stack((A, np.conj(A)))
    z = np.full(AB.shape, -1.0 + 0j)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in running:
            if not m:
                break
            z = _f_step(z[:, :m], AB[:, :m])
            same = z[1] == np.conj(z[0])
            # Unequal entries pass only where both orbits left the finite plane.
            if not same.all() and np.isfinite(z[:, ~same]).any():
                return False
    return True


def _check_parameter_rays(p: CheckParams) -> str:
    from .dynamics import critical_value_angle_error, trace_parameter_ray

    ray = trace_parameter_ray(Fraction(1, 6), s_from=8.0, s_to=0.05, steps=p.ray_steps)
    _need(ray.complete, "1/6 trace incomplete: %s" % ray.note)
    worst = 0.0
    for _, a, _ in ray.points:
        err = critical_value_angle_error(a, Fraction(1, 6))
        worst = max(worst, err)
        _need(err < 1e-6, "angle error %.3g at a=%r" % (err, a))
    real_ray = trace_parameter_ray(Fraction(0), s_from=8.0, s_to=0.05, steps=p.ray_steps)
    _need(real_ray.complete, "0 trace incomplete")
    im = max(abs(a.imag) for _, a, _ in real_ray.points)
    _need(im <= 1e-10, "0 trace imaginary part %.3g" % im)
    return "1/6 angle error < %.1e over %d points; 0 trace real" % (worst, p.ray_steps)


def _check_ray_leaves(p: CheckParams) -> str:
    from .dynamics import ray_leaf_endpoints, trace_parameter_ray

    theta0 = Fraction(1, 6)
    ray = trace_parameter_ray(theta0, s_from=8.0, s_to=0.5, steps=120)
    _need(ray.complete, "parameter trace incomplete")
    a = ray.points[-1][1]
    leaves = ray_leaf_endpoints(a, p.leaf_depth, theta0=theta0)
    lam = build_2L(theta0, p.leaf_depth)
    den = lam.den
    ends = sorted((d, key[0], x, key) for key, d in lam.chords.items() for x in key[1:])
    claimed = set()
    for lf in leaves:
        # a chord it lands on has an endpoint x with x or x + den in leg 1's range
        hits, place = set(), (lf.depth, lf.side)
        if lf.leg1 is not None:
            num, bits = lf.leg1
            lo, hi = -(-num * den >> bits), (num + 1) * den >> bits
            for start, stop in ((lo, hi), (lo - den, hi - den)):
                i, j = (bisect_left(ends, place + (x,)) for x in (start, stop + 1))
                hits.update(key for *_, key in ends[i:j] if lf.lands_on(key[1], key[2], den))
        _need(len(hits) == 1, "leaf at depth %d lands on %d model leaves" % (lf.depth, len(hits)))
        _need(not hits & claimed, "two leaves land on one model leaf at depth %d" % lf.depth)
        claimed |= hits
    return "%d leaves land one-to-one on model leaves by exact containment; %d unresolved" % (
        len(leaves), sum(lf.unresolved for lf in leaves))


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[int, str, str, Callable[[CheckParams], str]], ...] = (
    (1, "digit-series-agreement", "angle", _check_digit_series),
    (2, "blowup-endpoints", "angle", _check_blowup_endpoints),
    (3, "measure-mass", "angle", _check_measure_mass),
    (4, "disjoint-bridges", "lam", _check_disjoint_bridges),
    (5, "two-sided-invariance", "lam", _check_invariance),
    (6, "construction-equivalence", "lam", _check_construction_equivalence),
    (7, "leaf-addresses", "sym", _check_leaf_addresses),
    (8, "regulated-ray-algebra", "sym", _check_regulated_rays),
    (9, "dynamics-sanity", "dyn", _check_dynamics_sanity),
    (10, "m2-raster", "dyn", _check_m2_raster),
    (11, "parameter-rays", "dyn", _check_parameter_rays),
    (12, "ray-leaves", "dyn", _check_ray_leaves),
)

GROUPS = ("angle", "lam", "sym", "dyn")


def run_check(number: int, params: CheckParams | None = None) -> CheckResult:
    """Run one numbered check; never raises (failures become results)."""
    params = params or CheckParams()
    for num, name, group, fn in CRITERIA:
        if num == number:
            break
    else:
        raise DomainError("no check numbered %d" % number)
    t0 = time.perf_counter()
    try:
        detail = fn(params)
        ok = True
    except CheckFailure as exc:
        detail, ok = str(exc), False
    except (DomainError, NumericError, ArithmeticError, ValueError) as exc:
        detail, ok = "%s: %s" % (type(exc).__name__, exc), False
    return CheckResult(num, name, group, ok, detail, time.perf_counter() - t0)


def run_suite(groups: tuple[str, ...] | None = None,
              params: CheckParams | None = None) -> list[CheckResult]:
    """Run all checks in the given groups (default: every group), in order."""
    wanted = GROUPS if not groups else tuple(groups)
    for g in wanted:
        if g not in GROUPS:
            raise DomainError("unknown check group %r (choose from %s)"
                              % (g, "/".join(GROUPS)))
    return [run_check(num, params) for num, _, group, _ in CRITERIA
            if group in wanted]
