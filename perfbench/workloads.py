"""Job lists, library operations and output checks of the three workloads.

A job is ``{"kind": str, "calls": [call, ...]}``.  A call is either
``["cli", argv]`` (one ``v2lam`` invocation through ``v2lam.cli.main``) or
``["lib", op, args]`` (one library call from ``LIB_OPS``).  Calls that take
well under 20 ms are batched, several of one kind per job, so that no job
time sits at timer-noise level.

Job lists are plain JSON built from the seed by :func:`job_list`; the parent
process builds them without importing ``v2lam``.  The seed only picks
numerators, generators and sample points inside fixed size classes
(denominators, depths, raster sizes), so every seed does about the same work.

The checks in :func:`verify` recompute what they can with the benchmark's
own code (digit-by-digit x0, the 2L model, crossing tests, scalar pixel
iteration) or test a property the method must have.  They never compare
with a stored copy of an earlier output.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

WORKLOADS = ("exact-angles", "laminations", "numerics")

# Modules each workload's worker imports before it reports ready, on top of
# v2lam.cli; setup_s covers this import.
IMPORTS = {
    "exact-angles": ("v2lam.cli", "v2lam.angles", "v2lam.measure", "v2lam.checks"),
    "laminations": ("v2lam.cli", "v2lam.laminations", "v2lam.svg",
                    "v2lam.symbolic", "v2lam.checks"),
    "numerics": ("v2lam.cli", "v2lam.dynamics", "v2lam.laminations", "v2lam.checks"),
}

GENERATORS = ("1/2", "1/6", "5/12", "3/10")

# Primes q for which 2 is a primitive root, so an angle n/(2^e q) with n
# coprime to q has doubling period exactly q - 1.  One prime per period
# bucket of x0_digits; cost grows with the square of the period.
BUCKET_PRIMES = {10: 1061, 12: 4099, 14: 16421, 15: 32771, 16: 65539,
                 17: 131213, 18: 262147}

# Parameter-ray angles whose traces complete (s from 8 to 0.05, 200 steps).
RAY_ANGLES = ("1/6", "5/12", "3/10", "1/10", "1/12", "7/12", "3/8", "5/8", "1/4",
              "3/4", "7/10", "9/10", "11/12", "1/5", "2/5", "1/3", "1/7", "13/24",
              "5/24", "7/20", "9/20", "17/40", "1/18", "5/18", "7/18", "1/14", "3/14")

# The end point (potential 0.5, 120 steps) of the parameter ray of angle 1/6.
A_RAY_1_6 = "-0.370367002870486,-2.97015077044292"

TRAP_STEPS = 512          # n_max of the rasters (the CLI default)
PIXEL_SAMPLES = 48        # pixels recomputed per raster
CROSS_SAMPLES = 4000      # same-side leaf pairs tested per leaf file


# ---------------------------------------------------------------------------
# exact helpers shared by input generation and the checks
# ---------------------------------------------------------------------------

def v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def order_of_two(m: int) -> int:
    """Multiplicative order of 2 modulo odd m > 1, by stepping."""
    k, v = 1, 2 % m
    while v != 1:
        v = 2 * v % m
        k += 1
    return k


def full_order_prime(at_least: int) -> int:
    """Smallest prime q >= at_least with 2 a primitive root mod q."""
    q = max(3, at_least) | 1
    while True:
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)) and order_of_two(q) == q - 1:
            return q
        q += 2


def orbit_lengths(den: int) -> tuple[int, int]:
    """(preperiod e, period L) of the binary expansion of p/den, p coprime."""
    e = v2(den)
    m = den >> e
    return e, (1 if m == 1 else order_of_two(m))


def binary_digits(t: Fraction, count: int) -> list[int]:
    r, q, out = t.numerator, t.denominator, []
    for _ in range(count):
        r *= 2
        out.append(1 if r >= q else 0)
        if r >= q:
            r -= q
    return out


def x0_pair(theta: Fraction, L: int | None = None) -> tuple[int, int]:
    """Unreduced (N, D) of x0 by the definition, digit by digit.

    x0[1] = 0, x0[2m] = theta[m], x0[2m+1] = nu_m = [frac(2^m theta) >= theta];
    the pairs repeat with the period L of theta after its preperiod e.
    """
    p, q = theta.numerator, theta.denominator
    e = v2(q)
    if L is None:
        L = orbit_lengths(q)[1]
    bits = bytearray(b"0")
    r = p
    for _ in range(e + L):
        r <<= 1
        if r >= q:
            r -= q
            bits += b"1"
        else:
            bits += b"0"
        bits += b"1" if r >= p else b"0"
    cut = 2 * e + 1
    per_den = (1 << (2 * L)) - 1
    head = int(bytes(bits[:cut]), 2)
    per = int(bytes(bits[cut:]), 2)
    return head * per_den + per, (1 << cut) * per_den


def series_bounds(theta: Fraction, M: int) -> tuple[Fraction, Fraction]:
    """Partial sum of x0 = sum (floor((2^m - 1) theta) + 1) / 2^(2m+1), m <= M,
    and that sum plus the tail bound 2^-(M+1)."""
    p, q = theta.numerator, theta.denominator
    lo = sum((((((1 << m) - 1) * p) // q + 1) << (2 * (M - m))) for m in range(1, M + 1))
    lo = Fraction(lo, 1 << (2 * M + 1))
    return lo, lo + Fraction(1, 1 << (M + 1))


def x0_value(theta: Fraction) -> Fraction:
    n, d = x0_pair(theta)
    return Fraction(n, d)


def circ(u: Fraction, v: Fraction) -> Fraction:
    d = (u - v) % 1
    return min(d, 1 - d)


def model_2L(theta: Fraction, depth: int) -> dict[tuple, int]:
    """The two-sided lamination {(side, a, b): depth} from its definition:
    the bridge over (x0, x0 + 1/2) and its n-fold preimages under t -> -2t."""
    x0 = x0_value(theta)
    layer = [(x0, Fraction(1, 2))]
    out: dict[tuple, int] = {}
    for n in range(depth + 1):
        side = "I" if n % 2 == 0 else "O"
        for start, length in layer:
            a, b = sorted((start % 1, (start + length) % 1))
            out.setdefault((side, a, b), n)
        nxt = []
        for start, length in layer:
            s = ((1 - start - length) / 2) % 1
            nxt += [(s, length / 2), ((s + Fraction(1, 2)) % 1, length / 2)]
        layer = nxt
    return out


def model_L(theta: Fraction, depth: int) -> dict[tuple, int]:
    """The one-sided lamination: bridges over the quadrupling preimages."""
    x0 = x0_value(theta)
    layer = [(x0, Fraction(1, 2))]
    out: dict[tuple, int] = {}
    for n in range(depth + 1):
        for start, length in layer:
            a, b = sorted((start % 1, (start + length) % 1))
            out.setdefault(("I", a, b), n)
        layer = [(((start + k) / 4) % 1, length / 4) for start, length in layer for k in range(4)]
    return out


def chords_cross(a1, b1, a2, b2) -> bool:
    """Strict interleaving of two chords with a1 < b1 and a2 < b2."""
    if len({a1, b1, a2, b2}) < 4:
        return False
    return (a1 < a2 < b1) != (a1 < b2 < b1)


def address_text(t: Fraction) -> str:
    """The address of an angle by its definition: bit k = t[k] XOR (k odd),
    written as 'b|pre(period)' with the period unrolled to even length."""
    e, L = orbit_lengths(t.denominator)
    P = L if L % 2 == 0 else 2 * L
    bits = [d ^ ((k + 1) & 1) for k, d in enumerate(binary_digits(t, e + 2 * P))]
    return "%d|%s(%s)" % (bits[0], "".join(map(str, bits[1:e + P])),
                          "".join(map(str, bits[e + P:])))


def stream_value(text: str) -> Fraction:
    """Value of a 'pre(period)' binary stream."""
    pre, per = text.strip()[:-1].split("(")
    p, L = len(pre), len(per)
    head = Fraction(int(pre, 2), 1 << p) if p else Fraction(0)
    return head + Fraction(int(per, 2), (1 << p) * ((1 << L) - 1))


# ---------------------------------------------------------------------------
# input generation (parent side, no v2lam import)
# ---------------------------------------------------------------------------

def _coprime_odd(rng: random.Random, den: int, q: int) -> int:
    while True:
        n = rng.randrange(1, den, 2)
        if math.gcd(n, q) == 1:
            return n


def _seeded_generator(rng: random.Random, den: int) -> Fraction:
    """An even-denominator angle n/den in lowest terms."""
    q = den >> v2(den)
    return Fraction(_coprime_odd(rng, den, q), den)


def _cli(*argv) -> list:
    return ["cli", [str(a) for a in argv]]


def _lib(op: str, *args) -> list:
    return ["lib", op, [str(a) if isinstance(a, Fraction) else a for a in args]]


def _exact_angles(rng: random.Random) -> list[dict]:
    jobs = []
    # angle x0 on even denominators 2^e q, period q - 1 from 28 to ~1500, so
    # that the printed x0 stays far below the 4300-digit int-to-str limit.
    thetas = [Fraction(1, 2), Fraction(1, 6)]
    for i in range(58):
        q = full_order_prime(29 + 25 * i)
        den = q << (1 + i % 5)
        thetas.append(Fraction(_coprime_odd(rng, den, q), den))
    for i in range(0, 60, 6):
        jobs.append({"kind": "x0-cli",
                     "calls": [_cli("angle", "x0", "--theta", t) for t in thetas[i:i + 6]]})
    # x0_digits in fixed period buckets: (bucket, jobs, calls per job)
    for k, njobs, per_job in ((18, 2, 1), (17, 3, 1), (16, 3, 2), (15, 2, 6),
                              (14, 1, 20), (12, 1, 150), (10, 1, 500)):
        q = BUCKET_PRIMES[k]
        for j in range(njobs):
            den = q << (1 + j % 3)
            jobs.append({"kind": "x0-digits", "calls": [
                _lib("x0_digits", Fraction(_coprime_odd(rng, den, q), den))
                for _ in range(per_job)]})
    for _ in range(2):
        jobs.append({"kind": "x0-series", "calls": [
            _lib("x0_series", rng.choice(thetas), 40) for _ in range(250)]})
    # cumulative F(t), F(2t) and the capped F_M(t) on small fixed denominators
    for t0 in GENERATORS + GENERATORS[:2]:
        calls = []
        for den in (24, 40, 56, 88, 104) * 20:
            t = _seeded_generator(rng, den)
            M = rng.randrange(4, 21)
            calls += [_lib("cumulative", t0, t, None), _lib("cumulative", t0, (2 * t) % 1, None),
                      _lib("cumulative", t0, t, M)]
        jobs.append({"kind": "cumulative", "calls": calls})
    mass_gens = list(GENERATORS) + [_seeded_generator(rng, den) for den in (12, 20, 24) * 4]
    jobs.append({"kind": "mass", "calls": [
        _lib("cumulative", t0, Fraction((1 << 30) - 1, 1 << 30), M)
        for t0 in mass_gens for M in range(21)]})
    # h_arc at M = 30: the critical atom and seeded preimage atoms
    for t0 in GENERATORS[:3]:
        t0f = Fraction(t0)
        calls = [_lib("h_arc", t0, t0, 30)]
        for _ in range(119):
            k = rng.randrange(1, 9)
            calls.append(_lib("h_arc", (t0f + rng.randrange(1 << k)) / (1 << k) % 1, t0, 30))
        jobs.append({"kind": "h-arc", "calls": calls})
    mu_calls = []
    for _ in range(6):
        t0 = Fraction(rng.choice(GENERATORS))
        k = rng.randrange(0, 10)
        mu_calls.append(_cli("angle", "mu", "--z", (t0 + rng.randrange(1 << k)) / (1 << k) % 1,
                             "--theta", t0))
    jobs.append({"kind": "mu-cli", "calls": mu_calls})
    jobs.append({"kind": "preimages-cli", "calls": [
        _cli("angle", "preimages", "--theta", rng.choice(GENERATORS), "--depth", 8)
        for _ in range(4)]})
    jobs.append({"kind": "y0-cli", "calls": [
        _cli("angle", "y0", "--theta", _seeded_generator(rng, den))
        for den in (12, 20, 24, 40, 56, 88)]})
    for t0 in ("1/6", "3/10"):
        jobs.append({"kind": "semiconj-cli", "calls": [
            _cli("angle", "semiconj", "--theta", t0, "--samples", 12, "--cap", 20)]})
    jobs.append({"kind": "check-cli", "calls": [_cli("check", "angle", "--samples", 100)]})
    return jobs


def _laminations(rng: random.Random, out: str) -> list[dict]:
    jobs = []
    gA, gB = _seeded_generator(rng, 20), _seeded_generator(rng, 24)
    two_sided = [("1/2", 10), ("1/6", 10), ("5/12", 10), ("3/10", 10), (gA, 10),
                 (gB, 11), ("3/10", 12), ("5/12", 14)]
    for i, (t, d) in enumerate(two_sided):
        jobs.append({"kind": "two-sided", "calls": [_cli(
            "lam", "two-sided", "--theta", t, "--depth", d,
            "--svg", "%s/2L-%d.svg" % (out, i), "--leaves", "%s/2L-%d.leaves" % (out, i))]})
    # one-sided halves of the depth-10 and depth-12 two-sided laminations
    for i, (t, d) in enumerate(two_sided):
        if d in (10, 12):
            for mirror in (False, True):
                argv = ["lam", "L", "--theta", t, "--depth", d // 2,
                        "--leaves", "%s/L-%d-%d.leaves" % (out, i, mirror)]
                jobs.append({"kind": "lam-L", "calls": [_cli(*argv, *(["--mirror"] if mirror else []))]})
    for t in ("1/6", gA):
        jobs.append({"kind": "crossings", "calls": [_lib("crossings", t, 9)]})
    for t in GENERATORS:
        jobs.append({"kind": "invariance-cli", "calls": [
            _cli("lam", "check-invariance", "--theta", t, "--depth", 8)]})
    for side in ("I", "O"):
        jobs.append({"kind": "regions-cli", "calls": [
            _cli("lam", "regions", "--theta", rng.choice(GENERATORS), "--depth", 6, "--side", side)]})
    jobs.append({"kind": "quadratic", "calls": [_cli(
        "lam", "quadratic", "--y0", "1/7", "--depth", 8, "--leaves", "%s/quad.leaves" % out)]})
    jobs.append({"kind": "basilica", "calls": [_cli(
        "lam", "basilica", "--depth", 8, "--leaves", "%s/basilica.leaves" % out)]})
    jobs.append({"kind": "mate", "calls": [_cli(
        "lam", "mate", "--outer-y0", "1/7", "--depth", 7, "--leaves", "%s/mate.leaves" % out)]})
    for t, d in (("1/6", 8), (gA, 9), ("1/2", 10)):
        jobs.append({"kind": "match-leaves-cli", "calls": [
            _cli("sym", "match-leaves", "--theta", t, "--depth", d)]})
    for _ in range(3):
        t0 = Fraction(rng.choice(GENERATORS))
        leaves = sorted(model_2L(t0, 4))
        calls = []
        for side, a, b in rng.sample(leaves, 5):
            calls.append(_cli("sym", "equiv", "--x", address_text(a), "--y", address_text(b),
                              "--theta", t0))
        jobs.append({"kind": "equiv-cli", "calls": calls})
    jobs.append({"kind": "critical-address-cli", "calls": [
        _cli("sym", "critical-address", "--theta", _seeded_generator(rng, den))
        for den in (12, 20, 24, 40, 56)]})
    jobs.append({"kind": "angle-to-address-cli", "calls": [
        _cli("sym", "angle-to-address", "--theta", _seeded_generator(rng, den))
        for den in (12, 20, 24, 40, 56, 88)]})
    dyadics = ["%d/16" % k for k in range(1, 16)]
    for length in (2, 3, 3):
        syms = ["G(0;%s)" % ",".join(rng.choice(dyadics) for _ in range(length))
                for _ in range(2500)]
        jobs.append({"kind": "reg-ray", "calls": [_lib("reg_ray_roundtrip", syms)]})
    jobs.append({"kind": "check-cli", "calls": [_cli("check", "lam")]})
    jobs.append({"kind": "check-cli", "calls": [_cli("check", "sym")]})
    return jobs


def _numerics(rng: random.Random, out: str) -> list[dict]:
    jobs = []
    rasters = [("m2", 400, 400, ()), ("m2", 1000, 1000, ()),
               # zoom on the real-axis boundary of the locus near a = 1.2
               ("m2", 300, 300, ("--re-min", 1.0, "--re-max", 1.6, "--im-min", -0.3,
                                 "--im-max", 0.3))]
    for i, (kind, w, h, extra) in enumerate(rasters):
        jobs.append({"kind": "m2", "calls": [_cli(
            "dyn", "m2", "--width", w, "--height", h, *extra, "--out", "%s/m2-%d.pgm" % (out, i))]})
    julia = [("1", 300, 1), ("6", 300, 3), ("6.5", 300, 3), (A_RAY_1_6, 300, 1)]
    for i, (a, size, reps) in enumerate(julia):
        jobs.append({"kind": "julia", "calls": [_cli(
            "dyn", "julia", "--a=" + a, "--width", size, "--height", size,
            "--out", "%s/julia-%d-%d.pgm" % (out, i, r)) for r in range(reps)]})
    jobs.append({"kind": "julia-agreement", "calls": [_cli(
        "dyn", "julia", "--a", 6, "--width", 200, "--height", 200, "--method", "inverse",
        "--points", 50000, "--agreement")]})
    thetas = ["0"] + rng.sample(RAY_ANGLES, 12)
    for i, t in enumerate(thetas):
        jobs.append({"kind": "param-ray", "calls": [_cli(
            "dyn", "param-ray", "--theta", t, "--angle-errors",
            "--out", "%s/param-ray-%d.csv" % (out, i))]})
    for i in range(8):
        a = "%.3f" % rng.uniform(4.0, 8.0)
        t = _seeded_generator(rng, rng.choice((6, 10, 12, 20)))
        jobs.append({"kind": "dyn-ray", "calls": [_cli(
            "dyn", "ray", "--a", a, "--theta", t, "--out", "%s/ray-%d.csv" % (out, i))]})
    for d in (3, 4):
        jobs.append({"kind": "ray-leaves", "calls": [_lib("ray_leaves", "1/6", d)]})
    for _ in range(5):
        jobs.append({"kind": "fixed-cli", "calls": [_cli(
            "dyn", "fixed", "--a=%.4f,%.4f" % (rng.uniform(-20, 20), rng.uniform(-20, 20)))
            for _ in range(5)]})
    for _ in range(5):
        calls = []
        for _ in range(5):
            a = "%.4f,%.4f" % (rng.uniform(-20, 20), rng.uniform(-20, 20))
            arg = rng.uniform(0, 2 * math.pi)
            calls.append(_cli("dyn", "green", "--a=" + a,
                              "--z=%.6f,%.6f" % (1e6 * math.cos(arg), 1e6 * math.sin(arg))))
        jobs.append({"kind": "green-cli", "calls": calls})
    jobs.append({"kind": "check-cli", "calls": [_cli("check", "dyn", "--raster-size", 200)]})
    return jobs


def job_list(workload: str, seed: int, out: str) -> list[dict]:
    """The fixed job list of one workload; ``out`` holds the files it writes."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "exact-angles":
        return _exact_angles(rng)
    if workload == "laminations":
        return _laminations(rng, out)
    if workload == "numerics":
        return _numerics(rng, out)
    raise ValueError("unknown workload %r" % workload)


# ---------------------------------------------------------------------------
# library operations (worker side)
# ---------------------------------------------------------------------------
# Each op reads the v2lam function from its module at call time, so the
# tracing wrappers installed on module attributes see the call.

def _op_x0_digits(t):
    from v2lam import angles
    return angles.x0_digits(Fraction(t))


def _op_x0_series(t, M):
    from v2lam import angles
    return angles.x0_series(Fraction(t), M)


def _op_cumulative(t0, t, M):
    from v2lam import measure
    return measure.cumulative(Fraction(t0), Fraction(t), M)


def _op_h_arc(z, t0, M):
    from v2lam import measure
    return measure.h_arc(Fraction(z), Fraction(t0), M)


def _op_crossings(t, depth):
    from v2lam import laminations
    return laminations.count_same_side_crossings(laminations.build_2L(Fraction(t), depth))


def _op_reg_ray_roundtrip(symbols):
    from v2lam import symbolic
    out = []
    for text in symbols:
        g = symbolic.RegulatedRaySymbol.parse(text)
        q1, q2 = symbolic.regulated_ray_preimage(g)
        out.append((g, q1, q2, symbolic.regulated_ray_image(q1), symbolic.regulated_ray_image(q2)))
    return out


def _op_ray_leaves(theta0, depth):
    from v2lam import dynamics
    t0 = Fraction(theta0)
    ray = dynamics.trace_parameter_ray(t0, s_from=8.0, s_to=0.5, steps=120)
    return ray, dynamics.ray_leaf_endpoints(ray.points[-1][1], depth, theta0=t0)


LIB_OPS = {
    "x0_digits": _op_x0_digits,
    "x0_series": _op_x0_series,
    "cumulative": _op_cumulative,
    "h_arc": _op_h_arc,
    "crossings": _op_crossings,
    "reg_ray_roundtrip": _op_reg_ray_roundtrip,
    "ray_leaves": _op_ray_leaves,
}


def fingerprint(call: list, output: dict) -> object:
    """A cheap, hashable summary of one call's output (files included), used
    to confirm that every timed round repeats the checked first round."""
    if call[0] == "cli":
        files = []
        for path in output_files(call[1]):
            with open(path, "rb") as fh:
                files.append(hash(fh.read()))
        out = output["out"]
        if call[1][0] == "check":      # verdict lines end in their own timing
            out = re.sub(r" \(\d+\.\d+s\)$", "", out, flags=re.M)
        return (output["rc"], out, tuple(files))
    value = output.get("value")
    op = call[1]
    if op == "x0_digits":
        return hash(value)
    if op == "ray_leaves":
        ray, leaves = value
        return (tuple(ray.points), tuple((l.t1, l.t2, l.unresolved) for l in leaves))
    if op == "reg_ray_roundtrip":
        return tuple(str(s) for row in value for s in row)
    if op == "h_arc":
        return (value.start, value.end)
    return value


def output_files(argv: list) -> list[str]:
    """Every file a CLI call writes, including raster sidecars."""
    out = []
    for flag in ("--out", "--svg", "--leaves"):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            out.append(path)
            if path.endswith(".pgm"):
                out.append(path + ".txt")
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Verdicts:
    """Named checks, each passing until one of its conditions fails."""

    def __init__(self, names):
        self.results = {n: [0, None] for n in names}

    def need(self, name: str, cond: bool, msg: str) -> None:
        entry = self.results[name]
        entry[0] += 1
        if not cond and entry[1] is None:
            entry[1] = msg

    def items(self):
        for name, (count, failure) in self.results.items():
            ok = failure is None and count > 0
            yield name, ok, (failure or ("%d conditions" % count if count else "nothing checked"))


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def parse_leaves(text: str) -> list[tuple]:
    out = []
    for line in text.splitlines():
        side, a, b = line.split()
        a, b = sorted((Fraction(a), Fraction(b)))
        out.append((side, a, b))
    return out


def _arg(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _x0_checks(v: Verdicts, theta: Fraction, x0: Fraction) -> None:
    e, L = orbit_lengths(theta.denominator)
    N, D = x0_pair(theta, L)
    v.need("x0-interleave", x0.numerator * D == N * x0.denominator,
           "x0(%s) differs from the digit-by-digit interleave" % theta)
    v.need("x0-denominator", D % x0.denominator == 0,
           "x0(%s) denominator does not divide 2^(2e+1)(4^L-1)" % theta)
    lo, hi = series_bounds(theta, 40)
    v.need("x0-enclosure", lo <= x0 <= hi, "x0(%s) outside its series enclosure" % theta)


def _verify_exact_angles(jobs, outputs, v: Verdicts) -> None:
    for job, outs in zip(jobs, outputs):
        kind = job["kind"]
        if kind == "x0-cli":
            for call, o in zip(job["calls"], outs):
                theta = Fraction(_arg(call[1], "--theta"))
                lines = o["out"].splitlines()
                x0 = Fraction(lines[0])
                _x0_checks(v, theta, x0)
                v.need("x0-interleave", stream_value(lines[1]) == x0,
                       "printed digit stream of x0(%s) has another value" % theta)
                known = {Fraction(1, 2): Fraction(1, 4), Fraction(1, 6): Fraction(11, 60)}
                if theta in known:
                    v.need("x0-known-values", x0 == known[theta], "x0(%s) = %s" % (theta, x0))
        elif kind == "x0-digits":
            for call, o in zip(job["calls"], outs):
                _x0_checks(v, Fraction(call[2][0]), o["value"])
        elif kind == "x0-series":
            for call, o in zip(job["calls"], outs):
                theta, M = Fraction(call[2][0]), call[2][1]
                v.need("x0-enclosure", tuple(o["value"]) == series_bounds(theta, M),
                       "x0_series(%s, %d) is not the partial sum" % (theta, M))
        elif kind == "cumulative":
            calls = job["calls"]
            for i in range(0, len(calls), 3):
                F, F2, FM = (o["value"] for o in outs[i:i + 3])
                M = calls[i + 2][2][2]
                v.need("cumulative-truncation", FM <= F < FM + Fraction(1, 1 << (M + 1)),
                       "F_M <= F < F_M + 2^-(M+1) fails at %s" % calls[i][2])
                v.need("cumulative-doubling", (4 * F - F2).denominator == 1,
                       "4F(t) != F(2t) mod 1 at %s" % calls[i][2])
        elif kind == "mass":
            for call, o in zip(job["calls"], outs):
                M = call[2][2]
                v.need("truncated-mass", o["value"] == 1 - Fraction(1, 1 << (M + 1)),
                       "truncated mass at %s" % call[2])
        elif kind == "h-arc":
            for call, o in zip(job["calls"], outs):
                z, t0 = Fraction(call[2][0]), Fraction(call[2][1])
                ha = o["value"]
                tol = Fraction(1, 1 << 31)
                if z == t0:
                    x0 = x0_value(t0)
                    v.need("h-arc-endpoints", circ(ha.start, x0) <= tol
                           and circ(ha.end, x0 + Fraction(1, 2)) <= tol,
                           "h_arc(%s) endpoints off x0, x0+1/2" % t0)
                else:
                    k = next(m for m in range(1, 64) if (z * (1 << m)) % 1 == t0)
                    v.need("h-arc-endpoints", (ha.end - ha.start) % 1 == Fraction(1, 2 * 4 ** k),
                           "h_arc(%s, %s) length is not the atom weight" % (z, t0))
        elif kind == "mu-cli":
            for call, o in zip(job["calls"], outs):
                z, t0 = Fraction(_arg(call[1], "--z")), Fraction(_arg(call[1], "--theta"))
                k = next(m for m in range(64) if (z * (1 << m)) % 1 == t0)
                v.need("mu-weight", Fraction(o["out"].strip()) == Fraction(1, 2 * 4 ** k),
                       "mu(%s) at theta0=%s" % (z, t0))
        elif kind == "preimages-cli":
            for call, o in zip(job["calls"], outs):
                t0, n = Fraction(_arg(call[1], "--theta")), int(_arg(call[1], "--depth"))
                pts = [Fraction(s) for s in o["out"].split()]
                v.need("preimages", len(pts) == 1 << n and pts == sorted(set(pts))
                       and all((p * (1 << n)) % 1 == t0 for p in pts),
                       "preimages of %s at depth %d" % (t0, n))
        elif kind == "y0-cli":
            for call, o in zip(job["calls"], outs):
                t = Fraction(_arg(call[1], "--theta"))
                e, L = orbit_lengths(t.denominator)
                d = binary_digits(t, e + L)
                head = sum(Fraction(b, 4 ** (m + 1)) for m, b in enumerate(d[:e]))
                tail = sum(Fraction(b, 4 ** (j + 1)) for j, b in enumerate(d[e:]))
                want = (Fraction(1, 3) + head + tail / 4 ** e / (1 - Fraction(1, 4 ** L))) % 1
                v.need("y0", Fraction(o["out"].strip()) == want, "y0(%s)" % t)
        elif kind == "semiconj-cli":
            for call, o in zip(job["calls"], outs):
                t0, n = Fraction(_arg(call[1], "--theta")), int(_arg(call[1], "--samples"))
                words = o["out"].split()
                x0 = x0_value(t0)
                inside = sum(1 for k in range(n)
                             if 0 < (Fraction(k, n) - x0) % 1 < Fraction(1, 2))
                v.need("semiconj-domain", int(words[1]) == n - inside and int(words[3]) == inside,
                       "semiconj sample/skip split at %s" % t0)


def _verify_leaf_file(v: Verdicts, path: str, model: dict, what: str) -> list[tuple]:
    leaves = parse_leaves(_read(path))
    v.need("leaf-counts", len(leaves) == len(model) and set(leaves) == set(model),
           "%s: %d leaves, model has %d" % (what, len(leaves), len(model)))
    return leaves


def _layer_lengths_ok(model: dict, length_of_layer) -> bool:
    for (side, a, b), n in model.items():
        d = b - a
        if min(d, 1 - d) != min(length_of_layer(n), 1 - length_of_layer(n)):
            return False
    return True


def _sample_crossings(v: Verdicts, rng: random.Random, leaves: list[tuple], what: str) -> None:
    by_side: dict[str, list] = {}
    for side, a, b in leaves:
        by_side.setdefault(side, []).append((a, b))
    for side, chords in by_side.items():
        if len(chords) < 2:
            continue
        for _ in range(CROSS_SAMPLES // len(by_side)):
            (a1, b1), (a2, b2) = rng.sample(chords, 2)
            if chords_cross(a1, b1, a2, b2):
                v.need("no-crossings", False, "%s: %s-leaves cross" % (what, side))
                return
        v.need("no-crossings", True, "")


def _verify_laminations(jobs, outputs, v: Verdicts) -> None:
    import xml.etree.ElementTree as ET

    rng = random.Random(0)
    two_sided = {}
    one_sided = {}
    for job, outs in zip(jobs, outputs):
        kind = job["kind"]
        call, o = job["calls"][0], outs[0]
        argv = call[1] if call[0] == "cli" else None
        if kind == "two-sided":
            t, d = Fraction(_arg(argv, "--theta")), int(_arg(argv, "--depth"))
            model = model_2L(t, d)
            v.need("leaf-counts", len(model) == (1 << (d + 1)) - 1
                   and _layer_lengths_ok(model, lambda n: Fraction(1, 1 << (n + 1))),
                   "2L model of %s has the wrong layer sizes" % t)
            v.need("leaf-counts", o["out"].strip().endswith("leaves: %d" % len(model)),
                   "lam two-sided %s %d prints another count" % (t, d))
            leaves = _verify_leaf_file(v, _arg(argv, "--leaves"), model, "2L(%s, %d)" % (t, d))
            two_sided[(t, d)] = set(leaves)
            _sample_crossings(v, rng, leaves, "2L(%s, %d)" % (t, d))
            root = ET.fromstring(_read(_arg(argv, "--svg")))
            chords = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] in ("line", "path")]
            v.need("svg-chords", len(chords) == len(leaves),
                   "SVG of 2L(%s, %d) has %d chords for %d leaves" % (t, d, len(chords), len(leaves)))
        elif kind == "lam-L":
            t, d = Fraction(_arg(argv, "--theta")), int(_arg(argv, "--depth"))
            leaves = parse_leaves(_read(_arg(argv, "--leaves")))
            model = model_L(t, d)
            if "--mirror" in argv:
                one_sided[(t, d, True)] = set(leaves)
                v.need("leaf-counts", all(s == "O" for s, _, _ in leaves),
                       "mirrored L(%s, %d) has inside leaves" % (t, d))
            else:
                v.need("leaf-counts", len(model) == (4 ** (d + 1) - 1) // 3
                       and _layer_lengths_ok(model, lambda n: Fraction(1, 2 * 4 ** n)),
                       "L model of %s has the wrong layer sizes" % t)
                _verify_leaf_file(v, _arg(argv, "--leaves"), model, "L(%s, %d)" % (t, d))
                one_sided[(t, d, False)] = set(leaves)
        elif kind == "crossings":
            t, d = Fraction(call[2][0]), call[2][1]
            bad, pairs = o["value"]
            model = model_2L(t, d)
            n_in = sum(1 for s, _, _ in model if s == "I")
            n_out = len(model) - n_in
            v.need("no-crossings", bad == 0 and pairs == n_in * (n_in - 1) // 2 + n_out * (n_out - 1) // 2,
                   "crossing scan of 2L(%s, %d): %d crossings over %d pairs" % (t, d, bad, pairs))
        elif kind == "invariance-cli":
            d = int(_arg(argv, "--depth"))
            v.need("invariance", o["rc"] == 0 and o["out"].split()[:4]
                   == ["checked", str((1 << d) - 1), "failures", "0"],
                   "check-invariance: %r" % o["out"][:80])
        elif kind == "regions-cli":
            t, d = Fraction(_arg(argv, "--theta")), int(_arg(argv, "--depth"))
            side = _arg(argv, "--side")
            n = sum(1 for s, _, _ in model_2L(t, d) if s == side)
            v.need("regions", o["out"].splitlines()[0] == "regions: %d" % (n + 1),
                   "%d %s-chords must cut the disk into %d regions" % (n, side, n + 1))
        elif kind in ("quadratic", "basilica", "mate"):
            leaves = parse_leaves(_read(_arg(argv, "--leaves")))
            v.need("leaf-counts", o["out"].strip().endswith("leaves: %d" % len(leaves)),
                   "%s prints another leaf count" % kind)
            if kind == "quadratic":
                y0 = Fraction(_arg(argv, "--y0"))
                major = ("I", y0 / 2, y0 / 2 + Fraction(1, 2))
                v.need("leaf-counts", major in set(leaves), "quadratic lamination lacks its major")
            elif kind == "basilica":
                v.need("leaf-counts", ("I", Fraction(1, 3), Fraction(2, 3)) in set(leaves),
                       "basilica lacks {1/3, 2/3}")
                _sample_crossings(v, rng, leaves, "basilica")
            else:
                _sample_crossings(v, rng, [l for l in leaves if l[0] == "I"], "mate inside")
        elif kind == "match-leaves-cli":
            d = int(_arg(argv, "--depth"))
            n = (1 << (d + 1)) - 1
            v.need("address-match", o["rc"] == 0 and o["out"].strip()
                   == "leaves %d (bad 0), words %d (bad 0) -> ok" % (n, n),
                   "match-leaves depth %d: %r" % (d, o["out"].strip()))
        elif kind == "equiv-cli":
            for o2 in outs:
                v.need("address-match", o2["out"].strip() == "equivalent",
                       "leaf endpoint addresses not equivalent")
        elif kind == "critical-address-cli":
            for c, o2 in zip(job["calls"], outs):
                t = Fraction(_arg(c[1], "--theta"))
                x0 = x0_value(t)
                want = [address_text(x0 % 1), address_text((x0 + Fraction(1, 2)) % 1)]
                got = o2["out"].split()
                v.need("address-match", sorted(_addr_key(a) for a in got)
                       == sorted(_addr_key(a) for a in want),
                       "critical addresses of %s are not those of x0, x0+1/2" % t)
        elif kind == "angle-to-address-cli":
            for c, o2 in zip(job["calls"], outs):
                t = Fraction(_arg(c[1], "--theta"))
                v.need("address-match", _addr_key(o2["out"]) == _addr_key(address_text(t)),
                       "address of %s" % t)
        elif kind == "reg-ray":
            for g, q1, q2, i1, i2 in o["value"]:
                v.need("reg-ray-roundtrip", i1 == g and i2 == g and q1.base == q2.base == "inf",
                       "image(preimage(%s)) != %s" % (g, g))
    for (t, d), leaves in two_sided.items():
        ins = one_sided.get((t, d // 2, False))
        outs_ = one_sided.get((t, (d + 1) // 2, True))
        if ins is not None and outs_ is not None:
            v.need("two-sided-split", leaves == ins | outs_,
                   "2L(%s, %d) != L(%d) + mirrored L(%d)" % (t, d, d // 2, (d + 1) // 2))


def _addr_key(text: str) -> tuple:
    """An address as its first 200 bits (enough to tell the inputs apart)."""
    lead, body = text.strip().split("|")
    pre, per = body[:-1].split("(")
    bits = lead + pre + per * (200 // len(per) + 1)
    return tuple(bits[:200])


def _pgm(path: str):
    import numpy as np

    with open(path, "rb") as fh:
        data = fh.read()
    magic, dims, maxval, rest = data.split(b"\n", 3)
    w, h = (int(x) for x in dims.split())
    return magic, w, h, int(maxval), np.frombuffer(rest, dtype=np.uint8)


def gray(v: int) -> int:
    """The documented PGM level of a raster value."""
    if v > 0:
        return 64 + (v * 9) % 192
    if v < 0:
        return 32 + ((-v) * 9) % 192
    return 0


def pixel_centers(w, h, re_min, re_max, im_min, im_max):
    dx, dy = (re_max - re_min) / w, (im_max - im_min) / h
    mid = 0.5 * (im_min + im_max)
    return ([re_min + (i + 0.5) * dx for i in range(w)],
            [mid + (j + 0.5 - h / 2.0) * dy for j in range(h)])


def _trap_radii(a: complex) -> tuple[float, float]:
    m = abs(a)
    return min(0.25, m / 21.0), 1.0 + math.sqrt(1.0 + max(4.0 * m, 21.0))


def m2_step(a: complex, n_max: int = TRAP_STEPS) -> int:
    """Trap-entry step of the orbit -1 -> f_a(-1) -> ..., 0 if none by n_max."""
    rho, R = _trap_radii(a)
    z = -1.0 + 0j
    for k in range(1, n_max + 1):
        den = z * (z + 2.0)
        if den == 0:
            return k
        z = a / den
        mag = abs(z)
        if not math.isfinite(mag) or mag <= rho or mag >= R:
            return k
    return 0


def julia_step(a: complex, z0: complex, n_max: int = TRAP_STEPS) -> int:
    """Signed trap-entry step under F = f o f from z0 (+ outer, - inner)."""
    rho, R = _trap_radii(a)
    z = z0
    for k in range(1, n_max + 1):
        mag = abs(z)
        if not math.isfinite(mag) or mag >= R:
            return k
        if mag <= rho:
            return -k
        try:
            w = a / (z * (z + 2.0))
            z = a / (w * (w + 2.0))
        except (ZeroDivisionError, OverflowError):
            return k + 1          # through a pole: infinity, caught next step
    return 0


def conditioned_step(step, c: complex) -> int | None:
    """The step at c, or None when relative nudges of 1e-9 to c change it.

    The program iterates whole arrays with numpy, whose complex arithmetic
    rounds differently in the last bit from a scalar loop; chaotic orbits
    near the locus or Julia boundary amplify that over hundreds of steps.
    Only pixels whose step is stable under much larger nudges are compared.
    """
    k = step(c)
    h = 1e-9 * max(1.0, abs(c))
    if all(step(c + d) == k for d in (h, -h, 1j * h, -1j * h)):
        return k
    return None


def _parse_c(text: str) -> complex:
    re_, im_ = text.split(",") if "," in text else (text, "0")
    return complex(float(re_), float(im_))


def _parse_printed_c(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _verify_raster(v: Verdicts, rng: random.Random, argv: list, kind: str) -> None:
    path = _arg(argv, "--out")
    w, h = int(_arg(argv, "--width")), int(_arg(argv, "--height"))
    magic, pw, ph, maxval, img = _pgm(path)
    v.need("pgm-header", magic == b"P5" and (pw, ph, maxval) == (w, h, 255) and img.size == w * h,
           "%s header %r %dx%d" % (path, magic, pw, ph))
    if img.size != w * h:
        return
    img = img.reshape(h, w)
    defaults = (-8.0, 4.0, -6.0, 6.0) if kind == "m2" else (-3.5, 1.5, -2.5, 2.5)
    bounds = [float(_arg(argv, f)) if f in argv else dflt
              for f, dflt in zip(("--re-min", "--re-max", "--im-min", "--im-max"), defaults)]
    xs, ys = pixel_centers(w, h, *bounds)
    if kind == "m2":
        a = None
    else:
        a = _parse_c(next(x.split("=", 1)[1] for x in argv if x.startswith("--a=")))
    if bounds[2] == -bounds[3] and (a is None or a.imag == 0):
        v.need("conjugation-symmetry", bool((img == img[::-1, :]).all()),
               "%s is not symmetric under conjugation" % path)
    step = m2_step if a is None else (lambda z: julia_step(a, z))
    compared = 0
    for _ in range(PIXEL_SAMPLES):
        i, j = rng.randrange(w), rng.randrange(h)
        k = conditioned_step(step, complex(xs[i], ys[j]))
        if k is None:
            continue
        compared += 1
        v.need("pixel-recompute", gray(k) == int(img[j, i]),
               "%s pixel (%d, %d): level %d, scalar iteration gives step %d"
               % (path, i, j, img[j, i], k))
    v.need("pixel-recompute", compared >= PIXEL_SAMPLES // 2,
           "%s: only %d of %d sampled pixels are well conditioned" % (path, compared, PIXEL_SAMPLES))


def _read_csv(path: str) -> list[tuple[float, complex, float]]:
    rows = _read(path).splitlines()[1:]
    out = []
    for r in rows:
        s, re_, im_, res = r.split(",")
        out.append((float(s), complex(float(re_), float(im_)), float(res)))
    return out


def _verify_numerics(jobs, outputs, v: Verdicts) -> None:
    from v2lam import dynamics

    rng = random.Random(0)
    for job, outs in zip(jobs, outputs):
        kind = job["kind"]
        for call, o in zip(job["calls"], outs):
            argv = call[1] if call[0] == "cli" else None
            if kind in ("m2", "julia"):
                _verify_raster(v, rng, argv, kind)
            elif kind == "julia-agreement":
                agree = float(o["out"].split("agreement:")[1].split()[0])
                v.need("julia-agreement", agree >= 0.5,
                       "inverse-iteration points on the escape boundary: %.4f" % agree)
            elif kind == "param-ray":
                t = Fraction(_arg(argv, "--theta"))
                pts = _read_csv(_arg(argv, "--out"))
                v.need("ray-complete", "incomplete" not in o["out"] and len(pts) == 200,
                       "parameter ray %s incomplete (%d points)" % (t, len(pts)))
                if t == 0:
                    v.need("ray-complete", max(abs(a.imag) for _, a, _ in pts) <= 1e-10,
                           "the 0-ray leaves the real axis")
                else:
                    worst = max(dynamics.critical_value_angle_error(a, t) for _, a, _ in pts)
                    v.need("ray-angle", worst < 1e-6,
                           "parameter ray %s: angle error %.3g" % (t, worst))
            elif kind == "dyn-ray":
                a = complex(float(_arg(argv, "--a")))
                pts = _read_csv(_arg(argv, "--out"))
                worst = max(abs(dynamics.green_value(a, z) - s) / s for s, z, _ in pts)
                v.need("ray-complete", "incomplete" not in o["out"] and len(pts) == 200
                       and worst < 1e-6,
                       "dynamical ray off its potential by %.3g (%d points)" % (worst, len(pts)))
            elif kind == "ray-leaves":
                theta0, d = Fraction(call[2][0]), call[2][1]
                ray, leaves = o["value"]
                model: dict[tuple, list] = {}
                for (side, a, b), n in model_2L(theta0, d).items():
                    model.setdefault((n, side), []).append((float(a), float(b)))
                unresolved = sum(1 for l in leaves if l.unresolved)
                v.need("ray-leaves", ray.complete and len(leaves) == (1 << (d + 1)) - 1
                       and unresolved / len(leaves) < 0.2,
                       "%d ray leaves, %d unresolved" % (len(leaves), unresolved))
                for l in leaves:
                    if l.unresolved:
                        continue
                    best = min(min(max(_cd(l.t1, a), _cd(l.t2, b)), max(_cd(l.t1, b), _cd(l.t2, a)))
                               for a, b in model[(l.depth, l.side)])
                    v.need("ray-leaves", best < 1e-2,
                           "ray leaf at depth %d is %.3g from the 2L model" % (l.depth, best))
            elif kind == "fixed-cli":
                a = _parse_c(_arg(argv, "--a") if "--a" in argv else argv[2].split("=", 1)[1])
                zs = [line.split()[2] for line in o["out"].splitlines() if line.startswith("z =")]
                ms = [line.split()[5] for line in o["out"].splitlines() if line.startswith("z =")]
                tol = 1e-9 * max(1.0, abs(a))
                ok = len(zs) == 3
                for zt, mt in zip(zs, ms):
                    z, mult = _parse_printed_c(zt), _parse_printed_c(mt)
                    ok = ok and abs(z ** 3 + 2 * z ** 2 - a) < tol
                    want = -a * (2 * z + 2) / (z * z + 2 * z) ** 2
                    ok = ok and abs(mult - want) <= 1e-8 * max(1.0, abs(want))
                v.need("fixed-points", ok, "fixed points of a=%r" % a)
            elif kind == "green-cli":
                z = _parse_c(argv[3].split("=", 1)[1])
                g = float(o["out"].split("=")[1])
                v.need("green-asymptote", abs(g - (math.log(abs(z)) - math.log(2.0))) < 1e-3,
                       "Green value at |z| = %.3g: %.6g" % (abs(z), g))


def _cd(u: float, v: float) -> float:
    d = abs(u - v) % 1.0
    return min(d, 1.0 - d)


CHECKS = {
    "exact-angles": ("x0-enclosure", "x0-interleave", "x0-denominator", "x0-known-values",
                     "cumulative-truncation", "cumulative-doubling", "truncated-mass",
                     "h-arc-endpoints", "mu-weight", "preimages", "y0", "semiconj-domain",
                     "check-suites"),
    "laminations": ("leaf-counts", "no-crossings", "svg-chords", "two-sided-split",
                    "invariance", "regions", "address-match", "reg-ray-roundtrip",
                    "check-suites"),
    "numerics": ("conjugation-symmetry", "pixel-recompute", "pgm-header", "julia-agreement",
                 "ray-complete", "ray-angle", "ray-leaves", "fixed-points", "green-asymptote",
                 "check-suites"),
}


def verify(workload: str, jobs: list[dict], outputs: list[list[dict]]) -> list[tuple]:
    """Check one round's outputs; returns (check, ok, detail) per named check.

    Every call must have succeeded (exit code 0, no exception); a failed call
    is reported by the worker and its output is not checked here.
    """
    v = Verdicts(CHECKS[workload])
    for job, outs in zip(jobs, outputs):
        if job["kind"] == "check-cli":
            for o in outs:
                lines = o["out"].splitlines()
                v.need("check-suites", o["rc"] == 0 and bool(lines)
                       and all(line.startswith("ok ") for line in lines),
                       "check suite: %r" % o["out"][:120])
    live = [(j, o) for j, o in zip(jobs, outputs) if all(x.get("ok") for x in o)]
    jobs_ok, outs_ok = [j for j, _ in live], [o for _, o in live]
    verifier = {"exact-angles": _verify_exact_angles, "laminations": _verify_laminations,
                "numerics": _verify_numerics}[workload]
    try:
        verifier(jobs_ok, outs_ok, v)
    except Exception as exc:      # output the checks cannot even parse
        return list(v.items()) + [("outputs-parse", False, "%s: %s" % (type(exc).__name__, exc))]
    return list(v.items())
