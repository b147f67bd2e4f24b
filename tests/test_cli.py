"""End-to-end tests of the command-line front end.

Every test drives ``v2lam.cli.main`` with an argv list and checks the exit
code and captured output, exactly as a shell user would see them.
"""
from __future__ import annotations

import json
import math
import re
import shlex
import sys
import time
from fractions import Fraction

import pytest

from v2lam import cli
from v2lam.cli import main
from v2lam.dynamics import fixed_points


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# documented invocations
# ---------------------------------------------------------------------------

def test_angle_x0_prints_value_and_stream(capsys):
    code, out, _ = run(capsys, "angle", "x0", "--theta", "1/6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "11/60"
    assert lines[1] == "00(1011)"


def test_angle_x0_prints_beyond_int_digit_limit(capsys):
    # period 8052: the reduced x0 has about 4850 digits, past Python's
    # default int-to-str limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "angle", "x0", "--theta", "3/16106")
    assert code == 0, err
    value, stream = out.splitlines()
    num, den = value.split("/")
    assert num.isdigit() and den.isdigit() and len(den) > 4300
    assert len(stream) > 8052
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [
    ("angle", "sigma", "--theta", "3/16106"),
    ("angle", "h-arc", "--z", "3/16106", "--theta", "3/16106"),
    ("lam", "L0", "--theta", "3/16106", "--depth", "1", "--leaves", "F"),
    ("lam", "two-sided", "--theta", "3/16106", "--depth", "1", "--leaves", "F"),
], ids=["sigma", "h-arc", "L0", "two-sided"])
def test_exact_output_prints_beyond_int_digit_limit(tmp_path, monkeypatch, capsys, argv):
    # arcs and leaf endpoints of a period-8052 generator have more than 4300 digits
    monkeypatch.chdir(tmp_path)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert len(out) > 4300 or len((tmp_path / "F").read_text()) > 4300
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("theta", ["0", "1/6", "5/12", "3/10", "7/9", "11/1024"])
def test_shifts_match_the_step_by_step_oracle(capsys, theta):
    from v2lam.symbolic import address_to_angle, angle_to_address

    t = Fraction(theta)
    start = angle_to_address(t)
    addr, doubled = start, t
    for k in range(41):
        code, out, _ = run(capsys, "angle", "digits", "--theta", theta, "--shift", str(k))
        assert code == 0 and out.splitlines()[0] == str(doubled)
        code, out, _ = run(capsys, "sym", "angle-to-address", "--theta", theta,
                           "--shift", str(k))
        assert code == 0 and out.strip() == str(addr)
        code, out, _ = run(capsys, "sym", "angle-to-address", "--address", str(start),
                           "--shift", str(k))
        assert code == 0 and out.strip() == str(address_to_angle(addr))
        doubled, addr = (2 * doubled) % 1, addr.shift(1)


def test_huge_shifts_finish(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "angle", "digits", "--theta", "1/6", "--shift", "100000000")
    assert code == 0 and out.splitlines()[:2] == ["2/3", "(10)"]
    code, out, _ = run(capsys, "sym", "angle-to-address", "--theta", "1/6",
                       "--shift", "100000000")
    assert code == 0 and out.strip() == "0|(0)"
    assert time.perf_counter() - start < 5.0


def test_x0_and_critical_address_at_a_61_bit_mersenne_denominator(capsys):
    # the odd part 2^61 - 1 is prime, beyond trial division to its square root
    code, out, _ = run(capsys, "angle", "x0", "--theta", "1/4611686018427387902")
    assert code == 0
    assert out.splitlines()[1] == "00(" + "10" * 60 + "11)"
    code, out, _ = run(capsys, "sym", "critical-address", "--theta", "1/4611686018427387902")
    assert code == 0
    assert out.splitlines() == ["%d|0(%s1)" % (b, "0" * 121) for b in (0, 1)]


def test_angle_x0_series_enclosure(capsys):
    code, out, _ = run(capsys, "angle", "x0", "--theta", "1/2", "--terms", "10")
    assert code == 0
    assert out.splitlines()[0] == "1/4"
    assert "enclosure [" in out and "width 2^-11" in out


def test_lam_two_sided_writes_files(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    leaves = tmp_path / "out.leaves"
    code, out, _ = run(capsys, "lam", "two-sided", "--theta", "1/2",
                       "--depth", "6", "--svg", str(svg), "--leaves", str(leaves))
    assert code == 0
    assert svg.exists() and leaves.exists()
    assert re.search(r"^leaves: \d+$", out, re.M)
    assert svg.read_text().startswith("<?xml")


def test_lam_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    names = []
    for tag in ("a", "b"):
        svg = tmp_path / f"{tag}.svg"
        lv = tmp_path / f"{tag}.leaves"
        code, _, _ = run(capsys, "lam", "two-sided", "--theta", "1/2",
                         "--depth", "5", "--svg", str(svg), "--leaves", str(lv))
        assert code == 0
        names.append((svg, lv))
    (svg_a, lv_a), (svg_b, lv_b) = names
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert lv_a.read_bytes() == lv_b.read_bytes()


def test_check_group_line_format(capsys):
    code, out, _ = run(capsys, "check", "sym", "--depth", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    pat = re.compile(r"^(ok|FAIL)\s+check \d{2} \S+\s+\[sym\] .+$")
    for line in lines:
        assert pat.match(line), line
        assert not re.search(r"\(\d+\.\d+s\)$", line), line


def test_check_stdout_is_deterministic(capsys):
    first = run(capsys, "check", "sym", "--depth", "6")
    second = run(capsys, "check", "sym", "--depth", "6")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    # the timings go to stderr, one line per check
    assert re.fullmatch(r"(check \d{2} took \d+\.\d\ds\n){2}", second[2])


def test_check_json_prints_one_object_per_check(capsys):
    text = run(capsys, "check", "lam")
    code, out, err = run(capsys, "check", "lam", "--json")
    assert code == text[0] == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert [(o["number"], o["name"], o["group"], o["ok"]) for o in objs] == [
        (4, "disjoint-bridges", "lam", True), (5, "two-sided-invariance", "lam", True),
        (6, "construction-equivalence", "lam", True)]
    assert all(set(o) == {"number", "name", "group", "ok", "detail", "seconds"} for o in objs)
    assert all(isinstance(o["seconds"], float) and o["seconds"] >= 0 for o in objs)
    # the same verdicts and details as the text lines
    for o, line in zip(objs, text[1].splitlines()):
        assert line == "ok   check %02d %-22s [lam] %s" % (o["number"], o["name"], o["detail"])
    assert re.fullmatch(r"(check \d{2} took \d+\.\d\ds\n){3}", err)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_success_is_zero(capsys):
    code, _, _ = run(capsys, "angle", "y0", "--theta", "1/2")
    assert code == 0


def test_domain_error_is_one(capsys):
    code, _, err = run(capsys, "angle", "x0", "--theta", "1/3")
    assert code == 1
    assert "error:" in err


def test_numeric_error_is_two(capsys):
    # bounded orbit: the escape coordinate cannot be defined there
    code, _, err = run(capsys, "dyn", "green", "--a", "1", "--z=-1,0", "--boettcher")
    assert code == 2
    assert "numeric error:" in err


_WIDE_JULIA = ("dyn julia --a 6 --width 9 --height 9 --re-min=-100 --re-max 100 "
               "--im-min=-100 --im-max 100 --n-max 4")
_RAY_LEAVES_1_6 = ("0 I 0.683332443 0.183332443 err=5.7e-06\n"
                   "1 O 0.658333778 0.908333778 err=2.9e-06\n"
                   "1 O 0.158333778 0.408333778 err=2.9e-06\n")


@pytest.mark.parametrize("argv, code, out, err, files", [
    # 1/3 is periodic: its hits on its own orbit repeat with period 2, at
    # depths 0, 2 and 4 up to either cap
    ("angle mu --z 1/3 --theta 1/3 --cap 5", 0, "273/512\n", "", ()),
    ("angle mu --z 1/3 --theta 1/3 --cap 4", 0, "273/512\n", "", ()),
    # s_from below G(-a): the 0-based ray would start past the crash
    ("dyn ray --a 6 --base 0 --theta 1/3 --s-from 0.01 --s-to 0.001", 1, "",
     "error: s_from must exceed the critical-value potential G(-a) = 0.878159 for a 0-based ray\n",
     ()),
    # the critical value -6 sits on the half-turn ray: its pullback from 0
    # crashes into the critical point -1
    ("dyn ray --a 6 --base 0 --theta 1/2 --steps 20", 0,
     "points: 6\nlast: s=0.878159 z=-1-1.01064592348e-07i residual=2.1e-13\n"
     "crashed: s=0.87815949 at -1-1.01064592348e-07i\n", "", ()),
    # the mirror drops the central chord, whose image is antipodal, and
    # folds the four depth-1 chords onto two
    ("lam L --theta 1/2 --depth 1 --mirror --leaves F", 0, "wrote F\nleaves: 2\n", "",
     (("F", "O 5/8 7/8\nO 1/8 3/8\n"),)),
    # a window of radius 100 at a = 6: every pixel but the one at z = 0
    # enters the outer trap |z| >= R, on the infinity side
    (_WIDE_JULIA, 0, "zero-side pixels: 1\ninfinity-side pixels: 80\n", "", ()),
    (_WIDE_JULIA + " --method inverse --points 1000", 0, "hit pixels: 1\n", "", ()),
    (_WIDE_JULIA + " --points 1000 --out F.pgm --agreement", 0,
     "wrote F.pgm (9x9)\nagreement: 1.0000\nzero-side pixels: 1\ninfinity-side pixels: 80\n",
     "", ()),
    ("dyn ray-leaves --a=-0.37,-2.97 --depth 1 --theta0 1/6 --out F", 0,
     "wrote F\n" + _RAY_LEAVES_1_6, "", (("F", _RAY_LEAVES_1_6),)),
], ids=["mu-periodic-cycle", "mu-periodic-cycle-at-cap", "ray-0-below-crash", "ray-0-crash",
        "L-mirror", "julia-sides", "julia-inverse-hits", "julia-out-agreement",
        "ray-leaves-out"])
def test_library_branches_through_the_cli(tmp_path, monkeypatch, capsys, argv, code, out, err,
                                          files):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *shlex.split(argv)) == (code, out, err)
    for name, text in files:
        assert (tmp_path / name).read_text() == text


def test_lam_mate_draws_an_antipodal_outside_chord_as_two_radial_rays(tmp_path, capsys):
    svg = tmp_path / "mate.svg"
    code, _, _ = run(capsys, "lam", "mate", "--outer-y0", "1/3", "--depth", "0", "--svg", str(svg))
    assert code == 0
    assert ('<path d="M 174.000000 64.192379 L 24.000000 -195.615242 '
            'M 474.000000 583.807621 L 624.000000 843.615242" stroke="#d62728" '
            'stroke-width="1.000000" fill="none"/>') in svg.read_text().splitlines()


WINDOW_RASTERS = {
    "m2": ("dyn", "m2", "--width", "8", "--height", "8"),
    "julia": ("dyn", "julia", "--a", "1", "--width", "8", "--height", "8"),
}


@pytest.mark.parametrize("kind", sorted(WINDOW_RASTERS))
@pytest.mark.parametrize("bounds, want, prefix", [
    (("--re-min", "nan"), 1, "error:"),
    (("--im-max", "inf"), 1, "error:"),
    (("--re-min=-1e308", "--re-max", "1e308"), 2, "numeric error:"),
    (("--im-min", "1.7e308", "--im-max", "1.7e308"), 2, "numeric error:"),
], ids=["nan", "inf", "span-overflow", "centre-overflow"])
def test_dyn_raster_refuses_ungriddable_window(tmp_path, capsys, kind, bounds, want,
                                               prefix):
    out_path = tmp_path / "x.pgm"
    code, out, err = run(capsys, *WINDOW_RASTERS[kind], *bounds, "--out", str(out_path))
    assert code == want
    assert out == ""
    assert err.startswith(prefix)
    assert not out_path.exists()


@pytest.mark.parametrize("bounds", [
    ("--re-min=1.7976931348623157e308", "--re-max", "1.7976931348623157e308"),
    ("--re-min=1.7e308", "--re-max", "1.7e308", "--im-min=8e307", "--im-max", "8e307"),
], ids=["4a-overflow", "abs-a-overflow"])
@pytest.mark.filterwarnings("error")
def test_dyn_m2_refuses_overflowing_trap_radius(tmp_path, capsys, bounds):
    # the window grids, but R = 1 + sqrt(1 + 4|a|) is inf at every pixel
    out_path = tmp_path / "x.pgm"
    code, out, err = run(capsys, *WINDOW_RASTERS["m2"], *bounds, "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("numeric error: trap radius R overflows")
    assert not out_path.exists()


@pytest.mark.parametrize("z", ["1e200,0", "1e200,1e200"])
def test_dyn_blaschke_non_finite_value_is_numeric_error(capsys, z):
    code, out, err = run(capsys, "dyn", "blaschke", "--b", "0.5,0", "--z", z)
    assert code == 2
    assert out == ""
    assert err.startswith("numeric error:")


def test_dyn_fixed_huge_parameter_is_numeric_error(capsys):
    # R = 1 + sqrt(1 + 4|a|) overflows: exit 2, no partial table
    code, out, err = run(capsys, "dyn", "fixed", "--a=1e308,0")
    assert code == 2
    assert out == ""
    assert "numeric error:" in err


@pytest.mark.parametrize("argv", [
    ("dyn", "fixed"),
    ("dyn", "green", "--z", "3,1"),
    ("dyn", "julia", "--width", "8", "--height", "8"),
    ("dyn", "julia", "--width", "8", "--height", "8", "--method", "inverse"),
    ("dyn", "ray-leaves", "--depth", "1"),
], ids=["fixed", "green", "julia-escape", "julia-inverse", "ray-leaves"])
def test_parameter_modulus_beyond_the_float_range_is_numeric_error(capsys, argv):
    # both parts are finite, but |a| overflows: the parameter gate refuses it
    code, out, err = run(capsys, *argv, "--a", "1.7e308,1e308")
    assert (code, out) == (2, "")
    assert err == "numeric error: |a| exceeds the float range\n"
    assert "Traceback" not in err


def test_dyn_fixed_large_parameter_stays_finite(capsys):
    # (z^2+2z)^2 overflows at these fixed points; the multiplier is ~ -2
    code, out, _ = run(capsys, "dyn", "fixed", "--a=1e250,3")
    assert code == 0
    mults = [complex(ln.split("multiplier = ")[1].replace("i", "j"))
             for ln in out.splitlines() if ln.startswith("z = ")]
    assert len(mults) == 3
    assert all(abs(m + 2.0) < 1e-9 for m in mults)
    assert "nan" not in out and "inf" not in out


def _fixed_rows(out):
    rows = [ln.split("z = ")[1].split("  multiplier = ") for ln in out.splitlines()
            if ln.startswith("z = ")]
    return [tuple(complex(v.replace("i", "j")) for v in row) for row in rows]


@pytest.mark.parametrize("a, code", [("1e-15", 0), ("1e-8", 0), ("-1e-15", 0), ("-1e-8", 0),
                                     ("1e-100", 2), ("1e-320", 2), ("-1e-60", 2),
                                     ("1e-300,1e-300", None), ("0,1e-60", 0), ("1e-60,1e-60", 0),
                                     ("1e-100,1e-100", 0), ("-1e-60,1e-70", 0)])
def test_dyn_fixed_tiny_parameter(capsys, a, code):
    # the fixed point -2 + a/4 + ... sits next to the pole -2, and the pair
    # ±sqrt(a/2) + ... next to the pole 0: the computed points are never
    # poles, and the printed multipliers follow the fixed-point identity
    # f_a'(z) = -2z^2(z+1)/a; where a point rounds onto -2 the run exits 2
    got, out, err = run(capsys, "dyn", "fixed", "--a=" + a)
    assert got in (0, 2) and (code is None or got == code)
    if got == 2:
        assert out == "" and err.startswith("numeric error:")
        return
    av = complex(*map(float, a.split(","))) if "," in a else complex(float(a))
    assert all(z != 0 and z != -2 for z in fixed_points(av))
    rows = _fixed_rows(out)
    assert len(rows) == 3
    for z, m in rows:
        assert math.isfinite(abs(z)) and math.isfinite(abs(m))
        want = -2 * z * z * (z + 1) / av
        assert abs(m - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("a", ["-1e-8", "-1e-15", "-1e-8,-1e-20", "-1e-15,1e-30",
                               "-1e-60,1e-70", "-1e-60,-1e-70", "-2e-6,1e-9", "1e-8",
                               "0,1e-60", "1e-60,1e-60", "1e-100,1e-100"])
def test_dyn_fixed_tiny_parameter_finds_three_distinct_roots(capsys, a):
    # the pair ±sqrt(a/2) + ... stays two points for a on or near the
    # negative real axis, and the three roots of z^3 + 2z^2 - a have
    # sum -2 and product a
    code, out, err = run(capsys, "dyn", "fixed", "--a=" + a)
    assert code == 0, err
    assert len(set(z for z, _ in _fixed_rows(out))) == 3
    av = complex(*map(float, a.split(","))) if "," in a else complex(float(a))
    z1, z2, z3 = fixed_points(av)
    for u, v in ((z1, z2), (z1, z3), (z2, z3)):
        assert abs(u - v) > 0.5 * max(abs(u), abs(v))
    assert abs(z1 + z2 + z3 + 2) <= 1e-15
    assert abs(z1 * z2 * z3 - av) <= 1e-14 * abs(av)


@pytest.mark.parametrize("a, w", [("0,1e-40", 2.5e-41), ("0,1e-25", 2.5e-26),
                                  ("0,-1e-30", -2.5e-31), ("1e-20,1e-20", 2.5e-21)])
def test_dyn_fixed_near_pole_point_keeps_its_offset(capsys, a, w):
    # z = -2 + w with w = a/4 + O(a^2): Im z = Im w is accurate to its last
    # printed digit, and the multiplier 8/a - 4 + O(a) keeps its real part
    code, out, err = run(capsys, "dyn", "fixed", "--a=" + a)
    assert code == 0, err
    z, m = _fixed_rows(out)[0]
    assert z.real == -2 and abs(z.imag - w) <= 1e-11 * abs(w)
    av = complex(*map(float, a.split(",")))
    assert abs(m.real - (8 / av - 4).real) <= 1e-9 * max(1.0, abs((8 / av).real))


@pytest.mark.parametrize("a, w", [("1e-15", "2.5e-16+0i"), ("-1e-12", "-2.5e-13+0i")])
def test_dyn_fixed_prints_the_offset_of_a_point_printed_as_the_pole(capsys, a, w):
    code, out, _ = run(capsys, "dyn", "fixed", "--a=" + a)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("z = -2+0i  multiplier = ")
    assert lines[1] == "    z + 2 = " + w
    assert len(_fixed_rows(out)) == 3


@pytest.mark.parametrize("argv", [
    ("--a", "1", "--z", "nan,0"),
    ("--a", "1", "--z", "0,nan", "--trap"),
    ("--a", "6", "--z", "inf,nan", "--boettcher"),
    ("--a=nan,0", "--z", "3,1"),
], ids=["z-real", "z-imag-trap", "z-inf-nan", "a"])
def test_dyn_green_refuses_a_nan_input_as_a_domain_error(capsys, argv):
    code, out, err = run(capsys, "dyn", "green", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, want", [
    (("--a", "1", "--z", "0.3,0.2", "--boettcher"), 2),
    (("--a", "1", "--z", "0,0", "--boettcher"), 1),
], ids=["bounded-orbit-phi", "pole-phi"])
def test_dyn_green_prints_nothing_when_a_later_view_fails(capsys, argv, want):
    # G alone is defined at both points; the phi view fails after it
    code, out, err = run(capsys, "dyn", "green", *argv)
    assert (code, out) == (want, "")
    assert err


def test_dyn_green_at_infinity_prints_the_sentinel(capsys):
    code, out, _ = run(capsys, "dyn", "green", "--a", "1", "--z", "inf,0", "--trap")
    assert (code, out) == (0, "G = inf\nattracted: True at step 0\n")


def test_dyn_green_tiny_parameter_stays_finite(capsys):
    # far out, the half step a/(w^2+2w) underflows to 0; G must not become
    # the pole sentinel inf but equal log|phi|
    code, out, _ = run(capsys, "dyn", "green", "--a", "1e-300", "--z", "3,1", "--boettcher")
    assert code == 0
    g_line, phi_line = out.splitlines()
    g = float(g_line.split("G = ")[1])
    phi = complex(phi_line.split("phi = ")[1].replace("i", "j"))
    assert math.isfinite(g)
    assert abs(g - math.log(abs(phi))) <= 1e-9 * abs(g)


def test_dyn_green_huge_parameter_stays_finite(capsys):
    # f(z) ~ 3.5e302 is no point at infinity for a = 1e300: F(z) ~ 8e-306
    code, out, _ = run(capsys, "dyn", "green", "--a", "1e300", "--z", "0.001,0.001")
    assert code == 0
    g = float(out.split("G = ")[1])
    assert math.isfinite(g)
    log_f = math.log(1e300) - 2 * math.log(abs(1e300 / (0.001 + 0.001j) / (2.001 + 0.001j)))
    assert abs(g - (log_f + math.log(4.0) - math.log(1e300)) / 2) <= 1e-12 * abs(g)


def test_dyn_boettcher_closes_where_the_half_step_underflows(capsys):
    code, out, _ = run(capsys, "dyn", "green", "--a", "1e-300", "--z", "10", "--boettcher")
    assert code == 0
    g_line, phi_line = out.splitlines()
    g = float(g_line.split("G = ")[1])
    phi = complex(phi_line.split("phi = ")[1].replace("i", "j"))
    assert math.isfinite(g) and math.isfinite(phi.real) and math.isfinite(phi.imag)
    assert abs(g - math.log(abs(phi))) <= 1e-9 * abs(g)


# Every numeric dyn command over extreme magnitudes: each run exits 0 with
# only finite numbers in its output, 2 for a numeric failure, or 1 for a
# domain error, and never raises.  Exact poles (z = 0, -2), where G = -inf
# is the documented value, are left out.
_SWEEP_A = ["1e-320", "1e-300", "1e-100", "1", "-0.37,-2.97", "1e100", "1e200", "1e300",
            "1e300,1e300"]
_SWEEP_Z = ["1e-320", "1e-99", "1e-90", "0.001,0.001", "-2.000000000000001", "3,1", "10",
            "1e100", "1e200,1e200", "1.7e308,1.7e308"]
_SWEEP = [
    *[("dyn", "green", "--a=" + a, "--z=" + z, "--boettcher", "--trap")
      for a in _SWEEP_A for z in _SWEEP_Z],
    ("dyn", "green", "--a", "1e300", "--z", "0.001,0.001"),
    ("dyn", "green", "--a", "1e-300", "--z", "10", "--boettcher"),
    *[("dyn", "fixed", "--a=" + a) for a in _SWEEP_A],
    *[("dyn", "julia", "--a=" + a, "--width", "6", "--height", "6", "--n-max", "50")
      for a in _SWEEP_A],
    *[("dyn", "ray", "--a=" + a, "--base", base, "--theta", "1/3", "--steps", "20")
      for a in _SWEEP_A for base in ("inf", "0")],
    *[("dyn", "blaschke", "--b=" + b, "--z=" + z)
      for b in ("1e-320", "0.5", "0.999999,0", "1e-300,1e-300") for z in _SWEEP_Z],
    *[("dyn", "m2", "--width", "6", "--height", "6", "--n-max", "50", *w)
      for w in (("--re-min=-1e300", "--re-max=1e300"), ("--re-min=1e-320", "--re-max=2e-320"),
                ("--im-min=-1e-300", "--im-max=1e-300"))],
    *[(*cmd, "--s-from", s_from, "--s-to", s_to, "--steps", "20")
      for cmd in (("dyn", "param-ray", "--theta", "1/6"),
                  ("dyn", "ray", "--a=1", "--base", "inf", "--theta", "1/6"))
      for s_from, s_to in (("1e-300", "1e-320"), ("700", "0.5"), ("5", "1e-12"))],
]


def test_numeric_commands_never_print_a_non_finite_value(tmp_path, capsys):
    non_finite = re.compile(r"inf(?!inity)|nan", re.IGNORECASE)
    for argv in _SWEEP:
        if argv[1] == "m2":
            argv += ("--out", str(tmp_path / "x.pgm"))
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        if code == 0:
            assert not non_finite.search(out), (argv, out)
        else:
            assert err.startswith("numeric error:" if code == 2 else "error:"), (argv, err)


@pytest.mark.parametrize("argv", [
    ("dyn", "m2", "--width", "10", "--height", "10", "--out", "{missing}/x.pgm"),
    ("lam", "two-sided", "--theta", "1/6", "--depth", "2", "--svg", "{missing}/x.svg"),
], ids=["dyn-m2", "lam-two-sided"])
def test_io_error_is_seventy_four(tmp_path, capsys, argv):
    missing = tmp_path / "no" / "such" / "dir"
    code, _, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 74
    assert err.startswith("io error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("angle", "x0", "--theta", "abc"),
    ("angle", "x0"),
    ("nonsense",),
    ("angle", "nu", "--theta", "1/6", "--m", "two"),
    ("lam", "cross", "--leaf1", "0", "--leaf2", "1/4,3/4"),
    ("sym", "reg-ray", "--symbol", "G(0;1/2)", "--op", "sideways"),
    ("lam", "quadratic", "--y0", "1/3", "--leaf", "1/6"),
    ("dyn", "green", "--a", "6", "--z", "3,1", "--n", "-1"),
    ("dyn", "green", "--a", "6", "--z", "3,1", "--orbit", "-2"),
    ("angle", "digits", "--theta", "1/6", "--count", "-3"),
    # a word outside the fixed set of --side, --op, --method or --base
    ("lam", "regions", "--theta", "1/2", "--depth", "3", "--side", "X"),
    ("lam", "cross", "--leaf1", "0,1/2", "--leaf2", "1/4,3/4", "--side", "X"),
    ("sym", "reg-ray", "--symbol", "G(0;1/2)", "--op", "x"),
    ("dyn", "julia", "--a", "6", "--width", "8", "--height", "8", "--method", "bogus"),
    ("dyn", "ray", "--a", "6", "--theta", "0", "--base", "X"),
    # a negative size, or 0 where a size must be positive
    ("dyn", "julia", "--a", "6", "--width", "4", "--height", "4", "--n-max", "-1"),
    ("dyn", "julia", "--a", "6", "--width", "4", "--height", "4", "--method", "inverse",
     "--points", "-1"),
    ("angle", "mu", "--z", "1/2", "--theta", "1/2", "--cap", "-1"),
    ("angle", "semiconj", "--theta", "1/2", "--cap", "-1"),
    ("check", "angle", "--samples", "-1"),
    ("check", "angle", "--samples", "0"),
    ("dyn", "m2", "--width", "4", "--height", "4", "--n-max", "0", "--out", "unused.pgm"),
    ("dyn", "m2", "--width", "0", "--height", "4", "--out", "unused.pgm"),
    ("dyn", "m2", "--width", "4", "--height", "0", "--out", "unused.pgm"),
    ("dyn", "julia", "--a", "6", "--width", "-4", "--height", "4"),
    ("dyn", "julia", "--a", "6", "--width", "4", "--height", "0"),
    ("check", "dyn", "--raster-size", "0"),
    # L0's leaves are exact pullbacks: no measure cap places them
    ("lam", "L0", "--theta", "1/2", "--depth", "2", "--measure-cap", "30"),
    ("angle", "x0", "--theta", "1/6", "--terms", "0"),
    ("angle", "sigma", "--period", "0"),
    ("angle", "sigma", "--period", "-2"),
    ("angle", "nu", "--theta", "1/6", "--m", "-1"),
    # a ray needs two points
    ("dyn", "ray", "--a", "6", "--theta", "0", "--steps", "1"),
    ("dyn", "ray", "--a", "6", "--theta", "0", "--steps", "0"),
    ("dyn", "param-ray", "--theta", "1/6", "--steps", "1"),
    ("dyn", "param-ray", "--theta", "1/6", "--steps", "0"),
    ("check", "dyn", "--steps", "1", "--raster-size", "8"),
    # a requirement that depends on other flags
    ("lam", "quadratic", "--y0", "1/3"),
    ("angle", "sigma"),
    ("sym", "angle-to-address", "--theta", "1/4", "--address", "0|(1)"),
    ("sym", "angle-to-address"),
    # flag text that is no number, and --config with no path after it
    ("dyn", "m2", "--re-min", "abc", "--out", "unused.pgm"),
    ("dyn", "fixed", "--a", "x,1"),
    ("angle", "x0", "--theta", "1/6", "--config"),
])
def test_usage_errors_are_sixty_four(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert "usage error:" in err
    assert out == ""


@pytest.mark.parametrize("flag, value, argv", [
    ("side", "X", ("lam", "regions", "--theta", "1/2", "--depth", "3")),
    ("side", "X", ("lam", "cross", "--leaf1", "0,1/2", "--leaf2", "1/4,3/4")),
    ("op", "x", ("sym", "reg-ray", "--symbol", "G(0;1/2)")),
    ("method", "bogus", ("dyn", "julia", "--a", "6", "--width", "8", "--height", "8")),
    ("base", "X", ("dyn", "ray", "--a", "6", "--theta", "0")),
])
def test_fixed_set_flags_refuse_other_words_from_the_config_too(tmp_path, capsys, flag, value,
                                                                argv):
    cfg = tmp_path / "cfg"
    cfg.write_text("%s = %s\n" % (flag, value))
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == 64 and out == ""
    assert "usage error: --%s must be one of" % flag in err


@pytest.mark.parametrize("argv", [
    ("--depth", "3", "--at-depth", "-5"),
    ("--depth", "0"),                       # the default --at-depth is then -1
    ("--depth", "3", "--at-depth", "4"),    # no leaf is deeper than --depth
])
def test_check_invariance_refuses_a_depth_with_no_leaves(capsys, argv):
    # below depth 0 the report would check nothing and pass
    code, out, err = run(capsys, "lam", "check-invariance", "--theta", "1/2", *argv)
    assert code == 64 and out == ""
    assert "usage error: --at-depth" in err and "is outside 0.." in err


def test_failing_report_returns_one(capsys):
    # an invariance check at a depth with missing images exits nonzero
    code, out, _ = run(capsys, "lam", "check-invariance", "--theta", "1/2",
                       "--depth", "3", "--at-depth", "3")
    assert code == 1
    assert "failures" in out


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------

def test_depth_cap_enforced(capsys):
    code, _, err = run(capsys, "lam", "L", "--theta", "1/2", "--depth", "20")
    assert code == 64
    assert "--unsafe-limits" in err


@pytest.mark.parametrize("argv, leaves", [
    (("lam", "L", "--theta", "1/2", "--depth", "12"), 22369621),
    (("lam", "L", "--theta", "1/6", "--depth", "9"), 349525),
])
def test_leaf_budget_refuses_before_building(capsys, argv, leaves):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "predicted leaf count %d" % leaves in err and "--unsafe-limits" in err


def test_leaf_budget_admits_benchmark_sizes(capsys):
    code, out, _ = run(capsys, "lam", "L", "--theta", "1/2", "--depth", "6")
    assert code == 0 and "leaves: 5461" in out
    code, out, _ = run(capsys, "lam", "L0", "--theta", "1/2", "--depth", "6")
    assert code == 0 and "leaves: 127" in out


def test_iteration_cap_enforced_and_liftable(capsys):
    args = ("dyn", "ray", "--a", "6", "--base", "inf", "--theta", "0",
            "--steps", "4097")
    code, _, err = run(capsys, *args)
    assert code == 64 and "cap" in err
    code, out, _ = run(capsys, *args, "--unsafe-limits")
    assert code == 0
    assert "points: 4097" in out


@pytest.mark.parametrize("argv, cap, admitted", [
    (("angle", "x0", "--theta", "1/2", "--terms"), 4096, ("10",)),
    (("angle", "semiconj", "--theta", "1/2", "--cap", "20", "--samples"), 4096, ("12", "64")),
    (("angle", "digits", "--theta", "1/6", "--count"), 4096, ("8", "4096")),
    (("dyn", "julia", "--a", "6", "--width", "20", "--height", "20", "--method", "inverse",
      "--points"), 1 << 20, ("50000",)),
    (("angle", "sigma", "--period"), 4096, ("2",)),
    (("angle", "mu", "--z", "1/2", "--theta", "1/2", "--cap"), 4096, ("30",)),
    (("angle", "h-arc", "--z", "1/2", "--theta", "1/2", "--cap"), 4096, ("30",)),
    (("angle", "semiconj", "--theta", "1/2", "--samples", "12", "--cap"), 4096, ("20",)),
    (("dyn", "green", "--a", "6", "--z", "3,1", "--orbit"), 4096, ("3",)),
    (("dyn", "green", "--a", "6", "--z", "3,1", "--n"), 4096, ("64", "4096")),
    (("check", "sym", "--depth", "4", "--samples"), 4096, ("200",)),
], ids=["x0-terms", "semiconj-samples", "digits-count", "julia-points", "sigma-period",
        "mu-cap", "h-arc-cap", "semiconj-cap", "green-orbit", "green-n",
        "check-samples"])
def test_count_flags_are_capped(capsys, argv, cap, admitted):
    code, out, err = run(capsys, *argv, str(cap + 1))
    assert code == 64 and out == ""
    assert "exceeds the cap %d" % cap in err and "--unsafe-limits" in err
    for value in admitted:
        code, out, _ = run(capsys, *argv, value)
        assert code == 0 and out


def test_count_caps_admit_the_julia_default_and_lift(monkeypatch, capsys):
    import v2lam.dynamics

    julia_raster = v2lam.dynamics.julia_raster
    asked = []

    def small(a, w, h, method, points, **kw):
        asked.append(points)
        return julia_raster(a, w, h, method=method, points=min(points, 1000), **kw)

    monkeypatch.setattr(v2lam.dynamics, "julia_raster", small)
    argv = ("dyn", "julia", "--a", "6", "--width", "8", "--height", "8", "--method", "inverse")
    for extra in ((), ("--points", str(1 << 20)), ("--points", str((1 << 20) + 1),
                                                     "--unsafe-limits")):
        code, _, _ = run(capsys, *argv, *extra)
        assert code == 0
    assert asked == [200000, 1 << 20, (1 << 20) + 1]
    code, out, _ = run(capsys, "angle", "digits", "--theta", "1/6", "--count", "5000",
                       "--unsafe-limits")
    assert code == 0 and len(out.splitlines()[2]) == 5000


def test_raster_pixel_budget_refuses_before_allocating(tmp_path, monkeypatch, capsys):
    import v2lam.dynamics

    monkeypatch.chdir(tmp_path)
    for argv in (("dyn", "m2", "--out", "x.pgm"), ("dyn", "julia", "--a", "6")):
        code, out, err = run(capsys, *argv, "--width", "2049", "--height", "2048")
        assert code == 64 and out == ""
        assert "pixel count 4196352 exceeds the cap 4194304" in err and "--unsafe-limits" in err
    code, out, err = run(capsys, "check", "dyn", "--raster-size", "2049")
    assert code == 64 and out == "" and "pixel count 4198401 exceeds the cap 4194304" in err
    # 2048 x 2048 is admitted, and --unsafe-limits lifts the budget; a stand-in
    # raster keeps the runs small
    m2_raster = v2lam.dynamics.m2_raster
    asked = []

    def small(w, h, **kw):
        asked.append((w, h))
        return m2_raster(8, 8, **kw)

    monkeypatch.setattr(v2lam.dynamics, "m2_raster", small)
    for size, extra in (("2048", ()), ("2049", ("--unsafe-limits",))):
        code, _, _ = run(capsys, "dyn", "m2", "--width", size, "--height", size,
                         "--out", "x.pgm", *extra)
        assert code == 0
    assert asked == [(2048, 2048), (2049, 2049)]


def test_dyn_green_bounded_orbit_admits_n_past_1023(capsys):
    # -1 is a superattracting fixed point at a = 1; 2.0 ** n overflows from n = 1024
    assert run(capsys, "dyn", "green", "--a", "1", "--z=-1,0", "--n", "4096") == (0, "G = 0\n", "")


def test_angle_nu_does_not_grow_with_m(capsys):
    start = time.perf_counter()
    assert run(capsys, "angle", "nu", "--theta", "5/12", "--m", str(10 ** 12)) == (0, "1\n", "")
    assert time.perf_counter() - start < 1.0


#: Integer flags that set no size, so they need no cap.  The raster sizes
#: --width, --height and --raster-size are bounded by the pixel budget.
UNCAPPED_INT_FLAGS = {"seed", "m", "at-depth", "shift", "width", "height", "raster-size"}


def test_every_integer_flag_is_capped_or_listed_as_uncapped():
    # a size flag declared without an entry in CAPS fails here
    names = set()
    for p in cli._build_parser().all_parsers:
        for action in p._actions:
            if getattr(action.type, "func", None) in (cli._int, cli._count):
                name = action.option_strings[0][2:]
                names.add(name)
                assert (action.dest in cli.CAPS) != (name in UNCAPPED_INT_FLAGS), (p.prog, name)
    assert UNCAPPED_INT_FLAGS | {k.replace("_", "-") for k in cli.CAPS} == names


# ---------------------------------------------------------------------------
# config defaults
# ---------------------------------------------------------------------------

def test_config_fills_required_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("# defaults\ntheta = 1/2\ndepth = 3\n")
    code, out, _ = run(capsys, "--config", str(cfg), "lam", "L0")
    assert code == 0
    assert "leaves: 15" in out


# a typo; a parser default, no flag; a cap that L0's exact leaves do not take
@pytest.mark.parametrize("key", ["n_mx", "func", "measure_cap"])
def test_config_refuses_a_key_no_command_declares(tmp_path, capsys, key):
    cfg = tmp_path / "cfg"
    cfg.write_text("%s = 64\nwidth = 4\nheight = 4\n" % key)
    code, out, err = run(capsys, "--config", str(cfg), "dyn", "m2", "--out",
                         str(tmp_path / "m2.pgm"))
    assert code == 64 and out == ""
    assert "usage error: config key %s is no command's flag" % key in err
    assert not (tmp_path / "m2.pgm").exists()


def test_config_admits_a_key_only_another_command_declares(tmp_path, capsys):
    # one config file serves every command: dyn m2 has no --theta or --depth
    cfg = tmp_path / "cfg"
    cfg.write_text("theta = 1/2\ndepth = 3\nn_max = 64\n")
    code, out, _ = run(capsys, "--config", str(cfg), "dyn", "m2", "--width", "4",
                       "--height", "4", "--out", str(tmp_path / "m2.pgm"))
    assert code == 0 and out.startswith("wrote ")
    assert "n_max 64" in (tmp_path / "m2.pgm.txt").read_text()
    code, out, _ = run(capsys, "--config", str(cfg), "lam", "L0")
    assert code == 0 and "leaves: 15" in out


@pytest.mark.parametrize("value, on", [("1", True), ("true", True), ("yes", True), ("on", True),
                                       ("0", False), ("false", False), ("no", False),
                                       ("off", False), ("", False)])
def test_config_switch_reads_the_documented_words(tmp_path, capsys, value, on):
    argv = ["dyn", "param-ray", "--theta", "1/6", "--steps", "20"]
    cfg = tmp_path / "cfg"
    cfg.write_text("angle_errors = %s\n" % value)
    code, out, _ = run(capsys, "--config", str(cfg), *argv)
    assert code == 0
    plain = run(capsys, *argv)[1]
    if on:
        assert out.startswith(plain) and out[len(plain):].startswith("max angle error: ")
    else:
        assert out == plain


def test_config_switch_refuses_another_word(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("angle_errors = maybe\n")
    code, out, err = run(capsys, "--config", str(cfg), "dyn", "param-ray", "--theta", "1/6",
                         "--steps", "20")
    assert (code, out) == (64, "")
    assert "bad boolean value 'maybe'" in err


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("theta = 1/2\ndepth = 3\n")
    code, out, _ = run(capsys, "--config", str(cfg), "lam", "L0", "--depth", "1")
    assert code == 0
    assert "leaves: 3" in out


def test_config_equals_form_and_other_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("theta = 1/6\n")
    code, out, _ = run(capsys, "--config=" + str(cfg), "angle", "x0")
    assert code == 0
    assert out.splitlines()[0] == "11/60"


def test_config_defaults_do_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("theta = 1/2\ndepth = 3\n")
    for _ in range(2):
        code, out, _ = run(capsys, "--config", str(cfg), "lam", "L0")
        assert code == 0
        assert "leaves: 15" in out
        # the same command without the config still lacks its required flags
        code, out, err = run(capsys, "lam", "L0")
        assert (code, out) == (64, "")
        assert err.startswith("usage error: --theta is required (give the flag or a config default)")
    code, out, _ = run(capsys, "lam", "L0", "--theta", "1/2", "--depth", "1")
    assert code == 0
    assert "leaves: 3" in out
    assert cli._shared_parser() is cli._shared_parser()


def test_missing_config_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "--config", str(tmp_path / "nope"), "angle",
                       "x0", "--theta", "1/6")
    assert code == 64
    assert "cannot read config" in err


def test_malformed_config_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("theta 1/2\n")
    code, _, err = run(capsys, "--config", str(cfg), "angle", "x0")
    assert code == 64
    assert "key=value" in err


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_bytes(b"theta = 1/6\n\xff\xfe\n")
    code, out, err = run(capsys, "--config", str(cfg), "angle", "x0")
    assert (code, out) == (64, "")
    assert err.startswith("usage error: cannot read config %s: " % cfg)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# output spot checks across subcommands
# ---------------------------------------------------------------------------

def test_angle_measure_values(capsys):
    code, out, _ = run(capsys, "angle", "mu", "--z", "1/2", "--theta", "1/2")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, "angle", "sigma", "--period", "2")
    assert code == 0
    assert out.split() == ["2/15", "8/15"]


def test_lam_quadratic_membership(capsys):
    code, out, _ = run(capsys, "lam", "quadratic", "--y0", "1/3",
                       "--leaf", "1/3,2/3")
    assert code == 0 and out.strip() == "member"
    code, out, _ = run(capsys, "lam", "quadratic", "--y0", "1/3",
                       "--leaf", "1/8,3/8")
    assert code == 0 and out.strip() == "non-member"


def test_lam_regions_counts(capsys):
    code, out, _ = run(capsys, "lam", "regions", "--theta", "1/2",
                       "--depth", "0", "--side", "I")
    assert code == 0
    assert out.splitlines()[0] == "regions: 2"


def test_sym_reg_ray_rewrites(capsys):
    code, out, _ = run(capsys, "sym", "reg-ray", "--symbol", "G(0;1/2)",
                       "--op", "preimage")
    assert code == 0
    assert out.splitlines() == ["G(inf;1/4)", "G(inf;3/4)"]
    code, out, _ = run(capsys, "sym", "reg-ray", "--symbol", "G(inf;1/2,1/4)",
                       "--op", "image")
    assert code == 0
    assert out.strip() == "G(inf;1/4)+seg"


def test_sym_round_trip(capsys):
    code, out, _ = run(capsys, "sym", "angle-to-address", "--theta", "1/4")
    assert code == 0
    addr = out.strip()
    code, out, _ = run(capsys, "sym", "angle-to-address", "--address", addr)
    assert code == 0
    assert out.strip() == "1/4"


def test_dyn_fixed_output_shape(capsys):
    code, out, _ = run(capsys, "dyn", "fixed", "--a", "1")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("z = ")) == 3
    assert lines[-1].startswith("trap rho = ")


def test_dyn_ray_csv(tmp_path, capsys):
    out_csv = tmp_path / "ray.csv"
    code, out, _ = run(capsys, "dyn", "ray", "--a", "6", "--base", "inf",
                       "--theta", "0", "--steps", "40", "--out", str(out_csv))
    assert code == 0
    text = out_csv.read_text()
    assert text.splitlines()[0] == "s,re,im,residual"
    assert len(text.splitlines()) == 41
    assert "landing ~" in out


def test_dyn_rasters_write_images_and_sidecars(tmp_path, capsys):
    pgm = tmp_path / "m2.pgm"
    code, out, _ = run(capsys, "dyn", "m2", "--width", "24", "--height", "24",
                       "--n-max", "64", "--out", str(pgm))
    assert code == 0
    assert pgm.read_bytes().startswith(b"P5")
    assert (tmp_path / "m2.pgm.txt").exists()
    assert re.search(r"^members: \d+$", out, re.M)

    ppm = tmp_path / "julia.ppm"
    code, _, _ = run(capsys, "dyn", "julia", "--a", "6", "--width", "24",
                     "--height", "24", "--n-max", "64", "--out", str(ppm))
    assert code == 0
    assert ppm.read_bytes().startswith(b"P6")


def test_dyn_ray_leaves_listing(capsys):
    code, out, _ = run(capsys, "dyn", "ray-leaves", "--a=-0.37,-2.97",
                       "--depth", "1", "--theta0", "1/6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("0 I ")
    assert all(ln.startswith("1 O ") for ln in lines[1:])


def test_dyn_ray_leaves_prints_a_dash_for_a_leg_with_no_interval(monkeypatch, capsys):
    from v2lam import dynamics
    from v2lam.dynamics import RayLeaf

    leaves = [RayLeaf(0j, 0, "I", (3, 2), (1, 3), False, 0.0),
              RayLeaf(0j, 1, "O", (5, 4), None, True, 1.0),
              RayLeaf(0j, 1, "O", None, None, True, 1.0)]
    monkeypatch.setattr(dynamics, "ray_leaf_endpoints", lambda a, depth, theta0: leaves)
    code, out, _ = run(capsys, "dyn", "ray-leaves", "--a=-0.37,-2.97",
                       "--depth", "1", "--theta0", "1/6")
    assert (code, out) == (0, "0 I 0.875000000 0.187500000 err=0\n"
                               "1 O 0.343750000 - err=1 unresolved\n"
                               "1 O - - err=1 unresolved\n")


def test_dyn_ray_leaves_where_no_leaf_resolves_exits_two(capsys):
    from v2lam.dynamics import trace_parameter_ray

    a = trace_parameter_ray(Fraction(1, 2), s_from=8.0, s_to=0.5, steps=120).points[-1][1]
    code, out, err = run(capsys, "dyn", "ray-leaves", "--a=%r,%r" % (a.real, a.imag),
                         "--depth", "1", "--theta0", "1/2")
    assert (code, out) == (2, "")
    assert err.startswith("numeric error: no ray leaf resolves")


@pytest.mark.parametrize("side", ["I", "O"])
def test_lam_regions_prints_each_fraction_as_str_does(capsys, side):
    from v2lam.laminations import build_2L, complementary_regions

    lam = build_2L(Fraction(5, 12), 8)
    regions = complementary_regions(lam, side)
    want = "regions: %d\n" % len(regions) + "".join(
        " ".join("%s(%s,%s)" % (kind, Fraction(a, lam.den), Fraction(b, lam.den))
                 for kind, a, b in cyc) + "\n" for cyc in regions)
    code, out, _ = run(capsys, "lam", "regions", "--theta", "5/12", "--depth", "8",
                       "--side", side)
    assert (code, out) == (0, want)
    assert len(regions) > 100


def _examples():
    for p in cli._build_parser().all_parsers:
        if p.epilog and p.epilog.startswith("example:") and p.prog != "v2lam check":
            yield shlex.split(p.epilog.split("\n", 1)[1])[1:]


def test_documented_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = list(_examples())
    assert len(examples) == 33
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0 and "Traceback" not in err, (argv, err)


def test_help_shows_examples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lam", "two-sided", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "example:" in out
    assert "v2lam lam two-sided --theta 1/2 --depth 6" in out
