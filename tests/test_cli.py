"""End-to-end tests of the command-line front end.

Every test drives ``v2lam.cli.main`` with an argv list and checks the exit
code and captured output, exactly as a shell user would see them.
"""
from __future__ import annotations

import re
import sys

import pytest

from v2lam.cli import main


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


def test_dyn_fixed_large_parameter_stays_finite(capsys):
    # (z^2+2z)^2 overflows at these fixed points; the multiplier is ~ -2
    code, out, _ = run(capsys, "dyn", "fixed", "--a=1e250,3")
    assert code == 0
    mults = [complex(ln.split("multiplier = ")[1].replace("i", "j"))
             for ln in out.splitlines() if ln.startswith("z = ")]
    assert len(mults) == 3
    assert all(abs(m + 2.0) < 1e-9 for m in mults)
    assert "nan" not in out and "inf" not in out


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
])
def test_usage_errors_are_sixty_four(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert "usage error:" in err


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


def test_iteration_cap_enforced_and_liftable(capsys):
    args = ("dyn", "ray", "--a", "6", "--base", "inf", "--theta", "0",
            "--steps", "4097")
    code, _, err = run(capsys, *args)
    assert code == 64 and "cap" in err
    code, out, _ = run(capsys, *args, "--unsafe-limits")
    assert code == 0
    assert "points: 4097" in out


# ---------------------------------------------------------------------------
# config defaults
# ---------------------------------------------------------------------------

def test_config_fills_required_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("# defaults\ntheta = 1/2\ndepth = 3\n")
    code, out, _ = run(capsys, "--config", str(cfg), "lam", "L0")
    assert code == 0
    assert "leaves: 15" in out


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


def test_help_shows_examples(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lam", "two-sided", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "example:" in out
    assert "v2lam lam two-sided --theta 1/2 --depth 6" in out
