"""Fast self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Each output check must pass on the program's real output and fail on a
deliberately corrupted copy of it.  The tests run small jobs in-process.
"""
from __future__ import annotations

import cmath
import math
import os
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as W  # noqa: E402
from worker import percentile, run_call, tail_percentile  # noqa: E402  (adds src to sys.path)


def _failed(verdicts) -> set:
    return {name for name, ok, _ in verdicts if not ok}


def _run(jobs):
    return [[run_call(c) for c in job["calls"]] for job in jobs]


class TailPercentile(unittest.TestCase):
    def test_at_least_ten_beyond_and_highest(self):
        for n in range(40, 400):
            p = tail_percentile(n)
            beyond = n - math.ceil(p * n / 100)
            self.assertGreaterEqual(beyond, 10, n)
            self.assertLess(n - math.ceil((p + 1) * n / 100), 10, n)

    def test_values(self):
        self.assertEqual(tail_percentile(40), 75)
        self.assertEqual(tail_percentile(44), 77)
        self.assertEqual(percentile(list(range(1, 41)), 75), 30)

    def test_needs_forty(self):
        with self.assertRaises(ValueError):
            tail_percentile(39)

    def test_job_lists_are_long_enough_and_seed_independent_in_size(self):
        for w in W.WORKLOADS:
            sizes = {tuple((j["kind"], len(j["calls"])) for j in W.job_list(w, s, "out"))
                     for s in (1, 2, 3)}
            self.assertEqual(len(sizes), 1, w)
            self.assertGreaterEqual(len(next(iter(sizes))), 40, w)
            self.assertEqual(W.job_list(w, 5, "out"), W.job_list(w, 5, "out"))


class ExactHelpers(unittest.TestCase):
    def test_bucket_primes_have_full_period(self):
        for k, q in W.BUCKET_PRIMES.items():
            self.assertEqual(W.order_of_two(q), q - 1, q)
            self.assertLess(abs(math.log2(q) - k), 0.5, q)

    def test_x0_reference(self):
        self.assertEqual(W.x0_value(Fraction(1, 2)), Fraction(1, 4))
        self.assertEqual(W.x0_value(Fraction(1, 6)), Fraction(11, 60))

    def test_printed_x0_stays_under_the_digit_limit(self):
        for job in W.job_list("exact-angles", 1, "out"):
            if job["kind"] == "x0-cli":
                for call in job["calls"]:
                    theta = Fraction(call[1][3])
                    e, L = W.orbit_lengths(theta.denominator)
                    self.assertLess((2 * e + 2 * L + 1) * math.log10(2), 4300)

    def test_self_time_subtracts_children(self):
        sp = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
              (spans.COUNT, 4.0, 4.5, 0), ("b", 5.0, 6.0, 0)]
        t = spans.layer_totals(sp)
        self.assertEqual(t["a.calls"], 1)
        self.assertAlmostEqual(t["a.self_s"], 10.0 - 3.0 - 0.5 - 1.0)
        self.assertAlmostEqual(t["b.self_s"], 2.0 + 1.0)
        self.assertEqual(t["b.calls"], 2)
        self.assertNotIn(spans.COUNT + ".calls", t)


class CorruptedOutputs(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_flipped_x0_digit(self):
        jobs = [{"kind": "x0-cli", "calls": [W._cli("angle", "x0", "--theta", t)
                                             for t in ("1/6", "35/88", "1001/4094")]}]
        outs = _run(jobs)
        failed = _failed(W.verify("exact-angles", jobs, outs))
        self.assertFalse(failed & {"x0-interleave", "x0-enclosure", "x0-denominator",
                                   "x0-known-values"})
        x0, stream = outs[0][2]["out"].split()
        pre, per = stream[:-1].split("(")
        per = per[:3] + ("1" if per[3] == "0" else "0") + per[4:]
        flipped = "%s(%s)" % (pre, per)
        outs[0][2]["out"] = "%s\n%s\n" % (W.stream_value(flipped), flipped)
        self.assertIn("x0-interleave", _failed(W.verify("exact-angles", jobs, outs)))

    def test_unparsable_output_fails_instead_of_crashing(self):
        jobs = [{"kind": "x0-cli", "calls": [W._cli("angle", "x0", "--theta", "1/6")]}]
        outs = _run(jobs)
        outs[0][0]["out"] = "not a fraction\n"
        self.assertIn("outputs-parse", _failed(W.verify("exact-angles", jobs, outs)))

    def test_flipped_digit_in_a_library_x0(self):
        theta = Fraction(5, 2 * W.BUCKET_PRIMES[10])
        jobs = [{"kind": "x0-digits", "calls": [W._lib("x0_digits", theta)]}]
        outs = _run(jobs)
        self.assertNotIn("x0-interleave", _failed(W.verify("exact-angles", jobs, outs)))
        e, L = W.orbit_lengths(theta.denominator)
        # flip binary digit 2e + 10 of x0 in every period
        outs[0][0]["value"] += Fraction(1, 1 << (2 * e + 10)) * (1 << (2 * L)) / ((1 << (2 * L)) - 1)
        self.assertIn("x0-interleave", _failed(W.verify("exact-angles", jobs, outs)))

    def test_dropped_leaf(self):
        d = self.dir
        jobs = [{"kind": "two-sided", "calls": [W._cli(
                    "lam", "two-sided", "--theta", "1/6", "--depth", 5,
                    "--svg", d + "/a.svg", "--leaves", d + "/a.leaves")]},
                {"kind": "lam-L", "calls": [W._cli(
                    "lam", "L", "--theta", "1/6", "--depth", 2, "--leaves", d + "/i.leaves")]},
                {"kind": "lam-L", "calls": [W._cli(
                    "lam", "L", "--theta", "1/6", "--depth", 3, "--mirror",
                    "--leaves", d + "/o.leaves")]}]
        outs = _run(jobs)
        failed = _failed(W.verify("laminations", jobs, outs))
        self.assertFalse(failed & {"leaf-counts", "no-crossings", "svg-chords", "two-sided-split"})
        with open(d + "/a.leaves") as fh:
            lines = fh.readlines()
        with open(d + "/a.leaves", "w") as fh:
            fh.writelines(lines[:7] + lines[8:])
        failed = _failed(W.verify("laminations", jobs, outs))
        self.assertIn("leaf-counts", failed)
        self.assertIn("two-sided-split", failed)

    def test_crossing_leaf(self):
        leaves = [("I", Fraction(1, 8), Fraction(1, 2)), ("I", Fraction(1, 4), Fraction(3, 4))]
        v = W.Verdicts(["no-crossings"])
        W._sample_crossings(v, random.Random(0), leaves, "pair")
        self.assertEqual(_failed(v.items()), {"no-crossings"})

    def test_changed_raster_pixel(self):
        out = self.dir + "/m2.pgm"
        argv = ["dyn", "m2", "--width", "40", "--height", "40", "--out", out]
        jobs = [{"kind": "m2", "calls": [W._cli(*argv)]}]
        outs = _run(jobs)
        self.assertNotIn("pixel-recompute", _failed(W.verify("numerics", jobs, outs)))
        # replay the checker's sampling to find a pixel it compares
        rng = random.Random(0)
        xs, ys = W.pixel_centers(40, 40, -8.0, 4.0, -6.0, 6.0)
        while True:
            i, j = rng.randrange(40), rng.randrange(40)
            if W.conditioned_step(W.m2_step, complex(xs[i], ys[j])) is not None:
                break
        with open(out, "rb") as fh:
            data = bytearray(fh.read())
        pos = len(data) - 40 * 40 + j * 40 + i
        data[pos] = (data[pos] + 9) % 256
        with open(out, "wb") as fh:
            fh.write(bytes(data))
        self.assertIn("pixel-recompute", _failed(W.verify("numerics", jobs, outs)))

    def test_ray_point_moved_off_its_angle(self):
        out = self.dir + "/ray.csv"
        jobs = [{"kind": "param-ray", "calls": [W._cli(
            "dyn", "param-ray", "--theta", "1/6", "--angle-errors", "--out", out)]}]
        outs = _run(jobs)
        self.assertNotIn("ray-angle", _failed(W.verify("numerics", jobs, outs)))
        with open(out) as fh:
            rows = fh.read().splitlines()
        s, re_, im_, res = rows[100].split(",")
        a = complex(float(re_), float(im_)) * cmath.exp(0.01j)
        rows[100] = "%s,%.17g,%.17g,%s" % (s, a.real, a.imag, res)
        with open(out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        self.assertIn("ray-angle", _failed(W.verify("numerics", jobs, outs)))


if __name__ == "__main__":
    unittest.main()
