"""The benchmark's own self-test, run as part of the test suite.

``perfbench`` wraps public v2lam names such as ``x0_digit_stream`` and checks
the program's real output formats, so a rename or a format change in
``src/`` fails here rather than first in a benchmark run.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
