"""Commands run in fresh interpreters: what they load, and what they write.

Each run starts a new ``python`` on a script that imports the CLI and every
exact and numeric module, runs one argv through ``v2lam.cli.main`` in its
own empty directory, and reports on stderr whether numpy was loaded.  The
exact layers, the scalar numerics and the ray tracers load no numpy; only
the array kernels (the rasters, fixed points, the trap radii, the ray
leaves and the x0 table of long orbits) import it, on their first call.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """\
import sys
import v2lam.checks, v2lam.cli, v2lam.dynamics, v2lam.laminations, v2lam.measure, v2lam.svg
import v2lam.symbolic
code = v2lam.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
sys.stdout.flush()
sys.stderr.write("\\nnumpy loaded: %s\\n" % ("numpy" in sys.modules))
sys.exit(code)
"""


def fresh_run(cwd: Path, argv: list[str], hash_seed: str = "0"):
    """(exit code, stdout, {file name: bytes}, numpy loaded) of ``v2lam *argv``
    run in the empty directory cwd by a new interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, *argv], cwd=cwd, env=env,
                          capture_output=True)
    last = proc.stderr.decode().splitlines()[-1]
    assert last.startswith("numpy loaded: "), proc.stderr.decode()
    files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    return proc.returncode, proc.stdout, files, last == "numpy loaded: True"


NUMPY_FREE = [
    [],
    ["dyn", "green", "--a", "6", "--z", "3,1", "--boettcher", "--orbit", "3"],
    ["dyn", "ray", "--a", "6", "--base", "inf", "--theta", "0", "--out", "ray.csv"],
    ["dyn", "ray", "--a=-0.37,-2.97", "--base", "0", "--theta", "1/6"],
    ["dyn", "param-ray", "--theta", "1/6", "--s-to", "0.05", "--angle-errors"],
    ["lam", "L", "--theta", "5/12", "--depth", "5", "--svg", "L.svg"],
    ["lam", "two-sided", "--theta", "1/2", "--depth", "6", "--svg", "2L.svg", "--leaves", "2L.txt"],
    ["sym", "equiv", "--x", "0|(10)", "--y", "1|(01)", "--theta", "1/2"],
    ["sym", "match-leaves", "--theta", "5/12", "--depth", "6"],
    ["check", "lam"],
    ["check", "sym"],
]


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda argv: " ".join(argv[:2]) or "imports")
def test_exact_and_scalar_commands_load_no_numpy(tmp_path, argv):
    code, _, _, numpy_loaded = fresh_run(tmp_path, argv)
    assert code == 0
    assert not numpy_loaded


def test_array_kernels_load_numpy(tmp_path):
    # the control: the script does see numpy once a command needs it
    code, _, _, numpy_loaded = fresh_run(tmp_path, ["dyn", "fixed", "--a", "6"])
    assert code == 0 and numpy_loaded


HASH_SEED_ARGVS = [
    ["lam", "two-sided", "--theta", "5/12", "--depth", "8", "--svg", "2L.svg", "--leaves",
     "2L.txt"],
    ["lam", "regions", "--theta", "1/2", "--depth", "6", "--side", "I"],
    ["sym", "match-leaves", "--theta", "1/6", "--depth", "6"],
    ["dyn", "ray-leaves", "--a=-0.37,-2.97", "--depth", "2", "--out", "leaves.txt"],
    ["check", "lam"],
]


@pytest.mark.parametrize("argv", HASH_SEED_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_output_does_not_depend_on_the_hash_seed(tmp_path, argv):
    runs = []
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        runs.append(fresh_run(tmp_path / seed, argv, hash_seed=seed)[:3])
    assert runs[0][0] in (0, 1)
    assert runs[0] == runs[1]
