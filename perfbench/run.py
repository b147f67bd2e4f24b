"""v2lam benchmark: three closed-loop workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload exact-angles --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout (the directory holding
``BENCHMARK.json`` and ``src/v2lam``).  One client drives one fresh worker
process (``perfbench/worker.py``) through the workload's fixed job list,
one job at a time.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run.  Each run also writes a record
to ``perfbench/records/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import percentile, tail_percentile  # noqa: E402

SETUP_SAMPLES = 11         # worker starts timed per run; setup_s is their median
DEADLINE_S = 170           # the whole run, build included, must end within 180 s
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class Abort(Exception):
    pass


_LIVE: list[subprocess.Popen] = []   # workers started and not yet reaped


def _spawn(workload: str, setup_only: bool) -> subprocess.Popen:
    env = dict(os.environ, **WORKER_ENV)
    # the worker finds v2lam itself; the untimed first start writes bytecode
    for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    _LIVE.append(proc)
    return proc


def _reap(proc: subprocess.Popen):
    """Wait for the worker and return its resource usage."""
    _, status, usage = os.wait4(proc.pid, 0)
    _LIVE.remove(proc)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdin, proc.stdout):
        if stream and not stream.closed:
            stream.close()
    if proc.returncode != 0:
        raise Abort("worker exited with code %d" % proc.returncode)
    return usage


def _start(workload: str, setup_only: bool):
    """Start a worker; return (process, seconds until ready, import seconds)."""
    t0 = time.perf_counter()
    proc = _spawn(workload, setup_only)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if not line.startswith("ready "):
        raise Abort("worker did not start: %r" % line[:200])
    return proc, ready, float(line.split()[1])


def machine_info() -> dict:
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return {"machine": platform.machine(), "processor": platform.processor(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": _git_commit(), "src_lines": lines}


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(result: dict, setup: list[float], usage) -> dict:
    rounds = result["rounds"]
    n_jobs = len(rounds[0]["jobs"])
    tail_p = tail_percentile(n_jobs)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "job_p50_s": statistics.median(statistics.median(r["jobs"]) for r in rounds),
        "job_tail_s": statistics.median(percentile(r["jobs"], tail_p) for r in rounds),
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }


def run(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "v2lam", "cli.py")):
        print("error: no v2lam sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    outdir = os.path.join(HERE, "out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    jobs = workloads.job_list(args.workload, args.seed, os.path.relpath(outdir, ROOT))

    setup, imports = [], []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            proc, ready, import_s = _start(args.workload, True)
            _reap(proc)
            setup.append(ready)
            imports.append(import_s)

    # untimed start: compiles bytecode and fills the file cache
    proc, _, _ = _start(args.workload, True)
    _reap(proc)
    # half the setup samples before the job worker and half after it, since
    # this machine's speed shifts between levels over tens of seconds
    sample_setup(SETUP_SAMPLES // 2)
    proc, ready, import_s = _start(args.workload, False)
    setup.append(ready)
    imports.append(import_s)
    spans_path = os.path.join(outdir, "spans-seed%d.jsonl" % args.seed) if args.trace else None
    proc.stdin.write(json.dumps({"jobs": jobs, "seconds": args.seconds, "trace": args.trace,
                                 "spans": spans_path}) + "\n")
    proc.stdin.close()
    lines = proc.stdout.read().splitlines()
    usage = _reap(proc)
    result = json.loads(lines[-1])
    sample_setup(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)

    e2e = end_to_end(result, setup, usage)
    layers = dict(result["layers"], **{"setup.import_s": statistics.median(imports)})
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    verdicts = result["verdicts"]
    correct = all(ok for _, ok, _ in verdicts)

    n_jobs = len(jobs)
    print("workload %s  seed %d  jobs %d  timed rounds %d  tail percentile p%d"
          % (args.workload, args.seed, n_jobs, len(result["rounds"]), tail_percentile(n_jobs)))
    for name, ok, detail in verdicts:
        print("check %-24s %s  %s" % (name, "ok  " if ok else "FAIL", detail))
    for kind, err in result["warmup_failures"]:
        print("failed operation in %s: %s" % (kind, err))
    for name, m in metrics.items():
        print("%-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d  failed %d" % (result["attempted"], result["failed"]))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "numpy": result["numpy"], "gmpy2": result["gmpy2"], **machine_info(),
              "end_to_end": e2e, "layers": layers, "setup_samples": setup,
              "rounds": result["rounds"], "traced_rounds": result["traced_rounds"],
              "verdicts": verdicts, "attempted": result["attempted"], "failed": result["failed"]}
    recdir = os.path.join(HERE, "records")
    os.makedirs(recdir, exist_ok=True)
    name = "%s-seed%d-trace%d-%s.json" % (args.workload, args.seed, args.trace,
                                          time.strftime("%Y%m%dT%H%M%S", time.gmtime()))
    with open(os.path.join(recdir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    def on_alarm(signum, frame):
        raise Abort("run exceeded %d s" % DEADLINE_S)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        return run(args)
    except Abort as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        for proc in _LIVE:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
