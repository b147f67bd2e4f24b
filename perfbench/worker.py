"""Benchmark worker: one fresh process that runs one job at a time.

    python3 perfbench/worker.py WORKLOAD [--setup-only]

It imports ``v2lam.cli`` and the workload's modules, writes ``ready
<import seconds>`` on stdout and, unless ``--setup-only``, reads one JSON
line from stdin: ``{"jobs": [...], "seconds": s, "trace": 0|1, "spans": path}``.

It then runs the job list once untimed (the warm-up round, whose outputs are
checked), then whole timed rounds until ``seconds`` of round time have
passed.  Every timed round must reproduce the warm-up round's outputs.  With
``trace`` 1 the timed rounds alternate between untraced and traced.  The
result is one JSON line on stdout.  The worker keeps the interpreter
defaults: no raised int-to-str limit, no gc tuning, no extra threads.
"""
from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def tail_percentile(n: int) -> int:
    """Highest whole percentile p with at least ten of n samples beyond it.

    With the nearest-rank rule the p-th percentile is the sample of rank
    ceil(p n / 100), leaving n - ceil(p n / 100) samples above it.
    """
    if n < 40:
        raise ValueError("a tail percentile needs at least 40 samples, got %d" % n)
    return 100 * (n - 10) // n


def percentile(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def run_call(call: list) -> dict:
    if call[0] == "cli":
        from v2lam import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(call[1])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            return {"ok": False, "rc": None, "out": out.getvalue(),
                    "err": "%s: %s" % (type(exc).__name__, exc)}
        return {"ok": rc == 0, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}
    try:
        return {"ok": True, "value": workloads.LIB_OPS[call[1]](*call[2])}
    except Exception as exc:
        return {"ok": False, "error": "%s: %s" % (type(exc).__name__, exc)}


def run_round(jobs: list[dict]) -> tuple[float, list[float], list[list[dict]]]:
    clock = time.perf_counter
    outputs, times = [], []
    t_round = clock()
    for job in jobs:
        t = clock()
        outputs.append([run_call(c) for c in job["calls"]])
        times.append(clock() - t)
    return clock() - t_round, times, outputs


def fingerprints(jobs, outputs) -> list:
    return [workloads.fingerprint(c, o) if o.get("ok") else None
            for job, outs in zip(jobs, outputs) for c, o in zip(job["calls"], outs)]


def main(argv: list[str]) -> int:
    workload = argv[0]
    t = time.perf_counter()
    for name in workloads.IMPORTS[workload]:
        importlib.import_module(name)
    import_s = time.perf_counter() - t
    sys.stdout.write("ready %r\n" % import_s)
    sys.stdout.flush()
    if "--setup-only" in argv:
        return 0

    spec = json.loads(sys.stdin.readline())
    jobs, seconds, trace = spec["jobs"], spec["seconds"], spec["trace"]

    # warm-up round: fills caches and lazy set-up, and is the checked round
    _, _, outputs = run_round(jobs)
    failures = [(job["kind"], o.get("err") or o.get("error"))
                for job, outs in zip(jobs, outputs) for o in outs if not o.get("ok")]
    verdicts = workloads.verify(workload, jobs, outputs)
    reference = fingerprints(jobs, outputs)
    del outputs

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    rounds = {"plain": [], "traced": []}
    attempted = failed = 0
    repeat_ok, layers, spent = True, {}, 0.0
    while spent < seconds or (tracer is not None and not rounds["traced"]):
        traced = tracer is not None and len(rounds["traced"]) < len(rounds["plain"])
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, times, outputs = run_round(jobs)
        finally:
            if traced:
                tracer.uninstall()
        spent += wall
        rounds["traced" if traced else "plain"].append({"wall": wall, "jobs": times})
        for outs in outputs:
            attempted += len(outs)
            failed += sum(1 for o in outs if not o.get("ok"))
        repeat_ok = repeat_ok and fingerprints(jobs, outputs) == reference
        if traced:
            for key, val in tracer.layer_totals().items():
                if key.endswith("max_residual"):
                    layers[key] = max(layers.get(key, val), val)
                else:
                    layers[key] = layers.get(key, 0) + val
            if len(rounds["traced"]) == 1 and spec.get("spans"):
                with open(spec["spans"], "w", encoding="utf-8") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
        del outputs
    n_traced = len(rounds["traced"])
    for key in layers:
        if not key.endswith("max_residual"):
            layers[key] /= n_traced
    if n_traced:
        layers["trace.overhead_s"] = (statistics.median(r["wall"] for r in rounds["traced"])
                                      - statistics.median(r["wall"] for r in rounds["plain"]))

    verdicts.append(("repeatable", repeat_ok,
                     "every timed round reproduced the checked round" if repeat_ok
                     else "a timed round's outputs differ from the checked round"))
    import numpy

    result = {
        "import_s": import_s,
        "rounds": rounds["plain"],
        "traced_rounds": rounds["traced"],
        "layers": layers,
        "verdicts": verdicts,
        "warmup_failures": failures,
        "attempted": attempted,
        "failed": failed,
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
