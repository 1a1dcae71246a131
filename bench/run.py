"""Benchmark of saddlepass: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: voronoi-random, pair-scan, grid-bisect, psgrid (see
``BENCHMARK.json`` and ``bench/BASELINE.md``).  Each workload runs in a fresh
worker process with OpenBLAS pinned to one thread.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics.  Times are scaled to the
reference speed of ``bench/speed.py``, which takes the drift of a shared host
out of them.  ``setup_s`` is the median of several worker start-ups (process
start to ready: imports, seeded inputs, one warm-up solve).  With
``--trace 1`` it reports the per-module metrics of a traced run.  The line before it is a ``report`` with the environment, sample
counts, failure classes and check results.

Exits non-zero without a result line when a worker fails or runs out of time,
for instance when the checkout has no ``src/saddlepass``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("voronoi-random", "pair-scan", "grid-bisect", "psgrid")

#: Set-up-only workers started before the measuring one; setup_s is the
#: median over all of them.
SETUP_PROBES = 2

#: Wall-clock budget of one invocation, workers included.
TIME_LIMIT_S = 170.0

BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker, wait for it, return (start-to-ready seconds scaled to
    the reference speed, last line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran out of time") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    scale = [ln for ln in lines if ln.startswith("scale ")]
    if not ready or not scale:
        raise WorkerError("worker never became ready")
    return (float(ready[0].split()[1]) - started) * float(scale[0].split()[1]), lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="saddlepass benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setup = [run_worker(args, deadline, True)[0] for _ in range(probes)]
        ready_s, line = run_worker(args, deadline, False)
        setup.append(ready_s)
        result = json.loads(line)
    except (WorkerError, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    report = result["report"]
    metrics = result["metrics"]
    if not args.trace:
        report["setup_samples_s"] = setup
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
