"""One workload in one fresh process: set up, measure, check, report.

Started by ``run.py``; prints ``ready <monotonic time>`` once set-up is done
(imports, seeded inputs, one untimed warm-up solve), then ``scale <factor>``,
the factor to the reference speed just after (see ``speed``), then, unless
``--setup-only``, one JSON line with the measured values.

The loop is closed with a single caller: each solve starts after the previous
one returned, and passes over the input set repeat while one more pass fits
in ``--seconds``; there is always at least one.  With ``--trace 1`` the first
half of the time runs untraced and the second half traced, which gives both
the per-module numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import speed
import tracer
from checks import Verdict, raised

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def blas_info() -> dict:
    """OpenBLAS version and thread count of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = int(get())
    return info


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Outcomes:
    """Verdicts per solve.  The first output of each case is checked; every
    later output of the same case must repeat its fingerprint exactly."""

    def __init__(self, cases):
        self.cases = cases
        self.first: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.classes: Counter = Counter()
        self.wrong: Counter = Counter()
        self.per_case: dict[str, list[str]] = {}

    def record(self, i: int, out) -> None:
        case = self.cases[i]
        if isinstance(out, Exception):
            fp = ("raised", type(out).__name__, str(out))
        else:
            fp = case.fingerprint(out)
        if i not in self.first:
            verdict = raised(out) if isinstance(out, Exception) else case.check(out)
            self.first[i] = (fp, verdict)
            self.per_case[case.name] = verdict.failures
        elif fp != self.first[i][0]:
            verdict = Verdict(["nondeterministic"], ["nondeterministic"])
        else:
            verdict = self.first[i][1]
        self.attempted += 1
        if verdict.failures:
            self.failed += 1
            self.classes[verdict.failures[0]] += 1
        for name in verdict.wrong:
            self.wrong[f"{case.name}:{name}"] += 1


class Timeline:
    """Solve times in call order, with a run of the reference kernel before
    each solve and one after the last (see ``speed``)."""

    def __init__(self):
        self.solves: list[tuple[int, float]] = []  # (input, seconds)
        self.kernels: list[float] = []

    def close(self) -> None:
        """Run the kernel once more, after the last solve."""
        self.kernels.append(speed.kernel_seconds())

    def per_input(self, n: int, scaled: bool = True) -> list[list[float]]:
        """Each input's solve times, scaled to the reference speed by the
        kernel runs on either side of the solve, unless ``scaled`` is false."""
        times = [[] for _ in range(n)]
        for j, (i, t) in enumerate(self.solves):
            times[i].append(t * speed.scale(self.kernels[j:j + 2]) if scaled else t)
        return times


def run_pass(cases, timeline, outcomes) -> float:
    """Solve every input once, each after one run of the reference kernel;
    return the pass's wall time."""
    clock = time.perf_counter
    start = clock()
    for i, case in enumerate(cases):
        timeline.kernels.append(speed.kernel_seconds())
        t0 = clock()
        try:
            out = case.solve()
        except Exception as err:  # a raising solve is a failure to record, not a crash
            out = err
        timeline.solves.append((i, clock() - t0))
        outcomes.record(i, out)
    return clock() - start


def workload_seconds(times) -> float:
    """Time to solve the input set once: the sum over inputs of each input's
    median solve time in the run."""
    return sum(statistics.median(t) for t in times)


def measure(wl, seconds: float, trace: bool) -> dict:
    outcomes = Outcomes(wl.cases)
    n = len(wl.cases)
    timeline = Timeline()
    start = time.perf_counter()
    untraced_end = start + (seconds / 2 if trace else seconds)
    # After the first pass, a pass starts only if one as long as the last still fits.
    passes, pass_s = 0, 0.0
    while passes == 0 or time.perf_counter() + pass_s <= untraced_end:
        pass_s = run_pass(wl.cases, timeline, outcomes)
        passes += 1
    timeline.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times, raw = timeline.per_input(n), timeline.per_input(n, scaled=False)
    kernel = timeline.kernels  # seconds
    report = {
        "passes": passes,
        "median_ms_per_input": {
            c.name: round(1e3 * statistics.median(t), 3) for c, t in zip(wl.cases, times)},
        "unscaled_workload_s": workload_seconds(raw),
        "kernel_ms": {"median": 1e3 * statistics.median(kernel),
                      "min": 1e3 * min(kernel), "max": 1e3 * max(kernel)},
    }

    if not trace:
        metrics = {
            "workload_s": (workload_seconds(times), "s"),
            # The median input's median call.  A median over all calls would
            # fall between the inputs when their costs differ widely, as on
            # pair-scan, and follow the slowest call of the cheap input.
            "solve_ms_p50": (1e3 * statistics.median(statistics.median(t) for t in times), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        report["solve_inputs"] = n
        report["solve_samples"] = len(timeline.solves)
        problems = []
    else:
        traced = Timeline()
        first_counts, self_ms, problems = None, Counter(), []
        traced_passes = 0
        with tracer.Tracer() as tr:
            while traced_passes == 0 or time.perf_counter() + pass_s <= start + seconds:
                tr.begin_pass(wl.fields)
                pass_s = run_pass(wl.cases, traced, outcomes)
                counts, pass_ms = tr.end_pass()
                problems += tracer.reconcile(counts)
                if first_counts is None:
                    first_counts = counts
                elif counts != first_counts:
                    problems.append(f"counts of traced pass {traced_passes + 1} differ")
                self_ms.update(pass_ms)
                traced_passes += 1
        traced.close()
        traced_times = traced.per_input(n)
        overhead = workload_seconds(traced_times) / workload_seconds(times) - 1.0
        per_pass_ms = {k: v / traced_passes for k, v in self_ms.items()}
        values = tracer.layer_metrics(first_counts, per_pass_ms, overhead)
        units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
        metrics = {name: (value, units[name]) for name, value in values.items()}
        report["traced_passes"] = traced_passes
        report["traced_pass_ms"] = 1e3 * sum(t for _, t in traced.solves) / traced_passes
        report["counts"] = {k: v for k, v in sorted(first_counts.items())}

    report.update({
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "fail_frac": outcomes.failed / outcomes.attempted,
        "failure_classes": dict(outcomes.classes),
        "failures_per_input": {k: v for k, v in outcomes.per_case.items() if v},
        "wrong": dict(outcomes.wrong),
        "trace_problems": problems,
    })
    return {
        "correct": not outcomes.wrong and not problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import saddlepass

    if Path(saddlepass.__file__).resolve().parent != ROOT / "src" / "saddlepass":
        print(f"saddlepass imported from {saddlepass.__file__}, not from this checkout",
              file=sys.stderr)
        return 1
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        wl.warmup()
        print(f"ready {time.monotonic()!r}", flush=True)
        print(f"scale {speed.REFERENCE_S / speed.probe()!r}", flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, args.seconds, bool(args.trace))
        result["report"]["environment"] = environment(args)
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
