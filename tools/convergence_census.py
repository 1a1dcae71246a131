"""Count how Wilkinson-distance runs end, per family of seeded inputs.

Usage::

    PYTHONPATH=src python tools/convergence_census.py OUT.json

Runs ``wilkinson_distance`` with default options on each input of four
families and prints, per family, how many runs converged, stopped
unconverged or raised, how many were wrong (``bench/checks.check_wilkinson``
found a check that contradicts the result, such as a converged point whose
Malyshev gap exceeds ``MALYSHEV_RTOL``), the largest relative Malyshev gap of
a converged result, and the wall time.  ``OUT.json`` gets the same counts,
gaps and notes per family, sorted and without timings, so
``tools/compare_outputs.py`` can diff two sources.  The families:

- ``random``: the 96 voronoi-random inputs (``bench/workloads``, seeds 0 and
  8675309, 16 each of n = 12, 20 and 28);
- ``unscaled``: ``g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))``
  with ``g = default_rng(s)``, n = 10, 16 and 24, s = 0..23;
- ``real``: ``default_rng(100 + s).standard_normal((n, n)) / sqrt(n)``,
  n = 12, 20 and 28, s = 0..15;
- ``diag``: the normal matrix ``diag(0, 2, 5j)``, whose distance is 1 at z = 1.

Each input that does not converge is listed with the stop reason or the error.
The whole census takes about 25 seconds on a 2-core host.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402  (bench/ is put on the path above)
import workloads  # noqa: E402

import saddlepass as sp  # noqa: E402


def _random() -> list[tuple[str, np.ndarray]]:
    out = []
    for seed in (0, 8675309):
        rng = np.random.default_rng(seed)
        for i in range(workloads.RANDOM_PER_SIZE):
            for n in workloads.RANDOM_SIZES:
                out.append((f"seed{seed}/n{n}-{i}", workloads.random_matrix(rng, n)))
    return out


def _unscaled() -> list[tuple[str, np.ndarray]]:
    out = []
    for n in (10, 16, 24):
        for s in range(24):
            g = np.random.default_rng(s)
            out.append((f"n{n}-s{s}", g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))))
    return out


def _real() -> list[tuple[str, np.ndarray]]:
    return [(f"n{n}-s{s}", np.random.default_rng(100 + s).standard_normal((n, n)) / np.sqrt(n))
            for n in (12, 20, 28) for s in range(16)]


FAMILIES = {
    "random": _random,
    "unscaled": _unscaled,
    "real": _real,
    "diag": lambda: [("diag(0,2,5j)", np.diag([0.0, 2.0, 5.0j]))],
}


def census(inputs) -> tuple[dict, list[str], float]:
    """Outcome counts over ``inputs``, one line per run that did not converge,
    and the wall time in seconds."""
    counts = {"inputs": 0, "converged": 0, "unconverged": 0, "raised": 0, "wrong": 0,
              "max_gap": 0.0}
    notes = []
    start = time.perf_counter()
    for name, a in inputs:
        counts["inputs"] += 1
        try:
            res = sp.wilkinson_distance(a)
        except Exception as err:  # a raising run is an outcome to count
            counts["raised"] += 1
            notes.append(f"{name}: raised {type(err).__name__}: {err}")
            continue
        counts["wrong"] += bool(checks.check_wilkinson(a, res).wrong)
        if res.converged:
            counts["converged"] += 1
            eps = res.epsilon_bar_estimate
            if eps > 0.0:
                gap = (checks.malyshev_bound(a, res.coalescence_point) - eps) / eps
                counts["max_gap"] = max(counts["max_gap"], gap)
        else:
            counts["unconverged"] += 1
            # Results of sources older than ``WilkinsonResult.stop_reason`` lack it.
            reason = getattr(res, "stop_reason", "no stop_reason")
            notes.append(f"{name}: unconverged ({reason}), eps {res.epsilon_bar_estimate:.6g}")
    return counts, notes, time.perf_counter() - start


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/convergence_census.py OUT.json", file=sys.stderr)
        return 1
    print(f"{'family':<10}{'inputs':>7}{'converged':>10}{'unconv':>8}{'raised':>8}"
          f"{'wrong':>7}{'max gap':>10}{'time s':>8}")
    out = {}
    for family, build in FAMILIES.items():
        c, notes, seconds = census(build())
        print(f"{family:<10}{c['inputs']:>7}{c['converged']:>10}{c['unconverged']:>8}"
              f"{c['raised']:>8}{c['wrong']:>7}{c['max_gap']:>10.2g}{seconds:>8.1f}")
        for line in notes:
            print(f"    {line}")
        out[family] = {**c, "notes": notes}
    Path(args[0]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
