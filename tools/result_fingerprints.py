"""Record the result of every gate input, for parent-versus-change diffs.

Usage::

    PYTHONPATH=src python tools/result_fingerprints.py OUT.json

Solves each input of these runs once with whichever ``saddlepass`` comes
first on the path:

- ``voronoi-random`` (seeds 0-23 and 8675309), ``pair-scan`` and
  ``grid-bisect``, built by ``bench/workloads.build``;
- ``unscaled``: ``g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))``
  with ``g = default_rng(s)``, n = 10, 16 and 24, s = 0..23;
- ``real``: ``default_rng(100 + s).standard_normal((n, n)) / sqrt(n)``,
  n = 12, 20 and 28, s = 0..15;
- ``diag``: the normal matrix ``diag(0, 2, 5j)``, whose distance is 1 at z = 1;
- ``structured``: the paper's two bidiagonal matrices and eight
  pseudospectra-gallery matrices (see ``_structured``).

The last four run ``wilkinson_distance`` at default options, checked by
``bench/checks.check_wilkinson``.  Per input the JSON records the bench
fingerprint, a sha256 of the full output (the local-iteration records and
``pair_scan`` of a Wilkinson result, the history of a bisection), whether it
converged, its stop reason, the check's failure classes and those among them
that contradict the result (``wrong``), a Wilkinson result's chosen pair, or
else the exception the solve raised.  A converged Wilkinson result with
eps > 0 also gets its relative Malyshev gap
``(malyshev_bound(A, z*) - eps) / eps``.  Per run the JSON counts
inputs, converged, unconverged, raised, wrong and failed inputs and gives the
largest gap (at least 0); stdout prints the same rows with wall times and
with the numpy ``eigvals`` and ``svd`` calls and stacked SVD matrices that
the run's solves made (the checks' own calls are not counted).  The counts
stay out of the JSON, so two sources that give the same results give the
same JSON however much LAPACK work each does; they go per run to
``OUT.lapack.json`` beside it instead.  The JSON is sorted and
indented, so ``diff parent.json change.json`` lists every changed input, and
a change that fails more often on any run shows in that run's ``failed``.
One run takes about 3 minutes on a 2-core host.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.linalg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402  (bench/ is put on the path above)
import workloads  # noqa: E402

import saddlepass as sp  # noqa: E402


def _memo_last(bound):
    """``bound(a, z)`` with a one-entry memo keyed on the complex matrix bytes
    and z.  ``record`` asks for the Malyshev bound of a result twice, once
    inside ``check_wilkinson`` and once for the gap; the second is served here."""
    last = [None, None]

    def bound_once(a, z):
        key = (np.asarray(a, dtype=complex).tobytes(), complex(z))
        if last[0] != key:
            last[:] = key, bound(a, z)
        return last[1]

    return bound_once


checks.malyshev_bound = _memo_last(checks.malyshev_bound)


def _wilkinson_cases(inputs) -> list[workloads.Case]:
    """Default ``wilkinson_distance`` runs on (name, matrix) pairs."""
    return [workloads.Case(name, lambda a=a: sp.wilkinson_distance(a),
                           lambda r, a=a: checks.check_wilkinson(a, r),
                           workloads._wilkinson_fingerprint)  # the bench's own
            for name, a in inputs]


def _unscaled():
    for n in (10, 16, 24):
        for s in range(24):
            g = np.random.default_rng(s)
            yield f"n{n}-s{s}", g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))


def _real():
    for n in (12, 20, 28):
        for s in range(16):
            yield f"n{n}-s{s}", np.random.default_rng(100 + s).standard_normal((n, n)) / np.sqrt(n)


def _structured():
    """bidiag5 and bidiag10, grcar(12) and grcar(20) (``I`` - subdiagonal + 3
    superdiagonals), kahan(10) and kahan(16) (``diag(s^k) (I - c strict upper
    ones)`` with s = sin 1.2, c = cos 1.2), the companion matrix of
    ``np.poly(1..8)``, an 8x8 Jordan block plus 1e-3 complex noise from
    ``default_rng(8)``, and the upper triangles of complex Gaussians from
    ``default_rng(3)`` (n = 12) and ``default_rng(4)`` (n = 20)."""
    yield "bidiag5", workloads.bidiagonal_5x5()
    yield "bidiag10", workloads.bidiagonal_10x10()
    for n in (12, 20):
        yield f"grcar{n}", sum(np.eye(n, k=k) for k in range(4)) - np.eye(n, k=-1)
    s, c = np.sin(1.2), np.cos(1.2)
    for n in (10, 16):
        yield f"kahan{n}", np.diag(s ** np.arange(n)) @ (
            np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    yield "companion8", scipy.linalg.companion(np.poly(np.arange(1, 9)))
    g = np.random.default_rng(8)
    yield "jordan8", np.eye(8, k=1) + 1e-3 * (g.standard_normal((8, 8))
                                              + 1j * g.standard_normal((8, 8)))
    for n, seed in ((12, 3), (20, 4)):
        g = np.random.default_rng(seed)
        yield f"triu{n}-s{seed}", np.triu(g.standard_normal((n, n))
                                          + 1j * g.standard_normal((n, n)))


def _bench(name: str, seed: int):
    return lambda tmp: workloads.build(name, seed, tmp).cases


#: Run name -> builder of its cases from a scratch directory.
RUNS = {
    **{f"voronoi-random/seed{seed}": _bench("voronoi-random", seed)
       for seed in (*range(24), 8675309)},
    "pair-scan/seed0": _bench("pair-scan", 0),
    "grid-bisect/seed0": _bench("grid-bisect", 0),
    "unscaled": lambda tmp: _wilkinson_cases(_unscaled()),
    "real": lambda tmp: _wilkinson_cases(_real()),
    "diag": lambda tmp: _wilkinson_cases([("diag(0,2,5j)", np.diag([0.0, 2.0, 5.0j]))]),
    "structured": lambda tmp: _wilkinson_cases(_structured()),
}


def _canon(obj):
    """A nested tuple of plain Python values whose repr is exact and stable."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,
                tuple((f.name, _canon(getattr(obj, f.name))) for f in dataclasses.fields(obj)))
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    return obj


def _digest(obj) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()


def _output(out):
    """What the digest covers: records and pair scan, or bisection history."""
    if hasattr(out, "history"):
        return out.history
    return (out.records, out.pair_scan)


@contextlib.contextmanager
def _counting_lapack(counts: Counter):
    """Count numpy ``eigvals`` and ``svd`` calls, and the matrices an ``svd``
    call stacks, into ``counts`` while the block runs."""
    eigvals, svd = np.linalg.eigvals, np.linalg.svd

    def counted_eigvals(a):
        counts["eigvals"] += 1
        return eigvals(a)

    def counted_svd(a, *args, **kwargs):
        counts["svd"] += 1
        counts["svd mats"] += math.prod(np.shape(a)[:-2])
        return svd(a, *args, **kwargs)

    np.linalg.eigvals, np.linalg.svd = counted_eigvals, counted_svd
    try:
        yield
    finally:
        np.linalg.eigvals, np.linalg.svd = eigvals, svd


def record(case, lapack: Optional[Counter] = None) -> dict:
    """The JSON entry of one case; the LAPACK calls of its solve, and of
    nothing else, are added to ``lapack`` when one is given."""
    try:
        with _counting_lapack(Counter() if lapack is None else lapack):
            out = case.solve()
    except Exception as err:  # a raising solve is an outcome to record
        return {"raised": f"{type(err).__name__}: {err}"}
    verdict = case.check(out)
    entry = {
        "fingerprint": repr(_canon(case.fingerprint(out))),
        "output_sha256": _digest(_output(out)),
        "converged": bool(out.converged),
        "stop_reason": out.stop_reason,
        "failures": verdict.failures,
        "wrong": verdict.wrong,
    }
    if hasattr(out, "history"):
        return entry
    entry["pair"] = repr(_canon(out.chosen_pair))
    if out.converged and out.epsilon_bar_estimate > 0.0:
        eps = out.epsilon_bar_estimate
        entry["gap"] = (checks.malyshev_bound(out.matrix, out.coalescence_point) - eps) / eps
    return entry


def summarize(entries: list[dict]) -> dict:
    """Outcome counts of one run's records, and its largest gap."""
    solved = [e for e in entries if "raised" not in e]
    converged = sum(e["converged"] for e in solved)
    return {
        "inputs": len(entries),
        "converged": converged,
        "unconverged": len(solved) - converged,
        "raised": len(entries) - len(solved),
        "wrong": sum(bool(e["wrong"]) for e in solved),
        "failed": len(entries) - sum(not e["failures"] for e in solved),
        "max_gap": max([0.0, *(e["gap"] for e in solved if "gap" in e)]),
    }


_COUNTS = ("inputs", "converged", "unconverged", "raised", "wrong", "failed")
_LAPACK_COUNTS = ("eigvals", "svd", "svd mats")


def build_fingerprints() -> tuple[dict, dict]:
    """The JSON of every run's inputs, and each run's LAPACK counts."""
    print(f"{'run':<27}" + "".join(f"{k:>{len(k) + 2}}" for k in _COUNTS)
          + f"{'max gap':>10}{'time s':>8}" + "".join(f"{k:>10}" for k in _LAPACK_COUNTS))
    runs, inputs, counts = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, build in RUNS.items():
            start = time.perf_counter()
            lapack = Counter()
            entries = {f"{key}/{case.name}": record(case, lapack) for case in build(Path(tmp))}
            inputs.update(entries)
            runs[key] = summary = summarize(list(entries.values()))
            print(f"{key:<27}" + "".join(f"{summary[k]:>{len(k) + 2}}" for k in _COUNTS)
                  + f"{summary['max_gap']:>10.2g}{time.perf_counter() - start:>8.1f}"
                  + "".join(f"{lapack[k]:>10}" for k in _LAPACK_COUNTS), flush=True)
            counts[key] = {k: lapack[k] for k in _LAPACK_COUNTS}
    return {"runs": runs, "inputs": inputs}, counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/result_fingerprints.py OUT.json", file=sys.stderr)
        return 1
    data, counts = build_fingerprints()
    out = Path(args[0])
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    out.with_suffix(".lapack.json").write_text(json.dumps(counts, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
