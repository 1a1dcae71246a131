"""Record the result of every benchmark input, for parent-versus-change diffs.

Usage::

    PYTHONPATH=src python tools/result_fingerprints.py OUT.json

Builds the voronoi-random (seeds 0-23 and 8675309), pair-scan and
grid-bisect inputs through ``bench/workloads.build`` and solves each once with
whichever ``saddlepass`` comes first on the path.  Per input it records the
bench fingerprint, a sha256 of the full output (the local-iteration records
and ``pair_scan`` of a Wilkinson result, the history of a bisection), and the
bench check's failure classes, or the exception the solve raised.  The JSON
is sorted and indented, so ``diff parent.json change.json`` lists every
changed input; ``failed`` counts the failed inputs per workload and seed, so
a change that fails more often on any of the 25 voronoi-random seeds shows
there.  One run takes about 3 minutes on a 2-core host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (bench/ is put on the path above)

#: (workload, seed) pairs; pair-scan and grid-bisect do not depend on the seed.
RUNS = (*(("voronoi-random", seed) for seed in (*range(24), 8675309)), ("pair-scan", 0),
        ("grid-bisect", 0))


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


def record(case) -> dict:
    try:
        out = case.solve()
    except Exception as err:  # a raising solve is an outcome to record
        return {"raised": f"{type(err).__name__}: {err}"}
    return {
        "fingerprint": repr(_canon(case.fingerprint(out))),
        "output_sha256": _digest(_output(out)),
        "failures": case.check(out).failures,
    }


def build_fingerprints() -> dict:
    results, failed = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in RUNS:
            key = f"{name}/seed{seed}"
            wl = workloads.build(name, seed, Path(tmp))
            failed[key] = 0
            for case in wl.cases:
                entry = record(case)
                failed[key] += bool(entry.get("raised") or entry["failures"])
                results[f"{key}/{case.name}"] = entry
    return {"failed": failed, "inputs": results}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/result_fingerprints.py OUT.json", file=sys.stderr)
        return 1
    data = build_fingerprints()
    Path(args[0]).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
