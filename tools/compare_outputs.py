"""Diff the solver results and CLI outputs of two saddlepass sources.

Usage::

    python tools/compare_outputs.py PARENT_SRC

``PARENT_SRC`` is the ``src`` directory of another checkout (say, an
unpacked ``git archive`` of the parent commit).  The script runs
``tools/result_fingerprints.py`` and ``tools/cli_manifest.py`` of this
checkout twice each, once with ``PARENT_SRC`` on ``PYTHONPATH`` and once with
this checkout's ``src``, and prints each run's own output (the fingerprint
tool's table of counts per run: voronoi-random at seeds 0-23 and 8675309,
pair-scan, grid-bisect, the unscaled, real, diag and structured Wilkinson
inputs, and the unscaled, real and structured ones in exhaustive mode, each
with the LAPACK calls and field work its solves made), a unified diff of each
pair of JSON outputs, and the line count of each side's ``saddlepass/*.py``.
The LAPACK calls of each fingerprint run are printed once more, one row per
run, as ``parent -> change`` for ``eigvals``, ``svd`` and ``svd mats``, and
so is its field work (``value`` calls, ``value_many`` points and ``grad``
calls).  After the CLI manifest's diff it prints how many rows changed and,
per changed row, its name, its exit code as ``parent -> change`` and the
fields that moved (stdout, files, stderr, warnings, traceback, argv).  For
each fingerprint run it also prints a drift summary: the inputs whose pair,
convergence, stop reason or record count changed (or that raise on one side
only), how many of those moved only to the conjugate point, each such input
by name, the inputs whose full output (``output_sha256``: records, pair scan
or history) changed while that outcome stayed the same, by name, and the
largest relative change in eps (a bisection's lower and upper bounds).  It
exits 0 when both pairs of outputs are identical and 1 otherwise.  OpenBLAS
is pinned to one thread in every run.  The four runs take about 8 minutes on
a 2-core host, most of it the two fingerprint runs.
"""

from __future__ import annotations

import ast
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ("result_fingerprints.py", "cli_manifest.py")


def _run(tool: str, label: str, src: Path, out: Path) -> str:
    print(f"-- {tool} ({label})", flush=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(ROOT / "tools" / tool), str(out)], env=env, check=True)
    return out.read_text()


#: Relative distance below which two points or eigenvalues count as equal:
#: the eigenvalues of a real matrix are conjugate only up to roundoff.
_MIRROR_RTOL = 1e-8


def _outcome(entry: dict):
    """(pair, converged, stop reason, record count, point, eps values) of an
    entry, or its exception text; a bisection has no pair or point, its
    iterations are its records and its bounds its eps values."""
    if "raised" in entry:
        return entry["raised"]
    fp = ast.literal_eval(entry["fingerprint"])
    if "pair" not in entry:  # (lower, upper, iterations, stop reason)
        return None, entry["converged"], entry["stop_reason"], fp[2], None, fp[:2]
    # (eps, point, converged, record count)
    return (ast.literal_eval(entry["pair"]), entry["converged"], entry["stop_reason"], fp[3],
            fp[1], fp[:1])


def _close(a, b) -> bool:
    return all(abs(x - y) <= _MIRROR_RTOL * (1.0 + abs(x)) for x, y in zip(a, b))


def _mirrored(old: tuple, new: tuple) -> bool:
    """Whether ``new`` is ``old`` reflected in the real axis, and nothing else changed."""
    (pair0, *same0, z0, _), (pair1, *same1, z1, _) = old, new
    if pair0 is None or same0 != same1 or not _close([z0.conjugate()], [z1]):
        return False
    image = [p.conjugate() for p in pair0]
    return _close(image, pair1) or _close(image[::-1], pair1)


def drift(parent: dict, change: dict) -> dict[str, dict]:
    """Per fingerprint run: the changed inputs (their names, and which of
    them only mirrored), the inputs whose output digest alone changed, and
    the largest relative change in eps."""
    out = {}
    for run in parent["runs"]:
        changed, mirrored, output_only, eps_rel = [], [], [], 0.0
        for key, entry in parent["inputs"].items():
            if not key.startswith(run + "/") or key not in change["inputs"]:
                continue
            old, new = _outcome(entry), _outcome(change["inputs"][key])
            if isinstance(old, str) or isinstance(new, str):
                if old != new:
                    changed.append(key)
                continue
            eps_rel = max([eps_rel, *(abs(b - a) / abs(a) if a else abs(b)
                                      for a, b in zip(old[5], new[5]))])
            if old[:4] != new[:4]:
                changed.append(key)
                if _mirrored(old, new):
                    mirrored.append(key)
            elif entry["output_sha256"] != change["inputs"][key]["output_sha256"]:
                output_only.append(key)
        out[run] = {"changed": changed, "mirrored": mirrored, "output_only": output_only,
                    "max_eps_rel": eps_rel}
    return out


def _print_drift(parent_text: str, change_text: str) -> None:
    for run, d in drift(json.loads(parent_text), json.loads(change_text)).items():
        print(f"drift {run}: {len(d['changed'])} changed, {len(d['mirrored'])} only to the "
              f"conjugate point, {len(d['output_only'])} output only, "
              f"max eps change {d['max_eps_rel']:.2g}")
        for key in d["changed"]:
            print(f"  {key}{' (conjugate)' if key in d['mirrored'] else ''}")
        for key in d["output_only"]:
            print(f"  {key} (output only)")


def _count_rows(title: str, keys: tuple, parent: dict, change: dict) -> list[str]:
    rows = [f"{title:<27}" + "".join(f"{k:>22}" for k in keys)]
    for run, old in parent.items():
        cells = (f"{old[k]} -> {change[run][k]}" for k in keys)
        rows.append(f"{run:<27}" + "".join(f"{c:>22}" for c in cells))
    return rows


def lapack_rows(parent: dict, change: dict) -> list[str]:
    """One line per fingerprint run: its LAPACK counts as parent -> change."""
    return _count_rows("lapack", ("eigvals", "svd", "svd mats"), parent, change)


def field_rows(parent: dict, change: dict) -> list[str]:
    """One line per fingerprint run: its field work as parent -> change."""
    return _count_rows("fields", ("value", "value_many points", "grad"), parent, change)


#: Manifest fields of a CLI row, by the name a changed row shows them under.
_ROW_FIELDS = {"stdout": "stdout_sha256", "files": "files", "stderr": "stderr_last",
               "warnings": "warnings", "traceback": "traceback", "argv": "argv"}


def manifest_rows(parent: dict, change: dict) -> list[str]:
    """How many CLI manifest rows changed, then one line per changed row: its
    name, its exit code as parent -> change and the fields that moved."""
    changed = [name for name in sorted(parent.keys() | change.keys())
               if parent.get(name) != change.get(name)]
    rows = [f"cli rows changed: {len(changed)}"]
    for name in changed:
        old, new = parent.get(name), change.get(name)
        if old is None or new is None:
            rows.append(f"  {name}: only in {'parent' if new is None else 'change'}")
            continue
        moved = [label for label, key in _ROW_FIELDS.items() if old[key] != new[key]]
        rows.append(f"  {name}: exit {old['exit']} -> {new['exit']}, moved "
                    f"{', '.join(moved) or 'nothing else'}")
    return rows


def _line_count(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (src / "saddlepass").glob("*.py"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "saddlepass").is_dir():
        print("usage: python tools/compare_outputs.py PARENT_SRC", file=sys.stderr)
        return 1
    sources = {"parent": Path(args[0]).resolve(), "change": ROOT / "src"}
    for label, src in sources.items():
        print(f"saddlepass/*.py lines ({label}): {_line_count(src)}")
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for tool in TOOLS:
            texts = {label: _run(tool, label, src, Path(tmp) / f"{label}-{tool}.json")
                     for label, src in sources.items()}
            diff = list(difflib.unified_diff(
                texts["parent"].splitlines(keepends=True),
                texts["change"].splitlines(keepends=True),
                f"parent/{tool}", f"change/{tool}",
            ))
            print(f"== {tool}: {'differs' if diff else 'identical'}")
            sys.stdout.writelines(diff)
            if tool == "result_fingerprints.py":
                _print_drift(texts["parent"], texts["change"])
                counts = [json.loads((Path(tmp) / f"{label}-{tool}.json")
                                     .with_suffix(".lapack.json").read_text())
                          for label in sources]
                print("\n".join(lapack_rows(*counts) + field_rows(*counts)))
            else:
                print("\n".join(manifest_rows(*(json.loads(t) for t in texts.values()))))
            differs = differs or bool(diff)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
