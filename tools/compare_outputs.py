"""Diff the solver results and CLI outputs of two saddlepass sources.

Usage::

    python tools/compare_outputs.py PARENT_SRC

``PARENT_SRC`` is the ``src`` directory of another checkout (say, an
unpacked ``git archive`` of the parent commit).  The script runs
``tools/result_fingerprints.py`` and ``tools/cli_manifest.py`` of this
checkout twice each, once with ``PARENT_SRC`` on ``PYTHONPATH`` and once with
this checkout's ``src``, and prints each run's own output (the fingerprint
tool's table of counts per run: voronoi-random at seeds 0-23 and 8675309,
pair-scan, grid-bisect and the unscaled, real, diag and structured Wilkinson
inputs, each with the LAPACK calls its solves made), a unified diff of each pair of JSON outputs, and the line count of
each side's ``saddlepass/*.py``.  It exits 0 when both pairs are identical
and 1 otherwise.  OpenBLAS is pinned to one thread in every run.  The four
runs take about 6 minutes on a 2-core host, most of it the two fingerprint
runs.
"""

from __future__ import annotations

import difflib
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
            differs = differs or bool(diff)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
