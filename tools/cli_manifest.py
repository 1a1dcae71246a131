"""Record what a fixed list of CLI invocations prints, writes and exits with.

Usage::

    PYTHONPATH=src python tools/cli_manifest.py OUT.json

Each invocation runs in-process through ``saddlepass.cli.main`` of whichever
``saddlepass`` comes first on the path, in its own empty directory, with
``SystemExit`` caught.  The manifest records, per invocation, the exit code,
the sha256 of stdout and of every file it wrote, the last line of stderr (the
invocation's own directory shown as ``$OUT``, so adding a row changes no other
row, and the temporary directory as ``$TMP``), the warnings it raised, and
whether it ended in a traceback.  The paper's two bidiagonal matrices come
from ``bench/workloads``, and every input matrix is written by
``bench/workloads.write_matrix_text`` of this checkout, so two sources read
identical bytes.  The JSON is sorted and indented, so
``diff parent.json change.json`` lists every changed invocation.

Some rows replace a solver in ``saddlepass.cli`` by one that raises, to pin
the exit code of each numerical failure class.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import saddlepass.cli as cli
from saddlepass.errors import BoundaryHitError, PreconditionError, ResolutionLimitError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (bench/ is put on the path above)

CATALOG = ("quadratic-saddle", "ps-fail-a", "ps-fail-b", "plateau",
           "double-well-curve", "sqrt-cusp")
CATALOG_2D = ("quadratic-saddle", "ps-fail-a", "ps-fail-b", "double-well-curve")
SUBCOMMANDS = ("solve-local", "solve-bisect", "wilkinson", "psgrid", "list-problems")


def _matrices() -> dict[str, np.ndarray]:
    """The paper's two bidiagonal matrices and thirteen seeded ones."""
    out = {"paper5": workloads.bidiagonal_5x5(), "paper10": workloads.bidiagonal_10x10()}
    # Complex Gaussian scaled by 1/sqrt(2n) (spectrum in the unit disc),
    # real Gaussian, and unscaled complex Gaussian, each from default_rng(seed).
    for n, seed in ((5, 0), (6, 5), (8, 1), (8, 2), (12, 0), (20, 3)):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out[f"scaled-n{n}-s{seed}"] = a / np.sqrt(2 * n)
    for n, seed in ((7, 0), (10, 1), (16, 2)):
        a = np.random.default_rng(seed).standard_normal((n, n))
        out[f"real-n{n}-s{seed}"] = a / np.sqrt(n)
    for n, seed in ((9, 0), (10, 4), (16, 12)):
        rng = np.random.default_rng(seed)
        out[f"unscaled-n{n}-s{seed}"] = (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    # A real spectrum on one line: every Voronoi bisector is vertical.
    out["triu-real-n8-s7"] = np.triu(np.random.default_rng(7).standard_normal((8, 8)))
    return out


#: Malformed matrix files: name -> text.
MALFORMED = {
    "bad-token": "2\n1 zz\n3 4\n",
    "nan": "2\n1 nan\n0 2\n",
    "extra-row": "2\n1 0\n0 2\n5 5\n",
    "json-n-null": '{"n": null, "re": [[1]], "im": [[0]]}',
    "json-n-float": '{"n": 1.7, "re": [[1]], "im": [[0]]}',
    "one-by-one": "1\n2+1j\n",
}


def _invocations(matrices) -> list[tuple[str, list[str], object]]:
    """(name, argv, patch) triples.  ``{in}`` is the input directory, ``{out}``
    the invocation's own directory; ``patch`` is (cli attribute, error) or None."""
    rows = [("list-problems", ["list-problems"], None),
            ("help", ["--help"], None)]
    rows += [(f"help-{c}", [c, "--help"], None) for c in SUBCOMMANDS]
    for p in CATALOG:
        base = ["solve-local", "--problem", p]
        rows += [
            (f"solve-local-csv-{p}", base, None),
            (f"solve-local-json-{p}", base + ["--format", "json"], None),
            (f"solve-local-step1a-{p}", base + ["--step1a"], None),
            (f"solve-bisect-{p}", ["solve-bisect", "--problem", p, "--tol-gap", "1e-4"], None),
        ]
    # At the default --tol-gap (1e-6) the 2-D runs go 19 to 22 levels deep.
    rows += [(f"solve-bisect-default-{p}", ["solve-bisect", "--problem", p], None)
             for p in CATALOG_2D]
    # A pair-distance stop after 16 levels.
    rows.append(("solve-bisect-tol-point-quadratic-saddle",
                 ["solve-bisect", "--problem", "quadratic-saddle", "--tol-point", "1e-2"], None))
    for name, a in matrices.items():
        m = f"{{in}}/{name}.txt"
        rows += [
            (f"wilkinson-{name}", ["wilkinson", "--matrix", m,
                                   "--perturbation-out", "{out}/pert.txt"], None),
            (f"solve-local-matrix-{name}", ["solve-local", "--matrix", m], None),
            (f"psgrid-{name}", ["psgrid", "--matrix", m, "--grid", "60", "40"], None),
        ]
        if a.shape[0] <= 12:
            rows.append((f"wilkinson-exhaustive-{name}",
                         ["wilkinson", "--matrix", m, "--exhaustive"], None))
    for name in MALFORMED:
        rows.append((f"malformed-wilkinson-{name}",
                     ["wilkinson", "--matrix", f"{{in}}/{name}.txt"], None))
    m5 = "{in}/paper5.txt"
    rows += [
        # The exit-code table: usage errors, input errors, numerical failures
        # and a run that does not converge.
        ("usage-missing-matrix", ["wilkinson"], None),
        ("usage-bad-format", ["wilkinson", "--matrix", m5, "--format", "xml"], None),
        ("usage-unknown-subcommand", ["bogus"], None),
        ("usage-grid-one-value", ["psgrid", "--matrix", m5, "--grid", "3"], None),
        ("usage-bisect-matrix", ["solve-bisect", "--matrix", m5], None),
        ("usage-bisect-step1a", ["solve-bisect", "--problem", "quadratic-saddle", "--step1a"],
         None),
        ("usage-wilkinson-csv", ["wilkinson", "--matrix", m5, "--format", "csv"], None),
        ("bad-option-tol-gap", ["solve-local", "--problem", "quadratic-saddle",
                                "--tol-gap", "-1"], None),
        ("bad-option-bisect-tol-gap-inf", ["solve-bisect", "--problem", "double-well-curve",
                                           "--tol-gap", "inf"], None),
        ("bad-option-local-tol-point-inf", ["solve-local", "--problem", "double-well-curve",
                                            "--tol-point", "inf"], None),
        ("psgrid-infinite-box", ["psgrid", "--matrix", m5, "--box", "0", "0", "1", "inf"], None),
        ("unknown-problem", ["solve-bisect", "--problem", "nope"], None),
        ("missing-file", ["psgrid", "--matrix", "{in}/missing.txt"], None),
        ("solve-local-1x1", ["solve-local", "--matrix", "{in}/one-by-one.txt"], None),
        ("out-missing-dir", ["solve-local", "--problem", "quadratic-saddle",
                             "--out", "{out}/nodir/rows.csv"], None),
        ("perturbation-out-missing-dir", ["wilkinson", "--matrix", m5, "--out",
                                          "{out}/result.json", "--perturbation-out",
                                          "{out}/nodir/pert.txt"], None),
        ("precondition", ["solve-local", "--problem", "quadratic-saddle"],
         ("run_local", PreconditionError("no feasible start"))),
        ("resolution-limit", ["solve-bisect", "--problem", "quadratic-saddle"],
         ("bisect", ResolutionLimitError("grid too coarse"))),
        ("boundary-hit", ["wilkinson", "--matrix", m5],
         ("wilkinson_distance", BoundaryHitError([0.0, 0.0]))),
        ("linalg", ["psgrid", "--matrix", m5],
         ("pseudospectrum_grid", np.linalg.LinAlgError("SVD did not converge"))),
        ("not-converged", ["solve-local", "--problem", "double-well-curve",
                           "--max-iter", "1"], None),
    ]
    # Step 1a on the exact sigma_min field, which no row above runs.
    rows += [(f"wilkinson-step1a-{name}",
              ["wilkinson", "--matrix", f"{{in}}/{name}.txt", "--step1a"], None)
             for name in ("paper5", "paper10", "real-n10-s1", "scaled-n8-s1")]
    rows.append(("wilkinson-exhaustive-step1a-paper5",
                 ["wilkinson", "--matrix", m5, "--exhaustive", "--step1a"], None))
    return rows


def _raiser(err):
    def fail(*args, **kwargs):
        raise err

    return fail


def _run(argv, patch, workdir: Path, root: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    saved = None
    if patch is not None:
        saved = getattr(cli, patch[0])
        setattr(cli, patch[0], _raiser(patch[1]))
    traceback = False
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # what the interpreter would print last, exit 1
                traceback = True
                code = 1
                stderr.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        if patch is not None:
            setattr(cli, patch[0], saved)
    lines = stderr.getvalue().splitlines()
    files = {
        str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }
    return {
        "exit": code,
        "traceback": traceback,
        "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        "files": files,
        "stderr_last": (lines[-1].replace(str(workdir), "$OUT").replace(str(root), "$TMP")
                        if lines else ""),
        "warnings": sorted({f"{w.category.__name__}: {w.message}" for w in caught}),
    }


def build_manifest() -> dict:
    matrices = _matrices()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs = root / "in"
        inputs.mkdir()
        for name, a in matrices.items():
            workloads.write_matrix_text(inputs / f"{name}.txt", a)
        for name, text in MALFORMED.items():
            (inputs / f"{name}.txt").write_text(text)
        manifest = {}
        for k, (name, argv, patch) in enumerate(_invocations(matrices)):
            workdir = root / f"run{k}"
            workdir.mkdir()
            real = [a.format(**{"in": inputs, "out": workdir}) for a in argv]
            entry = _run(real, patch, workdir, root)
            entry["argv"] = argv
            manifest[name] = entry
    return manifest


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/cli_manifest.py OUT.json", file=sys.stderr)
        return 1
    manifest = build_manifest()
    Path(args[0]).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
