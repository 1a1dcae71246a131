import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from saddlepass import WilkinsonOptions, cli, matrixio, wilkinson_distance
from saddlepass.errors import BoundaryHitError, PreconditionError, ResolutionLimitError

from conftest import BIDIAG_5X5_EPS, bidiagonal_5x5


# ---------------------------------------------------------------- matrixio

def test_text_roundtrip_complex_tokens(tmp_path, ex_bidiag5):
    path = tmp_path / "m.txt"
    matrixio.write_matrix(path, ex_bidiag5)
    assert np.array_equal(matrixio.read_matrix(path), ex_bidiag5)


def test_text_re_im_pairs(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n1.0 0.5 0 0\n0 0 2.0 -0.25\n")
    got = matrixio.read_matrix(path)
    assert np.array_equal(got, np.array([[1 + 0.5j, 0], [0, 2 - 0.25j]]))


def test_json_matrix_form(tmp_path):
    path = tmp_path / "m.json"
    obj = {"n": 2, "re": [[0.0, 1.0], [0.0, 2.0]], "im": [[1.0, 0.0], [0.0, -1.0]]}
    path.write_text(json.dumps(obj))
    got = matrixio.read_matrix(path)
    assert np.array_equal(got, np.array([[1j, 1.0], [0.0, 2.0 - 1j]]))


@pytest.mark.parametrize(
    "text",
    [
        "",                      # empty
        "x\n1 2\n3 4\n",         # bad size line
        "2\n1 2 3\n4 5 6\n",     # wrong token count
        "2\n1 zz\n3 4\n",        # bad token
        "3\n1 2 3\n4 5 6\n",     # missing row
        '{"n": 2, "re": [[1]]}', # missing JSON key
        "2\nnan 0\n0 1\n",       # NaN entry
        "2\n1 0 inf 0\n0 0 1 0\n", # infinite real part in a re/im pair row
        '{"n": null, "re": [[1]], "im": [[0]]}',  # JSON size not a number
        '{"n": [1], "re": [[1]], "im": [[0]]}',   # JSON size a list
        '{"n": 1.7, "re": [[1]], "im": [[0]]}',   # JSON size not an integer
        "2\n1 0\n0 2\n5 5\n",    # a row after row n
        '{"n": 1, "re": {}, "im": [[0]]}',        # JSON part not an array
    ],
)
def test_malformed_matrix_files(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        matrixio.read_matrix(path)


def test_format_float_roundtrip():
    for v in (0.1, 1 / 3, 6.151109286142e-4, -2.0**-40):
        assert float(matrixio.format_float(v)) == v


# --------------------------------------------------------------------- cli

@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "bidiag5.txt"
    matrixio.write_matrix(path, bidiagonal_5x5())
    return path


def run_cli(args):
    return cli.main(list(args))


def test_cli_list_problems(tmp_path):
    out = tmp_path / "problems.txt"
    assert run_cli(["list-problems", "--out", str(out)]) == 0
    text = out.read_text()
    assert "quadratic-saddle" in text and "sqrt-cusp" in text


def test_cli_solve_local_problem_single_row(tmp_path):
    out = tmp_path / "rows.csv"
    rc = run_cli(["solve-local", "--problem", "quadratic-saddle", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,f_x,M,gap_ratio,dist"
    assert len(lines) == 2
    f_x = float(lines[1].split(",")[1])
    assert abs(f_x) <= 1e-12


def test_cli_solve_local_matrix_reproduces_reference_value(tmp_path, matrix_file):
    out = tmp_path / "rows.csv"
    rc = run_cli(["solve-local", "--matrix", str(matrix_file), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert 3 <= len(lines) - 1 <= 5
    last_fx = float(lines[-1].split(",")[1])
    assert abs(last_fx - BIDIAG_5X5_EPS) <= 1e-9 * BIDIAG_5X5_EPS


def test_cli_solve_local_unknown_problem():
    assert run_cli(["solve-local", "--problem", "nope"]) == 1


def test_cli_solve_local_malformed_matrix(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 zz\n3 4\n")
    out = tmp_path / "never.csv"
    rc = run_cli(["solve-local", "--matrix", str(bad), "--out", str(out)])
    assert rc == 1
    assert not out.exists()  # no partial output file


def test_cli_solve_bisect_halving_column(tmp_path):
    out = tmp_path / "rows.csv"
    rc = run_cli(["solve-bisect", "--problem", "quadratic-saddle",
                  "--tol-gap", "1e-3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "i,lower,upper,dist"
    gaps = [float(l.split(",")[2]) - float(l.split(",")[1]) for l in lines[1:]]
    for a, b in zip(gaps[:-1], gaps[1:]):
        assert b == 0.5 * a


def test_cli_solve_bisect_double_well_brackets_zero(tmp_path):
    out = tmp_path / "rows.csv"
    rc = run_cli(["solve-bisect", "--problem", "double-well-curve",
                  "--tol-gap", "1e-4", "--out", str(out)])
    assert rc == 0
    last = out.read_text().strip().splitlines()[-1].split(",")
    assert float(last[1]) <= 0.0 <= float(last[2])


def test_cli_solve_bisect_json_rows_equal_csv_rows(tmp_path):
    argv = ["solve-bisect", "--problem", "double-well-curve", "--tol-gap", "1e-4"]
    csv_out, json_out = tmp_path / "rows.csv", tmp_path / "rows.json"
    assert run_cli(argv + ["--out", str(csv_out)]) == 0
    assert run_cli(argv + ["--format", "json", "--out", str(json_out)]) == 0
    obj = json.loads(json_out.read_text())
    assert obj["problem"] == "double-well-curve" and obj["converged"] is True
    csv_rows = [l.split(",") for l in csv_out.read_text().strip().splitlines()[1:]]
    assert len(obj["rows"]) == len(csv_rows) > 0
    for row, (i, lo, up, d) in zip(obj["rows"], csv_rows):
        assert row == {"i": int(i), "lower": float(lo), "upper": float(up), "dist": float(d)}


def test_cli_solve_bisect_wrong_dimension():
    assert run_cli(["solve-bisect", "--problem", "sqrt-cusp"]) == 1
    assert run_cli(["solve-bisect", "--problem", "plateau"]) == 1


def test_cli_wilkinson_json(tmp_path, matrix_file):
    out = tmp_path / "result.json"
    rc = run_cli(["wilkinson", "--matrix", str(matrix_file), "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert abs(obj["epsilon_bar"] - BIDIAG_5X5_EPS) <= 1e-9 * BIDIAG_5X5_EPS
    assert {"pair", "z_star", "records", "converged"} <= set(obj)


def test_cli_wilkinson_exhaustive_pair_scan(tmp_path, matrix_file, ex_bidiag5):
    out = tmp_path / "result.json"
    rc = run_cli(["wilkinson", "--matrix", str(matrix_file), "--exhaustive", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    scan = obj["pair_scan"]
    assert len(scan) == 10
    eigs = set(np.linalg.eigvals(ex_bidiag5).round(12))
    seen = set()
    for e in scan:
        assert set(e) == {"pair", "epsilon", "converged"}
        assert [len(p) for p in e["pair"]] == [2, 2]
        pair = tuple(complex(re, im) for re, im in e["pair"])
        assert {np.round(z, 12) for z in pair} <= eigs
        seen.add(frozenset(pair))
        if e["converged"]:
            assert obj["epsilon_bar"] <= e["epsilon"]
    assert len(seen) == 10
    # Pairs the scan skipped show as unsolved: no epsilon, not converged.
    res = wilkinson_distance(ex_bidiag5, WilkinsonOptions(exhaustive=True))
    skipped = [k for k, e in enumerate(res.pair_scan) if (e["error"] or "").startswith("skipped")]
    assert len(skipped) == 9
    for k in skipped:
        assert scan[k]["epsilon"] is None and scan[k]["converged"] is False


def test_cli_wilkinson_degenerate_spectrum_exit_zero(tmp_path):
    path = tmp_path / "deg.txt"
    matrixio.write_matrix(path, np.diag([1.0, 1.0, 3.0]).astype(complex))
    out = tmp_path / "result.json"
    rc = run_cli(["wilkinson", "--matrix", str(path), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["epsilon_bar"] == 0.0


def test_cli_wilkinson_perturbation_file(tmp_path, matrix_file):
    out = tmp_path / "result.json"
    pert = tmp_path / "pert.txt"
    rc = run_cli(["wilkinson", "--matrix", str(matrix_file), "--out", str(out),
                  "--perturbation-out", str(pert)])
    assert rc == 0
    e = matrixio.read_matrix(pert)
    eps = json.loads(out.read_text())["epsilon_bar"]
    assert abs(np.linalg.norm(e, 2) - eps) <= 1e-10 * (1.0 + eps)


@pytest.mark.parametrize("missing", ["perturbation-out", "out"])
def test_cli_failed_wilkinson_writes_no_file(tmp_path, capsys, matrix_file, missing):
    # Either output in a missing directory fails the run (exit 1), and the
    # other output is not left behind.
    paths = {"out": tmp_path / "result.json", "perturbation-out": tmp_path / "pert.txt"}
    paths[missing] = tmp_path / "nodir" / paths[missing].name
    rc = run_cli(["wilkinson", "--matrix", str(matrix_file), "--out", str(paths["out"]),
                  "--perturbation-out", str(paths["perturbation-out"])])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bidiag5.txt"]


@pytest.mark.parametrize("command", ["wilkinson", "solve-local"])
def test_cli_solver_precondition_failure_is_numerical(tmp_path, matrix_file, monkeypatch,
                                                      command):
    # A valid matrix on which the solver fails is a numerical failure (3),
    # not an input error (1).
    def fail(*args, **kwargs):
        raise PreconditionError("local iteration produced no records")

    monkeypatch.setattr(cli, "wilkinson_distance", fail)
    out = tmp_path / "never.out"
    rc = run_cli([command, "--matrix", str(matrix_file), "--out", str(out)])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [("wilkinson", []), ("solve-local", []), ("psgrid", ["--grid", "3", "3"])],
    ids=["wilkinson", "solve-local", "psgrid"],
)
def test_cli_non_finite_matrix_is_input_error(tmp_path, capsys, command, extra):
    # A NaN entry is an input error (1) reported as "error: ...", not a
    # traceback from the solver; psgrid runs without --box.
    bad = tmp_path / "nan.txt"
    bad.write_text("2\n1 nan\n0 2\n")
    out = tmp_path / "never.out"
    rc = run_cli([command, "--matrix", str(bad), *extra, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: matrix has non-finite entries\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-local", "--problem", "quadratic-saddle", "--tol-gap", "-1"],
         "gap_tol must be a finite positive number, got -1.0"),
        (["wilkinson", "--tol-point", "0"], "point_tol must be a finite positive number, got 0.0"),
        (["solve-bisect", "--problem", "quadratic-saddle", "--max-iter", "0"],
         "max_iter must be at least 1"),
        # An infinite tolerance would stop the run at once and report convergence.
        (["solve-local", "--problem", "double-well-curve", "--tol-gap", "inf"],
         "gap_tol must be a finite positive number, got inf"),
        (["solve-local", "--problem", "double-well-curve", "--tol-point", "inf"],
         "point_tol must be a finite positive number, got inf"),
        (["solve-bisect", "--problem", "double-well-curve", "--tol-gap", "inf"],
         "value_tol must be a finite positive number, got inf"),
        (["solve-bisect", "--problem", "double-well-curve", "--tol-point", "inf"],
         "point_tol must be a finite positive number, got inf"),
    ],
    ids=["solve-local-tol-gap", "wilkinson-tol-point", "solve-bisect-max-iter",
         "solve-local-tol-gap-inf", "solve-local-tol-point-inf",
         "solve-bisect-tol-gap-inf", "solve-bisect-tol-point-inf"],
)
def test_cli_bad_option_value_is_input_error(tmp_path, capsys, matrix_file, argv, message):
    # An option the solver options reject is an input error (1) reported as
    # "error: ...", not a ValueError traceback.
    if argv[0] == "wilkinson":
        argv = [*argv, "--matrix", str(matrix_file)]
    out = tmp_path / "never.out"
    rc = run_cli([*argv, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _fail_with(err):
    def fail(*args, **kwargs):
        raise err

    return fail


# One row per failure class: argv ({m} is the 5x5 matrix file, {one} a 1x1
# matrix file, {tmp} the test's directory), the cli attribute replaced by a
# solver that raises (or None), the exit code, and the line that reports it,
# which is the whole of stderr (argparse puts its usage line before it).
# Cases that other tests in this file pin are not repeated here.
EXIT_CODE_TABLE = [
    pytest.param(["wilkinson"], None, 1,
                 "saddlepass wilkinson: error: the following arguments are required: "
                 "--matrix", id="usage-missing-matrix"),
    pytest.param(["wilkinson", "--matrix", "{m}", "--format", "xml"], None, 1,
                 "saddlepass wilkinson: error: argument --format: invalid choice: 'xml'",
                 id="usage-bad-format"),
    pytest.param(["bogus"], None, 1,
                 "saddlepass: error: argument command: invalid choice: 'bogus'",
                 id="usage-unknown-subcommand"),
    pytest.param(["psgrid", "--matrix", "{m}", "--grid", "3"], None, 1,
                 "saddlepass psgrid: error: argument --grid: expected 2 arguments",
                 id="usage-grid-one-value"),
    pytest.param(["solve-bisect", "--matrix", "{m}"], None, 1,
                 "error: solve-bisect requires --problem", id="usage-bisect-matrix"),
    pytest.param(["solve-bisect", "--problem", "quadratic-saddle", "--step1a"], None, 1,
                 "saddlepass: error: unrecognized arguments: --step1a",
                 id="usage-bisect-step1a"),
    pytest.param(["wilkinson", "--matrix", "{m}", "--format", "csv"], None, 1,
                 "error: wilkinson emits JSON; use --format json", id="usage-wilkinson-csv"),
    pytest.param(["psgrid", "--matrix", "{m}", "--box", "0", "0", "1", "inf"], None, 1,
                 "error: invalid box (0.0, 0.0, 1.0, inf)", id="psgrid-infinite-box"),
    pytest.param(["wilkinson", "--help"], None, 0, "", id="help"),
    pytest.param(["solve-bisect", "--problem", "nope"], None, 1,
                 "error: \"unknown problem 'nope'; known: ", id="unknown-problem"),
    pytest.param(["psgrid", "--matrix", "{tmp}/missing.txt"], None, 1,
                 "error: [Errno 2] No such file or directory: '{tmp}/missing.txt'",
                 id="missing-file"),
    pytest.param(["wilkinson", "--matrix", "{one}"], None, 1,
                 "error: need at least 2 distinct spectrum points", id="wilkinson-1x1"),
    pytest.param(["solve-local", "--matrix", "{one}"], None, 1,
                 "error: need at least 2 distinct spectrum points", id="solve-local-1x1"),
    pytest.param(["solve-local", "--problem", "quadratic-saddle",
                  "--out", "{tmp}/nodir/rows.csv"], None, 1,
                 "error: [Errno 2] No such file or directory: '{tmp}/nodir/rows.csv'",
                 id="out-missing-dir"),
    pytest.param(["wilkinson", "--matrix", "{m}", "--out", "{tmp}/result.json",
                  "--perturbation-out", "{tmp}/nodir/pert.txt"], None, 1,
                 "error: [Errno 2] No such file or directory: '{tmp}/nodir/pert.txt'",
                 id="perturbation-out-missing-dir"),
    pytest.param(["solve-local", "--problem", "quadratic-saddle"],
                 ("run_local", PreconditionError("no feasible start")), 3,
                 "numerical failure: no feasible start", id="precondition"),
    pytest.param(["solve-bisect", "--problem", "quadratic-saddle"],
                 ("bisect", ResolutionLimitError("grid too coarse")), 3,
                 "numerical failure: grid too coarse", id="resolution-limit"),
    pytest.param(["wilkinson", "--matrix", "{m}"],
                 ("wilkinson_distance", BoundaryHitError([0.0, 0.0])), 3,
                 "numerical failure: minimizer reached the region boundary",
                 id="boundary-hit"),
    pytest.param(["psgrid", "--matrix", "{m}"],
                 ("pseudospectrum_grid", np.linalg.LinAlgError("SVD did not converge")), 3,
                 "numerical failure: SVD did not converge", id="linalg"),
    pytest.param(["solve-local", "--problem", "double-well-curve", "--max-iter", "1"],
                 None, 2, "", id="not-converged"),
]


@pytest.mark.parametrize("argv, patch, code, line", EXIT_CODE_TABLE)
def test_cli_exit_code_table(tmp_path, capsys, monkeypatch, matrix_file,
                             argv, patch, code, line):
    one = tmp_path / "one.txt"
    matrixio.write_matrix(one, np.array([[2.0 + 1.0j]]))
    names = {"m": matrix_file, "one": one, "tmp": tmp_path}
    if patch is not None:
        monkeypatch.setattr(cli, patch[0], _fail_with(patch[1]))
    try:
        rc = run_cli(a.format(**names) for a in argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    lines = capsys.readouterr().err.splitlines() or [""]
    assert lines[-1].startswith(line.format(**names))
    assert len(lines) == 1 or lines[0].startswith("usage: saddlepass")


def test_cli_psgrid(tmp_path):
    path = tmp_path / "zero.txt"
    matrixio.write_matrix(path, np.zeros((1, 1), dtype=complex))
    out = tmp_path / "grid.csv"
    rc = run_cli(["psgrid", "--matrix", str(path), "--grid", "3", "3",
                  "--box", "-1", "-1", "1", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,sigma"
    assert len(lines) == 10
    rows = [l.split(",") for l in lines[1:]]
    center = [r for r in rows if r[0] == "0" and r[1] == "0"]
    assert center and float(center[0][2]) == 0.0
    corner = [r for r in rows if r[0] == "-1" and r[1] == "-1"]
    assert corner and abs(float(corner[0][2]) - np.sqrt(2)) <= 1e-12


def test_cli_module_entrypoint(tmp_path):
    # Put this checkout's src first on the child's path (an inherited
    # relative PYTHONPATH would not resolve from tmp_path) and run the child
    # outside the repo, so the test holds wherever pytest is started.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "saddlepass", "list-problems"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "quadratic-saddle" in proc.stdout


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_output_deterministic(tmp_path, matrix_file, fmt):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    args = ["solve-local", "--matrix", str(matrix_file), "--format", fmt]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
