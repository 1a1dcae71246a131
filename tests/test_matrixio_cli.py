import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from saddlepass import cli, matrixio
from saddlepass.errors import PreconditionError

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
