"""The output gate: the recorder ``tools/result_fingerprints.py`` (the inputs
of each run, one recorded Wilkinson result, the LAPACK counts and the field
work), and the drift summary, LAPACK and field rows and changed CLI rows of
``tools/compare_outputs.py``."""

import dataclasses
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import saddlepass as sp

TOOL = Path(__file__).resolve().parents[1] / "tools" / "result_fingerprints.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("result_fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_run_lists_its_inputs(tool, tmp_path):
    names = {key: [case.name for case in build(tmp_path)] for key, build in tool.RUNS.items()}
    random = [key for key in names if key.startswith("voronoi-random/")]
    assert len(random) == 25 and sum(len(names[key]) for key in random) == 1200
    assert all(names[key] == names["voronoi-random/seed0"] for key in random)
    assert names["pair-scan/seed0"] == ["bidiag5", "bidiag10"]
    assert len(names["grid-bisect/seed0"]) == 5
    assert names["unscaled"] == [f"n{n}-s{s}" for n in (10, 16, 24) for s in range(24)]
    assert names["real"] == [f"n{n}-s{s}" for n in (12, 20, 28) for s in range(16)]
    assert names["diag"] == ["diag(0,2,5j)"]
    assert names["structured"] == [
        "bidiag5", "bidiag10", "grcar12", "grcar20", "kahan10", "kahan16", "companion8",
        "jordan8", "triu12-s3", "triu20-s4",
    ]
    families = ("unscaled", "real", "structured")
    assert names["exhaustive"] == [f"{f}/{name}" for f in families for name in names[f]]
    assert len(names["exhaustive"]) == 130


def test_the_exhaustive_run_scans_every_pair(tool, tmp_path):
    case = next(c for c in tool.RUNS["exhaustive"](tmp_path) if c.name == "structured/bidiag5")
    assert len(case.solve().pair_scan) == 10
    (default,) = [c for c in tool.RUNS["structured"](tmp_path) if c.name == "bidiag5"]
    assert default.solve().pair_scan is None


def test_a_converged_wilkinson_record_has_its_gap(tool, tmp_path):
    (case,) = tool.RUNS["diag"](tmp_path)
    entry = tool.record(case)
    assert entry["converged"] and entry["failures"] == [] and entry["wrong"] == []
    assert isinstance(entry["stop_reason"], str)
    assert 0.0 <= entry["gap"] <= 1e-12
    summary = tool.summarize([entry, {"raised": "BoundaryHitError: boundary"}])
    assert summary == {"inputs": 2, "converged": 1, "unconverged": 0, "raised": 1, "wrong": 0,
                       "failed": 1, "max_gap": entry["gap"]}


def test_lapack_counts_cover_only_the_solve(tool, tmp_path):
    (case,) = tool.RUNS["diag"](tmp_path)
    stack = np.ones((3, 2, 2))

    def solve():
        np.linalg.svd(stack, compute_uv=False)
        np.linalg.eigvals(stack[0])
        return case.solve()

    def check(out):
        np.linalg.svd(stack, compute_uv=False)
        np.linalg.eigvals(stack[0])
        return case.check(out)

    plain, extra = Counter(), Counter()
    entry = tool.record(case, plain)
    assert tool.record(dataclasses.replace(case, solve=solve, check=check), extra) == entry
    assert plain["eigvals"] > 0 and plain["svd"] > 0 and plain["svd mats"] >= plain["svd"]
    assert extra - plain == Counter({"eigvals": 1, "svd": 1, "svd mats": 3})
    assert "counted" not in np.linalg.svd.__name__  # restored after the solve


def test_field_work_counts_cover_only_the_solve(tool, tmp_path):
    # A call of the field itself counts as a value call; the check's field
    # work is not counted, and the class is restored after the solve.
    (case,) = tool.RUNS["diag"](tmp_path)
    field = sp.ScalarField(2, lambda x: float(x @ x), lambda x: 2.0 * x,
                           batch_evaluate=lambda p: np.sum(p * p, axis=1))
    methods = (sp.ScalarField.value, sp.ScalarField.value_many, sp.ScalarField.grad,
               sp.ScalarField.__call__)

    def work():
        x = np.ones(2)
        field.value(x)
        field(x)
        field.value_many(np.ones((5, 2)))
        field.grad(x)

    def solve():
        work()
        return case.solve()

    def check(out):
        work()
        return case.check(out)

    plain, extra = Counter(), Counter()
    entry = tool.record(case, plain)
    assert tool.record(dataclasses.replace(case, solve=solve, check=check), extra) == entry
    assert extra - plain == Counter({"value": 2, "value_many points": 5, "grad": 1})
    assert (sp.ScalarField.value, sp.ScalarField.value_many, sp.ScalarField.grad,
            sp.ScalarField.__call__) == methods


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL.parent / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lapack_counts_go_beside_the_json_and_not_into_it(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(tool, "RUNS", {"diag": tool.RUNS["diag"]})
    out = tmp_path / "out.json"
    assert tool.main([str(out)]) == 0
    assert set(json.loads(out.read_text())) == {"runs", "inputs"}
    counts = json.loads((tmp_path / "out.lapack.json").read_text())
    assert list(counts) == ["diag"]
    assert list(counts["diag"]) == ["eigvals", "svd", "svd mats",
                                    "value", "value_many points", "grad"]
    assert all(counts["diag"][k] > 0 for k in ("eigvals", "svd", "svd mats", "value"))


def test_lapack_rows_show_each_run_as_parent_to_change(compare):
    parent = {"a": {"eigvals": 790, "svd": 6688, "svd mats": 23959},
              "b": {"eigvals": 7, "svd": 34, "svd mats": 55}}
    change = {"a": {"eigvals": 701, "svd": 6695, "svd mats": 23966},
              "b": {"eigvals": 7, "svd": 33, "svd mats": 54}}
    header, *rows = compare.lapack_rows(parent, change)
    assert header.split() == ["lapack", "eigvals", "svd", "svd", "mats"]
    assert [row.split() for row in rows] == [
        ["a", "790", "->", "701", "6688", "->", "6695", "23959", "->", "23966"],
        ["b", "7", "->", "7", "34", "->", "33", "55", "->", "54"],
    ]


def test_field_rows_show_each_run_as_parent_to_change(compare):
    parent = {"g": {"eigvals": 0, "svd": 10323, "svd mats": 83214,
                    "value": 5532, "value_many points": 90000, "grad": 2901}}
    change = {"g": {"eigvals": 0, "svd": 928, "svd mats": 19419,
                    "value": 391, "value_many points": 30000, "grad": 653}}
    header, row = compare.field_rows(parent, change)
    assert header.split() == ["fields", "value", "value_many", "points", "grad"]
    assert row.split() == ["g", "5532", "->", "391", "90000", "->", "30000", "2901", "->", "653"]


def test_manifest_rows_name_each_changed_row_with_its_exit_codes_and_moved_fields(compare):
    def row(exit=0, stdout="s", files=None, stderr=""):
        return {"exit": exit, "traceback": False, "stdout_sha256": stdout,
                "files": files or {}, "stderr_last": stderr, "warnings": [], "argv": ["x"]}

    parent = {"same": row(), "out": row(stdout="a"), "exit": row(exit=2, stderr="e"),
              "file": row(files={"f.csv": "1"}), "gone": row()}
    change = {"same": row(), "out": row(stdout="b"), "exit": row(exit=0, stdout="c"),
              "file": row(files={"f.csv": "2"}), "new": row()}
    assert compare.manifest_rows(parent, change) == [
        "cli rows changed: 5",
        "  exit: exit 2 -> 0, moved stdout, stderr",
        "  file: exit 0 -> 0, moved files",
        "  gone: only in parent",
        "  new: only in change",
        "  out: exit 0 -> 0, moved stdout",
    ]
    assert compare.manifest_rows(parent, parent) == ["cli rows changed: 0"]


def test_drift_counts_changed_and_conjugate_inputs_and_the_largest_eps_change(tool, compare):

    def entry(eps, z, pair, records=3, stop="point_tol", sha="a"):
        return {"fingerprint": repr(tool._canon((eps, z, True, records))),
                "pair": repr(tool._canon(pair)), "converged": True, "stop_reason": stop,
                "output_sha256": sha}

    bisection = {"fingerprint": repr((0.5, 0.75, 9, "tol")), "converged": True,
                 "stop_reason": "tol", "output_sha256": "b"}
    upper = ((0.1 + 1.0j), (2.0 + 1.0j))
    lower = tuple(z.conjugate() for z in upper)
    parent = {"runs": {"r": {}, "g": {}}, "inputs": {
        "r/mirror": entry(1.0, 1.0 + 1.0j, upper),
        "r/records": entry(2.0, 3.0j, upper),
        "r/same": entry(4.0, 1.0j, upper),
        "r/scan": entry(6.0, 2.0j, upper),
        "r/raised": {"raised": "BoundaryHitError: boundary"},
        "g/bisect": bisection}}
    change = {"runs": {"r": {}, "g": {}}, "inputs": {
        "r/mirror": entry(1.0 + 1e-12, 1.0 - 1.0j, lower),
        "r/records": entry(2.0, 3.0j, upper, records=4),
        "r/same": entry(4.0 * (1 + 3e-9), 1.0j, upper),
        "r/scan": entry(6.0, 2.0j, upper, sha="c"),
        "r/raised": entry(5.0, 1.0j, upper),
        "g/bisect": dict(bisection, fingerprint=repr((0.5, 0.75 * (1 + 1e-10), 9, "tol")))}}
    d = compare.drift(parent, change)
    assert d["r"]["changed"] == ["r/mirror", "r/records", "r/raised"]
    assert d["r"]["mirrored"] == ["r/mirror"]
    # Only the digest of r/scan's records and pair scan changed.
    assert d["r"]["output_only"] == ["r/scan"]
    assert d["r"]["max_eps_rel"] == pytest.approx(3e-9)
    assert d["g"] == {"changed": [], "mirrored": [], "output_only": [],
                      "max_eps_rel": pytest.approx(1e-10)}
