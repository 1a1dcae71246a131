"""Tests of the benchmark itself: its checkers reject wrong answers, its
tracer reconciles and repeats exactly, and it refuses to run without sources.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import saddlepass as sp  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def bidiag5_result():
    a = workloads.bidiagonal_5x5()
    return a, sp.wilkinson_distance(a)


def _moved(a, result, dz):
    z = result.coalescence_point + dz
    return dataclasses.replace(
        result,
        coalescence_point=z,
        epsilon_bar_estimate=checks.sigma_min(a - z * np.eye(a.shape[0])),
        perturbation=sp.nearest_defective_perturbation(a, z),
    )


def test_wilkinson_check_accepts_the_paper_5x5(bidiag5_result):
    a, r = bidiag5_result
    v = checks.check_wilkinson(a, r, reference=workloads.BIDIAG_5X5_EPS)
    assert v.failures == [] and v.wrong == []


def test_wilkinson_check_rejects_a_point_moved_off_the_saddle(bidiag5_result):
    a, r = bidiag5_result
    v = checks.check_wilkinson(a, _moved(a, r, 1e-3), reference=workloads.BIDIAG_5X5_EPS)
    assert "malyshev_gap" in v.wrong and "reference" in v.wrong


def test_wilkinson_check_rejects_an_epsilon_that_is_not_sigma_min(bidiag5_result):
    a, r = bidiag5_result
    v = checks.check_wilkinson(
        a, dataclasses.replace(r, epsilon_bar_estimate=1.01 * r.epsilon_bar_estimate))
    assert "sigma_mismatch" in v.wrong and "perturbation_norm" in v.wrong


def test_wilkinson_check_rejects_a_perturbation_that_misses_z_star(bidiag5_result):
    a, r = bidiag5_result
    bad = dataclasses.replace(r, perturbation=r.perturbation * 1j)
    assert "not_eigenvalue" in checks.check_wilkinson(a, bad).wrong


def test_unconverged_result_is_a_failure_not_a_wrong_answer(bidiag5_result):
    a, r = bidiag5_result
    v = checks.check_wilkinson(a, dataclasses.replace(_moved(a, r, 1e-3), converged=False))
    assert v.failures[0] == "unconverged" and "malyshev_gap" in v.failures
    assert v.wrong == []


def test_reference_check_rejects_the_10x10_heuristic_pair():
    a = workloads.bidiagonal_10x10()
    v = checks.check_wilkinson(a, sp.wilkinson_distance(a), workloads.BIDIAG_10X10_EPS)
    assert "reference" in v.failures


def test_malyshev_bound_is_an_upper_bound_that_is_tight_at_coalescence(bidiag5_result):
    a, r = bidiag5_result
    z = r.coalescence_point + 0.01
    assert checks.malyshev_bound(a, z) > checks.sigma_min(a - z * np.eye(5))
    m = checks.malyshev_bound(a, r.coalescence_point)
    assert abs(m - r.epsilon_bar_estimate) <= 1e-9 * r.epsilon_bar_estimate


def test_bisection_check_accepts_a_bracket_and_rejects_one_that_misses():
    prob = sp.get_problem("double-well-curve")
    opts = sp.BisectionOptions()
    state = sp.bisect(prob, opts=opts)
    known = prob.known_saddle[1]
    assert checks.check_bisection(state, opts.value_tol, known).failures == []
    missed = dataclasses.replace(state, lower=state.lower + 1e-5, upper=state.upper + 1e-5)
    assert checks.check_bisection(missed, opts.value_tol, known).wrong == ["bracket"]
    wide = dataclasses.replace(state, upper=state.upper + 1e-5)
    assert checks.check_bisection(wide, opts.value_tol, known).wrong == ["width"]
    inverted = dataclasses.replace(state, lower=state.upper, upper=state.lower)
    assert "order" in checks.check_bisection(inverted, opts.value_tol).wrong


@pytest.fixture(scope="module")
def small_psgrid(tmp_path_factory):
    import saddlepass.cli as cli

    d = tmp_path_factory.mktemp("psgrid")
    a = workloads.random_matrix(np.random.default_rng(3), 6)
    workloads.write_matrix_text(d / "a.txt", a)
    rc = cli.main(["psgrid", "--matrix", str(d / "a.txt"), "--grid", "12", "9",
                   "--out", str(d / "g.csv")])
    return a, rc, (d / "g.csv").read_text()


def test_psgrid_check_accepts_the_cli_output(small_psgrid):
    a, rc, text = small_psgrid
    v = checks.check_psgrid(a, rc, text, 12, 9, np.random.default_rng(0))
    assert v.failures == []


def test_psgrid_check_rejects_corrupted_values_and_coordinates(small_psgrid):
    a, rc, text = small_psgrid
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    off = [f"{x},{y},{float(s) * (1 + 1e-9)!r}" for x, y, s in rows]
    v = checks.check_psgrid(a, rc, "\n".join(lines[:1] + off), 12, 9, np.random.default_rng(0))
    assert v.wrong == ["sigma_value"]
    moved = [f"{float(x) + 1e-3!r},{y},{s}" for x, y, s in rows]
    v = checks.check_psgrid(a, rc, "\n".join(lines[:1] + moved), 12, 9, np.random.default_rng(0))
    assert v.wrong == ["grid_coords"]
    assert checks.check_psgrid(a, rc, text, 9, 12, np.random.default_rng(0)).wrong


def _traced_counts(cases, fields):
    with tracer.Tracer() as tr:
        tr.begin_pass(fields)
        for case in cases:
            case.solve()
        counts, self_ms = tr.end_pass()
    return counts, self_ms


def test_traced_counts_reconcile_and_repeat_exactly(tmp_path):
    pair = workloads.pair_scan(0, tmp_path)
    grid = workloads.grid_bisect(0, tmp_path)
    ps = workloads.psgrid(0, tmp_path)
    cases = [pair.cases[0], grid.cases[1], ps.cases[0]]
    def patched():
        return (np.linalg.svd, sp.run_local, sp.wilkinson.run_local,
                sp.fields.ScalarField.__init__)

    originals = patched()
    first, self_ms = _traced_counts(cases, grid.fields)
    second, _ = _traced_counts(cases, grid.fields)
    assert first == second
    assert tracer.reconcile(first) == []
    assert first["linalg.byers"] > 0 and first["bisection"] == 1 and first["cli"] == 1
    assert first["fields.evals"] > 0 and first["linalg.svd.matrices"] > 40000
    assert all(ms >= 0.0 for ms in self_ms.values())
    assert patched() == originals


def test_reconcile_flags_an_eigensolve_the_tracer_cannot_attribute():
    with tracer.Tracer() as tr:
        tr.begin_pass()
        sp.eigenvalues(np.eye(3))
        np.linalg.eigvals(np.eye(3))  # as if a by-value import had escaped patching
        counts, _ = tr.end_pass()
    assert tracer.reconcile(counts) == ["eigvals calls 2 != byers + eigenvalues() 1"]


def test_workload_seconds_counts_every_input_at_its_median_solve():
    # A slow input moves the figure by all its time: nothing averages it away.
    times = [[0.3, 0.2, 0.1], [0.25, 0.5, 0.4], [2.0, 5.0, 4.0]]
    assert worker.workload_seconds(times) == pytest.approx(4.6)


def test_solves_are_scaled_by_the_kernel_runs_on_either_side():
    ref = speed.REFERENCE_S
    timeline = worker.Timeline()
    timeline.solves = [(0, 1.0), (1, 3.0)]
    # The host ran at half speed around the first solve, then at full speed.
    timeline.kernels = [2 * ref, 2 * ref, ref]
    assert timeline.per_input(2) == [[pytest.approx(0.5)], [pytest.approx(3.0 / 1.5)]]
    assert timeline.per_input(2, scaled=False) == [[1.0], [3.0]]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.LAYER_METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "workload_s", "solve_ms_p50", "peak_rss_mb"}
    assert set(run.WORKLOADS) == set(workloads.BUILDERS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pair-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
