import numpy as np
import pytest
from scipy.optimize import minimize as sp_minimize

from saddlepass import (
    Ball,
    LocalOptions,
    ScalarField,
    SigmaMinField,
    advance_along_segment,
    assemble_local_path,
    bisector_minimize,
    check_pair_optimality,
    equalize_endpoints,
    get_problem,
    make_quadratic_field,
    refine_closest_pair,
    run_local,
    segment_max,
)
from saddlepass import local_solver
from saddlepass.diagnostics import hessian_of
from saddlepass.errors import PreconditionError
from saddlepass.fields import _Line
from saddlepass.local_solver import _pair_kkt_polish, minimize_on_hyperplane

from conftest import perturbed_quadratic
from oracles import golden_minimize, scan_first_crossing, sublevel_runs

QS = get_problem("quadratic-saddle")


def linear_field():
    return ScalarField(
        2, lambda x: float(x[0]), lambda x: np.array([1.0, 0.0]),
        batch_evaluate=lambda p: p[:, 0].copy(), name="linear",
    )


# ---------------------------------------------------------------- equalize

def test_equalize_identity_when_equal():
    x, y = equalize_endpoints(QS.field, [0.0, -1.0], [0.0, 1.0])
    assert np.array_equal(x, [0.0, -1.0]) and np.array_equal(y, [0.0, 1.0])


def test_equalize_moves_lower_endpoint():
    x, y = equalize_endpoints(QS.field, [0.0, -2.0], [0.0, 1.0])
    assert np.allclose(x, [0.0, -1.0], atol=1e-12)
    fx, fy = QS.field.value(x), QS.field.value(y)
    assert abs(fx - fy) <= 1e-12 * (1.0 + abs(fy))


def test_equalize_crossing_matches_dense_scan():
    prob = get_problem("ps-fail-a")
    f = prob.field
    x0 = np.array([2.0, 0.5])   # f ~ -0.115
    y0 = np.array([0.0, 0.4])   # f = 0.84
    assert f.value(x0) < f.value(y0)
    x, y = equalize_endpoints(f, x0, y0)
    d = y0 - x0

    def phi(t):
        return f.value(x0 + t * d)

    t_oracle = scan_first_crossing(phi, f.value(y0))
    t_mine = float((x - x0) @ d / (d @ d))
    assert abs(t_mine - t_oracle) * np.linalg.norm(d) <= 1e-8


# ------------------------------------------------------- bisector minimize

def test_bisector_minimize_symmetric_quadratic():
    z, fz = bisector_minimize(QS.field, QS.region, [0.0, -1.0], [0.0, 1.0])
    assert np.linalg.norm(z) <= 1e-12
    assert abs(fz) <= 1e-24


def test_bisector_minimize_3d_quadratic():
    f = make_quadratic_field([2.0, 3.0, -1.0])
    z, fz = bisector_minimize(f, Ball((0, 0, 0), 4.0), [0, 0, -1.0], [0, 0, 1.0])
    assert np.linalg.norm(z) <= 1e-12


def test_bisector_minimize_tilted_matches_constrained_oracle():
    x = np.array([0.1, -1.0])
    y = np.array([-0.1, 1.0])
    z, fz = bisector_minimize(QS.field, QS.region, x, y)
    # Oracle: golden section along the arclength parameterization of the line.
    mid = 0.5 * (x + y)
    d = x - y
    u = np.array([d[1], -d[0]]) / np.linalg.norm(d)
    t_star, _ = golden_minimize(lambda t: QS.field.value(mid + t * u), -3.9, 3.9)
    z_oracle = mid + t_star * u
    assert np.linalg.norm(z - z_oracle) <= 1e-10
    assert abs(fz - QS.field.value(z_oracle)) <= 1e-10


def test_bisector_minimize_rejects_identical_points():
    with pytest.raises(ValueError):
        bisector_minimize(QS.field, QS.region, [0.0, 1.0], [0.0, 1.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: minimize_on_hyperplane(QS.field, QS.region, np.zeros(2), np.zeros(2)),
     ValueError, "normal must be nonzero"),
    # The chord through (1, 0) normal to (1, 0) is tangent to the unit ball.
    (lambda: minimize_on_hyperplane(QS.field, Ball((0, 0), 1), np.array([1.0, 0.0]),
                                    np.array([1.0, 0.0])),
     PreconditionError, "hyperplane does not meet the region"),
    (lambda: segment_max(QS.field, [0.0, 1.0], [0.0, 1.0]),
     ValueError, "segment endpoints must differ"),
], ids=["zero-normal", "tangent-chord", "segment-max-equal-endpoints"])
def test_segment_and_hyperplane_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# ----------------------------------------------------------------- advance

def test_advance_monotone_segment_returns_to_exactly():
    to = np.array([0.0, 0.0])
    p = advance_along_segment(QS.field, np.array([0.0, -1.0]), to, 0.0)
    assert np.array_equal(p, to)


def test_advance_without_a_segment_returns_a_copy_of_the_point():
    # frm == to leaves nothing to search: the field's advance_limit is not asked.
    f = linear_field()
    f.advance_limit = lambda *args: pytest.fail("advance_limit called")
    to = np.array([0.3, 0.0])
    p = advance_along_segment(f, to, to, 0.5)
    assert np.array_equal(p, to) and p is not to


def test_advance_linear_cap():
    p = advance_along_segment(linear_field(), [0.0, 0.0], [1.0, 0.0], 0.5)
    assert np.allclose(p, [0.5, 0.0], atol=1e-12)


def test_advance_precondition():
    with pytest.raises(PreconditionError):
        advance_along_segment(linear_field(), [0.9, 0.0], [1.0, 0.0], 0.5)


def test_advance_late_iterations_hit_minimizer_exactly():
    # On the perturbed quadratic, past the first iteration the advance returns
    # the bisector minimizer exactly for at least one endpoint; the dense-scan
    # oracle confirms the cap is respected along that whole segment.
    f = perturbed_quadratic()
    run = run_local(f, Ball((0, 0), 3.0), [0.3, -0.6], [-0.2, 0.55],
                    opts=LocalOptions(point_tol=1e-13, max_iter=10))
    assert len(run.records) >= 4
    prev = run.initial_pair
    for r in run.records:
        if r.index >= 2:
            assert np.array_equal(r.x, r.z) or np.array_equal(r.y, r.z)
        if np.array_equal(r.x, r.z):
            frm = prev[0]
            slack = 1e-12 * (1.0 + abs(r.f_z))
            ts = np.linspace(0, 1, 100_000)
            vals = f.value_many(frm[None, :] + ts[:, None] * (r.z - frm)[None, :])
            assert np.all(vals <= r.f_z + slack + 1e-13)
        prev = (r.x, r.y)


# ------------------------------------------------------------- segment max

def test_segment_max_quadratic_and_linear():
    m, arg = segment_max(QS.field, [0.0, -1.0], [0.0, 1.0])
    assert abs(m) <= 1e-12 and np.linalg.norm(arg) <= 1e-6
    m2, arg2 = segment_max(linear_field(), [0.0, 0.0], [1.0, 0.0])
    assert m2 == 1.0 and np.allclose(arg2, [1.0, 0.0])


def test_segment_max_first_iterate_brackets_coalescence_value(ex_bidiag5):
    # The first-iterate upper bound on the 5x5 bidiagonal problem: an upper
    # bound of the coalescence value, and already within 1% of it.  The exact
    # per-iteration number depends on the starting pair, so only bracketing
    # and magnitude are asserted.
    from conftest import BIDIAG_5X5_EPS
    from saddlepass import wilkinson_local

    res = wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    m1 = res.records[0].M
    assert m1 >= BIDIAG_5X5_EPS * (1 - 1e-9)
    assert m1 <= BIDIAG_5X5_EPS * 1.01


# ----------------------------------------------------- refine closest pair

def test_refine_fixed_point():
    x, y = refine_closest_pair(QS.field, QS.region, [0.0, -0.2], [0.0, 0.2], -0.04)
    assert np.allclose(x, [0.0, -0.2], atol=1e-12)
    assert np.allclose(y, [0.0, 0.2], atol=1e-12)


def test_refine_perturbed_pair_converges():
    x, y = refine_closest_pair(QS.field, QS.region, [0.05, -0.2], [-0.05, 0.2], -0.04)
    assert np.linalg.norm(x - [0.0, -0.2]) <= 1e-6
    assert np.linalg.norm(y - [0.0, 0.2]) <= 1e-6


def test_refine_output_satisfies_optimality_conditions():
    x, y = refine_closest_pair(QS.field, QS.region, [0.05, -0.2], [-0.05, 0.2], -0.04)
    rep = check_pair_optimality(QS.field, x, y, -0.04)
    assert rep.residual_x <= 1e-6 and rep.residual_y <= 1e-6
    assert rep.kappa1 >= 0 and rep.kappa2 >= 0


def test_refine_never_lengthens_the_pair():
    rng = np.random.default_rng(21)
    f = perturbed_quadratic()
    reg = Ball((0, 0), 3.0)
    for _ in range(5):
        b = rng.uniform(0.3, 0.6)
        a = rng.uniform(-0.1, 0.1)
        x0 = np.array([a, -b])
        y0 = np.array([-a, b])
        level = max(f.value(x0), f.value(y0)) + 1e-9
        x, y = refine_closest_pair(f, reg, x0, y0, level)
        assert np.linalg.norm(x - y) <= np.linalg.norm(x0 - y0) + 1e-12
        assert f.value(x) <= level + 1e-9 and f.value(y) <= level + 1e-9


def test_refine_returns_the_best_pair_it_saw(monkeypatch):
    # One closest-pair call of `bisect(get_problem("ps-fail-b"))`: the first
    # sweep gives the shortest pair, later sweeps and the polish wander off,
    # so the pair returned is the best one seen, not the last.
    prob = get_problem("ps-fail-b")
    x0 = np.array([2.8503509037762704, -0.3066180977565329])
    y0 = np.array([2.8503509037762704, 0.30342010305167255])
    seen = [float(np.linalg.norm(x0 - y0))]

    def record(fn):
        def wrapped(*args, **kwargs):
            pair = fn(*args, **kwargs)
            if pair is not None:
                seen.append(float(np.linalg.norm(pair[0] - pair[1])))
            return pair
        return wrapped

    for name in ("_segment_crossing_pair", "_pair_kkt_polish"):
        monkeypatch.setattr(local_solver, name, record(getattr(local_solver, name)))
    x, y = refine_closest_pair(prob.field, prob.region, x0, y0, -0.001953125)
    dist = float(np.linalg.norm(x - y))
    assert dist <= seen[0]
    assert dist == min(seen)
    assert seen[-1] > dist


def test_pair_kkt_polish_evaluates_each_gradient_once_per_step(monkeypatch):
    # Each Newton step of the closest-pair polish takes 2n gradients per
    # finite-difference Hessian and one gradient at each new point; the
    # gradients at the current pair come from the residual, not a recount.
    field = get_problem("quadratic-saddle").field
    n = field.dimension
    counts = []
    for steps in (0, 1):
        monkeypatch.setattr(local_solver, "_KKT_POLISH_STEPS", steps)
        before = field.grad_count
        _pair_kkt_polish(field, QS.region, np.array([0.05, -0.2]), np.array([-0.05, 0.2]),
                         -0.04)
        counts.append(field.grad_count - before)
    assert counts[0] == 2
    assert counts[1] - counts[0] == 4 * n + 2


def test_hyperplane_newton_polish_evaluates_the_field_once_per_step(monkeypatch):
    # After the quasi-Newton descent, each polish step evaluates the field at
    # its trial point; the value at the current point is kept, not recomputed.
    f0 = make_quadratic_field([2.0, 3.0, -1.0])
    field = ScalarField(
        3, lambda x: f0.value(x) + 0.1 * x[0] ** 3 + 0.05 * x[1] ** 4,
        lambda x: f0.grad(x) + np.array([0.3 * x[0] ** 2, 0.2 * x[1] ** 3, 0.0]),
    )
    marks = {}

    def descent(*args, **kwargs):
        res = sp_minimize(*args, **kwargs)
        marks["after_descent"] = field.eval_count
        return res

    def hessian(f, z):
        marks["steps"] = marks.get("steps", 0) + 1
        return hessian_of(f, z)

    monkeypatch.setattr(local_solver, "sp_minimize", descent)
    monkeypatch.setattr(local_solver, "hessian_of", hessian)
    minimize_on_hyperplane(field, Ball((0, 0, 0), 4.0), np.array([0.3, 0.2, 0.5]),
                           np.array([0.2, 0.1, 1.0]))
    polish_evals = field.eval_count - marks["after_descent"] - 1  # minus the returned value
    assert marks["steps"] >= 1
    assert 1 <= polish_evals <= marks["steps"] + 1


@pytest.mark.parametrize("seed", range(12))
def test_segment_crossing_pair_spans_the_first_and_last_sublevel_runs(seed):
    # A piecewise-linear field on [0, 1] with samples at -1 or +1: the pair
    # sits at the crossings that close the first run of samples <= 0 and open
    # the last one, or is None with fewer than two runs.
    ts = np.linspace(0.0, 1.0, local_solver._PAIR_SAMPLES + 1)
    p_below = (0.01, 0.5, 0.995)[seed % 3]
    vs = np.where(np.random.default_rng(seed).random(ts.size) < p_below, -1.0, 1.0)
    field = ScalarField(1, lambda x: float(np.interp(x[0], ts, vs)))
    got = local_solver._segment_crossing_pair(field, np.zeros(1), np.ones(1), 0.0, 1e-12)
    runs = sublevel_runs(vs, 0.0)
    if len(runs) < 2:
        assert got is None
        return
    end_x, start_y = runs[0][1], runs[-1][0]
    assert got[0][0] == pytest.approx(0.5 * (ts[end_x] + ts[end_x + 1]), abs=1e-12)
    assert got[1][0] == pytest.approx(0.5 * (ts[start_y - 1] + ts[start_y]), abs=1e-12)


# --------------------------------------------------------------- run_local

def test_run_local_one_step_on_pure_quadratic():
    run = run_local(QS.field, QS.region, [0.0, -1.0], [0.0, 1.0])
    assert run.converged and len(run.records) == 1
    assert np.linalg.norm(run.records[0].z) <= 1e-12


def test_run_local_values_nondecreasing_and_bracketing():
    f = perturbed_quadratic()
    run = run_local(f, Ball((0, 0), 3.0), [0.3, -0.6], [-0.2, 0.55],
                    opts=LocalOptions(point_tol=1e-13, max_iter=10))
    fxs = [f.value(run.initial_pair[0])] + [r.f_x for r in run.records]
    assert all(b >= a - 1e-14 for a, b in zip(fxs[:-1], fxs[1:]))
    for r in run.records:
        assert r.f_x <= r.f_z + 1e-12 * (1.0 + abs(r.f_z))
        assert r.f_z <= 0.0 + 1e-10          # critical value is 0
        assert r.M >= 0.0 - 1e-10
        assert r.f_z <= r.M + 1e-14


def test_run_local_pair_distance_nonincreasing():
    f = perturbed_quadratic()
    run = run_local(f, Ball((0, 0), 3.0), [0.3, -0.6], [-0.2, 0.55],
                    opts=LocalOptions(point_tol=1e-13, max_iter=10))
    dists = [float(np.linalg.norm(run.initial_pair[0] - run.initial_pair[1]))]
    dists += [r.dist for r in run.records]
    assert all(b <= a + 1e-10 for a, b in zip(dists[:-1], dists[1:]))


def test_run_local_superlinear_value_ratios():
    # Error ratios toward the known critical value shrink; the last observed
    # ratio is below half the first.
    f = perturbed_quadratic()
    run = run_local(f, Ball((0, 0), 3.0), [0.3, -0.6], [-0.2, 0.55],
                    opts=LocalOptions(point_tol=1e-13, max_iter=10))
    errs = [abs(r.f_x) for r in run.records if abs(r.f_x) > 1e-15]
    ratios = [b / a for a, b in zip(errs[:-1], errs[1:])]
    assert len(ratios) >= 3
    assert ratios[-1] < 0.5 * ratios[0]


def test_run_local_upper_bounds_eventually_beat_lower_bounds():
    f = perturbed_quadratic()
    run = run_local(f, Ball((0, 0), 3.0), [0.3, -0.6], [-0.2, 0.55],
                    opts=LocalOptions(point_tol=1e-13, max_iter=10))
    tail = run.records[-3:]
    assert all(abs(r.M - 0.0) <= abs(r.f_x - 0.0) + 1e-15 for r in tail)


def test_run_local_max_iter_flag():
    f = perturbed_quadratic()
    run = run_local(f, Ball((0, 0), 3.0), [0.3, -0.6], [-0.2, 0.55],
                    opts=LocalOptions(max_iter=2))
    assert not run.converged and run.stop_reason == "max_iter"
    assert len(run.records) == 2


@pytest.mark.parametrize("max_iter", [2, 3])
def test_run_local_refines_only_a_pair_the_last_iteration_left_in_place(monkeypatch, max_iter):
    # The double-well run's second iteration leaves the pair exactly where
    # the first put it, so a third iteration starts with one closest-pair
    # sweep; when the second is the last, the run stops at max_iter without
    # a sweep.
    calls = []

    def refine(*args, **kwargs):
        calls.append(args)
        return refine_closest_pair(*args, **kwargs)

    monkeypatch.setattr(local_solver, "refine_closest_pair", refine)
    prob = get_problem("double-well-curve")
    run = run_local(prob.field, prob.region, *prob.endpoints,
                    opts=LocalOptions(max_iter=max_iter))
    first, second = run.records[:2]
    assert np.array_equal(second.x, first.x) and np.array_equal(second.y, first.y)
    assert len(calls) == max_iter - 2
    assert len(run.records) == max_iter
    assert run.stop_reason == ("max_iter" if max_iter == 2 else "point_tol")


def test_run_local_one_dimensional_cusp():
    prob = get_problem("sqrt-cusp")
    run = run_local(prob.field, prob.region, *prob.endpoints)
    assert run.converged
    assert abs(run.records[-1].x[0]) <= 1e-12


# ------------------------------------------------------------------- paths

def test_assemble_local_path_single_record():
    run = run_local(QS.field, QS.region, [0.0, -1.0], [0.0, 1.0])
    verts, max_f = assemble_local_path(QS.field, run)
    assert verts.shape == (4, 2)
    assert np.array_equal(verts[0], run.initial_pair[0])
    assert np.array_equal(verts[-1], run.initial_pair[1])
    assert max_f <= run.records[-1].M + 1e-10


def test_assemble_local_path_certificate():
    f = perturbed_quadratic()
    run = run_local(f, Ball((0, 0), 3.0), [0.3, -0.6], [-0.2, 0.55],
                    opts=LocalOptions(point_tol=1e-13, max_iter=10))
    verts, max_f = assemble_local_path(f, run)
    assert max_f <= run.records[-1].M + 1e-10
    # Dense-sampling certificate check (1e4 points per edge).
    dense = -np.inf
    for a, b in zip(verts[:-1], verts[1:]):
        if np.array_equal(a, b):
            continue
        ts = np.linspace(0, 1, 10_000)
        dense = max(dense, float(np.max(f.value_many(a[None] + ts[:, None] * (b - a)[None]))))
    assert dense <= max_f + 1e-10


def test_assemble_local_path_requires_records():
    run = run_local(QS.field, QS.region, [0.0, -1.0], [0.0, 1.0])
    run.records.clear()
    with pytest.raises(ValueError):
        assemble_local_path(QS.field, run)


def test_run_local_propagates_boundary_hit():
    from saddlepass.errors import BoundaryHitError

    # A dome has no saddle: the bisector minimizer runs to the region boundary.
    f = ScalarField(
        2, lambda x: float(-x[0] ** 2 - x[1] ** 2),
        lambda x: np.array([-2.0 * x[0], -2.0 * x[1]]),
        batch_evaluate=lambda p: -p[:, 0] ** 2 - p[:, 1] ** 2, name="dome",
    )
    with pytest.raises(BoundaryHitError) as info:
        run_local(f, Ball((0, 0), 1.5), [0.0, -1.0], [0.0, 1.0])
    assert abs(np.linalg.norm(info.value.point) - 1.5) <= 1e-9


def test_hyperplane_minimizer_outside_the_ball_is_clamped_to_its_boundary():
    # On the plane x3 = 0 the minimizer of (x1 - 3)^2 + x2^2 - x3^2 is (3, 0, 0),
    # outside the unit ball; the hit is reported where the straight path from
    # the base point leaves the ball.
    from saddlepass.errors import BoundaryHitError

    f = ScalarField(
        3, lambda x: float((x[0] - 3.0) ** 2 + x[1] ** 2 - x[2] ** 2),
        lambda x: np.array([2.0 * (x[0] - 3.0), 2.0 * x[1], -2.0 * x[2]]),
    )
    with pytest.raises(BoundaryHitError) as info:
        minimize_on_hyperplane(f, Ball((0, 0, 0), 1.0), np.array([0.2, 0.0, 0.0]),
                               np.array([0.0, 0.0, 1.0]))
    assert np.allclose(info.value.point, [1.0, 0.0, 0.0], rtol=0.0, atol=1e-9)


def test_run_local_accepts_endpoints_outside_its_region():
    # Only the bisector chord has to meet the region: from (0, -1) and (0, 1)
    # the chord through (0, 0) of a radius-0.5 ball holds the saddle, and both
    # endpoints advance onto it in one iteration.
    run = run_local(QS.field, Ball((0, 0), 0.5), [0.0, -1.0], [0.0, 1.0])
    assert run.converged and run.stop_reason == "point_tol"
    assert len(run.records) == 1
    assert np.array_equal(run.records[0].x, [0.0, 0.0])
    assert np.array_equal(run.records[0].y, [0.0, 0.0])


def test_line_minimize_scans_each_window_in_one_batch(monkeypatch, ex_bidiag5):
    # Each 33-point window of the closest-pair line search is one batched
    # evaluation (stacked SVDs on a sigma_min field), not 33 single ones.
    field = SigmaMinField(ex_bidiag5)
    sizes, singles = [], []
    value, value_many = field.value, field.value_many

    def counted_value(x):
        singles.append(x)
        return value(x)

    def counted_value_many(pts):
        sizes.append(len(pts))
        return value_many(pts)

    monkeypatch.setattr(field, "value", counted_value)
    monkeypatch.setattr(field, "value_many", counted_value_many)
    # Keep only the window scans: no slope solve, Brent or Newton refinement.
    monkeypatch.setattr(_Line, "stationary", lambda self, a, b: None)
    monkeypatch.setattr(local_solver, "_refine_bracket_min",
                        lambda phi, ts, vs: (ts[np.argmin(vs)], vs.min()))
    local_solver._local_line_minimize(field, np.array([0.45, 0.6]), np.array([1.0, 0.0]),
                                      -0.3, 0.3, scale=1e-3)
    assert len(sizes) >= 2
    assert sizes == [33] * len(sizes)
    assert singles == []


def _line_minimize_singles(monkeypatch, field, *args):
    """``_local_line_minimize``'s result and its single value and gradient calls."""
    calls = []
    value, grad = field.value, field.grad
    monkeypatch.setattr(field, "value", lambda x: calls.append("value") or value(x))
    monkeypatch.setattr(field, "grad", lambda x: calls.append("grad") or grad(x))
    return local_solver._local_line_minimize(field, *args), calls


def test_line_minimize_solves_the_slope_on_a_sigma_field(monkeypatch, ex_bidiag5):
    # The gradient path lands where the analytic slope vanishes, with fewer
    # single SVDs than bounded Brent plus the finite-difference polish.
    args = (np.array([0.45, 0.6]), np.array([1.0, 0.0]), -0.3, 0.3, 1e-2)
    (t_grad, v_grad), grad_calls = _line_minimize_singles(
        monkeypatch, SigmaMinField(ex_bidiag5), *args)
    with monkeypatch.context() as m:
        m.setattr(_Line, "stationary", lambda self, a, b: None)
        (t_brent, v_brent), brent_calls = _line_minimize_singles(
            m, SigmaMinField(ex_bidiag5), *args)
    assert "grad" in grad_calls and "grad" not in brent_calls
    assert len(grad_calls) < len(brent_calls)
    assert abs(t_grad - t_brent) <= 1e-12 * (1.0 + abs(t_brent))
    line = _Line(SigmaMinField(ex_bidiag5), args[0], args[1])
    assert abs(line.slope(t_grad)) < abs(line.slope(t_brent))
    assert v_grad == line(t_grad) and v_brent == line(t_brent)


def test_line_minimize_without_a_gradient_takes_the_brent_path(monkeypatch):
    # A gradient-free field never reaches the slope solve, and the result is
    # the Brent path's own, bit for bit.
    def never(self, a, b):
        raise AssertionError("slope solve on a field without a gradient")

    refined = []
    refine = local_solver._refine_bracket_min
    monkeypatch.setattr(_Line, "stationary", never)
    monkeypatch.setattr(local_solver, "_refine_bracket_min",
                        lambda phi, ts, vs: refined.append(refine(phi, ts, vs)) or refined[-1])
    plateau = get_problem("plateau").field
    flat_quadratic = ScalarField(2, make_quadratic_field([1.0, 3.0]).value)
    for field, origin, direction in ((plateau, [0.5], [1.0]),
                                     (flat_quadratic, [0.5, -0.25], [1.0, 1.0])):
        out = local_solver._local_line_minimize(
            field, np.array(origin), np.array(direction), -1.0, 1.0, 0.3)
        assert out == refined[-1]
    assert len(refined) == 2


def test_line_minimize_lands_on_a_quadratics_minimizer():
    # phi(t) = (0.5 + t)^2 + 3 (t - 0.25)^2 has its minimum at t = 1/16.
    field = make_quadratic_field([1.0, 3.0])
    t, v = local_solver._local_line_minimize(
        field, np.array([0.5, -0.25]), np.array([1.0, 1.0]), -1.0, 1.0, 0.3)
    assert field.grad_count > 0
    assert t == 0.0625 and v == 0.421875


def test_run_local_step_1a_stops_on_the_gap():
    # With the closest-pair sweep before every bisector step, the double-well
    # run closes its value gap after two iterations, before the pair meets.
    prob = get_problem("double-well-curve")
    run = run_local(prob.field, prob.region, *prob.endpoints,
                    opts=LocalOptions(do_step_1a=True))
    assert run.converged and run.stop_reason == "gap_tol"
    assert len(run.records) == 2
    last = run.records[-1]
    assert last.M - last.f_z <= LocalOptions().gap_tol


def test_run_local_sends_every_segment_operation_to_the_fields_oracle():
    # The field's own segment methods receive all three 1-D operations; this
    # subclass records each call and delegates to the sampled methods, so the
    # run is unchanged.
    calls = []

    class Recording(ScalarField):
        def minimize(self, p, q):
            calls.append("minimize")
            return super().minimize(p, q)

        def maximize(self, p, q):
            calls.append("maximize")
            return super().maximize(p, q)

        def advance_limit(self, p, q, cap, slack):
            calls.append("advance_limit")
            return super().advance_limit(p, q, cap, slack)

    prob = get_problem("double-well-curve")
    start = ([0.25, 0.7], [0.75, 0.2])  # unequal values, so equalizing crosses
    plain = run_local(prob.field, prob.region, *start)
    f = prob.field
    field = Recording(2, f._evaluate, f._gradient, batch_evaluate=f._batch_evaluate,
                      name=f.name)
    run = run_local(field, prob.region, *start)
    assert set(calls) == {"minimize", "advance_limit", "maximize"}
    assert run.stop_reason == plain.stop_reason and len(run.records) == len(plain.records)
    assert all(np.array_equal(a.x, b.x) and a.M == b.M for a, b in zip(run.records, plain.records))
