import numpy as np
import pytest

from saddlepass import (
    check_pair_optimality,
    classify_critical_point,
    convergence_rates,
    get_problem,
    make_quadratic_field,
)
from saddlepass.diagnostics import fd_jacobian

from conftest import BIDIAG_5X5_EPS

QS = get_problem("quadratic-saddle")


def test_pair_optimality_analytic_pair():
    # grad f(0,-0.2) = (0, 0.4) = 1 * ((0,0.2) - (0,-0.2))
    rep = check_pair_optimality(QS.field, [0.0, -0.2], [0.0, 0.2], -0.04)
    assert rep.kappa1 == pytest.approx(1.0, abs=1e-12)
    assert rep.kappa2 == pytest.approx(1.0, abs=1e-12)
    assert rep.residual_x <= 1e-12 and rep.residual_y <= 1e-12
    assert rep.level_residuals[0] <= 1e-12 and rep.level_residuals[1] <= 1e-12
    assert rep.applicable


def test_pair_optimality_detects_misalignment():
    rng = np.random.default_rng(40)
    found = 0
    for _ in range(5):
        x = rng.uniform(-1, 1, 2)
        y = rng.uniform(-1, 1, 2)
        if np.allclose(x, y):
            continue
        rep = check_pair_optimality(QS.field, x, y, -0.04)
        assert rep.kappa1 >= 0 and rep.kappa2 >= 0
        found += max(rep.residual_x, rep.residual_y) > 1e-3
    assert found >= 4  # random pairs are essentially never aligned


def test_pair_optimality_zero_gradient_endpoint():
    rep = check_pair_optimality(QS.field, [0.0, 0.0], [1.0, 0.0], 0.0)
    assert rep.kappa1 == 0.0
    assert rep.residual_x == 0.0


def test_pair_optimality_rejects_identical_points():
    with pytest.raises(ValueError):
        check_pair_optimality(QS.field, [0.0, 0.1], [0.0, 0.1], 0.0)


def test_classify_quadratic_saddle():
    rep = classify_critical_point(QS.field, [0.0, 0.0])
    assert rep.grad_norm <= 1e-8
    assert np.allclose(rep.hessian_eigenvalues, [-2.0, 2.0], atol=1e-6)
    assert rep.morse_index == 1
    assert rep.nondegenerate


def test_classify_3d_quadratic_index_one():
    f = make_quadratic_field([3.0, 2.0, -1.0])
    rep = classify_critical_point(f, [0.0, 0.0, 0.0])
    assert rep.morse_index == 1
    assert rep.nondegenerate


def test_classify_double_well_contact_point():
    # (1,1) is critical with Hessian eigenvalues {1, -9}: index 1.
    prob = get_problem("double-well-curve")
    rep = classify_critical_point(prob.field, [1.0, 1.0])
    assert rep.grad_norm <= 1e-6
    assert rep.morse_index == 1
    assert np.allclose(rep.hessian_eigenvalues, [-9.0, 1.0], atol=1e-5)


def test_classify_marks_nonsmooth_not_applicable():
    prob = get_problem("sqrt-cusp")
    rep = classify_critical_point(prob.field, [0.5])
    assert not rep.applicable


def test_convergence_rates_geometric():
    assert convergence_rates([1.0, 0.5, 0.25], 0.0) == [0.5, 0.5]


def test_convergence_rates_validation():
    with pytest.raises(ValueError):
        convergence_rates([1.0, 0.5], 0.0)
    with pytest.raises(ValueError):
        convergence_rates([1.0, 0.5, 0.25], float("nan"))


def test_convergence_rates_exact_markers():
    out = convergence_rates([2.0, 2.0, 2.0, 2.0], 2.0)
    assert out == [None, None, None]


def test_convergence_rates_reported_lower_bound_column():
    # Frozen reference sequence for the 5x5 bidiagonal coalescence problem:
    # each step gains at least four orders of magnitude.
    values = [6.1325135002707e-4, 6.1511091521293e-4, 6.1511092861422e-4]
    rates = convergence_rates(values, BIDIAG_5X5_EPS)
    assert all(r is not None and r <= 1e-4 for r in rates)


def test_fd_jacobian_of_quadratic_gradient_is_its_hessian():
    # grad of sum a_j x_j^2 is 2 a x, so the Jacobian is diag(2 a) exactly up
    # to the rounding of the central differences.
    f = make_quadratic_field([2.0, 3.0, -1.0])
    x = np.array([0.3, -1.2, 2.5])
    jac = fd_jacobian(f.grad, x)
    assert np.allclose(jac, np.diag([4.0, 6.0, -2.0]), rtol=0, atol=1e-8)
    assert np.array_equal(jac, jac.T)
    # Same arithmetic as a plain column-by-column loop.
    ref = np.empty((3, 3))
    for k in range(3):
        h = 1e-6 * (1.0 + abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        ref[:, k] = (f.grad(xp) - f.grad(xm)) / (2.0 * h)
    assert np.array_equal(jac, 0.5 * (ref + ref.T))


def test_fd_jacobian_symmetrizes_a_nonsymmetric_map():
    # The Jacobian of x -> M x is M; fd_jacobian returns its symmetric part.
    m = np.array([[1.0, 2.0], [0.0, 3.0]])
    jac = fd_jacobian(lambda x: m @ x, [0.5, -0.25])
    assert np.allclose(jac, 0.5 * (m + m.T), rtol=0, atol=1e-8)
    assert np.array_equal(jac, jac.T)
