import numpy as np
import pytest

import saddlepass.linalg as linalg
from saddlepass import (
    SigmaMinField,
    byers_vertical_crossings,
    eigenvalues,
    rotate_to_vertical,
    smallest_singular_value,
)
from saddlepass.diagnostics import fd_gradient

from oracles import scan_sigma_crossings


def test_sigma_min_identity_and_diagonal():
    assert smallest_singular_value(np.eye(3)) == 1.0
    assert smallest_singular_value(np.diag([3.0, 2.0])) == pytest.approx(2.0, rel=1e-12)


def test_sigma_min_matches_gram_eigensolve():
    # Oracle: sqrt of the smallest eigenvalue of A^H A.
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = float(np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)[0]))
        got = smallest_singular_value(a)
        assert abs(got - expected) <= 1e-12 * (1.0 + expected)


def test_sigma_min_input_validation():
    with pytest.raises(ValueError):
        smallest_singular_value(np.ones((2, 3)))
    with pytest.raises(ValueError):
        smallest_singular_value(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="matrix must be nonempty"):
        smallest_singular_value(np.zeros((0, 0)))


def test_eigenvalues_upper_triangular():
    a = np.array([[1.0, 5.0, 7.0], [0, 2.0, -3.0], [0, 0, 3.0]], dtype=complex)
    assert np.allclose(eigenvalues(a), [1, 2, 3], atol=1e-12)


def test_eigenvalues_bidiagonal_matrix_are_its_diagonal(ex_bidiag5):
    expected = sorted(
        [0.461 + 0.650j, 0.457 + 0.983j, 0.451 + 0.553j, 0.412 + 0.400j, 0.902 + 0.199j],
        key=lambda z: (z.real, z.imag),
    )
    got = eigenvalues(ex_bidiag5)
    assert np.allclose(got, expected, atol=1e-12)


def test_eigenvalues_companion_matrix():
    # Companion of (t-1)(t-2)(t-3) = t^3 - 6 t^2 + 11 t - 6.
    comp = np.array([[0.0, 0.0, 6.0], [1.0, 0.0, -11.0], [0.0, 1.0, 6.0]])
    assert np.allclose(eigenvalues(comp), [1, 2, 3], atol=1e-10)


def test_byers_crossings_scalar_cases():
    got = byers_vertical_crossings([[0.0]], 0.6, 1.0)
    assert np.allclose(got, [-0.8, 0.8], atol=1e-12)
    assert byers_vertical_crossings([[0.0]], 2.0, 1.0).size == 0
    with pytest.raises(ValueError):
        byers_vertical_crossings([[0.0]], 0.0, -1.0)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, name", [
    (lambda a: byers_vertical_crossings(a, 0.0, _INF), "epsilon"),
    (lambda a: byers_vertical_crossings(a, _NAN, 0.5), "x"),
    (lambda a: byers_vertical_crossings(a, _INF, 0.5), "x"),
    (lambda a: rotate_to_vertical(a, _NAN, 1.0), "p"),
    (lambda a: rotate_to_vertical(a, 0.0, complex(0.0, _INF)), "q"),
], ids=["byers-eps-inf", "byers-x-nan", "byers-x-inf", "rotate-p-nan", "rotate-q-inf"])
def test_non_finite_arguments_are_named_bad_arguments(call, name):
    # Passed on, they made LAPACK raise LinAlgError, which callers count as a
    # numerical failure, or gave a frame of NaNs.
    with pytest.raises(ValueError, match=f"^{name} must be ") as err:
        call(np.diag([0.0, 2.0]))
    assert not isinstance(err.value, np.linalg.LinAlgError)


def test_byers_crossings_match_dense_scan():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = float(rng.uniform(-1.5, 1.5))
        eps = float(rng.uniform(0.3, 2.5))
        got = byers_vertical_crossings(a, x, eps)
        expected = scan_sigma_crossings(a, x, eps)
        for y in expected:
            assert np.min(np.abs(got - y)) <= 1e-6


def test_byers_crossings_bracket_local_minimum():
    # At eps = sigma(x + i y*) + 1e-3 the crossings straddle a strict local
    # minimizer y* along the vertical line.
    rng = np.random.default_rng(12)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = 0.3
    field = SigmaMinField(a)
    ys = np.linspace(-4, 4, 4001)
    vals = np.array([field.sigma_at(x + 1j * y) for y in ys])
    j = int(np.argmin(vals))
    assert 0 < j < len(ys) - 1
    y_star = ys[j]
    crossings = byers_vertical_crossings(a, x, vals[j] + 1e-3)
    assert np.any(crossings < y_star) and np.any(crossings > y_star)


def test_rotation_identity_segment():
    frame = rotate_to_vertical([[0.0]], 0.0, 1.0j)
    assert abs(abs(frame.rotation) - 1.0) <= 1e-15
    assert frame.length == 1.0
    assert frame.point_at(0.0) == 0.0
    assert frame.point_at(1.0) == 1.0j


def test_rotation_preserves_sigma_at_midpoint(ex_bidiag5):
    frame = rotate_to_vertical(ex_bidiag5, 0.0, 1.0)
    field = SigmaMinField(ex_bidiag5)
    rotated = SigmaMinField(frame.matrix)
    assert abs(rotated.sigma_at(0.5j) - field.sigma_at(0.5)) <= 1e-12


def test_rotation_preserves_sigma_everywhere():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = complex(rng.standard_normal(), rng.standard_normal())
    q = complex(rng.standard_normal(), rng.standard_normal())
    frame = rotate_to_vertical(a, p, q)
    field = SigmaMinField(a)
    rotated = SigmaMinField(frame.matrix)
    for t in np.linspace(0.0, 1.0, 20):
        y = t * frame.length
        z = frame.point_at(y)
        assert abs(rotated.sigma_at(1j * y) - field.sigma_at(z)) <= 1e-12


def test_sigma_unimodular_invariance():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    for theta in (0.3, 1.2, -2.5):
        u = np.exp(1j * theta)
        assert abs(smallest_singular_value(u * a) - smallest_singular_value(a)) <= 1e-12 * (
            1.0 + smallest_singular_value(a)
        )


def test_sigma_vanishes_at_eigenvalues():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    norm = np.linalg.norm(a, 2)
    field = SigmaMinField(a)
    for lam in eigenvalues(a):
        assert field.sigma_at(lam) <= 1e-10 * (1.0 + norm)


def test_sigma_field_nonnegative_and_gradient(ex_bidiag5):
    field = SigmaMinField(ex_bidiag5)
    rng = np.random.default_rng(16)
    for _ in range(25):
        x = rng.uniform(-0.5, 1.5, size=2)
        v = field.value(x)
        assert v >= 0.0
        an = field.grad(x)
        fd = fd_gradient(field, x)
        assert np.linalg.norm(fd - an) <= 1e-5 * (1.0 + np.linalg.norm(an))


@pytest.mark.parametrize("case", ["paper5", "paper10", "random28"])
def test_sigma_field_batch_equals_single_bit_for_bit(case, ex_bidiag5, ex_bidiag10):
    # Batched scans (grid samples, line windows) must reproduce the single
    # evaluations exactly, so that batching changes no solver output.
    if case == "random28":
        rng = np.random.default_rng(28)
        a = (rng.standard_normal((28, 28)) + 1j * rng.standard_normal((28, 28))) / np.sqrt(56)
    else:
        a = ex_bidiag5 if case == "paper5" else ex_bidiag10
    field = SigmaMinField(a)
    lam = eigenvalues(a)
    rng = np.random.default_rng(7)
    pts = np.column_stack([
        rng.uniform(lam.real.min() - 0.2, lam.real.max() + 0.2, 300),
        rng.uniform(lam.imag.min() - 0.2, lam.imag.max() + 0.2, 300),
    ])
    singles = np.array([field.value(p) for p in pts])
    assert np.array_equal(field.value_many(pts), singles)


def test_sigma_field_evaluators_follow_methods_replaced_after_it_was_built(
    monkeypatch, ex_bidiag5
):
    # Call counters replace SigmaMinField.sigma_at/gradient_at and
    # linalg._sigma_batch by name, possibly after the field was built; its
    # value, grad and value_many must still go through the replacements.
    field = SigmaMinField(ex_bidiag5)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("sigma_at", "gradient_at"):
        monkeypatch.setattr(SigmaMinField, name, counted(name, getattr(SigmaMinField, name)))
    monkeypatch.setattr(linalg, "_sigma_batch", counted("_sigma_batch", linalg._sigma_batch))
    x = np.array([0.45, 0.6])
    assert field.value(x) == field.sigma_at(complex(0.45, 0.6))
    field.grad(x)
    field.value_many(np.vstack([x, x]))
    assert calls == ["sigma_at", "sigma_at", "gradient_at", "_sigma_batch"]
