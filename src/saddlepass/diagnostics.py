"""Post-hoc verification: optimality residuals, critical-point classification,
and convergence-rate estimation.

Closest pairs between two sublevel components satisfy first-order conditions
that align the gradient at each point with the vector toward the other point,
with nonnegative multipliers, and put both points on the level boundary.  The
reports here measure the residuals of those conditions.  For fields flagged
non-differentiable the conditions involve normal cones rather than gradients;
such reports are marked not applicable instead of approximating
subdifferentials.

The Hessians of :func:`classify_critical_point` and of the two Newton polishes
(closest pair, hyperplane minimum) come from :func:`hessian_of`: the
symmetrized central-difference Jacobian of the gradient (:func:`fd_jacobian`),
or second differences of values for a field without a gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ScalarField


#: Relative central-difference step, h = _FD_STEP * (1 + |x_k|) per axis.
_FD_STEP = 1e-6

#: Relative step of :func:`hessian_of`'s second differences of values.
_FD2_STEP = 1e-4


def _central_differences(fn, x: np.ndarray) -> np.ndarray:
    """Row k is (fn(x + h e_k) - fn(x - h e_k)) / 2h with h = _FD_STEP * (1 + |x_k|)."""
    rows = []
    for k in range(x.size):
        h = _FD_STEP * (1.0 + abs(x[k]))
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        rows.append((fn(xp) - fn(xm)) / (2.0 * h))
    return np.array(rows)


def fd_gradient(field: ScalarField, x) -> np.ndarray:
    """Central-difference gradient with step h = 1e-6 * (1 + |x_k|) per axis."""
    return _central_differences(field.value, np.asarray(x, dtype=float).reshape(field.dimension))


def fd_jacobian(fn, x) -> np.ndarray:
    """Symmetrized central-difference Jacobian of a gradient map ``fn`` at ``x``.

    Column k differences ``fn`` along axis k with the steps of
    :func:`fd_gradient`; the Hessian of a smooth field is symmetric, so the
    average with the transpose removes the asymmetric part of the error.
    """
    jac = _central_differences(fn, np.asarray(x, dtype=float)).T
    return 0.5 * (jac + jac.T)


def gradient_of(field: ScalarField, x) -> np.ndarray:
    if field.has_gradient:
        return field.grad(x)
    return fd_gradient(field, x)


def hessian_of(field: ScalarField, x) -> np.ndarray:
    """Finite-difference Hessian at ``x``: the :func:`fd_jacobian` of the
    field's gradient or, without one, the symmetrized four-point second
    differences of values (f(x+a+b) - f(x+a-b) - f(x-a+b) + f(x-a-b)) / 4 h_i h_j
    with a = h_i e_i, b = h_j e_j and h_k = 1e-4 (1 + |x_k|), which difference
    only once and so keep roundoff small."""
    x = np.asarray(x, dtype=float).reshape(field.dimension)
    if field.has_gradient:
        return fd_jacobian(field.grad, x)
    f = field.value
    hs = np.diag(_FD2_STEP * (1.0 + np.abs(x)))
    hess = np.array([[(f(x + a + b) - f(x + a - b) - f(x - a + b) + f(x - a - b))
                      / (4.0 * a[i] * b[j]) for j, b in enumerate(hs)]
                     for i, a in enumerate(hs)])
    return 0.5 * (hess + hess.T)


@dataclass
class OptimalityReport:
    """Residuals of the closest-pair first-order conditions at a pair."""

    kappa1: float
    kappa2: float
    residual_x: float
    residual_y: float
    level_residuals: tuple[float, float]
    applicable: bool = True


def check_pair_optimality(field: ScalarField, x, y, level: float) -> OptimalityReport:
    """Nonnegative least-squares multipliers and alignment residuals for a pair.

    kappa1 solves min over kappa >= 0 of |grad f(x) - kappa (y - x)|, and the
    residual is the remaining misalignment; symmetrically for y.  Level
    residuals measure how far the pair sits from the queried level.
    """
    x = np.asarray(x, dtype=float).reshape(field.dimension)
    y = np.asarray(y, dtype=float).reshape(field.dimension)
    if np.array_equal(x, y):
        raise ValueError("pair points must be distinct")
    gx = gradient_of(field, x)
    gy = gradient_of(field, y)
    d = y - x
    dd = float(d @ d)
    kappa1 = max(0.0, float(gx @ d) / dd)
    kappa2 = max(0.0, float(gy @ (-d)) / dd)
    residual_x = float(np.linalg.norm(gx - kappa1 * d))
    residual_y = float(np.linalg.norm(gy - kappa2 * (-d)))
    level_residuals = (
        abs(field.value(x) - level),
        abs(field.value(y) - level),
    )
    return OptimalityReport(
        kappa1=kappa1,
        kappa2=kappa2,
        residual_x=residual_x,
        residual_y=residual_y,
        level_residuals=level_residuals,
        applicable=field.differentiable,
    )


@dataclass
class CriticalPointReport:
    grad_norm: float
    hessian_eigenvalues: np.ndarray
    morse_index: int
    nondegenerate: bool
    applicable: bool = True


def classify_critical_point(
    field: ScalarField, x, tol: Optional[float] = None
) -> CriticalPointReport:
    """Morse data at a point: gradient norm, Hessian eigenvalues, index.

    The Morse index counts negative Hessian eigenvalues; the point is
    nondegenerate when no eigenvalue sits within ``tol`` of zero (default
    1e-6 times the largest magnitude).
    """
    x = np.asarray(x, dtype=float).reshape(field.dimension)
    g = gradient_of(field, x)
    hess = hessian_of(field, x)
    eigs = np.sort(np.linalg.eigvalsh(hess))
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if tol is None:
        tol = 1e-6 * scale if scale > 0 else 1e-12
    return CriticalPointReport(
        grad_norm=float(np.linalg.norm(g)),
        hessian_eigenvalues=eigs,
        morse_index=int(np.sum(eigs < 0.0)),
        nondegenerate=bool(np.all(np.abs(eigs) > tol)),
        applicable=field.differentiable,
    )


def convergence_rates(values, limit: float) -> list[Optional[float]]:
    """Successive error ratios |v_{i+1} - limit| / |v_i - limit|.

    A 0/0 ratio (both iterates already at the limit) is reported as None, a
    converged-exactly marker.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        raise ValueError(f"need at least 3 values, got {len(vals)}")
    limit = float(limit)
    if not np.isfinite(limit):
        raise ValueError("limit must be finite")
    errs = [abs(v - limit) for v in vals]
    out: list[Optional[float]] = []
    for prev, nxt in zip(errs[:-1], errs[1:]):
        if prev == 0.0 and nxt == 0.0:
            out.append(None)
        elif prev == 0.0:
            out.append(float("inf"))
        else:
            out.append(nxt / prev)
    return out
