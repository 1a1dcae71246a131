"""Post-hoc verification: optimality residuals, critical-point classification,
and convergence-rate estimation.

Closest pairs between two sublevel components satisfy first-order conditions
that align the gradient at each point with the vector toward the other point,
with nonnegative multipliers, and put both points on the level boundary.  The
reports here measure the residuals of those conditions.  For fields flagged
non-differentiable the conditions involve normal cones rather than gradients;
such reports are marked not applicable instead of approximating
subdifferentials.

Every finite-difference step and stencil of the package is here.  Of the three
Newton polishes, the closest pair's and the hyperplane minimum's take their
Hessians, like :func:`classify_critical_point`, from :func:`hessian_of`: the
symmetrized central-difference Jacobian of the gradient (:func:`fd_jacobian`),
or second differences of values for a field without a gradient.  The 1-D one on
a segment (:func:`_newton_polish_1d`) differences values at :data:`_FD_STEP`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .fields import ScalarField


#: Relative central-difference step, h = _FD_STEP * (1 + |x_k|) per coordinate.
_FD_STEP = 1e-6

#: Relative step of :func:`hessian_of`'s second differences of values.
_FD2_STEP = 1e-4

#: Finite-difference Newton steps of :func:`_newton_polish_1d`.
_NEWTON_STEPS = 3


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


def _newton_polish_1d(phi, t, lo, hi, f0=None):
    """Sharpen a 1-D minimizer with finite-difference Newton steps.

    Exact for quadratics (central differences have no truncation error there),
    which is what makes one-step convergence on pure quadratic saddles land at
    machine precision.  ``f0``, when given, is ``phi(t)`` as ``phi`` itself
    computed it.  Returns the polished parameter and ``phi`` there.
    """
    if f0 is None:
        f0 = phi(t)
    for _ in range(_NEWTON_STEPS):
        h = _FD_STEP * (1.0 + abs(t))
        fp = phi(t + h)
        fm = phi(t - h)
        d1 = (fp - fm) / (2.0 * h)
        d2 = (fp - 2.0 * f0 + fm) / (h * h)
        if not np.isfinite(d2) or d2 <= 0.0:
            break
        step = -d1 / d2
        t_new = t + step
        if not (lo <= t_new <= hi) or not np.isfinite(t_new):
            break
        f_new = phi(t_new)
        if f_new > f0 + 1e-15 * (1.0 + abs(f0)):
            break
        t, f0 = t_new, f_new
        if abs(step) <= 1e-15 * (1.0 + abs(t)):
            break
    return t, f0


def fd_gradient(field: ScalarField, x) -> np.ndarray:
    """Central-difference gradient with step h = _FD_STEP * (1 + |x_k|) per axis."""
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


def classify_critical_point(field: ScalarField, x) -> CriticalPointReport:
    """Morse data at a point: gradient norm, Hessian eigenvalues, index.

    The Morse index counts negative Hessian eigenvalues; the point is
    nondegenerate when no eigenvalue sits within 1e-6 times the largest
    magnitude of zero (within 1e-12 when every eigenvalue is zero).
    """
    x = np.asarray(x, dtype=float).reshape(field.dimension)
    g = gradient_of(field, x)
    hess = hessian_of(field, x)
    eigs = np.sort(np.linalg.eigvalsh(hess))
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
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
