"""Fast local level-set iteration for index-1 saddle points.

The solver keeps a pair of points at equal function value on either side of a
suspected saddle.  Each iteration minimizes the field on the perpendicular
bisector hyperplane of the pair (a lower bound on the pass value), then slides
both points along the segments toward that minimizer as far as the level of
the minimizer allows.  The maximum of the field on the segment joining the
pair is an upper bound.  The paper's superlinear convergence is for the full
method, with step 1a (:func:`refine_closest_pair`) before every iteration.
Without ``LocalOptions.do_step_1a`` it runs only on a pair the last iteration
left in place, and the error ratios are 0.09 to 0.55 on a perturbed quadratic.

All 1-D segment work goes to the field's three segment methods: minimize,
maximize, and advance to the first rise through a level, which also
equalizes the starting pair.  :class:`ScalarField` samples and refines; a
field with an exact 1-D solver overrides them (the prepared matrix of the
pseudospectral pipeline runs the block-eigenvalue crossing test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize as sp_minimize

from .diagnostics import gradient_of, hessian_of
from .errors import BoundaryHitError, PreconditionError, require_count, require_finite_positive
from .fields import Region, ScalarField, _Line, _refine_bracket_min

#: Samples per segment when snapping a closest pair to the sublevel boundary,
#: the cap on alternating sweeps of :func:`refine_closest_pair`, and the
#: Newton steps of its final :func:`_pair_kkt_polish`.
_PAIR_SAMPLES = 128
_PAIR_MAX_SWEEPS = 50
_KKT_POLISH_STEPS = 8


# --------------------------------------------------------------------------
# Hyperplane parameterization and constrained minimization
# --------------------------------------------------------------------------

def _hyperplane_basis(unit_normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of ``unit_normal``.

    Deterministic Householder construction mapping e_n onto the normal; the
    remaining reflector columns span the hyperplane.
    """
    n = unit_normal.size
    d = unit_normal if unit_normal[-1] >= 0 else -unit_normal
    e = np.zeros(n)
    e[-1] = 1.0
    v = e - d
    s = float(v @ v)
    h = np.eye(n) if s < 1e-26 else np.eye(n) - 2.0 * np.outer(v, v) / s
    return h[:, : n - 1]


def _local_line_minimize(field, origin, direction, tlo, thi, scale):
    """Local 1-D minimizer of the field along a line, near parameter 0.

    Searches a window of 33 samples that doubles until it contains an interior
    minimum or exhausts the feasible interval.  With an interior best sample
    and a field gradient, it solves phi'(t) = 0 on that sample's bracket of
    neighbors.  Otherwise, or when phi' keeps its sign on the bracket or phi at
    its zero is above the best sample, it refines with bounded Brent plus
    Newton polish.  Returns the parameter and the field value there.
    """
    line = _Line(field, origin, direction)
    w = max(scale, 1e-8)
    while True:
        a = max(tlo, -w)
        b = min(thi, w)
        ts = np.linspace(a, b, 33)
        vs = line.sample(ts)
        j = int(np.argmin(vs))
        interior = 0 < j < len(ts) - 1
        if interior or (a == tlo and b == thi):
            break
        w *= 2.0
    if interior and field.has_gradient:
        t = line.stationary(ts[j - 1], ts[j + 1])
        if t is not None:
            v = line(t)
            if v <= vs[j]:
                return t, v
    return _refine_bracket_min(line, ts, vs)


def minimize_on_hyperplane(
    field: ScalarField,
    region: Region,
    through: np.ndarray,
    normal: np.ndarray,
    locality: str = "global",
) -> tuple[np.ndarray, float]:
    """Minimize the field on the hyperplane through ``through`` orthogonal to ``normal``.

    In R^2 the feasible set is a chord of the region and the problem is solved
    on that segment (globally for ``locality='global'``, or in a local window
    for the closest-pair alternation).  In higher dimensions a quasi-Newton
    descent runs in an orthonormal parameterization of the hyperplane, with
    finite-difference gradients when the field has none.  Both paths finish
    with a Newton polish that sharpens the minimizer toward roundoff.
    A minimizer escaping to the region boundary raises
    :class:`BoundaryHitError` with the point.
    """
    through = np.asarray(through, dtype=float)
    normal = np.asarray(normal, dtype=float)
    nn = float(np.linalg.norm(normal))
    if nn == 0.0:
        raise ValueError("normal must be nonzero")
    if not region.contains(through):
        raise PreconditionError("hyperplane base point lies outside the region")
    n = field.dimension
    unit = normal / nn

    if n == 1:
        return through.copy(), field.value(through)

    if n == 2:
        u = _hyperplane_basis(unit)[:, 0]
        interval = region.line_interval(through, u)
        if interval is None:
            raise PreconditionError("hyperplane does not meet the region")
        tlo, thi = interval
        span = thi - tlo
        if locality == "global":
            z, fz = field.minimize(through + tlo * u, through + thi * u)
            t_star = float((z - through) @ u)
        else:
            t_star, fz = _local_line_minimize(field, through, u, tlo, thi, scale=nn)
            z = through + t_star * u
        if t_star <= tlo + 1e-9 * span or t_star >= thi - 1e-9 * span:
            raise BoundaryHitError(z)
        return z, float(fz)

    # n >= 3: quasi-Newton in hyperplane coordinates.
    basis = _hyperplane_basis(unit)

    def g(w):
        return field.value(through + basis @ w)

    if field.has_gradient:
        def gj(w):
            return basis.T @ field.grad(through + basis @ w)
    else:
        gj = None

    w0 = np.zeros(n - 1)
    res = sp_minimize(g, w0, jac=gj, method="BFGS", options={"gtol": 1e-10, "maxiter": 500})
    w = res.x

    # Newton polish with the finite-difference Hessian reduced to the hyperplane.
    gw = g(w)
    for _ in range(3):
        z = through + basis @ w
        try:
            step = np.linalg.solve(basis.T @ hessian_of(field, z) @ basis,
                                   -basis.T @ gradient_of(field, z))
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        w_new = w + step
        g_new = g(w_new)
        if g_new > gw + 1e-14 * (1.0 + abs(gw)):
            break
        w, gw = w_new, g_new
        if np.linalg.norm(step) <= 1e-15 * (1.0 + np.linalg.norm(w)):
            break

    z = through + basis @ w
    if not region.contains(z):
        # Clamp back to the boundary along the straight path from the base point.
        seg = z - through
        interval = region.line_interval(through, seg)
        t_edge = 1.0 if interval is None else min(1.0, interval[1])
        raise BoundaryHitError(through + t_edge * seg)
    if region.boundary_distance(z) <= 1e-9 * (1.0 + np.linalg.norm(z)):
        raise BoundaryHitError(z)
    return z, field.value(z)


# --------------------------------------------------------------------------
# Spec operations
# --------------------------------------------------------------------------

def equalize_endpoints(field: ScalarField, x0, y0) -> tuple[np.ndarray, np.ndarray]:
    """Replace the lower endpoint by the nearest point on [x0, y0] at the higher level.

    It is the field's advance from the lower endpoint toward the higher one,
    capped at the higher level (:meth:`ScalarField.advance_limit`, one of its
    three segment methods); when the field does not rise past the cap's slack
    before the higher endpoint, it is that endpoint.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    y0 = np.asarray(y0, dtype=float).copy()
    fx = field.value(x0)
    fy = field.value(y0)
    if fx == fy:
        return x0, y0
    low, high = (x0, y0) if fx < fy else (y0, x0)
    cap = max(fx, fy)
    p = field.advance_limit(low, high, cap, field.level_slack(cap))
    if p is None:
        p = high.copy()
    return (p, y0) if fx < fy else (x0, p)


def bisector_minimize(field: ScalarField, region: Region, x, y) -> tuple[np.ndarray, float]:
    """Minimize the field on the perpendicular bisector hyperplane of x and y.

    Near a nondegenerate index-1 saddle the restriction is strictly convex, so
    the local minimizer found here is the unique global one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.array_equal(x, y):
        raise ValueError("bisector is undefined for identical points")
    mid = 0.5 * (x + y)
    return minimize_on_hyperplane(field, region, mid, x - y, locality="global")


def advance_along_segment(field: ScalarField, frm, to, cap: float) -> np.ndarray:
    """Furthest point p on [frm, to] with the field at most ``cap`` on [frm, p].

    Returns ``to`` exactly when no checked point violates the cap (this
    exactness is what makes the late-iteration identity with the bisector
    minimizer observable).
    """
    frm = np.asarray(frm, dtype=float)
    to = np.asarray(to, dtype=float)
    slack = field.level_slack(cap)
    f_from = field.value(frm)
    if f_from > cap + slack:
        raise PreconditionError(f"f(from) = {f_from} exceeds cap {cap}")
    if np.array_equal(frm, to):
        return to.copy()
    limit = field.advance_limit(frm, to, cap, slack)
    if limit is None:
        return to.copy()
    return limit


def segment_max(field: ScalarField, x, y) -> tuple[float, np.ndarray]:
    """Maximum of the field on the segment [x, y], with its argmax."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.array_equal(x, y):
        raise ValueError("segment endpoints must differ")
    return field.maximize(x, y)


def _segment_crossing_pair(field, xs, ys, level, tolzero):
    """Closest pair between the sublevel components met along [xs, ys].

    Returns None when the segment sees fewer than two sublevel runs (the
    components merged along it, or neither endpoint reaches the level).
    """
    seg = ys - xs
    if float(np.linalg.norm(seg)) == 0.0:
        return None
    line = _Line(field, xs, seg)
    ts = np.linspace(0.0, 1.0, _PAIR_SAMPLES + 1)
    vs = line.sample(ts)
    # Runs of samples with value <= level + tolzero are split where the
    # sample indices jump; the pair sits between the first and the last run.
    below = np.flatnonzero(vs <= level + tolzero)
    jumps = np.flatnonzero(np.diff(below) > 1)
    if jumps.size == 0:
        return None
    end_x = below[jumps[0]]
    start_y = below[jumps[-1] + 1]
    # Boundary crossing at the inner end of each run; a sample inside the
    # tolerance band counts as already on the boundary.
    t1 = ts[end_x] if vs[end_x] >= level else line.root(level, ts[end_x], ts[end_x + 1])
    t2 = ts[start_y] if vs[start_y] >= level else line.root(level, ts[start_y - 1], ts[start_y])
    return line.at(t1), line.at(t2)


def _pair_kkt_polish(field, region, x, y, level):
    """Newton polish of the closest-pair first-order system.

    Solves grad f(x) = k1 (y - x), grad f(y) = k2 (x - y), f(x) = f(y) = level
    for (x, y, k1, k2).  Quadratically convergent near a nondegenerate pair;
    returns None when it fails to reduce the residual or leaves the region.
    """
    n = field.dimension
    x = x.copy()
    y = y.copy()
    d = y - x
    dd = float(d @ d)
    if dd == 0.0:
        return None
    gx = gradient_of(field, x)
    gy = gradient_of(field, y)
    k1 = max(0.0, float(gx @ d) / dd)
    k2 = max(0.0, float(gy @ (-d)) / dd)

    def residual(x, y, k1, k2, gx, gy):
        d = y - x
        return np.concatenate(
            [gx - k1 * d, gy + k2 * d, [field.value(x) - level, field.value(y) - level]]
        )

    r = residual(x, y, k1, k2, gx, gy)
    for _ in range(_KKT_POLISH_STEPS):
        nr = float(np.linalg.norm(r))
        if nr <= 1e-13 * (1.0 + abs(level)):
            break
        d = y - x
        hx = hessian_of(field, x)
        hy = hessian_of(field, y)
        jac = np.zeros((2 * n + 2, 2 * n + 2))
        jac[:n, :n] = hx + k1 * np.eye(n)
        jac[:n, n : 2 * n] = -k1 * np.eye(n)
        jac[:n, 2 * n] = -d
        jac[n : 2 * n, :n] = -k2 * np.eye(n)
        jac[n : 2 * n, n : 2 * n] = hy + k2 * np.eye(n)
        jac[n : 2 * n, 2 * n + 1] = d
        jac[2 * n, :n] = gx
        jac[2 * n + 1, n : 2 * n] = gy
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(delta)):
            return None
        x_new = x + delta[:n]
        y_new = y + delta[n : 2 * n]
        k1_new = k1 + delta[2 * n]
        k2_new = k2 + delta[2 * n + 1]
        gx_new = gradient_of(field, x_new)
        gy_new = gradient_of(field, y_new)
        r_new = residual(x_new, y_new, k1_new, k2_new, gx_new, gy_new)
        if float(np.linalg.norm(r_new)) >= nr:
            break
        x, y, k1, k2, r, gx, gy = x_new, y_new, k1_new, k2_new, r_new, gx_new, gy_new
    if k1 < -1e-10 or k2 < -1e-10:
        return None
    if not (region.contains(x) and region.contains(y)):
        return None
    tolf = 1e-9 * (1.0 + abs(level))
    if abs(field.value(x) - level) > tolf or abs(field.value(y) - level) > tolf:
        return None
    return x, y


def refine_closest_pair(
    field: ScalarField,
    region: Region,
    x,
    y,
    level: float,
    point_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating closest-pair polish between two sublevel components.

    Each sweep minimizes the field on the hyperplanes orthogonal to the pair
    difference through each point, then snaps the pair to the inner boundary
    crossings of the sublevel set along the joining segment.  On symmetric
    fields the raw alternation can 2-cycle between mirror pairs, so a
    non-contracting sweep is damped by averaging consecutive pairs and
    re-snapping.  Differentiable fields get a final Newton polish of the
    first-order pair-optimality system.  This is a local refinement only;
    global optimality is not guaranteed.  The best pair seen is returned, so
    the output distance never exceeds the input distance beyond roundoff.
    """
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    tolzero = field.level_slack(level)

    def _feasible(p, q):
        return field.value(p) <= level + tolzero and field.value(q) <= level + tolzero

    best = (x.copy(), y.copy()) if _feasible(x, y) else None
    best_dist = float(np.linalg.norm(x - y)) if best is not None else np.inf

    def _note(p, q):
        nonlocal best, best_dist
        d = float(np.linalg.norm(p - q))
        if d < best_dist:
            best = (p.copy(), q.copy())
            best_dist = d

    for _ in range(_PAIR_MAX_SWEEPS):
        d = x - y
        dist = float(np.linalg.norm(d))
        if dist == 0.0:
            break
        try:
            xs, _ = minimize_on_hyperplane(field, region, x, d, locality="local")
        except BoundaryHitError as hit:
            xs = hit.point
        try:
            ys, _ = minimize_on_hyperplane(field, region, y, d, locality="local")
        except BoundaryHitError as hit:
            ys = hit.point

        cp = _segment_crossing_pair(field, xs, ys, level, tolzero)
        if cp is None:
            break  # components merged (or vanished) along this segment
        x_new, y_new = cp
        new_dist = float(np.linalg.norm(x_new - y_new))
        if new_dist >= dist - 1e-15 and _feasible(x, y):
            # Mirror 2-cycle or stall: average the two states and re-snap.
            damped = _segment_crossing_pair(
                field, 0.5 * (x + x_new), 0.5 * (y + y_new), level, tolzero
            )
            if damped is not None:
                x_new, y_new = damped
        _note(x_new, y_new)
        movement = max(
            float(np.linalg.norm(x_new - x)), float(np.linalg.norm(y_new - y))
        )
        x, y = x_new, y_new
        if movement < point_tol:
            break

    if field.differentiable:
        polished = _pair_kkt_polish(field, region, x, y, level)
        if polished is not None:
            pdist = float(np.linalg.norm(polished[0] - polished[1]))
            if pdist <= best_dist + 1e-12:
                x, y = polished
                _note(x, y)

    if best is not None and best_dist < float(np.linalg.norm(x - y)) - 1e-12:
        return best
    return x, y


# --------------------------------------------------------------------------
# The iteration
# --------------------------------------------------------------------------

@dataclass
class LocalOptions:
    """Tolerances and switches for :func:`run_local`."""

    point_tol: float = 1e-10
    gap_tol: float = 1e-12
    max_iter: int = 50
    do_step_1a: bool = False

    def __post_init__(self):
        require_finite_positive("point_tol", self.point_tol)
        require_finite_positive("gap_tol", self.gap_tol)
        require_count("max_iter", self.max_iter)


@dataclass
class LocalIterate:
    """One iteration record: the advanced pair, its bounds, and the minimizer."""

    index: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    f_x: float
    f_z: float
    M: float
    dist: float
    gap_ratio: float


@dataclass
class LocalRun:
    """Full output of :func:`run_local`."""

    initial_pair: tuple[np.ndarray, np.ndarray]
    records: list[LocalIterate]
    converged: bool
    stop_reason: str


def run_local(
    field: ScalarField,
    region: Region,
    x0,
    y0,
    opts: Optional[LocalOptions] = None,
) -> LocalRun:
    """Run the fast local level-set iteration from a pair of endpoints.

    The endpoints are first equalized in value.  They need not lie in
    ``region``, which bounds only the bisector chords (a chord's midpoint
    must lie in it) and the step-1a hyperplanes (through the pair itself).
    Each iteration produces one :class:`LocalIterate`; the sequence of pair
    levels f(x_i) is nondecreasing and, on smooth nondegenerate problems,
    f_z and M bracket the critical value.  An iteration starts with step 1a,
    one :func:`refine_closest_pair` call, when ``opts.do_step_1a`` is set or
    the last iteration left the pair exactly in place (a plain one would only
    repeat it).  Stops when the pair distance or the upper/lower gap is small;
    otherwise returns with ``converged=False``.
    """
    opts = opts or LocalOptions()
    x, y = equalize_endpoints(field, x0, y0)
    initial_pair = (x.copy(), y.copy())

    records: list[LocalIterate] = []
    converged = False
    reason = "max_iter"
    fixed = False

    for i in range(1, opts.max_iter + 1):
        if opts.do_step_1a or fixed:
            x, y = refine_closest_pair(
                field, region, x, y, field.value(x), point_tol=opts.point_tol
            )
        z, f_z = bisector_minimize(field, region, x, y)
        if field.value(x) > f_z + field.level_slack(f_z):
            reason = "bisector_below_level"
            break
        x_new = advance_along_segment(field, x, z, f_z)
        y_new = advance_along_segment(field, y, z, f_z)
        f_x = field.value(x_new)
        dist = float(np.linalg.norm(x_new - y_new))
        if dist > 0.0:
            m_val, _ = segment_max(field, x_new, y_new)
        else:
            m_val = f_x
        gap_ratio = (m_val - f_x) / f_x if f_x != 0.0 else (m_val - f_x)
        records.append(
            LocalIterate(
                index=i, x=x_new, y=y_new, z=z, f_x=f_x, f_z=f_z,
                M=m_val, dist=dist, gap_ratio=gap_ratio,
            )
        )
        fixed = np.array_equal(x_new, x) and np.array_equal(y_new, y)
        x, y = x_new, y_new

        if dist <= opts.point_tol:
            converged = True
            reason = "point_tol"
            break
        if m_val - f_z <= opts.gap_tol:
            converged = True
            reason = "gap_tol"
            break

    return LocalRun(initial_pair=initial_pair, records=records, converged=converged, stop_reason=reason)


def pair_path(field: ScalarField, pairs) -> tuple[np.ndarray, float]:
    """Polyline x0, ..., xk, yk, ..., y0 through pairs (x_i, y_i), with the
    maximum of the field along it (refined per edge)."""
    vertices = np.vstack([p[0] for p in pairs] + [p[1] for p in pairs][::-1])
    best = field.value(vertices[0])
    for a, b in zip(vertices[:-1], vertices[1:]):
        if np.array_equal(a, b):
            continue
        m, _ = segment_max(field, a, b)
        best = max(best, m)
    return vertices, float(best)


def assemble_local_path(field: ScalarField, run: LocalRun) -> tuple[np.ndarray, float]:
    """Polyline x0, x1, ..., xk, yk, ..., y1, y0 with its max-value certificate.

    The maximum of the field along the polyline is an upper bound witness; it
    never exceeds the last segment bound M by more than refinement tolerance.
    """
    if not run.records:
        raise ValueError("run has no records")
    return pair_path(field, [run.initial_pair] + [(r.x, r.y) for r in run.records])
