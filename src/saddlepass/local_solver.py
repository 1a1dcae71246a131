"""Fast local level-set iteration for index-1 saddle points.

The solver keeps a pair of points at equal function value on either side of a
suspected saddle.  Each iteration minimizes the field on the perpendicular
bisector hyperplane of the pair (a lower bound on the pass value), then slides
both points along the segments toward that minimizer as far as the level of
the minimizer allows.  The maximum of the field on the segment joining the
pair is an upper bound.  Near a nondegenerate saddle of Morse index 1 both
bounds converge superlinearly.

All 1-D segment work (minimize, maximize, level crossings) goes through a
segment oracle so that callers with an exact 1-D solver (the pseudospectral
pipeline has one) can swap out the default sampling-plus-refinement scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Protocol

import numpy as np
from scipy.optimize import brentq, minimize as sp_minimize, minimize_scalar

from .diagnostics import fd_jacobian, gradient_of
from .errors import BoundaryHitError, PreconditionError
from .fields import Region, ScalarField

#: Uniform samples per segment for the default oracle's coarse search.
_SEGMENT_SAMPLES = 64

#: Samples per segment when snapping a closest pair to the sublevel boundary,
#: and the cap on alternating sweeps of :func:`refine_closest_pair`.
_PAIR_SAMPLES = 128
_PAIR_MAX_SWEEPS = 50


# --------------------------------------------------------------------------
# 1-D helpers on parameterized segments
# --------------------------------------------------------------------------

def _newton_polish_1d(phi, t, lo, hi, steps=3):
    """Sharpen a 1-D minimizer with finite-difference Newton steps.

    Exact for quadratics (central differences have no truncation error there),
    which is what makes one-step convergence on pure quadratic saddles land at
    machine precision.
    """
    for _ in range(steps):
        h = 1e-6 * (1.0 + abs(t))
        f0 = phi(t)
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
        if phi(t_new) > f0 + 1e-15 * (1.0 + abs(f0)):
            break
        t = t_new
        if abs(step) <= 1e-15 * (1.0 + abs(t)):
            break
    return t


def _refine_bracket_min(phi, ts, vs, xatol=1e-13):
    """Best sample -> bounded Brent on the bracketing neighbors -> polish."""
    j = int(np.argmin(vs))
    lo = ts[max(j - 1, 0)]
    hi = ts[min(j + 1, len(ts) - 1)]
    t_best, v_best = ts[j], vs[j]
    if hi > lo:
        res = minimize_scalar(phi, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        if res.fun <= v_best:
            t_best, v_best = float(res.x), float(res.fun)
    t_best = _newton_polish_1d(phi, t_best, ts[0], ts[-1])
    return t_best, phi(t_best)


class SegmentOracle(Protocol):
    """Exact or approximate 1-D solvers along segments in R^n."""

    def minimize(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]: ...

    def maximize(self, p: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]: ...

    def advance_limit(
        self, p: np.ndarray, q: np.ndarray, cap: float, slack: float
    ) -> Optional[np.ndarray]: ...

    def first_crossing(
        self, p: np.ndarray, q: np.ndarray, target: float
    ) -> Optional[np.ndarray]: ...


class DefaultSegmentOracle:
    """Uniform sampling plus bisection/Brent refinement on segments.

    Coarse sampling is safe here: near the saddle the field has a single
    interior extremum or first crossing on the segments the solver builds.
    """

    def __init__(self, field: ScalarField):
        self.field = field

    def _sample(self, p, q):
        ts = np.linspace(0.0, 1.0, _SEGMENT_SAMPLES + 1)
        pts = p[None, :] + ts[:, None] * (q - p)[None, :]
        return ts, self.field.value_many(pts)

    def minimize(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = q - p

        def phi(t):
            return self.field.value(p + t * d)

        ts, vs = self._sample(p, q)
        t, v = _refine_bracket_min(phi, ts, vs)
        return p + t * d, float(v)

    def maximize(self, p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = q - p

        def neg(t):
            return -self.field.value(p + t * d)

        ts, vs = self._sample(p, q)
        t, v = _refine_bracket_min(neg, ts, -vs)
        return float(-v), p + t * d

    def advance_limit(self, p, q, cap, slack):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = q - p

        def phi(t):
            return self.field.value(p + t * d)

        ts, vs = self._sample(p, q)
        bad = np.nonzero(vs > cap + slack)[0]
        if bad.size == 0:
            return None
        j = int(bad[0])
        k = j - 1
        while k > 0 and vs[k] > cap:
            k -= 1
        if vs[k] > cap:
            return p.copy()
        if vs[j] <= cap:  # only over by the slack; treat sample as the limit
            return p + ts[j] * d
        t_star = brentq(lambda t: phi(t) - cap, ts[k], ts[j], xtol=1e-15)
        return p + t_star * d

    def first_crossing(self, p, q, target):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        d = q - p

        def phi(t):
            return self.field.value(p + t * d)

        ts, vs = self._sample(p, q)
        if vs[0] >= target:
            return p.copy()
        hit = np.nonzero(vs >= target)[0]
        if hit.size == 0:
            return None
        j = int(hit[0])
        t_star = brentq(lambda t: phi(t) - target, ts[j - 1], ts[j], xtol=1e-15)
        return p + t_star * d


# --------------------------------------------------------------------------
# Hyperplane parameterization and constrained minimization
# --------------------------------------------------------------------------

def _hyperplane_basis(unit_normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of ``unit_normal``.

    Deterministic Householder construction mapping e_n onto the normal; the
    remaining reflector columns span the hyperplane.
    """
    n = unit_normal.size
    if n == 1:
        return np.zeros((1, 0))
    d = unit_normal if unit_normal[-1] >= 0 else -unit_normal
    e = np.zeros(n)
    e[-1] = 1.0
    v = e - d
    s = float(v @ v)
    if s < 1e-26:
        h = np.eye(n)
    else:
        h = np.eye(n) - 2.0 * np.outer(v, v) / s
    return h[:, : n - 1]


def _local_line_minimize(field, origin, direction, tlo, thi, scale):
    """Local 1-D minimizer of the field along a line, near parameter 0.

    Searches a window that doubles until it contains an interior minimum or
    exhausts the feasible interval; refines with bounded Brent plus Newton
    polish.  Returns the parameter value.
    """

    def phi(t):
        return field.value(origin + t * direction)

    w = max(scale, 1e-8)
    while True:
        a = max(tlo, -w)
        b = min(thi, w)
        ts = np.linspace(a, b, 33)
        vs = np.array([phi(t) for t in ts])
        j = int(np.argmin(vs))
        interior = 0 < j < len(ts) - 1
        if interior or (a <= tlo + 1e-300 and b >= thi - 1e-300) or (a == tlo and b == thi):
            break
        w *= 2.0
    t, _ = _refine_bracket_min(phi, ts, vs)
    return t


def minimize_on_hyperplane(
    field: ScalarField,
    region: Region,
    through: np.ndarray,
    normal: np.ndarray,
    oracle: Optional[SegmentOracle] = None,
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
            e1 = through + tlo * u
            e2 = through + thi * u
            orc = oracle or DefaultSegmentOracle(field)
            z, fz = orc.minimize(e1, e2)
            t_star = float((z - through) @ u)
        else:
            t_star = _local_line_minimize(field, through, u, tlo, thi, scale=nn)
            z = through + t_star * u
            fz = field.value(z)
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

    # Newton polish with a finite-difference Jacobian of the reduced gradient.
    def rgrad(w):
        return basis.T @ gradient_of(field, through + basis @ w)

    for _ in range(3):
        gr = rgrad(w)
        try:
            step = np.linalg.solve(fd_jacobian(rgrad, w), -gr)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        w_new = w + step
        if g(w_new) > g(w) + 1e-14 * (1.0 + abs(g(w))):
            break
        w = w_new
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

def equalize_endpoints(
    field: ScalarField,
    x0,
    y0,
    oracle: Optional[SegmentOracle] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace the lower endpoint by the nearest point on [x0, y0] at the higher level."""
    x0 = np.asarray(x0, dtype=float).copy()
    y0 = np.asarray(y0, dtype=float).copy()
    fx = field.value(x0)
    fy = field.value(y0)
    if fx == fy:
        return x0, y0
    orc = oracle or DefaultSegmentOracle(field)
    if fx < fy:
        p = orc.first_crossing(x0, y0, fy)
        if p is None:
            raise PreconditionError("segment never attains the higher endpoint level")
        return p, y0
    p = orc.first_crossing(y0, x0, fx)
    if p is None:
        raise PreconditionError("segment never attains the higher endpoint level")
    return x0, p


def bisector_minimize(
    field: ScalarField,
    region: Region,
    x,
    y,
    oracle: Optional[SegmentOracle] = None,
) -> tuple[np.ndarray, float]:
    """Minimize the field on the perpendicular bisector hyperplane of x and y.

    Near a nondegenerate index-1 saddle the restriction is strictly convex, so
    the local minimizer found here is the unique global one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.array_equal(x, y):
        raise ValueError("bisector is undefined for identical points")
    mid = 0.5 * (x + y)
    return minimize_on_hyperplane(
        field, region, mid, x - y, oracle=oracle, locality="global"
    )


def advance_along_segment(
    field: ScalarField,
    frm,
    to,
    cap: float,
    oracle: Optional[SegmentOracle] = None,
) -> np.ndarray:
    """Furthest point p on [frm, to] with the field at most ``cap`` on [frm, p].

    Returns ``to`` exactly when no checked point violates the cap (this
    exactness is what makes the late-iteration identity with the bisector
    minimizer observable).
    """
    frm = np.asarray(frm, dtype=float)
    to = np.asarray(to, dtype=float)
    slack = 1e-12 * (1.0 + abs(cap))
    f_from = field.value(frm)
    if f_from > cap + slack:
        raise PreconditionError(f"f(from) = {f_from} exceeds cap {cap}")
    if np.array_equal(frm, to):
        return to.copy()
    orc = oracle or DefaultSegmentOracle(field)
    limit = orc.advance_limit(frm, to, cap, slack)
    if limit is None:
        return to.copy()
    return limit


def segment_max(
    field: ScalarField,
    x,
    y,
    oracle: Optional[SegmentOracle] = None,
) -> tuple[float, np.ndarray]:
    """Maximum of the field on the segment [x, y], with its argmax."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.array_equal(x, y):
        raise ValueError("segment endpoints must differ")
    orc = oracle or DefaultSegmentOracle(field)
    return orc.maximize(x, y)


def _sublevel_runs(vs: np.ndarray, level: float, tol: float):
    """Indices of maximal runs of samples with value <= level + tol."""
    below = vs <= level + tol
    runs = []
    start = None
    for i, flag in enumerate(below):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(vs) - 1))
    return runs


def _segment_crossing_pair(field, xs, ys, level, tolzero):
    """Closest pair between the sublevel components met along [xs, ys].

    Returns None when the segment sees fewer than two sublevel runs (the
    components merged along it, or neither endpoint reaches the level).
    """
    seg = ys - xs
    if float(np.linalg.norm(seg)) == 0.0:
        return None

    def phi(t):
        return field.value(xs + t * seg)

    ts = np.linspace(0.0, 1.0, _PAIR_SAMPLES + 1)
    vs = field.value_many(xs[None, :] + ts[:, None] * seg[None, :])
    runs = _sublevel_runs(vs, level, tolzero)
    if len(runs) < 2:
        return None
    end_x = runs[0][1]
    start_y = runs[-1][0]
    if end_x + 1 >= len(ts) or start_y == 0:
        return None
    # Boundary crossing at the inner end of each run; a sample inside the
    # tolerance band counts as already on the boundary.
    if vs[end_x] >= level:
        t1 = ts[end_x]
    else:
        t1 = brentq(lambda t: phi(t) - level, ts[end_x], ts[end_x + 1], xtol=1e-15)
    if vs[start_y] >= level:
        t2 = ts[start_y]
    else:
        t2 = brentq(lambda t: phi(t) - level, ts[start_y - 1], ts[start_y], xtol=1e-15)
    return xs + t1 * seg, xs + t2 * seg


def _pair_kkt_polish(field, region, x, y, level, steps=8):
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

    def residual(x, y, k1, k2):
        d = y - x
        return np.concatenate(
            [
                gradient_of(field, x) - k1 * d,
                gradient_of(field, y) + k2 * d,
                [field.value(x) - level, field.value(y) - level],
            ]
        )

    r = residual(x, y, k1, k2)
    for _ in range(steps):
        nr = float(np.linalg.norm(r))
        if nr <= 1e-13 * (1.0 + abs(level)):
            break
        d = y - x
        hx = fd_jacobian(partial(gradient_of, field), x)
        hy = fd_jacobian(partial(gradient_of, field), y)
        gx = gradient_of(field, x)
        gy = gradient_of(field, y)
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
        r_new = residual(x_new, y_new, k1_new, k2_new)
        if float(np.linalg.norm(r_new)) >= nr:
            break
        x, y, k1, k2, r = x_new, y_new, k1_new, k2_new, r_new
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
    tolzero = 1e-12 * (1.0 + abs(level))

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
                new_dist = float(np.linalg.norm(x_new - y_new))
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
        for name in ("point_tol", "gap_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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
    oracle: Optional[SegmentOracle] = None,
) -> LocalRun:
    """Run the fast local level-set iteration from a pair of endpoints.

    The endpoints are first equalized in value.  Each iteration produces one
    :class:`LocalIterate`; the sequence of pair levels f(x_i) is nondecreasing
    and, on smooth nondegenerate problems, f_z and M bracket the critical
    value.  Stops when the pair distance or the upper/lower gap is small;
    otherwise returns with ``converged=False``.
    """
    opts = opts or LocalOptions()
    orc = oracle or DefaultSegmentOracle(field)
    x, y = equalize_endpoints(field, x0, y0, oracle=orc)
    initial_pair = (x.copy(), y.copy())

    records: list[LocalIterate] = []
    dists = [float(np.linalg.norm(x - y))]
    converged = False
    reason = "max_iter"
    last_refine = -10

    for i in range(1, opts.max_iter + 1):
        if opts.do_step_1a:
            x, y = refine_closest_pair(
                field, region, x, y, field.value(x), point_tol=opts.point_tol
            )
        z, f_z = bisector_minimize(field, region, x, y, oracle=orc)
        slack = 1e-12 * (1.0 + abs(f_z))
        if field.value(x) > f_z + slack:
            reason = "bisector_below_level"
            break
        x_new = advance_along_segment(field, x, z, f_z, oracle=orc)
        y_new = advance_along_segment(field, y, z, f_z, oracle=orc)
        f_x = field.value(x_new)
        dist = float(np.linalg.norm(x_new - y_new))
        if dist > 0.0:
            m_val, _ = segment_max(field, x_new, y_new, oracle=orc)
        else:
            m_val = f_x
        gap_ratio = (m_val - f_x) / f_x if f_x != 0.0 else (m_val - f_x)
        records.append(
            LocalIterate(
                index=i, x=x_new, y=y_new, z=z, f_x=f_x, f_z=f_z,
                M=m_val, dist=dist, gap_ratio=gap_ratio,
            )
        )
        x, y = x_new, y_new
        dists.append(dist)

        if dist <= opts.point_tol:
            converged = True
            reason = "point_tol"
            break
        if m_val - f_z <= opts.gap_tol:
            converged = True
            reason = "gap_tol"
            break

        # Stall detector: less than 1% pair-distance progress over 3 iterations
        # triggers one closest-pair refinement sweep (step 1a on demand).
        if not opts.do_step_1a and i - last_refine >= 3 and len(dists) >= 4:
            if dists[-4] - dists[-1] < 0.01 * dists[-4]:
                x, y = refine_closest_pair(
                    field, region, x, y, field.value(x), point_tol=opts.point_tol
                )
                last_refine = i

    return LocalRun(initial_pair=initial_pair, records=records, converged=converged, stop_reason=reason)


def polyline_max(field: ScalarField, vertices: np.ndarray) -> float:
    """Maximum of the field along a polyline (refined per edge)."""
    best = field.value(vertices[0])
    for a, b in zip(vertices[:-1], vertices[1:]):
        if np.array_equal(a, b):
            continue
        m, _ = segment_max(field, a, b)
        best = max(best, m)
    return float(best)


def assemble_local_path(field: ScalarField, run: LocalRun) -> tuple[np.ndarray, float]:
    """Polyline x0, x1, ..., xk, yk, ..., y1, y0 with its max-value certificate.

    The maximum of the field along the polyline is an upper bound witness; it
    never exceeds the last segment bound M by more than refinement tolerance.
    """
    if not run.records:
        raise ValueError("run has no records")
    xs = [run.initial_pair[0]] + [r.x for r in run.records]
    ys = [r.y for r in run.records][::-1] + [run.initial_pair[1]]
    vertices = np.vstack(xs + ys)
    return vertices, polyline_max(field, vertices)
