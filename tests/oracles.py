"""Independent reference computations used to freeze expected test values.

Everything here is deliberately implemented without touching the solver code
paths being checked: plain Newton iterations, dense scans with bisection
refinement, golden-section search, and a run-based union-find labeler.
"""

from __future__ import annotations

import numpy as np

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def damped_newton_critical_point(grad, hess, x0, tol=1e-13, max_iter=200):
    """Find a zero of grad by Newton steps damped on the gradient norm."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        g = grad(x)
        ng = np.linalg.norm(g)
        if ng <= tol:
            return x
        step = np.linalg.solve(hess(x), -g)
        t = 1.0
        while t > 1e-12 and np.linalg.norm(grad(x + t * step)) >= ng:
            t *= 0.5
        x = x + t * step
    return x


def golden_minimize(phi, a, b, tol=1e-13, max_iter=400):
    """Golden-section minimization on [a, b]."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = phi(c), phi(d)
    for _ in range(max_iter):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = phi(d)
    t = 0.5 * (a + b)
    return t, phi(t)


def scan_first_crossing(phi, target, n=100_000, refine=60):
    """First t in [0, 1] with phi(t) >= target, by dense scan plus bisection."""
    ts = np.linspace(0.0, 1.0, n)
    vs = np.array([phi(t) for t in ts])
    hit = np.nonzero(vs >= target)[0]
    if hit.size == 0:
        return None
    j = int(hit[0])
    if j == 0:
        return 0.0
    lo, hi = ts[j - 1], ts[j]
    for _ in range(refine):
        mid = 0.5 * (lo + hi)
        if phi(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def scan_first_rise(phi_many, cap, n=10_001, refine=60):
    """First t in [0, 1] where phi rises above ``cap``, by dense scan plus bisection.

    ``phi_many`` maps an array of t to values.  The rise is 0 when the first
    sample is above the cap, and None when no sample is.
    """
    ts = np.linspace(0.0, 1.0, n)
    above = np.nonzero(phi_many(ts) > cap)[0]
    if above.size == 0:
        return None
    j = int(above[0])
    if j == 0:
        return 0.0
    lo, hi = ts[j - 1], ts[j]
    for _ in range(refine):
        mid = 0.5 * (lo + hi)
        if phi_many(np.array([mid]))[0] > cap:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def scan_sigma_crossings(a, x, eps, n=10_000, refine=60):
    """Heights where some singular value of A - (x+iy)I equals eps.

    Sign-change scan of the parity of the count of singular values below eps;
    tangential (non-crossing) contacts are invisible to this oracle by design.
    """
    a = np.asarray(a, dtype=complex)
    dim = a.shape[0]
    norm = float(np.linalg.svd(a, compute_uv=False)[0])
    radius = abs(x) + norm + eps + 1.0
    ys = np.linspace(-radius, radius, n)
    eye = np.eye(dim)
    stack = a[None, :, :] - (x + 1j * ys)[:, None, None] * eye[None, :, :]
    sv = np.linalg.svd(stack, compute_uv=False)
    parity = (sv < eps).sum(axis=1) % 2

    def parity_at(y):
        s = np.linalg.svd(a - (x + 1j * y) * eye, compute_uv=False)
        return (s < eps).sum() % 2

    out = []
    for j in np.nonzero(np.diff(parity) != 0)[0]:
        lo, hi = ys[j], ys[j + 1]
        for _ in range(refine):
            mid = 0.5 * (lo + hi)
            if parity_at(mid) == parity[j]:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def level_sweep_extremize(a, p, q, mode="min", inflation=2e-8, max_sweeps=60):
    """Minimum (or maximum) of sigma_min(A - z I) on [p, q] by level sweeps alone.

    The segment solver before its Newton polish: candidates are the
    endpoints and the midpoint; each sweep sets the level just past the best
    value, cuts the rotated vertical segment at the level's Byers crossings
    and evaluates every piece's midpoint, until a sweep improves nothing or
    no active piece is longer than 1e-12 of the segment.
    """
    from saddlepass.linalg import byers_vertical_crossings, rotate_to_vertical

    sign = 1.0 if mode == "min" else -1.0
    frame = rotate_to_vertical(a, p, q)
    ell = frame.length
    eye = np.eye(frame.matrix.shape[0])

    def g(y):
        return float(np.linalg.svd(frame.matrix - 1j * y * eye, compute_uv=False)[-1])

    best_y, best = 0.0, g(0.0)
    for y in (0.5 * ell, ell):
        v = g(y)
        if sign * v < sign * best:
            best, best_y = v, y
    for _ in range(max_sweeps):
        if best <= 0.0:
            break
        level = best * (1.0 + sign * inflation)
        ys = byers_vertical_crossings(frame.matrix, 0.0, level)
        bounds = np.concatenate(([0.0], ys[(ys > 0.0) & (ys < ell)], [ell]))
        improved = False
        max_active = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo <= 1e-15 * ell:
                continue
            mid = 0.5 * (lo + hi)
            v = g(mid)
            if sign * v < sign * level:
                max_active = max(max_active, hi - lo)
            if sign * v < sign * best:
                best, best_y = v, mid
                improved = True
        if max_active <= 1e-12 * ell or not improved:
            break
    return frame.point_at(best_y), best


class _RunUnionFind:
    def __init__(self, n):
        self.parent = np.arange(n)

    def find(self, i):
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def sublevel_runs(vs, level: float) -> list[tuple[int, int]]:
    """(first, last) indices of the maximal runs of samples with value <= level."""
    runs = []
    start = None
    for i, v in enumerate(vs):
        if v <= level and start is None:
            start = i
        elif v > level and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(vs) - 1))
    return runs


def label_mask_components(mask: np.ndarray) -> np.ndarray:
    """4-connected component labels of a boolean mask, by run merging.

    Rows are split into horizontal runs; vertically adjacent runs are unioned.
    Returns an int array with 0 outside the mask and 1-based labels inside.
    """
    ny, nx = mask.shape
    run_id = np.full((ny, nx), -1, dtype=np.int64)
    run_rows = []
    count = 0
    for r in range(ny):
        row = mask[r]
        padded = np.concatenate(([False], row, [False]))
        starts = np.nonzero(~padded[:-1] & padded[1:])[0]
        ends = np.nonzero(padded[:-1] & ~padded[1:])[0]
        for s, e in zip(starts, ends):
            run_id[r, s:e] = count
            run_rows.append(r)
            count += 1
    uf = _RunUnionFind(count)
    for r in range(1, ny):
        both = mask[r - 1] & mask[r]
        for c in np.nonzero(both)[0]:
            uf.union(run_id[r - 1, c], run_id[r, c])
    roots = np.array([uf.find(i) for i in range(count)]) if count else np.array([], int)
    relabel = {root: k + 1 for k, root in enumerate(dict.fromkeys(roots))}
    labels = np.zeros((ny, nx), dtype=np.int64)
    for r in range(ny):
        for c in np.nonzero(mask[r])[0]:
            labels[r, c] = relabel[roots[run_id[r, c]]]
    return labels


def voronoi_edges_reference(spectrum, bbox):
    """All Voronoi edges of the spectrum, clipped to the bounding box.

    Brute-force half-plane clipping per unordered pair: the perpendicular
    bisector line of the pair, restricted by every other point's dominance
    half-plane and by the box.  O(n^3), one pair and one point at a time.
    """
    from saddlepass.wilkinson import VoronoiEdge

    pts = np.asarray(spectrum, dtype=complex).reshape(-1)
    uniq: list[complex] = []
    for z in pts:
        if all(abs(z - w) > 0 for w in uniq):
            uniq.append(complex(z))
    if len(uniq) < 2:
        raise ValueError("need at least 2 distinct spectrum points")
    pts = np.array(uniq)
    edges: list[VoronoiEdge] = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            zi, zj = pts[i], pts[j]
            mid = 0.5 * (zi + zj)
            d = zj - zi
            # Direction along the bisector.
            u = 1j * d / abs(d)
            base = np.array([mid.real, mid.imag])
            du = np.array([u.real, u.imag])
            interval = bbox.line_interval(base, du)
            if interval is None:
                continue
            tlo, thi = interval
            ok = True
            for k in range(len(pts)):
                if k in (i, j):
                    continue
                zk = pts[k]
                # |z - zi|^2 <= |z - zk|^2 is linear along the bisector line:
                # with z = mid + t*u, it reads coef * t <= rhs.
                coef = 2.0 * (u * (zk - zi).conjugate()).real
                rhs = abs(zk - mid) ** 2 - abs(zi - mid) ** 2
                if abs(coef) < 1e-15 * (1.0 + abs(rhs)):
                    if rhs < 0:
                        ok = False
                        break
                    continue
                bound = rhs / coef
                if coef > 0:
                    thi = min(thi, bound)
                else:
                    tlo = max(tlo, bound)
                if tlo >= thi:
                    ok = False
                    break
            if not ok or thi - tlo <= 1e-12 * (1.0 + abs(d)):
                continue
            z0 = mid + tlo * u
            z1 = mid + thi * u
            edges.append(VoronoiEdge(start=complex(z0), end=complex(z1),
                                     pair=(complex(zi), complex(zj))))
    return edges


def sweeps_then_polish(field, region, x, y, level, point_tol=1e-10, max_sweeps=50):
    """Closest pair by alternating sweeps run to a standstill or to
    ``max_sweeps``, with one Newton polish at the end.

    The one reference here built on the solver's own parts: a frozen copy of
    the closest-pair loop that ran every sweep before its polish, kept to
    measure the sweep-by-sweep Newton handoff of ``refine_closest_pair``
    against.  Returns the best pair seen.
    """
    from saddlepass.errors import BoundaryHitError
    from saddlepass.local_solver import (
        _pair_kkt_polish,
        _segment_crossing_pair,
        minimize_on_hyperplane,
    )

    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    tolzero = field.level_slack(level)

    def feasible(p, q):
        return field.value(p) <= level + tolzero and field.value(q) <= level + tolzero

    best = (x.copy(), y.copy()) if feasible(x, y) else None
    best_dist = float(np.linalg.norm(x - y)) if best is not None else np.inf

    def note(p, q):
        nonlocal best, best_dist
        d = float(np.linalg.norm(p - q))
        if d < best_dist:
            best, best_dist = (p.copy(), q.copy()), d

    def hyperplane_min(p, d):
        try:
            return minimize_on_hyperplane(field, region, p, d, locality="local")[0]
        except BoundaryHitError as hit:
            return hit.point

    for _ in range(max_sweeps):
        d = x - y
        dist = float(np.linalg.norm(d))
        if dist == 0.0:
            break
        cp = _segment_crossing_pair(field, hyperplane_min(x, d), hyperplane_min(y, d),
                                    level, tolzero)
        if cp is None:
            break
        x_new, y_new = cp
        if float(np.linalg.norm(x_new - y_new)) >= dist - 1e-15 and feasible(x, y):
            damped = _segment_crossing_pair(field, 0.5 * (x + x_new), 0.5 * (y + y_new),
                                            level, tolzero)
            if damped is not None:
                x_new, y_new = damped
        note(x_new, y_new)
        movement = max(float(np.linalg.norm(x_new - x)), float(np.linalg.norm(y_new - y)))
        x, y = x_new, y_new
        if movement < point_tol:
            break
    if field.differentiable:
        polished = _pair_kkt_polish(field, region, x, y, level)
        if polished is not None:
            px, py = polished[:2]
            if float(np.linalg.norm(px - py)) <= best_dist + 1e-12:
                x, y = px, py
                note(x, y)
    if best is not None and best_dist < float(np.linalg.norm(x - y)) - 1e-12:
        return best
    return x, y
