"""Level bisection with grid component tests.

A level l is a lower bound of the pass value exactly when the two endpoints
sit in different path components of the sublevel set.  The solver bisects the
level, testing connectivity with a flood fill over grid cells whose centers
satisfy ``f <= level`` inside the region (4-connectivity), and keeps the
closest pair between the two components as a shrinking witness of the saddle.

The grid test is restricted to R^2.  It approximates path connectivity at the
grid spacing; rigorous certification is out of scope, and a component thinner
than a cell can only be reported as a resolution limit, not resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import PreconditionError, ResolutionLimitError, UnsupportedDimensionError
from .fields import Ball, Region, ScalarField, TestProblem
from .local_solver import polyline_max, refine_closest_pair, segment_max

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass
class ComponentQuery:
    """A field, region, level and grid spacing for one connectivity question."""

    field: ScalarField
    region: Region
    level: float
    resolution: float

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")


@dataclass
class ClosestPair:
    """A locally refined closest pair between two sublevel components."""

    x: np.ndarray
    y: np.ndarray
    dist: float
    on_boundary: bool = False


class _Grid:
    """Labeled sublevel mask over the box [lo, hi] at cell size h."""

    def __init__(self, q: ComponentQuery, h: float, lo, hi):
        self.origin = lo
        self.h = h
        self.nx = max(2, int(math.ceil((hi[0] - lo[0]) / h)))
        self.ny = max(2, int(math.ceil((hi[1] - lo[1]) / h)))
        xs = lo[0] + (np.arange(self.nx) + 0.5) * h
        ys = lo[1] + (np.arange(self.ny) + 0.5) * h
        gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = q.field.value_many(pts).reshape(self.ny, self.nx)
        if isinstance(q.region, Ball):
            rr = (gx - q.region.center[0]) ** 2 + (gy - q.region.center[1]) ** 2
            inside = rr <= q.region.radius**2
        else:
            low, up = q.region.bounding_box()
            inside = (gx >= low[0]) & (gx <= up[0]) & (gy >= low[1]) & (gy <= up[1])
        self.mask = (vals <= q.level) & inside
        self.labels, self.nlabels = ndimage.label(self.mask, structure=_CROSS)
        self.xs = xs
        self.ys = ys

    def cell_of(self, p) -> tuple[int, int]:
        ix = int(np.clip((p[0] - self.origin[0]) / self.h, 0, self.nx - 1))
        iy = int(np.clip((p[1] - self.origin[1]) / self.h, 0, self.ny - 1))
        return iy, ix

    def center(self, iy: int, ix: int) -> np.ndarray:
        return np.array([self.xs[ix], self.ys[iy]])

    def seed_label(self, p) -> int:
        """Label of the component holding point p, snapping to the nearest
        in-set cell in a 5x5 neighborhood when p's own cell center fails the
        level test (the cell still contains sublevel points by precondition)."""
        iy, ix = self.cell_of(p)
        if self.labels[iy, ix] > 0:
            return int(self.labels[iy, ix])
        best = None
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                jy, jx = iy + dy, ix + dx
                if 0 <= jy < self.ny and 0 <= jx < self.nx and self.labels[jy, jx] > 0:
                    d = float(np.linalg.norm(self.center(jy, jx) - np.asarray(p, dtype=float)))
                    key = (d, jy, jx)
                    if best is None or key < best[0]:
                        best = (key, int(self.labels[jy, jx]))
        if best is None:
            raise ResolutionLimitError(
                "cannot localize an endpoint's component at the current grid spacing"
            )
        return best[1]

    def component_cells(self, label: int) -> np.ndarray:
        comp = self.labels == label
        boundary = comp & ~ndimage.binary_erosion(comp, structure=_CROSS, border_value=0)
        if not boundary.any():
            boundary = comp
        iy, ix = np.nonzero(boundary)
        return np.column_stack([self.xs[ix], self.ys[iy]])


def _validate_query_point(q: ComponentQuery, p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    tol = 1e-12 * (1.0 + abs(q.level))
    fp = q.field.value(p)
    if fp > q.level + tol:
        raise PreconditionError(f"{name} violates f <= level: f={fp}, level={q.level}")
    if not q.region.contains(p):
        raise PreconditionError(f"{name} lies outside the region")
    return p


def _closest_points(pa: np.ndarray, pb: np.ndarray):
    """The closest pair between two point sets, with its distance."""
    d, idx = cKDTree(pb).query(pa)
    j = int(np.argmin(d))
    return pa[j], pb[idx[j]], float(d[j])


def _closest_cell_pair(grid: _Grid, la: int, lb: int):
    return _closest_points(grid.component_cells(la), grid.component_cells(lb))


def _refine_window(q: ComponentQuery, grid: _Grid, la: int, lb: int, pa, pb):
    """Re-examine a window around the near-touching cells at spacing h/4.

    Refined in-set cells inherit the coarse label of their containing cell;
    a refined component carrying both labels means the two components merge
    at the finer resolution.  Returns (merged, pair) where pair is a refined
    closest cell pair (or None when a side is not visible in the window).
    """
    center = 0.5 * (np.asarray(pa) + np.asarray(pb))
    half = 8.0 * q.resolution
    blo, bhi = q.region.bounding_box()
    fine = _Grid(q, q.resolution / 4.0, np.maximum(center - half, blo),
                 np.minimum(center + half, bhi))
    gx, gy = np.meshgrid(fine.xs, fine.ys)

    # Coarse label carried by each refined cell.
    cix = np.clip(((gx - grid.origin[0]) / grid.h).astype(int), 0, grid.nx - 1)
    ciy = np.clip(((gy - grid.origin[1]) / grid.h).astype(int), 0, grid.ny - 1)
    tags = grid.labels[ciy, cix]

    for lab in range(1, fine.nlabels + 1):
        t = tags[fine.labels == lab]
        if np.any(t == la) and np.any(t == lb):
            return True, None

    side_a = fine.mask & (tags == la)
    side_b = fine.mask & (tags == lb)
    if not side_a.any() or not side_b.any():
        return False, None
    ia = np.column_stack([gx[side_a], gy[side_a]])
    ib = np.column_stack([gx[side_b], gy[side_b]])
    return False, _closest_points(ia, ib)[:2]


def _analyze(q: ComponentQuery, a, b):
    """Labels plus seeds, with one adaptive windowed refinement at h/4 when
    the two components come within 4 cells of each other."""
    grid = _Grid(q, q.resolution, *q.region.bounding_box())
    la = grid.seed_label(a)
    lb = grid.seed_label(b)
    if la == lb:
        return grid, la, lb, None
    pa, pb, dcells = _closest_cell_pair(grid, la, lb)
    seed_pair = (pa, pb)
    if dcells < 4.0 * q.resolution:
        merged, refined_pair = _refine_window(q, grid, la, lb, pa, pb)
        if merged:
            return grid, la, la, None
        if refined_pair is not None:
            seed_pair = refined_pair
    return grid, la, lb, seed_pair


def same_component(q: ComponentQuery, a, b) -> bool:
    """Grid flood-fill connectivity of a and b in the sublevel set within the region."""
    if q.field.dimension != 2:
        raise UnsupportedDimensionError(
            f"component tests support dimension 2 only, got {q.field.dimension}"
        )
    a = _validate_query_point(q, a, "a")
    b = _validate_query_point(q, b, "b")
    _, la, lb, _ = _analyze(q, a, b)
    return la == lb


def component_distance(q: ComponentQuery, a, b) -> Optional[ClosestPair]:
    """Closest pair between the components of a and b, or None when connected.

    Seeds from the closest grid-cell pair, then polishes with the alternating
    hyperplane/segment heuristic until the pair stops moving.
    """
    if q.field.dimension != 2:
        raise UnsupportedDimensionError(
            f"component tests support dimension 2 only, got {q.field.dimension}"
        )
    a = _validate_query_point(q, a, "a")
    b = _validate_query_point(q, b, "b")
    grid, la, lb, seed_pair = _analyze(q, a, b)
    if la == lb:
        return None
    if seed_pair is None:
        seed_pair = _closest_cell_pair(grid, la, lb)[:2]
    pa, pb = seed_pair
    x, y = refine_closest_pair(q.field, q.region, pa, pb, q.level, point_tol=1e-10)
    scale = 1.0 + float(np.linalg.norm(x))
    on_boundary = (
        q.region.boundary_distance(x) <= 1e-7 * scale
        or q.region.boundary_distance(y) <= 1e-7 * scale
    )
    return ClosestPair(x=x, y=y, dist=float(np.linalg.norm(x - y)), on_boundary=on_boundary)


@dataclass
class BisectionOptions:
    value_tol: float = 1e-6
    point_tol: float = 1e-10
    max_iter: int = 80
    resolution: Optional[float] = None

    def __post_init__(self):
        if not self.value_tol > 0 or not self.point_tol > 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class BisectionState:
    """Bracket, witness pair, and per-iteration trace of one bisection run.

    ``widths`` holds the exact bracket-width sequence (each entry is half the
    previous one, exactly, since halving is exact in binary floating point);
    lower/upper are the float realizations of the bracket ends.
    """

    lower: float
    upper: float
    pair: tuple[np.ndarray, np.ndarray]
    level_of_pair: float
    history: list[tuple[float, float, np.ndarray, np.ndarray]]
    widths: list[float]
    pairs: list[tuple[np.ndarray, np.ndarray]]
    certificate_upper: float
    iterations: int
    converged: bool
    stop_reason: str


def bisect(
    problem: TestProblem,
    init_lower: Optional[float] = None,
    init_upper: Optional[float] = None,
    opts: Optional[BisectionOptions] = None,
) -> BisectionState:
    """Bracket the mountain-pass value between the problem's endpoints.

    Defaults: lower bound is the larger endpoint value; upper bound is the
    maximum of the field on the straight segment between the endpoints (the
    maximum along any path is an upper bound).  Each iteration halves the
    bracket; when the midpoint level separates the endpoints, the closest pair
    between their components becomes the new witness pair.
    """
    opts = opts or BisectionOptions()
    field = problem.field
    if field.dimension != 2:
        raise UnsupportedDimensionError(
            f"bisect requires a 2-dimensional field, got {field.dimension}"
        )
    a, b = problem.endpoints
    fa = field.value(a)
    fb = field.value(b)
    lower = max(fa, fb) if init_lower is None else float(init_lower)
    if init_upper is None:
        upper, _ = segment_max(field, a, b)
        upper = max(upper, lower)
    else:
        upper = float(init_upper)
    if upper < lower:
        raise ValueError(f"initial bounds inverted: lower={lower}, upper={upper}")
    if lower < max(fa, fb) - 1e-12 * (1.0 + abs(lower)):
        raise ValueError("init_lower must be at least max(f(a), f(b))")

    h = opts.resolution if opts.resolution is not None else problem.region.diameter() / 512.0
    width = upper - lower
    x = a.copy()
    y = b.copy()
    level_of_pair = lower
    cert = upper
    history: list = []
    widths = [width]
    pairs = [(a.copy(), b.copy())]
    iterations = 0
    converged = False
    reason = "max_iter"

    while iterations < opts.max_iter:
        if width <= opts.value_tol:
            converged = True
            reason = "value_tol"
            break
        if float(np.linalg.norm(x - y)) <= opts.point_tol:
            converged = True
            reason = "point_tol"
            break
        mid = 0.5 * (lower + upper)
        q = ComponentQuery(field, problem.region, mid, h)
        try:
            res = component_distance(q, x, y)
        except ResolutionLimitError as err:
            state = BisectionState(
                lower=lower, upper=upper, pair=(x, y), level_of_pair=level_of_pair,
                history=history, widths=widths, pairs=pairs, certificate_upper=cert,
                iterations=iterations, converged=False, stop_reason="resolution_limit",
            )
            raise ResolutionLimitError(str(err), state=state) from err
        if res is None:
            upper = mid
        else:
            lower = mid
            x, y = res.x.copy(), res.y.copy()
            level_of_pair = mid
            pairs.append((x.copy(), y.copy()))
            if float(np.linalg.norm(x - y)) > 0:
                m_seg, _ = segment_max(field, x, y)
                cert = min(cert, max(m_seg, lower))
        width = width / 2.0
        widths.append(width)
        history.append((lower, upper, x.copy(), y.copy()))
        iterations += 1

    return BisectionState(
        lower=lower, upper=upper, pair=(x, y), level_of_pair=level_of_pair,
        history=history, widths=widths, pairs=pairs, certificate_upper=cert,
        iterations=iterations, converged=converged, stop_reason=reason,
    )


def assemble_path(problem: TestProblem, state: BisectionState) -> tuple[np.ndarray, float]:
    """Polyline through x0..xi, yi..y0 with the max field value along it."""
    if not state.pairs:
        raise ValueError("state has an empty pair history")
    xs = [p[0] for p in state.pairs]
    ys = [p[1] for p in state.pairs][::-1]
    vertices = np.vstack(xs + ys)
    return vertices, polyline_max(problem.field, vertices)
