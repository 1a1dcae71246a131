"""Level bisection with grid component tests.

A level l is a lower bound of the pass value exactly when the two endpoints
sit in different path components of the sublevel set.  The solver bisects the
level, testing connectivity with a flood fill over grid cells whose centers
satisfy ``f <= level`` inside the region (4-connectivity), and keeps the
closest pair between the two components as a shrinking witness of the saddle.
The field values at the cell centers do not depend on the level, so one run
samples the grid once; each level re-thresholds the samples and relabels.

The grid test is restricted to R^2.  It approximates path connectivity at the
grid spacing; rigorous certification is out of scope, and a component thinner
than a cell can only be reported as a resolution limit, not resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import (PreconditionError, ResolutionLimitError, UnsupportedDimensionError,
                     require_count, require_finite_positive)
from .fields import Ball, Region, ScalarField, TestProblem
from .local_solver import pair_path, refine_closest_pair, segment_max

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass
class ComponentQuery:
    """A field, region, level and grid spacing for one connectivity question."""

    field: ScalarField
    region: Region
    level: float
    resolution: float

    def __post_init__(self):
        require_finite_positive("resolution", self.resolution)


@dataclass
class ClosestPair:
    """A locally refined closest pair between two sublevel components."""

    x: np.ndarray
    y: np.ndarray
    dist: float
    on_boundary: bool = False


class _Samples:
    """Field values and region mask at the cell centers of the box [lo, hi]
    at cell size h; nothing here depends on the level."""

    def __init__(self, field: ScalarField, region: Region, h: float, lo, hi):
        self.origin = lo
        self.h = h
        self.nx = max(2, int(math.ceil((hi[0] - lo[0]) / h)))
        self.ny = max(2, int(math.ceil((hi[1] - lo[1]) / h)))
        self.xs = lo[0] + (np.arange(self.nx) + 0.5) * h
        self.ys = lo[1] + (np.arange(self.ny) + 0.5) * h
        gx, gy = np.meshgrid(self.xs, self.ys)  # shape (ny, nx)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        self.vals = field.value_many(pts).reshape(self.ny, self.nx)
        if isinstance(region, Ball):
            rr = (gx - region.center[0]) ** 2 + (gy - region.center[1]) ** 2
            self.inside = rr <= region.radius**2
        else:
            low, up = region.bounding_box()
            self.inside = (gx >= low[0]) & (gx <= up[0]) & (gy >= low[1]) & (gy <= up[1])

    def cell_of(self, x, y):
        """Row and column indices of the cells holding the points (x, y), for
        broadcastable arrays; points outside the box go to its edge cells."""
        ix = np.clip((x - self.origin[0]) / self.h, 0, self.nx - 1).astype(int)
        iy = np.clip((y - self.origin[1]) / self.h, 0, self.ny - 1).astype(int)
        return iy, ix

    def points(self, mask) -> np.ndarray:
        """Centers of the cells where ``mask`` is set, in row-major order."""
        iy, ix = np.nonzero(mask)
        return np.column_stack([self.xs[ix], self.ys[iy]])


def _region_samples(q: ComponentQuery) -> _Samples:
    """Samples of the query's field over its region's bounding box."""
    return _Samples(q.field, q.region, q.resolution, *q.region.bounding_box())


class _Grid:
    """Labeled sublevel mask of the samples at one level."""

    def __init__(self, samples: _Samples, level: float):
        self.samples = samples
        self.mask = (samples.vals <= level) & samples.inside
        self.labels, self.nlabels = ndimage.label(self.mask, structure=_CROSS)

    def seed_label(self, p) -> int:
        """Label of the component holding point p, snapping to the nearest
        in-set cell in a 5x5 neighborhood when p's own cell center fails the
        level test (the cell still contains sublevel points by precondition)."""
        s = self.samples
        p = np.asarray(p, dtype=float)
        iy, ix = s.cell_of(p[0], p[1])
        if self.labels[iy, ix] > 0:
            return int(self.labels[iy, ix])
        near = [(float(np.linalg.norm(np.array([s.xs[jx], s.ys[jy]]) - p)), jy, jx)
                for jy in range(iy - 2, iy + 3) for jx in range(ix - 2, ix + 3)
                if 0 <= jy < s.ny and 0 <= jx < s.nx and self.labels[jy, jx] > 0]
        if not near:
            raise ResolutionLimitError(
                "cannot localize an endpoint's component at the current grid spacing"
            )
        _, jy, jx = min(near)
        return int(self.labels[jy, jx])

    @cached_property
    def interior(self) -> np.ndarray:
        """Cells of the mask whose four neighbors are all in the mask."""
        return ndimage.binary_erosion(self.mask, structure=_CROSS, border_value=0)

    def component_cells(self, label: int) -> np.ndarray:
        """Centers of the component's boundary cells.
        A component cell whose four neighbors are in the mask has them in the
        component too, so one erosion of the mask serves every label."""
        return self.samples.points((self.labels == label) & ~self.interior)


def _validate_query_point(q: ComponentQuery, p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    fp = q.field.value(p)
    if fp > q.level + q.field.level_slack(q.level):
        raise PreconditionError(f"{name} violates f <= level: f={fp}, level={q.level}")
    if not q.region.contains(p):
        raise PreconditionError(f"{name} lies outside the region")
    return p


def _closest_points(pa: np.ndarray, pb: np.ndarray):
    """The closest pair between two point sets, with its distance."""
    d, idx = cKDTree(pb).query(pa)
    j = int(np.argmin(d))
    return pa[j], pb[idx[j]], float(d[j])


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
    fs = _Samples(q.field, q.region, q.resolution / 4.0,
                  np.maximum(center - half, blo), np.minimum(center + half, bhi))
    fine = _Grid(fs, q.level)

    # Coarse label carried by each refined cell.
    tags = grid.labels[grid.samples.cell_of(fs.xs[None, :], fs.ys[:, None])]

    for lab in range(1, fine.nlabels + 1):
        t = tags[fine.labels == lab]
        if np.any(t == la) and np.any(t == lb):
            return True, None

    side_a = fine.mask & (tags == la)
    side_b = fine.mask & (tags == lb)
    if not side_a.any() or not side_b.any():
        return False, None
    return False, _closest_points(fs.points(side_a), fs.points(side_b))[:2]


def _analyze(q: ComponentQuery, a, b, samples: Optional[_Samples] = None):
    """The closest grid-cell pair between the components of a and b, or None
    when they are connected.

    Checks the query (dimension 2, both points feasible) and samples the
    region unless ``samples`` are given.  When the two components come within
    4 cells of each other, one windowed refinement at h/4 decides whether
    they merge and sharpens the pair.
    """
    if q.field.dimension != 2:
        raise UnsupportedDimensionError(
            f"component tests support dimension 2 only, got {q.field.dimension}"
        )
    a = _validate_query_point(q, a, "a")
    b = _validate_query_point(q, b, "b")
    grid = _Grid(samples or _region_samples(q), q.level)
    la = grid.seed_label(a)
    lb = grid.seed_label(b)
    if la == lb:
        return None
    pa, pb, dcells = _closest_points(grid.component_cells(la), grid.component_cells(lb))
    if dcells < 4.0 * q.resolution:
        merged, refined_pair = _refine_window(q, grid, la, lb, pa, pb)
        if merged:
            return None
        if refined_pair is not None:
            return refined_pair
    return pa, pb


def same_component(q: ComponentQuery, a, b) -> bool:
    """Grid flood-fill connectivity of a and b in the sublevel set within the region."""
    return _analyze(q, a, b) is None


def component_distance(
    q: ComponentQuery, a, b, *, samples: Optional[_Samples] = None
) -> Optional[ClosestPair]:
    """Closest pair between the components of a and b, or None when connected.

    Seeds from the closest grid-cell pair, then polishes with the alternating
    hyperplane/segment heuristic until the pair stops moving.  ``samples``
    are the grid samples of an earlier query with the same field, region and
    resolution (``bisect`` passes its own); by default the query samples its
    region itself.
    """
    seed_pair = _analyze(q, a, b, samples)
    if seed_pair is None:
        return None
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
        require_finite_positive("value_tol", self.value_tol)
        require_finite_positive("point_tol", self.point_tol)
        require_count("max_iter", self.max_iter)
        if self.resolution is not None:
            require_finite_positive("resolution", self.resolution)


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
    maximum along any path is an upper bound); given bounds must be finite.
    Each iteration halves the bracket; when the midpoint level separates the
    endpoints, the closest pair between their components becomes the new witness pair.
    """
    opts = opts or BisectionOptions()
    field = problem.field
    if field.dimension != 2:
        raise UnsupportedDimensionError(
            f"bisect requires a 2-dimensional field, got {field.dimension}"
        )
    for name, bound in (("init_lower", init_lower), ("init_upper", init_upper)):
        if bound is not None and not math.isfinite(bound):
            raise ValueError(f"{name} must be finite, got {bound}")
    a, b = problem.endpoints
    fa = field.value(a)
    fb = field.value(b)
    lower = max(fa, fb) if init_lower is None else float(init_lower)
    upper = max(segment_max(field, a, b)[0], lower) if init_upper is None else float(init_upper)
    if upper < lower:
        raise ValueError(f"initial bounds inverted: lower={lower}, upper={upper}")
    if lower < max(fa, fb) - field.level_slack(lower):
        raise ValueError("init_lower must be at least max(f(a), f(b))")

    h = opts.resolution if opts.resolution is not None else problem.region.diameter() / 512.0
    width = upper - lower
    x = a.copy()
    y = b.copy()
    level_of_pair = lower
    history: list = []
    widths = [width]
    pairs = [(a.copy(), b.copy())]
    samples = None  # the grid samples, taken at the first level and reused
    iterations = 0
    converged = False
    reason = "max_iter"
    limit = None

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
        if samples is None:
            samples = _region_samples(q)
        try:
            res = component_distance(q, x, y, samples=samples)
        except ResolutionLimitError as err:
            limit = err
            reason = "resolution_limit"
            break
        if res is None:
            upper = mid
        else:
            lower = mid
            x, y = res.x.copy(), res.y.copy()
            level_of_pair = mid
            pairs.append((x.copy(), y.copy()))
        width = width / 2.0
        widths.append(width)
        history.append((lower, upper, x.copy(), y.copy()))
        iterations += 1

    state = BisectionState(
        lower=lower, upper=upper, pair=(x, y), level_of_pair=level_of_pair,
        history=history, widths=widths, pairs=pairs,
        iterations=iterations, converged=converged, stop_reason=reason,
    )
    if limit is not None:
        raise ResolutionLimitError(str(limit), state=state) from limit
    return state


def assemble_path(problem: TestProblem, state: BisectionState) -> tuple[np.ndarray, float]:
    """Polyline through x0..xi, yi..y0 with the max field value along it."""
    if not state.pairs:
        raise ValueError("state has an empty pair history")
    return pair_path(problem.field, state.pairs)
