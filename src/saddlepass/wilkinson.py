"""Wilkinson distance estimation through pseudospectral coalescence.

The 2-norm distance from A to the nearest matrix with a repeated eigenvalue
equals the smallest epsilon at which two components of the epsilon-
pseudospectrum touch.  That touching point is the highest point of an optimal
mountain pass of ``sigma_min(A - z I)`` between two eigenvalues, so the fast
local level-set iteration applies directly on C identified with R^2.

Two pieces make the 1-D subproblems exact here: a unimodular rotation maps any
segment onto a vertical one, and the block-matrix level-crossing test turns
"where does sigma equal eps on this line" into an eigenvalue computation.  A
level-sweep iteration built on those crossings minimizes (or maximizes) sigma
over a segment with locally quadratic convergence.

The eigenvalue pair whose components touch first is guessed by minimizing
sigma over the edges of the Voronoi diagram of the spectrum; the guess can
fail, so an exhaustive mode reruns the local solver over eigenvalue pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    BoundaryHitError,
    DegenerateSpectrumError,
    PreconditionError,
    ResolutionLimitError,
)
from .fields import Box
from .linalg import (
    SegmentFrame,
    SigmaMinField,
    _sigma_batch,
    as_complex_matrix,
    byers_vertical_crossings,
    eigenvalues,
    rotate_to_vertical,
    smallest_singular_value,
    spectral_norm,
)
from .local_solver import LocalIterate, LocalOptions, run_local

#: Relative level inflation per sweep of the segment minimizer, mirroring the
#: standard two-point midpoint scheme.
_LEVEL_INFLATION = 2e-8

_MAX_SWEEPS = 60

#: Fraction of the inter-eigenvalue distance by which the endpoints are pulled
#: inside; exact eigenvalues give sigma = 0 where level components degenerate
#: to points.
_PULL_IN = 0.02

#: Iteration cap per pair in exhaustive mode (converging pairs need few).
_EXHAUSTIVE_MAX_ITER = 20


def _c2p(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


def _p2c(p) -> complex:
    p = np.asarray(p, dtype=float).reshape(2)
    return complex(p[0], p[1])


def _sigma_on_frame(frame: SegmentFrame, y: float) -> float:
    n = frame.matrix.shape[0]
    m = frame.matrix - 1j * y * np.eye(n)
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def _level_intervals(frame: SegmentFrame, level: float, end: float) -> list[tuple[float, float]]:
    """Pieces of [0, end] cut at the Byers crossings of ``level`` on the frame.

    On each piece sigma stays on one side of the level (or touches it), so one
    midpoint evaluation tells sub-level pieces from super-level ones.
    """
    ys = byers_vertical_crossings(frame.matrix, 0.0, level)
    ys = ys[(ys > 0.0) & (ys < end)]
    bounds = np.concatenate(([0.0], ys, [end]))
    return list(zip(bounds[:-1], bounds[1:]))


def _segment_extremize(a, p: complex, q: complex, mode: str) -> tuple[complex, float]:
    """Level-sweep extremization of sigma_min over the segment [p, q].

    Candidates start as the endpoints and midpoint; each sweep sets the level
    just past the current best, computes all crossings on the (rotated
    vertical) segment, and evaluates the midpoints of the sub-level (or
    super-level) intervals.  The midpoint of a chord of a parabola is its
    vertex, which gives locally quadratic convergence of the best value.
    """
    sign = 1.0 if mode == "min" else -1.0
    frame = rotate_to_vertical(a, p, q)
    ell = frame.length

    cache: dict[float, float] = {}

    def g(y: float) -> float:
        if y not in cache:
            cache[y] = _sigma_on_frame(frame, y)
        return cache[y]

    best_y = 0.0
    best = g(0.0)
    for y in (0.5 * ell, ell):
        v = g(y)
        if sign * v < sign * best:
            best, best_y = v, y

    stall = 0
    for _ in range(_MAX_SWEEPS):
        if best <= 0.0 and mode == "min":
            break
        eps = best * (1.0 + sign * _LEVEL_INFLATION)
        if eps <= 0.0:
            break
        improved = False
        max_active = 0.0
        for lo, hi in _level_intervals(frame, eps, ell):
            if hi - lo <= 1e-15 * ell:
                continue
            mid = 0.5 * (lo + hi)
            v = g(mid)
            if sign * v < sign * eps:
                max_active = max(max_active, hi - lo)
            if sign * v < sign * best:
                best, best_y = v, mid
                improved = True
        if max_active <= 1e-12 * ell:
            break
        if not improved:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0
    return frame.point_at(best_y), float(best)


def segment_minimize_sigma(a, p: complex, q: complex) -> tuple[complex, float]:
    """Global minimum of sigma_min(A - z I) over the segment [p, q]."""
    return _segment_extremize(a, p, q, "min")


def segment_maximize_sigma(a, p: complex, q: complex) -> tuple[float, complex]:
    """Global maximum of sigma_min(A - z I) over the segment [p, q]."""
    z, v = _segment_extremize(a, p, q, "max")
    return v, z


class ByersSegmentOracle:
    """Exact 1-D segment solvers for the sigma_min field of a fixed matrix."""

    def __init__(self, a):
        self.matrix = as_complex_matrix(a)

    def minimize(self, p, q):
        z, v = segment_minimize_sigma(self.matrix, _p2c(p), _p2c(q))
        return _c2p(z), v

    def maximize(self, p, q):
        v, z = segment_maximize_sigma(self.matrix, _p2c(p), _p2c(q))
        return v, _c2p(z)

    def advance_limit(self, p, q, cap, slack):
        frame = rotate_to_vertical(self.matrix, _p2c(p), _p2c(q))
        ell = frame.length
        g = partial(_sigma_on_frame, frame)
        eps_det = cap + slack
        if eps_det <= 0.0:
            return None if g(ell) <= eps_det else _c2p(frame.point_at(0.0))
        violation_start = next(
            (lo for lo, hi in _level_intervals(frame, eps_det, ell)
             if hi - lo > 1e-15 * ell and g(0.5 * (lo + hi)) > eps_det),
            None,
        )
        if violation_start is None:
            return None
        # Exact crossing of the cap itself, just before the violation: the
        # start of the first super-cap piece, else the last cap crossing.
        if cap > 0.0:
            pieces = _level_intervals(frame, cap, violation_start + 1e-12 * ell)[:-1]
            if pieces:
                y_star = next(
                    (lo for lo, hi in pieces if g(0.5 * (lo + hi)) > cap), pieces[-1][1]
                )
                return _c2p(frame.point_at(y_star))
        return _c2p(frame.point_at(violation_start))

    def first_crossing(self, p, q, target):
        frame = rotate_to_vertical(self.matrix, _p2c(p), _p2c(q))
        ell = frame.length
        g = partial(_sigma_on_frame, frame)
        if g(0.0) >= target:
            return np.asarray(p, dtype=float).copy()
        if target <= 0.0:
            return None
        # Crossings up to just past q count: q itself often sits at the target.
        pieces = _level_intervals(frame, target, ell * (1 + 1e-12))[:-1]
        for lo, hi in pieces:
            if g(0.5 * (lo + hi)) > target:
                return _c2p(frame.point_at(lo)) if lo > 0 else _c2p(frame.point_at(hi))
        return _c2p(frame.point_at(pieces[0][1])) if pieces else None


# --------------------------------------------------------------------------
# Voronoi heuristic
# --------------------------------------------------------------------------

@dataclass
class VoronoiEdge:
    """A clipped Voronoi edge separating two spectrum points."""

    start: complex
    end: complex
    pair: tuple[complex, complex]


def _spectrum_box(eigs: np.ndarray, norm_a: float) -> Box:
    """Spectrum bounding box inflated by 50% plus an absolute margin."""
    re = eigs.real
    im = eigs.imag
    cx, cy = (re.min() + re.max()) / 2.0, (im.min() + im.max()) / 2.0
    hx = (re.max() - re.min()) / 2.0
    hy = (im.max() - im.min()) / 2.0
    margin = 0.1 * (1.0 + norm_a)
    hx = 1.5 * hx + margin
    hy = 1.5 * hy + margin
    return Box((cx - hx, cy - hy), (cx + hx, cy + hy))


@dataclass(frozen=True)
class PreparedMatrix:
    """A validated matrix with the spectral data every entry point needs.

    ``eigs`` are sorted as :func:`eigenvalues` sorts them, ``norm`` is the
    spectral norm and ``region`` the inflated spectrum box that bounds both
    the Voronoi diagram and the local iteration.
    """

    matrix: np.ndarray
    eigs: np.ndarray
    norm: float
    region: Box


def prepare(a) -> PreparedMatrix:
    """Validate ``a`` and compute its eigenvalues, norm and region once.

    A :class:`PreparedMatrix` is returned unchanged, so entry points that
    call each other share one preparation.
    """
    if isinstance(a, PreparedMatrix):
        return a
    m = as_complex_matrix(a)
    eigs = eigenvalues(m)
    norm_a = spectral_norm(m)
    return PreparedMatrix(matrix=m, eigs=eigs, norm=norm_a, region=_spectrum_box(eigs, norm_a))


def voronoi_edges(spectrum, bbox: Box) -> list[VoronoiEdge]:
    """All Voronoi edges of the spectrum, clipped to the bounding box.

    Brute-force half-plane clipping per unordered pair: the perpendicular
    bisector line of the pair, restricted by every other point's dominance
    half-plane and by the box.  O(n^3), fine for the spectra handled here.
    """
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


def voronoi_heuristic(a) -> tuple[tuple[complex, complex], complex, float]:
    """Guess the first-coalescing eigenvalue pair by minimizing over Voronoi edges.

    Returns the generating pair of the globally minimizing edge, the argmin as
    a seed point, and the minimal sigma value found on the diagram.
    """
    pm = prepare(a)
    eigs = pm.eigs
    gap_tol = 1e-10 * (1.0 + pm.norm)
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if abs(eigs[i] - eigs[j]) <= gap_tol:
                raise DegenerateSpectrumError(complex(eigs[i]))
    best = None
    for e in voronoi_edges(eigs, pm.region):
        z, v = segment_minimize_sigma(pm.matrix, e.start, e.end)
        if best is None or v < best[2]:
            best = (e.pair, z, float(v))
    if best is None:
        raise RuntimeError("no Voronoi edges inside the bounding box")
    return best


# --------------------------------------------------------------------------
# Local solve and the full pipeline
# --------------------------------------------------------------------------

@dataclass
class WilkinsonOptions:
    local: LocalOptions = dc_field(default_factory=LocalOptions)
    exhaustive: bool = False


@dataclass
class WilkinsonResult:
    """Outcome of one local coalescence search (plus optional pair scan)."""

    matrix: np.ndarray
    chosen_pair: tuple[complex, complex]
    coalescence_point: complex
    epsilon_bar_estimate: float
    records: list[LocalIterate]
    converged: bool
    perturbation: Optional[np.ndarray] = None
    heuristic_pair: Optional[tuple[complex, complex]] = None
    heuristic_epsilon: Optional[float] = None
    pair_scan: Optional[list[dict]] = None


def nearest_defective_perturbation(a, z_star: complex) -> np.ndarray:
    """Rank-one perturbation E with ||E||_2 = sigma_min(A - z* I) making z* an eigenvalue.

    E = -sigma u v^H from the smallest singular triple of A - z* I.  The
    eigenvalue property (A + E - z* I) v = 0 holds by construction; the
    multiplicity/defectiveness of z* in A + E is asserted by the literature,
    not checked here.
    """
    m = as_complex_matrix(a)
    z = complex(z_star)
    u_full, s, vh = np.linalg.svd(m - z * np.eye(m.shape[0]))
    sigma = float(s[-1])
    if m.shape[0] > 1 and s[-2] - s[-1] < 1e-10:
        warnings.warn(
            "smallest singular value is nearly multiple; singular vectors are ill-conditioned",
            RuntimeWarning,
        )
    u = u_full[:, -1]
    v = vh[-1, :].conj()
    return -sigma * np.outer(u, v.conj())


def wilkinson_local(
    a, lam1: complex, lam2: complex, opts: Optional[WilkinsonOptions] = None
) -> WilkinsonResult:
    """Run the local level-set iteration on sigma_min between two eigenvalues.

    Endpoints are pulled slightly inside the segment joining the eigenvalues
    and equalized; every 1-D subproblem (bisector minimization, segment
    advance, segment max) is dispatched to the exact crossing-based solvers,
    so the bisector step is solved globally on its chord.
    """
    pm = prepare(a)
    m = pm.matrix
    opts = opts or WilkinsonOptions()
    lam1 = complex(lam1)
    lam2 = complex(lam2)
    if lam1 == lam2:
        raise ValueError("eigenvalue pair must be distinct")
    tol_eig = 1e-8 * (1.0 + pm.norm)
    for lam in (lam1, lam2):
        if smallest_singular_value(m - lam * np.eye(m.shape[0])) > tol_eig:
            raise ValueError(f"{lam} is not an eigenvalue of the matrix (residual > {tol_eig})")

    sfield = SigmaMinField(m).as_scalar_field()
    oracle = ByersSegmentOracle(m)
    x0 = _c2p(lam1 + _PULL_IN * (lam2 - lam1))
    y0 = _c2p(lam2 - _PULL_IN * (lam2 - lam1))
    run = run_local(sfield, pm.region, x0, y0, opts=opts.local, oracle=oracle)
    if not run.records:
        raise PreconditionError("local iteration produced no records")
    last = run.records[-1]
    z_star = _p2c(last.z)
    eps_bar = smallest_singular_value(m - z_star * np.eye(m.shape[0]))
    pert = nearest_defective_perturbation(m, z_star)
    return WilkinsonResult(
        matrix=m,
        chosen_pair=(lam1, lam2),
        coalescence_point=z_star,
        epsilon_bar_estimate=eps_bar,
        records=run.records,
        converged=run.converged,
        perturbation=pert,
    )


def _degenerate_result(m: np.ndarray, lam: complex) -> WilkinsonResult:
    return WilkinsonResult(
        matrix=m,
        chosen_pair=(lam, lam),
        coalescence_point=lam,
        epsilon_bar_estimate=0.0,
        records=[],
        converged=True,
        perturbation=np.zeros_like(m),
    )


def wilkinson_distance(a, opts: Optional[WilkinsonOptions] = None) -> WilkinsonResult:
    """Estimate the Wilkinson distance of a matrix.

    Runs the Voronoi heuristic to pick an eigenvalue pair, then the local
    solver on that pair.  With ``opts.exhaustive`` every eigenvalue pair is
    tried and the smallest converged estimate is returned, covering the known
    failure mode of the heuristic.  The result is a local estimate, not a
    certificate of the global distance.
    """
    pm = prepare(a)
    opts = opts or WilkinsonOptions()
    try:
        pair, _, _ = voronoi_heuristic(pm)
    except DegenerateSpectrumError as err:
        return _degenerate_result(pm.matrix, err.eigenvalue)

    result = wilkinson_local(pm, pair[0], pair[1], opts)
    result.heuristic_pair = pair
    result.heuristic_epsilon = result.epsilon_bar_estimate

    if not opts.exhaustive:
        return result

    eigs = pm.eigs
    pairs = [
        (abs(eigs[i] - eigs[j]), i, j)
        for i in range(len(eigs))
        for j in range(i + 1, len(eigs))
    ]
    pairs.sort(key=lambda t: t[0])

    scan_opts = replace(opts, local=replace(opts.local, max_iter=_EXHAUSTIVE_MAX_ITER))
    scan: list[dict] = []
    best = result
    for _, i, j in pairs:
        li, lj = complex(eigs[i]), complex(eigs[j])
        if (li, lj) == result.heuristic_pair or (lj, li) == result.heuristic_pair:
            entry = result
        else:
            try:
                entry = wilkinson_local(pm, li, lj, scan_opts)
            except (BoundaryHitError, PreconditionError, ResolutionLimitError,
                    ValueError, np.linalg.LinAlgError) as err:
                scan.append({"pair": (li, lj), "epsilon": None, "converged": False,
                             "error": str(err)})
                continue
        scan.append({"pair": (li, lj), "epsilon": entry.epsilon_bar_estimate,
                     "converged": entry.converged, "error": None})
        if entry.converged and entry.epsilon_bar_estimate < best.epsilon_bar_estimate:
            best = entry
    best.heuristic_pair = result.heuristic_pair
    best.heuristic_epsilon = result.heuristic_epsilon
    best.pair_scan = scan
    return best


# --------------------------------------------------------------------------
# Grid sampling
# --------------------------------------------------------------------------

@dataclass
class PseudospectrumGrid:
    """sigma_min sampled on a rectangular grid (rows indexed by y)."""

    xs: np.ndarray
    ys: np.ndarray
    sigma: np.ndarray
    bbox: tuple[float, float, float, float]


def pseudospectrum_grid(a, bbox, nx: int, ny: int) -> PseudospectrumGrid:
    """Sample sigma_min(A - z I) on an nx-by-ny grid over bbox = (x0, y0, x1, y1)."""
    m = as_complex_matrix(a)
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"invalid box {bbox}")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    gx, gy = np.meshgrid(xs, ys)
    zs = gx.ravel() + 1j * gy.ravel()
    sigma = _sigma_batch(m, zs).reshape(ny, nx)
    return PseudospectrumGrid(xs=xs, ys=ys, sigma=sigma, bbox=(x0, y0, x1, y1))


def default_psgrid_box(a) -> tuple[float, float, float, float]:
    """Spectrum bounding box inflated the same way the local solver's region is."""
    box = prepare(a).region
    return (box.lower[0], box.lower[1], box.upper[0], box.upper[1])
