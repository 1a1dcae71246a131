"""Wilkinson distance estimation through pseudospectral coalescence.

The 2-norm distance from A to the nearest matrix with a repeated eigenvalue
equals the smallest epsilon at which two components of the epsilon-
pseudospectrum touch.  That touching point is the highest point of an optimal
mountain pass of ``sigma_min(A - z I)`` between two eigenvalues, so the fast
local level-set iteration applies directly on C identified with R^2, in a
ball about the pair that keeps the other eigenvalues out.

Two pieces make the 1-D subproblems exact here: a unimodular rotation maps any
segment onto a vertical one, and the block-matrix level-crossing test turns
"where does sigma equal eps on this line" into an eigenvalue computation.  A
level-sweep iteration built on those crossings minimizes (or maximizes) sigma
over a segment with locally quadratic convergence.

The eigenvalue pair whose components touch first is guessed by minimizing
sigma over the edges of the Voronoi diagram of the spectrum; the guess can
fail, so an exhaustive mode reruns the local solver over eigenvalue pairs,
skipping a pair when a Voronoi cell it has to leave stays above the
heuristic pair's level.
Only the smallest edge minimum matters, so the edges are searched by branch
and bound.  sigma_min(A - z I) is 1-Lipschitz in z (Weyl's inequality), so a
few samples bound an edge from below; an edge whose bound clears the best
level so far, or whose single crossing test finds no sub-level piece, is
skipped without minimizing over it.  Ties go to the first edge in scan order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace
from functools import cache, partial
from typing import Optional

import numpy as np

from .errors import (
    NUMERICAL_FAILURES,
    BoundaryHitError,
    DegenerateSpectrumError,
    PreconditionError,
)
from .fields import Ball, Box
from .linalg import (
    SegmentFrame,
    SigmaMinField,
    _sigma_batch,
    as_complex_matrix,
    byers_vertical_crossings,
    eigenvalues,
    rotate_to_vertical,
    spectral_norm,
)
from .local_solver import LocalIterate, LocalOptions, run_local

#: Relative level inflation per sweep of the segment minimizer, mirroring the
#: standard two-point midpoint scheme.
_LEVEL_INFLATION = 2e-8

_MAX_SWEEPS = 60

#: Equally spaced samples per Voronoi edge, endpoints included, that order the
#: edges and give each one a Lipschitz lower bound.
_EDGE_SAMPLES = 8

#: Fraction of the inter-eigenvalue distance by which the endpoints are pulled
#: inside; exact eigenvalues give sigma = 0 where level components degenerate
#: to points.
_PULL_IN = 0.02

#: Iteration cap per pair in exhaustive mode (converging pairs need few).
_EXHAUSTIVE_MAX_ITER = 20

#: Relative margin above the heuristic pair's converged epsilon at which the
#: exhaustive scan tests Voronoi cells for pruning: the error a converged
#: estimate may have.
_PRUNE_RTOL = 1e-5

#: Radius factors of the pair ball (:func:`_pair_ball`), and the shrink factor
#: and number of reruns of a local solve that fails in it (:func:`wilkinson_local`).
_BALL_SPAN = 0.6
_BALL_CAP = 0.9
_BALL_SHRINK = 0.8
_BALL_RETRIES = 4

#: Pairs per array pass of :func:`voronoi_edges`, which bounds its working
#: memory by _CLIP_BLOCK * (n + 4) row entries (a peak of 18 MB at n = 300).
_CLIP_BLOCK = 1024


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

    g = cache(partial(_sigma_on_frame, frame))

    best_y = 0.0
    best = g(0.0)
    for y in (0.5 * ell, ell):
        v = g(y)
        if sign * v < sign * best:
            best, best_y = v, y

    stall = 0
    for _ in range(_MAX_SWEEPS):
        if best <= 0.0:
            break
        eps = best * (1.0 + sign * _LEVEL_INFLATION)
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
        stall = 0 if improved else stall + 1
        if stall >= 2:
            break
    return frame.point_at(best_y), float(best)


def segment_minimize_sigma(a, p: complex, q: complex) -> tuple[complex, float]:
    """Global minimum of sigma_min(A - z I) over the segment [p, q]."""
    return _segment_extremize(a, p, q, "min")


def segment_maximize_sigma(a, p: complex, q: complex) -> tuple[float, complex]:
    """Global maximum of sigma_min(A - z I) over the segment [p, q]."""
    z, v = _segment_extremize(a, p, q, "max")
    return v, z


class PreparedMatrix(SigmaMinField):
    """A validated matrix with the spectral data every entry point needs.

    It is the sigma_min field of the matrix with exact segment methods: its
    overrides of the four :class:`ScalarField` segment methods run the
    level-sweep extremization and the block-eigenvalue crossing test on
    ``matrix``.  ``eigs`` are sorted as :func:`eigenvalues` sorts them,
    ``norm`` is the spectral norm, ``tol_eig`` the residual up to which a
    point counts as an eigenvalue, and ``region`` the inflated spectrum box
    that bounds the Voronoi diagram and the default psgrid; each local
    iteration runs in a ball about its own eigenvalue pair instead
    (:func:`_pair_ball`).
    """

    def __init__(self, a):
        super().__init__(a)
        self.eigs = eigenvalues(self.matrix)
        self.norm = spectral_norm(self.matrix)
        self.tol_eig = 1e-8 * (1.0 + self.norm)
        self.region = _spectrum_box(self.eigs, self.norm)

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
        # Crossings up to just past q count: q itself often sits at the target.
        pieces = _level_intervals(frame, target, ell * (1 + 1e-12))[:-1]
        for lo, hi in pieces:
            if g(0.5 * (lo + hi)) > target:
                return _c2p(frame.point_at(lo))
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


def _pair_ball(eigs: np.ndarray, lam1: complex, lam2: complex, tol_eig: float) -> Ball:
    """The local solve's region for the pair: a ball about its midpoint.

    The radius is ``_BALL_SPAN * |lam1 - lam2|``, capped at ``_BALL_CAP``
    times the distance from the midpoint to the nearest third eigenvalue
    (one farther than ``tol_eig`` from both), so that no bisector chord runs
    near an eigenvalue where sigma is about 0.
    """
    mid = 0.5 * (lam1 + lam2)
    r = _BALL_SPAN * abs(lam1 - lam2)
    for lam in eigs.tolist():
        if abs(lam - lam1) > tol_eig and abs(lam - lam2) > tol_eig:
            if lam == mid:
                raise PreconditionError(
                    f"eigenvalue {lam} sits at the midpoint of the pair ({lam1}, {lam2})"
                )
            r = min(r, _BALL_CAP * abs(lam - mid))
    return Ball(_c2p(mid), r)


def _start_points(lam1: complex, lam2: complex) -> tuple[complex, complex]:
    """The pair's endpoints pulled ``_PULL_IN`` of the way towards each other."""
    return lam1 + _PULL_IN * (lam2 - lam1), lam2 - _PULL_IN * (lam2 - lam1)


def prepare(a) -> PreparedMatrix:
    """Validate ``a`` and compute its eigenvalues, norm and region once.

    A :class:`PreparedMatrix` is returned unchanged, so entry points that
    call each other share one preparation.
    """
    return a if isinstance(a, PreparedMatrix) else PreparedMatrix(a)


def voronoi_edges(spectrum, bbox: Box) -> list[VoronoiEdge]:
    """All Voronoi edges of the spectrum, clipped to the bounding box.

    Half-plane clipping of every unordered pair (i, j), i < j, in blocks of
    ``_CLIP_BLOCK`` pairs: on the pair's perpendicular bisector line
    ``z = mid + t*u`` each other point's dominance half-plane and each side
    of the box is a row ``coef * t <= rhs``, and the edge is the interval
    those rows leave.  Exact duplicate points count once.
    """
    pts = np.array(list(dict.fromkeys(np.asarray(spectrum, dtype=complex).reshape(-1).tolist())))
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct spectrum points")
    i, j = np.triu_indices(len(pts), 1)
    blocks = (slice(k, k + _CLIP_BLOCK) for k in range(0, len(i), _CLIP_BLOCK))
    return [edge for b in blocks for edge in _clip_pairs(pts, i[b], j[b], bbox)]


def _clip_pairs(pts: np.ndarray, i: np.ndarray, j: np.ndarray, bbox: Box) -> list[VoronoiEdge]:
    """The edges of the pairs (i[k], j[k]), each clipped on its own row."""
    # numpy's array abs, complex product and square can round differently
    # from its scalar ones; hypot, the written-out product and float_power
    # (libm pow) do not, so each edge is bit for bit that of a pair-by-pair clip.
    sq = lambda z: np.float_power(np.hypot(z.real, z.imag), 2)
    mid = 0.5 * (pts[i] + pts[j])
    d = pts[j] - pts[i]
    dist = np.hypot(d.real, d.imag)
    u = 1j * d / dist
    # |z - zi|^2 <= |z - zk|^2 is linear along the bisector line; the pair's
    # own two points impose nothing.
    w = pts - pts[i][:, None]
    coef = 2.0 * (u.real[:, None] * w.real + u.imag[:, None] * w.imag)
    rhs = sq(pts - mid[:, None]) - sq(pts[i] - mid)[:, None]
    own = np.arange(len(i))
    coef[own, i] = coef[own, j] = rhs[own, i] = rhs[own, j] = 0.0
    (x0, y0), (x1, y1) = bbox.lower, bbox.upper
    coef = np.column_stack([coef, u.real, -u.real, u.imag, -u.imag])
    rhs = np.column_stack([rhs, x1 - mid.real, mid.real - x0, y1 - mid.imag, mid.imag - y0])
    flat = np.abs(coef) < 1e-15 * (1.0 + np.abs(rhs))
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = rhs / coef
    tlo = np.where(~flat & (coef < 0), bound, -np.inf).max(axis=1)
    thi = np.where(~flat & (coef > 0), bound, np.inf).min(axis=1)
    keep = ~(flat & (rhs < 0)).any(axis=1) & (thi - tlo > 1e-12 * (1.0 + dist))
    return [
        VoronoiEdge(start=s, end=e, pair=(p, q))
        for s, e, p, q in zip((mid + tlo * u)[keep].tolist(), (mid + thi * u)[keep].tolist(),
                              pts[i[keep]].tolist(), pts[j[keep]].tolist())
    ]


def _sample_min(a, start: complex, end: complex) -> float:
    """Smallest sigma at ``_EDGE_SAMPLES`` equally spaced points of [start, end]."""
    t = np.linspace(0.0, 1.0, _EDGE_SAMPLES)
    return float(_sigma_batch(a, start + t * (end - start)).min())


def _dips_below(a, start: complex, end: complex, level: float, sample_min: float) -> bool:
    """Can sigma drop below ``level`` on [start, end]?  At most one crossing test.

    ``sample_min`` is :func:`_sample_min` of the segment.  A sample below the
    level, or a level Byers cannot test (not positive), answers yes; the
    Lipschitz bound ``sample_min - h/2`` at or above the level answers no.
    Otherwise the level's Byers crossings cut the segment into pieces on
    which sigma stays on one side of the level, and a midpoint decides.
    """
    if level <= 0.0 or sample_min < level:
        return True
    if sample_min - 0.5 * abs(end - start) / (_EDGE_SAMPLES - 1) >= level:
        return False
    frame = rotate_to_vertical(a, start, end)
    return any(_sigma_on_frame(frame, 0.5 * (lo + hi)) < level
               for lo, hi in _level_intervals(frame, level, frame.length))


def voronoi_heuristic(a) -> tuple[tuple[complex, complex], complex, float]:
    """Guess the first-coalescing eigenvalue pair by minimizing over Voronoi edges.

    Returns the generating pair of the globally minimizing edge, the argmin as
    a seed point, and the minimal sigma value found on the diagram.

    Each edge is sampled at ``_EDGE_SAMPLES`` equally spaced points h apart;
    since sigma is 1-Lipschitz, ``min(samples) - h/2`` bounds sigma on the
    whole edge from below.  Edges are visited by ascending sample minimum and
    the first is minimized outright.  A later edge is tested at the level
    ``best * (1 + _LEVEL_INFLATION)``: it is skipped when its bound reaches
    the level, or when no piece between its Byers crossings of the level has
    a midpoint below it; otherwise it is minimized too.  The smallest value
    wins, and an exact tie goes to the edge that comes first in
    :func:`voronoi_edges` order, so the result is that of minimizing over
    every edge in turn.  Mirror-image edges of a real matrix need not tie:
    :func:`eigenvalues` does not return exact conjugates for real input, so
    last-bit roundoff can pick either pair of a mirror image.
    """
    pm = prepare(a)
    eigs = pm.eigs
    close = np.abs(eigs[:, None] - eigs[None, :]) <= 1e-10 * (1.0 + pm.norm)
    repeated = np.argwhere(np.triu(close, 1))  # row-major: the first (i, j)
    if repeated.size:
        raise DegenerateSpectrumError(complex(eigs[repeated[0, 0]]))
    edges = voronoi_edges(eigs, pm.region)
    if not edges:
        raise RuntimeError("no Voronoi edges inside the bounding box")
    # One stack of samples per edge: stacking every edge at once costs memory.
    sample_min = [_sample_min(pm.matrix, e.start, e.end) for e in edges]
    best = None  # (v, edge index, z)
    for k in sorted(range(len(edges)), key=sample_min.__getitem__):
        e = edges[k]
        if best is not None and not _dips_below(
            pm.matrix, e.start, e.end, best[0] * (1.0 + _LEVEL_INFLATION), sample_min[k]
        ):
            continue
        z, v = segment_minimize_sigma(pm.matrix, e.start, e.end)
        if best is None or (float(v), k) < best[:2]:
            best = (float(v), k, z)
    v, k, z = best
    return edges[k].pair, z, v


def _open_cells(pm: PreparedMatrix, level: float) -> Optional[np.ndarray]:
    """Which Voronoi cells of ``pm.eigs`` sigma may leave below ``level``.

    Entry k is True when some clipped edge of the cell of ``pm.eigs[k]`` may
    dip below the level (:func:`_dips_below`), else sigma is at least the
    level on all of them.  A path from a closed cell to another cell crosses
    one of its edges or leaves ``pm.region``, so when no side of the region
    dips either, sigma reaches the level on every such path.  When a side
    may dip, None is returned: then no cell is known to be closed.
    """
    (x0, y0), (x1, y1) = pm.region.lower, pm.region.upper
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]
    for p, q in zip(corners, corners[1:] + corners[:1]):
        if _dips_below(pm.matrix, p, q, level, _sample_min(pm.matrix, p, q)):
            return None
    index = {lam: k for k, lam in enumerate(pm.eigs.tolist())}
    is_open = np.zeros(len(pm.eigs), dtype=bool)
    for e in voronoi_edges(pm.eigs, pm.region):
        i, j = index[e.pair[0]], index[e.pair[1]]
        if not (is_open[i] and is_open[j]) and _dips_below(
            pm.matrix, e.start, e.end, level, _sample_min(pm.matrix, e.start, e.end)
        ):
            is_open[i] = is_open[j] = True
    return is_open


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
    #: Why the last local run stopped (a :class:`LocalRun` stop reason), or
    #: ``"degenerate_spectrum"`` for a repeated eigenvalue.
    stop_reason: str
    perturbation: Optional[np.ndarray] = None
    heuristic_pair: Optional[tuple[complex, complex]] = None
    heuristic_epsilon: Optional[float] = None
    #: Exhaustive mode only: one dict per eigenvalue pair, nearest first,
    #: with keys ``pair``, ``epsilon``, ``converged`` and ``error``.  A pair
    #: whose solve raised has ``epsilon`` None and its message in ``error``.
    #: So has a skipped pair, whose ``error`` starts with "skipped" and gives
    #: the level L its pass is known to reach (see :func:`wilkinson_distance`).
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
    and equalized.  The run is on the :class:`PreparedMatrix` itself, whose
    segment methods are exact, so every 1-D subproblem (bisector
    minimization, segment advance, segment max) goes to the crossing-based
    solvers and the bisector step is solved globally on its chord.

    The iteration runs in the pair's ball (:func:`_pair_ball`), not in the
    matrix's ``region``: the pass is decided by the two components that
    meet, and a chord that reaches a third eigenvalue dips below the level.
    A run that hits the ball's boundary, stops unconverged or produces no
    records is rerun in a ball ``_BALL_SHRINK`` times smaller, at most
    ``_BALL_RETRIES`` times; the last run's result is returned, or its error
    raised.  Other precondition failures (a first chord whose base point
    lies outside the ball) raise at once, since a smaller ball cannot help.
    """
    pm = prepare(a)
    opts = opts or WilkinsonOptions()
    lam1 = complex(lam1)
    lam2 = complex(lam2)
    if lam1 == lam2:
        raise ValueError("eigenvalue pair must be distinct")
    for lam in (lam1, lam2):
        if pm.sigma_at(lam) > pm.tol_eig:
            raise ValueError(f"{lam} is not an eigenvalue of the matrix (residual > {pm.tol_eig})")

    x0, y0 = (_c2p(z) for z in _start_points(lam1, lam2))
    ball = _pair_ball(pm.eigs, lam1, lam2, pm.tol_eig)
    for _ in range(_BALL_RETRIES + 1):
        try:
            run = run_local(pm, ball, x0, y0, opts=opts.local)
        except BoundaryHitError as err:
            run = err
        else:
            if run.converged:
                break
        ball = Ball(ball.center, _BALL_SHRINK * ball.radius)
    if isinstance(run, Exception):
        raise run
    if not run.records:
        raise PreconditionError("local iteration produced no records")
    last = run.records[-1]
    z_star = _p2c(last.z)
    eps_bar = pm.sigma_at(z_star)
    pert = nearest_defective_perturbation(pm.matrix, z_star)
    return WilkinsonResult(
        matrix=pm.matrix,
        chosen_pair=(lam1, lam2),
        coalescence_point=z_star,
        epsilon_bar_estimate=eps_bar,
        records=run.records,
        converged=run.converged,
        stop_reason=run.stop_reason,
        perturbation=pert,
    )


def wilkinson_distance(a, opts: Optional[WilkinsonOptions] = None) -> WilkinsonResult:
    """Estimate the Wilkinson distance of a matrix.

    Runs the Voronoi heuristic to pick an eigenvalue pair, solves that pair,
    then runs one loop over eigenvalue pairs and returns the smallest
    converged estimate.  By default the loop sees only the heuristic pair.
    With ``opts.exhaustive`` it sees every pair, nearest first, which covers
    the known failure mode of the heuristic; the pairs other than the
    heuristic one run at most ``_EXHAUSTIVE_MAX_ITER`` iterations per ball,
    and every pair is recorded in ``pair_scan``, a failed solve with its
    error.  If no pair converges, the heuristic pair's result is returned, or
    its error raised.

    The exhaustive loop skips pairs that cannot beat the heuristic.  When
    the heuristic pair converges at eps_h above ``pm.tol_eig``, the level
    ``L = eps_h * (1 + _PRUNE_RTOL)`` is tested on every Voronoi edge and
    every side of ``pm.region`` (:func:`_open_cells`).  If no side dips below
    L, a pair whose two start points lie in different cells, one of them
    with no edge dipping below L, is skipped: every path between the start
    points leaves that cell through its boundary, where sigma >= L, so the
    pair's pass is at least L (Alam, Bora, Byers and Overton, LAA 2011).
    Below ``tol_eig`` the crossing test can miss crossings, so nothing is
    skipped there.  The result is a local estimate, not a certificate of the
    global distance.
    """
    pm = prepare(a)
    opts = opts or WilkinsonOptions()
    try:
        pair, _, _ = voronoi_heuristic(pm)
    except DegenerateSpectrumError as err:
        lam = err.eigenvalue
        return WilkinsonResult(
            matrix=pm.matrix,
            chosen_pair=(lam, lam),
            coalescence_point=lam,
            epsilon_bar_estimate=0.0,
            records=[],
            converged=True,
            stop_reason="degenerate_spectrum",
            perturbation=np.zeros_like(pm.matrix),
        )

    pairs = [pair]
    if opts.exhaustive:
        eigs = pm.eigs
        # Scalar abs: numpy's array abs can round the distances differently.
        order = sorted(((i, j) for i in range(len(eigs)) for j in range(i + 1, len(eigs))),
                       key=lambda ij: abs(eigs[ij[0]] - eigs[ij[1]]))
        pairs = [(complex(eigs[i]), complex(eigs[j])) for i, j in order]

    try:
        heuristic = wilkinson_local(pm, pair[0], pair[1], opts)
    except (*NUMERICAL_FAILURES, ValueError) as err:
        heuristic = err
    open_cells = level = None
    if (opts.exhaustive and not isinstance(heuristic, Exception) and heuristic.converged
            and heuristic.epsilon_bar_estimate > pm.tol_eig):
        level = heuristic.epsilon_bar_estimate * (1.0 + _PRUNE_RTOL)
        open_cells = _open_cells(pm, level)

    scan_opts = replace(opts, local=replace(opts.local, max_iter=_EXHAUSTIVE_MAX_ITER))
    scan: list[dict] = []
    converged: list[WilkinsonResult] = []
    for li, lj in pairs:
        if (li, lj) in (pair, pair[::-1]):
            entry = heuristic
        else:
            if open_cells is not None:
                ci, cj = (int(np.argmin(np.abs(pm.eigs - z))) for z in _start_points(li, lj))
                if ci != cj and not (open_cells[ci] and open_cells[cj]):
                    scan.append({"pair": (li, lj), "epsilon": None, "converged": False,
                                 "error": f"skipped: sigma stays at or above {level!r} on "
                                          "the Voronoi cell boundary of a start point"})
                    continue
            try:
                entry = wilkinson_local(pm, li, lj, scan_opts)
            except (*NUMERICAL_FAILURES, ValueError) as err:
                entry = err
        if isinstance(entry, Exception):
            scan.append({"pair": (li, lj), "epsilon": None, "converged": False,
                         "error": str(entry)})
            continue
        scan.append({"pair": (li, lj), "epsilon": entry.epsilon_bar_estimate,
                     "converged": entry.converged, "error": None})
        if entry.converged:
            converged.append(entry)
    if not converged and isinstance(heuristic, Exception):
        raise heuristic
    # Smallest epsilon; ties go to the heuristic pair, then to scan order.
    best = min(converged, key=lambda r: (r.epsilon_bar_estimate, r is not heuristic),
               default=heuristic)
    best.heuristic_pair = pair
    best.heuristic_epsilon = (
        None if isinstance(heuristic, Exception) else heuristic.epsilon_bar_estimate
    )
    best.pair_scan = scan if opts.exhaustive else None
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
    """Sample sigma_min(A - z I) on an nx-by-ny grid over bbox = (x0, y0, x1, y1),
    or over the prepared matrix's region (the spectrum box) when bbox is None."""
    pm = prepare(a)
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    if bbox is None:
        bbox = (*pm.region.lower, *pm.region.upper)
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (x1 > x0 and y1 > y0 and np.all(np.isfinite((x0, y0, x1, y1)))):
        raise ValueError(f"invalid box {bbox}")
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    gx, gy = np.meshgrid(xs, ys)
    sigma = pm.value_many(np.column_stack([gx.ravel(), gy.ravel()])).reshape(ny, nx)
    return PseudospectrumGrid(xs=xs, ys=ys, sigma=sigma, bbox=(x0, y0, x1, y1))
