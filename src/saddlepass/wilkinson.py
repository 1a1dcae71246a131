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
segment extremum is found by Newton steps on the derivatives of sigma that
one full SVD gives (sigma' = Im(u_n^H v_n) on the vertical frame), which
converge quadratically; one crossing test at a level just past it then
certifies that it is global, or finds the piece of the segment that beats it.
Where sigma_min is double or zero to roundoff, or has a kink, level sweeps
alone converge instead.

The eigenvalue pair whose components touch first is guessed by minimizing
sigma over the edges of the Voronoi diagram of the spectrum; the guess can
fail, so the default mode falls back to the other edges' pairs and an
exhaustive mode reruns the local solver over eigenvalue pairs, skipping a
pair when a Voronoi cell it has to leave stays above the heuristic pair's level.
Only the smallest edge minimum matters, so the edges are searched by branch
and bound.  sigma_min(A - z I) is 1-Lipschitz in z (Weyl's inequality), so
between two samples a and b that are l apart it is at least the tent bound
(a + b - l) / 2.  An edge is skipped without minimizing over it when the tent
bounds of its samples clear the best level so far, after at most
``_SUBDIVIDE_MAX`` further SVD samples, or else when its single crossing test
finds no sub-level piece.  Ties go to the first edge in scan order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace
from functools import cache, cached_property, partial
from typing import Optional

import numpy as np

from .errors import (
    NUMERICAL_FAILURES,
    BoundaryHitError,
    DegenerateSpectrumError,
    PreconditionError,
    require_count,
    require_finite,
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

#: Most steps of one Newton polish of a segment extremum, and the step, as a
#: fraction of the segment's length, at which it has converged once the gain
#: the step predicts is also below ``_ULP`` of sigma.
_POLISH_STEPS = 12
_POLISH_XTOL = 1e-10
_ULP = np.finfo(float).eps

#: sigma_min is taken as nonsmooth where it, or its gap to the next singular
#: value, is at most this times the largest: there its singular vectors, and
#: so its derivatives, are lost to roundoff.
_SMOOTH_RTOL = 1e-12

#: Equally spaced samples per Voronoi edge, endpoints included.  Their minima
#: order ``PreparedMatrix.voronoi``, and so the default mode's fallback pairs,
#: and their values seed each edge's Lipschitz bounds in :func:`_dips_below`.
_EDGE_SAMPLES = 8
_EDGE_T = np.linspace(0.0, 1.0, _EDGE_SAMPLES)  # their positions, from start to end

#: Most SVD samples :func:`_dips_below` adds to a segment before it runs a
#: Byers crossing test instead; one such test costs 22 (n = 5) to 36 (n = 28)
#: batched SVD samples.
_SUBDIVIDE_MAX = 16

#: The slack of :func:`_dips_below`'s bounds is this times
#: ``norm + max(|start|, |end|)``: 64 unit roundoffs, for the backward error
#: of each SVD sample and the rounding of its position.
_SAMPLE_SLACK = 64 * np.finfo(float).eps / 2

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
#: and number of reruns of a local solve that hits its boundary (:func:`wilkinson_local`).
_BALL_SPAN = 0.6
_BALL_CAP = 0.9
_BALL_SHRINK = 0.8
_BALL_RETRIES = 2

#: Pairs per array pass of :func:`voronoi_edges`, which bounds its working
#: memory by _CLIP_BLOCK * (n + 4) row entries (a peak of 18 MB at n = 300).
_CLIP_BLOCK = 1024


def _c2p(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


def _p2c(p) -> complex:
    p = np.asarray(p, dtype=float).reshape(2)
    return complex(p[0], p[1])


def _sigma_on_frame(frame: SegmentFrame, y: float, derivatives: bool = False):
    """sigma_min(frame.matrix - i y I) from one SVD.

    With ``derivatives`` it is ``(sigma, sigma', sigma'')`` in y, from one
    full SVD ``U S V^H``.  The matrix moves by -i I per unit of y, so
    sigma' = Im(u_n^H v_n), and sigma'' is the second-order eigenvalue
    perturbation sum of the Hermitian dilation [[0, B], [B^H, 0]], whose
    eigenvalues are +-sigma_j: with c_j = u_j^H v_n and d_j = u_n^H v_j,
    sigma'' = sum_{j<n} |c_j - conj(d_j)|^2 / 2(sigma_n - sigma_j)
    + sum_j |c_j + conj(d_j)|^2 / 2(sigma_n + sigma_j).  Where sigma_n, or
    its gap to sigma_{n-1}, is at most ``_SMOOTH_RTOL * sigma_1``, sigma need
    not be differentiable and both derivatives are None.
    """
    n = frame.matrix.shape[0]
    m = frame.matrix - 1j * y * np.eye(n)
    if not derivatives:
        return float(np.linalg.svd(m, compute_uv=False)[-1])
    u, s, vh = np.linalg.svd(m)
    sigma = float(s[-1])
    tol = _SMOOTH_RTOL * s[0]
    if sigma <= tol or (n > 1 and s[-2] - sigma <= tol):
        return sigma, None, None
    c = u.conj().T @ vh[-1].conj()
    d_conj = vh @ u[:, -1]
    d2 = 0.5 * (np.sum(np.abs(c[:-1] - d_conj[:-1]) ** 2 / (sigma - s[:-1]))
                + np.sum(np.abs(c + d_conj) ** 2 / (sigma + s)))
    return sigma, float(c[-1].imag), float(d2)


def _level_intervals(frame: SegmentFrame, level: float) -> list[tuple[float, float]]:
    """Pieces of the frame's segment cut at the Byers crossings of ``level``.

    On each piece sigma stays on one side of the level (or touches it), so one
    midpoint evaluation tells sub-level pieces from super-level ones.
    """
    ys = byers_vertical_crossings(frame.matrix, 0.0, level)
    ys = ys[(ys > 0.0) & (ys < frame.length)]
    bounds = np.concatenate(([0.0], ys, [frame.length]))
    return list(zip(bounds[:-1], bounds[1:]))


def _polish(g, sign: float, lo: float, hi: float, y: float, tol: float) -> tuple[float, float, bool]:
    """Safeguarded Newton on sigma' = 0 from ``y`` inside [lo, hi].

    ``g(y, True)`` gives sigma, sigma' and sigma''; ``sign`` is 1 for a
    minimum and -1 for a maximum.  Each step shrinks the bracket to the side
    sigma' points to, then takes the Newton step if sigma'' has the
    extremum's sign and the step stays in the bracket, else the bracket's
    midpoint.  Returns the best point visited, its value, and whether the
    polish converged: a Newton step of at most ``tol`` whose predicted gain
    ``sigma'^2 / sigma''`` is below an ulp of sigma, or a bracket shrunk to
    ``tol`` (an extremum at an end of [lo, hi]).  A point where sigma is not
    smooth, or ``_POLISH_STEPS`` steps, stop it unconverged.
    """
    best_y = best = None
    for _ in range(_POLISH_STEPS):
        v, d1, d2 = g(y, True)
        if best is None or sign * v < sign * best:
            best_y, best = y, v
        if d1 is None:
            return best_y, best, False
        if sign * d1 > 0.0:
            hi = y
        else:
            lo = y
        if sign * d2 > 0.0 and lo <= y - d1 / d2 <= hi:
            step = -d1 / d2
            if abs(step) <= tol and abs(d1 * step) <= _ULP * abs(v):
                return best_y, best, True
        elif hi - lo <= tol:
            return best_y, best, True
        else:
            step = 0.5 * (lo + hi) - y
        y += step
    return best_y, best, False


def _segment_extremize(a, p: complex, q: complex, mode: str,
                       samples: Optional[np.ndarray] = None) -> tuple[complex, float]:
    """Global minimum (or maximum) of sigma_min over the segment [p, q].

    ``samples`` are sigma at the segment's :func:`_edge_samples` positions;
    without them sigma is sampled at the ends and the midpoint.  The best
    sample is polished by :func:`_polish` on the rotated vertical frame,
    within the bracket of its neighbouring samples, and level sweeps then
    certify it.  Each sweep sets the level just past the best value,
    ``best * (1 +- _LEVEL_INFLATION)``, cuts the segment at its Byers
    crossings and evaluates the midpoint of every piece except the one that
    holds a converged polish; a midpoint on the extremum's side of the level
    gets its own polish.  A sweep depends only on its level, so the loop ends
    at the first sweep that does not improve, or once no active piece is
    longer than 1e-12 of the segment: a smooth extremum takes one crossing
    test.  Once a polish does not converge (sigma_min double or zero to
    roundoff, a kink), the sweeps evaluate every piece's midpoint and polish
    none, and converge by themselves, since the midpoint of a chord of a
    parabola is its vertex.  A sample's value is kept when nothing beats it,
    so the result is never above (below, for a maximum) a sample.
    """
    sign = 1.0 if mode == "min" else -1.0
    frame = rotate_to_vertical(a, p, q)
    ell = frame.length
    g = cache(partial(_sigma_on_frame, frame))
    if samples is None:
        ys = np.array([0.0, 0.5 * ell, ell])
        samples = np.array([g(y) for y in ys])
    else:
        ys = _EDGE_T * ell
    tol = _POLISH_XTOL * ell

    k = int(np.argmin(sign * samples))
    best_y, best = ys[k], float(samples[k])
    smooth = False
    if best > 0.0:
        y, v, smooth = _polish(g, sign, ys[max(k - 1, 0)], ys[min(k + 1, len(ys) - 1)],
                               best_y, tol)
        if sign * v < sign * best:
            best_y, best = y, v

    for _ in range(_MAX_SWEEPS):
        if best <= 0.0:
            break
        eps = best * (1.0 + sign * _LEVEL_INFLATION)
        improved = False
        max_active = 0.0
        for lo, hi in _level_intervals(frame, eps):
            if hi - lo <= 1e-15 * ell or (smooth and lo <= best_y <= hi):
                continue
            y = 0.5 * (lo + hi)
            v = g(y)
            converged = False
            if sign * v < sign * eps:
                max_active = max(max_active, hi - lo)
                if smooth:
                    y, v, converged = _polish(g, sign, lo, hi, y, tol)
            if sign * v < sign * best:
                best, best_y, smooth = v, y, converged
                improved = True
        if max_active <= 1e-12 * ell or not improved:
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
    overrides of the three :class:`ScalarField` segment methods run the
    certified segment extremization and the block-eigenvalue crossing test
    on ``matrix``.  ``eigs`` are sorted as :func:`eigenvalues` sorts them,
    ``norm`` is the spectral norm, ``tol_eig`` the residual up to which a
    point counts as an eigenvalue, and ``region`` the inflated spectrum box
    that bounds the Voronoi diagram and the default psgrid; each local
    iteration runs in a ball about its own eigenvalue pair instead
    (:func:`_pair_ball`).  ``voronoi`` is the Voronoi stage, built on first
    use and shared by the heuristic, the exhaustive scan's prune and the
    default mode's fallback pairs.
    """

    def __init__(self, a):
        super().__init__(a)
        self.eigs = eigenvalues(self.matrix)
        self.norm = spectral_norm(self.matrix)
        self.tol_eig = 1e-8 * (1.0 + self.norm)
        self.region = _spectrum_box(self.eigs, self.norm)

    @cached_property
    def voronoi(self) -> list[tuple[float, int, VoronoiEdge, np.ndarray]]:
        """``(sample minimum, clip-order index, edge, samples)`` of every
        :func:`voronoi_edges` edge, with its :func:`_edge_samples`, sorted by
        sample minimum: equal minima stay in clip order."""
        edges = voronoi_edges(self.eigs, self.region)
        sampled = ((_edge_samples(self.matrix, e.start, e.end), k, e) for k, e in enumerate(edges))
        return sorted((float(s.min()), k, e, s) for s, k, e in sampled)

    def minimize(self, p, q):
        z, v = segment_minimize_sigma(self.matrix, _p2c(p), _p2c(q))
        return _c2p(z), v

    def maximize(self, p, q):
        v, z = segment_maximize_sigma(self.matrix, _p2c(p), _p2c(q))
        return v, _c2p(z)

    def advance_limit(self, p, q, cap, slack):
        # One crossing test at the cap (Byers needs a positive level, so at
        # cap + slack when the cap is not): the first piece above the level
        # starts the result, if that piece or a later one rises past the slack.
        frame = rotate_to_vertical(self.matrix, _p2c(p), _p2c(q))
        g = partial(_sigma_on_frame, frame)
        level = cap if cap > 0.0 else cap + slack
        start = None
        for lo, hi in _level_intervals(frame, level):
            v = g(0.5 * (lo + hi))
            if start is None and v > level:
                start = lo
            if v > cap + slack:
                return _c2p(frame.point_at(start))
        return None


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
    if not np.isfinite(pts).all():
        raise ValueError("spectrum must be finite")
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


def _edge_samples(a, start: complex, end: complex) -> np.ndarray:
    """sigma at ``_EDGE_SAMPLES`` equally spaced points of [start, end], ends included."""
    return _sigma_batch(a, start + _EDGE_T * (end - start))


def _dips_below(pm: PreparedMatrix, start: complex, end: complex, level: float,
                samples: np.ndarray) -> bool:
    """Can sigma drop below ``level`` on [start, end]?  At most one crossing test.

    ``samples`` are the segment's :func:`_edge_samples`.  A sample below the
    level, or a level Byers cannot test (not positive), answers yes.  sigma
    is 1-Lipschitz, so on an interval of length l between samples a and b it
    is at least the tent bound ``(a + b - l) / 2``, and a bound at or above
    the level plus a slack for the samples' rounding (``_SAMPLE_SLACK``)
    clears the interval.  Past the coarser bound ``min(samples) - h/2``, each
    round samples the midpoints of the uncleared intervals in one batch,
    until a sample is below the level (yes) or every interval clears (no).
    An interval whose smaller end value is g above the level needs at least
    ``ceil(l / 2g) - 1`` more samples, and at least its midpoint; once those
    and the samples spent would pass ``_SUBDIVIDE_MAX``, the level's Byers
    crossings cut the segment into pieces on which sigma stays on one side
    of the level, and a midpoint decides each piece.
    """
    sample_min = samples.min()
    if level <= 0.0 or sample_min < level:
        return True
    cleared = level + _SAMPLE_SLACK * (pm.norm + max(abs(start), abs(end)))
    length = abs(end - start)
    if sample_min - 0.5 * length / (_EDGE_SAMPLES - 1) >= cleared:
        return False
    lo, hi, va, vb = _EDGE_T[:-1], _EDGE_T[1:], samples[:-1], samples[1:]
    spent = 0
    while True:
        l = (hi - lo) * length
        open_ = va + vb - l < 2.0 * cleared
        if not open_.any():
            return False
        lo, hi, va, vb, l = lo[open_], hi[open_], va[open_], vb[open_], l[open_]
        with np.errstate(divide="ignore"):
            need = np.maximum(np.ceil(l / (2.0 * (np.minimum(va, vb) - level))) - 1.0, 1.0)
        if spent + need.sum() > _SUBDIVIDE_MAX:
            break
        spent += len(lo)
        mid = 0.5 * (lo + hi)
        v = _sigma_batch(pm.matrix, start + mid * (end - start))
        if (v < level).any():
            return True
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        va, vb = np.concatenate((va, v)), np.concatenate((v, vb))
    frame = rotate_to_vertical(pm.matrix, start, end)
    return any(_sigma_on_frame(frame, 0.5 * (lo + hi)) < level
               for lo, hi in _level_intervals(frame, level))


def voronoi_heuristic(a) -> tuple[tuple[complex, complex], complex, float]:
    """Guess the first-coalescing eigenvalue pair by minimizing over Voronoi edges.

    Returns the generating pair of the globally minimizing edge, the argmin as
    a seed point, and the minimal sigma value found on the diagram.

    Each edge is sampled at ``_EDGE_SAMPLES`` equally spaced points.  Edges
    are visited by ascending sample minimum and the first is minimized
    outright.  A later edge is tested at the level
    ``best * (1 + _LEVEL_INFLATION)`` by :func:`_dips_below`: it is skipped
    when the tent bounds of its samples, with at most ``_SUBDIVIDE_MAX``
    more taken at interval midpoints, clear the level, or when no piece
    between its Byers crossings of the level has a midpoint below it;
    otherwise it is minimized too.  The bounds allow for the samples'
    rounding, so a skipped edge never holds the winner.  The smallest value
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
    if not pm.voronoi:
        raise RuntimeError("no Voronoi edges inside the bounding box")
    best = None  # (v, edge index, z, edge)
    for _, k, e, samples in pm.voronoi:
        if best is not None and not _dips_below(
            pm, e.start, e.end, best[0] * (1.0 + _LEVEL_INFLATION), samples
        ):
            continue
        z, v = _segment_extremize(pm.matrix, e.start, e.end, "min", samples)
        if best is None or (float(v), k) < best[:2]:
            best = (float(v), k, z, e)
    v, _, z, e = best
    return e.pair, z, v


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
        if _dips_below(pm, p, q, level, _edge_samples(pm.matrix, p, q)):
            return None
    index = {lam: k for k, lam in enumerate(pm.eigs.tolist())}
    is_open = np.zeros(len(pm.eigs), dtype=bool)
    for _, _, e, samples in pm.voronoi:
        i, j = index[e.pair[0]], index[e.pair[1]]
        if not (is_open[i] and is_open[j]) and _dips_below(pm, e.start, e.end, level, samples):
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
    u, s, vh = np.linalg.svd(m - z * np.eye(m.shape[0]))
    if m.shape[0] > 1 and s[-2] - s[-1] < 1e-10:
        warnings.warn(
            "smallest singular value is nearly multiple; singular vectors are ill-conditioned",
            RuntimeWarning,
        )
    return -s[-1] * np.outer(u[:, -1], vh[-1])


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
    Only a run that hits the ball's boundary (:class:`BoundaryHitError`) is
    rerun, in a ball ``_BALL_SHRINK`` times smaller, at most
    ``_BALL_RETRIES`` times; the last hit is raised.  A run that returns is
    final, converged or not, and one with no records raises at once.  Other
    precondition failures (a first chord whose base point lies outside the
    ball) raise at once too, since a smaller ball cannot help.
    """
    pm = prepare(a)
    opts = opts or WilkinsonOptions()
    lam1 = complex(lam1)
    lam2 = complex(lam2)
    require_finite("lam1", lam1)
    require_finite("lam2", lam2)
    if lam1 == lam2:
        raise ValueError("eigenvalue pair must be distinct")
    for lam in (lam1, lam2):
        if pm.sigma_at(lam) > pm.tol_eig:
            raise ValueError(f"{lam} is not an eigenvalue of the matrix (residual > {pm.tol_eig})")

    x0, y0 = (_c2p(z) for z in _start_points(lam1, lam2))
    ball = _pair_ball(pm.eigs, lam1, lam2, pm.tol_eig)
    for retries_left in range(_BALL_RETRIES, -1, -1):
        try:
            run = run_local(pm, ball, x0, y0, opts=opts.local)
            break
        except BoundaryHitError:
            if not retries_left:
                raise
        ball = Ball(ball.center, _BALL_SHRINK * ball.radius)
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
    then runs one loop over eigenvalue pairs.  By default the loop returns
    the first pair that converges: the heuristic pair, else the pairs of the
    other Voronoi edges in ``pm.voronoi`` order, each with the caller's
    options.  A fallback pair's pass need not be the smallest.  With
    ``opts.exhaustive`` the loop sees every pair, nearest first, which covers
    the known failure mode of the heuristic, and returns the smallest
    converged estimate; the pairs other than the heuristic one run at most
    ``_EXHAUSTIVE_MAX_ITER`` iterations per ball, and every pair is recorded
    in ``pair_scan``, a failed solve with its error.  If no pair converges,
    the heuristic pair's result is returned, or its error raised.

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

    pairs = [pair] + [e.pair for _, _, e, _ in pm.voronoi if e.pair != pair]
    scan_opts = opts
    if opts.exhaustive:
        eigs = pm.eigs
        # Scalar abs: numpy's array abs can round the distances differently.
        order = sorted(((i, j) for i in range(len(eigs)) for j in range(i + 1, len(eigs))),
                       key=lambda ij: abs(eigs[ij[0]] - eigs[ij[1]]))
        pairs = [(complex(eigs[i]), complex(eigs[j])) for i, j in order]
        scan_opts = replace(opts, local=replace(opts.local, max_iter=_EXHAUSTIVE_MAX_ITER))

    try:
        heuristic = wilkinson_local(pm, pair[0], pair[1], opts)
    except (*NUMERICAL_FAILURES, ValueError) as err:
        heuristic = err
    open_cells = level = None
    if (opts.exhaustive and not isinstance(heuristic, Exception) and heuristic.converged
            and heuristic.epsilon_bar_estimate > pm.tol_eig):
        level = heuristic.epsilon_bar_estimate * (1.0 + _PRUNE_RTOL)
        open_cells = _open_cells(pm, level)

    scan: list[dict] = []
    converged: list[WilkinsonResult] = []
    for li, lj in pairs:
        if (li, lj) == pair:
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
            if not opts.exhaustive:
                break
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
    require_count("nx", nx)
    require_count("ny", ny)
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
