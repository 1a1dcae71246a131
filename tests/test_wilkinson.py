import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import saddlepass.wilkinson as wk
from saddlepass import (
    Box,
    LocalOptions,
    LocalRun,
    ScalarField,
    SigmaMinField,
    WilkinsonOptions,
    eigenvalues,
    equalize_endpoints,
    nearest_defective_perturbation,
    pseudospectrum_grid,
    segment_minimize_sigma,
    smallest_singular_value,
    voronoi_edges,
    voronoi_heuristic,
    wilkinson_distance,
    wilkinson_local,
)
from saddlepass.errors import BoundaryHitError, DegenerateSpectrumError, PreconditionError

from conftest import BIDIAG_5X5_EPS, bidiagonal_5x5, bidiagonal_10x10
from oracles import golden_minimize, voronoi_edges_reference


# ------------------------------------------------------ segment minimizers

def test_segment_minimize_two_point_spectrum():
    # On the bisector edge between the eigenvalues 0 and 2, sigma_min is
    # sqrt(1 + y^2), minimized at z = 1 with value 1.
    a = np.diag([0.0, 2.0]).astype(complex)
    z, v = segment_minimize_sigma(a, 1.0 - 1.0j, 1.0 + 1.0j)
    assert abs(z - 1.0) <= 1e-9
    assert abs(v - 1.0) <= 1e-12
    # On the segment joining the eigenvalues themselves the global minimum is
    # 0, attained at an endpoint (endpoints are always candidates).
    z2, v2 = segment_minimize_sigma(a, 0.0, 2.0)
    assert v2 == 0.0
    assert abs(z2) <= 1e-15 or abs(z2 - 2.0) <= 1e-15


def test_segment_minimize_scalar_matrix():
    z, v = segment_minimize_sigma([[0.0]], 1.0 - 1.0j, 1.0 + 1.0j)
    assert abs(z - 1.0) <= 1e-9
    assert abs(v - 1.0) <= 1e-12


def test_segment_minimize_rejects_degenerate_segment():
    with pytest.raises(ValueError):
        segment_minimize_sigma([[0.0]], 1.0, 1.0)


def test_segment_minimize_matches_dense_golden_oracle():
    rng = np.random.default_rng(30)
    field_cache = {}
    for _ in range(4):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = complex(rng.standard_normal(), rng.standard_normal())
        q = complex(rng.standard_normal(), rng.standard_normal())
        z, v = segment_minimize_sigma(a, p, q)
        # Oracle: dense scan (1e5 points) + golden refinement on the best bracket.
        ts = np.linspace(0.0, 1.0, 100_000)
        zs = p + ts * (q - p)
        eye = np.eye(5)
        sv = np.linalg.svd(
            a[None, :, :] - zs[:, None, None] * eye[None, :, :], compute_uv=False
        )[:, -1]
        j = int(np.argmin(sv))
        lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)]

        def phi(t):
            m = a - (p + t * (q - p)) * eye
            return float(np.linalg.svd(m, compute_uv=False)[-1])

        _, v_oracle = golden_minimize(phi, lo, hi)
        v_oracle = min(v_oracle, float(sv[0]), float(sv[-1]))
        assert abs(v - v_oracle) <= 1e-9 * (1.0 + abs(v_oracle))


def test_segment_minimize_never_above_candidates():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    field = SigmaMinField(a)
    p, q = -1.0 - 1.0j, 2.0 + 0.5j
    _, v = segment_minimize_sigma(a, p, q)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert v <= field.sigma_at(p + t * (q - p)) + 1e-15


# ----------------------------------------------------------------- voronoi

def test_voronoi_two_points_single_bisector_edge():
    edges = voronoi_edges([0.0, 2.0], Box((-3.0, -3.0), (5.0, 3.0)))
    assert len(edges) == 1
    e = edges[0]
    assert abs(e.start.real - 1.0) <= 1e-12 and abs(e.end.real - 1.0) <= 1e-12
    assert {e.start.imag, e.end.imag} == {-3.0, 3.0}


def test_voronoi_equilateral_triangle_meets_at_circumcenter():
    import cmath

    pts = [1.0, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)]
    edges = voronoi_edges(pts, Box((-3.0, -3.0), (3.0, 3.0)))
    assert len(edges) == 3
    for e in edges:
        assert min(abs(e.start), abs(e.end)) <= 1e-12


def test_voronoi_edges_sampled_point_dominance(ex_bidiag5):
    # Every sampled interior edge point is equidistant to its two generators
    # and no closer to any other spectrum point.
    eigs = eigenvalues(ex_bidiag5)
    bbox = Box((-0.5, -0.5), (1.5, 1.5))
    edges = voronoi_edges(eigs, bbox)
    assert edges
    for e in edges:
        for t in np.linspace(1e-3, 1 - 1e-3, 40):
            z = e.start + t * (e.end - e.start)
            d_pair = [abs(z - e.pair[0]), abs(z - e.pair[1])]
            assert abs(d_pair[0] - d_pair[1]) <= 1e-9
            others = [abs(z - lam) for lam in eigs
                      if lam not in (e.pair[0], e.pair[1])]
            assert min(others) >= d_pair[0] - 1e-9


def _seeded_spectrum(n):
    rng = np.random.default_rng(n)
    return eigenvalues(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _lattice():
    return (np.arange(4)[:, None] + 1j * np.arange(4)[None, :]).ravel()


#: name -> (spectrum maker, box); no box means the inflated spectrum box.
_EDGE_CASES = {
    "bidiag5": (lambda: eigenvalues(bidiagonal_5x5()), None),
    "bidiag10": (lambda: eigenvalues(bidiagonal_10x10()), None),
    # complex80 has 3160 pairs, which voronoi_edges clips in four blocks.
    **{f"complex{n}": (partial(_seeded_spectrum, n), None) for n in (3, 12, 28, 80)},
    # Collinear spectra: every bisector is vertical (u.real == 0 exactly),
    # horizontal or diagonal, and every dominance row is flat.
    "real-axis": (lambda: np.arange(8.0), None),
    "imaginary-axis": (lambda: 1j * np.arange(8.0), None),
    "diagonal": (lambda: (1 + 1j) * np.arange(8.0), None),
    "duplicates": (lambda: [0, 1, 1j, 1, 2 + 1j, 0, -0j, 1j], None),
    # Only the cells around 1.5 + 1.5j reach this box.
    "box-missed": (_lattice, Box((1.2, 1.2), (1.8, 1.8))),
}


@pytest.mark.parametrize("name", list(_EDGE_CASES))
def test_voronoi_edges_match_the_pairwise_reference_clipper(name):
    make, box = _EDGE_CASES[name]
    pts = np.asarray(make(), dtype=complex)
    spectrum_box = wk._spectrum_box(pts, 1.0)
    if box is not None:  # the box must miss some bisectors, not all
        assert 0 < len(voronoi_edges_reference(pts, box)) < len(
            voronoi_edges_reference(pts, spectrum_box))
    box = box or spectrum_box
    edges, ref = voronoi_edges(pts, box), voronoi_edges_reference(pts, box)
    assert [e.pair for e in edges] == [e.pair for e in ref]
    for e, r in zip(edges, ref):
        assert abs(e.start - r.start) <= 1e-14 * (1.0 + abs(r.start))
        assert abs(e.end - r.end) <= 1e-14 * (1.0 + abs(r.end))


def test_voronoi_edges_memory_is_bounded_by_the_clip_block():
    # Blocks of _CLIP_BLOCK pairs keep the peak near 12 MB at n = 200; the
    # 19900 pairs in one pass would take about 224 MB.
    rng = np.random.default_rng(200)
    pts = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    box = wk._spectrum_box(pts, 1.0)
    tracemalloc.start()
    try:
        edges = voronoi_edges(pts, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(edges) > 0
    assert peak < 40e6


def test_voronoi_heuristic_identifies_bidiagonal_pair(ex_bidiag5):
    pair, seed, edge_min = voronoi_heuristic(ex_bidiag5)
    got = {complex(pair[0]), complex(pair[1])}
    assert got == {0.461 + 0.650j, 0.451 + 0.553j}
    assert edge_min <= BIDIAG_5X5_EPS * 1.001


def test_voronoi_heuristic_nearest_gap_on_normal_matrix():
    pair, seed, _ = voronoi_heuristic(np.diag([0.0, 2.0, 10.0]).astype(complex))
    assert {complex(pair[0]), complex(pair[1])} == {0.0 + 0.0j, 2.0 + 0.0j}
    # bisector of {0,2} carries value 1 < 4 = value on bisector of {2,10}
    assert abs(seed - 1.0) <= 1e-6


def test_voronoi_heuristic_rejects_repeated_spectrum():
    with pytest.raises(DegenerateSpectrumError):
        voronoi_heuristic(np.diag([1.0, 1.0, 3.0]).astype(complex))
    # The first repeated pair in sorted order is the one reported.
    with pytest.raises(DegenerateSpectrumError) as err:
        voronoi_heuristic(np.diag([5.0, 2.0, 5.0 + 1e-12, 0.0, 2.0]).astype(complex))
    assert err.value.eigenvalue == 2.0


def _random_matrix(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "real":
        return rng.standard_normal((n, n))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a / np.sqrt(2 * n) if kind == "scaled" else a


def _scan_every_edge(a):
    """Reference heuristic: minimize on every Voronoi edge, first edge wins ties."""
    pm = wk.prepare(a)
    best = None
    for e in voronoi_edges(pm.eigs, pm.region):
        z, v = segment_minimize_sigma(pm.matrix, e.start, e.end)
        if best is None or v < best[2]:
            best = (e.pair, z, float(v))
    return best


_HEURISTIC_CASES = (
    [("bidiag5", bidiagonal_5x5), ("bidiag10", bidiagonal_10x10)]
    # Real matrices have conjugate spectra, but linalg.eigenvalues does not
    # return exact conjugates for real input, so mirror-image edges need not
    # tie: real10 has the real eigenvalue -1.8010347924294663 - 1.8e-15j, and
    # its two mirror edges minimize to 0.20725987350206931 and
    # 0.20725987350206965.  The pair these cases choose rests on such last bits.
    + [(f"real{n}", partial(_random_matrix, "real", n, 40 + n)) for n in (4, 7, 10, 13, 16)]
    + [(f"unscaled{n}", partial(_random_matrix, "unscaled", n, 60 + n)) for n in (5, 9, 12)]
    + [(f"scaled{n}", partial(_random_matrix, "scaled", n, 80 + n)) for n in range(3, 21)]
)


@pytest.mark.parametrize("make", [c[1] for c in _HEURISTIC_CASES],
                         ids=[c[0] for c in _HEURISTIC_CASES])
def test_voronoi_heuristic_matches_a_scan_of_every_edge(make):
    # Pruning edges by level skips work, never the answer: pair, point and
    # value are bit-identical to minimizing over every edge in turn.
    a = make()
    assert voronoi_heuristic(a) == _scan_every_edge(a)


@pytest.mark.parametrize("make", [c[1] for c in _HEURISTIC_CASES],
                         ids=[c[0] for c in _HEURISTIC_CASES])
def test_voronoi_heuristic_pair_unchanged_by_the_reference_clipper(make, monkeypatch):
    pm = wk.prepare(make())
    pair = voronoi_heuristic(pm)[0]
    monkeypatch.setattr(wk, "voronoi_edges", voronoi_edges_reference)
    assert voronoi_heuristic(pm)[0] == pair


def test_voronoi_heuristic_prunes_most_byers_eigensolves(monkeypatch):
    # Minimizing on every edge costs about 3.6 crossing tests per edge; the
    # lower bounds and single crossing tests leave fewer than one per two
    # edges (0.33 to 0.55 per edge on single n = 20 matrices, seeds 0-11).
    calls = Counter()
    crossings = wk.byers_vertical_crossings

    def counted(*args, **kwargs):
        calls["byers"] += 1
        return crossings(*args, **kwargs)

    monkeypatch.setattr(wk, "byers_vertical_crossings", counted)
    edges = 0
    for seed in range(4):
        pm = wk.prepare(_random_matrix("scaled", 20, seed))
        voronoi_heuristic(pm)
        edges += len(voronoi_edges(pm.eigs, pm.region))
    assert 0 < calls["byers"] < edges / 2


# ----------------------------------------------------------- local pipeline

def test_wilkinson_local_bidiagonal_value_and_pair_distance(ex_bidiag5):
    res = wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert res.converged
    assert abs(res.epsilon_bar_estimate - BIDIAG_5X5_EPS) <= 1e-9 * BIDIAG_5X5_EPS
    assert len(res.records) <= 4
    assert res.records[-1].dist <= 1e-8
    # sigma at the reported point equals the reported value
    sig = smallest_singular_value(res.matrix - res.coalescence_point * np.eye(5))
    assert abs(sig - res.epsilon_bar_estimate) <= 1e-12 * (1.0 + sig)


def test_equalize_keeps_the_pulled_in_conjugate_pair_apart():
    # For a real matrix the pulled-in endpoints of a conjugate pair differ in
    # sigma only by roundoff, and Byers finds no crossing that close to the
    # lower one; its first crossing of the higher level is the lower point
    # itself, not the far end of the segment.
    n = 20
    pm = wk.prepare(np.random.default_rng(107).standard_normal((n, n)) / np.sqrt(n))
    (l1, l2), _, _ = voronoi_heuristic(pm)
    assert abs(l1 - l2.conjugate()) <= 1e-12  # conjugates up to roundoff
    x0 = wk._c2p(l1 + wk._PULL_IN * (l2 - l1))
    y0 = wk._c2p(l2 - wk._PULL_IN * (l2 - l1))
    x, y = equalize_endpoints(pm, x0, y0)
    assert np.linalg.norm(x - y) >= 0.5 * np.linalg.norm(x0 - y0)


def test_wilkinson_local_normal_two_point():
    res = wilkinson_local(np.diag([0.0, 2.0]).astype(complex), 0.0, 2.0)
    assert abs(res.coalescence_point - 1.0) <= 1e-9
    assert abs(res.epsilon_bar_estimate - 1.0) <= 1e-9


def test_wilkinson_local_rejects_non_eigenvalues():
    with pytest.raises(ValueError):
        wilkinson_local(np.diag([0.0, 2.0]).astype(complex), 0.5, 2.0)


def test_wilkinson_local_estimate_above_grid_lower_bound():
    rng = np.random.default_rng(32)
    a = np.zeros((5, 5), dtype=complex)
    for i in range(5):
        a[i, i] = rng.uniform(0, 1) + 1j * rng.uniform(0, 1)
    for i in range(4):
        a[i, i + 1] = rng.uniform(0, 1) + 1j * rng.uniform(0, 1)
    pair, _, _ = voronoi_heuristic(a)
    res = wilkinson_local(a, pair[0], pair[1])
    grid = pseudospectrum_grid(a, None, 400, 400)
    assert grid.sigma.min() <= res.epsilon_bar_estimate + 1e-12


def test_pair_ball_is_capped_by_the_nearest_third_eigenvalue():
    # 0.6 |l1 - l2| without a near third eigenvalue, else 0.9 times the
    # distance from the midpoint to it; eigenvalues within tol_eig of the
    # pair are the pair's own.
    ball = wk._pair_ball(np.array([0.0, 2.0, 10.0]), 0.0, 2.0, 1e-8)
    assert ball.center.tolist() == [1.0, 0.0] and ball.radius == pytest.approx(1.2)
    ball = wk._pair_ball(np.array([0.0, 2.0, 1.0 + 1.0j]), 0.0, 2.0, 1e-8)
    assert ball.radius == pytest.approx(0.9)
    ball = wk._pair_ball(np.array([0.0, 2.0, 2.0 + 1e-9]), 0.0, 2.0, 1e-8)
    assert ball.radius == pytest.approx(1.2)


@pytest.mark.filterwarnings("ignore:smallest singular value is nearly multiple")
def test_pair_ball_names_a_third_eigenvalue_at_the_midpoint():
    with pytest.raises(PreconditionError, match=r"eigenvalue 1j sits at the midpoint"):
        wk._pair_ball(np.array([0.0, 2.0j, 1.0j]), 0.0, 2.0j, 1e-8)
    # The pair (0, 2) of diag(0, 1, 2) is solved, not pruned: both of its
    # cells dip below the level 0.5 (1 + 1e-5) at their edges with 1's cell.
    res = wilkinson_distance(np.diag([0.0, 1.0, 2.0]), WilkinsonOptions(exhaustive=True))
    (entry,) = [e for e in res.pair_scan if {*e["pair"]} == {0.0, 2.0}]
    assert entry["error"] == "eigenvalue (1+0j) sits at the midpoint of the pair (0j, (2+0j))"


def _recorded_runs(monkeypatch, outcome):
    """Replace the local solver by ``outcome(region)``; return the radii it saw."""
    radii = []

    def fake(field, region, *args, **kwargs):
        radii.append(region.radius)
        return outcome(region)

    monkeypatch.setattr(wk, "run_local", fake)
    return radii


def test_wilkinson_local_shrinks_the_ball_after_each_boundary_hit(monkeypatch, ex_bidiag5):
    def hit(region):
        raise BoundaryHitError(region.center)

    radii = _recorded_runs(monkeypatch, hit)
    with pytest.raises(BoundaryHitError):
        wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert len(radii) == 1 + wk._BALL_RETRIES
    assert radii[1:] == pytest.approx([wk._BALL_SHRINK * r for r in radii[:-1]])


def test_wilkinson_local_reruns_an_unconverged_stop_until_one_converges(monkeypatch, ex_bidiag5):
    # The first two runs are reported unconverged; the third is returned.
    run_local = wk.run_local
    runs = []

    def third_converges(field, region, x0, y0, opts=None):
        runs.append(run_local(field, region, x0, y0, opts=opts))
        if len(runs) == 3:
            return runs[-1]
        return replace(runs[-1], converged=False, stop_reason="max_iter")

    monkeypatch.setattr(wk, "run_local", third_converges)
    res = wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert len(runs) == 3 and res.converged and res.records is runs[-1].records


def test_wilkinson_local_raises_no_records_after_the_last_retry(monkeypatch, ex_bidiag5):
    empty = LocalRun(initial_pair=(None, None), records=[], converged=False,
                     stop_reason="bisector_below_level")
    radii = _recorded_runs(monkeypatch, lambda region: empty)
    with pytest.raises(PreconditionError, match="no records"):
        wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert len(radii) == 1 + wk._BALL_RETRIES


def test_wilkinson_local_raises_other_precondition_errors_at_once(monkeypatch, ex_bidiag5):
    # A first chord whose base point lies outside the ball does not depend on
    # the radius, so a smaller ball cannot help.
    def outside(region):
        raise PreconditionError("hyperplane base point lies outside the region")

    radii = _recorded_runs(monkeypatch, outside)
    with pytest.raises(PreconditionError, match="outside the region"):
        wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert len(radii) == 1


@pytest.mark.parametrize("n, seed", [(10, 4), (10, 11), (10, 12), (16, 12)],
                         ids=["n10-s4", "n10-s11", "n10-s12", "n16-s12"])
def test_unscaled_gaussian_heuristic_pair_runs_in_its_ball(n, seed):
    # In the spectrum box the first bisector chord of these pairs reaches a
    # third eigenvalue, so the run produced no records.
    g = np.random.default_rng(seed)
    res = wilkinson_distance(g.standard_normal((n, n)) + 1j * g.standard_normal((n, n)))
    assert res.records and res.converged and res.stop_reason == "point_tol"


@pytest.mark.filterwarnings("ignore:smallest singular value is nearly multiple")
def test_normal_matrix_converges_at_the_midpoint_not_at_a_far_tie():
    # sigma is 1 both at z = 1 and at 1 + 5j on the bisector Re z = 1 of the
    # pair (0, 2); in the box the run stopped unconverged at the far tie.
    res = wilkinson_distance(np.diag([0.0, 2.0, 5.0j]))
    assert res.converged
    assert abs(res.coalescence_point - 1.0) <= 1e-9
    assert abs(res.epsilon_bar_estimate - 1.0) <= 1e-9


def test_scaled_gaussian_heuristic_pair_converges_at_the_smallest_value():
    # In the box the heuristic pair did not converge and the exhaustive scan
    # returned 0.1389, seven times the distance.
    rng = np.random.default_rng(1)
    a = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2 * 8)
    res = wilkinson_distance(a)
    assert res.converged
    assert res.epsilon_bar_estimate == pytest.approx(0.0186328308894, rel=1e-9)
    scan = wilkinson_distance(a, WilkinsonOptions(exhaustive=True))
    assert scan.epsilon_bar_estimate == res.epsilon_bar_estimate


def test_wilkinson_result_reports_the_stop_reason(ex_bidiag5):
    assert wilkinson_distance(ex_bidiag5).stop_reason == "point_tol"
    capped = wilkinson_distance(ex_bidiag5, WilkinsonOptions(local=LocalOptions(max_iter=1)))
    assert not capped.converged and capped.stop_reason == "max_iter"
    repeated = wilkinson_distance(np.diag([1.0, 1.0, 3.0]))
    assert repeated.stop_reason == "degenerate_spectrum"


def test_wilkinson_distance_bidiagonal(ex_bidiag5):
    res = wilkinson_distance(ex_bidiag5)
    assert abs(res.epsilon_bar_estimate - BIDIAG_5X5_EPS) <= 1e-9 * BIDIAG_5X5_EPS


def test_wilkinson_distance_normal_matrix_is_half_min_gap():
    res = wilkinson_distance(np.diag([0.0, 2.0]).astype(complex))
    assert abs(res.epsilon_bar_estimate - 1.0) <= 1e-9
    assert abs(res.coalescence_point - 1.0) <= 1e-9
    res3 = wilkinson_distance(np.diag([0.0, 2.0, 10.0]).astype(complex))
    assert abs(res3.epsilon_bar_estimate - 1.0) <= 1e-9


def test_wilkinson_distance_degenerate_spectrum_is_zero():
    res = wilkinson_distance(np.diag([1.0, 1.0, 3.0]).astype(complex))
    assert res.epsilon_bar_estimate == 0.0
    assert res.converged
    assert np.all(res.perturbation == 0)


def test_wilkinson_distance_positive_for_simple_spectrum(ex_bidiag5):
    assert wilkinson_distance(ex_bidiag5).epsilon_bar_estimate > 0.0


def test_wilkinson_unitary_invariance(ex_bidiag5):
    rng = np.random.default_rng(33)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    u, _ = np.linalg.qr(m)
    base = wilkinson_distance(ex_bidiag5).epsilon_bar_estimate
    rot = wilkinson_distance(u @ ex_bidiag5 @ u.conj().T).epsilon_bar_estimate
    assert abs(rot - base) <= 1e-9 * (1.0 + base)


def test_wilkinson_shift_equivariance(ex_bidiag5):
    c = 0.7 - 0.3j
    base = wilkinson_distance(ex_bidiag5)
    shifted = wilkinson_distance(ex_bidiag5 + c * np.eye(5))
    assert abs(shifted.epsilon_bar_estimate - base.epsilon_bar_estimate) <= 1e-9 * (
        1.0 + base.epsilon_bar_estimate
    )
    assert abs(shifted.coalescence_point - (base.coalescence_point + c)) <= 1e-9


def test_exhaustive_mode_reproduces_heuristic_failure(ex_bidiag10):
    res = wilkinson_distance(ex_bidiag10, WilkinsonOptions(exhaustive=True))
    assert res.heuristic_pair is not None
    assert res.pair_scan is not None and len(res.pair_scan) == 45
    assert res.epsilon_bar_estimate < res.heuristic_epsilon
    assert {complex(res.chosen_pair[0]), complex(res.chosen_pair[1])} != {
        complex(res.heuristic_pair[0]), complex(res.heuristic_pair[1])
    }


@pytest.mark.parametrize(
    "n, seed, heuristic_raises",
    [(6, 75, False), (8, 78, False), (6, 92, True)],
    ids=["n6-s75-unconverged-heuristic", "n8-s78-unconverged-heuristic",
         "n6-s92-heuristic-raises"],
)
def test_exhaustive_mode_returns_the_smallest_converged_pair(n, seed, heuristic_raises):
    # Scaled complex Gaussian matrices on which the heuristic pair does not
    # converge (it stops with bisector_below_level, or its solve raises
    # BoundaryHitError) while other pairs do: the scan returns the best
    # converged pair, not the heuristic's estimate.
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    res = wilkinson_distance(a, WilkinsonOptions(exhaustive=True))
    assert res.converged
    converged = [e["epsilon"] for e in res.pair_scan if e["converged"]]
    assert res.epsilon_bar_estimate == min(converged)
    assert (res.heuristic_epsilon is None) == heuristic_raises


def test_exhaustive_scan_prepares_the_matrix_once(monkeypatch, ex_bidiag5):
    # The heuristic, every pair's local solve and the scan share one
    # preparation: one eigensolve and one norm for the whole run.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eigenvalues", "spectral_norm"):
        monkeypatch.setattr(wk, name, counted(name, getattr(wk, name)))
    res = wilkinson_distance(ex_bidiag5, WilkinsonOptions(exhaustive=True))
    assert res.pair_scan is not None and len(res.pair_scan) == 10
    assert calls == {"eigenvalues": 1, "spectral_norm": 1}


def test_exhaustive_scan_builds_one_sigma_min_field(monkeypatch, ex_bidiag5):
    # The prepared matrix is the field and its segment solver: no local solve
    # copies the matrix into a field of its own.
    built = []
    init = SigmaMinField.__init__

    def counted(self, a):
        built.append(type(self).__name__)
        init(self, a)

    monkeypatch.setattr(SigmaMinField, "__init__", counted)
    res = wilkinson_distance(ex_bidiag5, WilkinsonOptions(exhaustive=True))
    assert len(res.pair_scan) == 10
    assert built == ["PreparedMatrix"]


@pytest.mark.parametrize("exhaustive", [False, True], ids=["default", "exhaustive"])
def test_heuristic_error_raised_when_no_pair_converges(monkeypatch, ex_bidiag5, exhaustive):
    errors = []

    def fail(*args, **kwargs):
        errors.append(PreconditionError("no feasible start"))
        raise errors[-1]

    monkeypatch.setattr(wk, "run_local", fail)
    with pytest.raises(PreconditionError, match="no feasible start") as raised:
        wilkinson_distance(ex_bidiag5, WilkinsonOptions(exhaustive=exhaustive))
    assert raised.value in errors  # the heuristic pair's own error object


def test_default_mode_is_the_heuristic_pair_of_the_exhaustive_scan(ex_bidiag10):
    # Both modes run the heuristic pair with the caller's options; only the
    # exhaustive scan records the pairs it tried.
    default = wilkinson_distance(ex_bidiag10)
    scan = wilkinson_distance(ex_bidiag10, WilkinsonOptions(exhaustive=True))
    assert default.epsilon_bar_estimate == scan.heuristic_epsilon
    assert default.heuristic_epsilon == scan.heuristic_epsilon
    assert default.heuristic_pair == scan.heuristic_pair
    assert default.chosen_pair == default.heuristic_pair
    assert default.pair_scan is None


def _skipped(res):
    return [e for e in res.pair_scan if (e["error"] or "").startswith("skipped")]


def _manifest_real(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n)) / np.sqrt(n)


_PRUNE_CASES = [
    ("bidiag5", bidiagonal_5x5),
    ("bidiag10", bidiagonal_10x10),
    # Real matrices: their conjugate spectra give mirror-image pairs.
    ("real-n7-s0", partial(_manifest_real, 7, 0)),
    ("real-n10-s1", partial(_manifest_real, 10, 1)),
    ("triu-real-n8-s7", lambda: np.triu(np.random.default_rng(7).standard_normal((8, 8)))),
    ("scaled-n6-s5", partial(_random_matrix, "scaled", 6, 5)),
    ("scaled-n8-s1", partial(_random_matrix, "scaled", 8, 1)),
    ("scaled-n9-s3", partial(_random_matrix, "scaled", 9, 3)),
    ("unscaled-n7-s2", partial(_random_matrix, "unscaled", 7, 2)),
    ("unscaled-n9-s0", partial(_random_matrix, "unscaled", 9, 0)),
]


@pytest.mark.parametrize("make", [c[1] for c in _PRUNE_CASES], ids=[c[0] for c in _PRUNE_CASES])
def test_pruned_scan_returns_the_full_scan_result(make, monkeypatch):
    # A pair is skipped only when the boundary of a start point's cell stays
    # above the heuristic's level, so no pass of the pair lies below it:
    # pruning saves solves, never the answer.
    a = make()
    pruned = wilkinson_distance(a, WilkinsonOptions(exhaustive=True))
    monkeypatch.setattr(wk, "_open_cells", lambda pm, level: None)
    full = wilkinson_distance(a, WilkinsonOptions(exhaustive=True))
    assert not _skipped(full)
    for key in ("epsilon_bar_estimate", "coalescence_point", "chosen_pair", "converged",
                "stop_reason", "heuristic_pair", "heuristic_epsilon"):
        assert getattr(pruned, key) == getattr(full, key), key
    assert len(pruned.records) == len(full.records)
    assert [e["pair"] for e in pruned.pair_scan] == [e["pair"] for e in full.pair_scan]
    for kept, solved in zip(pruned.pair_scan, full.pair_scan):
        if kept["error"] and kept["error"].startswith("skipped"):
            # The skipped pair's own solve does not converge below the answer.
            assert not solved["converged"] or solved["epsilon"] >= pruned.epsilon_bar_estimate
        else:
            assert kept == solved


def _counted_local_solves(monkeypatch, first=lambda res: res):
    """Record the pairs ``wilkinson_local`` solves; ``first`` maps the first result."""
    pairs = []
    solve = wk.wilkinson_local

    def counted(a, lam1, lam2, opts=None):
        pairs.append((lam1, lam2))
        res = solve(a, lam1, lam2, opts)
        return first(res) if len(pairs) == 1 else res

    monkeypatch.setattr(wk, "wilkinson_local", counted)
    return pairs


@pytest.mark.parametrize("fixture, solved", [("ex_bidiag5", 1), ("ex_bidiag10", 3)])
def test_pruned_scan_solves_few_pairs_of_the_paper_matrices(monkeypatch, request, fixture, solved):
    a = request.getfixturevalue(fixture)
    pairs = _counted_local_solves(monkeypatch)
    res = wilkinson_distance(a, WilkinsonOptions(exhaustive=True))
    assert len(pairs) == solved
    skipped = _skipped(res)
    assert len(skipped) == len(res.pair_scan) - solved
    level = res.heuristic_epsilon * (1.0 + wk._PRUNE_RTOL)
    for e in skipped:
        assert e["epsilon"] is None and e["converged"] is False
        assert repr(level) in e["error"]


@pytest.mark.parametrize("n, seed", [(6, 92), (6, 75)],
                         ids=["n6-s92-heuristic-raises", "n6-s75-unconverged-heuristic"])
def test_scan_solves_every_pair_without_a_converged_heuristic(monkeypatch, n, seed):
    pairs = _counted_local_solves(monkeypatch)
    res = wilkinson_distance(_random_matrix("scaled", n, seed), WilkinsonOptions(exhaustive=True))
    assert len(pairs) == len(res.pair_scan) == n * (n - 1) // 2
    assert not _skipped(res)


def test_scan_solves_every_pair_when_a_side_of_the_region_dips(monkeypatch, ex_bidiag5):
    region = wk.prepare(ex_bidiag5).region
    (x0, y0), (x1, y1) = region.lower, region.upper
    corners = {complex(x, y) for x in (x0, x1) for y in (y0, y1)}
    dips = wk._dips_below

    def side_dips(a, start, end, level, sample_min):
        return {start, end} <= corners or dips(a, start, end, level, sample_min)

    monkeypatch.setattr(wk, "_dips_below", side_dips)
    pairs = _counted_local_solves(monkeypatch)
    res = wilkinson_distance(ex_bidiag5, WilkinsonOptions(exhaustive=True))
    assert len(pairs) == 10 and not _skipped(res)


def test_scan_solves_every_pair_when_the_heuristic_level_is_at_the_eigenvalue_tolerance(
        monkeypatch, ex_bidiag5):
    # At such levels a Byers crossing test can miss crossings, so no cell is
    # known to be closed.
    tol_eig = wk.prepare(ex_bidiag5).tol_eig
    pairs = _counted_local_solves(
        monkeypatch, lambda res: replace(res, epsilon_bar_estimate=tol_eig))
    res = wilkinson_distance(ex_bidiag5, WilkinsonOptions(exhaustive=True))
    assert res.heuristic_epsilon == tol_eig
    assert len(pairs) == 10 and not _skipped(res)


# ------------------------------------------------------------ perturbation

def test_perturbation_makes_point_an_eigenvalue():
    a = np.diag([0.0, 2.0]).astype(complex)
    # at z = 1 both singular values equal 1, so the ill-conditioned-vectors
    # warning must be attached
    with pytest.warns(RuntimeWarning):
        e = nearest_defective_perturbation(a, 1.0)
    assert abs(np.linalg.norm(e, 2) - 1.0) <= 1e-10
    norm = np.linalg.norm(a, 2)
    assert smallest_singular_value(a + e - 1.0 * np.eye(2)) <= 1e-8 * (1.0 + norm)


def test_perturbation_from_converged_run(ex_bidiag5):
    res = wilkinson_distance(ex_bidiag5)
    e = res.perturbation
    assert abs(np.linalg.norm(e, 2) - res.epsilon_bar_estimate) <= 1e-10 * (
        1.0 + res.epsilon_bar_estimate
    )
    norm = np.linalg.norm(ex_bidiag5, 2)
    resid = smallest_singular_value(ex_bidiag5 + e - res.coalescence_point * np.eye(5))
    assert resid <= 1e-8 * (1.0 + norm)


def test_perturbation_zero_at_exact_eigenvalue():
    a = np.diag([1.0, 3.0]).astype(complex)
    e = nearest_defective_perturbation(a, 1.0)
    assert np.linalg.norm(e, 2) <= 1e-14


# ------------------------------------------------------------------- grids

def test_pseudospectrum_grid_scalar_matrix():
    grid = pseudospectrum_grid([[0.0]], (-1.0, -1.0, 1.0, 1.0), 3, 3)
    assert grid.sigma.shape == (3, 3)
    assert grid.sigma[1, 1] == 0.0            # center: |z| at z = 0
    assert abs(grid.sigma[0, 0] - np.sqrt(2.0)) <= 1e-12  # corner
    assert np.all(grid.sigma >= 0.0)


def test_pseudospectrum_grid_validation():
    with pytest.raises(ValueError):
        pseudospectrum_grid([[0.0]], (-1.0, -1.0, 1.0, 1.0), 1, 3)
    with pytest.raises(ValueError):
        pseudospectrum_grid([[0.0]], (1.0, -1.0, -1.0, 1.0), 3, 3)


def test_pseudospectrum_grid_min_bounds_estimate(ex_bidiag5):
    res = wilkinson_distance(ex_bidiag5)
    grid = pseudospectrum_grid(ex_bidiag5, None, 400, 400)
    assert grid.sigma.min() <= res.epsilon_bar_estimate
    # With no box the grid spans the prepared matrix's region.
    region = wk.prepare(ex_bidiag5).region
    assert grid.bbox == (*region.lower, *region.upper)
    # node nearest an eigenvalue is far below the corner value
    eigs = eigenvalues(ex_bidiag5)
    gx, gy = np.meshgrid(grid.xs, grid.ys)
    j = np.argmin(np.abs((gx + 1j * gy) - eigs[0]))
    assert grid.sigma.ravel()[j] <= grid.sigma[0, 0]


def test_wilkinson_local_solves_on_the_byers_oracle(monkeypatch, ex_bidiag5):
    # Every segment operation of the sigma_min run goes to the prepared
    # matrix's Byers-based methods; the sampled ScalarField methods are never
    # consulted.
    def fail(*args, **kwargs):
        raise AssertionError("sampled segment method used")

    for name in ("minimize", "maximize", "advance_limit", "first_crossing"):
        monkeypatch.setattr(ScalarField, name, fail)
    res = wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert res.converged
    assert abs(res.epsilon_bar_estimate - BIDIAG_5X5_EPS) <= 1e-9 * BIDIAG_5X5_EPS


def test_wilkinson_local_runs_on_the_prepared_matrix(monkeypatch, ex_bidiag5):
    # The field handed to the local solver is the prepared matrix itself.
    fields = []
    run = wk.run_local

    def recording(field, *args, **kwargs):
        fields.append(field)
        return run(field, *args, **kwargs)

    monkeypatch.setattr(wk, "run_local", recording)
    pm = wk.prepare(ex_bidiag5)
    wilkinson_local(pm, 0.461 + 0.650j, 0.451 + 0.553j)
    assert len(fields) == 1 and fields[0] is pm


def test_sigma_min_field_is_its_own_scalar_field_with_sampled_segments(ex_bidiag5):
    # A plain SigmaMinField keeps the sampled segment methods; only the
    # prepared matrix swaps in the exact ones.
    f = SigmaMinField(ex_bidiag5)
    assert f.as_scalar_field() is f
    assert isinstance(f, ScalarField) and f.dimension == 2 and f.name == "sigma-min"
    for name in ("minimize", "maximize", "advance_limit", "first_crossing"):
        assert getattr(type(f), name) is getattr(ScalarField, name)
        assert getattr(wk.PreparedMatrix, name) is not getattr(ScalarField, name)
