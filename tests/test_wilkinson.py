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
from oracles import (
    golden_minimize,
    level_sweep_extremize,
    scan_first_crossing,
    scan_first_rise,
    voronoi_edges_reference,
)


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


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, name", [
    (lambda a: segment_minimize_sigma(a, _NAN, 1.0), "p"),
    (lambda a: segment_minimize_sigma(a, 0.0, _INF), "q"),
    (lambda a: wilkinson_local(a, _NAN, 2.0), "lam1"),
    (lambda a: voronoi_edges([0.0, 1.0, _NAN], Box((-2.0, -2.0), (2.0, 2.0))), "spectrum"),
], ids=["segment-p-nan", "segment-q-inf", "local-lam1-nan", "voronoi-spectrum-nan"])
def test_non_finite_points_are_named_bad_arguments(call, name):
    # LAPACK's "SVD did not converge" is a numerical failure, and a NaN in the
    # spectrum silently dropped edges.
    with pytest.raises(ValueError, match=f"^{name} must be finite") as err:
        call(np.diag([0.0, 2.0]))
    assert not isinstance(err.value, np.linalg.LinAlgError)


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


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_sigma_derivatives_from_one_svd_match_central_differences(n):
    rng = np.random.default_rng(40 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    frame = wk.rotate_to_vertical(a, -1.0 - 0.3j, 1.0 + 0.7j)
    h = 1e-4
    for y in np.linspace(0.1, 0.9, 5) * frame.length:
        v, d1, d2 = wk._sigma_on_frame(frame, y, derivatives=True)
        vp, vm = (wk._sigma_on_frame(frame, y + s) for s in (h, -h))
        assert v == pytest.approx(wk._sigma_on_frame(frame, y), rel=1e-13)
        assert d1 == pytest.approx((vp - vm) / (2 * h), rel=1e-7, abs=1e-9)
        assert d2 == pytest.approx((vp - 2 * v + vm) / h**2, rel=1e-4, abs=1e-6)


def test_sigma_derivatives_are_withheld_where_sigma_min_is_double():
    # On the bisector of diag(0, 2) both singular values are sqrt(1 + y^2).
    frame = wk.rotate_to_vertical(np.diag([0.0, 2.0]), 1.0 - 1.0j, 1.0 + 1.0j)
    v, d1, d2 = wk._sigma_on_frame(frame, 0.3, derivatives=True)
    assert v == pytest.approx(np.hypot(1.0, 0.7), rel=1e-15) and d1 is None and d2 is None


def _oracle_segments():
    """The paper matrices' Voronoi edges, and random segments of random matrices."""
    for a in (bidiagonal_5x5(), bidiagonal_10x10()):
        pm = wk.prepare(a)
        yield from ((pm.matrix, e.start, e.end) for e in voronoi_edges(pm.eigs, pm.region))
    rng = np.random.default_rng(32)
    for n in (3, 6, 12, 20):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(4):
            p, q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            yield a, complex(p), complex(q)


def test_polished_extrema_match_the_level_sweep_oracle():
    for a, p, q in _oracle_segments():
        z, v = segment_minimize_sigma(a, p, q)
        _, v_ref = level_sweep_extremize(a, p, q, "min")
        assert abs(v - v_ref) <= 1e-12 * (1.0 + abs(v_ref))
        assert smallest_singular_value(a - z * np.eye(len(a))) == pytest.approx(v, rel=1e-12)
        v, _ = wk.segment_maximize_sigma(a, p, q)
        _, v_ref = level_sweep_extremize(a, p, q, "max")
        assert abs(v - v_ref) <= 1e-12 * (1.0 + abs(v_ref))


@pytest.mark.parametrize("make", [bidiagonal_5x5, bidiagonal_10x10,
                                  lambda: _random_matrix("scaled", 20, 7)],
                         ids=["bidiag5", "bidiag10", "scaled20"])
def test_segment_minimize_certifies_with_at_most_two_crossing_tests(monkeypatch, make):
    # The polish converges each minimum; the sweep only certifies it, and a
    # second sweep runs only when the first finds a lower piece elsewhere.
    per_call, calls = [], Counter()
    crossings, minimize = wk.byers_vertical_crossings, wk.segment_minimize_sigma

    def counted(*args):
        calls["byers"] += 1
        return crossings(*args)

    def recorded(*args):
        before = calls["byers"]
        out = minimize(*args)
        per_call.append(calls["byers"] - before)
        return out

    monkeypatch.setattr(wk, "byers_vertical_crossings", counted)
    monkeypatch.setattr(wk, "segment_minimize_sigma", recorded)
    pm = wk.prepare(make())
    for e in voronoi_edges(pm.eigs, pm.region):
        wk.segment_minimize_sigma(pm.matrix, e.start, e.end)
    wilkinson_distance(pm, WilkinsonOptions(exhaustive=True))
    assert len(per_call) > len(voronoi_edges(pm.eigs, pm.region))  # the local solves too
    assert 0 < max(per_call) <= 2


def test_segment_maximize_finds_the_kink_maximum():
    # On the real axis between the eigenvalues of diag(0, 2), sigma_min is
    # min(|x|, |2 - x|): its maximum 1 at z = 1 is a kink, where sigma' jumps.
    v, z = wk.segment_maximize_sigma(np.diag([0.0, 2.0]), 0.5, 1.5)
    assert abs(v - 1.0) <= 1e-12
    assert abs(z - 1.0) <= 1e-9


@pytest.mark.parametrize("scale", [1.0, 1.0 / np.sqrt(78)], ids=["unscaled", "scaled"])
def test_every_voronoi_edge_minimum_is_at_most_its_samples(scale):
    # Near sigma = 0 the Byers test misses crossings: on this matrix edge 47
    # minimized to 1.27e-13 against one of its own samples at 5.34e-14.
    g = np.random.default_rng(1039)
    pm = wk.prepare(scale * np.triu(g.standard_normal((39, 39))
                                    + 1j * g.standard_normal((39, 39))))
    for sample_min, _, e, samples in pm.voronoi:
        _, v = wk._segment_extremize(pm.matrix, e.start, e.end, "min", samples)
        assert v <= sample_min


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
    """Reference heuristic: minimize on every Voronoi edge from its own
    samples, first edge wins ties."""
    pm = wk.prepare(a)
    best = None
    for e in voronoi_edges(pm.eigs, pm.region):
        samples = wk._edge_samples(pm.matrix, e.start, e.end)
        z, v = wk._segment_extremize(pm.matrix, e.start, e.end, "min", samples)
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
    # tent bounds on up to _SUBDIVIDE_MAX extra samples and the single
    # crossing tests leave fewer than one per five edges (24 on these 191).
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
    assert 0 < calls["byers"] < edges / 5


def _dips_below_byers(pm, start, end, level, samples):
    """The crossing test alone: a sample below the level, or the bound
    min(samples) - h/2, else the pieces between the level's Byers crossings."""
    sample_min = samples.min()
    if level <= 0.0 or sample_min < level:
        return True
    if sample_min - 0.5 * abs(end - start) / (wk._EDGE_SAMPLES - 1) >= level:
        return False
    frame = wk.rotate_to_vertical(pm.matrix, start, end)
    return any(wk._sigma_on_frame(frame, 0.5 * (lo + hi)) < level
               for lo, hi in wk._level_intervals(frame, level))


@pytest.mark.parametrize("n", [5, 12, 20])
def test_dips_below_answers_as_the_crossing_test_alone(monkeypatch, n):
    # Levels at and below an edge's smallest sample go past the sample test;
    # the lower ones are settled by subdivision, with fewer crossing tests.
    calls = Counter()
    crossings = wk.byers_vertical_crossings

    def counted(*args):
        calls[dips] += 1
        return crossings(*args)

    monkeypatch.setattr(wk, "byers_vertical_crossings", counted)
    pm = wk.prepare(_random_matrix("scaled", n, 0))
    answers = {}
    for dips in (wk._dips_below, _dips_below_byers):
        answers[dips] = [dips(pm, e.start, e.end, sample_min * (1.0 + d), samples)
                         for sample_min, _, e, samples in pm.voronoi
                         for d in (-0.5, -0.1, -1e-2, -1e-3, 0.0, 1e-6, 1e-3, 1e-2, 0.1, 0.5)]
    assert answers[wk._dips_below] == answers[_dips_below_byers]
    assert any(answers[wk._dips_below]) and not all(answers[wk._dips_below])
    assert calls[wk._dips_below] < calls[_dips_below_byers]


def test_dips_below_runs_the_crossing_test_once_more_samples_would_pass_the_cap(monkeypatch):
    pm = wk.prepare(_random_matrix("scaled", 12, 0))
    # A level just below an edge's smallest sample that its minimum still
    # dips under: a gap of 1e-6 of the level asks for far more than
    # _SUBDIVIDE_MAX samples.
    sample_min, _, e, samples = next(
        entry for entry in pm.voronoi
        if segment_minimize_sigma(pm.matrix, entry[2].start, entry[2].end)[1]
        < entry[0] * (1.0 - 1e-6))
    level = sample_min * (1.0 - 1e-6)
    extra, byers = [], []
    batch, crossings = wk._sigma_batch, wk.byers_vertical_crossings

    def counted_batch(a, zs):
        extra.extend(zs)
        return batch(a, zs)

    def counted_crossings(*args):
        byers.append(args)
        return crossings(*args)

    monkeypatch.setattr(wk, "_sigma_batch", counted_batch)
    monkeypatch.setattr(wk, "byers_vertical_crossings", counted_crossings)
    assert wk._dips_below(pm, e.start, e.end, level, samples)
    assert len(extra) <= wk._SUBDIVIDE_MAX and len(byers) == 1


def test_exhaustive_scans_solve_no_byers_block_twice(monkeypatch, ex_bidiag5, ex_bidiag10):
    # A level sweep depends only on its level, so a segment solve stops at
    # the first sweep that does not improve; a repeat of it would solve the
    # same blocks again.
    seen = Counter()
    crossings = wk.byers_vertical_crossings

    def recorded(a, x, epsilon):
        seen[np.ascontiguousarray(a).tobytes(), x, epsilon] += 1
        return crossings(a, x, epsilon)

    monkeypatch.setattr(wk, "byers_vertical_crossings", recorded)
    for a in (ex_bidiag5, ex_bidiag10):
        wilkinson_distance(a, WilkinsonOptions(exhaustive=True))
    assert seen and max(seen.values()) == 1


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


def _sigma_along(a, p: complex, q: complex):
    """sigma_min(A - z I) at z = p + t (q - p), for an array of t."""
    eye = np.eye(a.shape[0])

    def phi_many(ts):
        zs = p + np.asarray(ts) * (q - p)
        return np.linalg.svd(a - zs[:, None, None] * eye, compute_uv=False)[:, -1]

    return phi_many


@pytest.mark.parametrize("make", [
    bidiagonal_5x5, bidiagonal_10x10, partial(_random_matrix, "scaled", 12, 3),
], ids=["bidiag5", "bidiag10", "random12"])
def test_prepared_advance_limit_is_the_first_rise_of_a_dense_scan(make):
    # Segments from near an eigenvalue to a random point of the region, and
    # caps below the start, inside each segment's range and out of its reach:
    # where the scan rises past cap + slack the advance stops at its first
    # rise through the cap; where sigma cannot reach the cap (it is
    # 1-Lipschitz between the samples) there is no limit.
    pm = wk.prepare(make())
    rng = np.random.default_rng(0)
    lower, upper = pm.region.lower, pm.region.upper
    outcomes = Counter()
    samples = 4_001
    for lam in pm.eigs[:3]:
        p = lam + 0.01 * complex(*rng.standard_normal(2))
        q = complex(*rng.uniform(lower, upper))
        phi = _sigma_along(pm.matrix, p, q)
        vs = phi(np.linspace(0.0, 1.0, samples))
        top = float(vs.max())
        reach = top + abs(q - p) / (samples - 1)
        for cap in (0.5 * vs[0], 0.25 * top, 0.5 * top, 0.75 * top, reach):
            slack = pm.level_slack(cap)
            t_scan = scan_first_rise(phi, cap, n=samples)
            out = pm.advance_limit(wk._c2p(p), wk._c2p(q), cap, slack)
            if cap == reach:
                assert out is None
                outcomes["none"] += 1
            elif top > cap + slack:
                t_out = ((wk._p2c(out) - p) * (q - p).conjugate()).real / abs(q - p) ** 2
                assert abs(t_out - t_scan) <= 1e-10
                outcomes["rise" if t_scan > 0.0 else "start"] += 1
    assert outcomes == {"none": 3, "start": 3, "rise": 9}


def test_equalize_lands_on_the_first_crossing_of_a_dense_scan(ex_bidiag5):
    # The heuristic pair's pulled-in endpoints differ in sigma, so the lower
    # one moves to where sigma first reaches the higher one's value.
    pm = wk.prepare(ex_bidiag5)
    (l1, l2), _, _ = voronoi_heuristic(pm)
    x0, y0 = (wk._c2p(z) for z in wk._start_points(l1, l2))
    fx, fy = pm.value(x0), pm.value(y0)
    low, high = (x0, y0) if fx < fy else (y0, x0)
    x, y = equalize_endpoints(pm, x0, y0)
    moved = x if fx < fy else y
    assert np.array_equal(y if fx < fy else x, high)
    d = high - low
    t_oracle = scan_first_crossing(lambda t: pm.value(low + t * d), max(fx, fy), n=5_001)
    t_mine = float((moved - low) @ d / (d @ d))
    assert 0.0 < t_mine < 1.0
    assert abs(t_mine - t_oracle) <= 1e-10


def test_each_advance_makes_one_crossing_test(monkeypatch, ex_bidiag5):
    # The advance reads its limit and whether the cap is exceeded past the
    # slack off the same crossing test at the cap.
    calls = Counter()
    crossings = wk.byers_vertical_crossings

    def counted(*args, **kwargs):
        calls["byers"] += 1
        return crossings(*args, **kwargs)

    advances = []
    advance = wk.PreparedMatrix.advance_limit

    def recorded(self, p, q, cap, slack):
        before = calls["byers"]
        out = advance(self, p, q, cap, slack)
        if cap > 0.0:
            advances.append((calls["byers"] - before, out is not None))
        return out

    monkeypatch.setattr(wk, "byers_vertical_crossings", counted)
    monkeypatch.setattr(wk.PreparedMatrix, "advance_limit", recorded)
    wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert any(limited for _, limited in advances)
    assert all(tests == 1 for tests, _ in advances)


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
    with pytest.raises(ValueError, match="^eigenvalue pair must be distinct$"):
        wilkinson_local(np.diag([0.0, 2.0]).astype(complex), 2.0, 2.0)


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


def test_wilkinson_local_returns_an_unconverged_stop_after_one_run(monkeypatch, ex_bidiag5):
    # A run that returns is final: an unconverged stop is not rerun in a
    # smaller ball.
    run_local = wk.run_local
    runs = []

    def unconverged(field, region, x0, y0, opts=None):
        runs.append(replace(run_local(field, region, x0, y0, opts=opts),
                            converged=False, stop_reason="max_iter"))
        return runs[-1]

    monkeypatch.setattr(wk, "run_local", unconverged)
    res = wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert len(runs) == 1 and res.records is runs[0].records
    assert not res.converged and res.stop_reason == "max_iter"


def test_wilkinson_local_raises_no_records_at_once(monkeypatch, ex_bidiag5):
    empty = LocalRun(initial_pair=(None, None), records=[], converged=False,
                     stop_reason="bisector_below_level")
    radii = _recorded_runs(monkeypatch, lambda region: empty)
    with pytest.raises(PreconditionError, match="no records"):
        wilkinson_local(ex_bidiag5, 0.461 + 0.650j, 0.451 + 0.553j)
    assert len(radii) == 1


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
def test_exhaustive_mode_returns_the_smallest_converged_pair(
        monkeypatch, n, seed, heuristic_raises):
    # Scaled complex Gaussian matrices on which the heuristic pair does not
    # converge (it stops with bisector_below_level; on n6-s92 its solve is
    # made to raise BoundaryHitError) while other pairs do: the scan returns
    # the best converged pair, not the heuristic's estimate.
    if heuristic_raises:
        _counted_local_solves(monkeypatch, _boundary_hit)
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


def test_exhaustive_scan_clips_and_samples_the_diagram_once(monkeypatch, ex_bidiag5):
    # The heuristic and the prune share the prepared matrix's Voronoi stage;
    # the prune samples only the four sides of the region on its own.
    edges, sampled = [], []
    clip, sample = wk.voronoi_edges, wk._edge_samples

    def counted_clip(*args):
        edges.append(clip(*args))
        return edges[-1]

    def counted_sample(*args):
        sampled.append(args)
        return sample(*args)

    monkeypatch.setattr(wk, "voronoi_edges", counted_clip)
    monkeypatch.setattr(wk, "_edge_samples", counted_sample)
    res = wilkinson_distance(ex_bidiag5, WilkinsonOptions(exhaustive=True))
    assert _skipped(res)  # the prune ran
    assert len(edges) == 1
    assert len(sampled) == len(edges[0]) + 4


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


@pytest.mark.parametrize("n, seed", [(6, 75), (8, 78), (6, 92)], ids=["n6-s75", "n8-s78", "n6-s92"])
def test_default_mode_falls_back_to_the_next_voronoi_pair(n, seed):
    # The heuristic pair does not converge on these matrices; the default run
    # goes on through the other Voronoi pairs and returns the first that does.
    a = _random_matrix("scaled", n, seed)
    res = wilkinson_distance(a)
    assert res.converged and res.pair_scan is None
    assert {*res.chosen_pair} != {*res.heuristic_pair}
    scan = wilkinson_distance(a, WilkinsonOptions(exhaustive=True))
    assert res.heuristic_pair == scan.heuristic_pair
    assert res.heuristic_epsilon == scan.heuristic_epsilon
    (entry,) = [e for e in scan.pair_scan if {*e["pair"]} == {*res.chosen_pair}]
    assert entry["converged"] and res.epsilon_bar_estimate == entry["epsilon"]


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


def _boundary_hit(res):
    raise BoundaryHitError(wk._c2p(res.coalescence_point))


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


@pytest.mark.parametrize("n, seed, first", [(6, 92, _boundary_hit), (6, 75, lambda res: res)],
                         ids=["n6-s92-heuristic-raises", "n6-s75-unconverged-heuristic"])
def test_scan_solves_every_pair_without_a_converged_heuristic(monkeypatch, n, seed, first):
    pairs = _counted_local_solves(monkeypatch, first)
    res = wilkinson_distance(_random_matrix("scaled", n, seed), WilkinsonOptions(exhaustive=True))
    assert len(pairs) == len(res.pair_scan) == n * (n - 1) // 2
    assert not _skipped(res)


def test_scan_solves_every_pair_when_a_side_of_the_region_dips(monkeypatch, ex_bidiag5):
    region = wk.prepare(ex_bidiag5).region
    (x0, y0), (x1, y1) = region.lower, region.upper
    corners = {complex(x, y) for x in (x0, x1) for y in (y0, y1)}
    dips = wk._dips_below

    def side_dips(pm, start, end, level, samples):
        return {start, end} <= corners or dips(pm, start, end, level, samples)

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
    with pytest.raises(ValueError, match="^nx must be an integer, got 2.5$"):
        pseudospectrum_grid([[0.0]], None, 2.5, 3)


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

    for name in ("minimize", "maximize", "advance_limit"):
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
    for name in ("minimize", "maximize", "advance_limit"):
        assert getattr(type(f), name) is getattr(ScalarField, name)
        assert getattr(wk.PreparedMatrix, name) is not getattr(ScalarField, name)
