import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from saddlepass import (
    Ball,
    BisectionOptions,
    Box,
    ComponentQuery,
    LocalOptions,
    ScalarField,
    SigmaMinField,
    TestProblem,
    assemble_path,
    bisect,
    component_distance,
    get_problem,
    same_component,
    voronoi_heuristic,
)
from saddlepass import bisection
from saddlepass.errors import (
    PreconditionError,
    ResolutionLimitError,
    UnsupportedDimensionError,
)

from conftest import bidiagonal_5x5
from oracles import label_mask_components

QS = get_problem("quadratic-saddle")
BOX = Box((-1.5, -1.5), (1.5, 1.5))


def test_same_component_above_and_below_saddle_level():
    q_hi = ComponentQuery(QS.field, BOX, 1.0, 1e-2)
    assert same_component(q_hi, [0.0, -1.0], [0.0, 1.0])
    q_lo = ComponentQuery(QS.field, BOX, -0.25, 1e-2)
    assert not same_component(q_lo, [0.0, -1.0], [0.0, 1.0])


def test_same_component_validates_inputs():
    q = ComponentQuery(QS.field, BOX, -0.25, 1e-2)
    with pytest.raises(PreconditionError):
        same_component(q, [0.0, 0.0], [0.0, 1.0])  # f(a)=0 > level
    with pytest.raises(PreconditionError, match="^b lies outside the region$"):
        same_component(q, [0.0, -1.0], [0.0, 2.0])  # f(b)=-4 <= level, outside BOX
    f3 = ScalarField(3, lambda x: float(x @ x), name="3d")
    with pytest.raises(UnsupportedDimensionError):
        same_component(ComponentQuery(f3, Box((-1,) * 3, (1,) * 3), 1.0, 0.1), [0] * 3, [0] * 3)


def test_same_component_matches_high_resolution_labeling_oracle():
    # Independent oracle: run-merging union-find labels on a 2000^2 grid.
    # The catalog wing points replace the unusable pair from the original
    # write-up (whose values sit above the queried level).
    prob = get_problem("double-well-curve")
    level = -0.01
    lo, hi = BOX.bounding_box()
    n = 2000
    h = (hi[0] - lo[0]) / n
    xs = lo[0] + (np.arange(n) + 0.5) * h
    ys = lo[1] + (np.arange(n) + 0.5) * h
    gx, gy = np.meshgrid(xs, ys)
    vals = prob.field.value_many(np.column_stack([gx.ravel(), gy.ravel()])).reshape(n, n)
    labels = label_mask_components(vals <= level)

    def oracle_label(p):
        ix = int(np.clip((p[0] - lo[0]) / h, 0, n - 1))
        iy = int(np.clip((p[1] - lo[1]) / h, 0, n - 1))
        return labels[iy, ix]

    a = np.array([0.2, 0.75])
    b = np.array([0.75, 0.2])
    c = np.array([0.1, 0.9])  # same wing as a
    assert oracle_label(a) != 0 and oracle_label(b) != 0 and oracle_label(c) != 0
    q = ComponentQuery(prob.field, BOX, level, BOX.diameter() / 512)
    assert same_component(q, a, c) == (oracle_label(a) == oracle_label(c))
    assert same_component(q, a, b) == (oracle_label(a) == oracle_label(b))
    assert not same_component(q, a, b)


def test_spec_sample_points_violate_level_precondition():
    # The historically quoted pair (0.5, 0.4) / (0.4, 0.5) has f = +0.051,
    # which is above every negative level, so the query must refuse it.
    prob = get_problem("double-well-curve")
    q = ComponentQuery(prob.field, BOX, -0.01, 1e-2)
    with pytest.raises(PreconditionError):
        same_component(q, [0.5, 0.4], [0.4, 0.5])


def test_component_distance_analytic_pair():
    # lev_{<= -eps} of x1^2 - x2^2 has closest pair (0, +-sqrt(eps)).
    q = ComponentQuery(QS.field, BOX, -0.04, 1e-3)
    cp = component_distance(q, [0.0, -1.0], [0.0, 1.0])
    assert cp is not None
    assert np.linalg.norm(cp.x - [0.0, -0.2]) <= 1e-3
    assert np.linalg.norm(cp.y - [0.0, 0.2]) <= 1e-3
    assert abs(cp.dist - 0.4) <= 1e-3


def test_component_distance_connected():
    q = ComponentQuery(QS.field, BOX, 0.5, 1e-2)
    assert component_distance(q, [0.0, -1.0], [0.0, 1.0]) is None


def test_component_distance_no_interior_pair_monotone_in_box_width():
    prob = get_problem("ps-fail-a")
    dists = []
    for width in (5.0, 10.0, 20.0):
        reg = Box((0.0, -2.0), (width, 2.0))
        q = ComponentQuery(prob.field, reg, -0.1, reg.diameter() / 512)
        cp = component_distance(q, [0.0, -1.5], [0.0, 1.5])
        assert cp is not None and cp.on_boundary
        dists.append(cp.dist)
    assert dists[0] > dists[1] > dists[2]
    # limit is 2 sqrt(0.1) as the box stretches right
    assert abs(dists[2] - 2 * np.sqrt(0.1)) <= 1e-3


def test_resolution_limit_for_subcell_components():
    # Two sublevel discs of radius 1e-4, far below the grid spacing.
    def ev(x):
        return float(min(np.hypot(x[0] + 1, x[1]), np.hypot(x[0] - 1, x[1])))

    def ev_many(p):
        return np.minimum(np.hypot(p[:, 0] + 1, p[:, 1]), np.hypot(p[:, 0] - 1, p[:, 1]))

    f = ScalarField(2, ev, batch_evaluate=ev_many, name="two-points", differentiable=False)
    q = ComponentQuery(f, Box((-2, -2), (2, 2)), 1e-4, 4 * np.sqrt(2) / 512)
    with pytest.raises(ResolutionLimitError):
        same_component(q, [-1.0, 0.0], [1.0, 0.0])


# ------------------------------------------------------------------ bisect

def test_bisect_quadratic_saddle_bracket_and_exact_halving():
    state = bisect(QS, init_lower=-1.0, init_upper=1.0,
                   opts=BisectionOptions(value_tol=1e-6, point_tol=1e-12, max_iter=40))
    assert state.converged
    assert state.iterations == 21
    assert state.upper - state.lower <= 1e-6
    for lo, up, _, _ in state.history:
        assert lo <= 0.0 <= up
    for k, w in enumerate(state.widths):
        assert w == 2.0 * 0.5**k
    # history (l, u) realize the widths exactly (dyadic bounds)
    for k, (lo, up, _, _) in enumerate(state.history):
        assert up - lo == state.widths[k + 1]


def test_bisect_stops_on_the_pair_distance():
    state = bisect(QS, opts=BisectionOptions(point_tol=1e-2))
    assert state.stop_reason == "point_tol"
    assert state.converged
    assert state.iterations == 16
    x, y = state.pair
    assert float(np.linalg.norm(x - y)) <= 1e-2


def test_bisect_lower_nondecreasing_upper_nonincreasing():
    state = bisect(QS, init_lower=-1.0, init_upper=1.0,
                   opts=BisectionOptions(value_tol=1e-6, max_iter=40))
    lows = [h[0] for h in state.history]
    ups = [h[1] for h in state.history]
    assert all(b >= a for a, b in zip(lows[:-1], lows[1:]))
    assert all(b <= a for a, b in zip(ups[:-1], ups[1:]))


def test_bisect_pair_levels_and_monotone_distance():
    state = bisect(QS, init_lower=-1.0, init_upper=1.0,
                   opts=BisectionOptions(value_tol=1e-4, max_iter=40))
    h = QS.region.diameter() / 512
    dists = [float(np.linalg.norm(x - y)) for x, y in state.pairs]
    assert all(b <= a + h for a, b in zip(dists[:-1], dists[1:]))
    x, y = state.pair
    assert QS.field.value(x) <= state.level_of_pair + 1e-12
    assert QS.field.value(y) <= state.level_of_pair + 1e-12
    assert QS.region.contains(x) and QS.region.contains(y)


def test_bisect_double_well_brackets_zero():
    prob = get_problem("double-well-curve")
    state = bisect(prob, opts=BisectionOptions(value_tol=1e-4, max_iter=40))
    assert state.converged
    assert state.lower <= 0.0 <= state.upper
    for lo, up, _, _ in state.history:
        assert lo <= 0.0 <= up
    w0 = state.widths[0]
    for k, w in enumerate(state.widths):
        assert w == w0 * 0.5**k


def test_bisect_embedded_cusp_pair_approaches_axis():
    # -sqrt(|x1|) + x2^2 has its unique pass through the cusp line x1 = 0.
    def ev(x):
        return float(-np.sqrt(abs(x[0])) + x[1] ** 2)

    def ev_many(p):
        return -np.sqrt(np.abs(p[:, 0])) + p[:, 1] ** 2

    f = ScalarField(2, ev, batch_evaluate=ev_many, name="cusp2d", differentiable=False)
    prob = TestProblem(
        name="cusp2d",
        field=f,
        region=Box((-2.0, -2.0), (2.0, 2.0)),
        endpoints=(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
    )
    state = bisect(prob, opts=BisectionOptions(value_tol=1e-3, max_iter=30))
    x, y = state.pair
    assert abs(x[0]) <= 1e-2 and abs(y[0]) <= 1e-2


def test_bisect_rejects_inverted_bounds_and_wrong_dimension():
    with pytest.raises(ValueError):
        bisect(QS, init_lower=1.0, init_upper=-1.0)
    # A non-finite bound is a bad argument, not a grid resolution limit (NaN,
    # -inf) or a run that ends unconverged at upper = inf.
    for bounds, name in [({"init_lower": float("nan")}, "init_lower"),
                         ({"init_upper": float("nan")}, "init_upper"),
                         ({"init_lower": -float("inf"), "init_upper": 1.0}, "init_lower"),
                         ({"init_upper": float("inf")}, "init_upper")]:
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            bisect(QS, **bounds)
    with pytest.raises(UnsupportedDimensionError):
        bisect(get_problem("sqrt-cusp"))


def test_bisect_rejects_a_lower_bound_below_the_endpoint_values():
    # f = -1 at both endpoints, so -5 is not a valid lower bound.
    with pytest.raises(ValueError, match=r"init_lower must be at least max\(f\(a\), f\(b\)\)"):
        bisect(QS, init_lower=-5.0)


# ------------------------------------------------------------------- paths

def test_assemble_path_one_advancing_iteration():
    state = bisect(QS, init_lower=-1.0, init_upper=0.0,
                   opts=BisectionOptions(value_tol=1e-12, max_iter=1))
    assert len(state.pairs) == 2  # mid = -0.5 separates, pair advances
    verts, _ = assemble_path(QS, state)
    assert verts.shape == (4, 2)
    with pytest.raises(ValueError, match="^state has an empty pair history$"):
        assemble_path(QS, dataclasses.replace(state, pairs=[]))


def test_assemble_path_endpoints_and_certificate():
    state = bisect(QS, init_lower=-1.0, init_upper=1.0,
                   opts=BisectionOptions(value_tol=1e-6, max_iter=40))
    verts, max_f = assemble_path(QS, state)
    a, b = QS.endpoints
    assert np.array_equal(verts[0], a) and np.array_equal(verts[-1], b)
    gap = state.upper - state.lower
    assert abs(max_f - state.upper) <= 2.0 * gap


def test_bisect_resolution_limit_carries_state():
    def ev(x):
        return float(min(np.hypot(x[0] + 1, x[1]), np.hypot(x[0] - 1, x[1])))

    def ev_many(p):
        return np.minimum(np.hypot(p[:, 0] + 1, p[:, 1]), np.hypot(p[:, 0] - 1, p[:, 1]))

    f = ScalarField(2, ev, batch_evaluate=ev_many, name="two-points", differentiable=False)
    prob = TestProblem(
        name="two-points",
        field=f,
        region=Box((-2.0, -2.0), (2.0, 2.0)),
        endpoints=(np.array([-1.0, 0.0]), np.array([1.0, 0.0])),
    )
    # first midpoint level 5e-5 leaves each endpoint in a sub-cell component
    with pytest.raises(ResolutionLimitError) as info:
        bisect(prob, init_lower=0.0, init_upper=1e-4,
               opts=BisectionOptions(value_tol=1e-9, max_iter=5))
    assert info.value.state is not None
    assert info.value.state.lower == 0.0


@pytest.mark.parametrize("resolution", [-1.0, 0.0, float("nan"), float("inf"), True])
def test_bad_resolution_is_rejected_up_front(resolution):
    # Rejected when the options are built, not inside the bisection loop
    # after the initial segment maximization.
    with pytest.raises(ValueError, match="resolution"):
        BisectionOptions(resolution=resolution)
    with pytest.raises(ValueError, match="resolution"):
        ComponentQuery(QS.field, BOX, 0.0, resolution)


@pytest.mark.parametrize("options, name", [(BisectionOptions, "value_tol"),
                                           (LocalOptions, "point_tol")])
def test_a_bool_tolerance_is_rejected(options, name):
    # True would pass the positivity test and silently become 1.0.
    with pytest.raises(ValueError, match=f"^{name} must be a finite positive number, got True$"):
        options(**{name: True})


@pytest.mark.parametrize("options", [BisectionOptions, LocalOptions])
@pytest.mark.parametrize("max_iter", [float("nan"), 2.5, True])
def test_max_iter_must_be_an_integer_count(options, max_iter):
    # A NaN cap would run no iteration and 2.5 would fail inside range();
    # both are rejected with the other bad option values, as is a bool.
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        options(max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        options(max_iter=0)
    assert options(max_iter=np.int64(3)).max_iter == 3


# ------------------------------------------------------- sample reuse

def _sigma_min_5x5_problem() -> TestProblem:
    """The sigma_min field between the heuristic eigenvalue pair of the 5x5
    bidiagonal matrix, endpoints pulled in by 2%, in Ball(midpoint, 0.6 d)."""
    a = bidiagonal_5x5()
    (l1, l2), _, _ = voronoi_heuristic(a)
    d = l2 - l1
    mid = 0.5 * (l1 + l2)
    x0, y0 = l1 + 0.02 * d, l2 - 0.02 * d
    return TestProblem(
        name="sigma-min-5x5",
        field=SigmaMinField(a),
        region=Ball((mid.real, mid.imag), 0.6 * abs(d)),
        endpoints=(np.array([x0.real, x0.imag]), np.array([y0.real, y0.imag])),
    )


def test_bisect_samples_the_coarse_grid_once_per_run(monkeypatch):
    prob = get_problem("quadratic-saddle")
    sizes = []
    value_many = prob.field.value_many

    def counted(pts):
        sizes.append(len(pts))
        return value_many(pts)

    monkeypatch.setattr(prob.field, "value_many", counted)
    n = 512 * 512  # the region's 8 x 8 bounding box at spacing diameter / 512
    state = bisect(prob)
    assert state.iterations == 20
    assert sizes.count(n) == 1
    bisect(prob)
    assert sizes.count(n) == 2


@pytest.mark.parametrize("case", ["quadratic-saddle", "sigma-min-5x5"])
def test_reused_samples_give_the_standalone_pair_bit_for_bit(monkeypatch, case):
    if case == "sigma-min-5x5":
        prob = _sigma_min_5x5_problem()
        opts = BisectionOptions(resolution=prob.region.diameter() / 128)
    else:
        prob = get_problem(case)
        opts = BisectionOptions()
    calls = []
    original = bisection.component_distance

    def recorded(q, a, b, **kwargs):
        res = original(q, a, b, **kwargs)
        calls.append((q, a.copy(), b.copy(), res))
        return res

    monkeypatch.setattr(bisection, "component_distance", recorded)
    state = bisect(prob, opts=opts)
    assert len(calls) == state.iterations
    separated = [c for c in calls if c[3] is not None]
    assert len(separated) >= 5
    for q, a, b, res in calls:
        alone = original(q, a, b)
        if res is None:
            assert alone is None
            continue
        assert alone.x.tobytes() == res.x.tobytes()
        assert alone.y.tobytes() == res.y.tobytes()
        assert alone.dist == res.dist
        assert alone.on_boundary == res.on_boundary


def test_one_erosion_of_the_mask_gives_every_components_boundary():
    # A component cell whose four neighbors are all in the mask has them in
    # the component, so eroding the mask once matches eroding each label.
    rng = np.random.default_rng(12)
    for density in (0.3, 0.5, 0.6, 0.7, 0.9):
        samples = SimpleNamespace(vals=rng.random((40, 50)), inside=rng.random((40, 50)) < 0.95)
        grid = bisection._Grid(samples, density)
        assert grid.nlabels > 0
        for label in range(1, grid.nlabels + 1):
            comp = grid.labels == label
            own = ndimage.binary_erosion(comp, structure=bisection._CROSS, border_value=0)
            assert np.array_equal(comp & ~grid.interior, comp & ~own)
