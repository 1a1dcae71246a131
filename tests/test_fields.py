import numpy as np
import pytest

from saddlepass import (Ball, Box, ScalarField, TestProblem, builtin_problems, get_problem,
                        make_quadratic_field)
from saddlepass.diagnostics import fd_gradient


def test_quadratic_field_values():
    f = make_quadratic_field([1.0, -1.0])
    assert f.value([0.0, 0.0]) == 0.0
    assert f.value([2.0, 1.0]) == 3.0


def test_quadratic_field_gradient_exact():
    f = make_quadratic_field([3.0, 2.0, -1.0])
    assert np.array_equal(f.grad([1.0, 1.0, 1.0]), [6.0, 4.0, -2.0])


def test_quadratic_empty_diagonal_rejected():
    with pytest.raises(ValueError):
        make_quadratic_field([])


def test_catalog_contains_required_problems():
    names = {p.name for p in builtin_problems()}
    assert {"quadratic-saddle", "ps-fail-a", "ps-fail-b", "plateau",
            "double-well-curve", "sqrt-cusp"} <= names


def test_catalog_lookups():
    qs = get_problem("quadratic-saddle")
    assert qs.known_saddle[1] == 0.0
    dw = get_problem("double-well-curve")
    assert dw.field.value([1.0, 1.0]) == 0.0
    sc = get_problem("sqrt-cusp")
    assert sc.field.value([4.0]) == -2.0
    with pytest.raises(KeyError):
        get_problem("no-such-problem")


def test_catalog_endpoints_inside_region_and_known_saddles():
    for p in builtin_problems():
        a, b = p.endpoints
        assert p.region.contains(a) and p.region.contains(b)
        if p.known_saddle is not None:
            pt, _ = p.known_saddle
            g = p.field.grad(pt) if p.field.has_gradient else fd_gradient(p.field, pt)
            assert np.linalg.norm(g) <= 1e-8
    qs = get_problem("quadratic-saddle")
    with pytest.raises(ValueError, match="^moved: endpoints must lie in the region$"):
        TestProblem("moved", qs.field, qs.region, ((0.0, -1.0), (0.0, 5.0)))


def test_gradients_match_finite_differences():
    # >= 100 random interior points per gradient-bearing catalog field.
    rng = np.random.default_rng(0)
    for p in builtin_problems():
        if not p.field.has_gradient:
            continue
        lo, hi = p.region.bounding_box()
        checked = 0
        while checked < 100:
            x = rng.uniform(lo, hi)
            if not p.region.boundary_distance(x) > 0:
                continue
            an = p.field.grad(x)
            fd = fd_gradient(p.field, x)
            assert np.linalg.norm(fd - an) <= 1e-5 * (1.0 + np.linalg.norm(an)), (
                p.name, x, an, fd)
            checked += 1


def test_evaluate_deterministic_bit_identical():
    rng = np.random.default_rng(1)
    for p in builtin_problems():
        lo, hi = p.region.bounding_box()
        for _ in range(20):
            x = rng.uniform(lo, hi)
            assert p.field.value(x) == p.field.value(x)


def test_batch_evaluate_matches_pointwise():
    # Scalar and batched values are one formula, so they agree bit for bit.
    # Two hand-written copies of a formula disagree at about 1 point in 1,000,
    # hence the 5,000 points per field.
    rng = np.random.default_rng(2)
    for p in builtin_problems():
        lo, hi = p.region.bounding_box()
        pts = rng.uniform(lo, hi, size=(5000, p.field.dimension))
        batch = p.field.value_many(pts)
        single = np.array([p.field.value(x) for x in pts])
        assert np.array_equal(batch, single), p.name
        before = p.field.eval_count
        p.field.value(pts[0])
        assert p.field.eval_count == before + 1, p.name


@pytest.mark.parametrize("dimension", [0, 2.5, True, "2"])
def test_field_dimension_must_be_a_positive_integer(dimension):
    with pytest.raises(ValueError, match="dimension"):
        ScalarField(dimension, lambda x: 0.0)


def test_field_dimension_accepts_numpy_integers():
    assert ScalarField(np.int64(3), lambda x: 0.0).dimension == 3


def test_advance_limit_is_the_start_when_it_already_exceeds_the_cap():
    f = make_quadratic_field([1.0, -1.0])  # x1^2 >= 0 > -0.5 on x2 = 0
    assert np.array_equal(f.advance_limit([0.0, 0.0], [1.0, 0.0], -0.5, 0.0), [0.0, 0.0])


def test_counters_and_equality():
    p = get_problem("quadratic-saddle")
    f = p.field
    twin = ScalarField(f.dimension, f._evaluate, f._gradient)
    assert f == twin
    before = f.eval_count
    f.value([0.3, 0.4])
    f.value_many(np.zeros((5, 2)))
    assert f.eval_count == before + 6
    f.grad([0.1, 0.1])
    assert f.grad_count == 1
    assert f == twin  # counters excluded from equality


def test_ball_membership_is_interior_metric():
    rng = np.random.default_rng(3)
    ball = Ball((0.5, -0.25), 1.25)
    for _ in range(200):
        x = rng.uniform(-2, 2, size=2)
        inside = np.linalg.norm(x - ball.center) < ball.radius
        assert (ball.boundary_distance(x) > 0) == inside
        if ball.boundary_distance(x) > 0:
            assert ball.contains(x)


def test_region_validation():
    with pytest.raises(ValueError):
        Ball((0, 0), 0.0)
    with pytest.raises(ValueError):
        Box((0, 0), (0, 1))
    with pytest.raises(ValueError, match="^lower and upper must have the same shape$"):
        Box((0, 0), (1, 1, 1))


def test_box_line_interval():
    box = Box((-1.0, -2.0), (1.0, 2.0))
    t = box.line_interval(np.zeros(2), np.array([1.0, 0.0]))
    assert t == (-1.0, 1.0)
    assert box.line_interval(np.array([5.0, 0.0]), np.array([0.0, 1.0])) is None


def test_nonsmooth_entries_report_no_gradient():
    for name in ("plateau", "sqrt-cusp"):
        p = get_problem(name)
        assert not p.field.has_gradient
        assert not p.field.differentiable
        with pytest.raises(ValueError):
            p.field.grad(p.endpoints[0])
