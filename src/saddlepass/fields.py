"""Scalar fields, search regions, and the catalog of analytic test problems.

A :class:`ScalarField` is an evaluatable map from R^n to R that is also its
own solver for the three 1-D problems on segments the local iteration reduces
to: minimize, maximize, and advance to the first rise through a level.  The
methods here sample each segment and refine, the extrema by bounded Brent plus
Newton polish; a field with an exact 1-D solver (the sigma_min field of a
prepared matrix) overrides them.  The closest-pair line search instead solves
for a zero of :meth:`_Line.slope` when the field has a gradient.  Fields are
pure value objects: the only mutable state is the pair of evaluation counters,
which never influences computed values and is excluded from equality.  Counter
updates are plain integer increments; under concurrent use they may
undercount, which is acceptable because nothing downstream depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .diagnostics import _newton_polish_1d
from .errors import require_count

#: Uniform samples per segment for the sampled segment methods' coarse search,
#: then the bounded Brent search's absolute tolerance on the best sample's
#: bracket; :func:`diagnostics._newton_polish_1d` polishes its result.
_SEGMENT_SAMPLES = 64
_XATOL = 1e-13


# --------------------------------------------------------------------------
# 1-D helpers on parameterized segments
# --------------------------------------------------------------------------

def _refine_bracket_min(phi, ts, vs):
    """Best sample -> bounded Brent on the bracketing neighbors -> polish.

    Returns a value ``phi`` computed, never a batched sample from ``vs``: the
    two may differ in the last bits.
    """
    j = int(np.argmin(vs))
    lo = ts[max(j - 1, 0)]
    hi = ts[min(j + 1, len(ts) - 1)]
    t_best, f_best = ts[j], None
    if hi > lo:
        res = minimize_scalar(phi, bounds=(lo, hi), method="bounded", options={"xatol": _XATOL})
        if res.fun <= vs[j]:
            t_best, f_best = float(res.x), float(res.fun)
    return _newton_polish_1d(phi, t_best, ts[0], ts[-1], f_best)


class _Line:
    """The field along the line ``origin + t * direction``."""

    def __init__(self, field: ScalarField, origin: np.ndarray, direction: np.ndarray):
        self.field = field
        self.origin = origin
        self.direction = direction

    def at(self, t):
        return self.origin + t * self.direction

    def __call__(self, t) -> float:
        return self.field.value(self.origin + t * self.direction)

    def sample(self, ts: np.ndarray) -> np.ndarray:
        """Field values at the parameters ``ts``, in one batched evaluation."""
        return self.field.value_many(self.origin[None, :] + ts[:, None] * self.direction[None, :])

    def root(self, level: float, a: float, b: float) -> float:
        """A parameter in [a, b] where the field crosses ``level``."""
        return brentq(lambda t: self(t) - level, a, b, xtol=1e-15)

    def slope(self, t) -> float:
        """The derivative in t, from the field's gradient at ``at(t)``."""
        return float(self.field.grad(self.at(t)) @ self.direction)

    def stationary(self, a: float, b: float) -> Optional[float]:
        """A parameter in [a, b] where the slope vanishes; None when the slope
        keeps its sign on [a, b]."""
        try:
            return brentq(self.slope, a, b, xtol=1e-15)
        except ValueError:  # brentq's "f(a) and f(b) must have different signs"
            return None


class ScalarField:
    """An evaluatable map R^n -> R with an optional gradient.

    Parameters
    ----------
    dimension : int
        Number of coordinates ``n``.
    evaluate : callable
        Maps a point (array of shape ``(n,)``) to a float.  Must be
        deterministic: repeated calls at the same point return bit-identical
        values.
    gradient : callable, optional
        Maps a point to the gradient vector of shape ``(n,)``.  Omit it for
        nonsmooth fields; downstream solvers fall back to derivative-free or
        finite-difference schemes.
    batch_evaluate : callable, optional
        Vectorized evaluation over an ``(m, n)`` array of points, returning an
        ``(m,)`` array; every sampled search calls it (a Python loop over
        ``evaluate`` otherwise).  Catalog fields derive ``evaluate`` from it.
    name : str
        Identifier used in reports.
    differentiable : bool
        Set ``False`` for fields that are not differentiable everywhere, even
        if finite differences happen to work away from the kinks.  Diagnostics
        use this to mark gradient-based reports as not applicable.

    The three segment methods :meth:`minimize`, :meth:`maximize` and
    :meth:`advance_limit` solve the local iteration's 1-D subproblems by
    uniform sampling plus bisection/Brent refinement.  Coarse sampling is safe
    there: near the saddle the field has a single interior extremum or first
    crossing on the segments the solver builds.  A subclass with an exact 1-D
    solver overrides all three.
    """

    def __init__(
        self,
        dimension: int,
        evaluate: Callable[[np.ndarray], float],
        gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        batch_evaluate: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        name: str = "",
        differentiable: bool = True,
    ):
        require_count("dimension", dimension)
        self.dimension = int(dimension)
        self._evaluate = evaluate
        self._gradient = gradient
        self._batch_evaluate = batch_evaluate
        self.name = name
        self.differentiable = bool(differentiable)
        self.eval_count = 0
        self.grad_count = 0

    @property
    def has_gradient(self) -> bool:
        return self._gradient is not None

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(self.dimension)
        self.eval_count += 1
        return float(self._evaluate(x))

    __call__ = value

    def value_many(self, pts) -> np.ndarray:
        """Evaluate at an ``(m, n)`` array of points."""
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dimension)
        self.eval_count += pts.shape[0]
        if self._batch_evaluate is not None:
            return np.asarray(self._batch_evaluate(pts), dtype=float).reshape(pts.shape[0])
        return np.array([float(self._evaluate(p)) for p in pts])

    def grad(self, x) -> np.ndarray:
        if self._gradient is None:
            raise ValueError(f"field {self.name!r} has no gradient")
        x = np.asarray(x, dtype=float).reshape(self.dimension)
        self.grad_count += 1
        return np.asarray(self._gradient(x), dtype=float).reshape(self.dimension)

    def level_slack(self, level: float) -> float:
        """Roundoff allowance when a field value is compared with ``level``."""
        return 1e-12 * (1.0 + abs(level))

    def _sample(self, p, q):
        """The segment [p, q] as a line over [0, 1], with its coarse samples."""
        p = np.asarray(p, dtype=float)
        line = _Line(self, p, np.asarray(q, dtype=float) - p)
        ts = np.linspace(0.0, 1.0, _SEGMENT_SAMPLES + 1)
        return line, ts, line.sample(ts)

    def minimize(self, p, q) -> tuple[np.ndarray, float]:
        """Minimum of the field on the segment [p, q]: (argmin, value)."""
        line, ts, vs = self._sample(p, q)
        t, v = _refine_bracket_min(line, ts, vs)
        return line.at(t), float(v)

    def maximize(self, p, q) -> tuple[float, np.ndarray]:
        """Maximum of the field on the segment [p, q]: (value, argmax)."""
        line, ts, vs = self._sample(p, q)
        t, v = _refine_bracket_min(lambda t: -line(t), ts, -vs)
        return float(-v), line.at(t)

    def advance_limit(self, p, q, cap, slack) -> Optional[np.ndarray]:
        """Where the field, going from p to q, first rises through ``cap``
        on its way above ``cap + slack``; None if it never exceeds that."""
        line, ts, vs = self._sample(p, q)
        bad = np.nonzero(vs > cap + slack)[0]
        if bad.size == 0:
            return None
        j = int(bad[0])
        k = j - 1
        while k > 0 and vs[k] > cap:
            k -= 1
        if vs[k] > cap:
            return line.origin.copy()
        return line.at(line.root(cap, ts[k], ts[j]))

    def __eq__(self, other):
        # Counters are deliberately excluded from equality.
        if not isinstance(other, ScalarField):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self._evaluate is other._evaluate
            and self._gradient is other._gradient
        )

    __hash__ = None

    def __repr__(self):
        return f"ScalarField(name={self.name!r}, dimension={self.dimension})"


class Ball:
    """Closed ball region ``{x : |x - center| <= radius}``."""

    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.radius = float(radius)
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {radius}")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(np.linalg.norm(x - self.center)) <= self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def boundary_distance(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        return self.radius - float(np.linalg.norm(x - self.center))

    def line_interval(self, origin, direction):
        """Parameter interval of ``origin + t * direction`` inside the ball."""
        o = np.asarray(origin, dtype=float) - self.center
        d = np.asarray(direction, dtype=float)
        a = float(d @ d)
        b = 2.0 * float(o @ d)
        c = float(o @ o) - self.radius**2
        disc = b * b - 4.0 * a * c
        if disc <= 0 or a == 0:
            return None
        s = np.sqrt(disc)
        return ((-b - s) / (2 * a), (-b + s) / (2 * a))

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Box:
    """Axis-aligned box region ``{x : lower <= x <= upper}`` (componentwise)."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float).reshape(-1)
        self.upper = np.asarray(upper, dtype=float).reshape(-1)
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same shape")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower must be strictly below upper componentwise")

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def boundary_distance(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(min(np.min(x - self.lower), np.min(self.upper - x)))

    def line_interval(self, origin, direction):
        """Parameter interval of ``origin + t * direction`` inside the box."""
        o = np.asarray(origin, dtype=float)
        d = np.asarray(direction, dtype=float)
        tlo, thi = -np.inf, np.inf
        for k in range(o.size):
            if d[k] == 0.0:
                if o[k] < self.lower[k] or o[k] > self.upper[k]:
                    return None
                continue
            t1 = (self.lower[k] - o[k]) / d[k]
            t2 = (self.upper[k] - o[k]) / d[k]
            if t1 > t2:
                t1, t2 = t2, t1
            tlo = max(tlo, t1)
            thi = min(thi, t2)
        if not np.isfinite(tlo) or not np.isfinite(thi) or tlo > thi:
            return None
        return (tlo, thi)

    def __repr__(self):
        return f"Box(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


# Either a Ball or a Box; both expose the same membership/geometry methods.
Region = Ball | Box


@dataclass
class TestProblem:
    """A named field together with a search region and path endpoints."""

    __test__ = False  # keep pytest from collecting this as a test class

    name: str
    field: ScalarField
    region: Region
    endpoints: tuple[np.ndarray, np.ndarray]
    known_saddle: Optional[tuple[np.ndarray, float]] = None

    def __post_init__(self):
        a, b = self.endpoints
        a = np.asarray(a, dtype=float).reshape(-1)
        b = np.asarray(b, dtype=float).reshape(-1)
        self.endpoints = (a, b)
        if not (self.region.contains(a) and self.region.contains(b)):
            raise ValueError(f"{self.name}: endpoints must lie in the region")
        if self.known_saddle is not None:
            pt, val = self.known_saddle
            self.known_saddle = (np.asarray(pt, dtype=float).reshape(-1), float(val))


def _catalog_field(dimension, ev_many, gradient=None, **kwargs) -> ScalarField:
    """A field whose scalar value is its batched formula at one point, bit for bit."""
    return ScalarField(dimension, lambda x: ev_many(x[None, :])[0], gradient,
                       batch_evaluate=ev_many, **kwargs)


def make_quadratic_field(diag: Sequence[float]) -> ScalarField:
    """Diagonal quadratic ``x -> sum_j a_j x_j**2`` with exact gradient.

    Saddle tests expect exactly one negative entry; this is documented rather
    than enforced, so the constructor can also build wells and ridges.
    """
    a = np.asarray(diag, dtype=float).reshape(-1)
    if a.size == 0:
        raise ValueError("diagonal vector must be nonempty")

    def gr(x):
        return 2.0 * a * x

    def ev_many(pts):
        return (pts * pts) @ a

    return _catalog_field(a.size, ev_many, gr, name=f"quadratic{a.tolist()}")


def _problem(name, region, endpoints, ev_many, gradient=None, known_saddle=None,
             differentiable=True) -> TestProblem:
    """A catalog problem on the field of the batched formula ``ev_many``."""
    field = _catalog_field(len(endpoints[0]), ev_many, gradient, name=name,
                           differentiable=differentiable)
    return TestProblem(name, field, region, endpoints, known_saddle)


def _quadratic_saddle() -> TestProblem:
    f = make_quadratic_field([1.0, -1.0])
    f.name = "quadratic-saddle"
    return TestProblem(
        name=f.name,
        field=f,
        region=Ball((0.0, 0.0), 4.0),
        endpoints=(np.array([0.0, -1.0]), np.array([0.0, 1.0])),
        known_saddle=(np.array([0.0, 0.0]), 0.0),
    )


def _ps_fail_a() -> TestProblem:
    def gr(x):
        return np.array([-np.exp(-x[0]), -2.0 * x[1]])

    def ev_many(p):
        return np.exp(-p[:, 0]) - p[:, 1] ** 2

    return _problem("ps-fail-a", Box((0.0, -2.0), (10.0, 2.0)), ((0.0, -1.5), (0.0, 1.5)),
                    ev_many, gr)


def _ps_fail_b() -> TestProblem:
    def gr(x):
        e1 = np.exp(-x[0])
        return np.array([-2.0 * np.exp(-2.0 * x[0]) + x[1] ** 2 * e1, -2.0 * x[1] * e1])

    def ev_many(p):
        return np.exp(-2.0 * p[:, 0]) - p[:, 1] ** 2 * np.exp(-p[:, 0])

    return _problem("ps-fail-b", Box((0.0, -2.0), (10.0, 2.0)), ((0.0, -1.5), (0.0, 1.5)),
                    ev_many, gr)


def _plateau() -> TestProblem:
    # Piecewise-linear with a flat segment of local minima on [-1, 1].
    # Nonsmooth at the two hinges, so no gradient is reported.
    def ev_many(p):
        t = p[:, 0]
        return np.where(t <= -1.0, t, np.where(t >= 1.0, -t, -1.0))

    return _problem("plateau", Box((-4.0,), (4.0,)), ((-2.0,), (2.0,)), ev_many,
                    differentiable=False)


def _double_well_curve() -> TestProblem:
    def gr(x):
        u = x[1] - x[0] ** 2
        v = x[0] - x[1] ** 2
        return np.array([-2.0 * x[0] * v + u, v - 2.0 * x[1] * u])

    def ev_many(p):
        return (p[:, 1] - p[:, 0] ** 2) * (p[:, 0] - p[:, 1] ** 2)

    # The endpoints lie inside the two negative "wings"; the wings touch at
    # (0,0) and (1,1), both critical with value 0.
    return _problem("double-well-curve", Box((-1.5, -1.5), (1.5, 1.5)),
                    ((0.2, 0.75), (0.75, 0.2)), ev_many, gr, known_saddle=((1.0, 1.0), 0.0))


def _sqrt_cusp() -> TestProblem:
    # f(x) = -sqrt(|x|); not Lipschitz at 0, so no gradient is reported.
    def ev_many(p):
        return -np.sqrt(np.abs(p[:, 0]))

    return _problem("sqrt-cusp", Box((-2.0,), (2.0,)), ((-1.0,), (1.0,)), ev_many,
                    known_saddle=((0.0,), 0.0), differentiable=False)


_BUILDERS = (
    _quadratic_saddle,
    _ps_fail_a,
    _ps_fail_b,
    _plateau,
    _double_well_curve,
    _sqrt_cusp,
)


def builtin_problems() -> list[TestProblem]:
    """Fresh instances of the whole catalog (counters start at zero)."""
    return [make() for make in _BUILDERS]


def get_problem(name: str) -> TestProblem:
    for make in _BUILDERS:
        p = make()
        if p.name == name:
            return p
    known = ", ".join(p.name for p in builtin_problems())
    raise KeyError(f"unknown problem {name!r}; known: {known}")
