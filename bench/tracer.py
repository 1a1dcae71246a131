"""Per-module tracing of saddlepass from outside the package.

The tracer wraps public functions of each saddlepass module, plus the two
numpy LAPACK entry points the package uses (``np.linalg.svd`` and
``np.linalg.eigvals``).  saddlepass imports names by value (``wilkinson``
holds its own ``run_local``, ``bisection`` its own ``segment_max``), so every
namespace that binds a wrapped object is patched, the package re-exports
included.  Spans are kept in memory with their parent span and turned into
self times when a pass ends.

Two identities close the books on every pass and fail the run when they do
not hold, which is how a call that escaped the patching shows up:

* numpy ``eigvals`` calls == Byers crossing tests + ``eigenvalues()`` calls;
* numpy ``svd`` calls (and stacked matrices) == the calls (and matrices)
  implied by the package's SVD call sites, where ``_sigma_batch`` issues one
  call per 4096-point chunk.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

import numpy as np

#: (module, attribute, span name).  The span name is the metric prefix.
_SPANS = (
    ("saddlepass.linalg", "byers_vertical_crossings", "linalg.byers"),
    ("saddlepass.wilkinson", "voronoi_heuristic", "wilkinson.voronoi"),
    ("saddlepass.wilkinson", "segment_minimize_sigma", "wilkinson.segment"),
    ("saddlepass.wilkinson", "segment_maximize_sigma", "wilkinson.segment"),
    ("saddlepass.wilkinson", "wilkinson_local", "wilkinson.local"),
    ("saddlepass.wilkinson", "pseudospectrum_grid", "wilkinson.psgrid"),
    ("saddlepass.local_solver", "run_local", "local_solver.run"),
    ("saddlepass.local_solver", "bisector_minimize", "local_solver.bisector"),
    ("saddlepass.local_solver", "advance_along_segment", "local_solver.advance"),
    ("saddlepass.local_solver", "segment_max", "local_solver.segment_max"),
    ("saddlepass.local_solver", "equalize_endpoints", "local_solver.equalize"),
    ("saddlepass.local_solver", "refine_closest_pair", "local_solver.refine_pair"),
    ("saddlepass.bisection", "bisect", "bisection"),
    ("saddlepass.bisection", "component_distance", "bisection.component_distance"),
    ("saddlepass.matrixio", "read_matrix", "matrixio.read"),
    ("saddlepass.cli", "main", "cli"),
)

#: Package functions that issue exactly one single-matrix SVD per call.
_ONE_SVD_SITES = (
    ("saddlepass.linalg", "smallest_singular_value"),
    ("saddlepass.linalg", "spectral_norm"),
    ("saddlepass.wilkinson", "_sigma_on_frame"),
    ("saddlepass.wilkinson", "nearest_defective_perturbation"),
)
_ONE_SVD_METHODS = ("sigma_at", "gradient_at")  # on linalg.SigmaMinField

#: Every stop reason ``run_local`` can report, plus an exception.
STOP_REASONS = ("point_tol", "gap_tol", "max_iter", "bisector_below_level", "raised")


class Tracer:
    """Context manager that patches saddlepass and numpy while active.

    Use :meth:`begin_pass` and :meth:`end_pass` around one pass over a
    workload's inputs; ``end_pass`` returns the pass's counts and self times.
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counts: Counter = Counter()
        self._fields: list[tuple[object, int]] = []

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, module_name, attr, wrap):
        """Replace ``module.attr`` in every saddlepass namespace that binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrap(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "saddlepass" or name.startswith("saddlepass.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def __enter__(self):
        import saddlepass.cli  # noqa: F401  (cli is not imported by the package)
        from saddlepass import fields, linalg

        for module_name, attr, span in _SPANS:
            self._patch_everywhere(module_name, attr, lambda f, s=span: self._spanned(s, f))
        for module_name, attr in _ONE_SVD_SITES:
            self._patch_everywhere(module_name, attr, lambda f: self._counted("site.svd.single", f))
        self._patch_everywhere("saddlepass.linalg", "_sigma_batch", self._sigma_batch_site)
        self._patch_everywhere(
            "saddlepass.linalg", "eigenvalues", lambda f: self._counted("linalg.eigenvalues", f)
        )
        self._patch_everywhere("saddlepass.wilkinson", "voronoi_edges", self._voronoi_edges)
        for meth in _ONE_SVD_METHODS:
            self._set(linalg.SigmaMinField, meth,
                      self._counted("site.svd.single", getattr(linalg.SigmaMinField, meth)))
        self._set(fields.ScalarField, "value_many",
                  self._spanned("fields.value_many", fields.ScalarField.value_many))
        self._set(fields.ScalarField, "__init__", self._field_init(fields.ScalarField.__init__))
        self._set(np.linalg, "svd", self._spanned("linalg.svd", np.linalg.svd))
        self._set(np.linalg, "eigvals", self._spanned("linalg.eig", np.linalg.eigvals))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, active = self._spans, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._on_enter(name, args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self._on_raise(name, err)
                raise
            finally:
                active[name] -= 1
                stack.pop()
                spans[idx][2] = clock()
            self._on_result(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _sigma_batch_site(self, fn):
        counts = self.counts

        def wrapper(a, zs, chunk=4096):
            m = int(np.asarray(zs).size)
            counts["site.svd.batch_calls"] += math.ceil(m / chunk)
            counts["site.svd.batch_matrices"] += m
            return fn(a, zs, chunk)

        wrapper.__wrapped__ = fn
        return wrapper

    def _voronoi_edges(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            edges = fn(*args, **kwargs)
            counts["wilkinson.voronoi.edges"] += len(edges)
            return edges

        wrapper.__wrapped__ = fn
        return wrapper

    def _field_init(self, fn):
        def wrapper(field, *args, **kwargs):
            fn(field, *args, **kwargs)
            self._fields.append((field, 0))

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_enter(self, name, args):
        if name == "linalg.byers":
            if self._active["wilkinson.voronoi"]:
                self.counts["wilkinson.voronoi.byers"] += 1
            if self._active["wilkinson.segment"]:
                self.counts["wilkinson.segment.byers"] += 1
        elif name == "linalg.svd":
            self.counts["linalg.svd.matrices"] += math.prod(np.shape(args[0])[:-2])
        elif name == "fields.value_many":
            field, pts = args[0], args[1]
            self.counts["fields.value_many.points"] += int(np.size(pts)) // field.dimension

    def _on_result(self, name, result):
        if name == "local_solver.run":
            self.counts["local_solver.iterations"] += len(result.records)
            self.counts["local_solver.stop." + result.stop_reason] += 1
        elif name == "wilkinson.local":
            self.counts["wilkinson.local.converged"] += bool(result.converged)
        elif name == "bisection":
            self.counts["bisection.iterations"] += result.iterations

    def _on_raise(self, name, err):
        if name == "local_solver.run":
            self.counts["local_solver.stop.raised"] += 1
        elif name == "bisection" and getattr(err, "state", None) is not None:
            self.counts["bisection.iterations"] += err.state.iterations

    # -- passes -----------------------------------------------------------

    def begin_pass(self, input_fields=()):
        """Start a pass; ``input_fields`` are fields built before tracing began."""
        self._spans.clear()
        self.counts.clear()
        self._fields = [(f, f.eval_count) for f in input_fields]

    def end_pass(self) -> tuple[dict, dict]:
        """Counts and per-span-name self times (ms) of the pass just run."""
        if self._stack:
            raise RuntimeError("end_pass called inside an open span")
        counts = Counter(self.counts)
        counts["fields.evals"] = sum(f.eval_count - base for f, base in self._fields)
        self._fields = []
        self_ms: Counter = Counter()
        child_s = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            counts[name] += 1
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(self._spans, child_s):
            self_ms[name] += 1e3 * (end - start - inner)
        self._spans.clear()
        return dict(counts), dict(self_ms)


def reconcile(counts: dict) -> list[str]:
    """Mismatches between package-level and numpy-level LAPACK call counts."""
    problems = []
    eig_expected = counts.get("linalg.byers", 0) + counts.get("linalg.eigenvalues", 0)
    if counts.get("linalg.eig", 0) != eig_expected:
        problems.append(
            f"eigvals calls {counts.get('linalg.eig', 0)} != byers + eigenvalues() {eig_expected}"
        )
    single = counts.get("site.svd.single", 0)
    svd_calls = single + counts.get("site.svd.batch_calls", 0)
    if counts.get("linalg.svd", 0) != svd_calls:
        problems.append(f"svd calls {counts.get('linalg.svd', 0)} != call sites {svd_calls}")
    svd_matrices = single + counts.get("site.svd.batch_matrices", 0)
    if counts.get("linalg.svd.matrices", 0) != svd_matrices:
        problems.append(
            f"svd matrices {counts.get('linalg.svd.matrices', 0)} != call sites {svd_matrices}"
        )
    return problems


#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("linalg.byers.calls", "count", "lower"),
    ("linalg.byers.ms", "ms", "lower"),
    ("linalg.eig.calls", "count", "lower"),
    ("linalg.eig.ms", "ms", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.matrices", "count", "lower"),
    ("linalg.svd.ms", "ms", "lower"),
    ("wilkinson.voronoi.ms", "ms", "lower"),
    ("wilkinson.voronoi.edges", "count", "lower"),
    ("wilkinson.voronoi.byers_per_edge", "count/edge", "lower"),
    ("wilkinson.segment.calls", "count", "lower"),
    ("wilkinson.segment.ms", "ms", "lower"),
    ("wilkinson.segment.byers_per_call", "count/call", "lower"),
    ("wilkinson.local.calls", "count", "lower"),
    ("wilkinson.local.ms", "ms", "lower"),
    ("wilkinson.local.converged_frac", "fraction", "higher"),
    ("wilkinson.psgrid.ms", "ms", "lower"),
    ("local_solver.run.ms", "ms", "lower"),
    ("local_solver.iterations", "count", "lower"),
    ("local_solver.bisector.ms", "ms", "lower"),
    ("local_solver.advance.ms", "ms", "lower"),
    ("local_solver.segment_max.ms", "ms", "lower"),
    ("local_solver.equalize.ms", "ms", "lower"),
    ("local_solver.refine_pair.calls", "count", "lower"),
    ("local_solver.refine_pair.ms", "ms", "lower"),
    ("local_solver.stop.point_tol", "count", "higher"),
    ("local_solver.stop.gap_tol", "count", "higher"),
    ("local_solver.stop.max_iter", "count", "lower"),
    ("local_solver.stop.bisector_below_level", "count", "lower"),
    ("local_solver.stop.raised", "count", "lower"),
    ("bisection.ms", "ms", "lower"),
    ("bisection.iterations", "count", "lower"),
    ("bisection.component_distance.calls", "count", "lower"),
    ("bisection.component_distance.ms", "ms", "lower"),
    ("fields.evals", "count", "lower"),
    ("fields.value_many.calls", "count", "lower"),
    ("fields.value_many.points", "count", "lower"),
    ("fields.value_many.ms", "ms", "lower"),
    ("cli.ms", "ms", "lower"),
    ("matrixio.read.ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: dict, self_ms: dict, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values from one pass's counts and per-pass self times."""
    values: dict[str, float] = {}
    for span in {s for _, _, s in _SPANS} | {"linalg.svd", "linalg.eig", "fields.value_many"}:
        values[span + ".calls"] = counts.get(span, 0)
        values[span + ".ms"] = self_ms.get(span, 0.0)
    for key in ("linalg.svd.matrices", "wilkinson.voronoi.edges", "local_solver.iterations",
                "bisection.iterations", "fields.evals", "fields.value_many.points"):
        values[key] = counts.get(key, 0)
    for reason in STOP_REASONS:
        values["local_solver.stop." + reason] = counts.get("local_solver.stop." + reason, 0)
    values["wilkinson.voronoi.byers_per_edge"] = _ratio(
        counts.get("wilkinson.voronoi.byers", 0), counts.get("wilkinson.voronoi.edges", 0))
    values["wilkinson.segment.byers_per_call"] = _ratio(
        counts.get("wilkinson.segment.byers", 0), counts.get("wilkinson.segment", 0))
    values["wilkinson.local.converged_frac"] = _ratio(
        counts.get("wilkinson.local.converged", 0), counts.get("wilkinson.local", 0))
    values["trace.overhead_frac"] = overhead_frac
    return {name: values[name] for name, _, _ in LAYER_METRICS}
