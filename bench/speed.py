"""The host's speed, measured with a fixed reference kernel.

The benchmark runs on shared machines whose speed changes by tens of percent
from one second to the next, as neighbours load the caches, the memory bus
and the sibling hyper-threads.  So a fixed kernel that does not touch
saddlepass runs before every solve and after the last one: small complex
eigensolves, single small SVDs and one stack of SVDs, the kinds of LAPACK
work the package does.  A solve's time is scaled by ``REFERENCE_S`` over the
mean time of the kernel runs just before and just after it.  That gives its
time at the speed the host had when the kernel took ``REFERENCE_S``.  A
change to saddlepass cannot move the kernel, so it moves the scaled time by
all of its effect.

The numpy functions are bound at import, so the tracer's patches of
``np.linalg`` neither see nor count the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_eigvals = np.linalg.eigvals
_svd = np.linalg.svd

#: The kernel's median time in seconds on the baseline machine, rounded
#: (see bench/BASELINE.md).
REFERENCE_S = 0.020


def _inputs():
    rng = np.random.default_rng(20090606)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return [cplx(40, 40) for _ in range(4)], [cplx(10, 10) for _ in range(64)], cplx(256, 20, 20)


_EIG, _SMALL, _STACK = _inputs()


def kernel_seconds() -> float:
    """Run the reference kernel once; return its wall time."""
    t0 = time.perf_counter()
    for m in _EIG:
        _eigvals(m)
    for m in _SMALL:
        _svd(m, compute_uv=False)
    _svd(_STACK, compute_uv=False)
    return time.perf_counter() - t0


def probe(runs: int = 5) -> float:
    """The median of ``runs`` runs of the kernel."""
    return statistics.median(kernel_seconds() for _ in range(runs))


def scale(kernel_s) -> float:
    """``REFERENCE_S`` over the mean of the kernel times around a solve."""
    return REFERENCE_S * len(kernel_s) / sum(kernel_s)
