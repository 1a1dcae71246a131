"""Exception types shared by the solvers."""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np


def require_finite_positive(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is finite, positive and not a bool."""
    if isinstance(value, bool) or not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite positive number, got {value}")


def require_finite(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless the real or complex ``value`` is finite."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def require_count(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


class UnsupportedDimensionError(ValueError):
    """An operation defined only for a specific dimension got another one."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated by the caller."""


class BoundaryHitError(RuntimeError):
    """A constrained minimizer escaped to the boundary of the search region.

    The offending boundary point is attached so callers can clamp or report.
    """

    def __init__(self, point):
        super().__init__("minimizer reached the region boundary")
        self.point = np.asarray(point, dtype=float)


class ResolutionLimitError(RuntimeError):
    """The grid component test cannot distinguish the sets at the current spacing.

    Carries the last state that was still valid, when one is available.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class DegenerateSpectrumError(ValueError):
    """The spectrum has a repeated eigenvalue, so the Wilkinson distance is zero."""

    def __init__(self, eigenvalue: complex):
        super().__init__(f"repeated eigenvalue near {eigenvalue}")
        self.eigenvalue = eigenvalue


#: Failures of a solver on valid input.  The CLI reports them as numerical
#: failures (exit 3), and the exhaustive pair scan records them per pair.
NUMERICAL_FAILURES = (
    PreconditionError,
    BoundaryHitError,
    ResolutionLimitError,
    np.linalg.LinAlgError,
)
