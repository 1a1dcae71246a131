import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Appended, not prepended, so bench/'s run.py and checks.py shadow nothing.
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

# The paper's 5x5 and 10x10 bidiagonal matrices and the 5x5 coalescence value.
from workloads import BIDIAG_5X5_EPS, bidiagonal_5x5, bidiagonal_10x10  # noqa: E402,F401


@pytest.fixture
def ex_bidiag5():
    return bidiagonal_5x5()


@pytest.fixture
def ex_bidiag10():
    return bidiagonal_10x10()


def perturbed_quadratic():
    """x1^2 - x2^2 + 0.1 x1^3 + 0.05 x2^4 with analytic gradient."""
    from saddlepass import ScalarField

    def ev(x):
        return float(x[0] ** 2 - x[1] ** 2 + 0.1 * x[0] ** 3 + 0.05 * x[1] ** 4)

    def gr(x):
        return np.array([2 * x[0] + 0.3 * x[0] ** 2, -2 * x[1] + 0.2 * x[1] ** 3])

    def ev_many(p):
        return p[:, 0] ** 2 - p[:, 1] ** 2 + 0.1 * p[:, 0] ** 3 + 0.05 * p[:, 1] ** 4

    return ScalarField(2, ev, gr, batch_evaluate=ev_many, name="perturbed-quadratic")
