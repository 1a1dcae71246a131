"""Independent checks of saddlepass outputs, run outside the timed region.

Each check returns a :class:`Verdict`.  ``failures`` lists the classes that
make a solve count as failed (an exception type, an unconverged stop, or a
failed check); ``wrong`` lists the failed checks that contradict what the
program itself claimed, such as a converged estimate that is not a
coalescence point.  Only ``wrong`` makes a run incorrect: an honest
"not converged" is a failure of the method, not a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

#: Relative Malyshev gap that separates converged coalescence points (<= 5e-9,
#: 1.5e-6 on the 10x10 paper matrix's own heuristic pair) from unconverged
#: ones (>= 6e-5 on seeded random matrices).
MALYSHEV_RTOL = 1e-5

#: Relative agreement with the paper's reference values, which carry 11 to 13
#: significant digits.
REFERENCE_RTOL = 1e-8

#: Relative agreement of a psgrid value with a per-point SVD.
PSGRID_RTOL = 1e-12

_EPS = np.finfo(float).eps


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def fail(self, name: str, claimed: bool) -> None:
        """Record a failed check; ``claimed`` marks it as contradicting the output."""
        self.failures.append(name)
        if claimed:
            self.wrong.append(name)


def raised(err: BaseException) -> Verdict:
    return Verdict(failures=[f"raised:{type(err).__name__}"])


def sigma_min(b: np.ndarray) -> float:
    return float(np.linalg.svd(b, compute_uv=False)[-1])


def malyshev_bound(a: np.ndarray, z: complex, samples: int = 48) -> float:
    """``max_gamma sigma_{2n-1}([[A - zI, gamma I], [0, A - zI]])`` (Malyshev 1999).

    An upper bound on the distance from A to the matrices having z as a
    multiple eigenvalue, and never below ``sigma_min(A - zI)`` (gamma = 0).
    The maximum is bracketed on a log grid of gamma up to 2 ||A - zI|| (the
    function decays to 0 beyond) and polished with bounded Brent.
    """
    n = a.shape[0]
    b = a - z * np.eye(n)
    s = np.linalg.svd(b, compute_uv=False)
    gammas = np.concatenate(([0.0], np.geomspace(max(s[-1], 1e-300) * 1e-3, 2.0 * s[0], samples)))

    def blocks(gs):
        m = np.zeros((len(gs), 2 * n, 2 * n), dtype=complex)
        m[:, :n, :n] = b
        m[:, n:, n:] = b
        m[:, :n, n:] = np.asarray(gs)[:, None, None] * np.eye(n)
        return m

    vals = np.linalg.svd(blocks(gammas), compute_uv=False)[:, -2]
    j = int(np.argmax(vals))
    best = float(vals[j])
    lo, hi = gammas[max(j - 1, 0)], gammas[min(j + 1, gammas.size - 1)]
    if hi > lo:
        res = minimize_scalar(
            lambda g: -float(np.linalg.svd(blocks([g])[0], compute_uv=False)[-2]),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-14 * hi},
        )
        best = max(best, -float(res.fun))
    return best


def check_wilkinson(a: np.ndarray, result, reference: float | None = None) -> Verdict:
    """Check a WilkinsonResult against the matrix it came from.

    Always: epsilon_bar equals sigma_min(A - z* I), ||E||_2 equals epsilon_bar
    and z* is an eigenvalue of A + E.  For a converged result: the Malyshev
    bound at z* meets epsilon_bar (z* is a coalescence point) and, when given,
    epsilon_bar matches the reference value.
    """
    v = Verdict()
    claimed = bool(result.converged)
    if not claimed:
        v.failures.append("unconverged")
    n = a.shape[0]
    z = complex(result.coalescence_point)
    eps_bar = float(result.epsilon_bar_estimate)
    b = a - z * np.eye(n)
    s = np.linalg.svd(b, compute_uv=False)
    roundoff = 16 * n * _EPS * float(s[0])
    if abs(float(s[-1]) - eps_bar) > 1e-12 * eps_bar + roundoff:
        v.fail("sigma_mismatch", True)
    e = result.perturbation
    if e is None or abs(float(np.linalg.norm(e, 2)) - eps_bar) > 1e-12 * eps_bar + roundoff:
        v.fail("perturbation_norm", True)
    elif sigma_min(b + e) > roundoff + 16 * n * _EPS * eps_bar:
        v.fail("not_eigenvalue", True)
    if eps_bar > 0.0 and (malyshev_bound(a, z) - eps_bar) / eps_bar > MALYSHEV_RTOL:
        v.fail("malyshev_gap", claimed)
    if reference is not None and abs(eps_bar - reference) > REFERENCE_RTOL * reference:
        v.fail("reference", claimed)
    return v


def check_bisection(state, value_tol: float, known: float | None = None) -> Verdict:
    """Check a BisectionState: ordered bracket, its width, and a known pass value.

    The known value may sit just outside the float bracket by grid-scale
    amounts (4.2e-9 on double-well-curve), so it is accepted within value_tol.
    """
    v = Verdict()
    claimed = bool(state.converged)
    if not claimed:
        v.failures.append(f"unconverged:{state.stop_reason}")
    if not state.lower <= state.upper:
        v.fail("order", True)
    if state.upper - state.lower > value_tol:
        v.fail("width", claimed)
    if known is not None and not state.lower - value_tol <= known <= state.upper + value_tol:
        v.fail("bracket", claimed)
    return v


def parse_psgrid_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != "x,y,sigma":
        raise ValueError("missing x,y,sigma header")
    return np.array([row.split(",") for row in lines[1:]], dtype=float).reshape(-1, 3)


def check_psgrid(a: np.ndarray, rc: int, text: str, nx: int, ny: int,
                 rng: np.random.Generator, samples: int = 64) -> Verdict:
    """Parse psgrid CSV back and compare a seeded sample with per-point SVDs."""
    v = Verdict()
    if rc != 0:
        v.fail(f"exit_code:{rc}", True)
        return v
    try:
        data = parse_psgrid_csv(text)
    except ValueError:
        v.fail("csv_format", True)
        return v
    if data.shape[0] != nx * ny:
        v.fail("csv_rows", True)
        return v
    xs, ys = data[:nx, 0], data[::nx, 1]
    if not (np.array_equal(data[:, 0], np.tile(xs, ny))
            and np.array_equal(data[:, 1], np.repeat(ys, nx))
            and np.array_equal(xs, np.linspace(xs[0], xs[-1], nx))
            and np.array_equal(ys, np.linspace(ys[0], ys[-1], ny))):
        v.fail("grid_coords", True)
        return v
    eigs = np.linalg.eigvals(a)
    if not (np.all((eigs.real > xs[0]) & (eigs.real < xs[-1]))
            and np.all((eigs.imag > ys[0]) & (eigs.imag < ys[-1]))):
        v.fail("box", True)
    n = a.shape[0]
    atol = n * _EPS * float(np.linalg.norm(a, 2))
    for k in rng.choice(data.shape[0], size=min(samples, data.shape[0]), replace=False):
        x, y, sigma = data[k]
        ref = sigma_min(a - complex(x, y) * np.eye(n))
        if abs(sigma - ref) > PSGRID_RTOL * ref + atol:
            v.fail("sigma_value", True)
            break
    return v
