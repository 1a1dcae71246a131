"""The benchmark's workloads: seeded inputs, one public call per solve, checks.

Every solve goes through an attribute of the ``saddlepass`` package or of
``saddlepass.cli`` looked up at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import saddlepass as sp
import saddlepass.cli as sp_cli
from checks import Verdict, check_bisection, check_psgrid, check_wilkinson

#: Coalescence values of the paper's bidiagonal matrices.
BIDIAG_5X5_EPS = 6.151109286142e-4
BIDIAG_10X10_EPS = 2.7188460045e-6


def bidiagonal_5x5() -> np.ndarray:
    diag = [0.461 + 0.650j, 0.457 + 0.983j, 0.451 + 0.553j, 0.412 + 0.400j, 0.902 + 0.199j]
    sup = [0.006 + 0.625j, 0.297 + 0.733j, 0.049 + 0.376j, 0.693 + 0.010j]
    return np.diag(np.array(diag)) + np.diag(np.array(sup), 1)


def bidiagonal_10x10() -> np.ndarray:
    diag = [0.9850 + 0.7550j, 0.8030 + 0.7810j, 0.2590 + 0.5110j, 0.3840 + 0.5310j,
            0.0080 + 0.5360j, 0.9780 + 0.2720j, 0.7190 + 0.3100j, 0.5560 + 0.8370j,
            0.6350 + 0.7630j, 0.5110 + 0.8870j]
    sup = [0.5330 + 0.5330j, 0.9370 + 0.1190j, 0.7410 + 0.8340j, 0.7480 + 0.8870j,
           0.6880 + 0.6700j, 0.2510 + 0.7430j, 0.9540 + 0.6590j, 0.2680 + 0.6610j,
           0.2670 + 0.4340j]
    return np.diag(np.array(diag)) + np.diag(np.array(sup), 1)


def random_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Gaussian matrix scaled by 1/sqrt(2n), so its spectrum fills the unit disc."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


@dataclass
class Case:
    """One input: a public call, the check of its output, and a fingerprint
    that must repeat exactly when the call is repeated."""

    name: str
    solve: Callable[[], object]
    check: Callable[[object], Verdict]
    fingerprint: Callable[[object], object]


@dataclass
class Workload:
    name: str
    cases: list[Case]
    warmup: Callable[[], object]
    #: Fields built before tracing starts; the tracer counts their evaluations.
    fields: list = field(default_factory=list)


def _wilkinson_fingerprint(r) -> tuple:
    return (r.epsilon_bar_estimate, r.coalescence_point, r.converged, len(r.records))


def _bisection_fingerprint(s) -> tuple:
    return (s.lower, s.upper, s.iterations, s.stop_reason)


RANDOM_SIZES = (12, 20, 28)
RANDOM_PER_SIZE = 16
WARMUP_SEED = 12345


def voronoi_random(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(RANDOM_PER_SIZE):
        for n in RANDOM_SIZES:
            a = random_matrix(rng, n)
            cases.append(Case(
                f"n{n}-{i}",
                lambda a=a: sp.wilkinson_distance(a),
                lambda r, a=a: check_wilkinson(a, r),
                _wilkinson_fingerprint,
            ))
    # A fixed warm-up matrix keeps set-up time independent of the seed.
    warm = random_matrix(np.random.default_rng(WARMUP_SEED), RANDOM_SIZES[0])
    return Workload("voronoi-random", cases, lambda: sp.wilkinson_distance(warm))


def pair_scan(seed: int, workdir: Path) -> Workload:
    cases = []
    for name, a, ref in (("bidiag5", bidiagonal_5x5(), BIDIAG_5X5_EPS),
                         ("bidiag10", bidiagonal_10x10(), BIDIAG_10X10_EPS)):
        cases.append(Case(
            name,
            lambda a=a: sp.wilkinson_distance(a, sp.WilkinsonOptions(exhaustive=True)),
            lambda r, a=a, ref=ref: check_wilkinson(a, r, reference=ref),
            _wilkinson_fingerprint,
        ))
    return Workload("pair-scan", cases, cases[0].solve)


CATALOG = ("quadratic-saddle", "ps-fail-a", "ps-fail-b", "double-well-curve")


def sigma_min_problem(a: np.ndarray, pull_in: float = 0.02) -> sp.TestProblem:
    """The sigma_min field between the Voronoi heuristic's eigenvalue pair,
    pulled in by ``pull_in``, inside Ball(midpoint, 0.6 |l1 - l2|)."""
    (l1, l2), _, _ = sp.voronoi_heuristic(a)
    d = l2 - l1
    mid = 0.5 * (l1 + l2)
    x0, y0 = l1 + pull_in * d, l2 - pull_in * d
    return sp.TestProblem(
        name="sigma-min-5x5",
        field=sp.SigmaMinField(a).as_scalar_field(),
        region=sp.Ball((mid.real, mid.imag), 0.6 * abs(d)),
        endpoints=(np.array([x0.real, x0.imag]), np.array([y0.real, y0.imag])),
    )


def grid_bisect(seed: int, workdir: Path) -> Workload:
    problems = []
    for name in CATALOG:
        prob = sp.get_problem(name)
        known = prob.known_saddle[1] if prob.known_saddle is not None else None
        problems.append((prob, sp.BisectionOptions(), known))
    sigma = sigma_min_problem(bidiagonal_5x5())
    problems.append(
        (sigma, sp.BisectionOptions(resolution=sigma.region.diameter() / 128), BIDIAG_5X5_EPS))
    cases = [
        Case(
            prob.name,
            lambda prob=prob, opts=opts: sp.bisect(prob, opts=opts),
            lambda s, opts=opts, known=known: check_bisection(s, opts.value_tol, known),
            _bisection_fingerprint,
        )
        for prob, opts, known in problems
    ]
    warm = sp.get_problem("ps-fail-b")
    return Workload("grid-bisect", cases, lambda: sp.bisect(warm),
                    fields=[prob.field for prob, _, _ in problems])


PSGRID_N = 20
PSGRID_CELLS = 200


def write_matrix_text(path: Path, a: np.ndarray) -> None:
    """The CLI's text matrix format, written with round-trip exact floats."""
    rows = [" ".join(f"{float(z.real)!r}{float(z.imag):+.17g}j" for z in row) for row in a]
    path.write_text(f"{a.shape[0]}\n" + "\n".join(rows) + "\n")


def psgrid(seed: int, workdir: Path) -> Workload:
    a = random_matrix(np.random.default_rng(seed), PSGRID_N)
    matrix = workdir / "matrix.txt"
    write_matrix_text(matrix, a)
    out = workdir / "grid.csv"
    cells = str(PSGRID_CELLS)

    def solve():
        out.unlink(missing_ok=True)
        return sp_cli.main(["psgrid", "--matrix", str(matrix), "--grid", cells, cells,
                            "--out", str(out)])

    def check(rc):
        text = out.read_text() if out.exists() else ""
        rng = np.random.default_rng([seed, 1])
        return check_psgrid(a, rc, text, PSGRID_CELLS, PSGRID_CELLS, rng)

    def fingerprint(rc):
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        return (rc, digest)

    warm_out = workdir / "warmup.csv"
    return Workload(
        "psgrid",
        [Case("n20-200x200", solve, check, fingerprint)],
        lambda: sp_cli.main(["psgrid", "--matrix", str(matrix), "--grid", "16", "16",
                             "--out", str(warm_out)]),
    )


BUILDERS = {
    "voronoi-random": voronoi_random,
    "pair-scan": pair_scan,
    "grid-bisect": grid_bisect,
    "psgrid": psgrid,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](seed, workdir)
