"""Command-line front end.

Subcommands: solve-local, solve-bisect, wilkinson, psgrid, list-problems.
Exit codes: 0 converged/success, 1 input error, 2 not converged, 3 internal
numerical failure.  Output is fully deterministic for a fixed input; numbers
are serialized with 17 significant digits, and the output file is written only
after the run completes (no partial files on failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import matrixio
from .bisection import BisectionOptions, bisect
from .errors import (
    BoundaryHitError,
    PreconditionError,
    ResolutionLimitError,
    UnsupportedDimensionError,
)
from .fields import builtin_problems, get_problem
from .local_solver import LocalOptions, run_local
from .wilkinson import (
    WilkinsonOptions,
    default_psgrid_box,
    pseudospectrum_grid,
    wilkinson_distance,
)

_F = matrixio.format_float

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_NUMERICAL = 3


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _local_options(args) -> LocalOptions:
    return LocalOptions(
        point_tol=args.tol_point,
        gap_tol=args.tol_gap,
        max_iter=args.max_iter,
        do_step_1a=args.step1a,
    )


def _records_csv(records) -> str:
    lines = ["i,f_x,M,gap_ratio,dist"]
    for r in records:
        lines.append(
            f"{r.index},{_F(r.f_x)},{_F(r.M)},{_F(r.gap_ratio)},{_F(r.dist)}"
        )
    return "\n".join(lines) + "\n"


def _records_json_obj(records) -> list[dict]:
    return [
        {
            "i": r.index,
            "f_x": r.f_x,
            "M": r.M,
            "gap_ratio": r.gap_ratio,
            "dist": r.dist,
            "x": list(map(float, r.x)),
            "y": list(map(float, r.y)),
            "z": list(map(float, r.z)),
            "f_z": r.f_z,
        }
        for r in records
    ]


def cmd_solve_local(args) -> int:
    opts = _local_options(args)
    if args.problem:
        try:
            prob = get_problem(args.problem)
        except KeyError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT
        a, b = prob.endpoints
        run = run_local(prob.field, prob.region, a, b, opts=opts)
        records = run.records
        converged = run.converged
        source = {"problem": prob.name}
    else:
        try:
            matrix = matrixio.read_matrix(args.matrix)
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT
        wopts = WilkinsonOptions(local=opts)
        result = wilkinson_distance(matrix, wopts)
        records = result.records
        converged = result.converged
        source = {"matrix": str(args.matrix)}

    if args.format == "csv":
        text = _records_csv(records)
    else:
        obj = dict(source)
        obj["converged"] = converged
        obj["records"] = _records_json_obj(records)
        text = json.dumps(obj, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_solve_bisect(args) -> int:
    if not args.problem:
        print("error: solve-bisect requires --problem", file=sys.stderr)
        return EXIT_INPUT
    try:
        prob = get_problem(args.problem)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    opts = BisectionOptions(
        value_tol=args.tol_gap, point_tol=args.tol_point, max_iter=args.max_iter
    )
    try:
        state = bisect(prob, opts=opts)
    except ResolutionLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    rows = []
    for i, (lo, up, x, y) in enumerate(state.history, start=1):
        rows.append((i, lo, up, float(np.linalg.norm(x - y))))
    if args.format == "csv":
        lines = ["i,lower,upper,dist"]
        for i, lo, up, d in rows:
            lines.append(f"{i},{_F(lo)},{_F(up)},{_F(d)}")
        text = "\n".join(lines) + "\n"
    else:
        obj = {
            "problem": prob.name,
            "converged": state.converged,
            "rows": [
                {"i": i, "lower": lo, "upper": up, "dist": d} for i, lo, up, d in rows
            ],
        }
        text = json.dumps(obj, indent=2) + "\n"
    _emit(text, args.out)
    return EXIT_OK if state.converged else EXIT_NOT_CONVERGED


def cmd_wilkinson(args) -> int:
    try:
        matrix = matrixio.read_matrix(args.matrix)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "csv":
        print("error: wilkinson emits JSON; use --format json", file=sys.stderr)
        return EXIT_INPUT
    opts = WilkinsonOptions(local=_local_options(args), exhaustive=args.exhaustive)
    result = wilkinson_distance(matrix, opts)

    obj = {
        "epsilon_bar": result.epsilon_bar_estimate,
        "z_star": [result.coalescence_point.real, result.coalescence_point.imag],
        "pair": [
            [result.chosen_pair[0].real, result.chosen_pair[0].imag],
            [result.chosen_pair[1].real, result.chosen_pair[1].imag],
        ],
        "converged": result.converged,
        "records": _records_json_obj(result.records),
    }
    if result.heuristic_pair is not None:
        obj["heuristic_pair"] = [
            [result.heuristic_pair[0].real, result.heuristic_pair[0].imag],
            [result.heuristic_pair[1].real, result.heuristic_pair[1].imag],
        ]
        obj["heuristic_epsilon"] = result.heuristic_epsilon
    if result.pair_scan is not None:
        obj["pair_scan"] = [
            {
                "pair": [[e["pair"][0].real, e["pair"][0].imag],
                         [e["pair"][1].real, e["pair"][1].imag]],
                "epsilon": e["epsilon"],
                "converged": e["converged"],
            }
            for e in result.pair_scan
        ]
    text = json.dumps(obj, indent=2) + "\n"
    _emit(text, args.out)
    if args.perturbation_out and result.perturbation is not None:
        matrixio.write_matrix(args.perturbation_out, result.perturbation)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_psgrid(args) -> int:
    try:
        matrix = matrixio.read_matrix(args.matrix)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    nx, ny = args.grid
    box = tuple(args.box) if args.box else default_psgrid_box(matrix)
    try:
        grid = pseudospectrum_grid(matrix, box, nx, ny)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    lines = ["x,y,sigma"]
    for iy in range(grid.ys.size):
        for ix in range(grid.xs.size):
            lines.append(f"{_F(grid.xs[ix])},{_F(grid.ys[iy])},{_F(grid.sigma[iy, ix])}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_list_problems(args) -> int:
    lines = []
    for p in builtin_problems():
        saddle = _F(p.known_saddle[1]) if p.known_saddle else "unknown"
        lines.append(f"{p.name}  dim={p.field.dimension}  saddle_value={saddle}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlepass",
        description="Saddle points of mountain-pass type and Wilkinson distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol_gap, max_iter, need_input=True):
        if need_input:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--problem", help="catalog problem name")
            grp.add_argument("--matrix", help="path to a matrix file")
        p.add_argument("--tol-point", type=float, default=1e-10)
        p.add_argument("--tol-gap", type=float, default=tol_gap)
        p.add_argument("--max-iter", type=int, default=max_iter)
        p.add_argument("--step1a", action="store_true")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)

    p_local = sub.add_parser("solve-local", help="fast local level-set iteration")
    add_common(p_local, 1e-12, 50)
    p_local.set_defaults(func=cmd_solve_local)

    p_bis = sub.add_parser("solve-bisect", help="level bisection with component tests")
    add_common(p_bis, 1e-6, 80)
    p_bis.set_defaults(func=cmd_solve_bisect)

    p_wil = sub.add_parser("wilkinson", help="Wilkinson distance pipeline")
    add_common(p_wil, 1e-12, 50, need_input=False)
    p_wil.add_argument("--matrix", required=True)
    p_wil.add_argument("--exhaustive", action="store_true")
    p_wil.add_argument("--perturbation-out", default=None)
    p_wil.set_defaults(format="json", func=cmd_wilkinson)

    p_grid = sub.add_parser("psgrid", help="pseudospectrum grid as CSV")
    p_grid.add_argument("--matrix", required=True)
    p_grid.add_argument("--grid", type=int, nargs=2, default=(200, 200), metavar=("NX", "NY"))
    p_grid.add_argument(
        "--box", type=float, nargs=4, default=None, metavar=("X0", "Y0", "X1", "Y1")
    )
    p_grid.add_argument("--out", default=None)
    p_grid.set_defaults(func=cmd_psgrid)

    p_list = sub.add_parser("list-problems", help="list the builtin catalog")
    p_list.add_argument("--out", default=None)
    p_list.set_defaults(func=cmd_list_problems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedDimensionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (PreconditionError, BoundaryHitError, ResolutionLimitError,
            np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
