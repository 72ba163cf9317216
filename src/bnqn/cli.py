"""Command-line front door.

Subcommands: ``solve`` (one initial point, one method), ``basin`` (grid
sweep to PPM + CSV), ``invariance`` (conjugation deviation harness), and
``rrn`` (random relaxed Newton statistics).  Each parses its flags, calls
the library (``bnqn.solvers``, ``bnqn.basins``, ``bnqn.invariance``) and
prints the result.  Exit codes: 0 success, 1 usage error, 2 runtime
failure.  All numeric output uses 17 significant digits, and reruns with
the same flags and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .basins import GridSpec, export_csv, export_ppm, render_basin, run_rrn_experiment
from .complexpoly import (
    Polynomial,
    RelaxationDisk,
    format_complex,
    parse_polynomial,
)
from .errors import BnqnError
from .invariance import ConjugationSpec, check_invariance, rotation
from .objective import PolyModulusObjective
from .solvers import Method, SolverConfig, export_trace_csv, run

__all__ = ["main", "run_command"]


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-1,0,1", "-2,2,-2,2" or "-inf,0,1" are data, not option
        # strings; float() takes inf, infinity and nan in any case
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d|^-(?:inf|infinity|nan)\b", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# ---------------------------------------------------------------------------
# flag plumbing


def _add_poly_flags(parser):
    parser.add_argument(
        "--poly",
        default="-1,0,1",
        help="comma-separated re+imi coefficients, lowest degree first (default: %(default)s)",
    )
    parser.add_argument(
        "--highest-first",
        action="store_true",
        default=False,
        help="interpret --poly with the highest-degree coefficient first (default: off)",
    )


def _add_solver_flags(parser):
    parser.add_argument(
        "--deltas",
        default="0,1,-1",
        help="candidate Hessian shifts, comma separated (default: %(default)s)",
    )
    parser.add_argument("--tau", type=float, default=1.0, help="gradient-norm exponent in the shift (default: %(default)s)")
    parser.add_argument("--theta", type=float, default=0.0, help="direction cap factor (default: %(default)s)")
    parser.add_argument("--gamma0", type=float, default=1.0, help="initial backtracking step (default: %(default)s)")
    parser.add_argument("--tol", type=float, default=1e-10, help="gradient-norm stopping tolerance (default: %(default)s)")
    parser.add_argument("--max-iter", type=int, default=10000, help="iteration cap (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized pieces (default: %(default)s)")
    parser.add_argument("--class-tol", type=float, default=1e-6, help="terminal classification radius (default: %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bnqn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one method from one initial point")
    _add_poly_flags(solve)
    _add_solver_flags(solve)
    solve.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default="bnqn",
        help="iteration method (default: %(default)s)",
    )
    solve.add_argument("--z0", default="0.5,0.5", help="initial point x,y (default: %(default)s)")
    solve.add_argument("--rho", type=float, default=0.7, help="relaxation disk radius for rrn1d (default: %(default)s)")
    solve.add_argument("--trace", default="", help="write the iteration trace CSV here (default: no trace)")

    basin = sub.add_parser("basin", help="classify a grid of initial points")
    _add_poly_flags(basin)
    _add_solver_flags(basin)
    basin.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default="bnqn",
        help="iteration method (default: %(default)s)",
    )
    basin.add_argument("--window", default="-2,2,-2,2", help="x_min,x_max,y_min,y_max (default: %(default)s)")
    basin.add_argument("--res", default="400,400", help="nx,ny grid resolution (default: %(default)s)")
    basin.add_argument("--rho", type=float, default=0.7, help="relaxation disk radius for rrn1d (default: %(default)s)")
    basin.add_argument("--out", default="basin.ppm", help="PPM output path (default: %(default)s)")
    basin.add_argument("--csv", default="basin.csv", help="CSV output path (default: %(default)s)")

    inv = sub.add_parser("invariance", help="conjugation-invariance deviation harness")
    _add_poly_flags(inv)
    _add_solver_flags(inv)
    inv.add_argument("--c", type=float, default=2.0, help="positive scale factor of the map (default: %(default)s)")
    inv.add_argument("--rotation", type=float, default=0.7, help="rotation angle in radians (default: %(default)s)")
    inv.add_argument("--z0", default="0.4,1.1", help="initial point x,y (default: %(default)s)")
    inv.add_argument("--steps", type=int, default=100, help="steps to compare (default: %(default)s)")

    rrn = sub.add_parser("rrn", help="random relaxed Newton statistics")
    _add_poly_flags(rrn)
    rrn.add_argument("--rho", type=float, default=0.7, help="relaxation disk radius, in (0.5, 1) (default: %(default)s)")
    rrn.add_argument("--trials", type=int, default=500, help="number of sampled initial points (default: %(default)s)")
    rrn.add_argument("--max-iter", type=int, default=2000, help="iteration cap per trial (default: %(default)s)")
    rrn.add_argument("--seed", type=int, default=7, help="experiment seed (default: %(default)s)")
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """``build_parser()``, built once per process: building it costs about
    1.5 ms, and parsing leaves it as it was."""
    return build_parser()


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} needs two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}: {exc}") from exc


def _parse_config(args) -> SolverConfig:
    try:
        deltas = tuple(float(t) for t in args.deltas.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse --deltas {args.deltas!r}: {exc}") from exc
    try:
        return SolverConfig(
            deltas=deltas,
            tau=args.tau,
            theta=args.theta,
            gamma0=args.gamma0,
            grad_tol=args.tol,
            max_iter=args.max_iter,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _class_tol(args) -> float:
    # not x >= 0 also rejects NaN, with which no cell could ever classify
    if not args.class_tol >= 0:
        raise UsageError(f"--class-tol must be nonnegative, got {args.class_tol}")
    return args.class_tol


def _relaxation(args) -> RelaxationDisk:
    try:
        return RelaxationDisk(args.rho)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_poly(args) -> Polynomial:
    try:
        return parse_polynomial(args.poly, highest_first=args.highest_first)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_solve(args, out) -> int:
    poly = _parse_poly(args)
    cfg = _parse_config(args)
    obj = PolyModulusObjective(poly)
    method = Method(args.method)
    relaxation = _relaxation(args) if method is Method.RANDOM_RELAXED_NEWTON_1D else None
    z0 = _parse_pair(args.z0, "--z0")
    # rrn1d draws from run's own default_rng(cfg.seed), and cfg.seed is --seed
    trace = run(obj, z0, method, cfg, relaxation=relaxation, class_tol=_class_tol(args))
    if args.trace:
        export_trace_csv(trace, args.trace)
    final = trace.final_point
    print(f"method={method.value}", file=out)
    print(f"x={_fmt(float(final[0]))}", file=out)
    print(f"y={_fmt(float(final[1]))}", file=out)
    print(f"class={trace.terminal.kind}", file=out)
    root_index = "" if trace.terminal.root_index is None else trace.terminal.root_index
    print(f"root_index={root_index}", file=out)
    if trace.terminal.is_root:
        print(f"root={format_complex(obj.roots()[trace.terminal.root_index])}", file=out)
    print(f"iterations={trace.iterations}", file=out)
    print(f"converged={'true' if trace.converged else 'false'}", file=out)
    print(f"grad_norm={_fmt(trace.grad_norms[-1])}", file=out)
    if trace.failure:
        print(f"failure={trace.failure}", file=out)
    return 0


def _cmd_basin(args, out) -> int:
    poly = _parse_poly(args)
    cfg = _parse_config(args)
    method = Method(args.method)
    window = args.window.split(",")
    if len(window) != 4:
        raise UsageError(f"--window needs four comma-separated numbers, got {args.window!r}")
    res = args.res.split(",")
    if len(res) != 2:
        raise UsageError(f"--res needs two comma-separated integers, got {args.res!r}")
    try:
        grid = GridSpec(
            float(window[0]), float(window[1]), float(window[2]), float(window[3]),
            int(res[0]), int(res[1]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if method is Method.RANDOM_RELAXED_NEWTON_1D:
        _relaxation(args)
    basin_map = render_basin(
        poly, grid, method, cfg, class_tol=_class_tol(args), rho=args.rho
    )
    export_ppm(basin_map, args.out)
    export_csv(basin_map, args.csv)
    print(f"method={method.value}", file=out)
    print(f"nx={grid.nx}", file=out)
    print(f"ny={grid.ny}", file=out)
    for label, count in sorted(basin_map.class_counts().items()):
        print(f"count[{label}]={count}", file=out)
    print(f"out={args.out}", file=out)
    print(f"csv={args.csv}", file=out)
    return 0


def _cmd_invariance(args, out) -> int:
    poly = _parse_poly(args)
    cfg = _parse_config(args)
    if args.c <= 0:
        raise UsageError(f"--c must be positive, got {args.c}")
    if args.steps < 1:
        raise UsageError(f"--steps must be positive, got {args.steps}")
    spec = ConjugationSpec(args.c, rotation(args.rotation))
    obj = PolyModulusObjective(poly)
    z0 = _parse_pair(args.z0, "--z0")
    deviation = check_invariance(obj, spec, z0, cfg, args.steps)
    print(f"c={_fmt(args.c)}", file=out)
    print(f"rotation={_fmt(args.rotation)}", file=out)
    print(f"tau={_fmt(cfg.tau)}", file=out)
    print(f"theta={_fmt(cfg.theta)}", file=out)
    print(f"steps={args.steps}", file=out)
    print(f"max_deviation={_fmt(deviation)}", file=out)
    return 0


def _cmd_rrn(args, out) -> int:
    poly = _parse_poly(args)
    _relaxation(args)
    if args.trials < 1:
        raise UsageError(f"--trials must be positive, got {args.trials}")
    if args.max_iter < 1:
        raise UsageError(f"--max-iter must be positive, got {args.max_iter}")
    report = run_rrn_experiment(poly, args.rho, args.trials, args.max_iter, args.seed)
    print(f"rho={_fmt(args.rho)}", file=out)
    print(f"trials={report.trials}", file=out)
    print(f"seed={args.seed}", file=out)
    print(f"converged_fraction={_fmt(report.converged_fraction)}", file=out)
    for k, root in enumerate(report.roots):
        print(f"root_{k}={format_complex(root)}", file=out)
        print(f"root_{k}_count={report.per_root_counts[k]}", file=out)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "basin": _cmd_basin,
    "invariance": _cmd_invariance,
    "rrn": _cmd_rrn,
}


def run_command(argv, out=None, err=None) -> int:
    """Parse and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _shared_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return 1
    try:
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (BnqnError, ValueError, OSError) as exc:
        print(f"failure: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
