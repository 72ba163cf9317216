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
from .complexpoly import Polynomial, format_complex, parse_polynomial
from .errors import BnqnError
from .invariance import ConjugationSpec, check_invariance, rotation
from .objective import CLASS_TOL, PolyModulusObjective
from .solvers import Method, SolverConfig, export_trace_csv, run

__all__ = ["main", "run_command"]

_DEFAULTS = SolverConfig()


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-1,0,1", "-2,2,-2,2" or "-inf,0,1" are data, not option
        # strings; float() takes inf, infinity and nan in any case
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d|^-(?:inf|infinity|nan)\b", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


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
        default=",".join(f"{d:g}" for d in _DEFAULTS.deltas),
        help="candidate Hessian shifts, comma separated (default: %(default)s)",
    )
    parser.add_argument("--tau", type=float, default=_DEFAULTS.tau, help="gradient-norm exponent in the shift (default: %(default)s)")
    parser.add_argument("--theta", type=float, default=_DEFAULTS.theta, help="direction cap factor (default: %(default)s)")
    parser.add_argument("--gamma0", type=float, default=_DEFAULTS.gamma0, help="initial backtracking step (default: %(default)s)")
    parser.add_argument("--tol", type=float, default=_DEFAULTS.grad_tol, help="gradient-norm stopping tolerance (default: %(default)s)")
    parser.add_argument("--max-iter", type=int, default=_DEFAULTS.max_iter, help="iteration cap (default: %(default)s)")


def _add_run_flags(parser):
    """The flags of the commands whose runs draw random numbers and classify."""
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed, help="seed for randomized pieces (default: %(default)s)")
    parser.add_argument("--class-tol", type=float, default=CLASS_TOL, help="terminal classification radius (default: %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bnqn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one method from one initial point")
    _add_poly_flags(solve)
    _add_solver_flags(solve)
    _add_run_flags(solve)
    solve.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default="bnqn",
        help="iteration method (default: %(default)s)",
    )
    solve.add_argument("--z0", default="0.5,0.5", help="initial point x,y (default: %(default)s)")
    solve.add_argument("--rho", type=float, default=_DEFAULTS.rho, help="relaxation disk radius for rrn1d (default: %(default)s)")
    solve.add_argument("--trace", default="", help="write the iteration trace CSV here (default: no trace)")

    basin = sub.add_parser("basin", help="classify a grid of initial points")
    _add_poly_flags(basin)
    _add_solver_flags(basin)
    _add_run_flags(basin)
    basin.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default="bnqn",
        help="iteration method (default: %(default)s)",
    )
    basin.add_argument("--window", default="-2,2,-2,2", help="x_min,x_max,y_min,y_max (default: %(default)s)")
    basin.add_argument("--res", default="400,400", help="nx,ny grid resolution (default: %(default)s)")
    basin.add_argument("--rho", type=float, default=_DEFAULTS.rho, help="relaxation disk radius for rrn1d (default: %(default)s)")
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
    rrn.add_argument("--rho", type=float, default=_DEFAULTS.rho, help="relaxation disk radius, in (0.5, 1) (default: %(default)s)")
    rrn.add_argument("--trials", type=int, default=500, help="number of sampled initial points (default: %(default)s)")
    rrn.add_argument("--max-iter", type=int, default=2000, help="iteration cap per trial (default: %(default)s)")
    rrn.add_argument("--seed", type=int, default=7, help="experiment seed (default: %(default)s)")
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """``build_parser()``, built once per process: building it costs about
    1.5 ms, and parsing leaves it as it was."""
    return build_parser()


def _numbers(text: str, flag: str, count: int | None = None, kind=float) -> list:
    """The comma-separated numbers of a flag value, ``count`` of them if given."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise ValueError(f"{flag} needs {count} comma-separated numbers, got {text!r}")
    try:
        return [kind(part) for part in parts]
    except ValueError as exc:
        raise ValueError(f"cannot parse {flag} {text!r}: {exc}") from exc


def _parse_config(args, **fields) -> SolverConfig:
    return SolverConfig(
        deltas=_numbers(args.deltas, "--deltas"),
        tau=args.tau,
        theta=args.theta,
        gamma0=args.gamma0,
        grad_tol=args.tol,
        max_iter=args.max_iter,
        **fields,
    )


def _parse_poly(args) -> Polynomial:
    return parse_polynomial(args.poly, highest_first=args.highest_first)


def _cmd_solve(args, out) -> int:
    poly = _parse_poly(args)
    cfg = _parse_config(args, seed=args.seed, rho=args.rho)
    obj = PolyModulusObjective(poly)
    method = Method(args.method)
    z0 = _numbers(args.z0, "--z0", 2)
    # rrn1d draws from run's own default_rng(cfg.seed), and cfg.seed is --seed
    trace = run(obj, z0, method, cfg, class_tol=args.class_tol)
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
    cfg = _parse_config(args, seed=args.seed, rho=args.rho)
    method = Method(args.method)
    grid = GridSpec(*_numbers(args.window, "--window", 4), *_numbers(args.res, "--res", 2, int))
    basin_map = render_basin(poly, grid, method, cfg, class_tol=args.class_tol)
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
    spec = ConjugationSpec(args.c, rotation(args.rotation))
    obj = PolyModulusObjective(poly)
    z0 = _numbers(args.z0, "--z0", 2)
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
    # every ValueError is a rejected input; a BnqnError or OSError is a failed run
    try:
        args = _shared_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (BnqnError, OSError) as exc:
        print(f"failure: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
