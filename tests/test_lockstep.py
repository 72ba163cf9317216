"""The lockstep kernel against the scalar ``run`` oracle, cell by cell.

Every case checks, for every grid cell, the terminal class, the iteration
count and the bits of the final point, both straight out of
``lockstep.iterate`` and through ``render_basin`` (which adds the
classification and the scalar tail handoff).
"""

from dataclasses import replace

import numpy as np
import pytest

from bnqn import lockstep
from bnqn.basins import _TAIL_LANES, GridSpec, render_basin
from bnqn.complexpoly import Polynomial
from bnqn.errors import BnqnError
from bnqn.objective import UNDECIDED, PolyModulusObjective
from bnqn.solvers import Method, SolverConfig, run

BNQN = Method.BNQN_NEW_VARIANT
BTGD = Method.BACKTRACKING_GD
Z3M1 = Polynomial([-1, 0, 0, 1])
SQUARE = (-2.0, 2.0, -2.0, 2.0)
# three roots 1e-3 apart plus five spread ones, like the degree-8 benchmark input
CLUSTER8 = Polynomial.from_roots(
    [1.0, 1.001, 1.0 + 5e-4j, 1.2j, -0.9 + 0.6j, -1.1 - 0.3j, -0.2 - 1.3j, 0.8 - 0.9j]
)

CASES = {
    # odd grid: 25 converged cells on the negative real axis end Undecided
    "z3m1-51-default": (Z3M1, GridSpec(*SQUARE, 51, 51), BNQN, SolverConfig()),
    "z2-double-root": (Polynomial([0, 0, 1]), GridSpec(*SQUARE, 15, 15), BNQN, SolverConfig()),
    "z2m1": (Polynomial([-1, 0, 1]), GridSpec(*SQUARE, 21, 21), BNQN, SolverConfig()),
    "cluster8": (CLUSTER8, GridSpec(*SQUARE, 17, 17), BNQN, SolverConfig()),
    # the axis cells hit the cap and reach it through the scalar handoff
    "btgd-cap300": (Z3M1, GridSpec(*SQUARE, 9, 9), BTGD, SolverConfig(max_iter=300)),
    # 145 of 225 cells hit the cap inside the kernel
    "z3m1-gradtol0": (Z3M1, GridSpec(*SQUARE, 15, 15), BNQN, SolverConfig(grad_tol=0.0, max_iter=200)),
    "diverged-bnqn": (Z3M1, GridSpec(-1e9, 1e9, -1e9, 1e9, 9, 9), BNQN, SolverConfig(max_iter=300)),
    "diverged-btgd": (Z3M1, GridSpec(-1e9, 1e9, -1e9, 1e9, 9, 9), BTGD, SolverConfig(max_iter=300)),
    "theta-tau-deltas": (
        Z3M1, GridSpec(*SQUARE, 21, 21), BNQN,
        SolverConfig(theta=1.0, tau=0.7, deltas=(0.0, 0.5, -0.8)),
    ),
    "btgd-theta": (Z3M1, GridSpec(*SQUARE, 15, 15), BTGD, SolverConfig(theta=1.0, max_iter=300)),
    # step failures: two shifts that both miss the bar near z = 1.2 ...
    "no-admissible-delta": (
        Polynomial([-1, 0, 1]), GridSpec(0.5, 2.0, 0.0, 1.5, 7, 7), BNQN,
        SolverConfig(deltas=(0.0, -10.0)),
    ),
    # ... and F overflowing to inf far out on a degree-25 polynomial
    "overflow-bnqn": (Polynomial([-1] + [0] * 24 + [1]), GridSpec(-5e7, 5e7, -5e7, 5e7, 5, 5), BNQN, SolverConfig()),
    "overflow-btgd": (Polynomial([-1] + [0] * 24 + [1]), GridSpec(-5e7, 5e7, -5e7, 5e7, 5, 5), BTGD, SolverConfig()),
}


def _scalar(obj, z0, method, cfg):
    """What the per-cell sweep records: the trace, or None when classifying raised."""
    try:
        return run(obj, z0, method, cfg)
    except BnqnError:
        return None


@pytest.mark.parametrize("case", CASES)
def test_lockstep_matches_scalar_run(case):
    poly, grid, method, cfg = CASES[case]
    obj = PolyModulusObjective(poly)
    starts = [grid.point(i, j) for i in range(grid.nx) for j in range(grid.ny)]
    x0, y0 = np.array(starts).T
    x, y, steps, codes = lockstep.iterate(obj, method, cfg, x0, y0, _TAIL_LANES)
    basin = render_basin(poly, grid, method, cfg, workers=1)
    outcomes = set()
    for n, z0 in enumerate(starts):
        want = _scalar(obj, z0, method, cfg)
        code = int(codes[n])
        outcomes.add(code)
        if code == lockstep.UNFINISHED:
            assert steps[n] < cfg.max_iter
            got = _scalar(obj, (x[n], y[n]), method, replace(cfg, max_iter=cfg.max_iter - steps[n]))
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.terminal, got.iterations + steps[n]) == (want.terminal, want.iterations)
                assert tuple(got.final_point) == tuple(want.final_point)
        else:
            assert (x[n], y[n]) == tuple(want.final_point), z0  # bit for bit
            assert steps[n] == want.iterations, z0
            assert (code == lockstep.FAILED) == (want.failure is not None), z0
            if code == lockstep.STOPPED:
                assert obj.classify((x[n], y[n]), 1e-6) == want.terminal, z0
            else:
                assert want.terminal == UNDECIDED
        i, j = divmod(n, grid.ny)
        if want is None:
            assert (basin.classes[i][j], basin.iterations[i, j]) == (UNDECIDED, cfg.max_iter)
        else:
            assert basin.classes[i][j] == want.terminal, z0
            assert basin.iterations[i, j] == want.iterations, z0
    if case == "z3m1-51-default":
        assert basin.class_counts()["Undecided"] == 25
    if case == "z3m1-gradtol0":
        assert np.count_nonzero(codes == lockstep.CAPPED) == 145
    if case.startswith("diverged"):
        assert basin.class_counts()["Diverged"] > 0
    if case in ("btgd-cap300", "diverged-bnqn"):
        assert lockstep.UNFINISHED in outcomes
    if case in ("no-admissible-delta", "overflow-bnqn", "overflow-btgd"):
        assert lockstep.FAILED in outcomes


def test_render_basin_workers_do_not_change_output():
    # 1056 cells: large enough for newton1d to use the pool; bnqn sweeps
    # serially whatever ``workers`` says
    grid = GridSpec(*SQUARE, 33, 32)
    for method in (BNQN, Method.NEWTON_1D):
        one = render_basin(Z3M1, grid, method, SolverConfig(max_iter=500), workers=1)
        two = render_basin(Z3M1, grid, method, SolverConfig(max_iter=500), workers=2)
        assert one.classes == two.classes
        assert np.array_equal(one.iterations, two.iterations)


def test_iterate_rejects_scalar_only_methods():
    obj = PolyModulusObjective(Z3M1)
    with pytest.raises(ValueError):
        lockstep.iterate(obj, Method.NEWTON_1D, SolverConfig(), [0.5], [0.5], 0)
