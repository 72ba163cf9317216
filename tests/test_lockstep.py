"""The lockstep kernel against the scalar ``run`` oracle, cell by cell.

Every case checks, for every grid cell, the terminal class, the iteration
count and the bits of the final point, both straight out of
``lockstep.iterate`` and through ``render_basin`` (which adds the
classification); BNQN and GD also with every lane kept in the numpy sweep,
and with every lane run by the per-lane float loop alone.  The lanes that
the per-lane loop runs on the real axis of a real g are counted, with those
it hands back to the complex loop, and lanes at y = -0.0 must not reach
it; the real-axis loop must equal the complex loop on seeded random real
g, configs and starts, and a lane whose step leaves its point as it is
must end at once in either loop.  The few-lane Armijo backtracks inside a
sweep are counted: they must run where few lanes reject the first trial,
never in the sweep-only mode, and one case drives them to a gamma
underflow.  The NQN and Newton
directions are checked against the scalar step on crafted singular
and non-finite Hessians.  Random relaxed Newton is checked trial by trial
against ``run`` with the trial's own generator, straight out of ``iterate``
and through the ``rrn`` experiment, cell by cell through ``render_basin``,
and its primitives against Python's: the complex quotient and the pole
test.  The random streams themselves are checked in ``test_streams.py``.
"""

import functools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from bnqn import basins, lockstep, objective
from bnqn.basins import GridSpec, render_basin
from bnqn.complexpoly import Polynomial, _check_derivative, pole_scale
from bnqn.errors import BnqnError, DerivativeVanishes, NoAdmissibleDelta, NoConvergence, SingularMatrix
from bnqn.linalg import SymmetricMatrix, _eig2_system, minsp, reflected_direction
from bnqn.objective import DIVERGED, UNDECIDED, PolyModulusObjective
from bnqn.solvers import _STEPS, Method, SolverConfig, run, select_delta
from bnqn.streams import _BLOCK_LANES, TrialStreams, cell_states, trial_states
from support import same_bits

BNQN = Method.BNQN_NEW_VARIANT
BTGD = Method.BACKTRACKING_GD
NQN = Method.NQN
NEWTON_OPT = Method.NEWTON_OPT
NEWTON_1D = Method.NEWTON_1D
RRN = Method.RANDOM_RELAXED_NEWTON_1D
ONE_DIM = (NEWTON_1D, RRN)
Z2M1 = Polynomial([-1, 0, 1])
Z3M1 = Polynomial([-1, 0, 0, 1])
Z25M1 = Polynomial([-1] + [0] * 24 + [1])
Z40M1 = Polynomial([-1] + [0] * 39 + [1])
SQUARE = (-2.0, 2.0, -2.0, 2.0)
# three roots 1e-3 apart plus five spread ones, like the degree-8 benchmark input
CLUSTER8_ROOTS = [1.0, 1.001, 1.0 + 5e-4j, 1.2j, -0.9 + 0.6j, -1.1 - 0.3j, -0.2 - 1.3j, 0.8 - 0.9j]
CLUSTER8 = Polynomial.from_roots(CLUSTER8_ROOTS)
# real degree 8 with four real roots (near -1.4, -0.5, 0.6 and 1.3), and one
# with none, whose axis lanes end at critical points of F or at the cap
REAL8 = Polynomial([0.99, 1.19, -2.53, -2.49, -1.65, -1.16, -0.15, 1.4, 1.0])
REAL8_NO_AXIS_ROOT = Polynomial([0.5, -1.2, 0.3, 2.0, -0.7, 0.1, 0.9, -0.4, 1.0])
THETA_TAU_DELTAS = SolverConfig(theta=1.0, tau=0.7, deltas=(0.0, 0.5, -0.8))

CASES = {
    # odd grid: 25 converged cells on the negative real axis end Undecided
    "z3m1-51-default": (Z3M1, GridSpec(*SQUARE, 51, 51), BNQN, SolverConfig()),
    "z2-double-root": (Polynomial([0, 0, 1]), GridSpec(*SQUARE, 15, 15), BNQN, SolverConfig()),
    "z2m1": (Polynomial([-1, 0, 1]), GridSpec(*SQUARE, 21, 21), BNQN, SolverConfig()),
    "cluster8": (CLUSTER8, GridSpec(*SQUARE, 17, 17), BNQN, SolverConfig()),
    # a complex g: the per-lane loop and the sweep's per-lane Armijo search
    # run on complex values, with the theta cap and, for BNQN, later shifts
    "cluster8-theta-tau-deltas": (
        CLUSTER8, GridSpec(*SQUARE, 17, 17), BNQN, replace(THETA_TAU_DELTAS, max_iter=300),
    ),
    "cluster8-btgd-theta": (CLUSTER8, GridSpec(*SQUARE, 17, 17), BTGD, SolverConfig(theta=1.0, max_iter=300)),
    # the axis cells hit the cap in the per-lane loop
    "btgd-cap300": (Z3M1, GridSpec(*SQUARE, 9, 9), BTGD, SolverConfig(max_iter=300)),
    # the basin-cubic-btgd benchmark input: the four negative-axis cells
    # creep toward the critical point 0 and hit the default cap
    "btgd-9-default": (Z3M1, GridSpec(*SQUARE, 9, 9), BTGD, SolverConfig()),
    # 145 of 225 cells hit the cap inside the kernel
    "z3m1-gradtol0": (Z3M1, GridSpec(*SQUARE, 15, 15), BNQN, SolverConfig(grad_tol=0.0, max_iter=200)),
    "diverged-bnqn": (Z3M1, GridSpec(-1e9, 1e9, -1e9, 1e9, 9, 9), BNQN, SolverConfig(max_iter=300)),
    "diverged-btgd": (Z3M1, GridSpec(-1e9, 1e9, -1e9, 1e9, 9, 9), BTGD, SolverConfig(max_iter=300)),
    "theta-tau-deltas": (Z3M1, GridSpec(*SQUARE, 21, 21), BNQN, THETA_TAU_DELTAS),
    "btgd-theta": (Z3M1, GridSpec(*SQUARE, 15, 15), BTGD, SolverConfig(theta=1.0, max_iter=300)),
    # g = z with a huge shift: at x = 5e-324 and 1e-323 on the real axis w
    # underflows to 0, theta*|w| = inf*0 is NaN, max(1.0, NaN) is 1.0, and
    # the lane takes zero-length steps up to the cap
    "theta-inf-underflow": (
        Polynomial([0, 1]), GridSpec(0.0, 1e-323, -1.0, 1.0, 3, 3), BNQN,
        SolverConfig(theta=math.inf, tau=0.01, deltas=(1e10, 2e10), grad_tol=0.0, max_iter=50),
    ),
    # step failures: two shifts that both miss the bar near z = 1.2 ...
    "no-admissible-delta": (
        Polynomial([-1, 0, 1]), GridSpec(0.5, 2.0, 0.0, 1.5, 7, 7), BNQN,
        SolverConfig(deltas=(0.0, -10.0)),
    ),
    # ... and F overflowing to inf far out on a degree-25 polynomial
    "overflow-bnqn": (Z25M1, GridSpec(-5e7, 5e7, -5e7, 5e7, 5, 5), BNQN, SolverConfig()),
    "overflow-btgd": (Z25M1, GridSpec(-5e7, 5e7, -5e7, 5e7, 5, 5), BTGD, SolverConfig()),
    # one lane more than _TAIL_LANES: the 48 off the centre reject every
    # trial, so they backtrack lane by lane until gamma underflows
    "underflow-per-lane": (Z25M1, GridSpec(-5e7, 5e7, -5e7, 5e7, 7, 7), BTGD, SolverConfig()),
    # z^37-1 from +-2.7e8 on the axes: g overflows and g' does not, so
    # z - g/g' is -inf (or inf) and those cells end Diverged after one step;
    # a factor 1 + 0i would make them NaN (0*inf) and run them to the cap
    "newton1d-overflow": (
        Polynomial([-1] + [0] * 36 + [1]), GridSpec(-2.7e8, 2.7e8, -2.7e8, 2.7e8, 3, 3), NEWTON_1D,
        SolverConfig(max_iter=50),
    ),
    # with class_tol = 1e-5 the 10 negative-axis cells and the origin end
    # CriticalNonRoot at 0
    "z3m1-critical": (Z3M1, GridSpec(*SQUARE, 21, 21), BNQN, SolverConfig()),
    # z^40-1 far out: g and g' overflow, the first step is inf/inf, and 70
    # of the 72 cells sit at NaN, which run steps on up to the cap
    "newton1d-nan": (Z40M1, GridSpec(-2e8, 2e8, -2e8, 2e8, 9, 8), NEWTON_1D, SolverConfig(max_iter=300)),
    # the real-axis loop: a real g on an odd grid symmetric about the axis ...
    **{
        f"real8-{method.value}-{name}": (REAL8, GridSpec(*SQUARE, 15, 15), method, cfg)
        for method in (BNQN, BTGD)
        for name, cfg in (("default", SolverConfig()), ("theta-tau-deltas", THETA_TAU_DELTAS))
    },
    # ... and with no root on the axis, where 14 axis lanes end
    # CriticalNonRoot and the one from x = -2 hits the cap (bnqn), or 12 and
    # three (btgd)
    **{
        f"real8-no-axis-root-{method.value}": (
            REAL8_NO_AXIS_ROOT, GridSpec(*SQUARE, 15, 15), method, SolverConfig(max_iter=500),
        )
        for method in (BNQN, BTGD)
    },
    # z^3-1 written with -0.0 imaginary parts is real
    **{
        f"z3m1-minus-zero-imag-{method.value}": (
            Polynomial([complex(-1.0, -0.0), 0, 0, complex(1.0, -0.0)]), GridSpec(*SQUARE, 9, 9), method,
            SolverConfig(max_iter=3000),
        )
        for method in (BNQN, BTGD)
    },
    # starts at x = +0.0 and -0.0 on the axis (a one-column grid sits at
    # x_min); on z^2 + 2z + 5e-324 with grad_tol = 0 the BNQN direction
    # g'g/|a| = 1e-323/4 rounds to 0 there and the lane stays at x = +-0
    **{
        f"axis-{sign}0-{name}-{method.value}": (poly, GridSpec(x0, 1.0, -1.0, 1.0, 1, 3), method, cfg)
        for sign, x0 in (("plus", 0.0), ("minus", -0.0))
        for name, poly, cfg in (
            ("cubic", Polynomial([-1, 2, 0, 1]), SolverConfig()),
            ("subnormal", Polynomial([5e-324, 2, 1]), SolverConfig(grad_tol=0.0, max_iter=50)),
        )
        for method in (BNQN, BTGD)
    },
    # at x = 1, g = 2.9e307 z^3 + 2e307 z^2 - 4.9e307 z + 1 is 1 and g' is
    # 7.8e307, but g'' overflows, and so the BNQN lane fails its first step
    "axis-g2-overflow-bnqn": (
        Polynomial([1.0, -(2.9e307 + 2e307), 2e307, 2.9e307]), GridSpec(1.0, 2.0, -1.0, 1.0, 1, 3), BNQN,
        SolverConfig(),
    ),
    # g = 1e-170 z + 1e-150 at tau = 2: |grad|**tau underflows to 0, so the
    # first shift passes the bar, and g'^2 underflows to 0 too, so the
    # shifted Hessian is singular and every lane fails its first step
    "singular-shift-bnqn": (
        Polynomial([1e-150, 1e-170]), GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3), BNQN,
        SolverConfig(tau=2.0, grad_tol=0.0, max_iter=50),
    ),
    # far starts at tau > 1: |grad|**tau overflows to an inf shift scale
    # where |grad| is large, and stays finite nearer the roots
    **{
        f"far-{method.value}-tau{tau:g}": (
            Z3M1, GridSpec(-1e8, 1e8, -0.7e8, 1.3e8, 15, 13), method, SolverConfig(tau=tau, max_iter=300),
        )
        for method in (BNQN, NQN)
        for tau in (8.0, 3.0)
    },
}
# The full-step methods on four grids: on z^2-1 two newton-opt cells meet a
# singular Hessian and the 38 imaginary-axis newton1d cells hit the cap; on
# z^25-1 far out, the Hessian of 24 nqn and newton-opt lanes overflows and
# their first step fails.  Only NQN reads tau and the shifts, so only NQN
# takes every config.
FULL_STEP_GRIDS = {
    "z2m1": (Z2M1, GridSpec(*SQUARE, 41, 41)),
    "z3m1": (Z3M1, GridSpec(*SQUARE, 41, 41)),
    "cluster8": (CLUSTER8, GridSpec(*SQUARE, 25, 25)),
    "z25m1": (Z25M1, GridSpec(-5e7, 5e7, -5e7, 5e7, 5, 5)),
}
FULL_STEP_CONFIGS = {
    "cap300": SolverConfig(max_iter=300),
    "tau-deltas": SolverConfig(max_iter=300, tau=0.7, deltas=(0.0, 0.5, -0.8)),
    "deltas-0-m10": SolverConfig(max_iter=300, deltas=(0.0, -10.0)),
}
CASES.update(
    (f"{method.value}-{grid}-{config}", (poly, spec, method, cfg))
    for method in (NQN, NEWTON_OPT, NEWTON_1D)
    for grid, (poly, spec) in FULL_STEP_GRIDS.items()
    for config, cfg in FULL_STEP_CONFIGS.items()
    if method is NQN or config == "cap300"
)
CLASS_TOL = {"z3m1-critical": 1e-5}


def _scalar(obj, z0, method, cfg, class_tol=1e-6):
    """What the per-cell sweep records: the trace, or None when classifying raised."""
    try:
        return run(obj, z0, method, cfg, class_tol=class_tol)
    except BnqnError:
        return None


@functools.cache
def _oracle(case):
    """The grid's starts and each one's scalar trace (or None)."""
    poly, grid, method, cfg = CASES[case]
    obj = PolyModulusObjective(poly)
    starts = [grid.point(i, j) for i in range(grid.nx) for j in range(grid.ny)]
    return starts, [_scalar(obj, z0, method, cfg, CLASS_TOL.get(case, 1e-6)) for z0 in starts]


# _TAIL_LANES as the kernel has it (None), 0 (every lane stays in the numpy
# sweep) and more than any grid has lanes (every lane runs in the per-lane
# loop from step 0); the per-lane loop is for BNQN and GD only
ALL_LANES = 10**6
TAILS = {None: "", 0: "-sweep-only", ALL_LANES: "-per-lane-only"}


@pytest.mark.parametrize(
    "case, tail",
    [
        pytest.param(case, tail, id=case + tag)
        for case in CASES
        for tail, tag in (TAILS.items() if CASES[case][2] in (BNQN, BTGD) else [(None, "")])
    ],
)
def test_lockstep_matches_scalar_run(monkeypatch, case, tail):
    poly, grid, method, cfg = CASES[case]
    class_tol = CLASS_TOL.get(case, 1e-6)
    obj = PolyModulusObjective(poly)
    starts, traces = _oracle(case)
    if tail is not None:
        monkeypatch.setattr(lockstep, "_TAIL_LANES", tail)
    finished, backtracked = [], []
    finish_lane, armijo_lane = lockstep._finish_lane, lockstep._armijo_lane

    def counted(*args):
        finished.append(args)
        return finish_lane(*args)

    def counted_backtrack(*args):
        accepted = armijo_lane(*args)
        # _finish_lane searches from gamma0; a sweep's rejecters from below it
        if args[-1] < cfg.gamma0:
            backtracked.append(accepted)
        return accepted

    monkeypatch.setattr(lockstep, "_finish_lane", counted)
    monkeypatch.setattr(lockstep, "_armijo_lane", counted_backtrack)
    x0, y0 = np.array(starts).T
    x, y, steps, codes = lockstep.iterate(obj, method, cfg, x0, y0)
    per_lane = len(finished)
    underflows = backtracked.count(None)
    basin = render_basin(poly, grid, method, cfg, class_tol=class_tol)
    classify = obj.classify_roots_only if method in ONE_DIM else obj.classify
    outcomes = set()
    for n, (z0, want) in enumerate(zip(starts, traces)):
        code = int(codes[n])
        outcomes.add(code)
        fx, fy = want.final_point
        assert same_bits(x[n], fx) and same_bits(y[n], fy), z0
        assert steps[n] == want.iterations, z0
        assert (code == lockstep.FAILED) == (want.failure is not None), z0
        if code == lockstep.STOPPED:
            assert classify((x[n], y[n]), class_tol) == want.terminal, z0
        else:
            assert want.terminal == UNDECIDED
        i, j = divmod(n, grid.ny)
        if want is None:
            assert (basin.classes[i][j], basin.iterations[i, j]) == (UNDECIDED, cfg.max_iter)
        else:
            assert basin.classes[i][j] == want.terminal, z0
            # LimitClass equality ignores the matched critical point
            assert basin.classes[i][j].point == want.terminal.point, z0
            assert basin.iterations[i, j] == want.iterations, z0
    if tail == 0 or method not in (BNQN, BTGD):
        assert per_lane == 0
        assert not backtracked
    elif tail == ALL_LANES:
        assert per_lane == len(starts)
        assert all(args[-1] == 0 for args in finished)  # from step 0
    elif case in ("btgd-cap300", "btgd-9-default", "diverged-bnqn"):
        assert 0 < per_lane <= lockstep._TAIL_LANES
    if tail is None and (case == "z3m1-51-default" or case.startswith("cluster8")):
        assert backtracked
    if case == "underflow-per-lane":
        failed = codes == lockstep.FAILED
        assert np.count_nonzero(failed) == 48 and not steps[failed].any()
        assert all(traces[n].failure.startswith("LineSearchUnderflow") for n in np.flatnonzero(failed).tolist())
        assert underflows == (48 if tail is None else 0)
    if case == "z3m1-51-default":
        assert basin.class_counts()["Undecided"] == 25
    if case == "z3m1-critical":
        assert basin.class_counts()["CriticalNonRoot"] == 11
    if case == "z3m1-gradtol0":
        assert np.count_nonzero(codes == lockstep.CAPPED) == 145
    if case == "btgd-9-default":
        capped = {divmod(n, grid.ny) for n in np.flatnonzero(codes == lockstep.CAPPED).tolist()}
        assert capped == {(i, 4) for i in range(4)}
        for i, j in capped:
            assert (basin.classes[i][j], basin.iterations[i, j]) == (UNDECIDED, 10_000)
        assert basin.class_counts()["Undecided"] == 4
    if case == "theta-inf-underflow":
        for n in (4, 7):
            assert (codes[n], steps[n], x[n], y[n]) == (lockstep.CAPPED, 50, x0[n], 0.0)
    if case.startswith("diverged"):
        assert basin.class_counts()["Diverged"] > 0
    if case == "singular-shift-bnqn":
        assert (codes == lockstep.FAILED).all() and not steps.any()
    if case in ("no-admissible-delta", "overflow-bnqn", "overflow-btgd"):
        assert lockstep.FAILED in outcomes
    if case == "newton1d-overflow":
        assert basin.iterations.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert basin.class_counts()["Diverged"] == 8
    if case == "newton1d-nan":
        lost = np.isnan(x) & np.isnan(y)
        assert np.count_nonzero(lost) == 70
        assert (codes[lost] == lockstep.CAPPED).all() and (steps[lost] == 300).all()
    if case == "newton-opt-z2m1-cap300":
        assert np.count_nonzero(codes == lockstep.FAILED) == 2
    if case == "newton1d-z2m1-cap300":
        assert np.count_nonzero(codes == lockstep.CAPPED) == 38
    if case.startswith(("nqn-z25m1", "newton-opt-z25m1")):
        assert np.count_nonzero(codes == lockstep.FAILED) == 24


def test_real_axis_loop_takes_the_axis_lanes_of_a_real_g(monkeypatch):
    # render_basin sweeps the y >= 0 rows of a real g, and the 45 lanes of
    # the z^3-1 9x9 grid finish one by one: the nine at y = +0.0 run on
    # floats to their end, the four capped ones too.  F overflows on the
    # axis of z^25-1 far out, g'' overflows at x = 1 of axis-g2-overflow,
    # and at x = +-0 on z^2 + 2z + 5e-324 the BNQN direction is 0, so those
    # lanes go back to the complex loop.  A complex g never comes here
    outcomes = []
    real_lane = lockstep._finish_real_lane

    def counted(*args):
        end = real_lane(*args)
        outcomes.append(end[2])
        return end

    monkeypatch.setattr(lockstep, "_finish_real_lane", counted)
    taken = {}
    cases = ("btgd-9-default", "cluster8", "overflow-btgd", "axis-g2-overflow-bnqn", "axis-minus0-subnormal-bnqn")
    for case in cases:
        outcomes.clear()
        render_basin(*CASES[case])
        taken[case] = list(outcomes)
    assert sorted(taken["btgd-9-default"]) == [lockstep.STOPPED] * 5 + [lockstep.CAPPED] * 4
    assert taken["cluster8"] == []
    assert None in taken["overflow-btgd"]
    assert taken["axis-g2-overflow-bnqn"] == taken["axis-minus0-subnormal-bnqn"] == [None]


@pytest.mark.parametrize("method", [BNQN, BTGD], ids=["bnqn", "btgd"])
def test_lanes_at_minus_zero_keep_the_complex_loop(monkeypatch, method):
    # from y = -0.0 the sign of the next y is the sign of a zero product,
    # so those lanes never reach the real-axis loop, and still end as run
    # does: at (-2, -0.0) on z^3-1 GD creeps toward 0 up to the cap
    monkeypatch.setattr(lockstep, "_TAIL_LANES", ALL_LANES)
    monkeypatch.setattr(lockstep, "_finish_real_lane", None)
    obj, cfg = PolyModulusObjective(Z3M1), SolverConfig()
    x0 = [-2.0, -0.5, 0.0, 0.7, 1.5]
    x, y, steps, codes = lockstep.iterate(obj, method, cfg, x0, [-0.0] * len(x0))
    for n, start in enumerate(x0):
        want = run(obj, (start, -0.0), method, cfg)
        fx, fy = want.final_point
        assert same_bits(x[n], fx) and same_bits(y[n], fy), start
        assert steps[n] == want.iterations, start
    if method is BTGD:
        assert codes[0] == lockstep.CAPPED


# starts whose lanes stall: from (-2, +-0) on REAL8_NO_AXIS_ROOT both
# methods reach, within 20 steps, a point near x = -0.7718 whose next step
# leaves it as it is, bit for bit; from (-0.0, +-0) on z - 1 with theta = inf
# the capped direction is -0.0 and the first step goes to x = +0.0, where
# every later one stays, so a stall test that ignored the sign of zero would
# end the lane at -0.0
STALLS = {
    "real8-no-axis-root": (REAL8_NO_AXIS_ROOT, -2.0, SolverConfig()),
    "zero-sign": (Polynomial([-1, 1]), -0.0, SolverConfig(theta=math.inf)),
}


@pytest.mark.parametrize("y0", [0.0, -0.0], ids=["real-loop", "complex-loop"])
@pytest.mark.parametrize("method", [BNQN, BTGD], ids=["bnqn", "btgd"])
@pytest.mark.parametrize("case", STALLS)
def test_stalled_lanes_end_at_once(case, method, y0):
    # run repeats a stalled step up to the cap, and the per-lane loops end
    # the lane there at once.  The profiler counts every call and return,
    # Python and C: each of the 10 000 steps would make at least four
    poly, x0, cfg = STALLS[case]
    obj = PolyModulusObjective(poly)
    want = run(obj, (x0, y0), method, cfg)
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += 1

    sys.setprofile(count)
    try:
        x, y, steps, code = lockstep._finish_lane(obj, method is BNQN, cfg, x0, y0, 0)
    finally:
        sys.setprofile(None)
    fx, fy = want.final_point
    assert same_bits(x, fx) and same_bits(y, fy)
    assert (steps, code) == (want.iterations, lockstep.CAPPED) == (cfg.max_iter, lockstep.CAPPED)
    assert want.failure is None and want.terminal == UNDECIDED
    assert events < 2000


def _overflow_start(poly):
    """The least x = 2**j, j >= 1, where F = g(x)**2/2 of a real g
    overflows on floats."""
    x = 2.0
    while True:
        gx = 0.0
        for c in reversed(poly.coeffs):
            gx = gx * x + c.real
        if not 0.5 * (gx * gx) < math.inf:
            return x
        x *= 2.0


def test_real_axis_loop_is_the_complex_loop_bit_for_bit(monkeypatch):
    # _finish_lane from (x, +0.0) against the same call with the real-axis
    # loop handing every lane back at once, on seeded random real g: degree
    # 1-12 and 201, two of each (a coefficient baked into a loop compiled
    # for the first would fail the second), zero coefficients, the leading
    # one too at times, and magnitudes spread up to 1e+-8; theta, tau and
    # 2-5 shifts drawn per lane; starts at +-0, +-1e8, where F overflows
    # and three in [-3, 3]
    rng = np.random.default_rng(2611)
    real_lane = lockstep._finish_real_lane
    ended = {}

    def counted(*args):
        end = real_lane(*args)
        ended[args[0].g.degree] += end[2] is not None
        return end

    def handed_back(obj, hessian, cfg, x, k):
        return x, k, None

    for degree in [*range(1, 13), 201]:
        for _ in range(2):
            spread = rng.choice([0.0, 2.0, 8.0])
            coeffs = rng.choice([-1.0, 1.0], degree + 1) * 10.0 ** rng.uniform(-spread, spread, degree + 1)
            coeffs[rng.random(degree + 1) < 0.25] = 0.0
            poly = Polynomial(coeffs.tolist())
            if poly.degree < 1:
                continue
            obj = PolyModulusObjective(poly)
            ended.setdefault(poly.degree, 0)
            far = _overflow_start(poly)
            starts = [0.0, -0.0, 1e8, -1e8, far, -far, *rng.uniform(-3.0, 3.0, 3).tolist()]
            for hessian in (True, False):
                cfg = SolverConfig(
                    theta=float(rng.choice([0.0, 1.0, 10.0])),
                    tau=float(rng.choice([0.5, 1.0, 2.0])),
                    deltas=rng.uniform(-3.0, 3.0, rng.integers(2, 6)).tolist(),
                    max_iter=150,
                )
                for x0 in starts:
                    ends = []
                    for loop in (counted, handed_back):
                        monkeypatch.setattr(lockstep, "_finish_real_lane", loop)
                        ends.append(lockstep._finish_lane(obj, hessian, cfg, x0, 0.0, 0))
                    (x, y, k, code), (wx, wy, wk, wcode) = ends
                    assert same_bits(x, wx) and same_bits(y, wy), (poly, cfg, hessian, x0)
                    assert (k, code) == (wk, wcode), (poly, cfg, hessian, x0)
    # the real-axis loop ended lanes of every degree, 201 included
    assert all(ended.values()) and 201 in ended


@pytest.mark.parametrize("tail", [0, ALL_LANES], ids=["sweep-only", "per-lane-only"])
@pytest.mark.parametrize("method", [BNQN, BTGD], ids=["bnqn", "btgd"])
def test_first_step_from_zero_matches_run(monkeypatch, method, tail):
    # g = z - r from z = 0 with max_iter = 1 ends at exactly -gamma*w_hat,
    # so one ulp of difference anywhere in the step shows in the final
    # point; theta = 10 caps w for most roots r, which exercises the norm
    # of w on pairs where the C library's hypot and math.hypot differ
    monkeypatch.setattr(lockstep, "_TAIL_LANES", tail)
    cfg = SolverConfig(theta=10.0, max_iter=1)
    rng = np.random.default_rng(97)
    for r in rng.uniform(-3.0, 3.0, (1500, 2)).tolist():
        obj = PolyModulusObjective(Polynomial([complex(-r[0], -r[1]), 1]))
        want = run(obj, (0.0, 0.0), method, cfg).final_point
        x, y, _, _ = lockstep.iterate(obj, method, cfg, [0.0], [0.0])
        assert (x[0], y[0]) == tuple(want), r


# real g on grids symmetric about the real axis, odd and even
MIRROR_GRIDS = {
    "z2m1": (Z2M1, GridSpec(*SQUARE, 61, 61)),
    "z3m1": (Z3M1, GridSpec(*SQUARE, 64, 64)),
    "degree7": (Polynomial([0.5, -1.2, 0.3, 2.0, -0.7, 0.1, 0.9, 1.0]), GridSpec(*SQUARE, 33, 32)),
    "z25m1": (Z25M1, GridSpec(-5e7, 5e7, -5e7, 5e7, 9, 9)),
}


@pytest.mark.parametrize(
    "cfg",
    [SolverConfig(max_iter=500), SolverConfig(max_iter=500, theta=1.0, tau=0.7, deltas=(0.0, 0.5, -0.8))],
    ids=["cap500", "theta-tau-deltas"],
)
@pytest.mark.parametrize("method", [BNQN, BTGD, NQN, NEWTON_OPT, NEWTON_1D], ids=lambda m: m.value)
def test_kernel_commutes_with_the_real_axis_mirror(method, cfg):
    # F(x, -y) = F(x, y) for real g, and every kernel operation commutes with
    # y -> -y: cell (i, ny-1-j) ends as cell (i, j) does, at the point with y
    # negated.  render_basin runs only half of such a grid on this property
    outcomes = set()
    for name, (poly, grid) in MIRROR_GRIDS.items():
        x0 = np.repeat([grid.x_coord(i) for i in range(grid.nx)], grid.ny)
        y0 = np.tile([grid.y_coord(j) for j in range(grid.ny)], grid.nx)
        ends = lockstep.iterate(PolyModulusObjective(poly), method, cfg, x0, y0)
        x, y, steps, codes = (v.reshape(grid.nx, grid.ny) for v in ends)
        assert np.array_equal(steps, steps[:, ::-1]), name
        assert np.array_equal(codes, codes[:, ::-1]), name
        # == ignores the sign of a zero
        assert np.array_equal(x, x[:, ::-1], equal_nan=True), name
        assert np.array_equal(y, -y[:, ::-1], equal_nan=True), name
        outcomes.update(codes.ravel().tolist())
    assert lockstep.STOPPED in outcomes and len(outcomes) > 1


@pytest.mark.parametrize("method", [NEWTON_1D, RRN], ids=["newton1d", "rrn1d"])
def test_nan_lanes_end_capped_without_stepping(monkeypatch, method):
    # at a NaN point g and g' are NaN and no test passes on NaN, so run steps
    # on NaN up to the cap; the kernel ends such a lane at once, as run does.
    # A lane with x NaN and y infinite has |z| = inf and leaves the
    # divergence radius instead
    stepped = []
    relaxed_step = lockstep._relaxed_step

    def counted(x, *args):
        stepped.append(len(x))
        return relaxed_step(x, *args)

    monkeypatch.setattr(lockstep, "_relaxed_step", counted)
    nan, inf = math.nan, math.inf
    x0, y0 = [nan, 1.0, nan, nan, inf, 0.5], [0.5, nan, inf, -inf, nan, 0.5]
    cfg = SolverConfig(max_iter=3000, seed=2)
    streams = TrialStreams(trial_states(cfg.seed, len(x0))) if method is RRN else None
    obj = PolyModulusObjective(Z3M1)
    x, y, steps, codes = lockstep.iterate(obj, method, cfg, x0, y0, streams=streams)
    assert codes.tolist() == [lockstep.CAPPED] * 2 + [lockstep.STOPPED] * 4
    assert steps.tolist()[:5] == [3000, 3000, 0, 0, 0]
    assert np.isnan(x[:2]).all() and np.isnan(y[:2]).all()
    labels, table = obj.classify_many(x[2:5], y[2:5], 1e-6, roots_only=True)
    assert [table[k] for k in labels] == [DIVERGED] * 3
    # only the lane from 0.5 + 0.5i steps, once a step, and it converges
    assert sum(stepped) == steps[5] and max(stepped) == 1
    assert codes[5] == lockstep.STOPPED and 0 < steps[5] < 100


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_no_kernel_pass_gets_zero_lanes(monkeypatch, method):
    # a sweep ends as soon as a compaction of stopped or of failed lanes
    # leaves none, before another Horner pass or step on empty arrays; BNQN
    # and GD keep every lane in the sweep here, as the other methods do
    monkeypatch.setattr(lockstep, "_TAIL_LANES", 0)
    passes = []
    for name in ("_horner", "_relaxed_step", "_newton_direction", "_shift_search", "_armijo_step"):
        def counted(*args, _name=name, _f=getattr(lockstep, name)):
            # _horner and _armijo_step take the coefficients first
            passes.append(len(args[1] if _name in ("_horner", "_armijo_step") else args[0]))
            return _f(*args)

        monkeypatch.setattr(lockstep, name, counted)
    cfg = SolverConfig(max_iter=500, seed=4)
    x0, y0 = (v.ravel() for v in np.meshgrid(np.linspace(-2.0, 2.0, 20), np.linspace(-2.0, 2.0, 20)))
    # then one start whose first step fails: g'(1e-16) is below the pole
    # scale, and F overflows at 5e7 + 5e7i for z^25 - 1
    if method in ONE_DIM:
        fails = Z2M1, replace(cfg, grad_tol=0.0), [1e-16], [0.0]
    else:
        fails = Z25M1, cfg, [5e7], [5e7]
    for g, c, xs, ys in ((Z3M1, cfg, x0, y0), fails):
        streams = TrialStreams(trial_states(c.seed, len(xs))) if method is RRN else None
        codes = lockstep.iterate(PolyModulusObjective(g), method, c, xs, ys, streams=streams)[3]
    assert codes.tolist() == [lockstep.FAILED]
    assert passes and 0 not in passes


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_iterate_with_no_starts_returns_four_empty_arrays(method):
    streams = TrialStreams(trial_states(0, 0)) if method is RRN else None
    got = lockstep.iterate(PolyModulusObjective(Z3M1), method, SolverConfig(), [], [], streams=streams)
    assert [(v.shape, v.dtype) for v in got] == [((0,), np.float64)] * 2 + [((0,), np.int_), ((0,), np.int8)]


@pytest.mark.parametrize("failing", ["g", "g'"])
def test_root_finder_failure_matches_per_cell_sweep(monkeypatch, failing):
    # a failing root finder makes classify raise; the per-cell sweep records
    # (Undecided, max_iter) for exactly the cells whose classification raised
    real_all_roots = objective.all_roots

    def all_roots(p, tol):
        if failing == "g" or p.degree < Z3M1.degree:
            raise NoConvergence("root finder failure for the test")
        return real_all_roots(p, tol)

    monkeypatch.setattr(objective, "all_roots", all_roots)
    grid, cfg = GridSpec(*SQUARE, 15, 15), SolverConfig(max_iter=300)
    basin = render_basin(Z3M1, grid, BNQN, cfg, class_tol=1e-5)
    obj = PolyModulusObjective(Z3M1)
    raised = 0
    for i in range(grid.nx):
        for j in range(grid.ny):
            want = _scalar(obj, grid.point(i, j), BNQN, cfg, 1e-5)
            if want is None:
                raised += 1
                want_cell = (UNDECIDED, cfg.max_iter)
            else:
                want_cell = (want.terminal, want.iterations)
            assert (basin.classes[i][j], basin.iterations[i, j]) == want_cell, (i, j)
    if failing == "g":
        assert raised == grid.nx * grid.ny
    else:
        # the origin and the 7 cells on the negative real axis need g' roots
        assert raised == 8


def test_root_finder_failure_in_a_newton1d_basin(monkeypatch):
    # newton1d classifies against the roots of g alone: a failing root
    # finder makes every stopped cell (Undecided, max_iter), while the capped
    # imaginary-axis cells of z^2-1 keep their steps
    def all_roots(p, tol):
        raise NoConvergence("root finder failure for the test")

    monkeypatch.setattr(objective, "all_roots", all_roots)
    grid, cfg = GridSpec(*SQUARE, 15, 15), SolverConfig(max_iter=300)
    basin = render_basin(Z2M1, grid, NEWTON_1D, cfg)
    obj = PolyModulusObjective(Z2M1)
    raised = set()
    for i in range(grid.nx):
        for j in range(grid.ny):
            want = _scalar(obj, grid.point(i, j), NEWTON_1D, cfg)
            want_cell = (UNDECIDED, cfg.max_iter) if want is None else (want.terminal, want.iterations)
            assert (basin.classes[i][j], basin.iterations[i, j]) == want_cell, (i, j)
            raised.add(want is None)
    assert raised == {True, False}


# (gx, gy, a, b, c) lanes for the full-step directions: regular, rank-one
# and zero Hessians, one that is singular after either shift of (0, 1), one
# whose determinant is not 0 while its smaller eigenvalue rounds to 0, and
# non-finite ones
DIRECTION_LANES = [
    (1.0, 2.0, 3.0, 0.5, -1.0),
    (1.0, -1.0, 1.0, 1.0, 1.0),
    (0.5, 0.25, 0.0, 0.0, 0.0),
    (2.0, 0.0, 0.0, 0.0, -2.0),
    (1.0, 1.0, 1.0, 1e-20, 1e-17),
    (1.0, 1.0, math.nan, 0.0, 1.0),
    (1.0, 1.0, math.inf, 1.0, 1.0),
    (math.inf, 0.0, 1.0, 0.0, 1.0),
]


@pytest.mark.parametrize("cfg", [SolverConfig(deltas=(0.0, 1.0)), SolverConfig(tau=0.7)], ids=["deltas-0-1", "tau07"])
def test_full_step_directions_fail_where_the_scalar_step_raises(cfg):
    gx, gy, a, b, c = (np.array(v) for v in zip(*DIRECTION_LANES))
    gn = np.hypot(gx, gy)
    with np.errstate(all="ignore"):
        got = {
            NQN: lockstep._shift_search(gx, gy, gn, a, b, c, cfg, lockstep._admits_nqn),
            NEWTON_OPT: lockstep._newton_direction(gx, gy, a, b, c),
        }
    failures = set()
    for n, lane in enumerate(DIRECTION_LANES):
        z, grad, hess = np.zeros(2), np.array(lane[:2]), SymmetricMatrix(2, lane[2:])
        finite = all(map(math.isfinite, lane))
        for method, (wx, wy, failed) in got.items():
            try:
                with np.errstate(all="ignore"):
                    want = _STEPS[method][1](None, z, grad, float(gn[n]), hess, cfg, None)[0]
            except BnqnError as exc:
                failures.add((method, type(exc).__name__, finite))
                assert failed[n], (method, lane)
                continue
            assert not failed[n], (method, lane)
            # a Hessian with a NaN or infinite entry fails the step
            assert all(map(math.isfinite, lane[2:])), (method, lane)
            # the scalar step is z - w from z = 0
            assert same_bits(0.0 - wx[n], want[0]) and same_bits(0.0 - wy[n], want[1]), (method, lane)
    assert {(NQN, "SingularMatrix", True), (NEWTON_OPT, "SingularMatrix", True)} <= failures
    assert ((NQN, "NoAdmissibleDelta", True) in failures) == (cfg.deltas == (0.0, 1.0))
    assert {f for f in failures if not f[2]} == {(NQN, "NoAdmissibleDelta", False), (NEWTON_OPT, "SingularMatrix", False)}


# (a, b, c) Hessians on which the eigen primitives take their rare
# branches: a diagonal matrix (b = +-0.0) with a < c, a > c and a == c;
# half_diff = +0.0 and -0.0; a subnormal b; NaN and infinite entries; and
# zero eigenvalues, which make the solve singular
EIGEN_LANES = [
    *((a, b, c) for b in (0.0, -0.0) for a, c in ((1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (-3.0, -3.0), (-0.0, 0.0))),
    (1.0, 2.0, 1.0),
    (-0.0, 1.0, 0.0),
    (0.0, -1.0, -0.0),
    (1.0, 5e-324, 2.0),
    (2.0, -5e-324, 1.0),
    (1.0, 5e-324, 1.0),
    (0.0, 1e-310, 0.0),
    (-1e-310, 1e-310, 1e-310),
    (math.nan, 1.0, 1.0),
    (1.0, math.nan, 1.0),
    (1.0, 1.0, math.nan),
    (math.nan, 0.0, 1.0),
    (1.0, 0.0, math.nan),
    (math.inf, 1.0, 1.0),
    (1.0, 1.0, -math.inf),
    (1.0, math.inf, 1.0),
    (math.inf, 0.0, 1.0),
    (-math.inf, -0.0, math.inf),
    (math.inf, 1.0, math.inf),
    (1.0, 1.0, 1.0),
    (4.0, 2.0, 1.0),
    (0.0, 0.0, 1.0),
    (1.0, -0.0, 0.0),
    (0.0, 0.0, 0.0),
    (3.0, 0.5, -1.0),
]
EIGEN_GRADS = [(1.0, -2.0), (0.3, 0.7), (-0.0, 5.0)]


@pytest.mark.parametrize("together", [True, False], ids=["all-lanes", "lane-by-lane"])
def test_eigen_primitives_match_linalg_on_rare_lanes(together):
    # all lanes in one call, where the diagonal lanes are fixed by index
    # among the others, and each lane alone, where a call may have none
    groups = [EIGEN_LANES] if together else [[lane] for lane in EIGEN_LANES]
    singular_seen = set()
    for gx_, gy_ in EIGEN_GRADS:
        for group in groups:
            a, b, c = (np.array(v) for v in zip(*group))
            gx, gy = np.full(len(a), gx_), np.full(len(a), gy_)
            with np.errstate(all="ignore"):
                eig = lockstep._eig2(a, b, c)
                wx, wy, singular = lockstep._reflected_solve(gx, gy, a, b, c, *eig)
                admitted = {t: lockstep._admits_bnqn(a, b, c, *eig[:2], t) for t in (0.0, 0.5, 1.0, math.inf)}
            for n, lane in enumerate(group):
                l1, l2 = _eig2_system(*lane)[:2]
                assert same_bits(eig[0][n], l1) and same_bits(eig[1][n], l2), lane
                for t, got in admitted.items():
                    assert got[n] == (minsp(SymmetricMatrix(2, lane)) >= t), (lane, t)
                try:
                    want = reflected_direction(SymmetricMatrix(2, lane), (gx_, gy_))
                except SingularMatrix:
                    assert singular[n], lane
                    singular_seen.add(lane)
                    continue
                assert not singular[n], lane
                assert same_bits(wx[n], want[0]) and same_bits(wy[n], want[1]), (lane, gx_, gy_)
    assert singular_seen == {
        (1.0, 1.0, 1.0), (4.0, 2.0, 1.0), (0.0, 0.0, 1.0), (1.0, -0.0, 0.0), (0.0, 0.0, 0.0),
        *((a, b, c) for b in (0.0, -0.0) for a, c in ((-0.0, 0.0),)),
    }


@pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(tau=0.7, deltas=(0.0, 0.5, -0.8))], ids=["default", "tau-deltas"])
def test_bnqn_shift_search_matches_select_delta(cfg):
    # lanes that each shift wins, so the later shifts' eigensystems are
    # scattered into the first's, plus the rare lanes above
    lanes = [(g, lane) for g in EIGEN_GRADS for lane in EIGEN_LANES]
    lanes += [((1.0, 0.0), (d, 0.0, 5.0)) for d in (-1.0, 0.0, 1.0, -0.5, 0.8, 0.2)]
    lanes += [((0.6, -0.8), (-0.5, 0.3, 2.0)), ((0.6, -0.8), (0.1, 1e-9, 0.1))]
    # eigenvalues 0 and -1, or 0 and -0.5: only the last shift clears the bar
    lanes += [((1.0, 0.0), h) for h in ((0.0, 0.0, -1.0), (-0.5, 0.5, -0.5), (0.0, 0.0, -0.5), (-0.25, 0.25, -0.25))]
    (gx, gy), (a, b, c) = ((np.array(v) for v in zip(*part)) for part in zip(*lanes))
    gn = np.hypot(gx, gy)
    with np.errstate(all="ignore"):
        wx, wy, failed = lockstep._shift_search(gx, gy, gn, a, b, c, cfg, lockstep._admits_bnqn)
    shifts = set()
    for n, (grad, hess) in enumerate(lanes):
        try:
            j, shifted = select_delta(SymmetricMatrix(2, hess), float(gn[n]), cfg)
            want = reflected_direction(shifted, grad)
        except (NoAdmissibleDelta, SingularMatrix):
            assert failed[n], (grad, hess)
            continue
        shifts.add(j)
        assert not failed[n], (grad, hess)
        assert same_bits(wx[n], want[0]) and same_bits(wy[n], want[1]), (grad, hess)
    assert shifts == set(range(len(cfg.deltas)))


@pytest.mark.parametrize("cfg", [SolverConfig(), SolverConfig(tau=0.7, deltas=(0.0, 0.5, -0.8))], ids=["default", "tau-deltas"])
def test_lane_direction_matches_shift_search_and_select_delta(cfg):
    # the per-lane tail's direction shares its solve with run's
    # reflected_direction, so check it against both: the kernel's numpy
    # search, which solves apart, and select_delta then reflected_direction
    lanes = [(g, lane) for g in EIGEN_GRADS for lane in EIGEN_LANES]
    # eigenvalues -1 and 0: the bar rejects the first shift by l2 alone, and
    # at grad 0 (a bar of 0) admits it, leaving only the zero-eigenvalue test
    lanes += [(g, h) for g in ((1.0, 0.0), (0.0, 0.0)) for h in ((0.0, 0.0, -1.0), (-0.5, 0.5, -0.5))]
    (gx, gy), (a, b, c) = ((np.array(v) for v in zip(*part)) for part in zip(*lanes))
    gn = np.hypot(gx, gy)
    with np.errstate(all="ignore"):
        wx, wy, failed = lockstep._shift_search(gx, gy, gn, a, b, c, cfg, lockstep._admits_bnqn)
    none_seen = 0
    for n, (grad, hess) in enumerate(lanes):
        got = lockstep._lane_direction(*grad, float(gn[n]), *hess, cfg)
        try:
            _, shifted = select_delta(SymmetricMatrix(2, hess), float(gn[n]), cfg)
            want = reflected_direction(shifted, grad)
        except (NoAdmissibleDelta, SingularMatrix):
            assert got is None and failed[n], (grad, hess)
            none_seen += 1
            continue
        assert got is not None and not failed[n], (grad, hess)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]), (grad, hess)
        assert same_bits(got[0], wx[n]) and same_bits(got[1], wy[n]), (grad, hess)
    assert 0 < none_seen < len(lanes)


def test_quot_is_python_complex_division_bitwise():
    rng = np.random.default_rng(83)
    n = 1_000_000
    ar, ai, br, bi = (rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n) for _ in range(4))
    k = n // 10
    bi[:k] = br[:k] * rng.uniform(0.5, 2.0, k)  # comparable sizes
    bi[k : 2 * k] = br[k : 2 * k] * rng.choice([-1.0, 1.0], k)  # |re| == |im|
    keep = (br != 0.0) | (bi != 0.0)  # Python raises on a zero divisor
    ar, ai, br, bi = ar[keep], ai[keep], br[keep], bi[keep]
    with np.errstate(all="ignore"):
        qr, qi = lockstep._quot(ar, ai, br, bi)
    want = list(map(complex.__truediv__, map(complex, ar.tolist(), ai.tolist()), map(complex, br.tolist(), bi.tolist())))
    assert np.array_equal(qr.view(np.int64), np.array([q.real for q in want]).view(np.int64))
    assert np.array_equal(qi.view(np.int64), np.array([q.imag for q in want]).view(np.int64))
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -3.0, 1e300, -1e300, math.inf, -math.inf, math.nan]
    cases = [(a, b, c, d) for a in special for b in special for c in special for d in special if c or d]
    a, b, c, d = (np.array(v) for v in zip(*cases))
    with np.errstate(all="ignore"):
        qr, qi = lockstep._quot(a, b, c, d)
    for n, (a, b, c, d) in enumerate(cases):
        want = complex(a, b) / complex(c, d)
        assert same_bits(qr[n], want.real) and same_bits(qi[n], want.imag), (a, b, c, d)


# the values the kernel's numpy passes must carry as Python's floats do:
# signed zeros, infinities, NaN, subnormals and values whose powers overflow
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e200, -1e200, 1.0, -3.0]
# complex and real coefficient tuples with 0.0 and -0.0 parts
HORNER_POLYS = [
    CLUSTER8,
    Z3M1,
    Polynomial([complex(-0.0, -0.0), complex(1.5, 0.0), complex(0.0, -0.0), complex(-2.0, 0.5)]),
    Polynomial([complex(-1.0, -0.0), complex(0.0, 0.0), complex(-0.0, -0.0), complex(1.0, -0.0)]),
    Polynomial([complex(0.25, -0.0), complex(-0.0, 3.0)]),
    Polynomial([complex(-0.0, 0.0)]),
]


def _special_lanes(rng, n, count):
    """``count`` seeded arrays of ``n`` lanes, about a third of them SPECIAL
    values and the rest spread over twelve decades."""
    out = []
    for _ in range(count):
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
        pick = rng.random(n) < 0.35
        v[pick] = rng.choice(SPECIAL, int(pick.sum()))
        out.append(v)
    return out


def test_horner_and_conjugate_product_are_python_complex_bitwise():
    rng = np.random.default_rng(211)
    # every pair of SPECIAL values as a lane, then seeded lanes
    xs, ys = (np.array(v) for v in zip(*((a, b) for a in SPECIAL for b in SPECIAL)))
    more = _special_lanes(rng, 400, 2)
    zr, zi = np.concatenate([xs, more[0]]), np.concatenate([ys, more[1]])
    zs = list(map(complex, zr.tolist(), zi.tolist()))
    # a list, not a dict: Z3M1 equals its copy with -0.0 parts
    values = []
    for poly in HORNER_POLYS:
        with np.errstate(all="ignore"):
            got = lockstep._horner(poly.coeffs, zr, zi)
        want = [poly(z) for z in zs]
        for n, w in enumerate(want):
            assert same_bits(got[0][n], w.real) and same_bits(got[1][n], w.imag), (poly, zs[n])
        values.append((got, want))
    # p * conj(g) of evaluated polynomials, and of the lanes themselves
    # against their parts swapped and reversed
    wr, wi = zi[::-1].copy(), zr[::-1].copy()
    ws = list(map(complex, wr.tolist(), wi.tolist()))
    pairs = [
        (values[0], values[2]),
        (values[1], values[3]),
        (((zr, zi), zs), ((wr, wi), ws)),
    ]
    for ((pr, pi), p), ((gr, gi), g) in pairs:
        with np.errstate(all="ignore"):
            re, im = lockstep._times_conj(pr, pi, gr, gi)
        for n, (pn, gn) in enumerate(zip(p, g)):
            w = pn * gn.conjugate()
            assert same_bits(re[n], w.real) and same_bits(im[n], w.imag), (pn, gn)


def _bits(v):
    """An array's bytes (signs of zeros and NaN payloads included), a
    tuple's item by item, and any other value as it is."""
    if isinstance(v, np.ndarray):
        return v.tobytes()
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    return v


def _arrays(values):
    """Every array in ``values``, inside tuples too."""
    for v in values:
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, tuple):
            yield from _arrays(v)


@pytest.mark.parametrize("tail", [None, 0], ids=["default-tail", "sweep-only"])
def test_kernel_helpers_leave_their_arguments_alone(monkeypatch, tail):
    # the numpy passes write in place only into arrays they made; an
    # argument is never written, and nothing returned is an argument's
    # memory, which a caller may write or pass on (GD's gx is its w)
    if tail is not None:
        monkeypatch.setattr(lockstep, "_TAIL_LANES", tail)
    rng = np.random.default_rng(307)
    n = 120
    x, y, gx, gy, gr, gi, dr, di, wx, wy, a, b, c, ar, ai = _special_lanes(rng, n, 15)
    b[rng.random(n) < 0.2] = 0.0  # diagonal Hessians, fixed by index
    zn, gn = np.hypot(x, y), np.hypot(gx, gy)
    tau_deltas = SolverConfig(tau=0.7, deltas=(0.0, 0.5, -0.8))
    with np.errstate(all="ignore"):
        eig = lockstep._eig2(a, b, c)
    calls = [
        (lockstep._horner, (CLUSTER8.coeffs, x, y)),
        (lockstep._horner, (Z3M1.coeffs, x, y)),
        (lockstep._times_conj, (dr, di, gr, gi)),
        (lockstep._quot, (gr, gi, dr, di)),
        (lockstep._relaxed_step, (x, y, zn, gr, gi, dr, di, None, 3)),
        (lockstep._relaxed_step, (x, y, zn, gr, gi, dr, di, (ar, ai), 8)),
        (lockstep._half_square, (gr, gi)),
        (lockstep._armijo_trial, (CLUSTER8.coeffs, np.array(0.5), x, y, wx, wy, a, b)),
        (lockstep._eig2, (a, b, c)),
        (lockstep._reflected_solve, (gx, gy, a, b, c, *eig)),
        (lockstep._admits_bnqn, (a, b, c, *eig[:2], gn)),
        (lockstep._admits_nqn, (a, b, c, *eig[:2], gn)),
        *(
            (lockstep._shift_search, (gx, gy, gn, a, b, c, cfg, admits))
            for cfg in (SolverConfig(), tau_deltas)
            for admits in (lockstep._admits_bnqn, lockstep._admits_nqn)
        ),
    ]
    for f, args in calls:
        before = [_bits(v) for v in args]
        with np.errstate(all="ignore"):
            got = f(*args)
        assert [_bits(v) for v in args] == before, f.__name__
        got = list(_arrays(got if isinstance(got, tuple) else (got,)))
        for m, v in enumerate(got):
            assert not any(np.shares_memory(v, u) for u in _arrays(args)), f.__name__
            assert not any(np.shares_memory(v, u) for u in got[m + 1 :]), f.__name__
    # _armijo_step marks the lanes it fails in the mask it is given
    for g, cfg in ((CLUSTER8, SolverConfig()), (Z3M1, SolverConfig(gamma0=0.5))):
        failed = rng.random(n) < 0.1
        was = failed.copy()
        args = (x, y, gx, gy, gr, gi, wx, wy)
        before = [_bits(v) for v in args]
        with np.errstate(all="ignore"):
            got = lockstep._armijo_step(g, *args, failed, cfg)
        assert [_bits(v) for v in args] == before
        assert got[4] is failed and not (was & ~failed).any()
        for m, v in enumerate(got[:4]):
            assert not any(np.shares_memory(v, u) for u in (*args, failed, *got[m + 1 :]))
    # and iterate leaves its starts alone, for every method
    for method in Method:
        x0, y0 = x.copy(), y.copy()
        streams = TrialStreams(trial_states(5, n)) if method is RRN else None
        got = lockstep.iterate(PolyModulusObjective(Z3M1), method, SolverConfig(max_iter=20), x0, y0, streams=streams)
        assert x0.tobytes() == x.tobytes() and y0.tobytes() == y.tobytes(), method
        assert not any(np.shares_memory(v, u) for v in got for u in (x0, y0)), method


def _pole_lanes():
    """(degree, |z|, |g'|) lanes around the pole scale: where numpy's power
    and Python's ``**`` disagree, where they agree, and |g'| at the exact
    scale and one ulp either side; |z| = inf and NaN, an overflowing power,
    and degree 1 (exponent 0)."""
    rng = np.random.default_rng(47)
    lanes = []
    for degree in (1, 2, 3, 8, 40):
        zn = rng.uniform(0.0, 4.0, 4000)
        with np.errstate(over="ignore"):
            differ = np.power(1.0 + zn, degree - 1) != np.array([(1.0 + v) ** (degree - 1) for v in zn.tolist()])
        # with AVX-512, numpy's power is not the C library's pow and differs
        # by an ulp on a few per cent of these; elsewhere they may all agree
        picked = np.concatenate([zn[differ][:40], zn[~differ][:10], [0.0, 1e8, math.inf, math.nan]])
        for v in picked.tolist():
            scale = pole_scale(v, degree)
            sizes = [0.0, 1.0, 1e300, math.inf, math.nan]
            if math.isfinite(scale):
                sizes += [scale, math.nextafter(scale, 0.0), math.nextafter(scale, math.inf)]
            lanes += [(degree, v, s) for s in sizes]
    return lanes


def test_pole_screen_is_check_derivative():
    lanes = _pole_lanes()
    degrees = {d for d, _, _ in lanes}
    for degree in degrees:
        zn, size = (np.array(v) for v in zip(*[(v, s) for d, v, s in lanes if d == degree]))
        p = Polynomial([-1.0] + [0.0] * (degree - 1) + [1.0])
        want = []
        for v, s in zip(zn.tolist(), size.tolist()):
            try:
                _check_derivative(p, complex(v, 0.0), complex(s, 0.0))
                want.append(False)
            except DerivativeVanishes:
                want.append(True)
        zeros = np.zeros_like(size)
        with np.errstate(all="ignore"):
            _, _, failed = lockstep._relaxed_step(zeros, zeros, zn, zeros, zeros, size, zeros, None, degree)
        assert failed.tolist() == want, degree



# (polynomial, rho, config, trials or explicit starts); starts drawn from the
# trial generator as the rrn experiment draws them unless given
RRN_CASES = {
    # about a quarter of the lanes hit the cap, as in the benchmark
    "z3m1-cap34": (Z3M1, 0.7, SolverConfig(max_iter=34, seed=12345), 1000),
    "z3m1-max-iter-1": (Z3M1, 0.7, SolverConfig(max_iter=1, seed=3), 200),
    "z2m1-rho051": (Polynomial([-1, 0, 1]), 0.51, SolverConfig(max_iter=2000, seed=4), 300),
    "degree1-rho099": (Polynomial([2 - 1j, 1]), 0.99, SolverConfig(max_iter=50, seed=5), 100),
    "cluster8": (CLUSTER8, 0.7, SolverConfig(max_iter=300, seed=6), 300),
    # |g'| < 1e-14 (1+|z|)^2 near 0: DerivativeVanishes, once the gradient
    # test no longer stops the lane there first (at 0 itself grad F = 0)
    "derivative-vanishes": (
        Z3M1, 0.7, SolverConfig(grad_tol=0.0, max_iter=50, seed=8),
        [(1e-8, 0.0), (0.0, -1e-8), (0.0, 0.0), (0.5, 0.5)],
    ),
    "derivative-vanishes-z3m1e6": (
        Polynomial([-1e6, 0, 0, 1]), 0.7, SolverConfig(max_iter=50, seed=8), [(1e-8, 0.0), (0.5, 0.5)],
    ),
    # (1 + 1e8)**39 overflows: the pole scale is inf, and the run goes on
    "overflow-start": (
        Z40M1, 0.7, SolverConfig(max_iter=60, seed=9), [(1e8, 0.0), (0.0, -1e8), (3e7, 3e7), (2.0, 0.0)],
    ),
}


def _scalar_rrn(obj, cfg, t, z0=None):
    """Trial t as the scalar loop runs it: the trace, its start and root index."""
    rng = np.random.default_rng((cfg.seed, t))
    if z0 is None:
        z0 = rng.uniform(-3.0, 3.0, 2)
    trace = run(obj, z0, RRN, cfg, rng=rng)
    return trace, z0, trace.terminal.root_index if trace.terminal.is_root else -1


@pytest.mark.parametrize("case", RRN_CASES)
def test_relaxed_lockstep_matches_scalar_run(case):
    poly, rho, cfg, trials = RRN_CASES[case]
    starts = None if isinstance(trials, int) else trials
    n = trials if starts is None else len(starts)
    obj, cfg = PolyModulusObjective(poly), replace(cfg, rho=rho)
    scalar = [_scalar_rrn(obj, cfg, t, None if starts is None else starts[t]) for t in range(n)]
    streams = TrialStreams(trial_states(cfg.seed, n))
    if starts is None:
        streams.uniform(-3.0, 3.0, 2)  # the start comes first
    x0, y0 = np.array([z0 for _, z0, _ in scalar], dtype=float).T
    x, y, steps, codes = lockstep.iterate(obj, RRN, cfg, x0, y0, streams=streams)
    stopped = codes == lockstep.STOPPED
    labels, table = obj.classify_many(x[stopped], y[stopped], 1e-6, roots_only=True)
    roots = np.full(n, -1)
    roots[stopped] = [table[k].root_index if table[k].is_root else -1 for k in labels]
    for t, (trace, z0, root) in enumerate(scalar):
        fx, fy = trace.final_point
        assert same_bits(x[t], fx) and same_bits(y[t], fy), (t, z0)
        assert steps[t] == trace.iterations, (t, z0)
        assert (codes[t] == lockstep.FAILED) == (trace.failure is not None), (t, z0)
        capped = trace.failure is None and not trace.converged and trace.terminal != DIVERGED
        assert (codes[t] == lockstep.CAPPED) == (capped and trace.iterations == cfg.max_iter), (t, z0)
        assert roots[t] == root, (t, z0)
    outcomes = set(codes.tolist())
    if case in ("z3m1-cap34", "z3m1-max-iter-1", "degree1-rho099"):
        assert lockstep.CAPPED in outcomes
    if case.startswith("derivative-vanishes"):
        assert codes[0] == lockstep.FAILED
    if case == "overflow-start":
        assert codes[0] == lockstep.CAPPED and math.isnan(x[0])


@pytest.mark.parametrize("lanes", [_BLOCK_LANES, 10])
def test_rrn_experiment_matches_scalar_run_across_lane_blocks(monkeypatch, lanes):
    # one trial past full blocks: the last trial runs alone in the last block
    monkeypatch.setattr("bnqn.streams._BLOCK_LANES", lanes)
    trials = lanes + 1 if lanes > 10 else 3 * lanes + 1
    cfg = SolverConfig(max_iter=40, seed=31, rho=0.7)
    obj = PolyModulusObjective(Z3M1)
    labels, table = basins._trial_labels(obj, cfg, trials)
    scalar = [_scalar_rrn(obj, cfg, t) for t in range(trials)]
    assert [table[k] for k in labels] == [trace.terminal for trace, _, _ in scalar]
    got = [table[k].root_index if table[k].is_root else -1 for k in labels]
    want = [root for _, _, root in scalar]
    assert got == want
    assert want[-1] >= 0 and -1 in want  # the last trial reaches a root; some do not
    report = basins.run_rrn_experiment(Z3M1, 0.7, trials, 40, 31)
    assert report.per_root_counts == tuple(want.count(k) for k in range(3))


@functools.cache
def _cell_oracle(seed, grid, cfg):
    """Each cell's scalar trace, cell (i, j) on ``default_rng((seed, i, j))``."""
    obj = PolyModulusObjective(Z3M1)
    return {
        (i, j): run(obj, grid.point(i, j), RRN, cfg, rng=np.random.default_rng((seed, i, j)))
        for i in range(grid.nx)
        for j in range(grid.ny)
    }


@pytest.mark.parametrize("lanes", [_BLOCK_LANES, 100])
def test_relaxed_basin_cells_match_scalar_run(monkeypatch, lanes):
    # the grid is not square, so that swapped cell indices would show; with
    # 100-lane blocks the cells span nine blocks
    monkeypatch.setattr("bnqn.streams._BLOCK_LANES", lanes)
    grid, cfg = GridSpec(*SQUARE, 31, 27), SolverConfig(max_iter=300, seed=5, rho=0.7)
    obj = PolyModulusObjective(Z3M1)
    traces = _cell_oracle(5, grid, cfg)
    x0, y0 = np.array(list(map(grid.point, *zip(*traces)))).T
    streams = TrialStreams(cell_states(5, grid.nx, grid.ny))
    x, y, steps, codes = lockstep.iterate(obj, RRN, cfg, x0, y0, streams=streams)
    basin = render_basin(Z3M1, grid, RRN, cfg)
    for n, ((i, j), want) in enumerate(traces.items()):
        fx, fy = want.final_point
        assert same_bits(x[n], fx) and same_bits(y[n], fy), (i, j)
        assert steps[n] == want.iterations, (i, j)
        assert (codes[n] == lockstep.FAILED) == (want.failure is not None), (i, j)
        assert (basin.classes[i][j], basin.iterations[i, j]) == (want.terminal, want.iterations), (i, j)
    assert {cls.root_index for column in basin.classes for cls in column} >= {0, 1, 2}


def test_relaxed_iterate_keeps_every_lane(monkeypatch):
    # relaxed lanes never reach the per-lane loop, however few are left:
    # their streams have been drawn ahead in blocks
    monkeypatch.setattr(lockstep, "_TAIL_LANES", ALL_LANES)
    monkeypatch.setattr(lockstep, "_finish_lane", None)
    test_relaxed_lockstep_matches_scalar_run("z3m1-cap34")
