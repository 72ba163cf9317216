import math

import numpy as np
import pytest

from bnqn.complexpoly import Polynomial
from bnqn.errors import NoAdmissibleDelta
from bnqn.linalg import SymmetricMatrix
from bnqn.objective import PolyModulusObjective, BilinearTestObjective, UNDECIDED
from bnqn.solvers import (
    IterationTrace,
    Method,
    SolverConfig,
    _ARMIJO_FACTOR,
    _SHRINK_FACTOR,
    _armijo,
    _shift_scale,
    export_trace_csv,
    random_deltas,
    run,
    select_delta,
)
from support import (
    NaNObjective,
    Quadratic1D,
    ShiftedQuadratic,
    Sphere,
    check_bnqn_trace,
    check_btgd_trace,
    nearest_root_index,
    one_step,
    same_bits,
)

Z2M1 = PolyModulusObjective(Polynomial([-1, 0, 1]))
Z2 = PolyModulusObjective(Polynomial([0, 0, 1]))
Z3M1 = PolyModulusObjective(Polynomial([-1, 0, 0, 1]))
BNQN = Method.BNQN_NEW_VARIANT


def test_config_defaults_and_kappa():
    cfg = SolverConfig()
    assert cfg.deltas == (0.0, 1.0, -1.0)
    assert cfg.kappa == 0.5  # half the minimal gap between shifts
    assert cfg.tau == 1.0 and cfg.theta == 0.0 and cfg.gamma0 == 1.0
    assert _ARMIJO_FACTOR == 1.0 / 3.0 and _SHRINK_FACTOR == 1.0 / 3.0
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"deltas": (1.0, 1.0)},
        {"deltas": (1.0,)},
        {"tau": 0.0},
        {"theta": -1.0},
        {"gamma0": 0.0},
        {"gamma0": 1.5},
        {"max_iter": 0},
        {"grad_tol": -1.0},
        # read by rrn1d alone, but checked for every method
        {"seed": -1},
        # NaN fails every comparison, so a test of the form x < 0 lets it in
        {"theta": math.nan},
        {"grad_tol": math.nan},
        # a NaN or infinite shift makes kappa NaN or inf, and no shift is admitted
        {"deltas": (math.nan, 1.0)},
        {"deltas": (0.0, math.inf)},
        {"deltas": (-math.inf, 0.0, 1.0)},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("class_tol", [-1.0, math.nan])
def test_run_rejects_a_bad_class_tol(class_tol):
    with pytest.raises(ValueError, match="class_tol must be nonnegative"):
        run(Z2M1, (0.3, -1.7), BNQN, class_tol=class_tol)


def test_random_deltas():
    ds = random_deltas(4, 11)
    assert ds == random_deltas(4, 11)
    assert all(-1.0 <= d <= 1.0 for d in ds)
    assert min(abs(a - b) for i, a in enumerate(ds) for b in ds[i + 1:]) >= 0.1
    assert SolverConfig(deltas=ds).kappa >= 0.05


def test_select_delta_examples():
    cfg = SolverConfig(deltas=(0.0, 1.0, 2.0), tau=1.0)
    assert cfg.kappa == 0.5
    j, shifted = select_delta(SymmetricMatrix.from_diagonal([0.0, 2.0]), 1.0, cfg)
    assert j == 1
    assert np.allclose(shifted.full(), np.diag([1.0, 3.0]))

    j, shifted = select_delta(SymmetricMatrix.from_diagonal([-2.0, 2.0]), 1e-300, SolverConfig())
    assert j == 0

    cfg2 = SolverConfig(deltas=(1.0, 2.0, 3.0), tau=1.0)
    j, shifted = select_delta(SymmetricMatrix.from_diagonal([-1.0, -1.0]), 1.0, cfg2)
    assert j == 1
    assert np.allclose(shifted.full(), np.diag([1.0, 1.0]))


def test_select_delta_exhaustion():
    with pytest.raises(NoAdmissibleDelta):
        # both shifts leave an eigenvalue below the bar
        select_delta(
            SymmetricMatrix.from_diagonal([0.0, -1.0]),
            1.0,
            SolverConfig(deltas=(0.0, 1.0)),
        )


class NaNHessian3D(Sphere):
    """|z|^2 / 2 on R^3 with a finite gradient but a NaN in its Hessian."""

    def __init__(self):
        super().__init__(3)

    def hessian(self, point):
        return SymmetricMatrix.from_full([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])


def test_nan_hessian_admits_no_shift():
    hess = NaNHessian3D().hessian(None)
    with pytest.raises(NoAdmissibleDelta):
        select_delta(hess, 1.0, SolverConfig(deltas=(0.0, 1.0, -1.0, 2.0)))
    trace = run(NaNHessian3D(), (1.0, 0.0, 0.0), BNQN)
    assert trace.failure.startswith("NoAdmissibleDelta:")
    assert trace.iterations == 0 and not trace.converged
    assert trace.terminal == UNDECIDED


@pytest.mark.parametrize(
    "method, error", [(Method.NQN, "NoAdmissibleDelta"), (Method.NEWTON_OPT, "SingularMatrix")], ids=["nqn", "newton-opt"]
)
def test_nan_hessian_fails_the_full_step(method, error):
    # numpy.linalg.solve and the determinant test both pass NaN through, so
    # without a finiteness test these methods step on NaN up to the cap
    trace = run(NaNHessian3D(), (1.0, 0.0, 0.0), method)
    assert trace.failure.startswith(f"{error}:")
    assert trace.iterations == 0 and not trace.converged
    assert trace.terminal == UNDECIDED


def test_armijo_examples():
    f = Quadratic1D()
    z = np.array([1.0])
    grad = f.gradient(z)
    assert _armijo(f, z, np.array([1.0]), grad, SolverConfig())[1] == 1.0
    assert _armijo(f, z, np.array([3.0]), grad, SolverConfig())[1] == pytest.approx(1.0 / 3.0, abs=0)
    assert _armijo(f, z, np.array([1.0]), grad, SolverConfig(gamma0=1.0 / 3.0))[1] == 1.0 / 3.0


def test_bnqn_step_moves_right_on_inner_real_axis():
    # between the critical point and the root the step increases x
    cfg = SolverConfig()
    for x in (0.1, 0.4, 0.7, 0.95):
        z_next, gamma, _, grad_norm = one_step(Z2M1, (x, 0.0), BNQN, cfg)
        assert z_next[1] == 0.0
        assert z_next[0] > x
        assert grad_norm > 0 and gamma > 0


def test_bnqn_step_stays_on_bisector():
    cfg = SolverConfig()
    for y in (0.5, 1.0, -0.8):
        z_next = one_step(Z2M1, (0.0, y), BNQN, cfg)[0]
        assert z_next[0] == 0.0


def test_bnqn_step_double_root_example():
    cfg = SolverConfig(deltas=(0.0, 1.0, 2.0), tau=1.0, theta=0.0, gamma0=1.0)
    z_next, gamma, delta_index, _ = one_step(Z2, (1.0, 0.0), BNQN, cfg)
    assert Z2.value(z_next) < Z2.value((1.0, 0.0))
    assert 0.0 < z_next[0] < 1.0
    # worked by hand: H=diag(6,2), grad=(2,0), shift 0 admissible, w=(1/3,0)
    assert delta_index == 0 and gamma == 1.0
    assert z_next[0] == 1.0 - 1.0 / 3.0


def test_nqn_step_examples():
    # positive-definite quadratic: one step lands on the minimizer
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    target = np.array([0.7, -1.2])
    quad = ShiftedQuadratic(h, target)
    got = one_step(quad, (5.0, 5.0), Method.NQN)[0]
    assert np.allclose(got, target, atol=1e-12)

    got = one_step(BilinearTestObjective(), (1.0, 1.0), Method.NQN)[0]
    assert np.allclose(got, [0.0, 0.0], atol=1e-14)

    # above 2-D the shift test takes numpy.linalg.det
    h3 = np.array([[3.0, 0.5, -0.2], [0.5, 2.0, 0.4], [-0.2, 0.4, 1.5]])
    target3 = np.array([0.4, -1.1, 2.3])
    got = one_step(ShiftedQuadratic(h3, target3), (0.0, 0.0, 0.0), Method.NQN)[0]
    assert np.allclose(got, target3, atol=1e-12)

    got = one_step(Z2M1, (2.0, 0.0), Method.NQN)[0]
    assert np.allclose(got, [2.0 - 12.0 / 22.0, 0.0], atol=1e-14)


def test_newton_opt_step_examples():
    assert np.allclose(one_step(Sphere(2), (3.0, 4.0), Method.NEWTON_OPT)[0], [0.0, 0.0], atol=1e-15)
    assert np.allclose(one_step(BilinearTestObjective(), (1.0, 2.0), Method.NEWTON_OPT)[0], [0.0, 0.0], atol=1e-15)
    got = one_step(Z2M1, (2.0, 0.0), Method.NEWTON_OPT)[0]
    assert np.allclose(got, [2.0 - 12.0 / 22.0, 0.0], atol=1e-14)


def test_newton_opt_step_singular_hessian():
    flat = ShiftedQuadratic(np.diag([2.0, 0.0]), [0.0, 0.0])
    trace = run(flat, (1.0, 1.0), Method.NEWTON_OPT, SolverConfig(max_iter=1))
    assert trace.failure.startswith("SingularMatrix:")
    assert trace.iterations == 0


def test_btgd_step_examples():
    btgd = Method.BACKTRACKING_GD
    assert one_step(Quadratic1D(), [1.0], btgd)[0] == pytest.approx([0.0], abs=0)
    z_next = one_step(Z2M1, (0.0, 0.9), btgd)[0]
    assert z_next[0] == 0.0  # gradient has no x-component on the bisector
    z_next = one_step(Sphere(2), (3.0, 4.0), btgd, SolverConfig(theta=1.0))[0]
    assert np.linalg.norm(z_next) < 5.0


def test_theta_cap():
    # far from the root the direction is long; theta>0 caps it at 1/theta
    cfg = SolverConfig(theta=2.0)
    z = np.array([5.0, 0.0])
    z_next, gamma, _, _ = one_step(Z2M1, z, BNQN, cfg)
    w_hat = (z - z_next) / gamma
    assert np.linalg.norm(w_hat) <= 1.0 / cfg.theta + 1e-12
    # near the root the direction is short and passes through unchanged
    cfg_small = SolverConfig(theta=1e-3)
    z = np.array([1.2, 0.0])
    z1_capped = one_step(Z2M1, z, BNQN, cfg_small)[0]
    z1_plain = one_step(Z2M1, z, BNQN, SolverConfig(theta=0.0))[0]
    assert np.array_equal(z1_capped, z1_plain)


def test_run_double_root_converges_to_origin():
    cfg = SolverConfig(grad_tol=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z0 = rng.uniform(-10, 10, 2)
        trace = run(Z2, z0, Method.BNQN_NEW_VARIANT, cfg, class_tol=1e-5)
        assert trace.converged and trace.terminal.is_root
        assert np.linalg.norm(trace.final_point) <= 1e-5


def test_run_bisector_converges_to_critical_point():
    trace = run(Z2M1, (0.0, 0.8), Method.BNQN_NEW_VARIANT)
    assert trace.converged
    assert trace.terminal.kind == "CriticalNonRoot"
    assert np.linalg.norm(trace.final_point) <= 1e-6


def test_run_half_plane_converges_to_near_root():
    trace = run(Z2M1, (0.3, -1.7), Method.BNQN_NEW_VARIANT)
    assert trace.converged and trace.terminal.is_root
    assert trace.terminal.root_index == nearest_root_index(Z2M1.roots(), 1.0)
    assert abs(complex(*trace.final_point) - 1.0) <= 1e-8


def test_run_trace_shape_and_contracts():
    cfg = SolverConfig(max_iter=500)
    trace = run(Z2M1, (1.7, 0.9), Method.BNQN_NEW_VARIANT, cfg)
    assert len(trace.points) == trace.iterations + 1
    assert len(trace.step_sizes) == len(trace.delta_indices) == trace.iterations
    assert len(trace.grad_norms) == len(trace.points)
    assert all(g > 0 for g in trace.grad_norms[:-1])
    assert not check_bnqn_trace(Z2M1, trace, cfg)


def test_run_btgd_trace_contracts():
    cfg = SolverConfig(max_iter=2000)
    trace = run(Z3M1, (1.4, -0.9), Method.BACKTRACKING_GD, cfg)
    assert trace.converged and trace.terminal.is_root
    assert not check_btgd_trace(Z3M1, trace, cfg)


def test_run_nqn_on_quadratic_terminates_in_one_step():
    quad = ShiftedQuadratic(np.array([[3.0, 0.5], [0.5, 2.0]]), [1.0, -2.0])
    trace = run(quad, (4.0, 4.0), Method.NQN, SolverConfig(grad_tol=1e-12))
    assert trace.converged
    assert trace.iterations == 1
    assert np.allclose(trace.final_point, [1.0, -2.0], atol=1e-10)


def test_run_nqn_recorded_shifts_keep_determinant_nonzero():
    from bnqn.solvers import _determinant

    cfg = SolverConfig(max_iter=8, grad_tol=1e-12)
    trace = run(Z2M1, (2.0, 0.7), Method.NQN, cfg)
    for k in range(trace.iterations):
        grad, hess = Z2M1.gradient_and_hessian(trace.points[k])
        gn = float(np.hypot(grad[0], grad[1]))
        shift = cfg.deltas[trace.delta_indices[k]] * gn**cfg.tau
        assert _determinant(hess.shifted(shift)) != 0.0


def test_nqn_step_exhaustion():
    flat = ShiftedQuadratic(np.diag([0.0, -1.0]), [0.0, 0.0])
    # gradient norm 1, shifts {0, 1}: both leave a zero eigenvalue
    trace = run(flat, (0.0, 1.0), Method.NQN, SolverConfig(deltas=(0.0, 1.0), max_iter=1))
    assert trace.failure.startswith("NoAdmissibleDelta:")
    assert trace.iterations == 0


def test_run_newton_finds_nearest_critical_point():
    trace = run(Z2M1, (0.1, 0.1), Method.NEWTON_OPT, SolverConfig())
    # Newton homes in on the saddle from nearby, exactly the behavior BNQN avoids
    assert trace.converged
    assert trace.terminal.kind == "CriticalNonRoot"


def test_run_max_iter_cap_gives_undecided():
    trace = run(Z2M1, (0.3, -1.7), Method.BNQN_NEW_VARIANT, SolverConfig(max_iter=2))
    assert not trace.converged
    assert trace.terminal == UNDECIDED
    assert trace.iterations == 2


def test_shift_scale_is_inf_where_the_power_overflows():
    assert _shift_scale(2.0, 3.0) == 8.0
    assert _shift_scale(3e40, 8.0) == math.inf  # Python's ** raises here
    assert _shift_scale(math.inf, 0.5) == math.inf
    assert math.isnan(_shift_scale(math.nan, 8.0))
    # x**1.0 is x, so the kernel takes the default tau = 1 through it too
    for grad_norm in (0.0, 5e-324, 1.7e308, math.inf, math.nan):
        assert same_bits(_shift_scale(grad_norm, 1.0), grad_norm)


# BNQN's far-start crawl on z^3 - 1 from (r, 0.37 r), default config: at
# tau = 1 the step length stays near 1 far out, so the steps grow with r and
# r = 1e4 hits the cap; at tau = 0.5 they grow with log r
CRAWL = {
    1.0: {10.0: 25, 1e2: 132, 1e3: 1103, 1e4: None},
    0.5: {10.0: 16, 1e2: 26, 1e3: 36, 1e4: 47},
}


@pytest.mark.parametrize("tau", CRAWL)
def test_far_start_crawl(tau):
    for r, steps in CRAWL[tau].items():
        trace = run(Z3M1, (r, 0.37 * r), BNQN, SolverConfig(tau=tau))
        assert trace.failure is None
        if steps is None:
            assert (trace.iterations, trace.terminal) == (10_000, UNDECIDED), r
        else:
            assert (trace.iterations, trace.terminal.kind, trace.terminal.root_index) == (steps, "Root", 0), r


def test_run_captures_step_failures():
    trace = run(NaNObjective(), (0.0, 0.0), Method.BNQN_NEW_VARIANT, SolverConfig(max_iter=5))
    assert trace.failure is not None
    assert "LineSearchUnderflow" in trace.failure
    assert not trace.converged
    assert trace.terminal == UNDECIDED


def test_run_mirror_traces_are_exact():
    cfg = SolverConfig(max_iter=500)
    rng = np.random.default_rng(13)
    for _ in range(40):
        x, y = rng.uniform(0.05, 2.0, 2)
        up = run(Z2M1, (x, y), Method.BNQN_NEW_VARIANT, cfg)
        down = run(Z2M1, (x, -y), Method.BNQN_NEW_VARIANT, cfg)
        assert len(up.points) == len(down.points)
        for a, b in zip(up.points, down.points):
            assert a[0] == b[0] and a[1] == -b[1]
        assert up.step_sizes == down.step_sizes
        assert up.delta_indices == down.delta_indices


def test_run_newton_1d():
    trace = run(Z3M1, (2.0, 0.0), Method.NEWTON_1D, SolverConfig())
    assert trace.converged and trace.terminal.is_root
    assert trace.terminal.root_index == nearest_root_index(Z3M1.roots(), 1.0)
    # classification for the 1-D methods never reports critical points
    origin = run(Z2M1, (0.0, 0.0), Method.NEWTON_1D, SolverConfig())
    assert origin.terminal == UNDECIDED


def test_run_1d_requires_polynomial_objective():
    with pytest.raises(TypeError):
        run(Sphere(2), (1.0, 1.0), Method.NEWTON_1D, SolverConfig())


def test_run_random_relaxed_1d_deterministic_given_rng():
    cfg = SolverConfig(max_iter=2000, seed=9)
    t1 = run(Z3M1, (1.5, 1.5), Method.RANDOM_RELAXED_NEWTON_1D, cfg)
    t2 = run(Z3M1, (1.5, 1.5), Method.RANDOM_RELAXED_NEWTON_1D, cfg)
    assert t1.terminal == t2.terminal
    assert [tuple(p) for p in t1.points] == [tuple(p) for p in t2.points]
    assert t1.converged and t1.terminal.is_root


def test_run_random_relaxed_1d_default_seed_is_zero():
    # the default config seeds run's generator with 0, as render_basin seeds
    # its cells; a seed of None drew fresh entropy on every call
    runs = [run(Z3M1, (1.5, 1.5), Method.RANDOM_RELAXED_NEWTON_1D) for _ in range(2)]
    seeded = run(Z3M1, (1.5, 1.5), Method.RANDOM_RELAXED_NEWTON_1D, rng=np.random.default_rng(0))
    for trace in runs:
        assert [tuple(p) for p in trace.points] == [tuple(p) for p in seeded.points]


def test_run_method_accepts_string_values():
    trace = run(Z2M1, (0.3, -1.7), "bnqn")
    assert trace.terminal.is_root


def test_run_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        run(Z2M1, (float("nan"), 0.0), Method.BNQN_NEW_VARIANT)


def test_export_trace_csv(tmp_path):
    trace = run(Z2M1, (0.3, -1.7), Method.BNQN_NEW_VARIANT)
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x,y,gamma,delta_index,grad_norm"
    assert len(lines) == len(trace.points) + 2  # header + rows + terminal comment
    assert lines[-1].startswith("# terminal=Root(")
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.3 and float(first[2]) == -1.7
    last_row = lines[-2].split(",")
    assert last_row[3] == "" and last_row[4] == ""  # no step from the terminal point


def test_trace_dataclass_helpers():
    trace = IterationTrace(
        points=[np.array([1.0, 2.0]), np.array([0.0, 0.0])],
        step_sizes=[1.0],
        delta_indices=[0],
        grad_norms=[1.0, 0.0],
        terminal=UNDECIDED,
        converged=True,
    )
    assert trace.iterations == 1
    assert np.array_equal(trace.final_point, [0.0, 0.0])
