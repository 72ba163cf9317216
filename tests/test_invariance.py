import math

import numpy as np
import pytest

from bnqn.complexpoly import Polynomial
from bnqn.errors import BnqnError, SingularMatrix
from bnqn.invariance import (
    ConjugatedObjective,
    ConjugationSpec,
    check_invariance,
    newton_conjugacy_check,
    random_orthogonal,
    rotation,
    shear_counterexample,
    transform_config,
)
from bnqn.objective import BilinearTestObjective, PolyModulusObjective
from bnqn.solvers import Method, SolverConfig, run
from support import NaNObjective, fd_gradient, fd_hessian, rel_err

Z2M1 = PolyModulusObjective(Polynomial([-1, 0, 1]))
Z3M1 = PolyModulusObjective(Polynomial([-1, 0, 0, 1]))


def test_transform_config_examples():
    cfg = SolverConfig(deltas=(0.0, 1.0, 2.0), tau=1.0, theta=0.5)
    out = transform_config(cfg, 2.0)
    assert out.deltas == (0.0, 2.0, 4.0)
    assert out.theta == 1.0
    assert out.kappa == 2.0 ** (2.0 - 1.0) * cfg.kappa

    cfg2 = SolverConfig(deltas=(0.0, 1.0, -1.0), tau=2.0)
    assert transform_config(cfg2, 3.7).deltas == cfg2.deltas  # c^0 = 1

    cfg3 = SolverConfig(theta=0.25)
    out3 = transform_config(cfg3, 1.0)
    assert out3.deltas == cfg3.deltas and out3.theta == cfg3.theta

    with pytest.raises(ValueError):
        transform_config(cfg, -2.0)


@pytest.mark.parametrize(
    "c, cfg",
    [
        # c**(2 - tau) underflows to 0.0, and every shift is 0
        (1e-200, SolverConfig(tau=0.1)),
        # c**(2 - tau) overflows
        (1e200, SolverConfig(tau=0.1)),
        # c**(2 - tau) is finite, a shift times it is not
        (1e10, SolverConfig(deltas=(0.0, 1e300, -1.0))),
        # 1e-323 and 1.2e-323 round to the same subnormal
        (1e-323, SolverConfig(deltas=(1.0, 1.2))),
    ],
    ids=["underflow", "overflow", "shift-overflows", "shifts-collide"],
)
def test_transform_config_names_c_and_tau_where_the_shifts_break(c, cfg):
    with pytest.raises(ValueError) as info:
        transform_config(cfg, c)
    assert str(info.value) == (
        f"the shifts times c**(2 - tau) are not finite and pairwise distinct for c = {c}, tau = {cfg.tau}"
    )


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
def test_scale_must_be_positive_and_finite(c):
    for build in (lambda: ConjugationSpec(c, rotation(0.1)), lambda: transform_config(SolverConfig(), c)):
        with pytest.raises(ValueError, match=f"c must be positive and finite, got {c}"):
            build()


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_rotation_angle_must_be_finite(angle):
    with pytest.raises(ValueError, match=f"rotation angle must be finite, got {angle}"):
        rotation(angle)


def test_check_invariance_needs_a_step():
    with pytest.raises(ValueError, match="step count"):
        check_invariance(Z2M1, ConjugationSpec(2.0, rotation(0.7)), (0.4, 1.1), SolverConfig(), 0)


def test_conjugation_spec_validation():
    spec = ConjugationSpec(2.0, rotation(0.7))
    assert np.allclose(spec.matrix @ spec.inverse, np.eye(2), atol=1e-14)
    with pytest.raises(ValueError):
        ConjugationSpec(0.0, rotation(0.1))
    with pytest.raises(ValueError):
        ConjugationSpec(1.0, [[1.0, 1.0], [0.0, 1.0]])  # shear is not orthogonal


def test_rotation_matrix():
    r = rotation(math.pi / 2.0)
    assert np.allclose(r, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(r @ r.T, np.eye(2), atol=1e-15)


def test_random_orthogonal():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5):
        q = random_orthogonal(dim, rng)
        assert np.linalg.norm(q @ q.T - np.eye(dim)) <= 1e-12


def test_conjugated_objective_chain_rule():
    rng = np.random.default_rng(7)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])  # arbitrary invertible works here
    conj = ConjugatedObjective(Z2M1, a)
    for _ in range(50):
        pt = rng.uniform(-2, 2, 2)
        mapped = a @ pt
        assert conj.value(pt) == Z2M1.value(mapped)
        assert np.allclose(conj.gradient(pt), a.T @ Z2M1.gradient(mapped), atol=1e-13)
        want_h = a.T @ Z2M1.hessian(mapped).full() @ a
        assert np.allclose(conj.hessian(pt).full(), want_h, atol=1e-12)
        grad, hess = conj.gradient_and_hessian(pt)
        assert np.array_equal(grad, conj.gradient(pt))
        assert hess == conj.hessian(pt)


def test_conjugated_objective_finite_differences():
    conj = ConjugatedObjective(Z3M1, 1.5 * rotation(0.4))
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 25:
        pt = rng.uniform(-1.5, 1.5, 2)
        if np.linalg.norm(conj.gradient(pt)) < 0.1:
            continue
        checked += 1
        assert rel_err(fd_gradient(conj, pt), conj.gradient(pt)) <= 1e-5
        assert rel_err(fd_hessian(conj, pt), conj.hessian(pt).full()) <= 1e-4


def test_conjugated_objective_shape_mismatch():
    with pytest.raises(ValueError):
        ConjugatedObjective(Z2M1, np.eye(3))


def test_check_invariance_rotation_case():
    spec = ConjugationSpec(1.0, rotation(math.pi / 2.0))
    dev = check_invariance(Z2M1, spec, (0.4, 1.1), SolverConfig(), 100)
    assert dev <= 1e-8


def test_check_invariance_scaling_case():
    spec = ConjugationSpec(2.0, np.eye(2))
    dev = check_invariance(Z2M1, spec, (0.4, 1.1), SolverConfig(tau=1.0), 100)
    assert dev <= 1e-8


def test_check_invariance_identity_is_exact():
    spec = ConjugationSpec(1.0, np.eye(2))
    assert check_invariance(Z2M1, spec, (0.4, 1.1), SolverConfig(), 100) == 0.0


def test_check_invariance_raises_on_a_failed_run():
    # NaNObjective's F is NaN, so no Armijo trial passes and gamma underflows
    spec = ConjugationSpec(2.0, rotation(0.3))
    with pytest.raises(BnqnError, match="^run failed during invariance check: LineSearchUnderflow: "):
        check_invariance(NaNObjective(), spec, (0.0, 0.0), SolverConfig(), 5)


def test_check_invariance_random_tuples():
    # rotations and scalings with rescaled parameters track exactly,
    # including with the direction cap active
    rng = np.random.default_rng(17)
    worst = 0.0
    for k in range(12):
        c = float(rng.uniform(0.25, 4.0))
        tau = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        theta = float(rng.choice([0.0, 1.0]))
        obj = Z2M1 if k % 2 == 0 else Z3M1
        spec = ConjugationSpec(c, random_orthogonal(2, rng))
        z0 = rng.uniform(-2.0, 2.0, 2)
        dev = check_invariance(obj, spec, z0, SolverConfig(tau=tau, theta=theta), 100)
        worst = max(worst, dev)
    assert worst <= 1e-7


@pytest.mark.parametrize("c", [1e-3, 2.0, 1e3, 1e6])
def test_conjugated_run_stops_with_the_base_run(c):
    # |grad G| = c |grad F| for G(z) = F(cRz), so transform_config scales
    # grad_tol by c, and the two runs stop at the same step
    rng = np.random.default_rng(23)
    for obj in (Z2M1, Z3M1):
        for theta in (0.0, 1.0):
            for tau in (0.5, 1.0):
                cfg = SolverConfig(tau=tau, theta=theta)
                mapped_cfg = transform_config(cfg, c)
                assert mapped_cfg.grad_tol == cfg.grad_tol * c
                spec = ConjugationSpec(c, random_orthogonal(2, rng))
                z0 = rng.uniform(-2.0, 2.0, 2)
                base = run(obj, z0, Method.BNQN_NEW_VARIANT, cfg)
                conjugated = ConjugatedObjective(obj, spec.matrix)
                mapped = run(conjugated, spec.inverse @ z0, Method.BNQN_NEW_VARIANT, mapped_cfg)
                assert mapped.iterations == base.iterations, (theta, tau, z0)


def test_newton_conjugacy_examples():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert newton_conjugacy_check(BilinearTestObjective(), shear, (1.0, 2.0), 1) <= 1e-12
    assert newton_conjugacy_check(Z2M1, np.eye(2), (1.3, 0.7), 20) == 0.0
    assert newton_conjugacy_check(Z2M1, np.diag([2.0, 0.5]), (1.3, 0.7), 20) <= 1e-9


def test_newton_conjugacy_random_invertible():
    # Newton tolerates arbitrary invertible maps, not just scaled rotations
    rng = np.random.default_rng(23)
    done = 0
    while done < 20:
        a = rng.uniform(-1, 1, (2, 2))
        if np.linalg.cond(a) > 10.0:
            continue
        z0 = rng.uniform(-2, 2, 2)
        if np.linalg.norm(z0) < 0.3:
            continue
        done += 1
        assert newton_conjugacy_check(Z2M1, a, z0, 20) <= 1e-9


def test_newton_conjugacy_singular_hessian_propagates():
    class Flat(BilinearTestObjective):
        def hessian(self, point):
            from bnqn.linalg import SymmetricMatrix

            return SymmetricMatrix.from_diagonal([1.0, 0.0])

    with pytest.raises(SingularMatrix):
        newton_conjugacy_check(Flat(), np.eye(2), (1.0, 1.0), 3)


def test_shear_counterexample_at_reference_point():
    report = shear_counterexample((1.0, 2.0))
    # direction of the unsheared problem at the mapped point, pulled back
    assert np.allclose(report.mapped_w, [-1.0, 3.0], atol=1e-14)
    # independent recomputation of the sheared direction from numpy's eigensystem
    h = np.array([[0.0, 1.0], [1.0, 2.0]])
    g = np.array([2.0, 5.0])  # gradient of (x+y)y at (1, 2)
    vals, vecs = np.linalg.eigh(h)
    want = vecs @ ((vecs.T @ g) / np.abs(vals))
    assert np.allclose(report.w_prime, want, atol=1e-12)
    assert report.parallelism_defect > 1e-2


def test_shear_counterexample_generic_points():
    rng = np.random.default_rng(5)
    hits = sum(
        1
        for _ in range(100)
        if shear_counterexample(rng.uniform(0.1, 2.0, 2)).parallelism_defect > 1e-3
    )
    assert hits >= 99


def test_shear_report_lines():
    lines = shear_counterexample((1.0, 2.0)).lines()
    assert any(line.startswith("parallelism_defect=") for line in lines)
    assert all("=" in line for line in lines)
