"""Acceptance suite: one test per criterion, at the stated tolerances.

The heavy degree-2 sweeps are shared session fixtures so the per-step
contract checks (criterion 9) and half-plane trapping (criterion 10) reuse
the traces produced for the basin criteria.
"""

import math
from collections import Counter

import numpy as np
import pytest

from bnqn.basins import GridSpec, render_basin, run_rrn_experiment
from bnqn.complexpoly import Polynomial, bisector_newton_map, schroder_conjugacy_defect
from bnqn.invariance import (
    ConjugationSpec,
    check_invariance,
    newton_conjugacy_check,
    random_orthogonal,
    shear_counterexample,
)
from bnqn.linalg import SymmetricMatrix, eigh
from bnqn.objective import PolyModulusObjective
from bnqn.solvers import Method, SolverConfig, run
from support import (
    check_bnqn_trace,
    check_btgd_trace,
    checked_sweep,
    fd_gradient,
    fd_hessian,
    nearest_root_index,
    rel_err,
)

Z2M1 = Polynomial([-1, 0, 1])
Z2 = Polynomial([0, 0, 1])
Z3M1 = Polynomial([-1, 0, 0, 1])

GRID_201 = GridSpec(-2.0, 2.0, -2.0, 2.0, 201, 201)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def degree2_sweeps():
    """Criterion-1 sweeps for theta in {0, 1}, with all per-step checks on."""
    out = {}
    for theta in (0.0, 1.0):
        cfg = SolverConfig(theta=theta, grad_tol=1e-10, max_iter=500)
        out[theta] = checked_sweep(
            Z2M1, GRID_201, cfg, class_tol=1e-6, check_half_plane=True
        )
    return out


@pytest.fixture(scope="session")
def general_position_sweeps():
    """Criterion-3 sweeps: 20 random monic-scaled quadratics c(z-a)(z-b)."""
    rng = np.random.default_rng(1234)
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 51, 51)
    cfg = SolverConfig(grad_tol=1e-10, max_iter=500)
    sweeps = []
    for _ in range(20):
        while True:
            a = complex(*rng.uniform(-1.5, 1.5, 2))
            b = complex(*rng.uniform(-1.5, 1.5, 2))
            if abs(a - b) >= 0.3:
                break
        c = complex(*rng.uniform(-2.0, 2.0, 2))
        if abs(c) < 0.2:
            c = 1.0 + 0j
        poly = Polynomial.from_roots([a, b], lead=c)
        classes, converged, iterations, violations = checked_sweep(
            poly, grid, cfg, class_tol=1e-6
        )
        sweeps.append((a, b, poly, grid, classes, converged, violations))
    return sweeps


def test_criterion_01_degree2_basins(degree2_sweeps):
    obj = PolyModulusObjective(Z2M1)
    plus = nearest_root_index(obj.roots(), 1.0)
    minus = nearest_root_index(obj.roots(), -1.0)
    for theta, (classes, converged, iterations, violations) in degree2_sweeps.items():
        wrong = 0
        not_converged = 0
        too_many_iters = 0
        for i in range(GRID_201.nx):
            x = GRID_201.x_coord(i)
            for j in range(GRID_201.ny):
                kind, root_index = classes[i][j]
                if x > 0.0:
                    ok = kind == "Root" and root_index == plus
                elif x < 0.0:
                    ok = kind == "Root" and root_index == minus
                else:
                    ok = kind == "CriticalNonRoot"
                wrong += not ok
                not_converged += not converged[i][j]
                too_many_iters += iterations[i][j] > 500
        report(
            1,
            wrong == 0 and not_converged == 0 and too_many_iters == 0,
            f"theta={theta}: mismatches={wrong}, unconverged={not_converged} of {201 * 201}",
        )


@pytest.fixture(scope="session")
def double_root_runs():
    obj = PolyModulusObjective(Z2)
    # |grad F| = 2|z|^3 for g=z^2, so landing inside 1e-5 needs grad_tol below
    # 2e-15; classification radius matches the criterion's own bound
    cfg = SolverConfig(grad_tol=1e-15)
    rng = np.random.default_rng(42)
    bad = 0
    violations = Counter()
    for _ in range(1000):
        z0 = rng.uniform(-10.0, 10.0, 2)
        trace = run(obj, z0, Method.BNQN_NEW_VARIANT, cfg, class_tol=1e-5)
        violations.update(check_bnqn_trace(obj, trace, cfg))
        final = float(np.linalg.norm(trace.final_point))
        if not (trace.converged and trace.terminal.is_root and final <= 1e-5):
            bad += 1
    return bad, violations


def test_criterion_02_double_root(double_root_runs):
    bad, _ = double_root_runs
    report(2, bad == 0, f"{1000 - bad}/1000 runs ended at the double root within 1e-5")


def test_criterion_03_general_position(general_position_sweeps):
    total_off_bisector = 0
    mismatches = 0
    for a, b, poly, grid, classes, converged, violations in general_position_sweeps:
        obj = PolyModulusObjective(poly)
        roots = obj.roots()
        index_a = nearest_root_index(roots, a)
        midpoint = 0.5 * (a + b)
        axis = a - b
        for i in range(grid.nx):
            for j in range(grid.ny):
                x, y = grid.point(i, j)
                p = complex(x, y) - midpoint
                side = p.real * axis.real + p.imag * axis.imag
                if abs(side) / abs(axis) <= 1e-12:
                    continue  # on the bisector: outside this criterion
                total_off_bisector += 1
                want = index_a if side > 0 else 1 - index_a
                kind, root_index = classes[i][j]
                if not (kind == "Root" and root_index == want):
                    mismatches += 1
    report(
        3,
        mismatches == 0,
        f"{total_off_bisector - mismatches}/{total_off_bisector} off-bisector points match the half-plane reference",
    )


def test_criterion_04_conjugation_invariance():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(50):
        c = float(rng.uniform(0.25, 4.0))
        tau = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        rotation = random_orthogonal(2, rng)
        z0 = rng.uniform(-2.0, 2.0, 2)
        poly = Z2M1 if k % 2 == 0 else Z3M1
        obj = PolyModulusObjective(poly)
        deviation = check_invariance(
            obj, ConjugationSpec(c, rotation), z0, SolverConfig(tau=tau), 100
        )
        worst = max(worst, deviation)
    report(4, worst <= 1e-7, f"max deviation {worst:.3e} over 50 tuples (tolerance 1e-7)")


def test_criterion_05_shear_counterexample():
    at_ref = shear_counterexample((1.0, 2.0)).parallelism_defect
    rng = np.random.default_rng(5)
    hits = sum(
        1
        for _ in range(100)
        if shear_counterexample(rng.uniform(0.1, 2.0, 2)).parallelism_defect > 1e-3
    )
    report(
        5,
        at_ref > 1e-3 and hits >= 99,
        f"defect at (1,2) = {at_ref:.3f}; {hits}/100 random points exceed 1e-3",
    )


def test_criterion_06_newton_conjugacy():
    obj = PolyModulusObjective(Z2M1)
    rng = np.random.default_rng(99)
    worst = 0.0
    done = 0
    while done < 20:
        a = rng.uniform(-1.0, 1.0, (2, 2))
        if np.linalg.cond(a) > 10.0:
            continue
        z0 = rng.uniform(-2.0, 2.0, 2)
        if np.linalg.norm(z0) < 0.3:
            continue
        done += 1
        worst = max(worst, newton_conjugacy_check(obj, a, z0, 20))
    report(6, worst <= 1e-9, f"max deviation {worst:.3e} over 20 invertible maps (tol 1e-9)")


def test_criterion_07_schroder_and_bisector():
    rng = np.random.default_rng(11)
    worst_defect = 0.0
    for _ in range(1000):
        r = math.sqrt(rng.uniform(0.01, 100.0))
        th = rng.uniform(0.0, 2.0 * math.pi)
        worst_defect = max(
            worst_defect,
            schroder_conjugacy_defect(complex(r * math.cos(th), r * math.sin(th))),
        )

    worst_cot = 0.0
    count = 0
    while count < 1000:
        t = float(rng.uniform(0.0, 1.0))
        if min(abs(t), abs(t - 0.5), abs(t - 1.0)) < 0.01:
            continue
        count += 1
        got = bisector_newton_map(1.0 / math.tan(math.pi * t))
        want = 1.0 / math.tan(math.pi * ((2.0 * t) % 1.0))
        worst_cot = max(worst_cot, abs(got - want))

    y = 1.0 / math.sqrt(3.0)
    period2 = max(
        abs(bisector_newton_map(y) + y), abs(bisector_newton_map(-y) - y)
    )
    report(
        7,
        worst_defect <= 1e-10 and worst_cot <= 1e-9 and period2 <= 1e-12,
        f"conjugacy defect {worst_defect:.2e}, doubling error {worst_cot:.2e}, period-2 error {period2:.2e}",
    )


def test_criterion_08_random_relaxed_newton():
    result = run_rrn_experiment(Z3M1, 0.7, 500, 2000, 7)
    occupied = all(count > 0 for count in result.per_root_counts)
    report(
        8,
        result.converged_fraction >= 0.99 and occupied,
        f"converged fraction {result.converged_fraction:.4f}, per-root counts {result.per_root_counts}",
    )


def test_criterion_09_contract_suites(degree2_sweeps, general_position_sweeps, double_root_runs):
    # Armijo acceptance, 3*gamma maximality, shift admissibility, monotone
    # descent: accumulated over every recorded step of criteria 1, 2, and 3
    violations = Counter()
    for _, (_, _, _, v) in degree2_sweeps.items():
        violations.update(v)
    for *_, v in general_position_sweeps:
        violations.update(v)
    violations.update(double_root_runs[1])

    # backtracking gradient descent honors the same Armijo and descent
    # contracts along its traces
    rng_btgd = np.random.default_rng(555)
    btgd_cfg = SolverConfig(max_iter=5000)
    for poly in (Z2M1, Z3M1):
        obj = PolyModulusObjective(poly)
        for _ in range(25):
            trace = run(obj, rng_btgd.uniform(-2, 2, 2), Method.BACKTRACKING_GD, btgd_cfg)
            violations.update(check_btgd_trace(obj, trace, btgd_cfg))
    step_violations = {k: n for k, n in violations.items() if k != "half_plane" and n}

    # analytic derivatives vs central differences, degrees 2-4
    rng = np.random.default_rng(314)
    fd_failures = 0
    checked = 0
    while checked < 100:
        deg = int(rng.integers(2, 5))
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(deg + 1)]
        coeffs[-1] += 1.0
        obj = PolyModulusObjective(Polynomial(coeffs))
        pt = rng.uniform(-2.0, 2.0, 2)
        grad = obj.gradient(pt)
        if np.linalg.norm(grad) < 0.1:
            continue
        checked += 1
        if rel_err(fd_gradient(obj, pt), grad) > 1e-5:
            fd_failures += 1
        if rel_err(fd_hessian(obj, pt), obj.hessian(pt).full()) > 1e-4:
            fd_failures += 1

    # eigendecomposition: reconstruction plus the 2x2 quadratic-formula oracle
    eig_failures = 0
    for _ in range(1000):
        m = int(rng.choice([2, 3, 5]))
        raw = rng.uniform(-3.0, 3.0, (m, m))
        mat = SymmetricMatrix.from_full(raw + raw.T)
        dec = eigh(mat)
        full = mat.full()
        if np.linalg.norm(dec.reconstruct() - full) > 1e-12 * (1.0 + np.linalg.norm(full)):
            eig_failures += 1
        if m == 2:
            a, b, c2 = mat.upper
            disc = math.sqrt((a - c2) ** 2 + 4.0 * b * b)
            oracle = ((a + c2 - disc) / 2.0, (a + c2 + disc) / 2.0)
            scale = 1.0 + max(abs(v) for v in mat.upper)
            if max(abs(x - y) for x, y in zip(dec.eigenvalues, oracle)) > 1e-12 * scale:
                eig_failures += 1

    report(
        9,
        not step_violations and fd_failures == 0 and eig_failures == 0,
        f"step-contract violations {dict(step_violations) or 0}, "
        f"finite-difference failures {fd_failures}, eigen failures {eig_failures}",
    )


def test_criterion_10_half_plane_trapping(degree2_sweeps):
    escapes = sum(v.get("half_plane", 0) for _, _, _, v in degree2_sweeps.values())
    report(
        10,
        escapes == 0,
        f"{escapes} traces crossed out of their starting half plane on the criterion-1 grid",
    )


def test_criterion_11_degree3_basins():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 200, 200)
    cfg = SolverConfig()
    failures = []
    for method in (Method.NEWTON_1D, Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD):
        basin = render_basin(Z3M1, grid, method, cfg, class_tol=1e-5)
        roots_seen = {c.root_index for col in basin.classes for c in col if c.is_root}
        counts = basin.class_counts()
        if roots_seen != {0, 1, 2}:
            failures.append(f"{method.value}: basins {roots_seen}")
        if method is not Method.NEWTON_1D:
            bad = sum(counts.get(k, 0) for k in ("Diverged", "Undecided"))
            if bad:
                failures.append(f"{method.value}: {bad} diverged/undecided cells")
    report(11, not failures, "; ".join(failures) if failures else
           "three basins for all methods; no diverged/undecided cells for BNQN and BTGD")
