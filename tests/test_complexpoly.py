import math
from fractions import Fraction

import numpy as np
import pytest

from bnqn import complexpoly
from bnqn.complexpoly import (
    _POLE_TOL,
    Polynomial,
    all_roots,
    bisector_newton_map,
    format_complex,
    newton_map_1d,
    parse_polynomial,
    pole_scale,
    polynomial_to_string,
    relaxed_newton_map,
    schroder_conjugacy_defect,
)
from bnqn.errors import DerivativeVanishes, NoConvergence, PoleHit
from bnqn.solvers import SolverConfig
from bnqn.streams import sample_relaxed_alpha, seed_key
from support import same_bits
from test_lockstep import CLUSTER8, CLUSTER8_ROOTS

Z2M1 = Polynomial([-1, 0, 1])  # z^2 - 1
Z2 = Polynomial([0, 0, 1])
Z3M1 = Polynomial([-1, 0, 0, 1])


def test_eval_examples():
    assert Z2M1(2) == 3
    assert Z2(1j) == -1
    # (z-1)(z-2)(z-3) expands to -6 + 11z - 6z^2 + z^3 by hand
    cubic = Polynomial([-6, 11, -6, 1])
    assert cubic(0) == -6
    assert Polynomial.from_roots([1, 2, 3]) == cubic


def test_eval_degree0_exact():
    p = Polynomial([2.5 + 0.5j])
    assert p(123.456) == 2.5 + 0.5j


def test_trailing_zeros_trimmed_and_degree():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert Polynomial([0]).degree == 0
    assert Polynomial([0]).is_zero


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        Polynomial([1, float("nan")])
    with pytest.raises(ValueError):
        Polynomial([complex(float("inf"), 0)])


def test_coefficients_whose_modulus_overflows_are_rejected():
    # both parts are finite, but |c| is not, and abs(c) would raise
    # OverflowError in cauchy_root_bound and all_roots
    big = complex(1.7e308, 1.7e308)
    for coeffs in ([big, 0, 1], [1, big], [1, 0, -big]):
        with pytest.raises(ValueError, match="modulus .* overflows"):
            Polynomial(coeffs)
    # the largest moduli that stay finite are kept
    edge = Polynomial([complex(1.2e308, 1.2e308), 0, 1])
    assert edge.cauchy_root_bound() == 1.0 + abs(edge.coeffs[0])
    assert Polynomial([math.ldexp(1.0, 1023), 1]).degree == 1


def test_derivative_examples():
    assert Z2M1.derivative() == Polynomial([0, 2])
    assert Polynomial([5]).derivative() == Polynomial([0])
    assert Z3M1.derivative() == Polynomial([0, 0, 3])


def test_newton_map_examples():
    assert newton_map_1d(Z2, 1) == 0.5  # map of z^2 halves the point
    assert newton_map_1d(Z2M1, 2) == 1.25  # 2 - 3/4
    with pytest.raises(DerivativeVanishes):
        newton_map_1d(Z2M1, 0)


def test_relaxed_newton_examples():
    assert relaxed_newton_map(Z2M1, 2, 1.0) == newton_map_1d(Z2M1, 2)
    assert relaxed_newton_map(Z2M1, 2, 0.0) == 2
    assert relaxed_newton_map(Z2, 1, 0.5) == 0.75  # 1 - 0.5 * (1/2)
    with pytest.raises(DerivativeVanishes):
        relaxed_newton_map(Z2M1, 0, 0.5)


def test_pole_scale_is_inf_where_the_power_overflows():
    assert pole_scale(2.0, 3) == 1e-14 * 9.0
    assert pole_scale(2.0, 1) == pole_scale(math.inf, 1) == 1e-14  # x**0 is 1
    assert pole_scale(1e8, 40) == math.inf  # (1 + 1e8)**39 overflows
    assert pole_scale(math.inf, 3) == math.inf
    assert math.isnan(pole_scale(math.nan, 3))
    rng = np.random.default_rng(7)
    for abs_z, degree in zip(rng.uniform(0.0, 50.0, 200).tolist(), rng.integers(1, 60, 200).tolist()):
        scale = pole_scale(abs_z, degree)
        # the lockstep kernel passes one |z| per lane and must get these bits
        with np.errstate(over="ignore"):
            lanes = np.broadcast_to(pole_scale(np.array([abs_z]), degree), 1)
        assert same_bits(lanes[0], scale)
        # repeated squaring rounds once per product, not once as ** does
        exact = Fraction(_POLE_TOL) * Fraction(1.0 + abs_z) ** (degree - 1)
        assert abs(Fraction(scale) - exact) <= degree * Fraction(1, 2**53) * exact


def test_newton_steps_where_the_pole_scale_overflows():
    z40m1 = Polynomial([-1] + [0] * 39 + [1])
    # g'(1e8) and the scale are both inf: not a pole, and the step gives NaN
    assert math.isnan(newton_map_1d(z40m1, 1e8).real)
    assert math.isnan(relaxed_newton_map(z40m1, 1e8, 0.5 + 0.1j).real)
    # a finite g' where the scale overflows counts as vanishing
    z40 = Polynomial([0] * 39 + [1e-300, 1e-310])
    with pytest.raises(DerivativeVanishes):
        newton_map_1d(z40, 1e8)


def test_newton_linear_conjugacy_property():
    # N_{f(a.)}(z) == N_f(a z) / a for any polynomial and nonzero a
    rng = np.random.default_rng(101)
    for _ in range(200):
        deg = int(rng.integers(1, 6))
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(deg + 1)]
        coeffs[-1] += 1.5  # keep the lead away from zero
        f = Polynomial(coeffs)
        a = complex(*rng.uniform(-2, 2, 2))
        if abs(a) < 0.1:
            a += 1.0
        z = complex(*rng.uniform(-2, 2, 2))
        scaled = Polynomial([c * a**k for k, c in enumerate(f.coeffs)])
        try:
            lhs = newton_map_1d(scaled, z)
            rhs = newton_map_1d(f, a * z) / a
        except DerivativeVanishes:
            continue
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_newton_scaling_invariance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        deg = int(rng.integers(1, 6))
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(deg + 1)]
        coeffs[-1] += 1.5
        p = Polynomial(coeffs)
        c = complex(*rng.uniform(-3, 3, 2))
        if abs(c) < 0.1:
            c = 2.0 - 1.0j
        scaled = Polynomial([c * k for k in p.coeffs])
        z = complex(*rng.uniform(-2, 2, 2))
        try:
            lhs = newton_map_1d(scaled, z)
            rhs = newton_map_1d(p, z)
        except DerivativeVanishes:
            continue
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_relaxation_disk_validation():
    SolverConfig(rho=0.7)
    for bad in (0.5, 1.0, 0.2, 1.3, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(rho=bad)


def test_sampler_membership_and_determinism():
    rho, key = 0.7, seed_key(5)
    draws = [sample_relaxed_alpha(rho, key, 3, 11) for _ in range(10)]
    assert all(d == draws[0] for d in draws)  # fixed (seed, trial, step), fixed draw
    for step in range(2000):
        d = sample_relaxed_alpha(rho, key, 3, step)
        assert abs(d - 1.0) <= 0.7


def test_sampler_statistics():
    # Monte-Carlo oracles: a uniform disk has its centroid at the center and
    # the concentric half-area disk holds half the mass.
    rho, key = 0.7, seed_key(123)
    n = 100_000
    draws = [sample_relaxed_alpha(rho, key, t, step) for t in range(n // 100) for step in range(100)]
    mean = sum(draws) / n
    se = (0.7 / 2.0) / math.sqrt(n)  # per-coordinate std of a uniform disk is rho/2
    assert abs(mean - 1.0) <= 3.0 * se * math.sqrt(2.0)
    inner = sum(1 for d in draws if abs(d - 1.0) <= 0.7 / math.sqrt(2.0))
    assert abs(inner / n - 0.5) <= 0.01


def test_bisector_map_examples():
    assert bisector_newton_map(1.0) == 0.0
    y = 1.0 / math.sqrt(3.0)
    assert abs(bisector_newton_map(y) + y) <= 1e-12
    assert abs(bisector_newton_map(bisector_newton_map(y)) - y) <= 1e-12
    t = 0.1
    got = bisector_newton_map(1.0 / math.tan(math.pi * t))
    assert abs(got - 1.0 / math.tan(math.pi * 0.2)) <= 1e-12
    with pytest.raises(PoleHit):
        bisector_newton_map(0.0)


def test_bisector_cotangent_doubling_property():
    # y = cot(pi t) conjugates the map to t -> 2t mod 1
    rng = np.random.default_rng(31)
    count = 0
    worst = 0.0
    while count < 1000:
        t = float(rng.uniform(0.0, 1.0))
        if min(abs(t), abs(t - 0.5), abs(t - 1.0)) < 0.01:
            continue  # stay clear of the poles of cot(pi t) and cot(2 pi t)
        count += 1
        got = bisector_newton_map(1.0 / math.tan(math.pi * t))
        want = 1.0 / math.tan(math.pi * ((2.0 * t) % 1.0))
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9


def test_schroder_defect_examples():
    assert schroder_conjugacy_defect(2.0) <= 1e-12
    assert schroder_conjugacy_defect(1j) <= 1e-12
    # 1e-15 is not a pole, but the Newton step's derivative vanishes there
    for bad in (0.0, -1.0, 1e-15):
        with pytest.raises(PoleHit):
            schroder_conjugacy_defect(bad)


def test_schroder_defect_annulus_property():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        r = math.sqrt(rng.uniform(0.01, 100.0))  # uniform in area on 0.1 <= |z| <= 10
        th = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(r * math.cos(th), r * math.sin(th))
        worst = max(worst, schroder_conjugacy_defect(z))
    assert worst <= 1e-10


def test_all_roots_examples():
    roots = sorted(all_roots(Z2M1, 1e-12), key=lambda z: z.real)
    assert abs(roots[0] + 1) <= 1e-10 and abs(roots[1] - 1) <= 1e-10

    double = all_roots(Z2, 1e-12)
    assert len(double) == 2
    assert all(abs(r) <= 1e-5 for r in double)  # double root comes back as a tight cluster

    cube = sorted(all_roots(Z3M1, 1e-12), key=lambda z: (round(z.real, 6), z.imag))
    expected = sorted(
        [1 + 0j, complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)),
         complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))],
        key=lambda z: (round(z.real, 6), z.imag),
    )
    for got, want in zip(cube, expected):
        assert abs(got - want) <= 1e-8


def test_all_roots_residual_property():
    rng = np.random.default_rng(19)
    for _ in range(60):
        deg = int(rng.integers(1, 7))
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(deg + 1)]
        if abs(coeffs[-1]) < 0.05:
            coeffs[-1] = 1.0
        p = Polynomial(coeffs)
        max_coeff = max(abs(c) for c in p.coeffs)
        for r in all_roots(p, 1e-10):
            assert abs(p(r)) <= 1e-10 * (1.0 + abs(r)) ** p.degree * max_coeff


def test_all_roots_rejects_constants_and_caps():
    with pytest.raises(ValueError):
        all_roots(Polynomial([3]), 1e-10)
    with pytest.raises(NoConvergence):
        all_roots(Polynomial([1, 0, 0, 0, 1]), 1e-30, max_iter=2)


def test_all_roots_never_accepts_nan_estimates(monkeypatch):
    # a NaN estimate stays NaN through the polish, and NaN is no root
    monkeypatch.setattr(complexpoly.np, "roots", lambda c: np.array([1.0, complex(math.nan, 0.0), -1.0]))
    with pytest.raises(NoConvergence, match="misses the residual bound$"):
        all_roots(Z3M1, 1e-12)


def test_all_roots_where_the_residual_bound_overflows():
    # (1 + 1e200)^2 overflows: the bound is inf, not an OverflowError
    small, large = all_roots(Polynomial([1, -1e200, 1]), 1e-12)
    assert abs(small / 1e-200 - 1.0) <= 1e-15
    assert abs(large / 1e200 - 1.0) <= 1e-8


@pytest.mark.parametrize(
    "coeffs, large",
    [([1, -1e200, 1], 1e200), ([1, 1e200, 1], -1e200), ([1, -1e200j, -1], -1e200j)],
    ids=["1e200", "-1e200", "-1e200i"],
)
def test_all_roots_polish_from_the_estimate_where_p_overflows_on_the_grid(coeffs, large):
    # p overflows to NaN at the grid point 1.0000000004524102e+200 next to
    # the root 1e200, so the polish starts from numpy's own estimate, where
    # p is 1 exactly
    assert all_roots(Polynomial(coeffs), 1e-12)[1] == large


def test_all_roots_are_sorted_counter_clockwise():
    for n in (1, 2, 3, 10):
        roots = all_roots(Polynomial([-1] + [0] * (n - 1) + [1]), 1e-12)
        assert len(roots) == n
        for k, r in enumerate(roots):
            assert abs(r - complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))) <= 1e-15
    # nearest first on one ray
    assert all_roots(Polynomial.from_roots([2, 1j, 1, 2j, -1]), 1e-12) == [1, 2, 1j, 2j, -1]


def test_all_roots_resolves_a_root_cluster():
    # three roots 1e-3 apart: each comes back within 1e-8, one estimate per root
    got = all_roots(Polynomial.from_roots(CLUSTER8_ROOTS), 1e-12)
    assert len(got) == len(CLUSTER8_ROOTS)
    nearest = [min(range(len(got)), key=lambda i: abs(got[i] - r)) for r in CLUSTER8_ROOTS]
    assert sorted(nearest) == list(range(len(got)))
    assert all(abs(got[i] - r) <= 1e-8 for i, r in zip(nearest, CLUSTER8_ROOTS))


def test_all_roots_of_a_wide_coefficient_range():
    # z^10 - 1e40: ten roots of modulus 1e4, at distinct arguments
    roots = all_roots(Polynomial([-1e40] + [0] * 9 + [1]), 1e-12)
    assert len(roots) == 10
    assert all(abs(abs(r) / 1e4 - 1.0) <= 1e-12 for r in roots)
    assert len({math.atan2(r.imag, r.real) for r in roots}) == 10


def _ulp_moves(estimates):
    """The estimates with both parts moved by 1, 2, 4 and 8 ulps, in each of the four sign pairs."""
    for k in (1, 2, 4, 8):
        for sx in (-math.inf, math.inf):
            for sy in (-math.inf, math.inf):
                x, y = estimates.real, estimates.imag
                for _ in range(k):
                    x, y = np.nextafter(x, sx), np.nextafter(y, sy)
                yield x + 1j * y


def test_all_roots_absorbs_last_bit_differences(monkeypatch):
    # LAPACK builds may differ in the last bits of numpy.roots' estimates:
    # the grid start and the polish must give the same roots bit for bit
    rng = np.random.default_rng(2810)
    polys = [Z3M1, Polynomial([-1] + [0] * 39 + [1]), Polynomial([2, -3, 1]), CLUSTER8]
    for _ in range(30):
        deg = int(rng.integers(2, 13))
        polys.append(Polynomial(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)))
    polys += [p.derivative() for p in polys]
    real_roots = np.roots
    for p in polys:
        want = all_roots(p, 1e-12)
        estimates = real_roots(p.coeffs[::-1]).astype(complex)
        # numpy.roots appends exact zeros for trailing zero coefficients
        # without LAPACK, so they have no last bits to differ in
        nonzero = estimates != 0
        offsets = [1.0 + 1e-12 * np.exp(2j * math.pi * rng.uniform(size=estimates.size)) for _ in range(5)]
        for moved in [*_ulp_moves(estimates), *(estimates * u for u in offsets)]:
            moved = np.where(nonzero, moved, estimates)
            monkeypatch.setattr(complexpoly.np, "roots", lambda c: moved)
            got = all_roots(p, 1e-12)
            assert len(got) == len(want)
            assert all(same_bits(a.real, b.real) and same_bits(a.imag, b.imag) for a, b in zip(got, want)), p
        monkeypatch.setattr(complexpoly.np, "roots", real_roots)


def test_parse_and_format_round_trip():
    p = parse_polynomial("-1,0,1")
    assert p == Z2M1
    assert polynomial_to_string(p) == "-1,0,1"
    q = parse_polynomial("1+2i, 3i ,-4")
    assert q.coeffs == (1 + 2j, 3j, -4 + 0j)
    assert parse_polynomial("1,0,-1", highest_first=True) == Polynomial([-1, 0, 1])
    assert format_complex(1.5 - 2.25j) == "1.5-2.25i"
    assert format_complex(-3j) == "-3i"
    with pytest.raises(ValueError):
        parse_polynomial("1,banana")
    with pytest.raises(ValueError):
        parse_polynomial("")
