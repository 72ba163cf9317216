import math

import numpy as np
import pytest

from bnqn.complexpoly import Polynomial, all_roots
from bnqn.linalg import hypot
from bnqn.objective import (
    DIVERGED,
    UNDECIDED,
    BilinearTestObjective,
    LimitClass,
    PolyModulusObjective,
    RationalModulusObjective,
    _nearest,
    _nearest_many,
    classify_limit,
)
from support import fd_gradient, fd_hessian, rel_err

Z2M1 = PolyModulusObjective(Polynomial([-1, 0, 1]))
Z2 = PolyModulusObjective(Polynomial([0, 0, 1]))
Z3M1 = PolyModulusObjective(Polynomial([-1, 0, 0, 1]))


def test_value_examples():
    assert Z2M1.value((0.0, 0.0)) == 0.5  # (x^2-y^2-1)^2/2 at the origin
    assert Z2.value((1.0, 0.0)) == 0.5
    assert Z2M1.value((1.0, 0.0)) == 0.0


def test_gradient_instance_formula():
    # closed form for z^2-1: (2(x^2+y^2-1)x, 2(x^2+y^2+1)y)
    assert np.array_equal(Z2M1.gradient((2.0, 0.0)), [12.0, 0.0])
    assert np.array_equal(Z2M1.gradient((0.0, 1.0)), [0.0, 4.0])
    rng = np.random.default_rng(71)
    for _ in range(100):
        x, y = rng.uniform(-2, 2, 2)
        got = Z2M1.gradient((x, y))
        want = np.array([2 * (x * x + y * y - 1) * x, 2 * (x * x + y * y + 1) * y])
        assert np.allclose(got, want, atol=1e-12, rtol=1e-12)


def test_gradient_matches_finite_differences():
    got = Z3M1.gradient((0.3, 0.7))
    assert rel_err(fd_gradient(Z3M1, (0.3, 0.7)), got) <= 1e-6


def test_hessian_instance_formula():
    rng = np.random.default_rng(73)
    for _ in range(100):
        x, y = rng.uniform(-2, 2, 2)
        h = Z2M1.hessian((x, y)).full()
        want = np.array(
            [
                [6 * x * x + 2 * y * y - 2, 4 * x * y],
                [4 * x * y, 2 * x * x + 6 * y * y + 2],
            ]
        )
        assert np.allclose(h, want, atol=1e-11, rtol=1e-12)
    # on the real axis the Hessian is diagonal: diag(6x^2-2, 2x^2+2)
    for x in (0.5, 1.0, 2.0, -1.7):
        h = Z2M1.hessian((x, 0.0))
        assert h[0, 1] == 0.0
        assert h[0, 0] == pytest.approx(6 * x * x - 2, rel=1e-14)
        assert h[1, 1] == pytest.approx(2 * x * x + 2, rel=1e-14)


def test_hessian_matches_finite_differences():
    h = Z3M1.hessian((0.3, 0.7)).full()
    assert rel_err(fd_hessian(Z3M1, (0.3, 0.7)), h) <= 1e-5


def test_gradient_and_hessian_fused_path_identical():
    rng = np.random.default_rng(79)
    for obj in (Z2M1, Z3M1):
        for _ in range(50):
            pt = rng.uniform(-2, 2, 2)
            grad, hess = obj.gradient_and_hessian(pt)
            assert np.array_equal(grad, obj.gradient(pt))
            assert hess == obj.hessian(pt)


def test_derivative_contract_random_polynomials():
    # the testable interface contract: analytic derivatives vs central
    # differences at non-degenerate points
    rng = np.random.default_rng(83)
    checked = 0
    while checked < 100:
        deg = int(rng.integers(2, 5))
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(deg + 1)]
        coeffs[-1] += 1.0
        obj = PolyModulusObjective(Polynomial(coeffs))
        pt = rng.uniform(-2, 2, 2)
        grad = obj.gradient(pt)
        if np.linalg.norm(grad) < 0.1:
            continue
        checked += 1
        assert rel_err(fd_gradient(obj, pt), grad) <= 1e-5
        assert rel_err(fd_hessian(obj, pt), obj.hessian(pt).full()) <= 1e-4


def test_reflection_symmetries_exact():
    # |g(x+iy)| is invariant under y -> -y and x -> -x for g = z^2 - 1;
    # the symmetry is exact in floating point, not just approximate
    rng = np.random.default_rng(89)
    for _ in range(200):
        x, y = rng.uniform(-2, 2, 2)
        assert Z2M1.value((x, y)) == Z2M1.value((x, -y))
        assert Z2M1.value((x, y)) == Z2M1.value((-x, y))
        g = Z2M1.gradient((x, y))
        gm = Z2M1.gradient((x, -y))
        assert g[0] == gm[0] and g[1] == -gm[1]
        gf = Z2M1.gradient((-x, y))
        assert g[0] == -gf[0] and g[1] == gf[1]
        h = Z2M1.hessian((x, y))
        hm = Z2M1.hessian((x, -y))
        assert h[0, 0] == hm[0, 0] and h[1, 1] == hm[1, 1] and h[0, 1] == -hm[0, 1]


def test_degree2_hessian_eigenpairs_closed_form():
    # closed forms for the z^2-1 objective: with S = sqrt((1-x^2+y^2)^2 + 4x^2y^2),
    # eigenvalues 2(2x^2 -/+ S + 2y^2) and eigenvectors (x^2-y^2-1 -/+ S, 2xy);
    # off the axes the gradient has positive components in that eigenbasis,
    # which is what makes the reflected direction point into the half plane
    from bnqn.linalg import eigh

    rng = np.random.default_rng(107)
    for _ in range(200):
        x, y = rng.uniform(0.05, 2.0, 2)
        s = math.sqrt((1 - x * x + y * y) ** 2 + 4 * x * x * y * y)
        lam1 = 2 * (2 * x * x - s + 2 * y * y)
        lam2 = 2 * (2 * x * x + s + 2 * y * y)
        u1 = np.array([x * x - y * y - 1 - s, 2 * x * y])
        u2 = np.array([x * x - y * y - 1 + s, 2 * x * y])
        dec = eigh(Z2M1.hessian((x, y)))
        assert dec.eigenvalues[0] == pytest.approx(lam1, rel=1e-10, abs=1e-10)
        assert dec.eigenvalues[1] == pytest.approx(lam2, rel=1e-10, abs=1e-10)
        for k, u in ((0, u1), (1, u2)):
            unit = u / np.linalg.norm(u)
            assert abs(abs(dec.eigenvectors[:, k] @ unit) - 1.0) <= 1e-8
        grad = Z2M1.gradient((x, y))
        assert float(grad @ u1) > 0.0
        assert float(grad @ u2) > 0.0


def test_degree2_gradient_is_hessian_eigenvector_on_real_axis():
    # on y = 0 the gradient lies along the x-axis, an eigenvector of the
    # diagonal Hessian, so the reflected direction is a positive multiple of it
    from bnqn.linalg import reflected_direction

    for x in (0.3, 0.8, 1.5, 2.0):
        grad = Z2M1.gradient((x, 0.0))
        w = reflected_direction(Z2M1.hessian((x, 0.0)), grad)
        assert w[1] == 0.0
        assert w[0] * grad[0] > 0.0


def test_critical_points_are_roots_of_g_gprime():
    rng = np.random.default_rng(97)
    for _ in range(20):
        deg = int(rng.integers(2, 5))
        coeffs = [complex(*rng.uniform(-1, 1, 2)) for _ in range(deg + 1)]
        coeffs[-1] += 1.0
        p = Polynomial(coeffs)
        obj = PolyModulusObjective(p)
        max_coeff = max(abs(c) for c in p.coeffs)
        for root in all_roots(p, 1e-12) + list(all_roots(p.derivative(), 1e-12)):
            scale = max(1.0, max_coeff**2 * (1.0 + abs(root)) ** (2 * deg))
            gn = np.linalg.norm(obj.gradient((root.real, root.imag)))
            assert gn <= 1e-8 * scale


def test_classify_limit_examples():
    got = classify_limit(Z2M1, (1 + 1e-9, 0.0), 1e-6)
    assert got.is_root
    assert abs(Z2M1.roots()[got.root_index] - 1.0) <= 1e-9

    got = classify_limit(Z2M1, (1e-9, 1e-9), 1e-6)
    assert got.kind == "CriticalNonRoot"
    assert abs(got.point) <= 1e-9

    # a double root is still a root: Root wins over CriticalNonRoot
    got = classify_limit(Z2, (1e-9, 0.0), 1e-6)
    assert got == LimitClass.root(0) or got == LimitClass.root(1)
    assert got.is_root


def test_classify_limit_divergence_and_undecided():
    far = Z2M1.divergence_radius * 2.0
    assert classify_limit(Z2M1, (far, 0.0), 1e-6) == DIVERGED
    assert classify_limit(Z2M1, (0.4, 0.4), 1e-6) == UNDECIDED


def test_classify_roots_only():
    assert Z2M1.classify_roots_only((1 + 1e-9, 0.0), 1e-6).is_root
    assert Z2M1.classify_roots_only((1e-9, 0.0), 1e-6) == UNDECIDED


def _classes(labels, table):
    """The classes that classify_many's labels name; -1 (raised) gives None."""
    return np.array([*table, None], dtype=object)[labels]


def _assert_classify_many_matches_scalar(obj, points, tol):
    x, y = np.array(points, dtype=float).T
    got = _classes(*obj.classify_many(x, y, tol))
    assert got.shape == (len(points),)
    for point, cls in zip(points, got):
        want = classify_limit(obj, point, tol)
        assert (cls, cls.point) == (want, want.point), point
    return got


def test_classify_many_at_roots_and_at_distance_tol():
    for obj in (Z2M1, Z3M1, Z2):
        points = [(r.real, r.imag) for r in obj.roots() + obj.critical_points()]
        got = _assert_classify_many_matches_scalar(obj, points, 1e-6)
        assert all(cls.is_root for cls in got[: len(obj.roots())])
        for c in obj.critical_points():
            # tol set to the distance itself, then one ulp either side
            x = c.real + 3e-6
            tol = abs(complex(x, c.imag) - c)
            for t in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)):
                _assert_classify_many_matches_scalar(obj, [(x, c.imag), (c.real, c.imag + tol)], t)
        r = obj.roots()[0]
        x = r.real - 2e-7
        _assert_classify_many_matches_scalar(obj, [(x, r.imag)], abs(complex(x, r.imag) - r))
    # offsets from the exact root 2 of z-2 on which math.hypot and abs(complex)
    # round apart, so only abs-exact distances decide the boundary as the scalar path
    obj = PolyModulusObjective(Polynomial([-2, 1]))
    rng = np.random.default_rng(67)
    found = 0
    while found < 20:
        a, b = rng.uniform(-1, 1, 2)
        a = (2.0 + a) - 2.0  # exact after the subtraction classify does
        tol = abs(complex(a, b))
        if math.hypot(a, b) == tol:
            continue
        found += 1
        for t in (np.nextafter(tol, 0.0), tol):
            _assert_classify_many_matches_scalar(obj, [(2.0 + a, b)], t)


def test_classify_many_shares_one_instance_per_class():
    got = _classes(*Z3M1.classify_many([1.0, 1.0, 1e-9, -1e-9, 0.4], [0.0, 1e-12, 0.0, 1e-9, 0.4], 1e-6))
    assert got[0] is got[1] and got[2] is got[3]
    assert got[2].kind == "CriticalNonRoot"
    assert got[4] is UNDECIDED


def test_classify_many_ties_resolve_to_the_first_candidate():
    # the computed roots of z^2-1 are +-1 up to 1e-19 in the imaginary part,
    # so every point on the imaginary axis is exactly as far from both
    ys = [0.0, 1e-3, 0.5, -1.5, 3.0]
    x0, x1 = Z2M1.roots()
    assert all(abs(complex(0.0, y) - x0) == abs(complex(0.0, y) - x1) for y in ys)
    got = _assert_classify_many_matches_scalar(Z2M1, [(0.0, y) for y in ys], 4.0)
    assert all(cls == LimitClass.root(0) for cls in got)
    # the same with exact candidates, straight through the nearest-candidate search
    candidates = (1 + 0j, -1 + 0j, 1j, -1j, 1 + 0j)
    rng = np.random.default_rng(89)
    x = np.concatenate([[0.0, 0.5, 0.0, math.nan, math.inf], rng.uniform(-2, 2, 200)])
    y = np.concatenate([[0.0, 0.0, 0.5, 0.0, 0.0], rng.choice([0.0, 0.5, -1.0], 200)])
    index, dist = _nearest_many(candidates, x, y)
    for n in range(len(x)):
        want = _nearest(candidates, complex(x[n], y[n]))
        assert (index[n], dist[n]) == want or (index[n] == want[0] == -1 and dist[n] == math.inf)


def test_classify_many_nan_inf_and_divergence():
    radius = Z3M1.divergence_radius
    points = [
        (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
        (math.inf, 0.0), (-math.inf, 1.0), (0.5, math.inf), (math.inf, math.nan),
        (radius, 0.0), (np.nextafter(radius, math.inf), 0.0), (0.0, -2.0 * radius),
        (1e30, -1e30), (1e150, 1e150), (0.4, 0.4),
    ]
    got = _assert_classify_many_matches_scalar(Z3M1, points, 1e-6)
    assert [cls.kind for cls in got[:3]] == ["Undecided"] * 3
    assert all(cls == DIVERGED for cls in got[3:7])
    assert got[7] == UNDECIDED and got[8] == DIVERGED


def test_classify_where_the_distance_overflows():
    # |z| overflows to inf here, where abs(complex) would raise OverflowError
    big = 1.7e308
    points = [(big, big), (-big, big), (big, -1.0), (-big, -big)]
    got = _assert_classify_many_matches_scalar(Z3M1, points, 1e-6)
    assert all(cls == DIVERGED for cls in got)
    assert Z3M1.classify_roots_only((big, -big), 1e-6) == DIVERGED


def test_classify_many_random_points_match_scalar():
    rng = np.random.default_rng(83)
    for obj in (Z2M1, Z2, Z3M1, PolyModulusObjective(Polynomial([-2, 1]))):
        near = [complex(c) + complex(*rng.normal(0, 1e-6, 2)) for c in obj.roots() + obj.critical_points()]
        points = [(z.real, z.imag) for z in near * 20] + [tuple(p) for p in rng.uniform(-2, 2, (300, 2))]
        for tol in (1e-6, 1e-5, 0.3):
            _assert_classify_many_matches_scalar(obj, points, tol)


def test_classify_many_degree_one_has_no_critical_points():
    obj = PolyModulusObjective(Polynomial([-2, 1]))
    assert obj.critical_points() == ()
    got = _assert_classify_many_matches_scalar(obj, [(2.0, 0.0), (2.0, 1e-7), (0.0, 0.0), (1e20, 0.0)], 1e-6)
    assert [str(cls) for cls in got] == ["Root(0)", "Root(0)", "Undecided", "Diverged"]


def test_classify_many_double_root_of_z2():
    # both root estimates are exactly 0, and so is g's critical point: a root
    # wins over a critical point, and of equal roots the first
    points = [(0.0, 0.0), (1e-7, 0.0), (5e-7, -1e-7), (-2e-6, 1e-6), (3e-6, 0.0)]
    assert Z2.roots() == (0j, 0j)
    for tol in (1e-7, 1e-6, 5e-6):
        got = _assert_classify_many_matches_scalar(Z2, points, tol)
        assert got[0] == LimitClass.root(0)
    assert _assert_classify_many_matches_scalar(Z2, [(0.0, 0.0)], 1e-8)[0] == LimitClass.root(0)


def test_root_indices_is_classify_roots_only_per_point():
    # classify_many with roots_only labels every point as classify_roots_only
    for obj in (Z2M1, Z3M1, Z2):
        r = obj.roots()[-1]
        x = r.real - 2e-7
        tol = abs(complex(x, r.imag) - r)  # the distance itself, then one ulp either side
        points = [(c.real, c.imag) for c in obj.roots() + obj.critical_points()]
        points += [(x, r.imag), (1e13, 0.0), (math.nan, 0.0), (math.inf, 1.0), (0.3, -0.4)]
        for t in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0), 1e-6):
            x_, y_ = np.array(points).T
            got = _classes(*obj.classify_many(x_, y_, t, roots_only=True))
            for point, cls in zip(points, got):
                want = obj.classify_roots_only(point, t)
                assert (cls, cls.point) == (want, want.point), (point, t)
        last = obj.classify_many([x], [r.imag], tol, roots_only=True)
        # the first index of equal roots: both roots of z^2 are exactly 0
        assert _classes(*last)[0] == LimitClass.root(obj.roots().index(r))


@pytest.mark.parametrize("tol", [1e-6, math.inf], ids=["tol-1e-6", "tol-inf"])
def test_a_match_needs_a_nearest_candidate(tol):
    # no distance from these points is below inf, so _nearest finds no
    # candidate (index -1); an infinite tol used to accept that as Root(-1)
    # in the scalar classifiers, and classify_many as Diverged
    inf, nan = math.inf, math.nan
    points = [(-inf, nan), (inf, inf), (nan, inf), (nan, 0.0)]
    want = [DIVERGED, DIVERGED, DIVERGED, UNDECIDED]
    for obj in (PolyModulusObjective(Polynomial([-2, 1])), Z3M1):
        assert list(_assert_classify_many_matches_scalar(obj, points, tol)) == want
        x, y = np.array(points).T
        assert list(_classes(*obj.classify_many(x, y, tol, roots_only=True))) == want
        assert [obj.classify_roots_only(p, tol) for p in points] == want


def test_classify_many_empty_input():
    assert Z3M1.classify_many([], [], 1e-6)[0].shape == (0,)


def test_numpy_hypot_is_abs_of_complex_bitwise():
    # classify_many rests on this: numpy's hypot rounds as abs(complex)
    rng = np.random.default_rng(79)
    n = 1_000_000
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    y[: n // 10] = x[: n // 10] * rng.uniform(0.5, 2.0, n // 10)  # comparable sizes
    want = np.fromiter(map(abs, map(complex, x.tolist(), y.tolist())), float, n)
    assert np.array_equal(np.hypot(x, y).view(np.int64), want.view(np.int64))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, math.inf, -math.inf, math.nan]
    for a in special:
        for b in special:
            got, want = np.hypot(a, b), abs(complex(a, b))
            assert got == want or (math.isnan(got) and math.isnan(want)), (a, b)


def test_scalar_hypot_is_numpy_hypot_bitwise():
    # the scalar run loop and the lockstep kernel share their norms through this
    rng = np.random.default_rng(79)
    n = 1_000_000
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    y[: n // 10] = x[: n // 10] * rng.uniform(0.5, 2.0, n // 10)
    want = np.hypot(x, y)
    got = np.fromiter(map(hypot, x.tolist(), y.tolist()), float, n)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    tiny = 2.2250738585072014e-308
    special = [0.0, -0.0, 5e-324, -5e-324, 3e-310, tiny, -tiny, 1.0, 1.7e308, -1.7e308,
               1.7976931348623157e308, math.inf, -math.inf, math.nan]
    with np.errstate(over="ignore"):
        for a in special:
            for b in special:
                got, want = hypot(a, b), float(np.hypot(a, b))
                assert got == want or (math.isnan(got) and math.isnan(want)), (a, b)
                if not math.isnan(got):
                    assert math.copysign(1.0, got) == 1.0
    # overflow: abs(complex) raises where both give inf
    with pytest.raises(OverflowError):
        abs(complex(1.7e308, 1.7e308))
    assert hypot(1.7e308, 1.7e308) == hypot(-1.7e308, 1.7e308) == math.inf
    # an infinite part wins over NaN, as in C
    assert hypot(math.inf, math.nan) == hypot(math.nan, -math.inf) == math.inf
    assert math.isnan(hypot(math.nan, 1.0)) and math.isnan(hypot(0.0, math.nan))
    assert hypot(5e-324, 0.0) == 5e-324 and hypot(-0.0, -0.0) == 0.0


def test_limit_class_semantics():
    assert LimitClass.root(0) == LimitClass.root(0)
    assert LimitClass.root(0) != LimitClass.root(1)
    # the matched point is informational, not part of identity
    assert LimitClass.critical(0j) == LimitClass.critical(1e-9 + 0j)
    assert str(LimitClass.root(2)) == "Root(2)"
    assert str(DIVERGED) == "Diverged"


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        PolyModulusObjective(Polynomial([3.0]))


def test_divergence_radius_scales_with_coefficients():
    assert Z2M1.divergence_radius == 1e8 * (1.0 + 1.0 + 1.0)


def test_bilinear_objective():
    obj = BilinearTestObjective()
    assert obj.value((3.0, -2.0)) == -6.0
    assert np.array_equal(obj.gradient((3.0, -2.0)), [-2.0, 3.0])
    assert np.array_equal(obj.hessian((0.0, 0.0)).full(), [[0.0, 1.0], [1.0, 0.0]])
    pt = (0.7, -1.3)
    assert rel_err(fd_gradient(obj, pt), obj.gradient(pt)) <= 1e-6
    assert np.allclose(fd_hessian(obj, pt), obj.hessian(pt).full(), atol=1e-5)


def test_rational_modulus_newton_quotient():
    # g = P/P' for P = (z-1)^2 (z+2): zeros of g at the zeros of P, all simple
    p = Polynomial.from_roots([1, 1, -2])
    obj = RationalModulusObjective.newton_quotient(p)
    assert obj.value((-2.0, 0.0)) == 0.0
    # the double root of P is a 0/0 point of the quotient; just off it the
    # value is tiny because the multiplicity collapsed to one
    assert obj.value((1.0 + 1e-8, 0.0)) <= 1e-16
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 25:
        pt = rng.uniform(-3, 3, 2)
        # stay away from the poles (zeros of P') and degenerate spots
        dp = p.derivative()
        if min(abs(complex(*pt) - r) for r in all_roots(dp, 1e-12)) < 0.3:
            continue
        if np.linalg.norm(obj.gradient(pt)) < 0.05:
            continue
        checked += 1
        assert rel_err(fd_gradient(obj, pt), obj.gradient(pt)) <= 1e-5
        assert rel_err(fd_hessian(obj, pt), obj.hessian(pt).full()) <= 1e-4


def test_rational_modulus_pole_value():
    p = Polynomial.from_roots([1, 1, -2])
    obj = RationalModulusObjective.newton_quotient(p)
    # P' vanishes at z=1 and z=-1; z=1 cancels, z=-1 is a genuine pole
    assert obj.value((-1.0, 0.0)) == math.inf
