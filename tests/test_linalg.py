import math

import numpy as np
import pytest

from bnqn.errors import SingularMatrix
from bnqn.linalg import EigenDecomposition, SymmetricMatrix, eigh, minsp, reflected_direction, sp

SWAP = SymmetricMatrix(2, (0.0, 1.0, 0.0))  # [[0,1],[1,0]]
SHEARED_HESS = SymmetricMatrix(2, (0.0, 1.0, 2.0))  # [[0,1],[1,2]]


def char_poly_eigenvalues(a, b, c):
    """Quadratic-formula oracle for [[a,b],[b,c]]."""
    disc = math.sqrt((a - c) ** 2 + 4.0 * b * b)
    return (a + c - disc) / 2.0, (a + c + disc) / 2.0


def test_packed_storage_and_full():
    m = SymmetricMatrix(3, (1, 2, 3, 4, 5, 6))
    assert m[0, 1] == 2 and m[1, 0] == 2 and m[2, 2] == 6 and m[1, 2] == 5
    full = m.full()
    assert np.array_equal(full, full.T)
    assert SymmetricMatrix.from_full(full) == m


def test_from_full_averages_asymmetry():
    m = SymmetricMatrix.from_full([[1.0, 2.0], [4.0, 3.0]])
    assert m[0, 1] == 3.0


def test_from_full_rejects_nonsquare():
    with pytest.raises(ValueError):
        SymmetricMatrix.from_full(np.ones((2, 3)))


def test_shifted():
    m = SymmetricMatrix(2, (1.0, 2.0, 3.0)).shifted(10.0)
    assert m.upper == (11.0, 2.0, 13.0)
    m3 = SymmetricMatrix.from_diagonal([1, 2, 3]).shifted(-1.0)
    assert np.allclose(m3.full(), np.diag([0.0, 1.0, 2.0]))


def test_eigh_swap_matrix():
    # [[0,1],[1,0]] has eigenpairs (-1, (-1,1)) and (1, (1,1))
    dec = eigh(SWAP)
    assert dec.eigenvalues == (-1.0, 1.0)
    u1 = dec.eigenvectors[:, 0]
    u2 = dec.eigenvectors[:, 1]
    assert abs(abs(u1 @ np.array([-1.0, 1.0]) / math.sqrt(2.0)) - 1.0) <= 1e-14
    assert abs(abs(u2 @ np.array([1.0, 1.0]) / math.sqrt(2.0)) - 1.0) <= 1e-14


def test_eigh_sheared_hessian():
    # [[0,1],[1,2]] has eigenvalues 1 -/+ sqrt(2)
    dec = eigh(SHEARED_HESS)
    assert abs(dec.eigenvalues[0] - (1.0 - math.sqrt(2.0))) <= 1e-14
    assert abs(dec.eigenvalues[1] - (1.0 + math.sqrt(2.0))) <= 1e-14
    # eigenvector for the larger eigenvalue is along (-1+sqrt(2), 1)
    u = np.array([-1.0 + math.sqrt(2.0), 1.0])
    u = u / np.linalg.norm(u)
    assert abs(abs(dec.eigenvectors[:, 1] @ u) - 1.0) <= 1e-12


def test_eigh_identity_all_dims():
    for m in range(1, 6):
        dec = eigh(SymmetricMatrix.from_diagonal([1.0] * m))
        assert dec.eigenvalues == tuple([1.0] * m)
        assert np.array_equal(dec.eigenvectors, np.eye(m))


def test_eigh_2x2_against_char_poly_oracle():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a, b, c = rng.uniform(-5, 5, 3)
        dec = eigh(SymmetricMatrix(2, (a, b, c)))
        w1, w2 = char_poly_eigenvalues(a, b, c)
        scale = 1.0 + max(abs(a), abs(b), abs(c))
        assert abs(dec.eigenvalues[0] - w1) <= 1e-12 * scale
        assert abs(dec.eigenvalues[1] - w2) <= 1e-12 * scale


def test_2x2_eigenvalues_take_the_c_library_hypot():
    # the lockstep kernel computes t -+ numpy.hypot(d, b) for minsp and for
    # the reflected solve, so both scalar routes must round the same way
    rng = np.random.default_rng(29)
    a, b, c = rng.uniform(-1.0, 1.0, (3, 20_000))
    t, d = 0.5 * (a + c), 0.5 * (a - c)
    r = np.hypot(d, b)
    for n in range(len(a)):
        m = SymmetricMatrix(2, (a[n], b[n], c[n]))
        lo, hi = t[n] - r[n], t[n] + r[n]
        assert eigh(m).eigenvalues == (lo, hi)
        assert minsp(m) == min(abs(lo), abs(hi)) and sp(m) == max(abs(lo), abs(hi))


def test_eigh_reconstruction_property():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        m = int(rng.choice([2, 3, 5]))
        raw = rng.uniform(-3, 3, (m, m))
        mat = SymmetricMatrix.from_full(raw + raw.T)
        dec = eigh(mat)
        full = mat.full()
        norm = np.linalg.norm(full)
        assert np.linalg.norm(dec.reconstruct() - full) <= 1e-12 * (1.0 + norm)
        assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(m)) <= 1e-12
        assert all(x <= y for x, y in zip(dec.eigenvalues, dec.eigenvalues[1:]))


def test_eigh_matches_numpy_oracle():
    rng = np.random.default_rng(37)
    for _ in range(200):
        m = int(rng.choice([2, 3, 4, 5, 8]))
        raw = rng.uniform(-2, 2, (m, m))
        mat = SymmetricMatrix.from_full(raw + raw.T)
        got = np.array(eigh(mat).eigenvalues)
        want = np.linalg.eigvalsh(mat.full())
        assert np.allclose(got, want, atol=1e-11 * (1.0 + np.linalg.norm(mat.full())))


def test_eigenvector_sign_convention():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = int(rng.choice([2, 3, 5]))
        raw = rng.uniform(-2, 2, (m, m))
        dec = eigh(SymmetricMatrix.from_full(raw + raw.T))
        for k in range(m):
            col = dec.eigenvectors[:, k]
            lead = next(x for x in col if x != 0.0)
            assert lead > 0.0


def test_sp_minsp_examples():
    assert sp(SymmetricMatrix.from_diagonal([-3, 2])) == 3.0
    assert sp(SymmetricMatrix.from_diagonal([0, 0])) == 0.0
    assert abs(sp(SHEARED_HESS) - (1.0 + math.sqrt(2.0))) <= 1e-14
    assert minsp(SymmetricMatrix.from_diagonal([-3, 2])) == 2.0
    assert minsp(SWAP) == 1.0
    assert minsp(SymmetricMatrix.from_diagonal([0, 5])) == 0.0


def test_sp_is_max_operator_norm():
    # sp(A) == max_{|e|=1} |A e|, probed over many unit directions
    rng = np.random.default_rng(43)
    raw = rng.uniform(-2, 2, (3, 3))
    mat = SymmetricMatrix.from_full(raw + raw.T)
    full = mat.full()
    best = max(
        float(np.linalg.norm(full @ e / np.linalg.norm(e)))
        for e in rng.uniform(-1, 1, (2000, 3))
        if np.linalg.norm(e) > 1e-3
    )
    assert best <= sp(mat) + 1e-12
    assert sp(mat) - best <= 1e-2  # dense direction sample gets close


def test_reflected_direction_examples():
    # |A| = Id for the swap matrix, so the direction is the gradient itself
    assert np.allclose(reflected_direction(SWAP, [1.0, 2.0]), [1.0, 2.0], atol=1e-14)
    rng = np.random.default_rng(47)
    for _ in range(50):
        x, y = rng.uniform(-3, 3, 2)
        got = reflected_direction(SymmetricMatrix.from_diagonal([-2, 2]), [-2 * x, 2 * y])
        assert np.allclose(got, [-x, y], atol=1e-14)
    got = reflected_direction(SymmetricMatrix.from_diagonal([3, 5]), [3.0, 10.0])
    assert np.allclose(got, [1.0, 2.0], atol=1e-14)


def test_reflected_direction_positive_definite_is_plain_solve():
    rng = np.random.default_rng(53)
    for _ in range(100):
        m = int(rng.choice([2, 3, 5]))
        raw = rng.uniform(-1, 1, (m, m))
        spd = raw @ raw.T + (m + 1) * np.eye(m)
        mat = SymmetricMatrix.from_full(spd)
        g = rng.uniform(-2, 2, m)
        want = np.linalg.solve(spd, g)
        assert np.allclose(reflected_direction(mat, g), want, atol=1e-10)


def test_reflected_direction_descent_property():
    rng = np.random.default_rng(59)
    for _ in range(300):
        m = int(rng.choice([2, 3, 5]))
        raw = rng.uniform(-2, 2, (m, m))
        mat = SymmetricMatrix.from_full(raw + raw.T)
        if minsp(mat) == 0.0:
            continue
        g = rng.uniform(-2, 2, m)
        if np.linalg.norm(g) < 1e-6:
            continue
        assert float(reflected_direction(mat, g) @ g) > 0.0


def test_reflected_direction_orthogonal_equivariance():
    rng = np.random.default_rng(61)
    for _ in range(100):
        m = int(rng.choice([2, 3]))
        raw = rng.uniform(-2, 2, (m, m))
        mat = SymmetricMatrix.from_full(raw + raw.T + 0.3 * np.eye(m))
        if minsp(mat) < 1e-6:
            continue
        q, _ = np.linalg.qr(rng.uniform(-1, 1, (m, m)))
        g = rng.uniform(-2, 2, m)
        conj = SymmetricMatrix.from_full(q.T @ mat.full() @ q)
        lhs = reflected_direction(conj, q.T @ g)
        rhs = q.T @ reflected_direction(mat, g)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_reflected_direction_singular_raises():
    with pytest.raises(SingularMatrix):
        reflected_direction(SymmetricMatrix.from_diagonal([0.0, 5.0]), [1.0, 1.0])
    with pytest.raises(SingularMatrix):
        reflected_direction(SymmetricMatrix.from_diagonal([0.0, 1.0, 2.0]), [1.0, 1.0, 1.0])


def test_reflected_direction_matches_numpy_eigh_route():
    # independent oracle: build Q|L|^-1 Q^T from numpy's decomposition
    rng = np.random.default_rng(67)
    for _ in range(200):
        m = int(rng.choice([2, 3, 5]))
        raw = rng.uniform(-2, 2, (m, m))
        mat = SymmetricMatrix.from_full(raw + raw.T)
        vals, vecs = np.linalg.eigh(mat.full())
        if np.min(np.abs(vals)) < 1e-8:
            continue
        g = rng.uniform(-2, 2, m)
        want = vecs @ ((vecs.T @ g) / np.abs(vals))
        assert np.allclose(reflected_direction(mat, g), want, atol=1e-9)


def test_eigen_decomposition_dataclass():
    dec = EigenDecomposition((1.0, 2.0), np.eye(2))
    assert np.allclose(dec.reconstruct(), np.diag([1.0, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("m", [3, 5])
def test_nonfinite_entry_gives_all_nan_spectrum(m, bad):
    # above 2x2 the spectrum of a matrix with a NaN or inf entry is all NaN,
    # whatever the entry's place, so no ordering can hide it from minsp
    for i, j in ((0, 0), (0, m - 1), (m - 1, m - 1)):
        full = np.diag(np.arange(1.0, m + 1))
        full[i, j] = full[j, i] = bad
        mat = SymmetricMatrix.from_full(full)
        dec = eigh(mat)
        assert len(dec.eigenvalues) == m and all(math.isnan(v) for v in dec.eigenvalues)
        assert dec.eigenvectors.shape == (m, m) and np.isnan(dec.eigenvectors).all()
        assert math.isnan(minsp(mat)) and math.isnan(sp(mat))
