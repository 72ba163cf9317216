"""Small dense symmetric eigen-machinery.

Closed form for 2x2 (``_eig2_system``, whose eigenvalues ``sp`` and
``minsp`` read too), ``numpy.linalg.eigh`` for every other size.  The 2x2
eigenvalue-reflected solve on floats is written once, ``_eig2_solve``:
``reflected_direction`` and the lockstep kernel's per-lane tail
(``lockstep._lane_direction``) both take it.  Eigenvectors follow the sign
convention "first nonzero component positive" so decompositions are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix

__all__ = ["EigenDecomposition", "SymmetricMatrix", "eigh", "hypot", "minsp", "reflected_direction", "sp"]


def hypot(a: float, b: float) -> float:
    """sqrt(a*a + b*b) by the C library's ``hypot``, bit for bit as ``numpy.hypot``.

    ``abs(complex)`` calls the C ``hypot`` but raises ``OverflowError`` where
    the result overflows; ``numpy.hypot`` gives inf there, and so does this.
    With a NaN part and no infinite one, CPython returns NaN without clearing
    ``errno``, so an ``ERANGE`` left by any earlier overflow (``math.exp(1000)``,
    a numpy pass) raises too; the value there is NaN.
    """
    try:
        return abs(complex(a, b))
    except OverflowError:
        return math.nan if a != a or b != b else math.inf


class SymmetricMatrix:
    """Real symmetric m-by-m matrix stored as its packed upper triangle.

    Each off-diagonal entry is stored once, so symmetry is structural.  The
    packed layout is row-major over i <= j.
    """

    __slots__ = ("dim", "upper")

    def __init__(self, dim: int, upper):
        upper = tuple(float(v) for v in upper)
        if len(upper) != dim * (dim + 1) // 2:
            raise ValueError(f"need {dim * (dim + 1) // 2} packed entries, got {len(upper)}")
        self.dim = dim
        self.upper = upper

    @classmethod
    def from_full(cls, matrix) -> "SymmetricMatrix":
        """Build from a full array; off-diagonal pairs are averaged."""
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        m = a.shape[0]
        packed = []
        for i in range(m):
            packed.append(a[i, i])
            for j in range(i + 1, m):
                packed.append(0.5 * (a[i, j] + a[j, i]))
        return cls(m, packed)

    @classmethod
    def from_diagonal(cls, values) -> "SymmetricMatrix":
        values = [float(v) for v in values]
        m = len(values)
        packed = []
        for i in range(m):
            packed.append(values[i])
            packed.extend([0.0] * (m - i - 1))
        return cls(m, packed)

    def _index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return i * self.dim - i * (i - 1) // 2 + (j - i)

    def __getitem__(self, key):
        i, j = key
        return self.upper[self._index(i, j)]

    def full(self) -> np.ndarray:
        m = self.dim
        out = np.empty((m, m))
        k = 0
        for i in range(m):
            for j in range(i, m):
                out[i, j] = self.upper[k]
                out[j, i] = self.upper[k]
                k += 1
        return out

    def shifted(self, s: float) -> "SymmetricMatrix":
        """A + s*Id without touching off-diagonal storage."""
        if self.dim == 2:
            a, b, c = self.upper
            return SymmetricMatrix(2, (a + s, b, c + s))
        packed = list(self.upper)
        k = 0
        for i in range(self.dim):
            packed[k] = packed[k] + s
            k += self.dim - i
        return SymmetricMatrix(self.dim, packed)

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricMatrix)
            and self.dim == other.dim
            and self.upper == other.upper
        )

    def __hash__(self):
        return hash((self.dim, self.upper))

    def __repr__(self):
        return f"SymmetricMatrix({self.dim}, {self.upper!r})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization: eigenvalues ascending, orthonormal columns."""

    eigenvalues: tuple[float, ...]
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return q @ np.diag(self.eigenvalues) @ q.T


def _eig2_system(a: float, b: float, c: float):
    """(l1, l2, u1x, u1y, u2x, u2y) for [[a, b], [b, c]], l1 <= l2.

    u1, u2 are the orthonormal eigenvectors for l1, l2, sign-normalized so the
    first nonzero component is positive.
    """
    if b == 0.0:
        if a <= c:
            return a, c, 1.0, 0.0, 0.0, 1.0
        return c, a, 0.0, 1.0, 1.0, 0.0
    t = 0.5 * (a + c)
    d = 0.5 * (a - c)
    r = hypot(d, b)
    l1 = t - r
    l2 = t + r
    # eigenvector for the larger eigenvalue, picking the better-conditioned form
    if d >= 0.0:
        vx, vy = d + r, b
    else:
        vx, vy = b, r - d
    n = hypot(vx, vy)
    u2x, u2y = vx / n, vy / n
    u1x, u1y = -u2y, u2x
    if u2x < 0.0 or (u2x == 0.0 and u2y < 0.0):
        u2x, u2y = -u2x, -u2y
    if u1x < 0.0 or (u1x == 0.0 and u1y < 0.0):
        u1x, u1y = -u1x, -u1y
    return l1, l2, u1x, u1y, u2x, u2y


def _eig2_solve(gx: float, gy: float, system):
    """Q |L|^-1 Q^T (gx, gy) for the 2x2 eigensystem ``system`` that
    ``_eig2_system`` returns; (wx, wy), or None where an eigenvalue is 0."""
    l1, l2, u1x, u1y, u2x, u2y = system
    if l1 == 0.0 or l2 == 0.0:
        return None
    c1 = (gx * u1x + gy * u1y) / abs(l1)
    c2 = (gx * u2x + gy * u2y) / abs(l2)
    return c1 * u1x + c2 * u2x, c1 * u1y + c2 * u2y


def eigh(matrix: SymmetricMatrix) -> EigenDecomposition:
    """Full spectral factorization with eigenvalues sorted ascending.

    2x2 takes the closed form, the lockstep kernel's bitwise twin; every
    other size goes to ``numpy.linalg.eigh``.  There a matrix with a
    non-finite entry gives all-NaN eigenvalues and eigenvectors, so the
    answer does not hang on how LAPACK treats NaN or inf.
    """
    m = matrix.dim
    if m == 2:
        l1, l2, u1x, u1y, u2x, u2y = _eig2_system(*matrix.upper)
        return EigenDecomposition((l1, l2), np.array([[u1x, u2x], [u1y, u2y]]))
    full = matrix.full()
    if not np.isfinite(full).all():
        return EigenDecomposition((math.nan,) * m, np.full((m, m), math.nan))
    values, vectors = np.linalg.eigh(full)
    # each column's first nonzero entry (argmax finds the first True)
    first = vectors[(vectors != 0.0).argmax(axis=0), range(m)]
    vectors[:, first < 0.0] *= -1.0
    return EigenDecomposition(tuple(float(v) for v in values), vectors)


def sp(matrix: SymmetricMatrix) -> float:
    """Spectral radius: the largest |eigenvalue|."""
    if matrix.dim == 2:
        l1, l2 = _eig2_system(*matrix.upper)[:2]
        return max(abs(l1), abs(l2))
    return max(abs(v) for v in eigh(matrix).eigenvalues)


def minsp(matrix: SymmetricMatrix) -> float:
    """Smallest |eigenvalue|; nonzero exactly when the matrix is invertible."""
    if matrix.dim == 2:
        l1, l2 = _eig2_system(*matrix.upper)[:2]
        return min(abs(l1), abs(l2))
    return min(abs(v) for v in eigh(matrix).eigenvalues)


def reflected_direction(matrix: SymmetricMatrix, grad) -> np.ndarray:
    """Solve with the eigenvalue-reflected matrix: Q |L|^-1 Q^T grad.

    Equivalently the positive-eigenspace part of A^-1 grad minus the negative
    part; always a descent direction for grad when it is nonzero.
    """
    if matrix.dim == 2:
        w = _eig2_solve(float(grad[0]), float(grad[1]), _eig2_system(*matrix.upper))
        if w is None:
            raise SingularMatrix("matrix has a zero eigenvalue")
        return np.array(w)
    decomp = eigh(matrix)
    if min(abs(v) for v in decomp.eigenvalues) == 0.0:
        raise SingularMatrix("matrix has a zero eigenvalue")
    coeffs = decomp.eigenvectors.T @ np.asarray(grad, dtype=float)
    return decomp.eigenvectors @ (coeffs / np.abs(decomp.eigenvalues))
