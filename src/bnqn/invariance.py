"""Executable checks of how the methods behave under linear conjugation.

BNQN commutes with coordinate changes A = c*R (R orthogonal, c > 0) once its
parameters are rescaled (shifts by c^(2-tau), theta and grad_tol by c);
Newton's method commutes with every invertible A.  The shear example shows
the restriction on A is real: already the first BNQN direction fails to
transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BnqnError, SingularMatrix
from .linalg import SymmetricMatrix, reflected_direction
from .objective import BilinearTestObjective, ObjectiveFunction
from .solvers import Method, SolverConfig, _shift_scale, run

__all__ = [
    "ConjugatedObjective",
    "ConjugationSpec",
    "ShearReport",
    "check_invariance",
    "newton_conjugacy_check",
    "random_orthogonal",
    "rotation",
    "shear_counterexample",
    "transform_config",
]

_ORTHO_TOL = 1e-12


def _check_scale(c: float) -> None:
    # not 0 < c < inf also rejects NaN
    if not 0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")


def rotation(angle: float) -> np.ndarray:
    """2x2 rotation by ``angle`` radians."""
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle}")
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(dim: int, rng) -> np.ndarray:
    """Random orthogonal matrix from one ``rng.uniform(-1, 1, (dim, dim))`` draw.

    It is the Q of the draw's QR factorization with R's diagonal made
    positive (``numpy.linalg.qr``, each column of Q times the sign of R's
    diagonal entry), which is the Gram-Schmidt basis of the draw's columns
    up to rounding.  The determinant sign is unconstrained; reflections
    qualify.
    """
    q, r = np.linalg.qr(rng.uniform(-1.0, 1.0, (dim, dim)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class ConjugationSpec:
    """A scaled orthogonal map A = c * R with its exact inverse c^-1 * R^T."""

    c: float
    rotation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("rotation must be a square matrix")
        _check_scale(self.c)
        residual = float(np.linalg.norm(r @ r.T - np.eye(r.shape[0])))
        if residual > _ORTHO_TOL:
            raise ValueError(f"matrix is not orthogonal (residual {residual:.3e})")
        r.setflags(write=False)
        object.__setattr__(self, "rotation", r)

    @property
    def matrix(self) -> np.ndarray:
        return self.c * self.rotation

    @property
    def inverse(self) -> np.ndarray:
        return (1.0 / self.c) * self.rotation.T


class ConjugatedObjective(ObjectiveFunction):
    """G(z) = F(A z) with chain-rule gradient A^T grad and Hessian A^T H A."""

    def __init__(self, base: ObjectiveFunction, matrix):
        a = np.array(matrix, dtype=float)
        if a.shape != (base.dimension, base.dimension):
            raise ValueError(f"matrix shape {a.shape} does not match dimension {base.dimension}")
        a.setflags(write=False)
        self.base = base
        self.matrix = a
        self._transpose = a.T.copy()
        self.dimension = base.dimension
        # conservative: |z| > base_radius / ||A|| guarantees |Az| > base_radius
        self.divergence_radius = base.divergence_radius / float(np.linalg.norm(a, 2))

    def value(self, point) -> float:
        return self.base.value(self.matrix @ np.asarray(point, dtype=float))

    def gradient(self, point) -> np.ndarray:
        mapped = self.matrix @ np.asarray(point, dtype=float)
        return self._transpose @ self.base.gradient(mapped)

    def hessian(self, point) -> SymmetricMatrix:
        return self.gradient_and_hessian(point)[1]

    def gradient_and_hessian(self, point):
        mapped = self.matrix @ np.asarray(point, dtype=float)
        grad, hess = self.base.gradient_and_hessian(mapped)
        sandwich = self._transpose @ hess.full() @ self.matrix
        return self._transpose @ grad, SymmetricMatrix.from_full(sandwich)


def transform_config(cfg: SolverConfig, c: float) -> SolverConfig:
    """Rescale parameters for conjugation by c*R: shifts by c^(2-tau), theta
    by c, and grad_tol by c, since |grad G| = c |grad F| for G(z) = F(cRz).

    Where the scaled shifts are not finite and pairwise distinct (c^(2-tau)
    underflows to 0.0 or overflows, or a shift times it overflows), the
    ``ValueError`` names c and tau, not shifts the caller never gave.
    """
    _check_scale(c)
    factor = _shift_scale(c, 2.0 - cfg.tau)
    deltas = tuple(d * factor for d in cfg.deltas)
    # 0.0 == -0.0, as SolverConfig's pairwise gap has it
    if not all(map(math.isfinite, deltas)) or len(set(deltas)) < len(deltas):
        raise ValueError(
            f"the shifts times c**(2 - tau) are not finite and pairwise distinct for c = {c}, tau = {cfg.tau}"
        )
    return replace(
        cfg,
        deltas=deltas,
        theta=cfg.theta * c,
        grad_tol=cfg.grad_tol * c,
    )


def _max_deviation(base_trace, mapped_trace, distance) -> float:
    """max_k distance(z_k, z'_k) / (1 + |z_k|) over the base run's points z_k
    and the mapped run's points z'_k, up to the shorter run's end; the two
    BNQN runs of ``check_invariance`` stop together."""
    deviation = 0.0
    for p, q in zip(base_trace.points, mapped_trace.points):
        d = distance(p, q) / (1.0 + float(np.linalg.norm(p)))
        if d > deviation:
            deviation = d
    return deviation


def check_invariance(
    f: ObjectiveFunction, spec: ConjugationSpec, z0, cfg: SolverConfig, n: int
) -> float:
    """Max relative deviation between the conjugated run and the mapped run.

    Runs BNQN on F from z0 and on G(z) = F(cRz) from A^-1 z0 with the
    rescaled parameters, for at most n steps each, and returns

        max_k |A z'_k - z_k| / (1 + |z_k|)

    over every step: the two runs stop together, because ``transform_config``
    scales ``grad_tol``, and with it the gradient-norm stopping test, by c.
    Both the distance and the size are taken in F's coordinates, so the
    deviation does not grow as 1/c: in G's, |z'_k - A^-1 z_k| has the scale
    1/c and |z_k| does not.
    """
    if n < 1:
        raise ValueError(f"step count n must be positive, got {n}")
    z0 = np.asarray(z0, dtype=float)
    capped = replace(cfg, max_iter=min(cfg.max_iter, n))
    a_inv = spec.inverse
    base_trace = run(f, z0, Method.BNQN_NEW_VARIANT, capped)
    conjugated = ConjugatedObjective(f, spec.matrix)
    mapped_trace = run(
        conjugated, a_inv @ z0, Method.BNQN_NEW_VARIANT, transform_config(capped, spec.c)
    )
    for trace in (base_trace, mapped_trace):
        if trace.failure is not None:
            raise BnqnError(f"run failed during invariance check: {trace.failure}")
    a = spec.matrix
    return _max_deviation(base_trace, mapped_trace, lambda p, q: float(np.linalg.norm(a @ q - p)))


def newton_conjugacy_check(f: ObjectiveFunction, matrix, z0, n: int) -> float:
    """max_k |z'_k - A^-1 z_k| / (1 + |z_k|) for Newton's method under an
    arbitrary invertible map A, with z_k on F and z'_k on G(z) = F(Az)."""
    a = np.asarray(matrix, dtype=float)
    a_inv = np.linalg.inv(a)
    z0 = np.asarray(z0, dtype=float)
    cfg = SolverConfig(max_iter=n)
    base_trace = run(f, z0, Method.NEWTON_OPT, cfg)
    mapped_trace = run(ConjugatedObjective(f, a), a_inv @ z0, Method.NEWTON_OPT, cfg)
    for trace in (base_trace, mapped_trace):
        if trace.failure is not None:
            raise SingularMatrix(f"Newton run failed: {trace.failure}")
    return _max_deviation(base_trace, mapped_trace, lambda p, q: float(np.linalg.norm(q - a_inv @ p)))


_SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
_SHEAR_INV = np.array([[1.0, -1.0], [0.0, 1.0]])


@dataclass(frozen=True)
class ShearReport:
    """First-step directions under the shear conjugation of F(x, y) = x*y."""

    w_prime: np.ndarray
    mapped_w: np.ndarray
    parallelism_defect: float

    def lines(self) -> list[str]:
        return [
            f"w_prime_x={self.w_prime[0]:.17g}",
            f"w_prime_y={self.w_prime[1]:.17g}",
            f"mapped_w_x={self.mapped_w[0]:.17g}",
            f"mapped_w_y={self.mapped_w[1]:.17g}",
            f"parallelism_defect={self.parallelism_defect:.17g}",
        ]


def shear_counterexample(point) -> ShearReport:
    """Compare BNQN directions across the shear A = [[1, 1], [0, 1]].

    For F(x, y) = x*y and G = F(A .), computes the unshifted reflected
    direction w' of G at ``point`` and A^-1 w for the direction w of F at
    A point, and reports |sin(angle)| between them.  For generic points the
    two are not parallel, so no parameter rescaling can repair the
    conjugacy.
    """
    point = np.asarray(point, dtype=float)
    base = BilinearTestObjective()
    sheared = ConjugatedObjective(base, _SHEAR)
    w_prime = reflected_direction(sheared.hessian(point), sheared.gradient(point))
    mapped_point = _SHEAR @ point
    w_base = reflected_direction(base.hessian(mapped_point), base.gradient(mapped_point))
    mapped_w = _SHEAR_INV @ w_base
    cross = w_prime[0] * mapped_w[1] - w_prime[1] * mapped_w[0]
    scale = float(np.linalg.norm(w_prime)) * float(np.linalg.norm(mapped_w))
    defect = abs(float(cross)) / scale if scale > 0 else 0.0
    return ShearReport(w_prime, mapped_w, defect)
