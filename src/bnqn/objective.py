"""Objective functions F: R^m -> R with analytic gradient and Hessian.

The workhorse is the polynomial-modulus objective F(x, y) = |g(x+iy)|^2 / 2,
whose minima are exactly the roots of g.  Derivatives come from complex
differentiation: with w = g'(z) conj(g(z)) and u = g''(z) conj(g(z)),

    grad F = (Re w, -Im w)
    hess F = [[Re u + |g'|^2, -Im u], [-Im u, |g'|^2 - Re u]]

which costs O(deg) per evaluation and avoids symbolic expansion.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from .complexpoly import Polynomial, all_roots
from .errors import BnqnError
from .linalg import SymmetricMatrix, hypot

__all__ = [
    "BilinearTestObjective",
    "CLASS_TOL",
    "DIVERGED",
    "LimitClass",
    "ObjectiveFunction",
    "PolyModulusObjective",
    "RationalModulusObjective",
    "UNDECIDED",
    "classify_limit",
]

_ROOT_TOL = 1e-12  # residual tolerance handed to all_roots for classification
CLASS_TOL = 1e-6  # terminal classification radius wherever none is given


def _check_class_tol(tol: float) -> None:
    # not x >= 0 also rejects NaN, with which no point could ever classify
    if not tol >= 0:
        raise ValueError(f"class_tol must be nonnegative, got {tol}")


@dataclass(frozen=True)
class LimitClass:
    """Terminal classification of an iteration.

    ``point`` is informational only (the matched critical point) and does not
    take part in equality; two CriticalNonRoot values always compare equal.
    """

    kind: str  # "Root" | "CriticalNonRoot" | "Diverged" | "Undecided"
    root_index: int | None = None
    point: complex | None = field(default=None, compare=False)

    @classmethod
    def root(cls, index: int) -> "LimitClass":
        return cls("Root", root_index=index)

    @classmethod
    def critical(cls, point: complex) -> "LimitClass":
        return cls("CriticalNonRoot", point=complex(point))

    @property
    def is_root(self) -> bool:
        return self.kind == "Root"

    def __str__(self):
        if self.kind == "Root":
            return f"Root({self.root_index})"
        return self.kind


DIVERGED = LimitClass("Diverged")
UNDECIDED = LimitClass("Undecided")


def _modulus_gradient(gz: complex, dgz: complex) -> np.ndarray:
    """grad F = (Re w, -Im w), w = g'(z) conj(g(z)), from g(z) and g'(z)."""
    w = dgz * gz.conjugate()
    return np.array([w.real, -w.imag])


def _modulus_hessian(gz: complex, dgz: complex, ddgz: complex) -> SymmetricMatrix:
    """hess F = [[Re u + |g'|^2, -Im u], [-Im u, |g'|^2 - Re u]],
    u = g''(z) conj(g(z)), from g(z), g'(z) and g''(z)."""
    u = ddgz * gz.conjugate()
    s = dgz.real * dgz.real + dgz.imag * dgz.imag
    return SymmetricMatrix(2, (u.real + s, -u.imag, s - u.real))


class ObjectiveFunction(abc.ABC):
    """Value/gradient/Hessian triple on R^m.

    Implementations must keep the analytic derivatives consistent with
    central finite differences of ``value`` (the testable contract).
    """

    dimension: int = 2
    divergence_radius: float = 1e12

    @abc.abstractmethod
    def value(self, point) -> float: ...

    @abc.abstractmethod
    def gradient(self, point) -> np.ndarray: ...

    @abc.abstractmethod
    def hessian(self, point) -> SymmetricMatrix: ...

    def gradient_and_hessian(self, point):
        """Both derivatives at once; overridden where a fused path is cheaper."""
        return self.gradient(point), self.hessian(point)

    def classify(self, point, tol: float) -> LimitClass:
        """Terminal classification; the generic fallback knows no roots."""
        x = np.asarray(point, dtype=float)
        if float(np.linalg.norm(x)) > self.divergence_radius:
            return DIVERGED
        return UNDECIDED


class PolyModulusObjective(ObjectiveFunction):
    """F(x, y) = |g(x+iy)|^2 / 2 for a complex polynomial g of degree >= 1.

    Nonnegative, zero exactly on the roots of g, and with compact sublevel
    sets, so descent iterations cannot escape to infinity.
    """

    dimension = 2

    def __init__(self, g: Polynomial):
        if g.degree < 1:
            raise ValueError("polynomial-modulus objective needs degree >= 1")
        self.g = g
        self.dg = g.derivative()
        self.ddg = self.dg.derivative()
        self.divergence_radius = 1e8 * (1.0 + g.cauchy_root_bound())
        self._roots = None
        self._critical_points = None

    def value(self, point) -> float:
        gz = self.g(complex(point[0], point[1]))
        return 0.5 * (gz.real * gz.real + gz.imag * gz.imag)

    def gradient(self, point) -> np.ndarray:
        z = complex(point[0], point[1])
        return _modulus_gradient(self.g(z), self.dg(z))

    def hessian(self, point) -> SymmetricMatrix:
        z = complex(point[0], point[1])
        return _modulus_hessian(self.g(z), self.dg(z), self.ddg(z))

    def gradient_and_hessian(self, point):
        z = complex(point[0], point[1])
        gz, dgz = self.g(z), self.dg(z)
        return _modulus_gradient(gz, dgz), _modulus_hessian(gz, dgz, self.ddg(z))

    def roots(self) -> tuple[complex, ...]:
        """Roots of g, computed once, in the order ``all_roots`` gives.

        Counter-clockwise from the positive real axis, nearest first on one ray.
        """
        if self._roots is None:
            self._roots = tuple(all_roots(self.g, _ROOT_TOL))
        return self._roots

    def critical_points(self) -> tuple[complex, ...]:
        """Roots of g' (empty for degree-1 polynomials)."""
        if self._critical_points is None:
            if self.dg.degree < 1:
                self._critical_points = ()
            else:
                self._critical_points = tuple(all_roots(self.dg, _ROOT_TOL))
        return self._critical_points

    def classify(self, point, tol: float) -> LimitClass:
        return classify_limit(self, point, tol)

    def classify_roots_only(self, point, tol: float) -> LimitClass:
        """Classification against roots of g alone (for the 1-D iterations)."""
        return _classify(self, point, tol, roots_only=True)

    @np.errstate(over="ignore")
    def classify_many(self, x, y, tol: float, roots_only: bool = False):
        """``classify_limit`` of every point (x[i], y[i]) in one numpy pass,
        or ``classify_roots_only`` where ``roots_only`` is set.

        Returns ``(labels, table)``.  ``table`` holds UNDECIDED, DIVERGED,
        one class per root and one per critical point, ``.point`` included;
        ``labels[i]`` indexes the class that ``classify_limit`` gives point
        i, or is -1 where it raises ``BnqnError`` because the root finder
        failed: every point when the roots of g fail, and the points that
        match no root when only the roots of g' fail.  Distances are
        ``numpy.hypot``, which rounds as ``linalg.hypot`` (the C library's
        ``hypot``) does, so ties, NaN and distances that overflow to inf
        resolve as in the scalar path.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        labels = np.full(len(x), -1)
        table = (UNDECIDED, DIVERGED)
        try:
            roots = self.roots()
        except BnqnError:
            return labels, table
        index, dist = _nearest_many(roots, x, y)
        near = (index >= 0) & (dist <= tol)
        labels[near] = len(table) + index[near]
        table += tuple(map(LimitClass.root, range(len(roots))))
        rest = np.flatnonzero(~near)
        if not rest.size:
            return labels, table
        try:
            crits = () if roots_only else self.critical_points()
        except BnqnError:
            return labels, table
        x, y = x[rest], y[rest]
        index, dist = _nearest_many(crits, x, y)
        far = np.hypot(x, y) > self.divergence_radius
        near = (index >= 0) & (dist <= tol)
        labels[rest] = np.where(near, len(table) + index, np.where(far, 1, 0))  # DIVERGED, UNDECIDED
        return labels, table + tuple(map(LimitClass.critical, crits))


def _nearest(candidates, z):
    best_index = -1
    best_dist = math.inf
    for i, c in enumerate(candidates):
        w = z - c
        d = hypot(w.real, w.imag)
        if d < best_dist:
            best_index = i
            best_dist = d
    return best_index, best_dist


def _nearest_many(candidates, x, y):
    """``_nearest`` per point: the first candidate at the least distance."""
    best_index = np.full(len(x), -1)
    best_dist = np.full(len(x), math.inf)
    for i, c in enumerate(candidates):
        d = np.hypot(x - c.real, y - c.imag)
        closer = d < best_dist
        best_index[closer] = i
        best_dist[closer] = d[closer]
    return best_index, best_dist


def classify_limit(obj: PolyModulusObjective, point, tol: float = CLASS_TOL) -> LimitClass:
    """Classify the terminal point of a converged run.

    Root wins over CriticalNonRoot when both are within tol (a multiple root
    is still a root); Diverged needs the point outside the divergence radius;
    anything else is Undecided.
    """
    return _classify(obj, point, tol, roots_only=False)


def _classify(obj: PolyModulusObjective, point, tol: float, roots_only: bool) -> LimitClass:
    """``classify_limit``, or ``classify_roots_only`` where ``roots_only`` is
    set, which never asks for the critical points.  A match needs a nearest
    candidate: with no distance below inf (none given, or NaN), even an
    infinite ``tol`` matches nothing."""
    z = complex(point[0], point[1])
    index, dist = _nearest(obj.roots(), z)
    if index >= 0 and dist <= tol:
        return LimitClass.root(index)
    if not roots_only:
        crits = obj.critical_points()
        index, dist = _nearest(crits, z)
        if index >= 0 and dist <= tol:
            return LimitClass.critical(crits[index])
    if hypot(z.real, z.imag) > obj.divergence_radius:
        return DIVERGED
    return UNDECIDED


class BilinearTestObjective(ObjectiveFunction):
    """F(x, y) = x*y: one saddle at the origin, constant Hessian."""

    dimension = 2

    def value(self, point) -> float:
        return float(point[0]) * float(point[1])

    def gradient(self, point) -> np.ndarray:
        return np.array([float(point[1]), float(point[0])])

    def hessian(self, point) -> SymmetricMatrix:
        return SymmetricMatrix(2, (0.0, 1.0, 0.0))


class RationalModulusObjective(ObjectiveFunction):
    """F(x, y) = |g(x+iy)|^2 / 2 for a rational g = P/Q.

    Built for the P/P' quotient, whose zeros are those of P with all
    multiplicities reduced to one.  Evaluation at a pole of g returns +inf
    for ``value``; derivative calls there are undefined.
    """

    dimension = 2

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if numerator.degree < 1:
            raise ValueError("numerator must have degree >= 1")
        if denominator.is_zero:
            raise ValueError("denominator must be nonzero")
        self.p = numerator
        self.q = denominator
        self.dp = numerator.derivative()
        self.ddp = self.dp.derivative()
        self.dq = denominator.derivative()
        self.ddq = self.dq.derivative()
        self.divergence_radius = 1e8 * (1.0 + numerator.cauchy_root_bound())

    @classmethod
    def newton_quotient(cls, p: Polynomial) -> "RationalModulusObjective":
        """g = P/P'; simple zeros exactly at the zeros of P."""
        return cls(p, p.derivative())

    def _g_series(self, z):
        """g, g', g'' at z via the quotient rule."""
        pz, qz = self.p(z), self.q(z)
        dpz, dqz = self.dp(z), self.dq(z)
        ddpz, ddqz = self.ddp(z), self.ddq(z)
        g = pz / qz
        dg = (dpz * qz - pz * dqz) / (qz * qz)
        ddg = (ddpz / qz) - (2.0 * dpz * dqz + pz * ddqz) / (qz * qz) + (
            2.0 * pz * dqz * dqz
        ) / (qz * qz * qz)
        return g, dg, ddg

    def value(self, point) -> float:
        z = complex(point[0], point[1])
        qz = self.q(z)
        if qz == 0:
            return math.inf
        gz = self.p(z) / qz
        return 0.5 * (gz.real * gz.real + gz.imag * gz.imag)

    def gradient(self, point) -> np.ndarray:
        g, dg, _ = self._g_series(complex(point[0], point[1]))
        return _modulus_gradient(g, dg)

    def hessian(self, point) -> SymmetricMatrix:
        return _modulus_hessian(*self._g_series(complex(point[0], point[1])))
