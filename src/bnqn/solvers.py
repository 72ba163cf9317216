"""Iterative minimization methods and the shared run loop.

The centerpiece is BNQN (backtracking New Q-Newton's method) in its
theta-capped "new variant" form: shift the Hessian by delta_j * |grad|^tau
until the smallest absolute eigenvalue clears kappa * |grad|^tau, solve with
the eigenvalue-reflected matrix, cap the direction by theta, and backtrack
with the Armijo third-rule.  theta=0 gives the compact-sublevel flavor,
theta=1 the general one.

Also here: the line-search-free precursor NQN, plain Newton optimization,
backtracking gradient descent, and the one-complex-variable Newton /
random relaxed Newton iterations, all driven by the same trace-producing
``run`` loop.  ``run`` looks its method up once in one method -> step table
(``_STEPS``) and makes one step call per iteration; BNQN and gradient
descent share one Armijo backtracking helper.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .complexpoly import newton_map_1d, relaxed_newton_map
from .errors import BnqnError, LineSearchUnderflow, NoAdmissibleDelta, SingularMatrix
from .linalg import SymmetricMatrix, hypot, minsp, reflected_direction
from .objective import CLASS_TOL, UNDECIDED, LimitClass, ObjectiveFunction, PolyModulusObjective, _check_class_tol
from .streams import check_bounds, sample_relaxed_alpha, seed_key

__all__ = [
    "IterationTrace",
    "Method",
    "SolverConfig",
    "export_trace_csv",
    "random_deltas",
    "run",
    "select_delta",
]

_UNDERFLOW_LIMIT = 1e-300
# The paper's Armijo rule: accept a step that gains a third of its slope,
# else shrink gamma by a third
_ARMIJO_FACTOR = 1.0 / 3.0
_SHRINK_FACTOR = 1.0 / 3.0


class Method(enum.Enum):
    NEWTON_OPT = "newton-opt"
    NQN = "nqn"
    BNQN_NEW_VARIANT = "bnqn"
    BACKTRACKING_GD = "btgd"
    NEWTON_1D = "newton1d"
    RANDOM_RELAXED_NEWTON_1D = "rrn1d"


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by the iteration methods.

    ``deltas`` are the candidate Hessian shifts (pairwise distinct; supply
    m+1 of them for an m-dimensional objective so admissibility is
    guaranteed).  ``kappa`` is derived: half the minimal gap between shifts.
    ``seed`` and ``rho``, the radius of the disk |alpha - 1| <= rho from
    which random relaxed Newton draws its factors, are read by rrn1d alone
    but checked for every method.
    """

    deltas: tuple[float, ...] = (0.0, 1.0, -1.0)
    tau: float = 1.0
    theta: float = 0.0
    gamma0: float = 1.0
    grad_tol: float = 1e-10
    max_iter: int = 10000
    seed: int = 0
    rho: float = 0.7
    kappa: float = field(init=False, compare=False)

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        if len(deltas) < 2:
            raise ValueError("need at least two candidate shifts")
        if not all(map(math.isfinite, deltas)):
            raise ValueError("shift candidates must be finite")
        gap = min(abs(a - b) for a, b in itertools.combinations(deltas, 2))
        if gap == 0.0:
            raise ValueError("shift candidates must be pairwise distinct")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        # not x >= 0 also rejects NaN; theta = inf stays allowed
        if not self.theta >= 0:
            raise ValueError("theta must be nonnegative")
        if not 0.0 < self.gamma0 <= 1.0:
            raise ValueError("gamma0 must lie in (0, 1]")
        if not self.grad_tol >= 0:
            raise ValueError("grad_tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        seed_key(self.seed)  # rejects a negative seed
        if not 0.5 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0.5, 1), got {self.rho}")
        object.__setattr__(self, "kappa", 0.5 * gap)


def random_deltas(count: int, seed) -> tuple[float, ...]:
    """Seeded shift candidates, uniform in [-1, 1] with pairwise gap >= 0.1.

    The draw is direct: ``count`` sorted uniforms on a range 0.1*(count - 1)
    shorter than [-1, 1], the k-th smallest moved up by 0.1*k, in a seeded
    order.  The range stops 1e-12 short of that, and a sum that rounds a gap
    below 0.1 moves up by ulps, so the largest shift stays below 1.0.
    """
    if count < 2:
        raise ValueError("need at least two shifts")
    if count > 20:
        raise ValueError("cannot fit that many 0.1-separated shifts in [-1, 1]")
    rng = np.random.default_rng(seed)
    out: list[float] = []
    for k, u in enumerate(sorted(rng.uniform(-1.0, 1.0 - 0.1 * (count - 1) - 1e-12, count).tolist())):
        d = u + 0.1 * k
        while out and d - out[-1] < 0.1:
            d = math.nextafter(d, math.inf)
        out.append(d)
    return tuple(out[i] for i in rng.permutation(count).tolist())


@dataclass
class IterationTrace:
    """Full record of one run.

    ``points`` has one more entry than the per-step lists ``step_sizes`` and
    ``delta_indices``; ``grad_norms`` aligns with ``points`` (the gradient
    norm at each visited point, so every entry but possibly the last is
    positive).  ``delta_index`` is -1 for methods that do not shift the
    Hessian.  ``failure`` carries the diagnostic when a step raised instead
    of finishing.
    """

    points: list[np.ndarray]
    step_sizes: list[float]
    delta_indices: list[int]
    grad_norms: list[float]
    terminal: LimitClass
    converged: bool
    failure: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.step_sizes)

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]


def _norm(v) -> float:
    if len(v) == 2:
        x, y = v.tolist()
        return hypot(x, y)
    return float(np.linalg.norm(v))


def _dot(u, v) -> float:
    if len(u) == 2:
        ux, uy = u.tolist()
        vx, vy = v.tolist()
        return ux * vx + uy * vy
    return float(np.dot(u, v))


def _shift_scale(grad_norm: float, tau: float) -> float:
    """|grad|**tau, the scale of the Hessian shifts and of the kappa bar.

    Python's float ``**`` raises ``OverflowError`` where the power
    overflows; the scale is inf there, as ``linalg.hypot`` gives inf.
    ``invariance.transform_config`` takes its factor c**(2 - tau) here too.
    """
    try:
        return grad_norm**tau
    except OverflowError:
        return math.inf


def select_delta(hess: SymmetricMatrix, grad_norm: float, cfg: SolverConfig):
    """Smallest shift index whose perturbed Hessian clears the minsp bar.

    Returns ``(j, hess + deltas[j] * grad_norm**tau * Id)``.  With m+1
    pairwise distinct candidates for an m-dimensional Hessian a winner always
    exists (each eigenvalue can disqualify at most one shift).
    """
    scale = _shift_scale(grad_norm, cfg.tau)
    threshold = cfg.kappa * scale
    for j, d in enumerate(cfg.deltas):
        shifted = hess.shifted(d * scale)
        if minsp(shifted) >= threshold:
            return j, shifted
    raise NoAdmissibleDelta(
        f"no shift in {cfg.deltas} reaches minsp >= {threshold:.3e}"
    )


def _armijo(f, z, w_hat, grad, cfg: SolverConfig):
    """Backtrack gamma from cfg.gamma0 until the Armijo third-rule test passes.

    Returns ``(z - gamma * w_hat, gamma)``; requires <w_hat, grad> > 0,
    which guarantees termination.
    """
    # Accept via f(trial) <= f(z) - gamma*slope/3 rather than the difference
    # form f(trial) - f(z) <= -gamma*slope/3: the two agree in exact
    # arithmetic, but near a critical point with f > 0 the true decrease can
    # sit below one ulp of f(z), where the difference form can never pass.
    slope = _dot(w_hat, grad)
    f_z = f.value(z)
    gamma = cfg.gamma0
    while True:
        trial = z - gamma * w_hat
        if f.value(trial) <= f_z - gamma * slope * _ARMIJO_FACTOR:
            return trial, gamma
        gamma = gamma * _SHRINK_FACTOR
        if gamma < _UNDERFLOW_LIMIT:
            raise LineSearchUnderflow(
                "step size underflow; direction is not a descent direction or values are NaN"
            )


# Every step takes (f, z, grad, grad_norm, hess, cfg, draw) and returns
# (z_next, gamma, delta_index); hess is None for the methods that need none,
# and draw, the (key, trial, step) of the step's relaxation factor, is read
# by rrn1d alone.

def _bnqn_step(f, z, grad, grad_norm, hess, cfg, draw):
    j, shifted = select_delta(hess, grad_norm, cfg)
    w = reflected_direction(shifted, grad)
    return *_armijo(f, z, w / max(1.0, cfg.theta * _norm(w)), grad, cfg), j


def _btgd_step(f, z, grad, grad_norm, hess, cfg, draw):
    return *_armijo(f, z, grad / max(1.0, cfg.theta * grad_norm), grad, cfg), -1


def _nqn_step(f, z, grad, grad_norm, hess, cfg, draw):
    """Full reflected step, no line search, on the first shift that leaves
    the Hessian finite with a determinant other than 0.0."""
    scale = _shift_scale(grad_norm, cfg.tau)
    for j, d in enumerate(cfg.deltas):
        shifted = hess.shifted(d * scale)
        if all(map(math.isfinite, shifted.upper)) and _determinant(shifted) != 0.0:
            break
    else:
        raise NoAdmissibleDelta(f"every shift in {cfg.deltas} left the matrix singular or non-finite")
    return z - reflected_direction(shifted, grad), 1.0, j


def _determinant(matrix: SymmetricMatrix) -> float:
    if matrix.dim == 2:
        a, b, c = matrix.upper
        return a * c - b * b
    return float(np.linalg.det(matrix.full()))


def _newton_opt_step(f, z, grad, grad_norm, hess, cfg, draw):
    """Classical Newton optimization step z - H^-1 grad."""
    if not all(map(math.isfinite, hess.upper)):
        raise SingularMatrix(f"Hessian has a non-finite entry at {z}")
    try:
        step = np.linalg.solve(hess.full(), grad)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"Hessian is singular at {z}") from exc
    return z - step, 1.0, -1


def _newton_1d_step(f, z, grad, grad_norm, hess, cfg, draw):
    w = newton_map_1d(f.g, complex(z[0], z[1]))
    return np.array([w.real, w.imag]), 1.0, -1


def _relaxed_newton_1d_step(f, z, grad, grad_norm, hess, cfg, draw):
    w = relaxed_newton_map(f.g, complex(z[0], z[1]), sample_relaxed_alpha(cfg.rho, *draw))
    return np.array([w.real, w.imag]), 1.0, -1


# Method -> (needs_hessian, step)
_STEPS = {
    Method.BNQN_NEW_VARIANT: (True, _bnqn_step),
    Method.BACKTRACKING_GD: (False, _btgd_step),
    Method.NQN: (True, _nqn_step),
    Method.NEWTON_OPT: (True, _newton_opt_step),
    Method.NEWTON_1D: (False, _newton_1d_step),
    Method.RANDOM_RELAXED_NEWTON_1D: (False, _relaxed_newton_1d_step),
}
_ONE_DIM = (Method.NEWTON_1D, Method.RANDOM_RELAXED_NEWTON_1D)


def run(
    f: ObjectiveFunction,
    z0,
    method: Method,
    cfg: SolverConfig | None = None,
    *,
    trial: int = 0,
    class_tol: float = CLASS_TOL,
) -> IterationTrace:
    """Iterate ``method`` from ``z0`` until convergence, divergence, or the cap.

    Convergence means |grad F| <= cfg.grad_tol.  Points beyond the
    objective's divergence radius classify as Diverged; hitting max_iter
    leaves the trace Undecided.  Step failures are captured in
    ``IterationTrace.failure`` rather than raised.

    The one-complex-variable methods need a polynomial-modulus objective and
    iterate its polynomial directly; the random relaxed variant draws a fresh
    relaxation factor per step from the disk |alpha - 1| <= cfg.rho, step
    k's a pure function of (cfg.seed, ``trial``, k) (``bnqn.streams``); a
    ``trial`` or ``cfg.max_iter`` past ``streams.check_bounds`` raises
    ``ValueError``.
    """
    _check_class_tol(class_tol)
    if cfg is None:
        cfg = SolverConfig()
    method = Method(method)
    z = np.array([float(v) for v in z0], dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"initial point must be finite, got {z0!r}")

    needs_hessian, step = _STEPS[method]
    one_dim = method in _ONE_DIM
    if one_dim:
        if not isinstance(f, PolyModulusObjective):
            raise TypeError("the one-variable methods need a PolyModulusObjective")
        if len(z) != 2:
            raise ValueError("the one-variable methods iterate in the complex plane")
    if method is Method.RANDOM_RELAXED_NEWTON_1D:
        check_bounds(cfg.max_iter, trial)
    key = seed_key(cfg.seed)

    points = [z]
    step_sizes: list[float] = []
    delta_indices: list[int] = []
    grad_norms: list[float] = []
    converged = False
    hit_cap = False
    failure = None

    # an Armijo trial z - gamma*w may overflow to inf, which fails its test,
    # and an objective's Hessian may hold inf - inf (a ConjugatedObjective's
    # pair average), whose NaN fails the step; numpy must warn about neither,
    # and one errstate serves every step
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if needs_hessian:
                grad, hess = f.gradient_and_hessian(z)
            else:
                grad = f.gradient(z)
                hess = None
            gn = _norm(grad)
            grad_norms.append(gn)
            if gn <= cfg.grad_tol:
                converged = True
                break
            if _norm(z) > f.divergence_radius:
                break
            if len(step_sizes) >= cfg.max_iter:
                hit_cap = True
                break
            try:
                z_next, gamma, dj = step(f, z, grad, gn, hess, cfg, (key, trial, len(step_sizes)))
            except BnqnError as exc:
                failure = f"{type(exc).__name__}: {exc}"
                break
            points.append(z_next)
            step_sizes.append(gamma)
            delta_indices.append(dj)
            z = z_next

    if failure is not None:
        terminal = UNDECIDED
        converged = False
    elif hit_cap:
        terminal = UNDECIDED
    elif one_dim:
        terminal = f.classify_roots_only(z, class_tol)
    else:
        terminal = f.classify(z, class_tol)
    return IterationTrace(
        points, step_sizes, delta_indices, grad_norms, terminal, converged, failure
    )


def export_trace_csv(trace: IterationTrace, path) -> None:
    """Write a 2-D trace as CSV rows ``k,x,y,gamma,delta_index,grad_norm``.

    One row per visited point; the step columns are empty on the terminal
    row, and the terminal classification follows as a ``# terminal=...``
    comment line.
    """
    if len(trace.points[0]) != 2:
        raise ValueError("trace export is defined for 2-dimensional runs")
    lines = ["k,x,y,gamma,delta_index,grad_norm"]
    n = len(trace.step_sizes)
    for k, point in enumerate(trace.points):
        x, y = float(point[0]), float(point[1])
        gn = f"{trace.grad_norms[k]:.17g}" if k < len(trace.grad_norms) else ""
        if k < n:
            lines.append(
                f"{k},{x:.17g},{y:.17g},{trace.step_sizes[k]:.17g},{trace.delta_indices[k]},{gn}"
            )
        else:
            lines.append(f"{k},{x:.17g},{y:.17g},,,{gn}")
    lines.append(f"# terminal={trace.terminal}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
