"""Shared helpers for the test suite: oracles, contract checks, sweeps."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
from collections import Counter
from itertools import chain

import numpy as np

from bnqn.basins import CRITICAL_COLOR, DIVERGED_COLOR, ROOT_COLORS, UNDECIDED_COLOR, BasinMap, GridSpec
from bnqn.linalg import SymmetricMatrix, minsp, reflected_direction
from bnqn.objective import LimitClass, ObjectiveFunction, PolyModulusObjective
from bnqn.complexpoly import Polynomial
from bnqn.solvers import Method, SolverConfig, run, select_delta
from bnqn.solvers import _dot, _norm  # same arithmetic as the solver uses

WORKERS = 2


# ---------------------------------------------------------------------------
# small objectives used as fixtures

class Quadratic1D(ObjectiveFunction):
    """f(x) = x^2 / 2 on R^1."""

    dimension = 1

    def value(self, point):
        x = float(point[0])
        return 0.5 * x * x

    def gradient(self, point):
        return np.array([float(point[0])])

    def hessian(self, point):
        return SymmetricMatrix(1, (1.0,))


class Sphere(ObjectiveFunction):
    """f(z) = |z|^2 / 2 on R^m."""

    def __init__(self, dimension=2):
        self.dimension = dimension

    def value(self, point):
        p = np.asarray(point, dtype=float)
        return 0.5 * float(p @ p)

    def gradient(self, point):
        return np.asarray(point, dtype=float).copy()

    def hessian(self, point):
        return SymmetricMatrix.from_diagonal([1.0] * self.dimension)


class ShiftedQuadratic(ObjectiveFunction):
    """f(z) = (z - m)^T H (z - m) / 2 with constant positive-definite H."""

    def __init__(self, hess_full, minimizer):
        self.h = np.asarray(hess_full, dtype=float)
        self.m = np.asarray(minimizer, dtype=float)
        self.dimension = len(self.m)

    def value(self, point):
        d = np.asarray(point, dtype=float) - self.m
        return 0.5 * float(d @ self.h @ d)

    def gradient(self, point):
        d = np.asarray(point, dtype=float) - self.m
        return self.h @ d

    def hessian(self, point):
        return SymmetricMatrix.from_full(self.h)


class NaNObjective(ObjectiveFunction):
    """Pathological objective whose value is NaN away from the start."""

    dimension = 2

    def value(self, point):
        return float("nan")

    def gradient(self, point):
        return np.array([1.0, 0.0])

    def hessian(self, point):
        return SymmetricMatrix.from_diagonal([1.0, 1.0])


# ---------------------------------------------------------------------------
# finite-difference oracles

def fd_gradient(obj, point, h=1e-5):
    point = np.asarray(point, dtype=float)
    out = np.empty_like(point)
    for i in range(len(point)):
        step = np.zeros_like(point)
        step[i] = h
        out[i] = (obj.value(point + step) - obj.value(point - step)) / (2.0 * h)
    return out


def fd_hessian(obj, point, h=1e-4):
    point = np.asarray(point, dtype=float)
    m = len(point)
    out = np.empty((m, m))
    f0 = obj.value(point)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        out[i, i] = (obj.value(point + ei) - 2.0 * f0 + obj.value(point - ei)) / (h * h)
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            out[i, j] = (
                obj.value(point + ei + ej)
                - obj.value(point + ei - ej)
                - obj.value(point - ei + ej)
                + obj.value(point - ei - ej)
            ) / (4.0 * h * h)
            out[j, i] = out[i, j]
    return out


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want)) / max(1e-30, float(np.linalg.norm(want)))


def one_step(obj, z, method, cfg=None):
    """One step of ``method`` from ``z``, taken by ``run`` with max_iter=1.

    Returns ``(z_next, gamma, delta_index, grad_norm)``, the last at ``z``.
    """
    trace = run(obj, z, method, dataclasses.replace(cfg or SolverConfig(), max_iter=1))
    assert trace.failure is None and trace.iterations == 1, trace.failure
    return trace.points[1], trace.step_sizes[0], trace.delta_indices[0], trace.grad_norms[0]


def same_bits(a, b):
    """Bit for bit equal floats; NaN matches any NaN (payloads are not kept)."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


# ---------------------------------------------------------------------------
# per-step contract checks (recompute everything the solver promised)

def check_bnqn_trace(obj, trace, cfg):
    """Recompute each recorded BNQN step and count contract violations.

    Checks: recorded gradient norm and shift index match a bit-for-bit
    recomputation; minsp(A_k) >= kappa*|grad|^tau; the accepted step passes
    the Armijo test on computed values; tripling a shrunken step violates it;
    descent is strict except that computed equality is tolerated on the final
    converged step (exact landing on a critical point, below the resolution
    of f in doubles).
    """
    v = Counter()
    af = 1.0 / 3.0  # the paper's Armijo constant
    for k in range(trace.iterations):
        z = trace.points[k]
        z1 = trace.points[k + 1]
        grad, hess = obj.gradient_and_hessian(z)
        gn = _norm(grad)
        if gn != trace.grad_norms[k]:
            v["grad_norm"] += 1
        j, shifted = select_delta(hess, gn, cfg)
        if j != trace.delta_indices[k]:
            v["delta_index"] += 1
        if not (minsp(shifted) >= cfg.kappa * gn**cfg.tau):
            v["delta_contract"] += 1
        w = reflected_direction(shifted, grad)
        w_hat = w / max(1.0, cfg.theta * _norm(w))
        if cfg.theta > 0.0:
            wn = _norm(w)
            if cfg.theta * wn >= 1.0:
                if not _norm(w_hat) <= 1.0 / cfg.theta + 1e-15:
                    v["theta_cap"] += 1
            elif not np.array_equal(w_hat, w):
                v["theta_cap"] += 1
        slope = _dot(w_hat, grad)
        gamma = trace.step_sizes[k]
        fz = obj.value(z)
        fz1 = obj.value(z1)
        if not (fz1 <= fz - gamma * slope * af):
            v["armijo"] += 1
        if not fz1 < fz:
            final_converged = (k == trace.iterations - 1) and trace.converged
            if not (fz1 == fz and final_converged):
                v["monotone"] += 1
        if gamma < cfg.gamma0:
            g3 = 3.0 * gamma
            if not (obj.value(z - g3 * w_hat) > fz - g3 * slope * af):
                v["gamma3"] += 1
    return v


def check_btgd_trace(obj, trace, cfg):
    """Armijo/monotone checks for backtracking gradient descent traces."""
    v = Counter()
    af = 1.0 / 3.0  # the paper's Armijo constant
    for k in range(trace.iterations):
        z = trace.points[k]
        z1 = trace.points[k + 1]
        grad = obj.gradient(z)
        gn = _norm(grad)
        w_hat = grad / max(1.0, cfg.theta * gn)
        slope = _dot(w_hat, grad)
        gamma = trace.step_sizes[k]
        fz = obj.value(z)
        fz1 = obj.value(z1)
        if not (fz1 <= fz - gamma * slope * af):
            v["armijo"] += 1
        if not fz1 < fz:
            final_converged = (k == trace.iterations - 1) and trace.converged
            if not (fz1 == fz and final_converged):
                v["monotone"] += 1
        if gamma < cfg.gamma0:
            g3 = 3.0 * gamma
            if not (obj.value(z - g3 * w_hat) > fz - g3 * slope * af):
                v["gamma3"] += 1
    return v


# ---------------------------------------------------------------------------
# checked grid sweeps (acceptance workhorse), parallel over rows

_STATE: dict = {}


def _sweep_init(coeffs, cfg, grid, class_tol, check_half_plane):
    obj = PolyModulusObjective(Polynomial(coeffs))
    obj.roots()
    obj.critical_points()
    _STATE["obj"] = obj
    _STATE["cfg"] = cfg
    _STATE["grid"] = grid
    _STATE["class_tol"] = class_tol
    _STATE["half_plane"] = check_half_plane


def _sweep_row(i):
    obj = _STATE["obj"]
    cfg = _STATE["cfg"]
    grid = _STATE["grid"]
    results = []
    violations = Counter()
    for j in range(grid.ny):
        x, y = grid.point(i, j)
        trace = run(obj, (x, y), Method.BNQN_NEW_VARIANT, cfg, class_tol=_STATE["class_tol"])
        violations.update(check_bnqn_trace(obj, trace, cfg))
        if _STATE["half_plane"] and x != 0.0:
            sign = 1.0 if x > 0.0 else -1.0
            if any(sign * p[0] <= 0.0 for p in trace.points):
                violations["half_plane"] += 1
        results.append(
            (trace.terminal.kind, trace.terminal.root_index, trace.converged, trace.iterations)
        )
    return i, results, violations


def checked_sweep(poly, grid, cfg, class_tol=1e-6, check_half_plane=False, workers=WORKERS):
    """Run BNQN from every grid point with full per-step contract checking.

    Returns (classes, converged, iterations, violations): classes[i][j] is a
    (kind, root_index) pair, and violations is a Counter over all steps of
    all traces (empty when every contract held).
    """
    init_args = (tuple(poly.coeffs), cfg, grid, class_tol, check_half_plane)
    if workers <= 1:
        _sweep_init(*init_args)
        rows = [_sweep_row(i) for i in range(grid.nx)]
    else:
        with multiprocessing.Pool(workers, initializer=_sweep_init, initargs=init_args) as pool:
            rows = pool.map(_sweep_row, range(grid.nx))
    rows.sort(key=lambda item: item[0])
    classes = [[(kind, idx) for kind, idx, _, _ in row] for _, row, _ in rows]
    converged = [[cv for _, _, cv, _ in row] for _, row, _ in rows]
    iterations = [[it for _, _, _, it in row] for _, row, _ in rows]
    violations = Counter()
    for _, _, v in rows:
        violations.update(v)
    return classes, converged, iterations, violations


def nearest_root_index(roots, target):
    return min(range(len(roots)), key=lambda i: abs(roots[i] - complex(target)))


# ---------------------------------------------------------------------------
# the per-cell degree-2 picture: the reference that the array version,
# bnqn.basins.degree2_reference, is checked against


def degree2_reference(z1, z2, grid: GridSpec) -> BasinMap:
    """Analytic degree-2 picture: half-planes cut by the perpendicular bisector.

    Root(0) marks the z1 side, Root(1) the z2 side; points within 1e-12 of
    the bisector classify as CriticalNonRoot at the midpoint.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    if z1 == z2:
        raise ValueError("need two distinct roots")
    midpoint = 0.5 * (z1 + z2)
    axis = z1 - z2
    axis_norm = abs(axis)
    classes: list[list[LimitClass]] = []
    for i in range(grid.nx):
        column = []
        for j in range(grid.ny):
            x, y = grid.point(i, j)
            p = complex(x, y) - midpoint
            side = p.real * axis.real + p.imag * axis.imag
            if abs(side) / axis_norm <= 1e-12:
                column.append(LimitClass.critical(midpoint))
            elif side > 0:
                column.append(LimitClass.root(0))
            else:
                column.append(LimitClass.root(1))
        classes.append(column)
    return BasinMap.from_classes(grid, classes, np.zeros((grid.nx, grid.ny), dtype=int))


# ---------------------------------------------------------------------------
# per-cell basin exports and class counts: the reference that the array
# versions in bnqn.basins are checked against; they read only .grid,
# .classes[i][j] and .iterations


def class_counts(basin_map: BasinMap) -> dict[str, int]:
    # equal classes print alike (CriticalNonRoot equality ignores .point)
    counts: dict[str, int] = {}
    for cls, n in Counter(chain.from_iterable(basin_map.classes)).items():
        counts[str(cls)] = counts.get(str(cls), 0) + n
    return counts


def _pixel(cls: LimitClass, iters: int) -> bytes:
    if cls.kind == "Root":
        base = ROOT_COLORS[cls.root_index % len(ROOT_COLORS)]
    elif cls.kind == "CriticalNonRoot":
        base = CRITICAL_COLOR
    elif cls.kind == "Diverged":
        base = DIVERGED_COLOR
    else:
        base = UNDECIDED_COLOR
    # escape-time shading, presentation only; iters=0 keeps the base color
    factor = 1.0 / (1.0 + 0.25 * math.log1p(iters))
    return bytes(min(255, max(0, int(round(channel * factor)))) for channel in base)


def export_ppm(basin_map: BasinMap, path) -> None:
    """Binary PPM (P6), one pixel per grid point, top row at y_max."""
    grid = basin_map.grid
    iterations = basin_map.iterations.tolist()
    # a pixel depends only on the color slot and the iteration count
    pixels: dict = {}
    payload = bytearray()
    for j in range(grid.ny - 1, -1, -1):
        for i in range(grid.nx):
            cls, iters = basin_map.classes[i][j], iterations[i][j]
            slot = cls.root_index % len(ROOT_COLORS) if cls.kind == "Root" else None
            key = (cls.kind, slot, iters)
            pixel = pixels.get(key)
            if pixel is None:
                pixel = pixels[key] = _pixel(cls, iters)
            payload += pixel
    header = f"P6\n{grid.nx} {grid.ny}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as handle:
            handle.write(header)
            handle.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write PPM to {path}: {exc}") from exc


def export_csv(basin_map: BasinMap, path) -> None:
    """Row-major CSV: ``i,j,x,y,class,root_index,iterations``."""
    grid = basin_map.grid
    iterations = basin_map.iterations.tolist()
    ys = [f"{grid.y_coord(j):.17g}" for j in range(grid.ny)]
    lines = ["i,j,x,y,class,root_index,iterations"]
    for i in range(grid.nx):
        x = f"{grid.x_coord(i):.17g}"
        for j, (cls, iters) in enumerate(zip(basin_map.classes[i], iterations[i])):
            root_index = "" if cls.root_index is None else str(cls.root_index)
            lines.append(f"{i},{j},{x},{ys[j]},{cls.kind},{root_index},{iters}")
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
