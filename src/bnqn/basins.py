"""Basin-of-attraction sweeps: per-point runs over a grid, plus exports.

Each grid point is an independent solver run.  BNQN and backtracking GD
advance every point together in one serial sweep of the lockstep kernel in
``bnqn.lockstep``; the other methods run point by point, parallelized over
rows on a process pool (capped by the BNQN_THREADS environment variable).
Output goes to binary PPM images (escape-time shaded) and CSV tables.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, replace

import numpy as np

from . import lockstep
from .complexpoly import Polynomial, RelaxationDisk
from .errors import BnqnError
from .objective import UNDECIDED, LimitClass, PolyModulusObjective
from .solvers import Method, SolverConfig, run

__all__ = [
    "BasinMap",
    "GridSpec",
    "degree2_reference",
    "export_csv",
    "export_ppm",
    "render_basin",
    "worker_count",
]

# Fixed palette: root basins by root index (cycled), criticals black,
# divergent white, undecided gray.
ROOT_COLORS = (
    (230, 60, 60),
    (60, 120, 230),
    (70, 190, 90),
    (235, 185, 60),
    (165, 85, 210),
    (60, 200, 200),
    (240, 130, 50),
    (130, 130, 240),
)
CRITICAL_COLOR = (0, 0, 0)
DIVERGED_COLOR = (255, 255, 255)
UNDECIDED_COLOR = (128, 128, 128)


def worker_count() -> int:
    """Worker cap: BNQN_THREADS when set, else the available parallelism."""
    env = os.environ.get("BNQN_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValueError(f"BNQN_THREADS must be an integer, got {env!r}") from exc
        return max(1, n)
    return os.cpu_count() or 1


@dataclass(frozen=True)
class GridSpec:
    """Corner-inclusive rectangular sampling grid.

    Sample (i, j) sits at the convex combination
    (x_min*(nx-1-i) + x_max*i)/(nx-1), which keeps the endpoints exact and
    puts a sample exactly on zero whenever the window is symmetric and the
    index count is odd.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window must satisfy x_min < x_max and y_min < y_max")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("resolution must be positive")

    def x_coord(self, i: int) -> float:
        if self.nx == 1:
            return self.x_min
        k = self.nx - 1
        return (self.x_min * (k - i) + self.x_max * i) / k

    def y_coord(self, j: int) -> float:
        if self.ny == 1:
            return self.y_min
        k = self.ny - 1
        return (self.y_min * (k - j) + self.y_max * j) / k

    def point(self, i: int, j: int) -> tuple[float, float]:
        return self.x_coord(i), self.y_coord(j)


@dataclass
class BasinMap:
    """Per-grid-point terminal classes and iteration counts, indexed [i][j]."""

    grid: GridSpec
    classes: list[list[LimitClass]]
    iterations: np.ndarray

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for column in self.classes:
            for cls in column:
                counts[str(cls)] = counts.get(str(cls), 0) + 1
        return counts


# Worker-process state for the sweep pool (populated by the initializer).
_SWEEP: dict = {}

# Lockstep sweeps hand their last lanes to the scalar ``run``.  A sweep costs
# about the same for 1 to 32 lanes (0.2-0.55 ms on one core, for degree 3
# and 8, BNQN and BTGD), while a scalar step costs 19-38 us, so the kernel
# only wins above 9-17 lanes; 12 sits in that break-even range.
_TAIL_LANES = 12


def _sweep_init(coeffs, method_value, cfg, grid, class_tol, rho):
    _SWEEP["obj"] = PolyModulusObjective(Polynomial(coeffs))
    _SWEEP["method"] = Method(method_value)
    _SWEEP["cfg"] = cfg
    _SWEEP["grid"] = grid
    _SWEEP["class_tol"] = class_tol
    _SWEEP["rho"] = rho


def _cell_rng(seed: int, i: int, j: int) -> np.random.Generator:
    """The random relaxed variant's generator for grid cell (i, j)."""
    return np.random.default_rng((seed, i, j))


def _sweep_point(obj, method, cfg, grid, i, j, class_tol, rho):
    rng = None
    relaxation = None
    if method is Method.RANDOM_RELAXED_NEWTON_1D:
        rng = _cell_rng(cfg.seed if cfg.seed is not None else 0, i, j)
        relaxation = RelaxationDisk(rho)
    try:
        trace = run(
            obj,
            grid.point(i, j),
            method,
            cfg,
            rng=rng,
            relaxation=relaxation,
            class_tol=class_tol,
        )
    except BnqnError:
        return UNDECIDED, cfg.max_iter
    return trace.terminal, trace.iterations


def _lockstep_outcome(obj, method, cfg, class_tol, x, y, steps, code):
    """(class, iterations) of one lane that left the lockstep kernel."""
    if code == lockstep.CAPPED or code == lockstep.FAILED:
        return UNDECIDED, steps
    try:
        if code == lockstep.STOPPED:
            return obj.classify((x, y), class_tol), steps
        # the run loop keeps no state besides z and the step count, so
        # finishing the lane from its current point is exact
        rest = replace(cfg, max_iter=cfg.max_iter - steps)
        trace = run(obj, (x, y), method, rest, class_tol=class_tol)
    except BnqnError:
        return UNDECIDED, cfg.max_iter
    return trace.terminal, trace.iterations + steps


def _sweep_row(i: int):
    grid = _SWEEP["grid"]
    out = []
    for j in range(grid.ny):
        out.append(
            _sweep_point(
                _SWEEP["obj"],
                _SWEEP["method"],
                _SWEEP["cfg"],
                grid,
                i,
                j,
                _SWEEP["class_tol"],
                _SWEEP["rho"],
            )
        )
    return out


def _lockstep_rows(obj, method, cfg, grid, class_tol):
    """Every row of (class, iterations) cells, from one lockstep sweep."""
    x0 = np.repeat([grid.x_coord(i) for i in range(grid.nx)], grid.ny)
    y0 = np.tile([grid.y_coord(j) for j in range(grid.ny)], grid.nx)
    lanes = lockstep.iterate(obj, method, cfg, x0, y0, _TAIL_LANES)
    cells = [
        _lockstep_outcome(obj, method, cfg, class_tol, *lane)
        for lane in zip(*(a.tolist() for a in lanes))
    ]
    return [cells[i * grid.ny:(i + 1) * grid.ny] for i in range(grid.nx)]


def render_basin(
    g: Polynomial,
    grid: GridSpec,
    method: Method,
    cfg: SolverConfig | None = None,
    *,
    class_tol: float = 1e-6,
    rho: float = 0.7,
    workers: int | None = None,
) -> BasinMap:
    """Run the method from every grid point and classify the outcomes.

    BNQN and backtracking GD advance all cells together in one serial
    lockstep sweep (``bnqn.lockstep``), which reproduces the scalar ``run``
    bit for bit, so ``workers`` does not apply to them; the other methods run
    each cell through ``run``, one row per pool task.

    Deterministic given cfg.seed: the random relaxed variant seeds cell
    (i, j) with ``default_rng((seed, i, j))``.  Per-point failures land as
    Undecided; the sweep never aborts.
    """
    if cfg is None:
        cfg = SolverConfig()
    method = Method(method)
    if workers is None:
        workers = worker_count()
    workers = max(1, min(workers, grid.nx))

    if method in lockstep.LOCKSTEP_METHODS:
        obj = PolyModulusObjective(Polynomial(g.coeffs))
        rows = _lockstep_rows(obj, method, cfg, grid, class_tol)
    else:
        init_args = (tuple(g.coeffs), method.value, cfg, grid, class_tol, rho)
        if workers == 1 or grid.nx * grid.ny < 1024:
            _sweep_init(*init_args)
            rows = [_sweep_row(i) for i in range(grid.nx)]
        else:
            with multiprocessing.Pool(workers, initializer=_sweep_init, initargs=init_args) as pool:
                rows = pool.map(_sweep_row, range(grid.nx))

    classes = [[cell[0] for cell in row] for row in rows]
    iterations = np.array([[cell[1] for cell in row] for row in rows], dtype=int)
    return BasinMap(grid, classes, iterations)


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
    iterations = np.zeros((grid.nx, grid.ny), dtype=int)
    return BasinMap(grid, classes, iterations)


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
