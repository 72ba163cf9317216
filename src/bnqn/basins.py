"""Basin-of-attraction sweeps: per-point runs over a grid, plus exports.

Each grid point is an independent solver run.  Every method advances the
points together in one serial pass of the lockstep kernel in
``bnqn.lockstep``, which ends each cell exactly where the scalar ``run``
would, and the stopped cells are then classified in one numpy pass.  For a
g with real coefficients on a window symmetric about the real axis, the
pass runs only the rows with y >= 0 and mirrors the others, since the
kernel commutes exactly with y -> -y there.
A map holds one integer label per cell, indexing a small table of classes,
so the exports and the class counts work on arrays, not on one Python
object per cell.  Output goes to binary PPM images (escape-time shaded)
and CSV tables.  The random relaxed Newton experiment (``bnqn rrn``) runs
its trials through the same kernel and the same labelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lockstep, streams
from .complexpoly import Polynomial
from .objective import CLASS_TOL, LimitClass, PolyModulusObjective, _check_class_tol
from .solvers import _ONE_DIM, Method, SolverConfig

__all__ = [
    "BasinMap",
    "GridSpec",
    "RrnReport",
    "degree2_reference",
    "export_csv",
    "export_ppm",
    "render_basin",
    "run_rrn_experiment",
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


def _sample(lo: float, hi: float, i: int, n: int) -> float:
    """The i-th of n corner-inclusive samples of [lo, hi]."""
    if n == 1:
        return lo
    k = n - 1
    v = (lo * (k - i) + hi * i) / k
    if not math.isfinite(v):  # the weighted sum overflowed
        v = 2.0 * ((0.5 * lo) * ((k - i) / k) + (0.5 * hi) * (i / k))
        v = min(max(v, lo), hi)
    return v


@dataclass(frozen=True)
class GridSpec:
    """Corner-inclusive rectangular sampling grid.

    Sample (i, j) sits at the convex combination
    (x_min*(nx-1-i) + x_max*i)/(nx-1), which keeps the endpoints exact and
    puts a sample exactly on zero whenever the window is symmetric and the
    index count is odd.  Where that weighted sum overflows (windows wider
    than about +-9e307), the halved bounds are weighted by fractions instead,
    so every sample of a finite window is finite.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError("window bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window must satisfy x_min < x_max and y_min < y_max")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("resolution must be positive")

    def x_coord(self, i: int) -> float:
        return _sample(self.x_min, self.x_max, i, self.nx)

    def y_coord(self, j: int) -> float:
        return _sample(self.y_min, self.y_max, j, self.ny)

    def point(self, i: int, j: int) -> tuple[float, float]:
        return self.x_coord(i), self.y_coord(j)


@dataclass(frozen=True)
class BasinMap:
    """Per-grid-point terminal classes and iteration counts, indexed [i, j].

    ``labels[i, j]`` indexes ``table``, which holds each class at most once
    (an entry may label no cell); every critical point is its own entry
    and keeps its ``.point``.
    """

    grid: GridSpec
    table: tuple[LimitClass, ...]
    labels: np.ndarray
    iterations: np.ndarray

    @classmethod
    def from_classes(cls, grid: GridSpec, classes, iterations) -> "BasinMap":
        """The map of ``classes[i][j]``, one table entry per distinct
        (kind, root_index, point)."""
        entries: dict = {}
        labels = [
            entries.setdefault((c.kind, c.root_index, c.point), (len(entries), c))[0]
            for column in classes
            for c in column
        ]
        table = tuple(c for _, c in entries.values())
        return cls(grid, table, np.array(labels).reshape(grid.nx, grid.ny), np.asarray(iterations))

    @cached_property
    def classes(self) -> list[list[LimitClass]]:
        """``table[labels]`` as lists, built on first use."""
        return np.array(self.table, dtype=object)[self.labels].tolist()

    def class_counts(self) -> dict[str, int]:
        # equal classes print alike (CriticalNonRoot equality ignores .point)
        counts: dict[str, int] = {}
        for cls, n in zip(self.table, np.bincount(self.labels.ravel(), minlength=len(self.table)).tolist()):
            if n:
                counts[str(cls)] = counts.get(str(cls), 0) + n
        return counts


def render_basin(
    g: Polynomial,
    grid: GridSpec,
    method: Method,
    cfg: SolverConfig | None = None,
    *,
    class_tol: float = CLASS_TOL,
) -> BasinMap:
    """Run the method from every grid point and classify the outcomes.

    The cells advance together in one serial lockstep pass
    (``bnqn.lockstep``), which reproduces the scalar ``run`` bit for bit, and
    are then labelled in one ``classify_many`` pass.

    Where every coefficient of g is real and the y samples are exact
    negations of each other (a window with y_min = -y_max), F(x, -y) =
    F(x, y) and every kernel operation commutes with y -> -y, so the pass
    runs only the rows j >= ny // 2 (the y = 0 row of an odd grid once),
    and row ny-1-j takes row j's end point with y negated, its steps and its
    outcome.  Each end point is still classified on its own: a mirrored
    limit may match a different root.  Random relaxed Newton always runs
    every cell.

    Deterministic given cfg.seed: the random relaxed variant seeds cell
    (i, j) with ``default_rng((seed, i, j))`` and draws its factors from the
    disk |alpha - 1| <= cfg.rho.
    Per-point failures land as Undecided; the sweep never aborts.
    """
    _check_class_tol(class_tol)
    if cfg is None:
        cfg = SolverConfig()
    method = Method(method)
    obj = PolyModulusObjective(Polynomial(g.coeffs))
    xs = np.array([grid.x_coord(i) for i in range(grid.nx)])
    ys = np.array([grid.y_coord(j) for j in range(grid.ny)])
    lanes = None
    half = 0
    if method is Method.RANDOM_RELAXED_NEWTON_1D:
        # each cell draws from its own stream, so no two cells mirror
        lanes = streams.TrialStreams(streams.cell_states(cfg.seed, grid.nx, grid.ny))
    elif obj.g.is_real and np.array_equal(ys[::-1], -ys):
        half = grid.ny // 2
    ends = lockstep.iterate(
        obj, method, cfg, np.repeat(xs, grid.ny - half), np.tile(ys[half:], grid.nx), streams=lanes
    )
    # the swept row that each grid row takes: row j < half mirrors row ny-1-j
    rows = np.r_[grid.ny - 1 : grid.ny - 1 - half : -1, half : grid.ny] - half
    x, y, steps, codes = (v.reshape(grid.nx, -1)[:, rows] for v in ends)
    y[:, :half] = -y[:, :half]
    ends = (v.ravel() for v in (x, y, steps, codes))
    labels, iterations, table = _lane_labels(obj, method, cfg, *ends, class_tol)
    shape = (grid.nx, grid.ny)
    return BasinMap(grid, table, labels.reshape(shape), iterations.reshape(shape))


def _lane_labels(obj, method, cfg, x, y, iterations, codes, class_tol):
    """``(labels, iterations, table)`` of lanes that ended as
    ``lockstep.iterate`` returns them, at (x, y) after ``iterations`` steps
    with outcome ``codes``, each labelled in ``classify_many``'s table as the
    scalar ``run`` classifies it."""
    # CAPPED and FAILED lanes end Undecided, table[0], after the steps they took
    labels = np.zeros(len(codes), dtype=np.intp)
    stopped = np.flatnonzero(codes == lockstep.STOPPED)
    found, table = obj.classify_many(x[stopped], y[stopped], class_tol, roots_only=method in _ONE_DIM)
    labels[stopped] = found
    # -1 marks where the scalar classification raises, and there the lane
    # records (Undecided, max_iter)
    raised = stopped[found < 0]
    labels[raised], iterations[raised] = 0, cfg.max_iter
    return labels, iterations, table


@dataclass(frozen=True)
class RrnReport:
    roots: tuple[complex, ...]
    per_root_counts: tuple[int, ...]
    trials: int

    @property
    def converged_fraction(self) -> float:
        return sum(self.per_root_counts) / self.trials


def _trial_labels(obj: PolyModulusObjective, cfg: SolverConfig, trials: int):
    """``(labels, table)`` of the trials, as ``_lane_labels`` gives them.

    Trial t draws its start and its relaxation factors from the stream of
    ``default_rng((cfg.seed, t))``, exactly as a scalar ``run`` of that trial
    would, and ends and classifies (at run's default ``class_tol``) as it does.
    """
    lanes = streams.TrialStreams(streams.trial_states(cfg.seed, trials))
    x0, y0 = lanes.uniform(-3.0, 3.0, 2)
    ends = lockstep.iterate(obj, Method.RANDOM_RELAXED_NEWTON_1D, cfg, x0, y0, streams=lanes)
    labels, _, table = _lane_labels(obj, Method.RANDOM_RELAXED_NEWTON_1D, cfg, *ends, CLASS_TOL)
    return labels, table


def run_rrn_experiment(p: Polynomial, rho: float, trials: int, max_iter: int, seed: int) -> RrnReport:
    """Sample starts uniformly in [-3, 3]^2 and iterate with a fresh random
    relaxation factor per step; count which root each trial reaches.

    Trials are independent (per-trial derived seeds) and run serially in
    lockstep; non-convergence is data, not an error.
    """
    cfg = SolverConfig(max_iter=max_iter, seed=seed, rho=rho)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if trials > 2**32:  # trial t's stream index is one uint32 word
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    obj = PolyModulusObjective(p)
    roots = obj.roots()
    labels, _ = _trial_labels(obj, cfg, trials)
    # the table holds Undecided, Diverged, then the roots in order
    counts = np.bincount(labels, minlength=2 + len(roots))[2:]
    return RrnReport(roots, tuple(counts.tolist()), trials)


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
    # complex(x, y) - midpoint, part by part, as Python's complex subtraction
    px = np.array([grid.x_coord(i) for i in range(grid.nx)])[:, None] - midpoint.real
    py = np.array([grid.y_coord(j) for j in range(grid.ny)])[None, :] - midpoint.imag
    with np.errstate(all="ignore"):
        side = px * axis.real + py * axis.imag
        labels = np.where(np.abs(side) / axis_norm <= 1e-12, 2, np.where(side > 0, 0, 1))
    table = (LimitClass.root(0), LimitClass.root(1), LimitClass.critical(midpoint))
    return BasinMap(grid, table, labels, np.zeros((grid.nx, grid.ny), dtype=int))


def _base_color(cls: LimitClass) -> tuple[int, int, int]:
    if cls.kind == "Root":
        return ROOT_COLORS[cls.root_index % len(ROOT_COLORS)]
    return {"CriticalNonRoot": CRITICAL_COLOR, "Diverged": DIVERGED_COLOR}.get(cls.kind, UNDECIDED_COLOR)


def export_ppm(basin_map: BasinMap, path) -> None:
    """Binary PPM (P6), one pixel per grid point, top row at y_max."""
    grid = basin_map.grid
    # pixel row r holds the cells (i, ny-1-r); ravel first, since numpy 1.24
    # gives np.unique's inverse the shape of a raveled input
    labels = basin_map.labels.T[::-1].ravel()
    counts, inverse = np.unique(basin_map.iterations.T[::-1].ravel(), return_inverse=True)
    # escape-time shading, presentation only; iters=0 keeps the base color.
    # math.log1p, once per distinct count: np.log1p need not round alike
    factor = np.array([1.0 / (1.0 + 0.25 * math.log1p(n)) for n in counts.tolist()])
    base = np.array([_base_color(cls) for cls in basin_map.table], dtype=float)
    # np.rint rounds half to even, as round does
    pixels = np.rint(base[labels] * factor[inverse, None])
    payload = np.clip(pixels, 0, 255).astype(np.uint8).tobytes()
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
    # every piece but the iteration count is formatted once per row, column or class
    js = [str(j) for j in range(grid.ny)]
    ys = [f"{grid.y_coord(j):.17g}," for j in range(grid.ny)]
    kinds = [f"{cls.kind},{'' if cls.root_index is None else cls.root_index}," for cls in basin_map.table]
    lines = ["i,j,x,y,class,root_index,iterations"]
    for i, (row, counts) in enumerate(zip(basin_map.labels.tolist(), basin_map.iterations.tolist())):
        head, x = f"{i},", f",{grid.x_coord(i):.17g},"
        lines += [f"{head}{j}{x}{y}{kinds[k]}{n}" for j, y, k, n in zip(js, ys, row, counts)]
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
