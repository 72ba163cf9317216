import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import support

from bnqn import basins, lockstep
from bnqn.basins import (
    CRITICAL_COLOR,
    ROOT_COLORS,
    BasinMap,
    GridSpec,
    degree2_reference,
    export_csv,
    export_ppm,
    render_basin,
)
from bnqn.complexpoly import Polynomial
from bnqn.objective import DIVERGED, UNDECIDED, LimitClass, PolyModulusObjective
from bnqn.solvers import Method, SolverConfig
from bnqn.streams import TrialStreams, cell_states
from support import nearest_root_index

Z2M1 = Polynomial([-1, 0, 1])
Z2 = Polynomial([0, 0, 1])
Z3M1 = Polynomial([-1, 0, 0, 1])


def test_grid_spec_coords():
    grid = GridSpec(-2.0, 2.0, -1.0, 3.0, 5, 3)
    assert grid.x_coord(0) == -2.0 and grid.x_coord(4) == 2.0
    assert grid.x_coord(2) == 0.0  # symmetric window, odd count: exact zero
    assert grid.y_coord(0) == -1.0 and grid.y_coord(2) == 3.0
    assert grid.point(1, 1) == (-1.0, 1.0)


def test_grid_spec_odd_symmetric_hits_zero_exactly():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 201, 201)
    assert grid.x_coord(100) == 0.0
    assert grid.y_coord(100) == 0.0


def test_grid_spec_single_point():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
    assert grid.point(0, 0) == (0.0, 0.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 0, 4)


def test_grid_spec_rejects_non_finite_bounds():
    # -inf < inf passes the ordering check on its own
    with pytest.raises(ValueError, match="finite"):
        GridSpec(-math.inf, math.inf, -1.0, 1.0, 3, 3)
    for slot in range(4):
        for bad in (math.inf, -math.inf, math.nan):
            window = [-1.0, 1.0, -1.0, 1.0]
            window[slot] = bad
            with pytest.raises(ValueError, match="finite"):
                GridSpec(*window, 3, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 101, 1000])
def test_grid_spec_samples_of_the_widest_windows_stay_in_the_window(n):
    top = 1.7976931348623157e308
    # on the last window the halved, weighted bounds round to below lo
    for lo, hi in ((-1.7e308, 1.7e308), (-top, top), (1e308, top), (-top, 5.0), (math.nextafter(top, 0.0), top)):
        grid = GridSpec(lo, hi, lo, hi, n, n)
        xs = [grid.x_coord(i) for i in range(n)]
        assert all(lo <= x <= hi for x in xs), (lo, hi)
        assert xs[0] == lo and xs[-1] == hi
        assert xs == [grid.y_coord(j) for j in range(n)]
        if lo == -hi:
            assert xs == [-v for v in reversed(xs)]
            if n % 2:
                assert xs[n // 2] == 0.0


def test_grid_spec_rows_of_a_symmetric_window_are_exact_negations():
    # render_basin mirrors row j into row ny-1-j on exactly this property; on
    # the +-1.5e308 window the weighted sum overflows and the halved bounds
    # are weighted instead
    for h in (1.0, 2.0, 0.3, 5e7, 1.5e308):
        for n in range(2, 41):
            grid = GridSpec(-h, h, -h, h, n, n)
            for j in range(n):
                assert grid.y_coord(n - 1 - j) == -grid.y_coord(j), (h, n, j)
        # a single sample sits at y_min, which is not its own negation
        assert GridSpec(-h, h, -h, h, 1, 1).y_coord(0) == -h


def test_grid_spec_samples_unchanged_where_the_weighted_sum_is_finite():
    rng = np.random.default_rng(97)
    for _ in range(300):
        lo, hi = np.sort(rng.standard_normal(2) * 10.0 ** rng.integers(-300, 307, 2)).tolist()
        n = int(rng.integers(2, 400))
        grid = GridSpec(lo, hi, -1.0, 1.0, n, 2)
        k = n - 1
        for i in range(n):
            want = (lo * (k - i) + hi * i) / k
            assert grid.x_coord(i) == want or not math.isfinite(want)


@pytest.mark.parametrize("method", [Method.BNQN_NEW_VARIANT, Method.NEWTON_1D])
def test_render_basin_on_the_widest_window(method):
    # starts out near +-1.7e308 lie past the divergence radius, the origin is
    # the critical point of z^3-1 (where the Newton map has a pole)
    grid = GridSpec(-1.7e308, 1.7e308, -1.7e308, 1.7e308, 3, 3)
    basin = render_basin(Z3M1, grid, method, SolverConfig())
    kinds = [[cls.kind for cls in column] for column in basin.classes]
    centre = "CriticalNonRoot" if method is Method.BNQN_NEW_VARIANT else "Undecided"
    assert kinds == [["Diverged"] * 3, ["Diverged", centre, "Diverged"], ["Diverged"] * 3]
    assert not basin.iterations.any()


def test_degree2_reference_examples():
    grid = GridSpec(-8.0, 8.0, -8.0, 8.0, 17, 17)
    ref = degree2_reference(-1.0, 1.0, grid)
    # (0.3, 5) lies on the z2 = +1 side (label Root(1))
    # grid point (0.3, 5) is not on this grid; use the classification routine directly
    by_point = degree2_reference(-1.0, 1.0, GridSpec(0.3, 1.0, 5.0, 6.0, 2, 2))
    assert by_point.classes[0][0] == LimitClass.root(1)
    # points exactly on the bisector classify as critical
    mid_column = [ref.classes[8][j] for j in range(17)]
    assert all(c.kind == "CriticalNonRoot" for c in mid_column)
    assert all(abs(c.point) == 0.0 for c in mid_column)
    # bisector of 1+i and 3+i is x=2: (1.9, 40) is on the 1+i side (Root(0))
    near = degree2_reference(1 + 1j, 3 + 1j, GridSpec(1.9, 2.5, 40.0, 41.0, 2, 2))
    assert near.classes[0][0] == LimitClass.root(0)


def test_degree2_reference_matches_the_per_cell_reference(monkeypatch):
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(20):
        z1, z2 = (complex(*rng.uniform(-3.0, 3.0, 2).tolist()) for _ in range(2))
        (x0, y0), (w, h) = rng.uniform(-4.0, 0.0, 2).tolist(), rng.uniform(0.5, 8.0, 2).tolist()
        cases.append((z1, z2, GridSpec(x0, x0 + w, y0, y0 + h, *rng.integers(1, 40, 2).tolist())))
    # z2 = -z1 on odd symmetric grids: the bisector runs through the origin,
    # and for these z1 through whole rows of samples, each exactly on it
    for a, h, half in zip(*rng.uniform([0.1, 0.5], [3.0, 4.0], (8, 2)).T.tolist(), rng.integers(1, 20, 8).tolist()):
        for z1 in (complex(a, 0.0), complex(0.0, a), complex(a, a), complex(a, -a), complex(a, 0.3 * a)):
            cases.append((z1, -z1, GridSpec(-h, h, -h, h, 2 * half + 1, 2 * half + 1)))
    built = []
    init = LimitClass.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    critical = 0
    for z1, z2, grid in cases:
        want = support.degree2_reference(z1, z2, grid)
        built.clear()
        monkeypatch.setattr(LimitClass, "__init__", counted)
        got = degree2_reference(z1, z2, grid)
        monkeypatch.undo()
        assert len(built) <= 3, (z1, z2, grid)
        assert got.classes == want.classes, (z1, z2, grid)
        assert [c.point for col in got.classes for c in col] == [c.point for col in want.classes for c in col]
        assert np.array_equal(got.iterations, want.iterations)
        critical += sum(c.kind == "CriticalNonRoot" for col in want.classes for c in col)
    assert critical > 0


def test_degree2_reference_rejects_equal_roots():
    with pytest.raises(ValueError):
        degree2_reference(1.0, 1.0, GridSpec(-1, 1, -1, 1, 3, 3))


def test_render_basin_double_root_all_one_class():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9)
    basin = render_basin(Z2, grid, Method.BNQN_NEW_VARIANT,
                         SolverConfig(grad_tol=1e-15), class_tol=1e-5)
    roots = PolyModulusObjective(Z2).roots()
    for i in range(9):
        for j in range(9):
            cls = basin.classes[i][j]
            assert cls.is_root
            # either member of the double-root cluster names the root at 0
            assert abs(roots[cls.root_index]) <= 1e-5


def test_render_basin_degree2_matches_reference():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
    cfg = SolverConfig(max_iter=500)
    basin = render_basin(Z2M1, grid, Method.BNQN_NEW_VARIANT, cfg)
    obj = PolyModulusObjective(Z2M1)
    roots = obj.roots()
    plus = nearest_root_index(roots, 1.0)
    ref = degree2_reference(1.0, -1.0, grid)  # z1 = +1 labeled Root(0)
    for i in range(21):
        for j in range(21):
            got = basin.classes[i][j]
            want = ref.classes[i][j]
            if want.kind == "CriticalNonRoot":
                assert got.kind == "CriticalNonRoot"
            elif want.root_index == 0:
                assert got == LimitClass.root(plus)
            else:
                assert got == LimitClass.root(1 - plus)


def test_render_basin_mirror_symmetries():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 15, 15)
    basin = render_basin(Z2M1, grid, Method.BNQN_NEW_VARIANT, SolverConfig(max_iter=500))
    roots = PolyModulusObjective(Z2M1).roots()
    plus = nearest_root_index(roots, 1.0)
    for i in range(15):
        for j in range(15):
            cls = basin.classes[i][j]
            # vertical flip: identical classes and iteration counts
            assert cls == basin.classes[i][14 - j]
            assert basin.iterations[i, j] == basin.iterations[i, 14 - j]
            # horizontal flip composed with root swap
            flipped = basin.classes[14 - i][j]
            if cls.is_root:
                assert flipped.is_root and flipped.root_index == (
                    plus if cls.root_index != plus else 1 - plus
                )
            else:
                assert flipped.kind == cls.kind


def test_render_basin_no_divergence_for_polynomials():
    # class_tol must cover the gn-implied proximity at the degenerate
    # critical point of z^3-1 (grad ~ 3|z|^2 there), which the negative real
    # axis of this odd grid converges to
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 13, 13)
    basin = render_basin(
        Z3M1, grid, Method.BNQN_NEW_VARIANT, SolverConfig(max_iter=2000), class_tol=1e-5
    )
    kinds = {c.kind for col in basin.classes for c in col}
    assert "Diverged" not in kinds
    assert "Undecided" not in kinds


def test_render_basin_newton_1d_three_roots():
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 50, 50)
    basin = render_basin(Z3M1, grid, Method.NEWTON_1D, SolverConfig(max_iter=2000))
    seen = {c.root_index for col in basin.classes for c in col if c.is_root}
    assert seen == {0, 1, 2}


def test_render_basin_deterministic_across_runs_and_seeds():
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 8, 8)
    cfg = SolverConfig(max_iter=2000, seed=21, rho=0.7)
    one = render_basin(Z3M1, grid, Method.RANDOM_RELAXED_NEWTON_1D, cfg)
    two = render_basin(Z3M1, grid, Method.RANDOM_RELAXED_NEWTON_1D, cfg)
    assert one.classes == two.classes
    assert np.array_equal(one.iterations, two.iterations)
    other_seed = render_basin(
        Z3M1, grid, Method.RANDOM_RELAXED_NEWTON_1D, SolverConfig(max_iter=2000, seed=22, rho=0.7)
    )
    assert other_seed.iterations.tolist() != one.iterations.tolist()


def test_cell_rng_streams_differ_across_seeds_and_cells():
    # cell (i, j) of seed s takes the PCG64 (state, inc) of
    # default_rng((s, i, j)); seeding with seed ^ (i*ny + j) gave seed 0 at
    # cell (0, 1) the stream of seed 1 at cell (0, 0)
    for seed in (0, 1, 5, 2**32, 2**64 + 3):
        streams = TrialStreams(cell_states(seed, 3, 4))
        for n in range(12):
            want = np.random.default_rng((seed, *divmod(n, 4))).bit_generator.state["state"]
            got = [int(v[n]) for v in (streams.hi, streams.lo, streams.inc_hi, streams.inc_lo)]
            assert (got[0] << 64 | got[1], got[2] << 64 | got[3]) == (want["state"], want["inc"]), (seed, n)
    assert cell_states(0, 1, 2)[1].tolist() != cell_states(1, 1, 1)[0].tolist()


@pytest.mark.parametrize("class_tol", [math.nan, -1.0])
def test_render_basin_rejects_a_bad_class_tol_before_the_sweep(monkeypatch, class_tol):
    # with NaN no cell could classify: every converged cell would be Undecided
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(lockstep, "iterate", no_sweep)
    with pytest.raises(ValueError, match="class_tol"):
        render_basin(Z3M1, GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3), Method.BNQN_NEW_VARIANT, class_tol=class_tol)


def test_render_basin_per_point_failures_recorded_not_raised():
    # the Newton map blows up at the exceptional point z=0 of z^2-1, yet the
    # sweep completes and the cell lands as Undecided
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
    basin = render_basin(Z2M1, grid, Method.NEWTON_1D, SolverConfig())
    assert basin.classes[0][0].kind in ("CriticalNonRoot", "Undecided")


def test_export_ppm(tmp_path):
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    classes = [[LimitClass.root(0), LimitClass.root(0)], [LimitClass.root(0), LimitClass.root(0)]]
    basin = BasinMap.from_classes(grid, classes, np.zeros((2, 2), dtype=int))
    path = tmp_path / "map.ppm"
    export_ppm(basin, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n2 2\n255\n")
    payload = data[len(b"P6\n2 2\n255\n"):]
    assert len(payload) == 12
    assert payload == bytes(ROOT_COLORS[0]) * 4


def test_export_ppm_header_shape(tmp_path):
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 21, 21)
    basin = render_basin(Z2M1, grid, Method.BNQN_NEW_VARIANT, SolverConfig(max_iter=500))
    path = tmp_path / "map.ppm"
    export_ppm(basin, path)
    data = path.read_bytes()
    assert data.startswith(b"P6\n21 21\n255\n")
    assert len(data) == len(b"P6\n21 21\n255\n") + 21 * 21 * 3
    # the bisector column converges to the critical point: black pixels with
    # escape shading still zeroes (black stays black)
    row = data[len(b"P6\n21 21\n255\n"):][0:63]
    mid_pixel = row[30:33]
    assert mid_pixel == bytes(CRITICAL_COLOR)


def test_export_csv(tmp_path):
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    classes = [
        [LimitClass.root(0), LimitClass.critical(0j)],
        [LimitClass("Diverged"), LimitClass("Undecided")],
    ]
    basin = BasinMap.from_classes(grid, classes, np.array([[1, 2], [3, 4]]))
    path = tmp_path / "map.csv"
    export_csv(basin, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x,y,class,root_index,iterations"
    assert len(lines) == 5  # header + 4 rows, row-major
    assert lines[1] == "0,0,0,0,Root,0,1"
    assert lines[2] == "0,1,0,1,CriticalNonRoot,,2"
    assert lines[3] == "1,0,1,0,Diverged,,3"
    assert lines[4] == "1,1,1,1,Undecided,,4"


def test_export_errors_carry_path(tmp_path):
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
    basin = BasinMap.from_classes(grid, [[LimitClass.root(0)]], np.zeros((1, 1), dtype=int))
    missing = tmp_path / "no_such_dir" / "map.ppm"
    with pytest.raises(OSError, match="no_such_dir"):
        export_ppm(basin, missing)
    with pytest.raises(OSError, match="no_such_dir"):
        export_csv(basin, missing)


def test_class_counts():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    classes = [
        [LimitClass.root(0), LimitClass.root(1)],
        [LimitClass.root(0), LimitClass("Undecided")],
    ]
    basin = BasinMap.from_classes(grid, classes, np.zeros((2, 2), dtype=int))
    assert basin.class_counts() == {"Root(0)": 2, "Root(1)": 1, "Undecided": 1}


def _random_map(rng):
    """Random classes and iteration counts on a random grid: 1x1, 1xn, nx1 or
    up to 40x33 cells; roots with indices up to 19, so the palette cycles,
    2-4 distinct critical points, Diverged and Undecided.  Returns the grid,
    a table, labels into it (not every entry need occur) and iterations."""
    nx, ny = [(1, 1), (1, 33), (40, 1), (40, 33)][rng.integers(4)]
    nx, ny = int(rng.integers(1, nx + 1)), int(rng.integers(1, ny + 1))
    x_min, y_min = rng.uniform(-5.0, 5.0, 2)
    grid = GridSpec(x_min, x_min + rng.uniform(0.1, 5.0), y_min, y_min + rng.uniform(0.1, 5.0), nx, ny)
    roots = rng.choice(20, int(rng.integers(1, 21)), replace=False).tolist()
    crits = [complex(*rng.normal(0.0, 1.0, 2)) for _ in range(int(rng.integers(2, 5)))]
    table = (*map(LimitClass.root, roots), *map(LimitClass.critical, crits), DIVERGED, UNDECIDED)
    labels = rng.choice(len(table), (nx, ny), p=rng.dirichlet(np.full(len(table), 0.5)))
    iterations = rng.integers(0, [1, 40, 10_001][rng.integers(3)], (nx, ny))
    return grid, table, labels, iterations


def test_array_exports_match_the_per_cell_reference(tmp_path):
    rng = np.random.default_rng(2024)
    for n in range(200):
        grid, table, labels, iterations = _random_map(rng)
        classes = [[table[k] for k in column] for column in labels.tolist()]
        reference = SimpleNamespace(grid=grid, classes=classes, iterations=iterations)
        support.export_ppm(reference, tmp_path / "want.ppm")
        support.export_csv(reference, tmp_path / "want.csv")
        # as render_basin builds a map, and from the classes alone
        for basin in (BasinMap(grid, table, labels, iterations), BasinMap.from_classes(grid, classes, iterations)):
            assert [[(c, c.point) for c in column] for column in basin.classes] == [
                [(c, c.point) for c in column] for column in classes
            ], n
            assert basin.class_counts() == support.class_counts(reference), n
            export_ppm(basin, tmp_path / "got.ppm")
            export_csv(basin, tmp_path / "got.csv")
            for name in ("ppm", "csv"):
                assert (tmp_path / f"got.{name}").read_bytes() == (tmp_path / f"want.{name}").read_bytes(), (n, name)


def test_render_basin_builds_no_class_per_cell(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(LimitClass, "__init__", counted("init", LimitClass.__init__))
    monkeypatch.setattr(LimitClass, "root", classmethod(counted("root", LimitClass.root.__func__)))
    monkeypatch.setattr(LimitClass, "critical", classmethod(counted("critical", LimitClass.critical.__func__)))
    basin = render_basin(Z3M1, GridSpec(-2.0, 2.0, -2.0, 2.0, 101, 101), Method.BNQN_NEW_VARIANT, SolverConfig())
    assert calls["root"] == 3 and calls["critical"] >= 1
    assert max(calls.values()) <= len(basin.table)
    assert sum(basin.class_counts().values()) == 101 * 101


HALF_SWEEP_METHODS = (
    Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD, Method.NQN, Method.NEWTON_OPT, Method.NEWTON_1D,
)
# the default settings, and theta, tau and the shifts changed; a cap of 500
# (the default is 10 000) still caps lanes, and keeps the newton1d cycles
# and the btgd creeps toward critical points short
HALF_SWEEP_CONFIGS = (
    SolverConfig(max_iter=500),
    SolverConfig(max_iter=500, theta=1.0, tau=0.7, deltas=(0.0, 0.5, -0.8)),
)


def _full_sweep(poly, grid, method, cfg, class_tol=1e-6):
    """``render_basin``'s map with every cell run, through ``_lane_labels``."""
    obj = PolyModulusObjective(poly)
    x0 = np.repeat([grid.x_coord(i) for i in range(grid.nx)], grid.ny)
    y0 = np.tile([grid.y_coord(j) for j in range(grid.ny)], grid.nx)
    ends = lockstep.iterate(obj, method, cfg, x0, y0)
    labels, iterations, table = basins._lane_labels(obj, method, cfg, *ends, class_tol)
    shape = (grid.nx, grid.ny)
    return BasinMap(grid, table, labels.reshape(shape), iterations.reshape(shape))


def _swept_lanes(monkeypatch):
    """The lane count of each ``lockstep.iterate`` call, as a list that grows."""
    swept = []
    iterate = lockstep.iterate

    def counted(obj, method, cfg, x0, y0, **kwargs):
        swept.append(len(x0))
        return iterate(obj, method, cfg, x0, y0, **kwargs)

    monkeypatch.setattr(lockstep, "iterate", counted)
    return swept


def test_half_sweep_matches_the_full_sweep(monkeypatch):
    # real g on windows symmetric about the real axis: render_basin runs the
    # rows j >= ny // 2 and mirrors the rest, and must give the full sweep's
    # map value for value
    rng = np.random.default_rng(1905)
    polys = [Polynomial(rng.normal(0.0, 1.0, int(d) + 1).tolist()) for d in rng.permutation(np.arange(2, 9))]
    cases = []
    for n, poly in enumerate(polys):
        h = float(rng.uniform(0.5, 3.0))
        x_min = -h * float(rng.uniform(0.5, 1.5))
        for nx, ny in ((7, 9), (8, 6), (1, 11), (10, 1), [(9, 9), (6, 10)][n % 2]):
            cases.append((poly, GridSpec(x_min, h, -h, h, nx, ny)))
    z25m1 = Polynomial([-1] + [0] * 24 + [1])
    cases += [(z25m1, GridSpec(-5e7, 5e7, -5e7, 5e7, 5, 5)), (z25m1, GridSpec(-5e7, 5e7, -5e7, 5e7, 4, 6))]
    swept = _swept_lanes(monkeypatch)
    outcomes = set()
    for poly, grid in cases:
        for method in HALF_SWEEP_METHODS:
            for cfg in HALF_SWEEP_CONFIGS:
                want = _full_sweep(poly, grid, method, cfg)
                swept.clear()
                got = render_basin(poly, grid, method, cfg)
                assert swept == [grid.nx * (grid.ny - grid.ny // 2)], (poly.coeffs, grid, method)
                assert [(c, c.point) for c in got.table] == [(c, c.point) for c in want.table]
                assert np.array_equal(got.labels, want.labels), (poly.coeffs, grid, method, cfg)
                assert np.array_equal(got.iterations, want.iterations), (poly.coeffs, grid, method, cfg)
                assert got.class_counts() == want.class_counts()
                outcomes.update(cls.kind for cls in np.array(got.table)[np.unique(got.labels)])
    assert outcomes == {"Root", "CriticalNonRoot", "Diverged", "Undecided"}


@pytest.mark.parametrize(
    "poly, grid, method",
    [
        # complex coefficients: F is not symmetric about the real axis
        (Polynomial([-1, 1j, 0, 1]), GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9), Method.BNQN_NEW_VARIANT),
        (Polynomial([-1, 0, 1e-300j, 1]), GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 8), Method.NEWTON_1D),
        # windows not symmetric about y = 0
        (Z3M1, GridSpec(-2.0, 2.0, -2.0, 2.5, 9, 9), Method.BNQN_NEW_VARIANT),
        (Z3M1, GridSpec(-2.0, 2.0, -2.0, math.nextafter(2.0, 3.0), 9, 8), Method.NEWTON_1D),
        # each rrn1d cell draws from its own stream
        (Z3M1, GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9), Method.RANDOM_RELAXED_NEWTON_1D),
    ],
    ids=["complex", "complex-tiny", "window", "window-ulp", "rrn1d"],
)
def test_render_basin_sweeps_every_cell_where_rows_do_not_mirror(monkeypatch, poly, grid, method):
    swept = _swept_lanes(monkeypatch)
    cfg = SolverConfig(max_iter=300, seed=4)
    render_basin(poly, grid, method, cfg)
    assert swept == [grid.nx * grid.ny]
