import numpy as np
import pytest

from bnqn.basins import (
    CRITICAL_COLOR,
    ROOT_COLORS,
    BasinMap,
    GridSpec,
    _cell_rng,
    degree2_reference,
    export_csv,
    export_ppm,
    render_basin,
    worker_count,
)
from bnqn.complexpoly import Polynomial
from bnqn.objective import LimitClass, PolyModulusObjective
from bnqn.solvers import Method, SolverConfig
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


def test_render_basin_deterministic_across_runs_and_workers():
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 8, 8)
    cfg = SolverConfig(max_iter=2000, seed=21)
    kwargs = dict(cfg=cfg, rho=0.7)
    one = render_basin(Z3M1, grid, Method.RANDOM_RELAXED_NEWTON_1D, workers=1, **kwargs)
    two = render_basin(Z3M1, grid, Method.RANDOM_RELAXED_NEWTON_1D, workers=2, **kwargs)
    assert one.classes == two.classes
    assert np.array_equal(one.iterations, two.iterations)
    other_seed = render_basin(
        Z3M1, grid, Method.RANDOM_RELAXED_NEWTON_1D, cfg=SolverConfig(max_iter=2000, seed=22),
        rho=0.7, workers=1,
    )
    assert other_seed.iterations.tolist() != one.iterations.tolist()


def test_cell_rng_streams_differ_across_seeds_and_cells():
    # seeding with seed ^ (i*ny + j) gave seed 0 at cell (0, 1) the stream
    # of seed 1 at cell (0, 0)
    assert not np.array_equal(_cell_rng(0, 0, 1).random(4), _cell_rng(1, 0, 0).random(4))
    assert np.array_equal(_cell_rng(5, 2, 3).random(4), _cell_rng(5, 2, 3).random(4))


def test_render_basin_per_point_failures_recorded_not_raised():
    # the Newton map blows up at the exceptional point z=0 of z^2-1, yet the
    # sweep completes and the cell lands as Undecided
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)
    basin = render_basin(Z2M1, grid, Method.NEWTON_1D, SolverConfig())
    assert basin.classes[0][0].kind in ("CriticalNonRoot", "Undecided")


def test_export_ppm(tmp_path):
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    classes = [[LimitClass.root(0), LimitClass.root(0)], [LimitClass.root(0), LimitClass.root(0)]]
    basin = BasinMap(grid, classes, np.zeros((2, 2), dtype=int))
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
    basin = BasinMap(grid, classes, np.array([[1, 2], [3, 4]]))
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
    basin = BasinMap(grid, [[LimitClass.root(0)]], np.zeros((1, 1), dtype=int))
    missing = tmp_path / "no_such_dir" / "map.ppm"
    with pytest.raises(OSError, match="no_such_dir"):
        export_ppm(basin, missing)
    with pytest.raises(OSError, match="no_such_dir"):
        export_csv(basin, missing)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("BNQN_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("BNQN_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("BNQN_THREADS", "zebra")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("BNQN_THREADS")
    assert worker_count() >= 1


def test_class_counts():
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 2, 2)
    classes = [
        [LimitClass.root(0), LimitClass.root(1)],
        [LimitClass.root(0), LimitClass("Undecided")],
    ]
    basin = BasinMap(grid, classes, np.zeros((2, 2), dtype=int))
    assert basin.class_counts() == {"Root(0)": 2, "Root(1)": 1, "Undecided": 1}
