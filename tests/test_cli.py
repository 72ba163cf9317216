import io

import pytest

from bnqn.cli import build_parser, run_command, run_rrn_experiment
from bnqn.complexpoly import Polynomial


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_kv(text):
    data = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            data[key] = value
    return data


def test_solve_converges_to_plus_one():
    code, out, err = invoke(["solve", "--poly", "-1,0,1", "--method", "bnqn", "--z0", "0.3,-1.7"])
    assert code == 0 and err == ""
    kv = parse_kv(out)
    assert kv["class"] == "Root"
    assert abs(float(kv["x"]) - 1.0) <= 1e-8
    assert abs(float(kv["y"])) <= 1e-8
    assert kv["converged"] == "true"


def test_solve_trace_export(tmp_path):
    trace_path = tmp_path / "t.csv"
    code, out, _ = invoke(
        ["solve", "--z0", "0.3,-1.7", "--trace", str(trace_path)]
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "k,x,y,gamma,delta_index,grad_norm"
    assert lines[-1].startswith("# terminal=")


def test_solve_all_methods_run():
    for method in ("bnqn", "nqn", "newton-opt", "btgd", "newton1d", "rrn1d"):
        code, out, err = invoke(
            ["solve", "--method", method, "--z0", "1.4,0.3", "--max-iter", "3000"]
        )
        assert code == 0, (method, err)


def test_basin_writes_both_files(tmp_path):
    ppm = tmp_path / "b.ppm"
    csv = tmp_path / "b.csv"
    code, out, err = invoke(
        [
            "basin", "--poly", "-1,0,1", "--method", "bnqn",
            "--window", "-2,2,-2,2", "--res", "21,21",
            "--out", str(ppm), "--csv", str(csv), "--max-iter", "500",
        ]
    )
    assert code == 0, err
    assert ppm.read_bytes().startswith(b"P6\n21 21\n255\n")
    assert csv.read_text().splitlines()[0] == "i,j,x,y,class,root_index,iterations"
    kv = parse_kv(out)
    assert kv["nx"] == "21" and kv["ny"] == "21"


def test_basin_byte_identical_reruns(tmp_path):
    args_template = [
        "basin", "--poly", "-1,0,0,1", "--method", "rrn1d", "--seed", "5",
        "--window", "-1.5,1.5,-1.5,1.5", "--res", "8,8", "--max-iter", "2000",
    ]
    blobs = []
    outs = []
    for tag in ("a", "b"):
        ppm = tmp_path / f"{tag}.ppm"
        csv = tmp_path / f"{tag}.csv"
        code, out, _ = invoke(args_template + ["--out", str(ppm), "--csv", str(csv)])
        assert code == 0
        blobs.append((ppm.read_bytes(), csv.read_bytes()))
        outs.append(out.replace(str(ppm), "OUT").replace(str(csv), "CSV"))
    assert blobs[0] == blobs[1]
    assert outs[0] == outs[1]


def test_invariance_command():
    code, out, err = invoke(
        ["invariance", "--poly", "-1,0,1", "--c", "2", "--rotation", "0.7",
         "--z0", "0.4,1.1", "--steps", "100"]
    )
    assert code == 0, err
    kv = parse_kv(out)
    assert float(kv["max_deviation"]) <= 1e-8
    assert kv["steps"] == "100"


def test_rrn_rho_out_of_range_is_usage_error():
    for bad in ("0.49", "0.5", "1.0", "1.99"):
        code, out, err = invoke(["rrn", "--rho", bad])
        assert code == 1
        assert "rho" in err


def test_rrn_small_experiment():
    code, out, err = invoke(
        ["rrn", "--poly", "-1,0,0,1", "--rho", "0.7", "--trials", "40",
         "--max-iter", "2000", "--seed", "7"]
    )
    assert code == 0, err
    kv = parse_kv(out)
    counts = [int(kv[f"root_{k}_count"]) for k in range(3)]
    assert sum(counts) <= 40
    assert float(kv["converged_fraction"]) == sum(counts) / 40.0


def test_rrn_experiment_function_deterministic():
    p = Polynomial([-1, 0, 0, 1])
    one = run_rrn_experiment(p, 0.7, 30, 2000, 7)
    two = run_rrn_experiment(p, 0.7, 30, 2000, 7)
    assert one.per_root_counts == two.per_root_counts
    assert one.converged_fraction == two.converged_fraction


def test_rrn_negative_seed_is_runtime_failure():
    code, out, err = invoke(["rrn", "--trials", "5", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err == "failure: expected non-negative integer\n"


@pytest.mark.parametrize("method", ["newton1d", "rrn1d"])
def test_solve_where_the_pole_scale_overflows(method):
    # z^40 - 1 from 1e8, well inside the divergence radius: (1 + 1e8)**39
    # overflows a float, so the pole test's scale is inf instead of raising
    z40m1 = ",".join(["-1"] + ["0"] * 39 + ["1"])
    code, out, err = invoke(
        ["solve", "--poly", z40m1, "--method", method, "--z0", "1e8,0", "--max-iter", "20"]
    )
    assert code == 0, err
    kv = parse_kv(out)
    assert kv["class"] == "Undecided"
    assert kv["iterations"] == "20"


def test_usage_errors_exit_one():
    for argv in (
        ["solve", "--poly", "zebra"],
        ["solve", "--z0", "1"],
        ["basin", "--window", "1,2,3"],
        ["basin", "--res", "5"],
        ["basin", "--window", "2,-2,-2,2"],
        ["solve", "--deltas", "1,1"],
        ["invariance", "--c", "-1"],
        ["rrn", "--trials", "0"],
        ["no-such-command"],
        [],
    ):
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert err != ""


@pytest.mark.parametrize("method", ["bnqn", "newton1d"])
def test_basin_window_bounds(tmp_path, method):
    files = ["--out", str(tmp_path / "b.ppm"), "--csv", str(tmp_path / "b.csv")]
    code, out, err = invoke(["basin", "--method", method, "--res", "3,3", "--window=-inf,inf,-1,1", *files])
    assert code == 1 and "finite" in err
    code, out, err = invoke(
        ["basin", "--poly", "-1,0,0,1", "--method", method, "--res", "3,3",
         "--window=-1.7e308,1.7e308,-1.7e308,1.7e308", *files]
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in (tmp_path / "b.csv").read_text().splitlines()[1:]]
    assert {float(r[2]) for r in rows} == {float(r[3]) for r in rows} == {-1.7e308, 0.0, 1.7e308}
    assert parse_kv(out)["count[Diverged]"] == "8"


def test_runtime_failures_exit_two(tmp_path):
    code, out, err = invoke(
        ["basin", "--res", "2,2", "--max-iter", "50",
         "--out", str(tmp_path / "missing" / "x.ppm"), "--csv", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "failure" in err


def test_highest_first_flag():
    code_lo, out_lo, _ = invoke(["solve", "--poly", "-1,0,1", "--z0", "0.3,-1.7"])
    code_hi, out_hi, _ = invoke(
        ["solve", "--poly", "1,0,-1", "--highest-first", "--z0", "0.3,-1.7"]
    )
    assert code_lo == code_hi == 0
    assert out_lo == out_hi


def test_help_documents_defaults():
    parser = build_parser()
    for sub in ("solve", "basin", "invariance", "rrn"):
        with pytest.raises(SystemExit):
            parser.parse_args([sub, "--help"])


def test_help_text_mentions_default_values(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["solve", "--help"])
    text = capsys.readouterr().out
    assert "0,1,-1" in text  # default shift candidates
    assert "default: 1.0" in text  # tau / gamma0
    assert "default: 0.0" in text  # theta
    assert "1e-10" in text  # gradient tolerance


@pytest.mark.parametrize("method", ["bnqn", "btgd"])
def test_lockstep_basin_ignores_threads_env(tmp_path, monkeypatch, method):
    # bnqn and btgd basins run in one process and never read BNQN_THREADS
    monkeypatch.setenv("BNQN_THREADS", "abc")
    argv = ["basin", "--poly", "-1,0,0,1", "--method", method, "--res", "9,9", "--max-iter", "300",
            "--out", str(tmp_path / "t.ppm"), "--csv", str(tmp_path / "t.csv")]
    code, out, err = invoke(argv)
    assert code == 0, err
    assert parse_kv(out)["method"] == method
    # the pool methods still reject it
    code, _, err = invoke([*argv[:4], "newton1d", *argv[5:]])
    assert code == 2
    assert "BNQN_THREADS must be an integer" in err


def test_threads_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("BNQN_THREADS", "1")
    ppm = tmp_path / "t.ppm"
    csv = tmp_path / "t.csv"
    code, _, _ = invoke(
        ["basin", "--res", "9,9", "--max-iter", "500",
         "--out", str(ppm), "--csv", str(csv)]
    )
    assert code == 0
    assert ppm.exists() and csv.exists()
