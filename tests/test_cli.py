import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnqn
from bnqn.basins import run_rrn_experiment
from bnqn.cli import build_parser, run_command
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


def test_rrn_rho_out_of_range_is_usage_error(tmp_path):
    # every command checks rho in SolverConfig, so the range and its message
    # are written down once
    files = ["--out", str(tmp_path / "b.ppm"), "--csv", str(tmp_path / "b.csv")]
    for argv in (["rrn"], ["solve", "--method", "rrn1d"], ["basin", "--method", "rrn1d", *files]):
        for bad in ("0.49", "0.5", "1.0", "1.99", "nan"):
            code, out, err = invoke([*argv, "--rho", bad])
            assert code == 1, argv
            assert out == ""
            assert err == f"error: rho must lie in (0.5, 1), got {float(bad)}\n", argv
    assert list(tmp_path.iterdir()) == []


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


def test_rrn_negative_seed_is_usage_error():
    code, out, err = invoke(["rrn", "--trials", "5", "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert err == "error: expected non-negative integer\n"


_WRITES = {
    "solve": ["--trace", "t.csv"],
    "basin": ["--res", "3,3", "--out", "b.ppm", "--csv", "b.csv"],
    "invariance": [],
    "rrn": ["--trials", "5"],
}
REJECTED_INPUTS = [
    ["solve", "--z0", "inf,0"],
    ["solve", "--z0", "nan,0"],
    *([command, "--poly", poly] for command in _WRITES for poly in ("5", "0,0")),
    ["rrn", "--seed", "-1"],
    ["basin", "--method", "rrn1d", "--seed", "-1"],
    ["solve", "--method", "rrn1d", "--seed", "-1"],
    # rho and the seed are checked for every method, though only rrn1d reads them
    ["solve", "--rho", "5"],
    ["basin", "--method", "btgd", "--rho", "0.3"],
    ["solve", "--seed", "-1"],
    ["basin", "--seed", "-1"],
    *(["invariance", "--c", c] for c in ("0", "inf", "nan")),
    ["invariance", "--rotation", "inf"],
    ["invariance", "--steps", "0"],
    ["rrn", "--trials", "0"],
    ["rrn", "--max-iter", "0"],
    ["rrn", "--trials", "4294967297"],
    # random relaxed Newton's steps stop below the start's step, 2**25 - 1
    *([command, "--method", "rrn1d", "--max-iter", "33554432"] for command in ("solve", "basin")),
    ["rrn", "--max-iter", "33554432"],
    ["solve", "--class-tol", "nan"],
    ["basin", "--class-tol", "nan"],
    ["invariance", "--seed", "3"],
    ["invariance", "--class-tol", "1e-6"],
    # c**(2 - tau) overflows a float, or underflows to 0.0
    ["invariance", "--c", "1e200", "--tau", "0.1"],
    ["invariance", "--c", "1e-200", "--tau", "0.1"],
    # the coefficients are finite, but g' = 2e308 z is not
    ["solve", "--poly", "1,0,1e308"],
    # both parts finite, but the modulus overflows (abs() raises there)
    *([command, "--poly", "1.7e308+1.7e308i,0,1"] for command in ("solve", "basin", "rrn")),
    # numbers in a comma-separated flag that do not parse
    ["solve", "--z0", "a,b"],
    ["basin", "--res", "4,x"],
]


@pytest.mark.parametrize("argv", REJECTED_INPUTS, ids=" ".join)
def test_rejected_inputs_exit_one_and_write_nothing(tmp_path, monkeypatch, argv):
    # every ValueError is a rejected input, whichever layer raises it; only
    # a failed run (BnqnError, OSError) exits 2
    monkeypatch.chdir(tmp_path)
    # the file flags go first, so that the input under test wins
    code, out, err = invoke([argv[0], *_WRITES[argv[0]], *argv[1:]])
    assert code == 1 and out == "", (argv, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert list(tmp_path.iterdir()) == []


Z40M1 = ",".join(["-1"] + ["0"] * 39 + ["1"])

# bnqn rrn stdout, pinned: trial t's start and relaxation factors are pure
# functions of (seed, t, step) (bnqn.streams), so any change to the draws or
# the step shows here
RRN_GOLDEN = {
    # 1500 trials, about a quarter of them capped; the seed has two 64-bit words
    "z3m1-two-passes": (
        ["--poly", "-1,0,0,1", "--rho", "0.7", "--max-iter", "34", "--trials", "1500", "--seed", str(2**64 + 3)],
        """\
rho=0.69999999999999996
trials=1500
seed=18446744073709551619
converged_fraction=0.72266666666666668
root_0=1
root_0_count=365
root_1=-0.5+0.8660254037844386i
root_1_count=374
root_2=-0.5-0.8660254037844386i
root_2_count=345
""",
    ),
    # long trials: few lanes are left to draw after most have stopped
    "z40m1-rho09": (
        ["--poly", Z40M1, "--rho", "0.9", "--max-iter", "200", "--trials", "200", "--seed", "7"],
        """\
rho=0.90000000000000002
trials=200
seed=7
converged_fraction=0.80000000000000004
root_0=1
root_0_count=2
root_1=0.98768834059513777+0.15643446504023087i
root_1_count=2
root_2=0.95105651629515353+0.30901699437494745i
root_2_count=3
root_3=0.8910065241883679+0.4539904997395468i
root_3_count=4
root_4=0.80901699437494745+0.58778525229247314i
root_4_count=4
root_5=0.70710678118654757+0.70710678118654757i
root_5_count=6
root_6=0.58778525229247314+0.80901699437494745i
root_6_count=2
root_7=0.4539904997395468+0.8910065241883679i
root_7_count=3
root_8=0.30901699437494745+0.95105651629515353i
root_8_count=1
root_9=0.15643446504023087+0.98768834059513777i
root_9_count=0
root_10=1i
root_10_count=5
root_11=-0.15643446504023087+0.98768834059513777i
root_11_count=4
root_12=-0.30901699437494745+0.95105651629515353i
root_12_count=5
root_13=-0.4539904997395468+0.8910065241883679i
root_13_count=5
root_14=-0.58778525229247314+0.80901699437494745i
root_14_count=5
root_15=-0.70710678118654757+0.70710678118654757i
root_15_count=2
root_16=-0.80901699437494745+0.58778525229247314i
root_16_count=6
root_17=-0.8910065241883679+0.4539904997395468i
root_17_count=2
root_18=-0.95105651629515353+0.30901699437494745i
root_18_count=4
root_19=-0.98768834059513777+0.15643446504023087i
root_19_count=1
root_20=-1
root_20_count=6
root_21=-0.98768834059513777-0.15643446504023087i
root_21_count=4
root_22=-0.95105651629515353-0.30901699437494745i
root_22_count=4
root_23=-0.8910065241883679-0.4539904997395468i
root_23_count=5
root_24=-0.80901699437494745-0.58778525229247314i
root_24_count=6
root_25=-0.70710678118654757-0.70710678118654757i
root_25_count=4
root_26=-0.58778525229247314-0.80901699437494745i
root_26_count=11
root_27=-0.4539904997395468-0.8910065241883679i
root_27_count=5
root_28=-0.30901699437494745-0.95105651629515353i
root_28_count=4
root_29=-0.15643446504023087-0.98768834059513777i
root_29_count=0
root_30=-1i
root_30_count=3
root_31=0.15643446504023087-0.98768834059513777i
root_31_count=5
root_32=0.30901699437494745-0.95105651629515353i
root_32_count=5
root_33=0.4539904997395468-0.8910065241883679i
root_33_count=7
root_34=0.58778525229247314-0.80901699437494745i
root_34_count=4
root_35=0.70710678118654757-0.70710678118654757i
root_35_count=2
root_36=0.80901699437494745-0.58778525229247314i
root_36_count=4
root_37=0.8910065241883679-0.4539904997395468i
root_37_count=2
root_38=0.95105651629515353-0.30901699437494745i
root_38_count=6
root_39=0.98768834059513777-0.15643446504023087i
root_39_count=7
""",
    ),
    "z2-3z+2-rho055": (
        ["--poly", "2,-3,1", "--rho", "0.55", "--max-iter", "24", "--trials", "300", "--seed", "11"],
        """\
rho=0.55000000000000004
trials=300
seed=11
converged_fraction=0.7533333333333333
root_0=1
root_0_count=162
root_1=2
root_1_count=64
""",
    ),
}


@pytest.mark.parametrize("case", RRN_GOLDEN)
def test_rrn_output_is_golden(case):
    argv, want = RRN_GOLDEN[case]
    code, out, err = invoke(["rrn", *argv])
    assert (code, err) == (0, "")
    assert out == want


# bnqn basin output of every method, pinned as the sha256 of the CSV, the
# PPM and stdout.  The grid is not square, so that an i/j swap in the rrn1d
# cell's trial id i*ny + j shows; on z^2-1 the 21 cells of the
# imaginary axis, where Newton's map is chaotic, run newton1d to the cap;
# z^10-1 has ten root classes, so Root(8) and Root(9) reuse the first two
# of the eight palette colours, and 13 of its cells end Undecided
BASIN_Z3M1 = ["--poly", "-1,0,0,1", "--res", "33,32", "--max-iter", "500", "--seed", "21"]
# CLUSTER8 of tests/test_lockstep.py (three roots 1e-3 apart plus five spread
# ones), as polynomial_to_string writes it
CLUSTER8_POLY = (
    "0.58672103489999994-2.2717770074999999i,-1.6498189714499998+3.9836810110500003i,"
    "0.19830805004999874-0.65507527055000181i,1.8592062114999977-0.87922552299999834i,"
    "-0.46871097500000014+0.096436090000002916i,-0.30565534999999738-0.52313979999999916i,"
    "0.38095000000000001-0.45039950000000117i,-1.601+0.69950000000000012i,1"
)
BASIN_GOLDEN = {
    "bnqn": (
        ["--method", "bnqn", *BASIN_Z3M1],
        "8ba45136c1fdbec202afc92701df3fee1b1f56d97d46a711b4daab3f6ead59a4",
        "5f07b8253986a0ac972d6cae7d9ff0cd8d37fd11af429cc4d996af54a0fa33e5",
        "e8a02411c3fee656ad4af155384d2e14a3fd6a3627c0d2a63f1f226f682228c8",
    ),
    "btgd": (
        ["--method", "btgd", *BASIN_Z3M1],
        "2f0465e2c60619da2dcec45d14c104c48ea3efbde4672912453bbacf9edf66ac",
        "0a137de03b9261b73a9fab4e9c78768b3f9c9734b372bdaf7ae6b753e79b8d8d",
        "c049130f9daad77c0e43970c8961c719baf8e1dc7a110a31a2ff282fef641cb1",
    ),
    "nqn": (
        ["--method", "nqn", *BASIN_Z3M1],
        "262b697982b46b83b2890bd99aa69046298e6041d94490d8705712726cacee85",
        "03c27d3f6c1edd24da6cd008641805c9ed646bed98c44e5b4fdfad0dbd4e4b7a",
        "dc657f1db11ad57d59c5bf267aa7a067a4f7245ddf9ec23a8a6b8c0f30c56fc7",
    ),
    "newton-opt": (
        ["--method", "newton-opt", *BASIN_Z3M1],
        "6ba09d38b1123f4b9480d027eb9765fb3d610a3461d8d1888d163ee33cc86c3d",
        "274756d1887628364a1bbd611450780ec1707f6b87e616df571925090e188b0a",
        "03d620c8685556e861128914ed8427201159ebe80cbf8f9f7633871c6562bbd1",
    ),
    "newton1d": (
        ["--method", "newton1d", *BASIN_Z3M1],
        "5884e9f0fb3317493eda638254f2adcf48797473ae7e40f1b1c9dd21e799f205",
        "dea49d53bde9a008c4240ea72a72160cd3b1429ad3054913292cd5ac2eb75429",
        "7b61d9f5c87a540811e3a4ea468543dcba68de033325440f7b2feba6af6857ec",
    ),
    "rrn1d": (
        ["--method", "rrn1d", *BASIN_Z3M1],
        "6f87607c6b7408b049918395e980ed105e1c1c75984ff484f79b059c6825da40",
        "1ef1de8a98faba7af32eb4cbe068d721104581a172504d24f4240f9cb1739047",
        "7b44606d2ebba5d37096b5ce875ab22a93b0a361e0381e7f5567b169c845ea53",
    ),
    "z2m1-newton1d": (
        ["--method", "newton1d", "--poly", "-1,0,1", "--res", "21,21", "--max-iter", "2000"],
        "76966770230f660dd8a808699afc224cc4425687f905a03216133f5cd67ba9a3",
        "39622f9d9dd37de23fbb47b16c0571c578737dfc0bb0e2894c327ae3ecf31e6e",
        "1075daa8bf4d5e7a7653f1b3ce1deb4580cca82b420bc7676e34ad0226bbc37e",
    ),
    "z10m1-palette-cycle": (
        ["--method", "newton1d", "--poly", "-1,0,0,0,0,0,0,0,0,0,1", "--res", "13,7", "--max-iter", "40"],
        "884eab06e7928d0b07cb3f2f2d46df3899c7445e0e6c69e633eeb49148538ab7",
        "c5884a42d372e0c5f258725435e5d2eb4e4047d099c0f05dcbe213bf9a10601b",
        "6fb6c13fb759ba1f98dcd3b09cc9cf250e4d18014e14f5aa111b00d79b9f635a",
    ),
    # complex coefficients: the full sweep, with no mirrored half, at degree 8
    "cluster8-bnqn": (
        ["--method", "bnqn", "--poly", CLUSTER8_POLY, "--res", "31,29", "--max-iter", "500"],
        "910a8f68ab06cd4410e33c01824c4baef9c71c456b2eb43690aeaa972986c67c",
        "a4d71eb35de0169e755f6d0d8b58189556b3346b1df23d1e9b1dcf1cd5a06259",
        "be345444396d9e5662775eb9e5d0d695588fc5b1fe4187431ccaa5852b99dafd",
    ),
}


@pytest.mark.parametrize("case", BASIN_GOLDEN)
def test_basin_output_is_golden(tmp_path, monkeypatch, case):
    argv, *want = BASIN_GOLDEN[case]
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(["basin", *argv, "--out", "b.ppm", "--csv", "b.csv"])
    assert (code, err) == (0, "")
    got = [hashlib.sha256(blob).hexdigest() for blob in (Path("b.csv").read_bytes(), Path("b.ppm").read_bytes(), out.encode())]
    assert got == want


# sha256 of `bnqn solve` stdout and its --trace CSV, and of `bnqn invariance`
# stdout.  The trace pins every step's gamma, shift index and gradient norm,
# which the kernel-equals-run tests (final point, steps, code) do not see
SOLVE_Z3M1 = ["--poly", "-1,0,0,1", "--z0", "1.4,0.3", "--max-iter", "3000"]
SOLVE_Z2M1 = ["--poly", "-1,0,1", "--z0", "0,0.8", "--theta", "1", "--tau", "0.7"]
SOLVE_GOLDEN = {
    "z3m1-bnqn": (
        ["solve", "--method", "bnqn", *SOLVE_Z3M1],
        "bd33de129416737f9b52badbebe1035d5c27adb30f0deadc929de1f76d91a294",
        "7d4eeac83452b497a429db4c2bf91cfa0707fc15c120392f2b9108a0e84aebd9",
    ),
    "z3m1-nqn": (
        ["solve", "--method", "nqn", *SOLVE_Z3M1],
        "cd0b6ca47187859f9c7e9d0712ca71817269a0bfc1509df17d76f16e6133b960",
        "7d4eeac83452b497a429db4c2bf91cfa0707fc15c120392f2b9108a0e84aebd9",
    ),
    "z3m1-newton-opt": (
        ["solve", "--method", "newton-opt", *SOLVE_Z3M1],
        "c767f3dde6b047d2cef5f568c8972859b7780dac2e1bc5277bb7791d2468a854",
        "463ea22482e09372469d47ff72d75a7a4453905a48eda3d876acd5d5463ceca4",
    ),
    "z3m1-btgd": (
        ["solve", "--method", "btgd", *SOLVE_Z3M1],
        "5933a4b6975b426d0dd486214f39536ef7b6a59a389c7eced70fff30cd66148d",
        "83ff16b9007940a2ff6fca61e735cf228a0013d5b68e46f03e2332704cb3bc1b",
    ),
    "z3m1-newton1d": (
        ["solve", "--method", "newton1d", *SOLVE_Z3M1],
        "b53cc1d069c3d9014261f59e9d5679e8f5973121973ebee27ac19660151f93cb",
        "8890f64ea5b52e58c77666c3c4ed394e873bfdece859b4cdd7d1fc606003ca9c",
    ),
    "z3m1-rrn1d": (
        ["solve", "--method", "rrn1d", *SOLVE_Z3M1],
        "44ca77e6c95415adedf1023a43a80b697a4596c2ce4ecead3d69ca1c79381e2f",
        "70fcc2535c7acc27e1c07f1b753c746bc35a85ea9468db1c0806c220f595eac4",
    ),
    "z2m1-bnqn": (
        ["solve", "--method", "bnqn", *SOLVE_Z2M1],
        "9f8898cfbba2208cbc4db2b051b4d6b9d69068298c211d31d81f1ceae2789597",
        "ea46d02a88eef51195bdcec4e1d3ae4e8f29d664168dcb31b9cdf67ae4b2d9c6",
    ),
    "z2m1-nqn": (
        ["solve", "--method", "nqn", *SOLVE_Z2M1],
        "1ed32268809a2c9b0418bee25bdf784a1a7a48c571357cdbfebed11795e86edd",
        "c056ba4e9790f6c50d21bc1059f8546bd36562689965fa7defa51f7970ecc497",
    ),
    "z2m1-newton-opt": (
        ["solve", "--method", "newton-opt", *SOLVE_Z2M1],
        "c4752764cdb4f852fbc6183340605ebfdae369db54f433be6d4e240e58afd706",
        "dc15be8d507e55465e00abbca0affbb59a4da42d688db53db067847cf72dd1f1",
    ),
    "z2m1-btgd": (
        ["solve", "--method", "btgd", *SOLVE_Z2M1],
        "55a59020dadeb64be7f9e55d22f0db61540497b60355c2ef41416962b18b9238",
        "62bcbd0b6e4e9d185a0c18549b5df09bc59a963ba5b813222a527a4850354c45",
    ),
    "z2m1-newton1d": (
        ["solve", "--method", "newton1d", *SOLVE_Z2M1],
        "1b936f987c2d7438298a6c2191cd053ffcbd30c6d765fec3819ab356b83c08b5",
        "21d0efd07648d7a965b66f993618bb35750dec75d8f7f45cc66ecf7c9e148300",
    ),
    "z2m1-rrn1d": (
        ["solve", "--method", "rrn1d", *SOLVE_Z2M1],
        "16cb925d1ec272c5614a41029f8bd2eb491946deb832b458e03e4127d38815a0",
        "6f77b42a735d513920d3338fb07764e2d43fc88715ed6c0ac0dbab76d6befc0d",
    ),
    "invariance-defaults": (
        ["invariance"],
        "240f82ab85163a42c4b61f825d92af3072786c5b08dd49dcb0984d99941425a7",
    ),
    "invariance-z3m1": (
        ["invariance", "--poly", "-1,0,0,1", "--theta", "1", "--tau", "0.5"],
        "2c0bec51c862efe3465d031ec7150b597aa253bb4c4545e7d97701befe1fc653",
    ),
}


@pytest.mark.parametrize("case", SOLVE_GOLDEN)
def test_solve_and_invariance_output_is_golden(tmp_path, monkeypatch, case):
    argv, *want = SOLVE_GOLDEN[case]
    monkeypatch.chdir(tmp_path)
    traced = argv[0] == "solve"
    code, out, err = invoke([*argv, "--trace", "t.csv"] if traced else argv)
    assert (code, err) == (0, "")
    blobs = [out.encode(), Path("t.csv").read_bytes()] if traced else [out.encode()]
    assert [hashlib.sha256(blob).hexdigest() for blob in blobs] == want


def _package_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(bnqn.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_leaves_numpy_random_unloaded(tmp_path):
    # setup cost: importing the package loads neither bnqn.cli nor argparse;
    # it, a whole rrn experiment and an rrn1d basin import no more of
    # numpy.random than importing numpy does (numpy 1.24 imports it with
    # numpy itself; numpy 2 loads it on first use), and no multiprocessing:
    # every basin runs in the one process
    script = (
        "import io, sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "import bnqn\n"
        "lean = not {'bnqn.cli', 'argparse'} & set(sys.modules)\n"
        "import bnqn.cli\n"
        "imported = 'numpy.random' in sys.modules\n"
        "bnqn.cli.run_command(['rrn', '--trials', '20', '--max-iter', '50'], out=io.StringIO())\n"
        "after_rrn = 'numpy.random' in sys.modules\n"
        "bnqn.cli.run_command(['basin', '--method', 'rrn1d', '--res', '5,4', '--max-iter', '50'], out=io.StringIO())\n"
        "print(lean, before, imported, after_rrn, 'numpy.random' in sys.modules, 'multiprocessing' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], env=_package_env(), cwd=tmp_path, capture_output=True, text=True, check=True)
    lean, before, imported, after_rrn, after_basin, multiprocessing = run.stdout.split()
    assert lean == "True"  # the library does not load its command line
    assert imported == after_rrn == after_basin == before
    assert multiprocessing == "False"
    assert (tmp_path / "basin.csv").read_text().count("\n") == 21


@pytest.mark.parametrize("module", ["bnqn", "bnqn.cli"])
def test_python_m_runs_the_command_line(tmp_path, monkeypatch, module):
    # python -m bnqn used to fail for want of bnqn/__main__.py, and python -m
    # bnqn.cli to do nothing and exit 0; neither may write to stderr
    argv = ["basin", "--poly", "-1,0,0,1", "--res", "3,3", "--out", "a.ppm", "--csv", "a.csv"]
    ran, direct = tmp_path / "ran", tmp_path / "direct"
    ran.mkdir()
    direct.mkdir()
    run = subprocess.run([sys.executable, "-m", module, *argv], env=_package_env(), cwd=ran, capture_output=True, text=True)
    monkeypatch.chdir(direct)
    code, out, _ = invoke(argv)
    assert run.returncode == code == 0 and run.stdout == out
    assert run.stderr == ""
    for name in ("a.ppm", "a.csv"):
        assert (ran / name).read_bytes() == (direct / name).read_bytes()


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


@pytest.mark.parametrize(
    "argv, failure",
    [
        # g'(1e-16) = 2e-16 is below the pole tolerance, and tol 0 does not stop first
        (["--method", "newton1d", "--poly", "-1,0,1", "--z0", "1e-16,0", "--tol", "0"], "DerivativeVanishes"),
        # F and |grad F| overflow to inf at the start, so the Armijo bound is NaN
        # and no trial passes
        (["--method", "btgd", "--poly", ",".join(["-1"] + ["0"] * 24 + ["1"]), "--z0", "5e7,5e7"], "LineSearchUnderflow"),
        # |grad F|**8 = (3e40)**8 overflows: the shifts are 0*inf, inf and
        # -inf, and none leaves the Hessian finite
        (["--method", "nqn", "--poly", "-1,0,0,1", "--tau", "8", "--z0", "1e8,0"], "NoAdmissibleDelta"),
    ],
    ids=["newton1d", "btgd", "nqn-tau8"],
)
def test_solve_prints_the_failure_of_a_run(argv, failure):
    # a failed run is an outcome, not an error: exit 0 and a failure= line
    code, out, err = invoke(["solve", *argv])
    assert code == 0 and err == ""
    kv = parse_kv(out)
    assert kv["failure"].startswith(f"{failure}: ")
    assert (kv["class"], kv["converged"], kv["iterations"]) == ("Undecided", "false", "0")


def test_solve_where_the_shift_scale_overflows():
    # |grad F|**8 overflows at 1e8, so no shift moves the point and bnqn
    # runs to the cap where it started, instead of raising OverflowError
    code, out, err = invoke(["solve", "--poly", "-1,0,0,1", "--tau", "8", "--z0", "1e8,0"])
    assert code == 0 and err == ""
    kv = parse_kv(out)
    assert (kv["x"], kv["y"], kv["class"], kv["iterations"]) == ("100000000", "0", "Undecided", "10000")
    assert "failure" not in kv


def test_an_overflowing_derivative_is_named():
    # the message names the typed polynomial, not the inf coefficient of g'
    code, out, err = invoke(["solve", "--poly", "1,0,1e308"])
    assert (code, out) == (1, "")
    assert err == "error: a coefficient of the derivative of 1,0,1e+308 overflows\n"


@pytest.mark.parametrize("c", ["1e-200", "1e200"])
def test_invariance_names_c_and_tau_where_the_shifts_break(c):
    # c**(2 - tau) underflows to 0.0 or overflows: the message names the
    # typed c and tau, not the scaled shifts the user never gave
    code, out, err = invoke(["invariance", "--c", c, "--tau", "0.1"])
    assert (code, out) == (1, "")
    assert err == (
        f"error: the shifts times c**(2 - tau) are not finite and pairwise distinct for c = {float(c)}, tau = 0.1\n"
    )


def test_a_failed_invariance_run_prints_one_line(recwarn):
    # at c = 1e300 the conjugated Hessian holds inf - inf, whose NaN pair
    # average fails the step: the run exits 2 with its failure line alone,
    # and numpy warns about nothing on the way
    code, out, err = invoke(["invariance", "--poly", "1,0,0,0,0,1", "--c", "1e300"])
    assert (code, out) == (2, "")
    assert err.startswith("failure: run failed during invariance check: ") and err.count("\n") == 1
    assert not recwarn.list


def test_solve_with_an_infinite_class_tol_matches_no_missing_root():
    # one Newton step from 6e7 lands on (-inf, NaN), where no root distance
    # is below inf; that used to print class=Root with root_index=-1
    for tol in ([], ["--class-tol", "inf"]):
        code, out, err = invoke(["solve", "--poly", Z40M1, "--method", "newton1d", "--z0", "6e7,0", *tol])
        assert code == 0 and err == ""
        kv = parse_kv(out)
        assert (kv["x"], kv["y"], kv["iterations"]) == ("-inf", "nan", "1")
        assert (kv["class"], kv["root_index"]) == ("Diverged", ""), tol


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


@pytest.mark.parametrize(
    "flags",
    [["--tol", "nan"], ["--theta", "nan"], ["--class-tol", "nan"], ["--class-tol", "-1"]],
    ids=["tol-nan", "theta-nan", "class-tol-nan", "class-tol-negative"],
)
@pytest.mark.parametrize("command", ["solve", "basin"])
def test_nan_and_negative_tolerances_are_usage_errors(tmp_path, command, flags):
    # NaN passes a test of the form x < 0; before it was refused, --tol nan
    # ran every basin cell to the cap, and --class-tol nan or -1 left every
    # converged cell Undecided, each with exit status 0
    files = ["--out", str(tmp_path / "b.ppm"), "--csv", str(tmp_path / "b.csv")] if command == "basin" else []
    code, out, err = invoke([command, "--poly", "-1,0,0,1", *(["--res", "5,5"] if files else []), *files, *flags])
    assert code == 1 and out == "" and "nonnegative" in err, (command, flags)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("deltas", ["nan,1", "0,inf", "-inf,0,1", "-nan,1", "-Infinity,0,1", "-INF,0"])
@pytest.mark.parametrize("command", ["solve", "basin"])
def test_non_finite_shifts_are_usage_errors(tmp_path, command, deltas):
    # before they were refused, --deltas nan,1 and 0,inf left 23 of the 25
    # cells Undecided, with exit status 0; a value after a space that starts
    # with -inf or -nan was taken for an option string
    files = ["--out", str(tmp_path / "b.ppm"), "--csv", str(tmp_path / "b.csv")] if command == "basin" else []
    for flag in ([f"--deltas={deltas}"], ["--deltas", deltas]):
        code, out, err = invoke([command, "--poly", "-1,0,0,1", *(["--res", "5,5"] if files else []), *files, *flag])
        assert code == 1 and out == "" and "finite" in err, (command, flag, err)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["bnqn", "newton1d"])
def test_basin_window_bounds(tmp_path, method):
    files = ["--out", str(tmp_path / "b.ppm"), "--csv", str(tmp_path / "b.csv")]
    code, out, err = invoke(["basin", "--method", method, "--res", "3,3", "--window=-inf,inf,-1,1", *files])
    assert code == 1 and "finite" in err
    for window in ("-inf,1,-1,1", "-nan,1,-1,1", "-Infinity,1,-1,1", "-NaN,1,-1,1"):
        code, out, err = invoke(["basin", "--method", method, "--res", "3,3", "--window", window, *files])
        assert code == 1 and out == "" and "finite" in err, (window, err)
        assert list(tmp_path.iterdir()) == []
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


def test_rrn_fails_where_the_root_finder_finds_no_root():
    # the roots of 1e-300 z^2 + 1e300 are +-1e300i, but the companion
    # matrix entry -1e300/1e-300 overflows: the run fails, printing no roots
    code, out, err = invoke(["rrn", "--poly", "1e300,0,1e-300", "--trials", "10"])
    assert (code, out) == (2, "")
    assert err == "failure: numpy.roots failed: Array must not contain infs or NaNs\n"


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


@pytest.mark.parametrize("method", ["bnqn", "btgd", "nqn", "newton-opt", "newton1d", "rrn1d"])
def test_lockstep_basin_ignores_threads_env(tmp_path, monkeypatch, method):
    # every basin runs in one process: BNQN_THREADS, which once capped a
    # process pool, is read by nothing, not even when it is not a number
    monkeypatch.chdir(tmp_path)
    argv = ["basin", "--poly", "-1,0,0,1", "--method", method, "--res", "9,8", "--max-iter", "300",
            "--seed", "3", "--out", "t.ppm", "--csv", "t.csv"]
    outputs = []
    for threads in (None, "abc"):
        if threads is not None:
            monkeypatch.setenv("BNQN_THREADS", threads)
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        outputs.append((out, Path("t.ppm").read_bytes(), Path("t.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert parse_kv(outputs[0][0])["method"] == method
