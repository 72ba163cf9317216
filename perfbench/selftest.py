"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at its tiny size through the correctness gate, untraced
and traced; two traced runs with one seed must agree exactly on every
count-valued metric (unit ``count`` or ``B``).  The file name keeps it out of the package's own test
collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, cluster8_roots  # noqa: E402

SEED = 5


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_the_gate(name):
    result, _ = run.benchmark(name, SEED, 0, trace=False, size="tiny")
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 < result["failed"] < result["attempted"]
    assert list(result["metrics"]) == [m[0] for m in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, _ = run.benchmark(name, SEED, 0, trace=True, size="tiny")
    second, _ = run.benchmark(name, SEED, 0, trace=True, size="tiny")
    assert list(first["metrics"]) == [m[0] for m in tracing.PER_LAYER]
    exact = [metric for metric, unit, _ in tracing.PER_LAYER if unit in ("count", "B")]
    for metric in exact:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
    assert first["metrics"]["solvers.run.calls"]["value"] == first["attempted"]


@pytest.mark.parametrize("name", ["basin-cluster8-bnqn", "rrn-cubic-pool"])
def test_counts_do_not_depend_on_run_length(name):
    counts = set()
    for seconds, trace in ((0, False), (1, False), (0, True)):
        result, _ = run.benchmark(name, SEED, seconds, trace=trace, size="tiny")
        counts.add((result["attempted"], result["failed"]))
    assert len(counts) == 1, counts


def test_gate_rejects_a_changed_iteration_count(tmp_path):
    call = WORKLOADS["basin-cubic-bnqn"].calls(SEED, tmp_path, "tiny")[0]
    stdout = gate.invoke(call, 1)
    assert gate.check_basin(call, stdout, SEED) > 0
    lines = Path(call.csv).read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("iterations")] = str(int(row[header.index("iterations")]) + 1)
    lines[1] = ",".join(row)
    Path(call.csv).write_text("\n".join(lines) + "\n")
    with pytest.raises(gate.GateFailure):
        gate.check_basin(call, stdout, SEED)


def test_cluster_keeps_its_width_on_every_seed():
    for seed in range(20):
        roots = cluster8_roots(seed, 0)
        assert abs(roots[1] - roots[0]) == pytest.approx(1e-3)
        assert abs(roots[2] - roots[0]) == pytest.approx(5e-4)
        assert all(abs(r) <= 1.5 for r in roots[3:])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "basin-cubic-bnqn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
