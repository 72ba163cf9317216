"""bnqn benchmark: drives ``bnqn.cli.run_command`` in-process on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload basin-cubic-bnqn --seed 1 --seconds 20 --trace 0

Every output is checked by the correctness gate before any timing; if the gate
fails the command exits 1 and prints no metric.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = (
    ("starts_per_s", "1/s", "higher"),
    ("undecided_frac", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
MIN_REPS = 3  # timed cycles per run, whatever --seconds says
MAX_TIMED_S = 120.0  # keeps a run under its time limit on a slow machine
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median


class ProgramMissing(Exception):
    """The checkout holds no importable package source."""


def load_program() -> None:
    """Import ``bnqn`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bnqn" / "__init__.py").is_file():
        raise ProgramMissing(f"no package source at {SRC / 'bnqn'}")
    sys.path.insert(0, str(SRC))
    import bnqn

    if Path(bnqn.__file__).resolve().parent != (SRC / "bnqn").resolve():
        raise ProgramMissing(f"bnqn was imported from {bnqn.__file__}, not from {SRC}")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Timer:
    """Times calls in normalized seconds (see calibrate.py), each call
    bracketed by the calibration kernel; the kernel run after one call is the
    one before the next.  Also sums the calls' raw wall seconds and their
    normalized CPU seconds (this process and its waited-for children)."""

    def __init__(self):
        self.before = calibrate.seconds()
        self.wall = 0.0
        self.cpu = 0.0

    def call(self, call, threads, reference, command=None) -> float:
        from gate import digest, invoke, require

        cpu0 = _cpu_seconds()
        t0 = perf_counter()
        stdout = invoke(call, threads, command)
        wall = perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        require(digest(call, stdout) == reference, f"a repeated run of {call.argv[0]} changed its output")
        after = calibrate.seconds()
        scale = calibrate.NOMINAL_S / (0.5 * (self.before + after))
        self.before = after
        self.wall += wall
        self.cpu += cpu * scale
        return wall * scale


class pinned:
    """Keep this process, and the processes it starts, on one CPU.

    The host slows its CPUs down one at a time, so a calibration taken on
    one CPU only describes calls that ran on that same CPU.
    """

    def __enter__(self):
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.cpus)})

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self.cpus)


def cycles(calls, digests, seconds, threads):
    """Run every call once per cycle for ``seconds`` (at least MIN_REPS
    cycles); returns the per-call medians of the normalized seconds summed
    over one cycle, the number of cycles and the timer."""
    timer = Timer()
    times = [[] for _ in calls]
    stop = perf_counter() + min(seconds, MAX_TIMED_S)
    done = 0
    while done < MIN_REPS or perf_counter() < stop:
        for call, ref, samples in zip(calls, digests, times):
            samples.append(timer.call(call, threads, ref))
        done += 1
    return sum(statistics.median(samples) for samples in times), done, timer


def setup_seconds(calls) -> tuple[float, float]:
    """Median normalized and median raw seconds of SETUP_PROBES fresh
    interpreters."""
    from gate import GateFailure

    polys = list(dict.fromkeys(call.poly for call in calls))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw = [], []
    before = calibrate.seconds()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), *polys],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise GateFailure(f"setup probe failed: {proc.stderr.strip()}")
        after = calibrate.seconds()
        raw.append(float(proc.stdout))
        times.append(raw[-1] * calibrate.NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times), statistics.median(raw)


def untraced(workload, calls, digests, undecided, seconds):
    starts = sum(call.starts for call in calls)
    with pinned() if workload.threads == 1 else contextlib.nullcontext():
        total, reps, timer = cycles(calls, digests, seconds, workload.threads)
    # read before the setup probes, so that only pool workers count as children
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with pinned():
        setup_s, setup_raw = setup_seconds(calls)
    values = {
        "starts_per_s": starts / total,
        "undecided_frac": undecided / starts,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    notes = [
        f"{reps} timed cycles of {len(calls)} call(s), {starts} starts per cycle",
        f"unnormalized wall-clock starts/s over all cycles: {reps * starts / timer.wall:.1f}",
        f"unnormalized setup seconds, median of {SETUP_PROBES}: {setup_raw:.4f}",
    ]
    # attempted/failed count the distinct starts of one cycle: every timed
    # cycle must reproduce them byte for byte, so the counts depend on the
    # seed only, not on how many cycles fit in the run
    return metrics, starts, undecided, notes


def traced(workload, calls, digests, undecided, seed, seconds):
    import bnqn.cli
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import NPROC

    pooled, pool_cycles, pool_timer = cycles(calls, digests, 0, NPROC)
    with pinned():
        serial, serial_cycles, serial_timer = cycles(calls, digests, seconds / 2, 1)
        timer = Timer()
        with Tracer() as tracer:
            tracer.install()
            command = tracer.wrap("cli.run_command", bnqn.cli.run_command)
            traced_s = sum(timer.call(call, 1, ref, command) for call, ref in zip(calls, digests))
    bytes_written = sum(os.path.getsize(p) for call in calls for p in (call.ppm, call.csv) if p)
    values = layer_metrics(tracer, workload.degree, bytes_written)
    values["cli.pool_speedup"] = serial / pooled
    values["cli.pool_cpu_overhead_s"] = pool_timer.cpu / pool_cycles - serial_timer.cpu / serial_cycles
    values["trace.overhead_frac"] = traced_s / serial - 1.0
    spans_path = WORK / f"trace-{workload.name}-seed{seed}.npz"
    tracer.write(spans_path)
    notes = [f"spans: {len(tracer.span_start)} written to {spans_path.relative_to(ROOT)}"]
    notes += [f"absent in the package, not traced: {name}" for name in tracer.absent]
    layers = {name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER if name.endswith(".calls")}
    notes += [f"{layer} is not called on this workload; its metrics read 0"
              for layer in sorted(layers) if values[f"{layer}.calls"] == 0]
    if not values["basins.render_basin.s"]:
        notes.append("basins is not called on this workload; its metrics read 0")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    starts = sum(call.starts for call in calls)
    return metrics, starts, undecided, notes


def benchmark(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Gate, then measure one workload; returns (result object, note lines).

    Raises ``gate.GateFailure`` when an output is wrong.
    """
    import gate
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = workload.calls(seed, workdir, size)
        digests, undecided = gate.check(calls, workload.threads, seed)
        if trace:
            metrics, attempted, failed, notes = traced(workload, calls, digests, undecided, seed, seconds)
        else:
            metrics, attempted, failed, notes = untraced(workload, calls, digests, undecided, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import gate
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, notes = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except gate.GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(f"# {line}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
