"""Correctness gate: every output is checked before any number is reported.

Basin outputs are read by CSV header name, so an added column does not break
the gate.  Sampled cells are re-run with the scalar ``bnqn.solvers.run``
oracle, which must agree on class and iteration count exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os

import numpy as np

from bnqn import PolyModulusObjective, parse_polynomial
from bnqn.cli import run_command
from bnqn.solvers import Method, SolverConfig, run

from workloads import WINDOW, Call, NPROC

# Seed-chosen cells re-run per basin call: a tenth of the grid, at least 24,
# plus one Undecided cell.  A tenth catches a wrong row or column of a 51x51
# grid with probability above 0.99.
ORACLE_SHARE = 0.1
ORACLE_MIN = 24
POOL_CHECK_TRIALS = 256  # enough for rrn to use the pool (it needs >= 64 trials)
CLASS_TOL = 1e-6  # the CLI's --class-tol default


class GateFailure(Exception):
    """An output of the program is wrong; the benchmark reports no metric."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def invoke(call: Call, threads: int, command=None) -> str:
    """Run one command the way a user would, with the worker count fixed;
    ``command`` stands in for ``run_command`` (the traced run wraps it)."""
    os.environ["BNQN_THREADS"] = str(threads)
    out, err = io.StringIO(), io.StringIO()
    code = (command or run_command)(list(call.argv), out=out, err=err)
    require(code == 0, f"{' '.join(call.argv[:1])} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def digest(call: Call, stdout: str) -> str:
    """Fingerprint of everything a call prints and writes."""
    h = hashlib.blake2b(stdout.encode())
    for path in (call.ppm, call.csv):
        if path:
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def parse_summary(stdout: str) -> dict[str, str]:
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        require(bool(sep), f"summary line without '=': {line!r}")
        pairs[key] = value
    return pairs


def _coord(lo: float, hi: float, n: int, k: int) -> float:
    # the corner-inclusive convex combination documented on bnqn.basins.GridSpec
    if n == 1:
        return lo
    return (lo * (n - 1 - k) + hi * k) / (n - 1)


def _label(kind: str, root_index: str) -> str:
    return f"Root({root_index})" if kind == "Root" else kind


def check_basin(call: Call, stdout: str, seed: int) -> int:
    """Check one basin call's summary, PPM and CSV; returns its Undecided count."""
    n = call.res
    summary = parse_summary(stdout)
    require(summary.get("method") == call.method, f"summary method {summary.get('method')!r}")
    require(summary.get("nx") == str(n) and summary.get("ny") == str(n), "summary grid size")
    printed = {k[6:-1]: int(v) for k, v in summary.items() if k.startswith("count[")}
    require(sum(printed.values()) == n * n, f"printed counts sum to {sum(printed.values())}, not {n * n}")

    with open(call.ppm, "rb") as handle:
        ppm = handle.read()
    header = f"P6\n{n} {n}\n255\n".encode()
    require(ppm.startswith(header) and len(ppm) == len(header) + 3 * n * n, "PPM header or size")

    labels = np.full((n, n), "", dtype=object)
    iterations = np.full((n, n), -1, dtype=np.int64)
    x_min, x_max, y_min, y_max = WINDOW
    with open(call.csv, newline="", encoding="ascii") as handle:
        for row in csv.DictReader(handle):
            i, j = int(row["i"]), int(row["j"])
            require(labels[i, j] == "", f"cell ({i},{j}) appears twice in the CSV")
            require(
                float(row["x"]) == _coord(x_min, x_max, n, i)
                and float(row["y"]) == _coord(y_min, y_max, n, j),
                f"cell ({i},{j}) has the wrong coordinates",
            )
            labels[i, j] = _label(row["class"], row["root_index"])
            iterations[i, j] = int(row["iterations"])
    require(bool(np.all(labels != "")), "the CSV misses grid cells")
    found = dict(zip(*np.unique(labels.astype(str), return_counts=True)))
    require(found == printed, f"CSV class counts {found} differ from the printed {printed}")

    poly = parse_polynomial(call.poly)
    obj = PolyModulusObjective(poly)
    rng = np.random.default_rng(seed)
    sample = min(n * n, max(ORACLE_MIN, round(ORACLE_SHARE * n * n)))
    cells = [divmod(int(c), n) for c in rng.choice(n * n, size=sample, replace=False)]
    undecided = np.argwhere(labels == "Undecided")
    if len(undecided):
        cells.append(tuple(int(v) for v in undecided[rng.integers(len(undecided))]))
    cfg = SolverConfig(seed=0)  # the CLI's defaults
    for i, j in cells:
        z0 = (_coord(x_min, x_max, n, i), _coord(y_min, y_max, n, j))
        trace = run(obj, z0, Method(call.method), cfg, class_tol=CLASS_TOL)
        require(
            str(trace.terminal) == labels[i, j] and trace.iterations == iterations[i, j],
            f"cell ({i},{j}): sweep gave {labels[i, j]} in {iterations[i, j]} iterations, "
            f"scalar run gives {trace.terminal} in {trace.iterations}",
        )

    if all(c.imag == 0.0 for c in poly.coeffs) and y_min == -y_max:
        roots = obj.roots()
        conj = {
            f"Root({k})": f"Root({int(np.argmin([abs(r.conjugate() - s) for s in roots]))})"
            for k, r in enumerate(roots)
        }
        mirrored = np.vectorize(lambda v: conj.get(v, v), otypes=[object])(labels[:, ::-1])
        bad = np.argwhere(mirrored != labels)
        require(len(bad) == 0, f"class map is not mirror symmetric in y, e.g. at cell {bad[:1].tolist()}")
        require(bool(np.all(iterations == iterations[:, ::-1])), "iteration map is not mirror symmetric in y")
    return int(printed.get("Undecided", 0))


def check_rrn(call: Call, stdout: str) -> int:
    """Check an rrn summary; returns the number of trials that reached no root."""
    summary = parse_summary(stdout)
    trials = int(summary["trials"])
    require(trials == call.starts, f"rrn ran {trials} trials, asked for {call.starts}")
    coeffs = [complex(t.replace("i", "j")) for t in call.poly.split(",")]
    scale = max(abs(c) for c in coeffs)
    counts = []
    roots = []
    k = 0
    while f"root_{k}" in summary:
        r = complex(summary[f"root_{k}"].replace("i", "j"))
        require(abs(np.polyval(coeffs[::-1], r)) <= 1e-9 * scale, f"root_{k}={r} is not a root")
        roots.append(r)
        counts.append(int(summary[f"root_{k}_count"]))
        k += 1
    require(len(roots) == len(coeffs) - 1, f"rrn printed {len(roots)} roots")
    require(
        min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]) > 1e-6,
        "rrn printed a root twice",
    )
    reached = sum(counts)
    require(0 <= reached <= trials, "per-root counts exceed the trial count")
    require(summary["converged_fraction"] == f"{reached / trials:.17g}", "converged_fraction")
    return trials - reached


def check_rrn_pool(call: Call) -> None:
    """The pool and a single worker must print byte-identical output."""
    argv = list(call.argv)
    argv[argv.index("--trials") + 1] = str(POOL_CHECK_TRIALS)
    small = Call(tuple(argv), POOL_CHECK_TRIALS, call.kind, call.poly)
    pooled = invoke(small, NPROC)
    serial = invoke(small, 1)
    require(pooled == serial, "rrn output differs between the pool and one worker")
    check_rrn(small, serial)


def check(calls: list[Call], threads: int, seed: int) -> tuple[list[str], int]:
    """Run every call once and check it; returns the reference digests and
    the number of starts that ended Undecided."""
    digests = []
    undecided = 0
    if calls[0].kind == "rrn":
        check_rrn_pool(calls[0])
    for call in calls:
        stdout = invoke(call, threads)
        if call.kind == "basin":
            undecided += check_basin(call, stdout, seed)
        else:
            undecided += check_rrn(call, stdout)
        digests.append(digest(call, stdout))
    return digests, undecided
