"""Traced run: spans and counts recorded from the benchmark's own files.

The tracer wraps the package's public functions where their callers look
them up (``bnqn.basins.run``, ``bnqn.solvers.select_delta``, the
``PolyModulusObjective`` methods, ...).  Each wrapped call becomes a span
(name, start, end, parent); the parent is the innermost open span, so every
compute span of one start hangs under that start's ``solvers.run`` span.
Spans live in flat arrays and are written out once, when the run ends.
A name the package no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import bnqn.basins
import bnqn.cli
import bnqn.objective
import bnqn.solvers
from bnqn.linalg import SymmetricMatrix
from bnqn.objective import PolyModulusObjective
from bnqn.solvers import Method, SolverConfig

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("solvers.run.calls", "count", "lower"),
    ("solvers.run.s", "s", "lower"),
    ("solvers.run.self_s", "s", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.iters_per_start", "count", "lower"),
    ("solvers.iters_max", "count", "lower"),
    ("solvers.start_ms_p50", "ms", "lower"),
    ("solvers.start_ms_p99", "ms", "lower"),
    ("solvers.cap_hits", "count", "lower"),
    ("solvers.cap_iter_frac", "ratio", "lower"),
    ("solvers.failures", "count", "lower"),
    ("solvers.select_delta.calls", "count", "lower"),
    ("solvers.select_delta.s", "s", "lower"),
    ("solvers.shifts_per_step", "count", "lower"),
    ("solvers.armijo_trials_per_step", "count", "lower"),
    ("objective.value.calls", "count", "lower"),
    ("objective.value.s", "s", "lower"),
    ("objective.gradient.calls", "count", "lower"),
    ("objective.gradient.s", "s", "lower"),
    ("objective.gradient_and_hessian.calls", "count", "lower"),
    ("objective.gradient_and_hessian.s", "s", "lower"),
    ("objective.classify.calls", "count", "lower"),
    ("objective.classify.s", "s", "lower"),
    ("objective.unclassified", "count", "lower"),
    ("linalg.minsp.calls", "count", "lower"),
    ("linalg.minsp.s", "s", "lower"),
    ("linalg.reflected_direction.calls", "count", "lower"),
    ("linalg.reflected_direction.s", "s", "lower"),
    ("linalg.SymmetricMatrix.inits", "count", "lower"),
    ("complexpoly.all_roots.calls", "count", "lower"),
    ("complexpoly.all_roots.s", "s", "lower"),
    ("complexpoly.sample_relaxed_alpha.calls", "count", "lower"),
    ("complexpoly.sample_relaxed_alpha.s", "s", "lower"),
    ("complexpoly.relaxed_newton_map.calls", "count", "lower"),
    ("complexpoly.relaxed_newton_map.s", "s", "lower"),
    ("complexpoly.horner_madds", "count", "lower"),
    ("basins.render_basin.s", "s", "lower"),
    ("basins.sweep_overhead_s", "s", "lower"),
    ("basins.export_ppm.s", "s", "lower"),
    ("basins.export_csv.s", "s", "lower"),
    ("basins.bytes_written", "B", "lower"),
    ("cli.run_command.s", "s", "lower"),
    ("cli.pool_speedup", "ratio", "higher"),
    ("cli.pool_cpu_overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_ARMIJO_METHODS = (Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD)


class Tracer:
    """Patches span wrappers into the package; ``close`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []
        self.absent: list[str] = []
        self.inits = 0
        # one entry per start: iterations, converged, failed, Undecided, cap
        self.starts: list[tuple[int, bool, bool, bool, bool]] = []
        self.armijo_steps = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        if not hasattr(owner, attr):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), on_return))

    def count_inits(self, cls) -> None:
        original = cls.__init__

        def counted(obj, *args, **kwargs):
            self.inits += 1
            original(obj, *args, **kwargs)

        self._set(cls, "__init__", counted)

    def close(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def install(self) -> None:
        """Wrap every layer boundary the workloads cross."""
        signature = inspect.signature(bnqn.solvers.run)

        def on_run(args, kwargs, trace):
            if len(args) >= 4 and not kwargs.keys() & {"method", "cfg"}:
                method, cfg = args[2], args[3]
            else:
                bound = signature.bind(*args, **kwargs).arguments
                method, cfg = bound["method"], bound.get("cfg")
            method = Method(method)
            cfg = cfg or SolverConfig()
            failed = trace.failure is not None
            undecided = trace.terminal.kind == "Undecided"
            cap = undecided and not failed and not trace.converged and trace.iterations >= cfg.max_iter
            self.starts.append((trace.iterations, trace.converged, failed, undecided, cap))
            if method in _ARMIJO_METHODS:
                self.armijo_steps += trace.iterations

        self.patch(bnqn.basins, "run", "solvers.run", on_run)
        self.patch(bnqn.cli, "run", "solvers.run", on_run)
        for attr, name in (
            ("select_delta", "solvers.select_delta"),
            ("minsp", "linalg.minsp"),
            ("reflected_direction", "linalg.reflected_direction"),
            ("sample_relaxed_alpha", "complexpoly.sample_relaxed_alpha"),
            ("relaxed_newton_map", "complexpoly.relaxed_newton_map"),
        ):
            self.patch(bnqn.solvers, attr, name)
        self.patch(bnqn.objective, "all_roots", "complexpoly.all_roots")
        for attr in ("value", "gradient", "gradient_and_hessian", "classify"):
            self.patch(PolyModulusObjective, attr, f"objective.{attr}")
        self.patch(PolyModulusObjective, "classify_roots_only", "objective.classify")
        for attr in ("render_basin", "export_ppm", "export_csv"):
            self.patch(bnqn.cli, attr, f"basins.{attr}")
        self.count_inits(SymmetricMatrix)

    def spans(self):
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, start, end

    def write(self, path: Path) -> None:
        name, parent, start, end = self.spans()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)

    def layer_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        name, parent, start, end = self.spans()
        k = len(self.names)
        dur = end - start
        inner = parent >= 0
        covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=dur - covered, minlength=k)
        out = {n: (int(calls[i]), float(incl[i]), float(excl[i])) for i, n in enumerate(self.names)}
        runs = dur[name == self._ids["solvers.run"]] if "solvers.run" in self._ids else dur[:0]
        return out, runs


def layer_metrics(tracer: Tracer, degree: int, bytes_written: int) -> dict:
    """The span- and count-based per-layer metrics of one traced run."""
    layers, run_durations = tracer.layer_times()

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return layers.get(name, (0, 0.0, 0.0))[1]

    outcomes = np.array(tracer.starts, dtype=np.int64).reshape(-1, 5)
    iters, converged, failed, undecided, cap = (outcomes[:, c] for c in range(5))
    total_iters = int(iters.sum())
    n_runs = len(outcomes)
    steps = tracer.armijo_steps
    ms = np.asarray(run_durations) * 1e3
    d = degree
    m = {
        "solvers.run.calls": calls("solvers.run"),
        "solvers.run.s": incl("solvers.run"),
        "solvers.run.self_s": layers.get("solvers.run", (0, 0.0, 0.0))[2],
        "solvers.iterations": total_iters,
        "solvers.iters_per_start": total_iters / n_runs if n_runs else 0.0,
        "solvers.iters_max": int(iters.max()) if n_runs else 0,
        "solvers.start_ms_p50": float(np.percentile(ms, 50)) if len(ms) else 0.0,
        "solvers.start_ms_p99": float(np.percentile(ms, 99)) if len(ms) else 0.0,
        "solvers.cap_hits": int(cap.sum()),
        "solvers.cap_iter_frac": float(iters[cap == 1].sum()) / total_iters if total_iters else 0.0,
        "solvers.failures": int(failed.sum()),
        "solvers.select_delta.calls": calls("solvers.select_delta"),
        "solvers.select_delta.s": incl("solvers.select_delta"),
        "solvers.shifts_per_step": (
            calls("linalg.minsp") / calls("solvers.select_delta") if calls("solvers.select_delta") else 0.0
        ),
        "solvers.armijo_trials_per_step": (
            (calls("objective.value") - steps) / steps if steps else 0.0
        ),
        "objective.unclassified": int(((converged == 1) & (failed == 0) & (undecided == 1)).sum()),
        "linalg.SymmetricMatrix.inits": tracer.inits,
        # computed, not counted: one multiply-add per degree per Horner pass
        # (g, g', g'' have degrees d, d-1, d-2); all_roots' own passes excluded
        "complexpoly.horner_madds": (
            d * calls("objective.value")
            + (2 * d - 1) * calls("objective.gradient")
            + (3 * d - 3) * calls("objective.gradient_and_hessian")
            + (2 * d - 1) * calls("complexpoly.relaxed_newton_map")
        ),
        "basins.render_basin.s": incl("basins.render_basin"),
        "basins.sweep_overhead_s": (
            incl("basins.render_basin") - incl("solvers.run") if calls("basins.render_basin") else 0.0
        ),
        "basins.export_ppm.s": incl("basins.export_ppm"),
        "basins.export_csv.s": incl("basins.export_csv"),
        "basins.bytes_written": bytes_written,
        "cli.run_command.s": incl("cli.run_command"),
    }
    for layer in ("objective.value", "objective.gradient", "objective.gradient_and_hessian",
                  "objective.classify", "linalg.minsp", "linalg.reflected_direction",
                  "complexpoly.all_roots", "complexpoly.sample_relaxed_alpha",
                  "complexpoly.relaxed_newton_map"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = incl(layer)
    return m
