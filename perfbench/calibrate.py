"""Machine-speed calibration for timings taken on a shared, drifting host.

On a 2-vCPU x86_64 VM on a shared host, the same BNQN sweep took anywhere
from 0.34 s to 0.72 s from one repetition to the next.  Neighbours on the
host slow a CPU down for tens of seconds at a time, and process CPU time
drifts along with wall time, so it does not hide the effect.  Every timed
call is therefore bracketed by a fixed calibration kernel and rescaled to a
nominal machine:

    normalized_seconds = wall_seconds * NOMINAL_S / calibration_seconds

where ``calibration_seconds`` is the mean of the kernel's time just before
and just after the call, on each CPU the call may use.  The kernel is frozen
benchmark code that exercises what the package's hot loops exercise (Python
complex arithmetic and calls, ``math.hypot``, tiny numpy arrays), so a change
to the package cannot change it.  ``NOMINAL_S`` is about the kernel's time
on an unloaded core of that VM.
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np

NOMINAL_S = 0.05


def _horner(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def kernel(steps: int = 6000) -> float:
    """Plain gradient descent on |z^3 - 1|^2 / 2 from a fixed start."""
    g = (1.0, 0.0, 0.0, -1.0)  # highest degree first
    dg = (3.0, 0.0, 0.0)
    total = 0.0
    for k in range(steps):
        z = complex(0.8 + 1e-4 * (k % 13), 0.6 - 1e-4 * (k % 7))
        for _ in range(4):
            w = _horner(dg, z) * _horner(g, z).conjugate()
            grad = np.array([w.real, -w.imag])
            norm = math.hypot(float(grad[0]), float(grad[1]))
            z = z - 0.05 * complex(grad[0], -grad[1]) / max(1.0, norm)
        total += abs(z)
    return total


def _kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def seconds() -> float:
    """Mean wall seconds of one kernel run on each CPU this process may use.

    A pool spreads a call over every CPU, so its calibration visits each of
    them in turn; a pinned call is calibrated on its own CPU alone.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return _kernel_seconds()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)
