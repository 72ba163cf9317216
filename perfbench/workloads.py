"""The benchmark's workloads: the argv a user would type, built from the seed.

Every input is generated here from ``--seed`` alone; the program under test
only ever sees the resulting command lines.  Polynomials are expanded and
formatted with numpy and plain string formatting, not with the package, so a
change to the package cannot change the inputs it is measured on.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NPROC = len(os.sched_getaffinity(0))

CUBIC = "-1,0,0,1"  # z^3 - 1, lowest degree first
WINDOW = (-2.0, 2.0, -2.0, 2.0)

# Cluster geometry of basin-cluster8-bnqn: offsets of the three clustered
# roots from a point u on the unit circle, as multiples of u.  Held fixed on
# every seed so that no seed can spread the cluster and hide the defect.
CLUSTER_OFFSETS = (0.0, 1e-3, 5e-4j)
CLUSTER_FREE_RADIUS = (0.5, 1.5)

RRN_RHO = "0.7"
# The budget sits just above the median trial length (32 iterations on z^3-1),
# so about a quarter of the trials end Undecided; with the CLI's default 2000
# no trial ever does and undecided_frac would read 0.
RRN_MAX_ITER = 34


@dataclass(frozen=True)
class Call:
    """One ``run_command`` invocation and what its gate needs to know."""

    argv: tuple[str, ...]
    starts: int
    kind: str  # "basin" | "rrn"
    poly: str
    method: str = ""
    res: int = 0
    ppm: str = ""
    csv: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int  # BNQN_THREADS for the measured runs
    degree: int
    build: Callable[..., list[Call]]  # (seed, workdir, **size parameters)
    sizes: dict  # size name -> parameters for ``build``

    def calls(self, seed: int, workdir: Path, size: str = "full") -> list[Call]:
        return self.build(seed, workdir, **self.sizes[size])


def seed_words(seed: int) -> int:
    """Map any integer seed to the non-negative 63-bit range numpy accepts."""
    return seed & (2**63 - 1)


def format_poly(coeffs_low_first) -> str:
    """``re+imi`` tokens, lowest degree first, exact to the last bit."""
    tokens = []
    for c in coeffs_low_first:
        c = complex(c)
        tokens.append(f"{c.real:.17g}{c.imag:+.17g}i")
    return ",".join(tokens)


def cluster8_roots(seed: int, instance: int) -> list[complex]:
    """Three roots clustered at a seeded point of the unit circle, five spread.

    The five free roots are drawn one per remaining sixth of the circle (with
    a seeded jitter of +-15 degrees) at area-uniform radii in [0.5, 1.5], so
    no seed adds a second accidental cluster.
    """
    rng = np.random.default_rng([seed_words(seed), instance])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    u = cmath.exp(1j * theta)
    roots = [u * (1.0 + d) for d in CLUSTER_OFFSETS]
    lo, hi = CLUSTER_FREE_RADIUS
    for m in range(1, 6):
        angle = theta + m * math.pi / 3.0 + rng.uniform(-math.pi / 12.0, math.pi / 12.0)
        radius = math.sqrt(rng.uniform(lo * lo, hi * hi))
        roots.append(radius * cmath.exp(1j * angle))
    return roots


def cluster8_poly(seed: int, instance: int) -> str:
    return format_poly(np.poly(cluster8_roots(seed, instance))[::-1])


def _basin_call(poly: str, method: str, res: int, workdir: Path, tag: str) -> Call:
    ppm = workdir / f"{tag}.ppm"
    csv = workdir / f"{tag}.csv"
    window = ",".join(f"{v:g}" for v in WINDOW)
    argv = (
        "basin", "--poly", poly, "--method", method, "--window", window,
        "--res", f"{res},{res}", "--out", str(ppm), "--csv", str(csv),
    )
    return Call(argv, res * res, "basin", poly, method, res, str(ppm), str(csv))


def _cubic_calls(method):
    def build(seed, workdir, res):
        return [_basin_call(CUBIC, method, res, workdir, f"cubic-{method}")]
    return build


def _cluster8_calls(seed, workdir, res, instances):
    return [
        _basin_call(cluster8_poly(seed, k), "bnqn", res, workdir, f"cluster8-{k}")
        for k in range(instances)
    ]


def _rrn_calls(seed, workdir, trials, experiments):
    calls = []
    for k in range(experiments):
        program_seed = int(np.random.SeedSequence([seed_words(seed), k]).generate_state(1)[0])
        argv = (
            "rrn", "--poly", CUBIC, "--rho", RRN_RHO, "--max-iter", str(RRN_MAX_ITER),
            "--trials", str(trials), "--seed", str(program_seed),
        )
        calls.append(Call(argv, trials, "rrn", CUBIC))
    return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "basin-cubic-bnqn",
            "the paper's headline picture; objective, linalg and select_delta dominate, "
            "and the odd grid keeps the converged-but-Undecided axis line in view",
            threads=1, degree=3, build=_cubic_calls("bnqn"),
            sizes={"full": {"res": 51}, "tiny": {"res": 11}},
        ),
        Workload(
            "basin-cubic-btgd",
            "same objective with no Hessian or linalg; axis cells hit the 10000-iteration cap "
            "and hold most iterations, the long tail a lockstep kernel must handle",
            threads=1, degree=3, build=_cubic_calls("btgd"),
            sizes={"full": {"res": 9}, "tiny": {"res": 5}},
        ),
        Workload(
            "basin-cluster8-bnqn",
            "degree-8 Horner cost and real all_roots/classify work; a fixed-width root "
            "cluster leaves a third of converged cells Undecided",
            threads=1, degree=8, build=_cluster8_calls,
            sizes={"full": {"res": 25, "instances": 16}, "tiny": {"res": 7, "instances": 2}},
        ),
        Workload(
            "rrn-cubic-pool",
            "one-variable path with no Hessian, linalg or Armijo; short trials expose "
            "per-trial Generator creation, alpha sampling and process-pool dispatch",
            threads=NPROC, degree=3, build=_rrn_calls,
            sizes={"full": {"trials": 1000, "experiments": 6}, "tiny": {"trials": 100, "experiments": 2}},
        ),
    )
}
