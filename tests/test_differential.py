"""A seeded differential slice of the lockstep kernel: ``lockstep.iterate``
with its compiled Horner passes (``lockstep._horner_pass``) against
``iterate`` with ``lockstep._horner`` forced for every pass, bit for bit on
all four output arrays.

Each case is a seeded polynomial of degree 1 to 6, real or complex, whose
coefficient parts are drawn from +-0.0, 1.0, -1.0, 1e-300 and 1e300 or are
random; a seeded config (theta, tau, gamma0, the shifts, grad_tol and the
cap); and starts that pair +-inf, NaN, +-0.0, +-1e200 and +-1e-170 with
random ones.  Every case runs all six methods, BNQN and GD in the three
tail modes in turn (the other methods take no per-lane tail).  Fixed cases
hold a -0.0 constant part whose sign reaches an output, and the corners
where a compiled pass gives another value than ``_horner`` and the kernel
must not read it: an Armijo trial that overflows under a bound of +inf, and
a start at infinity under an infinite divergence radius.

Tier-1 runs a fixed slice.  A longer search runs from the command line and
prints the first mismatching case:

    PYTHONPATH=src python tests/test_differential.py --seed 3 --count 500
"""

import argparse
import math
import sys

import numpy as np
import pytest

from bnqn import lockstep
from bnqn.complexpoly import Polynomial
from bnqn.objective import PolyModulusObjective
from bnqn.solvers import Method, SolverConfig

PARTS = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300]
STARTS = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e200, -1e200, 1e-170, -1e-170]
# _TAIL_LANES per mode: the default, every lane in the sweep, every lane per lane
TAILS = {"default-tail": lockstep._TAIL_LANES, "sweep-only": 0, "per-lane-only": 10**6}
ARMIJO = (Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD)
LANES = 64


def random_case(rng):
    """A seeded (coefficients, config, x0, y0): 16 starts from ``STARTS`` and
    the rest in [-3, 3]^2, on more lanes than the default tail takes."""

    def part(special=0.6):
        if rng.random() < special:
            return float(rng.choice(PARTS))
        return float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))

    degree = int(rng.integers(1, 7))
    real = rng.random() < 0.4

    def coeff(special=0.6):
        return complex(part(special), float(rng.choice([0.0, -0.0])) if real else part(special))

    coeffs = [coeff() for _ in range(degree)]
    # the leading parts choose the first products of a compiled pass
    lead = 0j
    while lead == 0:
        lead = coeff(0.9)
    coeffs.append(lead)
    cfg = SolverConfig(
        theta=float(rng.choice([0.0, 0.5, 1.0, math.inf])),
        tau=float(rng.choice([1.0, 1.0, 0.5, 2.0, 62.0])),
        gamma0=float(rng.choice([1.0, 1.0, 0.5, 0.3])),
        deltas=(0.0, 1.0, -1.0) if rng.random() < 0.7 else (0.0, 0.5, -0.8),
        grad_tol=float(rng.choice([1e-10, 0.0])),
        max_iter=int(rng.integers(5, 40)),
        seed=int(rng.integers(0, 1000)),
    )
    special = rng.choice(STARTS, (2, 16))
    # a third of the random starts on the real axis, at y = +0.0 or -0.0
    x0 = np.concatenate([special[0], rng.uniform(-3.0, 3.0, LANES - 16)])
    y0 = np.concatenate([special[1], rng.uniform(-3.0, 3.0, LANES - 16)])
    axis = rng.random(LANES) < 0.3
    y0[axis] = rng.choice([0.0, -0.0], int(axis.sum()))
    return coeffs, cfg, x0, y0


def _iterate(obj, method, cfg, x0, y0, tail, horner):
    saved = lockstep._TAIL_LANES, lockstep._horner_pass
    lockstep._TAIL_LANES = tail
    if horner:
        # _horner takes the parts and the lanes as a compiled pass does
        lockstep._horner_pass = lambda real_marks, imag_marks: lockstep._horner
    try:
        with np.errstate(all="ignore"):
            return [v.tobytes() for v in lockstep.iterate(obj, method, cfg, x0, y0)]
    finally:
        lockstep._TAIL_LANES, lockstep._horner_pass = saved


def mismatches(coeffs, cfg, x0, y0, modes=tuple(TAILS)):
    """Each (method, tail mode) whose outputs differ between the compiled
    passes and ``_horner``, for every method, BNQN and GD in ``modes``."""
    obj = PolyModulusObjective(Polynomial(coeffs))
    bad = []
    for method in Method:
        for mode in modes if method in ARMIJO else ["default-tail"]:
            tail = TAILS[mode] if method in ARMIJO else 0
            if _iterate(obj, method, cfg, x0, y0, tail, False) != _iterate(obj, method, cfg, x0, y0, tail, True):
                bad.append((method.value, mode))
    return bad


# z^3 + 4z + (0 - 0i): Newton lanes on the real axis at y = -0.0 take the
# sign of their next y from the zero imaginary part of g, so a pass that
# left out the -0.0 constant part's sum would change it.
# g = 1e155 + 1e-160 z: F overflows to inf on the real axis near -max float
# while |grad F| is 1e-5, and its Cauchy bound, so its divergence radius, is
# inf.  At tau = 62 the BNQN direction is about 1e305, so from -1.7975e308
# the first Armijo trial overflows to -inf under a bound f(z) - ... = inf:
# there a compiled pass gives F = inf, which passes, and _horner NaN, which
# does not.  And no lane stops at |z| = inf below an infinite radius, so a
# Newton lane from (inf, 0) would take its step from the compiled passes'
# values.  Under that radius a call binds _horner for every pass
# (tests/test_lockstep.py checks the trial's rule below a finite one).
WIDE = [complex(1e155), complex(1e-160)]
FIXED = {
    "negative-zero-constant": ([complex(0.0, -0.0), 4, 0, 1], SolverConfig(max_iter=5), [0.5, 2.0, -1.5], [-0.0, -0.0, 0.0]),
    "overflowing-trial": (WIDE, SolverConfig(tau=62.0, max_iter=5), [-1.7975e308] * 3, [0.0, -0.0, 1.0]),
    "infinite-radius": (WIDE, SolverConfig(max_iter=5), [math.inf, -math.inf, 1.0], [0.0, 1.0, math.inf]),
}


@pytest.mark.parametrize("case", FIXED)
def test_corners_where_a_compiled_pass_differs_from_horner(case):
    assert mismatches(*FIXED[case]) == []


@pytest.mark.parametrize("seed", range(8))
def test_compiled_passes_match_horner_on_seeded_cases(seed):
    # BNQN and GD take the three tail modes in turn
    rng = np.random.default_rng(seed)
    for n in range(4):
        case = random_case(rng)
        assert mismatches(*case, modes=[list(TAILS)[n % 3]]) == [], case


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    for n in range(args.count):
        coeffs, cfg, x0, y0 = case = random_case(rng)
        bad = mismatches(*case)
        if bad:
            print(f"case {n} of seed {args.seed}: {bad}")
            print(f"coeffs={coeffs!r}\ncfg={cfg!r}\nx0={x0.tolist()!r}\ny0={y0.tolist()!r}")
            return 1
    print(f"{args.count} cases of seed {args.seed}: no mismatch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
