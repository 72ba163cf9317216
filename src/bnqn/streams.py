"""Random relaxed Newton's draws, each a pure function of (seed, trial, step).

Trial t of ``bnqn rrn`` (and cell (i, j) of an nx by ny rrn1d basin, which
is trial i*ny + j) draws its start, and at its step k its relaxation factor
alpha, with no random state but k.  Every draw hashes a counter with
SplitMix64's finalizer ``mix`` (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), a bijection of 64-bit words:

- the key: ``mix`` of the seed's lowest 64-bit word, then, for each higher
  word w, ``mix(key ^ w)``; ``--seed N`` means this key.  A negative seed
  raises ``ValueError("expected non-negative integer")``.
- the counter of attempt j at step k of trial t: c = t*2**32 + k*2**7 + j,
  each field within its width for t < 2**32, k < 2**25 and j < 2**7.  The
  start is attempt 0 at the reserved step k = 2**25 - 1, so the steps of a
  run up to ``max_iter`` = 2**25 - 1 keep to their field; ``check_bounds``
  rejects a trial id or a ``max_iter`` past these bounds.
- the pair of 64-bit hashes of an attempt: hu = mix(s) at SplitMix64's
  state s = key + c*GAMMA mod 2**64, then hv = mix(hu ^ key).
- each double: d = (h >> 11) * 2**-53, mapped to [-a, a) as -a + 2a*d,
  as numpy's ``Generator.uniform(-a, a)`` maps its doubles.

No two (seed, t, k, j) within those bounds give the same pair, for seeds
below 2**64: mix can be undone, so hv and hu give key = mix^-1(hv) ^ hu and
then c = (mix^-1(hu) - key) / GAMMA (GAMMA is odd), the key gives the seed
(mix is a bijection), and c gives (t, k, j).  A longer seed folds into a
key that some other seed may share.

alpha = 1 + u + iv for the first attempt whose (u, v), each uniform on
[-rho, rho), has u*u + v*v <= rho*rho, so alpha is uniform on the disk
|alpha - 1| <= rho; only the lanes whose pair was rejected hash the next
attempt.  An attempt is rejected with probability 1 - pi/4, so j reaches
2**7, where an attempt would repeat one of step k + 1, with probability
below 1e-85.  The start is (u, v) of its attempt, each uniform on [-3, 3).

Scalar ``run`` draws on Python ints masked to 64 bits
(``sample_relaxed_alpha``), the lockstep kernel on uint64 arrays
(``relaxation_factors``, ``trial_starts``).  Both take only + - *, shifts,
xor and comparisons, and every constant meets the arrays as an np.uint64,
so that no op leaves uint64 under numpy 1.24 and numpy 2 alike; uint64
array arithmetic wraps silently, so the two agree bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["check_bounds", "relaxation_factors", "sample_relaxed_alpha", "seed_key", "trial_starts"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio, odd
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_START = (1 << 25) - 1  # the start's step index
_U_GAMMA, _U_M1, _U_M2 = np.uint64(_GAMMA), np.uint64(_M1), np.uint64(_M2)
_U7, _U11, _U27, _U30, _U31, _U32 = (np.uint64(v) for v in (7, 11, 27, 30, 31, 32))


def _mix(z: int) -> int:
    """SplitMix64's finalizer on a Python int below 2**64."""
    z = (z ^ z >> 30) * _M1 & _MASK
    z = (z ^ z >> 27) * _M2 & _MASK
    return z ^ z >> 31


def _mix_array(z):
    """SplitMix64's finalizer on a uint64 array."""
    z = (z ^ z >> _U30) * _U_M1
    z = (z ^ z >> _U27) * _U_M2
    return z ^ z >> _U31


def seed_key(seed: int) -> int:
    """The draws' 64-bit key of a non-negative integer seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    key = _mix(seed & _MASK)
    while seed := seed >> 64:
        key = _mix(key ^ seed & _MASK)
    return key


def check_bounds(max_iter: int, trial: int = 0) -> None:
    """Reject a trial id outside [0, 2**32) and a ``max_iter`` above
    2**25 - 1, whose draws would leave their fields of the counter."""
    if not 0 <= trial < 1 << 32:
        raise ValueError(f"trial ids must lie in [0, 2**32), got {trial}")
    if max_iter > _START:
        raise ValueError(f"random relaxed Newton's max_iter must be at most 2**25 - 1, got {max_iter}")


def sample_relaxed_alpha(rho: float, key: int, trial: int, step: int) -> complex:
    """The relaxation factor of ``trial`` at ``step``, uniform (area
    measure) on |alpha - 1| <= rho."""
    state = key + (trial << 32 | step << 7) * _GAMMA & _MASK
    while True:
        hu = _mix(state)
        u = -rho + 2.0 * rho * ((hu >> 11) * 2.0**-53)
        v = -rho + 2.0 * rho * ((_mix(hu ^ key) >> 11) * 2.0**-53)
        if u * u + v * v <= rho * rho:
            return complex(1.0 + u, v)
        state = state + _GAMMA & _MASK


def _states(key: int, trials, step: int):
    """SplitMix64's state at attempt 0 of each trial in the integer array
    ``trials`` at ``step``."""
    return (trials.astype(np.uint64) << _U32 | np.uint64(step) << _U7) * _U_GAMMA + np.uint64(key)


def _pair(states, key: int, half: float):
    """The (u, v) doubles of the attempts at ``states``, on [-half, half)."""
    hu = _mix_array(states)
    hv = _mix_array(hu ^ np.uint64(key))
    return -half + 2.0 * half * ((hu >> _U11) * 2.0**-53), -half + 2.0 * half * ((hv >> _U11) * 2.0**-53)


def relaxation_factors(rho: float, key: int, trials, step: int):
    """``sample_relaxed_alpha`` of every trial in the integer array
    ``trials`` at ``step``, as (re, im) arrays."""
    states = _states(key, trials, step)
    rr = rho * rho
    u, v = _pair(states, key, rho)
    redo = np.flatnonzero(u * u + v * v > rr)
    j = 0
    while redo.size:
        j += 1
        ur, vr = _pair(states[redo] + np.uint64(j * _GAMMA & _MASK), key, rho)
        u[redo], v[redo] = ur, vr
        redo = redo[ur * ur + vr * vr > rr]
    return 1.0 + u, v


def trial_starts(key: int, trials):
    """The start (x0, y0) of every trial in the integer array ``trials``,
    uniform on [-3, 3)^2."""
    return _pair(_states(key, trials, _START), key, 3.0)
