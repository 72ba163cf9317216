"""Lockstep iteration of every ``solvers.Method``.

Every active start (a *lane*) holds its point as one entry of two float64
arrays, x and y, and all lanes take their k-th step in the same sweep.  Each
sweep evaluates g and g' (and g'' for the Hessian methods) by Horner's rule
on the split real/imaginary arrays, tests convergence, divergence and the
iteration cap, and then takes one step on the lanes still running.  BNQN
selects its shift by mask and solves with the closed-form 2x2 eigensystem;
BNQN and GD then run an Armijo search in which the lanes that have accepted
drop out of the backtracking loop.  NQN (the first shift with a nonzero
determinant, then the same reflected solve) and Newton optimization (one
batched ``numpy.linalg.solve``) take the full step z - w.  Newton's map takes
z - g(z)/g'(z), and random relaxed Newton z - alpha*g(z)/g'(z), with each
lane drawing alpha from its own random stream.

The kernel reproduces the scalar ``solvers.run`` bit for bit, so it keeps
that loop's exact floating-point operations:

- norms by ``numpy.hypot``, the C library's ``hypot``, which the scalar
  loop also takes (``linalg.hypot``).  It is not always correctly rounded:
  glibc 2.36's differs from ``math.hypot`` by 1 ulp on about 0.6% of pairs
  of comparable size, and where they differ ``math.hypot`` is the closer;
- complex products written out as ``ar*zr - ai*zi`` and ``ar*zi + ai*zr``,
  the form Python's complex multiply uses (numpy's complex128 multiply
  rounds differently), and complex quotients as CPython's ``_Py_c_quot``;
- Python's ``**`` per lane for ``grad_norm**tau``, because numpy's
  vectorized power is not the C library's ``pow``.  The pole test
  |g'| < ``complexpoly.pole_scale(|z|, degree)`` takes numpy's power for
  all lanes at once and decides by Python's ``**`` only the lanes where the
  two powers could disagree on the outcome (``_pole_failed``);
- ``max(1.0, v)`` as ``where(v > 1.0, v, 1.0)`` and ``min(p, q)`` as
  ``where(q < p, q, p)``, which pick the same operand as Python when a value
  is NaN;
- relaxation factors drawn in blocks of (u, v) pairs, which yields the same
  doubles as the scalar loop's one ``Generator.uniform`` draw per call.

Relaxed lanes draw from ``TrialStreams``, which holds the PCG64 stream of
each lane's ``default_rng((seed, t))`` or ``default_rng((seed, i, j))`` as
uint64 arrays and builds no ``Generator``: SeedSequence's hash runs on uint32
arrays, one entry per lane; PCG64's seeding, its 128-bit LCG step (as
(hi, lo) uint64 pairs) and its XSL-RR output run on all lanes at once; and
``uniform`` gives what ``Generator.uniform`` gives (``next_double``, then
low + (high - low)*d), bit for bit, for any subset of lanes.

Lanes stop when they converge or diverge (the caller classifies them), hit
the cap, or fail the step (no admissible shift, a singular Hessian, an
Armijo underflow, or a vanishing derivative), exactly where the scalar loop
would stop them.  Once at most ``_TAIL_LANES`` BNQN or GD lanes are left, a
sweep costs more than stepping them one by one, so each is finished by
``_finish_lane``: the same step on Python floats and Python ``complex``,
which is the arithmetic the scalar loop does.  The other methods' lanes
always stay in the sweep.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat

import numpy as np

from .complexpoly import _POLE_TOL, RelaxationDisk, pole_scale
from .linalg import _eig2_system, _eig2_values, hypot
from .objective import PolyModulusObjective
from .solvers import _UNDERFLOW_LIMIT, Method, SolverConfig

__all__ = ["CAPPED", "FAILED", "STOPPED", "TrialStreams", "cell_states", "iterate", "trial_states"]

# the methods that take the Hessian, and those that search by Armijo's rule
_HESSIAN = (Method.BNQN_NEW_VARIANT, Method.NQN, Method.NEWTON_OPT)
_ARMIJO = (Method.BNQN_NEW_VARIANT, Method.BACKTRACKING_GD)

# Lane outcomes.  STOPPED lanes converged or left the divergence radius and
# still need ``classify``; CAPPED and FAILED lanes end Undecided.
STOPPED, CAPPED, FAILED = 0, 1, 2

# BNQN and GD lanes go to ``_finish_lane`` once a sweep starts with at most
# this many.  On one core, a sweep costs nearly the same for 1 to 64 lanes:
# 85-160 us for GD on the z^3-1 negative axis, 240-320 us for BNQN at degree
# 3 and 8.  A per-lane step costs 1.9-2.4 us and 6-7 us there, so the kernel
# wins above about 43-62 lanes.  Whole sweeps (z^3-1 BNQN 51x51 and 101x101,
# GD 9x9, four degree-8 clusters at 25x25) took the same time, within noise,
# with any tail from 24 to 64; GD on z^3-1 at 51x51, whose 25 capped axis
# lanes run 10 000 steps each, took 0.7-0.8 s with a tail of 32 or more
# against 1.0-1.5 s with them in the sweep.
_TAIL_LANES = 48

# Relaxation draws per lane and refill: 64 (u, v) pairs, 1 KB, hold about 50
# accepted factors (the disk fills pi/4 of its square), enough for the
# median z^3-1 trial (32 steps) in one ``uniform`` call.
_ALPHA_PAIRS = 64

# Relaxed lanes per sweep, and lanes per SeedSequence hash, so that the
# draws held ahead (1 KB per lane) and the hash's temporaries do not grow
# with the lane count.  For ``bnqn rrn`` on z^3-1 (rho 0.7,
# max-iter 2000) with 16384 trials, peak RSS was 33, 36, 39 and 46 MB for
# blocks of 512, 1024, 2048 and 4096 lanes (30 MB after import), and time
# 0.56, 0.40, 0.28 and 0.28 s on one core, as fewer blocks end in a sweep of
# a few slow lanes.
_RRN_LANES = 1024


def _horner(coeffs, zr, zi):
    """Python's complex Horner loop (acc = acc*z + c from acc = 0j), per lane."""
    ar = ai = 0.0
    for c in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
    return ar, ai


def _times_conj(pr, pi, gr, gi):
    """p * conj(g) with Python's complex product."""
    ngi = -gi
    return pr * gr - pi * ngi, pr * ngi + pi * gr


def _quot(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) per lane, as CPython's ``_Py_c_quot``.

    Smith's method: divide through by the part of the divisor of larger
    magnitude.  Where a part of the divisor is NaN, CPython takes neither
    branch and returns NaN; the second branch's ratio is NaN there, so it
    gives NaN too.  A zero divisor, where Python raises, gives NaN here; the
    pole test retires those lanes first.
    """
    real_wins = np.abs(br) >= np.abs(bi)
    # |br| >= |bi|: divide through by br
    ratio = bi / br
    denom = br + bi * ratio
    qr = (ar + ai * ratio) / denom
    qi = (ai - ar * ratio) / denom
    # |bi| > |br|: divide through by bi
    ratio = br / bi
    denom = br * ratio + bi
    return (
        np.where(real_wins, qr, (ar * ratio + ai) / denom),
        np.where(real_wins, qi, (ai * ratio - ar) / denom),
    )


# numpy's SeedSequence: a pool of four uint32 words, hashed with these
# constants (numpy/random/bit_generator.pyx).  Each meets the arrays as an
# np.uint32, so that the op stays uint32 under numpy 1.24 and numpy 2 alike.
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """SeedSequence's uint32 words of the integer n, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _pcg64_states(seed: int, index_words):
    """``SeedSequence((seed, ...)).generate_state(4, uint64)`` for many lanes
    at once, one row per lane: the entropy is the words of seed, then
    ``index_words``, each a uint32 array with one entry per lane.  A negative
    seed raises SeedSequence's ``ValueError``.

    The hash constants evolve the same way for every lane, so they stay
    Python ints, masked to 32 bits, and each round is a few whole-array ops.
    """
    n = len(index_words[0])
    if n > _RRN_LANES:  # a block at a time, so that the temporaries stay small
        blocks = range(0, n, _RRN_LANES)
        return np.concatenate([_pcg64_states(seed, [w[k : k + _RRN_LANES] for w in index_words]) for k in blocks])
    entropy = [np.full(n, w, dtype=np.uint32) for w in _words(seed)] + index_words
    a = _INIT_A

    def hashmix(v):
        nonlocal a
        v = v ^ np.uint32(a)
        a = a * _MULT_A & _MASK32
        v = v * np.uint32(a)
        return v ^ (v >> _XSHIFT)

    # the first four words seed the pool (zeros past the end), every pool
    # word is mixed into every other, then the words past the pool are mixed in
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: eight uint32 words cycling over the pool, paired
    # little end first into four uint64 words
    b = _INIT_B
    state = []
    for i in range(8):
        v = pool[i % _POOL_WORDS] ^ np.uint32(b)
        b = b * _MULT_B & _MASK32
        v = v * np.uint32(b)
        state.append((v ^ (v >> _XSHIFT)).astype(np.uint64))
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[0::2], state[1::2])], axis=1)


def trial_states(seed: int, first: int, stop: int):
    """``SeedSequence((seed, t)).generate_state(4, uint64)`` for t in
    ``range(first, stop)``, as one row per trial.

    The entropy of trial t is the words of seed followed by the words of t,
    so the block is hashed in runs split where t gains a word (at 2**32,
    2**64, ...).
    """
    states = np.empty((stop - first, 4), dtype=np.uint64)
    lo = first
    while lo < stop:
        t_words = len(_words(lo))
        hi = min(stop, 1 << 32 * t_words)
        t = np.arange(lo, hi, dtype=np.uint64 if hi <= 1 << 64 else object)
        words = [((t >> s) & _MASK32).astype(np.uint32) for s in range(0, 32 * t_words, 32)]
        states[lo - first : hi - first] = _pcg64_states(seed, words)
        lo = hi
    return states


def cell_states(seed: int, nx: int, ny: int):
    """``SeedSequence((seed, i, j)).generate_state(4, uint64)`` for every
    cell of an nx by ny grid, cell (i, j) in row i*ny + j.

    Every index of a grid that fits in memory is below 2**32, one word.
    """
    i = np.repeat(np.arange(nx, dtype=np.uint32), ny)
    j = np.tile(np.arange(ny, dtype=np.uint32), nx)
    return _pcg64_states(seed, [i, j])


# PCG64 as numpy's pcg64.c has it (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", 2014): a 128-bit LCG, state = state*M + inc mod 2**128, with
# an XSL-RR output.  A 128-bit value is a (hi, lo) pair of uint64 arrays.
# Every constant meets the arrays as an np.uint64, so that no op leaves
# uint64 under numpy 1.24 and numpy 2 alike; uint64 array arithmetic wraps
# silently.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64))


def _mulhi(a, b):
    """The high 64 bits of a*b, from 32-bit halves (Hacker's Delight)."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    t = a1 * b0 + (a0 * b0 >> _U32)
    w = (t & _LOW32) + a0 * b1
    return a1 * b1 + (t >> _U32) + (w >> _U32)


def _mul(ah, al, bh, bl):
    """(ah, al) * (bh, bl) mod 2**128."""
    return _mulhi(al, bl) + al * bh + ah * bl, al * bl


def _add(ah, al, bh, bl):
    """(ah, al) + (bh, bl) mod 2**128."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step: state*M + inc mod 2**128."""
    return _add(*_mul(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)


def _xsl_rr(hi, lo):
    """PCG64's output: hi ^ lo rotated right by the state's top six bits."""
    x = hi ^ lo
    rot = hi >> _U58
    return (x >> rot) | (x << ((_U64 - rot) & _U63))


def _halves(values):
    """The (hi, lo) halves of 128-bit ints, as uint64 columns."""
    return tuple(np.array([[v >> s & _MASK64] for v in values], dtype=np.uint64) for s in (64, 0))


@functools.cache
def _draw_plan(n: int, cols: int):
    """The jump pairs (A, C) = (M**j, sum of M**i for i < j), which take a
    state s to A*s + C*inc, j steps on, for j at the first draw of each row
    of ``cols`` draws and for j = n; as the (hi, lo) halves of A and of C.
    Built on first use, not at import."""
    jumps = [(1, 0)]
    for _ in range(n):
        a, c = jumps[-1]
        jumps.append((a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128))
    a, c = zip(*(jumps[j] for j in [*range(1, n + 1, cols), n]))
    return *_halves(a), *_halves(c)


def _next_double(hi, lo):
    """numpy's next_double on the output of the state (hi, lo)."""
    return np.multiply(_xsl_rr(hi, lo) >> _U11, 2.0**-53, dtype=np.float64)


class TrialStreams:
    """The PCG64 streams of ``default_rng`` for many lanes, held as uint64
    arrays; ``words`` holds each lane's SeedSequence state, one row of four
    uint64 words per lane (``trial_states``, ``cell_states``).

    ``uniform`` gives what each lane's ``Generator.uniform`` would give, bit
    for bit, for any subset of lanes; a lane's stream moves on only by its
    own draws.
    """

    def __init__(self, words):
        w = words
        # numpy's pcg64_set_seed: initstate = w0:w1 and initseq = w2:w3;
        # inc = initseq << 1 | 1, and the state starts at 0, takes a step,
        # adds initstate and takes another step
        self.inc_hi, self.inc_lo = w[:, 2] << _U1 | w[:, 3] >> _U63, w[:, 3] << _U1 | _U1
        self.hi, self.lo = _step(*_add(self.inc_hi, self.inc_lo, w[:, 0], w[:, 1]), self.inc_hi, self.inc_lo)

    def uniform(self, low: float, high: float, n: int, lanes=slice(None)):
        """n successive ``uniform(low, high)`` draws of each lane in
        ``lanes``: draw i of lane ``lanes[j]`` is at [i, j].

        The draws are laid out as rows of ``cols`` draws: jumps take every
        lane to each row's first draw and to its state n draws on, and then
        the rows step together.  Lanes run along the last axis, so that
        every op broadcasts over whole runs of lanes.
        """
        hi, lo, inc_hi, inc_lo = self.hi[lanes], self.lo[lanes], self.inc_hi[lanes], self.inc_lo[lanes]
        # each column of draws after the first costs about 35 numpy calls on
        # (rows x lanes) values, the jumps about 45 on one more row, so few
        # lanes do best with many rows and many lanes with about sqrt(n): on
        # one core, 1024 lanes took 128 draws fastest in columns of 11 to
        # 16, and up to 16 lanes in one column; never more columns than draws
        cols = max(1, min(n, math.isqrt(len(lo) * n // 1024)))
        ah, al, ch, cl = _draw_plan(n, cols)
        sh, sl = _add(*_mul(hi, lo, ah, al), *_mul(inc_hi, inc_lo, ch, cl))
        self.hi[lanes], self.lo[lanes] = sh[-1], sl[-1]
        sh, sl = sh[:-1], sl[:-1]
        span = high - low
        out = np.empty((len(sh) * cols, len(lo)))
        for k in range(cols):
            if k:
                sh, sl = _step(sh, sl, inc_hi, inc_lo)
            # Generator.uniform: low + (high - low)*next_double
            out[k::cols] = low + span * _next_double(sh, sl)
        return out[:n]


class _RelaxationDraws:
    """Relaxation factors per lane, each lane drawing from its own stream.

    ``sample_relaxed_alpha`` draws (u, v) pairs by ``uniform(-rho, rho)``
    until u*u + v*v <= rho*rho.  A lane here draws ``_ALPHA_PAIRS`` pairs at
    once, which consumes the same doubles in the same order, keeps the
    accepted ones in order, and draws the next block when it has used them.
    Lane k here is lane ``first + k`` of ``streams``, for k below
    ``stop - first``.
    """

    def __init__(self, streams: TrialStreams, disk: RelaxationDisk, first: int, stop: int):
        n = stop - first
        self.streams = streams
        self.first = first
        self.rho = disk.rho
        self.re = np.empty((_ALPHA_PAIRS, n))  # factor i of lane j at [i, j]
        self.im = np.empty((_ALPHA_PAIRS, n))
        self.accepted = np.zeros(n, dtype=int)  # factors held, in re[:accepted, lane]
        self.next = np.zeros(n, dtype=int)

    def take(self, lanes):
        """The next factor (re, im) of every lane in ``lanes``."""
        empty = lanes[self.next[lanes] == self.accepted[lanes]]
        while empty.size:
            self._refill(empty)
            empty = empty[self.accepted[empty] == 0]
        at = self.next[lanes]
        self.next[lanes] = at + 1
        return self.re[at, lanes], self.im[at, lanes]

    def _refill(self, lanes):
        r = self.rho
        draws = self.streams.uniform(-r, r, 2 * _ALPHA_PAIRS, lanes + self.first)
        u, v = draws[0::2], draws[1::2]
        accept = u * u + v * v <= r * r
        order = np.argsort(~accept, axis=0, kind="stable")  # accepted first, in order
        self.re[:, lanes] = 1.0 + np.take_along_axis(u, order, axis=0)
        self.im[:, lanes] = np.take_along_axis(v, order, axis=0)
        self.accepted[lanes] = np.count_nonzero(accept, axis=0)
        self.next[lanes] = 0


# Half-width, relative to the pole scale, of the band in which _pole_failed
# does not trust numpy's power.  With AVX-512, np.power (not the C library's
# pow) differs from pow by at most 1 ulp, on about 5% of values for
# exponents 7 and 39 and 0.1% for exponent 2, and the product with _POLE_TOL
# keeps the two scales within about 2 ulp (4.4e-16 relative; the scale is at
# least _POLE_TOL, never subnormal).  1e-9 leaves room for a power millions
# of ulp less accurate, and still no lane of the rrn benchmark (0 of 562 524
# pole tests) falls inside it, so the exact test stays rare.
_POLE_BAND = 1e-9
# np.power below this cannot stand for a pow that overflows (pole_scale is
# inf there), and it is finite
_POWER_SURE = 1e300


def _pole_failed(zn, dr, di, degree):
    """|g'| < ``pole_scale(|z|, degree)`` per lane, the pole test of
    ``relaxed_newton_map``.

    numpy's power decides every lane whose |g'| lies outside a relative
    band of ``_POLE_BAND`` around its scale; ``pole_scale`` decides the
    rest, and the lanes where the power is inf, NaN or near overflow.
    """
    size = np.hypot(dr, di)
    power = np.power(1.0 + zn, max(degree - 1, 0))
    scale = _POLE_TOL * power
    failed = size < scale
    unsure = np.flatnonzero(~((power < _POWER_SURE) & (np.abs(size - scale) > _POLE_BAND * scale)))
    if unsure.size:
        exact = np.fromiter(map(pole_scale, zn[unsure].tolist(), repeat(degree)), float, unsure.size)
        failed[unsure] = size[unsure] < exact
    return failed


def _relaxed_step(x, y, zn, gr, gi, dr, di, alpha, degree):
    """z - alpha*(g/g') per lane, or z - g/g' where ``alpha`` is None;
    returns (x, y, failed).

    Mirrors ``relaxed_newton_map`` and ``newton_map_1d``: a lane fails where
    |g'| falls below ``pole_scale(|z|, degree)``, as the scalar step raises
    ``DerivativeVanishes`` there.  Newton's step takes no factor at all:
    alpha = 1 + 0i would not be the identity on inf and NaN (0*inf is NaN).
    """
    failed = _pole_failed(zn, dr, di, degree)
    qr, qi = _quot(gr, gi, dr, di)
    if alpha is None:
        return x - qr, y - qi, failed
    ar, ai = alpha
    return x - (ar * qr - ai * qi), y - (ar * qi + ai * qr), failed


def _armijo_step(g, x, y, gx, gy, gr, gi, wx, wy, failed, cfg: SolverConfig):
    """z - gamma*w per lane with Armijo's gamma; returns (x, y, gr, gi,
    failed), with g = gr + i gi at the new point.

    Lanes already failed skip the search; lanes whose search underflows fail.
    """
    slope = wx * gx + wy * gy
    fz = 0.5 * (gr * gr + gi * gi)
    ok = ~failed
    gamma, gr, gi = np.empty(len(x)), np.empty(len(x)), np.empty(len(x))
    gamma[ok], gr[ok], gi[ok], failed[ok] = _armijo(g, x[ok], y[ok], wx[ok], wy[ok], fz[ok], slope[ok], cfg)
    return x - gamma * wx, y - gamma * wy, gr, gi, failed


def _armijo(g, x, y, wx, wy, fz, slope, cfg: SolverConfig):
    """Per-lane Armijo search; returns (gamma, gr, gi, failed) arrays, with
    g = gr + i gi at the accepted trial, which is the lane's next point.

    Lanes leave the backtracking loop as they accept.  The test keeps the
    scalar form ``f(trial) <= f(z) - gamma*slope*armijo_factor``.
    """
    gamma = np.full(len(x), cfg.gamma0)
    gr, gi = np.empty(len(x)), np.empty(len(x))
    failed = np.zeros(len(x), dtype=bool)
    todo = np.arange(len(x))
    while todo.size:
        gt = gamma[todo]
        vr, vi = _horner(g, x[todo] - gt * wx[todo], y[todo] - gt * wy[todo])
        ok = 0.5 * (vr * vr + vi * vi) <= fz[todo] - gt * slope[todo] * cfg.armijo_factor
        done = todo[ok]
        gr[done], gi[done] = vr[ok], vi[ok]
        todo = todo[~ok]
        gamma[todo] = gamma[todo] * cfg.shrink_factor
        under = gamma[todo] < _UNDERFLOW_LIMIT
        failed[todo[under]] = True
        todo = todo[~under]
    return gamma, gr, gi, failed


def _shift_scale(gn, cfg: SolverConfig):
    """|grad|**tau per lane, by Python's ``**``; x**1.0 is x for every float
    (0, inf and NaN included), so the default tau = 1 skips the pow."""
    return gn if cfg.tau == 1.0 else np.fromiter(map(pow, gn.tolist(), repeat(cfg.tau)), float, len(gn))


def _eig2(a, b, c):
    """Ascending eigenvalues (l1, l2) of [[a, b], [b, c]] per lane, as
    ``linalg._eig2_system`` has them, with the half difference and the
    radius its eigenvectors take; returns (l1, l2, half_diff, r)."""
    half_diff = 0.5 * (a - c)
    r = np.hypot(half_diff, b)
    diag = b == 0.0
    ordered = a <= c
    t = 0.5 * (a + c)
    l1 = np.where(diag, np.where(ordered, a, c), t - r)
    l2 = np.where(diag, np.where(ordered, c, a), t + r)
    return l1, l2, half_diff, r


def _reflected_solve(gx, gy, a, b, c, l1, l2, half_diff, r):
    """``reflected_direction`` per lane for [[a, b], [b, c]], whose
    ``_eig2`` is (l1, l2, half_diff, r); returns (wx, wy, singular), with
    ``singular`` where an eigenvalue is 0 and the scalar solve raises."""
    # _eig2_system: eigenvector of l2 from the better-conditioned form
    pos = half_diff >= 0.0
    vx = np.where(pos, half_diff + r, b)
    vy = np.where(pos, b, r - half_diff)
    nv = np.hypot(vx, vy)
    u2x, u2y = vx / nv, vy / nv
    u1x, u1y = -u2y, u2x
    flip = (u2x < 0.0) | ((u2x == 0.0) & (u2y < 0.0))
    u2x, u2y = np.where(flip, -u2x, u2x), np.where(flip, -u2y, u2y)
    flip = (u1x < 0.0) | ((u1x == 0.0) & (u1y < 0.0))
    u1x, u1y = np.where(flip, -u1x, u1x), np.where(flip, -u1y, u1y)
    # a diagonal matrix keeps the coordinate axes
    diag = b == 0.0
    ordered = a <= c
    u1x = np.where(diag, np.where(ordered, 1.0, 0.0), u1x)
    u1y = np.where(diag, np.where(ordered, 0.0, 1.0), u1y)
    u2x = np.where(diag, np.where(ordered, 0.0, 1.0), u2x)
    u2y = np.where(diag, np.where(ordered, 1.0, 0.0), u2y)
    c1 = (gx * u1x + gy * u1y) / np.abs(l1)
    c2 = (gx * u2x + gy * u2y) / np.abs(l2)
    return c1 * u1x + c2 * u2x, c1 * u1y + c2 * u2y, (l1 == 0.0) | (l2 == 0.0)


def _bnqn_direction(gx, gy, gn, a, b, c, cfg: SolverConfig):
    """BNQN direction per lane for the Hessian [[a, b], [b, c]]; returns
    (wx, wy, failed).

    Mirrors ``select_delta`` followed by ``reflected_direction``: the first
    shift whose smallest |eigenvalue| clears kappa*|grad|^tau wins, and the
    eigensystem of the winning shifted Hessian gives the reflected solve.
    """
    n = len(gx)
    scale = _shift_scale(gn, cfg)
    threshold = cfg.kappa * scale
    chosen = np.zeros(n, dtype=bool)
    sa, sc, half_diff, r, l1, l2 = (np.empty(n) for _ in range(6))
    for d in cfg.deltas:
        todo = np.flatnonzero(~chosen)
        if not todo.size:
            break
        shift = d * scale[todo]
        ap, cp = a[todo] + shift, c[todo] + shift
        e1, e2, hd, rp = _eig2(ap, b[todo], cp)
        m1, m2 = np.abs(e1), np.abs(e2)
        ok = np.where(m2 < m1, m2, m1) >= threshold[todo]
        win = todo[ok]
        chosen[win] = True
        sa[win], sc[win], half_diff[win], r[win] = ap[ok], cp[ok], hd[ok], rp[ok]
        l1[win], l2[win] = e1[ok], e2[ok]
    wx, wy, singular = _reflected_solve(gx, gy, sa, b, sc, l1, l2, half_diff, r)
    return wx, wy, ~chosen | singular


def _nqn_direction(gx, gy, gn, a, b, c, cfg: SolverConfig):
    """NQN direction per lane for the Hessian [[a, b], [b, c]]; returns
    (wx, wy, failed).

    Mirrors ``solvers._nqn_step``: the first shift whose determinant
    ``a*c - b*b`` is not 0.0 wins (NaN is not 0.0), and the shifted
    Hessian gives the reflected solve.
    """
    n = len(gx)
    scale = _shift_scale(gn, cfg)
    chosen = np.zeros(n, dtype=bool)
    sa, sc = np.empty(n), np.empty(n)
    for d in cfg.deltas:
        todo = np.flatnonzero(~chosen)
        if not todo.size:
            break
        shift = d * scale[todo]
        ap, bp, cp = a[todo] + shift, b[todo], c[todo] + shift
        ok = ap * cp - bp * bp != 0.0
        win = todo[ok]
        chosen[win] = True
        sa[win], sc[win] = ap[ok], cp[ok]
    wx, wy, singular = _reflected_solve(gx, gy, sa, b, sc, *_eig2(sa, b, sc))
    return wx, wy, ~chosen | singular


def _newton_direction(gx, gy, a, b, c):
    """H^-1 grad per lane for the Hessian H = [[a, b], [b, c]]; returns
    (wx, wy, failed), failed where H is singular and ``solvers._newton_opt_step``
    raises.

    One ``numpy.linalg.solve`` of the stack gives what one per matrix gives
    (both call LAPACK's ``gesv``).  A singular matrix makes it raise for the
    whole stack, and then each lane is solved alone, as ``_newton_opt_step`` does.
    """
    h = np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2)
    grad = np.stack([gx, gy], axis=-1)
    failed = np.zeros(len(gx), dtype=bool)
    try:
        # numpy 1.24 and 2 both read an (n, 2, 1) right-hand side as matrices
        w = np.linalg.solve(h, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        w = np.empty_like(grad)
        for m in range(len(gx)):
            try:
                w[m] = np.linalg.solve(h[m], grad[m])
            except np.linalg.LinAlgError:
                failed[m] = True
    return w[:, 0], w[:, 1], failed


def _cap(wx, wy, norm, theta):
    """w / max(1.0, theta*|w|), the theta cap on the step direction."""
    div = theta * norm
    div = np.where(div > 1.0, div, 1.0)
    return wx / div, wy / div


def _horner1(coeffs, z):
    """Python's complex Horner loop for one point; ``coeffs`` highest first."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _lane_direction(gx, gy, gn, a, b, c, cfg: SolverConfig):
    """``select_delta`` then ``reflected_direction`` on floats; None where
    they raise (no admissible shift, or a zero eigenvalue)."""
    scale = gn**cfg.tau
    threshold = cfg.kappa * scale
    for d in cfg.deltas:
        shift = d * scale
        sa, sc = a + shift, c + shift
        l1, l2 = _eig2_values(sa, b, sc)
        if min(abs(l1), abs(l2)) >= threshold:
            break
    else:
        return None
    l1, l2, u1x, u1y, u2x, u2y = _eig2_system(sa, b, sc)
    if l1 == 0.0 or l2 == 0.0:
        return None
    c1 = (gx * u1x + gy * u1y) / abs(l1)
    c2 = (gx * u2x + gy * u2y) / abs(l2)
    return c1 * u1x + c2 * u2x, c1 * u1y + c2 * u2y


def _finish_lane(obj: PolyModulusObjective, hessian: bool, cfg: SolverConfig, x, y, k):
    """Run one BNQN (``hessian``) or GD lane from (x, y), k steps in, to its
    end on Python floats; returns (x, y, steps, outcome).

    This is the scalar loop's arithmetic without its arrays and trace:
    Python's complex Horner and product, ``linalg.hypot`` norms, the
    2x2 eigensystem of ``linalg``, ``max(1.0, v)`` for the theta cap and
    the Armijo test in the form ``f(trial) <= f(z) - gamma*slope*factor``.
    """
    g, dg, ddg = (p.coeffs[::-1] for p in (obj.g, obj.dg, obj.ddg))
    radius = obj.divergence_radius
    theta, gamma0, armijo, shrink = cfg.theta, cfg.gamma0, cfg.armijo_factor, cfg.shrink_factor
    z = complex(x, y)
    gz = _horner1(g, z)
    while True:
        dgz = _horner1(dg, z)
        gc = gz.conjugate()
        w = dgz * gc
        gx, gy = w.real, -w.imag
        gn = hypot(gx, gy)
        if gn <= cfg.grad_tol or hypot(x, y) > radius:
            return x, y, k, STOPPED
        if k >= cfg.max_iter:
            return x, y, k, CAPPED
        if hessian:
            u = _horner1(ddg, z) * gc
            s = dgz.real * dgz.real + dgz.imag * dgz.imag
            direction = _lane_direction(gx, gy, gn, u.real + s, -u.imag, s - u.real, cfg)
            if direction is None:
                return x, y, k, FAILED
            wx, wy = direction
            div = max(1.0, theta * hypot(wx, wy))
        else:
            wx, wy = gx, gy
            div = max(1.0, theta * gn)
        wx, wy = wx / div, wy / div
        slope = wx * gx + wy * gy
        fz = 0.5 * (gz.real * gz.real + gz.imag * gz.imag)
        gamma = gamma0
        while True:
            trial = complex(x - gamma * wx, y - gamma * wy)
            gt = _horner1(g, trial)
            if 0.5 * (gt.real * gt.real + gt.imag * gt.imag) <= fz - gamma * slope * armijo:
                break
            gamma = gamma * shrink
            if gamma < _UNDERFLOW_LIMIT:
                return x, y, k, FAILED
        # the accepted trial is the next point, and g there is already known
        x, y, z, gz = trial.real, trial.imag, trial, gt
        k += 1


def iterate(
    obj: PolyModulusObjective,
    method: Method,
    cfg: SolverConfig,
    x0,
    y0,
    *,
    streams: TrialStreams | None = None,
    relaxation: RelaxationDisk | None = None,
):
    """Run ``method`` from every start (x0[i], y0[i]) in lockstep.

    Returns ``(x, y, steps, outcome)`` arrays: each lane's last point, the
    steps it took, and its outcome code.  Every lane runs to the end; BNQN
    and GD lanes finish one by one in ``_finish_lane`` once a sweep starts
    with at most ``_TAIL_LANES`` of them.

    Random relaxed Newton needs ``streams``, one per lane, in the state
    ``run``'s generator would be in, and the ``relaxation`` disk; its lanes
    run in blocks of ``_RRN_LANES``.
    """
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    if method is not Method.RANDOM_RELAXED_NEWTON_1D:
        return _sweep(obj, method, cfg, x0, y0)
    blocks = []
    for first in range(0, len(x0), _RRN_LANES):
        stop = min(first + _RRN_LANES, len(x0))
        draws = _RelaxationDraws(streams, relaxation, first, stop)
        blocks.append(_sweep(obj, method, cfg, x0[first:stop], y0[first:stop], draws))
    return tuple(np.concatenate(v) for v in zip(*blocks))


def _sweep(obj: PolyModulusObjective, method: Method, cfg: SolverConfig, x0, y0, draws=None):
    """``iterate`` for one block of lanes; relaxed lanes take their factors
    from ``draws``."""
    hessian = method in _HESSIAN
    armijo = method in _ARMIJO
    tail = _TAIL_LANES if armijo else 0
    g, dg, ddg = obj.g.coeffs, obj.dg.coeffs, obj.ddg.coeffs
    radius = obj.divergence_radius
    n = len(x0)
    out_x, out_y = x0.copy(), y0.copy()
    out_k = np.zeros(n, dtype=int)
    out_code = np.zeros(n, dtype=np.int8)
    lane = np.arange(n)
    x, y = x0.copy(), y0.copy()
    k = 0

    def retire(mask, code):
        out_x[lane[mask]], out_y[lane[mask]] = x[mask], y[mask]
        out_k[lane[mask]] = k
        out_code[lane[mask]] = code

    with np.errstate(all="ignore"):
        gr, gi = _horner(g, x, y)
        while lane.size:
            if lane.size <= tail:
                for m, xm, ym in zip(lane.tolist(), x.tolist(), y.tolist()):
                    out_x[m], out_y[m], out_k[m], out_code[m] = _finish_lane(obj, hessian, cfg, xm, ym, k)
                break
            dr, di = _horner(dg, x, y)
            wr, wi = _times_conj(dr, di, gr, gi)
            gx, gy = wr, -wi
            gn = np.hypot(gx, gy)
            zn = np.hypot(x, y)
            stop = (gn <= cfg.grad_tol) | (zn > radius)
            retire(stop, STOPPED)
            run_on = ~stop
            if k >= cfg.max_iter:
                retire(run_on, CAPPED)
                break
            x, y, zn, lane, gr, gi, dr, di, gx, gy, gn = (
                v[run_on] for v in (x, y, zn, lane, gr, gi, dr, di, gx, gy, gn)
            )
            if hessian:
                er, ei = _horner(ddg, x, y)
                ur, ui = _times_conj(er, ei, gr, gi)
                s = dr * dr + di * di
                a, b, c = ur + s, -ui, s - ur
            if armijo:
                if hessian:
                    wx, wy, failed = _bnqn_direction(gx, gy, gn, a, b, c, cfg)
                    # theta = 0 leaves the divisor at 1.0 whatever |w| is
                    # (0*inf is NaN, and max(1.0, NaN) is 1.0), so skip the norm
                    if cfg.theta != 0.0:
                        wx, wy = _cap(wx, wy, np.hypot(wx, wy), cfg.theta)
                else:
                    wx, wy = _cap(gx, gy, gn, cfg.theta)
                    failed = np.zeros(len(x), dtype=bool)
                # the Armijo search has evaluated g at every new point
                xn, yn, gr, gi, failed = _armijo_step(g, x, y, gx, gy, gr, gi, wx, wy, failed, cfg)
            elif hessian:
                if method is Method.NQN:
                    wx, wy, failed = _nqn_direction(gx, gy, gn, a, b, c, cfg)
                else:
                    wx, wy, failed = _newton_direction(gx, gy, a, b, c)
                xn, yn = x - wx, y - wy
            else:
                alpha = None if draws is None else draws.take(lane)
                xn, yn, failed = _relaxed_step(x, y, zn, gr, gi, dr, di, alpha, obj.g.degree)
            retire(failed, FAILED)
            ok = ~failed
            x, y, lane = xn[ok], yn[ok], lane[ok]
            gr, gi = (gr[ok], gi[ok]) if armijo else _horner(g, x, y)
            k += 1
    return out_x, out_y, out_k, out_code
