"""Every lane's own random stream, held as numpy arrays.

Random relaxed Newton draws each lane's start and relaxation factors from
the PCG64 stream of ``default_rng((seed, t))`` (trial t of ``bnqn rrn``) or
``default_rng((seed, i, j))`` (cell (i, j) of an rrn1d basin).
``TrialStreams`` holds those streams as uint64 arrays, builds no
``Generator`` and imports no ``numpy.random``, and its draws are
``Generator.uniform``'s bit for bit; ``_RelaxationDraws`` takes each lane's
factors from its stream in blocks of (u, v) pairs, the same doubles in the
same order as the scalar loop's one ``Generator.uniform`` draw per call.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["TrialStreams", "cell_states", "lane_blocks", "trial_states"]

# Relaxation draws per lane and refill: 64 (u, v) pairs, 1 KB, hold about 50
# accepted factors (the disk fills pi/4 of its square), enough for the
# median z^3-1 trial (32 steps) in one ``uniform`` call.
_ALPHA_PAIRS = 64

# Lanes per SeedSequence hash and per relaxed sweep of ``lockstep.iterate``,
# so that the hash's temporaries and the draws held ahead (1 KB per lane) do
# not grow with the lane count.  For ``bnqn rrn`` on z^3-1 (rho 0.7,
# max-iter 2000) with 16384 trials, peak RSS was 33, 36, 39 and 46 MB for
# blocks of 512, 1024, 2048 and 4096 lanes (30 MB after import), and time
# 0.56, 0.40, 0.28 and 0.28 s on one core, as fewer blocks end in a sweep of
# a few slow lanes.
_BLOCK_LANES = 1024


def lane_blocks(n: int):
    """The (first, stop) bounds of n lanes in blocks of ``_BLOCK_LANES``."""
    return [(first, min(first + _BLOCK_LANES, n)) for first in range(0, n, _BLOCK_LANES)]


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
    if n > _BLOCK_LANES:  # a block at a time, so that the temporaries stay small
        blocks = lane_blocks(n)
        return np.concatenate([_pcg64_states(seed, [w[a:b] for w in index_words]) for a, b in blocks])
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


def trial_states(seed: int, n: int):
    """``SeedSequence((seed, t)).generate_state(4, uint64)`` for t in
    ``range(n)``, as one row per trial.

    The entropy of trial t is the words of seed followed by t, one word for
    every n up to 2**32.
    """
    return _pcg64_states(seed, [np.arange(n, dtype=np.uint32)])


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

    def __len__(self):
        """The number of lanes."""
        return len(self.lo)

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

    ``sample_relaxed_alpha(rho, rng)`` draws (u, v) pairs by
    ``uniform(-rho, rho)`` until u*u + v*v <= rho*rho, for the ``rho`` of the
    run's ``SolverConfig``.  A lane here draws ``_ALPHA_PAIRS`` pairs at
    once, which consumes the same doubles in the same order, keeps the
    accepted ones in order, and draws the next block when it has used them.
    Lane k here is lane ``first + k`` of ``streams``, for k below
    ``stop - first``.
    """

    def __init__(self, streams: TrialStreams, rho: float, first: int, stop: int):
        n = stop - first
        self.streams = streams
        self.first = first
        self.rho = rho
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

