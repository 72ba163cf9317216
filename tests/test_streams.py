"""The numpy-side PCG64 streams against numpy's own ``default_rng``.

``trial_states`` and ``cell_states`` must give SeedSequence's states,
``TrialStreams`` the seeded PCG64 and the ``uniform`` draws of
``default_rng((seed, t))``, for any seed and for any subset of lanes
drawing at uneven rates; a negative seed raises SeedSequence's error.
``_RelaxationDraws`` must give the factors of successive
``sample_relaxed_alpha`` calls.
"""

import numpy as np
import pytest

from bnqn.complexpoly import sample_relaxed_alpha
from bnqn.streams import TrialStreams, _RelaxationDraws, cell_states, trial_states
from support import same_bits


@pytest.mark.parametrize("pairs", [64, 1])
@pytest.mark.parametrize("rho", [0.51, 0.7, 0.99])
def test_block_draws_are_successive_sample_relaxed_alpha(monkeypatch, rho, pairs):
    # a lane holds at most ``pairs`` accepted factors, so 150 takes refill
    # every lane; with one pair per block, a fifth of the refills accept
    # nothing and must draw again
    monkeypatch.setattr("bnqn.streams._ALPHA_PAIRS", pairs)
    lanes = np.arange(30)
    draws = _RelaxationDraws(TrialStreams(trial_states(5, 30)), rho, 0, 30)
    scalar = [np.random.default_rng((5, t)) for t in lanes]
    for step in range(150):
        active = lanes[(lanes % 3 != 0) | (step % 2 == 0)]  # lanes take at different rates
        re, im = draws.take(active)
        for lane, a, b in zip(active.tolist(), re.tolist(), im.tolist()):
            want = sample_relaxed_alpha(rho, scalar[lane])
            assert same_bits(a, want.real) and same_bits(b, want.imag), (lane, step)


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3, 2**130 + 1]


def _pcg64_state(streams, lane):
    """A lane's PCG64 (state, inc) as 128-bit ints."""
    hi, lo, inc_hi, inc_lo = (int(v[lane]) for v in (streams.hi, streams.lo, streams.inc_hi, streams.inc_lo))
    return hi << 64 | lo, inc_hi << 64 | inc_lo


def _assert_default_rng_streams(seed, first, stop):
    """Block-hashed states equal SeedSequence's, the trial streams' seeded
    PCG64 (state, inc) equal ``default_rng((seed, t))``'s, and so do their
    first draws."""
    states = trial_states(seed, stop)[first:]
    streams = TrialStreams(states)
    assert len(states) == len(streams.lo) == stop - first
    seeded = [_pcg64_state(streams, lane) for lane in range(stop - first)]
    starts = streams.uniform(-3.0, 3.0, 2).T
    relaxations = streams.uniform(-0.7, 0.7, 128).T
    for t, state, pcg64, start, relax in zip(range(first, stop), states, seeded, starts, relaxations):
        want = np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
        assert state.tolist() == want.tolist(), t
        want = np.random.default_rng((seed, t))
        # numpy's pcg64_set_seed: inc from the last two state words, then a
        # step, the first two words added, and another step
        assert pcg64 == (want.bit_generator.state["state"]["state"], want.bit_generator.state["state"]["inc"]), t
        assert start.tolist() == want.uniform(-3.0, 3.0, 2).tolist(), t
        assert relax.tolist() == want.uniform(-0.7, 0.7, 128).tolist(), t


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_generators_are_default_rng(seed):
    _assert_default_rng_streams(seed, 0, 40)


@pytest.mark.parametrize("lanes", [1, 5, 40, 300])
def test_stream_draws_are_successive_uniform_draws(lanes):
    # lane subsets of every size take blocks of 1 to 130 draws at uneven
    # rates; every lane's draws continue its own Generator's, whatever
    # layout of rows its block took
    streams = TrialStreams(trial_states(2**64 + 3, 7 + lanes)[7:])
    rngs = [np.random.default_rng((2**64 + 3, t)) for t in range(7, 7 + lanes)]
    pick = np.random.default_rng(lanes)
    for step, n in enumerate([1, 2, 127, 128, 130, 2, 1, 130, 128, 127]):
        low, high = [(-3.0, 3.0), (-0.7, 0.7), (-0.99, 0.99)][step % 3]
        every = step % 4 == 0
        subset = np.arange(lanes) if every else np.flatnonzero(pick.random(lanes) < 0.6)
        draws = streams.uniform(low, high, n, slice(None) if every else subset)
        assert draws.shape == (n, len(subset))
        for j, lane in enumerate(subset.tolist()):
            want = rngs[lane].uniform(low, high, n)
            assert draws[:, j].tolist() == want.tolist(), (lane, step, n)
    for lane, rng in enumerate(rngs):
        want = rng.bit_generator.state["state"]
        assert _pcg64_state(streams, lane) == (want["state"], want["inc"]), lane


def test_trial_generators_reject_a_negative_seed():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        trial_states(-1, 4)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        cell_states(-1, 2, 2)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng((-1, 0))
