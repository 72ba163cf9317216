"""Random relaxed Newton's draws (``bnqn.streams``).

Known answers pin SplitMix64's finalizer (the first outputs of SplitMix64
seeded with 0), the seed keys and the alpha and start draws, against
literals that ``_reference_*`` below, written here on Python ints apart
from the module, reproduces; the module's Python-int and uint64-array
forms must give the same values bit for bit.  A run of more trials keeps
every shorter run's trials as they were; the first pair hashes of 1024
seeds by 1024 trials are distinct, and so are those of seeds s and
2**64 + s; 10**6 factors fill the disk, and 10**6 starts the square,
uniformly by a chi-squared test; a negative seed, and a trial id past its
field of the counter, raise.
"""

import math

import numpy as np
import pytest

from bnqn import lockstep, streams
from bnqn.complexpoly import Polynomial
from bnqn.objective import PolyModulusObjective
from bnqn.solvers import Method, SolverConfig, run
from bnqn.streams import relaxation_factors, sample_relaxed_alpha, seed_key, trial_starts
from support import same_bits

_TWO64 = 2**64
_GAMMA = 0x9E3779B97F4A7C15


def _reference_mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _TWO64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _TWO64
    return z ^ (z >> 31)


def _reference_key(seed):
    words = [seed % _TWO64]
    while seed >= _TWO64:
        seed //= _TWO64
        words.append(seed % _TWO64)
    key = _reference_mix(words[0])
    for w in words[1:]:
        key = _reference_mix(key ^ w)
    return key


def _reference_pair(seed, t, k, j, low, high):
    key = _reference_key(seed)
    hu = _reference_mix((key + (t * 2**32 + k * 2**7 + j) * _GAMMA) % _TWO64)
    hv = _reference_mix(hu ^ key)
    return tuple(low + (high - low) * ((h >> 11) / 2**53) for h in (hu, hv))


def _reference_alpha(seed, t, k, rho):
    """alpha and the attempt that gave it."""
    j = 0
    while True:
        u, v = _reference_pair(seed, t, k, j, -rho, rho)
        if u * u + v * v <= rho * rho:
            return complex(1.0 + u, v), j
        j += 1


def _reference_start(seed, t):
    return _reference_pair(seed, t, 2**25 - 1, 0, -3.0, 3.0)


# (seed, trial, step): rho, alpha, the attempt that gave it
ALPHA_ANSWERS = {
    (0, 0, 0): [
        (0.7, 1.5366351314990996 - 0.30553418318838105j, 1),
        (0.99, 1.7589554002630123 - 0.4321126305092817j, 1),
    ],
    (7, 3, 5): [
        (0.7, 0.989130679176986 - 0.5721637741734628j, 1),
        (0.99, 0.9846276748360232 - 0.8092030520453259j, 1),
    ],
    (7, 17, 0): [(0.7, 0.8153260058493643 + 0.2623180964191316j, 2)],
    (2**63 - 1, 12345, 999): [(0.7, 1.5919356414055132 + 0.2872102096808341j, 0)],
    # the largest trial id, the last step of the supported range
    (2**64 + 3, 2**32 - 1, 2**25 - 2): [(0.7, 0.7314026888606435 - 0.08806548576521389j, 0)],
    (2**130 + 1, 1, 1): [(0.99, 1.1953449709028878 - 0.8009244045783314j, 0)],
}
# (seed, trial): the start
START_ANSWERS = {
    (0, 0): (-0.727330531770054, -1.0068643608328496),
    (7, 3): (0.013365523112493616, -0.5537830850745635),
    (2**64 + 3, 2**32 - 1): (0.8094463694545482, -1.499764155918681),
    (2**130 + 1, 1): (-1.6114803000417977, -2.331678929052879),
}


def test_finalizer_and_keys_match_known_answers():
    # SplitMix64 seeded with 0 outputs mix(GAMMA), mix(2*GAMMA), ...
    assert [_reference_mix(n * _GAMMA % _TWO64) for n in (1, 2)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert [streams._mix(n * _GAMMA % _TWO64) for n in (1, 2)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    states = np.array([n * _GAMMA % _TWO64 for n in (1, 2)], dtype=np.uint64)
    assert streams._mix_array(states).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    keys = {0: 0, 7: 0x12AE30237B17DF14, 2**64 + 3: 0xB29A3BD06EEDAFE8}
    assert {s: _reference_key(s) for s in keys} == keys
    assert {s: seed_key(s) for s in keys} == keys


@pytest.mark.parametrize("case", ALPHA_ANSWERS, ids=lambda case: "-".join(map(str, case)))
def test_alpha_draws_match_known_answers(case):
    seed, t, k = case
    for rho, want, attempt in ALPHA_ANSWERS[case]:
        assert _reference_alpha(seed, t, k, rho) == (want, attempt)
        got = sample_relaxed_alpha(rho, seed_key(seed), t, k)
        assert same_bits(got.real, want.real) and same_bits(got.imag, want.imag), rho
        re, im = relaxation_factors(rho, seed_key(seed), np.array([t, 0, t], dtype=np.uint64), k)
        assert same_bits(re[0], want.real) and same_bits(im[0], want.imag), rho
        assert (re[2], im[2]) == (re[0], im[0])


@pytest.mark.parametrize("case", START_ANSWERS, ids=lambda case: "-".join(map(str, case)))
def test_start_draws_match_known_answers(case):
    seed, t = case
    want = START_ANSWERS[case]
    assert _reference_start(seed, t) == want
    x0, y0 = trial_starts(seed_key(seed), np.array([t, 0], dtype=np.uint64))
    assert same_bits(x0[0], want[0]) and same_bits(y0[0], want[1])


@pytest.mark.parametrize("steps", [1, 64])
@pytest.mark.parametrize("rho", [0.51, 0.7, 0.99])
def test_block_draws_are_successive_sample_relaxed_alpha(rho, steps):
    # every lane of an integer array of trial ids, uneven ids included,
    # draws at the successive steps 0 .. steps - 1 and at steps far on what
    # the Python-int form draws, through as many rejected attempts
    trials = np.array([0, 1, 2, 5, 1000, 7919 * 29, 2**20 + 7, 2**31, 2**32 - 1])
    for seed in (0, 1, 2**32, 2**63 - 1, 2**64 + 3):
        key = seed_key(seed)
        for k in [*range(steps), 1999, 2**25 - 2]:
            re, im = relaxation_factors(rho, key, trials, k)
            for t, a, b in zip(trials.tolist(), re.tolist(), im.tolist()):
                want = sample_relaxed_alpha(rho, key, t, k)
                assert same_bits(a, want.real) and same_bits(b, want.imag), (seed, t, k)


def test_a_longer_run_keeps_the_shorter_runs_trials():
    # trial t's start, factors, end point and step count depend on (seed, t)
    # alone, not on how many trials run beside it
    obj, cfg = PolyModulusObjective(Polynomial([-1, 0, 0, 1])), SolverConfig(max_iter=200, seed=11)
    ends = []
    for n in (1000, 1500):
        x0, y0 = trial_starts(seed_key(cfg.seed), np.arange(n))
        ends.append(lockstep.iterate(obj, Method.RANDOM_RELAXED_NEWTON_1D, cfg, x0, y0))
    for short, long in zip(*ends):
        assert short.tobytes() == long[:1000].tobytes()


def _first_pairs(seed, trials):
    """Each trial's first pair hashes (hu, hv) at step 0, as uint64 arrays."""
    key = seed_key(seed)
    hu = streams._mix_array(streams._states(key, trials, 0))
    return hu, streams._mix_array(hu ^ np.uint64(key))


def test_seeds_give_distinct_first_pairs():
    trials = np.arange(1024, dtype=np.uint64)
    pairs = [_first_pairs(seed, trials) for seed in range(1024)]
    hu = np.concatenate([p[0] for p in pairs])
    hv = np.concatenate([p[1] for p in pairs])
    assert len(np.unique(hu)) == len(np.unique(hv)) == 1024 * 1024
    for seed in range(1024):
        for a, b in zip(_first_pairs(seed, trials), _first_pairs(2**64 + seed, trials)):
            assert not np.intersect1d(a, b).size, seed


# 100 equal-area cells, so 99 degrees of freedom; 181 is the 1e-6 upper
# quantile of chi-squared with 99 degrees of freedom (Wilson-Hilferty), fixed
# before the first run
CHI2_BOUND = 181.0


def _chi2(cells, n):
    counts = np.bincount(cells, minlength=100)
    assert len(counts) == 100
    return float(((counts - n / 100) ** 2).sum() / (n / 100))


def test_factors_are_uniform_on_the_disk():
    # 1000 trials by 1000 steps; the cells are 10 rings of equal area (equal
    # steps of |alpha - 1|**2) by 10 sectors of equal angle
    rho, key = 0.7, seed_key(7)
    trials = np.arange(1000, dtype=np.uint64)
    re, im = (np.concatenate(v) for v in zip(*(relaxation_factors(rho, key, trials, k) for k in range(1000))))
    u, v = re - 1.0, im
    r2 = (u * u + v * v) / (rho * rho)
    assert r2.max() <= 1.0
    ring = np.minimum((r2 * 10).astype(int), 9)
    sector = np.minimum(((np.arctan2(v, u) + math.pi) / (2 * math.pi) * 10).astype(int), 9)
    assert _chi2(ring * 10 + sector, len(u)) < CHI2_BOUND


def test_starts_are_uniform_on_the_square():
    x0, y0 = trial_starts(seed_key(7), np.arange(10**6, dtype=np.uint64))
    assert x0.min() >= -3.0 and y0.min() >= -3.0 and x0.max() < 3.0 and y0.max() < 3.0
    column, row = (((v + 3.0) / 6.0 * 10).astype(int) for v in (x0, y0))
    assert _chi2(column * 10 + row, len(x0)) < CHI2_BOUND


def test_trial_generators_reject_a_negative_seed():
    for seed in (-1, -(2**70)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            seed_key(seed)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        SolverConfig(seed=-1)


def test_trial_ids_past_their_field_raise_and_the_bounds_still_run():
    # caps past 2**25 - 1 are rejected inputs of the CLI (tests/test_cli.py)
    # and of iterate (tests/test_lockstep.py)
    obj, rrn = PolyModulusObjective(Polynomial([-1, 0, 0, 1])), Method.RANDOM_RELAXED_NEWTON_1D
    for trial in (-1, 2**32):
        with pytest.raises(ValueError, match=r"trial ids must lie in \[0, 2\*\*32\), got " + str(trial)):
            run(obj, [0.5, 0.5], rrn, trial=trial)
    # the last trial id and the largest cap still run; from a root, at once
    trace = run(obj, [1.0, 0.0], rrn, SolverConfig(max_iter=2**25 - 1), trial=2**32 - 1)
    assert trace.converged and trace.iterations == 0
    # the bounds are the relaxed method's alone
    assert run(obj, [1.0, 0.0], Method.NEWTON_1D, SolverConfig(max_iter=2**25), trial=2**32).converged
