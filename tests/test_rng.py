"""The block path ``trial_generators`` against the stream contract it
reproduces: trial t of seed s draws from ``generator(trial_stream(s, t))``,
the oracle ``trial_generator`` in ``tests/oracles.py``."""

import numpy as np
import pytest

from heckelis.rng import trial_generators, trial_stream

from oracles import trial_generator

SEEDS = [0, 1, 7, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3]
SEED_IDS = ["0", "1", "7", "12345", "2^32-1", "2^32", "2^64+5", "2^130+3"]
# the first key chunks, both sides of the first change of a trial's word
# count, a two-word trial, and the last trials there are
RANGES = [(0, 3000), (2**32 - 5, 2**32 + 5), (2**40, 2**40 + 4), (2**64 - 3, 2**64)]
RANGE_IDS = ["0..3000", "2^32-5..2^32+5", "2^40..2^40+4", "2^64-3..2^64"]

pytestmark = pytest.mark.filterwarnings("error")  # numpy warns on scalar overflow


def block_keys(seed, start, stop):
    return [tuple(rng.bit_generator.state["state"]["key"].tolist())
            for rng in trial_generators(seed, start, stop)]


def contract_keys(seed, start, stop):
    return [tuple(trial_stream(seed, t).generate_state(2, np.uint64).tolist())
            for t in range(start, stop)]


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@pytest.mark.parametrize("start, stop", RANGES, ids=RANGE_IDS)
def test_keys_equal_seed_sequence(seed, start, stop):
    assert block_keys(seed, start, stop) == contract_keys(seed, start, stop)


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
def test_first_draws_equal_the_contract(seed):
    for start, stop in RANGES:
        trials = range(start, stop, max(1, (stop - start) // 40))
        for t, rng in zip(range(start, stop), trial_generators(seed, start, stop)):
            if t not in trials:
                continue
            oracle = trial_generator(seed, t)
            assert str(rng.bit_generator.state) == str(oracle.bit_generator.state)
            assert rng.permutation(52).tolist() == oracle.permutation(52).tolist()
            q = 1 + t % 1000
            assert (rng.integers(1, q + 1, size=1 + t % 70).tolist()
                    == oracle.integers(1, q + 1, size=1 + t % 70).tolist())


@pytest.mark.parametrize("start, stop", [(0, 2100), (2**32 - 7, 2**32 + 5)])
def test_splitting_a_range_keeps_the_keys(start, stop):
    whole = block_keys(7, start, stop)
    if stop - start > 100:  # around the key chunks and the ends
        cuts = [start, start + 1, start + 1023, start + 1024, start + 1025, stop - 1, stop]
    else:
        cuts = range(start, stop + 1)
    for cut in cuts:
        assert block_keys(7, start, cut) + block_keys(7, cut, stop) == whole


def test_keys_are_derived_as_the_trials_are_taken():
    rng = next(trial_generators(7, 0, 10**12))
    assert str(rng.bit_generator.state) == str(trial_generator(7, 0).bit_generator.state)


@pytest.mark.parametrize("seed, start, stop", [
    (7, 0, 2**64 + 1),
    (7, -1, 5),
    (7, 5, 4),
    (-1, 0, 5),
])
def test_out_of_range_raises_at_the_call(seed, start, stop):
    with pytest.raises(ValueError):
        trial_generators(seed, start, stop)


def test_empty_range():
    assert list(trial_generators(7, 5, 5)) == []
