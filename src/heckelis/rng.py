"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by an
integer seed.  The contract: trial ``t`` of a batch keyed by ``seed`` draws
from ``generator(trial_stream(seed, t))``, a Philox keyed by numpy's
``SeedSequence(seed, spawn_key=(t,))``.  So a batch of trials gives
identical results no matter how the trials are scheduled or parallelised.

Every sampler takes its trials' generators from the block path,
``trial_generators(seed, start, stop)``.  It computes the ``SeedSequence``
hash of a whole block of trials in one pass of uint32 array operations and
re-keys a single Philox per trial, so each trial starts in exactly the
state its ``trial_stream`` gives, without building a ``SeedSequence``, a
``Philox`` and a ``Generator`` per trial.  ``trial_stream`` stays the
definition of the contract and the block path's test oracle.
``trial_keys`` yields the same keys as arrays, for the compiled deck
dealer, which runs Philox itself.
"""

from __future__ import annotations

import numpy as np


def generator(seed) -> np.random.Generator:
    """Build a Philox generator from an int seed, SeedSequence or Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def trial_stream(base_seed: int, trial: int) -> np.random.SeedSequence:
    """Stream for trial ``trial`` of a batch keyed by ``base_seed``."""
    return np.random.SeedSequence(int(base_seed), spawn_key=(int(trial),))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, hashed in with a running constant that does not depend on
# the entropy, then read out with a second constant
_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# keys are derived this many trials at a time, so memory stays flat
_KEY_CHUNK = 1024

# Every value below is a Python int or a uint32 array, and every product is
# masked to 32 bits: ints need the mask and uint32 arrays wrap by
# themselves, so one expression serves both (and no numpy scalar, which
# would warn on overflow, is ever made).


def _hashmix(value, const: int, mult: int = _MULT_A):
    """``value`` hashed with ``const``; returns it and the next constant."""
    const_next = const * mult & _MASK
    value = (value ^ const) * const_next & _MASK
    return value ^ value >> _XSHIFT, const_next


def _mix(x, y):
    value = ((_MIX_MULT_L * x & _MASK) - (_MIX_MULT_R * y & _MASK)) & _MASK
    return value ^ value >> _XSHIFT


def _absorb(pool: list, const: int, word) -> int:
    """Hash one entropy word past the pool into every pool word."""
    for dst in range(_POOL_SIZE):
        hashed, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def _uint32_words(n: int) -> list[int]:
    """``n`` as ``SeedSequence`` reads an int: 32-bit words, low word first."""
    words = [n & _MASK]
    while n := n >> 32:
        words.append(n & _MASK)
    return words


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The ``SeedSequence`` pool and hash constant after the seed's words,
    before the spawn key's.  A spawn key pads the seed's words to the pool
    size, so the seed alone fills the pool."""
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool, const = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        const = _absorb(pool, const, word)
    return pool, const


def _trial_keys(seed_pool: tuple[list[int], int], start: int, stop: int) -> np.ndarray:
    """Philox keys of trials ``start .. stop-1``, shape ``(stop - start, 2)``,
    uint64: ``trial_stream(seed, t).generate_state(2, np.uint64)``.  The
    trials must share their high word (``start >> 32``)."""
    pool, const = list(seed_pool[0]), seed_pool[1]
    high = start >> 32
    low = np.arange(stop - start, dtype=np.uint32) + (start & _MASK)
    const = _absorb(pool, const, low)
    if high:
        _absorb(pool, const, high)
    const = _INIT_B
    state = []
    for word in pool:  # generate_state(2, uint64): four uint32 words
        hashed, const = _hashmix(word, const, _MULT_B)
        state.append(hashed.astype(np.uint64))
    # little-endian pairs, assembled arithmetically for any byte order
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def trial_keys(seed: int, start: int, stop: int):
    """Philox keys of trials ``start .. stop-1``, as ``_trial_keys`` gives
    them, ``_KEY_CHUNK`` trials at a time: trial t's generator is
    ``np.random.Generator(np.random.Philox(key=key))`` for its key row."""
    seed, start, stop = int(seed), int(start), int(stop)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= start <= stop <= 2**64:
        raise ValueError(f"need 0 <= start <= stop <= 2**64, got {start}, {stop}")
    return _key_chunks(_seed_pool(seed), start, stop)


def _key_chunks(seed_pool, start: int, stop: int):
    while start < stop:
        # a chunk never crosses a multiple of 2**32, so its trials share a high word
        end = min(stop, start + _KEY_CHUNK, (start >> 32) + 1 << 32)
        yield _trial_keys(seed_pool, start, end)
        start = end


def trial_generators(seed: int, start: int, stop: int):
    """Generators of trials ``start .. stop-1``, one at a time, each in
    exactly the state ``generator(trial_stream(seed, t))`` starts in.

    It is one ``Generator`` re-keyed before each trial, so draw from each
    before taking the next.  Keys are derived ``_KEY_CHUNK`` trials at a
    time, as the trials are taken."""
    return _rekeyed(trial_keys(seed, start, stop))


def _rekeyed(chunks):
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    # the state Philox(SeedSequence) starts in, but for the key
    inner = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for keys in chunks:
        for key in keys.tolist():
            inner["key"] = key
            bit_generator.state = state
            yield rng
