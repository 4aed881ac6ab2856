"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by an
integer seed.  The contract: trial ``t`` of a batch keyed by ``seed`` draws
from ``generator(trial_stream(seed, t))``, a Philox keyed by numpy's
``SeedSequence(seed, spawn_key=(t,))``.  So a batch of trials gives
identical results no matter how the trials are scheduled or parallelised.

The Python paths draw every trial from exactly that generator, taken from
``trial_generators(seed, start, stop)``.  The compiled kernels of
``sampling.c`` (the samplers of ``asymptotics``, the deck dealer of
``patience`` and the word drawer behind ``words.random_words``) run
numpy's ``SeedSequence`` hash themselves, its one copy in the package:
``seed_words`` has ``sampling.c``'s ``seed_pool`` hash the seed's words
into the ``SeedSequence`` pool, and each kernel finishes the hash for its
trials.  ``trial_stream`` is the definition of the contract and the test
oracle of both.

Only the Python paths use numpy, so this module imports it where they
run: a process whose trials all run compiled never loads it.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def generator(seed) -> np.random.Generator:
    """Build a Philox generator from an int seed, SeedSequence or Generator."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def trial_stream(base_seed: int, trial: int) -> np.random.SeedSequence:
    """Stream for trial ``trial`` of a batch keyed by ``base_seed``."""
    import numpy as np

    return np.random.SeedSequence(int(base_seed), spawn_key=(int(trial),))


def _check_range(seed: int, start: int, stop: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= start <= stop <= 2**64:
        raise ValueError(f"need 0 <= start <= stop <= 2**64, got {start}, {stop}")


def seed_words(seed: int, start: int, stop: int) -> ctypes.Array:
    """The seed as the compiled kernels take it for trials ``start .. stop-1``:
    five uint32, the ``SeedSequence`` pool after the seed's words and then
    its hash constant, as ``seed_pool`` in ``sampling.c`` hashes them."""
    from .native import load

    seed = int(seed)
    _check_range(seed, int(start), int(stop))
    # the seed as SeedSequence reads an int: 32-bit words, low word first
    entropy = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    words = (ctypes.c_uint32 * 5)()
    load("sampling").seed_pool((ctypes.c_uint32 * len(entropy))(*entropy), len(entropy), words)
    return words


def trial_generators(seed: int, start: int, stop: int):
    """Generators of trials ``start .. stop-1``, one at a time:
    ``generator(trial_stream(seed, t))``, each built as it is taken."""
    seed, start, stop = int(seed), int(start), int(stop)
    _check_range(seed, start, stop)
    return (generator(trial_stream(seed, t)) for t in range(start, stop))
