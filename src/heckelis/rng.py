"""Counter-based random streams.

All randomness in the package flows through Philox generators keyed by an
integer seed.  Independent streams for Monte Carlo trials are derived from
``(seed, trial_index)``, so a batch of trials gives identical results no
matter how the trials are scheduled or parallelised.
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


def trial_generator(base_seed: int, trial: int) -> np.random.Generator:
    return generator(trial_stream(base_seed, trial))
