"""Patience sorting on decks with repeated values.

Cards are dealt left to right onto piles, and a card may cover a card of
greater or equal value (ties allowed).  Under the greedy strategy (leftmost
legal pile) the pile tops weakly increase left to right, so the legal pile
is found by binary search.

``play_greedy`` deals one word and is the rule.  ``deck_simulation``
shuffles and deals all its decks in one call of ``deal_decks``, compiled
from ``sampling.c``, the package's one C source; it keeps only the pile
counts and sizes.  Where no C compiler builds it, the numpy dealer runs
instead, one deck at a time: it shuffles the deck with its trial's
generator and deals it with ``play_greedy``.  It is the compiled dealer's
oracle, and only it loads numpy.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_left
from dataclasses import dataclass, field

from .rng import seed_words, trial_generators
from .words import Word


@dataclass(frozen=True)
class PileState:
    """Piles listed left to right, cards bottom to top."""

    piles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for pile in self.piles:
            for a, b in zip(pile, pile[1:]):
                if b > a:
                    raise ValueError(f"pile {pile} has a card on a smaller one")
        tops = [pile[-1] for pile in self.piles]
        if any(tops[i] > tops[i + 1] for i in range(len(tops) - 1)):
            raise ValueError("pile tops must weakly increase left to right")


def play_greedy(w: Word) -> PileState:
    """Deal ``w`` with the greedy strategy: each card goes on the leftmost
    pile it may legally cover, else starts a new rightmost pile."""
    piles: list[list[int]] = []
    tops: list[int] = []
    for x in w.letters:
        idx = bisect_left(tops, x)
        if idx == len(piles):
            piles.append([x])
            tops.append(x)
        else:
            piles[idx].append(x)
            tops[idx] = x
    return PileState(tuple(tuple(p) for p in piles))


@dataclass(frozen=True)
class DeckStats:
    """Aggregates of a deck simulation."""

    histogram: dict  # pile count -> number of trials
    mean_piles: float
    mean_pile_sizes: tuple[float, ...]  # by position; absent piles count 0
    dealer: str = field(compare=False)  # "compiled" or "numpy": which dealer ran


def _compiled_dealer():
    """The compiled ``deal_decks``, or None where it cannot be built."""
    from .native import load

    library = load("sampling")
    return None if library is None else library.deal_decks


def _deal_compiled(deal, ranks, copies_per_rank, trials, seed) -> tuple[list, list]:
    """The compiled dealer: the number of trials that end with k piles, for
    each k in 0..``ranks``, and the number of cards dealt on pile i, for
    each position i."""
    words = seed_words(seed, 0, trials)
    try:
        histogram, size_sums = (ctypes.c_int64 * (ranks + 1))(), (ctypes.c_int64 * ranks)()
    except (MemoryError, OverflowError):  # ctypes raises the latter past its size limit
        raise MemoryError(f"cannot allocate the pile sizes of {ranks} ranks") from None
    # one call deals every deck, unless there are 2**64, which ctypes would pass as 0
    for first in range(0, trials, 2**63):
        if deal(words, first, min(trials - first, 2**63), ranks, copies_per_rank, histogram,
                size_sums):
            raise MemoryError(f"cannot allocate a deck of {ranks * copies_per_rank} cards")
    return histogram[:], size_sums[:]


def _deal_numpy(ranks, copies_per_rank, trials, seed) -> tuple[list, list]:
    """The numpy dealer: the same counts as ``_deal_compiled``, one deck at
    a time by the rule."""
    import numpy as np

    # built, or refused as too large, before the first trial
    deck = np.repeat(np.arange(1, ranks + 1, dtype=np.min_scalar_type(ranks)), copies_per_rank)
    histogram, size_sums = [0] * (ranks + 1), [0] * ranks
    for rng in trial_generators(seed, 0, trials):
        shuffled = deck.copy()
        rng.shuffle(shuffled)
        piles = play_greedy(Word(shuffled.tolist(), ranks)).piles
        histogram[len(piles)] += 1
        for i, pile in enumerate(piles):
            size_sums[i] += len(pile)
    return histogram, size_sums


def deck_simulation(ranks: int, copies_per_rank: int, trials: int, seed: int) -> DeckStats:
    """Shuffle a deck of ``copies_per_rank`` copies of each of ``ranks``
    values uniformly per trial, play ties-allowed greedy patience, and
    aggregate the pile-count histogram and per-position mean pile sizes.

    Trial t's deck is ``generator(trial_stream(seed, t)).shuffle(deck)``
    for the deck in rank order.  The compiled dealer derives each trial's
    key from ``seed_words`` and runs Philox itself; the numpy dealer takes
    the generators of ``trial_generators``."""
    if ranks < 1 or copies_per_rank < 1:
        raise ValueError("ranks and copies_per_rank must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cards = ranks * copies_per_rank
    if cards > 2**63 - 1:  # no array holds it, and ctypes would wrap it
        raise MemoryError(f"cannot allocate a deck of {cards} cards")
    deal = _compiled_dealer()
    if deal is None:
        counts, size_sums = _deal_numpy(ranks, copies_per_rank, trials, seed)
    else:
        counts, size_sums = _deal_compiled(deal, ranks, copies_per_rank, trials, seed)
    most = max(k for k, c in enumerate(counts) if c)
    return DeckStats(
        histogram={k: c for k, c in enumerate(counts) if c},
        mean_piles=sum(k * c for k, c in enumerate(counts)) / trials,
        mean_pile_sizes=tuple(s / trials for s in size_sums[:most]),
        dealer="numpy" if deal is None else "compiled",
    )
