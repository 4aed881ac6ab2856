"""Patience sorting on decks with repeated values.

Cards are dealt left to right onto piles.  With ties allowed, a card may
cover a card of greater or equal value; with ties forbidden, only strictly
greater.  Under the greedy strategy (leftmost legal pile) the pile tops
weakly increase left to right, so the legal pile is found by binary search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .rng import trial_generator
from .words import Word

TIES_ALLOWED = "allowed"
TIES_FORBIDDEN = "forbidden"


@dataclass(frozen=True)
class PileState:
    """Piles listed left to right, cards bottom to top."""

    piles: tuple[tuple[int, ...], ...]
    ties: str
    alphabet_size: int

    def __post_init__(self):
        if self.ties not in (TIES_ALLOWED, TIES_FORBIDDEN):
            raise ValueError(f"unknown ties mode {self.ties!r}")
        strict = self.ties == TIES_FORBIDDEN
        for pile in self.piles:
            for a, b in zip(pile, pile[1:]):
                if (strict and not b < a) or (not strict and not b <= a):
                    raise ValueError(f"pile {pile} violates the {self.ties} stacking rule")
        tops = [pile[-1] for pile in self.piles]
        if any(tops[i] > tops[i + 1] for i in range(len(tops) - 1)):
            raise ValueError("pile tops must weakly increase left to right")


def play_greedy(w: Word, ties: str = TIES_ALLOWED) -> PileState:
    """Deal ``w`` with the greedy strategy: each card goes on the leftmost
    pile it may legally cover, else starts a new rightmost pile."""
    if ties not in (TIES_ALLOWED, TIES_FORBIDDEN):
        raise ValueError(f"unknown ties mode {ties!r}")
    locate = bisect_left if ties == TIES_ALLOWED else bisect_right
    piles: list[list[int]] = []
    tops: list[int] = []
    for x in w.letters:
        idx = locate(tops, x)
        if idx == len(piles):
            piles.append([x])
            tops.append(x)
        else:
            piles[idx].append(x)
            tops[idx] = x
    return PileState(tuple(tuple(p) for p in piles), ties, w.alphabet_size)


def pile_tops(state: PileState) -> Word:
    return Word(tuple(pile[-1] for pile in state.piles), state.alphabet_size)


def pile_count(state: PileState) -> int:
    return len(state.piles)


@dataclass(frozen=True)
class DeckStats:
    """Aggregates of a deck simulation."""

    ranks: int
    copies_per_rank: int
    trials: int
    seed: int
    histogram: dict  # pile count -> number of trials
    mean_piles: float
    mean_pile_sizes: tuple[float, ...]  # by position; absent piles count 0


def deck_simulation(ranks: int, copies_per_rank: int, trials: int, seed: int) -> DeckStats:
    """Shuffle a deck of ``copies_per_rank`` copies of each of ``ranks``
    values uniformly per trial, play ties-allowed greedy patience, and
    aggregate the pile-count histogram and per-position mean pile sizes."""
    if ranks < 1 or copies_per_rank < 1:
        raise ValueError("ranks and copies_per_rank must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    deck = np.repeat(np.arange(1, ranks + 1), copies_per_rank)
    histogram: dict[int, int] = {}
    size_sums: list[int] = []
    pile_total = 0
    for t in range(trials):
        rng = trial_generator(seed, t)
        shuffled = deck[rng.permutation(deck.size)]
        state = play_greedy(Word(tuple(shuffled.tolist()), ranks))
        k = pile_count(state)
        histogram[k] = histogram.get(k, 0) + 1
        pile_total += k
        if k > len(size_sums):
            size_sums.extend([0] * (k - len(size_sums)))
        for i, pile in enumerate(state.piles):
            size_sums[i] += len(pile)
    return DeckStats(
        ranks=ranks,
        copies_per_rank=copies_per_rank,
        trials=trials,
        seed=seed,
        histogram=dict(sorted(histogram.items())),
        mean_piles=pile_total / trials,
        mean_pile_sizes=tuple(s / trials for s in size_sums),
    )
