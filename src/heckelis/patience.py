"""Patience sorting on decks with repeated values.

Cards are dealt left to right onto piles.  With ties allowed, a card may
cover a card of greater or equal value; with ties forbidden, only strictly
greater.  Under the greedy strategy (leftmost legal pile) the pile tops
weakly increase left to right, so the legal pile is found by binary search.

``play_greedy`` deals one word and is the rule.  ``deck_simulation`` deals
whole blocks of shuffled decks at once with ``deal_piles``, which keeps
only the tops and the pile sizes and must agree with ``play_greedy`` deck
by deck.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .rng import trial_generators
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


# a block of decks holds about this many cards, and at least
# _MIN_BLOCK_DECKS decks, so memory stays flat however wide a deck is and
# a wide deck still shares each numpy call with others
_BLOCK_CARDS = 2**15
_MIN_BLOCK_DECKS = 4


def deal_piles(decks: np.ndarray, ranks: int) -> np.ndarray:
    """Deal each row of ``decks`` (cards in 1..``ranks``) with ties-allowed
    greedy patience; return, in the same layout, the 0-based position of
    the pile each card went on.  A deck's piles are numbered left to right
    as they appear, so its pile count is its largest position plus one.

    Row r's tops are stored as ``r * (ranks + 2) + top`` in one flat array,
    followed by a sentinel ``r * (ranks + 2) + ranks + 1``.  The tops
    weakly increase within a row and the offsets keep the rows apart, so
    one ``searchsorted`` finds, in every row at once, the leftmost pile the
    next card may cover, or the sentinel when the card starts a new pile.
    """
    rows, cards = decks.shape
    # int32 wherever the flat values fit, to halve the block's memory
    dtype = np.int32 if rows * (ranks + 2) <= np.iinfo(np.int32).max else np.int64
    offsets = np.arange(rows, dtype=dtype) * (ranks + 2)
    tops = np.repeat(offsets + (ranks + 1), ranks + 1)
    # the cards in dealing order, offset by row; each is then overwritten by
    # the index in ``tops`` of the pile it went on
    slots = np.empty((cards, rows), dtype=dtype)
    np.add(decks.T, offsets, out=slots)
    search, put = tops.searchsorted, tops.put
    for slot in slots:
        # side="left": the first top >= the card, so a card may cover its equal
        piles = search(slot)
        put(piles, slot)
        slot[...] = piles
    slots -= np.arange(rows, dtype=dtype) * (ranks + 1)  # where row r's piles start
    return slots.T


def deck_simulation(ranks: int, copies_per_rank: int, trials: int, seed: int) -> DeckStats:
    """Shuffle a deck of ``copies_per_rank`` copies of each of ``ranks``
    values uniformly per trial, play ties-allowed greedy patience, and
    aggregate the pile-count histogram and per-position mean pile sizes.

    Trial t shuffles its deck with its own ``(seed, t)`` stream, taken from
    ``trial_generators``; the decks are dealt a block at a time by
    ``deal_piles``."""
    if ranks < 1 or copies_per_rank < 1:
        raise ValueError("ranks and copies_per_rank must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # the narrowest type that holds the ranks: it is shuffled and copied per deck
    deck = np.repeat(np.arange(1, ranks + 1, dtype=np.min_scalar_type(ranks)), copies_per_rank)
    block = max(_MIN_BLOCK_DECKS, _BLOCK_CARDS // deck.size)
    streams = trial_generators(seed, 0, trials)
    histogram = np.zeros(ranks + 1, dtype=np.int64)
    size_sums = np.zeros(ranks, dtype=np.int64)
    for start in range(0, trials, block):
        decks = np.tile(deck, (min(block, trials - start), 1))
        for row, rng in zip(decks, streams):
            rng.shuffle(row)  # the same order as deck[rng.permutation(deck.size)]
        piles = deal_piles(decks, ranks)
        histogram += np.bincount(piles.max(axis=1) + 1, minlength=ranks + 1)
        # the order of the cards does not matter to the sums, so read them as stored
        size_sums += np.bincount(piles.ravel(order="K"), minlength=ranks)
    counts = histogram.tolist()
    most = max(k for k, c in enumerate(counts) if c)
    return DeckStats(
        ranks=ranks,
        copies_per_rank=copies_per_rank,
        trials=trials,
        seed=seed,
        histogram={k: c for k, c in enumerate(counts) if c},
        mean_piles=sum(k * c for k, c in enumerate(counts)) / trials,
        mean_pile_sizes=tuple(s / trials for s in size_sums[:most].tolist()),
    )
