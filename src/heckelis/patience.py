"""Patience sorting on decks with repeated values.

Cards are dealt left to right onto piles, and a card may cover a card of
greater or equal value (ties allowed).  Under the greedy strategy (leftmost
legal pile) the pile tops weakly increase left to right, so the legal pile
is found by binary search.

``play_greedy`` deals one word and is the rule.  ``deck_simulation``
shuffles and deals all its decks in one call of ``deal_decks``, compiled
from ``sampling.c``, the package's one C source; it keeps only the pile
counts and sizes.  Where no C compiler builds it, the numpy dealer runs
instead: it shuffles each deck with its trial's generator and deals a
block at once with ``deal_piles``.  Both must agree with ``play_greedy``
deck by deck, and the numpy dealer is the compiled one's oracle.  Only the
numpy dealer loads numpy.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .rng import seed_words, trial_generators
from .words import Word

if TYPE_CHECKING:
    import numpy as np


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
    import numpy as np

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
    """The numpy dealer: the same counts as ``_deal_compiled``."""
    import numpy as np

    histogram = np.zeros(ranks + 1, dtype=np.int64)
    size_sums = np.zeros(ranks, dtype=np.int64)
    # the narrowest type that holds the ranks: it is shuffled and copied per deck
    deck = np.repeat(np.arange(1, ranks + 1, dtype=np.min_scalar_type(ranks)), copies_per_rank)
    block = max(_MIN_BLOCK_DECKS, _BLOCK_CARDS // deck.size)
    streams = trial_generators(seed, 0, trials)
    for start in range(0, trials, block):
        decks = np.tile(deck, (min(block, trials - start), 1))
        for row, rng in zip(decks, streams):
            rng.shuffle(row)  # the same order as deck[rng.permutation(deck.size)]
        piles = deal_piles(decks, ranks)
        histogram += np.bincount(piles.max(axis=1) + 1, minlength=ranks + 1)
        # the order of the cards does not matter to the sums, so read them as stored
        size_sums += np.bincount(piles.ravel(order="K"), minlength=ranks)
    return histogram.tolist(), size_sums.tolist()


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
