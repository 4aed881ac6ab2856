from itertools import permutations, product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from heckelis import patience
from heckelis.insertion import hecke
from heckelis.patience import (
    PileState,
    deal_piles,
    deck_simulation,
    pile_count,
    pile_tops,
    play_greedy,
)
from heckelis.rng import trial_generators
from heckelis.words import Word, lis

from conftest import words
from oracles import scalar_deck_simulation

TWELVE_CARD_WORD = Word((2, 1, 4, 1, 3, 5, 3, 2, 5, 1, 4, 2), 5)


class TestWorkedGames:
    def test_nine_card_distinct_deck(self):
        deck = Word((8, 2, 6, 3, 4, 1, 7, 10, 9), 10)
        state = play_greedy(deck, "allowed")
        assert state.piles == ((8, 2, 1), (6, 3), (4,), (7,), (10, 9))
        assert pile_count(state) == 5

    def test_twelve_card_ties_forbidden(self):
        state = play_greedy(TWELVE_CARD_WORD, "forbidden")
        assert state.piles == ((2, 1), (4, 1), (3, 2, 1), (5, 3, 2), (5, 4))

    def test_twelve_card_ties_allowed(self):
        state = play_greedy(TWELVE_CARD_WORD, "allowed")
        assert state.piles == ((2, 1, 1, 1), (4, 3, 3, 2, 2), (5, 5, 4))
        assert pile_tops(state).letters == (1, 2, 4)

    def test_strictly_increasing_word(self):
        state = play_greedy(Word((1, 2, 3), 3))
        assert state.piles == ((1,), (2,), (3,))

    def test_empty_word(self):
        state = play_greedy(Word((), 2))
        assert pile_count(state) == 0
        assert pile_tops(state).letters == ()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            play_greedy(Word((1,), 1), "sometimes")


class TestPileStateValidation:
    def test_rejects_increasing_pile(self):
        with pytest.raises(ValueError):
            PileState(((1, 2),), "allowed", 2)

    def test_rejects_tie_in_forbidden_mode(self):
        with pytest.raises(ValueError):
            PileState(((2, 2),), "forbidden", 2)
        PileState(((2, 2),), "allowed", 2)

    def test_rejects_decreasing_tops(self):
        with pytest.raises(ValueError):
            PileState(((3,), (1,)), "allowed", 3)


class TestAgainstInsertion:
    def test_tops_equal_first_row_exhaustive(self):
        for q in range(1, 4):
            for n in range(0, 6):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    state = play_greedy(w)
                    p = hecke(w).p
                    first_row = p.rows[0] if p.rows else ()
                    assert pile_tops(state).letters == first_row
                    assert pile_count(state) == lis(w)

    @given(words(max_n=60, max_q=8))
    def test_tops_equal_first_row_random(self, w):
        state = play_greedy(w)
        p = hecke(w).p
        first_row = p.rows[0] if p.rows else ()
        assert pile_tops(state).letters == first_row
        assert pile_count(state) == lis(w)

    @given(words(max_n=60, max_q=8))
    def test_pile_count_is_lis(self, w):
        assert pile_count(play_greedy(w)) == lis(w)

    @pytest.mark.slow
    def test_pile_count_is_lis_exhaustive_wide(self):
        for q in range(1, 5):
            for n in range(0, 9):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    assert pile_count(play_greedy(w)) == lis(w)


def dealt_piles(deck, positions):
    """The piles, cards bottom to top, of a deck whose card i went on pile
    ``positions[i]``."""
    piles = [[] for _ in range(max(positions) + 1)]
    for card, position in zip(deck, positions):
        piles[position].append(card)
    return tuple(tuple(pile) for pile in piles)


def greedy_piles(deck, ranks):
    return play_greedy(Word(tuple(deck), ranks)).piles


@st.composite
def deck_blocks(draw, max_rows=6, max_cards=40, max_ranks=8):
    ranks = draw(st.integers(1, max_ranks))
    cards = draw(st.integers(1, max_cards))
    rows = draw(st.integers(1, max_rows))
    letters = st.lists(st.integers(1, ranks), min_size=cards, max_size=cards)
    return ranks, draw(st.lists(letters, min_size=rows, max_size=rows))


class TestDealPiles:
    """The block dealer against ``play_greedy``, deck by deck and card by card."""

    def test_every_ordering_of_small_multiset_decks(self):
        for ranks in range(1, 4):
            for copies in range(1, 4):
                deck = [rank for rank in range(1, ranks + 1) for _ in range(copies)]
                decks = sorted(set(permutations(deck)))
                positions = deal_piles(np.array(decks), ranks)
                assert positions.shape == (len(decks), ranks * copies)
                for row, order in zip(positions.tolist(), decks):
                    assert dealt_piles(order, row) == greedy_piles(order, ranks)

    @given(deck_blocks())
    def test_random_blocks(self, block):
        ranks, decks = block
        positions = deal_piles(np.array(decks), ranks).tolist()
        assert [dealt_piles(deck, row) for deck, row in zip(decks, positions)] == [
            greedy_piles(deck, ranks) for deck in decks]


class TestDeckSimulation:
    def test_single_rank(self):
        stats = deck_simulation(1, 5, 50, 3)
        assert stats.histogram == {1: 50}
        assert stats.mean_piles == 1.0
        assert stats.mean_pile_sizes == (5.0,)

    def test_counts_are_consistent(self):
        stats = deck_simulation(4, 3, 200, 11)
        assert sum(stats.histogram.values()) == 200
        assert sum(stats.mean_pile_sizes) == pytest.approx(12.0)

    def test_deterministic(self):
        a = deck_simulation(6, 2, 100, 5)
        b = deck_simulation(6, 2, 100, 5)
        assert a == b

    @pytest.mark.parametrize("ranks, copies, trials, seed", [
        (1, 5, 50, 3),
        (1000, 1, 40, 3),
        (400, 3, 30, 3),
        (5, 3, 300, 11),
        (9000, 1, 6, 3),  # wider than _BLOCK_CARDS / 4: blocks of 4 decks
    ])
    def test_equals_scalar_oracle(self, ranks, copies, trials, seed):
        assert deck_simulation(ranks, copies, trials, seed) == scalar_deck_simulation(
            ranks, copies, trials, seed)

    @pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["b-1", "b", "b+1", "2b+1"])
    def test_equals_scalar_oracle_around_the_block_size(self, blocks, extra):
        ranks, copies = 13, 4
        trials = blocks * (patience._BLOCK_CARDS // (ranks * copies)) + extra
        assert deck_simulation(ranks, copies, trials, 5) == scalar_deck_simulation(
            ranks, copies, trials, 5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            deck_simulation(0, 4, 10, 1)
        with pytest.raises(ValueError):
            deck_simulation(4, 4, 0, 1)

    @pytest.mark.slow
    def test_shuffles_uniform_first_card(self):
        # 3 sigma multinomial band on the first card of 1e5 shuffles
        import numpy as np

        ranks, copies, trials = 13, 4, 100_000
        deck = np.repeat(np.arange(1, ranks + 1), copies)
        counts = np.zeros(ranks + 1, dtype=int)
        for rng in trial_generators(99, 0, trials):
            counts[deck[rng.permutation(deck.size)][0]] += 1
        p = 1 / ranks
        sigma = (trials * p * (1 - p)) ** 0.5
        for rank in range(1, ranks + 1):
            assert abs(counts[rank] - trials * p) <= 3 * sigma
