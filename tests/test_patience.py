from itertools import product
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from heckelis import patience
from heckelis.insertion import hecke
from heckelis.patience import PileState, deck_simulation, play_greedy
from heckelis.rng import generator
from heckelis.words import Word, lis

from conftest import words
from oracles import scalar_deck_simulation

TWELVE_CARD_WORD = Word((2, 1, 4, 1, 3, 5, 3, 2, 5, 1, 4, 2), 5)


class TestWorkedGames:
    def test_nine_card_distinct_deck(self):
        deck = Word((8, 2, 6, 3, 4, 1, 7, 10, 9), 10)
        state = play_greedy(deck)
        assert state.piles == ((8, 2, 1), (6, 3), (4,), (7,), (10, 9))
        assert len(state.piles) == 5

    def test_twelve_card_ties_allowed(self):
        state = play_greedy(TWELVE_CARD_WORD)
        assert state.piles == ((2, 1, 1, 1), (4, 3, 3, 2, 2), (5, 5, 4))
        assert tuple(pile[-1] for pile in state.piles) == (1, 2, 4)

    def test_strictly_increasing_word(self):
        state = play_greedy(Word((1, 2, 3), 3))
        assert state.piles == ((1,), (2,), (3,))

    def test_empty_word(self):
        state = play_greedy(Word((), 2))
        assert state.piles == ()


class TestPileStateValidation:
    def test_rejects_increasing_pile(self):
        with pytest.raises(ValueError):
            PileState(((1, 2),))
        PileState(((2, 2),))  # a card may cover its equal

    def test_rejects_decreasing_tops(self):
        with pytest.raises(ValueError):
            PileState(((3,), (1,)))


class TestAgainstInsertion:
    def test_tops_equal_first_row_exhaustive(self):
        for q in range(1, 4):
            for n in range(0, 6):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    piles = play_greedy(w).piles
                    p = hecke(w).p
                    first_row = p.rows[0] if p.rows else ()
                    assert tuple(pile[-1] for pile in piles) == first_row
                    assert len(piles) == lis(w)

    @given(words(max_n=60, max_q=8))
    def test_tops_equal_first_row_random(self, w):
        piles = play_greedy(w).piles
        p = hecke(w).p
        first_row = p.rows[0] if p.rows else ()
        assert tuple(pile[-1] for pile in piles) == first_row
        assert len(piles) == lis(w)

    @given(words(max_n=60, max_q=8))
    def test_pile_count_is_lis(self, w):
        assert len(play_greedy(w).piles) == lis(w)

    @pytest.mark.slow
    def test_pile_count_is_lis_exhaustive_wide(self):
        for q in range(1, 5):
            for n in range(0, 9):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    assert len(play_greedy(w).piles) == lis(w)


ORACLE_SIZES = [
    (1, 5, 50, 3),
    (1000, 1, 40, 3),
    (400, 3, 30, 3),
    (5, 3, 300, 11),
    (9000, 1, 6, 3),  # a wide deck, 9000 distinct cards
]


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

    @pytest.mark.parametrize("ranks, copies, trials, seed", ORACLE_SIZES)
    def test_equals_scalar_oracle(self, ranks, copies, trials, seed, numpy_dealer):
        assert deck_simulation(ranks, copies, trials, seed) == scalar_deck_simulation(
            ranks, copies, trials, seed)

    # a deck past int64 cards fails before any allocation; 2**62 cards pass
    # that check and are refused by the dealer's own size check
    @pytest.mark.parametrize("copies", [2**64 + 3, 2**62])
    def test_deck_too_large_is_memory_error(self, copies, dealer):
        with pytest.raises(MemoryError):
            deck_simulation(1, copies, 1, 0)

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
        rng = generator(99)
        for _ in range(trials):
            counts[deck[rng.permutation(deck.size)][0]] += 1
        p = 1 / ranks
        sigma = (trials * p * (1 - p)) ** 0.5
        for rank in range(1, ranks + 1):
            assert abs(counts[rank] - trials * p) <= 3 * sigma


def dealt_by_both(ranks, copies, trials, seed, monkeypatch):
    """The stats of the compiled dealer, then of the numpy dealer."""
    compiled = deck_simulation(ranks, copies, trials, seed)
    monkeypatch.setattr(patience, "_compiled_dealer", lambda: None)
    return compiled, deck_simulation(ranks, copies, trials, seed)


class TestCompiledDealer:
    """``deal_decks`` in ``sampling.c`` against the numpy dealer, its oracle, and the
    scalar oracle."""

    @pytest.mark.parametrize("ranks, copies, trials, seed", [
        (13, 4, 10_000, 7),
        (1000, 1, 300, 3),
        (5, 3, 1537, 11),
        (1, 5, 50, 3),
        (1, 1, 20, 2),
        (40_000, 1, 3, 5),
        (70_000, 1, 2, 5),  # swap positions past 2**16
    ], ids=["13x4", "1000x1", "5x3", "1x5", "1x1", "40000x1", "70000x1"])
    def test_equals_numpy_dealer(self, ranks, copies, trials, seed, compiled_dealer,
                                 monkeypatch):
        compiled, numpy = dealt_by_both(ranks, copies, trials, seed, monkeypatch)
        assert (compiled.dealer, numpy.dealer) == ("compiled", "numpy")
        assert compiled == numpy

    # 8 TB of pile sizes, then more than a ctypes array may hold
    @pytest.mark.parametrize("ranks", [10**12, 2**62])
    def test_too_many_ranks_is_memory_error(self, ranks, compiled_dealer):
        with pytest.raises(MemoryError, match=f"cannot allocate the pile sizes of {ranks} ranks"):
            deck_simulation(ranks, 1, 1, 0)

    @pytest.mark.parametrize("ranks, copies, trials, seed", ORACLE_SIZES)
    def test_equals_scalar_oracle(self, ranks, copies, trials, seed, compiled_dealer):
        stats = deck_simulation(ranks, copies, trials, seed)
        assert stats.dealer == "compiled"
        assert stats == scalar_deck_simulation(ranks, copies, trials, seed)

    # seeds past 2**32 and 2**64 take two and three words into the key hash
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ranks=st.integers(1, 30), copies=st.integers(1, 6), trials=st.integers(1, 40),
           seed=st.integers(0, 2**70))
    def test_equals_numpy_dealer_on_random_sizes(self, compiled_dealer, ranks, copies, trials,
                                                 seed):
        compiled = deck_simulation(ranks, copies, trials, seed)
        with mock.patch.object(patience, "_compiled_dealer", lambda: None):
            numpy = deck_simulation(ranks, copies, trials, seed)
        assert (compiled.dealer, numpy.dealer) == ("compiled", "numpy")
        assert compiled == numpy
