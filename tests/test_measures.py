from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from heckelis.asymptotics import Scheduler, sweep_at, trial_shapes
from heckelis.insertion import heckeshape, rsk_shape
from heckelis.measures import (
    exact_plancherel_hecke,
    markov_transition,
    plancherel_rsk_prob,
)
from heckelis.rng import trial_stream
from heckelis.tableaux import (
    EMPTY_DIAGRAM,
    YoungDiagram,
    add_corner,
    addable_corners,
    conjugate,
    count_standard,
)
from heckelis.words import Word, lds, lis, random_word

from oracles import all_partitions


def plancherel_weight(shape: YoungDiagram):
    """Classical Plancherel weight: squared standard count over ``|shape|!``."""
    return Fraction(count_standard(shape) ** 2, factorial(shape.size))


def rsk_path(n: int, q: int, seed):
    """RSK shapes of the prefixes of a uniform word: a growth-process path,
    empty shape first."""
    w = random_word(n, q, seed)
    return [rsk_shape(Word(w.letters[:i], q)) for i in range(n + 1)]


# the nine-shape exact table for four letters over a three-letter alphabet:
# increasing-count, set-valued-count pairs as displayed in the worked example
NINE_WEIGHTS = {
    (1,): (3, 1),
    (2,): (3, 3),
    (1, 1): (3, 3),
    (2, 1): (5, 8),
    (3,): (1, 3),
    (1, 1, 1): (1, 3),
    (3, 1): (2, 3),
    (2, 1, 1): (2, 3),
    (2, 2): (1, 2),
}


class TestExactDistribution:
    def test_four_three_reproduces_nine_weights(self):
        dist = exact_plancherel_hecke(4, 3)
        assert len(dist.entries) == 9
        for shape, prob in dist.entries:
            d, e = NINE_WEIGHTS[shape.parts]
            assert prob == Fraction(d * e, 81)
        assert dict(dist.entries)[YoungDiagram((2, 1))] == Fraction(40, 81)

    def test_probabilities_sum_to_one(self):
        for n, q in [(0, 1), (1, 1), (3, 2), (5, 3), (6, 4)]:
            dist = exact_plancherel_hecke(n, q)
            assert sum((p for _, p in dist.entries), start=Fraction(0)) == 1

    def test_trivial_instance(self):
        dist = exact_plancherel_hecke(1, 1)
        assert dist.entries == ((YoungDiagram((1,)), Fraction(1)),)

    def test_three_two_matches_word_tally(self):
        # frozen from the hand computation: each of the four shapes carries
        # weight 2 of 8; re-derived here by brute pushforward
        dist = exact_plancherel_hecke(3, 2)
        expected = {
            (1,): Fraction(1, 4),
            (2,): Fraction(1, 4),
            (1, 1): Fraction(1, 4),
            (2, 1): Fraction(1, 4),
        }
        assert {s.parts: p for s, p in dist.entries} == expected
        tally = {}
        for letters in product((1, 2), repeat=3):
            s = heckeshape(Word(letters, 2))
            tally[s.parts] = tally.get(s.parts, 0) + 1
        assert {k: Fraction(v, 8) for k, v in tally.items()} == expected

    def test_conjugation_symmetry(self):
        # transposing an increasing or a standard set-valued filling gives
        # another one, so both counts, and the measure, are conjugation
        # invariant
        for n, q in [(4, 3), (5, 3), (6, 4), (7, 4)]:
            probs = dict(exact_plancherel_hecke(n, q).entries)
            for shape, prob in probs.items():
                assert probs[conjugate(shape)] == prob

    def test_support_constraints(self):
        from heckelis.tableaux import staircase

        for n, q in [(3, 2), (5, 3), (7, 4), (9, 2)]:
            dist = exact_plancherel_hecke(n, q)
            for shape, _ in dist.entries:
                assert staircase(q).contains(shape)
                assert shape.size <= min(n, q * (q + 1) // 2)

    def test_guard_violation(self):
        with pytest.raises(ValueError, match="exact mode guard"):
            exact_plancherel_hecke(11, 3)
        with pytest.raises(ValueError, match="exact mode guard"):
            exact_plancherel_hecke(4, 6)

    def test_serialization(self):
        payload = exact_plancherel_hecke(1, 1).to_json()
        assert payload == [{"shape": [1], "num": "1", "den": "1"}]


class TestExpectations:
    def test_four_three_expected_lis(self):
        # sum over the nine weights of first-row times weight is 156/81;
        # the brute-force average of LIS over all 81 words agrees
        assert exact_plancherel_hecke(4, 3).expected_lis() == Fraction(156, 81)

    def test_brute_force_agreement(self):
        from oracles import brute_lis

        for n, q in [(1, 1), (2, 2), (3, 2), (4, 3)]:
            total = sum(
                brute_lis(letters) for letters in product(range(1, q + 1), repeat=n)
            )
            assert exact_plancherel_hecke(n, q).expected_lis() == Fraction(total, q**n)

    def test_unary_alphabet(self):
        for n in range(1, 8):
            assert exact_plancherel_hecke(n, 1).expected_lis() == 1

    def test_prob_lis(self):
        entries = exact_plancherel_hecke(4, 3).entries
        assert sum(p for s, p in entries if s.parts[0] == 3) == Fraction(9, 81)
        assert sum(p for _, p in entries) == 1


class TestSampling:
    # the Plancherel-Hecke sampler is asymptotics.trial_shapes; sweep_at
    # aggregates its statistics with the shape kernel (profile=True) or reads
    # them off the words with the word kernel
    def test_empty_word_gives_empty_shape(self):
        assert tuple(trial_shapes(0, 3, 17, 1)) == (EMPTY_DIAGRAM,)
        for profile in (False, True):
            res = sweep_at(0, 3, 1, 17, profile=profile)
            assert res.mean_lis == 0 and res.mean_lds == 0

    def test_record_fields_match_shape(self):
        trials = 8
        shapes = tuple(trial_shapes(30, 5, 23, trials))
        assert len(shapes) == trials
        for profile in (False, True):
            res = sweep_at(30, 5, trials, 23, profile=profile)
            assert res.mean_lis == sum(s.parts[0] for s in shapes) / trials
            assert res.mean_lds == sum(len(s.parts) for s in shapes) / trials

    @pytest.mark.slow
    def test_typical_shape_frequency(self):
        # binomial 3 sigma band around 40/81 for the modal shape at (4, 3)
        trials = 100_000
        hits = sum(shape == YoungDiagram((2, 1)) for shape in trial_shapes(4, 3, 31, trials))
        p = 40 / 81
        sigma = (trials * p * (1 - p)) ** 0.5
        assert abs(hits - trials * p) <= 3 * sigma

    @pytest.mark.slow
    def test_recorded_statistics_match_word_oracles(self, monkeypatch):
        # 240 (n, q) pairs of 42 trials each, about 10^4 words in all; with
        # workers made free, one scheduler runs them all on one real pool of
        # two workers, each pair split into two blocks
        import heckelis.asymptotics as asymptotics

        monkeypatch.setattr(asymptotics, "_WORKER_COST_S", 0.0)
        monkeypatch.setattr(asymptotics.os, "cpu_count", lambda: 2)
        trials = 42
        with Scheduler(2, 240 * 2 * trials) as pooled:
            for n in range(1, 31):
                for q in range(1, 9):
                    lis_sum = lds_sum = 0
                    for t, shape in enumerate(trial_shapes(n, q, 57, trials)):
                        w = random_word(n, q, trial_stream(57, t))
                        assert (shape.parts[0], len(shape.parts)) == (lis(w), lds(w))
                        lis_sum += shape.parts[0]
                        lds_sum += len(shape.parts)
                    by_word = sweep_at(n, q, trials, 57)
                    assert (by_word.mean_lis, by_word.mean_lds) == (lis_sum / trials,
                                                                    lds_sum / trials)
                    assert sweep_at(n, q, trials, 57, scheduler=pooled) == by_word
                    for scheduler in (None, pooled):
                        by_shape = sweep_at(n, q, trials, 57, profile=True, scheduler=scheduler)
                        assert replace(by_shape, mean_profile=()) == by_word
        assert pooled.workers == 2


class TestRskMeasure:
    def test_sums_to_one(self):
        for q in range(1, 5):
            for n in range(0, 8):
                total = sum(
                    (
                        plancherel_rsk_prob(YoungDiagram(parts), n, q)
                        for parts in all_partitions(n)
                        if sum(parts) == n
                    ),
                    start=Fraction(0),
                )
                assert total == 1

    def test_single_box(self):
        assert plancherel_weight(YoungDiagram((1,))) == 1
        assert plancherel_rsk_prob(YoungDiagram((1,)), 1, 3) == 1

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            plancherel_rsk_prob(YoungDiagram((2,)), 3, 2)

    def test_three_two_matches_rsk_pushforward(self):
        tally = {}
        for letters in product((1, 2), repeat=3):
            s = rsk_shape(Word(letters, 2))
            tally[s] = tally.get(s, 0) + 1
        for shape, count in tally.items():
            assert plancherel_rsk_prob(shape, 3, 2) == Fraction(count, 8)

    def test_plancherel_is_rsk_with_big_alphabet_on_permutations(self):
        # for n <= q the permutation-support part: just check normalization
        total = sum(
            (
                plancherel_weight(YoungDiagram(parts))
                for parts in all_partitions(5)
                if sum(parts) == 5
            ),
            start=Fraction(0),
        )
        assert total == 1


class TestGrowthProcess:
    def test_transitions_sum_to_one(self):
        for q in range(1, 6):
            for parts in all_partitions(8):
                shape = YoungDiagram(parts)
                if len(shape.parts) > q:
                    continue
                total = sum(
                    (
                        markov_transition(shape, add_corner(shape, box), q)
                        for box in addable_corners(shape)
                    ),
                    start=Fraction(0),
                )
                assert total == 1

    def test_empty_to_single_box(self):
        assert markov_transition(EMPTY_DIAGRAM, YoungDiagram((1,)), 4) == 1

    def test_rejects_non_covering(self):
        with pytest.raises(ValueError):
            markov_transition(YoungDiagram((1,)), YoungDiagram((3,)), 2)

    def test_pushforward_identity(self):
        for q in range(1, 5):
            for n in range(0, 7):
                shapes_n = [
                    YoungDiagram(p)
                    for p in all_partitions(n)
                    if sum(p) == n and len(p) <= q
                ]
                for parts in all_partitions(n + 1):
                    if sum(parts) != n + 1 or len(parts) > q:
                        continue
                    target = YoungDiagram(parts)
                    pushed = sum(
                        (
                            markov_transition(s, target, q) * plancherel_rsk_prob(s, n, q)
                            for s in shapes_n
                            if target.contains(s)
                        ),
                        start=Fraction(0),
                    )
                    assert pushed == plancherel_rsk_prob(target, n + 1, q)

    def test_path_starts_with_single_box(self):
        for seed in range(5):
            path = rsk_path(3, 4, seed)
            assert path[0] == EMPTY_DIAGRAM
            assert path[1] == YoungDiagram((1,))
            assert all(path[i + 1].size == i + 1 for i in range(3))

    def test_path_never_exceeds_alphabet_rows(self):
        for seed in range(5):
            path = rsk_path(30, 3, seed)
            assert all(len(s.parts) <= 3 for s in path)


class TestGammaEstimate:
    # gamma is the mean first-column length of the RSK growth process after
    # n steps; that column is the LDS of the word, so sweep_at's mean_lds
    # estimates it
    def test_step_one_is_single_box(self):
        assert sweep_at(1, 5, trials=4, seed=2).mean_lds == 1.0

    def test_bounded_by_alphabet(self):
        assert sweep_at(40, 3, trials=5, seed=3).mean_lds <= 3

    def test_first_column_bound_above_critical(self):
        # alphabet twice the square root of the step count: the mean first
        # column must sit below (2 - 1/2) sqrt(n) + 1 = 76
        estimate = sweep_at(2500, 100, trials=6, seed=5).mean_lds
        assert estimate <= 76.0
        assert estimate >= 25.0  # sanity: far above trivial lower bounds
