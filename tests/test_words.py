from itertools import permutations, product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from heckelis import verification
from heckelis.rng import generator, trial_generators, trial_stream
from heckelis.words import (
    Permutation,
    Word,
    _lis_lengths,
    coxeter_length,
    draw_letters,
    hecke_product,
    lds,
    lis,
    longest_element,
    patience_lis,
    random_word,
    random_words,
)

from conftest import words
from oracles import brute_end_positions, brute_lds, brute_lis

EXAMPLE_WORD = Word((5, 4, 1, 3, 4, 2, 5, 1, 2, 1, 4, 2, 4), 5)


class TestWordValidation:
    def test_letters_normalized(self):
        w = Word([2, 1], 3)
        assert w.letters == (2, 1) and len(w) == 2

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            Word((0, 1), 2)
        with pytest.raises(ValueError):
            Word((3,), 2)

    def test_empty_word_is_legal(self):
        assert len(Word((), 4)) == 0


class TestLisLds:
    def test_example_word(self):
        assert lis(EXAMPLE_WORD) == 4
        assert lds(EXAMPLE_WORD) == 5

    def test_constant_word(self):
        w = Word((3, 3, 3, 3), 3)
        assert lis(w) == 1
        assert lds(w) == 1

    def test_frozen_brute_force_values(self):
        # brute-force subsequence enumeration gives 4 and 2 for these words
        assert lis(Word((2, 3, 4, 1, 5, 2), 5)) == 4
        assert lds(Word((2, 1, 2, 3, 2), 3)) == 2

    def test_empty(self):
        assert lis(Word((), 1)) == 0
        assert lds(Word((), 1)) == 0

    @given(words(max_n=7, max_q=4))
    def test_against_enumeration(self, w):
        assert lis(w) == brute_lis(w.letters)
        assert lds(w) == brute_lds(w.letters)

    @given(words(max_n=12, max_q=6))
    def test_reversal_swaps_lis_lds(self, w):
        # read backwards, an increasing subsequence is a decreasing one
        reverse = Word(w.letters[::-1], w.alphabet_size)
        assert lis(w) == lds(reverse)
        assert lds(w) == lis(reverse)


class TestPatienceLis:
    # the pile-count fast path against the quadratic lis/lds oracles; the
    # exhaustive small range is in test_asymptotics.TestKernels
    def test_equal_letters_share_a_pile(self):
        assert patience_lis(()) == 0
        assert patience_lis((3, 3, 3)) == 1
        assert patience_lis((1, 2, 2, 3, 1)) == 3
        assert patience_lis(EXAMPLE_WORD.letters) == lis(EXAMPLE_WORD)

    @given(words(max_n=40, max_q=8))
    def test_against_oracles(self, w):
        q = w.alphabet_size
        assert patience_lis(w.letters) == lis(w)
        assert patience_lis([q + 1 - x for x in w.letters]) == lds(w)


def end_positions(letters):
    """r(w, t), 1-based, off the quadratic program: a later position overwrites."""
    return {t: j for j, t in enumerate(_lis_lengths(letters), start=1)}


class TestLisEndPositions:
    def test_worked_word(self):
        # r(w,1)=4, r(w,2)=6, r(w,3)=3 are pinned; r(w,4)=5 frozen from the
        # brute-force enumeration oracle
        assert end_positions((2, 3, 4, 1, 5, 2)) == {1: 4, 2: 6, 3: 3, 4: 5}

    def test_single_letter(self):
        assert end_positions((1,)) == {1: 1}

    def test_increasing_run(self):
        assert end_positions((1, 2, 3)) == {1: 1, 2: 2, 3: 3}

    @given(words(max_n=7, max_q=4, min_n=1))
    def test_against_enumeration(self, w):
        assert end_positions(w.letters) == brute_end_positions(w.letters)


class TestRandomWord:
    def test_zero_length(self):
        assert random_word(0, 5, 1).letters == ()

    def test_unary_alphabet(self):
        assert random_word(6, 1, 9).letters == (1,) * 6

    def test_deterministic_in_seed(self):
        assert random_word(50, 4, 123) == random_word(50, 4, 123)
        assert random_word(50, 4, 123) != random_word(50, 4, 124)

    def test_trial_streams_differ(self):
        a = random_word(20, 4, trial_stream(5, 0))
        b = random_word(20, 4, trial_stream(5, 1))
        assert a != b

    @pytest.mark.slow
    def test_letter_frequencies(self):
        # 3 sigma binomial band per letter over 1e5 draws of length 100, q=4
        draws, n, q = 100_000, 100, 4
        counts = [0] * (q + 1)
        rng = generator(777)
        for _ in range(draws):
            for x in random_word(n, q, rng).letters:
                counts[x] += 1
        total = draws * n
        p = 1 / q
        sigma = (total * p * (1 - p)) ** 0.5
        for letter in range(1, q + 1):
            assert abs(counts[letter] - total * p) <= 3 * sigma


def oracle_words(seed, sizes, start=0):
    """The words of ``random_words`` by ``draw_letters`` over ``trial_generators``."""
    rngs = trial_generators(seed, start, start + len(sizes))
    return [Word(draw_letters(rng, n, q), q) for rng, (n, q) in zip(rngs, sizes)]


@pytest.fixture(params=["compiled_kernel", "missing_compiler"])
def drawer(request):
    """Each way ``random_words`` can draw: the compiled ``draw_word`` or,
    with no compiler, the generators."""
    request.getfixturevalue(request.param)
    return request.param


class TestCompiledWords:
    """The compiled ``draw_word`` against its oracle, ``draw_letters`` over
    ``trial_generators``, trial by trial: the same letters drawn."""

    @pytest.mark.parametrize("level", [verification.FAST, verification.FULL])
    def test_every_verify_word(self, compiled_kernel, monkeypatch, level):
        calls = []

        def recorded(seed, sizes, start=0):
            calls.append((seed, sizes, start))
            return iter(())

        monkeypatch.setattr(verification, "random_words", recorded)
        verification.check_first_row_column(level)
        ((seed, sizes, start),) = calls
        assert len(sizes) == (300 if level == verification.FAST else 10_000)
        assert list(random_words(seed, sizes, start)) == oracle_words(seed, sizes, start)

    # 32-bit draws below 2**32 - 1, the plain word at q = 2**32, then 64-bit draws
    @pytest.mark.parametrize("q", [1, 3, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 2**63 - 1])
    def test_edge_alphabets(self, compiled_kernel, q):
        sizes = [(0, q), (40, q), (1, q), (0, q), (25, q)] * 40
        assert list(random_words(5, sizes)) == oracle_words(5, sizes)

    @pytest.mark.parametrize("start, trials", [(2**32 - 2, 3), (2**64 - 2, 2)],
                             ids=["high-word", "last-trials"])
    def test_trials_past_32_bits(self, compiled_kernel, start, trials):
        sizes = [(30, 4), (30, 2**40), (30, 4)][:trials]
        assert list(random_words(9, sizes, start)) == oracle_words(9, sizes, start)

    @pytest.mark.parametrize("n, q", [(-1, 3), (3, 0), (3, 2**63)])
    def test_bad_size_raises_before_drawing(self, drawer, n, q):
        with pytest.raises(ValueError, match="need n >= 0 and 1 <= q <= 2[*][*]63 - 1"):
            random_words(1, [(2, 2), (n, q)])

    def test_trials_past_64_bits_raise(self, drawer):
        with pytest.raises(ValueError, match="start <= stop <= 2[*][*]64"):
            random_words(1, [(2, 2)] * 3, 2**64 - 2)


def _rewrites(letters, q):
    """All one-step congruence rewrites of a letter tuple."""
    out = []
    for i in range(len(letters) - 1):
        a, b = letters[i], letters[i + 1]
        if a == b:
            out.append(letters[:i] + letters[i + 1 :])
        if abs(a - b) >= 2:
            out.append(letters[:i] + (b, a) + letters[i + 2 :])
    for i in range(len(letters) - 2):
        a, b, c = letters[i : i + 3]
        if a == c and a != b:
            out.append(letters[:i] + (b, a, b) + letters[i + 3 :])
    return out


class TestHeckeProduct:
    def test_idempotent_relation(self):
        for i in (1, 2, 3):
            assert hecke_product(Word((i, i), 3)) == hecke_product(Word((i,), 3))

    def test_braid_relation(self):
        assert hecke_product(Word((1, 2, 1), 2)) == hecke_product(Word((2, 1, 2), 2))

    def test_commutation_relation(self):
        assert hecke_product(Word((1, 3), 3)) == hecke_product(Word((3, 1), 3))

    def test_reduced_word_of_length_eight(self):
        w = Word((2, 1, 3, 4, 2, 3, 1, 2), 4)
        assert coxeter_length(hecke_product(w)) == 8

    def test_relation_invariance_exhaustive(self):
        for q in range(1, 5):
            for n in range(2, 7):
                for letters in product(range(1, q + 1), repeat=n):
                    target = hecke_product(Word(letters, q))
                    for other in _rewrites(letters, q):
                        assert hecke_product(Word(other, q)) == target

    @given(words(max_n=12, max_q=5))
    def test_relation_invariance_random(self, w):
        target = hecke_product(w)
        for other in _rewrites(w.letters, w.alphabet_size):
            assert hecke_product(Word(other, w.alphabet_size)) == target

    def test_distinct_letters_are_reduced(self):
        for q in range(1, 6):
            for size in range(1, q + 1):
                for subset in permutations(range(1, q + 1), size):
                    w = Word(subset, q)
                    assert coxeter_length(hecke_product(w)) == len(w)

    @given(words(max_n=10, max_q=4), st.integers(1, 4))
    def test_length_increment(self, w, x):
        if x > w.alphabet_size:
            x = w.alphabet_size
        before = hecke_product(w)
        after = hecke_product(Word(w.letters + (x,), w.alphabet_size))
        delta = coxeter_length(after) - coxeter_length(before)
        assert delta == (1 if before.one_line[x - 1] < before.one_line[x] else 0)


class TestCoxeterLength:
    def test_identity(self):
        assert coxeter_length(Permutation((1, 2, 3, 4))) == 0

    def test_longest_elements(self):
        for q in range(1, 7):
            assert coxeter_length(longest_element(q)) == q * (q + 1) // 2

    def test_single_inversion(self):
        assert coxeter_length(Permutation((2, 1, 3))) == 1


class TestLongestElement:
    def test_small(self):
        assert longest_element(1).one_line == (2, 1)
        assert longest_element(4).one_line == (5, 4, 3, 2, 1)

    def test_length_value(self):
        assert coxeter_length(longest_element(3)) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            longest_element(0)
