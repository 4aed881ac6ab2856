from itertools import permutations, product

import pytest
from hypothesis import given

import heckelis.insertion as insertion
import heckelis.verification as verification
from heckelis.insertion import (
    HeckePair,
    _insert,
    _reverse_step,
    hecke,
    hecke_inverse,
    heckeshape,
    insertion_tableau,
    rsk_shape,
    shape_parts,
)
from heckelis.tableaux import (
    IncreasingTableau,
    SetValuedStandardTableau,
    YoungDiagram,
    conjugate,
    staircase,
)
from heckelis.words import (
    Word,
    _lis_lengths,
    draw_letters,
    hecke_product,
    lds,
    lis,
    longest_element,
    random_word,
)
from heckelis.rng import trial_generators, trial_stream
from heckelis.verification import FAST, _words_up_to, check_patience, check_rectification

from conftest import words

EXAMPLE_WORD = Word((5, 4, 1, 3, 4, 2, 5, 1, 2, 1, 4, 2, 4), 5)

# Insertion tableau after each letter of the worked 13-letter example, all
# thirteen states verified by hand.
EXAMPLE_P_STEPS = [
    ((5,),),
    ((4,), (5,)),
    ((1,), (4,), (5,)),
    ((1, 3), (4,), (5,)),
    ((1, 3, 4), (4,), (5,)),
    ((1, 2, 4), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2,), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4, 5), (3,), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4, 5), (3, 5), (4,), (5,)),
    ((1, 2, 4, 5), (2, 4, 5), (3, 5), (4,), (5,)),
]

EXAMPLE_Q_FINAL = (
    ({1}, {4}, {5}, {7}),
    ({2}, {9}, {11, 13}),
    ({3}, {12}),
    ({6},),
    ({8, 10},),
)


def _q_rows(pair):
    return tuple(tuple(set(s) for s in row) for row in pair.q.rows)


class TestGoldenExample:
    def test_insertion_tableau_step_for_step(self):
        for j in range(1, len(EXAMPLE_WORD) + 1):
            prefix = Word(EXAMPLE_WORD.letters[:j], 5)
            assert hecke(prefix).p.rows == EXAMPLE_P_STEPS[j - 1], f"step {j}"

    def test_recording_tableau_after_tenth_step(self):
        prefix = Word(EXAMPLE_WORD.letters[:10], 5)
        pair = hecke(prefix)
        assert _q_rows(pair) == (
            ({1}, {4}, {5}, {7}),
            ({2}, {9}),
            ({3},),
            ({6},),
            ({8, 10},),
        )

    def test_final_pair(self):
        pair = hecke(EXAMPLE_WORD)
        assert pair.p.rows == EXAMPLE_P_STEPS[-1]
        assert _q_rows(pair) == EXAMPLE_Q_FINAL
        assert pair.shape == YoungDiagram((4, 3, 2, 1, 1))

    def test_shape_encodes_lis_lds(self):
        shape = heckeshape(EXAMPLE_WORD)
        assert shape.parts[0] == lis(EXAMPLE_WORD) == 4
        assert len(shape.parts) == lds(EXAMPLE_WORD) == 5

    def test_full_inverse(self):
        assert hecke_inverse(hecke(EXAMPLE_WORD), alphabet_size=5) == EXAMPLE_WORD


class TestHeckeInsert:
    # _insert mutates the rows and returns the 0-based recording corner and
    # the flag
    def test_worked_single_insertion(self):
        rows = [[1, 3, 5], [2, 4, 6]]
        assert _insert(rows, 3) == (2, 0, 1)
        assert rows == [[1, 3, 5], [2, 4, 6], [6]]

    def test_empty_tableau(self):
        rows = []
        assert _insert(rows, 4) == (0, 0, 1)
        assert rows == [[4]]

    def test_tenth_step_leaves_shape_unchanged(self):
        # the state before the 10th insertion of the worked example; the
        # incoming letter there is 1 and the recording corner drops to (5, 1)
        rows = [[1, 2, 4, 5], [2, 4], [3], [4], [5]]
        assert _insert(rows, 1) == (4, 0, 0)
        assert rows == [[1, 2, 4, 5], [2, 4], [3], [4], [5]]

    def test_flag_zero_can_still_modify_entries(self):
        rows = [[1, 3], [2, 4], [4]]
        assert _insert(rows, 2)[2] == 0
        assert rows == [[1, 2], [2, 3], [4]]


class TestHeckeWordLevel:
    def test_empty_word(self):
        pair = hecke(Word((), 3))
        assert pair.p.rows == () and pair.q.rows == ()
        assert heckeshape(Word((), 3)) == YoungDiagram(())

    def test_greene_counterexample_shape(self):
        assert heckeshape(Word((2, 1, 2, 3, 2), 3)) == YoungDiagram((3, 2))

    def test_strictly_increasing_word(self):
        w = Word(tuple(range(1, 8)), 7)
        assert heckeshape(w) == YoungDiagram((7,))

    def test_first_row_and_column_match_oracles(self):
        w = Word((1, 3, 4, 2, 2), 4)
        shape = heckeshape(w)
        assert shape.parts[0] == lis(w) == 3
        assert len(shape.parts) == lds(w) == 2

    def test_word_of_p_congruent_to_w(self):
        # K-Knuth congruence (Buch-Kresch-Shimozono-Tamvakis-Yong): the row
        # reading word of P, bottom row first, has the Demazure product of w
        for q in range(1, 4):
            for n in range(0, 6):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    reading = Word(tuple(x for row in hecke(w).p.rows[::-1] for x in row), q)
                    assert hecke_product(reading) == hecke_product(w)

    @given(words(max_n=20, max_q=6))
    def test_shape_constraints(self, w):
        shape = heckeshape(w)
        q = w.alphabet_size
        assert staircase(q).contains(shape)
        assert shape.size <= min(len(w), q * (q + 1) // 2)

    @given(words(max_n=16, max_q=6))
    def test_first_row_is_end_position_letters(self, w):
        # Thomas-Yong, behind the first row having length LIS(w): its t-th
        # entry is the letter at r(w, t), the last position at which the
        # longest increasing subsequence ending there has length t
        p = hecke(w).p
        if not w.letters:
            assert p.rows == ()
            return
        at_r = {t: x for t, x in zip(_lis_lengths(w.letters), w.letters)}
        assert p.rows[0] == tuple(at_r[t] for t in range(1, lis(w) + 1))


class TestHeckeshapeEarlyExit:
    """``heckeshape`` stops inserting once the shape is staircase(q)."""

    def test_matches_full_insertion_exhaustive(self):
        for q in range(1, 5):
            for n in range(0, 8):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    assert heckeshape(w) == hecke(w).shape

    @given(words(max_n=60, max_q=4))
    def test_matches_full_insertion_random(self, w):
        assert heckeshape(w) == hecke(w).shape

    @staticmethod
    def _count_inserts(monkeypatch):
        calls = []
        real = insertion._insert

        def counted(rows, x):
            calls.append(x)
            return real(rows, x)

        monkeypatch.setattr(insertion, "_insert", counted)
        return calls

    def test_stops_at_the_staircase(self, monkeypatch):
        q = 3
        w = random_word(5000, q, trial_stream(7, 0))
        w0 = longest_element(q)
        # the first prefix whose Demazure product is w0 has shape staircase(q)
        reached = next(m for m in range(len(w) + 1)
                       if hecke_product(Word(w.letters[:m], q)) == w0)
        assert reached < 100
        calls = self._count_inserts(monkeypatch)
        assert heckeshape(w) == staircase(q)
        assert len(calls) == reached

    @pytest.mark.parametrize(
        "w",
        [
            Word((1, 2) * 2500, 3),  # never uses the letter 3
            random_word(20, 6, trial_stream(7, 0)),  # 20 letters < 21 boxes
        ],
        ids=["missing-letter", "too-short"],
    )
    def test_inserts_every_letter_short_of_the_staircase(self, w, monkeypatch):
        calls = self._count_inserts(monkeypatch)
        assert heckeshape(w) != staircase(w.alphabet_size)
        assert calls == list(w.letters)


class TestInsertionTableau:
    """``insertion_tableau`` builds P alone, through the loop of ``shape_parts``."""

    def test_matches_hecke_exhaustive(self):
        words = 0
        for w in _words_up_to(7, 4):
            p = insertion_tableau(w)
            assert p == hecke(w).p
            assert shape_parts(w.letters, w.alphabet_size) == tuple(map(len, p.rows))
            words += 1
        assert words == 25_388

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_hecke_past_the_staircase(self, q):
        # long enough words reach staircase(q), where the loop stops early
        reached = 0
        for t, rng in enumerate(trial_generators(2718 + q, 0, 400)):
            w = Word(draw_letters(rng, 1 + t % 60, q), q)
            p = insertion_tableau(w)
            assert p == hecke(w).p
            assert shape_parts(w.letters, q) == tuple(map(len, p.rows))
            reached += p.shape == staircase(q)
        assert reached >= 100

    @pytest.mark.parametrize("suite", [check_patience, check_rectification])
    def test_suites_catch_a_wrong_tableau(self, suite, monkeypatch):
        def last_box_dropped(w):
            rows = insertion_tableau(w).rows
            if rows:
                rows = rows[:-1] + ((rows[-1][:-1],) if len(rows[-1]) > 1 else ())
            return IncreasingTableau(rows)

        monkeypatch.setattr(verification, "insertion_tableau", last_box_dropped)
        report = suite(FAST)
        assert not report.passed and report.detail.startswith("failed on")


def undone_steps(letters):
    """Insert ``letters`` one at a time, checking that ``_reverse_step``
    undoes each step on a copy; yields the rows before and after each step,
    its 0-based corner and its flag.  The rows after stay increasing."""
    rows = []
    for x in letters:
        before = [row[:] for row in rows]
        r, c, flag = _insert(rows, x)
        IncreasingTableau(rows)
        back = [row[:] for row in rows]
        assert _reverse_step(back, (r, c), flag) == x and back == before
        yield before, rows, (r, c), flag


class TestReverseHecke:
    def test_single_box(self):
        rows = [[9]]
        assert _reverse_step(rows, (0, 0), 1) == 9 and rows == []

    def test_rejects_non_corner(self):
        with pytest.raises(ValueError, match="not a corner"):
            _reverse_step([[1, 2], [2]], (0, 0), 0)

    def test_inverts_every_forward_step_exhaustively(self):
        for q in range(1, 4):
            for n in range(0, 6):
                for letters in product(range(1, q + 1), repeat=n):
                    for _ in undone_steps(letters):
                        pass

    @pytest.mark.slow
    def test_inverts_every_forward_step_wide_range(self):
        for q in range(1, 5):
            for n in range(0, 7):
                for letters in product(range(1, q + 1), repeat=n):
                    for before, after, (r, c), flag in undone_steps(letters):
                        shape, grown = (IncreasingTableau(t).shape.parts for t in (before, after))
                        if flag:
                            # box (r, c) is the one box that grown has and shape lacks
                            assert shape[r:r + 1] in ((), (c,)) and grown[r] == c + 1
                            assert sum(grown) == sum(shape) + 1
                        else:
                            assert grown == shape

    @given(words(max_n=14, max_q=6))
    def test_inverts_forward_steps_random(self, w):
        for _ in undone_steps(w.letters):
            pass


class TestHeckeInverse:
    def test_singleton_pair(self):
        pair = HeckePair(
            IncreasingTableau(((4,),)),
            SetValuedStandardTableau(((frozenset({1}),),), 1),
        )
        assert hecke_inverse(pair).letters == (4,)

    @given(words(max_n=12, max_q=5))
    def test_roundtrip(self, w):
        assert hecke_inverse(hecke(w), alphabet_size=w.alphabet_size) == w

    def test_injective_and_counts_match(self):
        # distinct words hit distinct pairs, and the image fills the whole
        # target set: its size equals q^n
        for q in range(1, 4):
            for n in range(0, 6):
                image = set()
                for letters in product(range(1, q + 1), repeat=n):
                    pair = hecke(Word(letters, q))
                    image.add((pair.p.rows, pair.q.rows))
                assert len(image) == q**n

    def test_invalid_pairs_rejected_at_construction(self):
        # the bijection makes every valid same-shape pair recoverable, so the
        # error surface is the validators: mismatched shapes, non-increasing
        # P, or a Q that is not standard set-valued
        with pytest.raises(ValueError, match=r"P shape \(2,\) differs from Q shape \(1, 1\)"):
            HeckePair(
                IncreasingTableau(((1, 2),)),
                SetValuedStandardTableau(((frozenset({1}),), (frozenset({2}),)), 2),
            )
        with pytest.raises(ValueError):
            IncreasingTableau(((1, 1),))
        with pytest.raises(ValueError):
            SetValuedStandardTableau(((frozenset({1}), frozenset({1, 2})),), 2)


class TestMirrorSymmetry:
    def test_first_row_column_swap_exhaustive(self):
        # the paper's symmetry theorem: reversing w swaps the first row and
        # the first column of the insertion shape, as LIS and LDS swap
        for q in range(1, 4):
            for n in range(1, 6):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    lam = heckeshape(w)
                    mu = heckeshape(Word(letters[::-1], q))
                    assert lam.parts[0] == conjugate(mu).parts[0]
                    assert mu.parts[0] == conjugate(lam).parts[0]

    def test_insertion_tableaux_not_transposes(self):
        w = Word((1, 3, 4, 2, 2), 4)
        p_fwd = hecke(w).p
        p_rev = hecke(Word(w.letters[::-1], 4)).p
        transposed = tuple(
            tuple(row[c] for row in p_fwd.rows if len(row) > c)
            for c in range(p_fwd.shape.parts[0])
        )
        assert p_rev.rows != transposed
        assert p_rev.shape != conjugate(p_fwd.shape)

    def test_greene_negative_control(self):
        # a strict-subsequence reading of the remaining rows would predict
        # (3, 1, 1) here; the algorithm must give (3, 2)
        shape = heckeshape(Word((2, 1, 2, 3, 2), 3))
        assert shape == YoungDiagram((3, 2))
        assert shape != YoungDiagram((3, 1, 1))


class TestRskBaselines:
    def test_distinct_deck_first_row(self):
        w = Word((8, 2, 6, 3, 4, 1, 7, 10, 9), 10)
        assert rsk_shape(w).parts[0] == 5

    def test_weakly_increasing_word(self):
        assert rsk_shape(Word((1, 1, 1), 2)) == YoungDiagram((3,))

    def test_first_column_is_lds(self):
        w = Word((2, 1, 2, 3, 2), 3)
        assert len(rsk_shape(w).parts) == lds(w) == 2

    @given(words(max_n=7, max_q=4))
    def test_first_row_is_weak_lis(self, w):
        from oracles import brute_lwis

        shape = rsk_shape(w)
        first = shape.parts[0] if shape.parts else 0
        assert first == brute_lwis(w.letters)
        assert len(shape.parts) == lds(w)

    def test_schensted_agreement_on_permutations(self):
        for m in range(1, 6):
            for line in permutations(range(1, m + 1)):
                w = Word(line, m)
                pair = hecke(w)
                assert pair.shape == rsk_shape(w)
                assert all(len(s) == 1 for row in pair.q.rows for s in row)


@pytest.mark.slow
class TestRandomizedMediumScale:
    def test_first_row_column_medium(self):
        for t in range(2000):
            n = 1 + t % 60
            q = 1 + t % 10
            w = random_word(n, q, trial_stream(424242, t))
            shape = heckeshape(w)
            first = shape.parts[0] if shape.parts else 0
            assert first == lis(w)
            assert len(shape.parts) == lds(w)

    def test_mirror_symmetry_medium(self):
        for t in range(500):
            n = 1 + t % 50
            q = 2 + t % 8
            w = random_word(n, q, trial_stream(515151, t))
            lam = heckeshape(w)
            mu = heckeshape(Word(w.letters[::-1], q))
            assert lam.parts[0] == conjugate(mu).parts[0]
            assert mu.parts[0] == conjugate(lam).parts[0]
