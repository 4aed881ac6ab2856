from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings

from heckelis.insertion import rsk_shape
from heckelis.kjdt import MixedTableau
from heckelis.tableaux import (
    EMPTY_DIAGRAM,
    IncreasingTableau,
    SetValuedStandardTableau,
    YoungDiagram,
    add_corner,
    addable_corners,
    antidiagonal_cells,
    conjugate,
    count_increasing,
    count_semistandard,
    count_set_valued_standard,
    count_standard,
    diagram_to_json,
    hooks,
    increasing_counts,
    partitions_in_staircase,
    set_valued_counts,
    staircase,
    superstandard,
)
from heckelis.words import Permutation, Word, hecke_product, longest_element

from conftest import partitions
from oracles import (
    all_partitions,
    brute_count_increasing,
    brute_count_semistandard,
    brute_count_set_valued,
    brute_count_standard,
)


class TestDiagramBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))

    def test_conjugate(self):
        assert conjugate(YoungDiagram((3, 2))) == YoungDiagram((2, 2, 1))
        assert conjugate(EMPTY_DIAGRAM) == EMPTY_DIAGRAM

    @given(partitions())
    def test_conjugate_involution(self, shape):
        assert conjugate(conjugate(shape)) == shape

    def test_staircase(self):
        assert staircase(4) == YoungDiagram((4, 3, 2, 1))
        assert staircase(0) == EMPTY_DIAGRAM

    def test_partitions_in_staircase_lex_order(self):
        shapes = partitions_in_staircase(3, 4)
        assert [s.parts for s in shapes] == sorted(s.parts for s in shapes)
        assert YoungDiagram((2, 2)) in shapes
        assert all(staircase(3).contains(s) for s in shapes)

    def test_partitions_in_staircase_against_enumeration(self):
        for q in range(0, 6):
            for m in range(0, 9):
                want = [p for p in all_partitions(m) if staircase(q).contains(YoungDiagram(p))]
                assert [s.parts for s in partitions_in_staircase(q, m)] == want

    def test_addable_corners_against_definition(self):
        # a box is addable when the rows with it added still weakly decrease
        for parts in all_partitions(7):
            shape = YoungDiagram(parts)
            want = {}
            for r in range(len(parts) + 1):
                grown = list(parts) + [0]
                grown[r] += 1
                if all(a >= b for a, b in zip(grown, grown[1:])):
                    want[r + 1, grown[r]] = YoungDiagram(tuple(x for x in grown if x))
            assert addable_corners(shape) == list(want)
            for box, grown_shape in want.items():
                assert add_corner(shape, box) == grown_shape
            with pytest.raises(ValueError):
                add_corner(shape, (len(parts) + 2, 1))


class TestTableauValidators:
    def test_increasing_rejects_weak_row(self):
        with pytest.raises(ValueError):
            IncreasingTableau(((1, 1),))

    def test_increasing_rejects_weak_column(self):
        with pytest.raises(ValueError):
            IncreasingTableau(((1, 2), (1,)))

    def test_set_valued_rejects_overlap(self):
        with pytest.raises(ValueError):
            SetValuedStandardTableau(((frozenset({1, 2}), frozenset({2})),), 3)

    def test_set_valued_rejects_order_violation(self):
        with pytest.raises(ValueError):
            SetValuedStandardTableau(((frozenset({2}), frozenset({1})),), 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: Word((1, x), 3),
            lambda x: Permutation((1, x)),
            lambda x: YoungDiagram((x, 1)),
            lambda x: IncreasingTableau(((1, x),)),
            lambda x: MixedTableau({(1, 1): x}),
        ],
        ids=["Word", "Permutation", "YoungDiagram", "IncreasingTableau", "MixedTableau"],
    )
    def test_entries_must_be_integers(self, build):
        build(np.int64(2))
        with pytest.raises(TypeError):
            build(2.5)


class TestCountIncreasing:
    def test_paper_constants(self):
        assert count_increasing(YoungDiagram((2, 1)), 3) == 5
        assert count_increasing(YoungDiagram((4, 2, 1)), 7) == 1337

    def test_single_box(self):
        for q in range(1, 6):
            assert count_increasing(YoungDiagram((1,)), q) == q

    def test_empty_shape(self):
        assert count_increasing(EMPTY_DIAGRAM, 3) == 1

    def test_staircase_has_unique_filling(self):
        for q in range(1, 5):
            assert count_increasing(staircase(q), q) == 1

    def test_positive_iff_inside_staircase(self):
        for q in range(1, 5):
            for parts in all_partitions(8):
                shape = YoungDiagram(parts)
                positive = count_increasing(shape, q) > 0
                assert positive == staircase(q).contains(shape)

    def test_conjugation_symmetry(self):
        for q in range(1, 5):
            for parts in all_partitions(7):
                shape = YoungDiagram(parts)
                assert count_increasing(shape, q) == count_increasing(conjugate(shape), q)

    def test_against_enumeration(self):
        for q in range(1, 5):
            for parts in all_partitions(6):
                assert count_increasing(YoungDiagram(parts), q) == brute_count_increasing(parts, q)

    def test_long_row_and_column(self):
        # one step per value, no recursion: a row-by-row recursion overflowed
        # the stack on 1000 rows or 1000 columns
        assert count_increasing(YoungDiagram((1000,)), 1000) == 1
        assert count_increasing(YoungDiagram((1,) * 1000), 1000) == 1

    def test_table_over_a_tall_bound(self):
        # the table is built over the conjugate bound (1000,), whose keys
        # are one part long, and its keys are conjugated back
        import time

        start = time.perf_counter()
        counts = increasing_counts(YoungDiagram((1,) * 1000), 1000)
        assert counts[(1,) * 1000] == 1
        assert time.perf_counter() - start < 20

    def test_single_row_is_a_binomial(self):
        assert count_increasing(YoungDiagram((6,)), 60) == comb(60, 6) == 50063860

    def test_table_over_a_bound_against_enumeration(self):
        # one pass gives every subshape of the bound; zero counts are left out
        for q in range(1, 5):
            table = increasing_counts(staircase(4), q)
            for shape in partitions_in_staircase(4, 10):
                count = brute_count_increasing(shape.parts, q)
                assert table.get(shape.parts, 0) == count
                assert (shape.parts in table) == (count > 0)

    def test_table_over_a_tall_bound_against_enumeration(self):
        # more rows than columns: built over the conjugate bound
        for q in range(1, 5):
            table = increasing_counts(YoungDiagram((2, 1, 1, 1)), q)
            for parts in all_partitions(5):
                if YoungDiagram((2, 1, 1, 1)).contains(YoungDiagram(parts)):
                    count = brute_count_increasing(parts, q)
                    assert table.get(parts, 0) == count
                    assert (parts in table) == (count > 0)


class TestCountSetValued:
    def test_paper_constants(self):
        assert count_set_valued_standard(YoungDiagram((2, 1)), 4) == 8
        assert count_set_valued_standard(YoungDiagram((4, 2, 1)), 8) == 452

    def test_single_box(self):
        for n in range(1, 6):
            assert count_set_valued_standard(YoungDiagram((1,)), n) == 1

    def test_many_labels(self):
        # one step per label, no recursion: n = 600 is past the default
        # recursion limit of a label-by-label recursion
        n = 600
        assert count_set_valued_standard(YoungDiagram((1,)), n) == 1
        assert count_set_valued_standard(YoungDiagram((2,)), n) == n - 1
        assert count_set_valued_standard(YoungDiagram((1, 1)), n) == n - 1

    def test_zero_cases(self):
        assert count_set_valued_standard(YoungDiagram((2,)), 1) == 0
        assert count_set_valued_standard(EMPTY_DIAGRAM, 1) == 0
        assert count_set_valued_standard(EMPTY_DIAGRAM, 0) == 1

    def test_recursion_against_enumeration(self):
        for parts in all_partitions(5):
            for n in range(0, 8):
                assert count_set_valued_standard(YoungDiagram(parts), n) == brute_count_set_valued(parts, n)

    def test_table_over_a_bound_against_enumeration(self):
        # one pass gives every subshape of the bound; zero counts are left out
        for n in range(0, 7):
            table = set_valued_counts(staircase(3), n)
            for shape in partitions_in_staircase(3, 6):
                count = brute_count_set_valued(shape.parts, n)
                assert table.get(shape.parts, 0) == count
                assert (shape.parts in table) == (count > 0)

    def test_table_over_a_tall_bound_against_enumeration(self):
        # more rows than columns: built over the conjugate bound
        for n in range(0, 7):
            table = set_valued_counts(YoungDiagram((2, 1, 1, 1)), n)
            for parts in all_partitions(5):
                if YoungDiagram((2, 1, 1, 1)).contains(YoungDiagram(parts)):
                    count = brute_count_set_valued(parts, n)
                    assert table.get(parts, 0) == count
                    assert (parts in table) == (count > 0)

    def test_exact_label_count_is_standard_count(self):
        for parts in all_partitions(8):
            if not parts:
                continue
            shape = YoungDiagram(parts)
            assert count_set_valued_standard(shape, shape.size) == count_standard(shape)


class TestHookFormulas:
    def test_single_row(self):
        for n in range(1, 8):
            assert count_standard(YoungDiagram((n,))) == 1

    def test_two_one(self):
        assert count_standard(YoungDiagram((2, 1))) == 2

    def test_against_enumeration(self):
        for parts in all_partitions(8):
            if parts:
                assert count_standard(YoungDiagram(parts)) == brute_count_standard(parts)

    def test_squares_sum_to_factorial(self):
        for n in range(1, 9):
            total = sum(
                count_standard(YoungDiagram(parts)) ** 2
                for parts in all_partitions(n)
                if sum(parts) == n
            )
            assert total == factorial(n)

    def test_squares_via_schensted_tally(self):
        # the bijection oracle: tally Schensted shapes over a whole symmetric group
        for n in range(1, 7):
            tally = {}
            for line in permutations(range(1, n + 1)):
                s = rsk_shape(Word(line, n))
                tally[s] = tally.get(s, 0) + 1
            for shape, count in tally.items():
                assert count == count_standard(shape) ** 2

    def test_hooks_example(self):
        assert hooks(YoungDiagram((2, 1))) == {(1, 1): 3, (1, 2): 1, (2, 1): 1}


class TestHookContent:
    def test_two_one_with_two_letters(self):
        assert count_semistandard(YoungDiagram((2, 1)), 2) == 2

    def test_single_box(self):
        for q in range(1, 6):
            assert count_semistandard(YoungDiagram((1,)), q) == q

    def test_two_two_with_three_letters(self):
        assert count_semistandard(YoungDiagram((2, 2)), 3) == 6

    def test_tall_shapes_vanish(self):
        assert count_semistandard(YoungDiagram((1, 1, 1)), 2) == 0

    def test_against_enumeration(self):
        for q in range(1, 5):
            for parts in all_partitions(6):
                assert count_semistandard(YoungDiagram(parts), q) == brute_count_semistandard(parts, q)


class TestReadingWord:
    def test_staircase_filling_gives_longest_element(self):
        # the unique increasing filling of the staircase reads (rows left to
        # right, bottom row first) to a word whose Demazure product is the
        # order-reversing permutation
        q = 3
        t = IncreasingTableau(tuple(tuple(range(i, q + 1)) for i in range(1, q + 1)))
        w = Word(tuple(x for row in t.rows[::-1] for x in row), q)
        assert w.letters == (3, 2, 3, 1, 2, 3)
        assert hecke_product(w) == longest_element(q)


class TestDistinguishedFillings:
    def test_superstandard_of_small_staircase(self):
        t = superstandard(staircase(2))
        assert t.rows == ((1, 2), (3,))

    def test_superstandard_rows_consecutive(self):
        t = superstandard(YoungDiagram((4, 2, 1)))
        assert t.rows == ((1, 2, 3, 4), (5, 6), (7,))

    def test_antidiagonal_cells(self):
        w = Word((2, 3, 1), 3)
        assert antidiagonal_cells(w) == {(3, 1): 2, (2, 2): 3, (1, 3): 1}


class TestSerialization:
    def test_diagram(self):
        assert diagram_to_json(YoungDiagram((3, 1))) == [3, 1]
