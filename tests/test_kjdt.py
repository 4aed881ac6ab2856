from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from heckelis.insertion import hecke
from heckelis.kjdt import (
    MixedTableau,
    is_viable,
    k_infusion,
    k_rectify,
    random_viable_sequence,
    standard_sequence,
    switch,
)
from heckelis.tableaux import IncreasingTableau, antidiagonal_cells, staircase, superstandard
from heckelis.words import Word

from conftest import words
from oracles import brute_switch, scan_viable_sequence


def dump(t: MixedTableau) -> str:
    """Row-per-line debug format; inner labels carry a ``_`` prefix."""
    if not t.cells:
        return ""
    rows = max(r for r, _ in t.cells)
    lines = []
    for r in range(1, rows + 1):
        cols = [c for (rr, c) in t.cells if rr == r]
        if not cols:
            lines.append(".")
            continue
        entries = []
        for c in range(1, max(cols) + 1):
            v = t.cells.get((r, c))
            if v is None:
                entries.append(".")
            elif v < 0:
                entries.append(f"_{-v}")
            else:
                entries.append(str(v))
        lines.append(" ".join(entries))
    return "\n".join(lines)


def parse_mixed(text: str) -> MixedTableau:
    """Inverse of :func:`dump`; ``.`` marks an absent box."""
    cells = {}
    for r, line in enumerate(text.strip().splitlines(), start=1):
        for c, token in enumerate(line.split(), start=1):
            if token == ".":
                continue
            cells[(r, c)] = -int(token[1:]) if token.startswith("_") else int(token)
    return MixedTableau(cells)


def mixed_from_regions(inner, plain) -> MixedTableau:
    cells = {box: -v for box, v in inner.items()}
    for box, v in plain.items():
        if box in cells:
            raise ValueError(f"box {box} used by both regions")
        cells[box] = v
    return MixedTableau(cells)


def check_commutation(i: int, r: int, j: int, s: int, t: MixedTableau | None) -> bool:
    """Whether switch(i, r) and switch(j, s) commute on ``t``; they must
    whenever ``i != j`` and ``r != s``."""
    if i == j or r == s:
        raise ValueError("commutation requires i != j and r != s")
    one = switch(j, s, switch(i, r, t))
    two = switch(i, r, switch(j, s, t))
    if one is None or two is None:
        return one is None and two is None
    return one.cells == two.cells


EXAMPLE_T = parse_mixed("_2 _1 _3 1\n_1 3 1\n2")


class TestSwitch:
    def test_worked_first_switch(self):
        out = switch(1, 2, EXAMPLE_T)
        assert dump(out) == "_2 _1 _3 1\n2 3 1\n_1"

    def test_worked_second_switch(self):
        out = switch(3, 1, EXAMPLE_T)
        assert dump(out) == "_2 _1 1 _3\n_1 3 _3\n2"

    def test_worked_null_result(self):
        t = parse_mixed("1 _2\n_1\n_2")
        assert switch(2, 1, t) is None

    def test_null_maps_to_null(self):
        assert switch(1, 1, None) is None

    def test_singleton_components_untouched(self):
        t = parse_mixed("_1 . .\n. . .\n. . 2")
        # the two boxes are far apart, so nothing moves
        assert switch(1, 2, t).cells == t.cells

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            switch(0, 1, EXAMPLE_T)

    def test_validation_catches_repeats(self):
        with pytest.raises(ValueError):
            MixedTableau({(1, 1): 2, (1, 2): 2})
        # same value from different alphabets may share a row
        MixedTableau({(1, 1): 2, (1, 2): -2})


@st.composite
def mixed_tableaux(draw):
    nrows = draw(st.integers(1, 3))
    widths = sorted(
        [draw(st.integers(1, 4)) for _ in range(nrows)], reverse=True
    )
    cells = {}
    for r, width in enumerate(widths, start=1):
        for c in range(1, width + 1):
            kind = draw(st.sampled_from(["skip", "inner", "plain"]))
            if kind == "skip":
                continue
            v = draw(st.integers(1, 4))
            cells[(r, c)] = -v if kind == "inner" else v
    try:
        return MixedTableau(cells)
    except ValueError:
        return None


class TestSwitchProperties:
    @given(mixed_tableaux(), st.integers(1, 4), st.integers(1, 4))
    def test_involution_where_defined(self, t, i, j):
        # Thomas-Yong '07: a switch is an involution wherever it is not null
        if t is None:
            return
        once = switch(i, j, t)
        if once is None:
            return
        twice = switch(i, j, once)
        assert twice is not None and twice.cells == t.cells

    @given(mixed_tableaux(), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4), st.integers(1, 4))
    def test_commutation(self, t, i, r, j, s):
        # Thomas-Yong '07: switches on disjoint pairs of labels commute
        if t is None or i == j or r == s:
            return
        assert check_commutation(i, r, j, s, t)

    @given(mixed_tableaux(), st.data())
    @settings(max_examples=300)
    def test_matches_full_scan_oracle(self, t, data):
        if t is None:
            return
        # labels present in t, so that most switches move boxes
        labels = lambda sign: sorted({sign * v for v in t.cells.values() if sign * v > 0}) or [1]
        i = data.draw(st.sampled_from(labels(-1)))
        j = data.draw(st.sampled_from(labels(1)))
        out = switch(i, j, t)
        assert (None if out is None else out.cells) == brute_switch(t.cells, i, j)

    def test_matches_full_scan_oracle_exhaustive(self):
        """Every filling of shape (3, 2, 1) by inner and plain 1, 2 or
        nothing that is a mixed tableau, under all four switches."""
        boxes = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
        nulls = 0
        for values in product((0, -1, -2, 1, 2), repeat=len(boxes)):
            cells = {box: v for box, v in zip(boxes, values) if v}
            try:
                t = MixedTableau(cells)
            except ValueError:
                continue
            for i, j in product((1, 2), repeat=2):
                out = switch(i, j, t)
                assert (None if out is None else out.cells) == brute_switch(cells, i, j)
                nulls += out is None
        assert nulls == 480

    def test_commutation_on_worked_example(self):
        assert check_commutation(1, 2, 3, 1, EXAMPLE_T)

    def test_commutation_null_tableau(self):
        assert check_commutation(1, 2, 2, 1, None)

    def test_commutation_rejects_shared_labels(self):
        with pytest.raises(ValueError):
            check_commutation(1, 2, 1, 3, EXAMPLE_T)


class TestSequences:
    def test_standard_smallest(self):
        assert standard_sequence(1, 1) == ((1, 1),)

    def test_standard_two_by_two(self):
        assert standard_sequence(2, 2) == ((2, 1), (2, 2), (1, 1), (1, 2))

    def test_standard_length(self):
        assert len(standard_sequence(3, 6)) == 18

    def test_standard_is_viable(self):
        assert is_viable(standard_sequence(3, 6), 3, 6)

    def test_swap_breaks_viability(self):
        seq = list(standard_sequence(2, 3))
        a, b = seq.index((2, 2)), seq.index((2, 3))
        seq[a], seq[b] = seq[b], seq[a]
        assert not is_viable(seq, 2, 3)

    def test_missing_pair_not_viable(self):
        assert not is_viable(((1, 1),), 1, 2)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
    def test_random_sequences_viable(self, p, q, seed):
        assert is_viable(random_viable_sequence(p, q, seed), p, q)

    def test_random_sequences_match_full_scan(self):
        # the sorted ready list draws the same pair as a rescan of every label
        for p in range(0, 16):
            for q in range(0, 6):
                for seed in range(40):
                    assert random_viable_sequence(p, q, seed) == scan_viable_sequence(p, q, seed)


WORKED_INNER = IncreasingTableau(((1, 2, 3),))
WORKED_OUTER = {(1, 4): 3, (2, 1): 1, (2, 2): 3, (2, 3): 5, (3, 1): 2, (3, 2): 4, (3, 3): 6}


class TestKInfusion:
    def test_worked_example_final(self):
        plain, inner = k_infusion(WORKED_INNER, WORKED_OUTER)
        assert plain.rows == ((1, 3, 5), (2, 4, 6), (6,))
        assert inner == {(1, 4): 3, (3, 2): 1, (3, 3): 2}

    def test_single_switch(self):
        plain, inner = k_infusion(IncreasingTableau(((1,),)), {(1, 2): 7})
        assert plain.rows == ((7,),)
        assert inner == {(1, 2): 1}

    def test_normal_form_intermediates(self):
        # a viable sequence tracking the insertion proof passes through the
        # two displayed normal forms before the final state
        seq = [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
               (2, 1), (2, 2), (2, 3), (1, 1),
               (2, 4), (2, 5), (1, 2), (2, 6),
               (1, 3), (1, 4), (1, 5), (1, 6)]
        assert is_viable(seq, 3, 6)
        t = mixed_from_regions(
            {(1, 1): 1, (1, 2): 2, (1, 3): 3}, WORKED_OUTER
        )
        states = []
        for i, j in seq:
            t = switch(i, j, t)
            states.append(dump(t))
        assert states[9] == "1 3 _2 _3\n_1 _2 5\n2 4 6"     # row 2 normal form
        assert states[12] == "1 3 5 _3\n2 4 _2\n_1 _2 6"    # row 3 normal form
        assert states[17] == "1 3 5 _3\n2 4 6\n6 _1 _2"
        plain, _ = k_infusion(WORKED_INNER, WORKED_OUTER, sequence=tuple(seq))
        assert plain.rows == ((1, 3, 5), (2, 4, 6), (6,))

    def test_viable_sequences_match_standard(self):
        for seed in range(25):
            seq = random_viable_sequence(3, 6, seed)
            plain, inner = k_infusion(WORKED_INNER, WORKED_OUTER, sequence=seq)
            assert plain.rows == ((1, 3, 5), (2, 4, 6), (6,))
            assert inner == {(1, 4): 3, (3, 2): 1, (3, 3): 2}

    def test_rejects_non_viable_sequence(self):
        seq = standard_sequence(3, 6)[::-1]
        with pytest.raises(ValueError):
            k_infusion(WORKED_INNER, WORKED_OUTER, sequence=seq)

    def test_rejects_overlapping_regions(self):
        for plain in ({(1, 1): 5}, {(1, 3): 1}, {(1, 2): 1, (1, 3): 2}):
            with pytest.raises(ValueError, match="overlap"):
                k_infusion(WORKED_INNER, plain)


def oracle_infusion(inner, plain, sequence):
    """Infusion by the full-scan switch of ``tests/oracles.py``."""
    cells = {box: -v for box, v in inner.items()}
    cells.update(plain)
    for i, j in sequence:
        cells = brute_switch(cells, i, j)
        assert cells is not None
    return cells


def test_infusion_matches_oracle_exhaustive():
    """Every word with n <= 5 and q <= 3: the indexed infusion under a random
    viable sequence ends where the full-scan switch ends."""
    checked = 0
    for q in range(1, 4):
        for n in range(0, 6):
            inner = superstandard(staircase(max(n - 1, 0)))
            inner_cells = {box: inner.rows[box[0] - 1][box[1] - 1] for box in inner.shape.boxes()}
            for letters in product(range(1, q + 1), repeat=n):
                w = Word(letters, q)
                seq = random_viable_sequence(inner.shape.size, q, checked)
                plain, inner_out = k_infusion(inner, antidiagonal_cells(w), seq, plain_alphabet=q)
                cells = oracle_infusion(inner_cells, antidiagonal_cells(w), seq)
                assert inner_out == {box: -v for box, v in cells.items() if v < 0}
                assert {
                    (r, c): v for r, row in enumerate(plain.rows, 1) for c, v in enumerate(row, 1)
                } == {box: v for box, v in cells.items() if v > 0}
                checked += 1
    assert checked == 6 + 63 + 364


class TestKRectify:
    def test_single_letter(self):
        assert k_rectify(Word((3,), 4)).rows == ((3,),)

    def test_empty_word(self):
        assert k_rectify(Word((), 3)).rows == ()

    def test_worked_thirteen_letter_word(self):
        w = Word((5, 4, 1, 3, 4, 2, 5, 1, 2, 1, 4, 2, 4), 5)
        assert k_rectify(w) == hecke(w).p

    def test_matches_insertion_exhaustive_small(self):
        for q in range(1, 4):
            for n in range(0, 5):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    assert k_rectify(w) == hecke(w).p

    @given(words(max_n=7, max_q=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_insertion_random(self, w):
        assert k_rectify(w) == hecke(w).p

    @given(words(max_n=5, max_q=4, min_n=1), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_viable_sequence_rectification(self, w, seed):
        n = len(w.letters)
        p = staircase(n - 1).size
        seq = random_viable_sequence(p, w.alphabet_size, seed) if p else ()
        assert k_rectify(w, sequence=seq) == hecke(w).p

    def test_first_row_column_via_rectification(self):
        from heckelis.words import lds, lis

        for q in range(1, 4):
            for n in range(1, 5):
                for letters in product(range(1, q + 1), repeat=n):
                    w = Word(letters, q)
                    shape = k_rectify(w).shape
                    assert shape.parts[0] == lis(w)
                    assert len(shape.parts) == lds(w)


class TestDumpFormat:
    def test_roundtrip(self):
        assert parse_mixed(dump(EXAMPLE_T)).cells == EXAMPLE_T.cells

    def test_skew_gap_rendering(self):
        t = MixedTableau({(1, 2): -3, (2, 1): 4})
        assert dump(t) == ". _3\n4"
