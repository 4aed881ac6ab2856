"""Exhaustive and exact verification suites.

Each suite checks one of the package's structural identities over a finite
range and returns a report record.  The ``fast`` level is sized to finish
within a minute; ``full`` runs the complete exhaustive ranges used by the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations, product

from .insertion import hecke, hecke_inverse, heckeshape, insertion_tableau, schensted_shape
from .kjdt import k_rectify
from .measures import (
    exact_plancherel_hecke,
    markov_transition,
    plancherel_hecke_weights,
    plancherel_rsk_prob,
)
from .patience import play_greedy
from .tableaux import YoungDiagram, add_corner, addable_corners, partitions_in_staircase
from .words import Permutation, Word, lds, lis, random_word
from .rng import trial_generators

FAST = "fast"
FULL = "full"


@dataclass(frozen=True)
class SuiteReport:
    name: str
    passed: bool
    detail: str


def _all_words(n: int, q: int):
    for letters in product(range(1, q + 1), repeat=n):
        yield Word(letters, q)


def _words_up_to(max_n: int, max_q: int):
    """Every word of length ``0..max_n`` over ``{1..q}``, for ``q = 1..max_q``."""
    for q in range(1, max_q + 1):
        for n in range(0, max_n + 1):
            yield from _all_words(n, q)


def check_normalizer_identity(level: str = FAST) -> SuiteReport:
    """Sum of increasing-count times set-valued-count equals q^n, exactly."""
    max_n, max_q = (7, 4) if level == FULL else (6, 3)
    checked = 0
    val_4_3 = None
    for q in range(1, max_q + 1):
        for n in range(0, max_n + 1):
            total = sum(weight for _, weight in plancherel_hecke_weights(n, q))
            if total != q**n:
                return SuiteReport(
                    "normalizer-identity", False, f"failed at n={n}, q={q}: {total} != {q**n}"
                )
            if (n, q) == (4, 3):
                val_4_3 = total
            checked += 1
    detail = f"{checked} (n, q) cells"
    if val_4_3 is not None:
        detail += f"; (n,q)=(4,3) gives {val_4_3}"
    return SuiteReport("normalizer-identity", True, detail)


def check_first_row_column(level: str = FAST) -> SuiteReport:
    """First row of the insertion shape is LIS, first column is LDS."""
    max_n, max_q = (6, 4) if level == FULL else (5, 3)
    rand_trials, max_len = (10_000, 60) if level == FULL else (300, 25)
    random_words = (
        random_word(1 + t % max_len, 1 + t % 10, rng)
        for t, rng in enumerate(trial_generators(987_654_321, 0, rand_trials))
    )
    words = 0
    for w in chain(_words_up_to(max_n, max_q), random_words):
        shape = heckeshape(w)
        first_row = shape.parts[0] if shape.parts else 0
        if first_row != lis(w) or len(shape.parts) != lds(w):
            return SuiteReport("lis-lds-encoding", False, f"failed on {w}")
        words += 1
    return SuiteReport(
        "lis-lds-encoding", True, f"{words - rand_trials} exhaustive words, {rand_trials} random"
    )


def check_roundtrip(level: str = FAST) -> SuiteReport:
    """Insertion followed by reverse insertion is the identity on words."""
    max_n, max_q = (7, 4) if level == FULL else (5, 3)
    words = 0
    for w in _words_up_to(max_n, max_q):
        if hecke_inverse(hecke(w), alphabet_size=w.alphabet_size) != w:
            return SuiteReport("insertion-roundtrip", False, f"failed on {w}")
        words += 1
    return SuiteReport("insertion-roundtrip", True, f"{words} words")


def check_pushforward(level: str = FAST) -> SuiteReport:
    """Tallying insertion shapes over all words reproduces the exact
    distribution."""
    max_n, max_q = (6, 3) if level == FULL else (5, 3)
    cells = 0
    for q in range(1, max_q + 1):
        for n in range(0, max_n + 1):
            tally: dict[YoungDiagram, int] = {}
            for w in _all_words(n, q):
                s = heckeshape(w)
                tally[s] = tally.get(s, 0) + 1
            dist = exact_plancherel_hecke(n, q)
            for shape, prob in dist.entries:
                if tally.get(shape, 0) != prob * q**n:
                    return SuiteReport(
                        "measure-pushforward", False, f"mismatch at n={n}, q={q}, {shape.parts}"
                    )
            if sum(tally.values()) != q**n:
                return SuiteReport("measure-pushforward", False, f"tally incomplete n={n} q={q}")
            cells += 1
    return SuiteReport("measure-pushforward", True, f"{cells} (n, q) cells")


def check_rectification(level: str = FAST) -> SuiteReport:
    """K-rectification of the antidiagonal word tableau equals the insertion
    tableau."""
    max_n, max_q = (6, 4) if level == FULL else (4, 3)
    words = 0
    for w in _words_up_to(max_n, max_q):
        if k_rectify(w) != insertion_tableau(w):
            return SuiteReport("k-rectification", False, f"failed on {w}")
        words += 1
    return SuiteReport("k-rectification", True, f"{words} words")


def check_patience(level: str = FAST) -> SuiteReport:
    """Greedy ties-allowed patience: tops equal the first insertion row and
    the pile count equals LIS."""
    max_n, max_q = (7, 4) if level == FULL else (5, 3)
    words = 0
    for w in _words_up_to(max_n, max_q):
        piles = play_greedy(w).piles
        p = insertion_tableau(w)
        first_row = p.rows[0] if p.rows else ()
        if tuple(pile[-1] for pile in piles) != first_row or len(piles) != lis(w):
            return SuiteReport("patience-piles", False, f"failed on {w}")
        words += 1
    return SuiteReport("patience-piles", True, f"{words} words")


def check_growth_process(level: str = FAST) -> SuiteReport:
    """Transition probabilities sum to one and push the measure forward."""
    max_size, max_q = (8, 5) if level == FULL else (6, 4)
    checked = 0
    for q in range(1, max_q + 1):
        for shape in partitions_in_staircase(max_size, max_size):
            if len(shape.parts) > q:
                continue
            total = sum(
                (markov_transition(shape, add_corner(shape, box), q)
                 for box in addable_corners(shape)),
                start=Fraction(0),
            )
            if total != 1:
                return SuiteReport(
                    "growth-process", False, f"transitions from {shape.parts} sum to {total}"
                )
            checked += 1
    # pushforward: one growth step maps the n-box measure to the (n+1)-box one
    max_n_push, max_q_push = (7, 4) if level == FULL else (5, 3)
    for q in range(1, max_q_push + 1):
        for n in range(0, max_n_push):
            shapes_n = [s for s in partitions_in_staircase(n, n) if s.size == n and len(s.parts) <= q]
            for target in partitions_in_staircase(n + 1, n + 1):
                if target.size != n + 1 or len(target.parts) > q:
                    continue
                pushed = sum(
                    (
                        markov_transition(s, target, q) * plancherel_rsk_prob(s, n, q)
                        for s in shapes_n
                        if target.contains(s)
                    ),
                    start=Fraction(0),
                )
                if pushed != plancherel_rsk_prob(target, n + 1, q):
                    return SuiteReport(
                        "growth-process", False, f"pushforward fails at {target.parts}, q={q}"
                    )
    return SuiteReport("growth-process", True, f"{checked} transition rows")


def check_schensted_agreement(level: str = FAST) -> SuiteReport:
    """On permutations the insertion shape matches classical Schensted and
    the recording tableau is all singletons."""
    max_m = 6 if level == FULL else 5
    count = 0
    for m in range(1, max_m + 1):
        for line in permutations(range(1, m + 1)):
            w = Word(line, m)
            pair = hecke(w)
            if pair.shape != schensted_shape(Permutation(line)):
                return SuiteReport("schensted-agreement", False, f"shape differs on {line}")
            if any(len(s) != 1 for row in pair.q.rows for s in row):
                return SuiteReport("schensted-agreement", False, f"Q not standard on {line}")
            count += 1
    return SuiteReport("schensted-agreement", True, f"{count} permutations")


ALL_SUITES = (
    check_normalizer_identity,
    check_first_row_column,
    check_roundtrip,
    check_pushforward,
    check_rectification,
    check_patience,
    check_growth_process,
    check_schensted_agreement,
)


def run_suites(level: str = FAST):
    """Run every suite at the given level, yielding reports as they finish."""
    if level not in (FAST, FULL):
        raise ValueError(f"level must be {FAST!r} or {FULL!r}")
    for suite in ALL_SUITES:
        yield suite(level)
