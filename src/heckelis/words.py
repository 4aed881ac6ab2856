"""Words over a bounded alphabet, LIS/LDS oracles, and the 0-Hecke monoid.

A word is a finite sequence over ``{1, ..., q}``.  The Demazure (0-Hecke)
product sends a word to a permutation of ``{1, ..., q+1}``; words are
congruent exactly when they share that permutation.

``Word`` checks its letters, and the public functions that take one are
the package's boundary.  The samplers never build one: they draw a trial's
letters as a list of ints with ``draw_letters``, already in range, and hand
it to the letter-level loops (``patience_lis``, ``demazure_product``, and
``insertion.shape_parts``) that the ``Word`` functions also run.
``random_words`` gives ``verify`` its random words, one ``Word`` per
trial, drawn by the compiled ``draw_word`` of ``sampling.c``; its Python
path, ``draw_letters`` over ``trial_generators``, is that kernel's oracle.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_left
from dataclasses import dataclass
from operator import index

from .rng import generator, seed_words, trial_generators


@dataclass(frozen=True)
class Word:
    """A word over the alphabet ``{1, ..., alphabet_size}``."""

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(map(index, self.letters)))
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        for x in self.letters:
            if not 1 <= x <= self.alphabet_size:
                raise ValueError(f"letter {x} outside 1..{self.alphabet_size}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.letters)


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1, ..., m}`` in one-line notation."""

    one_line: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "one_line", tuple(map(index, self.one_line)))
        m = len(self.one_line)
        if sorted(self.one_line) != list(range(1, m + 1)):
            raise ValueError(f"{self.one_line} is not a permutation of 1..{m}")

    def __len__(self) -> int:
        return len(self.one_line)


def _lis_lengths(letters) -> list[int]:
    """``best[j]``: length of the longest strictly increasing subsequence
    ending at position ``j`` (0-based); the quadratic dynamic program."""
    best = [0] * len(letters)
    for j, x in enumerate(letters):
        b = 0
        for i in range(j):
            if letters[i] < x and best[i] > b:
                b = best[i]
        best[j] = b + 1
    return best


def lis(w: Word) -> int:
    """Length of the longest strictly increasing subsequence of ``w``.

    Quadratic dynamic program, deliberately independent of the insertion
    machinery so it can serve as an oracle for it.
    """
    return max(_lis_lengths(w.letters), default=0)


def lds(w: Word) -> int:
    """Length of the longest strictly decreasing subsequence of ``w``: the
    LIS program of ``lis`` run on the flipped letters ``q + 1 - x``."""
    q = w.alphabet_size
    return max(_lis_lengths([q + 1 - x for x in w.letters]), default=0)


def patience_lis(letters) -> int:
    """Pile count of ties-allowed greedy patience on ``letters``: each card
    covers the leftmost pile top >= it, so the count is the length of the
    longest strictly increasing subsequence.  Only the pile tops are kept.
    ``lis`` is the quadratic oracle it is checked against."""
    tops: list[int] = []
    for x in letters:
        i = bisect_left(tops, x)
        if i == len(tops):
            tops.append(x)
        else:
            tops[i] = x
    return len(tops)


def draw_letters(rng, n: int, q: int) -> list[int]:
    """``n`` uniform letters over ``{1, ..., q}`` from the generator ``rng``,
    in one call.  numpy draws the same values in chunks as in one call, so
    a caller may also draw a word's letters a chunk at a time."""
    return rng.integers(1, q + 1, size=n).tolist()


def random_words(seed: int, sizes, start: int = 0):
    """Uniform words of trials ``start, start + 1, ...`` keyed by ``seed``,
    one ``Word`` at a time: trial ``start + i`` has ``n`` letters over
    ``{1, ..., q}`` for ``(n, q) = sizes[i]``, drawn as ``draw_letters``
    draws them from the trial's generator of ``trial_generators``.

    The compiled ``draw_word`` of ``sampling.c`` draws each word into one
    buffer, so no numpy is loaded.  Where it cannot be built, the
    generators draw them; they are its test oracle.  The sizes are checked
    here, before the first letter is drawn."""
    seed, start = int(seed), int(start)
    for n, q in sizes:
        if n < 0 or not 1 <= q <= 2**63 - 1:
            raise ValueError(f"need n >= 0 and 1 <= q <= 2**63 - 1, got n={n}, q={q}")
    from .native import load

    library = load("sampling")
    if library is None:
        rngs = trial_generators(seed, start, start + len(sizes))
        return (Word(draw_letters(rng, n, q), q) for rng, (n, q) in zip(rngs, sizes))
    return _drawn_words(library, seed_words(seed, start, start + len(sizes)), sizes, start)


def _drawn_words(library, words, sizes, start: int):
    letters = (ctypes.c_int64 * max((n for n, _ in sizes), default=0))()
    for trial, (n, q) in enumerate(sizes, start):
        library.draw_word(words, trial, n, q, letters)
        yield Word(letters[:n], q)


def random_word(n: int, q: int, seed) -> Word:
    """Uniform word of length ``n`` over ``{1, ..., q}``, keyed by ``seed``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if n == 0:
        return Word((), q)
    return Word(draw_letters(generator(seed), n, q), q)


def demazure_product(letters, q: int) -> tuple[int, ...]:
    """One-line notation of the Demazure product of the simple reflections
    named by ``letters``, each in ``{1, ..., q}``.

    Multiplication is left to right: the running permutation picks up
    ``s_x`` when position ``x`` is an ascent, and is left unchanged
    otherwise.  The result lives in the symmetric group on ``q + 1``
    points.
    """
    perm = list(range(1, q + 2))
    for x in letters:
        if perm[x - 1] < perm[x]:
            perm[x - 1], perm[x] = perm[x], perm[x - 1]
    return tuple(perm)


def hecke_product(w: Word) -> Permutation:
    """Demazure product of the simple reflections named by ``w``, in the
    symmetric group on ``alphabet_size + 1`` points."""
    return Permutation(demazure_product(w.letters, w.alphabet_size))


def coxeter_length(p: Permutation) -> int:
    """Number of inversions of the one-line notation."""
    line = p.one_line
    m = len(line)
    return sum(1 for i in range(m) for j in range(i + 1, m) if line[i] > line[j])


def longest_element(q: int) -> Permutation:
    """The order-reversing permutation of ``{1, ..., q+1}``."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return Permutation(tuple(range(q + 1, 0, -1)))
