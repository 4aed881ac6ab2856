"""Plancherel-Hecke and Plancherel-RSK measures, exact and sampled.

The exact distribution on shapes weights each candidate by the product of
the increasing-tableau count and the standard set-valued count, normalized
by ``q^n``; construction asserts the normalizer identity exactly.  The RSK
variant uses the hook-length and hook-content counts instead, is a Markov
measure on Young's lattice, and admits a growth-process sampler alongside
the RSK pushforward sampler; the two are cross-checked in the tests.
Plancherel-Hecke samples come from ``asymptotics.trial_shapes``.

Exact mode is arbitrary-precision rational arithmetic throughout.  Monte
Carlo mode keeps counts in integers and only forms floats at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .insertion import rsk_shape
from .rng import generator
from .tableaux import (
    EMPTY_DIAGRAM,
    YoungDiagram,
    count_increasing,
    count_semistandard,
    count_standard,
    diagram_to_json,
    partitions_in_staircase,
    set_valued_counts,
    staircase,
)
from .words import random_word

# exact enumeration is refused past these sizes
MAX_N = 10
MAX_Q = 5


class ExactModeGuardError(ValueError):
    """Raised when exact enumeration is asked for parameters past the guard."""


@dataclass(frozen=True)
class ExactDistribution:
    """Exact distribution on Young diagrams, rational probabilities."""

    n: int
    q: int
    entries: tuple  # ((YoungDiagram, Fraction), ...) in lexicographic shape order

    def prob(self, shape: YoungDiagram) -> Fraction:
        for s, p in self.entries:
            if s == shape:
                return p
        return Fraction(0)

    def support(self) -> tuple[YoungDiagram, ...]:
        return tuple(s for s, p in self.entries if p > 0)

    def expected_lis(self) -> Fraction:
        """Expectation of the first-row length (equivalently of LIS)."""
        return sum(
            (Fraction(s.parts[0]) * p for s, p in self.entries if s.parts),
            start=Fraction(0),
        )

    def to_json(self) -> list[dict]:
        return [
            {"shape": diagram_to_json(s), "num": str(p.numerator), "den": str(p.denominator)}
            for s, p in self.entries
        ]


def _check_guard(n: int, q: int):
    if n < 0 or q < 1:
        raise ValueError(f"need n >= 0 and q >= 1, got n={n}, q={q}")
    if n > MAX_N or q > MAX_Q:
        raise ExactModeGuardError(
            f"exact mode guard: n <= {MAX_N} and q <= {MAX_Q} required, got n={n}, q={q}"
        )


def plancherel_hecke_weights(n: int, q: int):
    """``(shape, weight)`` for each shape inside the staircase with at most
    ``min(n, q(q+1)/2)`` boxes.  The weight is the increasing-tableau count
    times the standard set-valued count: the number of length-``n`` words
    over ``{1..q}`` with that insertion shape, so the weights sum to ``q^n``."""
    set_valued = set_valued_counts(staircase(q), n)
    for shape in partitions_in_staircase(q, min(n, q * (q + 1) // 2)):
        yield shape, count_increasing(shape, q) * set_valued.get(shape.parts, 0)


def exact_plancherel_hecke(n: int, q: int) -> ExactDistribution:
    """Exact shape distribution induced by insertion from uniform words;
    asserts that the weights sum to ``q^n`` exactly."""
    _check_guard(n, q)
    entries = []
    total = 0
    for shape, weight in plancherel_hecke_weights(n, q):
        total += weight
        if weight:
            entries.append((shape, Fraction(weight, q**n)))
    if total != q**n:
        raise AssertionError(
            f"normalizer identity failed: sum of weights {total} != {q}^{n}"
        )
    return ExactDistribution(n, q, tuple(entries))


def expected_lis_exact(n: int, q: int) -> Fraction:
    """Exact expectation of the first-row statistic (equivalently of LIS)."""
    return exact_plancherel_hecke(n, q).expected_lis()


def prob_lis_exact(n: int, q: int, ell: int) -> Fraction:
    """Exact probability that the first row has length ``ell``."""
    dist = exact_plancherel_hecke(n, q)
    first_row = lambda s: s.parts[0] if s.parts else 0
    return sum((p for s, p in dist.entries if first_row(s) == ell), start=Fraction(0))


def plancherel_rsk_prob(shape: YoungDiagram, n: int, q: int) -> Fraction:
    """Hook-length times hook-content weight over ``q^n``; needs ``|shape| = n``."""
    if shape.size != n:
        raise ValueError(f"shape has {shape.size} boxes, expected n={n}")
    if n == 0:
        return Fraction(1)
    return Fraction(count_standard(shape) * count_semistandard(shape, q), q**n)


def plancherel_prob(shape: YoungDiagram, n: int) -> Fraction:
    """Classical Plancherel weight: squared standard count over ``n!``."""
    if shape.size != n:
        raise ValueError(f"shape has {shape.size} boxes, expected n={n}")
    if n == 0:
        return Fraction(1)
    from math import factorial

    f = count_standard(shape)
    return Fraction(f * f, factorial(n))


def markov_transition(shape: YoungDiagram, target: YoungDiagram, q: int) -> Fraction:
    """Growth-process transition probability from ``shape`` to a shape
    covering it in Young's lattice."""
    if target.size != shape.size + 1 or not target.contains(shape):
        raise ValueError(f"{target.parts} does not cover {shape.parts}")
    g_from = count_semistandard(shape, q)
    if g_from == 0:
        raise ValueError(f"{shape.parts} has no semistandard fillings with q={q}")
    g_to = count_semistandard(target, q)
    return Fraction(g_to, q * g_from)


def _growth_weights(parts: list[int], conj: list[int], q: int) -> tuple[list[tuple[int, int]], list[float]]:
    """Addable boxes of the shape and their relative weights g(new)/g(old).

    Adding a box at (r, c) multiplies the hook-content product by
    ``q + (c - r)`` for the new box (its own hook is 1) and stretches by one
    the hooks of the boxes in its row and column, giving factors H/(H+1).
    """
    boxes = []
    weights = []
    nrows = len(parts)
    candidates = [(0, parts[0])] if parts else [(0, 0)]
    for r in range(1, nrows):
        if parts[r] < parts[r - 1]:
            candidates.append((r, parts[r]))
    if parts:
        candidates.append((nrows, 0))
    small = len(parts) <= 12 and (not parts or parts[0] <= 12)
    if not small:
        parts_arr = np.asarray(parts, dtype=np.int64)
        conj_arr = np.asarray(conj, dtype=np.int64)
    for r, c in candidates:
        if r >= q:  # a column of length > q admits no semistandard filling
            continue
        w = float(q + c - r)
        # h below is the stretched hook (old hook + 1); each affected box
        # contributes old/new = (h-1)/h
        if small:
            for col in range(c):
                h = (parts[r] - col) + (conj[col] - r)
                w *= (h - 1) / h
            for row in range(r):
                h = (parts[row] - c) + (conj[c] - row)
                w *= (h - 1) / h
        else:
            if c:
                cols = np.arange(c)
                h = (parts_arr[r] - cols) + (conj_arr[cols] - r)
                w *= float(np.prod((h - 1) / h))
            if r:
                rows = np.arange(r)
                h = (parts_arr[rows] - c) + (conj_arr[c] - rows)
                w *= float(np.prod((h - 1) / h))
        boxes.append((r, c))
        weights.append(w)
    return boxes, weights


def markov_sample_path(n: int, q: int, seed) -> tuple[YoungDiagram, ...]:
    """Run the growth process ``n`` steps from the empty shape; returns the
    whole trajectory including the empty starting shape."""
    if n < 0 or q < 1:
        raise ValueError(f"need n >= 0 and q >= 1, got n={n}, q={q}")
    rng = generator(seed)
    parts: list[int] = []
    conj: list[int] = []
    path = [EMPTY_DIAGRAM]
    for _ in range(n):
        boxes, weights = _growth_weights(parts, conj, q)
        u = rng.random() * sum(weights)
        idx = 0
        acc = weights[0]
        while acc < u and idx + 1 < len(boxes):
            idx += 1
            acc += weights[idx]
        r, c = boxes[idx]
        if r == len(parts):
            parts.append(1)
        else:
            parts[r] += 1
        if c == len(conj):
            conj.append(1)
        else:
            conj[c] += 1
        path.append(YoungDiagram(tuple(parts)))
    return tuple(path)


def sample_plancherel_rsk(n: int, q: int, seed) -> YoungDiagram:
    """RSK pushforward sampler; agrees in law with the growth process."""
    return rsk_shape(random_word(n, q, seed))


def gamma_estimate(i: int, q: int, trials: int, seed: int) -> float:
    """Monte Carlo mean of the first-column length at step ``i`` of the
    growth process."""
    from .rng import trial_stream

    if trials < 1:
        raise ValueError("trials must be >= 1")
    total = 0
    for t in range(trials):
        path = markov_sample_path(i, q, trial_stream(seed, t))
        total += len(path[-1].parts)
    return total / trials

