"""Plancherel-Hecke and Plancherel-RSK measures on Young diagrams, exact.

The exact distribution on shapes weights each candidate by the product of
the increasing-tableau count and the standard set-valued count, normalized
by ``q^n``; construction asserts the normalizer identity exactly.  The RSK
variant uses the hook-length and hook-content counts instead and is a
Markov measure on Young's lattice, with the growth-process transitions
given here.  Plancherel-Hecke samples come from ``asymptotics.trial_shapes``.

All of it is arbitrary-precision rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .tableaux import (
    YoungDiagram,
    count_semistandard,
    count_standard,
    diagram_to_json,
    increasing_counts,
    partitions_in_staircase,
    set_valued_counts,
    staircase,
)

# exact enumeration is refused past these sizes
MAX_N = 10
MAX_Q = 5


@dataclass(frozen=True)
class ExactDistribution:
    """Exact distribution on Young diagrams, rational probabilities."""

    entries: tuple  # ((YoungDiagram, Fraction), ...) in lexicographic shape order

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
        raise ValueError(
            f"exact mode guard: n <= {MAX_N} and q <= {MAX_Q} required, got n={n}, q={q}"
        )


def plancherel_hecke_weights(n: int, q: int):
    """``(shape, weight)`` for each shape inside the staircase with at most
    ``min(n, q(q+1)/2)`` boxes.  The weight is the increasing-tableau count
    times the standard set-valued count: the number of length-``n`` words
    over ``{1..q}`` with that insertion shape, so the weights sum to ``q^n``."""
    increasing = increasing_counts(staircase(q), q)
    set_valued = set_valued_counts(staircase(q), n)
    for shape in partitions_in_staircase(q, min(n, q * (q + 1) // 2)):
        yield shape, increasing[shape.parts] * set_valued.get(shape.parts, 0)


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
    return ExactDistribution(tuple(entries))


def plancherel_rsk_prob(shape: YoungDiagram, n: int, q: int) -> Fraction:
    """Hook-length times hook-content weight over ``q^n``; needs ``|shape| = n``."""
    if shape.size != n:
        raise ValueError(f"shape has {shape.size} boxes, expected n={n}")
    if n == 0:
        return Fraction(1)
    return Fraction(count_standard(shape) * count_semistandard(shape, q), q**n)


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
