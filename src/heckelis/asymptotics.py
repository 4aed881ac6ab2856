"""Monte Carlo sweeps, rescaled shapes, reference curves, and bounds.

The sweeps sample insertion shapes of uniform random words with the
alphabet tied to the word length, either as ``q = round(n^alpha)`` or
``q = round(k * sqrt(n))``; rounding is half-up so results do not depend on
banker's rounding.  Trials are independent and keyed by ``(seed, trial)``;
all aggregation is integer sums, so a sweep result is identical for any
execution order or worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .insertion import heckeshape
from .rng import trial_generators
from .tableaux import conjugate, staircase
from .words import hecke_product, longest_element, patience_lis, random_word


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep row; exactly one of ``alpha``/``k`` is set."""

    n: int
    trials: int
    seed: int
    alpha: float | None = None
    k: float | None = None

    def __post_init__(self):
        if (self.alpha is None) == (self.k is None):
            raise ValueError("exactly one of alpha and k must be given")
        for name, value in (("alpha", self.alpha), ("k", self.k)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        _check_sizes(self.n, self.trials)
        try:
            q = self.q
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"q is out of range at n={self.n}, {self.mode_label}") from None
        if q < 1:
            raise ValueError(f"q rounds to {q}, must be >= 1")

    @property
    def q(self) -> int:
        if self.alpha is not None:
            return round_half_up(self.n**self.alpha)
        return round_half_up(self.k * math.sqrt(self.n))

    @property
    def mode_label(self) -> str:
        if self.alpha is not None:
            return f"alpha={self.alpha:g}"
        return f"k={self.k:g}"


@dataclass(frozen=True)
class SweepResult:
    q: int
    trials: int
    mean_lis: float
    sigma_lis: float
    mean_lds: float
    sigma_lds: float
    staircase_fraction: float
    mean_profile: tuple[float, ...] = field(repr=False)  # empty unless profiled


_BLOCK = 64  # trials per scheduling unit
_MAX_Q = 2**63 - 1  # random_word draws its letters as numpy int64


def _check_sizes(n: int, trials: int, q: int | None = None) -> None:
    """The one check of a sampling run's sizes; ``q`` is checked if given."""
    for name, value, low in (("n", n, 0), ("q", q, 1), ("trials", trials, 1)):
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if q is not None and q > _MAX_Q:
        raise ValueError(f"q must be <= 2**63 - 1, got {q}")


def trial_words(n: int, q: int, seed: int, stop: int, start: int = 0):
    """Uniform words of trials ``start .. stop-1``, one at a time; trial
    ``t`` draws its word from its ``(seed, t)`` stream, taken from
    ``trial_generators``.  The sizes are checked here, before the first
    word is drawn."""
    _check_sizes(n, stop - start, q)
    return (random_word(n, q, rng) for rng in trial_generators(seed, start, stop))


def trial_shapes(n: int, q: int, seed: int, stop: int, start: int = 0):
    """Insertion shapes of the words of ``trial_words``, one at a time."""
    return (heckeshape(w) for w in trial_words(n, q, seed, stop, start))


def shape_statistics(words, n: int, q: int):
    """Shape kernel: ``(lis, lds, is staircase(q), column profile)`` of each
    length-``n`` word over ``{1..q}``, read off its insertion shape."""
    # a shape has at most n boxes, so staircase(q) is out of reach if q(q+1)/2 > n
    stair = staircase(q).parts if q * (q + 1) // 2 <= n else None
    for w in words:
        shape = heckeshape(w)
        parts = shape.parts
        yield (parts[0] if parts else 0), len(parts), parts == stair, conjugate(shape).parts


def word_statistics(words, n: int, q: int):
    """Word kernel: the same statistics with no insertion and an empty
    profile.  The first row of the shape is the LIS, its first column the
    LDS, and it is staircase(q) exactly when the Demazure product is w0."""
    w0 = longest_element(q) if q * (q + 1) // 2 <= n else None  # as in shape_statistics
    for w in words:
        yield (patience_lis(w.letters), patience_lis([q + 1 - x for x in w.letters]),
               w0 is not None and hecke_product(w) == w0, ())


def _add_columns(total: list[int], cols) -> None:
    if len(total) < len(cols):
        total.extend([0] * (len(cols) - len(total)))
    for c, v in enumerate(cols):
        total[c] += v


def _sweep_block(args) -> dict:
    n, q, seed, start, stop, profile = args
    kernel = shape_statistics if profile else word_statistics
    sums = {"lis": 0, "lis2": 0, "lds": 0, "lds2": 0, "stair": 0}
    col_sums: list[int] = []
    for first, rows, stair, cols in kernel(trial_words(n, q, seed, stop, start), n, q):
        sums["lis"] += first
        sums["lis2"] += first * first
        sums["lds"] += rows
        sums["lds2"] += rows * rows
        sums["stair"] += stair
        _add_columns(col_sums, cols)
    return {"sums": sums, "profile": col_sums}


def sweep_at(
    n: int,
    q: int,
    trials: int,
    seed: int,
    threads: int = 1,
    profile: bool = False,
) -> SweepResult:
    """Insertion-shape statistics of ``trials`` words at an explicit alphabet size.

    ``profile=True`` runs the shape kernel and also gives the mean column
    profile; the default word kernel gives the same statistics without
    insertion.  ``threads`` only controls scheduling; the result is
    bit-identical for any value because every trial stream is derived from
    ``(seed, trial)`` and the merged quantities are integer sums.  The pool
    never gets more workers than there are blocks or CPUs.
    """
    _check_sizes(n, trials, q)
    blocks = [(n, q, seed, s, min(s + _BLOCK, trials), profile)
              for s in range(0, trials, _BLOCK)]
    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_block, blocks))
    else:
        results = [_sweep_block(b) for b in blocks]

    sums = {"lis": 0, "lis2": 0, "lds": 0, "lds2": 0, "stair": 0}
    col_sums: list[int] = []
    for res in results:
        for key in sums:
            sums[key] += res["sums"][key]
        _add_columns(col_sums, res["profile"])

    def stats(total: int, total_sq: int) -> tuple[float, float]:
        mean = total / trials
        if trials < 2:
            return mean, 0.0
        var = (total_sq - total * total / trials) / (trials - 1)
        return mean, math.sqrt(max(var, 0.0))

    mean_lis, sigma_lis = stats(sums["lis"], sums["lis2"])
    mean_lds, sigma_lds = stats(sums["lds"], sums["lds2"])
    return SweepResult(
        q=q,
        trials=trials,
        mean_lis=mean_lis,
        sigma_lis=sigma_lis,
        mean_lds=mean_lds,
        sigma_lds=sigma_lds,
        staircase_fraction=sums["stair"] / trials,
        mean_profile=tuple(v / trials for v in col_sums),
    )


# --- rescaled shape functions and reference curves -------------------------

SQRT_REGIME = "sqrt"
STAIRCASE_REGIME = "staircase"


@dataclass(frozen=True)
class ShapeFunction:
    """A diagram profile rescaled by ``scale`` on both axes.

    The step form takes the value ``col_counts[c] / scale`` on
    ``[c/scale, (c+1)/scale)``; the piecewise-linear form interpolates the
    profile through the box-corner knots ``(c/scale, f(c)/scale)``.
    """

    col_counts: tuple[float, ...]
    scale: float

    @property
    def max_support(self) -> float:
        return len(self.col_counts) / self.scale

    def breakpoints(self) -> np.ndarray:
        return np.arange(len(self.col_counts) + 1) / self.scale

    def step(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        # the nudge keeps grid points that are meant to be breakpoints from
        # flooring into the previous box after the divide-multiply roundtrip
        cols = np.floor(xs * self.scale + 1e-9).astype(int)
        counts = np.asarray(self.col_counts + (0.0,))
        cols = np.clip(cols, 0, len(self.col_counts))
        return counts[cols] / self.scale

    def linear(self, x) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        knots_y = np.asarray(self.col_counts + (0.0,)) / self.scale
        return np.interp(xs, self.breakpoints(), knots_y, right=0.0)


def profile_function(mean_profile, n: int, q: int, regime: str) -> ShapeFunction:
    """ShapeFunction for a column profile (entries may be fractional), both
    axes rescaled by ``2 sqrt(n)`` (sqrt regime) or ``q`` (staircase regime)."""
    if regime == SQRT_REGIME:
        scale = 2.0 * math.sqrt(n)
    elif regime == STAIRCASE_REGIME:
        scale = float(q)
    else:
        raise ValueError(f"regime must be {SQRT_REGIME!r} or {STAIRCASE_REGIME!r}")
    if scale <= 0:
        raise ValueError(f"the {regime} regime scale is {scale:g} at n={n}, q={q}, must be > 0")
    return ShapeFunction(tuple(float(v) for v in mean_profile), scale)


def _nonnegative(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if (xs < 0).any():
        raise ValueError(f"curve is defined on x >= 0, got {x}")
    return xs


def _scalar_or_array(ys: np.ndarray):
    return float(ys) if ys.ndim == 0 else ys


def plancherel_curve(x):
    """The parametric limit curve ``x = y + cos t``,
    ``y = (sin t - t cos t) / pi`` for ``0 <= t <= pi``, inverted by
    bisection (``x`` is monotone in ``t``); identically 0 from 1 on.

    ``x`` is a number (a float comes back) or an array, bisected all at
    once; a negative entry raises ``ValueError``."""
    xs = _nonnegative(x)
    lo, hi = np.zeros_like(xs), np.full_like(xs, math.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = np.sin(mid) / np.pi - mid * np.cos(mid) / np.pi + np.cos(mid) > xs
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    t = 0.5 * (lo + hi)
    ys = (np.sin(t) - t * np.cos(t)) / np.pi
    return _scalar_or_array(np.where(xs >= 1.0, 0.0, ys))


def line_curve(x):
    """The staircase limit: ``1 - x`` on the unit interval, then 0.  Takes
    a number or an array, like ``plancherel_curve``."""
    xs = _nonnegative(x)
    return _scalar_or_array(np.where(xs < 1.0, 1.0 - xs, 0.0))


def sup_norm_distance(f: ShapeFunction, curve, grid_points: int = 10**4) -> float:
    """Max absolute difference between the shape function and a reference
    curve, over a uniform grid plus the shape's breakpoints.

    The grid spans [0, max(support, 1)]: the reference curves live on the
    unit interval, so stopping at a smaller support would hide the region
    where the shape is already 0 but the curve is not.  Both the step and
    the piecewise-linear forms enter the maximum.
    """
    hi = max(f.max_support, 1.0)
    xs = np.concatenate([np.linspace(0.0, hi, grid_points), f.breakpoints()])
    xs = xs[xs <= hi + 1e-12]
    ref = curve(xs)
    diff_step = np.abs(f.step(xs) - ref)
    diff_lin = np.abs(f.linear(xs) - ref)
    return float(max(diff_step.max(), diff_lin.max()))


def beta(k: float) -> float:
    """Scaled LIS constant at the critical alphabet size: ``k/2`` up to
    ``k = 1``, then ``(2 - 1/k)/2``."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return k / 2 if k <= 1 else (2 - 1 / k) / 2


# --- generalized Erdos-Szekeres bound --------------------------------------

def erdos_szekeres_bound(a: int, b: int, q: int) -> int:
    """Box count of the intersection of an ``a x b`` rectangle with the
    staircase: ``sum over i of min(b, q - i + 1)``.  If a word's Demazure
    permutation is longer than this, its LIS exceeds ``a`` or its LDS
    exceeds ``b``."""
    if not (1 <= a < q and 1 <= b < q):
        raise ValueError(f"need 1 <= a, b < q, got a={a}, b={b}, q={q}")
    return sum(min(b, q - i + 1) for i in range(1, a + 1))
