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
from .rng import trial_stream
from .tableaux import YoungDiagram, conjugate, staircase
from .words import (
    Word,
    coxeter_length,
    hecke_product,
    lds,
    lis,
    longest_element,
    random_word,
)


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
    snapshot_limit: int = 0

    def __post_init__(self):
        if (self.alpha is None) == (self.k is None):
            raise ValueError("exactly one of alpha and k must be given")
        if self.n < 0 or self.trials < 1:
            raise ValueError("need n >= 0 and trials >= 1")
        if self.q < 1:
            raise ValueError(f"q rounds to {self.q}, must be >= 1")

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
    mean_profile: tuple[float, ...] = field(repr=False)
    snapshots: tuple[YoungDiagram, ...] = field(repr=False)


_BLOCK = 64  # trials per scheduling unit


def _check_sizes(n: int, q: int, trials: int) -> None:
    for name, value, low in (("n", n, 0), ("q", q, 1), ("trials", trials, 1)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def trial_shapes(n: int, q: int, seed: int, stop: int, start: int = 0):
    """Insertion shapes of the uniform words of trials ``start .. stop-1``,
    one at a time; trial ``t`` draws its word from ``trial_stream(seed, t)``.
    The sizes are checked here, before the first shape is drawn."""
    _check_sizes(n, q, stop - start)
    return (heckeshape(random_word(n, q, trial_stream(seed, t))) for t in range(start, stop))


def _sweep_block(args) -> dict:
    n, q, seed, start, stop, snapshot_limit = args
    stair = staircase(q).parts
    sums = {"lis": 0, "lis2": 0, "lds": 0, "lds2": 0, "stair": 0}
    profile: list[int] = []
    snapshots = []
    for t, shape in enumerate(trial_shapes(n, q, seed, stop, start), start):
        parts = shape.parts
        first = parts[0] if parts else 0
        rows = len(parts)
        sums["lis"] += first
        sums["lis2"] += first * first
        sums["lds"] += rows
        sums["lds2"] += rows * rows
        sums["stair"] += parts == stair
        conj_parts = conjugate(shape).parts
        if len(profile) < len(conj_parts):
            profile.extend([0] * (len(conj_parts) - len(profile)))
        for c, v in enumerate(conj_parts):
            profile[c] += v
        if t < snapshot_limit:
            snapshots.append((t, shape))
    return {"sums": sums, "profile": profile, "snapshots": snapshots}


def sweep_at(
    n: int,
    q: int,
    trials: int,
    seed: int,
    snapshot_limit: int = 0,
    threads: int = 1,
) -> SweepResult:
    """Sample ``trials`` insertion shapes at an explicit alphabet size.

    ``threads`` only controls scheduling; the result is bit-identical for
    any value because every trial stream is derived from ``(seed, trial)``
    and the merged quantities are integer sums.  The pool never gets more
    workers than there are blocks or CPUs.
    """
    _check_sizes(n, q, trials)
    blocks = [(n, q, seed, s, min(s + _BLOCK, trials), snapshot_limit)
              for s in range(0, trials, _BLOCK)]
    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_block, blocks))
    else:
        results = [_sweep_block(b) for b in blocks]

    sums = {"lis": 0, "lis2": 0, "lds": 0, "lds2": 0, "stair": 0}
    profile: list[int] = []
    tagged = []
    for res in results:
        for key in sums:
            sums[key] += res["sums"][key]
        block_profile = res["profile"]
        if len(profile) < len(block_profile):
            profile.extend([0] * (len(block_profile) - len(profile)))
        for c, v in enumerate(block_profile):
            profile[c] += v
        tagged.extend(res["snapshots"])
    tagged.sort(key=lambda pair: pair[0])

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
        mean_profile=tuple(v / trials for v in profile),
        snapshots=tuple(shape for _, shape in tagged),
    )


def sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """Run the configured trials and aggregate LIS/LDS statistics."""
    return sweep_at(
        config.n,
        config.q,
        config.trials,
        config.seed,
        snapshot_limit=config.snapshot_limit,
        threads=threads,
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


def rescale(shape: YoungDiagram, n: int, q: int, regime: str) -> ShapeFunction:
    """ShapeFunction of one diagram's column profile."""
    return profile_function(conjugate(shape).parts, n, q, regime)


def _curve_x(theta: float) -> float:
    return math.sin(theta) / math.pi - theta * math.cos(theta) / math.pi + math.cos(theta)


def _curve_y(theta: float) -> float:
    return (math.sin(theta) - theta * math.cos(theta)) / math.pi


def plancherel_curve(x: float) -> float:
    """The parametric limit curve ``x = y + cos t``,
    ``y = (sin t - t cos t) / pi`` for ``0 <= t <= pi``, inverted by
    bisection (``x`` is monotone in ``t``); identically 0 from 1 on."""
    if x < 0:
        raise ValueError(f"curve is defined on x >= 0, got {x}")
    if x >= 1.0:
        return 0.0
    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _curve_x(mid) > x:
            lo = mid
        else:
            hi = mid
    return _curve_y(0.5 * (lo + hi))


def line_curve(x: float) -> float:
    """The staircase limit: ``1 - x`` on the unit interval, then 0."""
    if x < 0:
        raise ValueError(f"curve is defined on x >= 0, got {x}")
    return 1.0 - x if x < 1.0 else 0.0


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
    ref = np.asarray([curve(float(x)) for x in xs])
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


def check_es(w: Word, a: int, b: int) -> bool:
    """Verify the bound's implication on one word."""
    bound = erdos_szekeres_bound(a, b, w.alphabet_size)
    if coxeter_length(hecke_product(w)) <= bound:
        return True
    return lis(w) > a or lds(w) > b


def staircase_check(n: int, q: int, trials: int, seed: int) -> float:
    """Fraction of sampled shapes equal to the full staircase.

    Each trial also runs the equivalent permutation test (the Demazure
    product being the longest element) and insists the two agree.
    """
    target = staircase(q)
    w0 = longest_element(q)
    hits = 0
    for t in range(trials):
        w = random_word(n, q, trial_stream(seed, t))
        by_shape = heckeshape(w) == target
        by_perm = hecke_product(w) == w0
        if by_shape != by_perm:
            raise AssertionError(
                f"staircase and longest-element tests disagree on trial {t}"
            )
        hits += by_shape
    return hits / trials
