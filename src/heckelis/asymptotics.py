"""Monte Carlo sweeps, rescaled shapes, reference curves, and bounds.

The sweeps sample insertion shapes of uniform random words with the
alphabet tied to the word length, either as ``q = round(n^alpha)`` or
``q = round(k * sqrt(n))``; rounding is half-up so results do not depend on
banker's rounding.  Trials are independent and keyed by ``(seed, trial)``;
all aggregation is integer sums, so a sweep result is identical for any
execution order or worker count.

No trial builds a ``Word``.  Each runs in one call of a kernel compiled
from ``sampling.c``, the package's one C source (see ``native``), which
derives the trial's Philox key from the seed's words (``rng.seed_words``)
and the trial index with numpy's ``SeedSequence`` hash, runs its stream
itself and draws the letters that ``random_word`` gives for the trial's
stream.  The word kernel reads a word's LIS, LDS and
Demazure product off its letters; the shape kernel Hecke-inserts them and
stops drawing once the shape is staircase(q).
Where no C compiler builds them, the Python kernels run, and they are the
compiled ones' oracles: ``trial_words`` draws a trial's n letters in one
numpy call for ``word_statistics``, and ``_chunks`` draws them for
``shape_parts`` as it inserts them: the q(q+1)/2 letters that any
staircase(q) needs first, then chunks each twice the one before.  numpy
draws the same values in chunks as in one call, so every kernel sees the
same letters.  Only the Python kernels and the reference curves use numpy,
and each imports it where it runs, so a compiled sweep never loads it.
"""

from __future__ import annotations

import ctypes
import math
import os
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

from .insertion import shape_parts
from .rng import seed_words, trial_generators
from .tableaux import YoungDiagram, conjugate, staircase
from .words import demazure_product, draw_letters, longest_element, patience_lis

if TYPE_CHECKING:
    import numpy as np


def grid_q(n: int, *, alpha: float | None = None, k: float | None = None) -> int:
    """The alphabet size of one sweep row, ``round(n^alpha)`` or
    ``round(k * sqrt(n))``, rounded half up; exactly one of ``alpha`` and
    ``k`` is given."""
    if (alpha is None) == (k is None):
        raise ValueError("exactly one of alpha and k must be given")
    name, value = ("alpha", alpha) if k is None else ("k", k)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    _check_sizes(n)
    try:
        q = math.floor((n**alpha if k is None else k * math.sqrt(n)) + 0.5)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"q is out of range at n={n}, {name}={value:g}") from None
    if q < 1:
        raise ValueError(f"q rounds to {q}, must be >= 1")
    _check_sizes(n, q=q)
    return q


@dataclass(frozen=True)
class SweepResult:
    mean_lis: float
    sigma_lis: float
    mean_lds: float
    sigma_lds: float
    staircase_fraction: float
    mean_profile: tuple[float, ...] = field(repr=False)  # empty unless profiled
    kernel: str = field(compare=False)  # "compiled" or "python": which kernels ran


_MAX_Q = 2**63 - 1  # letters are drawn as numpy int64
_MAX_DRAWS = 2**63 - 1  # every kernel counts a trial's letters in an int64
_WORD_CHUNK = 1024  # trials per call of the compiled word kernel, so its output stays small


def _check_sizes(n: int, trials: int | None = None, q: int | None = None) -> None:
    """The one check of a sampling run's sizes; ``trials`` and ``q`` are
    checked if given."""
    for name, value, low in (("n", n, 0), ("q", q, 1), ("trials", trials, 1)):
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if q is not None and q > _MAX_Q:
        raise ValueError(f"q must be <= 2**63 - 1, got {q}")


def _check_draws(letters: int) -> None:
    """A trial may draw ``letters`` letters: at most ``_MAX_DRAWS``."""
    if letters > _MAX_DRAWS:
        raise ValueError(f"a trial may draw {letters} letters, more than 2**63 - 1")


def _staircase_boxes(n: int, q: int) -> int:
    """q(q+1)/2, the boxes of staircase(q), or -1 where n letters cannot fill them."""
    boxes = q * (q + 1) // 2
    return boxes if boxes <= n else -1


def _compiled():
    """The compiled kernels, or None where they cannot be built."""
    from .native import load

    return load("sampling")


def sampling_kernel() -> str:
    """The kernels the samplers run in this process: ``"compiled"`` or ``"python"``."""
    return "python" if _compiled() is None else "compiled"


def trial_words(n: int, q: int, seed: int, stop: int, start: int = 0):
    """Letters of the uniform words of trials ``start .. stop-1``, one list
    of ints at a time; trial ``t`` draws all ``n`` in one call from its
    ``(seed, t)`` stream, taken from ``trial_generators``.  The sizes are
    checked here, before the first letter is drawn."""
    _check_sizes(n, stop - start, q)
    _check_draws(n)
    return (draw_letters(rng, n, q) for rng in trial_generators(seed, start, stop))


def _compiled_word_statistics(library, n: int, q: int, seed: int, stop: int, start: int):
    """``word_statistics`` of the words of ``trial_words``, by the compiled
    word kernel, a chunk of trials per call."""
    boxes = _staircase_boxes(n, q)
    words = seed_words(seed, start, stop)
    for first in range(start, stop, _WORD_CHUNK):
        trials = min(_WORD_CHUNK, stop - first)
        out = (ctypes.c_int64 * (3 * trials))()
        if library.word_statistics(words, first, trials, n, q, boxes, out):
            raise MemoryError(f"cannot allocate the patience piles at n={n}, q={q}")
        values = iter(out)
        for lis, lds, stair in zip(values, values, values):
            yield lis, lds, stair == 1, ()


def trial_statistics(n: int, q: int, seed: int, stop: int, start: int = 0):
    """The word kernel's statistics of the trials ``start .. stop-1``, as
    ``word_statistics(trial_words(...))`` gives them."""
    _check_sizes(n, stop - start, q)
    _check_draws(n)
    library = _compiled()
    if library is None:
        return word_statistics(trial_words(n, q, seed, stop, start), n, q)
    return _compiled_word_statistics(library, n, q, seed, stop, start)


def _chunks(rng, n: int, q: int):
    """The ``n`` letters of one trial in chunks: ``q(q+1)/2`` first, each
    later chunk twice the one before, the last cut short at ``n``."""
    size = q * (q + 1) // 2
    while n > 0:
        size = min(size, n)
        yield draw_letters(rng, size, q)
        n -= size
        size *= 2


def _python_shapes(n: int, q: int, seed: int, stop: int, start: int):
    """Row lengths of the insertion shapes of the trials, by ``shape_parts``."""
    return (shape_parts(chain.from_iterable(_chunks(rng, n, q)), q)
            for rng in trial_generators(seed, start, stop))


def _compiled_shapes(library, n: int, q: int, seed: int, stop: int, start: int):
    """``_python_shapes`` by the compiled shape kernel, a trial per call,
    into one tableau that the trials reuse."""
    boxes = _staircase_boxes(n, q)
    # _check_draws lets n past 2**63 - 1 only where staircase(q) is
    # reachable, and no run could draw 2**63 letters in any case
    n = min(n, _MAX_DRAWS)
    words = seed_words(seed, start, stop)
    tableau = library.tableau_new()
    if not tableau:
        raise MemoryError("cannot allocate an insertion tableau")
    try:
        for trial in range(start, stop):
            rows = library.insert_word(tableau, words, trial, n, q, boxes)
            if rows < 0:
                raise MemoryError(f"cannot allocate the insertion tableau at n={n}, q={q}")
            yield tuple(library.tableau_lengths(tableau)[:rows]) if rows else ()
    finally:
        library.tableau_free(tableau)


def trial_shapes(n: int, q: int, seed: int, stop: int, start: int = 0):
    """Insertion shapes of the words of ``trial_words``, one at a time.

    Each trial's letters are drawn as they are inserted, and drawing stops
    once the shape is staircase(q); a letter adds at most one box, so no
    trial stops before its first q(q+1)/2 letters."""
    _check_sizes(n, stop - start, q)
    _check_draws(min(n, q * (q + 1) // 2))
    library = _compiled()
    if library is None:
        parts = _python_shapes(n, q, seed, stop, start)
    else:
        parts = _compiled_shapes(library, n, q, seed, stop, start)
    return map(YoungDiagram, parts)


def shape_statistics(shapes, n: int, q: int):
    """Shape kernel: ``(lis, lds, is staircase(q), column profile)`` of the
    insertion shape of each length-``n`` word over ``{1..q}``."""
    # a shape has at most n boxes, so staircase(q) is out of reach if q(q+1)/2 > n
    stair = staircase(q).parts if q * (q + 1) // 2 <= n else None
    for shape in shapes:
        parts = shape.parts
        yield (parts[0] if parts else 0), len(parts), parts == stair, conjugate(shape).parts


def word_statistics(words, n: int, q: int):
    """Word kernel: the same statistics of the letter lists ``words``, with
    no insertion and an empty profile.  The first row of the shape is the
    LIS, its first column the LDS, and it is staircase(q) exactly when the
    Demazure product is w0."""
    w0 = longest_element(q).one_line if q * (q + 1) // 2 <= n else None  # as in shape_statistics
    for letters in words:
        yield (patience_lis(letters), patience_lis([q + 1 - x for x in letters]),
               w0 is not None and demazure_product(letters, q) == w0, ())


def _add_columns(total: list[int], cols) -> None:
    if len(total) < len(cols):
        total.extend([0] * (len(cols) - len(total)))
    for c, v in enumerate(cols):
        total[c] += v


def _sweep_block(args) -> tuple[tuple[int, ...], list[int], str]:
    """The sums of lis, lis^2, lds, lds^2 and staircase hits over a block of
    trials, its column sums, and the kernels that ran."""
    n, q, seed, start, stop, profile = args
    if profile:
        per_trial = shape_statistics(trial_shapes(n, q, seed, stop, start), n, q)
    else:
        per_trial = trial_statistics(n, q, seed, stop, start)
    lis = lis2 = lds = lds2 = hits = 0
    col_sums: list[int] = []
    for first, rows, stair, cols in per_trial:
        lis += first
        lis2 += first * first
        lds += rows
        lds2 += rows * rows
        hits += stair
        _add_columns(col_sums, cols)
    return (lis, lis2, lds, lds2, hits), col_sums, sampling_kernel()


# What a pool adds to a command's wall time, per worker it starts.  On a
# 2-vCPU Xeon (Python 3.11, Linux, fork start), a process that had imported
# the CLI took a median 25, 27 and 36 ms to import the pool and start, feed
# and stop a pool of one, two and four workers (15 fresh processes each; a
# second pool in the same process took 6, 9 and 16 ms).  End to end,
# `curve --n 10000 --q 8 --trials 300` took a median 0.220 s on a forced
# pool of two against 0.178 s serially (9 alternating runs), while the pool
# saved at most 3 ms of the trials: about 45 ms for two workers, so 0.02 s
# per worker.
_WORKER_COST_S = 0.02

# What a block of trials run by a pool's worker costs beyond its trials: on
# that Xeon a pool of one worker ran 2000 one-trial blocks at 214 us each,
# against 47 us each for the same blocks run in process.
_BLOCK_COST_S = 0.0002


class Scheduler:
    """Runs the blocks of trials of one command, each a ``_sweep_block``
    task: in this process, helped by one process pool where the pool saves
    more time than its workers cost.

    ``threads`` bounds the processes that run blocks, this one included,
    and ``trials`` counts the command's trials over all its rows.  Where
    ``cap = min(threads, CPUs)`` is above 1, this process runs the first
    trials in blocks of 1, 2, 4, ... trials and times each block but the
    first, whose trial loads the kernels, until the timed blocks have taken
    ``_WORKER_COST_S`` or the trials run out.  At their rate the trials
    left take ``rest`` seconds, so ``p`` processes take about ``rest / p +
    (p - 1) * _WORKER_COST_S``; it takes the ``p <= min(cap, trials left)``
    that makes this least, and starts a pool of ``p - 1`` workers if
    ``p > 1``.  The pool then takes a row's blocks from the front and this
    process takes them from the back, until they meet.  Each block adds
    ``_BLOCK_COST_S`` of work, and the processes end a row about half a
    block apart, so a row whose trials left take ``r`` seconds at the rate
    of the last block timed here is cut into blocks of about
    ``sqrt(2 * r * _BLOCK_COST_S / p)`` seconds, which makes the sum of the
    two least.  Without a pool the rest of each row is one block.
    ``workers`` and ``blocks`` say how the command ran.  Results do not
    depend on any of this, since every merge is an integer sum.  Use it as a
    context manager, which stops the pool.
    """

    def __init__(self, threads: int, trials: int):
        self.workers = 1  # the processes that run blocks: this one and the pool's
        self.blocks = 0  # blocks run so far
        self._cap = min(threads, os.cpu_count() or 1)
        self._left = trials  # the command's trials in the rows not yet run
        self._probe = 1 if self._cap > 1 else 0  # the next timing block's trials; 0 once done
        self._timed = 0  # trials in the timing blocks but the first
        self._elapsed = 0.0  # and the seconds they took
        self._rate = 0.0  # seconds per trial of the last block timed here
        self._pool = None

    def __enter__(self) -> Scheduler:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def _here(self, block: tuple) -> tuple:
        """``_sweep_block(block)``, run in this process, and timed unless it
        is the command's first block."""
        began = time.perf_counter()
        result = _sweep_block(block)
        if self.blocks:
            self._rate = (time.perf_counter() - began) / (block[4] - block[3])
        self.blocks += 1
        return result

    def _decide(self, left: int) -> None:
        """Stop timing, and start the pool if it pays for the ``left`` trials."""
        self._probe = 0
        rest = self._elapsed * left / self._timed
        most = max(1, min(self._cap, left))
        processes = min(range(1, most + 1), key=lambda p: rest / p + (p - 1) * _WORKER_COST_S)
        if processes > 1:
            # imported here so that a serial run never loads the pool machinery
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=processes - 1)
            self.workers = processes

    def run(self, n: int, q: int, seed: int, trials: int, profile: bool) -> list:
        """The ``_sweep_block`` results of one row's trials ``0 .. trials-1``."""
        results, start = [], 0
        while self._probe and start < trials:
            stop = min(trials, start + self._probe)
            results.append(self._here((n, q, seed, start, stop, profile)))
            if self.blocks > 1:
                self._timed += stop - start
                self._elapsed += self._rate * (stop - start)
            self._probe *= 2
            start = stop
            if self._timed and self._elapsed >= _WORKER_COST_S:
                self._decide(max(0, self._left - stop))
        self._left -= trials
        if start == trials:
            return results
        if self._pool is None:
            return [*results, self._here((n, q, seed, start, trials, profile))]
        left = trials - start
        if self._rate:  # trials per block, as the docstring derives them
            size = math.sqrt(2 * left * _BLOCK_COST_S / (self.workers * self._rate))
        else:
            size = left
        parts = min(left, max(self.workers, math.ceil(left / size)))
        bounds = [start + left * i // parts for i in range(parts + 1)]
        blocks = [(n, q, seed, lo, hi, profile) for lo, hi in zip(bounds, bounds[1:])]
        futures = [self._pool.submit(_sweep_block, block) for block in blocks]
        here = {}
        # this process takes blocks from the back until it meets one that a
        # worker has taken; then the workers have taken every block before it
        for i in reversed(range(parts)):
            if not futures[i].cancel():
                break
            here[i] = self._here(blocks[i])
        self.blocks += parts - len(here)
        return results + [here[i] if i in here else futures[i].result() for i in range(parts)]


def sweep_at(
    n: int,
    q: int,
    trials: int,
    seed: int,
    profile: bool = False,
    scheduler: Scheduler | None = None,
) -> SweepResult:
    """Insertion-shape statistics of ``trials`` words at an explicit alphabet size.

    ``profile=True`` runs the shape kernel and also gives the mean column
    profile; the default word kernel gives the same statistics without
    insertion.  The result's ``kernel`` says whether they ran compiled or
    in Python.  The trials run on ``scheduler``, serially in this process
    if none is given; the result is bit-identical however they are
    scheduled, because every trial stream is derived from ``(seed, trial)``
    and the merged quantities are integer sums.
    """
    _check_sizes(n, trials, q)
    results = (scheduler or Scheduler(1, trials)).run(n, q, seed, trials, profile)

    lis, lis2, lds, lds2, hits = map(sum, zip(*(sums for sums, _, _ in results)))
    col_sums: list[int] = []
    for _, cols, _ in results:
        _add_columns(col_sums, cols)

    def stats(total: int, total_sq: int) -> tuple[float, float]:
        mean = total / trials
        if trials < 2:
            return mean, 0.0
        var = (total_sq - total * total / trials) / (trials - 1)
        return mean, math.sqrt(max(var, 0.0))

    mean_lis, sigma_lis = stats(lis, lis2)
    mean_lds, sigma_lds = stats(lds, lds2)
    return SweepResult(
        mean_lis=mean_lis,
        sigma_lis=sigma_lis,
        mean_lds=mean_lds,
        sigma_lds=sigma_lds,
        staircase_fraction=hits / trials,
        mean_profile=tuple(v / trials for v in col_sums),
        # one name, unless a worker could not load what the others did
        kernel="+".join(sorted({kernel for _, _, kernel in results})),
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
        import numpy as np

        return np.arange(len(self.col_counts) + 1) / self.scale

    def step(self, x) -> np.ndarray:
        import numpy as np

        xs = np.atleast_1d(np.asarray(x, dtype=float))
        # the nudge keeps grid points that are meant to be breakpoints from
        # flooring into the previous box after the divide-multiply roundtrip
        cols = np.floor(xs * self.scale + 1e-9).astype(int)
        counts = np.asarray(self.col_counts + (0.0,))
        cols = np.clip(cols, 0, len(self.col_counts))
        return counts[cols] / self.scale

    def linear(self, x) -> np.ndarray:
        import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

    xs = _nonnegative(x)
    return _scalar_or_array(np.where(xs < 1.0, 1.0 - xs, 0.0))


_SUP_GRID_POINTS = 10**4  # the uniform grid of sup_norm_distance


def sup_norm_distance(f: ShapeFunction, curve) -> float:
    """Max absolute difference between the shape function and a reference
    curve, over a uniform grid plus the shape's breakpoints.

    The grid spans [0, max(support, 1)]: the reference curves live on the
    unit interval, so stopping at a smaller support would hide the region
    where the shape is already 0 but the curve is not.  Both the step and
    the piecewise-linear forms enter the maximum.
    """
    import numpy as np

    hi = max(f.max_support, 1.0)
    xs = np.concatenate([np.linspace(0.0, hi, _SUP_GRID_POINTS), f.breakpoints()])
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
