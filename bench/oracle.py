"""Independent recomputation of the data files the seeded workloads write.

The benchmark runs under seeds for which no reference digest is stored, so
it needs another way to tell a correct output from a wrong one.  These
checks regenerate each trial's input straight from numpy's Philox streams
(the documented ``(seed, trial)`` keying, not the package's ``rng`` layer)
and recompute the statistics by routes that share no code with the kernels
they check:

* ``sweep``: the first row of the insertion shape is the LIS and the first
  column the LDS (patience passes with bisect), and the shape is the
  staircase exactly when the Demazure product is the longest element;
* ``curve``: in the staircase regime the shape is final once the Demazure
  product reaches the longest element; only a word that never gets there
  falls back to the package's ``heckeshape``;
* ``patience``: greedy ties-allowed patience played on all decks at once
  with numpy.

Each check returns a list of problems; an empty list means the files agree
with the recomputation.  Floats are compared to 1.5e-6, one unit of the six
decimals the CLI prints plus rounding.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from pathlib import Path

import numpy as np

TOL = 1.5e-6


def trial_letters(seed: int, trial: int, n: int, q: int) -> list[int]:
    seq = np.random.SeedSequence(seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(seq)).integers(1, q + 1, size=n).tolist()


def longest_increasing(letters) -> int:
    tails: list[int] = []
    for x in letters:
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def staircase_prefix(letters, q: int) -> int | None:
    """Length of the shortest prefix whose Demazure product is the longest
    element of S_{q+1}, or None.  Every ascent the product absorbs adds one
    to its length, and the longest element has length q(q+1)/2."""
    perm = list(range(q + 1))
    length, target = 0, q * (q + 1) // 2
    for i, x in enumerate(letters, start=1):
        if perm[x - 1] < perm[x]:
            perm[x - 1], perm[x] = perm[x], perm[x - 1]
            length += 1
            if length == target:
                return i
    return None


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(lines))[1:]


def _compare(name: str, got: list[list[str]], want: list[list], problems: list[str]) -> None:
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} rows, expected {len(want)}")
        return
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        for g, w in zip(g_row, w_row):
            ok = g == w if isinstance(w, str) else abs(float(g) - w) <= TOL
            if not ok:
                problems.append(f"{name} row {i + 1}: {g_row} != {w_row}")
                return


def _stats(total: int, total_sq: int, trials: int) -> tuple[float, float]:
    mean = total / trials
    if trials < 2:
        return mean, 0.0
    return mean, math.sqrt(max((total_sq - total * total / trials) / (trials - 1), 0.0))


def check_sweep(workdir: Path, seed: int, n: int, alphas, trials: int) -> list[str]:
    want = []
    for alpha in alphas:
        q = math.floor(n ** float(alpha) + 0.5)
        lis = lis2 = lds = lds2 = stair = 0
        for t in range(trials):
            letters = trial_letters(seed, t, n, q)
            a = longest_increasing(letters)
            b = longest_increasing([-x for x in letters])
            lis, lis2, lds, lds2 = lis + a, lis2 + a * a, lds + b, lds2 + b * b
            stair += staircase_prefix(letters, q) is not None
        mean_lis, sigma_lis = _stats(lis, lis2, trials)
        mean_lds, sigma_lds = _stats(lds, lds2, trials)
        want.append([str(n), str(q), f"alpha={float(alpha):g}", str(trials),
                     mean_lis, mean_lds, sigma_lis, sigma_lds, stair / trials])
    problems: list[str] = []
    _compare("sweep.csv", _rows(workdir / "sweep.csv"), want, problems)
    return problems


def _plancherel(x: float) -> float:
    if x >= 1.0:
        return 0.0
    lo, hi = 0.0, math.pi
    for _ in range(60):
        t = 0.5 * (lo + hi)
        if (math.sin(t) - t * math.cos(t)) / math.pi + math.cos(t) > x:
            lo = t
        else:
            hi = t
    t = 0.5 * (lo + hi)
    return (math.sin(t) - t * math.cos(t)) / math.pi


def check_curve(workdir: Path, seed: int, n: int, q: int, trials: int,
                grid_points: int = 400) -> list[str]:
    from heckelis.insertion import heckeshape
    from heckelis.words import Word

    profile = np.zeros(q, dtype=np.int64)
    for t in range(trials):
        letters = trial_letters(seed, t, n, q)
        if staircase_prefix(letters, q) is not None:
            cols = list(range(q, 0, -1))
        else:
            parts = heckeshape(Word(tuple(letters), q)).parts
            cols = [sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1)] if parts else []
        profile[: len(cols)] += cols
    counts = np.trim_zeros(profile, "b") / trials
    scale = 2.0 * math.sqrt(n) if q * q >= n else float(q)
    knots_x = np.arange(len(counts) + 1) / scale
    knots_y = np.append(counts, 0.0) / scale
    hi = max(len(counts) / scale, 1.0)
    want = []
    for i in range(grid_points + 1):
        x = hi * i / grid_points
        f = float(np.interp(x, knots_x, knots_y, right=0.0))
        want.append([x, f, _plancherel(x), 1.0 - x if x < 1.0 else 0.0])
    problems: list[str] = []
    _compare("curve.csv", _rows(workdir / "curve.csv"), want, problems)
    return problems


def check_patience(workdir: Path, seed: int, ranks: int, copies: int, trials: int,
                   prefix: str = "deck") -> list[str]:
    deck = np.repeat(np.arange(1, ranks + 1, dtype=np.int16), copies)
    cards = np.empty((trials, deck.size), dtype=np.int16)
    for t in range(trials):
        seq = np.random.SeedSequence(seed, spawn_key=(t,))
        cards[t] = deck[np.random.Generator(np.random.Philox(seq)).permutation(deck.size)]
    # a pile that does not exist yet has a top above every rank
    tops = np.full((trials, ranks), ranks + 1, dtype=np.int16)
    sizes = np.zeros((trials, ranks), dtype=np.int32)
    rows = np.arange(trials)
    for j in range(deck.size):
        x = cards[:, j]
        pile = (tops < x[:, None]).sum(axis=1)
        tops[rows, pile] = x
        sizes[rows, pile] += 1
    piles = (sizes > 0).sum(axis=1)
    hist = np.bincount(piles)
    want_hist = [[str(k), str(int(c))] for k, c in enumerate(hist) if c]
    want_sizes = [[str(i + 1), float(s) / trials]
                  for i, s in enumerate(sizes.sum(axis=0)[: piles.max()])]
    problems: list[str] = []
    _compare("histogram", _rows(workdir / f"{prefix}_histogram.csv"), want_hist, problems)
    _compare("pile sizes", _rows(workdir / f"{prefix}_pile_sizes.csv"), want_sizes, problems)
    return problems
