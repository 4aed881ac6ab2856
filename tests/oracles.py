"""Independent brute-force oracles.

Everything here enumerates rather than computes: subsequences for LIS/LDS,
full fillings for the tableau counts, every cell of a mixed tableau for a
switch, every inner label for a viable switch sequence, one deck at a
time for the deck simulation, one ``SeedSequence`` per trial for the block
streams.  None of it touches the package's dynamic programs, product
formulas, insertion code, label index, block dealer or key hash, so these
functions can sit on the other side of every two-route check.
"""

import math
from itertools import combinations, product

import numpy as np

from heckelis.patience import DeckStats, play_greedy
from heckelis.rng import generator, trial_stream
from heckelis.words import Word


def brute_lis(letters) -> int:
    best = 0
    n = len(letters)
    for r in range(1, n + 1):
        for idx in combinations(range(n), r):
            if all(letters[idx[i]] < letters[idx[i + 1]] for i in range(r - 1)):
                best = max(best, r)
                break  # one witness per length is enough
    return best


def brute_lds(letters) -> int:
    return brute_lis([-x for x in letters])


def brute_lwis(letters) -> int:
    """Longest weakly increasing subsequence, by enumeration."""
    best = 0
    n = len(letters)
    for r in range(1, n + 1):
        for idx in combinations(range(n), r):
            if all(letters[idx[i]] <= letters[idx[i + 1]] for i in range(r - 1)):
                best = max(best, r)
                break
    return best


def brute_end_positions(letters) -> dict[int, int]:
    """r(w, t) by enumerating all increasing subsequences ending at each spot."""
    n = len(letters)
    endlen = [1] * n
    for p in range(n):
        for r in range(1, p + 1):
            for idx in combinations(range(p), r):
                chain = [letters[i] for i in idx] + [letters[p]]
                if all(chain[i] < chain[i + 1] for i in range(len(chain) - 1)):
                    endlen[p] = max(endlen[p], r + 1)
    out = {}
    for p, t in enumerate(endlen):
        out[t] = p + 1
    return {t: out[t] for t in sorted(out)}


def _boxes(parts):
    return [(r, c) for r, p in enumerate(parts) for c in range(p)]


def brute_count_increasing(parts, q) -> int:
    """Fill the boxes in reading order with values 1..q, dropping a partial
    filling as soon as a box is not above its left and upper neighbours;
    count the complete fillings.  A box reads only boxes filled before it,
    so values left over from an abandoned filling are never read."""
    boxes = _boxes(parts)
    grid = {}

    def fill(k):
        if k == len(boxes):
            return 1
        r, c = boxes[k]
        floor = max(grid.get((r, c - 1), 0), grid.get((r - 1, c), 0))
        count = 0
        for v in range(floor + 1, q + 1):
            grid[(r, c)] = v
            count += fill(k + 1)
        return count

    return fill(0)


def brute_count_semistandard(parts, q) -> int:
    boxes = _boxes(parts)
    count = 0
    for vals in product(range(1, q + 1), repeat=len(boxes)):
        grid = dict(zip(boxes, vals))
        ok = True
        for (r, c), v in grid.items():
            if (r, c - 1) in grid and grid[(r, c - 1)] > v:
                ok = False
                break
            if (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_count_set_valued(parts, n) -> int:
    """Assign each of 1..n to a box; keep the assignments whose box sets are
    all nonempty and satisfy max(box) < min(right box), min(lower box)."""
    boxes = _boxes(parts)
    k = len(boxes)
    if k == 0:
        return 1 if n == 0 else 0
    index = {b: i for i, b in enumerate(boxes)}
    right = [index.get((r, c + 1)) for (r, c) in boxes]
    below = [index.get((r + 1, c)) for (r, c) in boxes]
    count = 0
    for assign in product(range(k), repeat=n):
        lo = [None] * k
        hi = [None] * k
        for label, b in enumerate(assign):
            if lo[b] is None:
                lo[b] = label
            hi[b] = label
        if any(v is None for v in lo):
            continue
        ok = True
        for i in range(k):
            if right[i] is not None and hi[i] >= lo[right[i]]:
                ok = False
                break
            if below[i] is not None and hi[i] >= lo[below[i]]:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_count_standard(parts) -> int:
    """Standard Young tableaux by recursive corner placement of n, n-1, ..."""
    parts = tuple(parts)
    if not parts:
        return 1
    total = 0
    for r, p in enumerate(parts):
        if r + 1 == len(parts) or parts[r + 1] < p:
            rest = list(parts)
            rest[r] -= 1
            if rest[r] == 0:
                rest.pop()
            total += brute_count_standard(tuple(rest))
    return total


def all_partitions(max_size):
    """Every partition with at most ``max_size`` boxes, the empty one included."""
    out = [()]

    def extend(prefix, remaining, cap):
        for p in range(min(cap, remaining), 0, -1):
            new = prefix + (p,)
            out.append(new)
            extend(new, remaining - p, p)

    extend((), max_size, max_size)
    return sorted(set(out))


def brute_switch(cells, i, j):
    """Switch on a raw mixed-tableau cell dict by scanning every cell: find
    the connected components of the inner-``i``/plain-``j`` subshape, swap the
    labels of each component with two or more boxes, then re-check every row
    and column.  Returns the new dict, or None for the null tableau."""
    inner, plain = -i, j
    out = dict(cells)
    unvisited = {box for box, v in cells.items() if v == inner or v == plain}
    while unvisited:
        start = unvisited.pop()
        component = [start]
        frontier = [start]
        while frontier:
            r, c = frontier.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in unvisited:
                    unvisited.discard(nb)
                    component.append(nb)
                    frontier.append(nb)
        if len(component) > 1:
            for box in component:
                out[box] = plain if cells[box] == inner else inner
    seen = set()
    for (r, c), v in out.items():
        if ("row", r, v) in seen or ("col", c, v) in seen:
            return None
        seen.update({("row", r, v), ("col", c, v)})
    return out


def scan_viable_sequence(p, q, seed):
    """Random viable switch sequence drawn like
    ``kjdt.random_viable_sequence``, but rescanning every inner label for
    the ready pairs at each step."""
    rng = generator(seed)
    next_j = {i: 1 for i in range(1, p + 1)}
    next_i = {j: p for j in range(1, q + 1)}
    out = []
    for u in rng.random(p * q).tolist():
        ready = [
            (i, next_j[i])
            for i in range(1, p + 1)
            if next_j[i] <= q and next_i[next_j[i]] == i
        ]
        i, j = ready[int(u * len(ready))]
        out.append((i, j))
        next_j[i] += 1
        next_i[j] -= 1
    return tuple(out)


def trial_generator(base_seed, trial):
    """Trial ``trial``'s generator straight from the contract, one
    ``SeedSequence``, ``Philox`` and ``Generator`` per trial: the oracle of
    ``rng.trial_generators``."""
    return generator(trial_stream(base_seed, trial))


def scalar_deck_simulation(ranks, copies_per_rank, trials, seed) -> DeckStats:
    """``patience.deck_simulation`` one deck at a time: shuffle trial t with
    ``trial_generator(seed, t)``, deal it with ``play_greedy`` and add its
    pile count and pile sizes to plain Python sums."""
    deck = np.repeat(np.arange(1, ranks + 1), copies_per_rank)
    histogram: dict[int, int] = {}
    size_sums: list[int] = []
    pile_total = 0
    for t in range(trials):
        shuffled = deck[trial_generator(seed, t).permutation(deck.size)]
        piles = play_greedy(Word(tuple(shuffled.tolist()), ranks)).piles
        k = len(piles)
        histogram[k] = histogram.get(k, 0) + 1
        pile_total += k
        size_sums.extend([0] * (k - len(size_sums)))
        for i, pile in enumerate(piles):
            size_sums[i] += len(pile)
    return DeckStats(
        histogram=dict(sorted(histogram.items())),
        mean_piles=pile_total / trials,
        mean_pile_sizes=tuple(s / trials for s in size_sums),
    )


def scalar_plancherel_curve(x):
    """The Plancherel limit curve at one point, bisecting on ``t`` with
    ``math`` floats: ``x = (sin t - t cos t) / pi + cos t`` is decreasing on
    ``[0, pi]``; the value is ``y = (sin t - t cos t) / pi``, and 0 from 1 on."""
    if x < 0:
        raise ValueError(f"curve is defined on x >= 0, got {x}")
    if x >= 1.0:
        return 0.0
    lo, hi = 0.0, math.pi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.sin(mid) / math.pi - mid * math.cos(mid) / math.pi + math.cos(mid) > x:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return (math.sin(t) - t * math.cos(t)) / math.pi
