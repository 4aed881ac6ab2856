"""Mixed tableaux, switch operators, and K-infusion.

A mixed tableau fills some of the boxes of a shape with labels from two
alphabets, an inner one (rendered underlined, stored here as negative
integers) and a plain one (positive integers).  Within each row and each
column, each alphabet's labels appear at most once; no increasingness is
demanded.  ``switch(i, j)`` looks at the subshape of boxes labelled inner-i
or plain-j and, inside every connected component with at least two boxes,
turns the inner-i labels into plain-j and vice versa; if the exchange
breaks the mixed-tableau condition the result is the null tableau, which
every switch maps to itself.

Connected components use edge adjacency (shared box side), the usual
jeu-de-taquin convention.

K-infusion drives an inner standard tableau through an outer increasing
filling by a full switch sequence; any viable sequence (a shuffle of the
standard one respecting both per-row orders) computes the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .rng import generator
from .tableaux import IncreasingTableau, antidiagonal_cells, staircase, superstandard
from .words import Word

Cells = dict[tuple[int, int], int]


@dataclass(frozen=True)
class MixedTableau:
    """Two-alphabet filling; inner labels are stored as negative integers."""

    cells: dict

    def __post_init__(self):
        cells = {(index(r), index(c)): index(v) for (r, c), v in self.cells.items()}
        object.__setattr__(self, "cells", cells)
        if not _valid_cells(cells):
            raise ValueError("an alphabet repeats within a row or column")

    def dump(self) -> str:
        """Row-per-line debug format; inner labels carry a ``_`` prefix."""
        if not self.cells:
            return ""
        rows = max(r for r, _ in self.cells)
        lines = []
        for r in range(1, rows + 1):
            cols = [c for (rr, c) in self.cells if rr == r]
            if not cols:
                lines.append(".")
                continue
            entries = []
            for c in range(1, max(cols) + 1):
                v = self.cells.get((r, c))
                if v is None:
                    entries.append(".")
                elif v < 0:
                    entries.append(f"_{-v}")
                else:
                    entries.append(str(v))
            lines.append(" ".join(entries))
        return "\n".join(lines)


def parse_mixed(text: str) -> MixedTableau:
    """Inverse of :meth:`MixedTableau.dump`; ``.`` marks an absent box."""
    cells: Cells = {}
    for r, line in enumerate(text.strip().splitlines(), start=1):
        for c, token in enumerate(line.split(), start=1):
            if token == ".":
                continue
            cells[(r, c)] = -int(token[1:]) if token.startswith("_") else int(token)
    return MixedTableau(cells)


def _valid_cells(cells: Cells) -> bool:
    seen_row: set[tuple[int, int]] = set()
    seen_col: set[tuple[int, int]] = set()
    for (r, c), v in cells.items():
        if (r, v) in seen_row or (c, v) in seen_col:
            return False
        seen_row.add((r, v))
        seen_col.add((c, v))
    return True


def _switch_cells(cells: Cells, i: int, j: int) -> Cells | None:
    """Core of the switch operator on a raw cell dict; None means null."""
    inner, plain = -i, j
    sub = [box for box, v in cells.items() if v == inner or v == plain]
    if not sub:
        return dict(cells)
    subset = set(sub)
    out = dict(cells)
    unvisited = set(sub)
    while unvisited:
        start = unvisited.pop()
        component = [start]
        frontier = [start]
        while frontier:
            r, c = frontier.pop()
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in subset and nb in unvisited:
                    unvisited.discard(nb)
                    component.append(nb)
                    frontier.append(nb)
        if len(component) > 1:
            for box in component:
                out[box] = plain if cells[box] == inner else inner
    if not _valid_cells(out):
        return None
    return out


def switch(i: int, j: int, t: MixedTableau | None) -> MixedTableau | None:
    """Interchange inner-``i`` and plain-``j`` labels inside every
    non-singleton connected component of their joint subshape; returns the
    null tableau (None) when the exchange is illegal, and maps null to null."""
    if i < 1 or j < 1:
        raise ValueError("alphabet labels are 1-based")
    if t is None:
        return None
    new = _switch_cells(t.cells, i, j)
    return None if new is None else MixedTableau(new)


SwitchSequence = tuple[tuple[int, int], ...]


def standard_sequence(p: int, q: int) -> SwitchSequence:
    """``(p,1)..(p,q), (p-1,1)..(p-1,q), ..., (1,1)..(1,q)``."""
    return tuple((i, j) for i in range(p, 0, -1) for j in range(1, q + 1))


def is_viable(seq, p: int, q: int) -> bool:
    """A shuffle of the standard sequence: every pair once, the pairs of a
    fixed inner label in plain order, the pairs of a fixed plain label in
    decreasing inner order."""
    seq = tuple(seq)
    if sorted(seq) != sorted(standard_sequence(p, q)):
        return False
    last_j = {i: 0 for i in range(1, p + 1)}
    last_i = {j: p + 1 for j in range(1, q + 1)}
    for i, j in seq:
        if j <= last_j[i] or i >= last_i[j]:
            return False
        last_j[i] = j
        last_i[j] = i
    return True


def random_viable_sequence(p: int, q: int, seed) -> SwitchSequence:
    """Uniformly random linear extension step: at each point pick one of the
    currently emittable pairs."""
    rng = generator(seed)
    next_j = {i: 1 for i in range(1, p + 1)}
    next_i = {j: p for j in range(1, q + 1)}
    out = []
    for _ in range(p * q):
        ready = [
            (i, next_j[i])
            for i in range(1, p + 1)
            if next_j[i] <= q and next_i[next_j[i]] == i
        ]
        i, j = ready[int(rng.integers(len(ready)))]
        out.append((i, j))
        next_j[i] += 1
        next_i[j] -= 1
    return tuple(out)


def mixed_from_regions(inner: Cells, plain: Cells) -> MixedTableau:
    cells: Cells = {box: -v for box, v in inner.items()}
    for box, v in plain.items():
        if box in cells:
            raise ValueError(f"box {box} used by both regions")
        cells[box] = v
    return MixedTableau(cells)


def _infusion_cells(inner: Cells, plain: Cells, sequence=None, plain_alphabet=None) -> Cells:
    p = max(inner.values(), default=0)
    q = plain_alphabet if plain_alphabet is not None else max(plain.values(), default=0)
    if q < max(plain.values(), default=0):
        raise ValueError("plain_alphabet smaller than the largest plain label")
    if sequence is None:
        sequence = standard_sequence(p, q)
    elif not is_viable(sequence, p, q):
        raise ValueError(f"switch sequence is not viable for p={p}, q={q}")
    cells: Cells = {box: -v for box, v in inner.items()}
    cells.update(plain)
    if not _valid_cells(cells):
        raise ValueError("regions do not form a mixed tableau")
    for i, j in sequence:
        cells = _switch_cells(cells, i, j)
        if cells is None:
            raise ValueError("switch sequence hit the null tableau")
    return cells


def _plain_to_tableau(cells: Cells) -> IncreasingTableau:
    plain = {box: v for box, v in cells.items() if v > 0}
    if not plain:
        return IncreasingTableau(())
    nrows = max(r for r, _ in plain)
    rows = []
    for r in range(1, nrows + 1):
        cols = sorted(c for (rr, c) in plain if rr == r)
        if cols != list(range(1, len(cols) + 1)):
            raise ValueError("plain region is not top-left justified")
        rows.append(tuple(plain[(r, c)] for c in cols))
    return IncreasingTableau(tuple(rows))


def k_infusion(
    a: IncreasingTableau, b: Cells, sequence=None, plain_alphabet=None
) -> tuple[IncreasingTableau, Cells]:
    """Infuse the inner standard tableau ``a`` through the skew filling ``b``.

    Returns the pair of alphabet regions after the full switch sequence:
    the plain region (the rectification of ``b``, the part consumed
    downstream) and the inner region's cells.  ``sequence`` defaults to the
    standard one and must be viable otherwise; ``plain_alphabet`` widens the
    plain alphabet beyond the largest label actually present.
    """
    inner = {box: a.rows[box[0] - 1][box[1] - 1] for box in a.shape.boxes()}
    cells = _infusion_cells(inner, dict(b), sequence, plain_alphabet)
    return _plain_to_tableau(cells), {box: -v for box, v in cells.items() if v < 0}


def k_rectify(w: Word, sequence=None) -> IncreasingTableau:
    """K-rectification of the antidiagonal tableau of ``w`` driven by the
    superstandard filling of the inner staircase."""
    n = len(w.letters)
    if n == 0:
        return IncreasingTableau(())
    inner = superstandard(staircase(n - 1))
    outer = antidiagonal_cells(w)
    plain_part, _ = k_infusion(inner, outer, sequence, plain_alphabet=w.alphabet_size)
    return plain_part


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
