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

A switch costs the boxes of its two labels, not the whole tableau.  Two
boxes with the same label share neither a row nor a column, so they are
never adjacent: every edge of the joint subshape joins an inner-i box to a
plain-j box.  The boxes that move are therefore exactly the inner-i boxes
with a plain-j neighbour and those neighbours.  The tableau was a mixed
tableau before the switch and only the moved boxes changed label, so it is
one afterwards unless a moved box shares a row or a column with another
box of its new label.  ``_switch`` works on an index from each label to
its set of boxes, looks only at those two sets, and checks that each of
them still has distinct rows and distinct columns.

K-infusion drives an inner standard tableau through an outer increasing
filling by a full switch sequence; any viable sequence (a shuffle of the
standard one respecting both per-row orders) computes the same result.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import index

from .rng import generator
from .tableaux import IncreasingTableau, antidiagonal_cells
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


def _valid_cells(cells: Cells) -> bool:
    seen_row: set[tuple[int, int]] = set()
    seen_col: set[tuple[int, int]] = set()
    for (r, c), v in cells.items():
        if (r, v) in seen_row or (c, v) in seen_col:
            return False
        seen_row.add((r, v))
        seen_col.add((c, v))
    return True


Where = dict[int, set[tuple[int, int]]]


def _index(cells: Cells) -> Where:
    where: Where = {}
    for box, v in cells.items():
        where.setdefault(v, set()).add(box)
    return where


def _cells(where: Where) -> Cells:
    return {box: v for v, boxes in where.items() for box in boxes}


def _apart(boxes) -> bool:
    """No two of ``boxes`` share a row or a column."""
    if len(boxes) < 2:  # most label sets of a rectification are one box
        return True
    return len({r for r, _ in boxes}) == len(boxes) == len({c for _, c in boxes})


def _switch(where: Where, i: int, j: int) -> bool:
    """Switch the label index in place; False (index untouched) means null."""
    inner = where.get(-i)
    plain = where.get(j)
    if not inner or not plain:
        return True
    up, down = set(), set()  # boxes turning plain, boxes turning inner
    for r, c in inner:
        neighbours = {(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)} & plain
        if neighbours:
            up.add((r, c))
            down |= neighbours
    if not up:
        return True
    new_plain = (plain - down) | up
    new_inner = (inner - up) | down
    if not (_apart(new_plain) and _apart(new_inner)):
        return False
    where[j] = new_plain
    where[-i] = new_inner
    return True


def switch(i: int, j: int, t: MixedTableau | None) -> MixedTableau | None:
    """Interchange inner-``i`` and plain-``j`` labels inside every
    non-singleton connected component of their joint subshape; returns the
    null tableau (None) when the exchange is illegal, and maps null to null."""
    if i < 1 or j < 1:
        raise ValueError("alphabet labels are 1-based")
    if t is None:
        return None
    where = _index(t.cells)
    return MixedTableau(_cells(where)) if _switch(where, i, j) else None


SwitchSequence = tuple[tuple[int, int], ...]


def _standard_pairs(p: int, q: int):
    return ((i, j) for i in range(p, 0, -1) for j in range(1, q + 1))


def standard_sequence(p: int, q: int) -> SwitchSequence:
    """``(p,1)..(p,q), (p-1,1)..(p-1,q), ..., (1,1)..(1,q)``."""
    return tuple(_standard_pairs(p, q))


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
    currently emittable pairs.  The ready inner labels are kept sorted;
    emitting (i, j) can make only i (now at j + 1) and i - 1 ready.  The
    p*q uniform draws come from one call; a step with draw u takes the
    ready label at position ``int(u * len(ready))``."""
    rng = generator(seed)
    next_j = {i: 1 for i in range(1, p + 1)}
    next_i = {j: p for j in range(1, q + 1)}
    ready = [p]  # (p, 1) comes first
    out = []
    for u in rng.random(p * q).tolist():
        i = ready.pop(int(u * len(ready)))
        j = next_j[i]
        out.append((i, j))
        next_j[i] += 1
        next_i[j] -= 1
        if j < q and next_i[j + 1] == i:
            insort(ready, i)
        if i > 1 and next_j[i - 1] == j:
            insort(ready, i - 1)
    return tuple(out)


def _infuse(inner: Cells, plain: Cells, sequence=None, plain_alphabet=None) -> Where:
    """The label index after switching the inner filling ``inner`` (positive
    labels) through ``plain`` by ``sequence``, the standard one by default,
    which is walked without being built."""
    p = max(inner.values(), default=0)
    q = plain_alphabet if plain_alphabet is not None else max(plain.values(), default=0)
    if q < max(plain.values(), default=0):
        raise ValueError("plain_alphabet smaller than the largest plain label")
    if sequence is None:
        sequence = _standard_pairs(p, q)
    elif not is_viable(sequence, p, q):
        raise ValueError(f"switch sequence is not viable for p={p}, q={q}")
    if inner.keys() & plain.keys():
        raise ValueError("inner and plain regions overlap")
    cells: Cells = {box: -v for box, v in inner.items()}
    cells.update(plain)
    if not _valid_cells(cells):
        raise ValueError("regions do not form a mixed tableau")
    where = _index(cells)
    for i, j in sequence:
        if not _switch(where, i, j):
            raise ValueError("switch sequence hit the null tableau")
    return where


def _plain_to_tableau(where: Where) -> IncreasingTableau:
    """The plain region of the label index ``where`` as a tableau."""
    rows: dict[int, dict[int, int]] = {}
    for v, boxes in where.items():
        if v > 0:
            for r, c in boxes:
                rows.setdefault(r, {})[c] = v
    out = []
    for r in range(1, max(rows, default=0) + 1):
        row = rows.get(r, {})
        if sorted(row) != list(range(1, len(row) + 1)):
            raise ValueError("plain region is not top-left justified")
        out.append(tuple(row[c] for c in range(1, len(row) + 1)))
    return IncreasingTableau(tuple(out))


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
    where = _infuse(inner, dict(b), sequence, plain_alphabet)
    return _plain_to_tableau(where), {
        box: -v for v, boxes in where.items() if v < 0 for box in boxes
    }


def _superstandard_staircase(m: int) -> Cells:
    """The cells of ``superstandard(staircase(m))``: row r holds the next
    m - r + 1 integers.  Built as cells, since the filling is increasing
    by construction and needs no tableau's check."""
    cells: Cells = {}
    v = 0
    for r in range(1, m + 1):
        for c in range(1, m - r + 2):
            v += 1
            cells[(r, c)] = v
    return cells


def k_rectify(w: Word, sequence=None) -> IncreasingTableau:
    """K-rectification of the antidiagonal tableau of ``w`` driven by the
    superstandard filling of the inner staircase: the plain region of
    ``k_infusion``, without building the inner tableau or reading back the
    inner region."""
    n = len(w.letters)
    if n == 0:
        return IncreasingTableau(())
    where = _infuse(_superstandard_staircase(n - 1), antidiagonal_cells(w), sequence,
                    plain_alphabet=w.alphabet_size)
    return _plain_to_tableau(where)
