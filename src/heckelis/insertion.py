"""Hecke insertion, its inverse, and classical RSK baselines.

Inserting a letter into an increasing tableau either bumps entries down a
chain of rows or terminates: the terminal step adjoins a box (flag 1) or
leaves the tableau's shape untouched (flag 0).  Feeding a whole word through
and recording where each step lands gives the pair ``(P, Q)`` with ``P``
increasing and ``Q`` standard set-valued; the common shape of the pair is
the sampling statistic used throughout the package.

Rows are plain Python lists inside the workers; every public function is a
pure function of its inputs, so calls can run concurrently on distinct
words.  ``_insertion_rows`` is the one shape loop: it reads letters from
any iterable and builds P without Q.  ``shape_parts`` reads its row
lengths, so the samplers feed it a trial's letters as they are drawn and
stop drawing once the shape is final, and ``heckeshape`` feeds it the
letters of a checked ``Word``; ``insertion_tableau`` keeps its rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .tableaux import IncreasingTableau, SetValuedStandardTableau, YoungDiagram
from .words import Word


@dataclass(frozen=True)
class HeckePair:
    p: IncreasingTableau
    q: SetValuedStandardTableau

    def __post_init__(self):
        p_parts = tuple(map(len, self.p.rows))
        q_parts = tuple(map(len, self.q.rows))
        if p_parts != q_parts:
            raise ValueError(f"P shape {p_parts} differs from Q shape {q_parts}")

    @property
    def shape(self) -> YoungDiagram:
        return self.p.shape


def _insert(rows: list[list[int]], x: int) -> tuple[int, int, int]:
    """Insert ``x`` into ``rows`` (mutated).  Returns 0-based (row, col, flag).

    Bumping step: the smallest entry y > x is replaced by x when the left
    and upper neighbours stay smaller (the full increasingness check reduces
    to this local one, since x < y keeps the right and lower neighbours
    safe); either way y drops to the next row.  Terminating step: x >= the
    whole row, so x is adjoined when legal, and otherwise the recording
    corner is the bottom of the column holding the row's last box.
    """
    r = 0
    while True:
        if r == len(rows):
            # A value passed below the last row can always start a new row:
            # the first entry of the row above is strictly smaller.
            rows.append([x])
            return r, 0, 1
        row = rows[r]
        if x >= row[-1]:
            c = len(row)
            if row[-1] < x and (
                r == 0 or (len(rows[r - 1]) > c and rows[r - 1][c] < x)
            ):
                row.append(x)
                return r, c, 1
            col = c - 1
            rr = r
            while rr + 1 < len(rows) and len(rows[rr + 1]) > col:
                rr += 1
            return rr, col, 0
        pos = bisect_right(row, x)
        y = row[pos]
        if (pos == 0 or row[pos - 1] < x) and (r == 0 or rows[r - 1][pos] < x):
            row[pos] = x
        x = y
        r += 1


def hecke(w: Word) -> HeckePair:
    """The full correspondence: insert ``w`` letter by letter, recording the
    label ``j`` at the corner produced by the ``j``-th insertion (a new
    singleton box on flag 1, adjoined to the existing corner set on flag 0)."""
    rows: list[list[int]] = []
    qrows: list[list[set[int]]] = []
    for j, x in enumerate(w.letters, start=1):
        r, c, flag = _insert(rows, x)
        if flag:
            if r == len(qrows):
                qrows.append([])
            qrows[r].append({j})
        else:
            qrows[r][c].add(j)
    p = IncreasingTableau(tuple(tuple(row) for row in rows))
    q = SetValuedStandardTableau(
        tuple(tuple(frozenset(s) for s in row) for row in qrows), len(w)
    )
    return HeckePair(p, q)


def _insertion_rows(letters, q: int) -> list[list[int]]:
    """Rows of the insertion tableau of ``letters``, each in ``{1..q}``;
    skips building Q entirely.  The one shape loop.

    An increasing tableau over ``{1..q}`` fits inside staircase(q) and a
    shape never shrinks, so once the flag-1 steps have added its q(q+1)/2
    boxes the shape is final, and so is the tableau: staircase(q) has only
    one increasing filling over ``{1..q}``.  The loop stops there and reads
    no further letter from ``letters``."""
    rows: list[list[int]] = []
    missing = q * (q + 1) // 2
    for x in letters:
        missing -= _insert(rows, x)[2]
        if not missing:
            break
    return rows


def shape_parts(letters, q: int) -> tuple[int, ...]:
    """Row lengths of the insertion tableau of ``letters``, each in
    ``{1..q}``: the lengths of ``_insertion_rows``."""
    return tuple(len(row) for row in _insertion_rows(letters, q))


def insertion_tableau(w: Word) -> IncreasingTableau:
    """The insertion tableau P of ``w`` without its recording tableau:
    ``hecke(w).p`` for the price of ``_insertion_rows``."""
    rows = _insertion_rows(w.letters, w.alphabet_size)
    return IncreasingTableau(tuple(tuple(row) for row in rows))


def heckeshape(w: Word) -> YoungDiagram:
    """Shape of the insertion tableau of ``w``: ``shape_parts`` of its letters."""
    return YoungDiagram(shape_parts(w.letters, w.alphabet_size))


def _reverse_step(rows: list[list[int]], corner: tuple[int, int], flag: int) -> int:
    """Undo one insertion on mutable ``rows`` from its recording ``corner``
    (0-based, as ``_insert`` returns it) and ``flag``: remove the corner
    value when flag is 1, then walk up replacing the largest smaller entry
    of each row whenever the result stays increasing, passing that entry
    up.  Returns the letter."""
    r, c = corner
    if not (
        0 <= r < len(rows)
        and len(rows[r]) == c + 1
        and (r + 1 == len(rows) or len(rows[r + 1]) <= c)
    ):
        raise ValueError(f"{corner} (0-based) is not a corner of the tableau")
    y = rows[r][c]
    if flag:
        rows[r].pop()
        if not rows[r]:
            rows.pop()
    for rr in range(r - 1, -1, -1):
        row = rows[rr]
        pos = bisect_left(row, y) - 1
        if pos < 0:
            raise ValueError("reverse insertion found no smaller entry; "
                             "triple did not arise from a forward step")
        x = row[pos]
        below_ok = rr + 1 >= len(rows) or len(rows[rr + 1]) <= pos or rows[rr + 1][pos] > y
        right_ok = pos + 1 >= len(row) or row[pos + 1] > y
        if below_ok and right_ok:
            row[pos] = y
        y = x
    return y


def hecke_inverse(pq: HeckePair, alphabet_size: int | None = None) -> Word:
    """Recover the word: repeatedly strip the largest label of Q (flag 1
    exactly when it sits alone in its box) and reverse-insert from there.

    Each label's boxes come from an index built once from Q.  A box leaves
    Q only once it is empty and only from the end of its row, so the index
    stays true for every label not yet stripped."""
    rows = [list(row) for row in pq.p.rows]
    qrows = [[set(s) for s in row] for row in pq.q.rows]
    boxes: dict[int, list[tuple[int, int]]] = {}
    for r, row in enumerate(qrows):
        for c, s in enumerate(row):
            for label in s:
                boxes.setdefault(label, []).append((r, c))
    n = pq.q.n
    letters: list[int] = []
    for label in range(n, 0, -1):
        hits = boxes.get(label, ())
        if len(hits) != 1:
            raise ValueError(f"label {label} appears in {len(hits)} boxes of Q")
        r, c = hits[0]
        flag = 1 if len(qrows[r][c]) == 1 else 0
        letters.append(_reverse_step(rows, (r, c), flag))
        qrows[r][c].discard(label)
        if flag:
            qrows[r].pop()
            if not qrows[r]:
                qrows.pop()
    if rows or qrows:
        raise ValueError("reverse insertion did not empty the pair")
    letters.reverse()
    if alphabet_size is None:
        alphabet_size = max(letters, default=1)
    return Word(tuple(letters), alphabet_size)


def rsk_shape(w: Word) -> YoungDiagram:
    """Shape under classical RSK row insertion (weak rows, strict columns).

    The first row length is the longest weakly increasing subsequence and
    the first column length is the LDS; kept as a contrast baseline and for
    the RSK pushforward measure.  On a permutation's one-line word it is
    the Schensted shape.
    """
    rows: list[list[int]] = []
    for x in w.letters:
        r = 0
        while True:
            if r == len(rows):
                rows.append([x])
                break
            row = rows[r]
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                break
            x, row[pos] = row[pos], x
            r += 1
    return YoungDiagram(tuple(len(row) for row in rows))
