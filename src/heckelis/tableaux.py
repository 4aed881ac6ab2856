"""Young diagrams, tableau families, and exact enumeration.

Counts provided here:

* ``count_increasing(shape, q)``: strictly increasing fillings with entries
  at most ``q``, by a dynamic program over the values (``increasing_counts``
  gives every subshape of a bound in one pass; no product formula is known,
  and large prime factors in small cases suggest none exists).
* ``count_set_valued_standard(shape, n)``: standard set-valued fillings on
  the labels ``1..n``, by a dynamic program over the labels
  (``set_valued_counts`` gives every subshape of a bound in one pass).
* ``count_standard(shape)``: hook-length formula.
* ``count_semistandard(shape, q)``: hook-content formula.

Both dynamic programs, ``partitions_in_staircase`` and the corner helpers
grow shapes by one step of Young's lattice, ``_growths``.  Both tables are
built over the conjugate of a bound with more rows than columns.

All counting is exact integer or rational arithmetic; no floats appear in
any enumeration path.  Boxes are addressed (row, column), 1-based, English
orientation, everywhere in the package and in serialized formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import factorial
from operator import index, lt


@dataclass(frozen=True)
class YoungDiagram:
    """A partition: weakly decreasing sequence of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(map(index, self.parts)))
        for i, p in enumerate(self.parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {self.parts}")
            if i and self.parts[i - 1] < p:
                raise ValueError(f"parts must weakly decrease, got {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def contains(self, other: "YoungDiagram") -> bool:
        """Containment of diagrams: every row of ``other`` fits inside us."""
        if len(other.parts) > len(self.parts):
            return False
        return all(o <= s for o, s in zip(other.parts, self.parts))

    def boxes(self):
        """All (row, col) boxes, 1-based, row-major."""
        for r, part in enumerate(self.parts, start=1):
            for c in range(1, part + 1):
                yield (r, c)


EMPTY_DIAGRAM = YoungDiagram(())


def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of the parts tuple ``parts``: the columns past the
    next row's part and up to row r's part have length r."""
    columns: list[int] = []
    for r, part in enumerate(parts, start=1):
        columns.extend([r] * (part - (parts[r] if r < len(parts) else 0)))
    return tuple(reversed(columns))


def conjugate(shape: YoungDiagram) -> YoungDiagram:
    return YoungDiagram(_conjugate_parts(shape.parts))


def _growths(mu: tuple[int, ...], bound: tuple[int, ...] | None = None):
    """Each box that can be added to the parts tuple ``mu`` leaving a
    partition, inside the parts tuple ``bound`` if given: pairs of the box's
    0-based row and the grown parts tuple, top row first.  Only the top row
    of each run of equal parts can take a box, so the runs are stepped over."""
    rows = len(mu) + 1 if bound is None else min(len(mu) + 1, len(bound))
    r = 0
    while r < rows:
        width = mu[r] if r < len(mu) else 0
        if bound is None or width < bound[r]:
            yield r, mu[:r] + (width + 1,) + mu[r + 1 :]
        r += mu.count(width) if width else 1


def addable_corners(shape: YoungDiagram) -> list[tuple[int, int]]:
    """Boxes whose addition leaves a Young diagram, 1-based (row, col)."""
    return [(r + 1, nu[r]) for r, nu in _growths(shape.parts)]


def add_corner(shape: YoungDiagram, corner: tuple[int, int]) -> YoungDiagram:
    for r, nu in _growths(shape.parts):
        if (r + 1, nu[r]) == corner:
            return YoungDiagram(nu)
    raise ValueError(f"cannot add box {corner} to {shape.parts}")


def staircase(q: int) -> YoungDiagram:
    """The staircase ``(q, q-1, ..., 2, 1)``."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return YoungDiagram(tuple(range(q, 0, -1)))


def partitions_in_staircase(q: int, max_size: int):
    """All partitions contained in ``staircase(q)`` with at most ``max_size``
    boxes, in lexicographic order on the parts tuples."""
    bound = staircase(q).parts
    level = {()}
    found = [()]
    for _ in range(min(max_size, q * (q + 1) // 2)):
        level = {nu for mu in level for _, nu in _growths(mu, bound)}
        found.extend(level)
    return [YoungDiagram(parts) for parts in sorted(found)]


def _check_filling(rows, less) -> None:
    """Raise ``ValueError`` unless the row lengths form a Young diagram and
    ``less(a, x)`` holds for each entry ``x`` and its left and upper
    neighbours ``a``."""
    widths = [len(r) for r in rows]
    if any(w == 0 for w in widths) or any(
        widths[i] < widths[i + 1] for i in range(len(widths) - 1)
    ):
        raise ValueError(f"rows {widths} do not form a Young diagram")
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if c and not less(row[c - 1], x):
                raise ValueError(f"row {r + 1} breaks the row order at column {c + 1}")
            if r and not less(rows[r - 1][c], x):
                raise ValueError(f"column {c + 1} breaks the column order at row {r + 1}")


def _sets_increase(a: frozenset, b: frozenset) -> bool:
    return max(a) < min(b)


@dataclass(frozen=True)
class IncreasingTableau:
    """Filling strictly increasing along rows and down columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(index, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        _check_filling(rows, lt)

    @property
    def shape(self) -> YoungDiagram:
        return YoungDiagram(tuple(len(r) for r in self.rows))


@dataclass(frozen=True)
class SetValuedStandardTableau:
    """Boxes hold disjoint nonempty sets partitioning ``{1..n}``; the max of
    each box is smaller than the min of the boxes directly right and below."""

    rows: tuple[tuple[frozenset[int], ...], ...]
    n: int

    def __post_init__(self):
        rows = tuple(tuple(frozenset(s) for s in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        seen: set[int] = set()
        total = 0
        for row in rows:
            for s in row:
                if not s:
                    raise ValueError("boxes must be nonempty")
                seen |= s
                total += len(s)
        if total != self.n or seen != set(range(1, self.n + 1)):
            raise ValueError(f"box sets do not partition 1..{self.n}")
        _check_filling(rows, _sets_increase)

    @property
    def shape(self) -> YoungDiagram:
        return YoungDiagram(tuple(len(r) for r in self.rows))


def _over_the_shorter_side(table):
    """Build ``table`` over the conjugate of a bound with more rows than
    columns and conjugate its keys back.  Both families are closed under
    transposing a filling, which keeps its entries, so the counts agree,
    and the parts tuples the table hashes and slices get shorter."""

    @wraps(table)
    def over_bound(bound: YoungDiagram, size: int) -> dict[tuple[int, ...], int]:
        parts = bound.parts
        if not parts or len(parts) <= parts[0]:
            return table(bound, size)
        return {_conjugate_parts(mu): k for mu, k in table(conjugate(bound), size).items()}

    return over_bound


@_over_the_shorter_side
def increasing_counts(bound: YoungDiagram, q: int) -> dict[tuple[int, ...], int]:
    """Number of increasing tableaux with entries at most ``q`` of every
    subshape of ``bound``, keyed by its parts; shapes with none are left out.

    Dynamic program over the values 1..q in increasing order: the boxes
    holding value v lie in distinct rows and columns, each with its left and
    upper neighbours already filled, so they form any subset of the addable
    boxes of the shape filled so far, the empty subset included.  A subset
    is grown one box at a time, each box in a higher row than the last, so
    the bound is cut to the rows above the last box; a box never changes
    which rows above it can grow.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    counts = {(): 1}
    for _ in range(q):
        grown = dict(counts)
        stack = [(mu, k, bound.parts) for mu, k in counts.items()]
        while stack:
            mu, k, above = stack.pop()
            for r, nu in _growths(mu, above):
                grown[nu] = grown.get(nu, 0) + k
                if r:
                    stack.append((nu, k, above[:r]))
        counts = grown
    return counts


def count_increasing(shape: YoungDiagram, q: int) -> int:
    """Number of increasing tableaux of ``shape`` with entries at most ``q``."""
    return increasing_counts(shape, q).get(shape.parts, 0)


@_over_the_shorter_side
def set_valued_counts(bound: YoungDiagram, n: int) -> dict[tuple[int, ...], int]:
    """Number of standard set-valued tableaux on labels 1..n of every
    subshape of ``bound``, keyed by its parts; shapes with none are left out.

    Dynamic program over the labels in increasing order: label m is the
    largest placed so far, so it either joins the labels of a corner box or
    sits alone in a new box.  One pass of n steps, with no recursion.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    parts = bound.parts
    counts = {(): 1}
    for _ in range(n):
        grown: dict[tuple[int, ...], int] = {}
        for mu, k in counts.items():
            # the new label joins the labels of a corner box (one corner per
            # distinct part) ...
            if mu:
                grown[mu] = grown.get(mu, 0) + len(set(mu)) * k
            # ... or sits alone in a box of the bound that extends mu
            for _, nu in _growths(mu, parts):
                grown[nu] = grown.get(nu, 0) + k
        counts = grown
    return counts


def count_set_valued_standard(shape: YoungDiagram, n: int) -> int:
    """Number of standard set-valued tableaux of ``shape`` on labels 1..n."""
    return set_valued_counts(shape, n).get(shape.parts, 0)


def hooks(shape: YoungDiagram) -> dict[tuple[int, int], int]:
    """Hook length of every box: arm + leg + 1."""
    parts = shape.parts
    conj = conjugate(shape).parts
    return {
        (r, c): (parts[r - 1] - c) + (conj[c - 1] - r) + 1
        for (r, c) in shape.boxes()
    }


def count_standard(shape: YoungDiagram) -> int:
    """Number of standard Young tableaux, by the hook-length formula."""
    if not shape.parts:
        raise ValueError("count_standard requires a nonempty shape")
    denom = 1
    for h in hooks(shape).values():
        denom *= h
    num, rem = divmod(factorial(shape.size), denom)
    if rem:
        raise ArithmeticError(f"hook-length formula non-integral for {shape.parts}")
    return num


def count_semistandard(shape: YoungDiagram, q: int) -> int:
    """Number of semistandard tableaux with entries at most ``q``, by the
    hook-content formula.  Evaluated in exact rationals; a non-integral
    product indicates a bug and raises."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    value = Fraction(1)
    hook = hooks(shape)
    for (r, c) in shape.boxes():
        content = c - r
        if q + content == 0:
            return 0
        value *= Fraction(q + content, hook[(r, c)])
    if value.denominator != 1:
        raise ArithmeticError(f"hook-content product non-integral for {shape.parts}, q={q}")
    return int(value)


def superstandard(shape: YoungDiagram) -> IncreasingTableau:
    """Standard tableau filling the rows of ``shape`` with consecutive
    integers, first row first."""
    rows = []
    nxt = 1
    for p in shape.parts:
        rows.append(tuple(range(nxt, nxt + p)))
        nxt += p
    return IncreasingTableau(tuple(rows))


def antidiagonal_cells(w) -> dict[tuple[int, int], int]:
    """The skew tableau placing ``w`` on the antidiagonal of ``staircase(n)``,
    southwest to northeast: letter ``w_i`` at box ``(n - i + 1, i)``."""
    n = len(w.letters)
    return {(n - i, i + 1): x for i, x in enumerate(w.letters)}


# --- JSON-facing serialization -------------------------------------------

def diagram_to_json(shape: YoungDiagram) -> list[int]:
    return list(shape.parts)
