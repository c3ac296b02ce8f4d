"""Partitions and their standard / semistandard super fillings.

A filling of a partition shape uses two ordered alphabets, t_1 < ... < t_m
followed by u_1 < ... < u_n, encoded as integers 1..m for the t's and
m+1..m+n for the u's.  A filling is semistandard when

  1. the t-cells form a top-left-justified subshape (in every row the t's
     are an initial segment, and each t-cell has a t-cell above it),
  2. t's weakly increase along rows and strictly increase down columns,
  3. u's strictly increase along rows and weakly increase down columns.

The empty t-region is allowed: a shape can be filled entirely with u's.
Enumeration is row-major backtracking with symbols tried in increasing
order, so the output order is deterministic.
"""

from __future__ import annotations

from math import factorial

from .errors import DimensionError

Shape = tuple[int, ...]
Filling = tuple[tuple[int, ...], ...]


def partitions(total: int, max_part: int | None = None):
    """Yield all partitions of ``total`` in reverse lexicographic order."""
    if total < 0:
        raise DimensionError("cannot partition a negative integer")
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def is_partition(shape: Shape) -> bool:
    return all(isinstance(p, int) and p > 0 for p in shape) and all(
        a >= b for a, b in zip(shape, shape[1:])
    )


def _check_shape(shape: Shape):
    if not is_partition(shape):
        raise DimensionError(f"{shape!r} is not a partition")


def enumerate_syt(shape: Shape) -> list[Filling]:
    """All standard fillings: 1..r each once, rows and columns increasing.

    Built by placing 1, 2, ..., r in turn at every frontier cell (first free
    cell of some row, not longer than the row above).
    """
    _check_shape(shape)
    rows = len(shape)
    filled = [0] * rows  # boxes already placed in each row
    grid = [[0] * width for width in shape]
    total = sum(shape)
    out: list[Filling] = []

    def place(value: int):
        if value > total:
            out.append(tuple(tuple(row) for row in grid))
            return
        for i in range(rows):
            if filled[i] < shape[i] and (i == 0 or filled[i] < filled[i - 1]):
                j = filled[i]
                grid[i][j] = value
                filled[i] += 1
                place(value + 1)
                filled[i] -= 1
                grid[i][j] = 0

    place(1)
    return out


def count_syt(shape: Shape) -> int:
    """Number of standard fillings by the hook length formula: r! over the
    product of the hook lengths (arm + leg + 1) of the cells."""
    _check_shape(shape)
    hooks = 1
    for i, width in enumerate(shape):
        for j in range(width):
            hooks *= width - j + sum(1 for below in shape[i + 1:] if below > j)
    return factorial(sum(shape)) // hooks


def enumerate_ssyt(shape: Shape, m: int, n: int) -> list[Filling]:
    """All semistandard super fillings of ``shape`` with alphabets (m, n)."""
    _check_shape(shape)
    if m < 0 or n < 0:
        raise DimensionError("alphabet sizes must be nonnegative")
    rows = len(shape)
    grid = [[0] * width for width in shape]
    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    out: list[Filling] = []

    def ok(i: int, j: int, sym: int) -> bool:
        left = grid[i][j - 1] if j > 0 else None
        above = grid[i - 1][j] if i > 0 else None
        if sym <= m:  # a t symbol
            # t-region stays a top-left-justified subshape
            if left is not None and (left > m or left > sym):
                return False
            if above is not None and (above > m or above >= sym):
                return False
            return True
        # a u symbol
        if left is not None and left > m and left >= sym:
            return False
        if above is not None and above > m and above > sym:
            return False
        return True

    def fill(pos: int):
        if pos == len(cells):
            out.append(tuple(tuple(row) for row in grid))
            return
        i, j = cells[pos]
        for sym in range(1, m + n + 1):
            if ok(i, j, sym):
                grid[i][j] = sym
                fill(pos + 1)
                grid[i][j] = 0

    fill(0)
    return out


def count_ssyt(shape: Shape, m: int, n: int) -> int:
    return len(enumerate_ssyt(shape, m, n))


def is_semistandard(filling: Filling, m: int, n: int) -> bool:
    """Check the three conditions directly (used as a cross-check)."""
    shape = tuple(len(row) for row in filling)
    if not is_partition(shape) and shape != ():
        return False
    t_counts = []
    for row in filling:
        ts = [s for s in row if s <= m]
        # all t's first
        if any(s <= m for s in row[len(ts):]):
            return False
        t_counts.append(len(ts))
    if any(a < b for a, b in zip(t_counts, t_counts[1:])):
        return False
    for i, row in enumerate(filling):
        for j, sym in enumerate(row):
            if j + 1 < len(row):
                right = row[j + 1]
                if sym <= m and right <= m and sym > right:
                    return False
                if sym > m and right > m and sym >= right:
                    return False
            if i + 1 < len(filling) and j < len(filling[i + 1]):
                below = filling[i + 1][j]
                if sym <= m and below <= m and sym >= below:
                    return False
                if sym > m and below > m and sym > below:
                    return False
    return True


def symbol_name(sym: int, m: int) -> str:
    return f"t{sym}" if sym <= m else f"u{sym - m}"


def render_filling(filling: Filling, m: int) -> list[str]:
    return [" ".join(symbol_name(s, m) for s in row) for row in filling]


def dimension_table(m: int, n: int, r: int) -> list[dict]:
    """Per-shape counts for all partitions of r, in reverse-lex order.

    Shapes with zero semistandard count stay in the table (admissible: false)
    rather than being dropped.
    """
    if r < 1:
        raise DimensionError("tensor degree must be at least 1")
    table = []
    for shape in partitions(r):
        syt = count_syt(shape)
        ssyt = count_ssyt(shape, m, n)
        table.append(
            {
                "shape": list(shape),
                "syt": syt,
                "ssyt": ssyt,
                "admissible": ssyt > 0,
            }
        )
    return table


def multiplicity_sum(m: int, n: int, r: int) -> int:
    """Sum over shapes of (standard count) * (semistandard count)."""
    return sum(row["syt"] * row["ssyt"] for row in dimension_table(m, n, r))
