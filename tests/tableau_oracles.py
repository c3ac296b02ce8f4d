"""Independent tableau oracles for the tests: every standard filling by
placing 1..r one box at a time, and a direct check of the three
semistandard conditions.  The package counts standard fillings by hook
lengths and builds semistandard ones by backtracking, so neither is checked
against itself.
"""

from superschur.tableaux import Filling, Shape, _check_shape, is_partition


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


def is_semistandard(filling: Filling, m: int, n: int) -> bool:
    """Check the three semistandard conditions directly."""
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
