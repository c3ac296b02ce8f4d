"""Partition fillings: standard counts, semistandard counts, dimension tables."""

import itertools
from fractions import Fraction
from math import factorial

import pytest

from superschur import (
    DimensionError,
    count_ssyt,
    count_syt,
    dimension_table,
    enumerate_ssyt,
    partitions,
    render_filling,
    symbol_name,
)

from tableau_oracles import enumerate_syt, is_semistandard


def conjugate(shape):
    if not shape:
        return ()
    return tuple(
        sum(1 for part in shape if part > j) for j in range(shape[0])
    )


def hook_length_count(shape):
    """Reference standard count: r! divided by the product of hook lengths."""
    conj = conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(shape)) // hooks


def hook_content_count(shape, m):
    """Reference one-alphabet semistandard count (weak rows, strict columns)."""
    conj = conjugate(shape)
    value = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            value *= Fraction(m + j - i, (row - j) + (conj[j] - i) - 1)
    assert value.denominator == 1 and value >= 0
    return int(value)


def reference_semistandard(filling, m, n):
    """Independent global validator for the two-alphabet filling rules."""
    t_cells = {
        (i, j)
        for i, row in enumerate(filling)
        for j, s in enumerate(row)
        if s <= m
    }
    for i, j in t_cells:
        if i > 0 and (i - 1, j) not in t_cells:
            return False
        if j > 0 and (i, j - 1) not in t_cells:
            return False
    for i, row in enumerate(filling):
        for j, s in enumerate(row):
            if j + 1 < len(row):
                right = row[j + 1]
                if s <= m and right <= m and s > right:
                    return False
                if s > m and right > m and s >= right:
                    return False
                if s > m and right <= m:
                    return False
            if i + 1 < len(filling) and j < len(filling[i + 1]):
                below = filling[i + 1][j]
                if s <= m and below <= m and s >= below:
                    return False
                if s > m and below > m and s > below:
                    return False
                if s > m and below <= m:
                    return False
    return True


def brute_force_ssyt_count(shape, m, n):
    cells = sum(shape)
    count = 0
    for symbols in itertools.product(range(1, m + n + 1), repeat=cells):
        filling = []
        at = 0
        for width in shape:
            filling.append(tuple(symbols[at : at + width]))
            at += width
        if reference_semistandard(tuple(filling), m, n):
            count += 1
    return count


def test_partitions_of_six():
    parts = list(partitions(6))
    assert len(parts) == 11
    assert parts[0] == (6,)
    assert parts[-1] == (1, 1, 1, 1, 1, 1)
    assert all(a >= b for p in parts for a, b in zip(p, p[1:]))


def test_partitions_of_zero_and_negative():
    assert list(partitions(0)) == [()]
    with pytest.raises(DimensionError):
        list(partitions(-1))


def test_standard_counts_match_hook_lengths():
    for r in range(1, 7):
        for shape in partitions(r):
            assert count_syt(shape) == hook_length_count(shape)


def test_standard_counts_square_to_group_order():
    # at r = 20, counting by enumerating each tableau would not finish
    for r in (4, 20):
        assert sum(count_syt(shape) ** 2 for shape in partitions(r)) == factorial(r)


def test_standard_counts_match_enumeration():
    for r in range(9):
        for shape in partitions(r):
            assert count_syt(shape) == len(enumerate_syt(shape))


def test_standard_fillings_are_standard():
    for filling in enumerate_syt((3, 2)):
        values = sorted(v for row in filling for v in row)
        assert values == [1, 2, 3, 4, 5]
        for row in filling:
            assert all(a < b for a, b in zip(row, row[1:]))
        for upper, lower in zip(filling, filling[1:]):
            assert all(a < b for a, b in zip(upper, lower))


def test_one_alphabet_counts_match_hook_content():
    for m in (1, 2, 3):
        for r in range(1, 6):
            for shape in partitions(r):
                assert count_ssyt(shape, m, 0) == hook_content_count(shape, m)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_two_alphabet_counts_match_brute_force(m, n):
    for r in range(1, 5):
        for shape in partitions(r):
            assert count_ssyt(shape, m, n) == brute_force_ssyt_count(shape, m, n)


def test_worked_example_one_one_two():
    row_fillings = enumerate_ssyt((2,), 1, 1)
    col_fillings = enumerate_ssyt((1, 1), 1, 1)
    assert row_fillings == [((1, 1),), ((1, 2),)]
    assert col_fillings == [((1,), (2,)), ((2,), (2,))]
    assert render_filling(((1, 2),), 1) == ["t1 u1"]
    assert render_filling(((1,), (2,)), 1) == ["t1", "u1"]


def test_symbol_names():
    assert [symbol_name(s, 2) for s in (1, 2, 3, 4)] == ["t1", "t2", "u1", "u2"]


def test_enumerated_fillings_validate():
    for shape in partitions(4):
        for filling in enumerate_ssyt(shape, 2, 1):
            assert is_semistandard(filling, 2, 1)
            assert reference_semistandard(filling, 2, 1)


def test_validator_rejects_bad_fillings():
    # u above t in a column
    assert not is_semistandard(((2,), (1,)), 1, 1)
    # repeated u in a row
    assert not is_semistandard(((2, 2),), 1, 1)
    # repeated t in a column
    assert not is_semistandard(((1,), (1,)), 1, 1)
    # t right of u in a row
    assert not is_semistandard(((2, 1),), 1, 1)


def test_admissibility_is_the_hook_condition():
    for m in (1, 2):
        for n in (0, 1, 2):
            for r in range(1, 7):
                for shape in partitions(r):
                    overflow = shape[m] if len(shape) > m else 0
                    assert (count_ssyt(shape, m, n) > 0) == (overflow <= n)


def test_dimension_table_and_multiplicity():
    table = dimension_table(1, 1, 2)
    assert table == [
        {"shape": [2], "syt": 1, "ssyt": 2, "admissible": True},
        {"shape": [1, 1], "syt": 1, "ssyt": 2, "admissible": True},
    ]
    for (m, n, r), total in (((1, 1, 2), 4), ((2, 1, 3), 27)):
        assert sum(row["syt"] * row["ssyt"] for row in dimension_table(m, n, r)) == total


def test_inadmissible_shapes_stay_in_table():
    table = dimension_table(1, 0, 2)
    assert table == [
        {"shape": [2], "syt": 1, "ssyt": 1, "admissible": True},
        {"shape": [1, 1], "syt": 1, "ssyt": 0, "admissible": False},
    ]


def test_bad_shapes_rejected():
    with pytest.raises(DimensionError):
        count_syt((1, 2))
    with pytest.raises(DimensionError):
        count_ssyt((2, -1), 1, 1)
