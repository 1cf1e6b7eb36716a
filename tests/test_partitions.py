"""Colored-partition counting against a knapsack count, exhaustive
listings and the paper-style display order."""

import pytest

from qpart.etaq import eval_eta
from qpart.congruence import family_expression
from qpart.partitions import (
    CapExceededError,
    ColoredFamilySpec,
    ColoredPartition,
    Family,
    _count_bits,
    _count_table,
    _dp_work,
    _MAX_DP_WORK,
    count,
    enumerate_partitions,
    oracle_series,
)

from oracles import colored_partition_counts


def a(k):
    return ColoredFamilySpec(Family.ODD_COLORED, k)


def b(k):
    return ColoredFamilySpec(Family.EVEN_COLORED, k)


# -- count ---------------------------------------------------------------------

def test_three_colored_count_of_three():
    assert count(a(3), 3) == 16


def test_plain_partition_numbers():
    assert count(a(1), 4) == 5
    assert [count(a(1), n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_three_colored_count_of_two():
    # the part 2, plus the six 2-multisets of colored 1s
    assert count(a(3), 2) == 7


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count(a(1), -1)


def test_color_count_rule():
    assert a(3).color_count(5) == 3
    assert a(3).color_count(4) == 1
    assert b(3).color_count(5) == 1
    assert b(3).color_count(4) == 3


# -- oracle series ---------------------------------------------------------------

def test_oracle_series_three_colored():
    assert list(oracle_series(a(3), 4)) == [1, 3, 7, 16]


def test_oracle_series_two_colored_is_overpartitions():
    assert list(oracle_series(a(2), 6)) == [1, 2, 4, 8, 14, 24]


def test_oracle_series_mirror_two_colored():
    assert list(oracle_series(b(2), 6)) == [1, 1, 3, 4, 9, 12]


@pytest.mark.parametrize("k", range(1, 9))
def test_oracle_matches_eta_quotient(k):
    for spec in (a(k), b(k)):
        assert oracle_series(spec, 61) == eval_eta(family_expression(spec), 61)


@pytest.mark.parametrize("family", Family)
@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 28])
def test_count_table_matches_knapsack_at_every_order(family, k):
    spec = ColoredFamilySpec(family, k)
    reference = colored_partition_counts(spec, 200)
    for order in range(1, 201):
        assert _count_table(spec, order) == reference[:order]


def test_work_estimate_limit_edges():
    # k = 1 stays within one 512-bit unit up to the limit, which falls
    # between n = 14141 and n = 14142; a huge k is charged its size
    assert _dp_work(a(1), 14142) <= _MAX_DP_WORK < _dp_work(a(1), 14143)
    assert _dp_work(a(1), 10001) <= _MAX_DP_WORK
    # a_2(11546) has 471 bits; bounding the two parities apart charges it
    # 490, one 512-bit unit
    assert _dp_work(a(2), 11547) <= _MAX_DP_WORK
    assert _dp_work(a(10**9), 1) == 0
    assert _dp_work(a(10**9), 1001) > _MAX_DP_WORK
    assert _dp_work(b(10**4000), 2) > 0


@pytest.mark.parametrize("family", Family)
@pytest.mark.parametrize("k", [1, 2, 3, 7, 28])
def test_count_bits_bounds_every_count(family, k):
    spec = ColoredFamilySpec(family, k)
    for n, c in enumerate(_count_table(spec, 1001)):
        assert c.bit_length() <= _count_bits(spec, n), n


def test_first_families_coincide():
    for n in range(40):
        assert count(a(1), n) == count(b(1), n)


def test_counts_increase_with_colors():
    for k in range(1, 5):
        for n in range(30):
            assert count(a(k + 1), n) >= count(a(k), n)


# -- enumeration -------------------------------------------------------------------

def test_enumerate_three_colored_three_matches_display_order():
    listed = [str(p) for p in enumerate_partitions(a(3), 3)]
    assert listed == [
        "(3_3)", "(3_2)", "(3_1)",
        "(2,1_3)", "(2,1_2)", "(2,1_1)",
        "(1_3,1_3,1_3)", "(1_3,1_3,1_2)", "(1_3,1_3,1_1)",
        "(1_3,1_2,1_2)", "(1_3,1_2,1_1)", "(1_3,1_1,1_1)",
        "(1_2,1_2,1_2)", "(1_2,1_2,1_1)", "(1_2,1_1,1_1)", "(1_1,1_1,1_1)",
    ]


def test_enumerate_zero_is_single_empty_partition():
    for spec in (a(1), a(4), b(2)):
        listing = enumerate_partitions(spec, 0)
        assert listing == [ColoredPartition(spec, ())]
        assert str(listing[0]) == "()"


def test_enumerate_one_part_two_colors():
    assert [str(p) for p in enumerate_partitions(a(2), 1)] == ["(1_2)", "(1_1)"]


def test_enumerate_length_matches_count():
    for spec in (a(1), a(2), b(1), b(2)):
        for n in range(26):
            assert len(enumerate_partitions(spec, n)) == count(spec, n)
    for spec in (a(3), a(4), b(3), b(4)):
        for n in range(16):
            assert len(enumerate_partitions(spec, n)) == count(spec, n)


@pytest.mark.slow
def test_enumerate_length_matches_count_full_range():
    for fam in Family:
        for k in range(1, 5):
            spec = ColoredFamilySpec(fam, k)
            for n in range(26):
                assert len(enumerate_partitions(spec, n)) == count(spec, n)


def test_enumerate_is_strictly_decreasing_lexicographically():
    listing = enumerate_partitions(a(3), 6)
    keys = [p.parts for p in listing]
    assert all(x > y for x, y in zip(keys, keys[1:]))


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_partitions(a(2), 41)
    assert enumerate_partitions(a(1), 41, cap=41)  # raised cap is honored


def test_partition_validation():
    with pytest.raises(ValueError):
        a(0)
    # a bool, a float or a string is refused, not taken as 1 or truncated
    for colors in (True, 2.0, 2.5, "2"):
        with pytest.raises(TypeError):
            ColoredFamilySpec(Family.ODD_COLORED, colors)
    with pytest.raises(ValueError):
        ColoredPartition(a(2), ((2, 2),))  # even part cannot take color 2
    with pytest.raises(ValueError):
        ColoredPartition(a(2), ((1, 1), (1, 2)))  # ascending order
    p = ColoredPartition(a(2), ((3, 2), (2, 1), (1, 1)))
    assert p.weight == 6
