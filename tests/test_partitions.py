"""Colored-partition counting against a knapsack count, exhaustive
listings and the paper-style display order."""

import functools
import random
import sys
import threading

import pytest

from qpart import partitions
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
        partitions._TABLES.clear()  # a cold build at every order
        assert _count_table(spec, order) == reference[:order]


# -- the kept count tables ---------------------------------------------------------

MEMO_KS = [1, 2, 3, 5, 28]
MEMO_STATES = ("empty", "shorter kept", "longer kept", "evicted", "over budget")


@functools.cache
def _knapsack(family, k, order=200):
    return colored_partition_counts(ColoredFamilySpec(family, k), order)


def _key(spec):
    return (spec.color_count(1), spec.color_count(2))


def _charge(spec, order):
    return order * _count_bits(spec, order - 1)


def _charges_add_up():
    tables = partitions._TABLES
    return tables.size == sum(cost for _, cost in tables._charges.values()) <= tables.capacity


@pytest.mark.parametrize("state", MEMO_STATES)
@pytest.mark.parametrize("family", Family)
@pytest.mark.parametrize("k", MEMO_KS)
def test_count_table_in_every_memo_state(state, family, k, monkeypatch):
    spec = ColoredFamilySpec(family, k)
    reference = _knapsack(family, k)
    other = ColoredFamilySpec(family, k + 1)
    kept = partitions._TABLES._kept
    order = 120
    if state == "shorter kept":
        _count_table(spec, 37)
    elif state == "longer kept":
        _count_table(spec, 200)
    elif state == "evicted":
        # the budget holds the spec's table alone; a second table evicts it
        monkeypatch.setattr(partitions._TABLES, "capacity", _charge(spec, 200))
        _count_table(spec, 200)
        _count_table(other, 10)
        assert _key(spec) not in kept
    elif state == "over budget":
        monkeypatch.setattr(partitions._TABLES, "capacity", _charge(spec, order) - 1)
        _count_table(other, 10)
    assert _count_table(spec, order) == reference[:order]
    assert count(spec, order - 1) == reference[order - 1]
    assert list(oracle_series(spec, order)) == reference[:order]
    if state == "over budget":
        # returned, but neither kept nor evicting anything
        assert list(kept) == [_key(other)]
    else:
        assert len(kept[_key(spec)]) == (200 if state == "longer kept" else order)
    assert _charges_add_up()


@pytest.mark.parametrize("sequence", ["rising", "falling", "shuffled"])
@pytest.mark.parametrize("family", Family)
@pytest.mark.parametrize("k", MEMO_KS)
def test_count_table_in_any_request_order(sequence, family, k):
    spec = ColoredFamilySpec(family, k)
    reference = _knapsack(family, k)
    orders = [1, 2, 3, 17, 18, 64, 100, 101, 163, 200]
    if sequence == "falling":
        orders.reverse()
    elif sequence == "shuffled":
        random.Random(k).shuffle(orders)
    for order in orders:
        assert _count_table(spec, order) == reference[:order]
        assert count(spec, order - 1) == reference[order - 1]
    assert len(partitions._TABLES._kept[_key(spec)]) == 200


def test_first_families_share_one_kept_table():
    assert count(a(1), 99) == count(b(1), 99)
    assert list(partitions._TABLES._kept) == [(1, 1)]
    assert count(b(1), 149) == _knapsack(Family.ODD_COLORED, 1)[149]
    assert list(partitions._TABLES._kept) == [(1, 1)]
    assert len(partitions._TABLES._kept[(1, 1)]) == 150


def test_mutating_a_returned_table_leaves_the_kept_one():
    reference = _knapsack(Family.EVEN_COLORED, 3)
    for order in (80, 50, 120):  # built, sliced, continued
        table = _count_table(b(3), order)
        table[order // 2] = -1
        table.append(7)
        table.reverse()
    assert _count_table(b(3), 120) == reference[:120]
    assert _count_table(b(3), 150) == reference[:150]
    assert [count(b(3), n) for n in (0, 25, 60)] == [reference[n] for n in (0, 25, 60)]


def test_kept_bits_stay_within_the_budget(monkeypatch):
    # a budget small enough that tables replace and evict each other
    monkeypatch.setattr(partitions._TABLES, "capacity", 3 * _charge(a(5), 200))
    rng = random.Random(5)
    for _ in range(60):
        spec = ColoredFamilySpec(rng.choice(list(Family)), rng.choice(MEMO_KS))
        order = rng.randrange(1, 201)
        assert _count_table(spec, order) == _knapsack(spec.family, spec.colors)[:order]
        assert _charges_add_up()
    # each table's charge bounds the bits its counts take
    for key, table in partitions._TABLES._kept.items():
        bits = sum(c.bit_length() for c in table)
        assert bits <= partitions._TABLES._charges[key][1]
    # at the real budget, counts of some 26 Mbit are answered, not kept
    monkeypatch.undo()
    assert partitions._TABLES.capacity == 2**24 < _charge(a(10**14), 2)
    assert count(a(10**14), 1) == 10**14
    assert (10**14, 1) not in partitions._TABLES._kept
    assert _charges_add_up()


def test_threads_share_the_kept_tables():
    # more threads than cores, switching often, on one spec at rising,
    # falling and scattered n, so that they continue each other's tables
    reference = _knapsack(Family.ODD_COLORED, 5)
    failures = []

    def work(seed):
        try:
            ns = list(range(1, 200, 7))
            if seed % 3 == 1:
                ns.reverse()
            elif seed % 3 == 2:
                random.Random(seed).shuffle(ns)
            for n in ns:
                if count(a(5), n) != reference[n]:
                    failures.append(n)
        except Exception as exc:  # a thread's exception is otherwise lost
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert partitions._TABLES._kept[(5, 1)] == tuple(reference[:198])
    assert _charges_add_up()


def test_refusal_ignores_the_kept_tables(monkeypatch):
    table = _count_table(a(1), 2001)
    assert count(a(10**9), 1) == 10**9
    with pytest.raises(ValueError):
        count(a(1), 14142)
    with pytest.raises(ValueError):
        count(a(10**9), 1000)
    # a limit that falls inside a kept table still refuses past it
    monkeypatch.setattr(partitions, "_MAX_DP_WORK", _dp_work(a(1), 1001))
    assert count(a(1), 1000) == table[1000]
    with pytest.raises(ValueError):
        count(a(1), 1001)
    assert len(partitions._TABLES._kept[(1, 1)]) == 2001


@pytest.mark.slow
def test_largest_accepted_count_with_a_table_kept():
    _count_table(a(1), 2001)
    assert count(a(1), 14141) == count(b(1), 14141)
    assert len(partitions._TABLES._kept[(1, 1)]) == 14142


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
    # a_4 has more than _MAX_LISTING partitions of n from n = 24 on:
    # there the listing is refused, everywhere else its length is the count
    for fam in Family:
        for k in range(1, 5):
            spec = ColoredFamilySpec(fam, k)
            for n in range(26):
                if count(spec, n) > partitions._MAX_LISTING:
                    with pytest.raises(CapExceededError):
                        enumerate_partitions(spec, n)
                else:
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
