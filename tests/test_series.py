"""Ring operations, reindexing, and reduction on truncated series."""

import random

import pytest

from qpart.etaq import eval_eta
from qpart.series import NonUnitConstantTermError, TruncatedSeries

from oracles import poly_inv


def S(*coeffs):
    return TruncatedSeries(coeffs)


def random_series(rng, order, unit=False):
    coeffs = [rng.randint(-9, 9) for _ in range(order)]
    if unit:
        coeffs[0] = rng.choice([1, -1])
    return TruncatedSeries(coeffs)


# -- construction and access -------------------------------------------------

def test_order_equals_coefficient_count():
    a = S(1, 2, 3)
    assert a.order == 3
    assert a.coeffs == (1, 2, 3)
    assert a[0] == 1 and a[2] == 3


def test_empty_and_nonint_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(TypeError):
        TruncatedSeries([1, 2.5])
    with pytest.raises(TypeError, match="got str"):
        TruncatedSeries((1,) * 3000 + ("7",))


def test_bool_coefficients_rejected():
    # bool is a subclass of int, so it needs its own check
    with pytest.raises(TypeError):
        TruncatedSeries([1, True])
    with pytest.raises(TypeError):
        TruncatedSeries([False])


def test_index_outside_stored_range():
    with pytest.raises(IndexError):
        S(1, 2)[2]
    with pytest.raises(IndexError):
        S(1, 2)[-1]


def test_modulus_validation():
    with pytest.raises(ValueError):
        S(1, 2).reduce_mod(1)


@pytest.mark.parametrize("m, error", [(7.9, TypeError), (7.5, TypeError), ("7", TypeError),
                                      (True, ValueError)])
def test_non_integer_modulus_refused(m, error):
    with pytest.raises(error):
        S(8, 15).reduce_mod(m)
    with pytest.raises(error):
        eval_eta("f1", 5, modulus=m)


@pytest.mark.parametrize("call", [
    lambda x: S(1, 2, 3).support_residues(x),
    lambda x: S(1, 2, 3).substitute(x),
    lambda x: S(1, 2, 3).dissect(x, 0),
    lambda x: S(1, 2, 3).dissect(2, x),
    lambda x: S(1, 2, 3).shifted(x),
    lambda x: S(1, 2, 3).truncate(x),
    lambda x: S(1, 2, 3) ** x,
    lambda x: S(1, 2, 3) * x,
    lambda x: x * S(1, 2, 3),
], ids=["support_residues", "substitute", "dissect-m", "dissect-r", "shifted", "truncate",
        "pow", "mul", "rmul"])
def test_integer_arguments_refuse_non_integers(call):
    # a bool or a float is refused, not taken as 1 or used as a float
    for bad in (True, 1.0, 2.5):
        with pytest.raises(TypeError):
            call(bad)


# -- add / mul ---------------------------------------------------------------

def test_add_cancellation():
    assert S(1, 1, 0, 0) + S(1, -1, 0, 0) == S(2, 0, 0, 0)


def test_add_zero_identity():
    a = S(3, -1, 4)
    assert a + TruncatedSeries.zero(3) == a


def test_add_hand_sum():
    # (1 + 2q) + (3q + q^2), truncated to the shorter order
    assert S(1, 2) + S(0, 3, 1) == S(1, 5)


def test_mul_geometric_telescoping():
    assert S(1, -1, 0, 0) * S(1, 1, 1, 1) == TruncatedSeries.one(4)


def test_mul_one_identity():
    a = S(2, 0, -5, 7)
    assert a * TruncatedSeries.one(4) == a


def test_min_order_rule():
    a = S(1, 1, 1, 1, 1)
    b = S(1, 1)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_scalar_multiplication():
    assert 3 * S(1, -2) == S(3, -6)
    assert S(1, -2) * -1 == -S(1, -2)


# -- inverse / power ---------------------------------------------------------

def test_inverse_geometric():
    assert S(1, -1, 0, 0, 0).inverse() == S(1, 1, 1, 1, 1)


def test_inverse_requires_unit_constant():
    with pytest.raises(NonUnitConstantTermError):
        S(2, 1).inverse()
    with pytest.raises(NonUnitConstantTermError):
        S(0, 1).inverse()


def test_inverse_of_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        a = random_series(rng, 30, unit=True)
        assert a.inverse().inverse() == a


def test_mul_by_inverse_is_one():
    rng = random.Random(8)
    for _ in range(25):
        a = random_series(rng, 30, unit=True)
        assert a * a.inverse() == TruncatedSeries.one(30)


def test_inverse_matches_oracle():
    rng = random.Random(9)
    for _ in range(10):
        a = random_series(rng, 25, unit=True)
        assert list(a.inverse()) == poly_inv(list(a), 25)


def test_power_zero_is_one():
    assert S(5, 1, 2) ** 0 == TruncatedSeries.one(3)


def test_power_square():
    assert S(1, 1, 0) ** 2 == S(1, 2, 1)


def test_negative_power_routes_through_inverse():
    rng = random.Random(10)
    for e in (1, 2, 5):
        a = random_series(rng, 20, unit=True)
        assert a ** -e == a.inverse() ** e
        # the tied-off alternative agrees
        assert a ** -e == (a ** e).inverse()


# -- ring laws ---------------------------------------------------------------

def test_ring_laws_exact():
    rng = random.Random(11)
    for _ in range(15):
        a = random_series(rng, 32)
        b = random_series(rng, 32)
        c = random_series(rng, 32)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# -- substitute / shift ------------------------------------------------------

def test_substitute_basic():
    assert S(1, 1, 0, 0).substitute(2) == S(1, 0, 1, 0)


def test_substitute_identity_scale():
    a = S(4, 5, 6)
    assert a.substitute(1) == a


def test_substitute_composes():
    rng = random.Random(12)
    for _ in range(10):
        a = random_series(rng, 40)
        m1, m2 = rng.randint(1, 4), rng.randint(1, 4)
        assert a.substitute(m1 * m2) == a.substitute(m1).substitute(m2)


def test_shifted():
    assert S(1, 2, 3).shifted(1) == S(0, 1, 2)
    assert S(1, 2, 3).shifted(0) == S(1, 2, 3)
    assert S(1, 2).shifted(5) == S(0, 0)
    # order < s < 2 * order: the kept slice would end at a negative index
    assert S(1, 2, 3, 4, 5).shifted(7) == S(0, 0, 0, 0, 0)


# -- reduce_mod --------------------------------------------------------------

def test_reduce_mod_kills_multiples():
    assert S(7, 14).reduce_mod(7).is_zero()


def test_reduce_mod_idempotent_and_least_nonnegative():
    a = S(-1, 13, 6)
    r = a.reduce_mod(7)
    assert r == S(6, 6, 6)
    assert r.reduce_mod(7) == r


def test_reduce_mod_commutes_with_ring_ops():
    rng = random.Random(13)
    for m in (2, 5, 7, 12):
        a = random_series(rng, 24)
        b = random_series(rng, 24)
        assert (a + b).reduce_mod(m) == (a.reduce_mod(m) + b.reduce_mod(m)).reduce_mod(m)
        assert (a * b).reduce_mod(m) == (a.reduce_mod(m) * b.reduce_mod(m)).reduce_mod(m)


# -- dissect / support -------------------------------------------------------

def test_dissect_basic():
    assert S(1, 2, 3, 4).dissect(2, 1) == S(2, 4)


def test_dissect_identity():
    a = S(1, 2, 3, 4)
    assert a.dissect(1, 0) == a


def test_dissect_order_formula():
    a = TruncatedSeries(range(1, 11))  # order 10
    for m in range(1, 8):
        for r in range(m):
            d = a.dissect(m, r)
            assert d.order == (10 - r + m - 1) // m
            for n in range(d.order):
                assert d[n] == a[m * n + r]


def test_dissect_reassembly():
    rng = random.Random(14)
    order = 32
    for m in range(1, 9):
        a = random_series(rng, order)
        rebuilt = TruncatedSeries.zero(order)
        for r in range(m):
            d = a.dissect(m, r)
            padded = TruncatedSeries(list(d.coeffs) + [0] * (order - d.order))
            rebuilt = rebuilt + padded.substitute(m).shifted(r)
        assert rebuilt.equals_through(a, order - m)


def test_dissect_empty_class_rejected():
    with pytest.raises(ValueError):
        S(1, 2, 3).dissect(7, 5)


def test_support_residues():
    assert S(1, 0, 0, 1, 0, 0, 1).support_residues(3) == frozenset({0})
    assert TruncatedSeries.zero(10).support_residues(4) == frozenset()


def test_equals_through():
    a = S(1, 2, 3, 4)
    b = S(1, 2, 9, 9)
    assert a.equals_through(b, 2)
    assert not a.equals_through(b, 3)
    with pytest.raises(ValueError):
        a.equals_through(b, 5)


def test_truncate():
    a = S(1, 2, 3, 4)
    assert a.truncate(2) == S(1, 2)
    with pytest.raises(ValueError):
        a.truncate(5)
