"""The pure-Python coefficient kernels against the dense oracles."""

import random

import qpart
from qpart import _kernels_py

from oracles import poly_inv, poly_mul


def test_mul_against_oracle():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 40)
        a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 60))]
        b = [rng.randint(-99, 99) for _ in range(rng.randint(1, 60))]
        assert _kernels_py.mul(a, b, n) == poly_mul(a, b, n)


def test_inv_against_oracle():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 40)
        a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 60))]
        a[0] = rng.choice([1, -1])
        assert _kernels_py.inv(a, n) == poly_inv(a, n)


def test_mul_accepts_tuples():
    assert _kernels_py.mul((1, 1), (1, -1), 2) == [1, 0]


def test_big_coefficients_stay_exact():
    # exact kernels must never truncate: feed 200-digit ints through
    big = 10**200 + 12345
    out = _kernels_py.mul([big, 1], [big, -1], 2)
    assert out == [big * big, -big + big]
    inv = _kernels_py.inv([1, big], 3)
    assert inv == [1, -big, big * big]


def test_backend_is_python():
    # perfbench records this name and compares it with its baseline
    assert qpart.backend() == "python"
