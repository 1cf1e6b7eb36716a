"""The pure-Python coefficient kernels against the dense oracles."""

import random

import qpart
from qpart import _kernels_py

from oracles import poly_inv, poly_mul


MODULI = (None, 2, 7, 2**70 + 1)


def _reduced(coeffs, m):
    return coeffs if m is None else [c % m for c in coeffs]


def test_mul_against_oracle():
    rng = random.Random(1)
    for m in MODULI:
        for _ in range(50):
            n = rng.randint(1, 40)
            a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 60))]
            b = [rng.randint(-99, 99) for _ in range(rng.randint(1, 60))]
            assert _kernels_py.mul(a, b, n, m) == _reduced(poly_mul(a, b, n), m)
        # operands shorter than n, with +-1 coefficients: the output keeps length n
        for _ in range(50):
            n = rng.randint(2, 40)
            a = [rng.choice([0, 1, -1, 5]) for _ in range(rng.randint(1, n - 1))]
            b = [rng.randint(-99, 99) for _ in range(rng.randint(1, n - 1))]
            out = _kernels_py.mul(a, b, n, m)
            assert len(out) == n
            assert out == _reduced(poly_mul(a, b, n), m)


def test_div_against_oracle():
    rng = random.Random(2)
    for m in MODULI:
        for _ in range(100):
            n = rng.randint(1, 40)
            a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 60))]
            b = [rng.choice([0, 0, 1, -1, rng.randint(-99, 99)])
                 for _ in range(rng.randint(1, 60))]
            b[0] = rng.choice([1, -1])
            expected = _reduced(poly_mul(a, poly_inv(b, n), n), m)
            assert _kernels_py.div(a, b, n, m) == expected


def test_mul_accepts_tuples():
    assert _kernels_py.mul((1, 1), (1, -1), 2) == [1, 0]


def test_big_coefficients_stay_exact():
    # exact kernels must never truncate: feed 200-digit ints through
    big = 10**200 + 12345
    out = _kernels_py.mul([big, 1], [big, -1], 2)
    assert out == [big * big, -big + big]
    assert _kernels_py.div([1], [1, big], 3) == [1, -big, big * big]
    assert _kernels_py.div([big, 1], [-1, big], 3) == [-big, -1 - big**2, -big - big**3]


def test_backend_is_python():
    # perfbench records this name and compares it with its baseline
    assert qpart.backend() == "python"
