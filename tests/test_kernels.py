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


def _lengths(rng, n, lb):
    """Start or prefix lengths: 0, n, len(b), and some inside and past both."""
    return sorted({0, n, lb, rng.randint(0, n), lb + rng.randint(1, 9), n + rng.randint(1, 9)})


def test_mul_from_start_against_oracle():
    rng = random.Random(3)
    for m in MODULI:
        for _ in range(60):
            n = rng.randint(1, 40)
            a = [rng.choice([0, 0, 1, -1, rng.randint(-99, 99)])
                 for _ in range(rng.randint(1, 50))]
            a[0] = rng.choice([1, a[0]])  # the copy of b for a[0] = 1 starts late too
            b = [rng.randint(-99, 99) for _ in range(rng.randint(1, 50))]
            full = _reduced(poly_mul(a, b, n), m)
            for start in _lengths(rng, n, len(b)):
                out = _kernels_py.mul(a, b, n, m, start)
                assert out == [0] * min(start, n) + full[start:]


def test_div_continues_a_known_quotient():
    rng = random.Random(4)
    for m in MODULI:
        for _ in range(60):
            n = rng.randint(1, 40)
            a = [rng.randint(-99, 99) for _ in range(rng.randint(1, 50))]
            b = [rng.choice([0, 0, 1, -1, rng.randint(-99, 99)])
                 for _ in range(rng.randint(1, 50))]
            b[0] = rng.choice([1, -1])
            full = _reduced(poly_mul(a, poly_inv(b, n), n), m)
            for p in _lengths(rng, n, len(b)):
                known = (full + [rng.randint(-99, 99) for _ in range(p - n)])[:p]
                # a is read only from the prefix's length on
                garbled = [rng.randint(-99, 99) for _ in a[:p]] + a[p:]
                assert _kernels_py.div(garbled, b, n, m, known) == full


def _real_length_divisors(rng, n):
    """Divisors through order n: fk for k = 1..4, random sparse +-1 ones
    with one term fewer than and as many as div needs for its
    interleaved loop, a scaled dense one, a sparse one with b[0] = -1,
    and the constant 1."""
    few = _kernels_py._FEW_TERMS
    divisors = [qpart.pochhammer_f(k, n).coeffs for k in (1, 2, 3, 4)]
    for terms in (few - 1, few):
        if terms < n:
            b = [1] + [0] * (n - 1)
            for j in rng.sample(range(1, n), terms):
                b[j] = rng.choice((1, -1))
            divisors.append(b)
    divisors.append([rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(n - 1)])
    divisors.append([-1] + [rng.choice((0, 0, 0, 1, -1)) for _ in range(n - 1)])
    divisors.append([1])
    return divisors


def test_div_at_real_lengths():
    """Orders up to 701, on both sides of div's choice of loop, in every
    lane, from known prefixes of length 0, n and in between."""
    rng = random.Random(5)
    sides = set()
    for n in (1, 2, 150, 701):
        a = [rng.randint(-99, 99) for _ in range(n)]
        for b in _real_length_divisors(rng, n):
            full = poly_mul(a, poly_inv(b, n), n)
            sides.add((n, sum(1 for x in b[1:n] if x) < _kernels_py._FEW_TERMS))
            for m in MODULI:
                expected = _reduced(full, m)
                for p in sorted({0, n, rng.randint(0, n), rng.randint(0, n)}):
                    garbled = [rng.randint(-99, 99) for _ in a[:p]] + a[p:]
                    assert _kernels_py.div(garbled, b, n, m, expected[:p]) == expected
    assert {(n, few) for n in (150, 701) for few in (True, False)} <= sides


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
