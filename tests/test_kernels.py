"""The pure-Python coefficient kernels against the dense oracles."""

import random
from functools import lru_cache
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpart
from qpart import _kernels_py

from oracles import pochhammer_by_product, poly_inv, poly_mul


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


def test_mul_continued_near_the_order_matches_a_cold_product():
    """A product continued from a start just below n, as the family
    sweep continues a kept series by a few coefficients, equals the one
    computed from 0, with b longer than n: a with +-1 terms only (f1)
    and with scaled ones, a[0] = 1 or not."""
    rng = random.Random(7)
    for m in MODULI:
        for n in (1, 2, 7, 40, 300):
            b = [rng.randint(-99, 99) for _ in range(n + rng.randint(1, 9))]
            f1 = pochhammer_by_product(1, n + 5)
            scaled = [rng.choice([0, 1, -1, 3, -2]) for _ in range(n + 5)]
            for a in (f1, scaled, [2] + scaled[1:]):
                cold = _kernels_py.mul(a, b, n, m)
                assert cold == _reduced(poly_mul(a, b, n), m)
                for start in range(max(n - 5, 1), n + 1):
                    assert _kernels_py.mul(a, b, n, m, start) == [0] * start + cold[start:]


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
            sides.add((n, sum(x in (1, -1) for x in b[1:n]) < _kernels_py._FEW_TERMS))
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


# -- packed products in the modular lane ---------------------------------------------

# The lanes of MODULI, 13, 2**30 + 3, whose products pack into 8-byte
# slots through up to 15 terms and run the slice loop from 16 on, and
# 2**64 + 13, whose slot bound (m-1)^2 is past 2^64 already.
PACKED_MODULI = (*MODULI, 13, 2**30 + 3, 2**64 + 13)
PACKED_ORDERS = (1, 2, 20, 150, 701, 2107)


def _residue_operands(rng, n):
    """A sparse operand shorter than n and a dense one longer than n,
    with zero, +-1, negative entries, and entries past every modulus."""
    big = 2**70
    short = [rng.choice((0, 0, 1, -1, rng.randint(-big, big))) for _ in range(max(1, n // 3))]
    long = [rng.randint(-big, big) for _ in range(n + 7)]
    return short, long


@pytest.fixture
def packed_sides(monkeypatch):
    """(m, whether the product packed) for every packed product or
    division through an inverse tried from here on."""
    sides = set()

    def record(name):
        packed = getattr(_kernels_py, name)

        def recorded(a, b, n, m, *rest):
            out = packed(a, b, n, m, *rest)
            sides.add((m, out is not None))
            return out

        monkeypatch.setattr(_kernels_py, name, recorded)

    record("_mul_packed")
    record("_div_packed")
    return sides


def test_packed_mul_against_oracle(packed_sides, monkeypatch):
    """From coefficient 0 and from start > 0, with operands shorter and
    longer than n in either place, at every order below and past
    _PACK_FROM; with it set to 1 as well, so that the short orders
    pack too."""
    rng = random.Random(6)
    for n in PACKED_ORDERS:
        short, long = _residue_operands(rng, n)
        # the slice loop over a dense a of 2107 big entries takes a while
        pairs = [(short, long)] + [(long, short), (long, long[::-1])] * (n < 1000)
        for a, b in pairs:
            full = poly_mul(a, b, n)
            for m in PACKED_MODULI:
                expected = _reduced(full, m)
                start = rng.randint(1, n)
                assert _kernels_py.mul(a, b, n, m, start) == [0] * start + expected[start:]
                for pack_from in (_kernels_py._PACK_FROM, 1):
                    monkeypatch.setattr(_kernels_py, "_PACK_FROM", pack_from)
                    assert _kernels_py.mul(a, b, n, m) == expected
    # both sides of the slot bound are reached
    assert {(m, True) for m in (2, 7, 13, 2**30 + 3)} <= packed_sides
    assert {(m, False) for m in (2**30 + 3, 2**64 + 13, 2**70 + 1)} <= packed_sides


def _divisors(n):
    """f2, and -f3 + (2^70 + 5) q^(n//2 + 1): constant term -1, and one
    entry past every modulus, late enough that the inverse's entries
    stay near 2^70."""
    b = [-x for x in qpart.pochhammer_f(3, n).coeffs]
    if n // 2 + 1 < n:
        b[n // 2 + 1] += 2**70 + 5
    return [qpart.pochhammer_f(2, n).coeffs, b]


def test_div_through_an_inverse_against_oracle(packed_sides, monkeypatch):
    """div(..., inverse=1/b) is a * (1/b) where that packs, the recurrence
    elsewhere: with m unset, past the slot bound, below _PACK_FROM and
    after a known prefix the inverse is not read, so a wrong one changes
    nothing there.  With _PACK_FROM set to 1 as well, so that the short
    orders pack too."""
    rng = random.Random(7)
    for n in PACKED_ORDERS:
        _, a = _residue_operands(rng, n)
        a[0] = 1
        for b in _divisors(n):
            inverse = poly_inv(b, n)
            full = poly_mul(a, inverse, n)
            # the quotient's last coefficient moves by a[0] = 1; the
            # wrong inverse keeps a nonzero entry
            wrong = inverse[:]
            wrong[-1] += 1 if wrong[-1] != -1 else -1
            for m in PACKED_MODULI:
                expected = _reduced(full, m)
                p = rng.randint(1, n)
                for pack_from in (_kernels_py._PACK_FROM, 1):
                    monkeypatch.setattr(_kernels_py, "_PACK_FROM", pack_from)
                    assert _kernels_py.div(a, b, n, m, inverse=_reduced(inverse, m)) == expected
                    terms = min(n - a[:n].count(0), n - wrong.count(0))
                    reads = m is not None and n >= pack_from and terms * (m - 1)**2 < 2**64
                    assert (_kernels_py.div(a, b, n, m, inverse=wrong) == expected) != reads
                    assert _kernels_py.div(a, b, n, m, expected[:p], wrong) == expected
    assert {(m, True) for m in (2, 7, 13, 2**30 + 3)} <= packed_sides
    assert {(m, False) for m in (2**30 + 3, 2**64 + 13, 2**70 + 1)} <= packed_sides


# -- shifted adds, divisions by f2 through 1/f1, 1/f1 by halving ------------------------

checked = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# 2**30 + 3: a sparse operand packs, a dense square does not; 2**64 + 13:
# nothing packs
SHIFTED_MODULI = (2, 3, 7, 13, 2**30 + 3, 2**64 + 13)
HALVING_ORDER = 400  # past _HALVING_BASE = 64 by more than two halvings

# orders on both sides of _PACK_FROM = 32 and of twice it, where both
# classes of a division by f2 pack
orders = st.one_of(st.integers(1, 80), st.integers(1, 300))
entries = st.one_of(st.integers(-99, 99), st.integers(-2**70, 2**70))


@st.composite
def sparse_products(draw):
    """(a, b, n): a with at most sqrt(_SPARSE * n) entries below n,
    among them -1, 0 and entries that are not units, and a dense b."""
    n = draw(orders)
    size = draw(st.integers(1, n + 5))
    slots = draw(st.lists(st.integers(0, size - 1), min_size=1,
                          max_size=max(1, int((_kernels_py._SPARSE * n) ** 0.5)), unique=True))
    a = [0] * size
    for i in slots:
        a[i] = draw(st.one_of(st.sampled_from((1, -1, 0, 2, -5, 13)), entries))
    b = draw(st.lists(entries, min_size=1, max_size=n + 5))
    return a, b, n


@checked
@given(product=sparse_products(), m=st.sampled_from(SHIFTED_MODULI), swap=st.booleans())
def test_shifted_adds_against_oracle(product, m, swap):
    a, b, n = product
    if swap:  # the sparse operand second
        a, b = b, a
    assert _kernels_py.mul(a, b, n, m) == _reduced(poly_mul(a, b, n), m)


def test_which_products_pack_as_shifted_adds():
    """At order 2107 a product by f1 packs as shifted adds for every
    modulus up to 2**30 + 3 and a dense square packs up to 13; at
    2**64 + 13 neither does."""
    n = 2107
    f1 = qpart.pochhammer_f(1, n).coeffs
    rng = random.Random(8)
    for m in SHIFTED_MODULI:
        dense = [rng.randrange(m) for _ in range(n)]
        assert (_kernels_py._mul_packed(f1, dense, n, m) is not None) == (m < 2**64)
        assert (_kernels_py._mul_packed(dense, dense, n, m) is not None) == (m <= 13)
        assert _kernels_py.mul(dense, f1, n, m) == _reduced(_kernels_py.mul(f1, dense, n), m)


@lru_cache(maxsize=None)
def _oracle_inverses():
    """1/f1 and psi = f2^2/f1 through HALVING_ORDER, from the dense
    oracles alone."""
    order = HALVING_ORDER
    inverse = poly_inv(pochhammer_by_product(1, order), order)
    f2 = pochhammer_by_product(2, order)
    return inverse, poly_mul(poly_mul(f2, f2, order), inverse, order)


def _inverses_mod(m, n):
    """1/f1 and psi through n, mod m."""
    return [_reduced(series[:n], m) for series in _oracle_inverses()]


@checked
@given(a=st.lists(entries, min_size=1, max_size=310), n=orders,
       m=st.sampled_from(SHIFTED_MODULI))
def test_division_by_f2_through_the_inverse_of_f1(a, n, m):
    """div(a, f2, n, m, inverse=1/f1, scale=2), two products of the
    classes of a, is the recurrence, at odd and even n."""
    f2 = qpart.pochhammer_f(2, n).coeffs
    inverse, _ = _inverses_mod(m, (n + 1) // 2)
    assert _kernels_py.div(a, f2, n, m, inverse=inverse, scale=2) == _kernels_py.div(a, f2, n, m)


@pytest.mark.parametrize("n", [_kernels_py._PACK_FROM - 1, _kernels_py._PACK_FROM + 1,
                               2 * _kernels_py._PACK_FROM + 1, 151, 300])
@pytest.mark.parametrize("m", [7, 13])
def test_division_by_f2_does_not_read_an_inverse_too_short(n, m):
    """An inverse of 1/f1 shorter than ceil(n/2) is not used: the
    quotient is the recurrence's, also where a full one would pack."""
    f2 = qpart.pochhammer_f(2, n).coeffs
    p, _ = _inverses_mod(m, n)  # 1/f1, divided by f2 as a
    h = (n + 1) // 2
    expected = _kernels_py.div(p, f2, n, m)
    assert _kernels_py.div(p, f2, n, m, inverse=p[:h], scale=2) == expected
    for length in {0, 1, min(30, h - 1), h // 2, h - 1}:
        assert _kernels_py.div(p, f2, n, m, inverse=p[:length], scale=2) == expected, length


@checked
@given(n=st.one_of(st.integers(1, 80), st.integers(1, HALVING_ORDER)),
       m=st.sampled_from(SHIFTED_MODULI))
def test_inverse_of_f1_by_halving(n, m):
    f1 = qpart.pochhammer_f(1, n).coeffs
    inverse, psi = _inverses_mod(m, n)
    halved = _kernels_py.inverse_by_halving(f1, psi, n, m)
    # None where it would not halve: below its base, or where the dense
    # square does not pack, past m = 13
    assert halved == (None if n <= _kernels_py._HALVING_BASE or m > 13 else inverse)
    assert _kernels_py.div((1,), f1, n, m) == inverse


def test_a_wrong_psi_or_inverse_fails_the_check_of_the_halving(monkeypatch):
    n, m = 300, 7
    f1 = qpart.pochhammer_f(1, n).coeffs
    inverse, psi = _inverses_mod(m, n)
    assert _kernels_py.inverse_by_halving(f1, psi, n, m) == inverse
    wrong = psi[:]
    wrong[n - 1] += 1
    with pytest.raises(RuntimeError):
        _kernels_py.inverse_by_halving(f1, wrong, n, m)
    # orders the halving does not reach give None, reading no psi
    assert _kernels_py.inverse_by_halving(f1[:64], wrong[:64], 64, m) is None
    halve = _kernels_py._halve

    def corrupted(*args):
        out = halve(*args)
        out[-1] += 1
        return out

    monkeypatch.setattr(_kernels_py, "_halve", corrupted)
    with pytest.raises(RuntimeError):
        _kernels_py.inverse_by_halving(f1, psi, n, m)


# -- the exact lane's paired paths ------------------------------------------------

big_or_small = st.one_of(st.integers(0, 9), st.integers(0, 2**70))


@st.composite
def nonnegative_products(draw):
    """(a, b, n) whose product through n has no negative coefficient:
    either b is shorter than n and a nonnegative, or b is nondecreasing
    through n and a has nonnegative partial sums A_j, with +-1 and other
    entries, so coefficient t of the product,
    sum_j A_j * (b[t-j] - b[t-j-1]), is nonnegative too."""
    n = draw(st.integers(1, 300))
    partial = draw(st.lists(st.sampled_from((0, 0, 1, 2, 5)), min_size=1, max_size=n + 5))
    b = list(accumulate(draw(st.lists(big_or_small, min_size=1, max_size=n + 5))))
    if len(b) < n and draw(st.booleans()):
        return partial, b, n
    a = [partial[0], *(y - x for x, y in zip(partial, partial[1:]))]
    return a, b + [b[-1]] * (n - len(b)), n


def _width(coeffs, extra):
    return max(1, max(coeffs, default=0).bit_length()) + extra


@checked
@given(product=nonnegative_products(), extra=st.integers(0, 3))
def test_paired_product_against_oracle(product, extra):
    a, b, n = product
    expected = poly_mul(a, b, n)
    assert _kernels_py._mul_pairs(a, b, n, _width(expected, extra)) == expected


@checked
@given(c=st.lists(big_or_small, min_size=1, max_size=300),
       half=st.lists(st.sampled_from((0, 0, 0, 1, -1, 3)), max_size=150),
       b0=st.sampled_from((1, -1)), extra=st.integers(0, 3))
def test_paired_quotient_against_oracle(c, half, b0, extra):
    """div(a, b, n) on pairs, for b a series in q^2 with few or many
    terms, b[0] = +-1, and a nonnegative quotient c at odd and even n."""
    n = len(c)
    b = [0] * (2 * len(half) + 1)
    b[::2] = [b0, *half]
    a = poly_mul(c, b, n)
    assert _kernels_py._div_pairs(a, b, n, _width(c, extra)) == c


# -- divisors with weighted terms ----------------------------------------------------

@st.composite
def weighted_divisors(draw):
    """(a, b, n, known) for a divisor b with b[0] = +-1 whose other terms
    are mostly weighted, some +-1, past _FEW_TERMS of either kind at the
    longer orders, and a prefix of the quotient of any length up to n."""
    n = draw(st.integers(1, 200))
    b = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5, -7, 2**70 + 3)),
                      min_size=1, max_size=n + 5))
    b[0] = draw(st.sampled_from((1, -1)))
    a = draw(st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=n + 5))
    return a, b, n, draw(st.integers(0, n))


@checked
@given(divisor=weighted_divisors(), m=st.sampled_from(MODULI + (13, 2**64 + 13)))
def test_weighted_divisors_run_the_same_in_either_loop(divisor, m):
    """_div_few, which div picks for fewer than _FEW_TERMS terms +-1
    whatever the weighted ones, equals the interleaved loop (_FEW_TERMS
    at 0) and the oracle, from a known prefix too."""
    a, b, n, p = divisor
    expected = _reduced(poly_mul(a, poly_inv(b, n), n), m)
    exponents = [j for j in range(1, min(n, len(b))) if b[j]]
    assert _kernels_py._div_few(a, b, n, m, expected[:p], exponents) == expected
    with mock.patch.object(_kernels_py, "_FEW_TERMS", 0):
        assert _kernels_py._divide(a, b, n, m, expected[:p]) == expected
    assert _kernels_py.div(a, b, n, m, expected[:p]) == expected


def test_a_weighted_divisor_runs_div_few_at_any_length(monkeypatch):
    """The cube f1^3 has one term +-1, its constant, and about sqrt(2n)
    weighted ones: div runs it by _div_few, and f1 by the interleaved
    loop."""
    calls = []
    div_few = _kernels_py._div_few
    monkeypatch.setattr(_kernels_py, "_div_few",
                        lambda *args: calls.append(args[2]) or div_few(*args))
    n = 701
    f1 = qpart.pochhammer_f(1, n).coeffs
    cube = poly_mul(f1, poly_mul(f1, f1, n), n)
    assert sum(1 for x in cube if x) > _kernels_py._FEW_TERMS
    a = list(range(n))
    expected = poly_mul(a, poly_inv(cube, n), n)
    for m in (None, 7):
        assert _kernels_py.div(a, cube, n, m) == _reduced(expected, m)
        _kernels_py.div(a, f1, n, m)
    assert calls == [n, n]
