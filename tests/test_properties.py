"""Differential property tests of the eta-quotient engine.

Random bounded eta expressions (1-3 terms, scales 1-6, exponents
-6..6, q-shifts 0-5, coefficients -9..9, orders 1-120) are expanded by
`eval_eta` and compared with a dense reference product built only from
`oracles.py`, with the exact expansion reduced mod m, and, for the
colored families, with the partition counts, which are themselves
compared with a knapsack count.  The family sweep, which steps
from one color count to the next, is compared with `eval_eta` for every
k it yields; random sequences of verifier calls, which share series
through the sweep's memo, are compared with the same calls on an empty
memo.  The series ring laws are checked exactly and mod m, and the
parser is fed generated garbage.  Examples are derandomized and
capped, so every run checks the same inputs.
"""

import sys
import threading
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart import congruence
from qpart.congruence import (
    CongruenceClaim,
    _family_sweep,
    family_expression,
    scan,
    verify_claim,
    verify_mod7_lifts,
)
from qpart.etaq import (
    EtaExpression,
    EtaSyntaxError,
    EtaTerm,
    ZeroScaleError,
    eval_eta,
    parse_eta,
    pochhammer_f,
)
from qpart.partitions import ColoredFamilySpec, Family, _count_table, oracle_series
from qpart.series import TruncatedSeries

from oracles import colored_partition_counts, pochhammer_by_product, poly_inv, poly_mul

MAX_ORDER = 120
MODULI = (2, 7, 13, 2**70 + 1)

checked = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Small orders come up often, so scales and shifts at or past the
# order are exercised without being forced.
orders = st.one_of(st.integers(1, 8), st.integers(1, MAX_ORDER))
scales = st.integers(1, 6)
terms = st.builds(
    EtaTerm.make,
    coefficient=st.integers(-9, 9),
    q_shift=st.integers(0, 5),
    factors=st.dictionaries(scales, st.sampled_from([e for e in range(-6, 7) if e]),
                            max_size=3),
)
expressions = st.lists(terms, min_size=1, max_size=3).map(
    lambda ts: EtaExpression(tuple(ts)))

SCALE_PAST_ORDER = EtaExpression.single(-2, 0, {1: 2, 6: -3})
SHIFT_PAST_ORDER = EtaExpression((EtaTerm.make(3, 5, {1: -6}), EtaTerm.make(1, 1, {2: 1})))


@lru_cache(maxsize=None)
def _pochhammer(k):
    return pochhammer_by_product(k, MAX_ORDER)


def dense_reference(expr, order):
    """The expression expanded by dense products of the finite partial
    products of each fk, with no code from the package."""
    total = [0] * order
    for term in expr.terms:
        acc = [1] + [0] * (order - 1)
        for k, e in term.factors:
            base = _pochhammer(k)[:order]
            if e < 0:
                base = poly_inv(base, order)
            for _ in range(abs(e)):
                acc = poly_mul(acc, base, order)
        for i in range(order - term.q_shift):
            total[i + term.q_shift] += term.coefficient * acc[i]
    return total


@checked
@given(k=scales, order=orders)
def test_pochhammer_matches_finite_product(k, order):
    assert list(pochhammer_f(k, order)) == _pochhammer(k)[:order]


@checked
@given(expr=expressions, order=orders)
@example(expr=SCALE_PAST_ORDER, order=4)
@example(expr=SHIFT_PAST_ORDER, order=5)
@example(expr=SHIFT_PAST_ORDER, order=1)
def test_exact_engine_matches_dense_reference(expr, order):
    assert list(eval_eta(expr, order)) == dense_reference(expr, order)


@checked
@given(expr=expressions, order=orders, m=st.sampled_from(MODULI))
@example(expr=SCALE_PAST_ORDER, order=4, m=2)
@example(expr=SHIFT_PAST_ORDER, order=5, m=7)
def test_modular_lane_matches_reduced_exact(expr, order, m):
    assert eval_eta(expr, order, modulus=m) == eval_eta(expr, order).reduce_mod(m)


@checked
@given(family=st.sampled_from(Family), k=st.integers(1, 8), order=orders)
def test_family_expression_matches_partition_dp(family, k, order):
    spec = ColoredFamilySpec(family, k)
    assert eval_eta(family_expression(spec), order) == oracle_series(spec, order)


@checked
@given(family=st.sampled_from(Family), k=st.integers(1, 40), order=orders)
@example(family=Family.ODD_COLORED, k=40, order=MAX_ORDER)
@example(family=Family.EVEN_COLORED, k=40, order=1)
def test_count_table_matches_knapsack(family, k, order):
    spec = ColoredFamilySpec(family, k)
    assert _count_table(spec, order) == colored_partition_counts(spec, order)


@checked
@given(family=st.sampled_from(Family), ks=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       order=orders, m=st.sampled_from((None, 2, 7, 13)))
@example(family=Family.ODD_COLORED, ks=[9, 2, 9, 4], order=120, m=None)
@example(family=Family.EVEN_COLORED, ks=[12, 1, 5, 5], order=97, m=7)
def test_family_sweep_matches_eval_eta(family, ks, order, m):
    swept = list(_family_sweep(family, ks, order, m))
    assert [k for k, _ in swept] == sorted(set(ks))
    for k, series in swept:
        expr = family_expression(ColoredFamilySpec(family, k))
        assert series == eval_eta(expr, order, modulus=m)


# One verifier call: a claim, a scan, the mod-7 lifts, or a bare sweep.
# Orders go up and down from call to call, so later calls start from
# longer, shorter or nearer kept series, in every lane.
claim_calls = st.tuples(st.just("claim"), st.sampled_from(Family), st.integers(1, 12),
                        st.sampled_from((2, 7, 13)), st.integers(0, 12),
                        st.integers(1, 40), st.booleans())
scan_calls = st.tuples(st.just("scan"), st.sampled_from(Family),
                       st.lists(st.integers(1, 12), min_size=1, max_size=3),
                       st.sampled_from((2, 7, 13)), st.integers(50, 60), st.booleans())
lift_calls = st.tuples(st.just("lifts"), st.integers(0, 1), st.integers(1, 30))
sweep_calls = st.tuples(st.just("sweep"), st.sampled_from(Family),
                        st.lists(st.integers(1, 12), min_size=1, max_size=4),
                        st.integers(1, 400), st.sampled_from((None, 2, 7, 13)))


def _run(call):
    kind, *args = call
    if kind == "claim":
        family, k, m, r, upto, modular = args
        claim = CongruenceClaim(ColoredFamilySpec(family, k), m, r % m)
        return [verify_claim(claim, upto, modular)]
    if kind == "scan":
        family, ks, m, upto, modular = args
        return scan(ks, m, upto, family, modular)
    if kind == "lifts":
        return verify_mod7_lifts(*args)
    family, ks, order, m = args
    return list(_family_sweep(family, ks, order, m))


def _cold(call):
    """The call on an empty memo, leaving the warm one as it was."""
    warm = congruence._MEMO
    congruence._MEMO = congruence._SweepMemo(warm.capacity)
    try:
        return _run(call)
    finally:
        congruence._MEMO = warm


def _memo_within_bound():
    kept = congruence._MEMO._series
    size = sum(series.order for series in kept.values())
    return congruence._MEMO.size == size <= congruence._MEMO.capacity == 2**16


@settings(checked, max_examples=100)
@given(calls=st.lists(st.one_of(claim_calls, scan_calls, lift_calls, sweep_calls),
                      min_size=1, max_size=6))
@example(calls=[("claim", Family.ODD_COLORED, 3, 7, 2, 40, False),
                ("claim", Family.ODD_COLORED, 5, 7, 6, 10, False),
                ("lifts", 1, 30),
                ("sweep", Family.ODD_COLORED, [4, 9], 300, None)])
@example(calls=[("scan", Family.EVEN_COLORED, [2, 5], 13, 60, True),
                ("claim", Family.EVEN_COLORED, 7, 13, 3, 40, True),
                ("sweep", Family.EVEN_COLORED, [1, 6], 1, 13)])
def test_memo_keeps_every_result(calls):
    congruence._MEMO.clear()
    for call in calls:
        result = _run(call)
        assert result == _cold(call)
        if call[0] == "sweep":
            family, _, order, m = call[1:]
            for k, series in result:
                expr = family_expression(ColoredFamilySpec(family, k))
                assert series == eval_eta(expr, order, modulus=m)
        assert _memo_within_bound()
    for (family, k, m), series in congruence._MEMO._series.items():
        expr = family_expression(ColoredFamilySpec(family, k))
        assert series == eval_eta(expr, series.order, modulus=m)


def test_memo_bound_and_eviction(monkeypatch):
    monkeypatch.setattr(congruence._MEMO, "capacity", 300)
    list(_family_sweep(Family.ODD_COLORED, [1, 2], 100))
    list(_family_sweep(Family.EVEN_COLORED, [1], 100, 7))
    kept = congruence._MEMO._series
    assert list(kept) == [(Family.ODD_COLORED, 1, None), (Family.ODD_COLORED, 2, None),
                          (Family.EVEN_COLORED, 1, 7)]
    # a_1 is used again, so a_2 is now the least recently used and goes
    # first; b_2 starts from b_1, which is used again too
    list(_family_sweep(Family.ODD_COLORED, [1], 50))
    list(_family_sweep(Family.EVEN_COLORED, [2], 100, 7))
    assert list(kept) == [(Family.ODD_COLORED, 1, None), (Family.EVEN_COLORED, 1, 7),
                          (Family.EVEN_COLORED, 2, 7)]
    assert congruence._MEMO.size == 300
    # a series longer than the bound is never kept, nor does it evict anything
    list(_family_sweep(Family.ODD_COLORED, [4], 301))
    assert (Family.ODD_COLORED, 4, None) not in kept and congruence._MEMO.size == 300
    # a longer series of a kept k replaces the shorter one
    list(_family_sweep(Family.EVEN_COLORED, [1], 150, 7))
    assert [(key, s.order) for key, s in kept.items()] == [
        ((Family.EVEN_COLORED, 2, 7), 100), ((Family.EVEN_COLORED, 1, 7), 150)]
    assert congruence._MEMO.size == 250


def test_memo_shared_by_threads(monkeypatch):
    # more threads than cores, switching often, on three keys and a memo
    # small enough that the threads replace and evict each other's series
    monkeypatch.setattr(congruence._MEMO, "capacity", 100)
    expected = {k: eval_eta(family_expression(ColoredFamilySpec(Family.EVEN_COLORED, k)), 40)
                for k in (1, 2, 3)}
    failures = []

    def work(seed):
        try:
            for i in range(300):
                k = 1 + (seed + i) % 3
                order = 20 + (seed * 7 + i) % 21
                for _, series in _family_sweep(Family.EVEN_COLORED, [k], order):
                    if series != expected[k].truncate(order):
                        failures.append((k, order))
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
    assert congruence._MEMO.size == sum(s.order for s in congruence._MEMO._series.values())
    assert congruence._MEMO.size <= 100


series_coeffs = st.one_of(st.integers(-9, 9), st.integers(-2**80, 2**80))
series = st.lists(series_coeffs, min_size=1, max_size=40).map(TruncatedSeries)
unit_series = st.tuples(st.sampled_from((1, -1)), st.lists(series_coeffs, max_size=39)).map(
    lambda t: TruncatedSeries([t[0], *t[1]]))


@checked
@given(a=series, b=series, c=series, x=unit_series, m=st.sampled_from((None, 2, 7, 13)))
def test_series_ring_laws(a, b, c, x, m):
    def r(s):
        return s if m is None else s.reduce_mod(m)

    a, b, c = r(a), r(b), r(c)
    assert r(a + b) == r(b + a)
    assert r(a * b) == r(b * a)
    assert r(r(a + b) + c) == r(a + r(b + c))
    assert r(r(a * b) * c) == r(a * r(b * c))
    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
    assert r(x * x.inverse()) == r(TruncatedSeries.one(x.order))
    assert r(r(x) * r(x.inverse())) == r(TruncatedSeries.one(x.order))


# Mostly characters of the grammar, so that garbage gets past the
# tokenizer and reaches the parser; sometimes any text at all.
garbage = st.one_of(st.text(alphabet="qf()+-*/^0123456789 ", max_size=40),
                    st.text(max_size=20))


@checked
@given(text=garbage)
@example(text="f\u00b2")  # '²' is a digit to str.isdigit, not to int()
@example(text="f1^" + "9" * 5000)  # more digits than int() converts
@example(text="(" * 1000 + "1" + ")" * 1000)  # deeper than the interpreter's stack
def test_parser_raises_only_grammar_errors(text):
    try:
        parse_eta(text)
    except (EtaSyntaxError, ZeroScaleError):
        pass
