"""Differential property tests of the eta-quotient engine.

Random bounded eta expressions (1-3 terms, scales 1-6, exponents
-6..6, q-shifts 0-5, coefficients -9..9, orders 1-120) are expanded by
`eval_eta` and compared with a dense reference product built only from
`oracles.py`, with the exact expansion reduced mod m, and, for the
colored families, with the partition counts, which are themselves
compared with a knapsack count.  Sums of 2-5 terms with q-shifts up
to 120 are compared with the same reference, and the passes `eval_eta`
runs for them, charged by their lengths, with the charge of expanding
each term on its own.  Expressions whose scales share divisors, so
that a term's passes run at several scales, are compared with the
same reference and reduced mod m; the work of the passes, counted
from the kernels, with the charge of eval_eta's plans, from a kept
cube f1^3 and from none, in either lane; and the plan of a term's
factors, their order and which of them fold into passes over fk^3,
with every order and choice of folds.  That charge, and the family sweep's, never exceed
the count of |e| passes over fk per factor, in either lane.
Factors with exponents -10..10 at the paper's scales run folded, as
planned, all folded or none, in every lane, against the same
reference, and equal the series from a cube kept shorter or longer
than they need.  The family sweep, which steps
from one color count to the next, is compared with `eval_eta` for every
k it yields; random sequences of verifier calls, which share series
through the sweep's memo, are compared with the same calls on an empty
memo.  The exact lane's paired chain steps are compared with the
loops and the partition counts, and the bound they take their width
from with every member through order 2107.  The series ring laws are
checked exactly and mod m, and the parser is fed generated garbage.
Examples are derandomized and capped, so every run checks the same
inputs.
"""

import contextlib
import sys
import threading
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qpart import _kernels_py, congruence, etaq
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
from qpart.partitions import (
    ColoredFamilySpec,
    Family,
    _count_bits,
    _count_table,
    oracle_series,
)
from qpart.series import TruncatedSeries, _Memo

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

# q-shifts anywhere below MAX_ORDER, so that terms expand to very
# different lengths
shifted_expressions = st.lists(
    st.builds(EtaTerm.make, coefficient=st.integers(-9, 9), q_shift=st.integers(0, MAX_ORDER),
              factors=st.dictionaries(scales, st.integers(-8, 8), max_size=3)),
    min_size=2, max_size=5).map(lambda ts: EtaExpression(tuple(ts)))

# Scales that share divisors, so that a term's passes run at several
# scales, with 1 mixed in, so that the last ones may run at scale 1;
# up to five of them, one more than _plan_factors plans.
divisor_expressions = st.lists(
    st.sampled_from([(1, 2, 4, 6, 8, 12), (1, 3, 6, 9), (1, 7, 14)]).flatmap(
        lambda ks: st.builds(EtaTerm.make, coefficient=st.integers(-9, 9),
                             q_shift=st.integers(0, 12),
                             factors=st.dictionaries(st.sampled_from(ks), st.integers(-5, 5),
                                                     max_size=5))),
    min_size=1, max_size=3).map(lambda ts: EtaExpression(tuple(ts)))

SCALE_PAST_ORDER = EtaExpression.single(-2, 0, {1: 2, 6: -3})
SHIFT_PAST_ORDER = EtaExpression((EtaTerm.make(3, 5, {1: -6}), EtaTerm.make(1, 1, {2: 1})))
MIXED_SCALES = parse_eta("3*q^5*f4^3*f6/f2^2 - f3^4/f9 + f7^2*f14")


@lru_cache(maxsize=None)
def _pochhammer(k):
    return pochhammer_by_product(k, MAX_ORDER)


@lru_cache(maxsize=None)
def _dense_power(k, e):
    """fk^e through MAX_ORDER by |e| dense products of the finite partial
    product of fk, or of its inverse; truncation commutes with products,
    so a lower order is a prefix."""
    if e == 0:
        return (1,) + (0,) * (MAX_ORDER - 1)
    base = _pochhammer(k) if e > 0 else poly_inv(_pochhammer(k), MAX_ORDER)
    return tuple(poly_mul(_dense_power(k, e - (e > 0) + (e < 0)), base, MAX_ORDER))


def dense_reference(expr, order):
    """The expression expanded by dense products of the finite partial
    products of each fk, with no code from the package."""
    total = [0] * order
    for term in expr.terms:
        acc = [1] + [0] * (order - 1)
        for k, e in term.factors:
            acc = poly_mul(acc, _dense_power(k, e)[:order], order)
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
@given(expr=shifted_expressions, order=st.integers(1, MAX_ORDER))
def test_shared_factors_cost_no_more_than_single_terms(expr, order):
    """eval_eta's passes, each charged by _pass_work at its length, cost
    no more than _expansion_work charges for expanding each term on its
    own, so that charge bounds what eval_eta spends."""
    charged = []
    apply_factors = etaq._apply_factors

    def counted(acc, factors, n, m, *rest):
        factors = list(factors)
        charged.append(sum(abs(e) * etaq._pass_work(k, n) for k, e in factors))
        return apply_factors(acc, factors, n, m, *rest)

    with mock.patch.object(etaq, "_apply_factors", counted):
        assert list(eval_eta(expr, order)) == dense_reference(expr, order)
    alone = sum(abs(e) * etaq._pass_work(k, order - term.q_shift)
                for term in expr.terms if term.q_shift < order and term.coefficient
                for k, e in term.factors)
    assert sum(charged) <= alone


@checked
@given(expr=expressions, order=orders, m=st.sampled_from(MODULI))
@example(expr=SCALE_PAST_ORDER, order=4, m=2)
@example(expr=SHIFT_PAST_ORDER, order=5, m=7)
def test_modular_lane_matches_reduced_exact(expr, order, m):
    assert eval_eta(expr, order, modulus=m) == eval_eta(expr, order).reduce_mod(m)


@checked
@given(expr=divisor_expressions, order=orders, m=st.sampled_from(MODULI))
@example(expr=MIXED_SCALES, order=1, m=7)
@example(expr=MIXED_SCALES, order=2, m=2)
@example(expr=MIXED_SCALES, order=MAX_ORDER - 1, m=13)
def test_planned_passes_match_dense_reference(expr, order, m):
    exact = eval_eta(expr, order)
    assert list(exact) == dense_reference(expr, order)
    assert eval_eta(expr, order, modulus=m) == exact.reduce_mod(m)


@settings(checked, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=st.one_of(divisor_expressions, shifted_expressions), order=orders)
def test_planned_passes_cost_no_more_than_the_charge(expr, order, kernel_passes):
    kernel_passes.clear()
    eval_eta(expr, order)
    assert kernel_passes.work <= etaq._expansion_work(expr, order)


@checked
@given(factors=st.dictionaries(st.sampled_from((1, 2, 3, 4, 6, 7, 8, 12, 14)),
                               st.integers(-6, 6).filter(bool), min_size=1, max_size=4),
       order=st.integers(1, MAX_ORDER))
@example(factors={1: 2, 2: -3}, order=50)
@example(factors={1: 2, 2: -3}, order=MAX_ORDER)
@example(factors={1: -20, 2: 8, 7: -7, 14: 18}, order=MAX_ORDER)
def test_plan_is_the_cheapest_order(factors, order):
    """_plan_factors returns the factors in an order, each folded into
    cube passes or not, of least price, and that price, found here by
    trying every order and every choice of folds: per factor its passes
    through ceil(N/g), g the gcd of the scales applied so far, the first
    pass of a first factor with e > 0 being a copy, of the cube where it
    folds.  A pass through a length is priced that length times the
    nonzero terms of its operand below N, fk or fk^3 alike, plus the
    fixed charge of a pass; a folded factor fk^e adds the build of its
    cube, two passes over f1 through ceil(N/k), whether or not a cube is
    kept."""
    def price(length, coeffs, below=order):
        return length * sum(1 for x in coeffs[:below] if x) + etaq._PASS_OVERHEAD

    def work(plan):
        total, g = 0, 0
        for i, (k, e, fold) in enumerate(plan):
            g = gcd(g, k)
            length = -(-order // g)
            cubes = abs(e) // 3 if fold else 0
            singles = abs(e) - 3 * cubes
            if fold:
                total += 2 * price(-(-order // k), _pochhammer(1), -(-order // k))
            if i == 0 and e > 0:  # a copy
                if cubes:
                    cubes -= 1
                else:
                    singles -= 1
            total += cubes * price(length, _dense_power(k, 3))
            total += singles * price(length, _pochhammer(k))
        return total

    factors = sorted(factors.items())
    with mock.patch.object(etaq, "_PLAN_FROM", 1):  # planned at every order
        ordered, folded, charge = etaq._plan_factors(factors, order)
    assert sorted(ordered) == factors
    plans = [[(k, e, fold) for (k, e), fold in zip(p, folds)]
             for p in permutations(factors)
             for folds in product(*[(False, True) if abs(e) >= 3 else (False,) for _, e in p])]
    best = min(map(work, plans))
    assert work([(k, e, k in folded) for k, e in ordered]) == best == charge


# Factors at the scales of the paper's expressions, with exponents
# -10..10, every residue mod 3 of both signs, so that a folded factor
# leaves 0, 1 or 2 passes over fk after its cube passes.
folded_expressions = st.lists(
    st.builds(EtaTerm.make, coefficient=st.integers(-9, 9), q_shift=st.integers(0, 5),
              factors=st.dictionaries(st.sampled_from((1, 2, 3, 7, 14)), st.integers(-10, 10),
                                      max_size=3)),
    min_size=1, max_size=2).map(lambda ts: EtaExpression(tuple(ts)))
FOLD_MODULI = (None, 2, 7, 13, 2**30 + 3, 2**64 + 13)
# The cube of the paper's Frobenius and dissection terms: every factor
# of the plan's price at every length, the last ones at scale 1.
PAPER_TERMS = parse_eta("f1^-9*f2^7/f3^5 + 2*q^4*f1^6/f7^4 - f7^10*f14^-8")


@contextlib.contextmanager
def _forced_folds(fold):
    """Every factor with |e| >= 3 folded (True), none (False), or as the
    plan prices it (None).  The plans kept per expression are dropped on
    the way in and out, so that each expansion inside is planned so, and
    none planned so is read after."""
    price = etaq._factor_price if fold is None else (
        lambda terms, *_: (0, fold and abs(terms[1]) >= 3))
    etaq._expansion_plan.cache_clear()
    try:
        with mock.patch.object(etaq, "_factor_price", price):
            yield
    finally:
        etaq._expansion_plan.cache_clear()


@checked
@given(expr=folded_expressions, order=orders, m=st.sampled_from(FOLD_MODULI),
       fold=st.sampled_from((None, False, True)))
@example(expr=PAPER_TERMS, order=MAX_ORDER, m=None, fold=None)
@example(expr=PAPER_TERMS, order=MAX_ORDER, m=2**64 + 13, fold=True)
@example(expr=PAPER_TERMS, order=1, m=2, fold=True)
def test_folded_passes_match_dense_reference(expr, order, m, fold):
    """Each factor fk^e run as |e|//3 passes over fk^3 and |e|%3 over fk,
    in either sign and lane, as the plan folds it or with every factor
    folded or none, equals the dense reference."""
    with _forced_folds(fold):
        series = eval_eta(expr, order, modulus=m)
    expected = dense_reference(expr, order)
    assert list(series) == (expected if m is None else [x % m for x in expected])


@checked
@given(expr=folded_expressions, order=orders, m=st.sampled_from(FOLD_MODULI),
       kept=st.integers(1, 2 * MAX_ORDER))
@example(expr=PAPER_TERMS, order=MAX_ORDER, m=7, kept=MAX_ORDER // 3)
@example(expr=PAPER_TERMS, order=MAX_ORDER, m=None, kept=2 * MAX_ORDER)
def test_cold_and_warm_cubes_give_equal_series(expr, order, m, kept):
    """With no cube kept, with one kept longer than the expansion needs
    (sliced) and one kept shorter (built again, longer), every factor
    folded so that the cube is read, the series are equal."""
    with _forced_folds(True):
        etaq._CUBES.clear()
        cold = eval_eta(expr, order, modulus=m)
        etaq._CUBES.clear()
        etaq._cube_coeffs(1, kept)
        assert eval_eta(expr, order, modulus=m) == cold
        assert len(etaq._CUBES.get(etaq._CUBE)) >= kept
    assert eval_eta(expr, order, modulus=m) == cold


@settings(checked, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=st.one_of(folded_expressions, divisor_expressions, shifted_expressions),
       order=orders)
@example(expr=PAPER_TERMS, order=MAX_ORDER)
def test_passes_from_a_cold_cube_cost_no_more_than_the_charge(expr, order, kernel_passes):
    """As test_planned_passes_cost_no_more_than_the_charge, with the cube
    taken away before each expansion, so that every folded factor's
    build, two products by f1, is counted."""
    etaq._CUBES.clear()
    kernel_passes.clear()
    eval_eta(expr, order)
    assert kernel_passes.work <= etaq._expansion_work(expr, order)


@settings(checked, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=st.one_of(folded_expressions, divisor_expressions, shifted_expressions),
       order=orders, m=st.sampled_from(FOLD_MODULI[1:]))
@example(expr=PAPER_TERMS, order=MAX_ORDER, m=7)
@example(expr=PAPER_TERMS, order=MAX_ORDER, m=2**30 + 3)
def test_modular_passes_cost_no_more_than_the_charge(expr, order, m, kernel_passes):
    """As test_passes_from_a_cold_cube_cost_no_more_than_the_charge, in
    the modular lane, charged mod m.  Each pass is counted as in the
    exact lane, its length times the nonzero terms of its sparse
    operand: a product that packs runs no more shifted adds than those
    terms, each over slots of at most 8 bytes a coefficient."""
    etaq._CUBES.clear()
    kernel_passes.clear()
    eval_eta(expr, order, modulus=m)
    assert kernel_passes.work <= etaq._expansion_work(expr, order, m)


def _unfolded_work(expr, order):
    """The charge of expanding each term of expr on its own by |e| passes
    over fk per factor: the output, and per term c * q^s * prod fk^e
    with s below the order the N - s coefficients it adds and |e|
    passes over fk through N - s (_pass_work), whatever its coefficient
    or the lane: the bound that keeps every refusal edge where it was
    or moves it toward answering."""
    work = order
    for term in expr.terms:
        n = order - term.q_shift
        if n > 0:
            work += n + sum(abs(e) * etaq._pass_work(k, n) for k, e in term.factors)
    return work


# Terms with large powers, as in the paper's checks: a_k = f2^(k-1)/f1^k,
# the dissection terms and f_a^(b*p).
large_powers = st.lists(
    st.builds(EtaTerm.make, coefficient=st.integers(-9, 9), q_shift=st.integers(0, 50),
              factors=st.dictionaries(st.integers(1, 40), st.integers(-10**6, 10**6),
                                      max_size=4)),
    min_size=1, max_size=4).map(lambda ts: EtaExpression(tuple(ts)))


@checked
@given(expr=st.one_of(expressions, shifted_expressions, divisor_expressions, large_powers),
       order=st.one_of(orders, st.integers(1, 5000)),
       m=st.sampled_from((None, 2, 7, 13, 199999, 2**30 + 3, 2**64 + 13)))
@example(expr=parse_eta("f1^199999 - f199999"), order=50, m=199999)
@example(expr=parse_eta("f1^-9000000"), order=3, m=None)
@example(expr=PAPER_TERMS, order=2107, m=7)
def test_charge_never_exceeds_the_unfolded_count(expr, order, m):
    """The charge priced from eval_eta's plans never exceeds the count of
    |e| passes over fk per factor, in either lane: every refusal edge
    moves only toward accepting."""
    assert etaq._expansion_work(expr, order, m) <= _unfolded_work(expr, order)


def test_sweep_charge_never_exceeds_the_unfolded_count():
    """The family sweep's charge, its own passes, never exceeds the count
    of a direct expansion of its largest member plus one output series
    per further member, for k <= 60 and orders 1..3000."""
    expressions = {(family, k): family_expression(ColoredFamilySpec(family, k))
                   for family in Family for k in range(1, 61)}
    for order in range(1, 3001):
        for (family, k), expr in expressions.items():
            unfolded = _unfolded_work(expr, order) + order * (k - 1)
            assert congruence._sweep_work(family, k, order, k) <= unfolded, (family, k, order)


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
    congruence._MEMO = _Memo(warm.capacity)
    try:
        return _run(call)
    finally:
        congruence._MEMO = warm


def _memo_within_bound():
    kept = congruence._MEMO._kept
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
# orders that rise from call to call, so that kept series are continued
@example(calls=[("sweep", Family.ODD_COLORED, [2, 5], 40, None),
                ("sweep", Family.ODD_COLORED, [1, 5], 90, None),
                ("claim", Family.ODD_COLORED, 4, 7, 4, 20, False),
                ("sweep", Family.EVEN_COLORED, [3], 50, 7),
                ("scan", Family.EVEN_COLORED, [1, 4], 7, 55, True),
                ("sweep", Family.EVEN_COLORED, [2, 6], 400, 7)])
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
    for (family, k, m), series in congruence._MEMO._kept.items():
        expr = family_expression(ColoredFamilySpec(family, k))
        assert series == eval_eta(expr, series.order, modulus=m)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", [None, 7])
def test_sweep_continues_kept_series(family, m, kernel_passes):
    list(_family_sweep(family, [1, 4], 100, m))
    kernel_passes.clear()
    swept = list(_family_sweep(family, [2, 4], 130, m))
    # members 1 to 4 are continued from order 100: one division each,
    # and for family a one product each from member 2 on, each pass
    # computing only the 30 new coefficients
    passes = 7 if family is Family.ODD_COLORED else 4
    assert [n for _, n in kernel_passes] == [30] * passes
    for k, series in swept:
        assert series == eval_eta(family_expression(ColoredFamilySpec(family, k)), 130,
                                  modulus=m)


@pytest.mark.parametrize("m", [None, 7])
def test_both_families_start_from_one_kept_inverse_of_f1(m, kernel_passes):
    def sweep(family, ks):
        kernel_passes.clear()
        swept = list(_family_sweep(family, ks, 120, m))
        passes = list(kernel_passes)
        for k, series in swept:
            assert series == eval_eta(family_expression(ColoredFamilySpec(family, k)), 120,
                                      modulus=m)
        return passes

    list(_family_sweep(Family.ODD_COLORED, [1], 120, m))
    # b_2 = a_1 / f2: one division, from the kept a_1
    assert sweep(Family.EVEN_COLORED, [2]) == [("div", 120)]
    congruence._MEMO.clear()
    list(_family_sweep(Family.EVEN_COLORED, [1], 100, m))
    # a_3 from the kept b_1: a_1 continued by 20 coefficients, then two
    # colors of a product by f2 and a division by f1
    assert sweep(Family.ODD_COLORED, [1, 3]) == [("div", 20)] + [("mul", 120), ("div", 120)] * 2


def test_memo_bound_and_eviction(monkeypatch):
    monkeypatch.setattr(congruence._MEMO, "capacity", 300)
    list(_family_sweep(Family.ODD_COLORED, [1, 2], 100))
    list(_family_sweep(Family.EVEN_COLORED, [1], 100, 7))
    kept = congruence._MEMO._kept
    assert list(kept) == [(Family.ODD_COLORED, 1, None), (Family.ODD_COLORED, 2, None),
                          (Family.ODD_COLORED, 1, 7)]
    # a_1 is used again, so a_2 is now the least recently used and goes
    # first; b_2 starts from b_1, which is used again too
    list(_family_sweep(Family.ODD_COLORED, [1], 50))
    list(_family_sweep(Family.EVEN_COLORED, [2], 100, 7))
    assert list(kept) == [(Family.ODD_COLORED, 1, None), (Family.ODD_COLORED, 1, 7),
                          (Family.EVEN_COLORED, 2, 7)]
    assert congruence._MEMO.size == 300
    # a series longer than the bound is never kept, nor does it evict
    # anything; the chain read the kept a_1, which counts as used
    list(_family_sweep(Family.ODD_COLORED, [4], 301))
    assert (Family.ODD_COLORED, 4, None) not in kept and congruence._MEMO.size == 300
    assert list(kept) == [(Family.ODD_COLORED, 1, 7), (Family.EVEN_COLORED, 2, 7),
                          (Family.ODD_COLORED, 1, None)]
    # a longer series of a kept k replaces the shorter one, and b_2, now
    # the least recently used, goes
    list(_family_sweep(Family.EVEN_COLORED, [1], 150, 7))
    assert [(key, s.order) for key, s in kept.items()] == [
        ((Family.ODD_COLORED, 1, None), 100), ((Family.ODD_COLORED, 1, 7), 150)]
    assert congruence._MEMO.size == 250


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("m", [None, 7])
def test_a_chain_longer_than_the_memo_keeps_its_newest_members(family, m, monkeypatch,
                                                              kernel_passes):
    order = 60
    monkeypatch.setattr(congruence._MEMO, "capacity", 5 * order)
    swept = dict(_family_sweep(family, range(1, 13), order, m))
    kept = congruence._MEMO._kept
    # a walk longer than the memo keeps its newest capacity // order - 1
    # members, so that one member's room stays for other entries
    assert sorted(kept) == [(family, k, m) for k in range(9, 13)]
    assert congruence._MEMO.size <= congruence._MEMO.capacity
    for k, series in swept.items():
        assert series == eval_eta(family_expression(ColoredFamilySpec(family, k)), order,
                                  modulus=m)
    # the next chain starts from the kept member 12: one step per color,
    # in lane 7 too, where 1/f1 through 30 is below the halving's base
    kernel_passes.clear()
    list(_family_sweep(family, [12, 14], order, m))
    step = [("mul", order), ("div", order)] if family is Family.ODD_COLORED else [("div", order)]
    assert kernel_passes == step * 2
    assert sorted(kept) == [(family, k, m) for k in range(10, 15)]


def test_a_walk_longer_than_the_memo_leaves_room_for_other_entries():
    kept = congruence._MEMO._kept
    list(_family_sweep(Family.EVEN_COLORED, [2], 40, 7))
    assert set(kept) == {(Family.ODD_COLORED, 1, 7), (Family.EVEN_COLORED, 2, 7)}
    list(_family_sweep(Family.ODD_COLORED, [3000], 40))
    # the walk keeps its newest capacity // 40 - 1 = 1637 members, and the
    # newest entry kept before it stays
    assert (Family.EVEN_COLORED, 2, 7) in kept
    assert sorted(k for family, k, m in kept if m is None) == list(range(1364, 3001))
    assert _memo_within_bound()


def _step_operands(order):
    return (etaq._pochhammer_coeffs(2, order),
            etaq._closed_form(etaq._CLOSED_FORMS[etaq._PSI], order))


@settings(checked, max_examples=60)
@given(family=st.sampled_from(Family), k=st.integers(2, 12),
       order=st.one_of(st.integers(1, 8), st.integers(1, 400)),
       pair_from=st.sampled_from((1, _kernels_py._PAIR_FROM)))
@example(family=Family.ODD_COLORED, k=12, order=2107, pair_from=_kernels_py._PAIR_FROM)
@example(family=Family.EVEN_COLORED, k=12, order=2107, pair_from=_kernels_py._PAIR_FROM)
@example(family=Family.ODD_COLORED, k=2, order=2106, pair_from=_kernels_py._PAIR_FROM)
@example(family=Family.EVEN_COLORED, k=7, order=_kernels_py._PAIR_FROM, pair_from=1)
@example(family=Family.ODD_COLORED, k=5, order=_kernels_py._PAIR_FROM - 1,
         pair_from=_kernels_py._PAIR_FROM)
def test_paired_steps_match_the_loops_and_the_dp(family, k, order, pair_from):
    """One chain step from member k-1, taken from the partition DP, by
    the kernels with the bound of member k (the paired paths from
    pair_from on) and without it (the loops): the two agree, and the
    quotient is member k, at odd and even orders on both sides of
    _PAIR_FROM."""
    f2, psi = _step_operands(order)
    bits = _count_bits(ColoredFamilySpec(family, k), order - 1)
    x = list(oracle_series(ColoredFamilySpec(family, k - 1), order).coeffs)
    with mock.patch.object(_kernels_py, "_PAIR_FROM", pair_from):
        if family is Family.ODD_COLORED:
            product = _kernels_py.mul(psi, x, order, bits=bits)
            x = _kernels_py.mul(psi, x, order)
            assert product == x
        quotient = _kernels_py.div(x, f2, order, scale=2, bits=bits)
    assert quotient == _kernels_py.div(x, f2, order)
    assert quotient == list(oracle_series(ColoredFamilySpec(family, k), order).coeffs)


@pytest.mark.parametrize("family", list(Family))
def test_only_steps_with_no_kept_prefix_run_on_pairs(family, monkeypatch):
    """At order 2107 every step of a cold chain runs on pairs; a chain
    continued to 2107 from members kept at 2000, and eval_eta's passes,
    run the loops."""
    calls = []
    for name in ("_mul_pairs", "_div_pairs"):
        def recorded(*args, name=name, kernel=getattr(_kernels_py, name)):
            calls.append(name)
            return kernel(*args)
        monkeypatch.setattr(_kernels_py, name, recorded)
    step = ["_mul_pairs", "_div_pairs"] if family is Family.ODD_COLORED else ["_div_pairs"]
    list(_family_sweep(family, [2, 4], 2107))
    assert calls == step * 3
    congruence._MEMO.clear()
    list(_family_sweep(family, [2, 4], 2000))
    calls.clear()
    swept = dict(_family_sweep(family, [2, 4], 2107))
    assert calls == []
    expr = family_expression(ColoredFamilySpec(family, 4))
    assert eval_eta(expr, 2107) == swept[4]
    assert calls == []


def test_count_bits_bounds_every_member_and_product():
    """Every coefficient n of members 1..40 of both families, and of the
    products psi * a_(k-1), lies in 0 .. 2^_count_bits(member k, n) - 1
    through order 2107: the bound the paired steps take their slot
    width from."""
    order = 2107
    f1 = etaq._pochhammer_coeffs(1, order)
    f2, psi = _step_operands(order)

    def within(coeffs, spec):
        return all(0 <= c < 1 << _count_bits(spec, n) for n, c in enumerate(coeffs))

    for family in Family:
        member = _kernels_py.div((1,), f1, order)
        assert within(member, ColoredFamilySpec(family, 1))
        for k in range(2, 41):
            spec = ColoredFamilySpec(family, k)
            if family is Family.ODD_COLORED:
                member = _kernels_py.mul(psi, member, order)
                assert within(member, spec), k
            member = _kernels_py.div(member, f2, order)
            assert within(member, spec), k


@checked
@given(family=st.sampled_from(Family), order=st.one_of(st.integers(1, 80), st.integers(1, 700)),
       m=st.sampled_from((2, 3, 7, 13, 2**30 + 3, 2**64 + 13)))
def test_modular_member_1_matches_partition_dp(family, order, m):
    """Member 1 of a cold modular sweep, 1/f1 by halving where the
    square packs and past the halving's base, is the partition DP
    reduced."""
    congruence._MEMO.clear()
    _, series = next(_family_sweep(family, [1], order, m))
    assert series == oracle_series(ColoredFamilySpec(family, 1), order).reduce_mod(m)


@pytest.mark.parametrize("family", list(Family))
def test_a_wrong_psi_row_fails_the_check_of_the_modular_sweep(family, monkeypatch):
    psi = etaq._CLOSED_FORMS[etaq._PSI]
    wrong = psi._replace(term=lambda n: (n * (n + 1) // 2, 2 if n == 20 else 1))
    monkeypatch.setitem(etaq._CLOSED_FORMS, etaq._PSI, wrong)
    with pytest.raises(RuntimeError):
        list(_family_sweep(family, [1, 2], 300, 7))


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
    assert congruence._MEMO.size == sum(s.order for s in congruence._MEMO._kept.values())
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
