"""Differential property tests of the eta-quotient engine.

Random bounded eta expressions (1-3 terms, scales 1-6, exponents
-6..6, q-shifts 0-5, coefficients -9..9, orders 1-120) are expanded by
`eval_eta` and compared with a dense reference product built only from
`oracles.py`, with the exact expansion reduced mod m, and, for the
colored families, with the partition DP.  The family sweep, which steps
from one color count to the next, is compared with `eval_eta` for every
k it yields, and the parser is fed generated garbage.  Examples are
derandomized and capped, so every run checks the same inputs.
"""

from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpart.congruence import _family_sweep, family_expression
from qpart.etaq import (
    EtaExpression,
    EtaSyntaxError,
    EtaTerm,
    ZeroScaleError,
    eval_eta,
    parse_eta,
    pochhammer_f,
)
from qpart.partitions import ColoredFamilySpec, Family, oracle_series

from oracles import pochhammer_by_product, poly_inv, poly_mul

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
