"""Grammar coverage, error positions, and round-trip stability."""

import pytest

from qpart.congruence import dissection_rhs, dissection_rhs_text
from qpart.etaq import (
    EtaExpression,
    EtaSyntaxError,
    EtaTerm,
    ZeroScaleError,
    eval_eta,
    format_eta,
    parse_eta,
)


def test_simple_quotient():
    expr = parse_eta("f2^2/f1^3")
    assert expr == EtaExpression.single(1, 0, {2: 2, 1: -3})


def test_coefficient_shift_and_factors():
    expr = parse_eta("7 * q^2 * f3^4 / f5")
    assert expr == EtaExpression.single(7, 2, {3: 4, 5: -1})


def test_bare_q_means_first_power():
    assert parse_eta("56*q*f1") == EtaExpression.single(56, 1, {1: 1})


def test_whitespace_insignificant():
    assert parse_eta(" f1 ^ 2 *\n q ") == parse_eta("f1^2*q")


def test_sum_and_difference():
    expr = parse_eta("f1 - 2*q + 3")
    assert expr.terms == (
        EtaTerm.make(1, 0, {1: 1}),
        EtaTerm.make(-2, 1),
        EtaTerm.make(3),
    )


def test_parenthesized_sum_distributes():
    assert parse_eta("7*(f1 + q^2/f2)") == parse_eta("7*f1 + 7*q^2/f2")


def test_product_of_sums_distributes():
    assert parse_eta("(1+q)*(1+q)") == parse_eta("1 + q + q + q^2")


def test_division_cancels_factors():
    assert parse_eta("f2^3/f2") == EtaExpression.single(1, 0, {2: 2})
    assert parse_eta("f2/f2") == EtaExpression.single(1)


def test_exponent_zero_factor_vanishes():
    assert parse_eta("f2^0*f1") == EtaExpression.single(1, 0, {1: 1})


def test_zero_terms_dropped():
    assert parse_eta("0 - 40*f1") == EtaExpression.single(-40, 0, {1: 1})
    assert parse_eta("0") == EtaExpression((EtaTerm(0),))


def test_integer_division_must_be_exact():
    assert parse_eta("6/2*f1") == EtaExpression.single(3, 0, {1: 1})
    with pytest.raises(EtaSyntaxError):
        parse_eta("7/2")


def test_division_by_sum_rejected():
    with pytest.raises(EtaSyntaxError, match="divide by a sum"):
        parse_eta("f1/(1+q)")


def test_negative_q_power_rejected():
    with pytest.raises(EtaSyntaxError, match="negative power of q"):
        parse_eta("f1/q")
    # recovery within the same term is fine
    assert parse_eta("q^2/q") == EtaExpression.single(1, 1)


def test_error_position_truncated_exponent():
    with pytest.raises(EtaSyntaxError) as exc:
        parse_eta("f1^")
    assert exc.value.position == 3
    assert "integer" in exc.value.expected


def test_error_position_bad_character():
    with pytest.raises(EtaSyntaxError) as exc:
        parse_eta("f1 @ f2")
    assert exc.value.position == 3


def test_error_missing_scale():
    with pytest.raises(EtaSyntaxError) as exc:
        parse_eta("f^2")
    assert exc.value.position == 1


def test_error_unbalanced_paren():
    with pytest.raises(EtaSyntaxError):
        parse_eta("7*(f1")


def test_error_trailing_garbage():
    with pytest.raises(EtaSyntaxError) as exc:
        parse_eta("f1 f2")
    assert exc.value.position == 3


def test_zero_scale_rejected():
    with pytest.raises(ZeroScaleError) as exc:
        parse_eta("f1*f0^2")
    assert exc.value.position == 4


def test_eta_term_validation():
    # the scale test comes first, so a zero or negative scale is named as such
    for factors in (((0, 1),), ((-1, 1),), ((0, 1), (2, 1))):
        with pytest.raises(ValueError, match="positive"):
            EtaTerm(1, 0, factors)
    with pytest.raises(ValueError, match="distinct and increasing"):
        EtaTerm(1, 0, ((2, 1), (1, 1)))
    with pytest.raises(ValueError, match="nonzero"):
        EtaTerm(1, 0, ((1, 0),))
    with pytest.raises(ValueError):
        EtaTerm(1, -1)
    # a bool, a float or a string is refused in every field
    for args in ((True,), (1.0,), (1, 1.0), (1, True), (1, 0, ((1.0, 1),)),
                 (1, 0, ((1, True),)), (1, 0, (("2", 1),)), (1, 0, ((1, 2.5),))):
        with pytest.raises(TypeError):
            EtaTerm(*args)


def test_q_exponent_is_unsigned():
    with pytest.raises(EtaSyntaxError):
        parse_eta("q^-1")


@pytest.mark.parametrize("text", [
    "f1",
    "f2^2/f1^3",
    "1024*q^8*f2^8*f14^18/(f1^20*f7^7)",
    "f1 - 2*q + 3",
    "0 - 40*f1 + q",
    "7*(f1 + q^2/f2 - f3^2)",
])
def test_round_trip_stability(text):
    once = parse_eta(text)
    assert parse_eta(format_eta(once)) == once


def test_round_trip_with_leading_negative_term():
    expr = EtaExpression((EtaTerm.make(-5, 2, {1: -3}), EtaTerm.make(1)))
    assert format_eta(expr).startswith("0 - ")
    assert parse_eta(format_eta(expr)) == expr


def test_fixture_parses_to_eight_terms_each_divisible_by_7():
    expr = dissection_rhs()
    assert len(expr.terms) == 8
    assert all(t.coefficient % 7 == 0 for t in expr.terms)
    # the paper-order coefficients, after distributing the outer 7
    assert [t.coefficient // 7 for t in expr.terms] == [
        1024, 1344, -1024, 72, -320, -40, 56, 1]
    assert [t.q_shift for t in expr.terms] == [8, 6, 5, 4, 3, 2, 1, 0]


def test_fixture_round_trip():
    text = dissection_rhs_text()
    once = parse_eta(text)
    assert parse_eta(format_eta(once)) == once


def test_fixture_constant_term_is_seven():
    # only the shift-0 term contributes to the constant coefficient
    assert eval_eta(dissection_rhs(), 1)[0] == 7
