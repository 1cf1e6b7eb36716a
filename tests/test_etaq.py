"""Pochhammer builders, theta closed forms, and eta-quotient evaluation."""

import gc
import tracemalloc
from itertools import accumulate

import pytest

from qpart import _kernels_py, etaq
from qpart.congruence import dissection_rhs
from qpart.etaq import (
    _EULER,
    _PASS_OVERHEAD,
    _PLAN_FROM,
    THETA_PRODUCT_FORM,
    EtaExpression,
    ThetaFamily,
    _build_cube,
    _cube_coeffs,
    _pass_work,
    _pochhammer_coeffs,
    eval_eta,
    pochhammer_f,
    theta_series,
    theta_support_mod,
)
from qpart.series import TruncatedSeries

from oracles import pochhammer_by_product, two_color_overlay_series


# -- pochhammer_f ------------------------------------------------------------

def test_pochhammer_f1_small():
    assert list(pochhammer_f(1, 8)) == [1, -1, -1, 0, 0, 1, 0, 1]


def test_pochhammer_f2_small():
    assert list(pochhammer_f(2, 5)) == [1, 0, -1, 0, -1]


def test_pochhammer_high_scale_is_one():
    for k in (5, 6, 9):
        assert pochhammer_f(k, 5) == TruncatedSeries.one(5)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 14])
def test_pochhammer_matches_finite_product(k):
    assert list(pochhammer_f(k, 120)) == pochhammer_by_product(k, 120)


def test_pochhammer_substitution_consistency():
    # f1 with q -> q^7 equals f7 built directly
    assert pochhammer_f(1, 100).substitute(7) == pochhammer_f(7, 100)


def test_pochhammer_validation():
    with pytest.raises(ValueError):
        pochhammer_f(0, 10)
    with pytest.raises(ValueError):
        pochhammer_f(1, 0)


def test_inverse_f1_gives_partition_numbers():
    p = pochhammer_f(1, 10).inverse()
    assert list(p) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_f1_times_its_inverse_is_one():
    f1 = pochhammer_f(1, 50)
    assert f1 * f1.inverse() == TruncatedSeries.one(50)


def test_cube_of_f1_matches_weighted_triangular_sum():
    assert list(pochhammer_f(1, 7) ** 3) == [1, -3, 0, 5, 0, 0, -7]


def test_partition_congruence_progression_mod5():
    p = pochhammer_f(1, 25).inverse()
    sub = p.dissect(5, 4)
    assert list(sub) == [5, 30, 135, 490, 1575]
    assert all(c % 5 == 0 for c in sub)


def test_seventh_power_congruent_to_rescaled_f1():
    f1 = pochhammer_f(1, 200)
    assert ((f1 ** 7) - f1.substitute(7)).reduce_mod(7).is_zero()


# -- theta closed forms --------------------------------------------------------

def test_jacobi_cube_small():
    assert list(theta_series(ThetaFamily.JACOBI_CUBE, 7)) == [1, -3, 0, 5, 0, 0, -7]


def test_theta_order_one():
    for family in ThetaFamily:
        assert theta_series(family, 1) == TruncatedSeries.one(1)


@pytest.mark.parametrize("family", list(ThetaFamily))
def test_theta_equals_product_form_at_500(family):
    assert theta_series(family, 500) == eval_eta(THETA_PRODUCT_FORM[family], 500)


@pytest.mark.parametrize("family,expected", [
    (ThetaFamily.JACOBI_CUBE, {0, 1, 3}),
    (ThetaFamily.PENTAGONAL_WEIGHTED, {0, 1, 5}),
    (ThetaFamily.OCTAGONAL_WEIGHTED, {0, 1, 5}),
    (ThetaFamily.OCTAGONAL_ALTERNATING, {0, 1, 5}),
])
def test_theta_supports_mod7(family, expected):
    assert theta_support_mod(family, 7) == frozenset(expected)
    computed = theta_series(family, 700).reduce_mod(7).support_residues(7)
    assert computed == frozenset(expected)


def test_theta_product_forms_pinned():
    assert THETA_PRODUCT_FORM == {
        ThetaFamily.JACOBI_CUBE: "f1^3",
        ThetaFamily.PENTAGONAL_WEIGHTED: "f1^5/f2^2",
        ThetaFamily.OCTAGONAL_WEIGHTED: "f1^2*f4^2/f2",
        ThetaFamily.OCTAGONAL_ALTERNATING: "f2^5/f1^2",
    }


@pytest.mark.parametrize("family", list(ThetaFamily))
def test_theta_supports_match_series_at_other_moduli(family):
    series = theta_series(family, 1200)
    for modulus in (3, 5, 11, 13):
        computed = series.reduce_mod(modulus).support_residues(modulus)
        assert theta_support_mod(family, modulus) == computed, modulus


@pytest.mark.parametrize("family", ["jacobi-cube", _EULER, None])
def test_theta_rejects_non_members(family):
    with pytest.raises(ValueError):
        theta_series(family, 10)
    with pytest.raises(ValueError):
        theta_support_mod(family, 7)


def test_theta_support_mod_needs_odd_modulus():
    with pytest.raises(ValueError):
        theta_support_mod(ThetaFamily.JACOBI_CUBE, 4)


# -- eval_eta ------------------------------------------------------------------

def test_eval_three_colored_series():
    assert list(eval_eta("f2^2/f1^3", 4)) == [1, 3, 7, 16]


def test_eval_single_factor_is_pochhammer():
    assert eval_eta("f1", 40) == pochhammer_f(1, 40)


def test_eval_mirror_two_color_series():
    # even parts 2-colored, odd monochromatic; frozen from the DP oracle
    assert list(eval_eta("1/(f1*f2)", 6)) == [1, 1, 3, 4, 9, 12]


def test_eval_shift_and_coefficient():
    assert list(eval_eta("3*q^2*f1", 5)) == [0, 0, 3, -3, -3]


def test_eval_shift_beyond_order():
    assert eval_eta("q^9", 5).is_zero()


def test_eval_overlay_series_matches_first_principles():
    # (-q;q)^2/(q;q) rewritten as f2^2/f1^3
    assert list(eval_eta("f2^2/f1^3", 200)) == two_color_overlay_series(200)


def test_eval_modular_matches_exact_reduction():
    for m in (2, 5, 7, 11):
        exact = eval_eta("f2^6/f1^7", 150).reduce_mod(m)
        assert eval_eta("f2^6/f1^7", 150, modulus=m) == exact


def test_eval_modular_with_shifted_terms():
    text = "5*q^3*f2^2/f1^4 + 1 - 2*q*f3"
    assert eval_eta(text, 90, modulus=7) == eval_eta(text, 90).reduce_mod(7)


def test_eval_starts_each_term_from_its_first_product(kernel_passes):
    # f2^2 runs first, through ceil(100/2) = 50, and its first product,
    # over the series 1, is a copy of f1: one kernel call for two passes
    assert eval_eta("f2^2/f1^3", 100) == pochhammer_f(2, 100) ** 2 * eval_eta("1/f1^3", 100)
    kernel_passes.clear()
    etaq._CUBES.clear()
    eval_eta("f2^2/f1^3", 100)
    # f1^-3 is one division by the cube, built first where none is
    # kept: two products by f1
    assert kernel_passes == [("mul", 50), ("mul", 100), ("mul", 100), ("div", 100)]
    kernel_passes.clear()
    eval_eta("f2^2/f1^3", 100)
    assert kernel_passes == [("mul", 50), ("div", 100)]


def test_eval_keeps_the_passes_of_a_single_term(kernel_passes):
    # f1^2 runs first, its first product a copy of f1, and f2^-3 is one
    # division by f2^3, whose cube f1^3 through ceil(n/2) is built by two
    # products where none is kept: as planned from _PLAN_FROM on, and by
    # the products-first rule below it
    assert eval_eta("f1^2/f2^3", 100) == pochhammer_f(1, 100) ** 2 * eval_eta("1/f2^3", 100)
    for n in (_PLAN_FROM - 1, 100):
        etaq._CUBES.clear()
        kernel_passes.clear()
        eval_eta("f1^2/f2^3", n)
        half = -(-n // 2)
        assert kernel_passes == [("mul", n), ("mul", half), ("mul", half), ("div", n)]
        kernel_passes.clear()
        eval_eta("f1^2/f2^3", n)  # the same plan, from the cube kept now
        assert kernel_passes == [("mul", n), ("div", n)]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 14])
@pytest.mark.parametrize("e", [-3, -1, 1, 4])
def test_eval_runs_a_single_factor_through_the_order_over_its_scale(k, e, kernel_passes):
    for n in (1, 2, 13, 50, 101):
        base = TruncatedSeries(pochhammer_by_product(k, n))
        expected = base ** e if e > 0 else base.inverse() ** -e
        length = -(-n // k)
        # every pass runs through ceil(n/k): f_k^-3 is one division by
        # the cube and f_k^4 a copy of it and one product by fk, the cube
        # built first where none is kept, by two products by f1
        passes = [("div" if e < 0 else "mul", length)] * {-3: 1, -1: 1, 1: 0, 4: 1}[e]
        etaq._CUBES.clear()
        kernel_passes.clear()
        assert eval_eta(EtaExpression.single(1, 0, {k: e}), n) == expected
        assert kernel_passes == [("mul", length)] * 2 * (abs(e) >= 3) + passes
        kernel_passes.clear()
        assert eval_eta(EtaExpression.single(1, 0, {k: e}), n) == expected
        assert kernel_passes == passes


def test_eval_factors_shared_powers_out_of_the_dissection_sum(kernel_passes):
    expr = dissection_rhs()
    # every coefficient is a multiple of 7, so mod 7 no term contributes
    for m in (None, 7, 11):
        kernel_passes.clear()
        total = eval_eta(expr, 100, modulus=m)
        # the shared factors leave 190 kernel calls, where expanding the
        # terms one by one makes 410; the terms' passes run at the scales
        # their factors allow, 101,814 additions, where the same passes
        # through each term's whole order take 147,834
        assert len(kernel_passes) <= (0 if m == 7 else 190)
        assert kernel_passes.work <= (0 if m == 7 else 101_814)
        alone = [eval_eta(EtaExpression((term,)), 100, modulus=m) for term in expr.terms]
        summed = TruncatedSeries([sum(c) for c in zip(*alone)])
        assert total == (summed if m is None else summed.reduce_mod(m))


def test_eval_shares_factors_of_shifted_terms_from_their_lowest_shift(kernel_passes):
    alone = eval_eta("q^95/f1^40", 100)
    kernel_passes.clear()
    # f1^-40 is shared, and applied once from q^95 on through the cube
    # built for `alone`: 13 divisions by f1^3 and one by f1, of 5
    # coefficients each, where each term on its own runs 14 of them
    assert eval_eta("q^95/f1^40 + 2*q^95/f1^40", 100) == 3 * alone
    assert kernel_passes == [("div", 5)] * 14
    expected = eval_eta("1/f1", 100) + 6 * eval_eta("q^90/f1^20", 100)
    etaq._CUBES.clear()
    kernel_passes.clear()
    # the long term and the shared factor, each charged passes through
    # 100, outweigh the three short terms: only f1^-1 is shared.  Each
    # short term's f1^-19 is six divisions by the cube and one by f1
    # through 10, the first of them after the cube's build, two
    # products through 10
    assert eval_eta("1/f1 + q^90/f1^20 + 2*q^90/f1^20 + 3*q^90/f1^20", 100) == expected
    assert sorted(kernel_passes) == [("div", 10)] * 21 + [("div", 100)] + [("mul", 10)] * 2


def test_plan_does_not_depend_on_a_kept_cube():
    # f1^-3 folds into one division by the cube, its build priced,
    # whether or not a cube is kept: the plan and its price depend on
    # (factors, n) alone
    factors = [(1, -3), (2, 1)]
    cold = etaq._plan_factors(factors, 100)
    _cube_coeffs(1, 100)
    assert etaq._plan_factors(factors, 100) == cold
    assert cold[:2] == (((2, 1), (1, -3)), {1})


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 7000])
def test_cube_build_is_f1_times_f1_squared(n):
    # below and past the order from which the build's products pack
    f1 = _pochhammer_coeffs(1, n)
    expected = _kernels_py.mul(f1, _kernels_py.mul(f1, f1, n), n)
    assert _build_cube(n) == tuple(expected)


def test_kept_cube_is_sliced_and_rebuilt_longer(monkeypatch):
    builds = []
    build = etaq._build_cube
    monkeypatch.setattr(etaq, "_build_cube", lambda n: builds.append(n) or build(n))
    cube = build(300)
    for k, n in ((1, 200), (1, 100), (3, 600), (2, 300), (1, 300), (7, 2100), (1, 250)):
        spread = [0] * n
        spread[::k] = cube[:-(-n // k)]
        assert list(_cube_coeffs(k, n)) == spread, (k, n)
    # f1^3 through ceil(n/k): 200 is built, then sliced for 100, for
    # f3^3 through 600 and f2^3 through 300; 300 is built, then sliced
    # for f7^3 through 2100 and for 250
    assert builds == [200, 300]
    assert len(etaq._CUBES.get(etaq._CUBE)) == 300


def test_eval_reads_only_eulers_sum(monkeypatch):
    """With every closed form but Euler's sum for f1 taken away, the
    cube passes give the same series: the cube is built from f1 alone,
    never read from Jacobi's closed form, which replay_proof checks
    eval_eta against."""
    text = "f1^-9*f2^7/f3^5 + 2*q^4*f1^6/f7^4"
    expected = {m: eval_eta(text, 400, modulus=m) for m in (None, 7)}
    monkeypatch.setattr(etaq, "_CLOSED_FORMS", {_EULER: etaq._CLOSED_FORMS[_EULER]})
    etaq._CUBES.clear()
    builds = []
    build = etaq._build_cube
    monkeypatch.setattr(etaq, "_build_cube", lambda n: builds.append(n) or build(n))
    for m, series in expected.items():
        assert eval_eta(text, 400, modulus=m) == series
    assert builds


def test_pass_work_counts_every_nonzero_of_fk():
    # fk below order n is the first n coefficients of fk below 5000
    for k in range(1, 8):
        nonzeros = list(accumulate(x != 0 for x in _pochhammer_coeffs(k, 5000)))
        for n in range(1, 5001):
            assert _pass_work(k, n) - _PASS_OVERHEAD == n * nonzeros[n - 1], (k, n)


def test_eval_rejects_bad_order():
    with pytest.raises(ValueError):
        eval_eta("f1", 0)


def test_eval_retains_nothing_across_orders():
    eval_eta("f1*f2", 999)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(1000, 1200):
            eval_eta("f1*f2", n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 256 * 1024
