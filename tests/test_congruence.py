"""Claim verification, the dissection identity, proof replay, and scanning."""

import json

import pytest

from qpart import _kernels_py, congruence, etaq
from qpart.cli import main
from qpart.congruence import (
    MOD7_FAMILY_ROWS,
    ClaimSource,
    CongruenceClaim,
    UnsupportedFamilyError,
    dissected_component,
    family_expression,
    lift_factorization_holds,
    ramanujan_claims,
    replay_proof,
    scan,
    verify_claim,
    verify_dissection_identity,
    verify_frobenius,
    verify_mod7_family,
    verify_mod7_lifts,
)
from qpart.etaq import (
    ThetaFamily,
    _expansion_work,
    eval_eta,
    format_eta,
    pochhammer_f,
    theta_series,
    theta_support_mod,
)
from qpart.partitions import (
    ColoredFamilySpec,
    Family,
    count,
    enumerate_partitions,
    oracle_series,
)
from qpart.series import TruncatedSeries


def a(k):
    return ColoredFamilySpec(Family.ODD_COLORED, k)


def b(k):
    return ColoredFamilySpec(Family.EVEN_COLORED, k)


# -- claims and reports ------------------------------------------------------

def test_claim_validation():
    with pytest.raises(ValueError):
        CongruenceClaim(a(1), 1, 0)
    with pytest.raises(ValueError):
        CongruenceClaim(a(1), 7, 7)
    # a float, a string or a bool is refused, not truncated or taken as 0 or 1
    for modulus, residue in ((7.5, 2), (7.0, 2), ("7", 2), (True, 0), (7, 2.0), (7, True)):
        with pytest.raises(TypeError):
            CongruenceClaim(a(3), modulus, residue)


def test_family_expression_text():
    assert format_eta(family_expression(a(3))) == "f2^2/f1^3"
    assert format_eta(family_expression(a(1))) == "1/f1"
    assert format_eta(family_expression(b(3))) == "1/(f1*f2^2)"
    assert format_eta(family_expression(b(1))) == "1/f1"


def test_verify_claim_holds():
    report = verify_claim(CongruenceClaim(a(3), 7, 2), 120)
    assert report.holds
    assert report.checked_up_to == 120
    assert report.counterexample is None


def test_verify_claim_negative_control():
    report = verify_claim(CongruenceClaim(a(1), 7, 0), 50)
    assert not report.holds
    assert report.counterexample.n == 0
    assert report.counterexample.value == 1


def test_verify_claim_counterexample_is_smallest():
    # a_2(7n+5) mod 7 fails somewhere; the reported n must be the first failure
    report = verify_claim(CongruenceClaim(a(2), 7, 5), 60)
    assert not report.holds
    n, value = report.counterexample.n, report.counterexample.value
    series = eval_eta(family_expression(a(2)), 7 * 60 + 6)
    first = next(i for i in range(60) if series[7 * i + 5] % 7)
    assert n == first
    assert value == series[7 * n + 5]
    assert value == count(a(2), 7 * n + 5)


def test_verify_claim_modular_mode_agrees():
    exact = verify_claim(CongruenceClaim(a(5), 7, 6), 80)
    fast = verify_claim(CongruenceClaim(a(5), 7, 6), 80, modular=True)
    assert exact.holds and fast.holds
    bad_exact = verify_claim(CongruenceClaim(a(2), 7, 1), 80)
    bad_fast = verify_claim(CongruenceClaim(a(2), 7, 1), 80, modular=True)
    assert bad_exact.counterexample.n == bad_fast.counterexample.n
    assert bad_fast.counterexample.value == bad_exact.counterexample.value % 7


def test_verify_claim_agrees_with_dp_oracle():
    # both pipelines must agree on which residue classes vanish mod m
    for spec in (a(2), a(3), b(2)):
        for m in (5, 7):
            for r in range(m):
                report = verify_claim(CongruenceClaim(spec, m, r), 60 // m)
                by_dp = all(count(spec, m * n + r) % m == 0 for n in range(60 // m))
                assert report.holds == by_dp


def test_claim_refused_exactly_when_its_own_expansion_is(monkeypatch):
    # a limit between the work at the claim's own order, 7*40 + 0 + 1,
    # and at the order it shares with the other classes, 7*41
    claim = CongruenceClaim(a(3), 7, 0)
    own = _expansion_work(family_expression(a(3)), 7 * 40 + 1)
    assert own < _expansion_work(family_expression(a(3)), 7 * 41)
    report = verify_claim(claim, 40)
    monkeypatch.setattr(etaq, "_MAX_EXPANSION_WORK", own)
    assert verify_claim(claim, 40) == report
    monkeypatch.setattr(etaq, "_MAX_EXPANSION_WORK", own - 1)
    with pytest.raises(ValueError, match=f"needs about {own} coefficient additions"):
        verify_claim(claim, 40)


def test_report_json_schema(capsys):
    code = main(["verify", "claim", "--family", "a", "--k", "1", "--mod", "7",
                 "--residue", "0", "--upto", "10", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    [obj] = json.loads(out)
    assert obj == {
        "family": "a", "k": 1, "modulus": 7, "residue": 0,
        "checked_up_to": 10, "holds": False,
        "counterexample": {"n": 0, "value": "1"},
        "source": "candidate",
    }
    assert out == json.dumps([obj], indent=2) + "\n"


# -- the built-in tables -----------------------------------------------------

def test_mod7_family_rows_all_hold():
    reports = verify_mod7_family(60)
    assert len(reports) == 5
    assert [(r.claim.spec.colors, r.claim.residue) for r in reports] == list(MOD7_FAMILY_ROWS)
    assert all(r.holds for r in reports)
    assert all(r.claim.source is ClaimSource.THEOREM for r in reports)


def test_mod7_family_single_step():
    # upto=1 checks just a_k(r); frozen values from the DP oracle
    reports = verify_mod7_family(1)
    assert all(r.holds for r in reports)
    spot = {(k, r): count(a(k), r) for k, r in MOD7_FAMILY_ROWS}
    assert spot == {(1, 5): 7, (3, 2): 7, (4, 4): 63, (5, 6): 553, (7, 3): 98}
    assert all(v % 7 == 0 for v in spot.values())


def test_mod7_lifts_hold_and_specialize():
    reports = verify_mod7_lifts(2, 40)
    assert len(reports) == 15
    assert all(r.holds for r in reports)
    j0 = [r for r in reports if r.claim.source is ClaimSource.THEOREM]
    assert [(r.claim.spec.colors, r.claim.residue) for r in j0] == list(MOD7_FAMILY_ROWS)
    lifted = [r for r in reports if r.claim.source is ClaimSource.COROLLARY]
    assert [(r.claim.spec.colors, r.claim.residue) for r in lifted] == [
        (8, 5), (10, 2), (11, 4), (12, 6), (14, 3),
        (15, 5), (17, 2), (18, 4), (19, 6), (21, 3)]


def test_lift_factorization_congruence():
    for j in range(3):
        for k in range(1, 8):
            assert lift_factorization_holds(j, k, 120)


def test_ramanujan_seed_claims():
    claims = ramanujan_claims()
    assert [(c.modulus, c.residue) for c in claims] == [(5, 4), (7, 5), (11, 6)]
    for claim in claims:
        assert verify_claim(claim, 60).holds


# -- dissection identity -------------------------------------------------------

def test_dissection_identity_exact():
    report = verify_dissection_identity(40)
    assert report.equal
    assert report.first_mismatch is None


def test_dissection_component_values():
    comp = dissected_component(5)
    # a(7n+2) for n = 0..4, cross-checked against the DP oracle
    assert [comp[n] for n in range(5)] == [count(a(3), 7 * n + 2) for n in range(5)]
    assert comp[0] == 7
    assert all(comp[n] % 7 == 0 for n in range(5))


def test_dissection_mismatch_detection():
    # sanity of the falsification path: a deliberately wrong right side
    from qpart.congruence import DissectionReport
    assert not DissectionReport(10, 3).equal


# -- Frobenius congruence --------------------------------------------------------

def test_frobenius_key_instances():
    assert verify_frobenius(1, 1, 7, 200)  # f1^7 == f7
    assert verify_frobenius(2, 1, 7, 200)  # f2^7 == f14
    assert verify_frobenius(1, 2, 3, 150)


def test_frobenius_and_lift_refuse_non_integers():
    # a bool or a float is refused, not taken as 1 or truncated
    for args in ((True, 1, 7), (1, True, 7), (1, 1, 7.0), (1, 1, 7, 50.0)):
        with pytest.raises(TypeError):
            verify_frobenius(*args)
    for args in ((1, True), (True, 1), (1, 1.0), (1, 1, 120.0)):
        with pytest.raises(TypeError):
            lift_factorization_holds(*args)


@pytest.mark.parametrize("call", [
    lambda x: eval_eta("f1", x),
    lambda x: pochhammer_f(1, x),
    lambda x: pochhammer_f(x, 10),
    lambda x: theta_series(ThetaFamily.JACOBI_CUBE, x),
    lambda x: verify_claim(CongruenceClaim(a(1), 7, 5), x),
    lambda x: verify_mod7_family(x),
    lambda x: verify_mod7_lifts(x, 10),
    lambda x: verify_mod7_lifts(0, x),
    lambda x: verify_dissection_identity(x),
    lambda x: dissected_component(x),
    lambda x: scan([1], 7, x),
    lambda x: scan([1], x, 60),
    lambda x: scan([1, x], 7, 50, modular=True),  # True equals the k = 1 beside it
    lambda x: scan([1, 2.5, 3], 7, 50, modular=True),  # a float strictly inside the range
    lambda x: theta_support_mod(ThetaFamily.JACOBI_CUBE, x),
    lambda x: enumerate_partitions(a(1), 3, cap=x),
    lambda x: count(a(1), x),
    lambda x: oracle_series(a(1), x),
    lambda x: verify_frobenius(1, 1, 7, x),
    lambda x: lift_factorization_holds(1, 1, x),
    lambda x: replay_proof(x),
    lambda x: replay_proof(1, x),
], ids=["eval_eta", "pochhammer_f-order", "pochhammer_f-k", "theta_series", "verify_claim",
        "verify_mod7_family", "verify_mod7_lifts-j_max", "verify_mod7_lifts-upto",
        "verify_dissection_identity", "dissected_component", "scan", "scan-modulus",
        "scan-k", "scan-k-between", "theta_support_mod", "enumerate_partitions-cap", "count",
        "oracle_series", "verify_frobenius", "lift_factorization_holds", "replay_proof-k",
        "replay_proof-order"])
def test_orders_ranges_and_counts_refuse_non_integers(call):
    # a bool or a float is refused, not taken as 1 or truncated
    for bad in (True, 60.0):
        with pytest.raises(TypeError):
            call(bad)


def test_frobenius_rejects_composite():
    with pytest.raises(ValueError):
        verify_frobenius(1, 1, 6, 50)


def test_frobenius_fails_off_congruence():
    # the same comparison with a mismatched prime must come back false:
    # f1^3 and f3 differ mod 2
    from qpart.etaq import pochhammer_f
    lhs = pochhammer_f(1, 50) ** 3
    rhs = pochhammer_f(3, 50)
    assert not (lhs - rhs).reduce_mod(2).is_zero()


# -- proof replay ------------------------------------------------------------------

@pytest.mark.parametrize("k,target,sumset", [
    (1, 5, {0, 1, 2, 3, 4, 6}),
    (3, 4, {0, 1, 2, 3, 5, 6}),
    (4, 4, {0, 1, 2, 3, 5, 6}),
    (5, 6, {0, 1, 2, 3, 4, 5}),
    (7, 3, {0, 1, 2, 4, 5, 6}),
])
def test_replay_proof_families(k, target, sumset):
    trace = replay_proof(k, 150)
    assert trace.verified
    assert trace.target == target
    assert trace.sumset == frozenset(sumset)
    assert target not in trace.sumset
    assert [s.name for s in trace.steps] == [
        "frobenius-rewrite", "theta-substitution", "residue-exclusion"]


# Per built-in row, with the cube kept through 300: the kernel passes
# (name, length) of the numerator f_2s^(k-1) * f_s^(7-k), of the
# Frobenius check f_s^7 == f_7s (mod 7), whose f_s^7 is a copy of
# f_s^3, one product by it and one by f_s, each through ceil(300/s),
# and of the product of the two theta components through 300.
_REPLAY_PASSES = {
    # f1^6: a copy of the cube and one product by it
    1: ([("mul", 300)], [("mul", 300)] * 2),
    # f4^2 * f2^4 through 150 at q^2: a copy of f1^3, a product by f1,
    # two by f2
    3: ([("mul", 150)] * 3, [("mul", 150)] * 2),
    # f2^3 * f1^3: a copy of the cube, one product by f2^3
    4: ([("mul", 300)], [("mul", 300)] * 2),
    # f2^4 * f1^2: a copy of the cube and a product by f1 through 150,
    # then two products by f1 through 300
    5: ([("mul", 150), ("mul", 300), ("mul", 300)], [("mul", 300)] * 2),
    # f2^6 through 150 at q^2: a copy of the cube and one product by it
    7: ([("mul", 150)], [("mul", 300)] * 2),
}


@pytest.mark.parametrize("k", [1, 3, 4, 5, 7])
def test_replay_proof_divides_the_numerator_once(k, kernel_passes):
    # a_k is kept, so the replay's sweep makes no pass; the cube is kept
    # by a first Frobenius check, whose build is its first two passes
    scale = congruence._RECIPES[k][0]
    numerator, frobenius = _REPLAY_PASSES[k]
    list(congruence._family_sweep(Family.ODD_COLORED, [k], 300))
    kernel_passes.clear()
    verify_frobenius(scale, 1, 7, 300)
    assert kernel_passes == [("mul", 300 // scale)] * 2 + frobenius
    congruence._frobenius_verdict.cache_clear()  # so that the replay runs the check
    kernel_passes.clear()
    replay_proof(k, 300)
    # the numerator, the rewrite's one division by f_7s, the check, and
    # the product of the theta components
    assert kernel_passes == numerator + [("div", 300)] + frobenius + [("mul", 300)]


@pytest.mark.parametrize("k", [1, 3, 4, 5, 7])
def test_second_replay_reuses_the_frobenius_verdict(k, kernel_passes):
    first = replay_proof(k, 300)
    kernel_passes.clear()
    assert replay_proof(k, 300) == first
    # the numerator, the rewrite and the theta product: no Frobenius pass
    numerator, _ = _REPLAY_PASSES[k]
    assert kernel_passes == numerator + [("div", 300), ("mul", 300)]


def test_frobenius_verdict_is_read_after_the_arguments_are_checked():
    assert verify_frobenius(1, 1, 7)
    assert congruence._frobenius_verdict.cache_info().currsize == 1
    with pytest.raises(TypeError):
        verify_frobenius(True, 1, 7)  # equal to the kept key (1, 1, 7, 300)
    with pytest.raises(ValueError):
        verify_frobenius(1, 1, 1)


def test_replay_proof_component_supports():
    trace = replay_proof(7, 100)
    # doubled Jacobi-cube residues
    assert trace.component_supports == (frozenset({0, 2, 6}), frozenset({0, 2, 6}))
    assert trace.scale == 1
    trace3 = replay_proof(3, 100)
    assert trace3.scale == 2
    assert trace3.residue == 2 and trace3.target == 4


def test_replay_proof_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        replay_proof(2)
    with pytest.raises(UnsupportedFamilyError):
        replay_proof(6)


# -- scan ---------------------------------------------------------------------------

def test_scan_labels_and_outcomes():
    reports = scan(range(1, 9), 7, 50)
    assert len(reports) == 8 * 7
    assert [(r.claim.spec.colors, r.claim.residue) for r in reports] == sorted(
        (k, r) for k in range(1, 9) for r in range(7))
    by_key = {(r.claim.spec.colors, r.claim.residue): r for r in reports}
    for k, r in MOD7_FAMILY_ROWS:
        assert by_key[(k, r)].claim.source is ClaimSource.THEOREM
        assert by_key[(k, r)].holds
    assert by_key[(8, 5)].claim.source is ClaimSource.COROLLARY
    assert by_key[(8, 5)].holds
    assert by_key[(2, 5)].claim.source is ClaimSource.CANDIDATE


def test_scan_ramanujan_rows():
    assert next(r for r in scan([1], 5, 50) if r.claim.residue == 4).holds
    assert next(r for r in scan([1], 11, 50) if r.claim.residue == 6).holds


def test_scan_modular_agrees_with_exact():
    exact = scan(range(1, 5), 7, 50)
    fast = scan(range(1, 5), 7, 50, modular=True)
    assert [(r.claim.spec.colors, r.claim.residue, r.holds) for r in exact] == \
        [(r.claim.spec.colors, r.claim.residue, r.holds) for r in fast]


def test_oversized_sweep_refused_before_any_expansion(monkeypatch):
    def no_expansion(*args, **kwargs):
        raise AssertionError("the sweep started expanding before its estimate")

    def refused():
        with monkeypatch.context() as patch:
            for module, name in ((congruence, "eval_eta"), (_kernels_py, "mul"),
                                 (_kernels_py, "div")):
                patch.setattr(module, name, no_expansion)
            with pytest.raises(ValueError, match="limit"):
                next(congruence._family_sweep(Family.ODD_COLORED, range(1, 10**6), 400))
            with pytest.raises(ValueError, match="limit"):
                scan(range(1, 10**5), 7, 50, family=Family.EVEN_COLORED, modular=True)

    refused()
    # kept series of both families, from which the chains could start,
    # change nothing
    list(congruence._family_sweep(Family.ODD_COLORED, [1, 2, 3], 400))
    list(congruence._family_sweep(Family.EVEN_COLORED, [1, 2], 400, 7))
    refused()


# -- the sweep's psi step -------------------------------------------------------------

def test_psi_row_is_f2_squared_over_f1():
    order = 2200
    psi = etaq._CLOSED_FORMS[etaq._PSI]
    assert psi.product == {1: -1, 2: 2}
    assert TruncatedSeries(etaq._closed_form(psi, order)) == eval_eta("f2^2/f1", order)


def test_family_a_steps_by_psi_over_f2(kernel_passes):
    list(congruence._family_sweep(Family.ODD_COLORED, [1, 3], 200))
    # 1/f1, then per color a product by psi (20 nonzeros below 200) and a
    # division by f2 (16), not by f1 (23)
    assert kernel_passes == [("div", 200)] + [("mul", 200), ("div", 200)] * 2
    assert kernel_passes.work == 200 * (23 + 2 * (20 + 16))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("order", [1, 2, 11, 100, 2107])
def test_sweep_work_stays_within_its_charge(family, order, kernel_passes):
    # the charge counts passes over f2 and f1 per step of family a; the
    # psi and f2 passes that run instead have no more nonzeros in all
    list(congruence._family_sweep(family, range(1, 9), order))
    charge = _expansion_work(family_expression(ColoredFamilySpec(family, 8)), order) + 7 * order
    assert 0 < kernel_passes.work <= charge


def test_a_wrong_psi_row_shows_in_the_sweep_and_not_in_eval_eta(monkeypatch):
    order = 60
    exprs = [family_expression(a(3)), family_expression(b(3)), etaq.parse_eta("f2^2/f1")]
    before = [eval_eta(expr, order) for expr in exprs]
    psi = etaq._CLOSED_FORMS[etaq._PSI]
    wrong = psi._replace(term=lambda n: (n * (n + 1) // 2, 2 if n == 4 else 1))
    monkeypatch.setitem(etaq._CLOSED_FORMS, etaq._PSI, wrong)
    _, swept = next(congruence._family_sweep(Family.ODD_COLORED, [3], order))
    assert swept != oracle_series(a(3), order)
    # eval_eta never reads the psi row, so it still agrees with the oracle
    assert [eval_eta(expr, order) for expr in exprs] == before
    assert before[0] == oracle_series(a(3), order)


# -- the modular sweep divides by f2 through 1/f1 -----------------------------------

SWEEP_MODULI = (2, 5, 7, 13)
SWEEP_ORDERS = (1, 2, 151, 700)
MEMO_STATES = ("cold", "short 1/f1", "1/f1 evicted")


def _exact_members(family, order):
    congruence._MEMO.clear()
    return dict(congruence._family_sweep(family, range(1, 9), order))


def _swept_in_memo_state(state, family, order, m, exact):
    """The modular sweep's members and reduce_mod of the exact ones, the
    sweep run with the memo left in the state: empty; 1/f1 kept through
    order // 5, below ceil(order/2) from order 3 on, and member 2 kept
    at the order, so that the chain starts from member 2 and continues
    1/f1; or only member 3 kept, so that the chain builds 1/f1 from the
    series 1."""
    congruence._MEMO.clear()

    def keep(k, n):
        series = exact[k].truncate(n).reduce_mod(m)
        congruence._MEMO.store(congruence._memo_key(family, k, m), series, n, n)

    ks = range(1, 9)
    if state == "short 1/f1":
        keep(1, max(1, order // 5))
        keep(2, order)
        ks = range(2, 9)
    elif state == "1/f1 evicted":
        keep(3, order)
        ks = range(3, 9)
    swept = dict(congruence._family_sweep(family, ks, order, m))
    return swept, {k: exact[k].reduce_mod(m) for k in ks}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("state", MEMO_STATES)
def test_modular_sweep_is_the_exact_sweep_reduced(family, state):
    for order in SWEEP_ORDERS:
        exact = _exact_members(family, order)
        for m in SWEEP_MODULI:
            swept, expected = _swept_in_memo_state(state, family, order, m, exact)
            assert swept == expected, (order, m)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("state", MEMO_STATES)
def test_a_wrong_inverse_of_f2_shows_in_the_modular_sweep(family, state, monkeypatch):
    """In every memo state the chain divides by f2 through P = 1/f1,
    which it builds by halving, continues from a short kept prefix or
    builds for the divisions alone, so a wrong P handed to the
    divisions shows."""
    div, handed = _kernels_py.div, []

    def wrong(a, b, n, m=None, known=(), inverse=None, scale=1, bits=None):
        if inverse is not None and not known:
            handed.append(n)
            inverse = list(inverse)
            inverse[1] += 1
        return div(a, b, n, m, known, inverse, scale, bits)

    monkeypatch.setattr(_kernels_py, "div", wrong)
    for order in SWEEP_ORDERS[2:]:  # the shorter orders run below _PACK_FROM
        exact = _exact_members(family, order)
        for m in SWEEP_MODULI:
            handed.clear()
            swept, expected = _swept_in_memo_state(state, family, order, m, exact)
            assert handed and swept != expected, (order, m)


@pytest.mark.parametrize("family", list(Family))
def test_modular_sweep_runs_the_passes_of_the_exact_one(family, kernel_passes):
    """The same steps at the same lengths, each f2 division two packed
    products through P = 1/f1; P itself, cold, by one halving step from
    the recurrence through 51, the square, the product by psi and the
    check, f1 * P = 1.  A chain that starts past member 1 with P kept
    short or not at all builds no P through ceil(order/2) = 51, below
    the halving's base, and its divisions run the recurrence."""
    order, m = 101, 7
    kernel_passes.clear()
    exact = _exact_members(family, order)
    exact_passes = list(kernel_passes)
    steps = {Family.ODD_COLORED: [("mul", order), ("div", order)],
             Family.EVEN_COLORED: [("div", order)]}[family]
    halving = [("div", 51), ("mul", 51), ("mul", order), ("mul", order)]
    for state, p, colors in (("cold", halving, 7), ("short 1/f1", [], 6),
                             ("1/f1 evicted", [], 5)):
        congruence._MEMO.clear()
        kernel_passes.clear()
        _swept_in_memo_state(state, family, order, m, exact)
        assert kernel_passes == p + steps * colors
    assert exact_passes == [("div", order)] + steps * 7


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("state", MEMO_STATES[1:])
def test_a_chain_past_member_1_halves_p_once(family, state, kernel_passes):
    """A chain that starts past member 1 with P = 1/f1 kept short or not
    at all builds P through ceil(order/2) = 101 once, before its first
    step: one halving step from the recurrence through 51, the square,
    the product by psi and the check."""
    order, m = 201, 7
    exact = _exact_members(family, order)
    kernel_passes.clear()
    swept, expected = _swept_in_memo_state(state, family, order, m, exact)
    assert swept == expected
    steps = {Family.ODD_COLORED: [("mul", order), ("div", order)],
             Family.EVEN_COLORED: [("div", order)]}[family]
    halving = [("div", 51), ("mul", 51), ("mul", 101), ("mul", 101)]
    assert kernel_passes == halving + steps * (8 - min(expected))  # the chain starts at min(ks)


def test_a_chain_past_member_1_builds_no_p_that_would_not_pack(kernel_passes):
    """Where the square of the halving does not pack (m = 2^64 + 13), a
    chain that starts past member 1 builds no P: its divisions by f2
    run the recurrence, and nothing else runs."""
    order, m = 400, 2**64 + 13
    exact = _exact_members(Family.EVEN_COLORED, order)
    congruence._MEMO.clear()
    congruence._MEMO.store(congruence._memo_key(Family.EVEN_COLORED, 3, m),
                           exact[3].reduce_mod(m), order, order)
    kernel_passes.clear()
    swept = dict(congruence._family_sweep(Family.EVEN_COLORED, [3, 5], order, m))
    assert kernel_passes == [("div", order)] * 2
    assert swept == {k: exact[k].reduce_mod(m) for k in (3, 5)}


def test_scan_range_floor():
    with pytest.raises(ValueError):
        scan([1], 7, 49)
