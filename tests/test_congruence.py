"""Claim verification, the dissection identity, proof replay, and scanning."""

import json

import pytest

from qpart import congruence
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
from qpart.etaq import eval_eta, format_eta
from qpart.partitions import ColoredFamilySpec, Family, count


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


def test_report_json_schema():
    report = verify_claim(CongruenceClaim(a(1), 7, 0, ClaimSource.CANDIDATE), 10)
    obj = report.to_json_obj()
    assert obj == {
        "family": "a", "k": 1, "modulus": 7, "residue": 0,
        "checked_up_to": 10, "holds": False,
        "counterexample": {"n": 0, "value": "1"},
        "source": "candidate",
    }
    # round-trips through JSON text
    assert json.loads(json.dumps(obj)) == obj


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
    monkeypatch.setattr(congruence, "eval_eta", no_expansion)
    with pytest.raises(ValueError, match="limit"):
        next(congruence._family_sweep(Family.ODD_COLORED, range(1, 10**6), 400))
    with pytest.raises(ValueError, match="limit"):
        scan(range(1, 10**5), 7, 50, family=Family.EVEN_COLORED, modular=True)


def test_scan_range_floor():
    with pytest.raises(ValueError):
        scan([1], 7, 49)
