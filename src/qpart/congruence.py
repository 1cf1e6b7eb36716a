"""Verification engine for divisibility claims on colored-partition families.

A claim states that family(m*n + r) is divisible by m for every n; a
verifier checks it over a finite range by expanding the family's
generating eta-quotient, dissecting the arithmetic progression, and
reducing.  Beyond single claims this module knows:

* the built-in table of five mod-7 congruences for the odd-colored
  family (k, r) in {(1,5), (3,2), (4,4), (5,6), (7,3)} and their lifts
  to k + 7j colors,
* the classical mod 5 / 7 / 11 congruences of the plain partition
  function (the k = 1 member),
* the explicit eight-term 7-dissection identity for the 3-colored
  family, stored as a text fixture and compared exactly,
* the Frobenius congruence f_a^(b*p) == f_(a*p)^b (mod p), and
* replayable support-residue proofs of the five built-in congruences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator

from . import _kernels_py as kernels
from .etaq import (
    EtaExpression,
    EtaTerm,
    ThetaFamily,
    _expansion_work,
    _pochhammer_coeffs,
    _refuse_above_limit,
    eval_eta,
    parse_eta,
    theta_series,
    theta_support_mod,
)
from .partitions import ColoredFamilySpec, Family
from .series import TruncatedSeries, _modulus_value


class UnsupportedFamilyError(ValueError):
    """Proof replay is only defined for the five built-in families."""


class ClaimSource(enum.Enum):
    THEOREM = "theorem"      # one of the five built-in mod-7 rows
    COROLLARY = "corollary"  # a lift of a built-in row to k + 7j colors
    CANDIDATE = "candidate"  # anything else; finite checking proves nothing


@dataclass(frozen=True)
class CongruenceClaim:
    """family(modulus*n + residue) == 0 (mod modulus) for all n >= 0."""

    spec: ColoredFamilySpec
    modulus: int
    residue: int
    source: ClaimSource = ClaimSource.CANDIDATE

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue must satisfy 0 <= r < {self.modulus}, got {self.residue}")

    def describe(self) -> str:
        return (f"{self.spec.label}({self.modulus}n+{self.residue})"
                f" == 0 (mod {self.modulus})")


@dataclass(frozen=True)
class Counterexample:
    n: int
    value: int


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of checking a claim for n = 0 .. checked_up_to - 1."""

    claim: CongruenceClaim
    checked_up_to: int
    counterexample: Counterexample | None = None

    @property
    def holds(self) -> bool:
        return self.counterexample is None

    def to_json_obj(self) -> dict:
        ce = self.counterexample
        return {
            "family": self.claim.spec.family.value,
            "k": self.claim.spec.colors,
            "modulus": self.claim.modulus,
            "residue": self.claim.residue,
            "checked_up_to": self.checked_up_to,
            "holds": self.holds,
            "counterexample": None if ce is None else {"n": ce.n, "value": str(ce.value)},
            "source": self.claim.source.value,
        }

    def csv_row(self) -> list[str]:
        # fixed column order: family,k,modulus,residue,checked_upto,holds,source
        return [
            self.claim.spec.family.value,
            str(self.claim.spec.colors),
            str(self.claim.modulus),
            str(self.claim.residue),
            str(self.checked_up_to),
            "true" if self.holds else "false",
            self.claim.source.value,
        ]


CSV_COLUMNS = ["family", "k", "modulus", "residue", "checked_upto", "holds", "source"]

# The five built-in (colors, residue) rows of the mod-7 family table.
MOD7_FAMILY_ROWS: tuple[tuple[int, int], ...] = ((1, 5), (3, 2), (4, 4), (5, 6), (7, 3))
_MOD7_RESIDUE = dict(MOD7_FAMILY_ROWS)

# Classical congruences of the plain partition function a_1 = p.
RAMANUJAN_ROWS: tuple[tuple[int, int], ...] = ((5, 4), (7, 5), (11, 6))


def ramanujan_claims() -> list[CongruenceClaim]:
    spec = ColoredFamilySpec(Family.ODD_COLORED, 1)
    return [CongruenceClaim(spec, m, r, ClaimSource.THEOREM) for m, r in RAMANUJAN_ROWS]


def family_expression(spec: ColoredFamilySpec) -> EtaExpression:
    """Generating eta-quotient of a colored family.

    ODD_COLORED:  f2^(k-1) / f1^k
    EVEN_COLORED: 1 / (f1 * f2^(k-1))
    """
    k = spec.colors
    if spec.family is Family.ODD_COLORED:
        return EtaExpression.single(1, 0, {2: k - 1, 1: -k})
    return EtaExpression.single(1, 0, {1: -1, 2: -(k - 1)})


def _family_sweep(family: Family, ks: Iterable[int], order: int,
                  modulus: int | None = None) -> Iterator[tuple[int, TruncatedSeries]]:
    """Yield (k, the k-colored family's series through the order) for each
    distinct k in ks, in increasing k; with `modulus` set, reduced as by
    eval_eta(..., modulus=modulus).

    The first k is expanded by eval_eta.  Every later one is stepped from
    the one before by identities that hold exactly at any truncation:

        a_(k+1) = a_k * f2 / f1    (two passes)
        b_(k+1) = b_k / f2         (one pass)

    Expanding a_k directly costs 2k-1 passes and b_k costs k, so the chain
    never restarts: it runs exactly the passes of a direct expansion of
    the largest k.  That expansion's estimate, plus one output series per
    further k, is refused above the expansion limit before the first pass.
    """
    ks = sorted(set(ks))
    if not ks:
        return
    first, last = ColoredFamilySpec(family, ks[0]), ColoredFamilySpec(family, ks[-1])
    m = None if modulus is None else _modulus_value(modulus)
    _refuse_above_limit(_expansion_work(family_expression(last), order)
                        + order * (len(ks) - 1))
    series = eval_eta(family_expression(first), order, m)
    yield ks[0], series
    f1, f2 = _pochhammer_coeffs(1, order), _pochhammer_coeffs(2, order)
    acc = series.coeffs
    for prev, k in zip(ks, ks[1:]):
        for _ in range(k - prev):
            if family is Family.ODD_COLORED:
                acc = kernels.div(kernels.mul(f2, acc, order, m), f1, order, m)
            else:
                acc = kernels.div(acc, f2, order, m)
        yield k, TruncatedSeries(acc)


def verify_claim(claim: CongruenceClaim, upto: int,
                 modular: bool = False) -> ClaimReport:
    """Check a claim for n = 0 .. upto-1 and report the smallest violation.

    The series order is derived, never guessed: modulus*upto + residue + 1.
    With `modular` set the expansion runs mod the claim modulus (faster;
    a counterexample value is then only known as a residue).
    """
    if upto < 1:
        raise ValueError("upto must be >= 1")
    m, r = claim.modulus, claim.residue
    order = m * upto + r + 1
    series = eval_eta(family_expression(claim.spec), order,
                      modulus=m if modular else None)
    return _check_component(claim, series, upto)


def _check_component(claim: CongruenceClaim, series: TruncatedSeries,
                     upto: int) -> ClaimReport:
    m, r = claim.modulus, claim.residue
    component = series.dissect(m, r)
    for n in range(upto):
        if component[n] % m:
            return ClaimReport(claim, upto, Counterexample(n, component[n]))
    return ClaimReport(claim, upto, None)


def verify_mod7_family(upto: int = 300) -> list[ClaimReport]:
    """Verify all five built-in mod-7 congruences of the odd-colored family."""
    return verify_mod7_lifts(0, upto)


def verify_mod7_lifts(j_max: int, upto: int = 100) -> list[ClaimReport]:
    """Verify the lifted rows a_(7j+k)(7n+r) == 0 (mod 7) for j = 0..j_max.

    The j = 0 rows are the theorem rows of verify_mod7_family.  The
    color counts 7j+k increase in row order, so one exact family sweep
    builds them all, through the largest order a row needs, 7*upto + 7:
    2*(7*j_max + 7) - 1 passes in all, where expanding each row on its
    own would cost 2k - 1 passes per row (13 against 35 for j_max = 0).
    Each row dissects its class from that series; truncation is exact,
    so the reports equal verify_claim's.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    if upto < 1:
        raise ValueError("upto must be >= 1")
    ks = [7 * j + k for j in range(j_max + 1) for k, _ in MOD7_FAMILY_ROWS]
    order = 7 * upto + max(r for _, r in MOD7_FAMILY_ROWS) + 1
    reports = []
    for k, series in _family_sweep(Family.ODD_COLORED, ks, order):
        r = _MOD7_RESIDUE[k % 7 or 7]
        claim = CongruenceClaim(ColoredFamilySpec(Family.ODD_COLORED, k), 7, r,
                                _scan_source(Family.ODD_COLORED, k, 7, r))
        reports.append(_check_component(claim, series, upto))
    return reports


def lift_factorization_holds(j: int, k: int, order: int = 200) -> bool:
    """The congruence behind the lifts:
    f2^(7j+k-1)/f1^(7j+k) == (f14/f7)^j * f2^(k-1)/f1^k (mod 7)."""
    if j < 0 or k < 1:
        raise ValueError("need j >= 0 and k >= 1")
    lhs = EtaTerm.make(1, 0, {2: 7 * j + k - 1, 1: -(7 * j + k)})
    rhs = EtaTerm.make(-1, 0, {14: j, 7: -j, 2: k - 1, 1: -k})
    return eval_eta(EtaExpression((lhs, rhs)), order, modulus=7).is_zero()


# ---------------------------------------------------------------------------
# the explicit 7-dissection identity
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def dissection_rhs_text() -> str:
    return (resources.files("qpart") / "data" / "mod7_dissection_rhs.txt").read_text()


@lru_cache(maxsize=1)
def dissection_rhs() -> EtaExpression:
    """The checked-in eight-term right side of the 7-dissection identity
    for the 3-colored family's residue-2 component (outer factor 7
    already distributed into the term coefficients)."""
    return parse_eta(dissection_rhs_text())


@dataclass(frozen=True)
class DissectionReport:
    checked_up_to: int
    first_mismatch: int | None

    @property
    def equal(self) -> bool:
        return self.first_mismatch is None


def dissected_component(upto: int) -> TruncatedSeries:
    """sum_n a_3(7n+2) q^n through order upto (plus one guard coefficient)."""
    base = eval_eta("f2^2/f1^3", 7 * upto + 3)
    return base.dissect(7, 2)


def verify_dissection_identity(upto: int = 100) -> DissectionReport:
    """Exact coefficientwise comparison of the dissected 3-colored series
    against the parsed eight-term eta-quotient sum, through order upto."""
    if upto < 1:
        raise ValueError("upto must be >= 1")
    lhs = dissected_component(upto)
    rhs = eval_eta(dissection_rhs(), upto)
    first = next((n for n in range(upto) if lhs[n] != rhs[n]), None)
    return DissectionReport(upto, first)


# ---------------------------------------------------------------------------
# Frobenius congruence
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def verify_frobenius(a: int, b: int, p: int, order: int = 300) -> bool:
    """Check f_a^(b*p) == f_(a*p)^b (mod p) through the given order."""
    if a < 1 or b < 1:
        raise ValueError("need a >= 1 and b >= 1")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    difference = EtaExpression((EtaTerm.make(1, 0, {a: b * p}),
                                EtaTerm.make(-1, 0, {a * p: b})))
    return eval_eta(difference, order, modulus=p).is_zero()


# ---------------------------------------------------------------------------
# proof replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProofStep:
    name: str
    detail: str
    verified: bool


@dataclass(frozen=True)
class ProofTrace:
    """Machine-checked replay of a support-residue proof.

    The generating series (after the substitution q -> q^scale, if any)
    is rewritten mod 7 as a product of closed-form theta series over a
    power of f7; the component support residues then cannot sum to the
    target class, which forces the congruence.
    """

    k: int
    residue: int
    scale: int
    target: int
    component_supports: tuple[frozenset[int], ...]
    sumset: frozenset[int]
    steps: tuple[ProofStep, ...]

    @property
    def verified(self) -> bool:
        return all(step.verified for step in self.steps)


@dataclass(frozen=True)
class _Recipe:
    scale: int          # substitution applied to the generating series
    numerator: str      # rewritten numerator, an eta expression
    divisor_scale: int  # the rewritten form divides by f_(divisor_scale)
    components: tuple[tuple[ThetaFamily, int], ...]  # (family, inner scale)


_RECIPES: dict[int, _Recipe] = {
    1: _Recipe(1, "f1^6", 7,
               ((ThetaFamily.JACOBI_CUBE, 1), (ThetaFamily.JACOBI_CUBE, 1))),
    3: _Recipe(2, "f2^4*f4^2", 14,
               ((ThetaFamily.OCTAGONAL_WEIGHTED, 1),
                (ThetaFamily.OCTAGONAL_ALTERNATING, 1))),
    4: _Recipe(1, "f1^3*f2^3", 7,
               ((ThetaFamily.PENTAGONAL_WEIGHTED, 1),
                (ThetaFamily.OCTAGONAL_ALTERNATING, 1))),
    5: _Recipe(1, "f1^2*f2^4", 7,
               ((ThetaFamily.PENTAGONAL_WEIGHTED, 2),
                (ThetaFamily.OCTAGONAL_WEIGHTED, 1))),
    7: _Recipe(1, "f2^6", 7,
               ((ThetaFamily.JACOBI_CUBE, 2), (ThetaFamily.JACOBI_CUBE, 2))),
}


def replay_proof(k: int, order: int = 300) -> ProofTrace:
    """Replay the support-residue proof for the built-in row with k colors.

    Three machine-checked steps:

    1. frobenius-rewrite: the (possibly substituted) generating series
       is congruent mod 7 to numerator / f_(divisor_scale), which rests
       on f_s^7 == f_(7s) (mod 7).
    2. theta-substitution: the numerator equals the product of the
       closed-form theta components, exactly.
    3. residue-exclusion: component supports mod 7 stay inside the sets
       predicted from one period of each closed form, their sumset
       misses the target class, and the actual reduced series respect
       the same inclusions (inclusion is all the argument needs).
    """
    if k not in _RECIPES:
        raise UnsupportedFamilyError(
            f"no replayable proof for k={k}; built-in rows have k in "
            f"{sorted(_RECIPES)}")
    recipe = _RECIPES[k]
    residue = _MOD7_RESIDUE[k]
    target = (recipe.scale * residue) % 7

    spec = ColoredFamilySpec(Family.ODD_COLORED, k)
    transformed = eval_eta(family_expression(spec), order).substitute(recipe.scale)
    numerator = eval_eta(recipe.numerator, order)
    rewritten = eval_eta(f"{recipe.numerator}/f{recipe.divisor_scale}", order)

    frobenius_ok = (verify_frobenius(recipe.scale, 1, 7, order)
                    and (transformed - rewritten).reduce_mod(7).is_zero())
    step1 = ProofStep(
        "frobenius-rewrite",
        f"f{recipe.scale}^7 == f{recipe.divisor_scale} (mod 7) turns the series "
        f"into {recipe.numerator}/f{recipe.divisor_scale}",
        frobenius_ok)

    component_series = [
        theta_series(fam, order).substitute(s) for fam, s in recipe.components
    ]
    product = component_series[0]
    for extra in component_series[1:]:
        product = product * extra
    step2 = ProofStep(
        "theta-substitution",
        f"{recipe.numerator} equals the product of "
        f"{', '.join(f'{fam.value}(q^{s})' if s > 1 else fam.value for fam, s in recipe.components)}",
        numerator == product)

    claimed_supports = tuple(
        frozenset((s * t) % 7 for t in theta_support_mod(fam, 7))
        for fam, s in recipe.components
    )
    computed_supports = tuple(
        cs.reduce_mod(7).support_residues(7) for cs in component_series
    )
    sumset = frozenset(
        (x + y) % 7 for x in claimed_supports[0] for y in claimed_supports[1]
    )
    exclusion_ok = (
        all(c <= claimed for c, claimed in zip(computed_supports, claimed_supports))
        and target not in sumset
        and numerator.reduce_mod(7).support_residues(7) <= sumset
        and target not in transformed.reduce_mod(7).support_residues(7)
    )
    step3 = ProofStep(
        "residue-exclusion",
        f"supports {[sorted(s) for s in claimed_supports]} produce sumset "
        f"{sorted(sumset)}, which misses the target class {target} (mod 7)",
        exclusion_ok)

    return ProofTrace(
        k=k,
        residue=residue,
        scale=recipe.scale,
        target=target,
        component_supports=claimed_supports,
        sumset=sumset,
        steps=(step1, step2, step3),
    )


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def _scan_source(family: Family, k: int, modulus: int, r: int) -> ClaimSource:
    if family is Family.ODD_COLORED and modulus == 7:
        base = k % 7 or 7
        if _MOD7_RESIDUE.get(base) == r:
            return ClaimSource.THEOREM if k == base else ClaimSource.COROLLARY
    return ClaimSource.CANDIDATE


def scan(k_values: Iterable[int], modulus: int, upto: int,
         family: Family = Family.ODD_COLORED,
         modular: bool = False) -> list[ClaimReport]:
    """Check every residue class for every color count in k_values.

    Rows matching the built-in mod-7 table (or its lifts) are labeled
    theorem/corollary; everything else is a candidate, reported with
    its checked range and never asserted.  Output is sorted by (k, r).
    One family sweep builds every k's series, at order modulus*(upto+1),
    each from the one before: family a costs 2*max(k) - 1 passes in all
    and family b max(k), where expanding each k on its own would cost
    2k - 1 (or k) passes per k.  Each series is dissected m ways.
    """
    if upto < 50:
        raise ValueError("scan needs upto >= 50 to be worth reporting")
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    reports = []
    order = modulus * upto + modulus
    for k, series in _family_sweep(family, k_values, order,
                                   modulus if modular else None):
        spec = ColoredFamilySpec(family, k)
        for r in range(modulus):
            claim = CongruenceClaim(spec, modulus, r,
                                    _scan_source(family, k, modulus, r))
            reports.append(_check_component(claim, series, upto))
    return reports
