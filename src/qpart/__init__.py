"""Exact q-series arithmetic and colored-partition congruence verification.

The package splits into four layers:

* :mod:`qpart.series` — truncated integer power series (the ring).
* :mod:`qpart.etaq` — Pochhammer/eta-quotient builders, closed-form
  theta series, and the text grammar for eta expressions.
* :mod:`qpart.partitions` — combinatorial ground truth for the colored
  families (the divisor-sum recurrence and exhaustive listing).
* :mod:`qpart.congruence` — the claim verifiers, the explicit
  7-dissection identity, the Frobenius congruence, proof replays, and
  the residue scanner.

Every truncated product and quotient, in the exact and the modular
lane, goes through two pure-Python kernels that work over the nonzero
coefficients of one operand (``mul`` and ``div`` in
``qpart._kernels_py``): eta-quotients are expanded by passes that
multiply or divide by each fk (see :func:`qpart.etaq.eval_eta`), and
general series use the same kernels for ``*``, ``inverse`` and ``**``.
"""

from .congruence import (
    MOD7_FAMILY_ROWS,
    RAMANUJAN_ROWS,
    ClaimReport,
    ClaimSource,
    CongruenceClaim,
    Counterexample,
    DissectionReport,
    ProofStep,
    ProofTrace,
    UnsupportedFamilyError,
    dissected_component,
    dissection_rhs,
    dissection_rhs_text,
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
from .etaq import (
    THETA_PRODUCT_FORM,
    EtaExpression,
    EtaSyntaxError,
    EtaTerm,
    ThetaFamily,
    ZeroScaleError,
    eval_eta,
    format_eta,
    parse_eta,
    pochhammer_f,
    theta_series,
    theta_support_mod,
)
from .partitions import (
    CapExceededError,
    ColoredFamilySpec,
    ColoredPartition,
    Family,
    count,
    enumerate_partitions,
    oracle_series,
)
from .series import NonUnitConstantTermError, TruncatedSeries

__version__ = "0.1.0"


def backend() -> str:
    """Name of the coefficient-kernel backend; always "python"."""
    return "python"


__all__ = [
    "backend",
    "__version__",
    # series
    "TruncatedSeries", "NonUnitConstantTermError",
    # etaq
    "pochhammer_f", "eval_eta", "parse_eta", "format_eta",
    "EtaExpression", "EtaTerm", "EtaSyntaxError", "ZeroScaleError",
    "ThetaFamily", "theta_series", "theta_support_mod", "THETA_PRODUCT_FORM",
    # partitions
    "Family", "ColoredFamilySpec", "ColoredPartition",
    "count", "enumerate_partitions", "oracle_series", "CapExceededError",
    # congruence
    "CongruenceClaim", "ClaimReport", "ClaimSource", "Counterexample",
    "DissectionReport", "ProofStep", "ProofTrace", "UnsupportedFamilyError",
    "MOD7_FAMILY_ROWS", "RAMANUJAN_ROWS", "ramanujan_claims",
    "family_expression", "verify_claim", "verify_mod7_family",
    "verify_mod7_lifts", "lift_factorization_holds",
    "verify_dissection_identity", "dissected_component",
    "dissection_rhs", "dissection_rhs_text",
    "verify_frobenius", "replay_proof", "scan",
]
