"""The public record classes and what importing the package loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qpart import (
    ClaimReport,
    ClaimSource,
    ColoredFamilySpec,
    ColoredPartition,
    CongruenceClaim,
    Counterexample,
    DissectionReport,
    EtaExpression,
    EtaTerm,
    Family,
    ProofStep,
    ProofTrace,
    scan,
)

SRC = Path(__file__).resolve().parents[1] / "src"

_SPEC = ColoredFamilySpec(Family.ODD_COLORED, 3)
_CLAIM = CongruenceClaim(_SPEC, 7, 2)
_STEP = ProofStep("frobenius-rewrite", "f2^7 == f14 (mod 7)", True)

# Per public record class: the keyword arguments of one valid record, in
# field order, and one field with another valid value for it.
RECORDS = [
    (EtaTerm, dict(coefficient=2, q_shift=1, factors=((1, -3), (2, 2))), ("q_shift", 0)),
    (EtaExpression, dict(terms=(EtaTerm(1), EtaTerm(-1, 2))), ("terms", (EtaTerm(1),))),
    (ColoredFamilySpec, dict(family=Family.EVEN_COLORED, colors=4), ("colors", 5)),
    (ColoredPartition, dict(spec=_SPEC, parts=((3, 2), (2, 1), (1, 3))), ("parts", ((2, 1),))),
    (CongruenceClaim, dict(spec=_SPEC, modulus=7, residue=2, source=ClaimSource.THEOREM),
     ("source", ClaimSource.CANDIDATE)),
    (Counterexample, dict(n=3, value=14), ("value", 15)),
    (ClaimReport, dict(claim=_CLAIM, checked_up_to=50, counterexample=Counterexample(3, 14)),
     ("counterexample", None)),
    (DissectionReport, dict(checked_up_to=100, first_mismatch=None), ("first_mismatch", 4)),
    (ProofStep, dict(name="theta-substitution", detail="f1^3 equals ...", verified=True),
     ("verified", False)),
    (ProofTrace, dict(k=3, residue=2, scale=2, target=4,
                      component_supports=(frozenset({0, 1}), frozenset({0, 3})),
                      sumset=frozenset({0, 1, 3}), steps=(_STEP,)), ("target", 5)),
]


@pytest.mark.parametrize("cls,fields,change", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, fields, change):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and hash(a) == hash(b)
    assert [getattr(a, name) for name in fields] == list(fields.values())
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert cls.__match_args__ == tuple(fields)
    name, other = change
    assert a != cls(**{**fields, name: other})
    assert a != tuple(fields.values())
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, fields.get(field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_records_of_different_classes_differ():
    assert Counterexample(3, None) != DissectionReport(3, None)
    assert len({Counterexample(3, None), DissectionReport(3, None)}) == 2


@pytest.mark.parametrize("make,error,message", [
    (lambda: ColoredFamilySpec(Family.ODD_COLORED, 0), ValueError,
     "color count must be an integer >= 1, got 0"),
    (lambda: ColoredFamilySpec(Family.ODD_COLORED, 2.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: ColoredFamilySpec(Family.ODD_COLORED, True), TypeError,
     "color count must be an integer, got True"),
    (lambda: EtaTerm(1, True), TypeError, "q_shift must be an integer, got True"),
    (lambda: EtaTerm(1, -1), ValueError, "q_shift must be >= 0"),
    (lambda: EtaTerm(1, 0, ((0, 1),)), ValueError, "factor scales must be positive"),
    (lambda: EtaTerm(1, 0, ((2, 1), (1, 1))), ValueError,
     "factor scales must be distinct and increasing"),
    (lambda: EtaTerm(1, 0, ((1, 0),)), ValueError, "factor exponents must be nonzero"),
    (lambda: EtaExpression(()), ValueError, "an expression needs at least one term"),
    (lambda: ColoredPartition(_SPEC, ((2, 2),)), ValueError, "part 2_2 is not valid for a_3"),
    (lambda: ColoredPartition(_SPEC, ((1, 1), (2, 1))), ValueError,
     "parts must be in descending order"),
    (lambda: CongruenceClaim(_SPEC, 1, 0), ValueError, "modulus must be >= 2"),
    (lambda: CongruenceClaim(_SPEC, 7, 7), ValueError, "residue must satisfy 0 <= r < 7, got 7"),
    (lambda: CongruenceClaim(_SPEC, 7, True), TypeError, "residue must be an integer, got True"),
    # a family, spec or source that is not its class would be taken for another one
    (lambda: ColoredFamilySpec("a", 3), TypeError, "family must be a Family, got 'a'"),
    (lambda: CongruenceClaim("a_3", 7, 2), TypeError,
     "spec must be a ColoredFamilySpec, got 'a_3'"),
    (lambda: CongruenceClaim(_SPEC, 7, 2, "theorem"), TypeError,
     "source must be a ClaimSource, got 'theorem'"),
    (lambda: scan([1], 7, 60, family="a"), TypeError, "family must be a Family, got 'a'"),
    (lambda: scan([], 7, 60, family="zzz"), TypeError, "family must be a Family, got 'zzz'"),
], ids=["spec-zero", "spec-float", "spec-bool", "term-bool", "term-shift",
        "term-scale", "term-order", "term-exponent", "expression-empty", "partition-color",
        "partition-order", "claim-modulus", "claim-residue", "claim-bool", "spec-family",
        "claim-spec", "claim-source", "scan-family", "scan-no-colors-family"])
def test_record_validation_messages(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_records_normalise_integer_fields():
    class Three:
        def __index__(self):
            return 3

    assert type(ColoredFamilySpec(Family.ODD_COLORED, Three()).colors) is int
    claim = CongruenceClaim(_SPEC, 7, Three())
    assert type(claim.residue) is int and claim.residue == 3
    assert EtaTerm(Three(), Three(), ((Three(), Three()),)) == EtaTerm(3, 3, ((3, 3),))


def test_import_loads_no_dataclasses_inspect_or_resources():
    # -E -S: no site-packages and no .pth files, which may load these themselves
    unwanted = ("dataclasses", "inspect", "importlib.resources", "typing")
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import qpart, qpart.cli; "
            f"print(*[m for m in {unwanted!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
