"""CLI integration: subcommands, formats, and the exit-code contract."""

import csv
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qpart.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expand ------------------------------------------------------------------

def test_expand_three_colored(capsys):
    code, out, _ = run(capsys, "expand", "f2^2/f1^3", "--order", "4")
    assert code == 0
    assert out == "1 3 7 16\n"


def test_expand_pochhammer(capsys):
    code, out, _ = run(capsys, "expand", "f1", "--order", "8")
    assert code == 0
    assert out == "1 -1 -1 0 0 1 0 1\n"


def test_expand_support_set(capsys):
    code, out, _ = run(capsys, "expand", "f1^3", "--order", "700",
                       "--mod", "7", "--support", "7")
    assert code == 0
    assert out == "{0,1,3}\n"


def test_expand_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "expand", "1/f1^26", "--order", "60",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 60
    assert all(isinstance(c, str) for c in obj["coefficients"])
    assert int(obj["coefficients"][59]) > 10**15  # exact, no rounding


def test_expand_mod_matches_reduced_exact(capsys):
    code, out, _ = run(capsys, "expand", "1/f1^26", "--order", "60",
                       "--mod", "7", "--format", "json")
    assert code == 0
    _, exact, _ = run(capsys, "expand", "1/f1^26", "--order", "60",
                      "--format", "json")
    reduced = json.loads(exact)
    reduced["coefficients"] = [str(int(c) % 7) for c in reduced["coefficients"]]
    assert out == json.dumps(reduced, indent=2) + "\n"


def test_expand_mod_below_two_exits_2(capsys):
    code, out, err = run(capsys, "expand", "f1", "--order", "5", "--mod", "1")
    assert code == 2
    assert out == ""
    assert "modulus" in err


def test_expand_runaway_exponent_exits_2_promptly(capsys):
    # 10**9 passes over f1 would run for hours; the work estimate refuses it
    t0 = time.perf_counter()
    code, out, err = run(capsys, "expand", "f1^1000000000", "--order", "5")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "limit" in err


@pytest.mark.parametrize("argv", [
    ("expand", "1", "--order", "1000000000"),
    ("expand", "q^2000000000", "--order", "1000000000"),
    ("count", "a", "1", "1000000000"),
])
def test_huge_table_exits_2_promptly(capsys, argv):
    # each would first allocate a list of 10**9 integers, about 8 GB
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_oversized_sweep_exits_2_promptly(capsys):
    # a chain through a million color counts at order 357
    t0 = time.perf_counter()
    code, out, err = run(capsys, "scan", "--kmax", "1000000", "--upto", "50")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "limit" in err


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "f1", "--order", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["n", "coefficient"], ["0", "1"], ["1", "-1"], ["2", "-1"]]


def test_expand_fixture(capsys):
    code, out, _ = run(capsys, "expand", "--fixture", "theorem13", "--order", "3")
    assert code == 0
    first = int(out.split()[0])
    assert first == 7


def test_expand_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "expand", "f1^")
    assert code == 2
    assert "offset 3" in err


def test_expand_requires_exactly_one_source(capsys):
    assert run(capsys, "expand")[0] == 2
    assert run(capsys, "expand", "f1", "--fixture", "theorem13")[0] == 2


# -- count / enumerate ---------------------------------------------------------

def test_count_paper_values(capsys):
    assert run(capsys, "count", "a", "3", "3")[1] == "16\n"
    assert run(capsys, "count", "a", "1", "4")[1] == "5\n"
    assert run(capsys, "count", "a", "2", "2")[1] == "4\n"


def test_count_bad_args_exit_2(capsys):
    assert run(capsys, "count", "a", "0", "3")[0] == 2
    assert run(capsys, "count", "a", "2", "-1")[0] == 2


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "a", "2", "1")
    assert code == 0
    assert out == "(1_2)\n(1_1)\n"


def test_enumerate_cap_exit_2(capsys):
    assert run(capsys, "enumerate", "a", "2", "50")[0] == 2


def test_enumerate_listing_limit_exits_2_promptly(capsys):
    # 190569292 partitions of 100, far too many objects to build
    t0 = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "a", "1", "100", "--cap", "100")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert "190569292" in err and "limit" in err


def test_enumerate_json_count_matches(capsys):
    code, out, _ = run(capsys, "enumerate", "a", "3", "3", "--format", "json")
    obj = json.loads(out)
    assert code == 0
    assert obj["count"] == 16
    assert obj["partitions"][0] == [[3, 3]]
    assert obj["partitions"][-1] == [[1, 1], [1, 1], [1, 1]]


# -- verify ---------------------------------------------------------------------

def test_verify_claim_holds_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "claim", "--family", "a", "--k", "3",
                       "--mod", "7", "--residue", "2", "--upto", "60")
    assert code == 0
    assert "holds for n < 60" in out


def test_verify_claim_counterexample_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "claim", "--family", "a", "--k", "1",
                       "--mod", "7", "--residue", "0", "--upto", "10")
    assert code == 1
    assert "n=0" in out and "value 1" in out


def test_verify_theorem14(capsys):
    code, out, _ = run(capsys, "verify", "theorem14", "--upto", "40")
    assert code == 0
    assert out.count("[theorem]") == 5
    assert "a_5(7n+6)" in out


def test_verify_corollary(capsys):
    code, out, _ = run(capsys, "verify", "corollary", "--jmax", "1", "--upto", "40")
    assert code == 0
    assert out.count("\n") == 10
    assert "a_14(7n+3)" in out


def test_verify_dissection(capsys):
    code, out, _ = run(capsys, "verify", "dissection", "--upto", "30")
    assert code == 0
    assert "exact match through order 30" in out


def test_verify_frobenius(capsys):
    code, out, _ = run(capsys, "verify", "frobenius", "--a", "2", "--b", "1",
                       "--p", "7", "--order", "100")
    assert code == 0
    assert "f2^7 == f14 (mod 7)" in out


def test_verify_proof_json(capsys):
    code, out, _ = run(capsys, "verify", "proof", "--k", "1", "--order", "100",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["target"] == 5
    assert sorted(obj["sumset"]) == [0, 1, 2, 3, 4, 6]
    assert [s["name"] for s in obj["steps"]] == [
        "frobenius-rewrite", "theta-substitution", "residue-exclusion"]


def test_verify_proof_unsupported_family_exit_2(capsys):
    assert run(capsys, "verify", "proof", "--k", "2")[0] == 2


def test_verify_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "claim", "--k", "3"])  # missing required flags
    assert exc.value.code == 2


# -- scan -------------------------------------------------------------------------

def test_scan_csv_contract(capsys):
    code, out, _ = run(capsys, "scan", "--kmax", "7", "--mod", "7",
                       "--upto", "50", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "k", "modulus", "residue",
                       "checked_upto", "holds", "source"]
    theorem_rows = [r for r in rows if r[6] == "theorem"]
    assert [(int(r[1]), int(r[3])) for r in theorem_rows] == [
        (1, 5), (3, 2), (4, 4), (5, 6), (7, 3)]
    assert all(r[5] == "true" for r in theorem_rows)


def test_scan_mod5_ramanujan_row(capsys):
    code, out, _ = run(capsys, "scan", "--kmax", "1", "--mod", "5",
                       "--upto", "60", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    row = next(r for r in rows if r["residue"] == 4)
    assert row["holds"] is True


def test_scan_mod11_ramanujan_row(capsys):
    code, out, _ = run(capsys, "scan", "--kmax", "1", "--mod", "11",
                       "--upto", "50", "--format", "json")
    rows = json.loads(out)
    assert next(r for r in rows if r["residue"] == 6)["holds"] is True


def test_scan_candidates_do_not_flip_exit_code(capsys):
    # k=2 rows are all candidates; failures there are findings, not errors
    code, out, _ = run(capsys, "scan", "--kmax", "2", "--mod", "7", "--upto", "50")
    assert code == 0
    assert "[candidate]" in out


# -- exact output in every format ------------------------------------------------

_CLAIM_JSON = """[
  {{
    "family": "a",
    "k": {k},
    "modulus": 7,
    "residue": {r},
    "checked_up_to": {upto},
    "holds": {holds},
    "counterexample": {ce},
    "source": "candidate"
  }}
]
"""
_FAILS_AT_0 = """{
      "n": 0,
      "value": "1"
    }"""
_HOLDS = ("verify", "claim", "--k", "3", "--mod", "7", "--residue", "2", "--upto", "30")
_FAILS = ("verify", "claim", "--k", "1", "--mod", "7", "--residue", "0", "--upto", "10")
_FROBENIUS = ("verify", "frobenius", "--a", "2", "--b", "1", "--p", "7", "--order", "50")
_PROOF = ("verify", "proof", "--k", "1", "--order", "100")
_SUPPORT = ("expand", "f1^3", "--order", "100", "--mod", "7", "--support", "7")


@pytest.mark.parametrize("argv, code, expected", [
    (("count", "a", "3", "3", "--format", "json"), 0,
     '{\n  "family": "a",\n  "k": 3,\n  "n": 3,\n  "count": "16"\n}\n'),
    (("count", "a", "3", "3", "--format", "csv"), 0, "family,k,n,count\na,3,3,16\n"),
    (("enumerate", "a", "2", "2", "--format", "csv"), 0,
     'index,partition\n0,(2)\n1,"(1_2,1_2)"\n2,"(1_2,1_1)"\n3,"(1_1,1_1)"\n'),
    (_HOLDS + ("--format", "json"), 0,
     _CLAIM_JSON.format(k=3, r=2, upto=30, holds="true", ce="null")),
    (_HOLDS + ("--format", "csv"), 0,
     "family,k,modulus,residue,checked_upto,holds,source\na,3,7,2,30,true,candidate\n"),
    (_FAILS + ("--format", "json"), 1,
     _CLAIM_JSON.format(k=1, r=0, upto=10, holds="false", ce=_FAILS_AT_0)),
    (_FAILS + ("--format", "csv"), 1,
     "family,k,modulus,residue,checked_upto,holds,source\na,1,7,0,10,false,candidate\n"),
    (("verify", "dissection", "--upto", "5", "--format", "json"), 0,
     '{\n  "checked_up_to": 5,\n  "equal": true,\n  "first_mismatch": null\n}\n'),
    (("verify", "dissection", "--upto", "5", "--format", "csv"), 0,
     "checked_upto,equal,first_mismatch\n5,true,\n"),
    (_FROBENIUS + ("--format", "json"), 0,
     '{\n  "a": 2,\n  "b": 1,\n  "p": 7,\n  "order": 50,\n  "holds": true\n}\n'),
    (_FROBENIUS + ("--format", "csv"), 0, "a,b,p,order,holds\n2,1,7,50,true\n"),
    (_PROOF + ("--format", "csv"), 0,
     "step,verified,detail\n"
     "frobenius-rewrite,true,f1^7 == f7 (mod 7) turns the series into f1^6/f7\n"
     'theta-substitution,true,"f1^6 equals the product of jacobi-cube, jacobi-cube"\n'
     'residue-exclusion,true,"supports [[0, 1, 3], [0, 1, 3]] produce sumset '
     '[0, 1, 2, 3, 4, 6], which misses the target class 5 (mod 7)"\n'),
    (_PROOF + ("--format", "text"), 0,
     "proof replay for a_1(7n+5) == 0 (mod 7): VERIFIED\n"
     "  [ok] frobenius-rewrite: f1^7 == f7 (mod 7) turns the series into f1^6/f7\n"
     "  [ok] theta-substitution: f1^6 equals the product of jacobi-cube, jacobi-cube\n"
     "  [ok] residue-exclusion: supports [[0, 1, 3], [0, 1, 3]] produce sumset "
     "[0, 1, 2, 3, 4, 6], which misses the target class 5 (mod 7)\n"),
    (_SUPPORT + ("--format", "json"), 0,
     '{\n  "support_modulus": 7,\n  "support_residues": [\n    0,\n    1,\n    3\n  ]\n}\n'),
    (_SUPPORT + ("--format", "csv"), 0, "residue\n0\n1\n3\n"),
])
def test_exact_output(capsys, argv, code, expected):
    assert run(capsys, *argv)[:2] == (code, expected)


# Outputs of the family verifiers, recorded from expanding every color
# count on its own; the family sweep must reproduce them byte for byte.
_PINNED = Path(__file__).parent / "data" / "pinned"
_FAMILY_RUNS = {
    "theorem14": ("verify", "theorem14", "--upto", "40"),
    "corollary": ("verify", "corollary", "--jmax", "1", "--upto", "40"),
    "scan-b-mod13": ("scan", "--kmax", "4", "--mod", "13", "--upto", "50",
                     "--family", "b", "--modular"),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("name", sorted(_FAMILY_RUNS))
def test_family_output_matches_pin(capsys, name, fmt):
    expected = (_PINNED / f"{name}.{fmt}").read_text()
    assert run(capsys, *_FAMILY_RUNS[name], "--format", fmt)[:2] == (0, expected)


# -- determinism and process-level behavior ------------------------------------

def test_identical_invocations_byte_identical(capsys):
    args = ("scan", "--kmax", "3", "--mod", "7", "--upto", "50", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_module_entry_point_exit_codes():
    proc = subprocess.run(
        [sys.executable, "-m", "qpart", "verify", "claim", "--family", "a",
         "--k", "1", "--mod", "7", "--residue", "0", "--upto", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    proc = subprocess.run([sys.executable, "-m", "qpart", "count", "a", "3", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "16"
