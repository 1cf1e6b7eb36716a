"""The correctness gate: expected answers per job, and the comparison.

`expected(job)` is computed once per seed, before any timed round, from
the paper's table and the independent references in `reference.py`.
`check(job, want, got)` compares one answer of the program with it and
never changes the answer.  A job fails on a wrong verdict, a wrong
counterexample, a wrong exit code or an unexpected exception.
"""

from __future__ import annotations

import csv
import io
import json
import re

import reference as ref

_CLAIM_LINE = re.compile(
    r"^\S+ == 0 \(mod \d+\): (?:holds for n < (\d+)|FAILS at n=(\d+) \(value (-?\d+)\)) \[(\w+)\]$")


def expected(job: dict):
    """Expected answer of a job, from the paper's table or a reference."""
    kind = job["kind"]
    if kind == "claim":
        want = ref.claim_answer(job["family"], job["k"], job["m"], job["r"],
                                job["upto"], job["modular"], job["source"])
        if job["stratum"].startswith("planted-false") and want["holds"]:
            raise AssertionError(f"planted claim is not false: {job}")
        return dict(want, checked_up_to=job["upto"], source=job["source"])
    if kind == "scan":
        return ref.scan_answer(job["family"], job["ks"], job["m"], job["upto"], job["modular"])
    if kind == "dissection":
        return {"equal": True, "checked_up_to": job["upto"]}
    if kind == "proof":
        return {"verified": True, "residue": ref.MOD7_ROWS[job["k"]], "steps": ref.PROOF_STEPS}
    return _expected_cli(job)


def _expected_cli(job: dict) -> dict:
    op = job["op"]
    if op == "malformed":
        return {"code": 2}
    if op == "expand":
        coeffs = ref.eta_dense(job["terms"], job["order"])
        if job["mod"] is not None:
            coeffs = [c % job["mod"] for c in coeffs]
        if job["support"] is not None:
            return {"code": 0, "support": sorted({n % job["support"]
                                                  for n, c in enumerate(coeffs) if c})}
        return {"code": 0, "coeffs": coeffs}
    if op in ("count", "enumerate"):
        table = ref.family_table(job["family"], job["k"], job["n"] + 1)
        return {"code": 0, "count": table[job["n"]]}
    if op == "claim":
        want = ref.claim_answer(job["family"], job["k"], job["m"], job["r"],
                                job["upto"], False, "candidate")
        return {"code": 0 if want["holds"] else 1, **want}
    # frobenius (f_a^(bp) == f_(ap)^b mod p holds for every prime p) and proof
    return {"code": 0}


def check(job: dict, want, got) -> bool:
    """True when the program's answer matches the expected one."""
    if isinstance(got, dict) and "error" in got:
        return False
    if job["kind"] != "cli":
        return got == want
    if got["code"] != want["code"]:
        return False
    if want["code"] == 2:  # refused: nothing on stdout, a reason on stderr
        return got["out"] == "" and got["err"] != ""
    try:
        return _CLI_CHECKS[job["op"]](job, want, got["out"])
    except (ValueError, KeyError, IndexError, TypeError):
        return False  # output that does not parse is wrong


def _csv_rows(out: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(out)))


def _check_expand(job, want, out):
    fmt = job["format"]
    if "support" in want:
        if fmt == "json":
            obj = json.loads(out)
            got = obj["support_residues"] if obj["support_modulus"] == job["support"] else None
        elif fmt == "csv":
            rows = _csv_rows(out)
            got = [int(r[0]) for r in rows[1:]] if rows[0] == ["residue"] else None
        else:
            body = out.strip()
            if not (body.startswith("{") and body.endswith("}")):
                return False
            got = [int(x) for x in body[1:-1].split(",") if x]
        return got == want["support"]
    if fmt == "json":
        obj = json.loads(out)
        got = [int(c) for c in obj["coefficients"]] if obj["order"] == job["order"] else None
    elif fmt == "csv":
        rows = _csv_rows(out)
        ok = rows[0] == ["n", "coefficient"] and [int(r[0]) for r in rows[1:]] == list(
            range(len(rows) - 1))
        got = [int(r[1]) for r in rows[1:]] if ok else None
    else:
        got = [int(c) for c in out.split()]
    return got == want["coeffs"]


def _check_count(job, want, out):
    fmt = job["format"]
    if fmt == "json":
        obj = json.loads(out)
        got = int(obj["count"]) if (obj["family"], obj["k"], obj["n"]) == (
            job["family"], job["k"], job["n"]) else None
    elif fmt == "csv":
        rows = _csv_rows(out)
        got = int(rows[1][3]) if rows[1][:3] == [job["family"], str(job["k"]), str(job["n"])] else None
    else:
        got = int(out)
    return got == want["count"]


def _valid_partition(job, parts) -> bool:
    """Weights sum to n, colors are in range, parts descend."""
    if sum(w for w, _ in parts) != job["n"]:
        return False
    for w, c in parts:
        if not 1 <= c <= ref.colors(job["family"], job["k"], w):
            return False
    return all(x >= y for x, y in zip(parts, parts[1:]))


def _parse_partition(text: str, family: str, k: int) -> tuple:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not a partition: {text!r}")
    parts = []
    for token in filter(None, body[1:-1].split(",")):
        w, _, c = token.partition("_")
        if not c and ref.colors(family, k, int(w)) > 1:
            raise ValueError(f"uncolored part of a colored weight: {text!r}")
        parts.append((int(w), int(c) if c else 1))
    return tuple(parts)


def _check_enumerate(job, want, out):
    fmt = job["format"]
    if fmt == "json":
        obj = json.loads(out)
        listed = [tuple((w, c) for w, c in p) for p in obj["partitions"]]
        if obj["count"] != len(listed):
            return False
    elif fmt == "csv":
        rows = _csv_rows(out)
        if rows[0] != ["index", "partition"] or [r[0] for r in rows[1:]] != [
                str(i) for i in range(len(rows) - 1)]:
            return False
        listed = [_parse_partition(r[1], job["family"], job["k"]) for r in rows[1:]]
    else:
        listed = [_parse_partition(line, job["family"], job["k"]) for line in out.splitlines()]
    return (len(listed) == want["count"] == len(set(listed))
            and all(_valid_partition(job, p) for p in listed))


def _check_claim(job, want, out):
    fmt = job["format"]
    if fmt == "csv":
        row = _csv_rows(out)[1]
        return (row[:5] == [job["family"], str(job["k"]), str(job["m"]), str(job["r"]),
                            str(job["upto"])]
                and (row[5] == "true") == want["holds"])
    if fmt == "json":
        obj = json.loads(out)[0]
        ce = obj["counterexample"]
        got = (obj["holds"], ce and ce["n"], ce and ce["value"])
        upto = obj["checked_up_to"]
    else:
        match = _CLAIM_LINE.match(out.strip())
        if match is None:
            return False
        holds_upto, n, value, _ = match.groups()
        got = (holds_upto is not None, n and int(n), value)
        upto = int(holds_upto) if holds_upto else job["upto"]
    return got == (want["holds"], want["n"], want["value"]) and upto == job["upto"]


def _check_holds(job, want, out):
    """frobenius and proof: the verdict is positive in every format."""
    fmt = job["format"]
    if fmt == "json":
        obj = json.loads(out)
        return obj.get("holds", obj.get("verified")) is True
    if fmt == "csv":
        rows = _csv_rows(out)
        column = rows[0].index("holds") if "holds" in rows[0] else rows[0].index("verified")
        return len(rows) > 1 and all(r[column] == "true" for r in rows[1:])
    return ("FAIL" not in out) and (": holds" in out or "VERIFIED" in out)


_CLI_CHECKS = {"expand": _check_expand, "count": _check_count,
               "enumerate": _check_enumerate, "claim": _check_claim,
               "frobenius": _check_holds, "proof": _check_holds}
