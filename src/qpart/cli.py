"""Command-line front end.

Subcommands: expand, count, enumerate, verify, scan.  Exit codes:
0 = everything requested holds, 1 = a counterexample or mismatch was
found, 2 = usage or parse error.  Output is deterministic; exact
coefficients always print as full decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from .congruence import (
    CSV_COLUMNS,
    ClaimReport,
    ClaimSource,
    CongruenceClaim,
    ProofTrace,
    UnsupportedFamilyError,
    dissection_rhs_text,
    replay_proof,
    scan,
    verify_claim,
    verify_dissection_identity,
    verify_frobenius,
    verify_mod7_family,
    verify_mod7_lifts,
)
from .etaq import EtaSyntaxError, ZeroScaleError, eval_eta, parse_eta
from .partitions import (
    CapExceededError,
    ColoredFamilySpec,
    Family,
    count,
    enumerate_partitions,
)

_FIXTURES = {"theorem13": dissection_rhs_text}


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def cmd_expand(args: argparse.Namespace) -> int:
    if args.fixture is not None and args.expr is not None:
        raise ValueError("give either an expression or --fixture, not both")
    if args.fixture is not None:
        text = _FIXTURES[args.fixture]()
    elif args.expr is not None:
        text = args.expr
    else:
        raise ValueError("nothing to expand: give an expression or --fixture")
    series = eval_eta(parse_eta(text), args.order, modulus=args.mod)
    if args.support is not None:
        residues = sorted(series.support_residues(args.support))
        if args.format == "json":
            _print_json({"support_modulus": args.support, "support_residues": residues})
        elif args.format == "csv":
            _print_csv(["residue"], [[str(r)] for r in residues])
        else:
            print("{" + ",".join(str(r) for r in residues) + "}")
        return 0
    if args.format == "json":
        _print_json({"order": series.order, "coefficients": [str(c) for c in series]})
    elif args.format == "csv":
        _print_csv(["n", "coefficient"],
                   [[str(n), str(c)] for n, c in enumerate(series)])
    else:
        print(" ".join(str(c) for c in series))
    return 0


# ---------------------------------------------------------------------------
# count / enumerate
# ---------------------------------------------------------------------------

def _spec_from(args: argparse.Namespace) -> ColoredFamilySpec:
    return ColoredFamilySpec(Family(args.family), args.k)


def cmd_count(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    value = count(spec, args.n)
    if args.format == "json":
        _print_json({"family": args.family, "k": args.k, "n": args.n,
                     "count": str(value)})
    elif args.format == "csv":
        _print_csv(["family", "k", "n", "count"],
                   [[args.family, str(args.k), str(args.n), str(value)]])
    else:
        print(value)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec = _spec_from(args)
    partitions = enumerate_partitions(spec, args.n, cap=args.cap)
    if args.format == "json":
        _print_json({
            "family": args.family, "k": args.k, "n": args.n,
            "count": len(partitions),
            "partitions": [[[w, c] for w, c in p.parts] for p in partitions],
        })
    elif args.format == "csv":
        _print_csv(["index", "partition"],
                   [[str(i), str(p)] for i, p in enumerate(partitions)])
    else:
        for p in partitions:
            print(p)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _claim_line(report: ClaimReport) -> str:
    claim = report.claim
    if report.holds:
        status = f"holds for n < {report.checked_up_to}"
    else:
        ce = report.counterexample
        status = f"FAILS at n={ce.n} (value {ce.value})"
    return f"{claim.describe()}: {status} [{claim.source.value}]"


def _emit_reports(reports: list[ClaimReport], fmt: str) -> None:
    if fmt == "json":
        _print_json([r.to_json_obj() for r in reports])
    elif fmt == "csv":
        _print_csv(CSV_COLUMNS, [r.csv_row() for r in reports])
    else:
        for r in reports:
            print(_claim_line(r))


def _reports_exit(reports: list[ClaimReport], paper_only: bool = False) -> int:
    for r in reports:
        if paper_only and r.claim.source is ClaimSource.CANDIDATE:
            continue
        if not r.holds:
            return 1
    return 0


def cmd_verify_claim(args: argparse.Namespace) -> int:
    claim = CongruenceClaim(_spec_from(args), args.mod, args.residue)
    report = verify_claim(claim, args.upto)
    _emit_reports([report], args.format)
    return _reports_exit([report])


def cmd_verify_theorem14(args: argparse.Namespace) -> int:
    reports = verify_mod7_family(args.upto)
    _emit_reports(reports, args.format)
    return _reports_exit(reports)


def cmd_verify_corollary(args: argparse.Namespace) -> int:
    reports = verify_mod7_lifts(args.jmax, args.upto)
    _emit_reports(reports, args.format)
    return _reports_exit(reports)


def cmd_verify_dissection(args: argparse.Namespace) -> int:
    report = verify_dissection_identity(args.upto)
    if args.format == "json":
        _print_json({"checked_up_to": report.checked_up_to,
                     "equal": report.equal,
                     "first_mismatch": report.first_mismatch})
    elif args.format == "csv":
        _print_csv(["checked_upto", "equal", "first_mismatch"],
                   [[str(report.checked_up_to),
                     "true" if report.equal else "false",
                     "" if report.first_mismatch is None else str(report.first_mismatch)]])
    elif report.equal:
        print(f"7-dissection identity: exact match through order {report.checked_up_to}")
    else:
        print(f"7-dissection identity: MISMATCH at n={report.first_mismatch}")
    return 0 if report.equal else 1


def cmd_verify_frobenius(args: argparse.Namespace) -> int:
    holds = verify_frobenius(args.a, args.b, args.p, args.order)
    rhs = f"f{args.a * args.p}" + (f"^{args.b}" if args.b != 1 else "")
    statement = f"f{args.a}^{args.b * args.p} == {rhs} (mod {args.p})"
    if args.format == "json":
        _print_json({"a": args.a, "b": args.b, "p": args.p,
                     "order": args.order, "holds": holds})
    elif args.format == "csv":
        _print_csv(["a", "b", "p", "order", "holds"],
                   [[str(args.a), str(args.b), str(args.p), str(args.order),
                     "true" if holds else "false"]])
    elif holds:
        print(f"{statement}: holds through order {args.order}")
    else:
        print(f"{statement}: FAILS within order {args.order}")
    return 0 if holds else 1


def _trace_json(trace: ProofTrace) -> dict:
    return {
        "k": trace.k,
        "residue": trace.residue,
        "scale": trace.scale,
        "target": trace.target,
        "component_supports": [sorted(s) for s in trace.component_supports],
        "sumset": sorted(trace.sumset),
        "verified": trace.verified,
        "steps": [{"name": s.name, "verified": s.verified, "detail": s.detail}
                  for s in trace.steps],
    }


def cmd_verify_proof(args: argparse.Namespace) -> int:
    trace = replay_proof(args.k, args.order)
    if args.format == "json":
        _print_json(_trace_json(trace))
    elif args.format == "csv":
        _print_csv(["step", "verified", "detail"],
                   [[s.name, "true" if s.verified else "false", s.detail]
                    for s in trace.steps])
    else:
        verdict = "VERIFIED" if trace.verified else "FAILED"
        print(f"proof replay for a_{trace.k}(7n+{trace.residue}) == 0 (mod 7): {verdict}")
        for s in trace.steps:
            mark = "ok" if s.verified else "FAIL"
            print(f"  [{mark}] {s.name}: {s.detail}")
    return 0 if trace.verified else 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args: argparse.Namespace) -> int:
    if args.kmax < 1:
        raise ValueError("--kmax must be >= 1")
    reports = scan(range(1, args.kmax + 1), args.mod, args.upto,
                   family=Family(args.family), modular=args.modular)
    _emit_reports(reports, args.format)
    return _reports_exit(reports, paper_only=True)


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "json", "csv"], default="text",
                     help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="qpart",
        description="Exact q-series expansion and colored-partition "
                    "congruence verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[fmt],
                       help="expand an eta-quotient expression")
    p.add_argument("expr", nargs="?", help="expression, e.g. 'f2^2/f1^3'")
    p.add_argument("--fixture", choices=sorted(_FIXTURES),
                   help="expand a checked-in expression instead of EXPR")
    p.add_argument("--order", type=int, default=50,
                   help="number of coefficients (default: 50)")
    p.add_argument("--mod", type=int, metavar="M",
                   help="reduce coefficients mod M")
    p.add_argument("--support", type=int, metavar="M",
                   help="print the exponent residues mod M carrying a "
                        "nonzero coefficient")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("count", parents=[fmt],
                       help="count colored partitions")
    p.add_argument("family", choices=["a", "b"],
                   help="a: odd parts colored, b: even parts colored")
    p.add_argument("k", type=int, help="number of colors")
    p.add_argument("n", type=int, help="target weight")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", parents=[fmt],
                       help="list colored partitions")
    p.add_argument("family", choices=["a", "b"])
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=40,
                   help="refuse to list beyond this weight (default: 40)")
    p.set_defaults(func=cmd_enumerate)

    v = sub.add_parser("verify", help="verify congruence claims and identities")
    vsub = v.add_subparsers(dest="what", required=True)

    p = vsub.add_parser("claim", parents=[fmt],
                        help="one claim family(m*n+r) == 0 (mod m)")
    p.add_argument("--family", choices=["a", "b"], default="a")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--upto", type=int, default=50)
    p.set_defaults(func=cmd_verify_claim)

    p = vsub.add_parser("theorem14", parents=[fmt],
                        help="the five built-in mod-7 congruences")
    p.add_argument("--upto", type=int, default=50)
    p.set_defaults(func=cmd_verify_theorem14)

    p = vsub.add_parser("corollary", parents=[fmt],
                        help="lifted rows a_(7j+k)(7n+r) for j = 0..jmax")
    p.add_argument("--jmax", type=int, default=3)
    p.add_argument("--upto", type=int, default=50)
    p.set_defaults(func=cmd_verify_corollary)

    p = vsub.add_parser("dissection", parents=[fmt],
                        help="the explicit eight-term 7-dissection identity")
    p.add_argument("--upto", type=int, default=50)
    p.set_defaults(func=cmd_verify_dissection)

    p = vsub.add_parser("frobenius", parents=[fmt],
                        help="f_a^(b*p) == f_(a*p)^b (mod p)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--order", type=int, default=50)
    p.set_defaults(func=cmd_verify_frobenius)

    p = vsub.add_parser("proof", parents=[fmt],
                        help="replay a support-residue proof")
    p.add_argument("--k", type=int, required=True,
                   help="color count of the built-in row (1, 3, 4, 5 or 7)")
    p.add_argument("--order", type=int, default=300)
    p.set_defaults(func=cmd_verify_proof)

    p = sub.add_parser("scan", parents=[fmt],
                       help="check every residue class for k = 1..kmax")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--mod", type=int, default=7)
    p.add_argument("--upto", type=int, default=50)
    p.add_argument("--family", choices=["a", "b"], default="a")
    p.add_argument("--modular", action="store_true",
                   help="expand mod the modulus (faster; counterexample "
                        "values are then residues)")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EtaSyntaxError, ZeroScaleError, UnsupportedFamilyError,
            CapExceededError, ValueError) as exc:
        print(f"qpart: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
