"""Command-line front end.

Subcommands: expand, count, enumerate, verify, scan.  Exit codes:
0 = everything requested holds, 1 = a counterexample or mismatch was
found, 2 = usage or parse error.  Each subcommand computes its answer
once and hands it to `_emit`, the only code that prints an answer and
the only code that knows the text, json and csv formats.  Output is
deterministic; exact coefficients always print as full decimal strings.

`main` builds the argparse tree on its first call and reuses it on every
later call, so `main(argv)` may be called any number of times in one
process; importing this module builds nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Iterable, Sequence

from .congruence import (
    CSV_COLUMNS,
    ClaimReport,
    ClaimSource,
    CongruenceClaim,
    dissection_rhs_text,
    replay_proof,
    scan,
    verify_claim,
    verify_dissection_identity,
    verify_frobenius,
    verify_mod7_family,
    verify_mod7_lifts,
)
from .etaq import eval_eta, parse_eta
from .partitions import (
    ColoredFamilySpec,
    Family,
    count,
    enumerate_partitions,
)

_FIXTURES = {"theorem13": dissection_rhs_text}


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _emit(fmt: str, obj, header: list[str], rows: Iterable[Iterable[str]],
          text: str) -> None:
    """Print one answer: `obj` as JSON, `header` and `rows` as CSV, or `text`."""
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        print(text)


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
        _emit(args.format, {"support_modulus": args.support, "support_residues": residues},
              ["residue"], ([str(r)] for r in residues),
              "{" + ",".join(map(str, residues)) + "}")
    else:
        coeffs = [str(c) for c in series]
        _emit(args.format, {"order": series.order, "coefficients": coeffs},
              ["n", "coefficient"], ([str(n), c] for n, c in enumerate(coeffs)),
              " ".join(coeffs))
    return 0


# ---------------------------------------------------------------------------
# count / enumerate
# ---------------------------------------------------------------------------

def _spec_from(args: argparse.Namespace) -> ColoredFamilySpec:
    return ColoredFamilySpec(Family(args.family), args.k)


def cmd_count(args: argparse.Namespace) -> int:
    value = str(count(_spec_from(args), args.n))
    _emit(args.format, {"family": args.family, "k": args.k, "n": args.n, "count": value},
          ["family", "k", "n", "count"], [[args.family, str(args.k), str(args.n), value]],
          value)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    partitions = enumerate_partitions(_spec_from(args), args.n, cap=args.cap)
    lines = [str(p) for p in partitions]
    _emit(args.format,
          {"family": args.family, "k": args.k, "n": args.n, "count": len(partitions),
           "partitions": [[[w, c] for w, c in p.parts] for p in partitions]},
          ["index", "partition"], ([str(i), line] for i, line in enumerate(lines)),
          "\n".join(lines))
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


def _emit_reports(reports: list[ClaimReport], fmt: str, paper_only: bool = False) -> int:
    """Print the reports; exit 1 if one fails (with `paper_only`, one
    that is not a candidate), else 0."""
    _emit(fmt, [r.to_json_obj() for r in reports], CSV_COLUMNS,
          (r.csv_row() for r in reports), "\n".join(map(_claim_line, reports)))
    return int(any(not r.holds for r in reports
                   if not (paper_only and r.claim.source is ClaimSource.CANDIDATE)))


def cmd_verify_claim(args: argparse.Namespace) -> int:
    claim = CongruenceClaim(_spec_from(args), args.mod, args.residue)
    return _emit_reports([verify_claim(claim, args.upto)], args.format)


def cmd_verify_theorem14(args: argparse.Namespace) -> int:
    return _emit_reports(verify_mod7_family(args.upto), args.format)


def cmd_verify_corollary(args: argparse.Namespace) -> int:
    return _emit_reports(verify_mod7_lifts(args.jmax, args.upto), args.format)


def cmd_verify_dissection(args: argparse.Namespace) -> int:
    report = verify_dissection_identity(args.upto)
    upto, mismatch = report.checked_up_to, report.first_mismatch
    _emit(args.format,
          {"checked_up_to": upto, "equal": report.equal, "first_mismatch": mismatch},
          ["checked_upto", "equal", "first_mismatch"],
          [[str(upto), _flag(report.equal), "" if mismatch is None else str(mismatch)]],
          f"7-dissection identity: exact match through order {upto}" if report.equal
          else f"7-dissection identity: MISMATCH at n={mismatch}")
    return 0 if report.equal else 1


def cmd_verify_frobenius(args: argparse.Namespace) -> int:
    a, b, p, order = args.a, args.b, args.p, args.order
    holds = verify_frobenius(a, b, p, order)
    rhs = f"f{a * p}" + (f"^{b}" if b != 1 else "")
    verdict = "holds through" if holds else "FAILS within"
    _emit(args.format, {"a": a, "b": b, "p": p, "order": order, "holds": holds},
          ["a", "b", "p", "order", "holds"],
          [[str(a), str(b), str(p), str(order), _flag(holds)]],
          f"f{a}^{b * p} == {rhs} (mod {p}): {verdict} order {order}")
    return 0 if holds else 1


def cmd_verify_proof(args: argparse.Namespace) -> int:
    trace = replay_proof(args.k, args.order)
    steps = trace.steps
    lines = [f"proof replay for a_{trace.k}(7n+{trace.residue}) == 0 (mod 7): "
             + ("VERIFIED" if trace.verified else "FAILED")]
    lines += [f"  [{'ok' if s.verified else 'FAIL'}] {s.name}: {s.detail}" for s in steps]
    _emit(args.format,
          {"k": trace.k, "residue": trace.residue, "scale": trace.scale,
           "target": trace.target,
           "component_supports": [sorted(s) for s in trace.component_supports],
           "sumset": sorted(trace.sumset), "verified": trace.verified,
           "steps": [{"name": s.name, "verified": s.verified, "detail": s.detail}
                     for s in steps]},
          ["step", "verified", "detail"],
          ([s.name, _flag(s.verified), s.detail] for s in steps),
          "\n".join(lines))
    return 0 if trace.verified else 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args: argparse.Namespace) -> int:
    if args.kmax < 1:
        raise ValueError("--kmax must be >= 1")
    reports = scan(range(1, args.kmax + 1), args.mod, args.upto,
                   family=Family(args.family), modular=args.modular)
    return _emit_reports(reports, args.format, paper_only=True)


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call, then shared."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one qpart request and return its exit code.

    The parser is built on the first call in a process and reused after
    that; parsing keeps no state between calls, so `main` may be called
    any number of times in one process.  Usage errors and --help raise
    SystemExit, as argparse does.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every refusal type of the package subclasses it
        print(f"qpart: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
