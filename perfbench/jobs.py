"""Seeded, stratified job lists for the three workloads.

The seed picks which jobs run, never how much work there is: every
workload has a fixed number of jobs per stratum (a kind of job at a
fixed color count and order bucket), and the seed only chooses among
inputs of about equal cost inside a stratum: a residue, which job gets
which value of a fixed grid of orders or sizes, the coefficients of an
eta-quotient whose factors the job index fixes, or, where it does not
change the work, the modulus.

A job is a plain dict that survives JSON.  `coeffs` is the number of
series coefficients the job expands, counted from its inputs; the
benchmark divides it by the run time to get `checked_per_s`.
"""

from __future__ import annotations

import random

from reference import MOD7_ROWS, RAMANUJAN

WORKLOADS = ("verify-exact", "scan-modular", "cli-mixed")

# The paper's order: upto 300 in residue classes mod 7 is about q^2100.
PAPER_ORDER = 2100
MODULI = (5, 7, 11, 13)


def _upto(m: int) -> int:
    """Checked range that keeps a claim mod m near the paper's order."""
    return PAPER_ORDER // m


def _claim(family, k, m, r, upto, source="candidate", modular=False, stratum=""):
    return {"kind": "claim", "stratum": stratum, "family": family, "k": k,
            "m": m, "r": r, "upto": upto, "source": source, "modular": modular,
            "coeffs": m * upto + r + 1}


def _scan(family, ks, m, modular, stratum):
    upto = _upto(m) - 1
    return {"kind": "scan", "stratum": stratum, "family": family, "ks": ks,
            "m": m, "upto": upto, "modular": modular,
            "coeffs": len(ks) * (m * upto + m)}


def _seeded_claims(rng, strata, modular):
    """One claim per (family, k, modulus) stratum; the seed picks the residue.

    The family and the modulus are strata rather than seeded choices
    because they change the cost: family a is f2^(k-1)/f1^k and family b
    1/(f1*f2^(k-1)), which need different powers, and in the modular lane
    the share of coefficients that vanish mod m depends on m.
    """
    return [_claim(family, k, m, rng.randrange(m), _upto(m), modular=modular,
                   stratum=f"claim-{family}{k}" + (f"-m{m}" if modular else ""))
            for family, k, m in strata]


def verify_exact(rng: random.Random) -> list[dict]:
    jobs = [_claim("a", k, 7, r, 300, "theorem", stratum="theorem-row")
            for k, r in MOD7_ROWS.items()]
    jobs += [_claim("a", 7 + k, 7, r, 100, "corollary", stratum="lift-j1")
             for k, r in MOD7_ROWS.items()]
    jobs.append({"kind": "dissection", "stratum": "dissection", "upto": 100,
                 "coeffs": 7 * 100 + 3 + 100})
    jobs += [{"kind": "proof", "stratum": "proof", "k": k, "order": 300,
              "coeffs": 3 * 300} for k in MOD7_ROWS]
    jobs += [_claim("a", 1, m, r, 300, "theorem", stratum="ramanujan")
             for m, r in RAMANUJAN.items()]
    # In the exact lane the modulus does not change the work (the order
    # stays near PAPER_ORDER), so the seed may pick it.
    jobs.append(_scan("a", [1, 2], rng.choice(MODULI), False, "scan-a1-2"))
    # Four claims of family a cost about as much as the scan, so the
    # per-round tail (the sixth slowest job) falls inside that group; six
    # of family b do the same for the median job.
    jobs += _seeded_claims(rng, [(f, 2, rng.choice(MODULI)) for f in "aaaabbbbbb"], False)
    # Planted false claims: a_3 vanishes mod 7 only on the class 2.
    for r in rng.sample([r for r in range(7) if r != MOD7_ROWS[3]], 2):
        jobs.append(_claim("a", 3, 7, r, 100, stratum="planted-false-a3"))
    return jobs


def scan_modular(rng: random.Random) -> list[dict]:
    jobs = [_scan(family, ks, m, True, f"scan-{family}{ks[0]}-{ks[-1]}-m{m}")
            for family, ks, m in (("a", [1, 2], 5), ("a", [3, 4], 7),
                                  ("b", [1, 2], 11), ("b", [3, 4], 13))]
    strata = [(f, 2, m) for f in "ab" for m in MODULI] + [("b", 3, m) for m in MODULI]
    return jobs + _seeded_claims(rng, strata, True)


# -- cli-mixed -----------------------------------------------------------------

_FORMATS = ("text", "json", "csv")

# (count, low order, high order) per order bucket of `expand` requests;
# buckets are narrow because the cost grows with the square of the order.
_EXPAND_BUCKETS = ((30, 20, 40), (30, 41, 80), (40, 81, 160), (30, 161, 300), (30, 301, 400))

# Requests that must be refused with exit code 2, cheaply.
_MALFORMED = (
    ["expand", "f0^2"],
    ["expand", "f2^^3"],
    ["expand", "(f1*f2"],
    ["expand", "f1/(f1+f2)"],
    ["expand", "f1 @ f2"],
    ["expand", "f1", "--order", "0"],
    ["expand", "--order", "x", "f1"],
    ["count", "a", "3", "-1"],
    ["count", "c", "1", "1"],
    ["enumerate", "a", "2", "50"],
    ["verify", "proof", "--k", "2"],
    ["verify", "claim", "--k", "3", "--mod", "7", "--residue", "9"],
    ["verify", "frobenius", "--a", "1", "--b", "1", "--p", "4"],
    ["scan", "--kmax", "2", "--upto", "10"],
    ["frobnicate"],
)


def _grid(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` values spread evenly over lo..hi, in an order the seed picks:
    the seed decides which job gets which value, never their sum."""
    values = [lo + round((hi - lo) * i / max(count - 1, 1)) for i in range(count)]
    rng.shuffle(values)
    return values


# Scale sets of 1, 2 and 3 factors fk, k = 1..4.
_SCALES = [[[1], [2], [3], [4]],
           [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
           [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]]


def _eta_term(rng: random.Random, shape: int) -> list:
    """A term with 1 + shape % 3 factors.  The job index fixes the shape:
    the scales and the exponents, which set the cost; the seed picks the
    coefficient and the power of q in front."""
    sets = _SCALES[shape % 3]
    scales = sets[shape // 3 % len(sets)]
    factors = [[k, (-1) ** (shape // 3 + j) * (1 + (shape + j) % 4)]
               for j, k in enumerate(scales)]
    return [rng.randint(1, 3), rng.randint(0, 3), factors]


def _term_text(c: int, s: int, factors: list) -> str:
    parts = [str(c)] + ([f"q^{s}"] if s else []) + [f"f{k}^{e}" for k, e in factors]
    return "*".join(parts)


def _expand(rng: random.Random, i: int, order: int, mode: str) -> dict:
    fmt = _FORMATS[i % 3]
    terms = [_eta_term(rng, i + t) for t in range(1 + (i % 4 == 3))]
    if len(terms) == 2 and rng.random() < 0.5:
        terms[1][0] = -terms[1][0]
    text = _term_text(*terms[0])
    for c, s, factors in terms[1:]:
        text += (" - " if c < 0 else " + ") + _term_text(abs(c), s, factors)
    argv = ["expand", text, "--order", str(order), "--format", fmt]
    job = {"kind": "cli", "stratum": "", "op": "expand", "terms": terms,
           "order": order, "mod": None, "support": None, "format": fmt,
           "coeffs": order}
    if mode != "plain":
        job[mode] = rng.randint(2, 13)
        argv += [f"--{mode}", str(job[mode])]
    job["argv"] = argv
    return job


def _cli(op: str, argv: list, fmt: str, coeffs: int, **fields) -> dict:
    return dict(kind="cli", stratum="", op=op, argv=argv + ["--format", fmt],
                format=fmt, coeffs=coeffs, **fields)


def cli_mixed(rng: random.Random) -> list[dict]:
    jobs = []

    def add(stratum, job):
        job["stratum"] = stratum
        jobs.append(job)

    for count, lo, hi in _EXPAND_BUCKETS:
        for i, order in enumerate(_grid(rng, count, lo, hi)):
            mode = ("plain", "plain", "plain", "mod", "support")[i % 5]
            add(f"expand-{lo}-{hi}-{mode}", _expand(rng, i, order, mode))
    for count, k, lo, hi in ((10, 1, 50, 150), (15, 3, 200, 300), (15, 5, 300, 400)):
        for i, n in enumerate(_grid(rng, count, lo, hi)):
            family = "ab"[i % 2]
            add(f"count-k{k}", _cli("count", ["count", family, str(k), str(n)],
                                    _FORMATS[i % 3], n + 1, family=family, k=k, n=n))
    for count, k, lo, hi in ((7, 1, 8, 14), (7, 2, 6, 10), (6, 3, 4, 8)):
        for i, n in enumerate(_grid(rng, count, lo, hi)):
            family = "ab"[i % 2]
            add(f"enumerate-k{k}", _cli("enumerate", ["enumerate", family, str(k), str(n)],
                                        _FORMATS[i % 3], n + 1, family=family, k=k, n=n))
    for count, k in ((15, 2), (15, 3)):
        for i, order in enumerate(_grid(rng, count, 250, 400)):
            family, m = "ab"[i % 2], MODULI[i % 4]
            r, upto = rng.randrange(m), order // m
            argv = ["verify", "claim", "--family", family, "--k", str(k), "--mod", str(m),
                    "--residue", str(r), "--upto", str(upto)]
            add(f"claim-k{k}", _cli("claim", argv, _FORMATS[i % 3], m * upto + r + 1,
                                    family=family, k=k, m=m, r=r, upto=upto))
    for i, (a, order) in enumerate(zip(_grid(rng, 20, 1, 3), _grid(rng, 20, 100, 200))):
        b, p = 1 + i // 10, (2, 3, 5, 7, 7)[i % 5]
        argv = ["verify", "frobenius", "--a", str(a), "--b", str(b), "--p", str(p),
                "--order", str(order)]
        add("frobenius", _cli("frobenius", argv, _FORMATS[i % 3], 2 * order))
    for i, order in enumerate(_grid(rng, 10, 200, 300)):
        k = list(MOD7_ROWS)[i % 5]
        add("proof", _cli("proof", ["verify", "proof", "--k", str(k), "--order", str(order)],
                          _FORMATS[i % 3], 3 * order, k=k))
    for _ in range(20):
        add("malformed", {"kind": "cli", "op": "malformed", "coeffs": 0,
                          "argv": list(rng.choice(_MALFORMED))})
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {"verify-exact": verify_exact, "scan-modular": scan_modular,
               "cli-mixed": cli_mixed}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of a workload for a seed; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
