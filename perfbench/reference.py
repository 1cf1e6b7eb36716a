"""Expected answers computed without any qpart code.

Three independent sources, chosen so the gate never shares code with
the path it checks:

* the paper's table: the five mod-7 rows, their lifts to 7j+k colors,
  the classical partition congruences, the exact dissection identity,
  the five proof replays and the Frobenius congruence all hold;
* a DP over colored partitions (one unbounded-knapsack pass per color
  of each part weight), in machine words reduced mod m where a residue
  is all a verdict needs, and over exact integers for counterexample
  values and partition counts;
* a dense product for eta-quotients, built from the partial-product
  definition fk = (1 - q^k)(1 - q^2k)... one binomial factor at a time.

Knapsack passes run as strided prefix sums in NumPy, so a table at the
paper's order (about 2100 coefficients) costs well under a second.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# (colors, residue) of the paper's five mod-7 rows of family a.
MOD7_ROWS = {1: 5, 3: 2, 4: 4, 5: 6, 7: 3}
# (modulus, residue) of Ramanujan's congruences for p(n) = a_1(n).
RAMANUJAN = {5: 4, 7: 5, 11: 6}
PROOF_STEPS = ["frobenius-rewrite", "theta-substitution", "residue-exclusion"]


def colors(family: str, k: int, weight: int) -> int:
    """Colors a part of this weight may take: family a colors odd parts."""
    return k if (weight % 2 == 1) == (family == "a") else 1


def scan_source(family: str, k: int, m: int, r: int) -> str:
    """Label the paper's table gives a scan row."""
    if family == "a" and m == 7:
        base = k % 7 or 7
        if MOD7_ROWS.get(base) == r:
            return "theorem" if k == base else "corollary"
    return "candidate"


def _divide_binomial(acc: np.ndarray, step: int) -> np.ndarray:
    """acc / (1 - q^step): a prefix sum along each residue class mod step."""
    order = len(acc)
    rows = -(-order // step)
    buf = np.zeros(rows * step, dtype=acc.dtype)
    buf[:order] = acc
    return buf.reshape(rows, step).cumsum(axis=0).reshape(-1)[:order]


@lru_cache(maxsize=None)
def family_table(family: str, k: int, order: int, m: int | None = None) -> tuple[int, ...]:
    """Colored-partition counts a(0..order-1), exact or reduced mod m."""
    dtype = object if m is None else np.int64
    dp = np.zeros(order, dtype=dtype)
    dp[0] = 1
    for w in range(1, order):
        for _ in range(colors(family, k, w)):
            dp = _divide_binomial(dp, w)
            if m is not None:
                dp %= m
    return tuple(int(x) for x in dp)


def eta_dense(terms: list, order: int) -> list[int]:
    """Exact expansion of sum c * q^s * prod fk^e through the given order.

    `terms` holds [c, s, [[k, e], ...]] triples, as the job generator
    writes them.
    """
    total = [0] * order
    for c, s, factors in terms:
        acc = np.zeros(order, dtype=object)
        acc[0] = 1
        for k, e in factors:
            for step in range(k, order, k):
                for _ in range(abs(e)):
                    if e > 0:
                        acc[step:] = acc[step:] - acc[:-step]
                    else:
                        acc = _divide_binomial(acc, step)
        for i in range(order - s):
            total[i + s] += c * int(acc[i])
    return total


def _verdict(family: str, k: int, m: int, r: int, upto: int, modular: bool,
             residues: tuple[int, ...]) -> dict:
    """First n < upto with a(m*n + r) != 0 (mod m), from a table mod m;
    its value is the residue in the modular lane and exact otherwise."""
    n = next((n for n, v in enumerate(residues[r::m][:upto]) if v), None)
    if n is None:
        return {"holds": True, "n": None, "value": None}
    index = m * n + r
    value = residues[index] if modular else family_table(family, k, index + 1)[index]
    return {"holds": False, "n": n, "value": str(value)}


def claim_answer(family: str, k: int, m: int, r: int, upto: int,
                 modular: bool, source: str) -> dict:
    """Expected report of verify_claim: the table for paper rows, the DP otherwise."""
    if source != "candidate":
        return {"holds": True, "n": None, "value": None}
    residues = family_table(family, k, m * upto + r + 1, m)
    return _verdict(family, k, m, r, upto, modular, residues)


def scan_answer(family: str, ks: list[int], m: int, upto: int, modular: bool) -> list:
    """Expected rows of scan(ks, m, upto): [k, r, source, holds, n, value]."""
    rows = []
    for k in ks:
        for r in range(m):
            source = scan_source(family, k, m, r)
            if source == "candidate":
                residues = family_table(family, k, m * upto + m, m)
                verdict = _verdict(family, k, m, r, upto, modular, residues)
            else:
                verdict = {"holds": True, "n": None, "value": None}
            rows.append([k, r, source, *verdict.values()])
    return rows
