"""Pure-Python coefficient kernels.

The two kernels behind every truncated product and quotient in the
package: `TruncatedSeries` `*`, `inverse` and `**`, and the passes by
which `qpart.etaq.eval_eta` multiplies or divides by fk.  Both work
over the nonzero coefficients of one operand, so a sparse operand such
as fk costs about n * nnz(fk) additions and no multiplications.
Coefficient sequences are sequences of Python ints; with `m` set the
result is reduced into 0..m-1, otherwise all arithmetic is exact.
"""

from itertools import compress, islice
from operator import add, sub


def mul(a, b, n, m=None):
    """Product of a and b, truncated to length n, for a nonempty a.

    One shifted slice add (or subtract) of b per coefficient +1 (or -1)
    of a; other coefficients add a scaled copy of b.
    """
    out = [0] * n
    lb = len(b)
    start = 0
    if a[0] == 1:  # the term a[0] * b is a copy of b
        out[:lb] = b[:n]
        start = 1
    for i in compress(range(start, n), islice(a, start, n)):
        ai = a[i]
        j = i + lb
        if ai == 1:
            out[i:j] = map(add, out[i:j], b)
        elif ai == -1:
            out[i:j] = map(sub, out[i:j], b)
        else:
            out[i:j] = map(add, out[i:j], [ai * x for x in b[: n - i]])
    return out if m is None else [x % m for x in out]


def div(a, b, n, m=None):
    """Quotient a / b, truncated to length n, for b[0] = +1 or -1.

    Runs c[t] = (a[t] - sum_{j>=1} b[j] * c[t-j]) / b[0] over the
    nonzero b[j] only.  Writing a / b as (b[0]*a) / (b[0]*b) makes the
    constant term 1; the +1 and -1 coefficients of b[0]*b then cost one
    addition each and no multiplication.  Between consecutive nonzero
    exponents of b the set of terms is fixed, so each stretch of t runs
    over a fixed list with no bounds test.  With m set each c[t] is
    reduced as soon as it is known.
    """
    b0 = b[0]
    if b0 not in (1, -1):
        raise ValueError(f"cannot divide by a series with constant term {b0}")
    out = list(a[:n]) if b0 == 1 else [-x for x in a[:n]]
    out += [0] * (n - len(out))
    plus, minus, scaled = [], [], []
    lo = 0
    for hi in [*compress(range(1, n), islice(b, 1, n)), n]:
        for t in range(lo, hi):
            x = out[t]
            for j in plus:
                x -= out[t - j]
            for j in minus:
                x += out[t - j]
            for j, bj in scaled:
                x -= bj * out[t - j]
            out[t] = x if m is None else x % m
        if hi < n:
            bj = b0 * b[hi]
            if bj == 1:
                plus.append(hi)
            elif bj == -1:
                minus.append(hi)
            else:
                scaled.append((hi, bj))
        lo = hi
    return out
