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


def mul(a, b, n, m=None, start=0):
    """Product of a and b, truncated to length n, for a nonempty a;
    only the coefficients from `start` on are computed, and those below
    it are left 0.

    One shifted slice add (or subtract) of b per coefficient +1 (or -1)
    of a; other coefficients add a scaled copy of b.  A product whose
    first coefficients are already known thus costs only its new ones.
    """
    out = [0] * n
    lb = len(b)
    first = 0
    if a[0] == 1:  # the term a[0] * b is a copy of b
        out[start:lb] = b[start:n]
        first = 1
    for i in compress(range(first, n), islice(a, first, n)):
        j = i + lb
        if j <= start:
            continue
        lo, bs = (i, b) if i >= start else (start, b[start - i:])
        ai = a[i]
        if ai == 1:
            out[lo:j] = map(add, out[lo:j], bs)
        elif ai == -1:
            out[lo:j] = map(sub, out[lo:j], bs)
        else:
            out[lo:j] = map(add, out[lo:j], [ai * x for x in bs[: n - lo]])
    if m is not None:
        out[start:] = [x % m for x in islice(out, start, None)]
    return out


def div(a, b, n, m=None, known=()):
    """Quotient a / b, truncated to length n, for b[0] = +1 or -1, whose
    first len(known) coefficients are `known`.

    Runs c[t] = (a[t] - sum_{j>=1} b[j] * c[t-j]) / b[0] over the
    nonzero b[j] only, for t from len(known) on, so a is read only from
    there and a quotient is continued past a prefix computed before.
    Writing a / b as (b[0]*a) / (b[0]*b) makes the constant term 1; the
    +1 and -1 coefficients of b[0]*b then cost one addition each and no
    multiplication.  Between consecutive nonzero exponents of b the set
    of terms is fixed, so each stretch of t runs over a fixed list with
    no bounds test.  With m set each new c[t] is reduced as soon as it
    is known; a known prefix is taken as it is.
    """
    b0 = b[0]
    if b0 not in (1, -1):
        raise ValueError(f"cannot divide by a series with constant term {b0}")
    out = list(known[:n])
    p = len(out)
    out += a[p:n] if b0 == 1 else [-x for x in a[p:n]]
    out += [0] * (n - len(out))
    plus, minus, scaled = [], [], []
    lo = 0
    for hi in [*compress(range(1, n), islice(b, 1, n)), n]:
        for t in range(lo if lo > p else p, hi):
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
