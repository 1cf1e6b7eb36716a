"""Pure-Python coefficient kernels.

The two kernels behind every truncated product and quotient in the
package: `TruncatedSeries` `*`, `inverse` and `**`, and the passes by
which `qpart.etaq.eval_eta` and the family sweep multiply or divide by
fk or psi.  Both work over the nonzero coefficients of one operand, so
a sparse operand such as fk costs about n * nnz(fk) additions and no
multiplications.  `mul` adds one shifted slice per nonzero coefficient;
`div`, whose coefficient t depends on those before it, spends one
C-level sum per coefficient over an itemgetter of the terms, and keeps
a Python loop over the terms for divisors with few of them.
Coefficient sequences are sequences of Python ints; with `m` set the
result is reduced into 0..m-1, otherwise all arithmetic is exact.
"""

from itertools import compress, islice
from operator import add, itemgetter, mul as times, neg, sub


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


# A divisor with fewer nonzero terms than this below the order is run
# by _div_few, and one with more by the interleaved loop of div.
_FEW_TERMS = 20


def div(a, b, n, m=None, known=()):
    """Quotient a / b, truncated to length n, for b[0] = +1 or -1, whose
    first len(known) coefficients are `known`.

    Runs c[t] = (a[t] - sum_{j>=1} b[j] * c[t-j]) / b[0] over the
    nonzero b[j] only, for t from len(known) on, so a is read only from
    there and a quotient is continued past a prefix computed before.
    Writing a / b as (b[0]*a) / (b[0]*b) makes the constant term 1.
    The output grows by append and holds c and -c interleaved, c[0],
    -c[0], c[1], ..., so while c[t] is computed every term of b[0]*b
    reaches back by a fixed negative index: -2j to c[t-j], 1-2j to
    -c[t-j].  Between consecutive nonzero exponents of b the set of
    terms is fixed, and one operator.itemgetter over their indices
    serves that whole stretch of t: each c[t] is one C-level
    sum(get(out)) over the +1 and -1 terms, no multiplication, plus
    sum(map(mul, weights, get(out))) over any other terms, plus % m
    with m set.  A known prefix is taken as it is, and placed, with its
    negation, by two slice assignments.

    A divisor with fewer than _FEW_TERMS = 20 nonzero terms below n
    runs _div_few instead, a Python loop over the terms per t: there
    the itemgetter call, the sum and the second append cost more than
    the loop they replace.  Measured with Python 3.11.7 on a 2-core
    x86-64 host, best of 15, dividing 1/f1 and 1/f1^3 by fk at orders
    60 to 2107: with 8 to 19 terms the interleaved loop took 0.64-1.19x
    the time of _div_few, over 1 at orders up to 100 and with large
    coefficients; with 20 to 42 terms it took 0.46-1.03x, and in the
    modular lane 0.46-0.86x.
    """
    b0 = b[0]
    if b0 not in (1, -1):
        raise ValueError(f"cannot divide by a series with constant term {b0}")
    exponents = [*compress(range(1, n), islice(b, 1, n))]
    if len(exponents) < _FEW_TERMS:
        return _div_few(a, b, n, m, known, exponents)
    p = min(len(known), n)
    out = [0] * (2 * p)
    out[::2] = known[:p]
    out[1::2] = map(neg, out[::2])
    ax = list(islice(a, p, n)) if b0 == 1 else [-x for x in islice(a, p, n)]
    ax += [0] * (n - p - len(ax))
    put = out.append
    unit, scaled, weights = [], [], []  # indices of the +-1 terms; of the others
    lo = 0
    for hi in [*exponents, n]:
        if hi > p:
            xs = ax[max(lo - p, 0):hi - p]
            get = _getter(unit)
            if scaled:
                scaled_get = _getter(scaled)
                for x in xs:
                    x = sum(get(out), x) + sum(map(times, weights, scaled_get(out)))
                    if m is not None:
                        x %= m
                    put(x)
                    put(-x)
            elif m is None:
                for x in xs:
                    x = sum(get(out), x)
                    put(x)
                    put(-x)
            else:
                for x in xs:
                    x = sum(get(out), x) % m
                    put(x)
                    put(-x)
        if hi < n:
            bj = b0 * b[hi]
            if bj == 1:
                unit.append(1 - 2 * hi)
            elif bj == -1:
                unit.append(-2 * hi)
            else:
                scaled.append(-2 * hi)
                weights.append(-bj)
        lo = hi
    return out[::2]


def _getter(indices):
    """operator.itemgetter over the indices, returning a tuple also for
    fewer than two of them."""
    if len(indices) > 1:
        return itemgetter(*indices)
    indices = tuple(indices)
    return lambda seq: tuple(seq[i] for i in indices)


def _div_few(a, b, n, m, known, exponents):
    """div for a divisor whose nonzero terms below n, at the given
    exponents, are few: per t a Python loop over the terms, +1 and -1
    terms costing one addition each."""
    b0 = b[0]
    out = list(known[:n])
    p = len(out)
    out += a[p:n] if b0 == 1 else [-x for x in a[p:n]]
    out += [0] * (n - len(out))
    plus, minus, scaled = [], [], []
    lo = 0
    for hi in [*exponents, n]:
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
