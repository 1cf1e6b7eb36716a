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

In the modular lane residues are small, and a product from
coefficient 0 on is one multiplication of two Python ints instead
(Kronecker substitution; Harvey, Faster polynomial multiplication via
multipoint Kronecker substitution, J. Symbolic Comput. 2009): each
operand is packed as one little-endian int with w-byte slots, w the
byte length of the slot bound min(nnz a, nnz b) * (m-1)^2, which no
coefficient of the product exceeds, and the low n slots of the
product are unpacked and reduced.  CPython multiplies ints of that
size by Karatsuba in C.  This runs while the bound is below 2^64, so
that a slot fits an array('Q') word: for dense operands at n = 2107,
for every m up to about 2^26.  A division by b through a supplied
inverse 1/b is such a product too.
"""

import sys
from array import array
from itertools import compress, islice
from operator import add, itemgetter, mul as times, neg, sub

# A product through fewer coefficients than this runs the slice loop
# even where it packs (see mul).
_PACK_FROM = 32
_SWAP = sys.byteorder != "little"  # array('Q') words are native-endian


def mul(a, b, n, m=None, start=0):
    """Product of a and b, truncated to length n, for a nonempty a;
    only the coefficients from `start` on are computed, and those below
    it are left 0.

    One shifted slice add (or subtract) of b per coefficient +1 (or -1)
    of a; other coefficients add a scaled copy of b.  A product whose
    first coefficients are already known thus costs only its new ones.

    With m set, start 0 and a slot bound min(nnz a, nnz b) * (m-1)^2
    below 2^64, nnz counting the nonzero entries below n, the product
    is instead one packed big-int product (_mul_packed), from
    n = _PACK_FROM = 32 on.  Measured with Python 3.11.7 on a 2-core
    x86-64 host, best of 7, multiplying a residue series mod 7 or 13 by
    f1 or f2: the slice loop takes 1.3-1.4 us at n = 1 against 4.8-5.1
    us packed, and 8.4-9.1 us against 9.1-10.1 us by f1 at n = 20; the
    two meet at n = 25 by f1 and n = 40 by f2, the sparser one.  At
    n = 2107 by f1 mod 7 the loop takes 5.0 ms and the packed product
    0.8 ms.
    """
    packed = None if start else _mul_packed(a, b, n, m)
    if packed is not None:
        return packed
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


def div(a, b, n, m=None, known=(), inverse=None):
    """Quotient a / b, truncated to length n, for b[0] = +1 or -1, whose
    first len(known) coefficients are `known`.

    `inverse`, if given, holds 1/b mod m through order n.  With no known
    prefix, the quotient is then a * inverse, where that product packs
    as in mul (m set, n >= _PACK_FROM, slot bound below 2^64); anywhere
    else the inverse is not read and the recurrence below runs.  At
    n = 2107 mod 7, dividing a residue series by f2 takes 0.8 ms so,
    against 2.2 ms by the recurrence.

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
    packed = None if known or inverse is None else _mul_packed(a, inverse, n, m)
    if packed is not None:
        return packed
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


def _slot_bytes(terms, n, m):
    """Bytes per slot of a packed product mod m through n whose
    coefficients add at most `terms` products of residues: the byte
    length of the slot bound terms * (m-1)^2.  0 where the product does
    not pack: m unset, n below _PACK_FROM, no terms, or the bound at
    2^64 or past it."""
    if m is None or n < _PACK_FROM or not terms:
        return 0
    bound = terms * (m - 1) ** 2
    return (bound.bit_length() + 7) // 8 if bound < 1 << 64 else 0


def _pack(x, m, w):
    """x, reduced into 0..m-1 where its min or max is out of that range,
    as one little-endian int with w-byte slots."""
    if min(x) < 0 or max(x) >= m:
        x = [v % m for v in x]
    words = array("Q", x)
    if _SWAP:
        words.byteswap()
    raw = words.tobytes()
    slots = bytearray(len(x) * w)
    for j in range(w):
        slots[j::w] = raw[j::8]
    return int.from_bytes(slots, "little")


def _mul_packed(a, b, n, m):
    """mul(a, b, n, m) as one product of the packed operands through n,
    or None where it does not pack (see _slot_bytes).  The low n slots
    of the product are unpacked into array('Q') words by w strided byte
    copies and reduced.  No slot overflows: coefficient t < n of the
    product adds at most min(nnz a, nnz b) products of residues, nnz
    counting the nonzero entries below n, so the slots hold the
    coefficients exactly."""
    if m is None or n < _PACK_FROM:
        return None
    a, b = a[:n], b[:n]
    w = _slot_bytes(min(len(a) - a.count(0), len(b) - b.count(0)), n, m)
    if not w:
        return None
    product = _pack(a, m, w) * _pack(b, m, w)
    raw = product.to_bytes(max(n, len(a) + len(b)) * w, "little")
    slots = bytearray(8 * n)
    for j in range(w):
        slots[j::8] = raw[j:n * w:w]
    words = array("Q")
    words.frombytes(slots)
    if _SWAP:
        words.byteswap()
    return [x % m for x in words]


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
