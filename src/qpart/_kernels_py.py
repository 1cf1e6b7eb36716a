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
coefficient 0 on packs each residue series into one little-endian
Python int with w-byte slots, so that big-int arithmetic in C does the
coefficient work (Kronecker substitution; Harvey, Faster polynomial
multiplication via multipoint Kronecker substitution, J. Symbolic
Comput. 2009).  The slots must hold every coefficient of the product
exactly and fit an array('Q') word, so a product packs only while its
slot bound is below 2^64; the low n slots are then unpacked and
reduced.  Three paths use this:

* A product by a sparse operand, with nnz^2 <= _SPARSE * n = 10 * n
  (every fk and psi), is a sum of shifted copies of the packed dense
  one, one big-int add per nonzero coefficient; negative coefficients
  are kept from borrowing across slots by an offset in every slot, a
  multiple of m.  Slot bound sum |a_i| * (m-1) + offset: 2 bytes at
  n = 2107 for m <= 13, and it packs there up to m of about 2^57.  Any
  other product is one Karatsuba product of the two packed operands,
  slot bound min(nnz a, nnz b) * (m-1)^2: for dense operands at
  n = 2107 up to m of about 2^26.  At n = 2107 mod 7 a product by f1,
  f2 or psi takes 0.36-0.40 ms by shifted adds, 0.67-0.70 ms by
  Karatsuba and 2.6-4.3 ms by the slice loop.
* A division by b = c(q^s), given 1/c, is one Karatsuba product per
  class r mod s, c[r::s] = a[r::s] * (1/c), the inverse packed once:
  the family sweep divides by f2 = f1(q^2) through 1/f1, two products
  of length 1054 at n = 2107, in 0.56 ms, against 0.75 ms as one
  product by 1/f2 and 1.9 ms by the recurrence.
* inverse_by_halving builds 1/f1 from Gauss's psi = f2^2/f1 as
  psi * (1/f1)(q^2)^2, one packed square and one product by psi per
  halving, and checks it by one product by f1: for the four moduli of
  the benchmark at orders near 2100 in 7.2 ms, against 10.6 ms by the
  recurrence, and at n = 20000 mod 7 in 30 ms against 71 ms.

In the exact lane coefficients are big, and the family sweep's steps
with no kept prefix run on packed pairs instead, from n = _PAIR_FROM on:
each step's coefficients are nonnegative, and partitions._count_bits
proves a bound w on their bit length, so c[2u] + c[2u+1] * 2^w is one
Python int from which one mask and one shift recover both, and one
big-int addition moves two coefficients.  No carry or borrow between
the halves is lost, because the pairs are exact integers and only the
final ones are decoded.  A product (_mul_pairs) adds, per nonzero a_i,
one shifted slice of the windows b[s-1] + b[s] * 2^w, built once; a
quotient by b = c(q^2) (_div_pairs) divides the pairs of a by c, since
even and odd coefficients never mix.  At n = 2107 a product by psi
takes 0.64x the time of the slice loop, a division by f2 0.65-0.69x
that of the interleaved loop, a step of family a (x psi / f2) 0.66x;
0.70x at n = 707, 0.76x at 300, and the two meet near n = 96 (best of
41 below n = 2107).

Measured with Python 3.11.7 on a 2-core x86-64 host, best of 15.
"""

import sys
from array import array
from itertools import compress, islice, repeat
from operator import add, and_, itemgetter, lshift, mul as times, neg, rshift, sub

# A product through fewer coefficients than this runs the slice loop
# even where it packs (see mul).
_PACK_FROM = 32
_SWAP = sys.byteorder != "little"  # array('Q') words are native-endian


def mul(a, b, n, m=None, start=0, bits=None):
    """Product of a and b, truncated to length n, for a nonempty a;
    only the coefficients from `start` on are computed, and those below
    it are left 0.

    One shifted slice add (or subtract) of b per coefficient +1 (or -1)
    of a; other coefficients add a scaled copy of b.  A product whose
    first coefficients are already known thus costs only its new ones.

    With m set and start 0 the product is instead packed
    (_mul_packed), from n = _PACK_FROM = 32 on, where it packs: shifted
    adds of the packed b, or of the packed a, where the other operand
    is sparse, nnz^2 <= _SPARSE * n, nnz counting the nonzero entries
    below n; else one Karatsuba product of both.  Measured with Python
    3.11.7 on a 2-core x86-64 host, best of 7, multiplying a residue
    series mod 7 or 13 by f1 or f2: the slice loop takes 1.3-1.4 us at
    n = 1 against 4.8-5.1 us packed, and 8.4-9.1 us against 9.1-10.1 us
    by f1 at n = 20; the two meet at n = 25 by f1 and n = 40 by f2, the
    sparser one.  At n = 2107 by f1 mod 7 the loop takes 4.3 ms, the
    Karatsuba product 0.70 ms and the shifted adds 0.40 ms.  The
    shifted adds cost about nnz * n * w byte operations, Karatsuba
    about (n * w)^1.58: with random +-1 entries they meet at nnz^2
    between 14 * n and 20 * n for n from 64 to 20000, m = 7 and 13
    (best of 7).

    With m unset, start 0 and `bits` set, a w such that every
    coefficient of the product lies in 0 .. 2^w - 1, the product runs
    on packed pairs (_mul_pairs) from n = _PAIR_FROM = 96 on.
    Multiplying members 1 to 6 of family a by psi, best of 41, the
    pairs take 1.19-1.21x the slice loop's time at n = 64, 0.93-1.04x
    at n = 96 and 0.90-0.92x at n = 144; a step of family a, this
    product and the division by f2, meets the loops between n = 80
    (1.02-1.04x) and 96 (0.92-0.99x).
    """
    if not start:
        if m is not None:
            packed = _mul_packed(a, b, n, m)
            if packed is not None:
                return packed
        elif bits is not None and n >= _PAIR_FROM:
            return _mul_pairs(a, b, n, bits)
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
        lo, bs = (i, b) if i >= start else (start, b[start - i:n - i])
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


# A divisor with fewer terms +1 or -1 than this below the order is run
# by _div_few, and one with more by the interleaved loop of div.
_FEW_TERMS = 20


def div(a, b, n, m=None, known=(), inverse=None, scale=1, bits=None):
    """Quotient a / b, truncated to length n, for b[0] = +1 or -1, whose
    first len(known) coefficients are `known`.

    `inverse`, if given, holds 1/b mod m at q -> q^(1/scale) through
    order ceil(n/scale), for b a series in q^scale: 1/b is inverse at
    q -> q^scale, as 1/fk is 1/f1 at q -> q^k.  With no known prefix,
    the quotient's coefficients in each class r mod scale are then one
    Karatsuba product, c[r::scale] = a[r::scale] * inverse, of the
    inverse packed once (_div_packed), where those products pack (m
    set, the inverse at least ceil(n/scale) long, each product at least
    _PACK_FROM long, slot bound below 2^64); anywhere else the inverse
    is not read and the recurrence below runs.  At n = 2107 mod 7,
    dividing a residue series by f2 through 1/f1 (scale 2) takes
    0.56 ms so, two products of length 1054, against 0.75 ms as one
    product by 1/f2 through 2107 and 1.9 ms by the recurrence.

    With m unset, no known prefix, scale 2 and `bits` set, a w such
    that every coefficient of the quotient lies in 0 .. 2^w - 1, the
    quotient runs on packed pairs (_div_pairs) from n = _PAIR_FROM on:
    the recurrence below, run once through ceil(n/2) on pairs, moves
    two coefficients per big-int addition.  Dividing members of family
    b by f2, it takes 0.65x the interleaved loop's time at n = 2107 and
    0.76x at n = 300 (best of 15 and 41).

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

    A divisor with fewer than _FEW_TERMS = 20 terms +1 or -1 below n
    runs _div_few instead, a Python loop over the terms per t: there
    the itemgetter call, the sum and the second append cost more than
    the loop they replace.  Its other terms do not count: each costs a
    multiplication in either loop, and the C-level sum over the
    weighted terms saves less than the interleaved loop spends, so a
    weighted divisor such as fk^3 runs _div_few at any length.
    Measured with Python 3.11.7 on a 2-core x86-64 host, best of 15,
    dividing 1/f1 and 1/f1^3 by fk at orders 60 to 2107: with 8 to 19
    terms the interleaved loop took 0.64-1.19x
    the time of _div_few, over 1 at orders up to 100 and with large
    coefficients; with 20 to 42 terms it took 0.46-1.03x, and in the
    modular lane 0.46-0.86x.
    """
    b0 = b[0]
    if b0 not in (1, -1):
        raise ValueError(f"cannot divide by a series with constant term {b0}")
    if not known:
        if m is not None:
            packed = None if inverse is None else _div_packed(a, inverse, n, m, scale)
            if packed is not None:
                return packed
        elif bits is not None and scale == 2 and n >= _PAIR_FROM:
            return _div_pairs(a, b, n, bits)
    return _divide(a, b, n, m, known)


def _divide(a, b, n, m, known):
    """div(a, b, n, m, known) by the recurrence: _div_few or the
    interleaved loop."""
    b0 = b[0]
    exponents = [*compress(range(1, n), islice(b, 1, n))]
    if len(exponents) < _FEW_TERMS or _units(b, exponents) < _FEW_TERMS:
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


def _units(b, exponents):
    """The number of terms +1 or -1 of b at the exponents."""
    terms = _getter(exponents)(b)
    return terms.count(1) + terms.count(-1)


def _slot_bytes(terms, n, m):
    """Bytes per slot of a packed product mod m through n whose
    coefficients add at most `terms` products of residues: the byte
    length of the slot bound terms * (m-1)^2.  0 where the product does
    not pack: m unset, n below _PACK_FROM, no terms, or the bound at
    2^64 or past it."""
    if m is None or n < _PACK_FROM or not terms:
        return 0
    return _bound_bytes(terms * (m - 1) ** 2)


def _bound_bytes(bound):
    """The byte length of a positive slot bound below 2^64, else 0."""
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


def _unpack(x, n, w, m):
    """The low n w-byte slots of x, each reduced mod m: unpacked into
    array('Q') words by w strided byte copies."""
    raw = (x & ((1 << 8 * w * n) - 1)).to_bytes(n * w, "little")
    slots = bytearray(8 * n)
    for j in range(w):
        slots[j::8] = raw[j::w]
    words = array("Q")
    words.frombytes(slots)
    if _SWAP:
        words.byteswap()
    return [x % m for x in words]


def _div_packed(a, inverse, n, m, scale):
    """div(a, b, n, m, inverse=inverse, scale=scale) as one packed
    product per class r mod scale, c[r::scale] = a[r::scale] * inverse,
    the inverse packed once; or None where m is unset, the inverse is
    shorter than ceil(n/scale) or the products do not pack (see
    _slot_bytes; the shortest class is held against _PACK_FROM).  No
    slot overflows: a coefficient of class r adds at most
    min(nnz a[r::scale], nnz inverse) products of residues."""
    lengths = [len(range(r, n, scale)) for r in range(scale)]
    if m is None or len(inverse) < lengths[0]:
        return None
    parts = [a[r:n:scale] for r in range(scale)]
    inverse = inverse[:lengths[0]]
    terms = min(len(inverse) - inverse.count(0),
                max(len(part) - part.count(0) for part in parts))
    w = _slot_bytes(terms, lengths[-1], m)
    if not w:
        return None
    x = _pack(inverse, m, w)
    out = [0] * n
    for r, (part, length) in enumerate(zip(parts, lengths)):
        if part:
            out[r::scale] = _unpack(x * _pack(part, m, w), length, w, m)
    return out


# A packed product by an operand with at most sqrt(_SPARSE * n) nonzero
# entries below n runs as shifted adds (_mul_shifted), not Karatsuba.
_SPARSE = 10


def _mul_packed(a, b, n, m):
    """mul(a, b, n, m) through one packed operand, or None where it does
    not pack.  Where the sparser operand has nnz nonzero entries below
    n with nnz^2 <= _SPARSE * n, the product is a sum of shifted copies
    of the other (_mul_shifted); otherwise it is one product of the
    two packed operands (see _slot_bytes), a square where a is b, of
    which the low n slots are unpacked and reduced.  No slot
    overflows: coefficient t < n of the product adds at most
    min(nnz a, nnz b) products of residues, so the slots hold the
    coefficients exactly."""
    if m is None or n < _PACK_FROM:
        return None
    square = a is b
    a, b = a[:n], b[:n]
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    if nb < na:
        a, b, na = b, a, nb
    if na * na <= _SPARSE * n:
        return _mul_shifted(a, b, n, m)
    w = _slot_bytes(na, n, m)
    if not w:
        return None
    x = _pack(a, m, w)
    return _unpack(x * (x if square else _pack(b, m, w)), n, w, m)


def _mul_shifted(a, b, n, m):
    """mul(a, b, n, m) for a sparse a as sum_i a_i * (B << 8w*i), B the
    dense b packed in w-byte slots, or None where the slots would need
    more than 8 bytes.  Each a_i is taken as its residue of least
    absolute value, and a slot of the sum may then go negative by up to
    neg * (m-1), neg the sum of |a_i| over the negative ones; an offset
    in every slot, that bound rounded up to a multiple of m, keeps each
    slot in 0 .. sum |a_i| * (m-1) + offset, the slot bound, and
    vanishes mod m.  Slots from n on are masked off."""
    terms, pos, neg = [], 0, 0
    for i in compress(range(len(a)), a):
        c = a[i] % m
        if 2 * c > m:
            c -= m
        if c > 0:
            pos += c
        elif c < 0:
            neg -= c
        else:
            continue
        terms.append((i, c))
    if not terms:  # every a_i vanishes mod m
        return [0] * n
    offset = -(-neg * (m - 1) // m) * m
    w = _bound_bytes((pos + neg) * (m - 1) + offset)
    if not w:
        return None
    x = _pack(b, m, w)
    total = int.from_bytes(offset.to_bytes(w, "little") * n, "little")
    shift = 8 * w
    for i, c in terms:
        if c == 1:
            total += x << shift * i
        elif c == -1:
            total -= x << shift * i
        else:
            total += c * x << shift * i
    return _unpack(total, n, w, m)


# Below this order 1/b is the recurrence, past it a halving step
# (see inverse_by_halving).
_HALVING_BASE = 64


def inverse_by_halving(b, r, n, m):
    """1/b mod m through n, for b[0] = +1 or -1 and r = b(q^2)^2 / b(q)
    mod m through n, such as Gauss's psi = f2^2/f1 for b = f1.

    1/b(q) = r(q) * (1/b)(q^2)^2, so 1/b through n is r times the
    square of 1/b through ceil(n/2), spread to the even exponents: one
    packed square and one product by r, which packs as shifted adds
    where r is sparse.  The halving recurses down to _HALVING_BASE,
    where div runs, and its result is checked by one product,
    b * (1/b) = 1, which raises RuntimeError on a mismatch, as a wrong r
    gives.  None where it would not halve: n <= _HALVING_BASE, or the
    square through ceil(n/2) does not pack (see _slot_bytes; m unset
    included); the caller then runs div((1,), b, n, m).
    """
    h = (n + 1) // 2
    if n <= _HALVING_BASE or not _slot_bytes(h, h, m):
        return None
    inverse = _halve(b, r, n, m)
    if mul(b, inverse, n, m) != [1] + [0] * (n - 1):
        raise RuntimeError(f"1/b mod {m} through {n} by halving fails b * (1/b) = 1")
    return inverse


def _halve(b, r, n, m):
    """inverse_by_halving(b, r, n, m) unchecked: r * (1/b)(q^2)^2, the
    square packed, down to _HALVING_BASE."""
    if n <= _HALVING_BASE:
        return div((1,), b, n, m)
    h = (n + 1) // 2
    half = _halve(b, r, h, m)
    square = [0] * n
    square[::2] = mul(half, half, h, m)
    return mul(r, square, n, m)


# An exact product or quotient with a bound on its coefficients runs on
# packed pairs (_mul_pairs, _div_pairs) from this order on.
_PAIR_FROM = 96


def _mul_pairs(a, b, n, w):
    """mul(a, b, n) for a product whose coefficients all lie in
    0 .. 2^w - 1, on pairs: out[2u] + out[2u+1] * 2^w is
    sum_i a_i * (b[2u-i] + b[2u+1-i] * 2^w), so per nonzero a_i one
    shifted slice add of the windows b[s-1] + b[s] * 2^w, those at odd
    s for even i and at even s for odd i, moves two coefficients per
    big-int addition.  The windows are built once; the pairs are
    decoded by one mask and one shift, and past an odd n the high half
    of the last pair is dropped."""
    h = (n + 1) // 2
    b = list(islice(b, n))
    b += [0] * (n - len(b))
    windows = [*map(add, [0, *b], map(lshift, [*b, 0], repeat(w)))]
    even, odd = windows[1::2], windows[0::2]  # for even i, for odd i
    out = [0] * h
    first = 0
    if a[0] == 1:
        out[:] = even
        first = 1
    for i in compress(range(first, n), islice(a, first, n)):
        u = i // 2
        src = odd if i & 1 else even
        ai = a[i]
        if ai == 1:
            out[u:] = map(add, out[u:], src)
        elif ai == -1:
            out[u:] = map(sub, out[u:], src)
        else:
            out[u:] = map(add, out[u:], [ai * x for x in src[: h - u]])
    return _unpair(out, n, w)


def _div_pairs(a, b, n, w):
    """div(a, b, n) for b a series in q^2 and a quotient whose
    coefficients all lie in 0 .. 2^w - 1, on pairs: c[2u] + c[2u+1] * 2^w
    depends only on the pairs before it, by the recurrence of
    a[2u] + a[2u+1] * 2^w divided by b at q -> q^(1/2), so _divide runs
    once through ceil(n/2), two coefficients per big-int addition."""
    h = (n + 1) // 2
    a = list(islice(a, n))
    a += [0] * (2 * h - len(a))
    pairs = [*map(add, a[::2], map(lshift, a[1::2], repeat(w)))]
    return _unpair(_divide(pairs, b[:n:2], h, None, ()), n, w)


def _unpair(pairs, n, w):
    """The n coefficients of packed pairs x + y * 2^w, x and y in
    0 .. 2^w - 1, the y of the last pair dropped past an odd n."""
    out = [0] * n
    out[::2] = map(and_, pairs, repeat((1 << w) - 1))
    out[1::2] = map(rshift, pairs[: n // 2], repeat(w))
    return out


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
