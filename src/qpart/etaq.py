"""Eta-quotient builders, closed-form theta series, and the expression grammar.

The text grammar (ASCII, whitespace insignificant) shared by the CLI
and the congruence verifiers:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor | '/' factor)*
    factor := INT | 'q' ['^' INT] | 'f' INT ['^' SINT] | '(' expr ')'
    SINT   := ['-'] INT

`fk` denotes the product (q^k; q^k)_infinity.  Division binds like
multiplication by an inverse and is left associative.  Parenthesized
sums are distributed during parsing, so every accepted input flattens
into a sum of monomial terms c * q^s * prod fk^e.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import gcd, isqrt
from operator import add

from . import _kernels_py as kernels
from .series import TruncatedSeries, _int_value, _Memo, _modulus_value, _Record


class EtaSyntaxError(ValueError):
    """Input rejected by the eta-expression grammar."""

    def __init__(self, message: str, position: int, expected: frozenset[str] = frozenset()):
        self.position = position
        self.expected = frozenset(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class ZeroScaleError(ValueError):
    """The factor f0 denotes no well-defined product."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"f0 is not a valid factor (offset {position})")


# ---------------------------------------------------------------------------
# expression data model
# ---------------------------------------------------------------------------

class EtaTerm(_Record):
    """One monomial term: coefficient * q^q_shift * prod fk^e.

    `factors` holds (scale, exponent) pairs with distinct scales in
    increasing order and nonzero exponents; negative exponents mark
    divisor factors.
    """

    __slots__ = ("coefficient", "q_shift", "factors")

    def __init__(self, coefficient: int, q_shift: int = 0,
                 factors: tuple[tuple[int, int], ...] = ()) -> None:
        coefficient = _int_value(coefficient, "coefficient")
        q_shift = _int_value(q_shift, "q_shift")
        if q_shift < 0:
            raise ValueError("q_shift must be >= 0")
        factors = tuple((_int_value(k, "factor scale"), _int_value(e, "factor exponent"))
                        for k, e in factors)
        prev = 0
        for k, e in factors:
            if k < 1:
                raise ValueError("factor scales must be positive")
            if k <= prev:
                raise ValueError("factor scales must be distinct and increasing")
            if e == 0:
                raise ValueError("factor exponents must be nonzero")
            prev = k
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "q_shift", q_shift)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def make(cls, coefficient: int, q_shift: int = 0,
             factors: Mapping[int, int] | None = None) -> "EtaTerm":
        items = tuple(sorted((k, e) for k, e in (factors or {}).items() if e))
        return cls(coefficient, q_shift, items)


class EtaExpression(_Record):
    """A sum of :class:`EtaTerm`; term order is preserved."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[EtaTerm, ...]) -> None:
        if not terms:
            raise ValueError("an expression needs at least one term")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def single(cls, coefficient: int, q_shift: int = 0,
               factors: Mapping[int, int] | None = None) -> "EtaExpression":
        return cls((EtaTerm.make(coefficient, q_shift, factors),))

    def __str__(self) -> str:
        return format_eta(self)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FACTOR_EXPECTED = frozenset({"integer", "'q'", "'f'", "'('"})
# Each open parenthesis costs three stack frames of the recursive descent;
# 100 levels stay well inside the interpreter's default recursion limit.
_MAX_NESTING = 100


# kind is "int", "sym" or "end"; value is the int of an "int" token.
_Token = namedtuple("_Token", ("kind", "text", "pos", "value"))
_DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit also takes superscripts
_SYMBOLS = frozenset("qf()+-*/^")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _SYMBOLS:
            tokens.append(_Token("sym", ch, i, 0))
            i += 1
        elif ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # longer than int() converts (sys.set_int_max_str_digits)
                raise EtaSyntaxError(f"integer of {j - i} digits is too long", i) from None
            tokens.append(_Token("int", text[i:j], i, value))
            i = j
        elif ch.isspace():
            i += 1
        else:
            raise EtaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n, 0))
    return tokens


class _Mono:
    """Mutable monomial accumulator used while parsing one term."""

    __slots__ = ("coeff", "shift", "factors", "start")

    def __init__(self, coeff: int, shift: int, factors: dict[int, int] | None = None,
                 start: int = 0) -> None:
        self.coeff = coeff
        self.shift = shift  # may dip below zero mid-term; validated on finalize
        self.factors = {} if factors is None else factors
        self.start = start


def _combine(x: _Mono, y: _Mono) -> _Mono:
    f = dict(x.factors)
    for k, e in y.factors.items():
        ne = f.get(k, 0) + e
        if ne:
            f[k] = ne
        else:
            f.pop(k, None)
    return _Mono(x.coeff * y.coeff, x.shift + y.shift, f, x.start)


def _divide(x: _Mono, d: _Mono, pos: int) -> _Mono:
    if d.coeff == 0:
        raise EtaSyntaxError("division by a zero term", pos)
    if x.coeff % d.coeff:
        raise EtaSyntaxError(
            f"coefficient {x.coeff} is not divisible by {d.coeff}", pos)
    return _combine(_Mono(x.coeff // d.coeff, x.shift, x.factors, x.start),
                    _Mono(1, -d.shift, {k: -e for k, e in d.factors.items()}))


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _at_sym(self, chars: str) -> bool:
        tok = self._peek()
        return tok.kind == "sym" and tok.text in chars

    def parse(self) -> EtaExpression:
        monos = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            raise EtaSyntaxError(
                f"unexpected {tok.text!r}", tok.pos,
                frozenset({"'+'", "'-'", "'*'", "'/'", "end of input"}))
        terms = []
        for m in monos:
            if m.coeff == 0:
                continue
            if m.shift < 0:
                raise EtaSyntaxError("term has a negative power of q", m.start)
            terms.append(EtaTerm.make(m.coeff, m.shift, m.factors))
        if not terms:
            terms = [EtaTerm(0)]
        return EtaExpression(tuple(terms))

    def _expr(self) -> list[_Mono]:
        monos = self._term()
        while self._at_sym("+-"):
            op = self._take()
            rhs = self._term()
            if op.text == "-":
                for m in rhs:
                    m.coeff = -m.coeff
            monos.extend(rhs)
        return monos

    def _term(self) -> list[_Mono]:
        start = self._peek().pos
        monos = self._factor(start)
        while self._at_sym("*/"):
            op = self._take()
            rhs = self._factor(start)
            if op.text == "*":
                monos = [_combine(x, y) for x in monos for y in rhs]
            else:
                if len(rhs) != 1:
                    raise EtaSyntaxError("cannot divide by a sum", op.pos)
                monos = [_divide(x, rhs[0], op.pos) for x in monos]
        return monos

    def _factor(self, term_start: int) -> list[_Mono]:
        tok = self._peek()
        if tok.kind == "int":
            self._take()
            return [_Mono(tok.value, 0, {}, term_start)]
        if tok.kind == "sym" and tok.text == "q":
            self._take()
            s = 1
            if self._at_sym("^"):
                self._take()
                s = self._int("exponent of q")
            return [_Mono(1, s, {}, term_start)]
        if tok.kind == "sym" and tok.text == "f":
            self._take()
            scale_tok = self._peek()
            if scale_tok.kind != "int":
                raise EtaSyntaxError("missing scale after 'f'", scale_tok.pos,
                                     frozenset({"integer"}))
            self._take()
            if scale_tok.value == 0:
                raise ZeroScaleError(scale_tok.pos)
            e = 1
            if self._at_sym("^"):
                self._take()
                e = self._sint()
            return [_Mono(1, 0, {scale_tok.value: e} if e else {}, term_start)]
        if tok.kind == "sym" and tok.text == "(":
            self._take()
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise EtaSyntaxError(
                    f"parentheses nested more than {_MAX_NESTING} deep", tok.pos)
            monos = self._expr()
            closing = self._peek()
            if not self._at_sym(")"):
                raise EtaSyntaxError("unbalanced parenthesis", closing.pos,
                                     frozenset({"')'"}))
            self._take()
            self.depth -= 1
            for m in monos:
                m.start = term_start
            return monos
        raise EtaSyntaxError(
            f"unexpected {tok.text or 'end of input'!r}", tok.pos, _FACTOR_EXPECTED)

    def _int(self, what: str) -> int:
        tok = self._peek()
        if tok.kind != "int":
            raise EtaSyntaxError(f"missing {what}", tok.pos, frozenset({"integer"}))
        self._take()
        return tok.value

    def _sint(self) -> int:
        sign = 1
        if self._at_sym("-"):
            self._take()
            sign = -1
        tok = self._peek()
        if tok.kind != "int":
            expected = {"integer"} if sign == -1 else {"integer", "'-'"}
            raise EtaSyntaxError("missing exponent", tok.pos, frozenset(expected))
        self._take()
        return sign * tok.value


def parse_eta(text: str) -> EtaExpression:
    """Parse an eta-quotient expression; total on the grammar above."""
    return _Parser(text).parse()


def format_eta(expr: EtaExpression) -> str:
    """Render an expression back into the grammar.

    Round-trip stable: parse_eta(format_eta(parse_eta(s))) == parse_eta(s).
    A leading negative term is rendered as "0 - ...", which re-parses to
    the same expression because zero terms are dropped.
    """
    parts = []
    for idx, term in enumerate(expr.terms):
        body = _format_term(term)
        if idx == 0:
            parts.append(f"0 - {body}" if term.coefficient < 0 else body)
        else:
            parts.append(f" - {body}" if term.coefficient < 0 else f" + {body}")
    return "".join(parts)


def _format_term(term: EtaTerm) -> str:
    num = []
    den = []
    if term.q_shift == 1:
        num.append("q")
    elif term.q_shift:
        num.append(f"q^{term.q_shift}")
    for k, e in term.factors:
        if e > 0:
            num.append(f"f{k}" if e == 1 else f"f{k}^{e}")
        else:
            den.append(f"f{k}" if e == -1 else f"f{k}^{-e}")
    c = abs(term.coefficient)
    if c != 1 or not num:
        num.insert(0, str(c))
    body = "*".join(num)
    if den:
        body += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return body


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

# eval_eta refuses an expansion that would cost more than this many
# coefficient additions: the output, the coefficients each term adds
# into it, and the price of the passes it plans (_expansion_plan).
_MAX_EXPANSION_WORK = 10**8
_PASS_OVERHEAD = 40  # a pass at order 1 takes 1-1.5 us; an addition at order 2107, 35-45 ns


def _apply_factors(acc: Sequence[int] | None, factors, n: int, m: int | None,
                   folded=()) -> tuple[list[int], int]:
    """acc * prod fk^e through order n, mod m if set, for (k, e) pairs
    run in the order given, acc None standing for the series 1: the
    pass loop of eval_eta and of replay_proof's division by f_7s.
    Returns (coeffs, g), the result being coeffs at q -> q^g: its
    coefficient g*i is coeffs[i] for i < ceil(n/g), and every other one
    is 0.

    A factor fk^e costs |e| passes over fk, each a product
    kernels.mul(fk, acc) or a quotient kernels.div(acc, fk), the
    recurrence.  Where k is among the scales `folded` it costs |e|//3
    passes over the cube fk^3 (_cube_coeffs) and then |e|%3 over fk,
    since fk^e = (fk^3)^(e//3) * fk^(e%3) for either sign of e; the same
    kernels run them.  Given acc, g is 1 and every pass runs through n.

    From the series 1, while the scales applied so far have gcd g, the
    running series is F(q^g), and fk and its cube are f_(k/g) and
    f_(k/g)^3 at q^g; truncation mod q^n commutes with q -> q^g, so
    each pass multiplies or divides F by f_(k/g) or its cube through
    ceil(n/g), and the result is exact.  The first pass of the first
    factor is a copy of its operand where its e > 0, a quotient of the
    series 1 otherwise; where the gcd falls from g to g', F is spread
    to q -> q^(g/g') once.  With no factors the result is the series 1,
    ([1], n).
    """
    g = 0 if acc is None else 1  # gcd(0, k) = k
    for k, e in factors:
        step = gcd(g, k)
        length = -(-n // step)
        if step < g:
            spread = [0] * length
            spread[:: g // step] = acc
            acc = spread
        g = step
        cubes = abs(e) // 3 if k in folded else 0
        for operand, count in ((_cube_coeffs, cubes), (_pochhammer_coeffs, abs(e) - 3 * cubes)):
            if not count:
                continue
            base = operand(k // g, length)
            for _ in range(count):
                if e < 0:
                    acc = kernels.div((1,) if acc is None else acc, base, length, m)
                elif acc is not None:
                    acc = kernels.mul(base, acc, length, m)
                else:
                    acc = list(base) if m is None else [x % m for x in base]
    return ([1], n) if acc is None else (acc, g)


# _plan_factors runs its dynamic program, 32 steps at most, for up to
# _PLAN_MAX factors, as many as the terms of the 7-dissection identity
# carry (f1, f2, f7 and f14), and from order _PLAN_FROM on: timed
# against the products-first order on the expand terms of perfbench's
# cli-mixed workload and on the dissection identity, planning cost
# about as much as it saved near that order, and less from there on.
_PLAN_MAX = 4
_PLAN_FROM = 64


def _plan_factors(factors, n: int):
    """The plan by which _apply_factors expands the factors (k, e) of a
    term from the series 1, at the least price: (the factors in the
    order they run, the scales of those that run by cube passes, the
    price).  A factor's price is _factor_price through ceil(n/g), g the
    gcd of the scales applied up to and including k, the first factor's
    first pass being a copy where its e > 0.  g depends only on the set
    of factors applied, and so does the price of the last one, so a
    cheapest plan through a set is a cheapest plan through the set less
    some factor, then that factor: a dynamic program over the subsets,
    s * 2^(s-1) steps for s factors, where the s! orders would take
    s * s! steps.  With one factor, more than _PLAN_MAX or n below
    _PLAN_FROM, the products run first, as on a given acc
    (_fold_factors); the passes still run at the running gcd.  The plan
    depends on (factors, n) alone: not on the lane, nor on what the
    process keeps."""
    size = len(factors)
    if size < 2 or size > _PLAN_MAX or n < _PLAN_FROM:
        return _fold_factors(factors, n, True)
    terms = [_factor_terms(k, e, n) for k, e in factors]
    full = 1 << size
    members = range(size)
    bits = [1 << i for i in members]
    scale = [0] * full  # the gcd of the scales in a subset
    cost = [0] * full  # the least price through a subset
    last = [(0, False)] * full  # the factor a cheapest plan through it ends with, and its fold
    for subset in range(1, full):
        low = subset & -subset
        g = scale[subset] = gcd(scale[subset ^ low], factors[low.bit_length() - 1][0])
        length = -(-n // g)
        best = None
        for i in members:
            if subset & bits[i]:
                rest = subset ^ bits[i]
                c, fold = _factor_price(terms[i], length, not rest)
                c += cost[rest]
                if best is None or c < best:
                    best = c
                    last[subset] = (i, fold)
        cost[subset] = best
    ordered, folded, subset = [], set(), full - 1
    while subset:
        i, fold = last[subset]
        ordered.append(factors[i])
        if fold:
            folded.add(factors[i][0])
        subset ^= bits[i]
    return tuple(ordered[::-1]), frozenset(folded), cost[-1]


def _fold_factors(factors, n: int, from_one: bool):
    """The plan, as _plan_factors returns it, that runs the products
    among the factors (k, e) first, each factor folded where
    _factor_price prices that lower at the length it runs through:
    ceil(n/g), g the running gcd of the scales from the series 1
    (from_one), else n."""
    factors = sorted(factors, key=lambda f: f[1] < 0)
    folded, price, g = set(), 0, 0 if from_one else 1
    for i, (k, e) in enumerate(factors):
        g = gcd(g, k)
        c, fold = _factor_price(_factor_terms(k, e, n), -(-n // g), from_one and not i)
        if fold:
            folded.add(k)
        price += c
    return tuple(factors), frozenset(folded), price


def _factor_terms(k: int, e: int, n: int):
    """What _factor_price needs of fk^e below order n: (k, e, the
    nonzero terms of fk below n, those of fk^3, and the price of
    building the cube, two passes over f1 through ceil(n/k), the length
    that fk^3 needs)."""
    return k, e, _nonzeros(k, n), _cube_nonzeros(k, n), 2 * _pass_work(1, -(-n // k))


def _factor_price(terms, length: int, first: bool) -> tuple[int, bool]:
    """(price, fold): the lower price of fk^e's passes through `length`,
    with terms from _factor_terms, and whether that is by cube passes:
    |e| passes over fk, or the cube's build, |e|//3 passes over fk^3
    and |e|%3 over fk.  Where `first` and e > 0, the first pass is a
    copy, priced 0.  A pass is priced length times the nonzero terms of
    its operand, plus _PASS_OVERHEAD, in either lane: a product in the
    modular lane that packs costs less (see _expansion_plan).  The
    build is priced whether or not a cube is kept, so a kept cube only
    saves time and never changes a plan; a tie folds, since the build's
    two products run packed, below the price of two passes."""
    _, e, units, cubes, build = terms
    passes, copy = abs(e), first and e > 0
    single = length * units + _PASS_OVERHEAD
    plain = (passes - copy) * single
    folded = (build + (passes // 3 - copy) * (length * cubes + _PASS_OVERHEAD)
              + passes % 3 * single)
    return (folded, True) if passes >= 3 and folded <= plain else (plain, False)


def _nonzeros(k: int, n: int) -> int:
    """The nonzero coefficients of fk below order n: the constant term
    and, by Euler's pentagonal theorem, one term q^(k*j(3j-1)/2) per
    integer j != 0 with j(3j-1)/2 <= X = (n-1)//k, that is 6j - 1 <= s
    for j > 0 and -6j + 1 <= s for j < 0, where s = isqrt(1 + 24X)."""
    s = isqrt(1 + 24 * ((n - 1) // k))
    return 1 + (1 + s) // 6 + (s - 1) // 6


def _cube_nonzeros(k: int, n: int) -> int:
    """The nonzero coefficients of fk^3 below order n: built from Euler's
    sum, fk^3 has one term q^(k*j(j+1)/2) per integer j >= 0 (Jacobi),
    so those with j(j+1)/2 <= X = (n-1)//k, that is 2j + 1 <= isqrt(1 + 8X);
    Gauss's psi(q^k) has its terms at the same exponents.  Prices read
    this count; no coefficient is read from it."""
    return (isqrt(1 + 8 * ((n - 1) // k)) + 1) // 2


def _pass_work(k: int, n: int) -> int:
    """Coefficient additions charged for one pass over fk through order n:
    n times the nonzeros of fk below n, plus _PASS_OVERHEAD."""
    return n * _nonzeros(k, n) + _PASS_OVERHEAD


@lru_cache(maxsize=64)
def _expansion_plan(expr: EtaExpression, order: int, m: int | None):
    """What eval_eta(expr, order, m) runs, and what it is charged:
    (work, ((term, plan), ...), shared).  The terms are those with
    q-shift s below the order and coefficient nonzero (mod m), each
    planned by _plan_factors for its factors less the shared ones
    (_shared_factors) through N - s; shared is (), or (s0, the plan by
    which those run on the sum from q^s0 on, _fold_factors), s0 the
    lowest shift.  work is the output's N coefficients, each term's
    N - s additions into it and the plans' prices, so whether an input
    is refused depends only on (expr, order, m).  In the modular lane a
    product that packs runs as one shifted big-int add per nonzero term
    over w-byte slots, w <= 8, which took 0.03-0.18 of an addition per
    term and coefficient from n = 2107 to 3 * 10^6 (mod 7, 13 and
    2^31 - 1; Python 3.11.7 on a 2-core x86-64 host), so the price of a
    pass bounds it too.
    The plan is kept per (expr, order, m), so a check that charges an
    expression before it expands it (verify_frobenius) plans it once."""
    terms = [term for term in expr.terms if term.q_shift < order
             and (term.coefficient if m is None else term.coefficient % m)]
    shared = _shared_factors(terms, order)
    work, plans = order, []
    for term in terms:
        n = order - term.q_shift
        rest = dict(term.factors)
        for k, g in shared:
            rest[k] = rest.get(k, 0) - g
        plan = _plan_factors([(k, e) for k, e in rest.items() if e], n)
        work += n + plan[2]
        plans.append((term, plan))
    if shared:
        s0 = min(term.q_shift for term in terms)
        shared = s0, _fold_factors(shared, order - s0, False)
        work += shared[1][2]
    return work, tuple(plans), shared


def _expansion_work(expr: EtaExpression, order: int, m: int | None = None) -> int:
    """Coefficient additions charged for eval_eta(expr, order, m): the
    work of _expansion_plan."""
    return _expansion_plan(expr, order, m)[0]


def _within_limit(work: int) -> bool:
    return work <= _MAX_EXPANSION_WORK


def _refuse_above_limit(work: int) -> None:
    if not _within_limit(work):
        raise ValueError(f"expansion needs about {work} coefficient additions, "
                         f"more than the limit of {_MAX_EXPANSION_WORK}")


def _pochhammer_coeffs(k: int, order: int) -> tuple[int, ...]:
    """Coefficients of fk below the order, O(sqrt(order/k)) of them nonzero.
    Not cached: building fk costs far less than one pass over it."""
    return tuple(_closed_form(_CLOSED_FORMS[_EULER], order, k))


# The longest f1^3 built, kept under one key and charged one unit per
# coefficient: 2^18 coefficients, about 2 MiB of references.
_CUBES = _Memo(2**18)
_CUBE = "f1^3"


def _cube_coeffs(k: int, order: int) -> list[int] | tuple[int, ...]:
    """Coefficients of fk^3 below the order: f1^3 through ceil(order/k)
    at q -> q^k.  The longest f1^3 built is kept (_CUBES) and sliced for
    a shorter request; a longer one builds it anew (_build_cube)."""
    c = -(-order // k)
    cube = _CUBES.get(_CUBE)
    if cube is None or len(cube) < c:
        cube = _build_cube(c)
        _CUBES.store(_CUBE, cube, c, c)
    if k == 1:
        return cube[:order]
    out = [0] * order
    out[::k] = cube[:c]
    return out


def _build_cube(n: int) -> tuple[int, ...]:
    """f1^3 below n, from Euler's sum for f1 alone, by two products:
    f1 * f1, then f1 * f1^2.  Each runs packed as an exact product
    (_exact_product), its bound read from its operands: a coefficient of
    f1^2 adds at most nnz(f1) products of two coefficients +1 or -1, so
    |f1^2| <= nnz(f1), and one of f1^3 at most nnz(f1) coefficients of
    f1^2 times +1 or -1, so |f1^3| <= nnz(f1) * max |f1^2|.  Neither
    bound comes from an identity for f1^3, and Jacobi's closed form is
    never read: eval_eta stays a check of it (replay_proof's
    theta-substitution step)."""
    f1 = _pochhammer_coeffs(1, n)
    nonzeros = n - f1.count(0)
    square = _exact_product(f1, f1, n, nonzeros)
    return tuple(_exact_product(f1, square, n, nonzeros * max(map(abs, square))))


def _exact_product(a, b, n: int, bound: int) -> list[int]:
    """a * b below n, for a bound B on the absolute value of each of its
    coefficients: kernels.mul mod M = 2B + 1, which packs where it can,
    each residue then read back as its representative of least absolute
    value, which is the coefficient, since that lies in -B..B."""
    m = 2 * bound + 1
    return [x - m if 2 * x > m else x for x in kernels.mul(a, b, n, m)]


def pochhammer_f(k: int, order: int) -> TruncatedSeries:
    """Expansion of fk = (q^k; q^k)_infinity through the given order."""
    k, order = _int_value(k, "scale k"), _int_value(order, "order")
    if k < 1:
        raise ValueError("scale k must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncatedSeries(_pochhammer_coeffs(k, order))


def _shared_factors(terms: Sequence[EtaTerm], order: int) -> tuple[tuple[int, int], ...]:
    """Per scale k, the exponent g of the factor fk^g that eval_eta
    applies once to the sum of the terms, from the lowest q-shift s0 on,
    while each term c * q^s * prod fk^e is expanded with fk^(e - g)
    through order - s.  g minimizes |g| * w0 + sum |e - g| * w, where w0
    is _pass_work through order - s0 and w that through the term's
    order - s: a median of 0 and the exponents (0 where a term lacks k)
    weighted by those charges, the one nearer 0 on a tie.  g = 0 is a
    candidate, so the passes never cost more than expanding each term on
    its own; a single term shares nothing."""
    if len(terms) < 2:
        return ()
    s0 = min(term.q_shift for term in terms)
    exponents = [(dict(term.factors), order - term.q_shift) for term in terms]
    shared = []
    for k in sorted({k for e, _ in exponents for k in e}):
        points = sorted([(0, _pass_work(k, order - s0)),
                         *((e.get(k, 0), _pass_work(k, n)) for e, n in exponents)])
        half = sum(w for _, w in points)
        below = 0
        for i, (g, w) in enumerate(points):
            below += 2 * w
            if below >= half:
                break
        if below == half:  # every exponent from g to the next one is a median
            g = min(g, points[i + 1][0], key=abs)
        if g:
            shared.append((k, g))
    return tuple(shared)


def eval_eta(expr: EtaExpression | str, order: int,
             modulus: int | None = None) -> TruncatedSeries:
    """Expand an eta-quotient expression through the given order.

    The terms c * q^s * prod fk^e with s below the order and c nonzero
    (mod the modulus, if set) share the factors prod fk^g of
    _shared_factors.  Each such term's remaining factors fk^(e - g) are
    expanded through order N - s (N the requested order) by
    _apply_factors from the series 1, in the order of _plan_factors,
    which keeps the gcd d of the scales applied so far as large as it
    pays: the term is then F(q^d), and each pass multiplies or divides F
    by f_(k/d) through ceil((N - s)/d), since truncation mod q^N
    commutes with q -> q^d.  Where the plan prices it lower, a factor
    fk^e runs as |e|//3 passes over the cube fk^3 and |e|%3 over fk:
    fk^3 has about sqrt(2N/k) nonzeros below N, fewer than fk, so one
    pass over it replaces three over fk.  The cube is f1^3 at q -> q^k,
    built from Euler's sum for f1 by two products and kept for the life
    of the process (_cube_coeffs); eval_eta reads no closed form but
    Euler's, so that it stays a check of the theta series, among them
    Jacobi's f1^3, which replay_proof compares with it.  A term that
    ends at scale d is added into the sum with stride d, at q^s,
    q^(s+d), ..., never spread to full length.  The sum from q^s0 on,
    s0 the lowest shift among the terms, is multiplied by the shared
    factors once, through order N - s0.  Truncation mod q^N is a ring
    homomorphism and every division is by fk's constant term 1, so this
    is exact.

    Every term and the shared factors are planned once, before anything
    of the order's size is allocated (_expansion_plan), and exactly
    those plans run.  The output, the terms' additions into it and the
    plans' prices, the build of the cube for each folded factor among
    them, are the work charged; an expression charged more than
    _MAX_EXPANSION_WORK
    additions is refused with ValueError.  A pass costs about its
    length times its operand's nonzero terms: both kernels work over
    those only, each +1 or -1 in fk, about 2*sqrt(2N/(3k)) of them, or
    a small weight in fk^3.

    With `modulus` set, every pass reduces into 0..modulus-1.  Nothing
    is divided by anything but fk's constant term 1, so this holds for
    every modulus >= 2, and the result equals reduce_mod of the exact
    expansion while the coefficients stay below the modulus.  There the
    products run packed into one big-int product each where they can
    (see qpart._kernels_py), while the divisions stay the sequential
    recurrence, so that eval_eta stays an independent check of the
    family sweep, whose divisions by f2 are packed products too.  The
    plans are priced as in the exact lane, and the cube is the exact
    f1^3.
    """
    if isinstance(expr, str):
        expr = parse_eta(expr)
    order = _int_value(order, "order")
    if order < 1:
        raise ValueError("order must be >= 1")
    m = None if modulus is None else _modulus_value(modulus)
    work, plans, shared = _expansion_plan(expr, order, m)
    _refuse_above_limit(work)
    total = [0] * order
    for i, (term, (factors, folded, _)) in enumerate(plans):
        s = term.q_shift
        c = term.coefficient if m is None else term.coefficient % m
        acc, d = _apply_factors(None, factors, order - s, m, folded)
        if c != 1:
            acc = [c * x for x in acc]
        total[s::d] = map(add, total[s::d], acc) if i else acc  # the first term is placed
    if m is not None:
        total = [x % m for x in total]
    if shared:  # every term starts at q^s0 or later
        s0, (factors, folded, _) = shared
        total[s0:], _ = _apply_factors(total[s0:], factors, order - s0, m, folded)
    return TruncatedSeries(total)


# ---------------------------------------------------------------------------
# closed-form theta series
# ---------------------------------------------------------------------------

class ThetaFamily(enum.Enum):
    """The four closed-form series used by the congruence arguments.

    Each value names the shape of the bilateral sum; the matching
    product side is recorded in THETA_PRODUCT_FORM.
    """

    JACOBI_CUBE = "jacobi-cube"
    PENTAGONAL_WEIGHTED = "pentagonal-weighted"
    OCTAGONAL_WEIGHTED = "octagonal-weighted"
    OCTAGONAL_ALTERNATING = "octagonal-alternating"


class _ClosedForm(namedtuple("_ClosedForm", ("product", "one_sided", "term"))):
    """The identity prod f_s^product[s] = sum_n weight(n) * q^exponent(n),
    summed over n >= 0 if one_sided, else over all integers: product
    maps s to its exponent, and term maps n to (exponent(n), weight(n))."""

    __slots__ = ()


# Euler's pentagonal number theorem for f1 and Gauss's identity for
# psi = f2^2/f1, under the private keys _EULER and _PSI, and the four
# theta closed forms (Hirschhorn, The Power of q).  eval_eta reads only
# _EULER; _PSI serves the family sweep of qpart.congruence alone.
_EULER = "euler-pentagonal"
_PSI = "gauss-psi"
_CLOSED_FORMS: dict[ThetaFamily | str, _ClosedForm] = {
    _EULER: _ClosedForm({1: 1}, False, lambda n: (n * (3 * n - 1) // 2, -1 if n & 1 else 1)),
    _PSI: _ClosedForm({1: -1, 2: 2}, True, lambda n: (n * (n + 1) // 2, 1)),
    ThetaFamily.JACOBI_CUBE: _ClosedForm(
        {1: 3}, True, lambda n: (n * (n + 1) // 2, (2 * n + 1) * (-1 if n & 1 else 1))),
    ThetaFamily.PENTAGONAL_WEIGHTED: _ClosedForm(
        {1: 5, 2: -2}, False, lambda n: (n * (3 * n + 1) // 2, 6 * n + 1)),
    ThetaFamily.OCTAGONAL_WEIGHTED: _ClosedForm(
        {1: 2, 2: -1, 4: 2}, False, lambda n: (n * (3 * n + 2), 3 * n + 1)),
    ThetaFamily.OCTAGONAL_ALTERNATING: _ClosedForm(
        {1: -2, 2: 5}, False, lambda n: (n * (3 * n + 2), (3 * n + 1) * (-1 if n & 1 else 1))),
}

THETA_PRODUCT_FORM: dict[ThetaFamily, str] = {
    family: format_eta(EtaExpression.single(1, 0, _CLOSED_FORMS[family].product))
    for family in ThetaFamily
}


def _closed_form(form: _ClosedForm, order: int, scale: int = 1) -> list[int]:
    """The form's sum at q -> q^scale below the order.  Exponents grow
    with |n|, so it stops at the first n at which neither n nor -n lands
    below the order."""
    c = [0] * order
    term, one_sided = form.term, form.one_sided
    n = 0
    while True:
        hit = False
        for i in (n,) if one_sided or not n else (n, -n):
            e, w = term(i)
            e *= scale
            if e < order:
                c[e] += w
                hit = True
        if not hit:
            return c
        n += 1


def _theta_form(family: ThetaFamily) -> _ClosedForm:
    if not isinstance(family, ThetaFamily):
        raise ValueError(f"unknown theta family {family!r}")
    return _CLOSED_FORMS[family]


def theta_series(family: ThetaFamily, order: int) -> TruncatedSeries:
    """The family's closed-form sum (see _CLOSED_FORMS) through the order."""
    order = _int_value(order, "order")
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncatedSeries(_closed_form(_theta_form(family), order))


def theta_support_mod(family: ThetaFamily, modulus: int = 7) -> frozenset[int]:
    """Residue classes mod an odd modulus that can carry a nonzero term.

    Both the exponent and the divisibility of the weight depend only on
    the summation index modulo the modulus, so scanning one period
    replays the exclusion argument exactly: a class is unreachable iff
    every index landing on it has weight divisible by the modulus.
    """
    modulus = _int_value(modulus, "modulus")
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("support analysis needs an odd modulus >= 3")
    term = _theta_form(family).term
    return frozenset(e % modulus for e, w in map(term, range(modulus)) if w % modulus)
