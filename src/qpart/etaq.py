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
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from operator import add
from typing import Mapping, Union

from . import _kernels_py as kernels
from .series import TruncatedSeries, _modulus_value


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

@dataclass(frozen=True)
class EtaTerm:
    """One monomial term: coefficient * q^q_shift * prod fk^e.

    `factors` holds (scale, exponent) pairs with distinct scales in
    increasing order and nonzero exponents; negative exponents mark
    divisor factors.
    """

    coefficient: int
    q_shift: int = 0
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.q_shift < 0:
            raise ValueError("q_shift must be >= 0")
        prev = 0
        for k, e in self.factors:
            if k <= prev:
                raise ValueError("factor scales must be distinct and increasing")
            if k < 1:
                raise ValueError("factor scales must be positive")
            if e == 0:
                raise ValueError("factor exponents must be nonzero")
            prev = k

    @classmethod
    def make(cls, coefficient: int, q_shift: int = 0,
             factors: Mapping[int, int] | None = None) -> "EtaTerm":
        items = tuple(sorted((k, e) for k, e in (factors or {}).items() if e))
        return cls(coefficient, q_shift, items)


@dataclass(frozen=True)
class EtaExpression:
    """A sum of :class:`EtaTerm`; term order is preserved."""

    terms: tuple[EtaTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("an expression needs at least one term")

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


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "sym" | "end"
    text: str
    pos: int
    value: int = 0


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789":  # ASCII only: str.isdigit also takes superscripts
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # longer than int() converts (sys.set_int_max_str_digits)
                raise EtaSyntaxError(f"integer of {j - i} digits is too long", i) from None
            tokens.append(_Token("int", text[i:j], i, value))
            i = j
            continue
        if ch in "qf()+-*/^":
            tokens.append(_Token("sym", ch, i))
            i += 1
            continue
        raise EtaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


@dataclass
class _Mono:
    """Mutable monomial accumulator used while parsing one term."""

    coeff: int
    shift: int  # may dip below zero mid-term; validated on finalize
    factors: dict[int, int] = field(default_factory=dict)
    start: int = 0


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
# coefficient additions: one per output coefficient, one per coefficient
# a term adds into the output, and |e| * order * nnz(fk) per factor.
_MAX_EXPANSION_WORK = 10**8


def _expansion_work(expr: EtaExpression, order: int) -> int:
    """Coefficient additions eval_eta spends on expr through the order."""
    work = order  # the output list
    for term in expr.terms:
        n = order - term.q_shift
        if n > 0:  # n to accumulate, |e| passes over fk's 1 + 2*isqrt(2n/(3k)) nonzeros
            work += n * (1 + sum(abs(e) * (1 + 2 * isqrt(2 * n // (3 * k)))
                                 for k, e in term.factors))
    return work


def _refuse_above_limit(work: int) -> None:
    if work > _MAX_EXPANSION_WORK:
        raise ValueError(f"expansion needs about {work} coefficient additions, "
                         f"more than the limit of {_MAX_EXPANSION_WORK}")


@lru_cache(maxsize=None)
def _pochhammer_coeffs(k: int, order: int) -> tuple[int, ...]:
    """Coefficients of fk below the order.

    By Euler's pentagonal number theorem the nonzero ones sit at
    k*j*(3j-1)/2 and k*j*(3j+1)/2 for j >= 0, both with coefficient
    (-1)^j; there are O(sqrt(order/k)) of them.
    """
    c = [0] * order
    c[0] = 1
    j = 1
    while True:
        e_pos = k * j * (3 * j - 1) // 2
        if e_pos >= order:
            break
        s = -1 if j & 1 else 1
        c[e_pos] = s
        e_neg = e_pos + k * j
        if e_neg < order:
            c[e_neg] = s
        j += 1
    return tuple(c)


def pochhammer_f(k: int, order: int) -> TruncatedSeries:
    """Expansion of fk = (q^k; q^k)_infinity through the given order.

    Built from the pentagonal-number bilateral sum
    sum_j (-1)^j q^(k*j*(3j-1)/2), which touches O(sqrt(order/k)) terms.
    """
    if k < 1:
        raise ValueError("scale k must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncatedSeries(_pochhammer_coeffs(k, order))


def eval_eta(expr: Union[EtaExpression, str], order: int,
             modulus: int | None = None) -> TruncatedSeries:
    """Expand an eta-quotient expression through the given order.

    A term c * q^s * prod fk^e is expanded through order N - s (N the
    requested order), one factor at a time: |e| passes of
    `kernels.mul(fk, acc)` or `kernels.div(acc, fk)`.  Both kernels work
    over the nonzero coefficients of fk only, about 2*sqrt(2N/(3k)) of
    them, each +1 or -1, so a pass costs about N * nnz(fk) integer
    additions and no multiplications, and a term costs sum_k |e_k|
    passes.  An expression whose output and passes would cost more than
    _MAX_EXPANSION_WORK additions is refused with ValueError before
    anything is allocated.

    With `modulus` set, every pass reduces into 0..modulus-1.  Nothing
    is divided by anything but fk's constant term 1, so this holds for
    every modulus >= 2, and the result equals reduce_mod of the exact
    expansion while the coefficients stay below the modulus.
    """
    if isinstance(expr, str):
        expr = parse_eta(expr)
    if order < 1:
        raise ValueError("order must be >= 1")
    m = None if modulus is None else _modulus_value(modulus)
    _refuse_above_limit(_expansion_work(expr, order))
    total = [0] * order
    for term in expr.terms:
        s = term.q_shift
        c = term.coefficient if m is None else term.coefficient % m
        if s >= order or not c:
            continue
        n = order - s
        acc = [1] + [0] * (n - 1)
        for k, e in term.factors:
            fk = _pochhammer_coeffs(k, n)
            for _ in range(abs(e)):
                acc = kernels.mul(fk, acc, n, m) if e > 0 else kernels.div(acc, fk, n, m)
        total[s:] = map(add, total[s:], [c * x for x in acc])
    return TruncatedSeries(total if m is None else [x % m for x in total])


# ---------------------------------------------------------------------------
# closed-form theta series
# ---------------------------------------------------------------------------

class ThetaFamily(enum.Enum):
    """The four closed-form series used by the congruence arguments.

    Each value names the shape of the bilateral sum; the matching
    product side is recorded in THETA_PRODUCT_FORM.
    """

    JACOBI_CUBE = "jacobi-cube"                      # f1^3
    PENTAGONAL_WEIGHTED = "pentagonal-weighted"      # f1^5 / f2^2
    OCTAGONAL_WEIGHTED = "octagonal-weighted"        # f1^2 * f4^2 / f2
    OCTAGONAL_ALTERNATING = "octagonal-alternating"  # f2^5 / f1^2


THETA_PRODUCT_FORM: dict[ThetaFamily, str] = {
    ThetaFamily.JACOBI_CUBE: "f1^3",
    ThetaFamily.PENTAGONAL_WEIGHTED: "f1^5/f2^2",
    ThetaFamily.OCTAGONAL_WEIGHTED: "f1^2*f4^2/f2",
    ThetaFamily.OCTAGONAL_ALTERNATING: "f2^5/f1^2",
}


def _theta_exponent_weight(family: ThetaFamily, n: int) -> tuple[int, int]:
    if family is ThetaFamily.JACOBI_CUBE:
        return n * (n + 1) // 2, (2 * n + 1) * (-1 if n & 1 else 1)
    if family is ThetaFamily.PENTAGONAL_WEIGHTED:
        return n * (3 * n + 1) // 2, 6 * n + 1
    if family is ThetaFamily.OCTAGONAL_WEIGHTED:
        return n * (3 * n + 2), 3 * n + 1
    if family is ThetaFamily.OCTAGONAL_ALTERNATING:
        return n * (3 * n + 2), (3 * n + 1) * (-1 if n & 1 else 1)
    raise ValueError(f"unknown theta family {family!r}")


def theta_series(family: ThetaFamily, order: int) -> TruncatedSeries:
    """Evaluate the closed-form sum, including every index whose
    exponent lies below the order (one-sided over n >= 0 for
    JACOBI_CUBE, bilateral over all integers otherwise)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    c = [0] * order
    one_sided = family is ThetaFamily.JACOBI_CUBE

    def put(n: int) -> bool:
        e, w = _theta_exponent_weight(family, n)
        if e >= order:
            return False
        c[e] += w
        return True

    put(0)
    n = 1
    while True:
        hit = put(n)
        if not one_sided:
            hit = put(-n) or hit
        if not hit:
            break
        n += 1
    return TruncatedSeries(c)


def theta_support_mod(family: ThetaFamily, modulus: int = 7) -> frozenset[int]:
    """Residue classes mod an odd modulus that can carry a nonzero term.

    Both the exponent and the divisibility of the weight depend only on
    the summation index modulo the modulus, so scanning one period
    replays the exclusion argument exactly: a class is unreachable iff
    every index landing on it has weight divisible by the modulus.
    """
    if modulus < 3 or modulus % 2 == 0:
        raise ValueError("support analysis needs an odd modulus >= 3")
    out = set()
    for n in range(modulus):
        e, w = _theta_exponent_weight(family, n)
        if w % modulus:
            out.add(e % modulus)
    return frozenset(out)
