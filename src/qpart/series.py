"""Exact truncated power series over the integers.

A :class:`TruncatedSeries` of order N stores the coefficients of
q^0 .. q^(N-1) as unbounded Python ints and is silent about everything
beyond.  Binary operations truncate to the smaller operand order, so
"equal through order N" is always a decidable statement about stored
data.  Values are immutable; every operation returns a new series.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Union

from . import _kernels_py as kernels


class NonUnitConstantTermError(ValueError):
    """Inversion requires a constant term of +1 or -1."""


def _modulus_value(m: int) -> int:
    """m as an int >= 2; TypeError for a float or a string, which int()
    would truncate or parse, ValueError below 2 (True and False included)."""
    m = index(m)
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return m


class TruncatedSeries:
    """Integer power series known exactly through q^(order-1)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs order >= 1")
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        object.__setattr__(self, "_coeffs", cs)

    # -- construction ----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * (order - 1))

    # -- basic access ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self._coeffs):
            raise IndexError(f"exponent {n} outside stored range 0..{len(self._coeffs) - 1}")
        return self._coeffs[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def equals_through(self, other: "TruncatedSeries", order: int) -> bool:
        """Coefficientwise equality for exponents 0..order-1."""
        if order > self.order or order > other.order:
            raise ValueError("comparison order exceeds a stored order")
        return self._coeffs[:order] == other._coeffs[:order]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self._coeffs):
            if not c:
                continue
            if len(terms) == 8:
                terms.append("...")
                break
            mono = "1" if n == 0 else ("q" if n == 1 else f"q^{n}")
            if n > 0 and abs(c) == 1:
                body = mono
            elif n == 0:
                body = str(abs(c))
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            terms.append(f"{sign} {body}" if terms else (f"-{body}" if c < 0 else body))
        poly = " ".join(terms) if terms else "0"
        return f"{poly} + O(q^{self.order})"

    # -- ring operations ---------------------------------------------------

    def _common_order(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncatedSeries([x + y for x, y in zip(self._coeffs, other._coeffs)][:n])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncatedSeries([x - y for x, y in zip(self._coeffs, other._coeffs)][:n])

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: Union["TruncatedSeries", int]) -> "TruncatedSeries":
        if isinstance(other, int):
            return TruncatedSeries([c * other for c in self._coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncatedSeries(kernels.mul(self._coeffs, other._coeffs, n))

    def __rmul__(self, other: int) -> "TruncatedSeries":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def inverse(self) -> "TruncatedSeries":
        """Series b with self * b = 1 through the truncation order."""
        if self._coeffs[0] not in (1, -1):
            raise NonUnitConstantTermError(
                f"cannot invert a series with constant term {self._coeffs[0]}"
            )
        return TruncatedSeries(kernels.div((1,), self._coeffs, self.order))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- reindexing and reduction ------------------------------------------

    def substitute(self, m: int) -> "TruncatedSeries":
        """The series a(q^m) at the same order."""
        if m < 1:
            raise ValueError("substitution scale must be >= 1")
        if m == 1:
            return self
        n = self.order
        out = [0] * n
        for i, c in enumerate(self._coeffs):
            if i * m >= n:
                break
            out[i * m] = c
        return TruncatedSeries(out)

    def shifted(self, s: int) -> "TruncatedSeries":
        """Multiplication by q^s at the same order (top coefficients drop off)."""
        if s < 0:
            raise ValueError("shift must be >= 0")
        if s == 0:
            return self
        n = self.order
        return TruncatedSeries([0] * min(s, n) + list(self._coeffs[: n - s]))

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restriction to a smaller order."""
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return TruncatedSeries(self._coeffs[:order])

    def reduce_mod(self, m: int) -> "TruncatedSeries":
        """Each coefficient replaced by its least nonnegative residue mod m."""
        mv = _modulus_value(m)
        return TruncatedSeries([c % mv for c in self._coeffs])

    def dissect(self, m: int, r: int) -> "TruncatedSeries":
        """Arithmetic-progression extraction: coefficient n of the result
        is coefficient m*n + r of self (the q^r prefactor is stripped and
        q^m is rescaled to q).  Result order is floor((N - r + m - 1)/m).
        """
        if m < 1:
            raise ValueError("dissection modulus must be >= 1")
        if not 0 <= r < m:
            raise ValueError(f"residue must satisfy 0 <= r < {m}, got {r}")
        n = self.order
        out_order = (n - r + m - 1) // m
        if out_order < 1:
            raise ValueError(
                f"series of order {n} has no coefficient in class {r} (mod {m})"
            )
        return TruncatedSeries([self._coeffs[m * i + r] for i in range(out_order)])

    def support_residues(self, m: int) -> frozenset[int]:
        """Residues n mod m over all stored exponents n with nonzero coefficient."""
        if m < 1:
            raise ValueError("modulus must be >= 1")
        return frozenset(n % m for n, c in enumerate(self._coeffs) if c)
