"""Exact truncated power series over the integers.

A :class:`TruncatedSeries` of order N stores the coefficients of
q^0 .. q^(N-1) as unbounded Python ints and is silent about everything
beyond.  Binary operations truncate to the smaller operand order, so
"equal through order N" is always a decidable statement about stored
data.  Values are immutable; every operation returns a new series.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable, Iterable, Iterator
from operator import attrgetter, index

from . import _kernels_py as kernels


class NonUnitConstantTermError(ValueError):
    """Inversion requires a constant term of +1 or -1."""


def _int_value(x: int, what: str) -> int:
    """x as an int; TypeError for a float or a string, which int() would
    truncate or parse, and for True and False, which index() takes as 1
    and 0."""
    if isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return index(x)


def _modulus_value(m: int) -> int:
    """m as an int >= 2; TypeError for a float or a string, which int()
    would truncate or parse, ValueError below 2 (True and False included)."""
    m = index(m)
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return m


class _Record:
    """Base of the package's immutable records.  A subclass lists its
    fields in order as __slots__ and sets them in its __init__ with
    object.__setattr__.  Records of one type with equal fields are equal
    and hash alike, a record of another type is never equal, repr is
    Name(field=value, ...), assignment and deletion raise AttributeError,
    and copy and pickle rebuild a record through its __init__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._key = attrgetter(*cls.__slots__)  # the one field, or a tuple of the fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class _Memo:
    """Values kept for the life of the process, each key keeping its
    longest value.  Each value is charged a cost when stored; the least
    recently used go once the costs add up past `capacity`, and a value
    that alone costs more is not stored, nor does it evict anything.  A
    lock keeps the bookkeeping whole when threads share the memo; the
    values are never mutated, so callers compute outside it."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.size = 0
        self._kept: OrderedDict[Hashable, object] = OrderedDict()
        self._charges: dict[Hashable, tuple[int, int]] = {}  # (length, cost)
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self._kept.clear()
            self._charges.clear()
            self.size = 0

    def get(self, key: Hashable) -> object:
        """The value kept under the key, which counts as used, or None."""
        with self._lock:
            value = self._kept.get(key)
            if value is not None:
                self._kept.move_to_end(key)
        return value

    def store(self, key: Hashable, value: object, length: int, cost: int) -> None:
        """Keep the value under the key unless the value kept there is at
        least `length` long, which then counts as used."""
        with self._lock:
            old = self._charges.get(key)
            if old is not None and old[0] >= length:
                self._kept.move_to_end(key)
                return
            if cost > self.capacity:
                return
            if old is not None:
                del self._kept[key]
                self.size -= self._charges.pop(key)[1]
            self._kept[key] = value
            self._charges[key] = (length, cost)
            self.size += cost
            while self.size > self.capacity:
                evicted, _ = self._kept.popitem(last=False)
                self.size -= self._charges.pop(evicted)[1]


class TruncatedSeries:
    """Integer power series known exactly through q^(order-1)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs order >= 1")
        # one pass over the coefficients' types; the first bad one is named
        if any(not issubclass(t, int) or t is bool for t in set(map(type, cs))):
            bad = next(c for c in cs if not isinstance(c, int) or isinstance(c, bool))
            raise TypeError(f"coefficients must be ints, got {type(bad).__name__}")
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

    def __mul__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if isinstance(other, int):
            other = _int_value(other, "scalar")
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
        exponent = _int_value(exponent, "exponent")
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
        m = _int_value(m, "substitution scale")
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
        s = _int_value(s, "shift")
        if s < 0:
            raise ValueError("shift must be >= 0")
        if s == 0:
            return self
        n = self.order
        return TruncatedSeries([0] * min(s, n) + list(self._coeffs[: max(n - s, 0)]))

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restriction to a smaller order."""
        order = _int_value(order, "order")
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return self if order == self.order else TruncatedSeries(self._coeffs[:order])

    def reduce_mod(self, m: int) -> "TruncatedSeries":
        """Each coefficient replaced by its least nonnegative residue mod m."""
        mv = _modulus_value(m)
        return TruncatedSeries([c % mv for c in self._coeffs])

    def dissect(self, m: int, r: int) -> "TruncatedSeries":
        """Arithmetic-progression extraction: coefficient n of the result
        is coefficient m*n + r of self (the q^r prefactor is stripped and
        q^m is rescaled to q).  Result order is floor((N - r + m - 1)/m).
        """
        m, r = _int_value(m, "dissection modulus"), _int_value(r, "residue")
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
        m = _int_value(m, "modulus")
        if m < 1:
            raise ValueError("modulus must be >= 1")
        return frozenset(n % m for n, c in enumerate(self._coeffs) if c)
