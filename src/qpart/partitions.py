"""Colored-partition counting by a recurrence and exhaustive listing.

Two families, parametrized by a color count k:

* ODD_COLORED ("a"): odd part weights carry one of k colors, even
  weights are monochromatic.
* EVEN_COLORED ("b"): the mirror family; even weights carry the colors.

Everything here is combinatorial ground truth, independent of the
q-series pipeline: counts come from the divisor-sum recurrence for
Euler products, built from the color counts alone, and never touch
Pochhammer code.

The longest count table built for each color function is kept for the
life of the process (_TABLES) and continued, not rebuilt, by a later
request past its end: the recurrence is online, so the counts are the
same as a cold build's.
"""

from __future__ import annotations

import enum
import math
import operator
from .series import TruncatedSeries, _int_value, _Memo, _Record


class CapExceededError(ValueError):
    """Refusal to list partitions beyond the enumeration cap."""


class Family(enum.Enum):
    ODD_COLORED = "a"
    EVEN_COLORED = "b"


class ColoredFamilySpec(_Record):
    """Which family and how many colors on the colored parity."""

    __slots__ = ("family", "colors")

    def __init__(self, family: Family, colors: int) -> None:
        if not isinstance(family, Family):
            raise TypeError(f"family must be a Family, got {family!r}")
        colors = _int_value(colors, "color count")
        if colors < 1:
            raise ValueError(f"color count must be an integer >= 1, got {colors}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "colors", colors)

    def color_count(self, weight: int) -> int:
        """Number of colors available to a part of the given weight."""
        colored_odd = self.family is Family.ODD_COLORED
        return self.colors if (weight % 2 == 1) == colored_odd else 1

    @property
    def label(self) -> str:
        return f"{self.family.value}_{self.colors}"


class ColoredPartition(_Record):
    """A multiset of (weight, color) parts in canonical descending order.

    Parts compare by weight first, then color, so e.g. 3_1 > 2 > 1_3.
    Monochromatic-parity parts always carry color 1.
    """

    __slots__ = ("spec", "parts")

    def __init__(self, spec: ColoredFamilySpec, parts: tuple[tuple[int, int], ...]) -> None:
        prev = None
        for w, c in parts:
            if w < 1 or not 1 <= c <= spec.color_count(w):
                raise ValueError(f"part {w}_{c} is not valid for {spec.label}")
            if prev is not None and (w, c) > prev:
                raise ValueError("parts must be in descending order")
            prev = (w, c)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, spec: ColoredFamilySpec,
                 parts: tuple[tuple[int, int], ...]) -> "ColoredPartition":
        """A partition whose parts the caller built valid and in order,
        constructed without the validation of __init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "parts", parts)
        return self

    @property
    def weight(self) -> int:
        return sum(w for w, _ in self.parts)

    def __str__(self) -> str:
        if not self.parts:
            return "()"
        rendered = [
            f"{w}_{c}" if self.spec.color_count(w) > 1 else str(w)
            for w, c in self.parts
        ]
        return "(" + ",".join(rendered) + ")"


# _count_table refuses a table that would take more than this many
# multiply-adds, in units of 512-bit coefficients, as eval_eta refuses
# an expansion.
_MAX_DP_WORK = 10**8
# enumerate_partitions refuses to list more partitions than this; a
# listing takes about 450 bytes per partition at n = 25.
_MAX_LISTING = 10**6


def _count_bits(spec: ColoredFamilySpec, n: int) -> int:
    """A bound on the bit length of the count of every n' <= n.

    With q = e^-t, sum_{d odd} and sum_{d even} of -log(1 - q^d) are each
    at most pi^2/(12t), so log F(q) <= (k+1)pi^2/(12t) in both families,
    and the best t in c(n) <= F(q) q^-n gives log c(n) <= pi*sqrt((k+1)n/3).
    As pi / ln 2 < 4.533, log2 c(n) < 4.533 * root: at most ceil of that bits.
    """
    root = math.isqrt((spec.colors + 1) * n // 3) + 1
    return -(-root * 4533 // 1000)


def _dp_work(spec: ColoredFamilySpec, order: int) -> int:
    """Multiply-adds of _count_table, about order^2 / 2, each charged its
    size by _count_bits in 512-bit units, at least 1."""
    units = max(1, -(-_count_bits(spec, order - 1) // 512))
    return order * order // 2 * units


# The count tables _count_table keeps, by the colors of odd and of even
# parts, so that a_1 and b_1, both p(n), share one table: at most 2^24
# bits (2 MiB) of counts in all, each table charged order * _count_bits.
_TABLES = _Memo(2**24)


def _count_table(spec: ColoredFamilySpec, order: int) -> list[int]:
    """c[n] = number of colored partitions of n, for n < order.

    The generating function is prod_d (1 - q^d)^-colors(d), so its
    logarithmic derivative gives n*c(n) = sum_{j=1..n} sigma(j)*c(n-j),
    with sigma(j) = sum_{d | j} d*colors(d).  Each step is one C-level
    dot product; the table costs about order^2 / 2 multiply-adds of
    exact integers, whatever the color count.  The sum is always an
    exact multiple of n, and that is asserted.  Above _MAX_DP_WORK
    (see _dp_work) the table is refused with ValueError before it is
    allocated, or the kept tables are read, so what they hold never
    changes which inputs are refused.

    The longest table built for the spec's color function is kept
    (_TABLES): one at least `order` long is sliced, a shorter one is
    continued from its end, each new count computed as in a cold build.
    A table charged more than the whole budget is returned but not kept.
    The caller gets its own list.
    """
    work = _dp_work(spec, order)
    if work > _MAX_DP_WORK:
        raise ValueError(f"counting needs about {work} multiply-adds, "
                         f"more than the limit of {_MAX_DP_WORK}")
    key = (spec.color_count(1), spec.color_count(2))
    c = list((_TABLES.get(key) or (1,))[:order])
    if len(c) == order:
        return c
    sigma = [0] * order  # sigma[j - 1] = sigma(j)
    for d in range(1, order):
        weight = d * spec.color_count(d)
        for multiple in range(d - 1, order - 1, d):
            sigma[multiple] += weight
    for n in range(len(c), order):
        total = sum(map(operator.mul, sigma, reversed(c)))
        quotient, remainder = divmod(total, n)
        assert remainder == 0, f"divisor-sum recurrence: {total} not divisible by {n}"
        c.append(quotient)
    _TABLES.store(key, tuple(c), order, order * _count_bits(spec, order - 1))
    return c


def count(spec: ColoredFamilySpec, n: int) -> int:
    """Number of colored partitions of n under the spec, read from the
    kept count table, which is continued through n if it is shorter."""
    n = _int_value(n, "n")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _count_table(spec, n + 1)[n]


def oracle_series(spec: ColoredFamilySpec, order: int) -> TruncatedSeries:
    """Generating series of the family, built purely from the counts:
    the kept count table through the order, continued if it is shorter."""
    order = _int_value(order, "order")
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncatedSeries(_count_table(spec, order))


def enumerate_partitions(spec: ColoredFamilySpec, n: int,
                         cap: int = 40) -> list[ColoredPartition]:
    """All colored partitions of n, in descending lexicographic order
    by the colored-part order (so the listing starts at the largest
    part with the highest color).

    Raises CapExceededError for n beyond `cap`, or when there are more
    than _MAX_LISTING partitions of n: past either point the caller
    almost certainly wanted count(), not a listing.
    """
    cap = _int_value(cap, "cap")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > cap:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {cap}")
    total = count(spec, n)
    if total > _MAX_LISTING:
        raise CapExceededError(f"{spec.label} has {total} partitions of {n}, more than "
                               f"the listing limit of {_MAX_LISTING}; count them instead")
    if n == 0:
        return [ColoredPartition(spec, ())]

    out: list[ColoredPartition] = []
    acc: list[tuple[int, int]] = []
    trusted = ColoredPartition._trusted

    def descend(remaining: int, max_weight: int, max_color: int) -> None:
        if remaining == 0:
            out.append(trusted(spec, tuple(acc)))
            return
        for w in range(min(remaining, max_weight), 0, -1):
            top = spec.color_count(w)
            if w == max_weight:
                top = min(top, max_color)
            for c in range(top, 0, -1):
                acc.append((w, c))
                descend(remaining - w, w, c)
                acc.pop()

    descend(n, n, spec.color_count(n))
    return out
