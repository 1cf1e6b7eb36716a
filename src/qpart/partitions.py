"""Colored-partition counting by dynamic programming and exhaustive listing.

Two families, parametrized by a color count k:

* ODD_COLORED ("a"): odd part weights carry one of k colors, even
  weights are monochromatic.
* EVEN_COLORED ("b"): the mirror family; even weights carry the colors.

Everything here is combinatorial ground truth, independent of the
q-series pipeline: the DP treats a weight with c colors as c unbounded
part types and never touches Pochhammer code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .series import TruncatedSeries


class CapExceededError(ValueError):
    """Refusal to list partitions beyond the enumeration cap."""


class Family(enum.Enum):
    ODD_COLORED = "a"
    EVEN_COLORED = "b"


@dataclass(frozen=True)
class ColoredFamilySpec:
    """Which family and how many colors on the colored parity."""

    family: Family
    colors: int

    def __post_init__(self) -> None:
        if not isinstance(self.colors, int) or self.colors < 1:
            raise ValueError(f"color count must be an integer >= 1, got {self.colors!r}")

    def color_count(self, weight: int) -> int:
        """Number of colors available to a part of the given weight."""
        colored_odd = self.family is Family.ODD_COLORED
        return self.colors if (weight % 2 == 1) == colored_odd else 1

    @property
    def label(self) -> str:
        return f"{self.family.value}_{self.colors}"


@dataclass(frozen=True)
class ColoredPartition:
    """A multiset of (weight, color) parts in canonical descending order.

    Parts compare by weight first, then color, so e.g. 3_1 > 2 > 1_3.
    Monochromatic-parity parts always carry color 1.
    """

    spec: ColoredFamilySpec
    parts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for w, c in self.parts:
            if w < 1 or not 1 <= c <= self.spec.color_count(w):
                raise ValueError(f"part {w}_{c} is not valid for {self.spec.label}")
            if prev is not None and (w, c) > prev:
                raise ValueError("parts must be in descending order")
            prev = (w, c)

    @classmethod
    def _trusted(cls, spec: ColoredFamilySpec,
                 parts: tuple[tuple[int, int], ...]) -> "ColoredPartition":
        """A partition whose parts the caller built valid and in order,
        constructed without the validation of __post_init__."""
        self = object.__new__(cls)
        self.__dict__.update(spec=spec, parts=parts)
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
# additions, as eval_eta refuses an expansion.
_MAX_DP_WORK = 10**8
# enumerate_partitions refuses to list more partitions than this; a
# listing takes about 450 bytes per partition at n = 25.
_MAX_LISTING = 10**6


def _count_table(spec: ColoredFamilySpec, order: int) -> list[int]:
    """dp[n] = number of colored partitions of n, for n < order.

    Unbounded-knapsack update applied once per color of each weight;
    sum_w colors(w) * (order - w), about order^2 * (colors + 1) / 4,
    additions of exact integers.  Above _MAX_DP_WORK the table is
    refused with ValueError before it is allocated.
    """
    work = order * order * (spec.colors + 1) // 4
    if work > _MAX_DP_WORK:
        raise ValueError(f"counting needs about {work} additions, "
                         f"more than the limit of {_MAX_DP_WORK}")
    dp = [0] * order
    dp[0] = 1
    for weight in range(1, order):
        for _ in range(spec.color_count(weight)):
            for total in range(weight, order):
                dp[total] += dp[total - weight]
    return dp


def count(spec: ColoredFamilySpec, n: int) -> int:
    """Number of colored partitions of n under the spec."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _count_table(spec, n + 1)[n]


def oracle_series(spec: ColoredFamilySpec, order: int) -> TruncatedSeries:
    """Generating series of the family, built purely by the DP."""
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
