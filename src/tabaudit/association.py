"""Determinant-based association measures for 2x2 tables.

The nominal correlation of a 2x2 table is::

    (a*d - b*c) / sqrt(row1 * row2 * col1 * col2)

Geometrically, the squared value is the product of two area ratios: the
parallelogram spanned by the row vectors (a, b) and (c, d) against the
rectangle of the column sums ("row picture"), and the transposed analogue
against the rectangle of the row sums ("col picture"). Both ratios are kept
as exact rationals so the identity value^2 = row_ratio * col_ratio holds
bit-for-bit before any float conversion.

Stacking the strata of a stratified table into a tall matrix and taking the
Gram determinant of its two columns gives ``flattened_volume_ratio``, this
package's composite association for multi-stratum data. It is a documented
stand-in, not a reimplementation of the multiway measure whose published
values (e.g. 0.337002 for the uncorrected dataset) are defined elsewhere;
those values are carried as reference metadata only and are not reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .tables import StratifiedTable, Table2x2, collapse

#: The stratum label of a pooled (collapsed) row.
POOLED_LABEL = "All"


@dataclass(frozen=True)
class NominalCorrelationResult:
    """Correlation value with its determinant and the two orientation ratios.

    If a margin is zero the affected ratio and the value are defined as 0:
    a table with no variation in a row or column carries no association.
    """

    det: int
    row_picture_ratio: Fraction   # det / (col1 * col2), 0 when that product is 0
    col_picture_ratio: Fraction   # det / (row1 * row2), 0 when that product is 0
    value: float

    @property
    def value_squared(self) -> Fraction:
        """Exact square of the correlation (product of the two ratios)."""
        return self.row_picture_ratio * self.col_picture_ratio


def nominal_correlation(t: Table2x2) -> NominalCorrelationResult:
    det = t.a * t.d - t.b * t.c
    col_prod = t.col1 * t.col2
    row_prod = t.row1 * t.row2
    if col_prod == 0 or row_prod == 0:
        zero = Fraction(0)
        return NominalCorrelationResult(det, zero, zero, 0.0)
    row_ratio = Fraction(det, col_prod)
    col_ratio = Fraction(det, row_prod)
    value = math.sqrt(float(row_ratio * col_ratio))   # sign from det, which may pass the float range
    return NominalCorrelationResult(det, row_ratio, col_ratio, -value if det < 0 else value)


def flattened_volume_ratio(s: StratifiedTable) -> float:
    """Composite association from the stacked (2*strata) x 2 count matrix.

    Returns sqrt(det of the Gram matrix of the two columns) divided by the
    product of the two column sums; 0 when a column sum is 0. Requires at
    least two strata (for a single stratum use ``nominal_correlation``).
    """
    if len(s.strata) < 2:
        raise ValueError("flattened volume ratio needs at least two strata")
    xs = [v for t in s.tables for v in (t.a, t.c)]
    ys = [v for t in s.tables for v in (t.b, t.d)]
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    gram_det = sxx * syy - sxy * sxy
    col1, col2 = sum(xs), sum(ys)
    if col1 == 0 or col2 == 0:
        return 0.0
    return math.sqrt(float(Fraction(gram_det, (col1 * col2) ** 2)))


OddsKind = Literal["finite", "infinite", "undefined"]


@dataclass(frozen=True)
class OddsRatioValue:
    """Exact odds ratio (a*d)/(b*c), or a flagged infinite / undefined marker."""

    kind: OddsKind
    value: Fraction | None = None

    def versus_one(self) -> str:
        """Which side of 1 this ratio falls on: '>1', '=1', '<1', 'undefined'.

        An infinite ratio counts as '>1' (the association points the same way).
        """
        if self.kind == "undefined":
            return "undefined"
        if self.kind == "infinite" or self.value > 1:
            return ">1"
        if self.value == 1:
            return "=1"
        return "<1"


def odds_ratio(t: Table2x2) -> OddsRatioValue:
    num = t.a * t.d
    den = t.b * t.c
    if den == 0:
        if num == 0:
            return OddsRatioValue("undefined")
        return OddsRatioValue("infinite")
    return OddsRatioValue("finite", Fraction(num, den))


@dataclass(frozen=True)
class RateEntry:
    dataset: str
    stratum: str        # POOLED_LABEL marks the pooled row
    group: str          # row label, e.g. "V" or "Other"
    incidents: int
    shifts: int
    rate: Fraction | None   # None when the group has zero shifts


@dataclass(frozen=True)
class RateTable:
    """Per-stratum and pooled incident rates for one or more datasets.

    The pooled rows give the suspect rate p1 and the comparison-group rate p0
    of each dataset; a pooled rate always equals total incidents over total
    shifts, which is the shift-weighted mean of the per-stratum rates.
    """

    entries: tuple[RateEntry, ...]
    pooled: tuple[RateEntry, ...]

    def pooled_rate(self, dataset: str, group: str) -> Fraction | None:
        for e in self.pooled:
            if e.dataset == dataset and e.group == group:
                return e.rate
        raise KeyError((dataset, group))


def _rate(incidents: int, shifts: int) -> Fraction | None:
    return None if shifts == 0 else Fraction(incidents, shifts)


def _group_rates(dataset: str, stratum: str, t: Table2x2) -> tuple[RateEntry, RateEntry]:
    group1, group2 = t.row_labels
    return (RateEntry(dataset, stratum, group1, t.a, t.row1, _rate(t.a, t.row1)),
            RateEntry(dataset, stratum, group2, t.c, t.row2, _rate(t.c, t.row2)))


def rate_table(datasets: Sequence[StratifiedTable]) -> RateTable:
    entries: list[RateEntry] = []
    pooled: list[RateEntry] = []
    for ds in datasets:
        for label, t in ds.strata:
            entries.extend(_group_rates(ds.name, label, t))
        pooled.extend(_group_rates(ds.name, POOLED_LABEL, collapse(ds)))
    return RateTable(tuple(entries), tuple(pooled))


@dataclass(frozen=True)
class FigureModel:
    """Geometry for the determinant picture of a 2x2 table.

    The two row vectors (a, b) and (c, d) span a parallelogram whose area is
    |det|; the bounding rectangle runs from the origin to the column sums, so
    the far parallelogram vertex v1 + v2 is exactly the rectangle's far
    corner. ``area_ratio`` is the parallelogram-to-rectangle area fraction.
    """

    v1: tuple[int, int]
    v2: tuple[int, int]
    v_sum: tuple[int, int]
    rect: tuple[int, int]            # (col 1 sum, col 2 sum)
    parallelogram_area: int          # |a*d - b*c|
    rect_area: int
    area_ratio: Fraction             # 0 when the rectangle is degenerate

    @property
    def polygon(self) -> tuple[tuple[int, int], ...]:
        return ((0, 0), self.v1, self.v_sum, self.v2)


def determinant_figure(t: Table2x2) -> FigureModel:
    det = t.a * t.d - t.b * t.c
    rect_area = t.col1 * t.col2
    ratio = Fraction(abs(det), rect_area) if rect_area else Fraction(0)
    return FigureModel(
        v1=(t.a, t.b),
        v2=(t.c, t.d),
        v_sum=(t.a + t.c, t.b + t.d),
        rect=(t.col1, t.col2),
        parallelogram_area=abs(det),
        rect_area=rect_area,
        area_ratio=ratio,
    )
