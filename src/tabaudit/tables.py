"""Contingency-table data types: 2x2 tables, stratified collections, diffs.

Cell layout follows the epidemiological convention::

                 col 1        col 2
    row 1          a            b        (suspect group)
    row 2          c            d        (comparison group)

Row 1 / column 1 hold the group and outcome of interest, so the
one-sided upper tail of Fisher's exact test always targets cell ``a``.
All counts are plain Python integers and therefore arbitrary precision;
every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class TableValidationError(ValueError):
    """Raised when counts, margins, or labels are structurally inconsistent."""


def _as_count(value, where: str) -> int:
    if isinstance(value, bool):
        raise TableValidationError(f"{where}: count {value!r} is a boolean, not an integer")
    try:
        n = operator.index(value)
    except TypeError:
        raise TableValidationError(f"{where}: count {value!r} is not an integer") from None
    if n < 0:
        raise TableValidationError(f"{where}: count {n} is negative")
    return n


def _as_label_pair(value, where: str) -> tuple[str, str]:
    pair = tuple(str(x) for x in value)
    if len(pair) != 2:
        raise TableValidationError(f"{where}: expected exactly two labels, got {value!r}")
    return pair


@dataclass(frozen=True)
class Table2x2:
    """A 2x2 table of non-negative counts with labeled rows and columns."""

    a: int
    b: int
    c: int
    d: int
    row_labels: tuple[str, str] = ("V", "Other")
    col_labels: tuple[str, str] = ("Incident", "No incident")

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _as_count(getattr(self, name), f"cell {name}"))
        object.__setattr__(self, "row_labels", _as_label_pair(self.row_labels, "row_labels"))
        object.__setattr__(self, "col_labels", _as_label_pair(self.col_labels, "col_labels"))

    @property
    def row1(self) -> int:
        return self.a + self.b

    @property
    def row2(self) -> int:
        return self.c + self.d

    @property
    def col1(self) -> int:
        return self.a + self.c

    @property
    def col2(self) -> int:
        return self.b + self.d

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    def cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def transpose(self) -> "Table2x2":
        """Swap rows and columns (labels travel with their axis)."""
        return Table2x2(self.a, self.c, self.b, self.d,
                        row_labels=self.col_labels, col_labels=self.row_labels)

    def bordered(self) -> list[list[int]]:
        """The 3x3 form with sum row and sum column appended."""
        return [
            [self.a, self.b, self.row1],
            [self.c, self.d, self.row2],
            [self.col1, self.col2, self.total],
        ]

    def scale(self, factor: int) -> "Table2x2":
        """Multiply every cell by a non-negative integer."""
        f = _as_count(factor, "scale factor")
        return Table2x2(self.a * f, self.b * f, self.c * f, self.d * f,
                        row_labels=self.row_labels, col_labels=self.col_labels)


class MarginSummary(NamedTuple):
    row_sums: tuple[int, int]
    col_sums: tuple[int, int]
    total: int


def margins(t: Table2x2) -> MarginSummary:
    """Row sums, column sums, and grand total of a table."""
    return MarginSummary((t.row1, t.row2), (t.col1, t.col2), t.total)


@dataclass(frozen=True)
class StratifiedTable:
    """An ordered, labeled list of 2x2 strata sharing row and column labels."""

    strata: tuple[tuple[str, Table2x2], ...]
    name: str = ""

    def __post_init__(self):
        strata = tuple((str(label), table) for label, table in self.strata)
        if not strata:
            raise TableValidationError("a stratified table needs at least one stratum")
        first = strata[0][1]
        seen: set[str] = set()
        for label, table in strata:
            if label in seen:
                raise TableValidationError(f"duplicate stratum label {label!r}")
            seen.add(label)
            if not isinstance(table, Table2x2):
                raise TableValidationError(f"stratum {label!r} is not a Table2x2")
            if table.row_labels != first.row_labels or table.col_labels != first.col_labels:
                raise TableValidationError(
                    f"stratum {label!r} labels {table.row_labels}/{table.col_labels} differ "
                    f"from {first.row_labels}/{first.col_labels}")
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "name", str(self.name))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.strata)

    @property
    def tables(self) -> tuple[Table2x2, ...]:
        return tuple(table for _, table in self.strata)

    @property
    def row_labels(self) -> tuple[str, str]:
        return self.strata[0][1].row_labels

    @property
    def col_labels(self) -> tuple[str, str]:
        return self.strata[0][1].col_labels

    def get(self, label: str) -> Table2x2:
        for lab, table in self.strata:
            if lab == label:
                return table
        raise KeyError(label)

    def transpose(self) -> "StratifiedTable":
        return StratifiedTable(tuple((lab, t.transpose()) for lab, t in self.strata),
                               name=self.name)


def collapse(s: StratifiedTable) -> Table2x2:
    """Cell-wise sum over all strata (pooling away the stratification)."""
    a = sum(t.a for t in s.tables)
    b = sum(t.b for t in s.tables)
    c = sum(t.c for t in s.tables)
    d = sum(t.d for t in s.tables)
    return Table2x2(a, b, c, d, row_labels=s.row_labels, col_labels=s.col_labels)


class StratumDelta(NamedTuple):
    label: str
    cells: tuple[tuple[int, int], tuple[int, int]]       # b - a, per cell
    row_sums: tuple[int, int]
    col_sums: tuple[int, int]
    total: int


@dataclass(frozen=True)
class DatasetDiff:
    """Signed per-cell differences between two stratified tables (b minus a).

    ``suspect_incident_delta`` and ``other_incident_delta`` summarize how many
    column-1 events moved into or out of each row across all strata; applying
    the diff to the first dataset reproduces the second exactly.
    """

    strata: tuple[StratumDelta, ...]
    suspect_incident_delta: int
    other_incident_delta: int
    total_delta: int

    def is_zero(self) -> bool:
        return all(delta.cells == ((0, 0), (0, 0)) for delta in self.strata)


def diff(a: StratifiedTable, b: StratifiedTable) -> DatasetDiff:
    """Per-stratum, per-cell deltas turning ``a`` into ``b``."""
    if a.labels != b.labels:
        raise TableValidationError(
            f"stratum labels differ: {list(a.labels)} vs {list(b.labels)}")
    deltas = []
    for (label, ta), (_, tb) in zip(a.strata, b.strata):
        cells = ((tb.a - ta.a, tb.b - ta.b), (tb.c - ta.c, tb.d - ta.d))
        deltas.append(StratumDelta(
            label=label,
            cells=cells,
            row_sums=(tb.row1 - ta.row1, tb.row2 - ta.row2),
            col_sums=(tb.col1 - ta.col1, tb.col2 - ta.col2),
            total=tb.total - ta.total,
        ))
    return DatasetDiff(
        strata=tuple(deltas),
        suspect_incident_delta=sum(d.cells[0][0] for d in deltas),
        other_incident_delta=sum(d.cells[1][0] for d in deltas),
        total_delta=sum(d.total for d in deltas),
    )


def apply_diff(a: StratifiedTable, delta: DatasetDiff) -> StratifiedTable:
    """Apply a diff to ``a``; inverse of ``diff(a, b)`` in its second argument."""
    if a.labels != tuple(d.label for d in delta.strata):
        raise TableValidationError("diff stratum labels do not match the dataset")
    strata = []
    for (label, t), d in zip(a.strata, delta.strata):
        (da, db), (dc, dd) = d.cells
        strata.append((label, Table2x2(t.a + da, t.b + db, t.c + dc, t.d + dd,
                                       row_labels=t.row_labels, col_labels=t.col_labels)))
    return StratifiedTable(tuple(strata), name=a.name)


def validate(
    counts: Sequence[Sequence[int]],
    row_sums: Sequence[int] | None = None,
    col_sums: Sequence[int] | None = None,
    total: int | None = None,
    row_labels: Sequence[str] = ("V", "Other"),
    col_labels: Sequence[str] = ("Incident", "No incident"),
) -> Table2x2:
    """Build a Table2x2 from raw counts, checking any redundant margins.

    Accepts either the inner 2x2 cells or the bordered 3x3 form whose last
    row and column carry sums. Margins supplied separately (or embedded in
    the bordered form) are verified against the cell-derived values; any
    mismatch raises an error naming the offending cell.
    """
    rows = [list(r) for r in counts]
    if len(rows) == 2 and all(len(r) == 2 for r in rows):
        inner = rows
        embedded = None
    elif len(rows) == 3 and all(len(r) == 3 for r in rows):
        inner = [rows[0][:2], rows[1][:2]]
        embedded = rows
    else:
        shape = "x".join(str(len(r)) for r in rows) or "empty"
        raise TableValidationError(
            f"expected a 2x2 or bordered 3x3 count grid, got rows of length {shape}")

    t = Table2x2(inner[0][0], inner[0][1], inner[1][0], inner[1][1],
                 row_labels=tuple(row_labels), col_labels=tuple(col_labels))

    derived = margins(t)
    if embedded is not None:
        checks = [
            (embedded[0][2], derived.row_sums[0], f"sum of row {t.row_labels[0]!r}"),
            (embedded[1][2], derived.row_sums[1], f"sum of row {t.row_labels[1]!r}"),
            (embedded[2][0], derived.col_sums[0], f"sum of column {t.col_labels[0]!r}"),
            (embedded[2][1], derived.col_sums[1], f"sum of column {t.col_labels[1]!r}"),
            (embedded[2][2], derived.total, "grand total"),
        ]
        for supplied, expect, where in checks:
            supplied = _as_count(supplied, where)
            if supplied != expect:
                raise TableValidationError(
                    f"{where}: supplied {supplied} != {expect} derived from cells")

    if row_sums is not None:
        for supplied, expect, label in zip(row_sums, derived.row_sums, t.row_labels):
            if supplied != expect:
                raise TableValidationError(
                    f"sum of row {label!r}: supplied {supplied} != {expect} derived from cells")
    if col_sums is not None:
        for supplied, expect, label in zip(col_sums, derived.col_sums, t.col_labels):
            if supplied != expect:
                raise TableValidationError(
                    f"sum of column {label!r}: supplied {supplied} != {expect} derived from cells")
    if total is not None and total != derived.total:
        raise TableValidationError(
            f"grand total: supplied {total} != {derived.total} derived from cells")
    return t
