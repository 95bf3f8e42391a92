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
from functools import cached_property
from typing import NamedTuple


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


def _as_label(value, where: str) -> str:
    if not isinstance(value, str):
        raise TableValidationError(f"{where}: {value!r} is not a string")
    return value


def _as_label_pair(value, where: str) -> tuple[str, str]:
    try:   # a bare string is not a pair: "VO" would split into ("V", "O")
        pair = () if isinstance(value, str) else tuple(_as_label(x, where) for x in value)
    except TypeError:   # nor is a value that is not iterable
        pair = ()
    if len(pair) != 2:
        raise TableValidationError(f"{where}: expected exactly two labels, got {value!r}")
    return pair


def _as_stratum(entry) -> tuple[str, Table2x2]:
    try:
        label, table = entry
    except (TypeError, ValueError):
        raise TableValidationError(f"stratum entry {entry!r}: not a (label, table) pair") from None
    return _as_label(label, "stratum label"), table


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


@dataclass(frozen=True)
class StratifiedTable:
    """An ordered, labeled list of 2x2 strata sharing row and column labels."""

    strata: tuple[tuple[str, Table2x2], ...]
    name: str = ""

    def __post_init__(self):
        strata = tuple(_as_stratum(entry) for entry in self.strata)
        if not strata:
            raise TableValidationError("a stratified table needs at least one stratum")
        first = strata[0][1]
        seen: set[str] = set()
        for label, table in strata:
            if label in seen:
                raise TableValidationError(f"duplicate stratum label {label!r}")
            if label == POOLED_LABEL:
                raise TableValidationError(f"stratum label {label!r} names the pooled table")
            seen.add(label)
            if not isinstance(table, Table2x2):
                raise TableValidationError(f"stratum {label!r} is not a Table2x2")
            if table.row_labels != first.row_labels or table.col_labels != first.col_labels:
                raise TableValidationError(
                    f"stratum {label!r} labels {table.row_labels}/{table.col_labels} differ "
                    f"from {first.row_labels}/{first.col_labels}")
        object.__setattr__(self, "strata", strata)
        _as_label(self.name, "name")

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

    @cached_property
    def _pooled(self) -> Table2x2:
        """Cell-wise sum over all strata, built on the first read and kept."""
        a = sum(t.a for t in self.tables)
        b = sum(t.b for t in self.tables)
        c = sum(t.c for t in self.tables)
        d = sum(t.d for t in self.tables)
        return Table2x2(a, b, c, d, row_labels=self.row_labels, col_labels=self.col_labels)


#: The stratum label of a pooled (collapsed) table, which no stratum may carry.
POOLED_LABEL = "All"


def collapse(s: StratifiedTable) -> Table2x2:
    """Cell-wise sum over all strata (pooling away the stratification).

    The result is cached on the instance: every call on one table returns the
    same ``Table2x2``, summed once. Both are immutable, so the cache cannot go
    stale.
    """
    return s._pooled


class StratumDelta(NamedTuple):
    stratum: str
    cells: tuple[tuple[int, int], tuple[int, int]]       # b - a, per cell
    row_sums: tuple[int, int]
    col_sums: tuple[int, int]
    total: int


@dataclass(frozen=True)
class DatasetDiff:
    """Signed per-cell differences between two stratified tables (b minus a).

    ``suspect_incident_delta`` and ``other_incident_delta`` summarize how many
    column-1 events moved into or out of each row across all strata; adding
    the cell deltas to the first dataset reproduces the second exactly.
    """

    strata: tuple[StratumDelta, ...]
    suspect_incident_delta: int
    other_incident_delta: int
    total_delta: int


def diff(a: StratifiedTable, b: StratifiedTable) -> DatasetDiff:
    """Per-stratum, per-cell deltas turning ``a`` into ``b``."""
    if a.labels != b.labels:
        raise TableValidationError(
            f"stratum labels differ: {list(a.labels)} vs {list(b.labels)}")
    deltas = []
    for (label, ta), (_, tb) in zip(a.strata, b.strata):
        cells = ((tb.a - ta.a, tb.b - ta.b), (tb.c - ta.c, tb.d - ta.d))
        deltas.append(StratumDelta(
            stratum=label,
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
