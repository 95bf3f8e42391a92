"""Embedded datasets and dataset file I/O.

Three datasets ship with the package:

* ``original`` - the uncorrected shift/incident counts for the three wards
  (JKZ, RKZ1, RKZ2) used in the prosecution's calculation.
* ``derksen`` - the conservative correction of those counts (same border
  totals, allocations checked against the rosters).
* ``shops`` - the two-shop hat-fitting example, the textbook
  Simpson-paradox illustration.

JSON schema (canonical)::

    {"name": str, "row_labels": [str, str], "col_labels": [str, str],
     "strata": [{"label": str, "counts": [[a, b], [c, d]]}]}

CSV alternative: optional header, then one row per stratum with columns
``stratum,a,b,c,d``.

Schema and syntax problems raise :class:`DatasetFormatError` (an input
error); structurally valid files with bad counts raise
:class:`~tabaudit.tables.TableValidationError` (a validation error).
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path
from typing import Mapping

from .render import too_many_digits
from .tables import StratifiedTable, Table2x2


class DatasetFormatError(ValueError):
    """Raised when a dataset file or document is malformed."""


class UnknownDatasetError(KeyError):
    """Raised when an embedded dataset name does not exist."""


def _make(name, row_labels, col_labels, strata):
    return StratifiedTable(
        tuple(
            (label, Table2x2(a, b, c, d, row_labels=row_labels, col_labels=col_labels))
            for label, (a, b, c, d) in strata
        ),
        name=name,
    )


EMBEDDED: dict[str, StratifiedTable] = {
    "original": _make(
        "original",
        ("V", "Other"),
        ("Incident", "No incident"),
        [("JKZ", (8, 134, 0, 887)), ("RKZ1", (1, 0, 4, 361)), ("RKZ2", (5, 53, 9, 272))],
    ),
    "derksen": _make(
        "derksen",
        ("V", "Other"),
        ("Incident", "No incident"),
        [("JKZ", (4, 138, 1, 886)), ("RKZ1", (1, 2, 4, 359)), ("RKZ2", (1, 57, 9, 272))],
    ),
    "shops": _make(
        "shops",
        ("Green", "Blue"),
        ("Fit", "No fit"),
        [("Shop1", (5, 1, 8, 2)), ("Shop2", (2, 8, 1, 5))],
    ),
}

#: Published multiway correlation of each embedded dataset; metadata only.
MULTIWAY_REFERENCE: dict[str, float] = {
    "original": 0.337002,
    "derksen": 0.246024,
    "shops": 0.665851,
}

#: Roster size of the post-hoc correction: the nurses of the case's wards.
DEFAULT_N_NURSES = 27


def available() -> tuple[str, ...]:
    return tuple(EMBEDDED)


def get(name: str) -> StratifiedTable:
    try:
        return EMBEDDED[name]
    except KeyError:
        known = ", ".join(sorted(EMBEDDED))
        raise UnknownDatasetError(f"unknown dataset {name!r} (embedded: {known})") from None


def to_json_dict(s: StratifiedTable) -> dict:
    return {
        "name": s.name,
        "row_labels": list(s.row_labels),
        "col_labels": list(s.col_labels),
        "strata": [
            {"label": label, "counts": [[t.a, t.b], [t.c, t.d]]} for label, t in s.strata
        ],
    }


def from_json_dict(doc: Mapping, source: str = "<json>") -> StratifiedTable:
    if not isinstance(doc, Mapping):
        raise DatasetFormatError(f"{source}: dataset document must be an object")
    try:
        name = doc.get("name", "")
        row_labels = doc["row_labels"]
        col_labels = doc["col_labels"]
        raw_strata = doc["strata"]
    except KeyError as exc:
        raise DatasetFormatError(f"{source}: missing key {exc.args[0]!r}") from None
    for key, labels in (("row_labels", row_labels), ("col_labels", col_labels)):
        if not (isinstance(labels, list) and len(labels) == 2
                and all(isinstance(label, str) for label in labels)):
            raise DatasetFormatError(f"{source}: {key} must be a list of two strings, "
                                     f"got {labels!r}")
    if not isinstance(name, str):
        raise DatasetFormatError(f"{source}: name must be a string, got {name!r}")
    if not isinstance(raw_strata, list) or not raw_strata:
        raise DatasetFormatError(f"{source}: 'strata' must be a non-empty list")
    strata = []
    for i, entry in enumerate(raw_strata):
        try:
            label = entry["label"]
            counts = entry["counts"]
        except (TypeError, KeyError):
            raise DatasetFormatError(
                f"{source}: stratum {i} needs 'label' and 'counts'") from None
        if not isinstance(label, str):
            raise DatasetFormatError(f"{source}: stratum {i} label {label!r} must be a string")
        if (
            not isinstance(counts, list)
            or len(counts) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in counts)
        ):
            raise DatasetFormatError(f"{source}: stratum {label!r} counts must be [[a,b],[c,d]]")
        (a, b), (c, d) = counts
        strata.append(
            (label, Table2x2(a, b, c, d, row_labels=row_labels, col_labels=col_labels))
        )
    return StratifiedTable(tuple(strata), name=name)


def _read_text(path: Path) -> str:
    """The file's text as UTF-8 whatever the locale, less a leading byte-order
    mark (as Excel's "CSV UTF-8" writes); a bad byte is an input error."""
    try:
        # not "utf-8-sig": it decodes the bytes after the mark, so a bad
        # byte's offset would be 3 short
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 at byte {exc.start} ({exc.reason})") from None


def load_json(path: str | Path) -> StratifiedTable:
    path = Path(path)
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except RecursionError:   # the decoder recurses once per nested array or object
        raise DatasetFormatError(f"{path}: invalid JSON: nested too deeply") from None
    except ValueError:   # the one other failure: int() refusing a number's digits
        raise DatasetFormatError(too_many_digits(str(path))) from None
    return from_json_dict(doc, source=str(path))


def from_csv_text(text: str, name: str = "", source: str = "<csv>") -> StratifiedTable:
    reader = csv.reader(io.StringIO(text))
    records = []   # (physical line where the record starts, record)
    start = 1
    try:
        for row in reader:
            records.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DatasetFormatError(f"{source}:{reader.line_num}: invalid CSV: {exc}") from None
    strata = []
    for lineno, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        if lineno == 1 and [c.strip().lower() for c in row] == ["stratum", "a", "b", "c", "d"]:
            continue
        if len(row) != 5:
            raise DatasetFormatError(
                f"{source}:{lineno}: expected 5 columns (stratum,a,b,c,d), got {len(row)}")
        label = row[0].strip()
        try:
            a, b, c, d = (int(cell) for cell in row[1:])
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if limit and any(sum(map(str.isdigit, cell)) > limit for cell in row[1:]):
                raise DatasetFormatError(too_many_digits(f"{source}:{lineno}")) from None
            raise DatasetFormatError(
                f"{source}:{lineno}: counts must be integers, got {row[1:]}") from None
        strata.append((label, Table2x2(a, b, c, d)))
    if not strata:
        raise DatasetFormatError(f"{source}: no strata found")
    return StratifiedTable(tuple(strata), name=name)


def load_csv(path: str | Path) -> StratifiedTable:
    path = Path(path)
    return from_csv_text(_read_text(path), name=path.stem, source=str(path))


def load_path(path: str | Path) -> StratifiedTable:
    """Load a dataset file, dispatching on the .json / .csv suffix."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        return load_json(path)
    if suffix == ".csv":
        return load_csv(path)
    raise DatasetFormatError(f"{path}: unsupported dataset suffix {suffix!r} (use .json or .csv)")
