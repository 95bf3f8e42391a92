"""Number and table formatting shared by reports and the CLI.

Floats are printed to 6 significant figures; JSON entries carry the exact
fraction and the full-precision float value alongside the display string.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Sequence


def sig6(x) -> str:
    """Render a number to 6 significant figures."""
    return format(float(x), ".6g")


def exact_json(f: Fraction | None) -> dict | None:
    """JSON entry for an exact rational: fraction, float value, display."""
    if f is None:
        return None
    try:
        text = str(f)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal prints any size
        text = str(Decimal(f.numerator))
        if f.denominator != 1:
            text += f"/{Decimal(f.denominator)}"
    value = float(f)
    return {"fraction": text, "value": value, "display": sig6(value)}


def float_json(x: float | None) -> dict | None:
    if x is None:
        return None
    return {"value": x, "display": sig6(x)}


def text_table(headers: Sequence[str], rows: Sequence[Sequence[str]], indent: str = "  ") -> str:
    """Align a small table; the first column left-justified, the rest right."""
    table = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append(indent + "  ".join(cells).rstrip())
    return "\n".join(lines)
