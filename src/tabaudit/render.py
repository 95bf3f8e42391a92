"""Number and table formatting shared by reports and the CLI.

Floats are printed to 6 significant figures; JSON entries carry the exact
fraction and the full-precision float value alongside the display string.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Sequence


def sig6(x) -> str:
    """Render a number to 6 significant figures."""
    return _sig6(x, _to_float(x))


def _to_float(x) -> float | None:
    """``float(x)``, or None where the value is too large for a float."""
    try:
        return float(x)
    except OverflowError:
        return None


def _sig6(x, value: float | None) -> str:
    """``value`` to 6 significant figures, or ``x`` itself if the float lost it:
    on overflow, or as a subnormal, which keeps fewer than 6 significant figures."""
    if value is None or (x != 0 and abs(value) < sys.float_info.min):
        return _sig6_exact(Fraction(x))
    return format(value, ".6g")


def _sig6_exact(f: Fraction) -> str:
    """Exponent form of ``format(f, ".6g")`` from the exact value, at any magnitude.

    The decimal exponent comes from integer bit lengths and is corrected by
    exact comparison, so no float and no capped ``str(int)`` is involved.
    """
    sign = "-" if f < 0 else ""
    f = abs(f)
    e = math.floor((f.numerator.bit_length() - f.denominator.bit_length()) * math.log10(2))
    while f >= Fraction(10) ** (e + 1):
        e += 1
    while f < Fraction(10) ** e:
        e -= 1
    digits = round(f / Fraction(10) ** (e - 5))  # 6 digits, half to even
    if digits == 10**6:
        digits, e = 10**5, e + 1
    head, tail = divmod(digits, 10**5)
    mantissa = f"{head}.{tail:05d}".rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{'-' if e < 0 else '+'}{abs(e):02d}"


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
    value = _to_float(f)  # None (JSON null) past the float range
    return {"fraction": text, "value": value, "display": _sig6(f, value)}


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
