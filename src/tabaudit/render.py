"""Number and table formatting shared by reports and the CLI.

:func:`render` is the one writer of an exact value: its JSON entry carries
the fraction text, the correctly rounded float and a display string of 6
significant figures. The text layouts read those strings from the JSON
document, so a number reads the same in every format.

A float displays as ``format(x, ".6g")``, its exact value correctly rounded to
6 significant figures. Only :func:`render` falls back to the exact value, where
the quotient's float lost figures: past the float range, or below its normal
range for a non-zero value.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Sequence


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


def fraction_text(num: int, den: int) -> str:
    """``"num/den"``, or ``"num"`` where ``den`` is 1, in decimal digits at any size."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal prints any size
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def int_json(value: int, field: str) -> int:
    """``value``, or ``ValueError`` naming ``field`` where it has more digits
    than ``sys.get_int_max_str_digits()`` lets ``str`` write: the one check
    of an int that a document carries bare, worded as :mod:`datasets` words
    that limit for input."""
    limit = sys.get_int_max_str_digits()
    # below 2**(3 * limit), and so below 10**limit, no power of 10 is built
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise ValueError(f"{field}: an integer has more than {limit} digits, "
                         "the limit of sys.get_int_max_str_digits()")
    return value


def render(num: int, den: int, text: str | None = None) -> dict:
    """JSON entry for the exact value ``num / den`` in lowest terms: fraction
    text, float value, display. ``text`` is the fraction text if it is
    already written.

    The float is the correctly rounded quotient of the numerator and
    denominator, as ``float(Fraction)`` computes it, or null past the float
    range.
    """
    if text is None:
        text = fraction_text(num, den)
    try:
        value = num / den
    except OverflowError:
        value = None
    # past the float range, or below its normal range, a non-zero float keeps
    # fewer than 6 figures of the value: display the exact value instead
    if num and (value is None or abs(value) < sys.float_info.min):
        display = _sig6_exact(Fraction(num, den))
    else:
        display = format(value, ".6g")
    return {"fraction": text, "value": value, "display": display}


def inverse(num: int, den: int, text: str) -> dict | None:
    """:func:`render` of ``den / num``, the reciprocal of the value that ``text``
    writes as ``num / den`` in lowest terms, or None where ``num`` is 0. The
    two parts of ``text`` are swapped, ``"1"`` standing in for a missing one."""
    if num == 0:
        return None
    top, _, bottom = text.partition("/")
    bottom = bottom or "1"
    return render(den, num, bottom if num == 1 else f"{bottom}/{top}")


def exact_json(f: Fraction | None) -> dict | None:
    """:func:`render` of an exact rational, or None."""
    return None if f is None else render(f.numerator, f.denominator)


def float_json(x: float | None) -> dict | None:
    return None if x is None else {"value": x, "display": format(x, ".6g")}


def text_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Align a small table, indented two spaces; the first column
    left-justified, the rest right."""
    table = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append("  " + "  ".join(cells).rstrip())
    return "\n".join(lines)
