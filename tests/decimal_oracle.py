"""Exact decimal text of big integers in subquadratic time, as a test oracle.

``str(int)`` and ``int(str)`` take time quadratic in the digits on CPython
3.11, so checking a 50 000-digit row text with ``str`` takes seconds. Reading
the text back instead splits it at a power-of-two digit count: the high part
times a cached power of ten plus the low part, down to about 3 000 digits,
where ``int()`` is fast and inside the interpreter's digit limit. This is the
approach of CPython's ``Lib/_pylong.py`` (gh-90716). It shares no code with
tabaudit's decimal pass, and it accepts only the canonical text: no sign, no
leading zero, no separator, so ``read_int(text) == n`` holds exactly when
``str(n) == text``.
"""

from __future__ import annotations

import re
from functools import cache

#: Below this many digits ``int()`` reads the text directly.
INT_DIGITS = 3000


@cache
def _power_of_ten(digits: int) -> int:
    """10**digits for a power of two ``digits``, squared up from the one below."""
    if digits <= INT_DIGITS:
        return 10**digits
    half = _power_of_ten(digits // 2)
    return half * half


def _read(text: str) -> int:
    if len(text) <= INT_DIGITS:
        return int(text)
    low = 1 << (len(text) - 1).bit_length() - 1   # largest power of two below len(text)
    return _read(text[:-low]) * _power_of_ten(low) + _read(text[-low:])


def read_int(text: str) -> int:
    """The int whose ``str`` is ``text``; any other text raises ``ValueError``."""
    if not re.fullmatch(r"0|[1-9][0-9]*", text):
        raise ValueError(f"not the canonical decimal text of an int: {text[:20]!r}")
    return _read(text)
