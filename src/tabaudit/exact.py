"""Exact hypergeometric and binomial kernels in rational arithmetic.

Probabilities are computed as :class:`fractions.Fraction` built on Python's
arbitrary-precision integers, so binomial coefficients such as C(1029, 142)
and tails down to 1e-10 carry no rounding error. Conversion to float happens
only at the rendering boundary (``float(Fraction)`` is correctly rounded, so
every rendered value is within half an ulp of the exact one).

Hypergeometric convention: a population of ``population`` shifts contains
``successes`` incident shifts; the suspect works ``draws`` of them and is
observed on ``observed`` incidents. The pmf is::

    C(successes, x) * C(population - successes, draws - x) / C(population, draws)

The one-sided Fisher statistic of a 2x2 table is the upper tail
P(X >= a) of that distribution with population = total, draws = row 1 sum,
successes = column 1 sum. No two-sided variant is provided.

The law is symmetric in its two margins: drawing r of N shifts of which K
are incidents gives the same distribution of x as drawing K of N shifts of
which r are marked, because::

    C(K, x) C(N-K, r-x) / C(N, r) = C(r, x) C(N-r, K-x) / C(N, K)

So the kernels draw whichever margin m has the smaller min(m, N - m), the
size ``math.comb`` works with, and every ``comb`` call takes at most that
many factors. On the sparse tables of the paper's data, few incidents spread
over many shifts, this is the incident count: C(1734, 27) in place of
C(1734, 201). The result is the identical ``Fraction``.

Each tail is summed in integers and reduced to lowest terms once, not once
per term. Consecutive hypergeometric terms have the ratio::

    t(x+1) / t(x) = (successes - x)(draws - x) / ((x + 1)(population - successes - draws + x + 1))

so a backward Horner pass over the ratios gives the sum of t(x) / t(a) as
one integer numerator/denominator pair, and the tail is pmf(a) times that
pair, built as a single ``Fraction``. Binomial terms share the denominator
d**n, where rate = u/d and v = d - u; their integer numerators
T(x) = C(n, x) u**x v**(n-x) step by T(x+1) = T(x) (n - x) u // ((x + 1) v),
which divides exactly. Every tail sums the shorter side of the support:
when fewer terms lie below the threshold than at or above it, the tail is
1 minus their sum. The result is the identical ``Fraction`` either way,
because a ``Fraction`` is always kept in lowest terms.

A binomial tail table keeps each row as integers over the table's shared
``scale = d**n``: the row for k is (scale - below) / scale, where ``below``
sums T(x) for x < k. When fewer terms lie from the table's first threshold
to n than below it, the row is instead ``above`` / scale, where ``above``
sums T(x) for x >= k, and the terms step down from T(n) = u**n by
T(x-1) = T(x) x v // ((n - x + 1) u): the terms at rate v/d stepped up.
Range and monotonicity are checked by comparing those numerators. Every
prime that a row's numerator shares with the scale divides d, so the row
reaches lowest terms by dividing out powers of b = gcd(numerator, d,
denominator): b, b**2, b**4, ... while each divides both, then the rest one
square at a time, and again with the next, smaller b until it is 1. Each step is a gcd or a
division by an int at most as long as the shared part, never a gcd of two
big ints of the row's length, and the steps grow logarithmically in the
shared power. A row carries its reduced numerator and denominator and its
decimal text; its ``Fraction`` (the identical one) is built on its first
read and kept.

:func:`tail_table` writes each row's decimal text in the loop that builds
the row, from the same recurrence run in ``decimal.Decimal`` alongside the
int one, under a context that cannot round: ``prec=MAX_PREC``,
``Emax=MAX_EMAX``, ``Emin=MIN_EMIN``, with ``Inexact`` and ``Rounded``
trapped. It starts from ``Decimal(v) ** n`` (``Decimal(u) ** n`` when it
steps down) and ``Decimal(d) ** n``, so no big int is ever converted to
decimal, which takes quadratic time (``str(int)`` on CPython 3.11,
``Decimal(int)``). A row's text is its numerator over scale, divided by G,
over scale / G, where G is the product of ``Decimal(b) ** e`` over the
``(b, e)`` pairs that reduced the row. Both divisions are exact. The steps, the
divisions and ``str(Decimal)`` take time linear in the digits while G is
short, as it is for most rows, and G = 1 needs no division. Rows equal to 0
or 1 are written directly. Every output format serializes every table it
builds, so the text is built with the row rather than on demand.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, localcontext)
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import comb, gcd, prod

from .render import fraction_text
from .tables import Table2x2


class SupportError(ValueError):
    """An outcome lies outside the distribution's support."""


def _as_int(value, field: str) -> int:
    """``value`` as an ``int``; a boolean or non-integer raises ``ValueError``
    naming ``field`` instead of being truncated or read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def _as_number(value, field: str, outside: str = "") -> Fraction:
    """``value`` as an exact rational; a boolean or a non-number raises
    ``ValueError`` naming ``field``. Given ``outside``, so does a value outside
    [0, 1], with ``outside`` formatted with the text as given, or else with
    the rational as :func:`render.fraction_text` writes it at any size, as
    the message.

    Text is read by ``Decimal`` once, before ``Fraction`` sees it.
    ``Decimal`` keeps the exponent that ``Fraction`` writes out digit by digit
    (``Fraction("1e-100000000")`` builds 10**100000000), so these checks take
    time linear in the text: text outside [0, 1], text whose exponent passes
    ``sys.get_int_max_str_digits()`` (the interpreter's own limit on reading
    an ``int`` from text) and text with an exponent too long for ``Decimal``
    to read (beyond about 1e18) are refused. Other text ``Decimal`` cannot
    read, such as "1/3", is left to ``Fraction``.
    """
    if isinstance(value, str):
        try:
            d = Decimal(value)
        except InvalidOperation:
            if re.search(r"[eE][-+]?[0-9]", value):
                raise ValueError(f"{field} {value!r} has an exponent too large to read") from None
        else:
            if outside and d.is_finite() and not 0 <= d <= 1:
                raise ValueError(outside.format(value))
            exponent, limit = d.as_tuple().exponent, sys.get_int_max_str_digits()
            if isinstance(exponent, int) and limit and abs(exponent) > limit:   # not inf or nan
                raise ValueError(f"{field} {value!r} spans more than {limit} digits")
    if not isinstance(value, bool):
        try:
            number = Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
        else:
            if outside and not 0 <= number <= 1:
                raise ValueError(outside.format(fraction_text(*number.as_integer_ratio())))
            return number
    raise ValueError(f"{field} must be a rational number, got {value!r}")


def _as_rate(value) -> Fraction:
    """``value`` as an exact probability; a boolean, a non-number or a value
    outside [0, 1] raises ``ValueError``."""
    return _as_number(value, "rate", "rate {} outside [0, 1]")


def _margins(population, draws, successes) -> tuple[int, int, int]:
    """The hypergeometric counts as ints, each margin inside [0, population]:
    the one check of ``HypergeomParams``, ``hypergeom_upper_tail`` and the
    hypergeometric simulator."""
    population = _as_int(population, "population")
    draws, successes = _as_int(draws, "draws"), _as_int(successes, "successes")
    if population < 0:
        raise ValueError(f"population {population} is negative")
    if not 0 <= draws <= population:
        raise ValueError(f"draws {draws} outside [0, {population}]")
    if not 0 <= successes <= population:
        raise ValueError(f"successes {successes} outside [0, {population}]")
    return population, draws, successes


@dataclass(frozen=True)
class HypergeomParams:
    """Parameters and observed outcome of a hypergeometric draw."""

    population: int     # total shifts
    draws: int          # suspect's shifts
    successes: int      # total incidents
    observed: int       # incidents on the suspect's shifts

    def __post_init__(self):
        n, r, k = _margins(self.population, self.draws, self.successes)
        x = _as_int(self.observed, "observed")
        for field, value in zip(("population", "draws", "successes", "observed"), (n, r, k, x)):
            object.__setattr__(self, field, value)
        lo, hi = max(0, r + k - n), min(r, k)
        if not lo <= x <= hi:
            raise SupportError(f"observed {x} outside support [{lo}, {hi}]")


def _hyper_count(population: int, draws: int, successes: int, x: int) -> int:
    """Number of draws with exactly ``x`` successes: the pmf numerator."""
    return comb(successes, x) * comb(population - successes, draws - x)


def _drawn_first(population: int, draws: int, successes: int) -> tuple[int, int]:
    """``(draws, successes)``, swapped if ``successes`` is the margin m with the
    smaller min(m, population - m): the law is symmetric in the two margins."""
    if min(successes, population - successes) < min(draws, population - draws):
        return successes, draws
    return draws, successes


def hypergeom_pmf(params: HypergeomParams) -> Fraction:
    """Exact probability of the observed outcome."""
    n = params.population
    r, k = _drawn_first(n, params.draws, params.successes)
    return Fraction(_hyper_count(n, r, k, params.observed), comb(n, r))


def _ratio_sum(ratios) -> tuple[int, int]:
    """``(num, den)`` with num/den = 1 + r_m (1 + ... r_2 (1 + r_1)).

    r_i = p_i / q_i is the i-th ``(p, q)`` pair that ``ratios`` yields, so the
    innermost ratio comes first (a Horner pass, integers only).
    """
    num = den = 1
    for p, q in ratios:
        num, den = q * den + p * num, q * den
    return num, den


def hypergeom_upper_tail(population: int, draws: int, successes: int, k: int) -> Fraction:
    """P(X >= k) for the hypergeometric; 1 below the support, 0 above it."""
    population, draws, successes = _margins(population, draws, successes)
    k = _as_int(k, "k")
    draws, successes = _drawn_first(population, draws, successes)
    lo, hi = max(0, draws + successes - population), min(draws, successes)
    if k <= lo:
        return Fraction(1)
    if k > hi:
        return Fraction(0)
    slack = population - successes - draws
    total = comb(population, draws)
    if k - lo < hi - k:
        # 1 - sum of t(x) for x = lo..k-1, Horner over t(x-1)/t(x) from x = lo+1 up
        num, den = _ratio_sum(
            (x * (slack + x), (successes - x + 1) * (draws - x + 1)) for x in range(lo + 1, k)
        )
        scale = total * den
        return Fraction(scale - _hyper_count(population, draws, successes, k - 1) * num, scale)
    # sum of t(x) for x = k..hi, Horner over t(x+1)/t(x) from x = hi-1 down
    num, den = _ratio_sum(
        ((successes - x) * (draws - x), (x + 1) * (slack + x + 1)) for x in range(hi - 1, k - 1, -1)
    )
    return Fraction(_hyper_count(population, draws, successes, k) * num, total * den)


def fisher_upper_tail(t: Table2x2) -> Fraction:
    """P(X >= a) under the hypergeometric null with the table's margins fixed."""
    return hypergeom_upper_tail(t.total, t.row1, t.col1, t.a)


@dataclass(frozen=True)
class BinomialParams:
    """Number of draws and an exact rational success probability."""

    draws: int
    rate: Fraction

    def __post_init__(self):
        draws = _as_int(self.draws, "draws")
        if draws < 0:
            raise ValueError(f"draws {draws} is negative")
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "rate", _as_rate(self.rate))


def _numerators(n: int, rate: Fraction, x: int, kind=int):
    """T(j) = C(n, j) u**j v**(n-j) for j = x..n, where rate = u/d and v = d - u.

    T(j) / d**n is the binomial pmf at j. The terms are ``kind``: ``int``, or
    ``Decimal`` under an exact context from x = 0, where the first term is
    ``Decimal(v) ** n`` and no big integer is converted. At rate 1 they are ints.
    """
    u = rate.numerator
    v = rate.denominator - u
    if v == 0:  # rate 1: all mass at n
        yield from (int(j == n) for j in range(x, n + 1))
        return
    t = comb(n, x) * u**x * kind(v) ** (n - x)
    for j in range(x, n + 1):
        yield t
        t = t * ((n - j) * u) // ((j + 1) * v)


def binomial_pmf(params: BinomialParams, x: int) -> Fraction:
    """Exact probability of exactly ``x`` successes in ``draws`` draws."""
    n = params.draws
    if not 0 <= x <= n:
        raise SupportError(f"outcome {x} outside support [0, {n}]")
    return Fraction(next(_numerators(n, params.rate, x)), params.rate.denominator**n)


def binomial_upper_tail(params: BinomialParams, k: int) -> Fraction:
    """P(X >= k); 1 below the support, 0 above it."""
    k = _as_int(k, "k")
    n = params.draws
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    scale = params.rate.denominator**n
    if k < n - k:
        return Fraction(scale - sum(islice(_numerators(n, params.rate, 0), k)), scale)
    return Fraction(sum(_numerators(n, params.rate, k)), scale)


@dataclass(frozen=True)
class TailRow:
    """P(X >= threshold) = numerator / denominator in lowest terms.

    ``text`` is that fraction in decimal digits, ``"numerator/denominator"``,
    or ``"0"`` or ``"1"``, as :func:`tail_table` writes it; ``exact`` builds
    the ``Fraction`` on its first read and keeps it.
    """

    threshold: int
    numerator: int
    denominator: int
    text: str

    @cached_property
    def exact(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class TailTable:
    """Upper-tail probabilities P(X >= k) for a consecutive range of thresholds.

    Every row's denominator divides ``scale``, so the rows are checked by
    comparing integer numerators over that one shared denominator. Each row
    of a table from :func:`tail_table` carries its decimal text.
    """

    rows: tuple[TailRow, ...]
    scale: int

    def __post_init__(self):
        prev = None
        for row in self.rows:
            if row.denominator < 1 or self.scale % row.denominator:
                raise ValueError(f"denominator at {row.threshold} does not divide the scale")
            tail = row.numerator * (self.scale // row.denominator)  # the row over ``scale``
            if not 0 <= tail <= self.scale:
                raise ValueError(f"tail at {row.threshold} outside [0, 1]")
            if prev is not None and tail > prev:
                raise ValueError(f"tail increases at threshold {row.threshold}")
            prev = tail

    def at(self, threshold: int) -> Fraction:
        for row in self.rows:
            if row.threshold == threshold:
                return row.exact
        raise KeyError(threshold)


def _lowest_terms(num: int, d: int, scale: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """``num / scale`` in lowest terms, where ``scale`` is a power of ``d``,
    and the part divided out: ``(num', den', shared)`` with gcd(num, scale)
    equal to the product of ``b**e`` over the ``(b, e)`` pairs in ``shared``.

    Every prime shared by ``num`` and a divisor of ``scale`` divides ``d``, so
    ``b = gcd(num, d, den)`` holds every prime still shared. The largest power
    of ``b`` that divides both is divided out by squaring: ``b``, ``b**2``,
    ``b**4``, ... while ``h = gcd(num, square, den)`` shows the square divides
    both. The first ``h`` that falls short holds the rest of the power, so the
    rest is read off ``h`` (a divisor of that square, not of the row's length)
    one square at a time on the way back down, and the next ``b`` is
    gcd(h, d): it divides the last ``b`` and is smaller, so there are at most
    log2(d) of them. A row equal to 1/2 at rate
    1/2 (numerator 2**(n-1)) takes one ``b`` and about log2(n) gcds of big
    ints, not n. 0 and 1 are answered directly.
    """
    if num == 0:
        return 0, 1, ()
    if num == scale:
        return 1, 1, ()
    den, shared = scale, []
    b = gcd(num, d, den)
    while b > 1:
        num, den, powers = num // b, den // b, [b]   # powers[i] = b**(2**i)
        while (h := gcd(num, m := powers[-1] ** 2, den)) == m:
            num, den = num // m, den // m
            powers.append(m)
        e = (1 << len(powers)) - 1
        for i in reversed(range(len(powers))):
            if h % powers[i] == 0:
                num, den, h, e = num // powers[i], den // powers[i], h // powers[i], e + (1 << i)
        shared.append((b, e))
        b = gcd(h, d)
    return num, den, tuple(shared)


#: Decimal arithmetic that never rounds: every operation is exact or raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def tail_table(params: BinomialParams, k_min: int, k_max: int) -> TailTable:
    """Tail rows for thresholds ``k_min`` through ``k_max`` inclusive.

    Thresholds are taken literally: the row for k is P(X >= k). The int
    recurrence gives each row in lowest terms and the exact ``Decimal`` one,
    stepped with it, gives its text (see the module docstring). Both sum the
    shorter side: up from x = 0, or down from x = n when fewer terms lie
    from ``k_min`` to n than below it. Rows that divide out the same
    ``(b, e)`` pairs share G and the denominator's text.
    """
    k_min, k_max = _as_int(k_min, "k_min"), _as_int(k_max, "k_max")
    n = params.draws
    if not 0 <= k_min <= k_max <= n + 1:
        raise SupportError(f"threshold range [{k_min}, {k_max}] outside [0, {n + 1}]")
    d = params.rate.denominator
    scale = d**n
    # T at rate 1 - u/d runs T(n), T(n-1), ..., T(0), from u**n down
    upper = n + 1 - k_min < k_min   # fewer terms from k_min to n than below it
    if upper:
        thresholds, rate, skip = range(k_max, k_min - 1, -1), 1 - params.rate, n + 1 - k_max
    else:
        thresholds, rate, skip = range(k_min, k_max + 1), params.rate, k_min
    rows, denominators = [], {}   # shared pairs -> (G, text of scale / G)
    with localcontext(_EXACT):
        terms = _numerators(n, rate, 0)
        decimal_terms = _numerators(n, rate, 0, Decimal)
        partial = sum(islice(terms, skip))
        decimal_scale = Decimal(d) ** n
        decimal_partial = sum(islice(decimal_terms, skip), Decimal(0))
        for k in thresholds:
            num, den, shared = _lowest_terms(partial if upper else scale - partial, d, scale)
            if den == 1:   # the row is 0 or 1
                text = str(num)
            else:
                if shared not in denominators:
                    g = prod(Decimal(b) ** e for b, e in shared)
                    denominators[shared] = g, str(decimal_scale // g)
                g, den_text = denominators[shared]
                decimal_tail = decimal_partial if upper else decimal_scale - decimal_partial
                text = f"{decimal_tail // g}/{den_text}"
            rows.append(TailRow(k, num, den, text))
            partial += next(terms, 0)
            decimal_partial += next(decimal_terms, 0)
    return TailTable(tuple(rows[::-1] if upper else rows), scale)
