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
per term. The hypergeometric terms t(x) = C(successes, x) C(population -
successes, draws - x), the pmf numerators, step up by the ratio::

    t(x+1) / t(x) = (successes - x)(draws - x) / ((x + 1)(population - successes - draws + x + 1))

as t(x+1) = t(x) (successes - x)(draws - x) // ((x + 1)(...)), which divides
exactly, so the tail P(X >= k) is the ``Fraction`` of the sum of t(x) for
x >= k over C(population, draws). No term is longer than that denominator,
so the one gcd that reduces the sum runs on integers no longer than it.
Binomial terms share the denominator d**n, where rate = u/d and v = d - u;
their integer numerators T(x) = C(n, x) u**x v**(n-x) step up the same way
from T(0) = v**n by T(x+1) = T(x) (n - x) u // ((x + 1) v).

Each law has that one recurrence, and each tail sums one side of the
support and reads the other as a complement. The hypergeometric tail on
[lo, hi] sums the side below k when k - lo < hi - k, else the side at or
above k; the tail below k is read as 1 - P(Y >= draws - k + 1), where
Y = draws - X counts the draws among the population - successes other
shifts, so the same upper pass sums it. The binomial terms at or above k,
T(n), T(n-1), ..., T(k), are read as the first n + 1 - k terms at rate v/d,
so the same upward steps sum them. The result is the identical
``Fraction`` either way, because a ``Fraction`` is always kept in lowest
terms.

Every binomial tail is a row of :func:`tail_table`, the one place where a
binomial tail is summed and checked; :func:`binomial_upper_tail` reads a
one-row table. A table keeps each row as integers over its shared ``scale =
d**n``: the row for k is (scale - below) / scale, where ``below`` sums T(x)
for x < k. When fewer terms lie from the table's first threshold k0 to n
than below it, that is when n + 1 - k0 < k0, the row is instead ``above`` /
scale, where ``above`` sums T(x) for x >= k, stepped up at rate v/d from
T(n) = u**n. Either way the row's numerator steps from the last row's by one
subtraction or addition of a term, and the one comparison per row that
checks range and order is made on those numerators. Every prime that a row's
numerator shares with the scale divides d, so the shared part G =
gcd(numerator, scale) is read off residues by one loop (see
:func:`_reduced`). It starts from m, the largest power of d that fits one
int digit, found once per table. Each pass divides the numerator by
gcd(residue modulo m, m). It stops once no prime of d divides the numerator
as often as it divides m, or once the moduli taken make up the scale;
otherwise it squares m, capped where the moduli taken would pass the scale.
So most rows cost one pass over the numerator with a one-digit divisor, plus
one exact division by G when G > 1, and the quotient is the reduced
numerator.
A row carries its reduced numerator and denominator and its decimal text;
its ``Fraction`` (the identical one) is built on its first read and kept.

:func:`tail_table` writes each row's decimal text in the loop that builds
the row, from the same recurrence run in ``decimal.Decimal`` alongside the
int one, under a context that cannot round: ``prec=MAX_PREC``,
``Emax=MAX_EMAX``, ``Emin=MIN_EMIN``, with ``Inexact`` and ``Rounded``
trapped. It starts from ``Decimal(v) ** n`` (``Decimal(u) ** n`` at rate
v/d) and ``Decimal(d) ** n``, so no row is ever converted to
decimal, which takes quadratic time (``str(int)`` on CPython 3.11,
``Decimal(int)``). A row's text is its numerator over scale, divided by
``Decimal(G)``, over scale / G. Both divisions are exact, and G = 1 needs
none. The table builds scale / G, ``Decimal(G)`` and the denominator's text
once for each distinct G. The steps, the divisions and ``str(Decimal)`` take
time linear in the digits. ``Decimal(G)`` is quadratic in G's digits (40 ms
at 30 000 digits, Python 3.11 on a 2-core Xeon VM), but G exceeds m only
where some prime of d divides a row as often as it divides m, as at the row
2**(n-1) / 2**n of rate 1/2, and summing the terms of a row that long costs
more. Rows equal to 0 or 1, every row at rate 0 or 1 among them, are written
directly. Every output format serializes every table it builds, so the text
is built with the row rather than on demand.
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
from math import comb, gcd

from .render import fraction_text, shown
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
    smaller min(m, population - m): the law is symmetric in the two margins.
    ``ValueError`` where that size passes ``sys.maxsize``, which ``math.comb``
    refuses to take as its count of factors."""
    drawn, marked = min(draws, population - draws), min(successes, population - successes)
    if min(drawn, marked) > sys.maxsize:
        raise ValueError(f"margins draws {shown(draws)} and successes {shown(successes)} of "
                         f"population {shown(population)}: each margin m has "
                         f"min(m, population - m) past math.comb's limit of {sys.maxsize}")
    if marked < drawn:
        return successes, draws
    return draws, successes


def hypergeom_pmf(params: HypergeomParams) -> Fraction:
    """Exact probability of the observed outcome."""
    n = params.population
    r, k = _drawn_first(n, params.draws, params.successes)
    return Fraction(_hyper_count(n, r, k, params.observed), comb(n, r))


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
    complement = k - lo < hi - k
    if complement:   # X < k exactly when at least draws - k + 1 draws miss the incidents
        successes, k = population - successes, draws - k + 1
        hi = min(draws, successes)
    # the integer terms t(x) for x = k..hi, each stepped from the last by exact division
    slack = population - successes - draws
    term = total = _hyper_count(population, draws, successes, k)
    for x in range(k, hi):
        term = term * ((successes - x) * (draws - x)) // ((x + 1) * (slack + x + 1))
        total += term
    tail = Fraction(total, comb(population, draws))
    return 1 - tail if complement else tail


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


def _numerators(n: int, rate: Fraction, kind=int):
    """T(x) = C(n, x) u**x v**(n-x) for x = 0..n, where rate = u/d and v = d - u.

    T(x) / d**n is the binomial pmf at x. The terms are ``kind``: ``int``, or
    ``Decimal`` under an exact context, where T(0) is ``Decimal(v) ** n`` and
    no big integer is converted. At rate 1 they are ints.
    """
    u = rate.numerator
    v = rate.denominator - u
    if v == 0:  # rate 1: all mass at n
        yield from (int(x == n) for x in range(n + 1))
        return
    t = kind(v) ** n
    for x in range(n + 1):
        yield t
        t = t * ((n - x) * u) // ((x + 1) * v)


def binomial_upper_tail(params: BinomialParams, k: int) -> Fraction:
    """P(X >= k); 1 below the support, 0 above it: the one row of
    :func:`tail_table` at k, clamped to [0, n + 1]."""
    k = min(max(_as_int(k, "k"), 0), params.draws + 1)
    return tail_table(params, k, k).rows[0].exact


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

    Every row's denominator divides ``scale``. :func:`tail_table` checks each
    row as it builds it, on its numerator over ``scale``: each row lies in
    [0, 1] and no row exceeds the one before it. Each row carries its
    decimal text.
    """

    rows: tuple[TailRow, ...]
    scale: int

    def at(self, threshold: int) -> Fraction:
        for row in self.rows:
            if row.threshold == threshold:
                return row.exact
        raise KeyError(threshold)


def _reduced(num: int, d: int, scale: int, m: int) -> tuple[int, int]:
    """(num // G, G) for G = gcd(num, scale), the part that ``num / scale``
    shares, for 0 < num < scale, where ``scale`` is a power of ``d`` and m a
    power of ``d`` from ``d`` up to ``scale``; ``tail_table`` passes the
    largest power of ``d`` that fits one int digit, capped at ``scale``. Such a
    ``num`` needs scale > 1, so n >= 1 and m <= scale: at n = 0 the scale is
    1, which m = d passes, but no row lies strictly between 0 and 1.

    Every prime of G divides ``d``. Each pass divides ``num`` by g =
    gcd(num % m, m), which holds each prime p of ``d`` as often as ``num`` or
    m, whichever is fewer. Where p still divides m / g, ``num`` held fewer p
    than m and now holds none. So once every prime of ``d`` divides m / g,
    which ``pow(m // g, d.bit_length(), d) == 0`` tests (no prime divides
    ``d`` more than ``d.bit_length()`` times), the parts divided out make G.
    Otherwise some prime saturated m, and every modulus before it, so m is
    squared, capped where the product of the moduli taken reaches ``scale``:
    ``num`` may hold a prime of ``d`` more often than ``scale`` does, and at
    the cap the parts divided out make G too. Most rows take one pass with a
    one-digit divisor, a row with a saturating prime one more, and the row
    2**(n-1) / 2**n at rate 1/2 about log2(n).
    """
    bits, shared, used = d.bit_length(), 1, 1   # used: the product of the moduli taken
    while True:
        g = gcd(num % m, m)
        if g > 1:
            num //= g
            shared *= g
        if m * used == scale or pow(m // g, bits, d) == 0:
            return num, shared
        used *= m
        m = m * m if used * m * m <= scale else scale // used


#: Decimal arithmetic that never rounds: every operation is exact or raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def tail_table(params: BinomialParams, k_min: int, k_max: int) -> TailTable:
    """Tail rows for thresholds ``k_min`` through ``k_max`` inclusive.

    Thresholds are taken literally: the row for k is P(X >= k). The int
    recurrence gives each row in lowest terms and the exact ``Decimal`` one,
    stepped with it, gives its text (see the module docstring). Both sum the
    shorter side: up from x = 0, or down from x = n when fewer terms lie
    from ``k_min`` to n than below it. Each row is reduced by one loop,
    :func:`_reduced`, from the first modulus found here once per table. Rows
    that share the same G share its denominator and the denominator's text,
    built once per table. This is the one check of a tail row: a row
    outside [0, 1] or above the row before it raises ``ValueError`` here,
    where it is built. Draws past ``sys.maxsize`` raise ``ValueError``
    before any term is computed.
    """
    k_min, k_max = _as_int(k_min, "k_min"), _as_int(k_max, "k_max")
    n = params.draws
    if n > sys.maxsize:   # refused before d**n, which need not finish
        raise ValueError(f"draws {shown(n)} past {sys.maxsize} (sys.maxsize), "
                         "the most an exact binomial tail takes")
    if not 0 <= k_min <= k_max <= n + 1:
        raise SupportError(f"threshold range [{k_min}, {k_max}] outside [0, {n + 1}]")
    d = params.rate.denominator
    scale = d**n
    # m = d <= scale = d**n unless n = 0. The scale is 1 only at d = 1 or
    # n = 0, where every row is 0 or 1 and _reduced is never called
    m = d
    while m < scale and m * d < 1 << sys.int_info.bits_per_digit:
        m *= d
    # T at rate 1 - u/d runs T(n), T(n-1), ..., T(0), from u**n down
    upper = n + 1 - k_min < k_min   # fewer terms from k_min to n than below it
    if upper:
        thresholds, rate, skip = range(k_max, k_min - 1, -1), 1 - params.rate, n + 1 - k_max
    else:
        thresholds, rate, skip = range(k_min, k_max + 1), params.rate, k_min
    rows, denominators = [], {}   # G -> (scale // G, Decimal(G), text of scale // G)
    with localcontext(_EXACT):
        terms = _numerators(n, rate)
        decimal_terms = _numerators(n, rate, Decimal)
        decimal_scale = Decimal(d) ** n
        # the first row over scale: ``above`` when summing down, else scale - ``below``
        num = sum(islice(terms, skip))
        decimal_num = sum(islice(decimal_terms, skip), Decimal(0))
        if not upper:
            num, decimal_num = scale - num, decimal_scale - decimal_num
        prev = 0 if upper else scale
        for k in thresholds:
            # one comparison checks the row's range and its order against the last row
            if not (prev <= num <= scale if upper else 0 <= num <= prev):
                raise ValueError(f"tail at {k} outside [0, 1] or out of order")
            prev = num
            if 0 < num < scale:
                reduced, g = _reduced(num, d, scale, m)
                if g not in denominators:
                    decimal_g = Decimal(g)
                    denominators[g] = scale // g, decimal_g, str(decimal_scale // decimal_g)
                den, decimal_g, den_text = denominators[g]
                text = decimal_num // decimal_g if g > 1 else decimal_num
                rows.append(TailRow(k, reduced, den, f"{text}/{den_text}"))
            else:   # the row is 0 or 1
                rows.append(TailRow(k, int(num > 0), 1, str(int(num > 0))))
            if upper:
                num += next(terms, 0)
                decimal_num += next(decimal_terms, 0)
            else:
                num -= next(terms, 0)
                decimal_num -= next(decimal_terms, 0)
    return TailTable(tuple(rows[::-1] if upper else rows), scale)
