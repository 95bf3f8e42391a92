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
sums T(x) for x < k. Range and monotonicity are checked by comparing those
numerators. A row reaches lowest terms by dividing out gcd(numerator, m,
denominator), with m = d and then the square of the last divisor, until it
is 1: every prime the two share divides d, so each step is a gcd of a big
int and one at most twice as long as the shared part, never of two big ints
of the row's length, and the passes grow logarithmically in the shared
power. A row carries its reduced numerator and denominator and their
correctly rounded float; its ``Fraction`` (the identical one) is built on
its first read and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import comb, gcd

from .tables import Table2x2


class SupportError(ValueError):
    """An outcome lies outside the distribution's support."""


@dataclass(frozen=True)
class HypergeomParams:
    """Parameters and observed outcome of a hypergeometric draw."""

    population: int     # total shifts
    draws: int          # suspect's shifts
    successes: int      # total incidents
    observed: int       # incidents on the suspect's shifts

    def __post_init__(self):
        n, r, k, x = self.population, self.draws, self.successes, self.observed
        if n < 0:
            raise ValueError(f"population {n} is negative")
        if not 0 <= r <= n:
            raise ValueError(f"draws {r} outside [0, {n}]")
        if not 0 <= k <= n:
            raise ValueError(f"successes {k} outside [0, {n}]")
        lo, hi = max(0, r + k - n), min(r, k)
        if not lo <= x <= hi:
            raise SupportError(f"observed {x} outside support [{lo}, {hi}]")

    @property
    def support(self) -> range:
        lo = max(0, self.draws + self.successes - self.population)
        return range(lo, min(self.draws, self.successes) + 1)


def _hyper_count(population: int, draws: int, successes: int, x: int) -> int:
    """Number of draws with exactly ``x`` successes: the pmf numerator."""
    return comb(successes, x) * comb(population - successes, draws - x)


def hypergeom_pmf(params: HypergeomParams) -> Fraction:
    """Exact probability of the observed outcome."""
    n, r, k = params.population, params.draws, params.successes
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
    if not 0 <= draws <= population:
        raise ValueError(f"draws {draws} outside [0, {population}]")
    if not 0 <= successes <= population:
        raise ValueError(f"successes {successes} outside [0, {population}]")
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
        if self.draws < 0:
            raise ValueError(f"draws {self.draws} is negative")
        rate = Fraction(self.rate)
        if not 0 <= rate <= 1:
            raise ValueError(f"rate {rate} outside [0, 1]")
        object.__setattr__(self, "rate", rate)


def _numerators(n: int, rate: Fraction, x: int):
    """T(j) = C(n, j) u**j v**(n-j) for j = x..n, where rate = u/d and v = d - u.

    T(j) / d**n is the binomial pmf at j.
    """
    u = rate.numerator
    v = rate.denominator - u
    if v == 0:  # rate 1: all mass at n
        yield from (int(j == n) for j in range(x, n + 1))
        return
    t = comb(n, x) * u**x * v ** (n - x)
    for j in range(x, n + 1):
        yield t
        t = t * (n - j) * u // ((j + 1) * v)


def binomial_pmf(params: BinomialParams, x: int) -> Fraction:
    """Exact probability of exactly ``x`` successes in ``draws`` draws."""
    n = params.draws
    if not 0 <= x <= n:
        raise SupportError(f"outcome {x} outside support [0, {n}]")
    return Fraction(next(_numerators(n, params.rate, x)), params.rate.denominator**n)


def binomial_upper_tail(params: BinomialParams, k: int) -> Fraction:
    """P(X >= k); 1 below the support, 0 above it."""
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

    ``value`` is the correctly rounded float of that quotient; ``exact`` builds
    the ``Fraction`` on its first read and keeps it.
    """

    threshold: int
    numerator: int
    denominator: int
    value: float

    @cached_property
    def exact(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class TailTable:
    """Upper-tail probabilities P(X >= k) for a consecutive range of thresholds.

    Every row's denominator divides ``scale``, so the rows are checked by
    comparing integer numerators over that one shared denominator.
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


def _lowest_terms(num: int, d: int, scale: int) -> tuple[int, int]:
    """``num / scale`` in lowest terms, where ``scale`` is a power of ``d``.

    Every prime shared by ``num`` and a divisor of ``scale`` divides ``d``, so
    the shared part is divided out by ``g = gcd(num, m, den)`` with ``m = d``
    at first and then ``g * g``: ``m`` keeps every prime still shared, and the
    power of each that is divided out doubles from pass to pass. A row equal
    to 1/2 at rate 1/2 (numerator 2**(n-1)) takes about log2(n) passes, not n;
    after the first pass ``m`` is at most twice as long as the part already
    divided out. 0 and 1 are answered directly.
    """
    if num == 0:
        return 0, 1
    if num == scale:
        return 1, 1
    den, m = scale, d
    while (g := gcd(num, m, den)) > 1:
        num, den, m = num // g, den // g, g * g
    return num, den


def tail_table(params: BinomialParams, k_min: int, k_max: int) -> TailTable:
    """Tail rows for thresholds ``k_min`` through ``k_max`` inclusive.

    Thresholds are taken literally: the row for k is P(X >= k).
    """
    n = params.draws
    if not 0 <= k_min <= k_max <= n + 1:
        raise SupportError(f"threshold range [{k_min}, {k_max}] outside [0, {n + 1}]")
    d = params.rate.denominator
    scale = d**n
    terms = _numerators(n, params.rate, 0)
    below = sum(islice(terms, k_min))
    rows = []
    for k in range(k_min, k_max + 1):
        num, den = _lowest_terms(scale - below, d, scale)
        rows.append(TailRow(k, num, den, num / den))
        below += next(terms, 0)
    return TailTable(tuple(rows), scale)
