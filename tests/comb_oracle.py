"""Term-by-term exact kernels, kept as an oracle for ``tabaudit.exact``.

Each function builds one reduced ``Fraction`` per term (two ``comb`` calls per
hypergeometric term, ``p**x`` afresh per binomial term) and adds them. That is
slow, but it follows the textbook formulas with nothing shared between
terms, so the recurrence-based kernels must return the identical Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def hypergeom_pmf(population: int, draws: int, successes: int, x: int) -> Fraction:
    return Fraction(
        comb(successes, x) * comb(population - successes, draws - x),
        comb(population, draws),
    )


def hypergeom_upper_tail(population: int, draws: int, successes: int, k: int) -> Fraction:
    hi = min(draws, successes)
    if k > hi:
        return Fraction(0)
    return sum(
        (hypergeom_pmf(population, draws, successes, x) for x in range(max(k, 0), hi + 1)),
        start=Fraction(0),
    )


def binomial_pmf(n: int, p: Fraction, x: int) -> Fraction:
    return comb(n, x) * p**x * (1 - p) ** (n - x)


def binomial_upper_tail(n: int, p: Fraction, k: int) -> Fraction:
    """1 minus the probability of 0..k-1 successes, for 0 <= k <= n + 1."""
    return 1 - sum((binomial_pmf(n, p, x) for x in range(k)), start=Fraction(0))
