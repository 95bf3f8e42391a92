"""Independent log-space oracle for the exact tails, using only ``math.lgamma``.

The benchmark compares every exact ``Fraction`` tail the program returns with
these float sums. ``log_fraction`` takes the log of numerator and denominator
separately, so tails far below the float range (and fractions too long for
``str``) still compare. Agreement is required to ``LOG_TOL`` in natural-log
units, i.e. a relative error of about 1e-8, well inside the repo's 1e-4.
"""

from __future__ import annotations

import math
from fractions import Fraction

LOG_TOL = 1e-8


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_sum(logs: list[float]) -> float:
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def log_hypergeom_tail(population: int, draws: int, successes: int, k: int) -> float:
    """log P(X >= k) for X hypergeometric; -inf above the support."""
    lo = max(0, draws + successes - population, k)
    hi = min(draws, successes)
    base = _log_comb(population, draws)
    return _log_sum([
        _log_comb(successes, x) + _log_comb(population - successes, draws - x) - base
        for x in range(lo, hi + 1)
    ])


def log_binomial_tails(draws: int, rate: Fraction) -> list[float]:
    """[log P(X >= k) for k in 0..draws+1] for X ~ Binomial(draws, rate)."""
    if rate == 0 or rate == 1:
        edge = 0 if rate == 0 else draws
        return [0.0 if k <= edge else -math.inf for k in range(draws + 2)]
    lp, lq = math.log(rate), math.log(1 - rate)
    logs = [_log_comb(draws, x) + x * lp + (draws - x) * lq for x in range(draws + 1)]
    tails = [-math.inf] * (draws + 2)
    for k in range(draws, -1, -1):
        tails[k] = _log_sum([tails[k + 1], logs[k]]) if tails[k + 1] > -math.inf else logs[k]
    return tails


def log_fraction(f: Fraction) -> float:
    """Natural log of a non-negative Fraction of any size; -inf for 0."""
    if f == 0:
        return -math.inf
    return math.log(f.numerator) - math.log(f.denominator)


def agrees(f: Fraction, log_want: float) -> bool:
    got = log_fraction(f)
    if got == -math.inf or log_want == -math.inf:
        return got == log_want
    return abs(got - log_want) <= LOG_TOL
