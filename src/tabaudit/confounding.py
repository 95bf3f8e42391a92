"""Simpson-paradox detection and stratified-versus-pooled comparison.

All odds-ratio comparisons against 1 are done in exact rational arithmetic,
so a verdict can never flip under float round-off. A paradox requires strict
reversal: every defined stratum odds ratio strictly on one side of 1 and the
pooled odds ratio strictly on the other. Strata with undefined ratios are
reported but excluded from the unanimity test; an infinite ratio counts as
greater than 1. Any ratio exactly equal to 1 is a boundary case and reports
no paradox.
"""

from __future__ import annotations

from dataclasses import dataclass

from .association import (
    NominalCorrelationResult,
    OddsRatioValue,
    flattened_volume_ratio,
    nominal_correlation,
    odds_ratio,
    stratum_correlations,
)
from .tables import StratifiedTable, collapse


@dataclass(frozen=True)
class SimpsonVerdict:
    stratum_odds: tuple[tuple[str, OddsRatioValue], ...]
    pooled_odds: OddsRatioValue
    directions: tuple[tuple[str, str], ...]   # per stratum: '>1', '=1', '<1', 'undefined'
    paradox: bool
    note: str | None = None


def simpson_check(s: StratifiedTable) -> SimpsonVerdict:
    """Contrast per-stratum odds-ratio direction with the pooled direction."""
    if len(s.strata) < 2:
        raise ValueError("a Simpson check needs at least two strata")
    stratum_odds = tuple((label, odds_ratio(t)) for label, t in s.strata)
    pooled = odds_ratio(collapse(s))
    directions = tuple((label, o.versus_one()) for label, o in stratum_odds)

    defined = [side for _, side in directions if side != "undefined"]
    if not defined or pooled.kind == "undefined":
        return SimpsonVerdict(stratum_odds, pooled, directions, False, "insufficient data")

    pooled_side = pooled.versus_one()
    if "=1" in defined or pooled_side == "=1":
        return SimpsonVerdict(stratum_odds, pooled, directions, False, "boundary")

    paradox = (
        (all(side == ">1" for side in defined) and pooled_side == "<1")
        or (all(side == "<1" for side in defined) and pooled_side == ">1")
    )
    return SimpsonVerdict(stratum_odds, pooled, directions, paradox)


@dataclass(frozen=True)
class CollapseComparison:
    """Per-stratum correlations against the pooled table's correlation.

    ``flattened_ratio`` is the stacked-matrix composite (None for a single
    stratum); ``composite_drop`` is that composite minus the pooled value,
    quantifying how much apparent association pooling removes.
    """

    stratum_values: tuple[tuple[str, NominalCorrelationResult], ...]
    pooled: NominalCorrelationResult
    flattened_ratio: float | None
    stratum_deltas: tuple[tuple[str, float], ...]
    composite_drop: float | None


def collapse_comparison(s: StratifiedTable) -> CollapseComparison:
    per_stratum = tuple(stratum_correlations(s))
    pooled = nominal_correlation(collapse(s))
    flattened = flattened_volume_ratio(s) if len(s.strata) >= 2 else None
    deltas = tuple((label, r.value - pooled.value) for label, r in per_stratum)
    drop = None if flattened is None else flattened - pooled.value
    return CollapseComparison(per_stratum, pooled, flattened, deltas, drop)
