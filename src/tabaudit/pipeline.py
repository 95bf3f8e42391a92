"""End-to-end analyses: the corrected Fisher pipeline, the binomial model,
and the multi-dataset replication report.

The Fisher pipeline reproduces the prosecution-style calculation: one-sided
exact upper tails per stratum, multiplied together, then multiplied by the
number of nurses on the roster as a post-hoc correction; the reciprocal is
the "1 in N nurses" figure. The collapsed mode pools the strata first and
corrects the single tail. No significance level is applied anywhere and no
accept/reject verdict is emitted: results are probabilities, full stop.

Every quantity in a report is recomputed from the dataset counts at
generation time; stored reference values are used only by the verification
step (see :mod:`tabaudit.references`), never as report content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import datasets
from .association import RateTable, rate_table
from .confounding import CollapseComparison, SimpsonVerdict, collapse_comparison, simpson_check
from .exact import BinomialParams, TailTable, binomial_upper_tail, fisher_upper_tail, tail_table
from .render import exact_json, float_json, sig6, text_table
from .tables import StratifiedTable, Table2x2, collapse

POOLED_LABEL = "All"

#: Tail-table threshold ranges used by ``replicate`` for the embedded
#: datasets, chosen to cover every published row.
REPLICATE_K_RANGES: dict[str, tuple[int, int]] = {
    "original": (3, 15),
    "derksen": (3, 9),
}


@dataclass(frozen=True)
class FisherPipelineResult:
    """Per-stratum exact tails with the post-hoc nurse-count correction.

    Invariants (exact): corrected = n_nurses * product of tails, and
    one_in_n * corrected = 1.
    """

    mode: str                                        # "stratified" | "collapsed"
    stratum_tails: tuple[tuple[str, Fraction], ...]
    product: Fraction
    n_nurses: int
    corrected: Fraction
    one_in_n: Fraction
    exceeds_one: bool


def fisher_pipeline(
    s: StratifiedTable, n_nurses: int = datasets.DEFAULT_N_NURSES, mode: str = "stratified"
) -> FisherPipelineResult:
    if n_nurses < 1:
        raise ValueError(f"n_nurses must be >= 1, got {n_nurses}")
    if mode == "stratified":
        tails = tuple((label, fisher_upper_tail(t)) for label, t in s.strata)
    elif mode == "collapsed":
        tails = ((POOLED_LABEL, fisher_upper_tail(collapse(s))),)
    else:
        raise ValueError(f"mode must be 'stratified' or 'collapsed', got {mode!r}")
    product = Fraction(1)
    for _, tail in tails:
        product *= tail
    corrected = n_nurses * product
    return FisherPipelineResult(
        mode=mode,
        stratum_tails=tails,
        product=product,
        n_nurses=n_nurses,
        corrected=corrected,
        one_in_n=1 / corrected,
        exceeds_one=corrected > 1,
    )


@dataclass(frozen=True)
class BinomialAnalysisResult:
    """Suspect-as-repeated-draws model against the comparison group's rate.

    The suspect draws ``draws`` times (their shift count) at the comparison
    group's pooled rate ``null_rate``; ``tails`` lists P(X >= k) over the
    requested thresholds. ``expected`` is the exact mean draws * null_rate and
    ``k_star`` the smallest threshold in range whose tail drops below ``tau``
    (both are reported because "how many cases one would expect" admits
    either reading). ``one_in_n`` is None if the tail at the observed count
    is exactly zero.
    """

    draws: int
    null_rate: Fraction                 # p0: comparison-group incidents per shift
    suspect_rate: Fraction | None      # p1: suspect incidents per shift
    k_obs: int
    tails: TailTable
    tail_at_k_obs: Fraction
    one_in_n: Fraction | None
    expected: Fraction
    tau: Fraction
    k_star: int | None


def binomial_analysis(
    t: Table2x2,
    k_range: tuple[int, int] | None = None,
    tau: Fraction | float = Fraction(1, 20),
) -> BinomialAnalysisResult:
    tau = Fraction(tau)
    if not 0 < tau <= 1:
        raise ValueError(f"tau {tau} outside (0, 1]")
    if t.row2 == 0:
        raise ValueError("comparison group has zero shifts; cannot form a null rate")
    null_rate = Fraction(t.c, t.row2)
    suspect_rate = Fraction(t.a, t.row1) if t.row1 else None
    draws, k_obs = t.row1, t.a
    if k_range is None:
        k_range = (0, min(k_obs + 1, draws + 1))
    params = BinomialParams(draws, null_rate)
    tails = tail_table(params, k_range[0], k_range[1])
    tail_obs = binomial_upper_tail(params, k_obs)
    k_star = next((row.threshold for row in tails.rows if row.exact < tau), None)
    return BinomialAnalysisResult(
        draws=draws,
        null_rate=null_rate,
        suspect_rate=suspect_rate,
        k_obs=k_obs,
        tails=tails,
        tail_at_k_obs=tail_obs,
        one_in_n=None if tail_obs == 0 else 1 / tail_obs,
        expected=draws * null_rate,
        tau=tau,
        k_star=k_star,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Structured replication output over a list of datasets."""

    dataset_names: tuple[str, ...]
    n_nurses: dict[str, int]
    correlations: dict[str, CollapseComparison]
    fisher: dict[str, dict[str, FisherPipelineResult]]   # name -> mode -> result
    rates: RateTable
    simpson: dict[str, SimpsonVerdict | None]            # None for single-stratum data
    binomial: dict[str, BinomialAnalysisResult]
    multiway_reference: dict[str, float | None]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return report_json(self)

    def to_text(self) -> str:
        return report_text(self)


_REPORT_NOTES = (
    "Every value is recomputed from the dataset counts at generation time.",
    "The 'flattened composite' is this package's stacked-matrix association; "
    "it is not the published multiway correlation, whose values are carried "
    "as reference metadata only.",
    "No significance level is applied and no accept/reject verdict is drawn.",
)


def replicate(
    names: Sequence[str] = ("original", "derksen", "shops"),
    registry: Mapping[str, StratifiedTable] | None = None,
    n_nurses: Mapping[str, int] | None = None,
    tau: Fraction | float = Fraction(1, 20),
) -> AnalysisReport:
    """Run every analysis on the named datasets and assemble a report.

    ``registry`` defaults to the embedded datasets; ``n_nurses`` overrides the
    per-dataset roster size used by the post-hoc correction.
    """
    registry = datasets.EMBEDDED if registry is None else registry
    resolved: list[StratifiedTable] = []
    for name in names:
        try:
            resolved.append(registry[name])
        except KeyError:
            raise datasets.UnknownDatasetError(
                f"unknown dataset {name!r} (available: {', '.join(sorted(registry))})"
            ) from None

    nurse_counts = {
        name: (n_nurses[name] if n_nurses and name in n_nurses else datasets.n_nurses_for(name))
        for name in names
    }
    correlations: dict[str, CollapseComparison] = {}
    fisher: dict[str, dict[str, FisherPipelineResult]] = {}
    simpson: dict[str, SimpsonVerdict | None] = {}
    binomial: dict[str, BinomialAnalysisResult] = {}
    multiway: dict[str, float | None] = {}
    for name, ds in zip(names, resolved):
        correlations[name] = collapse_comparison(ds)
        fisher[name] = {
            mode: fisher_pipeline(ds, nurse_counts[name], mode)
            for mode in ("stratified", "collapsed")
        }
        simpson[name] = simpson_check(ds) if len(ds.strata) >= 2 else None
        binomial[name] = binomial_analysis(
            collapse(ds), k_range=REPLICATE_K_RANGES.get(name), tau=tau
        )
        info = datasets.DATASET_INFO.get(name)
        multiway[name] = info.multiway_reference if info else None
    return AnalysisReport(
        dataset_names=tuple(names),
        n_nurses=nurse_counts,
        correlations=correlations,
        fisher=fisher,
        rates=rate_table(resolved),
        simpson=simpson,
        binomial=binomial,
        multiway_reference=multiway,
        notes=_REPORT_NOTES,
    )


# ---------------------------------------------------------------------------
# serialization: one JSON builder per result type, for report and CLI alike

def per_stratum_json(pairs, to_json) -> list[dict]:
    """``[{"stratum": label, **to_json(value)}, ...]`` for ``(label, value)`` pairs."""
    return [{"stratum": label, **to_json(value)} for label, value in pairs]


def correlation_json(r) -> dict:
    return {
        "det": r.det,
        "row_picture_ratio": exact_json(r.row_picture_ratio),
        "col_picture_ratio": exact_json(r.col_picture_ratio),
        "value": r.value,
        "display": sig6(r.value),
    }


def comparison_json(comp: CollapseComparison) -> dict:
    return {
        "strata": per_stratum_json(comp.stratum_values, correlation_json),
        "pooled": correlation_json(comp.pooled),
        "flattened_ratio": float_json(comp.flattened_ratio),
    }


def odds_json(o) -> dict:
    out = {"kind": o.kind, "versus_one": o.versus_one()}
    if o.kind == "finite":
        out.update(exact_json(o.value))
    return out


def simpson_json(verdict: SimpsonVerdict) -> dict:
    return {
        "stratum_odds": per_stratum_json(verdict.stratum_odds, odds_json),
        "pooled_odds": odds_json(verdict.pooled_odds),
        "directions": dict(verdict.directions),
        "paradox": verdict.paradox,
        "note": verdict.note,
    }


def fisher_json(r: FisherPipelineResult) -> dict:
    return {
        "mode": r.mode,
        "n_nurses": r.n_nurses,
        "stratum_tails": per_stratum_json(r.stratum_tails, exact_json),
        "product": exact_json(r.product),
        "corrected": exact_json(r.corrected),
        "one_in_n": exact_json(r.one_in_n),
        "exceeds_one": r.exceeds_one,
    }


def rates_json(rates: RateTable) -> dict:
    def entry(e) -> dict:
        return {"dataset": e.dataset, "stratum": e.stratum, "group": e.group,
                "incidents": e.incidents, "shifts": e.shifts, "rate": exact_json(e.rate)}

    return {"strata": [entry(e) for e in rates.entries],
            "pooled": [entry(e) for e in rates.pooled]}


def rate_rows(rates: RateTable) -> list[list[str]]:
    """Text rows ``dataset, stratum, group, rate``: per-stratum rows, then pooled."""
    return [[e.dataset, e.stratum, e.group, sig6(e.rate) if e.rate is not None else "undefined"]
            for e in (*rates.entries, *rates.pooled)]


def binomial_json(r: BinomialAnalysisResult) -> dict:
    return {
        "draws": r.draws,
        "null_rate": exact_json(r.null_rate),
        "suspect_rate": exact_json(r.suspect_rate),
        "k_obs": r.k_obs,
        "rows": [
            {"threshold": row.threshold, **exact_json(row.exact)} for row in r.tails.rows
        ],
        "tail_at_k_obs": exact_json(r.tail_at_k_obs),
        "one_in_n": exact_json(r.one_in_n),
        "expected": exact_json(r.expected),
        "tau": str(r.tau),
        "k_star": r.k_star,
    }


def report_json(report: AnalysisReport) -> dict:
    return {
        "datasets": list(report.dataset_names),
        "n_nurses": dict(report.n_nurses),
        "correlations": {
            name: {
                **comparison_json(comp),
                "composite_drop": float_json(comp.composite_drop),
                "multiway_reference": report.multiway_reference.get(name),
            }
            for name, comp in report.correlations.items()
        },
        "fisher": {
            name: {mode: fisher_json(r) for mode, r in modes.items()}
            for name, modes in report.fisher.items()
        },
        "rates": rates_json(report.rates),
        "simpson": {
            name: None if verdict is None else simpson_json(verdict)
            for name, verdict in report.simpson.items()
        },
        "binomial": {name: binomial_json(r) for name, r in report.binomial.items()},
        "notes": list(report.notes),
    }


def report_text(report: AnalysisReport) -> str:
    blocks: list[str] = []

    rows = []
    for name in report.dataset_names:
        comp = report.correlations[name]
        per = ", ".join(f"{label} {sig6(r.value)}" for label, r in comp.stratum_values)
        flat = sig6(comp.flattened_ratio) if comp.flattened_ratio is not None else "-"
        rows.append([name, per, flat, sig6(comp.pooled.value)])
    blocks.append(
        "Correlation overview\n"
        + text_table(["dataset", "per stratum", "flattened composite", "pooled"], rows)
    )

    rows = []
    for name in report.dataset_names:
        modes = report.fisher[name]
        rows.append([
            name,
            sig6(modes["stratified"].one_in_n),
            sig6(modes["collapsed"].one_in_n),
        ])
    blocks.append(
        "One-in-N overview (post-hoc correction applied)\n"
        + text_table(["dataset", "stratified", "collapsed"], rows)
    )

    blocks.append("Incident rates per shift\n"
                  + text_table(["dataset", "stratum", "group", "rate"], rate_rows(report.rates)))

    lines = []
    for name in report.dataset_names:
        verdict = report.simpson[name]
        if verdict is None:
            lines.append(f"  {name}: single stratum, not applicable")
            continue
        odds = ", ".join(f"{label} {o}" for label, o in verdict.stratum_odds)
        note = f" ({verdict.note})" if verdict.note else ""
        lines.append(
            f"  {name}: strata {odds}; pooled {verdict.pooled_odds}; "
            f"paradox: {str(verdict.paradox).lower()}{note}"
        )
    blocks.append("Simpson check\n" + "\n".join(lines))

    for name in report.dataset_names:
        r = report.binomial[name]
        rows = [[f">= {row.threshold}", sig6(row.value)] for row in r.tails.rows]
        head = (
            f"Binomial model: {name} (draws {r.draws}, null rate {r.null_rate} "
            f"= {sig6(r.null_rate)})"
        )
        one_in = sig6(r.one_in_n) if r.one_in_n is not None else "infinite"
        tail = (
            f"  observed {r.k_obs}: tail {sig6(r.tail_at_k_obs)}, one in {one_in}\n"
            f"  expected count {sig6(r.expected)}; "
            f"first threshold with tail < {r.tau}: "
            + (str(r.k_star) if r.k_star is not None else "none in range")
        )
        blocks.append(head + "\n" + text_table(["cases", "P(X >= k)"], rows) + "\n" + tail)

    blocks.append("Notes\n" + "\n".join(f"  - {n}" for n in report.notes))
    return "\n\n".join(blocks) + "\n"
