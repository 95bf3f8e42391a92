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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import datasets
from .association import POOLED_LABEL, RateTable, rate_table
from .confounding import CollapseComparison, SimpsonVerdict, collapse_comparison, simpson_check
from .exact import (BinomialParams, TailRow, TailTable, _as_int, _as_number, fisher_upper_tail,
                    tail_table)
from .render import exact_json, float_json, fraction_text, inverse, render, text_table
from .tables import StratifiedTable, Table2x2, collapse

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


def _roster_size(n_nurses) -> int:
    """``n_nurses`` as an int >= 1: the roster check of ``fisher_pipeline`` and ``replicate``."""
    n_nurses = _as_int(n_nurses, "n_nurses")
    if n_nurses < 1:
        raise ValueError(f"n_nurses must be >= 1, got {n_nurses}")
    return n_nurses


def fisher_pipeline(
    s: StratifiedTable, n_nurses: int = datasets.DEFAULT_N_NURSES, mode: str = "stratified"
) -> FisherPipelineResult:
    n_nurses = _roster_size(n_nurses)
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
    requested thresholds. ``observed`` is always a tail-table row, P(X >= k_obs):
    the row of ``tails`` where the range holds ``k_obs``, else the one row of
    ``tail_table(params, k_obs, k_obs)``. ``tail_at_k_obs`` and ``one_in_n``
    read it; ``one_in_n`` is None if that tail is exactly zero. ``expected``
    is the exact mean draws * null_rate and ``k_star`` the smallest threshold
    in range whose tail drops below ``tau`` (both are reported because "how
    many cases one would expect" admits either reading).
    """

    draws: int
    null_rate: Fraction                 # p0: comparison-group incidents per shift
    suspect_rate: Fraction | None      # p1: suspect incidents per shift
    k_obs: int
    tails: TailTable
    observed: TailRow                   # P(X >= k_obs)
    expected: Fraction
    tau: Fraction
    k_star: int | None

    @property
    def tail_at_k_obs(self) -> Fraction:
        return self.observed.exact

    @property
    def one_in_n(self) -> Fraction | None:
        return None if self.observed.numerator == 0 else 1 / self.observed.exact


def null_rate(t: Table2x2) -> Fraction:
    """The comparison group's incidents per shift: the null rate of the binomial model."""
    if t.row2 == 0:
        raise ValueError("comparison group has zero shifts; cannot form a null rate")
    return Fraction(t.c, t.row2)


def binomial_analysis(
    t: Table2x2,
    k_range: tuple[int, int] | None = None,
    tau: Fraction | float | str = Fraction(1, 20),
) -> BinomialAnalysisResult:
    tau = _as_number(tau, "tau", "tau {} outside (0, 1]")   # quotes text as given
    if tau == 0:
        raise ValueError("tau 0 outside (0, 1]")
    p0 = null_rate(t)
    suspect_rate = Fraction(t.a, t.row1) if t.row1 else None
    draws, k_obs = t.row1, t.a
    if k_range is None:
        k_range = (0, min(k_obs + 1, draws + 1))
    params = BinomialParams(draws, p0)
    k_min, k_max = k_range
    tails = tail_table(params, k_min, k_max)
    rows = tails.rows if k_min <= k_obs <= k_max else tail_table(params, k_obs, k_obs).rows
    k_star = next((row.threshold for row in tails.rows
                   if row.numerator * tau.denominator < tau.numerator * row.denominator), None)
    return BinomialAnalysisResult(
        draws=draws,
        null_rate=p0,
        suspect_rate=suspect_rate,
        k_obs=k_obs,
        tails=tails,
        observed=rows[k_obs - rows[0].threshold],
        expected=draws * p0,
        tau=tau,
        k_star=k_star,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Structured replication output over a list of datasets."""

    dataset_names: tuple[str, ...]
    n_nurses: int
    correlations: dict[str, CollapseComparison]
    fisher: dict[str, dict[str, FisherPipelineResult]]   # name -> mode -> result
    rates: RateTable
    simpson: dict[str, SimpsonVerdict | None]            # None for single-stratum data
    binomial: dict[str, BinomialAnalysisResult]

    def to_json_dict(self) -> dict:   # the acceptance criteria read the report by this name
        return report_json(self)


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
    n_nurses: int = datasets.DEFAULT_N_NURSES,
) -> AnalysisReport:
    """Run every analysis on the named datasets and assemble a report.

    ``registry`` defaults to the embedded datasets; ``n_nurses`` is the roster
    size of every dataset's post-hoc correction.
    """
    registry = datasets.EMBEDDED if registry is None else registry
    resolved: list[StratifiedTable] = []
    for i, name in enumerate(names):
        if name in names[:i]:   # its results would be written over, its rates listed twice
            raise ValueError(f"dataset {name!r} named twice")
        try:
            resolved.append(registry[name])
        except KeyError:
            raise datasets.UnknownDatasetError(
                f"unknown dataset {name!r} (available: {', '.join(sorted(registry))})"
            ) from None

    n_nurses = _roster_size(n_nurses)
    pairs = tuple(zip(names, resolved))
    return AnalysisReport(
        dataset_names=tuple(names),
        n_nurses=n_nurses,
        correlations={name: collapse_comparison(ds) for name, ds in pairs},
        fisher={name: {mode: fisher_pipeline(ds, n_nurses, mode)
                       for mode in ("stratified", "collapsed")} for name, ds in pairs},
        rates=rate_table(resolved),
        simpson={name: simpson_check(ds) if len(ds.strata) >= 2 else None for name, ds in pairs},
        binomial={name: binomial_analysis(collapse(ds), k_range=REPLICATE_K_RANGES.get(name))
                  for name, ds in pairs},
    )


# ---------------------------------------------------------------------------
# serialization: one JSON builder per result type, for report and CLI alike.
# Where a document's keys are its record's fields, in order, the builder starts
# from ``vars(record)`` and rewrites only the values that need a JSON form, so
# a field added to the record reaches every format with no second edit.

def per_stratum_json(pairs, to_json) -> list[dict]:
    """``[{"stratum": label, **to_json(value)}, ...]`` for ``(label, value)`` pairs."""
    return [{"stratum": label, **to_json(value)} for label, value in pairs]


def correlation_json(r) -> dict:
    return {
        "det": r.det,
        "row_picture_ratio": exact_json(r.row_picture_ratio),
        "col_picture_ratio": exact_json(r.col_picture_ratio),
        **float_json(r.value),
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
    return {**vars(verdict),
            "stratum_odds": per_stratum_json(verdict.stratum_odds, odds_json),
            "pooled_odds": odds_json(verdict.pooled_odds),
            "directions": dict(verdict.directions)}


def fisher_json(r: FisherPipelineResult) -> dict:
    corrected = exact_json(r.corrected)
    return {
        "mode": r.mode,
        "n_nurses": r.n_nurses,
        "stratum_tails": per_stratum_json(r.stratum_tails, exact_json),
        "product": exact_json(r.product),
        "corrected": corrected,
        "one_in_n": inverse(r.corrected.numerator, r.corrected.denominator, corrected["fraction"]),
        "exceeds_one": r.exceeds_one,
    }


def rates_json(rates: RateTable) -> dict:
    def entry(e) -> dict:
        return {**vars(e), "rate": exact_json(e.rate)}

    return {"strata": [entry(e) for e in rates.entries],
            "pooled": [entry(e) for e in rates.pooled]}


def odds_text(o: dict) -> str:
    """Text of an :func:`odds_json` entry: its fraction, or its kind."""
    return o["fraction"] if o["kind"] == "finite" else o["kind"]


def rate_rows(rates: dict) -> list[list[str]]:
    """Text rows ``dataset, stratum, group, rate`` of a :func:`rates_json`
    document: per-stratum rows, then pooled."""
    return [[e["dataset"], e["stratum"], e["group"],
             e["rate"]["display"] if e["rate"] else "undefined"]
            for e in (*rates["strata"], *rates["pooled"])]


def tail_rows(rows: list[dict]) -> list[list[str]]:
    """Text rows ``>= k, P(X >= k)`` of the ``rows`` of a :func:`binomial_json` document."""
    return [[f">= {row['threshold']}", row["display"]] for row in rows]


def binomial_json(r: BinomialAnalysisResult) -> dict:
    obs = r.observed   # tail_at_k_obs is this row, one_in_n its inverse
    return {
        "draws": r.draws,
        "null_rate": exact_json(r.null_rate),
        "suspect_rate": exact_json(r.suspect_rate),
        "k_obs": r.k_obs,
        "rows": [{"threshold": row.threshold, **render(row.numerator, row.denominator, row.text)}
                 for row in r.tails.rows],
        "tail_at_k_obs": render(obs.numerator, obs.denominator, obs.text),
        "one_in_n": inverse(obs.numerator, obs.denominator, obs.text),
        "expected": exact_json(r.expected),
        "tau": fraction_text(r.tau.numerator, r.tau.denominator),
        "k_star": r.k_star,
    }


def report_json(report: AnalysisReport) -> dict:
    return {
        "datasets": list(report.dataset_names),
        "n_nurses": dict.fromkeys(report.dataset_names, report.n_nurses),
        "correlations": {
            name: {
                **comparison_json(comp),
                "composite_drop": float_json(comp.composite_drop),
                "multiway_reference": datasets.MULTIWAY_REFERENCE.get(name),
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
        "notes": list(_REPORT_NOTES),
    }


def report_text(doc: dict) -> str:
    """The text report, read from a :func:`report_json` document alone."""
    names = doc["datasets"]
    blocks: list[str] = []

    rows = []
    for name in names:
        comp = doc["correlations"][name]
        per = ", ".join(f"{s['stratum']} {s['display']}" for s in comp["strata"])
        flat = comp["flattened_ratio"]["display"] if comp["flattened_ratio"] else "-"
        rows.append([name, per, flat, comp["pooled"]["display"]])
    blocks.append(
        "Correlation overview\n"
        + text_table(["dataset", "per stratum", "flattened composite", "pooled"], rows)
    )

    rows = [[name, *(doc["fisher"][name][mode]["one_in_n"]["display"]
                     for mode in ("stratified", "collapsed"))] for name in names]
    blocks.append(
        "One-in-N overview (post-hoc correction applied)\n"
        + text_table(["dataset", "stratified", "collapsed"], rows)
    )

    blocks.append("Incident rates per shift\n"
                  + text_table(["dataset", "stratum", "group", "rate"], rate_rows(doc["rates"])))

    lines = []
    for name in names:
        verdict = doc["simpson"][name]
        if verdict is None:
            lines.append(f"  {name}: single stratum, not applicable")
            continue
        odds = ", ".join(f"{o['stratum']} {odds_text(o)}" for o in verdict["stratum_odds"])
        note = f" ({verdict['note']})" if verdict["note"] else ""
        lines.append(
            f"  {name}: strata {odds}; pooled {odds_text(verdict['pooled_odds'])}; "
            f"paradox: {str(verdict['paradox']).lower()}{note}"
        )
    blocks.append("Simpson check\n" + "\n".join(lines))

    for name in names:
        b = doc["binomial"][name]
        head = (
            f"Binomial model: {name} (draws {b['draws']}, null rate {b['null_rate']['fraction']} "
            f"= {b['null_rate']['display']})"
        )
        one_in = b["one_in_n"]["display"] if b["one_in_n"] else "infinite"
        tail = (
            f"  observed {b['k_obs']}: tail {b['tail_at_k_obs']['display']}, one in {one_in}\n"
            f"  expected count {b['expected']['display']}; "
            f"first threshold with tail < {b['tau']}: "
            + (str(b["k_star"]) if b["k_star"] is not None else "none in range")
        )
        blocks.append(head + "\n" + text_table(["cases", "P(X >= k)"], tail_rows(b["rows"]))
                      + "\n" + tail)

    blocks.append("Notes\n" + "\n".join(f"  - {n}" for n in doc["notes"]))
    return "\n\n".join(blocks) + "\n"
