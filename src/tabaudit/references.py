"""Stored reference values for the embedded datasets and report verification.

The values below are the published figures for the embedded datasets (pooled
correlations, per-ward exact tails, one-in-N summaries, binomial tail rows,
incident rates). ``check_report_json`` recomputes nothing: it compares an
:class:`~tabaudit.pipeline.AnalysisReport` JSON document against this table,
exactly for rational values and to a relative tolerance of 1e-4 for values
published at 6 significant figures. The ``replicate`` CLI command exits
nonzero when any check fails, so a single mutated count is caught.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .association import POOLED_LABEL

REL_TOL = 1e-4


@dataclass(frozen=True)
class Check:
    key: str
    getter: Callable[[dict], object]
    expected: object
    kind: str  # "rel" | "exact" | "bool"


def _find(rows, **match):
    for row in rows:
        if all(row.get(k) == v for k, v in match.items()):
            return row
    raise KeyError(f"no row matching {match}")


def _pooled_corr(name):
    return lambda doc: doc["correlations"][name]["pooled"]["value"]


def _corr_ratio(name, which):
    return lambda doc: Fraction(doc["correlations"][name]["pooled"][which]["fraction"])


def _fisher_tail(name, stratum, field="value"):
    def get(doc):
        row = _find(doc["fisher"][name]["stratified"]["stratum_tails"], stratum=stratum)
        return Fraction(row["fraction"]) if field == "fraction" else row[field]
    return get


def _one_in_n(name, mode):
    return lambda doc: doc["fisher"][name][mode]["one_in_n"]["value"]


def _odds(name, stratum=None):
    def get(doc):
        section = doc["simpson"][name]
        if stratum is None:
            return Fraction(section["pooled_odds"]["fraction"])
        return Fraction(_find(section["stratum_odds"], stratum=stratum)["fraction"])
    return get


def _binom_row(name, threshold):
    return lambda doc: _find(doc["binomial"][name]["rows"], threshold=threshold)["value"]


def _binom(name, field):
    return lambda doc: doc["binomial"][name][field]["value"]


def _rate(name, stratum, group, field="value"):
    def get(doc):
        rows = doc["rates"]["pooled" if stratum == POOLED_LABEL else "strata"]
        rate = _find(rows, dataset=name, stratum=stratum, group=group)["rate"]
        return Fraction(rate["fraction"]) if field == "fraction" else rate[field]
    return get


def _checks() -> list[Check]:
    checks: list[Check] = []

    def rel(key, getter, expected):
        checks.append(Check(key, getter, expected, "rel"))

    def exact(key, getter, expected):
        checks.append(Check(key, getter, expected, "exact"))

    def boolean(key, getter, expected):
        checks.append(Check(key, getter, expected, "bool"))

    # correlation overview (pooled)
    rel("original pooled correlation", _pooled_corr("original"), 0.158169)
    rel("derksen pooled correlation", _pooled_corr("derksen"), 0.0614621)
    exact("shops pooled correlation (row ratio)",
          _corr_ratio("shops", "row_picture_ratio"), Fraction(-1, 8))
    exact("shops pooled correlation (col ratio)",
          _corr_ratio("shops", "col_picture_ratio"), Fraction(-1, 8))
    exact("shops pooled correlation (float)", _pooled_corr("shops"), -0.125)

    # Simpson check on the shops dataset
    exact("shops Shop1 odds ratio", _odds("shops", "Shop1"), Fraction(5, 4))
    exact("shops Shop2 odds ratio", _odds("shops", "Shop2"), Fraction(5, 4))
    exact("shops pooled odds ratio", _odds("shops"), Fraction(49, 81))
    boolean("shops paradox", lambda doc: doc["simpson"]["shops"]["paradox"], True)

    # per-ward exact upper tails
    for stratum, expected in [("JKZ", 1.10572e-7), ("RKZ1", 0.0136612), ("RKZ2", 0.0715592)]:
        rel(f"original {stratum} Fisher tail", _fisher_tail("original", stratum), expected)
    exact("original RKZ1 Fisher tail (exact)",
          _fisher_tail("original", "RKZ1", "fraction"), Fraction(5, 366))
    for stratum, expected in [("JKZ", 0.00155956), ("RKZ1", 0.0405357), ("RKZ2", 0.851093)]:
        rel(f"derksen {stratum} Fisher tail", _fisher_tail("derksen", stratum), expected)

    # one-in-N overview (post-hoc correction with 27 nurses)
    rel("original one-in-N stratified", _one_in_n("original", "stratified"), 3.42638e8)
    rel("original one-in-N collapsed", _one_in_n("original", "collapsed"), 141494.0)
    rel("derksen one-in-N stratified", _one_in_n("derksen", "stratified"), 688.367)
    rel("derksen one-in-N collapsed", _one_in_n("derksen", "collapsed"), 1.64051)

    # binomial tail tables, observed tails, reciprocals
    original_rows = {
        3: 0.24363, 4: 0.0930338, 5: 0.0292779, 6: 0.00779387, 7: 0.00179153,
        8: 0.00036146, 9: 0.0000648622, 10: 0.0000104641, 11: 1.5314e-6,
        12: 2.04843e-7, 13: 2.52053e-8, 14: 2.86883e-9, 15: 3.03491e-10,
    }
    derksen_rows = {
        3: 0.284318, 4: 0.117044, 5: 0.0398576, 6: 0.0115067, 7: 0.00287253,
        8: 0.000630018, 9: 0.000122978,
    }
    for k, expected in original_rows.items():
        rel(f"original binomial tail >= {k}", _binom_row("original", k), expected)
    for k, expected in derksen_rows.items():
        rel(f"derksen binomial tail >= {k}", _binom_row("derksen", k), expected)
    rel("original binomial one-in-N", _binom("original", "one_in_n"), 3.48574e8)
    rel("derksen binomial one-in-N", _binom("derksen", "one_in_n"), 86.9055)

    # incident rate table (per-ward and pooled)
    ward_rates = [
        ("original", "JKZ", "V", 0.056338), ("original", "RKZ1", "V", 1.0),
        ("original", "RKZ2", "V", 0.0862069),
        ("original", "RKZ1", "Other", 0.0109589), ("original", "RKZ2", "Other", 0.0320285),
        ("derksen", "JKZ", "V", 0.028169), ("derksen", "RKZ1", "V", 0.333333),
        ("derksen", "RKZ2", "V", 0.0172414),
        ("derksen", "JKZ", "Other", 0.0011274), ("derksen", "RKZ1", "Other", 0.0110193),
        ("derksen", "RKZ2", "Other", 0.0320285),
    ]
    for name, stratum, group, expected in ward_rates:
        rel(f"{name} {stratum} {group} rate", _rate(name, stratum, group), expected)
    exact("original JKZ Other rate", _rate("original", "JKZ", "Other", "fraction"), Fraction(0))
    rel("original pooled p0", _rate("original", POOLED_LABEL, "Other"), 0.0084801)
    rel("derksen pooled p0", _rate("derksen", POOLED_LABEL, "Other"), 0.00914435)
    rel("original pooled p1", _rate("original", POOLED_LABEL, "V"), 0.0696517)
    rel("derksen pooled p1", _rate("derksen", POOLED_LABEL, "V"), 0.0295567)

    return checks


REFERENCE_CHECKS: tuple[Check, ...] = tuple(_checks())


def check_report_json(doc: dict) -> list[str]:
    """Compare a report JSON document against the stored reference values.

    Returns one message per failing check; an empty list means full agreement.
    """
    failures = []
    for check in REFERENCE_CHECKS:
        try:
            got = check.getter(doc)
        except (KeyError, TypeError) as exc:
            failures.append(f"{check.key}: missing from report ({exc})")
            continue
        if check.kind == "rel":
            ok = got is not None and abs(got - check.expected) <= REL_TOL * abs(check.expected)
        elif check.kind == "exact":
            ok = got == check.expected
        else:
            ok = got is check.expected
        if not ok:
            failures.append(f"{check.key}: got {got!r}, want {check.expected!r}")
    return failures
