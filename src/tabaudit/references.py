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

from .association import POOLED_LABEL
from .exact import _as_number
from .render import shown

REL_TOL = 1e-4


@dataclass(frozen=True)
class Check:
    """One reference value and where the report holds it.

    ``path`` walks the report JSON: a string step reads that key, a dict step picks
    the first list row that holds every key of the step with an equal value. A path
    that ends at a ``"fraction"`` reads the exact value that text writes; text that
    writes no rational is compared as it is, and fails.
    """

    key: str
    path: tuple
    expected: object
    kind: str  # "rel" | "exact" | "bool"


def _get(doc, path):
    for step in path:
        if isinstance(step, dict):
            doc = next((row for row in doc if row.items() >= step.items()), None)
            if doc is None:
                raise KeyError(f"no row matching {step}")
        else:
            doc = doc[step]
    return doc


def _checks() -> list[Check]:
    checks: list[Check] = []

    def rel(key, path, expected):
        checks.append(Check(key, path, expected, "rel"))

    def exact(key, path, expected):
        checks.append(Check(key, path, expected, "exact"))

    def boolean(key, path, expected):
        checks.append(Check(key, path, expected, "bool"))

    # correlation overview (pooled)
    for name, expected in [("original", 0.158169), ("derksen", 0.0614621)]:
        rel(f"{name} pooled correlation", ("correlations", name, "pooled", "value"), expected)
    for which in ("row", "col"):
        exact(f"shops pooled correlation ({which} ratio)",
              ("correlations", "shops", "pooled", f"{which}_picture_ratio", "fraction"),
              Fraction(-1, 8))
    exact("shops pooled correlation (float)",
          ("correlations", "shops", "pooled", "value"), -0.125)

    # Simpson check on the shops dataset
    for stratum in ("Shop1", "Shop2"):
        exact(f"shops {stratum} odds ratio",
              ("simpson", "shops", "stratum_odds", {"stratum": stratum}, "fraction"),
              Fraction(5, 4))
    exact("shops pooled odds ratio",
          ("simpson", "shops", "pooled_odds", "fraction"), Fraction(49, 81))
    boolean("shops paradox", ("simpson", "shops", "paradox"), True)

    # per-ward exact upper tails
    def fisher_tail(name, stratum, field="value"):
        return ("fisher", name, "stratified", "stratum_tails", {"stratum": stratum}, field)

    for stratum, expected in [("JKZ", 1.10572e-7), ("RKZ1", 0.0136612), ("RKZ2", 0.0715592)]:
        rel(f"original {stratum} Fisher tail", fisher_tail("original", stratum), expected)
    exact("original RKZ1 Fisher tail (exact)",
          fisher_tail("original", "RKZ1", "fraction"), Fraction(5, 366))
    for stratum, expected in [("JKZ", 0.00155956), ("RKZ1", 0.0405357), ("RKZ2", 0.851093)]:
        rel(f"derksen {stratum} Fisher tail", fisher_tail("derksen", stratum), expected)

    # one-in-N overview (post-hoc correction with 27 nurses)
    for name, mode, expected in [
        ("original", "stratified", 3.42638e8), ("original", "collapsed", 141494.0),
        ("derksen", "stratified", 688.367), ("derksen", "collapsed", 1.64051),
    ]:
        rel(f"{name} one-in-N {mode}", ("fisher", name, mode, "one_in_n", "value"), expected)

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
    for name, rows in [("original", original_rows), ("derksen", derksen_rows)]:
        for k, expected in rows.items():
            rel(f"{name} binomial tail >= {k}",
                ("binomial", name, "rows", {"threshold": k}, "value"), expected)
    for name, expected in [("original", 3.48574e8), ("derksen", 86.9055)]:
        rel(f"{name} binomial one-in-N", ("binomial", name, "one_in_n", "value"), expected)

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

    def rate(name, stratum, group, field="value"):
        return ("rates", "pooled" if stratum == POOLED_LABEL else "strata",
                {"dataset": name, "stratum": stratum, "group": group}, "rate", field)

    for name, stratum, group, expected in ward_rates:
        rel(f"{name} {stratum} {group} rate", rate(name, stratum, group), expected)
    exact("original JKZ Other rate", rate("original", "JKZ", "Other", "fraction"), Fraction(0))
    for name, p, group, expected in [
        ("original", "p0", "Other", 0.0084801), ("derksen", "p0", "Other", 0.00914435),
        ("original", "p1", "V", 0.0696517), ("derksen", "p1", "V", 0.0295567),
    ]:
        rel(f"{name} pooled {p}", rate(name, POOLED_LABEL, group), expected)

    return checks


REFERENCE_CHECKS: tuple[Check, ...] = tuple(_checks())


def check_report_json(doc: dict) -> list[str]:
    """Compare a report JSON document against the stored reference values.

    Returns one message per failing check; an empty list means full agreement.
    A value of a type the check cannot compare fails, and its message names the type.
    A message quotes the report's own value, never a rational parsed from it.
    """
    failures = []
    for check in REFERENCE_CHECKS:
        try:
            raw = _get(doc, check.path)
        except (KeyError, TypeError, AttributeError) as exc:   # or a row or list of the wrong type
            failures.append(f"{check.key}: missing from report ({exc})")
            continue
        got = raw
        if check.path[-1] == "fraction":   # read as the exact kernels read rate text
            try:
                got = _as_number(raw, "fraction")
            except ValueError:   # "x", "1/0", or "1e-3000000" past the int digit limit
                pass
        try:
            if check.kind == "rel":
                ok = got is not None and abs(got - check.expected) <= REL_TOL * abs(check.expected)
            elif check.kind == "exact":
                ok = got == check.expected
            else:
                ok = got is check.expected
        except (TypeError, OverflowError):   # not a number, or an int past the float range
            failures.append(f"{check.key}: got {shown(raw)} of type {type(raw).__name__}, "
                            f"want {check.expected!r}")
            continue
        if not ok:
            failures.append(f"{check.key}: got {shown(raw)}, want {check.expected!r}")
    return failures
