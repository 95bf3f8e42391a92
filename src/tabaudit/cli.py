"""Command-line front end.

Subcommands: analyze, fisher, binomial, simpson, replicate, simulate, svg,
diff. Every subcommand supports ``--format text|json|csv``; output is
byte-identical for identical invocations (the simulator is seeded). Exit
codes: 0 success, 2 input error, 3 analysis/validation error, 4 replication
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import datasets, pipeline, references, simulate
from .association import determinant_figure, nominal_correlation, odds_ratio, rate_table
from .confounding import collapse_comparison, simpson_check
from .exact import BinomialParams, binomial_upper_tail, hypergeom_upper_tail
from .render import exact_json, float_json, sig6, text_table
from .svgfig import render_determinant_svg
from .tables import StratifiedTable, collapse, diff

PROG = "tabaudit"


class CliInputError(Exception):
    """Unusable invocation or input source (exit code 2)."""


#: Errors in the invocation or its input source (exit code 2). Every other
#: ValueError or KeyError, TableValidationError and SupportError among them, is
#: an analysis or validation error (exit code 3).
_INPUT_ERRORS = (CliInputError, datasets.DatasetFormatError, datasets.UnknownDatasetError)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="embedded dataset name "
                   f"({', '.join(datasets.available())})")
    p.add_argument("--input", help="path to a .json or .csv dataset file")
    p.add_argument("--transpose", action="store_true",
                   help="swap rows and columns of every stratum")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _resolve_source(args) -> StratifiedTable:
    if bool(args.dataset) == bool(args.input):
        raise CliInputError("exactly one of --dataset or --input is required")
    if args.dataset:
        ds = datasets.get(args.dataset)
    else:
        ds = datasets.load_path(args.input)
    return ds.transpose() if args.transpose else ds


def _select_table(ds: StratifiedTable, stratum: str | None):
    if stratum is None:
        return collapse(ds), pipeline.POOLED_LABEL
    try:
        return ds.get(stratum), stratum
    except KeyError:
        raise CliInputError(
            f"stratum {stratum!r} not in dataset (has: {', '.join(ds.labels)})") from None


def _figure(table):
    """Correlation, determinant figure, two-line caption and SVG of one table."""
    corr = nominal_correlation(table)
    fig = determinant_figure(table)
    caption = (
        f"correlation {sig6(corr.value)}",
        f"area ratio {sig6(fig.area_ratio)} ({fig.parallelogram_area}/{fig.rect_area})",
    )
    return corr, fig, caption, render_determinant_svg(fig, caption)


def _flatten(doc, prefix: str = "", rows: list | None = None) -> list[tuple[str, str]]:
    if rows is None:
        rows = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(doc, (list, tuple)):
        for i, value in enumerate(doc):
            _flatten(value, f"{prefix}[{i}]", rows)
    else:
        if doc is None:
            text = ""
        elif isinstance(doc, bool):
            text = "true" if doc else "false"
        else:
            text = str(doc)
        rows.append((prefix, text))
    return rows


def _emit(args, text: str, doc: dict) -> None:
    if args.format == "json":
        payload = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(_flatten(doc))
        payload = out.getvalue()
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args) -> int:
    ds = _resolve_source(args)
    comp = collapse_comparison(ds)
    odds = [(label, odds_ratio(t)) for label, t in ds.strata]
    pooled_odds = odds_ratio(collapse(ds))
    rates = rate_table([ds])

    doc = {
        "dataset": ds.name,
        "correlations": pipeline.comparison_json(comp),
        "odds": {
            "strata": pipeline.per_stratum_json(odds, pipeline.odds_json),
            "pooled": pipeline.odds_json(pooled_odds),
        },
        "rates": pipeline.rates_json(rates),
    }

    rows = [[lab, sig6(r.value)] for lab, r in comp.stratum_values]
    rows.append(["pooled", sig6(comp.pooled.value)])
    if comp.flattened_ratio is not None:
        rows.append(["flattened composite", sig6(comp.flattened_ratio)])
    blocks = [f"dataset: {ds.name or '(unnamed)'}",
              "Nominal correlation\n" + text_table(["stratum", "value"], rows)]
    rows = [[lab, str(o)] for lab, o in odds] + [["pooled", str(pooled_odds)]]
    blocks.append("Odds ratios\n" + text_table(["stratum", "odds ratio"], rows))
    rows = [row[1:] for row in pipeline.rate_rows(rates)]
    blocks.append("Incident rates per shift\n" + text_table(["stratum", "group", "rate"], rows))
    _emit(args, "\n\n".join(blocks), doc)
    return 0


def cmd_fisher(args) -> int:
    ds = _resolve_source(args)
    nurses = args.nurses if args.nurses is not None else datasets.n_nurses_for(ds.name)
    result = pipeline.fisher_pipeline(ds, nurses, args.mode)
    doc = {"dataset": ds.name, **pipeline.fisher_json(result)}
    rows = [[lab, sig6(tail)] for lab, tail in result.stratum_tails]
    text = (
        f"dataset: {ds.name or '(unnamed)'} (mode {result.mode}, nurses {result.n_nurses})\n"
        + "Exact upper tails\n" + text_table(["stratum", "P(X >= a)"], rows)
        + f"\n\nproduct {sig6(result.product)}"
        + f"\ncorrected (x {result.n_nurses}) {sig6(result.corrected)}"
        + (" [exceeds 1]" if result.exceeds_one else "")
        + f"\none in N: {sig6(result.one_in_n)}"
    )
    _emit(args, text, doc)
    return 0


def cmd_binomial(args) -> int:
    ds = _resolve_source(args)
    table, label = _select_table(ds, args.stratum)
    if (args.k_min is None) != (args.k_max is None):
        raise CliInputError("--k-min and --k-max must be given together")
    k_range = None if args.k_min is None else (args.k_min, args.k_max)
    result = pipeline.binomial_analysis(table, k_range=k_range, tau=Fraction(str(args.tau)))
    doc = {"dataset": ds.name, "table": label, **pipeline.binomial_json(result)}
    rows = [[f">= {row.threshold}", sig6(row.value)] for row in result.tails.rows]
    one_in = sig6(result.one_in_n) if result.one_in_n is not None else "infinite"
    text = (
        f"dataset: {ds.name or '(unnamed)'} ({label}); draws {result.draws}, "
        f"null rate {result.null_rate} = {sig6(result.null_rate)}\n"
        + text_table(["cases", "P(X >= k)"], rows)
        + f"\n\nobserved {result.k_obs}: tail {sig6(result.tail_at_k_obs)}, one in {one_in}"
        + f"\nexpected count {sig6(result.expected)}; first tail < {result.tau}: "
        + (str(result.k_star) if result.k_star is not None else "none in range")
    )
    _emit(args, text, doc)
    return 0


def cmd_simpson(args) -> int:
    ds = _resolve_source(args)
    verdict = simpson_check(ds)
    doc = {"dataset": ds.name, **pipeline.simpson_json(verdict)}
    odds = (*verdict.stratum_odds, ("pooled", verdict.pooled_odds))
    rows = [[lab, str(o), o.versus_one()] for lab, o in odds]
    text = (
        f"dataset: {ds.name or '(unnamed)'}\n"
        + text_table(["stratum", "odds ratio", "side"], rows)
        + f"\n\nparadox: {str(verdict.paradox).lower()}"
        + (f" ({verdict.note})" if verdict.note else "")
    )
    _emit(args, text, doc)
    return 0


def cmd_replicate(args) -> int:
    overrides = None if args.nurses is None else dict.fromkeys(datasets.EMBEDDED, args.nurses)
    report = pipeline.replicate(n_nurses=overrides)
    doc = report.to_json_dict()
    failures = references.check_report_json(doc)
    doc["verification"] = {"passed": not failures, "failures": failures}

    if args.figures:
        fig_dir = Path(args.figures)
        fig_dir.mkdir(parents=True, exist_ok=True)
        for name in report.dataset_names:
            *_, svg = _figure(collapse(datasets.get(name)))
            (fig_dir / f"{name}.svg").write_text(svg)

    summary = ("all replication checks passed"
               if not failures else "REPLICATION MISMATCH:\n  " + "\n  ".join(failures))
    text = report.to_text() + "\n" + summary
    _emit(args, text, doc)
    if failures:
        print(f"error: {len(failures)} replication check(s) failed", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    ds = _resolve_source(args)
    table, label = _select_table(ds, args.stratum)
    if args.model == "binomial":
        if table.row2 == 0:
            raise ValueError("comparison group has zero shifts; cannot form a rate")
        spec = simulate.SimulationSpec(
            model="binomial", trials=args.trials, seed=args.seed,
            draws=table.row1, rate=Fraction(table.c, table.row2),
        )
    else:
        spec = simulate.SimulationSpec(
            model="hypergeometric", trials=args.trials, seed=args.seed,
            draws=table.row1, population=table.total, successes=table.col1,
        )
    k = args.threshold if args.threshold is not None else table.a
    result = simulate.simulate_tail(spec, k)
    if spec.model == "binomial":
        exact = binomial_upper_tail(BinomialParams(spec.draws, spec.rate), min(k, spec.draws + 1))
    else:
        exact = hypergeom_upper_tail(spec.population, spec.draws, spec.successes, k)
    if args.log:
        simulate.append_log(args.log, spec, k, result)
    doc = {
        "dataset": ds.name, "table": label, "spec": spec.to_json_dict(), "threshold": k,
        "estimate": result.estimate, "stderr": result.stderr,
        "interval": list(result.interval), "hits": result.hits,
        "exact": exact_json(exact),
    }
    text = (
        f"dataset: {ds.name or '(unnamed)'} ({label}); model {spec.model}, "
        f"trials {spec.trials}, seed {spec.seed}\n"
        f"P(X >= {k}) estimate {sig6(result.estimate)} (stderr {sig6(result.stderr)})\n"
        f"3-sigma interval [{sig6(result.interval[0])}, {sig6(result.interval[1])}]\n"
        f"exact {sig6(exact)}"
    )
    _emit(args, text, doc)
    return 0


def cmd_svg(args) -> int:
    ds = _resolve_source(args)
    table, label = _select_table(ds, args.stratum)
    corr, fig, caption, svg = _figure(table)
    doc = {
        "dataset": ds.name,
        "table": label,
        "correlation": float_json(corr.value),
        "parallelogram_area": fig.parallelogram_area,
        "rect_area": fig.rect_area,
        "area_ratio": exact_json(fig.area_ratio),
        "caption": list(caption),
        "svg": svg,
    }
    _emit(args, svg, doc)
    return 0


def _resolve_named(name: str) -> StratifiedTable:
    if name in datasets.EMBEDDED:
        return datasets.get(name)
    path = Path(name)
    if path.exists():
        return datasets.load_path(path)
    raise CliInputError(f"{name!r} is neither an embedded dataset nor an existing file")


def cmd_diff(args) -> int:
    first = _resolve_named(args.first)
    second = _resolve_named(args.second)
    delta = diff(first, second)
    doc = {
        "first": first.name,
        "second": second.name,
        "strata": [
            {
                "stratum": d.label,
                "cells": [list(d.cells[0]), list(d.cells[1])],
                "row_sums": list(d.row_sums),
                "col_sums": list(d.col_sums),
                "total": d.total,
            }
            for d in delta.strata
        ],
        "suspect_incident_delta": delta.suspect_incident_delta,
        "other_incident_delta": delta.other_incident_delta,
        "total_delta": delta.total_delta,
    }
    rows = [
        [d.label, str(d.cells[0][0]), str(d.cells[0][1]), str(d.cells[1][0]),
         str(d.cells[1][1]), str(d.total)]
        for d in delta.strata
    ]
    text = (
        f"diff: {first.name or args.first} -> {second.name or args.second}\n"
        + text_table(["stratum", "da", "db", "dc", "dd", "dtotal"], rows)
        + f"\n\nsuspect incident delta {delta.suspect_incident_delta}; "
        f"other incident delta {delta.other_incident_delta}; "
        f"grand total delta {delta.total_delta}"
    )
    _emit(args, text, doc)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact inference and confounding audits on stratified 2x2 tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, source=True):
        p = sub.add_parser(name, help=help_text)
        if source:
            _add_source_args(p)
        _add_output_args(p)
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze, "correlations, odds ratios, and rates for one dataset")

    p = command("fisher", cmd_fisher, "exact upper tails with the post-hoc correction")
    p.add_argument("--mode", choices=("stratified", "collapsed"), default="stratified")
    p.add_argument("--nurses", type=int, help="roster size for the post-hoc correction")

    p = command("binomial", cmd_binomial, "draws-with-replacement tail model")
    p.add_argument("--stratum", help="analyze this stratum instead of the pooled table")
    p.add_argument("--tau", type=float, default=0.05,
                   help="tail threshold for the crossing report (default 0.05)")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)

    command("simpson", cmd_simpson, "Simpson-paradox check across strata")

    p = command("replicate", cmd_replicate,
                "run all analyses on the embedded datasets and verify reference values",
                source=False)
    p.add_argument("--nurses", type=int, help="override the roster size for every dataset")
    p.add_argument("--figures", help="also write determinant SVG figures to this directory")

    p = command("simulate", cmd_simulate, "seeded Monte Carlo check of a tail probability")
    p.add_argument("--model", choices=("binomial", "hypergeometric"), default="binomial")
    p.add_argument("--stratum", help="simulate this stratum instead of the pooled table")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--threshold", type=int, help="tail threshold k (default: observed count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", help="append model,seed,trials,k,estimate,stderr to this CSV file")

    p = command("svg", cmd_svg, "determinant figure as a standalone SVG")
    p.add_argument("--stratum", help="draw this stratum instead of the pooled table")

    p = sub.add_parser("diff", help="cell-wise difference between two datasets")
    p.add_argument("first", help="embedded dataset name or file path")
    p.add_argument("second", help="embedded dataset name or file path")
    _add_output_args(p)
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliInputError, ValueError, KeyError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 3


def run() -> None:
    raise SystemExit(main())
