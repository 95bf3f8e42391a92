"""Command-line front end.

Subcommands: analyze, fisher, binomial, simpson, replicate, simulate, svg,
diff. Every subcommand supports ``--format text|json|csv``; output is
byte-identical for identical invocations (the simulator is seeded); files
are read and ``--out`` written as UTF-8. Exit codes: 0 success, 2 input or
output error, 3 analysis/validation error, 4 replication mismatch. The
argument parser is built once per process and shared by every
``main`` call.

``main`` is the one path from input to output. It loads the dataset and, for
binomial, simulate and svg, the ``--stratum`` or pooled table, and passes it
with the text head (``dataset: NAME`` or ``dataset: NAME (TABLE)``) to
``cmd_NAME(args, input, head)``; ``replicate`` and ``diff`` take only ``args``.
Each returns ``(doc, text)``: its JSON document and a function that renders
its text from that document alone, so every number is written once, by the
document's builder, and reads the same in every format; only ``--format
text`` calls it. ``main`` puts ``"dataset"`` and ``"table"`` first in the
document, writes it once, and exits 4 if its ``verification`` failed.
``svg`` and ``replicate --figures`` share one builder, :func:`svg_json`: the
figure's caption quotes the document's correlation and area-ratio display
strings, and the SVG is drawn from that caption.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path
from typing import Callable

from . import datasets, pipeline, references, simulate
from .association import determinant_figure, nominal_correlation, odds_ratio, rate_table
from .confounding import collapse_comparison, simpson_check
from .exact import BinomialParams, binomial_upper_tail, hypergeom_upper_tail
from .render import exact_json, float_json, int_json, text_table
from .svgfig import render_determinant_svg
from .tables import StratifiedTable, collapse, diff

PROG = "tabaudit"


class CliInputError(Exception):
    """Unusable invocation or input source (exit code 2)."""


#: Errors in the invocation or its input source (exit code 2). Every other
#: ValueError, TableValidationError and SupportError among them, is an analysis
#: or validation error (exit code 3). Any other KeyError is a bug and surfaces.
_INPUT_ERRORS = (CliInputError, datasets.DatasetFormatError, datasets.UnknownDatasetError)


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
        elif isinstance(doc, int):
            text = str(int_json(doc, prefix))
        else:
            text = str(doc)
        rows.append((prefix, text))
    return rows


def _emit(args, text: Callable[[], str], doc: dict) -> None:
    """Write ``doc`` as JSON or CSV, or ``text()`` for the text format: only
    that format calls it."""
    if args.format == "json":
        try:
            payload = json.dumps(doc, indent=2) + "\n"
        except ValueError:   # an int past str()'s digit limit: the CSV rows name its field
            _flatten(doc)
            raise
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(_flatten(doc))
        payload = out.getvalue()
    else:
        payload = text()
        if not payload.endswith("\n"):
            payload += "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        return
    try:
        sys.stdout.write(payload)
    except UnicodeEncodeError as exc:
        raise OSError(f"stdout's encoding, {exc.encoding}, cannot write "
                      f"{exc.object[exc.start:exc.end]!r}; --out writes UTF-8") from None


# ---------------------------------------------------------------------------
# subcommands: each returns (doc, text)

def cmd_analyze(args, ds: StratifiedTable, head: str):
    doc = {
        "correlations": pipeline.comparison_json(collapse_comparison(ds)),
        "odds": {
            "strata": pipeline.per_stratum_json(((label, odds_ratio(t)) for label, t in ds.strata),
                                                pipeline.odds_json),
            "pooled": pipeline.odds_json(odds_ratio(collapse(ds))),
        },
        "rates": pipeline.rates_json(rate_table([ds])),
    }

    def text():
        corr, odds = doc["correlations"], doc["odds"]
        rows = [[c["stratum"], c["display"]] for c in corr["strata"]]
        rows.append(["pooled", corr["pooled"]["display"]])
        if corr["flattened_ratio"] is not None:
            rows.append(["flattened composite", corr["flattened_ratio"]["display"]])
        blocks = [head, "Nominal correlation\n" + text_table(["stratum", "value"], rows)]
        rows = [[o["stratum"], pipeline.odds_text(o)] for o in odds["strata"]]
        rows.append(["pooled", pipeline.odds_text(odds["pooled"])])
        blocks.append("Odds ratios\n" + text_table(["stratum", "odds ratio"], rows))
        rows = [row[1:] for row in pipeline.rate_rows(doc["rates"])]
        blocks.append("Incident rates per shift\n"
                      + text_table(["stratum", "group", "rate"], rows))
        return "\n\n".join(blocks)

    return doc, text


def cmd_fisher(args, ds: StratifiedTable, head: str):
    doc = pipeline.fisher_json(pipeline.fisher_pipeline(ds, args.nurses, args.mode))
    return doc, lambda: (
        f"{head} (mode {doc['mode']}, nurses {doc['n_nurses']})\nExact upper tails\n"
        + text_table(["stratum", "P(X >= a)"],
                     [[t["stratum"], t["display"]] for t in doc["stratum_tails"]])
        + f"\n\nproduct {doc['product']['display']}"
        + f"\ncorrected (x {doc['n_nurses']}) {doc['corrected']['display']}"
        + (" [exceeds 1]" if doc["exceeds_one"] else "")
        + f"\none in N: {doc['one_in_n']['display']}"
    )


def cmd_binomial(args, table, head: str):
    if (args.k_min is None) != (args.k_max is None):
        raise CliInputError("--k-min and --k-max must be given together")
    k_range = None if args.k_min is None else (args.k_min, args.k_max)
    doc = pipeline.binomial_json(pipeline.binomial_analysis(table, k_range=k_range, tau=args.tau))
    return doc, lambda: (
        f"{head}; draws {doc['draws']}, "
        f"null rate {doc['null_rate']['fraction']} = {doc['null_rate']['display']}\n"
        + text_table(["cases", "P(X >= k)"], pipeline.tail_rows(doc["rows"]))
        + f"\n\nobserved {doc['k_obs']}: tail {doc['tail_at_k_obs']['display']}, one in "
        + (doc["one_in_n"]["display"] if doc["one_in_n"] else "infinite")
        + f"\nexpected count {doc['expected']['display']}; first tail < {doc['tau']}: "
        + (str(doc["k_star"]) if doc["k_star"] is not None else "none in range")
    )


def cmd_simpson(args, ds: StratifiedTable, head: str):
    doc = pipeline.simpson_json(simpson_check(ds))
    odds = (*doc["stratum_odds"], {"stratum": "pooled", **doc["pooled_odds"]})
    return doc, lambda: (
        f"{head}\n"
        + text_table(["stratum", "odds ratio", "side"],
                     [[o["stratum"], pipeline.odds_text(o), o["versus_one"]] for o in odds])
        + f"\n\nparadox: {str(doc['paradox']).lower()}"
        + (f" ({doc['note']})" if doc["note"] else "")
    )


def cmd_replicate(args):
    doc = pipeline.report_json(pipeline.replicate(n_nurses=args.nurses))
    failures = references.check_report_json(doc)
    doc["verification"] = {"passed": not failures, "failures": failures}

    if args.figures:
        fig_dir = Path(args.figures)
        fig_dir.mkdir(parents=True, exist_ok=True)
        for name in doc["datasets"]:
            (fig_dir / f"{name}.svg").write_text(svg_json(collapse(datasets.get(name)))["svg"])

    summary = ("all replication checks passed"
               if not failures else "REPLICATION MISMATCH:\n  " + "\n  ".join(failures))
    return doc, lambda: pipeline.report_text(doc) + "\n" + summary


def cmd_simulate(args, table, head: str):
    k = args.threshold if args.threshold is not None else table.a
    common = {"trials": args.trials, "seed": args.seed, "draws": table.row1}
    if args.model == "binomial":
        spec = simulate.SimulationSpec(model="binomial", rate=pipeline.null_rate(table), **common)
        exact = binomial_upper_tail(BinomialParams(spec.draws, spec.rate), k)
    else:
        spec = simulate.SimulationSpec(model="hypergeometric", population=table.total,
                                       successes=table.col1, **common)
        exact = hypergeom_upper_tail(spec.population, spec.draws, spec.successes, k)
    result = simulate.simulate_tail(spec, k)
    if args.log:
        simulate.append_log(args.log, spec, k, result)
    doc = {
        "spec": spec.to_json_dict(), "threshold": k,
        "estimate": result.estimate, "stderr": result.stderr,
        "interval": list(result.interval), "hits": result.hits,
        "exact": exact_json(exact),
    }
    given, (lo, hi) = doc["spec"], doc["interval"]
    return doc, lambda: (
        f"{head}; model {given['model']}, trials {given['trials']}, seed {given['seed']}\n"
        f"P(X >= {doc['threshold']}) estimate {doc['estimate']:.6g} "
        f"(stderr {doc['stderr']:.6g})\n"
        f"3-sigma interval [{lo:.6g}, {hi:.6g}]\n"
        f"exact {doc['exact']['display']}"
    )


def svg_json(table) -> dict:
    """The figure document of ``table``: its correlation and area ratio, then a
    caption quoting their display strings, then the SVG drawn with that caption."""
    fig = determinant_figure(table)
    doc = {"correlation": float_json(nominal_correlation(table).value),
           "parallelogram_area": int_json(fig.parallelogram_area, "parallelogram_area"),
           "rect_area": int_json(fig.rect_area, "rect_area"),
           "area_ratio": exact_json(fig.area_ratio)}
    doc["caption"] = [f"correlation {doc['correlation']['display']}",
                      f"area ratio {doc['area_ratio']['display']} "
                      f"({fig.parallelogram_area}/{fig.rect_area})"]
    doc["svg"] = render_determinant_svg(fig, doc["caption"])
    return doc


def cmd_svg(args, table, head: str):
    doc = svg_json(table)
    return doc, lambda: doc["svg"]


def _resolve_named(name: str) -> StratifiedTable:
    if name in datasets.EMBEDDED:
        return datasets.get(name)
    path = Path(name)
    if path.exists():
        return datasets.load_path(path)
    raise CliInputError(f"{name!r} is neither an embedded dataset nor an existing file")


def cmd_diff(args):
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

    def text():
        rows = [[s["stratum"], *(str(n) for row in s["cells"] for n in row), str(s["total"])]
                for s in doc["strata"]]
        return (
            f"diff: {doc['first'] or args.first} -> {doc['second'] or args.second}\n"
            + text_table(["stratum", "da", "db", "dc", "dd", "dtotal"], rows)
            + f"\n\nsuspect incident delta {doc['suspect_incident_delta']}; "
            f"other incident delta {doc['other_incident_delta']}; "
            f"grand total delta {doc['total_delta']}"
        )

    return doc, text


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    ``parse_args`` returns a new namespace each time and leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact inference and confounding audits on stratified 2x2 tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, verb=None, lead=(), source=True):
        """Add subcommand ``name``: the source options unless ``source`` is
        false, the output options, the ``(flag, options)`` pairs of ``lead``,
        and ``--stratum`` if ``verb`` says what the command does to one table."""
        p = sub.add_parser(name, help=help_text)
        if source:
            p.add_argument("--dataset", help="embedded dataset name "
                           f"({', '.join(datasets.available())})")
            p.add_argument("--input", help="path to a .json or .csv dataset file")
            p.add_argument("--transpose", action="store_true",
                           help="swap rows and columns of every stratum")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")
        for flag, options in lead:
            p.add_argument(flag, **options)
        if verb:
            p.add_argument("--stratum", help=f"{verb} this stratum instead of the pooled table")
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze, "correlations, odds ratios, and rates for one dataset")

    p = command("fisher", cmd_fisher, "exact upper tails with the post-hoc correction")
    p.add_argument("--mode", choices=("stratified", "collapsed"), default="stratified")
    p.add_argument("--nurses", type=int, default=datasets.DEFAULT_N_NURSES,
                   help="roster size for the post-hoc correction (default %(default)s)")

    p = command("binomial", cmd_binomial, "draws-with-replacement tail model", "analyze")
    p.add_argument("--tau", default="0.05", help="tail threshold for the crossing report, "
                   "read exactly, as 0.05, 1e-400 or 1/3 (default %(default)s)")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)

    command("simpson", cmd_simpson, "Simpson-paradox check across strata")

    p = command("replicate", cmd_replicate,
                "run all analyses on the embedded datasets and verify reference values",
                source=False)
    p.add_argument("--nurses", type=int, default=datasets.DEFAULT_N_NURSES,
                   help="roster size of every dataset's post-hoc correction "
                   "(default %(default)s)")
    p.add_argument("--figures", help="also write determinant SVG figures to this directory")

    p = command("simulate", cmd_simulate, "seeded Monte Carlo check of a tail probability",
                "simulate", lead=[("--model", {"choices": ("binomial", "hypergeometric"),
                                               "default": "binomial"})])
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--threshold", type=int, help="tail threshold k (default: observed count)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", help="append model,seed,trials,k,estimate,stderr to this CSV file")

    command("svg", cmd_svg, "determinant figure as a standalone SVG", "draw")

    p = command("diff", cmd_diff, "cell-wise difference between two datasets", source=False)
    p.add_argument("first", help="embedded dataset name or file path")
    p.add_argument("second", help="embedded dataset name or file path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "dataset" not in args:   # replicate and diff name their own inputs
            doc, text = args.func(args)
        else:
            if bool(args.dataset) == bool(args.input):
                raise CliInputError("exactly one of --dataset or --input is required")
            ds = datasets.get(args.dataset) if args.dataset else datasets.load_path(args.input)
            if args.transpose:
                ds = ds.transpose()
            first, head, source = {"dataset": ds.name}, f"dataset: {ds.name or '(unnamed)'}", ds
            if "stratum" in args:   # binomial, simulate and svg read one table
                label = pipeline.POOLED_LABEL if args.stratum is None else args.stratum
                source = collapse(ds) if args.stratum is None else dict(ds.strata).get(label)
                if source is None:
                    raise CliInputError(
                        f"stratum {label!r} not in dataset (has: {', '.join(ds.labels)})")
                first["table"], head = label, f"{head} ({label})"
            doc, text = args.func(args, source, head)
            doc = {**first, **doc}
        _emit(args, text, doc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 3
    failures = doc.get("verification", {}).get("failures")
    if failures:
        print(f"error: {len(failures)} replication check(s) failed", file=sys.stderr)
        return 4
    return 0


def run() -> None:
    raise SystemExit(main())
