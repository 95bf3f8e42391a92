"""Span tracing of tabaudit's public functions, recorded from outside the program.

``install`` replaces each function in ``TARGETS`` by a wrapper, in every loaded
``tabaudit`` module that holds it (so names that ``pipeline`` and ``cli``
import into their own namespace are traced too). Each call records one span:
id, parent id, op id, name, start and end in ns, the exception kind if it
raised, and counts computed from its arguments and result. Spans stay in
memory; ``Tracer.write`` saves them at the end of a run.

Nothing under ``src/`` is changed: the wrappers live only in the benchmark
worker process, and only during a traced phase.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

#: module -> public functions timed as layer boundaries.
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "pipeline": ("replicate", "fisher_pipeline", "binomial_analysis", "report_json",
                 "report_text"),
    "references": ("check_report_json",),
    "render": ("exact_json",),
    "exact": ("hypergeom_upper_tail", "binomial_upper_tail", "tail_table"),
    "simulate": ("simulate_tail", "simulate_heterogeneous"),
    "tables": ("collapse",),
    "datasets": ("from_json_dict",),
    "association": ("nominal_correlation", "rate_table"),
    "confounding": ("collapse_comparison", "simpson_check"),
}

SPAN_NAMES: tuple[str, ...] = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)

def decimal_digits(n: int) -> int:
    """Exact number of decimal digits of |n|, without ``str`` (which is capped)."""
    n = abs(n)
    if n == 0:
        return 1
    d = int(math.log10(n)) + 1
    if 10 ** (d - 1) > n:
        d -= 1
    elif 10 ** d <= n:
        d += 1
    return d


# Counts computed from a call's bound arguments and its result (labelled
# "computed" in the report: they are not measured inside the program).

def _hypergeom_counts(a, result):
    hi = min(a["draws"], a["successes"])
    terms = max(0, hi - max(a["k"], 0) + 1)
    digits = max(decimal_digits(result.numerator), decimal_digits(result.denominator))
    return {"terms": terms, "result_digits": digits}


def _simulate_counts(trials, model):
    block = getattr(sys.modules["tabaudit.simulate"], "BLOCK_TRIALS", 1 << 16)
    return {"trials": trials, "blocks": -(-trials // block), "model": model}


COUNTERS = {
    "exact.hypergeom_upper_tail": _hypergeom_counts,
    "exact.binomial_upper_tail": lambda a, r: {"terms": max(a["k"], 0)},
    "exact.tail_table": lambda a, r: {"rows": a["k_max"] - a["k_min"] + 1},
    "simulate.simulate_tail": lambda a, r: _simulate_counts(a["spec"].trials, a["spec"].model),
    "simulate.simulate_heterogeneous":
        lambda a, r: _simulate_counts(a["trials"], "heterogeneous"),
    "references.check_report_json": lambda a, r: {"failures": len(r)},
}


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "error", "counts")

    def __init__(self, id, parent, op, name, start, end=None, error=None, counts=None):
        self.id, self.parent, self.op, self.name = id, parent, op, name
        self.start, self.end, self.error, self.counts = start, end, error, counts

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans in memory; ``op`` is the id of the workload op in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.op, name, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def install(tracer: Tracer):
    """Wrap every target function; return a callable that restores the originals."""
    for mod in TARGETS:
        importlib.import_module(f"tabaudit.{mod}")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "tabaudit" or name.startswith("tabaudit."))]
    replaced: list[tuple[object, str, object]] = []
    for mod_name, names in TARGETS.items():
        home = sys.modules[f"tabaudit.{mod_name}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        replaced.append((module, attr, original))

    def uninstall():
        for module, attr, original in replaced:
            setattr(module, attr, original)

    return uninstall


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0
        run_start = run_end = None
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced phase of ``n_ops`` workload ops.

    Counts and self times are per op; ``result_digits`` is the largest seen.
    Functions the workload never calls report 0.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    errors = defaultdict(int)
    sums = defaultdict(int)
    digits = 0
    sim_ns = defaultdict(int)
    sim_trials = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
        self_ns[span.name] += selfs[span.id]
        if span.error:
            errors[span.name] += 1
        counts = span.counts or {}
        for key in ("terms", "rows", "failures", "blocks"):
            if key in counts:
                sums[span.name, key] += counts[key]
        if "result_digits" in counts:
            digits = max(digits, counts["result_digits"])
        if "model" in counts:
            sim_ns[counts["model"]] += selfs[span.id]
            sim_trials[counts["model"]] += counts["trials"]

    per_op = 1 / max(n_ops, 1)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] * per_op, "count")
        out[f"{name}.self_ms"] = (self_ns[name] * per_op / 1e6, "ms")
    out["exact.hypergeom_upper_tail.terms"] = (
        sums["exact.hypergeom_upper_tail", "terms"] * per_op, "count")
    out["exact.hypergeom_upper_tail.result_digits"] = (digits, "digits")
    out["exact.binomial_upper_tail.terms"] = (
        sums["exact.binomial_upper_tail", "terms"] * per_op, "count")
    out["exact.tail_table.rows"] = (sums["exact.tail_table", "rows"] * per_op, "count")
    out["references.failures"] = (
        sums["references.check_report_json", "failures"] * per_op, "count")
    out["render.exact_json.errors"] = (errors["render.exact_json"] * per_op, "count")
    for model, key in (("binomial", "simulate.simulate_tail.binomial"),
                       ("hypergeometric", "simulate.simulate_tail.hypergeometric"),
                       ("heterogeneous", "simulate.simulate_heterogeneous")):
        us = sim_ns[model] / 1e3 / sim_trials[model] if sim_trials[model] else 0.0
        out[f"{key}.us_per_trial"] = (us, "us")
    out["simulate.blocks"] = (
        (sums["simulate.simulate_tail", "blocks"]
         + sums["simulate.simulate_heterogeneous", "blocks"]) * per_op, "count")
    return out
