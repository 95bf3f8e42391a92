"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from worker import Run, percentile  # noqa: E402
from workloads import (AUDIT_PLAN, DEFECT_PLAN, Entry, audit_dataset, audit_oracle,  # noqa: E402
                       check_audit)

from tabaudit import datasets, pipeline  # noqa: E402
from tabaudit.exact import BinomialParams, binomial_upper_tail, fisher_upper_tail  # noqa: E402
from tabaudit.tables import Table2x2  # noqa: E402


def span(id, parent, start, end, name="x"):
    return spans.Span(id, parent, 0, name, start, end)


def test_self_time_subtracts_union_of_children():
    trace = [
        span(0, None, 0, 100),
        span(1, 0, 10, 40),     # overlaps span 3: the union is counted once
        span(2, 1, 15, 25),     # grandchild: only its parent's self time shrinks
        span(3, 0, 30, 60),
        span(4, 0, 90, 120),    # runs past its parent's end: clipped to 90..100
        span(5, None, 200, 210),
    ]
    got = spans.self_times(trace)
    assert got == {0: 100 - (60 - 10) - (100 - 90), 1: 30 - 10, 2: 10, 3: 30, 4: 30, 5: 10}


def test_tracer_records_nesting_and_errors():
    tracer = spans.Tracer()

    def inner(k):
        if k < 0:
            raise ValueError("negative")
        return k

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", lambda k: traced_inner(k) + traced_inner(k))
    tracer.op = 7
    assert traced_outer(2) == 4
    try:
        traced_outer(-1)
    except ValueError:
        pass
    names = [(s.name, s.parent, s.op, s.error) for s in tracer.spans]
    assert names == [("outer", None, 7, None), ("inner", 0, 7, None), ("inner", 0, 7, None),
                     ("outer", None, 7, "ValueError"), ("inner", 3, 7, "ValueError")]
    assert all(s.end >= s.start for s in tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, n_ops=2)
    assert metrics["render.exact_json.calls"] == (0.0, "count")


def test_install_reaches_names_imported_into_other_modules():
    import tabaudit.pipeline as pl
    from tabaudit import exact

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        report = pl.replicate(["original"])
    finally:
        uninstall()
    assert pl.fisher_upper_tail is exact.fisher_upper_tail
    names = {s.name for s in tracer.spans}
    assert {"pipeline.replicate", "pipeline.fisher_pipeline", "tables.collapse",
            "exact.hypergeom_upper_tail", "exact.tail_table"} <= names
    tails = [s for s in tracer.spans if s.name == "exact.hypergeom_upper_tail"]
    assert all(s.counts["terms"] >= 1 for s in tails)
    metrics = spans.layer_metrics(tracer.spans, n_ops=1)
    assert metrics["exact.hypergeom_upper_tail.calls"][0] == len(tails)
    assert report.fisher["original"]["stratified"].mode == "stratified"


def test_decimal_digits_matches_str():
    for n in (0, 1, 9, 10, 99, 100, 10**50 - 1, 10**50, 7**300):
        assert spans.decimal_digits(n) == len(str(n))
    assert spans.decimal_digits(10**5000) == 5001


def test_oracle_agrees_with_fisher_tail_on_small_tables():
    for a in range(5):
        for b in range(4):
            for c in range(4):
                for d in range(5):
                    t = Table2x2(a, b, c, d)
                    want = oracle.log_hypergeom_tail(t.total, t.row1, t.col1, t.a)
                    assert oracle.agrees(fisher_upper_tail(t), want), (a, b, c, d)


def test_oracle_agrees_with_binomial_tail_on_small_tables():
    for draws in range(0, 12):
        for rate in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(13, 1533),
                     Fraction(1)):
            want = oracle.log_binomial_tails(draws, rate)
            for k in range(draws + 2):
                got = binomial_upper_tail(BinomialParams(draws, rate), k)
                assert oracle.agrees(got, want[k]), (draws, rate, k)


def test_oracle_rejects_a_wrong_tail():
    want = oracle.log_hypergeom_tail(1029, 142, 8, 8)
    assert not oracle.agrees(Fraction(11, 10) * fisher_upper_tail(Table2x2(8, 134, 0, 887)), want)


def test_audit_inputs_are_seeded_and_checked():
    first = [audit_dataset(random.Random(5), i, s) for i, s in enumerate(AUDIT_PLAN)]
    again = [audit_dataset(random.Random(5), i, s) for i, s in enumerate(AUDIT_PLAN)]
    other = [audit_dataset(random.Random(6), i, s) for i, s in enumerate(AUDIT_PLAN)]
    assert first == again and first != other
    doc = first[3]
    ds = datasets.from_json_dict(doc)
    report = pipeline.replicate([doc["name"]], registry={doc["name"]: ds})
    want = audit_oracle(doc)
    text = '{"datasets": ["%s"]}' % doc["name"]
    assert check_audit((report, text), doc["name"], want) is None
    want.pooled_tail += 1e-6
    assert "pooled tail" in check_audit((report, text), doc["name"], want)


def test_percentile_is_nearest_rank():
    xs = list(range(1, 11))
    assert percentile(xs, 0.5) == 5
    assert percentile(xs, 0.9) == 9
    assert percentile(xs * 3, 0.9) == 9       # whole repeated cycles pick the same slot
    assert math.isclose(percentile([2.5], 0.9), 2.5)


class FakeWorkload:
    name = "fake"

    def __init__(self, n):
        self.calls = 0
        self.cycle = [Entry("op", f"op{i}", self.call, lambda out: None) for i in range(n)]

    def call(self):
        self.calls += 1


def test_run_times_whole_cycles_only():
    workload = FakeWorkload(7)
    run = Run(workload)
    ops = run.cycles(0.0, 3)
    assert ops == run.attempted == workload.calls == 21 and run.failed == 0
    assert len(run.ms["op"]) == len(run.ref_ms["op"]) == len(run.loop_ms) == 21


def test_scaling_to_reference_speed():
    loop = calibrate.ReferenceLoop()
    assert loop.scaled(10.0, loop.reference_ms, loop.reference_ms) == 10.0
    # measured on a machine running at half the reference speed
    assert math.isclose(loop.scaled(10.0, 2 * loop.reference_ms, 2 * loop.reference_ms), 5.0)
    assert loop.ms() > 0


def test_audit_percentiles_fall_inside_cost_bands():
    """p50 and p90 ranks land mid-band for any number of whole cycles (see AUDIT_PLAN)."""
    n = sum(slot.draws for slot in AUDIT_PLAN)
    assert n == 76
    for cycles in range(1, 12):
        p50, p90 = math.ceil(0.5 * n * cycles), math.ceil(0.9 * n * cycles)
        assert 29 * cycles < p50 <= 45 * cycles
        assert 63 * cycles < p90 <= 73 * cycles
    assert not set(DEFECT_PLAN) & set(AUDIT_PLAN)
