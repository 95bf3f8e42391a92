"""Benchmark worker: builds one workload's inputs, then runs and checks its ops.

Run by ``run.py`` in a fresh interpreter; prints ``ready`` once tabaudit is
imported and the inputs (with their oracles) are built, then, unless
``--setup-only``, one JSON line with the run's measurements.

    python3 perfbench/worker.py --root . --workload audit --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import calibrate
from workloads import error_kind, is_known_defect


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Samples, failures and wrong outputs of one worker run."""

    def __init__(self, workload):
        self.workload = workload
        self.ms: dict[str, list[float]] = defaultdict(list)      # kind -> measured op times
        self.ref_ms: dict[str, list[float]] = defaultdict(list)  # kind -> op times at reference speed
        self.loop_ms: list[float] = []           # reference-loop times taken between ops
        self.reference = calibrate.ReferenceLoop(numpy=getattr(workload, "uses_numpy", False))
        self.label_ms: dict[str, float] = defaultdict(float)     # label -> total time
        self.trials: dict[str, int] = defaultdict(int)           # kind -> trials run
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}          # op label -> error kind or wrong-output reason
        self.defects: dict[str, str] = {}         # probe label -> kind of the known defect it hit

    def cycles(self, seconds: float, min_cycles: int, tracer=None) -> int:
        """Run whole cycles, at least ``min_cycles``, stopping at the cycle
        boundary nearest to ``seconds``.

        Every run thus times the same mix of ops, each op as often as the
        others, so its percentiles and throughput do not depend on where in
        the shuffled cycle the clock ran out. ``tracer`` (if given) is told
        which op is in progress. Returns the number of in-process ops run.
        """
        ops = 0
        done = 0
        start = time.perf_counter()
        before = self.reference.ms()
        while True:
            for entry in self.workload.cycle:
                if tracer is not None:
                    tracer.op = self.attempted
                self.attempted += 1
                t0 = time.perf_counter_ns()
                try:
                    out = entry.call()
                except Exception as exc:
                    elapsed = time.perf_counter_ns() - t0
                    self.failed += 1
                    self.errors[entry.label] = error_kind(exc)
                else:
                    elapsed = time.perf_counter_ns() - t0
                    wrong = entry.check(out)
                    if wrong is not None:
                        self.failed += 1
                        self.errors[entry.label] = f"wrong output: {wrong}"
                after = self.reference.ms()
                self.loop_ms.append(after)
                self.ms[entry.kind].append(elapsed / 1e6)
                self.ref_ms[entry.kind].append(self.reference.scaled(elapsed / 1e6, before, after))
                before = after
                self.label_ms[entry.label] += elapsed / 1e6
                self.trials[entry.kind] += entry.trials
                if entry.kind != "cli_cold":
                    ops += 1
            done += 1
            spent = time.perf_counter() - start
            if done >= min_cycles and spent + spent / done / 2 >= seconds:
                return ops

    def probe(self) -> None:
        """Send each of the workload's known-defect inputs once through its op
        and check, untimed. A table that still raises the known defect is
        recorded in ``defects``; any other error or a wrong output goes to
        ``errors`` and makes the run incorrect."""
        for entry in getattr(self.workload, "probe", ()):
            try:
                out = entry.call()
            except Exception as exc:
                if is_known_defect(exc):
                    self.defects[entry.label] = error_kind(exc)
                else:
                    self.errors[entry.label] = error_kind(exc)
            else:
                wrong = entry.check(out)
                if wrong is not None:
                    self.errors[entry.label] = f"wrong output: {wrong}"

    def op_ms(self, at_reference: bool = False, first: dict | None = None) -> list[float]:
        """In-process op times (measured, or at reference speed), from the
        ``first[kind]``-th sample of each kind on."""
        times = self.ref_ms if at_reference else self.ms
        return [x for kind, xs in times.items() if kind != "cli_cold"
                for x in xs[(first or {}).get(kind, 0):]]


def end_to_end(run: Run) -> dict:
    ops = run.op_ms(at_reference=True)
    return {
        "op_ms_ref.p50": (percentile(ops, 0.5), "ms"),
        "op_ms_ref.p90": (percentile(ops, 0.9), "ms"),
        "ops_per_s_ref": (len(ops) / (sum(ops) / 1e3), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def details(run: Run) -> dict:
    """Figures printed but not part of the gated metric set: among them the
    measured (wall-clock) times behind the gated reference-speed ones."""
    ops = run.op_ms()
    out = {"error_rate": (run.failed / run.attempted, "ratio"),
           "op_ms.p50": (percentile(ops, 0.5), "ms"),
           "op_ms.p90": (percentile(ops, 0.9), "ms"),
           "ops_per_s": (len(ops) / (sum(ops) / 1e3), "1/s"),
           "op_ms.samples": (len(ops), "count"),
           "reference_loop_ms.p50": (percentile(run.loop_ms, 0.5), "ms")}
    cold = run.ms.get("cli_cold")
    if cold:
        out["cli_cold_ms.p50"] = (percentile(cold, 0.5), "ms")
        out["cli_cold_ms.p90"] = (percentile(cold, 0.9), "ms")
        out["cli_cold_ms_ref.p50"] = (percentile(run.ref_ms["cli_cold"], 0.5), "ms")
        out["cli_cold_ms.samples"] = (len(cold), "count")
    for kind, trials in run.trials.items():
        if trials:
            out[f"trials_per_s.{kind}"] = (trials / (sum(run.ms[kind]) / 1e3), "1/s")
    if getattr(run.workload, "probe", None):
        out["known_defect.tables"] = (len(run.defects), "count")
    return out


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak among its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def traced_phase(run: Run, seconds: float, root: Path, seed: int) -> dict:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    import spans

    run.cycles(seconds / 2, 1)
    base_p50 = percentile(run.op_ms(at_reference=True), 0.5)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    before = {kind: len(xs) for kind, xs in run.ms.items()}
    n_ops = run.cycles(seconds / 2, 1, tracer)
    uninstall()
    traced_p50 = percentile(run.op_ms(at_reference=True, first=before), 0.5)
    out = spans.layer_metrics(tracer.spans, n_ops)
    out["trace.overhead_pct"] = ((traced_p50 / base_p50 - 1) * 100, "%")
    out["simulate.peak_alloc_mb"] = (simulate_peak_alloc_mb(run), "MB")
    z = getattr(run.workload, "z", {})
    out["simulate.z_max"] = (max(z.values()) if z else 0.0, "sigma")
    tracer.write(root / ".perfbench" / f"spans-{run.workload.name}-seed{seed}.jsonl")
    return out


def simulate_peak_alloc_mb(run: Run) -> float:
    """tracemalloc peak around one call of each simulator kind (its costliest entry)."""
    peak = 0
    for kind in (kind for kind, trials in run.trials.items() if trials):
        entry = max((e for e in run.workload.cycle if e.kind == kind),
                    key=lambda e: run.label_ms[e.label])
        tracemalloc.start()
        try:
            entry.call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, root)
    import tabaudit

    if not Path(tabaudit.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"tabaudit imported from {tabaudit.__file__}, not from {root / 'src'}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    run = Run(workload)
    if args.trace:
        metrics = traced_phase(run, args.seconds, root, args.seed)
    else:
        run.cycles(args.seconds, 2)
        metrics = end_to_end(run)
    run.probe()
    if args.trace:
        metrics["render.exact_json.defect_tables"] = (len(run.defects), "count")
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "defects": run.defects,
        "metrics": metrics,
        "details": details(run),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
