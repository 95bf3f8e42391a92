"""tabaudit benchmark: one seeded workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload {replicate,audit,montecarlo} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (it uses ``src/`` directly; nothing is installed).
With ``--trace 0`` it reports the end-to-end metrics: set-up time, measured in
separate fresh interpreters, and op latency, throughput and peak RSS from one
worker process. With ``--trace 1`` it reports per-layer metrics from a run in
which the worker wraps tabaudit's public functions in spans, plus import times
from ``python -X importtime``. Every op's output is checked. Human-readable
lines come first; the last line of stdout is the JSON result. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("replicate", "audit", "montecarlo")
SETUP_SAMPLES = 5        # set-up-only workers timed for setup_s before the run, and again after
IMPORT_SAMPLES = 5       # python -X importtime probes in a traced run
TIME_LIMIT_S = 170       # whole run, including set-up
REFERENCE = calibrate.ReferenceLoop()


class BenchError(Exception):
    """A measurement or an output check could not run."""


def spawn_worker(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker; return (seconds until it reported ``ready``, rest of its stdout)."""
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # Unbuffered, so that readline takes only the first line from the pipe and
    # communicate, which reads the pipe directly, gets all of the rest.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        first = proc.stdout.readline().decode()
        ready = time.perf_counter() - t0
        rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0].decode()
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed during set-up or run (exit code {proc.returncode})")
    return ready, rest


def timed_setup(args, deadline: float, loops: list[float]) -> float:
    """One set-up-only worker's set-up time in s. Appends the reference loop's
    time just before and just after it to ``loops``."""
    loops.append(REFERENCE.ms())
    ready, _ = spawn_worker(args, deadline, setup_only=True)
    loops.append(REFERENCE.ms())
    return ready


def import_times_ms(deadline: float) -> dict[str, tuple[float, str]]:
    """Median cumulative import time of ``tabaudit.cli`` and of numpy, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples: dict[str, list[float]] = {"tabaudit": [], "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tabaudit.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError("import tabaudit.cli failed")
        found = {"tabaudit": 0.0, "numpy": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line.split(":", 1)[1].split("|"))
            if not cumulative.isdigit():
                continue            # the header line
            top = name.split(".")[0]
            if top in found:
                found[top] = max(found[top], int(cumulative) / 1e3)
        for key, ms in found.items():
            samples[key].append(ms)
    return {f"import.{key}_ms": (statistics.median(ms), "ms") for key, ms in samples.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tabaudit" / "__init__.py").is_file():
        print(f"error: no tabaudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        details = {}
        if args.trace:
            metrics = import_times_ms(deadline)
            _, out = spawn_worker(args, deadline, setup_only=False)
        else:
            # Set-up is timed on both sides of the run, so that a spell of slow
            # machine at one moment does not decide the median. The median is
            # scaled to reference speed by the median of the reference loops
            # timed around the samples: one short loop is too noisy to scale
            # one sample.
            loops: list[float] = []
            setup = [timed_setup(args, deadline, loops) for _ in range(SETUP_SAMPLES)]
            _, out = spawn_worker(args, deadline, setup_only=False)
            setup += [timed_setup(args, deadline, loops) for _ in range(SETUP_SAMPLES)]
            measured, loop = statistics.median(setup), statistics.median(loops)
            metrics = {"setup_s": (REFERENCE.scaled(measured, loop, loop), "s")}
            details = {"setup_s.measured": (measured, "s")}
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, IndexError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics.update(result["metrics"])
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for name, (value, unit) in {**metrics, **details, **result["details"]}.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for label, kind in sorted(result["errors"].items()):
        print(f"  FAILED: {label}: {kind}")
    for label, kind in sorted(result["defects"].items()):
        print(f"  known defect, outside the timed loop: {label}: {kind}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
