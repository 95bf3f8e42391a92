"""Seeded Monte Carlo cross-validation of the exact tail probabilities.

Two null models are simulated:

* ``binomial`` - drawing with replacement: each trial draws ``draws`` times
  at a fixed rate and counts successes.
* ``hypergeometric`` - drawing without replacement: each trial counts the
  ``successes`` incident shifts among ``population`` that land in the
  suspect's ``draws`` shifts. The law is symmetric in the two margins, so
  with m the smaller and M the larger of them, a spec with m at most
  ``URN_ITEMS`` is drawn as an urn: the m items are placed one at a time,
  and step i hits one of the M marked places still free with probability
  exactly free / (population - i), one bounded integer draw compared with
  the free count. The urn steps in int16 up to ``URN_INT16_PLACES`` places
  and in int32 above, chosen from the spec alone: numpy's bounded 16-bit
  sampler (Lemire's multiply-and-reject) takes 4.3-5.2 ns per item per
  trial against 6.0-6.4 ns for int32 at populations up to 4 096, but
  rejects more often as the range grows, and at 10 000 places and m = 16 it
  took 133 ns per trial against 103 ns for int32 (one 32 768-trial lane,
  best of 30). numpy's ratio-of-uniforms sampler (HRUA) costs 120-270 ns
  per trial whatever m is: on 65 536-trial blocks at populations 339, 1029
  and 10 000 (numpy 2.4.6, a 2-core Xeon VM) the urn was the faster at
  every m up to 16, the two were close at 20 and numpy's was the faster at
  27, so numpy's sampler draws every spec with m above ``URN_ITEMS``.

Reproducibility protocol: trials are processed in fixed blocks of
``BLOCK_TRIALS``, and each block of n trials is drawn as two lanes: lane 0
draws ceil(n/2) trials and lane 1 floor(n/2), lane l of block b from its own
SFC64 stream, seeded by ``SeedSequence(seed, spawn_key=(b, l))``. The seed
fills the sequence's 128-bit pool before the key is appended, so no two
(seed, block, lane) keys share a stream. The lanes run on as many workers as
there are lanes, up to the CPUs the process may run on (its affinity mask
where the platform has one): the calling thread and the threads of one
process-wide ``concurrent.futures.ThreadPoolExecutor`` take lanes one at a
time, and numpy's samplers release the interpreter lock while they draw. The
executor keeps its threads between calls and starts one only for a job that
finds none idle, up to its default min(32, CPUs + 4) threads: once it is
warm a call starts no thread, and below that many helper lanes at once no
call waits on another's. A forked child builds an executor of its own.
Merging is integer summation, so a result depends on the spec and the
threshold alone: identical across runs and whatever the worker count.

In the heterogeneous model each nurse has their own rate (at most one
incident per shift); the estimate reads the suspect's count alone, which is
independent of the others, so it checks every nurse's rate and shift count
and then runs ``simulate_tail`` on the suspect's binomial spec. A spec
accepts exactly what the exact kernels accept, plus the limits of its own:
trials at least 1, a seed in [0, 2**64), draws below 2**63 for numpy's
binomial sampler, and numpy's 10**9 limit on each hypergeometric class,
which also keeps the population below 2**31, so the urn's int32 counts and
bounds cannot overflow (its int16 ones stay within 2**13). numpy is imported
only when a simulation runs, so the exact paths never load it.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .exact import BinomialParams, _as_int, _as_number, _as_rate, _margins
from .render import fraction_text, shown

BLOCK_TRIALS = 1 << 16
#: The most items (the smaller hypergeometric margin) drawn as an urn; numpy's
#: hypergeometric sampler draws larger ones, where it is the faster.
URN_ITEMS = 16
#: The most places an urn draws in int16; larger populations step in int32,
#: where numpy's bounded 16-bit sampler is the slower.
URN_INT16_PLACES = 1 << 13


def _lane_generator(seed: int, block: int, lane: int):
    """The numpy ``Generator`` of one lane of a block: SFC64 seeded by
    ``SeedSequence(seed, spawn_key=(block, lane))``."""
    import numpy as np
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(block, lane))))


def _lanes(trials: int):
    """``(block, lane, size)`` of every lane that draws a trial, in order."""
    for block, done in enumerate(range(0, trials, BLOCK_TRIALS)):
        n = min(BLOCK_TRIALS, trials - done)
        yield block, 0, n - n // 2
        if n > 1:
            yield block, 1, n // 2


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _executor():
    """The process-wide executor whose threads draw the lanes of every call.
    Its default size, min(32, CPUs + 4), runs the ``workers - 1`` jobs of a
    call at once on up to 33 CPUs; past that, the rest wait for a thread."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(thread_name_prefix="tabaudit-lanes")


if hasattr(os, "register_at_fork"):   # the parent's threads do not exist in a child
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _sum_lanes(count, lanes, workers: int) -> int:
    """The sum of ``count(lane)`` over the ``lanes`` iterator, taken one lane
    at a time by the calling thread and ``workers - 1`` executor threads.

    An exception raised in any worker, ``KeyboardInterrupt`` included, is
    raised in the caller once every executor thread has finished its share of
    the call; the others stop after the lane they are drawing. An executor
    that refuses a job (it is shutting down, or a thread did not start) is
    shut down and dropped, and the caller draws the lanes that job would
    have: the sum does not depend on the worker count. A job takes lanes only
    once the caller has recorded its ``submit`` as accepted, so a refused job
    left on the queue draws none.
    """
    lock = threading.Lock()
    stop, futures = [], []

    def work(job):
        total = 0
        try:
            while not stop:
                with lock:
                    lane = next(lanes, None) if job < len(futures) else None
                if lane is None:
                    break
                total += count(lane)
        except BaseException:
            stop.append(True)
            raise
        return total

    try:
        with lock:   # no job takes a lane before its submit is recorded here
            for job in range(workers - 1):
                # _executor() itself can raise: on a cold pool it imports
                # concurrent.futures.thread, which raises RuntimeError once
                # interpreter shutdown has begun, before any executor exists
                executor = None
                try:
                    executor = _executor()
                    futures.append(executor.submit(work, job))
                except RuntimeError:   # shutting down, or a thread did not start
                    if executor is not None:
                        executor.shutdown(wait=False)
                    _executor.cache_clear()
                    break
        total = work(-1)
    finally:
        # every lane is taken unless a worker failed or the caller was
        # interrupted; either way the helpers stop after the lane they draw
        stop.append(True)
        for future in futures:         # waits, and raises nothing of its own
            future.exception()
    return total + sum(future.result() for future in futures)


#: The parameters each model reads besides trials, seed and draws. A spec
#: refuses the other models' fields, which stay None, so its JSON (every field
#: that is not None, in field order) lists only what was simulated.
MODEL_FIELDS: dict[str, tuple[str, ...]] = {
    "binomial": ("rate",),
    "hypergeometric": ("population", "successes"),
}


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate: model, model parameters, trial count, seed."""

    model: str                      # "binomial" | "hypergeometric"
    trials: int
    seed: int
    draws: int                      # draws per trial (suspect's shifts)
    rate: Fraction | None = None    # binomial success probability
    population: int | None = None   # hypergeometric: total shifts
    successes: int | None = None    # hypergeometric: total incident shifts

    def __post_init__(self):
        fields = MODEL_FIELDS.get(self.model) if isinstance(self.model, str) else None
        if fields is None:
            raise ValueError(f"model must be 'binomial' or 'hypergeometric', got {self.model!r}")
        for model, names in MODEL_FIELDS.items():
            for field in names:
                value = getattr(self, field)
                if model == self.model and value is None:
                    raise ValueError(f"{self.model} model needs a {field} field")
                if model != self.model and value is not None:
                    raise ValueError(f"{self.model} model has no {field} field, got {value!r}")
        for field in ("trials", "seed", "draws", *fields):
            value = getattr(self, field)
            object.__setattr__(self, field,
                               _as_rate(value) if field == "rate" else _as_int(value, field))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 1 << 64:   # refused here, not by SeedSequence mid-simulation
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")
        if self.model == "binomial":
            BinomialParams(self.draws, self.rate)
            if self.draws >= 1 << 63:
                raise ValueError(f"draws {shown(self.draws)} must be below 2**63 "
                                 "for numpy's binomial sampler")
        else:
            _margins(self.population, self.draws, self.successes)
            if max(self.successes, self.population - self.successes) >= 10**9:
                raise ValueError(f"successes {shown(self.successes)} and population - "
                                 f"successes {shown(self.population - self.successes)} must each "
                                 "be below 10**9 for numpy's hypergeometric sampler")

    def to_json_dict(self) -> dict:
        return {field: fraction_text(*value.as_integer_ratio()) if field == "rate" else value
                for field, value in vars(self).items() if value is not None}


@dataclass(frozen=True)
class SimulationResult:
    estimate: float
    stderr: float
    interval: tuple[float, float]   # estimate +- 3 standard errors, clipped to [0, 1]
    trials: int
    seed: int
    hits: int


def simulate_tail(spec: SimulationSpec, k: int) -> SimulationResult:
    """Estimate P(X >= k) under the spec's null model: count the trials with
    ``X >= k``, one SFC64 stream per (seed, block, lane)."""
    k = _as_int(k, "threshold")
    if k < 0:
        raise ValueError(f"threshold {k} is negative")
    import numpy as np
    if spec.model == "binomial":
        def draw(rng, size):
            return rng.binomial(spec.draws, float(spec.rate), size=size)
    elif min(spec.successes, spec.draws) <= URN_ITEMS:
        def draw(rng, size):
            return _urn(rng, spec.population, *sorted((spec.successes, spec.draws)), size)
    else:
        def draw(rng, size):
            return rng.hypergeometric(spec.successes, spec.population - spec.successes,
                                      spec.draws, size=size)

    def count(unit):
        block, lane, size = unit
        return int(np.count_nonzero(draw(_lane_generator(spec.seed, block, lane), size) >= k))

    # two lanes per whole block, and one or two in a last, partial block
    n_lanes = 2 * (spec.trials // BLOCK_TRIALS) + min(spec.trials % BLOCK_TRIALS, 2)
    hits = _sum_lanes(count, _lanes(spec.trials), min(n_lanes, _cpus()))
    estimate = hits / spec.trials
    stderr = math.sqrt(estimate * (1 - estimate) / spec.trials)
    interval = (max(0.0, estimate - 3 * stderr), min(1.0, estimate + 3 * stderr))
    return SimulationResult(estimate, stderr, interval, spec.trials, spec.seed, hits)


def _urn(rng, population: int, items: int, marked: int, size: int):
    """How many of ``items`` placed one at a time among ``population`` places,
    without replacement, land on the ``marked`` ones, for ``size`` trials."""
    import numpy as np
    dtype = np.int16 if population <= URN_INT16_PLACES else np.int32
    free = np.full(size, marked, dtype=dtype)
    for i in range(items):
        free -= rng.integers(0, population - i, size, dtype=dtype) < free
    return marked - free


def simulate_heterogeneous(
    rates: Sequence[Fraction | float],
    shifts: Sequence[int],
    suspect_index: int,
    k: int,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Estimate P(suspect count >= k) when each nurse draws at their own rate:
    ``simulate_tail`` on the suspect's binomial spec."""
    if len(rates) != len(shifts):
        raise ValueError(f"{len(rates)} rates but {len(shifts)} shift counts")
    suspect_index = _as_int(suspect_index, "suspect_index")
    if not 0 <= suspect_index < len(rates):
        raise ValueError(f"suspect index {suspect_index} outside 0..{len(rates) - 1}")
    rates = [_as_number(r, f"rates[{i}]", "rates must lie in [0, 1]") for i, r in enumerate(rates)]
    shifts = [_as_int(n, f"shifts[{i}]") for i, n in enumerate(shifts)]
    if any(n < 0 for n in shifts):
        raise ValueError("shift counts must be non-negative")
    spec = SimulationSpec(model="binomial", trials=trials, seed=seed,
                          draws=shifts[suspect_index], rate=rates[suspect_index])
    return simulate_tail(spec, k)


LOG_HEADER = ("model", "seed", "trials", "k", "estimate", "stderr")


def append_log(path: str | Path, spec: SimulationSpec, k: int, result: SimulationResult) -> None:
    """Append one result line to a CSV log, writing the header on first use."""
    path = Path(path)
    new = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if new:
            writer.writerow(LOG_HEADER)
        writer.writerow([spec.model, spec.seed, spec.trials, k,
                         repr(result.estimate), repr(result.stderr)])
