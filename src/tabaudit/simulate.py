"""Seeded Monte Carlo cross-validation of the exact tail probabilities.

Two null models are simulated:

* ``binomial`` - drawing with replacement: each trial draws ``draws`` times
  at a fixed rate and counts successes.
* ``hypergeometric`` - drawing without replacement via a roster shuffle:
  each trial permutes the roster of ``population`` shifts containing
  ``successes`` incident shifts and counts how many incidents land in the
  first ``draws`` positions (the suspect's shifts).

Reproducibility protocol: trials are processed in fixed blocks of
``BLOCK_TRIALS``; block ``i`` uses its own counter-based Philox stream keyed
by (seed, i). Results are therefore identical across runs and independent of
how blocks are distributed over workers: merging is integer summation. The
heterogeneous model draws one binomial count per nurse per trial (at most
one incident per shift at that nurse's own rate); the estimate concerns the
suspect's count only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

BLOCK_TRIALS = 1 << 16


def _block_generator(seed: int, block: int) -> np.random.Generator:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.draws < 0:
            raise ValueError(f"draws must be >= 0, got {self.draws}")
        if self.model == "binomial":
            if self.rate is None:
                raise ValueError("binomial model needs a rate")
            rate = Fraction(self.rate)
            if not 0 <= rate <= 1:
                raise ValueError(f"rate {rate} outside [0, 1]")
            object.__setattr__(self, "rate", rate)
        elif self.model == "hypergeometric":
            if self.population is None or self.successes is None:
                raise ValueError("hypergeometric model needs population and successes")
            if not 0 <= self.draws <= self.population:
                raise ValueError(f"draws {self.draws} outside [0, {self.population}]")
            if not 0 <= self.successes <= self.population:
                raise ValueError(f"successes {self.successes} outside [0, {self.population}]")
        else:
            raise ValueError(f"model must be 'binomial' or 'hypergeometric', got {self.model!r}")

    def to_json_dict(self) -> dict:
        doc = {"model": self.model, "trials": self.trials, "seed": self.seed,
               "draws": self.draws}
        if self.rate is not None:
            doc["rate"] = str(self.rate)
        if self.population is not None:
            doc["population"] = self.population
            doc["successes"] = self.successes
        return doc

    @classmethod
    def from_json(cls, text: str) -> "SimulationSpec":
        doc = json.loads(text)
        rate = doc.get("rate")
        return cls(
            model=doc["model"],
            trials=doc["trials"],
            seed=doc["seed"],
            draws=doc["draws"],
            rate=None if rate is None else Fraction(rate),
            population=doc.get("population"),
            successes=doc.get("successes"),
        )


@dataclass(frozen=True)
class SimulationResult:
    estimate: float
    stderr: float
    interval: tuple[float, float]   # estimate +- 3 standard errors, clipped to [0, 1]
    trials: int
    seed: int
    hits: int


def _result(hits: int, trials: int, seed: int) -> SimulationResult:
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1 - estimate) / trials)
    interval = (max(0.0, estimate - 3 * stderr), min(1.0, estimate + 3 * stderr))
    return SimulationResult(estimate, stderr, interval, trials, seed, hits)


def _blocks(trials: int):
    done = 0
    block = 0
    while done < trials:
        size = min(BLOCK_TRIALS, trials - done)
        yield block, size
        done += size
        block += 1


def simulate_tail(spec: SimulationSpec, k: int) -> SimulationResult:
    """Estimate P(X >= k) under the spec's null model."""
    if k < 0:
        raise ValueError(f"threshold {k} is negative")
    hits = 0
    if spec.model == "binomial":
        p = float(spec.rate)
        for block, size in _blocks(spec.trials):
            rng = _block_generator(spec.seed, block)
            counts = rng.binomial(spec.draws, p, size=size)
            hits += int(np.count_nonzero(counts >= k))
    else:
        roster = np.zeros(spec.population, dtype=np.int8)
        roster[: spec.successes] = 1
        for block, size in _blocks(spec.trials):
            rng = _block_generator(spec.seed, block)
            shuffled = np.tile(roster, (size, 1))
            rng.permuted(shuffled, axis=1, out=shuffled)
            counts = shuffled[:, : spec.draws].sum(axis=1)
            hits += int(np.count_nonzero(counts >= k))
    return _result(hits, spec.trials, spec.seed)


def simulate_heterogeneous(
    rates: Sequence[Fraction | float],
    shifts: Sequence[int],
    suspect_index: int,
    k: int,
    trials: int,
    seed: int,
) -> SimulationResult:
    """Estimate P(suspect count >= k) when each nurse draws at their own rate."""
    if len(rates) != len(shifts):
        raise ValueError(f"{len(rates)} rates but {len(shifts)} shift counts")
    if not 0 <= suspect_index < len(rates):
        raise ValueError(f"suspect index {suspect_index} outside 0..{len(rates) - 1}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rate_arr = np.array([float(Fraction(r)) for r in rates])
    if np.any(rate_arr < 0) or np.any(rate_arr > 1):
        raise ValueError("rates must lie in [0, 1]")
    shift_arr = np.array(list(shifts), dtype=np.int64)
    if np.any(shift_arr < 0):
        raise ValueError("shift counts must be non-negative")
    hits = 0
    for block, size in _blocks(trials):
        rng = _block_generator(seed, block)
        counts = rng.binomial(shift_arr, rate_arr, size=(size, len(rates)))
        hits += int(np.count_nonzero(counts[:, suspect_index] >= k))
    return _result(hits, trials, seed)


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
