"""The three seeded workloads: inputs, the op each runs, and its output check.

A workload is a fixed *cycle* of entries. The worker runs whole cycles, so
every run sees the same mix of sizes and shapes in the same proportions, and
the seed only changes the concrete counts (and the simulator seeds). Each
entry is an ``Entry``: ``kind`` groups samples (``cli_cold`` samples are timed
apart from the in-process ops), ``call`` is the timed op, and ``check`` returns
``None`` for a correct output or a one-line reason why it is wrong.

Everything the checks compare against (stdlib oracles, exact tails for the
Monte Carlo bands) is computed here, in set-up, outside the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle


@dataclass
class Entry:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    trials: int = 0


KNOWN_DEFECT = "Exceeds the limit"   # str() of an int over 4300 digits (sys.int_info)


def error_kind(exc: BaseException) -> str:
    text = str(exc).split("\n")[0]
    return f"{type(exc).__name__}: {text[:90]}"


def is_known_defect(exc: BaseException) -> bool:
    """The exact-tail serialisation defect this benchmark keeps visible."""
    return isinstance(exc, ValueError) and KNOWN_DEFECT in str(exc)


# ---------------------------------------------------------------------------
# replicate: the published figures, through the CLI (cold and in-process)

REPLICATE_ARGS = ("replicate", "--format", "json")

#: In-process calls after each cold process. On the reference VM the call right
#: after a cold process takes anywhere from 0.6x to 1.1x the steady cost, which
#: left the 50th percentile flipping between the two from run to run when every
#: call followed a cold process.
CALLS_PER_COLD = 4


class Replicate:
    """One iteration is one cold ``python -m tabaudit`` process plus
    ``CALLS_PER_COLD`` in-process ``cli.main`` calls. Inputs are the embedded
    datasets, so the seed changes nothing; every output must be byte-identical
    to the first."""

    name = "replicate"

    def __init__(self, seed: int, root: Path):
        from tabaudit import cli

        self.cli = cli
        self.root = root
        self.reference: bytes | None = None
        self.cycle = [
            Entry("cli_cold", "python -m tabaudit replicate --format json",
                  self.cold, self.check_bytes),
            *[Entry("op", "cli.main(replicate --format json)", self.in_process, self.check_bytes)
              for _ in range(CALLS_PER_COLD)],
        ]
        self.in_process()   # warm-up: one-off lazy initialisation is not an op's cost

    def cold(self) -> bytes:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-m", "tabaudit", *REPLICATE_ARGS],
                              cwd=self.root, env=env, capture_output=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()[:200]}")
        return proc.stdout

    def in_process(self) -> bytes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(list(REPLICATE_ARGS))
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return out.getvalue().encode()

    def check_bytes(self, out: bytes) -> str | None:
        if self.reference is None:
            doc = json.loads(out)
            if doc["verification"]["passed"] is not True:
                return f"verification failed: {doc['verification']['failures'][:3]}"
            self.reference = out
            return None
        return None if out == self.reference else "stdout differs from the first output"


# ---------------------------------------------------------------------------
# audit: users' own ward tables through the in-process pipeline

@dataclass(frozen=True)
class Slot:
    """One table shape in the audit cycle.

    ``shifts`` is the total over strata, ``share`` the suspect's share of
    shifts, ``incidence`` incidents per shift, and ``z`` where the observed
    cell sits against its null mean in standard deviations (positive: short
    upper tail; negative: long tail).
    """

    shape: str
    shifts: int
    strata: int
    share: float
    incidence: float
    z: float
    draws: int = 1      # independently drawn tables of this shape in each cycle


# A cycle of 76 tables in five cost bands, sized by what tabaudit 0.1.0 spends
# on each (on a 2-core x86 VM; one table's draws differ by about 5%). The
# bands are laid out so that, since the worker runs whole cycles, the 50th
# percentile of op time falls in the middle of the 14-17 ms band and the 90th
# in the middle of the ~90 ms band. A percentile then moves with the cost of
# the tables around it, not with noise deciding which side of a gap between
# bands it lands on.
AUDIT_PLAN: tuple[Slot, ...] = (
    # ranks 1-29: ward scale, 1-13 ms
    Slot("sparse", 300, 1, 0.15, 0.03, 2.5, draws=2),
    Slot("sparse", 340, 1, 0.17, 0.04, -1.0, draws=2),
    Slot("sparse", 500, 1, 0.12, 0.02, 2.5, draws=2),
    Slot("sparse", 700, 1, 0.14, 0.015, -1.0, draws=2),
    Slot("sparse", 1000, 1, 0.14, 0.01, 3.0, draws=2),
    Slot("dense", 300, 1, 0.2, 0.4, 2.0, draws=2),
    Slot("dense", 500, 1, 0.2, 0.3, -1.0, draws=2),
    Slot("sparse", 1730, 3, 0.12, 0.01, 3.0, draws=2),      # Lucia-shaped: three wards
    Slot("sparse", 1730, 3, 0.12, 0.01, -0.5, draws=2),
    Slot("sparse", 1200, 2, 0.1, 0.02, 2.0, draws=2),
    Slot("sparse", 3500, 1, 0.1, 0.01, -1.0, draws=2),
    Slot("dense", 1000, 1, 0.1, 0.45, 2.0, draws=2),
    Slot("sparse", 4000, 3, 0.1, 0.01, 2.5, draws=2),
    Slot("dense", 900, 3, 0.15, 0.35, 2.0, draws=3),

    # ranks 30-45, holding the 50th percentile: mid-size tables, 14-17 ms
    Slot("sparse", 4000, 1, 0.1, 0.01, 2.5, draws=4),
    Slot("sparse", 5000, 2, 0.1, 0.01, -1.0, draws=4),
    Slot("dense", 1300, 1, 0.1, 0.45, 2.0, draws=4),
    Slot("dense", 1500, 2, 0.1, 0.4, -1.0, draws=4),

    # ranks 46-63: large, 20-80 ms
    Slot("dense", 1200, 1, 0.15, 0.3, -1.0, draws=6),
    Slot("dense", 2500, 1, 0.1, 0.45, 2.0, draws=6),
    Slot("dense", 3000, 3, 0.1, 0.4, 2.0, draws=6),

    # ranks 64-73, holding the 90th percentile: sparse whole-hospital, ~90 ms
    Slot("sparse", 8000, 1, 0.1, 0.01, 2.5, draws=5),
    Slot("sparse", 9000, 3, 0.1, 0.01, 2.5, draws=5),

    # ranks 74-76: the costliest, 0.14-1.3 s
    Slot("sparse", 10000, 1, 0.1, 0.01, -1.0),
    Slot("dense", 1500, 1, 0.5, 0.5, -1.0),                 # long tail
    Slot("dense", 2000, 1, 0.5, 0.5, 1.0),
)

#: Whole-hospital rosters whose exact binomial tails pass the 4300-digit limit
#: on str(int), so tabaudit 0.1.0 cannot serialise their report (the known
#: defect). They are not in the timed cycle, where every op must succeed: each
#: run sends each of them once through the same op and check after the timed
#: loop, and reports which still fail and how.
DEFECT_PLAN: tuple[Slot, ...] = (
    Slot("sparse", 8000, 1, 0.25, 0.01, 2.5),
    Slot("sparse", 14000, 1, 0.1, 0.01, 2.5),
    Slot("sparse", 16000, 3, 0.1, 0.01, 2.5),
    Slot("sparse", 16000, 1, 0.1, 0.01, -1.0),
)

WARD_SPLITS = {1: (1.0,), 2: (0.6, 0.4), 3: (0.5, 0.3, 0.2)}


def ward_counts(rng: random.Random, shifts: int, share: float, incidence: float,
                z: float) -> tuple[int, int, int, int]:
    """One ward's (a, b, c, d), jittered by at most a few percent."""
    n = max(40, round(shifts * rng.uniform(0.99, 1.01)))
    r = max(2, round(n * share * rng.uniform(0.97, 1.03)))
    k = max(3, round(n * incidence * rng.uniform(0.97, 1.03)))
    p = k / n
    mean = r * p
    sd = math.sqrt(r * p * (1 - p) * (n - r) / max(n - 1, 1))
    lo, hi = max(0, r + k - n), min(r, k)
    a = min(hi, max(lo, round(mean + (z + rng.uniform(-0.2, 0.2)) * sd)))
    c = k - a
    if c == 0:
        a, c = a - 1, 1
    return a, r - a, c, n - r - c


def audit_dataset(rng: random.Random, index: int, slot: Slot) -> dict:
    """A dataset document for one slot.

    The last ward's ``d`` is nudged until the pooled ``c`` and ``d`` are
    coprime, so the reduced null rate c / (c + d) keeps its full denominator:
    how long the exact binomial fractions get then depends on the table's
    size, not on a chance common factor.
    """
    wards = [list(ward_counts(rng, round(slot.shifts * part), slot.share,
                              slot.incidence, slot.z))
             for part in WARD_SPLITS[slot.strata]]
    while math.gcd(sum(w[2] for w in wards), sum(w[3] for w in wards)) != 1:
        wards[-1][3] += 1
    strata = [{"label": f"W{i + 1}", "counts": [[a, b], [c, d]]}
              for i, (a, b, c, d) in enumerate(wards)]
    return {"name": f"audit-{index:02d}-{slot.shape}-{slot.shifts}",
            "row_labels": ["V", "Other"], "col_labels": ["Incident", "No incident"],
            "strata": strata}


@dataclass
class AuditOracle:
    stratum_tails: list[float]      # log P(X >= a) per stratum
    pooled_tail: float
    binomial_tails: list[float]     # log P(X >= k), k = 0..draws+1, pooled table


def audit_oracle(doc: dict) -> AuditOracle:
    cells = [s["counts"] for s in doc["strata"]]
    tails = [oracle.log_hypergeom_tail(a + b + c + d, a + b, a + c, a)
             for (a, b), (c, d) in cells]
    a, b, c, d = (sum(x[i][j] for x in cells) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return AuditOracle(tails, oracle.log_hypergeom_tail(a + b + c + d, a + b, a + c, a),
                       oracle.log_binomial_tails(a + b, Fraction(c, c + d)))


class Audit:
    """Each op loads one generated dataset, runs the full replication pipeline
    on it, and serialises the report to JSON."""

    name = "audit"

    def __init__(self, seed: int, root: Path):
        from tabaudit import datasets, pipeline

        self.datasets, self.pipeline = datasets, pipeline
        rng = random.Random(seed)
        docs = [audit_dataset(rng, i, slot)
                for i, slot in enumerate(s for s in AUDIT_PLAN for _ in range(s.draws))]
        rng.shuffle(docs)
        probe = [audit_dataset(rng, len(docs) + i, slot) for i, slot in enumerate(DEFECT_PLAN)]
        self.cycle = [self.entry(doc) for doc in docs]
        self.probe = [self.entry(doc) for doc in probe]
        pipeline.report_json(pipeline.replicate(["shops"]))   # warm-up

    def entry(self, doc: dict) -> Entry:
        want = audit_oracle(doc)
        return Entry("op", doc["name"], lambda: self.op(doc),
                     lambda out: check_audit(out, doc["name"], want))

    def op(self, doc: dict):
        ds = self.datasets.from_json_dict(doc)
        report = self.pipeline.replicate([doc["name"]], registry={doc["name"]: ds})
        text = json.dumps(self.pipeline.report_json(report))
        return report, text


def check_audit(out, name: str, want: AuditOracle) -> str | None:
    report, text = out
    if json.loads(text)["datasets"] != [name]:
        return "JSON report names the wrong dataset"
    strat = report.fisher[name]["stratified"]
    got = [tail for _, tail in strat.stratum_tails]
    if len(got) != len(want.stratum_tails):
        return "wrong number of stratum tails"
    for i, (tail, log_want) in enumerate(zip(got, want.stratum_tails)):
        if not oracle.agrees(tail, log_want):
            return f"stratum {i} tail disagrees with the lgamma oracle"
    coll = report.fisher[name]["collapsed"]
    if not oracle.agrees(coll.stratum_tails[0][1], want.pooled_tail):
        return "pooled tail disagrees with the lgamma oracle"
    for r, tails in ((strat, got), (coll, [coll.stratum_tails[0][1]])):
        if r.product != math.prod(tails, start=Fraction(1)):
            return f"{r.mode}: product is not the product of the tails"
        if r.corrected != r.n_nurses * r.product:
            return f"{r.mode}: corrected != n_nurses * product"
        if r.one_in_n * r.corrected != 1:
            return f"{r.mode}: one_in_n * corrected != 1"
    binom = report.binomial[name]
    prev = Fraction(1)
    for row in binom.tails.rows:
        if not 0 <= row.exact <= prev:
            return f"binomial tail row {row.threshold} not monotone in [0, 1]"
        prev = row.exact
        if not oracle.agrees(row.exact, want.binomial_tails[row.threshold]):
            return f"binomial tail row {row.threshold} disagrees with the lgamma oracle"
    if not oracle.agrees(binom.tail_at_k_obs, want.binomial_tails[binom.k_obs]):
        return "binomial tail at k_obs disagrees with the lgamma oracle"
    return None


# ---------------------------------------------------------------------------
# montecarlo: the seeded simulators on the embedded ward strata and pooled tables

SIGMA_BAND = 6.0       # two-sided normal tail 2e-9 per check; 20 distinct checks a run
TAIL_RANGE = (0.01, 0.99)   # thresholds whose exact tail keeps the normal band valid
#: Binomial ops per pooled table, and hypergeometric ops on the N=1029 table,
#: in a cycle. A cycle then has 20 ops, and in whole cycles the 90th
#: percentile of op time is the middle sample of the two N=1029 ops (rank 18
#: of 20), not the edge between them and the N=1734 op; two ops give it more
#: samples per run. The 50th falls among the costlier binomial ops.
POOLED_BINOMIAL_OPS = 4
OPS_AT_1029 = 2


class MonteCarlo:
    """Each op is one full-block simulator call (``simulate.BLOCK_TRIALS`` trials).

    Per cycle (20 ops): a binomial op on every embedded table with 0 < rate
    < 1 and three more on each pooled table, one hypergeometric op per
    distinct population (339, 366, 1734; the dataset is picked by the seed)
    and two at 1029, and one heterogeneous op per dataset. The
    threshold of each op is drawn by the seed among those whose exact tail lies
    in TAIL_RANGE; the estimate must lie within SIGMA_BAND exact standard errors
    of the exact tail, and repeat the same ``hits`` on every cycle.
    """

    name = "montecarlo"
    uses_numpy = True

    def __init__(self, seed: int, root: Path):
        from tabaudit import datasets, exact, simulate
        from tabaudit.tables import collapse

        self.simulate = simulate
        trials = simulate.BLOCK_TRIALS
        rng = random.Random(seed)
        self.hits: dict[str, int] = {}
        self.z: dict[str, float] = {}
        tables = {}
        for ds_name in ("original", "derksen"):
            ds = datasets.get(ds_name)
            for label, t in (*ds.strata, ("pooled", collapse(ds))):
                tables[ds_name, label] = t
        self.cycle: list[Entry] = []
        slot = 0

        def add(kind, label, call, exact_tail):
            nonlocal slot
            self.cycle.append(Entry(kind, label, call,
                                    lambda res, label=label, p=exact_tail:
                                    self.check_sim(label, p, res), trials))
            slot += 1

        def pick(tail_at, lo, hi):
            eligible = []
            for k in range(lo, hi + 1):     # tails fall as k grows
                p = tail_at(k)
                if p < TAIL_RANGE[0]:
                    break
                if p <= TAIL_RANGE[1]:
                    eligible.append((k, p))
            return rng.choice(eligible)

        def sim_seed():
            return seed * 1000 + slot

        for (ds_name, label), t in tables.items():
            if t.row2 == 0 or t.c in (0, t.row2):
                continue
            params = exact.BinomialParams(t.row1, Fraction(t.c, t.row2))
            for draw in range(POOLED_BINOMIAL_OPS if label == "pooled" else 1):
                k, p = pick(lambda k: float(exact.binomial_upper_tail(params, k)), 1, t.row1)
                spec = simulate.SimulationSpec(model="binomial", trials=trials, seed=sim_seed(),
                                               draws=t.row1, rate=params.rate)
                add("binomial", f"binomial {ds_name} {label} k={k} draw={draw}",
                    lambda spec=spec, k=k: self.simulate.simulate_tail(spec, k), p)

        by_population: dict[int, list] = {}
        for key, t in tables.items():
            by_population.setdefault(t.total, []).append((key, t))
        for population in sorted(by_population):
            (ds_name, label), t = rng.choice(by_population[population])
            for draw in range(OPS_AT_1029 if population == 1029 else 1):
                k, p = pick(lambda k: float(exact.hypergeom_upper_tail(t.total, t.row1, t.col1, k)),
                            1, min(t.row1, t.col1))
                spec = simulate.SimulationSpec(model="hypergeometric", trials=trials,
                                               seed=sim_seed(), draws=t.row1,
                                               population=t.total, successes=t.col1)
                add("hypergeometric",
                    f"hypergeometric {ds_name} {label} N={population} k={k} draw={draw}",
                    lambda spec=spec, k=k: self.simulate.simulate_tail(spec, k), p)

        for ds_name in ("original", "derksen"):
            ds = datasets.get(ds_name)
            shifts, rates = [], []
            for _, t in ds.strata:          # one V and one Other nurse per ward,
                ward_rate = Fraction(t.col1, t.total)   # both at the ward's pooled rate
                shifts += [t.row1, t.row2]
                rates += [ward_rate, ward_rate]
            suspect = 2 * rng.randrange(len(ds.strata))
            params = exact.BinomialParams(shifts[suspect], rates[suspect])
            k, p = pick(lambda k: float(exact.binomial_upper_tail(params, k)),
                        1, shifts[suspect])
            s = sim_seed()
            add("heterogeneous", f"heterogeneous {ds_name} suspect={suspect} k={k}",
                lambda rates=rates, shifts=shifts, suspect=suspect, k=k, s=s:
                self.simulate.simulate_heterogeneous(rates, shifts, suspect, k, trials, s), p)

        # Warm-up: the first call of each generator path pays ~20 ms of one-off set-up.
        simulate.simulate_tail(simulate.SimulationSpec(
            model="binomial", trials=64, seed=0, draws=10, rate=Fraction(1, 3)), 1)
        simulate.simulate_tail(simulate.SimulationSpec(
            model="hypergeometric", trials=64, seed=0, draws=10, population=30, successes=5), 1)
        simulate.simulate_heterogeneous([Fraction(1, 3)] * 2, [10, 10], 0, 1, 64, 0)

    def check_sim(self, label: str, p: float, res) -> str | None:
        sigma = math.sqrt(p * (1 - p) / res.trials)
        z = abs(res.estimate - p) / sigma
        self.z[label] = z
        if z > SIGMA_BAND:
            return f"estimate {res.estimate} is {z:.1f} sigma from the exact tail {p}"
        if self.hits.setdefault(label, res.hits) != res.hits:
            return f"hits {res.hits} differ from {self.hits[label]} with the same seed"
        return None


WORKLOADS = {w.name: w for w in (Replicate, Audit, MonteCarlo)}
