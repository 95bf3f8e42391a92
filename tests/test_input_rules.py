"""One table per input rule: every entry point that takes a value refuses a
bad one with the same error, because each rule is checked in one place."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tabaudit import datasets, exact
from tabaudit.exact import HypergeomParams, hypergeom_upper_tail
from tabaudit.pipeline import fisher_pipeline, replicate
from tabaudit.simulate import SimulationSpec, simulate_heterogeneous, simulate_tail
from tabaudit.tables import Table2x2, TableValidationError

BINOMIAL = {"model": "binomial", "trials": 100, "seed": 0, "draws": 10, "rate": "1/3"}


def simulation_entry_points(field, value):
    """Each entry point that takes ``field``, called with ``value`` and valid
    values for everything else."""
    spec, k = dict(BINOMIAL), 1
    if field == "threshold":
        k = value
    else:
        spec[field] = value
    calls = [lambda: simulate_heterogeneous([Fraction(1, 3), Fraction(1, 2)], [10, 20], 0, k,
                                            spec["trials"], spec["seed"]),
             lambda: simulate_tail(SimulationSpec(**spec), k)]
    if field != "threshold":   # a spec holds no threshold
        calls.append(lambda: SimulationSpec(**spec))
    return calls


@pytest.mark.parametrize("field, value, message", [
    ("trials", 0, "trials must be >= 1, got 0"),
    ("trials", -5, "trials must be >= 1, got -5"),
    ("trials", True, "trials must be an integer, got True"),
    ("trials", 10.0, "trials must be an integer, got 10.0"),
    ("seed", -1, r"seed -1 outside \[0, 2\*\*64\)"),
    ("seed", 1 << 64, r"seed 18446744073709551616 outside \[0, 2\*\*64\)"),
    ("seed", False, "seed must be an integer, got False"),
    ("seed", 0.5, "seed must be an integer, got 0.5"),
    ("threshold", -1, "threshold -1 is negative"),
    ("threshold", -(1 << 70), f"threshold {-(1 << 70)} is negative"),
    ("threshold", True, "threshold must be an integer, got True"),
    ("threshold", 2.5, "threshold must be an integer, got 2.5"),
], ids=["trials-0", "trials-negative", "trials-bool", "trials-float", "seed-negative",
        "seed-2**64", "seed-bool", "seed-float", "threshold-negative", "threshold-huge-negative",
        "threshold-bool", "threshold-float"])
def test_trials_seed_and_threshold(field, value, message):
    for call in simulation_entry_points(field, value):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("population, draws, successes, message", [
    (10, -1, 4, r"draws -1 outside \[0, 10\]"),
    (10, 11, 4, r"draws 11 outside \[0, 10\]"),
    (10, 3, -1, r"successes -1 outside \[0, 10\]"),
    (10, 3, 11, r"successes 11 outside \[0, 10\]"),
    (-1, 0, 0, "population -1 is negative"),
    (10, True, 4, "draws must be an integer, got True"),
    (10, 3, 2.0, "successes must be an integer, got 2.0"),
    (10.0, 3, 4, "population must be an integer, got 10.0"),
], ids=["draws-negative", "draws-past-population", "successes-negative",
        "successes-past-population", "population-negative", "draws-bool", "successes-float",
        "population-float"])
def test_hypergeometric_margins(population, draws, successes, message):
    for call in (lambda: HypergeomParams(population, draws, successes, 0),
                 lambda: hypergeom_upper_tail(population, draws, successes, 0),
                 lambda: SimulationSpec(model="hypergeometric", trials=10, seed=0, draws=draws,
                                        population=population, successes=successes)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("field", ["row_labels", "col_labels"])
def test_bare_string_is_not_a_label_pair(field):
    # tuple("VO") is ("V", "O"): a string would be split into two labels
    with pytest.raises(TableValidationError,
                       match=f"^{field}: expected exactly two labels, got 'VO'$"):
        Table2x2(1, 2, 3, 4, **{field: "VO"})
    assert getattr(Table2x2(1, 2, 3, 4, **{field: ["V", "O"]}), field) == ("V", "O")


@pytest.mark.parametrize("names", [["shops", "shops"], ["original", "shops", "original"]])
def test_replicate_refuses_a_repeated_dataset(names):
    with pytest.raises(ValueError, match=f"^dataset {names[0]!r} named twice$"):
        replicate(names)


@pytest.mark.parametrize("nurses, message", [
    (0, "n_nurses must be >= 1, got 0"),
    (-27, "n_nurses must be >= 1, got -27"),
    (True, "n_nurses must be an integer, got True"),
    (2.5, "n_nurses must be an integer, got 2.5"),
], ids=["zero", "negative", "bool", "float"])
def test_roster_size(nurses, message):
    # replicate used to check only through fisher_pipeline, so a report of no
    # datasets carried a roster of 0 nurses
    shops = datasets.get("shops")
    for call in (lambda: fisher_pipeline(shops, nurses),
                 lambda: replicate(("shops",), n_nurses=nurses),
                 lambda: replicate((), n_nurses=nurses)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


def test_rate_text_is_read_by_decimal_once(monkeypatch):
    read, real = [], exact.Decimal
    monkeypatch.setattr(exact, "Decimal", lambda text: read.append(text) or real(text))
    exact.BinomialParams(5, "0.25")
    assert read == ["0.25"]
    SimulationSpec(model="binomial", trials=1, seed=0, draws=5, rate="0.25")
    assert read == ["0.25"] * 2
    simulate_heterogeneous(["0.5", "0.25"], [3, 5], 1, 1, 1, 0)
    assert read == ["0.25"] * 2 + ["0.5", "0.25"]


def heterogeneous_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        nurses = rng.randint(1, 6)
        rates = [Fraction(rng.randint(0, 40), rng.randint(40, 2000)) for _ in range(nurses)]
        shifts = [rng.randint(0, 400) for _ in range(nurses)]
        suspect = rng.randrange(nurses)
        trials = rng.choice([1, 999, 65536, 70000])
        yield rates, shifts, suspect, rng.randint(0, 30), trials, rng.randrange(1 << 64)


@pytest.mark.parametrize("case", list(heterogeneous_cases(12, seed=2024)))
def test_heterogeneous_is_the_suspects_binomial_spec(case):
    rates, shifts, suspect, k, trials, seed = case
    spec = SimulationSpec(model="binomial", trials=trials, seed=seed,
                          draws=shifts[suspect], rate=rates[suspect])
    assert simulate_heterogeneous(rates, shifts, suspect, k, trials, seed) == \
        simulate_tail(spec, k)


def test_heterogeneous_spans_two_blocks():
    rates, shifts = [Fraction(13, 1533), Fraction(1, 20)], [201, 300]
    spec = SimulationSpec(model="binomial", trials=70_000, seed=12345, draws=201,
                          rate=Fraction(13, 1533))
    result = simulate_heterogeneous(rates, shifts, 0, 3, 70_000, 12345)
    assert result == simulate_tail(spec, 3) and 0 < result.hits < 70_000
