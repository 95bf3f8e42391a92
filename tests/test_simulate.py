"""Monte Carlo engine: determinism, convergence, edge-case exactness."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from tabaudit.exact import BinomialParams, binomial_upper_tail, hypergeom_upper_tail
from tabaudit.simulate import (
    LOG_HEADER,
    SimulationSpec,
    append_log,
    simulate_heterogeneous,
    simulate_tail,
)


def binomial_spec(trials=20000, seed=0):
    return SimulationSpec(model="binomial", trials=trials, seed=seed,
                          draws=203, rate=Fraction(14, 1531))


def hypergeom_spec(trials=20000, seed=0):
    return SimulationSpec(model="hypergeometric", trials=trials, seed=seed,
                          draws=58, population=339, successes=14)


def oracle_sigma(exact: float, trials: int) -> float:
    return math.sqrt(exact * (1 - exact) / trials)


class TestDeterminism:
    def test_binomial_repeats_identically(self):
        a = simulate_tail(binomial_spec(seed=123), 6)
        b = simulate_tail(binomial_spec(seed=123), 6)
        assert a == b

    def test_hypergeom_repeats_identically(self):
        a = simulate_tail(hypergeom_spec(trials=5000, seed=9), 5)
        b = simulate_tail(hypergeom_spec(trials=5000, seed=9), 5)
        assert a == b

    def test_seed_changes_stream(self):
        a = simulate_tail(binomial_spec(seed=1), 6)
        b = simulate_tail(binomial_spec(seed=2), 6)
        assert a.hits != b.hits

    def test_seed_outside_64_bits_rejected(self):
        # a seed keys Philox as it is: -1 must not alias 2**64 - 1, and both ends work
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
                simulate_tail(binomial_spec(trials=10, seed=seed), 6)
        assert simulate_tail(binomial_spec(trials=10, seed=(1 << 64) - 1), 0).hits == 10

    def test_block_boundary_is_stable(self):
        # trial counts straddling the 65536-trial block size stay consistent:
        # the first block of a longer run equals the shorter run's only block
        short = simulate_tail(binomial_spec(trials=65536, seed=5), 6)
        longer = simulate_tail(binomial_spec(trials=65537, seed=5), 6)
        assert longer.hits in (short.hits, short.hits + 1)


class TestConvergence:
    def test_binomial_tracks_exact_tail(self):
        exact = float(binomial_upper_tail(BinomialParams(203, Fraction(14, 1531)), 6))
        result = simulate_tail(binomial_spec(trials=20000, seed=0), 6)
        assert abs(result.estimate - exact) <= 3 * oracle_sigma(exact, 20000)

    def test_hypergeom_tracks_exact_tail(self):
        exact = float(hypergeom_upper_tail(339, 58, 14, 5))
        result = simulate_tail(hypergeom_spec(trials=20000, seed=0), 5)
        assert abs(result.estimate - exact) <= 3 * oracle_sigma(exact, 20000)

    def test_hundred_seeds_within_three_sigma(self):
        # deterministic given the frozen seed list; observed worst case 2.66 sigma
        exact = float(binomial_upper_tail(BinomialParams(203, Fraction(14, 1531)), 6))
        sigma = oracle_sigma(exact, 20000)
        within = sum(
            1 for seed in range(100)
            if abs(simulate_tail(binomial_spec(trials=20000, seed=seed), 6).estimate - exact)
            <= 3 * sigma
        )
        assert within >= 99

    def test_interval_contains_estimate(self):
        result = simulate_tail(binomial_spec(trials=4096, seed=3), 6)
        lo, hi = result.interval
        assert lo <= result.estimate <= hi
        assert 0 <= result.estimate <= 1


class TestEdgeExactness:
    def test_zero_rate_never_hits(self):
        spec = SimulationSpec(model="binomial", trials=5000, seed=11, draws=40, rate=Fraction(0))
        result = simulate_tail(spec, 1)
        assert result.hits == 0
        assert result.estimate == 0.0
        assert result.stderr == 0.0

    def test_certain_rate_always_hits(self):
        spec = SimulationSpec(model="binomial", trials=5000, seed=11, draws=40, rate=Fraction(1))
        assert simulate_tail(spec, 40).estimate == 1.0

    def test_threshold_zero_is_certain(self):
        assert simulate_tail(binomial_spec(trials=1000, seed=0), 0).estimate == 1.0


class TestHeterogeneous:
    RATES = [Fraction(13, 1533)] * 5
    SHIFTS = [100, 250, 201, 80, 300]

    def test_equal_rates_match_binomial_oracle(self):
        exact = float(binomial_upper_tail(BinomialParams(201, Fraction(13, 1533)), 14))
        result = simulate_heterogeneous(self.RATES, self.SHIFTS, 2, 14, 100000, seed=0)
        assert abs(result.estimate - exact) <= 3 * oracle_sigma(exact, 100000)

    def test_equal_rates_match_binomial_oracle_easy_threshold(self):
        exact = float(binomial_upper_tail(BinomialParams(201, Fraction(13, 1533)), 2))
        result = simulate_heterogeneous(self.RATES, self.SHIFTS, 2, 2, 50000, seed=1)
        assert abs(result.estimate - exact) <= 3 * oracle_sigma(exact, 50000)

    def test_suspect_rate_one(self):
        rates = [Fraction(1, 10), Fraction(1), Fraction(1, 2)]
        result = simulate_heterogeneous(rates, [30, 25, 40], 1, 25, 2000, seed=4)
        assert result.estimate == 1.0

    def test_suspect_rate_zero(self):
        rates = [Fraction(1, 10), Fraction(0), Fraction(1, 2)]
        result = simulate_heterogeneous(rates, [30, 25, 40], 1, 1, 2000, seed=4)
        assert result.estimate == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="rates but"):
            simulate_heterogeneous([Fraction(1, 2)], [10, 20], 0, 1, 100, seed=0)

    def test_bad_suspect_index(self):
        with pytest.raises(ValueError, match="suspect index"):
            simulate_heterogeneous([Fraction(1, 2)], [10], 3, 1, 100, seed=0)

    def test_deterministic(self):
        a = simulate_heterogeneous(self.RATES, self.SHIFTS, 2, 3, 30000, seed=77)
        b = simulate_heterogeneous(self.RATES, self.SHIFTS, 2, 3, 30000, seed=77)
        assert a == b


class TestSpecAndLog:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="trials"):
            SimulationSpec(model="binomial", trials=0, seed=0, draws=3, rate=Fraction(1, 2))
        with pytest.raises(ValueError, match="needs a rate"):
            SimulationSpec(model="binomial", trials=10, seed=0, draws=3)
        with pytest.raises(ValueError, match="population"):
            SimulationSpec(model="hypergeometric", trials=10, seed=0, draws=3)
        with pytest.raises(ValueError, match="model"):
            SimulationSpec(model="poisson", trials=10, seed=0, draws=3)
        with pytest.raises(ValueError, match="outside"):
            SimulationSpec(model="hypergeometric", trials=10, seed=0,
                           draws=30, population=20, successes=5)

    def test_spec_json_round_trip(self):
        for spec in (binomial_spec(), hypergeom_spec()):
            back = SimulationSpec.from_json(__import__("json").dumps(spec.to_json_dict()))
            assert back == spec

    def test_log_append(self, tmp_path):
        path = tmp_path / "runs.csv"
        spec = binomial_spec(trials=1000, seed=2)
        result = simulate_tail(spec, 6)
        append_log(path, spec, 6, result)
        append_log(path, spec, 6, result)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(LOG_HEADER)
        assert len(lines) == 3
        assert lines[1] == lines[2]
        model, seed, trials, k, estimate, stderr = lines[1].split(",")
        assert (model, seed, trials, k) == ("binomial", "2", "1000", "6")
        assert float(estimate) == result.estimate
        assert float(stderr) == result.stderr
