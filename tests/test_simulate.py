"""Monte Carlo engine: determinism, convergence, edge-case exactness."""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import json_values
from tabaudit import simulate
from tabaudit.exact import BinomialParams, binomial_upper_tail, hypergeom_upper_tail
from tabaudit.simulate import (
    BLOCK_TRIALS,
    LOG_HEADER,
    URN_INT16_PLACES,
    URN_ITEMS,
    SimulationSpec,
    _lane_generator,
    _urn,
    append_log,
    simulate_heterogeneous,
    simulate_tail,
)


def binomial_spec(trials=20000, seed=0):
    return SimulationSpec(model="binomial", trials=trials, seed=seed,
                          draws=203, rate=Fraction(14, 1531))


def hypergeom_spec(trials=20000, seed=0, successes=14):
    return SimulationSpec(model="hypergeometric", trials=trials, seed=seed,
                          draws=58, population=339, successes=successes)


@st.composite
def corrupted_specs(draw):
    """A valid spec document with one field replaced by any JSON value or
    removed, which leaves it None."""
    doc = draw(st.sampled_from([binomial_spec(), hypergeom_spec()])).to_json_dict()
    doc[draw(st.sampled_from(sorted(doc)))] = None if draw(st.booleans()) else draw(json_values)
    return doc


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
        # SeedSequence takes any seed >= 0: the spec refuses -1 and 2**64 itself,
        # and both ends of [0, 2**64) work
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

    @pytest.mark.parametrize("spec", [
        binomial_spec(trials=2 * BLOCK_TRIALS, seed=8),
        hypergeom_spec(trials=2 * BLOCK_TRIALS, seed=8, successes=URN_ITEMS),
        hypergeom_spec(trials=2 * BLOCK_TRIALS, seed=8, successes=URN_ITEMS + 1),
    ], ids=["binomial_spec", "urn_spec", "numpy_hypergeom_spec"])
    def test_blocks_merge_by_summation(self, spec):
        # lane l of block b draws half the block from its own (seed, b, l) stream,
        # and the hits add up; up to URN_ITEMS incident shifts (fewer than the 58
        # drawn) are placed as an urn, in int16 at 339 places
        by_hand = 0
        for block in (0, 1):
            for lane in (0, 1):
                rng, size = _lane_generator(spec.seed, block, lane), BLOCK_TRIALS // 2
                if spec.model == "binomial":
                    counts = rng.binomial(spec.draws, float(spec.rate), size=size)
                elif spec.successes <= URN_ITEMS:
                    width = np.int16 if spec.population <= URN_INT16_PLACES else np.int32
                    free = np.full(size, spec.draws, dtype=width)
                    for i in range(spec.successes):
                        free -= rng.integers(0, spec.population - i, size, dtype=width) < free
                    counts = spec.draws - free
                else:
                    counts = rng.hypergeometric(spec.successes, spec.population - spec.successes,
                                                spec.draws, size=size)
                by_hand += int((counts >= 5).sum())
        assert simulate_tail(spec, 5).hits == by_hand

    def test_odd_blocks_split_lane_zero_first(self):
        # a block of n trials draws ceil(n/2) in lane 0 and floor(n/2) in lane 1;
        # a one-trial block has lane 0 alone
        spec = binomial_spec(trials=BLOCK_TRIALS + 3, seed=4)
        sizes = [(0, 0, BLOCK_TRIALS // 2), (0, 1, BLOCK_TRIALS // 2), (1, 0, 2), (1, 1, 1)]
        assert list(simulate._lanes(spec.trials)) == sizes
        assert list(simulate._lanes(1)) == [(0, 0, 1)]
        by_hand = sum(
            int((_lane_generator(spec.seed, block, lane).binomial(
                spec.draws, float(spec.rate), size=size) >= 2).sum())
            for block, lane, size in sizes)
        assert simulate_tail(spec, 2).hits == by_hand

    def test_seed_and_block_do_not_alias(self):
        # keys that would alias if seed, block and lane were summed or packed into one word
        keys = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1 << 32, 0, 0), (0, 0, 0),
                ((1 << 64) - 1, 0, 0), (0, 1 << 32, 0), (0, 0, 1 << 32), (0, 1, 1), (1, 1, 0)]
        firsts = {_lane_generator(*key).bit_generator.random_raw() for key in keys}
        assert len(firsts) == len(keys)


MULTI_BLOCK_SPECS = [
    binomial_spec(trials=3 * BLOCK_TRIALS + 1, seed=6),
    hypergeom_spec(trials=3 * BLOCK_TRIALS + 1, seed=6, successes=URN_ITEMS),
    hypergeom_spec(trials=3 * BLOCK_TRIALS + 1, seed=6, successes=URN_ITEMS + 1),
]
MULTI_BLOCK_IDS = ["binomial_spec", "urn_spec", "numpy_hypergeom_spec"]


class TestWorkers:
    @pytest.mark.parametrize("spec", MULTI_BLOCK_SPECS, ids=MULTI_BLOCK_IDS)
    def test_hits_do_not_depend_on_the_worker_count(self, spec, monkeypatch):
        # 7 lanes over 1, 2 or 3 workers, whatever the CPUs of the test machine
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(simulate, "_cpus", lambda cpus=cpus: cpus)
            results.append(simulate_tail(spec, 5))
        assert results[0] == results[1] == results[2]

    def test_concurrent_calls_equal_serial_calls(self):
        # more calling threads than cores, all handing lanes to the same helpers
        specs = [*MULTI_BLOCK_SPECS, binomial_spec(trials=5000, seed=2)] * 2
        serial = [simulate_tail(spec, 5) for spec in specs]
        results = [None] * len(specs)

        def call(i):
            results[i] = simulate_tail(specs[i], 5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(specs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    @staticmethod
    def serial_result(spec, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_cpus", lambda: 1)
            return simulate_tail(spec, 5)

    @staticmethod
    def assert_helpers_serve_again(spec, serial, monkeypatch):
        # with the lanes drawing again, a call returns the serial result, and
        # 20 more calls start no thread
        monkeypatch.setattr(simulate, "_lane_generator", _lane_generator)
        assert simulate_tail(spec, 5) == serial
        start, started = threading.Thread.start, []

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        for _ in range(20):
            assert simulate_tail(spec, 5) == serial
        assert started == []

    @staticmethod
    def fresh_pool():
        # the old pool's threads have exited before a call builds the next one
        simulate._executor().shutdown()
        simulate._executor.cache_clear()

    @pytest.mark.parametrize("error", [ValueError("lane failed"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    def test_error_in_a_worker_thread_reaches_the_caller(self, error, monkeypatch):
        # the helper's lane raises once the calling thread has taken a lane; the
        # caller stops after that lane and raises the error
        drawing, raised, caller_lanes = threading.Event(), threading.Event(), []

        def lane_generator(seed, block, lane):
            if threading.current_thread() is threading.main_thread():
                drawing.set()
                assert raised.wait(timeout=60)
                caller_lanes.append((block, lane))
                return _lane_generator(seed, block, lane)
            assert drawing.wait(timeout=60)
            raised.set()
            raise error

        spec = MULTI_BLOCK_SPECS[0]
        serial = self.serial_result(spec, monkeypatch)
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "_lane_generator", lane_generator)
        with pytest.raises(type(error)) as info:
            simulate_tail(spec, 5)
        assert info.value is error
        assert len(caller_lanes) == 1
        self.assert_helpers_serve_again(spec, serial, monkeypatch)

    @pytest.mark.parametrize("error", [ValueError("lane failed"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    def test_error_in_the_calling_thread_stops_the_workers(self, error, monkeypatch):
        # the calling thread's lane raises once both helpers have taken a lane,
        # theirs wait until it has raised, and every lane a helper took has
        # been drawn when the error reaches the caller
        both_taken, raised, taken, drawn = threading.Event(), threading.Event(), [], []

        class HelperGenerator:
            def __init__(self, rng):
                self.rng = rng

            def binomial(self, *args, **kwargs):
                counts = self.rng.binomial(*args, **kwargs)
                drawn.append(counts)
                return counts

        def lane_generator(seed, block, lane):
            if threading.current_thread() is threading.main_thread():
                assert both_taken.wait(timeout=60)
                raised.set()
                raise error
            taken.append((block, lane))
            if len(taken) == 2:
                both_taken.set()
            assert raised.wait(timeout=60)
            return HelperGenerator(_lane_generator(seed, block, lane))

        spec = MULTI_BLOCK_SPECS[0]
        serial = self.serial_result(spec, monkeypatch)
        monkeypatch.setattr(simulate, "_cpus", lambda: 3)
        monkeypatch.setattr(simulate, "_lane_generator", lane_generator)
        with pytest.raises(type(error)) as info:
            simulate_tail(spec, 5)
        assert info.value is error
        assert len(taken) >= 2 and len(drawn) == len(taken)
        self.assert_helpers_serve_again(spec, serial, monkeypatch)

    def test_a_helper_that_cannot_start_leaves_its_lanes_to_the_caller(self, monkeypatch):
        # every pool's second thread fails to start while its first waits for
        # its submit to be recorded: the caller draws the lanes left and drops
        # the pool, so 21 calls in a row return the serial hits, and once
        # threads start again the helpers serve as before
        spec = binomial_spec(trials=3 * BLOCK_TRIALS, seed=6)   # six lanes
        serial = self.serial_result(spec, monkeypatch)
        start, started, refused = threading.Thread.start, [], []

        def failing_start(thread):
            if thread.name.endswith("_1"):
                refused.append(thread)
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        self.fresh_pool()
        monkeypatch.setattr(simulate, "_cpus", lambda: 3)
        monkeypatch.setattr(threading.Thread, "start", failing_start)
        try:
            for _ in range(21):
                assert simulate_tail(spec, 5) == serial
            assert len(started) == len(refused) == 21
            monkeypatch.setattr(threading.Thread, "start", start)
            self.assert_helpers_serve_again(spec, serial, monkeypatch)
        finally:
            self.fresh_pool()

    def test_a_call_from_an_atexit_handler_returns_the_serial_hits(self, monkeypatch):
        # the executor refuses new work once interpreter shutdown has begun,
        # whether or not a call before it started the pool
        spec = binomial_spec(trials=3 * BLOCK_TRIALS, seed=6)
        serial = self.serial_result(spec, monkeypatch)
        code = ("import atexit, sys\n"
                "from fractions import Fraction\n"
                "from tabaudit import simulate\n"
                "spec = simulate.SimulationSpec(model='binomial', trials=3 * 65536, seed=6,\n"
                "                               draws=203, rate=Fraction(14, 1531))\n"
                "simulate._cpus = lambda: 2\n"
                "if sys.argv[1] == 'warm':\n"
                "    print(simulate.simulate_tail(spec, 5).hits)\n"
                "atexit.register(lambda: print(simulate.simulate_tail(spec, 5).hits))\n")
        for pool in ("warm", "cold"):
            proc = subprocess.run([sys.executable, "-c", code, pool],
                                  capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), pool
            assert proc.stdout.split() == [str(serial.hits)] * (2 if pool == "warm" else 1)

    def test_a_call_does_not_wait_on_another_calls_lanes(self, monkeypatch):
        # call A's helper holds its lane until released; call B, made while it
        # is held, draws its own lanes and returns the serial hits
        spec_a, spec_b = binomial_spec(trials=5000, seed=1), binomial_spec(trials=5000, seed=2)
        serial_a = self.serial_result(spec_a, monkeypatch)
        serial_b = self.serial_result(spec_b, monkeypatch)
        helper_holds, release, results = threading.Event(), threading.Event(), {}

        def lane_generator(seed, block, lane):
            if seed == spec_a.seed:
                if threading.current_thread() is call_a:
                    assert helper_holds.wait(timeout=60)
                else:
                    helper_holds.set()
                    assert release.wait(timeout=60)
            return _lane_generator(seed, block, lane)

        def call(name, spec):
            results[name] = simulate_tail(spec, 5)

        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "_lane_generator", lane_generator)
        call_a = threading.Thread(target=call, args=("a", spec_a))
        call_b = threading.Thread(target=call, args=("b", spec_b))
        try:
            call_a.start()
            assert helper_holds.wait(timeout=60)
            call_b.start()
            call_b.join(timeout=10)
            assert not call_b.is_alive() and results["b"] == serial_b
            assert call_a.is_alive()
        finally:
            release.set()
            call_a.join(timeout=60)
            call_b.join(timeout=60)
        assert not call_a.is_alive() and results["a"] == serial_a

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork (POSIX)")
    def test_a_forked_child_draws_on_helpers_of_its_own(self, monkeypatch):
        # the parent's helpers do not exist in a child forked after a
        # multi-lane call: the child starts its own and draws the same hits
        spec = MULTI_BLOCK_SPECS[0]
        monkeypatch.setattr(simulate, "_cpus", lambda: 2)
        hits = simulate_tail(spec, 5).hits
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a multi-threaded process may deadlock
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read)
                os.write(write, str(simulate_tail(spec, 5).hits).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        ready = []
        try:
            ready = select.select([read], [], [], 60)[0]
            child = os.read(read, 64).decode() if ready else "no answer within 60 s"
        finally:
            os.close(read)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        assert child == str(hits)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


class TestConvergence:
    def test_binomial_tracks_exact_tail(self):
        exact = float(binomial_upper_tail(BinomialParams(203, Fraction(14, 1531)), 6))
        result = simulate_tail(binomial_spec(trials=20000, seed=0), 6)
        assert abs(result.estimate - exact) <= 3 * oracle_sigma(exact, 20000)

    def test_hypergeom_tracks_exact_tail(self):
        exact = float(hypergeom_upper_tail(339, 58, 14, 5))
        result = simulate_tail(hypergeom_spec(trials=20000, seed=0), 5)
        assert abs(result.estimate - exact) <= 3 * oracle_sigma(exact, 20000)

    def test_hypergeom_large_population_tracks_exact_tail(self):
        # 1e5 shifts: no per-trial roster, so memory does not grow with the population
        spec = SimulationSpec(model="hypergeometric", trials=100000, seed=1,
                              draws=10000, population=100000, successes=1000)
        exact = float(hypergeom_upper_tail(100000, 10000, 1000, 115))
        result = simulate_tail(spec, 115)
        assert abs(result.estimate - exact) <= 3 * oracle_sigma(exact, 100000)

    def test_hundred_seeds_within_three_sigma(self):
        # deterministic given the frozen seed list; observed worst case 2.51 sigma
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


class TestUrn:
    @pytest.mark.parametrize("population, draws, successes", [
        (339, 58, 1),                           # one item
        (1029, 142, URN_ITEMS),                 # the most the urn draws
        (URN_INT16_PLACES, 142, URN_ITEMS),     # the most places drawn in int16
        (URN_INT16_PLACES + 1, 142, URN_ITEMS), # the fewest drawn in int32
        (339, 5, 58),                           # the suspect's shifts are the items
        (40, 40, 7),                            # every shift the suspect's
        (30, 5, 30),                            # every shift an incident
        (URN_ITEMS, URN_ITEMS, URN_ITEMS),      # items = population
        (2 * (10**9 - 1), 10**9 - 1, 8),        # the largest population a spec takes
    ])
    def test_counts_follow_the_exact_pmf(self, population, draws, successes):
        # each outcome's count within 5 sigma of trials * P(X = v), none outside
        # the support; the urn steps in int16 up to URN_INT16_PLACES places
        trials = 1 << 18
        items, marked = sorted((successes, draws))
        rng = _lane_generator(0, 0, 0)
        hits = _urn(rng, population, items, marked, trials)
        assert hits.dtype == (np.int16 if population <= URN_INT16_PLACES else np.int32)
        counts = np.bincount(hits, minlength=items + 1)
        assert len(counts) == items + 1
        tails = [hypergeom_upper_tail(population, draws, successes, v) for v in range(items + 2)]
        for v in range(items + 1):
            p = float(tails[v] - tails[v + 1])
            assert abs(counts[v] - trials * p) <= 5 * math.sqrt(trials * p * (1 - p)), v

    def test_thresholds_past_int16_count_no_hits(self):
        # every trial places all 16 items on the suspect's shifts, in int16
        # steps; a threshold past the int16 range compares as the integer it is
        spec = SimulationSpec(model="hypergeometric", trials=1000, seed=0,
                              draws=URN_INT16_PLACES, population=URN_INT16_PLACES,
                              successes=URN_ITEMS)
        assert simulate_tail(spec, URN_ITEMS).hits == 1000
        for k in (URN_ITEMS + 1, (1 << 15) - 1, 1 << 15, 40000, 1 << 64):
            assert simulate_tail(spec, k).hits == 0, k


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

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_threshold_must_be_an_integer(self, k):
        # numpy would compare counts against 2.5 and read True as 1
        with pytest.raises(ValueError, match=f"threshold must be an integer, got {k!r}"):
            simulate_tail(binomial_spec(trials=100), k)
        with pytest.raises(ValueError, match=f"threshold must be an integer, got {k!r}"):
            simulate_heterogeneous([Fraction(1, 2)], [10], 0, k, 100, seed=0)


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

    def test_rate_checked_exactly(self):
        # these round to the floats 1.0 and -0.0, but neither is a probability
        for rate in (Fraction(10**20 + 1, 10**20), Fraction(-1, 10**400)):
            with pytest.raises(ValueError, match="rates must lie in"):
                simulate_heterogeneous([Fraction(1, 2), rate], [10, 10], 1, 1, 100, seed=0)

    def test_rates_must_be_numbers(self):
        # Fraction(True) is 1: a boolean would run the suspect at a certain rate
        for rates, field in (([True, Fraction(1, 2)], r"rates\[0\] .* got True"),
                             ([Fraction(1, 2), "x"], r"rates\[1\]"),
                             ([Fraction(1, 2), None], r"rates\[1\]")):
            with pytest.raises(ValueError, match=f"{field}"):
                simulate_heterogeneous(rates, [10, 10], 0, 1, 100, seed=0)
        # refused from the text, before Fraction writes out 10**100000000
        with pytest.raises(ValueError, match="rates must lie in"):
            simulate_heterogeneous([Fraction(1, 2), "1e100000000"], [10, 10], 0, 1, 100, seed=0)

    def test_negative_shift_count(self):
        with pytest.raises(ValueError, match="shift counts must be non-negative"):
            simulate_heterogeneous([Fraction(1, 2)] * 2, [10, -1], 0, 1, 100, seed=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="rates but"):
            simulate_heterogeneous([Fraction(1, 2)], [10, 20], 0, 1, 100, seed=0)

    def test_bad_suspect_index(self):
        with pytest.raises(ValueError, match="suspect index"):
            simulate_heterogeneous([Fraction(1, 2)], [10], 3, 1, 100, seed=0)

    def test_counts_must_be_integers(self):
        # numpy would truncate 2.7 shifts to 2 and run True as one trial
        rates = [Fraction(1, 2), Fraction(1, 3)]
        for shifts, trials, seed, field in (([10, 2.7], 100, 0, r"shifts\[1\]"),
                                            ([10, True], 100, 0, r"shifts\[1\]"),
                                            ([10, 20], True, 0, "trials"),
                                            ([10, 20], 100, 1.5, "seed")):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                simulate_heterogeneous(rates, shifts, 1, 1, trials, seed=seed)
        with pytest.raises(ValueError, match="suspect_index must be an integer, got True"):
            simulate_heterogeneous(rates, [10, 20], True, 1, 100, seed=0)

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

    @pytest.mark.parametrize("field, value", [
        ("trials", True), ("trials", 10.0), ("seed", False), ("seed", 0.5), ("draws", 2.5),
        ("population", 339.0), ("successes", True),
    ])
    def test_spec_counts_must_be_integers(self, field, value):
        doc = {**hypergeom_spec().to_json_dict(), field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            SimulationSpec(**doc)

    @pytest.mark.parametrize("field, value", [("trials", "true"), ("draws", "2.5"),
                                              ("seed", "3.0"), ("successes", "14.5")])
    def test_spec_json_counts_must_be_integers(self, field, value):
        text = json.dumps(hypergeom_spec().to_json_dict()).replace(
            f'"{field}": {getattr(hypergeom_spec(), field)}', f'"{field}": {value}')
        assert value in text
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimulationSpec(**json.loads(text))

    def test_spec_rejects_boolean_rate(self):
        # Fraction(True) is 1: a boolean would pass as a certain rate
        with pytest.raises(ValueError, match="rate must be a rational number, got True"):
            SimulationSpec(model="binomial", trials=10, seed=0, draws=3, rate=True)
        text = json.dumps({**binomial_spec().to_json_dict(), "rate": True})
        with pytest.raises(ValueError, match="rate must be a rational number, got True"):
            SimulationSpec(**json.loads(text))

    @pytest.mark.parametrize("text, message", [
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": null, "rate": "1/2"}',
         "draws must be an integer, got None"),
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": 3, "rate": [1]}',
         "rate must be a rational number, got \\[1\\]"),
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": 3, "rate": 1e400}',
         "rate must be a rational number, got inf"),
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": 3, "rate": "1/0"}',
         "rate must be a rational number"),
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": 3, "rate": "-1e100000000"}',
         r"rate -1e100000000 outside \[0, 1\]"),
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": 3, "rate": "1e-100000000"}',
         "rate '1e-100000000' spans more than [0-9]+ digits"),
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": 3, "rate": "1e-1000000"}',
         "rate '1e-1000000' spans more than [0-9]+ digits"),
        ('{"model": "binomial", "trials": 10, "seed": 0, "draws": 3,'
         ' "rate": "1e-999999999999999999999"}',
         "rate '1e-999999999999999999999' has an exponent too large to read"),
    ], ids=["missing-key", "rate-list", "rate-inf", "rate-over-zero", "rate-giant-text",
            "rate-tiny-text", "rate-small-text", "rate-unreadable-exponent"])
    def test_spec_json_errors_are_value_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            SimulationSpec(**json.loads(text))

    @given(corrupted_specs())
    def test_fuzz_spec_json_loads_or_raises_value_error(self, doc):
        try:
            spec = SimulationSpec(**doc)
        except ValueError:
            return
        assert SimulationSpec(**json.loads(json.dumps(spec.to_json_dict()))) == spec

    @pytest.mark.parametrize("spec, field, value", [
        (hypergeom_spec, "rate", "14/339"), (binomial_spec, "population", 1734),
        (binomial_spec, "successes", 14),
    ])
    def test_spec_refuses_another_models_field(self, spec, field, value):
        doc = {**spec().to_json_dict(), field: value}
        message = f"^{doc['model']} model has no {field} field, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            SimulationSpec(**doc)

    def test_spec_json_lists_only_its_models_fields(self):
        assert binomial_spec().to_json_dict() == {
            "model": "binomial", "trials": 20000, "seed": 0, "draws": 203, "rate": "14/1531"}
        assert hypergeom_spec().to_json_dict() == {
            "model": "hypergeometric", "trials": 20000, "seed": 0, "draws": 58,
            "population": 339, "successes": 14}

    def test_spec_rejects_populations_past_the_sampler(self):
        # numpy's hypergeometric sampler takes each class below 10**9
        for successes, failures in ((10**9, 5), (5, 10**9)):
            with pytest.raises(ValueError, match=f"successes {successes} and population - "
                                                 f"successes {failures} must each be below"):
                SimulationSpec(model="hypergeometric", trials=10, seed=0, draws=3,
                               population=successes + failures, successes=successes)
        edge = SimulationSpec(model="hypergeometric", trials=10, seed=0, draws=3,
                              population=2 * (10**9 - 1), successes=10**9 - 1)
        assert simulate_tail(edge, 0).hits == 10

    def test_spec_rejects_binomial_draws_past_the_sampler(self):
        # numpy's binomial sampler takes draws below 2**63, as a C long
        for draws in (1 << 63, 1 << 70):
            with pytest.raises(ValueError, match=f"draws {draws} must be below 2\\*\\*63"):
                SimulationSpec(model="binomial", trials=10, seed=0, draws=draws,
                               rate=Fraction(1, 2))
            with pytest.raises(ValueError, match=f"draws {draws} must be below 2\\*\\*63"):
                simulate_heterogeneous([Fraction(1, 2)], [draws], 0, 1, 10, seed=0)
        edge = SimulationSpec(model="binomial", trials=10, seed=0, draws=(1 << 63) - 1,
                              rate=Fraction(1, 2))
        assert simulate_tail(edge, 1 << 61).hits == 10

    def test_spec_json_round_trip(self):
        for spec in (binomial_spec(), hypergeom_spec()):
            assert SimulationSpec(**json.loads(json.dumps(spec.to_json_dict()))) == spec

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
