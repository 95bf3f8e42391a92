"""Exact kernel tests: enumeration oracles, published tails, properties."""

from __future__ import annotations

import math
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import comb_oracle as oracle
from conftest import rel_close, support, tables
from tabaudit import exact
from tabaudit.exact import (
    BinomialParams,
    HypergeomParams,
    SupportError,
    binomial_upper_tail,
    fisher_upper_tail,
    hypergeom_pmf,
    hypergeom_upper_tail,
    tail_table,
)
from tabaudit.pipeline import binomial_analysis, binomial_json
from tabaudit.render import exact_json, render
from tabaudit.tables import Table2x2


def row_pmf(params, x):
    """P(X = x) as the difference of the tail-table rows at x and x + 1."""
    at, past = tail_table(params, x, x + 1).rows
    return at.exact - past.exact


def enumerated_pmf(population, draws, successes, x):
    """Oracle: exhaustively enumerate every draw of ``draws`` items."""
    pool = [1] * successes + [0] * (population - successes)
    hits = sum(1 for pick in combinations(range(population), draws)
               if sum(pool[i] for i in pick) == x)
    return Fraction(hits, comb(population, draws))


class TestHypergeomPmf:
    def test_matches_enumeration_small(self):
        assert hypergeom_pmf(HypergeomParams(4, 2, 2, 1)) == Fraction(2, 3)
        assert enumerated_pmf(4, 2, 2, 1) == Fraction(2, 3)
        for population, draws, successes in [(4, 2, 2), (6, 3, 2), (7, 4, 5), (5, 5, 3)]:
            lo = max(0, draws + successes - population)
            for x in range(lo, min(draws, successes) + 1):
                params = HypergeomParams(population, draws, successes, x)
                assert hypergeom_pmf(params) == enumerated_pmf(population, draws, successes, x)

    def test_drawing_everything_is_certain(self):
        assert hypergeom_pmf(HypergeomParams(12, 12, 5, 5)) == 1
        assert hypergeom_pmf(HypergeomParams(1, 1, 1, 1)) == 1

    def test_rkz2_upper_sum(self):
        total = sum(hypergeom_pmf(HypergeomParams(339, 58, 14, x)) for x in range(5, 15))
        assert rel_close(total, 0.0715592)

    @pytest.mark.parametrize("field", ["population", "draws", "successes", "observed"])
    @pytest.mark.parametrize("value", [True, 10.0, "3"])
    def test_counts_must_be_integers(self, field, value):
        # HypergeomParams(10.0, 3, 4, 1) used to pass and then fail inside comb
        args = {"population": 10, "draws": 3, "successes": 4, "observed": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            HypergeomParams(**args)

    def test_outside_support_is_an_error(self):
        with pytest.raises(SupportError):
            HypergeomParams(10, 3, 4, 5)   # above min(draws, successes)
        with pytest.raises(SupportError):
            HypergeomParams(10, 8, 7, 4)   # below draws + successes - population
        with pytest.raises(ValueError):
            HypergeomParams(10, 11, 2, 1)

    def test_exact_normalization_grid(self):
        for population in [0, 1, 2, 3, 5, 8, 13, 35, 80, 140, 200]:
            candidates = {0, 1, population // 3, population // 4, population // 2, population}
            sizes = {min(v, population) for v in candidates}
            for draws in sizes:
                for successes in sizes:
                    params_range = HypergeomParams(population, draws, successes,
                                                   max(0, draws + successes - population))
                    total = sum(
                        hypergeom_pmf(HypergeomParams(population, draws, successes, x))
                        for x in support(params_range)
                    )
                    assert total == 1


FISHER_CASES = [
    ("original JKZ", Table2x2(8, 134, 0, 887), 1.10572e-7),
    ("original RKZ1", Table2x2(1, 0, 4, 361), 0.0136612),
    ("original RKZ2", Table2x2(5, 53, 9, 272), 0.0715592),
    ("original pooled", Table2x2(14, 187, 13, 1520), 2.61756e-7),
    ("derksen JKZ", Table2x2(4, 138, 1, 886), 0.00155956),
    ("derksen RKZ1", Table2x2(1, 2, 4, 359), 0.0405357),
    ("derksen RKZ2", Table2x2(1, 57, 9, 272), 0.851093),
    ("derksen pooled", Table2x2(6, 197, 14, 1517), 0.0225766),
]


class TestFisherUpperTail:
    @pytest.mark.parametrize("name,table,expected", FISHER_CASES, ids=[c[0] for c in FISHER_CASES])
    def test_published_values(self, name, table, expected):
        assert rel_close(fisher_upper_tail(table), expected)

    def test_rkz1_exact_fraction(self):
        assert fisher_upper_tail(Table2x2(1, 0, 4, 361)) == Fraction(5, 366)

    @pytest.mark.parametrize("name,table,expected", FISHER_CASES, ids=[c[0] for c in FISHER_CASES])
    def test_against_scipy(self, name, table, expected):
        sf = stats.hypergeom(M=table.total, n=table.col1, N=table.row1).sf(table.a - 1)
        assert math.isclose(float(fisher_upper_tail(table)), sf, rel_tol=1e-9)

    @given(tables)
    def test_equals_numerator_resummation(self, t):
        # independent route: sum integer numerators first, divide once
        population, draws, successes = t.total, t.row1, t.col1
        hi = min(draws, successes)
        numerator = sum(
            comb(successes, x) * comb(population - successes, draws - x)
            for x in range(t.a, hi + 1)
        )
        if population:
            assert fisher_upper_tail(t) == Fraction(numerator, comb(population, draws))

    @given(tables)
    def test_transposition_symmetry(self, t):
        assert fisher_upper_tail(t) == fisher_upper_tail(t.transpose())

    @given(tables)
    def test_complement_identity(self, t):
        below = sum(
            hypergeom_pmf(HypergeomParams(t.total, t.row1, t.col1, x))
            for x in range(max(0, t.row1 + t.col1 - t.total), t.a)
        )
        assert fisher_upper_tail(t) + below == 1

    def test_upper_tail_bounds(self):
        assert hypergeom_upper_tail(339, 58, 14, 0) == 1
        assert hypergeom_upper_tail(339, 58, 14, 15) == 0
        assert hypergeom_upper_tail(339, 58, 14, -3) == 1

    def test_thresholds_far_outside_support(self):
        assert hypergeom_upper_tail(339, 58, 14, -10**9) == 1
        assert hypergeom_upper_tail(339, 58, 14, 10**9) == 0
        # lower end of the support above 0: 300 + 300 - 500 = 100
        assert hypergeom_upper_tail(500, 300, 300, 100) == 1
        assert hypergeom_upper_tail(500, 300, 300, 301) == 0

    @pytest.mark.parametrize("field, value", [
        ("population", True), ("population", 10.0), ("draws", 3.0), ("draws", True),
        ("successes", "4"), ("successes", False),
    ])
    def test_counts_must_be_integers(self, field, value):
        # hypergeom_upper_tail(True, 1, 1, 1) used to return 1
        args = {"population": 10, "draws": 3, "successes": 4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            hypergeom_upper_tail(k=1, **args)

    def test_margins_past_the_comb_limit_refused(self):
        # math.comb raises OverflowError past sys.maxsize factors; one small
        # margin keeps every comb call small, so that table is still summed
        population, margin = 2 * 10**19 + 2, 10**19 + 1
        want = (f"margins draws {margin} and successes {margin} of population {population}: "
                f"each margin m has min(m, population - m) past math.comb's limit of "
                f"{sys.maxsize}")
        for k in (0, 1, margin, margin + 1):
            with pytest.raises(ValueError, match=re.escape(want)):
                hypergeom_upper_tail(population, margin, margin, k)
        with pytest.raises(ValueError, match=re.escape(want)):
            hypergeom_pmf(HypergeomParams(population, margin, margin, 1))
        assert hypergeom_upper_tail(population, 1, margin, 1) == Fraction(1, 2)
        assert hypergeom_pmf(HypergeomParams(population, margin, 1, 1)) == Fraction(1, 2)

    def test_whole_hospital_scale_against_scipy(self):
        # sparse incidence (1%) at N = 1e5, threshold ~2.5 sd above the mean
        population, draws, successes = 100_000, 10_000, 1_000
        k = 124
        tail = hypergeom_upper_tail(population, draws, successes, k)
        sf = stats.hypergeom(M=population, n=successes, N=draws).sf(k - 1)
        assert 0.001 < sf < 0.05
        assert rel_close(tail, sf)


class TestBinomial:
    def test_whole_hospital_table_against_scipy(self):
        # sparse incidence (~1%) at N = 1e5: 10 000 draws at 901/90000, so every
        # row is a fraction over 90000**10000 (about 50 000 digits)
        t = Table2x2(125, 9875, 901, 89099)
        r = binomial_analysis(t)
        rows = binomial_json(r)["rows"]
        binom = stats.binom(10_000, 901 / 90_000)
        assert 0.001 < binom.sf(124) < 0.05
        assert rel_close(r.tail_at_k_obs, binom.sf(124))
        for k in (100, 118, 126):
            assert rel_close(r.tails.at(k), binom.sf(k - 1))
            assert rows[k]["value"] == float(r.tails.at(k))

    def test_symmetric_coin(self):
        assert row_pmf(BinomialParams(2, Fraction(1, 2)), 1) == Fraction(1, 2)

    def test_zero_successes_direct_power(self):
        params = BinomialParams(201, Fraction(13, 1533))
        value = row_pmf(params, 0)
        assert value == Fraction(1520, 1533) ** 201
        assert rel_close(value, 0.1805460748728054, tol=1e-12)

    def test_empty_draw(self):
        assert row_pmf(BinomialParams(0, Fraction(3, 7)), 0) == 1

    def test_negative_draws(self):
        with pytest.raises(ValueError, match="^draws -1 is negative$"):
            BinomialParams(-1, Fraction(1, 2))

    def test_pmf_normalizes_exactly(self):
        for n, p in [(0, Fraction(1, 3)), (7, Fraction(2, 5)), (30, Fraction(13, 1533))]:
            params = BinomialParams(n, p)
            assert sum(row_pmf(params, x) for x in range(n + 1)) == 1

    def test_outside_support(self):
        with pytest.raises(SupportError):
            row_pmf(BinomialParams(5, Fraction(1, 2)), 6)
        with pytest.raises(ValueError):
            BinomialParams(5, Fraction(3, 2))

    def test_boolean_rate_and_draws_rejected(self):
        # Fraction(True) is 1: a boolean would pass as a certain rate
        with pytest.raises(ValueError, match="rate must be a rational number, got True"):
            BinomialParams(5, True)
        for rate in ([1], "x", float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rate must be a rational number"):
                BinomialParams(5, rate)
        with pytest.raises(ValueError, match="draws must be an integer, got True"):
            BinomialParams(True, Fraction(1, 2))

    def test_rate_text_outside_unit_refused_before_expansion(self):
        # Fraction("1e100000000") would write out 10**100000000 before the range check
        for text in ("1e100000000", "-1e100000000", "1.5", "-0.0001e-3"):
            with pytest.raises(ValueError, match=rf"rate {text} outside \[0, 1\]"):
                BinomialParams(5, text)
        for text, rate in (("1/3", Fraction(1, 3)), ("2.5e-1", Fraction(1, 4)), ("1", 1)):
            assert BinomialParams(5, text).rate == rate

    def test_rate_past_the_int_digit_limit_is_named(self):
        # str() of the rational refuses its 4 301 digits; the message writes them
        with pytest.raises(ValueError, match=r"^rate 10{4300} outside \[0, 1\]$"):
            BinomialParams(5, Fraction(10**4300))

    @pytest.mark.parametrize("text", ["1e-1000000", "1e-100000000", "0.5e-1000000000"])
    def test_in_range_rate_text_with_a_long_exponent_refused(self, text):
        # Fraction(text) writes out 10**1000000 (0.3 s) or 10**100000000 (minutes)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=rf"rate '{text}' spans more than {limit} digits"):
            BinomialParams(5, text)

    @pytest.mark.parametrize("text", ["1e-999999999999999999999", "1E+999999999999999999999",
                                      "-2.5e-99999999999999999999999"])
    def test_rate_text_with_an_unreadable_exponent_refused(self, text):
        # Decimal cannot hold the exponent; Fraction would try to expand it
        with pytest.raises(ValueError, match=re.escape(f"rate '{text}' has an exponent too large")):
            BinomialParams(5, text)

    def test_rate_text_exponent_limit_is_the_interpreters(self):
        limit = sys.get_int_max_str_digits()
        assert BinomialParams(1, f"1e-{limit}").rate == Fraction(1, 10**limit)
        with pytest.raises(ValueError, match="spans more than"):
            BinomialParams(1, f"1e-{limit + 1}")
        # text Decimal cannot read and that has no exponent is left to Fraction
        assert BinomialParams(1, "1/3").rate == Fraction(1, 3)
        with pytest.raises(ValueError, match="rate must be a rational number, got 'one'"):
            BinomialParams(1, "one")

    @pytest.mark.parametrize("k", [True, 2.5, "3"])
    def test_tail_thresholds_must_be_integers(self, k):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            binomial_upper_tail(BinomialParams(5, Fraction(1, 2)), k)
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            hypergeom_upper_tail(10, 5, 5, k)

    def test_published_tails(self):
        original = BinomialParams(201, Fraction(13, 1533))
        assert rel_close(binomial_upper_tail(original, 14), 2.86883e-9)
        derksen = BinomialParams(203, Fraction(14, 1531))
        assert rel_close(binomial_upper_tail(derksen, 6), 0.0115067)

    def test_tail_at_zero_is_one(self):
        assert binomial_upper_tail(BinomialParams(17, Fraction(1, 9)), 0) == 1

    def test_tail_beyond_support_is_zero(self):
        assert binomial_upper_tail(BinomialParams(4, Fraction(1, 3)), 5) == 0

    def test_thresholds_outside_support_like_hypergeometric(self):
        params = BinomialParams(4, Fraction(1, 3))
        assert binomial_upper_tail(params, -1) == 1
        assert binomial_upper_tail(params, -10**9) == 1
        assert binomial_upper_tail(params, 6) == 0
        assert binomial_upper_tail(params, 10**9) == 0

    def test_against_scipy(self):
        params = BinomialParams(203, Fraction(14, 1531))
        for k in range(0, 10):
            sf = stats.binom(203, 14 / 1531).sf(k - 1)
            assert math.isclose(float(binomial_upper_tail(params, k)), sf, rel_tol=1e-9)


class TestTailTable:
    def test_published_rows(self):
        table = tail_table(BinomialParams(201, Fraction(13, 1533)), 3, 15)
        assert rel_close(table.at(5), 0.0292779)
        table = tail_table(BinomialParams(203, Fraction(14, 1531)), 3, 9)
        assert rel_close(table.at(8), 0.000630018)
        assert rel_close(table.at(3), 0.284318)
        with pytest.raises(KeyError):
            table.at(10)   # past the table's last row

    def test_rows_match_single_calls(self):
        params = BinomialParams(40, Fraction(3, 11))
        table = tail_table(params, 0, 41)
        for row in table.rows:
            assert row.exact == binomial_upper_tail(params, row.threshold)
            assert row.exact == oracle.binomial_upper_tail(40, Fraction(3, 11), row.threshold)

    def test_monotone_and_bounded(self):
        params = BinomialParams(25, Fraction(2, 7))
        rows = tail_table(params, 0, 26).rows
        for earlier, later in zip(rows, rows[1:]):
            assert earlier.exact >= later.exact
        assert all(0 <= row.exact <= 1 for row in rows)

    def test_hypergeom_tail_monotone(self):
        tails = [hypergeom_upper_tail(339, 58, 14, k) for k in range(0, 16)]
        for earlier, later in zip(tails, tails[1:]):
            assert earlier >= later

    def test_bad_range(self):
        with pytest.raises(SupportError):
            tail_table(BinomialParams(5, Fraction(1, 2)), 4, 8)

    @pytest.mark.parametrize("k_min, k_max, field", [(True, 3, "k_min"), (0, 2.5, "k_max"),
                                                     (1.0, 3, "k_min"), (0, False, "k_max")])
    def test_range_must_be_integers(self, k_min, k_max, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tail_table(BinomialParams(5, Fraction(1, 2)), k_min, k_max)

    def test_draws_past_sys_maxsize_refused(self):
        # d**n would not finish at 2**63 draws, so the refusal is made first; the
        # calls run in a child process with a timeout, so a missing check fails
        code = ("from fractions import Fraction\n"
                "from tabaudit.exact import BinomialParams, binomial_upper_tail, tail_table\n"
                "params = BinomialParams(2**63, Fraction(1, 3))\n"
                "for call in (lambda: tail_table(params, 0, 1),\n"
                "             lambda: binomial_upper_tail(params, 1)):\n"
                "    try:\n"
                "        call()\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=20)
        want = (f"draws {2**63} past {sys.maxsize} (sys.maxsize), "
                "the most an exact binomial tail takes\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want * 2, "")
        # at rate 0 the scale is 1 and every row is 0 or 1: 2**63 - 1 draws still answer
        params = BinomialParams(2**63 - 1, 0)
        assert [binomial_upper_tail(params, k) for k in (0, 1, 2**63 - 1, 2**63)] == [1, 0, 0, 0]
        assert [row.exact for row in tail_table(params, 0, 2).rows] == [1, 0, 0]

    # at rate 1/3 the negated term x = 1 takes a row outside [0, 1]; at rates
    # 1/100 (summing up) and 99/100 (summing down) the row stays inside it,
    # but above the row before it, so only the order check refuses it
    @pytest.mark.parametrize("rate, k_min", [
        (Fraction(1, 3), 0), (Fraction(1, 3), 8), (Fraction(1, 100), 0), (Fraction(99, 100), 8),
    ], ids=["0", "8", "in-range-up", "in-range-down"])
    def test_negative_term_refused_where_the_rows_are_built(self, rate, k_min, monkeypatch):
        # tail_table checks its own rows, up from x = 0 (k_min 0) or down from
        # x = n (k_min 8), so a term that breaks the order raises, not a table
        numerators = exact._numerators

        def one_negative(*args):
            for x, term in enumerate(numerators(*args)):
                yield -term if x == 1 else term

        monkeypatch.setattr(exact, "_numerators", one_negative)
        with pytest.raises(ValueError, match="tail at .* outside \\[0, 1\\] or out of order"):
            tail_table(BinomialParams(10, rate), k_min, 11)


@st.composite
def hypergeom_cases(draw, side):
    """(population, draws, successes, k) with N <= 2000 and k inside the support,
    on the side that the kernel sums: "lower" (1 - lower sum) or "upper"."""
    population = draw(st.integers(min_value=2, max_value=2000))
    draws = draw(st.integers(min_value=0, max_value=population))
    successes = draw(st.integers(min_value=0, max_value=population))
    lo, hi = max(0, draws + successes - population), min(draws, successes)
    if side == "lower":
        ks = [k for k in (lo + 1, (lo + hi) // 2) if lo < k <= hi and k - lo < hi - k]
    else:
        ks = [k for k in ((lo + hi + 1) // 2, hi) if lo < k <= hi and k - lo >= hi - k]
    if not ks:
        draws = successes = population // 2
        lo, hi = 0, population // 2
        ks = [1] if side == "lower" else [hi]
    return population, draws, successes, draw(st.sampled_from(ks))


rates = st.builds(
    Fraction, st.integers(min_value=0, max_value=2000), st.integers(min_value=1, max_value=2000),
).filter(lambda p: p <= 1)


class TestAgainstCombOracle:
    """The recurrence kernels return the identical Fraction as term-by-term sums."""

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypergeom_tail(self, side, data):
        population, draws, successes, k = data.draw(hypergeom_cases(side))
        assert (hypergeom_upper_tail(population, draws, successes, k)
                == oracle.hypergeom_upper_tail(population, draws, successes, k))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypergeom_tail_symmetric_in_the_margins(self, side, data):
        # swapping draws and successes gives the identical Fraction on either side
        population, draws, successes, k = data.draw(hypergeom_cases(side))
        tail = hypergeom_upper_tail(population, draws, successes, k)
        assert tail == hypergeom_upper_tail(population, successes, draws, k)
        assert tail == oracle.hypergeom_upper_tail(population, draws, successes, k)

    @pytest.mark.parametrize("table", [(21, 892, 69, 8057), (10, 450, 35, 4019),
                                       (69, 80, 519, 831), (14, 187, 13, 1520)])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_hypergeom_tail_symmetric_on_paper_shaped_tables(self, table, side):
        # sparse whole-hospital, sparse ward, dense ward and the pooled Lucia table;
        # k just above the support's lower end sums the lower side, a or the
        # midpoint, whichever is larger, the upper
        a, b, c, d = table
        population, draws, successes = a + b + c + d, a + b, a + c
        lo, hi = max(0, draws + successes - population), min(draws, successes)
        k = lo + 1 if side == "lower" else max(a, (lo + hi + 1) // 2)
        assert (k - lo < hi - k) == (side == "lower")
        tail = hypergeom_upper_tail(population, draws, successes, k)
        assert tail == hypergeom_upper_tail(population, successes, draws, k)
        assert tail == oracle.hypergeom_upper_tail(population, draws, successes, k)

    @pytest.mark.parametrize("table", [(21, 892, 69, 8057), (10, 450, 35, 4019),
                                       (14, 187, 13, 1520), (800, 60, 9000, 40)])
    def test_comb_never_takes_more_than_the_smaller_margin(self, table, monkeypatch):
        # the kernels draw the margin m with the smaller min(m, N - m); on a sparse
        # table that is the incident count, so C(N, 90) replaces C(N, 913). The
        # last table has 9800 incidents of 9900 shifts: C(9900, 9800) is C(9900, 100)
        a, b, c, d = table
        population, draws, successes = a + b + c + d, a + b, a + c
        smaller = min(draws, population - draws, successes, population - successes)
        calls = []

        def counting_comb(n, k):
            calls.append((n, k))
            return comb(n, k)

        monkeypatch.setattr(exact, "comb", counting_comb)
        tail = hypergeom_upper_tail(population, draws, successes, a)
        pmf = hypergeom_pmf(HypergeomParams(population, draws, successes, a))
        monkeypatch.undo()
        assert calls and max(min(k, n - k) for n, k in calls) <= smaller
        if max(draws, successes) <= population // 2:   # sparse: the literal argument too
            assert max(k for _, k in calls) <= smaller < max(draws, successes)
        assert tail == oracle.hypergeom_upper_tail(population, draws, successes, a)
        assert pmf == oracle.hypergeom_pmf(population, draws, successes, a)

    def test_hypergeom_every_threshold_small(self):
        for population in range(0, 13):
            for draws in range(population + 1):
                for successes in range(population + 1):
                    for k in range(-1, min(draws, successes) + 3):
                        assert (hypergeom_upper_tail(population, draws, successes, k)
                                == oracle.hypergeom_upper_tail(population, draws, successes, k))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=3, max_value=2000), rate=rates,
           depth=st.integers(min_value=1, max_value=30))
    def test_binomial_tail(self, side, n, rate, depth):
        # tail_table's one row at k sums the n + 1 - k terms at or above k as the
        # first terms at rate 1 - rate when n + 1 - k < k, else reads the tail as
        # 1 minus the k terms below k
        k = min(depth, (n + 1) // 2) if side == "lower" else max(n - depth, (n + 3) // 2)
        assert (n + 1 - k < k) == (side == "upper")
        params = BinomialParams(n, rate)
        want = (oracle.binomial_upper_tail(n, rate, k) if side == "lower"
                else sum(oracle.binomial_pmf(n, rate, x) for x in range(k, n + 1)))
        assert binomial_upper_tail(params, k) == want
        assert row_pmf(params, k) == oracle.binomial_pmf(n, rate, k)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=0, max_value=120), rate=rates)
    def test_binomial_every_row_and_pmf(self, n, rate):
        params = BinomialParams(n, rate)
        rows = tail_table(params, 0, n + 1).rows
        assert [row.threshold for row in rows] == list(range(n + 2))
        for row in rows:
            assert row.exact == oracle.binomial_upper_tail(n, rate, row.threshold)
            assert row.exact == binomial_upper_tail(params, row.threshold)
            entry = render(row.numerator, row.denominator, row.text)
            assert entry == exact_json(row.exact)
            assert entry["value"] == float(row.exact)
        for x in range(n + 1):
            assert rows[x].exact - rows[x + 1].exact == oracle.binomial_pmf(n, rate, x)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=150), rate=rates, data=st.data())
    def test_tail_table_partial_range(self, n, rate, data):
        k_min = data.draw(st.integers(min_value=0, max_value=n + 1))
        k_max = data.draw(st.integers(min_value=k_min, max_value=n + 1))
        for row in tail_table(BinomialParams(n, rate), k_min, k_max).rows:
            assert row.exact == oracle.binomial_upper_tail(n, rate, row.threshold)

    # n = 10 and 201 at rates 1/2 and 13/1533 reach k = n/2 and (n + 1)/2, where
    # the one-row table sums the side below k
    @pytest.mark.parametrize("rate", [Fraction(0), Fraction(1), Fraction(1, 2),
                                      Fraction(13, 1533)])
    @pytest.mark.parametrize("n", [0, 1, 7, 10, 201])
    def test_degenerate_rates_and_empty_draw(self, n, rate):
        params = BinomialParams(n, rate)
        for k in range(-2, n + 4):
            want = oracle.binomial_upper_tail(n, rate, min(max(k, 0), n + 1))
            assert binomial_upper_tail(params, k) == want
        rows = tail_table(params, 0, n + 1).rows
        for row in rows:
            assert row.exact == oracle.binomial_upper_tail(n, rate, row.threshold)
        for x in range(n + 1):
            assert rows[x].exact - rows[x + 1].exact == oracle.binomial_pmf(n, rate, x)


SMALL_PRIME_RATES = [Fraction(1, 2), Fraction(3, 8), Fraction(7, 72), Fraction(5, 243),
                     Fraction(0), Fraction(1)]


@st.composite
def small_prime_rates(draw):
    """u/d with d a product of powers of 2, 3, 5 and 7, so rows share many factors with d."""
    d = math.prod(p ** draw(st.integers(min_value=0, max_value=6)) for p in (2, 3, 5, 7))
    return Fraction(draw(st.integers(min_value=0, max_value=d)), d)


@st.composite
def shared_numerators(draw):
    """(num, d, n) with 0 < num < d**n, d a product of powers of 2, 3, 5 and 7:
    num holds each prime of d from 0 times up to as often as fits below the
    scale d**n, which for some primes is more often than the scale holds them."""
    d = math.prod(p ** draw(st.integers(min_value=0, max_value=3)) for p in (2, 3, 5, 7))
    d = max(d, 2)
    n = draw(st.integers(min_value=1, max_value=80))
    scale, num = d**n, 1
    for p in draw(st.permutations([p for p in (2, 3, 5, 7) if d % p == 0])):
        most = 0
        while num * p ** (most + 1) < scale:
            most += 1
        num *= p ** draw(st.integers(min_value=0, max_value=most))
    return num * draw(st.integers(min_value=1, max_value=(scale - 1) // num)), d, n


class TestTailRowsOverOneScale:
    """Each row is Fraction(scale - below, scale) in lowest terms, scale = d**n."""

    @settings(max_examples=40, deadline=None)
    # at rate 1/6, n = 3, k = 2 the numerator 16 holds 2**4 and the scale 216 only 2**3
    @example(n=3, rate=Fraction(1, 6))
    @example(n=3, rate=Fraction(7, 10))
    @given(n=st.integers(min_value=0, max_value=400),
           rate=st.sampled_from(SMALL_PRIME_RATES) | small_prime_rates() | rates)
    def test_rows_are_the_reduced_fractions(self, n, rate):
        u, d = rate.numerator, rate.denominator
        scale = d**n
        table = tail_table(BinomialParams(n, rate), 0, n + 1)
        assert table.scale == scale
        below = 0
        for k, row in enumerate(table.rows):
            want = Fraction(scale - below, scale)
            assert row.threshold == k
            assert (row.numerator, row.denominator) == (want.numerator, want.denominator)
            assert math.gcd(row.numerator, row.denominator) == 1
            assert row.exact == want
            assert render(row.numerator, row.denominator, row.text)["value"] == float(want)
            if k <= n:
                below += comb(n, k) * u**k * (d - u) ** (n - k)
        assert (table.rows[0].numerator, table.rows[0].denominator) == (1, 1)
        assert table.rows[-1].numerator == 0

    @pytest.mark.parametrize("rate", SMALL_PRIME_RATES)
    def test_empty_draw(self, rate):
        rows = tail_table(BinomialParams(0, rate), 0, 1).rows
        assert [(r.numerator, r.denominator, r.text) for r in rows] == [(1, 1, "1"), (0, 1, "0")]

    @staticmethod
    def counting_gcd(monkeypatch):
        """Patch ``exact.gcd`` to count its calls, one per pass of ``_reduced``;
        returns the list it appends each call's arguments to."""
        calls = []

        def counting(*args):
            calls.append(args)
            return math.gcd(*args)

        monkeypatch.setattr(exact, "gcd", counting)
        return calls

    @pytest.mark.parametrize("n", [3, 101, 100_001])
    def test_half_row_reduces_in_logarithmic_passes(self, n, monkeypatch):
        # at rate 1/2 and odd n the row at (n + 1) / 2 is 2**(n-1) / 2**n, which
        # shares n - 1 factors of d = 2 with the scale
        passes = self.counting_gcd(monkeypatch)
        # the part divided out is 2**(n-1), found from the largest power of 2
        # that fits one int digit, squared until a residue falls short of it
        m = 2 ** min(sys.int_info.bits_per_digit - 1, n)
        assert exact._reduced(2 ** (n - 1), 2, 2**n, m) == (1, 2 ** (n - 1))
        assert len(passes) <= math.log2(n) + 3

    @staticmethod
    def reduced_rows(n, rate, k_min, k_max):
        """(numerator, denominator, text) of Fraction(scale - below, scale) for
        each threshold from ``k_min`` to ``k_max``."""
        u, d = rate.numerator, rate.denominator
        rows, below = [], 0
        for k in range(k_max + 1):
            want = Fraction(d**n - below, d**n)
            text = str(want.numerator) if want.denominator == 1 else str(want)
            rows.append((want.numerator, want.denominator, text))
            if k <= n:
                below += comb(n, k) * u**k * (d - u) ** (n - k)
        return rows[k_min:]

    @pytest.mark.parametrize("rate", [Fraction(0), Fraction(1)])
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_every_row_at_d_1(self, n, rate):
        # scale 1 and every row 0 or 1, summed up or down, with no modulus to find
        want = [(1, 1, "1")] * (n + 1 if rate else 1) + [(0, 1, "0")] * (1 if rate else n + 1)
        for k_min in range(n + 2):
            rows = tail_table(BinomialParams(n, rate), k_min, n + 1).rows
            assert [(r.numerator, r.denominator, r.text) for r in rows] == want[k_min:]

    @pytest.mark.parametrize("n, rate, k, shared", [
        (2001, Fraction(1, 2), 1001, 2**2000),      # 2**2000 / 2**2001, past 2**29, 2**58, ...
        (65, Fraction(7, 2**6 * 3**6), 2, 2**11),   # 2**11 divides the row, d itself 2**6
        (3, Fraction(1, 6), 2, 2**3),               # 16 / 216: the modulus stops at the scale
    ], ids=["half", "6**6", "cap"])
    def test_shared_part_past_the_first_modulus(self, n, rate, k, shared):
        # the first modulus is the largest power of d in one int digit, at most
        # the scale: row k holds a prime of d at least as often as that power,
        # so its residue is taken again modulo the square, or (cap) more often
        # than the scale, which is then the modulus
        rows = tail_table(BinomialParams(n, rate), 0, n + 1).rows
        assert [(r.numerator, r.denominator, r.text) for r in rows] == self.reduced_rows(
            n, rate, 0, n + 1)
        assert rows[k].denominator * shared == rate.denominator**n

    @staticmethod
    def first_modulus(d, n):
        """The largest power of d that fits one int digit, at most d**n, as
        tail_table finds it."""
        m = min(d, d**n)
        while m < d**n and m * d < 1 << sys.int_info.bits_per_digit:
            m *= d
        return m

    @settings(max_examples=300, deadline=None)
    # row 3 at n = 5, rate 27/70: 2**6 in the numerator, 2**5 in the scale, and
    # the second modulus capped at 70, the scale over the first modulus 70**4
    @example(case=(70**5 - sum(comb(5, x) * 27**x * 43 ** (5 - x) for x in range(3)), 70, 5))
    @example(case=(2**79, 2, 80))   # 2**29, then capped at 2**51
    @given(case=shared_numerators())
    def test_reduced_is_the_gcd(self, case):
        # every exit of the loop: a residue that falls short of its modulus, the
        # cap at the scale, and the first modulus equal to the scale
        num, d, n = case
        g = math.gcd(num, d**n)
        assert exact._reduced(num, d, d**n, self.first_modulus(d, n)) == (num // g, g)

    @staticmethod
    def saturates(shared, m, d):
        """Whether some prime of d divides ``shared`` at least as often as m."""
        return pow(m // math.gcd(shared, m), d.bit_length(), d) != 0

    @pytest.mark.skipif(sys.int_info.bits_per_digit != 30, reason="rows found for 30-bit digits")
    def test_saturated_rows_finish_with_a_second_residue(self, monkeypatch):
        # at rate 1/2250 the first modulus is 2250**2, which holds only 2**2:
        # 28 of the rows from k = 1 to 41 hold 2**2 or more, and dividing that out
        # leaves a quotient whose residue modulo 2250**4 finishes the row, so
        # those rows take two passes and the other 13 one (row 0 is 1 and takes none)
        n, rate = 500, Fraction(1, 2250)
        d, scale = rate.denominator, rate.denominator**n
        passes = self.counting_gcd(monkeypatch)
        rows = tail_table(BinomialParams(n, rate), 0, 41).rows
        assert len(passes) == 69
        assert [(r.numerator, r.denominator, r.text) for r in rows] == self.reduced_rows(
            n, rate, 0, 41)
        m = self.first_modulus(d, n)
        assert m == d**2
        assert sum(self.saturates(scale // r.denominator, m, d) for r in rows[1:]) == 28

    @pytest.mark.skipif(sys.int_info.bits_per_digit != 30, reason="rows found for 30-bit digits")
    def test_rows_saturated_twice_finish_in_two_passes(self, monkeypatch):
        # rows 53-56 and 61-64 at rate 1/2250 hold 2**4 or more, as often as
        # 2250**4, yet fewer than the 2**6 of the moduli 2250**2 and 2250**4
        # together: like rows 57-60, which saturate 2250**2 only, each row
        # takes two passes
        n, rate = 500, Fraction(1, 2250)
        d, scale = rate.denominator, rate.denominator**n
        passes, per_row = self.counting_gcd(monkeypatch), []
        reduced = exact._reduced

        def counting(*args):
            before = len(passes)
            result = reduced(*args)
            per_row.append(len(passes) - before)
            return result

        monkeypatch.setattr(exact, "_reduced", counting)
        rows = tail_table(BinomialParams(n, rate), 53, 64).rows
        assert per_row == [2] * 12 and len(passes) == 24
        assert [(r.numerator, r.denominator, r.text) for r in rows] == self.reduced_rows(
            n, rate, 53, 64)
        m = self.first_modulus(d, n)
        twice = [r.threshold for r in rows if self.saturates(scale // r.denominator, m * m, d)]
        assert twice == [53, 54, 55, 56, 61, 62, 63, 64]

    @pytest.mark.skipif(sys.int_info.bits_per_digit != 30, reason="rows found for 30-bit digits")
    def test_no_second_residue_past_the_scale(self):
        # at n = 5 and rate 27/70 the first modulus 70**4 squared passes the
        # scale 70**5; the numerator of row 3 holds 2**6, more than either
        # holds, so a second residue would divide out more than the scale shares
        n, rate, k = 5, Fraction(27, 70), 3
        d, scale = rate.denominator, rate.denominator**n
        m = self.first_modulus(d, n)
        assert m < scale < m * m
        below = sum(comb(n, x) * 27**x * 43 ** (n - x) for x in range(k))
        assert (scale - below) % 2**6 == 0 and scale % 2**6 and m % 2**5
        rows = tail_table(BinomialParams(n, rate), 0, n + 1).rows
        assert [(r.numerator, r.denominator, r.text) for r in rows] == self.reduced_rows(
            n, rate, 0, n + 1)
        assert rows[k].denominator == scale // 2**5

    @pytest.mark.parametrize("n, rate", [(65, Fraction(7, 2**6 * 3**6)), (60, Fraction(7, 72)),
                                         (101, Fraction(1, 2))])
    def test_shared_rows_on_both_summing_directions(self, n, rate):
        # the full table sums up from x = 0 and the top rows down from x = n;
        # each has rows with G > 1, and every row is the reduced fraction
        scale = rate.denominator**n
        for k_min in (0, n - 5):
            rows = tail_table(BinomialParams(n, rate), k_min, n + 1).rows
            assert [(r.numerator, r.denominator, r.text) for r in rows] == self.reduced_rows(
                n, rate, k_min, n + 1)
            assert any(1 < r.denominator < scale for r in rows)

    @settings(max_examples=60, deadline=None)
    @example(n=3, rate=Fraction(1, 6), data=None)
    @example(n=101, rate=Fraction(1, 2), data=None)
    @given(n=st.integers(min_value=0, max_value=400),
           rate=st.sampled_from(SMALL_PRIME_RATES) | small_prime_rates() | rates,
           data=st.data())
    def test_texts_are_the_decimal_digits(self, n, rate, data):
        # the decimal recurrence writes each row as str() of its reduced integers
        if data is None:
            k_min, k_max = 0, n + 1
        else:
            k_min = data.draw(st.integers(min_value=0, max_value=n + 1))
            k_max = data.draw(st.integers(min_value=k_min, max_value=n + 1))
        rows = tail_table(BinomialParams(n, rate), k_min, k_max).rows
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)   # d**n passes 4 300 digits at n = 400, d = 210**6
        try:
            for row in rows:
                want = (str(row.numerator) if row.denominator == 1
                        else f"{row.numerator}/{row.denominator}")
                assert row.text == want
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("n, rate", [
        *((n, rate) for n in (0, 1, 2, 9, 60) for rate in SMALL_PRIME_RATES),
        (2000, Fraction(13, 1533)),
    ])
    def test_high_ranges_are_rows_of_the_full_table(self, n, rate):
        # a range starting past the middle sums down from x = n, the full table
        # up from x = 0: numerator, denominator and text agree row by row
        full = tail_table(BinomialParams(n, rate), 0, n + 1).rows
        starts = range((n + 1) // 2 + 1, n + 2) if n <= 60 else (1001, 1900, 2000, 2001)
        for k_min in starts:
            for k_max in {k_min, n + 1}:
                rows = tail_table(BinomialParams(n, rate), k_min, k_max).rows
                assert rows == full[k_min:k_max + 1], (k_min, k_max)

    def test_exact_is_built_once(self):
        row = tail_table(BinomialParams(40, Fraction(7, 72)), 5, 5).rows[0]
        assert row.exact is row.exact
        assert row.exact == oracle.binomial_upper_tail(40, Fraction(7, 72), 5)


class TestFloatBoundary:
    def test_float_rendering_within_half_ulp(self):
        samples = [
            Fraction(5, 366),
            Fraction(13, 1533),
            Fraction(1520, 1533) ** 201,
            fisher_upper_tail(Table2x2(8, 134, 0, 887)),
            binomial_upper_tail(BinomialParams(201, Fraction(13, 1533)), 14),
        ]
        for q in samples:
            rendered = float(q)
            assert abs(Fraction(rendered) - q) <= Fraction(math.ulp(rendered)) / 2
