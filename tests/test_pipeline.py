"""Fisher pipeline, binomial model, and the replication report."""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import rel_close, stratified_tables
from decimal_oracle import read_int
from tabaudit import datasets, references
from tabaudit.pipeline import (
    binomial_analysis,
    binomial_json,
    fisher_json,
    fisher_pipeline,
    replicate,
    report_json,
    report_text,
    tail_rows,
)
from tabaudit.exact import BinomialParams, binomial_upper_tail
from tabaudit.render import exact_json, float_json, inverse
from tabaudit.tables import StratifiedTable, Table2x2

ORIGINAL = datasets.get("original")
DERKSEN = datasets.get("derksen")


def swapped(text: str) -> str:
    """The text of the reciprocal of the lowest-terms fraction ``text``: its two
    parts swapped, a whole number's missing denominator read as 1."""
    num, den = (text.split("/") + ["1"])[:2]
    return den if num == "1" else f"{den}/{num}"


class TestFisherPipeline:
    def test_original_stratified(self):
        r = fisher_pipeline(ORIGINAL, 27, "stratified")
        assert rel_close(r.corrected, 2.91853e-9)
        assert rel_close(r.one_in_n, 3.42638e8)

    def test_original_collapsed(self):
        r = fisher_pipeline(ORIGINAL, 27, "collapsed")
        assert rel_close(r.stratum_tails[0][1], 2.61756e-7)
        assert rel_close(r.one_in_n, 141494.0)

    def test_derksen_stratified(self):
        r = fisher_pipeline(DERKSEN, 27, "stratified")
        expected = {"JKZ": 0.00155956, "RKZ1": 0.0405357, "RKZ2": 0.851093}
        for label, tail in r.stratum_tails:
            assert rel_close(tail, expected[label])
        assert rel_close(r.corrected, 0.00145271)
        assert rel_close(r.one_in_n, 688.367)

    def test_derksen_collapsed(self):
        assert rel_close(fisher_pipeline(DERKSEN, 27, "collapsed").one_in_n, 1.64051)

    def test_exact_invariants(self):
        r = fisher_pipeline(ORIGINAL, 27, "stratified")
        product = Fraction(1)
        for _, tail in r.stratum_tails:
            product *= tail
        assert r.corrected == 27 * product
        assert r.one_in_n * r.corrected == 1
        assert not r.exceeds_one

    def test_exceeds_one_flag(self):
        near_one = StratifiedTable((("A", Table2x2(0, 5, 5, 5)),), name="flat")
        r = fisher_pipeline(near_one, 27, "stratified")
        assert r.corrected > 1
        assert r.exceeds_one
        assert r.one_in_n < 1

    @given(stratified_tables(min_strata=1, max_strata=1), st.integers(1, 40))
    def test_single_stratum_modes_agree(self, s, nurses):
        stratified = fisher_pipeline(s, nurses, "stratified")
        collapsed = fisher_pipeline(s, nurses, "collapsed")
        assert stratified.corrected == collapsed.corrected

    def test_one_in_n_monotone_in_stratum_tail(self):
        # moving one incident off the suspect's shifts raises that stratum's tail
        base = fisher_pipeline(ORIGINAL, 27, "stratified")
        eased = StratifiedTable(
            (ORIGINAL.strata[0], ORIGINAL.strata[1], ("RKZ2", Table2x2(4, 54, 10, 271))),
            name="eased",
        )
        perturbed = fisher_pipeline(eased, 27, "stratified")
        assert perturbed.stratum_tails[2][1] > base.stratum_tails[2][1]
        assert perturbed.one_in_n < base.one_in_n

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="n_nurses"):
            fisher_pipeline(ORIGINAL, 0)
        # 2.5 gave a float ``corrected``; True ran with one nurse
        for nurses in (2.5, True, "27"):
            with pytest.raises(ValueError, match=f"n_nurses must be an integer, got {nurses!r}"):
                fisher_pipeline(ORIGINAL, nurses)
        with pytest.raises(ValueError, match="mode"):
            fisher_pipeline(ORIGINAL, 27, "sideways")

    @pytest.mark.parametrize("mode", ["stratified", "collapsed"])
    @pytest.mark.parametrize("name", datasets.available())
    def test_one_in_n_is_corrected_swapped(self, name, mode):
        r = fisher_pipeline(datasets.get(name), 27, mode)
        doc = fisher_json(r)
        assert doc["one_in_n"]["fraction"] == swapped(doc["corrected"]["fraction"])
        assert doc["one_in_n"] == exact_json(r.one_in_n)

    @pytest.mark.parametrize("strata, nurses, corrected, one_in_n", [
        ((Table2x2(0, 5, 3, 7), Table2x2(0, 2, 1, 1)), 27, "27", "1/27"),   # every tail is 1
        ((Table2x2(0, 5, 3, 7),), 1, "1", "1"),
        ((Table2x2(1, 0, 0, 1),), 1, "1/2", "2"),                          # numerator 1
        ((Table2x2(1, 0, 0, 1),), 27, "27/2", "2/27"),
    ])
    def test_one_in_n_text_of_whole_and_unit_fractions(self, strata, nurses, corrected, one_in_n):
        s = StratifiedTable(tuple((f"S{i}", t) for i, t in enumerate(strata)))
        doc = fisher_json(fisher_pipeline(s, nurses))
        assert (doc["corrected"]["fraction"], doc["one_in_n"]["fraction"]) == (corrected, one_in_n)
        assert doc["one_in_n"] == exact_json(1 / Fraction(corrected))


class TestBinomialAnalysis:
    def test_original_pooled(self):
        r = binomial_analysis(Table2x2(14, 187, 13, 1520), k_range=(3, 15))
        assert r.null_rate == Fraction(13, 1533)
        assert r.suspect_rate == Fraction(14, 201)
        assert r.k_obs == 14
        assert rel_close(r.tail_at_k_obs, 2.86883e-9)
        assert rel_close(r.one_in_n, 3.48574e8)
        assert rel_close(r.expected, 1.7045009784735812, tol=1e-12)
        assert r.expected == 201 * Fraction(13, 1533)
        assert r.k_star == 5

    def test_derksen_pooled(self):
        r = binomial_analysis(Table2x2(6, 197, 14, 1517), k_range=(3, 9))
        assert r.null_rate == Fraction(14, 1531)
        assert rel_close(r.tail_at_k_obs, 0.0115067)
        assert rel_close(r.one_in_n, 86.9055)
        assert r.k_star == 5

    def test_degenerate_no_incidents(self):
        r = binomial_analysis(Table2x2(0, 9, 0, 11))
        assert r.null_rate == 0
        assert r.tail_at_k_obs == 1
        assert r.one_in_n == 1

    def test_zero_comparison_group(self):
        with pytest.raises(ValueError, match="zero shifts"):
            binomial_analysis(Table2x2(1, 2, 0, 0))

    def test_tail_zero_reports_infinite(self):
        r = binomial_analysis(Table2x2(2, 3, 0, 10))
        assert r.null_rate == 0
        assert r.tail_at_k_obs == 0
        assert r.one_in_n is None

    @given(stratified_tables(min_strata=1, max_strata=3))
    def test_expected_is_exact_product(self, s):
        from tabaudit.tables import collapse
        t = collapse(s)
        if t.row2 == 0:
            return
        r = binomial_analysis(t)
        assert r.expected == t.row1 * Fraction(t.c, t.row2)

    def test_tau_is_exact_comparison(self):
        r = binomial_analysis(Table2x2(14, 187, 13, 1520), k_range=(3, 15), tau=Fraction(1, 20))
        # tails: >=4 is 0.0930 >= 1/20, >=5 is 0.0293 < 1/20
        assert r.k_star == 5
        # tail at 10 is 1.04641e-5, just above 1e-5; the crossing is at 11
        tighter = binomial_analysis(
            Table2x2(14, 187, 13, 1520), k_range=(3, 15), tau=Fraction(1, 100_000)
        )
        assert tighter.k_star == 11

    def test_tau_outside_unit_interval_rejected(self):
        t = Table2x2(14, 187, 13, 1520)
        for tau in (0, -0.05, Fraction(21, 20), 2):
            with pytest.raises(ValueError, match=r"tau .* outside \(0, 1\]"):
                binomial_analysis(t, tau=tau)
        assert binomial_analysis(t, tau=1).k_star == 1   # P(X >= 0) = 1 is not < 1

    @pytest.mark.parametrize("tau", [Fraction(10**4300), -Fraction(10**4300),
                                     Fraction(10**4300 + 1, 3)])
    def test_tau_past_the_int_digit_limit_is_named(self, tau):
        # str() of tau refuses its digits: the message used to be that refusal
        with pytest.raises(ValueError) as info:
            binomial_analysis(Table2x2(14, 187, 13, 1520), tau=tau)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert info.value.args == (f"tau {tau} outside (0, 1]",)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_tau_must_be_a_number(self):
        t = Table2x2(14, 187, 13, 1520)
        for tau in (True, None, "x"):   # True ran as tau = 1
            with pytest.raises(ValueError, match=f"tau must be a rational number, got {tau!r}"):
                binomial_analysis(t, tau=tau)
        assert binomial_analysis(t, tau="1/20").tau == Fraction(1, 20)
        with pytest.raises(ValueError, match="tau '1e-100000000' spans more than"):
            binomial_analysis(t, tau="1e-100000000")   # refused before Fraction expands it


    @pytest.mark.parametrize("k_range", [None, (0, 3), (2, 14), (15, 20)])
    def test_tail_at_k_obs_in_and_out_of_range(self, k_range):
        t = Table2x2(14, 187, 13, 1520)
        r = binomial_analysis(t, k_range=k_range)
        assert r.tail_at_k_obs == binomial_upper_tail(BinomialParams(201, Fraction(13, 1533)), 14)
        assert r.observed == binomial_analysis(t).tails.rows[14]   # always a table row

    @pytest.mark.parametrize("k_range", [(0, 3), (41, 45)])
    def test_observed_row_out_of_range_on_big_rows(self, k_range):
        # 2000 draws at 13/1533: the row at k_obs = 40 passes str()'s 4300 digits
        t = Table2x2(40, 1960, 13, 1520)
        full, narrowed = binomial_analysis(t), binomial_analysis(t, k_range=k_range)
        assert narrowed.observed == full.observed == full.tails.rows[40]
        assert narrowed.tail_at_k_obs == full.tail_at_k_obs
        assert narrowed.one_in_n == full.one_in_n == 1 / full.tail_at_k_obs


class TestReplicate:
    def test_reference_checks_pass(self):
        report = replicate()
        assert references.check_report_json(report_json(report)) == []

    def test_empty_report(self):
        report = replicate(())
        doc = report_json(report)
        assert doc["datasets"] == []
        assert doc["correlations"] == {}
        assert doc["binomial"] == {}
        json.dumps(doc)

    def test_unknown_dataset(self):
        with pytest.raises(datasets.UnknownDatasetError):
            replicate(("missing",))

    def test_shops_report_has_paradox(self):
        doc = report_json(replicate(("shops",)))
        assert doc["simpson"]["shops"]["paradox"] is True

    def test_single_stratum_has_no_simpson_check(self):
        ward = StratifiedTable((("W", Table2x2(3, 20, 5, 200)),), name="ward")
        report = replicate(["ward"], registry={"ward": ward})
        assert report_json(report)["simpson"] == {"ward": None}
        assert ("Simpson check\n  ward: single stratum, not applicable\n"
                in report_text(report_json(report)))

    def test_datasets_left_out_are_missing_from_verification(self):
        failures = references.check_report_json(report_json(replicate(("shops",))))
        assert failures[0] == "original pooled correlation: missing from report ('original')"
        assert all(": missing from report (" in f for f in failures)
        assert len(failures) == sum(not c.key.startswith("shops")
                                    for c in references.REFERENCE_CHECKS)

    def test_missing_row_is_named(self):
        # a row matches only when it holds every key of the step with an equal value
        for lose_row in (lambda rows: rows.pop(0),
                         lambda rows: rows[0].pop("threshold"),
                         lambda rows: rows[0].update(threshold="3")):
            doc = report_json(replicate(("original", "derksen")))
            lose_row(doc["binomial"]["original"]["rows"])
            assert [f for f in references.check_report_json(doc) if "no row" in f] == [
                "original binomial tail >= 3: missing from report "
                "(\"no row matching {'threshold': 3}\")"]

    def test_row_that_is_not_an_object_fails_each_check_on_its_list(self):
        doc = report_json(replicate())
        doc["binomial"]["original"]["rows"][0] = 5
        doc["rates"]["strata"] = "x"
        rows = [c.key for c in references.REFERENCE_CHECKS
                if c.path[:3] == ("binomial", "original", "rows")]
        strata = [c.key for c in references.REFERENCE_CHECKS if c.path[:2] == ("rates", "strata")]
        assert (len(rows), len(strata)) == (13, 12)
        assert references.check_report_json(doc) == (
            [f"{key}: missing from report ('int' object has no attribute 'items')" for key in rows]
            + [f"{key}: missing from report ('str' object has no attribute 'items')"
               for key in strata])

    def test_value_of_the_wrong_type_is_a_failed_check(self):
        doc = report_json(replicate())
        doc["correlations"]["original"]["pooled"]["value"] = "x"
        doc["simpson"]["shops"]["pooled_odds"]["fraction"] = "x"
        doc["fisher"]["original"]["stratified"]["stratum_tails"][1]["fraction"] = "1/0"
        doc["binomial"]["derksen"]["one_in_n"]["value"] = [86.9055]
        assert references.check_report_json(doc) == [
            "original pooled correlation: got 'x' of type str, want 0.158169",
            "shops pooled odds ratio: got 'x', want Fraction(49, 81)",
            "original RKZ1 Fisher tail (exact): got '1/0', want Fraction(5, 366)",
            "derksen binomial one-in-N: got [86.9055] of type list, want 86.9055"]

    # "1e-4300" reads as 1/10**4300, whose repr passes the int digit limit, and
    # Fraction would write out the exponent of "1e-3000000" digit by digit
    @pytest.mark.parametrize("text", ["1e-3000000", "1e-4300", "5/3"])
    def test_fraction_text_is_quoted_in_its_failure(self, text):
        doc = report_json(replicate())
        doc["simpson"]["shops"]["pooled_odds"]["fraction"] = text
        assert references.check_report_json(doc) == [
            f"shops pooled odds ratio: got {text!r}, want Fraction(49, 81)"]

    def test_int_past_the_float_range_is_a_failed_check(self):
        # json.loads reads 401 digits, but the relative check cannot make them a float
        digits = "1" + "0" * 400
        doc = report_json(replicate())
        doc["correlations"]["original"]["pooled"]["value"] = json.loads(digits)
        assert references.check_report_json(doc) == [
            f"original pooled correlation: got {digits} of type int, want 0.158169"]

    def test_int_past_the_digit_limit_is_a_failed_check(self):
        # repr refuses an int of more than 4300 digits, so the message gives its size
        doc = report_json(replicate())
        doc["correlations"]["original"]["pooled"]["value"] = 10**4999
        doc["simpson"]["shops"]["pooled_odds"]["fraction"] = 10**4999
        assert references.check_report_json(doc) == [
            "original pooled correlation: got <16607-bit int> of type int, want 0.158169",
            "shops pooled odds ratio: got <16607-bit int>, want Fraction(49, 81)"]

    def test_mutated_registry_fails_verification(self):
        tampered = dict(datasets.EMBEDDED)
        strata = list(tampered["original"].strata)
        jkz = strata[0][1]
        strata[0] = ("JKZ", Table2x2(jkz.a + 1, jkz.b, jkz.c, jkz.d))
        tampered["original"] = StratifiedTable(tuple(strata), name="original")
        report = replicate(registry=tampered)
        assert references.check_report_json(report_json(report))

    def test_every_float_round_trips_from_its_fraction(self):
        doc = report_json(replicate())

        def walk(node):
            if isinstance(node, dict):
                if "fraction" in node and "value" in node:
                    assert node["value"] == float(Fraction(node["fraction"]))
                    assert node["display"] == format(node["value"], ".6g")
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(doc)

    def test_json_serializable_and_deterministic(self):
        a = json.dumps(report_json(replicate()), indent=2)
        b = json.dumps(report_json(replicate()), indent=2)
        assert a == b

    def test_text_report_carries_headline_numbers(self):
        text = report_text(report_json(replicate()))
        for token in ("0.158169", "0.0614621", "-0.125", "3.42638e+08", "141494",
                      "688.367", "1.64051", "86.9055", "3.48574e+08"):
            assert token in text

    @pytest.mark.parametrize("nurses", [True, 2.5, "3"])
    def test_nurse_override_must_be_an_integer(self, nurses):
        # True was written into the JSON n_nurses as ``true``
        with pytest.raises(ValueError, match=f"n_nurses must be an integer, got {nurses!r}"):
            replicate(["shops"], n_nurses=nurses)

    def test_each_dataset_is_pooled_once(self, monkeypatch):
        # the Simpson check, correlations, collapsed Fisher, binomial model and rate
        # table all read one pooled table per dataset
        registry = {name: StratifiedTable(ds.strata, name=ds.name)   # fresh, uncached
                    for name, ds in datasets.EMBEDDED.items()}
        pooled = StratifiedTable._pooled
        pool, pools = pooled.func, []

        def counting(s):
            pools.append(s.name)
            return pool(s)

        monkeypatch.setattr(pooled, "func", counting)
        report = replicate(registry=registry)
        assert sorted(pools) == sorted(registry)
        replicate(registry=registry)
        assert sorted(pools) == sorted(registry)
        monkeypatch.undo()
        assert report_json(report) == report_json(replicate())

    def test_nurse_override_changes_one_in_n(self):
        report = replicate(("original",), n_nurses=1)
        r = report.fisher["original"]["stratified"]
        assert r.n_nurses == 1
        assert rel_close(r.one_in_n, 27 * 3.42638e8, tol=1e-3)


class TestExactJson:
    def test_fraction_past_int_str_digit_limit(self):
        # a whole-hospital binomial tail: the reduced denominator has thousands
        # of digits, more than str(int) converts under the default limit
        tail = binomial_upper_tail(BinomialParams(2000, Fraction(13, 1533)), 40)
        assert tail.denominator.bit_length() > 4300 * 3.33
        doc = exact_json(tail)
        assert doc["value"] == float(tail)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert doc["fraction"] == str(tail)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_binomial_rows_past_int_str_digit_limit(self):
        # 2000 draws at 13/1533: every row is over a divisor of 1533**2000
        r = binomial_analysis(Table2x2(40, 1960, 13, 1520))
        assert r.tails.scale.bit_length() > 4300 * 3.33
        doc = binomial_json(r)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(doc["rows"]) == len(r.tails.rows) == 42
            for entry, row in zip(doc["rows"], r.tails.rows):
                assert entry["threshold"] == row.threshold
                assert entry["fraction"] == row.text == str(row.exact)
                assert entry["value"] == float(row.exact)
                assert entry["display"] == exact_json(row.exact)["display"]
            assert doc["tail_at_k_obs"]["fraction"] == str(r.tail_at_k_obs)
        finally:
            sys.set_int_max_str_digits(limit)
        assert max(len(entry["fraction"]) for entry in doc["rows"]) > 2 * 4300

    def test_sparse_whole_hospital_rows(self):
        # 10 000 draws at 901/90 000: 127 rows of about 50 000 digits each
        r = binomial_analysis(Table2x2(125, 9875, 901, 89099))
        doc = binomial_json(r)
        assert len(doc["rows"]) == len(r.tails.rows) == 127
        # read_int takes only canonical text, so equal ints mean each text is
        # str() of its int, checked without str()'s quadratic time
        read = functools.cache(read_int)   # many rows share a denominator

        def fraction(text):
            num, slash, den = text.partition("/")
            return read(num), read(den) if slash else 1

        for entry, row in zip(doc["rows"], r.tails.rows):
            assert entry["threshold"] == row.threshold
            assert fraction(entry["fraction"]) == (row.numerator, row.denominator)
        assert r.tails.scale > 10**49_000
        for key, exact in (("tail_at_k_obs", r.tail_at_k_obs), ("one_in_n", r.one_in_n)):
            assert fraction(doc[key]["fraction"]) == (exact.numerator, exact.denominator)
            assert doc[key]["value"] == float(exact)

    @pytest.mark.parametrize("t, k_range", [
        (Table2x2(0, 9, 0, 11), None),          # the row is 1
        (Table2x2(2, 3, 0, 10), None),          # the row is 0: one in N is null
        (Table2x2(3, 0, 1, 1), None),           # 1/8: one in N is the whole number 8
        (Table2x2(400, 0, 1, 99), None),        # 1/10**800: one in N past the float range
        (Table2x2(14, 187, 13, 1520), None),
        (Table2x2(14, 187, 13, 1520), (15, 20)),  # k_obs below the table
    ])
    def test_k_obs_entries_equal_exact_json(self, t, k_range):
        r = binomial_analysis(t, k_range=k_range)
        doc = binomial_json(r)
        assert doc["tail_at_k_obs"] == exact_json(r.tail_at_k_obs)
        assert doc["one_in_n"] == exact_json(r.one_in_n)

    @pytest.mark.parametrize("f", [Fraction(1), Fraction(27), Fraction(1, 8), Fraction(3, 8),
                                   Fraction(10**4400, 7), Fraction(7, 10**4400 + 1)])
    def test_inverse_is_the_reciprocal(self, f):
        entry = exact_json(f)
        assert inverse(f.numerator, f.denominator, entry["fraction"]) == exact_json(1 / f)
        assert inverse(0, 1, "0") is None

    def test_display_past_float_range(self):
        # 6 significant figures of the exact value, rounded half to even
        assert exact_json(Fraction(9999995 * 10**394))["display"] == "1e+401"
        assert exact_json(Fraction(9999985 * 10**394))["display"] == "9.99998e+400"
        assert exact_json(-Fraction(10**400, 3))["display"] == "-3.33333e+399"
        assert exact_json(Fraction(3, 10**400))["display"] == "3e-400"
        big = exact_json(Fraction(10**400, 7))
        assert (big["value"], big["display"]) == (None, "1.42857e+399")
        tiny = exact_json(Fraction(7, 10**400))
        assert (tiny["value"], tiny["display"]) == (0.0, "7e-400")
        assert exact_json(Fraction(0))["display"] == float_json(0.0)["display"] == "0"

    def test_tail_rows_display_exact_below_float_range(self):
        # 400 draws at 1/100: rows from ~1e-308 down to 1e-800 are subnormal
        # or flush to 0 as floats
        r = binomial_analysis(Table2x2(4, 396, 1, 99), k_range=(0, 401))
        doc = binomial_json(r)
        assert any(0 < entry["value"] < sys.float_info.min for entry in doc["rows"])
        rows = tail_rows(doc["rows"])
        assert [text for _, text in rows] == [exact_json(row.exact)["display"]
                                              for row in r.tails.rows]
        assert rows[400] == [">= 400", "1e-800"]
        assert rows[401] == [">= 401", "0"]

    def test_display_of_subnormal_is_exact(self):
        # float(1/(3e320)) is subnormal: it keeps fewer than 6 significant figures
        tiny = Fraction(1, 3 * 10**320)
        assert float(tiny) != 0
        assert exact_json(tiny)["display"] == "3.33333e-321"
        assert float_json(sys.float_info.min)["display"] == "2.22507e-308"

    @given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    @example(5e-324)                    # the least subnormal
    @example(-sys.float_info.min / 3)   # a negative subnormal
    @example(sys.float_info.max)
    def test_float_display_is_its_exact_display(self, x):
        # a float's .6g text is its exact value to 6 figures, subnormal or not
        assert float_json(x)["display"] == exact_json(Fraction(x))["display"]
