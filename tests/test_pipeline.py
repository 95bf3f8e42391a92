"""Fisher pipeline, binomial model, and the replication report."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rel_close, stratified_tables
from tabaudit import datasets, references
from tabaudit.pipeline import (
    binomial_analysis,
    fisher_pipeline,
    replicate,
)
from tabaudit.exact import BinomialParams, binomial_upper_tail
from tabaudit.render import exact_json, sig6
from tabaudit.tables import StratifiedTable, Table2x2

ORIGINAL = datasets.get("original")
DERKSEN = datasets.get("derksen")


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
        with pytest.raises(ValueError, match="mode"):
            fisher_pipeline(ORIGINAL, 27, "sideways")


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


class TestReplicate:
    def test_reference_checks_pass(self):
        report = replicate()
        assert references.check_report_json(report.to_json_dict()) == []

    def test_empty_report(self):
        report = replicate(())
        doc = report.to_json_dict()
        assert doc["datasets"] == []
        assert doc["correlations"] == {}
        assert doc["binomial"] == {}
        json.dumps(doc)

    def test_unknown_dataset(self):
        with pytest.raises(datasets.UnknownDatasetError):
            replicate(("missing",))

    def test_shops_report_has_paradox(self):
        doc = replicate(("shops",)).to_json_dict()
        assert doc["simpson"]["shops"]["paradox"] is True

    def test_mutated_registry_fails_verification(self):
        tampered = dict(datasets.EMBEDDED)
        strata = list(tampered["original"].strata)
        jkz = strata[0][1]
        strata[0] = ("JKZ", Table2x2(jkz.a + 1, jkz.b, jkz.c, jkz.d))
        tampered["original"] = StratifiedTable(tuple(strata), name="original")
        report = replicate(registry=tampered)
        assert references.check_report_json(report.to_json_dict())

    def test_every_float_round_trips_from_its_fraction(self):
        doc = replicate().to_json_dict()

        def walk(node):
            if isinstance(node, dict):
                if "fraction" in node and "value" in node:
                    assert node["value"] == float(Fraction(node["fraction"]))
                    assert node["display"] == sig6(node["value"])
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        walk(doc)

    def test_json_serializable_and_deterministic(self):
        a = json.dumps(replicate().to_json_dict(), indent=2)
        b = json.dumps(replicate().to_json_dict(), indent=2)
        assert a == b

    def test_text_report_carries_headline_numbers(self):
        text = replicate().to_text()
        for token in ("0.158169", "0.0614621", "-0.125", "3.42638e+08", "141494",
                      "688.367", "1.64051", "86.9055", "3.48574e+08"):
            assert token in text

    def test_nurse_override_changes_one_in_n(self):
        report = replicate(("original",), n_nurses={"original": 1})
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
