"""Simpson checks and stratified-versus-pooled comparisons."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rel_close, scaled, stratified_tables, tables
from tabaudit.confounding import collapse_comparison, simpson_check
from tabaudit.datasets import EMBEDDED
from tabaudit.tables import StratifiedTable, Table2x2, collapse
from tabaudit.association import nominal_correlation


def copies(t, n, name="copies"):
    return StratifiedTable(tuple((f"S{i}", t) for i in range(n)), name=name)


class TestSimpsonCheck:
    def test_shops_paradox(self):
        verdict = simpson_check(EMBEDDED["shops"])
        assert [o.value for _, o in verdict.stratum_odds] == [Fraction(5, 4), Fraction(5, 4)]
        assert verdict.pooled_odds.value == Fraction(49, 81)
        assert verdict.paradox is True
        assert verdict.note is None

    def test_identical_strata_no_paradox(self):
        verdict = simpson_check(copies(Table2x2(5, 1, 8, 2), 2))
        assert verdict.pooled_odds.value == Fraction(5, 4)
        assert verdict.paradox is False

    def test_original_dataset(self):
        verdict = simpson_check(EMBEDDED["original"])
        kinds = [o.kind for _, o in verdict.stratum_odds]
        assert kinds == ["infinite", "infinite", "finite"]
        assert verdict.pooled_odds.value == Fraction(21280, 2431)
        assert verdict.pooled_odds.value > 1
        assert verdict.paradox is False

    def test_all_undefined_reports_insufficient_data(self):
        t = Table2x2(0, 0, 2, 3)       # a*d == 0 and b*c == 0
        verdict = simpson_check(copies(t, 2))
        assert verdict.paradox is False
        assert verdict.note == "insufficient data"

    def test_boundary_odds_ratio(self):
        verdict = simpson_check(copies(Table2x2(1, 1, 1, 1), 2))
        assert verdict.paradox is False
        assert verdict.note == "boundary"

    def test_infinite_counts_as_greater(self):
        # one infinite stratum, one > 1 stratum, pooled < 1 would be a paradox;
        # here pooled stays > 1 so no paradox, but the direction map shows '>1'
        s = StratifiedTable((("A", Table2x2(3, 0, 1, 2)), ("B", Table2x2(4, 1, 2, 3))))
        verdict = simpson_check(s)
        assert dict(verdict.directions)["A"] == ">1"

    def test_single_stratum_rejected(self):
        with pytest.raises(ValueError, match="two strata"):
            simpson_check(copies(Table2x2(1, 2, 3, 4), 1))

    @given(stratified_tables(min_strata=2, max_strata=4))
    def test_permutation_invariant(self, s):
        verdict = simpson_check(s)
        reordered = simpson_check(StratifiedTable(tuple(reversed(s.strata)), name=s.name))
        assert verdict.paradox == reordered.paradox
        assert verdict.pooled_odds == reordered.pooled_odds
        assert sorted(verdict.directions) == sorted(reordered.directions)

    @given(tables, st.integers(min_value=2, max_value=5))
    def test_copies_never_paradox(self, t, n):
        assert simpson_check(copies(t, n)).paradox is False


class TestCollapseComparison:
    def test_original_pooled(self):
        comp = collapse_comparison(EMBEDDED["original"])
        assert rel_close(comp.pooled.value, 0.158169)

    def test_derksen_pooled(self):
        comp = collapse_comparison(EMBEDDED["derksen"])
        assert rel_close(comp.pooled.value, 0.0614621)

    def test_single_stratum(self):
        s = StratifiedTable((("A", Table2x2(5, 3, 2, 7)),), name="one")
        comp = collapse_comparison(s)
        assert comp.pooled.value == comp.stratum_values[0][1].value
        assert comp.flattened_ratio is None
        assert comp.composite_drop is None

    def test_drop_matches_components(self):
        comp = collapse_comparison(EMBEDDED["derksen"])
        assert comp.composite_drop == comp.flattened_ratio - comp.pooled.value

    @given(stratified_tables(min_strata=1, max_strata=4))
    def test_pooled_recomputed_bit_for_bit(self, s):
        comp = collapse_comparison(s)
        direct = nominal_correlation(collapse(s))
        assert comp.pooled == direct

    @given(tables, st.integers(min_value=2, max_value=5))
    def test_copies_pool_to_scaled_table(self, t, n):
        comp = collapse_comparison(copies(t, n))
        assert comp.pooled.value == nominal_correlation(scaled(t, n)).value
        base = nominal_correlation(t).value
        assert all(r.value == base for _, r in comp.stratum_values)
