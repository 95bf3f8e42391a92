"""Nominal correlation, odds ratios, rates, figure geometry."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import positive_tables, rel_close, stratified_tables, tables
from tabaudit.association import (
    determinant_figure,
    flattened_volume_ratio,
    nominal_correlation,
    odds_ratio,
    rate_table,
)
from tabaudit.datasets import EMBEDDED
from tabaudit.tables import StratifiedTable, Table2x2

ORIGINAL = EMBEDDED["original"]
DERKSEN = EMBEDDED["derksen"]
SHOPS = EMBEDDED["shops"]


class TestNominalCorrelation:
    def test_shops_pooled_exact(self):
        r = nominal_correlation(Table2x2(7, 9, 9, 7))
        assert r.value == -0.125
        assert r.det == -32
        assert r.row_picture_ratio == Fraction(-1, 8)
        assert r.col_picture_ratio == Fraction(-1, 8)

    def test_original_pooled(self):
        r = nominal_correlation(Table2x2(14, 187, 13, 1520))
        assert rel_close(r.value, 0.158169)
        assert r.det == 18849

    def test_derksen_pooled(self):
        r = nominal_correlation(Table2x2(6, 197, 14, 1517))
        assert rel_close(r.value, 0.0614621)

    def test_pure_diagonal(self):
        assert nominal_correlation(Table2x2(3, 0, 0, 7)).value == 1.0

    def test_proportional_rows(self):
        r = nominal_correlation(Table2x2(2, 4, 1, 2))
        assert r.det == 0
        assert r.value == 0.0

    def test_zero_margin_convention(self):
        r = nominal_correlation(Table2x2(0, 0, 3, 4))
        assert r.value == 0.0
        assert r.row_picture_ratio == 0
        assert r.col_picture_ratio == 0

    def test_stratum_values_frozen(self):
        # frozen from the direct formula det / sqrt(product of margins)
        by_label = {label: nominal_correlation(t) for label, t in ORIGINAL.strata}
        assert math.isclose(by_label["JKZ"].value, 0.22123292440825504, rel_tol=1e-12)
        assert math.isclose(by_label["RKZ2"].value, 0.10253870977990105, rel_tol=1e-12)

    def test_uniform_strata_are_zero(self):
        for _, t in (("x", Table2x2(1, 1, 1, 1)),):
            assert nominal_correlation(t).value == 0.0

    @given(tables)
    def test_bounds_and_transpose_invariance(self, t):
        r = nominal_correlation(t)
        assert -1 <= r.value <= 1
        assert nominal_correlation(t.transpose()).value == r.value

    @given(tables)
    def test_square_identity_exact(self, t):
        r = nominal_correlation(t)
        assert r.value_squared == r.row_picture_ratio * r.col_picture_ratio
        if r.row_picture_ratio != 0 and r.col_picture_ratio != 0:
            assert math.isclose(r.value**2, float(r.value_squared), rel_tol=1e-12)

    @given(tables)
    def test_swap_rules(self, t):
        r = nominal_correlation(t).value
        rows_swapped = Table2x2(t.c, t.d, t.a, t.b)
        cols_swapped = Table2x2(t.b, t.a, t.d, t.c)
        both = Table2x2(t.d, t.c, t.b, t.a)
        assert nominal_correlation(rows_swapped).value == -r
        assert nominal_correlation(cols_swapped).value == -r
        assert nominal_correlation(both).value == r

    @given(positive_tables)
    def test_extreme_only_on_zero_diagonal(self, t):
        # all four cells positive: |value| strictly below 1
        assert abs(nominal_correlation(t).value) < 1

    def test_extreme_when_one_diagonal_zero(self):
        assert nominal_correlation(Table2x2(5, 0, 0, 2)).value == 1.0
        assert nominal_correlation(Table2x2(0, 5, 2, 0)).value == -1.0

    def test_determinant_past_the_float_range(self):
        # |det| ~ 1e400 cannot be a float, so the sign is not taken through one
        big = 10**200
        assert nominal_correlation(Table2x2(big, 1, 1, big)).value == 1.0
        assert nominal_correlation(Table2x2(1, big, big, 1)).value == -1.0


class TestFlattenedVolumeRatio:
    def oracle(self, s):
        # independent route: build the stacked matrix and use numpy's Gram determinant
        stacked = np.array(
            [pair for t in s.tables for pair in ((t.a, t.b), (t.c, t.d))], dtype=float
        )
        gram = stacked.T @ stacked
        det = np.linalg.det(gram)
        c1, c2 = stacked[:, 0].sum(), stacked[:, 1].sum()
        return math.sqrt(max(det, 0.0)) / (c1 * c2)

    def test_original_frozen(self):
        value = flattened_volume_ratio(ORIGINAL)
        assert math.isclose(value, 0.27605006003229354, rel_tol=1e-12)
        assert math.isclose(value, self.oracle(ORIGINAL), rel_tol=1e-9)

    def test_shops_and_derksen_against_oracle(self):
        for s in (SHOPS, DERKSEN):
            assert math.isclose(flattened_volume_ratio(s), self.oracle(s), rel_tol=1e-9)

    def test_rank_one_stacks_are_zero(self):
        t = Table2x2(2, 4, 1, 2)
        s = StratifiedTable((("A", t), ("B", t)))
        assert flattened_volume_ratio(s) == 0.0

    def test_single_stratum_rejected(self):
        single = StratifiedTable((("A", Table2x2(1, 2, 3, 4)),))
        with pytest.raises(ValueError, match="two strata"):
            flattened_volume_ratio(single)

    def test_zero_column_sum(self):
        s = StratifiedTable((("A", Table2x2(0, 2, 0, 4)), ("B", Table2x2(0, 1, 0, 3))))
        assert flattened_volume_ratio(s) == 0.0

    @given(stratified_tables(min_strata=2, max_strata=4))
    def test_in_unit_interval(self, s):
        assert 0.0 <= flattened_volume_ratio(s) <= 1.0


class TestOddsRatio:
    def test_shop_strata(self):
        assert odds_ratio(Table2x2(5, 1, 8, 2)).value == Fraction(5, 4)
        assert odds_ratio(Table2x2(7, 9, 9, 7)).value == Fraction(49, 81)
        assert odds_ratio(Table2x2(1, 1, 1, 1)).value == 1

    def test_markers(self):
        assert odds_ratio(Table2x2(8, 134, 0, 887)).kind == "infinite"
        assert odds_ratio(Table2x2(0, 0, 1, 2)).kind == "undefined"
        assert odds_ratio(Table2x2(0, 3, 2, 5)).value == 0

    def test_versus_one(self):
        assert odds_ratio(Table2x2(5, 1, 8, 2)).versus_one() == ">1"
        assert odds_ratio(Table2x2(7, 9, 9, 7)).versus_one() == "<1"
        assert odds_ratio(Table2x2(1, 1, 1, 1)).versus_one() == "=1"
        assert odds_ratio(Table2x2(8, 134, 0, 887)).versus_one() == ">1"
        assert odds_ratio(Table2x2(0, 0, 1, 2)).versus_one() == "undefined"

    @given(positive_tables, st.integers(min_value=1, max_value=9),
           st.integers(min_value=1, max_value=9))
    def test_row_and_column_scaling_invariance(self, t, f, g):
        base = odds_ratio(t).value
        row_scaled = Table2x2(t.a * f, t.b * f, t.c, t.d)
        col_scaled = Table2x2(t.a, t.b * g, t.c, t.d * g)
        assert odds_ratio(row_scaled).value == base
        assert odds_ratio(col_scaled).value == base


class TestRateTable:
    def test_original_other_rates(self):
        rt = rate_table([ORIGINAL])
        other = [e for e in rt.entries if e.group == "Other"]
        assert [e.rate for e in other] == [0, Fraction(4, 365), Fraction(9, 281)]
        assert rel_close(other[1].rate, 0.0109589)
        assert rel_close(other[2].rate, 0.0320285)

    def test_derksen_v_rkz1(self):
        rt = rate_table([DERKSEN])
        entry = next(e for e in rt.entries if e.stratum == "RKZ1" and e.group == "V")
        assert entry.rate == Fraction(1, 3)

    def test_pooled_rates(self):
        rt = rate_table([ORIGINAL, DERKSEN])
        assert rt.pooled_rate("original", "Other") == Fraction(13, 1533)
        assert rt.pooled_rate("original", "V") == Fraction(14, 201)
        assert rt.pooled_rate("derksen", "Other") == Fraction(14, 1531)
        assert rt.pooled_rate("derksen", "V") == Fraction(6, 203)
        with pytest.raises(KeyError):
            rt.pooled_rate("shops", "V")

    def test_zero_shift_group_undefined(self):
        empty_row = StratifiedTable((("A", Table2x2(0, 0, 3, 5)),), name="edge")
        rt = rate_table([empty_row])
        suspect = next(e for e in rt.entries if e.group == "V")
        assert suspect.rate is None

    @given(stratified_tables(min_strata=1, max_strata=4))
    def test_pooled_is_weighted_mean(self, s):
        rt = rate_table([s])
        group = s.row_labels[1]
        pooled = rt.pooled_rate(s.name, group)
        shifts = sum(t.row2 for t in s.tables)
        if shifts == 0:
            assert pooled is None
        else:
            weighted = sum(Fraction(t.c, 1) for t in s.tables)
            assert pooled == Fraction(weighted, shifts)
            per_stratum = [
                (e.rate, e.shifts) for e in rt.entries if e.group == group and e.rate is not None
            ]
            assert pooled == sum(r * n for r, n in per_stratum) / shifts


class TestDeterminantFigure:
    def test_original_pooled(self):
        fig = determinant_figure(Table2x2(14, 187, 13, 1520))
        assert fig.parallelogram_area == 18849
        assert fig.rect_area == 46089
        assert math.isclose(float(fig.area_ratio), 0.40896960229121915, rel_tol=1e-12)
        assert fig.v_sum == fig.rect == (27, 1707)

    def test_identity(self):
        fig = determinant_figure(Table2x2(1, 0, 0, 1))
        assert fig.parallelogram_area == fig.rect_area == 1
        assert fig.area_ratio == 1

    def test_derksen_smaller_fraction(self):
        original = determinant_figure(Table2x2(14, 187, 13, 1520))
        corrected = determinant_figure(Table2x2(6, 197, 14, 1517))
        assert corrected.parallelogram_area == 6344
        assert corrected.rect_area == 34280
        assert math.isclose(float(corrected.area_ratio), 0.18506417736289382, rel_tol=1e-12)
        assert corrected.area_ratio < original.area_ratio

    @given(tables)
    def test_geometry_consistency(self, t):
        fig = determinant_figure(t)
        assert fig.v_sum == (fig.v1[0] + fig.v2[0], fig.v1[1] + fig.v2[1])
        assert fig.parallelogram_area == abs(t.a * t.d - t.b * t.c)
        assert fig.rect == (t.col1, t.col2)
        assert fig.polygon[0] == (0, 0)
