"""Table types: margins, pooling, validation, diffs."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import apply_diff, stratified_tables, tables
from tabaudit import datasets
from tabaudit.tables import (
    StratifiedTable,
    Table2x2,
    TableValidationError,
    collapse,
    diff,
)


def make_stratified(name, *cells, labels=None):
    labels = labels or [f"S{i}" for i in range(len(cells))]
    return StratifiedTable(
        tuple((lab, Table2x2(*quad)) for lab, quad in zip(labels, cells)), name=name
    )


ORIGINAL = make_stratified(
    "original", (8, 134, 0, 887), (1, 0, 4, 361), (5, 53, 9, 272),
    labels=["JKZ", "RKZ1", "RKZ2"],
)
DERKSEN = make_stratified(
    "derksen", (4, 138, 1, 886), (1, 2, 4, 359), (1, 57, 9, 272),
    labels=["JKZ", "RKZ1", "RKZ2"],
)


class TestMargins:
    def test_jkz(self):
        t = Table2x2(8, 134, 0, 887)
        assert ((t.row1, t.row2), (t.col1, t.col2), t.total) == ((142, 887), (8, 1021), 1029)

    def test_all_zero(self):
        t = Table2x2(0, 0, 0, 0)
        assert ((t.row1, t.row2), (t.col1, t.col2), t.total) == ((0, 0), (0, 0), 0)

    def test_derksen_pooled(self):
        t = Table2x2(6, 197, 14, 1517)
        assert ((t.row1, t.row2), (t.col1, t.col2), t.total) == ((203, 1531), (20, 1714), 1734)

    def test_rejects_negative_and_non_integer(self):
        # an integral bool, float or Fraction is still not a count
        for bad, message in ((True, "True is a boolean, not an integer"),
                             (2.0, "2.0 is not an integer"),
                             (Fraction(2), "Fraction(2, 1) is not an integer"),
                             (-2, "-2 is negative")):
            for at, name in enumerate("abcd"):
                cells = [1, 2, 3, 4]
                cells[at] = bad
                with pytest.raises(TableValidationError,
                                   match=f"^cell {name}: count {re.escape(message)}$"):
                    Table2x2(*cells)


class TestCollapse:
    def test_shops(self):
        shops = make_stratified("shops", (5, 1, 8, 2), (2, 8, 1, 5))
        assert collapse(shops).cells() == ((7, 9), (9, 7))

    def test_original(self):
        assert collapse(ORIGINAL).cells() == ((14, 187), (13, 1520))

    def test_single_stratum_identity(self):
        single = make_stratified("one", (3, 1, 4, 1))
        assert collapse(single).cells() == ((3, 1), (4, 1))

    @given(stratified_tables())
    def test_permutation_invariant(self, s):
        reordered = StratifiedTable(tuple(reversed(s.strata)), name=s.name)
        assert collapse(s).cells() == collapse(reordered).cells()

    @given(stratified_tables())
    def test_total_is_sum_of_totals(self, s):
        assert collapse(s).total == sum(t.total for t in s.tables)

    @staticmethod
    def cell_sum(s):
        return Table2x2(*(sum(cell) for cell in zip(*((t.a, t.b, t.c, t.d) for t in s.tables))),
                        row_labels=s.row_labels, col_labels=s.col_labels)

    @pytest.mark.parametrize("name", sorted(datasets.EMBEDDED))
    def test_cached_pool_equals_a_fresh_sum(self, name):
        embedded = datasets.get(name)
        loaded = datasets.from_json_dict(datasets.to_json_dict(embedded))
        for s in (embedded, embedded.transpose(), loaded, loaded.transpose()):
            assert collapse(s) == self.cell_sum(s)
            assert collapse(s) is collapse(s)   # cached on the instance
        assert collapse(embedded.transpose()) == collapse(embedded).transpose()

    @given(stratified_tables())
    def test_cached_pool_equals_a_fresh_sum_random(self, s):
        first = collapse(s)
        assert first == self.cell_sum(s) and collapse(s) is first
        assert collapse(s.transpose()) == self.cell_sum(s.transpose()) == first.transpose()

    def test_get_by_label(self):
        assert ORIGINAL.get("RKZ1") == Table2x2(1, 0, 4, 361)
        with pytest.raises(KeyError):
            ORIGINAL.get("RKZ3")

    def test_labels_preserved(self):
        pooled = collapse(ORIGINAL)
        assert pooled.row_labels == ("V", "Other")
        assert pooled.col_labels == ("Incident", "No incident")

    def test_mismatched_labels_rejected(self):
        with pytest.raises(TableValidationError, match="labels"):
            StratifiedTable((
                ("A", Table2x2(1, 2, 3, 4)),
                ("B", Table2x2(1, 2, 3, 4, row_labels=("X", "Y"))),
            ))

    def test_empty_rejected(self):
        with pytest.raises(TableValidationError, match="at least one"):
            StratifiedTable(())

    def test_stratum_must_be_a_table(self):
        with pytest.raises(TableValidationError, match="stratum 'B' is not a Table2x2"):
            StratifiedTable((("A", Table2x2(1, 2, 3, 4)), ("B", ((1, 2), (3, 4)))))

    def test_pooled_label_rejected(self):
        # every output marks the pooled table "All": a stratum of that name would read as it
        with pytest.raises(TableValidationError,
                           match="^stratum label 'All' names the pooled table$"):
            StratifiedTable((("B", Table2x2(5, 6, 7, 8)), ("All", Table2x2(1, 2, 3, 4))))


class TestTranspose:
    @given(tables)
    def test_involution(self, t):
        assert t.transpose().transpose() == t

    def test_labels_swap(self):
        t = Table2x2(1, 2, 3, 4).transpose()
        assert t.cells() == ((1, 3), (2, 4))
        assert t.row_labels == ("Incident", "No incident")
        assert t.col_labels == ("V", "Other")


class TestDiff:
    def test_original_to_derksen_jkz_incidents(self):
        delta = diff(ORIGINAL, DERKSEN)
        jkz = delta.strata[0]
        assert jkz.stratum == "JKZ"
        assert jkz.cells[0][0] == -4

    def test_self_diff_is_zero(self):
        assert all(d.cells == ((0, 0), (0, 0)) for d in diff(ORIGINAL, ORIGINAL).strata)

    def test_grand_total_preserved(self):
        assert diff(ORIGINAL, DERKSEN).total_delta == 0

    def test_incident_moves_summary(self):
        delta = diff(ORIGINAL, DERKSEN)
        assert delta.suspect_incident_delta == -8
        assert delta.other_incident_delta == 1

    def test_label_mismatch_rejected(self):
        other = make_stratified("x", (1, 2, 3, 4), labels=["ward"])
        with pytest.raises(TableValidationError, match="labels differ"):
            diff(ORIGINAL, other)

    @given(stratified_tables(min_strata=1, max_strata=3), st.data())
    def test_apply_round_trip(self, a, data):
        b_tables = tuple(
            (lab, data.draw(tables, label=f"target {lab}")) for lab, _ in a.strata
        )
        b = StratifiedTable(b_tables, name="b")
        assert apply_diff(a, diff(a, b)).strata == StratifiedTable(b_tables, name=a.name).strata
