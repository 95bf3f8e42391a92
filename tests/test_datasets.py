"""Embedded datasets and file round trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from conftest import stratified_tables
from tabaudit import datasets
from tabaudit.tables import TableValidationError, collapse


class TestEmbedded:
    def test_names(self):
        assert set(datasets.available()) == {"original", "derksen", "shops"}

    def test_grand_totals(self):
        assert collapse(datasets.get("original")).total == 1734
        assert collapse(datasets.get("derksen")).total == 1734
        assert collapse(datasets.get("shops")).total == 32

    def test_pooled_cells(self):
        assert collapse(datasets.get("original")).cells() == ((14, 187), (13, 1520))
        assert collapse(datasets.get("derksen")).cells() == ((6, 197), (14, 1517))
        assert collapse(datasets.get("shops")).cells() == ((7, 9), (9, 7))

    def test_unknown_name(self):
        with pytest.raises(datasets.UnknownDatasetError):
            datasets.get("nope")

    def test_reference_metadata(self):
        assert datasets.DATASET_INFO["original"].multiway_reference == 0.337002
        assert datasets.DATASET_INFO["derksen"].multiway_reference == 0.246024
        assert datasets.DATASET_INFO["shops"].multiway_reference == 0.665851
        assert datasets.n_nurses_for("original") == 27


class TestJsonRoundTrip:
    def test_schema_keys(self):
        doc = datasets.to_json_dict(datasets.get("original"))
        assert set(doc) == {"name", "row_labels", "col_labels", "strata"}
        assert doc["strata"][0] == {"label": "JKZ", "counts": [[8, 134], [0, 887]]}

    @given(stratified_tables())
    def test_round_trip(self, s):
        doc = datasets.to_json_dict(s)
        back = datasets.from_json_dict(json.loads(json.dumps(doc)))
        assert back.strata == s.strata
        assert back.name == s.name

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(datasets.to_json_dict(datasets.get("shops"))))
        assert datasets.load_json(path).strata == datasets.get("shops").strata

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  "row_labels": [}')
        with pytest.raises(datasets.DatasetFormatError, match=r"bad\.json:2"):
            datasets.load_json(path)

    def test_missing_key(self):
        with pytest.raises(datasets.DatasetFormatError, match="row_labels"):
            datasets.from_json_dict({"name": "x", "strata": []})

    def test_empty_strata(self):
        with pytest.raises(datasets.DatasetFormatError, match="non-empty"):
            datasets.from_json_dict(
                {"name": "x", "row_labels": ["a", "b"], "col_labels": ["c", "d"], "strata": []})

    def test_bad_counts_shape(self):
        doc = {"name": "x", "row_labels": ["a", "b"], "col_labels": ["c", "d"],
               "strata": [{"label": "s", "counts": [[1, 2, 3], [4, 5, 6]]}]}
        with pytest.raises(datasets.DatasetFormatError, match=r"\[\[a,b\],\[c,d\]\]"):
            datasets.from_json_dict(doc)

    def test_negative_count_is_validation_error(self):
        doc = {"name": "x", "row_labels": ["a", "b"], "col_labels": ["c", "d"],
               "strata": [{"label": "s", "counts": [[1, -2], [3, 4]]}]}
        with pytest.raises(TableValidationError, match="negative"):
            datasets.from_json_dict(doc)

    def test_boolean_count_is_validation_error(self):
        # operator.index(True) is 1, so a JSON `true` must be refused explicitly
        doc = {"name": "x", "row_labels": ["a", "b"], "col_labels": ["c", "d"],
               "strata": [{"label": "s", "counts": [[1, True], [3, 4]]}]}
        with pytest.raises(TableValidationError, match="cell b: count True is a boolean"):
            datasets.from_json_dict(doc)


class TestCsvRoundTrip:
    def test_text_round_trip(self):
        text = datasets.to_csv_text(datasets.get("original"))
        assert text.splitlines()[0] == "stratum,a,b,c,d"
        back = datasets.from_csv_text(text, name="original")
        assert back.strata == datasets.get("original").strata

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "mydata.csv"
        path.write_text(datasets.to_csv_text(datasets.get("derksen")))
        loaded = datasets.load_csv(path)
        assert loaded.strata == datasets.get("derksen").strata
        assert loaded.name == "mydata"

    def test_headerless(self):
        back = datasets.from_csv_text("w1,1,2,3,4\nw2,5,6,7,8\n")
        assert back.labels == ("w1", "w2")

    def test_bad_column_count_names_line(self):
        with pytest.raises(datasets.DatasetFormatError, match=":2:"):
            datasets.from_csv_text("w1,1,2,3,4\nw2,5,6\n")

    def test_non_integer_cell(self):
        with pytest.raises(datasets.DatasetFormatError, match="integers"):
            datasets.from_csv_text("w1,1,x,3,4\n")

    def test_empty_file(self):
        with pytest.raises(datasets.DatasetFormatError, match="no strata"):
            datasets.from_csv_text("stratum,a,b,c,d\n")


class TestLoadPath:
    def test_suffix_dispatch(self, tmp_path):
        unknown = tmp_path / "data.txt"
        unknown.write_text("x")
        with pytest.raises(datasets.DatasetFormatError, match="suffix"):
            datasets.load_path(unknown)
