"""Embedded datasets and file round trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import json_values, stratified_tables, to_csv_text
from tabaudit import datasets
from tabaudit.tables import TableValidationError, collapse


@st.composite
def corrupted_documents(draw):
    """A valid dataset document with at most one node replaced by any JSON value or removed."""
    doc = datasets.to_json_dict(draw(stratified_tables()))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    elif parent is not None:
        parent[key] = draw(json_values)
    return doc


@st.composite
def corrupted_csv(draw):
    """A valid dataset CSV with one slice replaced by arbitrary text."""
    text = to_csv_text(draw(stratified_tables()))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return text[:i] + draw(st.text(max_size=4) | st.text(',"\r\n -01', max_size=4)) + text[j:]


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
        assert datasets.MULTIWAY_REFERENCE["original"] == 0.337002
        assert datasets.MULTIWAY_REFERENCE["derksen"] == 0.246024
        assert datasets.MULTIWAY_REFERENCE["shops"] == 0.665851
        assert datasets.DEFAULT_N_NURSES == 27


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

    @pytest.mark.parametrize("entry", [5, "s", None, [["s"], [[1, 2], [3, 4]]]])
    def test_stratum_entry_must_be_an_object(self, entry):
        doc = {"name": "x", "row_labels": ["a", "b"], "col_labels": ["c", "d"],
               "strata": [{"label": "s", "counts": [[1, 2], [3, 4]]}, entry]}
        with pytest.raises(datasets.DatasetFormatError,
                           match="stratum 1 needs 'label' and 'counts'"):
            datasets.from_json_dict(doc)

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

    @pytest.mark.parametrize("field, value", [
        ("row_labels", 5), ("row_labels", None), ("row_labels", "ab"), ("col_labels", ["c", 1]),
    ])
    def test_labels_must_be_two_strings(self, field, value):
        doc = {"name": "x", "row_labels": ["a", "b"], "col_labels": ["c", "d"],
               "strata": [{"label": "s", "counts": [[1, 2], [3, 4]]}], field: value}
        with pytest.raises(datasets.DatasetFormatError, match=f"{field} must be a list of two"):
            datasets.from_json_dict(doc)

    @pytest.mark.parametrize("field, value", [("label", {"x": 1}), ("label", 7), ("name", [])])
    def test_names_must_be_strings(self, field, value):
        doc = {"name": "x", "row_labels": ["a", "b"], "col_labels": ["c", "d"],
               "strata": [{"label": "s", "counts": [[1, 2], [3, 4]]}]}
        (doc if field == "name" else doc["strata"][0])[field] = value
        with pytest.raises(datasets.DatasetFormatError, match="must be a string"):
            datasets.from_json_dict(doc)

    @given(json_values | corrupted_documents())
    def test_fuzz_loads_as_written_or_raises_documented_error(self, doc):
        try:
            s = datasets.from_json_dict(doc)
        except (datasets.DatasetFormatError, TableValidationError):
            return
        assert datasets.to_json_dict(s) == {"name": "", **doc}


class TestCsvRoundTrip:
    def test_text_round_trip(self):
        text = to_csv_text(datasets.get("original"))
        assert text.splitlines()[0] == "stratum,a,b,c,d"
        back = datasets.from_csv_text(text, name="original")
        assert back.strata == datasets.get("original").strata

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "mydata.csv"
        path.write_text(to_csv_text(datasets.get("derksen")))
        loaded = datasets.load_csv(path)
        assert loaded.strata == datasets.get("derksen").strata
        assert loaded.name == "mydata"

    def test_headerless(self):
        back = datasets.from_csv_text("w1,1,2,3,4\nw2,5,6,7,8\n")
        assert back.labels == ("w1", "w2")

    def test_bad_column_count_names_line(self):
        with pytest.raises(datasets.DatasetFormatError, match=":2:"):
            datasets.from_csv_text("w1,1,2,3,4\nw2,5,6\n")

    def test_bad_record_names_its_physical_line(self):
        # the quoted label spans lines 2-4, so the short record is on line 5
        with pytest.raises(datasets.DatasetFormatError, match="^<csv>:5: expected 5 columns"):
            datasets.from_csv_text('a,1,2,3,4\n"b\nc\nd",1,2,3,4\ne,1,2')
        with pytest.raises(datasets.DatasetFormatError, match="^<csv>:4: counts must be"):
            datasets.from_csv_text('a,1,2,3,4\n\n\nb,1,x,3,4\n')

    def test_non_integer_cell(self):
        with pytest.raises(datasets.DatasetFormatError, match="integers"):
            datasets.from_csv_text("w1,1,x,3,4\n")

    def test_empty_file(self):
        with pytest.raises(datasets.DatasetFormatError, match="no strata"):
            datasets.from_csv_text("stratum,a,b,c,d\n")

    @given(st.text() | corrupted_csv())
    def test_fuzz_loads_or_raises_documented_error(self, text):
        try:
            datasets.from_csv_text(text)
        except (datasets.DatasetFormatError, TableValidationError):
            pass


class TestLoadPath:
    def test_suffix_dispatch(self, tmp_path):
        unknown = tmp_path / "data.txt"
        unknown.write_text("x")
        with pytest.raises(datasets.DatasetFormatError, match="suffix"):
            datasets.load_path(unknown)
