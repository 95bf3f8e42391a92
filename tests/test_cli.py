"""CLI surface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stratified_tables, to_csv_text
from tabaudit import datasets, pipeline
from tabaudit.cli import PROG, build_parser, main
from tabaudit.tables import StratifiedTable, Table2x2


@pytest.fixture
def digit_limit():
    """CPython's default limit on the digits of an int read from or written as text."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_shops_text(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--dataset", "shops")
        assert code == 0
        assert "-0.125" in out
        assert "5/4" in out and "49/81" in out

    def test_original_json(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--dataset", "original", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["correlations"]["pooled"]["display"] == "0.158169"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--dataset", "shops", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("correlations.pooled.value,") for line in lines)

    def test_transpose_swaps_groups(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--dataset", "shops", "--transpose",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        groups = {e["group"] for e in doc["rates"]["strata"]}
        assert groups == {"Fit", "No fit"}

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", "--dataset", "original", "--format", "json")
        _, second, _ = run_cli(capsys, "analyze", "--dataset", "original", "--format", "json")
        assert first == second

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 2
        assert "exactly one" in err
        code, _, err = run_cli(capsys, "analyze", "--dataset", "shops", "--input", "x.json")
        assert code == 2

    def test_unknown_dataset(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--dataset", "bogus")
        assert code == 2
        assert "unknown dataset" in err

    def test_malformed_json_names_file_and_line(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{\n  not json")
        code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 2
        assert "broken.json:2" in err

    def test_empty_strata_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"name": "x", "row_labels": ["a", "b"],
                                     "col_labels": ["c", "d"], "strata": []}))
        code, _, err = run_cli(capsys, "analyze", "--input", str(empty))
        assert code == 2

    def test_json_count_past_the_digit_limit_is_exit_2(self, capsys, tmp_path, digit_limit):
        path = tmp_path / "long.json"
        path.write_text('{"row_labels": ["a", "b"], "col_labels": ["c", "d"], "strata": '
                        f'[{{"label": "w", "counts": [[1, {"7" * 4400}], [3, 4]]}}]}}')
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: an integer has more than {digit_limit} digits, "
                       "the limit of sys.get_int_max_str_digits()\n")

    def test_csv_count_past_the_digit_limit_is_exit_2(self, capsys, tmp_path, digit_limit):
        # the message names the line and the limit, not the 4 400-digit cell
        path = tmp_path / "long.csv"
        path.write_text(f"stratum,a,b,c,d\nw1,1,2,3,4\nw2,1,{'7' * 4400},3,4\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: {path}:3: an integer has more than {digit_limit} digits, "
                       "the limit of sys.get_int_max_str_digits()\n")

    # a*d - b*c of these 3 000-digit counts has about 6 000 digits: the JSON
    # and CSV documents carry it as a bare int, and the text layout leaves it out
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_det_past_the_digit_limit(self, capsys, tmp_path, digit_limit, fmt):
        path = tmp_path / "wide.csv"
        nines, eights = "9" * 3000, "8" * 3000
        path.write_text(f"w,{nines},{eights}7,{eights},{nines}1\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--format", fmt)
        if fmt == "text":
            assert (code, err) == (0, "")
            assert "Nominal correlation" in out
        else:
            assert (code, out) == (3, "")
            assert err == (f"error: correlations.strata[0].det: an integer has more than "
                           f"{digit_limit} digits, the limit of sys.get_int_max_str_digits()\n")

    def test_negative_count_is_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "neg.csv"
        bad.write_text("w1,1,-2,3,4\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 3
        assert "negative" in err

    @pytest.mark.parametrize("name, text", [
        ("all.csv", "All,1,2,3,4\nB,5,6,7,8\n"),
        ("all.json", '{"row_labels": ["V", "Other"], "col_labels": ["I", "N"], "strata": '
                     '[{"label": "B", "counts": [[5, 6], [7, 8]]}, '
                     '{"label": "All", "counts": [[1, 2], [3, 4]]}]}'),
    ], ids=["csv", "json"])
    def test_stratum_labelled_all_is_exit_3(self, capsys, tmp_path, name, text):
        # "All" labels the pooled table, so a stratum of that name used to print as it
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, out, err) == (3, "", "error: stratum label 'All' names the pooled table\n")

    @pytest.mark.parametrize("suffix, data, at, reason", [
        (".csv", b"\xffJKZ,8,134,0,887\n", 0, "invalid start byte"),
        (".json", b'{"name": "w\xe9rd"}', 11, "invalid continuation byte"),
    ], ids=["csv", "json"])
    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path, suffix, data, at, reason):
        path = tmp_path / f"latin1{suffix}"
        path.write_bytes(data)
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, err) == (2, f"error: {path}: not UTF-8 at byte {at} ({reason})\n")

    def test_deeply_nested_json_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert (code, err) == (2, f"error: {path}: invalid JSON: nested too deeply\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.json"))
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "--dataset", "shops",
                               "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["dataset"] == "shops"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_determinant_past_the_float_range(self, capsys, tmp_path, fmt):
        big = 10**200
        path = tmp_path / "big.csv"
        path.write_text(f"w1,{big},1,1,{big}\nw2,1,{big},{big},1\n")
        code, out, err = run_cli(capsys, "analyze", "--input", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            strata = json.loads(out)["correlations"]["strata"]
            assert [s["value"] for s in strata] == [1.0, -1.0]

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "wards.csv"
        path.write_text(to_csv_text(datasets.get("original")))
        code, out, _ = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert "0.158169" in out


class TestFisher:
    def test_stratified(self, capsys):
        code, out, _ = run_cli(capsys, "fisher", "--dataset", "original",
                               "--mode", "stratified", "--nurses", "27")
        assert code == 0
        assert "3.42638e+08" in out

    def test_collapsed_json(self, capsys):
        code, out, _ = run_cli(capsys, "fisher", "--dataset", "derksen",
                               "--mode", "collapsed", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["one_in_n"]["display"] == "1.64051"
        assert doc["n_nurses"] == 27

    # the tail 1/C(1200, 600) underflows a float to 0, and one-in-N,
    # C(1200, 600)/27 ~ 1.5e358, is past the float range
    def test_one_in_n_past_float_range_text(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("w,600,0,0,600\n")
        code, out, err = run_cli(capsys, "fisher", "--input", str(path))
        assert (code, err) == (0, "")
        assert "w        2.52201e-360" in out
        assert out.endswith("one in N: 1.46855e+358\n")

    def test_one_in_n_past_float_range_json(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("w,600,0,0,600\n")
        code, out, err = run_cli(capsys, "fisher", "--input", str(path), "--format", "json")
        assert (code, err) == (0, "")

        def reject(constant):
            raise AssertionError(f"invalid JSON constant {constant}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["one_in_n"]["value"] is None
        assert doc["one_in_n"]["display"] == "1.46855e+358"
        assert doc["product"]["value"] == 0.0
        assert doc["product"]["display"] == "2.52201e-360"


    # C(N, r) with both margins past 2**63 is past what math.comb takes
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("mode", ["stratified", "collapsed"])
    def test_margins_past_the_comb_limit_are_exit_3(self, capsys, tmp_path, mode, fmt):
        path = tmp_path / "c20.csv"
        path.write_text(f"w,{10**19},1,1,{10**19}\n")
        code, out, err = run_cli(capsys, "fisher", "--input", str(path), "--mode", mode,
                                 "--format", fmt)
        assert (code, out) == (3, "")
        assert err == (f"error: margins draws {10**19 + 1} and successes {10**19 + 1} of "
                       f"population {2 * 10**19 + 2}: each margin m has min(m, population - m) "
                       f"past math.comb's limit of {sys.maxsize}\n")
        for command in ("analyze", "svg"):
            assert run_cli(capsys, command, "--input", str(path))[0] == 0


class TestBinomial:
    def test_derksen(self, capsys):
        code, out, _ = run_cli(capsys, "binomial", "--dataset", "derksen",
                               "--k-min", "3", "--k-max", "9")
        assert code == 0
        assert "86.9055" in out
        assert "0.0115067" in out

    def test_stratum_selection(self, capsys):
        code, out, _ = run_cli(capsys, "binomial", "--dataset", "original",
                               "--stratum", "RKZ2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"] == "RKZ2"
        assert doc["draws"] == 58

    def test_unknown_stratum(self, capsys):
        code, _, err = run_cli(capsys, "binomial", "--dataset", "original",
                               "--stratum", "XYZ")
        assert code == 2
        assert "XYZ" in err

    @pytest.mark.parametrize("tau, fraction", [
        ("1e-400", "1/1" + "0" * 400),                     # a float reads 0
        ("0.30000000000000001", "30000000000000001/100000000000000000"),   # a float reads 3/10
        ("1/3", "1/3"),
    ], ids=["1e-400", "0.30000000000000001", "1/3"])
    def test_tau_is_read_exactly(self, capsys, tau, fraction):
        code, out, _ = run_cli(capsys, "binomial", "--dataset", "derksen", "--tau", tau,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["tau"] == fraction

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_tau_past_the_int_digit_limit(self, capsys, fmt):
        # 1e-4300 reads as 1/10**4300, whose denominator str() refuses to write
        code, out, err = run_cli(capsys, "binomial", "--dataset", "shops", "--tau", "1e-4300",
                                 "--format", fmt)
        assert (code, err) == (0, "")
        assert "1/1" + "0" * 4300 in out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("tau", ["1e4300", "12e4299", "-1e4300"])
    def test_tau_past_the_int_digit_limit_outside_the_range(self, capsys, tau, fmt):
        # str() of the rational refuses its 4 301 digits; the message quotes the text
        code, out, err = run_cli(capsys, "binomial", "--dataset", "shops", f"--tau={tau}",
                                 "--format", fmt)
        assert (code, out, err) == (3, "", f"error: tau {tau} outside (0, 1]\n")

    @pytest.mark.parametrize("k_min, k_max", [("0", "3"), ("41", "45")])
    def test_observed_row_outside_the_range_on_big_rows(self, capsys, tmp_path, k_min, k_max):
        # 2 000 draws at 13/1533: the row at k_obs = 40 is over a divisor of
        # 1533**2000, past str()'s 4 300 digits; a range that leaves it out
        # writes the same two entries as the default range, which holds it
        path = tmp_path / "big.csv"
        path.write_text("w,40,1960,13,1520\n")
        docs = []
        for extra in ((), ("--k-min", k_min, "--k-max", k_max)):
            code, out, err = run_cli(capsys, "binomial", "--input", str(path),
                                     "--format", "json", *extra)
            assert (code, err) == (0, "")
            docs.append(json.loads(out))
        default, narrowed = docs
        assert len(narrowed["rows"]) < len(default["rows"])
        for key in ("tail_at_k_obs", "one_in_n"):
            assert json.dumps(narrowed[key]) == json.dumps(default[key])
        assert len(default["one_in_n"]["fraction"]) > 2 * 4300

    def test_tau_that_is_not_a_number_is_named(self, capsys):
        code, _, err = run_cli(capsys, "binomial", "--dataset", "derksen", "--tau", "nan")
        assert (code, err) == (3, "error: tau must be a rational number, got 'nan'\n")

    def test_half_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "binomial", "--dataset", "derksen", "--k-min", "3")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_draws_past_sys_maxsize_are_exit_3(self, capsys, tmp_path, fmt):
        # 10**19 + 1 draws: refused before d**n, which would not finish, so the
        # binomial run is a child process with a timeout
        path = tmp_path / "c20.csv"
        path.write_text(f"w,{10**19},1,1,{10**19}\n")
        proc = subprocess.run([sys.executable, "-m", "tabaudit", "binomial", "--input", str(path),
                               "--format", fmt], capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (f"error: draws {10**19 + 1} past {sys.maxsize} (sys.maxsize), "
                               "the most an exact binomial tail takes\n")
        # simulate refuses the same file first, for numpy's sampler
        code, out, err = run_cli(capsys, "simulate", "--input", str(path), "--format", fmt)
        assert (code, out) == (3, "")
        assert err == (f"error: draws {10**19 + 1} must be below 2**63 "
                       "for numpy's binomial sampler\n")


class TestSimpson:
    def test_shops(self, capsys):
        code, out, _ = run_cli(capsys, "simpson", "--dataset", "shops")
        assert code == 0
        assert "paradox: true" in out
        assert "5/4" in out and "49/81" in out

    def test_single_stratum_file(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("only,1,2,3,4\n")
        code, _, err = run_cli(capsys, "simpson", "--input", str(path))
        assert code == 3

    def test_duplicate_stratum_labels_exit_3(self, capsys, tmp_path):
        # one label twice would collapse into one JSON key and shadow --stratum
        path = tmp_path / "dup.csv"
        path.write_text("stratum,a,b,c,d\nward,1,2,3,4\nward,5,6,7,8\n")
        code, out, err = run_cli(capsys, "simpson", "--input", str(path), "--format", "json")
        assert (code, out) == (3, "")
        assert "duplicate stratum label 'ward'" in err


class TestReplicate:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "replicate")
        assert code == 0
        assert "all replication checks passed" in out

    def test_json_carries_verification(self, capsys):
        code, out, _ = run_cli(capsys, "replicate", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["passed"] is True
        assert doc["verification"]["failures"] == []

    def test_mutated_count_exits_4(self, capsys, monkeypatch):
        strata = list(datasets.EMBEDDED["derksen"].strata)
        rkz1 = strata[1][1]
        strata[1] = ("RKZ1", Table2x2(rkz1.a, rkz1.b + 1, rkz1.c, rkz1.d))
        monkeypatch.setitem(datasets.EMBEDDED, "derksen",
                            StratifiedTable(tuple(strata), name="derksen"))
        code, out, err = run_cli(capsys, "replicate")
        assert code == 4
        assert "REPLICATION MISMATCH" in out
        assert "replication check(s) failed" in err

    def test_figures_written(self, capsys, tmp_path):
        fig_dir = tmp_path / "figs"
        code, _, _ = run_cli(capsys, "replicate", "--figures", str(fig_dir))
        assert code == 0
        for name in ("original", "derksen", "shops"):
            content = (fig_dir / f"{name}.svg").read_text()
            assert content.startswith("<?xml")
        assert "area ratio 0.40897" in (fig_dir / "original.svg").read_text()

    def test_figures_are_the_svg_command_output(self, capsys, tmp_path):
        # one builder writes both: the caption quotes the svg document's displays
        run_cli(capsys, "replicate", "--figures", str(tmp_path))
        for name in ("original", "derksen", "shops"):
            code, out, _ = run_cli(capsys, "svg", "--dataset", name)
            assert code == 0
            assert (tmp_path / f"{name}.svg").read_text() == out
            code, out, _ = run_cli(capsys, "svg", "--dataset", name, "--format", "json")
            doc = json.loads(out)
            assert doc["caption"] == [
                f"correlation {doc['correlation']['display']}",
                f"area ratio {doc['area_ratio']['display']} "
                f"({doc['parallelogram_area']}/{doc['rect_area']})"]

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "replicate", "--format", "json")
        _, second, _ = run_cli(capsys, "replicate", "--format", "json")
        assert first == second

    def test_text_reads_the_json_document_alone(self, capsys):
        # every figure of the text report is read from the document, so the
        # JSON output alone renders the same text
        _, doc, _ = run_cli(capsys, "replicate", "--format", "json")
        code, text, _ = run_cli(capsys, "replicate")
        assert code == 0
        assert pipeline.report_text(json.loads(doc)) + "\nall replication checks passed\n" == text

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_text_report_built_only_for_text(self, capsys, monkeypatch, fmt):
        def refuse(doc):
            raise AssertionError("text report built for --format " + fmt)
        monkeypatch.setattr(pipeline, "report_text", refuse)
        code, out, _ = run_cli(capsys, "replicate", "--format", fmt)
        assert code == 0 and out


class TestSimulate:
    def test_smoke_with_log(self, capsys, tmp_path):
        log = tmp_path / "runs.csv"
        code, out, _ = run_cli(capsys, "simulate", "--dataset", "derksen",
                               "--trials", "2000", "--seed", "5", "--log", str(log),
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["model"] == "binomial"
        assert doc["threshold"] == 6
        assert doc["exact"]["display"] == "0.0115067"
        assert log.read_text().startswith("model,seed,trials,k,estimate,stderr")

    def test_hypergeometric_stratum(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--dataset", "original",
                               "--stratum", "RKZ2", "--model", "hypergeometric",
                               "--threshold", "5", "--trials", "2000", "--seed", "1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["population"] == 339
        assert doc["exact"]["display"] == "0.0715592"

    def test_binomial_threshold_above_draws(self, capsys):
        # derksen pooled: 203 draws, so no trial reaches 500 and the exact tail is 0
        code, out, _ = run_cli(capsys, "simulate", "--dataset", "derksen", "--trials", "2000",
                               "--threshold", "500", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["hits"], doc["exact"]["fraction"]) == (0, "0")

    def test_population_past_sampler_exit_3(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("w,1000000000,0,0,5\n")
        code, out, err = run_cli(capsys, "simulate", "--input", str(path),
                                 "--model", "hypergeometric", "--trials", "10")
        assert (code, out) == (3, "")
        assert "successes 1000000000 and population - successes 5 must each be below" in err

    def test_binomial_draws_past_sampler_exit_3(self, capsys, tmp_path):
        # refused when the spec is built, before the exact tail over 2**63 draws
        path = tmp_path / "huge.csv"
        path.write_text(f"w,{1 << 63},0,1,5\n")
        code, out, err = run_cli(capsys, "simulate", "--input", str(path), "--trials", "10")
        assert (code, out) == (3, "")
        assert f"draws {1 << 63} must be below 2**63 for numpy's binomial sampler" in err

    def test_binomial_without_comparison_shifts_exit_3(self, capsys, tmp_path):
        path = tmp_path / "alone.csv"
        path.write_text("w,1,2,0,0\n")
        code, out, err = run_cli(capsys, "simulate", "--input", str(path), "--trials", "10")
        assert (code, out) == (3, "")
        assert err == "error: comparison group has zero shifts; cannot form a null rate\n"

    def test_rate_past_the_digit_limit(self, capsys, tmp_path, digit_limit):
        # c = 10**4300 - 1 and d = c - 1: the null rate c / (c + d) is in lowest
        # terms, and its denominator 2 * 10**4300 - 3 has 4 301 digits
        path = tmp_path / "long.csv"
        path.write_text(f"w,1,2,{'9' * 4300},{'9' * 4299}8\n")
        code, out, err = run_cli(capsys, "simulate", "--input", str(path), "--trials", "10",
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["spec"]["rate"] == f"{'9' * 4300}/1{'9' * 4299}7"

    def test_deterministic(self, capsys):
        args = ("simulate", "--dataset", "shops", "--trials", "3000", "--seed", "9")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestSvgCommand:
    def test_caption_values(self, capsys):
        code, out, _ = run_cli(capsys, "svg", "--dataset", "original")
        assert code == 0
        assert "correlation 0.158169" in out
        assert "area ratio 0.40897 (18849/46089)" in out

    def test_derksen_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "svg", "--dataset", "derksen")
        assert code == 0
        assert "area ratio 0.185064 (6344/34280)" in out

    def test_out_file_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "svg", "--dataset", "original", "--out", str(a))
        run_cli(capsys, "svg", "--dataset", "original", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "svg", "--dataset", "shops", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["area_ratio"]["fraction"] == "1/8"
        assert doc["svg"].startswith("<?xml")

    # every format draws the caption, which quotes both areas: the first is
    # |a*d - b*c|, about 6 000 digits, and at det 0 the second, col1 * col2
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("cells, field", [
        (("9" * 3000, "8" * 3000 + "7", "8" * 3000, "9" * 3000 + "1"), "parallelogram_area"),
        (("9" * 3000,) * 4, "rect_area"),
    ], ids=["det", "margins"])
    def test_area_past_the_digit_limit(self, capsys, tmp_path, digit_limit, fmt, cells, field):
        path = tmp_path / "wide.csv"
        path.write_text(f"w,{','.join(cells)}\n")
        code, out, err = run_cli(capsys, "svg", "--input", str(path), "--format", fmt)
        assert (code, out) == (3, "")
        assert err == (f"error: {field}: an integer has more than {digit_limit} digits, "
                       "the limit of sys.get_int_max_str_digits()\n")

    def test_zero_area_exit_3(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("w,0,3,0,7\n")
        code, _, err = run_cli(capsys, "svg", "--input", str(path))
        assert code == 3
        assert "zero area" in err


class TestDiff:
    def test_original_vs_derksen(self, capsys):
        code, out, _ = run_cli(capsys, "diff", "original", "derksen")
        assert code == 0
        assert "JKZ" in out
        assert "suspect incident delta -8" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "diff", "original", "derksen", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jkz = next(s for s in doc["strata"] if s["stratum"] == "JKZ")
        assert jkz["cells"][0][0] == -4
        assert doc["total_delta"] == 0

    def test_self_diff(self, capsys):
        code, out, _ = run_cli(capsys, "diff", "shops", "shops", "--format", "json")
        assert code == 0
        assert json.loads(out)["total_delta"] == 0

    def test_path_operand(self, capsys, tmp_path):
        path = tmp_path / "variant.json"
        doc = datasets.to_json_dict(datasets.get("original"))
        doc["strata"][0]["counts"][0][0] = 9
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "diff", "original", str(path), "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["strata"][0]["cells"][0][0] == 1

    def test_unknown_operand(self, capsys):
        code, _, err = run_cli(capsys, "diff", "original", "missing-thing")
        assert code == 2
        assert "missing-thing" in err

    def test_label_mismatch_exit_3(self, capsys, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("elsewhere,1,2,3,4\n")
        code, _, err = run_cli(capsys, "diff", "original", str(path))
        assert code == 3


class TestEntryPoint:
    def test_internal_key_error_is_not_an_exit_code(self, monkeypatch):
        # only UnknownDatasetError is an input error; any other KeyError is a bug
        def broken(*args):
            raise KeyError("stratum")
        monkeypatch.setattr(pipeline, "fisher_pipeline", broken)
        with pytest.raises(KeyError, match="stratum"):
            main(["fisher", "--dataset", "shops"])

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tabaudit", "simpson", "--dataset", "shops"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "paradox: true" in proc.stdout

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_output_under_an_ascii_locale(self, tmp_path, to_file):
        # --out is UTF-8 whatever the locale; a stdout that cannot encode the
        # output is an output error, named with its encoding
        source, out = tmp_path / "zu.csv", tmp_path / "f.csv"
        source.write_text("W\u00e4rd,8,134,0,887\n", encoding="utf-8")
        argv = ["analyze", "--input", str(source), "--format", "csv"]
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        proc = subprocess.run([sys.executable, "-m", "tabaudit", *argv,
                               *(["--out", str(out)] if to_file else [])],
                              capture_output=True, env=env)
        if to_file:
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert "correlations.strata[0].stratum,W\u00e4rd\n" in out.read_text(encoding="utf-8")
        else:
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr.startswith(b"error: stdout's encoding, ascii, cannot write")

    def test_exact_paths_do_not_import_numpy(self):
        code = ("import contextlib, io, sys, tabaudit\n"
                "from tabaudit import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.main(['replicate', '--format', 'json']) == 0\n"
                "print([m for m in ('numpy', 'concurrent.futures') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_cli_import_loads_no_network_or_mail_modules(self):
        # xml.sax.saxutils, once used for SVG escaping, pulls in all four
        code = ("import sys\n"
                "import tabaudit.cli\n"
                "print([m for m in ('urllib.request', 'http.client', 'ssl', 'email')"
                " if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("first, second", [
        ("fisher --dataset original --mode collapsed", "fisher --dataset original"),
        ("binomial --dataset derksen --k-min 3 --k-max 5", "binomial --dataset derksen"),
        ("simulate --dataset shops --trials 5000 --seed 5",
         "simulate --dataset shops --trials 5000"),
    ])
    def test_shared_parser_keeps_no_state_between_calls(self, capsys, first, second):
        # the second call relies on the defaults the first one overrode
        for argv in (first, second):
            code, out, _ = run_cli(capsys, *argv.split())
            proc = subprocess.run([sys.executable, "-m", "tabaudit", *argv.split()],
                                  capture_output=True, text=True)
            assert code == proc.returncode == 0
            assert out == proc.stdout

    def test_module_invocation_error_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tabaudit", "analyze", "--dataset", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


# ---------------------------------------------------------------------------
# the CLI as one total function: every invocation the parser can be given
# exits 0, 2, 3 or 4, says why on stderr, and repeats byte for byte

_SUBCOMMANDS = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

#: --tau texts: in range, exact, past the int digit limit, and not numbers.
_TAU_TEXTS = ("0.05", "1", "0", "1/3", "1e-400", "1e-4300", "0.30000000000000001", "2",
              "1e4300", "12e4299", "-1e4300", "nan", "inf", "x", "1e999999999999999999999")


@st.composite
def _source_bytes(draw, suffix: str) -> bytes:
    """A dataset file: valid, corrupted, undecodable, or one all-zero table."""
    kind = draw(st.sampled_from(["valid", "corrupted", "undecodable", "zero"]))
    ds = draw(stratified_tables(max_strata=3))
    if kind == "zero":
        ds = StratifiedTable((("w", Table2x2(0, 0, 0, 0)),), name="zero")
    text = to_csv_text(ds) if suffix == ".csv" else json.dumps(datasets.to_json_dict(ds))
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    if kind == "corrupted":
        cut = draw(st.integers(0, 3))
        data = data[:at] + draw(st.binary(max_size=4)) + data[at + cut:]
    elif kind == "undecodable":
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def _invocations(draw, root: Path):
    """``(argv, source, data)``: a subcommand with options drawn from its
    parser's own actions, and the dataset file they may name with its bytes."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    suffix = draw(st.sampled_from([".csv", ".json"]))
    source = root / f"source{suffix}"
    paths = [str(root), str(root / "missing" / "x")]   # a directory, and no directory
    operands = st.sampled_from([*datasets.available(), str(source), "bogus"])
    numbers = st.integers(-3, 300).map(str) | st.sampled_from(["x", str(2**64)])
    values = {
        "tau": st.sampled_from(_TAU_TEXTS),
        "dataset": st.sampled_from([*datasets.available(), "bogus"]),
        "stratum": st.sampled_from(["JKZ", "RKZ1", "Shop1", "S0", "All", "nope"]),
        "input": st.just(str(source)),
        "first": operands, "second": operands,
        "out": st.sampled_from([str(root / "out.txt"), *paths]),
        "log": st.sampled_from([str(root / "log.csv"), *paths]),
        "figures": st.sampled_from([str(root / "figures"), str(source)]),
        "trials": st.integers(-2, 3000).map(str),
    }
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings and not draw(st.booleans()):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        if action.choices:
            value = st.sampled_from([*action.choices, "bogus"])
        else:
            value = values.get(action.dest, numbers)
        value = draw(value)   # "--tau=-1e4300": argparse reads "-1e4300" alone as an option
        argv.append(f"{action.option_strings[0]}={value}" if action.option_strings else value)
    return argv, source, draw(_source_bytes(suffix))


class TestCliProperty:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-property")

    def run(self, argv, out_file: Path):
        out, err = io.StringIO(), io.StringIO()
        out_file.unlink(missing_ok=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse refuses the invocation
                code = exc.code
        written = out_file.read_text() if out_file.exists() else None
        return code, out.getvalue(), err.getvalue(), written

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_invocation_exits_with_a_documented_code(self, root, data):
        argv, source, content = data.draw(_invocations(root), label="invocation")
        source.write_bytes(content)
        first = self.run(argv, root / "out.txt")
        code, out, err, written = first
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err and "Exceeds the limit" not in err
        if code == 0:
            assert err == ""
            if "--format=json" in argv:
                json.loads(out if written is None else written)
        else:
            assert err.startswith("usage: ") or (err.startswith("error: ")
                                                 and err.count("\n") == 1)
        assert self.run(argv, root / "out.txt") == first


# SHA-256 of the program's and each subcommand's --help at 80 columns, pinned
# at tabaudit 0.1.0: the parser's options, their order and their help texts.
HELP = {
    "tabaudit": "7a352f89b81061169f0510f15da5e915c4f0f20368130abad48d32b471501272",
    "analyze": "da6944acb507849e9e83eeef370fb3f8a365c75999c595620ab68749ed723794",
    "fisher": "16f052893ab8641f678058861be2bdbf865a863af5a0beab7c55fb80150fbf94",
    "binomial": "f79eaffd171cec2c7677e8a11efacdc0d0cd35bf98fc9685f1e53f52b292d3d8",
    "simpson": "5f23012575bda97291b0d844817b1fa445fb563958359826407519bfa270481a",
    "replicate": "4b91bd209225dfe704b31b7b89141b52c3e4cb97315143dee5b692bd8c042af0",
    "simulate": "8c9d23081f2a5c0eebccc8ef188869995ef77518f8c6a665395d20b0516ebdcb",
    "svg": "ef2057508429b7c67303adcff2d7ecc92f199154c0feedfa609bfb592c21d4f5",
    "diff": "aadcda1578026b2cc3332838bbdc1d02990123ae032cc04e1e917fd685983d96",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*([] if command == PROG else [command]), "--help"])
    assert exit_info.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP[command]


# ---------------------------------------------------------------------------
# Golden outputs: exit code and SHA-256 of stdout for every subcommand x format
# on the embedded datasets, pinned at tabaudit 0.1.0. A refactor of the report
# builders must leave every one of these byte-identical.

GOLDEN_ARGV = {
    **{f"{cmd}-{name}": f"{cmd} --dataset {name}"
       for cmd in ("analyze", "fisher", "binomial", "simpson", "svg")
       for name in ("original", "derksen", "shops")},
    **{f"simulate-{name}": f"simulate --dataset {name} --trials 5000 --seed 7"
       for name in ("original", "derksen", "shops")},
    "replicate": "replicate",
    "replicate-nurses": "replicate --nurses 5",
    "diff": "diff original derksen",
    "analyze-transpose": "analyze --dataset shops --transpose",
    "fisher-collapsed": "fisher --dataset original --mode collapsed --nurses 10",
    "binomial-stratum": "binomial --dataset derksen --stratum RKZ1 --k-min 0 --k-max 4 --tau 0.01",
    "simulate-hypergeometric": "simulate --dataset derksen --model hypergeometric --stratum JKZ "
                               "--trials 3000 --seed 3 --threshold 2",
    "svg-stratum": "svg --dataset original --stratum JKZ",
}

GOLDEN = {
    "analyze-original-text": (0, "097ee375fdd328dfa2a668b8d4b9b1e28516368549c19b348b167e67868651e7"),
    "analyze-original-json": (0, "c7bd8239a71e182055f277045038ccf58ddb9fee4814c07485fc0199a4c88875"),
    "analyze-original-csv": (0, "d84d813e38ec5bc7e89155307f7ac418fc7d13f63db3b5b74e19d1c0f58a79be"),
    "fisher-original-text": (0, "bef54fde7fd353d28ec8fe62a51d5e97802816b2ec515df3a65b3f45125ab472"),
    "fisher-original-json": (0, "f2a358f3d3679ca8f3d892663b52fdf9a0cc4a71b52777241b9d040381ff9adc"),
    "fisher-original-csv": (0, "9f3d0ea1f41df8e1a265684471dc59c4b7bb592dfc6500fd7a77a793a6116c60"),
    "binomial-original-text": (0, "bbd5358a6921117672ecda83ae9d3a872a3113fec3ad9d1b45a6281d51fc01a3"),
    "binomial-original-json": (0, "6e643b4639b6b4ffc95f7fcf7b90d57465c9f474e052c63614070f24eff59a2d"),
    "binomial-original-csv": (0, "f7a2f96d95a1951ddbf1f5a7267c817a7328dd16fa5319c58d09f66b3a9472a1"),
    "simpson-original-text": (0, "c6c8f67d0bb037c814f2aa5d9709c4364ce3e11cba20ba59c19edfe950c3cd51"),
    "simpson-original-json": (0, "7c4e42c00a47f51cd4aa59e236134a80892ed5f1fbb47db9892571153dde6578"),
    "simpson-original-csv": (0, "810478a2217585eaf64b9ad827ab6d8f83e8f2cf39be408cadef1be520729591"),
    "svg-original-text": (0, "07f59a409710c2869c1610e695d3777a0512e1948bc07302d369091e0a3f7da4"),
    "svg-original-json": (0, "2d737cde965a5cd2c89c9af5ac5fdae41706ed2036a433bab5ca0615dfda91a1"),
    "svg-original-csv": (0, "0b313cf1ae0c9be8555e711e3c807cb6effca5bdccf05ed0b2268cb22ded1f6c"),
    "simulate-original-text": (0, "4b857ab7d811d4552d5c847aeb53185458520548a63adc16beff69644298b25c"),
    "simulate-original-json": (0, "1121aefb302f2547a5bc1e524bd2b8f1c7ee8911328061d2e6f99045f2278544"),
    "simulate-original-csv": (0, "013f80dbef512d82392c3f40e672398bbadba018ec302d4b33271b94286141ee"),
    "analyze-derksen-text": (0, "e8b1b6dcb18012e73a2b0bba325e9266ec5e86d97fd4c5f109625d6ef7f4fbeb"),
    "analyze-derksen-json": (0, "0faae5171157dac4f1d96510e7258258facd85056239569fc18a1d3f2cb1b07f"),
    "analyze-derksen-csv": (0, "38560fd8531a667fd0dca9e9ff205f4f62a1104ce333d5437689debff2b9c6a4"),
    "fisher-derksen-text": (0, "a1c535919ee9fcbc179ad997152da392bff67935ff8a25cfe3d6ca7b271aca90"),
    "fisher-derksen-json": (0, "afaf67b0c760d805f0c3fb3fd835f0a7b2d5f22f1c9ade3e4b6fa29e6b834365"),
    "fisher-derksen-csv": (0, "dc66310a3cb639973716473a3369a2cbf608bb5b8a09065f616f6df2e3e8c578"),
    "binomial-derksen-text": (0, "8dae3d6983a6e245d8404e6a930cb8db7726963720d3a474f00e87a964ea59cf"),
    "binomial-derksen-json": (0, "1dfba002d915c328096185cf5e2fd100e3b48155aacfb0389f80b81135a4a5bf"),
    "binomial-derksen-csv": (0, "2ec355614471b2e8c23a06fb0dba33cc2e8265cdca88156536037b37f4190089"),
    "simpson-derksen-text": (0, "7ae9ee60fa20a13f4c3757357c0a377fef68bbc84099a445fd1bce845ce01237"),
    "simpson-derksen-json": (0, "02a9eeeea3a5b0ed889061376741da0c0b8d37a980915f948747ef56583e6a66"),
    "simpson-derksen-csv": (0, "b197337ec402c50afb0446703e0898cc154e97228ddc1d69f184d58dca49b4db"),
    "svg-derksen-text": (0, "3f0b0e5d875b7c4c77e941d416c980185ce675bc21f06d2f6e79f465e1fc7c93"),
    "svg-derksen-json": (0, "2a61d8a69e8597ee9680120658c49dc51dd6b3f019c682dea043df41ba82e87c"),
    "svg-derksen-csv": (0, "cc05e14f5e3379b0b3a6b74b8b1e8b2d1d6abebb1a172c7ed131e436a516ffb0"),
    "simulate-derksen-text": (0, "7cc80fef81ca62692636199574c9d5b1a6fde879e54cfa1021bee847ecf109ae"),
    "simulate-derksen-json": (0, "9543ecdf9a341acf8ce38a903ec1634993ea8bd7034c9ace5473af64d79fdd54"),
    "simulate-derksen-csv": (0, "33a930f681ff41bb0a3bcd02b13ce6da70d42e6c7cc07af44c795f22c986ab62"),
    "analyze-shops-text": (0, "9556b6ae853a55484011a486fca34f9dce8568730e29d2bb948118d08cdc8bd6"),
    "analyze-shops-json": (0, "9c3515fa915eeb2a96b9436a8659aaef35afa7571c0cae60ce761a22b0d7bcbd"),
    "analyze-shops-csv": (0, "c2e1b820aedeae17fc568ee39d07855ffc0bc741a28a9c78dc7558e29453d8f5"),
    "fisher-shops-text": (0, "66fa1e2ef395850231f17b06a5488f6bad420a134683165a33cd70982f4f5c4c"),
    "fisher-shops-json": (0, "111c985ef4b20a86ca48d6f084741007e95f2f0c95f8077e6c498ac9363a27ea"),
    "fisher-shops-csv": (0, "610177ed8c34ed623f2fd9331a1c305f8744181e64836d797695b3d185c0292f"),
    "binomial-shops-text": (0, "929c31cbb2eadfc724ff5475a55bcea07aa1e934194d327a346da5873a6d23d7"),
    "binomial-shops-json": (0, "8888a8703134e812f70d97539437400c98342456c59ccb8ac720c13c3fb01326"),
    "binomial-shops-csv": (0, "dc014d0ccd5b6580221d9e28e9dcc072e282c005c529f90c1c173528ccdb2683"),
    "simpson-shops-text": (0, "b3e7fab42b72b7202729afc8ddd99ba08a5173b9ae2d754135cf64161c769769"),
    "simpson-shops-json": (0, "225d075d2d4c0c0117e63c393326494275fa6b2164d98544e3229bfc613407fa"),
    "simpson-shops-csv": (0, "cd80316bf25ec1eb7d60c9ab89db9c5001af526f5e04f14584e3f6d15eda07dd"),
    "svg-shops-text": (0, "821825ba4ec459dab7e1f49b4c81be44240c86ec41b99efb0725c1adb0c3745b"),
    "svg-shops-json": (0, "74d23ad0f3959f5cfca9b6ac6c0c3e9be973defbd519faae602f26d7cfff9929"),
    "svg-shops-csv": (0, "ecc98237aa8c9c62cac50ea3058403d8ff2c724e45ac52705048ad1cd30576cc"),
    "simulate-shops-text": (0, "ebb69ace92b9e6caf869651982b4d97371f315fd607b11cb4cf0a208f1403377"),
    "simulate-shops-json": (0, "6e2f2b5c90c5aae55e4427ca30f62f6e5725e10a21118f4032dc76e3a505faed"),
    "simulate-shops-csv": (0, "ff4b801fecf38fdd26d3451a1b7afc3d2b80a4031a27d8147149568c110d7903"),
    "replicate-text": (0, "b5b33636ea850ce88d9702291910c98666470faa96250f8c6e7b959e0edee278"),
    "replicate-json": (0, "a958bc8bc1bed45fdf53ac7ff8170669692f8c6f381e9c903fc9606fbab177b2"),
    "replicate-csv": (0, "038fc19a5336cf2aad5a0b70d6025d3db7ba4c1fee35fa82afa89049c71b31c3"),
    "replicate-nurses-text": (4, "3499ef7c9511627716b87d8fd7ea58c27e83df02183739e3af842af67a1aa900"),
    "replicate-nurses-json": (4, "47fa9cc8227c48c8d0c85730e475ba897afe5d7f0bb0c1a19425afeeb630383f"),
    "replicate-nurses-csv": (4, "cff9a4f60cd3e8bafbf68b5520ee5a3417f4576d6a838321680018461961ab2b"),
    "diff-text": (0, "58cd7a22b82f650cc7d711adb7ef0eece3f0d85ed5b7f0633a86f6d8bf865b9b"),
    "diff-json": (0, "21e99ca5f82018579f1d72524fa2e2a954e45360e07220907edce3380baa187b"),
    "diff-csv": (0, "356863183dfa778854fdbf4aa50dccccc866647853e4530b9f6b347061adc515"),
    "analyze-transpose-text": (0, "e7c4f3753c932825e42fed49d5807893278fcfaccd420abaf86072701c06afa2"),
    "analyze-transpose-json": (0, "eefcd260bfd329233e12e3a67b195f61fbaf18cf50e5eb6bd4c2ae096b1d8f6d"),
    "analyze-transpose-csv": (0, "40769eabf710d48462fdd87906a95580d3b5bdcdea6efa3c5254bdf5a7ceefef"),
    "fisher-collapsed-text": (0, "a65ab2feea696f9e2fc926c2a9eb7594bcb479333c93af268524fc9fe70c16c8"),
    "fisher-collapsed-json": (0, "ce2ffb213a98aed6227ce661a7a886b89c1e99f37a44756e4bffa1d1ecbce746"),
    "fisher-collapsed-csv": (0, "e8ea2fdc507d3451f6678bcf8f862242751a5494ce6d4f73f7574438f99a90fd"),
    "binomial-stratum-text": (0, "5e6ef857c3febab39be2ba86fa488ec8467315b3d6e5d8086f7985a3cabbfdc6"),
    "binomial-stratum-json": (0, "aad7eeb9e4843b0431bc29d392a455768de502e3812402a2fdfcedc42b75c853"),
    "binomial-stratum-csv": (0, "fd22bddffcf01c82b5b36e7b1051f79ee1c243979da74f93b7ff45114d19fc66"),
    "simulate-hypergeometric-text": (0, "36f283577e4c384b7e4955667f31a8f53a4a9dc64b7d9363a1285691c8b037ae"),
    "simulate-hypergeometric-json": (0, "3efc861a78395919021f94dbdf5670e9ac6faf822e6f4c00f9b36c1935737614"),
    "simulate-hypergeometric-csv": (0, "f8787713a1aeff498b94e0cc4d1cba30210cddf90188d26459f4a1baf4db0113"),
    "svg-stratum-text": (0, "f5bab992f7ef76edd48ecd5f6851a2cfba6bbf1ed9110c59384786d77cbc0176"),
    "svg-stratum-json": (0, "fd67f923ba1012b7d787ed54e4007b059dd5a52c9acef30d3c28e8ed1b853f3b"),
    "svg-stratum-csv": (0, "0b1b6354414f1c0bce3778cc9b417d16b88aa4921511f9b889ef3d72b2b67223"),
}

GOLDEN_FIGURES = "a5496bf4a45bfd36fa876312eba80f63874c8ab0554d9c997a8f5a0a71fc5c18"


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_stdout(capsys, case):
    name, fmt = case.rsplit("-", 1)
    code, out, _ = run_cli(capsys, *GOLDEN_ARGV[name].split(), "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case]


def test_golden_figures(capsys, tmp_path):
    assert run_cli(capsys, "replicate", "--figures", str(tmp_path))[0] == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_FIGURES
