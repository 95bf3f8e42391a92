"""CLI surface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from tabaudit import datasets
from tabaudit.cli import main
from tabaudit.tables import StratifiedTable, Table2x2


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

    def test_negative_count_is_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "neg.csv"
        bad.write_text("w1,1,-2,3,4\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 3
        assert "negative" in err

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

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "wards.csv"
        path.write_text(datasets.to_csv_text(datasets.get("original")))
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

    def test_half_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "binomial", "--dataset", "derksen", "--k-min", "3")
        assert code == 2


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

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "replicate", "--format", "json")
        _, second, _ = run_cli(capsys, "replicate", "--format", "json")
        assert first == second


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
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tabaudit", "simpson", "--dataset", "shops"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "paradox: true" in proc.stdout

    def test_module_invocation_error_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tabaudit", "analyze", "--dataset", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


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
    "simulate-derksen-text": (0, "f51830390be3752867b9722b7f03c555f4be343bfde46f8313ae796433b885e8"),
    "simulate-derksen-json": (0, "5c6372d589f174ea8f778ea9a06ff33bbd9faf16655c725d554d5a249c24414d"),
    "simulate-derksen-csv": (0, "0e8f298c1560b577eff38790defd5724a0dd7f9ad5fa43e08cb6ac49b456d838"),
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
    "simulate-shops-text": (0, "5838853d366bf70d6c4dddce43bebb8df023fa1d92abe2909c08b86f5b951f5b"),
    "simulate-shops-json": (0, "7abb4c30938b37cbd4609320310ab97278c43465221cfdcd99626855035466c5"),
    "simulate-shops-csv": (0, "ff3dee8f89ecc9d63fa3b9b1945094c534bd4ba84f0e070f78609b5a9a611dc6"),
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
    "simulate-hypergeometric-text": (0, "e0269e1a1d36f09ce237c72a531242f279387903597a5b2a4d3aee3752e042dd"),
    "simulate-hypergeometric-json": (0, "13fa65b2749f967e079c3b5974a25aa24455a2d70661a47006874287abad121d"),
    "simulate-hypergeometric-csv": (0, "cac574f87fc0c6bae359663f2b36b71616807e5732ebcae98c5ec6538ef9a9fd"),
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
