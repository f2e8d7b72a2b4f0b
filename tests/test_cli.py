import json
import subprocess
import sys
from pathlib import Path

import pytest

from pfo.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_parse_json_summary(self, capsys):
        code, out, _ = run_cli(
            ["parse", str(CORPUS / "eddsa.pfo"), "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert "main" in doc["functions"]
        assert doc["secrets"] == ["k"]

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pfo"
        bad.write_text("fn main() { x = ; }")
        code, _, err = run_cli(["parse", str(bad)], capsys)
        assert code == 2
        assert "bad.pfo:1:" in err

    def test_analyze_emits_tree(self, capsys):
        code, out, _ = run_cli(["analyze", str(CORPUS / "foo.pfo")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["paths"] == 3
        assert not doc["balanced"]

    def test_analyze_dot_output(self, tmp_path, capsys):
        dot = tmp_path / "tree.dot"
        code, _, _ = run_cli(
            ["analyze", str(CORPUS / "foo.pfo"), "--dot", str(dot), "--balance"],
            capsys,
        )
        assert code == 0
        assert "digraph" in dot.read_text()

    def test_simulate_json(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--program", str(CORPUS / "eddsa.pfo"),
             "--secret", "k=0x1A3E0946", "--model", "pigeonhole", "--json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["faults"] == len(doc["profile"]) > 0
        assert doc["outputs"]["rx"] >= 0

    def test_simulate_infinite_model_empty_profile(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--program", str(CORPUS / "eddsa.pfo"),
             "--secret", "k=5", "--model", "infinite"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["profile"] == []

    def test_usage_error_bad_binding(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--program", str(CORPUS / "eddsa.pfo"),
             "--secret", "k:5"],
            capsys,
        )
        assert code == 2


class TestTransformVerify:
    def test_transform_writes_plan(self, tmp_path, capsys):
        out = tmp_path / "out.pfo"
        code, _, err = run_cli(
            ["transform", str(CORPUS / "aes.pfo"), "-o", str(out),
             "--opt", "O1,O2"],
            capsys,
        )
        assert code == 0
        assert out.exists()
        plan = json.loads((tmp_path / "out.pfo.plan.json").read_text())
        assert plan["mode"] in ("basic", "compacted")
        assert plan["pipeline"]["opts"] == ["O1", "O2"]

    def test_transform_applies_o2(self, tmp_path, capsys):
        plans = {}
        for opt in ("O1", "O1,O2"):
            out = tmp_path / f"{opt.replace(',', '_')}.pfo"
            code, _, _ = run_cli(
                ["transform", str(CORPUS / "aes.pfo"), "-o", str(out), "--opt", opt],
                capsys,
            )
            assert code == 0
            plans[opt] = json.loads(Path(f"{out}.plan.json").read_text())
            del plans[opt]["pipeline"]
        assert plans["O1"] != plans["O1,O2"]

    @pytest.mark.parametrize("opt", ["O3A", "O3B", "O4", "O1,O4"])
    def test_transform_rejects_passes_it_does_not_apply(self, tmp_path, opt, capsys):
        out = tmp_path / "out.pfo"
        code, _, err = run_cli(
            ["transform", str(CORPUS / "aes.pfo"), "-o", str(out), "--opt", opt],
            capsys,
        )
        assert code == 2
        assert opt.split(",")[-1] in err
        assert not out.exists()

    def test_verify_vanilla_toy_fails_with_counterexample(self, tmp_path, capsys):
        toy = tmp_path / "toy.pfo"
        toy.write_text("""
#pragma page_size 16
#pragma place data t 1 0
secret int<3> s;
output int y;
int t[8] = {1,2,3,4,5,6,7,8};
fn main() {
  y = t[s];
}
""")
        code, out, _ = run_cli(["verify", "--program", str(toy)], capsys)
        assert code == 1
        doc = json.loads(out)
        assert not doc["oblivious"]
        assert doc["counterexample"]["first"] == {"s": 0}
        assert doc["counterexample"]["second"] == {"s": 4}
        assert doc["counterexample"]["divergence_index"] == 1

    def test_verify_transformed_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["verify", "--program", str(CORPUS / "aes.pfo"), "--transformed",
             "--sample", "20"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["oblivious"]

    def test_leak_report(self, tmp_path, capsys):
        toy = tmp_path / "toy.pfo"
        toy.write_text("""
#pragma page_size 16
#pragma place data t 1 0
secret int<3> s;
output int y;
int t[8] = {1,2,3,4,5,6,7,8};
fn main() {
  y = t[s];
}
""")
        code, out, _ = run_cli(["leak", "--program", str(toy)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"] == 2
        assert abs(doc["mutual_information_bits"] - 1.0) < 1e-6


class TestAttackAndContract:
    def test_attack_eddsa_exact(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--oracle", "eddsa",
             "--program", str(CORPUS / "eddsa.pfo"),
             "--secret", "k=0xDEADBEEF"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True
        assert doc["recovered"] == 0xDEADBEEF

    def test_attack_powm_exact(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--oracle", "powm",
             "--program", str(CORPUS / "powm_sw.pfo"),
             "--secret", "d=0b100111"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["exact"] is True

    def test_contract_honest_and_steal(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["contract", "--program", str(CORPUS / "powm.pfo"),
             "--policy", "fake", "--strategy", "honest", "--secret", "d=5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bucket"] == "21 + 1"
        term = doc["observable"]["termination_step"]

        code, out, _ = run_cli(
            ["contract", "--program", str(CORPUS / "powm.pfo"),
             "--policy", "fake", "--strategy", "steal:2@10", "--secret", "d=5"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["observable"]["termination_step"] == term


class TestCorpusSuites:
    def test_attacks_suite_markdown(self, capsys):
        code, out, _ = run_cli(
            ["corpus", "attacks", "--sample", "4"], capsys
        )
        assert code == 0
        assert "| Case |" in out
        assert "| eddsa | 512 | 512 | 100.00 |" in out

    def test_defenses_suite_json(self, capsys):
        code, out, _ = run_cli(
            ["corpus", "defenses", "--sample", "5", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        aes = next(r for r in doc["rows"] if r["case"] == "aes")
        assert aes["copy_ops"] == 2

    def test_unknown_suite_usage_error(self, capsys):
        code, _, err = run_cli(["corpus", "nope"], capsys)
        assert code == 2

    def test_deterministic_reports(self, capsys):
        _, out1, _ = run_cli(
            ["corpus", "attacks", "--sample", "3", "--seed", "9", "--json"], capsys
        )
        _, out2, _ = run_cli(
            ["corpus", "attacks", "--sample", "3", "--seed", "9", "--json"], capsys
        )
        assert out1 == out2


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "pfo.cli", "parse",
             str(CORPUS / "foo.pfo"), "--json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["functions"]
