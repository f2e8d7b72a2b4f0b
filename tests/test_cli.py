import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfo.cli import main
from pfo.interp import AstExecutable
from pfo.lang import parse
from pfo.optimize import build_defense
from pfo.reports import markdown_table

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SRC = Path(__file__).resolve().parent.parent / "src"


# `shared` is called from both arms' callees: O3B clones it per caller
SHARED_CALLEE = """
secret int<1> s;
output int y;
fn shared(v) { return v + 10; }
fn left(v) { return shared(v) + 1; }
fn right(v) { return shared(v) + 2; }
fn main() {
  #pragma begin_pf_sensitive
  if (s == 1) { y = left(5); } else { y = right(5); }
  #pragma end_pf_sensitive
}
"""


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

    def test_analyze_long_while(self, tmp_path, capsys):
        # one nested conditional per trip: building the tree must not recurse
        src = tmp_path / "loop.pfo"
        src.write_text("secret int<4> s;\noutput int y;\n"
                       "fn main() { y = s; while (y > 0) bound 1000 { y = y - 1; } }\n")
        code, out, err = run_cli(["analyze", str(src)], capsys)
        assert code == 0, err
        # each trip's exit, and the test after the last trip's two arms
        assert json.loads(out)["paths"] == 1002

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

    # `w` is 2^20000, whose decimal has more than the 4300 digits Python
    # writes by default: the output prints, and the index traps
    @pytest.mark.parametrize("body", ["y = w;", "y = t[w];"], ids=["output", "index"])
    def test_huge_values_print(self, body, tmp_path, capsys):
        path = tmp_path / "huge.pfo"
        path.write_text("public int<65536> w;\nint t[4] = {1, 2, 3, 4};\noutput int y;\n"
                        f"fn main() {{ {body} }}\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        before = limit()
        code, out, err = run_cli(["simulate", "--program", str(path),
                                  "--public", "w=0x1" + "0" * 5000], capsys)
        assert code == 0, err
        # the command lifts the limit on decimal digits for its run only
        assert limit() == before
        doc = json.loads(out, parse_int=str)
        if body == "y = w;":
            digits = doc["outputs"]["y"]
            assert len(digits) == 6021 and int(digits[-8:]) == (1 << 20000) % 10 ** 8
        else:
            assert doc["trap"]["kind"] == "index-oob"
            assert doc["trap"]["detail"] == f"t[{1 << 20000:#x}]"

    def test_usage_error_bad_binding(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--program", str(CORPUS / "eddsa.pfo"),
             "--secret", "k:5"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("bindings, message", [
        (["--secret", "x=1"], "secret 'y' not bound"),
        (["--secret", "x=256", "--secret", "y=0"], "secret 'x' must be in [0, 2^8), got 256"),
        (["--secret", "x=1", "--secret", "y=1", "--secret", "q=3"],
         "unknown secret inputs: ['q']"),
        (["--secret", "x=1", "--secret", "y=1", "--public", "p=3"],
         "unknown public inputs: ['p']"),
    ], ids=["missing", "out-of-range", "unknown-secret", "unknown-public"])
    def test_bad_input_binding_names_the_input(self, bindings, message, capsys):
        code, _, err = run_cli(
            ["simulate", "--program", str(CORPUS / "foo.pfo"), *bindings], capsys)
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("pragma, flag, code, message", [
        ("#pragma page_size abc\n", [], 2, "malformed page_size pragma"),
        ("#pragma page_size 0\n", [], 1, "got 0"),
        ("", ["--page-size", "0"], 1, "got 0"),
    ], ids=["pragma-not-a-number", "pragma-zero", "flag-zero"])
    def test_page_size_is_used_or_rejected(self, pragma, flag, code, message,
                                           tmp_path, capsys):
        path = tmp_path / "p.pfo"
        path.write_text(pragma + "secret int<2> k;\noutput int y;\n"
                        "fn main() { y = k + 1; }\n")
        got, out, err = run_cli(
            ["simulate", "--program", str(path), "--secret", "k=1"] + flag, capsys
        )
        assert (got, out) == (code, "")
        assert message in err

    @pytest.mark.parametrize("mode", [[], ["--transformed"]], ids=["vanilla", "transformed"])
    def test_page_size_flag_overrides_pragma(self, mode, tmp_path, capsys):
        # `unused` pushes the table past the first 64-byte code page
        source = """#pragma page_size {ps}
secret int<4> k;
output int y;
int t[16];
fn unused(a) {{
  b = a + 1; b = b + 2; b = b + 3; b = b + 4; b = b + 5;
  b = b + 6; b = b + 7; b = b + 8; b = b + 9; b = b + 10;
  return b;
}}
fn main() {{
  #pragma begin_pf_sensitive
  y = t[k];
  #pragma end_pf_sensitive
}}
"""
        profiles = {}
        for ps, flag in ((4096, []), (4096, ["--page-size", "64"]), (64, [])):
            path = tmp_path / f"p{ps}.pfo"
            path.write_text(source.format(ps=ps))
            code, out, _ = run_cli(
                ["simulate", "--program", str(path), "--secret", "k=3"] + flag + mode,
                capsys,
            )
            assert code == 0
            profiles[ps, bool(flag)] = json.loads(out)["profile"]
        assert profiles[4096, True] == profiles[64, False] != profiles[4096, False]


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

    def test_transform_records_what_the_pipeline_did(self, tmp_path, capsys):
        # O4 declines on foo, so its code stays staged: the document says so
        out = tmp_path / "foo.pfo"
        code, _, _ = run_cli(
            ["transform", str(CORPUS / "foo.pfo"), "-o", str(out), "--opt", "O4"],
            capsys,
        )
        assert code == 0
        plan = json.loads((tmp_path / "foo.pfo.plan.json").read_text())
        assert plan["pipeline"] == {
            "mux": "basic", "opts": ["O4"], "applied": [],
            "notes": ["O4 declined: level 3, BB3 and BB5 fault differently"],
        }
        assert any(c["kind"] == "code" for lv in plan["levels"] for c in lv["fetch"])

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

    def test_transform_o2_output_carries_its_pins(self, tmp_path, capsys):
        # the written program lays its data out where the O1+O2 build does,
        # built again with no pass
        out = tmp_path / "aes.pfo"
        code, _, _ = run_cli(
            ["transform", str(CORPUS / "aes.pfo"), "-o", str(out), "--opt", "O1,O2"],
            capsys,
        )
        assert code == 0
        o2 = build_defense(parse((CORPUS / "aes.pfo").read_text()), ("O1", "O2"))
        again = build_defense(parse(out.read_text()))
        assert again.source_layout.data_map == o2.source_layout.data_map

    @pytest.mark.parametrize("opt", ["O3A", "O3B", "O4"])
    def test_transform_applies_each_pass(self, tmp_path, opt, capsys):
        shared = tmp_path / "shared.pfo"
        shared.write_text(SHARED_CALLEE)
        path = {"O3A": CORPUS / "foo.pfo", "O3B": shared, "O4": CORPUS / "aes.pfo"}[opt]
        written = {}
        for flags in ([], ["--opt", opt]):
            out = tmp_path / f"out{len(flags)}.pfo"
            code, _, _ = run_cli(["transform", str(path), "-o", str(out)] + flags, capsys)
            assert code == 0
            plan = json.loads(Path(f"{out}.plan.json").read_text())
            written[bool(flags)] = out.read_text(), plan
        (plain_src, plain), (opt_src, opted) = written[False], written[True]
        if opt == "O3A":
            assert len(opted["levels"]) < len(plain["levels"])
        elif opt == "O3B":
            assert "__for_" not in plain_src
            assert "shared__for_left" in opt_src and "shared__for_right" in opt_src
        else:
            def code_fetches(plan):
                return [c for lv in plan["levels"] for c in lv["fetch"]
                        if c["kind"] == "code"]
            assert code_fetches(plain) and not code_fetches(opted)

    def test_tree_mode_rejects_code_outside_region(self, tmp_path, capsys):
        path = tmp_path / "outside.pfo"
        path.write_text(
            "secret int<2> k;\n"
            "output int y;\n"
            "output int z;\n"
            "fn main() {\n"
            "  y = k + 5;\n"
            "  #pragma begin_pf_sensitive\n"
            "  if (k == 2) { z = y + 1; } else { z = y - 1; }\n"
            "  #pragma end_pf_sensitive\n"
            "  y = y * 2;\n"
            "}\n"
        )
        simulate = ["simulate", "--program", str(path), "--secret", "k=2"]
        code, out, _ = run_cli(simulate, capsys)
        assert code == 0
        assert json.loads(out)["outputs"] == {"y": 14, "z": 8}
        for argv in (simulate, ["verify", "--program", str(path)]):
            code, out, err = run_cli(argv + ["--transformed"], capsys)
            assert code == 1
            assert out == ""
            assert "line 5: tree mode runs only the sensitive region" in err

    @pytest.mark.parametrize("else_body", ["", " else { z = 3; }"],
                             ids=["converted", "declined"])
    def test_if_conversion_keeps_positions(self, tmp_path, capsys, else_body):
        # O5 converts the first `if` (or declines it, its arms writing
        # different scalars); either way the rejected statement keeps its line
        path = tmp_path / "outside.pfo"
        path.write_text(
            "secret int<2> k;\n"
            "public int<2> p;\n"
            "output int y;\n"
            "fn main() {\n"
            f"  if (p == 1) {{ y = 2; }}{else_body}\n"
            "  #pragma begin_pf_sensitive\n"
            "  if (k == 2) { y = 3; } else { y = 4; }\n"
            "  #pragma end_pf_sensitive\n"
            "}\n"
        )
        for opts in ([], ["--opt", "O5"], ["--opt", "all"]):
            code, _, err = run_cli(
                ["transform", str(path), "-o", str(tmp_path / "o.json"), *opts], capsys)
            assert code == 1
            assert "line 5: tree mode runs only the sensitive region" in err, opts

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

    def test_attack_table_gives_the_vanilla_profile(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--oracle", "table", "--program", str(CORPUS / "aes.pfo"),
             "--secret", "k=0x1234", "--public", "p=7"],
            capsys,
        )
        assert code == 0
        program = parse((CORPUS / "aes.pfo").read_text())
        profile = AstExecutable(program).run(secret={"k": 0x1234}, public={"p": 7}).profile
        assert json.loads(out) == {"oracle": "table", "profile": list(profile)}

    def test_attack_powm_window_reports_runs(self, capsys):
        code, out, _ = run_cli(
            ["attack", "--oracle", "powm", "--program", str(CORPUS / "powm_sw.pfo"),
             "--secret", "d=0b100111", "--window", "4"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["oracle"], doc["window"]) == ("powm", 4)
        assert 0 < doc["known_fraction"] <= 1
        assert doc["runs"] and "exact" not in doc

    @pytest.mark.parametrize("oracle, name", [("eddsa", "k"), ("powm", "d")])
    def test_attack_that_misses_the_key_exits_1(self, oracle, name, tmp_path, capsys):
        # the key never reaches a page, so the attack recovers nothing
        path = tmp_path / "quiet.pfo"
        path.write_text(f"secret int<8> {name};\noutput int y;\nfn main() {{ y = {name}; }}\n")
        code, out, _ = run_cli(
            ["attack", "--oracle", oracle, "--program", str(path), "--secret", f"{name}=5"],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["exact"] is False and doc["recovered"] == 0

    def test_missing_program_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.pfo")
        code, out, err = run_cli(
            ["attack", "--oracle", "eddsa", "--program", missing, "--secret", "k=5"], capsys
        )
        assert code == 2
        assert out == ""
        assert "No such file" in err and missing in err

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

    @pytest.mark.parametrize("extra, flag", [
        (["--sweep", "--strategy", "steal:2@10"], "--strategy"),
        (["--sweep", "--secret", "d=5"], "--secret"),
        (["--sweep", "--sample", "0"], "--sample"),
        (["--sample", "8"], "--sample"),
        (["--strategy", "steal:abc@1"], "--strategy"),
        (["--strategy", "steal:1@x"], "--strategy"),
    ])
    def test_contract_rejects_ignored_flags(self, extra, flag, capsys):
        code, out, err = run_cli(
            ["contract", "--program", str(CORPUS / "powm.pfo")] + extra, capsys
        )
        assert code == 2
        assert out == ""
        assert flag in err


FOO = str(CORPUS / "foo.pfo")


@pytest.mark.parametrize("argv, flag", [
    (["parse", FOO, "--page-size", "64"], "--page-size"),
    (["parse", FOO, "--seed", "3"], "--seed"),
    (["analyze", FOO, "--page-size", "64"], "--page-size"),
    (["analyze", FOO, "--seed", "3"], "--seed"),
    (["transform", FOO, "-o", "{tmp}/foo.pfo", "--out", "{tmp}/report"], "--out"),
    (["transform", FOO, "-o", "{tmp}/foo.pfo", "--mux", "basic"], "--mux"),
    (["transform", FOO, "-o", "{tmp}/foo.pfo", "--opt", "O4", "--seed", "5"], "--seed"),
    (["simulate", "--program", FOO, "--secret", "x=1", "--secret", "y=2",
      "--seed", "9"], "--seed"),
    (["attack", "--oracle", "table", "--program", FOO, "--secret", "x=1",
      "--secret", "y=2", "--seed", "4"], "--seed"),
    (["attack", "--oracle", "eddsa", "--program", str(CORPUS / "eddsa.pfo"),
      "--secret", "k=5", "--window", "7"], "--window"),
    (["attack", "--oracle", "table", "--program", FOO, "--secret", "x=1",
      "--secret", "y=2", "--window", "1"], "--window"),
    (["corpus", "attacks", "--sample", "2", "--page-size", "64"], "--page-size"),
    (["verify", "--program", FOO, "--exhaustive-limit", "5"], "--exhaustive-limit"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flag_that_would_be_ignored_is_rejected(argv, flag, tmp_path, capsys):
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["corpus", "attacks", "--sample", "0"],
    ["corpus", "contracts", "--sample", "-1"],
    ["verify", "--program", FOO, "--sample", "0"],
    ["leak", "--program", FOO, "--sample", "0"],
], ids=lambda v: v[0] if v[0] != "corpus" else f"corpus-{v[1]}")
def test_sample_below_one_is_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "--sample must be at least 1" in err


@pytest.mark.parametrize("command", ["verify", "leak"])
def test_seed_without_sample_is_rejected(command, capsys):
    # without --sample the domain is enumerated, so a seed would be ignored
    code, out, err = run_cli([command, "--program", FOO, "--seed", "7"], capsys)
    assert code == 2
    assert out == ""
    assert "--seed needs --sample" in err


@pytest.mark.parametrize("window", ["-2", "0"])
def test_window_below_one_is_rejected(window, capsys):
    code, out, err = run_cli(
        ["attack", "--oracle", "powm", "--program", str(CORPUS / "powm_sw.pfo"),
         "--secret", "d=5", "--window", window], capsys
    )
    assert code == 2
    assert out == ""
    assert "--window must be at least 1" in err


class TestCorpusSuites:
    def test_attacks_suite_with_one_sample(self, capsys):
        # every powm row still runs one exponent
        code, out, _ = run_cli(["corpus", "attacks", "--sample", "1", "--json"], capsys)
        assert code == 0
        samples = {r["case"]: r.get("samples") for r in json.loads(out)["rows"]}
        assert samples["eddsa"] == samples["powm"] == samples["powm_w4"] == 1

    def test_contracts_suite_with_two_samples(self, capsys):
        # at seed 0 the two aes secrets share one access schedule, so no
        # steal can separate them: a missing oracle is then no failure
        code, out, _ = run_cli(["corpus", "contracts", "--sample", "2", "--json"], capsys)
        assert code == 0
        rows = {r["case"]: r for r in json.loads(out)["rows"]}
        assert rows["aes"]["naive_secret_oracle"] is False
        assert rows["powm"]["naive_secret_oracle"] is True

    def test_attacks_suite_markdown(self, capsys):
        code, out, _ = run_cli(
            ["corpus", "attacks", "--sample", "4"], capsys
        )
        assert code == 0
        assert "| Case |" in out
        assert "| eddsa | 512 | 512 | 100.00 |" in out

    @pytest.mark.parametrize("suite, columns", [
        ("attacks", (("Case", "case"), ("Input bits", "input_bits"),
                     ("Leakage", "leakage_display"), ("%", "percent"))),
        ("contracts", (("Case", "case"), ("Bucket", "bucket"),
                       ("Fake classes", "fake_classes"),
                       ("Naive classes", "naive_classes"))),
    ])
    def test_markdown_table_has_a_line_per_json_row(self, suite, columns, capsys):
        # two contract secrets may show no naive oracle: both runs exit alike
        argv = ["corpus", suite, "--sample", "2"]
        json_code, out, _ = run_cli(argv + ["--json"], capsys)
        rows = json.loads(out)["rows"]
        code, out, _ = run_cli(argv, capsys)
        assert code == json_code
        assert out == markdown_table([h for h, _ in columns],
                                     [[r[key] for _, key in columns] for r in rows])
        assert len(out.splitlines()) == 2 + len(rows)

    def test_defenses_suite_json(self, capsys):
        code, out, _ = run_cli(
            ["corpus", "defenses", "--sample", "5", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        aes = next(r for r in doc["rows"] if r["case"] == "aes")
        assert aes["copy_ops"] == 2

    @pytest.mark.parametrize("argv", [
        ["defenses", "--opt", "O4"],
        ["attacks", "--opt", "all"],
        ["contracts", "--opt", "all"],
    ])
    def test_opt_other_than_all_for_defenses_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(["corpus"] + argv + ["--json"], capsys)
        assert code == 2
        assert out == ""
        assert "--opt all" in err

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
    def test_python_dash_m_pfo_cli(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "pfo.cli", "parse",
             str(CORPUS / "foo.pfo"), "--json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["functions"]

    def test_python_dash_m_pfo(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "pfo", "parse", str(CORPUS / "foo.pfo")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout


class TestCallChecks:
    @pytest.mark.parametrize("call, message, col", [
        ("nosuch(k)", "call to undefined function 'nosuch'", 7),
        ("f(k, k)", "f() expects 1 arguments, got 2", 7),
    ])
    def test_bad_call_is_a_parse_error(self, tmp_path, capsys, call, message, col):
        bad = tmp_path / "bad.pfo"
        bad.write_text(
            "secret int<8> k;\n"
            "output int y;\n"
            "fn f(a) { return a; }\n"
            "fn main() {\n"
            "  y = 1;\n"
            f"  y = {call};\n"
            "}\n"
        )
        code, _, err = run_cli(["parse", str(bad), "--json"], capsys)
        assert code == 2
        assert f"bad.pfo:6:{col}: {message}" in err

    def test_bad_call_statement_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pfo"
        bad.write_text("fn main() {\n  nosuch();\n}\n")
        code, _, err = run_cli(["parse", str(bad)], capsys)
        assert code == 2
        assert "bad.pfo:2:3: call to undefined function 'nosuch'" in err


class TestArrayUseChecks:
    @pytest.mark.parametrize("stmt, message, col", [
        ("y = t + k;", "array 't' used without an index", 7),
        ("t = 1;", "array 't' used without an index", 3),
        ("y = k[0];", "'k' is not an array", 7),
        ("k[0] = 1;", "'k' is not an array", 3),
        ("y = sizeof(k);", "'k' is not an array", 7),
    ])
    def test_misused_array_is_a_parse_error(self, tmp_path, capsys, stmt, message, col):
        bad = tmp_path / "bad.pfo"
        bad.write_text("secret int<8> k;\noutput int y;\nint t[4];\n"
                       f"fn main() {{\n  y = 1;\n  {stmt}\n}}\n")
        code, _, err = run_cli(["parse", str(bad)], capsys)
        assert code == 2
        assert f"bad.pfo:6:{col}: {message}" in err
