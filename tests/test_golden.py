"""The corpus suites are deterministic, so their seed-0 JSON reports are the
oracle for behaviour: `pfo corpus` must print them byte for byte.

The reports under `golden/` were written with
`pfo corpus <suite> --json --seed 0` (plus `--opt all` for defenses_all),
and the two contract sweeps with
`pfo contract --program corpus/powm.pfo --sweep --policy naive|fake`:
every single-page steal at every step, 26 313 strategies over 64 secrets.
`golden/run_results.jsonl` holds what single runs observe (see
`run_result_cases`); running this file as a script rewrites it.
Regenerate one only for a change that is meant to alter what it reports.
"""

import json
from pathlib import Path

import pytest

from pfo.cli import main
from pfo.exectree import balance, build_execution_tree
from pfo.interp import TreeExecutable
from pfo.lang import parse
from pfo.memory import AdversaryModel
from pfo.optimize import build_defense, build_staged
from pfo.suites import defended_build

from test_interp import SPLIT_LOOKUP, TRAP_AFTER_TAIL_RETURN
from test_lang import FOO_SOURCE
from test_transform import LOOKUP_64, THREE_WAY, TRAPPING_ARM, UNEVEN_ARMS

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.mark.parametrize("name, argv", [
    ("attacks", ["corpus", "attacks"]),
    ("defenses", ["corpus", "defenses"]),
    ("contracts", ["corpus", "contracts"]),
    ("defenses_all", ["corpus", "defenses", "--opt", "all"]),
])
def test_corpus_report_is_byte_identical(name, argv, capsys):
    code = main(argv + ["--json", "--seed", "0"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("policy", ["naive", "fake"])
def test_contract_sweep_is_byte_identical(policy, capsys):
    code = main(["contract", "--program", str(CORPUS / "powm.pfo"), "--sweep",
                 "--policy", policy])
    assert code == 0
    expected = (GOLDEN / f"contract_powm_{policy}.json").read_text()
    assert capsys.readouterr().out == expected


def run_result_cases():
    """(name, executable, secret, public) for the run-result golden file:
    staged builds with and without passes, multi-block levels, a trapping
    arm, O4's unstaged code, and a plain tree run whose split-table load
    accounts for itself."""
    foo = parse(FOO_SOURCE)
    foo_inputs = [{"x": 4, "y": 2}, {"x": 8, "y": 9}, {"x": 10, "y": 6}]
    builds = [
        ("foo", build_staged(foo).executable(), foo_inputs, None),
        ("foo-O5-O3A-O1-O2",
         build_defense(foo, ("O5", "O3A", "O1", "O2")).executable(), foo_inputs, None),
        ("aes-16-O1-O2", defended_build("aes", 16).executable(),
         [{"k": 0}, {"k": 0x1234}], {"p": 0}),
        ("lookup64-O4", build_defense(parse(LOOKUP_64), ("O4",)).executable(),
         [{"s": 0}, {"s": 5}], None),
        ("split-lookup-tree",
         TreeExecutable(balance(build_execution_tree(parse(SPLIT_LOOKUP)))),
         [{"s": 2}, {"s": 6}], None),
    ]
    for name, source in [("uneven-arms", UNEVEN_ARMS), ("three-way", THREE_WAY),
                         ("trapping-arm", TRAPPING_ARM)]:
        builds.append((name, build_defense(parse(source)).executable(),
                       [{"s": 0}, {"s": 1}], None))
    trap = build_defense(parse(TRAP_AFTER_TAIL_RETURN)).executable()
    for public in ({"i": 3, "d": 1}, {"i": 1, "d": 0}, {"i": 1, "d": 3}):
        builds.append((f"trap-after-tail-return-{public['i']}-{public['d']}",
                       trap, [{}], public))
    for name, exe, secrets, public in builds:
        for secret in secrets:
            yield name, exe, secret, public


def run_results_document() -> str:
    """Every run-result case traced and untraced under both adversary
    models, one JSON document per line."""
    lines = []
    for name, exe, secret, public in run_result_cases():
        for model in (AdversaryModel.pigeonhole(), AdversaryModel.infinite_memory()):
            for traced in (False, True):
                doc = exe.run(secret=secret, public=public, model=model,
                              collect_trace=traced).to_json_dict()
                lines.append(json.dumps({
                    "case": name, "secret": secret, "public": public,
                    "model": model.variant.value, "traced": traced, "result": doc,
                }, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_run_results_are_byte_identical():
    assert run_results_document() == (GOLDEN / "run_results.jsonl").read_text()


if __name__ == "__main__":
    # rewrite the run-result golden file: only for a change that is meant
    # to alter what a run observes
    (GOLDEN / "run_results.jsonl").write_text(run_results_document())
