"""The corpus suites are deterministic, so their seed-0 JSON reports are the
oracle for behaviour: `pfo corpus` must print them byte for byte.

The reports under `golden/` were written with
`pfo corpus <suite> --json --seed 0` (plus `--opt all` for defenses_all),
and the two contract sweeps with
`pfo contract --program corpus/powm.pfo --sweep --policy naive|fake`:
every single-page steal at every step, 26 313 strategies over 64 secrets.
Regenerate one only for a change that is meant to alter what it reports.
"""

from pathlib import Path

import pytest

from pfo.cli import main

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
