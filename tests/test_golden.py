"""The corpus suites are deterministic, so their seed-0 JSON reports are the
oracle for behaviour: `pfo corpus` must print them byte for byte.

The reports under `golden/` were written with
`pfo corpus <suite> --json --seed 0` (plus `--opt all` for defenses_all);
regenerate one only for a change that is meant to alter what it reports.
"""

from pathlib import Path

import pytest

from pfo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


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
