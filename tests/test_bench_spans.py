"""The benchmark's span wrapper still fits the package.

`perfbench/spans.py` wraps `pfo` functions and executable methods by
name for the traced benchmark run (`perfbench/run.py --trace 1`).  A
refactor that renames one of them, or moves a wrapped method to another
class, breaks that run; this test catches it.  It instruments a separate
interpreter, so the wrappers never reach this process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import pfo.contract, pfo.labeling, pfo.leakage
from pfo import corpus, lang, optimize
import spans

doc = {
    "unresolved": [f"{m}.{a}" for m, a, _ in spans.FUNCTIONS
                   if not callable(getattr(sys.modules[m], a, None))],
    "not_own": [f"{c}.{name}" for m, c, name, _ in spans.METHODS
                if name not in vars(getattr(sys.modules[m], c))],
}
recorder = spans.Recorder()
spans.instrument(recorder)
program = lang.parse(corpus.make_table_cases()["aes"].source(key_bytes=2))
build = optimize.opt_page_realign(
    optimize.opt_readonly_elim(optimize.build_staged(program)))
before = recorder.names.count("interp.run")
steps_before = recorder.counters["interp.steps"]
result = build.run(secret={"k": 0x1234}, public={"p": 0})
doc["run_spans"] = recorder.names.count("interp.run") - before
doc["counted_steps"] = recorder.counters["interp.steps"] - steps_before
doc["steps"] = result.steps
doc["applied"] = list(build.applied)
print(json.dumps(doc))
"""


def test_span_wrapper_covers_a_staged_run():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["unresolved"] == []
    assert doc["not_own"] == []
    assert doc["applied"] == ["O1", "O2"]
    assert doc["run_spans"] == 1
    assert doc["counted_steps"] == doc["steps"] > 0
