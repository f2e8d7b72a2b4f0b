"""In-memory span recorder for the traced benchmark run.

The benchmark never edits `pfo`.  `instrument` replaces each public entry
point listed below with a wrapper that records a span, in the defining
module and in every `pfo` module that imported the function by name, so
calls are caught whichever module makes them.  Executable classes get
their `__init__` (compile) and `run` wrapped in place.

A span is (name, start, end, parent index); a layer's self time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from measure import covered_length

FUNCTIONS = (
    ("pfo.lang", "parse", "lang.parse"),
    ("pfo.ir", "expand_region", "ir.expand"),
    ("pfo.ir", "lower_program", "ir.lower"),
    ("pfo.exectree", "build_execution_tree", "exectree.build"),
    ("pfo.exectree", "balance", "exectree.balance"),
    ("pfo.exectree", "check_balanced", "exectree.check"),
    ("pfo.layouts", "build_tree_layout", "layouts.layout"),
    ("pfo.layouts", "build_ast_layout", "layouts.layout"),
    ("pfo.transform", "plan_layout", "transform.plan"),
    ("pfo.optimize", "opt_readonly_elim", "optimize.o1"),
    ("pfo.optimize", "opt_page_realign", "optimize.o2"),
    ("pfo.optimize", "opt_if_convert", "optimize.o5"),
    ("pfo.labeling", "label_sensitivity", "labeling.label"),
    ("pfo.leakage", "verify_pfo", "leakage.verify"),
    ("pfo.leakage", "attack_eddsa", "leakage.attack"),
    ("pfo.leakage", "attack_powm", "leakage.attack"),
    ("pfo.contract", "derive_contract", "contract.derive"),
    ("pfo.contract", "access_schedule", "contract.schedule"),
    ("pfo.contract", "check_contract_indistinguishability", "contract.sweep"),
)

# (module, class, method, span name); a run span also counts steps and
# collected trace events from its result
METHODS = (
    ("pfo.interp", "AstExecutable", "__init__", "interp.compile"),
    ("pfo.interp", "TreeExecutable", "__init__", "interp.compile"),
    ("pfo.transform", "MultiplexedExecutable", "__init__", "interp.compile"),
    ("pfo.interp", "AstExecutable", "run", "interp.run"),
    ("pfo.interp", "TreeExecutable", "run", "interp.run"),
)


class Recorder:
    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self.counters, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def durations(self, name: str) -> list[float]:
        return [
            self.ends[i] - self.starts[i]
            for i, n in enumerate(self.names) if n == name
        ]

    def self_times(self) -> list[float]:
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(len(self.names)):
            start, end = self.starts[i], self.ends[i]
            covered = covered_length(
                start, end, [(self.starts[c], self.ends[c]) for c in children[i]]
            )
            out.append(end - start - covered)
        return out

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, self.self_times()):
            totals[name] += t
        return dict(totals)

    def write(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["fields"] = ["name", "start_cpu_s", "end_cpu_s", "parent"]
        doc["spans"] = [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        doc["counters"] = dict(self.counters)
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def _count_tokens(counters, tokens):
    counters["lang.tokens"] += len(tokens)


def _count_run(counters, result):
    counters["interp.steps"] += result.steps
    if result.trace is not None:
        counters["interp.trace_events"] += len(result.trace)


def instrument(recorder: Recorder) -> None:
    """Wrap every listed entry point of the imported `pfo` modules."""
    modules = [m for n, m in sys.modules.items()
               if n == "pfo" or n.startswith("pfo.")]

    def replace_everywhere(original, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        replace_everywhere(original, recorder.wrap(original, span))
    tokenize = sys.modules["pfo.lang"].tokenize
    replace_everywhere(tokenize, _counting(tokenize, recorder, _count_tokens))
    for module_name, cls_name, method, span in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        count = _count_run if method == "run" else None
        setattr(cls, method, recorder.wrap(vars(cls)[method], span, count))


def _counting(fn, recorder: Recorder, count):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(recorder.counters, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper
