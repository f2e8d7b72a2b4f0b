"""Secret-sensitivity labeling.

Labels form a two-point lattice (high above low).  High taint starts at
declared secrets and at everything lexically inside the marked region
and the functions it reaches (`Program.reachable`), then closes over
dataflow: an assignment reading a high variable makes its target high,
and, conservatively, any function writing a high variable becomes high
itself.  The result is a fixpoint, so labeling twice changes nothing.

Every fact comes from one scan over `lang.walk`, which reaches every
position of a statement: conditions, loop headers, assignment targets'
indices and call arguments.  So a call in a `for` step is a call like any
other, and reads anywhere in a header count as mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import Region, extract_region
from .lang import (
    Assign, CallExpr, CallStmt, For, If, Index, Program, Var, While,
    children, walk_all,
)

HIGH = "high"
LOW = "low"


@dataclass(frozen=True)
class _Flow:
    """One dataflow edge: writing `target` from reads of `sources`."""

    fn: str
    target: str
    sources: frozenset[str]


@dataclass(frozen=True)
class _CallSite:
    callee: str
    arg_reads: tuple[frozenset[str], ...]


@dataclass
class LabelingResult:
    program: Program
    variables: dict[str, str]   # scoped name -> high/low
    functions: dict[str, str]
    warnings: list[str] = field(default_factory=list)
    written: frozenset[str] = frozenset()  # globals code reachable from main writes

    @property
    def high_variables(self) -> frozenset[str]:
        return frozenset(v for v, l in self.variables.items() if l == HIGH)

    @property
    def high_functions(self) -> frozenset[str]:
        return frozenset(f for f, l in self.functions.items() if l == HIGH)

    def summary(self) -> dict:
        """Analysis counts over the high slice (functions, blocks, loops, vars).

        Static execution blocks: one per function for its straight-line
        spine, three per conditional (its two arms and the join) and two
        per loop (its body and the re-entry), loops counted once, not
        unrolled."""
        ifs = loops = 0
        for fname in self.high_functions:
            for n in walk_all(self.program.function(fname).body):
                ifs += isinstance(n, If)
                loops += isinstance(n, (For, While))
        return {
            "functions": len(self.high_functions),
            "execution_blocks": len(self.high_functions) + 3 * ifs + 2 * loops,
            "loops": loops,
            "variables": len(self.high_variables),
        }


def _scoped(declared: set[str], fn: str, name: str) -> str:
    # globals keep bare names; function locals are scoped
    return name if name in declared else f"{fn}/{name}"


def _scan(stmts):
    """Names, calls and dataflow anywhere in `stmts`, headers included.

    Names are every variable and array read or written, plus loop
    variables.  Each call is `(callee, names each argument reads)`.  Each
    flow is `(target, names under the assignment)`, which include the
    target itself (harmless: a flow only adds its target), or
    `(loop variable, no names)`.
    """
    names: set[str] = set()
    calls = []
    flows = []
    # each pending node carries the sets its names also go into: the flow
    # of its assignment and every call argument it sits in
    stack = [(s, ()) for s in stmts]
    while stack:
        n, sinks = stack.pop()
        kind = type(n)
        kids = children(n)
        if kind is Var or kind is Index:
            names.add(n.name)
            for reads in sinks:
                reads.add(n.name)
        elif kind is Assign:
            reads = set()
            flows.append((n.target.name, reads))
            sinks = (reads,)
        elif kind is CallExpr or kind is CallStmt:
            arg_reads = []
            for arg in kids:
                arg_reads.append(set())
                stack.append((arg, sinks + (arg_reads[-1],)))
            calls.append((n.name, arg_reads))
            continue
        elif kind is For:
            names.add(n.var)
            flows.append((n.var, ()))
        for k in kids:
            stack.append((k, sinks))
    return names, calls, flows


def _collect(program: Program, declared: set[str], region: Region):
    """Flow edges, call sites, per-function mention sets, and `region`'s scan."""
    flows: list[_Flow] = []
    sites: list[_CallSite] = []
    mentions: dict[str, set[str]] = {}
    inside, entry = _scan(region.body), program.entry.name
    for f in program.functions:
        body = region.prefix + region.suffix if f.name == entry else f.body
        names, calls, assigns = _scan(body)
        if f.name == entry:  # each statement is scanned once
            names, calls, assigns = names | inside[0], calls + inside[1], assigns + inside[2]

        def scoped(reads, fn=f.name):
            return frozenset(_scoped(declared, fn, r) for r in reads)

        mentions[f.name] = set(scoped(names))
        flows.extend(
            _Flow(f.name, _scoped(declared, f.name, target), scoped(reads))
            for target, reads in assigns
        )
        sites.extend(
            _CallSite(callee, tuple(scoped(r) for r in arg_reads))
            for callee, arg_reads in calls
        )
    return flows, sites, mentions, inside


def label_sensitivity(program: Program) -> LabelingResult:
    """Compute the high/low label of every variable and function."""
    declared = {d.name for d in program.decls}
    region = extract_region(program)
    flows, calls, mentions, (region_mentioned, region_calls, _) = _collect(
        program, declared, region)

    warnings: list[str] = []
    if region.explicit and not program.secrets:
        warnings.append("sensitive region declares no secret variables")

    entry = program.entry.name
    high_vars: set[str] = set()
    high_fns: set[str] = set()

    for d in program.secrets:
        high_vars.add(d.name)
    for name in region_mentioned:
        high_vars.add(_scoped(declared, entry, name))
    if region.explicit or program.secrets:
        high_fns.add(entry)

    # every function region code reaches; its body counts as lexically
    # inside the region
    region_closure = program.reachable(callee for callee, _ in region_calls)
    high_fns.update(region_closure)

    # every variable lexically inside region-reachable code is high; code
    # outside the region in the entry function is not absorbed this way
    def absorb_function_vars():
        changed = False
        for fn in region_closure:
            for name in mentions.get(fn, ()):
                if name not in high_vars:
                    high_vars.add(name)
                    changed = True
        return changed

    # dataflow fixpoint: secret taint through assignments, calls, returns,
    # plus the conservative writer rule
    changed = True
    while changed:
        changed = absorb_function_vars()
        for flow in flows:
            if flow.target in high_vars:
                # writer of a high variable: the writing function turns high
                if flow.fn not in high_fns:
                    high_fns.add(flow.fn)
                    changed = True
            if flow.sources & high_vars and flow.target not in high_vars:
                high_vars.add(flow.target)
                changed = True
        for site in calls:
            callee_params = program.function(site.callee).params
            for param, reads in zip(callee_params, site.arg_reads):
                scoped_param = _scoped(declared, site.callee, param)
                if reads & high_vars and scoped_param not in high_vars:
                    high_vars.add(scoped_param)
                    changed = True
            if site.callee in high_fns:
                continue
            # a call passing high data makes the callee high
            if any(r & high_vars for r in site.arg_reads):
                high_fns.add(site.callee)
                changed = True

    variables: dict[str, str] = {}
    for fn in program.functions:
        for name in mentions[fn.name]:
            variables[name] = HIGH if name in high_vars else LOW
    for d in program.decls:
        variables.setdefault(d.name, HIGH if d.name in high_vars else LOW)
        if d.name in high_vars:
            variables[d.name] = HIGH
    functions = {
        f.name: HIGH if f.name in high_fns else LOW for f in program.functions
    }
    reach = program.reachable([entry])
    return LabelingResult(program, variables, functions, warnings, frozenset(
        f.target for f in flows if f.fn in reach and f.target in declared))
