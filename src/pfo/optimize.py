"""Developer-assisted optimizations over the multiplexing defense.

Each pass preserves program outputs and the single-profile-class property
(eliminations apply uniformly over all inputs); the empirical checker in
`leakage` re-verifies the result.  The passes:

* O1 read-only elision: data fetched once, never copied back.
* O2 page realignment: read-only tables moved to page starts so each
  fetch is one copy and sensitive data occupies the fewest pages.
* O3A level merging: consecutive levels whose code fits a single page
  share one fetch, so interior transitions stop multiplexing.
* O3B cloning: a callee shared by callers on different pages is copied
  next to each caller, so neither call crosses a page.
* O4 multiplexing elimination: code stays in place; functions are grouped
  onto pages so every level transition faults identically, removing the
  code fetch/execute machinery altogether.
* O5 if-conversion: secret-conditioned branches become data selection
  through a two-slot table, removing control dependence on the secret.

A `DefenseBuild` bundles whatever the pipeline has produced so far (AST
rewrites, tree, plan, layouts) and hands out a runnable executable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .exectree import ExecutionTree, balance, build_execution_tree
from .interp import AstExecutable
from .ir import data_refs, lower_program
from .labeling import label_sensitivity
from .lang import (
    Assign,
    Binary,
    CallExpr,
    CallStmt,
    DeclKind,
    For,
    Function,
    If,
    Index,
    Num,
    Placement,
    Program,
    RegionMarker,
    Return,
    Stmt,
    Ternary,
    Unary,
    Var,
    VarDecl,
    While,
)
from .layouts import build_ast_layout, build_tree_layout
from .memory import MemoryLayout, PfoError, split_extents
from .transform import (
    LevelPlan,
    MultiplexedExecutable,
    PlanError,
    TransformPlan,
    plan_layout,
)

O5_SLOT_PREFIX = "__o5_"


class OptError(PfoError):
    pass


@dataclass
class DefenseBuild:
    """One defended configuration of a program, staged or in-place."""

    program: Program
    page_size: int
    mode: str  # 'staged' | 'inplace'
    applied: tuple[str, ...] = ()
    tree: Optional[ExecutionTree] = None
    source_layout: Optional[MemoryLayout] = None
    plan: Optional[TransformPlan] = None
    code_staged: bool = True
    notes: tuple[str, ...] = ()

    _exe: object = field(default=None, repr=False, compare=False)

    def executable(self):
        if self._exe is None:
            if self.mode == "staged":
                self._exe = MultiplexedExecutable(
                    self.tree, self.source_layout, self.plan,
                    code_staged=self.code_staged,
                )
            else:
                self._exe = AstExecutable(
                    self.program, self.source_layout, self.page_size
                )
        return self._exe

    def run(self, secret=None, public=None, model=None, collect_trace=False):
        return self.executable().run(secret, public, model, collect_trace)


def build_staged(program: Program, page_size: Optional[int] = None,
                 mux: str = "auto") -> DefenseBuild:
    ps = page_size or program.page_size_hint or 4096
    tree = balance(build_execution_tree(program))
    layout = build_tree_layout(tree, ps)
    plan = plan_layout(tree, layout, mode=mux)
    return DefenseBuild(program, ps, "staged", (), tree, layout, plan)


def build_inplace(program: Program, page_size: Optional[int] = None,
                  layout: Optional[MemoryLayout] = None) -> DefenseBuild:
    ps = page_size or program.page_size_hint or 4096
    if layout is None:
        layout = build_ast_layout(lower_program(program), ps)
    return DefenseBuild(program, ps, "inplace", (), None, layout, None)


# --- O5: control-to-data dependency transformation ----------------------

@dataclass
class IfConversionReport:
    converted: int = 0
    declined: list[str] = field(default_factory=list)


def _is_pure_function(program: Program, name: str, seen=None) -> bool:
    """No array writes, no global scalar writes, no impure callees."""
    seen = seen or set()
    if name in seen:
        return True
    seen.add(name)
    fn = program.function(name)
    globals_ = {d.name for d in program.decls}

    def pure_stmts(stmts) -> bool:
        for s in stmts:
            if isinstance(s, Assign):
                if isinstance(s.target, Index):
                    return False
                if s.target.name in globals_:
                    return False
                if not pure_expr(s.value):
                    return False
            elif isinstance(s, Return):
                if s.value is not None and not pure_expr(s.value):
                    return False
            elif isinstance(s, If):
                if not pure_expr(s.cond):
                    return False
                if not pure_stmts(s.then_body) or not pure_stmts(s.else_body):
                    return False
            elif isinstance(s, (For, While)):
                if not pure_stmts(s.body):
                    return False
            elif isinstance(s, CallStmt):
                return False
            else:
                return False
        return True

    def pure_expr(e) -> bool:
        if isinstance(e, CallExpr):
            return _is_pure_function(program, e.name, seen) and all(
                pure_expr(a) for a in e.args
            )
        if isinstance(e, Binary):
            return pure_expr(e.left) and pure_expr(e.right)
        if isinstance(e, Unary):
            return pure_expr(e.operand)
        if isinstance(e, Ternary):
            return all(pure_expr(x) for x in (e.cond, e.if_true, e.if_false))
        if isinstance(e, Index):
            return pure_expr(e.index)
        return True

    return pure_stmts(fn.body)


def _pure_expr_for_o5(program: Program, e) -> bool:
    if isinstance(e, CallExpr):
        return _is_pure_function(program, e.name) and all(
            _pure_expr_for_o5(program, a) for a in e.args
        )
    if isinstance(e, Binary):
        return _pure_expr_for_o5(program, e.left) and _pure_expr_for_o5(program, e.right)
    if isinstance(e, Unary):
        return _pure_expr_for_o5(program, e.operand)
    if isinstance(e, Ternary):
        return all(_pure_expr_for_o5(program, x) for x in (e.cond, e.if_true, e.if_false))
    if isinstance(e, Index):
        return _pure_expr_for_o5(program, e.index)
    return True


_BOOL_OPS = {"==", "!=", "<", ">", "<=", ">=", "&&"}


def opt_if_convert(program: Program) -> tuple[Program, IfConversionReport]:
    """O5: rewrite region conditionals whose arms assign the same scalars.

    `if (c) { x = e; }` becomes `slot[0] = x; slot[1] = e; x = slot[c'];`
    with a fresh two-entry selection table per site, so the branch turns
    into a data access on a single page.  Arms with mismatched write sets,
    array writes, or impure calls are left alone.
    """
    report = IfConversionReport()
    new_decls = list(program.decls)
    counter = itertools.count()

    def selector_index(cond):
        if isinstance(cond, Binary) and cond.op in _BOOL_OPS:
            return cond
        if isinstance(cond, Unary) and cond.op == "!":
            return cond
        return Binary("!=", cond, Num(0))

    def arm_assignments(stmts):
        """Scalar single-assignment view of an arm, or None."""
        out = {}
        for s in stmts:
            if not isinstance(s, Assign) or isinstance(s.target, Index):
                return None
            if s.target.name in out:
                return None
            out[s.target.name] = s.value
        return out

    def convert(stmts) -> tuple[Stmt, ...]:
        result = []
        for s in stmts:
            if isinstance(s, If):
                then_w = arm_assignments(s.then_body)
                else_w = arm_assignments(s.else_body)
                ok = then_w is not None and else_w is not None
                if ok and s.else_body and set(then_w) != set(else_w):
                    report.declined.append("mismatched write sets")
                    ok = False
                if ok:
                    exprs = list(then_w.values()) + list(else_w.values()) + [s.cond]
                    if not all(_pure_expr_for_o5(program, e) for e in exprs):
                        report.declined.append("impure arm or condition")
                        ok = False
                if ok and not then_w:
                    # empty conditional: drop it
                    report.converted += 1
                    continue
                if ok:
                    sel = selector_index(s.cond)
                    for target in then_w:
                        slot_name = f"{O5_SLOT_PREFIX}{next(counter)}"
                        new_decls.append(
                            VarDecl(DeclKind.GLOBAL, slot_name, None, 2, ())
                        )
                        keep = else_w.get(target, Var(target))
                        result.append(Assign(Index(slot_name, Num(0)), keep))
                        result.append(Assign(Index(slot_name, Num(1)), then_w[target]))
                        result.append(Assign(Var(target), Index(slot_name, sel)))
                    report.converted += 1
                    continue
                result.append(If(s.cond, convert(s.then_body), convert(s.else_body)))
            elif isinstance(s, For):
                result.append(replace(s, body=convert(s.body)))
            elif isinstance(s, While):
                result.append(replace(s, body=convert(s.body)))
            else:
                result.append(s)
        return tuple(result)

    new_functions = []
    for fn in program.functions:
        if fn.name == program.entry.name:
            new_functions.append(replace(fn, body=convert(fn.body)))
        else:
            new_functions.append(fn)
    new_program = Program(
        tuple(new_decls), tuple(new_functions), program.placements,
        program.page_size_hint,
    )
    return new_program, report


# --- O1: read-only copy elision ------------------------------------------

def opt_readonly_elim(build: DefenseBuild) -> DefenseBuild:
    if build.mode != "staged":
        return replace(build, applied=build.applied + ("O1",), _exe=None)
    plan = plan_layout(
        build.tree, build.source_layout, mode=build.plan.mode,
        readonly_elim=True, stage_code=build.code_staged,
    )
    return replace(build, plan=plan, applied=build.applied + ("O1",), _exe=None)


# --- O2: page realignment ------------------------------------------------

def opt_page_realign(build: DefenseBuild) -> DefenseBuild:
    """Move sensitive read-only arrays to fresh page-aligned extents."""
    program = build.program
    page_size = build.page_size
    layout = build.source_layout

    labeled = label_sensitivity(program)
    written = _written_arrays(build)
    targets = [
        d.name for d in program.arrays
        if d.name not in written and labeled.variables.get(d.name) == "high"
    ]

    data_map = dict(layout.data_map)
    next_page = max(
        (e.page for exts in list(layout.code_map.values()) + list(layout.data_map.values())
         for e in exts),
        default=-1,
    ) + 1
    moved = []
    for name in targets:
        extents = data_map[name]
        aligned = len(extents) == 1 and extents[0].offset == 0
        if aligned:
            continue
        length = sum(e.length for e in extents)
        data_map[name] = split_extents(page_size, next_page, 0, length)
        next_page = max(e.page for e in data_map[name]) + 1
        moved.append(name)

    new_layout = MemoryLayout(
        page_size=page_size, code_map=dict(layout.code_map), data_map=data_map,
    )
    new_build = replace(
        build, source_layout=new_layout,
        applied=build.applied + ("O2",),
        notes=build.notes + (f"realigned: {', '.join(moved) if moved else 'none'}",),
        _exe=None,
    )
    if build.mode == "staged":
        new_build.plan = plan_layout(
            build.tree, new_layout, mode=build.plan.mode,
            readonly_elim="O1" in build.applied, stage_code=build.code_staged,
        )
    return new_build


def _written_arrays(build: DefenseBuild) -> frozenset[str]:
    if build.tree is not None:
        writes = set()
        for b in build.tree.blocks:
            for instr in b.instrs:
                for obj, _i, is_write in data_refs(instr):
                    if is_write:
                        writes.add(obj)
        return frozenset(writes)
    lowered = lower_program(build.program)
    writes = set()
    for fn in lowered.functions.values():
        for instr in fn.instrs:
            for obj, _i, is_write in data_refs(instr):
                if is_write:
                    writes.add(obj)
    return frozenset(writes)


# --- O3A: level merging ---------------------------------------------------

def opt_level_merge(build: DefenseBuild) -> DefenseBuild:
    """Merge runs of consecutive levels whose code fits one page.

    Merged levels share a single fetch, so transitions inside the group
    stop issuing multiplexing copies.
    """
    if build.mode != "staged" or not build.code_staged:
        return replace(build, applied=build.applied + ("O3A",), _exe=None)
    plan = build.plan
    page_size = plan.page_size

    def code_words(lp: LevelPlan) -> int:
        return sum(c.words for c in lp.fetch if c.kind == "code")

    groups: list[list[LevelPlan]] = []
    current: list[LevelPlan] = []
    current_bytes = 0
    for lp in plan.levels:
        nbytes = code_words(lp) * 4
        if current and current_bytes + nbytes > page_size:
            groups.append(current)
            current = []
            current_bytes = 0
        current.append(lp)
        current_bytes += nbytes
    if current:
        groups.append(current)

    merged: list[LevelPlan] = []
    for group in groups:
        if len(group) == 1:
            merged.append(group[0])
            continue
        fetch: list = []
        seen_data: set[tuple] = set()
        offset = 0
        for lp in group:
            for c in lp.fetch:
                if c.kind == "code":
                    fetch.append(replace(c, dst_offset=offset))
                else:
                    key = (c.unit, c.src_word)
                    if key in seen_data:
                        continue
                    seen_data.add(key)
                    fetch.append(c)
            offset += code_words(lp) * 4
        back: list = []
        seen_back: set[tuple] = set()
        for lp in group:
            for c in lp.copy_back:
                key = (c.unit, c.src_word)
                if key in seen_back:
                    continue
                seen_back.add(key)
                back.append(c)
        covered = tuple(c for lp in group for c in lp.covered())
        merged.append(LevelPlan(group[0].level, tuple(fetch), tuple(back), covered))

    new_plan = replace(plan, levels=tuple(merged))
    return replace(
        build, plan=new_plan, applied=build.applied + ("O3A",), _exe=None,
    )


# --- O3B: level merging via cloning --------------------------------------

@dataclass
class CloneReport:
    cloned: dict[str, tuple[str, ...]] = field(default_factory=dict)


def opt_clone(program: Program, page_size: Optional[int] = None
              ) -> tuple[Program, CloneReport]:
    """Replicate a callee shared by several callers, one clone per caller.

    Every caller gets its own copy placed directly after its code, so the
    call never crosses a page; single-caller callees are just co-located
    (the degenerate case).
    """
    ps = page_size or program.page_size_hint or 4096
    report = CloneReport()
    callers: dict[str, list[str]] = {}

    def collect_calls(fn: Function):
        def walk_expr(e):
            if isinstance(e, CallExpr):
                callers.setdefault(e.name, [])
                if fn.name not in callers[e.name]:
                    callers[e.name].append(fn.name)
                for a in e.args:
                    walk_expr(a)
            elif isinstance(e, Binary):
                walk_expr(e.left)
                walk_expr(e.right)
            elif isinstance(e, Unary):
                walk_expr(e.operand)
            elif isinstance(e, Ternary):
                for x in (e.cond, e.if_true, e.if_false):
                    walk_expr(x)
            elif isinstance(e, Index):
                walk_expr(e.index)

        def walk(stmts):
            for s in stmts:
                if isinstance(s, Assign):
                    walk_expr(s.value)
                    if isinstance(s.target, Index):
                        walk_expr(s.target.index)
                elif isinstance(s, CallStmt):
                    callers.setdefault(s.name, [])
                    if fn.name not in callers[s.name]:
                        callers[s.name].append(fn.name)
                    for a in s.args:
                        walk_expr(a)
                elif isinstance(s, Return) and s.value is not None:
                    walk_expr(s.value)
                elif isinstance(s, If):
                    walk_expr(s.cond)
                    walk(s.then_body)
                    walk(s.else_body)
                elif isinstance(s, (For, While)):
                    walk(s.body)

        walk(fn.body)

    for fn in program.functions:
        collect_calls(fn)

    shared = {name: cs for name, cs in callers.items() if len(cs) > 1}
    if not shared:
        return program, report

    lowered = lower_program(program)
    lengths = lowered.code_lengths()

    functions = {f.name: f for f in program.functions}
    new_functions = list(program.functions)
    placements = [p for p in program.placements if p.kind != "code"]
    next_page = max((p.page for p in program.placements), default=-1) + 1
    for callee, caller_names in sorted(shared.items()):
        if lengths[callee] > ps:
            raise OptError(
                f"{callee} is {lengths[callee]} bytes; too large to co-locate"
            )
        clones = []
        for caller in caller_names:
            if lengths[caller] + lengths[callee] > ps:
                raise OptError(
                    f"{callee} cannot sit beside {caller} in a {ps}-byte page"
                )
            clone_name = f"{callee}__for_{caller}"
            clones.append(clone_name)
            body = functions[callee].body
            new_functions.append(Function(clone_name, functions[callee].params, body))
            caller_fn = next(f for f in new_functions if f.name == caller)
            new_functions[new_functions.index(caller_fn)] = _redirect_calls(
                caller_fn, callee, clone_name
            )
            # pin the clone right after its caller on a shared page
            placements.append(Placement("code", caller, next_page, 0))
            placements.append(Placement("code", clone_name, next_page, lengths[caller]))
            next_page += 1
        report.cloned[callee] = tuple(clones)

    new_program = Program(
        program.decls, tuple(new_functions), tuple(placements),
        program.page_size_hint,
    )
    return new_program, report


def _redirect_calls(fn: Function, old: str, new: str) -> Function:
    def walk_expr(e):
        if isinstance(e, CallExpr):
            return CallExpr(new if e.name == old else e.name,
                            tuple(walk_expr(a) for a in e.args))
        if isinstance(e, Binary):
            return Binary(e.op, walk_expr(e.left), walk_expr(e.right))
        if isinstance(e, Unary):
            return Unary(e.op, walk_expr(e.operand))
        if isinstance(e, Ternary):
            return Ternary(walk_expr(e.cond), walk_expr(e.if_true), walk_expr(e.if_false))
        if isinstance(e, Index):
            return Index(e.name, walk_expr(e.index))
        return e

    def walk(stmts):
        out = []
        for s in stmts:
            if isinstance(s, Assign):
                target = s.target
                if isinstance(target, Index):
                    target = Index(target.name, walk_expr(target.index))
                out.append(Assign(target, walk_expr(s.value)))
            elif isinstance(s, CallStmt):
                out.append(CallStmt(new if s.name == old else s.name,
                                    tuple(walk_expr(a) for a in s.args)))
            elif isinstance(s, Return):
                out.append(Return(None if s.value is None else walk_expr(s.value)))
            elif isinstance(s, If):
                out.append(If(walk_expr(s.cond), walk(s.then_body), walk(s.else_body)))
            elif isinstance(s, For):
                out.append(replace(s, init=walk_expr(s.init), cond=walk_expr(s.cond),
                                   step=walk_expr(s.step), body=walk(s.body)))
            elif isinstance(s, While):
                out.append(replace(s, cond=walk_expr(s.cond), body=walk(s.body)))
            else:
                out.append(s)
        return tuple(out)

    return Function(fn.name, fn.params, walk(fn.body))


# --- O4: multiplexing elimination -------------------------------------------

@dataclass
class MuxElimReport:
    succeeded: bool
    groups: tuple[tuple[str, ...], ...] = ()
    states_tried: int = 0
    reason: str = ""


def opt_mux_elim(program: Program, page_size: Optional[int] = None,
                 probe_secrets: int = 64, seed: int = 0,
                 max_states: int = 10_000) -> tuple[Optional[DefenseBuild], MuxElimReport]:
    """O4: group functions onto pages so transitions fault identically.

    Functions that are alternative targets under a conditional must share
    a page (then either both fault or neither does); groups are packed
    greedily and the candidate layout is probed with random secrets under
    the pigeonhole observer.  On failure the plan is left unchanged.
    """
    ps = page_size or program.page_size_hint or 4096
    lowered = lower_program(program)
    lengths = lowered.code_lengths()

    # union-find over functions forced to share a page
    parent = {f.name: f.name for f in program.functions}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    def calls_in(stmts, acc):
        for s in stmts:
            if isinstance(s, Assign):
                _expr_calls(s.value, acc)
                if isinstance(s.target, Index):
                    _expr_calls(s.target.index, acc)
            elif isinstance(s, CallStmt):
                acc.add(s.name)
                for a in s.args:
                    _expr_calls(a, acc)
            elif isinstance(s, Return) and s.value is not None:
                _expr_calls(s.value, acc)
            elif isinstance(s, If):
                then_calls: set = set()
                else_calls: set = set()
                calls_in(s.then_body, then_calls)
                calls_in(s.else_body, else_calls)
                for pair in itertools.combinations(sorted(then_calls | else_calls), 2):
                    union(*pair)
                acc.update(then_calls | else_calls)
            elif isinstance(s, (For, While)):
                calls_in(s.body, acc)

    def _expr_calls(e, acc):
        if isinstance(e, CallExpr):
            acc.add(e.name)
            for a in e.args:
                _expr_calls(a, acc)
        elif isinstance(e, Binary):
            _expr_calls(e.left, acc)
            _expr_calls(e.right, acc)
        elif isinstance(e, Unary):
            _expr_calls(e.operand, acc)
        elif isinstance(e, Ternary):
            for x in (e.cond, e.if_true, e.if_false):
                _expr_calls(x, acc)
        elif isinstance(e, Index):
            _expr_calls(e.index, acc)

    for fn in program.functions:
        calls_in(fn.body, set())

    groups: dict[str, list[str]] = {}
    for fn in program.functions:
        groups.setdefault(find(fn.name), []).append(fn.name)
    group_list = [sorted(g) for g in groups.values()]
    group_list.sort(key=lambda g: g[0])

    # fresh code pages must not collide with pragma-placed data
    base_page = 0
    for p in program.placements:
        if p.kind != "data":
            continue
        decl = program.decl(p.name)
        length = decl.byte_length if decl is not None and decl.is_array else ps
        offset = p.offset if p.offset >= 0 else ps + p.offset
        spanned = (offset + length + ps - 1) // ps
        base_page = max(base_page, p.page + spanned)

    states = 0
    candidates = _packings(group_list, lengths, ps)
    for placement_groups in candidates:
        states += 1
        if states > max_states:
            break
        placements = []
        for page, members in enumerate(placement_groups):
            offset = 0
            for name in members:
                placements.append(Placement("code", name, base_page + page, offset))
                offset += lengths[name]
        candidate = Program(
            program.decls, program.functions,
            tuple(p for p in program.placements if p.kind != "code") + tuple(placements),
            program.page_size_hint,
        )
        layout = build_ast_layout(lower_program(candidate), ps)
        build = DefenseBuild(candidate, ps, "inplace", ("O4",), None, layout, None)
        if _probe_uniform(build, probe_secrets, seed):
            report = MuxElimReport(
                True, tuple(tuple(g) for g in placement_groups), states
            )
            return build, report
    return None, MuxElimReport(False, (), states, "no uniform grouping found")


def _packings(group_list, lengths, page_size):
    """Candidate page packings: one group per page first, then pairwise merges."""
    def size(g):
        return sum(lengths[n] for n in g)

    for g in group_list:
        if size(g) > page_size:
            return  # a forced group exceeds one page: nothing will fit
    yield group_list
    # merge adjacent groups when they fit (fewer pages, still uniform)
    for i, j in itertools.combinations(range(len(group_list)), 2):
        merged = []
        for k, g in enumerate(group_list):
            if k == j:
                continue
            merged.append(sorted(g + group_list[j]) if k == i else g)
        if all(size(g) <= page_size for g in merged):
            yield merged


def _probe_uniform(build: DefenseBuild, n: int, seed: int) -> bool:
    program = build.program
    rng = random.Random(seed)
    secrets = [d for d in program.decls if d.kind == DeclKind.SECRET]
    exe = build.executable()

    def sample():
        return {
            d.name: rng.randrange(1 << d.domain_width) for d in secrets
        }

    base = None
    trials = [
        {d.name: 0 for d in secrets},
        {d.name: (1 << d.domain_width) - 1 for d in secrets},
    ] + [sample() for _ in range(n)]
    for secret in trials:
        profile = tuple(exe.run(secret=secret).profile)
        if base is None:
            base = profile
        elif profile != base:
            return False
    return True


def opt_mux_elim_staged(build: DefenseBuild, probe_secrets: int = 32,
                        seed: int = 0) -> DefenseBuild:
    """O4 on a staged build: drop code staging when the natural block
    layout already determinizes the profile (probed empirically)."""
    if build.mode != "staged" or not build.code_staged:
        return replace(build, applied=build.applied + ("O4",), _exe=None)
    candidate_plan = plan_layout(
        build.tree, build.source_layout, mode=build.plan.mode,
        readonly_elim="O1" in build.applied, stage_code=False,
    )
    candidate = replace(
        build, plan=candidate_plan, code_staged=False,
        applied=build.applied + ("O4",), _exe=None,
    )
    if _probe_uniform(candidate, probe_secrets, seed):
        return candidate
    return replace(build, notes=build.notes + ("O4 declined: grouping leaks",),
                   _exe=None)


ALL_PASSES = ("O5", "O3A", "O3B", "O4", "O1", "O2")


def apply_all_passes(program: Program, page_size: Optional[int] = None,
                     seed: int = 0) -> DefenseBuild:
    """The fixed `--opt all` chain: O5, O3A, O3B, O4, O1, O2.

    O5 and O3B rewrite the AST (and placements) before the tree exists, so
    they run first; the remaining passes compose over the staged build.
    """
    ps = page_size or program.page_size_hint or 4096
    program, _ = opt_if_convert(program)
    program, _ = opt_clone(program, ps)
    build = build_staged(program, ps)
    build.applied = ("O5", "O3B")
    build = opt_level_merge(build)
    build = opt_mux_elim_staged(build, seed=seed)
    build = opt_readonly_elim(build)
    build = opt_page_realign(build)
    return build
