"""Developer-assisted optimizations over the multiplexing defense.

Each pass preserves program outputs and the single-profile-class property
(eliminations apply uniformly over all inputs); the empirical checker in
`leakage` re-verifies the result.  The passes:

* O1 read-only elision: data fetched once, never copied back.
* O2 page realignment: read-only tables pinned to page starts so each
  fetch is one copy and sensitive data occupies the fewest pages.
* O3A level merging: consecutive levels whose code fits a single page
  share one fetch, so interior transitions stop multiplexing.  The groups
  are part of the one staged schedule `transform.plan_layout` makes, and
  code O4 leaves in place takes no room on the page.
* O3B cloning: a callee shared by callers on different pages is copied
  next to each caller, so neither call crosses a page.
* O4 multiplexing elimination: code stays in place, removing the code
  fetch/execute machinery, when it faults alike on every path.  Staged or
  in place, it is decided last, from compiled code without a run: the
  candidate is kept, executable and all, when that has no `witness`.
* O5 if-conversion: secret-conditioned branches become data selection
  through a two-slot table, removing control dependence on the secret.

Calls and writes are found with `lang.walk_all`, the callers O3B clones
for and the callees O5's purity check reads come from the program's
index (`Program.callees`, `Program.reachable`), and O3B redirects calls
with `lang.map_ast`, so loop headers, assignment targets' indices and
call arguments are never skipped: a call in a callee's `for` step counts
for O5's purity check, O3B's redirection and O4's page grouping alike.

No pass computes a page number or lays a build out itself: O2 pins its
arrays where `layouts.place` puts them from `layouts.next_free_page`,
O3B's caller pages and in-place O4's groups start at
`layouts.first_page_past_pins` (past every pinned array, and for O3B past
the `place code` pins it keeps), and `_replan` lays out a changed program.

`build_defense` is the single entry point that composes passes: the CLI
and the suites build every defense through it, staged or in place.  A
`DefenseBuild` bundles whatever the pipeline has produced so far (AST
rewrites, tree, plan, layouts) and hands out a runnable executable; each
pass that changes a build lays it out or re-plans it through `_replan`.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, replace
from graphlib import TopologicalSorter
from typing import Callable, Optional

from .exectree import ExecutionTree, balance, build_execution_tree
from .interp import AstExecutable
from .labeling import label_sensitivity
from .lang import (
    BINARY_OPERATORS,
    PREFIX_OPERATORS,
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
    Stmt,
    Unary,
    Var,
    VarDecl,
    While,
    arith,
    map_ast,
    walk_all,
)
from .layouts import (
    build_ast_layout,
    build_tree_layout,
    first_page_past_pins,
    next_free_page,
    place,
)
from .memory import MemoryLayout, PfoError
from .transform import MultiplexedExecutable, TransformPlan, plan_layout

O5_SLOT_PREFIX = "__o5_"


class OptError(PfoError):
    pass


@dataclass
class DefenseBuild:
    """One defended configuration of a program: staged when it has a tree
    (its code staged unless O4 applies), else in place.  `source_layout` is
    the layout of `program`, and of `tree` when staged.  A staged build's
    `plan` is made on first read, from `tree`, `source_layout` and the
    decisions in `applied`, unless it was given (`_plan`)."""

    program: Program
    source_layout: MemoryLayout
    applied: tuple[str, ...] = ()
    tree: Optional[ExecutionTree] = None
    _plan: Optional[TransformPlan] = field(default=None, repr=False, compare=False)
    notes: tuple[str, ...] = ()

    _exe: object = field(default=None, repr=False, compare=False)

    @property
    def plan(self) -> Optional[TransformPlan]:
        if self._plan is None and self.tree is not None:
            self._plan = plan_layout(
                self.tree, self.source_layout,
                readonly_elim="O1" in self.applied,
                stage_code="O4" not in self.applied,
                merge_levels="O3A" in self.applied,
            )
        return self._plan

    def executable(self):
        if self._exe is None:
            if self.tree is None:
                self._exe = AstExecutable(self.program, self.source_layout)
            else:
                self._exe = MultiplexedExecutable(
                    self.tree, self.source_layout, self.plan)
        return self._exe

    def run(self, secret=None, public=None, model=None, collect_trace=False):
        return self.executable().run(secret, public, model, collect_trace)


def build_staged(program: Program, page_size: Optional[int] = None) -> DefenseBuild:
    tree = balance(build_execution_tree(program))
    layout = build_tree_layout(tree, program.resolve_page_size(page_size))
    return DefenseBuild(program, layout, tree=tree, _plan=plan_layout(tree, layout))


def _names_in_use(program: Program) -> set[str]:
    """Every name `program` declares or uses: its declarations, functions,
    parameters, and the variables and callees its bodies name."""
    names = {d.name for d in program.decls}
    for fn in program.functions:
        names.update((fn.name, *fn.params))
        for n in walk_all(fn.body):
            name = n.var if isinstance(n, For) else getattr(n, "name", None)
            if name is not None:
                names.add(name)
    return names


def _fresh_name(taken: set[str], candidate: Callable[[int], str]) -> str:
    """The first of `candidate(0)`, `candidate(1)`, ... not in `taken`,
    which it then joins, so a pass's names never collide with the program's."""
    name = next(c for c in map(candidate, itertools.count()) if c not in taken)
    taken.add(name)
    return name


# --- O5: control-to-data dependency transformation ----------------------

@dataclass
class IfConversionReport:
    converted: int = 0
    declined: list[str] = field(default_factory=list)


def _walk_with_callees(program: Program, nodes):
    """`walk_all` over `nodes` and the bodies of the functions they reach."""
    called = program.reachable(n.name for n in walk_all(nodes) if isinstance(n, CallExpr))
    return walk_all([*nodes, *(s for name in called for s in program.function(name).body)])


def _is_pure(program: Program, nodes) -> bool:
    """No array write, global scalar write or call statement anywhere in
    `nodes` or in the body of any function they call, headers included."""
    globals_ = {d.name for d in program.decls}
    for n in _walk_with_callees(program, nodes):
        if isinstance(n, (CallStmt, RegionMarker)):
            return False
        if isinstance(n, Assign) and (
            isinstance(n.target, Index) or n.target.name in globals_
        ):
            return False
        if isinstance(n, For) and n.var in globals_:
            return False
    return True


def _constant_globals(program: Program) -> frozenset[str]:
    """The global scalars whose initializer is non-zero and that no
    assignment or `for` header writes (no parameter has a global's name)."""
    written = set()
    for fn in program.functions:
        for n in walk_all(fn.body):
            if isinstance(n, For):
                written.add(n.var)
            elif isinstance(n, Assign) and isinstance(n.target, Var):
                written.add(n.target.name)
    return frozenset(d.name for d in program.decls
                     if d.kind == DeclKind.GLOBAL and not d.is_array
                     and any(d.init) and d.name not in written)


def _may_trap(program: Program, nodes, constants: frozenset[str]) -> Optional[str]:
    """The first op in `nodes`, or in the body of any function they call,
    that may trap, named with its line, else None: a `while` (its bound may
    run out), a `/` or `%` whose divisor is neither a non-zero literal nor
    one of `constants` (`_constant_globals`), and an index that is not a
    literal in bounds."""
    canon = arith(program.int_width).canon
    for n in _walk_with_callees(program, nodes):
        if isinstance(n, While):
            return f"`while` at line {n.pos.line}"
        if isinstance(n, Binary) and n.op in ("/", "%"):
            d = n.right
            if not (isinstance(d, Num) and canon(d.value)
                    or isinstance(d, Var) and d.name in constants):
                return f"`{n.op}` at line {n.pos.line}"
        if isinstance(n, Index) and not (
                isinstance(n.index, Num)
                and 0 <= n.index.value < program.decl(n.name).array_len):
            return f"index into {n.name} at line {n.pos.line}"
    return None


def opt_if_convert(program: Program) -> tuple[Program, IfConversionReport]:
    """O5: rewrite region conditionals whose arms assign the same scalars.

    `if (c) { x = e; }` becomes `slot[0] = x; slot[1] = e; x = slot[c'];`
    with a fresh two-entry selection table per site, so the branch turns
    into a data access on a single page.  Arms with mismatched write sets,
    array writes or impure calls are left alone, and so are arms that may
    trap (`_may_trap`): both arms always run once converted, so a trap in
    the arm not taken would be a trap the program does not have.
    """
    report = IfConversionReport()
    new_decls = list(program.decls)
    taken = _names_in_use(program)
    constants = _constant_globals(program)

    def selector_index(cond):
        # a condition that is 0 or 1 indexes the slots as it is
        if (isinstance(cond, Binary) and BINARY_OPERATORS[cond.op].truth
                or isinstance(cond, Unary) and PREFIX_OPERATORS[cond.op].truth):
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
                    values = [*then_w.values(), *else_w.values()]
                    if not _is_pure(program, [*values, s.cond]):
                        report.declined.append("impure arm or condition")
                        ok = False
                if ok:
                    trap = _may_trap(program, values, constants)
                    if trap is not None:
                        report.declined.append(f"arm may trap: {trap}")
                        ok = False
                if ok and not then_w:
                    # empty conditional: drop it
                    report.converted += 1
                    continue
                if ok:
                    sel = selector_index(s.cond)
                    for target in then_w:
                        slot_name = _fresh_name(
                            taken, lambda n: f"{O5_SLOT_PREFIX}{n}")
                        new_decls.append(
                            VarDecl(DeclKind.GLOBAL, slot_name, None, 2, ())
                        )
                        keep = else_w.get(target, Var(target))
                        result.append(Assign(Index(slot_name, Num(0)), keep, s.pos))
                        result.append(Assign(Index(slot_name, Num(1)), then_w[target], s.pos))
                        result.append(Assign(Var(target), Index(slot_name, sel), s.pos))
                    report.converted += 1
                    continue
                result.append(replace(s, then_body=convert(s.then_body),
                                      else_body=convert(s.else_body)))
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
    return _replan(build, applied=build.applied + ("O1",))


# --- O2: page realignment ------------------------------------------------

def opt_page_realign(build: DefenseBuild) -> DefenseBuild:
    """Pin each sensitive array no code reachable from `main` assigns to,
    unless it already sits on one page from its start, at offset 0 of fresh
    pages past everything (`layouts.place` from `next_free_page`)."""
    program = build.program
    layout = build.source_layout
    labeled = label_sensitivity(program)
    moved = [
        d.name for d in program.arrays
        if d.name not in labeled.written and labeled.variables.get(d.name) == "high"
        and (len(layout.data_map[d.name]) > 1 or layout.data_map[d.name][0].offset)
    ]
    fresh, _ = place(layout.page_size,
                     [(n, ((n, program.decl(n).byte_length),)) for n in moved],
                     pins={}, pinned={}, page=next_free_page(layout))
    if fresh:
        pins = [p for p in program.placements if p.kind == "code" or p.name not in fresh]
        pins += [Placement("data", n, extents[0].page, 0) for n, extents in fresh.items()]
        program = replace(program, placements=tuple(pins))
    return _replan(
        build, program=program,
        applied=build.applied + ("O2",),
        notes=build.notes + (f"realigned: {', '.join(moved) if moved else 'none'}",),
    )


# --- O3A: level merging ---------------------------------------------------

def opt_level_merge(build: DefenseBuild) -> DefenseBuild:
    """Merge runs of consecutive levels whose code fits one page.

    Merged levels share a single fetch, so transitions inside the group
    stop issuing multiplexing copies.  `plan_layout` makes the groups, and
    every later re-plan (see `_replan`) asks for them again, so O1, O2 and
    O4 keep them.
    """
    return _replan(build, applied=build.applied + ("O3A",))


# --- O3B: level merging via cloning --------------------------------------

@dataclass
class CloneReport:
    cloned: dict[str, tuple[str, ...]] = field(default_factory=dict)


def opt_clone(program: Program, page_size: Optional[int] = None
              ) -> tuple[Program, CloneReport]:
    """Replicate a callee shared by several callers, one clone per caller.

    Every caller gets its own copy on the caller's page, after its code
    and the clones placed before, so the call never crosses a page; a
    caller of several shared callees is pinned once, on one page with all
    its clones.  Callers are cloned before their callees, so a clone's own
    shared callees are cloned onto its page in turn; a callee cloned away
    is left without a caller and dropped, so it takes no page.
    Single-caller callees are not moved.
    """
    ps = program.resolve_page_size(page_size)
    report = CloneReport()
    lengths = program.lowered.code_lengths()
    # each function's longest call chain from any root: callers come first
    depth: dict[str, int] = {}
    for name in reversed(tuple(TopologicalSorter(program.callees).static_order())):
        depth.setdefault(name, 0)
        for callee in program.callees[name]:
            depth[callee] = max(depth.get(callee, 0), depth[name] + 1)

    functions = {f.name: f for f in program.functions}
    calls = {name: set(callees) for name, callees in program.callees.items()}
    live = set(program.reachable([program.entry.name]))
    taken = _names_in_use(program)
    clones = []  # (callee, caller, clone), in the order they are made
    for callee in sorted(depth, key=lambda name: (depth[name], name)):
        callers = [name for name in functions if name in live and callee in calls[name]]
        if len(callers) < 2:
            continue
        if lengths[callee] > ps:
            raise OptError(
                f"{callee} is {lengths[callee]} bytes; too large to co-locate"
            )
        made = []
        for caller in callers:
            clone = _fresh_name(
                taken, lambda n: f"{callee}__for_{caller}" + (f"_{n}" if n else ""))
            functions[clone] = Function(clone, functions[callee].params,
                                        functions[callee].body)
            functions[caller] = _redirect_calls(functions[caller], callee, clone)
            calls[clone] = calls[callee]
            calls[caller] = calls[caller] - {callee} | {clone}
            clones.append((callee, caller, clone))
            made.append(clone)
        report.cloned[callee] = tuple(made)
        live = live - {callee} | set(made)
    if not clones:
        return program, report

    # the callees cloned away are left without a caller and dropped; each
    # caller that is not a clone is pinned again, on a page of its own;
    # every other pin stays
    gone = set(program.reachable([program.entry.name])) - live
    repinned = {caller for _, caller, _ in clones if caller in program.callees}
    placements = [p for p in program.placements
                  if p.kind == "data" or p.name not in repinned and p.name not in gone]
    next_page = first_page_past_pins(
        program, ps, [p.name for p in placements if p.kind == "code"])
    page_of: dict[str, int] = {}
    ends: dict[int, int] = {}  # each opened page's offset past what sits on it
    for callee, caller, clone in clones:
        if caller not in page_of:
            placements.append(Placement("code", caller, next_page, 0))
            page_of[caller], ends[next_page] = next_page, lengths[caller]
            next_page += 1
        page = page_of[clone] = page_of[caller]
        if ends[page] + lengths[callee] > ps:
            raise OptError(
                f"{callee} cannot sit beside {caller} in a {ps}-byte page"
            )
        placements.append(Placement("code", clone, page, ends[page]))
        ends[page] += lengths[callee]

    new_program = Program(
        program.decls, tuple(f for name, f in functions.items() if name not in gone),
        tuple(placements), program.page_size_hint,
    )
    return new_program, report


def _redirect_calls(fn: Function, old: str, new: str) -> Function:
    def redirect(node):
        if isinstance(node, (CallExpr, CallStmt)) and node.name == old:
            return replace(node, name=new)
        return node

    return map_ast(fn, redirect)


# --- O4: multiplexing elimination -------------------------------------------

def opt_mux_elim(build: DefenseBuild) -> DefenseBuild:
    """O4: a staged build with its code unstaged (every block at its own
    code pages), or an in-place build's page grouping (`_grouped`), when
    that candidate's executable has no `witness`; else `build`, noted
    "O4 declined: <witness>".  It runs last: a later re-plan would drop
    the executable the witness certified."""
    if build.tree is None:
        candidate, witness = _grouped(build)
    else:
        candidate = _replan(build, applied=build.applied + ("O4",))
        witness = candidate.executable().witness
    if witness is None:
        return candidate
    return replace(build, notes=build.notes + (f"O4 declined: {witness}",))


def _grouped(build: DefenseBuild) -> tuple[Optional[DefenseBuild], Optional[str]]:
    """In-place O4's candidate and its witness: put the functions an `if`
    chooses between on one page, so whichever arm runs, its calls fault
    alike.

    The functions called under an `if`'s arms share a page, and when only
    one arm calls anything, its callees and theirs share the page of the
    function that holds the `if`.  The groups go one per page, from
    `layouts.first_page_past_pins` on; a group larger than a page is the
    witness.
    """
    program = build.program
    ps = build.source_layout.page_size
    lengths = program.lowered.code_lengths()
    group = {f.name: {f.name} for f in program.functions}
    for fn in program.functions:
        for n in walk_all(fn.body):
            if isinstance(n, If):
                arms = [{c.name for c in walk_all(body) if isinstance(c, (CallExpr, CallStmt))}
                        for body in (n.then_body, n.else_body)]
                calls = set().union(*arms)
                tied = calls if all(arms) else {fn.name, *program.reachable(calls)}
                merged = set().union(*(group[name] for name in tied))
                for name in merged:
                    group[name] = merged
    groups = sorted({tuple(sorted(g)) for g in group.values()})
    for g in groups:
        size = sum(lengths[n] for n in g)
        if size > ps:
            return None, (f"{' + '.join(g)} is {size} bytes, "
                          f"larger than one {ps}-byte page")

    placements = [p for p in program.placements if p.kind != "code"]
    for page, members in enumerate(groups, first_page_past_pins(program, ps)):
        offset = 0
        for name in members:
            placements.append(Placement("code", name, page, offset))
            offset += lengths[name]
    grouped = replace(program, placements=tuple(placements))
    candidate = _replan(build, program=grouped, applied=build.applied + ("O4",))
    return candidate, candidate.executable().witness


def _replan(build: DefenseBuild, **changes) -> DefenseBuild:
    """`build` with `changes`, its plan to be redone from every decision so
    far (`DefenseBuild.plan`).

    A changed program is laid out again, its tree re-pointed at it, and a
    staged one planned at once: whether a tree and layout can be planned
    does not depend on the decisions, so a `PlanError` comes from the
    pass that made the layout, and a pass that keeps the layout defers
    its plan to the first read.  O1's elision, whether code is staged (O4)
    and O3A's level groups all come from `applied`, and `plan_layout`
    makes all three in its one schedule, so no pass undoes another.
    In-place builds have no plan.
    """
    program = build.program
    build = replace(build, _exe=None, _plan=None, **changes)
    if build.program is not program:
        ps = build.source_layout.page_size
        if build.tree is None:
            build.source_layout = build_ast_layout(build.program.lowered, ps)
        else:
            build.tree = copy.copy(build.tree)  # the same blocks, not indexed again
            build.tree.program = build.program
            build.source_layout = build_tree_layout(build.tree, ps)
            build.plan  # planned now, so a PlanError is raised here
    return build


# the build passes, in the order `build_defense` runs them: O4 last, to certify what runs
_BUILD_PASSES = {"O3A": opt_level_merge, "O1": opt_readonly_elim,
                 "O2": opt_page_realign, "O4": opt_mux_elim}
ALL_PASSES = ("O5", "O3B", *_BUILD_PASSES)
# the passes an in-place build takes: the others need an execution tree
IN_PLACE_PASSES = ("O5", "O2", "O4")


def build_defense(program: Program, passes=(), page_size: Optional[int] = None,
                  *, in_place: bool = False) -> DefenseBuild:
    """The defense pipeline: multiplexing plus the named passes, or with
    `in_place` the program's own layout plus `IN_PLACE_PASSES`.

    O5 and O3B rewrite the AST (and placements) before anything is laid
    out, so they run first; the build then takes O3A, O1, O2 and last O4,
    decided from the compiled code it returns, without sampling.
    `applied` leaves out an AST pass that rewrote nothing and declined O4.
    """
    unknown = [p for p in passes if p not in ALL_PASSES]
    if unknown:
        raise OptError(f"unknown optimization(s): {', '.join(unknown)}")
    staged_only = ", ".join(p for p in passes if p not in IN_PLACE_PASSES)
    if in_place and staged_only:
        raise OptError(f"in place only {', '.join(IN_PLACE_PASSES)} apply, not {staged_only}")
    ps = program.resolve_page_size(page_size)
    applied: tuple[str, ...] = ()
    if "O5" in passes:
        program, report = opt_if_convert(program)
        applied += ("O5",) if report.converted else ()
    if "O3B" in passes:
        program, report = opt_clone(program, ps)
        applied += ("O3B",) if report.cloned else ()
    if in_place:
        build = DefenseBuild(program, build_ast_layout(program.lowered, ps), applied)
    else:
        build = replace(build_staged(program, ps), applied=applied)
    for name, opt in _BUILD_PASSES.items():
        if name in passes:
            build = opt(build)
    return build
