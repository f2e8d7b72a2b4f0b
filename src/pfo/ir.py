"""Lowering from the AST to a flat micro-op IR.

Design choices that everything downstream relies on:

* Scalar variables (globals, locals, parameters, temporaries) live in
  registers, not memory.  Only arrays are memory objects, so the page
  events an instruction emits are its code fetch plus at most two array
  operand pages.  This mirrors register-allocated compiled code, where
  locals do not touch the data pages an OS can observe.
* Every micro-op occupies `WORD_SIZE` bytes of code, so a code unit's byte
  length is `4 * len(instrs)` and instruction addresses are dense.
* Ternary expressions lower to a branchless select; `if` statements are
  the only control-flow construct that branches.

One expression lowering (`_FnLowerer`) serves two consumers: the
whole-program interpreter (functions stay separate, calls are real
transfers) and the execution-tree builder (calls inlined, loops unrolled;
see `expand_region`, whose items the builder only places into blocks).
They differ in one thing, a call: the interpreter emits a `CallI`, and
tree mode binds each parameter right after its own argument, then lowers
the callee's statements, then its return value where the call stands.
Both follow one evaluation rule: operands are evaluated left to right, a
variable operand is read by the op that uses it, each argument is bound
to its value when it is evaluated, and a call's value is the one its
callee returns.  So the interpreter copies a global passed bare when a
later argument makes a call, and tree mode copies a bare global return
value, each of which a later call could write before it is read.
Parsing has checked every call and array use, so lowering does not.
Each inlined call gets fresh locals, which start at 0 as in the
interpreter.  Unrolled, a `while` is one conditional per trip, each
nested in the one before, and a last test of its condition whose true
arm is an `OverrunI`: the tree traps `loop-bound` where the interpreter
does.  Expansion and tree building stop at `NODE_BUDGET` statements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .lang import (
    Assign,
    Binary,
    CallExpr,
    CallStmt,
    Expr,
    For,
    Function,
    If,
    Index,
    Num,
    Program,
    RegionMarker,
    Return,
    SizeOf,
    Stmt,
    Ternary,
    Unary,
    Var,
    While,
    WORD_SIZE,
    children,
    walk_all,
)
from .memory import PfoError


class LoweringError(PfoError):
    pass


# Operands: a register slot or an immediate.
@dataclass(frozen=True)
class Reg:
    slot: int


@dataclass(frozen=True)
class Const:
    value: int


Operand = Union[Reg, Const]


# --- micro-ops -------------------------------------------------------------

@dataclass(frozen=True)
class LoadI:
    """dst := obj[index]  (one data-read operand)."""
    dst: int
    obj: str
    index: Operand
    origin: str


@dataclass(frozen=True)
class StoreI:
    """obj[index] := src  (one data-write operand)."""
    obj: str
    index: Operand
    src: Operand
    origin: str


@dataclass(frozen=True)
class BinI:
    dst: int
    op: str
    a: Operand
    b: Operand
    origin: str


@dataclass(frozen=True)
class UnI:
    dst: int
    op: str
    a: Operand
    origin: str


@dataclass(frozen=True)
class SelI:
    """dst := cond ? a : b, computed branchlessly."""
    dst: int
    cond: Operand
    a: Operand
    b: Operand
    origin: str


@dataclass(frozen=True)
class MovI:
    dst: int
    a: Operand
    origin: str


@dataclass(frozen=True)
class CallI:
    """Transfer to a callee (interpreter mode only; trees inline calls)."""
    dst: Optional[int]
    fn: str
    args: tuple[Operand, ...]
    origin: str


@dataclass(frozen=True)
class RetI:
    value: Optional[Operand]
    origin: str


@dataclass(frozen=True)
class BranchI:
    """Block terminator: consumes the condition, no data operands."""
    cond: Operand
    origin: str


@dataclass(frozen=True)
class PadI:
    """Balancing filler: one dummy write to the pad object."""
    origin: str


@dataclass(frozen=True)
class NopI:
    origin: str


@dataclass(frozen=True)
class OverrunI:
    """Trap `loop-bound` without a step: an unrolled `while` whose
    condition still holds after `bound` trips."""
    bound: int
    origin: str


PAD_OBJECT = "__pad"

Instr = Union[LoadI, StoreI, BinI, UnI, SelI, MovI, CallI, RetI, BranchI, PadI, NopI,
              OverrunI]


def data_refs(instr: Instr) -> tuple[tuple[str, Operand, bool], ...]:
    """(object, index operand, is_write) triples an instruction touches."""
    if isinstance(instr, LoadI):
        return ((instr.obj, instr.index, False),)
    if isinstance(instr, StoreI):
        return ((instr.obj, instr.index, True),)
    if isinstance(instr, PadI):
        return ((PAD_OBJECT, Const(0), True),)
    return ()


# --- register allocation ---------------------------------------------------

class RegAlloc:
    """Flat register file shared by a whole compilation unit.

    Names are scoped by prefix (`fn/name` for locals, bare for globals);
    temporaries get fresh slots.  No recursion means every function can own
    static slots.
    """

    def __init__(self):
        self.slots: dict[str, int] = {}
        self._n = 0

    def slot(self, scoped_name: str) -> int:
        got = self.slots.get(scoped_name)
        if got is None:
            got = self._n
            self._n = got + 1
            self.slots[scoped_name] = got
        return got

    def temp(self) -> int:
        slot = self._n
        self._n += 1
        return slot

    @property
    def count(self) -> int:
        return self._n


# --- expression and statement lowering ---------------------------------

class _FnLowerer:
    """Lowers expressions and assignments into micro-ops appended to `instrs`.

    `scope` prefixes every name that is not a declared global scalar:
    `fn/` in a function body, and in an expanded region the entry's or
    the inlined call's own prefix (`_Expander`).  Operands are interned:
    one `Const` per value and one `Reg` per scoped variable; a temporary
    gets a fresh slot and `Reg` each time.
    """

    def __init__(self, program: Program, alloc: RegAlloc, scope: str, origin: str):
        self.program = program
        self.alloc = alloc
        self.scope = scope
        self.scalars = {d.name for d in program.decls if not d.is_array}
        self.instrs: list[Instr] = []
        self.origin = origin
        self.consts: dict[int, Const] = {}
        self.regs: dict[str, Reg] = {}

    def reg(self, name: str) -> Reg:
        # globals (declared scalars) share bare names; everything else is
        # scoped
        key = name if name in self.scalars else self.scope + name
        got = self.regs.get(key)
        if got is None:
            got = self.regs[key] = Reg(self.alloc.slot(key))
        return got

    def local(self, name: str) -> int:
        return self.reg(name).slot

    def emit(self, instr: Instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def copy(self, value: Operand) -> Reg:
        """`value` held in a fresh temporary, so later writes to the
        variable it names do not reach it."""
        dst = self.alloc.temp()
        self.instrs.append(MovI(dst, value, self.origin))
        return Reg(dst)

    def operand(self, e: Expr) -> Operand:
        if isinstance(e, Num):
            got = self.consts.get(e.value)
            if got is None:
                got = self.consts[e.value] = Const(e.value)
            return got
        if isinstance(e, Var):
            return self.reg(e.name)
        if isinstance(e, Index):
            idx = self.operand(e.index)
            dst = self.alloc.temp()
            self.instrs.append(LoadI(dst, e.name, idx, self.origin))
            return Reg(dst)
        if isinstance(e, (Binary, Unary, Ternary)):
            ops = [self.operand(c) for c in children(e)]
            dst = self.alloc.temp()
            if isinstance(e, Binary):
                self.instrs.append(BinI(dst, e.op, *ops, self.origin))
            elif isinstance(e, Unary):
                self.instrs.append(UnI(dst, e.op, *ops, self.origin))
            else:
                self.instrs.append(SelI(dst, *ops, self.origin))
            return Reg(dst)
        if isinstance(e, SizeOf):
            return Const(self.program.decl(e.name).byte_length)
        if isinstance(e, CallExpr):
            return self.call(e.name, e.args)
        raise LoweringError(f"cannot lower expression {e!r}")

    def call(self, name: str, args: tuple[Expr, ...]) -> Operand:
        """A `CallI`, which reads its argument operands when it runs: a
        global passed bare is copied where it is evaluated if a later
        argument calls a function, which may write it (a callee cannot
        write the caller's locals)."""
        arg_ops = []
        for i, a in enumerate(args):
            op = self.operand(a)
            if (isinstance(a, Var) and a.name in self.scalars
                    and any(isinstance(n, CallExpr) for n in walk_all(args[i + 1:]))):
                op = self.copy(op)
            arg_ops.append(op)
        dst = self.alloc.temp()
        self.emit(CallI(dst, name, tuple(arg_ops), self.origin))
        return Reg(dst)

    def assign(self, stmt: Assign) -> None:
        value = self.operand(stmt.value)
        name = stmt.target.name
        if isinstance(stmt.target, Var):
            self.instrs.append(MovI(self.local(name), value, self.origin))
        else:
            idx = self.operand(stmt.target.index)
            self.instrs.append(StoreI(name, idx, value, self.origin))


# --- interpreter-mode lowering ------------------------------------------

@dataclass
class RunNode:
    lo: int
    hi: int


@dataclass
class IfNode:
    cond_run: RunNode
    line: int
    branch_index: int
    then_node: "SeqNode"
    else_node: "SeqNode"


@dataclass
class ForNode:
    init_run: RunNode
    body: "SeqNode"
    step_run: RunNode
    trips: int


@dataclass
class WhileNode:
    cond_run: RunNode
    line: int
    branch_index: int
    body: "SeqNode"
    bound: int
    do_first: bool


@dataclass
class RetNode:
    run: RunNode
    ret_index: int


@dataclass
class SeqNode:
    items: list


@dataclass
class LoweredFunction:
    name: str
    params: tuple[int, ...]  # register slots for parameters
    instrs: list[Instr]
    body: SeqNode
    locals: tuple[int, ...]  # register slots of the other named locals
    run_starts: frozenset[int]  # where each `RunNode` of `body` starts


def lower_function(program: Program, fn: Function, alloc: RegAlloc) -> LoweredFunction:
    scope = f"{fn.name}/"
    first = len(alloc.slots)
    low = _FnLowerer(program, alloc, scope, fn.name)
    starts: set[int] = set()

    def run(lo: int, hi: int) -> RunNode:
        starts.add(lo)
        return RunNode(lo, hi)

    def lower_stmts(stmts) -> SeqNode:
        items: list = []
        for s in stmts:
            if isinstance(s, RegionMarker):
                continue
            if isinstance(s, Assign):
                lo = len(low.instrs)
                low.assign(s)
                items.append(run(lo, len(low.instrs)))
            elif isinstance(s, CallStmt):
                lo = len(low.instrs)
                low.call(s.name, s.args)
                items.append(run(lo, len(low.instrs)))
            elif isinstance(s, Return):
                lo = len(low.instrs)
                value = low.operand(s.value) if s.value is not None else None
                idx = low.emit(RetI(value, low.origin))
                items.append(RetNode(run(lo, idx), idx))
            elif isinstance(s, If):
                lo = len(low.instrs)
                bidx = low.emit(BranchI(low.operand(s.cond), low.origin))
                then_node = lower_stmts(s.then_body)
                else_node = lower_stmts(s.else_body)
                items.append(IfNode(run(lo, bidx), s.pos.line, bidx, then_node, else_node))
            elif isinstance(s, For):
                lo = len(low.instrs)
                var_slot = low.local(s.var)
                low.emit(MovI(var_slot, low.operand(s.init), low.origin))
                init_run = run(lo, len(low.instrs))
                body = lower_stmts(s.body)
                step_lo = len(low.instrs)
                low.emit(MovI(var_slot, low.operand(s.step), low.origin))
                items.append(ForNode(init_run, body, run(step_lo, len(low.instrs)), s.trips))
            elif isinstance(s, While):
                lo = len(low.instrs)
                bidx = low.emit(BranchI(low.operand(s.cond), low.origin))
                body = lower_stmts(s.body)
                items.append(WhileNode(run(lo, bidx), s.pos.line, bidx, body, s.bound,
                                        s.do_first))
            else:
                raise LoweringError(f"cannot lower statement {s!r}")
        return SeqNode(items)

    body = lower_stmts(fn.body)
    params = tuple(low.local(p) for p in fn.params)
    named = itertools.islice(alloc.slots.items(), first, None)
    locals_ = tuple(slot for name, slot in named
                    if name.startswith(scope) and slot not in params)
    return LoweredFunction(fn.name, params, low.instrs, body, locals_, frozenset(starts))


@dataclass
class LoweredProgram:
    program: Program
    alloc: RegAlloc
    functions: dict[str, LoweredFunction]

    def code_lengths(self) -> dict[str, int]:
        """Byte length of every function (for layout construction)."""
        return {name: len(fn.instrs) * WORD_SIZE for name, fn in self.functions.items()}


def lower_program(program: Program) -> LoweredProgram:
    """Every function lowered into one register file, then a slot for each
    declared scalar no function names, so the lowering is complete and
    nothing that compiles it allocates more (`Program.lowered` keeps it)."""
    alloc = RegAlloc()
    functions = {}
    for fn in program.functions:
        functions[fn.name] = lower_function(program, fn, alloc)
    for d in program.decls:
        if not d.is_array:
            alloc.slot(d.name)
    return LoweredProgram(program, alloc, functions)


# --- region extraction and tree-mode expansion ------------------------------

@dataclass(frozen=True)
class Region:
    """The sensitive span of the entry function, plus what surrounds it."""

    prefix: tuple[Stmt, ...]
    body: tuple[Stmt, ...]
    suffix: tuple[Stmt, ...]
    explicit: bool


def extract_region(program: Program) -> Region:
    """Split `main` into (before, sensitive region, after).

    Programs without markers treat the whole entry body as the region;
    parsing has checked that markers are one top-level pair in `main`.
    """
    body = program.entry.body
    marks = [i for i, s in enumerate(body) if isinstance(s, RegionMarker)]
    if not marks:
        return Region((), body, (), False)
    b, e = marks
    return Region(body[:b], body[b + 1:e], body[e + 1:], True)


@dataclass(frozen=True)
class IfItem:
    """A lowered conditional: `ops` evaluate the condition and end in its
    `BranchI`; the arms are item lists, already expanded."""

    ops: list[Instr]
    then_items: tuple
    else_items: tuple


@dataclass(frozen=True)
class IterMark:
    """Boundary between unrolled loop iterations (block delimiter)."""


class ExpansionBudgetError(PfoError):
    """Unrolled region exceeded `NODE_BUDGET`."""


class _Expander(_FnLowerer):
    """Lowers the sensitive region with calls inlined and loops unrolled.

    It lowers as `_FnLowerer` does, statement by statement, but a call
    binds each parameter right after its own argument, then runs the
    callee's statements, and stands for the callee's return value, copied
    into a temporary when it is a bare global.  Every inlined call gets
    its own scope (`callee@k/`), so its locals are fresh.  The output
    items are micro-op lists (a statement's or a parameter binding's ops,
    after those of the expression around a call that precede it),
    `IfItem`s and `IterMark`s, appended to `items`; `instrs` holds the ops
    not yet in an item.  Every expanded statement is charged against
    `NODE_BUDGET`.
    """

    def __init__(self, program: Program):
        entry = program.entry.name
        super().__init__(program, RegAlloc(), f"{entry}/", entry)
        self.items: list = []
        self.count = 0
        self.site = itertools.count()
        self.loop_stack: list = []
        self.single_exit: set[str] = set()  # callees checked for early returns

    def spend(self, loop_pos=None) -> None:
        self.count += 1
        if self.count > NODE_BUDGET:
            pos = loop_pos or (self.loop_stack[-1] if self.loop_stack else None)
            where = f" (loop at line {pos.line})" if pos else ""
            raise ExpansionBudgetError(
                f"unrolled region exceeds {NODE_BUDGET} statements{where}"
            )

    def flush(self) -> None:
        """The ops lowered so far become one item."""
        if self.instrs:
            self.items.append(self.instrs)
            self.instrs = []

    def block(self, stmts) -> list:
        """The items `stmts` expand to, apart from `items`."""
        outer, self.items = self.items, []
        self.stmts(stmts)
        inner, self.items = self.items, outer
        return inner

    def test(self, cond: Expr) -> tuple[list, list[Instr]]:
        """The items a condition's calls expand to, and the ops that
        evaluate it and branch on it."""
        outer, self.items = self.items, []
        self.emit(BranchI(self.operand(cond), self.origin))
        pre, self.items = self.items, outer
        ops, self.instrs = self.instrs, []
        return pre, ops

    def stmts(self, stmts) -> None:
        for s in stmts:
            if isinstance(s, RegionMarker):
                continue
            if isinstance(s, Assign):
                self.assign(s)
                self.flush()
                self.spend()
            elif isinstance(s, CallStmt):
                self.call(s.name, s.args)
                self.flush()
            elif isinstance(s, Return):
                raise LoweringError(
                    "return inside the sensitive region of `main` is unsupported"
                )
            elif isinstance(s, If):
                pre, ops = self.test(s.cond)
                self.items += pre
                self.items.append(IfItem(ops, tuple(self.block(s.then_body)),
                                         tuple(self.block(s.else_body))))
                self.spend()
            elif isinstance(s, For):
                var = self.local(s.var)
                self.emit(MovI(var, self.operand(s.init), self.origin))
                self.flush()
                self.loop_stack.append(s.pos)
                for trip in range(s.trips):
                    if trip:
                        self.items.append(IterMark())
                    self.stmts(s.body)
                    self.emit(MovI(var, self.operand(s.step), self.origin))
                    self.flush()
                    self.spend(s.pos)
                self.loop_stack.pop()
            elif isinstance(s, While):
                self.expand_while(s)
            else:
                raise LoweringError(f"cannot expand statement {s!r}")

    def expand_while(self, s: While) -> None:
        """A do-while's first body, then one conditional per remaining trip,
        each nested in the one before, and a last test of the condition
        whose true arm traps, as the interpreter does past the bound."""
        self.loop_stack.append(s.pos)
        if s.do_first:
            self.stmts(s.body)
        trips = []
        for _ in range(s.bound - s.do_first):
            self.spend(s.pos)
            trips.append((*self.test(s.cond), self.block(s.body)))
        self.spend(s.pos)
        rest, ops = self.test(s.cond)
        rest.append(IfItem(ops, ([OverrunI(s.bound, self.origin)],), ()))
        for pre, ops, body in reversed(trips):
            rest = pre + [IfItem(ops, tuple(body + rest), ())]
        self.items += rest
        self.loop_stack.pop()

    def call(self, name: str, args: tuple[Expr, ...]) -> Operand:
        callee = self.program.function(name)
        caller, origin = self.scope, self.origin
        scope = f"{name}@{next(self.site)}/"
        for p, a in zip(callee.params, args):
            value = self.operand(a)
            self.emit(MovI(self.alloc.slot(scope + p), value, origin))
            self.flush()
            self.spend()

        body = list(callee.body)
        tail = body.pop() if body and isinstance(body[-1], Return) else None
        if name not in self.single_exit:
            if any(isinstance(n, Return) for n in walk_all(body)):
                raise LoweringError(
                    f"{name}(): early returns are unsupported inside the sensitive region"
                )
            self.single_exit.add(name)

        self.scope, self.origin = scope, name
        self.stmts(body)
        # the return value is computed where the call stands, as the
        # caller's code
        self.origin = origin
        value: Operand = self.consts.setdefault(0, Const(0))
        if tail is not None and tail.value is not None:
            value = self.operand(tail.value)
            if isinstance(tail.value, Var) and tail.value.name in self.scalars:
                value = self.copy(value)
        self.scope = caller
        return value


# the most statements a region expands to, and items a tree places
NODE_BUDGET = 1 << 20


def expand_region(program: Program) -> tuple[list, RegAlloc]:
    """Lower the sensitive region of `main`, calls inlined and loops
    unrolled, into items (micro-op lists, `IfItem`s and `IterMark`s), and the
    register file they use.  A statement of `main` outside the region is
    an error: the tree would never run it.
    """
    region = extract_region(program)
    outside = region.prefix + region.suffix
    if outside:
        raise LoweringError(
            f"line {outside[0].pos.line}: tree mode runs only the sensitive "
            "region; move this statement of `main` inside it"
        )
    expander = _Expander(program)
    expander.stmts(region.body)
    return expander.items, expander.alloc
