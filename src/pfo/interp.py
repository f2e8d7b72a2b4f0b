"""Deterministic big-step interpreter with page-event accounting.

Two execution modes share one micro-op compiler:

* whole-function mode (`AstExecutable`): functions stay separate, calls
  transfer control, loop trip counts follow the data.  This is the
  reference semantics and what vanilla attack simulations run on.
* tree mode (`TreeExecutable`): a materialized execution tree is walked
  root to leaf; branches pick children.  Transformed (multiplexed)
  programs are tree executions with staging schedules wrapped around each
  level (see `transform`).

Every micro-op costs one logical step and emits one code fetch plus its
data operand events; staging copies cost one step per word moved.  The
interpreter is compiled to closures per (program, layout) because event
pages are layout-dependent; runs are then cheap and allocation-light.
The canonical initial array image is computed once per `ObjectTable`;
each run starts from a fresh copy of it, and its `SimulationResult.store`
holds those same arrays as the run left them, not further copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .exectree import Block, ExecutionTree
from .ir import (
    BinI,
    BranchI,
    CallI,
    Const,
    ForNode,
    IfNode,
    Instr,
    LoadI,
    LoweredProgram,
    MovI,
    NopI,
    PadI,
    PAD_OBJECT,
    Reg,
    RetI,
    RetNode,
    RunNode,
    SelI,
    SeqNode,
    StoreI,
    UnI,
    WhileNode,
    lower_program,
)
from .lang import DeclKind, Program, WORD_SIZE
from .layouts import build_ast_layout, build_tree_layout
from .memory import (
    AccessEvent,
    AdversaryModel,
    AdversaryVariant,
    EventKind,
    MemoryLayout,
    PfoError,
    PageModelError,
)


@dataclass(frozen=True)
class TrapInfo:
    kind: str  # 'index-oob' | 'div-zero' | 'loop-bound'
    step: int
    detail: str = ""


class SimTrap(PfoError):
    def __init__(self, info: TrapInfo):
        self.info = info
        super().__init__(f"trap {info.kind} at step {info.step}: {info.detail}")


@dataclass
class SimulationResult:
    """What one run observed and computed.

    `store` maps each program array (staging shadows and the pad object
    excluded) to the run's own array as the run left it; no later run
    shares it, so it is not copied.
    """

    outputs: dict[str, int]
    profile: list[int]
    steps: int
    copy_ops: int
    code_copy_ops: int
    mux_accesses: int
    trap: Optional[TrapInfo] = None
    trace: Optional[list[AccessEvent]] = None
    store: dict[str, list[int]] = field(default_factory=dict)

    @property
    def faults(self) -> int:
        return len(self.profile)

    def to_json_dict(self) -> dict:
        doc = {
            "outputs": dict(sorted(self.outputs.items())),
            "profile": self.profile,
            "faults": self.faults,
            "steps": self.steps,
            "copy_ops": self.copy_ops,
            "code_copy_ops": self.code_copy_ops,
            "mux_accesses": self.mux_accesses,
            "trap": None if self.trap is None else {
                "kind": self.trap.kind, "step": self.trap.step, "detail": self.trap.detail,
            },
        }
        if self.trace is not None:
            doc["trace"] = [
                {"kind": ev.kind.value, "page": ev.page, "step": ev.step}
                for ev in self.trace
            ]
        return doc


class Sink:
    """Event sink: step accounting, optional trace, optional pigeonhole."""

    __slots__ = (
        "pigeonhole", "limit", "resident", "faults", "steps",
        "copy_ops", "code_copy_ops", "mux_accesses", "events", "ev_step",
    )

    def __init__(self, pigeonhole: bool, limit: int, collect: bool):
        self.pigeonhole = pigeonhole
        self.limit = limit
        self.resident: frozenset = frozenset()
        self.faults: list[int] = []
        self.steps = 0
        self.copy_ops = 0
        self.code_copy_ops = 0
        self.mux_accesses = 0
        self.events: Optional[list[AccessEvent]] = [] if collect else None
        self.ev_step = 0

    def instr(self, code_page: int, dpages: tuple, kinds: tuple) -> None:
        self.steps += 1
        events = self.events
        if events is not None:
            events.append(AccessEvent(EventKind.CODE_FETCH, code_page, self.ev_step))
            self.ev_step += 1
            for p, k in zip(dpages, kinds):
                events.append(AccessEvent(k, p, self.ev_step))
                self.ev_step += 1
        if self.pigeonhole:
            needed = [code_page]
            for p in dpages:
                if p not in needed:
                    needed.append(p)
            if len(needed) > self.limit:
                raise PageModelError(
                    f"instruction needs {len(needed)} pages (limit {self.limit})"
                )
            resident = self.resident
            faults = self.faults
            for p in needed:
                if p not in resident:
                    faults.append(p)
            self.resident = frozenset(needed)

    def copy(self, code_page: int, src_page: int, dst_page: int, words: int,
             is_code: bool) -> None:
        """One staging copy of `words` words: stepped per word, one event group."""
        self.steps += words
        self.mux_accesses += words
        if is_code:
            self.code_copy_ops += 1
        else:
            self.copy_ops += 1
        self.instr(code_page, (src_page, dst_page), _KIND_RW)
        self.steps -= 1  # instr() charged 1; total cost stays `words`


_KIND_R = (EventKind.DATA_READ,)
_KIND_W = (EventKind.DATA_WRITE,)
_KIND_RW = (EventKind.DATA_READ, EventKind.DATA_WRITE)
_EMPTY = ()


class State:
    __slots__ = ("regs", "arrays", "sink", "branch", "aux")

    def __init__(self, regs, arrays, sink):
        self.regs = regs
        self.arrays = arrays
        self.sink = sink
        self.branch = 0
        self.aux: dict = {}


class _EarlyReturn(Exception):
    def __init__(self, value):
        self.value = value


# --- arithmetic ----------------------------------------------------------

def _make_canon(width: int) -> Callable[[int], int]:
    """Wrap an integer to `width`-bit two's complement."""
    mask = (1 << width) - 1
    sign_bit = 1 << (width - 1)
    wrap = 1 << width

    def canon(v: int) -> int:
        v &= mask
        return v - wrap if v >= sign_bit else v

    return canon


def _make_arith(width: int):
    canon = _make_canon(width)

    def div(a: int, b: int, sink: Sink) -> int:
        if b == 0:
            raise SimTrap(TrapInfo("div-zero", sink.steps))
        q = abs(a) // abs(b)
        return canon(-q if (a < 0) != (b < 0) else q)

    def mod(a: int, b: int, sink: Sink) -> int:
        if b == 0:
            raise SimTrap(TrapInfo("div-zero", sink.steps))
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return canon(a - q * b)

    ops: dict[str, Callable] = {
        "+": lambda a, b, s: canon(a + b),
        "-": lambda a, b, s: canon(a - b),
        "*": lambda a, b, s: canon(a * b),
        "/": div,
        "%": mod,
        # shift amounts reduce modulo the integer width
        "<<": lambda a, b, s: canon(a << (b % width)),
        ">>": lambda a, b, s: a >> (b % width),
        "&": lambda a, b, s: canon(a & b),
        "|": lambda a, b, s: canon(a | b),
        "^": lambda a, b, s: canon(a ^ b),
        "&&": lambda a, b, s: int(bool(a) and bool(b)),
        "==": lambda a, b, s: int(a == b),
        "!=": lambda a, b, s: int(a != b),
        "<": lambda a, b, s: int(a < b),
        ">": lambda a, b, s: int(a > b),
        "<=": lambda a, b, s: int(a <= b),
        ">=": lambda a, b, s: int(a >= b),
    }
    unops: dict[str, Callable] = {
        "-": lambda a: canon(-a),
        "+": lambda a: a,
        "~": lambda a: canon(~a),
        "!": lambda a: int(a == 0),
    }
    return canon, ops, unops


# --- object resolution --------------------------------------------------

class ObjectTable:
    """Array storage indices, the canonical initial array image (computed
    once per table), and per-object page resolvers for a layout."""

    def __init__(self, program: Program, layout: MemoryLayout,
                 extra_objects: dict[str, int] | None = None):
        self.names: list[str] = [d.name for d in program.arrays]
        if extra_objects:
            self.names.extend(n for n in extra_objects if n not in self.names)
        if PAD_OBJECT in layout.data_map and PAD_OBJECT not in self.names:
            self.names.append(PAD_OBJECT)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.lengths: list[int] = []
        self._image: list[list[int]] = []
        canon = _make_canon(program.int_width)
        for n in self.names:
            d = program.decl(n)
            if d is not None and d.is_array:
                length, init = d.array_len, d.init
            elif extra_objects and n in extra_objects:
                length, init = extra_objects[n], ()
            else:
                length, init = 1, ()
            arr = list(init)
            # canonical values form an interval, so in-range ends mean no
            # value needs wrapping
            if arr and any(canon(v) != v for v in (min(arr), max(arr))):
                arr = list(map(canon, arr))
            arr.extend([0] * (length - len(arr)))
            self.lengths.append(length)
            self._image.append(arr)
        self.layout = layout

    def fresh_arrays(self) -> list[list[int]]:
        """One run's arrays: a copy of the canonical initial image."""
        return [arr[:] for arr in self._image]

    def page_resolver(self, name: str) -> Callable[[int], int]:
        """word index -> page, honoring split extents."""
        extents = self.layout.data_extents(name)
        if len(extents) == 1:
            page = extents[0].page
            return lambda i: page
        spans = []
        word_base = 0
        for e in extents:
            words = e.length // WORD_SIZE
            spans.append((word_base, word_base + words, e.page))
            word_base += words
        def resolve(i: int) -> int:
            for lo, hi, page in spans:
                if lo <= i < hi:
                    return page
            return spans[-1][2]
        return resolve


def _accessor(op, canon):
    if isinstance(op, Const):
        v = canon(op.value)
        return lambda st: v
    slot = op.slot
    return lambda st: st.regs[slot]


class _OpCompiler:
    """Compiles micro-ops to closures for a fixed layout/page map."""

    def __init__(self, program: Program, objects: ObjectTable, width: int,
                 location_override: Optional[dict[str, Callable[[int], int]]] = None,
                 strict_pages: Optional[frozenset[int]] = None):
        self.program = program
        self.objects = objects
        self.canon, self.binops, self.unops = _make_arith(width)
        self._resolvers: dict[str, Callable[[int], int]] = {}
        self.location_override = location_override or {}
        self.strict_pages = strict_pages
        self.index_override: dict[str, int] = {}

    def _obj_index(self, obj: str) -> int:
        return self.index_override.get(obj, self.objects.index[obj])

    def resolver(self, obj: str) -> Callable[[int], int]:
        got = self._resolvers.get(obj)
        if got is None:
            if obj in self.location_override:
                got = self.location_override[obj]
            else:
                got = self.objects.page_resolver(obj)
            if self.strict_pages is not None:
                inner = got
                allowed = self.strict_pages
                def checked(i: int) -> int:
                    page = inner(i)
                    if page not in allowed:
                        raise PfoError(
                            f"execute-phase access escaped staging pages (page {page})"
                        )
                    return page
                got = checked
            self._resolvers[obj] = got
        return got

    def compile(self, instr: Instr, code_page: int,
                call_target: Optional[Callable] = None) -> Callable[[State], None]:
        canon = self.canon
        cp = code_page
        if isinstance(instr, BinI):
            fn = self.binops[instr.op]
            a = _accessor(instr.a, canon)
            b = _accessor(instr.b, canon)
            dst = instr.dst
            def run(st: State, fn=fn, a=a, b=b):
                st.sink.instr(cp, _EMPTY, _EMPTY)
                st.regs[dst] = fn(a(st), b(st), st.sink)
            return run
        if isinstance(instr, MovI):
            a = _accessor(instr.a, canon)
            dst = instr.dst
            def run(st: State, a=a):
                st.sink.instr(cp, _EMPTY, _EMPTY)
                st.regs[dst] = a(st)
            return run
        if isinstance(instr, LoadI):
            a = _accessor(instr.index, canon)
            oi = self._obj_index(instr.obj)
            n = self.objects.lengths[oi]
            pg = self.resolver(instr.obj)
            dst = instr.dst
            obj = instr.obj
            def run(st: State, a=a, pg=pg):
                i = a(st)
                if i < 0 or i >= n:
                    raise SimTrap(TrapInfo("index-oob", st.sink.steps, f"{obj}[{i}]"))
                st.sink.instr(cp, (pg(i),), _KIND_R)
                st.regs[dst] = st.arrays[oi][i]
            return run
        if isinstance(instr, StoreI):
            a = _accessor(instr.index, canon)
            src = _accessor(instr.src, canon)
            oi = self._obj_index(instr.obj)
            n = self.objects.lengths[oi]
            pg = self.resolver(instr.obj)
            obj = instr.obj
            def run(st: State, a=a, src=src, pg=pg):
                i = a(st)
                if i < 0 or i >= n:
                    raise SimTrap(TrapInfo("index-oob", st.sink.steps, f"{obj}[{i}]"))
                st.sink.instr(cp, (pg(i),), _KIND_W)
                st.arrays[oi][i] = src(st)
            return run
        if isinstance(instr, UnI):
            fn = self.unops[instr.op]
            a = _accessor(instr.a, canon)
            dst = instr.dst
            def run(st: State, fn=fn, a=a):
                st.sink.instr(cp, _EMPTY, _EMPTY)
                st.regs[dst] = fn(a(st))
            return run
        if isinstance(instr, SelI):
            c = _accessor(instr.cond, canon)
            a = _accessor(instr.a, canon)
            b = _accessor(instr.b, canon)
            dst = instr.dst
            def run(st: State, c=c, a=a, b=b):
                st.sink.instr(cp, _EMPTY, _EMPTY)
                st.regs[dst] = a(st) if c(st) else b(st)
            return run
        if isinstance(instr, BranchI):
            c = _accessor(instr.cond, canon)
            def run(st: State, c=c):
                st.sink.instr(cp, _EMPTY, _EMPTY)
                st.branch = 1 if c(st) else 0
            return run
        if isinstance(instr, PadI):
            oi = self._obj_index(PAD_OBJECT)
            pg = self.resolver(PAD_OBJECT)
            def run(st: State, pg=pg):
                st.sink.instr(cp, (pg(0),), _KIND_W)
                st.arrays[oi][0] = 0
            return run
        if isinstance(instr, NopI):
            def run(st: State):
                st.sink.instr(cp, _EMPTY, _EMPTY)
            return run
        if isinstance(instr, RetI):
            value = None if instr.value is None else _accessor(instr.value, canon)
            def run(st: State, value=value):
                st.sink.instr(cp, _EMPTY, _EMPTY)
                raise _EarlyReturn(0 if value is None else value(st))
            return run
        if isinstance(instr, CallI):
            args = tuple(_accessor(a, canon) for a in instr.args)
            target = call_target
            dst = instr.dst
            def run(st: State, args=args, target=target):
                st.sink.instr(cp, _EMPTY, _EMPTY)
                values = [a(st) for a in args]
                result = target(st, values)
                if dst is not None:
                    st.regs[dst] = 0 if result is None else result
            return run
        raise PfoError(f"cannot compile {instr!r}")


# --- whole-function executable ----------------------------------------------

class AstExecutable:
    """Layout-specialized compilation of a whole program."""

    def __init__(self, program: Program, layout: Optional[MemoryLayout] = None,
                 page_size: Optional[int] = None):
        self.program = program
        self.lowered = lower_program(program)
        if layout is None:
            layout = build_ast_layout(self.lowered, program.resolve_page_size(page_size))
        self.layout = layout
        self.objects = ObjectTable(program, layout)
        self.width = program.int_width
        self._compiler = _OpCompiler(program, self.objects, self.width)
        self.canon = self._compiler.canon
        self._fn_runners: dict[str, Callable] = {}
        for name in self.lowered.functions:
            self._compile_function(name)
        self._decl_slots = {
            d.name: self.lowered.alloc.slot(d.name)
            for d in program.decls if not d.is_array
        }
        self.reg_count = self.lowered.alloc.count
        self._stored = [
            (name, self.objects.index[name])
            for name in self.objects.names if name != PAD_OBJECT
        ]

    def _code_pages(self, name: str) -> list[int]:
        fn = self.lowered.functions[name]
        extents = self.layout.code_extents(name) if fn.instrs else ()
        pages: list[int] = []
        byte = 0
        for ext in extents:
            count = ext.length // WORD_SIZE
            pages.extend([ext.page] * count)
            byte += ext.length
        return pages

    def _compile_function(self, name: str):
        if name in self._fn_runners:
            return self._fn_runners[name]
        fn = self.lowered.functions[name]
        pages = self._code_pages(name)
        closures: list[Optional[Callable]] = [None] * len(fn.instrs)

        def call_target_for(instr: CallI):
            callee = instr.fn
            def target(st: State, values):
                return self._invoke(callee, st, values)
            return target

        for idx, instr in enumerate(fn.instrs):
            target = call_target_for(instr) if isinstance(instr, CallI) else None
            closures[idx] = self._compiler.compile(instr, pages[idx], target)

        def compile_run(node: RunNode) -> Callable:
            batch = tuple(closures[node.lo:node.hi])
            def run(st: State):
                for f in batch:
                    f(st)
            return run

        def compile_seq(seq: SeqNode) -> Callable:
            items = []
            for item in seq.items:
                if isinstance(item, RunNode):
                    items.append((compile_run(item), False))
                elif isinstance(item, RetNode):
                    pre = compile_run(item.run)
                    ret_closure = closures[item.ret_index]
                    def run_ret(st: State, pre=pre, rc=ret_closure):
                        pre(st)
                        rc(st)
                    items.append((run_ret, False))
                elif isinstance(item, IfNode):
                    cond_run = compile_run(item.cond_run)
                    branch = closures[item.branch_index]
                    then_run = compile_seq(item.then_node)
                    else_run = compile_seq(item.else_node)
                    def run_if(st: State, cond_run=cond_run, branch=branch,
                               then_run=then_run, else_run=else_run):
                        cond_run(st)
                        branch(st)
                        if st.branch:
                            then_run(st)
                        else:
                            else_run(st)
                    items.append((run_if, False))
                elif isinstance(item, ForNode):
                    init_run = compile_run(item.init_run)
                    body = compile_seq(item.body)
                    step_run = compile_run(item.step_run)
                    trips = item.trips
                    def run_for(st: State, init_run=init_run, body=body,
                                step_run=step_run, trips=trips):
                        init_run(st)
                        for _ in range(trips):
                            body(st)
                            step_run(st)
                    items.append((run_for, False))
                elif isinstance(item, WhileNode):
                    cond_run = compile_run(item.cond_run)
                    branch = closures[item.branch_index]
                    body = compile_seq(item.body)
                    bound = item.bound
                    do_first = item.do_first
                    def run_while(st: State, cond_run=cond_run, branch=branch,
                                  body=body, bound=bound, do_first=do_first):
                        n = 0
                        if do_first:
                            if bound == 0:
                                return
                            body(st)
                            n = 1
                        while True:
                            cond_run(st)
                            branch(st)
                            if not st.branch:
                                return
                            if n >= bound:
                                raise SimTrap(
                                    TrapInfo("loop-bound", st.sink.steps,
                                             f"exceeded bound {bound}")
                                )
                            body(st)
                            n += 1
                    items.append((run_while, False))
                else:
                    raise PfoError(f"cannot compile node {item!r}")
            runners = tuple(f for f, _ in items)
            def run(st: State):
                for f in runners:
                    f(st)
            return run

        body_runner = compile_seq(fn.body)
        params = fn.params

        def runner(st: State, values):
            for slot, v in zip(params, values):
                st.regs[slot] = v
            try:
                body_runner(st)
            except _EarlyReturn as ret:
                return ret.value
            return None

        self._fn_runners[name] = runner
        return runner

    def _invoke(self, name: str, st: State, values):
        return self._fn_runners[name](st, values)

    def run(self, secret: dict[str, int] | None = None,
            public: dict[str, int] | None = None,
            model: Optional[AdversaryModel] = None,
            collect_trace: bool = False) -> SimulationResult:
        model = model or AdversaryModel.pigeonhole()
        sink = Sink(
            pigeonhole=model.variant is AdversaryVariant.PIGEONHOLE,
            limit=model.resident_limit,
            collect=collect_trace,
        )
        regs = [0] * self.reg_count
        st = State(regs, self.objects.fresh_arrays(), sink)
        _bind_inputs(self.program, self._decl_slots, st, self.canon, secret, public)
        trap = None
        try:
            self._fn_runners["main"](st, [])
        except SimTrap as t:
            trap = t.info
        outputs = {
            d.name: st.regs[self._decl_slots[d.name]] for d in self.program.outputs
        }
        store = {name: st.arrays[i] for name, i in self._stored}
        return SimulationResult(
            outputs=outputs,
            profile=sink.faults,
            steps=sink.steps,
            copy_ops=sink.copy_ops,
            code_copy_ops=sink.code_copy_ops,
            mux_accesses=sink.mux_accesses,
            trap=trap,
            trace=sink.events,
            store=store,
        )


def _bind_inputs(program: Program, decl_slots, st: State, canon,
                 secret: dict[str, int] | None, public: dict[str, int] | None):
    secret = dict(secret or {})
    public = dict(public or {})
    for d in program.decls:
        if d.is_array:
            continue
        slot = decl_slots[d.name]
        if d.kind == DeclKind.SECRET:
            if d.name not in secret:
                raise PfoError(f"secret {d.name!r} not bound")
            v = secret.pop(d.name)
            if d.width is not None and not (0 <= v < (1 << d.width)):
                raise PfoError(
                    f"secret {d.name!r} must be in [0, 2^{d.width}), got {v}"
                )
            st.regs[slot] = canon(v)
        elif d.kind == DeclKind.PUBLIC:
            v = public.pop(d.name, d.init[0] if d.init else 0)
            if d.width is not None and not (0 <= v < (1 << d.width)):
                raise PfoError(
                    f"public {d.name!r} must be in [0, 2^{d.width}), got {v}"
                )
            st.regs[slot] = canon(v)
        else:
            st.regs[slot] = canon(d.init[0]) if d.init else 0
    if secret:
        raise PfoError(f"unknown secret inputs: {sorted(secret)}")
    if public:
        raise PfoError(f"unknown public inputs: {sorted(public)}")


# --- tree executable --------------------------------------------------------

class TreeExecutable:
    """Root-to-leaf walker over a (possibly balanced) execution tree.

    Optional hooks let the transform wrap levels with staging phases:
    `on_level(st, level_index, block)` runs before a block executes and
    `on_exit(st)` after the leaf; block instructions may be relocated and
    redirected by supplying `compiler_factory`.
    """

    def __init__(self, tree: ExecutionTree, layout: Optional[MemoryLayout] = None,
                 page_size: Optional[int] = None,
                 objects: Optional[ObjectTable] = None,
                 compiler: Optional[_OpCompiler] = None,
                 code_page_for: Optional[Callable[[Block, int], int]] = None,
                 on_level: Optional[Callable] = None,
                 on_block_end: Optional[Callable] = None,
                 on_exit: Optional[Callable] = None):
        self.tree = tree
        program = tree.program
        self.program = program
        if layout is None:
            layout = build_tree_layout(tree, program.resolve_page_size(page_size))
        self.layout = layout
        self.objects = objects or ObjectTable(program, layout)
        self.width = program.int_width
        self.compiler = compiler or _OpCompiler(program, self.objects, self.width)
        self.canon = self.compiler.canon
        self.on_level = on_level
        self.on_block_end = on_block_end
        self.on_exit = on_exit

        if code_page_for is None:
            def code_page_for(block: Block, idx: int) -> int:
                extents = layout.code_extents(f"BB{block.id}")
                byte = idx * WORD_SIZE
                for ext in extents:
                    if byte < ext.length:
                        return ext.page
                    byte -= ext.length
                return extents[-1].page

        self._block_runners: dict[int, Callable] = {}
        for block in tree.blocks:
            closures = tuple(
                self.compiler.compile(instr, code_page_for(block, i))
                for i, instr in enumerate(block.instrs)
            )
            def run_block(st: State, closures=closures):
                for f in closures:
                    f(st)
            self._block_runners[block.id] = run_block

        self._decl_slots = {
            d.name: tree.alloc.slot(d.name)
            for d in program.decls if not d.is_array
        }
        self.reg_count = tree.alloc.count
        self._stored = [
            (name, self.objects.index[name])
            for name in self.objects.names
            if name != PAD_OBJECT and not name.startswith("__sa")
        ]

    def run(self, secret: dict[str, int] | None = None,
            public: dict[str, int] | None = None,
            model: Optional[AdversaryModel] = None,
            collect_trace: bool = False) -> SimulationResult:
        model = model or AdversaryModel.pigeonhole()
        sink = Sink(
            pigeonhole=model.variant is AdversaryVariant.PIGEONHOLE,
            limit=model.resident_limit,
            collect=collect_trace,
        )
        regs = [0] * self.reg_count
        st = State(regs, self.objects.fresh_arrays(), sink)
        _bind_inputs(self.program, self._decl_slots, st, self.canon, secret, public)
        trap = None
        try:
            block = self.tree.root
            while True:
                if self.on_level is not None:
                    self.on_level(st, block)
                self._block_runners[block.id](st)
                if self.on_block_end is not None:
                    self.on_block_end(st, block)
                if block.is_leaf:
                    break
                if block.branch is not None:
                    block = block.children[0] if st.branch else block.children[1]
                else:
                    block = block.children[0]
            if self.on_exit is not None:
                self.on_exit(st)
        except SimTrap as t:
            trap = t.info
        outputs = {
            d.name: st.regs[self._decl_slots[d.name]] for d in self.program.outputs
        }
        store = {name: st.arrays[i] for name, i in self._stored}
        return SimulationResult(
            outputs=outputs,
            profile=sink.faults,
            steps=sink.steps,
            copy_ops=sink.copy_ops,
            code_copy_ops=sink.code_copy_ops,
            mux_accesses=sink.mux_accesses,
            trap=trap,
            trace=sink.events,
            store=store,
        )


def simulate(program: Program, layout: Optional[MemoryLayout] = None,
             secret: dict[str, int] | None = None,
             public: dict[str, int] | None = None,
             model: Optional[AdversaryModel] = None,
             page_size: Optional[int] = None,
             collect_trace: bool = False) -> SimulationResult:
    """One-shot reference simulation of a program under a layout."""
    exe = AstExecutable(program, layout, page_size)
    return exe.run(secret, public, model, collect_trace)
