"""Deterministic big-step interpreter with page-event accounting.

Two execution modes share one micro-op compiler:

* whole-function mode (`AstExecutable`): functions stay separate, calls
  transfer control, loop trip counts follow the data.  This is the
  reference semantics and what vanilla attack simulations run on.
* tree mode (`TreeExecutable`): a materialized execution tree is walked
  root to leaf, each block one flat tuple of ops; branches pick
  children.  Transformed (multiplexed) programs are tree executions whose
  block tuples also hold the staging schedule: the copies that enter the
  level, the selector update and, after a leaf, the last copy-back (see
  `transform.MultiplexedExecutable`).

Every micro-op costs one logical step and emits one code fetch plus its
data operand events; staging copies cost one step per word moved.  The
interpreter is compiled to Python functions per (program, layout)
because event pages are layout-dependent; runs are then cheap and
allocation-light:

* footprints: each micro-op's page events (code page, data pages and
  their kinds, the distinct pages it needs and their set) are fixed at
  compile time in an interned `Footprint`, an instruction's or an array
  word's page by the one rule of `layouts.word_runs`.  `Sink.instr(fp)`
  is the pigeonhole rule (`memory.observe_profile` is the trace-replay
  reference).
* inlined ops: the compiler gives each micro-op as a value-only op,
  which computes values only, with the charge its step adds
  (`_OpCompiler.compile_run`).  A move, an operator, a select, a branch,
  a pad write and a static load or store is inlined: a statement
  template and its operands (slots, array index, length, name).  An
  operator's statements come from the operator table
  (`lang.operator_lines`, which `lang.arith`'s functions run too).  Each
  micro-op is its own op, so `x = a op b` is an operator op and a move.
  A staging copy, a selector update, a merged call and a loop bound's
  trap stay closures.  Some ops account for themselves as they run: a
  split-extent access (its footprint depends on the word index), a
  nested return, a call that is not merged, and a `for` or `while` of
  whole-function mode, which walks its body's nodes.
* nodes: both modes run a graph of `(segments, kids)` nodes with one
  loop, `_run`: a node's segments in order, then the kid its last op's
  branch picks (`kids` is `None` where a walk ends).  Tree mode has a
  node per block.  Whole-function mode ends a node at each `if`'s
  branch, its kids the else and then arms, and both arms go on to one
  shared node for what follows the `if`, so nothing is copied; a `for`
  walks its body's graph `trips` times in one `_run`.
* segments: a node's ops are cut at the self-accounting ones, and every
  run of charged ops is summarised once, at construction, by running a
  scratch `Sink` over its charges (`Summary`): the OS keeps exactly the
  previous step's pages, so all but the first step's faults are fixed.
  Each run of charged ops is also one generated Python function per
  chunk of at most `CHUNK_OPS` ops (`_segment`): its body inlines each
  op's statements and calls the closures, so a chunk costs one Python
  call, not one per op.  A function's code is keyed by its shape, the
  sequence of its ops' templates, and compiled on the shape's first use
  in the process (`_chunk_code`); each chunk binds its own operands as
  the function's defaults (`_chunk`).  `_run` calls a segment's
  functions and then adds the whole segment in one `Sink.account`, which
  looks the faults from its resident set up in the summary's memo.
  Tree blocks given one op list share one segment tuple
  (`TreeExecutable._link`).
* calls: in whole-function mode a function whose body is straight-line
  code (an optional tail `return`), whose ops are all charged and whose
  callees are all merged, is summarised whole, and a call to it is
  merged into its caller's segment.  A merged call to a leaf callee (no
  call, no write to a parameter or an argument's slot, no local read
  before it is written) is compiled in place: the call's step, the
  callee's ops at its own code pages reading the arguments' slots, and
  its tail return as a move into the call's destination.  A merged call
  to another summarised callee is one charged op, its charge a closure
  (as a staging copy's is): the call's step, then the callee's summary.
  Each executable merges at most `NODE_BUDGET` such steps, so neither
  expands a large call tree; past that, a call steps and runs the
  callee's graph.
* traps: a trapping op raises without a step count.  A segment's
  generated function sets the index of each op that may trap before it
  runs, and turns a trap into one that records the charges of the ops
  before it, and of a division its own (`_unwound`); a merged call adds
  its own step before the callee's.  The runner that catches it charges
  those prefixes outermost first (`_trap_info`).  So a trap's step,
  profile and trace are those of charging each step as it runs.  A `/`
  or `%` by zero raises Python's `ZeroDivisionError` in the function,
  which makes it the `div-zero` trap of that op, counting the division's
  own step, before its register is written.
* constant slots: every constant operand reads a register slot above the
  program's own, filled once per run from the register template, so an
  operand is always `regs[slot]`.
* tail returns: a `return` that ends a function body is charged as the
  body's last step and its value read from its slot; only nested ones
  unwind through `_EarlyReturn`.

Each executable makes its run frame once (`_Frame`): the register
template, the input-binding plan, and the canonical initial array image
of its `ObjectTable` with the set of arrays some compiled op writes (a
store, a pad write, the selector, a staging copy's destination).  A run
copies only those arrays and shares every other one with the image, so
no op may write an array outside that set.  An array no op stores into
is the image's in every executable: a multiplexed one makes its staging
shadow the image's own list too, and charges its copies without moving
a word, so neither is in the set.  Its `SimulationResult.store` holds
the program's arrays (`Program.arrays`, so never a staging shadow or the
pad object): the run's own as the run left them, not further copies,
and the image's for the others; those are shared by every run and must
not be mutated.

A traced run stores its trace as the footprint of each step, in step
order (`SimulationResult.footprints`), not as events: a step appends its
interned `Footprint` (a summary its footprint tuple) and nothing else.
`SimulationResult.trace` expands that list once, on first read, into the
`AccessEvent` stream: the code fetch, then each data operand, stamped
with a counter that rises by one per event.  Consumers that need only
pages per step (the contract layer's access schedule) read the
footprints directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby, repeat
from types import CodeType, FunctionType
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
    MovI,
    NopI,
    Operand,
    OverrunI,
    PadI,
    NODE_BUDGET,
    PAD_OBJECT,
    Reg,
    RegAlloc,
    RetI,
    RetNode,
    RunNode,
    SelI,
    StoreI,
    UnI,
    WhileNode,
    writes_before_reads,
)
from .lang import (
    BINARY_OPERATORS,
    PREFIX_OPERATORS,
    DeclKind,
    Program,
    arith,
    operator_lines,
)
from .layouts import build_ast_layout, build_tree_layout, word_runs
from .memory import (
    AccessEvent,
    AdversaryModel,
    AdversaryVariant,
    EventKind,
    MAX_PAGES_PER_INSTRUCTION,
    MemoryLayout,
    PfoError,
    PageModelError,
)


@dataclass(frozen=True)
class TrapInfo:
    kind: str  # 'index-oob' | 'div-zero' | 'loop-bound'
    step: int
    detail: str = ""


# an integer below this in size is written in decimal: by default Python
# writes no decimal of more digits (`sys.set_int_max_str_digits`)
_DECIMAL = 10 ** 4300


def _int_text(v: int) -> str:
    """An input or index as a message writes it: in decimal, or in
    hexadecimal when it has more than 4300 decimal digits."""
    return str(v) if -_DECIMAL < v < _DECIMAL else hex(v)


class SimTrap(PfoError):
    """A trap, raised without its step: the runner that catches it makes the
    `TrapInfo` (`_trap_info`).  `prefixes` gathers, innermost first, the
    charges that each summarised segment or call it unwinds through had
    not yet made."""

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind
        self.detail = detail
        self.prefixes: list[tuple] = []
        super().__init__(f"trap {kind}: {detail}")


@dataclass
class SimulationResult:
    """What one run observed and computed.

    `store` maps each program array (staging shadows and the pad object
    excluded) to its words as the run left them.  An array some op of the
    executable writes is the run's own copy, which no later run shares.
    Any other array, and so every array no op stores into (staged or
    not), is the executable's initial image itself, shared by every run
    and every result: it must not be mutated.
    """

    outputs: dict[str, int]
    profile: list[int]
    steps: int
    copy_ops: int
    code_copy_ops: int
    mux_accesses: int
    trap: Optional[TrapInfo] = None
    footprints: Optional[list[Footprint]] = field(default=None, repr=False)
    store: dict[str, list[int]] = field(default_factory=dict)
    _trace: Optional[list[AccessEvent]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def faults(self) -> int:
        return len(self.profile)

    @property
    def trace(self) -> Optional[list[AccessEvent]]:
        """The traced run's page events (`None` if untraced), expanded from
        its footprints on first read."""
        if self._trace is None and self.footprints is not None:
            self._trace = _expand_trace(self.footprints)
        return self._trace

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


class Footprint:
    """The page events of one micro-op, fixed when it is compiled.

    `code` is the page fetched, `pages`/`kinds` the data operand pages and
    their event kinds in operand order, `need` the distinct pages the
    instruction needs in canonical order (code page first), and `need_set`
    the same pages as a set.  A `FootprintTable` interns footprints and
    their sets, so consecutive instructions with the same pages share one
    `need_set` object; nothing depends on that but speed.
    """

    __slots__ = ("code", "pages", "kinds", "need", "need_set")

    def __init__(self, code: int, pages: tuple = (), kinds: tuple = ()):
        self.code = code
        self.pages = pages
        self.kinds = kinds
        need = (code,)
        for p in pages:
            if p not in need:
                need += (p,)
        self.need = need
        self.need_set = frozenset(need)

    # footprints compare by value, not by which table interned them, so two
    # traced results are equal exactly when their events are
    def _key(self) -> tuple:
        return (self.code, self.pages, self.kinds)

    def __eq__(self, other):
        if not isinstance(other, Footprint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class FootprintTable:
    """Interns footprints, and the page sets of equal footprints' needs.

    A footprint that needs more than `MAX_PAGES_PER_INSTRUCTION` pages is
    an error when it is interned, so no step has to check.
    """

    def __init__(self):
        self._footprints: dict[tuple, Footprint] = {}
        self._need_sets: dict[frozenset, frozenset] = {}

    def __call__(self, code: int, pages: tuple = (), kinds: tuple = ()) -> Footprint:
        key = (code, pages, kinds)
        got = self._footprints.get(key)
        if got is None:
            got = Footprint(code, pages, kinds)
            if len(got.need) > MAX_PAGES_PER_INSTRUCTION:
                raise PageModelError(
                    f"instruction needs {len(got.need)} pages "
                    f"(limit {MAX_PAGES_PER_INSTRUCTION})"
                )
            got.need_set = self._need_sets.setdefault(got.need_set, got.need_set)
            self._footprints[key] = got
        return got


def _expand_trace(footprints: list[Footprint]) -> list[AccessEvent]:
    """Each step's code fetch and data operand events, numbered in order."""
    events: list[AccessEvent] = []
    append = events.append
    fetch = EventKind.CODE_FETCH
    n = 0
    for fp in footprints:
        append(AccessEvent(fetch, fp.code, n))
        n += 1
        for p, k in zip(fp.pages, fp.kinds):
            append(AccessEvent(k, p, n))
            n += 1
    return events


class Sink:
    """Event sink: step accounting, optional trace, optional pigeonhole.

    `resident` is the page set of the last step taken under either model;
    only the pigeonhole model turns the pages it lacks into faults.
    """

    __slots__ = (
        "pigeonhole", "resident", "faults", "steps",
        "copy_ops", "code_copy_ops", "mux_accesses", "footprints",
    )

    def __init__(self, pigeonhole: bool, collect: bool):
        self.pigeonhole = pigeonhole
        self.resident: frozenset = frozenset()
        self.faults: list[int] = []
        self.steps = 0
        self.copy_ops = 0
        self.code_copy_ops = 0
        self.mux_accesses = 0
        self.footprints: Optional[list[Footprint]] = [] if collect else None

    def instr(self, fp: Footprint) -> None:
        """One instruction step: the trace, then the pigeonhole rule.

        The OS keeps exactly the pages the previous instruction needed, so
        every needed page not resident faults.  While the resident set is
        this footprint's own set, every needed page is resident.
        """
        self.steps += 1
        if self.footprints is not None:
            self.footprints.append(fp)
        if self.resident is not fp.need_set:
            if self.pigeonhole:
                resident = self.resident
                faults = self.faults
                for p in fp.need:
                    if p not in resident:
                        faults.append(p)
            self.resident = fp.need_set

    def copy(self, fp: Footprint, words: int, is_code: bool) -> None:
        """One staging copy of `words` words: stepped per word, one event group."""
        self.steps += words
        self.mux_accesses += words
        if is_code:
            self.code_copy_ops += 1
        else:
            self.copy_ops += 1
        self.instr(fp)
        self.steps -= 1  # instr() charged 1; total cost stays `words`

    def charge(self, charges) -> None:
        """Ops' static charges, in order: each an instruction's `Footprint`,
        or a callable that charges this sink (a staging copy, a selector or
        a summarised call)."""
        instr = self.instr
        for c in charges:
            if c.__class__ is Footprint:
                instr(c)
            else:
                c(self)

    def account(self, s: "Summary") -> None:
        """A summarised segment's steps, counters and trace, and its faults
        from this sink's resident set (`Summary.faults_from`)."""
        self.steps += s.steps
        if s.copies:
            self.copy_ops += s.copy_ops
            self.code_copy_ops += s.code_copy_ops
            self.mux_accesses += s.mux_accesses
        if self.footprints is not None:
            self.footprints += s.footprints
        if s.first is None:
            return  # no step: the resident set stays
        if self.pigeonhole:
            faults = s.entry_faults.get(self.resident)
            if faults is None:
                faults = s.faults_from(self.resident)
            if faults:
                self.faults += faults
        self.resident = s.exit


class Summary:
    """What a segment of statically charged ops adds to a `Sink`, computed
    once by running a scratch sink over their `charges`.

    Every step's pages are fixed and the OS keeps exactly the previous
    step's pages, so everything but the first step's faults is the same
    for every run: the steps and counters, the footprints, the faults from
    the second step on and the resident set at exit.  `first` is the
    first step's footprint (`None` when no op steps), and `copies` whether
    any charge is a staging copy (else the copy counters are 0).
    """

    __slots__ = ("charges", "steps", "copy_ops", "code_copy_ops", "mux_accesses",
                 "copies", "footprints", "first", "faults", "exit", "entry_faults")

    def __init__(self, charges: tuple):
        scratch = Sink(pigeonhole=True, collect=True)
        scratch.charge(charges)
        fps = scratch.footprints
        self.charges = charges
        self.steps = scratch.steps
        self.copy_ops = scratch.copy_ops
        self.code_copy_ops = scratch.code_copy_ops
        self.mux_accesses = scratch.mux_accesses
        self.copies = bool(self.copy_ops or self.code_copy_ops or self.mux_accesses)
        self.footprints = tuple(fps)
        self.first = fps[0] if fps else None
        # from an empty resident set the first step faults all its pages
        self.faults = tuple(scratch.faults[len(fps[0].need) if fps else 0:])
        self.exit = scratch.resident
        # every fault of the segment, by the resident set it starts from.
        # Resident sets are interned page sets, so few keys recur
        self.entry_faults: dict[frozenset, tuple] = {}

    def faults_from(self, entry: frozenset) -> tuple:
        """The pages the segment faults on when it starts from resident
        set `entry` (remembered in `entry_faults`)."""
        first = self.first
        faults = self.faults
        if first is not None and entry is not first.need_set:
            faults = tuple(p for p in first.need if p not in entry) + faults
        self.entry_faults[entry] = faults
        return faults

    def ends(self, entry: frozenset) -> tuple:
        """The faults and the resident set the segment leaves when it runs
        from resident set `entry`."""
        return self.faults_from(entry), entry if self.first is None else self.exit


_KIND_R = (EventKind.DATA_READ,)
_KIND_W = (EventKind.DATA_WRITE,)
_KIND_RW = (EventKind.DATA_READ, EventKind.DATA_WRITE)


class State:
    __slots__ = ("regs", "arrays", "sink", "branch")

    def __init__(self, regs, arrays, sink):
        self.regs = regs
        self.arrays = arrays
        self.sink = sink
        self.branch = 0


class _EarlyReturn(Exception):
    """A `return` nested in a function body (a tail return just returns)."""

    def __init__(self, value):
        self.value = value


# --- object resolution --------------------------------------------------

class ObjectTable:
    """Array storage indices, the canonical initial array image (computed
    once per table, and never written: a run copies the arrays it writes;
    a multiplexed executable points each never-stored array's shadow at
    that array's own list), and the layout that places them."""

    def __init__(self, program: Program, layout: MemoryLayout,
                 extra_objects: dict[str, int] | None = None):
        self.names: list[str] = [d.name for d in program.arrays]
        if extra_objects:
            self.names.extend(n for n in extra_objects if n not in self.names)
        if PAD_OBJECT in layout.data_map:
            self.names.append(PAD_OBJECT)
        self.index = {n: i for i, n in enumerate(self.names)}
        self.lengths: list[int] = []
        self.image: list[list[int]] = []
        for n in self.names:
            d = program.decl(n)
            if d is not None and d.is_array:
                length, init = d.array_len, d.init
            elif extra_objects and n in extra_objects:
                length, init = extra_objects[n], ()
            else:
                length, init = 1, ()
            arr = list(init)
            arr.extend([0] * (length - len(arr)))
            self.lengths.append(length)
            self.image.append(arr)
        self.layout = layout


class _OpCompiler:
    """Compiles micro-ops to value-only ops for a fixed layout/page map.

    Every page event is fixed here: each micro-op gets an interned
    `Footprint` (a split-extent array access picks one per extent).  The
    register file is `alloc`'s slots, declared scalars included, then one
    slot per distinct constant operand; `regs0` is its initial image, with
    the constants in place, that each run copies.  `pages` pins
    objects to one page and `indices` redirects them to other arrays (the
    staging slots of a multiplexed executable); with `strict_pages`, an
    access to any other page is an internal error when it executes.
    """

    def __init__(self, program: Program, objects: ObjectTable, alloc: RegAlloc,
                 pages: Optional[dict[str, int]] = None,
                 indices: Optional[dict[str, int]] = None,
                 strict_pages: Optional[frozenset[int]] = None):
        self.program = program
        self.objects = objects
        self.width = program.int_width
        self.canon = arith(self.width).canon
        self.decl_slots = {
            d.name: alloc.slot(d.name) for d in program.decls if not d.is_array
        }
        self.reg_base = alloc.count
        self.pages = pages or {}
        self.indices = indices or {}
        self.strict_pages = strict_pages
        self._const_slots: dict[int, int] = {}
        # objects split across extents: their accesses look their pages up
        self.split: dict[str, None] = {}
        self.footprint = FootprintTable()
        # the indices of the arrays some compiled op writes
        self.written: set[int] = set()
        self._code_footprints: dict[int, Footprint] = {}
        self._data_footprints: dict[tuple, tuple] = {}

    def regs0(self) -> list[int]:
        """A run's initial register file: zeros, then the constants."""
        regs = [0] * (self.reg_base + len(self._const_slots))
        for value, slot in self._const_slots.items():
            regs[slot] = value
        return regs

    def slot(self, op: Operand) -> int:
        """The register slot an operand reads (constants get their own)."""
        if op.__class__ is Reg:
            return op.slot
        value = self.canon(op.value)
        got = self._const_slots.get(value)
        if got is None:
            got = self._const_slots[value] = self.reg_base + len(self._const_slots)
        return got

    def _obj_index(self, obj: str) -> int:
        return self.indices.get(obj, self.objects.index[obj])

    def _data_footprint(self, obj: str, cp: int, kinds: tuple):
        """(footprint, None) for a static access; else (None, lookup), where
        `lookup(i)` gives word i's footprint or raises for a page outside
        `strict_pages`: a split extent or a strict page, which the access
        checks as it steps."""
        key = (obj, cp, kinds)
        got = self._data_footprints.get(key)
        if got is None:
            got = self._data_footprints[key] = self._new_data_footprint(obj, cp, kinds)
        return got

    def _new_data_footprint(self, obj: str, cp: int, kinds: tuple):
        # the object's word runs (`layouts.word_runs`), or all its words on
        # the one page it is pinned to
        if obj in self.pages:
            runs = ((self.pages[obj], 0, self.objects.lengths[self._obj_index(obj)]),)
        else:
            runs = word_runs(self.objects.layout.data_extents(obj))
        allowed = self.strict_pages
        fps = [None if allowed is not None and page not in allowed
               else self.footprint(cp, (page,), kinds) for page, _, _ in runs]
        if len(runs) > 1:
            self.split.setdefault(obj)
        elif fps[0] is not None:
            return fps[0], None
        words = [(page, fp) for (page, _, n), fp in zip(runs, fps) for _ in range(n)]

        def lookup(i: int) -> Footprint:
            page, fp = words[i]
            if fp is None:
                raise PfoError(f"execute-phase access escaped staging pages (page {page})")
            return fp
        return None, lookup

    def compile_run(self, instrs: list[Instr], pages: list[int],
                    fps: Optional[list] = None,
                    call: Optional[Callable[[CallI, int], object]] = None,
                    remap: Optional[dict[int, int]] = None) -> list:
        """The `(op, charge)` of each micro-op of straight-line code, op i
        at code page `pages[i]`.  The op computes the micro-op's values and
        its step is charged `charge`.  The op is an inlined one, `(template,
        operands)`, whose statements a summarised segment's generated
        function runs (`_segment`); a closure it calls; or `None`, an op
        that only steps.  With charge `None` the op is a closure that
        accounts for itself (a split-extent access, a call or a return).
        An op without a data operand is charged `fps[i]` when one is given
        (a code-only step that also reads a data page), else its code
        page's fetch.  `call(instr, code_page)` compiles a `CallI`
        (whole-function mode; a tree has its calls inlined) to its op, or
        to a list of ops that takes the `CallI`'s one place.  `remap` maps
        register slots the ops read to the slots they read instead (a
        callee compiled in place reads each parameter from its argument).
        Every micro-op is compiled to its own op: a `MovI` after an
        operator is a move like any other."""
        slot = self.slot
        if remap:
            def slot(op: Operand, base=slot, get=remap.get) -> int:
                s = base(op)
                return get(s, s)
        code_steps = self._code_footprints
        ops: list[tuple] = []
        append = ops.append
        # exact classes, the commonest first: moves are about half of a
        # large program's micro-ops.  An operator's template key is its
        # symbol, arity and width (`_template`)
        for instr, cp, fp in zip(instrs, pages, fps or repeat(None)):
            if fp is None:
                fp = code_steps.get(cp) or code_steps.setdefault(cp, self.footprint(cp))
            cls = instr.__class__
            if cls is MovI:
                append((("move", (slot(instr.a), instr.dst)), fp))
            elif cls is BinI:
                append((((instr.op, 2, self.width),
                         (slot(instr.a), slot(instr.b), instr.dst)), fp))
            elif cls is UnI:
                append((((instr.op, 1, self.width), (slot(instr.a), instr.dst)), fp))
            elif cls is LoadI or cls is StoreI:
                append(self._compile_access(instr, cp, slot))
            elif cls is SelI:
                append((("select", (slot(instr.cond), slot(instr.a), slot(instr.b),
                                    instr.dst)), fp))
            elif cls is BranchI:
                append((("branch", (slot(instr.cond),)), fp))
            elif cls is PadI:
                # the pad object is one word on one page: its access is static
                oi = self._obj_index(PAD_OBJECT)
                self.written.add(oi)
                append((("pad", (oi,)), self._data_footprint(PAD_OBJECT, cp, _KIND_W)[0]))
            elif cls is OverrunI:
                def run(st: State, detail=f"exceeded bound {instr.bound}"):
                    raise SimTrap("loop-bound", detail)
                append((run, fp))
            elif cls is NopI:
                append((None, fp))
            elif cls is RetI:
                def run(st: State, ret=self.compile_return(instr, cp)):
                    raise _EarlyReturn(ret(st))
                append((run, None))
            elif cls is CallI and call is not None:
                append(call(instr, cp))
            else:
                raise PfoError(f"cannot compile {instr!r}")
        return ops

    def compile_return(self, instr: RetI, code_page: int) -> Callable[[State], int]:
        """A `return` as a closure that steps and gives the returned value."""
        fp = self.footprint(code_page)
        v = self.slot(Const(0) if instr.value is None else instr.value)
        def ret(st: State, fp=fp, v=v) -> int:
            st.sink.instr(fp)
            return st.regs[v]
        return ret

    def _compile_access(self, instr, code_page: int, slot: Callable[[Operand], int]) -> tuple:
        obj = instr.obj
        oi = self._obj_index(obj)
        n = self.objects.lengths[oi]
        a = slot(instr.index)
        # a static access has one footprint and is inlined; a split table
        # looks its one up and accounts for itself
        if isinstance(instr, LoadI):
            fp, lookup = self._data_footprint(obj, code_page, _KIND_R)
            dst = instr.dst
            if lookup is None:
                return ("load", (a, n, oi, obj, dst)), fp
            def run(st: State, lookup=lookup, a=a, n=n, oi=oi, dst=dst, obj=obj):
                regs = st.regs
                i = regs[a]
                if i < 0 or i >= n:
                    raise SimTrap("index-oob", f"{obj}[{_int_text(i)}]")
                st.sink.instr(lookup(i))
                regs[dst] = st.arrays[oi][i]
            return run, None
        fp, lookup = self._data_footprint(obj, code_page, _KIND_W)
        src = slot(instr.src)
        self.written.add(oi)
        if lookup is None:
            return ("store", (a, n, oi, obj, src)), fp
        def run(st: State, lookup=lookup, a=a, n=n, oi=oi, src=src, obj=obj):
            regs = st.regs
            i = regs[a]
            if i < 0 or i >= n:
                raise SimTrap("index-oob", f"{obj}[{_int_text(i)}]")
            st.sink.instr(lookup(i))
            st.arrays[oi][i] = regs[src]
        return run, None


def _run(st: State, node: tuple, trips: int = 1) -> None:
    """The one segment loop: walk the node graph from `node`, `trips`
    times.  A node is `(segments, kids)`: its `(functions, summary)`
    segments (`_segments`) run in order, each one's functions and then its
    summary in one `Sink.account` (a segment of self-accounting ops has
    none), and then the walk goes on to the kid `st.branch` picks, or ends
    where `kids` is `None`."""
    account = st.sink.account
    for _ in repeat(None, trips):
        walk = node
        while walk is not None:
            segments, kids = walk
            for functions, summary in segments:
                for f in functions:
                    f(st)
                if summary is not None:
                    account(summary)
            walk = None if kids is None else kids[st.branch]


def _unwound(exc: Exception, charges: tuple, i: int) -> SimTrap:
    """The trap that op `i` of a summarised run of `charges` raised, with
    the charges of the ops before it recorded; a segment's generated
    function raises it (`_chunk_code`).  A `ZeroDivisionError` (a `/` or
    `%` by zero) is that op's `div-zero` trap, after its step, so its
    charge is recorded too; any other trap is raised unstepped."""
    stepped = not isinstance(exc, SimTrap)
    trap = SimTrap("div-zero") if stepped else exc
    trap.prefixes.append(charges[:i + stepped])
    return trap


def _trap_info(sink: Sink, trap: SimTrap) -> TrapInfo:
    """The trap's step, with `sink` brought up to it: the charges that
    every enclosing summarised segment and call recorded, outermost first."""
    for prefix in reversed(trap.prefixes):
        sink.charge(prefix)
    return TrapInfo(trap.kind, sink.steps, trap.detail)


@dataclass(frozen=True)
class _Body:
    """A compiled function: its body as a node graph for `_run`, its
    parameter and local slots, and the slot its value is read from (a
    constant 0 without a tail `return`).  A summarised function also keeps
    its node's one segment, `(functions, summary)`."""

    node: tuple
    params: tuple[int, ...]
    locals: tuple[int, ...]
    ret: int
    segment: Optional[tuple] = None


@dataclass(frozen=True)
class _Leaf:
    """A leaf callee, which a merged call compiles in place: its
    instructions but a tail `return`, their code pages (the return's
    included), the operand a tail return gives (`None` without one), its
    parameter slots, the slots it writes, and its steps."""

    instrs: list
    pages: list
    value: Optional[Operand]
    params: tuple[int, ...]
    writes: frozenset
    steps: int


def _invoke(st: State, body: _Body) -> int:
    """Run a function's segments and give its value."""
    try:
        _run(st, body.node)
    except _EarlyReturn as ret:
        return ret.value
    return st.regs[body.ret]


# --- whole-function executable ----------------------------------------------

class AstExecutable:
    """Layout-specialized compilation of a whole program.

    Each function is compiled once, when `main` or a caller first needs
    it (`_body`), to a graph of `(segments, kids)` nodes, the shape a tree
    walk has (`_node`).  An `if` ends a node whose kids are its else and
    then arms, and both arms go on to one shared node for what follows
    the `if`.  A `for` or `while` is one self-accounting op that walks its
    body's graph (a `for` all its trips in one `_run`).

    A function whose lowered body is straight-line code with an optional
    tail `return`, whose every op is statically charged and whose steps,
    calls expanded, are at most `NODE_BUDGET` is summarised whole.  Calls
    to summarised functions are merged while the executable's budget of
    `NODE_BUDGET` merged steps lasts, so summaries never expand a large
    call tree; a merged call spends its step and the callee's.  A merged
    call to a leaf callee (`_leaf`: straight-line, no call, no write to a
    parameter or to an argument's slot, no local read before it is
    written) is compiled in place: the call's step, the callee's ops at
    its own code pages reading each parameter from its argument's slot,
    and its tail return as a move into the call's `dst`.  A merged call to
    any other summarised callee is one op: its closure binds the
    parameters, zeroes the callee's locals and runs the callee's segment
    functions, and its charge steps the call and then accounts the
    callee's summary.
    Every other call accounts for its own step and runs the callee's graph.

    Compiling records `witness`, which O4 reads of an in-place build as it
    reads `MultiplexedExecutable.witness` of a staged one: `None` proves
    one profile for every run that does not trap, by induction over the
    steps, when every compiled `if` has arms of at most one summarised
    segment each, going on to the shared node, that, accounted from the
    branch step's pages, end with the same faults and resident set, no
    `while` is compiled and no array is split across extents.  Else it
    names the first construct that breaks this, in the order the
    constructs are compiled; as with the staged witness, no secret may
    reach it.
    """

    def __init__(self, program: Program, layout: Optional[MemoryLayout] = None,
                 page_size: Optional[int] = None):
        self.program = program
        self.lowered = program.lowered
        if layout is None:
            layout = build_ast_layout(self.lowered, program.resolve_page_size(page_size))
        self.layout = layout
        self.objects = ObjectTable(program, layout)
        self._compiler = _OpCompiler(program, self.objects, self.lowered.alloc)
        self._summaries: dict[tuple, Summary] = {}
        self._bodies: dict[str, _Body] = {}
        self._leaves: dict[str, Optional[_Leaf]] = {}
        self._merge_budget = NODE_BUDGET
        self.witness: Optional[str] = None
        self._main = self._body("main")
        split = next(iter(self._compiler.split), None)
        if self.witness is None and split is not None:
            self.witness = f"access to {split} split across pages"
        self._frame = _Frame(program, self._compiler, self.objects)

    def _body(self, name: str) -> _Body:
        got = self._bodies.get(name)
        if got is None:
            got = self._bodies[name] = self._compile_function(name)
        return got

    def _compile_function(self, name: str) -> _Body:
        fn = self.lowered.functions[name]
        compiler = self._compiler
        instrs = fn.instrs
        pages = _code_pages(self.layout, name, len(instrs))
        # a `return` that ends the body steps last and leaves its value in
        # `ret`; only nested ones unwind through `_EarlyReturn`
        items = list(fn.body.items)
        ret, tail, end = compiler.slot(Const(0)), [], len(instrs)
        if items and isinstance(items[-1], RetNode):
            last = items.pop()
            items.append(last.run)
            end = last.ret_index
            value = instrs[end].value
            ret = compiler.slot(Const(0) if value is None else value)
            tail.append((None, compiler.footprint(pages[end])))
        # in order, so calls spend the merge budget in program order; the
        # tail return, the body's last instruction, is charged at the end
        ops = compiler.compile_run(instrs[:end], pages, call=self._call)
        pos = None
        if any(op.__class__ is list for op in ops):
            ops, pos = _spliced(ops)
        node = self._node(items, ops, pos, tail, None)
        # control flow and nested returns account for themselves, so only
        # straight-line code is one charged segment
        segments, kids = node
        if kids is None and len(segments) <= 1 \
                and all(summary is not None for _, summary in segments):
            segment = segments[0] if segments else _segment((), (), self._summaries)
            if segment[1].steps <= NODE_BUDGET:
                return _Body(((segment,), None), fn.params, fn.locals, ret, segment)
        return _Body(node, fn.params, fn.locals, ret)

    def _node(self, items: list, ops: list, pos: Optional[list], tail: list,
              kids: Optional[list]) -> tuple:
        """The graph of a sequence: the first of its nodes, the last of
        which runs `tail` too and goes on to `kids`.  Instruction `i`'s ops
        start at `ops[pos[i]]` (at `ops[i]` when `pos` is `None`).  An `if`
        ends a node, whose kids are the nodes of its arms; both arms go on
        to one node, the rest of the sequence, which is made after them,
        so constructs are compiled (and witnessed) in program order.  Each
        `for` and `while` is one self-accounting op that runs the graph of
        its body."""
        def cut(lo: int, hi: int) -> list:
            return ops[lo:hi] if pos is None else ops[pos[lo]:pos[hi]]

        # each node is stored into the kids of the node before it; the
        # first into `head`
        head = link = [None, None]
        run: list = []
        for item in items:
            if isinstance(item, RunNode):
                run += cut(item.lo, item.hi)
            elif isinstance(item, RetNode):
                run += cut(item.run.lo, item.ret_index + 1)
            elif isinstance(item, IfNode):
                run += cut(item.cond_run.lo, item.branch_index + 1)
                # both arms go on to the rest, filled in once it is made
                rest = [None, None]
                arms = (self._node(item.else_node.items, ops, pos, [], rest),
                        self._node(item.then_node.items, ops, pos, [], rest))
                if self.witness is None and _arms_differ(arms, run[-1][1].need_set, rest):
                    self.witness = f"`if` at line {item.line}: its arms fault differently"
                link[0] = link[1] = (_segments(run, self._summaries), arms)
                link, run = rest, []
            elif isinstance(item, ForNode):
                run += cut(item.init_run.lo, item.init_run.hi)
                body = self._node(item.body.items, ops, pos,
                                  cut(item.step_run.lo, item.step_run.hi), None)
                def run_for(st: State, body=body, trips=item.trips):
                    _run(st, body, trips)
                run.append((run_for, None))
            elif isinstance(item, WhileNode):
                if self.witness is None:
                    self.witness = f"`while` at line {item.line}: its trips may vary"
                cond = cut(item.cond_run.lo, item.branch_index + 1)
                first = self._node(item.body.items if item.do_first else [], ops, pos,
                                   cond, None)
                body = self._node(item.body.items, ops, pos, cond, None)
                def run_while(st: State, first=first, body=body, bound=item.bound,
                              n0=int(item.do_first)):
                    _run(st, first)
                    n = n0
                    while st.branch:
                        if n >= bound:
                            raise SimTrap("loop-bound", f"exceeded bound {bound}")
                        _run(st, body)
                        n += 1
                run.append((run_while, None))
            else:
                raise PfoError(f"cannot compile node {item!r}")
        link[0] = link[1] = (_segments(run + tail, self._summaries), kids)
        return head[0]

    def _leaf(self, name: str) -> Optional[_Leaf]:
        """Function `name` as a leaf callee, or `None` if it is not one:
        straight-line code with an optional tail `return`, no call, no
        access split across extents (so every op is statically charged),
        no write to a parameter and no read of a local before it is
        written (`ir.writes_before_reads`).  Decided from the lowered code
        and the function's statements, without compiling it."""
        if name in self._leaves:
            return self._leaves[name]
        self._leaves[name] = None
        fn = self.lowered.functions[name]
        items = fn.body.items
        if any(not isinstance(item, RunNode) for item in items[:-1]) \
                or items and not isinstance(items[-1], (RunNode, RetNode)):
            return None
        instrs = fn.instrs
        params = frozenset(fn.params)
        writes = set()
        for instr in instrs:
            cls = instr.__class__
            if cls is CallI or (cls is LoadI or cls is StoreI) \
                    and len(word_runs(self.layout.data_extents(instr.obj))) > 1:
                return None
            dst = getattr(instr, "dst", None)
            if dst is not None:
                if dst in params:
                    return None
                writes.add(dst)
        if not writes_before_reads(self.program, name):
            return None
        value = None
        if items and isinstance(items[-1], RetNode):
            ret = instrs[-1]
            value = Const(0) if ret.value is None else ret.value
            instrs = instrs[:-1]
        got = self._leaves[name] = _Leaf(
            instrs, _code_pages(self.layout, name, len(fn.instrs)), value,
            fn.params, frozenset(writes), len(fn.instrs))
        return got

    def _call(self, instr: CallI, code_page: int):
        """A call site as one op, or compiled in place as a list of ops.
        Its parameters are bound to the arguments and the callee's locals
        start at 0; `dst` gets the callee's value, 0 when it does not
        return one.  Binding one parameter at a time is a parallel
        assignment: an argument is the caller's, and a parameter never
        names a global, so no argument reads a parameter's slot."""
        compiler = self._compiler
        fp = compiler.footprint(code_page)
        args = tuple(compiler.slot(a) for a in instr.args)
        leaf = self._leaf(instr.fn)
        if leaf is not None and leaf.steps < self._merge_budget \
                and leaf.writes.isdisjoint(args):
            self._merge_budget -= 1 + leaf.steps
            # the call's step, then the callee's ops.  Without a tail
            # return `dst` keeps 0: it is a temporary only this call writes
            instrs = leaf.instrs
            if leaf.value is not None:
                instrs = instrs + [MovI(instr.dst, leaf.value, instr.fn)]
            return [(None, fp), *compiler.compile_run(
                instrs, leaf.pages, remap=dict(zip(leaf.params, args)))]
        callee = self._body(instr.fn)
        binds = tuple(zip(callee.params, args))
        dst, zero, ret = instr.dst, callee.locals, callee.ret
        if callee.segment is not None and callee.segment[1].steps < self._merge_budget:
            functions, summary = callee.segment
            self._merge_budget -= 1 + summary.steps

            # the callee's functions record the charges before a trap in
            # its body; the call's own step comes before those
            def call(st: State, binds=binds, zero=zero, body=functions, dst=dst, ret=ret,
                     head=(fp,)):
                regs = st.regs
                for p, a in binds:
                    regs[p] = regs[a]
                for slot in zero:
                    regs[slot] = 0
                try:
                    for f in body:
                        f(st)
                except SimTrap as trap:
                    trap.prefixes.append(head)
                    raise
                regs[dst] = regs[ret]

            def charge(sink: Sink, fp=fp, summary=summary):
                sink.instr(fp)
                sink.account(summary)
            return call, charge

        def call(st: State, binds=binds, zero=zero, dst=dst, fp=fp):
            st.sink.instr(fp)
            regs = st.regs
            for p, a in binds:
                regs[p] = regs[a]
            for slot in zero:
                regs[slot] = 0
            regs[dst] = _invoke(st, callee)
        return call, None

    def run(self, secret: dict[str, int] | None = None,
            public: dict[str, int] | None = None,
            model: Optional[AdversaryModel] = None,
            collect_trace: bool = False) -> SimulationResult:
        frame = self._frame
        st = frame.start(model, collect_trace, secret, public)
        trap = None
        try:
            _invoke(st, self._main)
        except SimTrap as t:
            trap = _trap_info(st.sink, t)
        return frame.result(st, trap)


def _spliced(ops: list) -> tuple[list, list]:
    """`ops` with each list of ops (a call compiled in place) spliced in,
    and the position each op of `ops` starts at, then the end."""
    flat: list = []
    pos = []
    for op in ops:
        pos.append(len(flat))
        if op.__class__ is list:
            flat += op
        else:
            flat.append(op)
    pos.append(len(flat))
    return flat, pos


def _arms_differ(arms: tuple, entry: frozenset, rest: list) -> bool:
    """Whether an `if`'s arm nodes may fault differently: one holds a
    nested construct (more than one summarised segment, or a kid other
    than the shared `rest`), or run from the branch step's pages `entry`
    the two end with different faults or resident sets."""
    if any(kids is not rest or len(segs) > 1 or segs and segs[0][1] is None
           for segs, kids in arms):
        return True
    return len({segs[0][1].ends(entry) if segs else ((), entry) for segs, _ in arms}) > 1


def _code_pages(layout: MemoryLayout, unit: str, count: int) -> list[int]:
    """The code page of each of a unit's `count` one-word instructions, by
    `layouts.word_runs` (none for an empty unit, which may be unmapped)."""
    return [page for page, _, words in word_runs(layout.code_extents(unit) if count else ())
            for _ in range(words)]


class _Frame:
    """What every run of one executable starts from and ends with, made once.

    The register template (the constants and the other scalars' initial
    values in place), the array image and the indices of the arrays some
    compiled op writes, the input-binding plan, the outputs' slots, and
    the program's arrays, which a result stores: the image's unwritten
    ones, and the written ones' indices.  A run copies only the written
    arrays and shares the image's others, which no op changes.  The plan
    reads the caller's input dicts without copying them: each input's
    name, slot, whether it is secret, its range's end `1 << width` (`None`
    without a width), its default and its range error's text.
    """

    __slots__ = ("regs0", "image", "written", "inputs", "n_secrets", "canon",
                 "outputs", "store", "stored")

    def __init__(self, program: Program, compiler: _OpCompiler, objects: ObjectTable):
        slots = compiler.decl_slots
        self.regs0 = compiler.regs0()
        inputs = []
        for d in program.decls:
            if d.is_array:
                continue
            if d.kind in (DeclKind.SECRET, DeclKind.PUBLIC):
                inputs.append((
                    d.name, slots[d.name], d.kind == DeclKind.SECRET,
                    None if d.width is None else 1 << d.width,
                    d.init[0] if d.init else 0,
                    f"{d.kind} {d.name!r} must be in [0, 2^{d.width}), got "))
            elif d.init:
                self.regs0[slots[d.name]] = d.init[0]
        self.inputs = tuple(inputs)
        self.n_secrets = sum(secret for _, _, secret, *_ in inputs)
        self.canon = compiler.canon
        self.outputs = tuple((d.name, slots[d.name]) for d in program.outputs)
        self.image = objects.image
        self.written = tuple(sorted(compiler.written))
        # a result stores the program's arrays: the image's own unwritten
        # ones, and the run's written ones in their places
        indices = [(d.name, objects.index[d.name]) for d in program.arrays]
        self.store = {name: self.image[i] for name, i in indices}
        self.stored = tuple((name, i) for name, i in indices if i in compiler.written)

    def start(self, model: Optional[AdversaryModel], collect_trace: bool,
              secret: dict[str, int] | None, public: dict[str, int] | None) -> State:
        """A run's state: a fresh sink, the register template with the
        inputs bound, and the arrays."""
        arrays = self.image[:]
        for i in self.written:
            arrays[i] = arrays[i][:]
        sink = Sink(model is None or model.variant is AdversaryVariant.PIGEONHOLE,
                    collect_trace)
        st = State(self.regs0[:], arrays, sink)
        self._bind(st.regs, secret or {}, public or {})
        return st

    def _bind(self, regs: list[int], secret: dict[str, int], public: dict[str, int]):
        canon = self.canon
        given = 0  # public inputs the caller set
        for name, slot, is_secret, end, default, out_of_range in self.inputs:
            if is_secret:
                if name not in secret:
                    raise PfoError(f"secret {name!r} not bound")
                v = secret[name]
            elif name in public:
                v = public[name]
                given += 1
            else:
                v = default
            if end is not None and not 0 <= v < end:
                raise PfoError(f"{out_of_range}{_int_text(v)}")
            regs[slot] = canon(v)
        if len(secret) > self.n_secrets:
            raise PfoError(f"unknown secret inputs: {self._unknown(secret, True)}")
        if len(public) > given:
            raise PfoError(f"unknown public inputs: {self._unknown(public, False)}")

    def _unknown(self, given: dict[str, int], secret: bool) -> list[str]:
        known = {name for name, _, is_secret, *_ in self.inputs if is_secret == secret}
        return sorted(name for name in given if name not in known)

    def result(self, st: State, trap: Optional[TrapInfo]) -> SimulationResult:
        sink, regs, arrays = st.sink, st.regs, st.arrays
        store = self.store.copy()
        for name, i in self.stored:
            store[name] = arrays[i]
        # positional arguments: keywords would make the call cost about
        # as much again
        return SimulationResult(
            {name: regs[slot] for name, slot in self.outputs}, sink.faults,
            sink.steps, sink.copy_ops, sink.code_copy_ops, sink.mux_accesses,
            trap, sink.footprints, store)


# --- tree executable --------------------------------------------------------

class TreeExecutable:
    """Root-to-leaf walker over a (possibly balanced) execution tree.

    Each block compiles to one flat list of `(op, charge)` ops, its
    instructions at their own code pages; `transform.MultiplexedExecutable`
    builds the same lists with the staging schedule compiled in, and makes
    one list per distinct staged block.  Blocks given one op list share one
    segment tuple (`_link`).  A block is cut into segments at the ops that
    account for themselves, and each run of charged ops is summarised once
    (`Summary`) and generated as functions (`_segment`): a run calls a
    segment's functions, which compute values only, then accounts its
    summary in one `Sink.account`, and moves to the child its branch picked.
    """

    def __init__(self, tree: ExecutionTree):
        program = tree.program
        layout = build_tree_layout(tree, program.resolve_page_size())
        objects = ObjectTable(program, layout)
        compiler = _OpCompiler(program, objects, tree.alloc)
        self._link(tree, layout, objects, compiler, lambda b: compiler.compile_run(
            b.instrs, _code_pages(layout, b.name(), len(b.instrs))))

    def _link(self, tree: ExecutionTree, layout: MemoryLayout,
              objects: ObjectTable, compiler: _OpCompiler,
              block_ops: Callable[[Block], list[tuple]]) -> None:
        """Make runs walk `tree`, running the `(op, charge)` ops that
        `block_ops` compiles for each block.

        Blocks for which `block_ops` returns one list object share one
        segment tuple, cut once from that list: a block is keyed by the
        list's id, and each list is kept until every block is keyed, so no
        id is reused.  Only the cut segments are kept after that
        (`segments`, by block id).
        """
        summaries: dict[tuple, Summary] = {}
        compiled: dict[int, tuple] = {}  # by a list's id: the list, its segments
        self.segments = {}
        for b in tree.blocks:
            ops = block_ops(b)
            got = compiled.get(id(ops))
            if got is None:
                got = compiled[id(ops)] = ops, _segments(ops, summaries)
            self.segments[b.id] = got[1]
        self.tree = tree
        self.program = tree.program
        self.layout = layout
        self.objects = objects
        # every op is compiled: the slots and the written arrays are fixed
        self._frame = _Frame(tree.program, compiler, objects)
        # a node is (segments, successors indexed by `st.branch`, or None for
        # a leaf); deepest level first, so every child's node exists
        nodes: dict[int, tuple] = {}
        for b in (b for lv in reversed(tree.levels) for b in lv):
            kids = None
            if b.children:
                first = nodes[b.children[0].id]
                kids = (first, first) if b.branch is None \
                    else (nodes[b.children[1].id], first)
            nodes[b.id] = (self.segments[b.id], kids)
        self._root = nodes[tree.root.id]

    def run(self, secret: dict[str, int] | None = None,
            public: dict[str, int] | None = None,
            model: Optional[AdversaryModel] = None,
            collect_trace: bool = False) -> SimulationResult:
        frame = self._frame
        st = frame.start(model, collect_trace, secret, public)
        trap = None
        try:
            _run(st, self._root)
        except SimTrap as t:
            trap = _trap_info(st.sink, t)
        return frame.result(st, trap)


_NONE_ID = id(None)


def _segments(ops: list[tuple], summaries: dict[tuple, Summary]) -> tuple:
    """A block's `(op, charge)` ops cut where self-accounting ones start
    and stop: `(closures, None)` for a run of those, and for a run of
    charged ones its `_segment`."""
    if not ops:
        return ()
    values, charges = zip(*ops)
    if _NONE_ID not in map(id, charges):
        return (_segment(values, charges, summaries),)
    segments = []
    for self_accounting, run in groupby(ops, key=lambda op: op[1] is None):
        values, charges = zip(*run)
        segments.append((values, None) if self_accounting
                        else _segment(values, charges, summaries))
    return tuple(segments)


def _segment(values: tuple, charges: tuple, summaries: dict[tuple, Summary]) -> tuple:
    """A run of charged ops, their `values` (see `_OpCompiler.compile_run`)
    and their `charges`, as `(functions, summary)`: the tuple of generated
    functions that run the ops' values, one per chunk of at most
    `CHUNK_OPS` ops (none for a chunk of ops that only step; see
    `_chunk`), and the `Summary` of the charges.  Runs with the same
    charges share one `summaries` entry (charges are interned footprints
    and shared staging closures)."""
    key = tuple(map(id, charges))
    summary = summaries.get(key)
    if summary is None:
        summary = summaries[key] = Summary(charges)
    functions: list = []
    for base in range(0, len(values), CHUNK_OPS):
        chunk = values[base:base + CHUNK_OPS]
        if any(op is not None for op in chunk):
            functions.append(_chunk(chunk, summary.charges, base))
    return tuple(functions), summary


# --- generated segment functions ------------------------------------------------

# the most ops one generated function runs: a longer segment is cut into
# several, so that no shape's source, and no compile, grows with a segment
CHUNK_OPS = 64

# the most chunk shapes whose code a process keeps (`_chunk_code`), the
# least recently used dropped first
MAX_SHAPES = 4096

# each inlined op's template: its parameters, one letter per operand in
# the order `_OpCompiler.compile_run` gives them, and its statements, `@`
# standing for the op's place in its chunk.  An operator's template is
# made from the operator table (`_template`)
_TEMPLATES = {
    "move": ("ad", ("regs[d@] = regs[a@]",)),
    "select": ("cabd", ("regs[d@] = regs[a@] if regs[c@] else regs[b@]",)),
    "branch": ("c", ("st.branch = 1 if regs[c@] else 0",)),
    "load": ("anosd", ("i = regs[a@]",
                       "if i < 0 or i >= n@:",
                       "    raise SimTrap('index-oob', f'{s@}[{_int_text(i)}]')",
                       "regs[d@] = arrays[o@][i]")),
    "store": ("anosc", ("i = regs[a@]",
                        "if i < 0 or i >= n@:",
                        "    raise SimTrap('index-oob', f'{s@}[{_int_text(i)}]')",
                        "arrays[o@][i] = regs[c@]")),
    "pad": ("o", ("arrays[o@][0] = 0",)),
    # a closure the function calls: a staging copy, a selector update, a
    # merged call or a loop bound's trap
    "call": ("f", ("f@(st)",)),
}
_TRAPS = frozenset(("load", "store", "call"))
_ARRAYS = frozenset(("load", "store", "pad"))


def _template(key) -> tuple[str, tuple, bool]:
    """An inlined op's parameters, statements and whether it may trap."""
    if key.__class__ is str:
        params, lines = _TEMPLATES[key]
        return params, lines, key in _TRAPS
    op, arity, width = key
    row = (BINARY_OPERATORS if arity == 2 else PREFIX_OPERATORS)[op]
    srcs = "ab"[:arity]
    lines = operator_lines(row, tuple(f"regs[{p}@]" for p in srcs), "regs[d@]", width)
    return srcs + "d", tuple(lines), row.divides


@lru_cache(maxsize=MAX_SHAPES)
def _chunk_code(shape: tuple) -> CodeType:
    """The code of the function that runs a chunk of ops of `shape`: each
    op's template key (`"call"` for a closure, `None` for an op that only
    steps).  Its parameters are each op's operands, then the segment's
    `charges` and the chunk's `base`, its first op's index in the segment.
    It sets `k` to an op's place before each op that may trap, and turns a
    trap into `_unwound(exc, charges, base + k)`.  A shape compiles on its
    first use in the process (about 1 ms for 64 ops), and every later
    chunk of it, in any segment of any executable, shares its code."""
    params: list[str] = []
    body: list[str] = []
    traps = arrays = False
    for k, key in enumerate(shape):
        if key is None:
            continue
        names, lines, can_trap = _template(key)
        params += [f"{p}{k}" for p in names]
        if can_trap:
            body.append(f"k = {k}")
            traps = True
        arrays = arrays or key in _ARRAYS
        body += [line.replace("@", str(k)) for line in lines]
    if traps:
        body = ["try:", *(f"    {line}" for line in body),
                "except (SimTrap, ZeroDivisionError) as exc:",
                "    raise _unwound(exc, charges, base + k) from None"]
    head = ["regs = st.regs", *(["arrays = st.arrays"] if arrays else [])]
    source = "\n".join([f"def segment(st, {', '.join(params)}, charges, base):",
                        *(f"    {line}" for line in head + body)])
    namespace: dict = {}
    exec(compile(source, "<pfo.interp.segment>", "exec"), namespace)
    return namespace["segment"].__code__


def _chunk(values: tuple, charges: tuple, base: int) -> FunctionType:
    """The function of a chunk of a segment's op `values`, from op `base`
    on: the generated function of the chunk's shape (`_chunk_code`), with
    each op's operands, `charges` and `base` bound as its defaults."""
    shape: list = []
    defaults: list = []
    for op in values:
        if op is None:
            shape.append(None)
        elif op.__class__ is tuple:
            shape.append(op[0])
            defaults += op[1]
        else:
            shape.append("call")
            defaults.append(op)
    return FunctionType(_chunk_code(tuple(shape)), globals(), "segment",
                        (*defaults, charges, base))
