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
interpreter is compiled to closures per (program, layout) because event
pages are layout-dependent; runs are then cheap and allocation-light:

* footprints: each micro-op's page events (code page, data pages and
  their kinds, the distinct pages it needs and their set) are fixed at
  compile time in an interned `Footprint`.  `Sink.instr(fp)` is the
  pigeonhole rule (`memory.observe_profile` is the trace-replay
  reference).
* value-only closures: the compiler returns each micro-op as a closure
  that only computes values, with the charge its step adds.  An
  arithmetic op's closure is the one `lang.arith` generates from the
  operator table (`lang.BINARY_OPERATORS`, `lang.PREFIX_OPERATORS`), with
  the operator's expression inline, so its step is one Python call.  An
  arithmetic op and the `MovI` that copies its result (how `x = a op b`
  lowers) are one such closure that writes both registers
  (`_OpCompiler.compile_run`): the move keeps its charge but has no
  closure, so the pair's two steps cost one call.  Some ops account for
  themselves as they run: a split-extent access (its footprint depends
  on the word index), a nested return, a call that is not merged, and a
  `for` or `while` of whole-function mode, which walks its body's nodes.
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
  `_run` calls a segment's closures and then adds the whole segment in
  one `Sink.account`, which looks the faults from its resident set up
  in the summary's memo.
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
* traps: a trapping closure raises without a step count.  Each
  summarised segment and call it unwinds through records the charges of
  the ops before the trapping one, and the runner that catches it
  charges those prefixes outermost first, then the trapping op's own
  step (`_trap_info`).  So a trap's step, profile and trace are those of
  charging each step as it runs.  A `/` or `%` by zero raises Python's
  `ZeroDivisionError` from its closure; the segment loop `_run` or the
  summarised call it escapes first turns it into the `div-zero` trap of
  the op whose closure raised, counting the division's own step
  (`_unwound`).  A segment maps each closure's position back to its op's
  index (`_op_index`), so a fused pair traps as its first op, before
  either register is written.
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
from itertools import chain, compress, count, groupby, islice, repeat
from typing import Callable, Collection, Hashable, Optional

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
)
from .lang import DeclKind, Program, WORD_SIZE, arith
from .layouts import build_ast_layout, build_tree_layout
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


class SimTrap(PfoError):
    """A trap, raised without its step: the runner that catches it makes the
    `TrapInfo` (`_trap_info`).  `counted` is the footprint of the step the
    trapping op took first (a division steps, then traps; an out-of-bounds
    access traps unstepped).  `prefixes` gathers, innermost first, the
    charges that each summarised segment or call it unwinds through had
    not yet made."""

    def __init__(self, kind: str, detail: str = "",
                 counted: Optional["Footprint"] = None):
        self.kind = kind
        self.detail = detail
        self.counted = counted
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
    """Compiles micro-ops to closures for a fixed layout/page map.

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
        self.canon, self.binops, self.unops = arith(program.int_width)[:3]
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
        # an object's page per extent, and for a split one the extent of
        # every word (words past the extents take the last one)
        ext_of = None
        if obj in self.pages:
            pages = (self.pages[obj],)
        else:
            extents = self.objects.layout.data_extents(obj)
            pages = tuple(e.page for e in extents)
            if len(extents) > 1:
                ext_of = [k for k, e in enumerate(extents)
                          for _ in range(e.length // WORD_SIZE)]
                length = self.objects.lengths[self.objects.index[obj]]
                ext_of.extend([len(extents) - 1] * (length - len(ext_of)))
        allowed = self.strict_pages
        fps = tuple(
            None if allowed is not None and p not in allowed
            else self.footprint(cp, (p,), kinds)
            for p in pages
        )
        if ext_of is None and fps[0] is not None:
            return fps[0], None
        if ext_of is not None:
            self.split.setdefault(obj)

        def lookup(i: int) -> Footprint:
            k = 0 if ext_of is None else ext_of[i]
            fp = fps[k]
            if fp is None:
                raise PfoError(
                    f"execute-phase access escaped staging pages (page {pages[k]})"
                )
            return fp
        return None, lookup

    def compile_run(self, instrs: list[Instr], pages: list[int],
                    fps: Optional[list] = None, starts: Collection[int] = (),
                    call: Optional[Callable[[CallI, int], object]] = None,
                    remap: Optional[dict[int, int]] = None) -> list:
        """The `(closure, charge)` of each micro-op of straight-line code,
        op i at code page `pages[i]`.  The closure computes the op's values
        and its step is charged `charge`; with charge `None` the closure
        accounts for itself (a split-extent access, a call or a return).
        An op without a data operand is charged `fps[i]` when one is given
        (a code-only step that also reads a data page), else its code
        page's fetch.  `call(instr, code_page)` compiles a `CallI`
        (whole-function mode; a tree has its calls inlined) to its op, or
        to a list of ops that takes the `CallI`'s one place.  `remap` maps
        register slots the ops read to the slots they read instead (a
        callee compiled in place reads each parameter from its argument).

        A `BinI` or `UnI` and the `MovI` after it that copies its result
        (how `x = a op b` lowers) are one closure, the operator's, that
        writes the move's register too: the op carries it and the move
        `None`, each its own charge, so the pair steps twice and traps as
        its first op, before either register is written.  Code is entered
        at its start or at one of `starts`, where a `RunNode` of a function
        body begins (whole-function mode slices its ops by run), so no pair
        is fused across one."""
        slot = self.slot
        if remap:
            def slot(op: Operand, base=slot, get=remap.get) -> int:
                s = base(op)
                return get(s, s)
        code_steps = self._code_footprints
        ops: list[tuple] = []
        append = ops.append
        moved = False  # whether the op before wrote this move's register
        # exact classes, the commonest first: moves are about half of a
        # large program's micro-ops.  `i` is the index of `after`
        for i, (instr, after, cp, fp) in enumerate(zip(
                instrs, chain(islice(instrs, 1, None), (None,)), pages,
                fps or repeat(None)), 1):
            if fp is None:
                fp = code_steps.get(cp) or code_steps.setdefault(cp, self.footprint(cp))
            if moved:
                append((None, fp))
                moved = False
                continue
            cls = instr.__class__
            if cls is MovI:
                def run(st: State, a=slot(instr.a), dst=instr.dst):
                    regs = st.regs
                    regs[dst] = regs[a]
                append((run, fp))
            elif cls is BinI or cls is UnI:
                dst2 = None
                if (after.__class__ is MovI and after.a.__class__ is Reg
                        and after.a.slot == instr.dst and i not in starts):
                    dst2, moved = after.dst, True
                if cls is BinI:
                    run = self.binops[instr.op](slot(instr.a), slot(instr.b), instr.dst, dst2)
                else:
                    run = self.unops[instr.op](slot(instr.a), instr.dst, dst2)
                append((run, fp))
            elif cls is LoadI or cls is StoreI:
                append(self._compile_access(instr, cp, slot))
            elif cls is SelI:
                def run(st: State, c=slot(instr.cond), a=slot(instr.a), b=slot(instr.b),
                        dst=instr.dst):
                    regs = st.regs
                    regs[dst] = regs[a] if regs[c] else regs[b]
                append((run, fp))
            elif cls is BranchI:
                def run(st: State, c=slot(instr.cond)):
                    st.branch = 1 if st.regs[c] else 0
                append((run, fp))
            elif cls is PadI:
                # the pad object is one word on one page: its access is static
                oi = self._obj_index(PAD_OBJECT)
                self.written.add(oi)
                def run(st: State, oi=oi):
                    st.arrays[oi][0] = 0
                append((run, self._data_footprint(PAD_OBJECT, cp, _KIND_W)[0]))
            elif cls is OverrunI:
                def run(st: State, detail=f"exceeded bound {instr.bound}"):
                    raise SimTrap("loop-bound", detail)
                append((run, fp))
            elif cls is NopI:
                append((_no_op, fp))
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
        # a static access has one footprint; a split table looks its one up
        # and accounts for itself
        if isinstance(instr, LoadI):
            fp, lookup = self._data_footprint(obj, code_page, _KIND_R)
            dst = instr.dst
            if lookup is None:
                def run(st: State, a=a, n=n, oi=oi, dst=dst, obj=obj):
                    regs = st.regs
                    i = regs[a]
                    if i < 0 or i >= n:
                        raise SimTrap("index-oob", f"{obj}[{i}]")
                    regs[dst] = st.arrays[oi][i]
                return run, fp
            def run(st: State, lookup=lookup, a=a, n=n, oi=oi, dst=dst, obj=obj):
                regs = st.regs
                i = regs[a]
                if i < 0 or i >= n:
                    raise SimTrap("index-oob", f"{obj}[{i}]")
                st.sink.instr(lookup(i))
                regs[dst] = st.arrays[oi][i]
            return run, None
        fp, lookup = self._data_footprint(obj, code_page, _KIND_W)
        src = slot(instr.src)
        self.written.add(oi)
        if lookup is None:
            def run(st: State, a=a, n=n, oi=oi, src=src, obj=obj):
                regs = st.regs
                i = regs[a]
                if i < 0 or i >= n:
                    raise SimTrap("index-oob", f"{obj}[{i}]")
                st.arrays[oi][i] = regs[src]
            return run, fp
        def run(st: State, lookup=lookup, a=a, n=n, oi=oi, src=src, obj=obj):
            regs = st.regs
            i = regs[a]
            if i < 0 or i >= n:
                raise SimTrap("index-oob", f"{obj}[{i}]")
            st.sink.instr(lookup(i))
            st.arrays[oi][i] = regs[src]
        return run, None


def _run(st: State, node: tuple, trips: int = 1) -> None:
    """The one segment loop: walk the node graph from `node`, `trips`
    times.  A node is `(segments, kids)`: its `(closures, summary, at)`
    segments (`_segments`) run in order, each one's closures and then its
    summary in one `Sink.account` (a segment of self-accounting ops has
    none), and then the walk goes on to the kid `st.branch` picks, or ends
    where `kids` is `None`.  A trap in a summarised segment records the
    charges of the ops before the one that trapped (see `_trap_info`)."""
    account = st.sink.account
    try:
        for _ in repeat(None, trips):
            walk = node
            while walk is not None:
                segments, kids = walk
                for values, summary, at in segments:
                    for f in values:
                        f(st)
                    if summary is not None:
                        account(summary)
                walk = None if kids is None else kids[st.branch]
    except (SimTrap, ZeroDivisionError) as exc:
        # `f` is the closure that trapped; it appears once in `values`.
        # Only a charged op divides, so a `ZeroDivisionError` has a summary
        if summary is None:
            raise
        raise _unwound(exc, summary.charges, _op_index(values, at, f)) from None


def _op_index(values: tuple, at: Optional[tuple], f) -> int:
    """The index among a summarised segment's ops of the op whose closure
    `f` is, one of its `values` (see `_segments`)."""
    i = values.index(f)
    return i if at is None else at[i]


def _unwound(exc: Exception, charges: tuple, i: int) -> SimTrap:
    """The trap that op `i` of a summarised run of `charges` raised, with
    the charges of the ops before it recorded.  A `ZeroDivisionError` (a
    `/` or `%` by zero) is that op's `div-zero` trap, after its step."""
    trap = exc if isinstance(exc, SimTrap) else SimTrap("div-zero", counted=charges[i])
    trap.prefixes.append(charges[:i])
    return trap


def _trap_info(sink: Sink, trap: SimTrap) -> TrapInfo:
    """The trap's step, with `sink` brought up to it: the charges of the
    ops before the trapping one in every enclosing summarised segment and
    call, outermost first, then the step the trapping op took."""
    for prefix in reversed(trap.prefixes):
        sink.charge(prefix)
    if trap.counted is not None:
        sink.instr(trap.counted)
    return TrapInfo(trap.kind, sink.steps, trap.detail)


@dataclass(frozen=True)
class _Body:
    """A compiled function: its body as a node graph for `_run`, its
    parameter and local slots, and the slot its value is read from (a
    constant 0 without a tail `return`).  A summarised function also keeps
    its node's one segment, `(closures, summary, at)`."""

    node: tuple
    params: tuple[int, ...]
    locals: tuple[int, ...]
    ret: int
    segment: Optional[tuple] = None


@dataclass(frozen=True)
class _Leaf:
    """A leaf callee, which a merged call compiles in place: its
    instructions but a tail `return`, their code pages (the return's
    included), the run starts, the operand a tail return gives (`None`
    without one), its parameter slots, the slots it writes, and its steps."""

    instrs: list
    pages: list
    starts: frozenset
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
    parameters, zeroes the callee's locals and runs the callee's closures,
    and its charge steps the call and then accounts the callee's summary.
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
        ops = compiler.compile_run(instrs[:end], pages, starts=fn.run_starts,
                                   call=self._call)
        pos = None
        if any(op.__class__ is list for op in ops):
            ops, pos = _spliced(ops)
        node = self._node(items, ops, pos, tail, None)
        # control flow and nested returns account for themselves, so only
        # straight-line code is one charged segment
        segments, kids = node
        if kids is None and len(segments) <= 1 \
                and all(summary is not None for _, summary, _ in segments):
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
        written.  Decided from the lowered code, without compiling it."""
        if name in self._leaves:
            return self._leaves[name]
        self._leaves[name] = None
        fn = self.lowered.functions[name]
        items = fn.body.items
        if any(not isinstance(item, RunNode) for item in items[:-1]) \
                or items and not isinstance(items[-1], (RunNode, RetNode)):
            return None
        instrs = fn.instrs
        unset, params = set(fn.locals), frozenset(fn.params)
        writes = set()
        extents = self.layout.data_extents
        for instr in instrs:
            cls = instr.__class__
            if cls is CallI or (cls is LoadI or cls is StoreI) and len(extents(instr.obj)) > 1:
                return None
            if unset and any(op.__class__ is Reg and op.slot in unset for op in _reads(instr)):
                return None
            dst = getattr(instr, "dst", None)
            if dst is not None:
                if dst in params:
                    return None
                writes.add(dst)
                unset.discard(dst)
        value = None
        if items and isinstance(items[-1], RetNode):
            ret = instrs[-1]
            value = Const(0) if ret.value is None else ret.value
            instrs = instrs[:-1]
        got = self._leaves[name] = _Leaf(
            instrs, _code_pages(self.layout, name, len(fn.instrs)), fn.run_starts, value,
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
                instrs, leaf.pages, starts=leaf.starts, remap=dict(zip(leaf.params, args)))]
        callee = self._body(instr.fn)
        binds = tuple(zip(callee.params, args))
        dst, zero, ret = instr.dst, callee.locals, callee.ret
        if callee.segment is not None and callee.segment[1].steps < self._merge_budget:
            closures, summary, at = callee.segment
            self._merge_budget -= 1 + summary.steps
            # the call's own step comes before the callee's charges
            charges = (fp,) + summary.charges

            def call(st: State, binds=binds, zero=zero, body=closures, at=at, dst=dst,
                     ret=ret):
                regs = st.regs
                for p, a in binds:
                    regs[p] = regs[a]
                for slot in zero:
                    regs[slot] = 0
                try:
                    for f in body:
                        f(st)
                except (SimTrap, ZeroDivisionError) as exc:
                    # each closure appears once in `body`: each call site
                    # has its own closure
                    raise _unwound(exc, charges, _op_index(body, at, f) + 1) from None
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


def _reads(instr: Instr) -> tuple:
    """The operands an instruction of straight-line code without calls
    reads."""
    cls = instr.__class__
    if cls is MovI or cls is UnI:
        return (instr.a,)
    if cls is BinI:
        return (instr.a, instr.b)
    if cls is SelI:
        return (instr.cond, instr.a, instr.b)
    if cls is LoadI:
        return (instr.index,)
    if cls is StoreI:
        return (instr.index, instr.src)
    if cls is RetI:
        return () if instr.value is None else (instr.value,)
    return ()


def _arms_differ(arms: tuple, entry: frozenset, rest: list) -> bool:
    """Whether an `if`'s arm nodes may fault differently: one holds a
    nested construct (more than one summarised segment, or a kid other
    than the shared `rest`), or run from the branch step's pages `entry`
    the two end with different faults or resident sets."""
    if any(kids is not rest or len(segs) > 1 or segs and segs[0][1] is None
           for segs, kids in arms):
        return True
    return len({segs[0][1].ends(entry) if segs else ((), entry) for segs, _ in arms}) > 1


def _no_op(st: State) -> None:
    pass


def _code_pages(layout: MemoryLayout, unit: str, count: int) -> list[int]:
    """The code page of each of a unit's `count` one-word instructions: the
    page holding its first byte (past the unit's extents, the last one)."""
    pages: list[int] = []
    end = 0
    for ext in layout.code_extents(unit) if count else ():
        end += ext.length
        while len(pages) < count and len(pages) * WORD_SIZE < end:
            pages.append(ext.page)
    pages.extend(pages[-1:] * (count - len(pages)))
    return pages


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
                raise PfoError(f"{out_of_range}{v}")
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

    Each block compiles to one flat tuple of `(closure, charge)` ops, its
    instructions at their own code pages; `transform.MultiplexedExecutable`
    builds the same tuples with the staging schedule compiled in, and
    compiles blocks that would get equal tuples once (`_link`).  A block
    is cut into segments at the ops that account for themselves, and each
    run of charged ops is summarised once (`Summary`): a run calls a
    segment's closures, which compute values only, then accounts its
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
              block_ops: Callable[[Block], list[tuple]],
              block_key: Optional[Callable[[Block], Hashable]] = None) -> None:
        """Make runs walk `tree`, running the `(closure, charge)` ops that
        `block_ops` compiles for each block.

        Blocks with equal `block_key`s share one segment tuple, compiled
        once from the first of them, so a key must fix everything
        `block_ops` reads of a block; without a key every block is compiled
        on its own.  Sharing is between blocks only: within a block each
        placement of a micro-op is compiled on its own, so the op a trap
        unwinds from appears once in its segment (`_run`).  Only the cut
        segments are kept (`segments`, by block id), not the op lists.
        """
        summaries: dict[tuple, Summary] = {}
        # every key before the first compile, so no key is allocated among
        # the closures
        keys = {b.id: b.id if block_key is None else block_key(b) for b in tree.blocks}
        compiled: dict[Hashable, tuple] = {}
        for b in tree.blocks:
            key = keys[b.id]
            if key not in compiled:
                compiled[key] = _segments(block_ops(b), summaries)
        self.segments = {bid: compiled[key] for bid, key in keys.items()}
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
    """A block's `(closure, charge)` ops cut where self-accounting ones
    start and stop: `(closures, None, None)` for a run of those, and for a
    run of charged ones its `_segment`."""
    if not ops:
        return ()
    values, charges = zip(*ops)
    if _NONE_ID not in map(id, charges):
        return (_segment(values, charges, summaries),)
    segments = []
    for self_accounting, run in groupby(ops, key=lambda op: op[1] is None):
        values, charges = zip(*run)
        segments.append((values, None, None) if self_accounting
                        else _segment(values, charges, summaries))
    return tuple(segments)


def _segment(values: tuple, charges: tuple, summaries: dict[tuple, Summary]) -> tuple:
    """A run of charged ops, their closures `values` and their `charges`,
    as `(closures, summary, at)`: the closures to call in order, the
    `Summary` of the charges, and `at`, the op index of each closure, or
    `None` when every op has one.  An op without a closure (`None`: a move
    fused with the op before it, see `_OpCompiler.compile_run`, a tail
    return, or a staging copy that moves nothing) only steps.  Runs with
    the same charges share one `summaries` entry (charges are interned
    footprints and shared staging closures)."""
    key = tuple(map(id, charges))
    summary = summaries.get(key)
    if summary is None:
        summary = summaries[key] = Summary(charges)
    if None not in values:
        return values, summary, None
    return tuple(filter(None, values)), summary, tuple(compress(count(), values))

