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
  that only computes values, with the footprint its step is charged.
  Four kinds account for themselves as they run: a split-extent access
  (its footprint depends on the word index), a call, a return, and a
  footprint over `MAX_PAGES_PER_INSTRUCTION`.
* accounting: whole-function mode charges each step after its closure,
  inlining the rule for a step whose pages are already resident.  Tree
  mode cuts each block at the self-accounting ops and summarises every
  run of charged ops once, at construction, by running a scratch `Sink`
  over it (`Summary`): the OS keeps exactly the previous step's pages,
  so all but the first step's faults are fixed.  A run calls the
  closures, then adds the whole segment in one `Sink.account`.
* traps: a trapping closure raises without a step count; the runner that
  catches it brings the sink up to the trap with the same charges
  (`_trap_info`), so a trap's step, profile and trace are those of
  charging each step as it runs.
* constant slots: every constant operand reads a register slot above the
  program's own, filled once per run from the register template, so an
  operand is always `regs[slot]`.
* tail returns: a `return` that ends a function body hands its value
  back directly; only nested ones unwind through `_EarlyReturn`.

The canonical initial array image is computed once per `ObjectTable`;
each run starts from a fresh copy of it, and its `SimulationResult.store`
holds those same arrays as the run left them, not further copies.

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
from functools import cache, lru_cache
from itertools import groupby
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
    PadI,
    PAD_OBJECT,
    Reg,
    RegAlloc,
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
    access traps unstepped)."""

    def __init__(self, kind: str, detail: str = "",
                 counted: Optional["Footprint"] = None):
        self.kind = kind
        self.detail = detail
        self.counted = counted
        super().__init__(f"trap {kind}: {detail}")


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
    """Interns footprints, and the page sets of equal footprints' needs."""

    def __init__(self):
        self._footprints: dict[tuple, Footprint] = {}
        self._need_sets: dict[frozenset, frozenset] = {}

    def __call__(self, code: int, pages: tuple = (), kinds: tuple = ()) -> Footprint:
        key = (code, pages, kinds)
        got = self._footprints.get(key)
        if got is None:
            got = Footprint(code, pages, kinds)
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
                need = fp.need
                if len(need) > MAX_PAGES_PER_INSTRUCTION:
                    raise PageModelError(
                        f"instruction needs {len(need)} pages "
                        f"(limit {MAX_PAGES_PER_INSTRUCTION})"
                    )
                resident = self.resident
                faults = self.faults
                for p in need:
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
        or a callable that charges this sink (a staging copy or selector)."""
        instr = self.instr
        for c in charges:
            if c.__class__ is Footprint:
                instr(c)
            else:
                c(self)

    def account(self, s: "Summary") -> None:
        """A summarised segment's steps, counters and trace, and the
        pigeonhole rule for its first step; its later faults are fixed."""
        self.steps += s.steps
        self.copy_ops += s.copy_ops
        self.code_copy_ops += s.code_copy_ops
        self.mux_accesses += s.mux_accesses
        if self.footprints is not None:
            self.footprints += s.footprints
        first = s.first
        if first is None:
            return  # no step: the resident set stays
        if self.pigeonhole:
            resident = self.resident
            if resident is not first.need_set:
                self.faults += [p for p in first.need if p not in resident]
            self.faults += s.faults
        self.resident = s.exit


class Summary:
    """What a segment of statically charged ops adds to a `Sink`, computed
    once by running a scratch sink over their `charges`.

    Every step's pages are fixed and the OS keeps exactly the previous
    step's pages, so everything but the first step's faults is the same
    for every run: the steps and counters, the footprints, the faults from
    the second step on and the resident set at exit.  `first` is the
    first step's footprint (`None` when no op steps).
    """

    __slots__ = ("charges", "steps", "copy_ops", "code_copy_ops", "mux_accesses",
                 "footprints", "first", "faults", "exit")

    def __init__(self, charges: tuple):
        scratch = Sink(pigeonhole=True, collect=True)
        scratch.charge(charges)
        fps = scratch.footprints
        self.charges = charges
        self.steps = scratch.steps
        self.copy_ops = scratch.copy_ops
        self.code_copy_ops = scratch.code_copy_ops
        self.mux_accesses = scratch.mux_accesses
        self.footprints = tuple(fps)
        self.first = fps[0] if fps else None
        # from an empty resident set the first step faults all its pages
        self.faults = tuple(scratch.faults[len(fps[0].need) if fps else 0:])
        self.exit = scratch.resident


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


_DIVISIONS = ("/", "%")


@cache
def _make_arith(width: int):
    """Wrapping arithmetic, made once per width; a division by zero raises
    `ZeroDivisionError`, which the compiled division turns into a trap."""
    canon = _make_canon(width)

    def div(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return canon(-q if (a < 0) != (b < 0) else q)

    def mod(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return canon(a - q * b)

    ops: dict[str, Callable] = {
        "+": lambda a, b: canon(a + b),
        "-": lambda a, b: canon(a - b),
        "*": lambda a, b: canon(a * b),
        "/": div,
        "%": mod,
        # shift amounts reduce modulo the integer width
        "<<": lambda a, b: canon(a << (b % width)),
        ">>": lambda a, b: a >> (b % width),
        "&": lambda a, b: canon(a & b),
        "|": lambda a, b: canon(a | b),
        "^": lambda a, b: canon(a ^ b),
        "&&": lambda a, b: int(bool(a) and bool(b)),
        "==": lambda a, b: int(a == b),
        "!=": lambda a, b: int(a != b),
        "<": lambda a, b: int(a < b),
        ">": lambda a, b: int(a > b),
        "<=": lambda a, b: int(a <= b),
        ">=": lambda a, b: int(a >= b),
    }
    unops: dict[str, Callable] = {
        "-": lambda a: canon(-a),
        "+": lambda a: a,
        "~": lambda a: canon(~a),
        "!": lambda a: int(a == 0),
    }
    return canon, ops, unops


# --- object resolution --------------------------------------------------

@lru_cache(maxsize=1024)
def _canonical(init: tuple[int, ...], width: int) -> tuple[int, ...]:
    """An array initializer wrapped to `width` bits, made once per
    initializer: the tables of a program are rebuilt with every executable."""
    canon = _make_canon(width)
    # canonical values form an interval, so in-range ends mean no value
    # needs wrapping
    if init and any(canon(v) != v for v in (min(init), max(init))):
        return tuple(map(canon, init))
    return init


class ObjectTable:
    """Array storage indices, the canonical initial array image (computed
    once per table), and each object's pages under a layout."""

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
        self._extent_pages: dict[str, tuple] = {}
        width = program.int_width
        for n in self.names:
            d = program.decl(n)
            if d is not None and d.is_array:
                length, init = d.array_len, _canonical(d.init, width)
            elif extra_objects and n in extra_objects:
                length, init = extra_objects[n], ()
            else:
                length, init = 1, ()
            arr = list(init)
            arr.extend([0] * (length - len(arr)))
            self.lengths.append(length)
            self._image.append(arr)
        self.layout = layout

    def fresh_arrays(self) -> list[list[int]]:
        """One run's arrays: a copy of the canonical initial image."""
        return [arr[:] for arr in self._image]

    def extent_pages(self, name: str) -> tuple[tuple[int, ...], Optional[list[int]]]:
        """An object's page per extent, and for a split object the extent
        index of every word (words past the extents take the last one);
        `None` when the object sits on one extent."""
        got = self._extent_pages.get(name)
        if got is None:
            extents = self.layout.data_extents(name)
            pages = tuple(e.page for e in extents)
            ext_of = None
            if len(extents) > 1:
                ext_of = []
                for k, e in enumerate(extents):
                    ext_of.extend([k] * (e.length // WORD_SIZE))
                length = self.lengths[self.index[name]]
                ext_of.extend([len(extents) - 1] * (length - len(ext_of)))
            got = self._extent_pages[name] = (pages, ext_of)
        return got


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

    def __init__(self, program: Program, objects: ObjectTable, width: int,
                 alloc: RegAlloc,
                 pages: Optional[dict[str, int]] = None,
                 indices: Optional[dict[str, int]] = None,
                 strict_pages: Optional[frozenset[int]] = None):
        self.program = program
        self.objects = objects
        self.canon, self.binops, self.unops = _make_arith(width)
        self.decl_slots = {
            d.name: alloc.slot(d.name) for d in program.decls if not d.is_array
        }
        self.reg_base = alloc.count
        self.pages = pages or {}
        self.indices = indices or {}
        self.strict_pages = strict_pages
        self._const_slots: dict[int, int] = {}
        self.footprint = FootprintTable()
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
        if isinstance(op, Reg):
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
        `strict_pages`: a split extent, a strict page, or more pages than
        one instruction may touch, which the access checks as it steps."""
        key = (obj, cp, kinds)
        got = self._data_footprints.get(key)
        if got is None:
            got = self._data_footprints[key] = self._new_data_footprint(obj, cp, kinds)
        return got

    def _new_data_footprint(self, obj: str, cp: int, kinds: tuple):
        if obj in self.pages:
            pages, ext_of = (self.pages[obj],), None
        else:
            pages, ext_of = self.objects.extent_pages(obj)
        allowed = self.strict_pages
        fps = tuple(
            None if allowed is not None and p not in allowed
            else self.footprint(cp, (p,), kinds)
            for p in pages
        )
        if ext_of is None and fps[0] is not None \
                and len(fps[0].need) <= MAX_PAGES_PER_INSTRUCTION:
            return fps[0], None

        def lookup(i: int) -> Footprint:
            k = 0 if ext_of is None else ext_of[i]
            fp = fps[k]
            if fp is None:
                raise PfoError(
                    f"execute-phase access escaped staging pages (page {pages[k]})"
                )
            return fp
        return None, lookup

    def compile(self, instr: Instr, code_page: int,
                call_target: Optional[Callable] = None) -> tuple:
        """`(closure, footprint)`: the closure computes the micro-op's values
        and its step is charged `footprint`; with footprint `None` the
        closure accounts for itself (a split-extent access, a call, a
        return, or more pages than one instruction may touch)."""
        slot = self.slot
        fp = self._code_footprints.get(code_page)
        if fp is None:
            fp = self._code_footprints[code_page] = self.footprint(code_page)
        if isinstance(instr, BinI):
            fn = self.binops[instr.op]
            a, b, dst = slot(instr.a), slot(instr.b), instr.dst
            if instr.op in _DIVISIONS:
                def run(st: State, fn=fn, a=a, b=b, dst=dst, fp=fp):
                    regs = st.regs
                    try:
                        regs[dst] = fn(regs[a], regs[b])
                    except ZeroDivisionError:
                        raise SimTrap("div-zero", counted=fp) from None
                return run, fp
            def run(st: State, fn=fn, a=a, b=b, dst=dst):
                regs = st.regs
                regs[dst] = fn(regs[a], regs[b])
            return run, fp
        if isinstance(instr, MovI):
            a, dst = slot(instr.a), instr.dst
            def run(st: State, a=a, dst=dst):
                regs = st.regs
                regs[dst] = regs[a]
            return run, fp
        if isinstance(instr, (LoadI, StoreI)):
            return self._compile_access(instr, code_page)
        if isinstance(instr, UnI):
            fn = self.unops[instr.op]
            a, dst = slot(instr.a), instr.dst
            def run(st: State, fn=fn, a=a, dst=dst):
                regs = st.regs
                regs[dst] = fn(regs[a])
            return run, fp
        if isinstance(instr, SelI):
            c, a, b, dst = slot(instr.cond), slot(instr.a), slot(instr.b), instr.dst
            def run(st: State, c=c, a=a, b=b, dst=dst):
                regs = st.regs
                regs[dst] = regs[a] if regs[c] else regs[b]
            return run, fp
        if isinstance(instr, BranchI):
            c = slot(instr.cond)
            def run(st: State, c=c):
                st.branch = 1 if st.regs[c] else 0
            return run, fp
        if isinstance(instr, PadI):
            oi = self._obj_index(PAD_OBJECT)
            pad_fp, lookup = self._data_footprint(PAD_OBJECT, code_page, _KIND_W)
            if lookup is None:
                def run(st: State, oi=oi):
                    st.arrays[oi][0] = 0
                return run, pad_fp
            def run(st: State, lookup=lookup, oi=oi):
                st.sink.instr(lookup(0))
                st.arrays[oi][0] = 0
            return run, None
        if isinstance(instr, NopI):
            return _no_op, fp
        if isinstance(instr, RetI):
            ret = self.compile_return(instr, code_page)
            def run(st: State, ret=ret):
                raise _EarlyReturn(ret(st))
            return run, None
        if isinstance(instr, CallI):
            args = tuple(slot(a) for a in instr.args)
            dst = instr.dst
            def run(st: State, fp=fp, args=args, dst=dst, call_target=call_target):
                st.sink.instr(fp)
                regs = st.regs
                result = call_target(st, [regs[a] for a in args])
                if dst is not None:
                    regs[dst] = 0 if result is None else result
            return run, None
        raise PfoError(f"cannot compile {instr!r}")

    def compile_return(self, instr: RetI, code_page: int) -> Callable[[State], int]:
        """A `return` as a closure that steps and gives the returned value."""
        fp = self.footprint(code_page)
        v = self.slot(Const(0) if instr.value is None else instr.value)
        def ret(st: State, fp=fp, v=v) -> int:
            st.sink.instr(fp)
            return st.regs[v]
        return ret

    def _compile_access(self, instr, code_page: int) -> tuple:
        obj = instr.obj
        oi = self._obj_index(obj)
        n = self.objects.lengths[oi]
        a = self.slot(instr.index)
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
        src = self.slot(instr.src)
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


def _sequence(steps: list) -> Callable[[State], None]:
    """Run `(closure, footprint)` steps in order, charging each static
    footprint right after its closure; the pigeonhole rule is inlined for
    a step whose pages are the resident set, where nothing can fault."""
    if not steps:
        return _no_op
    if len(steps) == 1 and steps[0][1] is None:
        return steps[0][0]
    steps = tuple(steps)

    def run(st: State):
        sink = st.sink
        for f, fp in steps:
            f(st)
            if fp is None:
                continue
            if sink.resident is fp.need_set:
                sink.steps += 1
                if sink.footprints is not None:
                    sink.footprints.append(fp)
            else:
                sink.instr(fp)
    return run


def _trap_info(sink: Sink, trap: SimTrap, at: int = 0,
               summary: Optional[Summary] = None) -> TrapInfo:
    """The trap's step, with `sink` brought up to it: a trap at op `at` of
    a summarised segment first charges the ops before it, the same way
    the summary was made."""
    if summary is not None:
        sink.charge(summary.charges[:at])
    if trap.counted is not None:
        sink.instr(trap.counted)
    return TrapInfo(trap.kind, sink.steps, trap.detail)


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
        self._compiler = _OpCompiler(program, self.objects, self.width,
                                     self.lowered.alloc)
        self.canon = self._compiler.canon
        self._fn_runners: dict[str, Callable] = {}
        for name in self.lowered.functions:
            self._compile_function(name)
        self._regs0 = self._compiler.regs0()
        self._inputs, self._outputs = _scalar_slots(
            program, self._compiler.decl_slots, self._regs0, self.canon)
        self._stored = [
            (name, self.objects.index[name])
            for name in self.objects.names if name != PAD_OBJECT
        ]

    def _compile_function(self, name: str):
        fn = self.lowered.functions[name]
        pages = _code_pages(self.layout, name, len(fn.instrs))
        compiler = self._compiler
        runners = self._fn_runners

        def call_target_for(instr: CallI):
            callee = instr.fn
            def target(st: State, values):
                return runners[callee](st, values)
            return target

        ops = [
            compiler.compile(instr, pages[idx],
                             call_target_for(instr) if isinstance(instr, CallI) else None)
            for idx, instr in enumerate(fn.instrs)
        ]

        def compile_seq(seq: SeqNode) -> Callable:
            # runs are spliced in, so a sequence is one flat list of steps
            steps: list = []
            for item in seq.items:
                if isinstance(item, RunNode):
                    steps.extend(ops[item.lo:item.hi])
                elif isinstance(item, RetNode):
                    steps.extend(ops[item.run.lo:item.run.hi])
                    steps.append(ops[item.ret_index])
                elif isinstance(item, IfNode):
                    steps.extend(ops[item.cond_run.lo:item.cond_run.hi])
                    steps.append(ops[item.branch_index])
                    then_run = compile_seq(item.then_node)
                    else_run = compile_seq(item.else_node)
                    def run_if(st: State, then_run=then_run, else_run=else_run):
                        if st.branch:
                            then_run(st)
                        else:
                            else_run(st)
                    steps.append((run_if, None))
                elif isinstance(item, ForNode):
                    steps.extend(ops[item.init_run.lo:item.init_run.hi])
                    body = compile_seq(item.body)
                    step_run = _sequence(ops[item.step_run.lo:item.step_run.hi])
                    def run_for(st: State, body=body, step_run=step_run,
                                trips=item.trips):
                        for _ in range(trips):
                            body(st)
                            step_run(st)
                    steps.append((run_for, None))
                elif isinstance(item, WhileNode):
                    cond_run = _sequence(
                        ops[item.cond_run.lo:item.cond_run.hi] + [ops[item.branch_index]])
                    body = compile_seq(item.body)
                    def run_while(st: State, cond_run=cond_run, body=body,
                                  bound=item.bound, do_first=item.do_first):
                        n = 0
                        if do_first:
                            if bound == 0:
                                return
                            body(st)
                            n = 1
                        while True:
                            cond_run(st)
                            if not st.branch:
                                return
                            if n >= bound:
                                raise SimTrap("loop-bound", f"exceeded bound {bound}")
                            body(st)
                            n += 1
                    steps.append((run_while, None))
                else:
                    raise PfoError(f"cannot compile node {item!r}")
            return _sequence(steps)

        # a `return` that ends the body hands its value back directly; only
        # nested ones unwind through `_EarlyReturn`
        items = fn.body.items
        tail = None
        if items and isinstance(items[-1], RetNode):
            last = items[-1]
            items = items[:-1] + [last.run]
            tail = compiler.compile_return(fn.instrs[last.ret_index],
                                           pages[last.ret_index])
        body_runner = compile_seq(SeqNode(items))
        params = fn.params

        def runner(st: State, values):
            regs = st.regs
            for slot, v in zip(params, values):
                regs[slot] = v
            try:
                body_runner(st)
            except _EarlyReturn as ret:
                return ret.value
            return None if tail is None else tail(st)

        runners[name] = runner

    def run(self, secret: dict[str, int] | None = None,
            public: dict[str, int] | None = None,
            model: Optional[AdversaryModel] = None,
            collect_trace: bool = False) -> SimulationResult:
        st = _start(self, model, collect_trace, secret, public)
        trap = None
        try:
            self._fn_runners["main"](st, [])
        except SimTrap as t:
            trap = _trap_info(st.sink, t)
        return _result(self, st, trap)


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


def _start(exe, model: Optional[AdversaryModel], collect_trace: bool,
           secret: dict[str, int] | None, public: dict[str, int] | None) -> State:
    """A run's state: a fresh sink, the register template and array image,
    and the bound inputs."""
    model = model or AdversaryModel.pigeonhole()
    sink = Sink(
        pigeonhole=model.variant is AdversaryVariant.PIGEONHOLE,
        collect=collect_trace,
    )
    st = State(exe._regs0[:], exe.objects.fresh_arrays(), sink)
    _bind_inputs(exe._inputs, st, exe.canon, secret, public)
    return st


def _result(exe, st: State, trap: Optional[TrapInfo]) -> SimulationResult:
    sink = st.sink
    regs = st.regs
    return SimulationResult(
        outputs={name: regs[slot] for name, slot in exe._outputs},
        profile=sink.faults,
        steps=sink.steps,
        copy_ops=sink.copy_ops,
        code_copy_ops=sink.code_copy_ops,
        mux_accesses=sink.mux_accesses,
        trap=trap,
        footprints=sink.footprints,
        store={name: st.arrays[i] for name, i in exe._stored},
    )


def _scalar_slots(program: Program, decl_slots: dict[str, int], regs0: list[int],
                  canon) -> tuple[tuple, tuple]:
    """Each input's (declaration, slot) and each output's (name, slot);
    the other scalars' initial values go into the register template."""
    inputs = []
    for d in program.decls:
        if d.is_array:
            continue
        slot = decl_slots[d.name]
        if d.kind in (DeclKind.SECRET, DeclKind.PUBLIC):
            inputs.append((d, slot))
        elif d.init:
            regs0[slot] = canon(d.init[0])
    outputs = tuple((d.name, decl_slots[d.name]) for d in program.outputs)
    return tuple(inputs), outputs


def _bind_inputs(inputs: tuple, st: State, canon,
                 secret: dict[str, int] | None, public: dict[str, int] | None):
    secret = dict(secret or {})
    public = dict(public or {})
    regs = st.regs
    for d, slot in inputs:
        if d.kind == DeclKind.SECRET:
            if d.name not in secret:
                raise PfoError(f"secret {d.name!r} not bound")
            v = secret.pop(d.name)
            if d.width is not None and not (0 <= v < (1 << d.width)):
                raise PfoError(
                    f"secret {d.name!r} must be in [0, 2^{d.width}), got {v}"
                )
        else:
            v = public.pop(d.name, d.init[0] if d.init else 0)
            if d.width is not None and not (0 <= v < (1 << d.width)):
                raise PfoError(
                    f"public {d.name!r} must be in [0, 2^{d.width}), got {v}"
                )
        regs[slot] = canon(v)
    if secret:
        raise PfoError(f"unknown secret inputs: {sorted(secret)}")
    if public:
        raise PfoError(f"unknown public inputs: {sorted(public)}")


# --- tree executable --------------------------------------------------------

class TreeExecutable:
    """Root-to-leaf walker over a (possibly balanced) execution tree.

    Each block compiles to one flat tuple of `(closure, charge)` ops, its
    instructions at their own code pages; `transform.MultiplexedExecutable`
    builds the same tuples with the staging schedule compiled in.  A block
    is cut into segments at the ops that account for themselves, and each
    run of charged ops is summarised once (`Summary`): a run calls a
    segment's closures, which compute values only, then accounts its
    summary in one `Sink.account`, and moves to the child its branch picked.
    """

    def __init__(self, tree: ExecutionTree, layout: Optional[MemoryLayout] = None,
                 page_size: Optional[int] = None):
        program = tree.program
        if layout is None:
            layout = build_tree_layout(tree, program.resolve_page_size(page_size))
        objects = ObjectTable(program, layout)
        compiler = _OpCompiler(program, objects, program.int_width, tree.alloc)
        self._link(tree, layout, objects, compiler, lambda b: list(map(
            compiler.compile, b.instrs, _code_pages(layout, b.name(), len(b.instrs)))))

    def _link(self, tree: ExecutionTree, layout: MemoryLayout,
              objects: ObjectTable, compiler: _OpCompiler,
              block_ops: Callable[[Block], list[tuple]]) -> None:
        """Make runs walk `tree`, running the `(closure, charge)` ops that
        `block_ops` compiles for each block."""
        summaries: dict[tuple, Summary] = {}
        segments = {b.id: _segments(block_ops(b), summaries) for b in tree.blocks}
        self.tree = tree
        self.program = tree.program
        self.layout = layout
        self.objects = objects
        self.canon = compiler.canon
        self._regs0 = compiler.regs0()  # every op is compiled: the slots are fixed
        self._inputs, self._outputs = _scalar_slots(
            tree.program, compiler.decl_slots, self._regs0, self.canon)
        self._stored = [
            (name, objects.index[name])
            for name in objects.names
            if name != PAD_OBJECT and not name.startswith("__sa")
        ]
        # a node is (segments, successors indexed by `st.branch`, or None for
        # a leaf); deepest blocks first, so every child's node exists
        nodes: dict[int, tuple] = {}
        for b in sorted(tree.blocks, key=lambda b: -b.level):
            kids = None
            if b.children:
                first = nodes[b.children[0].id]
                kids = (first, first) if b.branch is None \
                    else (nodes[b.children[1].id], first)
            nodes[b.id] = (segments[b.id], kids)
        self._root = nodes[tree.root.id]

    def run(self, secret: dict[str, int] | None = None,
            public: dict[str, int] | None = None,
            model: Optional[AdversaryModel] = None,
            collect_trace: bool = False) -> SimulationResult:
        st = _start(self, model, collect_trace, secret, public)
        account = st.sink.account
        trap = None
        node = self._root
        try:
            while node is not None:
                segments, kids = node
                for values, summary in segments:
                    for f in values:
                        f(st)
                    if summary is not None:
                        account(summary)
                node = None if kids is None else kids[st.branch]
        except SimTrap as t:
            # `f` is the op that trapped
            trap = _trap_info(st.sink, t, values.index(f), summary)
        return _result(self, st, trap)


_NONE_ID = id(None)


def _segments(ops: list[tuple], summaries: dict[tuple, Summary]) -> tuple:
    """A block's `(closure, charge)` ops cut where self-accounting ones
    start and stop: `(closures, None)` for a run of those, `(closures,
    summary)` for a run of charged ones.  Runs with the same charges share
    one `summaries` entry (charges are interned footprints and shared
    staging closures)."""
    if not ops:
        return ()
    values, charges = zip(*ops)
    ids = tuple(map(id, charges))
    if _NONE_ID not in ids:
        return ((values, _summary(charges, ids, summaries)),)
    segments = []
    for self_accounting, run in groupby(ops, key=lambda op: op[1] is None):
        values, charges = zip(*run)
        segments.append((values, None if self_accounting else
                         _summary(charges, tuple(map(id, charges)), summaries)))
    return tuple(segments)


def _summary(charges: tuple, key: tuple, summaries: dict[tuple, Summary]) -> Summary:
    got = summaries.get(key)
    if got is None:
        got = summaries[key] = Summary(charges)
    return got


def simulate(program: Program, layout: Optional[MemoryLayout] = None,
             secret: dict[str, int] | None = None,
             public: dict[str, int] | None = None,
             model: Optional[AdversaryModel] = None,
             page_size: Optional[int] = None,
             collect_trace: bool = False) -> SimulationResult:
    """One-shot reference simulation of a program under a layout."""
    exe = AstExecutable(program, layout, page_size)
    return exe.run(secret, public, model, collect_trace)
