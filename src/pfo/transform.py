"""Deterministic multiplexing: staging areas, fetch/execute phases, copy-back.

The transform takes a balanced execution tree plus the vanilla layout it
would run under and produces a static schedule:

* every level's candidate blocks are copied into the single code staging
  page (`SA_code`) in a fixed order: side by side under basic multiplexing,
  or overlapping a shared dummy slot with only the selected block at the
  real offset under compacted multiplexing (the smart copy).  The mode
  comes from the fit alone: basic when every level's blocks fit one page
  together, else compacted;
* every data object any candidate block may touch is copied into the data
  staging pages (`SA_data`), the selected block executes entirely against
  staging, and written objects are copied back after the level (objects
  never written inside the region are pushed back once at the end).

Because the schedule is a function of the program alone and the execute
phase touches only staging pages, the page sequence the OS observes is the
same for every input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import Callable

from .exectree import Block, ExecutionTree, check_balanced
from .ir import PAD_OBJECT, data_refs
from .interp import (
    _KIND_RW,
    _KIND_W,
    Footprint,
    ObjectTable,
    Sink,
    State,
    TreeExecutable,
    _code_pages,
    _no_op,
    _OpCompiler,
)
from .lang import WORD_SIZE
from .layouts import next_free_page
from .memory import MemoryLayout, PfoError

SELECTOR = "__sa_sel"
_PAGES = attrgetter("pages")
_CHARGE = itemgetter(1)


class PlanError(PfoError):
    pass


@dataclass(frozen=True)
class CopyStep:
    """One scheduled extent copy (static pages, static word counts)."""

    kind: str  # 'code' | 'data' | 'back'
    unit: str  # block name or data object name
    src_page: int
    dst_page: int
    words: int
    src_word: int = 0  # word offset within the object (data/back)
    dst_word: int = 0
    dst_offset: int = 0  # byte offset inside the staging page (code)


@dataclass(frozen=True)
class LevelPlan:
    level: int
    fetch: tuple[CopyStep, ...]
    copy_back: tuple[CopyStep, ...]
    covers: tuple[int, ...] = ()  # merged source levels (O3A); defaults to (level,)

    def covered(self) -> tuple[int, ...]:
        return self.covers or (self.level,)


@dataclass(frozen=True)
class Slot:
    obj: str
    page: int
    word_off: int
    words: int


@dataclass(frozen=True)
class StagingArea:
    sa_code: int
    sa_data: tuple[int, ...]
    slots: dict[str, Slot]

    def pages(self) -> frozenset[int]:
        return frozenset((self.sa_code, *self.sa_data))


@dataclass(frozen=True)
class TransformPlan:
    mode: str  # 'basic' | 'compacted'
    page_size: int
    staging: StagingArea
    gamma: dict[int, tuple[int, int]]  # block id -> (level, SA_code byte offset)
    levels: tuple[LevelPlan, ...]
    final_copy_back: tuple[CopyStep, ...]
    readonly: frozenset[str]

    @property
    def scheduled_copy_ops(self) -> int:
        n = len(self.final_copy_back)
        for lv in self.levels:
            n += sum(1 for c in lv.fetch if c.kind == "data")
            n += len(lv.copy_back)
        return n

    def to_json_dict(self) -> dict:
        def step(c: CopyStep) -> dict:
            return {
                "kind": c.kind, "unit": c.unit, "src_page": c.src_page,
                "dst_page": c.dst_page, "words": c.words,
                "src_word": c.src_word, "dst_word": c.dst_word,
                "dst_offset": c.dst_offset,
            }
        return {
            "mode": self.mode,
            "page_size": self.page_size,
            "staging": {
                "sa_code": self.staging.sa_code,
                "sa_data": list(self.staging.sa_data),
                "slots": {
                    name: {"page": s.page, "word_off": s.word_off, "words": s.words}
                    for name, s in sorted(self.staging.slots.items())
                },
            },
            "gamma": {
                str(bid): {"level": lv, "offset": off}
                for bid, (lv, off) in sorted(self.gamma.items())
            },
            "levels": [
                {
                    "level": lv.level,
                    "fetch": [step(c) for c in lv.fetch],
                    "copy_back": [step(c) for c in lv.copy_back],
                }
                for lv in self.levels
            ],
            "final_copy_back": [step(c) for c in self.final_copy_back],
            "readonly": sorted(self.readonly),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def select_mode(level_code_sizes: list[list[int]], page_size: int) -> str:
    """The multiplexing mode, from the fit alone: basic when every level's
    blocks fit one page together, else compacted."""
    totals = [sum(sizes) for sizes in level_code_sizes]
    return "basic" if all(t <= page_size for t in totals) else "compacted"


def plan_layout(tree: ExecutionTree, source_layout: MemoryLayout,
                readonly_elim: bool = False,
                stage_code: bool = True) -> TransformPlan:
    """Choose staging geometry and emit the static fetch/copy-back schedule."""
    report = check_balanced(tree)
    if not report.balanced:
        raise PlanError(f"tree must be balanced before planning ({report.witness})")
    page_size = source_layout.page_size
    levels = tree.levels

    # each block's size and its (object, is_write) data references, once
    block_sizes = {}
    refs: dict[int, list[tuple[str, bool]]] = {}
    for b in tree.blocks:
        block_sizes[b.id] = max(b.code_size, WORD_SIZE)
        if block_sizes[b.id] > page_size:
            raise PlanError(
                f"block BB{b.id} is {block_sizes[b.id]} bytes, larger than one "
                f"{page_size}-byte page (block splitting unsupported)"
            )
        refs[b.id] = [
            (obj, is_write)
            for instr in b.instrs for obj, _idx, is_write in data_refs(instr)
        ]

    level_sizes = [[block_sizes[b.id] for b in lv] for lv in levels]
    mode = select_mode(level_sizes, page_size)
    if mode == "compacted":
        for lv, sizes in enumerate(level_sizes):
            if 2 * max(sizes) > page_size and len(sizes) > 1:
                raise PlanError(
                    f"level {lv + 1}: block of {max(sizes)} bytes cannot sit beside "
                    f"the dummy slot in one page"
                )

    # staging pages
    sa_code = next_free_page(source_layout)
    sa_data_pages = [sa_code + 1]

    # data slots: every array any block touches, plus pad and selector
    objects_in_order: dict[str, None] = {}
    writes: set[str] = set()
    for lv in levels:
        for b in lv:
            for obj, is_write in refs[b.id]:
                objects_in_order.setdefault(obj)
                if is_write:
                    writes.add(obj)
    readonly = frozenset(
        o for o in objects_in_order if o not in writes and o != PAD_OBJECT
    ) if readonly_elim else frozenset()

    slots: dict[str, Slot] = {}
    page_words = page_size // WORD_SIZE
    cursor_page = 0
    cursor_word = 0

    def alloc_slot(obj: str, words: int) -> Slot:
        nonlocal cursor_page, cursor_word
        if words > page_words:
            raise PlanError(
                f"data object {obj!r} is {words * WORD_SIZE} bytes, larger than "
                f"one page; cannot stage it"
            )
        if cursor_word + words > page_words:
            cursor_page += 1
            cursor_word = 0
            sa_data_pages.append(sa_code + 1 + cursor_page)
        slot = Slot(obj, sa_code + 1 + cursor_page, cursor_word, words)
        cursor_word += words
        return slot

    slots[SELECTOR] = alloc_slot(SELECTOR, 1)
    slots[PAD_OBJECT] = alloc_slot(PAD_OBJECT, 1)
    for obj in objects_in_order:
        if obj in slots:
            continue
        extents = source_layout.data_extents(obj)
        words = sum(e.length for e in extents) // WORD_SIZE
        slots[obj] = alloc_slot(obj, words)

    staging = StagingArea(sa_code, tuple(sa_data_pages), slots)

    # uniform per-level page-visit check: same-level blocks must touch the
    # same staging-page sequence during their execute phase, which every
    # block ends with the uniform selector-update step
    for lv_index, blocks in enumerate(levels):
        seqs = {
            tuple(slots[obj].page for obj, _w in refs[b.id]) + (slots[SELECTOR].page,)
            for b in blocks
        }
        if len(seqs) > 1:
            raise PlanError(
                f"level {lv_index + 1}: candidate blocks visit different staging "
                f"pages; rebalance data or widen the page size"
            )

    def copy_steps(obj: str, kind: str) -> list[CopyStep]:
        """`obj`'s extents into its slot ('data') or back out ('back')."""
        slot = slots[obj]
        steps = []
        word_off = 0
        for ext in source_layout.data_extents(obj):
            words = ext.length // WORD_SIZE
            src, dst = (ext.page, slot.page) if kind == "data" else (slot.page, ext.page)
            steps.append(CopyStep(kind, obj, src, dst, words,
                                  src_word=word_off, dst_word=word_off))
            word_off += words
        return steps

    # gamma + per-level schedules
    gamma: dict[int, tuple[int, int]] = {}
    level_plans: list[LevelPlan] = []
    ever_fetched: dict[str, None] = {}

    for lv_index, blocks in enumerate(levels):
        level = lv_index + 1
        fetch: list[CopyStep] = []
        # basic: blocks side by side, each run where it lands; compacted
        # (the smart copy): every block overwrites the dummy slot at 0 and
        # the selected one runs from just past the largest block
        real_off = max(level_sizes[lv_index])
        offset = 0
        for b in blocks:
            dst, run_at = (offset, offset) if mode == "basic" else (0, real_off)
            offset += block_sizes[b.id]
            if not stage_code:
                gamma[b.id] = (level, 0)
                continue
            gamma[b.id] = (level, run_at)
            fetch.extend(
                CopyStep("code", b.name(), ext.page, sa_code,
                         ext.length // WORD_SIZE, dst_offset=dst)
                for ext in source_layout.code_extents(b.name())
            )

        level_objs: dict[str, None] = {}
        level_writes: set[str] = set()
        for b in blocks:
            for obj, is_write in refs[b.id]:
                if obj == PAD_OBJECT:
                    continue
                level_objs.setdefault(obj)
                if is_write:
                    level_writes.add(obj)
        for obj in level_objs:
            if obj in readonly and obj in ever_fetched:
                continue  # O1: a read-only object is fetched once
            ever_fetched.setdefault(obj)
            fetch.extend(copy_steps(obj, "data"))
        copy_back = [
            step for obj in level_objs if obj in level_writes
            for step in copy_steps(obj, "back")
        ]
        level_plans.append(LevelPlan(level, tuple(fetch), tuple(copy_back)))

    # objects no level writes back are pushed back once at the end
    final_back = [
        step for obj in ever_fetched if obj not in writes and obj not in readonly
        for step in copy_steps(obj, "back")
    ]

    return TransformPlan(
        mode=mode,
        page_size=page_size,
        staging=staging,
        gamma=gamma,
        levels=tuple(level_plans),
        final_copy_back=tuple(final_back),
        readonly=readonly,
    )


def _copier(copies: tuple, moves: tuple, mux: int) -> tuple:
    """Scheduled copies as one op: the closure moves the data words, each
    move (src array, dst array, src word, dst word, words); the charge
    steps each copy, (footprint, words, is_code), per word and adds a
    block's multiplexing charge `mux`."""
    def run(st: State, moves=moves):
        arrays = st.arrays
        for src_i, dst_i, src_word, dst_word, words in moves:
            arrays[dst_i][dst_word:dst_word + words] = \
                arrays[src_i][src_word:src_word + words]

    def charge(sink: Sink):
        for fp, words, is_code in copies:
            sink.copy(fp, words, is_code)
        sink.mux_accesses += mux
    return run if moves else _no_op, charge


def _selector(fp: Footprint, sel_index: int) -> tuple:
    """The uniform per-block selector update: one step, one staging write."""
    def run(st: State, sel_index=sel_index):
        st.arrays[sel_index][0] = st.branch

    def charge(sink: Sink):
        sink.instr(fp)
        sink.mux_accesses += 1
    return run, charge


class MultiplexedExecutable(TreeExecutable):
    """Tree execution with the fetch/execute/copy-back schedule compiled in.

    Each block's op tuple holds, in order: the copies that enter its
    level (the level before's copy-back, then this level's fetch, unless
    one merged group covers both) with the block's multiplexing charge; its
    instructions, at the code staging page (their own pages under O4),
    against the data staging slots only; the selector update; and for a
    leaf the last copy-back.  Every op's pages are fixed, so a block is
    one segment that a run accounts once, from its `Summary`.  Blocks with
    the same copies and charge share one copy op, and blocks on one code
    page one selector op.  An execute-phase access that would leave the
    staging pages is an internal error, which keeps levels atomic.
    """

    def __init__(self, tree: ExecutionTree, source_layout: MemoryLayout,
                 plan: TransformPlan, code_staged: bool = True):
        self.source_layout = source_layout
        self.plan = plan
        program = tree.program
        slots = plan.staging.slots
        layout = replace(source_layout, staging=plan.staging.pages())
        # every slot, the pad and the selector included, is a shadow array
        objects = ObjectTable(program, layout, extra_objects={
            f"__sa/{obj}": slot.words for obj, slot in slots.items()
        })
        # execute-phase accesses go to the staging slots: one page each
        compiler = _OpCompiler(
            program, objects, program.int_width, tree.alloc,
            pages={obj: slot.page for obj, slot in slots.items()},
            indices={obj: objects.index[f"__sa/{obj}"] for obj in slots},
            strict_pages=layout.staging,
        )

        level_plans = {}
        for lp in plan.levels:
            for covered in lp.covered():
                level_plans[covered] = lp

        def copier(steps: tuple[CopyStep, ...], cp: int, mux: int) -> tuple:
            """The op running `steps` from code page `cp`, charging `mux`."""
            copies, moves = [], []
            for c in steps:
                fp = compiler.footprint(cp, (c.src_page, c.dst_page), _KIND_RW)
                copies.append((fp, c.words, c.kind == "code"))
                if c.kind == "code":
                    continue
                src_i = objects.index[c.unit]
                dst_i = objects.index[f"__sa/{c.unit}"]
                if c.kind == "back":
                    src_i, dst_i = dst_i, src_i
                moves.append((src_i, dst_i, c.src_word, c.dst_word, c.words))
            # levels that copy alike share one op, and so can their blocks'
            # summaries (footprints are interned: equal ones are one object)
            copies, moves = tuple(copies), tuple(moves)
            key = (tuple((id(fp), words, is_code) for fp, words, is_code in copies),
                   moves, mux)
            return once(key, lambda: _copier(copies, moves, mux))

        shared: dict[tuple, tuple] = {}

        def once(key: tuple, make: Callable[[], tuple]) -> tuple:
            got = shared.get(key)
            if got is None:
                got = shared[key] = make()
            return got

        def enter(group: LevelPlan, prev: LevelPlan | None) -> tuple:
            # the group that ran before a block's is its parent level's: copy
            # that one back, then fetch, unless one group covers both levels
            if group is prev:
                return ()
            return (prev.copy_back if prev else ()) + group.fetch

        sel_index = objects.index[f"__sa/{SELECTOR}"]
        sel_page = slots[SELECTOR].page

        def block_ops(b: Block) -> list[tuple]:
            if code_staged:
                cp = plan.staging.sa_code
                pages = [cp] * len(b.instrs)
            else:
                cp = source_layout.code_extents(b.name())[0].page
                pages = _code_pages(layout, b.name(), len(b.instrs))
            group = level_plans[b.level]
            prev = level_plans.get(b.level - 1)
            instrs = list(map(compiler.compile, b.instrs, pages))
            # the multiplexing charge is the data operand events of the
            # block's instructions (`Block.data_accesses` under staging)
            mux = sum(map(len, map(_PAGES, filter(None, map(_CHARGE, instrs)))))
            ops = [once(("enter", id(group), id(prev), cp, mux),
                        lambda: copier(enter(group, prev), cp, mux)),
                   *instrs,
                   once(("select", cp), lambda: _selector(
                       compiler.footprint(cp, (sel_page,), _KIND_W), sel_index))]
            if b.is_leaf:
                ops.append(once(("exit", id(group), cp), lambda: copier(
                    group.copy_back + plan.final_copy_back, cp, 0)))
            return ops

        self._link(tree, layout, objects, compiler, block_ops)
