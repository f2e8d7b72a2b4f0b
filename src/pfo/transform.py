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
  never written inside the region are pushed back once at the end);
* the developer-assisted optimizations that change this schedule are
  decided here too, in the same level loop: O1 fetches a read-only object
  once and never copies it back, O4 leaves the code in place, and O3A
  schedules a run of consecutive levels whose staged code fits the page
  together as one group, with one fetch and one copy-back.  Γ (`gamma`)
  says for every block which group's level fetches it and where it runs.

Because the schedule is a function of the program alone and the execute
phase touches only staging pages, the page sequence the OS observes is the
same for every input.  On a level of several blocks with staged code,
each code-only step also reads the staging data page of its block's next
data access, as a dummy read operand at no extra step (most x86 ALU
instructions take a memory operand): the OS keeps exactly the previous
step's pages, so otherwise where the accesses fall among a block's steps
would show, and `plan_layout` makes a level's blocks visit the same pages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .exectree import Block, ExecutionTree, check_balanced
from .ir import PAD_OBJECT, LoadI, PadI, StoreI
from .interp import (
    _KIND_R,
    _KIND_RW,
    _KIND_W,
    Footprint,
    ObjectTable,
    Sink,
    State,
    TreeExecutable,
    _code_pages,
    _OpCompiler,
)
from .lang import WORD_SIZE
from .layouts import next_free_page
from .memory import MemoryLayout, PfoError

SELECTOR = "__sa_sel"


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
    """One group's schedule: the consecutive tree levels it covers (one
    level, or an O3A group), fetched together before the first of them
    runs and copied back after the last."""

    covers: tuple[int, ...]
    fetch: tuple[CopyStep, ...]
    copy_back: tuple[CopyStep, ...]

    @property
    def level(self) -> int:
        return self.covers[0]


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
                readonly_elim: bool = False, stage_code: bool = True,
                merge_levels: bool = False) -> TransformPlan:
    """Choose staging geometry and emit the static fetch/copy-back schedule.

    One `LevelPlan` per group of consecutive levels: a level, or with
    `merge_levels` (O3A) each run of levels whose staged code fits the room
    left on the page (code left in place, without `stage_code`, takes none).
    A group's levels put their code side by side; its fetch takes, level by
    level, the level's code copies and then the objects the group has not
    fetched yet (with `readonly_elim`, O1, a read-only object is fetched
    once at all), and its copy-back the written objects it has not copied
    back yet.
    """
    report = check_balanced(tree)
    if not report.balanced:
        raise PlanError(f"tree must be balanced before planning ({report.witness})")
    page_size = source_layout.page_size
    levels = tree.levels

    for b in tree.blocks:
        if b.code_size > page_size:  # pages are at least 16 bytes
            raise PlanError(
                f"block {b.name()} is {b.code_size} bytes, larger than one "
                f"{page_size}-byte page (block splitting unsupported)"
            )
    level_sizes = [[b.slot_size for b in lv] for lv in levels]
    mode = select_mode(level_sizes, page_size)
    if mode == "compacted":
        for lv, sizes in enumerate(level_sizes):
            if 2 * max(sizes) > page_size:
                raise PlanError(
                    f"level {lv + 1}: block of {max(sizes)} bytes cannot sit beside "
                    f"the dummy slot in one page"
                )

    # staging pages
    sa_code = next_free_page(source_layout)
    sa_data_pages = [sa_code + 1]

    # data slots: every array any block touches, plus pad and selector
    objects_in_order = dict.fromkeys(
        obj for lv in levels for b in lv for obj, _ in b.refs)
    writes = tree.stored  # the pad object among them, when it is touched
    readonly = frozenset(
        o for o in objects_in_order if o not in writes
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
            tuple(slots[obj].page for obj, _w in b.refs) + (slots[SELECTOR].page,)
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

    # gamma + the schedule, one group of consecutive levels at a time
    gamma: dict[int, tuple[int, int]] = {}
    groups: list[tuple[list[int], list[CopyStep], list[CopyStep]]] = []
    ever_fetched: dict[str, None] = {}

    for lv_index, blocks in enumerate(levels):
        level = lv_index + 1
        sizes = level_sizes[lv_index]
        code_bytes = sum(sizes) if stage_code else 0
        if not (merge_levels and groups) or code_bytes > room:
            groups.append(([], [], []))
            room, base, fetched, backed = page_size, 0, set(), set()
        covers, fetch, back = groups[-1]
        covers.append(level)
        room -= code_bytes
        # basic: blocks side by side from the group's base, each run where
        # it lands; compacted (the smart copy): every block overwrites the
        # dummy slot at the base and the selected one runs from just past
        # the largest block
        real_off = base + max(sizes)
        offset = base
        for b, size in zip(blocks, sizes):
            if not stage_code:
                gamma[b.id] = (level, 0)
                continue
            dst, run_at = (offset, offset) if mode == "basic" else (base, real_off)
            offset += size
            gamma[b.id] = (covers[0], run_at)
            fetch.extend(
                CopyStep("code", b.name(), ext.page, sa_code,
                         ext.length // WORD_SIZE, dst_offset=dst)
                for ext in source_layout.code_extents(b.name())
            )
        base += code_bytes

        level_objs: dict[str, None] = {}
        level_writes: set[str] = set()
        for b in blocks:
            for obj, is_write in b.refs:
                if obj == PAD_OBJECT:
                    continue
                level_objs.setdefault(obj)
                if is_write:
                    level_writes.add(obj)
        for obj in level_objs:
            if obj in fetched or obj in readonly and obj in ever_fetched:
                continue  # once per group; O1: a read-only object once at all
            fetched.add(obj)
            ever_fetched.setdefault(obj)
            fetch.extend(copy_steps(obj, "data"))
        for obj in level_objs:
            if obj in level_writes and obj not in backed:
                backed.add(obj)
                back.extend(copy_steps(obj, "back"))

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
        levels=tuple(LevelPlan(tuple(covers), tuple(fetch), tuple(back))
                     for covers, fetch, back in groups),
        final_copy_back=tuple(final_back),
        readonly=readonly,
    )


def _copier(copies: tuple, moves: tuple, mux: int) -> tuple:
    """Scheduled copies as one op: the closure moves the data words, each
    move (src array, dst array, src word, dst word, words); the charge
    steps each copy, (footprint, words, is_code), per word and adds a
    block's multiplexing charge `mux`.  Every copy is charged, but only
    the copies of arrays some op stores into move (`MultiplexedExecutable`):
    with no move the op has no closure."""
    def run(st: State, moves=moves):
        arrays = st.arrays
        for src_i, dst_i, src_word, dst_word, words in moves:
            arrays[dst_i][dst_word:dst_word + words] = \
                arrays[src_i][src_word:src_word + words]

    def charge(sink: Sink):
        for fp, words, is_code in copies:
            sink.copy(fp, words, is_code)
        sink.mux_accesses += mux
    return run if moves else None, charge


def _selector(fp: Footprint, sel_index: int) -> tuple:
    """The uniform per-block selector update: one step, one staging write."""
    def run(st: State, sel_index=sel_index):
        st.arrays[sel_index][0] = st.branch

    def charge(sink: Sink):
        sink.instr(fp)
        sink.mux_accesses += 1
    return run, charge


# the micro-ops with a data operand
_DATA_OPS = frozenset((LoadI, StoreI, PadI))


class MultiplexedExecutable(TreeExecutable):
    """Tree execution with the fetch/execute/copy-back schedule compiled in.

    Each block's op tuple holds, in order: the copies that enter its
    level (the level before's copy-back, then this level's fetch, unless
    one merged group covers both) with the block's multiplexing charge,
    its `data_accesses`; its instructions, at the code staging page (their
    own pages when the plan fetches no code, as under O4), against the data
    staging slots only (with the dummy reads of a level of several
    blocks); the selector update; and for a leaf the last copy-back.
    Every op's pages are fixed, so a block is one segment that a run
    accounts once, from its `Summary` (which `witness` reads).
    An array no op stores into is the image's: its shadow is the image's
    own list, so its copies, charged like any other, move nothing, and a
    run neither copies it nor its shadow at start (`interp._Frame`).
    Blocks with the same copies and charge share one copy op, and blocks on
    one code page one selector op.  With the code staged, blocks on one
    level that hold the same micro-op objects (copies of one continuation,
    padded alike) and agree on being a leaf share one compiled segment
    tuple (`TreeExecutable._link`); unstaged, each block runs from its own
    code pages and is compiled on its own.  An execute-phase access that
    would leave the staging pages is an internal error, which keeps levels
    atomic.
    """

    def __init__(self, tree: ExecutionTree, source_layout: MemoryLayout,
                 plan: TransformPlan):
        self.source_layout = source_layout
        self.plan = plan
        program = tree.program
        slots = plan.staging.slots
        code_staged = any(c.kind == "code" for lp in plan.levels for c in lp.fetch)
        # every slot, the pad and the selector included, is a shadow array
        objects = ObjectTable(program, source_layout, extra_objects={
            f"__sa/{obj}": slot.words for obj, slot in slots.items()
        })
        # an array no block stores into equals the image in every run: its
        # shadow is the image's own list, and its copies move nothing
        stored = tree.stored
        image, index = objects.image, objects.index
        for obj in slots:
            if obj not in stored and obj in index:
                image[index[f"__sa/{obj}"]] = image[index[obj]]
        # execute-phase accesses go to the staging slots: one page each
        compiler = _OpCompiler(
            program, objects, tree.alloc,
            pages={obj: slot.page for obj, slot in slots.items()},
            indices={obj: objects.index[f"__sa/{obj}"] for obj in slots},
            strict_pages=plan.staging.pages(),
        )

        level_plans = {lv: lp for lp in plan.levels for lv in lp.covers}

        def copier(steps: tuple[CopyStep, ...], cp: int, mux: int) -> tuple:
            """The op running `steps` from code page `cp`, charging `mux`."""
            copies, moves = [], []
            for c in steps:
                fp = compiler.footprint(cp, (c.src_page, c.dst_page), _KIND_RW)
                copies.append((fp, c.words, c.kind == "code"))
                if c.kind == "code" or c.unit not in stored:
                    continue
                src_i = objects.index[c.unit]
                dst_i = objects.index[f"__sa/{c.unit}"]
                if c.kind == "back":
                    src_i, dst_i = dst_i, src_i
                moves.append((src_i, dst_i, c.src_word, c.dst_word, c.words))
                compiler.written.add(dst_i)
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
        compiler.written.add(sel_index)
        sel_page = slots[SELECTOR].page

        # a code-only step's footprint when it reads a staging data page
        reads = {page: compiler.footprint(plan.staging.sa_code, (page,), _KIND_R)
                 for page in plan.staging.sa_data}

        def block_ops(b: Block) -> list[tuple]:
            fps = [None] * len(b.instrs)
            if code_staged:
                cp = plan.staging.sa_code
                pages = [cp] * len(b.instrs)
                if len(tree.levels[b.level - 1]) > 1:
                    fp = reads[sel_page]  # the selector write ends every block
                    fps = []
                    for instr in reversed(b.instrs):
                        if instr.__class__ in _DATA_OPS:
                            fp = reads[compiler.pages[getattr(instr, "obj", PAD_OBJECT)]]
                        fps.append(fp)
                    fps.reverse()
            else:
                cp = source_layout.code_extents(b.name())[0].page
                pages = _code_pages(source_layout, b.name(), len(b.instrs))
            group = level_plans[b.level]
            prev = level_plans.get(b.level - 1)
            mux = b.data_accesses
            ops = [once(("enter", id(group), id(prev), cp, mux),
                        lambda: copier(enter(group, prev), cp, mux)),
                   *compiler.compile_run(b.instrs, pages, fps),
                   once(("select", cp), lambda: _selector(
                       compiler.footprint(cp, (sel_page,), _KIND_W), sel_index))]
            if b.is_leaf:
                ops.append(once(("exit", id(group), cp), lambda: copier(
                    group.copy_back + plan.final_copy_back, cp, 0)))
            return ops

        def staged_key(b: Block) -> tuple:
            # fixes everything `block_ops` reads when the code is staged: the
            # level gives `group` and `prev`, the micro-ops `mux`, and every
            # block runs from the one staging page
            return (b.level, b.is_leaf, *map(id, b.instrs))

        self._link(tree, source_layout, objects, compiler, block_ops,
                   staged_key if code_staged else None)

    @cached_property
    def witness(self) -> str | None:
        """`None` when every level's blocks fault alike, else the first level
        where two do not, as "level L, BBi and BBj fault differently": each
        block's one summarised segment, accounted from the level's entry set
        (empty, then the level before's common exit set), must end with the
        same faults and resident set.  By induction over the levels, `None`
        proves one profile for every run that does not trap; a witness may
        name a block no secret reaches.  O4 does not move traps: a run traps
        at the same op on the same path staged or not (its step shifted by
        the code copies, alike on every path).
        """
        entry: frozenset = frozenset()
        for blocks in self.tree.levels:
            ends = set()
            for b in blocks:
                ((_, summary, _),) = self.segments[b.id]
                ends.add(summary.ends(entry))
                if len(ends) > 1:
                    return (f"level {b.level}, BB{blocks[0].id} and BB{b.id} "
                            "fault differently")
            ((_, entry),) = ends
        return None
