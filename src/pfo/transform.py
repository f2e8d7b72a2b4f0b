"""Deterministic multiplexing: staging areas, fetch/execute phases, copy-back.

The transform takes a balanced execution tree plus the vanilla layout it
would run under and produces a static schedule:

* every level's candidate blocks are copied into the single code staging
  page (`SA_code`) in a fixed order: side by side under basic multiplexing,
  or overlapping a shared dummy slot with only the selected block at the
  real offset under compacted multiplexing (the smart copy);
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
from dataclasses import dataclass

from .exectree import Block, ExecutionTree, check_balanced
from .ir import PAD_OBJECT, data_refs
from .interp import _KIND_RW, _KIND_W, ObjectTable, State, TreeExecutable, _OpCompiler
from .lang import WORD_SIZE
from .layouts import next_free_page
from .memory import Extent, MemoryLayout, PfoError, Staging

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

    @property
    def scheduled_words(self) -> int:
        total = sum(c.words for c in self.final_copy_back)
        for lv in self.levels:
            total += sum(c.words for c in lv.fetch) + sum(c.words for c in lv.copy_back)
        return total

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
    """Basic multiplexing when every level's blocks fit one page, else compacted."""
    totals = [sum(sizes) for sizes in level_code_sizes]
    return "basic" if all(t <= page_size for t in totals) else "compacted"


def smart_copy(block_sizes: list[int], real_index: int, page_size: int) -> list[tuple[int, bool]]:
    """Byte offsets for a compacted-level fetch.

    Non-selected blocks all overwrite the shared dummy slot at offset 0;
    the selected block lands at the non-overlapping real offset.  Returns
    (offset, is_real) per block, in order.
    """
    if not block_sizes:
        return []
    dummy_span = max(block_sizes)
    real_off = dummy_span
    if real_off + block_sizes[real_index] > page_size:
        raise PlanError(
            f"real block of {block_sizes[real_index]} bytes does not fit beside "
            f"the {dummy_span}-byte dummy slot in a {page_size}-byte page"
        )
    return [
        (real_off if i == real_index else 0, i == real_index)
        for i in range(len(block_sizes))
    ]


def _block_objects(block: Block) -> list[tuple[str, bool]]:
    """(object, is_write) per data reference, in instruction order."""
    out = []
    for instr in block.instrs:
        for obj, _idx, is_write in data_refs(instr):
            out.append((obj, is_write))
    return out


def plan_layout(tree: ExecutionTree, source_layout: MemoryLayout,
                mode: str = "auto", readonly_elim: bool = False,
                stage_code: bool = True) -> TransformPlan:
    """Choose staging geometry and emit the static fetch/copy-back schedule."""
    report = check_balanced(tree)
    if not report.balanced:
        raise PlanError(f"tree must be balanced before planning ({report.witness})")
    page_size = source_layout.page_size
    levels = tree.levels

    block_sizes = {}
    for b in tree.blocks:
        block_sizes[b.id] = max(b.code_size, WORD_SIZE)
        if block_sizes[b.id] > page_size:
            raise PlanError(
                f"block BB{b.id} is {block_sizes[b.id]} bytes, larger than one "
                f"{page_size}-byte page (block splitting unsupported)"
            )

    level_totals = [sum(block_sizes[b.id] for b in lv) for lv in levels]
    fits_basic = all(t <= page_size for t in level_totals)
    if mode == "auto":
        mode = select_mode([[block_sizes[b.id] for b in lv] for lv in levels], page_size)
    elif mode == "basic" and not fits_basic:
        worst = max(range(len(levels)), key=lambda i: level_totals[i])
        raise PlanError(
            f"basic multiplexing needs every level to fit one page; level "
            f"{worst + 1} totals {level_totals[worst]} bytes"
        )
    if mode == "compacted":
        for lv, blocks in enumerate(levels):
            sizes = [block_sizes[b.id] for b in blocks]
            biggest = max(sizes)
            if 2 * biggest > page_size and len(blocks) > 1:
                raise PlanError(
                    f"level {lv + 1}: block of {biggest} bytes cannot sit beside "
                    f"the dummy slot in one page"
                )

    # staging pages
    sa_code = next_free_page(source_layout)
    sa_data_pages = [sa_code + 1]

    # data slots: every array any block touches, plus pad and selector
    objects_in_order: list[str] = []
    writes: set[str] = set()
    for lv in levels:
        for b in lv:
            for obj, is_write in _block_objects(b):
                if obj not in objects_in_order:
                    objects_in_order.append(obj)
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
    # same staging-page sequence during their execute phase
    for lv_index, blocks in enumerate(levels):
        seqs = []
        for b in blocks:
            # every block ends with the uniform selector-update step
            seq = [slots[obj].page for obj, _w in _block_objects(b)]
            seq.append(slots[SELECTOR].page)
            seqs.append(tuple(seq))
        if len(set(seqs)) > 1:
            raise PlanError(
                f"level {lv_index + 1}: candidate blocks visit different staging "
                f"pages; rebalance data or widen the page size"
            )

    # gamma + per-level schedules
    gamma: dict[int, tuple[int, int]] = {}
    level_plans: list[LevelPlan] = []
    fetched_readonly: set[str] = set()
    ever_fetched: list[str] = []

    def data_steps(obj: str, kind: str) -> list[CopyStep]:
        slot = slots[obj]
        steps = []
        word_off = 0
        for ext in source_layout.data_extents(obj):
            words = ext.length // WORD_SIZE
            if kind == "data":
                steps.append(CopyStep(
                    "data", obj, ext.page, slot.page, words,
                    src_word=word_off, dst_word=word_off,
                ))
            else:
                steps.append(CopyStep(
                    "back", obj, slot.page, ext.page, words,
                    src_word=word_off, dst_word=word_off,
                ))
            word_off += words
        return steps

    for lv_index, blocks in enumerate(levels):
        fetch: list[CopyStep] = []
        sizes = [block_sizes[b.id] for b in blocks]
        if not stage_code:
            for b in blocks:
                gamma[b.id] = (lv_index + 1, 0)
        elif mode == "basic":
            offset = 0
            for b in blocks:
                gamma[b.id] = (lv_index + 1, offset)
                for ext in _code_extents(source_layout, b):
                    fetch.append(CopyStep(
                        "code", f"BB{b.id}", ext.page, sa_code,
                        ext.length // WORD_SIZE, dst_offset=offset,
                    ))
                offset += block_sizes[b.id]
        else:
            real_off = max(sizes)
            for b in blocks:
                gamma[b.id] = (lv_index + 1, real_off)
                for ext in _code_extents(source_layout, b):
                    fetch.append(CopyStep(
                        "code", f"BB{b.id}", ext.page, sa_code,
                        ext.length // WORD_SIZE, dst_offset=0,
                    ))

        level_objs: list[str] = []
        level_writes: set[str] = set()
        for b in blocks:
            for obj, is_write in _block_objects(b):
                if obj == PAD_OBJECT:
                    continue
                if obj not in level_objs:
                    level_objs.append(obj)
                if is_write:
                    level_writes.add(obj)
        for obj in level_objs:
            if obj in readonly:
                if obj in fetched_readonly:
                    continue
                fetched_readonly.add(obj)
            if obj not in ever_fetched:
                ever_fetched.append(obj)
            fetch.extend(data_steps(obj, "data"))

        copy_back: list[CopyStep] = []
        for obj in level_objs:
            if obj in level_writes:
                copy_back.extend(data_steps(obj, "back"))

        level_plans.append(LevelPlan(lv_index + 1, tuple(fetch), tuple(copy_back)))

    written_somewhere = set()
    for lp in level_plans:
        written_somewhere.update(c.unit for c in lp.copy_back)
    final_back: list[CopyStep] = []
    for obj in ever_fetched:
        if obj in written_somewhere or obj in readonly:
            continue
        final_back.extend(data_steps(obj, "back"))

    return TransformPlan(
        mode=mode,
        page_size=page_size,
        staging=staging,
        gamma=gamma,
        levels=tuple(level_plans),
        final_copy_back=tuple(final_back),
        readonly=readonly,
    )


def _code_extents(layout: MemoryLayout, block: Block) -> tuple[Extent, ...]:
    return layout.code_extents(f"BB{block.id}")


class MultiplexedExecutable:
    """Tree execution wrapped with the fetch/execute/copy-back schedule.

    Execute-phase instructions run from the code staging page against the
    data staging slots only; an access that would leave the staging pages
    is an internal error, which keeps levels atomic.
    """

    def __init__(self, tree: ExecutionTree, source_layout: MemoryLayout,
                 plan: TransformPlan, code_staged: bool = True):
        self.tree = tree
        self.source_layout = source_layout
        self.plan = plan
        self.code_staged = code_staged
        program = tree.program

        staged = [o for o in plan.staging.slots if o not in (SELECTOR, PAD_OBJECT)]
        shadow_lengths = {
            f"__sa/{obj}": plan.staging.slots[obj].words for obj in staged
        }
        shadow_lengths[f"__sa/{PAD_OBJECT}"] = 1
        shadow_lengths[f"__sa/{SELECTOR}"] = 1

        layout = MemoryLayout(
            page_size=source_layout.page_size,
            code_map=dict(source_layout.code_map),
            data_map=dict(source_layout.data_map),
            staging=Staging(plan.staging.sa_code, plan.staging.sa_data),
        )
        objects = ObjectTable(program, layout, extra_objects=shadow_lengths)

        # execute-phase accesses go to the staging slots: one page each
        compiler = _OpCompiler(
            program, objects, program.int_width, tree.alloc,
            pages={obj: plan.staging.slots[obj].page for obj in staged + [PAD_OBJECT]},
            indices={obj: objects.index[f"__sa/{obj}"] for obj in staged + [PAD_OBJECT]},
            strict_pages=plan.staging.pages(),
        )
        sel_index = objects.index[f"__sa/{SELECTOR}"]
        sel_page = plan.staging.slots[SELECTOR].page
        sa_code_page = plan.staging.sa_code

        level_plans = {}
        for lp in plan.levels:
            for covered in lp.covered():
                level_plans[covered] = lp

        copies: dict[tuple, tuple] = {}

        def copy_ops(steps: tuple[CopyStep, ...], back: bool, cp: int) -> tuple:
            """(footprint, words, is_code, src array, dst array, src word,
            dst word) per scheduled copy, shared by every block that runs
            the same steps from the same code page."""
            key = (id(steps), back, cp)
            got = copies.get(key)
            if got is None:
                ops = []
                for c in steps:
                    fp = compiler.footprint(cp, (c.src_page, c.dst_page), _KIND_RW)
                    if c.kind == "code":
                        ops.append((fp, c.words, True, 0, 0, 0, 0))
                        continue
                    src_i = objects.index[c.unit]
                    dst_i = objects.index[f"__sa/{c.unit}"]
                    if back:
                        src_i, dst_i = dst_i, src_i
                    ops.append((fp, c.words, False, src_i, dst_i, c.src_word, c.dst_word))
                got = copies[key] = tuple(ops)
            return got

        # Per block, fixed here with the compiled code: the copies before it
        # runs, the selector update after it, its multiplexing charge (not
        # on `Block`: balancing appends pads to a block's instrs), and after
        # a leaf the last copy-back.  A block's parent sits one level up, so
        # the group that ran before a block's is its parent level's: copy
        # that one back, then fetch, unless one group covers both levels.
        enter = {}
        exit_ops = {}
        for b in tree.blocks:
            cp = sa_code_page if code_staged else \
                source_layout.code_extents(f"BB{b.id}")[0].page
            group = level_plans[b.level]
            prev = level_plans.get(b.level - 1)
            ops = ()
            if group is not prev:
                if prev is not None:
                    ops = copy_ops(prev.copy_back, True, cp)
                ops = ops + copy_ops(group.fetch, False, cp)
            sel_fp = compiler.footprint(cp, (sel_page,), _KIND_W)
            enter[b.id] = (ops, b.data_accesses, sel_fp)
            if b.is_leaf:
                exit_ops[b.id] = copy_ops(group.copy_back, True, cp) \
                    + copy_ops(plan.final_copy_back, True, cp)

        def run_copies(st: State, ops: tuple):
            sink = st.sink
            arrays = st.arrays
            for fp, words, is_code, src_i, dst_i, src_word, dst_word in ops:
                sink.copy(fp, words, is_code)
                if not is_code:
                    arrays[dst_i][dst_word:dst_word + words] = \
                        arrays[src_i][src_word:src_word + words]

        def on_level(st: State, block: Block):
            ops, charge, _ = enter[block.id]
            run_copies(st, ops)
            st.sink.mux_accesses += charge

        def on_block_end(st: State, block: Block):
            # uniform per-block selector update: one step, one staging write
            st.sink.instr(enter[block.id][2])
            st.sink.mux_accesses += 1
            st.arrays[sel_index][0] = st.branch

        def on_exit(st: State, leaf: Block):
            run_copies(st, exit_ops[leaf.id])

        if code_staged:
            code_page_for = lambda block, idx: sa_code_page
        else:
            code_page_for = None  # natural per-block placement
        self._exe = TreeExecutable(
            tree, layout,
            objects=objects,
            compiler=compiler,
            code_page_for=code_page_for,
            on_level=on_level,
            on_block_end=on_block_end,
            on_exit=on_exit,
        )
        self.layout = layout

    def run(self, secret=None, public=None, model=None, collect_trace=False):
        return self._exe.run(secret, public, model, collect_trace)

