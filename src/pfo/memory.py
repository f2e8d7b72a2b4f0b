"""Paging model: virtual pages, memory layouts, access events, adversaries.

Everything downstream (the interpreter, the multiplexing transform, the
leakage analyses) is phrased in terms of this module's vocabulary:

* a *page* is a plain non-negative integer (the virtual page number),
* a *layout* maps code units and data objects to byte extents on pages,
* a *trace* is the ordered stream of page-touching events one execution
  emits, and
* a *profile* is what a given adversary model distills from a trace: the
  ordered list of faulting page numbers.

Profiles are represented as ``list[int]``.  The observing OS never sees
offsets within a page, only page numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


class PfoError(Exception):
    """Base class for all errors raised by this package."""


class LayoutError(PfoError):
    """A memory layout is malformed or an object is not mapped."""


class PageModelError(PfoError):
    """A trace violates the adversary model's structural assumptions."""


class EventKind(str, Enum):
    CODE_FETCH = "code-fetch"
    DATA_READ = "data-read"
    DATA_WRITE = "data-write"


@dataclass(frozen=True)
class AccessEvent:
    """One page-granular access, stamped with a monotone event counter."""

    kind: EventKind
    page: int
    step: int


@dataclass(frozen=True)
class Extent:
    """A contiguous byte range on a single page."""

    page: int
    offset: int
    length: int

    def __post_init__(self):
        if self.page < 0 or self.offset < 0 or self.length <= 0:
            raise LayoutError(f"bad extent {self!r}")


def _check_page_size(page_size: int) -> None:
    if page_size < 16 or page_size & (page_size - 1):
        raise LayoutError(f"page size must be a power of two >= 16, got {page_size}")


def split_extents(page_size: int, page: int, offset: int, length: int) -> tuple[Extent, ...]:
    """Break a placement at (page, offset) of `length` bytes into per-page extents.

    A negative offset means "this many bytes before the end of `page`", so
    `offset=-112` starts the object 112 bytes before the page boundary and
    lets the remainder flow onto the following pages.
    """
    _check_page_size(page_size)
    if offset < 0:
        offset = page_size + offset
        if offset < 0:
            raise LayoutError("negative offset larger than a page")
    page += offset // page_size
    offset %= page_size
    out = []
    remaining = length
    while remaining > 0:
        chunk = min(remaining, page_size - offset)
        out.append(Extent(page, offset, chunk))
        remaining -= chunk
        page += 1
        offset = 0
    return tuple(out)


@dataclass(frozen=True)
class MemoryLayout:
    """Assignment of code units and data objects to page extents.

    `code_map` keys are code-unit names (a function or an execution block),
    `data_map` keys are data-object names (arrays and the pad object).
    Every value is the tuple of per-page extents the unit spans, in byte
    order.  A transformed program's staging pages lie past every mapped
    page (`transform.plan_layout`), so they are not part of its layout.
    """

    page_size: int
    code_map: dict[str, tuple[Extent, ...]] = field(default_factory=dict)
    data_map: dict[str, tuple[Extent, ...]] = field(default_factory=dict)

    def __post_init__(self):
        _check_page_size(self.page_size)
        self._validate()

    def _validate(self) -> None:
        # No two objects may claim overlapping byte ranges on one page.
        used: dict[int, list[tuple[int, int, str]]] = {}
        for name, extents in list(self.code_map.items()) + list(self.data_map.items()):
            for ext in extents:
                if ext.offset + ext.length > self.page_size:
                    raise LayoutError(f"{name}: extent {ext} exceeds page size {self.page_size}")
                for lo, hi, other in used.get(ext.page, []):
                    if ext.offset < hi and lo < ext.offset + ext.length:
                        raise LayoutError(
                            f"{name} overlaps {other} on page {ext.page}"
                        )
                used.setdefault(ext.page, []).append(
                    (ext.offset, ext.offset + ext.length, name)
                )

    def data_extents(self, object_id: str) -> tuple[Extent, ...]:
        try:
            return self.data_map[object_id]
        except KeyError:
            raise LayoutError(f"unmapped data object {object_id!r}") from None

    def code_extents(self, unit_id: str) -> tuple[Extent, ...]:
        try:
            return self.code_map[unit_id]
        except KeyError:
            raise LayoutError(f"unmapped code unit {unit_id!r}") from None

    def all_pages(self) -> frozenset[int]:
        return frozenset(e.page for units in (self.code_map, self.data_map)
                         for extents in units.values() for e in extents)


def page_of(layout: MemoryLayout, object_id: str, byte_index: int) -> int:
    """Page containing byte `byte_index` of a mapped data object: the byte
    form of `layouts.word_runs`, so word i is on `page_of(..., 4 * i)`."""
    extents = layout.data_extents(object_id)
    if byte_index < 0:
        raise LayoutError(f"negative byte index {byte_index}")
    remaining = byte_index
    for ext in extents:
        if remaining < ext.length:
            return ext.page
        remaining -= ext.length
    total = sum(e.length for e in extents)
    raise LayoutError(
        f"byte index {byte_index} out of bounds for {object_id!r} (length {total})"
    )


class AdversaryVariant(str, Enum):
    INFINITE_MEMORY = "infinite-memory"
    PIGEONHOLE = "pigeonhole"


# An x86 instruction touches at most three address locations: its code page
# plus two data operands.  The pigeonhole OS therefore keeps a resident set
# of at most three pages.
MAX_PAGES_PER_INSTRUCTION = 3


@dataclass(frozen=True)
class AdversaryModel:
    variant: AdversaryVariant

    @staticmethod
    def infinite_memory() -> "AdversaryModel":
        return AdversaryModel(AdversaryVariant.INFINITE_MEMORY)

    @staticmethod
    def pigeonhole() -> "AdversaryModel":
        return AdversaryModel(AdversaryVariant.PIGEONHOLE)


def _instruction_groups(trace: Iterable[AccessEvent]) -> Iterator[list[AccessEvent]]:
    """Split a trace into per-instruction event groups.

    Every instruction emits exactly one code fetch followed by its data
    operand events, so a code fetch starts a new group.  Step counters must
    strictly increase across the whole trace.
    """
    group: list[AccessEvent] = []
    last_step = -1
    for ev in trace:
        if ev.step <= last_step:
            raise PageModelError(
                f"event steps must strictly increase (step {ev.step} after {last_step})"
            )
        last_step = ev.step
        if ev.kind is EventKind.CODE_FETCH and group:
            yield group
            group = []
        group.append(ev)
    if group:
        yield group


def observe_profile(trace: Iterable[AccessEvent], model: AdversaryModel) -> list[int]:
    """Replay a trace under an adversary model and return the fault profile.

    Under the infinite-memory model nothing ever faults.  Under the
    pigeonhole model the OS keeps exactly the pages the previous instruction
    needed, so every page an instruction needs that is not already resident
    faults, in canonical order (code page first, then data operands in
    operand order).
    """
    if model.variant is AdversaryVariant.INFINITE_MEMORY:
        for _ in _instruction_groups(trace):
            pass  # still validates monotonicity
        return []
    faults: list[int] = []
    resident: frozenset[int] = frozenset()
    for group in _instruction_groups(trace):
        needed: list[int] = []
        for ev in group:
            if ev.page not in needed:
                needed.append(ev.page)
        if len(needed) > MAX_PAGES_PER_INSTRUCTION:
            raise PageModelError(
                f"instruction at step {group[0].step} needs {len(needed)} pages "
                f"(limit {MAX_PAGES_PER_INSTRUCTION}): {needed}"
            )
        for page in needed:
            if page not in resident:
                faults.append(page)
        resident = frozenset(needed)
    return faults

