"""Layout construction: assigning code and data to concrete pages.

Placement pragmas in the source pin functions and arrays to chosen pages
(including engineered straddles, via negative offsets measured from the
page end).  Everything unplaced gets fresh page-aligned space after the
pinned units, deterministically, so a program plus its pragmas fully
determines the geometry an adversary observes.
"""

from __future__ import annotations

from .exectree import ExecutionTree
from .ir import LoweredProgram, PAD_OBJECT
from .lang import Program, WORD_SIZE
from .memory import Extent, MemoryLayout, split_extents


def _pages_spanned(extents) -> int:
    return max(e.page for e in extents) + 1 if extents else 0


def _pinned_data(program: Program, page_size: int) -> dict[str, tuple[Extent, ...]]:
    """The extents of every array a pragma pins, in declaration order."""
    placements = {p.name: p for p in program.placements if p.kind == "data"}
    return {d.name: split_extents(page_size, placements[d.name].page,
                                  placements[d.name].offset, d.byte_length)
            for d in program.arrays if d.name in placements}


def _clear_of(pinned: dict[str, tuple[Extent, ...]], place, page: int):
    """`place(page)`, the extents of a unit laid out from `page`, from the
    first page on where no byte of it overlaps a pinned array: a unit that
    would overlap one starts again on the page after that array."""
    taken: dict[int, list[tuple[int, int, int]]] = {}
    for extents in pinned.values():
        after = _pages_spanned(extents)
        for e in extents:
            taken.setdefault(e.page, []).append((e.offset, e.offset + e.length, after))
    while True:
        placed = place(page)
        after = max((past for e in placed for lo, hi, past in taken.get(e.page, ())
                     if e.offset < hi and lo < e.offset + e.length), default=None)
        if after is None:
            return placed
        page = after


def _data_extent_map(program: Program, page_size: int, next_free: int,
                     pinned: dict[str, tuple[Extent, ...]],
                     include_pad: bool) -> dict[str, tuple[Extent, ...]]:
    data_map: dict[str, tuple[Extent, ...]] = {}
    for name, extents in pinned.items():
        data_map[name] = extents
        next_free = max(next_free, _pages_spanned(extents))
    for d in program.arrays:
        if d.name in data_map:
            continue
        data_map[d.name] = split_extents(page_size, next_free, 0, d.byte_length)
        next_free = _pages_spanned(data_map[d.name])
    if include_pad:
        data_map[PAD_OBJECT] = split_extents(page_size, next_free, 0, WORD_SIZE)
    return data_map


def build_ast_layout(lowered: LoweredProgram, page_size: int) -> MemoryLayout:
    """Vanilla layout for whole-function interpretation.

    Code units are functions; pinned functions start at their pragma page
    (offset honored), the rest get fresh pages in declaration order, each
    past any pinned array its bytes would overlap.
    """
    program = lowered.program
    placements = {p.name: p for p in program.placements if p.kind == "code"}
    pinned = _pinned_data(program, page_size)
    lengths = lowered.code_lengths()
    code_map: dict[str, tuple[Extent, ...]] = {}
    next_free = 0
    for name, byte_len in lengths.items():
        p = placements.get(name)
        if p is not None and byte_len > 0:
            code_map[name] = split_extents(page_size, p.page, p.offset, byte_len)
            next_free = max(next_free, _pages_spanned(code_map[name]))
    for name, byte_len in lengths.items():
        if name in code_map or byte_len == 0:
            continue
        code_map[name] = _clear_of(
            pinned, lambda page: split_extents(page_size, page, 0, byte_len), next_free)
        next_free = _pages_spanned(code_map[name])
    data_map = _data_extent_map(program, page_size, next_free, pinned, include_pad=False)
    return MemoryLayout(page_size=page_size, code_map=code_map, data_map=data_map)


def build_tree_layout(tree: ExecutionTree, page_size: int) -> MemoryLayout:
    """Vanilla layout for tree execution.

    Blocks are grouped by origin function: a pinned origin's blocks pack
    sequentially from its pragma page, unpinned origins get fresh pages,
    each group past any pinned array its bytes would overlap.  Padding
    blocks group under their own page.
    """
    program = tree.program
    placements = {p.name: p for p in program.placements if p.kind == "code"}
    pinned = _pinned_data(program, page_size)
    by_origin: dict[str, list] = {}
    for b in tree.blocks:
        by_origin.setdefault(b.origin or program.entry.name, []).append(b)

    code_map: dict[str, tuple[Extent, ...]] = {}
    next_free = 0

    def place_group(blocks, page: int, offset: int) -> list[Extent]:
        """Lay `blocks` out in id order from (page, offset) into `code_map`;
        the extents of them all."""
        cursor_page, cursor_off = page, offset
        placed: list[Extent] = []
        for b in sorted(blocks, key=lambda b: b.id):
            extents = split_extents(page_size, cursor_page, cursor_off, b.slot_size)
            code_map[f"BB{b.id}"] = extents
            placed += extents
            last = extents[-1]
            cursor_page = last.page
            cursor_off = last.offset + last.length
            if cursor_off >= page_size:
                cursor_page += 1
                cursor_off = 0
        return placed

    pinned_origins = [o for o in by_origin if o in placements]
    for origin in sorted(pinned_origins, key=lambda o: placements[o].page):
        p = placements[origin]
        placed = place_group(by_origin[origin], p.page, p.offset)
        next_free = max(next_free, _pages_spanned(placed))
    for origin in sorted(o for o in by_origin if o not in placements):
        placed = _clear_of(
            pinned, lambda page: place_group(by_origin[origin], page, 0), next_free)
        next_free = _pages_spanned(placed)

    data_map = _data_extent_map(program, page_size, next_free, pinned, include_pad=True)
    return MemoryLayout(page_size=page_size, code_map=code_map, data_map=data_map)


def next_free_page(layout: MemoryLayout) -> int:
    pages = layout.all_pages()
    return (max(pages) + 1) if pages else 0
