"""Layout construction: assigning code and data to concrete pages.

Placement pragmas in the source pin functions and arrays to chosen pages
(including engineered straddles, via negative offsets measured from the
page end), so a program plus its pragmas fully determines the geometry an
adversary observes.  One rule, `place`, puts everything on pages: it lays
out groups of units back to back, pinned groups first from their pragma
page and offset, then every other group on fresh pages from offset 0, each
past any pinned array its bytes would overlap.  Arrays are one-unit groups,
unpinned ones from the first page past the code no pinned array touches;
`first_page_past_pins` is the first page past every pinned array, where a
pass that pins code of its own (O3B's caller pages, in-place O4) starts.

The two layouts differ only in their code groups and their order:

* `build_ast_layout` (whole-function runs): one group per function that
  has code, in declaration order.
* `build_tree_layout` (tree runs): each origin function's blocks in id
  order, pinned origins by page, then the rest by name; padding blocks
  group under their own origin.  The pad object follows the arrays.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .exectree import ExecutionTree
from .ir import LoweredProgram, PAD_OBJECT
from .lang import Placement, Program, WORD_SIZE
from .memory import Extent, MemoryLayout, split_extents

ExtentMap = dict[str, tuple[Extent, ...]]
# a group's key (what a `place` pragma names) and its (unit, bytes) in order
Group = tuple[str, Sequence[tuple[str, int]]]


def place(page_size: int, groups: Sequence[Group],
          pins: Mapping[str, Placement], pinned: ExtentMap, page: int = 0
          ) -> tuple[ExtentMap, int]:
    """Lay each group's units out back to back: the groups `pins` names
    from their pragma's page and offset, in order, then every other group,
    in order, from offset 0 of the first page from `page` on where none of
    its bytes overlaps an array in `pinned` (a group that would overlap
    one starts again on the page after that array).  Returns each unit's
    extents, pinned groups' first, and the first page past them all and
    past `page`."""
    def pack(units, at: int, offset: int) -> tuple[ExtentMap, int]:
        """`units` from (at, offset) on, and the page after the last."""
        out = {}
        for unit, nbytes in units:
            out[unit] = extents = split_extents(page_size, at, offset, nbytes)
            at, offset = extents[-1].page, extents[-1].offset + extents[-1].length
        return out, at + 1

    taken: dict[int, list[tuple[int, int, int]]] = {}
    for extents in pinned.values():
        for e in extents:
            taken.setdefault(e.page, []).append(
                (e.offset, e.offset + e.length, extents[-1].page + 1))

    placed: ExtentMap = {}
    for key, units in groups:
        if key in pins:
            out, after = pack(units, pins[key].page, pins[key].offset)
            placed.update(out)
            page = max(page, after)
    for key, units in groups:
        if key in pins:
            continue
        at = page
        while at is not None:
            out, page = pack(units, at, 0)
            at = max((past for extents in out.values() for e in extents
                      for lo, hi, past in taken.get(e.page, ())
                      if e.offset < hi and lo < e.offset + e.length), default=None)
        placed.update(out)
    return placed, page


def _pins(program: Program, kind: str) -> dict[str, Placement]:
    return {p.name: p for p in program.placements if p.kind == kind}


def _pinned_arrays(program: Program, page_size: int) -> tuple[ExtentMap, int]:
    """The extents of every array a pragma pins, in declaration order, and
    the first page past them all."""
    pins = _pins(program, "data")
    return place(page_size, [g for g in _arrays(program) if g[0] in pins], pins, {})


def first_page_past_pins(program: Program, page_size: int,
                         code: Iterable[str] = ()) -> int:
    """The first page past every array a pragma pins and past the pinned
    code of each function `code` names (0 if none is)."""
    pins, lengths = _pins(program, "code"), program.lowered.code_lengths()
    groups = [(name, ((name, lengths[name]),)) for name in code if name in pins]
    return place(page_size, groups, pins, {}, _pinned_arrays(program, page_size)[1])[1]


def _layout(program: Program, page_size: int, code: Sequence[Group],
            data: Sequence[Group]) -> MemoryLayout:
    """The code groups, then the data groups, placed by the one rule."""
    pinned, _ = _pinned_arrays(program, page_size)
    code_map, page = place(page_size, code, _pins(program, "code"), pinned)
    while any(e.page == page for extents in pinned.values() for e in extents):
        page += 1
    data_map, _ = place(page_size, [g for g in data if g[0] not in pinned], {}, pinned, page)
    return MemoryLayout(page_size, code_map, {**pinned, **data_map})


def _arrays(program: Program) -> list[Group]:
    return [(d.name, ((d.name, d.byte_length),)) for d in program.arrays]


def build_ast_layout(lowered: LoweredProgram, page_size: int) -> MemoryLayout:
    """Vanilla layout for whole-function interpretation: one group per
    function that has code, in declaration order."""
    code = [(name, ((name, n),)) for name, n in lowered.code_lengths().items() if n]
    return _layout(lowered.program, page_size, code, _arrays(lowered.program))


def build_tree_layout(tree: ExecutionTree, page_size: int) -> MemoryLayout:
    """Vanilla layout for tree execution: each origin's blocks in id order,
    pinned origins by page, then the rest by name; the pad object last."""
    program = tree.program
    by_origin: dict[str, list[tuple[str, int]]] = {}
    for b in tree.blocks:
        by_origin.setdefault(b.origin or program.entry.name, []).append(
            (f"BB{b.id}", b.slot_size))
    pins = _pins(program, "code")
    order = sorted(by_origin, key=lambda o: (0, pins[o].page) if o in pins else (1, o))
    pad = (PAD_OBJECT, ((PAD_OBJECT, WORD_SIZE),))
    return _layout(program, page_size, [(o, by_origin[o]) for o in order],
                   _arrays(program) + [pad])


def next_free_page(layout: MemoryLayout) -> int:
    pages = layout.all_pages()
    return (max(pages) + 1) if pages else 0
