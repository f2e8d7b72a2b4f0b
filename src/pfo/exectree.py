"""Execution trees: build, balance-check, and balance.

A tree node is an *execution block*: straight-line micro-ops ending either
in nothing (chain/leaf) or in a branch whose outcome picks the child.
Blocks sit at 1-based levels; the tree is balanced when every root-to-leaf
path has the same depth and all blocks sharing a level perform the same
number of code and data accesses.

Block boundaries are deterministic: conditionals end the current block
(the condition evaluation stays with it), each arm starts a child block
and the code following the conditional is replicated under both arms, and
unrolled loop iterations are chained as separate blocks.  Inlined call
bodies merge into the enclosing block.  Building places the items that
`ir.expand_region` has already lowered and lowers nothing itself, so the
code replicated under each arm gets blocks of its own, but every copy of
an item holds the same `Instr` objects and temporaries.
`balance` pads with one shared pad write and one shared no-op, so copies
padded alike stay the same objects throughout, and a staged executable
compiles such copies once (`transform.MultiplexedExecutable`).

A tree indexes itself once, when it is made: one walk from the root fills
its `blocks` and `levels`, every block's data references (`refs`) and
the objects the tree writes (`stored`), and every later pass (balance
check, balancing, planning, compiling) reads those fields.  No block
changes after that; `balance` pads copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .ir import (
    NODE_BUDGET,
    ExpansionBudgetError,
    IfItem,
    Instr,
    IterMark,
    NopI,
    Operand,
    PadI,
    RegAlloc,
    data_refs,
    expand_region,
)
from .lang import Program, WORD_SIZE
from .memory import PfoError

PAD_ORIGIN = "__pad"
# the one padding write and the one no-op `balance` fills with, so blocks
# padded alike hold the same micro-op objects
_PAD = PadI(PAD_ORIGIN)
_NOP = NopI(PAD_ORIGIN)


@dataclass(eq=False)
class Block:
    id: int
    level: int
    instrs: list[Instr]
    children: list["Block"] = field(default_factory=list)
    branch: Optional[Operand] = None
    origin: str = ""
    # the (object, is_write) pairs of its data accesses, in order: set by
    # the `ExecutionTree` that holds the block
    refs: tuple[tuple[str, bool], ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def code_size(self) -> int:
        return len(self.instrs) * WORD_SIZE

    @property
    def slot_size(self) -> int:
        """Bytes of code the block takes in a layout: an empty block still
        takes one word."""
        return max(self.code_size, WORD_SIZE)

    @property
    def code_accesses(self) -> int:
        return len(self.instrs)

    @property
    def data_accesses(self) -> int:
        return len(self.refs)

    def name(self) -> str:
        return f"BB{self.id}"


@dataclass(eq=False)
class ExecutionTree:
    """A tree of blocks from `root`, indexed once when it is made.

    `blocks` is every block in id order, so every parent comes before its
    children; `levels` groups them by level, each in id order; `stored` is
    the objects some block writes (its stores and padding writes).  Making
    the tree also sets each block's `refs`; no block changes afterwards.
    """

    program: Program
    root: Block
    alloc: RegAlloc
    blocks: list[Block] = field(init=False, repr=False)
    levels: list[list[Block]] = field(init=False, repr=False)
    stored: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        blocks: list[Block] = []
        stack = [self.root]
        while stack:
            b = stack.pop()
            b.refs = tuple((obj, w) for i in b.instrs for obj, _, w in data_refs(i))
            blocks.append(b)
            stack.extend(b.children)
        blocks.sort(key=attrgetter("id"))
        self.blocks = blocks
        self.levels = [[] for _ in range(max(b.level for b in blocks))]
        for b in blocks:
            self.levels[b.level - 1].append(b)
        self.stored = frozenset(obj for b in blocks for obj, w in b.refs if w)

    def leaf_depths(self) -> list[tuple[int, int]]:
        """(block id, depth) for every leaf, in id order."""
        return [(b.id, b.level) for b in self.blocks if b.is_leaf]

    def paths(self) -> int:
        return sum(1 for b in self.blocks if b.is_leaf)


def build_execution_tree(program: Program) -> ExecutionTree:
    """Split the lowered sensitive region (`expand_region`) into an
    execution tree.

    Every item placed into a block is charged against `NODE_BUDGET`, as
    every expanded statement is: copying continuations under both arms of
    each conditional can outgrow the expansion itself.  Every copy of an
    item holds its micro-ops, temporaries and branch operand: a run takes
    one arm.  Arms are grown from an explicit stack, the then arm's whole
    subtree before the else arm, so ids follow a depth-first walk however
    deep branches nest.  A block's origin is the function its first
    micro-op came from (`main` if it has none).
    """
    expanded, alloc = expand_region(program)
    entry = program.entry.name
    next_id = 1
    spent = 0
    root = None
    # an arm still to grow: its items, its level, and its parent's slot
    arms: list[tuple] = [(tuple(expanded), 1, None, 0)]
    while arms:
        items, level, parent, slot = arms.pop()
        block = Block(next_id, level, [], origin=entry)
        next_id += 1
        if parent is None:
            root = block
        else:
            parent.children[slot] = block
        for i, item in enumerate(items):
            if isinstance(item, IterMark):
                if not block.instrs:
                    continue  # nothing to split yet; merge boundary away
                child = Block(next_id, block.level + 1, [], origin=entry)
                next_id += 1
                block.children = [child]
                block = child
                continue
            spent += 1
            if spent > NODE_BUDGET:
                raise ExpansionBudgetError(
                    f"execution tree exceeds {NODE_BUDGET} lowered statements "
                    "(conditionals copy the code after them into both arms)"
                )
            ops = item.ops if isinstance(item, IfItem) else item
            if not block.instrs:
                block.origin = ops[0].origin
            block.instrs += ops
            if isinstance(item, IfItem):
                block.branch = ops[-1].cond
                block.children = [None, None]
                rest = items[i + 1:]
                arms.append((item.else_items + rest, block.level + 1, block, 1))
                arms.append((item.then_items + rest, block.level + 1, block, 0))
                break
    return ExecutionTree(program, root, alloc)


# --- balance ---------------------------------------------------------------

@dataclass(frozen=True)
class BalanceWitness:
    kind: str  # 'depth' | 'accesses'
    first: tuple[int, ...]
    second: tuple[int, ...]


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    witness: Optional[BalanceWitness] = None


def check_balanced(tree: ExecutionTree) -> BalanceReport:
    """Balanced iff all leaf depths agree and per-level access counts agree."""
    leaves = tree.leaf_depths()
    lo = min(leaves, key=lambda t: (t[1], t[0]))
    hi = max(leaves, key=lambda t: (t[1], -t[0]))
    if lo[1] != hi[1]:
        return BalanceReport(False, BalanceWitness("depth", lo, hi))
    for level_blocks in tree.levels:
        counts = [(b.id, b.code_accesses, b.data_accesses) for b in level_blocks]
        other = next((c for c in counts if c[1:] != counts[0][1:]), None)
        if other is not None:
            return BalanceReport(False, BalanceWitness("accesses", counts[0], other))
    return BalanceReport(True)


def balance(tree: ExecutionTree) -> ExecutionTree:
    """A padded copy of `tree` that `check_balanced` passes.

    Short paths get chains of padding blocks; every block is then padded to
    its level's maximum data-access count with dummy pad-object writes and
    to the maximum instruction count with no-ops, each one object (`_PAD`,
    `_NOP`) however often it is placed, so blocks that held the same
    micro-ops and are padded alike still do.  Padding instructions keep the
    terminator (branch) last.  Already-balanced trees come back unchanged,
    and `tree` itself never changes.
    """
    if check_balanced(tree).balanced:
        return tree

    # copy children before parents (ids put every parent first); a copy
    # keeps its block's refs until the padded tree indexes itself
    copies: dict[int, Block] = {}
    for b in reversed(tree.blocks):
        copies[b.id] = Block(b.id, b.level, list(b.instrs),
                             [copies[c.id] for c in b.children], b.branch,
                             b.origin, b.refs)
    levels = [[copies[b.id] for b in lv] for lv in tree.levels]

    # chain padding blocks under every short leaf, the last leaf first
    next_id = tree.blocks[-1].id + 1
    for leaf in reversed(tree.blocks):
        if not leaf.is_leaf:
            continue
        cur = copies[leaf.id]
        while cur.level < len(levels):
            pad = Block(next_id, cur.level + 1, [], origin=PAD_ORIGIN)
            next_id += 1
            levels[cur.level].append(pad)
            cur.children = [pad]
            cur = pad

    def fill(b: Block, instr: Instr, count: int) -> None:
        at = len(b.instrs) - (b.branch is not None)  # the branch stays last
        b.instrs[at:at] = [instr] * count

    for blocks in levels:
        most = max(b.data_accesses for b in blocks)
        for b in blocks:
            fill(b, _PAD, most - b.data_accesses)
        most = max(len(b.instrs) for b in blocks)
        for b in blocks:
            fill(b, _NOP, most - len(b.instrs))

    new_tree = ExecutionTree(tree.program, copies[tree.root.id], tree.alloc)
    report = check_balanced(new_tree)
    if not report.balanced:
        raise PfoError(f"internal: balancing failed ({report.witness})")
    return new_tree


# --- inspection output -------------------------------------------------

def tree_to_json(tree: ExecutionTree) -> dict:
    return {
        "blocks": [
            {
                "id": b.id,
                "level": b.level,
                "origin": b.origin,
                "instructions": len(b.instrs),
                "code_size": b.code_size,
                "data_accesses": b.data_accesses,
                "children": [c.id for c in b.children],
                "branches": b.branch is not None,
            }
            for b in tree.blocks
        ],
        "levels": [[b.id for b in lv] for lv in tree.levels],
        "paths": tree.paths(),
        "balanced": check_balanced(tree).balanced,
    }


def tree_to_dot(tree: ExecutionTree) -> str:
    lines = ["digraph exectree {", "  node [shape=box];"]
    for b in tree.blocks:
        label = f"{b.name()}\\nL{b.level} {len(b.instrs)} ops"
        lines.append(f'  {b.id} [label="{label}"];')
        for i, c in enumerate(b.children):
            edge = ""
            if b.branch is not None:
                edge = f' [label="{"T" if i == 0 else "F"}"]'
            lines.append(f"  {b.id} -> {c.id}{edge};")
    lines.append("}")
    return "\n".join(lines) + "\n"
