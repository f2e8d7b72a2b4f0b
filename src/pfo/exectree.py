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
bodies merge into the enclosing block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Union

from .ir import (
    BinI,
    BranchI,
    Const,
    Instr,
    IterMark,
    LoadI,
    MovI,
    NopI,
    Operand,
    PadI,
    PAD_OBJECT,
    Reg,
    RegAlloc,
    SelI,
    StoreI,
    TaggedIf,
    TaggedStmt,
    UnI,
    data_refs,
    expand_region,
    DEFAULT_NODE_BUDGET,
)
from .lang import (
    Assign, Binary, Index, Num, Program, SizeOf, Ternary, Unary, Var, WORD_SIZE,
)
from .memory import PfoError

PAD_ORIGIN = "__pad"


@dataclass
class Block:
    id: int
    level: int
    instrs: list[Instr]
    children: list["Block"] = field(default_factory=list)
    branch: Optional[Operand] = None
    origin: str = ""

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def code_size(self) -> int:
        return len(self.instrs) * WORD_SIZE

    @property
    def code_accesses(self) -> int:
        return len(self.instrs)

    @property
    def data_accesses(self) -> int:
        return sum(len(data_refs(i)) for i in self.instrs)

    def name(self) -> str:
        return f"BB{self.id}"


@dataclass
class ExecutionTree:
    program: Program
    root: Block
    alloc: RegAlloc

    @property
    def blocks(self) -> list[Block]:
        out: list[Block] = []
        stack = [self.root]
        while stack:
            b = stack.pop()
            out.append(b)
            stack.extend(reversed(b.children))
        out.sort(key=lambda b: b.id)
        return out

    @property
    def levels(self) -> list[list[Block]]:
        by_level: dict[int, list[Block]] = {}
        for b in self.blocks:
            by_level.setdefault(b.level, []).append(b)
        return [sorted(by_level[lv], key=lambda b: b.id) for lv in sorted(by_level)]

    def leaf_depths(self) -> list[tuple[int, int]]:
        """(block id, depth) for every leaf, in id order."""
        return [(b.id, b.level) for b in self.blocks if b.is_leaf]

    def paths(self) -> int:
        return sum(1 for b in self.blocks if b.is_leaf)


class _TreeLowerer:
    """Lowers expanded (renamed, call-free) statements into block instrs."""

    def __init__(self, program: Program, alloc: RegAlloc):
        self.program = program
        self.alloc = alloc

    def operand(self, e, instrs: list[Instr], origin: str) -> Operand:
        if isinstance(e, Num):
            return Const(e.value)
        if isinstance(e, SizeOf):
            decl = self.program.decl(e.name)
            if decl is None or not decl.is_array:
                raise PfoError(f"sizeof({e.name}): not an array")
            return Const(decl.byte_length)
        if isinstance(e, Var):
            return self._reg(e.name)
        if isinstance(e, Index):
            idx = self.operand(e.index, instrs, origin)
            dst = self.alloc.temp()
            instrs.append(LoadI(dst, e.name, idx, origin))
            return self._reg_of(dst)
        if isinstance(e, Unary):
            a = self.operand(e.operand, instrs, origin)
            dst = self.alloc.temp()
            instrs.append(UnI(dst, e.op, a, origin))
            return self._reg_of(dst)
        if isinstance(e, Binary):
            a = self.operand(e.left, instrs, origin)
            b = self.operand(e.right, instrs, origin)
            dst = self.alloc.temp()
            instrs.append(BinI(dst, e.op, a, b, origin))
            return self._reg_of(dst)
        if isinstance(e, Ternary):
            c = self.operand(e.cond, instrs, origin)
            a = self.operand(e.if_true, instrs, origin)
            b = self.operand(e.if_false, instrs, origin)
            dst = self.alloc.temp()
            instrs.append(SelI(dst, c, a, b, origin))
            return self._reg_of(dst)
        raise PfoError(f"unexpected expression in expanded region: {e!r}")

    def _reg(self, name: str):
        return Reg(self.alloc.slot(name))

    def _reg_of(self, slot: int):
        return Reg(slot)

    def assign(self, stmt: Assign, instrs: list[Instr], origin: str) -> None:
        value = self.operand(stmt.value, instrs, origin)
        if isinstance(stmt.target, Var):
            instrs.append(MovI(self.alloc.slot(stmt.target.name), value, origin))
        else:
            idx = self.operand(stmt.target.index, instrs, origin)
            instrs.append(StoreI(stmt.target.name, idx, value, origin))


def build_execution_tree(program: Program, budget: int = DEFAULT_NODE_BUDGET) -> ExecutionTree:
    """Inline, unroll, and split the sensitive region into an execution tree."""
    items = expand_region(program, budget)
    alloc = RegAlloc()
    lowerer = _TreeLowerer(program, alloc)
    counter = iter(range(1, 1 << 62))

    def grow(items: tuple, level: int) -> Block:
        # iterative along chains (IterMark) so deep unrolled loops do not
        # recurse; only branch arms recurse, bounded by branch nesting
        first = Block(next(counter), level, [], origin="")
        block = first
        i = 0
        while i < len(items):
            item = items[i]
            rest_index = i + 1
            if isinstance(item, TaggedStmt):
                if not block.instrs:
                    block.origin = item.origin
                lowerer.assign(item.stmt, block.instrs, item.origin)
                i += 1
            elif isinstance(item, IterMark):
                if not block.instrs:
                    i += 1
                    continue  # nothing to split yet; merge boundary away
                child = Block(next(counter), block.level + 1, [], origin="")
                block.children = [child]
                block = child
                i += 1
            elif isinstance(item, TaggedIf):
                if not block.instrs:
                    block.origin = item.origin
                cond = lowerer.operand(item.cond, block.instrs, item.origin)
                block.instrs.append(BranchI(cond, item.origin))
                rest = items[rest_index:]
                then_child = grow(tuple(item.then_items) + rest, block.level + 1)
                else_child = grow(tuple(item.else_items) + rest, block.level + 1)
                block.branch = cond
                block.children = [then_child, else_child]
                if not first.origin:
                    first.origin = program.entry.name
                return first
            else:
                raise PfoError(f"unexpected expansion item {item!r}")
        for b in (first, block):
            if not b.origin:
                b.origin = program.entry.name
        return first

    root = grow(tuple(items), 1)
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
    depths = {d for _, d in leaves}
    if len(depths) > 1:
        lo = min(leaves, key=lambda t: (t[1], t[0]))
        hi = max(leaves, key=lambda t: (t[1], -t[0]))
        return BalanceReport(False, BalanceWitness("depth", lo, hi))
    for level_blocks in tree.levels:
        counts = {(b.code_accesses, b.data_accesses) for b in level_blocks}
        if len(counts) > 1:
            first = level_blocks[0]
            other = next(
                b for b in level_blocks
                if (b.code_accesses, b.data_accesses)
                != (first.code_accesses, first.data_accesses)
            )
            return BalanceReport(
                False,
                BalanceWitness(
                    "accesses",
                    (first.id, first.code_accesses, first.data_accesses),
                    (other.id, other.code_accesses, other.data_accesses),
                ),
            )
    return BalanceReport(True)


def balance(tree: ExecutionTree) -> ExecutionTree:
    """Pad a tree until `check_balanced` passes.

    Short paths get chains of padding blocks; every block is then padded to
    its level's maximum data-access count with dummy pad-object writes and
    to the maximum instruction count with no-ops.  Padding instructions
    keep the terminator (branch) last.  Already-balanced trees come back
    unchanged.
    """
    if check_balanced(tree).balanced:
        return tree

    counter = iter(range(max(b.id for b in tree.blocks) + 1, 1 << 62))

    def clone(block: Block) -> Block:
        # iterative deep copy: trees can be thousands of levels deep
        copies: dict[int, Block] = {}
        stack = [block]
        while stack:
            b = stack.pop()
            copies[b.id] = Block(b.id, b.level, list(b.instrs), [],
                                 b.branch, b.origin)
            stack.extend(b.children)
        stack = [block]
        while stack:
            b = stack.pop()
            copies[b.id].children = [copies[c.id] for c in b.children]
            stack.extend(b.children)
        return copies[block.id]

    root = clone(tree.root)
    new_tree = ExecutionTree(tree.program, root, tree.alloc)

    depth = max(d for _, d in new_tree.leaf_depths())

    stack = [root]
    while stack:
        block = stack.pop()
        if block.is_leaf:
            cur = block
            while cur.level < depth:
                pad = Block(next(counter), cur.level + 1, [], origin=PAD_ORIGIN)
                cur.children = [pad]
                cur = pad
        else:
            stack.extend(block.children)

    for level_blocks in new_tree.levels:
        max_data = max(b.data_accesses for b in level_blocks)
        padded_code = []
        for b in level_blocks:
            need = max_data - b.data_accesses
            fill: list[Instr] = [PadI(PAD_ORIGIN) for _ in range(need)]
            if b.instrs and isinstance(b.instrs[-1], BranchI):
                b.instrs[-1:-1] = fill
            else:
                b.instrs.extend(fill)
            padded_code.append(b.code_accesses)
        max_code = max(padded_code)
        for b in level_blocks:
            need = max_code - b.code_accesses
            fill = [NopI(PAD_ORIGIN) for _ in range(need)]
            if b.instrs and isinstance(b.instrs[-1], BranchI):
                b.instrs[-1:-1] = fill
            else:
                b.instrs.extend(fill)

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
