import pytest

from pfo import exectree, ir
from pfo.exectree import (
    BalanceWitness,
    balance,
    build_execution_tree,
    check_balanced,
    tree_to_dot,
    tree_to_json,
)
from pfo.ir import ExpansionBudgetError, LoadI, PadI, expand_region
from pfo.lang import ParseError, parse

from test_lang import FOO_SOURCE


# the code after nested secret branches, with temporaries and a table load,
# is copied under all three paths; a secret `if` in it is copied with it,
# and the last statement traps (division by zero) for s == 2
SHARED_CONTINUATION = """
secret int<3> s;
public int p = 5;
output int y;
int t[8] = {1, 2, 3, 4, 5, 6, 7, 8};
fn main() {
  #pragma begin_pf_sensitive
  a = 1; b = 2; c = 3;
  if (s & 1) {
    a = s;
    if (s & 2) { b = t[s]; } else { c = a + 1; }
  } else {
    b = s + 3;
  }
  for (i = 0; i < 2; i = i + 1) {
    y = y + (a + b) * (c + t[(p + i) & 7]);
  }
  if (y & 4) { y = y + 1; }
  y = y + 100 / (s - 2);
  #pragma end_pf_sensitive
}
"""


def budget(monkeypatch, n):
    """Cap expansion and tree building at `n` statements."""
    monkeypatch.setattr(ir, "NODE_BUDGET", n)
    monkeypatch.setattr(exectree, "NODE_BUDGET", n)


def depth_multiset(tree):
    return sorted(d for _, d in tree.leaf_depths())


class TestBuild:
    def test_foo_tree_shape(self):
        # Nested if/else with two-block helper arms: three paths, the
        # early (else) path two deep, the inner arms four deep.
        tree = build_execution_tree(parse(FOO_SOURCE))
        assert tree.paths() == 3
        assert depth_multiset(tree) == [2, 4, 4]

    def test_straight_line_region_single_path(self):
        tree = build_execution_tree(parse("""
        secret int<4> s;
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          y = s + 1;
          y = y * 2;
          #pragma end_pf_sensitive
        }
        """))
        assert tree.paths() == 1
        assert all(len(level) == 1 for level in tree.levels)

    def test_unrolled_loop_blocks_chained(self):
        # Loop bound 4 over a body that splits into 2 blocks per iteration
        # (inner 2-trip loop): the unroll oracle predicts 4 * 2 = 8 chained
        # blocks.
        tree = build_execution_tree(parse("""
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          for (i = 0; i < 4; i = i + 1) {
            for (j = 0; j < 2; j = j + 1) {
              y = y + i + j;
            }
          }
          #pragma end_pf_sensitive
        }
        """))
        assert tree.paths() == 1
        assert len(tree.blocks) == 8
        assert depth_multiset(tree) == [8]

    def test_deterministic_block_ids(self):
        t1 = build_execution_tree(parse(FOO_SOURCE))
        t2 = build_execution_tree(parse(FOO_SOURCE))
        assert [(b.id, b.level, len(b.instrs)) for b in t1.blocks] == \
               [(b.id, b.level, len(b.instrs)) for b in t2.blocks]

    def test_budget_exceeded_names_loop(self, monkeypatch):
        budget(monkeypatch, 100)
        src = """
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          for (i = 0; i < 4096; i = i + 1) {
            y = y + i;
          }
          #pragma end_pf_sensitive
        }
        """
        with pytest.raises(ExpansionBudgetError, match="line"):
            build_execution_tree(parse(src))

    def test_tree_budget_counts_copied_continuations(self, monkeypatch):
        budget(monkeypatch, 100)
        # each secret branch copies the rest of the loop under both arms:
        # the expansion stays at 3 statements per trip, the tree doubles
        program = parse("""
        secret int<8> k;
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          for (i = 0; i < 8; i = i + 1) {
            if ((k >> i) & 1) { y = y + 1; }
          }
          #pragma end_pf_sensitive
        }
        """)
        expand_region(program)
        with pytest.raises(ExpansionBudgetError, match="execution tree exceeds 100"):
            build_execution_tree(program)

    def test_copied_continuations_share_micro_ops(self):
        tree = build_execution_tree(parse(SHARED_CONTINUATION))
        # the loop's second trip and the test of `y & 4`, once per path
        # through the nested branches, then its two arms under each
        copies = [b for b in tree.blocks
                  if b.branch is not None and b.children[0].is_leaf]
        assert [b.id for b in copies] == [4, 8, 12]
        assert any(isinstance(i, LoadI) for i in copies[0].instrs)
        for blocks in (copies, [b.children[0] for b in copies],
                       [b.children[1] for b in copies]):
            first = blocks[0].instrs
            for b in blocks[1:]:
                assert len(b.instrs) == len(first)
                assert all(x is y for x, y in zip(b.instrs, first)), b.id
        assert copies[0].branch is copies[1].branch is copies[2].branch
        placed = [i for b in tree.blocks for i in b.instrs]
        assert len({id(i) for i in placed}) < len(placed)

    def test_array_used_as_scalar_rejected(self):
        with pytest.raises(ParseError, match="array 't' used without an index") as info:
            parse("""
            secret int<2> k;
            output int y;
            int t[4];
            fn main() {
              #pragma begin_pf_sensitive
              y = t + k;
              #pragma end_pf_sensitive
            }
            """)
        assert (info.value.line, info.value.col) == (7, 19)


# both arms one level deep, one with two array writes and one with one
ACCESS_SKEW = """
secret int<1> s;
int a[4];
output int y;
fn main() {
  #pragma begin_pf_sensitive
  if (s == 1) {
    a[0] = 1;
    a[1] = 2;
  } else {
    a[0] = 3;
  }
  #pragma end_pf_sensitive
}
"""


class TestCheckBalanced:
    def test_foo_unbalanced_with_depth_witness(self):
        tree = build_execution_tree(parse(FOO_SOURCE))
        report = check_balanced(tree)
        assert not report.balanced
        assert report.witness.kind == "depth"
        assert report.witness.first[1] == 2
        assert report.witness.second[1] == 4

    def test_single_block_balanced(self):
        tree = build_execution_tree(parse("""
        output int y;
        fn main() { y = 1; }
        """))
        assert check_balanced(tree).balanced

    def test_access_count_witness(self):
        # Same depth both arms, different data-access counts
        tree = build_execution_tree(parse(ACCESS_SKEW))
        report = check_balanced(tree)
        assert not report.balanced
        assert report.witness.kind == "accesses"


class TestBalance:
    def test_foo_balanced_by_padding(self):
        tree = build_execution_tree(parse(FOO_SOURCE))
        balanced = balance(tree)
        assert check_balanced(balanced).balanced
        assert depth_multiset(balanced) == [4, 4, 4]
        # the short path got two padding blocks
        pad_blocks = [b for b in balanced.blocks if b.origin == "__pad"]
        assert len(pad_blocks) == 2

    def test_balance_idempotent_returns_same_tree(self):
        tree = build_execution_tree(parse(FOO_SOURCE))
        balanced = balance(tree)
        assert balance(balanced) is balanced

    def test_two_leaf_depths_2_and_5(self):
        src = """
        secret int<2> s;
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          if (s == 0) {
            y = 1;
          } else {
            for (i = 0; i < 4; i = i + 1) {
              y = y + i;
            }
          }
          #pragma end_pf_sensitive
        }
        """
        tree = build_execution_tree(parse(src))
        assert depth_multiset(tree) == [2, 5]
        balanced = balance(tree)
        assert depth_multiset(balanced) == [5, 5]

    def test_pad_blocks_issue_dummy_accesses(self):
        tree = balance(build_execution_tree(parse(FOO_SOURCE)))
        pad_blocks = [b for b in tree.blocks if b.origin == "__pad"]
        for b in pad_blocks:
            level_peers = [x for x in tree.blocks if x.level == b.level]
            assert b.data_accesses == level_peers[0].data_accesses
            assert b.code_accesses == level_peers[0].code_accesses

    @pytest.mark.parametrize("source", [FOO_SOURCE, ACCESS_SKEW])
    def test_balance_leaves_its_input_unchanged(self, source):
        def shape(tree):
            return ([(b.id, b.level, tuple(b.instrs), [c.id for c in b.children],
                      b.code_accesses, b.data_accesses) for b in tree.blocks],
                    [[b.id for b in lv] for lv in tree.levels])

        tree = build_execution_tree(parse(source))
        before = shape(tree)
        balanced = balance(tree)
        assert balanced is not tree and check_balanced(balanced).balanced
        assert shape(tree) == before
        assert not check_balanced(tree).balanced

    def test_per_level_counts_equal_after_balance(self):
        tree = balance(build_execution_tree(parse(FOO_SOURCE)))
        for level in tree.levels:
            assert len({(b.code_accesses, b.data_accesses) for b in level}) == 1


class TestInspection:
    def test_json_roundtrips_and_counts(self):
        tree = build_execution_tree(parse(FOO_SOURCE))
        doc = tree_to_json(tree)
        assert doc["paths"] == 3
        assert not doc["balanced"]
        assert len(doc["blocks"]) == len(tree.blocks)

    def test_dot_has_edges(self):
        tree = build_execution_tree(parse(FOO_SOURCE))
        dot = tree_to_dot(tree)
        assert "digraph" in dot and "->" in dot
