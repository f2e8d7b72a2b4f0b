import pytest

from pfo.interp import AstExecutable
from pfo.lang import parse, pretty
from pfo.optimize import (
    build_inplace,
    build_staged,
    opt_clone,
    opt_if_convert,
    opt_level_merge,
    opt_mux_elim,
    opt_page_realign,
    opt_readonly_elim,
)

# Two 1 KB lookup tables, each straddling a page boundary 112 bytes before
# its end (the 0x1C split): table_a covers pages 1-2, table_b pages 3-4.
TWO_TABLE_TOY = """
#pragma page_size 4096
#pragma place data table_a 1 -112
#pragma place data table_b 3 -112
secret int<16> k;
public int p;
output int y;
int table_a[256];
int table_b[256];

fn main() {
  #pragma begin_pf_sensitive
  b0 = (k ^ p) & 255;
  b1 = ((k >> 8) ^ p) & 255;
  y = table_a[b0] ^ table_b[b1];
  #pragma end_pf_sensitive
}
"""


def outputs_for(build, secrets):
    return [build.run(secret=s).outputs for s in secrets]


SECRETS = [{"k": v} for v in (0x0000, 0x1A3E, 0xFFFF, 0x1B1C, 0x8081)]


class TestReadOnlyElim:
    def test_fetch_only_copies_four_total(self):
        # both split tables are read-only: two extent copies each, and no
        # copy-back at all
        build = opt_readonly_elim(build_staged(parse(TWO_TABLE_TOY)))
        result = build.run(secret={"k": 0x1234})
        assert result.copy_ops == 4

    def test_single_table_two_copies(self):
        src = TWO_TABLE_TOY.replace("y = table_a[b0] ^ table_b[b1];",
                                    "y = table_a[b0];")
        build = opt_readonly_elim(build_staged(parse(src)))
        assert build.run(secret={"k": 7}).copy_ops == 2

    def test_written_object_unaffected(self):
        src = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[4] = {5, 6, 7, 8};
fn main() {
  #pragma begin_pf_sensitive
  t[s] = 1;
  y = t[s];
  #pragma end_pf_sensitive
}
"""
        plain = build_staged(parse(src))
        elided = opt_readonly_elim(build_staged(parse(src)))
        assert plain.run(secret={"s": 1}).copy_ops == \
               elided.run(secret={"s": 1}).copy_ops

    def test_outputs_preserved(self):
        plain = build_staged(parse(TWO_TABLE_TOY))
        elided = opt_readonly_elim(build_staged(parse(TWO_TABLE_TOY)))
        assert outputs_for(plain, SECRETS) == outputs_for(elided, SECRETS)

    def test_copy_ops_monotone_nonincreasing(self):
        plain = build_staged(parse(TWO_TABLE_TOY))
        elided = opt_readonly_elim(build_staged(parse(TWO_TABLE_TOY)))
        assert elided.run(secret={"k": 1}).copy_ops <= \
               plain.run(secret={"k": 1}).copy_ops


class TestPageRealign:
    def test_straddling_tables_realigned_to_page_starts(self):
        build = opt_page_realign(opt_readonly_elim(build_staged(parse(TWO_TABLE_TOY))))
        for name in ("table_a", "table_b"):
            extents = build.source_layout.data_extents(name)
            assert len(extents) == 1
            assert extents[0].offset == 0

    def test_copy_counter_drops_to_two(self):
        build = opt_page_realign(opt_readonly_elim(build_staged(parse(TWO_TABLE_TOY))))
        assert build.run(secret={"k": 0x1234}).copy_ops == 2

    def test_already_aligned_object_unchanged(self):
        src = """
#pragma page_size 4096
#pragma place data t 1 0
secret int<8> s;
output int y;
int t[256];
fn main() {
  #pragma begin_pf_sensitive
  y = t[s];
  #pragma end_pf_sensitive
}
"""
        build = opt_page_realign(build_staged(parse(src)))
        extents = build.source_layout.data_extents("t")
        assert extents[0].page == 1 and extents[0].offset == 0

    def test_outputs_preserved(self):
        plain = build_staged(parse(TWO_TABLE_TOY))
        optimized = opt_page_realign(opt_readonly_elim(build_staged(parse(TWO_TABLE_TOY))))
        assert outputs_for(plain, SECRETS) == outputs_for(optimized, SECRETS)


CHAIN_SOURCE = """
#pragma page_size 4096
secret int<4> s;
output int y;
fn main() {
  #pragma begin_pf_sensitive
  y = s;
  for (i = 0; i < 3; i = i + 1) {
    y = y + i;
  }
  #pragma end_pf_sensitive
}
"""


class TestLevelMerge:
    def test_three_tiny_levels_fold_to_one(self):
        build = build_staged(parse(CHAIN_SOURCE))
        assert len(build.plan.levels) == 3
        merged = opt_level_merge(build)
        assert len(merged.plan.levels) == 1
        assert merged.plan.levels[0].covered() == (1, 2, 3)

    def test_merged_outputs_and_obliviousness(self):
        secrets = [{"s": v} for v in range(16)]
        plain = build_staged(parse(CHAIN_SOURCE))
        merged = opt_level_merge(build_staged(parse(CHAIN_SOURCE)))
        assert outputs_for(plain, secrets) == outputs_for(merged, secrets)
        profiles = {tuple(merged.run(secret=s).profile) for s in secrets}
        assert len(profiles) == 1

    def test_merge_declines_when_code_exceeds_page(self):
        # 32-byte page: the three levels total more than one page
        src = CHAIN_SOURCE.replace("4096", "32")
        merged = opt_level_merge(build_staged(parse(src)))
        assert len(merged.plan.levels) > 1

    def test_merge_reduces_code_copies(self):
        plain = build_staged(parse(CHAIN_SOURCE))
        merged = opt_level_merge(build_staged(parse(CHAIN_SOURCE)))
        assert merged.run(secret={"s": 3}).code_copy_ops <= \
               plain.run(secret={"s": 3}).code_copy_ops


SHARED_CALLEE = """
#pragma page_size 64
secret int<1> s;
output int y;
fn shared(v) {
  return v + 10;
}
fn left(v) {
  return shared(v) + 1;
}
fn right(v) {
  return shared(v) + 2;
}
fn main() {
  #pragma begin_pf_sensitive
  if (s == 1) {
    y = left(5);
  } else {
    y = right(5);
  }
  #pragma end_pf_sensitive
}
"""


class TestClone:
    def test_shared_callee_cloned_per_caller(self):
        program, report = opt_clone(parse(SHARED_CALLEE))
        assert set(report.cloned) == {"shared"}
        names = {f.name for f in program.functions}
        assert "shared__for_left" in names and "shared__for_right" in names

    def test_callers_redirected_and_semantics_kept(self):
        program, _ = opt_clone(parse(SHARED_CALLEE))
        vanilla = AstExecutable(parse(SHARED_CALLEE))
        cloned = AstExecutable(program)
        for s in (0, 1):
            assert cloned.run(secret={"s": s}).outputs == \
                   vanilla.run(secret={"s": s}).outputs

    def test_clone_colocated_with_caller(self):
        program, _ = opt_clone(parse(SHARED_CALLEE))
        exe = AstExecutable(program)
        lay = exe.layout
        for caller in ("left", "right"):
            caller_pages = {e.page for e in lay.code_extents(caller)}
            clone_pages = {e.page for e in lay.code_extents(f"shared__for_{caller}")}
            assert caller_pages & clone_pages

    def test_single_caller_no_clone(self):
        src = """
fn helper(v) { return v * 2; }
fn main() { y = helper(3); }
output int y;
"""
        program, report = opt_clone(parse(src))
        assert report.cloned == {}
        assert {f.name for f in program.functions} == {"helper", "main"}


class TestMuxElim:
    def test_alternative_targets_grouped(self):
        build, report = opt_mux_elim(parse(SHARED_CALLEE), page_size=4096)
        assert report.succeeded
        grouped = next(g for g in report.groups if "left" in g)
        assert "right" in grouped

    def test_profile_uniform_after_grouping(self):
        build, report = opt_mux_elim(parse(SHARED_CALLEE), page_size=4096)
        assert report.succeeded
        profiles = {tuple(build.run(secret={"s": v}).profile) for v in (0, 1)}
        assert len(profiles) == 1

    def test_outputs_preserved(self):
        build, _ = opt_mux_elim(parse(SHARED_CALLEE), page_size=4096)
        vanilla = AstExecutable(parse(SHARED_CALLEE))
        for s in (0, 1):
            assert build.run(secret={"s": s}).outputs == \
                   vanilla.run(secret={"s": s}).outputs

    def test_single_path_trivially_groupable(self):
        src = """
output int y;
fn step(v) { return v + 1; }
fn main() { y = step(step(1)); }
"""
        build, report = opt_mux_elim(parse(src), page_size=4096)
        assert report.succeeded

    def test_zero_staging_copies(self):
        build, report = opt_mux_elim(parse(SHARED_CALLEE), page_size=4096)
        result = build.run(secret={"s": 1})
        assert result.copy_ops == 0 and result.code_copy_ops == 0


FIG8_SOURCE = """
secret int<1> c;
output int result;
fn main() {
  result = 21;
  #pragma begin_pf_sensitive
  if (c == 1) {
    result = result * 2;
  }
  #pragma end_pf_sensitive
}
"""


class TestIfConvert:
    def test_fig8_shape(self):
        program, report = opt_if_convert(parse(FIG8_SOURCE))
        assert report.converted == 1
        printed = pretty(program)
        assert "__o5_0[0] = result;" in printed
        assert "__o5_0[1] = (result * 2);" in printed
        assert "result = __o5_0[(c == 1)];" in printed

    def test_semantics_preserved(self):
        program, _ = opt_if_convert(parse(FIG8_SOURCE))
        converted = AstExecutable(program)
        vanilla = AstExecutable(parse(FIG8_SOURCE))
        for c in (0, 1):
            assert converted.run(secret={"c": c}).outputs == \
                   vanilla.run(secret={"c": c}).outputs

    def test_no_branches_remain_in_entry(self):
        program, _ = opt_if_convert(parse(FIG8_SOURCE))
        assert "if" not in pretty(program.entry and program).split("fn main")[1]

    def test_profile_uniform_after_conversion(self):
        program, _ = opt_if_convert(parse(FIG8_SOURCE))
        exe = AstExecutable(program)
        profiles = {tuple(exe.run(secret={"c": v}).profile) for v in (0, 1)}
        assert len(profiles) == 1

    def test_constant_true_condition(self):
        src = FIG8_SOURCE.replace("if (c == 1)", "if (1)")
        program, report = opt_if_convert(parse(src))
        assert report.converted == 1
        out = AstExecutable(program).run(secret={"c": 0}).outputs
        assert out == {"result": 42}

    def test_mismatched_write_sets_declined(self):
        src = """
secret int<1> c;
output int a;
output int b;
fn main() {
  #pragma begin_pf_sensitive
  if (c == 1) {
    a = 1;
  } else {
    b = 2;
  }
  #pragma end_pf_sensitive
}
"""
        program, report = opt_if_convert(parse(src))
        assert report.converted == 0
        assert any("write sets" in d for d in report.declined)

    def test_array_write_in_arm_declined(self):
        src = """
secret int<1> c;
int t[2];
output int y;
fn main() {
  #pragma begin_pf_sensitive
  if (c == 1) {
    t[0] = 1;
  }
  y = t[0];
  #pragma end_pf_sensitive
}
"""
        program, report = opt_if_convert(parse(src))
        assert report.converted == 0


def test_unwidthed_secret_probed_at_64_bit_extreme():
    from types import SimpleNamespace

    from pfo.leakage import SecretDomain
    from pfo.optimize import _probe_uniform

    program = parse("""
    secret int s;
    output int y;
    fn main() { y = s; }
    """)
    probed = []

    class Recorder:
        def run(self, secret):
            probed.append(secret["s"])
            return SimpleNamespace(profile=[])

    build = SimpleNamespace(program=program, executable=Recorder)
    assert _probe_uniform(build, 8, seed=0)
    assert SecretDomain.of(program).widths == (64,)
    assert probed[:2] == [0, (1 << 64) - 1]
    assert all(0 <= v < 1 << 64 for v in probed)
