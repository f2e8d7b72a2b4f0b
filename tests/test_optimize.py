from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from pfo import ir, optimize, transform
from pfo.corpus import make_table_cases, powm_balanced_source
from pfo.exectree import balance, build_execution_tree
from pfo.interp import AstExecutable, TrapInfo, TreeExecutable
from pfo.ir import (
    CallI, IfItem, IterMark, OverrunI, Reg, RetNode, RunNode, expand_region,
    writes_before_reads,
)
from pfo.lang import parse, pretty
from pfo.leakage import SecretDomain, verify_pfo
from pfo.optimize import (
    ALL_PASSES,
    OptError,
    build_defense,
    build_staged,
    opt_clone,
    opt_if_convert,
    opt_level_merge,
    opt_page_realign,
    opt_readonly_elim,
)
from pfo.suites import case_source
from pfo.transform import plan_layout

from test_exectree import ACCESS_SKEW, SHARED_CONTINUATION
from test_interp import (
    CORPUS, OOB_AT_SECOND_SITE, TRAP_AFTER_TAIL_RETURN, UNALIGNED_CODE, VALUELESS_CALL,
    WRITE_BACK,
)
from test_transform import (
    DATA_PLACEMENT, LOOKUP_64, THREE_WAY, TRAP_IN_COPY, TRAPPING_ARM, UNEVEN_ARMS,
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

    def test_in_place_build_pins_moved_arrays_past_everything(self):
        # in place as staged, each moved array is pinned at offset 0 of a
        # page past everything the build laid out, and laid out there
        plain = build_defense(parse(TWO_TABLE_TOY), in_place=True)
        past = max(plain.source_layout.all_pages()) + 1
        build = opt_page_realign(plain)
        pins = {p.name: p for p in build.program.placements if p.kind == "data"}
        assert sorted(pins) == ["table_a", "table_b"]
        for name, pin in pins.items():
            assert pin.offset == 0 and pin.page >= past
            extents = build.source_layout.data_extents(name)
            assert [(e.page, e.offset) for e in extents] == [(pin.page, 0)]
        assert outputs_for(plain, SECRETS) == outputs_for(build, SECRETS)


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
        assert merged.plan.levels[0].covers == (1, 2, 3)

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

    def test_merged_code_copies_do_not_overlap(self):
        # basic multiplexing puts a level's blocks side by side in SA_code;
        # the merged fetch stacks foo's four levels after one another
        build = build_defense(FOO, ("O3A",))
        assert build.plan.mode == "basic" and len(build.plan.levels) == 1
        spans = sorted((c.dst_offset, c.dst_offset + 4 * c.words)
                       for c in build.plan.levels[0].fetch if c.kind == "code")
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    def test_merge_reduces_code_copies(self):
        plain = build_staged(parse(CHAIN_SOURCE))
        merged = opt_level_merge(build_staged(parse(CHAIN_SOURCE)))
        assert merged.run(secret={"s": 3}).code_copy_ops <= \
               plain.run(secret={"s": 3}).code_copy_ops


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FOO = parse((CORPUS / "foo.pfo").read_text())


def exhaustive_verdict(build):
    domain = SecretDomain.of(build.program)
    return verify_pfo(lambda s: build.run(secret=s).profile, domain.exhaustive())


def test_level_merge_survives_later_passes():
    # O1 re-plans after O3A; the merge must be part of that plan
    build = build_defense(FOO, ("O3A", "O1"))
    assert [lp.covers for lp in build.plan.levels] == [(1, 2, 3, 4)]
    verdict = exhaustive_verdict(build)
    assert verdict.oblivious and verdict.inputs_checked == 1 << 16


def test_unknown_pass_rejected():
    with pytest.raises(OptError, match="O9"):
        build_defense(FOO, ("O1", "O9"))


@pytest.mark.parametrize("opt", ["O1", "O3A", "O3B"])
def test_in_place_rejects_a_pass_that_needs_a_tree(opt):
    with pytest.raises(OptError, match=opt):
        build_defense(FOO, (opt,), in_place=True)


@pytest.mark.parametrize("name", sorted(make_table_cases()))
def test_in_place_o2_lets_o4_certify_the_table_cases(name):
    # O2 pins the tables the corpus splits across pages to page starts, so
    # in-place O4 applies: one profile class over every 12-bit secret, and
    # at 64 bits vanilla's steps and outputs
    builds = {width: build_defense(parse(case_source(name, width)), ("O2", "O4"),
                                   in_place=True) for width in (12, 16, 64)}
    assert all(b.applied == ("O2", "O4") for b in builds.values())
    assert exhaustive_verdict(builds[12]).oblivious
    full = builds[64]
    vanilla = AstExecutable(parse(case_source(name, 64)))
    program = vanilla.program
    for secret in SecretDomain.of(program).sample(20, 0):
        ran, want = full.run(secret=secret), vanilla.run(secret=secret)
        assert (ran.steps, ran.outputs) == (want.steps, want.outputs)


def test_if_converted_foo_oblivious():
    assert exhaustive_verdict(build_defense(FOO, ("O5",))).oblivious


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


CLONE_PAST_ARRAY = """
#pragma page_size 64
#pragma place data t 1 -8
secret int<2> s;
output int y;
int t[4];
fn h(v) { return v + 1; }
fn f() { return h(2) + 2; }
fn g() { return h(5) - 1; }
fn main() {
  #pragma begin_pf_sensitive
  y = f();
  if (s == 1) { y = g(); }
  #pragma end_pf_sensitive
}
"""


TWO_SHARED_CALLEES = """
#pragma page_size 64
secret int<2> s;
output int y;
fn h1(v) { return v + 1; }
fn h2(v) { return v + 2; }
fn f(v) { return h1(v) + h2(v); }
fn g(v) { return h2(v) * h1(v); }
fn main() {
  #pragma begin_pf_sensitive
  y = f(s) + g(s);
  #pragma end_pf_sensitive
}
"""


# h is shared by f and g and shares k with them: the clones of h call k
NESTED_SHARED_CALLEES = """
#pragma page_size 64
secret int<2> s;
output int y;
fn k(v) { return v + 1; }
fn h(v) { return k(v) + 2; }
fn f(v) { return h(v) + k(v); }
fn g(v) { return h(v) + k(v); }
fn main() {
  #pragma begin_pf_sensitive
  y = f(s) + g(s);
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

    def test_clone_name_skips_a_function_of_that_name(self):
        source = SHARED_CALLEE.replace("fn left(v)", """fn shared__for_left(v) {
  return v * 40;
}
fn left(v)""").replace("#pragma end_pf_sensitive", """y = y + shared__for_left(2);
  #pragma end_pf_sensitive""")
        vanilla = AstExecutable(parse(source))
        program, report = opt_clone(parse(source))
        names = [f.name for f in program.functions]
        assert len(names) == len(set(names))
        assert report.cloned["shared"] == ("shared__for_left_1", "shared__for_right")
        cloned = AstExecutable(program)
        defended = build_defense(parse(source), ("O3B",), page_size=4096)
        for s in (0, 1):
            expected = vanilla.run(secret={"s": s}).outputs
            assert expected == {"y": 97 if s == 0 else 96}
            assert cloned.run(secret={"s": s}).outputs == expected
            assert defended.run(secret={"s": s}).outputs == expected

    def test_clone_pairs_start_past_a_straddling_array(self):
        # `t` spans bytes 56-63 of page 1 and 0-7 of page 2, and BB1 is f's
        source = CLONE_PAST_ARRAY
        program, report = opt_clone(parse(source))
        assert report.cloned == {"h": ("h__for_f", "h__for_g")}
        assert [(p.name, p.page) for p in program.placements if p.kind == "code"] == [
            ("f", 3), ("h__for_f", 3), ("g", 4), ("h__for_g", 4)]
        vanilla = AstExecutable(parse(source))
        defended = build_defense(parse(source), ("O3B",))
        for s in range(4):
            expected = vanilla.run(secret={"s": s}).outputs
            assert expected == {"y": 5}
            assert defended.run(secret={"s": s}).outputs == expected

    def test_code_pins_it_does_not_replace_stay(self):
        # O3B pins f and g beside their clones; main keeps its own pin, and
        # the pairs start past it
        source = CLONE_PAST_ARRAY.replace("int t[4];", "int t[4];\n#pragma place code main 6")
        program, _ = opt_clone(parse(source))
        assert [(p.name, p.page) for p in program.placements if p.kind == "code"] == [
            ("main", 6), ("f", 7), ("h__for_f", 7), ("g", 8), ("h__for_g", 8)]
        assert {e.page for e in AstExecutable(program).layout.code_extents("main")} == {6}
        defended = build_defense(parse(source), ("O3B",))
        main_blocks = [b.name() for b in defended.tree.blocks if b.origin == "main"]
        assert {e.page for name in main_blocks
                for e in defended.source_layout.code_extents(name)} == {6}
        vanilla = AstExecutable(parse(source))
        for s in range(4):
            assert defended.run(secret={"s": s}).outputs == \
                vanilla.run(secret={"s": s}).outputs == {"y": 5}

    def test_caller_of_two_shared_callees_pinned_once(self):
        # f and g both call h1 and h2: each caller shares one page with both
        # of its clones, so the program prints and re-parses
        program, report = opt_clone(parse(TWO_SHARED_CALLEES))
        assert report.cloned == {"h1": ("h1__for_f", "h1__for_g"),
                                 "h2": ("h2__for_f", "h2__for_g")}
        assert [(p.name, p.page, p.offset) for p in program.placements] == [
            ("f", 0, 0), ("h1__for_f", 0, 16), ("g", 1, 0), ("h1__for_g", 1, 16),
            ("h2__for_f", 0, 24), ("h2__for_g", 1, 24)]
        layout = AstExecutable(parse(pretty(program))).layout
        for name in ("h1__for_f", "h2__for_f"):
            assert {e.page for e in layout.code_extents(name)} == \
                {e.page for e in layout.code_extents("f")} == {0}
        vanilla = AstExecutable(parse(TWO_SHARED_CALLEES))
        defended = build_defense(parse(TWO_SHARED_CALLEES), ("O3B",))
        for s in range(4):
            assert defended.run(secret={"s": s}).outputs == \
                vanilla.run(secret={"s": s}).outputs == {"y": 2 * s + 3 + (s + 2) * (s + 1)}

    def test_clones_of_a_caller_get_clones_of_its_callees(self):
        # h is cloned before k, so each clone of h calls a clone of k on
        # its own page; h and k are left without a caller and not pinned
        program, report = opt_clone(parse(NESTED_SHARED_CALLEES))
        assert report.cloned == {
            "h": ("h__for_f", "h__for_g"),
            "k": ("k__for_f", "k__for_g", "k__for_h__for_f", "k__for_h__for_g")}
        assert not {"h", "k"} & {p.name for p in program.placements}
        reparsed = parse(pretty(program))
        layout = AstExecutable(reparsed).layout

        def pages(name):
            return {e.page for e in layout.code_extents(name)}

        # main's callees f and g have one caller each, so stay where they are
        for caller in reparsed.reachable(["f", "g"]):
            for callee in reparsed.callees[caller]:
                assert pages(caller) & pages(callee), (caller, callee)
        vanilla = AstExecutable(parse(NESTED_SHARED_CALLEES))
        cloned = AstExecutable(reparsed)
        # inlined, the region is one block, larger than a 64-byte page
        defended = build_defense(parse(NESTED_SHARED_CALLEES), ("O3B",), page_size=4096)
        for s in range(4):
            assert cloned.run(secret={"s": s}).outputs == \
                defended.run(secret={"s": s}).outputs == \
                vanilla.run(secret={"s": s}).outputs == {"y": 4 * s + 8}

    def test_callees_cloned_away_are_dropped(self):
        # h and k have no caller left, so they take no page and main moves
        # up to the page after f's and g's
        program, _ = opt_clone(parse(NESTED_SHARED_CALLEES))
        names = {f.name for f in program.functions}
        assert not {"h", "k"} & names
        reparsed = parse(pretty(program))
        assert reparsed == program
        layout = AstExecutable(reparsed).layout
        assert {e.page for e in layout.code_extents("main")} == {2}
        vanilla = AstExecutable(parse(NESTED_SHARED_CALLEES))
        cloned = AstExecutable(reparsed)
        for s in range(4):
            assert cloned.run(secret={"s": s}).outputs == \
                vanilla.run(secret={"s": s}).outputs

    def test_single_caller_no_clone(self):
        src = """
fn helper(v) { return v * 2; }
fn main() { y = helper(3); }
output int y;
"""
        program, report = opt_clone(parse(src))
        assert report.cloned == {}
        assert {f.name for f in program.functions} == {"helper", "main"}


def in_place_o4(source, page_size=None):
    return build_defense(parse(source), ("O4",), page_size, in_place=True)


def code_groups(build):
    """The functions that `place code` pins put on one page, page by page."""
    pages = {}
    for p in build.program.placements:
        if p.kind == "code":
            pages.setdefault(p.page, []).append(p.name)
    return tuple(sorted(tuple(sorted(names)) for names in pages.values()))


class TestMuxElim:
    def test_alternative_targets_grouped(self):
        build = in_place_o4(SHARED_CALLEE, page_size=4096)
        assert build.applied == ("O4",)
        grouped = next(g for g in code_groups(build) if "left" in g)
        assert "right" in grouped

    def test_profile_uniform_after_grouping(self):
        build = in_place_o4(SHARED_CALLEE, page_size=4096)
        assert build.applied == ("O4",)
        profiles = {tuple(build.run(secret={"s": v}).profile) for v in (0, 1)}
        assert len(profiles) == 1

    def test_outputs_preserved(self):
        build = in_place_o4(SHARED_CALLEE, page_size=4096)
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
        build = in_place_o4(src, page_size=4096)
        assert build.applied == ("O4",)

    def test_zero_staging_copies(self):
        build = in_place_o4(SHARED_CALLEE, page_size=4096)
        result = build.run(secret={"s": 1})
        assert result.copy_ops == 0 and result.code_copy_ops == 0

    def test_ungrouped_layout_has_a_witness(self):
        # one function per page: only one arm calls `left`'s page
        assert AstExecutable(parse(SHARED_CALLEE)).witness == \
            "`if` at line 16: its arms fault differently"

    def test_group_larger_than_a_page_declines(self):
        build = in_place_o4(THREE_WAY)
        assert build.applied == () and build.program.placements == ()
        assert build.notes == \
            ("O4 declined: main is 112 bytes, larger than one 64-byte page",)


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

    def test_slot_name_skips_a_declared_one(self):
        source = """
secret int<2> s;
output int y;
int __o5_0[2] = {7, 7};
fn main() {
  #pragma begin_pf_sensitive
  y = 1;
  if (s == 3) {
    y = 2;
  }
  y = y + __o5_0[1];
  #pragma end_pf_sensitive
}
"""
        vanilla = AstExecutable(parse(source))
        build = build_defense(parse(source), ("O5",))
        printed = pretty(build.program)
        assert "__o5_1[0] = y;" in printed
        reparsed = AstExecutable(parse(printed))
        for s in (1, 3):
            expected = vanilla.run(secret={"s": s}).outputs
            assert expected == {"y": 9 if s == 3 else 8}
            assert build.run(secret={"s": s}).outputs == expected
            assert reparsed.run(secret={"s": s}).outputs == expected

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


    def test_callee_with_impure_loop_step_declined(self):
        # f's loop step calls g, which writes t[0]: converting the branch
        # would call f, and so g, on both sides
        src = """
secret int<1> k;
output int y;
output int z;
int t[2];

fn g() {
  t[0] = t[0] + 1;
  return 1;
}

fn f() {
  s = 0;
  for (i = 0; i < 2; i = i + g()) bound 2 {
    s = s + 1;
  }
  return s;
}

fn main() {
  #pragma begin_pf_sensitive
  y = 0;
  if (k == 1) {
    y = f();
  }
  z = t[0];
  #pragma end_pf_sensitive
}
"""
        program, report = opt_if_convert(parse(src))
        assert report.converted == 0
        assert report.declined == ["impure arm or condition"]
        converted = AstExecutable(program)
        vanilla = AstExecutable(parse(src))
        for k in (0, 1):
            assert converted.run(secret={"k": k}).outputs == \
                   vanilla.run(secret={"k": k}).outputs


def _region(decls, body):
    return (f"{decls}\nfn main() {{\n  #pragma begin_pf_sensitive\n  {body}\n"
            "  #pragma end_pf_sensitive\n}\n")


_S = "secret int<2> s;\noutput int y;"
_CALLS = _S + "\nint g = 1;\nint t[2] = {1, 1};"
# small programs, each on a path few others take: `while` past its bound,
# do-while bounds, call statements, `sizeof` and `else if`, a store into an
# array split across pages, a read-only table read on two levels (O1 fetches
# it once), a conditional with empty arms (O5 drops it) and a call under a
# secret branch (O4 groups it with its caller)
AGREEMENT_CASES = {
    "while_overrun": _region(_S, "y = 0; while (y < s + 1) bound 2 { y = y + 1; }"),
    "do_while_false": _region(_S, "y = s; do { y = y + 10; } while (0);"),
    "do_while_overrun": _region(_S, "y = 0; do { y = y + 1; } while (y < s) bound 2;"),
    "while_long": _region(_S, "y = s; while (y > 0) bound 16 { y = y - 1; }"),
    "call_stmt": _region(_S + "\nint t[4];\nfn put(v) { t[v] = v + 5; }",
                         "put(s); y = t[s];"),
    "sizeof_else_if": _region(_S + "\nint t[3];", "if (s == 0) { y = sizeof(t); } "
                              "else if (s == 1) { y = 1; } else { y = 2; }"),
    "split_store": _region("#pragma page_size 64\n#pragma place data t 1 -8\n" + _S
                           + "\nint t[4] = {1, 2, 3, 4};", "t[s] = 9; y = t[3 - s] + t[s];"),
    "readonly_two_levels": _region(_S + "\nint t[4] = {3, 5, 7, 11};",
                                   "for (i = 0; i < 2; i = i + 1) { y = y + t[s]; }"),
    "empty_if": _region(_S, "if (s == 1) { } y = s + 1;"),
    "call_under_branch": _region(_S + "\nfn f(v) { return v + 3; }",
                                 "y = 0; if (s == 1) { y = f(y); }"),
    # a callee's locals start at 0 on every call, in a loop too
    "callee_locals": _region(_S + "\nfn f() { c = c + 1; return c; }",
                             "y = f(); y = f() + s;"),
    "callee_locals_loop": _region(_S + "\nfn f() { c = c + 1; return c; }",
                                  "y = s; for (i = 0; i < 3; i = i + 1) { y = y + f(); }"),
    # `c` is written in one arm only, so each trip of the loop is lowered
    # anew, with fresh locals
    "callee_arm_loop": _region(
        _S + "\nfn f(v) { if (v > 1) { c = 5; } c = c + 1; return c; }",
        "y = s; for (i = 0; i < 3; i = i + 1) { y = y + f(s); }"),
    # callees that write every local first: each loop is lowered once, and
    # the `while` runs past its bound for s = 3
    "leaf_loop": _region(_S + "\nfn f(v) { w = v + 1; return w * 2; }",
                         "y = s; for (i = 0; i < 4; i = i + 1) { y = y + f(i); }"),
    "replayed_while": _region(
        _S + "\nfn f(v) { w = v * 2; return w + 1; }",
        "y = 0; n = 0; while (n < s + 1) bound 3 { y = y + f(n); n = n + 1; }"),
    "replayed_do_while": _region(
        _S + "\nfn f(v) { w = v * 2; return w + 1; }",
        "y = 0; n = 0; do { y = y + f(n); n = n + 1; } while (n <= s) bound 3;"),
    # a parameterless callee's loop starts while `g + 5` is still unplaced:
    # it is computed once, before the loop writes `g`
    "pending_while": _region(
        _S + "\nint g;\nfn f() { while (g < s) bound 3 { g = g + 1; } return 0; }",
        "y = (g + 5) + f();"),
    "pending_do_while": _region(
        _S + "\nint g;\nfn f() { do { g = g + 1; } while (g < s) bound 3; return 0; }",
        "y = (g + 5) + f();"),
    # every copy of the code after nested secret branches shares one lowering
    "shared_continuation": SHARED_CONTINUATION,
    # a call's value is taken when it returns, and an operand or argument
    # when it is evaluated, so a later call's write does not reach them
    "global_returned_before_write": _region(
        _CALLS + "\nfn f() { return g; }\nfn h() { g = 5; return 0; }",
        "y = f() + h() + s;"),
    "table_returned_before_write": _region(
        _CALLS + "\nfn f() { return t[0]; }\nfn h() { t[0] = 5; return 0; }",
        "y = f() + h() + s;"),
    "table_read_before_call": _region(
        _CALLS + "\nfn h() { t[0] = 5; return 0; }", "y = t[0] + h() + s;"),
    "global_argument_before_call": _region(
        _CALLS + "\nfn f(a, b) { return a + b; }\nfn h() { g = 5; return 0; }",
        "y = f(g, h()) + s;"),
    # a call statement's value is computed, and may trap, though unused
    "discarded_value_traps": _region(_S + "\nfn h(v) { return 10 / v; }", "h(s); y = s;"),
    # a `/` (s = 1) and a `%` (s = 0) by zero mid-segment: in main, in a
    # summarised callee and in that callee's callee
    "div_zero_in_main": _region(_S, "y = s + 3; y = y * 12 / (s - 1); y = y + 7 % s;"),
    "div_zero_in_callee": _region(_S + "\nfn f(v) { w = v + 3; return w * 12 / (v - 1) + 7 % v; }",
                                  "y = s + 1; y = f(s) + y;"),
    "div_zero_in_callees_callee": _region(
        _S + "\nfn q(v) { w = v + 3; return w * 12 / (v - 1) + 7 % v; }"
        "\nfn f(v) { w = v + 2; return q(v) + w; }",
        "y = s + 1; y = f(s) + y;"),
}
CALL_ORDER = [name for name in AGREEMENT_CASES if "before" in name]


@pytest.mark.parametrize("source", AGREEMENT_CASES.values(), ids=AGREEMENT_CASES.keys())
def test_executables_agree(source):
    assert_executables_agree(parse(source))


def four_executables(program):
    """Vanilla, the balanced tree, the plain multiplexed build and the build
    with every pass, by name."""
    return {
        "vanilla": AstExecutable(program),
        "tree": TreeExecutable(balance(build_execution_tree(program))),
        "plain": build_defense(program).executable(),
        "all": build_defense(program, ALL_PASSES).executable(),
    }


def assert_executables_agree(program):
    """The four executables give the same outputs and trap kinds for every
    secret."""
    exes = list(four_executables(program).values())
    for secret in SecretDomain.of(program).exhaustive():
        seen = [(r.outputs, r.trap and r.trap.kind)
                for r in (exe.run(secret=secret) for exe in exes)]
        assert seen == seen[:1] * len(exes), secret


_S3 = "secret int<3> s;\noutput int y;\nint a;\nint t[8];"
# O5 runs both arms of each `if` it converts, so an arm that may trap must
# stay a branch: converted, these would trap where the program does not
O5_TRAPS = {
    "index_in_else": _region(_S3, "a = y; if (s != 6) { y = 4; } else { y = t[s + 1]; }"),
    "div_in_then": _region(_S3, "if (s == 3) { a = 100 / (s - 4); }"),
    "trapping_arm": TRAPPING_ARM,
}


@pytest.mark.parametrize("passes", [("O5",), ALL_PASSES], ids=["O5", "all"])
@pytest.mark.parametrize("source", O5_TRAPS.values(), ids=O5_TRAPS.keys())
def test_o5_adds_no_trap(source, passes):
    program = parse(source)
    exes = [AstExecutable(program), build_defense(program, passes).executable()]
    for secret in SecretDomain.of(program).exhaustive():
        seen = [(r.outputs, r.trap and r.trap.kind)
                for r in (exe.run(secret=secret) for exe in exes)]
        assert seen[0] == seen[1], secret


@pytest.mark.parametrize("case, reason", [
    ("index_in_else", "index into t at line 7"),
    ("div_in_then", "`/` at line 7"),
    ("trapping_arm", "index into t at line 10"),
])
def test_o5_declines_an_arm_that_may_trap(case, reason):
    _, report = opt_if_convert(parse(O5_TRAPS[case]))
    assert report.converted == 0
    assert report.declined == [f"arm may trap: {reason}"]


@pytest.mark.parametrize("decls, arm, converted", [
    pytest.param("", "y = 100 / 7;", True, id="literal-divisor"),
    pytest.param("", "y = 100 / (7 - 7);", False, id="computed-divisor"),
    pytest.param("", "y = t[7];", True, id="literal-index"),
    pytest.param("", "y = t[8];", False, id="literal-index-past-end"),
    # a divisor that only its non-zero initializer sets
    pytest.param("int m = 5;", "y = 100 % m;", True, id="constant-global"),
    pytest.param("int m;", "y = 100 % m;", False, id="zero-global"),
    pytest.param("int m = 5;\nfn zero() { m = 0; return 0; }", "y = 100 % m;", False,
                 id="written-global"),
    pytest.param("int m = 5;\nfn f() { for (m = 1; m < 2; m = m + 1) { } return 0; }",
                 "y = 100 % m;", False, id="for-written-global"),
    pytest.param("public int m = 5;", "y = 100 % m;", False, id="public-divisor"),
    # in a function the arm calls
    pytest.param("fn f(v) { while (v > 0) bound 2 { v = v - 1; } return v; }",
                 "y = f(s);", False, id="callee-while"),
    pytest.param("fn f(v) { return t[v]; }", "y = f(2);", False, id="callee-index"),
])
def test_o5_trap_rule(decls, arm, converted):
    source = _region(f"{_S3}\n{decls}", f"if (s == 1) {{ {arm} }}")
    _, report = opt_if_convert(parse(source))
    assert report.converted == int(converted)
    assert [d.split(":")[0] for d in report.declined] == \
        ([] if converted else ["arm may trap"])


@pytest.mark.parametrize("case, ys", [
    ("callee_locals", [1, 2, 3, 4]),
    ("callee_locals_loop", [3, 4, 5, 6]),
])
def test_callee_locals_start_at_zero(case, ys):
    exe = AstExecutable(parse(AGREEMENT_CASES[case]))
    assert [exe.run(secret={"s": s}).outputs["y"] for s in range(4)] == ys


@pytest.mark.parametrize("case", CALL_ORDER)
def test_calls_see_writes_in_source_order(case):
    exe = AstExecutable(parse(AGREEMENT_CASES[case]))
    assert [exe.run(secret={"s": s}).outputs["y"] for s in range(4)] == [1, 2, 3, 4]


# each build's div-zero traps for s = 0 (the `%`) and s = 1 (the `/`):
# (trap step, profile) each.  A division steps, then traps, and each
# summarised segment and call it unwinds through charges its ops before it
DIV_ZERO_TRAPS = {
    "div_zero_in_main": {
        "vanilla": ((7, [0]), (5, [0])), "tree": ((7, [0]), (5, [0])),
        "plain": ((16, [2, 0]), (14, [2, 0])), "all": ((7, [0]), (5, [0]))},
    "div_zero_in_callee": {
        "vanilla": ((9, [1, 0]), (8, [1, 0])), "tree": ((9, [0]), (8, [0])),
        "plain": ((21, [2, 0]), (20, [2, 0])), "all": ((9, [0]), (8, [0]))},
    "div_zero_in_callees_callee": {
        "vanilla": ((12, [2, 1, 0]), (11, [2, 1, 0])), "tree": ((12, [0]), (11, [0])),
        "plain": ((28, [2, 0]), (27, [2, 0])), "all": ((12, [0]), (11, [0]))},
}


@pytest.mark.parametrize("case", DIV_ZERO_TRAPS)
def test_div_zero_traps_where_it_divides(case):
    for name, exe in four_executables(parse(AGREEMENT_CASES[case])).items():
        runs = [exe.run(secret={"s": s}) for s in (0, 1)]
        assert [r.trap for r in runs] == \
            [TrapInfo("div-zero", step) for step, _ in DIV_ZERO_TRAPS[case][name]]
        assert tuple((r.steps, r.profile) for r in runs) == DIV_ZERO_TRAPS[case][name]


def _trips(source: str) -> list[list]:
    """The micro-ops of each trip of the one top-level `for` of a region,
    the code before the loop in the first, from its expanded items."""
    items, _ = expand_region(parse(source))
    trips: list[list] = [[]]

    def ops(items):
        for item in items:
            if isinstance(item, IfItem):
                yield from item.ops
                yield from ops(item.then_items + item.else_items)
            else:
                yield from item

    for item in items:
        if isinstance(item, IterMark):
            trips.append([])
        else:
            trips[-1] += ops((item,))
    return trips


def _fresh(source: str, name: str = "f") -> bool:
    program = parse(source)
    return writes_before_reads(program, name)


def test_trips_of_a_loop_that_calls_a_leaf_share_instrs():
    source = AGREEMENT_CASES["leaf_loop"]
    assert _fresh(source)
    first, *rest = _trips(source)
    assert len(rest) == 3
    for trip in rest:
        assert list(map(id, trip)) == list(map(id, first[-len(trip):]))
    # the tree chains one block per trip, each holding those micro-ops
    tree = build_execution_tree(parse(source))
    blocks = [list(map(id, b.instrs)) for b in tree.blocks]
    assert len(blocks) == 4 and blocks[1] == blocks[2] == blocks[3]
    assert blocks[0][-len(blocks[1]):] == blocks[1]


@pytest.mark.parametrize("case", ["callee_locals_loop", "callee_arm_loop"])
def test_callee_reading_a_local_first_lowers_each_trip_anew(case):
    source = AGREEMENT_CASES[case]
    assert not _fresh(source)
    trips = [set(map(id, trip)) for trip in _trips(source)]
    assert len(trips) == 3
    assert trips[1].isdisjoint(trips[0]) and trips[2].isdisjoint(trips[0] | trips[1])
    # `c` starts at 0 on every call, as the whole-function run has it
    program = parse(source)
    tree = TreeExecutable(balance(build_execution_tree(program)))
    vanilla = AstExecutable(program)
    for s in range(4):
        assert tree.run(secret={"s": s}).outputs == vanilla.run(secret={"s": s}).outputs
    assert [vanilla.run(secret={"s": s}).outputs["y"] for s in range(4)] == \
        ([3, 4, 5, 6] if case == "callee_locals_loop" else [3, 4, 20, 21])


@pytest.mark.parametrize("case", ["replayed_while", "replayed_do_while"])
def test_replayed_while_agrees_with_whole_function_and_tree_runs(case):
    # every trip's test and body, and the last test, are one lowering: the
    # nested conditionals hold the same micro-ops
    items, _ = expand_region(parse(AGREEMENT_CASES[case]))
    tests, bodies = [], []
    item = items[-1]
    while isinstance(item, IfItem):
        tests.append(tuple(map(id, item.ops)))
        *body, item = item.then_items
        bodies.append(tuple(id(op) for ops in body for op in ops))
    assert isinstance(item[0], OverrunI)
    assert len(tests) == (4 if case == "replayed_while" else 3)
    assert len(set(tests)) == 1 and len(set(bodies[:-1])) == 1 and bodies[-1] == ()
    program = parse(AGREEMENT_CASES[case])
    vanilla = AstExecutable(program)
    tree = TreeExecutable(balance(build_execution_tree(program)))
    for s in range(4):
        want, got = vanilla.run(secret={"s": s}), tree.run(secret={"s": s})
        assert (got.outputs, got.trap and got.trap.kind) == \
            (want.outputs, want.trap and want.trap.kind)
    assert [vanilla.run(secret={"s": s}).trap for s in range(4)][-1].kind == "loop-bound"


@pytest.mark.parametrize("case", ["pending_while", "pending_do_while"])
def test_callee_loop_keeps_its_callers_pending_ops_in_its_first_trip(case):
    # lowered per trip: the tree runs as the one that never replays a trip,
    # step for step and fault for fault, and computes `g + 5` before `f`
    program = parse(AGREEMENT_CASES[case])
    with mock.patch.object(ir._Expander, "replays", return_value=False):
        anew = build_execution_tree(program)
    tree = build_execution_tree(program)
    vanilla = AstExecutable(program)
    for s in range(4):
        got, want = (TreeExecutable(t).run(secret={"s": s}) for t in (tree, anew))
        assert (got.outputs, got.steps, got.profile, got.trap) == \
            (want.outputs, want.steps, want.profile, want.trap)
        assert got.outputs == vanilla.run(secret={"s": s}).outputs == {"y": 5}


def _reads_a_local_first(fn) -> bool:
    """Whether lowered straight-line code reads a named local before any op
    writes it: the rule leaf callees were once decided by."""
    unset = set(fn.locals)
    for instr in fn.instrs:
        reads = [getattr(instr, f, None) for f in ("a", "b", "cond", "index", "src", "value")]
        if any(isinstance(op, Reg) and op.slot in unset for op in reads):
            return True
        unset.discard(getattr(instr, "dst", None))
    return False


def test_leaf_rule_is_the_lowered_rule():
    # on every function whose lowered body is straight-line code without a
    # call, the only ones `_leaf` asks it of, `writes_before_reads` decides
    # as the walk over lowered code did, and `_leaf` follows it
    sources = [path.read_text() for path in sorted(CORPUS.glob("*.pfo"))]
    decided = set()
    for source in sources + list(AGREEMENT_CASES.values()):
        program = parse(source)
        exe = AstExecutable(program)
        for name, fn in program.lowered.functions.items():
            items = fn.body.items
            if any(not isinstance(i, RunNode) for i in items[:-1]) \
                    or items and not isinstance(items[-1], (RunNode, RetNode)) \
                    or any(isinstance(i, CallI) for i in fn.instrs):
                continue
            rule = writes_before_reads(program, name)
            assert rule == (not _reads_a_local_first(fn)), (source, name)
            if not rule:
                assert exe._leaf(name) is None
            decided.add(rule)
    assert decided == {True, False}


def test_while_overrun_traps():
    exe = AstExecutable(parse(AGREEMENT_CASES["while_overrun"]))
    traps = [exe.run(secret={"s": s}).trap for s in range(4)]
    assert [t and t.kind for t in traps] == [None, None, "loop-bound", "loop-bound"]


def test_mux_elim_merges_caller_and_callee():
    # f alone on a page faults only when s == 1; with main it never faults
    build = in_place_o4(AGREEMENT_CASES["call_under_branch"])
    assert build.applied == ("O4",)
    assert code_groups(build) == (("f", "main"),)


def test_in_place_o4_decline_names_the_witness():
    build = in_place_o4(AGREEMENT_CASES["while_long"])
    assert build.applied == ()
    assert build.notes == ("O4 declined: `while` at line 5: its trips may vary",)
    build = in_place_o4(AGREEMENT_CASES["split_store"])
    assert build.notes == ("O4 declined: access to t split across pages",)


def test_a_staged_o1_o2_build_plans_twice():
    # the staged build plans its layout; O1 keeps it, so its plan waits for
    # a read that never comes, and O2 lays the build out again and plans it
    program = parse(case_source("aes", 16))
    for make in (lambda: build_defense(program, ("O1", "O2")),
                 lambda: opt_page_realign(opt_readonly_elim(build_staged(program)))):
        with mock.patch.object(optimize, "plan_layout", wraps=plan_layout) as planner:
            build = make()
            assert build.run(secret={"k": 3}).trap is None
            assert build.plan.readonly == {"table1", "table3"}
        assert planner.call_count == 2


def test_readonly_table_fetched_on_first_level_only():
    build = build_defense(parse(AGREEMENT_CASES["readonly_two_levels"]), ("O1",))
    fetched = [lv.level for lv in build.plan.levels
               if any(c.kind == "data" and c.unit == "t" for c in lv.fetch)]
    assert fetched == [1]


# every fixture whose secret domain has at most 64 secrets and whose staged
# build plans
WITNESS_CASES = {
    "data_placement": DATA_PLACEMENT, "lookup_64": LOOKUP_64, "three_way": THREE_WAY,
    "trap_in_copy": TRAP_IN_COPY, "trapping_arm": TRAPPING_ARM,
    "uneven_arms": UNEVEN_ARMS, "oob_at_second_site": OOB_AT_SECOND_SITE,
    "trap_after_tail_return": TRAP_AFTER_TAIL_RETURN,
    "unaligned_code": UNALIGNED_CODE, "valueless_call": VALUELESS_CALL,
    "write_back": WRITE_BACK, "access_skew": ACCESS_SKEW, "chain": CHAIN_SOURCE,
    "shared_callee": SHARED_CALLEE, **AGREEMENT_CASES,
}


@pytest.mark.parametrize("source", WITNESS_CASES.values(), ids=WITNESS_CASES.keys())
def test_level_witness_is_exact(source):
    # under each plan, and for O4's candidate (every block at its own code
    # pages), no witness exactly when the runs that do not trap share one
    # profile; a witness alone proves no leak in general (it may name a block
    # no secret reaches), but does on these builds
    program = parse(source)
    builds = {passes: build_defense(program, passes)
              for passes in ((), ("O5",), ALL_PASSES)}
    plain = builds[()]
    builds["unstaged"] = replace(plain, _exe=None, _plan=plan_layout(
        plain.tree, plain.source_layout, stage_code=False))
    for plan, build in builds.items():
        witness = build.executable().witness
        runs = [build.run(secret=s)
                for s in SecretDomain.of(build.program).exhaustive()]
        profiles = {tuple(r.profile) for r in runs if r.trap is None}
        assert (witness is None) == (len(profiles) <= 1), (plan, witness)


@pytest.mark.parametrize("source", [*WITNESS_CASES.values(), powm_balanced_source(8)],
                         ids=[*WITNESS_CASES, "powm_8"])
def test_no_in_place_witness_means_one_profile(source):
    # in place as written, under O4 and under O5 and O4: no witness implies
    # that the runs that do not trap share one profile
    program = parse(source)
    secrets = list(SecretDomain.of(program).exhaustive())
    for passes in ((), ("O4",), ("O5", "O4")):
        exe = build_defense(program, passes, in_place=True).executable()
        if exe.witness is None:
            runs = [exe.run(secret=s) for s in secrets]
            assert len({tuple(r.profile) for r in runs if r.trap is None}) <= 1


def test_corpus_o4_decisions():
    # under every pass, staged O4 keeps every corpus program's code in place
    # but foo's; powm_sw's plain tree exceeds the expansion budget
    applied = {path.stem: "O4" in build_defense(parse(path.read_text()), ALL_PASSES).applied
               for path in sorted(CORPUS.glob("*.pfo")) if path.stem != "powm_sw"}
    assert applied == {
        "aes": True, "cast_gcrypt": True, "cast_openssl": True, "eddsa": True,
        "foo": False, "powm": True, "seed_gcrypt": True, "seed_openssl": True,
        "stribog": True, "tiger": True, "whirlpool": True,
    }


@pytest.mark.parametrize("name, compiles", [("aes", 1), ("eddsa", 1), ("powm", 1), ("foo", 2)])
def test_one_compile_per_certified_build(name, compiles, monkeypatch):
    # O4 runs last, so a build it clears keeps the executable its witness
    # was read from, and the run compiles nothing more; foo's candidate is
    # declined, and its build compiles its own executable when it runs
    made = []
    init = transform.MultiplexedExecutable.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(transform.MultiplexedExecutable, "__init__", counted)
    build = build_defense(parse((CORPUS / f"{name}.pfo").read_text()), ALL_PASSES)
    build.run(secret={d.name: 1 for d in build.program.secrets})
    assert ("O4" in build.applied) == (name != "foo")
    assert len(made) == compiles and build.executable() is made[-1]


@pytest.mark.parametrize("name, levels", [("eddsa", 512), ("powm", 64)])
def test_o3a_merges_the_levels_o4_leaves_in_place(name, levels):
    # code left in place takes no room on the staging page, so under every
    # pass one group covers every level, and it stays one profile class
    build = build_defense(parse((CORPUS / f"{name}.pfo").read_text()), ALL_PASSES)
    assert "O4" in build.applied and len(build.tree.levels) == levels
    assert [lp.covers for lp in build.plan.levels] == [tuple(range(1, levels + 1))]
    small = build_defense(parse(case_source(name, 12)), ALL_PASSES)
    assert "O4" in small.applied and len(small.plan.levels) == 1
    verdict = exhaustive_verdict(small)
    assert verdict.classes == 1 and verdict.inputs_checked == 1 << 12
