import itertools
import json

import pytest

from pfo import interp
from pfo.cli import main
from pfo.corpus import eddsa_full_source
from pfo.exectree import balance, build_execution_tree
from pfo.interp import AstExecutable, TrapInfo, TreeExecutable, _OpCompiler
from pfo.lang import WORD_SIZE, parse
from pfo.layouts import build_tree_layout
from pfo.memory import Extent
from pfo.optimize import ALL_PASSES, build_defense, build_staged, opt_if_convert
from pfo.suites import case_source
from pfo.transform import (
    MultiplexedExecutable,
    PlanError,
    plan_layout,
    select_mode,
)

from test_exectree import FIRST_TRIP_ALONE, SHARED_CONTINUATION
from test_interp import UNALIGNED_TABLE
from test_lang import FOO_SOURCE

# 8-entry table split 4 entries / 4 entries across pages 1 and 2.
LOOKUP_64 = """
#pragma page_size 64
#pragma place data t 1 -16
secret int<3> s;
output int y;
int t[8] = {10, 11, 12, 13, 14, 15, 16, 17};

fn main() {
  #pragma begin_pf_sensitive
  y = t[s];
  #pragma end_pf_sensitive
}
"""


def planned(source, page_size=None, readonly_elim=False):
    program = parse(source)
    tree = balance(build_execution_tree(program))
    ps = page_size or program.page_size_hint or 4096
    layout = build_tree_layout(tree, ps)
    return program, tree, layout, plan_layout(tree, layout, readonly_elim)


def _arm(statements_per_arm):
    return "\n".join(f"    a = a + {i + 1};" for i in range(statements_per_arm))


def branchy_source(stmts_per_arm, page_size):
    # each `a = a + c` lowers to two micro-ops (8 bytes)
    return f"""
#pragma page_size {page_size}
secret int<1> s;
output int a;
fn main() {{
  #pragma begin_pf_sensitive
  if (s == 1) {{
{_arm(stmts_per_arm)}
  }} else {{
{_arm(stmts_per_arm)}
  }}
  #pragma end_pf_sensitive
}}
"""


class TestPlanSelection:
    def test_two_40_byte_blocks_on_64_byte_page_compacted(self):
        # 40 + 40 > 64 triggers the compaction rule.
        assert select_mode([[40, 40]], 64) == "compacted"

    def test_three_small_blocks_basic(self):
        assert select_mode([[10, 10, 10]], 4096) == "basic"

    def test_small_blocks_fit_basic(self):
        _, _, _, plan = planned(branchy_source(1, 4096))
        assert plan.mode == "basic"

    def test_single_block_larger_than_page_rejected(self):
        src = """
#pragma page_size 64
output int a;
fn main() {
  a = 0;
""" + _arm(10) + """
}
"""
        with pytest.raises(PlanError, match="larger than one"):
            planned(src)

    def test_blocks_visiting_different_staging_pages_rejected(self):
        # on 16-byte pages a and b take separate staging pages, so the two
        # arms of the level visit different ones
        src = """
#pragma page_size 16
secret int<1> s;
int a[2];
int b[2];
fn main() {
  #pragma begin_pf_sensitive
  if (s == 1) { a[0] = 1; } else { b[0] = 1; }
  #pragma end_pf_sensitive
}
"""
        with pytest.raises(PlanError, match="level 2: candidate blocks visit different "
                                            "staging pages"):
            planned(src)
        # planning does not depend on the passes, so the staged build that
        # every pass starts from raises it
        with pytest.raises(PlanError, match="visit different staging pages"):
            build_staged(parse(src))

    def test_scheduled_copy_ops(self):
        from pfo.suites import defended_build

        assert defended_build("aes", 16).plan.scheduled_copy_ops == 2

    def test_sa_code_is_one_page(self):
        for source in (branchy_source(3, 64), branchy_source(1, 4096)):
            _, _, _, plan = planned(source)
            assert isinstance(plan.staging.sa_code, int)


# 3-way branch: nested ifs give 3 candidate blocks that cannot share a
# 64-byte page; the secret picks which one is real.
THREE_WAY = """
#pragma page_size 64
secret int<2> s;
output int a;
fn main() {
  #pragma begin_pf_sensitive
  if (s == 0) {
""" + _arm(4) + """
  } else {
    if (s == 1) {
""" + _arm(4) + """
    } else {
""" + _arm(4) + """
    }
  }
  #pragma end_pf_sensitive
}
"""


# a two-way level ahead of the three-way branch: the plan is compacted, and
# under O3A the first two levels share one fetch, level 2 after level 1's
# dummy and run slots
MERGED_BEFORE_THREE_WAY = THREE_WAY.replace(
    "  if (s == 0) {",
    "  if (s == 3) { a = a + 1; } else { a = a + 2; }\n  if (s == 0) {", 1)


# level 1 is one 48-byte block and the if-chain below it makes the plan
# compacted at page 64
ONE_BLOCK_LEVEL = """
#pragma page_size 64
secret int<3> s;
output int y;
int a;
fn main() {
  a = s + 1; a = a + 2; a = a + 3; a = a + 4; a = a + 5;
  if (s == 0) { y = 1; } else { y = 2; }
  if (s == 1) { y = y + 1; } else { y = y + 2; }
  if (s == 2) { y = y + 3; } else { y = y + 4; }
  if (s == 3) { y = y + 5; } else { y = y + 6; }
}
"""


class TestSmartCopy:
    def test_compacted_offsets_follow_largest_block(self):
        _, tree, _, plan = planned(THREE_WAY)
        assert plan.mode == "compacted"
        multi = [lv for lv in tree.levels if len(lv) > 1]
        assert multi
        for blocks in multi:
            biggest = max(b.code_size for b in blocks)
            for b in blocks:
                assert plan.gamma[b.id] == (b.level, biggest)
        code_steps = [c for lp in plan.levels for c in lp.fetch if c.kind == "code"]
        assert code_steps
        # every block's copies overwrite the dummy slot from offset 0, each
        # copy (one per source page the block is on) after the one before
        ends: dict[str, int] = {}
        for c in code_steps:
            assert c.dst_offset == ends.get(c.unit, 0), c
            ends[c.unit] = c.dst_offset + c.words * WORD_SIZE
        assert len(code_steps) > len(ends)

    def test_compacted_block_too_large_for_dummy_slot(self):
        # two 40-byte arms: the largest block is more than half the page
        with pytest.raises(PlanError, match="cannot sit beside the dummy slot"):
            planned(branchy_source(5, 64))

    def test_one_block_level_too_large_for_dummy_slot(self):
        # a lone 48-byte block would run past a dummy slot of its own size
        with pytest.raises(PlanError, match="level 1: block of 48 bytes cannot sit "
                                            "beside the dummy slot"):
            planned(ONE_BLOCK_LEVEL)

    def test_profiles_identical_over_real_choice(self):
        exe = build_defense(parse(THREE_WAY)).executable()
        assert exe.plan.mode == "compacted"
        profiles = {tuple(exe.run(secret={"s": v}).profile) for v in (0, 1, 2, 3)}
        assert len(profiles) == 1

    def test_two_blocks_of_30_fit_basic(self):
        _, _, _, plan = planned(branchy_source(3, 64))
        # 24-byte blocks, level total 48 <= 64
        assert plan.mode == "basic"


class TestMultiplexedExecution:
    def test_lookup_single_profile_class(self):
        # The staged table is read from SA_data only, so every key falls in
        # one profile class.
        exe = build_defense(parse(LOOKUP_64)).executable()
        profiles = {tuple(exe.run(secret={"s": v}).profile) for v in range(8)}
        assert len(profiles) == 1

    def test_lookup_outputs_preserved(self):
        program = parse(LOOKUP_64)
        vanilla = AstExecutable(program)
        exe = build_defense(program).executable()
        for v in range(8):
            assert exe.run(secret={"s": v}).outputs == \
                   vanilla.run(secret={"s": v}).outputs

    def test_foo_profile_independent_of_input(self):
        program = parse(FOO_SOURCE)
        exe = build_defense(program).executable()
        profiles = set()
        outputs = {}
        for x, y in [(4, 2), (8, 9), (6, 5), (13, 2), (0, 0)]:
            r = exe.run(secret={"x": x, "y": y})
            profiles.add(tuple(r.profile))
            outputs[(x, y)] = r.outputs
        assert len(profiles) == 1
        vanilla = AstExecutable(program)
        for (x, y), out in outputs.items():
            assert out == vanilla.run(secret={"x": x, "y": y}).outputs

    @pytest.mark.parametrize("passes", [("O4",), ("O4", "O1")])
    @pytest.mark.parametrize("source, o4, notes, code_copies", [
        (LOOKUP_64, True, (), 0),
        (THREE_WAY, False, ("O4 declined: level 2, BB2 and BB3 fault differently",), 8),
    ], ids=["lookup", "three-way"])
    def test_o4_staging_follows_applied(self, passes, source, o4, notes, code_copies):
        # O4 unstages the code only when it is applied, and a later re-plan
        # (O1) keeps that decision
        build = build_defense(parse(source), passes)
        assert ("O4" in build.applied) is o4 and build.notes == notes
        for s in range(4):
            assert build.run(secret={"s": s}).code_copy_ops == code_copies

    def test_single_block_no_secrets_identity_up_to_staging(self):
        src = """
#pragma page_size 64
output int y;
fn main() {
  y = 41;
  y = y + 1;
}
"""
        exe = build_defense(parse(src)).executable()
        result = exe.run()
        assert result.outputs == {"y": 42}
        # one level, no data objects: schedule only stages the code block
        assert result.copy_ops == 0
        assert result.code_copy_ops >= 1

    def test_execute_phase_stays_on_staging_pages(self):
        exe = build_defense(parse(LOOKUP_64)).executable()
        result = exe.run(secret={"s": 3}, collect_trace=True)
        staging = exe.plan.staging.pages()
        source_pages = set()
        for extents in exe.source_layout.code_map.values():
            source_pages.update(e.page for e in extents)
        for extents in exe.source_layout.data_map.values():
            source_pages.update(e.page for e in extents)
        for ev in result.trace:
            assert ev.page in staging | source_pages

    def test_atomicity_schedule_order(self):
        # Fetch events reference (SA_code, src) pairs in schedule order,
        # and the copy-back tail matches the plan too.
        exe = build_defense(parse(LOOKUP_64)).executable()
        result = exe.run(secret={"s": 0}, collect_trace=True)
        fetched_srcs = [
            c.src_page for lp in exe.plan.levels for c in lp.fetch
        ]
        trace_reads = [
            ev.page for ev in result.trace
            if ev.kind.value == "data-read" and ev.page not in exe.plan.staging.pages()
        ]
        assert trace_reads[:len(fetched_srcs)] == fetched_srcs

    def test_schedule_static_across_inputs(self):
        program = parse(LOOKUP_64)
        exe1 = build_defense(program).executable()
        exe2 = build_defense(parse(LOOKUP_64)).executable()
        assert exe1.plan.to_json() == exe2.plan.to_json()

    def test_copy_back_persists_array_writes(self):
        src = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[4] = {1, 2, 3, 4};
fn main() {
  #pragma begin_pf_sensitive
  t[s] = 99;
  y = t[s];
  #pragma end_pf_sensitive
}
"""
        exe = build_defense(parse(src)).executable()
        result = exe.run(secret={"s": 2})
        assert result.outputs == {"y": 99}
        assert result.store["t"] == [1, 2, 99, 4]

    def test_plan_gamma_and_slots_serialize(self):
        _, _, _, plan = planned(LOOKUP_64)
        doc = plan.to_json_dict()
        assert doc["mode"] == "basic"
        assert "t" in doc["staging"]["slots"]
        assert doc["levels"][0]["fetch"]


def test_obliviousness_property_random_pairs():
    import random

    rng = random.Random(7)
    exe = build_defense(parse(FOO_SOURCE)).executable()
    base = None
    for _ in range(50):
        x, y = rng.randrange(256), rng.randrange(256)
        profile = tuple(exe.run(secret={"x": x, "y": y}).profile)
        if base is None:
            base = profile
        assert profile == base


def _copied_at_start(exe):
    return {exe.objects.names[i] for i in exe._frame.written}


def test_a_run_copies_only_the_arrays_an_op_stores_into():
    from pfo.suites import defended_build
    from test_interp import WRITE_BACK

    # a table no op stores into is the image's, and so is its shadow: its
    # copies are charged but move nothing, and a run copies the selector
    # alone, under O1+O2 and plain
    for exe in (defended_build("aes", 16).executable(),
                build_defense(parse(case_source("stribog", 16))).executable()):
        assert _copied_at_start(exe) == {"__sa/__sa_sel"}
        image, index = exe.objects.image, exe.objects.index
        run = exe.run(secret={"k": 3})
        for table in (d.name for d in exe.program.arrays):
            assert run.store[table] is image[index[table]]
            if f"__sa/{table}" in index:  # staged when the code reads it
                assert image[index[f"__sa/{table}"]] is image[index[table]]
    # a stored array is fetched and copied back, and copied with its
    # shadow at run start
    exe = build_defense(parse(WRITE_BACK)).executable()
    assert _copied_at_start(exe) == {"__sa/__sa_sel", "t", "__sa/t"}
    assert exe.run(secret={"s": 2}).store["t"] == [1, 2, 99, 4]
    assert exe.objects.image[exe.objects.index["t"]] == [1, 2, 3, 4]


def test_runs_of_one_multiplexed_executable_are_independent():
    from test_interp import WRITE_BACK

    exe = build_defense(parse(WRITE_BACK)).executable()
    first = exe.run(secret={"s": 2})
    second = exe.run(secret={"s": 1})
    assert (first.outputs, second.outputs) == ({"y": 3}, {"y": 2})
    assert first.store == {"t": [1, 2, 99, 4]}
    assert second.store == {"t": [1, 99, 3, 4]}


# unequal arms, so balancing pads the short one
UNEVEN_ARMS = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[4] = {1, 2, 3, 4};
fn main() {
  #pragma begin_pf_sensitive
  if (s == 1) {
    y = t[0] + t[1];
  } else {
    y = 5;
  }
  t[2] = y;
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("s", range(4))
def test_mux_accesses_count_visited_blocks_staging_and_selector(s):
    from pfo.ir import data_refs

    exe = build_defense(parse(UNEVEN_ARMS)).executable()
    result = exe.run(secret={"s": s})
    # the only branch is `s == 1`; children are (then, else) or one successor
    visited = [exe.tree.root]
    while visited[-1].children:
        children = visited[-1].children
        visited.append(children[0] if s == 1 or len(children) == 1 else children[1])
    block_refs = sum(len(data_refs(i)) for b in visited for i in b.instrs)
    # one level plan per visited level (no merged levels): every fetch,
    # copy-back and final copy-back runs exactly once
    assert [lp.covers for lp in exe.plan.levels] == [
        (lv,) for lv in range(1, len(visited) + 1)
    ]
    staging_words = sum(
        c.words
        for steps in [exe.plan.final_copy_back]
        + [lp.fetch + lp.copy_back for lp in exe.plan.levels]
        for c in steps
    )
    assert result.outputs == {"y": 3 if s == 1 else 5}
    assert result.mux_accesses == block_refs + staging_words + len(visited)


def test_uneven_arms_multiplexed_oblivious():
    exe = build_defense(parse(UNEVEN_ARMS)).executable()
    profiles = {tuple(exe.run(secret={"s": s}).profile) for s in range(4)}
    assert len(profiles) == 1


# the then-arm indexes past `t`, so the run traps inside a multiplexed block
TRAPPING_ARM = """
#pragma page_size 64
secret int<3> s;
output int y;
int t[4] = {1, 2, 3, 4};
fn main() {
  #pragma begin_pf_sensitive
  y = 1;
  if (s == 1) {
    y = t[s + 4];
  } else {
    y = t[0];
  }
  t[1] = y;
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("s, trap, counts, faults, store", [
    # the trap ends the run before the level's copy-back: `t` keeps its values
    (1, ("index-oob", 20), (20, 1, 3, 18), 6, [1, 2, 3, 4]),
    (0, None, (28, 2, 3, 23), 7, [1, 1, 3, 4]),
])
def test_trap_inside_multiplexed_block(s, trap, counts, faults, store):
    result = build_defense(parse(TRAPPING_ARM)).run(secret={"s": s})
    got_trap = None if result.trap is None else (result.trap.kind, result.trap.step)
    assert got_trap == trap
    assert (result.steps, result.copy_ops, result.code_copy_ops,
            result.mux_accesses) == counts
    assert result.faults == faults
    assert result.store["t"] == store


def count_compiles(monkeypatch) -> list:
    """A list that gains each micro-op `_OpCompiler.compile_run` compiles
    from now on (every compile of a block's code goes through it)."""
    calls = []
    compile_run = _OpCompiler.compile_run

    def counting(self, instrs, *args, **kwargs):
        calls.extend(instrs)
        return compile_run(self, instrs, *args, **kwargs)
    monkeypatch.setattr(_OpCompiler, "compile_run", counting)
    return calls


def shared_groups(exe) -> list:
    """The ids of the blocks that share a segment tuple, group by group."""
    groups: dict[int, list] = {}
    for bid, segments in sorted(exe.segments.items()):
        groups.setdefault(id(segments), []).append(bid)
    return [g for g in groups.values() if len(g) > 1]


# the division traps for s == 3 on the nested then-then path, in a leaf
# whose segments it shares with the copy under the other inner arm
TRAP_IN_COPY = SHARED_CONTINUATION.replace("(s - 2)", "(s - 3)")


@pytest.mark.parametrize("source, s, step, profile", [
    # the else path: it traps before reaching the shared pad leaf
    (SHARED_CONTINUATION, 2, 182, [4, 1, 5, 1, 2, 5, 1, 2, 5, 1, 2, 5]),
    (TRAP_IN_COPY, 3, 233, [4, 1, 5, 1, 2, 5, 1, 2, 5, 1, 2, 5, 1, 0, 5]),
], ids=["else-path", "shared-leaf"])
def test_copies_of_a_continuation_share_compiled_segments(
        monkeypatch, source, s, step, profile):
    build = build_staged(parse(source))
    calls = count_compiles(monkeypatch)
    exe = MultiplexedExecutable(build.tree, build.source_layout, build.plan)
    # the loop's second trip and the test of `y & 4` (level 4) and its two
    # arms (level 5) are copied under both inner arms; the two pad leaves
    # are padded alike
    assert shared_groups(exe) == [[4, 8], [5, 9], [6, 10], [15, 16]]
    assert len(set(map(id, exe.segments.values()))) == 12
    # blocks 8, 9, 10 and 16 (30 micro-ops) compile nothing of their own
    placed = sum(len(b.instrs) for b in build.tree.blocks)
    assert (len(calls), placed) == (127, 157)
    # the trap's step and profile are those of the build without sharing
    result = exe.run(secret={"s": s})
    assert result.trap == TrapInfo("div-zero", step)
    assert (result.steps, result.profile) == (step, profile)


# every trip of the replayed loop places the same test block and the same
# two arms, one trip per pair of levels: one body on two or three levels
TRIPS_WITH_SECRET_ARMS = """
secret int<3> s;
int t[4] = {1, 2, 3, 4};
output int y;
fn main() {
  #pragma begin_pf_sensitive
  for (i = 0; i < 3; i = i + 1) {
    if (((s >> i) & 1) == 1) { y = y + 12 / ((s >> i) - 1); } else { y = y ^ t[i & 3]; }
  }
  #pragma end_pf_sensitive
}
"""


def test_one_body_on_several_levels_compiles_once(monkeypatch):
    build = build_staged(parse(TRIPS_WITH_SECRET_ARMS))
    tree = build.tree
    calls = count_compiles(monkeypatch)
    exe = MultiplexedExecutable(tree, build.source_layout, build.plan)
    bodies = {tuple(map(id, b.instrs)): len(b.instrs) for b in tree.blocks}
    then_arm = tuple(map(id, tree.blocks[1].instrs))
    assert {b.level for b in tree.blocks if tuple(map(id, b.instrs)) == then_arm} \
        == {2, 4, 6}
    assert (len(calls), sum(bodies.values()), len(bodies)) == (25, 25, 4)
    assert sum(len(b.instrs) for b in tree.blocks) == 141
    # each level still has segments of its own: its copies and charge
    assert len(set(map(id, exe.segments.values()))) == 9
    # s = 4 traps in the third trip's then arm, on level 6, as it did when
    # each level compiled its own copy of the arm
    result = exe.run(secret={"s": 4})
    assert (result.steps, result.profile, result.trap) == (
        190, [3, 0, 4, 0, 1, 4, 0, 4, 0, 1, 4, 0, 4, 0, 1, 4],
        TrapInfo("div-zero", 190))
    reference = TreeExecutable(tree)
    for secret in range(8):
        got, want = exe.run(secret={"s": secret}), reference.run(secret={"s": secret})
        assert got.outputs == want.outputs
        assert (got.trap and got.trap.kind) == (want.trap and want.trap.kind)


# the loop's trips are chained blocks under both arms of the `if`, one
# trip per level from level 3 on; every block is on code page 0, so levels
# 3 and 4 fetch the same words from the same pages, and enter alike
TRIPS_AFTER_AN_IF = """
secret int<1> s;
int t[4] = {1, 2, 3, 4};
output int y;
fn main() {
  #pragma begin_pf_sensitive
  if (s == 1) { y = 1; } else { y = 2; }
  for (i = 0; i < 4; i = i + 1) { y = y + t[i]; }
  #pragma end_pf_sensitive
}
"""


def test_blocks_with_the_same_ops_share_segments_across_levels():
    build = build_staged(parse(TRIPS_AFTER_AN_IF))
    tree = build.tree
    exe = build.executable()
    level = {b.id: b.level for b in tree.blocks}
    # blocks 3 and 4 (the second and third trips under the then arm) and
    # their copies 7 and 8 under the else arm run the same ops: one segment
    # tuple on two levels.  The leaves' copy-back sets level 5 apart
    assert [[(bid, level[bid]) for bid in group] for group in shared_groups(exe)] \
        == [[(3, 3), (4, 4), (7, 3), (8, 4)], [(5, 5), (9, 5)]]
    # a plain tree executable compiles every block on its own
    reference = TreeExecutable(tree)
    assert shared_groups(reference) == []
    runs = [exe.run(secret={"s": s}) for s in (0, 1)]
    assert [r.outputs for r in runs] == \
        [reference.run(secret={"s": s}).outputs for s in (0, 1)] == [{"y": 12}, {"y": 11}]
    assert exe.witness is None and runs[0].profile == runs[1].profile


def test_a_body_alone_on_its_level_compiles_apart(monkeypatch):
    # only a level of several blocks gives its code-only steps dummy reads,
    # so the body alone on level 1 cannot share the others' compiled ops:
    # without its dummy reads, where block 2's two data accesses fall would
    # show beside the exit's pad writes (3 classes)
    build = build_staged(parse(FIRST_TRIP_ALONE))
    tree = build.tree
    one, two, three = tree.blocks[:3]
    assert [b.level for b in (one, two, three)] == [1, 2, 3]
    assert list(map(id, one.instrs)) == list(map(id, two.instrs)) \
        == list(map(id, three.instrs))
    assert [len(lv) for lv in tree.levels] == [1, 2, 3, 4]
    calls = count_compiles(monkeypatch)
    exe = MultiplexedExecutable(tree, build.source_layout, build.plan)
    runs = [exe.run(secret={"s": s}) for s in range(4)]
    assert exe.witness is None
    assert len({tuple(r.profile) for r in runs}) == 1
    assert [r.outputs["y"] for r in runs] == [2, 7, 8, 15]
    assert sum(c is one.instrs[0] for c in calls) == 2
    assert len(calls) == 29


def block_op_lists(monkeypatch) -> dict:
    """A dict that gains, by block id, the op list each `TreeExecutable`
    built from now on links for the block (`_link`'s `block_ops`)."""
    lists = {}
    link = TreeExecutable._link

    def recording(self, tree, layout, objects, compiler, block_ops):
        def ops(b):
            lists[b.id] = got = block_ops(b)
            return got
        return link(self, tree, layout, objects, compiler, ops)
    monkeypatch.setattr(TreeExecutable, "_link", recording)
    return lists


def test_one_body_with_other_copies_or_exits_is_another_op_list(monkeypatch):
    # a block's op list is its level's enter copies, its compiled body, the
    # selector and, for a leaf, the exit copies: blocks share a list only
    # when all of those are the same ops
    lists = block_op_lists(monkeypatch)
    build = build_staged(parse(FIRST_TRIP_ALONE))
    build.executable()
    b = {x.id: x for x in build.tree.blocks}
    # BB2 and BB3 (levels 2 and 3) hold one body but enter their levels apart
    assert b[2].instrs is b[3].instrs
    assert lists[2] is not lists[3] and lists[2][0] is not lists[3][0]
    assert all(x is y for x, y in zip(lists[2][1:], lists[3][1:]))
    # BB6 and BB8 on level 3 share one list; BB7, their body on level 2, not
    assert b[6].instrs is b[7].instrs is b[8].instrs
    assert lists[6] is lists[8] and lists[7] is not lists[6]
    # BB4 and BB5 of TRIPS_AFTER_AN_IF enter alike, but BB5 is a leaf
    build = build_staged(parse(TRIPS_AFTER_AN_IF))
    build.executable()
    four, five = build.tree.blocks[3:5]
    assert four.instrs is five.instrs and (four.is_leaf, five.is_leaf) == (False, True)
    assert lists[4][0] is lists[5][0] and lists[4] is not lists[5]
    assert all(x is y for x, y in zip(lists[4], lists[5][:-1]))
    assert len(lists[5]) == len(lists[4]) + 1


def test_staged_full_eddsa_cuts_each_distinct_op_list_once(monkeypatch):
    # 1674 blocks on 844 levels hold 432 distinct op lists, and each is cut
    # into segments once
    program, _ = opt_if_convert(parse(eddsa_full_source()))
    build = build_staged(program)
    cut = []
    segments = interp._segments

    def counting(ops, summaries):
        cut.append(ops)
        return segments(ops, summaries)
    monkeypatch.setattr(interp, "_segments", counting)
    calls = count_compiles(monkeypatch)
    exe = build.executable()
    assert (len(cut), len(exe.segments)) == (432, 1674)
    assert len(calls) == 3736


def test_in_place_code_shares_nothing(monkeypatch):
    # under O4 each block runs from its own code pages, so every placement
    # compiles to its own closure
    build = build_staged(parse(SHARED_CONTINUATION))
    plan = plan_layout(build.tree, build.source_layout, stage_code=False)
    calls = count_compiles(monkeypatch)
    exe = MultiplexedExecutable(build.tree, build.source_layout, plan)
    assert len(calls) == sum(len(b.instrs) for b in build.tree.blocks) == 157
    assert shared_groups(exe) == []
    assert exe.run(secret={"s": 2}).trap.kind == "div-zero"


# the smallest build that leaked through where a level's data accesses
# fall, not how many there are, until each code-only step of a multi-block
# level read its block's next staging data page
DATA_PLACEMENT = """
#pragma page_size 4096
secret int<3> s;
public int p = 7;
output int y;
int a;
int b;
int t[8];
fn main() {
  #pragma begin_pf_sensitive
  a = 1; b = 2; y = 0;
  if (s == 1) { b = 0; a = a; } else { a = t[p & 7]; }
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("source, passes, witness", [
    pytest.param(DATA_PLACEMENT, (), None, id="data-placement"),
    pytest.param(DATA_PLACEMENT, ALL_PASSES, None, id="data-placement-all"),
    pytest.param(UNEVEN_ARMS, (), None, id="uneven-arms"),
    pytest.param(FOO_SOURCE, ("O5",), None, id="foo-O5"),
    pytest.param(SHARED_CONTINUATION, (), None, id="shared-continuation"),
    *(pytest.param(source, passes, None, id=f"{name}{suffix}")
      for name, source in [("three-way", THREE_WAY), ("lookup", LOOKUP_64),
                           ("trapping-arm", TRAPPING_ARM)]
      for passes, suffix in [((), ""), (ALL_PASSES, "-all")]),
    *(pytest.param(case_source(name, 16), ("O1", "O2"), None, id=f"{name}-16-O1-O2")
      for name in ("aes", "cast_gcrypt", "cast_openssl", "seed_gcrypt",
                   "seed_openssl", "stribog", "tiger", "whirlpool")),
])
def test_level_witness(source, passes, witness):
    exe = build_defense(parse(source), passes).executable()
    assert exe.witness == witness


@pytest.mark.parametrize("source, witness", [
    (DATA_PLACEMENT, "level 2, BB2 and BB3 fault differently"),
    (UNEVEN_ARMS, "level 2, BB2 and BB3 fault differently"),
    (SHARED_CONTINUATION, "level 3, BB3 and BB12 fault differently"),
    (FOO_SOURCE, "level 3, BB3 and BB5 fault differently"),
], ids=["data-placement", "uneven-arms", "shared-continuation", "foo"])
def test_level_witness_of_unstaged_code(source, witness):
    # each block at its own code pages reads no staging page in its code-only
    # steps, so where its data accesses fall still shows
    build = build_staged(parse(source))
    plan = plan_layout(build.tree, build.source_layout, stage_code=False)
    exe = MultiplexedExecutable(build.tree, build.source_layout, plan)
    assert exe.witness == witness


@pytest.mark.parametrize("passes", [(), ALL_PASSES], ids=["plain", "all"])
def test_data_placement_one_class(passes):
    build = build_defense(parse(DATA_PLACEMENT), passes)
    vanilla = AstExecutable(parse(DATA_PLACEMENT))
    runs = [build.run(secret={"s": s}) for s in range(8)]
    assert [r.outputs for r in runs] == \
        [vanilla.run(secret={"s": s}).outputs for s in range(8)]
    assert len({tuple(r.profile) for r in runs}) == 1


def test_data_placement_verifies_transformed(tmp_path, capsys):
    source = tmp_path / "data_placement.pfo"
    source.write_text(DATA_PLACEMENT)
    assert main(["verify", "--program", str(source), "--transformed"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == 1


# `t` (the store makes its copies move words), and `main`'s first block
# below, start 6 bytes before the end of page 1: word 1 starts at byte 62,
# so it is on page 1, and the staging copies move it from there
UNALIGNED_STORE = UNALIGNED_TABLE.replace("y = t[s];", "t[0] = 9; y = t[s];")

UNALIGNED_BLOCK = """
#pragma page_size 64
#pragma place code main 1 -6
secret int<1> s;
int t[4] = {1, 2, 3, 4};
output int y;
fn main() {
  #pragma begin_pf_sensitive
  y = t[0] + t[1];
  if (s == 1) { y = y + 1; } else { y = y + 2; }
  #pragma end_pf_sensitive
}
"""


def test_data_copies_move_a_word_across_a_page_boundary():
    program = parse(UNALIGNED_STORE)
    build = build_defense(program)
    assert build.source_layout.data_map["t"] == (Extent(1, 58, 6), Extent(2, 0, 10))
    assert [(c.src_page, c.src_word, c.words) for lp in build.plan.levels
            for c in lp.fetch if c.unit == "t"] == [(1, 0, 2), (2, 2, 2)]
    vanilla = AstExecutable(program)
    for s in range(4):
        assert build.run(secret={"s": s}).outputs == \
            vanilla.run(secret={"s": s}).outputs == {"y": [9, 2, 3, 4][s]}


def test_code_fetch_moves_every_instruction_of_a_straddling_block():
    build = build_defense(parse(UNALIGNED_BLOCK))
    assert build.source_layout.code_map["BB1"] == (Extent(1, 58, 6), Extent(2, 0, 18))
    # the block's second run of words lands after its first, not on it
    assert [(c.unit, c.src_page, c.words, c.dst_offset) for c in build.plan.levels[0].fetch
            if c.kind == "code"] == [("BB1", 1, 2, 0), ("BB1", 2, 4, 2 * WORD_SIZE)]
    for s in range(2):
        run = build.run(secret={"s": s})
        assert (run.outputs["y"], run.steps, run.mux_accesses) == (5 - s, 28, 22)
