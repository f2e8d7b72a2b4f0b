import itertools

import pytest

from pfo.exectree import balance, build_execution_tree
from pfo.interp import AstExecutable
from pfo.lang import parse
from pfo.layouts import build_tree_layout
from pfo.transform import (
    PlanError,
    plan_layout,
    select_mode,
    smart_copy,
    transform_program,
)

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


def planned(source, page_size=None, mode="auto", readonly_elim=False):
    program = parse(source)
    tree = balance(build_execution_tree(program))
    ps = page_size or program.page_size_hint or 4096
    layout = build_tree_layout(tree, ps)
    return program, tree, layout, plan_layout(tree, layout, mode, readonly_elim)


def _arm(statements_per_arm):
    return "\n".join(f"    a = a + {i + 1};" for i in range(statements_per_arm))


def branchy_source(stmts_per_arm, page_size):
    # each `a = a + c` lowers to two micro-ops (8 bytes)
    return f"""
#pragma page_size {page_size}
secret int<1> s;
output int a;
fn main() {{
  a = 0;
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

    def test_forced_basic_errors_when_too_big(self):
        with pytest.raises(PlanError, match="basic multiplexing"):
            planned(branchy_source(5, 64), mode="basic")

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

    def test_sa_code_is_one_page(self):
        for source in (branchy_source(3, 64), branchy_source(1, 4096)):
            _, _, _, plan = planned(source)
            assert isinstance(plan.staging.sa_code, int)


class TestSmartCopy:
    def test_offsets_dummy_real_dummy(self):
        offsets = smart_copy([30, 30, 30], real_index=1, page_size=64)
        assert offsets == [(0, False), (30, True), (0, False)]

    def test_real_block_too_large(self):
        with pytest.raises(PlanError, match="does not fit"):
            smart_copy([40, 40], real_index=0, page_size=64)

    def test_profiles_identical_over_real_choice(self):
        # 3-way branch: nested ifs give 3 candidate blocks that cannot
        # share a 64-byte page; the secret picks which one is real.
        src = """
#pragma page_size 64
secret int<2> s;
output int a;
fn main() {
  a = 0;
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
        exe = transform_program(parse(src))
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
        exe = transform_program(parse(LOOKUP_64))
        profiles = {tuple(exe.run(secret={"s": v}).profile) for v in range(8)}
        assert len(profiles) == 1

    def test_lookup_outputs_preserved(self):
        program = parse(LOOKUP_64)
        vanilla = AstExecutable(program)
        exe = transform_program(program)
        for v in range(8):
            assert exe.run(secret={"s": v}).outputs == \
                   vanilla.run(secret={"s": v}).outputs

    def test_foo_profile_independent_of_input(self):
        program = parse(FOO_SOURCE)
        exe = transform_program(program)
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

    def test_single_block_no_secrets_identity_up_to_staging(self):
        src = """
#pragma page_size 64
output int y;
fn main() {
  y = 41;
  y = y + 1;
}
"""
        exe = transform_program(parse(src))
        result = exe.run()
        assert result.outputs == {"y": 42}
        # one level, no data objects: schedule only stages the code block
        assert result.copy_ops == 0
        assert result.code_copy_ops >= 1

    def test_execute_phase_stays_on_staging_pages(self):
        exe = transform_program(parse(LOOKUP_64))
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
        exe = transform_program(parse(LOOKUP_64))
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
        exe1 = transform_program(program)
        exe2 = transform_program(parse(LOOKUP_64))
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
        exe = transform_program(parse(src))
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
    exe = transform_program(parse(FOO_SOURCE))
    base = None
    for _ in range(50):
        x, y = rng.randrange(256), rng.randrange(256)
        profile = tuple(exe.run(secret={"x": x, "y": y}).profile)
        if base is None:
            base = profile
        assert profile == base


def test_runs_of_one_multiplexed_executable_are_independent():
    from test_interp import WRITE_BACK

    exe = transform_program(parse(WRITE_BACK))
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

    exe = transform_program(parse(UNEVEN_ARMS))
    result = exe.run(secret={"s": s})
    # the only branch is `s == 1`; children are (then, else) or one successor
    visited = [exe.tree.root]
    while visited[-1].children:
        children = visited[-1].children
        visited.append(children[0] if s == 1 or len(children) == 1 else children[1])
    block_refs = sum(len(data_refs(i)) for b in visited for i in b.instrs)
    # one level plan per visited level (no merged levels): every fetch,
    # copy-back and final copy-back runs exactly once
    assert [lp.covered() for lp in exe.plan.levels] == [
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
