from pathlib import Path

import pytest

from pfo.corpus import make_table_cases
from pfo.exectree import balance, build_execution_tree
from pfo.interp import (
    AstExecutable, Sink, State, TreeExecutable, _OpCompiler, _sequence, simulate,
)
from pfo.ir import LoadI, Reg
from pfo.lang import parse
from pfo.layouts import build_ast_layout
from pfo.memory import AdversaryModel, EventKind, PfoError, observe_profile
from pfo.optimize import build_staged, opt_if_convert, opt_page_realign, opt_readonly_elim

from test_lang import FOO_SOURCE

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

SPLIT_LOOKUP = """
#pragma page_size 16
#pragma place data t 1 0
secret int<3> s;
output int y;
int t[8] = {10, 11, 12, 13, 14, 15, 16, 17};

fn main() {
  #pragma begin_pf_sensitive
  y = t[s];
  #pragma end_pf_sensitive
}
"""


def _secrets(program, value):
    return {d.name: value % (1 << (d.width or 64)) for d in program.secrets}


def _trace_cases():
    """(name, executable, secret) for every corpus program and two staged builds."""
    for path in sorted(CORPUS.glob("*.pfo")):
        program = parse(path.read_text())
        yield path.stem, AstExecutable(program), _secrets(program, 0b1011)
    yield "split-lookup", AstExecutable(parse(SPLIT_LOOKUP)), {"s": 5}
    yield "staged-foo", build_staged(parse(FOO_SOURCE)), {"x": 8, "y": 9}
    aes = parse(make_table_cases()["aes"].source(key_bytes=2))
    yield ("staged-aes-o1-o2",
           opt_page_realign(opt_readonly_elim(build_staged(aes))), {"k": 0x1234})


class TestVanillaSimulation:
    def test_split_lookup_profiles(self):
        # 8-entry table split 4+4 across pages 1 and 2, code on page 0:
        # low indexes fault [code, P1], high indexes [code, P2].
        program = parse(SPLIT_LOOKUP)
        exe = AstExecutable(program)
        low = exe.run(secret={"s": 2})
        high = exe.run(secret={"s": 6})
        assert low.profile == [0, 1]
        assert high.profile == [0, 2]
        assert low.outputs == {"y": 12}
        assert high.outputs == {"y": 16}

    def test_infinite_memory_profile_empty(self):
        program = parse(SPLIT_LOOKUP)
        exe = AstExecutable(program)
        result = exe.run(secret={"s": 2}, model=AdversaryModel.infinite_memory())
        assert result.profile == []
        assert result.outputs == {"y": 12}

    def test_trace_matches_observe_profile(self):
        # the profile a run computes step by step equals the replay of the
        # trace the same run emits
        for name, exe, secret in _trace_cases():
            plain = exe.run(secret=secret)
            traced = exe.run(secret=secret, collect_trace=True)
            assert plain.trap is None, name
            assert plain.profile == traced.profile, name
            replayed = observe_profile(traced.trace, AdversaryModel.pigeonhole())
            assert plain.profile == replayed, name
            assert (plain.steps, plain.outputs) == (traced.steps, traced.outputs), name

    def test_profile_deterministic(self):
        program = parse(SPLIT_LOOKUP)
        exe = AstExecutable(program)
        assert exe.run(secret={"s": 3}).profile == exe.run(secret={"s": 3}).profile

    def test_step_accounting_unit_cost(self):
        program = parse(SPLIT_LOOKUP)
        result = AstExecutable(program).run(secret={"s": 0})
        # one load, one move
        assert result.steps == 2

    def test_layout_independent_outputs(self):
        program = parse(SPLIT_LOOKUP)
        default = AstExecutable(program).run(secret={"s": 4})
        other_layout = build_ast_layout(AstExecutable(program).lowered, 64)
        moved = AstExecutable(program, layout=other_layout).run(secret={"s": 4})
        assert default.outputs == moved.outputs
        assert default.profile != moved.profile or True  # profiles may differ

    def test_out_of_bounds_trap_keeps_events(self):
        program = parse("""
        #pragma page_size 16
        public int i;
        output int y;
        int t[4];
        fn main() {
          t[0] = 7;
          y = t[i];
        }
        """)
        result = AstExecutable(program).run(public={"i": 9}, collect_trace=True)
        assert result.trap is not None
        assert result.trap.kind == "index-oob"
        assert len(result.trace) > 0  # events up to the trap survive

    def test_div_by_zero_trap(self):
        program = parse("""
        public int d;
        output int y;
        fn main() { y = 10 / d; }
        """)
        result = AstExecutable(program).run(public={"d": 0})
        assert result.trap is not None and result.trap.kind == "div-zero"

    def test_signed_semantics(self):
        program = parse("""
        output int a;
        output int b;
        output int c;
        fn main() {
          a = 0 - 7;
          b = a >> 1;
          c = (a < 3) ? 1 : 0;
        }
        """)
        out = AstExecutable(program).run().outputs
        assert out == {"a": -7, "b": -4, "c": 1}

    def test_while_and_calls(self):
        program = parse("""
        secret int<8> k;
        output int bits;
        fn popcount(v) {
          n = 0;
          while (v != 0) bound 8 {
            n = n + (v & 1);
            v = v >> 1;
          }
          return n;
        }
        fn main() {
          #pragma begin_pf_sensitive
          bits = popcount(k);
          #pragma end_pf_sensitive
        }
        """)
        exe = AstExecutable(program)
        for k in (0, 1, 0b10110101, 255):
            assert exe.run(secret={"k": k}).outputs["bits"] == bin(k).count("1")


def foo_reference(x, y):
    z = 2 * y
    if z != x:
        if z < x + 10:
            return 6  # path_c: two iterations of +3
        return 4      # path_b: two iterations of +2
    return 1          # path_a


class TestTreeExecution:
    @pytest.mark.parametrize("x,y", [(4, 2), (8, 9), (6, 5), (0, 0), (200, 100)])
    def test_tree_matches_ast_outputs(self, x, y):
        program = parse(FOO_SOURCE)
        ast_out = AstExecutable(program).run(secret={"x": x, "y": y}).outputs
        tree = balance(build_execution_tree(program))
        tree_out = TreeExecutable(tree).run(secret={"x": x, "y": y}).outputs
        assert ast_out == tree_out == {"w": foo_reference(x, y)}

    def test_balanced_tree_step_count_constant(self):
        program = parse(FOO_SOURCE)
        tree = balance(build_execution_tree(program))
        exe = TreeExecutable(tree)
        steps = {
            exe.run(secret={"x": x, "y": y}).steps
            for x, y in [(4, 2), (8, 9), (6, 5)]
        }
        assert len(steps) == 1

    def test_simulate_convenience(self):
        result = simulate(parse(SPLIT_LOOKUP), secret={"s": 1})
        assert result.outputs == {"y": 11}


# writes the initialized table it reads, so a run that started from another
# run's arrays would read the other run's write
WRITE_BACK = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[4] = {1, 2, 3, 4};
fn main() {
  #pragma begin_pf_sensitive
  y = t[s];
  t[s] = 99;
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("make", [
    AstExecutable,
    lambda program: TreeExecutable(balance(build_execution_tree(program))),
], ids=["ast", "tree"])
def test_runs_of_one_executable_are_independent(make):
    exe = make(parse(WRITE_BACK))
    first = exe.run(secret={"s": 2})
    assert first.outputs == {"y": 3}
    assert first.store["t"] == [1, 2, 99, 4]
    second = exe.run(secret={"s": 1})
    assert second.outputs == {"y": 2}  # from the initializer, not run 1
    assert second.store["t"] == [1, 99, 3, 4]
    assert first.store["t"] == [1, 2, 99, 4]


def test_initializers_wrap_to_program_width():
    program = parse("""
    output int y;
    int t[4] = {(1 << 64) + 5, 1 << 63, -1};
    fn main() { y = t[0]; }
    """)
    result = AstExecutable(program).run()
    assert result.outputs == {"y": 5}
    assert result.store["t"] == [5, -(1 << 63), -1, 0]


# `inc` returns at the end of its body, then `look` traps on its table read
# (index-oob) or on its division (div-zero)
TRAP_AFTER_TAIL_RETURN = """
#pragma page_size 64
public int i;
public int d;
output int y;
int t[4] = {10, 20, 30, 40};
fn inc(v) { return v + 1; }
fn look(j, e) { return t[j] / e; }
fn main() {
  #pragma begin_pf_sensitive
  a = inc(i);
  y = look(a, d);
  #pragma end_pf_sensitive
}
"""


# (steps, profile) per mode: in whole-function mode main's code is on
# page 2, inc's on 0, look's on 1 and t on 3; tree mode inlines the calls
TRAP_EXPECTED = {
    ("ast", "index-oob"): (5, [2, 0, 2]),
    ("ast", "div-zero"): (7, [2, 0, 2, 1, 3]),
    ("ast", None): (9, [2, 0, 2, 1, 3, 2]),
    ("tree", "index-oob"): (5, [0]),
    ("tree", "div-zero"): (7, [0, 1]),
    ("tree", None): (8, [0, 1]),
}


def _check_expanded_trace(traced, plain):
    """A traced run's events are numbered 0..n-1, one code fetch per
    recorded footprint, and replay to the untraced run's profile."""
    trace = traced.trace
    assert trace is traced.trace  # expanded once, then cached
    assert [ev.step for ev in trace] == list(range(len(trace)))
    fetches = sum(1 for ev in trace if ev.kind is EventKind.CODE_FETCH)
    assert fetches == len(traced.footprints)
    assert observe_profile(trace, AdversaryModel.pigeonhole()) == plain.profile


def test_expanded_trace_numbers_events_and_replays():
    for name, exe, secret in _trace_cases():
        plain = exe.run(secret=secret)
        _check_expanded_trace(exe.run(secret=secret, collect_trace=True), plain)
    exe = AstExecutable(parse(TRAP_AFTER_TAIL_RETURN))
    for public in ({"i": 3, "d": 1}, {"i": 1, "d": 0}):
        traced = exe.run(public=public, collect_trace=True)
        assert traced.trap is not None
        _check_expanded_trace(traced, exe.run(public=public))


def test_traced_results_compare_by_events_not_footprint_identity():
    program = parse(SPLIT_LOOKUP)
    first = AstExecutable(program).run(secret={"s": 5}, collect_trace=True)
    second = AstExecutable(program).run(secret={"s": 5}, collect_trace=True)
    assert first.footprints[0] is not second.footprints[0]
    first.trace  # expanding one side's trace does not change equality
    assert first == second
    assert first != AstExecutable(program).run(secret={"s": 5})
    assert first != AstExecutable(program).run(secret={"s": 1}, collect_trace=True)


@pytest.mark.parametrize("mode", ["ast", "tree"])
@pytest.mark.parametrize("public, kind", [
    ({"i": 3, "d": 1}, "index-oob"),
    ({"i": 1, "d": 0}, "div-zero"),
    ({"i": 1, "d": 3}, None),
])
def test_trap_in_callee_after_tail_return(mode, public, kind):
    program = parse(TRAP_AFTER_TAIL_RETURN)
    if mode == "ast":
        exe = AstExecutable(program)
    else:
        exe = TreeExecutable(balance(build_execution_tree(program)))
    result = exe.run(public=public, collect_trace=True)
    assert (result.steps, result.profile) == TRAP_EXPECTED[mode, kind]
    fetched = sum(1 for ev in result.trace if ev.kind is EventKind.CODE_FETCH)
    # an index-oob trap stops before its load steps, a div-zero trap after
    # its division: either way the trap step is the last step taken
    assert result.steps == fetched
    assert result.profile == observe_profile(result.trace, AdversaryModel.pigeonhole())
    assert result.profile == exe.run(public=public).profile
    if kind is None:
        assert result.trap is None
        assert result.outputs == {"y": 10}
    else:
        assert result.trap.kind == kind
        assert result.trap.step == result.steps


EARLY_RETURN = """
secret int<2> k;
output int y;
output int z;
fn f(v) {
  w = v + 2;
  if (v == 1) {
    return 10;
  }
  for (i = 0; i < 3; i = i + 1) {
    if (w == 5) {
      return 20 + i;
    }
    w = w + 1;
  }
  return w;
}
fn main() {
  y = f(k);
  #pragma begin_pf_sensitive
  if (k == 2) {
    z = y + 1;
  } else {
    z = y - 1;
  }
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("k", range(4))
def test_nested_early_return_agrees_across_modes(k):
    # f returns from inside an `if` and from inside a loop; tree mode runs
    # only the region, so it gets f's value as a public input
    program = parse(EARLY_RETURN)
    run = AstExecutable(program).run(secret={"k": k})
    # every return steps once, wherever it sits
    assert (run.steps, run.profile) == ({0: 30, 1: 11, 2: 21, 3: 15}[k], [1, 0, 1])
    vanilla = run.outputs
    converted, report = opt_if_convert(program)
    assert report.converted == 1
    o5 = AstExecutable(converted).run(secret={"k": k}).outputs
    region = parse(EARLY_RETURN.replace("output int y;", "public int y;")
                   .replace("  y = f(k);\n", ""))
    tree = TreeExecutable(balance(build_execution_tree(region)))
    expected_y = {0: 5, 1: 10, 2: 21, 3: 20}[k]
    assert vanilla == o5 == {"y": expected_y, "z": expected_y + (1 if k == 2 else -1)}
    assert tree.run(secret={"k": k}, public={"y": expected_y}).outputs["z"] == vanilla["z"]


@pytest.mark.parametrize("pages, strict, ok, escaped", [
    ({}, {2}, 6, 1),       # split table: the page-1 half escapes
    ({"t": 5}, {5}, 1, None),  # pinned to an allowed page
    ({"t": 5}, {1, 2}, None, 1),  # pinned to a page outside the set
])
def test_access_outside_strict_pages_is_an_error(pages, strict, ok, escaped):
    program = parse(SPLIT_LOOKUP)
    exe = AstExecutable(program)
    compiler = _OpCompiler(program, exe.objects, program.int_width, exe.lowered.alloc,
                           pages=pages, strict_pages=frozenset(strict))
    index_slot = compiler.decl_slots["s"]
    # the sequence runner charges a static access's step after its closure
    load = _sequence([compiler.compile(LoadI(0, "t", Reg(index_slot), "main"), 0)])

    def run(i):
        regs = compiler.regs0()
        regs[index_slot] = i
        st = State(regs, exe.objects.fresh_arrays(), Sink(True, False))
        load(st)
        return st

    if ok is not None:
        st = run(ok)
        assert st.regs[0] == 10 + ok and st.sink.steps == 1
    if escaped is not None:
        with pytest.raises(PfoError, match="escaped staging pages"):
            run(escaped)


# `main` starts 50 bytes into page 1, so its fifth instruction (byte 66)
# is the first on page 2 and no extent holds a whole number of words
UNALIGNED_CODE = """
#pragma page_size 64
#pragma place code main 1 50
secret int<4> k;
output int y;
fn main() {
  #pragma begin_pf_sensitive
  y = k + 1; y = y + 2; y = y + 3; y = y + 4; y = y + 5;
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("make", [
    AstExecutable,
    lambda program: TreeExecutable(balance(build_execution_tree(program))),
], ids=["ast", "tree"])
def test_instruction_page_is_the_page_of_its_first_byte(make):
    result = make(parse(UNALIGNED_CODE)).run(secret={"k": 1})
    assert result.outputs == {"y": 16}
    assert result.profile == [1, 2]
