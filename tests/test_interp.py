import pytest

from pfo.exectree import balance, build_execution_tree
from pfo.interp import AstExecutable, TreeExecutable, simulate
from pfo.lang import parse
from pfo.layouts import build_ast_layout
from pfo.memory import AdversaryModel, EventKind, observe_profile

from test_lang import FOO_SOURCE

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
        program = parse(SPLIT_LOOKUP)
        exe = AstExecutable(program)
        result = exe.run(secret={"s": 5}, collect_trace=True)
        replayed = observe_profile(result.trace, AdversaryModel.pigeonhole())
        assert replayed == result.profile

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
