import contextlib
import dataclasses
import functools
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pfo import interp, lang
from pfo.corpus import eddsa_full_source, make_table_cases
from pfo.exectree import balance, build_execution_tree
from pfo.interp import (
    AstExecutable, FootprintTable, ObjectTable, Sink, State, TrapInfo, TreeExecutable,
    _OpCompiler, _run, _segments,
)
from pfo.ir import LoadI, Reg
from pfo.lang import parse
from pfo.layouts import build_ast_layout
from pfo.leakage import SecretDomain
from pfo.memory import (
    AdversaryModel, EventKind, PageModelError, PfoError, observe_profile, page_of,
)
from pfo.optimize import (
    ALL_PASSES, build_defense, build_staged, opt_if_convert, opt_page_realign, opt_readonly_elim,
)
from pfo.suites import DEFENSE_CASES, EXHAUSTIVE_WIDTHS, RECORDED, case_source

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


def _fresh_image(exe):
    """The array image a new `ObjectTable` of `exe`'s program, layout and
    staging shadows computes, with the shadow of each array no block
    stores into built as that array's own list, as a staged build makes it."""
    objects = exe.objects
    shadows = {n: objects.lengths[i] for i, n in enumerate(objects.names)
               if n.startswith("__sa/")}
    image = ObjectTable(exe.program, exe.layout, shadows).image
    index = objects.index
    for shadow in shadows:
        source = shadow.removeprefix("__sa/")
        if source in index and source not in exe.tree.stored:
            image[index[shadow]] = image[index[source]]
    return image


def _three_executables(program):
    build = build_defense(program, ALL_PASSES)
    return [AstExecutable(program), TreeExecutable(build.tree), build.executable()]


@pytest.mark.parametrize("name", [*DEFENSE_CASES, "write_back"])
def test_runs_leave_the_array_image_alone(name):
    # a run copies the arrays some op writes and shares the others
    source = WRITE_BACK if name == "write_back" else \
        case_source(name, EXHAUSTIVE_WIDTHS[name])
    program = parse(source)
    for exe in _three_executables(program):
        runs = [exe.run(secret=_secrets(program, v)) for v in (1, 6)]
        image = exe.objects.image
        assert image == _fresh_image(exe)
        written = {exe.objects.names[i] for i in exe._frame.written}
        if name == "write_back":
            assert "t" in written
        for array, first in runs[0].store.items():
            second, i = runs[1].store[array], exe.objects.index[array]
            if array in written:
                assert first is not second
                assert first is not image[i] and second is not image[i]
            else:
                assert first is second is image[i]


# powm's plain tree at 16 bits takes seconds to build, and then its pinned
# `main` runs onto the page of its pinned table; at 4 bits every build fits
AGREEMENT_WIDTHS = {**EXHAUSTIVE_WIDTHS, "powm": 4}


@pytest.mark.parametrize("name", [*DEFENSE_CASES, "write_back"])
def test_staged_runs_agree_with_whole_function_and_tree_runs(name):
    # staged plain, under the recorded passes and under every pass: outputs
    # and every stored array agree with the whole-function and tree runs of
    # the build's program over seeded secrets that do not trap, and the
    # runs leave the image as a fresh one (a never-stored array's shadow
    # is that array's list)
    source = WRITE_BACK if name == "write_back" else \
        case_source(name, AGREEMENT_WIDTHS[name])
    program = parse(source)
    vanilla = AstExecutable(program)
    recorded = RECORDED.get(name, (("O1", "O2"), False))[0]
    for passes in ((), recorded, ALL_PASSES):
        build = build_defense(program, passes)
        exe = build.executable()
        references = (AstExecutable(build.program), TreeExecutable(build.tree))
        checked = 0
        for secret in SecretDomain.of(build.program).sample(24, seed=7):
            got = exe.run(secret=secret)
            if got.trap is not None:
                continue
            checked += 1
            assert got.outputs == vanilla.run(secret=secret).outputs, (passes, secret)
            for reference in references:
                want = reference.run(secret=secret)
                assert (got.outputs, got.store) == (want.outputs, want.store), \
                    (passes, secret)
        assert checked, passes
        assert exe.objects.image == _fresh_image(exe), passes


def _straight(n: int) -> str:
    return "\n".join(f"  y = y + {i % 7 + 1};" for i in range(n))


# `main` is one summarised segment of 229 ops, run by four generated
# functions of at most 64 ops.  For s = 3 the load traps in the second
# (op 80); for s = 1 the division traps in the third, and for s = 2 the
# division in `f`, whose merged call is an op of the third too.  `f` calls
# `g`, so it is no leaf: the call to it is one op
CHUNKED_TRAPS = f"""#pragma page_size 64
secret int<2> s;
output int y;
int a;
int t[4] = {{3, 5, 7, 11}};
fn g(v) {{ return v - 2; }}
fn f(v) {{ a = 100 / g(v); return a + 1; }}
fn main() {{
{_straight(40)}
  a = t[s + 1];
{_straight(30)}
  a = 9 / (s - 1);
  y = y + f(s);
{_straight(40)}
}}
"""
_CHUNKED_PROFILE = [2, 3, 4, 5, 6, 7, 17, 8, 9, 10, 11, 1, 0, 1, 11, 12, 13, 14, 15, 16]


_CHUNKED_RUNS = [
    (0, None, 236, 20, 376),
    (1, TrapInfo("div-zero", 145), 145, 11, 270),
    (2, TrapInfo("div-zero", 151), 151, 14, 270),
    (3, TrapInfo("index-oob", 81, "t[4]"), 81, 6, 155),
]


def _segment_functions(segments) -> list:
    """The functions of every `(functions, summary)` segment in `segments`."""
    return [f for functions, _ in segments for f in functions]


@contextlib.contextmanager
def _shape_cache():
    """Run the block with an empty cache of chunk code of its own; yields
    the mock of the code generator behind it, which counts the compiles."""
    generate = mock.Mock(wraps=interp._chunk_code.__wrapped__)
    cached = functools.lru_cache(maxsize=interp.MAX_SHAPES)(generate)
    with mock.patch.object(interp, "_chunk_code", cached):
        yield generate


@pytest.mark.parametrize("hot", [False, True])
@pytest.mark.parametrize("s, trap, steps, faults, y", _CHUNKED_RUNS)
def test_traps_across_chunks_step_and_fault_as_each_op_would(s, trap, steps, faults, y, hot):
    # the trap, steps and profile are those of charging each step as it
    # runs, as when every op was its own closure, whether the chunk shapes
    # are new to the process (each compiles as a build meets it) or an
    # earlier build compiled them all (the builds compile none); a build
    # that merges no call runs `main` as several segments and agrees, and
    # the tree, laid out anew and with its calls inlined, traps alike
    program = parse(CHUNKED_TRAPS)

    def builds():
        with mock.patch.object(interp, "NODE_BUDGET", 0):
            unmerged = AstExecutable(program)
        return (AstExecutable(program), unmerged,
                TreeExecutable(balance(build_execution_tree(program))))

    with _shape_cache() as generate:
        if hot:
            builds()
            generate.reset_mock()
        exe, unmerged, tree = builds()
        assert generate.call_count == (0 if hot else 11)
    ((functions, summary),) = exe._main.node[0]
    assert (len(functions), len(summary.charges)) == (4, 229)
    assert {f.__name__ for f in functions} == {"segment"}
    for got in (exe.run(secret={"s": s}), unmerged.run(secret={"s": s})):
        assert (got.trap, got.steps, got.profile, got.outputs["y"]) == \
            (trap, steps, _CHUNKED_PROFILE[:faults], y)
    traced = exe.run(secret={"s": s}, collect_trace=True)
    assert (len(traced.footprints), traced.profile) == (steps, _CHUNKED_PROFILE[:faults])
    got = tree.run(secret={"s": s})
    assert (got.trap and got.trap.kind, got.outputs) == (trap and trap.kind, {"y": y})


def test_chunks_run_alike_past_the_shape_cache_bound():
    # `CHUNKED_TRAPS`'s `main` has four chunk shapes; with room for two,
    # shapes are dropped and compiled again as the build goes, and every
    # run still steps, faults and traps as each op would.  Every segment
    # of a tree and of a staged build runs generated functions only
    program = parse(CHUNKED_TRAPS)
    bounded = functools.lru_cache(maxsize=2)(interp._chunk_code.__wrapped__)
    with mock.patch.object(interp, "_chunk_code", bounded):
        exe = AstExecutable(program)
        ((functions, _),) = exe._main.node[0]
        assert len({f.__code__ for f in functions}) == 4
        assert bounded.cache_info().currsize == 2
        for s, trap, steps, faults, y in _CHUNKED_RUNS:
            got = exe.run(secret={"s": s})
            assert (got.trap, got.steps, got.profile, got.outputs["y"]) == \
                (trap, steps, _CHUNKED_PROFILE[:faults], y)
        assert bounded.cache_info().currsize == 2
        tree = TreeExecutable(balance(build_execution_tree(program)))
        staged = build_staged(program, 4096).executable()
        for built in (tree, staged):
            names = {f.__name__ for segments in built.segments.values()
                     for f in _segment_functions(segments)}
            assert names == {"segment"}, built
        assert bounded.cache_info().currsize == 2


@pytest.mark.parametrize("hot", [False, True])
def test_operators_at_the_largest_width_build_and_run(hot):
    # the largest declaration makes the widest program; its width's
    # constants are far past the digits Python writes as a decimal.  Its
    # builds compile its chunk shapes, or none when an earlier build did
    program = parse(f"""public int<{lang.MAX_INT_WIDTH}> w;
output int y;
output int z;
fn main() {{
  y = (w + 1) * 3 - w / 7 + w % 5;
  z = -(w << 9) - (w >> 2);
}}
""")
    width = program.int_width
    sign = 1 << (width - 1)

    def wrap(v):
        return ((v + sign) & ((1 << width) - 1)) - sign

    w = (1 << lang.MAX_INT_WIDTH) - 12345
    want = {"y": wrap(wrap(wrap(wrap(w + 1) * 3) - w // 7) + w % 5),
            "z": wrap(wrap(-wrap(w << 9)) - (w >> 2))}

    def builds():
        return AstExecutable(program), TreeExecutable(balance(build_execution_tree(program)))

    with _shape_cache() as generate:
        if hot:
            builds()
            generate.reset_mock()
        built = builds()
        assert (generate.call_count == 0) == hot
    for exe in built:
        got = exe.run(public={"w": w})
        assert (got.trap, got.outputs) == (None, want)


@pytest.mark.parametrize("split", [False, True], ids=["static", "split"])
@pytest.mark.parametrize("w, detail", [
    (1 << 20000, f"t[{1 << 20000:#x}]"),
    (10 ** 4300 - 1, f"t[{10 ** 4300 - 1}]"),
], ids=["huge", "most-digits"])
def test_an_index_of_any_size_traps(w, detail, split):
    # Python writes no integer of more than 4300 decimal digits in decimal,
    # so a trap writes such an index in hexadecimal, from an access inlined
    # in a segment and from one into a table split across pages
    program = parse(("#pragma page_size 32\n#pragma place data t 1 16\n" if split else "")
                    + "public int<65536> w;\nint t[8];\noutput int y;\n"
                    "fn main() {\n  y = t[w];\n}\n")
    for exe in (AstExecutable(program), build_staged(program)):
        trap = exe.run(public={"w": w}).trap
        assert (trap.kind, trap.detail) == ("index-oob", detail)


def test_staged_full_eddsa_compiles_each_shape_once():
    # the 432 distinct segments of the staged full EdDSA share 13 chunk
    # shapes.  With no shape compiled before, its first compile compiles
    # each of them once; a second compile of the build in the process, and
    # its runs, compile nothing
    program, _ = opt_if_convert(parse(eddsa_full_source()))
    build = build_staged(program)
    with _shape_cache() as generate:
        exe = build.executable()
        shapes = [shape for (shape,), _ in generate.call_args_list]
        assert len(shapes) == len(set(shapes)) == 13
        again = dataclasses.replace(build, _exe=None).executable()
        for k in range(3):
            assert exe.run(secret={"k": k}).trap is None
        assert again is not exe and generate.call_count == 13
        codes = {f.__code__ for segments in again.segments.values()
                 for f in _segment_functions(segments)}
        assert len(codes) == 13


INPUTS = """
#pragma page_size 64
secret int<2> s;
public int<3> p = 5;
output int y;
int t[4] = {1, 2, 3, 4};
fn main() {
  #pragma begin_pf_sensitive
  y = t[s] + p;
  t[s] = p;
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("secret, public, error", [
    ({}, None, "secret 's' not bound"),
    ({"s": 1, "q": 2, "a": 0}, None, "unknown secret inputs: ['a', 'q']"),
    ({"s": 1}, {"p": 2, "s": 1}, "unknown public inputs: ['s']"),
    ({"s": 4}, None, "secret 's' must be in [0, 2^2), got 4"),
    ({"s": 1}, {"p": -1}, "public 'p' must be in [0, 2^3), got -1"),
    ({"s": 1 << 20000}, None, f"secret 's' must be in [0, 2^2), got {1 << 20000:#x}"),
])
def test_run_input_errors(secret, public, error):
    given = (dict(secret), public and dict(public))
    for exe in _three_executables(parse(INPUTS)):
        with pytest.raises(PfoError, match=re.escape(error)):
            exe.run(secret=secret, public=public)
        # the caller's dicts are read, not changed
        assert (secret, public) == given
        assert exe.run(secret={"s": 2}).outputs == {"y": 8}
        assert exe.run(secret={"s": 2}, public={"p": 0}).outputs == {"y": 3}


def test_initializers_wrap_to_program_width():
    program = parse("""
    output int y;
    int t[4] = {(1 << 64) + 5, 1 << 63, -1};
    fn main() { y = t[0]; }
    """)
    result = AstExecutable(program).run()
    # 1 << 64 shifts by 64 mod 64 bits, as it would in `main`
    assert result.outputs == {"y": 6}
    assert result.store["t"] == [6, -(1 << 63), -1, 0]


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


# `twice` calls `quot` at two sites; the second one divides by s - 1, so
# s = 1 traps div-zero two calls deep, in the middle of straight-line code
DIV_AT_SECOND_SITE = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[4] = {10, 20, 30, 40};
fn quot(a, b) { c = a + t[0]; return c / b; }
fn twice(a, b) { u = quot(a, 1); v = quot(u, b); return u + v; }
fn main() {
  y = s + 1;
  y = twice(y, s - 1) + quot(y, 2);
  y = y + t[s];
}
"""

# the second call to `look` in `twice` reads t[1 + s + 1]: out of bounds
# from s = 2 on
OOB_AT_SECOND_SITE = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[4] = {10, 20, 30, 40};
fn look(j) { return t[j] + 1; }
fn twice(a, b) { u = look(a); v = look(a + b); return u + v; }
fn main() {
  y = s;
  y = twice(1, s + 1) + y;
}
"""

# `put` has no `return`, so its value is 0
VALUELESS_CALL = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[4];
fn put(v) { t[v] = v + 5; }
fn main() {
  y = put(s) + s;
  y = y + t[s];
}
"""

# each `x = a op b` is an op and the move of its result: s = 1 traps on the
# `/` and s = 2 on the `%` of such a pair, s = 3 on the quotient that a
# negation and its move then take; s = 0 does not trap.  In `main`, then in
# a callee whose call is summarised
FUSED_TRAPS_MAIN = """
#pragma page_size 128
secret int<2> s;
output int y;
int a;
int t[4] = {10, 20, 30, 40};
fn main() {
  #pragma begin_pf_sensitive
  y = t[s] + 1;
  a = 100 / (s - 1);
  y = y + a;
  a = 7 % (s - 2);
  y = y + a;
  a = -(100 / (s - 3));
  y = y + a;
  #pragma end_pf_sensitive
}
"""

FUSED_TRAPS_CALLEE = """
#pragma page_size 128
secret int<2> s;
output int y;
int t[4] = {10, 20, 30, 40};
fn q(v) { a = 100 / (v - 1); b = 7 % (v - 2); c = -(100 / (v - 3)); return a + b + c; }
fn main() {
  #pragma begin_pf_sensitive
  y = t[s] + 1;
  y = q(s) + y;
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
    compiler = _OpCompiler(program, exe.objects, exe.lowered.alloc,
                           pages=pages, strict_pages=frozenset(strict))
    index_slot = compiler.decl_slots["s"]
    # the segment runner charges a static access's step after its closure
    ops = compiler.compile_run([LoadI(0, "t", Reg(index_slot), "main")], [0])
    load = (_segments(ops, {}), None)

    def run(i):
        regs = compiler.regs0()
        regs[index_slot] = i
        st = State(regs, [arr[:] for arr in exe.objects.image], Sink(True, False))
        _run(st, load)
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


# `t` starts 6 bytes before the end of page 1: its word 1 starts at byte
# 62, so it is on page 1 with word 0, and words 2 and 3 are on page 2
UNALIGNED_TABLE = """
#pragma page_size 64
#pragma place data t 1 -6
secret int<2> s;
int t[4] = {1, 2, 3, 4};
output int y;
fn main() {
  #pragma begin_pf_sensitive
  y = t[s];
  #pragma end_pf_sensitive
}
"""


@pytest.mark.parametrize("make", [
    AstExecutable,
    lambda program: TreeExecutable(balance(build_execution_tree(program))),
], ids=["ast", "tree"])
def test_array_word_is_on_the_page_of_its_first_byte(make):
    exe = make(parse(UNALIGNED_TABLE))
    assert page_of(exe.layout, "t", 4) == 1
    runs = [exe.run(secret={"s": s}) for s in range(4)]
    assert [r.outputs["y"] for r in runs] == [1, 2, 3, 4]
    assert [r.profile for r in runs] == [[0, 1], [0, 1], [0, 2], [0, 2]]


def test_footprint_over_page_limit_rejected_when_interned():
    table = FootprintTable()
    reads = (EventKind.DATA_READ,) * 3
    assert table(0, (1, 2), reads[:2]).need == (0, 1, 2)
    with pytest.raises(PageModelError, match="needs 4 pages"):
        table(0, (1, 2, 3), reads)


# --- whole-call summaries against step-by-step charging -----------------------

def _callee_expr(draw, i: int, depth: int) -> str:
    """An expression for the body of f{i}: its parameters and local, the
    secret, constants, arithmetic, divisions and table reads that may
    trap, and calls to earlier functions."""
    leaves = ["a", "b", "c", "s", "1", "2", "5"]
    kinds = ["leaf"] if depth == 0 else ["leaf", "bin", "div", "read", "wide"] \
        + (["call"] if i else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    sub = lambda: _callee_expr(draw, i, depth - 1)  # noqa: E731
    if kind == "bin":
        return f"({sub()} {draw(st.sampled_from(['+', '-', '*', '&']))} {sub()})"
    if kind == "div":
        return f"({sub()} {draw(st.sampled_from(['/', '%']))} {sub()})"
    if kind == "read":  # t has 4 words: half of these indices are out of bounds
        return f"t[({sub()}) & 7]"
    if kind == "wide":  # u spans two pages: its reads account for themselves
        return f"u[({sub()}) & 7]"
    j = draw(st.integers(0, i - 1))
    return f"f{j}({sub()}, {sub()})"


@st.composite
def call_chains(draw) -> str:
    """A program whose functions f0 .. f{n-1} are branch-free, each calling
    only earlier ones, and a `main` that calls them in straight-line code,
    from a loop and under secret `if`s."""
    n = draw(st.integers(1, 4))
    lines = ["#pragma page_size 32", "secret int<2> s;", "output int y;", "output int z;",
             "int t[4] = {3, 0, 7, 2};", "int u[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9};"]
    for i in range(n):
        body = []
        for _ in range(draw(st.integers(1, 3))):
            target = draw(st.sampled_from(["c", "b", "z", "t[(a) & 3]"]))
            body.append(f"{target} = {_callee_expr(draw, i, 2)};")
        if draw(st.booleans()):
            body.append(f"return {_callee_expr(draw, i, 1)};")
        lines.append(f"fn f{i}(a, b) {{ {' '.join(body)} }}")

    def call() -> str:
        return f"f{draw(st.integers(0, n - 1))}({draw(st.sampled_from(['s', 'y', 'i', '1']))}, " \
               f"{draw(st.sampled_from(['s', 'y', 'z', '0']))})"

    main = ["y = 0;", "i = 0;"]
    for _ in range(draw(st.integers(1, 4))):
        form = draw(st.sampled_from(["plain", "loop", "if"]))
        if form == "plain":
            main.append(f"y = y + {call()};")
        elif form == "loop":
            trips = draw(st.integers(1, 3))
            main.append(f"for (i = 0; i < {trips}; i = i + 1) {{ z = z + {call()}; }}")
        else:
            main.append(f"if (s == {draw(st.integers(0, 3))}) {{ y = {call()}; }} "
                        f"else {{ z = {call()} + 1; }}")
    lines.append("fn main() {\n  " + "\n  ".join(main) + "\n}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(call_chains())
def test_summarised_calls_charge_as_each_step_would(source):
    program = parse(source)
    exe = AstExecutable(program)
    # with no budget for them, no call is summarised: each call steps, then
    # runs its callee's segments.  A small budget summarises the smallest
    # callees and merges calls to them only until it runs out
    with mock.patch.object(interp, "NODE_BUDGET", 0):
        unsummarised = AstExecutable(program)
    with mock.patch.object(interp, "NODE_BUDGET", 12):
        partly = AstExecutable(program)
    assert not any(b.segment for b in unsummarised._bodies.values())
    tree = TreeExecutable(balance(build_execution_tree(program)))
    for s in range(4):
        for model in (AdversaryModel.pigeonhole(), AdversaryModel.infinite_memory()):
            plain = exe.run(secret={"s": s}, model=model)
            traced = exe.run(secret={"s": s}, model=model, collect_trace=True)
            assert plain.profile == traced.profile
            assert (plain.steps, plain.outputs, plain.trap) == \
                   (traced.steps, traced.outputs, traced.trap)
            assert plain.profile == observe_profile(traced.trace, model)
            assert len(traced.footprints) == traced.steps
            if plain.trap is not None:
                assert plain.trap.step == plain.steps
            reference = unsummarised.run(secret={"s": s}, model=model, collect_trace=True)
            assert traced.to_json_dict() == reference.to_json_dict()
            assert partly.run(secret={"s": s}, model=model, collect_trace=True
                              ).to_json_dict() == reference.to_json_dict()
        other = tree.run(secret={"s": s})
        assert (plain.outputs, plain.trap and plain.trap.kind) == \
               (other.outputs, other.trap and other.trap.kind)


# --- calls to leaf callees, compiled in place ----------------------------------

# `q` is a leaf callee: straight-line, no call, no write to its parameter
# and no local read before it is written.  Called from an `if` arm inside a
# `for`, it divides by zero (s = 1 on the third trip, s = 2 on the second,
# s = 3 on the first) or reads t[4]
LEAF_TRAP = """
#pragma page_size 32
secret int<2> s;
output int y;
int t[4] = {3, 5, 7, 11};
fn q(v) { BODY }
fn main() {
  y = 0;
  for (i = 0; i < 3; i = i + 1) {
    if (s != 0) {
      y = y + q(s + i);
    } else {
      y = y - 1;
    }
  }
}
"""

# (trap, steps, profile) by secret: main's code is on page 1, the else
# arm's on page 2, q's on page 0 and t on page 3
LEAF_TRAP_EXPECTED = {
    "c = 12 / (3 - v); return c + v;": {
        1: (TrapInfo("div-zero", 34), [1, 0, 1, 2, 1, 0, 1, 2, 1, 0]),
        2: (TrapInfo("div-zero", 21), [1, 0, 1, 2, 1, 0]),
        3: (TrapInfo("div-zero", 8), [1, 0]),
    },
    "return t[v + 1] + v;": {
        1: (TrapInfo("index-oob", 31, "t[4]"), [1, 0, 3, 1, 2, 1, 0, 3, 1, 2, 1, 0]),
        2: (TrapInfo("index-oob", 19, "t[4]"), [1, 0, 3, 1, 2, 1, 0]),
        3: (TrapInfo("index-oob", 7, "t[4]"), [1, 0]),
    },
}


@pytest.mark.parametrize("body", LEAF_TRAP_EXPECTED, ids=["div-zero", "index-oob"])
def test_leaf_callee_traps_in_place(body):
    program = parse(LEAF_TRAP.replace("BODY", body))
    exe = AstExecutable(program)
    assert "q" not in exe._bodies  # compiled in place only
    with mock.patch.object(interp, "NODE_BUDGET", 0):
        stepped = AstExecutable(program)  # every call steps, then runs q
    for s in range(4):
        result = exe.run(secret={"s": s}, collect_trace=True)
        assert len(result.footprints) == result.steps
        if s == 0:
            assert (result.trap, result.steps, result.profile) == (None, 20, [1, 2] * 3)
        else:
            trap, profile = LEAF_TRAP_EXPECTED[body][s]
            assert (result.trap, result.steps, result.profile) == (trap, trap.step, profile)
        assert result.to_json_dict() == \
            stepped.run(secret={"s": s}, collect_trace=True).to_json_dict()


@pytest.mark.parametrize("source, outputs, callee, in_place", [
    # `f` writes its parameter: the caller's `x` is unchanged
    ("fn f(a) { a = a + 1; return a; }\n"
     "fn main() { x = s; y = f(x); y = y + f(x); z = x; }",
     lambda s: {"y": 2 * (s + 1), "z": s}, "f", False),
    # `g` reads `c` before writing it: `c` starts at 0 on every call
    ("fn g(v) { c = c + v; return c; }\n"
     "fn main() { y = g(s); y = y + g(s); for (i = 0; i < 2; i = i + 1) { z = z + g(1); } }",
     lambda s: {"y": 2 * s, "z": 2}, "g", False),
    # `h` writes the global its argument names: the parameter is the
    # value `w` had at the call
    ("int w = 4;\nfn h(a) { w = a + 1; return a; }\n"
     "fn main() { y = h(w); z = h(w) + w; }",
     lambda s: {"y": 4, "z": 11}, "h", False),
    # `k` is a leaf callee: each call reads its parameters from the
    # arguments' slots
    ("fn k(a, b) { c = a * 3; return c - b; }\n"
     "fn main() { y = k(s, 1); z = k(y, s) + k(2, 2); }",
     lambda s: {"y": 3 * s - 1, "z": 3 * (3 * s - 1) - s + 4}, "k", True),
], ids=["writes-parameter", "reads-local-first", "writes-argument", "leaf"])
def test_calls_bind_and_reset_as_each_call_would(source, outputs, callee, in_place):
    program = parse(f"secret int<2> s;\noutput int y;\noutput int z;\n{source}\n")
    exe = AstExecutable(program)
    with mock.patch.object(interp, "NODE_BUDGET", 0):
        stepped = AstExecutable(program)
    for s in range(4):
        result = exe.run(secret={"s": s}, collect_trace=True)
        assert result.outputs == outputs(s)
        assert len(result.footprints) == result.steps
        assert result.to_json_dict() == \
            stepped.run(secret={"s": s}, collect_trace=True).to_json_dict()
    # a call compiled in place never compiles its callee's own body
    assert (callee not in exe._bodies) == in_place


# the `if` at line 7 has arms that fault differently, and a `while`
# follows it at line 12: the witness names the first in program order
IF_THEN_WHILE = """
#pragma page_size 64
secret int<2> s;
output int y;
int t[16];
fn main() {
  if (s == 1) {
    y = t[s];
  } else {
    y = 2;
  }
  while (y > 0) bound 4 {
    y = y - 1;
  }
}
"""


def test_witness_names_the_first_construct_in_program_order():
    assert AstExecutable(parse(IF_THEN_WHILE)).witness == \
        "`if` at line 7: its arms fault differently"
