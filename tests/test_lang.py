import dataclasses
import json
import time
import tracemalloc
import typing
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pfo import lang
from pfo.cli import main
from pfo.interp import AstExecutable
from pfo.lang import (
    Assign,
    Binary,
    CallStmt,
    DeclKind,
    Expr,
    For,
    If,
    Index,
    Num,
    ParseError,
    RegionMarker,
    Stmt,
    Ternary,
    Unary,
    Var,
    While,
    children,
    map_ast,
    parse,
    pretty,
    walk_all,
)

FOO_SOURCE = """
secret int<8> x;
secret int<8> y;
output int w;

fn path_a() {
  return 1;
}

fn path_b() {
  t = 0;
  for (j = 0; j < 2; j = j + 1) {
    t = t + 2;
  }
  return t;
}

fn path_c() {
  t = 0;
  for (j = 0; j < 2; j = j + 1) {
    t = t + 3;
  }
  return t;
}

fn main() {
  #pragma begin_pf_sensitive
  z = 2 * y;
  if (z != x) {
    if (z < x + 10) {
      w = path_c();
    } else {
      w = path_b();
    }
  } else {
    w = path_a();
  }
  #pragma end_pf_sensitive
}
"""


def leaf_paths(stmts):
    """Count distinct branch outcomes through a statement list (AST level)."""
    paths = 1
    for s in stmts:
        if isinstance(s, If):
            paths *= leaf_paths(s.then_body) + leaf_paths(s.else_body or ())
    return paths


class TestParse:
    def test_nested_if_else_has_three_leaf_paths(self):
        program = parse(FOO_SOURCE)
        assert leaf_paths(program.function("main").body) == 3

    def test_counted_loop_bound_derived(self):
        program = parse("""
        int a[4];
        output int s;
        fn main() {
          s = 0;
          for (i = 0; i < 4; i = i + 1) {
            s = s + a[i];
          }
        }
        """)
        loop = program.function("main").body[1]
        assert isinstance(loop, For)
        assert loop.trips == 4

    def test_downward_loop_bound_derived(self):
        program = parse("""
        fn main() {
          for (i = 11; i >= 0; i = i - 1) {
            x = i;
          }
        }
        """)
        assert program.function("main").body[0].trips == 12

    def test_do_while_runs_its_body_once(self):
        program = parse("fn main() { do { x = 1; } while (0); }")
        assert program.function("main").body[0].bound == 1
        with pytest.raises(ParseError, match="at least 1") as err:
            parse("fn main() {\n  do { x = 1; } while (x) bound 0;\n}")
        assert err.value.line == 2

    @pytest.mark.parametrize("source, line", [
        ("int __pad[2] = {7, 9};\nfn main() { }", 1),
        ("output int y;\nfn main() {\n  __sa_t = 1; y = __sa_t;\n}", 3),
        ("fn __padding() { }\nfn main() { }", 1),
    ])
    def test_staging_names_reserved(self, source, line):
        with pytest.raises(ParseError, match="reserved") as err:
            parse(source)
        assert err.value.line == line

    def test_unbounded_while_rejected(self):
        with pytest.raises(ParseError, match="unbounded loop"):
            parse("""
            public int x;
            fn main() {
              while (x) {
                x = x - 1;
              }
            }
            """)

    def test_bounded_while_accepted(self):
        program = parse("""
        public int x;
        fn main() {
          while (x != 0) bound 16 {
            x = x >> 1;
          }
        }
        """)
        loop = program.function("main").body[0]
        assert isinstance(loop, While) and loop.bound == 16

    def test_do_while_with_bound(self):
        program = parse("""
        public int x;
        fn main() {
          do {
            x = x - 1;
          } while (x != 0) bound 8;
        }
        """)
        loop = program.function("main").body[0]
        assert loop.do_first and loop.bound == 8

    def test_recursion_rejected(self):
        with pytest.raises(ParseError, match="recursion"):
            parse("""
            fn f(n) { return f(n - 1); }
            fn main() { x = f(3); }
            """)

    def test_pointer_operator_rejected(self):
        with pytest.raises(ParseError, match="pointer"):
            parse("fn main() { x = &y; }")

    def test_missing_main_rejected(self):
        with pytest.raises(ParseError, match="main"):
            parse("fn helper() { return 0; }")

    @pytest.mark.parametrize("decl, name", [
        ("int t[1099511627776];", "'t'"),
        ("int t[1048577];", "'t'"),
        ("public int<100000000000> w;", "'w'"),
        ("secret int<65537> w;", "'w'"),
    ])
    def test_huge_declaration_rejected(self, decl, name, tmp_path, capsys):
        source = decl + "\noutput int y;\nfn main() { y = 1; }\n"
        with pytest.raises(ParseError, match=f"{name} .* at most"):
            parse(source)
        path = tmp_path / "huge.pfo"
        path.write_text(source)
        assert main(["parse", str(path)]) == 2
        assert name in capsys.readouterr().err

    # each program nests `n` levels deep in one way, from line 4
    NESTED = {
        "parens": lambda n: "y = " + "(" * (n - 1) + "1" + ")" * (n - 1) + ";",
        "sum": lambda n: "y = " + " + ".join(["1"] * n) + ";",
        "ifs": lambda n: "\n".join(["if (p) {"] * (n - 1) + ["y = 1;"] + ["}"] * (n - 1)),
        "calls": lambda n: f"y = f{n - 1}(p);\n}}\nfn f0(v) {{ return v; "
                           + "".join(f"}}\nfn f{i}(v) {{ return f{i - 1}(v) + 1; "
                                     for i in range(1, n)),
    }

    @pytest.mark.parametrize("kind, cap, line", [
        ("parens", lang.MAX_EXPR_DEPTH, 4),
        ("sum", lang.MAX_EXPR_DEPTH, 4),
        ("ifs", lang.MAX_STMT_DEPTH, 3 + lang.MAX_STMT_DEPTH + 1),
        ("calls", lang.MAX_CALL_DEPTH, 3),
    ])
    def test_nesting_capped(self, kind, cap, line, tmp_path, capsys):
        path = tmp_path / "nest.pfo"
        for depth in (cap, cap + 1):
            path.write_text("public int p;\noutput int y;\nfn main() {\n"
                            + self.NESTED[kind](depth) + "\n}\n")
            code = main(["simulate", "--program", str(path), "--public", "p=1"])
            out, err = capsys.readouterr()
            if depth == cap:
                assert code == 0, err
                assert '"trap": null' in out
            else:
                assert code == 2
                assert err.startswith(f"{path}:{line}:")
                assert f"more than {cap} levels deep" in err

    # 63 chained functions, each within every cap, whose nesting adds up
    # along the chain: 20 nested `if`s around each call, or each call
    # under a sum of 60 ones that tree mode substitutes into the caller
    CHAINED = {
        "ifs": lambda i: "if (a) { " * 19 + f"r = f{i - 1}(a) + 1;" + " }" * 19 + " return r;",
        "sum": lambda i: f"return f{i - 1}(a)" + " + 1" * 60 + ";",
    }

    @staticmethod
    def chain_source(body, n=63, tail="", region="y = f62(s);") -> str:
        """f0 returns its argument, f1 ... f{n-1} have `body(i)`, then `tail`
        and a `main` running `region`."""
        return ("secret int<2> s;\noutput int y;\nfn f0(a) { return a; }\n"
                + "".join(f"fn f{i}(a) {{ {body(i)} }}\n" for i in range(1, n)) + tail
                + f"fn main() {{\n  #pragma begin_pf_sensitive\n  {region}\n"
                  "  #pragma end_pf_sensitive\n}\n")

    @pytest.mark.parametrize("kind, message", [
        ("ifs", "7:1: statements in 'f4' nest more than 64 levels deep"),
        ("sum", "5:1: expressions in 'f2' nest more than 64 levels deep"),
    ])
    def test_nesting_adds_up_along_call_chains(self, kind, message, tmp_path, capsys):
        path = tmp_path / "chain.pfo"
        path.write_text(self.chain_source(self.CHAINED[kind]))
        for argv in (["parse", str(path)],
                     ["simulate", "--program", str(path), "--secret", "s=1"],
                     ["simulate", "--transformed", "--program", str(path), "--secret", "s=1"],
                     ["analyze", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"{path}:{message} once its calls "
                                                      "are inlined"), argv

    def test_every_cap_at_once(self, tmp_path, capsys):
        # calls from `main` nest 64 deep; inlined, each call adds a statement
        # level (it sits in a loop) and an expression level (under a `+`),
        # so both reach their cap too, as `p`'s expression and `g`'s
        # statements do on their own.  One-trip loops nest statements
        # without copying what follows them into two arms of the tree
        once = "for (j = 0; j < 1; j = j + 1) { "
        tail = ("fn p(a) { return " + "~" * 63 + "a; }\n"
                "fn g(a) { r = 0; " + once * 62 + "if (a < 2) { r = r + 1; }" + " }" * 62
                + " return r; }\n")
        path = tmp_path / "caps.pfo"
        path.write_text(self.chain_source(
            lambda i: f"r = 0; {once}r = f{i - 1}(a) + 1; }} return r;", n=64,
            tail=tail, region="y = f63(s); z = p(s); w = g(s);")
            .replace("output int y;", "output int y;\noutput int z;\noutput int w;"))
        for flag in ([], ["--transformed"]):
            code = main(["simulate", *flag, "--program", str(path), "--secret", "s=1"])
            out, err = capsys.readouterr()
            assert code == 0, err
            assert json.loads(out)["outputs"] == {"y": 64, "z": -2, "w": 1}
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()

    @staticmethod
    def doubling_source(n: int, extra: int) -> str:
        """f0 .. f{n-1}, each but f0 calling the one before twice, and a
        `main` that calls f{n-1} once and f0 `extra` times."""
        return ("secret int<2> s;\noutput int y;\nfn f0() { }\n"
                + "".join(f"fn f{i}() {{ f{i - 1}(); f{i - 1}(); }}\n" for i in range(1, n))
                + f"fn main() {{\n  f{n - 1}();\n" + "  f0();\n" * extra
                + "  y = s + 1;\n}\n")

    def test_calls_at_the_cap_run(self, tmp_path, capsys):
        # f19 makes 2^20 - 2 calls, so `main` makes exactly MAX_CALLS
        assert lang.MAX_CALLS == 1 << 20
        source = self.doubling_source(20, 1)
        path = tmp_path / "calls.pfo"
        path.write_text(source)
        for argv in (["parse", str(path)],
                     ["simulate", "--program", str(path), "--secret", "s=1"],
                     ["analyze", str(path)]):
            assert main(argv) == 0, capsys.readouterr().err
            out = capsys.readouterr().out
            if argv[0] == "simulate":  # each call steps once, then y = s + 1
                result = json.loads(out)
                assert (result["steps"], result["outputs"]) == ((1 << 20) + 2, {"y": 2})
        # summaries never expand the call tree
        program = parse(source)
        tracemalloc.start()
        start = time.process_time()
        AstExecutable(program)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 2 and peak < 200 << 20, (elapsed, peak)

    @pytest.mark.parametrize("n, extra, message", [
        (20, 2, "23:1: 'main' makes more than 1048576 calls"),
        (41, 0, "23:1: 'f20' makes more than 1048576 calls"),
    ])
    def test_calls_past_the_cap_rejected(self, n, extra, message, tmp_path, capsys):
        path = tmp_path / "calls.pfo"
        path.write_text(self.doubling_source(n, extra))
        for argv in (["parse", str(path)],
                     ["simulate", "--program", str(path), "--secret", "s=1"],
                     ["analyze", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"{path}:{message} once its calls "
                                                      "are inlined"), argv

    @pytest.mark.parametrize("before, after", [
        ("int x = 7;\n", ""), ("", "int x = 7;\n"),
    ], ids=["declared-before", "declared-after"])
    def test_parameter_named_like_a_global_rejected(self, before, after, tmp_path, capsys):
        path = tmp_path / "param.pfo"
        path.write_text(f"{before}secret int<2> s;\noutput int y;\noutput int z;\n"
                        f"fn f(a, x) {{ return x + 1; }}\n{after}"
                        "fn main() { y = f(0, s); z = x; }\n")
        line = 5 if before else 4
        for argv in (["parse", str(path)],
                     ["simulate", "--program", str(path), "--secret", "s=2"],
                     ["simulate", "--transformed", "--program", str(path), "--secret", "s=2"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(
                f"{path}:{line}:9: parameter 'x' of 'f' has the name of a global"), argv

    def test_largest_declarations_accepted(self):
        program = parse(f"int t[{lang.MAX_ARRAY_WORDS}];\n"
                        f"public int<{lang.MAX_INT_WIDTH}> w;\nfn main() {{ }}\n")
        assert [d.array_len or d.width for d in program.decls] == \
               [lang.MAX_ARRAY_WORDS, lang.MAX_INT_WIDTH]

    @pytest.mark.parametrize("literal", ["08", "0123"])
    def test_malformed_number_rejected(self, literal):
        with pytest.raises(ParseError, match="malformed number"):
            parse(f"fn main() {{\n  x = {literal};\n}}")

    def test_syntax_error_carries_location(self):
        with pytest.raises(ParseError) as info:
            parse("fn main() {\n  x = ;\n}")
        assert info.value.line == 2
        assert "expected expression" in info.value.msg

    def test_region_markers_kept_as_statements(self):
        program = parse(FOO_SOURCE)
        body = program.function("main").body
        assert isinstance(body[0], RegionMarker) and body[0].begin
        assert isinstance(body[-1], RegionMarker) and not body[-1].begin

    def test_unbalanced_region_rejected(self):
        with pytest.raises(ParseError, match="region"):
            parse("""
            fn main() {
              #pragma begin_pf_sensitive
              x = 1;
            }
            """)

    @pytest.mark.parametrize("body, line", [
        ("  if (s == 1) {\n    #pragma begin_pf_sensitive\n    y = t[s];\n  }\n", 6),
        ("  if (s == 1) {\n    y = 1;\n  } else {\n    #pragma begin_pf_sensitive\n"
         "    y = t[s];\n  }\n", 8),
        ("  #pragma begin_pf_sensitive\n  for (i = 0; i < 2; i = i + 1) {\n"
         "    y = y + t[s];\n    #pragma end_pf_sensitive\n  }\n", 8),
    ], ids=["then-arm-opens", "else-arm-opens", "loop-body-closes"])
    def test_region_open_across_a_block_rejected(self, body, line, tmp_path, capsys):
        path = tmp_path / "region.pfo"
        path.write_text(f"secret int<2> s;\noutput int y;\nint t[4];\nfn main() {{\n{body}}}\n")
        for argv in (["parse", str(path)], ["analyze", str(path)],
                     ["transform", str(path), "-o", str(tmp_path / "out.pfo")]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(
                f"{path}:{line}:5: a sensitive-region marker must sit at the top level "
                "of `main`"), argv

    def test_region_inside_one_arm_rejected(self, tmp_path, capsys):
        # a pair nested in an arm used to parse, and tree mode then took all
        # of `main` as the region; it is rejected at the marker now
        path = tmp_path / "region.pfo"
        path.write_text("secret int<2> s;\noutput int y;\nfn main() {\n  y = 1;\n"
                        "  if (s == 1) {\n    #pragma begin_pf_sensitive\n    y = s;\n"
                        "    #pragma end_pf_sensitive\n  }\n}\n")
        for argv in (["parse", str(path)], ["analyze", str(path)],
                     ["simulate", "--program", str(path), "--transformed", "--secret", "s=1"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(
                f"{path}:6:5: a sensitive-region marker must sit at the top level "
                "of `main`"), argv

    @pytest.mark.parametrize("text, line, message", [
        ("fn f() {\n  #pragma begin_pf_sensitive\n  y = 1;\n  #pragma end_pf_sensitive\n}\n"
         "fn main() { f(); }\n", 4,
         "a sensitive-region marker must sit at the top level of `main`"),
        ("fn main() {\n  #pragma end_pf_sensitive\n  y = 1;\n}\n", 4,
         "`main` takes one begin/end pair of sensitive-region markers"),
        ("fn main() {\n  #pragma begin_pf_sensitive\n  #pragma end_pf_sensitive\n"
         "  #pragma begin_pf_sensitive\n  y = 1;\n  #pragma end_pf_sensitive\n}\n", 6,
         "`main` takes one begin/end pair of sensitive-region markers"),
    ], ids=["in-a-callee", "end-first", "two-pairs"])
    def test_region_markers_outside_one_top_level_pair_rejected(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse("secret int<2> s;\noutput int y;\n" + text)
        assert (info.value.line, info.value.col, info.value.msg) == (line, 3, message)

    @pytest.mark.parametrize("pragma, message", [
        ("place data x 1", "cannot place scalar 'x': only arrays have pages"),
        ("place data u 1", "cannot place undeclared 'u'"),
        ("place code g 1", "cannot place undefined function 'g'"),
        ("place data t 2", "'t' is placed twice"),
        ("place code main 0\n#pragma place code main 2", "'main' is placed twice"),
        ("place code main -1", "cannot place 'main' on negative page -1"),
    ], ids=["scalar", "undeclared", "undefined-function", "array-twice",
            "function-twice", "negative-page"])
    def test_placement_that_cannot_take_effect_rejected(self, pragma, message,
                                                        tmp_path, capsys):
        path = tmp_path / "place.pfo"
        path.write_text(f"#pragma place data t 1 -8\n#pragma {pragma}\nsecret int<2> s;\n"
                        "output int y;\nint x;\nint t[4];\nfn main() { y = t[s]; }\n")
        line = 3 if "\n" in pragma else 2
        for argv in (["parse", str(path)],
                     ["simulate", "--program", str(path), "--secret", "s=1"]):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith(f"{path}:{line}:1: {message}"), argv

    def test_placement_pragmas(self):
        program = parse("""
        #pragma page_size 4096
        #pragma place data t 1 -112
        #pragma place code main 0
        int t[256];
        fn main() { x = t[0]; }
        """)
        assert program.page_size_hint == 4096
        kinds = {(p.kind, p.name): (p.page, p.offset) for p in program.placements}
        assert kinds[("data", "t")] == (1, -112)
        assert kinds[("code", "main")] == (0, 0)

    def test_secret_width_and_program_int_width(self):
        program = parse("""
        secret int<512> k;
        fn main() { x = k; }
        """)
        assert program.secrets[0].width == 512
        assert program.int_width == 576

    def test_array_initializer(self):
        program = parse("""
        int t[4] = {1, 2, 3};
        fn main() { x = t[0]; }
        """)
        assert program.decl("t").init == (1, 2, 3)

    def test_hex_literals(self):
        program = parse("fn main() { x = 0x1C; }")
        stmt = program.function("main").body[0]
        assert stmt.value == Num(0x1C)


class TestPretty:
    def test_roundtrip_identity(self):
        program = parse(FOO_SOURCE)
        assert parse(pretty(program)) == program

    def test_roundtrip_twice_is_fixpoint(self):
        program = parse(FOO_SOURCE)
        once = pretty(program)
        assert pretty(parse(once)) == once

    def test_nodes_without_a_position_share_nowhere(self):
        # passes and the expander build nodes without a position: they all
        # share one `Pos`, which takes no part in equality or printing
        built = Assign(Var("x"), Binary("+", Var("x"), Num(1)))
        assert built.pos is built.target.pos is built.value.right.pos is lang.NOWHERE
        assert lang.NOWHERE == lang.Pos(0, 0)
        program = parse(FOO_SOURCE)
        assert program.function("main").pos is not lang.NOWHERE
        program = lang.Program(program.decls, program.functions + (
            lang.Function("g", (), (built,)),))
        assert parse(pretty(program)) == program

    def test_roundtrip_loops_and_pragmas(self):
        src = """
        #pragma place data t 2 -16
        secret int<4> s;
        int t[8] = {9, 9};
        output int y;
        fn main() {
          #pragma begin_pf_sensitive
          y = 0;
          while (s != 0) bound 4 {
            y = y + t[s & 7];
            s = s >> 1;
          }
          do {
            y = y + 1;
          } while (y < 3) bound 3;
          #pragma end_pf_sensitive
        }
        """
        program = parse(src)
        assert parse(pretty(program)) == program


class TestConstantFolding:
    """Folded `/` and `%` truncate toward zero, as the interpreter divides."""

    @staticmethod
    def folded(expr: str, decls: str = "") -> int:
        source = f"{decls}int t[1] = {{{expr}}};\nfn main() {{ x = t[0]; }}"
        return parse(source).decl("t").init[0]

    def test_large_quotient_is_exact(self):
        assert self.folded("((1 << 62) + 1) / 3") == 1537228672809129301

    def test_quotient_beyond_float_range(self):
        # the secret widens the program to 1152 bits, room for 1 << 1100
        assert self.folded("(1 << 1100) / 3", "secret int<1101> s;\n") == (1 << 1100) // 3

    def test_negative_operands_truncate_toward_zero(self):
        assert self.folded("-7 / 2") == -3
        assert self.folded("-7 % 2") == -1
        assert self.folded("7 / -2") == -3
        assert self.folded("7 % -2") == 1

    def test_initializers_fold_as_main_computes(self):
        exprs = ["1 << 64", "(1 << 70) >> 10", "(0xFFFFFFFFFFFFFFFF > 0)",
                 "0xFFFFFFFFFFFFFFFF / 2"]
        program = parse(
            "int a = 1 << 64;\nint b = (1 << 70) >> 10;\n"
            "int c = (0xFFFFFFFFFFFFFFFF > 0);\n"
            "int t[2] = {1 << 64, 0xFFFFFFFFFFFFFFFF / 2};\n"
            + "".join(f"output int y{i};\n" for i in range(len(exprs)))
            + "fn main() {\n" + "".join(f"  y{i} = {e};\n" for i, e in enumerate(exprs))
            + "}\n")
        outputs = AstExecutable(program).run().outputs
        assert [outputs[f"y{i}"] for i in range(len(exprs))] == [1, 0, 0, 0]
        assert [program.decl(n).init for n in "abct"] == [(1,), (0,), (0,), (1, 0)]

    def test_width_counts_declarations_after_the_initializer(self):
        assert parse("int c = 1 << 64;\nsecret int<100> k;\nfn main() { }\n"
                     ).decl("c").init == (1 << 64,)
        assert parse("int c = 1 << 64;\nfn main() { }\n").decl("c").init == (1,)

    def test_huge_shift_count_folds_fast(self):
        start = time.perf_counter()
        program = parse("int x = 1 << 40000000000;\nfn main() { }\n")
        assert time.perf_counter() - start < 1
        assert program.decl("x").init == (1,)  # 40000000000 is 0 modulo 64

    def test_constant_division_by_zero(self, tmp_path, capsys):
        path = tmp_path / "div.pfo"
        path.write_text("int a = 1 / 0;\nfn main() { }\n")
        assert main(["parse", str(path)]) == 2
        assert f"{path}:1:11: division by zero" in capsys.readouterr().err

    def test_loop_trips_wrap_at_program_width(self):
        program = parse("""
        output int y;
        fn main() {
          y = 0;
          for (i = 0x7FFFFFFFFFFFFFFF; i > 0; i = i + 1) { y = y + 1; }
        }
        """)
        assert program.entry.body[1].trips == 1
        assert AstExecutable(program).run().outputs == {"y": 1}

    def test_folding_agrees_with_interpreter(self):
        program = parse("""
        public int a;
        public int b;
        output int q;
        output int r;
        int f[2] = {-7 / 2, -7 % 2};
        fn main() { q = a / b; r = a % b; }
        """)
        result = AstExecutable(program).run(public={"a": -7, "b": 2})
        assert program.decl("f").init == (result.outputs["q"], result.outputs["r"])


# literals around the 64-bit edges, and shift counts at or past either width
LITERALS = st.sampled_from([0, 1, (1 << 63) - 1, 1 << 64, 64, 65, 128, 200]).map(Num) \
    | st.just(Unary("-", Num(1)))
CONST_EXPRS = st.recursive(LITERALS, lambda sub: st.one_of(
    st.builds(Unary, st.sampled_from(["-", "+", "~", "!"]), sub),
    st.builds(Binary, st.sampled_from(sorted(lang._PRECEDENCE)), sub, sub),
    st.builds(Ternary, sub, sub, sub),
), max_leaves=8)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(CONST_EXPRS, st.sampled_from([64, 128]))
def test_folded_initializer_is_the_value_main_computes(expr, width):
    widen = "secret int<100> w;\n" if width == 128 else ""
    text = lang._pp_expr(expr)
    program = parse(f"{widen}output int y;\nfn main() {{ y = {text}; }}\n")
    assert program.int_width == width
    assert parse(pretty(program)) == program
    result = AstExecutable(program).run(secret={"w": 0} if widen else None)
    try:
        init = parse(f"{widen}int c = {text};\nfn main() {{ }}\n").decl("c").init
    except ParseError as err:
        assert "division by zero" in err.msg
        assert result.trap is not None and result.trap.kind == "div-zero"
    else:
        assert result.trap is None
        assert init == (result.outputs["y"],)


def _sentinel(hint, label):
    """A fresh node for a field typed `hint`, or None if it holds no node."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        inner = _sentinel(args[0], label)
        return None if inner is None else (inner,)
    if origin is typing.Union:
        return next((s for s in (_sentinel(a, label) for a in args) if s is not None), None)
    if isinstance(hint, type) and issubclass(hint, Expr):
        return Var(label)
    if isinstance(hint, type) and issubclass(hint, Stmt):
        return CallStmt(label, ())
    return None


class TestTraversal:
    KINDS = [
        k for k in vars(lang).values()
        if isinstance(k, type) and dataclasses.is_dataclass(k)
        and issubclass(k, (Expr, Stmt)) and k not in (Expr, Stmt)
    ]

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
    def test_children_reach_every_node_field(self, kind):
        # every field that holds an expression or statements must be a
        # child, so no analysis built on `walk` can miss a new one
        hints = typing.get_type_hints(kind)
        values, expected = {}, []
        for f in dataclasses.fields(kind):
            if f.name == "pos":
                continue
            node = _sentinel(hints[f.name], f"{kind.__name__}.{f.name}")
            if node is None:
                values[f.name] = {int: 1, str: "x", bool: False}[hints[f.name]]
            else:
                values[f.name] = node
                expected.extend(node if isinstance(node, tuple) else (node,))
        got = children(kind(**values))
        assert sorted(map(id, got)) == sorted(map(id, expected))

    def test_walk_visits_loop_headers_and_target_indices(self):
        program = parse("""
        int t[4];
        fn f(a) { return a; }
        fn main() {
          for (i = f(0); i < 2; i = i + f(1)) bound 2 { t[f(2)] = 1; }
          while (f(3) < 1) bound 1 { t[0] = 2; }
        }
        """)
        calls = [n for n in walk_all(program.entry.body) if isinstance(n, lang.CallExpr)]
        assert [c.args[0].value for c in calls] == [0, 1, 2, 3]

    def test_map_rebuilds_bottom_up(self):
        program = parse("fn main() { x = (1 + 2) * 3; }")
        doubled = map_ast(program.entry, lambda n: Num(n.value * 2) if isinstance(n, Num) else n)
        assert pretty(lang.Program((), (doubled,))).strip().endswith("x = ((2 + 4) * 6);\n}")


# --- arithmetic -------------------------------------------------------------

def _wrap(v: int, width: int) -> int:
    """`v` as a `width`-bit two's complement integer."""
    v %= 1 << width
    return v - (1 << width) if v >= 1 << (width - 1) else v


def _c_quotient(x: int, y: int) -> int:
    q = abs(x) // abs(y)
    return q if (x < 0) == (y < 0) else -q


# the exact result of each operator, wrapped; `/` and `%` truncate as in
# C, and shift amounts reduce modulo the width
_BINARY_REFERENCE = {
    "+": lambda x, y, w: x + y,
    "-": lambda x, y, w: x - y,
    "*": lambda x, y, w: x * y,
    "/": lambda x, y, w: _c_quotient(x, y),
    "%": lambda x, y, w: x - y * _c_quotient(x, y),
    "<<": lambda x, y, w: x << (y % w),
    ">>": lambda x, y, w: x >> (y % w),
    "&": lambda x, y, w: x & y,
    "|": lambda x, y, w: x | y,
    "^": lambda x, y, w: x ^ y,
    "&&": lambda x, y, w: int(x != 0 and y != 0),
    "==": lambda x, y, w: int(x == y),
    "!=": lambda x, y, w: int(x != y),
    "<": lambda x, y, w: int(x < y),
    ">": lambda x, y, w: int(x > y),
    "<=": lambda x, y, w: int(x <= y),
    ">=": lambda x, y, w: int(x >= y),
}
_UNARY_REFERENCE = {
    "-": lambda x: -x,
    "+": lambda x: x,
    "~": lambda x: ~x,
    "!": lambda x: int(x == 0),
}


def _edge_operands(width: int) -> list[int]:
    """0, ±1, the extremes, `mask` wrapped, shift amounts at and past the
    width and negative ones, and a few values between."""
    lo, hi, mask = -(1 << (width - 1)), (1 << (width - 1)) - 1, (1 << width) - 1
    values = {0, 1, -1, 2, -2, 7, -7, lo, hi, lo + 1, hi - 1, _wrap(mask, width),
              width - 1, width, width + 1, 2 * width + 3, -width, -(width + 1),
              hi // 3, lo // 5}
    return sorted(values)


class _Regs:
    __slots__ = ("regs",)

    def __init__(self, regs):
        self.regs = regs


@pytest.mark.parametrize("width", [64, 128, 576])
@pytest.mark.parametrize("op", sorted(_BINARY_REFERENCE))
def test_binary_operator_matches_reference(width, op):
    ops = lang.arith(width)
    st = _Regs([0, 0, 0])
    # registers in another order than the two-argument form's
    run, apply = ops.binops[op](2, 0, 1), ops.binary[op]
    for x in _edge_operands(width):
        for y in _edge_operands(width):
            st.regs = [y, 0, x]
            if op in ("/", "%") and y == 0:
                with pytest.raises(ZeroDivisionError):
                    run(st)
                with pytest.raises(ZeroDivisionError):
                    apply(x, y)
                continue
            want = _wrap(_BINARY_REFERENCE[op](x, y, width), width)
            run(st)
            assert st.regs == [y, want, x], (x, op, y)
            assert apply(x, y) == want, (x, op, y)


@pytest.mark.parametrize("width", [64, 128, 576])
@pytest.mark.parametrize("op", sorted(_UNARY_REFERENCE))
def test_unary_operator_matches_reference(width, op):
    ops = lang.arith(width)
    st = _Regs([0, 0])
    run, apply = ops.unops[op](1, 0), ops.unary[op]
    for x in _edge_operands(width):
        want = _wrap(_UNARY_REFERENCE[op](x), width)
        st.regs = [0, x]
        run(st)
        assert st.regs == [want, x], (op, x)
        assert apply(x) == want, (op, x)


@pytest.mark.parametrize("width", [64, 128, 576])
def test_division_edges(width):
    ops = lang.arith(width)
    lo = -(1 << (width - 1))
    # the one quotient that overflows wraps back to the minimum
    assert ops.binary["/"](lo, -1) == lo
    assert ops.binary["%"](lo, -1) == 0
    assert ops.binary["/"](-7, 2) == -3 and ops.binary["%"](-7, 2) == -1
    assert ops.binary["/"](7, -2) == -3 and ops.binary["%"](7, -2) == 1
    mask = (1 << width) - 1
    assert [ops.canon(v) for v in (mask, mask + 1, -lo, lo - 1)] == [-1, 0, lo, -lo - 1]


def _near_limits(width: int):
    """Canonical `width`-bit values within a few of -2^(width-1), 0 and
    2^(width-1) (which wraps to the minimum)."""
    sign = 1 << (width - 1)
    return st.sampled_from([-sign, 0, sign]).flatmap(
        lambda c: st.integers(c - 3, c + 3)).map(lambda v: _wrap(v, width))


# operators whose value is 0 or 1 by definition: at one bit, 1 is out of
# range, so these are left out there
_TRUTH_VALUED = {"!", "&&", "==", "!=", "<", ">", "<=", ">="}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([1, 8, 64, 576]).flatmap(
    lambda w: st.tuples(st.just(w), _near_limits(w), _near_limits(w))))
def test_operators_wrap_as_the_reference_does(case):
    # every operator's closure gives the exact result wrapped the one
    # reference way, written to one destination or to both, as `canon`
    # wraps it
    width, x, y = case
    sign, mask = 1 << (width - 1), (1 << width) - 1
    ops = lang.arith(width)
    for unary, table, factories in ((True, _UNARY_REFERENCE, ops.unops),
                                    (False, _BINARY_REFERENCE, ops.binops)):
        operands = [x] if unary else [x, y]
        n = len(operands)
        for op, reference in table.items():
            if width == 1 and op in _TRUTH_VALUED or op in ("/", "%") and y == 0:
                continue
            exact = reference(x) if unary else reference(x, y, width)
            want = ((exact + sign) & mask) - sign
            assert ops.canon(exact) == want, (width, exact)
            for dsts, written in (((n,), 0), ((n, n + 1), want)):
                regs = _Regs(operands + [0, 0])
                factories[op](*range(n), *dsts)(regs)
                assert regs.regs == operands + [want, written], (width, op, x, y, dsts)


def _stepped_trips(op: str, v: int, limit: int, step_op: str, delta: int, width: int,
                   cap: int):
    """The trips of `for (i = v; i <op> limit; i = i <step_op> delta)`,
    stepped one at a time at `width` bits; `None` past `cap`."""
    binary = lang.arith(width).binary
    trips = 0
    while binary[op](v, limit):
        trips += 1
        if trips > cap:
            return None
        v = binary[step_op](v, delta)
    return trips


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([64, 128]).flatmap(lambda w: st.tuples(
    st.just(w), _near_limits(w), _near_limits(w),
    st.integers(1, 9) | _near_limits(w).filter(bool))),
    st.sampled_from(["<", "<=", ">", ">=", "!="]), st.sampled_from(["+", "-"]),
    st.booleans())
def test_closed_form_trips_match_stepping(values, op, step_op, small):
    # near the width's limits, where steps wrap, or (`small`) scaled down to
    # about ±2^7, where most loops end within the cap; a small cap keeps
    # stepping short, and the parser's count must be stepping's
    width, v, limit, delta = values
    if small:
        v, limit = v // (1 << (width - 8)) + 5, limit // (1 << (width - 8))
    decl = "secret int<100> s;\n" if width == 128 else ""
    source = (f"{decl}output int y;\nfn main() {{\n  for (i = {v}; i {op} {limit}; "
              f"i = i {step_op} ({delta})) {{ y = y + 1; }}\n}}\n")
    cap = 64
    with mock.patch.object(lang, "MAX_DERIVED_TRIPS", cap):
        try:
            trips = parse(source).function("main").body[0].trips
        except ParseError as e:
            assert "unbounded loop" in str(e)
            trips = None
    assert trips == _stepped_trips(op, v, limit, step_op, delta, width, cap)


@pytest.mark.parametrize("header, trips", [
    ("i = 0; i < 1048576; i = i + 1", 1 << 20),
    ("i = 1048576; i > 0; i = i - 1", 1 << 20),
    ("i = 0; i != 3145728; i = i + 3", 1 << 20),
    ("i = 0; i < 1048577; i = i + 1", None),
    ("i = 0; i >= -1048576; i = i - 1", None),
    # moving away from the limit: the test holds until a step wraps, far
    # past the cap
    ("i = 0; i < 10; i = i - 1", None),
])
def test_max_derived_trips_is_the_cap(header, trips):
    # counted by division, so a count at the cap parses at once; past it,
    # the error is the one a count that is not a constant gets
    source = f"output int y;\nfn main() {{\n  for ({header}) {{ y = y + 1; }}\n}}\n"
    start = time.perf_counter()
    if trips is None:
        with pytest.raises(ParseError) as info:
            parse(source)
        assert str(info.value) == (
            "<source>:3:3: unbounded loop: for-loop trip count is not a compile-time "
            "constant (write `for (...) bound N`)")
    else:
        assert parse(source).function("main").body[0].trips == trips
    assert time.perf_counter() - start < 0.1
