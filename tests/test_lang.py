import pytest

from pfo.lang import (
    Assign,
    Binary,
    CallStmt,
    DeclKind,
    For,
    If,
    Index,
    Num,
    ParseError,
    RegionMarker,
    Var,
    While,
    parse,
    pretty,
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
    def folded(expr: str) -> int:
        return parse(f"int t[1] = {{{expr}}};\nfn main() {{ x = t[0]; }}").decl("t").init[0]

    def test_large_quotient_is_exact(self):
        assert self.folded("((1 << 62) + 1) / 3") == 1537228672809129301

    def test_quotient_beyond_float_range(self):
        assert self.folded("(1 << 1100) / 3") == (1 << 1100) // 3

    def test_negative_operands_truncate_toward_zero(self):
        assert self.folded("-7 / 2") == -3
        assert self.folded("-7 % 2") == -1
        assert self.folded("7 / -2") == -3
        assert self.folded("7 % -2") == 1

    def test_folding_agrees_with_interpreter(self):
        from pfo.interp import AstExecutable

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
