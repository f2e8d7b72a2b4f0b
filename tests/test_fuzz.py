"""Generated programs whose executables must agree, and that print and
parse back to themselves.

Each program calls two or three helpers that read or write the same
global and table cell from expressions that also read them, so the order
in which a call's value, its callee's writes and the operands around it
are taken decides the outputs.  Others trap for some secrets: they
divide by `s - K` and read or write `t[s + k]`, in `main` and in a
helper, under secret branches or not, with `t` on one page or across two,
word-aligned or with one word across the boundary.
"""

from hypothesis import given, settings, strategies as st

from pfo.interp import AstExecutable
from pfo.lang import parse, pretty
from pfo.leakage import SecretDomain

from test_optimize import _CALLS, _region, assert_executables_agree

# helper bodies by kind; `sum` takes two arguments, the others none
HELPERS = {
    "global": "return g;",
    "table": "return t[0];",
    "sum": "return a + b;",
    "write_global": "g = 5; return 0;",
    "write_table": "t[0] = 5; return 0;",
}


def expressions(helpers: list[str]):
    """Sums of two or more terms over `s`, `g`, `t[0]`, a literal and
    calls to `helpers` (f0, f1, ...), whose arguments are such terms too."""
    def call(args, i: int):
        arity = 2 if helpers[i] == "sum" else 0
        return st.lists(args, min_size=arity, max_size=arity).map(
            lambda a: f"f{i}({', '.join(a)})")

    def calls(args):
        return st.integers(0, len(helpers) - 1).flatmap(lambda i: call(args, i))

    variables = st.sampled_from(["s", "g", "t[0]", "1"])
    terms = st.recursive(
        variables | calls(variables),
        lambda inner: calls(inner) | st.tuples(inner, inner).map(
            lambda p: f"({p[0]} + {p[1]})"),
        max_leaves=4)
    return st.lists(terms, min_size=2, max_size=3).map(" + ".join)


@st.composite
def programs(draw) -> str:
    helpers = draw(st.lists(st.sampled_from(sorted(HELPERS)), min_size=2, max_size=3))
    fns = "".join(
        f"\nfn f{i}({'a, b' if kind == 'sum' else ''}) {{ {HELPERS[kind]} }}"
        for i, kind in enumerate(helpers))
    body = []
    for _ in range(draw(st.integers(1, 3))):
        stmt = f"y = {draw(expressions(helpers))};"
        body.append(f"if (s == 1) {{ {stmt} }}" if draw(st.booleans()) else stmt)
    return _region(_CALLS + fns, " ".join(body))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(programs())
def test_calls_agree_across_executables(source):
    assert_executables_agree(parse(source))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(programs())
def test_pretty_parses_back(source):
    program = parse(source)
    assert parse(pretty(program)) == program


_TRAPS = "secret int<2> s;\noutput int y;\nint a;\nint t[4] = {3, 5, 7, 11};"
# `t` pinned 8 bytes before the end of page 1: its words 0 and 1 sit on
# page 1 and 2 and 3 on page 2, so each access looks its page up.  Pinned
# 6 bytes before it, word 1 straddles the boundary and is on page 1, the
# page of its first byte, and every copy of `t` must still move all four
_SPLIT_TABLES = ("#pragma place data t 1 -8\n", "#pragma place data t 1 -6\n")


@st.composite
def trapping_programs(draw) -> str:
    """`main` bodies of 1-3 statements, each `a = c / (s - K)`, `a = c %
    (s - K)`, `a = t[s + k]` or `t[s + k] = a`, then `y = y + a`, some under
    a secret `if` and some in a helper `f(v)` that `main` calls with `s`;
    in some programs `t` straddles a page boundary, in some with a word
    across it."""
    def statement(var: str) -> str:
        kind = draw(st.sampled_from(["/", "%", "load", "store"]))
        k = draw(st.integers(0, 3))
        if kind == "load":
            return f"a = t[{var} + {k}];"
        if kind == "store":
            return f"t[{var} + {k}] = a;"
        return f"a = {draw(st.integers(-9, 9))} {kind} ({var} - {k});"

    helper = " ".join(statement("v") for _ in range(draw(st.integers(1, 2))))
    body = []
    for _ in range(draw(st.integers(1, 3))):
        stmt = "a = f(s);" if draw(st.booleans()) else statement("s")
        stmt += " y = y + a;"
        if draw(st.booleans()):
            stmt = f"if (s == {draw(st.integers(0, 3))}) {{ {stmt} }}"
        body.append(stmt)
    pins = draw(st.sampled_from(("",) + _SPLIT_TABLES))
    return _region(f"{pins}{_TRAPS}\nfn f(v) {{ {helper} return a; }}", " ".join(body))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(trapping_programs())
def test_traps_agree_across_executables(source):
    program = parse(source)
    assert_executables_agree(program)
    # a traced whole-function run records one footprint per step, up to
    # and including the trapping op's
    exe = AstExecutable(program)
    for secret in SecretDomain.of(program).exhaustive():
        traced = exe.run(secret=secret, collect_trace=True)
        assert len(traced.footprints) == traced.steps
