"""Frontend for the C-like mini-language (`.pfo` sources).

The language deliberately stays small: integer scalars and fixed-length
integer arrays, functions without recursion, `if`/`else`, and loops whose
trip counts are compile-time constants (derived from the header where
possible, otherwise written explicitly as `bound N`).  Two pragma lines,
``#pragma begin_pf_sensitive`` and ``#pragma end_pf_sensitive``, mark the
secret-handling region; ``#pragma place code|data NAME PAGE [OFFSET]``
pins functions and arrays to pages so a source file carries its own page
geometry.  A `place code` pragma names a defined function and a `place
data` pragma a declared array (scalars have no pages), each name is
placed at most once, and no page is negative.  A program has no region
markers, and then all of `main` is the region, or one begin/end pair at
the top level of `main`; a marker anywhere else is a parse error.

Scalars follow fixed-width two's-complement semantics (width chosen per
program, default 64, wrapping on overflow); arrays have static lengths and
4-byte elements for layout purposes.  Each operator is one row of one
table (`BINARY_OPERATORS`, `PREFIX_OPERATORS`): its precedence, its value,
whether that may wrap, whether it is 0 or 1 and whether it divides.  The
parser's precedence and prefix set, O5's selector and every operator
statement (`operator_lines`) follow from it: the interpreter inlines
those statements in the functions it generates, and constants in
initializers and loop headers fold with `arith`'s functions, which run
the same statements at the program's width, so a constant expression has
the value it would have at run time wherever it is written.  The width
follows from every declaration, so the parser reads every declared width
before it folds anything.  Expressions, statements and call chains nest at
most 64 levels deep, counted with every call inlined, and one call of a
function makes at most `MAX_CALLS` (2^20) calls, its callees' counted
and each loop body once.  A call sets the callee's parameters to its
arguments and its other locals to 0.  Inside a function a global's name
denotes the global, so no parameter may take it.  A `while` runs its
body at most `bound` times and traps if its condition still holds after
that; a do-while's body always runs once, so its bound is at least 1.
Names starting with `__pad` or `__sa` are reserved for the pad object
and staging slots of a staged build.  A `Program` indexes its names and
call graph once; parsing checks every call and every use of an array
against that index, with its position, in the same one walk per
function body that counts its nesting and calls.  Every node carries the
`Pos` of its source text; a node a pass builds without one shares the
one `NOWHERE` (line 0), and positions take no part in equality or
printing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from functools import cache, cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Callable, NamedTuple, Optional, Union

from .memory import PfoError

WORD_SIZE = 4  # bytes per array element / IR instruction
DEFAULT_INT_WIDTH = 64
DEFAULT_PAGE_SIZE = 4096
MAX_DERIVED_TRIPS = 1 << 20
# the largest array (in words) and bit width a declaration may ask for
MAX_ARRAY_WORDS = 1 << 20
MAX_INT_WIDTH = 1 << 16
# how deep expressions, statements and calls may nest: every pass over a
# program recurses along these, so past the caps parsing fails instead
MAX_EXPR_DEPTH = 64
MAX_STMT_DEPTH = 64
MAX_CALL_DEPTH = 64
# the most calls one run of a function may make, its callees' counted and
# each loop body once: past it, a program's call tree is too large to run
MAX_CALLS = 1 << 20


class ParseError(PfoError):
    def __init__(self, msg: str, line: int, col: int, filename: str = "<source>"):
        self.msg = msg
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: {msg}")


# --- tokens ---------------------------------------------------------------

KEYWORDS = {
    "fn", "if", "else", "while", "do", "for", "return", "bound",
    "int", "secret", "public", "output", "sizeof",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<nl>\n)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<pragma>\#pragma[^\n]*)
    | (?P<hex>0[xX][0-9a-fA-F]+)
    | (?P<num>[0-9]+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><<|>>|<=|>=|==|!=|&&|\|\||\+\+|--|[-+*/%<>=!~&|^?:;,(){}\[\]])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

REJECTED_OPS = {"++": "increment", "--": "decrement", "||": "logical-or"}
# names the staged build gives the pad object and the staging slots
RESERVED_PREFIXES = ("__pad", "__sa")


class Token(NamedTuple):
    kind: str  # 'num', 'name', 'kw', 'op', 'pragma', 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """`source` as tokens, ending with an `eof` one, in one scan: every
    character falls in some group of `_TOKEN_RE`, an unexpected one in
    `bad`, so the matches tile the source."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0  # the current line and the index it starts at
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        text = m.group()
        if kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rfind("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "name":
            if text in KEYWORDS:
                kind = "kw"
            elif text.startswith(RESERVED_PREFIXES):
                raise ParseError(f"{text!r}: names starting with "
                                 f"{' or '.join(RESERVED_PREFIXES)} are reserved",
                                 line, col, filename)
        elif kind == "hex":
            kind = "num"
        elif kind == "num":
            try:
                int(text, 0)  # rejects a leading zero, and more digits than it converts
            except ValueError:
                raise ParseError(f"malformed number {text!r}", line, col, filename) from None
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col, filename)
        append(Token(kind, text, line, col))
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0


# the position of every node built without one (line 0): passes build
# many such nodes, and all of them share this one
NOWHERE = Pos()


def _pos_field():
    return field(default=NOWHERE, compare=False, repr=False)


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Index(Expr):
    name: str
    index: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CallExpr(Expr):
    name: str
    args: tuple[Expr, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SizeOf(Expr):
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    target: Union[Var, Index]
    value: Expr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class For(Stmt):
    """Counted loop with a statically known trip count.

    The header is kept for printing and stepping; `trips` is the derived
    (or annotated) constant iteration count.
    """

    var: str
    init: Expr
    cond: Expr
    step: Expr  # full rhs of the update assignment
    trips: int
    explicit_bound: bool
    body: tuple[Stmt, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class While(Stmt):
    """Condition-tested loop, capped by a constant bound."""

    cond: Expr
    bound: int
    body: tuple[Stmt, ...]
    do_first: bool  # do { } while(...) when true
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CallStmt(Stmt):
    name: str
    args: tuple[Expr, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class RegionMarker(Stmt):
    begin: bool  # begin_pf_sensitive / end_pf_sensitive
    pos: Pos = _pos_field()


# --- traversal -----------------------------------------------------------

_CHILDREN = {
    Num: lambda n: (),
    Var: lambda n: (),
    SizeOf: lambda n: (),
    Index: lambda n: (n.index,),
    Unary: lambda n: (n.operand,),
    Binary: lambda n: (n.left, n.right),
    Ternary: lambda n: (n.cond, n.if_true, n.if_false),
    CallExpr: lambda n: n.args,
    Assign: lambda n: (n.target, n.value),
    If: lambda n: (n.cond,) + n.then_body + n.else_body,
    For: lambda n: (n.init, n.cond, n.step) + n.body,
    While: lambda n: n.body + (n.cond,) if n.do_first else (n.cond,) + n.body,
    CallStmt: lambda n: n.args,
    Return: lambda n: () if n.value is None else (n.value,),
    RegionMarker: lambda n: (),
}


def children(node) -> tuple:
    """The direct sub-expressions and sub-statements of a node, in source order."""
    return _CHILDREN[type(node)](node)


def walk_all(nodes):
    """Pre-order traversal of a sequence of nodes and everything below them."""
    stack = list(nodes)
    stack.reverse()
    while stack:
        n = stack.pop()
        yield n
        kids = _CHILDREN[type(n)](n)
        if kids:
            stack.extend(reversed(kids))


def walk(node):
    """Pre-order traversal of `node` and every node below it."""
    return walk_all((node,))


def map_ast(node, fn):
    """Rebuild `node` bottom-up: every child is mapped first, then `fn`
    receives the node over its mapped children and returns its replacement."""
    changes = {}
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, (Expr, Stmt)):
            changes[f.name] = map_ast(value, fn)
        elif isinstance(value, tuple) and value and isinstance(value[0], (Expr, Stmt)):
            changes[f.name] = tuple(map_ast(v, fn) for v in value)
    return fn(replace(node, **changes) if changes else node)


class DeclKind:
    SECRET = "secret"
    PUBLIC = "public"
    OUTPUT = "output"
    GLOBAL = "global"


@dataclass(frozen=True)
class VarDecl:
    kind: str
    name: str
    width: Optional[int] = None  # bit width for secret/public scalars
    array_len: Optional[int] = None
    init: tuple[int, ...] = ()  # folded, so canonical at the program width
    pos: Pos = _pos_field()

    @property
    def is_array(self) -> bool:
        return self.array_len is not None

    @property
    def domain_width(self) -> int:
        """Bits an input ranges over: its declared width, else the default."""
        return DEFAULT_INT_WIDTH if self.width is None else self.width

    @property
    def byte_length(self) -> int:
        if self.array_len is None:
            raise PfoError(f"{self.name} is not an array")
        return self.array_len * WORD_SIZE


@dataclass(frozen=True)
class Placement:
    kind: str  # 'code' | 'data'
    name: str
    page: int
    offset: int = 0
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]
    pos: Pos = _pos_field()
    param_pos: tuple[Pos, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    """A parsed program.  It never changes, so its index (the name lookups,
    its arrays and each function's callees) and its lowering are built on
    first use and kept; a pass that rewrites a program makes a new one,
    with a fresh index."""

    decls: tuple[VarDecl, ...]
    functions: tuple[Function, ...]
    placements: tuple[Placement, ...] = ()
    page_size_hint: Optional[int] = None

    @cached_property
    def _decls(self) -> dict[str, VarDecl]:
        return {d.name: d for d in reversed(self.decls)}  # the first one wins

    @cached_property
    def _functions(self) -> dict[str, Function]:
        return {f.name: f for f in reversed(self.functions)}

    @cached_property
    def callees(self) -> dict[str, tuple[str, ...]]:
        """The functions each function calls anywhere in its body, in
        first-call order."""
        return {f.name: tuple(dict.fromkeys(
            n.name for n in walk_all(f.body) if isinstance(n, (CallExpr, CallStmt))))
            for f in self.functions}

    @cached_property
    def writes_first(self) -> dict[str, bool]:
        """Each function's `ir.writes_before_reads`, by name, filled in as
        it is asked."""
        return {}

    @cached_property
    def lowered(self):
        """The program lowered to micro-ops (`ir.lower_program`), once."""
        from . import ir
        return ir.lower_program(self)

    def decl(self, name: str) -> Optional[VarDecl]:
        return self._decls.get(name)

    def function(self, name: str) -> Function:
        try:
            return self._functions[name]
        except KeyError:
            raise PfoError(f"no function named {name!r}") from None

    def reachable(self, names) -> frozenset[str]:
        """`names` and every function they call, directly or not."""
        seen, todo = set(), list(names)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(self.callees[name])
        return frozenset(seen)

    def resolve_page_size(self, requested: Optional[int] = None) -> int:
        """Page size to build with: the requested one, else the source's
        `#pragma page_size`, else 4096."""
        if requested is not None:
            return requested
        if self.page_size_hint is not None:
            return self.page_size_hint
        return DEFAULT_PAGE_SIZE

    @property
    def entry(self) -> Function:
        return self.function("main")

    @property
    def secrets(self) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.kind == DeclKind.SECRET)

    @property
    def outputs(self) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.kind == DeclKind.OUTPUT)

    @cached_property
    def arrays(self) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.is_array)

    @cached_property
    def scalars(self) -> frozenset[str]:
        """The names of the declared scalars: the globals a function's
        variables may name."""
        return frozenset(d.name for d in self.decls if not d.is_array)

    @property
    def int_width(self) -> int:
        return _int_width(d.width for d in self.decls if d.width is not None)


def _int_width(widths) -> int:
    """Program integer width: a multiple of 64 bits with room for the
    widest declared input and a sign bit."""
    return max([DEFAULT_INT_WIDTH] + [(w + 64) // 64 * 64 for w in widths])


# --- operators ------------------------------------------------------------

class Operator(NamedTuple):
    """One operator of the language, as the parser, the interpreter and
    the passes read it.

    `value` is Python source over the operands `x` (and `y`): its last line
    is the value's expression, and any lines before it are statements that
    run first and leave a value in `v`.  Shift amounts read `width`.
    """

    level: Optional[int]  # binary precedence, loosest 0; None for a prefix operator
    value: str
    wraps: bool = False  # whether the value may leave the width's range
    truth: bool = False  # `value` is a condition: the operator gives 1 or 0
    divides: bool = False  # `value` raises `ZeroDivisionError` when `y` is 0


# the language's operators, binary ones loosest first (every level
# associates left).  `/` truncates toward zero as in C, and `%` is the
# remainder with the dividend's sign, so it stays in range
BINARY_OPERATORS = {
    "&&": Operator(0, "x and y", truth=True),
    "|": Operator(1, "x | y"),
    "^": Operator(2, "x ^ y"),
    "&": Operator(3, "x & y"),
    "==": Operator(4, "x == y", truth=True),
    "!=": Operator(4, "x != y", truth=True),
    "<": Operator(5, "x < y", truth=True),
    ">": Operator(5, "x > y", truth=True),
    "<=": Operator(5, "x <= y", truth=True),
    ">=": Operator(5, "x >= y", truth=True),
    "<<": Operator(6, "x << y % width", wraps=True),
    ">>": Operator(6, "x >> y % width"),
    "+": Operator(7, "x + y", wraps=True),
    "-": Operator(7, "x - y", wraps=True),
    "*": Operator(8, "x * y", wraps=True),
    "/": Operator(8, "v = x // y\n"
                     "if v < 0 and v * y != x: v += 1\n"  # floor to truncation
                     "v", wraps=True, divides=True),
    "%": Operator(8, "v = x % y\n"
                     "v - y if v and (x ^ y) < 0 else v", divides=True),
}
PREFIX_OPERATORS = {
    "-": Operator(None, "-x", wraps=True),
    "+": Operator(None, "x"),
    "~": Operator(None, "~x"),
    "!": Operator(None, "not x", truth=True),
}
# each binary operator's level, for the parser
_PRECEDENCE = {op: row.level for op, row in BINARY_OPERATORS.items()}

# `v` as a `width`-bit two's complement value
_WRAP = "v if lo <= v < sign else ((v + sign) & mask) - sign"
_WIDTH_NAMES = re.compile(r"\b(lo|sign|mask|width)\b")


def _width_constants(width: int) -> dict[str, int]:
    """The constants `lo`, `sign`, `mask` and `width` that operator
    statements read at `width` bits."""
    sign = 1 << (width - 1)
    return {"lo": -sign, "sign": sign, "mask": (1 << width) - 1, "width": width}


def operator_lines(row: Operator, operands: tuple[str, ...], target: str,
                   width: Optional[int] = None) -> list[str]:
    """Statements that assign one operator's value to `target` (a chain of
    assignment targets, `a = b`), from the operand expressions `operands`.
    They read the operands in place, or as `x` and `y` when statements
    come first; wrap a value that may leave the range in `v` (where such
    statements leave it), as `canon` does; and make a condition 1 or 0.  A
    `/` or `%` by zero raises `ZeroDivisionError` before `target` is
    assigned.  The width's constants are read by name (`lo`, `sign`,
    `mask`, `width`), or, with `width` given, written as its hexadecimal
    literals, which Python writes and reads at any size (a decimal one
    past 4300 digits it refuses)."""
    *body, value = row.value.split("\n")
    names = "xy"[:len(operands)]
    if not body:
        value = re.sub(r"\b[xy]\b", lambda m: operands[names.index(m[0])], value)
    elif operands != tuple(names):
        body.insert(0, f"{', '.join(names)} = {', '.join(operands)}")
    if row.wraps:
        if value != "v":
            body.append(f"v = {value}")
        value = _WRAP
    elif row.truth:
        value = f"1 if {value} else 0"
    lines = [*body, f"{target} = {value}"]
    if width is None:
        return lines
    constants = _width_constants(width)
    return [_WIDTH_NAMES.sub(lambda m: f"({constants[m[0]]:#x})", line) for line in lines]


def _function_source(op: str, row: Operator, arity: int, into: str) -> list[str]:
    """One operator as a function of its operands, `f(x, y)` or `f(x)`,
    as lines of the template: it runs the operator's `operator_lines`
    and binds as defaults only the width's constants it reads."""
    params = "xy"[:arity]
    body = operator_lines(row, tuple(params), "v")
    bound = [f"{c}={c}" for c in ("lo", "sign", "mask", "width")
             if re.search(rf"\b{c}\b", "\n".join(body))]
    return [f"    def f({', '.join([*params, *bound])}):",
            *(f"        {line}" for line in body),
            "        return v",
            f"    {into}[{op!r}] = f"]


# `operators(width, lo, sign, mask)` gives `canon` and each operator's
# function at one width.  Its source is generated from the table, as
# `dataclasses` generates `__init__`, so that each function runs its
# operator's statements inline.  It is compiled once; the width's
# constants are its arguments, which every function binds as defaults
_TEMPLATE = "\n".join([
    "def operators(width, lo, sign, mask):",
    "    def canon(v):",
    f"        return {_WRAP}",
    "    binary, unary = {}, {}",
    *(line for op, row in BINARY_OPERATORS.items()
      for line in _function_source(op, row, 2, "binary")),
    *(line for op, row in PREFIX_OPERATORS.items()
      for line in _function_source(op, row, 1, "unary")),
    "    return canon, binary, unary\n"])
_namespace: dict = {}
exec(compile(_TEMPLATE, "<pfo.lang.arith>", "exec"), _namespace)
_operators = _namespace.pop("operators")


class Arith(NamedTuple):
    """The language's operators at one width (`arith`)."""

    canon: Callable[[int], int]
    binary: dict[str, Callable[[int, int], int]]  # op -> (x, y) -> value
    unary: dict[str, Callable[[int], int]]  # op -> x -> value


@cache
def arith(width: int) -> Arith:
    """The language's arithmetic at `width` bits, made once per width from
    the generated `operators`.

    `binary[op](x, y)` and `unary[op](x)` give the operator's value, which
    constant folding and trip derivation read.  Their bodies are the
    operator's `operator_lines`, the statements the interpreter inlines in
    a segment's generated function (`interp._chunk_code`), there with the
    width's constants as literals.  Every operator gives a canonical value
    (`width`-bit two's complement) from canonical operands: one whose
    value may leave `[-2^(width-1), 2^(width-1))` keeps a value inside as
    it is and wraps one outside, as `canon` does.  A `/` or `%` by zero
    raises `ZeroDivisionError`.
    """
    return Arith(*_operators(**_width_constants(width)))


def fold_const(expr: Expr, width: int, filename: str = "<source>") -> Optional[int]:
    """The value an expression of literals has at run time in a `width`-bit
    program, or None if it reads anything else.  As in the lowered code,
    every operand is evaluated (a ternary is a select), so a division by
    zero anywhere in it is a `ParseError` at that division."""
    canon, binary, unary = arith(width)

    def fold(e: Expr) -> Optional[int]:
        if isinstance(e, Num):
            return canon(e.value)
        if isinstance(e, Unary):
            v = fold(e.operand)
            return None if v is None else unary[e.op](v)
        if isinstance(e, Binary):
            a, b = fold(e.left), fold(e.right)
            if a is None or b is None:
                return None
            try:
                return binary[e.op](a, b)
            except ZeroDivisionError:
                raise ParseError("division by zero in a constant expression",
                                 e.pos.line, e.pos.col, filename) from None
        if isinstance(e, Ternary):
            c, t, f = fold(e.cond), fold(e.if_true), fold(e.if_false)
            return None if c is None else t if c else f
        return None

    return fold(expr)


# --- parser ------------------------------------------------------------

def _counted_trips(op: str, v: int, limit: int, e: int, width: int) -> Optional[int]:
    """How many times the test `i <op> limit` of the header `i = v; ...;
    i = i + e` holds before it first fails, by division, or `None` when a
    step wraps at `width` bits first, so the header must be stepped.  When
    the test holds at more than `MAX_DERIVED_TRIPS` steps that stay in
    range, it gives `MAX_DERIVED_TRIPS + 1`: all that stepping would find."""
    lo, hi = -(1 << (width - 1)), 1 << (width - 1)
    s = -1 if op in (">", ">=") else 1  # i > limit exactly when -i < -limit
    gap, step = s * (limit - v), s * e
    if op == "!=":
        trips = gap // step if gap % step == 0 and gap // step >= 0 else None
    elif op in ("<", ">"):
        trips = 0 if gap <= 0 else -(-gap // step) if step > 0 else None
    else:
        trips = 0 if gap < 0 else gap // step + 1 if step > 0 else None
    if trips is not None and lo <= v + trips * e < hi:
        return trips
    # the test holds at every step until one wraps: count those in range
    safe = (hi - 1 - v) // e if e > 0 else (v - lo) // -e
    return MAX_DERIVED_TRIPS + 1 if safe >= MAX_DERIVED_TRIPS else None


class _Parser:
    """Recursive descent, with nesting capped so that no later recursive
    pass runs out of stack: `height` is the height of the expression parsed
    last (a parenthesis counts as a level), `open` the expressions being
    parsed around it and `nesting` the statements around it.
    """

    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.i = 0
        self.filename = filename
        # only a declaration can write `int<N>`, so the program's width is
        # known before anything folds, whatever the order of declarations
        # (an N past the cap is an error at its declaration)
        self.width = _int_width(
            min(int(n.text, 0), MAX_INT_WIDTH)
            for t, lt, n in zip(tokens, tokens[1:], tokens[2:])
            if t.text == "int" and lt.text == "<" and n.kind == "num")
        self.height = self.open = self.nesting = 0

    # token helpers
    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise self.error(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok)
        return self.advance()

    def error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(msg, tok.line, tok.col, self.filename)

    def pos(self, tok: Token) -> Pos:
        return Pos(tok.line, tok.col)

    def fold(self, expr: Expr) -> Optional[int]:
        return fold_const(expr, self.width, self.filename)

    # grammar
    def parse_program(self) -> Program:
        decls: list[VarDecl] = []
        functions: list[Function] = []
        placements: list[Placement] = []
        page_size_hint = None
        while not self.at("eof"):
            if self.at("pragma"):
                tok = self.advance()
                parsed = self._parse_top_pragma(tok)
                if isinstance(parsed, Placement):
                    placements.append(parsed)
                elif isinstance(parsed, int):
                    page_size_hint = parsed
                continue
            if self.at("kw", "fn"):
                functions.append(self.parse_function())
            elif self.peek().kind == "kw" and self.peek().text in ("secret", "public", "output", "int"):
                decls.append(self.parse_decl())
            else:
                raise self.error(
                    f"expected declaration, function, or pragma, found {self.peek().text!r}"
                )
        program = Program(tuple(decls), tuple(functions), tuple(placements), page_size_hint)
        _validate_program(program, self.filename)
        return program

    def _parse_top_pragma(self, tok: Token):
        words = tok.text.split()
        if words[1:2] == ["place"] and len(words) >= 5:
            kind = words[2]
            if kind not in ("code", "data"):
                raise self.error(f"unknown placement kind {kind!r}", tok)
            try:
                page = int(words[4], 0)
                offset = int(words[5], 0) if len(words) > 5 else 0
            except ValueError:
                raise self.error(f"malformed placement pragma {tok.text!r}", tok) from None
            return Placement(kind, words[3], page, offset, self.pos(tok))
        if words[1:2] == ["page_size"] and len(words) == 3:
            try:
                return int(words[2], 0)
            except ValueError:
                raise self.error(f"malformed page_size pragma {tok.text!r}", tok) from None
        raise self.error(f"unknown top-level pragma {tok.text!r}", tok)

    def parse_decl(self) -> VarDecl:
        tok = self.peek()
        kind = DeclKind.GLOBAL
        if tok.text in ("secret", "public", "output"):
            kind = self.advance().text
        self.expect("kw", "int")
        width = None
        if self.at("op", "<"):
            self.advance()
            width = int(self.expect("num").text, 0)
            self.expect("op", ">")
            if width < 1:
                raise self.error("bit width must be positive", tok)
        name_tok = self.expect("name")
        if width is not None and width > MAX_INT_WIDTH:
            raise self.error(f"{name_tok.text!r} is {width} bits wide; at most "
                             f"{MAX_INT_WIDTH} are supported", name_tok)
        array_len = None
        if self.at("op", "["):
            self.advance()
            array_len = int(self.expect("num").text, 0)
            self.expect("op", "]")
            if kind != DeclKind.GLOBAL:
                raise self.error(f"{kind} declarations must be scalars", name_tok)
            if array_len <= 0:
                raise self.error("array length must be positive", name_tok)
            if array_len > MAX_ARRAY_WORDS:
                raise self.error(f"array {name_tok.text!r} has {array_len} words; at "
                                 f"most {MAX_ARRAY_WORDS} are supported", name_tok)
        init: tuple[int, ...] = ()
        if self.at("op", "="):
            self.advance()
            if self.at("op", "{"):
                self.advance()
                values = []
                while not self.at("op", "}"):
                    values.append(self._const_expr())
                    if self.at("op", ","):
                        self.advance()
                self.expect("op", "}")
                if array_len is None:
                    raise self.error("brace initializer requires an array", name_tok)
                if len(values) > array_len:
                    raise self.error("too many initializer values", name_tok)
                init = tuple(values)
            else:
                init = (self._const_expr(),)
        self.expect("op", ";")
        return VarDecl(kind, name_tok.text, width, array_len, init, self.pos(name_tok))

    def _const_expr(self) -> int:
        tok = self.peek()
        value = self.fold(self.parse_expr())
        if value is None:
            raise self.error("initializer must be constant", tok)
        return value

    def parse_function(self) -> Function:
        fn_tok = self.expect("kw", "fn")
        name = self.expect("name").text
        self.expect("op", "(")
        params, param_pos = [], []
        while not self.at("op", ")"):
            tok = self.expect("name")
            params.append(tok.text)
            param_pos.append(self.pos(tok))
            if self.at("op", ","):
                self.advance()
        self.expect("op", ")")
        body = self.parse_block()
        return Function(name, tuple(params), body, self.pos(fn_tok), tuple(param_pos))

    def parse_block(self) -> tuple[Stmt, ...]:
        self.expect("op", "{")
        stmts: list[Stmt] = []
        while not self.at("op", "}"):
            stmts.append(self.parse_stmt())
        self.expect("op", "}")
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
        if self.nesting == MAX_STMT_DEPTH:
            raise self.error(f"statements nest more than {MAX_STMT_DEPTH} levels deep")
        self.nesting += 1
        stmt = self._parse_stmt()
        self.nesting -= 1
        return stmt

    def _parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "pragma":
            self.advance()
            words = tok.text.split()
            if words[1:] == ["begin_pf_sensitive"]:
                return RegionMarker(True, self.pos(tok))
            if words[1:] == ["end_pf_sensitive"]:
                return RegionMarker(False, self.pos(tok))
            raise self.error(f"unknown pragma in function body: {tok.text!r}", tok)
        if tok.kind == "kw":
            if tok.text == "if":
                return self.parse_if()
            if tok.text == "while":
                return self.parse_while()
            if tok.text == "do":
                return self.parse_do_while()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "return":
                self.advance()
                value = None if self.at("op", ";") else self.parse_expr()
                self.expect("op", ";")
                return Return(value, self.pos(tok))
            raise self.error(f"unexpected keyword {tok.text!r}")
        if tok.kind == "name":
            name = self.advance()
            if self.at("op", "("):
                args = self._parse_args()
                self.expect("op", ";")
                return CallStmt(name.text, args, self.pos(name))
            target: Union[Var, Index]
            if self.at("op", "["):
                self.advance()
                idx = self.parse_expr()
                self.expect("op", "]")
                target = Index(name.text, idx, self.pos(name))
            else:
                target = Var(name.text, self.pos(name))
            self.expect("op", "=")
            value = self.parse_expr()
            self.expect("op", ";")
            return Assign(target, value, self.pos(name))
        raise self.error(f"expected statement, found {tok.text or 'end of input'!r}")

    def parse_if(self) -> If:
        tok = self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then_body = self.parse_block()
        else_body: tuple[Stmt, ...] = ()
        if self.at("kw", "else"):
            self.advance()
            if self.at("kw", "if"):
                else_body = (self.parse_stmt(),)
            else:
                else_body = self.parse_block()
        return If(cond, then_body, else_body, self.pos(tok))

    def _parse_bound(self) -> Optional[int]:
        if self.at("kw", "bound"):
            self.advance()
            return int(self.expect("num").text, 0)
        return None

    def parse_while(self) -> While:
        tok = self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        bound = self._while_bound(cond, tok, "while conditions need a constant trip "
                                  "bound (write `while (e) bound N`)")
        body = self.parse_block()
        return While(cond, bound, body, False, self.pos(tok))

    def parse_do_while(self) -> While:
        tok = self.expect("kw", "do")
        body = self.parse_block()
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        written = self.peek()
        bound = self._while_bound(cond, tok, "do-while conditions need a constant trip "
                                  "bound (write `do {...} while (e) bound N;`)")
        if bound == 0 and written.text == "bound":
            raise self.error("a do-while body always runs once: its bound must be "
                             "at least 1", written)
        self.expect("op", ";")
        return While(cond, max(bound, 1), body, True, self.pos(tok))

    def _while_bound(self, cond: Expr, tok: Token, hint: str) -> int:
        """The written bound, else 0 for a constant-false condition (a
        do-while still runs its body once); any other condition that folds
        is a constant-true infinite loop, which stays rejected."""
        bound = self._parse_bound()
        if bound is None and self.fold(cond) == 0:
            return 0
        if bound is None:
            raise self.error(f"unbounded loop: {hint}", tok)
        return bound

    def parse_for(self) -> For:
        tok = self.expect("kw", "for")
        self.expect("op", "(")
        var_tok = self.expect("name")
        self.expect("op", "=")
        init = self.parse_expr()
        self.expect("op", ";")
        cond = self.parse_expr()
        self.expect("op", ";")
        step_var = self.expect("name")
        if step_var.text != var_tok.text:
            raise self.error("for-loop update must assign the loop variable", step_var)
        self.expect("op", "=")
        step = self.parse_expr()
        self.expect("op", ")")
        bound = self._parse_bound()
        body = self.parse_block()
        trips = bound
        explicit = bound is not None
        if trips is None:
            trips = self._derive_for_trips(var_tok.text, init, cond, step)
        if trips is None:
            raise ParseError(
                "unbounded loop: for-loop trip count is not a compile-time "
                "constant (write `for (...) bound N`)",
                tok.line, tok.col, self.filename,
            )
        return For(var_tok.text, init, cond, step, trips, explicit, body, self.pos(tok))

    def _derive_for_trips(self, var: str, init: Expr, cond: Expr,
                          step: Expr) -> Optional[int]:
        """Trip count of a counted loop with a constant-foldable header.

        Handles `i = c0; i <op> c1; i = i +/- c2` shapes; anything else is
        not derivable, nor is a count above `MAX_DERIVED_TRIPS`.  The count
        is a division (`_counted_trips`) unless a step wraps before the
        test fails; then the header is stepped with the program's wrapping
        arithmetic, its operators' functions (`arith`).
        """
        if not (isinstance(cond, Binary) and cond.op in ("<", "<=", ">", ">=", "!=")
                and isinstance(cond.left, Var) and cond.left.name == var
                and isinstance(step, Binary) and step.op in ("+", "-")
                and isinstance(step.left, Var) and step.left.name == var):
            return None
        v, limit, delta = self.fold(init), self.fold(cond.right), self.fold(step.right)
        if v is None or limit is None or not delta:
            return None
        trips = _counted_trips(cond.op, v, limit, delta if step.op == "+" else -delta,
                               self.width)
        if trips is not None:
            return None if trips > MAX_DERIVED_TRIPS else trips
        binary = arith(self.width).binary
        test, advance = binary[cond.op], binary[step.op]
        trips = 0
        while test(v, limit):
            trips += 1
            if trips > MAX_DERIVED_TRIPS:
                return None
            v = advance(v, delta)
        return trips

    def _parse_args(self) -> tuple[Expr, ...]:
        """Call arguments; `height` is then the highest one's (0 for none)."""
        self.expect("op", "(")
        args, height = [], 0
        while not self.at("op", ")"):
            args.append(self.parse_expr())
            height = max(height, self.height)
            if self.at("op", ","):
                self.advance()
        self.expect("op", ")")
        self.height = height
        return tuple(args)

    # expressions: `height` is the height of the one parsed last
    def _depth(self, depth: int, tok: Optional[Token] = None) -> int:
        """`depth`, if expressions may nest that deep."""
        if depth > MAX_EXPR_DEPTH:
            raise self.error(f"expression nests more than {MAX_EXPR_DEPTH} levels deep", tok)
        return depth

    def parse_expr(self) -> Expr:
        self.open = self._depth(self.open + 1)
        expr = self.parse_binary()
        if self.at("op", "?"):
            tok = self.advance()
            height = self.height
            if_true = self.parse_expr()
            height = max(height, self.height)
            self.expect("op", ":")
            if_false = self.parse_expr()
            self.height = self._depth(max(height, self.height) + 1, tok)
            expr = Ternary(expr, if_true, if_false, self.pos(tok))
        self.open -= 1
        return expr

    def parse_binary(self) -> Expr:
        """Binary operators by precedence, with explicit operand and
        operator stacks, so that long operator chains do not recurse."""
        operands, heights, ops = [self.parse_unary()], [self.height], []
        while True:
            tok = self.peek()
            level = _PRECEDENCE.get(tok.text, -1) if tok.kind == "op" else -1
            while ops and _PRECEDENCE[ops[-1].text] >= level:
                op = ops.pop()
                right = operands.pop()
                operands[-1] = Binary(op.text, operands[-1], right, self.pos(op))
                height = heights.pop()
                heights[-1] = self._depth(max(heights[-1], height) + 1, op)
            if level < 0:
                self.height = heights[0]
                return operands[0]
            ops.append(self.advance())
            operands.append(self.parse_unary())
            heights.append(self.height)

    def parse_unary(self) -> Expr:
        prefix = []
        while self.peek().kind == "op":
            tok = self.peek()
            if tok.text in REJECTED_OPS:
                raise self.error(
                    f"unsupported construct: {REJECTED_OPS[tok.text]} operator {tok.text!r}"
                )
            if tok.text in ("&", "*"):
                raise self.error(
                    f"unsupported construct: pointer operator {tok.text!r} "
                    "(no address-of or dereference)"
                )
            if tok.text not in PREFIX_OPERATORS:
                break
            prefix.append(self.advance())
        expr = self.parse_postfix()
        for tok in reversed(prefix):
            expr = Unary(tok.text, expr, self.pos(tok))
            self.height = self._depth(self.height + 1, tok)
        return expr

    def parse_postfix(self) -> Expr:
        tok = self.peek()
        self.height = 1
        if tok.kind == "num":
            self.advance()
            return Num(int(tok.text, 0), self.pos(tok))
        if tok.kind == "kw" and tok.text == "sizeof":
            self.advance()
            self.expect("op", "(")
            name = self.expect("name").text
            self.expect("op", ")")
            return SizeOf(name, self.pos(tok))
        if tok.kind == "name":
            self.advance()
            if self.at("op", "("):
                args = self._parse_args()
                self.height = self._depth(self.height + 1, tok)
                return CallExpr(tok.text, args, self.pos(tok))
            if self.at("op", "["):
                self.advance()
                idx = self.parse_expr()
                self.expect("op", "]")
                self.height = self._depth(self.height + 1, tok)
                return Index(tok.text, idx, self.pos(tok))
            return Var(tok.text, self.pos(tok))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            self.height = self._depth(self.height + 1, tok)
            return inner
        raise self.error(f"expected expression, found {tok.text or 'end of input'!r}")


def _validate_program(program: Program, filename: str) -> None:
    def error(msg: str, pos: Pos) -> ParseError:
        return ParseError(msg, pos.line, pos.col, filename)

    # the index keeps the first of each name, so a later one is a duplicate
    for what, items, index in (("declaration of", program.decls, program._decls),
                               ("function", program.functions, program._functions)):
        dup = next((x for x in items if index[x.name] is not x), None)
        if dup is not None:
            raise error(f"duplicate {what} {dup.name!r}", dup.pos)
    if "main" not in program._functions:
        raise ParseError("program must define exactly one entry function `main`", 1, 1, filename)
    if program.function("main").params:
        raise ParseError("`main` takes no parameters (inputs are declared)", 1, 1, filename)
    # a parameter named like a global would be that global
    for fn in program.functions:
        for name, pos in zip(fn.params, fn.param_pos):
            if name in program._decls:
                raise error(f"parameter {name!r} of {fn.name!r} has the name of a "
                            "global", pos)

    # a placement pins one array or function, once, from a page that exists
    placed: set[tuple[str, str]] = set()
    for p in program.placements:
        decl = program._decls.get(p.name)
        if p.kind == "data" and decl is None:
            raise error(f"cannot place undeclared {p.name!r}", p.pos)
        if p.kind == "data" and not decl.is_array:
            raise error(f"cannot place scalar {p.name!r}: only arrays have pages", p.pos)
        if p.kind == "code" and p.name not in program._functions:
            raise error(f"cannot place undefined function {p.name!r}", p.pos)
        if (p.kind, p.name) in placed:
            raise error(f"{p.name!r} is placed twice", p.pos)
        if p.page < 0:
            raise error(f"cannot place {p.name!r} on negative page {p.page}", p.pos)
        placed.add((p.kind, p.name))

    # every call names a function: the index knows every callee's name
    for fn in program.functions:
        if any(c not in program._functions for c in program.callees[fn.name]):
            call = next(n for n in walk_all(fn.body)
                        if type(n) in (CallExpr, CallStmt) and n.name not in program._functions)
            raise error(f"call to undefined function {call.name!r}", call.pos)

    # recursion is outside the grammar: reject call-graph cycles.  Callees
    # come before their callers in `order`, so each function's nesting
    # and call count (`_nesting`) follow from its callees'; each is capped
    try:
        order = tuple(TopologicalSorter(program.callees).static_order())
    except CycleError as e:
        cycle = " -> ".join(reversed(e.args[1]))
        raise ParseError(f"unsupported construct: unbounded recursion ({cycle})",
                         1, 1, filename) from None
    arity = {f.name: len(f.params) for f in program.functions}
    arrays = {d.name for d in program.arrays}
    nesting: dict[str, tuple[int, int, int, int]] = {}
    for name in order:
        nesting[name] = _nesting(program.function(name), nesting, arity, arrays, error)
    for i, (what, cap) in enumerate((("calls from", MAX_CALL_DEPTH),
                                     ("statements in", MAX_STMT_DEPTH),
                                     ("expressions in", MAX_EXPR_DEPTH))):
        for name in order:
            if nesting[name][i] > cap:
                inlined = " once its calls are inlined" if i else ""
                raise error(f"{what} {name!r} nest more than {cap} levels deep{inlined}",
                            program.function(name).pos)
    for name in order:
        if nesting[name][3] > MAX_CALLS:
            raise error(f"{name!r} makes more than {MAX_CALLS} calls once its calls "
                        "are inlined", program.function(name).pos)

    # the region is all of `main`, or one begin/end pair at its top level
    # (`_nesting` rejects a marker anywhere else)
    marks = [s for s in program.function("main").body if isinstance(s, RegionMarker)]
    for i, m in enumerate(marks):
        if i > 1 or m.begin != (i == 0):
            raise error("`main` takes one begin/end pair of sensitive-region markers", m.pos)
    if len(marks) == 1:
        raise error("unterminated sensitive region in 'main'", marks[0].pos)


def _nesting(fn: Function, callees: dict[str, tuple[int, int, int, int]],
             arity: dict[str, int], arrays: set[str], error: Callable
             ) -> tuple[int, int, int, int]:
    """How deep calls from `fn` nest (0 if it calls nothing), how deep its
    statements and expressions nest once every call is inlined at its
    site, and how many calls one call of `fn` makes, given the same for
    its callees.  The same walk checks, in source order, that every call
    passes its callee's arguments, that a variable never names an array,
    that an index or `sizeof` always does and that a region marker sits at
    the top level of `main`.

    The depths bound how deep every pass that follows calls recurses.
    Tree mode lowers a callee's statements, then its return value, while
    it lowers the expression that calls it, so the caps count a callee's
    statements from the level of the statement that calls it and its
    expressions from the depth where the call stands.  So a call adds no
    level of its own, and a call statement stands where a call at the top
    of an expression would.  Each call site counts itself and its
    callee's calls; a loop body counts once, whatever its trips.
    """
    calls = stmts = exprs = count = 0
    # (node, level of its statement, its depth in its expression or 0)
    stack = [(stmt, 1, 0) for stmt in reversed(fn.body)]
    while stack:
        n, level, depth = stack.pop()
        kind = type(n)
        if kind is CallExpr or kind is CallStmt:
            if len(n.args) != arity[n.name]:
                raise error(f"{n.name}() expects {arity[n.name]} arguments, "
                            f"got {len(n.args)}", n.pos)
            depth = max(depth, 1)
            c, s, x, made = callees[n.name]
            calls = max(calls, c + 1)
            stmts = max(stmts, level - 1 + s)
            exprs = max(exprs, depth - 1 + x)
            count += 1 + made
            below = depth
        else:
            if kind is Var:
                if n.name in arrays:
                    raise error(f"array {n.name!r} used without an index", n.pos)
            elif (kind is Index or kind is SizeOf) and n.name not in arrays:
                raise error(f"{n.name!r} is not an array", n.pos)
            elif kind is RegionMarker and (level > 1 or fn.name != "main"):
                raise error("a sensitive-region marker must sit at the top level of "
                            "`main`", n.pos)
            below = depth + 1
        if level > stmts:
            stmts = level
        if depth > exprs:
            exprs = depth
        for k in reversed(_CHILDREN[kind](n)):
            stack.append((k, level + 1, 0) if isinstance(k, Stmt) else (k, level, below))
    return calls, stmts, exprs, count


def parse(source: str, filename: str = "<source>") -> Program:
    """Parse `.pfo` source text into a validated Program."""
    return _Parser(tokenize(source, filename), filename).parse_program()


# --- pretty printer ------------------------------------------------------

def _pp_expr(e: Expr) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Index):
        return f"{e.name}[{_pp_expr(e.index)}]"
    if isinstance(e, SizeOf):
        return f"sizeof({e.name})"
    if isinstance(e, Unary):
        return f"{e.op}({_pp_expr(e.operand)})"
    if isinstance(e, Binary):
        return f"({_pp_expr(e.left)} {e.op} {_pp_expr(e.right)})"
    if isinstance(e, Ternary):
        return f"({_pp_expr(e.cond)} ? {_pp_expr(e.if_true)} : {_pp_expr(e.if_false)})"
    if isinstance(e, CallExpr):
        return f"{e.name}({', '.join(_pp_expr(a) for a in e.args)})"
    raise PfoError(f"cannot print {e!r}")


def _pp_stmt(s: Stmt, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(s, RegionMarker):
        name = "begin_pf_sensitive" if s.begin else "end_pf_sensitive"
        return [f"{pad}#pragma {name}"]
    if isinstance(s, Assign):
        return [f"{pad}{_pp_expr(s.target)} = {_pp_expr(s.value)};"]
    if isinstance(s, CallStmt):
        return [f"{pad}{s.name}({', '.join(_pp_expr(a) for a in s.args)});"]
    if isinstance(s, Return):
        return [f"{pad}return{'' if s.value is None else ' ' + _pp_expr(s.value)};"]
    if isinstance(s, If):
        lines = [f"{pad}if ({_pp_expr(s.cond)}) {{"]
        for sub in s.then_body:
            lines.extend(_pp_stmt(sub, indent + 1))
        if s.else_body:
            lines.append(f"{pad}}} else {{")
            for sub in s.else_body:
                lines.extend(_pp_stmt(sub, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, For):
        bound = f" bound {s.trips}" if s.explicit_bound else ""
        head = (f"{pad}for ({s.var} = {_pp_expr(s.init)}; {_pp_expr(s.cond)}; "
                f"{s.var} = {_pp_expr(s.step)}){bound} {{")
        lines = [head]
        for sub in s.body:
            lines.extend(_pp_stmt(sub, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, While):
        if s.do_first:
            lines = [f"{pad}do {{"]
            for sub in s.body:
                lines.extend(_pp_stmt(sub, indent + 1))
            lines.append(f"{pad}}} while ({_pp_expr(s.cond)}) bound {s.bound};")
            return lines
        lines = [f"{pad}while ({_pp_expr(s.cond)}) bound {s.bound} {{"]
        for sub in s.body:
            lines.extend(_pp_stmt(sub, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise PfoError(f"cannot print {s!r}")


def pretty(program: Program) -> str:
    lines: list[str] = []
    if program.page_size_hint is not None:
        lines.append(f"#pragma page_size {program.page_size_hint}")
    for p in program.placements:
        lines.append(f"#pragma place {p.kind} {p.name} {p.page} {p.offset}")
    if lines:
        lines.append("")
    for d in program.decls:
        prefix = "" if d.kind == DeclKind.GLOBAL else d.kind + " "
        width = f"<{d.width}>" if d.width is not None else ""
        suffix = f"[{d.array_len}]" if d.is_array else ""
        if d.is_array and d.init:
            init = " = {" + ", ".join(str(v) for v in d.init) + "}"
        elif d.init:
            init = f" = {d.init[0]}"
        else:
            init = ""
        lines.append(f"{prefix}int{width} {d.name}{suffix}{init};")
    for f in program.functions:
        lines.append("")
        lines.append(f"fn {f.name}({', '.join(f.params)}) {{")
        for s in f.body:
            lines.extend(_pp_stmt(s, 1))
        lines.append("}")
    return "\n".join(lines) + "\n"
