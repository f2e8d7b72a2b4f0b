"""Frontend for the C-like mini-language (`.pfo` sources).

The language deliberately stays small: integer scalars and fixed-length
integer arrays, functions without recursion, `if`/`else`, and loops whose
trip counts are compile-time constants (derived from the header where
possible, otherwise written explicitly as `bound N`).  Two pragma lines,
``#pragma begin_pf_sensitive`` and ``#pragma end_pf_sensitive``, mark the
secret-handling region; ``#pragma place code|data NAME PAGE [OFFSET]``
pins functions and arrays to pages so a source file carries its own page
geometry.

Scalars follow fixed-width two's-complement semantics (width chosen per
program, default 64, wrapping on overflow); arrays have static lengths and
4-byte elements for layout purposes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .memory import PfoError

WORD_SIZE = 4  # bytes per array element / IR instruction
DEFAULT_INT_WIDTH = 64
MAX_DERIVED_TRIPS = 1 << 20


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
    """,
    re.VERBOSE | re.DOTALL,
)

REJECTED_OPS = {"++": "increment", "--": "decrement", "||": "logical-or"}


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'name', 'kw', 'op', 'pragma', 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col, filename)
        text = m.group()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
        else:
            tok_kind = kind
            if kind == "name" and text in KEYWORDS:
                tok_kind = "kw"
            elif kind == "hex":
                tok_kind = "num"
            tokens.append(Token(tok_kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0


def _pos_field():
    return field(default_factory=Pos, compare=False, repr=False)


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
    init: tuple[int, ...] = ()
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


@dataclass(frozen=True)
class Program:
    decls: tuple[VarDecl, ...]
    functions: tuple[Function, ...]
    placements: tuple[Placement, ...] = ()
    page_size_hint: Optional[int] = None

    def decl(self, name: str) -> Optional[VarDecl]:
        for d in self.decls:
            if d.name == name:
                return d
        return None

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise PfoError(f"no function named {name!r}")

    @property
    def entry(self) -> Function:
        return self.function("main")

    @property
    def secrets(self) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.kind == DeclKind.SECRET)

    @property
    def outputs(self) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.kind == DeclKind.OUTPUT)

    @property
    def publics(self) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.kind == DeclKind.PUBLIC)

    @property
    def arrays(self) -> tuple[VarDecl, ...]:
        return tuple(d for d in self.decls if d.is_array)

    @property
    def int_width(self) -> int:
        """Program integer width: wide enough for the widest declared input."""
        widest = DEFAULT_INT_WIDTH
        for d in self.decls:
            if d.width is not None:
                needed = ((d.width + 1 + 63) // 64) * 64
                widest = max(widest, needed)
        return widest


# --- constant folding -------------------------------------------------------

def fold_const(expr: Expr) -> Optional[int]:
    """Evaluate an expression made of literals, or None if input-dependent."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Unary):
        v = fold_const(expr.operand)
        if v is None:
            return None
        return {"-": -v, "+": v, "~": ~v, "!": int(v == 0)}[expr.op]
    if isinstance(expr, Binary):
        a, b = fold_const(expr.left), fold_const(expr.right)
        if a is None or b is None:
            return None
        return _const_binop(expr.op, a, b)
    if isinstance(expr, Ternary):
        c = fold_const(expr.cond)
        if c is None:
            return None
        return fold_const(expr.if_true if c else expr.if_false)
    return None


def _trunc_div(a: int, b: int) -> int:
    """Integer quotient truncated toward zero, as the interpreter divides."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _const_binop(op: str, a: int, b: int) -> Optional[int]:
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return _trunc_div(a, b) if b else None
        if op == "%":
            return a - _trunc_div(a, b) * b if b else None
        if op == "<<":
            return a << b
        if op == ">>":
            return a >> b
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "&&":
            return int(bool(a) and bool(b))
        if op == "==":
            return int(a == b)
        if op == "!=":
            return int(a != b)
        if op == "<":
            return int(a < b)
        if op == ">":
            return int(a > b)
        if op == "<=":
            return int(a <= b)
        if op == ">=":
            return int(a >= b)
    except ValueError:
        return None
    return None


# --- parser ------------------------------------------------------------

_BINARY_LEVELS = [
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.i = 0
        self.filename = filename

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
            return int(words[2], 0)
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
        array_len = None
        if self.at("op", "["):
            self.advance()
            array_len = int(self.expect("num").text, 0)
            self.expect("op", "]")
            if kind != DeclKind.GLOBAL:
                raise self.error(f"{kind} declarations must be scalars", name_tok)
            if array_len <= 0:
                raise self.error("array length must be positive", name_tok)
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
        value = fold_const(self.parse_expr())
        if value is None:
            raise self.error("initializer must be constant", tok)
        return value

    def parse_function(self) -> Function:
        fn_tok = self.expect("kw", "fn")
        name = self.expect("name").text
        self.expect("op", "(")
        params = []
        while not self.at("op", ")"):
            params.append(self.expect("name").text)
            if self.at("op", ","):
                self.advance()
        self.expect("op", ")")
        body = self.parse_block()
        return Function(name, tuple(params), body, self.pos(fn_tok))

    def parse_block(self) -> tuple[Stmt, ...]:
        self.expect("op", "{")
        stmts: list[Stmt] = []
        while not self.at("op", "}"):
            stmts.append(self.parse_stmt())
        self.expect("op", "}")
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
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
                else_body = (self.parse_if(),)
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
        bound = self._parse_bound()
        if bound is None:
            bound = self._derived_cond_bound(cond)
        if bound is None:
            raise ParseError(
                "unbounded loop: while conditions need a constant trip bound "
                "(write `while (e) bound N`)",
                tok.line, tok.col, self.filename,
            )
        body = self.parse_block()
        return While(cond, bound, body, False, self.pos(tok))

    def parse_do_while(self) -> While:
        tok = self.expect("kw", "do")
        body = self.parse_block()
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        bound = self._parse_bound()
        self.expect("op", ";")
        if bound is None:
            bound = self._derived_cond_bound(cond)
        if bound is None:
            raise ParseError(
                "unbounded loop: do-while conditions need a constant trip bound "
                "(write `do {...} while (e) bound N;`)",
                tok.line, tok.col, self.filename,
            )
        return While(cond, bound, body, True, self.pos(tok))

    def _derived_cond_bound(self, cond: Expr) -> Optional[int]:
        # A constant-false condition gives a trivial bound; anything else
        # that folds is a constant-true infinite loop, which stays rejected.
        value = fold_const(cond)
        if value == 0:
            return 0
        return None

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
            trips = _derive_for_trips(var_tok.text, init, cond, step)
        if trips is None:
            raise ParseError(
                "unbounded loop: for-loop trip count is not a compile-time "
                "constant (write `for (...) bound N`)",
                tok.line, tok.col, self.filename,
            )
        return For(var_tok.text, init, cond, step, trips, explicit, body, self.pos(tok))

    def _parse_args(self) -> tuple[Expr, ...]:
        self.expect("op", "(")
        args = []
        while not self.at("op", ")"):
            args.append(self.parse_expr())
            if self.at("op", ","):
                self.advance()
        self.expect("op", ")")
        return tuple(args)

    # expressions, by precedence climbing over _BINARY_LEVELS
    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(0)
        if self.at("op", "?"):
            tok = self.advance()
            if_true = self.parse_expr()
            self.expect("op", ":")
            if_false = self.parse_expr()
            return Ternary(cond, if_true, if_false, self.pos(tok))
        return cond

    def parse_binary(self, level: int) -> Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        ops = _BINARY_LEVELS[level]
        left = self.parse_binary(level + 1)
        while self.peek().kind == "op" and self.peek().text in ops:
            tok = self.advance()
            right = self.parse_binary(level + 1)
            left = Binary(tok.text, left, right, self.pos(tok))
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in REJECTED_OPS:
            raise self.error(
                f"unsupported construct: {REJECTED_OPS[tok.text]} operator {tok.text!r}"
            )
        if tok.kind == "op" and tok.text in ("~", "!", "+", "-"):
            self.advance()
            return Unary(tok.text, self.parse_unary(), self.pos(tok))
        if tok.kind == "op" and tok.text in ("&", "*"):
            raise self.error(
                f"unsupported construct: pointer operator {tok.text!r} "
                "(no address-of or dereference)"
            )
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        tok = self.peek()
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
                return CallExpr(tok.text, args, self.pos(tok))
            if self.at("op", "["):
                self.advance()
                idx = self.parse_expr()
                self.expect("op", "]")
                return Index(tok.text, idx, self.pos(tok))
            return Var(tok.text, self.pos(tok))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        raise self.error(f"expected expression, found {tok.text or 'end of input'!r}")


def _derive_for_trips(var: str, init: Expr, cond: Expr, step: Expr) -> Optional[int]:
    """Trip count of a counted loop with a constant-foldable header.

    Handles `i = c0; i <op> c1; i = i +/- c2` shapes by stepping the header
    with unbounded integers; anything else is not derivable.
    """
    v = fold_const(init)
    if v is None:
        return None
    if not isinstance(cond, Binary) or cond.op not in ("<", "<=", ">", ">=", "!="):
        return None
    if not (isinstance(cond.left, Var) and cond.left.name == var):
        return None
    limit = fold_const(cond.right)
    if limit is None:
        return None
    if not isinstance(step, Binary) or step.op not in ("+", "-"):
        return None
    if not (isinstance(step.left, Var) and step.left.name == var):
        return None
    delta = fold_const(step.right)
    if delta is None or delta == 0:
        return None
    if step.op == "-":
        delta = -delta
    trips = 0
    while _const_binop(cond.op, v, limit):
        trips += 1
        if trips > MAX_DERIVED_TRIPS:
            return None
        v += delta
    return trips


def _validate_program(program: Program, filename: str) -> None:
    names = [d.name for d in program.decls]
    if len(names) != len(set(names)):
        dup = next(n for n in names if names.count(n) > 1)
        raise ParseError(f"duplicate declaration of {dup!r}", 1, 1, filename)
    fn_names = [f.name for f in program.functions]
    if len(fn_names) != len(set(fn_names)):
        dup = next(n for n in fn_names if fn_names.count(n) > 1)
        raise ParseError(f"duplicate function {dup!r}", 1, 1, filename)
    if "main" not in fn_names:
        raise ParseError("program must define exactly one entry function `main`", 1, 1, filename)
    if program.function("main").params:
        raise ParseError("`main` takes no parameters (inputs are declared)", 1, 1, filename)

    # recursion is outside the grammar: reject call-graph cycles
    calls: dict[str, set[str]] = {f.name: set() for f in program.functions}

    def collect(expr_or_stmt, into: set[str]):
        if isinstance(expr_or_stmt, (CallExpr, CallStmt)):
            into.add(expr_or_stmt.name)
            for a in expr_or_stmt.args:
                collect(a, into)
        elif isinstance(expr_or_stmt, Assign):
            collect(expr_or_stmt.target, into)
            collect(expr_or_stmt.value, into)
        elif isinstance(expr_or_stmt, If):
            collect(expr_or_stmt.cond, into)
            for s in expr_or_stmt.then_body + expr_or_stmt.else_body:
                collect(s, into)
        elif isinstance(expr_or_stmt, For):
            for e in (expr_or_stmt.init, expr_or_stmt.cond, expr_or_stmt.step):
                collect(e, into)
            for s in expr_or_stmt.body:
                collect(s, into)
        elif isinstance(expr_or_stmt, While):
            collect(expr_or_stmt.cond, into)
            for s in expr_or_stmt.body:
                collect(s, into)
        elif isinstance(expr_or_stmt, Return) and expr_or_stmt.value is not None:
            collect(expr_or_stmt.value, into)
        elif isinstance(expr_or_stmt, (Binary, Unary, Ternary, Index)):
            for child in expr_or_stmt.__dict__.values():
                if isinstance(child, Expr):
                    collect(child, into)

    for f in program.functions:
        for s in f.body:
            collect(s, calls[f.name])

    state: dict[str, int] = {}

    def visit(fn: str, chain: list[str]):
        if state.get(fn) == 1:
            cycle = " -> ".join(chain + [fn])
            raise ParseError(
                f"unsupported construct: unbounded recursion ({cycle})", 1, 1, filename
            )
        if state.get(fn) == 2:
            return
        state[fn] = 1
        for callee in sorted(calls.get(fn, ())):
            if callee in calls:
                visit(callee, chain + [fn])
        state[fn] = 2

    for f in program.functions:
        visit(f.name, [])

    # region markers must nest properly in every function
    def check_markers(stmts, depth, fname):
        for s in stmts:
            if isinstance(s, RegionMarker):
                depth += 1 if s.begin else -1
                if depth not in (0, 1):
                    raise ParseError(
                        "sensitive-region markers are not properly nested", s.pos.line,
                        s.pos.col, filename,
                    )
            elif isinstance(s, If):
                check_markers(s.then_body, depth, fname)
                check_markers(s.else_body, depth, fname)
            elif isinstance(s, (For, While)):
                check_markers(s.body, depth, fname)
        return depth

    for f in program.functions:
        if check_markers(f.body, 0, f.name) != 0:
            raise ParseError(
                f"unterminated sensitive region in {f.name!r}", f.pos.line, f.pos.col, filename
            )


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
