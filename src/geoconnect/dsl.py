"""Small arithmetic-expression language for user-supplied metric components.

Grammar (standard precedence, ^ binds tightest and is right-associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'pi' | 'e' | VAR | FUNC '(' expr ')' | '(' expr ')'

Variables are x1..xn with n the declared dimension.  ``compile_expr`` turns a
tree into nested closures once; ``derive`` differentiates a tree exactly.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import GeoError

__all__ = [
    "Expr", "Num", "Var", "Neg", "Bin", "Call",
    "ParseError", "EvalError",
    "parse", "compile_expr", "evaluate", "derive", "partial", "pretty",
]


class ParseError(GeoError):
    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at offset {position}: {message}")
        self.position = position
        self.message = message


class EvalError(GeoError):
    def __init__(self, node, x, message: str):
        super().__init__(f"evaluation error at {node!r} with x = {tuple(x)}: {message}")
        self.node = node
        self.x = tuple(x)
        self.message = message


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Bin, Call]

FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs,
}
CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)
_VAR_RE = re.compile(r"x([1-9]\d*)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'eof'
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            # skip leading whitespace manually to report the offending char
            j = i
            while j < len(src) and src[j].isspace():
                j += 1
            if j >= len(src):
                break
            raise ParseError(j, f"unexpected character {src[j]!r}")
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        i = m.end()
    tokens.append(_Token("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, dim: int):
        self.src = src
        self.dim = dim
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(tok.pos, f"expected '{text}'")
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(tok.pos, f"unexpected token {tok.text!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            e = Bin(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "ident":
            name = tok.text
            if name in CONSTANTS:
                return Num(CONSTANTS[name])
            m = _VAR_RE.match(name)
            if m:
                index = int(m.group(1))
                if index > self.dim:
                    raise ParseError(tok.pos, "variable index exceeds dimension")
                return Var(index)
            if name in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(name, arg)
            raise ParseError(tok.pos, f"unknown identifier '{name}'")
        if tok.kind == "op" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(tok.pos, f"unexpected token {tok.text or '<end>'!r}")


def parse(src: str, dim: int) -> Expr:
    """Parse an expression over variables x1..x<dim>."""
    return _Parser(src, dim).parse()


def _pow(node: Bin, base: float, expo: float, x) -> float:
    if expo == math.floor(expo) and abs(expo) < 1e9:
        k = int(expo)
        if base == 0.0 and k < 0:
            raise EvalError(node, x, "zero base with negative exponent")
        return base ** k
    if base > 0.0:
        return math.exp(expo * math.log(base))
    raise EvalError(node, x, "non-positive base with non-integer exponent")


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """Closure x -> float that evaluates ``e`` at coordinates x (x[0] binds x1).

    The tree is walked once, here; each call runs the nested closures.  Faults
    raise EvalError with the faulting node, x and a message.
    """
    if isinstance(e, Num):
        value = e.value
        return lambda x: value
    if isinstance(e, Var):
        k = e.index - 1

        def var(x):
            if k >= len(x):
                raise EvalError(e, x, "coordinate vector too short")
            return float(x[k])
        return var
    if isinstance(e, Neg):
        arg = compile_expr(e.arg)
        return lambda x: -arg(x)
    if isinstance(e, Bin):
        return _compile_bin(e, compile_expr(e.left), compile_expr(e.right))
    if isinstance(e, Call):
        arg, fn, name = compile_expr(e.arg), FUNCTIONS[e.func], e.func

        def call(x):
            v = arg(x)
            if name == "log" and v <= 0.0:
                raise EvalError(e, x, "log of non-positive value")
            if name == "sqrt" and v < 0.0:
                raise EvalError(e, x, "sqrt of negative value")
            try:
                return fn(v)
            except (OverflowError, ValueError):
                raise EvalError(e, x, f"domain fault in {name}") from None
        return call

    def unknown(x):
        raise EvalError(e, x, "unknown node type")
    return unknown


def _compile_bin(e: Bin, left, right):
    op = e.op
    if op in _ARITH:
        fn = _ARITH[op]

        def binop(x):
            a, b = left(x), right(x)
            try:
                return fn(a, b)
            except OverflowError:
                raise EvalError(e, x, "overflow") from None
    elif op == "/":
        def binop(x):
            a, b = left(x), right(x)
            if b == 0.0:
                raise EvalError(e, x, "division by zero")
            try:
                return a / b
            except OverflowError:
                raise EvalError(e, x, "overflow") from None
    elif op == "^":
        def binop(x):
            a, b = left(x), right(x)
            try:
                return _pow(e, a, b, x)
            except OverflowError:
                raise EvalError(e, x, "overflow") from None
    else:
        def binop(x):
            left(x), right(x)
            raise EvalError(e, x, f"unknown operator {op!r}")
    return binop


def evaluate(e: Expr, x: Sequence[float]) -> float:
    """Evaluate an expression at coordinates x (x[0] binds x1)."""
    return compile_expr(e)(x)


# -- symbolic differentiation ----------------------------------------------
# The constructors fold constants and drop zero and unit terms, so a
# component free of x<i> differentiates to Num(0.0).  '/' and '^' on
# constants are never folded, so their faults still show at evaluation.

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return Bin("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return a
    if a == _ZERO:
        return _neg(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    return Bin("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    return Bin("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return _ZERO
    if b == _ONE:
        return a
    return Bin("/", a, b)


def _power(a: Expr, b: Expr) -> Expr:
    if b == _ONE:
        return a
    return Bin("^", a, b)


def _derive_call(func: str, u: Expr) -> Expr:
    """d func(u) / du."""
    if func == "sin":
        return Call("cos", u)
    if func == "cos":
        return _neg(Call("sin", u))
    if func == "tan":
        return _add(_ONE, _power(Call("tan", u), Num(2.0)))
    if func == "sinh":
        return Call("cosh", u)
    if func == "cosh":
        return Call("sinh", u)
    if func == "tanh":
        return _sub(_ONE, _power(Call("tanh", u), Num(2.0)))
    if func == "exp":
        return Call("exp", u)
    if func == "log":
        return _div(_ONE, u)
    if func == "sqrt":
        return _div(_ONE, _mul(Num(2.0), Call("sqrt", u)))
    if func == "abs":
        return _div(u, Call("abs", u))
    raise ValueError(f"no derivative rule for {func!r}")


def derive(e: Expr, i: int) -> Expr:
    """Exact partial derivative of ``e`` with respect to x<i> (1-based), as an Expr.

    A component free of x<i> gives Num(0.0).  The results fault where the
    function is not differentiable: abs(u) differentiates to u*u'/abs(u),
    which raises EvalError (division by zero) at u = 0, and a^b with b
    depending on x<i> needs log(a), which raises for a <= 0.
    """
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == i else _ZERO
    if isinstance(e, Neg):
        return _neg(derive(e.arg, i))
    if isinstance(e, Call):
        du = derive(e.arg, i)
        if du == _ZERO:
            return _ZERO
        return _mul(_derive_call(e.func, e.arg), du)
    if isinstance(e, Bin):
        a, b = e.left, e.right
        da, db = derive(a, i), derive(b, i)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            # a'/b - a b'/b^2
            return _sub(_div(da, b), _div(_mul(a, db), _power(b, Num(2.0))))
        if e.op == "^":
            if db == _ZERO:
                # c a^(c-1) a'
                return _mul(_mul(b, _power(a, _sub(b, _ONE))), da)
            # a^b (b' log a + b a'/a)
            return _mul(e, _add(_mul(db, Call("log", a)), _div(_mul(b, da), a)))
        raise ValueError(f"unknown operator {e.op!r}")
    raise TypeError(f"not an Expr: {e!r}")


def partial(e: Expr, x: Sequence[float], i: int) -> float:
    """Exact partial derivative with respect to x<i> (1-based) at x."""
    return evaluate(derive(e, i), x)


def pretty(e: Expr) -> str:
    """Fully parenthesized rendering; reparses to a structurally equal AST."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        return f"(-{pretty(e.arg)})"
    if isinstance(e, Bin):
        return f"({pretty(e.left)}{e.op}{pretty(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({pretty(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")
