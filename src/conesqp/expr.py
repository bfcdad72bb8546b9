"""Polynomial-style scalar expressions with forward-mode second-order AD.

Expressions use variables ``x1 .. xn``, numeric literals, the binary
operators ``+ - * /``, integer powers ``^``, parentheses and unary minus.
Precedence is ``^`` > unary ``-`` > ``* /`` > ``+ -`` with left
associativity for the binary arithmetic operators.  ``eval2`` returns the
value together with the exact gradient and dense Hessian, which is all the
smoothness the rest of the package needs (objectives and constraints are
assumed twice differentiable at the points where they are evaluated);
``eval1`` skips the Hessian for callers that only need the gradient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ArithmeticError):
    """Raised when an expression is not evaluable at the given point."""


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("integer powers must have nonnegative exponent")


Node = Const | Var | Add | Sub | Mul | Div | Neg | Pow


@dataclass(frozen=True)
class ExprAST:
    """Parsed expression over a fixed number of variables."""

    root: Node
    n: int


@dataclass(frozen=True)
class SecondOrderValue:
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


# ---------------------------------------------------------------------------
# Tokenizer / parser

# every non-space character starts a match (``bad`` catches the rest), so the
# matches tile the text up to its trailing whitespace
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":  # reported where the previous token ended
            raise ParseError(f"unexpected character {match.group(kind)!r}", match.start())
        tokens.append((kind, match.group(kind), match.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                node = Pow(node, self.exponent())
            else:
                return node

    def exponent(self) -> int:
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.advance()
            k = self.exponent()
            self.expect_op(")")
            return k
        if kind != "num":
            raise ParseError("exponent must be a nonnegative integer", pos)
        self.advance()
        if not re.fullmatch(r"\d+", val):
            raise ParseError(f"non-integer exponent {val!r}", pos)
        return int(val)

    def atom(self) -> Node:
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "var":
            index = int(val[1:])
            if index < 1 or index > self.n:
                raise ParseError(f"unknown variable {val!r} (declared dimension {self.n})", pos)
            return Var(index - 1)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def parse(text: str, n: int) -> ExprAST:
    """Parse ``text`` over variables x1..xn into an AST."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    parser = _Parser(text, n)
    try:
        return ExprAST(parser.parse(), n)
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


# ---------------------------------------------------------------------------
# Printing (used for round-trips and report echoing)

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Const: 5, Var: 5}


def to_string(ast: ExprAST) -> str:
    return _fmt(ast.root, 0)


def _fmt(node: Node, parent_prec: int) -> str:
    prec = _PREC[type(node)]
    if isinstance(node, Const):
        value = node.value + 0.0  # normalize -0.0 so the text round-trips
        text = repr(value)
        return f"({text})" if value < 0 else text
    if isinstance(node, Var):
        text = f"x{node.index + 1}"
    elif isinstance(node, Add):
        text = f"{_fmt(node.left, 1)} + {_fmt(node.right, 2)}"
    elif isinstance(node, Sub):
        text = f"{_fmt(node.left, 1)} - {_fmt(node.right, 2)}"
    elif isinstance(node, Mul):
        text = f"{_fmt(node.left, 2)}*{_fmt(node.right, 3)}"
    elif isinstance(node, Div):
        text = f"{_fmt(node.left, 2)}/{_fmt(node.right, 3)}"
    elif isinstance(node, Neg):
        text = f"-{_fmt(node.operand, 3)}"
    elif isinstance(node, Pow):
        text = f"{_fmt(node.base, 5)}^{node.exponent}"
    else:  # pragma: no cover
        raise TypeError(node)
    return f"({text})" if prec < parent_prec else text


# ---------------------------------------------------------------------------
# Forward-mode evaluation with gradient and Hessian

_DIV_FLOOR = 1e-300


def eval2(ast: ExprAST, x: np.ndarray) -> SecondOrderValue:
    """Evaluate value, gradient and Hessian of ``ast`` at ``x``.

    Exact (up to rounding) for polynomial input; division requires a
    nonzero denominator at the evaluation point.  ``x`` may also be a stack
    of points ``(B, n)``: values ``(B,)``, gradients ``(B, n)`` and Hessians
    ``(B, n, n)`` are then, row by row, bit for bit those of the single
    points, and a zero denominator in any row raises ``EvalError``.
    """
    x = np.asarray(x, dtype=float)
    v, g, h = _eval_root(ast, x, True)
    h = 0.5 * (h + h.swapaxes(-1, -2))
    if x.ndim == 1:
        return SecondOrderValue(v, g, h)
    values, grads, hess = np.empty((len(x), 1)), np.empty(x.shape), np.empty(x.shape + x.shape[-1:])
    values[...], grads[...], hess[...] = v, g, h
    return SecondOrderValue(values[:, 0], grads, hess)


def eval1(ast: ExprAST, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of ``ast`` at ``x``, bit for bit those of ``eval2``.

    ``x`` may also be a stack of points ``(B, n)``: the values ``(B,)`` and
    gradients ``(B, n)`` are then, row by row, bit for bit those of the
    single points.  A zero denominator in any row raises ``EvalError``.
    """
    x = np.asarray(x, dtype=float)
    v, g, _ = _eval_root(ast, x, False)
    if x.ndim == 1:
        return v, g
    # a stacked value is a (B, 1) column, or a float where it does not depend on x
    values, grads = np.empty((len(x), 1)), np.empty(x.shape)
    values[...], grads[...] = v, g
    return values[:, 0], grads


def _eval_root(ast: ExprAST, x, hess: bool):
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (ast.n,) or x.ndim > 2:
        raise ValueError(f"point has shape {x.shape}, expected ({ast.n},)")
    try:
        return _eval(ast.root, x, ast.n, hess)
    except RecursionError:
        raise EvalError("expression nested too deeply to evaluate") from None


def _row_power(b: np.ndarray, k: int) -> np.ndarray:
    """``b ** k`` element by element through the scalar power (libm ``pow``).

    numpy's array power does not give the bits of its scalar power (squares
    differ in about 1 of 1,000 random values), so a stack takes this path.
    ``pow(t, 1)`` is ``t`` and ``pow(t, 0)`` is 1 exactly, so neither needs a loop."""
    if k == 1:
        return b
    if k == 0:
        return np.ones_like(b)
    return np.array([t ** k for t in b.ravel()]).reshape(b.shape)


def _col(v):
    """A stacked value ``(B, 1)`` as ``(B, 1, 1)``, to scale stacked Hessians."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.outer`` of gradients, row by row for stacks ``(B, n)``."""
    return a[..., :, None] * b[..., None, :]


def _power(b, k: int):
    """``b ** k`` of a value: the scalar power, row by row for a stack."""
    return _row_power(b, k) if isinstance(b, np.ndarray) else b ** k


def _eval(node: Node, x: np.ndarray, n: int, hess: bool):
    """``(value, gradient, Hessian)`` of ``node``; the Hessian is None unless ``hess``.

    For a stack ``x`` of shape ``(B, n)`` a value is a ``(B, 1)`` column, a
    gradient ``(B, n)`` and a Hessian ``(B, n, n)``, so every rule broadcasts
    unchanged once ``_col`` lifts the values that scale a Hessian; subtrees
    free of variables keep their scalar values."""
    if isinstance(node, Const):
        return node.value, np.zeros(n), np.zeros((n, n)) if hess else None
    if isinstance(node, Var):
        g = np.zeros(n)
        g[node.index] = 1.0
        v = x[node.index] if x.ndim == 1 else x[:, node.index : node.index + 1]
        return v, g, np.zeros((n, n)) if hess else None
    if isinstance(node, Neg):
        v, g, h = _eval(node.operand, x, n, hess)
        return -v, -g, -h if hess else None
    if isinstance(node, (Add, Sub)):
        va, ga, ha = _eval(node.left, x, n, hess)
        vb, gb, hb = _eval(node.right, x, n, hess)
        if isinstance(node, Add):
            return va + vb, ga + gb, ha + hb if hess else None
        return va - vb, ga - gb, ha - hb if hess else None
    if isinstance(node, Mul):
        va, ga, ha = _eval(node.left, x, n, hess)
        vb, gb, hb = _eval(node.right, x, n, hess)
        return (
            va * vb,
            ga * vb + va * gb,
            ha * _col(vb) + _col(va) * hb + _outer(ga, gb) + _outer(gb, ga) if hess else None,
        )
    if isinstance(node, Div):
        va, ga, ha = _eval(node.left, x, n, hess)
        vb, gb, hb = _eval(node.right, x, n, hess)
        small = abs(vb) < _DIV_FLOOR
        if small.any() if isinstance(small, np.ndarray) else small:
            raise EvalError("division by zero")
        q = va / vb
        gq = (ga - q * gb) / vb
        if not hess:
            return q, gq, None
        return q, gq, (ha - _col(q) * hb - _outer(gq, gb) - _outer(gb, gq)) / _col(vb)
    if isinstance(node, Pow):
        vb, gb, hb = _eval(node.base, x, n, hess)
        k = node.exponent
        if k == 0:
            return 1.0, np.zeros(n), np.zeros((n, n)) if hess else None
        if k == 1:
            return vb, gb, hb
        vk1 = _power(vb, k - 1)
        v = vk1 * vb
        g = k * vk1 * gb
        if not hess:
            return v, g, None
        h = _col(k * vk1) * hb + _col(k * (k - 1) * _power(vb, k - 2)) * _outer(gb, gb)
        return v, g, h
    raise TypeError(node)  # pragma: no cover
