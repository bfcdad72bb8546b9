"""Polynomial-style scalar expressions with forward-mode second-order AD.

Expressions use variables ``x1 .. xn``, numeric literals, the binary
operators ``+ - * /``, integer powers ``^``, parentheses and unary minus.
Precedence is ``^`` > unary ``-`` > ``* /`` > ``+ -`` with left
associativity for the binary arithmetic operators.  ``eval2`` returns the
value together with the exact gradient and dense Hessian, which is all the
smoothness the rest of the package needs (objectives and constraints are
assumed twice differentiable at the points where they are evaluated);
``eval1`` skips the Hessian for callers that only need the gradient.

Evaluation runs a tape per problem: ``evaluate`` compiles the objective and
constraints of a problem, on its first evaluation and without recursion,
into one program of straight-line scalar instructions for the structurally
nonzero entries of every value, gradient and Hessian, with the instructions
that expressions share emitted once, and keeps it on the problem; ``eval1``
and ``eval2`` are its one-expression case, kept on the ``ExprAST``.  A tape
gives the bits of the dense forward-mode rules except for the sign of exact
zeros, runs Python floats for a single point and ``(B,)`` columns for a
stack of points, and has no depth limit.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass

import numpy as np

from .tolerances import DIV_FLOOR


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
# Forward-mode evaluation with gradient and Hessian, on a tape

# An instruction ``(op, a, b)`` appends ``op(r[a], r[b])`` to the registers
# ``r``: the constants, then the inputs x1..xn, then one per instruction.
_MUL, _ADD, _SUB, _DIV, _POW = range(5)
# During a build a register is referenced as ``~j`` for constant j, ``i`` for
# input i, ``n + t`` for the t-th gradient-stream instruction and ``_HESS + t``
# for the t-th Hessian-stream one.
_HESS = 1 << 30
_LEAVES = (Const, Var)


def eval2(ast: ExprAST, x: np.ndarray) -> SecondOrderValue:
    """Evaluate value, gradient and Hessian of ``ast`` at ``x``.

    Exact (up to rounding) for polynomial input; division requires a
    nonzero denominator at the evaluation point.  ``x`` may also be a stack
    of points ``(B, n)``: values ``(B,)``, gradients ``(B, n)`` and Hessians
    ``(B, n, n)`` are then, row by row, bit for bit those of the single
    points, and a zero denominator in any row raises ``EvalError``.  This is
    ``evaluate`` of the one expression, on a tape kept on ``ast``.
    """
    value, grad, hess = evaluate(ast, (ast,), x, True)
    return SecondOrderValue(value[:, 0] if value.ndim == 2 else float(value[0]), grad[..., 0, :],
                            hess[..., 0, :, :])


def eval1(ast: ExprAST, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of ``ast`` at ``x`` or a stack, bit for bit those of
    ``eval2``; it runs the part of the tape before the Hessian."""
    value, grad = evaluate(ast, (ast,), x, False)
    return value[:, 0] if value.ndim == 2 else float(value[0]), grad[..., 0, :]


def evaluate(owner, asts: tuple[ExprAST, ...], x, hess: bool) -> list[np.ndarray]:
    """Values ``(k,)``, gradients ``(k, n)`` and, with ``hess``, Hessians
    ``(k, n, n)`` of the k expressions ``asts`` over x1..xn at ``x``, from one
    run of their tape.  A stack of points ``(B, n)`` puts ``B`` first in each
    output, row by row bit for bit the outputs of each point alone; a zero
    denominator in any row raises ``EvalError``.

    The first evaluation compiles ``asts`` into one tape of scalar
    instructions for the structurally nonzero entries, kept on ``owner`` (an
    expression for itself, a problem for its objective and constraints).
    Each entry takes the operations of the dense forward-mode rules, in
    their order, less the terms with a structurally zero factor, so its bits
    are those of dense evaluation except for the sign of an exact zero.
    Where a dropped term would have met a non-finite factor (where dense
    evaluation makes ``0 * inf = nan``), the point goes through a tape that
    keeps every term.  The tape is straight-line code without depth limit.
    """
    n = asts[0].n
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (n,) or x.ndim > 2:
        raise ValueError(f"point has shape {x.shape}, expected ({n},)")
    if x.ndim == 1:
        point = x.tolist()
        return _tape(owner, asts, False).point(point, hess) or _tape(owner, asts, True).point(point, hess)
    out, inexact = _tape(owner, asts, False).stack(x, hess)
    if inexact is not None and inexact.any():
        for full, rows in zip(out, _tape(owner, asts, True).stack(x[inexact], hess)[0]):
            full[inexact] = rows
    return out


def _tape(owner, asts, exact: bool) -> "_Tape":
    """The tape of ``asts``, built on first use and kept on ``owner``, so it is
    freed with it; the ``exact`` one serves the points where the other does
    not answer."""
    key = "_exact_tape" if exact else "_tape"
    tape = owner.__dict__.get(key)  # beside the fields, so equality and hashing ignore it
    if tape is None:
        tape = owner.__dict__[key] = _compile([a.root for a in asts], asts[0].n, exact)
    return tape


def _power(t, k: float):
    """``t ** k`` through the scalar power (libm ``pow``), for a value or a stack.

    numpy's array power does not give the bits of the scalar power (squares
    differ in about 1 of 1,000 random values), so a stack takes ``_row_power``.
    Where Python's ``**`` refuses an overflow, ``pow`` gives the infinity."""
    if isinstance(t, np.ndarray):
        return _row_power(t, k)
    try:
        return t**k
    except OverflowError:
        return math.copysign(math.inf, t) if k % 2 else math.inf


def _row_power(b: np.ndarray, k: float) -> np.ndarray:
    """``b ** k`` element by element through the scalar ``_power``."""
    t = b.tolist()
    try:
        return np.array([s**k for s in t])
    except OverflowError:
        return np.array([_power(s, k) for s in t])


def _run(code, r: list) -> None:
    """Append the registers of the instructions ``code`` to ``r``; the same
    loop runs Python floats for a point and ``(B,)`` columns for a stack."""
    push = r.append
    for op, a, b in zip(*code):
        if op == _MUL:
            push(r[a] * r[b])
        elif op == _ADD:
            push(r[a] + r[b])
        elif op == _SUB:
            push(r[a] - r[b])
        elif op == _DIV:
            push(r[a] / r[b])
        else:
            push(_power(r[a], r[b]))


class _Tape:
    """The straight-line program of k expressions (forward mode; Griewank &
    Walther, *Evaluating Derivatives*, 2008, ch. 3 and 13).

    ``grad_code`` computes the values and the gradients, then ``hess_code``
    the Hessians, already symmetrized; ``value``, ``grad`` and ``hess`` name
    the registers that hold the outputs, expression after expression (a zero
    constant where an entry is structurally zero).  ``checks`` are the
    denominators.  Each code is ``(ops, a, b)``: a ``bytes`` of operations
    and two ``array('i')`` of registers.  The tape answers only where the
    registers ``finite`` (a slice: the inputs and the gradient part) are
    finite, so where every factor of a dropped term is; ``finite`` is None
    when no term with a factor was dropped: the tape is ``exact`` (it keeps
    every term of the dense rules), or no expression built without every
    term has a product, quotient or power."""

    __slots__ = ("n", "k", "consts", "grad_code", "hess_code", "value", "grad", "hess", "checks",
                 "finite")

    def __init__(self, n, k, consts, grad_code, hess_code, value, grad, hess, checks, finite):
        self.n, self.k, self.consts, self.grad_code, self.hess_code = n, k, consts, grad_code, hess_code
        self.value, self.grad, self.hess, self.checks, self.finite = value, grad, hess, checks, finite

    def point(self, x: list, hess: bool):
        """``[values, gradients[, Hessians]]`` at the point ``x`` (a list of
        floats), or None where this tape does not answer."""
        r = self.consts.tolist() + x
        try:
            _run(self.grad_code, r)
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
        for c in self.checks:
            if abs(r[c]) < DIV_FLOOR:
                raise EvalError("division by zero")
        if self.finite is not None:
            runtime = r[self.finite]
            total = sum(runtime)  # finite only if every register is
            if total - total != 0.0 and not all(map(math.isfinite, runtime)):
                return None
        get = r.__getitem__
        out = [np.fromiter(map(get, self.value), float, self.k),
               np.fromiter(map(get, self.grad), float, len(self.grad)).reshape(self.k, self.n)]
        if hess:
            _run(self.hess_code, r)
            out.append(np.fromiter(map(get, self.hess), float, len(self.hess)).reshape(
                self.k, self.n, self.n))
        return out

    def stack(self, X: np.ndarray, hess: bool):
        """The stacked outputs at the rows of ``X`` ``(B, n)``, and the rows
        where this tape does not answer."""
        rows, k, n = len(X), self.k, self.n
        r = self.consts.tolist() + list(X.T)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero denominator is refused below
            _run(self.grad_code, r)
        for c in self.checks:
            if (abs(r[c]) < DIV_FLOOR).any():
                raise EvalError("division by zero")
        inexact = None
        if self.finite is not None:
            runtime = r[self.finite]
            inexact = ~np.isfinite(np.array(runtime).reshape(len(runtime), rows)).all(axis=0)
        out = [_columns(r, self.value, rows), _columns(r, self.grad, rows).reshape(rows, k, n)]
        if hess:
            _run(self.hess_code, r)
            out.append(_columns(r, self.hess, rows).reshape(rows, k, n, n))
        return out, inexact


def _columns(r: list, refs, rows: int) -> np.ndarray:
    """``(rows, len(refs))``: the registers ``refs`` side by side."""
    out = np.empty((rows, len(refs)))
    for k, ref in enumerate(refs):
        out[:, k] = r[ref]
    return out


class _Builder:
    """Emits one tape, of one or more expressions.  An operand is a register
    (``int``) or a constant (``float``), which gets a register only when an
    instruction or an output needs it.  Constant operations are folded in
    float64; ``1 * t`` is ``t`` bit for bit, so it emits nothing; equal
    instructions are emitted once, across expressions too (``*`` and ``+``
    commute bit for bit).  In each node's gradient ``g`` (keyed by ``i``) and
    Hessian ``h`` (keyed by ``i * n + j``) an absent entry is structurally
    zero, unless the expression is built ``exact``.  No rule changes a
    child's dictionaries, so children may share them."""

    def __init__(self, n: int):
        self.n, self.exact = n, False
        self.consts: list[float] = []
        self.const_refs: dict = {}
        self.finite = True  # every constant of this expression, folded or not, is finite
        self.codes = ([], [])  # (op, a, b) after (op, a, b), per stream
        self.stream = 0  # 1 while emitting Hessian entries
        self.memo: dict = {}
        self.checks: list[int] = []

    def reg(self, a: float) -> int:
        """The register of the constant ``a``."""
        key = a if a else (a, math.copysign(1.0, a))  # 0.0 and -0.0 apart
        ref = self.const_refs.get(key)
        if ref is None:
            ref = self.const_refs[key] = ~len(self.consts)
            self.consts.append(self.fold(a))
        return ref

    def fold(self, value: float) -> float:
        if value - value:  # nan for inf and nan
            self.finite = False
        return value

    def emit(self, op: int, a, b) -> int:
        if type(a) is float:
            a = self.reg(a)
        if type(b) is float:
            b = self.reg(b)
        key = (op, a, b)
        ref = self.memo.get(key)
        if ref is None or (ref >= _HESS and not self.stream):
            code = self.codes[self.stream]
            ref = self.memo[key] = (_HESS if self.stream else self.n) + len(code) // 3
            code += key
        return ref

    def mul(self, a, b):
        if type(a) is float:
            if a == 1.0:
                return b
            if type(b) is float:
                return a if b == 1.0 else self.fold(a * b)
            a = self.reg(a)
        elif type(b) is float:
            if b == 1.0:
                return a
            b = self.reg(b)
        return self.emit(_MUL, a, b) if a < b else self.emit(_MUL, b, a)

    def add(self, a, b):
        if type(a) is float:
            if type(b) is float:
                return self.fold(a + b)
            a = self.reg(a)
        elif type(b) is float:
            b = self.reg(b)
        return self.emit(_ADD, a, b) if a < b else self.emit(_ADD, b, a)

    def sub(self, a, b):
        if type(a) is float and type(b) is float:
            return self.fold(a - b)
        return self.emit(_SUB, a, b)

    def neg(self, a):
        return self.mul(-1.0, a)  # -1 * t is -t, bit for bit

    def div(self, a, b):
        if type(a) is float and type(b) is float:
            return self.fold(a / b)
        return self.emit(_DIV, a, b)

    def power(self, a, k: int):
        if k == 0:
            return 1.0  # pow(t, 0) is 1, even for nan
        if k == 1:
            return a
        if type(a) is float:
            return self.fold(_power(a, k))
        return self.emit(_POW, a, float(k))

    def check(self, b) -> None:
        """The denominator ``b`` must be nonzero: now for a constant, at run time otherwise."""
        if type(b) is int:
            self.checks.append(b)
        elif abs(b) < DIV_FLOOR:
            raise EvalError("division by zero")

    def zeros(self, size: int) -> dict:
        return dict.fromkeys(range(size), 0.0) if self.exact else {}

    def plus(self, acc: dict, terms) -> dict:
        """``acc + terms`` entry by entry, from ``(key, term)`` pairs; an absent
        entry of ``acc`` is zero.  Changes ``acc``."""
        add = self.add
        for key, t in terms:
            s = acc.get(key)
            acc[key] = t if s is None else add(s, t)
        return acc

    def minus(self, acc: dict, terms) -> dict:
        """``acc - terms``, as ``plus``."""
        sub, neg = self.sub, self.neg
        for key, t in terms:
            s = acc.get(key)
            acc[key] = neg(t) if s is None else sub(s, t)
        return acc

    def outer(self, ga: dict, gb: dict):
        """The ``(key, term)`` pairs of ``outer(ga, gb)``."""
        n, mul = self.n, self.mul
        return [(i * n + j, mul(ri, rj)) for i, ri in ga.items() for j, rj in gb.items()]


def _compile(roots: list, n: int, exact: bool, exact_ones=frozenset()) -> _Tape:
    """The tape of the expressions ``roots`` over x1..xn (see ``_Tape``),
    emitted by one builder.  Those with a non-finite constant (``exact_ones``
    on the second try) are built exact, since a dropped term may meet the
    constant anywhere, and last, so no other expression reads a register of
    theirs and the registers to test for ``finite`` are the ones before."""
    bld = _Builder(n)
    outs, products, cut, nonfinite = [None] * len(roots), False, None, []
    for e in sorted(range(len(roots)), key=exact_ones.__contains__):
        if e in exact_ones and cut is None:
            cut = len(bld.codes[0]) // 3
        bld.exact, bld.finite = exact or e in exact_ones, True
        v, g, h, dropped = _walk(bld, roots[e])
        outs[e] = v, g, h
        products = products or (dropped and not bld.exact)
        if not bld.finite and not bld.exact:
            nonfinite.append(e)
    if nonfinite:
        return _compile(roots, n, exact, frozenset(nonfinite))

    def reg(r) -> int:
        return r if type(r) is int else bld.reg(r)

    zero = reg(0.0)  # the structurally zero entries
    value, grad, hess = [], [], []
    bld.stream = 1
    for v, g, h in outs:
        value.append(reg(v))
        row = [zero] * n
        for i, r in g.items():
            row[i] = reg(r)
        grad += row
        row = [zero] * (n * n)
        for k, r in h.items():  # 0.5 * (h + h'), as one rule for every entry
            i, j = divmod(k, n)
            t = h.get(j * n + i)
            row[k] = reg(bld.mul(0.5, r if t is None else bld.add(r, t)))
        hess += row

    consts = len(bld.consts)
    code1, code2 = bld.codes
    shift = consts + n + len(code1) // 3 - _HESS
    cut = len(code1) // 3 if cut is None else cut

    def refs(seq) -> array:
        return array("i", [~r if r < 0 else r + consts if r < _HESS else r + shift for r in seq])

    return _Tape(n, len(roots), array("d", bld.consts),
                 (bytes(code1[::3]), refs(code1[1::3]), refs(code1[2::3])),
                 (bytes(code2[::3]), refs(code2[1::3]), refs(code2[2::3])),
                 refs(value), refs(grad), refs(hess), refs(dict.fromkeys(bld.checks)),
                 slice(consts, consts + n + cut) if products else None)


def _walk(bld: _Builder, root: Node):
    """``(value, gradient, Hessian, products)`` of the expression ``root``,
    emitted into ``bld``: one post-order walk without recursion, each node
    evaluated once (by ``id``); ``products`` tells whether it has a product,
    quotient or power, which may drop a term with a factor."""
    n = bld.n
    mul, add, sub, neg, plus, minus = bld.mul, bld.add, bld.sub, bld.neg, bld.plus, bld.minus
    g0, h0 = bld.zeros(n), bld.zeros(n * n)
    variables = []
    for i in range(n):
        g = bld.zeros(n)
        g[i] = 1.0
        variables.append((i, g, h0))
    done: dict = {}  # id(node) -> (value, gradient, Hessian), for every node but the leaves

    def leaf(node):
        if type(node) is Var:
            return variables[node.index]
        return bld.fold(float(node.value)), g0, h0

    products = False
    stack = [] if type(root) in _LEAVES else [(root, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if key in done:
            continue
        cls = type(node)
        if not ready:
            stack.append((node, True))
            if cls is Neg:
                child = node.operand
            elif cls is Pow:
                child = node.base
            else:
                child = node.right
                if type(child) not in _LEAVES:
                    stack.append((child, False))
                child = node.left
            if type(child) not in _LEAVES:
                stack.append((child, False))
            continue
        if cls is Neg:
            va, ga, ha = done.get(id(node.operand)) or leaf(node.operand)
            v, g = neg(va), {i: neg(r) for i, r in ga.items()}
            bld.stream = 1
            h = {k: neg(r) for k, r in ha.items()}
        elif cls is Pow:
            v, g, h = done.get(id(node.base)) or leaf(node.base)
            k = node.exponent
            if k == 0:  # the base was still evaluated: its denominators are checked
                v, g, h = 1.0, g0, h0
            elif k > 1:
                products = True
                vb, gb, hb = v, g, h
                vk1 = bld.power(vb, k - 1)
                v = mul(vk1, vb)
                c1 = mul(float(k), vk1)
                c2 = mul(float(k * (k - 1)), bld.power(vb, k - 2))
                g = {i: mul(c1, r) for i, r in gb.items()}
                bld.stream = 1
                h = plus({e: mul(c1, r) for e, r in hb.items()},
                         [(e, mul(c2, t)) for e, t in bld.outer(gb, gb)])
        else:
            va, ga, ha = done.get(id(node.left)) or leaf(node.left)
            vb, gb, hb = done.get(id(node.right)) or leaf(node.right)
            products = products or cls is Mul or cls is Div
            if cls is Add:
                v, g = add(va, vb), plus(dict(ga), gb.items()) if gb else ga
                bld.stream = 1
                h = plus(dict(ha), hb.items()) if hb else ha
            elif cls is Sub:
                v, g = sub(va, vb), minus(dict(ga), gb.items()) if gb else ga
                bld.stream = 1
                h = minus(dict(ha), hb.items()) if hb else ha
            elif cls is Mul:
                v = mul(va, vb)
                g = {i: mul(r, vb) for i, r in ga.items()}
                if gb:
                    plus(g, [(i, mul(va, r)) for i, r in gb.items()])
                bld.stream = 1
                h = {k: mul(r, vb) for k, r in ha.items()}
                if hb:
                    plus(h, [(k, mul(va, r)) for k, r in hb.items()])
                if ga and gb:
                    plus(plus(h, bld.outer(ga, gb)), bld.outer(gb, ga))
            else:  # Div
                bld.check(vb)
                v = q = bld.div(va, vb)
                g = minus(dict(ga), [(i, mul(q, r)) for i, r in gb.items()])
                g = {i: bld.div(r, vb) for i, r in g.items()}
                bld.stream = 1
                h = minus(dict(ha), [(k, mul(q, r)) for k, r in hb.items()])
                minus(minus(h, bld.outer(g, gb)), bld.outer(gb, g))
                h = {k: bld.div(r, vb) for k, r in h.items()}
        bld.stream = 0
        done[key] = v, g, h

    return (*(done.get(id(root)) or leaf(root)), products)
