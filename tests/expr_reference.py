"""The recursive dense evaluator: a reference for tests of the tape in
``conesqp.expr``.

``eval2`` and ``eval1`` here are the evaluators as they ran before the tape:
one recursive walk of the tree, with a dense ``n``-vector gradient and a
dense ``n x n`` Hessian at every node, and numpy float64 scalars for single
points.  Outside the sign of exact zeros, the tape must give exactly their
bits, raise ``EvalError`` on exactly the same inputs, and give NaN and
infinity exactly where they do.
"""

import numpy as np

from conesqp.expr import Add, Const, Div, EvalError, Mul, Neg, Pow, SecondOrderValue, Sub, Var

DIV_FLOOR = 1e-300


def eval2(ast, x) -> SecondOrderValue:
    x = np.asarray(x, dtype=float)
    v, g, h = _eval_root(ast, x, True)
    h = 0.5 * (h + h.swapaxes(-1, -2))
    if x.ndim == 1:
        return SecondOrderValue(v, g, h)
    values, grads, hess = np.empty((len(x), 1)), np.empty(x.shape), np.empty(x.shape + x.shape[-1:])
    values[...], grads[...], hess[...] = v, g, h
    return SecondOrderValue(values[:, 0], grads, hess)


def eval1(ast, x):
    x = np.asarray(x, dtype=float)
    v, g, _ = _eval_root(ast, x, False)
    if x.ndim == 1:
        return v, g
    values, grads = np.empty((len(x), 1)), np.empty(x.shape)
    values[...], grads[...] = v, g
    return values[:, 0], grads


def _eval_root(ast, x, hess: bool):
    if x.shape[-1:] != (ast.n,) or x.ndim > 2:
        raise ValueError(f"point has shape {x.shape}, expected ({ast.n},)")
    try:
        return _eval(ast.root, x, ast.n, hess)
    except RecursionError:
        raise EvalError("expression nested too deeply to evaluate") from None


def _row_power(b: np.ndarray, k: int) -> np.ndarray:
    """``b ** k`` element by element through numpy's scalar power (libm ``pow``)."""
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
    return _row_power(b, k) if isinstance(b, np.ndarray) else b ** k


def _eval(node, x: np.ndarray, n: int, hess: bool):
    """``(value, gradient, Hessian)`` of ``node``; the Hessian is None unless ``hess``.

    For a stack ``x`` of shape ``(B, n)`` a value is a ``(B, 1)`` column, a
    gradient ``(B, n)`` and a Hessian ``(B, n, n)``; subtrees free of
    variables keep their scalar values."""
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
        small = abs(vb) < DIV_FLOOR
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
