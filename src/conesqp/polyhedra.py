"""Exact desk-scale polyhedral computations via Fourier-Motzkin elimination.

Systems are ``{x : a_ub @ x <= b_ub, a_eq @ x == b_eq}``.  ``Polyhedron.build``
removes the equalities once, by Gaussian elimination (x = T z + q over the
free variables); every query then projects the inequalities ``A z <= b``
variable by variable.  This gives exact feasibility tests, exact ranges of
linear functionals (including unboundedness), and feasible points by
back-substitution.  Intended for the small systems that arise from
multiplier sets and critical-cone faces; a row budget guards against blowup
and surfaces as ``BudgetExceeded`` so callers can report an inconclusive
verdict instead of a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import ELIMINATION_TOL, SVD_RANK_CUT

_DEDUP_DECIMALS = 10
_ROW_BUDGET = 50_000  # rows one elimination step may create


class BudgetExceeded(RuntimeError):
    """Row budget exhausted during elimination."""


class Infeasible(Exception):
    """Internal signal: a contradictory constant constraint appeared."""


@dataclass(frozen=True)
class Polyhedron:
    """The system, and its equalities reduced at ``tol``: ``x = T z + q``
    with ``A z <= b``.  ``T`` is None when the equalities are inconsistent.
    Queries decide at the same ``tol``."""

    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    tol: float
    T: np.ndarray | None
    q: np.ndarray | None
    A: np.ndarray | None
    b: np.ndarray | None

    @staticmethod
    def build(dim: int, a_ub=None, b_ub=None, a_eq=None, b_eq=None,
              tol: float = ELIMINATION_TOL) -> "Polyhedron":
        b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float).reshape(-1)
        return Polyhedron.build_each(dim, a_ub, b_ub, a_eq, b_eq[:, None], tol)[0]

    @staticmethod
    def build_each(dim: int, a_ub, b_ub, a_eq, b_eqs, tol: float = ELIMINATION_TOL) -> list["Polyhedron"]:
        """One polyhedron per column of ``b_eqs``, the equalities reduced once;
        each is bit for bit the one ``build`` makes from its column."""
        def rows(mat):
            if mat is None:
                return np.zeros((0, dim))
            arr = np.asarray(mat, float)
            if arr.ndim == 2:
                if arr.shape[1] != dim:
                    raise ValueError(f"rows have {arr.shape[1]} columns, expected {dim}")
                return arr
            if arr.size == 0:
                return np.zeros((0, dim))
            return arr.reshape(-1, dim)

        a_ub = rows(a_ub)
        b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, float).reshape(-1)
        a_eq = rows(a_eq)
        if a_ub.shape[0] != b_ub.shape[0] or a_eq.shape[0] != b_eqs.shape[0]:
            raise ValueError("row counts of matrices and right-hand sides disagree")
        T, qs, ok = _reduce_equalities(a_eq, b_eqs, tol)
        A = a_ub @ T
        return [Polyhedron(a_ub, b_ub, a_eq, b_eq, tol, T, q, A, b_ub - a_ub @ q) if good
                else Polyhedron(a_ub, b_ub, a_eq, b_eq, tol, None, None, None, None)
                for b_eq, q, good in zip(b_eqs.T, qs, ok)]

    @property
    def dim(self) -> int:
        return self.a_ub.shape[1]


def _reduce_equalities(a_eq: np.ndarray, b_eq: np.ndarray, tol: float):
    """Return (T, q, ok): for each column j of ``b_eq``, the solutions of
    ``a_eq x = b_eq[:, j]`` are ``x = T z + q[j]``, unless ``ok[j]`` is False:
    that system is inconsistent at tolerance ``tol`` (scaled by row
    magnitude).  Every row operation acts on each column alone, so a column's
    ``q`` has the bits it gets on its own.
    """
    dim = a_eq.shape[1]
    A = np.hstack([a_eq.astype(float), b_eq.astype(float)])
    origin = np.arange(A.shape[0])  # the a_eq row each row of A started as
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(dim):
        if row >= A.shape[0]:
            break
        k = row + int(np.argmax(np.abs(A[row:, col])))
        if abs(A[k, col]) <= tol * (1.0 + np.max(np.abs(A[k, :dim]), initial=0.0)):
            continue
        A[[row, k]] = A[[k, row]]
        origin[[row, k]] = origin[[k, row]]
        A[row] /= A[row, col]
        mask = np.arange(A.shape[0]) != row
        A[mask] -= np.outer(A[mask, col], A[row])
        pivots.append((row, col))
        row += 1
    ok = np.ones(A.shape[1] - dim, bool)
    for r in range(row, A.shape[0]):
        scale = 1.0 + float(np.max(np.abs(a_eq[origin[r]]), initial=0.0)) + np.abs(A[r, dim:])
        ok &= ~(np.abs(A[r, dim:]) > tol * scale)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(dim) if c not in pivot_cols]
    T = np.zeros((dim, len(free_cols)))
    q = np.zeros((len(ok), dim))
    for j, c in enumerate(free_cols):
        T[c, j] = 1.0
    for r, c in pivots:
        q[:, c] = A[r, dim:]
        for j, fc in enumerate(free_cols):
            T[c, j] = -A[r, fc]
    return T, q, ok


def _clean_rows(A: np.ndarray, b: np.ndarray, tol: float):
    """Normalize, detect constant contradictions, dedupe."""
    if A.shape[0] == 0:
        return A, b
    if A.shape[1] == 0:
        if np.any(b < -tol * (1.0 + np.abs(b))):
            raise Infeasible
        return A[:0], b[:0]
    scale = np.max(np.abs(A), axis=1)
    const = scale <= tol
    if np.any(b[const] < -tol * (1.0 + np.abs(b[const]))):
        raise Infeasible
    A, b, scale = A[~const], b[~const], scale[~const]
    A = A / scale[:, None]
    b = b / scale
    if A.shape[0] > 1:
        stacked = np.round(np.hstack([A, b[:, None]]), _DEDUP_DECIMALS)
        _, idx = np.unique(stacked, axis=0, return_index=True)
        A, b = A[np.sort(idx)], b[np.sort(idx)]
    return A, b


def _eliminate_last(A: np.ndarray, b: np.ndarray, tol: float):
    """Fourier-Motzkin elimination of the last column."""
    j = A.shape[1] - 1
    col = A[:, j]
    pos = col > tol
    neg = col < -tol
    zero = ~(pos | neg)
    A_zero, b_zero = A[zero][:, :j], b[zero]
    if not pos.any() or not neg.any():
        return _clean_rows(A_zero, b_zero, tol)
    Ap = A[pos] / col[pos, None]
    bp = b[pos] / col[pos]
    An = A[neg] / (-col[neg, None])
    bn = b[neg] / (-col[neg])
    if Ap.shape[0] * An.shape[0] + A_zero.shape[0] > _ROW_BUDGET:
        raise BudgetExceeded(f"fourier-motzkin would create {Ap.shape[0] * An.shape[0]} rows")
    new_A = (Ap[:, None, :j] + An[None, :, :j]).reshape(Ap.shape[0] * An.shape[0], j)
    new_b = (bp[:, None] + bn[None, :]).reshape(-1)
    return _clean_rows(np.vstack([A_zero, new_A]), np.concatenate([b_zero, new_b]), tol)


def _elimination_stack(A: np.ndarray, b: np.ndarray, tol: float):
    """Systems after eliminating trailing variables one at a time.

    Returns list of (A_k, b_k) over the first k variables, k = dim .. 0.
    Raises Infeasible if a contradiction shows up.
    """
    A, b = _clean_rows(A.copy(), b.copy(), tol)
    out = [(A, b)]
    while A.shape[1] > 0:
        A, b = _eliminate_last(A, b, tol)
        out.append((A, b))
    return out


def is_feasible(poly: Polyhedron) -> bool:
    if poly.T is None:
        return False
    if np.all(poly.b >= 0.0):
        return True  # z = 0 meets every row, and every row elimination derives
    try:
        _elimination_stack(poly.A, poly.b, poly.tol)
    except Infeasible:
        return False
    return True


def functional_range(poly: Polyhedron, c: np.ndarray):
    """Exact range (lo, hi) of c @ x over the polyhedron, or None if empty.

    Unbounded sides come back as -inf / +inf.
    """
    if poly.T is None:
        return None
    c = np.asarray(c, float)
    A, tol = poly.A, poly.tol
    cz = c @ poly.T
    c0 = float(c @ poly.q)
    # introduce t = cz . z as a trailing variable, then project everything else
    k = A.shape[1]
    A_aug = np.hstack([A, np.zeros((A.shape[0], 1))])
    rows = np.vstack(
        [A_aug, np.concatenate([cz, [-1.0]]), np.concatenate([-cz, [1.0]])]
    )
    rhs = np.concatenate([poly.b, [0.0, 0.0]])
    # reorder so t is the first column (it must survive elimination)
    perm = np.concatenate([[k], np.arange(k)]).astype(int)
    rows = rows[:, perm]
    try:
        stack = _elimination_stack(rows, rhs, tol)
    except Infeasible:
        return None
    A1, b1 = stack[-2]  # single remaining variable: t
    lo, hi = -np.inf, np.inf
    for a, bb in zip(A1[:, 0], b1):
        if a > tol:
            hi = min(hi, bb / a)
        elif a < -tol:
            lo = max(lo, bb / a)
    return lo + c0, hi + c0


def feasible_point(poly: Polyhedron):
    """Some point of the polyhedron, or None if empty."""
    if poly.T is None:
        return None
    A, tol = poly.A, poly.tol
    try:
        stack = _elimination_stack(A, poly.b, tol)
    except Infeasible:
        return None
    k = A.shape[1]
    z = np.zeros(k)
    for i in range(k):  # systems over i+1 variables, choose variable i+1 last
        Ai, bi = stack[k - (i + 1)]
        lo, hi = -np.inf, np.inf
        if Ai.shape[0]:
            resid = bi - Ai[:, :i] @ z[:i]
            col = Ai[:, i]
            for a, r in zip(col, resid):
                if a > tol:
                    hi = min(hi, r / a)
                elif a < -tol:
                    lo = max(lo, r / a)
        z[i] = _pick(lo, hi)
    return poly.T @ z + poly.q


def nonzero_points(poly: Polyhedron, coords):
    """For each coordinate ``j`` in ``coords`` that is not identically zero on
    the polyhedron, a point of it with ``x_j = +1`` (or ``-1``) when one is
    found.

    An inconsistent reduction, or one that leaves no free variable and a zero
    on every requested coordinate (the polyhedron is at most that one point),
    has no point to offer.  Otherwise the search stops at the first
    coordinate whose range comes back empty, for the same reason.
    """
    coords = list(coords)
    tol = poly.tol
    if poly.T is None or (poly.T.shape[1] == 0 and np.all(np.abs(poly.q[coords]) <= tol)):
        return
    for j in coords:
        c = np.zeros(poly.dim)
        c[j] = 1.0
        rng = functional_range(poly, c)
        if rng is None:
            return
        if rng[1] > tol:
            target = 1.0
        elif rng[0] < -tol:
            target = -1.0
        else:
            continue
        pinned = Polyhedron.build(
            poly.dim, a_ub=poly.a_ub, b_ub=poly.b_ub,
            a_eq=np.vstack([poly.a_eq, c]), b_eq=np.concatenate([poly.b_eq, [target]]), tol=tol,
        )
        point = feasible_point(pinned)
        if point is not None:
            yield point


def null_basis(rows: np.ndarray, dim: int, margin: bool = False):
    """Orthonormal basis (columns) of ``{x in R^dim : rows @ x = 0}``.  With
    ``margin``, also the smallest singular value the rank counts, relative to
    the cut's scale (inf when rows has rank 0): how far the rank is from
    falling."""
    if rows.size == 0:
        return (np.eye(dim), np.inf) if margin else np.eye(dim)
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    scale = max(float(s[0]) if s.size else 1.0, 1.0)
    rank = int(np.sum(s > SVD_RANK_CUT * scale))
    if margin:
        return vt[rank:].T, float(s[rank - 1]) / scale if rank else np.inf
    return vt[rank:].T


def _pick(lo: float, hi: float) -> float:
    if lo > hi:
        return 0.5 * (lo + hi)  # tolerance-level contradiction; split it
    if lo <= 0.0 <= hi:
        return 0.0
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(lo):
        return lo + 1.0
    return hi - 1.0
