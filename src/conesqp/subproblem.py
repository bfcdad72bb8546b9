"""Solve one SQP subproblem: quadratic objective over a linearized cone constraint.

The subproblem is treated as the generalized equation for its KKT system

    g + H d + A^T lam = 0,      lam normal to the cone at c + A d,

not as a global minimization: the Hessian may be indefinite, in which case
minimizers can fail to exist while KKT points do (and vice versa).  Three
engines are provided:

* ``enumeration`` -- exhaustive active-pattern solve for purely polyhedral
  cones at small m; returns ALL KKT points, or the only one, which also
  certifies nonexistence when the list is empty.  The pattern of the hint
  multiplier is tried first.
* ``semismooth_newton`` -- damped Newton on the projection-based residual
  map, with deterministic multi-start; handles second-order blocks.
* ``splitting`` -- ADMM on the explicit splitting (direction, cone slack),
  for positive-semidefinite Hessians, polished by a few Newton steps.  One
  factorization makes each iteration an affine map, a projection and a dual
  update; a loose stop tries the polish early, and a tight stop backs it up.

Enumeration and Newton stop at the first KKT point found when
``_only_kkt_point`` shows it is the only one (``H`` positive definite, the
multiplier unique): any later pattern or start could only find it again.

Every engine returns a list of KKT points; ``solve_subproblem`` picks the one
nearest the hint, or classifies an empty list the same way for every engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, polyhedra
from .cones import ConeSpec
from .expr import EvalError
from .polyhedra import BudgetExceeded, Polyhedron

KKT_POINT = "KKTPoint"
NO_KKT_POINT = "NoKKTPoint"
UNBOUNDED = "Unbounded"
INFEASIBLE = "Infeasible"
ITER_LIMIT = "IterLimit"

ENGINE_ENUMERATION = "Enumeration"
ENGINE_NEWTON = "SemismoothNewton"
ENGINE_SPLITTING = "Splitting"

_TOL = 1e-9  # accepted KKT residual, relative to SubproblemData.scale
_SIGN_SLACK = 1e-10  # enumeration sign checks, relative to SubproblemData.scale
_N_STARTS = 50
_NEWTON_MAX_ITERS = 100
_ADMM_RHO = 1.0
_ADMM_MAX_ITERS = 20_000
_ADMM_RELAX = 1.6  # over-relaxation factor alpha (OSQP, Stellato et al. 2020, sec. 3.3)
_ADMM_LOOSE_TOL = 1e-6  # ADMM residuals, relative to SubproblemData.scale, of the first polish
_RAY_TRIES = 512  # sampled descent-ray candidates of each kind
_ARMIJO_STEPS = 0.5 ** np.arange(30)  # damped Newton step lengths, in order


@dataclass(frozen=True)
class SubproblemData:
    H: np.ndarray
    g: np.ndarray
    A: np.ndarray
    c: np.ndarray
    cone: ConeSpec

    def __post_init__(self):
        H, g, A, c = (np.asarray(v, float) for v in (self.H, self.g, self.A, self.c))
        n, m = g.shape[0], c.shape[0]
        if H.shape != (n, n) or A.shape != (m, n) or self.cone.total_dim != m:
            raise ValueError("inconsistent subproblem dimensions")
        with np.errstate(over="ignore"):  # nan or inf: a non-finite entry, or an overflowing scale
            norms = [np.linalg.norm(arr) for arr in (H, g, A, c)]
        for name, nrm in zip("HgAc", norms):
            if not np.isfinite(nrm):
                raise ValueError(f"subproblem {name} is not finite: its norm is {nrm}")
        if np.max(np.abs(H - H.T), initial=0.0) > 1e-12 * (1.0 + np.max(np.abs(H), initial=0.0)):
            raise ValueError("H must be symmetric")
        for name, arr in zip("HgAc", (0.5 * (H + H.T), g, A, c)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @property
    def scale(self) -> float:
        return 1.0 + float(np.linalg.norm(self.g)) + float(np.linalg.norm(self.c))

    def objective(self, d: np.ndarray) -> float:
        return float(self.g @ d + 0.5 * d @ self.H @ d)


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    engine: str | None = None  # force a specific engine (tests / cross-validation)


@dataclass(frozen=True)
class SubproblemSolution:
    status: str
    d: np.ndarray | None = None
    lam: np.ndarray | None = None
    residual: float = float("inf")
    engine: str = ""


def kkt_residual(data: SubproblemData, d: np.ndarray, lam: np.ndarray) -> float:
    """Independent re-verification of the subproblem KKT conditions."""
    stat = float(np.linalg.norm(data.g + data.H @ d + data.A.T @ lam))
    y = data.c + data.A @ d
    comp = cones.normal_cone_residual(data.cone, y, lam)
    feas = cones.distance(data.cone, y)
    return stat + comp + feas


# ---------------------------------------------------------------------------
# Enumeration engine (polyhedral cones)


def enumerate_kkt_points(data: SubproblemData, hint_lam: np.ndarray | None = None):
    """All KKT points of a purely polyhedral subproblem, or the only one, by active patterns.

    For every active/inactive pattern of orthant coordinates the KKT system
    restricted to that pattern is linear; solutions passing the sign checks
    are collected and deduplicated in pattern-number order.  The empty list
    certifies that the generalized equation has no solution.  The pattern of
    ``hint_lam`` (``cones.active_patterns``) goes first, and the first point
    found ends the search when ``_only_kkt_point`` shows it is the only one.
    """
    if not data.cone.is_polyhedral:
        raise ValueError("enumeration requires a purely polyhedral cone")
    if not cones.patterns_within_budget(data.cone):
        raise BudgetExceeded(f"enumeration limited to {cones.PATTERN_BUDGET} orthant coordinates")
    n, m = data.n, data.m
    scale = data.scale
    slack = _SIGN_SLACK * scale
    found: list[tuple[int, np.ndarray, np.ndarray]] = []
    for bits, active, orth_active, inactive in cones.active_patterns(data.cone, hint_lam):
        na = len(active)
        M = np.zeros((n + na, n + na))
        M[:n, :n] = data.H
        if na:
            M[:n, n:] = data.A[active].T
            M[n:, :n] = data.A[active]
        rhs = np.concatenate([-data.g, -data.c[active]])
        sol, _, rank, _ = np.linalg.lstsq(M, rhs, rcond=None)
        if float(np.linalg.norm(M @ sol - rhs)) > 1e-9 * scale:
            continue  # pattern system inconsistent
        if rank < n + na:
            sol = _resolve_degenerate_pattern(data, M, sol, orth_active, inactive, slack)
            if sol is None:
                continue
        d = sol[:n]
        lam = np.zeros(m)
        lam[active] = sol[n:]
        if not cones.pattern_signs_ok(lam, data.c + data.A @ d, orth_active, inactive, slack):
            continue
        # a full-rank pattern's c + A d lies in the cone within its residual
        # and slack (< 2 _TOL scale); with H definite, a rank-deficient one
        # has dependent active rows, so it is left to the full search
        if not found and rank == n + na and _only_kkt_point(data, d, 2 * _TOL * scale):
            return [(d, lam)]
        found.append((bits, d, lam))
    found.sort(key=lambda point: point[0])
    return _dedupe([(d, lam) for _, d, lam in found], tol=1e-9 * scale)


def _resolve_degenerate_pattern(data, M, sol0, orth_active, inactive, slack):
    """Pattern system ``M sol = rhs`` is singular, with least-squares solution
    ``sol0``: pick a sign-feasible point ``sol0 + null t`` of its solution set
    (if any) via the polyhedral engine."""
    n = data.n
    # k >= 1: the SVD rank cut lies far above the lstsq cut that sent us here
    null = polyhedra.null_basis(M, M.shape[1])  # (n+na, k)
    rows = []
    rhs_ub = []
    for i in range(M.shape[0] - len(orth_active), M.shape[0]):  # orthant lam_active <= 0
        rows.append(null[i])
        rhs_ub.append(slack - sol0[i])
    for j in inactive:  # (c + A d)_j >= 0
        row = -(data.A[j] @ null[:n])
        rows.append(row)
        rhs_ub.append(data.c[j] + data.A[j] @ sol0[:n] + slack)
    poly = Polyhedron.build(null.shape[1], a_ub=np.array(rows), b_ub=np.array(rhs_ub))
    t = polyhedra.feasible_point(poly)
    if t is None:
        return None
    return sol0 + null @ t


def _dedupe(points, tol):
    kept: list[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]] = []  # (d ++ lam, point)
    for point in points:
        vec = np.concatenate(point)
        if all(np.linalg.norm(vec - v) > tol for v, _ in kept):
            kept.append((vec, point))
    return [point for _, point in kept]


# ---------------------------------------------------------------------------
# Semismooth Newton engine


def row_norms(F: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of ``F``, bit for bit: its ``sqrt(f . f)``
    as a batched product (``norm(axis=-1)`` and ``einsum`` sum in another order)."""
    return np.sqrt(F[..., None, :] @ F[..., :, None])[..., 0, 0]


def _newton_steps(J: np.ndarray, F: np.ndarray, lstsq: bool):
    """The rows of ``J step = -F`` and a list of the rows that have none: one
    batched solve, or row by row for one row or a stack with a singular
    ``J``, where a singular row takes ``lstsq`` or, without it, is listed."""
    if len(F) > 1:
        try:
            return np.linalg.solve(J, -F[:, :, None])[:, :, 0], []
        except np.linalg.LinAlgError:
            pass
    steps, singular = np.empty_like(F), []
    for b in range(len(F)):
        try:
            steps[b] = np.linalg.solve(J[b], -F[b])
        except np.linalg.LinAlgError:
            if lstsq:
                steps[b] = np.linalg.lstsq(J[b], -F[b], rcond=None)[0]
            else:
                singular.append(b)
    return steps, singular


def _halved_steps(residual, x, lam, step, nrm, rows):
    """Per row, the first halved step ``2^-k`` (k = 1 ... 29) that passes the
    Armijo decrease: ``k``, an index into ``_ARMIJO_STEPS`` (-1 where none
    does), and the residual there.

    All 29 steps of all rows go through one ``residual`` call.  A point that
    is not evaluable there (``EvalError``) may be one that the row alone never
    reaches, so then every row tries its steps one at a time, in order, and
    an error is raised only where a row alone raises it."""
    R, n = x.shape
    K = len(_ARMIJO_STEPS)
    scaled = _ARMIJO_STEPS[1:, None] * step[:, None, :]  # (R, K - 1, n + m)
    X = x[:, None, :] + scaled[..., :n]
    LAM = lam[:, None, :] + scaled[..., n:]
    bounds = (1.0 - 1e-4 * _ARMIJO_STEPS[1:]) * nrm[:, None]
    first = np.full(R, -1)
    try:
        with np.errstate(all="ignore"):  # points a row alone may never reach
            F = residual(X.reshape(R * (K - 1), n), LAM.reshape(R * (K - 1), -1),
                         np.repeat(rows, K - 1))
            passed = row_norms(F).reshape(R, K - 1) < bounds
    except EvalError:
        F_first = np.empty((R, step.shape[1]))
        for r in range(R):
            for k in range(1, K):
                f = residual(X[r, k - 1][None], LAM[r, k - 1][None], rows[r : r + 1])
                if row_norms(f)[0] < bounds[r, k - 1]:
                    first[r], F_first[r] = k, f[0]
                    break
        return first, F_first
    found = passed.any(axis=1)
    first[found] = passed[found].argmax(axis=1) + 1
    return first, F.reshape(R, K - 1, -1)[np.arange(R), first - 1]


def damped_newton(cone: ConeSpec, residual, linearize, x0, lam0, tol: float, max_iters: int,
                  *, lstsq: bool):
    """Damped semismooth Newton on a projection residual of a cone-constrained
    KKT system, in lockstep over a stack of starts ``x0`` ``(B, n)``, ``lam0``
    ``(B, m)``.

    ``residual(x, lam, rows)`` gives the stacked rows ``(stationarity,
    y - proj(y + lam))`` and ``linearize(x, lam, rows)`` returns ``(H, A, y)``:
    the Lagrangian Hessians, the constraint Jacobians (either may be one
    matrix for every row) and the constraint values; ``rows`` names the start
    of each point.  Each start halves its step (at most 29 times) until the
    Armijo decrease holds, and stops where it stands when it never does.  A
    start whose Jacobian is singular takes the ``lstsq`` step, or, without
    ``lstsq``, stops where it stands before any residual is evaluated.  An
    iteration makes one stacked ``linearize``, projection Jacobian, solve and
    full-step residual for the live starts, plus one ``_halved_steps`` call
    for those whose full step fails; every row is bit for bit the run of its
    start alone.  Returns ``(x, lam, ||F||)``, stacked.
    """
    n, m = x0.shape[1], cone.total_dim
    X, LAM = x0.copy(), lam0.copy()
    rows = np.arange(len(X))
    F = residual(X, LAM, rows)
    RES = row_norms(F)
    x, lam, nrm = X, LAM, RES  # the live rows
    live = ~(nrm <= tol)
    eye = np.eye(m)
    for _ in range(max_iters):
        if np.count_nonzero(live) < len(rows):  # rows leave converged or stalled
            X[rows], LAM[rows], RES[rows] = x, lam, nrm
            rows, x, lam, F, nrm = rows[live], x[live], lam[live], F[live], nrm[live]
            if not rows.size:
                return X, LAM, RES
        H, A, y = linearize(x, lam, rows)
        P = cones.projection_jacobian(cone, y + lam)
        J = np.zeros((len(rows), n + m, n + m))
        J[:, :n, :n] = H
        J[:, :n, n:] = A.swapaxes(-1, -2)
        J[:, n:, :n] = (eye - P) @ A
        J[:, n:, n:] = -P
        step, singular = _newton_steps(J, F, lstsq)
        if singular:  # these rows leave where they stand
            X[rows], LAM[rows], RES[rows] = x, lam, nrm
            kept = np.delete(np.arange(len(rows)), singular)
            rows, x, lam, F, nrm, step = (a[kept] for a in (rows, x, lam, F, nrm, step))
            if not rows.size:
                return X, LAM, RES
        x_new, lam_new = x + step[:, :n], lam + step[:, n:]
        F_new = residual(x_new, lam_new, rows)
        nrm_new = row_norms(F_new)
        live = nrm_new < (1.0 - 1e-4) * nrm
        if np.count_nonzero(live) < len(rows):
            short = np.flatnonzero(~live)
            first, F_short = _halved_steps(residual, x[short], lam[short], step[short],
                                           nrm[short], rows[short])
            ok = first > 0
            stalled, short = short[~ok], short[ok]
            alpha = _ARMIJO_STEPS[first[ok], None]
            x_new[short] = x[short] + alpha * step[short, :n]
            lam_new[short] = lam[short] + alpha * step[short, n:]
            F_new[short], nrm_new[short] = F_short[ok], row_norms(F_short[ok])
            live[short] = True
            # a stalled row keeps its point and norm
            x_new[stalled], lam_new[stalled], nrm_new[stalled] = x[stalled], lam[stalled], nrm[stalled]
        x, lam, F, nrm = x_new, lam_new, F_new, nrm_new
        live &= nrm > tol  # an accepted norm is not nan
    X[rows], LAM[rows], RES[rows] = x, lam, nrm
    return X, LAM, RES


def _newton_from(data: SubproblemData, d0, lam0, max_iters: int):
    """``damped_newton`` from one start, as a one-row stack."""

    def residual(d, lam, rows):
        y = data.c + (data.A @ d[:, :, None])[:, :, 0]
        stat = data.g + (data.H @ d[:, :, None])[:, :, 0] + (data.A.T @ lam[:, :, None])[:, :, 0]
        return np.concatenate([stat, y - cones.project(data.cone, y + lam)], axis=1)

    def linearize(d, lam, rows):
        return data.H, data.A, data.c + (data.A @ d[:, :, None])[:, :, 0]

    tol = 1e-13 * (1.0 + float(np.linalg.norm(data.g)))
    d, lam, res = damped_newton(data.cone, residual, linearize, d0[None], lam0[None], tol, max_iters,
                                lstsq=True)
    return d[0], lam[0], float(res[0])


def _only_kkt_point(data: SubproblemData, d: np.ndarray, tol: float) -> bool:
    """Whether a KKT point with direction ``d`` is the only one.  A positive
    definite ``H`` (one Cholesky test) makes ``d`` unique.  At most one
    multiplier goes with ``d`` when the normal cone at ``y = c + A d`` is
    ``{B v : ...}`` (no second-order block at its apex) and ``A^T B`` has
    full column rank, so ``g + H d + A^T B v = 0`` fixes ``v``.

    The faces are read at ``tol`` by ``cones.normal_cone_basis``: every face
    active within it adds a column to ``B``, which can only fail the test.
    ``y`` must lie in the cone within ``tol`` (a point that passed the KKT
    residual test at ``tol`` does), or ValueError is raised."""
    try:
        np.linalg.cholesky(data.H)
    except np.linalg.LinAlgError:
        return False
    y = data.c + data.A @ d
    if not cones.contains(data.cone, y, tol):
        raise ValueError("y lies outside the cone beyond tolerance")
    basis = cones.normal_cone_basis(data.cone, y, tol)
    if basis is None:
        return False
    B = basis[0]
    return int(np.linalg.matrix_rank(data.A.T @ B)) == B.shape[1]


def semismooth_newton_solve(data: SubproblemData, hint, seed: int):
    """Multi-start semismooth Newton; returns all distinct KKT points found,
    or the first one alone when ``_only_kkt_point`` shows it is the only one."""
    n, m = data.n, data.m
    rng = np.random.default_rng(seed)
    hint_d, hint_lam = hint
    scale = data.scale

    def starts():  # each drawn when it is tried, so an early stop draws no more
        yield hint_d, hint_lam
        yield np.zeros(n), np.zeros(m)
        for _ in range(_N_STARTS - 2):
            spread = scale * 10 ** rng.uniform(-1.0, 1.0)
            yield hint_d + spread * rng.normal(size=n), hint_lam + spread * rng.normal(size=m)

    tol = _TOL * scale
    solutions: list[tuple[np.ndarray, np.ndarray]] = []
    for d0, lam0 in starts():
        d, lam, res = _newton_from(data, d0, lam0, _NEWTON_MAX_ITERS)
        if res <= tol:
            solutions.append((d, lam))
            if np.linalg.norm(np.concatenate([d - hint_d, lam - hint_lam])) <= tol * 10:
                break  # found the hint-adjacent solution, no need to keep searching
            if len(solutions) == 1 and _only_kkt_point(data, d, tol):
                break  # the only KKT point: later starts can only find it again
    return _dedupe(solutions, tol=1e-8 * scale)


# ---------------------------------------------------------------------------
# Splitting (ADMM) engine


def splitting_solve(data: SubproblemData):
    """ADMM on min g.d + 0.5 d.H.d  s.t.  s = c + A d, s in cone (H psd): ``[(d, lam)]``
    when a polished point passes the KKT tolerance, ``[]`` otherwise.

    ``M = H + rho A^T A`` is factored once, and the d-update is the affine map
    ``d = d0 + K (s - u)`` with ``K = rho M^-1 A^T``, so an iteration is
    ``y = y0 + W (s - u)`` (``W = A K``), one projection of the relaxed
    ``alpha y + (1 - alpha) s`` and the dual update.  At residuals of
    ``_ADMM_LOOSE_TOL`` a 25-step Newton polish is tried; when its point fails
    the KKT tolerance the iteration goes on to ``1e-11`` and polishes again."""
    eigs = np.linalg.eigvalsh(data.H)
    if eigs.min(initial=0.0) < -1e-9 * max(1.0, abs(eigs).max(initial=1.0)):
        return []
    rho, alpha = _ADMM_RHO, _ADMM_RELAX
    n, m = data.n, data.m
    M = data.H + rho * data.A.T @ data.A
    try:
        M_chol = np.linalg.cholesky(M + 1e-14 * np.eye(n) * max(1.0, np.trace(M)))
    except np.linalg.LinAlgError:
        return []
    # M^-1 [rho A^T, -(g + rho A^T c)] from the one factor
    rhs = np.column_stack([rho * data.A.T, -(data.g + rho * data.A.T @ data.c)])
    sol = np.linalg.solve(M_chol.T, np.linalg.solve(M_chol, rhs))
    K, d0 = sol[:, :m], sol[:, m]
    y0, W = data.c + data.A @ d0, data.A @ K
    scale = data.scale
    tol = _TOL * scale

    def polish(s, u):
        d, lam, _ = _newton_from(data, d0 + K @ (s - u), rho * u, 25)
        return [(d, lam)] if kkt_residual(data, d, lam) <= tol else []

    s = cones.project(data.cone, data.c)
    u = np.zeros(m)
    loose = True
    for _ in range(_ADMM_MAX_ITERS):
        y = y0 + W @ (s - u)
        y_relaxed = alpha * y + (1.0 - alpha) * s
        s_prev = s
        s = cones.project(data.cone, y_relaxed + u)
        u = u + y_relaxed - s
        primal = float(np.linalg.norm(y - s))
        dual = rho * float(np.linalg.norm(data.A.T @ (s - s_prev)))
        if loose and primal <= _ADMM_LOOSE_TOL * scale and dual <= _ADMM_LOOSE_TOL * scale:
            loose = False
            points = polish(s, u)
            if points:
                return points
        if primal <= 1e-11 * scale and dual <= 1e-11 * scale:
            break
    return polish(s, u)


# ---------------------------------------------------------------------------
# Status classification helpers (polyhedral feasibility / descent rays)


def _cone_rows(data: SubproblemData):
    """Rows for ``c + A d`` in a polyhedral cone: ``A_zero`` of the zero blocks
    (equalities), ``-A_orthant`` of the orthant blocks (``<=`` rows), and the
    zero-block mask."""
    zero = np.concatenate([np.full(b.dim, b.kind == cones.ZERO) for b in data.cone.blocks])
    return data.A[zero], -data.A[~zero], zero


def _linearized_feasible(data: SubproblemData) -> bool | None:
    """Feasibility of {d : c + A d in cone}; None when not decidable exactly."""
    if not data.cone.is_polyhedral:
        return None
    a_eq, a_ub, zero = _cone_rows(data)
    poly = Polyhedron.build(data.n, a_ub=a_ub, b_ub=data.c[~zero], a_eq=a_eq, b_eq=-data.c[zero])
    try:
        return polyhedra.is_feasible(poly)
    except BudgetExceeded:
        return None


def _descent_ray(data: SubproblemData, seed: int) -> np.ndarray | None:
    """A direction with A d in the cone's recession cone, g.d < 0 and
    nonpositive curvature: an unboundedness certificate.

    Exact polyhedral search; sampled (but individually verified) candidates
    otherwise.
    """
    if not data.cone.is_polyhedral:
        return _sampled_descent_ray(data, seed)
    a_eq, a_ub, _ = _cone_rows(data)
    a_ub = np.vstack([a_ub, data.g])  # the recession cone's rows, and g.d <= -1
    b_ub = np.append(np.zeros(a_ub.shape[0] - 1), -1.0)
    poly = Polyhedron.build(data.n, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=np.zeros(a_eq.shape[0]))
    try:
        ray = polyhedra.feasible_point(poly)
    except BudgetExceeded:
        return None
    if ray is not None and float(ray @ data.H @ ray) <= 1e-10 * (1.0 + float(ray @ ray)):
        return ray
    return None


def _sampled_descent_ray(data: SubproblemData, seed: int) -> np.ndarray | None:
    rng = np.random.default_rng(seed)

    def candidates():
        for _ in range(_RAY_TRIES):
            yield rng.normal(size=data.n)  # direct direction samples
        for _ in range(_RAY_TRIES):
            s = cones.sample_point(data.cone, rng)  # pull back a cone sample
            d, *_ = np.linalg.lstsq(data.A, s, rcond=None)
            if float(np.linalg.norm(data.A @ d - s)) <= 1e-10 * (1.0 + float(np.linalg.norm(s))):
                yield d

    for d in candidates():
        nrm = float(np.linalg.norm(d))
        if nrm < 1e-10:
            continue
        d = d / nrm
        if float(data.g @ d) >= -1e-8:
            d = -d
        if (
            float(data.g @ d) < -1e-8
            and float(d @ data.H @ d) <= 1e-10
            and cones.contains(data.cone, data.A @ d, tol=1e-12)
        ):
            return d
    return None


# ---------------------------------------------------------------------------
# Front end


def solve_subproblem(
    data: SubproblemData, hint: tuple[np.ndarray, np.ndarray] | None = None,
    cfg: SolverConfig | None = None,
) -> SubproblemSolution:
    """Find a KKT point of the subproblem, preferring the one nearest the hint."""
    cfg = cfg or SolverConfig()
    if hint is None:
        hint = (np.zeros(data.n), np.zeros(data.m))
    hint = (np.asarray(hint[0], float), np.asarray(hint[1], float))

    engine = cfg.engine
    if engine is None:
        engine = ENGINE_ENUMERATION if cones.patterns_within_budget(data.cone) else ENGINE_NEWTON
    if engine == ENGINE_ENUMERATION:
        points = enumerate_kkt_points(data, hint[1])
    elif engine == ENGINE_NEWTON:
        points = semismooth_newton_solve(data, hint, cfg.seed)
    elif engine == ENGINE_SPLITTING:
        points = splitting_solve(data)
    else:
        raise ValueError(f"unknown subproblem engine {engine!r}")
    # only the automatic choice falls back to splitting (psd Hessians); a
    # forced Newton run reports its own failure
    if not points and cfg.engine is None and engine == ENGINE_NEWTON:
        points = splitting_solve(data)
        if points:
            engine = ENGINE_SPLITTING

    if points:
        d, lam = _nearest(points, hint)
        return SubproblemSolution(KKT_POINT, d, lam, kkt_residual(data, d, lam), engine)
    # No KKT point: one classifier for every engine.  A feasible polyhedral
    # subproblem without one is unbounded below (Frank & Wolfe 1956), which a
    # descent ray certifies; else only enumeration certifies "no KKT point".
    if _linearized_feasible(data) is False:
        status = INFEASIBLE
    elif _descent_ray(data, cfg.seed) is not None:
        status = UNBOUNDED
    else:
        status = NO_KKT_POINT if engine == ENGINE_ENUMERATION else ITER_LIMIT
    return SubproblemSolution(status, engine=engine)


def _nearest(points, hint):
    hint_vec = np.concatenate(hint)

    def key(pt):
        vec = np.concatenate(pt)
        return (float(np.linalg.norm(vec - hint_vec)), tuple(np.round(vec, 12)))

    return min(points, key=key)
