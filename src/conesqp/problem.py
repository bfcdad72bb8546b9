"""Constrained problem model: min objective(x) subject to f(x) in a cone.

Holds the expression-based problem data, evaluates Lagrangian quantities,
KKT residuals, and analyzes the Lagrange multiplier set
``{lam : jac_f(x)^T lam = -grad_objective(x), lam normal to the cone at f(x)}``
exactly at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones, expr, polyhedra
from .cones import ConeSpec
from .expr import ExprAST
from .polyhedra import BudgetExceeded, Polyhedron

STATIONARITY_TOL = 1e-8
FACE_TOL = 1e-7  # which coordinates and second-order blocks count as active


@dataclass(frozen=True)
class KKTPair:
    x: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        object.__setattr__(self, "lam", np.asarray(self.lam, float))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.lam))):
            raise ValueError("KKT pair entries must be finite")

    def distance_to(self, other: "KKTPair") -> float:
        return float(np.linalg.norm(np.concatenate([self.x - other.x, self.lam - other.lam])))


@dataclass(frozen=True)
class KKTResidual:
    stationarity: float
    complementarity: float
    feasibility: float

    @property
    def total(self) -> float:
        return self.stationarity + self.complementarity + self.feasibility


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    n: int
    objective: ExprAST
    constraints: tuple[ExprAST, ...]
    cone: ConeSpec
    reference: KKTPair | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.objective.n != self.n or any(c.n != self.n for c in self.constraints):
            raise ValueError("expression dimension disagrees with problem dimension")
        if self.cone.total_dim != self.m:
            raise ValueError(
                f"cone dimension {self.cone.total_dim} != number of constraints {self.m}"
            )
        if self.reference is not None:
            if self.reference.x.shape != (self.n,) or self.reference.lam.shape != (self.m,):
                raise ValueError("reference point has wrong dimensions")

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class LagrangianData:
    grad_obj: np.ndarray  # gradient of the objective alone
    grad_x: np.ndarray
    hess_xx: np.ndarray
    f_val: np.ndarray
    jac_f: np.ndarray


def constraint_values(p: ProblemSpec, x: np.ndarray):
    """Values and Jacobian (m x n) of f at x, without the Hessians; a stack of
    points ``(B, n)`` gives ``(B, m)`` values and ``(B, m, n)`` Jacobians."""
    vals = np.empty(x.shape[:-1] + (p.m,))
    jac = np.empty(x.shape[:-1] + (p.m, p.n))
    for i, c in enumerate(p.constraints):
        vals[..., i], jac[..., i, :] = expr.eval1(c, x)
    return vals, jac


def lagrangian_data(p: ProblemSpec, z: KKTPair) -> LagrangianData:
    """Gradients, Hessian and constraint data of the Lagrangian at ``z``.

    A pair of stacks ``x`` ``(B, n)`` and ``lam`` ``(B, m)`` gives every field
    stacked, row by row bit for bit that of the point alone."""
    x, lam = z.x, z.lam
    stack = x.shape[:-1]
    obj = expr.eval2(p.objective, x)
    f_val = np.empty(stack + (p.m,))
    jac_f = np.empty(stack + (p.m, p.n))
    f_hess = np.empty(stack + (p.m, p.n, p.n))
    for i, c in enumerate(p.constraints):
        so = expr.eval2(c, x)
        f_val[..., i], jac_f[..., i, :], f_hess[..., i, :, :] = so.value, so.gradient, so.hessian
    # lam . f_hess as one (1, m) @ (m, n*n) product per point, not np.tensordot
    lam_hess = (lam[..., None, :] @ f_hess.reshape(stack + (p.m, p.n * p.n))).reshape(
        stack + (p.n, p.n))
    hess = obj.hessian + lam_hess
    return LagrangianData(
        grad_obj=obj.gradient,
        grad_x=obj.gradient + (jac_f.swapaxes(-1, -2) @ lam[..., None])[..., 0],
        hess_xx=0.5 * (hess + hess.swapaxes(-1, -2)),
        f_val=f_val,
        jac_f=jac_f,
    )


def kkt_residual(p: ProblemSpec, z: KKTPair) -> KKTResidual:
    return _kkt_residual_of(p, z, lagrangian_data(p, z))


def evaluate(p: ProblemSpec, z: KKTPair) -> tuple[LagrangianData, KKTResidual]:
    """The Lagrangian data of ``z`` and its KKT residual, from one evaluation.

    A point far enough out overflows to inf or nan quietly; its residual is
    then not finite, and the caller's tolerance test fails on it.
    """
    with np.errstate(all="ignore"):
        data = lagrangian_data(p, z)
        return data, _kkt_residual_of(p, z, data)


def _kkt_residual_of(p: ProblemSpec, z: KKTPair, data: LagrangianData) -> KKTResidual:
    """``kkt_residual`` from the Lagrangian data of ``z`` already at hand."""
    return KKTResidual(
        stationarity=float(np.linalg.norm(data.grad_x)),
        complementarity=cones.normal_cone_residual(p.cone, data.f_val, z.lam),
        feasibility=cones.distance(p.cone, data.f_val),
    )


# ---------------------------------------------------------------------------
# Multiplier set analysis


@dataclass(frozen=True)
class MultiplierSetAnalysis:
    status: str  # "exact" | "inconclusive"
    nonempty: bool
    unique: bool
    sample: np.ndarray | None
    bounding_box: tuple[tuple[float, float], ...] | None
    reason: str = ""


def multiplier_set_analysis(p: ProblemSpec, x: np.ndarray) -> MultiplierSetAnalysis:
    """Exact nonemptiness / uniqueness / per-coordinate bounds of the
    multiplier set at x, by eliminating the stationarity equations over the
    facially-parametrized normal cone.
    """
    x = np.asarray(x, float)
    _, grad = expr.eval1(p.objective, x)
    f_val, jac_f = constraint_values(p, x)
    try:
        # N_C(y) is the polar of the critical cone K(y, 0), the tangent cone
        K = cones.critical_cone(p.cone, f_val, np.zeros(p.m), FACE_TOL)
    except ValueError:
        return MultiplierSetAnalysis(
            "inconclusive", False, False, None, None, "f(x) lies outside the cone beyond tolerance"
        )
    return _multipliers_of(p, grad, jac_f, K)


def _multipliers_of(
    p: ProblemSpec, grad: np.ndarray, jac_f: np.ndarray, K: cones.CriticalCone
) -> MultiplierSetAnalysis:
    """``multiplier_set_analysis`` from the gradient, the Jacobian and the
    critical cone at the point, which fixes the active faces."""
    basis = K.multiplier_basis()
    if basis is None:
        return MultiplierSetAnalysis(
            "inconclusive", False, False, None, None, "second-order block at its apex"
        )
    B, neg_idx = basis
    eqtol = STATIONARITY_TOL * (1.0 + float(np.linalg.norm(grad)))
    k = B.shape[1]
    if k == 0:
        # no active structure anywhere: the only candidate multiplier is zero
        if float(np.linalg.norm(grad)) <= eqtol:
            box = tuple((0.0, 0.0) for _ in range(p.m))
            return MultiplierSetAnalysis("exact", True, True, np.zeros(p.m), box, "")
        return MultiplierSetAnalysis("exact", False, False, None, None, "no multiplier exists")
    a_eq = jac_f.T @ B  # n x k
    b_eq = -grad
    a_ub = np.zeros((len(neg_idx), k))
    for r, j in enumerate(neg_idx):
        a_ub[r, j] = 1.0
    poly = Polyhedron.build(k, a_ub=a_ub, b_ub=np.zeros(len(neg_idx)), a_eq=a_eq, b_eq=b_eq,
                            tol=eqtol)
    try:
        v0 = polyhedra.feasible_point(poly)
        if v0 is None:
            return MultiplierSetAnalysis("exact", False, False, None, None, "no multiplier exists")
        box = []
        width_tol = 1e-9 * (1.0 + float(np.linalg.norm(B @ v0)))
        unique = True
        for i in range(p.m):
            rng = polyhedra.functional_range(poly, B[i])
            if rng is None:
                return MultiplierSetAnalysis(
                    "inconclusive", True, False, None, None,
                    f"multiplier set at a tolerance edge: feasible, but elimination gave "
                    f"an empty range of lam[{i}]",
                )
            box.append((rng[0], rng[1]))
            width = rng[1] - rng[0]
            if not math.isfinite(width) or width > width_tol:
                unique = False
    except BudgetExceeded as exc:
        return MultiplierSetAnalysis("inconclusive", True, False, None, None, str(exc))
    return MultiplierSetAnalysis("exact", True, unique, B @ v0, tuple(box), "")
