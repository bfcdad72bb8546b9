"""Local SQP iteration with the exact Lagrangian Hessian in each subproblem.

Each step solves the generalized equation of the quadratic subproblem built
at the current primal-dual iterate (Newton's method for the KKT system) and
moves to the subproblem's KKT point nearest the hint ``(0, lam_k)``.  The
driver is intentionally local: there is no line search or trust region, a
subproblem without KKT points aborts the run (``SolvabilityFailure``), and
a primal-dual step larger than the localization radius aborts it as well
(``LocalizationViolated``) -- both phenomena are part of what the package
is built to observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import problem as problem_mod
from .problem import KKTPair, KKTResidual, LagrangianData, ProblemSpec
from .subproblem import (
    KKT_POINT,
    SolverConfig,
    SubproblemData,
    solve_subproblem,
)
from .tolerances import RATE_ZERO_FLOOR, SQP_STOP_TOL

CONVERGED = "Converged"
SOLVABILITY_FAILURE = "SolvabilityFailure"
LOCALIZATION_VIOLATED = "LocalizationViolated"
ITER_LIMIT = "IterLimit"

RATE_QUADRATIC = "Quadratic"
RATE_SUPERLINEAR = "Superlinear"
RATE_LINEAR = "Linear"
RATE_NONE = "None"


class InsufficientData(ValueError):
    """estimate_rate needs at least three error values."""


@dataclass(frozen=True)
class SQPConfig:
    max_iters: int = 50
    stop_tol: float = SQP_STOP_TOL
    delta: float = 1.0  # localization radius for primal-dual steps
    seed: int = 0

    def __post_init__(self):
        if self.max_iters <= 0 or self.stop_tol <= 0 or self.delta <= 0:
            raise ValueError("SQP configuration entries must be positive")


@dataclass(frozen=True)
class RateEstimate:
    classification: str
    ratios: tuple[float, ...] = ()


@dataclass(frozen=True)
class ConvergenceReport:
    status: str
    iterates: tuple[KKTPair, ...]
    residuals: tuple[KKTResidual, ...]
    errors_to_reference: tuple[float, ...] | None
    rate: RateEstimate
    failure_iter: int | None = None
    subproblem_status: str | None = None
    step_norms: tuple[float, ...] = field(default=())

    @property
    def final(self) -> KKTPair:
        return self.iterates[-1]


def build_subproblem(p: ProblemSpec, z: KKTPair) -> SubproblemData:
    """Quadratic model at z with the exact Lagrangian Hessian."""
    return _subproblem_of(p, problem_mod.lagrangian_data(p, z))


def _subproblem_of(p: ProblemSpec, data: LagrangianData) -> SubproblemData:
    return SubproblemData(
        H=data.hess_xx, g=data.grad_obj, A=data.jac_f, c=data.f_val, cone=p.cone
    )


def run_basic_sqp(p: ProblemSpec, z0: KKTPair, cfg: SQPConfig | None = None) -> ConvergenceReport:
    cfg = cfg or SQPConfig()
    z = z0
    data, residual = problem_mod.evaluate(p, z)  # one per iterate: residual and subproblem
    iterates = [z]
    residuals = [residual]
    step_norms: list[float] = []
    status = ITER_LIMIT
    failure_iter = None
    sub_status = None
    for k in range(cfg.max_iters):
        if residuals[-1].total <= cfg.stop_tol:
            status = CONVERGED
            break
        sol = solve_subproblem(
            _subproblem_of(p, data),
            hint=(np.zeros(p.n), z.lam),
            cfg=SolverConfig(seed=cfg.seed + k),
        )
        if sol.status != KKT_POINT:
            status = SOLVABILITY_FAILURE
            failure_iter = k
            sub_status = sol.status
            break
        z_next = KKTPair(z.x + sol.d, sol.lam)
        step = z_next.distance_to(z)
        step_norms.append(step)
        iterates.append(z_next)
        data, residual = problem_mod.evaluate(p, z_next)
        residuals.append(residual)
        z = z_next
        # a step that lands on a KKT point converges even if it was long;
        # the localization bound only polices non-terminal steps
        if residuals[-1].total > cfg.stop_tol and step > cfg.delta:
            status = LOCALIZATION_VIOLATED
            failure_iter = k
            break
    if status == ITER_LIMIT and residuals[-1].total <= cfg.stop_tol:
        status = CONVERGED
    errors = None
    rate = RateEstimate(RATE_NONE)
    if p.reference is not None:
        errors = tuple(it.distance_to(p.reference) for it in iterates)
        try:
            rate = estimate_rate(errors)
        except InsufficientData:
            rate = RateEstimate(RATE_NONE)
    return ConvergenceReport(
        status=status,
        iterates=tuple(iterates),
        residuals=tuple(residuals),
        errors_to_reference=errors,
        rate=rate,
        failure_iter=failure_iter,
        subproblem_status=sub_status,
        step_norms=tuple(step_norms),
    )


def estimate_rate(errors) -> RateEstimate:
    """Classify a positive error sequence as Quadratic / Superlinear / Linear.

    Ratios ``r_k = e_{k+1}/e_k`` drive the classification: superlinear
    requires strictly decreasing ratios ending at most 1e-2 and at most a
    tenth of the initial ratio; quadratic additionally requires the
    quotients ``e_{k+1}/e_k^2`` to stay in a bounded band over at least
    three steps.  Linear means ratios constant within 20% inside (0, 1).
    Sequences that terminate exactly at zero after at least one step are
    superlinear by definition (finite termination).
    """
    errors = [float(e) for e in errors]
    if any(e < 0 for e in errors):
        raise ValueError("errors must be nonnegative")
    floor = RATE_ZERO_FLOOR * (1.0 + max(errors, default=0.0))
    pos = list(errors)
    terminal_zeros = 0
    while pos and pos[-1] <= floor:
        pos.pop()
        terminal_zeros += 1
    if terminal_zeros and len(pos) >= 1:
        hit_zero = True
    else:
        hit_zero = False
    if not hit_zero and len(errors) < 3:
        raise InsufficientData("need at least 3 error values")
    if not pos:
        return RateEstimate(RATE_NONE)
    if any(e <= 0 for e in pos):
        raise ValueError("errors must be strictly positive before terminal zeros")

    seq = pos + ([0.0] if hit_zero else [])
    ratios = tuple(seq[i + 1] / seq[i] for i in range(len(seq) - 1))
    if not ratios:
        return RateEstimate(RATE_SUPERLINEAR if hit_zero else RATE_NONE)

    decreasing = all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    superlinear = decreasing and ratios[-1] <= 1e-2 and ratios[-1] <= 0.1 * ratios[0]
    if superlinear:
        quads = [
            pos[i + 1] / pos[i] ** 2
            for i in range(len(pos) - 1)
            if pos[i + 1] > floor
        ]
        if len(quads) >= 3 and max(quads) <= 100.0 and max(quads) <= 100.0 * min(quads):
            return RateEstimate(RATE_QUADRATIC, ratios)
        return RateEstimate(RATE_SUPERLINEAR, ratios)
    if len(ratios) >= 2 and all(0.0 < r < 1.0 for r in ratios):
        mean = sum(ratios) / len(ratios)
        if all(abs(r - mean) <= 0.2 * mean for r in ratios):
            return RateEstimate(RATE_LINEAR, ratios)
    return RateEstimate(RATE_NONE, ratios)
