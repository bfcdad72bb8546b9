"""Second-order stability diagnostics at a KKT point.

For a KKT pair (x, lam) the module decides, exactly wherever the critical
cone is polyhedral (which covers every supported block except a
second-order block sitting at its apex with a zero multiplier):

* the second-order sufficient condition: minimum over the unit sphere of
  ``w . hess_L . w + d2(jac_f w)`` over directions with ``jac_f w`` in the
  critical cone, by eigen-analysis on the faces of the constraint cone;
* noncriticality of the multiplier: whether the homogenized KKT inclusion
  ``0 in hess_L w + jac_f^T DN(jac_f w)`` admits a nonzero direction;
* the strict Robinson qualification in its dual form
  ``K* ∩ ker jac_f^T = {0}``, cross-checked against the primal
  range-plus-critical-cone form on polyhedral instances;
* calmness of the multiplier map via polyhedrality or strict
  complementarity (anything else is reported Inconclusive, never guessed);
* an empirical isolated-calmness probe that solves tilt/shift perturbed
  KKT systems at shrinking radii and records worst-case distance ratios.

Verdicts carry an explicit ``conclusive`` flag: sampled or multi-start
searches never masquerade as proofs.  ``classify_stationary_point`` runs
everything and cross-checks the verdicts against each other; a violated
biconditional with conclusive inputs is reported as a FAILURE artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import cones, expr, polyhedra
from . import problem as problem_mod
from .cones import CriticalCone
from .polyhedra import BudgetExceeded, Polyhedron
from .problem import KKTPair, LagrangianData, MultiplierSetAnalysis, ProblemSpec
from .subproblem import damped_newton, row_norms

CALM = "Calm"
INCONCLUSIVE = "Inconclusive"

PROBE_BOUNDED = "bounded"
PROBE_DIVERGING = "diverging"
PROBE_INDETERMINATE = "indeterminate"

_SSOC_THRESHOLD = 1e-8
_FACE_BUDGET = 14  # at most 2**_FACE_BUDGET face patterns
_SCREEN = 1e-6  # the noncriticality screen's margin, far above the 1e-9 tolerances
_TOL = 1e-8  # KKT gate
_SAMPLE_COUNT = 100  # safety-net samples for non-polyhedral searches
PROBE_RADII = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_PROBE_BALL = 0.5  # probe solutions farther than this from the point are ignored


@dataclass(frozen=True)
class DiagnosticsConfig:
    seed: int = 0
    probe_samples: int = 8  # random directions per radius, besides the axes
    run_probe: bool = True
    jobs: int = 1  # the probe runs serially; kept, at 1 only, for perfbench's calls

    def __post_init__(self):
        if self.probe_samples < 0:
            raise ValueError(f"probe_samples must be >= 0, got {self.probe_samples}")
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1 (the probe runs serially), got {self.jobs}")


@dataclass(frozen=True)
class SSOCResult:
    min_value: float  # +inf when the critical pre-image is {0}
    witness: np.ndarray | None
    conclusive: bool

    @property
    def holds(self) -> bool:
        return self.min_value > _SSOC_THRESHOLD


@dataclass(frozen=True)
class NoncriticalityResult:
    noncritical: bool
    witness: tuple[np.ndarray, np.ndarray] | None  # (w, u) when critical
    conclusive: bool
    reason: str = ""


@dataclass(frozen=True)
class SRCQResult:
    holds: bool
    certificate: str
    witness: np.ndarray | None
    conclusive: bool
    primal_crosscheck: bool | None = None  # None: not polyhedral, or out of row budget


@dataclass(frozen=True)
class CalmnessResult:
    verdict: str  # Calm | Inconclusive
    reason: str


@dataclass(frozen=True)
class RadiusSample:
    radius: float
    max_ratio: float
    n_solved: int
    n_samples: int


@dataclass(frozen=True)
class ProbeResult:
    samples: tuple[RadiusSample, ...]
    profile: str  # bounded | diverging | indeterminate
    growth: float  # ratio(smallest radius) / ratio(largest comparison radius)


@dataclass(frozen=True)
class DiagnosticsReport:
    point: KKTPair
    ssoc: SSOCResult
    srcq: SRCQResult
    noncriticality: NoncriticalityResult
    multiplier_calm: CalmnessResult
    multipliers: MultiplierSetAnalysis
    lambda_unique: bool | None
    calmness_probe: ProbeResult | None
    isolated_calmness_consistent: bool | None
    qualification_consistent: bool | None
    failures: tuple[str, ...] = field(default=())


def _gate(p: ProblemSpec, z: KKTPair) -> tuple[LagrangianData, CriticalCone]:
    """The Lagrangian data of z and its critical cone, once z passes the gate.

    The critical cone decides, once per point, which faces are active; every
    check below reads that decision from it.  A point far enough out
    overflows to inf or nan quietly, and its residual then fails the gate.
    """
    data, res = problem_mod.evaluate(p, z)
    scale = 1.0 + float(np.linalg.norm(z.lam))
    if not res.total <= _TOL * scale:  # a NaN residual fails too
        raise ValueError(
            f"point is not a KKT solution: residual {res.total:.3e} exceeds gate {_TOL * scale:.3e}"
        )
    try:
        K = cones.critical_cone(p.cone, data.f_val, z.lam, problem_mod.FACE_TOL)
    except ValueError as exc:
        raise ValueError(f"point is not a KKT solution: {exc}") from exc
    return data, K


# ---------------------------------------------------------------------------
# Second-order sufficient condition


def check_ssoc(p: ProblemSpec, z: KKTPair, cfg: DiagnosticsConfig | None = None) -> SSOCResult:
    """Minimum of the stability quadratic over unit critical directions.

    Exact by face enumeration plus eigen-analysis whenever the critical
    cone is polyhedral; a sampled upper bound (flagged inconclusive)
    otherwise.
    """
    cfg = cfg or DiagnosticsConfig()
    data, K = _gate(p, z)
    return _ssoc(p, K, _curvature(p, data, K), cfg)


def _curvature(p: ProblemSpec, data: LagrangianData, K: CriticalCone):
    """``(J, Hc, Q, E J, G J, walk)``: the constraint Jacobian, the cone's
    curvature matrix, the symmetric matrix ``Q`` of the stability quadratic,
    the critical cone's rows pulled back to directions, and ``_face_walk``
    when the cone is polyhedral and within the face budget (else None)."""
    J = data.jac_f
    Hc = K.curvature_matrix()
    Q = data.hess_xx + J.T @ Hc @ J
    Q = 0.5 * (Q + Q.T)
    EJ = (K.eq @ J) if K.eq.size else np.zeros((0, p.n))
    GJ = (K.ineq @ J) if K.ineq.size else np.zeros((0, p.n))
    walk = None
    if K.is_polyhedral and GJ.shape[0] <= _FACE_BUDGET:
        walk = _face_walk(Q, EJ, GJ, p.n)
    return J, Hc, Q, EJ, GJ, walk


def _face_walk(Q, EJ, GJ, n):
    """One pass over the faces S in ``(r, combinations)`` order: ``B_S`` is an
    orthonormal basis of ``{w : E J w = 0, G_S J w = 0}`` with the rank margin
    of ``polyhedra.null_basis``, and the eigenpairs of ``R_S = B_S' Q B_S``
    give the SSOC minimum.  Returns that ``SSOCResult`` and, in walk order,
    the S that the noncriticality screen cannot clear: on ``w = B_S t`` the
    pattern's stationarity row reads ``R_S t = 0``, so a face whose rank
    margin and every ``|eig R_S|`` clear ``_SCREEN`` has only w = 0.  No basis
    or eigenvector outlives its face."""
    q = GJ.shape[0]
    best = math.inf
    witness = None
    searched = []
    screen = _SCREEN * (1.0 + float(np.max(np.abs(Q))))
    for r in range(q + 1):
        for S in combinations(range(q), r):
            rows = np.vstack([EJ, GJ[list(S)]]) if (EJ.size or S) else np.zeros((0, n))
            B, margin = polyhedra.null_basis(rows, n, margin=True)
            R = B.T @ Q @ B
            vals, vecs = np.linalg.eigh(0.5 * (R + R.T))
            for theta, v in zip(vals, vecs.T):
                if not theta < best:  # this eigenpair cannot change the minimum
                    continue
                w = B @ v
                for s in (1.0, -1.0):
                    cand = s * w
                    if q == 0 or np.all(GJ @ cand <= 1e-9):
                        best = float(theta)
                        witness = cand
                        break
            if not (margin > _SCREEN and all(abs(t) > screen for t in vals.tolist())):
                searched.append(S)
    return SSOCResult(best, witness, conclusive=True), searched


def _ssoc(p: ProblemSpec, K: CriticalCone, curv, cfg: DiagnosticsConfig) -> SSOCResult:
    J, _, Q, E, G, walk = curv
    if walk is not None:
        return walk[0]
    return _ssoc_sampled(Q, E, G, K, J, p.n, cfg)


def _ssoc_sampled(Q, E, G, K: CriticalCone, J, n, cfg: DiagnosticsConfig) -> SSOCResult:
    rng = np.random.default_rng(cfg.seed)
    B = polyhedra.null_basis(E, n)
    if B.shape[1] == 0:
        return SSOCResult(math.inf, None, conclusive=True)  # only w = 0 is critical
    best = math.inf
    witness = None
    for _ in range(50 * _SAMPLE_COUNT):
        t = rng.normal(size=B.shape[1])
        w = B @ t
        nrm = float(np.linalg.norm(w))
        if nrm < 1e-12:
            continue
        w /= nrm
        if G.shape[0] and np.any(G @ w > 1e-9):
            continue
        if not K.contains(J @ w, tol=1e-9):
            continue
        val = float(w @ Q @ w)
        if val < best:
            best, witness = val, w
    return SSOCResult(best, witness, conclusive=False)


# ---------------------------------------------------------------------------
# Noncriticality


def check_noncriticality(
    p: ProblemSpec, z: KKTPair, cfg: DiagnosticsConfig | None = None
) -> NoncriticalityResult:
    """Search for a nonzero direction solving the homogenized KKT inclusion.

    Face enumeration over the critical cone makes the search exhaustive on
    polyhedral structure; second-order blocks at an apex fall back to a
    sampled search and can only certify criticality, not its absence.
    """
    cfg = cfg or DiagnosticsConfig()
    data, K = _gate(p, z)
    return _noncriticality(p, data, K, _curvature(p, data, K), cfg)


def _noncriticality(
    p: ProblemSpec, data: LagrangianData, K: CriticalCone, curv, cfg: DiagnosticsConfig
) -> NoncriticalityResult:
    J, Hc, Q, _, GJ, walk = curv
    if walk is not None:
        try:
            witness = _noncrit_face_search(p, data, K, Q, J, Hc, walk[1])
        except BudgetExceeded as exc:
            return NoncriticalityResult(False, None, conclusive=False, reason=str(exc))
        if witness is not None:
            return NoncriticalityResult(False, witness, conclusive=True)
        return NoncriticalityResult(True, None, conclusive=True)
    witness = _noncrit_sampled(p, data, K, Q, J, Hc, cfg)
    if witness is not None:
        return NoncriticalityResult(False, witness, conclusive=True)
    if K.is_polyhedral:
        reason = (f"sampled search only ({GJ.shape[0]} inequality rows exceed the face budget "
                  f"of {_FACE_BUDGET})")
    else:
        reason = "sampled search only (apex second-order block)"
    return NoncriticalityResult(True, None, conclusive=False, reason=reason)


def _noncrit_face_search(p, data, K: CriticalCone, Q, J, Hc, faces):
    """Exhaustive pattern search for a nonzero critical direction.

    Variables (w, a, b): ``Q w + J^T (E^T a + G_S^T b) = 0`` with the
    pattern rows of G tight on ``J w``, the rest slack, and ``b >= 0``.
    Solutions form a cone, so a nonzero direction exists iff some
    coordinate of ``w`` admits a nonzero value.  ``faces`` are the S that
    ``_face_walk``'s screen could not clear, in walk order.
    """
    n, m = p.n, p.m
    E, G = K.eq, K.ineq
    q = G.shape[0]
    for S in faces:
        S = list(S)
        notS = [i for i in range(q) if i not in S]
        p_eq = E.shape[0]
        nb = len(S)
        nvars = n + p_eq + nb
        gen = np.zeros((m, p_eq + nb))
        if p_eq:
            gen[:, :p_eq] = E.T
        if nb:
            gen[:, p_eq:] = G[S].T
        a_eq = np.zeros((n + p_eq + nb, nvars))
        a_eq[:n, :n] = Q
        a_eq[:n, n:] = J.T @ gen
        if p_eq:
            a_eq[n : n + p_eq, :n] = E @ J
        if nb:
            a_eq[n + p_eq :, :n] = G[S] @ J
        b_eq = np.zeros(n + p_eq + nb)
        rows_ub = []
        for i in notS:
            row = np.zeros(nvars)
            row[:n] = G[i] @ J
            rows_ub.append(row)
        for k in range(nb):
            row = np.zeros(nvars)
            row[n + p_eq + k] = -1.0
            rows_ub.append(row)
        poly = Polyhedron.build(
            nvars,
            a_ub=np.array(rows_ub).reshape(-1, nvars),
            b_ub=np.zeros(len(rows_ub)),
            a_eq=a_eq,
            b_eq=b_eq,
        )
        for sol in polyhedra.nonzero_points(poly, range(n)):
            w = sol[:n]
            u = Hc @ (J @ w) + gen @ sol[n:]
            if _verify_critical_witness(data, K, J, w, u):
                return w, u
    return None


def _verify_critical_witness(data, K: CriticalCone, J, w, u, tol: float = 1e-9) -> bool:
    scale = 1.0 + float(np.linalg.norm(w)) + float(np.linalg.norm(u))
    if float(np.linalg.norm(w)) <= 1e-7:
        return False
    if float(np.linalg.norm(data.hess_xx @ w + J.T @ u)) > tol * scale:
        return False
    v = J @ w
    if not K.contains(v, tol):
        return False
    return K.normal_cone_residual(v, u - K.curvature_matrix() @ v) <= tol * scale


def _normal_cone_generators(K: CriticalCone, v: np.ndarray, rng, tol=1e-8):
    """Generators (free part, nonneg part) of N_K(v), built from the local
    active structure; apex second-order blocks get sampled polar rays."""
    m = K.cone.total_dim
    free_rows = [row for row in K.eq]
    nonneg_rows = [row for row in K.ineq if abs(float(row @ v)) <= tol * (1 + np.linalg.norm(v))]
    for sl in K.soc_block_slices:
        vb = v[sl]
        d = sl.stop - sl.start
        nb = float(np.linalg.norm(vb))
        if nb <= tol:
            for _ in range(8):  # sampled polar rays at the apex
                g = rng.normal(size=d - 1)
                g /= max(np.linalg.norm(g), 1e-12)
                row = np.zeros(m)
                row[sl.start : sl.stop - 1] = g
                row[sl.stop - 1] = -1.0
                nonneg_rows.append(row)
        elif float(np.linalg.norm(vb[:-1])) >= vb[-1] - tol * (1 + nb):
            row = np.zeros(m)
            row[sl.start : sl.stop - 1] = vb[:-1] / max(np.linalg.norm(vb[:-1]), 1e-12)
            row[sl.stop - 1] = -1.0
            nonneg_rows.append(row)
    free = np.array(free_rows).reshape(-1, m)
    nonneg = np.array(nonneg_rows).reshape(-1, m)
    return free, nonneg


def _noncrit_sampled(p, data, K: CriticalCone, Q, J, Hc, cfg: DiagnosticsConfig):
    """Safety net: random-direction sign-constrained least-squares solves."""
    rng = np.random.default_rng(cfg.seed + 1)
    E = (K.eq @ J) if K.eq.size else np.zeros((0, p.n))
    B = polyhedra.null_basis(E, p.n)
    if B.shape[1] == 0:
        return None
    for _ in range(_SAMPLE_COUNT):
        w = B @ rng.normal(size=B.shape[1])
        nrm = float(np.linalg.norm(w))
        if nrm < 1e-12:
            continue
        w /= nrm
        v = J @ w
        if not K.contains(v, tol=1e-9):
            continue
        free, nonneg = _normal_cone_generators(K, v, rng)
        gen = np.vstack([free, nonneg]).T  # m x (p + q)
        if gen.size == 0:
            u = Hc @ v
            if _verify_critical_witness(data, K, J, w, u):
                return w, u
            continue
        target = -(Q @ w)
        M = J.T @ gen
        coef, *_ = np.linalg.lstsq(M, target, rcond=None)
        nfree = free.shape[0]
        for _ in range(300):  # clipped projected gradient enforces signs
            coef[nfree:] = np.maximum(coef[nfree:], 0.0)
            grad = M.T @ (M @ coef - target)
            lip = max(float(np.linalg.norm(M, 2)) ** 2, 1e-9)
            coef = coef - grad / lip
        coef[nfree:] = np.maximum(coef[nfree:], 0.0)
        u = Hc @ v + gen @ coef
        if _verify_critical_witness(data, K, J, w, u):
            return w, u
    return None


# ---------------------------------------------------------------------------
# Strict Robinson qualification (dual form, with polyhedral primal cross-check)


def check_srcq(p: ProblemSpec, z: KKTPair, cfg: DiagnosticsConfig | None = None) -> SRCQResult:
    """Triviality of ``K* ∩ ker jac_f^T`` at the KKT point."""
    cfg = cfg or DiagnosticsConfig()
    return _srcq(p, *_gate(p, z), cfg)


def _srcq(
    p: ProblemSpec, data: LagrangianData, K: CriticalCone, cfg: DiagnosticsConfig
) -> SRCQResult:
    J = data.jac_f
    B = polyhedra.null_basis(J.T, p.m)  # basis of ker J^T in R^m
    k = B.shape[1]
    if k == 0:
        return SRCQResult(True, "kernel of jac_f^T is trivial", None, True,
                          _srcq_primal(p, K, J) if K.is_polyhedral else None)
    if not K.is_polyhedral:
        witness = _srcq_sampled(K, B, cfg)
        if witness is not None:
            return SRCQResult(False, "nonzero polar direction in the kernel", witness, True)
        return SRCQResult(
            True, "no witness found by sampling (apex second-order block)", None, False
        )
    # K* is generated by the rows of E (free sign) and G (nonnegative sign)
    E, G = K.eq, K.ineq
    p_eq, q = E.shape[0], G.shape[0]
    nvars = p_eq + q + k
    gen = np.zeros((p.m, p_eq + q))
    if p_eq:
        gen[:, :p_eq] = E.T
    if q:
        gen[:, p_eq:] = G.T
    a_eq = np.hstack([gen, -B])
    rows_ub = np.zeros((q, nvars))
    for i in range(q):
        rows_ub[i, p_eq + i] = -1.0
    poly = Polyhedron.build(nvars, a_ub=rows_ub, b_ub=np.zeros(q), a_eq=a_eq, b_eq=np.zeros(p.m))
    try:
        for sol in polyhedra.nonzero_points(poly, range(p_eq + q, nvars)):
            u = B @ sol[p_eq + q :]
            if _verify_srcq_witness(K, J, u):
                return SRCQResult(False, "nonzero polar direction in the kernel", u, True,
                                  _srcq_primal(p, K, J))
    except BudgetExceeded as exc:
        return SRCQResult(True, f"budget exceeded: {exc}", None, False)
    return SRCQResult(True, "face enumeration exhausted", None, True, _srcq_primal(p, K, J))


def _verify_srcq_witness(K: CriticalCone, J, u, tol: float = 1e-8) -> bool:
    nrm = float(np.linalg.norm(u))
    if nrm <= 1e-7:
        return False
    u = u / nrm
    # u in the polar of K iff the projection of u onto K vanishes
    return (
        float(np.linalg.norm(K.project(u))) <= tol
        and float(np.linalg.norm(J.T @ u)) <= tol
    )


def _srcq_sampled(K: CriticalCone, B, cfg: DiagnosticsConfig):
    rng = np.random.default_rng(cfg.seed + 2)
    for _ in range(50 * _SAMPLE_COUNT):
        u = B @ rng.normal(size=B.shape[1])
        nrm = float(np.linalg.norm(u))
        if nrm < 1e-12:
            continue
        u /= nrm
        if float(np.linalg.norm(K.project(u))) <= 1e-9:
            return u
    return None


def _srcq_primal(p: ProblemSpec, K: CriticalCone, J) -> bool | None:
    """Primal form on polyhedral structure: the convex cone range(J) + K
    contains the positive spanning set e_1, ..., e_m, -(e_1 + ... + e_m), so
    it is all of R^m (Davis 1954).  None (not checked) when elimination runs
    out of its row budget."""
    n, m = p.n, p.m
    E, G = K.eq, K.ineq
    # variables (w, v): J w + v = target, v in K
    nvars = n + m
    a_eq = np.zeros((m + E.shape[0], nvars))
    a_eq[:m, :n] = J
    a_eq[:m, n:] = np.eye(m)
    if E.shape[0]:
        a_eq[m:, n:] = E
    a_ub = np.zeros((G.shape[0], nvars))
    if G.shape[0]:
        a_ub[:, n:] = G
    targets = np.zeros((m + E.shape[0], m + 1))  # columns e_1, ..., e_m, -(e_1 + ... + e_m)
    targets[:m, :m] = np.eye(m)
    targets[:m, m] = -1.0
    for poly in Polyhedron.build_each(nvars, a_ub, np.zeros(G.shape[0]), a_eq, targets):
        try:
            if not polyhedra.is_feasible(poly):
                return False
        except BudgetExceeded:
            return None
    return True


# ---------------------------------------------------------------------------
# Multiplier-map calmness


def check_multiplier_calmness(p: ProblemSpec, z: KKTPair, cfg: DiagnosticsConfig | None = None) -> CalmnessResult:
    """Calm for polyhedral cones; otherwise strict complementarity is the
    only sufficient condition implemented, anything else is Inconclusive.
    No ``cfg`` setting changes this check; it keeps the ``check_*`` signature."""
    return _multiplier_calmness(p, _gate(p, z)[1])


def _multiplier_calmness(p: ProblemSpec, K: CriticalCone) -> CalmnessResult:
    if p.cone.is_polyhedral:
        return CalmnessResult(CALM, "polyhedral constraint cone (Hoffman bound)")
    if not K.strictly_complementary:
        return CalmnessResult(INCONCLUSIVE, "strict complementarity fails")
    return CalmnessResult(CALM, "strict complementarity on every active second-order block")


# ---------------------------------------------------------------------------
# Empirical isolated-calmness probe


def _perturbed_kkt(p: ProblemSpec, x, lam, v, w):
    """``(r1, y)`` of the tilt/shift perturbed KKT system at (x, lam): the
    stationarity residual ``r1`` and the shifted value ``y = f(x) + w``, whose
    complementarity residual is ``y - proj(y + lam)``.

    Stacks ``x`` ``(B, n)`` and ``lam`` ``(B, m)``, with one perturbation or a
    stack of them, give stacked rows, bit for bit those of each point alone."""
    _, grad = expr.eval1(p.objective, x)
    f_val, jac_f = problem_mod.constraint_values(p, x)
    jt_lam = (jac_f.swapaxes(-1, -2) @ lam[..., None])[..., 0]
    return grad - v + jt_lam, f_val + w


def _perturbed_residual(p: ProblemSpec, x, lam, v, w):
    """The perturbed KKT residual at (x, lam); stacks give it row by row."""
    r1, y = _perturbed_kkt(p, x, lam, v, w)
    r2 = y - cones.project(p.cone, y + lam)
    return row_norms(r1) + row_norms(r2) + row_norms(y - cones.project(p.cone, y))


def _newton_perturbed(p: ProblemSpec, x0, lam0, v, w, active=None, max_iters=60):
    """Damped semismooth Newton, in lockstep, on tilt/shift perturbed KKT
    residuals: the start ``(x0[b], lam0[b])`` solves the system perturbed by
    ``(v[b], w[b])`` on ``p.cone`` to ``1e-13``; a singular row takes ``lstsq``.
    With a list ``active`` it solves the pattern system instead: the active
    rows are equalities (the zero cone), ``lam0`` holds their multipliers and
    the others are 0, the tolerance is ``1e-12`` and a singular row stops
    where it stands.  Returns ``(x, lam, ||F||)`` with every multiplier."""
    if active is None:
        cone, active_rows, tol = p.cone, slice(None), 1e-13
    else:
        cone = cones.zero(len(active)) if active else cones.ConeSpec(())
        active_rows, tol = active, 1e-12

    def full(lam):  # every multiplier, 0 off the rows solved for
        out = np.zeros((len(lam), p.m))
        out[:, active_rows] = lam
        return out

    def residual(x, lam, rows):
        r1, y = _perturbed_kkt(p, x, full(lam), v[rows], w[rows])
        y = y[:, active_rows]
        return np.concatenate([r1, y - cones.project(cone, y + lam)], axis=1)

    def linearize(x, lam, rows):
        data = problem_mod.lagrangian_data(p, KKTPair(x, full(lam)))
        return data.hess_xx, data.jac_f[:, active_rows], (data.f_val + w[rows])[:, active_rows]

    x, lam, res = damped_newton(cone, residual, linearize, x0, lam0, tol, max_iters,
                                lstsq=active is None)
    return x, full(lam), res


def _pattern_solutions(p: ProblemSpec, z: KKTPair, v, w):
    """Active-pattern Newton solves of the perturbed KKT system (polyhedral),
    for each row of ``(v, w)``; all rows of a pattern run in one lockstep
    ``damped_newton`` call, from z.  Returns ``(sols, ok)``: ``sols[i, k]``
    ``(x, lam)`` of row i and pattern k, a solution where ``ok[i, k]``."""
    patterns = list(cones.active_patterns(p.cone)) if cones.patterns_within_budget(p.cone) else []
    sols = np.zeros((len(v), len(patterns), p.n + p.m))
    ok = np.zeros(sols.shape[:2], bool)
    x0 = np.repeat(z.x[None], len(v), axis=0)
    for k, (active, orth_active, inactive) in enumerate(patterns):
        lam0 = np.repeat(z.lam[None, active], len(v), axis=0)
        x, lam, res = _newton_perturbed(p, x0, lam0, v, w, active)
        i = np.flatnonzero(res <= 1e-12)
        y = problem_mod.constraint_values(p, x[i])[0] + w[i]
        slack = 1e-9 * (1.0 + row_norms(lam[i]))[:, None]  # the signs of cones.pattern_signs_ok
        i = i[~np.any(lam[i][:, orth_active] > slack, axis=1)
              & ~np.any(y[:, inactive] < -slack, axis=1)]
        i = i[_perturbed_residual(p, x[i], lam[i], v[i], w[i]) <= 1e-8]
        sols[i, k], ok[i, k] = np.concatenate([x[i], lam[i]], axis=1), True
    return sols, ok


def _solve_perturbed(p: ProblemSpec, z: KKTPair, v, w, seeds):
    """All perturbed-KKT solutions found near z, for each row of ``(v, w)``:
    pattern enumeration (polyhedral cones) and five Newton starts, which row
    ``i`` draws from ``default_rng(seeds[i])``.  The starts of every row run
    in one lockstep ``damped_newton`` call.  Returns ``(sols, kept)`` as
    ``_pattern_solutions`` does, with the five starts after the patterns and
    ``kept`` each row's greedy dedupe in that order."""
    zv = np.concatenate([z.x, z.lam])
    r = row_norms(np.concatenate([v, w], axis=1))
    spread = np.stack(np.broadcast_arrays(0.0, r, np.sqrt(r), 0.1, 0.45), axis=1)
    noise = [np.random.default_rng(seed).normal(size=5 * len(zv)) for seed in seeds]
    starts = zv + spread[:, :, None] * np.reshape(noise, (len(v), 5, len(zv)))
    starts[:, 0] = zv
    starts = starts.reshape(-1, len(zv))
    x, lam, res = _newton_perturbed(p, starts[:, : p.n], starts[:, p.n :],
                                    np.repeat(v, 5, axis=0), np.repeat(w, 5, axis=0))
    pat, ok = _pattern_solutions(p, z, v, w)
    # res bounds both residual parts, and dist(y) <= ||r2|| because
    # proj(y + lam) lies in the cone: _perturbed_residual is at most 3 res
    conv = (res <= 1e-9).reshape(len(v), 5)
    found = np.concatenate([x, lam], axis=1).reshape(len(v), 5, -1)
    sols = np.concatenate([pat, np.where(conv[:, :, None], found, 0.0)], axis=1)
    kept = np.concatenate([ok, conv], axis=1)
    for k in range(1, sols.shape[1]):
        near = row_norms(sols[:, :k] - sols[:, k : k + 1]) <= 1e-9
        kept[:, k] &= ~np.any(kept[:, :k] & near, axis=1)
    return sols, kept


def probe_isolated_calmness(
    p: ProblemSpec, z: KKTPair, cfg: DiagnosticsConfig | None = None
) -> ProbeResult:
    """Solve tilt/shift perturbed KKT systems on shrinking spheres and record
    the worst distance-over-radius ratio among solutions near z.

    A profile that stays bounded as the radius shrinks is empirical
    evidence of isolated calmness of the perturbed solution map; a growing
    profile is evidence of its failure.  Corroborating evidence only: the
    decision-grade tests are the second-order checks.  Every radius and
    direction is one row of a single ``_solve_perturbed`` call.
    """
    cfg = cfg or DiagnosticsConfig()
    _gate(p, z)
    dim = p.n + p.m
    rng = np.random.default_rng(cfg.seed + 3)
    dirs = [e * s for e in np.eye(dim) for s in (1.0, -1.0)]
    for _ in range(cfg.probe_samples):
        d = rng.normal(size=dim)
        dirs.append(d / float(np.linalg.norm(d)))
    radii = np.repeat(PROBE_RADII, len(dirs))[:, None]
    pert = radii * np.tile(dirs, (len(PROBE_RADII), 1))
    seeds = [cfg.seed + 1000 * ri + si for ri in range(len(PROBE_RADII)) for si in range(len(dirs))]
    sols, kept = _solve_perturbed(p, z, pert[:, : p.n], pert[:, p.n :], seeds)
    dist = row_norms(sols - np.concatenate([z.x, z.lam]))
    near = kept & (dist <= _PROBE_BALL)
    shape = (len(PROBE_RADII), -1)
    best = np.where(near, dist / radii, 0.0).reshape(shape).max(axis=1)
    found = near.reshape(shape).sum(axis=1)
    samples = [RadiusSample(r, float(b), int(f), len(dirs))
               for r, b, f in zip(PROBE_RADII, best, found)]
    profile, growth = _classify_profile(samples)
    return ProbeResult(tuple(samples), profile, growth)


def _classify_profile(samples: list[RadiusSample]):
    by_radius = {s.radius: s.max_ratio for s in samples}
    big, small = by_radius[1e-2], by_radius[1e-6]
    if big == 0.0 and small == 0.0:
        return PROBE_BOUNDED, 1.0
    growth = small / max(big, 1e-300)
    if growth <= 3.0:
        return PROBE_BOUNDED, growth
    if growth >= 10.0:
        return PROBE_DIVERGING, growth
    return PROBE_INDETERMINATE, growth


# ---------------------------------------------------------------------------
# Full classification with cross-checks


def classify_stationary_point(
    p: ProblemSpec, z: KKTPair, cfg: DiagnosticsConfig | None = None
) -> DiagnosticsReport:
    """Run every diagnostic and cross-check the verdicts against each other.

    Two biconditionals are asserted whenever all ingredients are conclusive:

    * (SSOC and multiplier-map calm and unique multiplier)
      <=> (SSOC and strict Robinson qualification);
    * (unique multiplier and multiplier-map calm)
      <=> strict Robinson qualification.

    A conclusively critical multiplier together with a bounded probe
    profile is also flagged.  Violations are FAILURE artifacts.
    """
    cfg = cfg or DiagnosticsConfig()
    data, K = _gate(p, z)
    curv = _curvature(p, data, K)
    ssoc = _ssoc(p, K, curv, cfg)
    srcq = _srcq(p, data, K, cfg)
    noncrit = _noncriticality(p, data, K, curv, cfg)
    calm = _multiplier_calmness(p, K)
    msa = problem_mod._multipliers_of(p, data.grad_obj, data.jac_f, K)
    unique: bool | None = msa.unique if msa.status == "exact" else None
    probe = probe_isolated_calmness(p, z, cfg) if cfg.run_probe else None

    failures: list[str] = []
    iso_consistent: bool | None = None
    if ssoc.conclusive and srcq.conclusive and unique is not None and calm.verdict == CALM:
        lhs = ssoc.holds and unique  # calm is conclusively true here
        rhs = ssoc.holds and srcq.holds
        iso_consistent = lhs == rhs
        if not iso_consistent:
            failures.append(
                "FAILURE: isolated-calmness characterizations disagree "
                f"(ssoc={ssoc.holds}, unique={unique}, srcq={srcq.holds})"
            )
    qual_consistent: bool | None = None
    if srcq.conclusive and unique is not None:
        if calm.verdict == CALM:
            qual_consistent = (unique and True) == srcq.holds
            if not qual_consistent:
                failures.append(
                    "FAILURE: qualification biconditional violated "
                    f"(unique={unique}, calm, srcq={srcq.holds})"
                )
        elif srcq.holds and not unique:
            # qualification implies a unique multiplier regardless of calmness
            qual_consistent = False
            failures.append(
                "FAILURE: strict Robinson qualification holds but the multiplier is not unique"
            )
    if srcq.conclusive and srcq.primal_crosscheck is not None:
        if srcq.primal_crosscheck != srcq.holds:
            failures.append(
                "FAILURE: primal and dual strict-Robinson tests disagree "
                f"(dual={srcq.holds}, primal={srcq.primal_crosscheck})"
            )
    if probe is not None and noncrit.conclusive and not noncrit.noncritical:
        if probe.profile == PROBE_BOUNDED:
            failures.append(
                "FAILURE: critical multiplier with a bounded isolated-calmness probe"
            )
    return DiagnosticsReport(
        point=z,
        ssoc=ssoc,
        srcq=srcq,
        noncriticality=noncrit,
        multiplier_calm=calm,
        multipliers=msa,
        lambda_unique=unique,
        calmness_probe=probe,
        isolated_calmness_consistent=iso_consistent,
        qualification_consistent=qual_consistent,
        failures=tuple(failures),
    )
