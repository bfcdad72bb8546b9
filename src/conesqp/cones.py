"""Geometry kernel for products of zero / orthant / second-order cone blocks.

Provides Euclidean projections, normal- and tangent-cone membership tests,
the critical cone ``K(y, lam) = T(y) ∩ {lam}^⊥`` with an explicit facial
description, the closed-form second subderivative of the cone's indicator
at ``(y, lam)``, the graphical derivative of the normal-cone map, and a
difference-quotient oracle that estimates the second subderivative
numerically without using any of the closed forms.

Conventions.  A second-order block of dimension ``d`` is
``{(zbar, z_d) : ||zbar|| <= z_d}`` (last coordinate is the axis).  At a
boundary point ``y != 0`` the normal cone is the ray through
``a = (ybar/||ybar||, -1)``; we write the multiplier block as ``mu * a``
with ``mu = -lam_d >= 0``.  Extended-real results use ``math.inf``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

ZERO = "zero"
ORTHANT = "orthant"
SOC = "soc"

_KINDS = (ZERO, ORTHANT, SOC)

# The one tolerance of the tests no caller tunes.  ``contains``,
# ``critical_cone``, ``CriticalCone.contains`` and ``proto_derivative_contains``
# default to it and take their own, for callers that decide at another.
_TOL = 1e-8


@dataclass(frozen=True)
class ConeBlock:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown cone block kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("block dimension must be >= 1")
        if self.kind == SOC and self.dim < 2:
            raise ValueError("second-order blocks need dimension >= 2")


@dataclass(frozen=True)
class ConeSpec:
    """A product of cone blocks, in block order; with no block, ``{0}`` in ``R^0``."""

    blocks: tuple[ConeBlock, ...]
    # derived from ``blocks`` once; not part of equality, hash or repr
    total_dim: int = field(init=False, repr=False, compare=False)
    _slices: tuple[tuple[ConeBlock, slice], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        out, offset = [], 0
        for block in self.blocks:
            out.append((block, slice(offset, offset + block.dim)))
            offset += block.dim
        object.__setattr__(self, "total_dim", offset)
        object.__setattr__(self, "_slices", tuple(out))

    def slices(self) -> tuple[tuple[ConeBlock, slice], ...]:
        return self._slices

    @property
    def is_polyhedral(self) -> bool:
        return all(b.kind != SOC for b in self.blocks)


def zero(dim: int) -> ConeSpec:
    return ConeSpec((ConeBlock(ZERO, dim),))


def orthant(dim: int) -> ConeSpec:
    return ConeSpec((ConeBlock(ORTHANT, dim),))


def second_order(dim: int) -> ConeSpec:
    return ConeSpec((ConeBlock(SOC, dim),))


def product(*specs: ConeSpec) -> ConeSpec:
    blocks: list[ConeBlock] = []
    for spec in specs:
        blocks.extend(spec.blocks)
    return ConeSpec(tuple(blocks))


def _check_dim(cone: ConeSpec, vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (cone.total_dim,):
        raise ValueError(f"{name} has shape {vec.shape}, expected ({cone.total_dim},)")
    return vec


# ---------------------------------------------------------------------------
# Projection and membership


def _project_soc(z: np.ndarray) -> np.ndarray:
    zbar, zm = z[:-1], z[-1]
    r = float(np.linalg.norm(zbar))
    if r <= zm:
        return z.copy()
    if r <= -zm:
        return np.zeros_like(z)
    alpha = 0.5 * (r + zm)
    out = np.empty_like(z)
    out[:-1] = alpha * zbar / r
    out[-1] = alpha
    return out


def project(cone: ConeSpec, y: np.ndarray) -> np.ndarray:
    """Blockwise Euclidean projection onto the cone.

    A stack ``(B, m)`` is projected row by row, each row bit for bit as alone."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (cone.total_dim,) or y.ndim > 2:
        raise ValueError(f"y has shape {y.shape}, expected ({cone.total_dim},)")
    out = np.empty_like(y)
    for block, sl in cone.slices():
        if block.kind == ZERO:
            out[..., sl] = 0.0
        elif block.kind == ORTHANT:
            out[..., sl] = np.maximum(y[..., sl], 0.0)
        elif y.ndim == 1:
            out[sl] = _project_soc(y[sl])
        elif len(y) == 1:  # a stack of one point
            out[0, sl] = _project_soc(y[0, sl])
        else:
            out[:, sl] = _project_soc_rows(y[:, sl])
    return out


def _project_soc_rows(z: np.ndarray) -> np.ndarray:
    """``_project_soc`` of each row of ``z``, bit for bit."""
    zbar, zm = z[:, :-1], z[:, -1:]
    r = np.sqrt(zbar[:, None, :] @ zbar[:, :, None])[:, 0]  # np.linalg.norm's bits
    inside, polar = r <= zm, r <= -zm
    boundary = ~inside & ~polar
    r = np.where(boundary, r, 1.0)  # no division by zero where the formula is not taken
    alpha = 0.5 * (r + zm)
    proj = np.concatenate([alpha * zbar / r, alpha], axis=1)
    return np.where(inside, z, np.where(polar, 0.0, proj))


def _soc_jacobian(z: np.ndarray) -> np.ndarray:
    """The generalized Jacobian block of ``_project_soc`` at one point."""
    zbar, zm = z[:-1], z[-1]
    r = float(np.linalg.norm(zbar))
    d = len(z)
    if r <= zm:
        return np.eye(d)
    if r <= -zm:
        return np.zeros((d, d))
    s = zbar / r
    J = np.empty((d, d))
    J[:-1, :-1] = 0.5 * ((1.0 + zm / r) * np.eye(d - 1) - (zm / r) * np.outer(s, s))
    J[:-1, -1] = 0.5 * s
    J[-1, :-1] = 0.5 * s
    J[-1, -1] = 0.5
    return J


def _soc_jacobian_rows(z: np.ndarray) -> np.ndarray:
    """``_soc_jacobian`` of each row of ``z``, bit for bit."""
    B, d = z.shape
    zbar, zm = z[:, :-1], z[:, -1]
    r = np.sqrt(zbar[:, None, :] @ zbar[:, :, None])[:, 0, 0]  # np.linalg.norm's bits
    inside = r <= zm
    boundary = ~inside & ~(r <= -zm)  # projected onto the boundary, not the apex
    P = np.zeros((B, d, d))
    P[inside] = np.eye(d)
    s, t = zbar[boundary] / r[boundary, None], (zm[boundary] / r[boundary])[:, None, None]
    J = np.empty((len(s), d, d))
    J[:, :-1, :-1] = 0.5 * ((1.0 + t) * np.eye(d - 1) - t * (s[:, :, None] * s[:, None, :]))
    J[:, :-1, -1] = 0.5 * s
    J[:, -1, :-1] = 0.5 * s
    J[:, -1, -1] = 0.5
    P[boundary] = J
    return P


def projection_jacobian(cone: ConeSpec, z: np.ndarray) -> np.ndarray:
    """An element of the generalized Jacobian of the cone projection at z.

    A stack ``(B, m)`` gives ``(B, m, m)``, each row bit for bit as alone."""
    zs = np.atleast_2d(z)
    P = np.zeros((len(zs), cone.total_dim, cone.total_dim))
    for block, sl in cone.slices():
        zb = zs[:, sl]
        if block.kind == ORTHANT:
            idx = np.arange(sl.start, sl.stop)
            P[:, idx, idx] = np.where(zb > 0.0, 1.0, np.where(zb < 0.0, 0.0, 0.5))
        elif block.kind == SOC and len(zs) == 1:  # one point, or a stack of one
            P[0, sl, sl] = _soc_jacobian(zb[0])
        elif block.kind == SOC:
            P[:, sl, sl] = _soc_jacobian_rows(zb)
    return P if z.ndim == 2 else P[0]


PATTERN_BUDGET = 10  # orthant coordinates of an active-pattern search: 2**10 patterns


def patterns_within_budget(cone: ConeSpec) -> bool:
    """Whether subproblem enumeration and the probe's pattern solves may run on the cone."""
    orthant_dim = sum(b.dim for b in cone.blocks if b.kind == ORTHANT)
    return cone.is_polyhedral and orthant_dim <= PATTERN_BUDGET


def active_patterns(cone: ConeSpec, lam: np.ndarray | None = None):
    """Every active set of a polyhedral cone, as ``(bits, active, orthant_active, inactive)``.

    Zero coordinates are always active; bit k of the pattern number ``bits``
    makes the k-th orthant coordinate active.  The patterns come in the order
    of their numbers, except that the one making exactly the orthant
    coordinates with ``lam < 0`` active comes first.
    """
    zero_idx: list[int] = []
    orth_idx: list[int] = []
    for block, sl in cone.slices():
        (zero_idx if block.kind == ZERO else orth_idx).extend(range(sl.start, sl.stop))
    first = 0 if lam is None else sum(1 << k for k, j in enumerate(orth_idx) if lam[j] < 0)
    for bits in itertools.chain([first], (b for b in range(2 ** len(orth_idx)) if b != first)):
        orth_active = [j for k, j in enumerate(orth_idx) if bits >> k & 1]
        active = zero_idx + orth_active
        yield bits, active, orth_active, [j for j in range(cone.total_dim) if j not in active]


def pattern_signs_ok(lam: np.ndarray, y: np.ndarray, orth_active, inactive, slack: float) -> bool:
    """Sign conditions of an active pattern: ``lam <= slack`` on the active
    orthant coordinates and ``y >= -slack`` on the inactive ones."""
    return not (any(lam[j] > slack for j in orth_active) or any(y[j] < -slack for j in inactive))


def distance(cone: ConeSpec, y: np.ndarray) -> float:
    y = _check_dim(cone, y, "y")
    return float(np.linalg.norm(y - project(cone, y)))


def contains(cone: ConeSpec, y: np.ndarray, tol: float = _TOL) -> bool:
    y = _check_dim(cone, y, "y")
    scale = 1.0 + float(np.linalg.norm(y))
    return distance(cone, y) <= tol * scale


def normal_cone_residual(cone: ConeSpec, y: np.ndarray, lam: np.ndarray) -> float:
    """``||y - proj(y + lam)||``, defined at any y; zero iff y lies in the
    cone and lam is normal there."""
    y = _check_dim(cone, y, "y")
    lam = _check_dim(cone, lam, "lam")
    return float(np.linalg.norm(y - project(cone, y + lam)))


def _require_normal(cone: ConeSpec, y: np.ndarray, lam: np.ndarray, tol: float) -> None:
    """Raise ValueError unless y lies in the cone and lam is normal at y, within tol."""
    if not contains(cone, y, tol):
        raise ValueError("y lies outside the cone beyond tolerance")
    if normal_cone_residual(cone, y, lam) > tol * (1.0 + float(np.linalg.norm(lam))):
        raise ValueError("lam is not a normal vector at y (within tolerance)")


# ---------------------------------------------------------------------------
# Tangent and critical cones


def _soc_case(block_y: np.ndarray, tol: float) -> str:
    """Classify a point of a second-order block: interior / boundary / apex."""
    scale = 1.0 + float(np.linalg.norm(block_y))
    if float(np.linalg.norm(block_y)) <= tol * scale:
        return "apex"
    r = float(np.linalg.norm(block_y[:-1]))
    if r < block_y[-1] - tol * scale:
        return "interior"
    return "boundary"


def _soc_boundary_normal(block_y: np.ndarray) -> np.ndarray:
    """Outward normal direction a = (ybar/||ybar||, -1) at a boundary point."""
    a = np.empty_like(block_y)
    a[:-1] = block_y[:-1] / np.linalg.norm(block_y[:-1])
    a[-1] = -1.0
    return a


def normal_cone_basis(cone: ConeSpec, y: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]] | None:
    """``(B, nonpos)`` with ``N_C(y) = {B v : v[nonpos] <= 0}``, the normal
    cone of the constraint cone at y (taken to lie in it), from the faces
    active at ``tol``: the zero blocks, the orthant coordinates with
    ``y_i <= tol (1 + ||y||)`` and the boundary normal of each second-order
    block on its boundary; None when a second-order block sits at its apex,
    where N_C(y) is no polyhedral image."""
    m = cone.total_dim
    eye = np.eye(m)
    active = tol * (1.0 + float(np.linalg.norm(y)))
    cols: list[np.ndarray] = []
    nonpos: list[int] = []
    for block, sl in cone.slices():
        if block.kind == ZERO:
            cols.extend(eye[sl])
        elif block.kind == ORTHANT:
            for i in range(sl.start, sl.stop):
                if not y[i] > active:  # active: lam_i <= 0
                    nonpos.append(len(cols))
                    cols.append(eye[i])
        else:
            case = _soc_case(y[sl], tol)
            if case == "apex":
                return None
            if case == "boundary":
                col = np.zeros(m)
                col[sl] = -_soc_boundary_normal(y[sl])  # lam = mu * a, mu >= 0, as v * (-a), v <= 0
                nonpos.append(len(cols))
                cols.append(col)
    return np.array(cols).T.reshape(m, len(cols)), nonpos


def tangent_cone_contains(cone: ConeSpec, y: np.ndarray, w: np.ndarray) -> bool:
    """Closed-form blockwise tangent-cone membership test."""
    y = _check_dim(cone, y, "y")
    w = _check_dim(cone, w, "w")
    wscale = 1.0 + float(np.linalg.norm(w))
    yscale = 1.0 + float(np.linalg.norm(y))
    for block, sl in cone.slices():
        yb, wb = y[sl], w[sl]
        if block.kind == ZERO:
            if np.any(np.abs(wb) > _TOL * wscale):
                return False
        elif block.kind == ORTHANT:
            active = yb <= _TOL * yscale
            if np.any(wb[active] < -_TOL * wscale):
                return False
        else:
            case = _soc_case(yb, _TOL)
            if case == "interior":
                continue
            if case == "apex":
                r = float(np.linalg.norm(wb[:-1]))
                if r > wb[-1] + _TOL * wscale:
                    return False
            else:
                a = _soc_boundary_normal(yb)
                if float(a @ wb) > _TOL * wscale:
                    return False
    return True


def critical_cone_contains(cone: ConeSpec, y: np.ndarray, lam: np.ndarray, w: np.ndarray) -> bool:
    """True iff w is tangent at y and orthogonal to the normal vector lam."""
    y = _check_dim(cone, y, "y")
    lam = _check_dim(cone, lam, "lam")
    w = _check_dim(cone, w, "w")
    _require_normal(cone, y, lam, _TOL)
    if not tangent_cone_contains(cone, y, w):
        return False
    bound = _TOL * (1.0 + float(np.linalg.norm(lam)) * float(np.linalg.norm(w)))
    return abs(float(lam @ w)) <= bound


# Facial description of one block's critical cone, in block coordinates.
# kind: "full", "point" (= {0}), "coords" (per-coordinate free / nonneg / zero),
# "hyperplane" {a.w = 0}, "halfspace" {a.w <= 0}, "ray" {t*r, t >= 0},
# "soc" (the whole block cone; the only non-polyhedral case).
@dataclass(frozen=True)
class BlockCriticalCone:
    kind: str
    dim: int
    normal: np.ndarray | None = None  # hyperplane/halfspace: a; ray: direction r
    coord_kinds: tuple[str, ...] = ()
    curvature_mu: float = 0.0  # boundary blocks: mu = -lam_d >= 0

    def eq_rows(self) -> np.ndarray:
        if self.kind == "point":
            return np.eye(self.dim)
        if self.kind == "hyperplane":
            return self.normal.reshape(1, -1)
        if self.kind == "coords":
            rows = [np.eye(self.dim)[i] for i, ck in enumerate(self.coord_kinds) if ck == "zero"]
            return np.array(rows).reshape(-1, self.dim)
        if self.kind == "ray":
            r = self.normal / np.linalg.norm(self.normal)
            return np.eye(self.dim) - np.outer(r, r)
        return np.zeros((0, self.dim))

    def ineq_rows(self) -> np.ndarray:
        if self.kind == "halfspace":
            return self.normal.reshape(1, -1)
        if self.kind == "coords":
            rows = [-np.eye(self.dim)[i] for i, ck in enumerate(self.coord_kinds) if ck == "nonneg"]
            return np.array(rows).reshape(-1, self.dim)
        if self.kind == "ray":
            return -self.normal.reshape(1, -1)
        return np.zeros((0, self.dim))

    def project(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "full":
            return v.copy()
        if self.kind == "point":
            return np.zeros_like(v)
        if self.kind == "coords":
            out = v.copy()
            for i, ck in enumerate(self.coord_kinds):
                if ck == "zero":
                    out[i] = 0.0
                elif ck == "nonneg":
                    out[i] = max(out[i], 0.0)
            return out
        if self.kind == "hyperplane":
            a = self.normal
            return v - a * (a @ v) / (a @ a)
        if self.kind == "halfspace":
            a = self.normal
            return v - a * max(a @ v, 0.0) / (a @ a)
        if self.kind == "ray":
            r = self.normal
            return r * max(r @ v, 0.0) / (r @ r)
        return _project_soc(v)

    def curvature(self, block_y: np.ndarray) -> np.ndarray:
        """Quadratic-form matrix of the block's second subderivative on K."""
        d = self.dim
        H = np.zeros((d, d))
        if self.curvature_mu > 0.0:
            ybar, ym = block_y[:-1], block_y[-1]
            H[:-1, :-1] = (self.curvature_mu / ym) * (
                np.eye(d - 1) - np.outer(ybar, ybar) / ym**2
            )
        return H


@dataclass(frozen=True)
class CriticalCone:
    """Critical cone of the product cone at (y, lam), blockwise."""

    cone: ConeSpec
    y: np.ndarray
    blocks: tuple[BlockCriticalCone, ...]
    eq: np.ndarray = field(repr=False)    # (p, m): eq @ w == 0 on K
    ineq: np.ndarray = field(repr=False)  # (q, m): ineq @ w <= 0 on K
    soc_block_slices: tuple[slice, ...] = ()  # non-polyhedral blocks (kind "soc")
    tol: float = _TOL  # which faces count as active

    @property
    def is_polyhedral(self) -> bool:
        return not self.soc_block_slices

    def contains(self, w: np.ndarray, tol: float = _TOL) -> bool:
        w = _check_dim(self.cone, w, "w")
        scale = 1.0 + float(np.linalg.norm(w))
        if self.eq.size and np.any(np.abs(self.eq @ w) > tol * scale):
            return False
        if self.ineq.size and np.any(self.ineq @ w > tol * scale):
            return False
        for sl in self.soc_block_slices:
            if np.linalg.norm(w[sl][:-1]) > w[sl][-1] + tol * scale:
                return False
        return True

    def project(self, w: np.ndarray) -> np.ndarray:
        w = _check_dim(self.cone, w, "w")
        out = np.empty_like(w)
        for bc, (_, sl) in zip(self.blocks, self.cone.slices()):
            out[sl] = bc.project(w[sl])
        return out

    def normal_cone_residual(self, w: np.ndarray, u: np.ndarray) -> float:
        """Residual of ``u ∈ N_K(w)`` via the projection identity, blockwise."""
        w = _check_dim(self.cone, w, "w")
        u = _check_dim(self.cone, u, "u")
        return float(np.linalg.norm(w - self.project(w + u)))

    def curvature_matrix(self) -> np.ndarray:
        m = self.cone.total_dim
        H = np.zeros((m, m))
        for bc, (_, sl) in zip(self.blocks, self.cone.slices()):
            H[sl, sl] = bc.curvature(self.y[sl])
        return H

    def multiplier_basis(self) -> tuple[np.ndarray, list[int]] | None:
        """``normal_cone_basis`` at y: it reads only which faces are active,
        so it depends on y and the tolerance, not on lam."""
        return normal_cone_basis(self.cone, self.y, self.tol)

    @property
    def strictly_complementary(self) -> bool:
        """lam lies in the relative interior of the normal cone on every
        second-order block: the block is inside the cone, on its boundary
        with ``-lam_d > 0``, or at the apex with lam interior to the polar."""
        return all(
            bc.kind in ("full", "hyperplane", "point")
            for bc, (block, _) in zip(self.blocks, self.cone.slices())
            if block.kind == SOC
        )


def critical_cone(cone: ConeSpec, y: np.ndarray, lam: np.ndarray, tol: float = _TOL) -> CriticalCone:
    y = _check_dim(cone, y, "y")
    lam = _check_dim(cone, lam, "lam")
    _require_normal(cone, y, lam, tol)
    yscale = 1.0 + float(np.linalg.norm(y))
    lscale = 1.0 + float(np.linalg.norm(lam))
    blocks: list[BlockCriticalCone] = []
    eq_rows: list[np.ndarray] = []
    ineq_rows: list[np.ndarray] = []
    soc_slices: list[slice] = []
    m = cone.total_dim
    for block, sl in cone.slices():
        yb, lb = y[sl], lam[sl]
        d = block.dim
        if block.kind == ZERO:
            bc = BlockCriticalCone("point", d)
        elif block.kind == ORTHANT:
            kinds = []
            for i in range(d):
                if yb[i] > tol * yscale:
                    kinds.append("free")
                elif lb[i] < -tol * lscale:
                    kinds.append("zero")
                else:
                    kinds.append("nonneg")
            bc = BlockCriticalCone("coords", d, coord_kinds=tuple(kinds))
        else:
            case = _soc_case(yb, tol)
            if case == "interior":
                bc = BlockCriticalCone("full", d)
            elif case == "boundary":
                a = _soc_boundary_normal(yb)
                mu = max(-float(lb[-1]), 0.0)
                if mu > tol * lscale:
                    bc = BlockCriticalCone("hyperplane", d, normal=a, curvature_mu=mu)
                else:
                    bc = BlockCriticalCone("halfspace", d, normal=a)
            else:  # apex
                lnorm = float(np.linalg.norm(lb))
                if lnorm <= tol * lscale:
                    bc = BlockCriticalCone("soc", d)
                elif float(np.linalg.norm(lb[:-1])) < -lb[-1] - tol * lscale:
                    bc = BlockCriticalCone("point", d)  # lam interior to the polar
                else:
                    r = np.empty(d)
                    r[:-1] = lb[:-1] / np.linalg.norm(lb[:-1])
                    r[-1] = 1.0
                    bc = BlockCriticalCone("ray", d, normal=r)
        blocks.append(bc)
        for rows, out in ((bc.eq_rows(), eq_rows), (bc.ineq_rows(), ineq_rows)):
            full = np.zeros((len(rows), m))
            full[:, sl] = rows
            out.extend(full)
        if bc.kind == "soc":
            soc_slices.append(sl)
    return CriticalCone(
        cone=cone,
        y=y.copy(),
        blocks=tuple(blocks),
        eq=np.array(eq_rows).reshape(-1, m),
        ineq=np.array(ineq_rows).reshape(-1, m),
        soc_block_slices=tuple(soc_slices),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Second subderivative of the indicator and the normal-cone proto-derivative


def second_subderivative(cone: ConeSpec, y: np.ndarray, lam: np.ndarray, w: np.ndarray) -> float:
    """Closed-form second subderivative of the indicator at (y, lam) in direction w.

    Infinite outside the critical cone.  On the critical cone, polyhedral
    blocks contribute zero curvature; a second-order block at a boundary
    point with multiplier ``mu*(ybar/||ybar||, -1)`` contributes
    ``(mu/y_d)(||wbar||^2 - (ybar.wbar)^2/y_d^2)``.
    """
    K = critical_cone(cone, y, lam)
    w = _check_dim(cone, w, "w")
    if not K.contains(w):
        return math.inf
    H = K.curvature_matrix()
    return float(w @ H @ w)


def proto_derivative_contains(
    cone: ConeSpec,
    y: np.ndarray,
    lam: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    tol: float = _TOL,
) -> bool:
    """Membership test for the graphical derivative of the normal-cone map.

    Tests ``u ∈ Hw + N_K(w)`` with H the curvature form of the second
    subderivative and K the critical cone at (y, lam); equivalently, u is a
    subgradient of half the second subderivative at w.  Returns False when
    w lies outside K (empty subdifferential there).
    """
    K = critical_cone(cone, y, lam, tol)
    w = _check_dim(cone, w, "w")
    u = _check_dim(cone, u, "u")
    if not K.contains(w, tol):
        return False
    residual = K.normal_cone_residual(w, u - K.curvature_matrix() @ w)
    scale = 1.0 + float(np.linalg.norm(w)) + float(np.linalg.norm(u))
    return residual <= tol * scale


# ---------------------------------------------------------------------------
# Difference-quotient oracle


# Grid for the second-order difference-quotient search.  The quotient
# ``[indicator(y + t*w') - t<lam, w'>] / (t^2/2)`` is minimized over ``w'``
# with ``||w' - w|| <= _RADIUS * t`` (the O(t) recovery neighborhood) on a
# mesh that is adaptively refined around the best feasible point; the value is
# read off at the smallest grid ``t`` admitting a feasible point, which tracks
# the liminf defining the second subderivative.
_T_GRID = [1e-2 * 2.0**-j for j in range(11)]  # t_j = 1e-2 * 2**-j, smallest last
_RADIUS = 5.0
_MESH_POINTS = 21
_REFINE_LEVELS = 6
_REFINE_POINTS = 11
# A refinement level holds several arrays of _REFINE_POINTS**d points by d
# coordinates: about 0.1 GB each at d = 6 and 1.1 GB at d = 7.
_ORACLE_MAX_DIM = 6
# Membership is decided at roundoff scale relative to the magnitudes entering
# each coordinate of y + t w + t^2 v, so a coordinate that is exactly zero
# admits no slack at all (the indicator is exact there).
_FEAS_EPS = 2e-15


def _mesh(center: np.ndarray, radius: float, points: int, cap: float) -> np.ndarray:
    """Axis-aligned grid around ``center`` clipped to the [-cap, cap] box."""
    d = center.size
    axes = [np.clip(center[i] + np.linspace(-radius, radius, points), -cap, cap) for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _block_feasible(kind: str, pts: np.ndarray, mags: np.ndarray, eps: float) -> np.ndarray:
    if kind == ZERO:
        return np.all(np.abs(pts) <= eps * mags, axis=1)
    if kind == ORTHANT:
        return np.all(pts >= -eps * mags, axis=1)
    return np.linalg.norm(pts[:, :-1], axis=1) <= pts[:, -1] + eps * np.sum(mags, axis=1)


def _block_inner_min(block: ConeBlock, yb, lb, wb, t: float) -> float:
    """min over the refined mesh of the block's difference-quotient term at t."""
    d = block.dim
    points = _MESH_POINTS if d <= 3 else (9 if d == 4 else 5)
    base = -2.0 * float(lb @ wb) / t
    center = np.zeros(d)
    radius = _RADIUS
    best_val = math.inf
    for level in range(_REFINE_LEVELS + 1):
        V = _mesh(center, radius, points, _RADIUS)
        pts = yb[None, :] + t * wb[None, :] + t * t * V
        mags = np.abs(yb)[None, :] + t * np.abs(wb)[None, :] + t * t * np.abs(V)
        feas = _block_feasible(block.kind, pts, mags, _FEAS_EPS)
        if not np.any(feas):
            if level == 0:
                return math.inf
            break
        vals = base - 2.0 * (V[feas] @ lb)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            center = V[feas][k]
        radius = 2.0 * radius / (points - 1)  # one old cell around the incumbent
        points = _REFINE_POINTS
    return best_val


def dq_oracle_second_subderivative(
    cone: ConeSpec,
    y: np.ndarray,
    lam: np.ndarray,
    w: np.ndarray,
) -> float:
    """Numerical second subderivative via second-order difference quotients.

    Independent of the closed forms in :func:`second_subderivative`: only
    cone membership tests enter.  Returns ``math.inf`` when no feasible
    recovery point exists on the grid (w outside the critical cone,
    numerically).  Product cones decompose blockwise; each block may have
    at most ``_ORACLE_MAX_DIM`` coordinates, else ValueError.
    """
    y = _check_dim(cone, y, "y")
    lam = _check_dim(cone, lam, "lam")
    w = _check_dim(cone, w, "w")
    for i, block in enumerate(cone.blocks):
        if block.dim > _ORACLE_MAX_DIM:
            raise ValueError(
                f"difference-quotient oracle meshes blocks of dimension at most {_ORACLE_MAX_DIM}; "
                f"block {i} ({block.kind}{block.dim}) has dimension {block.dim}"
            )
    for t in reversed(_T_GRID):  # smallest t first
        total = 0.0
        for block, sl in cone.slices():
            val = _block_inner_min(block, y[sl], lam[sl], w[sl], t)
            if math.isinf(val):
                total = math.inf
                break
            total += val
        if math.isfinite(total):
            return total
    return math.inf


# ---------------------------------------------------------------------------
# Sampling helpers (shared by tests and diagnostics probes)


def sample_point(cone: ConeSpec, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random point of the cone (projection of a Gaussian draw)."""
    return project(cone, rng.normal(size=cone.total_dim, scale=scale))


def sample_boundary_pair(
    cone: ConeSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random (y, lam) with lam normal at y and active structure per block."""
    m = cone.total_dim
    y = np.zeros(m)
    lam = np.zeros(m)
    for block, sl in cone.slices():
        if block.kind == ZERO:
            lam[sl] = rng.normal(size=block.dim)
        elif block.kind == ORTHANT:
            for i in range(sl.start, sl.stop):
                mode = rng.integers(3)
                if mode == 0:
                    y[i] = rng.uniform(0.2, 2.0)
                elif mode == 1:
                    lam[i] = -rng.uniform(0.1, 2.0)
                # mode 2: degenerate active coordinate, y = lam = 0
        else:
            d = block.dim
            mode = rng.integers(3)
            if mode == 0:  # interior
                y[sl.stop - 1] = rng.uniform(1.0, 2.0)
                ybar = rng.normal(size=d - 1)
                nrm = np.linalg.norm(ybar)
                if nrm > 0:
                    y[sl][:-1] = ybar / nrm * rng.uniform(0.0, 0.8) * y[sl.stop - 1]
            elif mode == 1:  # boundary, possibly degenerate multiplier
                ybar = rng.normal(size=d - 1)
                ybar /= max(np.linalg.norm(ybar), 1e-12)
                ym = rng.uniform(0.5, 2.0)
                y[sl][:-1] = ym * ybar
                y[sl.stop - 1] = ym
                mu = float(rng.uniform(0.1, 3.0)) if rng.integers(2) else 0.0
                lam[sl][:-1] = mu * ybar
                lam[sl.stop - 1] = -mu
            else:  # apex
                v = rng.normal(size=d - 1)
                nv = np.linalg.norm(v)
                which = rng.integers(3)
                if which == 0:
                    pass  # lam = 0
                elif which == 1 and nv > 0:  # polar boundary
                    mu = rng.uniform(0.2, 2.0)
                    lam[sl][:-1] = mu * v / nv
                    lam[sl.stop - 1] = -mu
                else:  # polar interior
                    lam[sl][:-1] = v
                    lam[sl.stop - 1] = -(nv + rng.uniform(0.2, 1.0))
    return y, lam


def sample_critical_direction(
    cone: ConeSpec,
    y: np.ndarray,
    lam: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random direction in the critical cone at (y, lam), of norm <= ~1.5."""
    K = critical_cone(cone, y, lam)
    w = K.project(rng.normal(size=cone.total_dim))
    nrm = np.linalg.norm(w)
    if nrm > 1.5:
        w *= 1.5 / nrm
    return w
