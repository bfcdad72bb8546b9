"""The definitional membership oracles of the cone geometry, for tests.

``tangent_cone_contains``, ``critical_cone_contains`` and
``proto_derivative_contains`` decide membership in the tangent cone, the
critical cone ``T(y) ∩ {lam}^⊥`` and the graphical derivative of the
normal-cone map straight from their definitions, blockwise.  No program path
needs them; the tests check ``conesqp.cones``'s facial descriptions and
closed forms against them (acceptance criteria 3 and 6).  They decide at the
cone module's default tolerance ``CONE_TOL``.
"""

import numpy as np

from conesqp import cones
from conesqp.tolerances import CONE_TOL


def tangent_cone_contains(cone, y, w) -> bool:
    """Closed-form blockwise tangent-cone membership test."""
    y = cones._check_dim(cone, y, "y")
    w = cones._check_dim(cone, w, "w")
    wscale = 1.0 + float(np.linalg.norm(w))
    yscale = 1.0 + float(np.linalg.norm(y))
    for block, sl in cone.slices():
        yb, wb = y[sl], w[sl]
        if block.kind == cones.ZERO:
            if np.any(np.abs(wb) > CONE_TOL * wscale):
                return False
        elif block.kind == cones.ORTHANT:
            active = yb <= CONE_TOL * yscale
            if np.any(wb[active] < -CONE_TOL * wscale):
                return False
        else:
            case = cones._soc_case(yb, CONE_TOL)
            if case == "interior":
                continue
            if case == "apex":
                r = float(np.linalg.norm(wb[:-1]))
                if r > wb[-1] + CONE_TOL * wscale:
                    return False
            else:
                a = cones._soc_boundary_normal(yb)
                if float(a @ wb) > CONE_TOL * wscale:
                    return False
    return True


def critical_cone_contains(cone, y, lam, w) -> bool:
    """True iff w is tangent at y and orthogonal to the normal vector lam."""
    y = cones._check_dim(cone, y, "y")
    lam = cones._check_dim(cone, lam, "lam")
    w = cones._check_dim(cone, w, "w")
    cones._require_normal(cone, y, lam, CONE_TOL)
    if not tangent_cone_contains(cone, y, w):
        return False
    bound = CONE_TOL * (1.0 + float(np.linalg.norm(lam)) * float(np.linalg.norm(w)))
    return abs(float(lam @ w)) <= bound


def proto_derivative_contains(cone, y, lam, w, u, tol: float = CONE_TOL) -> bool:
    """Membership test for the graphical derivative of the normal-cone map.

    Tests ``u ∈ Hw + N_K(w)`` with H the curvature form of the second
    subderivative and K the critical cone at (y, lam); equivalently, u is a
    subgradient of half the second subderivative at w.  Returns False when
    w lies outside K (empty subdifferential there).
    """
    K = cones.critical_cone(cone, y, lam, tol)
    w = cones._check_dim(cone, w, "w")
    u = cones._check_dim(cone, u, "u")
    if not K.contains(w, tol):
        return False
    residual = K.normal_cone_residual(w, u - K.curvature_matrix() @ w)
    scale = 1.0 + float(np.linalg.norm(w)) + float(np.linalg.norm(u))
    return residual <= tol * scale
