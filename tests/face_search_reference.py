"""Reference face searches for tests of ``diagnostics._face_walk`` and
``diagnostics._noncrit_face_search``.

``noncrit_face_search`` is the noncriticality search as it ran before it
read the shared face walk: one Fourier-Motzkin system in ``(w, a, b)`` for
every pattern S of the critical cone's inequality rows, in
``(r, combinations)`` order, without the reduced-Hessian screen.
``ssoc_exact`` is the SSOC minimum as it ran on a lazy walk over the faces,
each face's basis and eigenpairs read once.  The one-pass walk must return
exactly their verdicts and their witness bits.  ``unscreened_faces`` is the
reduced-Hessian screen as it ran inside the search, over the lazy walk: the
faces the one-pass walk must hand the search, in order.
"""

import math
from itertools import combinations

import numpy as np

from conesqp import diagnostics, polyhedra
from conesqp.diagnostics import NoncriticalityResult, SSOCResult
from conesqp.polyhedra import BudgetExceeded, Polyhedron


def _faces(Q, EJ, GJ, n):
    """``(S, B_S, vals, vecs, margin)`` per face S, in ``(r, combinations)``
    order: ``B_S`` is an orthonormal basis of ``{w : E J w = 0, G_S J w = 0}``
    with the rank margin of ``polyhedra.null_basis``, and ``vals, vecs`` the
    eigenpairs of ``R_S = B_S' Q B_S``."""
    q = GJ.shape[0]
    for r in range(q + 1):
        for S in combinations(range(q), r):
            rows = np.vstack([EJ, GJ[list(S)]]) if (EJ.size or S) else np.zeros((0, n))
            B, margin = polyhedra.null_basis(rows, n, margin=True)
            R = B.T @ Q @ B
            yield (S, B, *np.linalg.eigh(0.5 * (R + R.T)), margin)


def _ssoc_exact(G, faces) -> SSOCResult:
    best = math.inf
    witness = None
    for _, B, vals, vecs, _ in faces:
        for theta, v in zip(vals, vecs.T):
            if not theta < best:  # this eigenpair cannot change the minimum
                continue
            w = B @ v
            for s in (1.0, -1.0):
                cand = s * w
                if G.shape[0] == 0 or np.all(G @ cand <= 1e-9):
                    best = float(theta)
                    witness = cand
                    break
    return SSOCResult(best, witness, conclusive=True)


def _stability_data(data, K):
    """``(J, Hc, Q)``: the Jacobian, the cone's curvature matrix and the
    symmetric matrix of the stability quadratic."""
    J = data.jac_f
    Hc = K.curvature_matrix()
    Q = data.hess_xx + J.T @ Hc @ J
    return J, Hc, 0.5 * (Q + Q.T)


def _exact(K):
    return K.is_polyhedral and K.ineq.shape[0] <= diagnostics._FACE_BUDGET


def ssoc_exact(p, z):
    """``diagnostics.check_ssoc`` from the lazy face walk wherever the minimum
    is exact; elsewhere it is the package's own check."""
    data, K = diagnostics._gate(p, z)
    if not _exact(K):
        return diagnostics.check_ssoc(p, z)
    J, _, Q = _stability_data(data, K)
    EJ = (K.eq @ J) if K.eq.size else np.zeros((0, p.n))
    GJ = (K.ineq @ J) if K.ineq.size else np.zeros((0, p.n))
    return _ssoc_exact(GJ, _faces(Q, EJ, GJ, p.n))


def unscreened_faces(p, z):
    """The S of every face that the noncriticality screen does not skip, in
    walk order, at a point whose face search is exact."""
    data, K = diagnostics._gate(p, z)
    J, _, Q = _stability_data(data, K)
    EJ = (K.eq @ J) if K.eq.size else np.zeros((0, p.n))
    GJ = (K.ineq @ J) if K.ineq.size else np.zeros((0, p.n))
    screen = diagnostics._SCREEN * (1.0 + float(np.max(np.abs(Q))))
    out = []
    for S, _, vals, _, margin in _faces(Q, EJ, GJ, p.n):
        if margin > diagnostics._SCREEN and np.all(np.abs(vals) > screen):
            continue
        out.append(S)
    return out


def noncrit_face_search(p, data, K, Q, J, Hc):
    n, m = p.n, p.m
    E, G = K.eq, K.ineq
    q = G.shape[0]
    for r in range(q + 1):
        for S in combinations(range(q), r):
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
                if diagnostics._verify_critical_witness(data, K, J, w, u):
                    return w, u
    return None


def check_noncriticality(p, z):
    """``diagnostics.check_noncriticality`` with the unscreened face search
    wherever the search is exact; elsewhere it is the package's own check."""
    data, K = diagnostics._gate(p, z)
    if not _exact(K):
        return diagnostics.check_noncriticality(p, z)
    J, Hc, Q = _stability_data(data, K)
    try:
        witness = noncrit_face_search(p, data, K, Q, J, Hc)
    except BudgetExceeded as exc:
        return NoncriticalityResult(False, None, conclusive=False, reason=str(exc))
    if witness is not None:
        return NoncriticalityResult(False, witness, conclusive=True)
    return NoncriticalityResult(True, None, conclusive=True)
