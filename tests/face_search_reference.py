"""The noncriticality face search without the reduced-Hessian screen: a
reference for tests of ``diagnostics._noncrit_face_search``.

``noncrit_face_search`` is the search as it ran before it read the shared
face walk: one Fourier-Motzkin system in ``(w, a, b)`` for every pattern S
of the critical cone's inequality rows, in ``(r, combinations)`` order.
The screened search must return exactly its verdict and its witness bits.
"""

from itertools import combinations

import numpy as np

from conesqp import diagnostics, polyhedra
from conesqp.diagnostics import NoncriticalityResult
from conesqp.polyhedra import BudgetExceeded, Polyhedron


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
    if not (K.is_polyhedral and K.ineq.shape[0] <= diagnostics._FACE_BUDGET):
        return diagnostics.check_noncriticality(p, z)
    J = data.jac_f
    Hc = K.curvature_matrix()
    Q = data.hess_xx + J.T @ Hc @ J
    Q = 0.5 * (Q + Q.T)
    try:
        witness = noncrit_face_search(p, data, K, Q, J, Hc)
    except BudgetExceeded as exc:
        return NoncriticalityResult(False, None, conclusive=False, reason=str(exc))
    if witness is not None:
        return NoncriticalityResult(False, witness, conclusive=True)
    return NoncriticalityResult(True, None, conclusive=True)
