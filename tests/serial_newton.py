"""The serial damped semismooth Newton loop, one start at a time: a reference
for tests of the lockstep ``subproblem.damped_newton``.

``damped_newton`` here is the kernel as it ran before it took stacks: one
point, the Armijo step lengths tried one after another, and the projection
Jacobian built block by block.  A lockstep row must give exactly its bits.

``pattern_solutions`` is the probe's active-pattern solve as it ran before
it went through the kernel: one direction at a time, by the undamped
``pattern_newton``.

``probe_by_radius`` is the whole calmness probe as it ran before all radii
went into one stack: one lockstep stack per radius for the starts and one
per radius and pattern, ``KKTPair`` lists and a dedupe one row at a time.

``newton_starts`` is the subproblem Newton engine's list of starts as it was
drawn up front, before each start was drawn when it is tried.
"""

import math

import numpy as np

from conesqp import cones, diagnostics, problem, subproblem
from conesqp.problem import KKTPair

ARMIJO_STEPS = tuple(0.5**k for k in range(30))


def projection_jacobian(cone, z):
    m = cone.total_dim
    P = np.zeros((m, m))
    for block, sl in cone.slices():
        zb = z[sl]
        if block.kind == cones.ZERO:
            continue
        if block.kind == cones.ORTHANT:
            diag = np.where(zb > 0.0, 1.0, np.where(zb < 0.0, 0.0, 0.5))
            P[sl, sl] = np.diag(diag)
        else:
            zbar, zm = zb[:-1], zb[-1]
            r = float(np.linalg.norm(zbar))
            d = block.dim
            if r <= zm:
                P[sl, sl] = np.eye(d)
            elif r <= -zm:
                continue
            else:
                s = zbar / r
                J = np.empty((d, d))
                J[:-1, :-1] = 0.5 * ((1.0 + zm / r) * np.eye(d - 1) - (zm / r) * np.outer(s, s))
                J[:-1, -1] = 0.5 * s
                J[-1, :-1] = 0.5 * s
                J[-1, -1] = 0.5
                P[sl, sl] = J
    return P


def damped_newton(cone, residual, linearize, x0, lam0, tol, max_iters):
    """``(x, lam, ||F||)`` of one start; ``residual`` and ``linearize`` take one point."""
    n, m = x0.shape[0], cone.total_dim
    x, lam = x0.copy(), lam0.copy()
    F = residual(x, lam)
    for _ in range(max_iters):
        nrm = float(np.linalg.norm(F))
        if nrm <= tol:
            break
        H, A, y = linearize(x, lam)
        P = projection_jacobian(cone, y + lam)
        J = np.zeros((n + m, n + m))
        J[:n, :n] = H
        J[:n, n:] = A.T
        J[n:, :n] = (np.eye(m) - P) @ A
        J[n:, n:] = -P
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        for alpha in ARMIJO_STEPS:
            x_new, lam_new = x + alpha * step[:n], lam + alpha * step[n:]
            F_new = residual(x_new, lam_new)
            if float(np.linalg.norm(F_new)) < (1.0 - 1e-4 * alpha) * nrm:
                break
        else:
            return x, lam, nrm  # stalled
        x, lam, F = x_new, lam_new, F_new
    return x, lam, float(np.linalg.norm(F))


def newton_perturbed(p, x0, lam0, v, w, max_iters=60):
    """One start of the probe's perturbed KKT solve, serially."""

    def residual(x, lam):
        r1, y = diagnostics._perturbed_kkt(p, x, lam, v, w)
        return np.concatenate([r1, y - cones.project(p.cone, y + lam)])

    def linearize(x, lam):
        data = problem.lagrangian_data(p, KKTPair(x, lam))
        return data.hess_xx, data.jac_f, data.f_val + w

    return damped_newton(p.cone, residual, linearize, x0, lam0, 1e-13, max_iters)


def pattern_solutions(p, z, v, w):
    """The probe's active-pattern solutions for one perturbation ``(v, w)``."""
    if not cones.patterns_within_budget(p.cone):
        return []
    out = []
    for _, active, orth_active, inactive in cones.active_patterns(p.cone):
        sol = pattern_newton(p, z, v, w, active)
        if sol is None:
            continue
        x, lam = sol
        f_val, _ = problem.constraint_values(p, x)
        slack = 1e-9 * (1.0 + float(np.linalg.norm(lam)))
        if not cones.pattern_signs_ok(lam, f_val + w, orth_active, inactive, slack):
            continue
        if diagnostics._perturbed_residual(p, x, lam, v, w) <= 1e-8:
            out.append(KKTPair(x, lam))
    return out


def pattern_newton(p, z, v, w, active, max_iters=60):
    """Undamped Newton from z on the system with the ``active`` rows as
    equalities; None where the saddle matrix is singular, a step is not
    finite or longer than 1e3, or the residual is not under 1e-12 in time."""
    x = z.x.copy()
    lam_a = z.lam[active].copy()
    na = len(active)
    for _ in range(max_iters):
        lam_full = np.zeros(p.m)
        lam_full[active] = lam_a
        data = problem.lagrangian_data(p, KKTPair(x, lam_full))
        F = np.concatenate(
            [data.grad_obj - v + data.jac_f.T @ lam_full, data.f_val[active] + w[active]]
        )
        if float(np.linalg.norm(F)) <= 1e-12:
            break
        Jm = np.zeros((p.n + na, p.n + na))
        Jm[: p.n, : p.n] = data.hess_xx
        if na:
            Jm[: p.n, p.n :] = data.jac_f[active].T
            Jm[p.n :, : p.n] = data.jac_f[active]
        try:
            step = np.linalg.solve(Jm, -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)) or float(np.linalg.norm(step)) > 1e3:
            return None
        x = x + step[: p.n]
        lam_a = lam_a + step[p.n :]
    else:
        return None
    lam_full = np.zeros(p.m)
    lam_full[active] = lam_a
    return x, lam_full


def probe_by_radius(p, z, cfg):
    """The calmness probe one radius at a time: a ``damped_newton`` stack per
    radius for the starts and one per radius and active pattern, with a list
    of ``KKTPair`` solutions and a greedy dedupe per direction."""
    diagnostics._gate(p, z)
    dim = p.n + p.m
    rng = np.random.default_rng(cfg.seed + 3)
    dirs = [e * s for e in np.eye(dim) for s in (1.0, -1.0)]
    for _ in range(cfg.probe_samples):
        d = rng.normal(size=dim)
        dirs.append(d / float(np.linalg.norm(d)))
    dirs = np.array(dirs)

    samples = []
    for ri, radius in enumerate(diagnostics.PROBE_RADII):
        best, found = 0.0, 0
        seeds = [cfg.seed + 1000 * ri + si for si in range(len(dirs))]
        solved = solve_perturbed(p, z, radius * dirs[:, : p.n], radius * dirs[:, p.n :], seeds)
        for s in (s for sols in solved for s in sols):
            dist = s.distance_to(z)
            if dist <= diagnostics._PROBE_BALL:
                found += 1
                best = max(best, dist / radius)
        samples.append(diagnostics.RadiusSample(radius, best, found, len(dirs)))
    profile, growth = diagnostics._classify_profile(samples)
    return diagnostics.ProbeResult(tuple(samples), profile, growth)


def solve_perturbed(p, z, v, w, seeds):
    """The perturbed-KKT solutions of each row of ``(v, w)``: pattern solves,
    then five Newton starts drawn from ``default_rng(seeds[i])``, deduped."""
    x0, lam0 = [], []
    for vi, wi, seed in zip(v, w, seeds):
        rng = np.random.default_rng(seed)
        r = float(np.linalg.norm(np.concatenate([vi, wi])))
        for spread in (0.0, r, math.sqrt(max(r, 0.0)), 0.1, 0.45):
            xs = z.x + spread * rng.normal(size=p.n)
            ls = z.lam + spread * rng.normal(size=p.m)
            x0.append(z.x if spread == 0.0 else xs)
            lam0.append(z.lam if spread == 0.0 else ls)
    starts = len(x0) // len(v)
    x, lam, res = diagnostics._newton_perturbed(p, np.array(x0), np.array(lam0),
                                                np.repeat(v, starts, axis=0),
                                                np.repeat(w, starts, axis=0))
    out = []
    for i, sols in enumerate(stacked_pattern_solutions(p, z, v, w)):
        sols += [KKTPair(x[b], lam[b])
                 for b in range(starts * i, starts * (i + 1)) if res[b] <= 1e-9]
        unique = []
        for s in sols:
            if all(s.distance_to(t) > 1e-9 for t in unique):
                unique.append(s)
        out.append(unique)
    return out


def stacked_pattern_solutions(p, z, v, w):
    """The probe's pattern solutions of each row of ``(v, w)``, as ``KKTPair``
    lists: one lockstep ``damped_newton`` stack per pattern, then each row's
    sign and residual tests one at a time."""
    out = [[] for _ in v]
    patterns = cones.active_patterns(p.cone) if cones.patterns_within_budget(p.cone) else ()
    x0 = np.repeat(z.x[None], len(v), axis=0)
    for _, active, orth_active, inactive in patterns:
        lam0 = np.repeat(z.lam[None, active], len(v), axis=0)
        x, lam, res = diagnostics._newton_perturbed(p, x0, lam0, v, w, active)
        for i in np.flatnonzero(res <= 1e-12):
            f_val, _ = problem.constraint_values(p, x[i])
            slack = 1e-9 * (1.0 + float(np.linalg.norm(lam[i])))
            if not cones.pattern_signs_ok(lam[i], f_val + w[i], orth_active, inactive, slack):
                continue
            if diagnostics._perturbed_residual(p, x[i], lam[i], v[i], w[i]) <= 1e-8:
                out[i].append(KKTPair(x[i], lam[i]))
    return out


def newton_starts(data, hint, seed):
    """All ``_N_STARTS`` starts of ``subproblem.semismooth_newton_solve``, in
    the order it tries them."""
    n, m = data.n, data.m
    rng = np.random.default_rng(seed)
    hint_d, hint_lam = hint
    starts = [(hint_d.copy(), hint_lam.copy()), (np.zeros(n), np.zeros(m))]
    scale = data.scale
    while len(starts) < subproblem._N_STARTS:
        spread = scale * 10 ** rng.uniform(-1.0, 1.0)
        starts.append(
            (hint_d + spread * rng.normal(size=n), hint_lam + spread * rng.normal(size=m))
        )
    return starts
