"""Seeded problem generators and the benchmark's own numpy reference.

Every generated problem is a JSON document in the schema that
``conesqp.registry.problem_from_dict`` reads, so any one of them replays with
``conesqp diagnose FILE`` or ``conesqp solve FILE``.  Beside each document the
generator keeps the numbers it was built from; the checks in
``workloads.py`` evaluate those with numpy alone, never through
``conesqp.problem`` or ``conesqp.cones``.

Only the values depend on the seed.  Sizes, block layouts and active
patterns come from fixed schedules, so two seeds ask the program for the
same amount of work and the timings of different seeds are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Expression text


def _num(v: float) -> str:
    return repr(float(v))


def _delta(i: int, s: float) -> str:
    """Text of ``x_{i+1} - s``."""
    if s == 0.0:
        return f"x{i + 1}"
    return f"(x{i + 1} - {_num(s)})" if s > 0 else f"(x{i + 1} + {_num(-s)})"


def _sum(terms) -> str:
    """Text of ``sum c_k * t_k`` from (coefficient, factor text or None) pairs."""
    out = ""
    for c, t in terms:
        if c == 0.0:
            continue
        body = _num(abs(c)) if t is None else f"{_num(abs(c))}*{t}"
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out or "0"


def _quadratic_text(c0, a, Q, shift, cubic=None) -> str:
    """``c0 + a.δ + 0.5 δ'Qδ + sum_i cubic_i δ_i^3`` with ``δ = x - shift``."""
    n = len(a)
    d = [_delta(i, shift[i]) for i in range(n)]
    terms = [(c0, None)] + [(a[i], d[i]) for i in range(n)]
    for i in range(n):
        terms.append((0.5 * Q[i, i], f"{d[i]}^2"))
        terms += [(Q[i, j], f"{d[i]}*{d[j]}") for j in range(i + 1, n)]
    if cubic is not None:
        terms += [(cubic[i], f"{d[i]}^3") for i in range(n)]
    return _sum(terms)


def _cone_doc(blocks) -> dict:
    return {"blocks": [{"kind": k, "dim": d} for k, d in blocks]}


def _json_vec(v) -> list[float]:
    return [float(t) for t in v]


# ---------------------------------------------------------------------------
# Independent cone arithmetic (blocks are (kind, dim) with kind zero, orthant
# or soc; the last coordinate of a soc block is its axis)


def project(blocks, y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    i = 0
    for kind, dim in blocks:
        b = y[i : i + dim]
        if kind == "zero":
            out[i : i + dim] = 0.0
        elif kind == "orthant":
            out[i : i + dim] = np.maximum(b, 0.0)
        else:
            r, t = float(np.linalg.norm(b[:-1])), float(b[-1])
            if r <= t:
                out[i : i + dim] = b
            elif r <= -t:
                out[i : i + dim] = 0.0
            else:
                out[i : i + dim - 1] = 0.5 * (r + t) * b[:-1] / r
                out[i + dim - 1] = 0.5 * (r + t)
        i += dim
    return out


def kkt_residual(blocks, grad_obj, y, jac, lam) -> float:
    """Stationarity + complementarity + feasibility, the program's definition."""
    stat = float(np.linalg.norm(grad_obj + jac.T @ lam))
    comp = float(np.linalg.norm(y - project(blocks, y + lam)))
    feas = float(np.linalg.norm(y - project(blocks, y)))
    return stat + comp + feas


# ---------------------------------------------------------------------------
# degenerate_faces: 0.5 x'R diag(d) R'x subject to R'x >= 0, at the origin

# (m, noncritical count, critical count) per pass: 50 of each.  Sorted by
# time the operations form clusters by (m, criticality); the counts put the
# median in the middle of the noncritical m=4 cluster and the 90th percentile
# in the middle of the noncritical m=6 one, so that neither sits on the edge
# between two clusters.  Sizes above m=8 are left out: the face search grows
# about 2.4x per constraint (about 1.5 s at m=8).
DEGENERATE_SCHEDULE = ((4, 20, 16), (5, 14, 12), (6, 12, 12), (7, 3, 6), (8, 1, 4))


@dataclass(frozen=True)
class DegenerateCase:
    doc: dict
    R: np.ndarray
    d: np.ndarray

    @property
    def noncritical(self) -> bool:
        return bool(np.all(self.d != 0.0))


def degenerate_cases(rng: np.random.Generator) -> list[DegenerateCase]:
    cases = []
    for m, n_noncrit, n_crit in DEGENERATE_SCHEDULE:
        for k in range(n_noncrit + n_crit):
            R, _ = np.linalg.qr(rng.normal(size=(m, m)))
            d = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
            if k >= n_noncrit:
                d[rng.integers(m)] = 0.0
            rows = [_sum([(R[j, i], f"x{j + 1}") for j in range(m)]) for i in range(m)]
            obj = _sum([(0.5 * d[i], f"({rows[i]})^2") for i in range(m)])
            doc = {
                "name": f"degenerate_m{m}_{k}",
                "n": m,
                "objective": obj,
                "constraints": [{"expr": r} for r in rows],
                "cone": _cone_doc([("orthant", m)]),
                "reference": {"x": [0.0] * m, "lam": [0.0] * m},
            }
            cases.append(DegenerateCase(doc, R, d))
    return cases


def critical_witness_ok(case: DegenerateCase, w, u, tol: float = 1e-7) -> bool:
    """``w != 0``, ``Hw + J'u = 0``, ``v = R'w >= 0``, ``u <= 0``, ``u . v = 0``."""
    w, u = np.asarray(w, float), np.asarray(u, float)
    scale = 1.0 + float(np.linalg.norm(w)) + float(np.linalg.norm(u))
    v = case.R.T @ w
    H = case.R @ np.diag(case.d) @ case.R.T
    return (
        float(np.linalg.norm(w)) > 1e-7
        and float(np.linalg.norm(H @ w + case.R @ u)) <= tol * scale
        and bool(np.all(v >= -tol * scale))
        and bool(np.all(u <= tol * scale))
        and float(np.max(np.abs(u * v))) <= tol * scale
    )


# ---------------------------------------------------------------------------
# sqp_solve: nonlinear problems around a constructed KKT point

# (n, blocks, pattern) per problem; the pattern fixes each block's state at
# the KKT point: orthant coordinates "a"ctive (y=0, lam<0) or "i"nactive
# (y>0, lam=0), soc blocks "b"oundary (lam on the polar ray) or "i"nterior.
# Strict complementarity everywhere, and at most n active rows, so LICQ holds
# for generic Jacobians.
SQP_POLYHEDRAL = (
    (3, (("zero", 1), ("orthant", 3)), ("", "aii")),
    (4, (("zero", 1), ("orthant", 4)), ("", "aiai")),
    (4, (("orthant", 5),), ("aaiii",)),
    (5, (("zero", 2), ("orthant", 4)), ("", "iaia")),
)
SQP_SOC = (
    (3, (("soc", 3), ("orthant", 1)), ("b", "a")),
    (4, (("zero", 1), ("soc", 3), ("orthant", 2)), ("", "i", "ai")),
    (4, (("soc", 3), ("orthant", 2)), ("b", "ia")),
    (5, (("soc", 4), ("orthant", 1)), ("b", "i")),
)
SQP_START_DISTANCE = 0.05


@dataclass(frozen=True)
class SQPCase:
    doc: dict
    blocks: tuple
    x_star: np.ndarray
    lam_star: np.ndarray
    x0: np.ndarray
    lam0: np.ndarray
    g: np.ndarray  # objective: g.δ + 0.5 δ'Pδ + cubic.δ^3, δ = x - x_star
    P: np.ndarray
    cubic: np.ndarray
    c: np.ndarray  # constraints: c + J δ + q_i δ_a δ_b
    J: np.ndarray
    quad: tuple  # (a, b, q) per constraint row

    def grad_obj(self, x):
        dlt = x - self.x_star
        return self.g + self.P @ dlt + 3.0 * self.cubic * dlt**2

    def constraints(self, x):
        dlt = x - self.x_star
        y = self.c + self.J @ dlt
        jac = self.J.copy()
        for i, (a, b, q) in enumerate(self.quad):
            y[i] += q * dlt[a] * dlt[b]
            jac[i, a] += q * dlt[b]
            jac[i, b] += q * dlt[a]
        return y, jac

    def residual(self, x, lam) -> float:
        y, jac = self.constraints(x)
        return kkt_residual(self.blocks, self.grad_obj(x), y, jac, lam)


def _kkt_block(rng, kind, dim, state):
    """Cone value and multiplier of one block, strictly complementary."""
    if kind == "zero":
        return np.zeros(dim), rng.uniform(0.5, 1.5, dim) * rng.choice([-1.0, 1.0], dim)
    if kind == "orthant":
        act = np.array([s == "a" for s in state])
        y = np.where(act, 0.0, rng.uniform(0.5, 1.5, dim))
        return y, np.where(act, -rng.uniform(0.5, 1.5, dim), 0.0)
    ybar = rng.normal(size=dim - 1)
    ybar *= rng.uniform(0.5, 1.5) / np.linalg.norm(ybar)
    r = float(np.linalg.norm(ybar))
    if state == "i":
        return np.append(ybar, r + rng.uniform(0.5, 1.0)), np.zeros(dim)
    mu = rng.uniform(0.5, 1.5)
    return np.append(ybar, r), mu * np.append(ybar / r, -1.0)


def _active_rows(blocks, pattern, c, J) -> np.ndarray:
    """Gradients of the active constraints at the KKT point."""
    rows, i = [], 0
    for (kind, dim), state in zip(blocks, pattern):
        if kind == "zero":
            rows += list(J[i : i + dim])
        elif kind == "orthant":
            rows += [J[i + k] for k in range(dim) if state[k] == "a"]
        elif state == "b":
            ybar = c[i : i + dim - 1]
            rows.append(np.append(ybar / np.linalg.norm(ybar), -1.0) @ J[i : i + dim])
        i += dim
    return np.array(rows).reshape(-1, J.shape[1])


def sqp_case(rng: np.random.Generator, name: str, n: int, blocks, pattern) -> SQPCase:
    parts = [_kkt_block(rng, k, d, s) for (k, d), s in zip(blocks, pattern)]
    c = np.concatenate([y for y, _ in parts])
    lam = np.concatenate([l for _, l in parts])
    m = c.size
    x_star = rng.uniform(-1.0, 1.0, n)
    J = rng.normal(size=(m, n))
    while np.linalg.svd(_active_rows(blocks, pattern, c, J), compute_uv=False).min(initial=1.0) < 0.5:
        J = rng.normal(size=(m, n))  # keep LICQ well away from failing
    quad = tuple(
        (int(a), int(b), float(rng.uniform(-0.3, 0.3)))
        for a, b in (rng.choice(n, size=2, replace=True) for _ in range(m))
    )
    # Lagrangian Hessian at the KKT point is P + M; shift P so it is >= I
    M = np.zeros((n, n))
    for li, (a, b, q) in zip(lam, quad):
        M[a, b] += li * q
        M[b, a] += li * q
    B = rng.normal(size=(n, n))
    P = B @ B.T / n + (1.0 + max(0.0, -float(np.linalg.eigvalsh(M)[0]))) * np.eye(n)
    cubic = rng.uniform(-0.5, 0.5, n)
    g = -J.T @ lam
    constraints = []
    for i in range(m):
        a, b, q = quad[i]
        Qi = np.zeros((n, n))
        Qi[a, b] += q
        Qi[b, a] += q
        constraints.append({"expr": _quadratic_text(c[i], J[i], Qi, x_star)})
    u = rng.normal(size=n + m)
    u *= SQP_START_DISTANCE / np.linalg.norm(u)
    x0, lam0 = x_star + u[:n], lam + u[n:]
    doc = {
        "name": name,
        "n": n,
        "objective": _quadratic_text(0.0, g, P, x_star, cubic),
        "constraints": constraints,
        "cone": _cone_doc(blocks),
        "reference": {"x": _json_vec(x_star), "lam": _json_vec(lam)},
        "start": {"x0": _json_vec(x0), "lam0": _json_vec(lam0)},
    }
    return SQPCase(doc, tuple(blocks), x_star, lam, x0, lam0, g, P, cubic, c, J, quad)


# ---------------------------------------------------------------------------
# engine_crossval: strictly convex subproblems around a constructed solution

# (n, blocks, pattern) per instance, patterns written as for SQP_POLYHEDRAL.
# The solution is constructed, strictly complementary, and a
# second-order block at the solution is interior or on the boundary at
# radius >= 0.5: where the solution sits near the apex, semismooth Newton
# multi-start can miss it (see CHANGES.md), which would fail the run on some
# seeds only.
CROSSVAL_POLYHEDRAL = (
    (2, (("orthant", 2),), ("ai",)),
    (3, (("zero", 1), ("orthant", 2)), ("", "ai")),
    (4, (("orthant", 4),), ("aiai",)),
    (4, (("zero", 1), ("orthant", 3)), ("", "aii")),
    (5, (("orthant", 3), ("zero", 1), ("orthant", 2)), ("aia", "", "ia")),
    (6, (("zero", 2), ("orthant", 4)), ("", "aiai")),
)
CROSSVAL_SOC = (
    (3, (("soc", 3),), ("b",)),
    (3, (("soc", 3), ("orthant", 1)), ("b", "a")),
    (4, (("zero", 1), ("soc", 3)), ("", "i")),
    (4, (("soc", 4), ("orthant", 2)), ("b", "ia")),
)


@dataclass(frozen=True)
class CrossvalCase:
    doc: dict
    blocks: tuple
    H: np.ndarray
    g: np.ndarray
    A: np.ndarray
    c: np.ndarray
    d_star: np.ndarray

    @property
    def polyhedral(self) -> bool:
        return all(k != "soc" for k, _ in self.blocks)

    @property
    def scale(self) -> float:
        return 1.0 + float(np.linalg.norm(self.g)) + float(np.linalg.norm(self.c))

    def objective(self, d) -> float:
        return float(self.g @ d + 0.5 * d @ self.H @ d)

    def residual(self, d, lam) -> float:
        return kkt_residual(self.blocks, self.g + self.H @ d, self.c + self.A @ d, self.A, lam)


def crossval_case(rng: np.random.Generator, name: str, n: int, blocks, pattern) -> CrossvalCase:
    """``min g.d + 0.5 d'Hd s.t. c + A d in K`` with ``g``, ``c`` set so that a
    random ``d*`` with a strictly complementary multiplier solves it.

    ``H = BB'/n + 0.5 I`` is acceptance criterion 4's form scaled by 1/n: with
    the unscaled form the Newton and ADMM work of single instances has so
    heavy a tail that the total of a pass differed by 0.22 (interquartile
    range over median) between seeds, against 0.12 scaled."""
    parts = [_kkt_block(rng, k, d, s) for (k, d), s in zip(blocks, pattern)]
    s_star = np.concatenate([y for y, _ in parts])
    lam = np.concatenate([l for _, l in parts])
    m = s_star.size
    B = rng.normal(size=(n, n))
    H = B @ B.T / n + 0.5 * np.eye(n)
    A = rng.normal(size=(m, n))
    d_star = rng.normal(size=n)
    c = s_star - A @ d_star
    g = -H @ d_star - A.T @ lam
    zero = np.zeros(n)
    doc = {
        "name": name,
        "n": n,
        "objective": _quadratic_text(0.0, g, H, zero),
        "constraints": [
            {"expr": _quadratic_text(c[i], A[i], np.zeros((n, n)), zero)} for i in range(m)
        ],
        "cone": _cone_doc(blocks),
    }
    return CrossvalCase(doc, tuple(blocks), H, g, A, c, d_star)
