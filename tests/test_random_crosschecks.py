"""Randomized cross-validation of the exact diagnostics.

Random KKT instances are built backwards: draw a cone, a point/normal pair
on it and a primal point, then choose a quadratic objective and affine
constraints whose stationarity equation holds there by construction.  On
such instances every conclusive verdict is exact, so the biconditional
cross-checks in ``classify_stationary_point`` must never fire, the sampled
searches must never beat the face-enumeration answers, and the dual and
primal qualification tests must agree.
"""

import math

import numpy as np
import pytest

from conesqp import cones, diagnostics, expr, problem
from conesqp.problem import KKTPair, ProblemSpec

CFG = diagnostics.DiagnosticsConfig(run_probe=False)


def random_kkt_instance(rng, allow_soc=True):
    n = int(rng.integers(1, 4))
    blocks, total = [], 0
    while total < 1 or (rng.integers(2) and total < 4):
        kind = rng.choice(["orthant", "zero", "soc"] if allow_soc else ["orthant", "zero"])
        dim = 3 if kind == "soc" else int(rng.integers(1, 3))
        blocks.append(cones.ConeBlock(str(kind), dim))
        total += dim
    cone = cones.ConeSpec(tuple(blocks))
    m = cone.total_dim
    xbar = rng.uniform(-1, 1, n).round(3)
    y, lam = cones.sample_boundary_pair(cone, rng)
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    Q = rng.integers(-2, 3, size=(n, n)).astype(float)
    Q = Q + Q.T
    c_lin = -Q @ xbar - A.T @ lam  # makes xbar stationary for lam
    obj_terms = []
    for i in range(n):
        for j in range(n):
            if Q[i, j]:
                obj_terms.append(f"({float(0.5 * Q[i, j])!r})*x{i + 1}*x{j + 1}")
        if c_lin[i]:
            obj_terms.append(f"({float(c_lin[i])!r})*x{i + 1}")
    obj_text = " + ".join(obj_terms) if obj_terms else "0"
    cons = []
    for i in range(m):
        const = float(y[i] - A[i] @ xbar)
        terms = [f"({float(A[i, j])!r})*x{j + 1}" for j in range(n)] + [f"({const!r})"]
        cons.append(expr.parse(" + ".join(terms), n))
    p = ProblemSpec("random", n, expr.parse(obj_text, n), tuple(cons), cone)
    return p, KKTPair(xbar, lam)


def test_constructed_instances_are_kkt_points(rng):
    for _ in range(40):
        p, z = random_kkt_instance(rng)
        assert problem.kkt_residual(p, z).total <= 1e-9


def test_no_failure_artifacts_on_random_instances(rng):
    # the two biconditionals and the primal/dual qualification agreement
    # are theorems; a single artifact here means one of the exact checks
    # computes the wrong answer
    for trial in range(60):
        p, z = random_kkt_instance(rng)
        rep = diagnostics.classify_stationary_point(p, z, CFG)
        assert rep.failures == (), (trial, [(b.kind, b.dim) for b in p.cone.blocks],
                                    rep.failures)


def test_sampling_never_beats_exact_ssoc_minimum(rng):
    # the face-eigen minimum is a true minimum: no sampled critical
    # direction may produce a smaller quadratic value
    for trial in range(40):
        p, z = random_kkt_instance(rng)
        out = diagnostics.check_ssoc(p, z, CFG)
        if not out.conclusive:
            continue
        data = problem.lagrangian_data(p, z)
        K = cones.critical_cone(p.cone, data.f_val, z.lam)
        Q = data.hess_xx + data.jac_f.T @ K.curvature_matrix() @ data.jac_f
        for _ in range(400):
            w = rng.normal(size=p.n)
            w /= np.linalg.norm(w)
            if K.contains(data.jac_f @ w, tol=1e-10):
                assert w @ Q @ w >= out.min_value - 1e-8, trial
        if out.witness is not None:
            assert out.witness @ Q @ out.witness == pytest.approx(out.min_value, abs=1e-8)
            assert np.linalg.norm(out.witness) == pytest.approx(1.0, abs=1e-9)
            assert K.contains(data.jac_f @ out.witness, tol=1e-7)


def test_sampled_witnesses_imply_enumerated_criticality(rng):
    # whenever the sampled safety net produces a verified witness, the
    # exhaustive face search must also report critical (and vice versa the
    # face search witness must itself verify)
    for trial in range(40):
        p, z = random_kkt_instance(rng)
        out = diagnostics.check_noncriticality(p, z, CFG)
        if not out.conclusive:
            continue
        data = problem.lagrangian_data(p, z)
        K = diagnostics._critical_cone(p, z, data)
        J = data.jac_f
        Hc = K.curvature_matrix()
        Q = data.hess_xx + J.T @ Hc @ J
        sampled = diagnostics._noncrit_sampled(p, data, K, Q, J, Hc, CFG)
        if out.noncritical:
            assert sampled is None, trial
        else:
            w, u = out.witness
            assert diagnostics._verify_critical_witness(data, K, J, w, u), trial


def test_srcq_witnesses_are_genuine(rng):
    # a failure certificate must be a unit polar vector in the kernel
    found_failures = 0
    for trial in range(60):
        p, z = random_kkt_instance(rng)
        out = diagnostics.check_srcq(p, z, CFG)
        if not out.conclusive:
            continue
        if not out.holds:
            found_failures += 1
            u = out.witness
            data = problem.lagrangian_data(p, z)
            K = cones.critical_cone(p.cone, data.f_val, z.lam)
            assert np.linalg.norm(K.project(u)) <= 1e-7 * (1 + np.linalg.norm(u))
            assert np.linalg.norm(data.jac_f.T @ u) <= 1e-7 * (1 + np.linalg.norm(u))
            assert np.linalg.norm(u) > 1e-7
    assert found_failures > 0  # the generator must exercise both outcomes


def test_domain_law_on_random_instances(rng):
    # the subderivative of the constraint cone stays consistent with the
    # critical-cone membership through the problem-level plumbing
    for _ in range(40):
        p, z = random_kkt_instance(rng)
        data = problem.lagrangian_data(p, z)
        for _ in range(10):
            w = rng.normal(size=p.m)
            val = cones.second_subderivative(p.cone, data.f_val, z.lam, w)
            inside = cones.critical_cone_contains(p.cone, data.f_val, z.lam, w)
            assert math.isfinite(val) == inside
