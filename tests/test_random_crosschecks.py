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

import oracles

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
        K = diagnostics._gate(p, z)[1]
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
            inside = oracles.critical_cone_contains(p.cone, data.f_val, z.lam, w)
            assert math.isfinite(val) == inside


def _reference_parametrization(cone, y, tol):
    """The normal cone at y as ``lam = B v, v[neg] <= 0``, walked block by
    block from y alone, as the multiplier analysis built it before the
    critical cone carried the face decision; None at a second-order apex."""
    m = cone.total_dim
    cols, neg = [], []
    yscale = 1.0 + float(np.linalg.norm(y))
    for block, sl in cone.slices():
        if block.kind == cones.ZERO:
            for i in range(sl.start, sl.stop):
                e = np.zeros(m)
                e[i] = 1.0
                cols.append(e)
        elif block.kind == cones.ORTHANT:
            for i in range(sl.start, sl.stop):
                if y[i] <= tol * yscale:
                    e = np.zeros(m)
                    e[i] = 1.0
                    neg.append(len(cols))
                    cols.append(e)
        else:
            case = cones._soc_case(y[sl], tol)
            if case == "interior":
                continue
            if case == "apex":
                return None
            col = np.zeros(m)
            col[sl] = -cones._soc_boundary_normal(y[sl])
            neg.append(len(cols))
            cols.append(col)
    return np.array(cols).T.reshape(m, len(cols)), neg


def _reference_strictly_complementary(cone, y, lam, tol):
    lscale = 1.0 + float(np.linalg.norm(lam))
    for block, sl in cone.slices():
        if block.kind != cones.SOC:
            continue
        case = cones._soc_case(y[sl], tol)
        lb = lam[sl]
        if case == "boundary" and -lb[-1] <= tol * lscale:
            return False
        if case == "apex" and not float(np.linalg.norm(lb[:-1])) < -lb[-1] - tol * lscale:
            return False
    return True


def test_multiplier_basis_matches_reference_parametrization(rng):
    # the gate's critical cone and the tangent-cone one of the multiplier
    # analysis give the block walk's columns, signs and order, bit for bit
    seen = set()
    for trial in range(80):
        p, z = random_kkt_instance(rng)
        data, K = diagnostics._gate(p, z)
        tangent = cones.critical_cone(p.cone, data.f_val, np.zeros(p.m), problem.FACE_TOL)
        want = _reference_parametrization(p.cone, data.f_val, 1e-8)
        seen.add(want is None)
        for cone_at in (K, tangent):
            got = cone_at.multiplier_basis()
            if want is None:
                assert got is None, trial
            else:
                assert np.array_equal(got[0], want[0]) and got[1] == want[1], trial
        assert K.strictly_complementary == _reference_strictly_complementary(
            p.cone, data.f_val, z.lam, 1e-8
        ), trial
    assert seen == {True, False}  # apex blocks and parametrizable points both occur
