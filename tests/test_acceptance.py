"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v`` (the verdict lines bypass
output capture so they always appear).
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conesqp import cli, cones, diagnostics, expr, problem, registry, sqp, subproblem
from conesqp.problem import KKTPair

import oracles
from test_expr import central_diff_grad, central_diff_hess, random_ast
from test_subproblem import random_polyhedral_instance


@contextmanager
def criterion(capsys, number, text):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} FAIL: {text}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_one_variable_cubic_fixture(capsys, tmp_path):
    with criterion(capsys, 1, "one-variable cubic fixture end to end (< 5 s)"):
        t0 = time.perf_counter()
        p = registry.load_problem("ex55")

        # (a) unique multiplier 0 at the degenerate stationary point
        msa = problem.multiplier_set_analysis(p, np.array([0.0]))
        assert msa.status == "exact" and msa.nonempty and msa.unique
        assert np.allclose(msa.sample, [0.0], atol=1e-10)

        # (b) solvability failure at k=0, certified by empty enumeration
        out = tmp_path / "b.json"
        assert cli.main(["solve", "ex55", "--x0", "0.1", "--lam0", "0",
                         "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["status"] == "SolvabilityFailure"
        assert doc["report"]["failure_iter"] == 0
        data = sqp.build_subproblem(p, KKTPair([0.1], [0.0]))
        assert subproblem.enumerate_kkt_points(data) == []

        # (c) convergence to the strict minimizer at a second-order rate
        out = tmp_path / "c.json"
        assert cli.main(["solve", "ex55", "--x0", "1.9", "--lam0", "0",
                         "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["status"] == "Converged"
        assert len(doc["report"]["iterates"]) - 1 <= 10
        final = doc["report"]["iterates"][-1]
        assert abs(final["x"][0] - 2.0) <= 1e-9 and abs(final["lam"][0]) <= 1e-12
        assert doc["report"]["residuals"][-1]["total"] <= 1e-10
        assert doc["report"]["rate"]["classification"] in ("Superlinear", "Quadratic")

        # (d) diagnostics at the degenerate point
        cfg = diagnostics.DiagnosticsConfig(run_probe=False)
        z = KKTPair([0.0], [0.0])
        assert diagnostics.check_srcq(p, z, cfg).holds
        assert diagnostics.check_noncriticality(p, z, cfg).noncritical
        ssoc = diagnostics.check_ssoc(p, z, cfg)
        assert abs(ssoc.min_value - (-1.0)) <= 1e-6

        # (e) bounded perturbation profile
        probe = diagnostics.probe_isolated_calmness(p, z)
        ratios = {s.radius: s.max_ratio for s in probe.samples}
        assert ratios[1e-6] <= 3.0 * ratios[1e-2]

        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_oracle_agreement(capsys, rng):
    with criterion(capsys, 2, "closed-form vs difference-quotient oracle, 1e-3 gate (< 30 s)"):
        t0 = time.perf_counter()
        for cone in (cones.orthant(3), cones.zero(2), cones.second_order(3)):
            for _ in range(100):
                y, lam = cones.sample_boundary_pair(cone, rng)
                w = cones.sample_critical_direction(cone, y, lam, rng)
                closed = cones.second_subderivative(cone, y, lam, w)
                oracle = cones.dq_oracle_second_subderivative(cone, y, lam, w)
                assert abs(closed - oracle) <= 1e-3 * (1.0 + abs(closed))
        assert time.perf_counter() - t0 < 30.0


def test_criterion_3_domain_law(capsys, rng):
    with criterion(capsys, 3, "second subderivative finite exactly on the critical cone (300 triples)"):
        cones_cycle = [cones.orthant(3), cones.zero(2), cones.second_order(3),
                       cones.product(cones.orthant(1), cones.second_order(3))]
        disagreements = 0
        for i in range(300):
            cone = cones_cycle[i % len(cones_cycle)]
            y, lam = cones.sample_boundary_pair(cone, rng)
            if rng.integers(2):
                w = cones.sample_critical_direction(cone, y, lam, rng)
            else:
                w = rng.normal(size=cone.total_dim)
            val = cones.second_subderivative(cone, y, lam, w)
            if math.isfinite(val) != oracles.critical_cone_contains(cone, y, lam, w):
                disagreements += 1
        assert disagreements == 0


def test_criterion_4_engine_cross_validation(capsys, rng):
    with criterion(capsys, 4, "splitting vs enumeration on 200 definite polyhedral instances (< 60 s)"):
        t0 = time.perf_counter()
        for _ in range(200):
            data = random_polyhedral_instance(rng, definite=True)
            se = subproblem.solve_subproblem(
                data, cfg=subproblem.SolverConfig(engine=subproblem.ENGINE_ENUMERATION))
            ss = subproblem.solve_subproblem(
                data, cfg=subproblem.SolverConfig(engine=subproblem.ENGINE_SPLITTING))
            assert se.status == subproblem.KKT_POINT
            assert ss.status == subproblem.KKT_POINT
            oe, os_ = data.objective(se.d), data.objective(ss.d)
            assert abs(oe - os_) <= 1e-6 * (1.0 + abs(oe))
            scale = 1.0 + np.linalg.norm(data.g) + np.linalg.norm(data.c)
            assert subproblem.kkt_residual(data, se.d, se.lam) <= 1e-8 * scale
            assert subproblem.kkt_residual(data, ss.d, ss.lam) <= 1e-8 * scale
        assert time.perf_counter() - t0 < 60.0


def test_criterion_5_consistency_suite(capsys, reg):
    with criterion(capsys, 5, "biconditional cross-checks: zero FAILURE artifacts on the registry"):
        cfg = diagnostics.DiagnosticsConfig()
        checked = 0
        for entry in reg.values():
            for kp in entry.known_points:
                rep = diagnostics.classify_stationary_point(entry.problem, kp.point, cfg)
                assert rep.failures == (), (entry.name, rep.failures)
                checked += 1
        assert checked == 7  # ex55 x2, critical_toy x2, qp_orthant, soc_toy, soc_degenerate


def test_criterion_6_criticality_detection(capsys, reg):
    with criterion(capsys, 6, "criticality witness at 1e-9 and inverse-sqrt probe growth"):
        p = reg["critical_toy"].problem
        cfg = diagnostics.DiagnosticsConfig(run_probe=False)
        out = diagnostics.check_noncriticality(p, KKTPair([0.0], [-1.0]), cfg)
        assert not out.noncritical and out.conclusive
        w, u = out.witness
        assert np.linalg.norm(w) >= 1e-7
        data = problem.lagrangian_data(p, KKTPair([0.0], [-1.0]))
        scale = 1.0 + np.linalg.norm(w) + np.linalg.norm(u)
        assert np.linalg.norm(data.hess_xx @ w + data.jac_f.T @ u) <= 1e-9 * scale
        assert oracles.proto_derivative_contains(
            p.cone, data.f_val, np.array([-1.0]), data.jac_f @ w, u, tol=1e-9)

        out0 = diagnostics.check_noncriticality(p, KKTPair([0.0], [0.0]), cfg)
        assert out0.noncritical and out0.conclusive

        probe = diagnostics.probe_isolated_calmness(p, KKTPair([0.0], [-1.0]))
        ratios = {s.radius: s.max_ratio for s in probe.samples}
        assert ratios[1e-6] >= 10.0 * ratios[1e-2]
        for r in (1e-2, 1e-6):
            assert (r ** -0.5) / 3.0 <= ratios[r] <= 3.0 * (r ** -0.5)


def test_criterion_7_second_order_cone_end_to_end(capsys, reg):
    with criterion(capsys, 7, "second-order-cone fixture: superlinear run and strict complementarity (< 5 s)"):
        t0 = time.perf_counter()
        p = reg["soc_toy"].problem
        direction = np.array([0.6, -0.8, 0.0, 0.0, 0.0])
        z0 = KKTPair(p.reference.x + 0.1 * direction[:2], p.reference.lam + 0.1 * direction[2:])
        assert z0.distance_to(p.reference) == pytest.approx(0.1)
        rep = sqp.run_basic_sqp(p, z0)
        assert rep.status == sqp.CONVERGED
        assert rep.residuals[-1].total <= 1e-10
        assert rep.rate.classification in (sqp.RATE_SUPERLINEAR, sqp.RATE_QUADRATIC)
        calm = diagnostics.check_multiplier_calmness(p, p.reference)
        assert calm.verdict == diagnostics.CALM
        assert "strict complementarity" in calm.reason
        assert time.perf_counter() - t0 < 5.0


def test_criterion_8_ad_correctness(capsys, rng):
    with criterion(capsys, 8, "AD gradients/Hessians vs central differences on 100 expressions"):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            ast = expr.ExprAST(random_ast(rng, n), n)
            x = rng.uniform(-2.0, 2.0, size=n)
            so = expr.eval2(ast, x)
            g_fd = central_diff_grad(ast, x)
            h_fd = central_diff_hess(ast, x)
            assert np.linalg.norm(so.gradient - g_fd) <= 1e-6 * (1.0 + np.linalg.norm(g_fd))
            assert np.linalg.norm(so.hessian - h_fd) <= 1e-6 * (1.0 + np.linalg.norm(h_fd))
