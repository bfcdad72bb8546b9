import numpy as np
import pytest

from conesqp import problem, sqp, subproblem
from conesqp.problem import KKTPair
from conesqp.sqp import (
    CONVERGED,
    LOCALIZATION_VIOLATED,
    RATE_LINEAR,
    RATE_NONE,
    RATE_QUADRATIC,
    RATE_SUPERLINEAR,
    SOLVABILITY_FAILURE,
    InsufficientData,
    SQPConfig,
    estimate_rate,
    run_basic_sqp,
)


def newton_oracle_on_gradient(x0, iters=10):
    """Independent reference: plain Newton on -x + x^2/2 = 0 from x0."""
    xs = [x0]
    x = x0
    for _ in range(iters):
        grad = -x + 0.5 * x * x
        hess = -1.0 + x
        x = x - grad / hess
        xs.append(x)
    return xs


class TestRateEstimation:
    def test_superlinear_spec_sequence(self):
        rate = estimate_rate([1.0, 1e-2, 1e-6])
        assert rate.classification == RATE_SUPERLINEAR
        assert rate.ratios == pytest.approx((1e-2, 1e-4))

    def test_linear_spec_sequence(self):
        rate = estimate_rate([1.0, 0.5, 0.25, 0.125])
        assert rate.classification == RATE_LINEAR
        assert rate.ratios == pytest.approx((0.5, 0.5, 0.5))

    def test_newton_oracle_errors_classify_second_order(self):
        xs = newton_oracle_on_gradient(1.9)
        errors = [abs(x - 2.0) for x in xs]
        rate = estimate_rate(errors)
        assert rate.classification in (RATE_QUADRATIC, RATE_SUPERLINEAR)

    def test_exact_termination_is_superlinear(self):
        assert estimate_rate([0.1, 0.0]).classification == RATE_SUPERLINEAR
        assert estimate_rate([1.0, 1e-3, 0.0]).classification == RATE_SUPERLINEAR

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_rate([1.0, 0.5])

    def test_stagnant_sequence_is_none(self):
        assert estimate_rate([1.0, 1.0, 1.0, 1.0]).classification == RATE_NONE

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            estimate_rate([1.0, -0.5, 0.1])


class TestEx55Runs:
    def test_solvability_failure_near_degenerate_point(self, reg):
        rep = run_basic_sqp(reg["ex55"].problem, KKTPair([0.1], [0.0]))
        assert rep.status == SOLVABILITY_FAILURE
        assert rep.failure_iter == 0
        assert rep.subproblem_status == subproblem.UNBOUNDED

    def test_converges_to_strict_minimizer(self, reg):
        rep = run_basic_sqp(reg["ex55"].problem, KKTPair([1.9], [0.0]))
        assert rep.status == CONVERGED
        assert len(rep.iterates) - 1 <= 10
        assert np.allclose(rep.final.x, [2.0], atol=1e-9)
        assert np.allclose(rep.final.lam, [0.0], atol=1e-12)
        assert rep.residuals[-1].total <= 1e-10
        assert rep.rate.classification in (RATE_QUADRATIC, RATE_SUPERLINEAR)

    def test_iterates_match_newton_oracle(self, reg):
        # constraint stays inactive, so the run is Newton on the gradient
        rep = run_basic_sqp(reg["ex55"].problem, KKTPair([1.9], [0.0]))
        oracle = newton_oracle_on_gradient(1.9, iters=len(rep.iterates) - 1)
        for it, x_ref in zip(rep.iterates, oracle):
            assert it.x[0] == pytest.approx(x_ref, abs=1e-12)
        assert rep.iterates[1].x[0] - rep.iterates[0].x[0] == pytest.approx(0.095 / 0.9, abs=1e-12)

    def test_one_lagrangian_evaluation_per_iterate(self, reg, monkeypatch):
        # the residual and the subproblem at an iterate share one evaluation
        calls = []
        evaluate = problem.lagrangian_data

        def counted(p, z):
            calls.append(z)
            return evaluate(p, z)

        monkeypatch.setattr(problem, "lagrangian_data", counted)
        rep = run_basic_sqp(reg["ex55"].problem, KKTPair([1.9], [0.0]))
        assert len(rep.iterates) > 2
        assert len(calls) == len(rep.iterates)


class TestOtherRuns:
    def test_projection_qp_in_one_solve(self, reg):
        rep = run_basic_sqp(reg["qp_orthant"].problem, KKTPair([0.0, 0.0], [0.0, 0.0]))
        assert rep.status == CONVERGED
        assert len(rep.iterates) == 2  # one subproblem solve
        assert np.allclose(rep.final.x, [1.0, 0.0], atol=1e-12)
        assert np.allclose(rep.final.lam, [0.0, -1.0], atol=1e-12)

    def test_soc_problem_from_perturbed_start(self, reg):
        p = reg["soc_toy"].problem
        d = np.array([0.6, -0.8]) * 0.1
        rep = run_basic_sqp(p, KKTPair(p.reference.x + d, p.reference.lam))
        assert rep.status == CONVERGED
        assert rep.residuals[-1].total <= 1e-10
        assert rep.rate.classification in (RATE_QUADRATIC, RATE_SUPERLINEAR)

    def test_localization_violation_with_tight_radius(self, reg):
        rep = run_basic_sqp(
            reg["ex55"].problem, KKTPair([1.5], [0.0]), SQPConfig(delta=1e-3)
        )
        assert rep.status == LOCALIZATION_VIOLATED
        assert rep.failure_iter == 0
        assert rep.step_norms[0] > 1e-3

    def test_critical_multiplier_attracts_slowly(self, reg):
        rep = run_basic_sqp(reg["critical_toy"].problem, KKTPair([0.3], [-0.5]))
        assert rep.status == CONVERGED
        assert abs(rep.final.lam[0] + 1.0) < 1e-5  # pulled into the critical multiplier
        assert len(rep.iterates) > 10  # no fast local convergence here


class TestInvariants:
    def test_accepted_transitions_satisfy_subproblem_kkt(self, reg):
        for name in ("ex55", "qp_orthant", "soc_toy", "soc_degenerate"):
            p = reg[name].problem
            z0 = KKTPair(p.reference.x + 0.08, p.reference.lam + 0.05)
            rep = run_basic_sqp(p, z0)
            for k in range(len(rep.iterates) - 1):
                z = rep.iterates[k]
                z_next = rep.iterates[k + 1]
                data = sqp.build_subproblem(p, z)
                res = subproblem.kkt_residual(data, z_next.x - z.x, z_next.lam)
                scale = 1.0 + np.linalg.norm(data.g) + np.linalg.norm(data.c)
                assert res <= 1e-8 * scale, (name, k)

    def test_determinism(self, reg):
        p = reg["soc_toy"].problem
        z0 = KKTPair(p.reference.x + 0.07, p.reference.lam - 0.02)
        rep1 = run_basic_sqp(p, z0, SQPConfig(seed=11))
        rep2 = run_basic_sqp(p, z0, SQPConfig(seed=11))
        assert rep1.status == rep2.status
        assert len(rep1.iterates) == len(rep2.iterates)
        for a, b in zip(rep1.iterates, rep2.iterates):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.lam, b.lam)

    def test_registry_problems_with_ssoc_and_srcq_converge_superlinearly(self, reg):
        # second-order sufficiency + strict Robinson at the reference point
        # must produce at-least-superlinear primal-dual convergence
        from conesqp import diagnostics

        cfg = diagnostics.DiagnosticsConfig(run_probe=False)
        for name, entry in reg.items():
            p = entry.problem
            try:
                ssoc = diagnostics.check_ssoc(p, p.reference, cfg)
                srcq = diagnostics.check_srcq(p, p.reference, cfg)
            except ValueError:
                continue  # reference not a KKT point (not the case in registry)
            if not (ssoc.conclusive and ssoc.holds and srcq.conclusive and srcq.holds):
                continue
            z0 = KKTPair(p.reference.x + 0.02, p.reference.lam + 0.01)
            rep = run_basic_sqp(p, z0)
            assert rep.status == CONVERGED, name
            assert rep.rate.classification in (RATE_QUADRATIC, RATE_SUPERLINEAR), name
