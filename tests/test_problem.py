import numpy as np
import pytest

from conesqp import cones, expr, polyhedra, problem
from conesqp.problem import KKTPair, ProblemSpec


def fd_hessian_of_lagrangian(p, z, h=1e-5):
    n = p.n

    def grad(x):
        return problem.lagrangian_data(p, KKTPair(x, z.lam)).grad_x

    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        H[i] = (grad(z.x + e) - grad(z.x - e)) / (2 * h)
    return 0.5 * (H + H.T)


@pytest.fixture(scope="module")
def ex55(reg):
    return reg["ex55"].problem


class TestLagrangian:
    def test_ex55_at_origin(self, ex55):
        d = problem.lagrangian_data(ex55, KKTPair([0.0], [0.0]))
        assert d.grad_x[0] == pytest.approx(0.0, abs=1e-14)
        assert d.hess_xx[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_ex55_at_minimizer(self, ex55):
        d = problem.lagrangian_data(ex55, KKTPair([2.0], [0.0]))
        assert d.grad_x[0] == pytest.approx(0.0, abs=1e-14)
        assert d.hess_xx[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_ex55_midpoint_gradient(self, ex55):
        d = problem.lagrangian_data(ex55, KKTPair([1.0], [0.0]))
        assert d.grad_x[0] == pytest.approx(-0.5, abs=1e-14)

    def test_hessian_matches_finite_differences(self, reg, rng):
        for entry in reg.values():
            p = entry.problem
            for _ in range(10):
                z = KKTPair(rng.uniform(-1.5, 1.5, p.n), rng.uniform(-1.5, 1.5, p.m))
                H = problem.lagrangian_data(p, z).hess_xx
                H_fd = fd_hessian_of_lagrangian(p, z)
                assert np.linalg.norm(H - H_fd) <= 1e-6 * (1 + np.linalg.norm(H_fd))

    def test_stacked_rows_are_single_point_bits(self, reg, rng):
        for entry in reg.values():
            p = entry.problem
            X, L = rng.normal(size=(9, p.n)), rng.normal(size=(9, p.m))
            stacked = problem.lagrangian_data(p, KKTPair(X, L))
            for b in range(len(X)):
                single = problem.lagrangian_data(p, KKTPair(X[b], L[b]))
                for name in ("grad_obj", "grad_x", "hess_xx", "f_val", "jac_f"):
                    assert np.array_equal(getattr(stacked, name)[b], getattr(single, name)), name


class TestKKTResidual:
    def test_reference_points_solve_kkt(self, reg):
        for entry in reg.values():
            for kp in entry.known_points:
                res = problem.kkt_residual(entry.problem, kp.point)
                assert res.total <= 1e-10, entry.name
            assert problem.kkt_residual(entry.problem, entry.problem.reference).total <= 1e-10

    def test_ex55_nonstationary_point(self, ex55):
        res = problem.kkt_residual(ex55, KKTPair([1.0], [0.0]))
        assert res.stationarity == pytest.approx(0.5, abs=1e-14)
        assert res.complementarity == 0.0
        assert res.feasibility == 0.0
        assert res.total == pytest.approx(0.5, abs=1e-14)

    def test_total_is_component_sum(self, reg, rng):
        for entry in reg.values():
            p = entry.problem
            z = KKTPair(rng.uniform(-1, 1, p.n), rng.uniform(-1, 1, p.m))
            res = problem.kkt_residual(p, z)
            assert res.total == res.stationarity + res.complementarity + res.feasibility
            assert min(res.stationarity, res.complementarity, res.feasibility) >= 0.0


class TestMultiplierSet:
    def test_ex55_unique_zero(self, ex55):
        out = problem.multiplier_set_analysis(ex55, np.array([0.0]))
        assert out.status == "exact" and out.nonempty and out.unique
        assert out.sample == pytest.approx([0.0], abs=1e-10)
        assert out.bounding_box[0] == pytest.approx((0.0, 0.0), abs=1e-10)

    def test_critical_toy_unbounded_line(self, reg):
        out = problem.multiplier_set_analysis(reg["critical_toy"].problem, np.array([0.0]))
        assert out.status == "exact" and out.nonempty and not out.unique
        lo, hi = out.bounding_box[0]
        assert lo == -np.inf and hi == np.inf

    def test_projection_qp_hand_kkt(self, reg):
        out = problem.multiplier_set_analysis(reg["qp_orthant"].problem, np.array([1.0, 0.0]))
        assert out.unique
        assert np.allclose(out.sample, [0.0, -1.0], atol=1e-10)

    def test_soc_boundary_ray_parametrization(self, reg):
        out = problem.multiplier_set_analysis(reg["soc_toy"].problem, np.array([1.0, 0.0]))
        assert out.status == "exact" and out.unique
        assert np.allclose(out.sample, [1.0, 0.0, -1.0], atol=1e-9)

    def test_empty_range_after_feasible_is_inconclusive(self, reg, monkeypatch):
        # at a tolerance edge the range can come back empty after a feasible point was found
        monkeypatch.setattr(problem.polyhedra, "functional_range", lambda *a, **k: None)
        out = problem.multiplier_set_analysis(reg["qp_orthant"].problem, np.array([1.0, 0.0]))
        assert out.status == "inconclusive"
        assert "tolerance edge" in out.reason

    def test_equalities_reduced_once(self, reg, monkeypatch):
        calls = []
        reduce = polyhedra._reduce_equalities

        def counting(*args):
            calls.append(args)
            return reduce(*args)

        monkeypatch.setattr(polyhedra, "_reduce_equalities", counting)
        out = problem.multiplier_set_analysis(reg["qp_orthant"].problem, np.array([1.0, 0.0]))
        assert out.status == "exact" and out.unique
        assert len(calls) == 1

    def test_point_outside_cone_is_inconclusive(self, ex55):
        # f(x) = -1 lies outside the orthant: there are no active faces to read
        out = problem.multiplier_set_analysis(ex55, np.array([-1.0]))
        assert out.status == "inconclusive" and "outside the cone" in out.reason

    def test_nonstationary_point_reports_empty(self, ex55):
        out = problem.multiplier_set_analysis(ex55, np.array([1.0]))
        assert out.status == "exact" and not out.nonempty

    def test_converged_sqp_multiplier_matches_unique_sample(self, reg):
        from conesqp import sqp

        for name in ("ex55", "qp_orthant", "soc_toy"):
            p = reg[name].problem
            z0 = KKTPair(p.reference.x + 0.05, p.reference.lam)
            rep = sqp.run_basic_sqp(p, z0)
            assert rep.status == sqp.CONVERGED, name
            out = problem.multiplier_set_analysis(p, rep.final.x)
            assert out.unique, name
            assert np.linalg.norm(rep.final.lam - out.sample) <= 1e-6, name


class TestValidation:
    def test_cone_dimension_mismatch(self):
        with pytest.raises(ValueError, match="cone dimension"):
            ProblemSpec(
                "bad", 1, expr.parse("x1", 1), (expr.parse("x1", 1),), cones.orthant(2)
            )

    def test_kkt_pair_requires_finite(self):
        with pytest.raises(ValueError, match="finite"):
            KKTPair([np.nan], [0.0])
