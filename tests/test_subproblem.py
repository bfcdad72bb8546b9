import numpy as np
import pytest

from conesqp import cones, subproblem
from conesqp.polyhedra import BudgetExceeded
from conesqp.subproblem import (
    ENGINE_ENUMERATION,
    ENGINE_NEWTON,
    ENGINE_SPLITTING,
    INFEASIBLE,
    ITER_LIMIT,
    KKT_POINT,
    NO_KKT_POINT,
    UNBOUNDED,
    SolverConfig,
    SubproblemData,
    enumerate_kkt_points,
    kkt_residual,
    solve_subproblem,
    splitting_solve,
)

import serial_newton


def ex55_subproblem(u: float) -> SubproblemData:
    """Quadratic model of the cubic one-variable program at primal point u."""
    return SubproblemData(
        H=np.array([[-1.0 + u]]),
        g=np.array([-u + 0.5 * u * u]),
        A=np.array([[1.0]]),
        c=np.array([u]),
        cone=cones.orthant(1),
    )


def random_polyhedral_instance(rng, definite=True, n_max=6, m_max=6):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    B = rng.normal(size=(n, n))
    H = B @ B.T + (0.5 * np.eye(n) if definite else 0.0)
    A = rng.normal(size=(m, n))
    blocks = tuple(
        cones.ConeBlock(cones.ORTHANT if rng.integers(2) else cones.ZERO, 1) for _ in range(m)
    )
    cone = cones.ConeSpec(blocks)
    d0 = rng.normal(size=n)
    c = cones.sample_point(cone, rng) - A @ d0  # feasible by construction
    g = rng.normal(size=n)
    return SubproblemData(H, g, A, c, cone)


class TestEnumeration:
    def test_no_kkt_point_near_degenerate_origin(self):
        assert enumerate_kkt_points(ex55_subproblem(0.1)) == []

    def test_single_point_near_minimizer(self):
        pts = enumerate_kkt_points(ex55_subproblem(1.9))
        assert len(pts) == 1
        d, lam = pts[0]
        assert d[0] == pytest.approx(0.095 / 0.9, abs=1e-12)
        assert lam[0] == 0.0

    def test_one_dimensional_active_solution(self):
        data = SubproblemData(np.array([[1.0]]), np.array([1.0]), np.array([[1.0]]),
                              np.array([0.0]), cones.orthant(1))
        pts = enumerate_kkt_points(data)
        assert len(pts) == 1
        d, lam = pts[0]
        assert d[0] == pytest.approx(0.0, abs=1e-12)
        assert lam[0] == pytest.approx(-1.0, abs=1e-12)

    def test_collects_all_points_and_nearest_selection(self):
        # indefinite curvature: both the inactive and the active pattern solve
        data = SubproblemData(np.array([[-1.0]]), np.array([0.0]), np.array([[1.0]]),
                              np.array([1.0]), cones.orthant(1))
        pts = enumerate_kkt_points(data)
        assert len(pts) == 2
        sols = sorted((float(d[0]), float(lam[0])) for d, lam in pts)
        assert sols[0] == pytest.approx((-1.0, -1.0), abs=1e-12)
        assert sols[1] == pytest.approx((0.0, 0.0), abs=1e-12)
        near_zero = solve_subproblem(data, hint=(np.zeros(1), np.zeros(1)))
        assert near_zero.d[0] == pytest.approx(0.0, abs=1e-12)
        near_active = solve_subproblem(data, hint=(np.array([-1.0]), np.array([-1.0])))
        assert near_active.d[0] == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_soc(self):
        data = SubproblemData(np.eye(2), np.zeros(2), np.eye(3)[:, :2], np.zeros(3),
                              cones.second_order(3))
        with pytest.raises(ValueError):
            enumerate_kkt_points(data)


class TestSolveStatuses:
    def test_unconstrained_minimizer_feasible(self):
        data = SubproblemData(np.eye(2), np.array([-1.0, -1.0]), np.eye(2), np.zeros(2),
                              cones.orthant(2))
        sol = solve_subproblem(data)
        assert sol.status == KKT_POINT and sol.engine == ENGINE_ENUMERATION
        assert np.allclose(sol.d, [1.0, 1.0]) and np.allclose(sol.lam, 0.0)

    def test_unbounded_status_near_degenerate_origin(self):
        sol = solve_subproblem(ex55_subproblem(0.1))
        assert sol.status == UNBOUNDED and sol.engine == ENGINE_ENUMERATION

    def test_infeasible_status(self):
        # zero cone row that no direction can satisfy
        data = SubproblemData(
            np.eye(1), np.zeros(1), np.array([[0.0]]), np.array([1.0]), cones.zero(1)
        )
        sol = solve_subproblem(data)
        assert sol.status == INFEASIBLE

    def test_unbounded_status_on_soc(self):
        # linear objective decreasing along a feasible second-order ray
        A = np.array([[1.0], [0.0], [1.0]])
        data = SubproblemData(np.zeros((1, 1)), np.array([-1.0]), A, np.zeros(3),
                              cones.second_order(3))
        sol = solve_subproblem(data)
        assert sol.status == UNBOUNDED

    def test_soc_strictly_complementary_solution(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        data = SubproblemData(np.zeros((2, 2)), np.array([-1.0, 0.0]), A,
                              np.array([0.9, 0.05, 1.0]), cones.second_order(3))
        sol = solve_subproblem(data, hint=(np.zeros(2), np.array([0.9, 0.1, -0.9])))
        assert sol.status == KKT_POINT and sol.engine == ENGINE_NEWTON
        assert np.allclose(data.c[:2] + sol.d, [1.0, 0.0], atol=1e-9)
        assert np.allclose(sol.lam, [1.0, 0.0, -1.0], atol=1e-9)
        assert sol.residual <= 1e-9

    def test_forced_newton_reports_its_own_failure(self, monkeypatch):
        # when Newton finds no KKT point of this strictly convex problem, only
        # the automatic engine choice may fall back to splitting
        monkeypatch.setattr(subproblem, "semismooth_newton_solve", lambda *args: [])
        data = SubproblemData(np.eye(3), np.array([1.0, 2.0, -1.0]), np.eye(3), np.zeros(3),
                              cones.second_order(3))
        hint = (50.0 * np.ones(3), 50.0 * np.ones(3))
        forced = solve_subproblem(data, hint, SolverConfig(engine=ENGINE_NEWTON))
        assert forced.status == ITER_LIMIT and forced.engine == ENGINE_NEWTON
        auto = solve_subproblem(data, hint)
        assert auto.status == KKT_POINT and auto.engine == ENGINE_SPLITTING

    def test_forced_newton_unbounded_by_exact_ray(self):
        # min -d over d >= 0: no KKT point, and the polyhedral ray search
        # certifies the descent ray d = 1
        data = SubproblemData(np.zeros((1, 1)), np.array([-1.0]), np.eye(1), np.zeros(1),
                              cones.orthant(1))
        sol = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_NEWTON))
        assert sol.status == UNBOUNDED and sol.engine == ENGINE_NEWTON

    def test_forced_newton_infeasible(self):
        # zero-cone rows asking for d = 0 and d = 1 at once
        data = SubproblemData(np.eye(1), np.zeros(1), np.array([[1.0], [1.0]]),
                              np.array([0.0, -1.0]), cones.zero(2))
        sol = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_NEWTON))
        assert sol.status == INFEASIBLE and sol.engine == ENGINE_NEWTON


class TestOneClassifier:
    @pytest.mark.parametrize("u", [0.1, 0.5])
    def test_every_engine_unbounded_near_degenerate_origin(self, u):
        # no KKT point, and the ray d = 1 has g.d < 0 and negative curvature
        for engine in (None, ENGINE_NEWTON, ENGINE_SPLITTING):
            sol = solve_subproblem(ex55_subproblem(u), cfg=SolverConfig(engine=engine))
            assert sol.status == UNBOUNDED, engine
            assert sol.engine == (engine or ENGINE_ENUMERATION)

    def test_no_kkt_point_certified_only_by_enumeration(self):
        # feasible for d >= 1, no KKT point on either pattern, and unbounded
        # only along negative curvature with g.d = 0, which no ray certifies
        data = SubproblemData(np.array([[-1.0]]), np.array([0.0]), np.array([[1.0]]),
                              np.array([-1.0]), cones.orthant(1))
        assert enumerate_kkt_points(data) == []
        auto = solve_subproblem(data)
        assert auto.status == NO_KKT_POINT and auto.engine == ENGINE_ENUMERATION
        forced = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_NEWTON))
        assert forced.status == ITER_LIMIT and forced.engine == ENGINE_NEWTON

    def test_splitting_returns_a_list(self):
        assert splitting_solve(ex55_subproblem(0.1)) == []  # indefinite H
        points = splitting_solve(ex55_subproblem(1.9))
        assert len(points) == 1
        assert points[0][0][0] == pytest.approx(0.095 / 0.9, abs=1e-9)

    def test_pattern_budget_counts_orthant_coordinates(self):
        n = 11
        data = SubproblemData(np.eye(n), -np.ones(n), np.eye(n), np.zeros(n), cones.orthant(n))
        with pytest.raises(BudgetExceeded):
            enumerate_kkt_points(data)
        sol = solve_subproblem(data)
        assert sol.status == KKT_POINT and sol.engine == ENGINE_NEWTON
        assert np.allclose(sol.d, np.ones(n))
        # twelve zero rows make one pattern: enumerated
        n = 12
        data = SubproblemData(np.eye(n), np.zeros(n), np.eye(n), np.arange(n, dtype=float),
                              cones.zero(n))
        sol = solve_subproblem(data)
        assert sol.status == KKT_POINT and sol.engine == ENGINE_ENUMERATION
        assert np.allclose(sol.d, -np.arange(n))


class TestEngineAgreement:
    def test_splitting_matches_enumeration_on_objective(self, rng):
        for trial in range(60):
            data = random_polyhedral_instance(rng)
            se = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_ENUMERATION))
            ss = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_SPLITTING))
            assert se.status == KKT_POINT, trial
            assert ss.status == KKT_POINT, trial
            oe, os_ = data.objective(se.d), data.objective(ss.d)
            assert abs(oe - os_) <= 1e-6 * (1.0 + abs(oe)), (trial, oe, os_)

    def test_every_returned_point_reverifies(self, rng):
        for trial in range(40):
            data = random_polyhedral_instance(rng)
            for engine in (ENGINE_ENUMERATION, ENGINE_SPLITTING, ENGINE_NEWTON):
                sol = solve_subproblem(data, cfg=SolverConfig(engine=engine))
                if sol.status == KKT_POINT:
                    scale = 1.0 + np.linalg.norm(data.g) + np.linalg.norm(data.c)
                    assert kkt_residual(data, sol.d, sol.lam) <= 1e-8 * scale, (trial, engine)

    def test_newton_matches_enumeration_on_polyhedral(self, rng):
        for trial in range(30):
            data = random_polyhedral_instance(rng)
            se = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_ENUMERATION))
            sn = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_NEWTON))
            assert sn.status == KKT_POINT, trial
            assert abs(data.objective(se.d) - data.objective(sn.d)) <= 1e-6

    def test_splitting_matches_newton_on_mixed_cones(self, rng):
        # psd (possibly singular) Hessians over orthant x second-order products
        for trial in range(20):
            n = int(rng.integers(1, 4))
            B = rng.normal(size=(n, max(n - 1, 1)))
            H = B @ B.T
            cone = cones.product(cones.orthant(1), cones.second_order(3))
            A = rng.normal(size=(4, n))
            c = cones.sample_point(cone, rng) - A @ rng.normal(size=n)
            data = SubproblemData(H, rng.normal(size=n), A, c, cone)
            ss = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_SPLITTING))
            sn = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_NEWTON))
            assert ss.status == KKT_POINT and sn.status == KKT_POINT, trial
            oe, os_ = data.objective(sn.d), data.objective(ss.d)
            assert abs(oe - os_) <= 1e-6 * (1.0 + abs(oe)), trial
            assert ss.residual <= 1e-8 and sn.residual <= 1e-8

    def test_splitting_finds_constructed_solution_on_orthant_and_soc(self, rng):
        # H positive definite, so the constructed d* is the only KKT point
        cone = cones.product(cones.orthant(2), cones.second_order(3))
        for trial in range(30):
            n = int(rng.integers(2, 6))
            active = rng.random(2) < 0.5
            y_orth = np.where(active, 0.0, rng.uniform(0.5, 1.5, 2))
            lam_orth = np.where(active, -rng.uniform(0.5, 1.5, 2), 0.0)
            ybar = rng.normal(size=2)
            ybar *= rng.uniform(0.5, 1.5) / np.linalg.norm(ybar)
            r = float(np.linalg.norm(ybar))
            if trial % 2:  # boundary of the second-order block, multiplier mu (ybar/r, -1)
                y_soc, lam_soc = np.append(ybar, r), rng.uniform(0.5, 1.5) * np.append(ybar / r, -1.0)
            else:  # interior, zero multiplier
                y_soc, lam_soc = np.append(ybar, r + rng.uniform(0.5, 1.0)), np.zeros(3)
            s_star, lam_star = np.concatenate([y_orth, y_soc]), np.concatenate([lam_orth, lam_soc])
            B = rng.normal(size=(n, n))
            H = B @ B.T / n + 0.5 * np.eye(n)
            A = rng.normal(size=(5, n))
            d_star = rng.normal(size=n)
            data = SubproblemData(H, -H @ d_star - A.T @ lam_star, A, s_star - A @ d_star, cone)
            points = splitting_solve(data)
            assert len(points) == 1, trial
            d, lam = points[0]
            assert kkt_residual(data, d, lam) <= subproblem._TOL * data.scale, trial
            assert np.linalg.norm(d - d_star) <= 1e-8 * (1.0 + np.linalg.norm(d_star)), trial


def test_one_row_newton_matches_the_serial_reference(rng):
    # the engine's starts run as one-row stacks; indefinite and definite
    # Hessians over zero x orthant x second-order products
    cone = cones.product(cones.zero(1), cones.orthant(2), cones.second_order(3))
    for trial in range(20):
        n = int(rng.integers(1, 5))
        B = rng.normal(size=(n, n))
        H = B @ B.T if trial % 2 else B + B.T
        data = SubproblemData(H, rng.normal(size=n), rng.normal(size=(6, n)),
                              rng.normal(size=6), cone)

        def residual(d, lam):
            y = data.c + data.A @ d
            return np.concatenate(
                [data.g + data.H @ d + data.A.T @ lam, y - cones.project(data.cone, y + lam)])

        def linearize(d, lam):
            return data.H, data.A, data.c + data.A @ d

        tol = 1e-13 * (1.0 + float(np.linalg.norm(data.g)))
        for _ in range(5):
            d0, lam0 = rng.normal(size=n), rng.normal(size=6)
            d, lam, res = subproblem._newton_from(data, d0, lam0, 100)
            ds, ls, rs = serial_newton.damped_newton(cone, residual, linearize, d0, lam0, tol, 100)
            assert np.array_equal(d, ds) and np.array_equal(lam, ls) and res.hex() == rs.hex()


def test_singular_row_without_lstsq_stops_before_any_residual():
    # F(x) = x^2 - 1 on the cone with no rows: the Jacobian 2x is singular at 0
    evaluated = []

    def residual(x, lam, rows):
        evaluated.append(rows.copy())
        return x**2 - 1.0

    def linearize(x, lam, rows):
        return 2.0 * x[:, :, None], np.zeros((len(x), 0, 1)), np.zeros((len(x), 0))

    x, lam, res = subproblem.damped_newton(cones.ConeSpec(()), residual, linearize,
                                           np.array([[0.0], [2.0]]), np.zeros((2, 0)),
                                           1e-13, 60, lstsq=False)
    assert x[0, 0] == 0.0 and res[0] == 1.0  # where it stood
    assert abs(x[1, 0] - 1.0) <= 1e-13 and res[1] <= 1e-13 and lam.shape == (2, 0)
    assert all(0 not in rows for rows in evaluated[1:])


class TestSplittingStops:
    """The polish runs at the loose ADMM stop; when its point fails the KKT
    tolerance, ADMM goes on to the tight stop and polishes once more."""

    def spoil_polish(self, monkeypatch, spoiled: int):
        """Make the first ``spoiled`` polishes return a point off by one in
        ``d``; record every polish start."""
        starts = []
        newton_from = subproblem._newton_from

        def polish(data, d0, lam0, max_iters):
            starts.append(d0)
            d, lam, res = newton_from(data, d0, lam0, max_iters)
            return (d + 1.0, lam, res) if len(starts) <= spoiled else (d, lam, res)

        monkeypatch.setattr(subproblem, "_newton_from", polish)
        return starts

    def test_first_polish_alone_when_it_passes(self, monkeypatch):
        starts = self.spoil_polish(monkeypatch, 0)
        points = splitting_solve(projection_subproblem())
        assert len(starts) == 1 and len(points) == 1
        assert np.allclose(points[0][0], [1.5, 0.0, 1.5], atol=1e-9)

    def test_failed_first_polish_goes_on_to_the_tight_stop(self, monkeypatch):
        data = projection_subproblem()
        starts = self.spoil_polish(monkeypatch, 1)
        points = splitting_solve(data)
        assert len(starts) == 2 and len(points) == 1
        d, lam = points[0]
        assert np.allclose(d, [1.5, 0.0, 1.5], atol=1e-9)
        assert kkt_residual(data, d, lam) <= subproblem._TOL * data.scale
        # the second polish starts from ADMM's tight stop
        assert np.linalg.norm(starts[1] - [1.5, 0.0, 1.5]) <= 1e-8

    def test_both_polishes_failing_returns_no_point(self, monkeypatch):
        starts = self.spoil_polish(monkeypatch, 2)
        assert splitting_solve(projection_subproblem()) == []
        assert len(starts) == 2


def count_newton_starts(monkeypatch) -> list[int]:
    """Count ``_newton_from`` calls (one per multi-start) from now on."""
    count = [0]
    newton_from = subproblem._newton_from

    def counted(*args, **kwargs):
        count[0] += 1
        return newton_from(*args, **kwargs)

    monkeypatch.setattr(subproblem, "_newton_from", counted)
    return count


def projection_subproblem(H=None, extra_rows=()):
    """min 1/2 |d - p|^2 over d in L^3 (p = (2, 1, 1)) and d_2 <= 0, which is
    active with a positive multiplier; the solution (1.5, 0, 1.5) lies on the
    boundary of L^3.  ``extra_rows`` adds orthant rows ``(a, c)``."""
    rows = [(np.array([0.0, -1.0, 0.0]), 0.0), *extra_rows]
    A = np.vstack([np.eye(3)] + [a for a, _ in rows])
    c = np.concatenate([np.zeros(3), [ci for _, ci in rows]])
    cone = cones.product(cones.second_order(3), cones.orthant(len(rows)))
    H = np.eye(3) if H is None else H
    return SubproblemData(H, -np.array([2.0, 1.0, 1.0]), A, c, cone)


class TestNewtonStoppingRule:
    def test_unique_kkt_point_takes_one_start(self, monkeypatch):
        data = projection_subproblem()
        starts = count_newton_starts(monkeypatch)
        sol = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_NEWTON))
        assert sol.status == KKT_POINT and np.allclose(sol.d, [1.5, 0.0, 1.5], atol=1e-9)
        assert starts[0] == 1

    @pytest.mark.parametrize("data", [
        # the active row twice: a segment of multipliers
        projection_subproblem(extra_rows=[(np.array([0.0, -1.0, 0.0]), 0.0)]),
        # indefinite H, with d_3 <= 3 to keep the feasible set bounded
        projection_subproblem(H=np.diag([1.0, 1.0, -0.25]),
                              extra_rows=[(np.array([0.0, 0.0, -1.0]), 3.0)]),
        # the solution d = 0 sits at the apex of L^3
        SubproblemData(np.eye(3), np.array([0.0, 0.0, 1.0]), np.eye(3), np.zeros(3),
                       cones.second_order(3)),
    ], ids=["duplicated-row", "indefinite", "apex"])
    def test_possibly_non_unique_keeps_every_start(self, data, monkeypatch):
        starts = count_newton_starts(monkeypatch)
        sol = solve_subproblem(data, cfg=SolverConfig(engine=ENGINE_NEWTON))
        assert sol.status == KKT_POINT
        assert starts[0] == subproblem._N_STARTS


class TestNewtonStarts:
    """The engine draws each start when it tries it: the starts it tries are
    a prefix of the list it once drew up front, and an early stop leaves the
    rest undrawn."""

    @staticmethod
    def tried_starts(monkeypatch):
        tried = []
        newton_from = subproblem._newton_from

        def recorded(data, d0, lam0, max_iters):
            tried.append((d0.copy(), lam0.copy()))
            return newton_from(data, d0, lam0, max_iters)

        monkeypatch.setattr(subproblem, "_newton_from", recorded)
        return tried

    @staticmethod
    def counted_draws(monkeypatch):
        """The number of draws from each generator made from now on."""
        draws = []
        default_rng = np.random.default_rng

        class Counted:
            def __init__(self, seed=None):
                self.rng = default_rng(seed)
                self.index = len(draws)
                draws.append(0)

            def __getattr__(self, name):
                method = getattr(self.rng, name)

                def draw(*args, **kwargs):
                    draws[self.index] += 1
                    return method(*args, **kwargs)

                return draw

        monkeypatch.setattr(np.random, "default_rng", Counted)
        return draws

    def assert_prefix_of_reference(self, data, hint, seed, tried):
        ref = serial_newton.newton_starts(data, hint, seed)
        assert 0 < len(tried) <= len(ref)
        for (d0, lam0), (ref_d, ref_lam) in zip(tried, ref):
            assert d0.tobytes() == ref_d.tobytes() and lam0.tobytes() == ref_lam.tobytes()

    def test_first_start_returns(self, monkeypatch):
        data = projection_subproblem()
        hint = (np.array([1.0, 0.5, 1.0]), np.array([-0.5, 0.0, 0.5, 0.5]))
        tried = self.tried_starts(monkeypatch)
        sol = solve_subproblem(data, hint, SolverConfig(seed=3, engine=ENGINE_NEWTON))
        assert sol.status == KKT_POINT and len(tried) == 1
        self.assert_prefix_of_reference(data, hint, 3, tried)

    def test_no_kkt_point_tries_every_start(self, monkeypatch):
        # min -d_1 over d_1, d_2, d_1 + d_2 >= 0: unbounded, so no KKT point
        data = SubproblemData(np.zeros((2, 2)), np.array([-1.0, 0.0]),
                              np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.zeros(3),
                              cones.orthant(3))
        hint = (np.array([0.3, -0.2]), np.array([0.1, 0.4, -0.7]))
        tried = self.tried_starts(monkeypatch)
        draws = self.counted_draws(monkeypatch)
        assert subproblem.semismooth_newton_solve(data, hint, 11) == []
        assert len(tried) == subproblem._N_STARTS
        assert draws == [3 * (subproblem._N_STARTS - 2)]  # uniform, normal(n), normal(m)
        self.assert_prefix_of_reference(data, hint, 11, tried)

    def test_first_start_returning_draws_nothing(self, monkeypatch):
        data = projection_subproblem()
        tried = self.tried_starts(monkeypatch)
        draws = self.counted_draws(monkeypatch)
        points = subproblem.semismooth_newton_solve(data, (np.zeros(3), np.zeros(4)), 0)
        assert len(points) == 1 and len(tried) == 1
        assert draws == [0]


def random_newton_instance(rng, second_order: bool):
    """Feasible subproblem over orthant and zero rows, plus a second-order
    block when asked; the Hessian is indefinite in a quarter of the draws and
    one orthant row is duplicated in a third of them."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    kinds = [cones.ORTHANT if rng.random() < 0.75 else cones.ZERO for _ in range(m)]
    A = rng.normal(size=(m, n))
    dup = kinds.index(cones.ORTHANT) if cones.ORTHANT in kinds and rng.random() < 1 / 3 else None
    if dup is not None:
        kinds.append(cones.ORTHANT)
        A = np.vstack([A, A[dup]])
    blocks = [cones.ConeBlock(kind, 1) for kind in kinds]
    if second_order:
        blocks.append(cones.ConeBlock(cones.SOC, int(rng.integers(2, 5))))
        A = np.vstack([A, rng.normal(size=(blocks[-1].dim, n))])
    cone = cones.ConeSpec(tuple(blocks))
    B = rng.normal(size=(n, n))
    H = B @ B.T + (0.5 if rng.random() < 0.75 else -1.0) * np.eye(n)
    c = cones.sample_point(cone, rng) - A @ rng.normal(size=n)
    if dup is not None:
        c[len(kinds) - 1] = c[dup]  # the copy is the same constraint
    return SubproblemData(H, rng.normal(size=n), A, c, cone)


def test_newton_stopping_rule_keeps_every_answer(rng, monkeypatch):
    cases = []
    for trial in range(48):
        data = random_newton_instance(rng, second_order=trial % 2 == 1)
        hint = (np.zeros(data.n), rng.normal(size=data.m) if trial % 4 < 2 else np.zeros(data.m))
        cases.append((data, hint, SolverConfig(seed=trial, engine=ENGINE_NEWTON)))
    starts = count_newton_starts(monkeypatch)
    fast = []
    for data, hint, cfg in cases:
        before = starts[0]
        fast.append((solve_subproblem(data, hint, cfg), starts[0] - before))
    monkeypatch.setattr(subproblem, "_multiplier_unique", lambda *args: False)
    stopped_early = 0
    for (data, hint, cfg), (sol, n_starts) in zip(cases, fast):
        before = starts[0]
        ref = solve_subproblem(data, hint, cfg)
        stopped_early += n_starts < starts[0] - before
        assert (sol.status, sol.engine) == (ref.status, ref.engine)
        if ref.status == KKT_POINT:
            assert np.array_equal(sol.d, ref.d) and np.array_equal(sol.lam, ref.lam)
    assert stopped_early >= 12  # the comparison covers the rule, not only its misses


class TestValidation:
    def test_asymmetric_hessian_rejected(self):
        H = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SubproblemData(H, np.zeros(2), np.eye(2), np.zeros(2), cones.orthant(2))

    @pytest.mark.parametrize("field", ["H", "g", "A", "c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, field, bad):
        arrays = {"H": np.eye(2), "g": np.zeros(2), "A": np.eye(2), "c": np.zeros(2)}
        arrays[field] = arrays[field].copy()
        arrays[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"subproblem {field} is not finite"):
            SubproblemData(cone=cones.orthant(2), **arrays)

    def test_overflowing_scale_rejected(self):
        # finite entries whose norm overflows would give every engine an infinite scale
        with pytest.raises(ValueError, match="subproblem c is not finite"):
            SubproblemData(np.eye(2), np.zeros(2), np.eye(2), np.array([1e200, 1e200]),
                           cones.orthant(2))

    def test_unknown_engine_rejected(self):
        data = SubproblemData(np.eye(1), np.zeros(1), np.eye(1), np.zeros(1), cones.orthant(1))
        with pytest.raises(ValueError, match="unknown subproblem engine 'Simplex'"):
            solve_subproblem(data, cfg=SolverConfig(engine="Simplex"))

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="dimensions"):
            SubproblemData(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2),
                           cones.orthant(3))
