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


# ---------------------------------------------------------------------------
# The problem's one tape against the per-expression tapes


def _hex(a) -> list[str]:
    return [v.hex() for v in np.asarray(a, float).ravel().tolist()]


def _unsigned_hex(a) -> list[str]:  # zero signs apart
    return _hex(np.asarray(a, float) + 0.0)


def _expressions(p):
    return (p.objective, *p.constraints)


def _assert_outputs_are_per_expression_bits(p, x, same=_hex):
    """Every output of the problem tape at ``x`` (a point or a stack) has the
    bits of ``eval2`` and ``eval1`` of its expression alone."""
    value, grad, hess = problem._outputs(p, x, True)
    value1, grad1 = problem._outputs(p, x, False)
    for e, ast in enumerate(_expressions(p)):
        so = expr.eval2(ast, x)
        assert same(value[..., e]) == same(so.value) == same(value1[..., e])
        assert same(grad[..., e, :]) == same(so.gradient) == same(grad1[..., e, :])
        assert same(hess[..., e, :, :]) == same(so.hessian)
        v1, g1 = expr.eval1(ast, x)
        assert same(v1) == same(so.value) and same(g1) == same(so.gradient)


def _perfbench_problems():
    """The seed-1 generated problems of ``perfbench/problems.py`` (only read)."""
    import importlib.util
    import sys
    from pathlib import Path

    from conesqp import registry

    path = Path(__file__).resolve().parent.parent / "perfbench" / "problems.py"
    spec = importlib.util.spec_from_file_location("perfbench_problems_tape", path)
    pb = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pb  # dataclasses look their module up there
    spec.loader.exec_module(pb)
    rng = np.random.default_rng(1)
    cases = [pb.sqp_case(rng, f"sqp{j}", *row)
             for schedule in (pb.SQP_POLYHEDRAL, pb.SQP_SOC) for j, row in enumerate(schedule)]
    cases += [pb.crossval_case(rng, f"crossval{j}", *row)
              for schedule in (pb.CROSSVAL_POLYHEDRAL, pb.CROSSVAL_SOC)
              for j, row in enumerate(schedule)]
    cases += list(pb.degenerate_cases(np.random.default_rng(1)))
    return [registry.problem_from_dict(case.doc) for case in cases]


def _random_problem(rng, n, m):
    from test_expr import random_ast

    asts = [expr.ExprAST(random_ast(rng, n, depth=int(rng.integers(1, 5))), n) for _ in range(m + 1)]
    return ProblemSpec("random", n, asts[0], tuple(asts[1:]), cones.orthant(m))


def _spec(n, objective, constraints):
    return ProblemSpec("edge", n, expr.parse(objective, n),
                       tuple(expr.parse(c, n) for c in constraints), cones.orthant(len(constraints)))


class TestProblemTape:
    def test_registry_and_benchmark_problems(self, reg, rng):
        problems = [entry.problem for entry in reg.values()] + _perfbench_problems()
        assert len(problems) > 100
        for p in problems:
            X = rng.normal(size=(5, p.n))
            X[0] = 0.0
            for x in X:
                _assert_outputs_are_per_expression_bits(p, x)
            _assert_outputs_are_per_expression_bits(p, X)
        for entry in reg.values():
            for kp in entry.known_points:
                _assert_outputs_are_per_expression_bits(entry.problem, kp.point.x)

    def test_random_problems(self, rng):
        for i in range(150):
            p = _random_problem(rng, n=1 + i % 3, m=1 + i % 4)
            X = rng.normal(size=(6, p.n)) * 10.0 ** rng.uniform(-2, 2, size=(6, 1))
            X[0] = 0.0
            X[1, 0] = -0.0
            for x in X:
                _assert_outputs_are_per_expression_bits(p, x)
            _assert_outputs_are_per_expression_bits(p, X)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_row_takes_the_exact_tape(self, monkeypatch):
        # 1e200^2 overflows: that row's data are not finite, the others are
        p = _spec(2, "x1^2*x2 - x2", ["x1*x2", "x2 - x1", "(x1 + 1)^3"])
        X = np.array([[0.5, -2.0], [1e200, 0.0], [0.0, -0.0], [3.0, 1.0]])
        stacks = []
        run = expr._Tape.stack

        def counted(tape, *args):
            stacks.append(tape.finite is None)
            return run(tape, *args)

        monkeypatch.setattr(expr._Tape, "stack", counted)
        value, grad, hess = problem._outputs(p, X, True)
        monkeypatch.undo()
        assert stacks == [False, True]  # the exact tape ran for the one row
        assert not np.all(np.isfinite(value[1]))
        finite = [0, 2, 3]
        _assert_outputs_are_per_expression_bits(p, X[finite])
        for got, want in zip((value, grad, hess), problem._outputs(p, X[finite], True)):
            assert _hex(got[finite]) == _hex(want)
        # the non-finite row: the per-expression bits up to the sign of zeros
        for e, ast in enumerate(_expressions(p)):
            so = expr.eval2(ast, X[1])
            assert _unsigned_hex(value[1, e]) == _unsigned_hex(so.value)
            assert _unsigned_hex(grad[1, e]) == _unsigned_hex(so.gradient)
            assert _unsigned_hex(hess[1, e]) == _unsigned_hex(so.hessian)
        _assert_outputs_are_per_expression_bits(p, X[1], _unsigned_hex)

    def test_a_zero_denominator_in_any_row_raises(self):
        p = _spec(2, "x1^2", ["x2/(x1 - 1)", "x1*x2"])
        X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]])
        for hess in (True, False):
            with pytest.raises(expr.EvalError):
                problem._outputs(p, X, hess)
            with pytest.raises(expr.EvalError):
                problem._outputs(p, X[1], hess)
        _assert_outputs_are_per_expression_bits(p, X[[0, 2]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_constant_beside_finite_expressions(self, rng):
        # 1e999 parses to inf: that expression is built keeping every term,
        # the others as they are alone
        p = _spec(2, "x1*x2 + x1^2", ["x1/1e999 + x2*x1", "1e999*x2", "(x1 - 0.5)*(x2 + 0.25)"])
        X = rng.normal(size=(5, 2))
        X[0] = 0.0
        for x in X:
            _assert_outputs_are_per_expression_bits(p, x)
        _assert_outputs_are_per_expression_bits(p, X)

    def test_one_tape_run_per_evaluation(self, reg, monkeypatch):
        runs = []
        for name in ("point", "stack"):
            method = getattr(expr._Tape, name)
            monkeypatch.setattr(expr._Tape, name,
                                lambda tape, *args, method=method, name=name: (
                                    runs.append(name), method(tape, *args))[1])
        rng = np.random.default_rng(3)
        for entry in reg.values():
            p = entry.problem
            for z in (KKTPair(rng.normal(size=p.n), rng.normal(size=p.m)),
                      KKTPair(rng.normal(size=(4, p.n)), rng.normal(size=(4, p.m)))):
                runs.clear()
                problem.lagrangian_data(p, z)
                assert runs == ["point" if z.x.ndim == 1 else "stack"]
                runs.clear()
                problem.first_order(p, z.x)
                assert len(runs) == 1
            runs.clear()
            problem.multiplier_set_analysis(p, p.reference.x)
            assert runs == ["point"]
