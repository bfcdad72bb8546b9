import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conesqp import cones, diagnostics, expr, polyhedra, problem, registry, subproblem
from conesqp.diagnostics import (
    CALM,
    INCONCLUSIVE,
    PROBE_BOUNDED,
    PROBE_DIVERGING,
    DiagnosticsConfig,
    check_multiplier_calmness,
    check_noncriticality,
    check_srcq,
    check_ssoc,
    classify_stationary_point,
    probe_isolated_calmness,
)
from conesqp.problem import KKTPair, ProblemSpec

import face_search_reference
import serial_newton
from test_expr import random_ast
from test_random_crosschecks import random_kkt_instance

CFG = DiagnosticsConfig(run_probe=False)


def brute_force_ssoc(p, z, n_dirs=10_000, seed=0):
    """Stated sampling oracle: minimum of the stability quadratic over
    uniformly sampled unit directions inside the critical pre-image."""
    data = problem.lagrangian_data(p, z)
    K = cones.critical_cone(p.cone, data.f_val, z.lam)
    Q = data.hess_xx + data.jac_f.T @ K.curvature_matrix() @ data.jac_f
    E = (K.eq @ data.jac_f) if K.eq.size else np.zeros((0, p.n))
    # sample inside the equality subspace, otherwise nothing ever qualifies
    _, s, vt = np.linalg.svd(E, full_matrices=True) if E.size else (None, np.zeros(0), np.eye(p.n))
    rank = int(np.sum(s > 1e-10)) if s.size else 0
    B = vt[rank:].T if E.size else np.eye(p.n)
    if B.shape[1] == 0:
        return math.inf
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(n_dirs):
        w = B @ rng.normal(size=B.shape[1])
        nrm = np.linalg.norm(w)
        if nrm < 1e-12:
            continue
        w /= nrm
        if K.contains(data.jac_f @ w, tol=1e-9):
            best = min(best, float(w @ Q @ w))
    return best


def spec(name, objective, constraints, cone, n):
    return ProblemSpec(name, n, expr.parse(objective, n),
                       tuple(expr.parse(c, n) for c in constraints), cone)


class TestSSOC:
    def test_ex55_origin_minimum_is_minus_one(self, reg):
        out = check_ssoc(reg["ex55"].problem, KKTPair([0.0], [0.0]), CFG)
        assert out.conclusive
        assert out.min_value == pytest.approx(-1.0, abs=1e-9)
        assert abs(out.witness[0]) == pytest.approx(1.0, abs=1e-9)
        assert not out.holds

    def test_ex55_minimizer(self, reg):
        out = check_ssoc(reg["ex55"].problem, KKTPair([2.0], [0.0]), CFG)
        assert out.min_value == pytest.approx(1.0, abs=1e-9) and out.holds

    def test_projection_qp_identity_hessian(self, reg):
        out = check_ssoc(reg["qp_orthant"].problem, reg["qp_orthant"].problem.reference, CFG)
        assert out.min_value == pytest.approx(1.0, abs=1e-9)

    def test_soc_curvature_only(self, reg):
        # zero Lagrangian Hessian: positivity comes entirely from cone curvature
        out = check_ssoc(reg["soc_toy"].problem, reg["soc_toy"].problem.reference, CFG)
        assert out.conclusive
        assert out.min_value == pytest.approx(1.0, abs=1e-9)

    def test_critical_toy_multipliers(self, reg):
        p = reg["critical_toy"].problem
        out0 = check_ssoc(p, KKTPair([0.0], [0.0]), CFG)
        assert out0.min_value == pytest.approx(2.0, abs=1e-9)
        out1 = check_ssoc(p, KKTPair([0.0], [-1.0]), CFG)
        assert out1.min_value == pytest.approx(0.0, abs=1e-9)
        assert not out1.holds

    def test_matches_brute_force_sampling(self, reg):
        for name, entry in reg.items():
            for kp in entry.known_points:
                exact = check_ssoc(entry.problem, kp.point, CFG)
                sampled = brute_force_ssoc(entry.problem, kp.point)
                if math.isinf(exact.min_value):
                    assert math.isinf(sampled)
                else:
                    assert sampled >= exact.min_value - 1e-9, name
                    assert sampled - exact.min_value <= 1e-3, name

    def test_gate_rejects_non_kkt_points(self, reg):
        with pytest.raises(ValueError, match="not a KKT solution"):
            check_ssoc(reg["ex55"].problem, KKTPair([1.0], [0.0]), CFG)

    def test_gate_rejects_nan_residual(self, reg):
        # the gradient of x^3/6 is NaN at 1e200, and NaN > tol is False
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="residual nan"):
            check_ssoc(reg["ex55"].problem, KKTPair([1e200], [0.0]), CFG)

    def test_apex_with_zero_multiplier_is_sampled(self):
        # min 0.5|x|^2 over SOC3 at the origin: the critical cone is the whole
        # second-order cone, so only a sampled bound is available
        p = spec("apex", "0.5*(x1^2 + x2^2 + x3^2)", ["x1", "x2", "x3"], cones.second_order(3), 3)
        out = check_ssoc(p, KKTPair(np.zeros(3), np.zeros(3)), CFG)
        assert not out.conclusive
        assert out.min_value == pytest.approx(1.0, abs=1e-12)


class TestNoncriticality:
    def test_ex55_origin_noncritical(self, reg):
        out = check_noncriticality(reg["ex55"].problem, KKTPair([0.0], [0.0]), CFG)
        assert out.noncritical and out.conclusive

    def test_critical_toy_nonzero_multiplier_is_critical(self, reg):
        out = check_noncriticality(reg["critical_toy"].problem, KKTPair([0.0], [-1.0]), CFG)
        assert not out.noncritical and out.conclusive
        w, u = out.witness
        assert abs(w[0]) >= 1e-7
        # the defining inclusion holds to 1e-9: stationarity row and the
        # graphical-derivative membership, re-verified with cone primitives
        p = reg["critical_toy"].problem
        data = problem.lagrangian_data(p, KKTPair([0.0], [-1.0]))
        assert np.linalg.norm(data.hess_xx @ w + data.jac_f.T @ u) <= 1e-9
        assert cones.proto_derivative_contains(
            p.cone, data.f_val, np.array([-1.0]), data.jac_f @ w, u, tol=1e-9
        )

    def test_critical_toy_zero_multiplier_noncritical(self, reg):
        out = check_noncriticality(reg["critical_toy"].problem, KKTPair([0.0], [0.0]), CFG)
        assert out.noncritical and out.conclusive

    def test_apex_with_zero_multiplier_sampled_noncritical(self):
        p = spec("apex", "0.5*(x1^2 + x2^2 + x3^2)", ["x1", "x2", "x3"], cones.second_order(3), 3)
        out = check_noncriticality(p, KKTPair(np.zeros(3), np.zeros(3)), CFG)
        assert out.noncritical and not out.conclusive
        assert "sampled" in out.reason

    def test_past_face_budget_reason_names_the_budget(self):
        # min sum 0.5 x_i^2 over orthant(15) at the origin with lam = 0: the
        # critical cone is polyhedral with 15 inequality rows, past the budget
        n = 15
        objective = " + ".join(f"0.5*x{i}^2" for i in range(1, n + 1))
        p = spec("orth15", objective, [f"x{i}" for i in range(1, n + 1)], cones.orthant(n), n)
        out = check_noncriticality(p, KKTPair(np.zeros(n), np.zeros(n)), CFG)
        assert out.noncritical and not out.conclusive
        assert "15 inequality rows" in out.reason and "face budget of 14" in out.reason
        assert "apex" not in out.reason

    def test_soc_points_noncritical(self, reg):
        for name in ("soc_toy", "soc_degenerate"):
            p = reg[name].problem
            out = check_noncriticality(p, p.reference, CFG)
            assert out.noncritical and out.conclusive, name

    def test_sampling_agrees_with_enumeration(self, reg):
        # no witness may be found by random sampling when the exhaustive
        # search certifies noncriticality
        for name, entry in reg.items():
            p = entry.problem
            for kp in entry.known_points:
                exact = check_noncriticality(p, kp.point, CFG)
                if not (exact.conclusive and exact.noncritical):
                    continue
                data = problem.lagrangian_data(p, kp.point)
                K = diagnostics._gate(p, kp.point)[1]
                J = data.jac_f
                Hc = K.curvature_matrix()
                Q = data.hess_xx + J.T @ Hc @ J
                witness = diagnostics._noncrit_sampled(p, data, K, Q, J, Hc, CFG)
                assert witness is None, name


def _degenerate_cases(seed):
    """The ``degenerate_faces`` cases of one benchmark seed, read from
    ``perfbench/problems.py`` as ``scripts/degenerate_reports.py`` reads them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "problems.py"
    spec = importlib.util.spec_from_file_location("perfbench_problems", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.degenerate_cases(np.random.default_rng(seed))


def _rotated_quadratic(R, d):
    """``0.5 x'R diag(d) R'x`` subject to ``R'x >= 0``, the degenerate cases' form."""
    m = len(d)
    rows = [" + ".join(f"({float(R[j, i])!r})*x{j + 1}" for j in range(m)) for i in range(m)]
    obj = " + ".join(f"({float(0.5 * d[i])!r})*({rows[i]})^2" for i in range(m))
    return spec("rotated", obj, rows, cones.orthant(m), m)


class TestFaceWalk:
    """The one-pass face walk and the screened face search against the
    lazy-walk SSOC and the unscreened search, and the work the walk saves."""

    @staticmethod
    def assert_matches_reference(p, z):
        ref_ssoc = face_search_reference.ssoc_exact(p, z)
        ref = face_search_reference.check_noncriticality(p, z)
        report = classify_stationary_point(p, z, CFG)
        for got in (check_ssoc(p, z, CFG), report.ssoc):
            assert (got.min_value, got.conclusive) == (ref_ssoc.min_value, ref_ssoc.conclusive)
            if ref_ssoc.witness is None:
                assert got.witness is None
            else:
                assert got.witness.tobytes() == ref_ssoc.witness.tobytes()
        for got in (check_noncriticality(p, z, CFG), report.noncriticality):
            assert (got.noncritical, got.conclusive, got.reason) == (
                ref.noncritical, ref.conclusive, ref.reason)
            if ref.witness is None:
                assert got.witness is None
            else:
                for a, b in zip(got.witness, ref.witness):
                    assert a.tobytes() == b.tobytes()
        return ref

    def test_registry_points(self, reg):
        for entry in reg.values():
            for kp in entry.known_points:
                self.assert_matches_reference(entry.problem, kp.point)

    def test_degenerate_cases(self):
        verdicts = Counter()
        for case in _degenerate_cases(1):
            if case.doc["n"] <= 6:
                p = registry.problem_from_dict(case.doc)
                ref = self.assert_matches_reference(p, KKTPair(np.zeros(p.n), np.zeros(p.m)))
                verdicts[ref.noncritical] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_guard_band(self, rng):
        # one curvature of each size near the screen's edge (1e-6) and below it
        for small in (1e-4, 1e-7, 1e-10):
            for m in (3, 4, 5):
                R, _ = np.linalg.qr(rng.normal(size=(m, m)))
                d = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
                d[rng.integers(m)] = small * rng.choice([-1.0, 1.0])
                self.assert_matches_reference(_rotated_quadratic(R, d), KKTPair(np.zeros(m), np.zeros(m)))
        # two constraint rows near rank loss: the unscreened search finds a
        # witness at eps = 1e-8, on the face both rows pin to w = 0
        for eps in (1e-6, 1e-8, 1e-9):
            p = spec("eps", "0.5*x1^2 + 0.5*x2^2", ["x1", f"-x1 + {eps!r}*x2"], cones.orthant(2), 2)
            self.assert_matches_reference(p, KKTPair(np.zeros(2), np.zeros(2)))

    def test_random_instances(self, rng):
        for _ in range(40):
            self.assert_matches_reference(*random_kkt_instance(rng))

    def test_work_counts_at_a_noncritical_case(self, monkeypatch):
        case = next(c for c in _degenerate_cases(1) if c.noncritical and c.doc["n"] == 8)
        p = registry.problem_from_dict(case.doc)
        z = KKTPair(np.zeros(p.n), np.zeros(p.m))
        calls = Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, staticmethod(wrapper) if owner is polyhedra.Polyhedron else wrapper)

        counted(polyhedra.Polyhedron, "build")
        counted(polyhedra, "_reduce_equalities")
        counted(polyhedra, "null_basis")
        counted(np.linalg, "eigh")
        assert check_noncriticality(p, z, CFG).noncritical
        # one basis and one eigh per face, and no polyhedron
        assert calls == Counter(null_basis=2**8, eigh=2**8)
        calls.clear()
        check_ssoc(p, z, CFG)
        assert calls == Counter(null_basis=2**8, eigh=2**8)
        calls.clear()
        data, K = diagnostics._gate(p, z)
        assert diagnostics._srcq_primal(p, K, data.jac_f) is True
        assert calls == Counter(_reduce_equalities=1)  # for all m + 1 targets
        calls.clear()
        check_srcq(p, z, CFG)
        outside_walk = calls["null_basis"]
        calls.clear()
        classify_stationary_point(p, z, CFG)
        assert calls["null_basis"] == 2**8 + outside_walk
        assert calls["eigh"] == 2**8  # one walk for SSOC and noncriticality
        # the screen clears every face here, so the walk hands the search none
        assert diagnostics._curvature(p, data, K)[5][1] == []

    def test_walk_hands_the_search_the_unscreened_faces(self):
        cases = [c for c in _degenerate_cases(1) if not c.noncritical and c.doc["n"] == 8]
        assert cases
        for case in cases:
            p = registry.problem_from_dict(case.doc)
            z = KKTPair(np.zeros(p.n), np.zeros(p.m))
            data, K = diagnostics._gate(p, z)
            searched = diagnostics._curvature(p, data, K)[5][1]
            assert searched == face_search_reference.unscreened_faces(p, z)
            assert len(searched) == 2**7  # half of the 2^8 faces go to Fourier-Motzkin


class TestSRCQ:
    def test_ex55_trivial_kernel(self, reg):
        out = check_srcq(reg["ex55"].problem, KKTPair([0.0], [0.0]), CFG)
        assert out.holds and out.conclusive
        assert "trivial" in out.certificate

    def test_critical_toy_fails_with_certificate(self, reg):
        out = check_srcq(reg["critical_toy"].problem, KKTPair([0.0], [-1.0]), CFG)
        assert not out.holds and out.conclusive
        assert abs(out.witness[0]) == pytest.approx(1.0, abs=1e-9)

    def test_identity_jacobian_holds(self, reg):
        out = check_srcq(reg["qp_orthant"].problem, reg["qp_orthant"].problem.reference, CFG)
        assert out.holds and out.conclusive

    def test_soc_cases_hold(self, reg):
        for name in ("soc_toy", "soc_degenerate"):
            p = reg[name].problem
            out = check_srcq(p, p.reference, CFG)
            assert out.holds and out.conclusive, name
            assert out.primal_crosscheck is True, name

    def test_primal_dual_forms_agree(self, reg):
        for name, entry in reg.items():
            for kp in entry.known_points:
                out = check_srcq(entry.problem, kp.point, CFG)
                if out.conclusive and out.primal_crosscheck is not None:
                    assert out.primal_crosscheck == out.holds, name


class TestMultiplierCalmness:
    def test_polyhedral_always_calm(self, reg):
        for name in ("ex55", "critical_toy", "qp_orthant"):
            p = reg[name].problem
            for kp in reg[name].known_points:
                out = check_multiplier_calmness(p, kp.point, CFG)
                assert out.verdict == CALM, name
                assert "polyhedral" in out.reason

    def test_strict_complementarity_on_boundary(self, reg):
        out = check_multiplier_calmness(reg["soc_toy"].problem, reg["soc_toy"].problem.reference, CFG)
        assert out.verdict == CALM
        assert "strict complementarity" in out.reason

    def test_vanishing_boundary_multiplier_inconclusive(self, reg):
        # mu = 5e-8 is below the face tolerance, so the critical cone is the
        # halfspace of a non-strictly complementary pair
        soc = reg["soc_toy"].problem
        p = ProblemSpec("soc_edge", 2, expr.parse("-5e-8*x1", 2), soc.constraints, soc.cone)
        out = check_multiplier_calmness(p, KKTPair([1.0, 0.0], [5e-8, 0.0, -5e-8]), CFG)
        assert out.verdict == INCONCLUSIVE
        assert "strict complementarity fails" in out.reason

    def test_degenerate_multiplier_inconclusive(self, reg):
        out = check_multiplier_calmness(
            reg["soc_degenerate"].problem, reg["soc_degenerate"].problem.reference, CFG
        )
        assert out.verdict == INCONCLUSIVE
        assert "strict complementarity fails" in out.reason


class TestProbe:
    def test_ex55_origin_bounded(self, reg):
        pr = probe_isolated_calmness(reg["ex55"].problem, KKTPair([0.0], [0.0]))
        assert pr.profile == PROBE_BOUNDED
        by_r = {s.radius: s.max_ratio for s in pr.samples}
        assert by_r[1e-6] <= 3.0 * by_r[1e-2]

    def test_critical_toy_diverges_like_inverse_sqrt(self, reg):
        pr = probe_isolated_calmness(reg["critical_toy"].problem, KKTPair([0.0], [-1.0]))
        assert pr.profile == PROBE_DIVERGING
        by_r = {s.radius: s.max_ratio for s in pr.samples}
        assert by_r[1e-6] >= 10.0 * by_r[1e-2]
        for r in (1e-2, 1e-4, 1e-6):
            law = r ** -0.5
            assert law / 3.0 <= by_r[r] <= 3.0 * law

    def test_interior_like_regime_constant(self, reg):
        # strict minimizer with inactive constraint: implicit-function regime
        pr = probe_isolated_calmness(reg["ex55"].problem, KKTPair([2.0], [0.0]))
        assert pr.profile == PROBE_BOUNDED
        ratios = [s.max_ratio for s in pr.samples]
        assert max(ratios) <= 3.0 * min(r for r in ratios if r > 0)

    def test_config_accepts_only_one_job(self):
        with pytest.raises(ValueError, match="jobs"):
            DiagnosticsConfig(jobs=2)

    def test_config_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="probe_samples"):
            DiagnosticsConfig(probe_samples=-1)
        assert DiagnosticsConfig(probe_samples=0).probe_samples == 0

    def test_solutions_solve_the_perturbed_system(self, reg):
        # a Newton start is kept on its residual norm alone, which bounds the
        # perturbed residual by three times that norm
        for name, z in (("critical_toy", KKTPair([0.0], [-1.0])),
                        ("soc_toy", reg["soc_toy"].problem.reference)):
            p = reg[name].problem
            found = 0
            for radius in (1e-2, 1e-6):
                d = np.vstack([np.eye(p.n + p.m), -np.eye(p.n + p.m)])
                v, w = radius * d[:, : p.n], radius * d[:, p.n :]
                sols, kept = diagnostics._solve_perturbed(p, z, v, w, seeds=[0] * len(d))
                assert sols.shape == (len(d), kept.shape[1], p.n + p.m) and kept.shape[0] == len(d)
                for i, k in zip(*np.nonzero(kept)):
                    s = sols[i, k]
                    res = diagnostics._perturbed_residual(p, s[: p.n], s[p.n :], v[i], w[i])
                    assert res <= 1e-8, name
                    found += 1
            assert found > 0, name

    @staticmethod
    def bits(pr):
        return ([(s.max_ratio.hex(), s.n_solved, s.n_samples) for s in pr.samples],
                pr.profile, pr.growth.hex())

    def test_probe_matches_the_per_radius_reference(self, reg, rng):
        # every radius in one stack, with starts, filters and dedupe on arrays,
        # against one stack per radius with KKTPair lists and a dedupe per row
        points = [(entry.problem, kp.point) for entry in reg.values() for kp in entry.known_points]
        points += [_zero_orthant_problem(rng) for _ in range(5)]
        for samples in (0, 3):
            cfg = DiagnosticsConfig(seed=5, probe_samples=samples)
            for p, z in points:
                ref = serial_newton.probe_by_radius(p, z, cfg)
                probe = probe_isolated_calmness(p, z, cfg)
                assert self.bits(probe) == self.bits(ref), (p.name, samples)


def _mixed_problem(rng):
    """Random polynomial constraints into zero x orthant(2) x SOC(3)."""
    n = 3
    cone = cones.product(cones.zero(1), cones.orthant(2), cones.second_order(3))
    constraints = [expr.ExprAST(random_ast(rng, n), n) for _ in range(cone.total_dim)]
    return ProblemSpec("mixed", n, expr.ExprAST(random_ast(rng, n), n), constraints, cone)


def _zero_orthant_problem(rng):
    """A random two-variable quadratic program over zero(1) x orthant(2) with
    the KKT point ``x = 0``: the first orthant row is active with a negative
    multiplier, the second is inactive."""
    A, q = rng.normal(size=(3, 2)).tolist(), (0.3 * rng.normal(size=3)).tolist()
    lam = np.array([rng.normal(), -abs(rng.normal()), 0.0])
    g, h = (-np.array(A).T @ lam).tolist(), rng.normal(size=3).tolist()
    objective = f"{h[0]}*x1^2 + {h[1]}*x1*x2 + {h[2]}*x2^2 + {g[0]}*x1 + {g[1]}*x2"
    constraints = [f"{q[i]}*x{i % 2 + 1}^2 + {A[i][0]}*x1 + {A[i][1]}*x2 + {b}"
                   for i, b in enumerate((0.0, 0.0, 1.0))]
    p = ProblemSpec("zero_orthant", 2, expr.parse(objective, 2),
                    [expr.parse(c, 2) for c in constraints],
                    cones.product(cones.zero(1), cones.orthant(2)))
    return p, KKTPair(np.zeros(2), lam)


_POLE = "x1^4/4 - x1^2 + 2*x1 + 0*(1/(x1 - 0.875))"  # F = x^3 - 2x + 2, a pole at 0.875


def _one_variable(objective):
    return ProblemSpec("one", 1, expr.parse(objective, 1), [expr.parse("x1 + 10", 1)],
                       cones.orthant(1))


class TestLockstepNewton:
    """Every start of a stack runs as it runs alone, in the serial reference."""

    def problems(self, reg, rng):
        yield from (reg[name].problem for name in ("ex55", "critical_toy", "qp_orthant", "soc_toy"))
        for _ in range(5):
            yield _mixed_problem(rng)

    def test_stacked_rows_are_single_point_bits(self, reg, rng):
        # orthant, zero, second-order and mixed cones, with one perturbation
        # for the stack and with one per row
        for p in self.problems(reg, rng):
            X, L = rng.normal(size=(9, p.n)), rng.normal(size=(9, p.m))
            V, W = 1e-3 * rng.normal(size=(9, p.n)), 1e-3 * rng.normal(size=(9, p.m))
            for v, w in ((V[0], W[0]), (V, W)):
                stacked = diagnostics._perturbed_kkt(p, X, L, v, w)
                for b in range(len(X)):
                    vb, wb = (v, w) if v.ndim == 1 else (v[b], w[b])
                    single = diagnostics._perturbed_kkt(p, X[b], L[b], vb, wb)
                    for part, one in zip(stacked, single, strict=True):
                        assert np.array_equal(part[b], one)

    @staticmethod
    def probe_starts(p, z, rng, radii=(1e-1, 1e-3, 1e-6), directions=2):
        """Starts and perturbations as the probe draws them."""
        X0, L0, V, W = [], [], [], []
        for radius in radii:
            for _ in range(directions):
                d = rng.normal(size=p.n + p.m)
                d /= np.linalg.norm(d)
                for spread in (0.0, 0.1, 0.45):
                    X0.append(z.x + spread * rng.normal(size=p.n))
                    L0.append(z.lam + spread * rng.normal(size=p.m))
                    V.append(radius * d[: p.n])
                    W.append(radius * d[p.n :])
        return tuple(np.array(a) for a in (X0, L0, V, W))

    @staticmethod
    def assert_rows_match_reference(p, X0, L0, V, W):
        x, lam, res = diagnostics._newton_perturbed(p, X0, L0, V, W)
        for b in range(len(X0)):
            xs, ls, rs = serial_newton.newton_perturbed(p, X0[b], L0[b], V[b], W[b])
            assert np.array_equal(x[b], xs) and np.array_equal(lam[b], ls)
            assert float(res[b]).hex() == rs.hex()
        return res

    def test_rows_match_the_serial_reference_at_registry_points(self, reg):
        rng = np.random.default_rng(7)
        converged = stalled = 0
        for entry in reg.values():
            for kp in entry.known_points:
                res = self.assert_rows_match_reference(
                    entry.problem, *self.probe_starts(entry.problem, kp.point, rng))
                converged += int(np.sum(res <= 1e-13))
                stalled += int(np.sum(res > 1e-9))
        assert converged > 0 and stalled > 0  # both ways out of the loop are covered

    def test_rows_match_the_serial_reference_on_mixed_cones(self, rng):
        for _ in range(5):
            p = _mixed_problem(rng)
            z = KKTPair(rng.normal(size=p.n), rng.normal(size=p.m))
            # not a KKT point: most starts stall after many halved steps, and
            # some overflow on the way, quietly
            with np.errstate(all="ignore"):
                self.assert_rows_match_reference(p, *self.probe_starts(p, z, rng, (1e-1,), 1))

    def test_singular_row_takes_lstsq_and_leaves_the_others_alone(self, monkeypatch):
        # min x1 s.t. x1^2 - 1 = 0: at x = 0, lam = 0 the Jacobian is zero
        p = ProblemSpec("singular", 1, expr.parse("x1", 1), [expr.parse("x1^2 - 1", 1)],
                        cones.zero(1))
        X0, L0 = np.array([[0.0], [2.0], [-0.5]]), np.zeros((3, 1))
        V, W = np.zeros((3, 1)), np.zeros((3, 1))
        lstsq, solved = np.linalg.lstsq, []

        def spy(J, F, **kwargs):
            solved.append(J.copy())
            return lstsq(J, F, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        res = diagnostics._newton_perturbed(p, X0, L0, V, W)[2]
        monkeypatch.undo()
        assert solved and all(np.array_equal(J, np.zeros((2, 2))) for J in solved)
        assert res[0] == math.sqrt(2.0) and res[1] <= 1e-13  # stalled, and converged
        self.assert_rows_match_reference(p, X0, L0, V, W)

    def test_zero_denominator_in_the_stack_changes_nothing(self, monkeypatch):
        # from x = 1 the full step and the half step fail Armijo and the
        # quarter step passes, so the eighth step, at the pole 0.875, is
        # never evaluated alone; in the stack of halved steps it is.  The
        # start at -2 hits no pole.
        p = _one_variable(_POLE)
        X0, L0, V, W = np.array([[1.0], [-2.0]]), np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1))
        perturbed_kkt, raised = diagnostics._perturbed_kkt, []

        def spy(p, x, *args):
            try:
                return perturbed_kkt(p, x, *args)
            except expr.EvalError:
                raised.append(x.copy())
                raise

        monkeypatch.setattr(diagnostics, "_perturbed_kkt", spy)
        diagnostics._newton_perturbed(p, X0, L0, V, W)
        monkeypatch.undo()
        assert len(raised) == 1 and raised[0].shape == (29, 1) and raised[0][2, 0] == 0.875
        self.assert_rows_match_reference(p, X0, L0, V, W)

    def test_a_start_that_raises_alone_raises_in_the_stack(self):
        p = _one_variable(_POLE)
        X0, Z = np.array([[-2.0], [0.875]]), np.zeros((2, 1))
        with pytest.raises(expr.EvalError):
            serial_newton.newton_perturbed(p, X0[1], Z[1], Z[1], Z[1])
        with pytest.raises(expr.EvalError):
            diagnostics._newton_perturbed(p, X0, Z, Z, Z)

    def test_probe_linearizes_once_per_iteration(self, reg, monkeypatch):
        # critical_toy with lam = 0: 8,611 single linearizations when every
        # start ran alone; one stacked call per Newton iteration now, for the
        # starts of every radius and for each active pattern (here the one row)
        p, z = reg["critical_toy"].problem, KKTPair([0.0], [0.0])
        stacks = {}

        def counted(cone, residual, linearize, *args, lstsq):
            # only the starts take lstsq; a pattern runs on its own zero cone
            sizes = stacks.setdefault("starts" if lstsq else cone, [])

            def wrapped(x, lam, rows):
                sizes.append(len(x))
                return linearize(x, lam, rows)

            return subproblem.damped_newton(cone, residual, wrapped, *args, lstsq=lstsq)

        monkeypatch.setattr(diagnostics, "damped_newton", counted)
        probe_isolated_calmness(p, z)
        directions = 2 * (p.n + p.m) + DiagnosticsConfig().probe_samples
        assert stacks.keys() == {"starts", cones.zero(1)}
        for sizes in stacks.values():
            assert len(sizes) <= 60
        rows = len(diagnostics.PROBE_RADII) * directions
        assert stacks["starts"][0] == 5 * rows
        assert stacks[cones.zero(1)][0] == rows

    def test_probe_makes_one_newton_call_per_stack(self, reg, monkeypatch):
        # one damped_newton call for the starts of every radius and direction,
        # then one per active pattern for every radius and direction
        calls = []

        def counted(cone, residual, linearize, x0, *args, lstsq):
            calls.append(len(x0))
            return subproblem.damped_newton(cone, residual, linearize, x0, *args, lstsq=lstsq)

        monkeypatch.setattr(diagnostics, "damped_newton", counted)
        for entry in reg.values():
            p = entry.problem
            searched = cones.patterns_within_budget(p.cone)
            patterns = len(list(cones.active_patterns(p.cone))) if searched else 0
            directions = 2 * (p.n + p.m) + DiagnosticsConfig().probe_samples
            rows = len(diagnostics.PROBE_RADII) * directions
            for kp in entry.known_points:
                calls.clear()
                probe_isolated_calmness(p, kp.point)
                assert calls == [5 * rows] + [rows] * patterns, (p.name, kp.point)

    @staticmethod
    def assert_patterns_match_reference(p, z, ball=math.inf):
        """At every probe radius, the pattern solutions within ``ball`` of z of
        each probe direction against the serial reference; returns how many
        there are."""
        rng = np.random.default_rng(DiagnosticsConfig().seed + 3)
        dim = p.n + p.m
        dirs = [e * s for e in np.eye(dim) for s in (1.0, -1.0)]
        for _ in range(DiagnosticsConfig().probe_samples):
            d = rng.normal(size=dim)
            dirs.append(d / float(np.linalg.norm(d)))
        radii = np.repeat(diagnostics.PROBE_RADII, len(dirs))
        pert = radii[:, None] * np.tile(dirs, (len(diagnostics.PROBE_RADII), 1))
        v, w = pert[:, : p.n], pert[:, p.n :]
        found = 0
        stacked, ok = diagnostics._pattern_solutions(p, z, v, w)  # every radius in one stack
        for i, radius in enumerate(radii):
            sols = [KKTPair(s[: p.n], s[p.n :]) for s in stacked[i][ok[i]]]
            ref = serial_newton.pattern_solutions(p, z, v[i], w[i])
            sols, ref = ([s for s in ss if s.distance_to(z) <= ball] for ss in (sols, ref))
            assert len(sols) == len(ref), (p.name, radius, i)
            assert all(s.distance_to(t) <= 1e-12 for s, t in zip(sols, ref)), (p.name, radius, i)
            found += len(sols)
        return found

    def test_pattern_solutions_match_the_serial_reference_at_registry_points(self, reg):
        found = sum(self.assert_patterns_match_reference(entry.problem, kp.point)
                    for entry in reg.values() for kp in entry.known_points)
        assert found > 0

    def test_pattern_solutions_match_the_serial_reference_on_zero_orthant_problems(self, rng):
        # Within the probe's ball only: far from z, damped and undamped steps
        # may reach different solutions.  The fifth problem has one at
        # distance 2.5 that only the damped steps reach, at every radius.
        for _ in range(5):
            p, z = _zero_orthant_problem(rng)
            assert self.assert_patterns_match_reference(p, z, diagnostics._PROBE_BALL) > 0


class TestClassify:
    def test_ex55_minimizer_fully_consistent(self, reg):
        rep = classify_stationary_point(reg["ex55"].problem, KKTPair([2.0], [0.0]), CFG)
        assert rep.ssoc.holds and rep.srcq.holds
        assert rep.noncriticality.noncritical
        assert rep.lambda_unique is True
        assert rep.multiplier_calm.verdict == CALM
        assert rep.isolated_calmness_consistent is True
        assert rep.qualification_consistent is True
        assert rep.failures == ()

    def test_ex55_origin_consistent_despite_ssoc_failure(self, reg):
        rep = classify_stationary_point(reg["ex55"].problem, KKTPair([0.0], [0.0]), CFG)
        assert rep.ssoc.min_value == pytest.approx(-1.0, abs=1e-9)
        assert rep.srcq.holds
        assert rep.isolated_calmness_consistent is True
        assert rep.failures == ()

    def test_critical_toy_consistent(self, reg):
        rep = classify_stationary_point(reg["critical_toy"].problem, KKTPair([0.0], [-1.0]), CFG)
        assert not rep.noncriticality.noncritical
        assert not rep.srcq.holds
        assert rep.lambda_unique is False
        assert rep.failures == ()

    def test_soc_degenerate_not_assertable(self, reg):
        rep = classify_stationary_point(
            reg["soc_degenerate"].problem, reg["soc_degenerate"].problem.reference, CFG
        )
        assert rep.multiplier_calm.verdict == INCONCLUSIVE
        assert rep.isolated_calmness_consistent is None
        assert rep.failures == ()

    def test_one_lagrangian_evaluation_per_classification(self, reg, monkeypatch):
        calls = []
        evaluate = problem.lagrangian_data

        def counting(p, z):
            calls.append(z)
            return evaluate(p, z)

        monkeypatch.setattr(problem, "lagrangian_data", counting)
        classify_stationary_point(reg["ex55"].problem, KKTPair([0.0], [0.0]), CFG)
        assert len(calls) == 1

    def test_no_second_evaluation_without_probe(self, reg, monkeypatch):
        calls = []
        evaluate = expr.eval1

        def counting(e, x):
            calls.append(x)
            return evaluate(e, x)

        monkeypatch.setattr(expr, "eval1", counting)
        p = reg["qp_orthant"].problem
        classify_stationary_point(p, p.reference, CFG)
        assert calls == []

    def test_faces_decided_once(self):
        # y = (5e-8, -5e-8) sits within the face tolerance of both facets, so
        # both count as active for every check alike: the multiplier set is
        # the ray lam = (t, t - 20), t <= 0, and no verdict contradicts another
        p = spec("split", "-20*x1", ["x1", "-x1"], cones.orthant(2), 1)
        rep = classify_stationary_point(p, KKTPair([5e-8], [0.0, -20.0]), CFG)
        assert rep.failures == ()
        assert rep.lambda_unique is False
        assert not rep.srcq.holds and rep.srcq.conclusive

    def test_budget_exhausted_crosscheck_is_not_checked(self, reg, monkeypatch):
        def out_of_budget(poly):
            raise polyhedra.BudgetExceeded("fourier-motzkin would create 99999 rows")

        monkeypatch.setattr(polyhedra, "is_feasible", out_of_budget)
        p = reg["qp_orthant"].problem
        rep = classify_stationary_point(p, p.reference, CFG)
        assert rep.srcq.primal_crosscheck is None
        assert rep.failures == ()

    def test_full_registry_zero_failures_with_probe(self, reg):
        cfg = DiagnosticsConfig()
        for name, entry in reg.items():
            for kp in entry.known_points:
                rep = classify_stationary_point(entry.problem, kp.point, cfg)
                assert rep.failures == (), (name, rep.failures)
