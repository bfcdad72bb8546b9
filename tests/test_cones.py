import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conesqp import cones
from conesqp.cones import ConeBlock

import serial_newton

SOC3 = cones.second_order(3)
ORTH2 = cones.orthant(2)

Y_BD = np.array([1.0, 0.0, 1.0])
LAM_BD = np.array([1.0, 0.0, -1.0])

KINDS = {
    "orthant3": cones.orthant(3),
    "zero2": cones.zero(2),
    "soc3": SOC3,
    "mixed": cones.product(cones.orthant(2), cones.zero(1), cones.second_order(3)),
}


def soc_boundary_grid(radius_max=4.0, n_r=80, n_phi=120):
    """Boundary points (a cos, a sin, a) of the 3-dim cone, for brute force."""
    pts = [np.zeros(3)]
    for a in np.linspace(1e-3, radius_max, n_r):
        for phi in np.linspace(0, 2 * np.pi, n_phi, endpoint=False):
            pts.append(np.array([a * np.cos(phi), a * np.sin(phi), a]))
    return np.array(pts)


class TestProjection:
    def test_orthant_clamp(self):
        assert np.allclose(cones.project(ORTH2, np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_soc_polar_point_projects_to_apex(self):
        assert np.allclose(cones.project(SOC3, np.array([0.0, 0.0, -1.0])), 0.0)

    def test_soc_boundary_case_against_brute_force(self):
        y = np.array([3.0, 0.0, 1.0])
        p = cones.project(SOC3, y)
        assert np.allclose(p, [2.0, 0.0, 2.0], atol=1e-12)
        # optimality: y - p is normal at p (variational inequality over samples)
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = cones.sample_point(SOC3, rng, scale=3.0)
            assert (y - p) @ (z - p) <= 1e-10
        # minimal distance over a fine grid of boundary points
        grid = soc_boundary_grid()
        dists = np.linalg.norm(grid - y, axis=1)
        assert np.linalg.norm(y - p) <= dists.min() + 1e-3

    def test_zero_block(self):
        assert np.allclose(cones.project(cones.zero(3), np.array([1.0, -2.0, 3.0])), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            cones.project(SOC3, np.array([1.0, 2.0]))

    def test_idempotent_and_nonexpansive_random(self, rng):
        for name, cone in KINDS.items():
            m = cone.total_dim
            for _ in range(100):
                a = rng.normal(size=m, scale=2.0)
                b = rng.normal(size=m, scale=2.0)
                pa, pb = cones.project(cone, a), cones.project(cone, b)
                assert np.allclose(cones.project(cone, pa), pa, atol=1e-12), name
                assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12, name


def test_stacked_projection_and_its_jacobian_are_the_single_point_ones(rng):
    # random rows plus the case boundaries: zero coordinates, a second-order
    # block on its boundary, at its apex and on the polar boundary
    cone = KINDS["mixed"]
    Z = rng.normal(size=(200, 6)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
    Z[::4, :3] = 0.0
    Z[1::4, 3:] = [3.0, 4.0, 5.0]
    Z[2::4, 3:] = [-3.0, 4.0, -5.0]
    Z[3::8, 3:] = 0.0
    proj, P = cones.project(cone, Z), cones.projection_jacobian(cone, Z)
    assert proj.shape == (200, 6) and P.shape == (200, 6, 6)
    for z, pz, Pz in zip(Z, proj, P):
        assert np.array_equal(pz, cones.project(cone, z))
        assert np.array_equal(cones.project(cone, z[None])[0], pz)
        assert np.array_equal(Pz, serial_newton.projection_jacobian(cone, z))
        assert np.array_equal(cones.projection_jacobian(cone, z), Pz)


def test_projection_jacobian_of_a_stack_on_the_cone_without_blocks():
    assert cones.projection_jacobian(cones.ConeSpec(()), np.zeros((4, 0))).shape == (4, 0, 0)


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_projection_nonexpansive_soc(a, b):
    a, b = np.array(a), np.array(b)
    pa, pb = cones.project(SOC3, a), cones.project(SOC3, b)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestNormalCone:
    def test_orthant_zero_residual(self):
        r = cones.normal_cone_residual(ORTH2, np.array([0.0, 1.0]), np.array([-2.0, 0.0]))
        assert r == 0.0

    def test_orthant_nonzero_residual(self):
        r = cones.normal_cone_residual(ORTH2, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_soc_boundary_normal_ray(self):
        # boundary normal ray is mu * (ybar/||ybar||, -1)
        assert cones.normal_cone_residual(SOC3, Y_BD, LAM_BD) == pytest.approx(0.0, abs=1e-12)

    def test_outside_cone_rejected(self):
        # the residual is defined at any y; the critical cone needs y in the cone
        y = np.array([-1.0, 0.0])
        assert cones.normal_cone_residual(ORTH2, y, np.zeros(2)) == 1.0
        with pytest.raises(ValueError, match="outside"):
            cones.critical_cone(ORTH2, y, np.zeros(2))

    def test_variational_inequality_equivalence(self, rng):
        # residual 0 iff <lam, z - y> <= 0 for all z in the cone (sampled)
        for name, cone in KINDS.items():
            m = cone.total_dim
            for _ in range(50):
                y, lam = cones.sample_boundary_pair(cone, rng)
                assert cones.normal_cone_residual(cone, y, lam) <= 1e-9
                for _ in range(40):
                    z = cones.sample_point(cone, rng, scale=2.0)
                    assert lam @ (z - y) <= 1e-9 * (1 + np.linalg.norm(z)), name
                # a perturbed non-normal vector must be flagged
                bad = lam + cones.project(cone, rng.normal(size=m)) + 0.5
                if cones.normal_cone_residual(cone, y, bad) > 1e-6:
                    violations = 0
                    for _ in range(400):
                        z = cones.sample_point(cone, rng, scale=2.0)
                        if bad @ (z - y) > 1e-8:
                            violations += 1
                    assert violations > 0, name


class TestCriticalCone:
    def test_orthant_examples(self):
        y, lam = np.array([0.0, 1.0]), np.array([-2.0, 0.0])
        assert cones.critical_cone_contains(ORTH2, y, lam, np.array([0.0, 5.0]))
        assert not cones.critical_cone_contains(ORTH2, y, lam, np.array([1.0, 0.0]))

    def test_soc_boundary_plane(self):
        # K = {w : w1 = w3} at the strictly complementary boundary pair
        assert cones.critical_cone_contains(SOC3, Y_BD, LAM_BD, np.array([2.0, 7.0, 2.0]))
        assert not cones.critical_cone_contains(SOC3, Y_BD, LAM_BD, np.array([2.0, 7.0, 1.9]))

    def test_soc_critical_direction_is_attainable(self):
        # derived check: w in K means dist(y + t w; cone) = o(t)
        w = np.array([2.0, 7.0, 2.0])
        for t in (1e-3, 1e-4, 1e-5):
            d = cones.distance(SOC3, Y_BD + t * w)
            assert d <= 30 * t * t  # quadratic shortfall only

    def test_multiplier_basis_columns(self):
        # zero block: free e_0; active orthant coordinate: e_1, nonpositive;
        # inactive coordinate: nothing; boundary block: -(ybar/|ybar|, -1)
        cone = cones.product(cones.zero(1), cones.orthant(2), SOC3)
        y = np.concatenate([[0.0, 0.0, 1.0], Y_BD])
        B, nonpos = cones.critical_cone(cone, y, np.zeros(6)).multiplier_basis()
        want = np.zeros((6, 3))
        want[0, 0] = want[1, 1] = 1.0
        want[3:, 2] = [-1.0, 0.0, 1.0]
        assert np.array_equal(B, want) and nonpos == [1, 2]
        interior = cones.critical_cone(SOC3, np.array([0.0, 0.0, 1.0]), np.zeros(3))
        assert interior.multiplier_basis()[0].shape == (3, 0)
        assert cones.critical_cone(SOC3, np.zeros(3), np.zeros(3)).multiplier_basis() is None

    def test_strict_complementarity_by_block_kind(self):
        apex = np.zeros(3)
        assert cones.critical_cone(SOC3, Y_BD, LAM_BD).strictly_complementary  # hyperplane
        assert not cones.critical_cone(SOC3, Y_BD, np.zeros(3)).strictly_complementary
        assert cones.critical_cone(SOC3, apex, np.array([0.0, 0.0, -1.0])).strictly_complementary
        assert not cones.critical_cone(SOC3, apex, LAM_BD).strictly_complementary  # ray
        assert not cones.critical_cone(SOC3, apex, apex).strictly_complementary

    def test_non_normal_multiplier_rejected(self):
        with pytest.raises(ValueError, match="normal"):
            cones.critical_cone_contains(ORTH2, np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                                         np.zeros(2))


class TestSecondSubderivative:
    def test_polyhedral_zero_on_critical_cone(self):
        val = cones.second_subderivative(ORTH2, np.array([0.0, 1.0]), np.array([-2.0, 0.0]),
                                         np.array([0.0, 3.0]))
        assert val == 0.0

    def test_infinite_outside_critical_cone(self):
        val = cones.second_subderivative(ORTH2, np.array([0.0, 1.0]), np.array([-2.0, 0.0]),
                                         np.array([1.0, 0.0]))
        assert math.isinf(val)

    def test_soc_curvature_value(self):
        val = cones.second_subderivative(SOC3, Y_BD, LAM_BD, np.array([1.0, 1.0, 1.0]))
        assert val == pytest.approx(1.0, abs=1e-12)
        oracle = cones.dq_oracle_second_subderivative(SOC3, Y_BD, LAM_BD, np.array([1.0, 1.0, 1.0]))
        assert abs(val - oracle) <= 1e-3 * (1 + abs(val))

    def test_positive_homogeneity_degree_two(self, rng):
        for name, cone in KINDS.items():
            for _ in range(40):
                y, lam = cones.sample_boundary_pair(cone, rng)
                w = cones.sample_critical_direction(cone, y, lam, rng)
                base = cones.second_subderivative(cone, y, lam, w)
                for t in (0.5, 2.0, 3.7):
                    scaled = cones.second_subderivative(cone, y, lam, t * w)
                    assert scaled == pytest.approx(t * t * base, abs=1e-9, rel=1e-9), name

    def test_domain_law(self, rng):
        # finite exactly on the critical cone, >=100 triples per cone kind
        for name, cone in KINDS.items():
            m = cone.total_dim
            for _ in range(120):
                y, lam = cones.sample_boundary_pair(cone, rng)
                if rng.integers(2):
                    w = cones.sample_critical_direction(cone, y, lam, rng)
                else:
                    w = rng.normal(size=m)
                inside = cones.critical_cone_contains(cone, y, lam, w)
                val = cones.second_subderivative(cone, y, lam, w)
                assert math.isfinite(val) == inside, (name, y, lam, w)


class TestProtoDerivative:
    def test_orthant_normal_cone_of_face(self):
        y, lam, w = np.array([0.0, 1.0]), np.array([-2.0, 0.0]), np.array([0.0, 3.0])
        assert cones.proto_derivative_contains(ORTH2, y, lam, w, np.array([5.0, 0.0]))
        assert not cones.proto_derivative_contains(ORTH2, y, lam, w, np.array([0.0, 1.0]))

    def test_soc_curvature_shift(self):
        w, u = np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, -1.0])
        assert cones.proto_derivative_contains(SOC3, Y_BD, LAM_BD, w, u)
        # verify via the convex subgradient inequality sampled over the domain
        rng = np.random.default_rng(3)
        half_d2 = 0.5 * cones.second_subderivative(SOC3, Y_BD, LAM_BD, w)
        for _ in range(300):
            wp = cones.sample_critical_direction(SOC3, Y_BD, LAM_BD, rng) * rng.uniform(0, 3)
            lhs = 0.5 * cones.second_subderivative(SOC3, Y_BD, LAM_BD, wp)
            assert lhs >= half_d2 + u @ (wp - w) - 1e-9

    def test_subgradient_inequality_violated_for_outsider(self):
        w = np.array([1.0, 1.0, 1.0])
        u_bad = np.array([1.0, 3.0, -1.0])  # too steep in the curved coordinate
        assert not cones.proto_derivative_contains(SOC3, Y_BD, LAM_BD, w, u_bad)

    def test_outside_domain_is_false(self):
        assert not cones.proto_derivative_contains(
            SOC3, Y_BD, LAM_BD, np.array([1.0, 0.0, 0.5]), np.zeros(3)
        )

    def test_graph_tangency_oracle_agrees(self, rng):
        # fully independent check: u belongs to the graphical derivative at
        # (y, lam) in direction w iff (y, lam) + t (w, u) approaches the
        # graph of the normal-cone map faster than t.  The distance to the
        # graph comes from its projection parametrization
        # s -> (proj(s), s - proj(s)), minimized over a refined mesh.
        soc3 = SOC3

        def graph_distance(a, b, levels=5):
            center = a + b  # exact parameter when (a, b) lies on the graph
            radius = 2.0 * (np.linalg.norm(a) + np.linalg.norm(b) + 1e-12)
            best = np.inf
            for _ in range(levels):
                axes = [np.linspace(center[i] - radius, center[i] + radius, 9) for i in range(3)]
                grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
                P = np.stack([cones.project(soc3, s) for s in grid])
                d2 = np.sum((P - a) ** 2, axis=1) + np.sum((grid - P - b) ** 2, axis=1)
                k = int(np.argmin(d2))
                if d2[k] < best:
                    best = d2[k]
                    center = grid[k]
                radius = 2.0 * radius / 8.0
            return float(np.sqrt(best))

        def tangency_ratio(y, lam, w, u, t=1e-4):
            return graph_distance(y + t * w, lam + t * u) / t

        for _ in range(10):
            y, lam = cones.sample_boundary_pair(soc3, rng)
            K = cones.critical_cone(soc3, y, lam)
            w = cones.sample_critical_direction(soc3, y, lam, rng)
            H = K.curvature_matrix()
            normal_el = K.eq.T @ rng.normal(size=K.eq.shape[0]) if K.eq.size else np.zeros(3)
            if K.ineq.size and np.abs(K.ineq @ w).max() < 1e-10:
                normal_el = normal_el + K.ineq.T @ np.abs(rng.normal(size=K.ineq.shape[0]))
            candidates = [H @ w + normal_el,
                          H @ w + normal_el + 0.4 * rng.normal(size=3)]
            for u in candidates:
                member = cones.proto_derivative_contains(soc3, y, lam, w, u)
                ratio = tangency_ratio(y, lam, w, u)
                if member:
                    assert ratio <= 1e-2, (y, lam, w, u, ratio)
                else:
                    assert ratio > 1e-2, (y, lam, w, u, ratio)

    def test_origin_value_is_polar_membership(self, rng):
        # members at w = 0 are exactly the polar directions of the critical cone
        for name, cone in KINDS.items():
            m = cone.total_dim
            for _ in range(40):
                y, lam = cones.sample_boundary_pair(cone, rng)
                K = cones.critical_cone(cone, y, lam)
                u = rng.normal(size=m)
                member = cones.proto_derivative_contains(cone, y, lam, np.zeros(m), u)
                # polar membership by the projection identity
                polar = np.linalg.norm(K.project(u)) <= 1e-9 * (1 + np.linalg.norm(u))
                assert member == polar, name
                if member:
                    for _ in range(30):
                        w = cones.sample_critical_direction(cone, y, lam, rng)
                        assert u @ w <= 1e-8 * (1 + np.linalg.norm(w)), name


class TestDifferenceQuotientOracle:
    def test_orthant_zero(self):
        val = cones.dq_oracle_second_subderivative(
            ORTH2, np.array([0.0, 1.0]), np.array([-2.0, 0.0]), np.array([0.0, 3.0])
        )
        assert abs(val) <= 1e-6

    def test_soc_curvature(self):
        val = cones.dq_oracle_second_subderivative(SOC3, Y_BD, LAM_BD, np.array([1.0, 1.0, 1.0]))
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_zero_cone(self):
        val = cones.dq_oracle_second_subderivative(
            cones.zero(1), np.array([0.0]), np.array([4.0]), np.array([0.0])
        )
        assert abs(val) <= 1e-12

    def test_outside_domain_returns_sentinel(self):
        val = cones.dq_oracle_second_subderivative(SOC3, Y_BD, LAM_BD, np.array([1.0, 0.0, 0.0]))
        assert val == math.inf or val > 1e3

    def test_block_past_mesh_limit_rejected(self):
        # an 11**7-point refinement mesh would need gigabytes
        z = np.zeros(7)
        with pytest.raises(ValueError, match=r"at most 6; block 0 \(orthant7\)"):
            cones.dq_oracle_second_subderivative(cones.orthant(7), z, z, z)

    def test_agreement_with_closed_form(self, rng):
        # the decisive anti-hallucination gate, per cone kind
        for name, cone in KINDS.items():
            worst = 0.0
            for _ in range(100):
                y, lam = cones.sample_boundary_pair(cone, rng)
                w = cones.sample_critical_direction(cone, y, lam, rng)
                closed = cones.second_subderivative(cone, y, lam, w)
                oracle = cones.dq_oracle_second_subderivative(cone, y, lam, w)
                worst = max(worst, abs(closed - oracle) / (1.0 + abs(closed)))
            assert worst <= 1e-3, (name, worst)


class TestSpecValidation:
    def test_blocks_validate(self):
        with pytest.raises(ValueError):
            ConeBlock("soc", 1)
        with pytest.raises(ValueError):
            ConeBlock("orthant", 0)
        with pytest.raises(ValueError):
            ConeBlock("simplex", 2)

    def test_total_dim(self):
        cone = cones.product(cones.orthant(2), cones.second_order(4))
        assert cone.total_dim == 6
        assert [b.dim for b in cone.blocks] == [2, 4]
        assert [(b.kind, sl) for b, sl in cone.slices()] == [
            ("orthant", slice(0, 2)), ("soc", slice(2, 6))]

    def test_cached_layout_leaves_equality_hash_and_repr_alone(self):
        blocks = (ConeBlock("zero", 1), ConeBlock("orthant", 2), ConeBlock("soc", 3))
        cone, same = cones.ConeSpec(blocks), cones.ConeSpec(list(blocks))
        assert cone == same and hash(cone) == hash(same) and hash(cone) == hash((blocks,))
        assert cone != cones.ConeSpec(blocks[:2])
        assert repr(cone) == f"ConeSpec(blocks={blocks!r})"
        assert {cone: 1}[same] == 1

    def test_oracle_params_grid(self):
        grid = cones._T_GRID
        assert grid[0] == 1e-2 and len(grid) == 11
        assert grid[-1] == pytest.approx(1e-2 * 2.0**-10)
