from dataclasses import replace

import numpy as np
import pytest

from conesqp import polyhedra
from conesqp.polyhedra import (
    BudgetExceeded,
    Polyhedron,
    feasible_point,
    functional_range,
    is_feasible,
    nonzero_points,
)


def test_simplex_slice():
    # x1 + x2 = 1, x >= 0: x1 ranges over [0, 1]
    P = Polyhedron.build(2, a_ub=-np.eye(2), b_ub=np.zeros(2), a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert is_feasible(P)
    lo, hi = functional_range(P, np.array([1.0, 0.0]))
    assert (lo, hi) == (0.0, 1.0)
    pt = feasible_point(P)
    assert pt is not None and abs(pt.sum() - 1.0) < 1e-9 and np.all(pt >= -1e-9)


def test_empty_by_inequalities():
    P = Polyhedron.build(1, a_ub=[[1.0], [-1.0]], b_ub=[-1.0, 0.0])
    assert not is_feasible(P)
    assert functional_range(P, np.array([1.0])) is None
    assert feasible_point(P) is None


def test_empty_by_inconsistent_equalities():
    P = Polyhedron.build(2, a_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[1.0, 2.0])
    assert not is_feasible(P)


@pytest.mark.parametrize("gap, feasible", [(1e-8, False), (1e-10, True)])
def test_an_empty_interval_is_empty_past_the_elimination_tolerance(gap, feasible):
    # 0 <= x <= -gap: empty, but a gap within the tolerance is roundoff
    poly = Polyhedron.build(1, a_ub=[[-1.0], [1.0]], b_ub=[0.0, -gap])
    assert is_feasible(poly) is feasible


def test_unbounded_line():
    P = Polyhedron.build(2, a_eq=[[1.0, -1.0]], b_eq=[0.0])
    lo, hi = functional_range(P, np.array([1.0, 0.0]))
    assert lo == -np.inf and hi == np.inf


def test_half_line():
    P = Polyhedron.build(1, a_ub=[[-1.0]], b_ub=[-2.0])
    lo, hi = functional_range(P, np.array([1.0]))
    assert lo == 2.0 and hi == np.inf
    assert feasible_point(P)[0] >= 2.0 - 1e-9


def test_unique_point_from_overdetermined_equalities():
    P = Polyhedron.build(2, a_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_eq=[2.0, 3.0, 5.0])
    lo, hi = functional_range(P, np.array([0.0, 1.0]))
    assert lo == pytest.approx(3.0) and hi == pytest.approx(3.0)
    assert np.allclose(feasible_point(P), [2.0, 3.0])


def test_leftover_equality_is_scaled_by_its_own_row():
    # x = 1 + 1e-6 misses 1e6 x = 1e6 by 1e-6: the leftover row's consistency
    # test reads that row's own magnitude, whichever order the rows come in
    for a_eq, b_eq in (([[1.0], [1e6]], [1.0 + 1e-6, 1e6]), ([[1e6], [1.0]], [1e6, 1.0 + 1e-6])):
        P = Polyhedron.build(1, a_eq=a_eq, b_eq=b_eq)
        assert not is_feasible(P), a_eq
        assert feasible_point(P) is None, a_eq


def test_random_feasibility_against_sampling(rng):
    for _ in range(200):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(0, 6))
        A = rng.normal(size=(k, d))
        b = rng.normal(size=k)
        P = Polyhedron.build(d, a_ub=A, b_ub=b)
        pt = feasible_point(P)
        if is_feasible(P):
            assert pt is not None and np.all(A @ pt <= b + 1e-7)
        else:
            X = rng.normal(size=(3000, d), scale=3.0)
            inside = np.all(X @ A.T <= b[None, :] + 1e-9, axis=1) if k else np.ones(3000, bool)
            assert not inside.any()


def test_random_box_ranges_exact(rng):
    for _ in range(100):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 0, d)
        hi = rng.uniform(0.5, 2, d)
        P = Polyhedron.build(
            d, a_ub=np.vstack([np.eye(d), -np.eye(d)]), b_ub=np.concatenate([hi, -lo])
        )
        c = rng.normal(size=d)
        got_lo, got_hi = functional_range(P, c)
        want_hi = float(np.sum(np.where(c > 0, c * hi, c * lo)))
        want_lo = float(np.sum(np.where(c > 0, c * lo, c * hi)))
        assert got_lo == pytest.approx(want_lo, abs=1e-8)
        assert got_hi == pytest.approx(want_hi, abs=1e-8)


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(polyhedra, "_ROW_BUDGET", 50)
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 8))
    P = Polyhedron.build(8, a_ub=A, b_ub=np.ones(40))
    with pytest.raises(BudgetExceeded):
        functional_range(P, np.ones(8))


def _nonzero_points_reference(poly, coords):
    """``nonzero_points`` as one full range per coordinate, each reducing the
    equalities again: the answer the shared reduction must reproduce."""
    for j in coords:
        c = np.zeros(poly.dim)
        c[j] = 1.0
        rng = functional_range(poly, c)
        if rng is None:
            return
        if rng[1] > 1e-9:
            target = 1.0
        elif rng[0] < -1e-9:
            target = -1.0
        else:
            continue
        pinned = Polyhedron.build(
            poly.dim, a_ub=poly.a_ub, b_ub=poly.b_ub,
            a_eq=np.vstack([poly.a_eq, c]), b_eq=np.concatenate([poly.b_eq, [target]]),
        )
        point = feasible_point(pinned)
        if point is not None:
            yield point


def _random_polyhedron(rng, kind):
    d = int(rng.integers(1, 6))
    k_ub = 0 if kind == "no_inequalities" else int(rng.integers(0, d + 4))
    a_ub = rng.normal(size=(k_ub, d))
    b_ub = np.zeros(k_ub) if rng.random() < 0.5 else rng.normal(size=k_ub)
    if kind == "pinned_at_zero":  # nonsingular homogeneous equalities: x = 0
        return Polyhedron.build(d, a_ub=a_ub, b_ub=np.zeros(k_ub),
                                a_eq=rng.normal(size=(d, d)), b_eq=np.zeros(d))
    if kind == "pinned_elsewhere":  # x = q, coordinates of q zero, tiny, +-1 or other
        q = rng.choice([0.0, 1e-12, 1.0, -1.0, 0.7], size=d)
        a_eq = rng.normal(size=(d, d))
        return Polyhedron.build(d, a_ub=a_ub, b_ub=a_ub @ q + np.abs(b_ub),
                                a_eq=a_eq, b_eq=a_eq @ q)
    if kind == "inconsistent":
        row = rng.normal(size=(1, d))
        return Polyhedron.build(d, a_ub=a_ub, b_ub=b_ub,
                                a_eq=np.vstack([row, row]), b_eq=np.array([0.0, 1.0]))
    k_eq = int(rng.integers(0, d))  # fewer equalities than columns: free columns remain
    a_eq = rng.normal(size=(k_eq, d))
    b_eq = np.zeros(k_eq) if rng.random() < 0.5 else rng.normal(size=k_eq)
    return Polyhedron.build(d, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def _collect(points):
    """The points a generator yields, and whether it ran out of budget."""
    out = []
    try:
        for point in points:
            out.append(point)
    except BudgetExceeded:
        return out, True
    return out, False


@pytest.mark.parametrize(
    "kind", ["pinned_at_zero", "pinned_elsewhere", "inconsistent", "free_columns",
             "no_inequalities"],
)
def test_nonzero_points_match_per_coordinate_reference(kind):
    rng = np.random.default_rng(2024)
    for _ in range(60):
        P = _random_polyhedron(rng, kind)
        coords = [j for j in range(P.dim) if rng.random() < 0.8]
        got, got_budget = _collect(nonzero_points(P, coords))
        want, want_budget = _collect(_nonzero_points_reference(P, coords))
        assert got_budget == want_budget
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_nonzero_points_skip_ranges_on_a_pattern_pinned_at_zero(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return functional_range(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "functional_range", counting)
    P = Polyhedron.build(
        4, a_ub=-np.eye(4)[:2], b_ub=np.zeros(2),
        a_eq=np.eye(4) + np.triu(np.ones((4, 4)), 1), b_eq=np.zeros(4),
    )
    assert list(polyhedra.nonzero_points(P, range(4))) == []
    assert calls == []


def _oracle_polyhedron(rng, kind):
    """A seeded random polyhedron of one of three kinds."""
    d = int(rng.integers(1, 5))  # small enough that elimination stays inside its row budget
    a_ub = rng.normal(size=(int(rng.integers(0, d + 3)), d))
    b_ub = rng.normal(size=a_ub.shape[0])
    a_eq, b_eq = np.zeros((0, d)), np.zeros(0)
    if kind == "random" and rng.random() < 0.5:  # inside a simplex: both sides bounded
        a_ub = np.vstack([a_ub[:2], -np.eye(d), np.ones((1, d))])
        b_ub = np.concatenate([b_ub[:2] - 1.0, np.ones(d), [1.0]])
    if kind == "degenerate":  # a cone with repeated and parallel rows: every vertex at 0
        if a_ub.shape[0]:
            a_ub = np.vstack([a_ub, a_ub[:1], 3.0 * a_ub[-1:]])
        b_ub = np.zeros(a_ub.shape[0])
    elif kind == "equalities":  # consistent equalities, one of them redundant when k >= 2
        x0 = rng.normal(size=d)
        a_eq = rng.normal(size=(int(rng.integers(1, d + 1)), d))
        if a_eq.shape[0] >= 2:
            a_eq = np.vstack([a_eq, a_eq[0] - 2.0 * a_eq[1]])
        b_eq = a_eq @ x0
        if rng.random() < 0.7:  # x0 strictly inside the inequalities
            b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, size=a_ub.shape[0])
    return Polyhedron.build(d, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


@pytest.mark.parametrize("kind", ["random", "degenerate", "equalities"])
def test_against_linprog(kind):
    """Differential oracle: HiGHS linear programs give the same feasibility
    verdicts and ranges (bounded and unbounded sides), and every returned
    point lies in the polyhedron."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    for _ in range(60):
        P = _oracle_polyhedron(rng, kind)
        d, a_ub, b_ub, a_eq, b_eq = P.dim, P.a_ub, P.b_ub, P.a_eq, P.b_eq

        def lp(c):
            return linprog(c, A_ub=a_ub if a_ub.size else None, b_ub=b_ub if a_ub.size else None,
                           A_eq=a_eq if a_eq.size else None, b_eq=b_eq if a_eq.size else None,
                           bounds=[(None, None)] * d, method="highs")

        feasible = lp(np.zeros(d)).status == 0
        assert is_feasible(P) == feasible
        point = feasible_point(P)
        if not feasible:
            assert point is None and functional_range(P, np.ones(d)) is None
            continue
        scale = 1.0 + np.abs(point).max()
        assert np.all(a_ub @ point <= b_ub + 1e-8 * scale)
        assert np.allclose(a_eq @ point, b_eq, atol=1e-8 * scale)
        c = rng.normal(size=d)
        lo, hi = functional_range(P, c)
        for side, res in ((lo, lp(c)), (-hi, lp(-c))):
            assert res.status in (0, 3)
            if res.status == 3:
                assert side == -np.inf
            else:
                assert side == pytest.approx(res.fun, abs=1e-7 * (1.0 + abs(res.fun)))


def _feasible_by_elimination(P):
    try:
        polyhedra._elimination_stack(P.A, P.b, P.tol)
    except polyhedra.Infeasible:
        return False
    return True


@pytest.mark.parametrize("low", [-0.0, -1e-300, 0.0])
def test_nonnegative_right_hand_side_exit_agrees_with_elimination(monkeypatch, low):
    # b >= 0 exactly puts z = 0 in the polyhedron, so is_feasible answers
    # before eliminating; -0.0 counts as nonnegative, -1e-300 does not
    rng = np.random.default_rng(7)
    eliminated = []
    stack = polyhedra._elimination_stack

    def counting(*args):
        eliminated.append(args)
        return stack(*args)

    for _ in range(40):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        P = Polyhedron.build(d, a_ub=rng.normal(size=(k, d)), b_ub=np.zeros(k))
        b = np.abs(rng.normal(size=k))
        b[rng.random(k) < 0.5] = low
        P = replace(P, b=b)
        expected = _feasible_by_elimination(P)
        eliminated.clear()
        monkeypatch.setattr(polyhedra, "_elimination_stack", counting)
        assert is_feasible(P) == expected
        monkeypatch.setattr(polyhedra, "_elimination_stack", stack)
        assert len(eliminated) == (0 if np.all(b >= 0.0) else 1)
    # and on systems whose right-hand side has either sign
    for _ in range(40):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        P = Polyhedron.build(d, a_ub=rng.normal(size=(k, d)), b_ub=rng.normal(size=k))
        assert is_feasible(P) == _feasible_by_elimination(P)


def test_several_right_hand_sides_reduce_as_separate_calls(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, d))
        a_eq = rng.normal(size=(k, d))
        a_eq = np.vstack([a_eq, rng.normal(size=(2, k)) @ a_eq])  # two dependent rows
        consistent = a_eq @ rng.normal(size=(d, 3))
        b_eqs = np.hstack([consistent, rng.normal(size=(k + 2, 1))])  # the last is inconsistent
        T, qs, ok = polyhedra._reduce_equalities(a_eq, b_eqs, 1e-9)
        assert ok.tolist() == [True, True, True, False]
        for j in range(b_eqs.shape[1]):
            T1, q1, ok1 = polyhedra._reduce_equalities(a_eq, b_eqs[:, [j]], 1e-9)
            assert T.tobytes() == T1.tobytes() and T.shape == T1.shape
            assert qs[j].tobytes() == q1[0].tobytes() and ok[j] == ok1[0]
        a_ub = rng.normal(size=(3, d))
        b_ub = rng.normal(size=3)
        for P, b_eq in zip(Polyhedron.build_each(d, a_ub, b_ub, a_eq, b_eqs), b_eqs.T):
            Q = Polyhedron.build(d, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
            assert np.array_equal(P.b_eq, Q.b_eq)
            if Q.T is None:
                assert P.T is None and P.A is None and P.b is None
                continue
            for a, b in ((P.T, Q.T), (P.q, Q.q), (P.A, Q.A), (P.b, Q.b)):
                assert a.tobytes() == b.tobytes() and a.shape == b.shape
