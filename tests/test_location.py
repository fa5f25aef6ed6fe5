import itertools

import numpy as np
import pytest

import tropt as t
from tropt import location
from tropt.errors import DimensionError, DomainError

from conftest import POINTS, WEIGHTS, WORKED, planted

NEG = float("-inf")


class TestDistance:
    def test_examples(self):
        assert t.chebyshev_distance([0, 0], [3, -4]) == 4
        assert t.chebyshev_distance([1, 2, 3], [1, 2, 3]) == 0
        assert t.chebyshev_distance([-7, 12], [2, 0]) == 12

    def test_metric_axioms(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a, b, c = rng.integers(-20, 21, size=(3, n)).astype(float)
            assert t.chebyshev_distance(a, b) == t.chebyshev_distance(b, a)
            assert t.chebyshev_distance(a, b) >= 0
            assert t.chebyshev_distance(a, c) <= (
                t.chebyshev_distance(a, b) + t.chebyshev_distance(b, c)
            )

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            t.chebyshev_distance([1, 2], [1, 2, 3])


class TestCornerVectors:
    def test_golden(self):
        p, q = t.build_pq(POINTS, WEIGHTS)
        assert p.tolist() == [3, 14]
        assert q.tolist() == [-12, -4]

    def test_single_point(self):
        p, q = t.build_pq([[5, -2]], [3])
        assert p.tolist() == [8, 1]
        assert q.tolist() == [2, -5]

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            t.build_pq([[1, 2]], [1, 2])


def _paths_closure(B):
    """Literal path enumeration, for cross-checking closure_entries."""
    n = B.shape[0]
    out = np.full((n, n), NEG)
    np.fill_diagonal(out, 0.0)
    for i in range(n):
        for j in range(n):
            for k in range(n - 1):  # k intermediate nodes
                for mid in itertools.product(range(n), repeat=k):
                    nodes = (i, *mid, j)
                    w = sum(B[a, b] for a, b in zip(nodes, nodes[1:]))
                    out[i, j] = max(out[i, j], w)
    return out


class TestClosure:
    def test_golden(self, worked):
        got = t.closure_entries(WORKED["B"])
        assert got.tolist() == [[0, -4], [-8, 0]]

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            B = rng.integers(-6, 3, size=(n, n)).astype(float)
            B[rng.random((n, n)) < 0.3] = NEG
            assert np.array_equal(t.closure_entries(B), _paths_closure(B))

    def test_matches_star_when_contractive(self, mp):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            B = rng.integers(-6, 1, size=(n, n)).astype(float)
            star = t.tmatrix(mp, B).star()
            assert np.array_equal(t.closure_entries(B), star.data)

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            t.closure_entries(np.zeros((2, 3)))


class TestReduction:
    def test_objective_equals_worst_weighted_distance(self):
        rng = np.random.default_rng(54)
        inst = t.LocationInstance(np.array(POINTS, float), np.array(WEIGHTS, float))
        assert (inst.m, inst.n) == (5, 2)
        gen = t.to_general_problem(inst)
        for _ in range(50):
            x = rng.integers(-15, 16, size=2).astype(float)
            want = max(
                w + t.chebyshev_distance(r, x)
                for r, w in zip(inst.points, inst.weights)
            )
            got = t.objective(gen.p, gen.q, t.tvector(t.MAX_PLUS, x))
            assert got == t.MAX_PLUS.scalar(want)

    def test_carries_constraints(self):
        inst = t.LocationInstance(
            np.array(POINTS, float), np.array(WEIGHTS, float),
            B=np.array(WORKED["B"], float),
            g=np.array(WORKED["g"], float), h=np.array(WORKED["h"], float),
        )
        gen = t.to_general_problem(inst)
        assert gen.B.tolist() == WORKED["B"]
        assert gen.g.column_values().tolist() == WORKED["g"]
        assert gen.h.column_values().tolist() == WORKED["h"]

    def test_all_absent_becomes_unconstrained(self):
        inst = t.LocationInstance(
            np.array(POINTS, float), np.array(WEIGHTS, float),
            B=np.full((2, 2), NEG), g=np.full(2, NEG),
        )
        gen = t.to_general_problem(inst)
        assert gen.B is None and gen.g is None and gen.h is None

    def test_arrays_changed_after_construction_do_not_reach_the_instance(self):
        # B, g and h are wrapped as trusted, so the instance must keep the
        # arrays it checked, not the caller's.
        src = {k: np.array(WORKED[k], float) for k in ("B", "g", "h")}
        pts, w = np.array(POINTS, float), np.array(WEIGHTS, float)
        inst = t.LocationInstance(pts, w, **src)
        for arr in (pts, w, *src.values()):
            arr.flat[0] = np.inf
        gen = t.to_general_problem(inst)
        assert gen.B.tolist() == WORKED["B"]
        assert gen.g.column_values().tolist() == WORKED["g"]
        assert gen.h.column_values().tolist() == WORKED["h"]
        assert inst.points.tolist() == POINTS and inst.weights.tolist() == WEIGHTS
        for name in ("points", "weights", "B", "g", "h"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(inst, name).flat[0] = 0.0

    @pytest.mark.parametrize("weight", [1e308, -1e308], ids=["p", "q"])
    def test_a_corner_that_overflows_is_rejected(self, weight):
        # Finite points and weights can sum past the floats: p = r + w, or
        # q = r - w, reaches +inf, which is no max-plus value.
        inst = t.LocationInstance(np.array([[1e308, 0.0]]), np.array([weight]))
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match="^max-plus: value outside carrier$"):
            t.to_general_problem(inst)


class TestSolveLocation:
    def _constrained(self):
        return t.LocationInstance(
            np.array(POINTS, float), np.array(WEIGHTS, float),
            B=np.array(WORKED["B"], float),
            g=np.array(WORKED["g"], float), h=np.array(WORKED["h"], float),
        )

    def test_golden_constrained(self):
        sol = t.solve_location(self._constrained())
        assert sol.theta == 14
        assert sol.p.tolist() == [3, 14] and sol.q.tolist() == [-12, -4]
        assert sol.closure.tolist() == [[0, -4], [-8, 0]]
        assert sol.u_lower.tolist() == [2, 0]
        assert sol.u_upper.tolist() == [2, 6]
        assert sol.x_lower.tolist() == [2, 0]
        assert sol.x_upper.tolist() == [2, 6]

    def test_golden_unconstrained(self):
        inst = t.LocationInstance(np.array(POINTS, float), np.array(WEIGHTS, float))
        sol = t.solve_location(inst)
        assert sol.theta == 9
        assert sol.x_lower.tolist() == [-6, 5]
        assert sol.x_upper.tolist() == [-3, 5]

    def test_optimum_is_worst_distance_at_ends(self):
        inst = self._constrained()
        sol = t.solve_location(inst)
        for x in (sol.x_lower, sol.x_upper):
            worst = max(
                w + t.chebyshev_distance(r, x)
                for r, w in zip(inst.points, inst.weights)
            )
            assert worst == sol.theta

    def test_positive_cycle_infeasible(self):
        inst = t.LocationInstance(
            np.array(POINTS, float), np.array(WEIGHTS, float),
            B=np.array([[0.0, 3.0], [-1.0, 0.0]]),
        )
        rep = t.solve_location(inst)
        assert isinstance(rep, t.InfeasibilityReport)
        assert rep.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
        assert rep.detail.value == 2

    def test_incompatible_bounds_infeasible(self):
        inst = t.LocationInstance(
            np.array(POINTS, float), np.array(WEIGHTS, float),
            g=np.array([5.0, 5.0]), h=np.array([0.0, 0.0]),
        )
        rep = t.solve_location(inst)
        assert isinstance(rep, t.InfeasibilityReport)
        assert rep.reason is t.InfeasibleReason.BOUNDS_INCOMPATIBLE
        assert rep.detail.value == 5

    @pytest.mark.parametrize("n", [3, 5])
    def test_each_power_is_made_once(self, n, monkeypatch):
        # The cycle test reads B^1..B^n and the closure B^1..B^(n-1): one
        # run of n - 1 products serves both, where closure_entries alone
        # takes n - 2.
        calls = []
        power = location._maxplus_power

        def counting_power(a, b):
            calls.append(a.shape)
            return power(a, b)

        monkeypatch.setattr(location, "_maxplus_power", counting_power)
        rng = np.random.default_rng(56)
        B = rng.integers(-6, 1, size=(n, n)).astype(float)
        inst = t.LocationInstance(rng.integers(-10, 11, size=(4, n)).astype(float), np.ones(4), B=B)
        sol = t.solve_location(inst)
        assert isinstance(sol, t.LocationSolution)
        assert len(calls) == n - 1
        assert np.array_equal(sol.closure, t.closure_entries(B))
        assert len(calls) == 2 * n - 3

    def test_agrees_with_algebraic_path(self):
        # the conventional-arithmetic solver and the semifield solver are
        # written independently; they must produce identical numbers
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            raw = planted(rng, n)
            pts = rng.integers(-10, 11, size=(m, n)).astype(float)
            w = rng.integers(0, 6, size=m).astype(float)
            inst = t.LocationInstance(pts, w, B=raw["B"], g=raw["g"], h=raw["h"])
            loc = t.solve_location(inst)
            alg = t.solve_instance(t.to_general_problem(inst))
            if isinstance(loc, t.InfeasibilityReport):
                assert isinstance(alg, t.InfeasibilityReport)
                assert loc.reason is alg.reason
                continue
            assert loc.theta == alg.theta.value
            assert loc.u_lower.tolist() == alg.u_lo.column_values().tolist()
            assert loc.u_upper.tolist() == alg.u_hi.column_values().tolist()
            assert loc.x_lower.tolist() == alg.x_lo.column_values().tolist()
            assert loc.x_upper.tolist() == alg.x_hi.column_values().tolist()


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError, match="points must be a non-empty m x n array"):
            t.LocationInstance(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(DimensionError):
            t.LocationInstance(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(DimensionError):
            t.LocationInstance(np.zeros((2, 2)), np.zeros(2), B=np.zeros((3, 3)))

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            t.LocationInstance(np.array([[np.inf, 0.0]]), np.zeros(1))
        with pytest.raises(DomainError):
            t.LocationInstance(np.zeros((1, 2)), np.zeros(1), h=np.array([NEG, 0.0]))
