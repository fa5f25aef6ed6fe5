import warnings

import numpy as np
import pytest

import tropt as t
from tropt.errors import DomainError, GridGuardError, TroptError

from conftest import as_instance, random_feasible_instance


class TestGridSpec:
    def test_axis_and_points(self):
        grid = t.GridSpec(np.array([0.0, -1.0]), np.array([1.0, 0.0]), step=0.5)
        assert grid.point_count() == 9
        pts = grid.points()
        assert pts.shape == (9, 2)
        assert pts[0].tolist() == [0.0, -1.0]
        assert pts[-1].tolist() == [1.0, 0.0]
        # lexicographic: first coordinate varies slowest
        assert np.array_equal(pts, pts[np.lexsort((pts[:, 1], pts[:, 0]))])

    def test_validation(self):
        with pytest.raises(DomainError):
            t.GridSpec(np.array([1.0]), np.array([0.0]))
        with pytest.raises(DomainError):
            t.GridSpec(np.array([0.0]), np.array([1.0]), step=0.0)
        with pytest.raises(DomainError):
            t.GridSpec(np.array([0.0]), np.array([float("inf")]))

    def test_point_guard(self):
        with pytest.raises(GridGuardError):
            t.GridSpec(np.full(3, -50.0), np.full(3, 50.0), step=0.5)

    @pytest.mark.parametrize("lower, upper, step", [
        ([0.0], [1.0], 1e-320),           # the count overflows to inf
        ([-1e308], [1e308], 1.0),         # the span overflows to inf
        ([0.0], [1.0], float("inf")),
        ([0.0], [1.0], float("nan")),
    ])
    def test_counts_that_do_not_fit_an_int_raise(self, lower, upper, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TroptError):
                t.GridSpec(np.array(lower), np.array(upper), step)


class TestDefaultGrid:
    def test_respects_box(self, worked, mp):
        inst = t.ProblemInstance(
            mp, worked["p"], worked["q"], g=worked["g"], h=worked["h"], B=worked["B"]
        )
        grid = t.default_grid(inst)
        assert grid.lower.tolist() == [2, -8]
        assert grid.upper.tolist() == [6, 8]

    def test_pads_unbounded(self, worked, mp):
        inst = t.ProblemInstance(mp, worked["p"], worked["q"])
        grid = t.default_grid(inst)
        # wide enough to contain the whole optimizer family
        sol = t.solve_unconstrained(worked["p"], worked["q"])
        assert (grid.lower <= sol.x_lo.column_values()).all()
        assert (sol.x_hi.column_values() <= grid.upper).all()

    def test_times_needs_explicit_grid(self):
        inst = t.problem(t.MAX_TIMES, [4], [0.25])
        with pytest.raises(DomainError):
            t.default_grid(inst)


class TestBruteForce:
    def test_golden_general(self, worked, mp):
        inst = t.ProblemInstance(
            mp, worked["p"], worked["q"], g=worked["g"], h=worked["h"], B=worked["B"]
        )
        res = t.brute_force_min(inst)
        assert res.min_value == mp.scalar(14)
        assert len(res.argmins) == 13
        expect = [[2.0, v] for v in np.arange(0, 6.5, 0.5)]
        assert [a.tolist() for a in res.argmins] == expect

    def test_golden_unconstrained(self, worked, mp):
        inst = t.ProblemInstance(mp, worked["p"], worked["q"])
        res = t.brute_force_min(inst)
        assert res.min_value == mp.scalar(9)
        expect = [[v, 5.0] for v in np.arange(-6, -2.5, 0.5)]
        assert [a.tolist() for a in res.argmins] == expect

    def test_argmins_pass_membership(self, worked, mp):
        inst = t.ProblemInstance(
            mp, worked["p"], worked["q"], g=worked["g"], h=worked["h"], B=worked["B"]
        )
        sol = t.solve_instance(inst)
        res = t.brute_force_min(inst)
        for a in res.argmins:
            assert t.contains(sol, inst, t.tvector(mp, a))

    def test_empty_when_infeasible(self, mp):
        inst = t.problem(mp, [0, 0], [0, 0], g=[3, 0], h=[1, 5])
        res = t.brute_force_min(inst, t.GridSpec(np.zeros(2), np.full(2, 5.0)))
        assert res.empty
        assert res.feasible_count == 0
        assert res.argmins == []

    def test_dimension_cap(self, mp):
        inst = t.problem(mp, [0] * 4, [0] * 4)
        with pytest.raises(DomainError):
            t.brute_force_min(inst, t.GridSpec(np.zeros(4), np.ones(4)))

    def test_grid_dimension_mismatch(self, mp):
        inst = t.problem(mp, [0, 0], [0, 0])
        with pytest.raises(DomainError):
            t.brute_force_min(inst, t.GridSpec(np.zeros(3), np.ones(3)))

    def test_multiplicative_with_explicit_grid(self):
        sf = t.MAX_TIMES
        inst = t.problem(sf, [4], [0.25])
        grid = t.GridSpec(np.array([0.5]), np.array([2.0]), step=0.25)
        res = t.brute_force_min(inst, grid)
        assert res.min_value.eq(sf.scalar(4))
        assert [a.tolist() for a in res.argmins] == [[1.0]]

    def test_agrees_with_solver_on_random_instances(self, mp):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            raw = random_feasible_instance(rng, n, mixed_B=True)
            inst = as_instance(mp, raw)
            sol = t.solve_instance(inst)
            res = t.brute_force_min(inst)
            assert res.min_value == sol.theta
            for a in res.argmins:
                assert t.contains(sol, inst, t.tvector(mp, a))
