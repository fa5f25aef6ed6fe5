import tracemalloc
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


    def test_equality(self):
        grid = t.GridSpec(np.zeros(2), np.ones(2))
        same = t.GridSpec(np.zeros(2), np.ones(2))
        assert grid == same and hash(grid) == hash(same)
        assert {grid, same} == {grid}
        assert grid != t.GridSpec(np.zeros(2), np.full(2, 2.0))
        assert grid != t.GridSpec(np.zeros(2), np.ones(2), step=0.25)
        assert grid != t.GridSpec(np.zeros(3), np.ones(3))
        assert grid != (np.zeros(2), np.ones(2), 0.5)
        assert grid != "grid"


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

    def test_min_plus_clips_to_g_and_h(self):
        # In min-plus, g <= x bounds x from above and x <= h from below;
        # a zero (+inf) entry of g leaves its dimension padded.
        sf = t.MIN_PLUS
        inst = t.problem(sf, [1, -2], [3, 0], g=[3, np.inf], h=[-2, -1])
        pad = 3.0 * 3 + 1
        expect = t.GridSpec(np.array([max(-pad, -2), max(-pad, -1)]),
                            np.array([min(pad, 3), pad]))
        assert t.default_grid(inst) == expect
        sol = t.solve_instance(inst)
        res = t.brute_force_min(inst)
        assert res.min_value == sol.theta
        assert res.argmins
        for a in res.argmins:
            assert t.contains(sol, inst, t.tvector(sf, a))

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


def grid_scan_rows(X, B, g, h, p, qc, sf):
    """Feasibility and objective of each row of X, one broadcast over all rows.

    A reference that builds every point: ``B x`` is an N x n x n broadcast
    and the objective one reduction over the 2n terms of each row.
    """
    asc = -1.0 if sf.minimize else 1.0
    feas = np.ones(X.shape[0], dtype=np.bool_)
    if B is not None:
        bx = sf.add.reduce(sf.mul(B[None, :, :], X[:, None, :]), axis=2)
        feas &= (asc * bx <= asc * X).all(axis=1)
    if g is not None:
        feas &= (asc * g[None, :] <= asc * X).all(axis=1)
    if h is not None:
        feas &= (asc * X <= asc * h[None, :]).all(axis=1)
    xinv = 1.0 / X if sf.times else -X
    both = np.concatenate([sf.mul(xinv, p[None, :]), sf.mul(qc[None, :], X)], axis=1)
    return feas, sf.add.reduce(both, axis=1)


def _point_wise(inst, grid, eps=None):
    """The oracle's answer from a scan of every point of the grid, built as a row."""
    sf = inst.sf
    X = grid.points()
    feas, vals = grid_scan_rows(
        X,
        inst.B.data if inst.B is not None else None,
        inst.g.data.reshape(-1) if inst.g is not None else None,
        inst.h.data.reshape(-1) if inst.h is not None else None,
        inst.p.data.reshape(-1),
        inst.q.conj().data.reshape(-1),
        sf,
    )
    fvals = vals[feas]
    best = float(fvals.max() if sf.minimize else fvals.min())
    return best, X[feas & np.asarray(sf.eq(vals, best, eps))], int(feas.sum())


MP = t.MAX_PLUS
# Grids of 7e4 to 1.6e5 points over n = 1 to 3, and a relative tolerance.
BLOCKED_CASES = [
    # n = 1, 100001 points
    (t.problem(MP, [60000], [40000]), t.GridSpec([-50000.0], [50000.0], 1.0)),
    # n = 2, 301 x 501 points
    (t.problem(MP, [10, 10], [-40, -8], B=[[0, -4], [-8, -6]], g=[29, -8]),
     t.GridSpec([0.0, -10], [30.0, 40], 0.1)),
    # n = 3, 43 x 41 x 41 points
    (t.problem(MP, [10, 4, 1], [-19, -6, -3], B=[[0, -4, -3], [-8, -6, -1], [-2, -2, -5]],
               g=[18, -5, -5]),
     t.GridSpec([-2.0, 0, 0], [19.0, 20, 20], 0.5)),
    # relative tolerance, 391 x 391 points
    (t.problem(t.MIN_TIMES, [0.5, 2], [4, 3], h=[3.8, 0.1]), t.GridSpec([0.1, 0.1], [4.0, 4.0], 0.01)),
]


@pytest.mark.parametrize("inst, grid", BLOCKED_CASES)
def test_blocked_scan_matches_one_shot(inst, grid):
    best, argmins, count = _point_wise(inst, grid)
    res = t.brute_force_min(inst, grid)
    assert np.float64(res.min_value.value).tobytes() == np.float64(best).tobytes()
    assert res.feasible_count == count
    assert len(argmins) and np.array(res.argmins).tobytes() == argmins.tobytes()


def test_scan_memory_is_bounded():
    sf = t.MAX_TIMES
    inst = t.problem(sf, [4, 2, 1], [0.25, 0.5, 1],
                     B=[[0.5, 0.25, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.4]])
    grid = t.GridSpec(np.full(3, 0.1), np.full(3, 10.0), step=0.1)
    assert grid.point_count() == 100**3
    tracemalloc.start()
    try:
        res = t.brute_force_min(inst, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.argmins
    assert peak < 28e6  # 23 MB measured; one N x n x n broadcast of the grid takes 237 MB
