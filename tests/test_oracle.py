import tracemalloc
import warnings

import numpy as np
import pytest

import tropt as t
from tropt.errors import DomainError, GridGuardError, TroptError

from conftest import instance, planted, to_sf


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

    @pytest.mark.parametrize("sf", [t.MAX_PLUS, t.MIN_PLUS], ids=lambda sf: sf.tag)
    def test_clips_like_one_bound_at_a_time(self, sf):
        # The same bits as clipping the padded box to each finite entry of
        # g and h in turn, with g and h absent, finite or the semifield zero.
        rng = np.random.default_rng(12)
        s = -1.0 if sf.minimize else 1.0
        for k in range(60):
            n = int(rng.integers(1, 4))
            vec = lambda: rng.normal(size=n) * [1.0, 0.1, 1e3, 1e300][k % 4]
            g = h = None
            if k % 3:
                g = vec()
                g[rng.random(n) < 0.4] = sf.zero
            if k % 5:
                h = g + s * np.abs(vec()) if g is not None else vec()
                h[~np.isfinite(h)] = 0.0
            inst = t.problem(sf, vec(), vec(), g=g, h=h)
            finite = np.concatenate([v for v in (inst.p.data, inst.q.data, g, h)
                                     if v is not None], axis=None)
            pad = 3.0 * np.abs(finite[np.isfinite(finite)]).max() + 1.0
            lower, upper = np.full(n, -pad), np.full(n, pad)
            for v, is_lower in ((g, not sf.minimize), (h, sf.minimize)):
                if v is not None:
                    m = np.isfinite(v)
                    if is_lower:
                        lower[m] = np.maximum(lower[m], v[m])
                    else:
                        upper[m] = np.minimum(upper[m], v[m])
            grid = t.default_grid(inst, pad)  # at most 3 points an axis
            assert grid.lower.tobytes() == lower.tobytes(), k
            assert grid.upper.tobytes() == np.maximum(lower, upper).tobytes(), k

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

    @pytest.mark.parametrize("sf", [t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES],
                             ids=lambda sf: sf.tag)
    def test_agrees_with_the_solver_at_n_4_to_6(self, sf):
        # No dimension cap: planted instances at n = 4, 5 and 6, with theta,
        # the optimizer and every argmin checked.  The plus semifields scan
        # their default grid, the box [g, h] at step 1/2, which holds the
        # planted x.  The times instances have size 1 on the lattice of 2,
        # so they have no slack and x, of integer exponents in [0, 3], is the
        # one optimizer; the grid of the powers of two from 2^0 to 2^3,
        # carried to sf at the step of its lower end, holds it.
        rng = np.random.default_rng(46)
        ends = np.sort(to_sf(sf, [0.0, 3.0]))
        for k in range(9):
            raw = (planted(rng, 4 + k % 3, size=1, step=2.0, optimum=True) if sf.times
                   else planted(rng, 4 + k % 3, size=4, optimum=True))
            inst = instance(sf, raw)
            x, theta = to_sf(sf, raw["x"]), float(to_sf(sf, raw["theta"]))
            grid = (t.GridSpec(np.full(inst.n, ends[0]), np.full(inst.n, ends[1]), ends[0])
                    if sf.times else t.default_grid(inst))
            sol = t.solve_instance(inst)
            res = t.brute_force_min(inst, grid)
            assert sol.theta.eq(sf.scalar(theta)) and res.min_value.eq(sol.theta), k
            assert any(np.array_equal(a, x) for a in res.argmins), k
            if sf.times:
                assert len(res.argmins) == 1, k
            for a in res.argmins:
                assert t.contains(sol, inst, t.tvector(sf, a)), (k, a)

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
            inst = instance(mp, planted(rng, n))
            sol = t.solve_instance(inst)
            res = t.brute_force_min(inst)
            assert res.min_value == sol.theta
            for a in res.argmins:
                assert t.contains(sol, inst, t.tvector(mp, a))


class TestDyadicData:
    """Data that are multiples of 2^-k put the optimizers on the lattice of
    step 2^-(k+1).  A grid is scanned as it is given; ``exact_min`` finds
    the optimum on any such lattice."""

    def test_half_integer_optimum_off_the_half_grid(self, mp):
        # The optimum -0.75 is at x = -0.25: off the step-1/2 grid, whose
        # best value is -0.5, and on the step-1/4 grid.
        inst = t.problem(mp, [-1], [0.5])
        assert t.brute_force_min(inst).min_value.value == -0.5
        res = t.brute_force_min(inst, t.GridSpec([-4.0], [4.0]))
        assert res.min_value.value == -0.5
        assert [a.tolist() for a in res.argmins] == [[-0.5], [0.0]]
        res = t.brute_force_min(inst, t.GridSpec([-4.0], [4.0], 0.25))
        assert res.min_value == t.solve_instance(inst).theta == mp.scalar(-0.75)
        assert [a.tolist() for a in res.argmins] == [[-0.25]]
        exact = t.exact_min(inst)
        assert exact.min_value == mp.scalar(-0.75)
        assert [a.tolist() for a in exact.argmins] == [[-0.25], [-0.25]]

    @pytest.mark.parametrize("sf", [t.MAX_PLUS, t.MIN_PLUS], ids=lambda sf: sf.tag)
    def test_exact_min_matches_the_full_fine_scan(self, sf):
        # Multiples of 1/2 and 1/4, n = 1-3, with and without B, g and h.
        # exact_min finds the solver's theta and ends.  At n <= 2 theta is
        # also the minimum of a scan of every point of the fine lattice in
        # the default grid's box, and both ends are among its argmins.
        rng = np.random.default_rng(77)
        scanned = 0
        for k in range(60):
            n = int(rng.integers(1, 4))
            scale = 2.0 if k % 4 else 4.0
            inst = instance(sf, planted(rng, n, step=1 / scale, parts=("Bgh", "B", "gh")[k % 3]))
            sol = t.solve_instance(inst)
            res = t.exact_min(inst)
            assert res.min_value == sol.theta
            ends = [sol.x_lo.column_values(), sol.x_hi.column_values()]
            assert np.array_equal(res.argmins, ends)
            if n == 3:  # the full fine grid of n = 3 trips the guard
                continue
            fine = 1 / (2 * scale)
            grid = t.default_grid(inst)
            lower, upper = np.floor(grid.lower / fine) * fine, np.ceil(grid.upper / fine) * fine
            full = t.brute_force_min(inst, t.GridSpec(lower, upper, fine))
            assert full.min_value == res.min_value
            found = {tuple(a) for a in full.argmins}
            assert all(tuple(end) in found for end in res.argmins)
            scanned += 1
        assert scanned > 30

    def test_exact_min_on_the_lattice_of_2_to_the_minus_9(self):
        # x0 >= x1 + 3 moves the optimum off the objective's own minimum,
        # and the slack entry -10 + 2^-8 puts the data on the lattice of
        # 2^-9.  The step-1/2 grid on whole bounds attains theta = 1.5.
        mp = t.MAX_PLUS
        inst = t.problem(mp, [0, 0], [0, 0], B=[[-np.inf, 3], [-10 + 2**-8, -np.inf]])
        sol = t.solve_instance(inst)
        res = t.exact_min(inst)
        assert res.min_value == sol.theta == mp.scalar(1.5)
        assert np.array_equal(res.argmins, [sol.x_lo.column_values(), sol.x_hi.column_values()])
        grid = t.brute_force_min(inst, t.GridSpec(np.full(2, -31.0), np.full(2, 31.0)))
        assert grid.min_value == sol.theta
        for a in grid.argmins:
            assert t.contains(sol, inst, t.tvector(mp, a))

    def test_exact_min_when_no_half_grid_point_is_feasible(self, mp):
        # x_0 >= x_1 + 1/8 cuts off the origin, the one point of the
        # step-1/2 grid in [0, 1/4]^2, so the grid is empty.  The optimum
        # 1/8 is attained at (1/8, 0) alone, a point of the lattice of 1/16.
        # An infeasible instance gives an empty result.
        inst = t.problem(mp, [0, 0], [0, 0], g=[0, 0], h=[0.25, 0.25],
                         B=[[-np.inf, 0.125], [-np.inf, -np.inf]])
        grid = t.default_grid(inst)
        assert grid.points().tolist() == [[0.0, 0.0]]
        assert t.brute_force_min(inst).empty
        res = t.exact_min(inst)
        assert res.min_value == t.solve_instance(inst).theta == mp.scalar(0.125)
        assert [a.tolist() for a in res.argmins] == [[0.125, 0.0]] * 2
        full = t.brute_force_min(inst, t.GridSpec(grid.lower, grid.upper, 1 / 16))
        assert full.min_value == res.min_value and full.feasible_count == 6
        assert [a.tolist() for a in full.argmins] == [[0.125, 0.0]]
        inst = t.problem(mp, [0, 0], [0, 0], g=[0.125, 0], h=[0.25, 0.25],
                         B=[[-np.inf, -np.inf], [0.25, -np.inf]])
        assert isinstance(t.solve_instance(inst), t.InfeasibilityReport)
        assert t.exact_min(inst).empty


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
    """The oracle's answer from a scan of every point of the grid, built as a row.

    conj(q) is formed here, so that the reference shares no conjugate with the oracle.
    """
    sf = inst.sf
    X = grid.points()
    q = inst.q.data.reshape(-1)
    with np.errstate(divide="ignore"):
        qc = np.where(q == sf.zero, sf.zero, 1.0 / q if sf.times else -q)
    feas, vals = grid_scan_rows(
        X,
        inst.B.data if inst.B is not None else None,
        inst.g.data.reshape(-1) if inst.g is not None else None,
        inst.h.data.reshape(-1) if inst.h is not None else None,
        inst.p.data.reshape(-1),
        qc,
        sf,
    )
    fvals = vals[feas]
    if fvals.size == 0:
        return None, X[:0], 0
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
    assert peak < 18e6  # 10.0 MB measured; one N x n x n broadcast of the grid takes 237 MB


def _memory_instance(g, h):
    sf = t.MAX_TIMES
    inst = t.problem(sf, [4, 2, 1], [0.25, 0.5, 1], g=[g] * 3, h=[h] * 3,
                     B=[[0.5, 0.25, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.4]])
    return inst, t.GridSpec(np.ones(3), np.full(3, 100.0), 1.0)


def _traced_peak(inst, grid):
    tracemalloc.start()
    try:
        res = t.brute_force_min(inst, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.argmins
    return res, peak


def test_scan_memory_follows_the_box_and_the_feasible_points():
    # 100^3 points, of which g and h leave a box of 89^3 and 46% are
    # feasible: a flag per box point, a value per feasible point, and one
    # slab of the box.  A value and a flag per point would take 12.7 MB.
    res, peak = _traced_peak(*_memory_instance(2.0, 90.0))
    assert res.feasible_count == 462_189
    assert peak < 11.5e6  # 8.4 MB measured


def test_scan_memory_of_a_narrow_box():
    # The same grid with g = 40 and h = 60: the box is 21^3 points.  A value
    # and a flag per point would take 9.5 MB, a flag per point alone 1.0 MB.
    res, peak = _traced_peak(*_memory_instance(40.0, 60.0))
    assert res.feasible_count == 9261
    assert peak < 0.5e6  # 0.27 MB measured


SEMIFIELDS = [t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES]


@pytest.mark.parametrize("sf", [t.MAX_TIMES, t.MIN_TIMES], ids=lambda sf: sf.tag)
def test_scan_matches_one_shot_on_64_cube_traffic(sf, monkeypatch):
    # Instances shaped like the benchmark's 64^3 oracle class: n = 3, a grid
    # of 64 points per axis, B at density 0.7, and an optimizer of powers of
    # two planted in it: planted exponents x in [0, 5] on the lattice of 2,
    # carried by 2^v to max-times and by 2^-v to min-times, with the grid
    # from 2^0 to 2^6 carried the same way at the step of its lower end.
    # Every fifth one has a cycle above one, so no point is feasible and
    # the box is empty.  The box of the others is narrowed or whole.
    from tropt import _kernels
    box_of, kinds = _kernels._box, []

    def spy(tables, shape):
        box = box_of(tables, shape)
        kinds.append("empty" if box is None
                     else "full" if all(s.stop - s.start == c for s, c in zip(box, shape))
                     else "narrowed")
        return box

    monkeypatch.setattr(_kernels, "_box", spy)
    rng = np.random.default_rng(76)
    ends = np.sort(to_sf(sf, [0.0, 6.0]))
    grid = t.GridSpec(np.full(3, ends[0]), np.full(3, ends[1]), ends[0])
    for k in range(15):
        kind = "cycle" if k % 5 == 4 else "feasible"
        inst = instance(sf, planted(rng, 3, kind, size=2, step=2.0, density=0.7, parts="B"))
        best, argmins, count = _point_wise(inst, grid)
        res = t.brute_force_min(inst, grid)
        assert res.feasible_count == count
        if count == 0:
            assert res.empty
            continue
        assert np.float64(res.min_value.value).tobytes() == np.float64(best).tobytes()
        assert len(argmins) and np.array(res.argmins).tobytes() == argmins.tobytes()
    assert set(kinds) == {"empty", "full", "narrowed"}


@pytest.mark.parametrize("sf", [t.MAX_PLUS, t.MIN_PLUS], ids=lambda sf: sf.tag)
def test_scan_matches_one_shot_on_29_cube_traffic(sf):
    # Instances shaped like the benchmark's plus-semifield oracle class:
    # n = 3, integer data of largest magnitude 2 and B at density 0.7, on
    # default_grid, which spans 29^3 points when g and h are absent.  Half
    # carry g and h, and every third q has a zero component.  A q that is
    # all zero has no conjugate.
    rng = np.random.default_rng(81)
    shares = set()
    for k in range(24):
        B = rng.integers(-2, 1, size=(3, 3)).astype(float)
        B[rng.random((3, 3)) >= 0.7] = -np.inf
        p, q = (rng.integers(-2, 3, size=3).astype(float) for _ in range(2))
        p[int(rng.integers(3))] = 2.0  # the largest magnitude
        if k % 3 == 0:
            q[int(rng.integers(3))] = -np.inf
        g = h = None
        if k % 2:
            g = rng.integers(-2, 1, size=3).astype(float)
            h = g + rng.integers(0, 3, size=3)
        inst = instance(sf, dict(p=p, q=q, g=g, h=h, B=B))
        grid = t.default_grid(inst)
        assert g is not None or grid.point_count() == 29**3
        best, argmins, count = _point_wise(inst, grid)
        res = t.brute_force_min(inst, grid)
        assert res.feasible_count == count
        shares.add("none" if count == 0 else "few" if count <= grid.point_count() / 16 else "many")
        if count == 0:
            assert res.empty
            continue
        assert np.float64(res.min_value.value).tobytes() == np.float64(best).tobytes()
        assert len(argmins) and np.array(res.argmins).tobytes() == argmins.tobytes()
        zero_q = t.ProblemInstance(sf, inst.p, t.tvector(sf, [sf.zero] * 3), inst.g, inst.h, inst.B)
        with pytest.raises(DomainError, match="conjugate of the all-zero vector"):
            t.brute_force_min(zero_q, grid)
    assert {"few", "many"} <= shares


@pytest.mark.parametrize("sf", SEMIFIELDS, ids=lambda sf: sf.tag)
def test_argmins_near_the_best_are_those_eq_accepts(sf, monkeypatch):
    # Values at eps, 2 eps and just beyond from the best, on the side where
    # the values lie (above it in the max semifields), in the semifield's
    # units.  Only the band's values reach sf.eq, and the argmins are the
    # values sf.eq accepts among all of them.
    from tropt.oracle import _near_best
    eps, best = 2.0**-20, 3.0  # every value below is exact
    side = -1.0 if sf.minimize else 1.0
    scale = best if sf.times else 1.0
    bound = best + side * 2 * eps * scale
    beyond = np.nextafter(bound, side * np.inf)
    vals = np.array([best + side * 4 * eps * scale, best, best + side * eps * scale / 2,
                     best + side * eps * scale, bound, beyond, best + side, best])
    seen = []
    eq = type(sf).eq

    def counting_eq(self, a, b, e=None):
        seen.append(np.size(a))
        return eq(self, a, b, e)

    monkeypatch.setattr(type(sf), "eq", counting_eq)
    hit = _near_best(vals, best, eps, sf)
    monkeypatch.undo()
    assert seen == [5]  # best twice, eps / 2, eps and 2 eps
    assert hit.tolist() == np.flatnonzero(sf.eq(vals, best, eps)).tolist()
    assert hit.tolist()[:3] == [1, 2, 3] and hit.tolist()[-1] == 7
    assert 4 not in hit.tolist()  # 2 eps away: in the band, but not equal


@pytest.mark.parametrize("sf", SEMIFIELDS, ids=lambda sf: sf.tag)
def test_argmins_near_the_best_match_eq_on_random_values(sf):
    # Tolerances from a few ulps up to 1/4, and eps = 0 and above 1/4 with
    # no band; values a few ulps, a fraction of eps and up to 3 eps from
    # the best, on its side.
    from tropt.oracle import _near_best
    rng = np.random.default_rng(72)
    side = -1.0 if sf.minimize else 1.0
    for eps in (0.0, 3e-16, 1e-12, 1e-9, 1e-3, 0.1, 0.25, 0.3, 0.6):
        for _ in range(20):
            best = float(rng.uniform(0.01, 100) if sf.times else rng.uniform(-100, 100))
            scale = best if sf.times else 1.0
            ulps = best + side * np.abs(best) * 2.0**-52 * rng.integers(0, 8, size=20)
            near = best + side * eps * scale * rng.uniform(0, 3, size=40)
            far = best + side * scale * rng.uniform(0, 0.9, size=20)
            vals = np.concatenate([ulps, near, far, [best]])
            rng.shuffle(vals)
            want = np.flatnonzero(sf.eq(vals, best, eps))
            assert _near_best(vals, best, eps, sf).tolist() == want.tolist(), eps
