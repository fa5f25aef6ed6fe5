"""Real-valued data in the plus semifields, and the cost shape of a solve.

On real data ``p - theta`` and ``q + theta`` round differently, so the two
ends of the solution box may cross by an ulp at the binding coordinate.
The default tolerance (absolute 1e-9) must absorb that in ``_finish`` and
``contains`` alike, and must never merge distinct integers, however large.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropt as t
from tropt import _kernels
from tropt.errors import TroptError

from conftest import as_instance, power_trace_loop, random_feasible_instance

PLUS = [t.MAX_PLUS, t.MIN_PLUS]


def _reals(lo, hi, n):
    value = st.floats(lo, hi, allow_nan=False).filter(lambda v: not v.is_integer())
    return st.lists(value, min_size=n, max_size=n).map(np.array)


@st.composite
def _real_instance(draw, sf):
    """Max-plus data with non-integer entries, negated for min-plus.

    Every entry of B is below zero, so every cycle is contractive, and
    g <= 0 <= h keeps the box compatible with B*: every instance is
    feasible.
    """
    n = draw(st.integers(1, 4))
    p, q = draw(_reals(-10, 10, n)), draw(_reals(-10, 10, n))
    g = draw(st.none() | _reals(-20, 0, n))
    h = draw(st.none() | _reals(0, 20, n))
    B = None
    if draw(st.booleans()):
        entries = draw(_reals(-15, -0.5, n * n)).reshape(n, n)
        absent = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        B = np.where(np.reshape(absent, (n, n)), -np.inf, entries)
    raw = dict(p=p, q=q, g=g, h=h, B=B)
    if sf.minimize:
        raw = {k: None if v is None else -v for k, v in raw.items()}
    return as_instance(sf, raw)


@pytest.mark.parametrize("sf", PLUS, ids=lambda sf: sf.tag)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_real_valued_ends_are_members(sf, data):
    inst = data.draw(_real_instance(sf))
    sol = t.solve_instance(inst)
    assert isinstance(sol, t.SolutionSet)
    assert t.contains(sol, inst, sol.x_lo)
    assert t.contains(sol, inst, sol.x_hi)


def test_real_valued_probe_2000():
    # max-plus, n = 2-3, p and q uniform in +-10, B uniform in [-15, -5]
    rng = np.random.default_rng(0)
    errors = rejected = 0
    for _ in range(2000):
        n = int(rng.integers(2, 4))
        p, q = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)
        inst = t.problem(t.MAX_PLUS, p, q, B=rng.uniform(-15, -5, (n, n)))
        try:
            sol = t.solve_instance(inst)
        except TroptError:
            errors += 1
            continue
        try:
            rejected += not (t.contains(sol, inst, sol.x_lo) and t.contains(sol, inst, sol.x_hi))
        except TroptError:
            rejected += 1
    assert (errors, rejected) == (0, 0)


@pytest.mark.parametrize("sf", PLUS, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("big", [2e9, 1e12, 2.0**52])
def test_large_integers_stay_distinct(sf, big):
    # The plus-semifield tolerance is absolute, so integers that differ by
    # one stay apart at any magnitude, and the default eps is that rule.
    s = -1.0 if sf.minimize else 1.0
    above, at = s * (big + 1), s * big
    assert not sf.leq(above, at)
    assert not sf.eq(above, at)
    assert sf.leq(above, at) == sf.leq(above, at, sf.default_eps)

    report = t.solve_box_constrained(
        t.tvector(sf, [0, 0]), t.tvector(sf, [0, 0]),
        t.tvector(sf, [above, at]), t.tvector(sf, [at, at]),
    )
    assert isinstance(report, t.InfeasibilityReport)
    assert report.reason is t.InfeasibleReason.BOUNDS_INCOMPATIBLE

    inst = t.problem(sf, [0, 0], [0, 0], g=[at, at], h=[s * (big + 2)] * 2)
    sol = t.solve_instance(inst)
    assert t.contains(sol, inst, sol.x_hi)
    assert not t.contains(sol, inst, t.tvector(sf, [s * (big + 3)] * 2))


@pytest.fixture
def counted(monkeypatch):
    """Record each elimination (shape, diverged), each product's operand
    shapes and each walk's heavy pivots and shape."""
    calls = {"closure": [], "matmul": [], "walk": []}
    closure, matmul, walk_trace = _kernels.closure, _kernels.matmul, _kernels.walk_trace

    def counting_closure(a, sf):
        out = closure(a, sf)
        calls["closure"].append((a.shape, out[0] is None))
        return out

    def counting_matmul(a, b, sf):
        calls["matmul"].append((a.shape, b.shape))
        return matmul(a, b, sf)

    def counting_walk_trace(a, heavy, sf):
        calls["walk"].append((list(heavy), a.shape))
        return walk_trace(a, heavy, sf)

    monkeypatch.setattr(_kernels, "closure", counting_closure)
    monkeypatch.setattr(_kernels, "matmul", counting_matmul)
    monkeypatch.setattr(_kernels, "walk_trace", counting_walk_trace)
    return calls


@pytest.mark.parametrize("n", [2, 6])
def test_feasible_solve_eliminates_once_without_square_products(n, counted):
    raw = random_feasible_instance(np.random.default_rng(n), n)
    inst = as_instance(t.MAX_PLUS, raw)
    sol = t.solve_general(inst.B, inst.p, inst.q, inst.g, inst.h)
    assert isinstance(sol, t.SolutionSet)
    assert counted["closure"] == [((n, n), False)]
    # Only the vector products of the closed form: the rows conj(q), conj(h)
    # times B*, the theta terms, the u_hi row times B*, and B* times the
    # u-box ends.  A shape test alone cannot rule out squaring at n = 2,
    # where a pair of stacked rows is itself 2x2; the exact list can.
    assert counted["matmul"] == [((2, n), (n, n)), ((2, n), (n, 2)), ((1, n), (n, n)), ((n, n), (n, 2))]


def _planted_cycle(n):
    """Integer max-plus B with edges in [-8, -1] and one planted 3-cycle of weight 1."""
    rng = np.random.default_rng(n)
    B = rng.integers(-8, 0, size=(n, n)).astype(float)
    cycle = rng.permutation(n)[:3]
    B[cycle, np.roll(cycle, -1)] = [1, 0, 0]
    return t.tmatrix(t.MAX_PLUS, B), cycle


@pytest.mark.parametrize("n, squarings", [(8, 2)])
def test_infeasible_solve_squares_to_half_the_exponent(n, squarings, counted, monkeypatch):
    # Below the crossover the detail Tr((I + B)^n) needs I + B squared only
    # up to the exponent n / 2, and its trace is read from the last square
    # without a product.
    B, _ = _planted_cycle(n)
    ref = power_trace_loop(B)
    counted["matmul"].clear()
    monkeypatch.setattr(t.TropicalMatrix, "star", lambda self: pytest.fail("star() called"))
    zero = t.tvector(t.MAX_PLUS, [0] * n)
    report = t.solve_general(B, zero, zero)
    assert report.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
    assert report.detail.value == ref
    assert counted["closure"] == [((n, n), True)]
    assert counted["matmul"] == [((n, n), (n, n))] * squarings


def test_infeasible_solve_walks_from_the_heavy_pivot(counted, monkeypatch):
    # At n = 64 the one heavy pivot, the cycle's highest node, takes n - 1
    # row steps V <- V (I + B) in place of five squarings of I + B.
    n = 64
    B, cycle = _planted_cycle(n)
    ref = power_trace_loop(B)
    assert _kernels.closure(B.data, B.sf)[1] == [max(cycle)]
    counted["closure"].clear()
    counted["matmul"].clear()
    monkeypatch.setattr(t.TropicalMatrix, "star", lambda self: pytest.fail("star() called"))
    zero = t.tvector(t.MAX_PLUS, [0] * n)
    report = t.solve_general(B, zero, zero)
    assert report.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
    assert report.detail.value == ref
    assert counted["closure"] == [((n, n), True)]
    assert counted["matmul"] == []
    assert counted["walk"] == [([max(cycle)], (n, n))]


def test_detail_walks_from_every_heavy_pivot(counted):
    # A 2-cycle of weight 1 at nodes 3 and 10 flags pivot 10 first.  A
    # heavier 2-cycle at nodes 20 and 40 (weight 3) avoids node 10 and
    # flags pivot 40.  The heaviest closed walk of length <= 64 goes round
    # the second cycle 32 times (96).  Through node 10 it can go round 31
    # times, by the edges 10 -> 20 and 20 -> 10 of weight -1 (91).
    n = 64
    rng = np.random.default_rng(65)
    B = rng.integers(-8, 0, size=(n, n)).astype(float)
    B[3, 10], B[10, 3] = 1, 0
    B[20, 40], B[40, 20] = 3, 0
    B[10, 20] = B[20, 10] = -1
    B = t.tmatrix(t.MAX_PLUS, B)
    assert _kernels.closure(B.data, B.sf)[1] == [10, 40]
    assert _kernels.walk_trace(B.data, [10], B.sf) == 91
    ref = power_trace_loop(B)
    assert ref == 96
    counted["matmul"].clear()
    counted["walk"].clear()
    zero = t.tvector(t.MAX_PLUS, [0] * n)
    report = t.solve_general(B, zero, zero)
    assert report.detail.value == ref
    assert counted["matmul"] == []
    assert counted["walk"] == [([10, 40], (n, n))]


def _walk_loop(a, starts):
    """power_trace_loop with the closed walks restricted to the given starts:
    row h of A^k = A^(k-1) A for each start h, summed left to right."""
    acc = a.sf.zero
    for h in starts:
        row = t.TropicalMatrix(a.sf, a.data[[h]])
        for _ in range(a.rows):
            acc = float(a.sf.add(acc, row[0, h]))
            row = row @ a
    return acc


@pytest.mark.parametrize("n", [48, 64, 96])
@pytest.mark.parametrize("sf", PLUS, ids=lambda sf: sf.tag)
def test_real_valued_detail_keeps_the_left_to_right_sums(sf, n):
    # Edges in [-10, -1] and one planted cycle of 2-5 real, non-dyadic
    # weights that sum to about 0.3.  Only the cycle's highest node is
    # heavy.  The detail is the loop's left-to-right sums over the closed
    # walks from that node, bit for bit.  The loop also takes the walks'
    # other rotations, which round differently, so against it the detail
    # holds only to rounding.
    s = -1.0 if sf.minimize else 1.0
    for seed in range(4):
        rng = np.random.default_rng([n, seed])
        B = -rng.uniform(1, 10, size=(n, n))
        cycle = rng.permutation(n)[: rng.integers(2, 6)]
        w = rng.uniform(-1, 1, cycle.size)
        B[cycle, np.roll(cycle, -1)] = w + (0.3 - w.sum()) / cycle.size
        a = t.tmatrix(sf, s * B)
        assert _kernels.closure(a.data, sf)[1] == [max(cycle)]
        ones = t.tvector(sf, [sf.one] * n)
        report = t.solve_general(a, ones, ones)
        assert report.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
        assert report.detail.value == _walk_loop(a, [max(cycle)])
        assert report.detail.value == pytest.approx(power_trace_loop(a), rel=1e-13, abs=0)


@pytest.mark.parametrize("sf", PLUS, ids=lambda sf: sf.tag)
def test_detail_under_a_relabelling_holds_to_rounding(sf):
    # Which pivot is heavy follows the order of the coordinates, and so
    # does the left-to-right sum of the walks from it: relabelling a
    # real-valued B moves the detail in its last ulps, within 1e-13
    # relative.  On multiples of 1/8 every sum is exact, and the detail
    # is the same.
    s = -1.0 if sf.minimize else 1.0
    n = 64
    for seed in range(6):
        rng = np.random.default_rng([seed, 5])
        B = -rng.uniform(1, 10, size=(n, n))
        cycle = rng.permutation(n)[: rng.integers(2, 6)]
        w = rng.uniform(-1, 1, cycle.size)
        perm = rng.permutation(n)
        exact = np.round(8 * B) / 8
        w8 = np.round(8 * w) / 8
        B[cycle, np.roll(cycle, -1)] = w + (0.3 - w.sum()) / cycle.size
        exact[cycle, np.roll(cycle, -1)] = w8 + np.eye(cycle.size)[0] * (0.375 - w8.sum())
        ones = t.tvector(sf, [sf.one] * n)
        details = [t.solve_general(t.tmatrix(sf, s * m), ones, ones).detail.value
                   for m in (B, B[np.ix_(perm, perm)], exact, exact[np.ix_(perm, perm)])]
        assert details[1] == pytest.approx(details[0], rel=1e-13, abs=0)
        assert details[3] == details[2]


def test_divergent_star_spends_no_product_on_the_identity(counted):
    # (I + A)^7 from the bits 1, 2 and 4 of the exponent: two squarings and
    # two multiplies, none of them by the identity.
    diag = np.eye(8) == 1
    a = t.tmatrix(t.MAX_PLUS, np.where(diag, 1.0, -np.inf))
    assert a.star() == t.tmatrix(t.MAX_PLUS, np.where(diag, 7.0, -np.inf))
    assert counted["closure"] == [((8, 8), True)]
    assert len(counted["matmul"]) == 4
