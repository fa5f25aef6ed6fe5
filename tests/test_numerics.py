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
    """Record each elimination (shape, diverged) and each product's operand shapes."""
    calls = {"closure": [], "matmul": []}
    closure, matmul = _kernels.closure, _kernels.matmul

    def counting_closure(a, sf):
        out = closure(a, sf)
        calls["closure"].append((a.shape, out is None))
        return out

    def counting_matmul(a, b, sf):
        calls["matmul"].append((a.shape, b.shape))
        return matmul(a, b, sf)

    monkeypatch.setattr(_kernels, "closure", counting_closure)
    monkeypatch.setattr(_kernels, "matmul", counting_matmul)
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


@pytest.mark.parametrize("n, squarings", [(8, 2), (64, 5)])
def test_infeasible_solve_squares_to_half_the_exponent(n, squarings, counted, monkeypatch):
    # One planted cycle above one among edges that all weigh less than one.
    # The detail Tr((I + B)^n) needs I + B squared only up to the exponent
    # n / 2, and its trace is read from the last square without a product.
    rng = np.random.default_rng(n)
    B = rng.integers(-8, 0, size=(n, n)).astype(float)
    cycle = rng.permutation(n)[:3]
    B[cycle, np.roll(cycle, -1)] = [1, 0, 0]
    B = t.tmatrix(t.MAX_PLUS, B)
    ref = power_trace_loop(B)
    counted["matmul"].clear()
    monkeypatch.setattr(t.TropicalMatrix, "star", lambda self: pytest.fail("star() called"))
    zero = t.tvector(t.MAX_PLUS, [0] * n)
    report = t.solve_general(B, zero, zero)
    assert report.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
    assert report.detail.value == ref
    assert counted["closure"] == [((n, n), True)]
    assert counted["matmul"] == [((n, n), (n, n))] * squarings


def test_divergent_star_spends_no_product_on_the_identity(counted):
    # (I + A)^7 from the bits 1, 2 and 4 of the exponent: two squarings and
    # two multiplies, none of them by the identity.
    diag = np.eye(8) == 1
    a = t.tmatrix(t.MAX_PLUS, np.where(diag, 1.0, -np.inf))
    assert a.star() == t.tmatrix(t.MAX_PLUS, np.where(diag, 7.0, -np.inf))
    assert counted["closure"] == [((8, 8), True)]
    assert len(counted["matmul"]) == 4
