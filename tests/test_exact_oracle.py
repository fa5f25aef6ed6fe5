"""The exact oracle (``exact_min``) against the solver, an LP solver and
the algebra's own symmetries."""

import time

import numpy as np
import pytest

import tropt as t
import tropt._kernels
import tropt.solve
from tropt.errors import DomainError

PLUS = [t.MAX_PLUS, t.MIN_PLUS]
KINDS = ("feasible", "cycle", "bounds")


def _raw(rng, n, kind, lattice=1.0, density=0.7, parts=(True, True, True)):
    """Max-plus data on the multiples of ``lattice``, feasible at a planted x
    unless ``kind`` plants a cycle above one or a g_j above h_j.

    ``parts`` says which of B, g and h are present; a planted defect
    brings the parts it needs.
    """
    step = lambda lo, hi, size=None: rng.integers(lo, hi + 1, size) * float(lattice)
    x = step(-20, 20, n)
    with_B, with_g, with_h = parts
    B = g = h = None
    if with_B or kind == "cycle":
        B = np.subtract.outer(x, x) - step(0, 20, (n, n))
        B[rng.random((n, n)) > density] = -np.inf
    if with_g or kind == "bounds":
        g = x - step(0, 6, n)
        g[rng.random(n) < 0.2] = -np.inf
    if with_h or kind == "bounds":
        h = x + step(0, 6, n)
    if kind == "cycle":
        c = rng.permutation(n)[: rng.integers(1, min(n, 3) + 1)]
        B[c, np.roll(c, -1)] = x[c] - x[np.roll(c, -1)]
        B[c[0], c[1 % c.size]] += lattice
    elif kind == "bounds":
        j = rng.integers(n)
        g[j] = h[j] + lattice
    p, q = step(-20, 20, n), step(-20, 20, n)
    return dict(p=p, q=q, g=g, h=h, B=B)


def _instance(sf, raw):
    """The max-plus data ``raw`` as an instance over sf, negated for min-plus."""
    s = -1.0 if sf.minimize else 1.0
    part = lambda v: None if v is None else s * v
    return t.problem(sf, s * raw["p"], s * raw["q"], g=part(raw["g"]), h=part(raw["h"]),
                     B=part(raw["B"]))


def _ends(res):
    """theta and the two ends of a SolutionSet or an exact_min result; None if infeasible."""
    if isinstance(res, t.InfeasibilityReport) or getattr(res, "empty", False):
        return None
    if isinstance(res, t.SolutionSet):
        return res.theta, res.x_lo.column_values(), res.x_hi.column_values()
    return res.min_value, res.argmins[0], res.argmins[1]


def _same(a, b):
    if a is None or b is None:
        return a is b
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


def _cases():
    """480 seeded instances: n = 1-64 on the lattices 1, 1/2, 1/4 and 1/256,
    plus closure-large's dense shapes, n = 48, 64 and 96."""
    rng = np.random.default_rng(2211)
    for k in range(468):
        n = int(rng.choice([1, 2, 3, 4, 5, 8, 13, 16, 24, 32, 48, 64]))
        parts = tuple(bool(b) for b in rng.random(3) < 0.7)
        yield PLUS[k % 2], _raw(rng, n, KINDS[k % 3], (1, 0.5, 0.25, 2**-8)[k // 2 % 4],
                                float(rng.uniform(0.1, 1)), parts)
    for n in (48, 64, 96):
        for k, sf in enumerate(PLUS * 2):
            yield sf, _raw(rng, n, ("feasible", "cycle")[k // 2], 1.0, 1.0)


def test_exact_min_agrees_with_the_solver():
    verdicts = {"optimal": 0, "TrExceedsOne": 0, "BoundsIncompatible": 0}
    for sf, raw in _cases():
        inst = _instance(sf, raw)
        sol = t.solve_instance(inst)
        assert _same(_ends(t.exact_min(inst)), _ends(sol)), (sf, raw)
        verdicts[sol.reason.value if isinstance(sol, t.InfeasibilityReport) else "optimal"] += 1
    assert sum(verdicts.values()) >= 400
    assert min(verdicts.values()) >= 100, verdicts


def test_exact_min_at_n_256_takes_under_half_a_second():
    rng = np.random.default_rng(256)
    inst = _instance(t.MAX_PLUS, _raw(rng, 256, "feasible", 0.25, 1.0))
    start = time.perf_counter()
    res = t.exact_min(inst)
    assert time.perf_counter() - start < 0.5
    assert _same(_ends(res), _ends(t.solve_instance(inst)))


def test_exact_min_shares_no_formula_with_the_solver(monkeypatch):
    rng = np.random.default_rng(8)
    cases = [_instance(t.MAX_PLUS, _raw(rng, 8, kind)) for kind in ("feasible", "cycle")]
    want = [_ends(t.solve_instance(inst)) for inst in cases]
    assert want[0] is not None and want[1] is None

    def refuse(*args, **kwargs):
        raise AssertionError("the exact oracle called the solver's algebra")

    monkeypatch.setattr(tropt._kernels, "matmul", refuse)
    monkeypatch.setattr(tropt._kernels, "closure", refuse)
    monkeypatch.setattr(t.TropicalMatrix, "__matmul__", refuse)
    monkeypatch.setattr(tropt.solve, "_solve", refuse)
    for inst, ends in zip(cases, want):
        assert _same(_ends(t.exact_min(inst)), ends)


def test_exact_min_matches_an_lp_solver():
    # The max-plus problem is the LP: minimize t subject to p_i - x_i <= t,
    # x_i - q_i <= t, x_j - x_i <= -b_ij and g <= x <= h.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(1311)
    for k in range(50):
        n = int(rng.integers(2, 33))
        real = lambda lo, hi, size=None: np.round(rng.uniform(lo, hi, size) * 2**30) / 2**30
        x = real(-10, 10, n)
        B = np.subtract.outer(x, x) - real(0, 10, (n, n))
        B[rng.random((n, n)) < 0.6] = -np.inf
        g = np.where(rng.random(n) < 0.3, -np.inf, x - real(0, 3, n))
        h = x + real(0, 3, n)
        p, q = real(-10, 10, n), real(-10, 10, n)
        res = t.exact_min(t.problem(t.MAX_PLUS, p, q, g=g, h=h, B=B))
        rows, rhs = [], []
        for i in range(n):
            rows += [np.eye(n + 1)[i] * -1 - np.eye(n + 1)[n], np.eye(n + 1)[i] - np.eye(n + 1)[n]]
            rhs += [-p[i], q[i]]
        for i, j in zip(*np.nonzero(np.isfinite(B))):
            if i != j:
                rows.append(np.eye(n + 1)[j] - np.eye(n + 1)[i])
                rhs.append(-B[i, j])
        bounds = [(None if gi == -np.inf else gi, hi) for gi, hi in zip(g, h)] + [(None, None)]
        lp = linprog(np.eye(n + 1)[n], A_ub=np.array(rows), b_ub=rhs, bounds=bounds,
                     method="highs")
        assert lp.status == 0, (k, lp.message)
        theta = res.min_value.value
        assert abs(lp.fun - theta) <= 1e-7 * max(1.0, abs(theta)), (k, lp.fun, theta)


def test_exact_min_refuses_what_it_cannot_answer_exactly():
    with pytest.raises(DomainError, match="max-plus and min-plus"):
        t.exact_min(t.problem(t.MAX_TIMES, [4], [0.25]))
    for p in ([0.1, 0.2], [1e300, 0]):  # scaled to integers, both pass 2^53
        with pytest.raises(DomainError, match="too wide"):
            t.exact_min(t.problem(t.MAX_PLUS, p, [0, 0.3]))


# ---------------------------------------------------------------------------
# metamorphic relations: each is exact in the algebra, so on integer data
# both the solver and exact_min must keep it under ==.  On real data the
# TrExceedsOne detail keeps the permutation relation only to rounding:
# test_numerics.py::test_detail_under_a_relabelling_holds_to_rounding.
# ---------------------------------------------------------------------------


def _both(inst):
    return _ends(t.solve_instance(inst)), _ends(t.exact_min(inst))


def _metamorphic_cases():
    rng = np.random.default_rng(7)
    for k in range(36):
        n = int(rng.choice([2, 3, 5, 8, 16, 33, 64]))
        yield rng, _raw(rng, n, KINDS[k % 3], 1.0, float(rng.uniform(0.2, 1)))


@pytest.mark.parametrize("sf", PLUS, ids=lambda sf: sf.tag)
def test_permuting_the_coordinates_permutes_the_ends(sf):
    for rng, raw in _metamorphic_cases():
        perm = rng.permutation(len(raw["p"]))
        moved = {k: None if v is None else v[np.ix_(perm, perm)] if v.ndim == 2 else v[perm]
                 for k, v in raw.items()}
        inst, other = _instance(sf, raw), _instance(sf, moved)
        for mine, theirs in zip(_both(inst), _both(other)):
            want = None if mine is None else (mine[0], mine[1][perm], mine[2][perm])
            assert _same(theirs, want)
        sol, sol_moved = t.solve_instance(inst), t.solve_instance(other)
        if isinstance(sol, t.InfeasibilityReport):
            assert sol_moved == sol


def test_negation_maps_max_plus_to_min_plus():
    for _, raw in _metamorphic_cases():
        mine = _both(_instance(t.MAX_PLUS, raw))
        theirs = _both(_instance(t.MIN_PLUS, raw))
        for a, b in zip(mine, theirs):
            want = None if a is None else (t.MIN_PLUS.scalar(-a[0].value), -a[1], -a[2])
            assert _same(b, want)


@pytest.mark.parametrize("sf", PLUS, ids=lambda sf: sf.tag)
def test_shifting_p_up_and_q_down_shifts_theta(sf):
    for rng, raw in _metamorphic_cases():
        c = float(rng.integers(-9, 10))
        shifted = dict(raw, p=raw["p"] + c, q=raw["q"] - c)
        s = -1.0 if sf.minimize else 1.0
        for a, b in zip(_both(_instance(sf, raw)), _both(_instance(sf, shifted))):
            want = None if a is None else (sf.scalar(a[0].value + s * c), a[1], a[2])
            assert _same(b, want)
