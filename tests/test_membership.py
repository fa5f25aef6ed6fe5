"""``contains`` and ``objective`` must give the verdicts and bits of their vector forms.

``contains_vector`` and ``objective_vector`` below are the one-point forms
that ``contains`` and ``objective`` replaced, kept as the reference: they
test one column vector through the ``TropicalMatrix`` operations, with the
direct test short-circuiting after its first failure.  ``contains`` runs
each test once over all columns of an n x k matrix; every column must get
the verdict, or the exception, that the reference gives it alone.
"""

import numpy as np
import pytest

import tropt as t
from tropt.errors import DimensionError, DomainError, TroptError
from tropt.solve import _objectives

from conftest import instance, planted, to_sf

SEMIFIELDS = [t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES]


def objective_vector(p, q, x):
    if not x.is_regular():
        raise DomainError("objective requires a regular x")
    a = (x.conj() @ p).as_scalar()
    b = (q.conj() @ x).as_scalar()
    return a + b


def contains_vector(sol, inst, x, eps=None):
    if x.rows != inst.n or not x.is_column:
        raise DimensionError(f"x must be a column vector of length {inst.n}")
    direct = True
    if inst.B is not None and not (inst.B @ x).leq(x, eps):
        direct = False
    if direct and inst.g is not None and not inst.g.leq(x, eps):
        direct = False
    if direct and inst.h is not None and not x.leq(inst.h, eps):
        direct = False
    if direct and not objective_vector(inst.p, inst.q, x).eq(sol.theta, eps):
        direct = False
    parametric = (
        (sol.generator @ x).eq(x, eps)
        and sol.u_lo.leq(x, eps)
        and x.leq(sol.u_hi, eps)
    )
    if direct != parametric:
        raise TroptError(f"membership tests disagree: direct={direct} parametric={parametric}")
    return direct


def failed_tests(sol, inst, x):
    """The direct tests and the parametric tests that x fails, each test run on its own."""
    direct = {
        "B": lambda: inst.B is None or (inst.B @ x).leq(x),
        "g": lambda: inst.g is None or inst.g.leq(x),
        "h": lambda: inst.h is None or x.leq(inst.h),
        "objective": lambda: objective_vector(inst.p, inst.q, x).eq(sol.theta),
    }
    parametric = {
        "fixed": lambda: (sol.generator @ x).eq(x),
        "u_lo": lambda: sol.u_lo.leq(x),
        "u_hi": lambda: x.leq(sol.u_hi),
    }
    return ({name for name, ok in direct.items() if not ok()},
            {name for name, ok in parametric.items() if not ok()})


def outcome(fn, *args):
    """The verdict of fn, or the type of the exception it raises."""
    try:
        return bool(fn(*args))
    except TroptError as exc:
        return type(exc)


def nudge(sf, value, delta):
    """value moved by delta up in sf's order: absolute in plus semifields, relative in times."""
    up = -delta if sf.minimize else delta
    return value * (1 + up) if sf.times else value + up


def oracle_argmins(raw):
    """Argmins of the integer grid over [g, h], in max-plus values; with a box only."""
    if raw["g"] is None:
        return []
    inst = instance(t.MAX_PLUS, raw)
    res = t.brute_force_min(inst, t.GridSpec(raw["g"], raw["h"], 1.0))
    return [np.asarray(a) for a in res.argmins]


def candidate_points(rng, sf, sol, raw):
    """Points to test, by kind: box ends and oracle argmins, one-coordinate moves of
    them, and the ends moved by less and by more than the default tolerance 1e-9."""
    n = len(raw["p"])
    ends = [sol.x_lo.data[:, 0], sol.x_hi.data[:, 0]]
    base = ends + [to_sf(sf, a) for a in oracle_argmins(raw)[:2]]

    def moved(x, delta):
        i = int(rng.integers(n))
        out = x.copy()
        out[i] = nudge(sf, out[i], delta)
        return out

    points = {
        "base": base,
        "moved": [moved(base[int(rng.integers(len(base)))],
                        float(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))) for _ in range(3)],
        "near": [moved(x, float(rng.choice([-2e-9, -0.5e-9, 0.5e-9, 2e-9]))) for x in ends],
    }
    valid = lambda x: np.isfinite(x).all() and (not sf.times or (x > 0).all())
    return {kind: [x for x in xs if valid(x)] for kind, xs in points.items()}


def equivalence_cases():
    """(sf, inst, sol, points by kind) over seeded feasible instances: 4 semifields, n = 1 to 6."""
    rng = np.random.default_rng(71)
    cases = []
    for k in range(260):
        n = 1 + k % 6
        raw = planted(rng, n, parts=("B" if k % 5 else "") + ("gh" if k % 3 else ""))
        for sf in SEMIFIELDS:
            inst = instance(sf, raw)
            sol = t.solve_instance(inst)
            if isinstance(sol, t.SolutionSet):
                cases.append((sf, inst, sol, candidate_points(rng, sf, sol, raw)))
    return cases


@pytest.fixture(scope="module")
def cases():
    return equivalence_cases()


def column(sf, x):
    return t.TropicalMatrix(sf, x.reshape(-1, 1))


def test_instances_and_moved_points_cover_every_test(cases):
    assert len(cases) >= 1000
    assert {c[1].n for c in cases} == {1, 2, 3, 4, 5, 6}
    assert {c[0] for c in cases} == set(SEMIFIELDS)
    alone = set()  # tests that reject a point which the other tests of their kind pass
    for sf, inst, sol, points in cases:
        for x in points["moved"]:
            for failed in failed_tests(sol, inst, column(sf, x)):
                if len(failed) == 1:
                    alone |= failed
    assert alone >= {"B", "g", "h", "objective"} and alone & {"fixed", "u_lo", "u_hi"}


def test_each_column_gets_its_vector_verdict(cases):
    within = outside = 0  # near points that only the tolerance admits, and that it rejects
    for sf, inst, sol, points in cases:
        xs = [x for kind in points.values() for x in kind]
        near = slice(len(xs) - len(points["near"]), None)
        verdicts = {}
        for eps in (None, 0.0):
            verdicts[eps] = [outcome(contains_vector, sol, inst, column(sf, x), eps) for x in xs]
            for x, want in zip(xs, verdicts[eps]):
                assert outcome(t.contains, sol, inst, column(sf, x), eps) == want, (inst, x, eps)
            # no point here raises (the raising cases are tested below), so
            # a call on all the columns, or on the members only, is their `all`
            assert all(isinstance(v, bool) for v in verdicts[eps])
            assert t.contains(sol, inst, t.TropicalMatrix(sf, np.stack(xs, 1)), eps) == all(
                verdicts[eps]
            )
            members = [x for x, v in zip(xs, verdicts[eps]) if v]
            if members:
                assert t.contains(sol, inst, t.TropicalMatrix(sf, np.stack(members, 1)), eps)
        for tol, exact in zip(verdicts[None][near], verdicts[0.0][near]):
            within += tol is True and exact is not True
            outside += tol is False
    assert within > 0 and outside > 0


def test_objective_keeps_the_vector_bits(cases):
    checked = 0
    for sf, inst, sol, points in cases:
        for x in (x for kind in points.values() for x in kind):
            want = objective_vector(inst.p, inst.q, column(sf, x))
            got = t.objective(inst.p, inst.q, column(sf, x))
            assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
            checked += 1
    assert checked > 5_000


@pytest.mark.parametrize("sf", SEMIFIELDS, ids=lambda sf: sf.tag)
def test_multi_column_objective_keeps_the_vector_bits(sf):
    # The objective that contains evaluates once over k columns, against
    # objective_vector on each column alone, by bytes.  In max-plus terms
    # x is a signed zero, p at most 0 and q at least 0, so that both terms
    # mostly peak at 0, where in the plus semifields -0.0 and +0.0 tie; p
    # and q hold zeros; and n reaches 33, where numpy reduces a contiguous
    # row in an order of its own.
    rng = np.random.default_rng(79)
    checked = 0
    for n in (1, 2, 3, 4, 9, 17, 33):
        for _ in range(20):
            k = int(rng.integers(2, 7))
            xs = to_sf(sf, rng.choice([0.0, -0.0], size=(n, k)))
            p = to_sf(sf, rng.choice([0.0, -0.0, -1.0], size=n))
            q = to_sf(sf, rng.choice([0.0, -0.0, 1.0], size=n))
            p[rng.random(n) < 0.2] = sf.zero
            q[rng.random(n) < 0.2] = sf.zero
            q[int(rng.integers(n))] = sf.one  # q is not all zero
            got = _objectives(sf, p[:, None], q[:, None], xs)
            for j in range(k):
                want = objective_vector(t.tvector(sf, p), t.tvector(sf, q), column(sf, xs[:, j]))
                assert np.float64(got[j]).tobytes() == np.float64(want.value).tobytes()
                checked += 1
    assert checked > 400


def test_wrong_row_count_raises(worked, mp):
    inst = t.ProblemInstance(mp, worked["p"], worked["q"])
    sol = t.solve_instance(inst)
    with pytest.raises(DimensionError):
        t.contains(sol, inst, t.tvector(mp, [1, 2, 3]))
    with pytest.raises(DimensionError):
        t.contains(sol, inst, t.tmatrix(mp, [[1, 2, 3]]))
    with pytest.raises(DimensionError):
        t.objective(worked["p"], worked["q"], t.tmatrix(mp, [[1, 2], [3, 4]]))


def test_non_regular_column_raises_only_past_the_constraints(worked, mp):
    free = t.ProblemInstance(mp, worked["p"], worked["q"])
    sol = t.solve_instance(free)
    members = np.concatenate([sol.x_lo.data, sol.x_hi.data], axis=1)
    zero_col = np.array([[mp.zero], [0.0]])
    with pytest.raises(DomainError):  # no constraint stops it before the objective
        t.contains(sol, free, t.TropicalMatrix(mp, np.concatenate([members, zero_col], 1)))
    # g rejects the zero component first, as in the vector form
    boxed = t.ProblemInstance(mp, worked["p"], worked["q"], g=worked["g"], h=worked["h"])
    bsol = t.solve_instance(boxed)
    x = t.TropicalMatrix(mp, zero_col)
    assert contains_vector(bsol, boxed, x) is False
    assert t.contains(bsol, boxed, x) is False


def test_times_overflow_raises():
    sf = t.MAX_TIMES
    inst = t.problem(sf, [2.0], [0.5])
    sol = t.solve_instance(inst)
    x = t.tvector(sf, [5e-324])  # 1 / x overflows to +inf, outside the max-times carrier
    with np.errstate(over="ignore"):
        assert outcome(contains_vector, sol, inst, x) is DomainError
        assert outcome(t.contains, sol, inst, x) is DomainError
        assert outcome(t.objective, inst.p, inst.q, x) is DomainError


def test_disagreement_names_the_first_column(worked, mp):
    inst = t.ProblemInstance(mp, worked["p"], worked["q"])
    sol = t.solve_unconstrained(worked["p"], worked["q"])
    bad = t.SolutionSet(sol.theta, sol.generator, sol.u_hi, sol.u_hi, sol.x_hi, sol.x_hi)
    assert outcome(contains_vector, bad, inst, sol.x_lo) is TroptError
    both = t.TropicalMatrix(mp, np.concatenate([sol.x_hi.data, sol.x_lo.data], axis=1))
    with pytest.raises(TroptError, match=r"at column 1, x=\[\[-6\.0\], \[5\.0\]\]"):
        t.contains(bad, inst, both)
