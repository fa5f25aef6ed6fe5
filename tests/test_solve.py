import collections
import math

import numpy as np
import pytest

import tropt as t
from tropt import _kernels
from tropt.errors import DomainError, TroptError
from tropt.linalg import TropicalMatrix
from tropt.semifield import Semifield

from conftest import MIXED_B_MAX_N, as_instance, random_feasible_instance, theta_forms_agree


class TestUnconstrained:
    def test_golden_2d(self, worked, mp):
        sol = t.solve_unconstrained(worked["p"], worked["q"])
        assert sol.theta == mp.scalar(9)
        assert sol.x_lo.tolist() == [[-6], [5]]
        assert sol.x_hi.tolist() == [[-3], [5]]
        assert sol.generator == t.identity(mp, 2)

    def test_golden_1d(self, mp):
        p = t.tvector(mp, [1])
        q = t.tvector(mp, [-3])
        sol = t.solve_unconstrained(p, q)
        assert sol.theta == mp.scalar(2)
        # unique optimizer: the box degenerates to a point
        assert sol.x_lo == sol.x_hi == t.tvector(mp, [-1])

    def test_ends_attain_theta(self, worked):
        sol = t.solve_unconstrained(worked["p"], worked["q"])
        for x in (sol.x_lo, sol.x_hi):
            assert t.objective(worked["p"], worked["q"], x) == sol.theta

    def test_rejects_irregular(self, mp):
        bad = t.tvector(mp, [1, mp.zero])
        good = t.tvector(mp, [0, 0])
        with pytest.raises(DomainError):
            t.solve_unconstrained(bad, good)
        with pytest.raises(DomainError):
            t.solve_unconstrained(good, bad)


class TestBoxConstrained:
    def test_golden(self, worked, mp):
        sol = t.solve_box_constrained(worked["p"], worked["q"], worked["g"], worked["h"])
        assert sol.theta == mp.scalar(14)
        assert sol.x_lo.tolist() == [[2], [0]]
        assert sol.x_hi.tolist() == [[2], [8]]

    def test_box_tightens_the_optimum(self, worked, mp):
        # the unconstrained optimum 9 is infeasible for the box, so the
        # constrained value must be strictly worse
        free = t.solve_unconstrained(worked["p"], worked["q"])
        boxed = t.solve_box_constrained(worked["p"], worked["q"], worked["g"], worked["h"])
        assert free.theta <= boxed.theta and free.theta != boxed.theta

    def test_incompatible_bounds(self, mp):
        p = t.tvector(mp, [0, 0])
        q = t.tvector(mp, [0, 0])
        g = t.tvector(mp, [3, 0])
        h = t.tvector(mp, [1, 5])
        rep = t.solve_box_constrained(p, q, g, h)
        assert isinstance(rep, t.InfeasibilityReport)
        assert rep.reason is t.InfeasibleReason.BOUNDS_INCOMPATIBLE
        assert rep.detail == mp.scalar(2)  # g exceeds h by 2 in the first slot


class TestLinearConstrained:
    def test_golden(self, worked, mp):
        B = t.tmatrix(mp, [[0, -4], [-8, 3]])
        sol = t.solve_linear_constrained(B, worked["p"], worked["q"])
        assert isinstance(sol, t.InfeasibilityReport)  # trace 3 breaks the cycle condition
        assert sol.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
        assert sol.detail == mp.scalar(6)  # the 3-loop traversed twice

        sol = t.solve_linear_constrained(worked["B"], worked["p"], worked["q"])
        assert sol.theta == mp.scalar(11)
        assert sol.generator.tolist() == [[0, -4], [-8, 0]]
        assert sol.u_lo.tolist() == [[-8], [3]]
        assert sol.u_hi.tolist() == [[-1], [3]]
        # every generated point coincides: the optimizer is unique
        assert sol.x_lo == sol.x_hi == t.tvector(mp, [-1, 3])

    def test_positive_cycle_infeasible(self, mp):
        B = t.tmatrix(mp, [[-1, 3], [-1, -2]])
        rep = t.solve_linear_constrained(B, t.tvector(mp, [0, 0]), t.tvector(mp, [0, 0]))
        assert isinstance(rep, t.InfeasibilityReport)
        assert rep.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
        assert rep.detail == mp.scalar(2)


class TestGeneral:
    def test_golden(self, worked, mp):
        sol = t.solve_general(worked["B"], worked["p"], worked["q"], worked["g"], worked["h"])
        assert sol.theta == mp.scalar(14)
        assert sol.generator.tolist() == [[0, -4], [-8, 0]]
        assert sol.u_lo.tolist() == [[2], [0]]
        assert sol.u_hi.tolist() == [[2], [6]]
        assert sol.x_lo.tolist() == [[2], [0]]
        assert sol.x_hi.tolist() == [[2], [6]]

    def test_box_infeasible_through_closure(self, worked, mp):
        g = t.tvector(mp, [5, 5])
        h = t.tvector(mp, [0, 0])
        rep = t.solve_general(worked["B"], worked["p"], worked["q"], g, h)
        assert isinstance(rep, t.InfeasibilityReport)
        assert rep.reason is t.InfeasibleReason.BOUNDS_INCOMPATIBLE
        assert rep.detail == mp.scalar(5)

    def test_solve_instance_matches(self, worked, mp):
        inst = t.ProblemInstance(
            mp, worked["p"], worked["q"], g=worked["g"], h=worked["h"], B=worked["B"]
        )
        sol = t.solve_instance(inst)
        direct = t.solve_general(worked["B"], worked["p"], worked["q"], worked["g"], worked["h"])
        assert sol.theta == direct.theta and sol.u_lo == direct.u_lo and sol.u_hi == direct.u_hi


class TestSpecialization:
    """The general solver must reproduce each special case exactly."""

    def test_reduces_to_unconstrained(self, mp):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            raw = random_feasible_instance(rng, n, with_box=False)
            p = t.tvector(mp, raw["p"])
            q = t.tvector(mp, raw["q"])
            a = t.solve_unconstrained(p, q)
            b = t.solve_general(None, p, q)
            assert a.theta == b.theta and a.u_lo == b.u_lo and a.u_hi == b.u_hi

    def test_reduces_to_linear(self, mp):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            raw = random_feasible_instance(rng, n, with_box=False)
            B = t.tmatrix(mp, raw["B"])
            p = t.tvector(mp, raw["p"])
            q = t.tvector(mp, raw["q"])
            a = t.solve_linear_constrained(B, p, q)
            b = t.solve_general(B, p, q)
            assert a.theta == b.theta and a.u_lo == b.u_lo and a.u_hi == b.u_hi
            assert a.generator == b.generator

    def test_reduces_to_box(self, mp):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            raw = random_feasible_instance(rng, n)
            p = t.tvector(mp, raw["p"])
            q = t.tvector(mp, raw["q"])
            g = t.tvector(mp, raw["g"])
            h = t.tvector(mp, raw["h"])
            a = t.solve_box_constrained(p, q, g, h)
            b = t.solve_general(None, p, q, g, h)
            assert a.theta == b.theta and a.u_lo == b.u_lo and a.u_hi == b.u_hi


class TestMembership:
    def test_golden_points(self, worked, mp):
        inst = t.ProblemInstance(
            mp, worked["p"], worked["q"], g=worked["g"], h=worked["h"], B=worked["B"]
        )
        sol = t.solve_instance(inst)
        assert t.contains(sol, inst, t.tvector(mp, [2, 0]))
        assert t.contains(sol, inst, t.tvector(mp, [2, 3]))
        assert t.contains(sol, inst, t.tvector(mp, [2, 6]))
        assert not t.contains(sol, inst, t.tvector(mp, [2, 7]))
        assert not t.contains(sol, inst, t.tvector(mp, [6, 8]))
        assert not t.contains(sol, inst, t.tvector(mp, [3, 0]))

    @pytest.mark.parametrize("x, rejected_by", [([6, 8], "objective"), ([1, 0], "g")])
    def test_rejects_on_one_test_alone(self, worked, mp, x, rejected_by):
        inst = t.ProblemInstance(
            mp, worked["p"], worked["q"], g=worked["g"], h=worked["h"], B=worked["B"]
        )
        sol = t.solve_instance(inst)
        x = t.tvector(mp, x)
        passed = {
            "B": bool((inst.B @ x).leq(x)),
            "g": bool(inst.g.leq(x)),
            "h": bool(x.leq(inst.h)),
            "objective": t.objective(inst.p, inst.q, x) == sol.theta,
        }
        assert [k for k, ok in passed.items() if not ok] == [rejected_by]
        assert not t.contains(sol, inst, x)

    def test_box_ends_always_members(self, mp):
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            raw = random_feasible_instance(rng, n, mixed_B=True)
            inst = as_instance(mp, raw)
            sol = t.solve_instance(inst)
            assert isinstance(sol, t.SolutionSet)
            assert t.contains(sol, inst, sol.x_lo)
            assert t.contains(sol, inst, sol.x_hi)


class TestThetaForms:
    def test_worked(self, worked):
        assert theta_forms_agree(worked["B"], worked["p"], worked["q"])

    def test_random(self, mp):
        rng = np.random.default_rng(35)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            raw = random_feasible_instance(rng, n, with_box=False)
            B = t.tmatrix(mp, raw["B"])
            p = t.tvector(mp, raw["p"])
            q = t.tvector(mp, raw["q"])
            assert theta_forms_agree(B, p, q)

    def test_rejects_infeasible(self, mp):
        B = t.tmatrix(mp, [[1]])
        v = t.tvector(mp, [0])
        with pytest.raises(DomainError):
            theta_forms_agree(B, v, v)


def _translate(raw, sf, *, pow2=False):
    """Map a max-plus instance onto another semifield, order-faithfully.

    The times semifields get exp(+-a/8), or 2**(+-a) with ``pow2``, which
    keeps integer data exact.
    """
    if sf is t.MAX_PLUS:
        conv = lambda a: a
    elif sf is t.MIN_PLUS:
        conv = lambda a: -np.asarray(a, dtype=float)
    elif sf is t.MAX_TIMES:
        conv = lambda a: np.exp2(a) if pow2 else np.exp(np.asarray(a, dtype=float) / 8)
    else:
        conv = lambda a: (np.exp2(-np.asarray(a, dtype=float)) if pow2
                          else np.exp(-np.asarray(a, dtype=float) / 8))
    out = {k: None if v is None else conv(v) for k, v in raw.items()}
    return as_instance(sf, out)


def _back(sf, value):
    if sf is t.MAX_PLUS:
        return value
    if sf is t.MIN_PLUS:
        return -value
    if sf is t.MAX_TIMES:
        return 8 * math.log(value)
    return -8 * math.log(value)


class TestCrossSemifield:
    def test_same_instance_all_semifields(self):
        # the same ordered data must yield the same optimum in every encoding
        rng = np.random.default_rng(36)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            raw = random_feasible_instance(rng, n, mixed_B=(n > 1))
            ref = None
            for sf in (t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES):
                sol = t.solve_instance(_translate(raw, sf))
                assert isinstance(sol, t.SolutionSet)
                theta = _back(sf, sol.theta.value)
                if ref is None:
                    ref = theta
                else:
                    assert math.isclose(theta, ref, rel_tol=1e-9, abs_tol=1e-9)


def _exp_draw(rng, n, kind):
    """Integer max-plus data, feasible unless ``kind`` plants a cycle above one or crosses a bound.

    B's entries lie in [-10, -1], some absent, so every cycle of it is
    negative until one is planted; g <= 0 <= h keeps conj(h) B* g at most
    one until g_i is raised above h_i.
    """
    B = None
    if kind == "cycle" or rng.random() < 0.8:
        B = rng.integers(-10, 0, size=(n, n)).astype(float)
        B[rng.random((n, n)) < 0.3] = -np.inf
    if kind == "cycle":
        cycle = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        w = rng.integers(-6, 7, size=cycle.size).astype(float)
        w[0] += int(rng.integers(1, 4)) - w.sum()
        B[cycle, np.roll(cycle, -1)] = w
    g = h = None
    if kind == "bound" or rng.random() < 0.7:
        g = rng.integers(-10, 1, size=n).astype(float)
        h = rng.integers(0, 11, size=n).astype(float)
    if kind == "bound":
        i = int(rng.integers(n))
        g[i] = h[i] + int(rng.integers(1, 4))
    p = rng.integers(-10, 11, size=n).astype(float)
    q = rng.integers(-10, 11, size=n).astype(float)
    return dict(B=B, p=p, q=q, g=g, h=h)


@pytest.mark.parametrize("plus, times", [(t.MAX_PLUS, t.MAX_TIMES), (t.MIN_PLUS, t.MIN_TIMES)],
                         ids=["max", "min"])
def test_exp_maps_plus_solutions_onto_times_solutions(plus, times):
    # v -> 2**v maps integer plus data onto times data exactly, and maps
    # every sum, product, inverse and exact square root of the closed form
    # with it, so both sides take the same route through the cycle test and
    # agree to the bit wherever theta is an integer.  A half-integer theta
    # has no exact square root in the times semifield: there the verdicts
    # and the membership of the ends are compared.
    rng = np.random.default_rng(39)
    outcomes = collections.Counter()
    for n in (2, 3, 4, 5, 8, 13, 24, 40, 64):
        for kind in ("feasible", "cycle", "bound") * 20:
            raw = _exp_draw(rng, n, kind)
            insts = [_translate(raw, plus), _translate(raw, times, pow2=True)]
            lhs, rhs = (t.solve_instance(inst) for inst in insts)
            assert type(lhs) is type(rhs)
            if isinstance(lhs, t.InfeasibilityReport):
                assert lhs.reason is rhs.reason
                assert np.exp2(lhs.detail.value) == rhs.detail.value
                outcomes[lhs.reason] += 1
                continue
            outcomes["exact" if lhs.theta.value.is_integer() else "half"] += 1
            if lhs.theta.value.is_integer():
                assert np.exp2(lhs.theta.value) == rhs.theta.value
                for name in ("generator", "u_lo", "u_hi", "x_lo", "x_hi"):
                    got, want = getattr(rhs, name).data, np.exp2(getattr(lhs, name).data)
                    assert np.array_equal(got, want), name
            for sol, inst in zip((lhs, rhs), insts):
                for end in (sol.x_lo, sol.x_hi):
                    assert not end.is_regular() or t.contains(sol, inst, end)
    assert outcomes.keys() == {"exact", "half", *t.InfeasibleReason}


def test_membership_disagreement_raises(worked, mp):
    inst = t.ProblemInstance(mp, worked["p"], worked["q"])
    sol = t.solve_unconstrained(worked["p"], worked["q"])
    # tamper with the box so the two tests cannot agree
    bad = t.SolutionSet(sol.theta, sol.generator, sol.u_hi, sol.u_hi, sol.x_hi, sol.x_hi)
    with pytest.raises(TroptError):
        t.contains(bad, inst, sol.x_lo)


@pytest.mark.parametrize("sf", [t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES], ids=lambda sf: sf.tag)
def test_wrappers_specialize_general_in_every_semifield(sf):
    # TestSpecialization in the other three semifields, on exact data, with
    # infeasible draws included: reports must agree in reason and detail too.
    rng = np.random.default_rng(38)
    outcomes = collections.Counter()
    for _ in range(150):
        n = int(rng.integers(1, 5))
        B = rng.integers(-12, 3, size=(n, n)).astype(float)
        B[rng.random((n, n)) < 0.3] = -np.inf
        raw = dict(
            p=rng.integers(-10, 11, size=n), q=rng.integers(-10, 11, size=n),
            g=rng.integers(-10, 4, size=n), h=rng.integers(-3, 11, size=n), B=B,
        )
        inst = _translate(raw, sf, pow2=True)
        p, q, g, h, B = inst.p, inst.q, inst.g, inst.h, inst.B
        pairs = [
            (t.solve_unconstrained(p, q), t.solve_general(None, p, q)),
            (t.solve_linear_constrained(B, p, q), t.solve_general(B, p, q)),
            (t.solve_box_constrained(p, q, g, h), t.solve_general(None, p, q, g, h)),
        ]
        for special, general in pairs:
            assert special == general
            outcomes[getattr(special, "reason", None)] += 1
    assert set(outcomes) == {None, *t.InfeasibleReason}


def test_small_solve_checks_only_its_results(worked, monkeypatch):
    # Inputs are validated when they are built.  A solve checks the carrier
    # of its results only, once per block: theta, the u-box and its image.
    # It builds only B* and the four box ends, and needs only the vector
    # products.
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Semifield, "validate", counting("validate", Semifield.validate))
    monkeypatch.setattr(TropicalMatrix, "__init__", counting("construct", TropicalMatrix.__init__))
    monkeypatch.setattr(_kernels, "matmul", counting("matmul", _kernels.matmul))
    monkeypatch.setattr(_kernels, "closure", counting("closure", _kernels.closure))
    p, q, g, h, B = (worked[k] for k in "pqghB")
    sol = t.solve_general(B, p, q, g, h)
    assert sol.theta.value == 14
    assert counts["validate"] == 3
    assert counts["construct"] == 5
    assert counts["matmul"] <= 4
    assert counts["closure"] == 1

    counts.clear()  # an absent g costs no vector either
    assert isinstance(t.solve_linear_constrained(B, p, q), t.SolutionSet)
    assert counts["construct"] == 5

    counts.clear()
    assert isinstance(t.solve_unconstrained(p, q), t.SolutionSet)
    assert isinstance(t.solve_box_constrained(p, q, g, h), t.SolutionSet)
    assert counts["closure"] == 0


@pytest.mark.parametrize("sf, p, q", [(t.MAX_TIMES, 1e-300, 1e300), (t.MIN_TIMES, 1e300, 1e-300)],
                         ids=["max-times", "min-times"])
def test_a_theta_at_the_zero_has_no_inverse(sf, p, q):
    # conj(q) p leaves the floats: it underflows to max-times' zero 0.0, or
    # overflows to min-times' zero +inf, and theta, its square root, with
    # it.  theta is in the carrier, but the box needs its inverse.
    message = f"^{sf.tag}: the semifield zero has no inverse$"
    with np.errstate(over="ignore"), pytest.raises(DomainError, match=message):
        t.solve_unconstrained(t.tvector(sf, [p]), t.tvector(sf, [q]))


def test_mixed_draws_stop_at_the_size_limit():
    with pytest.raises(RuntimeError, match=f"supports n <= {MIXED_B_MAX_N}"):
        random_feasible_instance(np.random.default_rng(0), 6, mixed_B=True)
