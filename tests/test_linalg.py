import warnings

import numpy as np
import pytest

import tropt as t
from tropt import _kernels
from tropt.errors import DimensionError, DomainError, SemifieldMismatchError

from conftest import power_trace_loop

ALL = [t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES]


def random_matrix(rng, sf, rows, cols, *, zero_frac=0.15):
    """Random matrix in the given semifield, derived from one integer draw
    so the same shape is exercised identically across semifields."""
    base = rng.integers(-8, 9, size=(rows, cols)).astype(float)
    mask = rng.random((rows, cols)) < zero_frac
    if sf is t.MAX_PLUS:
        vals = base
    elif sf is t.MIN_PLUS:
        vals = -base
    elif sf is t.MAX_TIMES:
        vals = np.exp(base / 4)
    else:
        vals = np.exp(-base / 4)
    vals = np.where(mask, sf.zero, vals)
    return t.TropicalMatrix(sf, vals)


class TestBasicOps:
    def test_add_golden(self, worked, mp):
        bstar = worked["B"] + t.identity(mp, 2)
        assert bstar.tolist() == [[0, -4], [-8, 0]]
        assert (worked["B"] + worked["B"]) == worked["B"]
        assert (worked["B"] + t.zeros(mp, 2, 2)) == worked["B"]

    def test_add_shape_mismatch(self, mp):
        with pytest.raises(DimensionError):
            t.zeros(mp, 2, 2) + t.zeros(mp, 3, 3)
        with pytest.raises(SemifieldMismatchError):
            t.zeros(mp, 2, 2) + t.zeros(t.MIN_PLUS, 2, 2)

    def test_matmul_golden(self, worked, mp):
        bstar = t.tmatrix(mp, [[0, -4], [-8, 0]])
        row = worked["q"].conj() @ bstar
        assert row.tolist() == [[12, 8]]
        assert (bstar @ t.identity(mp, 2)) == bstar
        u = t.tvector(mp, [-8, 3])
        assert (bstar @ u).tolist() == [[-1], [3]]

    def test_matmul_shape_mismatch(self, mp):
        with pytest.raises(DimensionError):
            t.zeros(mp, 2, 2) @ t.zeros(mp, 3, 1)

    def test_power_trace(self, worked, mp):
        # second power of B is [[0, -4], [-8, -12]]; both traces are 0
        b2 = worked["B"] @ worked["B"]
        assert b2.tolist() == [[0, -4], [-8, -12]]
        assert worked["B"].power_trace() == mp.scalar(0)
        assert t.zeros(mp, 2, 2).power_trace() == mp.scalar(mp.zero)
        assert t.identity(mp, 4).power_trace() == mp.scalar(mp.one)

    def test_star_golden(self, worked, mp):
        assert worked["B"].star().tolist() == [[0, -4], [-8, 0]]
        assert t.zeros(mp, 3, 3).star() == t.identity(mp, 3)
        assert t.identity(mp, 3).star() == t.identity(mp, 3)

    def test_star_matches_power_accumulation(self, mp):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4, 5, 6):
            a = random_matrix(rng, mp, n, n)
            acc = t.identity(mp, n)
            power = t.identity(mp, n)
            for _ in range(n - 1):
                power = power @ a
                acc = acc + power
            assert a.star() == acc

    def test_conjugate(self, mp):
        q = t.tvector(mp, [-12, -4])
        assert q.conj().tolist() == [[12, 4]]
        ones = t.tvector(mp, [0, 0, 0])
        assert ones.conj().tolist() == [[0, 0, 0]]
        h = t.tvector(mp, [6, 8])
        assert h.conj().tolist() == [[-6, -8]]
        # zero components stay zero; double conjugation restores regular vectors
        v = t.tvector(mp, [2, mp.zero])
        assert v.conj().tolist() == [[2 * -1, mp.zero]]
        assert t.tvector(mp, [3, 14]).conj().conj() == t.tvector(mp, [3, 14])
        with pytest.raises(DomainError):
            t.zeros(mp, 2).conj()

    def test_hash_agrees_with_eq_on_signed_zero(self, mp):
        # conj negates 0.0 into -0.0, which == 0.0 but has other bytes
        v = t.tvector(mp, [0, 2])
        w = t.tmatrix(mp, [[0, -2]])
        assert v.conj() == w
        assert hash(v.conj()) == hash(w)
        assert len({v.conj(), w}) == 1

    def test_regularity(self, mp):
        assert t.tvector(mp, [3, 14]).is_regular()
        assert not t.tvector(mp, [2, mp.zero]).is_regular()
        assert t.tmatrix(mp, [[3, 14]]).is_regular()  # a row
        assert not t.tmatrix(mp, [[mp.zero, 14]]).is_regular()
        with pytest.raises(DimensionError, match="not a vector"):
            t.tmatrix(mp, [[1, 2], [3, 4]]).is_regular()
        z = t.zeros(mp, 2, 2)
        assert not z.is_column_regular()
        a = t.tmatrix(mp, [[1, mp.zero], [mp.zero, 2]])
        assert a.is_column_regular()


@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_zero_and_column_regular_flags(sf):
    # is_zero: no entry other than the zero; is_column_regular: no column
    # of zeros.  A row vector, a matrix and the all-zero vector, each
    # against the definition entry by entry.
    z = sf.zero
    zeros = [z, -0.0] if sf is t.MAX_TIMES else [z]  # -0.0 is max-times' zero too
    cases = [
        [[1.0, z, 2.0]], [[z, z, z]], [[z, 1.0]],
        [[1.0, z], [z, 2.0]], [[z, z], [2.0, z]], [[z, 1.0], [z, z], [4.0, z]],
        [[z], [z], [z]], [[zeros[-1]], [z]], [[zeros[-1], z], [z, 4.0]],
    ]
    for rows in cases:
        m = t.tmatrix(sf, rows)
        is_zero = [[v in zeros for v in row] for row in rows]
        assert m.is_zero() is all(map(all, is_zero))
        assert m.is_column_regular() is all(not all(col) for col in zip(*is_zero))


@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
class TestVectorIdentities:
    def test_conj_product_identities(self, sf):
        rng = np.random.default_rng(11)
        eps = sf.default_eps
        one = sf.scalar(sf.one)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            x = random_matrix(rng, sf, n, 1, zero_frac=0.2)
            if x.is_zero():
                continue
            # conj(x) x == one for any non-zero x
            assert (x.conj() @ x).as_scalar().eq(one, eps)
            if not x.is_regular():
                continue
            y = random_matrix(rng, sf, n, 1, zero_frac=0)
            # x conj(x) dominates the identity
            assert t.identity(sf, n).leq(x @ x.conj(), eps)
            # x conj(y) dominates inv(conj(x) y) I
            lhs = x @ y.conj()
            scal = (x.conj() @ y).as_scalar().inv()
            assert t.TropicalMatrix(sf, sf.mul(scal.value, t.identity(sf, n).data)).leq(lhs, eps)

    def test_conjugation_antitone(self, sf):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            x = random_matrix(rng, sf, n, 1, zero_frac=0)
            y = random_matrix(rng, sf, n, 1, zero_frac=0)
            lo = x + y  # not necessarily comparable; use x vs x+y which is
            assert x.leq(lo)
            assert lo.conj().leq(x.conj())

    def test_row_regular_product_regular(self, sf):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = random_matrix(rng, sf, n, n, zero_frac=0.4)
            x = random_matrix(rng, sf, n, 1, zero_frac=0)
            if (a.data != sf.zero).any(axis=1).all():
                assert (a @ x).is_regular()
            if a.is_column_regular():
                assert (x.conj() @ a).is_regular()


def _contractive(rng, sf, n):
    """Random square matrix whose cycle weights never exceed one."""
    base = rng.integers(-8, 1, size=(n, n)).astype(float)
    if sf is t.MAX_PLUS:
        vals = base
    elif sf is t.MIN_PLUS:
        vals = -base
    elif sf is t.MAX_TIMES:
        vals = np.exp(base / 4)
    else:
        vals = np.exp(-base / 4)
    mask = rng.random((n, n)) < 0.2
    return t.TropicalMatrix(sf, np.where(mask, sf.zero, vals))


@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
class TestClosureProperties:
    def test_star_dominates_powers(self, sf):
        # powers up to 2n stay below the star whenever cycles are contractive
        rng = np.random.default_rng(21)
        eps = sf.default_eps
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = _contractive(rng, sf, n)
            assert a.power_trace() <= sf.scalar(sf.one)
            star = a.star()
            power = t.identity(sf, n)
            for _ in range(2 * n + 1):
                assert power.leq(star, eps)
                power = power @ a
            assert (star @ star).eq(star, eps)

    def test_star_dominates_identity(self, sf):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = random_matrix(rng, sf, n, n)
            assert t.identity(sf, n).leq(a.star(), sf.default_eps)


def star_squaring_loop(a):
    """Reference for star: (I + A)^(n-1) by repeated squaring, O(n^3 log n)."""
    result = t.identity(a.sf, a.rows)
    base = result + a
    e = a.rows - 1
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def _from_exponents(sf, exps, mask):
    """Matrix carrying the integer exponents exactly: as themselves in the
    plus semifields and as powers of two in the times ones, negated for the
    min ones, so a cycle exceeds one exactly when its exponents sum above 0.
    Masked entries are the semifield zero."""
    e = -exps if sf.minimize else exps
    vals = np.exp2(e) if sf.times else e
    return t.TropicalMatrix(sf, np.where(mask, sf.zero, vals))


def _reference_cases(sf, planted):
    """20 exact matrices for each n = 1..8 and each n around a power of two
    (one, two and many set bits: 16, 32; 9, 17, 33; 15): contractive, or
    with one planted cycle of weight-one edges, one of them raised above one."""
    rng = np.random.default_rng(24)
    for n in (*range(1, 9), 9, 15, 16, 17, 32, 33):
        for _ in range(20):
            exps = rng.integers(-8, 1, size=(n, n)).astype(float)
            mask = rng.random((n, n)) < 0.2
            if planted:
                cycle = rng.permutation(n)[: rng.integers(1, n + 1)]
                edges = (cycle, np.roll(cycle, -1))
                exps[edges] = 0
                mask[edges] = False
                exps[cycle[0], edges[1][0]] = rng.integers(1, 4)
            yield _from_exponents(sf, exps, mask)


@pytest.mark.parametrize("planted", [False, True], ids=["contractive", "planted-cycle"])
@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_power_trace_matches_loop_reference(sf, planted):
    for a in _reference_cases(sf, planted):
        ref = power_trace_loop(a)
        assert a.power_trace().value == ref
        assert _kernels.product_trace(a.data, star_squaring_loop(a).data, sf) == ref
        exceeds = not sf.leq(ref, sf.one, 0.0)
        assert exceeds == planted
        plus, heavy = _kernels.closure(a.data, sf)
        assert (plus is None) == (heavy != []) == exceeds
        ones = t.tvector(sf, [sf.one] * a.rows)
        result = t.solve_general(a, ones, ones)
        if planted:
            assert result.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
            assert result.detail.value == ref
        else:
            assert isinstance(result, t.SolutionSet)


@pytest.mark.parametrize("planted", [False, True], ids=["contractive", "planted-cycle"])
@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_star_matches_squaring_reference(sf, planted):
    # == rather than bytes: the elimination may give -0.0 where squaring gives 0.0
    for a in _reference_cases(sf, planted):
        assert a.star() == star_squaring_loop(a)


@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_star_is_identity_plus_closure_by_bytes(sf):
    # star() adds I to the elimination's own work array in place.  Its bits
    # are those of the sum with a separate identity, signs of zero included:
    # in max-times a -0.0 off the diagonal becomes +0.0, as the sum with the
    # identity's zero there makes it.
    rng = np.random.default_rng(70)
    for n in (1, 2, 3, 8, 33, 64):
        for density in (0.1, 0.9):
            e = np.where(rng.random((n, n)) < density, -rng.uniform(0.5, 8, size=(n, n)), -np.inf)
            e = -e if sf.minimize else e
            a = np.exp(e / 4) if sf.times else e
            if not (sf.times and sf.minimize):
                a[rng.random((n, n)) < 0.2] = -0.0
            plus, heavy = _kernels.closure(a, sf)
            assert heavy == []
            want = sf.add(plus, t.identity(sf, n).data)
            assert t.TropicalMatrix(sf, a).star().data.tobytes() == want.tobytes()


def test_max_times_star_has_no_negative_zero_off_the_diagonal():
    a = t.tmatrix(t.MAX_TIMES, [[0.5, -0.0], [0.0, 0.5]])
    assert a.star().data.tobytes() == np.array([[1.0, 0.0], [0.0, 1.0]]).tobytes()


HEAVY_ENTRIES = pytest.mark.parametrize(
    "sf, entry", [(t.MAX_TIMES, 4.0), (t.MIN_TIMES, 0.25), (t.MAX_PLUS, 1e300)],
    ids=["max-times", "min-times", "max-plus"],
)


def _all_heavy(sf, entry, n=64):
    """Dense n x n matrix every cycle of which exceeds one."""
    vals = np.full((n, n), entry)
    if sf.times:
        vals[::2, 1::2] = sf.zero
    return t.TropicalMatrix(sf, vals)


@HEAVY_ENTRIES
def test_power_trace_heavy_cycles_stay_in_range(sf, entry):
    # Every cycle of this dense matrix exceeds one.  Eliminating all pivots
    # would square those weights until they overflow (or, in min-times,
    # underflow to 0.0, outside the carrier); the closed-walk sum of length
    # at most n stays finite.
    a = _all_heavy(sf, entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = a.power_trace().value
    assert np.isfinite(value)
    assert not sf.leq(value, sf.one, 0.0)
    assert value == pytest.approx(power_trace_loop(a), rel=1e-9)


@HEAVY_ENTRIES
def test_all_heavy_matrix_takes_the_squaring_route(sf, entry, monkeypatch):
    # Every pivot is heavy, so the elimination stops once walks from the
    # heavy pivots would cost more than squaring I + B: the five products
    # n x n of the exponent 64 and no walk step.
    a = _all_heavy(sf, entry)
    assert _kernels.closure(a.data, sf) == (None, None)
    shapes = []
    matmul = _kernels.matmul

    def counting(x, y, sf):
        shapes.append((x.shape, y.shape))
        return matmul(x, y, sf)

    monkeypatch.setattr(_kernels, "matmul", counting)
    a.power_trace()
    assert shapes == [((64, 64), (64, 64))] * 5


@pytest.mark.parametrize("sf", [t.MAX_PLUS, t.MIN_PLUS], ids=lambda sf: sf.tag)
def test_cycle_above_one_by_rounding_still_solves(sf):
    # The cycle 0 -> 1 -> 2 -> 0 weighs about 1e-12 above one: the exact
    # elimination diverges, but the cycle test passes within the default
    # tolerance, so the solve takes the star from squaring, as star() does.
    s = -1.0 if sf.minimize else 1.0
    a = t.tmatrix(sf, s * np.array([[-5, 1, -np.inf], [-np.inf, -5, 1], [-2 + 1e-12, -np.inf, -5]]))
    assert _kernels.closure(a.data, sf)[0] is None
    value = a.power_trace().value
    assert value != sf.one and sf.leq(value, sf.one)
    assert value == _kernels.product_trace(a.data, star_squaring_loop(a).data, sf)
    ones = t.tvector(sf, [sf.one] * 3)
    sol = t.solve_general(a, ones, ones)
    assert isinstance(sol, t.SolutionSet)
    assert sol.generator == a.star() == star_squaring_loop(a)


def test_validation_on_construction():
    with pytest.raises(DomainError):
        t.tmatrix(t.MAX_PLUS, [[0, float("nan")]])
    with pytest.raises(DomainError):
        t.tmatrix(t.MAX_TIMES, [[-1, 2]])
    with pytest.raises(DimensionError):
        t.tvector(t.MAX_PLUS, [[1, 2]])
