import copy
import functools
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropt as t
from tropt.errors import DomainError, SemifieldMismatchError

ALL = [t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES]


def s(sf, v):
    return sf.scalar(v)


class TestDefinitions:
    def test_tags(self):
        assert t.by_tag("max-plus") is t.MAX_PLUS
        assert t.by_tag("min-times") is t.MIN_TIMES
        with pytest.raises(DomainError):
            t.by_tag("max-min")

    @pytest.mark.parametrize("sf, minimize, times, zero, one", [
        (t.MAX_PLUS, False, False, -math.inf, 0.0),
        (t.MIN_PLUS, True, False, math.inf, 0.0),
        (t.MAX_TIMES, False, True, 0.0, 1.0),
        (t.MIN_TIMES, True, True, math.inf, 1.0),
    ], ids=["max-plus", "min-plus", "max-times", "min-times"])
    def test_built_from_its_tag(self, sf, minimize, times, zero, one):
        built = t.Semifield(sf.tag)
        for s in (sf, built):
            assert (s.minimize, s.times, s.default_eps) == (minimize, times, 1e-9)
            assert (repr(s.zero), repr(s.one)) == (repr(zero), repr(one))
            assert s.add is (np.minimum if minimize else np.maximum)
            assert s.mul is (np.multiply if times else np.add)
            assert repr(s) == f"Semifield({sf.tag!r})"
        assert t.by_tag(sf.tag) is sf and built is sf

    @pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
    def test_built_semifield_mixes_with_the_constant(self, sf):
        built = t.Semifield(sf.tag)
        total = t.tvector(built, [1, 2]) + t.tvector(sf, [1, 2])
        assert total.sf is sf and total.column_values().tolist() == [1, 2]
        p, q, g = ([2, 3], [1, 4], [1, 1])
        mixed = t.solve_general(t.identity(built, 2), t.tvector(sf, p), t.tvector(built, q),
                                t.tvector(sf, g))
        alone = t.solve_general(t.identity(sf, 2), t.tvector(sf, p), t.tvector(sf, q),
                                t.tvector(sf, g))
        assert isinstance(mixed, t.SolutionSet) and repr(mixed) == repr(alone)
        assert t.TropicalScalar(1.0, built) == t.TropicalScalar(1.0, sf)
        assert copy.copy(built) is sf and copy.deepcopy(built) is sf
        assert pickle.loads(pickle.dumps(built)) is sf

    @pytest.mark.parametrize("tag", ["max-min", "plus-max", "MAX-PLUS", "", None])
    def test_unknown_tag_is_rejected(self, tag):
        with pytest.raises(DomainError, match="unknown semifield tag"):
            t.Semifield(tag)

    def test_zero_one(self):
        assert t.MAX_PLUS.zero == -math.inf and t.MAX_PLUS.one == 0
        assert t.MIN_PLUS.zero == math.inf and t.MIN_PLUS.one == 0
        assert t.MAX_TIMES.zero == 0 and t.MAX_TIMES.one == 1
        assert t.MIN_TIMES.zero == math.inf and t.MIN_TIMES.one == 1

    def test_add_examples(self):
        assert s(t.MAX_PLUS, 3) + s(t.MAX_PLUS, 5) == s(t.MAX_PLUS, 5)
        x = s(t.MAX_PLUS, 7.5)
        assert x + x == x
        assert s(t.MAX_PLUS, t.MAX_PLUS.zero) + s(t.MAX_PLUS, 7) == s(t.MAX_PLUS, 7)
        assert s(t.MIN_PLUS, 3) + s(t.MIN_PLUS, 5) == s(t.MIN_PLUS, 3)

    def test_mul_examples(self):
        assert s(t.MAX_PLUS, 3) * s(t.MAX_PLUS, 5) == s(t.MAX_PLUS, 8)
        zero = s(t.MAX_PLUS, t.MAX_PLUS.zero)
        assert zero * s(t.MAX_PLUS, 5) == zero
        assert s(t.MAX_TIMES, 2) * s(t.MAX_TIMES, 4) == s(t.MAX_TIMES, 8)
        one = s(t.MIN_TIMES, 1)
        assert one * s(t.MIN_TIMES, 3.5) == s(t.MIN_TIMES, 3.5)

    def test_inv_examples(self):
        assert s(t.MAX_PLUS, 9).inv() == s(t.MAX_PLUS, -9)
        assert s(t.MAX_PLUS, 0).inv() == s(t.MAX_PLUS, 0)
        assert s(t.MAX_TIMES, 4).inv() == s(t.MAX_TIMES, 0.25)
        with pytest.raises(DomainError):
            s(t.MIN_PLUS, t.MIN_PLUS.zero).inv()

    def test_pow_examples(self):
        assert s(t.MAX_PLUS, 18) ** 0.5 == s(t.MAX_PLUS, 9)
        assert s(t.MAX_PLUS, -7) ** 0 == s(t.MAX_PLUS, 0)
        assert s(t.MAX_TIMES, 9) ** 0.5 == s(t.MAX_TIMES, 3)
        zero = s(t.MAX_PLUS, t.MAX_PLUS.zero)
        assert zero**2 == zero
        with pytest.raises(DomainError):
            zero**-1
        with pytest.raises(DomainError):
            zero**0

    def test_leq_examples(self):
        assert s(t.MAX_PLUS, t.MAX_PLUS.zero) <= s(t.MAX_PLUS, -100)
        assert s(t.MAX_PLUS, 3) <= s(t.MAX_PLUS, 5)
        assert not s(t.MAX_PLUS, 5) <= s(t.MAX_PLUS, 3)
        assert s(t.MIN_PLUS, 5) <= s(t.MIN_PLUS, 3)
        assert s(t.MIN_TIMES, 4) <= s(t.MIN_TIMES, 2)
        # >= is the reflected <=
        assert s(t.MIN_PLUS, 3) >= s(t.MIN_PLUS, 5) and not s(t.MAX_PLUS, 3) >= s(t.MAX_PLUS, 5)

    def test_kind_mismatch(self):
        with pytest.raises(SemifieldMismatchError):
            s(t.MAX_PLUS, 1) + s(t.MIN_PLUS, 1)
        with pytest.raises(SemifieldMismatchError):
            s(t.MAX_TIMES, 1) * s(t.MIN_TIMES, 1)
        with pytest.raises(SemifieldMismatchError):
            s(t.MAX_PLUS, 1) <= s(t.MAX_TIMES, 1)
        with pytest.raises(SemifieldMismatchError):
            s(t.MAX_PLUS, 1) >= s(t.MAX_TIMES, 1)

    def test_carrier_validation(self):
        with pytest.raises(DomainError):
            s(t.MAX_PLUS, float("nan"))
        with pytest.raises(DomainError):
            s(t.MAX_PLUS, math.inf)
        with pytest.raises(DomainError):
            s(t.MIN_PLUS, -math.inf)
        with pytest.raises(DomainError):
            s(t.MAX_TIMES, -2)
        with pytest.raises(DomainError):
            s(t.MIN_TIMES, 0)

    def test_zero_absorbs_zero(self):
        for sf in ALL:
            zero = s(sf, sf.zero)
            assert zero + zero == zero
            assert zero * zero == zero


def _value_strategy(sf):
    finite = st.floats(min_value=-40, max_value=40, allow_nan=False)
    if sf.times:
        finite = finite.map(lambda u: math.exp(u / 4))
    return st.one_of(st.just(sf.zero), finite)


def _assert_monotone(sf, a, b, u, v):
    """Sum and product keep the exact order (eps = 0): from lo1 <= hi1 and
    lo2 <= hi2 follow lo1 + lo2 <= hi1 + hi2 and lo1 lo2 <= hi1 hi2, as
    rounding is monotone."""
    below = lambda x, y: bool(sf.leq(x.value, y.value, 0))
    lo1, hi1 = (a, b) if below(a, b) else (b, a)
    lo2, hi2 = (u, v) if below(u, v) else (v, u)
    assert below(lo1 + lo2, hi1 + hi2)
    assert below(lo1 * lo2, hi1 * hi2)


@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
class TestProperties:
    @settings(max_examples=100)
    @given(data=st.data())
    def test_idempotency_and_extremal(self, sf, data):
        a = s(sf, data.draw(_value_strategy(sf)))
        b = s(sf, data.draw(_value_strategy(sf)))
        assert a + a == a
        assert a <= a + b and b <= a + b

    @settings(max_examples=100)
    @given(data=st.data())
    def test_sum_below_iff_both_below(self, sf, data):
        a = s(sf, data.draw(_value_strategy(sf)))
        b = s(sf, data.draw(_value_strategy(sf)))
        c = s(sf, data.draw(_value_strategy(sf)))
        assert (a + b <= c) == ((a <= c) and (b <= c))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_inverse_identities(self, sf, data):
        v = data.draw(_value_strategy(sf).filter(lambda x: x != sf.zero))
        a = s(sf, v)
        assert (a.inv() * a).eq(s(sf, sf.one))
        assert a.inv().inv().eq(a)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_monotonicity(self, sf, data):
        a, b, u, v = (s(sf, data.draw(_value_strategy(sf))) for _ in range(4))
        _assert_monotone(sf, a, b, u, v)

    def test_monotonicity_at_the_tolerance(self, sf):
        # The draw a = u = 0, b = v = 1e-9, carried to the times semifields
        # as _value_strategy carries it.  In min-plus the tolerant order
        # reads 0 <= 1e-9, yet the products 0 and 2e-9 are neither ordered
        # nor equal within eps: the tolerance is not closed under the product.
        lo, hi = (math.exp(0.0), math.exp(1e-9 / 4)) if sf.times else (0.0, 1e-9)
        _assert_monotone(sf, s(sf, lo), s(sf, hi), s(sf, lo), s(sf, hi))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_sqrt_squares_back(self, sf, data):
        v = data.draw(_value_strategy(sf).filter(lambda x: x != sf.zero))
        a = s(sf, v)
        r = a.sqrt()
        assert (r * r).eq(a, eps=1e-9)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_inversion_antitone(self, sf, data):
        a = s(sf, data.draw(_value_strategy(sf).filter(lambda x: x != sf.zero)))
        b = s(sf, data.draw(_value_strategy(sf).filter(lambda x: x != sf.zero)))
        if a <= b:
            assert b.inv() <= a.inv() or a.eq(b, eps=1e-12)


# The input forms a predicate meets: a Python float, an np.float64 (what
# indexing an array gives), a 0-d array, and one entry of a 1x2 array whose
# other entry is the semifield one.
_FORMS = {
    "float": lambda sf, v: v,
    "float64": lambda sf, v: np.float64(v),
    "0-d": lambda sf, v: np.array(v),
    "1x2": lambda sf, v: np.array([[sf.one, v]]),
}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_inv_rejects_the_zero_in_every_form(sf, form):
    shaped = functools.partial(_FORMS[form], sf)
    with pytest.raises(DomainError, match=f"^{sf.tag}: the semifield zero has no inverse$"):
        sf.inv(shaped(sf.zero))
    inv = sf.inv(shaped(4.0))
    assert np.shape(inv) == np.shape(shaped(4.0))
    assert np.array_equal(inv, shaped(0.25 if sf.times else -4.0))


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_leq_and_eq_in_every_form(sf, form):
    """The all-true shortcut and the tolerant path give the same verdicts
    on every form: ``near`` lies 1e-12 above ``hi`` in the order."""
    shaped = functools.partial(_FORMS[form], sf)
    lo, hi = (2.0, 1.0) if sf.minimize else (1.0, 2.0)
    step = -1e-12 if sf.minimize else 1e-12
    near = hi * (1 + step) if sf.times else hi + step

    def verdict(pred, a, b, eps=None):
        out = pred(shaped(a), shaped(b), eps)
        assert np.shape(out) == np.shape(shaped(a))
        return bool(np.all(out))

    assert (verdict(sf.leq, lo, hi), verdict(sf.leq, hi, lo)) == (True, False)
    assert (verdict(sf.leq, near, hi), verdict(sf.leq, near, hi, 0)) == (True, False)
    assert (verdict(sf.eq, hi, hi, 0), verdict(sf.eq, lo, hi)) == (True, False)
    assert (verdict(sf.eq, near, hi), verdict(sf.eq, near, hi, 0)) == (True, False)


# Scalars at the edges of every carrier: NaN, both infinities, both zeros.
_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 0.5, 1.0, 2.0, 1e300]


def _validate_outcome(sf, value):
    try:
        return sf.validate(value)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_scalars_get_the_verdicts_of_a_one_element_array(sf):
    """A Python float or an np.float64 gets the verdict of the same value in
    a 1-element array from validate, leq and eq, as an np.bool_, and
    validate's error message."""
    for a in _EDGES:
        outcome = _validate_outcome(sf, np.array([a]))
        if math.isnan(a) or a in (0.5, 1.0, 2.0, sf.zero):  # NaN is in no carrier, these in every one
            assert (outcome is None) is not math.isnan(a)
        for scalar in (a, np.float64(a)):
            assert _validate_outcome(sf, scalar) == outcome
        for b in _EDGES:
            for eps in (None, 0, 1e-9):
                for pred in (sf.leq, sf.eq):
                    want = pred(np.array([a]), np.array([b]), eps)[0]
                    for x, y in ((a, b), (np.float64(a), np.float64(b))):
                        got = pred(x, y, eps)
                        assert type(got) is np.bool_ and got == want, (pred, x, y, eps)


@pytest.mark.parametrize("sf", ALL, ids=lambda sf: sf.tag)
def test_validate_accepts_an_empty_array(sf):
    for empty in ([], np.array([]), np.empty((0, 3)), np.empty((2, 0))):
        assert sf.validate(empty) is None


def test_array_ops_match_scalar_ops():
    # The array forms the kernels use (elementwise, reduce and outer)
    # against TropicalScalar arithmetic, one element at a time.
    rng = np.random.default_rng(7)
    for sf in ALL:
        a, b = rng.integers(-10, 11, size=(2, 12)).astype(float)
        if sf.times:
            a, b = np.exp2(a), np.exp2(b)
        if sf is t.MAX_PLUS:
            assert np.array_equal(sf.add(a, b), np.maximum(a, b))
            assert np.array_equal(sf.mul(a, b), a + b)
            assert np.array_equal(sf.inv(a), -a)
            assert np.array_equal(sf.leq(a, b), a <= b)
        assert np.array_equal(sf.inv(a), [s(sf, x).inv().value for x in a])
        a[::5] = sf.zero
        b[1::4] = sf.zero
        pairs = [(s(sf, x), s(sf, y)) for x, y in zip(a, b)]
        assert np.array_equal(sf.add(a, b), [(x + y).value for x, y in pairs])
        assert np.array_equal(sf.mul(a, b), [(x * y).value for x, y in pairs])
        assert np.array_equal(sf.leq(a, b), [x <= y for x, y in pairs])
        assert sf.add.reduce(a) == functools.reduce(operator.add, (x for x, _ in pairs)).value
        outer = [[(x * y).value for _, y in pairs] for x, _ in pairs]
        assert np.array_equal(sf.mul.outer(a, b), outer)
        assert np.array_equal(sf.add.reduce(sf.mul.outer(a, b), axis=1), [
            functools.reduce(operator.add, (x * y for _, y in pairs)).value for x, _ in pairs
        ])
