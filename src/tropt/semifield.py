"""Scalar arithmetic over idempotent semifields.

Four concrete semifields are provided: max-plus, min-plus, max-times and
min-times.  Values are plain 64-bit floats with the semifield zero encoded
as the appropriate infinity (or 0.0 for max-times), so integer max-plus
data stays bit-exact through every operation.

The order used throughout is the one induced by addition: ``a <= b`` holds
exactly when ``a + b == b`` in the semifield.  For the min-flavored
semifields this reverses the usual numeric order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SemifieldMismatchError

__all__ = [
    "Semifield",
    "TropicalScalar",
    "MAX_PLUS",
    "MIN_PLUS",
    "MAX_TIMES",
    "MIN_TIMES",
    "SEMIFIELDS",
    "by_tag",
]

_INF = float("inf")
_TAGS = ("max-plus", "min-plus", "max-times", "min-times")
_BUILT: dict = {}  # tag -> its one Semifield


class Semifield:
    """One of the four concrete idempotent semifields, built from its tag.

    The tag ``"<add>-<mul>"`` names the two operations: ``max`` or ``min``
    for the sum, ``plus`` or ``times`` for the product.  ``minimize``
    selects min as the additive operation, ``times`` selects ordinary
    multiplication as the multiplicative one; zero and one follow from
    the pair.  ``Semifield(tag)``, copies and pickles return the one
    instance of each tag, so semifields compare by identity.  All
    operations accept floats or numpy arrays and are pure.
    The two operations are the numpy ufuncs ``add`` (max or min) and
    ``mul`` (ordinary + or x), which serve whole arrays.  Within the
    carrier the naive float operations never produce NaN: the two
    infinities of opposite sign can never meet.
    """

    __slots__ = ("tag", "minimize", "times", "add", "mul", "zero", "one")

    default_eps = 1e-9

    def __new__(cls, tag: str):
        if tag not in _TAGS:
            raise DomainError(f"unknown semifield tag {tag!r}")
        if tag in _BUILT:
            return _BUILT[tag]
        self = _BUILT[tag] = super().__new__(cls)
        self.tag = tag
        self.minimize = tag.startswith("min")
        self.times = tag.endswith("times")
        self.add = np.minimum if self.minimize else np.maximum
        self.mul = np.multiply if self.times else np.add
        self.zero = _INF if self.minimize else 0.0 if self.times else -_INF
        self.one = 1.0 if self.times else 0.0
        return self

    def __reduce__(self):
        return (Semifield, (self.tag,))

    def __repr__(self):
        return f"Semifield({self.tag!r})"

    # -- carrier checks -------------------------------------------------

    def validate(self, values) -> None:
        """Raise DomainError if any value lies outside the carrier.

        Valid input costs one comparison pass, and a Python float (or
        ``np.float64``) one plain comparison, with no array built; the
        branches below run only to name what is wrong.
        """
        if isinstance(values, float) and self._float_in_carrier(values):
            return
        arr = np.asarray(values, dtype=np.float64)
        if self._in_carrier(arr):
            return
        if np.isnan(arr).any():
            raise DomainError(f"{self.tag}: NaN is not a semifield value")
        if self.times:
            if (arr < 0).any():
                raise DomainError(f"{self.tag}: values must be nonnegative")
            if self.minimize:
                if (arr == 0).any():
                    raise DomainError(f"{self.tag}: finite values must be positive")
            else:
                if np.isposinf(arr).any():
                    raise DomainError(f"{self.tag}: +inf is not a {self.tag} value")
        else:
            bad = np.isneginf(arr) if self.minimize else np.isposinf(arr)
            if bad.any():
                raise DomainError(f"{self.tag}: value outside carrier")

    def _in_carrier(self, arr) -> bool:
        """Whether every value lies in the carrier; NaN fails every comparison.

        Flags are counted rather than reduced with ``all``: on the small
        arrays of a solve, ``np.count_nonzero`` is the cheapest whole-array
        test numpy offers, and the same holds in the predicates below.
        """
        if self.times:
            inside = arr > 0 if self.minimize else (arr >= 0) & (arr < _INF)
        else:
            inside = arr > -_INF if self.minimize else arr < _INF
        return np.count_nonzero(inside) == inside.size

    def _float_in_carrier(self, v: float) -> bool:
        """:meth:`_in_carrier` for one float, by plain comparisons."""
        if self.minimize:
            return v > (0.0 if self.times else -_INF)
        return self.zero <= v < _INF

    # -- the semifield operations ---------------------------------------

    def inv(self, a):
        """Multiplicative inverse; rejects the semifield zero."""
        if np.count_nonzero(a == self.zero):
            raise DomainError(f"{self.tag}: the semifield zero has no inverse")
        return self._inv_unchecked(a)

    def _inv_unchecked(self, a):
        """:meth:`inv` without its zero test, for values known to be regular."""
        return np.divide(1.0, a) if self.times else np.negative(a)

    def power(self, a, r):
        """Rational power, extended to real exponents on the encoding."""
        if np.isscalar(a) or np.asarray(a).ndim == 0:
            a = float(a)
            if a == self.zero:
                if r > 0:
                    return self.zero
                raise DomainError(f"{self.tag}: zero cannot be raised to exponent {r}")
            return a**r if self.times else a * r
        raise DomainError("power is defined for scalars only")

    def sqrt(self, a):
        return self.power(a, 0.5)

    # -- order and comparison -------------------------------------------

    def _asc(self, a):
        """Map values so the induced order becomes numeric ascending."""
        return np.negative(a) if self.minimize else np.asarray(a, dtype=np.float64)

    def leq(self, a, b, eps: float | None = None):
        """a <= b in the induced order, up to the tolerance of :meth:`_close`.

        eps defaults to ``default_eps``; 0 compares exactly.  Two floats
        that compare true exactly are decided with no array built, to the
        same ``np.bool_``.
        """
        if eps is None:
            eps = self.default_eps
        if isinstance(a, float) and isinstance(b, float) and (b <= a if self.minimize else a <= b):
            return np.True_
        ok = self._asc(a) <= self._asc(b)
        if eps == 0 or np.count_nonzero(ok) == ok.size:
            return ok
        return np.logical_or(ok, self._close(a, b, eps))

    def eq(self, a, b, eps: float | None = None):
        """a == b up to the tolerance of :meth:`_close`."""
        if eps is None:
            eps = self.default_eps
        same = np.asarray(a) == np.asarray(b)
        if eps == 0 or np.count_nonzero(same) == same.size:
            return same
        return np.logical_or(same, self._close(a, b, eps))

    def _close(self, a, b, eps):
        """Whether |a - b| <= eps in the semifield's own units.

        eps is absolute in the plus semifields and relative to
        max(|a|, |b|) in the times ones.  An infinity is close to nothing;
        the callers have already accepted exact equality.
        """
        with np.errstate(invalid="ignore"):
            diff = np.abs(np.subtract(a, b))  # NaN or inf wherever an infinity is involved
        if not self.times:
            return diff <= eps
        return (diff <= eps * np.maximum(np.abs(a), np.abs(b))) & np.isfinite(diff)

    # -- construction ---------------------------------------------------

    def scalar(self, value) -> "TropicalScalar":
        return TropicalScalar(float(value), self)


MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES = map(Semifield, _TAGS)

SEMIFIELDS = {sf.tag: sf for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)}


def by_tag(tag: str) -> Semifield:
    try:
        return SEMIFIELDS[tag]
    except KeyError:
        known = ", ".join(sorted(SEMIFIELDS))
        raise DomainError(f"unknown semifield tag {tag!r} (expected one of: {known})") from None


@dataclass(frozen=True)
class TropicalScalar:
    """A single semifield element: a float value paired with its semifield.

    Arithmetic operators implement the semifield operations and refuse to
    mix elements of different semifields.
    """

    value: float
    sf: Semifield = field(compare=False)

    def __post_init__(self):
        self.sf.validate(self.value)

    def _check(self, other) -> "TropicalScalar":
        if not isinstance(other, TropicalScalar):
            raise TypeError(f"expected TropicalScalar, got {type(other).__name__}")
        if other.sf is not self.sf:
            raise SemifieldMismatchError(
                f"cannot combine {self.sf.tag} and {other.sf.tag} scalars"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        return TropicalScalar(float(self.sf.add(self.value, other.value)), self.sf)

    def __mul__(self, other):
        other = self._check(other)
        return TropicalScalar(float(self.sf.mul(self.value, other.value)), self.sf)

    def inv(self) -> "TropicalScalar":
        return TropicalScalar(float(self.sf.inv(self.value)), self.sf)

    def __pow__(self, r) -> "TropicalScalar":
        return TropicalScalar(float(self.sf.power(self.value, r)), self.sf)

    def sqrt(self) -> "TropicalScalar":
        return self**0.5

    def __le__(self, other):
        other = self._check(other)
        return bool(self.sf.leq(self.value, other.value))

    def __eq__(self, other):
        if not isinstance(other, TropicalScalar):
            return NotImplemented
        return self.sf is other.sf and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.sf.tag))

    def eq(self, other, eps: float | None = None) -> bool:
        other = self._check(other)
        return bool(self.sf.eq(self.value, other.value, eps))

    def __repr__(self):
        return f"TropicalScalar({self.value!r}, {self.sf.tag!r})"
