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

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SemifieldMismatchError

__all__ = [
    "SemifieldKind",
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


class SemifieldKind(enum.Enum):
    MAX_PLUS = "max-plus"
    MIN_PLUS = "min-plus"
    MAX_TIMES = "max-times"
    MIN_TIMES = "min-times"


class Semifield:
    """One of the four concrete idempotent semifields.

    All operations accept floats or numpy arrays and are pure.  ``minimize``
    selects min as the additive operation, ``times`` selects ordinary
    multiplication as the multiplicative one.
    """

    __slots__ = ("kind", "minimize", "times", "zero", "one", "top", "default_eps")

    def __init__(self, kind, *, minimize, times, zero, one, top, default_eps):
        self.kind = kind
        self.minimize = minimize
        self.times = times
        self.zero = zero
        self.one = one
        # Greatest element in the induced order; outside the carrier, used
        # only to encode "no upper bound" in box constraints.
        self.top = top
        self.default_eps = default_eps

    @property
    def tag(self) -> str:
        return self.kind.value

    def __repr__(self):
        return f"Semifield({self.tag!r})"

    # -- carrier checks -------------------------------------------------

    def validate(self, values) -> None:
        """Raise DomainError if any value lies outside the carrier.

        Valid input costs one comparison pass; the branches below run only
        to name what is wrong.
        """
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
        """Whether every value lies in the carrier; NaN fails every comparison."""
        if self.times:
            inside = arr > 0 if self.minimize else (arr >= 0) & (arr < _INF)
        else:
            inside = arr > -_INF if self.minimize else arr < _INF
        return bool(inside.all())

    def is_zero(self, a):
        return np.asarray(a) == self.zero if isinstance(a, np.ndarray) else a == self.zero

    # -- the semifield operations ---------------------------------------

    def add(self, a, b):
        """a + b in the semifield (max or min)."""
        return np.minimum(a, b) if self.minimize else np.maximum(a, b)

    def mul(self, a, b):
        """a * b in the semifield (ordinary + or x).

        Within the carrier the naive float operation never produces NaN:
        the two infinities of opposite sign can never meet.
        """
        return np.multiply(a, b) if self.times else np.add(a, b)

    def inv(self, a):
        """Multiplicative inverse; rejects the semifield zero."""
        if np.any(self.is_zero(a)):
            raise DomainError(f"{self.tag}: the semifield zero has no inverse")
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

        eps defaults to ``default_eps``; 0 compares exactly.
        """
        if eps is None:
            eps = self.default_eps
        ok = self._asc(a) <= self._asc(b)
        if eps == 0 or ok.all():
            return ok
        return np.logical_or(ok, self._close(a, b, eps))

    def eq(self, a, b, eps: float | None = None):
        """a == b up to the tolerance of :meth:`_close`."""
        if eps is None:
            eps = self.default_eps
        same = np.asarray(a) == np.asarray(b)
        if eps == 0 or same.all():
            return same
        return np.logical_or(same, self._close(a, b, eps))

    def _close(self, a, b, eps):
        """Whether |a - b| <= eps in the semifield's own units.

        eps is absolute in the plus semifields and relative to
        max(|a|, |b|) in the times ones.  An infinity is close to nothing;
        the callers have already accepted exact equality.
        """
        # Whole oracle grids pass through here, so the work arrays are
        # updated in place: fresh temporaries cost more than the arithmetic.
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        diff = np.empty(shape)
        with np.errstate(invalid="ignore"):
            np.subtract(a, b, out=diff)  # NaN or inf wherever an infinity is involved
        np.abs(diff, out=diff)
        if not self.times:
            return diff <= eps
        tol = np.abs(a, out=np.empty(shape))
        np.maximum(tol, np.abs(b), out=tol)
        tol *= eps
        near = diff <= tol
        near &= np.isfinite(diff)
        return near

    # -- construction ---------------------------------------------------

    def scalar(self, value) -> "TropicalScalar":
        return TropicalScalar(float(value), self)


MAX_PLUS = Semifield(
    SemifieldKind.MAX_PLUS, minimize=False, times=False,
    zero=-_INF, one=0.0, top=_INF, default_eps=1e-9,
)
MIN_PLUS = Semifield(
    SemifieldKind.MIN_PLUS, minimize=True, times=False,
    zero=_INF, one=0.0, top=-_INF, default_eps=1e-9,
)
MAX_TIMES = Semifield(
    SemifieldKind.MAX_TIMES, minimize=False, times=True,
    zero=0.0, one=1.0, top=_INF, default_eps=1e-9,
)
MIN_TIMES = Semifield(
    SemifieldKind.MIN_TIMES, minimize=True, times=True,
    zero=_INF, one=1.0, top=0.0, default_eps=1e-9,
)

SEMIFIELDS = {
    sf.tag: sf for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)
}


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

    def __ge__(self, other):
        other = self._check(other)
        return bool(self.sf.leq(other.value, self.value))

    def __eq__(self, other):
        if not isinstance(other, TropicalScalar):
            return NotImplemented
        return self.sf is other.sf and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.sf.tag))

    def eq(self, other, eps: float | None = None) -> bool:
        other = self._check(other)
        return bool(self.sf.eq(self.value, other.value, eps))

    @property
    def is_zero(self) -> bool:
        return self.value == self.sf.zero

    def __float__(self):
        return self.value

    def __repr__(self):
        return f"TropicalScalar({self.value!r}, {self.sf.tag!r})"
