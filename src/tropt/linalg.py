"""Dense matrices and vectors over an idempotent semifield.

A :class:`TropicalMatrix` pairs a read-only float64 array with its
semifield.  Vectors are matrices with a single column (or a single row,
as produced by conjugation and row-vector products).  All operations are
pure and return new matrices.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import DimensionError, DomainError, SemifieldMismatchError
from .semifield import Semifield, TropicalScalar

__all__ = ["TropicalMatrix", "tmatrix", "tvector", "zeros", "identity"]


class TropicalMatrix:
    __slots__ = ("sf", "data")

    def __init__(self, sf: Semifield, data, *, _trusted=False):
        arr = np.array(data, dtype=np.float64, copy=True)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.size == 0:
            raise DimensionError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        if not _trusted:
            sf.validate(arr)
        arr.setflags(write=False)
        self.sf = sf
        self.data = arr

    # -- shape ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_column(self) -> bool:
        return self.cols == 1

    @property
    def is_row(self) -> bool:
        return self.rows == 1

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> float:
        return float(self.data[key])

    def tolist(self):
        return self.data.tolist()

    def column_values(self) -> np.ndarray:
        """The entries of a row or column vector as a flat array."""
        if not (self.is_column or self.is_row):
            raise DimensionError(f"not a vector: shape {self.shape}")
        return self.data.reshape(-1).copy()

    def __repr__(self):
        return f"TropicalMatrix({self.sf.tag!r}, {self.tolist()!r})"

    # -- guards ---------------------------------------------------------

    def _same_sf(self, other: "TropicalMatrix"):
        if not isinstance(other, TropicalMatrix):
            raise TypeError(f"expected TropicalMatrix, got {type(other).__name__}")
        if other.sf is not self.sf:
            raise SemifieldMismatchError(
                f"cannot combine {self.sf.tag} and {other.sf.tag} matrices"
            )

    def _require_square(self, what):
        if not self.is_square:
            raise DimensionError(f"{what} requires a square matrix, got {self.shape}")

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "TropicalMatrix") -> "TropicalMatrix":
        self._same_sf(other)
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch for addition: {self.shape} vs {other.shape}")
        return TropicalMatrix(self.sf, self.sf.add(self.data, other.data), _trusted=True)

    def __matmul__(self, other: "TropicalMatrix") -> "TropicalMatrix":
        self._same_sf(other)
        if self.cols != other.rows:
            raise DimensionError(f"shape mismatch for product: {self.shape} x {other.shape}")
        out = _kernels.matmul(self.data, other.data, self.sf)
        return TropicalMatrix(self.sf, out, _trusted=True)

    def power_trace(self) -> TropicalScalar:
        """Combined trace of the powers 1..n: the heaviest closed walk of length <= n.

        At most one when every cycle weight is at most one; above one exactly
        when the matrix carries a cycle whose weight exceeds the semifield one.
        One elimination runs.  When it converges the value is the trace of
        A A*, by A (A^0 + ... + A^(n-1)) = A + ... + A^n, read in O(n^2) as
        the sum over i, k of a_ik a*_ki.  When it diverges, every cycle above
        one passes through one of its heavy pivots, so the value is the
        heaviest closed walk from those, summed left to right as the powers
        sum it.  When squaring costs less, as for small n or many heavy
        pivots, it is read from (I + A)^n instead, which is one plus the
        power trace: the power trace itself whenever that exceeds one.
        """
        self._require_square("power_trace")
        return TropicalScalar(self._star_and_power_trace()[1], self.sf)

    def star(self) -> "TropicalMatrix":
        """Kleene star: the sum of powers 0..n-1.

        When no cycle exceeds the semifield one, this is I plus the
        plus-closure from one O(n^3) Carre/Floyd-Warshall elimination: the
        powers from n on add nothing.  Otherwise the closure diverges and
        the sum comes from binary exponentiation of I + A: in an idempotent
        semiring (I + A)^k is exactly the sum of powers 0..k, so raising to
        the exponent n-1 reproduces the definition in O(n^3 log n).  The
        solvers take this divergent case only for a cycle that exceeds one
        by no more than the default tolerance, that is by rounding.
        """
        self._require_square("star")
        plus, _ = _kernels.closure(self.data, self.sf)
        return TropicalMatrix(self.sf, self._star_from(plus), _trusted=True)

    def _star_and_power_trace(self):
        """``(star data, power trace)``, with None for the star when a cycle exceeds one.

        The one place where the cycle test compares the power trace with
        one.  One elimination decides.  When it converges the star is I
        plus its closure.  When it diverges the elimination has also picked
        the cheaper route to the power trace by their costs, from the heavy
        count and n: walks from the heavy pivots (|H| n^3) or the trace of
        (I + A)^n (about log2 n products n x n).  A value within the default
        tolerance of one passes the test up to rounding, with the star from
        squaring.
        """
        sf = self.sf
        plus, heavy = _kernels.closure(self.data, sf)
        if plus is not None:
            star = self._star_from(plus)
            trace = _kernels.product_trace(self.data, star, sf)
        elif heavy is not None:
            star, trace = None, _kernels.walk_trace(self.data, heavy, sf)
        else:
            factors = _kernels.power_factors(self.data, self.rows, sf)
            star, trace = None, _kernels.product_trace(*factors, sf)
        if not sf.leq(trace, sf.one):
            return None, trace
        return (self._star_from(None) if star is None else star), trace

    def _star_from(self, plus) -> np.ndarray:
        """I plus the plus-closure, or (I + A)^(n-1) when the closure diverged.

        The closure is the elimination's own work array, which nothing else
        holds, so I is added to it in place: the zero everywhere, which
        changes no value but makes a max-times -0.0 a +0.0 as the sum with
        I does, then the one on the diagonal.
        """
        sf, n = self.sf, self.rows
        if plus is not None:
            sf.add(plus, sf.zero, out=plus)
            np.fill_diagonal(plus, sf.add(np.diagonal(plus), sf.one))
            return plus
        eye = _identity_data(sf, n)
        if n < 3:  # the exponent n - 1 is 0 or 1
            return eye if n == 1 else sf.add(eye, self.data)
        factors = _kernels.power_factors(self.data, n - 1, sf)
        return _kernels.matmul(*factors, sf)

    def conj(self) -> "TropicalMatrix":
        """Multiplicative conjugate transpose of a vector.

        Nonzero components are inverted, zero components stay zero; the
        result is transposed.  Rejects the all-zero vector.
        """
        vals = self.column_values()
        zero_mask = vals == self.sf.zero
        if zero_mask.all():
            raise DomainError("conjugate of the all-zero vector is undefined")
        out = np.empty_like(vals)
        out[zero_mask] = self.sf.zero
        out[~zero_mask] = self.sf.inv(vals[~zero_mask])
        shaped = out.reshape(1, -1) if self.is_column else out.reshape(-1, 1)
        return TropicalMatrix(self.sf, shaped, _trusted=True)

    # -- predicates -----------------------------------------------------

    def is_regular(self) -> bool:
        """True for a vector with no zero components."""
        return not (self.column_values() == self.sf.zero).any()

    def is_column_regular(self) -> bool:
        return bool((self.data != self.sf.zero).any(axis=0).all())

    def is_zero(self) -> bool:
        return bool((self.data == self.sf.zero).all())

    def leq(self, other: "TropicalMatrix", eps: float | None = None) -> bool:
        """Entrywise order comparison in the induced order."""
        self._same_sf(other)
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} vs {other.shape}")
        return bool(self.sf.leq(self.data, other.data, eps).all())

    def eq(self, other: "TropicalMatrix", eps: float | None = None) -> bool:
        self._same_sf(other)
        if self.shape != other.shape:
            return False
        return bool(self.sf.eq(self.data, other.data, eps).all())

    def __eq__(self, other):
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return self.sf is other.sf and self.shape == other.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0: __eq__ treats them as equal, tobytes does not
        return hash((self.sf.tag, (self.data + 0.0).tobytes(), self.shape))

    def as_scalar(self) -> TropicalScalar:
        if self.shape != (1, 1):
            raise DimensionError(f"not a 1x1 matrix: {self.shape}")
        return TropicalScalar(float(self.data[0, 0]), self.sf)


def tmatrix(sf: Semifield, rows) -> TropicalMatrix:
    """Matrix from a nested list of numbers (row-major)."""
    arr = np.array(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a nested list of rows, got shape {arr.shape}")
    return TropicalMatrix(sf, arr)


def tvector(sf: Semifield, values) -> TropicalMatrix:
    """Column vector from a flat list of numbers."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"expected a flat list, got shape {arr.shape}")
    return TropicalMatrix(sf, arr.reshape(-1, 1))


def zeros(sf: Semifield, rows: int, cols: int = 1) -> TropicalMatrix:
    return TropicalMatrix(sf, np.full((rows, cols), sf.zero), _trusted=True)


def identity(sf: Semifield, n: int) -> TropicalMatrix:
    return TropicalMatrix(sf, _identity_data(sf, n), _trusted=True)


def _identity_data(sf: Semifield, n: int) -> np.ndarray:
    arr = np.full((n, n), sf.zero)
    np.fill_diagonal(arr, sf.one)
    return arr
