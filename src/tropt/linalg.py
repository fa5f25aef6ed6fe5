"""Dense matrices and vectors over an idempotent semifield.

A :class:`TropicalMatrix` pairs a read-only float64 array with its
semifield.  Vectors are matrices with a single column (or a single row,
as produced by conjugation and row-vector products).  All operations are
pure and return new matrices; the arithmetic is in :mod:`tropt._kernels`.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import DimensionError, DomainError, SemifieldMismatchError
from .semifield import Semifield, TropicalScalar

__all__ = ["TropicalMatrix", "tmatrix", "tvector", "zeros", "identity", "conj_values"]


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

        Above one exactly when some cycle weighs more than the semifield
        one.  See :func:`tropt._kernels.star_and_trace` for how it is read.
        """
        self._require_square("power_trace")
        return TropicalScalar(_kernels.star_and_trace(self.data, self.sf)[1], self.sf)

    def star(self) -> "TropicalMatrix":
        """Kleene star: the sum of powers 0..n-1 (:func:`tropt._kernels.star`)."""
        self._require_square("star")
        return TropicalMatrix(self.sf, _kernels.star(self.data, self.sf), _trusted=True)

    def conj(self) -> "TropicalMatrix":
        """Multiplicative conjugate transpose of a vector.

        Nonzero components are inverted, zero components stay zero; the
        result is transposed.  Rejects the all-zero vector.
        """
        out = conj_values(self.sf, self.column_values())
        shaped = out.reshape(1, -1) if self.is_column else out.reshape(-1, 1)
        return TropicalMatrix(self.sf, shaped, _trusted=True)

    # -- predicates -----------------------------------------------------

    def is_regular(self) -> bool:
        """True for a vector with no zero components."""
        if not (self.is_column or self.is_row):
            raise DimensionError(f"not a vector: shape {self.shape}")
        return not np.count_nonzero(self.data == self.sf.zero)

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


def conj_values(sf: Semifield, values) -> np.ndarray:
    """The conjugate's entries of a raw vector, in its shape: nonzero entries
    inverted, zero entries left zero.  Rejects the all-zero vector."""
    nonzero = values != sf.zero
    if not np.count_nonzero(nonzero):
        raise DomainError("conjugate of the all-zero vector is undefined")
    out = values.copy()  # its zeros stay
    return (np.divide(1.0, values, out=out, where=nonzero) if sf.times
            else np.negative(values, out=out, where=nonzero))


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
    arr = np.full((n, n), sf.zero)
    np.fill_diagonal(arr, sf.one)
    return TropicalMatrix(sf, arr, _trusted=True)
