"""Numeric inner kernels: tropical products, closure, powers of I + A and the oracle grid scan.

The kernels work on raw float64 encodings and take the semifield ``sf``
whose operations they apply: every product is ``sf.mul`` (or its
``outer`` form) and every sum ``sf.add`` (or its ``reduce`` form), so each
operation is written once for all four semifields.  Within a semifield
carrier the naive float operations are exact: opposite infinities never
meet, so no NaN can appear.  The semifield is tested only for the
direction of its order and, in the grid scan, for the form of the
inverse.

Products and the oracle's grid scan broadcast a rank-3 temporary and
reduce it.  They run over row blocks (:func:`row_blocks`) whose temporary
holds at most ``_BLOCK_ELEMENTS`` elements, a fixed budget: ``matmul``
over the rows of its left factor, the oracle over slabs of its grid, one
:func:`grid_scan` per slab.  Operands that fit in one block run the
unblocked expression.  Blocking changes which rows share a temporary, not
the float operations on any row, so the results are bit-identical, and
the oracle's memory is O(budget + N) for N grid points instead of
O(N n^2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["matmul", "product_trace", "closure", "power_factors", "grid_scan"]


# Elements of the broadcast temporary per row block: 512 KB of float64.
_BLOCK_ELEMENTS = 1 << 16


def row_blocks(rows, row_elements):
    """Slices that cover ``range(rows)`` in order, each a block of whole rows.

    A row costs ``row_elements`` temporary elements; a block holds as many
    rows as fit in ``_BLOCK_ELEMENTS``, and at least one.
    """
    step = max(1, _BLOCK_ELEMENTS // max(1, row_elements))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def matmul(a, b, sf):
    """(m,n) x (n,l) tropical product via broadcasting, over row blocks of a.

    Operands within the budget take the one-line broadcast; larger ones
    reduce the same broadcast block by block into ``out``.
    """
    if a.size * b.shape[1] <= _BLOCK_ELEMENTS:
        return sf.add.reduce(sf.mul(a[:, :, None], b[None, :, :]), axis=1)
    mul, reduce = sf.mul, sf.add.reduce
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.float64)
    for rows in row_blocks(a.shape[0], b.size):
        reduce(mul(a[rows, :, None], b[None, :, :]), axis=1, out=out[rows])
    return out


def product_trace(a, b, sf):
    """Trace of the square product a b, read in O(n^2) as the sum of a_ik b_ki."""
    return float(sf.add.reduce(sf.mul(a, b.T), axis=None))


def closure(a, sf):
    """Plus-closure A + A^2 + A^3 + ... by Carre/Floyd-Warshall elimination.

    One O(n^3) pass over the pivots k, each relaxing every entry through k.
    Returns None as soon as a diagonal entry exceeds the semifield one
    (exact comparison, as in :func:`grid_scan`): a cycle heavier than one
    makes the closure diverge, and further pivots would square its weight
    until the floats overflow or underflow out of the carrier.  Before
    pivot k only d_kk is tested: it then holds the heaviest closed walk
    through k over the lower pivots, so a heavy cycle shows there at its
    highest node.
    """
    d = np.array(a, dtype=np.float64, copy=True)
    better, outer, one, minimize = sf.add, sf.mul.outer, sf.one, sf.minimize
    through = np.empty_like(d)
    for k in range(d.shape[0]):
        if (d[k, k] < one) if minimize else (d[k, k] > one):
            return None
        outer(d[:, k], d[k, :], out=through)
        better(d, through, out=d)
    # Rounding can leave a heavy walk on a diagonal entry whose pivot has
    # passed; one last look keeps the verdict of a test after every pivot.
    diag = np.diagonal(d)
    if (diag < one).any() if minimize else (diag > one).any():
        return None
    return d


def power_factors(a, e, sf):
    """Two factors whose product is (I + A)^e, for e >= 2.

    In an idempotent semiring (I + A)^e is exactly the sum of the powers
    0..e of A.  With e = hi + lo, hi the largest power of two below e, I + A
    is squared up to the exponent hi and the set bits of lo are multiplied
    out on the way, from the lowest up: log2(hi) + popcount(lo) - 1
    products of n x n matrices.  The factors are returned as (lo part,
    hi power); the caller multiplies them, or reads the trace of their
    product with :func:`product_trace`.
    """
    power = np.array(a, dtype=np.float64, copy=True)
    np.fill_diagonal(power, sf.add(sf.one, np.diagonal(power)))
    hi = 1 << ((e - 1).bit_length() - 1)
    lo = e - hi
    part, k = None, 1  # power is (I + A)^k; part collects the bits of lo below 2k
    while True:
        if lo & k:
            part = power if part is None else matmul(part, power, sf)
        if k == hi:
            return part, power
        power = matmul(power, power, sf)
        k <<= 1


def grid_scan(X, B, g, h, p, qc, sf):
    """Feasibility and objective value of every candidate point (row of X).

    A point x is feasible when ``B x <= x`` (semifield order) and
    ``g <= x <= h``; a ``None`` for ``B``, ``g`` or ``h`` drops that
    constraint.  The objective is ``(+)_i inv(x_i) p_i (+) (+)_i qc_i x_i``,
    where qc is the conjugate of q.  Comparisons are exact (eps = 0);
    callers apply their tolerance policy when post-processing the values.
    """
    asc = -1.0 if sf.minimize else 1.0
    feas = np.ones(X.shape[0], dtype=np.bool_)
    if B is not None:
        bx = sf.add.reduce(sf.mul(B[None, :, :], X[:, None, :]), axis=2)
        feas &= (asc * bx <= asc * X).all(axis=1)
    if g is not None:
        feas &= (asc * g[None, :] <= asc * X).all(axis=1)
    if h is not None:
        feas &= (asc * X <= asc * h[None, :]).all(axis=1)
    xinv = 1.0 / X if sf.times else -X
    both = np.concatenate([sf.mul(xinv, p[None, :]), sf.mul(qc[None, :], X)], axis=1)
    return feas, sf.add.reduce(both, axis=1)
