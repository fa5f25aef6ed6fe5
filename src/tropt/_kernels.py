"""Numeric inner kernels: tropical products, closure, powers of I + A and the oracle grid scan.

The kernels work on raw float64 encodings and take the semifield ``sf``
whose operations they apply: every product is ``sf.mul`` (or its
``outer`` form) and every sum ``sf.add`` (or its ``reduce`` form), so each
operation is written once for all four semifields.  Within a semifield
carrier the naive float operations are exact: opposite infinities never
meet, so no NaN can appear.  The semifield is tested only for the
direction of its order and, in the grid scan, for the form of the
inverse.

Products broadcast a rank-3 temporary and reduce it.  ``matmul`` runs
over row blocks of its left factor (:func:`row_blocks`) whose temporary
holds at most ``_BLOCK_ELEMENTS`` elements, a fixed budget; operands that
fit in one block run the unblocked expression.  Blocking changes which
rows share a temporary, not the float operations on any row, so the
results are bit-identical.

The oracle's :func:`grid_scan` builds no point and no rank-3 temporary:
it works from the grid's axes, with tables over one or two axes at a
time, so its memory is a few arrays of one entry per grid point.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["matmul", "product_trace", "closure", "power_factors", "grid_scan"]


# Elements of the broadcast temporary per row block: 512 KB of float64.
_BLOCK_ELEMENTS = 1 << 16
# Work arrays from this many elements up start on a 64-byte line.
_ALIGN_ELEMENTS = 1 << 10


def _empty(shape):
    """An uninitialised float64 work array, from ``_ALIGN_ELEMENTS`` up on a 64-byte line.

    ``np.empty`` starts where the allocator says, so a work array's offset
    within its cache lines follows the process's allocation history, and
    :func:`closure` and the blocked :func:`matmul` run up to 1.6x slower
    off the line.  The aligned array is a slice of a buffer seven elements
    longer; below the size floor the slice would cost more than it saves.
    """
    size = math.prod(shape)
    if size < _ALIGN_ELEMENTS:
        return np.empty(shape)
    buf = np.empty(size + 7)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def row_blocks(rows, row_elements):
    """Slices that cover ``range(rows)`` in order, each a block of whole rows.

    A row costs ``row_elements`` temporary elements; a block holds as many
    rows as fit in ``_BLOCK_ELEMENTS``, and at least one.  :func:`matmul` is
    the only caller.
    """
    step = max(1, _BLOCK_ELEMENTS // max(1, row_elements))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def matmul(a, b, sf):
    """(m,n) x (n,l) tropical product via broadcasting, over row blocks of a.

    Operands within the budget take the one-line broadcast; larger ones
    reduce the same broadcast block by block into ``out``, through one
    temporary that every block reuses.
    """
    if a.size * b.shape[1] <= _BLOCK_ELEMENTS:
        return sf.add.reduce(sf.mul(a[:, :, None], b[None, :, :]), axis=1)
    mul, reduce = sf.mul, sf.add.reduce
    out = _empty((a.shape[0], b.shape[1]))
    blocks = row_blocks(a.shape[0], b.size)
    temp = _empty((blocks[0].stop, *b.shape))
    for rows in blocks:
        part = temp[:rows.stop - rows.start]
        reduce(mul(a[rows, :, None], b[None, :, :], out=part), axis=1, out=out[rows])
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
    d = _empty(a.shape)
    d[...] = a
    better, outer, one, minimize = sf.add, sf.mul.outer, sf.one, sf.minimize
    through = _empty(d.shape)
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


def _fold(op, terms, shape):
    """``op`` over ``terms`` from the left, flat; the terms span ``shape`` together.

    The running result takes on the terms' axes as they come, so it stays
    small until a term spans the rest of the grid; from then on it is
    updated in place.
    """
    acc = terms[0]
    for term in terms[1:]:
        acc = op(acc, term, out=acc if acc.shape == shape else None)
    return acc.ravel()


def grid_scan(axes, B, g, h, p, qc, sf):
    """Feasibility and objective value of every point of the product grid.

    ``axes`` holds the n grid axes; the grid's points are all x with x_i in
    ``axes[i]``.  A point is feasible when ``B x <= x`` (semifield order)
    and ``g <= x <= h``; a ``None`` for ``B``, ``g`` or ``h`` drops that
    constraint.  The objective is ``(+)_i inv(x_i) p_i (+) (+)_i qc_i x_i``,
    where qc is the conjugate of q.  Comparisons are exact (eps = 0);
    callers apply their tolerance policy when post-processing the values.
    Both results are flat, in lexicographic (C) order of the points.

    No point is built.  Since (+) is max or min, ``(B x)_i <= x_i`` holds
    exactly when ``b_ij x_j <= x_i`` for every j, a table over axes i and
    j; and the objective is a sum of terms that each live on one axis.
    The terms are summed in the order written above, so that a tie
    between -0.0 and +0.0 resolves as in one reduction over all 2n terms.
    """
    n = len(axes)
    shape = tuple(len(v) for v in axes)
    asc = -1.0 if sf.minimize else 1.0
    x = [v.reshape([-1 if k == i else 1 for k in range(n)]) for i, v in enumerate(axes)]

    def leq(a, b):  # a <= b in the semifield order, over the axes of both
        return asc * a <= asc * b

    # The constraints on axes i and j only (i >= j), ANDed while the
    # tables are small; then the pairs in order of their highest axis.
    tables = {(i, i): [np.ones(x[i].shape, dtype=np.bool_)] for i in range(n)}
    for i in range(n):
        if g is not None:
            tables[i, i].append(leq(g[i], x[i]))
        if h is not None:
            tables[i, i].append(leq(x[i], h[i]))
        if B is not None:
            for j in range(n):
                key = (max(i, j), min(i, j))
                tables.setdefault(key, []).append(leq(sf.mul(B[i, j], x[j]), x[i]))
    pairs = [functools.reduce(np.logical_and, tables[key]) for key in sorted(tables)]
    feas = _fold(np.logical_and, pairs, shape)

    inv = [1.0 / v if sf.times else -v for v in x]
    terms = [sf.mul(inv[i], p[i]) for i in range(n)] + [sf.mul(qc[i], x[i]) for i in range(n)]
    return feas, _fold(sf.add, terms, shape)
