"""Numeric inner kernels: tropical products, the cycle test and Kleene star, and the grid scan.

The kernels work on raw float64 encodings and take the semifield ``sf``
whose operations they apply, so each operation is written once for all
four semifields.  Within a semifield carrier the naive float operations
are exact: opposite infinities never meet, so no NaN can appear.  Every
loop runs numpy's innermost loop along a contiguous axis; :func:`matmul`
says how, and why the bits do not depend on it.

:func:`star_and_trace` owns the cycle test: one elimination
(:func:`closure`) gives the star or the heavy pivots, the cheaper route
gives the power trace (:func:`walk_trace` or :func:`power_factors`), and
the trace is compared with one.  :func:`grid_scan` is the oracle's scan;
it builds no point and holds one flag per point of the box it scans, and
:func:`nth_true` finds the box indices of the argmins among those flags.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["matmul", "product_trace", "closure", "star_and_trace", "star", "walk_trace",
           "power_factors", "grid_scan", "nth_true"]


# Elements of the broadcast temporary per row block: 512 KB of float64.
_BLOCK_ELEMENTS = 1 << 16
# Work arrays from this many elements up start on a 64-byte line.
_ALIGN_ELEMENTS = 1 << 10
# What one kernel call costs beyond its elements, counted in element
# operations: about 3 us of numpy dispatch at 1.5 ns per element.
_CALL_ELEMENTS = 2048
# Box points per feasible point below which grid_scan gathers the objective's
# terms at the feasible points: a gathered point costs about as much as this
# many points of a pass.
_GATHER = 16


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


def matmul(a, b, sf):
    """(m,n) x (n,l) tropical product via broadcasting, over row blocks.

    numpy's innermost loop runs along the output's last axis.  A narrow
    right factor, 1 < l < m, would make that m n short loops of length l,
    so the product runs as (b^T a^T)^T, with a^T copied to a contiguous
    work array, and the innermost loop runs along m.  Both forms reduce
    each output's n products along a middle axis, in the order
    k = 0 .. n-1, so the bits are the same.  The left factor must hold
    ``_ALIGN_ELEMENTS`` elements or more, so the products of small solves
    keep their form: at n = 3 the two copies cost more than the long loop
    saves.  A single column (l = 1) keeps its form too: numpy reduces a
    contiguous axis in its own order, and its inner loop is already long.

    Operands within the budget take the one-line broadcast; larger ones
    reduce the same broadcast block by block into ``out``, through one
    temporary that every block reuses.
    """
    swap = 1 < b.shape[1] < a.shape[0] and a.size >= _ALIGN_ELEMENTS
    if swap:
        at = _empty(a.shape[::-1])
        at[...] = a.T
        a, b = np.ascontiguousarray(b.T), at
    if a.size * b.shape[1] <= _BLOCK_ELEMENTS:
        out = sf.add.reduce(sf.mul(a[:, :, None], b[None, :, :]), axis=1)
    else:
        mul, reduce = sf.mul, sf.add.reduce
        out = _empty((a.shape[0], b.shape[1]))
        for rows, part, dest in _row_blocks(a, b, out):
            reduce(mul(rows, b[None, :, :], out=part), axis=1, out=dest)
    return np.ascontiguousarray(out.T) if swap else out


def _row_blocks(a, b, out):
    """The row blocks of the product a b into ``out``.

    Per block: its rows of ``a``, shaped (rows, n, 1) for the broadcast,
    a temporary for its terms and its rows of ``out``.  A block holds as
    many rows as fit ``_BLOCK_ELEMENTS`` temporary elements, at least one,
    and every block shares one temporary.  A block reads only its own
    rows of ``a``, and its terms are in the temporary before its rows of
    ``out`` are written, so ``out`` may be ``a``.
    """
    m = a.shape[0]
    step = max(1, _BLOCK_ELEMENTS // b.size)
    temp = _empty((min(step, m), *b.shape))
    return [(a[i:i + step, :, None], temp[:min(step, m - i)], out[i:i + step])
            for i in range(0, m, step)]


def product_trace(a, b, sf):
    """Trace of the square product a b, read in O(n^2) as the sum of a_ik b_ki."""
    return float(sf.add.reduce(sf.mul(a, b.T), axis=None))


def closure(a, sf):
    """Plus-closure A + A^2 + A^3 + ... by Carre/Floyd-Warshall elimination.

    Returns ``(plus, heavy)``.  One O(n^3) pass over the pivots k, each
    relaxing every entry through k.  Before pivot k, d_kk holds the
    heaviest closed walk through k over the lower pivots.  When it
    exceeds the semifield one (exact comparison, as in :func:`grid_scan`)
    k is *heavy*: it is cut out of the graph, row k and column k set to
    the semifield zero, and the elimination goes on.  No pivot before k
    has routed a walk through k yet, so the cut leaves the other entries
    as they were, and no later pivot squares a weight above one until it
    leaves the carrier.  Every cycle above one then passes through a
    heavy pivot: its highest node would otherwise have been flagged.

    When the elimination converges, ``plus`` is the closure and ``heavy``
    is empty.  Otherwise ``plus`` is None and ``heavy`` lists the heavy
    pivots, from which :func:`walk_trace` reads the power trace; or
    ``heavy`` is None, when squaring I + A (:func:`power_factors`) is the
    cheaper route.  The elimination stops as soon as the heavy count
    makes it so.
    """
    n = a.shape[0]
    d = _empty(a.shape)
    d[...] = a
    better, mul, one, zero, minimize = sf.add, sf.mul, sf.one, sf.zero, sf.minimize
    through = _empty(d.shape)
    heavy = []
    for k in range(n):
        if (d[k, k] < one) if minimize else (d[k, k] > one):
            heavy.append(k)
            if not _walk_is_cheaper(len(heavy), n, n - k - 1):
                return None, None
            d[k, :] = zero
            d[:, k] = zero
            continue
        # through_ij = d_kj d_ik: the row copy leaves one broadcast operand.
        through[...] = d[k, :]
        mul(through, d[:, k, None], out=through)
        better(d, through, out=d)
    if heavy:
        return None, heavy
    # Rounding can leave a heavy walk on a diagonal entry whose pivot has
    # passed.  That look names no cycle, so the power trace takes squaring.
    diag = np.diagonal(d)
    if (diag < one).any() if minimize else (diag > one).any():
        return None, None
    return d, []


def star_and_trace(a, sf):
    """``(star, power trace)`` of a square array, with None for the star when a cycle exceeds one.

    The one place where the cycle test compares the power trace with one,
    within the default tolerance.  When :func:`closure` converges the star
    is I plus its closure and the trace is Tr(A A*), in O(n^2).  When it
    diverges, the trace is read on the route it picked, walks from the
    heavy pivots or the trace of (I + A)^n; a trace within the tolerance
    of one passes, with the star from squaring.
    """
    plus, heavy = closure(a, sf)
    bstar = None if plus is None else _add_identity(plus, sf)
    if bstar is not None:
        trace = product_trace(a, bstar, sf)
    elif heavy is not None:
        trace = walk_trace(a, heavy, sf)
    else:
        trace = product_trace(*power_factors(a, a.shape[0], sf), sf)
    if not sf.leq(trace, sf.one):
        return None, trace
    return (_squared_star(a, sf) if bstar is None else bstar), trace


def star(a, sf):
    """Kleene star of a square array, the sum of its powers 0..n-1, with no cycle test.

    I plus the closure when :func:`closure` converges, the powers from n
    on adding nothing; otherwise (I + A)^(n-1) by squaring.
    """
    plus, _ = closure(a, sf)
    return _squared_star(a, sf) if plus is None else _add_identity(plus, sf)


def _add_identity(plus, sf):
    """I + ``plus``, written over ``plus``, the work array of :func:`closure`.

    First the zero everywhere, which changes no value but makes a
    max-times -0.0 a +0.0 as the sum with I does, then the one on the
    diagonal.
    """
    sf.add(plus, sf.zero, out=plus)
    np.fill_diagonal(plus, sf.add(np.diagonal(plus), sf.one))
    return plus


def _squared_star(a, sf):
    """(I + A)^(n-1), in an idempotent semiring the sum of the powers 0..n-1."""
    n = a.shape[0]
    if n > 2:
        return matmul(*power_factors(a, n - 1, sf), sf)
    return _plus_identity(a, sf) if n == 2 else np.full((1, 1), sf.one)


def _walk_is_cheaper(heavy, n, rest):
    """Whether ``rest`` more pivots and :func:`walk_trace` from ``heavy`` nodes beat squaring.

    Costs count element operations.  The walk is n - 1 products
    (heavy, n) x (n, n), after the ``rest`` pivots of n^2 each that the
    elimination has still to run; squaring is the
    ``log2(hi) + popcount(lo) - 1`` products n x n of :func:`power_factors`
    for e = n.  Every kernel call costs ``_CALL_ELEMENTS`` more.  At n = 1
    the walk takes no step.
    """
    if n < 2:
        return True
    hi = 1 << ((n - 1).bit_length() - 1)
    squarings = hi.bit_length() - 1 + (n - hi).bit_count() - 1
    walk = (n - 1) * (_CALL_ELEMENTS + heavy * n * n) + rest * (_CALL_ELEMENTS + n * n)
    return walk < squarings * (_CALL_ELEMENTS + n ** 3)


def walk_trace(a, heavy, sf):
    """Heaviest closed walk of length 1..n of A that starts at a node of ``heavy``.

    The rows ``heavy`` of A, the walks of length one, take n - 1 steps
    ``V <- V (I + A)``, so row h ends holding the heaviest walks of length
    1..n from h.  Every walk is summed left to right, edge by edge, as
    the powers A^k = A^(k-1) A sum it.  That is |heavy| n^3 work, in place
    of the log2 n products n x n of :func:`power_factors`.

    Each step runs over the row blocks of :func:`matmul`, which share one
    temporary, and gives the bits of ``matmul(V, I + A)``.  A row of
    V (I + A) depends only on the same row of V, so each step writes over
    V, and the steps allocate nothing.
    """
    n = a.shape[0]
    walks = a[heavy]  # a copy, updated in place
    if n > 1:
        step = _plus_identity(a, sf)
        blocks = _row_blocks(walks, step, walks)
        mul, reduce, step = sf.mul, sf.add.reduce, step[None, :, :]
        for _ in range(n - 1):
            for rows, part, dest in blocks:
                reduce(mul(rows, step, out=part), axis=1, out=dest)
    return float(sf.add.reduce(walks[range(len(heavy)), heavy]))


def _plus_identity(a, sf):
    """A new array holding I + A."""
    out = np.array(a, dtype=np.float64, copy=True)
    np.fill_diagonal(out, sf.add(sf.one, np.diagonal(out)))
    return out


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
    power = _plus_identity(a, sf)
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
    """Feasibility of the points of the product grid, and the objective at the feasible ones.

    ``axes`` holds the n grid axes; the grid's points are all x with x_i in
    ``axes[i]``.  A point is feasible when ``B x <= x`` (semifield order)
    and ``g <= x <= h``; a ``None`` for ``B``, ``g`` or ``h`` drops that
    constraint.  The objective is ``(+)_i inv(x_i) p_i (+) (+)_i qc_i x_i``,
    where qc is the conjugate of q.  Comparisons are exact (eps = 0);
    callers apply their tolerance policy when post-processing the values.
    Returns ``(flags, (box, vals))``: ``box`` is one slice per axis, the
    whole axes when no box is computed and None when nothing is feasible;
    ``flags`` is flat over the box's points and ``vals`` holds the
    objective at its feasible points, both in lexicographic (C) order.
    The flags come first because the benchmark's tracer reads them as the
    points scanned (``benchmarks/perf/tracer.py``).

    No point is built.  The axes are the rows of one array, padded with
    the semifield one, so that each step on one axis runs once for all n
    axes.  Since (+) is max or min, ``(B x)_i <= x_i`` holds exactly when
    ``b_ij x_j <= x_i`` for every j, a table over axes i and j
    (:func:`_tables`).  Each comparison is one ufunc, ``<=`` or, in the min
    semifields, ``>=``, which is exact because negation is.  At n = 3 the
    three pair tables make two passes over the box below.

    A point outside the box of :func:`_box` fails some table, so the flags
    and the objective are computed over that box only, from sliced views
    of the axes and the tables.  Finding the box costs about 16 kernel
    calls, more than a pass over a grid of under ``16 * _CALL_ELEMENTS``
    points, so such grids are scanned whole, as are unconstrained ones.

    The objective is a sum of 2n terms that each live on one axis.  A run
    of n - 1 consecutive terms spans n - 1 axes, so the terms are summed
    in such runs, in the order written above, and the runs are folded:
    two passes over the box at n = 3.  numpy's maximum and minimum return
    their later operand on equal values, -0.0 and +0.0 included, so a sum
    in that order returns the last of the terms that attain it, however
    it is grouped: every value has the bits of one left-to-right
    reduction over the 2n terms.

    A box of more than ``128 * _CALL_ELEMENTS`` points is summed in slabs
    of whole rows of its first axis, each of at most that many points
    where a row allows, and each slab's feasible values are copied into
    ``vals`` before the next is summed.  The memory the values take is
    then a value per feasible point plus two per slab point, whatever the
    box; a slab's dozen kernel calls cost under an eighth of its pass.

    A box of one slab where at most one point in ``_GATHER`` is feasible
    has its terms gathered at the feasible points instead, and summed
    there in the same runs, so each value is the same reduction of the
    same terms; counting the flags to decide costs about 2% of a pass.
    Gathering holds a flat index, n box indices and 2n terms, about
    100 bytes at n = 3, per feasible point: less than the pass over the
    slab it replaces.
    """
    n = len(axes)
    shape = tuple(len(v) for v in axes)
    X = np.full((n, max(shape)), sf.one)
    for i, v in enumerate(axes):
        X[i, :shape[i]] = v
    tables = _tables(X, shape, B, g, h, sf)

    box = tuple(slice(0, c) for c in shape)
    if tables and math.prod(shape) >= 16 * _CALL_ELEMENTS:
        box = _box(tables, shape)
        if box is None:
            return np.empty(0, dtype=np.bool_), (None, np.empty(0))
        # a table is cut on its own axes and broadcasts, length 1, over the others
        tables = {key: v[tuple(s if d > 1 else slice(None) for s, d in zip(box, v.shape))]
                  for key, v in tables.items()}
    inner = tuple(s.stop - s.start for s in box)
    flags = _fold(np.logical_and, list(tables.values()) or [np.ones(inner, dtype=np.bool_)], inner)

    # Term t lies along axis i = t % n, cut to the box: inv(x_i) p_i for t < n, then qc_i x_i.
    inv = np.divide(1.0, X) if sf.times else np.negative(X)
    lines = [r[i, s] for r in (sf.mul(inv, p[:, None]), sf.mul(qc[:, None], X))
             for i, s in enumerate(box)]
    count = np.count_nonzero(flags)
    rows = max(1, 128 * _CALL_ELEMENTS * inner[0] // flags.size)
    gather = rows >= inner[0] and _GATHER * count <= flags.size
    if gather:
        at = np.unravel_index(np.flatnonzero(flags), inner)
        terms = [v[at[t % n]] for t, v in enumerate(lines)]
    else:
        terms = [v.reshape([-1 if k == t % n else 1 for k in range(n)]) for t, v in enumerate(lines)]
    run = max(1, n - 1)
    runs = [functools.reduce(sf.add, terms[k:k + run]) for k in range(0, 2 * n, run)]
    if gather:
        vals = _fold(sf.add, runs, (count,))
    elif rows >= inner[0]:
        vals = _fold(sf.add, runs, inner)[flags]
    else:
        vals, at = np.empty(count), 0
        for a in range(0, inner[0], rows):
            part = flags.reshape(inner)[a:a + rows]
            k = np.count_nonzero(part)
            vals[at:at + k] = _fold(sf.add, [r[a:a + rows] if len(r) > 1 else r for r in runs],
                                    part.shape)[part.ravel()]
            at += k
    return flags, (box, vals)


def _tables(X, shape, B, g, h, sf):
    """The condition tables of :func:`grid_scan`, keyed by their axes (i, j), i >= j.

    ``X`` holds the axes as rows, padded.  A table spans its axes of the
    grid and has length 1 along the others.  The conditions on one axis,
    ``g_i <= x_i``, ``x_i <= h_i`` and ``b_ii x_i <= x_i``, are one
    comparison each over every axis.  With B present at n >= 2 each pair
    of axes i > j has a table, ``b_ij x_j <= x_i`` and ``b_ji x_i <= x_j``;
    the conditions on axis i join the pair (i, 0), and those on axis 0 the
    pair (1, 0).  Without B, or at n = 1, they form a table (i, i) per axis.
    """
    n = len(shape)
    leq = np.greater_equal if sf.minimize else np.less_equal  # the semifield order
    one_axis = []
    if g is not None:
        one_axis.append(leq(g[:, None], X))
    if h is not None:
        one_axis.append(leq(X, h[:, None]))
    if B is not None:
        one_axis.append(leq(sf.mul(np.diagonal(B)[:, None], X), X))
    if not one_axis:
        return {}
    on = functools.reduce(np.logical_and, one_axis)

    def place(table, axes):  # the table, spanning ``axes`` of the grid
        return table[tuple(slice(c) if k in axes else None for k, c in enumerate(shape))]

    if B is None or n == 1:
        return {(i, i): place(on[i], (i,)) for i in range(n)}
    x = [X[i, :c] for i, c in enumerate(shape)]
    tables = {}
    for i in range(1, n):
        for j in range(i):  # the table over (x_j, x_i)
            both = (leq(sf.mul(B[i, j], x[j][:, None]), x[i])
                    & leq(sf.mul(B[j, i], x[i]), x[j][:, None]))
            if j == 0:  # the first pair on axis i, and for i = 1 on axis 0
                both &= on[i, :shape[i]]
                if i == 1:
                    both &= on[0, :shape[0], None]
            tables[i, j] = place(both, (j, i))
    return tables


def nth_true(flags, ranks):
    """``np.flatnonzero(flags)[ranks]`` for sorted ``ranks``, without an index for every true flag.

    On the flags of :func:`grid_scan` these are flat indices into its box.
    More than ``128 * _CALL_ELEMENTS`` flags, the size of a slab of
    :func:`grid_scan`, are counted in chunks of that many, and only the
    chunks that hold a wanted rank are indexed.
    """
    step = 128 * _CALL_ELEMENTS
    if len(flags) <= step:
        return np.flatnonzero(flags)[ranks]
    out, seen = [], 0
    for start in range(0, len(flags), step):
        chunk = flags[start:start + step]
        count = np.count_nonzero(chunk)
        want = ranks[(ranks >= seen) & (ranks < seen + count)]
        if want.size:
            out.append(start + np.flatnonzero(chunk)[want - seen])
        seen += count
    return np.concatenate(out) if out else ranks


def _box(tables, shape):
    """The box of the grid that every table supports: one slice per axis, or None if empty.

    ``tables`` maps the axes (i, j) of each condition table to the table.
    An index along axis k is supported by a table on axis k when some
    entry of the table there is true, the table's other axis reduced by
    OR; the box keeps, per axis, the indices from the first to the last
    that every such table supports.  This is one sweep of arc consistency
    (Mackworth, "Consistency in networks of relations", *Artificial
    Intelligence* 8(1), 1977): every feasible point lies in the box, and
    when an axis has no supported index nothing is feasible.
    """
    box = []
    for k, size in enumerate(shape):
        support = [v.any(axis=i + j - k).ravel() if i != j else v.ravel()
                   for (i, j), v in tables.items() if k in (i, j)]
        if not support:
            box.append(slice(0, size))
            continue
        hit = np.flatnonzero(functools.reduce(np.logical_and, support))
        if hit.size == 0:
            return None
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)

