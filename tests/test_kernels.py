"""The numpy kernels must match plain-Python loop references bit for bit.

``matmul_loop``, ``closure_loop``, ``walk_loop`` and ``grid_scan_loop`` below compute the
same results one element at a time, with the semifield's order written out
as comparisons and its product as ``+`` or ``*``: they read only
``sf.minimize`` and ``sf.times``, not the ufuncs the kernels take from
``sf``.  They are slow and serve only as the reference here;
``grid_scan_stepwise`` is ``grid_scan_loop`` with each step applied to every
point at once, for grids too large for a loop.
``matmul_in_order`` and ``closure_outer`` are numpy references that pin
the signs of zero on ties: the first reduces in k order by numpy's tie
rule, the second forms each pivot with ``sf.mul.outer`` and ``sf.add``.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import tropt as t
from tropt import _kernels
from tropt._kernels import (
    _ALIGN_ELEMENTS, _BLOCK_ELEMENTS, _CALL_ELEMENTS, _box, _walk_is_cheaper, closure, grid_scan,
    matmul, nth_true, walk_trace,
)

SEMIFIELDS = [t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES]
# The ids name each semifield by its (minimize, times) flags.
over_semifields = pytest.mark.parametrize(
    "sf", SEMIFIELDS, ids=lambda sf: f"{sf.minimize}-{sf.times}"
)


def matmul_loop(a, b, sf):
    minimize, times = sf.minimize, sf.times
    m, n = a.shape
    l = b.shape[1]
    out = np.empty((m, l), dtype=np.float64)
    for i in range(m):
        for j in range(l):
            best = np.inf if minimize else -np.inf
            for k in range(n):
                v = a[i, k] * b[k, j] if times else a[i, k] + b[k, j]
                if minimize:
                    if v < best:
                        best = v
                else:
                    if v > best:
                        best = v
            out[i, j] = best
    return out


def closure_loop(a, sf):
    """Elimination that tests the whole diagonal after every pivot."""
    minimize, times = sf.minimize, sf.times
    d = a.copy()
    n = d.shape[0]
    one = 1.0 if times else 0.0
    for k in range(n):
        col, row = d[:, k].copy(), d[k, :].copy()
        for i in range(n):
            for j in range(n):
                v = col[i] * row[j] if times else col[i] + row[j]
                if (v < d[i, j]) if minimize else (v > d[i, j]):
                    d[i, j] = v
        for i in range(n):
            if (d[i, i] < one) if minimize else (d[i, i] > one):
                return None
    return d


def walk_loop(a, starts, sf):
    """Heaviest closed walk of length 1..n from the starts, one walk at a time.

    Each walk's weight is summed edge by edge from its start, and the
    walks of length L + 1 extend those of length L.
    """
    minimize, times = sf.minimize, sf.times
    n = a.shape[0]
    best = np.inf if minimize else -np.inf
    for h in starts:
        row = a[h].copy()
        for _ in range(n):
            best = min(best, row[h]) if minimize else max(best, row[h])
            nxt = np.full(n, np.inf if minimize else -np.inf)
            for l in range(n):
                for j in range(n):
                    v = row[l] * a[l, j] if times else row[l] + a[l, j]
                    if (v < nxt[j]) if minimize else (v > nxt[j]):
                        nxt[j] = v
            row = nxt
    return best


def grid_scan_loop(X, B, g, h, p, qc, sf):
    """Feasibility and objective of each row of X.

    The objective sums the terms inv(x_i) p_i for every i, then qc_i x_i for
    every i; on a tie the later term wins, as numpy's maximum and minimum
    return their second argument, which decides between -0.0 and +0.0.
    """
    minimize, times = sf.minimize, sf.times
    N, n = X.shape
    feas = np.ones(N, dtype=np.bool_)
    vals = np.empty(N, dtype=np.float64)
    for r in range(N):
        ok = True
        if g is not None:
            for i in range(n):
                if (X[r, i] > g[i]) if minimize else (X[r, i] < g[i]):
                    ok = False
                    break
        if ok and h is not None:
            for i in range(n):
                if (X[r, i] < h[i]) if minimize else (X[r, i] > h[i]):
                    ok = False
                    break
        if ok and B is not None:
            for i in range(n):
                best = np.inf if minimize else -np.inf
                for k in range(n):
                    v = B[i, k] * X[r, k] if times else B[i, k] + X[r, k]
                    if minimize:
                        if v < best:
                            best = v
                    else:
                        if v > best:
                            best = v
                if (best < X[r, i]) if minimize else (best > X[r, i]):
                    ok = False
                    break
        feas[r] = ok
        terms = [(1.0 / X[r, i]) * p[i] if times else p[i] - X[r, i] for i in range(n)]
        terms += [qc[i] * X[r, i] if times else qc[i] + X[r, i] for i in range(n)]
        obj = terms[0]
        for v in terms[1:]:
            if (v <= obj) if minimize else (v >= obj):
                obj = v
        vals[r] = obj
    return feas, vals


def grid_scan_stepwise(X, B, g, h, p, qc, sf):
    """``grid_scan_loop`` over all rows of X at once, one comparison or ``np.where`` per step."""
    minimize, times = sf.minimize, sf.times
    below = np.greater_equal if minimize else np.less_equal  # a <= b in the semifield order
    N, n = X.shape
    feas = np.ones(N, dtype=np.bool_)
    for i in range(n):
        if g is not None:
            feas &= below(g[i], X[:, i])
        if h is not None:
            feas &= below(X[:, i], h[i])
        if B is not None:
            best = np.full(N, np.inf if minimize else -np.inf)
            for k in range(n):
                v = B[i, k] * X[:, k] if times else B[i, k] + X[:, k]
                best = np.where(v < best if minimize else v > best, v, best)
            feas &= below(best, X[:, i])
    terms = [(1.0 / X[:, i]) * p[i] if times else p[i] - X[:, i] for i in range(n)]
    terms += [qc[i] * X[:, i] if times else qc[i] + X[:, i] for i in range(n)]
    obj = terms[0]
    for v in terms[1:]:
        obj = np.where(v <= obj if minimize else v >= obj, v, obj)
    return feas, obj


def scan_on_grid(axes, *args):
    """:func:`grid_scan` on ``axes``, its flags of the box put back into the whole grid.

    Returns the flags of every grid point, flat and in C order, and the
    values; a point outside the box is infeasible.  Checks that the flags
    cover the box, and that there are none when the box is None.
    """
    flags, (box, vals) = grid_scan(axes, *args)
    feas = np.zeros([len(v) for v in axes], dtype=np.bool_)
    if box is None:
        assert flags.size == vals.size == 0
    else:
        assert flags.size == feas[box].size
        feas[box] = flags.reshape(feas[box].shape)
    return feas.ravel(), vals


def product_points(axes):
    """Every point of the grid over ``axes``, one per row, in lexicographic order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _random_operands(rng, sf, m, n, l):
    a = rng.integers(-8, 9, size=(m, n)).astype(float)
    b = rng.integers(-8, 9, size=(n, l)).astype(float)
    if sf.times:
        a = np.exp(a / 4)
        b = np.exp(b / 4)
    return a, b


@over_semifields
def test_matmul_variants_agree(sf):
    rng = np.random.default_rng(61)
    for _ in range(50):
        m, n, l = rng.integers(1, 7, size=3)
        a, b = _random_operands(rng, sf, m, n, l)
        got = matmul(a, b, sf)
        assert np.array_equal(got, matmul_loop(a, b, sf))


@over_semifields
def test_matmul_with_zeros_agrees(sf):
    rng = np.random.default_rng(62)
    for _ in range(50):
        m, n, l = rng.integers(1, 6, size=3)
        a, b = _random_operands(rng, sf, m, n, l)
        a[rng.random(a.shape) < 0.3] = sf.zero
        b[rng.random(b.shape) < 0.3] = sf.zero
        got = matmul(a, b, sf)
        assert np.array_equal(got, matmul_loop(a, b, sf))
        assert not np.isnan(got).any()


@over_semifields
def test_closure_variants_agree(sf):
    # Integer and real-valued weights, with and without a cycle above one.
    rng = np.random.default_rng(64)
    verdicts = []
    for k in range(200):
        n = int(rng.integers(1, 8))
        e = rng.integers(-8, 2, size=(n, n)).astype(float)
        if k % 2:
            e += rng.uniform(-0.5, 0.5, size=(n, n))
        e[rng.random((n, n)) < 0.2] = -np.inf
        e = -e if sf.minimize else e
        a = np.exp(e / 4) if sf.times else e
        (got, heavy), ref = closure(a, sf), closure_loop(a, sf)
        verdicts.append(ref is None)
        assert (got is None) == (heavy != []) == (ref is None)
        assert ref is None or np.array_equal(got, ref)
    assert 20 < sum(verdicts) < 180


@over_semifields
def test_heavy_pivots_cover_every_cycle_above_one(sf):
    # n = 48 with two disjoint 2-cycles above one, where walks from two
    # heavy pivots beat squaring.  Cut out of the graph, the heavy pivots
    # leave no cycle above one, and the walks from them give the heaviest
    # closed walk from those starts.
    rng = np.random.default_rng(48)
    n = 48
    for _ in range(3):
        e = -rng.uniform(1, 8, size=(n, n))
        nodes = rng.permutation(n)[:4]
        for i, j in (nodes[:2], nodes[2:]):
            w = rng.uniform(0.2, 1.5)
            e[i, j], e[j, i] = w, -0.6 * w
        e = -e if sf.minimize else e
        a = np.exp(e / 4) if sf.times else e
        plus, heavy = closure(a, sf)
        assert plus is None and len(heavy) == 2
        cut = a.copy()
        cut[heavy, :] = sf.zero
        cut[:, heavy] = sf.zero
        assert closure_loop(cut, sf) is not None
        assert walk_trace(a, heavy, sf) == walk_loop(a, heavy, sf)


@over_semifields
def test_one_heavy_pivot_route_by_size_and_position(sf):
    # One cycle above one, a loop at pivot k; every other cycle is below
    # one.  Squaring reads the detail at every n below 19 and walks from
    # the pivot read it from n = 35 on.  In between, the walks win once
    # few enough pivots are left after k, so along k the routes run from
    # squaring to walks.
    routes = {}
    for n in range(2, 41):
        for k in range(n):
            e = np.full((n, n), -1.0)
            np.fill_diagonal(e, -np.inf)
            e[k, k] = 1.0
            e = -e if sf.minimize else e
            plus, heavy = closure(np.exp(e) if sf.times else e, sf)
            assert plus is None and heavy in (None, [k])
            routes[n] = routes.get(n, "") + ("walk " if heavy else "square ")
    for n, seq in routes.items():
        seq = seq.split()
        if n < 19:
            assert set(seq) == {"square"}, n
        elif n >= 35:
            assert set(seq) == {"walk"}, n
        else:
            assert seq == sorted(seq), n
    assert {"square", "walk"} <= set(routes[19].split())


def _variant_cases(sf, rng):
    """Small product grids, n = 1 to 3, to compare point by point with the loop.

    Yields the axes, their points and the arguments after them: B, g and
    h each absent, present or holding zeros; axes of length 1; in the
    plus semifields -0.0 in p and in conj(q) (from q_i = 0), and axes
    that cross 0, some through -0.0.  Then n = 3 grids whose axes hold 17
    values or more, so that numpy's SIMD loops run along every axis of
    the folds.  Most of their axis values are signed zeros, and so are p
    and conj(q), so that many points tie between -0.0 and +0.0 (in
    max-times only through p and conj(q)).
    """
    for k in range(30):
        n = int(rng.integers(1, 4))
        sizes = [1] * n if k % 10 == 0 else rng.integers(1, 7, size=n)
        axes = [rng.integers(-4, 2) + 0.5 * np.arange(c) for c in sizes]
        if k % 3 == 0:
            axes = [np.where(v == 0, -0.0, v) for v in axes]
        B = rng.integers(-6, 1, size=(n, n)).astype(float)
        g = rng.integers(-4, 1, size=n).astype(float)
        h = rng.integers(0, 3, size=n).astype(float)
        p = rng.integers(-2, 3, size=n).astype(float)
        qc = -rng.integers(-2, 3, size=n).astype(float)
        p[p == 0] = -0.0
        if sf.times:
            axes = [np.exp(v / 8) for v in axes]
            B, g, h, p, qc = (np.exp(v / 8) for v in (B, g, h, p, qc))
        if sf.minimize:
            g, h = h, g
        zeros = [v.copy() for v in (B, g, h)]
        for v in zeros:
            v[rng.random(v.shape) < 0.4] = sf.zero
        X = product_points(axes)
        for B_arg in (None, B, zeros[0]):
            for g_arg in (None, g, zeros[1]):
                for h_arg in (None, h, zeros[2]):
                    yield axes, X, (B_arg, g_arg, h_arg, p, qc, sf)
    for k in range(2):
        values = [-0.0, 0.0, -0.0, 0.0, -1.0, 0.5, 1.5]
        axes = [rng.choice(values, size=c) for c in rng.integers(17, 20, size=3)]
        B = rng.integers(-6, 1, size=(3, 3)).astype(float)
        g = rng.integers(-4, 1, size=3).astype(float)
        h = rng.integers(0, 3, size=3).astype(float)
        p = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, -1.0]][k])
        qc = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]][k])
        if sf.times:
            axes = [np.exp(v / 8) for v in axes]
            B, g, h = (np.exp(v / 8) for v in (B, g, h))
            p, qc = (np.where(v == 0, 1.0 if sf.minimize else v, np.exp(v / 8)) for v in (p, qc))
        if sf.minimize:
            g, h = h, g
        zeros = [v.copy() for v in (B, g, h)]
        for v in zeros:
            v[rng.random(v.shape) < 0.4] = sf.zero
        X = product_points(axes)
        for args in ((None, None, None, p, qc, sf), (B, g, h, p, qc, sf), (*zeros, p, qc, sf)):
            yield axes, X, args


@over_semifields
def test_grid_scan_variants_agree(sf):
    # Every point of each product grid of _variant_cases against the loop, by bytes.
    for axes, X, args in _variant_cases(sf, np.random.default_rng(63)):
        f1, v1 = scan_on_grid(axes, *args)
        f2, v2 = grid_scan_loop(X, *args)
        assert f1.tobytes() == f2.tobytes()
        assert v1.tobytes() == v2[f2].tobytes()


@over_semifields
def test_grid_scan_gathers_the_same_bits(sf, monkeypatch):
    # The objective summed at the gathered feasible points and over the
    # whole box give the same bytes: every grid of _variant_cases against
    # the loop, and of _box_path_cases against the stepwise reference, with
    # the terms always gathered (_GATHER = 1) and never (_GATHER above any
    # box).  Both ways take grids with no feasible point, a few and many.
    shares = set()
    for gather in (1, 10**9):
        monkeypatch.setattr(_kernels, "_GATHER", gather)
        cases = [(grid_scan_loop, c) for c in _variant_cases(sf, np.random.default_rng(63))]
        cases += [(grid_scan_stepwise, c) for c in _box_path_cases(sf, np.random.default_rng(74))]
        for reference, (axes, X, args) in cases:
            f1, v1 = scan_on_grid(axes, *args)
            f2, v2 = reference(X, *args)
            assert f1.tobytes() == f2.tobytes()
            assert v1.tobytes() == v2[f2].tobytes()
            share = v1.size / f1.size
            shares.add("none" if share == 0 else "few" if share <= 1 / 16 else "many")
    assert shares == {"none", "few", "many"}


def test_grid_scan_signed_zero_tie_goes_to_the_later_term():
    # At x = (0, 0) the terms are p_0 - x_0 = 3, p_1 - x_1 = -0.0,
    # q_0^- + x_0 = +0.0 and q_1^- + x_1 = 2: the min-plus sum takes the
    # later of the tied zeros, which an interleaved or q-first order would not.
    sf = t.MIN_PLUS
    axes = [np.array([0.0, 1.0]), np.array([0.0])]
    p, qc = np.array([3.0, -0.0]), np.array([-0.0, 2.0])
    feas, vals = scan_on_grid(axes, None, None, None, p, qc, sf)
    assert feas.tolist() == [True, True]
    assert vals.tobytes() == np.array([0.0, -0.0]).tobytes()
    f2, v2 = grid_scan_loop(product_points(axes), None, None, None, p, qc, sf)
    assert vals.tobytes() == v2[f2].tobytes()


@pytest.mark.parametrize("op", [np.maximum, np.minimum], ids=["maximum", "minimum"])
def test_a_tie_of_signed_zeros_goes_to_the_later_operand(op):
    # grid_scan sums its objective in runs and folds the runs; that keeps
    # the bits of one reduction only while a tie returns the later operand.
    # Scalars; contiguous arrays of lengths 1 to 64 at several offsets, so
    # that numpy's SIMD loops and their tails run, also in place; and the
    # broadcast (a, 1, c) and (1, b, c) operands of the fold.
    for a, b in ((0.0, -0.0), (-0.0, 0.0)):
        assert np.signbit(op(a, b)) == np.signbit(b)
        assert np.signbit(op(np.float64(a), np.float64(b))) == np.signbit(b)
    rng = np.random.default_rng(70)
    for length in range(1, 65):
        for off_a in range(4):
            for off_b in range(4):
                a = np.zeros(length + off_a)[off_a:]
                b = np.zeros(length + off_b)[off_b:]
                a[rng.random(length) < 0.5] = -0.0
                b[rng.random(length) < 0.5] = -0.0
                want = np.signbit(b)
                assert (np.signbit(op(a, b)) == want).all(), (length, off_a, off_b)
                assert (np.signbit(op(a, b, out=a)) == want).all(), (length, off_a, off_b)
    for a_len, b_len, c_len in ((1, 1, 1), (3, 5, 17), (2, 4, 64), (5, 3, 33)):
        left = np.zeros((a_len, 1, c_len))
        right = np.zeros((1, b_len, c_len))
        left[rng.random(left.shape) < 0.5] = -0.0
        right[rng.random(right.shape) < 0.5] = -0.0
        want = np.broadcast_to(np.signbit(right), (a_len, b_len, c_len))
        full = op(left, right)
        assert (np.signbit(full) == want).all()
        later = np.zeros((1, b_len, c_len))  # in place, as the fold's second pass runs
        assert (np.signbit(op(full, later, out=full)) == np.signbit(later)).all()


def _box_path_cases(sf, rng):
    """Grids n = 1 (40,000 points), n = 2 (300 x 300) and n = 3 (40 x 40 x 40).

    Yields the axes, their points and the arguments after them, for every
    way of leaving B, g and h absent, present or holding zeros.  g and h
    fall inside, outside or across the axes, so that the box is cut at
    both ends of an axis, is the whole grid, or is empty.  In the plus
    semifields the axes cross 0, some through -0.0, and p and conj(q)
    hold signed zeros.
    """
    for k, (n, c) in enumerate([(1, 40_000), (2, 300), (3, 40)] * 2):
        starts = rng.integers(-c, 1, size=n)
        axes = [(s + np.arange(c)) / 4 for s in starts]
        if k % 2 == 0:
            axes = [np.where(v == 0, -0.0, v) for v in axes]
        lo = np.array([v[0] for v in axes])
        width = (c - 1) / 4
        B = -np.floor(rng.random((n, n)) * width) / 4
        ends = np.sort(rng.integers(0, c, size=(n, 2)), axis=1) / 4
        g, h = lo + ends[:, 0], lo + ends[:, 1]
        g[k % n] = lo[k % n] - 1  # below the axis
        if k >= 3:
            h[0] = g[0] - 1  # no x_0 between g_0 and h_0
        p = rng.integers(-2, 3, size=n) / 4
        qc = -rng.integers(-2, 3, size=n) / 4
        p[p == 0] = -0.0
        if sf.minimize:  # negation maps max-plus to min-plus, and exp plus to times
            axes = [-v[::-1] for v in axes]
            B, g, h, p, qc = -B, -g, -h, -p, -qc
        if sf.times:
            scale = 8 / width
            axes = [np.exp(v * scale) for v in axes]
            B, g, h = (np.exp(v * scale) for v in (B, g, h))
            p, qc = (np.where(v == 0, 1.0 if sf.minimize else v, np.exp(v * scale)) for v in (p, qc))
        zeros = [v.copy() for v in (B, g, h)]
        for v in zeros:
            v[rng.random(v.shape) < 0.4] = sf.zero
        X = product_points(axes)
        for B_arg in (None, B, zeros[0]):
            for g_arg in (None, g, zeros[1]):
                for h_arg in (None, h, zeros[2]):
                    yield axes, X, (B_arg, g_arg, h_arg, p, qc, sf)


def _box_kind(box, shape):
    return ("empty" if box is None
            else "full" if all(s.stop - s.start == c for s, c in zip(box, shape))
            else "cut" if any(0 < s.start and s.stop < c for s, c in zip(box, shape))
            else "one end")


@over_semifields
def test_grid_scan_box_path_agrees(sf, monkeypatch):
    # Grids from the box step's size floor up (_box_path_cases), against the
    # point-wise reference by bytes.
    assert min(40_000, 300**2, 40**3) >= 16 * _CALL_ELEMENTS
    boxes = []

    def spy(tables, shape):
        box = _box(tables, shape)
        boxes.append(_box_kind(box, shape))
        return box

    monkeypatch.setattr(_kernels, "_box", spy)
    for axes, X, args in _box_path_cases(sf, np.random.default_rng(74)):
        f1, v1 = scan_on_grid(axes, *args)
        f2, v2 = grid_scan_stepwise(X, *args)
        assert f1.tobytes() == f2.tobytes()
        assert v1.tobytes() == v2[f2].tobytes()
    assert {"empty", "full", "cut"} <= set(boxes)


@over_semifields
def test_grid_scan_in_slabs_agrees(sf, monkeypatch):
    # A box of more than 128 * _CALL_ELEMENTS points is summed in slabs of
    # whole rows of its first axis.  With _CALL_ELEMENTS at 64 the grids of
    # _box_path_cases run in slabs of 8,192 points or one row: 5 slabs at
    # n = 1 and 12 at n = 2, each with a short last one, and a cut box
    # whose rows do not divide evenly.
    monkeypatch.setattr(_kernels, "_CALL_ELEMENTS", 64)
    boxes = []

    def spy(tables, shape):
        box = _box(tables, shape)
        if box is not None and math.prod(s.stop - s.start for s in box) > 128 * 64:
            boxes.append(_box_kind(box, shape))
        return box

    monkeypatch.setattr(_kernels, "_box", spy)
    for axes, X, args in _box_path_cases(sf, np.random.default_rng(77)):
        f1, v1 = scan_on_grid(axes, *args)
        f2, v2 = grid_scan_stepwise(X, *args)
        assert f1.tobytes() == f2.tobytes()
        assert v1.tobytes() == v2[f2].tobytes()
    assert {"full", "cut"} <= set(boxes)


def test_nth_true_matches_flatnonzero():
    # Flag arrays below, at and above the 2^18-flag chunk, with true flags
    # sparse, dense, only in the first or last chunk, or none; the ranks
    # are none, the first and last, ranks on both sides of a chunk's end,
    # and random ones.
    rng = np.random.default_rng(78)
    step = 128 * _CALL_ELEMENTS
    assert step == 1 << 18
    for size in (1, 1000, step, step + 1, 3 * step - 5, 10**6):
        for density in (0.0, 1e-5, 0.01, 0.5, 1.0):
            flags = rng.random(size) < density
            for part in (slice(None), slice(0, min(step, size)), slice(max(0, size - 7), None)):
                only = np.zeros(size, dtype=np.bool_)
                only[part] = flags[part]
                every = np.flatnonzero(only)
                count = every.size
                picks = [np.empty(0, dtype=np.intp), np.array([0, count - 1]),
                         np.sort(rng.choice(count, size=min(count, 50), replace=False))]
                ends = np.cumsum([np.count_nonzero(only[a:a + step]) for a in range(0, size, step)])
                picks.append(np.unique(np.clip(np.concatenate([ends - 1, ends]), 0, count - 1)))
                for ranks in picks:
                    ranks = np.unique(ranks[(ranks >= 0) & (ranks < count)]).astype(np.intp)
                    got = nth_true(only, ranks)
                    assert got.dtype == np.intp and got.tolist() == every[ranks].tolist()


def test_box_is_none_exactly_when_an_axis_has_no_supported_value():
    # Random tables over one or two axes of grids up to 5 x 5 x 5, against
    # the support of each index taken one at a time.
    rng = np.random.default_rng(75)
    kinds = set()
    for _ in range(400):
        n = int(rng.integers(1, 4))
        shape = tuple(int(c) for c in rng.integers(1, 6, size=n))
        keys = [(i, j) for i in range(n) for j in range(i) if rng.random() < 0.8]
        keys += [(i, i) for i in range(n) if rng.random() < 0.4]
        density = rng.choice([0.05, 0.3, 0.9])
        tables = {key: rng.random([c if a in key else 1 for a, c in enumerate(shape)]) < density
                  for key in sorted(keys)}
        box = _box(tables, shape)
        support = [np.flatnonzero([all(v.take(m, axis=a).any() for key, v in tables.items() if a in key)
                                   for m in range(shape[a])])
                   for a in range(n)]
        if any(s.size == 0 for s in support):
            assert box is None
            kinds.add("empty")
            continue
        assert box == tuple(slice(s[0], s[-1] + 1) for s in support)
        flags = functools.reduce(np.logical_and, tables.values(), np.ones(shape, dtype=np.bool_))
        inside = np.zeros(shape, dtype=np.bool_)
        inside[box] = True
        assert not (flags & ~inside).any()  # the box holds every point that passes every table
        kinds.add("full" if inside.all() else "cut")
    assert kinds == {"empty", "full", "cut"}


def test_grid_scan_memory_is_one_flag_per_point_and_one_value_per_box_and_feasible_point():
    # g and h leave the box 89^3 of the 100^3 points, and 46% of the grid
    # is feasible.  The flags cover the box only.
    sf = t.MAX_TIMES
    axes = [np.arange(1.0, 101.0)] * 3
    B = np.array([[0.5, 0.25, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.4]])
    g, h = np.full(3, 2.0), np.full(3, 90.0)
    p, qc = np.array([4.0, 2.0, 1.0]), np.array([4.0, 2.0, 1.0])
    tracemalloc.start()
    try:
        feas, (box, vals) = grid_scan(axes, B, g, h, p, qc, sf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box == (slice(1, 90),) * 3
    assert feas.size == 89**3 and vals.size == feas.sum() == 462_189
    # a flag and 9 bytes a box point, and 8 bytes a feasible point: 10.8 MB (8.3 MB measured)
    assert peak < 1 * 89**3 + 9 * 89**3 + 8 * vals.size


def test_grid_scan_memory_of_a_whole_box_is_one_slab(monkeypatch):
    # The box is the whole 100^3 grid and 63% of it is feasible.  The
    # objective is summed in slabs of at most 128 * _CALL_ELEMENTS points,
    # so the scan holds a flag a box point, a value a feasible point, and one
    # slab's sums and feasible values: 10.3 MB, where one pass over the
    # grid holds 8 bytes a point more.  The slabs give the bytes of that
    # one pass, taken with the box step and the slabs turned off.
    sf = t.MAX_TIMES
    axes = [np.arange(1.0, 101.0)] * 3
    B = np.array([[0.5, 0.25, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.4]])
    g, h = np.full(3, 1.0), np.full(3, 100.0)
    p, qc = np.array([4.0, 2.0, 1.0]), np.array([4.0, 2.0, 1.0])
    tracemalloc.start()
    try:
        feas, (box, vals) = grid_scan(axes, B, g, h, p, qc, sf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box == (slice(0, 100),) * 3
    assert vals.size == feas.sum() == 632_830
    assert peak < 1 * feas.size + 8 * vals.size + 16 * 128 * _CALL_ELEMENTS
    monkeypatch.setattr(_kernels, "_CALL_ELEMENTS", 10**6)
    f1, (b1, v1) = grid_scan(axes, B, g, h, p, qc, sf)
    assert b1 == box and f1.tobytes() == feas.tobytes() and v1.tobytes() == vals.tobytes()


def test_grid_scan_memory_of_a_sparse_whole_box_is_one_slab():
    # The box is the whole 100^3 grid and 5.9% of it is feasible, under one
    # point in _GATHER, but the box is many slabs: the slabs bound the
    # memory, where gathering the terms at the feasible points takes about
    # 100 bytes each, 6.7 MB in all.
    sf = t.MAX_TIMES
    axes = [np.arange(1.0, 101.0)] * 3
    B = np.full((3, 3), 0.76)
    np.fill_diagonal(B, 0.5)
    g, h = np.full(3, 1.0), np.full(3, 100.0)
    p, qc = np.array([4.0, 2.0, 1.0]), np.array([4.0, 2.0, 1.0])
    tracemalloc.start()
    try:
        feas, (box, vals) = grid_scan(axes, B, g, h, p, qc, sf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box == (slice(0, 100),) * 3
    assert vals.size == feas.sum() == 58_720
    assert _kernels._GATHER * vals.size <= feas.size
    assert peak < 1 * feas.size + 8 * vals.size + 16 * 128 * _CALL_ELEMENTS  # 4.0 MB measured


def walk_by_products(a, heavy, sf):
    """:func:`walk_trace` as n - 1 products from ``matmul``, each into a new array."""
    n = a.shape[0]
    walks = a[heavy]
    step = a.copy()
    np.fill_diagonal(step, sf.add(sf.one, np.diagonal(step)))
    for _ in range(n - 1):
        walks = matmul(walks, step, sf)
    return sf.add.reduce(walks[range(len(heavy)), heavy])


@over_semifields
def test_walk_trace_by_bytes(sf):
    # Signed zeros and ties on every step; n on both sides of the block
    # budget, with a last row block shorter than the rest (n = 130, three
    # rows a block) and one row a block over budget (n = 257).
    rng = np.random.default_rng(71)
    for n, starts in ((1, 1), (2, 2), (5, 3), (64, 5), (130, 5), (257, 2)):
        for mix in range(3):
            a = _tie_operands(rng, sf, n, n, n, mix)[0]
            heavy = sorted(rng.choice(n, size=starts, replace=False).tolist())
            got = np.float64(walk_trace(a, heavy, sf))
            assert got.tobytes() == np.float64(walk_by_products(a, heavy, sf)).tobytes(), (n, mix)


@over_semifields
@pytest.mark.parametrize("m,n,l", [(97, 40, 40), (3, 260, 260), (45, 30, 70)])
def test_blocked_matmul_agrees(sf, m, n, l):
    # Above the element budget, with a last row block shorter than the rest
    # (or one row per block when a single row exceeds the budget).
    rows_per_block = max(1, _BLOCK_ELEMENTS // (n * l))
    assert m * n * l > _BLOCK_ELEMENTS and (rows_per_block == 1 or m % rows_per_block)
    rng = np.random.default_rng(65)
    a, b = _random_operands(rng, sf, m, n, l)
    a[rng.random(a.shape) < 0.3] = sf.zero
    b[rng.random(b.shape) < 0.3] = sf.zero
    got = matmul(a, b, sf)
    assert np.array_equal(got, matmul_loop(a, b, sf))
    assert not np.isnan(got).any()


def matmul_in_order(a, b, sf):
    """Products reduced over k = 0 .. n-1 in order, by numpy's tie rule.

    numpy's maximum and minimum return their second argument on a tie, so
    a later product replaces an equal earlier one, which decides between
    -0.0 and +0.0.  A single column (l = 1) is the exception: numpy reduces
    a contiguous axis in its own order, so each of its outputs is one 1-D
    reduction of the n products.
    """
    minimize, times = sf.minimize, sf.times
    m, n = a.shape
    l = b.shape[1]
    if l == 1:
        best = np.minimum if minimize else np.maximum
        products = a * b[:, 0] if times else a + b[:, 0]
        return np.array([[best.reduce(row)] for row in products])
    out = None
    for k in range(n):
        v = a[:, k, None] * b[None, k, :] if times else a[:, k, None] + b[None, k, :]
        out = v if out is None else np.where((v <= out) if minimize else (v >= out), v, out)
    return out


def _tie_operands(rng, sf, m, n, l, mix):
    """Operands whose products tie often.

    ``mix`` 0 draws signed zeros and the semifield zero, so that every
    output is a tie between zeros; 1 adds a value below one and 2 one above.
    min-times has no signed zero: its ties fall on one.
    """
    if sf.times and sf.minimize:
        vals = [1.0, np.inf, 2.0, 0.5]
    elif sf.times:
        vals = [0.0, -0.0, 0.5, 2.0]
    else:
        vals = [-0.0, 0.0, sf.zero, 1.0 if sf.minimize else -1.0, -1.0 if sf.minimize else 1.0]
    vals = vals[:len(vals) - 2 + mix]
    return rng.choice(vals, size=(m, n)), rng.choice(vals, size=(n, l))


# l < m, l = m and l > m, m = 1 and l = 1, on both sides of the size floor
# _ALIGN_ELEMENTS (on a) and of _BLOCK_ELEMENTS (on m n l).
PRODUCT_SHAPES = [
    (300, 300, 1), (200, 200, 2), (97, 40, 3), (260, 300, 2), (32, 32, 2), (31, 33, 2),
    (64, 64, 1), (40, 40, 40), (41, 41, 41), (3, 40, 97), (1, 300, 300), (1, 50, 1),
    (5, 8, 2), (2, 3, 1), (2, 300, 2),
]


@over_semifields
def test_products_by_bytes(sf):
    floor = {(m, n, l): m * n >= _ALIGN_ELEMENTS for m, n, l in PRODUCT_SHAPES}
    block = {(m, n, l): m * n * l > _BLOCK_ELEMENTS for m, n, l in PRODUCT_SHAPES}
    assert set(floor.values()) == set(block.values()) == {True, False}
    rng = np.random.default_rng(68)
    for m, n, l in PRODUCT_SHAPES:
        for mix in range(3):
            a, b = _tie_operands(rng, sf, m, n, l, mix)
            got = matmul(a, b, sf)
            assert got.flags.c_contiguous
            assert got.tobytes() == matmul_in_order(a, b, sf).tobytes(), (m, n, l)


def test_blocked_matmul_memory_is_bounded():
    a = np.random.default_rng(66).uniform(-8, 8, size=(256, 256))
    tracemalloc.start()
    try:
        matmul(a, a, t.MAX_PLUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # the unblocked broadcast takes 134 MB


def test_large_work_arrays_start_on_a_cache_line():
    # Whatever the allocations before them, closure's result and a blocked
    # product start on a 64-byte line; a small closure takes plain np.empty.
    rng = np.random.default_rng(67)
    a = -rng.uniform(0.5, 8, size=(64, 64))
    np.fill_diagonal(a, -1.0)
    kept = []
    for _ in range(8):
        kept.append(np.empty(int(rng.integers(1, 64))))
        assert closure(a, t.MAX_PLUS)[0].ctypes.data % 64 == 0
        assert matmul(a, a, t.MAX_PLUS).ctypes.data % 64 == 0
    small = closure(a[:8, :8], t.MAX_PLUS)[0]
    assert small.base is None and np.array_equal(small, closure_loop(a[:8, :8], t.MAX_PLUS))


def closure_outer(a, sf):
    """:func:`closure` with each pivot's terms from ``sf.mul.outer``, then ``sf.add``."""
    n = a.shape[0]
    d = a.copy()
    through = np.empty_like(d)
    heavy = []
    for k in range(n):
        if (d[k, k] < sf.one) if sf.minimize else (d[k, k] > sf.one):
            heavy.append(k)
            if not _walk_is_cheaper(len(heavy), n, n - k - 1):
                return None, None
            d[k, :] = sf.zero
            d[:, k] = sf.zero
            continue
        sf.mul.outer(d[:, k], d[k, :], out=through)
        sf.add(d, through, out=d)
    if heavy:
        return None, heavy
    diag = np.diagonal(d)
    if (diag < sf.one).any() if sf.minimize else (diag > sf.one).any():
        return None, None
    return d, []


@over_semifields
def test_elimination_by_bytes(sf):
    # Real weights with +-0.0 entries (+-0.0 and 0.0 in max-times), n = 1 to
    # 100, so that work arrays both below and above the alignment floor run.
    # Each n also runs with a heavy pivot first, in the middle and last.
    # The elimination keeps its work array after a cut to itself, so there
    # the route and the heavy pivots are compared, and the closure of the
    # graph with that pivot cut out by bytes.
    rng = np.random.default_rng(69)
    heavy_loop = {(False, False): 1.0, (True, False): -1.0, (False, True): 4.0, (True, True): 0.25}[
        sf.minimize, sf.times]
    for n in range(1, 101):
        e = -rng.uniform(0.5, 8, size=(n, n))
        e[rng.random((n, n)) < 0.1] = -np.inf
        np.fill_diagonal(e, -1.0)
        signs = rng.random((n, n)) < 0.1
        e = -e if sf.minimize else e
        base = np.exp(e / 4) if sf.times else e
        if sf.times and sf.minimize:  # no signed zero in the carrier: ties at one
            base[signs] = 1.0
        else:
            base[signs] = -0.0
            base[signs & (rng.random((n, n)) < 0.5)] = 0.0
        got, ref = closure(base, sf), closure_outer(base, sf)
        assert got[1] == ref[1] == []
        assert got[0].tobytes() == ref[0].tobytes(), n
        for k in sorted({0, n // 2, n - 1}):
            a = base.copy()
            a[k, k] = heavy_loop
            got, ref = closure(a, sf), closure_outer(a, sf)
            assert got[0] is ref[0] is None and got[1] == ref[1], (n, k)
            a[k, :] = sf.zero
            a[:, k] = sf.zero
            got, ref = closure(a, sf), closure_outer(a, sf)
            assert got[0].tobytes() == ref[0].tobytes(), (n, k)
