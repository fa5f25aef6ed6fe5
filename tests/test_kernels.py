"""The numpy kernels must match plain-Python loop references bit for bit.

``matmul_loop``, ``closure_loop`` and ``grid_scan_loop`` below compute the
same results one element at a time, with the semifield's order written out
as comparisons and its product as ``+`` or ``*``: they read only
``sf.minimize`` and ``sf.times``, not the ufuncs the kernels take from
``sf``.  They are slow and serve only as the reference here.
"""

import tracemalloc

import numpy as np
import pytest

import tropt as t
from tropt._kernels import _BLOCK_ELEMENTS, closure, grid_scan, matmul

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


def grid_scan_loop(X, B, g, h, p, qc, sf):
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
        obj = np.inf if minimize else -np.inf
        for i in range(n):
            xi = X[r, i]
            a = (1.0 / xi) * p[i] if times else p[i] - xi
            b = qc[i] * xi if times else qc[i] + xi
            if minimize:
                if a < obj:
                    obj = a
                if b < obj:
                    obj = b
            else:
                if a > obj:
                    obj = a
                if b > obj:
                    obj = b
        vals[r] = obj
    return feas, vals


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
        got, ref = closure(a, sf), closure_loop(a, sf)
        verdicts.append(ref is None)
        assert (got is None) == (ref is None)
        assert ref is None or np.array_equal(got, ref)
    assert 20 < sum(verdicts) < 180


@over_semifields
def test_grid_scan_variants_agree(sf):
    rng = np.random.default_rng(63)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        N = int(rng.integers(1, 200))
        X = rng.integers(-10, 11, size=(N, n)).astype(float)
        B = rng.integers(-6, 1, size=(n, n)).astype(float)
        g = rng.integers(-10, 0, size=n).astype(float)
        h = rng.integers(0, 11, size=n).astype(float)
        p = rng.integers(-10, 11, size=n).astype(float)
        qc = rng.integers(-10, 11, size=n).astype(float)
        if sf.times:
            X, B, g, h, p, qc = (np.exp(v / 8) for v in (X, B, g, h, p, qc))
        if sf.minimize:
            g, h = h, g
        for B_arg in (None, B):
            for g_arg, h_arg in ((None, None), (g, h)):
                args = (X, B_arg, g_arg, h_arg, p, qc, sf)
                f1, v1 = grid_scan(*args)
                f2, v2 = grid_scan_loop(*args)
                assert np.array_equal(f1, f2)
                assert np.array_equal(v1, v2)


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


def test_blocked_matmul_memory_is_bounded():
    a = np.random.default_rng(66).uniform(-8, 8, size=(256, 256))
    tracemalloc.start()
    try:
        matmul(a, a, t.MAX_PLUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6  # the unblocked broadcast takes 134 MB
