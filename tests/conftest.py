import numpy as np
import pytest

import tropt as t
from tropt.errors import DomainError

WORKED = {
    "p": [3, 14],
    "q": [-12, -4],
    "g": [2, -8],
    "h": [6, 8],
    "B": [[0, -4], [-8, -6]],
}

POINTS = [[-7, 12], [2, 10], [-10, 3], [-4, 4], [-4, -3]]
WEIGHTS = [2, 1, 2, 1, 1]


@pytest.fixture
def mp():
    return t.MAX_PLUS


@pytest.fixture
def worked(mp):
    """The 2-D max-plus instance used by all the golden tests."""
    return dict(
        p=t.tvector(mp, WORKED["p"]),
        q=t.tvector(mp, WORKED["q"]),
        g=t.tvector(mp, WORKED["g"]),
        h=t.tvector(mp, WORKED["h"]),
        B=t.tmatrix(mp, WORKED["B"]),
    )


PARTS = ("p", "q", "g", "h", "B")


def planted(rng, n, kind="feasible", *, size=5, step=1.0, density=1.0, parts="Bgh",
            optimum=False):
    """Max-plus data on the lattice of ``step``, built around a planted point x.

    x lies on the half lattice: one offset o, 0 or step / 2, is drawn, then
    x = o + step * [0, size]^n, so in half the draws it falls between the
    lattice points that hold every datum.  With slacks that are multiples
    of step,
    - B_ik = x_i - x_k - c_ik, c in [0, size], absent at the share
      1 - density: no cycle of B weighs above zero, since x solves B x <= x;
    - g = x - o - s and h = x + o + s', s and s' in [0, size // 4], the
      entries of g absent at the share 1 - density: g <= x <= h;
    - p and q are x - o + step * [-size, size]^n, drawn freely: whether the
      optimum comes from sqrt(conj(q) B* p), a box term or a path of B*
      depends on the draw.  With ``optimum`` they are planted instead:
      theta = o + step * [-size, size], p = theta + x - a and
      q = x - theta + b, a and b in [0, size // 2] but a_j = b_j = 0 at one
      index j, so every point has objective at least (p_j - q_j) / 2 =
      theta and x attains it.

    ``parts`` names the parts present among B, g and h.  ``kind`` plants
    defects and brings the parts they need: "cycle" sets the edges of a
    cycle of 1 to n nodes to x_i - x_k and raises one of them by 1 to 3
    steps (TrExceedsOne); "bounds" sets one g_j to h_j + 1 to 3 steps
    (BoundsIncompatible); "both" plants the two.

    Returns a dict of p, q, g, h and B (None where absent), with the
    planted "x", which a defect leaves as it was, and "theta", the optimum
    with ``optimum`` and None otherwise.
    """
    lattice = lambda lo, hi, shape=None: rng.integers(lo, hi + 1, shape) * step
    cycle, bounds = kind in ("cycle", "both"), kind in ("bounds", "both")
    o = step / 2 * rng.integers(2)
    x = o + lattice(0, size, n)
    if optimum:
        theta = float(o + lattice(-size, size))
        a, b = lattice(0, size // 2, (2, n))
        j = rng.integers(n)
        a[j] = b[j] = 0.0
        p, q = theta + x - a, x - theta + b
    else:
        theta = None
        p, q = x - o + lattice(-size, size, (2, n))
    raw = dict(p=p, q=q, g=None, h=None, B=None, x=x, theta=theta)
    if "B" in parts or cycle:
        raw["B"] = np.subtract.outer(x, x) - lattice(0, size, (n, n))
        raw["B"][rng.random((n, n)) >= density] = -np.inf
    if "g" in parts or bounds:
        raw["g"] = x - o - lattice(0, size // 4, n)
        raw["g"][rng.random(n) >= density] = -np.inf
    if "h" in parts or bounds:
        raw["h"] = x + o + lattice(0, size // 4, n)
    if cycle:
        c = rng.permutation(n)[: rng.integers(1, n + 1)]
        nxt = np.roll(c, -1)
        raw["B"][c, nxt] = x[c] - x[nxt]
        raw["B"][c[0], nxt[0]] += lattice(1, 3)
    if bounds:
        i = rng.integers(n)
        raw["g"][i] = raw["h"][i] + lattice(1, 3)
    return raw


def to_sf(sf, v):
    """Max-plus values carried to sf by v, -v, 2^v or 2^-v; None stays None."""
    if v is None:
        return None
    v = np.asarray(v, dtype=np.float64)
    v = -v if sf.minimize else v
    return np.exp2(v) if sf.times else v


def instance(sf, raw):
    """The max-plus data ``raw`` as a ProblemInstance over sf."""
    return t.problem(sf, **{k: to_sf(sf, raw[k]) for k in PARTS})


def _best_cycle(B):
    n = B.shape[0]
    best = float("-inf")
    power = B
    for _ in range(n):
        best = max(best, float(np.diagonal(power).max()))
        power = (power[:, :, None] + B[None, :, :]).max(axis=1)
    return best


def power_trace_loop(a):
    """Reference for power_trace: tr(A) + ... + tr(A^n) from n - 1 full products."""
    trace = lambda m: float(a.sf.add.reduce(np.diagonal(m.data)))
    acc = trace(a)
    power = a
    for _ in range(a.rows - 1):
        power = power @ a
        acc = float(a.sf.add(acc, trace(power)))
    return acc


def theta_forms_agree(B, p, q, eps=None):
    """Check the two closed forms of the linear-constrained optimum agree.

    Compares sqrt(conj(B*(conj(q)B*)^-) p) with sqrt(conj(q) B* p); the
    equality holds for every valid input, so a False return signals a bug.
    """
    sf = p.sf
    if p.is_zero():
        raise DomainError("p must be non-zero")
    if not q.is_regular():
        raise DomainError("q must be regular")
    if not B.power_trace() <= sf.scalar(sf.one):
        raise DomainError("cycle condition violated: no feasible point")
    bstar = B.star()
    qb = q.conj() @ bstar
    compact = (qb @ p).as_scalar().sqrt()
    nested = ((bstar @ qb.conj()).conj() @ p).as_scalar().sqrt()
    return nested.eq(compact, eps)
