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


MAX_TRIES = 10_000
MIXED_B_MAX_N = 4


def random_feasible_instance(rng, n, *, with_box=True, mixed_B=False):
    """Integer max-plus instance with entries in [-10, 10] that is feasible
    by construction: rejection sampling rules out positive cycles in B and,
    when box bounds are present, violations of the closure condition.

    With ``mixed_B`` the share of draws without a positive cycle falls fast
    with n (about 10% at n = 3, 0.7% at n = 4, 0.02% at n = 5), so the
    sampling gives up after MAX_TRIES draws; n <= MIXED_B_MAX_N is safe.
    """
    for _ in range(MAX_TRIES):
        if mixed_B:
            B = rng.integers(-10, 11, size=(n, n)).astype(float)
            np.fill_diagonal(B, rng.integers(-10, 1, size=n))
            if _best_cycle(B) > 0:
                continue
        else:
            B = rng.integers(-10, 1, size=(n, n)).astype(float)
        g = h = None
        if with_box:
            g = rng.integers(-10, 0, size=n).astype(float)
            h = rng.integers(0, 11, size=n).astype(float)
            bstar = t.closure_entries(B)
            if (bstar - h[:, None] + g[None, :]).max() > 0:
                continue
        break
    else:
        raise RuntimeError(
            f"no feasible draw in {MAX_TRIES} tries at n = {n}; random_feasible_instance "
            f"with mixed_B=True supports n <= {MIXED_B_MAX_N}"
        )
    p = rng.integers(-10, 11, size=n).astype(float)
    q = rng.integers(-10, 11, size=n).astype(float)
    return dict(B=B, p=p, q=q, g=g, h=h)


def _best_cycle(B):
    n = B.shape[0]
    best = float("-inf")
    power = B
    for _ in range(n):
        best = max(best, float(np.diagonal(power).max()))
        power = (power[:, :, None] + B[None, :, :]).max(axis=1)
    return best


def as_instance(sf, raw):
    mk = lambda v: None if v is None else t.tvector(sf, v)
    return t.ProblemInstance(
        sf,
        t.tvector(sf, raw["p"]),
        t.tvector(sf, raw["q"]),
        g=mk(raw["g"]),
        h=mk(raw["h"]),
        B=None if raw["B"] is None else t.tmatrix(sf, raw["B"]),
    )


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
