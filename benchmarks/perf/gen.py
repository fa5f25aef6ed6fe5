"""Seeded problem instances with planted optima.

Every instance is built in the max-plus "exponent domain" around a chosen
optimizer ``x`` and optimum ``theta``, then carried to its semifield by an
isomorphism (negation for min-plus, ``2**v`` for max-times, ``2**-v`` for
min-times).  The construction makes the expected answer known without
running any solver:

* ``p_i = theta + x_i - a_i`` and ``q_i = x_i - theta + b_i`` with slacks
  ``a, b >= 0`` that vanish at one binding index ``j``.  At any ``x'`` the
  objective is at least ``sqrt(p_j q_j^-) = theta`` from coordinate ``j``
  alone, and ``x`` attains it, so ``theta`` is the optimum;
* ``B_ik = x_i - x_k - c_ik`` (or absent), ``g <= x <= h``: ``x`` is
  feasible, so no cycle of ``B`` is positive and the bounds are compatible;
* an infeasible instance either closes one cycle of ``B`` with weight
  ``delta > 0`` ("TrExceedsOne") or sets one ``g_i = h_i + delta``
  ("BoundsIncompatible").

With integer exponent-domain data every semifield value is an integer (plus
semifields) or a power of two (times semifields), so the closed forms are
exact and an answer can be compared for equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAGS = ("max-plus", "min-plus", "max-times", "min-times")
CYCLE = "TrExceedsOne"
BOUNDS = "BoundsIncompatible"


def to_sf(tag: str, v):
    """Carry exponent-domain values to the semifield ``tag``."""
    v = np.asarray(v, dtype=np.float64)
    if tag == "max-plus":
        return v.copy()
    if tag == "min-plus":
        return -v
    if tag == "max-times":
        return np.exp2(v)
    if tag == "min-times":
        return np.exp2(-v)
    raise ValueError(f"unknown semifield tag {tag!r}")


@dataclass
class Raw:
    """A problem in the exponent domain, with its planted answer."""

    p: np.ndarray
    q: np.ndarray
    theta: float
    x: np.ndarray
    B: np.ndarray | None = None
    g: np.ndarray | None = None
    h: np.ndarray | None = None
    reason: str | None = None  # planted infeasibility reason, None if feasible

    def values(self, tag: str) -> dict:
        """The semifield data; absent parts stay None."""
        mk = lambda v: None if v is None else to_sf(tag, v)
        return dict(p=mk(self.p), q=mk(self.q), B=mk(self.B), g=mk(self.g), h=mk(self.h),
                    theta=float(to_sf(tag, self.theta)), x=mk(self.x))


def slack_sampler(rng, integer: bool, hi: float, step: float = 1.0):
    """Nonnegative slacks: multiples of ``step`` up to ``hi``, or uniform reals."""
    if integer:
        k = int(round(hi / step))
        return lambda shape: rng.integers(0, k + 1, size=shape).astype(np.float64) * step
    return lambda shape: rng.uniform(0.0, hi, size=shape)


def plant(rng, x, theta, slack, *, j=None, pinned=False, B_density=0.0, g_density=0.0,
          with_h=False, infeasible=None, delta=1.0, clip=None) -> Raw:
    """Build a planted instance around optimizer ``x`` with optimum ``theta``.

    ``j`` is the binding index (random when None); ``pinned`` sets every
    objective slack to zero, which makes ``x`` the unique optimizer.
    ``B_density`` and ``g_density`` are the shares of present entries (0
    leaves the part out); ``clip`` caps every finite magnitude at that
    value without cutting ``x`` out of the feasible set.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    j = int(rng.integers(n)) if j is None else j
    a = np.zeros(n) if pinned else slack(n)
    b = np.zeros(n) if pinned else slack(n)
    a[j] = b[j] = 0.0
    raw = Raw(p=theta + x - a, q=x - theta + b, theta=float(theta), x=x)
    if B_density > 0 or infeasible == CYCLE:
        B = x[:, None] - x[None, :] - slack((n, n))
        B[rng.random((n, n)) >= B_density] = -np.inf
        raw.B = B
    if g_density > 0 or infeasible == BOUNDS:
        g = x - slack(n)
        g[rng.random(n) >= g_density] = -np.inf
        raw.g = g
    if with_h or infeasible == BOUNDS:
        raw.h = x + slack(n)
    if clip is not None:
        _clip(raw, clip)
    if infeasible == CYCLE:
        length = int(rng.integers(1, n + 1))
        nodes = rng.permutation(n)[:length]
        for k in range(length):
            i, m = nodes[k], nodes[(k + 1) % length]
            raw.B[i, m] = x[i] - x[m]
        raw.B[nodes[0], nodes[1 % length]] += delta
    elif infeasible == BOUNDS:
        i = int(rng.integers(n))
        raw.g[i] = raw.h[i] + delta
    elif infeasible is not None:
        raise ValueError(f"unknown infeasibility {infeasible!r}")
    raw.reason = infeasible
    return raw


def _clip(raw: Raw, d: float) -> None:
    if raw.B is not None:
        B = raw.B
        B[B < -d] = -np.inf
        np.minimum(B, d, out=B)
    if raw.g is not None:
        finite = np.isfinite(raw.g)
        raw.g[finite] = np.maximum(raw.g[finite], -d)
    if raw.h is not None:
        np.minimum(raw.h, d, out=raw.h)


def bounded_raw(rng, n, d, **parts) -> Raw:
    """Integer instance whose largest finite magnitude is exactly ``d``.

    For a plus semifield ``default_grid`` then spans a known number of
    points.  Objective slacks are 0 or 1/2 so that few grid points attain
    the optimum.  ``parts`` go to :func:`plant`; a planted infeasibility
    may push one magnitude past ``d``.
    """
    theta = int(rng.integers(1, d // 2 + 1))
    x = rng.integers(theta - d, d - theta + 1, size=n).astype(np.float64)
    j = int(rng.integers(n))
    x[j] = d - theta  # so p_j = theta + x_j = d
    slack = slack_sampler(rng, True, 0.5, 0.5)
    return plant(rng, x, theta, slack, j=j, clip=d, **parts)


def pow2_raw(rng, n, top_exp, tag, **parts) -> Raw:
    """Feasible instance for a times semifield with a unique optimizer made of
    powers of two in ``[1, 2**top_exp]``, so an integer grid from 1 holds it.
    ``parts`` go to :func:`plant`.
    """
    y = rng.integers(0, top_exp + 1, size=n).astype(np.float64)
    x = y if tag == "max-times" else -y
    theta = int(rng.integers(1, 3))
    return plant(rng, x, theta, slack_sampler(rng, True, 2.0), pinned=True, **parts)
