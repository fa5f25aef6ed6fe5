"""The closure against an exact reference on non-integer rational data.

The other closure references run in floats and share the kernels'
rounding.  Here the power trace and the Kleene star are summed in
``fractions.Fraction`` max-plus arithmetic from the exact values of the
float entries, so the library's results must lie within the default
tolerance of the true values.  Min-plus is checked on the negated data.
"""

from fractions import Fraction

import numpy as np
import pytest

import tropt as t

NEG = float("-inf")  # the max-plus zero; it absorbs Fractions under + and loses every max


def _mul(a, b):
    return [[max(a[i][k] + b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def exact_closure(a):
    """The power trace tr(A) + ... + tr(A^n) and the star I + A + ... + A^(n-1),
    in exact max-plus arithmetic."""
    n = len(a)
    star = [[Fraction(0) if i == j else NEG for j in range(n)] for i in range(n)]
    trace, power = NEG, star
    for k in range(1, n + 1):
        power = _mul(power, a)
        trace = max(trace, *(power[i][i] for i in range(n)))
        if k < n:
            star = [[max(s, p) for s, p in zip(srow, prow)] for srow, prow in zip(star, power)]
    return trace, star


def _rational(rng, lo, hi):
    """A random fraction with denominator 3, 7 or 10, never an integer."""
    den = int(rng.choice([3, 7, 10]))
    num = int(rng.integers(lo * den, hi * den))
    if num % den == 0:
        num += 1
    return Fraction(num, den)


def _cases(kind):
    """Max-plus matrices a_ij = pi_j - pi_i + c_ij of non-integer rationals.

    Every cycle weighs the sum of its c_ij, because the potentials pi
    cancel around it.  The c_ij lie below -1/3, and some entries are
    absent.  ``kind`` plants nothing ("contractive"), or one cycle whose
    c_ij sum to 2/3 ("above-one") or to 0 ("at-one"), so no other cycle
    weighs more.  Rounding the entries to floats moves the cycle at one
    off zero by an ulp or so.
    """
    rng = np.random.default_rng({"contractive": 1, "above-one": 2, "at-one": 3}[kind])
    for n in (*range(1, 10), 12):
        for _ in range(4):
            pi = [_rational(rng, -3, 3) for _ in range(n)]
            c = [[_rational(rng, -9, -1 / 3) for _ in range(n)] for _ in range(n)]
            if kind != "contractive":
                cycle = [int(v) for v in rng.permutation(n)[: rng.integers(1, n + 1)]]
                target = Fraction(2, 3) if kind == "above-one" else Fraction(0)
                for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                    c[i][j] = target / len(cycle)
            absent = rng.random((n, n)) < 0.25
            yield np.array([[NEG if absent[i, j] and c[i][j] < 0 else float(pi[j] - pi[i] + c[i][j])
                             for j in range(n)] for i in range(n)])


def _within(sf, value, ref):
    """value is within the default tolerance of the exact ref (both max-plus)."""
    if ref == NEG:
        return value == NEG
    return abs(Fraction(value) - ref) <= Fraction(sf.default_eps)


@pytest.mark.parametrize("kind", ["contractive", "above-one", "at-one"])
@pytest.mark.parametrize("sf", [t.MAX_PLUS, t.MIN_PLUS], ids=lambda sf: sf.tag)
def test_closure_matches_the_exact_reference(sf, kind):
    s = -1.0 if sf.minimize else 1.0
    checked = 0
    for vals in _cases(kind):
        exact = [[NEG if v == NEG else Fraction(v) for v in row] for row in vals]
        ref_trace, ref_star = exact_closure(exact)
        if kind != "at-one":
            assert (ref_trace > 0) == (kind == "above-one")

        a = t.tmatrix(sf, s * vals)
        assert _within(sf, s * a.power_trace().value, ref_trace)
        star = s * a.star().data
        assert all(_within(sf, star[i, j], ref_star[i][j])
                   for i in range(len(vals)) for j in range(len(vals)))

        ones = t.tvector(sf, [sf.one] * len(vals))
        result = t.solve_general(a, ones, ones)
        if kind == "above-one":
            assert result.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
            assert _within(sf, s * result.detail.value, ref_trace)
        else:
            assert isinstance(result, t.SolutionSet)
            assert result.generator == a.star()
        checked += 1
    assert checked == 40
