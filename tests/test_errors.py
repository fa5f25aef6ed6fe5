"""Error classes and messages for invalid input, and the carrier check on results.

The messages are pinned verbatim: callers and the CLI report them as they are.
"""

import numpy as np
import pytest

import tropt as t
from tropt.errors import DimensionError, DomainError, SemifieldMismatchError
from tropt.probfile import report_dict

NAN, INF = float("nan"), float("inf")

# (semifield, bad value, message of Semifield.validate)
BAD_VALUES = [
    (t.MAX_PLUS, NAN, "max-plus: NaN is not a semifield value"),
    (t.MAX_PLUS, INF, "max-plus: value outside carrier"),
    (t.MIN_PLUS, NAN, "min-plus: NaN is not a semifield value"),
    (t.MIN_PLUS, -INF, "min-plus: value outside carrier"),
    (t.MAX_TIMES, NAN, "max-times: NaN is not a semifield value"),
    (t.MAX_TIMES, INF, "max-times: +inf is not a max-times value"),
    (t.MAX_TIMES, -INF, "max-times: values must be nonnegative"),
    (t.MAX_TIMES, -1.0, "max-times: values must be nonnegative"),
    (t.MIN_TIMES, NAN, "min-times: NaN is not a semifield value"),
    (t.MIN_TIMES, -INF, "min-times: values must be nonnegative"),
    (t.MIN_TIMES, -1.0, "min-times: values must be nonnegative"),
    (t.MIN_TIMES, 0.0, "min-times: finite values must be positive"),
    (t.MIN_TIMES, -0.0, "min-times: finite values must be positive"),
]


@pytest.mark.parametrize("sf, bad, message", BAD_VALUES,
                         ids=[f"{sf.tag}-{bad!r}" for sf, bad, _ in BAD_VALUES])
def test_invalid_values_are_named(sf, bad, message):
    def raises(build):
        with pytest.raises(DomainError) as info:
            build()
        assert type(info.value) is DomainError
        assert str(info.value) == message

    raises(lambda: sf.validate(bad))
    raises(lambda: sf.validate(np.array([[sf.one, bad], [sf.zero, sf.one]])))
    raises(lambda: t.tvector(sf, [sf.one, bad]))
    raises(lambda: t.TropicalScalar(bad, sf))


@pytest.mark.parametrize("sf, values, message", [
    (t.MAX_TIMES, [-1.0, INF, NAN], "max-times: NaN is not a semifield value"),
    (t.MAX_TIMES, [INF, -1.0], "max-times: values must be nonnegative"),
    (t.MIN_TIMES, [0.0, -1.0], "min-times: values must be nonnegative"),
])
def test_the_first_failing_rule_names_the_error(sf, values, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        sf.validate(values)


@pytest.mark.parametrize("sf", t.SEMIFIELDS.values(), ids=lambda sf: sf.tag)
def test_solver_preconditions_are_named(sf):
    one, zero = sf.one, sf.zero
    good = t.tvector(sf, [one, one])
    gap = t.tvector(sf, [one, zero])
    none = t.tvector(sf, [zero, zero])
    B = t.tmatrix(sf, [[one, zero], [zero, one]])
    cases = [
        (lambda: t.solve_unconstrained(gap, good), "p must be regular"),
        (lambda: t.solve_unconstrained(good, gap), "q must be regular"),
        (lambda: t.solve_linear_constrained(B, none, good), "p must be non-zero"),
        (lambda: t.solve_linear_constrained(B, good, gap), "q must be regular"),
        (lambda: t.solve_box_constrained(gap, good, good, good), "p must be regular"),
        (lambda: t.solve_box_constrained(good, gap, good, good), "q must be regular"),
        (lambda: t.solve_box_constrained(good, good, gap, good), "g must be regular"),
        (lambda: t.solve_box_constrained(good, good, good, gap), "h must be regular"),
        (lambda: t.solve_general(B, none, good), "p must be non-zero"),
        (lambda: t.solve_general(B, good, gap), "q must be regular"),
        (lambda: t.solve_general(None, good, good, None, gap), "h must be regular"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as info:
            call()
        assert type(info.value) is DomainError
        assert str(info.value) == message


def test_shape_and_semifield_guards_are_named():
    sf, other = t.MAX_PLUS, t.MIN_PLUS
    good, row = t.tvector(sf, [0, 0]), t.tmatrix(sf, [[0, 0]])
    wide = t.tmatrix(sf, [[0, -1, -1], [-1, 0, -1]])
    cases = [
        (lambda: t.ProblemInstance(sf, row, good), DimensionError, "p must be a column vector"),
        (lambda: t.ProblemInstance(sf, good, t.tvector(other, [0, 0])),
         SemifieldMismatchError, "q has semifield min-plus"),
        (lambda: t.ProblemInstance(sf, good, good, B=t.tmatrix(other, [[0, 0], [0, 0]])),
         SemifieldMismatchError, "B has semifield min-plus"),
        (lambda: t.ProblemInstance(sf, good, good, B=wide), DimensionError,
         "B must be 2x2, got (2, 3)"),
        (lambda: t.solve_general(wide, good, good), DimensionError, "B must be 2x2, got (2, 3)"),
        (wide.power_trace, DimensionError, "power_trace requires a square matrix, got (2, 3)"),
        (wide.star, DimensionError, "star requires a square matrix, got (2, 3)"),
        (lambda: t.exact_min(t.problem(sf, [-INF, -INF], [0, 0])), DomainError,
         "exact_min needs p non-zero and q and h regular"),
        (lambda: t.exact_min(t.ProblemInstance(sf, good, good, h=t.tvector(sf, [0, -INF]))),
         DomainError, "exact_min needs p non-zero and q and h regular"),
        (lambda: t.GridSpec(np.zeros(2), np.ones(3)), DomainError,
         "grid bounds must be flat vectors of equal length"),
        (lambda: t.GridSpec(np.zeros((2, 1)), np.ones((2, 1))), DomainError,
         "grid bounds must be flat vectors of equal length"),
        (lambda: t.TropicalMatrix(sf, []), DimensionError,
         "expected a non-empty 2-D array, got shape (0, 1)"),
        (lambda: t.TropicalMatrix(sf, np.zeros((1, 1, 1))), DimensionError,
         "expected a non-empty 2-D array, got shape (1, 1, 1)"),
        (lambda: t.tmatrix(sf, [0, 0]), DimensionError,
         "expected a nested list of rows, got shape (2,)"),
        (wide.column_values, DimensionError, "not a vector: shape (2, 3)"),
        (wide.as_scalar, DimensionError, "not a 1x1 matrix: (2, 3)"),
        (lambda: good.leq(row), DimensionError, "shape mismatch: (2, 1) vs (1, 2)"),
        (lambda: good.leq([0, 0]), TypeError, "expected TropicalMatrix, got list"),
        (lambda: sf.scalar(0) + 0, TypeError, "expected TropicalScalar, got int"),
        (lambda: sf.power(np.zeros(2), 2), DomainError, "power is defined for scalars only"),
        (lambda: report_dict(good), TypeError, "cannot report TropicalMatrix"),
    ]
    for call, kind, message in cases:
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind
        assert str(info.value) == message


# Products of carrier values can leave the carrier: in max-times they
# overflow to +inf, in min-times they underflow to 0.0.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sf, p, q, B, h", [
    (t.MAX_TIMES, [1e300], [1e-300], None, [1e301]),  # theta overflows
    (t.MIN_TIMES, [1e-300], [1e300], None, [1e-301]),  # theta underflows
    (t.MAX_TIMES, [1.0, 1e200], [1e-200, 1e-200], [[1.0, 1e300], [0.0, 1.0]], None),
    (t.MIN_TIMES, [1.0, 1e-200], [1e200, 1e200], [[1.0, 1e-300], [INF, 1.0]], None),
], ids=["max-times-theta", "min-times-theta", "max-times-through-B", "min-times-through-B"])
def test_results_outside_the_carrier_raise(sf, p, q, B, h):
    p, q = t.tvector(sf, p), t.tvector(sf, q)
    if B is None:
        g, h = t.tvector(sf, [sf.one]), t.tvector(sf, h)
        calls = [lambda: t.solve_general(None, p, q),
                 lambda: t.solve_general(None, p, q, g, h),
                 lambda: t.solve_unconstrained(p, q),
                 lambda: t.solve_box_constrained(p, q, g, h)]
    else:
        B = t.tmatrix(sf, B)
        calls = [lambda: t.solve_general(B, p, q), lambda: t.solve_linear_constrained(B, p, q)]
    for call in calls:
        with pytest.raises(DomainError):
            call()
