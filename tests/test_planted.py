"""The planted draws of ``conftest.planted`` hold what they plant.

``_best_cycle`` reads the heaviest cycle of B off the diagonals of its
powers, apart from the solver, so it checks the plant independently: at
most zero on a feasible draw, above zero on a "cycle" or "both" draw.
"""

import numpy as np
import pytest

import tropt as t

from conftest import PARTS, _best_cycle, instance, planted, to_sf

SEMIFIELDS = [t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES]
# The solver tests the cycles first, so a "both" draw reports its cycle.
VERDICTS = {"feasible": None, "cycle": t.InfeasibleReason.TR_EXCEEDS_ONE,
            "bounds": t.InfeasibleReason.BOUNDS_INCOMPATIBLE,
            "both": t.InfeasibleReason.TR_EXCEEDS_ONE}


@pytest.mark.parametrize("kind", VERDICTS)
def test_a_draw_holds_its_plant(kind):
    rng = np.random.default_rng(31)
    offsets = set()
    for k in range(90):
        n, step = 1 + k % 9, (1.0, 0.5, 2.0**-8)[k % 3]
        parts = "".join(c for c in "Bgh" if rng.random() < 0.6)
        raw = planted(rng, n, kind, size=int(rng.integers(1, 21)), step=step,
                      density=float(rng.uniform(0.2, 1)), parts=parts, optimum=k % 2 == 1)
        x, theta, B, g, h = raw["x"], raw["theta"], raw["B"], raw["g"], raw["h"]
        for v in (raw[key] for key in PARTS if raw[key] is not None):
            finite = v[np.isfinite(v)]
            assert np.array_equal(finite, np.round(finite / step) * step)
        offsets.add(float(x[0] / step % 1))
        assert np.array_equal(x - x[0], np.round((x - x[0]) / step) * step)
        assert (theta is None) is (k % 2 == 0)
        best = -np.inf if B is None else _best_cycle(B)
        assert best >= step if kind in ("cycle", "both") else best <= 0, (k, best)
        assert (kind in ("bounds", "both")) is (g is not None and h is not None
                                                and bool((g > h).any()))
        if theta is not None:
            assert (theta - x[0]) / step == round((theta - x[0]) / step)
        if kind == "feasible":
            assert theta is None or max((raw["p"] - x).max(), (x - raw["q"]).max()) == theta
            assert B is None or ((B + x).max(axis=1) <= x).all()
            assert (g is None or (g <= x).all()) and (h is None or (x <= h).all())
        for sf in SEMIFIELDS:
            inst = instance(sf, raw)
            sol = t.solve_instance(inst)
            assert getattr(sol, "reason", None) is VERDICTS[kind], (k, sf)
            if theta is not None and kind == "feasible":
                assert sol.theta.eq(sf.scalar(float(to_sf(sf, theta)))), (k, sf)
                assert t.contains(sol, inst, t.tvector(sf, to_sf(sf, x))), (k, sf)
    assert offsets == {0.0, 0.5}
