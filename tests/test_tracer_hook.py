"""``benchmarks/perf/tracer.py``'s ``grid_scan`` hook reads the kernel's result.

The hook unpacks ``_kernels.grid_scan``'s return value to count the scanned
points, so a change to that shape must fail here, not in a traced
benchmark run.
"""

import importlib.util
import math
import os

import numpy as np

import tropt as t
from tropt import _kernels

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "perf", "tracer.py")
_spec = importlib.util.spec_from_file_location("perf_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_points_scanned_counts_the_scanned_box():
    # g and h cut the scan to a box inside the grid, so the count is the
    # box's, not the grid's.
    sf = t.MAX_PLUS
    inst = t.problem(sf, [3, 1, 0, 2], [-1, 0, 2, 1], g=[-3, -np.inf, -2, -4], h=[5, 4, 6, 3],
                     B=[[0, -2, -np.inf, -1], [-3, 0, -1, -np.inf], [-np.inf, -2, 0, -3],
                        [-1, -np.inf, -2, 0]])
    grid = t.GridSpec(np.full(4, -8.0), np.full(4, 8.0), 1.0)
    with tracer.traced(tracer.Tracer()) as tr:
        res = t.brute_force_min(inst, grid)
        tr.end_op()

    axes = grid.axes()
    flags, (box, vals) = _kernels.grid_scan(
        axes, inst.B.data, inst.g.data[:, 0], inst.h.data[:, 0], inst.p.data[:, 0],
        -inst.q.data[:, 0], sf)
    in_box = math.prod(len(axis[s]) for axis, s in zip(axes, box))
    assert len(flags) == in_box < grid.point_count()
    assert tr.counters["oracle.points_scanned"] == in_box
    assert tr.counters["oracle.points_feasible"] == res.feasible_count == vals.size
