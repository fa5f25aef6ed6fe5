"""Tests of the benchmark's own logic.

Run with:  python3 -m pytest -q benchmarks/perf
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import tropt  # noqa: E402
import tropt.solve as S  # noqa: E402
import workloads  # noqa: E402


def _pool_state(ops):
    """Everything the program receives from a pool, as comparable text."""
    out = []
    for op in ops:
        inst = getattr(op, "inst", None)
        if isinstance(inst, S.ProblemInstance):
            parts = [getattr(inst, k) for k in ("p", "q", "g", "h", "B")]
            out.append(repr([None if v is None else v.tolist() for v in parts]))
        elif inst is not None:
            out.append(repr([inst.points.tolist(), inst.weights.tolist(),
                             *(None if v is None else v.tolist() for v in (inst.B, inst.g, inst.h))]))
        else:
            out.append(repr((op.argv[0], op.expect)))
        out.append(repr((op.kind, getattr(op, "theta", None), getattr(op, "reason", None))))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    build = workloads.WORKLOADS[name].build
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d in dirs:
        d.mkdir()
    first = _pool_state(build(7, str(dirs[0])))
    assert first == _pool_state(build(7, str(dirs[1])))
    assert first != _pool_state(build(8, str(dirs[2])))
    files = sorted(os.listdir(dirs[0]))
    assert files == sorted(os.listdir(dirs[1]))
    for f in files:
        assert (dirs[0] / f).read_text() == (dirs[1] / f).read_text()


@pytest.mark.parametrize("tag", gen.TAGS)
def test_planted_optimum_is_the_solver_optimum(tag):
    rng = np.random.default_rng(3)
    for _ in range(20):
        theta, x, slack, _ = workloads._draw(rng, True, 3, 5, 5, 3)
        raw = gen.plant(rng, x, theta, slack, B_density=0.5, g_density=0.5, with_h=True)
        vals = raw.values(tag)
        sol = S.solve_instance(workloads.instance(tag, vals))
        assert sol.theta.value == vals["theta"]
        assert S.contains(sol, workloads.instance(tag, vals), tropt.tvector(sol.theta.sf, vals["x"]))


def test_percentile_is_nearest_rank_and_needs_ten_beyond():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([5.0] * 10 + [1.0] * 90, 90) == 1.0
    assert run.percentile([5.0] * 11 + [1.0] * 89, 90) == 5.0
    with pytest.raises(ValueError):
        run.percentile(values[:99], 90)
    assert run.percentile(values[:20], 50) == 90


def test_self_time_on_hand_built_span_tree():
    N, S0, E, P, X = tracing.NAME, tracing.START, tracing.END, tracing.PARENT, tracing.EXC
    span = lambda name, start, end, parent: [name, start, end, parent, None]
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("c", 5.0, 9.0, 0),
        span("d", 6.0, 7.0, 2),
        span("c", 7.5, 8.5, 2),  # recursion: counted in self time, not twice in total
        span("b", 11.0, 12.0, -1),
    ]
    assert (N, S0, E, P, X) == (0, 1, 2, 3, 4)
    out = tracing.fold(spans)
    assert out["a"] == [1, 10.0, 3.0]
    assert out["b"] == [2, 4.0, 4.0]
    assert out["c"] == [2, 4.0, 3.0]
    assert out["d"] == [1, 1.0, 1.0]


def test_tracer_wraps_all_public_names_and_restores_them():
    tr = tracing.Tracer()
    original = S.solve_general
    sf = tropt.MAX_PLUS
    inst = S.problem(sf, [3, 14], [-12, -4], g=[2, -8], h=[6, 8], B=[[0, -4], [-8, -6]])
    with tracing.traced(tr):
        assert S.solve_general is not original
        assert tropt.solve_general is S.solve_general  # rebound where it was imported
        S.solve_instance(inst)
        tr.end_op()
        with tr.paused():
            S.solve_instance(inst)
    assert S.solve_general is original and tropt.solve_general is original
    assert tr.ops == 1
    assert tr.per_op("solve.solve_instance", "calls") == 1
    assert tr.per_op("solve.solve_general", "calls") == 1
    assert tr.per_op("linalg.TropicalMatrix.power_trace", "calls") == 1
    assert tr.per_op("semifield.Semifield.validate", "calls") > 0
    assert tr.per_op("kernels.matmul", "calls") > 0
    assert tr.counters["kernels.matmul.bytes_computed"] > 0
    # the caller's total covers the callee's
    assert tr.per_op("solve.solve_instance", "total_ms") >= tr.per_op("solve.solve_general", "total_ms")
    assert tr.per_op("systems.no_such_function", "calls") == 0


def test_escaping_exception_counts_once_per_layer():
    tr = tracing.Tracer()
    sf = tropt.MAX_PLUS
    with tracing.traced(tr):
        with pytest.raises(tropt.DomainError):
            S.solve_instance(S.problem(sf, [float("-inf")] * 2, [1, 2]))
        tr.end_op()
    assert tr.counters["solve.errors"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in run.PER_LAYER]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_each_workload_passes_its_checks(name, tmp_path):
    ops = workloads.WORKLOADS[name].build(11, str(tmp_path))
    result = run.run_pass(ops, 0.0, 1)
    assert result.rounds == 1 and [len(t) for t in result.times] == [1] * len(ops)
    assert result.wrong == []
    if name != "small-mixed":  # only small-mixed has float data, where drift may fail checks
        assert not result.failed_ops


def test_failures_count_once_per_distinct_operation(tmp_path):
    ops = workloads.WORKLOADS["small-mixed"].build(11, str(tmp_path))
    once, thrice = run.run_pass(ops, 0.0, 1), run.run_pass(ops, 0.0, 3)
    assert thrice.rounds == 3 and thrice.tries == 3 * len(ops)
    assert once.failed_ops == thrice.failed_ops
    assert 0 < len(once.failed_ops) < len(ops) / 4


def test_pass_stops_inside_a_round_once_time_is_up(tmp_path):
    ops = workloads.WORKLOADS["small-mixed"].build(11, str(tmp_path))
    out = run.run_pass(ops, 0.0, 1)
    run.run_pass(ops, 0.0, 0, out=out)  # no time and no round asked for: nothing runs
    assert out.tries == len(ops)
    run.run_pass(ops, 1e-3, 0, out=out)
    assert out.rounds == 1 and len(ops) < out.tries < 2 * len(ops)


def test_traced_counts_repeat_for_a_seed(capsys):
    def once():
        assert run.main(["--workload", "small-mixed", "--seed", "5", "--seconds", "0.1",
                         "--trace", "1"]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    first, second = once(), once()
    assert set(first["metrics"]) == {row[0] for row in run.PER_LAYER}
    for key in ("semifield.validate.calls_per_op", "linalg.construct.calls_per_op",
                "kernels.matmul.calls", "solve.internal_errors"):
        assert first["metrics"][key] == second["metrics"][key]
    assert first["metrics"]["semifield.validate.calls_per_op"]["value"] > 0
