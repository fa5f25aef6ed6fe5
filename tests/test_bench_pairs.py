"""``scripts/bench_pairs.py``: its plan parser and the summary that every perf claim reads."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)


def test_seeds_are_numbers_and_ranges():
    assert bp.parse_seeds("1-3,11") == [1, 2, 3, 11]
    assert bp.parse_seeds("7") == [7]
    assert bp.parse_plan(["oracle-verify:1-3,11", "cli:2"]) == [
        ("oracle-verify", 1), ("oracle-verify", 2), ("oracle-verify", 3), ("oracle-verify", 11),
        ("cli", 2)]


@pytest.mark.parametrize("item", ["oracle-verify", ":1-3", ""])
def test_a_plan_item_without_workload_and_seeds_exits(item):
    with pytest.raises(SystemExit, match="bad plan item"):
        bp.parse_plan(["cli:1", item])


def _run(workload, seed, side, **values):
    metrics = {m: {"value": 1.0} for m in bp.END_TO_END}
    metrics.update({m: {"value": v} for m, v in values.items()})
    return {"workload": workload, "seed": seed, "side": side, "last_line": {"metrics": metrics}}


def _runs():
    # Four seeds with both sides.  Against the parent, the change reads
    # better, tied, worse and better on each metric below; seed 5 has a
    # parent run only, so it is no pair.
    parent_p90, change_p90 = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    parent_ops, change_ops = [10.0, 20.0, 30.0, 40.0], [11.0, 20.0, 25.0, 41.0]
    runs = []
    for seed in range(1, 5):
        runs.append(_run("w", seed, "parent", latency_ms_p90=parent_p90[seed - 1],
                         ops_per_s=parent_ops[seed - 1]))
        runs.append(_run("w", seed, "change", latency_ms_p90=change_p90[seed - 1],
                         ops_per_s=change_ops[seed - 1]))
    runs.append(_run("w", 5, "parent", latency_ms_p90=9.0, ops_per_s=90.0))
    runs.append(_run("one", 1, "parent", latency_ms_p90=2.0))
    runs.append(_run("one", 1, "change", latency_ms_p90=1.0))
    return runs


def test_summary_counts_pairs_by_each_metrics_direction():
    medians, pairs = bp.summarize(_runs())
    assert list(pairs) == ["w", "one"]
    w = pairs["w"]
    assert {m: w[m]["pairs"] for m in bp.END_TO_END} == dict.fromkeys(bp.END_TO_END, 4)
    # lower is better for p90 and higher for ops/s: two better, one tie, one worse
    assert w["latency_ms_p90"]["change_better"] == 2
    assert w["ops_per_s"]["change_better"] == 2
    # every other metric reads 1.0 on both sides: ties count for neither
    assert w["peak_rss_mb"]["change_better"] == 0 and w["ops_ok_ratio"]["change_better"] == 0
    assert pairs["one"]["latency_ms_p90"]["change_better"] == 1


def test_summary_quartile_spread_and_medians():
    medians, pairs = bp.summarize(_runs())
    # the parent's paired p90s 1, 2, 3, 4: quartiles 1.25 and 3.75 (the
    # exclusive method of statistics.quantiles), the unpaired 9 left out
    assert pairs["w"]["latency_ms_p90"]["parent_quartile_spread"] == 2.5
    assert pairs["w"]["ops_per_s"]["parent_quartile_spread"] == 25.0
    assert pairs["w"]["setup_s"]["parent_quartile_spread"] == 0.0
    assert pairs["one"]["latency_ms_p90"]["parent_quartile_spread"] == 0.0
    # medians take every run of a side, paired or not
    assert medians["w"]["parent"]["latency_ms_p90"] == 3.0
    assert medians["w"]["change"]["latency_ms_p90"] == 2.5
    assert medians["one"]["change"]["latency_ms_p90"] == 1.0
