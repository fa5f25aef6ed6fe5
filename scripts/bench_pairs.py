"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<label>.json.

Usage:
    python3 scripts/bench_pairs.py --parent DIR --change DIR --label COMMIT \\
        --plan oracle-verify:1-10 --plan small-mixed:1-3 \\
        [--about TEXT] [--note TEXT] [--append]

Each checkout must hold ``benchmarks/perf/run.py`` and the ``src/`` it
benchmarks; the script runs that file unmodified, once per side, workload
and seed, for ``SECONDS`` each.  A plan item is ``WORKLOAD:SEEDS``, the seeds
a comma list of numbers and ranges (``1-3,11``).  The sides alternate
which runs first from one pair to the next, so drift in the host's speed
falls on both.  Export both sides fresh, into directories whose paths have
equal lengths; the script warns when they do not.

The output keeps the layout of ``BENCH_71b2d2d.json``: ``about``,
``parent`` (the label), ``host``, ``env`` (as run.py prints it),
``seconds``, per-workload ``medians`` of every end-to-end metric for each
side, and ``runs``, each run's last line as run.py prints it.  It adds
``pairs``: per workload and metric, the quartile spread of the parent's
runs and how many pairs read better on the change's side.  With
``--append`` the runs of an existing output are kept and the medians are
taken over all of them.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
SECONDS = 25  # the length of every run, the same on both sides
# name -> whether a higher value is better, as benchmarks/perf/run.py reports them
END_TO_END = {"ops_per_s": True, "latency_ms_p50": False, "latency_ms_p90": False,
              "ops_ok_ratio": True, "peak_rss_mb": False, "setup_s": False}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def parse_plan(items) -> list:
    """(workload, seed) pairs in the order given."""
    plan = []
    for item in items:
        workload, sep, seeds = item.partition(":")
        if not sep or not workload:
            raise SystemExit(f"bad plan item {item!r}: expected WORKLOAD:SEEDS")
        plan += [(workload, seed) for seed in parse_seeds(seeds)]
    return plan


def run_once(checkout: str, workload: str, seed: int) -> tuple:
    """One run.py run: (its last line as JSON, its env line as JSON or None)."""
    cmd = [sys.executable, os.path.join("benchmarks", "perf", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{checkout}: run.py {workload} seed {seed} exited {proc.returncode} "
                         f"without a result:\n{proc.stderr[-2000:]}")
    return last, env


def host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                       cpu)
    except OSError:
        pass
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpu": cpu, "machine": platform.machine(), "cores": cores}


def value(run: dict, metric: str):
    return run["last_line"]["metrics"].get(metric, {}).get("value")


def summarize(runs: list) -> tuple:
    """Per-workload medians for each side, and the pair counts of each metric."""
    medians, pairs = {}, {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        medians[workload] = {
            side: {m: statistics.median(v for r in mine if r["side"] == side
                                        and (v := value(r, m)) is not None)
                   for m in END_TO_END}
            for side in SIDES}
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        both = [s for s in by_seed.values() if len(s) == 2]
        pairs[workload] = {}
        for m, higher in END_TO_END.items():
            parent = sorted(value(s["parent"], m) for s in both)
            q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [parent[0]] * 3
            better = sum((value(s["change"], m) > value(s["parent"], m)) == higher
                         and value(s["change"], m) != value(s["parent"], m) for s in both)
            pairs[workload][m] = {"pairs": len(both), "change_better": better,
                                  "parent_quartile_spread": q[2] - q[0]}
    return medians, pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="the parent commit, for the file name")
    parser.add_argument("--plan", action="append", required=True, help="WORKLOAD:SEEDS")
    parser.add_argument("--about", default="", help="what the two sides are")
    parser.add_argument("--note", default="", help="a note on the host")
    parser.add_argument("--append", action="store_true", help="keep the runs of an existing output")
    args = parser.parse_args(argv)

    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if len(dirs["parent"]) != len(dirs["change"]):
        print("warning: the checkouts' paths differ in length", file=sys.stderr)
    out_path = f"BENCH_{args.label}.json"
    old = {}
    if args.append and os.path.exists(out_path):
        with open(out_path) as f:
            old = json.load(f)
    runs, env = list(old.get("runs", [])), old.get("env")
    for k, (workload, seed) in enumerate(parse_plan(args.plan)):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            last, run_env = run_once(dirs[side], workload, seed)
            env = env or run_env
            runs.append({"workload": workload, "seed": seed, "side": side, "last_line": last})
            print(f"{workload} seed {seed} {side}: p90 {value(runs[-1], 'latency_ms_p90')} ms",
                  file=sys.stderr)
    medians, pairs = summarize(runs)
    report = {
        "about": args.about or old.get("about", ""),
        "parent": args.label,
        "host": {**host(), "note": args.note or old.get("host", {}).get("note", "")},
        "env": env,
        "seconds": SECONDS,
        "medians": medians,
        "pairs": pairs,
        "runs": runs,
    }
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
