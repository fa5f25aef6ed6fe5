"""tropt benchmark: one workload, one client, closed loop.

Usage:
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints the environment, one line per metric with its unit, and as the last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced pass.  Exits 1 when an output
check finds a wrong answer on exact data, 2 when tropt cannot be imported
from ``src/`` next to this directory.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

# whole rounds a timed pass makes at least, so that each latency is a best of three
MIN_ROUNDS = 3
# set-ups per run, reported as their median
SETUPS = 5
# fresh interpreters per start-up floor of the traced run, reported as their median
REPS = 3

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("ops_ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# name, unit, better, source: (span, field) per operation, or a derived value
PER_LAYER = (
    ("semifield.validate.calls_per_op", "count/op", "lower", ("semifield.Semifield.validate", "calls")),
    ("semifield.validate.self_ms", "ms/op", "lower", ("semifield.Semifield.validate", "self_ms")),
    ("linalg.construct.calls_per_op", "count/op", "lower", ("linalg.TropicalMatrix.__init__", "calls")),
    ("linalg.matmul.self_ms", "ms/op", "lower", ("linalg.TropicalMatrix.__matmul__", "self_ms")),
    ("linalg.conj.self_ms", "ms/op", "lower", ("linalg.TropicalMatrix.conj", "self_ms")),
    ("linalg.power_trace.total_ms", "ms/op", "lower", ("linalg.TropicalMatrix.power_trace", "total_ms")),
    ("linalg.star.total_ms", "ms/op", "lower", ("linalg.TropicalMatrix.star", "total_ms")),
    ("kernels.matmul.calls", "count/op", "lower", ("kernels.matmul", "calls")),
    ("kernels.matmul.self_ms", "ms/op", "lower", ("kernels.matmul", "self_ms")),
    ("kernels.matmul.bytes_computed", "bytes/op", "lower", "kernels.matmul.bytes_computed"),
    ("systems.solve_ax_plus_b_le_x.total_ms", "ms/op", "lower", ("systems.solve_ax_plus_b_le_x", "total_ms")),
    ("solve.solve_general.total_ms", "ms/op", "lower", ("solve.solve_general", "total_ms")),
    ("solve.solve_general.self_ms", "ms/op", "lower", ("solve.solve_general", "self_ms")),
    ("solve.contains.total_ms", "ms/op", "lower", ("solve.contains", "total_ms")),
    ("solve.internal_errors", "count/op", "lower", "solve.errors"),
    ("location.solve_location.total_ms", "ms/op", "lower", ("location.solve_location", "total_ms")),
    ("kernels.grid_scan.self_ms", "ms/op", "lower", ("kernels.grid_scan", "self_ms")),
    ("oracle.grid_points.total_ms", "ms/op", "lower", ("oracle.GridSpec.points", "total_ms")),
    ("oracle.brute_force_min.self_ms", "ms/op", "lower", ("oracle.brute_force_min", "self_ms")),
    ("oracle.points_scanned", "count/op", "lower", "oracle.points_scanned"),
    ("oracle.feasible_ratio", "ratio", "higher", "feasible_ratio"),
    ("probfile.load_problem.total_ms", "ms/op", "lower", ("probfile.load_problem", "total_ms")),
    ("probfile.dump_json.total_ms", "ms/op", "lower", ("probfile.dump_json", "total_ms")),
    ("svg.render_svg.total_ms", "ms/op", "lower", ("svg.render_svg", "total_ms")),
    ("cli.interpreter_ms", "ms", "lower", "floor:pass"),
    ("cli.numpy_import_ms", "ms", "lower", "floor:import numpy"),
    ("cli.tropt_import_ms", "ms", "lower", "floor:import tropt.cli"),
    ("trace.overhead_ratio", "ratio", "lower", "overhead"),
)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% of samples at or below it.

    Refuses a sample too small to leave ten values beyond the percentile.
    """
    n = len(values)
    if n * (100 - pct) / 100 < 10:
        raise ValueError(f"p{pct:g} needs at least ten samples beyond it; got {n} samples")
    return sorted(values)[math.ceil(pct / 100 * n) - 1]


@dataclass
class Pass:
    """What a timed pass over a pool observed."""

    times: list  # per operation of the pool, the wall time of each of its tries
    failed_ops: set = field(default_factory=set)  # indices of operations that failed
    wrong: list = field(default_factory=list)  # misses that are not float drift
    rounds: int = 0  # whole rounds done

    @property
    def tries(self) -> int:
        return sum(len(t) for t in self.times)


def new_pass(ops) -> Pass:
    return Pass(times=[[] for _ in ops])


def run_pass(ops, seconds: float, min_rounds: int, tracer=None, out: Pass | None = None) -> Pass:
    """Run ``ops`` in turn, round after round, until ``seconds`` have passed
    and ``min_rounds`` whole rounds are done; the pass may stop inside a round.

    Every try's wall time is kept.  The first round of ``out`` checks each
    output: an operation fails when it raises a TroptError or its check does
    not hold; a check error, or any other exception, is also recorded as
    wrong.  Later rounds repeat the same calls on the same inputs and are
    only timed, except that an exception other than a TroptError is still
    recorded as wrong.
    """
    from tropt.errors import TroptError

    if out is None:
        out = new_pass(ops)
    start, done, i = perf_counter(), 0, 0
    while done < min_rounds or perf_counter() - start < seconds:
        op, res = ops[i], None
        t0 = perf_counter()
        try:
            res = op.run()
            ran = True
        except TroptError:
            ran = False
        except Exception:  # a crash is reported, and the run goes on
            ran = False
            out.wrong.append(traceback.format_exc())
        out.times[i].append(perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        if out.rounds == 0:
            ok = False
            if ran:
                try:
                    if tracer is None:
                        ok = bool(op.check(res))
                    else:
                        with tracer.paused():
                            ok = bool(op.check(res))
                except TroptError:
                    ok = False
                except Exception:
                    out.wrong.append(traceback.format_exc())
            if not ok:
                out.failed_ops.add(i)
                if op.exact:
                    out.wrong.append(f"{op.kind} operation failed its check on exact data")
        i += 1
        if i == len(ops):
            i, done, out.rounds = 0, done + 1, out.rounds + 1
    return out


def environment() -> dict:
    import numpy
    import tropt._kernels as kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_use_numba": getattr(kernels, "USING_NUMBA", None),
        "TROPT_DISABLE_NUMBA": os.environ.get("TROPT_DISABLE_NUMBA"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def fresh_interpreter(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports tropt from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120)


def floor_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        fresh_interpreter(code)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def set_up(wl, seed: int, workdir: str):
    """One set-up: import tropt, generate the pool and warm up; returns (pool, seconds).

    The import is timed in a fresh interpreter, because this one has tropt
    loaded already.
    """
    t0 = perf_counter()
    fresh_interpreter("import tropt.cli")
    ops = wl.build(seed, workdir)
    for op in wl.warmup(ops):
        try:
            op.run()
        except Exception:  # the timed pass reports it
            pass
    return ops, perf_counter() - t0


def best_s(run: Pass) -> float:
    """One round over the pool with every operation at its fastest try."""
    return sum(min(t) for t in run.times)


def end_to_end(run: Pass, setup_s: float, rss_mb: float) -> dict:
    lat_ms = [min(t) * 1e3 for t in run.times]
    return {
        "ops_per_s": len(run.times) / best_s(run),
        "latency_ms_p50": percentile(lat_ms, 50),
        "latency_ms_p90": percentile(lat_ms, 90),
        "ops_ok_ratio": 1.0 - len(run.failed_ops) / len(run.times),
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def per_layer(tracer, floors: dict, overhead: float) -> dict:
    counters = tracer.counters
    derived = {
        "feasible_ratio": (counters.get("oracle.points_feasible", 0)
                           / counters["oracle.points_scanned"]
                           if counters.get("oracle.points_scanned") else 0.0),
        "overhead": overhead,
        **{f"floor:{code}": ms for code, ms in floors.items()},
    }
    out = {}
    for name, _, _, source in PER_LAYER:
        if isinstance(source, tuple):
            out[name] = tracer.per_op(*source)
        elif source in derived:
            out[name] = derived[source]
        else:
            out[name] = counters.get(source, 0) / max(tracer.ops, 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
        import tropt
    except ImportError as exc:
        print(f"error: cannot import tropt from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(tropt.__file__).startswith(SRC + os.sep):
        print(f"error: tropt imported from {tropt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        ops, first = set_up(wl, args.seed, workdir)
        if not args.trace:
            # set-up is timed SETUPS times, part before the timed pass and the
            # rest after it, so that its median spans the run's host speeds
            setups = [first] + [set_up(wl, args.seed, workdir)[1] for _ in range(SETUPS // 2 - 1)]
            run = run_pass(ops, args.seconds, MIN_ROUNDS)
            rss_mb = peak_rss_mb()
            setups += [set_up(wl, args.seed, workdir)[1] for _ in range(SETUPS - len(setups))]
            metrics = end_to_end(run, statistics.median(setups), rss_mb)
            units = {name: unit for name, unit, _ in END_TO_END}
            runs = [run]
        else:
            # untraced and traced rounds alternate, so drift in the host's
            # speed does not enter the overhead ratio
            plain, run = new_pass(ops), new_pass(ops)
            tracer = tracing.Tracer()
            start = perf_counter()
            while perf_counter() - start < args.seconds or not run.rounds:
                run_pass(ops, 0, 1, out=plain)
                with tracing.traced(tracer):
                    run_pass(ops, 0, 1, tracer, out=run)
            floors = {code: floor_ms(code) for code in ("pass", "import numpy", "import tropt.cli")}
            overhead = best_s(run) / best_s(plain)
            metrics = per_layer(tracer, floors, overhead)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            runs = [plain, run]
            for name, (calls, total, self_s) in sorted(tracer.stats.items()):
                print(f"span {name}: {calls / tracer.ops:.4g} calls/op, "
                      f"total {total * 1e3 / tracer.ops:.4g} ms/op, self {self_s * 1e3 / tracer.ops:.4g} ms/op")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = [w for r in runs for w in r.wrong]
    for w in dict.fromkeys(wrong):
        print(f"wrong: {w.rstrip()}", file=sys.stderr)
    # each distinct operation is checked once, so both counts are fixed by the seed
    attempted, failed = len(ops), len(run.failed_ops)
    print(f"workload {wl.name}: seed {args.seed}, {attempted} distinct operations, "
          f"{run.tries} timed tries ({run.rounds} whole rounds), {failed} failed "
          f"(ops_failed_ratio {failed / attempted:.6g}), {len(wrong)} wrong on exact data")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
