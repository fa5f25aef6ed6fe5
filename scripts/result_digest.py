"""Digest every result of the benchmark's operation pools, to check that a change keeps them.

Usage:
    python3 scripts/result_digest.py [--checkout DIR] WORKLOAD:SEEDS [...]

For each workload and seed (the plan syntax of ``scripts/bench_pairs.py``,
for example ``small-mixed:1-3``), the pool is built from
``benchmarks/perf/workloads.py`` of the checkout, read only, and every
operation runs once, in pool order.  The script prints one SHA-256 over
the exact bytes of all the results, and one line per plan item on stderr.
Run it on two checkouts (``--checkout``, by default the one holding this
script) and compare the digests.

What goes into the digest, with its type and shape:
  * solver results: theta, the box ends, the generator and an
    infeasibility's reason and detail, as float bits;
  * the oracle's minimum, argmins and feasible count, and the
    ``contains`` verdict of each argmin;
  * a command's exit code and stdout;
  * an exception's type and message, in place of a result.

The workloads' scratch directory is written as ``<workdir>`` wherever it
appears in text.  RuntimeWarnings are ignored: the digest covers results,
not messages on stderr.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import os
import struct
import sys
import tempfile
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from bench_pairs import parse_plan  # noqa: E402  (the plan syntax, from beside this file)


def load_workloads(checkout: str) -> dict:
    """``WORKLOADS`` of the checkout, with its ``src`` first on the path."""
    for sub in (os.path.join("benchmarks", "perf"), "src"):
        path = os.path.join(checkout, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import tropt
    from workloads import WORKLOADS

    src = os.path.join(os.path.abspath(checkout), "src") + os.sep
    if not os.path.abspath(tropt.__file__).startswith(src):
        raise SystemExit(f"tropt imported from {tropt.__file__}, not {src}")
    return WORKLOADS


def encode(obj, workdir: str = "") -> bytes:
    """The exact bytes of a result, each value framed by its type and length."""
    out = bytearray()
    _encode(obj, out, workdir)
    return bytes(out)


def _frame(out: bytearray, tag: bytes, payload: bytes) -> None:
    out += tag + struct.pack("<Q", len(payload)) + payload


def _encode(obj, out: bytearray, workdir: str) -> None:
    if obj is None or isinstance(obj, (bool, np.bool_)):
        _frame(out, b"b", repr(None if obj is None else bool(obj)).encode())
    elif isinstance(obj, (int, np.integer)):
        _frame(out, b"i", str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        _frame(out, b"f", struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        _frame(out, b"s", (obj.replace(workdir, "<workdir>") if workdir else obj).encode())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        _frame(out, b"a", f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
    elif isinstance(obj, enum.Enum):
        _encode(obj.value, out, workdir)
    elif isinstance(obj, BaseException):
        _frame(out, b"e", type(obj).__name__.encode())
        _encode(str(obj), out, workdir)
    elif isinstance(obj, (list, tuple)):
        _frame(out, b"l", str(len(obj)).encode())
        for item in obj:
            _encode(item, out, workdir)
    elif dataclasses.is_dataclass(obj):
        # every field, the semifield of a scalar included, by its tag
        _frame(out, b"d", type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _encode(getattr(obj, f.name), out, workdir)
    elif hasattr(obj, "tag"):  # a Semifield
        _frame(out, b"t", obj.tag.encode())
    elif hasattr(obj, "sf") and hasattr(obj, "data"):  # a TropicalMatrix
        _frame(out, b"m", obj.sf.tag.encode())
        _encode(obj.data, out, workdir)
    else:
        raise TypeError(f"no encoding for {type(obj).__name__}")


def run_pool(workloads: dict, workload: str, seed: int, workdir: str):
    """Each operation's result, or the exception it raised, in pool order."""
    if workload not in workloads:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(workloads)}")
    for op in workloads[workload].build(seed, workdir):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                result = op.run()
            except Exception as exc:  # a raised error is a result too
                result = exc
        yield result


def digest(plan, checkout: str = os.path.dirname(HERE), log=None) -> str:
    """The SHA-256 of every result of the plan's pools, in plan order."""
    workloads = load_workloads(checkout)
    total = hashlib.sha256()
    for workload, seed in plan:
        part, count = hashlib.sha256(), 0
        with tempfile.TemporaryDirectory() as workdir:
            for result in run_pool(workloads, workload, seed, workdir):
                data = encode(result, workdir)
                part.update(data)
                total.update(data)
                count += 1
        if log is not None:
            print(f"{workload} seed {seed}: {count} results, {part.hexdigest()}", file=log)
    return total.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD:SEEDS")
    parser.add_argument("--checkout", default=os.path.dirname(HERE),
                        help="the tree whose src and workloads run (default: this one)")
    args = parser.parse_args(argv)
    print(digest(parse_plan(args.plan), os.path.abspath(args.checkout), log=sys.stderr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
