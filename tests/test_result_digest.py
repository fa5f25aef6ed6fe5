"""``scripts/result_digest.py``: one digest over every result of the benchmark's pools."""

import dataclasses
import importlib.util
import io
import itertools
import os

import numpy as np
import pytest

import tropt as t

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "result_digest.py")
_spec = importlib.util.spec_from_file_location("result_digest", _PATH)
rd = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rd)

WORKLOADS = ("small-mixed", "closure-large", "oracle-verify", "cli")
SLICE = 10  # results per pool; whole-pool digests are the script's own runs


@pytest.fixture
def sliced(monkeypatch):
    """Cut every pool to its first SLICE results, so each test stays short."""
    pool = rd.run_pool
    monkeypatch.setattr(rd, "run_pool", lambda *args: itertools.islice(pool(*args), SLICE))
    return pool


def _flip(value: float) -> float:
    """value with the lowest bit of its mantissa flipped."""
    bits = np.array([value], dtype=np.float64).view(np.uint64)
    return float((bits ^ np.uint64(1)).view(np.float64)[0])


def test_digest_covers_the_four_workloads_and_is_stable(sliced):
    plan = [(w, 1) for w in WORKLOADS]
    logs = [io.StringIO(), io.StringIO()]
    digests = [rd.digest(plan, log=log) for log in logs]
    assert digests[0] == digests[1]
    assert logs[0].getvalue() == logs[1].getvalue()
    lines = logs[0].getvalue().splitlines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"{w} seed 1: {SLICE} results" for w in WORKLOADS]
    assert len({line.rsplit(" ", 1)[1] for line in lines}) == 4


def _changed(result):
    """The result with one bit changed: the last bit of a box end, or of the detail."""
    if isinstance(result, t.SolutionSet):
        end = result.u_hi.data.copy()
        end[-1, 0] = _flip(end[-1, 0])
        return dataclasses.replace(result, u_hi=t.TropicalMatrix(result.u_hi.sf, end))
    return dataclasses.replace(result, detail=t.TropicalScalar(
        _flip(result.detail.value), result.detail.sf))


@pytest.mark.parametrize("kind", [t.SolutionSet, t.InfeasibilityReport],
                         ids=["solution", "infeasible"])
def test_one_flipped_bit_changes_the_digest(kind, sliced, monkeypatch):
    # The first results of closure-large hold both solutions and reports.
    plan = [("closure-large", 1)]
    base = rd.digest(plan)
    pool = rd.run_pool
    state = {"done": False}

    def one_changed(*args):
        for result in pool(*args):
            if not state["done"] and isinstance(result, kind):
                result, state["done"] = _changed(result), True
            yield result

    monkeypatch.setattr(rd, "run_pool", one_changed)
    assert rd.digest(plan) != base
    assert state["done"]


def test_encoding_keeps_every_bit_type_and_shape():
    sf = t.MAX_PLUS
    values = [
        sf.scalar(0.1), t.TropicalScalar(_flip(0.1), sf), t.TropicalScalar(0.1, t.MIN_PLUS),
        sf.scalar(0.0), sf.scalar(-0.0),
        t.tvector(sf, [1, 2]), t.tmatrix(sf, [[1, 2]]), t.tvector(sf, [1, 3]),
        (0, "x"), (0, "y"), (0, "x", None), ValueError("x"), TypeError("x"),
        np.array([1.0]), np.array([1]), np.array([True]), 1, 1.0, True, None, "1",
    ]
    encoded = [rd.encode(v) for v in values]
    assert len(set(encoded)) == len(values)
    assert rd.encode("at /tmp/w/f.json", "/tmp/w") == rd.encode("at <workdir>/f.json")
    with pytest.raises(TypeError, match="no encoding for object"):
        rd.encode(object())
