"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tropt as t
from tropt.probfile import load_problem, solve_parsed
from tropt.svg import render_svg

from conftest import (
    POINTS, WEIGHTS, WORKED, instance, planted, theta_forms_agree,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
MP = t.MAX_PLUS


def _report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def _worked():
    return dict(
        p=t.tvector(MP, WORKED["p"]),
        q=t.tvector(MP, WORKED["q"]),
        g=t.tvector(MP, WORKED["g"]),
        h=t.tvector(MP, WORKED["h"]),
        B=t.tmatrix(MP, WORKED["B"]),
    )


def test_criterion_01_unconstrained_golden_and_runtime():
    w = _worked()
    sol = t.solve_unconstrained(w["p"], w["q"])
    ok = (
        sol.theta == MP.scalar(9)
        and sol.x_lo.tolist() == [[-6], [5]]
        and sol.x_hi.tolist() == [[-3], [5]]
    )
    # median wall time over repeated solves, after a warm-up call
    samples = []
    for _ in range(30):
        start = time.perf_counter()
        t.solve_unconstrained(w["p"], w["q"])
        samples.append(time.perf_counter() - start)
    median = sorted(samples)[len(samples) // 2]
    ok = ok and median < 1e-3
    _report(f"criterion 1: unconstrained theta=9, box exact, {median * 1e6:.0f}us < 1ms", ok)


def test_criterion_02_box_golden():
    w = _worked()
    sol = t.solve_box_constrained(w["p"], w["q"], w["g"], w["h"])
    ok = (
        sol.theta == MP.scalar(14)
        and sol.x_lo.tolist() == [[2], [0]]
        and sol.x_hi.tolist() == [[2], [8]]
    )
    _report("criterion 2: box-constrained theta=14, x in [(2,0),(2,8)]", ok)


def test_criterion_03_linear_golden():
    w = _worked()
    bstar = w["B"].star()
    qb = w["q"].conj() @ bstar
    sol = t.solve_linear_constrained(w["B"], w["p"], w["q"])
    ok = (
        bstar.tolist() == [[0, -4], [-8, 0]]
        and qb.tolist() == [[12, 8]]
        and sol.theta == MP.scalar(11)
        and sol.x_lo == sol.x_hi == t.tvector(MP, [-1, 3])
    )
    _report("criterion 3: linear-constrained B*, conj(q)B*, theta=11, unique x=(-1,3)", ok)


def test_criterion_04_general_golden():
    w = _worked()
    bstar = w["B"].star()
    bp = bstar @ w["p"]
    hbp = (w["h"].conj() @ bp).as_scalar()
    qbg = (w["q"].conj() @ bstar @ w["g"]).as_scalar()
    sol = t.solve_general(w["B"], w["p"], w["q"], w["g"], w["h"])
    ok = (
        bp.tolist() == [[10], [14]]
        and hbp == MP.scalar(6)
        and qbg == MP.scalar(14)
        and sol.theta == MP.scalar(14)
        and sol.u_lo.tolist() == [[2], [0]]
        and sol.u_hi.tolist() == [[2], [6]]
        and sol.x_lo.tolist() == [[2], [0]]
        and sol.x_hi.tolist() == [[2], [6]]
    )
    _report("criterion 4: general theta=14, u and x in [(2,0),(2,6)]", ok)


def test_criterion_05_location_golden():
    p, q = t.build_pq(POINTS, WEIGHTS)
    inst = t.LocationInstance(
        np.array(POINTS, float), np.array(WEIGHTS, float),
        B=np.array(WORKED["B"], float),
        g=np.array(WORKED["g"], float), h=np.array(WORKED["h"], float),
    )
    loc = t.solve_location(inst)
    w = _worked()
    alg = t.solve_general(w["B"], w["p"], w["q"], w["g"], w["h"])
    ok = (
        p.tolist() == [3, 14]
        and q.tolist() == [-12, -4]
        and loc.theta == 14
        and loc.x_lower.tolist() == [2, 0]
        and loc.x_upper.tolist() == [2, 6]
        and loc.theta == alg.theta.value
        and loc.u_lower.tolist() == alg.u_lo.column_values().tolist()
        and loc.u_upper.tolist() == alg.u_hi.column_values().tolist()
        and loc.x_lower.tolist() == alg.x_lo.column_values().tolist()
        and loc.x_upper.tolist() == alg.x_hi.column_values().tolist()
    )
    _report("criterion 5: location p=(3,14) q=(-12,-4), theta=14, segment (2,0)-(2,6)", ok)


def test_criterion_06_oracle_equivalence():
    rng = np.random.default_rng(71)
    start = time.perf_counter()
    checked = 0
    ok = True
    while checked < 200 and ok:
        n = int(rng.integers(2, 4))
        raw = planted(rng, n)
        inst = instance(MP, raw)
        sol = t.solve_instance(inst)
        grid = t.GridSpec(np.array(raw["g"]), np.array(raw["h"]), 0.5)
        res = t.brute_force_min(inst, grid)
        if res.min_value != sol.theta:
            ok = False
            break
        for a in res.argmins:
            if not t.contains(sol, inst, t.tvector(MP, a)):
                ok = False
                break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked >= 200 and elapsed < 60
    _report(
        f"criterion 6: solver equals grid oracle on {checked} random instances "
        f"in {elapsed:.1f}s < 60s", ok,
    )


def _rand_values(rng, sf, shape, zero_frac=0.0):
    base = rng.integers(-8, 9, size=shape).astype(float)
    if sf is t.MAX_PLUS:
        vals = base
    elif sf is t.MIN_PLUS:
        vals = -base
    elif sf is t.MAX_TIMES:
        vals = np.exp(base / 4)
    else:
        vals = np.exp(-base / 4)
    if zero_frac:
        vals[rng.random(shape) < zero_frac] = sf.zero
    return vals


def _rand_contractive(rng, sf, n):
    base = rng.integers(-8, 1, size=(n, n)).astype(float)
    if sf is t.MAX_PLUS:
        return base
    if sf is t.MIN_PLUS:
        return -base
    if sf is t.MAX_TIMES:
        return np.exp(base / 4)
    return np.exp(-base / 4)


def test_criterion_07_algebraic_property_suite():
    rng = np.random.default_rng(72)
    counts = {k: 0 for k in (
        "idempotency", "extremal", "conj_identities", "carre", "star_star",
    )}
    ok = True
    for sf in (t.MAX_PLUS, t.MIN_PLUS, t.MAX_TIMES, t.MIN_TIMES):
        one = sf.scalar(sf.one)
        eps = sf.default_eps
        for _ in range(300):
            n = int(rng.integers(1, 5))
            a = sf.scalar(float(_rand_values(rng, sf, ())))
            b = sf.scalar(float(_rand_values(rng, sf, ())))
            ok &= (a + a == a) and (a <= a + b) and (b <= a + b)
            counts["idempotency"] += 1
            counts["extremal"] += 1

            x = t.TropicalMatrix(sf, _rand_values(rng, sf, (n, 1)))
            y = t.TropicalMatrix(sf, _rand_values(rng, sf, (n, 1)))
            ident = t.identity(sf, n)
            ok &= (x.conj() @ x).as_scalar().eq(one, eps)
            ok &= ident.leq(x @ x.conj(), eps)
            scal = (x.conj() @ y).as_scalar().inv()
            ok &= t.TropicalMatrix(sf, sf.mul(scal.value, ident.data)).leq(x @ y.conj(), eps)
            counts["conj_identities"] += 1

            A = t.TropicalMatrix(sf, _rand_contractive(rng, sf, n))
            star = A.star()
            power = ident
            for _ in range(2 * n + 1):
                ok &= power.leq(star, eps)
                power = power @ A
            ok &= (star @ star).eq(star, eps)
            counts["carre"] += 1
            counts["star_star"] += 1
            if not ok:
                break
        if not ok:
            break
    enough = all(v >= 1000 for v in counts.values())
    _report(
        f"criterion 7: property suite, {min(counts.values())} cases per property "
        f"across 4 semifields, zero failures", ok and enough,
    )


def test_criterion_08_theta_form_equivalence():
    rng = np.random.default_rng(73)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 6))
        raw = planted(rng, n, parts="B")
        ok &= theta_forms_agree(
            t.tmatrix(MP, raw["B"]), t.tvector(MP, raw["p"]), t.tvector(MP, raw["q"]),
            eps=0.0,
        )
        if not ok:
            break
    _report("criterion 8: both optimum closed forms agree on 100 instances (exact)", ok)


def test_criterion_09_specialization_chain():
    rng = np.random.default_rng(74)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        raw = planted(rng, n)
        p, q = t.tvector(MP, raw["p"]), t.tvector(MP, raw["q"])
        g, h = t.tvector(MP, raw["g"]), t.tvector(MP, raw["h"])
        box = t.solve_box_constrained(p, q, g, h)
        gen = t.solve_general(None, p, q, g, h)
        ok &= (
            box.theta == gen.theta and box.u_lo == gen.u_lo and box.u_hi == gen.u_hi
            and box.x_lo == gen.x_lo and box.x_hi == gen.x_hi
        )
        B = t.tmatrix(MP, raw["B"])
        lin = t.solve_linear_constrained(B, p, q)
        gen2 = t.solve_general(B, p, q)
        ok &= (
            lin.theta == gen2.theta and lin.generator == gen2.generator
            and lin.u_lo == gen2.u_lo and lin.u_hi == gen2.u_hi
            and lin.x_lo == gen2.x_lo and lin.x_hi == gen2.x_hi
        )
        if not ok:
            break
    _report("criterion 9: general solver specializes field-for-field, 100 instances", ok)


def test_criterion_10_infeasibility_detection():
    w = _worked()
    # positive cycle in B
    Bbad = t.tmatrix(MP, [[-1, 3], [-1, -2]])
    rep1 = t.solve_linear_constrained(Bbad, w["p"], w["q"])
    ok = (
        isinstance(rep1, t.InfeasibilityReport)
        and rep1.reason is t.InfeasibleReason.TR_EXCEEDS_ONE
    )
    # the oracle finds no point with Bbad x <= x on a wide grid
    inst1 = t.ProblemInstance(MP, w["p"], w["q"], B=Bbad)
    grid = t.GridSpec(np.full(2, -20.0), np.full(2, 20.0), 0.5)
    ok = ok and t.brute_force_min(inst1, grid).empty

    # incompatible bounds through the closure
    g = t.tvector(MP, [5, 5])
    h = t.tvector(MP, [0, 0])
    rep2 = t.solve_general(w["B"], w["p"], w["q"], g, h)
    ok = ok and (
        isinstance(rep2, t.InfeasibilityReport)
        and rep2.reason is t.InfeasibleReason.BOUNDS_INCOMPATIBLE
        and (h.conj() @ w["B"].star() @ g).as_scalar() == rep2.detail
        and not rep2.detail <= MP.scalar(0)
    )
    inst2 = t.ProblemInstance(MP, w["p"], w["q"], g=g, h=h, B=w["B"])
    ok = ok and t.brute_force_min(inst2, grid).empty
    _report("criterion 10: both infeasibility reasons detected, oracle concurs", ok)


def _svg_geom(text, cls, keys):
    root = ET.fromstring(text)
    return [
        tuple(el.get(k) for k in keys) for el in root.iter() if el.get("class") == cls
    ]


def test_criterion_11_plot_reproduction():
    ok = True
    rendered = {}
    for name in ("unconstrained", "box", "linear", "general", "location"):
        parsed = load_problem(PROBLEMS / f"{name}.json")
        result = solve_parsed(parsed)
        text = render_svg(parsed, result)
        ok &= text == render_svg(parsed, result)  # byte-stable
        rendered[name] = text

    seg = lambda n: _svg_geom(rendered[n], "solution-segment", ("x1", "y1", "x2", "y2"))
    ok &= seg("unconstrained") == [("-6", "5", "-3", "5")]
    ok &= seg("box") == [("2", "0", "2", "8")]
    ok &= _svg_geom(rendered["linear"], "solution-point", ("cx", "cy")) == [("-1", "3")]
    ok &= seg("general") == [("2", "0", "2", "6")]
    ok &= seg("location") == [("2", "0", "2", "6")]
    ok &= _svg_geom(rendered["location"], "demand-point", ("cx", "cy")) == [
        ("-7", "12"), ("2", "10"), ("-10", "3"), ("-4", "4"), ("-4", "-3"),
    ]
    ok &= _svg_geom(rendered["general"], "pq-rect", ("x", "y", "width", "height")) == [
        ("-12", "-4", "15", "18"),
    ]
    ok &= _svg_geom(rendered["general"], "bounds-rect", ("x", "y", "width", "height")) == [
        ("2", "-8", "4", "16"),
    ]
    _report("criterion 11: five SVGs reproduce the expected geometry, byte-stable", ok)
