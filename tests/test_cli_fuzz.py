"""A seeded fuzz of the ``tropt`` command: generated problem files of every
type and semifield through ``solve``, ``plot`` and ``verify``."""

import json
import xml.etree.ElementTree as ET

import numpy as np

from tropt.cli import main
from tropt.probfile import load_problem

TYPES = ("unconstrained", "linear", "box", "general", "location")
TAGS = ("max-plus", "min-plus", "max-times", "min-times")
FILES_PER_PAIR = 100


def _number(rng, tag, integral):
    """One entry: mostly small, sometimes a decimal with no dyadic lattice,
    a magnitude near 1e+-300 or an infinity."""
    times = tag.endswith("times")
    if integral:
        return int(rng.integers(1, 10) if times else rng.integers(-9, 10))
    pool = ([0.1, 0.3, 2.5, 7.0, 1e300, 1e-300, 0, "+inf"] if times
            else [0.1, -0.2, 0.3, 2.5, -7.0, 1e300, -1e300, 1e-300, "-inf", "+inf"])
    return pool[rng.integers(len(pool))]


def _zero(tag):
    return {"max-plus": "-inf", "min-plus": "+inf", "max-times": 0, "min-times": "+inf"}[tag]


def _document(rng, ptype, tag):
    n = int(rng.integers(1, 7))
    integral = rng.random() < 0.5
    vec = lambda: [_number(rng, tag, integral) for _ in range(n)]
    doc = {"problem": ptype, "semifield": tag}
    if ptype == "location":
        m = int(rng.integers(1, 5))
        doc["points"] = [vec() for _ in range(m)]
        doc["weights"] = [int(rng.integers(1, 4)) for _ in range(m)]
    else:
        doc["p"], doc["q"] = vec(), vec()
    if ptype in ("linear", "general", "location") and (ptype == "linear" or rng.random() < 0.6):
        doc["B"] = [[_zero(tag) if rng.random() < 0.5 else _number(rng, tag, integral)
                     for _ in range(n)] for _ in range(n)]
    if ptype == "box" or (ptype in ("general", "location") and rng.random() < 0.6):
        doc["g"], doc["h"] = vec(), vec()
        if rng.random() < 0.3:  # h one ulp from g
            away = rng.choice([-np.inf, np.inf])
            doc["h"] = [v if isinstance(v, str) else float(np.nextafter(v, away))
                        for v in doc["g"]]
    return doc


def _small_integers(path):
    """Whether the file's general form holds only integers below 1e6 in magnitude."""
    inst = load_problem(path).instance
    parts = [v.data.reshape(-1) for v in (inst.p, inst.q, inst.g, inst.h, inst.B) if v is not None]
    finite = np.concatenate(parts)
    finite = finite[np.isfinite(finite)]
    return bool((finite % 1 == 0).all() and (np.abs(finite) < 1e6).all())


def test_every_command_exits_cleanly_and_verify_agrees_on_small_integers(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    path = tmp_path / "fuzz.json"
    codes = {"solve": set(), "plot": set(), "verify": set()}
    checked = grid_at_n4 = 0
    for ptype in TYPES:
        for tag in TAGS:
            for _ in range(FILES_PER_PAIR):
                doc = _document(rng, ptype, tag)
                path.write_text(json.dumps(doc))
                outputs = {}
                for command in codes:
                    code = main([command, str(path)])
                    outputs[command] = capsys.readouterr().out
                    assert code in (0, 1, 2), (command, doc)
                    codes[command].add(code)
                    if command == "plot" and code == 0:
                        assert ET.fromstring(outputs[command]).tag.endswith("svg"), doc
                    if command == "solve":
                        solved = code
                if outputs["verify"]:  # every report agrees; a refusal prints none
                    report = json.loads(outputs["verify"])
                    assert report["status"] == "agree", (doc, report)
                    n = len(doc["p"] if "p" in doc else doc["points"][0])
                    grid_at_n4 += n >= 4 and "grid_points" in report
                if tag.endswith("plus") and solved != 2 and _small_integers(path):
                    assert outputs["verify"], doc
                    checked += 1
    assert codes == {"solve": {0, 1, 2}, "plot": {0, 1, 2}, "verify": {0, 1, 2}}
    assert checked >= 40 and grid_at_n4 >= 1
