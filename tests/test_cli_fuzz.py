"""Seeded fuzz of ``cli.main`` over mutated fixture documents.

Each case replaces one node of a fixture document (a leaf or a whole
subtree) by a value from ``POOL`` and runs every command that reads that
kind of document, with small caps.  Whatever the document holds, ``main``
must end in a documented exit code (0, 2, 3 or 4) and raise nothing.

The cases are every node whose list indices are all 0 or 1 (so the first
two entries of each list, with the top-level integer fields) crossed with
the whole pool, plus a seeded sample of the deeper nodes.
"""
import contextlib
import io
import json
import math
import random

import pytest

from dirspec.cli import main
from dirspec.measure import SymbolicMeasure

POOL = [None, True, 0, -1, 2.5, math.inf, math.nan, 10 ** 30, "", "x", "1/0", [], {},
        {"1": True}]
SEED = 20221112
DEEP_SAMPLES = 40  # seeded (node, value) cases among the nodes past index 1

# every component kind (atom, box, atom group), a periodized measure, both
# direction files and every model kind
MEASURES = ["chair.json", "product_bernoulli.json", "broken_symmetry_periodized.json"]
DIRECTIONS = ["axes_and_diagonal.json", "two_subspaces_r3.json"]
MODELS = ["bw8_model.json", "odometer_model.json", "product_model.json",
          "rotation_model.json"]


def _nodes(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _cases(doc):
    nodes = list(_nodes(doc))
    shallow = [p for p in nodes if all(not isinstance(k, int) or k <= 1 for k in p)]
    deep = [p for p in nodes if p not in shallow]
    rng = random.Random(SEED)
    sample = [(rng.choice(deep), rng.choice(POOL)) for _ in range(DEEP_SAMPLES)] \
        if deep else []
    return [(p, v) for p in shallow for v in POOL] + sample


def _run(argv) -> str | None:
    """None when ``main`` ends in a documented exit code, else what went wrong."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # any escape from main is a failure
        return f"{type(exc).__name__}: {exc}"[:200]
    return None if code in (0, 2, 3, 4) else f"exit code {code}"


def _fuzz(tmp_path, fixtures_dir, name, commands):
    """Run ``commands(path, mutated_doc)`` on every case of one fixture."""
    doc = json.loads((fixtures_dir / name).read_text())
    path = tmp_path / name
    failures = []
    for node, value in _cases(doc):
        mutated = _replace(doc, node, value)
        path.write_text(json.dumps(mutated))
        for argv in commands(str(path), mutated):
            problem = _run(argv)
            if problem:
                failures.append(f"{name} {list(node)} = {value!r}: {argv[0]}: {problem}")
    assert not failures, "\n".join(failures[:20])


def _decodes(doc) -> bool:
    try:
        SymbolicMeasure.decode(doc)
    except Exception:  # whatever decode raises, main must still exit cleanly
        return False
    return True


@pytest.mark.parametrize("name", MEASURES)
def test_mutated_measures(tmp_path, fixtures_dir, name):
    directions = str(fixtures_dir / "axes_and_diagonal.json")  # every MEASURES dim is 2

    def commands(path, doc):
        every = [["lint", "--measure", path],
                 ["classify", "--measure", path, "--directions", directions],
                 ["directions", "--measure", path, "--enumeration-bound", "1"],
                 ["exp", "--measure", path, "--closure-cap", "50"],
                 ["convolve", "--measure", path, "--other", path],
                 ["restrict", "--measure", path, "--subgroup", "[[1, 1]]"],
                 ["suspend", "--measure", path],
                 ["decompose", "--measure", path],
                 ["fourier-check", "--measure", path]]
        # every command decodes --measure the same way in main: a document
        # that does not decode needs one command to show how main ends
        return every if _decodes(doc) else every[:1]

    _fuzz(tmp_path, fixtures_dir, name, commands)


@pytest.mark.parametrize("name", DIRECTIONS)
def test_mutated_directions(tmp_path, fixtures_dir, name):
    dim = json.loads((fixtures_dir / name).read_text())["dim"]
    measure = tmp_path / "atom.json"
    measure.write_text(json.dumps({"space": "torus", "dim": dim, "components": [
        {"kind": "atom", "point": ["1/3"] + ["0"] * (dim - 1)}]}))

    def commands(path, doc):
        return [["realize", "--directions", path, "--closure-cap", "50"],
                ["classify", "--measure", str(measure), "--directions", path]]

    _fuzz(tmp_path, fixtures_dir, name, commands)


@pytest.mark.parametrize("name", MODELS)
def test_mutated_models(tmp_path, fixtures_dir, name):
    def commands(path, doc):
        return [["oracle", "--model", path, "--bound", "1"]]

    _fuzz(tmp_path, fixtures_dir, name, commands)
