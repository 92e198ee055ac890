"""Seeded fuzz of ``cli.main`` over mutated fixture documents and numeric flags.

Each document case replaces one node of a fixture document (a leaf or a
whole subtree) by a value from ``POOL`` and runs every command that reads
that kind of document, with small caps.  Whatever the document holds,
``main`` must end in a documented exit code (0, 2, 3 or 4) and raise nothing.

The cases are every node whose list indices are all 0 or 1 (so the first
two entries of each list, with the top-level integer fields) crossed with
the whole pool, plus a seeded sample of the deeper nodes.

Each flag case gives one ``int`` or ``float`` flag of ``COMMANDS`` or of
``EstimatorConfig`` a value from ``FLAG_VALUES``: it must end in a
documented exit code too, and any report must be strict JSON (no NaN or
infinity).  A negative seed or truncation must exit 2 naming the setting.
"""
import contextlib
import io
import json
import math
import random
from dataclasses import fields

import pytest

from dirspec.cli import COMMANDS, main
from dirspec.fourier import EstimatorConfig
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


FLAG_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e400"]
# (flag, value) cases that must exit 2 with an error naming the setting
NAMED_REFUSALS = {("--seed", "-1"): "seed",
                  ("--periodization-truncation", "-1"): "periodization_truncation",
                  ("--group-truncation", "-1"): "group_truncation"}
# per command, the arguments a numeric flag of that command is added to
FLAG_BASES = {
    "directions": [["--measure", "{fx}/chair.json"]],
    "realize": [["--directions", "{fx}/axes_and_diagonal.json"]],
    "exp": [["--measure", "{fx}/broken_symmetry.json"]],
    "fourier-check": [["--measure", "{fx}/product_bernoulli.json",
                       "--directions", "{fx}/axes_and_diagonal.json", "--samples", "64"]],
    "oracle": [["--model", "{fx}/rotation_model.json", "--bound", "2"]],
}
# the estimator flags, on boxes, on an atom group and on a periodized measure
ESTIMATOR_BASES = FLAG_BASES["fourier-check"] + [
    ["--measure", "{fx}/chair.json", "--directions", "{fx}/axes_and_diagonal.json",
     "--samples", "64", "--group-truncation", "1"],
    ["--measure", "{fx}/broken_symmetry_periodized.json",
     "--directions", "{fx}/axes_and_diagonal.json", "--samples", "64"]]


def _flag_cases():
    cases = [(name, flag, base) for name, (_, _, arguments) in COMMANDS.items()
             for flag, kwargs in arguments if kwargs.get("type") in (int, float)
             for base in FLAG_BASES[name]]
    cases += [("fourier-check", "--" + f.name.replace("_", "-"), base)
              for f in fields(EstimatorConfig) for base in ESTIMATOR_BASES]
    return cases


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_numeric_flags(fixtures_dir):
    failures = []
    for command, flag, base in _flag_cases():
        for value in FLAG_VALUES:
            argv = [command, *(a.format(fx=fixtures_dir) for a in base), f"{flag}={value}"]
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse refuses a value it cannot convert
                code = exc.code
            name = NAMED_REFUSALS.get((flag, value))
            if name and (code != 2 or name not in err.getvalue()):
                failures.append(f"{argv}: exit code {code}, {err.getvalue()!r} names no {name}")
            elif code not in (0, 2, 3, 4):
                failures.append(f"{argv}: exit code {code}")
            elif out.getvalue():
                try:
                    json.loads(out.getvalue(), parse_constant=_no_constant)
                except ValueError as exc:
                    failures.append(f"{argv}: {exc}")
    assert not failures, "\n".join(failures[:20])
