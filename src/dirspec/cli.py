"""Command-line front end: reads measure/direction/model JSON documents,
dispatches the toolkit operations, and emits deterministic reports.

Each subcommand is one row of ``COMMANDS``.  ``main`` builds the estimator
config, decodes ``--measure`` when the command takes one, runs the handler
and writes its one report.

Exit codes: 0 success, 2 validation error, 3 numerical/verification check
failure, 4 unsupported operation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache

from . import __version__
from .classify import (admissibility_lint, canonical_order, classify_direction,
                       directional_eigenvalues, nonergodic_concise,
                       nonwm_concise, realize)
from .errors import (ClosureBoundError, DirspecError, UnsupportedConvolutionError,
                     ValidationError)
from .fourier import (EstimatorConfig, rajchman_probe, representative_wall_mass,
                      wiener_mass)
from .linalg import LatticeSubgroup, Subspace
from .measure import (SymbolicMeasure, convolve, decompose, exp,
                      pushforward_quotient, pushforward_subgroup, suspend)
from .scalar import QQ, FieldSpec, _decode_int, decode_scalar

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CHECK_FAILED = 3
EXIT_UNSUPPORTED = 4

CONFIG_ENV = "DIRSPEC_CONFIG"


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load_directions(doc, field: FieldSpec = QQ, dim: int = 0) -> list[Subspace]:
    """A direction document, or a bare list of its entries; the document's
    ``field_roots`` and ``dim`` replace ``field`` and ``dim``."""
    if isinstance(doc, dict):
        field = FieldSpec(tuple(doc.get("field_roots", field.roots)))
        dim = _decode_int(doc.get("dim", dim), "direction dim")
        doc = doc["directions"]
    out = []
    for entry in doc:
        basis = entry["basis"]
        rows = [[decode_scalar(field, x) for x in row] for row in basis]
        out.append(Subspace.from_vectors(field, dim or (len(basis[0]) if basis else 0), rows))
    return out


def _base_config(args) -> EstimatorConfig:
    """The defaults, overridden by the keys of the ``DIRSPEC_CONFIG`` file,
    overridden by the flags; ``EstimatorConfig`` checks the values."""
    path = os.environ.get(CONFIG_ENV)
    doc = _load_json(path) if path else {}
    if not isinstance(doc, dict):
        raise ValidationError(f"{CONFIG_ENV} must name a JSON object")
    names = [f.name for f in fields(EstimatorConfig)]
    values = {name: doc[name] for name in names if name in doc}
    values.update((name, v) for name in names if (v := getattr(args, name)) is not None)
    return EstimatorConfig(**values)


def _render_text(command: str, result: dict) -> str:
    lines = [f"dirspec {command}"]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in sorted(obj.items()):
                walk(f"{prefix}{k}.", v)
        elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}.", v)
        else:
            lines.append(f"  {prefix[:-1]} = {obj}")

    walk("", result)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand handlers: (args, config, measure or None) -> (inputs, result,
# exit code); ``main`` adds the measure to the inputs
# ---------------------------------------------------------------------------


def _cmd_classify(args, cfg, m):
    directions = canonical_order(
        _load_directions(_load_json(args.directions), m.field, m.dim))
    verdicts = []
    for sub in directions:
        entry = classify_direction(m, sub).encode()
        entry["eigenvalue_families"] = [f.encode()
                                        for f in directional_eigenvalues(m, sub)]
        verdicts.append(entry)
    return ({"directions": [s.encode() for s in directions]},
            {"verdicts": verdicts}, EXIT_OK)


def _cmd_directions(args, cfg, m):
    ne, nw = nonergodic_concise(m), nonwm_concise(m)
    bound = args.enumeration_bound
    return {}, {"nonergodic": ne.encode(bound), "nonwm": nw.encode(bound)}, EXIT_OK


def _cmd_realize(args, cfg, m):
    report = realize(_load_directions(_load_json(args.directions)), cap=args.closure_cap)
    if args.measure_out:
        with open(args.measure_out, "w", encoding="utf-8") as fh:
            json.dump(report.measure.encode(), fh, sort_keys=True, indent=2)
    return ({"directions": [s.encode() for s in report.requested]}, report.encode(),
            EXIT_OK if report.verified else EXIT_CHECK_FAILED)


def _cmd_exp(args, cfg, m):
    return {}, {"measure": exp(m, cap=args.closure_cap).encode()}, EXIT_OK


def _cmd_convolve(args, cfg, m):
    other = SymbolicMeasure.decode(_load_json(args.other))
    return {"other": other.encode()}, {"measure": convolve(m, other).encode()}, EXIT_OK


def _cmd_restrict(args, cfg, m):
    try:
        gens = json.loads(args.subgroup)
    except RecursionError as exc:
        raise ValidationError(f"cannot parse --subgroup: {exc}") from exc
    h = LatticeSubgroup.from_generators(m.dim, gens)
    out, ident = pushforward_subgroup(m, h)
    return ({"subgroup": h.encode()},
            {"measure": out.encode(), "identification": [list(r) for r in ident]},
            EXIT_OK)


def _cmd_suspend(args, cfg, m):
    op = suspend if m.space == "torus" else pushforward_quotient
    return {}, {"measure": op(m).encode()}, EXIT_OK


def _cmd_decompose(args, cfg, m):
    return {}, {"parts": [p.encode() for p in decompose(m)]}, EXIT_OK


def _cmd_fourier_check(args, cfg, m):
    directions = _load_directions(_load_json(args.directions), m.field, m.dim) \
        if args.directions else []
    checks = []
    for sub in directions:
        # the exact mass first: it refuses a periodized measure before any
        # Sobol point is drawn
        true_mass = representative_wall_mass(m, sub, None, cfg)
        est = wiener_mass(m, sub, None, cfg)
        checks.append({"direction": sub.encode(), "wiener": est.encode(),
                       "representative_mass": true_mass,
                       "ok": abs(est.estimate - true_mass) <= cfg.tolerance,
                       "decay": rajchman_probe(m, sub, args.radii, cfg).encode()})
    result = {"passed": all(c["ok"] for c in checks)}
    if args.directions:
        result["wall_checks"] = checks
    return {}, result, EXIT_OK if result["passed"] else EXIT_CHECK_FAILED


def _cmd_oracle(args, cfg, m):
    from .oracle import crosscheck, decode_model, expected_measure  # loaded for oracle only

    model = decode_model(_load_json(args.model))
    result = {"model": model.encode()}
    # the expected measure first: its budget check is cheaper than a crosscheck
    try:
        result["expected_measure"] = expected_measure(model).encode()
    except UnsupportedConvolutionError as exc:
        result["expected_measure_error"] = str(exc)
    report = crosscheck(model, bound=args.bound, tol=args.crosscheck_tolerance)
    result["crosscheck"] = report.encode()
    return ({"model": model.encode()}, result,
            EXIT_OK if report.passed else EXIT_CHECK_FAILED)


def _cmd_lint(args, cfg, m):
    return {}, {"warnings": [w.encode() for w in admissibility_lint(m)]}, EXIT_OK


# ---------------------------------------------------------------------------
# the command table: name -> (help, handler, [(flag, argparse keywords)])
# ---------------------------------------------------------------------------

_MEASURE = ("--measure", {"required": True})
_DIRECTIONS = ("--directions", {"required": True})
_CLOSURE_CAP = ("--closure-cap", {"type": int, "default": 4096})

COMMANDS = {
    "classify": ("classify directions against a measure", _cmd_classify,
                 [_MEASURE, _DIRECTIONS]),
    "directions": ("concise non-ergodic/non-wm sets", _cmd_directions,
                   [_MEASURE, ("--enumeration-bound", {"type": int, "default": 3})]),
    "realize": ("realize a concise direction family", _cmd_realize,
                [_DIRECTIONS, ("--measure-out", {}), _CLOSURE_CAP]),
    "exp": ("convolution exponential of a measure", _cmd_exp,
            [_MEASURE, _CLOSURE_CAP]),
    "convolve": ("convolve two measures", _cmd_convolve,
                 [_MEASURE, ("--other", {"required": True})]),
    "restrict": ("push forward to a lattice subgroup dual", _cmd_restrict,
                 [_MEASURE, ("--subgroup", {"required": True,
                                            "help": "JSON list of integer generator rows"})]),
    "suspend": ("torus -> periodized euclidean lift "
                "(euclidean input: quotient to the torus)", _cmd_suspend, [_MEASURE]),
    "decompose": ("wall decomposition by dimension", _cmd_decompose, [_MEASURE]),
    "fourier-check": ("numerical wall-mass and decay verification", _cmd_fourier_check,
                      [_MEASURE, ("--directions", {}),
                       ("--radii", {"type": float, "nargs": "+",
                                    "default": [10.0, 50.0, 200.0, 1000.0]})]),
    "oracle": ("model correlations vs expected measure", _cmd_oracle,
               [("--model", {"required": True}), ("--bound", {"type": int, "default": 10}),
                ("--crosscheck-tolerance", {"type": float, "default": 1e-12})]),
    "lint": ("admissibility warnings for a measure", _cmd_lint, [_MEASURE]),
}


@cache  # one parser per process: in-process callers run main many times
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--text", dest="json", action="store_false",
                        help="emit a plain-text report")
    common.add_argument("--output", help="write the report to a file")
    for f in fields(EstimatorConfig):
        common.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))

    parser = argparse.ArgumentParser(
        prog="dirspec",
        description="directional ergodicity / weak mixing / mixing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # exact coordinates may pass Python's int/str digit limit (3.11+, 4,300
    # digits by default): lift it while the command runs, then restore it
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        cfg = _base_config(args)
        path = getattr(args, "measure", None)
        m = SymbolicMeasure.decode(_load_json(path)) if path else None
        inputs, result, code = COMMANDS[args.command][1](args, cfg, m)
        if m is not None:
            inputs["measure"] = m.encode()
        report = {"tool": "dirspec", "version": __version__, "command": args.command,
                  "config": cfg.encode(), "inputs": inputs, "result": result}
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) if args.json \
            else _render_text(args.command, result)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return code
    except (DirspecError, KeyError, TypeError, ValueError) as exc:
        kind = type(exc).__name__ if isinstance(exc, DirspecError) else "ValidationError"
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(
            exc, (UnsupportedConvolutionError, ClosureBoundError)) else EXIT_VALIDATION
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
