"""Command-line front end: reads measure/direction/model JSON documents,
dispatches the toolkit operations, and emits deterministic reports.

Exit codes: 0 success, 2 validation error, 3 numerical/verification check
failure, 4 unsupported operation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

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
from .oracle import crosscheck, decode_model, expected_measure
from .scalar import FieldSpec, decode_scalar

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


def _load_measure(path: str) -> SymbolicMeasure:
    return SymbolicMeasure.decode(_load_json(path))


def _load_directions(doc, field: FieldSpec | None = None,
                     dim: int | None = None) -> list[Subspace]:
    if isinstance(doc, dict):
        field = FieldSpec(tuple(doc.get("field_roots", field.roots if field else ())))
        dim = int(doc.get("dim", dim or 0))
        entries = doc["directions"]
    else:
        entries = doc
    if field is None:
        field = FieldSpec(())
    out = []
    for entry in entries:
        basis = entry["basis"]
        d = dim or (len(basis[0]) if basis else 0)
        rows = [[decode_scalar(field, x) for x in row] for row in basis]
        out.append(Subspace.from_vectors(field, d, rows))
    return out


def _base_config(args) -> EstimatorConfig:
    cfg = EstimatorConfig()
    path = os.environ.get(CONFIG_ENV)
    if path:
        doc = _load_json(path)
        cfg = replace(cfg, **{k: doc[k] for k in doc
                              if k in EstimatorConfig.__dataclass_fields__})
    overrides = {}
    for name in ("samples", "radius", "seed", "tolerance",
                 "periodization_truncation", "group_truncation"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    return replace(cfg, **overrides) if overrides else cfg


def _emit(args, command: str, cfg: EstimatorConfig, inputs: dict, result: dict,
          exit_code: int = EXIT_OK) -> int:
    report = {"tool": "dirspec", "version": __version__, "command": command,
              "config": cfg.encode(), "inputs": inputs, "result": result}
    text = json.dumps(report, sort_keys=True, indent=2) if args.json \
        else _render_text(command, result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


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
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    directions = _load_directions(_load_json(args.directions), m.field, m.dim)
    directions = canonical_order(directions)
    verdicts = []
    for sub in directions:
        v = classify_direction(m, sub)
        entry = v.encode()
        entry["eigenvalue_families"] = [f.encode()
                                        for f in directional_eigenvalues(m, sub)]
        verdicts.append(entry)
    return _emit(args, "classify", cfg,
                 {"measure": m.encode(),
                  "directions": [s.encode() for s in directions]},
                 {"verdicts": verdicts})


def _cmd_directions(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    bound = args.enumeration_bound
    ne = nonergodic_concise(m)
    nw = nonwm_concise(m)
    return _emit(args, "directions", cfg, {"measure": m.encode()},
                 {"nonergodic": ne.encode(bound), "nonwm": nw.encode(bound)})


def _cmd_realize(args) -> int:
    cfg = _base_config(args)
    directions = _load_directions(_load_json(args.directions))
    report = realize(directions, cap=args.closure_cap)
    if args.measure_out:
        with open(args.measure_out, "w", encoding="utf-8") as fh:
            json.dump(report.measure.encode(), fh, sort_keys=True, indent=2)
    code = EXIT_OK if report.verified else EXIT_CHECK_FAILED
    return _emit(args, "realize", cfg,
                 {"directions": [s.encode() for s in report.requested]},
                 report.encode(), code)


def _cmd_exp(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    out = exp(m, cap=args.closure_cap)
    return _emit(args, "exp", cfg, {"measure": m.encode()},
                 {"measure": out.encode()})


def _cmd_convolve(args) -> int:
    cfg = _base_config(args)
    m1 = _load_measure(args.measure)
    m2 = _load_measure(args.other)
    out = convolve(m1, m2)
    return _emit(args, "convolve", cfg,
                 {"measure": m1.encode(), "other": m2.encode()},
                 {"measure": out.encode()})


def _cmd_restrict(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    try:
        gens = json.loads(args.subgroup)
    except RecursionError as exc:
        raise ValidationError(f"cannot parse --subgroup: {exc}") from exc
    h = LatticeSubgroup.from_generators(m.dim, gens)
    out, ident = pushforward_subgroup(m, h)
    return _emit(args, "restrict", cfg,
                 {"measure": m.encode(), "subgroup": h.encode()},
                 {"measure": out.encode(),
                  "identification": [list(r) for r in ident]})


def _cmd_suspend(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    op = suspend if m.space == "torus" else pushforward_quotient
    out = op(m)
    return _emit(args, "suspend", cfg, {"measure": m.encode()},
                 {"measure": out.encode()})


def _cmd_decompose(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    parts = decompose(m)
    return _emit(args, "decompose", cfg, {"measure": m.encode()},
                 {"parts": [p.encode() for p in parts]})


def _cmd_fourier_check(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    result: dict = {}
    failed = False
    if args.directions:
        directions = _load_directions(_load_json(args.directions), m.field, m.dim)
        checks = []
        for sub in directions:
            # the exact mass first: it refuses a periodized measure before
            # any Sobol point is drawn
            true_mass = representative_wall_mass(m, sub, None, cfg)
            est = wiener_mass(m, sub, None, cfg)
            ok = abs(est.estimate - true_mass) <= cfg.tolerance
            failed = failed or not ok
            checks.append({"direction": sub.encode(), "wiener": est.encode(),
                           "representative_mass": true_mass, "ok": ok})
            profile = rajchman_probe(m, sub, args.radii, cfg)
            checks[-1]["decay"] = profile.encode()
        result["wall_checks"] = checks
    result["passed"] = not failed
    return _emit(args, "fourier-check", cfg, {"measure": m.encode()}, result,
                 EXIT_OK if not failed else EXIT_CHECK_FAILED)


def _cmd_oracle(args) -> int:
    cfg = _base_config(args)
    model = decode_model(_load_json(args.model))
    result = {"model": model.encode()}
    # the expected measure first: its budget check is cheaper than a crosscheck
    try:
        result["expected_measure"] = expected_measure(model).encode()
    except UnsupportedConvolutionError as exc:
        result["expected_measure_error"] = str(exc)
    report = crosscheck(model, bound=args.bound, tol=args.crosscheck_tolerance)
    result["crosscheck"] = report.encode()
    return _emit(args, "oracle", cfg, {"model": model.encode()}, result,
                 EXIT_OK if report.passed else EXIT_CHECK_FAILED)


def _cmd_lint(args) -> int:
    cfg = _base_config(args)
    m = _load_measure(args.measure)
    warnings = admissibility_lint(m)
    return _emit(args, "lint", cfg, {"measure": m.encode()},
                 {"warnings": [w.encode() for w in warnings]})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=True,
                        help="emit a JSON report (default)")
    common.add_argument("--text", dest="json", action="store_false",
                        help="emit a plain-text report")
    common.add_argument("--output", help="write the report to a file")
    for name, typ in (("samples", int), ("radius", float), ("seed", int),
                      ("tolerance", float), ("periodization-truncation", int),
                      ("group-truncation", int)):
        common.add_argument(f"--{name}", type=typ, default=None,
                            dest=name.replace("-", "_"))

    parser = argparse.ArgumentParser(
        prog="dirspec",
        description="directional ergodicity / weak mixing / mixing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("classify", help="classify directions against a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--directions", required=True)
    p.set_defaults(func=_cmd_classify)

    p = add_parser("directions", help="concise non-ergodic/non-wm sets")
    p.add_argument("--measure", required=True)
    p.add_argument("--enumeration-bound", type=int, default=3,
                   dest="enumeration_bound")
    p.set_defaults(func=_cmd_directions)

    p = add_parser("realize", help="realize a concise direction family")
    p.add_argument("--directions", required=True)
    p.add_argument("--measure-out", dest="measure_out")
    p.add_argument("--closure-cap", type=int, default=4096, dest="closure_cap")
    p.set_defaults(func=_cmd_realize)

    p = add_parser("exp", help="convolution exponential of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--closure-cap", type=int, default=4096, dest="closure_cap")
    p.set_defaults(func=_cmd_exp)

    p = add_parser("convolve", help="convolve two measures")
    p.add_argument("--measure", required=True)
    p.add_argument("--other", required=True)
    p.set_defaults(func=_cmd_convolve)

    p = add_parser("restrict", help="push forward to a lattice subgroup dual")
    p.add_argument("--measure", required=True)
    p.add_argument("--subgroup", required=True,
                   help="JSON list of integer generator rows")
    p.set_defaults(func=_cmd_restrict)

    p = add_parser("suspend",
                       help="torus -> periodized euclidean lift "
                            "(euclidean input: quotient to the torus)")
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_suspend)

    p = add_parser("decompose", help="wall decomposition by dimension")
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = add_parser("fourier-check",
                       help="numerical wall-mass and decay verification")
    p.add_argument("--measure", required=True)
    p.add_argument("--directions")
    p.add_argument("--radii", type=float, nargs="+",
                   default=[10.0, 50.0, 200.0, 1000.0])
    p.set_defaults(func=_cmd_fourier_check)

    p = add_parser("oracle", help="model correlations vs expected measure")
    p.add_argument("--model", required=True)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--crosscheck-tolerance", type=float, default=1e-12,
                   dest="crosscheck_tolerance")
    p.set_defaults(func=_cmd_oracle)

    p = add_parser("lint", help="admissibility warnings for a measure")
    p.add_argument("--measure", required=True)
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact coordinates may pass Python's int/str digit limit (3.11+, 4,300
    # digits by default): lift it while the command runs, then restore it
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
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
