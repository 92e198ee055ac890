"""Which dirspec functions the traced run wraps, and the per-layer metrics
computed from the spans.

Every span is named `module.function` or `module.Class.method`.  Each
per-layer metric below is a sum over one or more span names (or a counter
kept by a hook), normalised per operation of the workload, so a count
repeats exactly from run to run.
"""
from __future__ import annotations

import importlib
import sys

MODULES = ("scalar", "linalg", "measure", "classify", "fourier", "oracle", "cli")

# wrapped although their names are not public
EXTRA = {
    "scalar": ("FieldScalar.__mul__",),
    # the pairwise convolution behind both `convolve` and the `exp` closure
    "measure": ("_convolve_pair",),
}

# counters that merge by maximum; every other counter merges by sum
HIGH_WATER = ("linalg.smith_normal_form.max_entry_bits",)


def _snf_bits(tracer, result, args):
    u, _, v = result
    bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row),
               default=0)
    tracer.high_water("linalg.smith_normal_form.max_entry_bits", bits)


def _feasible(tracer, result, args):
    tracer.count("linalg.solve_mixed_affine.feasible", result is not None)


def _positive(tracer, result, args):
    tracer.count("classify.wall_test.positive", result.positive)


def _closure(tracer, result, args):
    tracer.count("measure.exp.components", len(result.components))


def _points(tracer, result, args):
    tracer.count("fourier.ft_batch.points", len(result))


HOOKS = {
    "linalg.smith_normal_form": _snf_bits,
    "linalg.solve_mixed_affine": _feasible,
    "classify.wall_test": _positive,
    "measure.exp": _closure,
    "fourier.ft_batch": _points,
}


def install(tracer) -> None:
    """Wrap the public functions of every dirspec module in `tracer`."""
    mods = {name: importlib.import_module(f"dirspec.{name}") for name in MODULES}
    holders = [m for name, m in sys.modules.items()
               if m is not None and (name == "dirspec" or name.startswith("dirspec."))]
    for name, mod in mods.items():
        tracer.patch_module(mod, name, holders, HOOKS, EXTRA.get(name, ()))


def raw_trace(tracer) -> dict:
    """The tracer's totals as plain JSON."""
    return {"stats": {k: [v.calls, v.total_s, v.self_s]
                      for k, v in tracer.stats.items() if v.calls},
            "counters": dict(tracer.counters)}


def merge(into: dict, raw: dict) -> dict:
    for k, (calls, total, self_s) in raw["stats"].items():
        acc = into["stats"].setdefault(k, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += self_s
    for k, v in raw["counters"].items():
        old = into["counters"].get(k, 0)
        into["counters"][k] = max(old, v) if k in HIGH_WATER else old + v
    return into


class Rollup:
    """Span totals of the traced passes, with the numbers to normalise by.

    Span times are raw seconds.  The pass times are scaled to the reference
    machine of `speed.py`, and `traced_scale` is the median factor of the
    traced passes, which turns their raw times into scaled ones."""

    def __init__(self, raw: dict, ops: int, passes: int,
                 untraced_pass_s: float, traced_pass_s: float,
                 traced_scale: float, cli: dict | None = None):
        self.stats, self.counters = raw["stats"], raw["counters"]
        self.ops, self.passes = ops, passes
        self.untraced_pass_s, self.traced_pass_s = untraced_pass_s, traced_pass_s
        self.traced_scale = traced_scale
        self.cli = cli or {}

    def calls(self, *spans: str) -> float:
        return sum(self.stats.get(s, (0, 0, 0))[0] for s in spans)

    def self_s(self, *spans: str) -> float:
        return sum(self.stats.get(s, (0, 0, 0))[2] for s in spans)

    def total_s(self, *spans: str) -> float:
        return sum(self.stats.get(s, (0, 0, 0))[1] for s in spans)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_op_calls(*spans):
    return lambda r: r.calls(*spans) / r.ops


def _per_op_self(*spans):
    return lambda r: r.self_s(*spans) / r.ops


SNF = "linalg.smith_normal_form"
MIXED = "linalg.solve_mixed_affine"
WALL = "classify.wall_test"
FT = "fourier.ft_batch"

# name -> (unit, better, value from a Rollup)
PER_LAYER = {
    "scalar.mul.calls": ("count/op", "lower", _per_op_calls("scalar.FieldScalar.__mul__")),
    "scalar.invert.calls": ("count/op", "lower", _per_op_calls("scalar.FieldScalar.invert")),
    "scalar.floor.calls": ("count/op", "lower", _per_op_calls("scalar.FieldScalar.floor")),
    "scalar.floor.self_s": ("s/op", "lower", _per_op_self("scalar.FieldScalar.floor")),
    "linalg.rref_field.calls": ("count/op", "lower", _per_op_calls("linalg.rref_field")),
    "linalg.rref_field.self_s": ("s/op", "lower", _per_op_self("linalg.rref_field")),
    "linalg.orthocomplement.calls": ("count/op", "lower",
                                     _per_op_calls("linalg.Subspace.orthocomplement")),
    "linalg.orthocomplement.self_s": ("s/op", "lower",
                                      _per_op_self("linalg.Subspace.orthocomplement")),
    "linalg.project.calls": ("count/op", "lower", _per_op_calls("linalg.Subspace.project")),
    "linalg.project.self_s": ("s/op", "lower", _per_op_self("linalg.Subspace.project")),
    "linalg.smith_normal_form.calls": ("count/op", "lower", _per_op_calls(SNF)),
    "linalg.smith_normal_form.self_s": ("s/op", "lower", _per_op_self(SNF)),
    "linalg.smith_normal_form.max_entry_bits": (
        "bits", "lower", lambda r: r.counter(f"{SNF}.max_entry_bits")),
    # SNF's self time against the time of the same traced passes (one
    # operation's time moves by 10-20% from pass to pass, so an untraced
    # pass is no steady base); tracing inflates the base by
    # trace.overhead_ratio, so this slightly understates the share
    "linalg.smith_normal_form.share": (
        "ratio", "lower",
        lambda r: _ratio(r.self_s(SNF) * r.traced_scale / r.passes,
                         r.traced_pass_s)),
    "linalg.solve_mixed_affine.calls": ("count/op", "lower", _per_op_calls(MIXED)),
    "linalg.solve_mixed_affine.self_s": ("s/op", "lower", _per_op_self(MIXED)),
    "linalg.solve_mixed_affine.feasible_ratio": (
        "ratio", "higher", lambda r: _ratio(r.counter(f"{MIXED}.feasible"), r.calls(MIXED))),
    "linalg.hermite_normal_form.calls": ("count/op", "lower",
                                         _per_op_calls("linalg.hermite_normal_form")),
    "linalg.hermite_normal_form.self_s": ("s/op", "lower",
                                          _per_op_self("linalg.hermite_normal_form")),
    "measure.make.calls": ("count/op", "lower", _per_op_calls("measure.SymbolicMeasure.make")),
    "measure.make.self_s": ("s/op", "lower", _per_op_self("measure.SymbolicMeasure.make")),
    "measure.exp.self_s": ("s/op", "lower", _per_op_self("measure.exp")),
    # components per exp call; the closure must not change
    "measure.exp.closure_size": (
        "count", "lower",
        lambda r: _ratio(r.counter("measure.exp.components"), r.calls("measure.exp"))),
    "measure.convolve.self_s": ("s/op", "lower",
                                _per_op_self("measure.convolve", "measure._convolve_pair")),
    # decoding the whole pool once per pass, amortised per operation
    "measure.decode.self_s": ("s/op", "lower", _per_op_self("measure.SymbolicMeasure.decode")),
    "classify.classify_direction.calls": ("count/op", "lower",
                                          _per_op_calls("classify.classify_direction")),
    "classify.classify_direction.self_s": ("s/op", "lower",
                                           _per_op_self("classify.classify_direction")),
    "classify.wall_test.calls": ("count/op", "lower", _per_op_calls(WALL)),
    "classify.wall_test.self_s": ("s/op", "lower", _per_op_self(WALL)),
    "classify.wall_test.positive_ratio": (
        "ratio", "higher", lambda r: _ratio(r.counter(f"{WALL}.positive"), r.calls(WALL))),
    "classify.contains_direction.calls": (
        "count/op", "lower", _per_op_calls("classify.ConciseSet.contains_direction")),
    "classify.contains_direction.self_s": (
        "s/op", "lower", _per_op_self("classify.ConciseSet.contains_direction")),
    "classify.concise.self_s": ("s/op", "lower",
                                _per_op_self("classify.nonergodic_concise",
                                             "classify.nonwm_concise")),
    "classify.enumerate_members.self_s": (
        "s/op", "lower", _per_op_self("classify.ConciseSet.enumerate_members")),
    "classify.realize.self_s": ("s/op", "lower", _per_op_self("classify.realize")),
    "fourier.ft_batch.calls": ("count/op", "lower", _per_op_calls(FT)),
    "fourier.ft_batch.points": ("count/op", "lower",
                                lambda r: r.counter(f"{FT}.points") / r.ops),
    "fourier.ft_batch.self_s": ("s/op", "lower", _per_op_self(FT)),
    "fourier.ft_batch.points_per_s": (
        "1/s", "higher", lambda r: _ratio(r.counter(f"{FT}.points"), r.total_s(FT))),
    "fourier.wiener_mass.self_s": ("s/op", "lower", _per_op_self("fourier.wiener_mass")),
    "fourier.rajchman_probe.self_s": ("s/op", "lower", _per_op_self("fourier.rajchman_probe")),
    "oracle.crosscheck.self_s": ("s/op", "lower", _per_op_self("oracle.crosscheck")),
    "oracle.correlation.calls": ("count/op", "lower", _per_op_calls("oracle.correlation")),
    "oracle.expected_measure.self_s": ("s/op", "lower",
                                       _per_op_self("oracle.expected_measure")),
    # from `-X importtime` of each traced CLI process; 0 off the CLI workload
    "cli.import_s": ("s/op", "lower", lambda r: r.cli.get("import_s", 0.0) / r.ops),
    "cli.import_scipy_s": ("s/op", "lower",
                           lambda r: r.cli.get("import_scipy_s", 0.0) / r.ops),
    "cli.main.self_s": ("s/op", "lower", _per_op_self("cli.main")),
    # traced minus untraced scaled wall time of one pass over the pool
    "trace.overhead_s": ("s", "lower",
                         lambda r: r.traced_pass_s - r.untraced_pass_s),
    "trace.overhead_ratio": ("ratio", "lower",
                             lambda r: _ratio(r.traced_pass_s, r.untraced_pass_s)),
}


def per_layer(rollup: Rollup) -> dict:
    return {name: {"value": fn(rollup), "unit": unit}
            for name, (unit, _, fn) in PER_LAYER.items()}
