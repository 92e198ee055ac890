"""One benchmark process: a fresh interpreter that imports dirspec from the
checkout's `src/`, decodes a workload's pool of documents and runs passes
over the pool as a closed loop with one caller.

`run.py` starts this file; it is not meant to be run by hand.  The worker
prints `ready` once the documents are decoded (the parent times set-up up
to that line) and, as its last line, one JSON object with the latencies,
the failures and, in a traced run, the per-layer metrics.

Each pass runs every operation of the pool once, in an order drawn from
the run's seed.  Every pass after the first decodes the documents again
(outside the timed operations), so no pass reuses the objects of another.
Between operations, once every `speed.EVERY_S`, the worker times the
reference kernel of `speed.py`, and scales each latency by the factor that
the kernel's samples nearest to it in time give (see `speed.py`).  It reports
every scaled latency of every operation; `run.py` takes each operation's
median.  Set-up time is scaled by samples taken right after it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The README's subcommands on the bundled fixtures; each runs as a fresh
# `python -m dirspec.cli` process.
CLI_COMMANDS = {
    "classify": ["classify", "--measure", "fixtures/product_bernoulli.json",
                 "--directions", "fixtures/axes_and_diagonal.json"],
    "directions-bw8": ["directions", "--measure", "fixtures/bw8.json",
                       "--enumeration-bound", "2"],
    "directions-chair": ["directions", "--measure", "fixtures/chair.json"],
    "realize": ["realize", "--directions", "fixtures/two_subspaces_r3.json"],
    "decompose": ["decompose", "--measure", "fixtures/bw8.json"],
    "suspend": ["suspend", "--measure", "fixtures/chair.json"],
    "restrict": ["restrict", "--measure", "fixtures/product_bernoulli.json",
                 "--subgroup", "[[1,1]]"],
    "lint": ["lint", "--measure", "fixtures/lonely_atom.json"],
    "fourier-check": ["fourier-check", "--measure", "fixtures/product_bernoulli.json",
                      "--directions", "fixtures/axes_and_diagonal.json"],
    "oracle-bw8": ["oracle", "--model", "fixtures/bw8_model.json", "--bound", "10"],
    "oracle-odometer": ["oracle", "--model", "fixtures/odometer_model.json"],
    "oracle-product": ["oracle", "--model", "fixtures/product_model.json"],
    "oracle-rotation": ["oracle", "--model", "fixtures/rotation_model.json"],
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def decode_directions(doc: dict):
    """A direction document through the public decoders."""
    from dirspec import linalg, scalar

    field = scalar.FieldSpec(tuple(doc["field_roots"]))
    return [linalg.Subspace.from_vectors(
                field, doc["dim"],
                [[scalar.decode_scalar(field, x) for x in row] for row in d["basis"]])
            for d in doc["directions"]]


# ---------------------------------------------------------------------------
# workloads: decode the pool, list the operations, run one, check its output
# ---------------------------------------------------------------------------


class Directions:
    """classify-mix and torus-walls: one operation is one (measure,
    direction) pair."""

    def __init__(self, pool: list[dict]):
        self.pool = pool

    def decode(self):
        from dirspec import measure

        return [(measure.SymbolicMeasure.decode(case["measure"]),
                 decode_directions(case["directions"])) for case in self.pool]

    def ops(self) -> list[str]:
        return [f"{i}.{j}" for i, case in enumerate(self.pool)
                for j in range(len(case["directions"]["directions"]))]

    def run(self, objs, op: str):
        from dirspec import classify

        i, j = map(int, op.split("."))
        m, sub = objs[i][0], objs[i][1][j]
        ne = classify.nonergodic_concise(m)
        nw = classify.nonwm_concise(m)
        verdict = classify.classify_direction(m, sub)
        families = classify.directional_eigenvalues(m, sub)
        return (verdict, families, ne.contains_direction(sub),
                nw.contains_direction(sub))

    @staticmethod
    def finish(raw) -> tuple[bytes, str | None]:
        verdict, families, in_ne, in_nw = raw
        doc = {"verdict": verdict.encode(),
               "eigenvalue_families": [f.encode() for f in families],
               "nonergodic_contains": in_ne, "nonwm_contains": in_nw}
        problem = None
        # subordination to the concise sets decides the same verdicts
        if verdict.ergodic == in_ne or verdict.weak_mixing == in_nw:
            problem = (f"verdict ergodic={verdict.ergodic} weak_mixing="
                       f"{verdict.weak_mixing} disagrees with concise sets "
                       f"NE={in_ne} NW={in_nw}")
        return canonical(doc), problem


def _cli_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "DIRSPEC_CONFIG")}
    env["PYTHONPATH"] = str(SRC)
    return env


_IMPORTTIME = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)\s*$")


def import_times(stderr: str) -> tuple[float, float]:
    """Seconds spent importing dirspec and scipy, from `-X importtime`.

    Each counts the cumulative time of the outermost import lines of that
    package.
    """
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))

    def outermost(pkg: str) -> float:
        mine = [(depth, cum) for depth, name, cum in rows
                if name == pkg or name.startswith(pkg + ".")]
        if not mine:
            return 0.0
        top = min(depth for depth, _ in mine)
        return sum(cum for depth, cum in mine if depth == top) / 1e6

    return outermost("dirspec"), outermost("scipy")


class Cli:
    """cli-cold: one operation is one CLI process on a bundled fixture."""

    def __init__(self):
        self.env = _cli_env()
        # set for a traced run: where each process writes its spans, and
        # their merged totals
        self.traced_dir: Path | None = None
        self.trace = {"stats": {}, "counters": {}}
        self.import_s = self.import_scipy_s = 0.0

    def decode(self):
        """Set-up for the CLI is the documents the commands read."""
        from dirspec import measure, oracle

        objs = []
        for argv in CLI_COMMANDS.values():
            for flag, path in zip(argv, argv[1:]):
                doc = json.loads((ROOT / path).read_text()) \
                    if flag in ("--measure", "--directions", "--model") else None
                if flag == "--measure":
                    objs.append(measure.SymbolicMeasure.decode(doc))
                elif flag == "--directions":
                    objs.append(decode_directions(doc))
                elif flag == "--model":
                    objs.append(oracle.decode_model(doc))
        return objs

    def ops(self) -> list[str]:
        return list(CLI_COMMANDS)

    def run(self, objs, op: str):
        argv = CLI_COMMANDS[op]
        if self.traced_dir is None:
            cmd = [sys.executable, "-m", "dirspec.cli", *argv]
        else:
            trace_file = self.traced_dir / f"{op}.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "clitrace.py"),
                   str(trace_file), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              timeout=170)
        if self.traced_dir is not None:
            from layers import merge

            merge(self.trace, json.loads(trace_file.read_text()))
            dirspec_s, scipy_s = import_times(proc.stderr.decode())
            self.import_s += dirspec_s
            self.import_scipy_s += scipy_s
        return op, proc

    @staticmethod
    def finish(raw) -> tuple[bytes, str | None]:
        op, proc = raw
        if proc.returncode != 0:
            return proc.stdout, (f"exit code {proc.returncode}: "
                                 f"{proc.stderr.decode()[-300:]}")
        result = json.loads(proc.stdout)["result"]
        checks = {"realize": ("verified",), "fourier-check": ("passed",)}
        keys = ("crosscheck", "passed") if op.startswith("oracle") \
            else checks.get(op)
        if keys:
            value = result
            for k in keys:
                value = value[k]
            if value is not True:
                return proc.stdout, f"{'.'.join(keys)} is {value!r}"
        return proc.stdout, None


def make_workload(name: str, pool_file: Path | None):
    if name == "cli-cold":
        return Cli()
    return Directions(json.loads(pool_file.read_text()))


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    def __init__(self, wl, pinned: dict | None, seed: int):
        self.wl = wl
        self.pinned = pinned
        self.rng = random.Random(seed)
        # every scaled latency of each operation that passed its checks, and
        # the median scale factor of each pass
        self.latencies: dict[str, list[float]] = {}
        self.scales: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def one_pass(self, objs) -> float:
        """Every operation once, in a seeded order; returns the wall time
        times the pass's median scale factor."""
        order = self.wl.ops()
        self.rng.shuffle(order)
        # (op, middle of its run, latency), and (time taken, seconds) of
        # the reference kernel's samples
        lats: list[tuple[str, float, float]] = []
        refs: list[tuple[float, float]] = []
        t_pass = time.perf_counter()
        for op in order:
            if not refs or time.perf_counter() - refs[-1][0] >= speed.EVERY_S:
                refs.append((time.perf_counter(), speed.sample()))
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                raw = self.wl.run(objs, op)
                dt = time.perf_counter() - t0
                output, problem = self.wl.finish(raw)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
                continue
            got = digest(output)
            self.digests[op] = got
            if problem is None and self.pinned is not None \
                    and self.pinned.get(op) != got:
                problem = f"output digest {got[:16]} differs from the pinned one"
            if problem is not None:
                self.failures.append(f"{op}: {problem}")
                continue
            lats.append((op, t0 + dt / 2, dt))
        wall = time.perf_counter() - t_pass
        refs.append((time.perf_counter(), speed.sample()))
        self.scales.append(speed.scale([x for _, x in refs]))
        for (op, _, dt), k in zip(lats, speed.local_scales(
                refs, [t for _, t, _ in lats])):
            self.latencies.setdefault(op, []).append(dt * k)
        return wall * self.scales[-1]

    def passes(self, objs, seconds: float, min_passes: int = 1
               ) -> tuple[int, float]:
        """As many whole passes as fill about `seconds`, at least
        `min_passes`; returns the count and the mean scaled wall time of a
        pass."""
        walls = [self.one_pass(objs)]
        for _ in range(max(min_passes, round(seconds / walls[0])) - 1):
            objs = self.wl.decode()
            walls.append(self.one_pass(objs))
        return len(walls), sum(walls) / len(walls)


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pool", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--digests", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import dirspec
    if Path(dirspec.__file__).resolve().parent != SRC / "dirspec":
        print(f"dirspec imported from {dirspec.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.pool)
    objs = wl.decode()
    print("ready", flush=True)
    setup_scale = speed.scale([speed.sample() for _ in range(5)])
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}))
        return 0

    pinned = json.loads(args.digests.read_text())["sha256"][args.workload] \
        if args.digests else None
    loop = Loop(wl, pinned, args.seed)
    cli = args.workload == "cli-cold"
    out = {}
    if not args.trace:
        out["passes"], _ = loop.passes(objs, args.seconds, args.min_passes)
        out["peak_rss_mb"] = peak_rss_mb(cli)
    else:
        import layers
        import tracer as tracer_mod

        tracer_mod.selftest()
        # the first pass of a process is slower (its heap is not yet grown)
        loop.one_pass(objs)
        untraced_s = loop.one_pass(wl.decode())
        if cli:
            with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
                wl.traced_dir = Path(tmp)
                passes, traced_s = loop.passes(wl.decode(), args.seconds)
            raw = wl.trace
        else:
            with tracer_mod.Tracer() as tr:
                layers.install(tr)
                passes, traced_s = loop.passes(wl.decode(), args.seconds)
            raw = layers.raw_trace(tr)
        ops = len(wl.ops()) * passes
        traced_scale = statistics.median(loop.scales[-passes:])
        rollup = layers.Rollup(raw, ops, passes, untraced_s, traced_s,
                               traced_scale,
                               {"import_s": wl.import_s,
                                "import_scipy_s": wl.import_scipy_s} if cli else None)
        out["passes"] = passes
        out["per_layer"] = layers.per_layer(rollup)
    out.update(setup_scale=setup_scale, scales=loop.scales,
               latencies=loop.latencies, attempted=loop.attempted,
               failed=len(loop.failures), failures=loop.failures[:10])
    if args.digests is None:
        out["digests"] = loop.digests
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
