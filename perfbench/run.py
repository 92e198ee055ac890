"""The dirspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It imports dirspec from `src/` of that
checkout, never from an installed copy.

Workloads (see `BENCHMARK.json` and `perfbench/baseline.json` for why each
was chosen):

* classify-mix, torus-walls: one operation is `classify_direction`,
  `directional_eigenvalues` and `contains_direction` on the NE/NW concise
  sets, for one (measure, direction) pair;
* cli-cold: one operation is one fresh `python -m dirspec.cli` process.

Each workload's documents are a fixed pool: `gen.py` makes it from
`POOL_SEED` (cli-cold uses the bundled fixtures).  `--seed` draws the order
in which each pass visits the pool.  A run makes whole passes over the pool
until about `--seconds` have passed (at least `MIN_PASSES`), one operation
at a time: a closed loop with one caller, in one worker process.  Each
operation's latency is the median of its passes in the run.

Every time the benchmark reports is scaled to a reference machine: the
worker times a fixed kernel (`speed.py`) between operations and multiplies
each latency by the kernel's reference time over its median time in the
samples nearest to that operation.  The machine this runs on drifts in
speed by 20-40% over minutes, and dirspec's work drifts largely with the
kernel's, so the scaled times stay steady where the raw ones do not.  The median
factor is printed.

Every operation's output is checked twice: by an independent check (the
verdicts agree with subordination to the concise sets; the CLI exits with
0, `realize` verifies its report and the oracle crosscheck passes) and by the
sha256 of its canonical JSON (the CLI's stdout), which must equal the
digest pinned from the seed commit in `perfbench/digests.json`.  A failed
check counts toward the error rate and makes the command exit with 1.

With `--trace 0` the last line of output holds the end-to-end metrics:

* setup_s: a fresh interpreter imports dirspec and decodes the pool through
  the public decoders (median of three interpreters);
* ops_per_s: operations per second of operation time, one of each
  operation of the pool;
* latency_p50_ms, latency_tail_ms: the median latency over the pool's
  operations, and the latency with exactly ten operations beyond it (its
  percentile is printed);
* peak_rss_mb: the worker's peak resident set size (for cli-cold, the
  largest of the CLI processes).

The error rate (failed / attempted operations) is printed with them and
carried by `attempted` and `failed`.  With `--trace 1` the worker runs a
warm-up pass and one untraced pass, then traced passes with every dirspec
module wrapped, and the last line holds the per-layer metrics of
`layers.py`.  Span times in a traced run are raw seconds.

`python3 perfbench/run.py --pin` runs one pass of every workload and
writes the digests of their outputs to `perfbench/digests.json`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("classify-mix", "torus-walls", "cli-cold")
POOL_SEED = 0
SETUP_RUNS = 3
# Passes a run makes at least.  Even scaled (see speed.py), one
# operation's time moves by 10-20% from one pass to the next, and the
# first pass of a process is slower (its heap is not yet grown); each
# operation's median over the passes takes that out.  torus-walls' time is
# half one 5 s operation, so a single pass would carry that operation's
# noise whole.  A pass of cli-cold takes about 20 s.
MIN_PASSES = {"classify-mix": 3, "torus-walls": 4, "cli-cold": 1}
# leaves the whole command inside its 180 s limit
WORKER_TIMEOUT_S = 150
# str hashes are randomized per process, and with them the iteration order
# of sets and dicts and the work that follows it.  Every process the
# benchmark starts uses one hash seed, so every run does the same work.
ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def checkout_problem() -> str | None:
    for need in ("src/dirspec/__init__.py", "fixtures/bw8.json"):
        if not (ROOT / need).is_file():
            return f"{need} is missing: run from the root of a dirspec checkout"
    return None


def worker_cmd(workload: str, pool: Path | None, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    if pool is not None:
        cmd += ["--pool", str(pool)]
    return cmd + list(extra)


def write_pool(workload: str) -> Path | None:
    WORK.mkdir(exist_ok=True)
    if workload == "cli-cold":
        return None
    path = WORK / f"{workload}.json"
    path.write_text(json.dumps(gen.generate(workload, POOL_SEED)))
    return path


def start(workload: str, pool: Path | None, *extra: str) -> tuple[float, dict]:
    """Run one worker; returns its set-up time (fresh interpreter to
    `ready`: import dirspec and decode the pool), scaled to the reference
    machine of `speed.py`, and its result."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(workload, pool, *extra), cwd=ROOT, env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker for {workload} exited with "
                           f"{proc.returncode}: {err[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    return setup_s * result["setup_scale"], result


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """The latency with exactly ten samples beyond it, and its percentile."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def end_to_end(result: dict, setup_s: float) -> tuple[dict, list[str]]:
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    lines = [f"setup_s          {setup_s:.4f} s  (median of {SETUP_RUNS} fresh "
             "interpreters: import dirspec, decode the pool)",
             f"speed scale      {statistics.median(result['scales']):.4f}  (median "
             f"of {len(result['scales'])} passes; each time below is its raw "
             "time times the factor at that time, see speed.py)"]
    samples = result["latencies"]
    typical = [statistics.median(lats) for lats in samples.values()]
    if typical:
        ops = len(typical) / sum(typical)
        p50 = statistics.median(typical) * 1e3
        metrics["ops_per_s"] = {"value": ops, "unit": "1/s"}
        metrics["latency_p50_ms"] = {"value": p50, "unit": "ms"}
        lines += [f"ops_per_s        {ops:.4f} 1/s",
                  f"latency_p50_ms   {p50:.4f} ms  (n={len(typical)} operations, "
                  f"each the median of {min(map(len, samples.values()))} or "
                  "more passes)"]
    t = tail(typical)
    if t is not None:
        metrics["latency_tail_ms"] = {"value": t[0] * 1e3, "unit": "ms"}
        lines.append(f"latency_tail_ms  {t[0] * 1e3:.4f} ms  (p{t[1]:.2f}, "
                     "10 operations beyond it)")
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    lines.append(f"peak_rss_mb      {result['peak_rss_mb']:.4f} MB")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"error_rate       {failed / attempted:.4f}  "
                 f"({failed} failed of {attempted} attempted)")
    return metrics, lines


def pin() -> int:
    """Write the output digests of one pass of every workload."""
    out = {}
    for workload in WORKLOADS:
        _, res = start(workload, write_pool(workload), "--seconds", "0")
        if res["failed"]:
            print(f"{workload}: {res['failures']}", file=sys.stderr)
            return 1
        out[workload] = dict(sorted(res["digests"].items()))
        print(f"{workload}: pinned {len(out[workload])} digests")
    DIGESTS.write_text(json.dumps({"pool_seed": POOL_SEED, "sha256": out},
                                  indent=1) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="dirspec benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="write perfbench/digests.json from this checkout")
    args = ap.parse_args()
    problem = checkout_problem()
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        ap.error("--workload is required")

    pool = write_pool(args.workload)
    setup_s, res = start(args.workload, pool, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--min-passes", str(MIN_PASSES[args.workload]),
                         "--trace", str(args.trace), "--digests", str(DIGESTS))
    setups = [setup_s]
    while len(setups) < SETUP_RUNS:
        setups.append(start(args.workload, pool, "--setup-only")[0])

    print(f"workload {args.workload}: seed {args.seed}, {res['passes']} pass(es) "
          "over the pool, closed loop with one caller")
    if args.trace:
        metrics = res["per_layer"]
        for name, m in metrics.items():
            print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    else:
        metrics, lines = end_to_end(res, statistics.median(setups))
        print("\n".join(lines))
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    attempted, failed = res["attempted"], res["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
