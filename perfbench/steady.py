"""Steadiness check: run the benchmark on several seeds, in one or more sets,
and compare each end-to-end metric's spread and drift with its bound.

    python3 perfbench/steady.py --seeds 10 --sets 2 [--workload NAME ...]

Run it from the root of a checkout.  For every workload, metric and set it
prints the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread, (Q3 - Q1) / median.  A spread must stay within the metric's
bound in `BENCHMARK.json` (setup_s excepted), and below a third of it to
leave room for a noisier machine.  With two or more sets, each later set's
median may be worse than the first set's by at most the bound.  Set k uses
seeds 1000*k, 1000*k + 1, ...  The last line is the whole table as JSON;
the exit code is 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, trace: int = 0) -> dict:
    """One run of the benchmark command; its metrics by name."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stdout[-1500:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    return (later - first) / first if better == "lower" else (first - later) / first


def measure(bench: dict, workloads: list[str], seeds: int, sets: int
            ) -> tuple[dict, bool]:
    """Run every workload `sets` x `seeds` times; print and return the
    table, and whether every check held."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    table: dict = {}
    ok = True
    for workload in workloads:
        runs = [[run_once(bench, workload, 1000 * k + i) for i in range(seeds)]
                for k in range(sets)]
        table[workload] = {}
        for name, spec in metrics.items():
            summaries = [summary([r[name] for r in one]) for one in runs]
            bound = spec["bound"]
            row = {"bound": bound, "sets": summaries,
                   "drift": [worse_by(summaries[0]["median"], s["median"],
                                      spec["better"]) for s in summaries[1:]]}
            spread_ok = name == "setup_s" or all(s["spread"] <= bound / 3
                                                 for s in summaries)
            row["ok"] = spread_ok and all(d <= bound for d in row["drift"])
            ok = ok and row["ok"]
            table[workload][name] = row
            cells = "  ".join(f"med {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                              f"spread {s['spread']:.3f}" for s in summaries)
            drift = " ".join(f"drift {d:+.3f}" for d in row["drift"])
            print(f"{workload:16s} {name:16s} bound {bound:.2f}  {cells}  {drift}  "
                  f"{'ok' if row['ok'] else 'FAIL'}", flush=True)
    return table, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    table, ok = measure(bench, workloads, args.seeds, args.sets)
    print(json.dumps(table))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
