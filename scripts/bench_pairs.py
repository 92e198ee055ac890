#!/usr/bin/env python3
"""Run the benchmark on two revisions in alternating pairs and summarize.

    python3 scripts/bench_pairs.py --parent REV --change REV --pairs 10 \\
        [--workload W ...] [--tag TAG]

Both revisions are exported with `git archive` into one temporary directory
and run uncompiled: every run sets PYTHONDONTWRITEBYTECODE=1, which the
benchmark's children inherit, so each benchmark process compiles every
module it imports, as a checkout that writes no bytecode does, and set-up
and CLI times include that compilation.  Pair i runs
`perfbench/run.py --workload W --seed i --seconds 12` once on each side,
the parent first in odd pairs and the change first in even ones.  An
uncommitted change can be measured as `--change $(git stash create)`
once its new files are staged.

Peak RSS grows with the passes a run makes, and a faster side makes more
of them in 12 s.  So each pair of `classify-mix` and `torus-walls` also
runs `perfbench/worker.py --seconds 0 --min-passes 10` once on each side,
in the same order, on the benchmark's pool and pinned digests: peak RSS at
exactly 10 passes, reported in rows labelled `(10 passes)` and under
`fixed_passes` in the BENCH file.

After the pairs, Tier-1 (ROADMAP's command, `python -m pytest -q
--continue-on-collection-errors` with `src` first on PYTHONPATH) runs once
in each exported tree, parent first.  Each side's wall time, exit code and
the counts of pytest's summary line are printed under the table and kept
under `tier1` in the BENCH file.

It prints one Markdown row per workload and end-to-end metric of
`BENCHMARK.json`: the parent's median with its interquartile range, the
change's median with its relative difference, and the pairs in which the
change is better (ties count for neither side).  Quartiles are those of
`statistics.quantiles(..., n=4, method="inclusive")`.  It writes the same
numbers, every run's metrics and whether every run printed `correct: true`
to `BENCH_<tag>.json` at the root of the repository holding this script,
whose revisions it measures (the tag defaults to the change's abbreviated
hash), with the machine: platform, Python and the installed numpy and scipy
(`importlib.metadata`; null when one is missing).
"""
from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SECONDS = 12  # the run length of the ROADMAP's pair protocol
FIXED_PASSES = 10
FIXED_WORKLOADS = ("classify-mix", "torus-walls")  # cli-cold: the largest CLI process
# the benchmark's environment: no bytecode written, one str hash seed
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` at ``dest``, as committed."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run: the JSON of its last line of output."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          cwd=root, capture_output=True, text=True, env=ENV)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}, "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def write_pool(root: Path, workload: str) -> str:
    """The benchmark's pool of ``workload``, written by its own `run.write_pool`."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'perfbench'); import run; "
         "print(run.write_pool(sys.argv[1]))", workload],
        cwd=root, capture_output=True, text=True, env=ENV, check=True).stdout.strip()


def fixed_pass_run(root: Path, workload: str, pool: str, seed: int) -> dict:
    """One worker making exactly FIXED_PASSES passes, as a run result: its
    peak RSS, correct when every operation passed its checks and digest."""
    proc = subprocess.run([sys.executable, "perfbench/worker.py", "--workload", workload,
                           "--pool", pool, "--seed", str(seed), "--seconds", "0",
                           "--min-passes", str(FIXED_PASSES),
                           "--digests", "perfbench/digests.json"],
                          cwd=root, capture_output=True, text=True, env=ENV)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "metrics": {}, "error": proc.stderr[-2000:]}
    out = json.loads(lines[-1])
    return {"correct": out["failed"] == 0 and out["passes"] == FIXED_PASSES,
            "metrics": {"peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"}}}


def tier1(root: Path) -> dict:
    """One Tier-1 run in ``root``: its wall time, exit code, the summary line
    pytest prints last and that line's counts ({"passed": 774, ...})."""
    path = os.pathsep.join(filter(None, ["src", ENV.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=root, capture_output=True, text=True,
                          env={**ENV, "PYTHONPATH": path})
    wall = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1].strip("= ")
    return {"wall_s": wall, "returncode": proc.returncode, "summary": summary,
            "counts": {word: int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary)}}


def tier1_lines(results: dict[str, dict]) -> str:
    """One line per side of ``{side: tier1(...)}`` for under the table."""
    return "\n".join(
        f"Tier-1 {side}: " + (", ".join(f"{n} {word}" for word, n in r["counts"].items())
                              or f"exit code {r['returncode']}") + f" in {r['wall_s']:.1f} s"
        for side, r in results.items())


def machine() -> dict:
    """The platform, the interpreter and the installed numpy and scipy."""
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"platform": platform.platform(), "python": platform.python_version(),
            "processor": platform.machine(), "numpy": version("numpy"), "scipy": version("scipy")}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (BENCHMARK.json's list): each side's
    quartiles and the pairs the change wins.  ``runs`` holds one
    {"parent": result, "change": result} per pair."""
    out = {"pairs": len(runs),
           "correct": all(r[side].get("correct") for r in runs for side in SIDES),
           "metrics": {}}
    for spec in end_to_end:
        name = spec["name"]
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs
                 if name in r["parent"].get("metrics", {}) and name in r["change"].get("metrics", {})]
        if not pairs:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        entry = {"unit": spec["unit"], "better": spec["better"], "pairs": len(pairs),
                 "change_wins": sum(sign * (c - p) > 0 for p, c in pairs)}
        for i, side in enumerate(SIDES):
            q1, median, q3 = quartiles([pair[i] for pair in pairs])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        out["metrics"][name] = entry
    return out


def table(summaries: dict[str, dict]) -> str:
    """The Markdown pair table of ``{workload: summarize(...)}``."""
    lines = ["| workload | metric | parent median (IQR) | change median (change) "
             "| pairs the change wins |", "|---|---|---|---|---|"]
    for workload, summary in summaries.items():
        for name, m in summary["metrics"].items():
            p, c = m["parent"], m["change"]
            rel = (c["median"] - p["median"]) / p["median"] * 100 if p["median"] else 0.0
            lines.append(f"| {workload} | `{name}` | {p['median']:,.3f} ({p['q3'] - p['q1']:,.3f}) "
                         f"| {c['median']:,.3f} ({rel:+.1f}%) | {m['change_wins']}/{m['pairs']} |")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--tag")
    args = ap.parse_args()
    revs = {side: subprocess.run(["git", "rev-parse", getattr(args, side)], cwd=ROOT,
                                 capture_output=True, text=True, check=True).stdout.strip()
            for side in SIDES}
    tag = args.tag or revs["change"][:7]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], roots[side])
        bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        rss = [spec for spec in bench["end_to_end"] if spec["name"] == "peak_rss_mb"]
        workloads = args.workload or [w["name"] for w in bench["workloads"]]
        summaries, all_runs, fixed, fixed_runs = {}, {}, {}, {}
        for workload in workloads:
            runs, rss_runs = [], []
            pools = {side: write_pool(roots[side], workload) for side in SIDES} \
                if workload in FIXED_WORKLOADS else None
            for i in range(1, args.pairs + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                runs.append({side: run_once(roots[side], workload, i)
                             for side in order})
                if pools:
                    rss_runs.append({side: fixed_pass_run(roots[side], workload, pools[side], i)
                                     for side in order})
                print(f"{workload} pair {i}: " + ", ".join(
                    f"{side} {runs[-1][side].get('metrics', {}).get('ops_per_s', {}).get('value')}"
                    for side in SIDES), file=sys.stderr, flush=True)
            all_runs[workload] = runs
            summaries[workload] = summarize(runs, bench["end_to_end"])
            if pools:
                fixed_runs[workload] = rss_runs
                fixed[workload] = summarize(rss_runs, rss)
        tests = {side: tier1(roots[side]) for side in SIDES}
    print(table({**summaries, **{f"{w} ({FIXED_PASSES} passes)": s for w, s in fixed.items()}}))
    print("\n" + tier1_lines(tests))
    doc = {"tag": tag, "revisions": revs, "pairs": args.pairs, "seconds": SECONDS,
           "machine": machine(),
           "bytecode": "none: uncompiled sources, every run with PYTHONDONTWRITEBYTECODE=1",
           "workloads": summaries, "runs": all_runs,
           "fixed_passes": {"passes": FIXED_PASSES, "workloads": fixed, "runs": fixed_runs},
           "tier1": tests}
    (ROOT / f"BENCH_{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(s["correct"] for s in (*summaries.values(), *fixed.values())) \
        and tests["change"]["returncode"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
