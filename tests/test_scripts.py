"""The fingerprint scripts under ``scripts/`` print the same bytes as the
versions their hashes were pinned from.

Each script runs in a fresh interpreter: ``lattice_dump.py`` wraps functions
of ``linalg`` while it records, which must not leak into other tests.
"""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import dirspec

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(dirspec.__file__).resolve().parents[1])


def run_script(name: str) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.stdout


def test_classify_fixtures_table():
    out = run_script("classify_fixtures.py")
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "a22ed9f0eb9d6d7ac2c7e1dcf9c81f9348b8c39c7cc3e7ec7b32dbdfad477d77"


def test_lattice_dump_fingerprint():
    # ROADMAP item 1(b), the switch from SNF to an HNF witness solve, changes
    # atom-group witnesses and re-pins this hash on purpose.  Full directions
    # decide their walls without a system, so this is the hash that the
    # previous script printed with full directions left out of its pools
    out = run_script("lattice_dump.py")
    assert out.splitlines()[-1] \
        == "sha256 7757077e80fe47cfab6848a25c997621ec8e569806c86fdce74df63fbb964d42"


def test_bench_pairs_table_and_summary(monkeypatch):
    # the pair runner's table and BENCH summary from canned run results, with
    # no subprocess: quartiles per side, wins by each metric's direction
    # (ties count for neither side), and metrics a run lacks left out
    import importlib.util
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    end_to_end = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
                  {"name": "latency_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25}]

    def result(ops, rss, correct=True):
        return {"correct": correct, "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                                "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    parent = [(1000, 30.0), (1100, 31.0), (1200, 30.0), (1300, 29.0)]
    change = [(1100, 31.0), (1100, 30.0), (1320, 30.0), (1500, 30.0)]
    runs = [{"parent": result(*p), "change": result(*c)} for p, c in zip(parent, change)]
    summary = bench.summarize(runs, end_to_end)
    assert summary["pairs"] == 4 and summary["correct"]
    assert set(summary["metrics"]) == {"ops_per_s", "peak_rss_mb"}
    ops, rss = summary["metrics"]["ops_per_s"], summary["metrics"]["peak_rss_mb"]
    assert ops["parent"] == {"median": 1150, "q1": 1075, "q3": 1225}
    assert ops["change"]["median"] == 1210 and ops["change_wins"] == 3 and ops["pairs"] == 4
    assert rss["parent"]["median"] == 30.0 and rss["change_wins"] == 1
    assert bench.table({"torus-walls": summary}).splitlines() == [
        "| workload | metric | parent median (IQR) | change median (change) "
        "| pairs the change wins |",
        "|---|---|---|---|---|",
        "| torus-walls | `ops_per_s` | 1,150.000 (150.000) | 1,210.000 (+5.2%) | 3/4 |",
        "| torus-walls | `peak_rss_mb` | 30.000 (0.500) | 30.000 (+0.0%) | 1/4 |"]
    runs[2]["change"]["correct"] = False
    assert not bench.summarize(runs, end_to_end)["correct"]
    # peak RSS at a fixed pass count: the worker runs exactly 10 passes over
    # the pool with the pinned digests, and its result reads like a run's
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        out = {"passes": 10, "peak_rss_mb": 27.5, "failed": len(calls) - 1}
        return subprocess.CompletedProcess(cmd, 0, f"ready\n{json.dumps(out)}\n", "")
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    tree = pathlib.Path("/tree")
    good, failed = (bench.fixed_pass_run(tree, "torus-walls", "/pool.json", 3) for _ in range(2))
    monkeypatch.undo()
    cmd, kwargs = calls[0]
    assert cmd[1:] == ["perfbench/worker.py", "--workload", "torus-walls", "--pool", "/pool.json",
                       "--seed", "3", "--seconds", "0", "--min-passes", "10",
                       "--digests", "perfbench/digests.json"]
    assert kwargs["cwd"] == tree and kwargs["env"]["PYTHONHASHSEED"] == "0" \
        and kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert good == {"correct": True, "metrics": {"peak_rss_mb": {"value": 27.5, "unit": "MB"}}}
    assert not failed["correct"]
    fixed = [{"parent": good, "change": good}] * 2
    assert bench.table({"torus-walls (10 passes)": bench.summarize(fixed, end_to_end[1:2])}) \
        .splitlines()[2] == "| torus-walls (10 passes) | `peak_rss_mb` | 27.500 (0.000) " \
        "| 27.500 (+0.0%) | 0/2 |"
    # the machine block names the installed numpy and scipy next to Python
    import importlib.metadata
    import platform
    assert bench.machine() == {
        "platform": platform.platform(), "python": platform.python_version(),
        "processor": platform.machine(), "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy")}
