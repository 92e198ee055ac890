"""The fingerprint scripts under ``scripts/`` print the same bytes as the
versions their hashes were pinned from.

Each script runs in a fresh interpreter: ``lattice_dump.py`` wraps functions
of ``linalg`` while it records, which must not leak into other tests.
"""
import hashlib
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
