#!/usr/bin/env python3
"""Fingerprint every lattice answer that the benchmark's direction workloads
compute, so that two versions of the lattice layer can be compared.

    python3 scripts/lattice_dump.py

It builds the `classify-mix` and `torus-walls` pools with `perfbench/gen.py`
(imported, never changed), decodes them and runs each benchmark operation
once: both concise sets, `classify_direction`, `directional_eigenvalues` and
`contains_direction`.  Meanwhile it records every distinct coset system that
`measure.group_atom_on_coset` poses (through `pose_lattice_coset`) with its
`linalg.solve_lattice_coset` answer, which the script computes itself, and
every distinct `smith_normal_form` matrix with its D and V (not U, whose use
is up to the caller).  It prints the number of distinct systems and SNF
matrices per workload and one sha256 over the systems and answers (that the
HNF solve and the SNF answer describe one solution coset on every system is
asserted by `tests/test_coset_solvers.py`).  The hash does not depend on how
often or in which order a system is solved, so a change that solves each
system fewer times, or in another order, prints the same line exactly when
every answer is the same.  Integers are written with `hex()`: `str()` of an
SNF entry can pass Python's 4,300-digit limit.

A change that decides some case without a system (as full directions are
decided by `is_identity`) drops that case's systems and so re-pins the hash.
Check such a re-pin on the version before the change: make `run_pool` skip
the cases it decides (for full directions, `if sub.is_full(): continue`) and
run this script there; it must print the new line exactly.
"""
import hashlib
import pathlib
import sys
from dataclasses import astuple
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from dirspec import classify, linalg, measure, scalar  # noqa: E402

WORKLOADS = ("classify-mix", "torus-walls")
POOL_SEED = 0  # the pool seed of perfbench/run.py


def ser(x) -> str:
    """An exact, type-tagged text form of solver inputs and answers."""
    if x is None:
        return "None"
    if isinstance(x, bool):
        return repr(x)
    if isinstance(x, int):
        return "i" + hex(x)
    if isinstance(x, Fraction):
        return f"q{hex(x.numerator)}/{hex(x.denominator)}"
    if isinstance(x, str):
        return repr(x)
    if isinstance(x, scalar.FieldScalar):
        return f"F{list(x.field.roots)}" + ser(x.coeffs)
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(ser(y) for y in x) + "]"
    if isinstance(x, linalg.CosetSolution):
        return "S" + ser(astuple(x))
    raise TypeError(f"cannot serialize {type(x).__name__}")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Recorder:
    """Wraps the system poser and SNF; maps each input digest to its answer
    digest."""

    def __init__(self):
        self.answers: dict[tuple[str, str], str] = {}

    def record(self, kind: str, question: str, answer: str) -> None:
        key = (kind, sha(question))
        digest = sha(answer)
        if self.answers.setdefault(key, digest) != digest:
            raise AssertionError(f"{kind}: one input gave two answers")

    def install(self) -> None:
        snf = linalg.smith_normal_form
        pose = linalg.pose_lattice_coset

        def smith_normal_form(matrix, *args, **kwargs):
            question = ser(matrix)
            out = snf(matrix, *args, **kwargs)
            self.record("snf", question, ser(out[1:]))
            return out

        def pose_lattice_coset(ring, us, ls, t):
            question = ser((ring, us, ls, t))
            self.record("coset", question, ser(linalg.solve_lattice_coset(ring, us, ls, t)))
            return pose(ring, us, ls, t)

        linalg.smith_normal_form = smith_normal_form
        measure.pose_lattice_coset = pose_lattice_coset


def decode_case(case: dict):
    measure_doc, directions_doc = case["measure"], case["directions"]
    m = measure.SymbolicMeasure.decode(measure_doc)
    field = scalar.FieldSpec(tuple(directions_doc["field_roots"]))
    subs = [linalg.Subspace.from_vectors(
                field, directions_doc["dim"],
                [[scalar.decode_scalar(field, x) for x in row] for row in d["basis"]])
            for d in directions_doc["directions"]]
    return m, subs


def run_pool(workload: str) -> None:
    """One benchmark operation per (measure, direction) pair of the pool."""
    for case in gen.generate(workload, POOL_SEED):
        m, subs = decode_case(case)
        for sub in subs:
            ne = classify.nonergodic_concise(m)
            nw = classify.nonwm_concise(m)
            classify.classify_direction(m, sub)
            classify.directional_eigenvalues(m, sub)
            ne.contains_direction(sub)
            nw.contains_direction(sub)


def main() -> None:
    rec = Recorder()
    rec.install()
    total = hashlib.sha256()
    for workload in WORKLOADS:
        rec.answers.clear()
        run_pool(workload)
        lines = sorted(f"{kind} {q} {a}" for (kind, q), a in rec.answers.items())
        counts = {kind: sum(1 for k, _ in rec.answers if k == kind)
                  for kind in ("coset", "snf")}
        print(f"{workload}: {counts['coset']} coset systems, "
              f"{counts['snf']} SNF matrices")
        total.update(f"{workload}\n".encode())
        total.update("\n".join(lines).encode())
    print(f"sha256 {total.hexdigest()}")


if __name__ == "__main__":
    main()
