"""Seeded input documents for the dirspec benchmark.

Every document is plain JSON in the formats the dirspec CLI reads (measure
documents and direction documents).  This module never imports dirspec, so
the inputs do not depend on the code under measurement.

Run it on its own to look at what a workload consumes:

    python3 perfbench/gen.py --workload torus-walls --seed 7
"""
from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

# The generator's parameters, one entry per seeded workload.  `run.py`
# generates each workload's pool from `POOL_SEED` with these parameters.
PARAMS = {
    "classify-mix": {
        "spaces": ["euclidean", "torus"],
        "dims": [2, 3],
        "dim_weights": [1, 1],
        "field_roots": [[], [2]],
        "components": [1, 3],
        "kinds": {"atom": 0.35, "box": 0.45, "atom_group": 0.2},
        "group_generators": {"2": [1, 2], "3": [1, 2]},
        "group_rings": {"2": ["Z", "Q"], "3": ["Z", "Q"]},
        "irrational_p": 0.3,
        "box_basis_irrational_p": 0.3,
        "box_offset_irrational_p": 0.3,
        "size": {"2": 1, "3": 1},
        "pool": 300,
    },
    "torus-walls": {
        "spaces": ["torus"],
        "dims": [3, 4],
        "dim_weights": [2, 1],
        "field_roots": [[2, 3]],
        "components": [1, 2],
        "kinds": {"atom": 0.25, "box": 0.15, "atom_group": 0.6},
        # One generator everywhere: a Z-ring atom group with two or more
        # generators in T^4 gives 12x10 wall systems whose SNF takes
        # 30-190 s per call, so those are left out.  One generator still
        # gives 12x9 systems in T^4 (the module is augmented by Z^4).
        "group_generators": {"3": [1, 1], "4": [1, 1]},
        "group_rings": {"3": ["Z", "Q"], "4": ["Z"]},
        "irrational_p": 0.7,
        # irrational box carriers make the offset canonicalization at decode
        # time run SNF for up to 20 s in T^4, which would be set-up work
        "box_basis_irrational_p": 0.0,
        "box_offset_irrational_p": 0.7,
        # SNF time grows steeply and erratically with entry size and pool
        # length.  This pool (60 measures, 199 operations) takes 8-12 s with
        # SNF at about two thirds of it and one 5 s operation; at T^3 size
        # 20, or T^4 size 3.25, single operations take over 40 s.
        "size": {"3": 24, "4": 3.0},
        "pool": 60,
    },
}


def _frac(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _labels(roots: list[int]) -> list[str]:
    """Radical basis labels of Q(sqrt m_1, ..., sqrt m_k), in bitmask order."""
    out = []
    for mask in range(1 << len(roots)):
        rad = 1
        for i, m in enumerate(roots):
            if mask >> i & 1:
                rad *= m
        out.append("1" if rad == 1 else f"sqrt{rad}")
    return out


def _encode(x: dict):
    """The CLI's scalar encoding: a fraction string when rational."""
    if set(x) <= {"1"}:
        return str(x.get("1", Fraction(0)))
    return {k: str(v) for k, v in sorted(x.items())}


def _matrix(rows: list[list[dict]]) -> list[list]:
    return [[_encode(x) for x in row] for row in rows]


def _is_integer(x: dict) -> bool:
    return set(x) <= {"1"} and x.get("1", Fraction(0)).denominator == 1


def _combine(coeffs: list[Fraction], rows: list[list[dict]]) -> list[dict]:
    """sum_i coeffs[i] * rows[i], for rational coefficients."""
    out = [{} for _ in rows[0]]
    for c, row in zip(coeffs, rows):
        for acc, x in zip(out, row):
            for label, v in x.items():
                acc[label] = acc.get(label, Fraction(0)) + c * v
    return [{k: v for k, v in acc.items() if v} for acc in out]


class _Draw:
    """Random scalars, vectors and components over one field and space.

    Scalars are label -> Fraction maps.  The rational part has numerators
    up to 3*size and denominators up to 3*size; each irrational basis label
    is present with probability ``irrational_p``, with numerators and
    denominators up to 2*size.
    """

    def __init__(self, rng: random.Random, p: dict, space: str,
                 roots: list[int], dim: int):
        self.rng, self.p, self.space, self.dim = rng, p, space, dim
        self.labels = _labels(roots)

    def scalar(self, irrational_p: float | None = None) -> dict:
        rng, size = self.rng, self.p["size"][str(self.dim)]
        if irrational_p is None:
            irrational_p = self.p["irrational_p"]
        coeffs = {"1": _frac(rng, round(3 * size), round(3 * size))}
        for label in self.labels[1:]:
            if rng.random() < irrational_p:
                coeffs[label] = _frac(rng, round(2 * size), round(2 * size))
        return {k: v for k, v in coeffs.items() if v}

    def vector(self, irrational_p: float | None = None) -> list[dict]:
        return [self.scalar(irrational_p) for _ in range(self.dim)]

    def nontrivial_vector(self) -> list[dict]:
        """A vector off the lattice Z^d (off 0 in euclidean space)."""
        while True:
            v = self.vector()
            if self.space == "torus" and all(_is_integer(x) for x in v):
                continue
            if any(v):
                return v

    def independent_rows(self, k: int, irrational_p: float | None = None
                         ) -> list[list[dict]]:
        """k dense rows of rank k: a random echelon form with unit pivots,
        mixed by random rational unit lower- and upper-triangular matrices,
        which keep the rank."""
        rng, dim = self.rng, self.dim
        pivots = sorted(rng.sample(range(dim), k))
        rows = []
        for p in pivots:
            row = [{} for _ in range(dim)]
            row[p] = {"1": Fraction(1)}
            for j in range(p + 1, dim):
                if j not in pivots:
                    row[j] = self.scalar(irrational_p)
            rows.append(row)
        upper = [_combine([Fraction(int(i == j)) if j <= i else _frac(rng, 2, 2)
                           for j in range(k)], rows) for i in range(k)]
        return [_combine([Fraction(int(i == j)) if j >= i else _frac(rng, 2, 2)
                          for j in range(k)], upper) for i in range(k)]

    def atom(self) -> dict:
        # reduced measures: no atom at the group identity
        return {"kind": "atom",
                "point": [_encode(x) for x in self.nontrivial_vector()],
                "weight": str(self.rng.randint(1, 3))}

    def box(self) -> dict:
        doc = {"kind": "box",
               "basis": _matrix(self.independent_rows(
                   self.rng.randint(1, self.dim - 1),
                   self.p["box_basis_irrational_p"])),
               "weight": str(self.rng.randint(1, 3))}
        if self.rng.random() < 0.6:
            doc["offset"] = [_encode(x) for x in
                             self.vector(self.p["box_offset_irrational_p"])]
        return doc

    def atom_group(self) -> dict:
        # a Z-module inside Z^d collapses on the torus, so every generator
        # keeps a non-integral coordinate
        n_gens = self.rng.randint(*self.p["group_generators"][str(self.dim)])
        gens = [self.nontrivial_vector() for _ in range(n_gens)]
        return {"kind": "atom_group", "generators": _matrix(gens),
                "ring": self.rng.choice(self.p["group_rings"][str(self.dim)]),
                "weight": "1"}


def measure_case(rng: random.Random, p: dict) -> dict:
    """One measure and one random direction of every dimension 1..d."""
    space = rng.choice(p["spaces"])
    dim = rng.choices(p["dims"], weights=p["dim_weights"])[0]
    roots = list(rng.choice(p["field_roots"]))
    draw = _Draw(rng, p, space, roots, dim)
    kinds, weights = zip(*p["kinds"].items())
    comps = [getattr(draw, rng.choices(kinds, weights=weights)[0])()
             for _ in range(rng.randint(*p["components"]))]
    directions = [{"basis": _matrix(draw.independent_rows(k))}
                  for k in range(1, dim + 1)]
    return {"measure": {"space": space, "dim": dim, "field_roots": roots,
                        "components": comps},
            "directions": {"dim": dim, "field_roots": roots,
                           "directions": directions}}


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded pool of a workload; the same arguments give the same
    documents."""
    rng = random.Random(f"{workload}:{seed}")
    p = PARAMS[workload]
    return [measure_case(rng, p) for _ in range(p["pool"])]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PARAMS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed), indent=1))


if __name__ == "__main__":
    main()
