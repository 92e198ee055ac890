"""Seeded random generators shared by the property-test suites."""
from __future__ import annotations

import importlib.util
import pathlib
import random
from fractions import Fraction
from functools import cache
from math import lcm

from dirspec.linalg import AffineCarrier, Subspace, rref_field, zero_vector
from dirspec.measure import Atom, AtomGroup, BoxLebesgue, SymbolicMeasure
from dirspec.scalar import FieldScalar, FieldSpec, QQ

FIELDS = [QQ, FieldSpec((2,)), FieldSpec((2, 3)), FieldSpec((5,))]


def gram_coordinates(basis, vectors):
    """For each v in ``vectors``, the coefficients x of the orthogonal
    projection of v onto span(basis), sum_i x_i basis[i]: one elimination of
    the Gram system [G | B v_1 ... B v_m] (G = B B^T, basis independent)."""
    if not basis:
        return [[] for _ in vectors]
    n, zero = len(basis), basis[0][0].field.zero()
    dot = lambda a, b: sum((x * y for x, y in zip(a, b)), zero)  # noqa: E731
    rr, pivots = rref_field([[dot(bi, bj) for bj in basis] + [dot(bi, v) for v in vectors]
                             for bi in basis], n)
    assert len(pivots) == n
    return [[row[n + k] for row in rr] for k in range(len(vectors))]


def gram_projection(sub, v):
    """P v = B^T G^-1 B v, from the Gram coordinates of v: the orthogonal
    projection written out from its definition."""
    coords = gram_coordinates(sub.basis, [v])[0]
    return tuple(sum((c * b[j] for c, b in zip(coords, sub.basis)), sub.field.zero())
                 for j in range(sub.ambient))


def ratio_row(entries) -> tuple[list[int], int]:
    """Rationals as ``CosetLattice`` takes a row: integer numerators over the
    lcm of their denominators."""
    fracs = [Fraction(x) for x in entries]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def key_value(key) -> tuple[Fraction, ...]:
    """A ``CosetLattice`` key, numerators then their denominator (0 for the
    zero key), read back as the rational vector it stands for."""
    *nums, den = key
    return tuple(Fraction(n, den or 1) for n in nums)


@cache
def benchmark_pool(workload: str) -> list[dict]:
    """A benchmark pool of ``perfbench/gen.py`` at seed 0, generated once:
    tests only read it.  That module is loaded by path, as this one holds
    the name gen."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(workload, 0)


def rand_fraction(rng: random.Random, max_num: int = 5, max_den: int = 4,
                  nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_scalar(rng: random.Random, field: FieldSpec, irrational_p: float = 0.3,
                nonzero: bool = False) -> FieldScalar:
    while True:
        coeffs = [rand_fraction(rng, 3, 3)]
        for _ in range(field.dimension - 1):
            coeffs.append(rand_fraction(rng, 2, 2)
                          if rng.random() < irrational_p else Fraction(0))
        s = field.from_coeffs(coeffs)
        if not (nonzero and s.is_zero()):
            return s


def rand_vector(rng: random.Random, field: FieldSpec, dim: int,
                irrational_p: float = 0.3):
    return tuple(rand_scalar(rng, field, irrational_p) for _ in range(dim))


def rand_subspace(rng: random.Random, field: FieldSpec, dim: int,
                  target_dim: int | None = None,
                  irrational_p: float = 0.3) -> Subspace:
    """Random nonzero proper-or-full subspace (canonical form)."""
    while True:
        k = target_dim or rng.randint(1, dim)
        vectors = [rand_vector(rng, field, dim, irrational_p) for _ in range(k)]
        sub = Subspace.from_vectors(field, dim, vectors)
        if sub.dim >= 1 and (target_dim is None or sub.dim == target_dim):
            return sub


def rand_rational_subspace(rng: random.Random, field: FieldSpec, dim: int,
                           target_dim: int) -> Subspace:
    while True:
        vectors = [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
                   for _ in range(target_dim)]
        sub = Subspace.from_vectors(field, dim, vectors)
        if sub.dim == target_dim:
            return sub


def rand_atom(rng: random.Random, field: FieldSpec, dim: int,
              avoid_delta_zero: bool = True) -> Atom:
    while True:
        point = rand_vector(rng, field, dim, irrational_p=0.2)
        if not avoid_delta_zero or not all(x.is_rational()
                                           and x.as_rational().denominator == 1
                                           for x in point):
            return Atom(point, Fraction(rng.randint(1, 3)))


def rand_box(rng: random.Random, field: FieldSpec, dim: int,
             irrational_p: float = 0.2) -> BoxLebesgue:
    sub = rand_subspace(rng, field, dim, irrational_p=irrational_p)
    offset = rand_vector(rng, field, dim, irrational_p=irrational_p) \
        if rng.random() < 0.5 else zero_vector(field, dim)
    return BoxLebesgue(AffineCarrier.make(sub, offset), sub.basis,
                       weight=Fraction(rng.randint(1, 3)))


def rand_atom_group(rng: random.Random, field: FieldSpec, dim: int) -> AtomGroup:
    ring = rng.choice(["Z", "Q"])
    n = rng.randint(1, 2)
    gens = []
    for _ in range(n):
        gens.append(rand_vector(rng, field, dim, irrational_p=0.4))
    return AtomGroup(tuple(gens), ring, zero_vector(field, dim))


def rand_measure(rng: random.Random, field: FieldSpec, dim: int, space: str,
                 max_components: int = 3, with_groups: bool = False,
                 reduced: bool = True) -> SymbolicMeasure:
    while True:
        comps = []
        for _ in range(rng.randint(1, max_components)):
            roll = rng.random()
            if with_groups and roll < 0.2:
                comps.append(rand_atom_group(rng, field, dim))
            elif roll < 0.5:
                comps.append(rand_atom(rng, field, dim,
                                       avoid_delta_zero=reduced))
            else:
                comps.append(rand_box(rng, field, dim))
        try:
            m = SymbolicMeasure.make(space, dim, field, comps)
        except Exception:
            continue
        if m.is_zero():
            continue
        if reduced and m.has_delta_zero():
            continue
        return m


def rand_concise_family(rng: random.Random, dim: int,
                        count: int) -> list[Subspace] | None:
    """Random concise family of proper nonzero rational subspaces, or None
    if the draw was not concise as-is."""
    subs = []
    for _ in range(count):
        k = rng.randint(1, dim - 1)
        subs.append(rand_rational_subspace(rng, QQ, dim, k))
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            if i != j and a.leq(b):
                return None
    return subs
