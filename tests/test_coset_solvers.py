"""Differential test of the two residual solvers of ``pose_lattice_coset``.

``measure.group_atom_on_coset`` decides every atom-group wall and subgroup
image by the Hermite normal form solve of the posed system, and runs the
Smith normal form solve only to name the witness the report prints.  Both
must describe one solution coset, so they agree on feasibility and on
whether the coset holds a genuine atom.
"""
import random
from fractions import Fraction

import pytest

from dirspec import classify as C
from dirspec import linalg as L
from dirspec import measure as M
from dirspec.linalg import (CosetLattice, Subspace, mat_vec, pose_lattice_coset,
                            solve_lattice_coset, unit_vector, vec_is_zero, zero_vector)
from dirspec.measure import EUCLID, TORUS, AtomGroup, SymbolicMeasure
from dirspec.scalar import QQ, FieldSpec, decode_scalar
from gen import (benchmark_pool, rand_fraction, rand_rational_subspace, rand_subspace,
                 rand_vector)

F2 = FieldSpec((2,))
GROUP_ATOM_ON_COSET = M.group_atom_on_coset


def coset_key(sol):
    """A solution family as a lattice: the canonical ``CosetLattice`` of its
    solution module (the rational kernel and the integer lattice, each row
    in (c, n) coordinates) and the key of its particular solution."""
    pad = (0,) * len(sol.shift)
    module = CosetLattice.make([c + pad for c in sol.coeff_kernel],
                               [c + n for c, n in zip(sol.coeff_lattice, sol.shift_lattice)])
    return module, module.key(sol.coeffs + sol.shift)


def check(monkeypatch, space, group, rows, target, shifts, seen: list,
          shifts_in_module=False):
    """``group_atom_on_coset`` once, with the system it poses solved both
    ways: feasible together, one coset, one genuine-atom decision, and the
    witness the SNF solution names.  With ``shifts_in_module`` the HNF solve
    without the shift unknowns makes the same decision.  Appends (feasible,
    has atom) to seen."""
    posed = []

    def recording(*args):
        posed.append(args)
        return pose_lattice_coset(*args)

    monkeypatch.setattr(M, "pose_lattice_coset", recording)
    witness = GROUP_ATOM_ON_COSET(space, group, rows, target, shifts, shifts_in_module)
    monkeypatch.setattr(M, "pose_lattice_coset", pose_lattice_coset)
    (args,) = posed
    solve = pose_lattice_coset(*args)
    hnf = solve and solve(smith=False)
    snf = solve_lattice_coset(*args)
    assert (hnf is None) == (snf is None)
    if hnf is not None:
        assert coset_key(hnf) == coset_key(snf)
    assert witness == M._coset_atom(space, group, snf)
    assert (M._coset_atom(space, group, hnf) is None) == (witness is None)
    if shifts_in_module and solve:
        reduced = solve(smith=False, shifts=False)
        assert reduced is None or not any(reduced.shift) \
            and not any(map(any, reduced.shift_lattice))
        assert (M._coset_atom(space, group, reduced) is None) == (witness is None)
    seen.append((hnf is not None, witness is not None))
    return witness


def rand_system(rng: random.Random, field, ring: str, with_shifts: bool):
    """A group, rows, a target and shifts as a wall test poses them: rows
    B (e x d), shifts the columns of B.  Half the targets are B times a
    group point (moved by a shift), so that many systems are feasible."""
    d = rng.randint(2, 3)
    e = rng.randint(1, d)
    rows = [rand_vector(rng, field, d, irrational_p=0.3) for _ in range(e)]
    if rng.random() < 0.5:  # integer rows, as in a subgroup image
        rows = [tuple(field.from_rational(Fraction(rng.randint(-3, 3))) for _ in range(d))
                for _ in range(e)]
    gens = tuple(rand_vector(rng, field, d, irrational_p=0.3)
                 for _ in range(rng.randint(1, 3)))
    offset = rand_vector(rng, field, d, irrational_p=0.2) if rng.random() < 0.5 \
        else tuple(field.zero() for _ in range(d))
    group = AtomGroup(gens, ring, offset)
    shifts = [tuple(r[j] for r in rows) for j in range(d)] if with_shifts else []
    if rng.random() < 0.5:
        point = M.group_element_from_coeffs(
            group, [field.from_rational(rand_fraction(rng, 3, 1 if ring == "Z" else 3))
                    for _ in gens], True)
        target = mat_vec(rows, point)
        for s in shifts:
            target = tuple(x + rng.randint(-2, 2) * y for x, y in zip(target, s))
    else:
        target = tuple(field.from_rational(rand_fraction(rng, 3, 4)) for _ in range(e))
    return group, rows, target, shifts


@pytest.mark.parametrize("space", [TORUS, EUCLID])
@pytest.mark.parametrize("with_shifts", [True, False], ids=["shifts", "no-shifts"])
@pytest.mark.parametrize("field", [QQ, F2], ids=["QQ", "Q(sqrt2)"])
@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_random_systems(monkeypatch, ring, field, with_shifts, space):
    rng = random.Random(f"{ring}:{field.roots}:{with_shifts}:{space}")
    seen: list = []
    for _ in range(40):
        check(monkeypatch, space, *rand_system(rng, field, ring, with_shifts), seen)
    # the draws reach both answers of both questions
    assert {f for f, _ in seen} == {True, False}
    assert {a for _, a in seen} == {True, False}


def test_subgroup_images(monkeypatch):
    # pushforward_subgroup poses rows = an HNF basis and shifts = unit vectors
    rng = random.Random(7)
    seen: list = []
    for _ in range(30):
        field = rng.choice([QQ, F2])
        group, rows, _, _ = rand_system(rng, field, rng.choice("ZQ"), False)
        e = len(rows)
        check(monkeypatch, TORUS, group, rows, tuple(field.zero() for _ in range(e)),
              [unit_vector(field, e, j) for j in range(e)], seen)
    assert {a for _, a in seen} == {True, False}


@pytest.mark.parametrize("workload", ["classify-mix", "torus-walls"])
def test_pool_systems(monkeypatch, workload):
    """Every system posed by one benchmark operation per (measure,
    direction) pair of the whole pool."""
    seen: list = []

    def checked(space, group, rows, target, shifts, shifts_in_module):
        return check(monkeypatch, space, group, rows, target, shifts, seen, shifts_in_module)

    monkeypatch.setattr(C, "group_atom_on_coset", checked)
    for case in benchmark_pool(workload):
        m = SymbolicMeasure.decode(case["measure"])
        doc = case["directions"]
        field = FieldSpec(tuple(doc["field_roots"]))
        for d in doc["directions"]:
            sub = Subspace.from_vectors(field, doc["dim"], [
                [decode_scalar(field, x) for x in row] for row in d["basis"]])
            C.classify_direction(m, sub)
            C.directional_eigenvalues(m, sub)
            C.nonergodic_concise(m).contains_direction(sub)
            C.nonwm_concise(m).contains_direction(sub)
    assert len(seen) >= 50 and any(a for _, a in seen)


@pytest.mark.parametrize("field", [QQ, F2], ids=["QQ", "Q(sqrt2)"])
def test_canonical_torus_groups_decide_without_shifts(monkeypatch, field):
    """A canonical torus group of ring Z holds Z^d in its module, so
    ``_group_meets_wall`` lets its HNF decision drop the shift unknowns: the
    reduced and the full decision agree on a genuine atom, and the witness is
    the one the full SNF solution names.  Walls through a group atom, moved
    by an integer vector half the time, make many systems feasible."""
    rng = random.Random(f"canonical:{field.roots}")
    seen: list = []

    def checked(space, group, rows, target, shifts, shifts_in_module):
        assert shifts_in_module
        return check(monkeypatch, space, group, rows, target, shifts, seen, shifts_in_module)

    monkeypatch.setattr(C, "group_atom_on_coset", checked)
    kinds = set()
    while len(seen) < 120:
        d = rng.randint(2, 4)
        gens = [rand_vector(rng, field, d, irrational_p=0.2)
                for _ in range(rng.randint(1, 2 if d < 4 else 1))]
        offset = rand_vector(rng, field, d, irrational_p=0.2) if rng.random() < 0.5 \
            else tuple(field.zero() for _ in range(d))
        m = SymbolicMeasure.make(TORUS, d, field, [AtomGroup(tuple(gens), "Z", offset)])
        if not m.components or not isinstance(m.components[0], AtomGroup):
            continue
        group = m.components[0]
        full = rng.random() < 0.25
        sub = Subspace.full(field, d) if full else rng.choice(
            [rand_subspace, rand_rational_subspace])(rng, field, d, rng.randint(1, d - 1))
        point = M.group_element_from_coeffs(
            group, [field.from_rational(Fraction(rng.randint(-2, 2))) for _ in group.generators],
            True)
        if rng.random() < 0.5:
            point = tuple(x + rng.randint(-2, 2) for x in point)
        ell = sub.project(point) if rng.random() < 0.7 else zero_vector(field, d)
        kinds.add((full, vec_is_zero(ell), vec_is_zero(group.offset)))
        C._group_meets_wall(TORUS, group, Subspace(field, d, sub.basis), ell)
    assert {f for f, _ in seen} == {True, False}
    assert {a for _, a in seen} == {True, False}
    assert len(kinds) == 8


def test_system_without_integral_equation_is_solved_once(monkeypatch):
    # c/3 - n = 0 for the rational coefficient c and the shift n leaves no
    # integral equation once c is eliminated: the witness family is the HNF
    # family itself, so one HNF runs and no SNF
    calls = []

    def counted(name):
        original = getattr(L, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("hermite_normal_form", "smith_normal_form"):
        monkeypatch.setattr(L, name, counted(name))
    q = QQ.from_rational
    group = AtomGroup(((q(Fraction(1, 3)), q(Fraction(1, 5))),), "Q", (q(0), q(0)))
    atom = GROUP_ATOM_ON_COSET(TORUS, group, [[q(1), q(0)]], (q(0),), [(q(1),)])
    assert atom == (q(1), q(Fraction(3, 5)))
    assert calls == ["hermite_normal_form"]
