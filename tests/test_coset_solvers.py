"""Differential test of the two residual solvers of ``pose_lattice_coset``.

``measure.group_atom_on_coset`` decides every atom-group wall and subgroup
image by the Hermite normal form solve of the posed system, and runs the
Smith normal form solve only to name the witness the report prints.  Both
must describe one solution coset, so they agree on feasibility and on
whether the coset holds a genuine atom.

The integer layer under both: ``pose_lattice_coset`` builds its rows from the
scalars' numerators and ``CosetLattice`` keys on integer HNF rows.  The
``Fraction`` builds they replaced are kept here as the references
(``reference_pose_rows``, ``reference_solve``, ``reference_coset_lattice`` and
``reference_coset_key``), and the integer rows themselves are compared: a row
scaled by any other positive integer decides every system alike but changes
the SNF witnesses.
"""
import random
from dataclasses import astuple
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest

from dirspec import classify as C
from dirspec import linalg as L
from dirspec import measure as M
from dirspec.linalg import (CosetLattice, CosetSolution, Subspace, flatten, hermite_normal_form,
                            mat_vec, nullspace, pose_lattice_coset, rref_field,
                            smith_normal_form, solve_lattice_coset, unit_vector, vec_is_zero,
                            zero_vector)
from dirspec.measure import EUCLID, TORUS, AtomGroup, SymbolicMeasure
from dirspec.scalar import QQ, FieldSpec, _reduced, decode_scalar
from gen import (FIELDS, benchmark_pool, key_value, rand_fraction, rand_rational_subspace,
                 rand_subspace, rand_vector, ratio_row)

F2 = FieldSpec((2,))
GROUP_ATOM_ON_COSET = M.group_atom_on_coset


def coset_key(sol):
    """A solution family as a lattice: the canonical ``CosetLattice`` of its
    solution module (the rational kernel and the integer lattice, each row
    in (c, n) coordinates) and the key of its particular solution."""
    pad = (0,) * len(sol.shift)
    module = CosetLattice.make([ratio_row(c + pad) for c in sol.coeff_kernel],
                               [ratio_row(c + n)
                                for c, n in zip(sol.coeff_lattice, sol.shift_lattice)])
    return module, module.key(*ratio_row(sol.coeffs + sol.shift))


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


# ---------------------------------------------------------------------------
# the integer layer against the Fraction builds it replaced
# ---------------------------------------------------------------------------


def reference_coset_key(q_basis, q_pivots, z_basis, v) -> tuple:
    """``CosetLattice.key`` as it was, over Fractions: v reduced by the RREF
    q-rows, then floored against each HNF z-row (rational rows) at its
    pivot, found again on every call."""
    w = list(v)
    for row, p in zip(q_basis, q_pivots):
        f = w[p]
        if f:
            w = [x - f * y for x, y in zip(w, row)]
    for row in z_basis:
        p = next(j for j, x in enumerate(row) if x)
        k = w[p] // row[p]
        if k:
            w = [x - k * y for x, y in zip(w, row)]
    return tuple(w)


def reference_coset_lattice(q_rows, z_rows):
    """``CosetLattice.make`` as it was: (q_basis, q_pivots, z_basis), the
    z-rows reduced by the q-part, scaled by the lcm of their reduced
    denominators, put in HNF and turned back into Fractions."""
    rr, pivots = rref_field([[Fraction(x) for x in r] for r in q_rows])
    q_basis = tuple(tuple(r) for r in rr[:len(pivots)])
    reduced = [reference_coset_key(q_basis, pivots, (), r) for r in z_rows]
    den = lcm(*[f.denominator for row in reduced for f in map(Fraction, row)] or [1])
    hnf = hermite_normal_form([[Fraction(f).numerator * (den // Fraction(f).denominator)
                                for f in row] for row in reduced])
    return q_basis, tuple(pivots), tuple(tuple(Fraction(x, den) for x in row) for row in hnf)


def reference_pose_rows(ring, us, ls, t):
    """``pose_lattice_coset``'s row build as it was: each coordinate of the
    vectors, flattened to Fractions, is one equation; ``rref_field``
    eliminates the rational unknowns, and each residual row is scaled to Z by
    the lcm of its reduced denominators.  (aug, pivots, rows, rhs), or None
    when a row reads 0 = r with r nonzero."""
    a = len(us) if ring == "Q" else 0
    b = len(us) + len(ls) - a
    cols = [[c for x in v for c in x.coeffs] for v in (*us, *ls)]
    rhs = [c for x in t for c in x.coeffs]
    aug, pivots = rref_field([[col[i] for col in cols] + [rhs[i]] for i in range(len(rhs))], a)
    int_rows, int_rhs = [], []
    for row in aug[len(pivots):]:
        if not any(row[a:a + b]):
            if row[a + b]:
                return None
            continue
        den = lcm(*[f.denominator for f in row[a:]])
        int_rows.append([f.numerator * (den // f.denominator) for f in row[a:a + b]])
        int_rhs.append(row[a + b].numerator * (den // row[a + b].denominator))
    return aug, pivots, int_rows, int_rhs


def reference_solve(ring, us, ls, t, smith: bool, shifts: bool = True):
    """``pose_lattice_coset(...)(smith, shifts)`` on the reference rows, with
    the back substitution and kernel over Fractions for every ring."""
    posed = reference_pose_rows(ring, us, ls, t)
    if posed is None:
        return None
    aug, pivots, int_rows, int_rhs = posed
    k, mm = len(us), len(int_rows)
    a = k if ring == "Q" else 0
    b = k + len(ls) - a
    smith, shifts = smith and mm > 0, shifts or smith and mm > 0

    def back_substitute(nvec, hom):
        c = [Fraction(0)] * a
        for i, piv in enumerate(pivots):
            val = Fraction(0) if hom else aug[i][a + b]
            c[piv] = val - sum(aug[i][a + j] * nvec[j] for j in range(b))
        return tuple(c)
    if smith:
        uw, dmat, v = smith_normal_form(int_rows, [[x] for x in int_rhs])
        w = [row[0] for row in uw]
        d = [dmat[i][i] if i < b else 0 for i in range(mm)]
        if any(wi % di if di else wi for wi, di in zip(w, d)):
            return None
        y = [wi // di if di else 0 for wi, di in zip(w, d)] + [0] * (b - mm)
        n0 = tuple(sum(v[i][j] * y[j] for j in range(b)) for i in range(b))
        lattice = [tuple(v[i][j] for i in range(b)) for j in range(b)
                   if j >= mm or dmat[j][j] == 0]
    else:
        kept = b if shifts else k - a
        hnf = hermite_normal_form([[r[j] for r in int_rows] + [int(i == j) for i in range(kept)]
                                   for j in range(kept)])
        w = reference_coset_key((), (), hnf, int_rhs + [0] * kept)
        if any(w[:mm]):
            return None
        pad = (0,) * (b - kept)
        n0 = tuple(-x for x in w[mm:]) + pad
        lattice = [row[mm:] + pad for row in hnf if not any(row[:mm])]
    split = k - a
    return CosetSolution(
        back_substitute(n0, False) + n0[:split], n0[split:],
        tuple(back_substitute(lam, True) + lam[:split] for lam in lattice),
        tuple(lam[split:] for lam in lattice),
        tuple(tuple(x) for x in nullspace(aug, pivots, a, Fraction(0), Fraction(1))))


def typed(x):
    """A solution (or None) with each number tagged by its type: an int and
    an equal Fraction differ, as ``scripts/lattice_dump.py`` writes them."""
    if isinstance(x, CosetSolution):
        x = astuple(x)
    if isinstance(x, (list, tuple)):
        return tuple(typed(y) for y in x)
    return type(x).__name__, x


def rand_entry(rng: random.Random, field, den: int):
    """A scalar nums / den in lowest terms whose numerators mostly share
    factors with den, zero a third of the time."""
    if rng.random() < 1 / 3:
        return field.zero()
    return _reduced(field, [rng.choice([0, 0, 1, 2, 3, 6]) * rng.randint(-4, 4)
                            for _ in range(field.dimension)] or [1], den)


def rand_coset_system(rng: random.Random, field, ring: str, with_shifts: bool):
    """(us, ls, t): up to three ring unknowns and shifts in e <= 3
    coordinates, denominators sharing factors (6, 12, 36, ...), some
    coordinates zero in every column with a zero or a nonzero target entry,
    and half the targets an integral (ring Z) or rational (ring Q)
    combination of the columns."""
    e = rng.randint(1, 3)
    dens = [rng.choice([1, 2, 4, 6, 12, 36, 60]) for _ in range(e)]
    zero_rows = {j for j in range(e) if rng.random() < 0.2}

    def column():
        return tuple(field.zero() if j in zero_rows else rand_entry(rng, field, dens[j])
                     for j in range(e))
    us = [column() for _ in range(rng.randint(0, 3))]
    ls = [column() for _ in range(rng.randint(1, 3) if with_shifts else 0)]
    if rng.random() < 0.5:
        t = tuple(field.zero() for _ in range(e))
        for u in us:
            c = rand_fraction(rng, 3, 1 if ring == "Z" else 4)
            t = tuple(x + c * y for x, y in zip(t, u))
        for v in ls:
            t = tuple(x + rng.randint(-2, 2) * y for x, y in zip(t, v))
    else:
        t = tuple(rand_entry(rng, field, rng.choice(dens)) for _ in range(e))
    if zero_rows and rng.random() < 0.5:  # 0 = r with r nonzero in a zero row
        j = min(zero_rows)
        t = t[:j] + (field.one(),) + t[j + 1:]
    return us, ls, t


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"Q{list(f.roots)}")
def test_integer_rows_match_the_fraction_build(monkeypatch, field):
    """The integer rows and rhs that reach SNF and the answers of every
    ``solve(smith, shifts)`` equal the Fraction build's, types included.
    Ring Z flattens the shift columns only for a solve that reads them: the
    shift-free decision comes first and flattens the coefficient and target
    columns alone, unless a row without coefficients has a nonzero target,
    which the pose reads with the shifts (a zero row then makes it None)."""
    rng = random.Random(f"integer rows:{field.roots}")
    recorded, flattened = [], []

    def recording(matrix, rhs):
        recorded.append(([list(row) for row in matrix], rhs))
        return smith_normal_form(matrix, rhs)

    def counting(v):
        flattened.append(v)
        return flatten(v)
    monkeypatch.setattr(L, "smith_normal_form", recording)
    monkeypatch.setattr(L, "flatten", counting)
    seen, lonely_seen = set(), set()
    for _ in range(150):
        ring, with_shifts = rng.choice("ZQ"), rng.random() < 0.7
        us, ls, t = rand_coset_system(rng, field, ring, with_shifts)
        posed = reference_pose_rows(ring, us, ls, t)
        flattened.clear()
        solve = pose_lattice_coset(ring, us, ls, t)
        assert (solve is None) == (posed is None)
        # a coordinate that no coefficient column reaches and the target does
        ucols = [[c for x in u for c in x.coeffs] for u in us]
        lonely = any(x and not any(u[i] for u in ucols)
                     for i, x in enumerate(c for x in t for c in x.coeffs))
        rational = ring == "Q" and bool(us)  # eliminated with every column
        if posed is None:
            assert lonely or rational
            seen.add("zero row")
            continue
        reduced = solve(smith=False, shifts=False)
        assert typed(reduced) == typed(reference_solve(ring, us, ls, t, False, False))
        assert len(flattened) == len(us) + 1 + (len(ls) if rational or lonely else 0)
        if ring == "Z" and ls:
            lonely_seen.add(lonely)
        rows, rhs = posed[2:]
        recorded.clear()
        got = solve(smith=True)
        assert recorded == ([(rows, [[x] for x in rhs])] if rows else [])
        assert typed(got) == typed(reference_solve(ring, us, ls, t, True))
        for shifts in (True, False):
            assert typed(solve(smith=False, shifts=shifts)) \
                == typed(reference_solve(ring, us, ls, t, False, shifts))
        seen.add((ring, with_shifts, got is not None, bool(rows)))
    # every reachable (ring, shifts, feasible, integral equation) and a zero
    # row with a nonzero rhs: with no equation every system is feasible, and
    # ring Q without shifts has no integral unknown, so no equation
    assert "zero row" in seen and len(seen) == 11, seen
    assert lonely_seen == {True, False}


def test_integer_keys_match_the_fraction_keys():
    """``CosetLattice`` on integer rows: its basis over z_den is the
    Fraction basis, and every key read back is the Fraction key (all zero
    exactly for members), on random q/z modules."""
    rng = random.Random(61)
    members = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        q_rows = [[rand_fraction(rng, 4, 6) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        z_rows = [[rand_fraction(rng, 4, 6) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        lat = CosetLattice.make([ratio_row(r) for r in q_rows], [ratio_row(r) for r in z_rows])
        ref = reference_coset_lattice(q_rows, z_rows)
        assert (lat.q_basis, lat.q_pivots,
                tuple(tuple(Fraction(x, lat.z_den) for x in row) for row in lat.z_basis)) == ref
        assert lat.z_pivots == tuple(next(j for j, x in enumerate(r) if x) for r in lat.z_basis)
        for _ in range(4):
            v = [rand_fraction(rng, 6, 12) for _ in range(n)]
            if rng.random() < 0.4:  # a module element
                coeffs = [rand_fraction(rng) for _ in q_rows] + [rng.randint(-3, 3) for _ in z_rows]
                v = [sum(c * r[j] for c, r in zip(coeffs, q_rows + z_rows)) for j in range(n)]
            key = lat.key(*ratio_row(v))
            assert key_value(key) == reference_coset_key(*ref, v)
            assert (not any(key)) == (not any(key_value(key)))
            members += not any(key)
            # lowest terms: numerators coprime to the denominator they share
            assert not any(key) or key[-1] > 0 and gcd(*key) == 1
    assert 100 < members < 500
