import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import gen
from gen import gram_projection
from dirspec import classify as C
from dirspec import measure as M
from dirspec.errors import (ClosureBoundError, DimensionMismatchError,
                            InvalidDirectionSetError, NotReducedError, ValidationError)
from dirspec.linalg import (AffineCarrier, CosetLattice, LatticeSubgroup, Subspace,
                            as_vector, mat_vec, pose_lattice_coset,
                            promote_subspace, rationality, solve_lattice_coset, vec_add,
                            vec_dot, vec_is_zero, vec_scale, vec_sub, zero_vector)
from dirspec.measure import (EUCLID, TORUS, Atom, AtomGroup, BoxLebesgue,
                             SymbolicMeasure)
from dirspec.scalar import QQ, FieldScalar, FieldSpec, decode_scalar

F2 = FieldSpec((2,))
F5 = FieldSpec((5,))
F23 = FieldSpec((2, 3))
F25 = FieldSpec((2, 5))
E1 = Subspace.from_vectors(QQ, 2, [[1, 0]])
E2 = Subspace.from_vectors(QQ, 2, [[0, 1]])
DIAG = Subspace.from_vectors(QQ, 2, [[1, 1]])
FULL = Subspace.full(QQ, 2)


def box(sub, off=None, w=1):
    return BoxLebesgue(AffineCarrier.make(sub, off), sub.basis, weight=Fraction(w))


def atom(pt, w=1, field=QQ):
    return Atom(as_vector(field, pt), Fraction(w))


def torus(*comps, dim=2, field=QQ):
    return SymbolicMeasure.make(TORUS, dim, field, comps)


def product_bernoulli():
    return torus(box(E1), box(E2), box(FULL))


class TestWallTest:
    def test_box_not_on_wall(self):
        assert not C.wall_test(torus(box(E1)), E1, None).positive

    def test_box_on_wall(self):
        res = C.wall_test(torus(box(E2)), E1, None)
        assert res.positive and res.witnesses[0].component_index == 0

    def test_atom_affine_wall(self):
        m = torus(atom([Fraction(1, 3), Fraction(1, 4)]))
        assert C.wall_test(m, E1, [Fraction(1, 3), 0]).positive
        assert not C.wall_test(m, E1, None).positive

    def test_eigenvalue_must_lie_in_direction(self):
        with pytest.raises(ValidationError):
            C.wall_test(torus(box(E2)), E1, [0, Fraction(1, 2)])

    def test_lattice_shift_wall(self):
        # atom at (2/3, 0): on pi(L^perp + ell) for ell = -1/3 along e1
        m = torus(atom([Fraction(2, 3), 0]))
        assert C.wall_test(m, E1, [Fraction(-1, 3), 0]).positive

    def test_zero_direction_wall_carries_group_atoms(self):
        # L = 0: the wall L^perp is the whole torus, so every genuine atom
        # of the group lies on it, also when the group's offset is trivial
        group = AtomGroup((as_vector(QQ, [Fraction(1, 2), 0]),), "Z", zero_vector(QQ, 2))
        res = C.wall_test(torus(group), Subspace.zero(QQ, 2), None)
        assert res.positive
        assert not all(x.is_integer() for x in res.witnesses[0].atom)

    @pytest.mark.parametrize("ell", [["0"], ["0", "0", "7"]])
    def test_eigenvalue_of_wrong_length(self, fixtures_dir, ell):
        m = SymbolicMeasure.decode(json.loads((fixtures_dir / "lonely_atom.json").read_text()))
        with pytest.raises(DimensionMismatchError):
            C.wall_test(m, Subspace.from_vectors(QQ, 2, [[1, 0]]), ell)


class TestDirectionMemo:
    """The wall lattice, the dual basis and the atom-group wall answers are
    kept in the direction's memo: the memo must give the answers a fresh
    subspace gives, and one classification plus subordination must solve
    each group once."""

    def test_memo_answers_match_a_fresh_subspace(self):
        rng = random.Random(41)
        groups_seen = duals_seen = affine_seen = 0
        for _ in range(40):
            field = rng.choice([QQ, F2])
            space = rng.choice([TORUS, EUCLID])
            m = gen.rand_measure(rng, field, 2, space, with_groups=True)
            if m.has_delta_zero():
                continue
            sub = gen.rand_subspace(rng, field, 2, target_dim=rng.randint(1, 2))
            verdict = C.classify_direction(m, sub)
            in_ne = C.nonergodic_concise(m).contains_direction(sub)
            for comp in m.components:
                if isinstance(comp, AtomGroup):
                    ell = sub.project(vec_add(comp.offset, comp.generators[0]))
                    C.wall_test(m, sub, ell)
            fresh = Subspace(sub.field, sub.ambient, sub.basis)
            for key, answer in sub.memo.items():
                if key == "wall_lattice":
                    for v in (as_vector(field, [Fraction(1, 3), Fraction(5, 7)]),
                              *sub.basis):
                        assert fresh.wall_key(v) == sub.wall_key(v)
                    assert fresh.memo["wall_lattice"] == answer
                    continue
                if key == "dual_basis":
                    duals_seen += 1
                    fresh.project_all([])  # builds the fresh subspace's entry
                    assert answer == fresh.memo["dual_basis"]
                    continue
                if len(key) == 3:
                    space, point, ell = key
                    affine_seen += 1
                    assert C._on_affine_wall(space, fresh, point, ell) == answer
                    continue
                space, ring, gens, offset, ell = key
                groups_seen += 1
                assert C._group_meets_wall(space, AtomGroup(gens, ring, offset),
                                           fresh, ell) == answer
            # and the verdicts read from the memo are those of a fresh subspace
            assert C.classify_direction(m, fresh).encode() == verdict.encode()
            assert C.nonergodic_concise(m).contains_direction(
                Subspace(sub.field, sub.ambient, sub.basis)) == in_ne
        assert groups_seen > 10 and duals_seen > 10 and affine_seen > 10

    def test_a_none_group_answer_is_asked_once(self, monkeypatch):
        # None is a kept answer (no atom of the group on the wall): the second
        # call reads it from the memo and poses no system
        m = torus(AtomGroup((as_vector(QQ, [Fraction(1, 3), 0]),), "Z", zero_vector(QQ, 2)))
        group, calls, original = m.components[0], [], C.group_atom_on_coset
        monkeypatch.setattr(C, "group_atom_on_coset",
                            lambda *args: calls.append(args) or original(*args))
        sub, third = Subspace(E1.field, E1.ambient, E1.basis), as_vector(QQ, [Fraction(1, 3), 0])
        for ell, answer in [(as_vector(QQ, [Fraction(1, 2), 0]), None), (third, third)]:
            calls.clear()
            assert C._group_meets_wall(TORUS, group, sub, ell) == answer
            assert C._group_meets_wall(TORUS, group, sub, ell) == answer
            assert len(calls) == 1

    def test_concise_sets_are_kept_on_the_measure(self):
        rng = random.Random(43)
        kept = 0
        for _ in range(30):
            field = rng.choice([QQ, F2])
            space = rng.choice([TORUS, EUCLID])
            m = gen.rand_measure(rng, field, 2, space, with_groups=True)
            if m.has_delta_zero():
                with pytest.raises(NotReducedError):
                    C.nonergodic_concise(m)
                assert m.memo == {}
                continue
            kept += 1
            fresh = SymbolicMeasure.decode(json.loads(json.dumps(m.encode())))
            for concise in (C.nonergodic_concise, C.nonwm_concise):
                first = concise(m)
                assert concise(m) is first
                assert concise(fresh) == first
            assert set(m.memo) == {"nonergodic_concise", "nonwm_concise"}
        assert kept > 10

    def test_eigenvalue_families_are_kept_on_the_measure(self):
        """``directional_eigenvalues`` keeps its families in the measure's
        memo under L, and ``classify_direction`` reads its weak-mixing
        witnesses off them: both encodings must not depend on the call order
        or on the memo, and each witness is P_L(point + g_0)."""
        rng = random.Random(47)
        seen = Counter()
        for _ in range(80):
            field = rng.choice([QQ, F2])
            space = rng.choice([TORUS, EUCLID])
            d = rng.randint(2, 3)
            m = gen.rand_measure(rng, field, d, space, with_groups=True)
            if m.has_delta_zero():
                continue
            doc = json.dumps(m.encode())

            def encodings(m, sub, verdict_first):
                steps = [lambda: C.classify_direction(m, sub).encode(),
                         lambda: [f.encode() for f in C.directional_eigenvalues(m, sub)]]
                out = [step() for step in (steps if verdict_first else steps[::-1])]
                return out if verdict_first else out[::-1]

            # two directions share the measure's memo; each is checked against
            # a fresh decode with a fresh direction, in both call orders
            subs = [gen.rand_subspace(rng, field, d) for _ in range(2)]
            for k, sub in enumerate(subs):
                want = encodings(SymbolicMeasure.decode(json.loads(doc)),
                                 Subspace(sub.field, sub.ambient, sub.basis), k == 1)
                assert encodings(m, sub, k == 0) == want == encodings(m, sub, k == 1)
                assert m.memo["eigenvalues"][0] == sub
                assert C.directional_eigenvalues(m, sub) is m.memo["eigenvalues"][1]
            # the measure keeps one slot: another direction replaces it, and
            # the first direction asked again gets equal families, recomputed
            first = C.directional_eigenvalues(m, subs[0])
            kept = len(m.memo)
            other = C.directional_eigenvalues(m, subs[1])
            assert m.memo["eigenvalues"] == (subs[1], other) and len(m.memo) == kept
            assert C.directional_eigenvalues(m, subs[0]) == first
            assert m.memo["eigenvalues"][0] == subs[0] and len(m.memo) == kept
            if first and subs[0] != subs[1]:
                assert m.memo["eigenvalues"][1] is not first
                seen["replaced"] += 1
            sub = subs[0]
            for prop, w in C.classify_direction(m, sub).witnesses:
                if prop != "weak_mixing":
                    continue
                comp = m.components[w.component_index]
                group = isinstance(comp, AtomGroup)
                point = comp.offset if group else comp.carrier.offset
                if group:
                    point = vec_add(point, comp.generators[0])
                assert w.eigenvalue == gen.gram_projection(sub, point)
                seen[(space, group)] += 1
            # a memo filled for the reduced class must not answer for an
            # unreduced one: the delta_0 check runs before the memo is read
            with_zero = SymbolicMeasure(m.space, m.dim, m.field,
                                        m.components + (Atom(zero_vector(field, d)),),
                                        m.periodized)
            with_zero.memo.update(m.memo)
            with pytest.raises(NotReducedError):
                C.classify_direction(with_zero, sub)
        assert min(seen[(space, group)] for space in (TORUS, EUCLID)
                   for group in (True, False)) > 3, seen
        assert seen["replaced"] > 10, seen

    def test_concise_memo_keeps_the_delta_zero_check(self):
        m = torus(atom([Fraction(1, 3), 0]))
        C.nonergodic_concise(m)
        C.nonwm_concise(m)
        # a measure is frozen, but a memo filled for a reduced class must not
        # answer for an unreduced one: the check runs before the memo is read
        with_zero = SymbolicMeasure(m.space, m.dim, m.field,
                                    m.components + (atom([0, 0]),), m.periodized)
        with_zero.memo.update(m.memo)
        for concise in (C.nonergodic_concise, C.nonwm_concise):
            with pytest.raises(NotReducedError):
                concise(with_zero)

    def test_each_group_system_is_solved_once(self, monkeypatch):
        # pose_lattice_coset is the one elimination behind both solves of a
        # group wall system: counting it counts the systems
        calls = []

        def counting(*args):
            calls.append(args)
            return pose_lattice_coset(*args)

        monkeypatch.setattr(M, "pose_lattice_coset", counting)
        half = Fraction(1, 2)
        groups = [AtomGroup((as_vector(QQ, [half, Fraction(1, 3)]),), "Z",
                            zero_vector(QQ, 2)),
                  AtomGroup((as_vector(QQ, [Fraction(1, 5), half]),), "Q",
                            zero_vector(QQ, 2)),
                  AtomGroup((as_vector(F2, [F2.sqrt_root(2), half]),), "Z",
                            zero_vector(F2, 2))]
        for direction in ([1, 0], [0, 1], [1, 1]):
            for group in groups:
                field = group.generators[0][0].field
                m = torus(group, box(Subspace.from_vectors(field, 2, [[1, 1]])),
                          field=field)
                sub = Subspace.from_vectors(field, 2, [direction])
                calls.clear()
                C.classify_direction(m, sub)
                C.nonergodic_concise(m).contains_direction(sub)
                assert len(calls) == 1
            # two groups in one measure: one solve each
            m = torus(groups[0], groups[1])
            sub = Subspace.from_vectors(QQ, 2, [direction])
            calls.clear()
            C.classify_direction(m, sub)
            C.nonergodic_concise(m).contains_direction(sub)
            assert len(calls) == 2

    def test_each_affine_wall_is_decided_once(self, monkeypatch):
        # the central wall test and subordination to the nonergodic concise
        # set ask the same torus walls of atoms and affine boxes: the second
        # reads the direction's memo, so ``wall_key`` runs once per
        # (direction, point - ell)
        rng = random.Random(53)
        counts = Counter()
        original = Subspace.wall_key

        def counting(self, v):
            counts[v] += 1
            return original(self, v)

        monkeypatch.setattr(Subspace, "wall_key", counting)
        keyed = 0
        for _ in range(60):
            field = rng.choice([QQ, F2])
            d = rng.randint(2, 3)
            m = gen.rand_measure(rng, field, d, TORUS, with_groups=rng.random() < 0.3)
            if m.has_delta_zero():
                continue
            ne = C.nonergodic_concise(m)
            sub = rng.choice([gen.rand_subspace, gen.rand_rational_subspace])(
                rng, field, d, rng.randint(1, d - 1))
            counts.clear()
            C.classify_direction(m, sub)
            ne.contains_direction(sub)
            assert max(counts.values(), default=0) <= 1, counts
            keyed += sum(counts.values())
        assert keyed > 20


class TestClassifyDirection:
    def test_product_fixture(self):
        m = product_bernoulli()
        for bad in (E1, E2):
            v = C.classify_direction(m, bad)
            assert not (v.ergodic or v.weak_mixing or v.strong_mixing)
            assert v.witnesses
        v = C.classify_direction(m, DIAG)
        assert v.ergodic and v.weak_mixing and v.strong_mixing

    def test_atom_blocks_weak_mixing_everywhere(self):
        m = torus(atom([Fraction(1, 3), Fraction(1, 4)]), box(FULL))
        for sub in (E1, E2, DIAG, FULL):
            v = C.classify_direction(m, sub)
            assert not v.weak_mixing and not v.strong_mixing

    def test_full_box_strong_mixing_everywhere(self):
        m = torus(box(FULL))
        for sub in (E1, DIAG, FULL):
            v = C.classify_direction(m, sub)
            assert v.ergodic and v.weak_mixing and v.strong_mixing

    def test_delta_zero_rejected(self):
        with pytest.raises(NotReducedError):
            C.classify_direction(torus(atom([0, 0], w=1),
                                       box(FULL)), E1)

    def test_verdict_implications_random(self):
        rng = random.Random(3)
        for _ in range(150):
            field = rng.choice([QQ, F2])
            d = rng.randint(2, 3)
            space = rng.choice([EUCLID, TORUS])
            m = gen.rand_measure(rng, field, d, space, with_groups=True)
            sub = gen.rand_subspace(rng, field, d)
            v = C.classify_direction(m, sub)
            assert (not v.weak_mixing) or v.ergodic
            assert (not v.strong_mixing) or v.weak_mixing
            if not v.ergodic or not v.weak_mixing or not v.strong_mixing:
                assert v.witnesses


class TestMonotonicity:
    def test_super1_random(self):
        # L <= L': ergodicity and weak mixing pass upward, mixing downward
        rng = random.Random(5)
        checked = 0
        while checked < 150:
            field = rng.choice([QQ, F2])
            d = rng.randint(2, 3)
            space = rng.choice([EUCLID, TORUS])
            m = gen.rand_measure(rng, field, d, space, with_groups=True)
            big = gen.rand_subspace(rng, field, d)
            if big.dim < 2:
                continue
            coeffs = [gen.rand_scalar(rng, field, 0.2) for _ in big.basis]
            vec = zero_vector(field, d)
            for c, b in zip(coeffs, big.basis):
                vec = vec_add(vec, vec_scale(c, b))
            small = Subspace.from_vectors(field, d, [vec])
            if small.dim != 1:
                continue
            checked += 1
            v_small = C.classify_direction(m, small)
            v_big = C.classify_direction(m, big)
            if v_small.ergodic:
                assert v_big.ergodic
            if v_small.weak_mixing:
                assert v_big.weak_mixing
            if v_big.strong_mixing:
                assert v_small.strong_mixing


class TestConciseSets:
    def test_product_fixture(self):
        ne = C.nonergodic_concise(product_bernoulli())
        assert set(ne.subspaces) == {E1, E2}
        assert not ne.parametric_families and not ne.group_families
        nw = C.nonwm_concise(product_bernoulli())
        assert set(nw.subspaces) == {E1, E2}

    def test_full_box_empty(self):
        empty = C.ConciseSet(TORUS, 2, QQ, ())
        assert C.nonergodic_concise(torus(box(FULL))) == empty
        assert C.nonwm_concise(torus(box(FULL))) == empty

    def test_atom_gives_full_space_nonwm(self):
        m = torus(atom([Fraction(1, 7), Fraction(2, 7)]))
        assert C.nonwm_concise(m).subspaces == (FULL,)

    def test_irrational_atom_parametric_family(self):
        a = as_vector(F2, [F2.sqrt_root(2) - 1, Fraction(1, 3)])
        m = SymbolicMeasure.make(TORUS, 2, F2, [Atom(a)])
        ne = C.nonergodic_concise(m)
        assert len(ne.parametric_families) == 1
        members = ne.enumerate_members(2)
        assert members
        for member in members:
            assert not C.classify_direction(m, member).ergodic

    def test_inclusion_pruning(self):
        # a line carrier inside a plane carrier: the plane's perp (a line) is
        # subordinate to the line's perp (a plane) and is pruned away
        m3 = SymbolicMeasure.make(
            TORUS, 3, QQ,
            [box(Subspace.from_vectors(QQ, 3, [[1, 0, 0]])),
             box(Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]]))])
        ne = C.nonergodic_concise(m3)
        assert ne.subspaces == (
            Subspace.from_vectors(QQ, 3, [[0, 1, 0], [0, 0, 1]]),)
        # the pruned member is still subordinate
        assert ne.contains_direction(Subspace.from_vectors(QQ, 3, [[0, 0, 1]]))

    def test_family_pruning_reads_each_carriers_own_perp(self):
        # a parametric family on carrier K is dropped when K^perp <= s for a
        # hull member s; the test it replaced complemented every hull member,
        # s^perp <= K, the same predicate.  Over the torus classes of both
        # benchmark pools the kept families must be the old test's
        seen = Counter()
        for workload in ("classify-mix", "torus-walls"):
            for case in gen.benchmark_pool(workload):
                m = SymbolicMeasure.decode(case["measure"])
                if m.class_space != TORUS or m.has_delta_zero():
                    continue
                ne = C.nonergodic_concise(m)
                parametric = [c.carrier for c in m.components
                              if not isinstance(c, AtomGroup) and not c.carrier.is_linear()]
                hull_perps = [s.orthocomplement() for s in ne.subspaces]
                old = tuple(fam for fam in parametric
                            if not any(k.leq(fam.subspace) for k in hull_perps))
                assert ne.parametric_families == old
                seen["kept"] += len(old)
                seen["dropped"] += len(parametric) - len(old)
        assert seen["kept"] > 150 and seen["dropped"] >= 5, seen


def pairwise_hull(members):
    """Reference: the pairwise definition of the concise hull."""
    uniq = []
    for s in members:
        if s.dim == 0:
            continue
        if any(s == t for t in uniq):
            continue
        uniq.append(s)
    out = [s for s in uniq if not any(s != t and s.leq(t) for t in uniq)]
    out.sort(key=lambda s: (s.dim, str(s.encode())))
    return tuple(out)


def raw_members(cs, bound):
    """Every member of a concise set before deduplication: one perp per
    listed subspace, (family, shift) and (group atom, shift), with the group
    atoms written out as offset + sum c_i g_i over the coefficient pool."""
    members = list(cs.subspaces)
    shifts = list(product(range(-bound, bound + 1), repeat=cs.dim)) if cs.space == TORUS \
        else [(0,) * cs.dim]
    for fam in cs.parametric_families:
        for n in shifts:
            shifted = vec_sub(fam.offset, as_vector(cs.fieldspec, n))
            members.append(Subspace.from_vectors(
                cs.fieldspec, cs.dim,
                list(fam.subspace.basis) + [shifted]).orthocomplement())
    for fam in cs.group_families:
        for combo in product(M.coefficient_pool(fam.ring, bound),
                             repeat=len(fam.generators)):
            a = fam.offset
            for c, g in zip(combo, fam.generators):
                a = [x + y * c for x, y in zip(a, g)]
            for n in shifts:
                shifted = vec_sub(a, as_vector(cs.fieldspec, n))
                if all(x.is_zero() for x in shifted):
                    continue
                members.append(Subspace.from_vectors(
                    cs.fieldspec, cs.dim, [shifted]).orthocomplement())
    return members


class TestConciseHull:
    @pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "Q(sqrt2)"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_reference(self, field, seed):
        rng = random.Random(seed)
        members = [Subspace.zero(field, 3), Subspace.zero(field, 3)]
        for _ in range(5):
            vecs = [gen.rand_vector(rng, field, 3) for _ in range(3)]
            # nested spans of mixed dimension, each also rebuilt from
            # rescaled vectors so that equal subspaces arrive as new objects
            for k in range(1, 4):
                members.append(Subspace.from_vectors(field, 3, vecs[:k]))
                members.append(Subspace.from_vectors(
                    field, 3, [vec_scale(Fraction(-2, 3), v) for v in vecs[:k]]))
        rng.shuffle(members)
        assert C._concise_hull(members) == pairwise_hull(members)

    @pytest.mark.parametrize("name", ["chair", "bw8", "broken_symmetry", "lonely_atom",
                                      "ergodic_not_wm"])
    def test_enumerated_members_match_reference(self, fixtures_dir, name):
        import json
        m = SymbolicMeasure.decode(json.loads((fixtures_dir / f"{name}.json").read_text()))
        for cs in (C.nonergodic_concise(m), C.nonwm_concise(m)):
            assert cs.enumerate_members(3) == pairwise_hull(raw_members(cs, 3))

    def test_group_members_match_reference(self):
        # a ring-Z Q(sqrt2) group in T^2, whose atoms recur up to lattice
        # shifts, and a ring-Q group in R^2, both off the origin
        r2 = F2.sqrt_root(2)
        t2_z = SymbolicMeasure.make(TORUS, 2, F2, [AtomGroup(
            (as_vector(F2, [Fraction(1, 2), r2 / 2]), as_vector(F2, [0, Fraction(1, 3)])),
            "Z", as_vector(F2, [Fraction(1, 5), 0]))])
        r2_q = SymbolicMeasure.make(EUCLID, 2, QQ, [AtomGroup(
            (as_vector(QQ, [1, 2]),), "Q", as_vector(QQ, [Fraction(1, 2), 0]))])
        for m, bound in ((t2_z, 1), (r2_q, 3)):
            cs = C.nonergodic_concise(m)
            assert cs.group_families
            assert cs.enumerate_members(bound) == pairwise_hull(raw_members(cs, bound))

    def test_members_invert_once_per_distinct_shifted_atom(self, fixtures_dir, monkeypatch):
        # chair.json at bound 3: 15^2 atoms x 7^2 shifts = 11,025 (atom, shift)
        # pairs; normalizing the line of every pair took 11,301 inversions
        m = SymbolicMeasure.decode(json.loads((fixtures_dir / "chair.json").read_text()))
        cs = C.nonergodic_concise(m)
        calls = []
        invert = FieldScalar.invert

        def counted(x):
            calls.append(x)
            return invert(x)
        monkeypatch.setattr(FieldScalar, "invert", counted)
        cs.enumerate_members(3)
        assert len(calls) < 11_025 // 2


class TestMemberBudget:
    CHAIR = torus(AtomGroup((as_vector(QQ, [1, 0]), as_vector(QQ, [0, 1])), "Q",
                            zero_vector(QQ, 2)))

    def test_pool_size_matches_the_pool(self):
        for bound in range(13):
            pools = {"Z": set(range(-bound, bound + 1)),
                     "Q": {Fraction(p, q) for p in range(-bound, bound + 1)
                           for q in range(1, bound + 1)}}
            for ring, pool in pools.items():
                assert M.coefficient_pool_size(ring, bound, C.MEMBER_BUDGET) == len(pool)
            assert M.coefficient_pool(ring, bound) == sorted(pool)

    def test_chair_at_bound_5_fits(self):
        # chair.json is one Q group with two generators in T^2: 39^2 atoms x 11^2 shifts
        assert M.coefficient_pool_size("Q", 5, C.MEMBER_BUDGET) ** 2 * 11 ** 2 \
            == 184_041 <= C.MEMBER_BUDGET

    @pytest.mark.parametrize("space,bound", [(TORUS, 6), (TORUS, 10 ** 9),
                                             (EUCLID, 10 ** 9)])
    def test_over_budget_is_refused_before_listing(self, monkeypatch, space, bound):
        concise = C.nonergodic_concise(
            SymbolicMeasure.make(space, 2, QQ, self.CHAIR.components))
        assert concise.group_families

        def refuse(*args, **kwargs):
            raise AssertionError("listed before the budget check")
        monkeypatch.setattr(C, "product", refuse)
        monkeypatch.setattr(C, "truncated_atoms", refuse)
        with pytest.raises(ClosureBoundError):
            concise.enumerate_members(bound)

    def test_unshifted_sets_build_no_shift_list(self, monkeypatch):
        bw8 = torus(box(E1), box(E2), box(DIAG))
        monkeypatch.setattr(C, "product", None)
        assert C.nonwm_concise(bw8).enumerate_members(10 ** 9) \
            == C.nonwm_concise(bw8).subspaces


class TestGroupWallOracle:
    """Brute-force cross-validation of the atom-group wall decision.

    Positives must come with an exact witness atom on the wall; negatives
    are checked against bounded enumeration of group elements and lattice
    shifts (the enumeration can only refute, never certify)."""

    def _enumerate_hits(self, m, comp, sub, bound=3):
        field = m.field
        perp = sub.orthocomplement()
        pool = [Fraction(p, q) for p in range(-bound, bound + 1)
                for q in range(1, (bound if comp.ring == "Q" else 1) + 1)]
        combos = [[]]
        for _ in comp.generators:
            combos = [c + [x] for c in combos for x in set(pool)]
        shifts = [(i, j) for i in range(-bound, bound + 1)
                  for j in range(-bound, bound + 1)]
        for combo in combos:
            if comp.ring == "Z" and any(c.denominator != 1 for c in combo):
                continue
            v = comp.offset
            for c, g in zip(combo, comp.generators):
                if c:
                    v = vec_add(v, vec_scale(field.from_rational(c), g))
            if all(x.is_integer() for x in v):
                continue
            for n in shifts:
                shifted = vec_sub(v, as_vector(field, [Fraction(x) for x in n]))
                if perp.contains(shifted):
                    return v
        return None

    def test_against_enumeration(self):
        rng = random.Random(29)
        tested_pos = tested_neg = 0
        while tested_pos + tested_neg < 120:
            field = rng.choice([QQ, F2])
            m = gen.rand_measure(rng, field, 2, TORUS, max_components=1,
                                 with_groups=True)
            comp = m.components[0]
            if not isinstance(comp, AtomGroup):
                continue
            sub = gen.rand_subspace(rng, field, 2, target_dim=1)
            witness = C._group_meets_wall(m.class_space, comp, sub,
                                          zero_vector(field, 2))
            if witness is not None:
                tested_pos += 1
                # the witness must be a genuine atom lying on the wall
                assert not all(x.is_integer() for x in witness)
                perp = sub.orthocomplement()
                diff_ok = C._on_affine_wall(m.class_space, sub, witness,
                                            zero_vector(field, 2))
                assert diff_ok
                assert M.module_member(comp, witness, TORUS)
            else:
                tested_neg += 1
                assert self._enumerate_hits(m, comp, sub) is None
        assert tested_pos > 10 and tested_neg > 10


def _int_grid(d, bound):
    out = [()]
    for _ in range(d):
        out = [v + (k,) for v in out for k in range(-bound, bound + 1)]
    return out


class TestAffineWallKey:
    """The torus wall test ``_on_affine_wall(TORUS, L, ...)`` reads a coset key;
    it must agree with the coset solve for a shift n with B_L (diff - n) = 0
    and with a bounded search of shifts (which can only certify)."""

    @staticmethod
    def _irrational_vector(rng, d):
        s2 = F2.sqrt_root(2) * F2.from_rational(gen.rand_fraction(rng, nonzero=True))
        return [F2.one(), s2 + gen.rand_scalar(rng, F2), *gen.rand_vector(rng, F2, d - 2)]

    def _direction(self, rng, kind):
        """(field, d, direction) of the given kind."""
        if kind == "zero":
            d = rng.randint(1, 3)
            return QQ, d, Subspace.zero(QQ, d)
        if kind == "rational":
            field, d = rng.choice([QQ, F2]), rng.randint(1, 3)
            return field, d, gen.rand_rational_subspace(rng, field, d, rng.randint(1, d))
        if kind == "intermediate":  # a rational and an irrational vector in R^3
            return F2, 3, Subspace.from_vectors(F2, 3, [
                [Fraction(rng.randint(-2, 2)) for _ in range(3)],
                self._irrational_vector(rng, 3)])
        d = rng.randint(2, 3)
        return F2, d, Subspace.from_vectors(F2, d, [self._irrational_vector(rng, d)])

    def test_against_solver_and_brute_force(self):
        rng = random.Random(17)
        kinds = {"zero": 0, "completely_rational": 0, "intermediate": 0, "irrational": 0}
        outcomes = {True: 0, False: 0}
        found_by_search = 0
        for _ in range(160):
            field, d, sub = self._direction(
                rng, rng.choice(["zero", "rational", "intermediate", "irrational"]))
            kinds["zero" if sub.is_zero() else rationality(sub).kind] += 1
            ell = sub.project(gen.rand_vector(rng, field, d)) if rng.random() < 0.5 \
                else zero_vector(field, d)
            if rng.random() < 0.5:  # on the wall: a shift plus a vector of L^perp
                diff = as_vector(field, [rng.randint(-2, 2) for _ in range(d)])
                for b in sub.orthocomplement().basis:
                    diff = vec_add(diff, vec_scale(gen.rand_scalar(rng, field), b))
            else:
                diff = gen.rand_vector(rng, field, d)
            on_wall = C._on_affine_wall(TORUS, sub, vec_add(ell, diff), ell)
            rows = sub.basis
            sol = solve_lattice_coset("Z", (), [tuple(b[j] for b in rows) for j in range(d)],
                                      mat_vec(rows, diff))
            assert on_wall == (sol is not None)
            outcomes[on_wall] += 1
            if on_wall:  # the solver's shift puts diff on L^perp exactly
                n = as_vector(field, sol.shift)
                assert all(vec_dot(b, vec_sub(diff, n)).is_zero() for b in rows)
            search = next((n for n in _int_grid(d, 3 if d < 3 else 2)
                           if all(vec_dot(b, vec_sub(diff, as_vector(field, n))).is_zero()
                                  for b in rows)), None)
            if search is not None:
                found_by_search += 1
                assert on_wall
        assert min(kinds.values()) > 5
        assert outcomes[True] > 30 and outcomes[False] > 30 and found_by_search > 30


class TestFullDirection:
    """On the full direction L = R^d the wall L^perp + ell is ell + {0}, mod
    Z^d on the torus: ``_on_affine_wall`` reads ``is_identity`` and
    ``_group_meets_wall`` answers an identity ell without a lattice system.
    Both must agree with the systems they skip, and no operation of the
    benchmark on a full direction may pose one."""

    @staticmethod
    def measures():
        """Seeded slices of both benchmark pools, then random measures on
        R^d and T^d over Q and Q(sqrt2), with atom groups."""
        out = [SymbolicMeasure.decode(case["measure"])
               for workload in ("classify-mix", "torus-walls")
               for case in gen.benchmark_pool(workload)[:40]]
        rng = random.Random(71)
        for field, space, d in product((QQ, F2), (EUCLID, TORUS), (1, 2, 3)):
            out += [gen.rand_measure(rng, field, d, space, with_groups=True) for _ in range(3)]
        return out

    @staticmethod
    def identities(rng, m):
        """The zero vector, and on the torus an integral one too."""
        out = [zero_vector(m.field, m.dim)]
        if m.class_space == TORUS:
            out.append(as_vector(m.field, [rng.randint(-3, 3) for _ in range(m.dim)]))
        return out

    def test_identity_target_holds_no_genuine_atom(self):
        rng = random.Random(5)
        groups = 0
        for m in self.measures():
            rows = Subspace.full(m.field, m.dim).basis
            shifts = rows if m.class_space == TORUS else ()
            for comp in m.components:
                if isinstance(comp, AtomGroup):
                    groups += 1
                    for target in self.identities(rng, m):
                        assert M.group_atom_on_coset(m.class_space, comp, rows, target,
                                                     shifts) is None
        assert groups > 30

    def test_affine_wall_matches_the_lattice_key(self):
        rng = random.Random(11)
        outcomes = {True: 0, False: 0}
        for m in self.measures():
            space, full = m.class_space, Subspace.full(m.field, m.dim)
            points = [c.carrier.offset for c in m.components if not isinstance(c, AtomGroup)]
            for ell in [*self.identities(rng, m), gen.rand_vector(rng, m.field, m.dim)]:
                for point in [*points, ell, gen.rand_vector(rng, m.field, m.dim),
                              *(vec_add(ell, n) for n in self.identities(rng, m))]:
                    diff = vec_sub(point, ell)
                    if space == TORUS:
                        expected = not any(full.wall_key(diff))
                    else:
                        expected = all(vec_dot(b, diff).is_zero() for b in full.basis)
                    assert C._on_affine_wall(space, full, point, ell) == expected
                    outcomes[expected] += 1
        assert min(outcomes.values()) > 50

    def test_wall_of_a_genuine_atom(self):
        """On T^2 the group Z.(1/2, 0) charges the full direction's wall at
        ell = (1/2, 0), its own atom, and not at (1/3, 0)."""
        group = AtomGroup((as_vector(QQ, [Fraction(1, 2), 0]),), "Z", zero_vector(QQ, 2))
        m = torus(group)
        res = C.wall_test(m, FULL, [Fraction(1, 2), 0])
        assert res.positive and res.witnesses[0].encode()["atom"] == ["1/2", "0"]
        assert not C.wall_test(m, FULL, [Fraction(1, 3), 0]).positive

    def test_full_direction_poses_no_lattice_system(self, monkeypatch):
        measures = self.measures()
        fresh = [SymbolicMeasure.decode(m.encode()) for m in measures]

        def run(m):
            full = Subspace.full(m.field, m.dim)
            return (C.classify_direction(m, full).encode(),
                    [f.encode() for f in C.directional_eigenvalues(m, full)],
                    C.nonergodic_concise(m).contains_direction(full),
                    C.nonwm_concise(m).contains_direction(full))

        expected = [run(m) for m in measures]

        def refuse(*args, **kwargs):
            raise AssertionError("a full direction posed a lattice system")

        monkeypatch.setattr(M, "pose_lattice_coset", refuse)
        monkeypatch.setattr(CosetLattice, "make", staticmethod(refuse))
        assert [run(m) for m in fresh] == expected
        # a reduced class is ergodic along R^d; weak mixing still fails often
        assert all(verdict["ergodic"] for verdict, *_ in expected)
        assert sum(not verdict["weak_mixing"] for verdict, *_ in expected) > 10


class TestSubordinationSoundness:
    def test_random(self):
        rng = random.Random(7)
        for _ in range(200):
            field = rng.choice([QQ, F2])
            d = rng.randint(2, 3)
            space = rng.choice([EUCLID, TORUS])
            m = gen.rand_measure(rng, field, d, space, with_groups=True)
            sub = gen.rand_subspace(rng, field, d)
            v = C.classify_direction(m, sub)
            ne = C.nonergodic_concise(m)
            nw = C.nonwm_concise(m)
            assert v.ergodic == (not ne.contains_direction(sub))
            assert v.weak_mixing == (not nw.contains_direction(sub))


class TestDirectionalEigenvalues:
    def test_atom_projection(self):
        m = torus(atom([Fraction(1, 2), 0]))
        fams = C.directional_eigenvalues(m, E1)
        assert len(fams) == 1
        assert fams[0].base == as_vector(QQ, [Fraction(1, 2), 0])
        assert fams[0].lattice_images  # torus: lattice of eigenvalue shifts

    def test_invariant_box(self):
        m = torus(box(E2))
        fams = C.directional_eigenvalues(m, E1)
        assert len(fams) == 1
        assert all(x.is_zero() for x in fams[0].base)

    def test_full_box_has_none(self):
        assert C.directional_eigenvalues(torus(box(FULL)), E1) == ()

    def test_weak_mixing_witness_is_directional_eigenvalue(self):
        rng = random.Random(11)
        for _ in range(50):
            field = rng.choice([QQ, F2])
            d = 2
            m = gen.rand_measure(rng, field, d, TORUS)
            sub = gen.rand_subspace(rng, field, d, target_dim=1)
            v = C.classify_direction(m, sub)
            if v.weak_mixing:
                continue
            ells = [w.eigenvalue for prop, w in v.witnesses
                    if prop == "weak_mixing" and w.eigenvalue is not None]
            for ell in ells:
                assert C.wall_test(m, sub, list(ell)).positive

    def test_unit_vectors_read_the_projector_columns(self, monkeypatch):
        # on the torus the projector columns are built once per direction, for
        # the lattice images; a point or generator that is a unit vector e_j
        # (a canonical ring-Z group holds some) is column j, never passed to
        # ``Subspace.project``, and the direction's memo keeps only its dual basis
        r2 = F2.sqrt_root(2)
        m = SymbolicMeasure.make(TORUS, 3, F2, [
            AtomGroup((as_vector(F2, [Fraction(1, 3), r2, 0]),), "Z", zero_vector(F2, 3)),
            atom([Fraction(1, 5), 0, Fraction(1, 7)], field=F2),
            atom([0, Fraction(1, 2), 0], field=F2)])
        units = {tuple(F2.one() if i == j else F2.zero() for i in range(3)) for j in range(3)}
        assert any(units & set(c.generators) for c in m.components if isinstance(c, AtomGroup))
        calls, projected = Counter(), []
        columns, project = Subspace.projector_columns, Subspace.project
        monkeypatch.setattr(Subspace, "projector_columns",
                            lambda self: calls.update([self.basis]) or columns(self))
        monkeypatch.setattr(Subspace, "project",
                            lambda self, v: projected.append(v) or project(self, v))
        for rows in ([[1, 2, 0]], [[1, 0, r2]], [[1, 0, 1], [0, 1, r2]], [[1, r2, 3], [0, 0, 1]]):
            sub = Subspace.from_vectors(F2, 3, rows)
            calls.clear()
            projected.clear()
            families = C.directional_eigenvalues(m, sub)
            assert calls == Counter([sub.basis]) and projected
            assert not units & set(map(tuple, projected))
            assert set(sub.memo) == {"dual_basis"}
            carriers = C._eigenvalue_carriers(m, sub)
            assert [f.component_index for f in families] == [i for i, _, _ in carriers]
            for f, (_, point, gens) in zip(families, carriers):
                assert f.base == gram_projection(sub, point)
                assert f.group_generators == tuple(gram_projection(sub, g) for g in gens)

    def test_weak_mixing_is_read_off_the_families(self):
        rng = random.Random(19)
        for _ in range(120):
            field = rng.choice([QQ, F2])
            d = rng.randint(2, 3)
            m = gen.rand_measure(rng, field, d, rng.choice([EUCLID, TORUS]),
                                 with_groups=True)
            sub = gen.rand_subspace(rng, field, d)
            v = C.classify_direction(m, sub)
            fams = C.directional_eigenvalues(m, sub)
            assert v.weak_mixing == (not fams)
            assert [w.component_index for prop, w in v.witnesses if prop == "weak_mixing"] \
                == [f.component_index for f in fams]


class TestRealize:
    def test_axes(self):
        rep = C.realize([E1, E2])
        assert rep.verified
        carriers = {c.carrier.subspace for c in rep.measure.components}
        assert carriers == {E1, E2, FULL}

    def test_gbw_fixture(self):
        l1 = Subspace.from_vectors(QQ, 3, [[0, 0, 1]])
        l2 = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        rep = C.realize([l1, l2])
        assert rep.verified
        assert set(rep.realized_nonergodic.subspaces) == {l1, l2}
        assert set(rep.realized_nonwm.subspaces) == {l1, l2}

    def test_full_space_rejected(self):
        with pytest.raises(InvalidDirectionSetError):
            C.realize([FULL])

    def test_zero_subspace_rejected(self):
        with pytest.raises(InvalidDirectionSetError):
            C.realize([Subspace.zero(QQ, 2)])

    def test_non_concise_pruned_with_warning(self):
        line = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
        plane = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        rep = C.realize([line, plane])
        assert rep.warnings
        assert rep.requested == (plane,)

    def test_realized_measure_is_weak_mixing_everywhere_off_family(self):
        rep = C.realize([DIAG])
        v = C.classify_direction(rep.measure, E1)
        assert v.ergodic and v.weak_mixing

    def test_dimension_four_mixed_family(self):
        plane_a = Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        plane_b = Subspace.from_vectors(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        line = Subspace.from_vectors(QQ, 4, [[1, 1, 1, 1]])
        rep = C.realize([plane_a, plane_b, line])
        assert rep.verified
        assert len(rep.carrier_closure) >= 4


class TestLints:
    def test_missing_sum(self):
        warns = C.admissibility_lint(torus(atom([Fraction(1, 3), 0])))
        assert [w.code for w in warns] == ["atom_closure"]

    def test_translation_symmetry(self):
        m = torus(atom([Fraction(1, 2), 0]), box(E2))
        warns = C.admissibility_lint(m)
        assert [w.code for w in warns] == ["translation_symmetry"]

    def test_ergodic_not_wm(self):
        m = torus(box(E2, [Fraction(1, 2), 0]))
        warns = C.admissibility_lint(m)
        assert [w.code for w in warns] == ["ergodic_not_wm"] or \
            [w.code for w in warns] == ["ergodic_not_weak_mixing"]

    def test_ergodic_not_wm_agrees_with_classify_direction(self):
        # check (c) reads the central wall test alone: along K^perp the box
        # carrier K lies in the perp, so weak mixing fails there
        rng = random.Random(23)
        tested = warned = 0
        for _ in range(200):
            field = rng.choice([QQ, F2])
            d = rng.randint(2, 3)
            m = gen.rand_measure(rng, field, d, rng.choice([EUCLID, TORUS]))
            carriers = [c.carrier.subspace for c in m.components
                        if isinstance(c, BoxLebesgue)]
            if M.atom_points(m) or len(carriers) < len(m.components):
                continue
            flagged = 0
            for k in carriers:
                if 0 < k.dim < d:
                    v = C.classify_direction(m, k.orthocomplement())
                    assert not v.weak_mixing
                    flagged += v.ergodic
            codes = [w.code for w in C.admissibility_lint(m)]
            assert codes == ["ergodic_not_weak_mixing"] * flagged
            tested += 1
            warned += bool(flagged)
        assert tested > 30 and 0 < warned < tested

    def test_clean_fixtures(self):
        assert C.admissibility_lint(product_bernoulli()) == []
        chair = torus(AtomGroup((as_vector(QQ, [1, 0]), as_vector(QQ, [0, 1])),
                                "Q", zero_vector(QQ, 2)))
        assert C.admissibility_lint(chair) == []
        closed = torus(atom([Fraction(1, 3), 0]), atom([Fraction(2, 3), 0]))
        assert C.admissibility_lint(closed) == []

    @pytest.mark.parametrize("name", ["product_bernoulli", "bw8", "chair", "lonely_atom",
                                      "ergodic_not_wm", "broken_symmetry"])
    def test_suspension_lints_like_the_torus_measure(self, fixtures_dir, name):
        m = SymbolicMeasure.decode(json.loads((fixtures_dir / f"{name}.json").read_text()))
        assert [w.encode() for w in C.admissibility_lint(M.suspend(m))] \
            == [w.encode() for w in C.admissibility_lint(m)]

    def test_symmetry_counts_each_class_once(self):
        # the box class on span(e2) has two representatives (centres (0, 0)
        # and (0, 1/3)); translating by (1/2, 0) swaps it with the box class
        # at offset (1/2, 0), which has one, and preserves the class
        reps = [BoxLebesgue(AffineCarrier.make(E2), E2.basis, as_vector(QQ, c))
                for c in ([0, 0], [0, Fraction(1, 3)])]
        m = torus(atom([Fraction(1, 2), 0]), *reps, box(E2, [Fraction(1, 2), 0]))
        assert len(m.components) == 4
        assert C.admissibility_lint(m) == []

    def test_suspended_closed_atoms_on_the_circle(self):
        closed = torus(atom([Fraction(1, 3)]), atom([Fraction(2, 3)]), dim=1)
        assert C.admissibility_lint(M.suspend(closed)) == []


def restriction_consistent(m: SymbolicMeasure, direction: Subspace) -> bool | None:
    """For a completely rational L, compare the direction verdict of a torus
    measure against the subgroup push-forward: ergodic iff the restricted
    class has no atom at 0, weak mixing iff it has no atoms at all.  None when
    L is not completely rational (no subgroup to restrict to)."""
    assert m.space == TORUS
    rep = rationality(direction)
    if rep.kind != "completely_rational" or rep.lattice.is_trivial():
        return None
    pushed, _ = M.pushforward_subgroup(m, rep.lattice)
    verdict = C.classify_direction(m, direction)
    erg_expected = not M.has_atom_at(pushed, zero_vector(m.field, pushed.dim))
    wm_expected = not any(isinstance(c, (Atom, AtomGroup)) for c in pushed.components)
    return verdict.ergodic == erg_expected and verdict.weak_mixing == wm_expected


class TestCompletelyRationalConsistency:
    def test_random_rational_directions(self):
        rng = random.Random(13)
        for _ in range(60):
            d = rng.randint(2, 3)
            m = gen.rand_measure(rng, QQ, d, TORUS, with_groups=True)
            sub = gen.rand_rational_subspace(rng, QQ, d, rng.randint(1, d - 1))
            assert restriction_consistent(m, sub) is True

    def test_none_for_irrational(self):
        m = product_bernoulli()
        line = Subspace.from_vectors(F2, 2, [[1, F2.sqrt_root(2)]])
        m2 = M.promote_field(m, F2)
        assert restriction_consistent(m2, line) is None

    def test_benchmark_pools(self):
        # every torus measure x direction of both benchmark pools: the
        # restriction route never disagrees, and most directions admit it
        counts = {True: 0, False: 0, None: 0}
        for workload in ("classify-mix", "torus-walls"):
            for case in gen.benchmark_pool(workload):
                if case["measure"]["space"] != TORUS:
                    continue
                m = SymbolicMeasure.decode(case["measure"])
                for d in case["directions"]["directions"]:
                    sub = Subspace.from_vectors(m.field, m.dim, [
                        [decode_scalar(m.field, x) for x in row] for row in d["basis"]])
                    counts[restriction_consistent(m, sub)] += 1
        assert counts[False] == 0 and counts[True] >= 400, counts


class TestWeakMixingRoute:
    def test_benchmark_pools(self):
        # for a weak mixing action, ergodicity and weak mixing coincide along
        # every direction L.  On the atom-free measures of both pools that
        # lint clean they coincide along every pool direction, and along each
        # line of a carrier's orthocomplement, where the carrier gives an
        # eigenvalue; the lint looks only at the whole orthocomplement
        seen = Counter()
        for workload in ("classify-mix", "torus-walls"):
            for case in gen.benchmark_pool(workload):
                m = SymbolicMeasure.decode(case["measure"])
                if not all(isinstance(c, BoxLebesgue) for c in m.components) \
                        or C.admissibility_lint(m):
                    continue
                lines = [Subspace.from_vectors(m.field, m.dim, [b]) for c in m.components
                         for b in c.carrier.subspace.orthocomplement().basis]
                pool = [Subspace.from_vectors(m.field, m.dim, [
                    [decode_scalar(m.field, x) for x in row] for row in d["basis"]])
                    for d in case["directions"]["directions"]]
                for kind, directions in (("pool", pool), ("perp line", lines)):
                    for direction in directions:
                        verdict = C.classify_direction(m, direction)
                        assert verdict.ergodic == verdict.weak_mixing, (case, direction)
                        seen[kind, verdict.ergodic] += 1
        assert sum(n for (kind, _), n in seen.items() if kind == "pool") >= 80, seen
        assert seen["perp line", False] >= 40, seen


def _unimodular(rng: random.Random, d: int) -> tuple[list[list[int]], list[list[int]]]:
    """A seeded A in GL_d(Z) and A^{-T}: a signed permutation times three
    elementary steps row_i += c row_j (c = +-1), the inverse built alongside."""
    perm, signs = rng.sample(range(d), d), [rng.choice((-1, 1)) for _ in range(d)]
    a = [[signs[i] * (j == perm[i]) for j in range(d)] for i in range(d)]
    inv = [[signs[j] * (i == perm[j]) for j in range(d)] for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]  # A <- E A, E = 1 + c e_i e_j^T
        for row in inv:  # A^-1 <- A^-1 E^-1: column j -= c column i
            row[j] -= c * row[i]
    return a, [list(col) for col in zip(*inv)]


def _map_measure(m: SymbolicMeasure, b) -> SymbolicMeasure:
    """The push-forward of a torus class by x -> B x for B in GL_d(Z): B Z^d
    = Z^d, so B acts on T^d, and every point, generator, carrier and centre
    is mapped by B."""
    def v(x):
        return mat_vec(b, x)

    comps = []
    for c in m.components:
        if isinstance(c, Atom):
            comps.append(Atom(v(c.point), c.weight))
        elif isinstance(c, BoxLebesgue):
            sub = Subspace.from_vectors(m.field, m.dim, [v(g) for g in c.carrier.subspace.basis])
            comps.append(BoxLebesgue(AffineCarrier.make(sub, v(c.carrier.offset)),
                                     tuple(v(g) for g in c.generators),
                                     c.center and v(c.center), c.weight))
        else:
            comps.append(AtomGroup(tuple(v(g) for g in c.generators), c.ring, v(c.offset),
                                   c.weight))
    return SymbolicMeasure.make(TORUS, m.dim, m.field, comps)


class TestUnimodularInvariance:
    """The verdicts are GL_d(Z)-equivariant.  For A in GL_d(Z) let B = A^{-T},
    also integral, so x -> B x is an automorphism of T^d; it maps the class
    sigma to B sigma and the action along L to the action along A L.

    The walls move with it: x is in L^perp + ell iff x.v = ell.v for all v in
    L, and (B x).(A v) = x^T B^T A v = x.v, so B (L^perp + ell) = {y : y.w =
    (B ell).w for w in A L} = (A L)^perp + B ell = (A L)^perp + P_{AL}(B ell),
    the projection onto A L dropping a part in (A L)^perp.  With B Z^d = Z^d
    the same holds mod Z^d, so sigma charges L^perp + ell iff B sigma charges
    (A L)^perp + P_{AL}(B ell): ergodicity, weak mixing and the concise-set
    memberships are unchanged.  For strong mixing, a box on K decays along L
    iff L cap K^perp = 0, and (B K)^perp = A K^perp, since (B k).(A u) = k.u;
    so A L cap (B K)^perp = A (L cap K^perp), zero exactly when L cap K^perp
    is.  A L has the rational rank of L, so completely rational, intermediate
    and irrational directions are all covered.  The full direction R^d is
    mapped to itself, but its walls {ell} move: the wall tests at each
    carrier's projected point ell check those non-central walls too."""

    def test_torus_pools(self, monkeypatch):
        # the HNF solve decides every group wall; the SNF solve behind it only
        # names the witness atom, and on the mapped systems it can take
        # minutes (a coordinate permutation of a T^4 group wall took > 20 s)
        def hnf_only(*args):
            solve = pose_lattice_coset(*args)
            return solve and (lambda smith, shifts=True: solve(smith=False, shifts=shifts))

        monkeypatch.setattr(M, "pose_lattice_coset", hnf_only)
        rng = random.Random(29)
        pairs = walls = 0
        for workload in ("classify-mix", "torus-walls"):
            for case in gen.benchmark_pool(workload):
                if case["measure"]["space"] != TORUS:
                    continue
                m = SymbolicMeasure.decode(case["measure"])
                a, b = _unimodular(rng, m.dim)
                mapped = _map_measure(m, b)
                ne, nw = C.nonergodic_concise(m), C.nonwm_concise(m)
                mapped_ne, mapped_nw = C.nonergodic_concise(mapped), C.nonwm_concise(mapped)
                for d in case["directions"]["directions"]:
                    sub = Subspace.from_vectors(m.field, m.dim, [
                        [decode_scalar(m.field, x) for x in row] for row in d["basis"]])
                    image = Subspace.from_vectors(m.field, m.dim,
                                                  [mat_vec(a, v) for v in sub.basis])
                    verdict, mapped_verdict = (C.classify_direction(m, sub),
                                               C.classify_direction(mapped, image))
                    assert [verdict.ergodic, verdict.weak_mixing, verdict.strong_mixing,
                            ne.contains_direction(sub), nw.contains_direction(sub)] == [
                        mapped_verdict.ergodic, mapped_verdict.weak_mixing,
                        mapped_verdict.strong_mixing, mapped_ne.contains_direction(image),
                        mapped_nw.contains_direction(image)]
                    pairs += 1
                    for prop, w in verdict.witnesses:
                        if prop == "weak_mixing" and not vec_is_zero(w.eigenvalue):
                            ell = image.project(mat_vec(b, w.eigenvalue))
                            assert C.wall_test(m, sub, w.eigenvalue).positive \
                                == C.wall_test(mapped, image, ell).positive
                            walls += 1
        assert pairs > 500 and walls > 300


class TestSuspensionConsistency:
    def test_random(self):
        rng = random.Random(17)
        for _ in range(60):
            field = rng.choice([QQ, F2])
            d = rng.randint(2, 3)
            m = gen.rand_measure(rng, field, d, TORUS, with_groups=True)
            per = M.suspend(m)
            # translating the periodized class by a lattice vector is a no-op
            shift = [rng.randint(-2, 2) for _ in range(d)]
            per_shifted = M.translate(per, [Fraction(s) for s in shift])
            for _ in range(5):
                sub = gen.rand_subspace(rng, field, d)
                v_torus = C.classify_direction(m, sub)
                for lifted in (per, per_shifted):
                    v_lift = C.classify_direction(lifted, sub)
                    assert (v_torus.ergodic, v_torus.weak_mixing,
                            v_torus.strong_mixing) == \
                        (v_lift.ergodic, v_lift.weak_mixing, v_lift.strong_mixing)


class TestEmbeddingConsistency:
    def test_quotient_round_trip(self):
        rng = random.Random(19)
        for _ in range(40):
            field = rng.choice([QQ, F2])
            d = 2
            m_euclid = gen.rand_measure(rng, field, d, EUCLID)
            m_torus = M.pushforward_quotient(m_euclid)
            if m_torus.has_delta_zero():
                continue
            per = M.suspend(m_torus)
            for _ in range(4):
                sub = gen.rand_subspace(rng, field, d)
                v1 = C.classify_direction(per, sub)
                v2 = C.classify_direction(m_torus, sub)
                assert v1.ergodic == v2.ergodic
                assert v1.weak_mixing == v2.weak_mixing


class TestFieldPromotion:
    """Verdicts and concise sets describe the measure, not the field it is
    written in: promoting the measure and the directions into a larger field
    changes no encoded output (and reduces every atom mod 1 in the deeper
    tower again)."""

    @staticmethod
    def _outputs(m, directions):
        return ([C.classify_direction(m, sub).encode() for sub in directions]
                + [C.nonergodic_concise(m).encode(2), C.nonwm_concise(m).encode(2)])

    def _check(self, m, directions, field):
        promoted = M.promote_field(m, field)
        assert promoted.field == field
        assert self._outputs(promoted, [promote_subspace(sub, field) for sub in directions]) \
            == self._outputs(m, directions)

    @pytest.mark.parametrize("name", ["product_bernoulli", "bw8", "chair", "lonely_atom",
                                      "ergodic_not_wm", "broken_symmetry"])
    def test_torus_fixtures(self, fixtures_dir, name):
        import json
        m = SymbolicMeasure.decode(json.loads((fixtures_dir / f"{name}.json").read_text()))
        assert m.space == TORUS and m.field == QQ
        self._check(m, [E1, E2, DIAG, Subspace.from_vectors(QQ, 2, [[1, 2]]),
                        Subspace.from_vectors(QQ, 2, [[3, -1]])], F23)
        slope = Subspace.from_vectors(F2, 2, [[F2.one(), F2.sqrt_root(2) - 1]])
        self._check(M.promote_field(m, F2), [slope], F23)

    def test_random_sqrt2_measures(self):
        rng = random.Random(31)
        for _ in range(20):
            # concise sets of atom groups in T^3 enumerate for seconds: groups in T^2
            d = rng.randint(2, 3)
            m = gen.rand_measure(rng, F2, d, TORUS, with_groups=d == 2)
            directions = [gen.rand_subspace(rng, F2, d, rng.randint(1, d - 1))
                          for _ in range(2)]
            self._check(m, directions, F25)


class TestPughShub:
    def test_cyclic_restriction_vs_annihilator(self):
        # T^h not ergodic iff the measure charges ann(Zh) = {a : a.h in Z};
        # cross-checked through the subgroup push-forward.
        #
        # Write a = s h/(h.h) + w with w perpendicular to h, so a.h = s and
        # ann(Zh) = Z h/(h.h) + h^perp.  Modulo Z^d, whose projection onto
        # span(h) is {(z.h) h/(h.h)} = g Z h/(h.h) with g = gcd(h), its
        # components are the walls h^perp + ell_k, ell_k = k h/(h.h) for
        # k = 0..g-1, and each ell_k already lies in L = span(h).
        rng = random.Random(23)
        for _ in range(40):
            d = 2
            m = gen.rand_measure(rng, QQ, d, TORUS, with_groups=False)
            h = [rng.randint(-3, 3) for _ in range(d)]
            if all(x == 0 for x in h):
                continue
            lattice = LatticeSubgroup.from_generators(d, [h])
            pushed, _ = M.pushforward_subgroup(m, lattice)
            cyclic_nonergodic = M.has_atom_at(pushed, [0])
            span_h = lattice.span(QQ)
            hh = sum(x * x for x in h)
            charged = any(
                C.wall_test(m, span_h, [Fraction(k * x, hh) for x in h]).positive
                for k in range(math.gcd(*h)))
            assert cyclic_nonergodic == charged
