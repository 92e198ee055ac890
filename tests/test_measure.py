import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import gen
from dirspec import classify as C
from dirspec import measure as M
from dirspec.errors import (ClosureBoundError, UnsupportedConvolutionError,
                            ValidationError)
from dirspec.linalg import (AffineCarrier, CosetLattice, LatticeSubgroup, Subspace,
                            as_vector, flatten, mat_vec, solve_lattice_coset, unit_vector,
                            vec_add, vec_is_zero, vec_scale, vec_sub, zero_vector)
from dirspec.measure import (EUCLID, TORUS, Atom, AtomGroup, BoxLebesgue,
                             SymbolicMeasure)
from dirspec.scalar import QQ, FieldScalar, FieldSpec

F2 = FieldSpec((2,))
E1 = Subspace.from_vectors(QQ, 2, [[1, 0]])
E2 = Subspace.from_vectors(QQ, 2, [[0, 1]])
FULL = Subspace.full(QQ, 2)


def box(sub, off=None, w=1):
    return BoxLebesgue(AffineCarrier.make(sub, off), sub.basis, weight=Fraction(w))


def atom(pt, w=1, field=QQ):
    return Atom(as_vector(field, pt), Fraction(w))


def torus(*comps, dim=2, field=QQ):
    return SymbolicMeasure.make(TORUS, dim, field, comps)


def euclid(*comps, dim=2, field=QQ):
    return SymbolicMeasure.make(EUCLID, dim, field, comps)


class TestCanonicalization:
    def test_atom_mod_one(self):
        m = torus(atom([Fraction(3, 2), Fraction(-1, 4)]))
        assert m.components[0].point == as_vector(QQ, [Fraction(1, 2), Fraction(3, 4)])

    def test_box_offset_perp(self):
        m = euclid(box(E1, [3, Fraction(1, 2)]))
        assert m.components[0].carrier.offset == as_vector(QQ, [0, Fraction(1, 2)])

    def test_torus_box_lattice_absorption(self):
        m = torus(box(E1, [0, 2]))
        assert m.components[0].carrier.is_linear()

    def test_torus_box_fundamental_domain(self):
        m = torus(box(E1, [0, Fraction(5, 4)]))
        assert m.components[0].carrier.offset == as_vector(QQ, [0, Fraction(1, 4)])

    def test_box_offset_lattice_kept_in_carrier_memo(self):
        # the projected lattice depends only on the carrier: kept in its memo
        # (None when it is dense); boxes on one carrier object, which read the
        # memo, canonicalize as boxes on a new subspace object each
        for sub in (Subspace.from_vectors(QQ, 2, [[1, 2]]),
                    Subspace.from_vectors(F2, 2, [[1, F2.sqrt_root(2)]])):
            offsets = [[Fraction(k, 3), Fraction(5, 7)] for k in range(-4, 5)]
            want = [SymbolicMeasure.make(
                        TORUS, 2, sub.field, [box(Subspace(sub.field, 2, sub.basis), off)])
                    for off in offsets]
            got = [SymbolicMeasure.make(TORUS, 2, sub.field, [box(sub, off)])
                   for off in offsets]
            assert [m.encode() for m in got] == [m.encode() for m in want]
            assert (sub.memo["perp_lattice"] is None) == (sub.field != QQ)

    def test_box_key_lattice_kept_in_carrier_memo(self):
        # the torus class key of a box reads the wall lattice of the carrier's
        # orthocomplement, which depends only on the carrier: built once, the
        # orthocomplement kept in the carrier's memo, and equal to the one a
        # new subspace object builds
        for sub in (Subspace.from_vectors(QQ, 2, [[1, 2]]),
                    Subspace.from_vectors(F2, 2, [[1, F2.sqrt_root(2)]])):
            m = SymbolicMeasure.make(TORUS, 2, sub.field,
                                     [box(sub, [Fraction(1, 3), Fraction(5, 7)])])
            carrier = m.components[0].carrier.subspace
            perp = carrier.memo["perp"]
            lattice = perp.memo["wall_lattice"]
            key = M.class_key(TORUS, m.components[0])
            assert carrier.memo["perp"] is perp and perp.memo["wall_lattice"] is lattice
            assert carrier.orthocomplement() is perp
            fresh = Subspace(carrier.field, 2, carrier.basis)
            assert M._box_key(TORUS, fresh, m.components[0].carrier.offset) == key
            assert fresh.memo["perp"] == perp and fresh.memo["perp"].memo["wall_lattice"] == lattice
            # the concise sets reuse the orthocomplement that decoding built
            assert C.nonwm_concise(m).subspaces == (perp,)
            assert C.nonwm_concise(m).subspaces[0] is perp

    def test_memo_is_not_part_of_the_measure(self):
        rng = random.Random(61)
        for _ in range(20):
            m = gen.rand_measure(rng, rng.choice([QQ, F2]), 2,
                                 rng.choice([TORUS, EUCLID]), with_groups=True)
            fresh = SymbolicMeasure(m.space, m.dim, m.field, m.components, m.periodized)
            before = (hash(m), m.encode(), repr(m))
            m.memo["nonwm_concise"] = object()
            assert m == fresh and hash(m) == hash(fresh)
            assert (hash(m), m.encode(), repr(m)) == before
            assert fresh.memo == {} and "memo" not in repr(m)
            assert {m: 1}[fresh] == 1

    def test_torus_box_offset_canonical_across_presentations(self):
        # equivalent offsets (differing by K + Z^d) canonicalize identically
        # for completely rational carriers
        a = torus(box(E1, [0, Fraction(5, 4)]))
        b = torus(box(E1, [0, Fraction(-3, 4)]))
        c = torus(box(E1, [7, Fraction(9, 4)]))
        assert a.components[0].carrier == b.components[0].carrier \
            == c.components[0].carrier
        slanted = Subspace.from_vectors(QQ, 2, [[1, 2]])
        base = torus(box(slanted, [Fraction(1, 7), 0]))
        # shift the offset by a lattice vector: same coset, same canonical form
        shifted = torus(box(slanted, [Fraction(1, 7) + 3, -1]))
        assert base.components[0].carrier == shifted.components[0].carrier

    def test_torus_box_irrational_carrier_dedup_by_equivalence(self):
        r2 = F2.sqrt_root(2)
        slant = Subspace.from_vectors(F2, 2, [[F2.one(), r2]])
        # offsets differing by a lattice shift projected off the carrier
        o1 = [Fraction(1, 5), 0]
        m1 = SymbolicMeasure.make(TORUS, 2, F2,
                                  [M.BoxLebesgue(AffineCarrier.make(slant, o1),
                                                 slant.basis)])
        off2 = vec_add(m1.components[0].carrier.offset,
                       slant.project_perp(as_vector(F2, [2, -1])))
        m2 = SymbolicMeasure.make(TORUS, 2, F2,
                                  [M.BoxLebesgue(AffineCarrier.make(slant, off2),
                                                 slant.basis)])
        # the projected lattice is dense, so no fundamental domain reduces the
        # stored offsets; the class key reads the wall key of the carrier's
        # orthocomplement, where the shifts form a lattice, and sees equal carriers
        assert m1.components[0].carrier != m2.components[0].carrier
        assert M.class_key(TORUS, m1.components[0]) == M.class_key(TORUS, m2.components[0])
        assert m1.same_class(m2)
        both = M.add(m1, m2)
        merged = M.decompose(both)[1]
        assert len(merged.components) == 1

    def test_irrational_torus_box_key_floors_no_field_scalar(self, monkeypatch):
        r2 = F2.sqrt_root(2)
        slant = Subspace.from_vectors(F2, 2, [[F2.one(), r2]])
        center = as_vector(F2, [Fraction(1, 5), 0])
        # a lattice shift off the carrier, a carrier vector past an integer
        # (the centre's reduction mod 1 then moves the offset), a non-shift
        shifts = (slant.project_perp(as_vector(F2, [2, -1])), as_vector(F2, [r2, 2]),
                  as_vector(F2, [Fraction(1, 2), 0]))
        boxes = [SymbolicMeasure.make(TORUS, 2, F2, [BoxLebesgue(
            AffineCarrier.make(slant), slant.basis, x)]).components[0]
            for x in [center] + [vec_add(center, s) for s in shifts]]
        assert len({b.carrier.offset for b in boxes}) == 4

        def no_floor(self):
            raise AssertionError("class keys must not floor a FieldScalar")

        monkeypatch.setattr(FieldScalar, "floor", no_floor)
        keys = [M.class_key(TORUS, b) for b in boxes]
        # a lattice shift and a carrier vector keep the class; (1/2, 0) leaves it
        assert keys[0] == keys[1] == keys[2] != keys[3]

    def test_box_generator_span_enforced(self):
        with pytest.raises(ValidationError):
            torus(BoxLebesgue(AffineCarrier.make(FULL), E1.basis))

    def test_group_offset_absorbed(self):
        g = AtomGroup((as_vector(QQ, [1, 0]), as_vector(QQ, [0, 1])), "Q",
                      as_vector(QQ, [Fraction(1, 3), Fraction(2, 5)]))
        m = torus(g)
        assert all(x.is_zero() for x in m.components[0].offset)

    def test_degenerate_group_drops_or_atomizes(self):
        # ring-Z module inside Z^2 with integral offset: the zero measure
        g = AtomGroup((as_vector(QQ, [1, 0]),), "Z", as_vector(QQ, [2, 0]))
        assert torus(g).is_zero()
        # same module, fractional offset: a single atom survives
        g2 = AtomGroup((as_vector(QQ, [1, 0]),), "Z",
                       as_vector(QQ, [0, Fraction(1, 2)]))
        m = torus(g2)
        assert isinstance(m.components[0], Atom)

    def test_dedup_merges_weights(self):
        m = torus(atom([Fraction(1, 3), 0]), atom([Fraction(1, 3), 0], w=2))
        assert len(m.components) == 1
        assert m.components[0].weight == 3

    def test_canonical_ordering_stable(self):
        a = torus(box(E2), atom([Fraction(1, 2), 0]), box(E1))
        b = torus(box(E1), box(E2), atom([Fraction(1, 2), 0]))
        assert a == b


class TestAlgebra:
    def test_add_examples(self):
        a = torus(atom([Fraction(1, 3), 0]))
        assert len(M.add(a, a).components) == 1
        b = torus(atom([Fraction(1, 2), 0]))
        assert len(M.add(a, b).components) == 2
        assert len(M.add(torus(box(E1)), torus(box(E2))).components) == 2

    def test_translate_examples(self):
        m = euclid(atom([0, 0]))
        assert M.translate(m, [Fraction(1, 2), 0]).components[0].point \
            == as_vector(QQ, [Fraction(1, 2), 0])
        mb = euclid(box(E2))
        out = M.translate(mb, [Fraction(1, 3), 0])
        assert out.components[0].carrier.offset == as_vector(QQ, [Fraction(1, 3), 0])
        mt = torus(atom([Fraction(3, 4), 0]))
        assert M.translate(mt, [Fraction(1, 2), 0]).components[0].point \
            == as_vector(QQ, [Fraction(1, 4), 0])

    def test_convolve_examples(self):
        full = M.convolve(euclid(box(E1)), euclid(box(E2)))
        assert full.components[0].carrier.subspace == FULL
        atoms = M.convolve(torus(atom([Fraction(1, 3), 0])),
                           torus(atom([Fraction(1, 3), 0])))
        assert atoms.components[0].point == as_vector(QQ, [Fraction(2, 3), 0])
        same = M.convolve(euclid(box(E1)), euclid(box(E1)))
        assert same.components[0].carrier.subspace == E1
        assert len(same.components[0].generators) == 2

    def test_convolve_group_box_unsupported(self):
        g = torus(AtomGroup((as_vector(QQ, [1, 0]),), "Q", zero_vector(QQ, 2)))
        with pytest.raises(UnsupportedConvolutionError):
            M.convolve(g, torus(box(E1)))

    def test_convolve_mixed_rings_unsupported(self):
        r2 = F2.sqrt_root(2)
        gq = torus(AtomGroup((as_vector(F2, [1, 0]),), "Q", zero_vector(F2, 2)),
                   field=F2)
        gz = torus(AtomGroup((as_vector(F2, [r2, 0]),), "Z", zero_vector(F2, 2)),
                   field=F2)
        with pytest.raises(UnsupportedConvolutionError):
            M.convolve(gq, gz)

    def test_convolve_commutative_associative_class(self):
        rng = random.Random(23)
        for _ in range(25):
            field = rng.choice([QQ, F2])
            space = rng.choice([EUCLID, TORUS])
            ms = [gen.rand_measure(rng, field, 2, space, max_components=2)
                  for _ in range(3)]
            assert M.convolve(ms[0], ms[1]).same_class(M.convolve(ms[1], ms[0]))
            left = M.convolve(M.convolve(ms[0], ms[1]), ms[2])
            right = M.convolve(ms[0], M.convolve(ms[1], ms[2]))
            assert left.same_class(right)


class TestExp:
    def test_two_lines(self):
        ex = M.exp(euclid(box(E1), box(E2)))
        assert len(ex.components) == 4
        carriers = {c.carrier.subspace for c in ex.components
                    if isinstance(c, BoxLebesgue)}
        assert carriers == {E1, E2, FULL}
        assert ex.has_delta_zero()

    def test_order_two_atom(self):
        ex = M.exp(torus(atom([Fraction(1, 2), 0])))
        assert len(ex.components) == 2

    def test_full_box(self):
        ex = M.exp(euclid(box(FULL)))
        assert len(ex.components) == 2

    def test_closure_bound(self):
        # an atom of large additive order overflows a tiny cap
        m = torus(atom([Fraction(1, 97), 0]))
        with pytest.raises(ClosureBoundError):
            M.exp(m, cap=16)

    def test_cap_is_checked_inside_a_round(self, monkeypatch):
        """Past the first round the cap is checked at each new member: on
        the 12 seeded hyperplanes in R^6 (a 1,586-carrier closure) ``realize``
        with cap 1000 stops within 4,500 convolutions, where a check after
        each whole round ran 9,516.  A closure that fits its cap exactly is
        the closure the default cap gives."""
        def hyperplanes(d, count):
            rng, out = random.Random(1), []
            while len(out) < count:
                normal = [rng.randint(-4, 4) for _ in range(d)]
                if any(normal):
                    h = Subspace.from_vectors(QQ, d, [normal]).orthocomplement()
                    if h not in out:
                        out.append(h)
            return out

        small = hyperplanes(5, 6)
        report = C.realize(small)
        size = len(report.measure.components) + 1  # delta_0 is in the closure
        assert len(report.carrier_closure) == 57
        assert C.realize(small, cap=size).encode() == report.encode()
        with pytest.raises(ClosureBoundError):
            C.realize(small, cap=size - 1)
        # round 1 runs whole: a group * box pair in it wins over any cap
        group = AtomGroup((as_vector(QQ, [Fraction(1, 5), 0]),), "Z", zero_vector(QQ, 2))
        with pytest.raises(UnsupportedConvolutionError):
            M.exp(torus(atom([Fraction(1, 3), 0]), atom([0, Fraction(1, 7)]), group, box(E1)),
                  cap=0)
        calls = []
        convolve = M._convolve_pair
        monkeypatch.setattr(M, "_convolve_pair", lambda a, b: calls.append(1) or convolve(a, b))
        with pytest.raises(ClosureBoundError, match="component cap 1000"):
            C.realize(hyperplanes(6, 12), cap=1000)
        assert len(calls) <= 4500

    def test_fixpoint_property(self):
        rng = random.Random(31)
        for _ in range(10):
            subs = [gen.rand_rational_subspace(rng, QQ, 2, 1) for _ in range(2)]
            sigma = euclid(*[box(s) for s in subs])
            ex = M.exp(sigma)
            # closed under pairwise convolution at class level
            ex2 = M.convolve(ex, ex)
            for comp in ex2.components:
                probe = SymbolicMeasure.make(EUCLID, 2, QQ, [comp])
                assert any(probe.same_class(SymbolicMeasure.make(EUCLID, 2, QQ, [c]))
                           for c in ex.components)
            # contains delta_0 and the input components
            assert ex.has_delta_zero()
            for comp in sigma.components:
                probe = SymbolicMeasure.make(EUCLID, 2, QQ, [comp])
                assert any(probe.same_class(SymbolicMeasure.make(EUCLID, 2, QQ, [c]))
                           for c in ex.components)


class TestQuotientSuspend:
    def test_quotient_examples(self):
        m = euclid(atom([Fraction(3, 2), 0]))
        q = M.pushforward_quotient(m)
        assert q.components[0].point == as_vector(QQ, [Fraction(1, 2), 0])
        mb = euclid(box(E1, [0, Fraction(5, 4)]))
        q = M.pushforward_quotient(mb)
        assert q.components[0].carrier.offset == as_vector(QQ, [0, Fraction(1, 4)])

    def test_periodized_flag_round_trip(self):
        t = torus(atom([Fraction(1, 2), 0]), box(E1))
        per = M.suspend(t)
        assert per.periodized and per.space == EUCLID
        assert M.pushforward_quotient(per).same_class(t)

    def test_quotient_after_suspend_is_identity(self):
        rng = random.Random(41)
        for _ in range(30):
            field = rng.choice([QQ, F2])
            t = gen.rand_measure(rng, field, 2, TORUS, with_groups=True)
            assert M.pushforward_quotient(M.suspend(t)).same_class(t)
            # a periodized class is stored as its torus class, so both maps
            # keep the canonical components exactly
            assert M.suspend(t).components == t.components
            assert M.pushforward_quotient(M.suspend(t)) == t

    def test_periodized_lattice_translates_merge(self):
        per = SymbolicMeasure.make(EUCLID, 1, QQ, [atom([Fraction(1, 3)]),
                                                   atom([Fraction(4, 3)])], periodized=True)
        single = SymbolicMeasure.make(EUCLID, 1, QQ, [atom([Fraction(1, 3)])],
                                      periodized=True)
        assert len(per.components) == 1 and per.components[0].weight == 2
        assert per.same_class(single)
        assert not per.same_class(SymbolicMeasure.make(EUCLID, 1, QQ,
                                                       [atom([Fraction(1, 3)])]))

    def test_integral_translate_fixes_periodized_class(self):
        rng = random.Random(43)
        for _ in range(30):
            field = rng.choice([QQ, F2])
            per = M.suspend(gen.rand_measure(rng, field, 2, TORUS, with_groups=True))
            n = [rng.randint(-3, 3) for _ in range(2)]
            assert M.translate(per, n) == per


class TestPushforwardSubgroup:
    def test_atom_restriction(self):
        m = torus(atom([Fraction(1, 3), Fraction(1, 4)]))
        out, ident = M.pushforward_subgroup(m, LatticeSubgroup.from_generators(2, [[1, 1]]))
        assert ident == ((1, 1),)
        assert out.dim == 1
        assert out.components[0].point == as_vector(QQ, [Fraction(7, 12)])

    def test_diagonal_box_restricts_to_lebesgue(self):
        diag = Subspace.from_vectors(QQ, 2, [[1, 1]])
        m = torus(box(diag))
        out, _ = M.pushforward_subgroup(m, LatticeSubgroup.from_generators(2, [[1, 1]]))
        comp = out.components[0]
        assert isinstance(comp, BoxLebesgue) and comp.carrier.subspace.is_full()

    def test_axis_box(self):
        m = torus(box(E1))
        out, _ = M.pushforward_subgroup(m, LatticeSubgroup.from_generators(2, [[1, 0]]))
        comp = out.components[0]
        assert isinstance(comp, BoxLebesgue) and comp.carrier.subspace.is_full()

    def test_collapsed_box_becomes_atom(self):
        m = torus(box(E2, [Fraction(1, 3), 0]))
        out, _ = M.pushforward_subgroup(m, LatticeSubgroup.from_generators(2, [[1, 0]]))
        comp = out.components[0]
        assert isinstance(comp, Atom)
        assert comp.point == as_vector(QQ, [Fraction(1, 3)])


class TestGroupImageOracle:
    """Brute-force cross-validation of the subgroup-image test: does some
    genuine atom of a group on T^2 map to 0 under a -> M a mod 1?

    A positive verdict must come with an enumerated source atom outside Z^2
    that M maps into Z^e; a negative verdict must leave none in the window
    (the enumeration can only refute, never certify)."""

    SUBGROUPS = ([[1, 0]], [[1, 1]], [[1, 2]], [[1, 0], [0, 1]],  # saturated
                 [[2, 0]], [[2, 2]], [[2, 0], [0, 3]])             # not saturated
    BUDGET = 1000  # coefficient combinations enumerated per group

    @classmethod
    def _enumerate_hit(cls, field, comp, rows):
        """offset + sum c_i g_i over a window of coefficients: integers (or
        fractions p/q) with |p|, q <= b, b <= 30 as large as the budget
        allows.  Integral ring-Z generators move neither the source atom nor
        its image off their classes mod Z, so they are left out."""
        gens = [g for g in comp.generators
                if comp.ring == "Q" or not all(x.is_integer() for x in g)]

        def window(b):
            return sorted({Fraction(p, q) for p in range(-b, b + 1)
                           for q in range(1, (b if comp.ring == "Q" else 1) + 1)})

        b = 1
        while b < 30 and len(window(b + 1)) ** len(gens) <= cls.BUDGET:
            b += 1

        def flat(v):
            return [c for x in v for c in x.coeffs]

        def integral(coeffs):
            n = field.dimension
            return all(c.denominator == 1 if i % n == 0 else c == 0
                       for i, c in enumerate(coeffs))

        def combine(base, combo, vecs):
            out = base
            for c, v in zip(combo, vecs):
                out = [x + c * y for x, y in zip(out, v)]
            return out

        sources = [flat(g) for g in gens]
        images = [flat(M.mat_vec(rows, g)) for g in gens]
        offset, offset_image = flat(comp.offset), flat(M.mat_vec(rows, comp.offset))
        for combo in itertools.product(window(b), repeat=len(gens)):
            if integral(combine(offset_image, combo, images)) \
                    and not integral(combine(offset, combo, sources)):
                return M.group_element_from_coeffs(
                    replace(comp, generators=tuple(gens)), combo, True)
        return None

    def test_against_enumeration(self):
        rng = random.Random(31)
        tested = {True: 0, False: 0}
        while sum(tested.values()) < 120:
            field = rng.choice([QQ, F2])
            m = gen.rand_measure(rng, field, 2, TORUS, max_components=1,
                                 with_groups=True)
            comp = m.components[0]
            if not isinstance(comp, AtomGroup):
                continue
            h = LatticeSubgroup.from_generators(2, rng.choice(self.SUBGROUPS))
            units = [unit_vector(field, h.rank, j) for j in range(h.rank)]
            verdict = M.group_atom_on_coset(TORUS, comp, h.basis,
                                            zero_vector(field, h.rank), units) is not None
            tested[verdict] += 1
            hit = self._enumerate_hit(field, comp, h.basis)
            if verdict:
                assert hit is not None
                assert all(x.is_integer() for x in M.mat_vec(h.basis, hit))
            else:
                assert hit is None
            # the pushed class has an atom at 0 exactly when the test says so
            pushed, _ = M.pushforward_subgroup(m, h)
            assert M.has_atom_at(pushed, zero_vector(field, h.rank)) == verdict
        assert tested[True] > 10 and tested[False] > 10


class TestDecompose:
    def test_example(self):
        m = torus(atom([Fraction(1, 3), 0]), box(E1), box(FULL))
        parts = M.decompose(m)
        assert [len(p.components) for p in parts] == [1, 1, 1]

    def test_merges_equal_carriers(self):
        c1 = BoxLebesgue(AffineCarrier.make(E1), E1.basis, weight=Fraction(1))
        gens = (as_vector(QQ, [2, 0]),)
        c2 = BoxLebesgue(AffineCarrier.make(E1), gens, weight=Fraction(1))
        parts = M.decompose(torus(c1, c2))
        assert len(parts[1].components) == 1
        assert parts[1].components[0].weight == 2

    def test_periodized_merges_lattice_translates(self):
        # two boxes on the diagonal whose offsets differ by a projected lattice
        # vector, and two atoms one lattice vector apart
        diag = Subspace.from_vectors(QQ, 2, [[1, 1]])
        boxes = [BoxLebesgue(AffineCarrier.make(diag, c), diag.basis, as_vector(QQ, c))
                 for c in ([Fraction(1, 2), 0], [0, Fraction(1, 2)])]
        per = SymbolicMeasure.make(EUCLID, 2, QQ, boxes + [atom([Fraction(1, 3), 0]),
                                                          atom([Fraction(4, 3), 0])],
                                   periodized=True)
        parts = M.decompose(per)
        assert [len(p.components) for p in parts] == [1, 1, 0]
        assert parts[1].components[0].weight == 2
        assert [p.components for p in parts] \
            == [p.components for p in M.decompose(M.pushforward_quotient(per))]

    def test_parts_sum_to_the_class_of_several_representatives(self):
        # two representatives of one box class merge into one part component
        reps = [BoxLebesgue(AffineCarrier.make(E2), E2.basis, as_vector(QQ, c))
                for c in ([0, 0], [0, Fraction(1, 3)])]
        m = torus(atom([Fraction(1, 2), 0]), *reps, box(E2, [Fraction(1, 2), 0]))
        parts = M.decompose(m)
        assert [len(p.components) for p in parts] == [1, 2, 0]
        assert M.add(M.add(parts[0], parts[1]), parts[2]).same_class(m)

    def test_properties_random(self):
        rng = random.Random(53)
        for _ in range(60):
            field = rng.choice([QQ, F2])
            space = rng.choice([EUCLID, TORUS])
            d = rng.randint(1, 3)
            m = gen.rand_measure(rng, field, d, space, max_components=4,
                                 with_groups=True, reduced=False)
            parts = M.decompose(m)
            assert len(parts) == d + 1
            for e, p in enumerate(parts):
                for comp in p.components:
                    assert comp.dim == e
                # carriers distinct within a dimension bucket
                for i, a in enumerate(p.components):
                    for b in p.components[i + 1:]:
                        assert M.class_key(m.space, a) != M.class_key(m.space, b)
            resum = parts[0]
            for p in parts[1:]:
                resum = M.add(resum, p)
            assert resum.same_class(m)
            # idempotent
            again = M.decompose(resum)
            for p, q in zip(parts, again):
                assert p.same_class(q)


class TestEncoding:
    def test_round_trip_random(self):
        rng = random.Random(61)
        for _ in range(40):
            field = rng.choice(gen.FIELDS)
            space = rng.choice([EUCLID, TORUS])
            d = rng.randint(1, 3)
            m = gen.rand_measure(rng, field, d, space, max_components=3,
                                 with_groups=True, reduced=False)
            doc = m.encode()
            back = SymbolicMeasure.decode(doc)
            assert back == m
            assert back.encode() == doc

    def test_weights_decode_like_scalars(self):
        # a fraction string or an int; a 5,000-digit weight is read and written
        # under Python's default int/str digit limit
        big = "7" * 5000
        doc = {"space": "torus", "dim": 1, "components": [
            {"kind": "atom", "point": ["1/3"], "weight": f"1/{big}"},
            {"kind": "atom", "point": ["1/5"], "weight": 3}]}
        m = SymbolicMeasure.decode(doc)
        assert [c.weight for c in m.components] == [Fraction(9, 7 * (10 ** 5000 - 1)), 3]
        assert [c["weight"] for c in m.encode()["components"]] == [f"1/{big}", "3"]
        assert SymbolicMeasure.decode(m.encode()) == m
        for weight in (True, 0.5, float("inf"), None, [1]):
            doc["components"][1]["weight"] = weight
            with pytest.raises(ValidationError):
                SymbolicMeasure.decode(doc)

    def test_a_decoded_weight_is_read_once(self, monkeypatch):
        # the component keeps the Fraction its weight was decoded to; a weight
        # given as another number is still read by Fraction and checked
        decoded, decode = [], M._decode_fraction

        def recording(value):
            decoded.append(decode(value))
            return decoded[-1]
        doc = {"space": "torus", "dim": 1, "components": [
            {"kind": "atom", "point": ["1/3"], "weight": "2/7"},
            {"kind": "atom_group", "ring": "Z", "generators": [["1/5"]], "weight": 3}]}
        monkeypatch.setattr(M, "_decode_fraction", recording)
        m = SymbolicMeasure.decode(doc)
        assert [c.weight for c in m.components] == decoded == [Fraction(2, 7), 3]
        assert all(c.weight is w for c, w in zip(m.components, decoded))
        assert M._check_weight(2) == 2 and M._check_weight("1/2") == Fraction(1, 2)
        for weight in (Fraction(0), Fraction(-1, 3), 0, "-1/2"):
            with pytest.raises(ValidationError, match="component weight must be positive"):
                M._check_weight(weight)

    def test_zero_flagged(self):
        m = SymbolicMeasure.make(TORUS, 2, QQ, [])
        assert m.encode()["zero"] is True


class TestHasAtomAt:
    def test_group_membership(self):
        alpha = as_vector(F2, [F2.sqrt_root(2) - 1, Fraction(1, 3)])
        rot = SymbolicMeasure.make(TORUS, 2, F2,
                                   [AtomGroup((alpha,), "Z", zero_vector(F2, 2))])
        assert M.has_atom_at(rot, alpha)
        two = tuple(x + y for x, y in zip(alpha, alpha))
        assert M.has_atom_at(rot, two)
        assert not M.has_atom_at(rot, [Fraction(1, 2), 0])
        assert not M.has_atom_at(rot, [0, 0])

    def test_periodized_points_compare_mod_one(self):
        thirds = torus(atom([Fraction(1, 3)]), atom([Fraction(2, 3)]), dim=1)
        per = M.suspend(thirds)
        for point in ([Fraction(4, 3)], [Fraction(-1, 3)], [Fraction(2, 3)]):
            assert M.has_atom_at(per, point) and M.has_atom_at(thirds, point)
        assert not M.has_atom_at(per, [Fraction(1, 2)])
        alpha = as_vector(F2, [F2.sqrt_root(2) - 1, Fraction(1, 3)])
        rot = M.suspend(SymbolicMeasure.make(TORUS, 2, F2,
                                             [AtomGroup((alpha,), "Z", zero_vector(F2, 2))]))
        assert M.has_atom_at(rot, [F2.sqrt_root(2), Fraction(4, 3)])
        assert not M.has_atom_at(rot, [1, 0])


# ---------------------------------------------------------------------------
# the pairwise class rule that class keys replaced, kept as the reference
# ---------------------------------------------------------------------------


def reference_module_member(field, group, v, space):
    """v in offset + module (+ Z^d on the torus), by one coset solve."""
    shifts = [unit_vector(field, len(v), j) for j in range(len(v))] \
        if space == TORUS else ()
    return solve_lattice_coset(group.ring, group.generators, shifts,
                               vec_sub(v, group.offset)) is not None


def reference_lattice_shift(sub, v):
    """v in sub + Z^d, by one coset solve: n with A (v - n) = 0 for the rows
    A of sub's orthocomplement (l_j = A e_j, t = A v)."""
    rows = sub.orthocomplement().basis
    return solve_lattice_coset("Z", (), [tuple(r[j] for r in rows) for j in range(len(v))],
                               mat_vec(rows, v)) is not None


def reference_box_key(sub, offset):
    """The torus box class key as it was before it read the wall key of the
    carrier's orthocomplement: the coset key of the offset modulo the Q-span
    of the carrier's basis times each field-basis element, plus Z^d."""
    field, n = sub.field, sub.field.dimension
    units = [field.from_coeffs([int(i == beta) for i in range(n)]) for beta in range(n)]
    lattice = M.module_lattice(field, sub.ambient,
                               [vec_scale(u, b) for b in sub.basis for u in units], "Q", TORUS)
    return lattice.key(*flatten(offset))


def reference_reduce_box_offset(sub, offset):
    """The torus box offset reduction as it was before ``Subspace.torus_offset``:
    zero on a lattice shift of the carrier, the offset itself when the
    projected lattice P_perp(Z^d) is dense, else the offset's coordinates over
    that lattice's HNF basis, solved from the Gram system, each floored and
    subtracted."""
    field, dim = sub.field, sub.ambient
    if vec_is_zero(offset) or not any(reference_box_key(sub, offset)):
        return zero_vector(field, dim)
    units = [unit_vector(field, dim, j) for j in range(dim)]
    proj = [vec_sub(e, gen.gram_projection(sub, e)) for e in units]
    if not all(x.is_rational() for p in proj for x in p):
        return offset
    lattice = CosetLattice.make([], [gen.ratio_row(x.as_rational() for x in p) for p in proj])
    basis = [as_vector(field, [Fraction(x, lattice.z_den) for x in row])
             for row in lattice.z_basis]
    for c, b in zip(gen.gram_coordinates(basis, [offset])[0], basis):
        k = c.floor()
        if k:
            offset = vec_sub(offset, vec_scale(field.from_rational(k), b))
    return offset


def reference_class_equivalent(space, dim, field, a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, Atom):
        return a.point == b.point
    if isinstance(a, BoxLebesgue):
        sub = a.carrier.subspace
        if sub != b.carrier.subspace:
            return False
        diff = vec_sub(a.carrier.offset, b.carrier.offset)
        if space == EUCLID:
            return sub.contains(diff)
        return reference_lattice_shift(sub, diff)
    if a.generators != b.generators or a.ring != b.ring:
        return False
    return reference_module_member(field, a, b.offset, space)


def reference_mergeable(space, dim, field, a, b):
    """Class-equivalent and, for boxes, the same centre and generator multiset."""
    if not reference_class_equivalent(space, dim, field, a, b):
        return False
    if isinstance(a, BoxLebesgue):
        def gen_key(g):
            return tuple((x.field.roots, x.coeffs) for x in g)
        return (a.rep_center() == b.rep_center()
                and sorted(map(gen_key, a.generators)) == sorted(map(gen_key, b.generators)))
    return True


def _merge_into(out, c, same):
    """Add c's weight to the first component of out that ``same`` matches,
    or append c."""
    for i, prev in enumerate(out):
        if same(prev, c):
            out[i] = replace(prev, weight=prev.weight + c.weight)
            return
    out.append(c)


def reference_make(space, dim, field, components, periodized=False):
    canon = []
    for comp in components:
        keyed = M._canonicalize_component(space, dim, field, comp)
        if keyed is not None:
            _merge_into(canon, keyed[0],
                        lambda a, b: reference_mergeable(space, dim, field, a, b))
    canon.sort(key=M._encode_sort_key)
    return SymbolicMeasure(space, dim, field, tuple(canon), periodized)


def reference_same_class(m1, m2):
    if (m1.space, m1.dim, m1.field, m1.periodized) \
            != (m2.space, m2.dim, m2.field, m2.periodized):
        return False
    # a class counts once, however many components represent it: each
    # component of either measure has an equivalent one in the other
    return all(any(reference_class_equivalent(m1.space, m1.dim, m1.field, c, o)
                   for o in theirs.components)
               for mine, theirs in ((m1, m2), (m2, m1)) for c in mine.components)


def reference_decompose(m):
    buckets = [[] for _ in range(m.dim + 1)]
    for c in m.components:
        _merge_into(buckets[c.dim], c,
                    lambda a, b: reference_class_equivalent(m.space, m.dim, m.field, a, b))
    return [reference_make(m.space, m.dim, m.field, b, m.periodized) for b in buckets]


def reference_convolve_pair(a, b):
    """The product rule case by case, as it was before atoms and boxes shared
    one carrier sum."""
    if isinstance(a, Atom) and isinstance(b, Atom):
        return Atom(vec_add(a.point, b.point), a.weight * b.weight)
    if isinstance(a, Atom) and isinstance(b, BoxLebesgue):
        carrier = AffineCarrier.make(b.carrier.subspace, vec_add(b.carrier.offset, a.point))
        return BoxLebesgue(carrier, b.generators, vec_add(b.rep_center(), a.point),
                           a.weight * b.weight)
    if isinstance(a, BoxLebesgue) and isinstance(b, Atom):
        return reference_convolve_pair(b, a)
    if isinstance(a, Atom) and isinstance(b, AtomGroup):
        return AtomGroup(b.generators, b.ring, vec_add(b.offset, a.point),
                         a.weight * b.weight)
    if isinstance(a, AtomGroup) and isinstance(b, Atom):
        return reference_convolve_pair(b, a)
    if isinstance(a, BoxLebesgue) and isinstance(b, BoxLebesgue):
        sub = a.carrier.subspace.sum_with(b.carrier.subspace)
        center = vec_add(a.rep_center(), b.rep_center())
        return BoxLebesgue(AffineCarrier.make(sub, center), a.generators + b.generators,
                           center, a.weight * b.weight)
    if isinstance(a, AtomGroup) and isinstance(b, AtomGroup):
        if a.ring != b.ring:
            raise UnsupportedConvolutionError("atom groups over different rings")
        return AtomGroup(a.generators + b.generators, a.ring,
                         vec_add(a.offset, b.offset), a.weight * b.weight)
    raise UnsupportedConvolutionError("atom group * box")


def reference_exp(m, cap):
    space, dim, field = m.space, m.dim, m.field

    def norm(comp):
        if isinstance(comp, BoxLebesgue):
            return BoxLebesgue(comp.carrier, comp.carrier.subspace.basis,
                               comp.carrier.offset, Fraction(1))
        return replace(comp, weight=Fraction(1))

    def seen(c, among):
        return any(reference_class_equivalent(space, dim, field, c, p) for p in among)

    pool = list(reference_make(space, dim, field,
                               [norm(c) for c in m.components]
                               + [Atom(zero_vector(field, dim))], m.periodized).components)
    frontier = list(pool)
    while frontier:
        new = []
        for a in pool:
            for b in frontier:
                keyed = M._canonicalize_component(
                    space, dim, field, norm(reference_convolve_pair(a, b)))
                if keyed is not None and not seen(norm(keyed[0]), pool) \
                        and not seen(norm(keyed[0]), new):
                    new.append(norm(keyed[0]))
        if len(pool) + len(new) > cap:
            raise ClosureBoundError("cap")
        pool.extend(new)
        frontier = new
    return reference_make(space, dim, field, pool, m.periodized)


def _small_shift(rng, field, dim):
    """A vector with one small nonzero entry, irrational when the field allows."""
    v = [field.zero()] * dim
    x = field.from_rational(Fraction(1, rng.randint(2, 5)))
    if field.roots and rng.random() < 0.4:
        x = x * field.sqrt_root(field.roots[0])
    v[rng.randrange(dim)] = x
    return tuple(v)


def _int_shift(rng, field, dim):
    return as_vector(field, [rng.randint(-2, 2) for _ in range(dim)])


def _combo(field, coeffs, vectors, dim):
    out = zero_vector(field, dim)
    for c, g in zip(coeffs, vectors):
        out = vec_add(out, vec_scale(c, g))
    return out


def _variants(rng, space, dim, field, c):
    """Raw components built from a canonical one: class-equivalent presentations
    (lattice shifts, module elements, carrier vectors, other generators) and
    perturbations that usually leave the class."""
    if isinstance(c, Atom):
        return [Atom(vec_add(c.point, _int_shift(rng, field, dim))),
                Atom(vec_add(c.point, _small_shift(rng, field, dim)))]
    if isinstance(c, BoxLebesgue):
        sub = c.carrier.subspace
        inside = _combo(field, [gen.rand_scalar(rng, field) for _ in sub.basis],
                        sub.basis, dim)
        centers = [vec_add(c.rep_center(), _int_shift(rng, field, dim)),
                   vec_add(c.rep_center(), inside),
                   vec_add(vec_add(c.rep_center(), inside), _int_shift(rng, field, dim)),
                   vec_add(c.rep_center(), _small_shift(rng, field, dim))]
        out = [BoxLebesgue(AffineCarrier.make(sub, x), c.generators, x) for x in centers]
        doubled = tuple(vec_scale(field.from_rational(2), g) for g in c.generators)
        out.append(BoxLebesgue(c.carrier, doubled, c.rep_center()))
        return out
    gens = c.generators
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3) if c.ring == "Q" else 1)
              for _ in gens]
    element = _combo(field, [field.from_rational(x) for x in coeffs], gens, dim)
    half = vec_scale(field.from_rational(Fraction(1, 2)), gens[0])
    offsets = [vec_add(c.offset, element),
               vec_add(vec_add(c.offset, element), _int_shift(rng, field, dim)),
               vec_add(c.offset, _small_shift(rng, field, dim)),
               vec_add(c.offset, half)]
    out = [AtomGroup(gens, c.ring, x) for x in offsets]
    # another presentation of the same module
    out.append(AtomGroup(tuple(reversed(gens)) + (vec_add(gens[0], gens[-1]),),
                         c.ring, c.offset))
    return out


def _irrational_line(rng, field, dim):
    r2 = field.sqrt_root(2)
    v = [field.one()] + [field.from_rational(rng.randint(-2, 2)) + rng.choice([1, -1]) * r2
                         for _ in range(dim - 1)]
    return Subspace.from_vectors(field, dim, [v])


# (space, field, dimensions, raw base components) per family of cases
def _general(rng, space, field, dim):
    return list(gen.rand_measure(rng, field, dim, space, max_components=3,
                                 with_groups=True, reduced=False).components)


def _irrational_torus_boxes(rng, space, field, dim):
    out = []
    for _ in range(2):
        sub = _irrational_line(rng, field, dim)
        center = gen.rand_vector(rng, field, dim)
        out.append(BoxLebesgue(AffineCarrier.make(sub, center), sub.basis, center))
    return out


def _groups(ring):
    def draw(rng, space, field, dim):
        return [replace(gen.rand_atom_group(rng, field, dim), ring=ring,
                        offset=gen.rand_vector(rng, field, dim)) for _ in range(2)]
    return draw


F23 = FieldSpec((2, 3))
CASES = {
    "general": ((EUCLID, TORUS), (QQ, F2), (1, 2, 3), _general),
    "irrational_torus_box": ((TORUS,), (F2, F23), (2, 3), _irrational_torus_boxes),
    "ring_q_torus": ((TORUS,), (QQ, F2), (1, 2, 3), _groups("Q")),
    "ring_z_sqrt2_euclid": ((EUCLID,), (F2,), (1, 2, 3), _groups("Z")),
}


def _canonical(space, dim, field, raw):
    keyed = M._canonicalize_component(space, dim, field, raw)
    return None if keyed is None else keyed[0]


class TestClassKeyDifferential:
    """class_key equality against the pairwise rule it replaced."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_keys_match_pairwise_rule(self, case):
        spaces, fields, dims, draw = CASES[case]
        rng = random.Random(sum(map(ord, case)))
        counts = {True: 0, False: 0, "hard": 0}
        for _ in range(20):
            space, field, dim = rng.choice(spaces), rng.choice(fields), rng.choice(dims)
            comps = []
            for raw in draw(rng, space, field, dim):
                base = _canonical(space, dim, field, raw)
                if base is None:
                    continue
                comps.append(base)
                comps.extend(c for c in (_canonical(space, dim, field, v) for v in
                                         _variants(rng, space, dim, field, base))
                             if c is not None)
            keys = [M.class_key(space, c) for c in comps]
            for (a, ka), (b, kb) in itertools.combinations(zip(comps, keys), 2):
                same = reference_class_equivalent(space, dim, field, a, b)
                assert (ka == kb) == same, (a, b)
                counts[same] += 1
                # a negative with the same carrier or module: only the offset decides
                if not same and type(a) is type(b) and not isinstance(a, Atom) \
                        and ka[:-1] == kb[:-1]:
                    counts["hard"] += 1
        assert counts[True] > 40 and counts[False] > 40 and counts["hard"] > 10, counts

    def test_box_key_matches_the_carrier_module_key(self):
        # two offsets on one torus carrier K get equal box keys exactly when
        # their old keys, modulo K's Q-module plus Z^d, are equal; half of
        # the pairs are shifted by P_{K^perp}(n), which keeps the class
        rng = random.Random(31)
        counts = Counter()
        for _ in range(240):
            field, dim = rng.choice(gen.FIELDS), rng.randint(2, 4)
            sub = gen.rand_subspace(rng, field, dim, target_dim=rng.randint(1, dim - 1))
            perp = sub.orthocomplement()
            offsets = [sub.project_perp(gen.rand_vector(rng, field, dim)) for _ in range(3)]
            offsets.append(vec_add(offsets[0], perp.project(_int_shift(rng, field, dim))))
            offsets.append(vec_add(offsets[1], perp.project(_int_shift(rng, field, dim))))
            old = [reference_box_key(sub, o) for o in offsets]
            new = [M._box_key(TORUS, sub, o) for o in offsets]
            for i, j in ((0, 3), (1, 4), (0, 1), (2, 3), (3, 4)):
                same = old[i] == old[j]
                assert (new[i] == new[j]) == same, (sub, offsets[i], offsets[j])
                counts[same] += 1
        assert counts[True] > 400 and counts[False] > 400, counts

    def test_torus_offset_matches_the_gram_reduction(self):
        # ``Subspace.torus_offset`` reads the offset's coordinates over the HNF
        # rows by forward substitution and floors them once all are read; the
        # reduction it replaced solved the Gram system.  The coordinates are
        # unique, so the two must agree on rational and dense carriers, on
        # zero offsets, and on offsets shifted by P_{K^perp}(n), which keep
        # their fundamental-domain representative on a rational carrier
        rng = random.Random(37)
        counts = Counter()
        for _ in range(60):
            field, dim = rng.choice(gen.FIELDS), rng.randint(2, 4)
            k = rng.randint(1, dim - 1)
            sub = gen.rand_rational_subspace(rng, field, dim, k) if rng.random() < 0.5 \
                else gen.rand_subspace(rng, field, dim, target_dim=k, irrational_p=0.6)
            perp = sub.orthocomplement()
            rational = all(x.is_rational() for j in range(dim)
                           for x in perp.project(unit_vector(field, dim, j)))
            offsets = [zero_vector(field, dim), perp.project(_int_shift(rng, field, dim))]
            for _ in range(2):
                o = sub.project_perp(gen.rand_vector(rng, field, dim, irrational_p=0.2))
                offsets += [o, vec_add(o, perp.project(_int_shift(rng, field, dim)))]
            got = [sub.torus_offset(o) for o in offsets]
            assert got == [reference_reduce_box_offset(sub, o) for o in offsets], sub
            assert vec_is_zero(got[0]) and vec_is_zero(got[1])
            if rational:
                assert got[2] == got[3] and got[4] == got[5]
            for o, g in zip(offsets[2:], got[2:]):
                counts["zero" if vec_is_zero(g) else "kept" if g == o
                       else "reduced" if rational else "dense-moved"] += 1
            counts["rational" if rational else "dense"] += 1
        assert counts["dense-moved"] == 0, counts
        assert counts["reduced"] > 60 and counts["kept"] > 40 and counts["zero"] > 5, counts
        assert counts["rational"] > 20 and counts["dense"] > 10, counts

    def test_canonical_offsets_match_pairwise_rule(self):
        # canonicalization zeroes a group offset exactly when it lies in the
        # module, and a torus box offset exactly when it is a lattice shift
        rng = random.Random(7)
        zeroed = 0
        for _ in range(40):
            space, field, dim = rng.choice((EUCLID, TORUS)), rng.choice((QQ, F2)), \
                rng.randint(1, 3)
            for raw in _general(rng, space, field, dim):
                base = _canonical(space, dim, field, raw)
                if base is None or isinstance(base, Atom):
                    continue
                for v in _variants(rng, space, dim, field, base):
                    c = _canonical(space, dim, field, v)
                    if isinstance(c, AtomGroup):
                        probe = AtomGroup(c.generators, c.ring, zero_vector(field, dim))
                        expect = reference_module_member(field, probe, v.offset, space)
                        assert vec_is_zero(c.offset) == expect
                    elif isinstance(c, BoxLebesgue) and space == TORUS:
                        sub = c.carrier.subspace
                        perp = sub.project_perp(M.vec_mod1(v.rep_center()))
                        expect = reference_lattice_shift(sub, perp)
                        assert c.carrier.is_linear() == expect
                    else:
                        continue
                    zeroed += expect
        assert zeroed > 10

    def test_module_member_matches_coset_solve(self):
        rng = random.Random(11)
        hits = {True: 0, False: 0}
        for _ in range(60):
            space, field, dim = rng.choice((EUCLID, TORUS)), rng.choice((QQ, F2)), \
                rng.randint(1, 3)
            base = _canonical(space, dim, field, _groups(rng.choice("ZQ"))(
                rng, space, field, dim)[0])
            if not isinstance(base, AtomGroup):
                continue
            for v in _variants(rng, space, dim, field, base)[:4]:
                got = M.module_member(base, v.offset, space)
                assert got == reference_module_member(field, base, v.offset, space)
                hits[got] += 1
        assert hits[True] > 20 and hits[False] > 20, hits

    @staticmethod
    def _random_measures(rng, count):
        for _ in range(count):
            space, field, dim = rng.choice((EUCLID, TORUS)), rng.choice((QQ, F2)), \
                rng.randint(1, 3)
            raws = _general(rng, space, field, dim)
            canon = [c for c in (_canonical(space, dim, field, r) for r in raws) if c]
            variants = [v for c in canon for v in _variants(rng, space, dim, field, c)]
            yield space, field, dim, raws + rng.sample(variants, min(4, len(variants)))

    def test_measure_algebra_matches_pairwise_rule(self):
        rng = random.Random(19)
        merged = same = 0
        for space, field, dim, raws in self._random_measures(rng, 40):
            m = SymbolicMeasure.make(space, dim, field, raws)
            assert m == reference_make(space, dim, field, raws)
            merged += len(m.components) < len(raws)
            parts = M.decompose(m)
            assert parts == reference_decompose(m)
            # a measure against a shuffled re-presentation and against a part
            shuffled = SymbolicMeasure.make(space, dim, field, rng.sample(raws, len(raws)))
            for other in (shuffled, M.add(m, parts[0]), parts[-1]):
                assert m.same_class(other) == reference_same_class(m, other)
                same += m.same_class(other)
        assert merged > 10 and same > 10

    def test_exp_matches_pairwise_rule(self):
        rng = random.Random(23)
        sizes = []
        kinds = Counter()
        for space, field, dim, raws in self._random_measures(rng, 25):
            m = SymbolicMeasure.make(space, dim, field, raws[:2])
            try:
                expected = reference_exp(m, cap=24)
            except (ClosureBoundError, UnsupportedConvolutionError) as exc:
                with pytest.raises(type(exc)):
                    M.exp(m, cap=24)
                continue
            got = M.exp(m, cap=24)
            assert got == expected
            sizes.append(len(got.components))
            kinds.update({(space, type(c).__name__) for c in m.components})
        assert len(sizes) > 8 and max(sizes) > 3, sizes
        # the closures that complete include torus boxes and atom groups
        assert kinds[(TORUS, "BoxLebesgue")] > 2 \
            and kinds[(TORUS, "AtomGroup")] + kinds[(EUCLID, "AtomGroup")] > 2, kinds

    def test_convolve_pair_matches_case_rule(self):
        """The carrier sum against the case-by-case rule on seeded pairs of
        canonical components: the same class after ``make``, and, when both
        factors have center == offset (as ``exp`` normalizes them), the same
        raw carrier offset."""
        rng = random.Random(37)
        seen = Counter()
        for _ in range(24):
            space, field, dim = rng.choice((EUCLID, TORUS)), rng.choice((QQ, F2)), \
                rng.randint(1, 3)
            draws = [_general, _groups(rng.choice("ZQ")),
                     lambda rng, space, field, dim: [gen.rand_atom(rng, field, dim)]]
            if field != QQ and dim > 1:
                draws.append(_irrational_torus_boxes)
            pool = [c for draw in draws for c in (_canonical(space, dim, field, r)
                                                 for r in draw(rng, space, field, dim)) if c]
            for a, b in itertools.product(pool, repeat=2):
                seen[(space, type(a).__name__, type(b).__name__)] += 1
                seen["irrational torus box"] += space == TORUS and isinstance(a, BoxLebesgue) \
                    and not all(x.is_rational() for row in a.carrier.subspace.basis for x in row)
                try:
                    expected = reference_convolve_pair(a, b)
                except UnsupportedConvolutionError:
                    with pytest.raises(UnsupportedConvolutionError):
                        M._convolve_pair(a, b)
                    continue
                got = M._convolve_pair(a, b)
                assert SymbolicMeasure.make(space, dim, field, [got]) \
                    == SymbolicMeasure.make(space, dim, field, [expected]), (a, b)
                if isinstance(got, AtomGroup):
                    continue
                a0, b0 = (BoxLebesgue(c.carrier, c.carrier.subspace.basis, c.carrier.offset,
                                      c.weight) if isinstance(c, BoxLebesgue) else c
                          for c in (a, b))
                got, expected = M._convolve_pair(a0, b0), reference_convolve_pair(a0, b0)
                want = expected.point if isinstance(expected, Atom) else expected.carrier.offset
                assert got.carrier.offset == want, (a0, b0)
        for kinds in [("Atom", "Atom"), ("Atom", "BoxLebesgue"), ("BoxLebesgue", "Atom"),
                      ("BoxLebesgue", "BoxLebesgue"), ("AtomGroup", "Atom"),
                      ("AtomGroup", "AtomGroup"), ("AtomGroup", "BoxLebesgue")]:
            assert seen[(EUCLID, *kinds)] > 5 and seen[(TORUS, *kinds)] > 5, (kinds, seen)
        assert seen["irrational torus box"] > 20, seen

    def test_exp_matches_pairwise_rule_on_hyperplane_family(self):
        """The Lebesgue classes on the normal lines of 5 seeded hyperplanes in
        R^4, as ``realize`` builds them: a closure beyond the cap-24 cases."""
        rng = random.Random(1)
        lines = []
        while len(lines) < 5:
            sub = Subspace.from_vectors(QQ, 4, [[rng.randint(-3, 3) for _ in range(4)]])
            if sub.dim == 1 and sub not in lines:
                lines.append(sub)
        m = SymbolicMeasure.make(EUCLID, 4, QQ, [box(s) for s in lines])
        got = M.exp(m)
        assert got == reference_exp(m, cap=4096)
        assert len(got.components) == 24
