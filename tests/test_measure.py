import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import gen
from dirspec import measure as M
from dirspec.errors import (ClosureBoundError, UnsupportedConvolutionError,
                            ValidationError)
from dirspec.linalg import (AffineCarrier, LatticeSubgroup, Subspace, as_vector,
                            vec_add, zero_vector)
from dirspec.measure import (EUCLID, TORUS, Atom, AtomGroup, BoxLebesgue,
                             SymbolicMeasure)
from dirspec.scalar import QQ, FieldSpec

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
        # no canonical offset exists for the dense projected lattice, but the
        # carriers are recognized as equal at class level
        assert m1.same_class(m2)
        both = M.add(m1, m2)
        merged = M.decompose(both)[1]
        assert len(merged.components) == 1

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
                    field, replace(comp, generators=tuple(gens)), combo, True)
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
            verdict = M._group_image_charges_zero(field, comp, h.basis)
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
                        assert not M._class_equivalent(m.space, m.dim, m.field, a, b)
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
