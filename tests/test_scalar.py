import copy
import json
import math
import os
import pathlib
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import gen
from dirspec import measure as M
from dirspec import scalar as S
from dirspec.errors import ClosureBoundError, FieldMismatchError, ValidationError
from dirspec.linalg import AffineCarrier, Subspace, as_vector, vec_mod1
from dirspec.measure import SymbolicMeasure
from dirspec.oracle import decode_model
from dirspec.scalar import QQ, FieldScalar, FieldSpec, decode_scalar, promote_scalar, vec_dot

F2 = FieldSpec((2,))
F23 = FieldSpec((2, 3))
F235 = FieldSpec((2, 3, 5))


def scal(field, *coeffs):
    return field.from_coeffs(list(coeffs) + [0] * (field.dimension - len(coeffs)))


class TestFieldSpec:
    def test_dimension_and_labels(self):
        assert QQ.dimension == 1
        assert F23.dimension == 4
        assert [F23.basis_label(j) for j in range(4)] == ["1", "sqrt2", "sqrt3", "sqrt6"]

    def test_rejects_bad_roots(self):
        with pytest.raises(ValidationError):
            FieldSpec((4,))          # not square-free
        with pytest.raises(ValidationError):
            FieldSpec((2, 6))        # not coprime
        with pytest.raises(ValidationError):
            FieldSpec((3, 2))        # not sorted
        with pytest.raises(ValidationError):
            FieldSpec((1,))


class TestFloatBasis:
    """The float basis that ``FieldSpec`` keeps equals, bit for bit, the
    products 1.0 * sqrt(m_i) * ... taken in root order, as it was computed
    before it moved onto the interned object."""

    @staticmethod
    def reference(roots):
        out = []
        for j in range(1 << len(roots)):
            v = 1.0
            for i, m in enumerate(roots):
                if j >> i & 1:
                    v *= math.sqrt(m)
            out.append(v)
        return out

    def test_matches_the_sequential_products(self):
        primes = (2, 3, 5, 7, 11, 13, 17)
        cases = [primes[:k] for k in range(len(primes) + 1)] \
            + [(3, 7, 10), (5, 6, 7, 11), (2, 15, 17, 19, 23)]
        for roots in cases:
            field = FieldSpec(roots)
            assert [x.hex() for x in field._floats] == \
                [x.hex() for x in self.reference(roots)], roots
            assert float(field.one()) == 1.0
            for m in roots:
                assert float(field.sqrt_root(m)) == math.sqrt(m)


class TestFieldSpecInterning:
    """One FieldSpec object per roots tuple, however it is built."""

    def test_constructor_returns_one_object(self):
        assert FieldSpec((2,)) is FieldSpec([2]) is F2
        assert FieldSpec() is FieldSpec(()) is FieldSpec([]) is QQ
        assert FieldSpec(iter([2, 3])) is F23
        assert type(FieldSpec([2]).roots) is tuple and F2.roots == (2,)
        assert (F2.dimension, F2.basis_label(1)) == (2, "sqrt2")

    def test_copy_deepcopy_and_pickle_return_the_interned_object(self):
        for spec in (QQ, F2, F235):
            assert copy.copy(spec) is spec
            assert copy.deepcopy(spec) is spec
            assert pickle.loads(pickle.dumps(spec)) is spec
        x = F23.from_coeffs([1, Fraction(1, 2), 0, -3])
        for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y.field is F23 and y == x
        # QQ is left as it was: no rebuild wrote another field's state into it
        assert (QQ.roots, QQ.dimension, QQ._tail, repr(QQ)) == ((), 1, (), "FieldSpec(roots=())")

    def test_decoders_return_the_interned_object(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "lonely_atom.json").read_text())
        assert SymbolicMeasure.decode(doc).field is QQ
        doc.update(field_roots=[2], components=[
            {"kind": "atom", "point": [{"sqrt2": "1/3"}, "0"], "weight": "1"}])
        assert SymbolicMeasure.decode(doc).field is F2
        model = decode_model(json.loads((fixtures_dir / "rotation_model.json").read_text()))
        assert all(a.field is F2 for a in model.alphas)

    @pytest.mark.parametrize("roots", [(4,), (2, 6), (3, 2), (1,), (2, 2), (0,), (-2,)])
    def test_invalid_roots_raise_and_cache_nothing(self, roots):
        before = dict(FieldSpec._interned)
        with pytest.raises(ValidationError):
            FieldSpec(roots)
        assert FieldSpec._interned == before

    def test_an_interned_field_is_returned_before_its_roots_are_checked(self, monkeypatch):
        # only checked roots are interned, so a repeated call returns the
        # field without the trial division of its roots (about 28 ms for this
        # root) or the coprimality checks
        field = FieldSpec((9999999967,))

        def refuse(m):
            raise AssertionError(f"root {m} checked again")
        monkeypatch.setattr(S, "_is_square_free", refuse)
        assert FieldSpec((9999999967,)) is field
        assert FieldSpec([2, 3]) is F23 and FieldSpec((2, 3, 5)) is F235

    @pytest.mark.parametrize("roots", [
        (3, 2), (5, 2, 3), (2, 2), (3, 3), (4,), (2, 12), (6, 10), (2, 3, 6),
        (2.0,), (2, 3.0), (True,), (2, "3"), (2, None)])
    def test_bad_roots_raise_beside_interned_fields(self, roots):
        # unsorted, repeated, non-square-free, non-coprime and non-integer
        # roots are refused although fields on their (equal-hashing) roots
        # are interned: the lookup follows the integer check
        assert FieldSpec((2,)) is F2 and FieldSpec((2, 3)) is F23 and FieldSpec((3,))
        before = dict(FieldSpec._interned)
        with pytest.raises(ValidationError):
            FieldSpec(roots)
        assert FieldSpec._interned == before

    def test_a_product_table_past_the_budget_is_refused(self):
        # nine roots make a 512 x 512 table and a kernel of as many terms:
        # refused before the table, the kernel or a subfield is built
        before = dict(FieldSpec._interned)
        start = time.perf_counter()
        with pytest.raises(ClosureBoundError, match="product table"):
            FieldSpec((2, 3, 5, 7, 11, 13, 17, 19, 23))
        assert time.perf_counter() - start < 1.0
        assert FieldSpec._interned == before

    def test_a_non_integer_root_is_not_read_as_the_integer(self):
        # (2.0,) equals (2,) as a dictionary key; it is refused by name
        before = dict(FieldSpec._interned)
        with pytest.raises(ValidationError, match="root 2.0 is not an integer"):
            FieldSpec((2.0,))
        assert FieldSpec._interned == before


class TestArithmetic:
    def test_add_cancellation(self):
        r2 = F2.sqrt_root(2)
        assert (1 + r2) + (2 - r2) == 3

    def test_add_identity(self):
        x = scal(F2, Fraction(2, 7), Fraction(-1, 3))
        assert x + 0 == x

    def test_rational_add(self):
        assert QQ.from_rational(Fraction(1, 2)) + Fraction(1, 3) == Fraction(5, 6)

    def test_defining_relation(self):
        assert F2.sqrt_root(2) * F2.sqrt_root(2) == 2

    def test_basis_product(self):
        prod = F23.sqrt_root(2) * F23.sqrt_root(3)
        assert prod == F23.from_coeffs([0, 0, 0, 1])
        assert prod.encode() == {"sqrt6": "1"}

    def test_conjugate_product(self):
        r2 = F2.sqrt_root(2)
        assert (1 + r2) * (1 - r2) == -1

    def test_invert_rational(self):
        assert QQ.from_rational(2).invert() == Fraction(1, 2)

    def test_invert_root(self):
        r2 = F2.sqrt_root(2)
        inv = r2.invert()
        assert inv * r2 == 1
        assert inv == r2 / 2

    def test_invert_one_plus_root(self):
        r2 = F2.sqrt_root(2)
        inv = (1 + r2).invert()
        assert inv == -1 + r2
        assert inv * (1 + r2) == 1

    def test_invert_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QQ.zero().invert()

    def test_is_zero(self):
        r2 = F2.sqrt_root(2)
        assert (r2 - r2).is_zero()
        assert not QQ.from_rational(Fraction(1, 10 ** 9)).is_zero()
        # sqrt6 - sqrt2*sqrt3 reduces to zero through the basis table
        assert (F23.from_coeffs([0, 0, 0, 1])
                - F23.sqrt_root(2) * F23.sqrt_root(3)).is_zero()

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            F2.one() + F23.one()

    def test_rational_scalars_hash_like_fractions(self):
        assert len({QQ.from_rational(1), 1}) == 1
        assert len({F23.from_rational(Fraction(-3, 4)), Fraction(-3, 4)}) == 1
        table = {Fraction(1, 2): "half", 1: "one"}
        assert table[QQ.from_rational(Fraction(1, 2))] == "half"
        assert table[F2.from_rational(1)] == "one"


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def f23_scalars(draw):
    return F23.from_coeffs([draw(coeff) for _ in range(4)])


@st.composite
def f235_scalars(draw):
    return F235.from_coeffs([draw(coeff) for _ in range(8)])


class TestFieldAxioms:
    @given(f23_scalars(), f23_scalars(), f23_scalars())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(st.one_of(f23_scalars(), f235_scalars()))
    def test_inverse(self, a):
        if not a.is_zero():
            assert a * a.invert() == 1

    @given(f23_scalars(), f23_scalars())
    def test_numeric_embedding(self, a, b):
        assert math.isclose(float(a * b), float(a) * float(b),
                            rel_tol=0, abs_tol=1e-12)
        assert math.isclose(float(a + b), float(a) + float(b),
                            rel_tol=0, abs_tol=1e-12)
        if not a.is_zero():
            assert math.isclose(float(a.invert()), 1.0 / float(a),
                                rel_tol=1e-12, abs_tol=1e-12)

    @given(f23_scalars())
    def test_zero_test_exact(self, a):
        assert a.is_zero() == all(c == 0 for c in a.coeffs)


def ref_mul(a, b, roots):
    """Product of Fraction coefficient vectors by the basis product rule:
    basis i times basis j is basis i ^ j times the roots shared by i and j."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c = x * y
            for bit, m in enumerate(roots):
                if (i & j) >> bit & 1:
                    c *= m
            out[i ^ j] += c
    return out


def reference_table(roots):
    """The basis product rule, built apart from ``FieldSpec``: basis i times
    basis j is basis i ^ j times the product of the roots i and j share."""
    dim = 1 << len(roots)
    return tuple(tuple((i ^ j, math.prod(m for bit, m in enumerate(roots) if (i & j) >> bit & 1))
                       for j in range(dim)) for i in range(dim))


def reference_mul_nums(a, b, table) -> list[int]:
    """The differential reference for the compiled product kernel: the loop
    over the product table that multiplied before it."""
    out = [0] * len(a)
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for x, row in zip(a, table):
        if x:
            for j, y in nonzero_b:
                k, f = row[j]
                out[k] += x * y * f
    return out


def rand_nums(rng, dim):
    """A numerator vector: all zero, one unit, or entries that are zero, small
    or 200 bits long."""
    kind = rng.random()
    if kind < 0.1:
        return (0,) * dim
    if kind < 0.2:
        return tuple(int(j == rng.randrange(dim)) for j in range(dim))
    return tuple(rng.choice([0, rng.randint(-9, 9), rng.randint(-2 ** 200, 2 ** 200)])
                 for _ in range(dim))


class TestProductKernel:
    """Every product runs the kernel compiled from the field's table; it must
    equal the table loop over the basis product rule."""

    @pytest.mark.parametrize("field", gen.FIELDS + [F235, FieldSpec((3, 7, 10))],
                             ids=lambda f: str(f.roots))
    def test_matches_the_table_loop(self, field):
        rng = random.Random(71)
        table = reference_table(field.roots)
        for _ in range(300):
            a, b = rand_nums(rng, field.dimension), rand_nums(rng, field.dimension)
            assert field._mul(a, b) == tuple(reference_mul_nums(a, b, table)), (a, b)
            assert field._mul(a, a) == tuple(reference_mul_nums(a, a, table))

    @pytest.mark.parametrize("field", [F2, F23, F235], ids=lambda f: str(f.roots))
    def test_half_length_operands_of_the_sign_test(self, field):
        # ``_sign`` squares the two halves of a vector in the interned field of
        # the roots but the last, down to Q
        rng = random.Random(73)
        spec = field
        while spec._sub is not None:
            sub = spec._sub
            assert sub is FieldSpec(spec.roots[:-1])
            table = reference_table(sub.roots)
            for _ in range(200):
                nums = rand_nums(rng, spec.dimension)
                for half in (nums[:sub.dimension], nums[sub.dimension:]):
                    assert sub._mul(half, half) == tuple(reference_mul_nums(half, half, table))
            spec = sub
        assert spec is QQ

    def test_only_the_kernel_builder_reads_the_table(self):
        # the compiled kernel is the one product path: in scalar.py only
        # ``__new__`` (which builds the table), ``_product_kernel`` (which
        # compiles it) and ``basis_radicand`` (the radicand of a square) touch
        # a product table, and no other module reads one
        import ast
        touching = set()
        for path in sorted(pathlib.Path(S.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if getattr(node, "attr", None) == "_table" or (
                            path.name == "scalar.py" and getattr(node, "id", None) == "table"):
                        touching.add(f"{path.name}:{func.name}")
            assert "_mul_nums" not in {getattr(n, "name", None) for n in ast.walk(tree)}
        assert touching == {"scalar.py:__new__", "scalar.py:_product_kernel",
                            "scalar.py:basis_radicand"}


def ref_encode(field, coeffs):
    if not any(coeffs[1:]):
        return str(coeffs[0])
    return {field.basis_label(j): str(c) for j, c in enumerate(coeffs) if c != 0}


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == x.field.dimension
    if x.is_zero():
        assert (x.nums, x.den) == ((0,) * x.field.dimension, 1)


FIELDS = [QQ, F2, F23, F235]
entry = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-20, max_value=20, max_denominator=12))
rational = st.one_of(st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=7))


@st.composite
def coeff_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    vec = st.lists(entry, min_size=field.dimension, max_size=field.dimension)
    return field, draw(vec), draw(vec)


class TestAgainstFractionReference:
    """The integer-numerator scalars against Fraction coefficient vectors."""

    @given(coeff_pairs())
    def test_arithmetic(self, case):
        field, ca, cb = case
        a, b = field.from_coeffs(ca), field.from_coeffs(cb)
        assert a.coeffs == tuple(ca) and b.coeffs == tuple(cb)
        results = [(a + b, [x + y for x, y in zip(ca, cb)]),
                   (a - b, [x - y for x, y in zip(ca, cb)]),
                   (-a, [-x for x in ca]),
                   (a * b, ref_mul(ca, cb, field.roots))]
        for got, want in results:
            assert got.coeffs == tuple(want)
            assert got == field.from_coeffs(want)
            assert_canonical(got)
        assert (a == b) == (ca == cb)
        assert (a == field.from_coeffs(ca)) and a.is_zero() == (not any(ca))
        if any(cb):
            inv = b.invert()
            assert_canonical(inv)
            assert ref_mul(cb, inv.coeffs, field.roots) == [1] + [0] * (field.dimension - 1)
            quotient = a / b
            assert_canonical(quotient)
            assert ref_mul(quotient.coeffs, cb, field.roots) == ca
        else:
            with pytest.raises(ZeroDivisionError):
                b.invert()

    @given(coeff_pairs(), rational)
    def test_mixed_with_rationals(self, case, q):
        field, ca, _ = case
        a, qc = field.from_coeffs(ca), [Fraction(q)] + [Fraction(0)] * (field.dimension - 1)
        for got, want in [(a + q, [x + y for x, y in zip(ca, qc)]),
                          (q - a, [y - x for x, y in zip(ca, qc)]),
                          (q * a, ref_mul(ca, qc, field.roots)),
                          (field.from_rational(q), qc)]:
            assert got.coeffs == tuple(want)
            assert_canonical(got)
        assert (field.from_rational(q) == q) and (a == q) == (ca == qc)
        if q != 0:
            assert ref_mul((a / q).coeffs, qc, field.roots) == ca
        if any(ca):
            assert ref_mul((q / a).coeffs, ca, field.roots) == qc

    @given(coeff_pairs())
    def test_floor_encode_hash(self, case):
        field, ca, _ = case
        a = field.from_coeffs(ca)
        assert a.floor() == _decimal_floor(a)
        assert a.encode() == ref_encode(field, ca)
        assert decode_scalar(field, a.encode()) == a
        if any(ca[1:]):
            # an irrational element hashes its integers: numerators over the
            # least common denominator
            den = math.lcm(*(Fraction(c).denominator for c in ca))
            assert hash(a) == hash((field.roots, tuple(int(c * den) for c in ca), den))
        else:
            assert hash(a) == hash(ca[0]) and a == ca[0]


@st.composite
def dot_cases(draw):
    """A field of FIELDS[:3] and two vectors of one length, with zero entries."""
    field = draw(st.sampled_from(FIELDS[:3]))
    n = draw(st.integers(1, 4))
    vec = st.lists(st.lists(entry, min_size=field.dimension, max_size=field.dimension),
                   min_size=n, max_size=n)
    return (field, [field.from_coeffs(c) for c in draw(vec)],
            [field.from_coeffs(c) for c in draw(vec)])


def reference_vec_dot(u, v):
    """The differential reference for the one-pass ``vec_dot``: the loop it
    replaced, which collected the nonzero terms, then summed them over the
    lcm of all their denominators and reduced the sum."""
    field = u[0].field if type(u[0]) is FieldScalar else \
        v[0].field if type(v[0]) is FieldScalar else None
    spec = QQ if field is None else field
    mul, zero = spec._mul, (0,) + spec._tail
    terms, dens = [], []
    for a, b in zip(u, v, strict=True):
        an, ad = (a.nums, a.den) if type(a) is FieldScalar and a.field is field \
            else S._nums_den(a, field)
        bn, bd = (b.nums, b.den) if type(b) is FieldScalar and b.field is field \
            else S._nums_den(b, field)
        if an != zero and bn != zero:
            terms.append(mul(an, bn))
            dens.append(ad * bd)
    if len(terms) > 1:
        den = math.lcm(*dens)
        acc = list(map(sum, zip(*(t if d == den else [c * (den // d) for c in t]
                                  for t, d in zip(terms, dens)))))
    elif terms:
        acc, den = terms[0], dens[0]
    else:
        acc, den = zero, 1
    return Fraction(acc[0], den) if field is None else S._reduced(field, acc, den)


class TestFusedDot:
    """``vec_dot`` accumulates over one denominator and reduces once; it must
    equal the sum of the products taken one by one with ``*`` and ``+``."""

    @staticmethod
    def termwise(u, v):
        out = u[0] * v[0]
        for a, b in zip(u[1:], v[1:]):
            out = out + a * b
        return out

    @given(dot_cases())
    def test_matches_termwise_sum(self, case):
        field, u, v = case
        got = vec_dot(u, v)
        assert got == self.termwise(u, v) and got.field == field
        assert_canonical(got)
        assert vec_dot(v, u) == got

    @given(dot_cases(), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def test_integer_rows(self, case, ints):
        field, _, v = case
        row = ints[:len(v)]
        got = vec_dot(row, v)
        assert got == self.termwise([field.from_rational(n) for n in row], v)
        assert got == vec_dot(v, row) and got.field == field
        assert_canonical(got)

    @given(st.lists(rational, min_size=1, max_size=4), st.data())
    def test_rationals_give_a_fraction(self, u, data):
        v = data.draw(st.lists(rational, min_size=len(u), max_size=len(u)))
        got = vec_dot(u, v)
        assert type(got) is Fraction and got == sum(Fraction(a) * b for a, b in zip(u, v))

    def test_zero_terms_and_canonical_zero(self):
        half = F2.from_rational(Fraction(1, 2))
        got = vec_dot([F2.zero(), half, F2.sqrt_root(2)], [F2.sqrt_root(2), F2.zero(), F2.zero()])
        assert got.is_zero() and (got.nums, got.den) == ((0, 0), 1)
        # terms over different denominators cancel to lowest terms
        got = vec_dot([half, F2.from_rational(Fraction(1, 3))], [F2.one(), F2.from_rational(3)])
        assert (got.nums, got.den) == ((3, 0), 2)

    @pytest.mark.parametrize("field", FIELDS + [FieldSpec((5,))], ids=lambda f: str(f.roots))
    def test_one_pass_matches_the_two_pass_reference(self, field):
        # zero entries of every kind, ints and Fractions on either side, vectors
        # with no FieldScalar at all, and denominators that make the running
        # lcm grow, shrink back and cancel: same value, same type, same field
        rng = random.Random(field.dimension * 97 + sum(field.roots))

        def fraction():
            return Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4, 6, 9, 10, 35]))

        def scalar():
            return field.from_coeffs([fraction() if rng.random() < 0.6 else 0
                                      for _ in range(field.dimension)])

        def entry(rationals_only):
            kind = rng.choice(["zero", "int", "fraction"] + (
                [] if rationals_only else ["scalar", "scalar", "zero scalar"]))
            return {"zero": lambda: rng.choice([0, Fraction(0)]),
                    "int": lambda: rng.randint(-5, 5),
                    "fraction": fraction,
                    "scalar": scalar,
                    "zero scalar": field.zero}[kind]()

        kinds = Counter()
        for _ in range(600):
            n = rng.randint(1, 6)
            rationals_only = rng.random() < 0.25
            u, v = ([entry(rationals_only) for _ in range(n)] for _ in range(2))
            if rng.random() < 0.1:  # one side all zero
                u = [rng.choice([0, Fraction(0)] + [field.zero()] * (not rationals_only))
                     for _ in range(n)]
            if not rationals_only:  # the first entries name the field
                rng.choice([u, v])[0] = rng.choice([field.zero(), field.one(), scalar()])
            got, want = vec_dot(u, v), reference_vec_dot(u, v)
            assert type(got) is type(want) and got == want
            if type(want) is FieldScalar:
                assert got.field is want.field and (got.nums, got.den) == (want.nums, want.den)
                kinds["zero scalar" if want.is_zero() else "scalar"] += 1
            else:
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                kinds["zero Fraction" if want == 0 else "Fraction"] += 1
        assert min(kinds.values()) >= 20 and len(kinds) == 4

    def test_mixed_fields_raise(self):
        with pytest.raises(FieldMismatchError):
            vec_dot([F2.one(), F2.one()], [F2.one(), F23.one()])
        with pytest.raises(FieldMismatchError):
            vec_dot([QQ.one()], [F2.one()])
        # a term skipped for its zero factor still checks its other factor
        for u, v in [([F2.zero(), F2.one()], [F23.one(), F2.one()]),
                     ([F2.one(), F2.zero()], [F2.one(), F23.sqrt_root(3)]),
                     ([F2.one(), 0], [F2.one(), QQ.one()])]:
            for args in ((u, v), (v, u)):
                with pytest.raises(FieldMismatchError):
                    vec_dot(*args)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            vec_dot([QQ.one(), QQ.one()], [QQ.one()])
        with pytest.raises(ValueError):
            vec_dot([1, Fraction(1, 2)], [QQ.one(), QQ.one(), QQ.one()])
        with pytest.raises(ValueError):
            vec_dot([F2.one()], [F2.one(), 1])
        # zero entries on both sides, or past the nonzero terms, are counted too
        for u, v in [([F2.zero()], [F2.zero(), F2.zero()]), ([0, 0], [0]),
                     ([F23.one(), F23.zero()], [F23.one(), F23.zero(), F23.zero()])]:
            for args in ((u, v), (v, u)):
                with pytest.raises(ValueError):
                    vec_dot(*args)

    @staticmethod
    def coeff_dot(u, v, roots):
        """sum_i u_i * v_i over Fraction coefficient vectors, by the basis rule."""
        dim = 1 << len(roots)
        coeffs = lambda x: x.coeffs if isinstance(x, FieldScalar) \
            else (Fraction(x),) + (Fraction(0),) * (dim - 1)  # noqa: E731
        total = [Fraction(0)] * dim
        for a, b in zip(u, v):
            total = [t + p for t, p in zip(total, ref_mul(coeffs(a), coeffs(b), roots))]
        return tuple(total)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.roots))
    def test_edge_cases_match_the_fraction_sum(self, field):
        r = field.sqrt_root(field.roots[-1]) if field.roots else field.from_rational(7)
        q = field.from_rational
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = {
            "all zero": ([field.zero()] * 3, [field.zero()] * 3),
            "zero side": ([field.zero()] * 3, [r, q(2), field.one()]),
            "no nonzero term": ([field.zero(), r, field.zero()], [r, field.zero(), q(5)]),
            "one nonzero term": ([field.zero(), r * half, field.zero()], [r, q(2), r]),
            "one term in lowest terms": ([q(half), field.zero()], [q(Fraction(4, 3)), r]),
            "equal denominators": ([q(half), q(third)], [r * third, q(half)]),
            "coprime denominators": ([q(half), q(third)], [q(1), r * Fraction(1, 5)]),
            "cancelling": ([q(half), q(third)], [r, r * Fraction(-3, 2)]),
            "int and Fraction entries": ([1, half, 0, -3], [r, r * third, q(7), q(third)]),
            "Fraction first": ([half, 2], [r * third, q(Fraction(5, 2))]),
        }
        for name, (u, v) in cases.items():
            for a, b in ((u, v), (v, u)):
                got = vec_dot(a, b)
                assert got.field is field, name
                assert got.coeffs == self.coeff_dot(a, b, field.roots), name
                assert_canonical(got)
        zero = vec_dot(*cases["all zero"])
        assert (zero.nums, zero.den) == ((0,) * field.dimension, 1)

    def test_plain_rational_edge_cases_give_fractions(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        for u, v in [([0, 0], [half, 1]), ([half, 0], [4, 9]), ([half, third], [third, half]),
                     ([half, third], [1, Fraction(1, 5)]), ([1, half, 0], [third, 3, 5]),
                     ([3], [Fraction(-2, 3)])]:
            for a, b in ((u, v), (v, u)):
                got = vec_dot(a, b)
                assert type(got) is Fraction
                assert (got,) == self.coeff_dot(a, b, ())

    # the plain-Q branch keeps one integer numerator; the reference is the
    # Fraction sum of the entries' values

    @staticmethod
    def fraction_dot(u, v):
        value = lambda x: Fraction(x.nums[0], x.den) if hasattr(x, "nums") else Fraction(x)  # noqa: E731
        return sum((value(a) * value(b) for a, b in zip(u, v)), Fraction(0))

    @given(st.lists(rational, min_size=1, max_size=5), st.data())
    def test_plain_q_scalars_match_fractions(self, u, data):
        v = data.draw(st.lists(rational, min_size=len(u), max_size=len(u)))
        su, sv = [QQ.from_rational(x) for x in u], [QQ.from_rational(x) for x in v]
        got = vec_dot(su, sv)
        assert got.field is QQ and got == self.fraction_dot(u, v)
        assert_canonical(got)

    @given(st.lists(rational, min_size=1, max_size=5), st.data())
    def test_plain_q_with_rationals_on_either_side(self, u, data):
        v = data.draw(st.lists(rational, min_size=len(u), max_size=len(u)))
        # each position of the scalar side is a QQ scalar or a bare rational
        mask = data.draw(st.lists(st.booleans(), min_size=len(u), max_size=len(u)))
        mixed = [QQ.from_rational(x) if m else x for x, m in zip(v, mask)]
        want = self.fraction_dot(u, v)
        for args in ((u, mixed), (mixed, u)):
            if mask[0]:  # the first entries name the field
                got = vec_dot(*args)
                assert type(got) is not Fraction and got.field is QQ and got == want
                assert_canonical(got)
            elif any(mask):  # no field named, then a scalar
                with pytest.raises(FieldMismatchError):
                    vec_dot(*args)
            else:
                got = vec_dot(*args)
                assert type(got) is Fraction and got == want

    def test_plain_q_all_rational_gives_a_fraction(self):
        got = vec_dot([1, Fraction(1, 2), 3], [Fraction(2, 3), 4, 0])
        assert type(got) is Fraction and got == Fraction(8, 3)
        got = vec_dot([Fraction(1, 2), 1], [2, -1])
        assert type(got) is Fraction and got == 0
        # terms over different denominators cancel to lowest terms
        got = vec_dot([QQ.from_rational(Fraction(1, 6)), QQ.from_rational(Fraction(1, 3))],
                      [3, Fraction(3, 2)])
        assert (got.nums, got.den) == ((1,), 1)

    def test_plain_q_field_mismatch_raises(self):
        with pytest.raises(FieldMismatchError):
            vec_dot([QQ.one(), QQ.one()], [QQ.one(), F2.one()])
        with pytest.raises(FieldMismatchError):
            vec_dot([1, QQ.one()], [1, F2.sqrt_root(2)])
        with pytest.raises(FieldMismatchError):
            vec_dot([F2.one()], [QQ.one()])


class TestFloorAndFrac:
    def test_rational_floor_exact(self):
        assert QQ.from_rational(Fraction(7, 2)).floor() == 3
        assert QQ.from_rational(Fraction(-7, 2)).floor() == -4

    def test_irrational_floor(self):
        r2 = F2.sqrt_root(2)
        assert r2.floor() == 1
        assert (-r2).floor() == -2
        assert (3 * r2).frac() == 3 * r2 - 4

    def test_frac_range(self):
        rng = random.Random(1)
        for _ in range(50):
            x = F23.from_coeffs([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                 for _ in range(4)])
            f = float(x.frac())
            assert -1e-12 <= f < 1 + 1e-12


def _sqrt2_convergent(n):
    """The n-th convergent p/q of sqrt2 (p^2 - 2q^2 = +-1)."""
    p, q = 1, 1
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


def _near_integer_cases():
    """(x, floor x): two within 1e-38 of an integer, one beyond float range."""
    p, q = _sqrt2_convergent(100)
    assert p * p - 2 * q * q == -1
    r2 = F2.sqrt_root(2)
    return [(7 - (r2 - Fraction(p, q)), 6),   # sqrt2 - p/q is about +4e-77
            (p - q * r2, -1),                 # p - q*sqrt2 = -1/(p + q*sqrt2)
            (10 ** 400 + r2, 10 ** 400 + 1)]


def _decimal_floor(x):
    with localcontext() as ctx:
        ctx.prec = 120
        total = sum(Decimal(c.numerator) / Decimal(c.denominator)
                    * Decimal(x.field.basis_radicand(j)).sqrt()
                    for j, c in enumerate(x.coeffs) if c != 0)
        return int(Decimal(total).to_integral_value(rounding=ROUND_FLOOR))


class TestExactFloor:
    @pytest.mark.parametrize("index", range(3))
    def test_near_integer(self, index):
        x, expected = _near_integer_cases()[index]
        start = time.perf_counter()
        assert x.floor() == expected
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("index", range(3))
    def test_frac_of_near_integer(self, index):
        x, expected = _near_integer_cases()[index]
        assert x.frac() == x - expected
        assert x.frac().floor() == 0

    def test_against_decimal(self):
        rng = random.Random(41)
        for field in (F2, FieldSpec((3,)), F23, F235):
            for _ in range(150):
                x = field.from_coeffs([
                    Fraction(rng.randint(-10 ** 30, 10 ** 30),
                             rng.randint(1, 10 ** rng.randint(0, 30)))
                    if rng.random() < 0.8 else 0 for _ in range(field.dimension)])
                assert x.floor() == _decimal_floor(x), x

    def test_runs_without_mpmath(self):
        # no step of the exact core may need a numerical library: decode and
        # classify an irrational torus measure, whose atoms are reduced mod 1
        code = "\n".join([
            "import sys",
            "sys.modules['mpmath'] = None",
            "from dirspec.classify import classify_direction, nonwm_concise",
            "from dirspec.linalg import Subspace",
            "from dirspec.measure import SymbolicMeasure",
            "from dirspec.scalar import FieldSpec",
            "F2 = FieldSpec((2,))",
            "m = SymbolicMeasure.decode({'space': 'torus', 'dim': 2, 'field_roots': [2],",
            "    'components': [{'kind': 'atom', 'point': [{'sqrt2': '3'}, '-5/2']},",
            "                   {'kind': 'box', 'basis': [['0', '1']],",
            "                    'offset': [{'1': '1', 'sqrt2': '1'}, '0']}]})",
            "assert [c.encode() for c in m.components] == [",
            "    {'kind': 'atom', 'point': [{'1': '-4', 'sqrt2': '3'}, '1/2'], 'weight': '1'},",
            "    {'kind': 'box', 'basis': [['0', '1']],",
            "     'offset': [{'1': '-1', 'sqrt2': '1'}, '0'], 'weight': '1'}]",
            "v = classify_direction(m, Subspace.from_vectors(F2, 2, [[1, 0]]))",
            "assert v.ergodic and not v.weak_mixing",
            "assert nonwm_concise(m).subspaces",
        ])
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr


class TestEncoding:
    def test_round_trip_rational(self):
        x = QQ.from_rational(Fraction(-22, 7))
        assert decode_scalar(QQ, x.encode()) == x
        assert x.encode() == "-22/7"

    def test_round_trip_object(self):
        x = scal(F23, Fraction(1, 2), Fraction(0), Fraction(-3, 5), Fraction(2))
        enc = x.encode()
        assert enc == {"1": "1/2", "sqrt3": "-3/5", "sqrt6": "2"}
        assert decode_scalar(F23, enc) == x

    @given(f23_scalars())
    def test_round_trip_random(self, x):
        assert decode_scalar(F23, x.encode()) == x

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            decode_scalar(F2, {"sqrt3": "1"})

    @pytest.mark.parametrize("coeff", [True, 0.1], ids=["boolean", "float"])
    def test_labelled_coefficient_is_a_string_or_an_int(self, coeff):
        # as at the top level: JSON true is no scalar, and a float is inexact
        with pytest.raises(ValidationError):
            decode_scalar(QQ, {"1": coeff})
        with pytest.raises(ValidationError):
            decode_scalar(F2, {"1": "1", "sqrt2": coeff})
        assert decode_scalar(F2, {"1": 3, "sqrt2": "-1/2"}) == 3 - F2.sqrt_root(2) / 2

    def test_promotion(self):
        x = (1 + F2.sqrt_root(2)) / 3
        y = promote_scalar(x, F23)
        assert y.field == F23
        assert float(y) == pytest.approx(float(x), abs=1e-15)
        assert promote_scalar(QQ.from_rational(5), F2) == 5

    def test_coefficients_print_as_their_fraction(self):
        # ``encode`` prints each coefficient from its integers, one gcd and two
        # str calls: it must print what the Fraction text did, also on
        # numerators sharing factors with den, zero, negatives, big
        # denominators and past sys.int_max_str_digits (the decimal fallback)
        rng = random.Random(59)
        checked = 0
        for field in gen.FIELDS:
            for _ in range(150):
                x = S._reduced(field, [rng.choice([0, 1, -1]) * rng.randint(0, 10 ** rng.randint(0, 30))
                                       for _ in range(field.dimension)],
                               rng.choice([1, 2, 6, 12, 360, 3 ** 40 * 2 ** 7]))
                for n in x.nums:
                    assert S._fraction_text(n, x.den) == reference_fraction_text(Fraction(n, x.den))
                    checked += 1
                expect = reference_fraction_text(x.as_rational()) if x.is_rational() else {
                    field.basis_label(j): reference_fraction_text(c)
                    for j, c in enumerate(x.coeffs) if c}
                assert x.encode() == expect
        assert checked > 1000 and S._fraction_text(0, 7) == "0" \
            and S._fraction_text(-6, 4) == "-3/2" and S._fraction_text(5) == "5"
        big, den = -(7 ** 6000) * 3, 3 * 10 ** 4400 + 3
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expect, tiny = str(Fraction(big, den)), f"1/{den}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expect) > 2 * 4300
        assert S._fraction_text(big, den) == expect == reference_fraction_text(Fraction(big, den))
        assert S._reduced(F2, (big, 1), den).encode() == {"1": expect, "sqrt2": tiny}


def reference_fraction_text(q: Fraction) -> str:
    """The coefficient text as ``FieldScalar.encode`` printed it through a
    Fraction: str(q), past sys.int_max_str_digits decimal's."""
    try:
        return str(q)
    except ValueError:
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def reference_decode_scalar(field, value):
    """``decode_scalar`` as it read a document through Fractions: each label by a
    scan of the basis labels, each coefficient by ``_decode_fraction``, the
    scalar by ``from_coeffs`` or ``from_rational``."""
    try:
        if isinstance(value, dict):
            coeffs = [Fraction(0)] * field.dimension
            for label, frac in value.items():
                index = next((j for j in range(field.dimension)
                              if field.basis_label(j) == label), None)
                if index is None:
                    raise ValidationError(f"unknown basis label {label!r} for field {field.roots}")
                coeffs[index] = S._decode_fraction(frac)
            return field.from_coeffs(coeffs)
        return field.from_rational(S._decode_fraction(value))
    except ZeroDivisionError as exc:
        raise ValidationError(f"zero denominator in scalar {value!r}") from exc


def decode_outcome(decode, field, value):
    """(field, nums, den) of the decoded scalar, or the exception's type and text."""
    try:
        x = decode(field, value)
    except Exception as exc:  # the outcome is compared, not handled
        return type(exc), str(exc)
    assert type(x) is FieldScalar and type(x.nums) is tuple and type(x.den) is int
    return x.field, x.nums, x.den


LONG = "7" * 4999 + "2"  # 5,000 digits, past the default sys.int_max_str_digits
CANONICAL = ["0", "-0", "0/7", "4/6", "-4/6", "12", "-12/8", "007", "3/1", "00/5",
             LONG, "-" + LONG, "1/" + LONG, LONG + "/6", 0, -5, 10 ** 80]
NON_CANONICAL = ["+3", " 1/3 ", "1.5", "1e3", "-1.25e-2", "٣", "1_000",
                 "+" + LONG, " " + LONG]
REJECTED = [True, False, 1.5, None, "1/0", "-3/00", "abc", "3/+4", "", "1/", "/2", "1//2", "- 1",
            [1], LONG + "/0", {"1": "1/0"}, {"1": None}, {"1": 1.5}, {"1": True},
            {"sqrt7": "1"}, {1: "1"}, {None: "2"}, {"1": "1", "sqrt7": "abc"}]


def reference_canonicalize(canonicalize):
    """``measure._canonicalize_component`` as it canonicalized a box of positive
    dimension: its generators eliminated and its centre projected every time."""
    def reference(space, dim, field, comp):
        sub = comp.carrier.subspace if isinstance(comp, M.BoxLebesgue) else None
        if sub is None or sub.dim == 0 or sub.field != field or sub.ambient != dim:
            return canonicalize(space, dim, field, comp)
        center = as_vector(field, comp.rep_center(), dim, "box center")
        gens = tuple(as_vector(field, g) for g in comp.generators) or sub.basis
        if Subspace.from_vectors(field, dim, gens) != sub:
            raise ValidationError("box generators must span exactly the carrier subspace")
        if space == M.TORUS:
            center = vec_mod1(center)
        offset = sub.project_perp(center)
        if space == M.TORUS:
            offset = sub.torus_offset(offset)
        return (M.BoxLebesgue(AffineCarrier(sub, offset), gens, center,
                              M._check_weight(comp.weight)),
                ("box", sub, center, frozenset(Counter(gens).items())))
    return reference


def box_documents(rng):
    """Measure documents of one to three boxes over every field, on R^d and
    T^d: basis rows in RREF or mixed; generators absent, the RREF basis, another
    spanning set or a set of another span; offset and centre absent or drawn."""
    def enc(v):
        return [x.encode() for x in v]

    docs = []
    for field in gen.FIELDS:
        for space in (M.EUCLID, M.TORUS):
            for _ in range(15):
                dim, comps = rng.randint(2, 3), []
                for _ in range(rng.randint(1, 3)):
                    basis = gen.rand_subspace(rng, field, dim).basis
                    mixed = [tuple(x + 2 * y for x, y in zip(row, basis[(i + 1) % len(basis)]))
                             if len(basis) > 1 else tuple(-3 * x for x in row)
                             for i, row in enumerate(basis)]
                    doc = {"kind": "box", "basis": [enc(r) for r in rng.choice([basis, mixed])],
                           "weight": rng.choice(["1", "2/3", 3])}
                    gens = rng.choice([None, basis, mixed, mixed[:1] + [gen.rand_vector(
                        rng, field, dim)]])
                    if gens is not None:
                        doc["generators"] = [enc(g) for g in gens]
                    for key in ("offset", "center"):
                        if rng.random() < 0.5:
                            doc[key] = enc(gen.rand_vector(rng, field, dim, 0.3))
                    comps.append(doc)
                docs.append({"space": space, "dim": dim, "field_roots": list(field.roots),
                             "components": comps})
    return docs


def label_maps(field, rng):
    """Label maps over ``field``: empty, zero and unreduced entries, big entries
    and every label once."""
    labels = [field.basis_label(j) for j in range(field.dimension)]
    maps = [{}, {"1": "0"}, {"1": "2/4"}, {labels[-1]: "-10/15", "1": "4/6"},
            {label: f"{6 * (j + 1)}/{4 * (j + 2)}" for j, label in enumerate(labels)},
            {labels[-1]: LONG + "/12", "1": 3}, {labels[-1]: "+1/2"}]
    for _ in range(40):
        chosen = rng.sample(labels, rng.randint(1, len(labels)))
        maps.append({label: rng.choice([
            str(rng.randint(-50, 50)), f"{rng.randint(-50, 50)}/{rng.randint(1, 24)}",
            rng.randint(-9, 9), f"{rng.randint(-9, 9) * 6}/{rng.choice([2, 3, 6, 12])}"])
            for label in chosen})
    return maps


class TestDecode:
    """``decode_scalar`` reads canonical documents with ints alone and must
    decode, or reject, every value as the Fraction path did."""

    @pytest.mark.parametrize("lifted", [False, True], ids=["default-limit", "lifted-limit"])
    @pytest.mark.parametrize("field", gen.FIELDS, ids=lambda f: str(f.roots))
    def test_matches_the_fraction_reference(self, field, lifted):
        rng = random.Random(89 + field.dimension)
        labels = [field.basis_label(j) for j in range(field.dimension)]
        values = CANONICAL + NON_CANONICAL + REJECTED + label_maps(field, rng) + [
            {labels[-1]: v} for v in CANONICAL + NON_CANONICAL + REJECTED[:15]]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0 if lifted else 4300)
        try:
            for value in values:
                assert decode_outcome(decode_scalar, field, value) == \
                    decode_outcome(reference_decode_scalar, field, value), value
        finally:
            sys.set_int_max_str_digits(limit)

    def test_canonical_values_build_no_fraction(self, monkeypatch):
        # the Fraction path is left to the values that need it
        calls = []
        decode_fraction = S._decode_fraction
        monkeypatch.setattr(S, "_decode_fraction",
                            lambda value: calls.append(value) or decode_fraction(value))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for value in CANONICAL:
                decode_scalar(F23, value)
                decode_scalar(F23, {"sqrt6": value, "1": "-4/6"})
            assert calls == []
            for value in NON_CANONICAL:
                decode_scalar(F23, value)
            assert calls == NON_CANONICAL
        finally:
            sys.set_int_max_str_digits(limit)
        calls.clear()
        decode_scalar(QQ, LONG)  # past the default limit: decimal reads it
        assert calls == [LONG]

    def test_labels_are_kept_on_the_field(self):
        for field in gen.FIELDS + [F235]:
            assert field._labels == {field.basis_label(j): j for j in range(field.dimension)}
            assert [field.label_index(field.basis_label(j))
                    for j in range(field.dimension)] == list(range(field.dimension))
            assert FieldSpec(field.roots)._labels is field._labels
        with pytest.raises(ValidationError,
                           match=r"unknown basis label 'sqrt5' for field \(2, 3\)"):
            F23.label_index("sqrt5")

    def test_box_documents_decode_as_before(self, monkeypatch):
        # seeded documents decode to the encodings (or errors) of the Fraction
        # decoder and the box canonicalization that eliminated and projected twice
        docs = box_documents(random.Random(97))

        def outcomes():
            out = []
            for doc in docs:
                try:
                    out.append(SymbolicMeasure.decode(doc).encode())
                except ValidationError as exc:
                    out.append(str(exc))
            return out

        new = outcomes()
        monkeypatch.setattr(M, "decode_scalar", reference_decode_scalar)
        monkeypatch.setattr(M, "_canonicalize_component",
                            reference_canonicalize(M._canonicalize_component))
        assert outcomes() == new
        decoded = [o for o in new if isinstance(o, dict)]
        assert len(decoded) > 40 and len(new) - len(decoded) > 10
        assert {o["space"] for o in decoded} == {M.EUCLID, M.TORUS}
        assert any("generators" in c for o in decoded for c in o["components"])
        assert any("center" in c for o in decoded for c in o["components"])

    def test_a_box_is_eliminated_and_projected_once(self, monkeypatch):
        # a box without generators or centre: its basis is eliminated and its
        # offset projected by the decoder alone
        calls = Counter()
        from_vectors, project_perp = Subspace.from_vectors, Subspace.project_perp
        monkeypatch.setattr(Subspace, "from_vectors", staticmethod(
            lambda *args: calls.update(["from_vectors"]) or from_vectors(*args)))
        monkeypatch.setattr(Subspace, "project_perp",
                            lambda sub, v: calls.update(["project_perp"]) or project_perp(sub, v))
        doc = {"space": M.EUCLID, "dim": 3, "components": [
            {"kind": "box", "basis": [["1", "1", "0"], ["0", "1", "2"]],
             "offset": ["1/2", "0", "3"]}]}
        m = SymbolicMeasure.decode(doc)
        assert calls == {"from_vectors": 1, "project_perp": 1}
        assert m.components[0].center == m.components[0].carrier.offset
