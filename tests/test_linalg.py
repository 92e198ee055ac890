import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import gen
from gen import gram_projection
from dirspec import linalg as L
from dirspec.errors import DimensionMismatchError, ValidationError
from dirspec.linalg import (AffineCarrier, CosetLattice, CosetSolution, LatticeSubgroup,
                            Subspace, as_vector, mat_vec, nullspace,
                            rationality, rref_field, saturate,
                            smith_normal_form, solve_lattice_coset, unit_vector,
                            vec_add, vec_dot, vec_is_zero, vec_neg, vec_scale,
                            vec_sub, zero_vector)
from dirspec.scalar import QQ, FieldSpec

F2 = FieldSpec((2,))


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        out += (-1) ** j * mat[0][j] * _det(minor)
    return out


class TestSubspace:
    def test_orthocomplement_examples(self):
        sub = Subspace.from_vectors(QQ, 2, [[1, 2]])
        perp = sub.orthocomplement()
        assert perp.dim == 1
        assert vec_dot(sub.basis[0], perp.basis[0]).is_zero()
        assert Subspace.zero(QQ, 3).orthocomplement() == Subspace.full(QQ, 3)

    def test_orthocomplement_irrational_line(self):
        # the paper's 3-dimensional borderline direction t(0, 1, sqrt2)
        sub = Subspace.from_vectors(F2, 3, [[0, 1, F2.sqrt_root(2)]])
        perp = sub.orthocomplement()
        assert perp.dim == 2
        assert perp.contains(as_vector(F2, [1, 0, 0]))

    def test_sum_and_intersect(self):
        e1 = Subspace.from_vectors(QQ, 2, [[1, 0]])
        e2 = Subspace.from_vectors(QQ, 2, [[0, 1]])
        assert e1.sum_with(e2) == Subspace.full(QQ, 2)
        sub = Subspace.from_vectors(QQ, 3, [[1, 1, 0]])
        # sub cap sub^perp = 0
        assert not sub.meets_orthocomplement(sub)

    def test_meets_orthocomplement_matches_intersection(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(80):
            field = rng.choice([QQ, F2])
            d = rng.randint(1, 4)
            sub_l, sub_k = (Subspace.zero(field, d) if rng.random() < 0.1
                            else gen.rand_subspace(rng, field, d) for _ in range(2))
            # the intersection L cap K^perp as (L^perp + (K^perp)^perp)^perp
            meet = sub_l.orthocomplement().sum_with(
                sub_k.orthocomplement().orthocomplement()).orthocomplement()
            assert sub_l.meets_orthocomplement(sub_k) == (meet.dim > 0)
            seen.add(meet.dim > 0)
        assert seen == {True, False}

    def test_leq(self):
        small = Subspace.from_vectors(QQ, 3, [[1, 1, 0]])
        big = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        assert small.leq(big)
        assert not big.leq(small)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Subspace.from_vectors(QQ, 2, [[1, 0]]).sum_with(
                Subspace.from_vectors(QQ, 3, [[1, 0, 0]]))

    def test_involution_and_dims_random(self):
        rng = random.Random(7)
        for _ in range(100):
            field = rng.choice(gen.FIELDS)
            d = rng.randint(1, 4)
            sub = gen.rand_subspace(rng, field, d)
            perp = sub.orthocomplement()
            assert sub.dim + perp.dim == d
            assert perp.orthocomplement() == sub

    def test_projection(self):
        sub = Subspace.from_vectors(QQ, 2, [[1, 1]])
        v = as_vector(QQ, [1, 0])
        p = sub.project(v)
        assert p == as_vector(QQ, [Fraction(1, 2), Fraction(1, 2)])
        assert vec_is_zero(sub.project(sub.project_perp(v)))


def reference_orthocomplement(sub):
    """The kernel of the basis rows by elimination, a zero row standing in
    for the empty basis of the zero subspace."""
    zero = sub.field.zero()
    rows = [list(r) for r in sub.basis] or [[zero] * sub.ambient]
    rr, pivots = rref_field(rows)
    return Subspace.from_vectors(sub.field, sub.ambient,
                                 nullspace(rr, pivots, sub.ambient, zero, sub.field.one()))


def reference_leq(a, b):
    """a <= b: eliminating both bases together adds no dimension to b."""
    return Subspace.from_vectors(a.field, a.ambient, list(a.basis) + list(b.basis)).dim == b.dim


def reference_orthogonal_to(a, b):
    """a <= b^perp: every product of a basis row of a with one of b is zero,
    each dot product summed term by term."""
    zero = a.field.zero()
    return all(sum((x * y for x, y in zip(u, v)), zero).is_zero()
               for u in a.basis for v in b.basis)


def reference_meets_orthocomplement(sub_l, sub_k):
    """L cap K^perp != 0: the dot products of the bases have rank below dim L."""
    if sub_l.dim == 0:
        return False
    gram = [[vec_dot(u, v) for v in sub_k.basis] for u in sub_l.basis]
    return not sub_k.dim or len(rref_field(gram)[1]) < sub_l.dim


class TestTrivialSubspaceCases:
    """``orthocomplement``, ``leq``, ``orthogonal_to`` and
    ``meets_orthocomplement`` decide without elimination: the zero and full
    subspaces, a subspace against itself, ``leq`` against an other of no
    larger dimension (by the canonical bases), ``orthogonal_to`` when the two
    dimensions add up past the ambient one, and ``meets_orthocomplement``
    with a smaller other.  They must agree with the elimination-only and
    dot-product references."""

    @staticmethod
    def subspaces(rng, field, d):
        out = [Subspace.zero(field, d), Subspace.full(field, d)]
        out += [gen.rand_subspace(rng, field, d, target_dim=k) for k in range(1, d + 1)]
        return out + [gen.rand_subspace(rng, field, d) for _ in range(3)]

    def test_against_elimination_references(self):
        rng = random.Random(2026)
        for field in (QQ, F2):
            for d in range(1, 5):
                subs = self.subspaces(rng, field, d)
                for a in subs:
                    perp = a.orthocomplement()
                    assert perp == reference_orthocomplement(a) and perp.dim == d - a.dim
                    twin = Subspace.from_vectors(field, d, a.basis)  # equal, not a
                    for b in subs + [a, twin, perp]:  # b is a: the same object
                        assert a.leq(b) == reference_leq(a, b), (a, b)
                        assert a.orthogonal_to(b) == reference_orthogonal_to(a, b), (a, b)
                        assert a.meets_orthocomplement(b) == \
                            reference_meets_orthocomplement(a, b), (a, b)

    def test_trivial_cases_run_no_elimination(self, monkeypatch):
        # counted through a patched rref_field (and the row reduction of
        # ``contains`` behind ``leq``): the cases below must not eliminate,
        # so a later refactor cannot bring the work back silently
        cases = []
        for field in (QQ, F2):
            one_plus = field.from_coeffs([1] * field.dimension)  # 1 + sqrt2 over F2
            line = Subspace.from_vectors(field, 3, [[1, one_plus, 0]])
            plane = Subspace.from_vectors(field, 3, [[1, 0, 0], [0, 1, 1]])
            twin = Subspace.from_vectors(field, 3, line.basis)
            other = Subspace.from_vectors(field, 3, [[0, 1, 0]])
            cases.append((Subspace.zero(field, 3), Subspace.full(field, 3), line, plane,
                          twin, other))
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(L, "rref_field", counting(L.rref_field))
        monkeypatch.setattr(Subspace, "contains", counting(Subspace.contains))
        monkeypatch.setattr(L, "vec_dot", counting(L.vec_dot))
        for zero, full, line, plane, twin, other in cases:
            assert zero.orthocomplement() == full and full.orthocomplement() == zero
            assert line.leq(full) and plane.leq(full) and zero.leq(full) and full.leq(full)
            assert line.leq(line) and plane.leq(plane)
            assert plane.meets_orthocomplement(line) and full.meets_orthocomplement(plane)
            assert full.meets_orthocomplement(zero) and line.meets_orthocomplement(zero)
            # leq by dimension: equal ones compare bases, a larger self is never below
            assert line.leq(twin) and not line.leq(other) and not other.leq(line)
            assert not plane.leq(line) and not full.leq(plane) and zero.leq(zero)
            # orthogonal_to: the dimensions add up past 3
            assert not plane.orthogonal_to(plane) and not full.orthogonal_to(line)
            assert not plane.orthogonal_to(full)
        assert calls == []
        # the cases that are not trivial still eliminate or take dot products
        _, full, line, plane, _, other = cases[0]
        assert line.orthocomplement().dim == 2 and line.leq(plane) is False
        assert not line.meets_orthocomplement(plane)
        assert not line.orthogonal_to(plane) and other.orthogonal_to(Subspace.from_vectors(
            QQ, 3, [[1, 0, 0]]))
        assert sorted(set(calls)) == ["contains", "rref_field", "vec_dot"]


class TestOrthogonalityMemo:
    """``orthogonal_to`` keeps each answer past the trivial cases in the
    second subspace's memo under ("orthogonal", K), a value key, and
    ``meets_orthocomplement`` reads a line's answer off it.  Both must agree
    with the dot-product and rank references, asked again (from the memo)
    and with equal but distinct objects; the hash kept on each object must
    be the value's, through copies too."""

    def test_against_references(self, monkeypatch):
        rng = random.Random(4099)
        dots = []
        vec_dot = L.vec_dot
        monkeypatch.setattr(L, "vec_dot", lambda *args: dots.append(args) or vec_dot(*args))
        seen = {True: 0, False: 0}
        for field in gen.FIELDS:
            for d in range(1, 5):
                subs = TestTrivialSubspaceCases.subspaces(rng, field, d)
                # lines in each orthocomplement: pairs that are orthogonal
                subs += [Subspace.from_vectors(field, d, s.orthocomplement().basis[:1])
                         for s in subs if 0 < s.dim < d]
                for k in subs:
                    for sub in subs:
                        want = (reference_orthogonal_to(k, sub),
                                reference_meets_orthocomplement(sub, k))
                        trivial = not k.dim or not sub.dim or k.dim + sub.dim > d
                        assert (k.orthogonal_to(sub), sub.meets_orthocomplement(k)) == want
                        assert (("orthogonal", k) in sub.memo) == (not trivial)
                        dots.clear()  # asked again: a trivial case or the memo answers
                        assert k.orthogonal_to(sub) == want[0] and not dots
                        assert sub.meets_orthocomplement(k) == want[1]
                        assert not dots or sub.dim > 1
                        twin_k, twin_sub = (Subspace(field, d, s.basis) for s in (k, sub))
                        assert (twin_k.orthogonal_to(sub), sub.meets_orthocomplement(twin_k),
                                k.orthogonal_to(twin_sub), twin_sub.meets_orthocomplement(k)) \
                            == want * 2
                        if not trivial:
                            seen[want[0]] += 1
                    # a zero carrier is answered without the memo
                    assert ("orthogonal", Subspace.zero(field, d)) not in k.memo
        assert min(seen.values()) > 50, seen

    def test_hash_is_the_value_hash(self):
        rng = random.Random(4111)
        for field in gen.FIELDS:
            for d in range(1, 5):
                for sub in TestTrivialSubspaceCases.subspaces(rng, field, d):
                    line = gen.rand_subspace(rng, field, d, target_dim=1)
                    line.orthogonal_to(sub)  # a memo entry keyed by the line
                    value = hash(sub)
                    assert value == hash(Subspace(field, d, sub.basis)) == hash(sub)
                    assert value == hash(Subspace.from_vectors(field, d, sub.basis))
                    for copied in (copy.copy(sub), copy.deepcopy(sub),
                                   pickle.loads(pickle.dumps(sub))):
                        assert copied == sub and hash(copied) == value
                        assert hash(Subspace(field, d, copied.basis)) == value
                        assert copied.orthogonal_to(line) == sub.orthogonal_to(line)


class TestProjection:
    """Projections read the memoized dual basis; they must equal the Gram
    formula, land in L with the remainder perpendicular to L, and be the
    identity and zero on the full and zero subspaces."""

    def test_full_is_built_in_rref(self):
        for field in (QQ, F2):
            for d in range(1, 5):
                units = [unit_vector(field, d, j) for j in range(d)]
                full = Subspace.full(field, d)
                assert full == Subspace.from_vectors(field, d, units)
                assert full.is_full() and full.basis == tuple(units)

    def test_matches_gram_formula(self):
        rng = random.Random(53)
        for _ in range(60):
            field = rng.choice(gen.FIELDS)
            d = rng.randint(1, 4)
            sub = gen.rand_subspace(rng, field, d)
            vs = [gen.rand_vector(rng, field, d) for _ in range(3)] + [zero_vector(field, d)]
            fresh = Subspace(sub.field, sub.ambient, sub.basis)
            for v, p in zip(vs, sub.project_all(vs)):
                assert p == gram_projection(sub, v) == sub.project(v) == fresh.project(v)
                assert sub.contains(p)
                assert all(vec_dot(b, vec_sub(v, p)).is_zero() for b in sub.basis)
                assert sub.project_perp(v) == vec_sub(v, p)

    def test_full_and_zero_subspaces(self):
        rng = random.Random(59)
        for field in gen.FIELDS:
            for d in range(1, 5):
                vs = [gen.rand_vector(rng, field, d) for _ in range(3)]
                assert Subspace.full(field, d).project_all(vs) == vs
                assert Subspace.zero(field, d).project_all(vs) == [zero_vector(field, d)] * 3
                assert all(vec_is_zero(Subspace.full(field, d).project_perp(v)) for v in vs)

    def test_pivots_that_are_not_leading(self):
        # in these RREF bases the pivot columns are not 0..k-1, e.g. {0, 2} in
        # R^4: project_all reads x_i at pivot p_i and the dot products elsewhere
        rng = random.Random(61)
        for field in (QQ, F2):
            for pivots in ([0, 2], [1, 3], [0, 3], [1, 2], [2], [1, 2, 3], [0, 1, 3]):
                rows = []
                for p in pivots:
                    rows.append([field.one() if j == p else
                                 gen.rand_scalar(rng, field) if j > p and j not in pivots
                                 else field.zero() for j in range(4)])
                sub = Subspace.from_vectors(field, 4, rows)
                assert [next(j for j, x in enumerate(r) if not x.is_zero())
                        for r in sub.basis] == pivots
                vs = [gen.rand_vector(rng, field, 4) for _ in range(4)]
                assert sub.project_all(vs) == [gram_projection(sub, v) for v in vs]

    def test_dual_basis_is_kept_in_the_memo(self):
        sub = Subspace.from_vectors(F2, 3, [[1, F2.sqrt_root(2), 0]])
        v = as_vector(F2, [1, 2, 3])
        assert "dual_basis" not in sub.memo
        first = sub.project(v)
        entry = sub.memo["dual_basis"]
        dual, pivots, plan = entry
        assert len(dual) == sub.dim and all(len(r) == sub.ambient for r in dual)
        assert pivots == (0,)  # the pivot column of each basis row, beside the dual
        # per column of the basis: its place among the pivots, or the column itself
        assert plan == (0, (F2.sqrt_root(2),), (F2.zero(),))
        assert sub.project(v) == first and sub.memo["dual_basis"] is entry
        # the dual rows r_i satisfy r_i . b_j = [i == j]
        assert [[vec_dot(r, b) for b in sub.basis] for r in dual] == [[1]]
        assert "dual_basis" not in Subspace.full(F2, 3).memo

    def test_dual_basis_and_projector_columns_match_the_gram_system(self):
        # the dual basis must equal the Gram system solved against every unit
        # vector (the build it replaced), and the projector columns read off
        # it must be P e_j
        rng = random.Random(67)
        proper = 0
        for field in gen.FIELDS:
            for d in range(1, 6):
                units = [unit_vector(field, d, j) for j in range(d)]
                subs = [gen.rand_subspace(rng, field, d) for _ in range(4)]
                for sub in subs + [Subspace.zero(field, d), Subspace.full(field, d)]:
                    columns = sub.projector_columns()
                    assert columns == [gram_projection(sub, e) for e in units]
                    assert columns == sub.project_all(units)
                    if 0 < sub.dim < d:
                        proper += 1
                        old = tuple(zip(*gen.gram_coordinates(sub.basis, units)))
                        assert sub.memo["dual_basis"][0] == old
                assert Subspace.full(field, d).projector_columns() == units
                assert Subspace.zero(field, d).projector_columns() == [zero_vector(field, d)] * d
        assert proper > 40

    @pytest.mark.parametrize("field", gen.FIELDS, ids=lambda f: str(f.roots))
    def test_dual_basis_from_the_smaller_side(self, field, monkeypatch):
        # for k = dim L <= d - k the dual basis eliminates the k x k Gram
        # system, for k > d - k the rows [H | F^T] over [F | I] of the
        # push-through identity on the d - k columns of H; both must give
        # G^-1 B, and the projector columns read off it must be P e_j, a
        # symmetric matrix.  Every 1 <= k < d <= 6, with leading, trailing
        # and scattered pivot columns
        rng = random.Random(79 + field.dimension)
        widths, rref = [], L.rref_field
        monkeypatch.setattr(L, "rref_field", lambda rows, ncols=None: (
            widths.append(ncols), rref(rows, ncols))[1])
        for d in range(2, 7):
            units = [unit_vector(field, d, j) for j in range(d)]
            for k in range(1, d):
                for pivots in (list(range(k)), list(range(d - k, d)),
                               sorted(rng.sample(range(d), k)), sorted(rng.sample(range(d), k))):
                    rows = [[field.one() if j == p else gen.rand_scalar(rng, field, 0.5)
                             if j > p and j not in pivots else field.zero() for j in range(d)]
                            for p in pivots]
                    sub = Subspace.from_vectors(field, d, rows)
                    widths.clear()
                    dual, pivot_columns, _ = sub._dual_basis()
                    assert widths == [min(k, d - k)] and pivot_columns == tuple(pivots)
                    assert dual == tuple(zip(*gen.gram_coordinates(sub.basis, units)))
                    columns = sub.projector_columns()
                    assert columns == [gram_projection(sub, e) for e in units]
                    assert all(columns[i][j] == columns[j][i] for i in range(d) for j in range(i))

    def test_projections_check_the_vector_length(self):
        # the zero, a proper and the full subspace each refuse a short and a
        # long vector, as ``contains`` does, before any trivial case answers
        for sub in (Subspace.zero(QQ, 3), Subspace.from_vectors(QQ, 3, [[1, 2, 0]]),
                    Subspace.full(QQ, 3)):
            for v in (as_vector(QQ, [1, 2]), as_vector(QQ, [1, 2, 3, 4]), as_vector(QQ, [0, 0])):
                for call in (sub.project, sub.project_perp, lambda v: sub.project_all([v]),
                             lambda v: sub.project_all([as_vector(QQ, [1, 0, 0]), v])):
                    with pytest.raises(DimensionMismatchError, match="has wrong length"):
                        call(v)


int_entry = st.integers(min_value=-6, max_value=6)


class TestSubspaceMemo:
    def test_memo_is_not_part_of_the_value(self):
        rng = random.Random(37)
        for _ in range(20):
            field = rng.choice(gen.FIELDS)
            sub = gen.rand_subspace(rng, field, 3)
            fresh = Subspace(sub.field, sub.ambient, sub.basis)
            before = (hash(sub), sub.encode(), repr(sub))
            sub.memo["wall_lattice"] = CosetLattice.make([([1], 1)], [])
            sub.memo[("key", sub.basis)] = None
            assert sub == fresh and hash(sub) == hash(fresh)
            assert (hash(sub), sub.encode(), repr(sub)) == before
            assert fresh.memo == {} and "memo" not in repr(sub)
            assert {sub: 1}[fresh] == 1

    def test_orthocomplement_is_kept_in_the_memo(self):
        rng = random.Random(71)
        for field in gen.FIELDS:
            for d in range(1, 5):
                for sub in (gen.rand_subspace(rng, field, d), Subspace.zero(field, d),
                            Subspace.full(field, d)):
                    perp = sub.orthocomplement()
                    assert sub.orthocomplement() is perp and sub.memo["perp"] is perp
                    assert Subspace(sub.field, d, sub.basis).orthocomplement() == perp
                    assert perp.dim == d - sub.dim and perp.orthogonal_to(sub)


def _textbook_rref(rows, ncols=None):
    """Gauss-Jordan with rref_field's pivot rule that normalizes every pivot
    row and rebuilds every entry of every other row."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if ncols is None else ncols
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat, pivots


rref_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def rref_cases(draw):
    """A matrix over Q (Fraction entries), Q(sqrt2) or Q(sqrt2, sqrt3), rich in
    zero and unit entries, sometimes with a dependent row, and a pivot width."""
    field = draw(st.sampled_from([None, F2, FieldSpec((2, 3))]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))

    def entry():
        kind = draw(st.sampled_from(("zero", "one", "rational", "any")))
        if kind == "zero" or kind == "one":
            x = Fraction(kind == "one")
            return x if field is None else field.from_rational(x)
        if field is None or kind == "rational":
            x = draw(rref_coeff)
            return x if field is None else field.from_rational(x)
        return field.from_coeffs([draw(rref_coeff) for _ in range(field.dimension)])

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 2 and draw(st.booleans()):
        rows[-1] = [x - y for x, y in zip(rows[0], rows[1])]
    return rows, draw(st.integers(0, n))


class TestRrefField:
    @given(rref_cases())
    def test_against_textbook_elimination(self, case):
        rows, k = case
        before = [list(r) for r in rows]
        for ncols in (None, k):
            rr, pivots = rref_field(rows, ncols)
            want, want_pivots = _textbook_rref(rows, ncols)
            assert pivots == want_pivots and rr == want
            assert [[type(x) for x in r] for r in rr] == \
                [[type(x) for x in r] for r in want]
        assert rows == before  # the input is not modified

    def test_partial_elimination(self):
        # pivots are taken only in the first two columns; the third is carried
        rows = [[Fraction(x) for x in r]
                for r in ([0, 2, 1, 4], [1, 1, 0, 1], [1, 2, 1, 3])]
        rr, pivots = rref_field(rows, 2)
        assert pivots == [0, 1]
        assert rr == [[1, 0, Fraction(-1, 2), -1], [0, 1, Fraction(1, 2), 2],
                      [0, 0, Fraction(1, 2), 0]]

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        for _ in range(80):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
                    for _ in range(m)]
            if m > 1 and rng.random() < 0.5:
                rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
            rr, pivots = rref_field(rows)
            want, want_pivots = sympy.Matrix(rows).rref()
            assert pivots == list(want_pivots)
            assert sympy.Matrix(rr) == want
            kernel = nullspace(rr, pivots, n, Fraction(0), Fraction(1))
            assert len(kernel) == n - len(pivots)
            for v in kernel:
                assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
            # partial elimination: the left block is fully reduced and the
            # row space of the whole matrix is unchanged
            k = rng.randint(0, n)
            part, part_pivots = rref_field(rows, k)
            left, left_pivots = sympy.Matrix([r[:k] for r in rows]).rref()
            assert part_pivots == list(left_pivots)
            assert sympy.Matrix([r[:k] for r in part]) == left
            assert sympy.Matrix(part).rref()[0] == want


class TestCanonicalForm:
    @given(st.lists(st.lists(int_entry, min_size=3, max_size=3),
                    min_size=1, max_size=3),
           st.permutations(range(3)))
    def test_presentation_independent(self, rows, perm):
        # the canonical RREF basis does not depend on the generating set:
        # permuted, rescaled and summed generators span the same space
        base = Subspace.from_vectors(QQ, 3, rows)
        shuffled = [rows[i] for i in perm if i < len(rows)]
        scaled = [[3 * x for x in row] for row in shuffled]
        mixed = list(scaled)
        if len(mixed) >= 2:
            mixed.append([a + b for a, b in zip(mixed[0], mixed[1])])
        assert Subspace.from_vectors(QQ, 3, mixed or [[0, 0, 0]]) == \
            (base if mixed else Subspace.zero(QQ, 3))

    def test_only_linalg_calls_the_constructor(self):
        # a Subspace built elsewhere would hold a basis that linalg did not
        # put in canonical form, and compare unequal to its own span; an
        # elimination or normal form elsewhere would be a second lattice solver
        import ast
        from pathlib import Path
        private = {"Subspace", "rref_field", "nullspace", "hermite_normal_form",
                   "smith_normal_form"}
        direct = []
        for path in sorted(Path(L.__file__).parent.glob("*.py")):
            if path.name == "linalg.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and private & {
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)}:
                    direct.append(f"{path.name}:{node.lineno}")
        assert direct == []

    def test_one_torus_wall_lattice(self):
        # ``Subspace.wall_key`` is the one torus wall lattice and
        # ``Subspace.torus_offset`` the one projected lattice of a carrier:
        # classify reads them without coset lattices of its own, measure
        # makes one only for atom-group modules (``module_lattice``), and no
        # module but linalg reads or writes a subspace's memo entries
        import ast
        from pathlib import Path
        makers, classify_names, memo_subscripts = [], set(), []

        def is_make(node):
            return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "make" \
                and getattr(node.func.value, "id", None) == "CosetLattice"
        for path in sorted(Path(L.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if is_make(node):
                    makers.append(path.name)
                if path.name == "classify.py" and isinstance(node, ast.ImportFrom):
                    classify_names |= {a.name for a in node.names}
                if path.name == "measure.py" and isinstance(node, ast.Subscript) \
                        and getattr(node.value, "attr", None) == "memo":
                    memo_subscripts.append(node.lineno)
            if path.name == "measure.py":
                in_module_lattice = [node for fn in tree.body if isinstance(fn, ast.FunctionDef)
                                     and fn.name == "module_lattice"
                                     for node in ast.walk(fn) if is_make(node)]
                assert makers.count("measure.py") == len(in_module_lattice) > 0
        assert set(makers) == {"linalg.py", "measure.py"}
        assert not classify_names & {"CosetLattice", "flatten"}
        assert memo_subscripts == []

    def test_lattice_layer_builds_no_fractions(self):
        # the lattice layer works on the scalars' integer numerators:
        # ``flatten``, ``CosetLattice.key`` and ``Subspace.wall_key`` name no
        # Fraction, and ``pose_lattice_coset`` eliminates its rational unknowns
        # on integers too: it names Fraction only in the back substitution and
        # the kernel of those unknowns, and calls no ``rref_field``,
        # ``_integral`` or ``FieldScalar.coeffs``
        import ast
        from pathlib import Path
        tree = ast.parse(Path(L.__file__).read_text())
        scopes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            scopes |= {f"{cls.name}.{fn.name}": fn for fn in cls.body
                       if isinstance(fn, ast.FunctionDef)}

        def fractions(node):
            return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "Fraction"]
        for name in ("flatten", "CosetLattice.key", "Subspace.wall_key"):
            assert fractions(scopes[name]) == [], name
        pose = scopes["pose_lattice_coset"]
        (back,) = [node for node in ast.walk(pose)
                   if isinstance(node, ast.FunctionDef) and node.name == "back_substitute"]
        kernels = [node for node in ast.walk(pose) if isinstance(node, ast.Assign)
                   and [ast.unparse(x) for x in node.targets] == ["kernel"]]
        allowed = sorted(line for node in [back, *kernels] for line in fractions(node))
        assert fractions(back) and any(map(fractions, kernels))
        assert sorted(fractions(pose)) == allowed
        names = {n.id for n in ast.walk(pose) if isinstance(n, ast.Name)}
        attributes = {n.attr for n in ast.walk(pose) if isinstance(n, ast.Attribute)}
        assert not names & {"rref_field", "_integral"} and "coeffs" not in attributes

    def test_only_linalg_checks_vector_lengths(self):
        # ``as_vector`` is the one length check of an input vector: a
        # hand-written copy elsewhere would be free to drift from it
        import ast
        from pathlib import Path
        copies = []
        for path in sorted(Path(L.__file__).parent.glob("*.py")):
            if path.name == "linalg.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                exc = node.exc if isinstance(node, ast.Raise) else None
                if isinstance(exc, ast.Call) \
                        and getattr(exc.func, "id", None) == "DimensionMismatchError" \
                        and any(ast.unparse(arg).rstrip("'\"").endswith("has wrong length")
                                for arg in exc.args):
                    copies.append(f"{path.name}:{node.lineno}")
        assert copies == []

    def test_only_scalar_checks_integers_and_finite_numbers(self):
        # ``scalar._decode_int`` and ``_decode_float`` are the one integer and
        # the one finite-number rule: no other module tests finiteness or
        # words its own refusal of a non-integer or a non-finite number
        import ast
        from pathlib import Path
        copies = []
        for path in sorted(Path(L.__file__).parent.glob("*.py")):
            if path.name == "scalar.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                exc = node.exc if isinstance(node, ast.Raise) else None
                if name in ("isfinite", "float_info") or isinstance(exc, ast.Call) \
                        and getattr(exc.func, "id", None) == "ValidationError" \
                        and any(words in ast.unparse(arg) for arg in exc.args
                                for words in ("must be an integer", "must be a finite number")):
                    copies.append(f"{path.name}:{node.lineno}")
        assert copies == []


    def test_unit_vectors_are_projected_by_the_projector_columns(self):
        # ``Subspace.projector_columns`` reads P e_1..P e_d off the dual basis:
        # no module passes unit vectors to ``project_all``, directly or
        # through a name bound to them, which would dot each with the dual rows
        import ast
        from pathlib import Path
        calls = []
        for path in sorted(Path(L.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
                units = {t.id for n in ast.walk(scope) if isinstance(n, ast.Assign)
                         and "unit_vector" in ast.unparse(n.value)
                         for t in n.targets if isinstance(t, ast.Name)}
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call) \
                            and getattr(node.func, "attr", None) == "project_all" \
                            and any("unit_vector" in ast.unparse(arg)
                                    or {getattr(n, "id", None) for n in ast.walk(arg)} & units
                                    for arg in node.args):
                        calls.append(f"{path.name}:{node.lineno}")
        assert calls == []

    def test_wall_answers_go_through_the_direction_memo(self):
        # every torus wall answer in classify is kept in the direction's memo:
        # ``wall_key`` is read only by ``_on_affine_wall`` and
        # ``group_atom_on_coset`` called only by ``_group_meets_wall``
        import ast
        from pathlib import Path
        callers = {"wall_key": set(), "group_atom_on_coset": set()}
        tree = ast.parse((Path(L.__file__).parent / "classify.py").read_text())
        for scope in ast.walk(tree):
            if isinstance(scope, ast.FunctionDef):
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                        if name in callers:
                            callers[name].add(scope.name)
        assert callers == {"wall_key": {"_on_affine_wall"},
                           "group_atom_on_coset": {"_group_meets_wall"}}


class TestAffineCarrier:
    def test_offset_reduced(self):
        sub = Subspace.from_vectors(QQ, 2, [[1, 0]])
        car = AffineCarrier.make(sub, [3, Fraction(1, 2)])
        assert car.offset == as_vector(QQ, [0, Fraction(1, 2)])
        assert not car.is_linear()
        assert AffineCarrier.make(sub, [5, 0]).is_linear()


class TestSmithNormalForm:
    def test_examples(self):
        _, d, _ = smith_normal_form([[2, 0], [0, 3]], _eye(2))
        assert [d[0][0], d[1][1]] == [1, 6]
        _, d, _ = smith_normal_form([[1, 0], [0, 1]], _eye(2))
        assert [d[0][0], d[1][1]] == [1, 1]
        _, d, _ = smith_normal_form([[1, 1]], _eye(1))
        assert d == [[1, 0]]

    @staticmethod
    def _random_matrices():
        rng = random.Random(3)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            yield m, n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]

    def test_transforms_random(self):
        for m, n, mat in self._random_matrices():
            u, d, v = smith_normal_form([row[:] for row in mat], _eye(m))
            assert matmul(matmul(u, mat), v) == d
            assert _det(u) in (1, -1) and _det(v) in (1, -1)
            diag = [d[i][i] for i in range(min(m, n))]
            for i in range(len(diag) - 1):
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0

    def test_rhs_is_carried_through_the_row_operations(self):
        """smith_normal_form(M, B) returns U @ B, and the same D and V, for
        the U that smith_normal_form(M, I) returns."""
        rng = random.Random(31)
        for m, _, mat in self._random_matrices():
            r = rng.randint(1, 3)
            b = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
            u, d, v = smith_normal_form(mat, _eye(m))
            ub, d_b, v_b = smith_normal_form(mat, b)
            assert ub == matmul(u, b)
            assert (d_b, v_b) == (d, v)

    def test_zero_matrix(self):
        u, d, v = smith_normal_form([[0, 0], [0, 0]], _eye(2))
        assert d == [[0, 0], [0, 0]]
        assert _det(u) in (1, -1) and _det(v) in (1, -1)


def reference_hermite_normal_form(rows):
    """The differential reference for ``linalg.hermite_normal_form``: Euclid
    by repeated division, each round pivoting on the entry of least absolute
    value in the column."""
    mat = [list(map(int, r)) for r in rows if any(x != 0 for x in r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(mat[i][col]))
            mat[r], mat[i0] = mat[i0], mat[r]
            if live == [r]:
                break
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // mat[r][col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if r < len(mat) and mat[r][col] != 0:
            if mat[r][col] < 0:
                mat[r] = [-a for a in mat[r]]
            for i in range(r):
                q = mat[i][col] // mat[r][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return tuple(tuple(row) for row in mat[:r])


def _random_int_matrix(rng, m, n, bits, density=0.7):
    return [[rng.randint(-2 ** bits, 2 ** bits) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


class TestHermiteCanonicality:
    def test_invariant_under_row_operations(self):
        from dirspec.linalg import hermite_normal_form
        rng = random.Random(37)
        for _ in range(80):
            m = rng.randint(1, 3)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            base = hermite_normal_form(rows)
            # apply random invertible integer row operations
            work = [row[:] for row in rows]
            for _ in range(6):
                op = rng.randint(0, 2)
                i, j = rng.randrange(m), rng.randrange(m)
                if op == 0 and i != j:
                    q = rng.randint(-3, 3)
                    work[i] = [a + q * b for a, b in zip(work[i], work[j])]
                elif op == 1:
                    work[i], work[j] = work[j], work[i]
                else:
                    work[i] = [-a for a in work[i]]
            assert hermite_normal_form(work) == base

    def test_matches_the_reference(self):
        from dirspec.linalg import hermite_normal_form
        rng = random.Random(53)
        cases = [[], [[]], [[0]], [[-7]], [[0, 0], [0, 0]], [[0, 3], [0, -5], [0, 0]],
                 [[4, -6], [-6, 9]]]  # empty, 1x1, zero and rank-deficient inputs
        for _ in range(400):
            m, n = rng.randint(1, 7), rng.randint(1, 6)
            rows = _random_int_matrix(rng, m, n, rng.choice([2, 5, 40]),
                                      rng.choice([0.3, 0.7, 1.0]))
            if m > 1 and rng.random() < 0.3:  # a dependent row
                q = rng.randint(-3, 3)
                rows.append([a + q * b for a, b in zip(rows[0], rows[-1])])
            if rng.random() < 0.2:  # a zero column
                j = rng.randrange(n)
                for row in rows:
                    row[j] = 0
            cases.append(rows)
        for _ in range(100):
            # the [A^T | I] rows that ``pose_lattice_coset`` asks to reduce
            mm, b = rng.randint(0, 4), rng.randint(1, 5)
            a_rows = _random_int_matrix(rng, mm, b, 6)
            cases.append([[r[j] for r in a_rows] + [int(i == j) for i in range(b)]
                          for j in range(b)])
        cases.append(_random_int_matrix(rng, 5, 8, 2000, 1.0))
        for rows in cases:
            assert hermite_normal_form(rows) == reference_hermite_normal_form(rows), rows


class TestLattices:
    def test_saturate_examples(self):
        assert saturate(LatticeSubgroup.from_generators(2, [[2, 0]])).basis == ((1, 0),)
        h = LatticeSubgroup.from_generators(2, [[1, 1]])
        assert saturate(h) == h
        assert saturate(LatticeSubgroup.from_generators(2, [[2, 4]])).basis == ((1, 2),)

    def test_saturate_idempotent_and_index(self):
        rng = random.Random(11)
        for _ in range(80):
            d = rng.randint(1, 4)
            k = rng.randint(1, d)
            h = LatticeSubgroup.from_generators(
                d, [[rng.randint(-5, 5) for _ in range(d)] for _ in range(k)])
            sat = saturate(h)
            assert saturate(sat) == sat
            assert sat.rank == h.rank
            for row in h.basis:
                assert sat.contains(row)

    @pytest.mark.parametrize("gens", [[[0.5, 1]], [[1.9, 1]], [[1, -0.1]],
                                      [["1", 0]], [[None, 1]], [[float("inf"), 1]],
                                      [[Fraction(1, 2), 1]], [[True, 1]], [[2, False]]])
    def test_non_integer_generator_rejected(self, gens):
        # int() would truncate these silently: 0.5 -> 0, 1.9 -> 1, true -> 1
        with pytest.raises(ValidationError):
            LatticeSubgroup.from_generators(2, gens)

    def test_integral_values_accepted(self):
        want = LatticeSubgroup.from_generators(2, [[2, 1]])
        for gens in ([[2.0, 1.0]], [[Fraction(2), 1]], [(2, 1)]):
            h = LatticeSubgroup.from_generators(2, gens)
            assert h == want and all(type(x) is int for row in h.basis for x in row)

    def test_membership(self):
        h = LatticeSubgroup.from_generators(2, [[2, 0], [0, 3]])
        assert h.contains([4, 3])
        assert not h.contains([1, 0])

    def test_saturate_is_span_cap_integer_points(self):
        """An integer point with |x_i| <= 4 is in saturate(H) exactly when it
        lies in span(H)."""
        rng = random.Random(43)
        for _ in range(40):
            d = rng.randint(1, 3)
            h = LatticeSubgroup.from_generators(
                d, [[rng.randint(-6, 6) for _ in range(d)] for _ in range(rng.randint(1, d))])
            sat, span = saturate(h), h.span()
            for x in itertools.product(range(-4, 5), repeat=d):
                assert sat.contains(x) == span.contains(as_vector(QQ, x))


class TestRationality:
    def test_examples(self):
        rep = rationality(Subspace.from_vectors(QQ, 2, [[1, 2]]))
        assert rep.kind == "completely_rational" and rep.rational_rank == 1
        assert rep.lattice.basis == ((1, 2),)

        rep = rationality(Subspace.from_vectors(F2, 2, [[1, F2.sqrt_root(2)]]))
        assert rep.kind == "irrational" and rep.rational_rank == 0

        line = Subspace.from_vectors(F2, 3, [[0, 1, F2.sqrt_root(2)]])
        assert rationality(line).kind == "irrational"
        perp = line.orthocomplement()
        rep = rationality(perp)
        assert rep.kind == "intermediate" and rep.rational_rank == 1
        assert rep.lattice.basis == ((1, 0, 0),)

    def test_rational_part_is_contained(self):
        rng = random.Random(13)
        for _ in range(60):
            field = rng.choice(gen.FIELDS)
            d = rng.randint(1, 4)
            sub = gen.rand_subspace(rng, field, d)
            rep = rationality(sub)
            assert rep.rational_subspace.leq(sub)
            assert 0 <= rep.rational_rank <= sub.dim
            if rep.kind == "completely_rational":
                assert rep.rational_rank == sub.dim
            for row in rep.lattice.basis:
                assert sub.contains(as_vector(field, row))
            # and L cap Z^d is all of it: no integer point of L is missing
            for x in itertools.product(range(-2, 3), repeat=d):
                if sub.contains(as_vector(field, x)):
                    assert rep.lattice.contains(x)


def integer_shift(a_matrix, c):
    """The n in Z^d with A (c - n) = 0: the coset primitive with no u,
    l_j = A e_j and t = -A c."""
    return solve_lattice_coset("Z", (), [tuple(row[j] for row in a_matrix)
                                         for j in range(len(c))], mat_vec(a_matrix, vec_neg(c)))


class TestSolveIntegerAffine:
    """Integer-shift systems n in Z^d with A (c - n) = 0, as coset solves."""

    def test_examples(self):
        a = [[QQ.one(), QQ.zero()]]
        assert integer_shift(a, q(Fraction(1, 2), 0)) is None
        sol = integer_shift(a, q(3, 0))
        assert sol is not None and sol.shift[0] == 3
        # condition c - n in span{(0,1)}: first coordinate pinned
        perp = Subspace.from_vectors(QQ, 2, [[0, 1]]).orthocomplement()
        sol = integer_shift(perp.basis, q(2, Fraction(1, 3)))
        assert sol is not None and sol.shift[0] == 2

    def test_lattice_describes_all_solutions(self):
        sol = integer_shift([[QQ.one(), QQ.zero()]], q(3, 0))
        lattice = LatticeSubgroup.from_generators(2, sol.shift_lattice)
        assert lattice.contains([0, 1])
        assert not lattice.contains([1, 0])


def _combination(field, e, coeffs, us, shift, ls):
    out = zero_vector(field, e)
    for c, v in [*zip(coeffs, us), *zip(shift, ls)]:
        out = vec_add(out, vec_scale(field.from_rational(Fraction(c)), v))
    return out


def _assert_family(field, ring, us, ls, t, sol):
    """Every member of the returned family solves the coset system
    sum c_i u_i = t + sum n_j l_j exactly."""
    e = len(t)
    assert _combination(field, e, sol.coeffs, us, [-n for n in sol.shift], ls) == tuple(t)
    assert len(sol.coeff_lattice) == len(sol.shift_lattice)
    for cl, nl in zip(sol.coeff_lattice, sol.shift_lattice):
        assert vec_is_zero(_combination(field, e, cl, us, [-n for n in nl], ls))
        assert all(isinstance(x, int) for x in nl)
    for ker in sol.coeff_kernel:
        assert vec_is_zero(_combination(field, e, ker, us, (), ls))
    if ring == "Z":
        assert sol.coeff_kernel == ()
        assert all(Fraction(x).denominator == 1
                   for c in (sol.coeffs, *sol.coeff_lattice) for x in c)


def q(*xs):
    return as_vector(QQ, xs)


class TestLatticeCoset:
    """Worked examples of the coset primitive, one per caller shape."""

    def test_group_wall_shape(self):
        # L = span{(1,1)}, wall L^perp + (1/4,1/4) + Z^2, group Z(1/2, 0):
        # u = B_L g, l_j = B_L e_j, t = B_L ell;  c/2 - n1 - n2 = 1/2
        rows = Subspace.from_vectors(QQ, 2, [[1, 1]]).basis
        ls = [tuple(b[j] for b in rows) for j in range(2)]
        t = mat_vec(rows, q(Fraction(1, 4), Fraction(1, 4)))
        us = [mat_vec(rows, q(Fraction(1, 2), 0))]
        sol = solve_lattice_coset("Z", us, ls, t)
        assert sol == CosetSolution((1,), (0, 0), ((2,), (2,)), ((1, 0), (0, 1)), ())
        _assert_family(QQ, "Z", us, ls, t, sol)
        # the group Z(1, 0) has no atom there: c - n1 - n2 = 1/2 ...
        us = [mat_vec(rows, q(1, 0))]
        assert solve_lattice_coset("Z", us, ls, t) is None
        # ... but Q(1, 0) has, at c = 1/2 (+ Z)
        sol = solve_lattice_coset("Q", us, ls, t)
        assert sol.coeffs == (Fraction(1, 2),) and sol.coeff_kernel == ()
        _assert_family(QQ, "Q", us, ls, t, sol)

    def test_subgroup_image_shape(self):
        # M = [[2, 0]] (not saturated): u = M g, l_1 = e_1 in Z^1, t = -M offset
        rows = ((2, 0),)
        ls = [unit_vector(QQ, 1, 0)]
        us = [mat_vec(rows, q(Fraction(1, 2), 0))]
        t = vec_neg(mat_vec(rows, q(0, 0)))
        sol = solve_lattice_coset("Z", us, ls, t)
        # 2 (c/2) = k: every c, with k = c; c = 1 is the atom (1/2, 0)
        assert sol == CosetSolution((0,), (0,), ((1,),), ((1,),), ())
        _assert_family(QQ, "Z", us, ls, t, sol)
        # offset (1/4, 0), group Z(1/3, 0): 2c/3 + 1/2 is never an integer
        us = [mat_vec(rows, q(Fraction(1, 3), 0))]
        assert solve_lattice_coset(
            "Z", us, ls, vec_neg(mat_vec(rows, q(Fraction(1, 4), 0)))) is None

    def test_module_member_shape(self):
        # torus: u = g, l_j = -e_j, t = v - offset;  c g + n = t
        ls = [vec_neg(unit_vector(QQ, 2, j)) for j in range(2)]
        us = [q(1, 2)]
        t = q(Fraction(1, 3), Fraction(5, 3))
        sol = solve_lattice_coset("Q", us, ls, t)
        assert sol == CosetSolution((Fraction(1, 3),), (0, 1), ((Fraction(-1),),),
                                    ((1, 2),), ())
        _assert_family(QQ, "Q", us, ls, t, sol)
        assert solve_lattice_coset("Q", us, ls, q(Fraction(1, 3), Fraction(1, 2))) is None
        # euclidean, over Q(sqrt2): no l; the rows split by field basis
        s2 = F2.sqrt_root(2)
        us = [(s2, F2.one())]
        t = (2 * s2, F2.from_rational(2))
        sol = solve_lattice_coset("Z", us, (), t)
        assert sol == CosetSolution((2,), (), (), (), ())
        assert solve_lattice_coset("Z", us, (), (s2, F2.from_rational(Fraction(1, 2)))) \
            is None

    def test_integer_affine_shape(self):
        # no u, l_j = A e_j, t = -A c with A = [[1, 0]]:  n1 = 3, n2 free
        ls = [q(1), q(0)]
        sol = solve_lattice_coset("Z", (), ls, q(-3))
        assert sol == CosetSolution((), (3, 0), ((),), ((0, 1),), ())
        assert solve_lattice_coset("Z", (), ls, q(Fraction(1, 2))) is None

    def test_no_equations(self):
        # A with no rows (the full subspace's perp): every shift solves
        assert solve_lattice_coset("Z", (), [(), ()], ()) == \
            CosetSolution((), (0, 0), ((), ()), ((1, 0), (0, 1)), ())
        # t in R^0: every c is free, every n is a lattice direction
        sol = solve_lattice_coset("Q", [()], [()], ())
        assert sol == CosetSolution((0,), (0,), ((0,),), ((1,),), ((1,),))

    @pytest.mark.parametrize("ring", ["Z", "Q"])
    def test_solution_family_random(self, ring):
        rng = random.Random(43)
        feasible = 0
        for _ in range(60):
            field = rng.choice([QQ, F2])
            e = rng.randint(1, 2)
            us = [gen.rand_vector(rng, field, e) for _ in range(rng.randint(0, 2))]
            ls = [gen.rand_vector(rng, field, e, 0) for _ in range(rng.randint(0, 2))]
            t = gen.rand_vector(rng, field, e)
            sol = solve_lattice_coset(ring, us, ls, t)
            if sol is not None:
                feasible += 1
                _assert_family(field, ring, us, ls, t, sol)
        assert feasible > 5


class TestCosetLattice:
    """Worked coset keys: canonical representatives modulo Q.span + Z.span,
    as integer numerators over their denominator (``gen.key_value`` reads
    them back as rationals)."""

    @staticmethod
    def make(q_rows, z_rows):
        return CosetLattice.make([gen.ratio_row(r) for r in q_rows],
                                 [gen.ratio_row(r) for r in z_rows])

    @staticmethod
    def key(lat, v):
        return gen.key_value(lat.key(*gen.ratio_row(v)))

    def test_rational_rows(self):
        # modulo Q(1, 1): the representative vanishes in the pivot column
        lat = self.make([[1, 1]], [])
        assert lat.q_basis == ((1, 1),) and lat.z_basis == ()
        assert lat.key([2, 3]) == (0, 1, 1)
        assert lat.key([-1, -1], 2) == (0, 0, 0)

    def test_integer_rows(self):
        # modulo 2Z x 3Z: each coordinate lands in [0, pivot)
        lat = self.make([], [[2, 0], [0, 3]])
        assert lat.key([5, -1]) == (1, 2, 1)
        assert lat.key([4, 3]) == (0, 0, 0)
        # rational rows are scaled to integers over one denominator, in
        # lowest terms: a canonical basis, with its pivot columns
        lat = self.make([], [[Fraction(1, 2), 0], [0, Fraction(1, 3)],
                             [Fraction(1, 2), Fraction(1, 3)]])
        assert (lat.z_basis, lat.z_den, lat.z_pivots) == (((3, 0), (0, 2)), 6, (0, 1))
        lat = self.make([], [[Fraction(2, 3), Fraction(1, 3)]])
        assert lat.key([2, 1], 2) == (2, 1, 6)
        assert self.key(lat, [1, Fraction(1, 2)]) == (Fraction(1, 3), Fraction(1, 6))

    def test_mixed_rows(self):
        # a ring-Q group Q(1, 2) on T^2: Z^2 reduced by (1, 2) leaves Z(0, 1)
        lat = self.make([[1, 2]], [[1, 0], [0, 1]])
        assert (lat.z_basis, lat.z_den) == (((0, 1),), 1)
        assert self.key(lat, [Fraction(1, 3), Fraction(5, 3)]) == (0, 0)
        assert self.key(lat, [Fraction(1, 3), Fraction(1, 2)]) == (0, Fraction(5, 6))

    def test_dense_projection(self):
        # K = span{(1, sqrt2)} in T^2 over Q(sqrt2), flattened to (a0, b0, a1, b1)
        # for x_j = a_j + b_j sqrt2: the Q-basis (1, sqrt2), (sqrt2, 2) of K plus
        # Z^2.  Z^2 projects densely onto K^perp, yet modulo the Q-part it is
        # the lattice Z^2 in the last two columns.
        lat = self.make([[1, 0, 0, 1], [0, 1, 2, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert (lat.z_basis, lat.z_den) == (((0, 0, 1, 0), (0, 0, 0, 1)), 1)
        assert lat.key([1, 0, 0, 0], 5) == (0, 0, 0, 4, 5)
        # (1/5, 0) + (2, -1): a lattice shift of the same carrier
        assert self.key(lat, [Fraction(11, 5), 0, -1, 0]) == (0, 0, 0, Fraction(4, 5))

    def test_membership_matches_coset_solve(self):
        rng = random.Random(47)
        members = 0
        for _ in range(80):
            n = rng.randint(1, 4)
            q_rows = [[gen.rand_fraction(rng) for _ in range(n)]
                      for _ in range(rng.randint(0, 2))]
            z_rows = [[gen.rand_fraction(rng) for _ in range(n)]
                      for _ in range(rng.randint(0, 3))]
            lat = self.make(q_rows, z_rows)
            v = [gen.rand_fraction(rng) for _ in range(n)]
            if rng.random() < 0.5:  # a module element
                coeffs = [gen.rand_fraction(rng) for _ in q_rows] \
                    + [rng.randint(-3, 3) for _ in z_rows]
                v = [sum(c * r[j] for c, r in zip(coeffs, q_rows + z_rows))
                     for j in range(n)]
            member = solve_lattice_coset("Q", [q(*r) for r in q_rows],
                                         [q(*r) for r in z_rows], q(*v)) is not None
            key = lat.key(*gen.ratio_row(v))
            assert (not any(key)) == member
            members += member
            # the key is a representative of v's class, and a fixed point
            assert solve_lattice_coset("Q", [q(*r) for r in q_rows], [q(*r) for r in z_rows],
                                       vec_sub(q(*v), q(*gen.key_value(key)))) is not None
            assert lat.key(*gen.ratio_row(gen.key_value(key))) == key
        assert 20 < members < 70


class TestMixedSolver:
    """Systems in rational unknowns c (ring Q) and integral unknowns n."""

    def test_rational_only(self):
        # c1 + 2 c2 = 1 has rational solutions
        sol = solve_lattice_coset("Q", [q(1), q(2)], (), q(1))
        assert sol is not None
        assert sol.coeffs[0] + 2 * sol.coeffs[1] == 1
        assert len(sol.coeff_kernel) == 1

    def test_integer_only_infeasible(self):
        # 2n = 1 has no integer solution
        assert solve_lattice_coset("Z", (), [q(2)], q(1)) is None

    def test_mixed(self):
        # c = 1/2 + n with c rational, n integer
        sol = solve_lattice_coset("Q", [q(1)], [q(1)], q(Fraction(1, 2)))
        assert sol is not None
        assert sol.coeffs[0] - sol.shift[0] == Fraction(1, 2)
        assert len(sol.shift_lattice) == 1
        lam, shift = sol.shift_lattice[0], sol.coeff_lattice[0]
        assert shift[0] - lam[0] == 0

    def test_solution_family_random(self):
        # every member of the returned family solves the system exactly
        rng = random.Random(41)
        for _ in range(120):
            m = rng.randint(1, 3)
            a = rng.randint(0, 2)
            b = rng.randint(0, 2)
            rat = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(a)] for _ in range(m)]
            intc = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(b)] for _ in range(m)]
            rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(m)]
            sol = solve_lattice_coset("Q", [q(*(row[p] for row in rat)) for p in range(a)],
                                      [q(*(row[j] for row in intc)) for j in range(b)],
                                      q(*rhs))
            if sol is None:
                continue

            def residual(c, n):
                return [sum(rat[i][p] * c[p] for p in range(a))
                        - sum(intc[i][j] * n[j] for j in range(b)) - rhs[i]
                        for i in range(m)]

            assert all(x == 0 for x in residual(sol.coeffs, sol.shift))
            for lam, shift in zip(sol.shift_lattice, sol.coeff_lattice):
                c = [x + y for x, y in zip(sol.coeffs, shift)]
                n = [x + y for x, y in zip(sol.shift, lam)]
                assert all(x == 0 for x in residual(c, n))
            for ker in sol.coeff_kernel:
                c = [x + 7 * y for x, y in zip(sol.coeffs, ker)]
                assert all(x == 0 for x in residual(c, sol.shift))
