"""Exact linear algebra over radical fields and integer lattices.

Provides canonical-form subspaces of R^d over a FieldSpec (reduced row
echelon bases, so structural equality is definitional equality), affine
carriers, integer lattice subgroups in Hermite normal form, one exact
solver for lattice cosets, which also gives the saturations and the
rationality classification of directions, and canonical coset keys.

``rref_field`` is the one Gauss-Jordan elimination over a field (entries
FieldScalar or Fraction).  Its callers: ``Subspace.from_vectors`` (canonical
bases), the ``Subspace`` dual basis (one system: [G | B], or [H | F^T] over
[F | I] when L^perp is the smaller side), ``meets_orthocomplement`` (a
rank) and ``CosetLattice`` (the rational rows); ``pose_lattice_coset`` runs
its pivot rule on integers.  ``nullspace`` reads kernels off its output, and
every dot product is the one-pass ``scalar.vec_dot``.  Trivial cases eliminate
nothing: zero and full spaces, and the answers of ``leq``, ``orthogonal_to``
and ``meets_orthocomplement`` that the dimensions fix.  ``as_vector`` is the
one length check of an input vector, and ``_int_vector`` of an integer one,
read by ``scalar._decode_int``.

``flatten`` is the one map from field vectors to coordinates over the field
basis: integer numerators over one denominator, read off the scalars, which
the solver rows, class keys and wall keys are built from; ``unflatten`` is
its inverse.  A ``Fraction`` is built only where a division needs one: the
``rref_field`` run of ``CosetLattice``, the back substitution and kernel of
rational unknowns, and a q-part's reduction.

``pose_lattice_coset`` is the one lattice coset solver: is t in
ring.span{u_i} + Z.span{l_j}, and with which coefficients?  Its callers:
``measure.group_atom_on_coset`` asks for a group atom on a wall or in a
subgroup image: a ``hermite_normal_form`` solve decides (a canonical torus
group of ring Z on the coefficient and target columns alone: its module
holds the shifts), and only a yes runs ``smith_normal_form`` (U·B, D and V,
U never formed) on the full system to name the witness.
``rationality`` reads L cap Z^d off the HNF solution lattice of the
homogeneous system sum_j n_j c_j = 0, and ``saturate`` is that lattice for
a subgroup's span.  The HNF callers are ``LatticeSubgroup.from_generators``,
``CosetLattice.make`` and the solver; ``hermite_normal_form`` is one
extended-gcd sweep over the columns, each lower row folded into the pivot
row by the unimodular 2x2 step of ``_xgcd``.

Yes/no questions read a ``CosetLattice`` key instead: it puts
Q.span + Z.span in Q^n in a canonical echelon form, and v is in the module
exactly when its key is zero (``LatticeSubgroup.contains`` too: an HNF
basis is its own key lattice).  ``measure`` reads module bases, group class
keys and module membership off it.  ``Subspace.wall_key`` is the one torus
wall lattice Z.span{B e_j}: ``classify._on_affine_wall`` decides atom and
box torus walls by it, ``measure._box_key`` torus box classes.  The other
half of a torus carrier K + offset is ``Subspace.torus_offset``: it reduces
the offset modulo the projected lattice P_{K^perp}(Z^d), into the
fundamental domain of its HNF basis when that lattice is rational.

A ``Subspace`` is frozen and canonical, so values that depend only on it are
stored in its ``memo`` dict: the dual basis G^-1 B (G = B B^T, B the basis,
eliminated on the smaller of L and L^perp), B's pivot and free columns, so
a projection is x = G^-1 B v and x B, which is x_i at the i-th pivot column
(``projector_columns`` reads the symmetric P off G^-1 B and dots only the
upper triangle of its free x free block); ``orthocomplement`` its result;
``wall_key`` the wall lattice; ``torus_offset`` the HNF basis of the
projected lattice (``perp_lattice``); ``classify`` a direction's wall
answers, each asked once.  The memo takes no part in equality, hashing,
``encode`` or ``repr``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import gcd, lcm

from .errors import DimensionMismatchError, FieldMismatchError, ValidationError
from .scalar import QQ, FieldScalar, FieldSpec, _decode_int, _reduced, promote_scalar, vec_dot

FieldVector = tuple[FieldScalar, ...]

# ---------------------------------------------------------------------------
# field-vector helpers
# ---------------------------------------------------------------------------


def zero_vector(field: FieldSpec, dim: int) -> FieldVector:
    return (field.zero(),) * dim  # scalars are immutable: one zero serves every entry


def unit_vector(field: FieldSpec, dim: int, index: int) -> FieldVector:
    return unit_basis(field, dim)[index]


@cache  # e_1, ..., e_dim once per (field, dim): immutable, unlike a Subspace's memo
def unit_basis(field: FieldSpec, dim: int) -> tuple[FieldVector, ...]:
    zero, one = field.zero(), field.one()  # shared by every row
    return tuple(tuple(one if i == j else zero for i in range(dim)) for j in range(dim))


def as_vector(field: FieldSpec, entries, dim: int | None = None,
              what: str = "vector") -> FieldVector:
    """The entries as a vector over ``field``, of length ``dim`` unless None."""
    out = []
    for e in entries:
        if isinstance(e, FieldScalar):
            if e.field != field:
                raise FieldMismatchError("vector entry from a different field")
            out.append(e)
        else:
            out.append(field.from_rational(Fraction(e)))
    if dim is not None and len(out) != dim:
        raise DimensionMismatchError(f"{what} has wrong length")
    return tuple(out)


def _int_vector(entries, dim: int | None, what: str) -> tuple[int, ...]:
    """The entries as integers (``scalar._decode_int``), ``dim`` of them unless None."""
    try:
        out = tuple(_decode_int(x, f"{what} entry") for x in entries)
    except TypeError as exc:  # not a list
        raise ValidationError(f"{what} must be a list of integers, got {entries!r}") from exc
    if dim is not None and len(out) != dim:
        raise DimensionMismatchError(f"{what} has wrong length")
    return out


def vec_add(u: FieldVector, v: FieldVector) -> FieldVector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: FieldVector, v: FieldVector) -> FieldVector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u: FieldVector) -> FieldVector:
    return tuple(-a for a in u)


def vec_scale(s, u: FieldVector) -> FieldVector:
    return tuple(s * a for a in u)


def mat_vec(rows, v: FieldVector) -> FieldVector:
    """(row . v for each row): rows of field scalars or of ints."""
    return tuple(vec_dot(r, v) for r in rows)


def vec_is_zero(u: FieldVector) -> bool:
    return all(a.is_zero() for a in u)


def vec_mod1(u: FieldVector) -> FieldVector:
    return tuple(a.frac() for a in u)


def flatten(v: FieldVector) -> tuple[list[int], int]:
    """v over the field basis (coordinate j, basis element beta at index
    j * field.dimension + beta): integer numerators over the entries' lcm."""
    den = lcm(*(x.den for x in v))
    return [n * (den // x.den) for x in v for n in x.nums], den


def unflatten(field: FieldSpec, dim: int, nums, den: int = 1) -> FieldVector:
    """The field vector whose flattened coordinates are nums / den."""
    n = field.dimension
    return tuple(_reduced(field, nums[j * n:(j + 1) * n], den) for j in range(dim))


def _pivot_columns(rows) -> tuple[int, ...]:
    """The column of each echelon row's first nonzero entry."""
    return tuple(row.index(next(filter(None, row))) for row in rows)


def _integral(fractions) -> tuple[list[int], int]:
    """Fractions as integer numerators over the lcm of their denominators."""
    den = lcm(*(f.denominator for f in fractions))
    return [f.numerator * (den // f.denominator) for f in fractions], den


def _lowest(nums, den: int) -> list[int]:
    """nums / den as coprime integers, ``_integral`` of its Fractions."""
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    return [x // g for x in nums] if g != 1 else nums


def _symmetric(us, vs, one=None) -> list[list]:
    """The symmetric matrix (u_i . v_j), plus ``one`` on the diagonal unless
    None, from the dot products of its upper triangle."""
    out = [[None] * len(us) for _ in us]
    for i, j in combinations_with_replacement(range(len(us)), 2):
        x = vec_dot(us[i], vs[j])
        out[i][j] = out[j][i] = x + one if i == j and one is not None else x
    return out


# ---------------------------------------------------------------------------
# exact elimination: the one Gauss-Jordan kernel
# ---------------------------------------------------------------------------


def rref_field(rows: list[list], ncols: int | None = None) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination over an exact field; returns (rows, pivot columns).

    Entries may be FieldScalars or Fractions.  Pivots are searched only in
    the first ``ncols`` columns (all columns by default); later columns are
    carried along, so an augmented system [A | b] is reduced by passing
    ncols = width of A.  Each pivot is the first nonzero entry at or below
    the current row; its row is normalized and the column cleared from every
    other row.  All rows are returned, the len(pivots) pivot rows first.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    if ncols is None:
        ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        row = mat[r]
        if row[col] != 1:
            inv = 1 / row[col]
            row = mat[r] = [inv * x for x in row]
        # the pivot row is zero left of col; only its nonzero columns change a row
        support = [j for j in range(col, len(row)) if row[j] != 0]
        for i, other in enumerate(mat):
            if i != r and other[col] != 0:
                f = other[col]
                for j in support:
                    other[j] = other[j] - f * row[j]
        pivots.append(col)
        r += 1
    return mat, pivots


def nullspace(rr: list[list], pivots: list[int], ncols: int, zero, one) -> list[list]:
    """Kernel basis in the first ``ncols`` unknowns, read off a reduced
    echelon form: one vector per free column."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for i, p in enumerate(pivots):
            v[p] = -rr[i][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# subspaces and affine carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of R^d with a canonical RREF basis over the field.

    ``memo`` holds values computed from the subspace alone, filled by their
    callers; it is not part of the value."""

    field: FieldSpec
    ambient: int
    basis: tuple[FieldVector, ...]
    memo: dict = dataclass_field(default_factory=dict, init=False, compare=False,
                                 hash=False, repr=False)

    @staticmethod
    def from_vectors(field: FieldSpec, ambient: int, vectors) -> "Subspace":
        rr, pivots = rref_field([list(as_vector(field, v, ambient, "basis vector"))
                                 for v in vectors])
        return Subspace(field, ambient, tuple(tuple(r) for r in rr[:len(pivots)]))

    @staticmethod
    def zero(field: FieldSpec, ambient: int) -> "Subspace":
        return Subspace(field, ambient, ())

    @staticmethod
    def full(field: FieldSpec, ambient: int) -> "Subspace":
        return Subspace(field, ambient, unit_basis(field, ambient))  # its own RREF

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatchError("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionMismatchError("subspaces in different ambient spaces")

    def _pivot_columns(self) -> list[int]:
        """The leading column of each row of the RREF basis."""
        return [next(j for j, x in enumerate(row) if not x.is_zero()) for row in self.basis]

    def contains(self, v: FieldVector) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatchError("vector has wrong length")
        w = list(v)
        for p, row in zip(self._pivot_columns(), self.basis):
            if not w[p].is_zero():
                f = w[p]
                w = [x - f * y for x, y in zip(w, row)]
        return all(x.is_zero() for x in w)

    def leq(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if self is other or other.is_full():
            return True
        if self.dim >= other.dim:  # only equal canonical bases lie below
            return self.basis == other.basis
        return all(other.contains(row) for row in self.basis)

    def orthogonal_to(self, other: "Subspace") -> bool:
        """self <= other^perp, from dot products of the two bases; never when
        the two dimensions add up past the ambient one."""
        self._check_compatible(other)
        if self.dim + other.dim > self.ambient:
            return False
        return all(vec_dot(u, v).is_zero() for u in self.basis for v in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.is_zero():  # keeps other's object and its memo
            return other
        if other.leq(self):  # one reduction per row instead of an elimination
            return self
        return Subspace.from_vectors(self.field, self.ambient,
                                     list(self.basis) + list(other.basis))

    def orthocomplement(self) -> "Subspace":
        """self^perp, built once per subspace and kept in the memo."""
        if "perp" not in self.memo:
            self.memo["perp"] = Subspace.full(self.field, self.ambient) if self.is_zero() \
                else Subspace.zero(self.field, self.ambient) if self.is_full() \
                else Subspace.from_vectors(self.field, self.ambient, nullspace(
                    self.basis, self._pivot_columns(), self.ambient,
                    self.field.zero(), self.field.one()))
        return self.memo["perp"]

    def meets_orthocomplement(self, other: "Subspace") -> bool:
        """self cap other^perp != 0: the matrix of dot products of the two
        bases has rank below dim self.  Its rank is at most dim other."""
        self._check_compatible(other)
        if other.dim < self.dim:
            return True
        _, pivots = rref_field([[vec_dot(u, v) for v in other.basis] for u in self.basis])
        return len(pivots) < self.dim

    def project(self, v: FieldVector) -> FieldVector:
        """Orthogonal projection of v onto this subspace (exact)."""
        if len(v) == self.ambient and vec_is_zero(v):  # project_all checks the length
            return zero_vector(self.field, self.ambient)
        return self.project_all([v])[0]

    def project_all(self, vectors) -> list[FieldVector]:
        """Orthogonal projections of several vectors: the identity on the full
        space, else x B for the coordinates x = (G^-1 B) v (see the module
        docstring)."""
        vectors = list(vectors)
        if any(len(v) != self.ambient for v in vectors):
            raise DimensionMismatchError("vector has wrong length")
        if self.dim == 0:
            return [zero_vector(self.field, self.ambient) for _ in vectors]
        if self.is_full():
            return [tuple(v) for v in vectors]
        return self._combine([vec_dot(r, v) for r in self._dual_basis()[0]] for v in vectors)

    def projector_columns(self) -> list[FieldVector]:
        """P e_1, ..., P e_d for the symmetric projection P = B^T G^-1 B: P e_{p_i}
        is row i of G^-1 B, and a free column reads (P e_j)_l = (P e_l)_j off the
        columns built, so only the free x free block's upper triangle is dotted."""
        if self.dim == 0 or self.is_full():
            return self.project_all(unit_basis(self.field, self.ambient))
        dual, pivots, plan = self._dual_basis()
        columns = dict(zip(pivots, dual))
        for j in range(self.ambient):
            if j not in columns:
                x = [r[j] for r in dual]
                columns[j] = tuple(columns[i][j] if i in columns else vec_dot(x, plan[i])
                                   for i in range(self.ambient))
        return [columns[j] for j in range(self.ambient)]

    def _dual_basis(self) -> tuple[tuple[FieldVector, ...], tuple[int, ...], tuple]:
        """(G^-1 B, B's pivot columns, per column of B its place among the pivots or
        itself), memoized; G = B B^T = I + F F^T for B = [I | F] up to column order.
        For k = dim <= d - k, one elimination of the rows [G_i | b_i]; else, by G^-1 F =
        F H^-1 and G^-1 = I - F H^-1 F^T for H = I + F^T F, the rows [H | F^T] over
        [F | I], reduced on the m = d - k columns of H, end as [I | H^-1 F^T] over
        [0 | G^-1].  Only the upper triangles of the symmetric G and H are dotted."""
        if "dual_basis" not in self.memo:
            k, pivots = self.dim, tuple(self._pivot_columns())
            if 2 * k <= self.ambient:
                rr, _ = rref_field([g + list(b) for g, b in
                                    zip(_symmetric(self.basis, self.basis), self.basis)], k)
                dual = [tuple(row[k:]) for row in rr]
            else:
                free = [j for j in range(self.ambient) if j not in pivots]
                m, zero, one = len(free), self.field.zero(), self.field.one()
                cols = [[b[j] for b in self.basis] for j in free]  # the columns of F
                rr, _ = rref_field([h + c for h, c in zip(_symmetric(cols, cols, one), cols)]
                                   + [[*f, *(one if i == j else zero for j in range(k))]
                                      for i, f in enumerate(zip(*cols))], m)
                # row i: G^-1 at the pivot columns, (F H^-1)_i at the free ones
                place = sorted(range(self.ambient), key=[*pivots, *free].__getitem__)
                dual = [tuple(map([*g[m:], *(r[m + i] for r in rr[:m])].__getitem__, place))
                        for i, g in enumerate(rr[m:])]
            plan = tuple(pivots.index(j) if j in pivots else column
                         for j, column in enumerate(zip(*self.basis)))
            self.memo["dual_basis"] = (tuple(dual), pivots, plan)
        return self.memo["dual_basis"]

    def _combine(self, coordinates) -> list[FieldVector]:
        """x B for each x: pivot column p_i of the RREF basis B is the unit
        vector e_i, so x B reads x_i there and dots x with the other columns."""
        plan = self._dual_basis()[2]
        return [tuple(x[c] if type(c) is int else vec_dot(x, c) for c in plan)
                for x in coordinates]

    def project_perp(self, v: FieldVector) -> FieldVector:
        return vec_sub(v, self.project(v))

    def wall_key(self, v: FieldVector) -> tuple[int, ...]:
        """The coset key of B v modulo the wall lattice Z.span{B e_j}, for
        the basis B: zero exactly when v lies on self^perp + Z^d, since B
        kills exactly self^perp.  The lattice is built once per subspace."""
        lattice = self.memo.get("wall_lattice")
        if lattice is None:
            lattice = self.memo["wall_lattice"] = CosetLattice.make(
                [], [flatten(column) for column in zip(*self.basis)])
        return lattice.key(*flatten(mat_vec(self.basis, v)))

    def torus_offset(self, offset: FieldVector) -> FieldVector:
        """The offset of the torus carrier self + offset (offset in self^perp)
        modulo the projected lattice P_perp(Z^d): zero on a lattice shift of
        self (a zero ``wall_key`` of self^perp), kept when that lattice is
        dense, else reduced into the fundamental domain of its HNF basis."""
        if vec_is_zero(offset) or not any(self.orthocomplement().wall_key(offset)):
            return zero_vector(self.field, self.ambient)
        if "perp_lattice" not in self.memo:  # (row, pivot column) pairs, or None
            proj = [vec_sub(e, p) for e, p in
                    zip(unit_basis(self.field, self.ambient), self.projector_columns())]
            basis = None
            if all(x.is_rational() for p in proj for x in p):  # pivots at basis element 1
                lattice, n = CosetLattice.make([], [flatten(p) for p in proj]), self.field.dimension
                basis = [(row, p // n) for row, p in
                         zip(lattice.vectors(self.field, self.ambient, False), lattice.z_pivots)]
            self.memo["perp_lattice"] = basis
        basis = self.memo["perp_lattice"]
        if basis is None:
            return offset
        # coordinates over the HNF rows, which span self^perp: row i is zero left
        # of its pivot, so they are read by forward substitution, then floored
        coords = []
        for row, p in basis:
            c = sum((x * earlier[p] for x, (earlier, _) in zip(coords, basis)), self.field.zero())
            coords.append((offset[p] - c) / row[p])
        for x, (row, _) in zip(coords, basis):
            if k := x.floor():
                offset = vec_sub(offset, vec_scale(self.field.from_rational(k), row))
        return offset

    def encode(self) -> dict:
        return {"basis": [[x.encode() for x in row] for row in self.basis]}

    def __repr__(self) -> str:
        rows = "; ".join("(" + ", ".join(repr(x) for x in row) + ")" for row in self.basis)
        return f"Subspace<{self.dim}/{self.ambient}>[{rows}]"


@dataclass(frozen=True)
class AffineCarrier:
    """Affine subset K + offset with the offset reduced orthogonal to K.  A
    torus concise set reads it as the family {span(K, offset - n)^perp : n in
    Z^d} (``classify.ConciseSet``)."""

    subspace: Subspace
    offset: FieldVector

    @staticmethod
    def make(subspace: Subspace, offset=None) -> "AffineCarrier":
        off = zero_vector(subspace.field, subspace.ambient) if offset is None else \
            subspace.project_perp(as_vector(subspace.field, offset, subspace.ambient, "offset"))
        return AffineCarrier(subspace, off)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def is_linear(self) -> bool:
        return vec_is_zero(self.offset)

    def encode(self) -> dict:
        return {"subspace": self.subspace.encode(),
                "offset": [x.encode() for x in self.offset]}


def promote_vector(v: FieldVector, field: FieldSpec) -> FieldVector:
    return tuple(promote_scalar(x, field) for x in v)


def promote_subspace(sub: Subspace, field: FieldSpec) -> Subspace:
    if sub.field == field:
        return sub
    return Subspace.from_vectors(field, sub.ambient,
                                 [promote_vector(row, field) for row in sub.basis])


# ---------------------------------------------------------------------------
# integer matrices: HNF / SNF
# ---------------------------------------------------------------------------

IntMatrix = list[list[int]]


def _xgcd(a: int, b: int) -> tuple[int, int, int, int]:
    """For b != 0, the unimodular [[x, y], [-b/g, a/g]] taking (a, b) to
    (g, 0), g = gcd(a, b): x is the inverse of a/g modulo |b/g|."""
    g = gcd(a, b)
    p, q = a // g, b // g
    x = pow(p, -1, abs(q))
    return x, (1 - p * x) // q, -q, p


def hermite_normal_form(rows) -> tuple[tuple[int, ...], ...]:
    """Row-style HNF of the Z-span of the given integer rows: one extended-gcd
    sweep over the columns (Cohen 1993, Section 2.4).  Canonical: pivots
    positive, strictly increasing pivot columns, entries above a pivot
    reduced into [0, pivot).  Zero rows are dropped."""
    mat = [list(map(int, row)) for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        for i in range(r + 1, len(mat)):  # fold row i into the pivot row r
            if mat[i][col]:
                x, y, s, t = _xgcd(mat[r][col], mat[i][col])
                mat[r], mat[i] = ([x * u + y * v for u, v in zip(mat[r], mat[i])],
                                  [s * u + t * v for u, v in zip(mat[r], mat[i])])
        if r < len(mat) and mat[r][col]:
            if mat[r][col] < 0:
                mat[r] = [-u for u in mat[r]]
            for i in range(r):
                q = mat[i][col] // mat[r][col]
                mat[i] = [u - q * v for u, v in zip(mat[i], mat[r])]
            r += 1
    return tuple(tuple(row) for row in mat[:r])


def smith_normal_form(matrix, rhs) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (U @ B, D, V) with U @ M @ V = D.

    D is diagonal with d_i | d_{i+1} and nonnegative; U, V are unimodular.
    U is not formed: every row operation on M is applied to the rows of the
    right-hand sides B = ``rhs`` (m rows, any number of columns) instead; the
    m x m identity as B gives U itself.  The pivot sequence does not depend
    on B: D and V are the same for every B.  Its one caller is the
    ``pose_lattice_coset`` solve, which passes its right-hand side.
    """
    d = [list(map(int, row)) for row in matrix]
    m = len(d)
    n = len(d[0]) if m else 0
    ub = [list(map(int, row)) for row in rhs]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        ub[i], ub[j] = ub[j], ub[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row_dst += q * row_src
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        ub[dst] = [a + q * b for a, b in zip(ub[dst], ub[src])]

    def add_col(dst, src, q):  # col_dst += q * col_src
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-a for a in d[i]]
        ub[i] = [-a for a in ub[i]]

    k = 0
    while k < min(m, n):
        # find a nonzero entry in the remaining block
        pos = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pos = (i, j)
        if pos is None:
            break
        swap_rows(k, pos[0])
        swap_cols(k, pos[1])
        while True:
            # clear column k
            dirty = False
            for i in range(k + 1, m):
                if d[i][k] != 0:
                    q = d[i][k] // d[k][k]
                    add_row(i, k, -q)
                    if d[i][k] != 0:
                        swap_rows(i, k)
                        dirty = True
            if dirty:
                continue
            # clear row k
            for j in range(k + 1, n):
                if d[k][j] != 0:
                    q = d[k][j] // d[k][k]
                    add_col(j, k, -q)
                    if d[k][j] != 0:
                        swap_cols(j, k)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by d[k][k]
            offending = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if d[i][j] % d[k][k] != 0:
                        offending = i
                        break
                if offending is not None:
                    break
            if offending is None:
                break
            add_row(k, offending, 1)
        if d[k][k] < 0:
            negate_row(k)
        k += 1
    return ub, d, v


# ---------------------------------------------------------------------------
# lattice subgroups of Z^d
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeSubgroup:
    """Subgroup of Z^d, canonicalized to a Hermite-normal-form row basis."""

    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_generators(ambient: int, generators) -> "LatticeSubgroup":
        return LatticeSubgroup(ambient, hermite_normal_form(
            [_int_vector(g, ambient, "generator") for g in generators]))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_trivial(self) -> bool:
        return self.rank == 0

    def contains(self, vector) -> bool:
        """In H exactly when its key modulo the HNF basis, as a z-part, is zero."""
        return not any(CosetLattice((), (), self.basis, 1, _pivot_columns(self.basis)).key(
            _int_vector(vector, self.ambient, "vector")))

    def span(self, field: FieldSpec = QQ) -> Subspace:
        return Subspace.from_vectors(field, self.ambient, self.basis)

    def encode(self) -> dict:
        return {"generators": [list(row) for row in self.basis]}


def saturate(h: LatticeSubgroup) -> LatticeSubgroup:
    """span(H) cap Z^d, the integer points of H's rational span."""
    return h if h.is_trivial() else rationality(h.span()).lattice


@dataclass(frozen=True)
class RationalityReport:
    kind: str                       # completely_rational | irrational | intermediate
    rational_rank: int
    rational_subspace: Subspace     # largest rational subspace of L
    lattice: LatticeSubgroup        # L cap Z^d (saturated)


def rationality(sub: Subspace) -> RationalityReport:
    """Classify a direction L by the rank of L cap Z^d.

    An integer n is in L exactly when sum_j n_j c_j = 0 for the columns c_j
    of the L^perp basis; that system's integer solution lattice is L cap Z^d,
    and its span is the largest rational subspace of L.
    """
    perp = sub.orthocomplement()
    cols = [tuple(row[j] for row in perp.basis) for j in range(sub.ambient)]
    solution = pose_lattice_coset("Z", (), cols, zero_vector(sub.field, perp.dim))(smith=False)
    lattice = LatticeSubgroup.from_generators(sub.ambient, solution.shift_lattice)
    r = lattice.rank
    kind = ("completely_rational" if r == sub.dim else "irrational" if r == 0
            else "intermediate")
    return RationalityReport(kind, r, lattice.span(sub.field), lattice)


# ---------------------------------------------------------------------------
# the lattice coset primitive
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetSolution:
    """Solutions of  t = sum_i c_i u_i + sum_j n_j l_j  in generator
    coordinates, c in the ring and n integral:
        c = coeffs + sum_a z_a * coeff_lattice[a] + (rational combos of coeff_kernel)
        n = shift  + sum_a z_a * shift_lattice[a],        z_a in Z.
    ``coeff_kernel`` is empty for ring Z."""

    coeffs: tuple
    shift: tuple[int, ...]
    coeff_lattice: tuple[tuple, ...]
    shift_lattice: tuple[tuple[int, ...], ...]
    coeff_kernel: tuple[tuple[Fraction, ...], ...]


def pose_lattice_coset(ring: str, us, ls, t: FieldVector):
    """Is t in  ring.span{u_1..u_k} + Z.span{l_1..l_p}  (ring "Z" or "Q")?

    Each coordinate over the field basis is one equation, its columns
    ``flatten``ed over one lcm.  Ring Q makes the c rational unknowns,
    eliminated by ``rref_field``'s pivot rule on integers, each row N over its
    own D (None if that shows t is not in the set); ring Z integral like n.
    ``solve(smith)`` is the solution family or None.  It solves the residual
    rows A n = r, each N // gcd(D, *N) signed as D, by the row HNF of [A^T | I]
    (Cohen 1993, section 2.4): (r, 0) reduced by it has a zero A-part exactly
    when A n = r is feasible, minus its I-part is a particular solution, and
    its rows with a zero A-part are a kernel basis.  ``smith`` uses Smith
    normal form instead, whose particular solution names the printed
    witnesses; with no residual integral equation it returns the HNF family.
    Each answer is computed once.  ``shifts=False`` drops the shift unknowns
    n from the HNF, [A_c^T | I]: n = 0 in its canonical family, for callers
    whose coefficients reach every shift; for ring Z it flattens no shift
    column unless a row without coefficients reads 0 = r, r nonzero."""
    k, p = len(us), len(ls)
    a = k if ring == "Q" else 0  # the rational unknowns: the first a columns
    b = k + p - a                # the integral unknowns
    heads = [flatten(v) for v in (*us, t)]

    @cache
    def system(shifts: bool) -> tuple[list[int], list[list], list[list[int]]]:
        """(pivots, pivot rows [N, D], nonzero residual rows [A | r]) of the rows
        over the lcm D, A over the shift columns too with ``shifts``."""
        flat = [*heads[:-1], *map(flatten, ls), heads[-1]] if shifts else heads
        den = lcm(*(d for _, d in flat))
        rows = [[list(r), den]
                for r in zip(*([x * (den // d) for x in nums] for nums, d in flat))]
        pivots = []  # zero rows too: they take part in the swaps
        for col in range(a):
            r = len(pivots)
            if (piv := next((i for i in range(r, len(rows)) if rows[i][0][col]), None)) is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            row = rows[r][0]
            rows[r][1] = q = row[col]  # row / q has a leading 1
            for i, (n, d) in enumerate(rows):
                if i != r and (f := n[col]):  # n / d - (f / d) (row / q)
                    rows[i] = [[x * q - f * y for x, y in zip(n, row)], d * q]
            pivots.append(col)
        m = len(pivots)
        return pivots, rows[:m], [_lowest(n[a:], d) for n, d in rows[m:] if any(n[a:])]

    def residual(shifts: bool) -> list[list[int]]:  # ring Q: every column, eliminated once
        return system(shifts or a > 0 or not ls)[2]

    if any(not any(row[:-1]) for row in residual(False)) \
            and any(not any(row[:-1]) for row in residual(True)):  # a row 0 = r != 0
        return None
    pivots, pivot_rows, _ = system(True) if a else ((), (), ())
    kernel = () if len(pivots) == a else tuple(map(tuple, nullspace(  # the rational kernel
        [[Fraction(x, d) for x in n[:a]] for n, d in pivot_rows], pivots, a,
        Fraction(0), Fraction(1))))

    def back_substitute(nvec) -> tuple[Fraction, ...]:  # c at n = nvec; a trailing -1: t too
        c = [Fraction(0)] * a
        for (n, d), piv in zip(pivot_rows, pivots):
            c[piv] = Fraction(-sum(x * y for x, y in zip(n[a:], nvec)), d)
        return tuple(c)

    @cache
    def solve(smith: bool, shifts: bool) -> CosetSolution | None:
        eqs = residual(shifts)
        int_rows, int_rhs, mm = [r[:-1] for r in eqs], [r[-1] for r in eqs], len(eqs)
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
        else:  # with no integral equation, HNF = I: every integral unknown is free
            kept = b if shifts else k - a  # the coefficient unknowns come first
            hnf = hermite_normal_form([[r[j] for r in int_rows] + [int(i == j) for i in range(kept)]
                                       for j in range(kept)])
            w = CosetLattice((), (), hnf, 1, _pivot_columns(hnf)).key(int_rhs + [0] * kept)[:-1]
            if any(w[:mm]):
                return None
            pad = (0,) * (b - kept)
            n0 = tuple(-x for x in w[mm:]) + pad
            lattice = [row[mm:] + pad for row in hnf if not any(row[:mm])]
        split = k - a  # for ring Z the coefficients c are the first k integral unknowns
        return CosetSolution(
            back_substitute(n0 + (-1,)) + n0[:split], n0[split:],
            tuple(back_substitute(lam) + lam[:split] for lam in lattice),
            tuple(lam[split:] for lam in lattice), kernel)
    return lambda smith, shifts=True: solve(smith and bool(residual(True)), shifts or smith)


def solve_lattice_coset(ring: str, us, ls, t: FieldVector) -> CosetSolution | None:
    """``pose_lattice_coset``'s system solved by Smith normal form."""
    solve = pose_lattice_coset(ring, us, ls, t)
    return solve and solve(smith=True)


# ---------------------------------------------------------------------------
# canonical coset keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetLattice:
    """The module  Q.span(q_rows) + Z.span(z_rows)  of Q^n in echelon form,
    rows as ``flatten`` gives them: ``q_basis`` is the RREF of the q-rows over
    Fractions, ``z_basis`` the HNF of the z-rows reduced by it, integer rows
    over one ``z_den`` in lowest terms, pivot columns ``z_pivots``.  A finitely
    generated Z-module of Q^n has bounded denominators, so it is a lattice
    and this basis is canonical (Cohen 1993, section 2.4)."""

    q_basis: tuple[tuple[Fraction, ...], ...]
    q_pivots: tuple[int, ...]
    z_basis: tuple[tuple[int, ...], ...]
    z_den: int
    z_pivots: tuple[int, ...]

    @staticmethod
    def make(q_rows, z_rows) -> "CosetLattice":
        rr, pivots = rref_field([[Fraction(x, den) for x in nums] for nums, den in q_rows])
        rational = CosetLattice(tuple(tuple(r) for r in rr[:len(pivots)]), tuple(pivots), (), 1, ())
        z_rows = [rational._reduce_rational(*r) for r in z_rows] if pivots else list(z_rows)
        den = lcm(*(d for _, d in z_rows))
        hnf = hermite_normal_form([[x * (den // d) for x in nums] for nums, d in z_rows])
        if (g := gcd(den, *(x for row in hnf for x in row))) > 1:  # lowest terms: canonical
            hnf, den = tuple(tuple(x // g for x in row) for row in hnf), den // g
        return CosetLattice(rational.q_basis, rational.q_pivots, hnf, den, _pivot_columns(hnf))

    def vectors(self, field: FieldSpec, dim: int, rational: bool) -> list[FieldVector]:
        """The RREF q-rows (``rational``) or the HNF z-rows as field vectors."""
        return [unflatten(field, dim, *(_integral(r) if rational else (r, self.z_den)))
                for r in (self.q_basis if rational else self.z_basis)]

    def _reduce_rational(self, nums, den: int) -> tuple[list[int], int]:
        """nums / den reduced by the RREF q-rows over Fractions, back to integers."""
        w = [Fraction(x, den) for x in nums]
        for row, p in zip(self.q_basis, self.q_pivots):
            if f := w[p]:
                w = [x - f * y for x, y in zip(w, row)]
        return _integral(w)

    def key(self, nums, den: int = 1) -> tuple[int, ...]:
        """The canonical representative of v = nums / den modulo the module, zero in
        the q-pivot columns and in [0, h) at each HNF pivot h: its numerators in
        lowest terms, then their denominator; all zero exactly when v is in it."""
        if self.q_basis:
            nums, den = self._reduce_rational(nums, den)
        common = lcm(den, self.z_den)
        nums = [x * (common // den) for x in nums]
        s, den = common // self.z_den, common  # a z-row over common is s times its row
        for row, p in zip(self.z_basis, self.z_pivots):
            if q := nums[p] // (s * row[p]) * s:
                nums = [x - q * y for x, y in zip(nums, row)]
        g = gcd(den, *nums)
        return (*(x // g for x in nums), den // g if any(nums) else 0)
