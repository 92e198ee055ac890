"""Exact arithmetic in real quadratic-radical fields Q(sqrt(m1), ..., sqrt(mk)).

A field is described by a tuple of square-free, pairwise coprime integers
``m1 < m2 < ... < mk`` (all >= 2).  Its multiplicative basis is
``{prod_{i in S} sqrt(m_i) : S subset}``, indexed by bitmask (index 0 is the
rational unit 1).  An element is stored as 2^k integer numerators over one
shared positive denominator, ``(nums, den)``, in lowest terms:
``gcd(den, *nums) == 1``, so zero is ``((0, ..., 0), 1)`` and equal elements
have equal tuples.  The product of basis elements i and j is basis element
``i ^ j`` times the radicand of ``i & j`` (shared radicals square to their
radicand).  Each roots tuple has one ``FieldSpec`` object, so scalars
compare their fields by identity, and that object holds the field's tables:
the product table, the float basis of the real embedding and the product
kernel compiled from the table, one straight-line function of the integer
numerators through which every product, norm, sign test and dot product
(``vec_dot``) runs.  ``vec_dot`` sums its nonzero terms in one pass over a
running common denominator.  Plain Q (one coefficient) takes a short path
through addition and multiplication.  An irrational element hashes its
integers ``(roots, nums, den)``; a rational one hashes like its ``Fraction``.

The only predicates the rest of the toolkit needs are exact equality with
zero and field arithmetic; no total ordering is exposed.  The one
order-dependent operation, ``floor`` (reduction mod 1 on the torus), is
exact as well: integer square roots bound it and exact sign tests down the
tower of quadratic extensions settle it.  ``float`` is only the embedding the
numerical oracle evaluates.
"""
from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal
from fractions import Fraction
from math import gcd
from numbers import Real

from .errors import FieldMismatchError, ValidationError, check_enumeration

RationalLike = int | Fraction


def _is_square_free(m: int) -> bool:
    if m < 2:
        return False
    check_enumeration(math.isqrt(m), f"trial division of root {m}")
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        if m % d == 0:
            m //= d
        d += 1
    return True


def _product_kernel(table):
    """The product of two numerator vectors over ``table`` as one straight-line
    function: coefficient k is the sum of f * a_i * b_j over i ^ j == k.  It is
    built as ``dataclasses`` builds ``__init__``, and its source holds only the
    indices and radicands of the table, integers of checked roots."""
    sums = [[] for _ in table]
    for i, row in enumerate(table):
        for j, (k, f) in enumerate(row):
            sums[k].append(f"a{i} * b{j}" if f == 1 else f"{f:d} * a{i} * b{j}")
    names = "".join(f"a{i}, " for i in range(len(table)))
    namespace = {}
    exec(f"def product(a, b):\n    {names}= a\n    {names.replace('a', 'b')}= b\n"
         f"    return ({''.join(' + '.join(terms) + ', ' for terms in sums)})\n", namespace)
    return namespace["product"]


@dataclass(frozen=True, init=False)
class FieldSpec:
    """The real field Q(sqrt(m) for m in roots); roots = () is plain Q.  One object per
    roots tuple however it is built, so the ``field is field`` fast paths hit."""

    roots: tuple[int, ...]
    dimension: int = dataclass_field(repr=False, compare=False)
    # _table[i][j] = (i ^ j, radicand of i & j), the product of basis elements i
    # and j; _floats[j] = float of basis element j; _tail = (0,) * (dimension - 1);
    # _mul = _product_kernel(_table); _sub = the field of roots[:-1] (None for Q)
    _table: tuple = dataclass_field(repr=False, compare=False)
    _floats: tuple = dataclass_field(repr=False, compare=False)
    _tail: tuple = dataclass_field(repr=False, compare=False)
    _mul: Callable = dataclass_field(repr=False, compare=False)
    _sub: FieldSpec | None = dataclass_field(repr=False, compare=False)
    _labels: dict = dataclass_field(repr=False, compare=False)  # basis_label(j) -> j
    _interned = {}  # roots tuple -> its one FieldSpec; not a field (no annotation)

    def __new__(cls, roots=()):
        roots = tuple(roots)
        for m in roots:  # before sorting: "2" or None would not compare with 2
            if type(m) is not int:
                raise ValidationError(f"root {m!r} is not an integer")
        spec = cls._interned.get(roots)  # after the integer check: (2.0,) == (2,) as a key
        if spec is not None:
            return spec
        if list(roots) != sorted(set(roots)):
            raise ValidationError(f"roots must be sorted and distinct: {roots}")
        for m in roots:
            if not _is_square_free(m):
                raise ValidationError(f"root {m} is not square-free or is < 2")
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                if math.gcd(a, b) != 1:
                    raise ValidationError(f"roots {a}, {b} are not coprime")
        spec, dim = super().__new__(cls), 1 << len(roots)
        check_enumeration(dim * dim, f"the product table of field {roots}")
        chosen = [[m for bit, m in enumerate(roots) if s >> bit & 1] for s in range(dim)]
        rad = [math.prod(ms) for ms in chosen]
        table = tuple(tuple((i ^ j, rad[i & j]) for j in range(dim)) for i in range(dim))
        floats = tuple(math.prod(map(math.sqrt, ms), start=1.0) for ms in chosen)
        spec.__dict__.update(roots=roots, dimension=dim, _table=table, _floats=floats,
                             _tail=(0,) * (dim - 1), _mul=_product_kernel(table),
                             _sub=FieldSpec(roots[:-1]) if roots else None,
                             _labels={"1" if r == 1 else f"sqrt{r}": j for j, r in enumerate(rad)})
        cls._interned[roots] = spec
        return spec

    def __reduce__(self):  # copy, deepcopy and pickle build through __new__
        return FieldSpec, (self.roots,)

    def basis_radicand(self, index: int) -> int:
        """Product of the roots selected by the bitmask ``index``."""
        return self._table[index][index][1]

    def basis_label(self, index: int) -> str:
        rad = self.basis_radicand(index)
        return "1" if rad == 1 else f"sqrt{rad}"

    def label_index(self, label: str) -> int:
        """The basis index of ``label``, looked up in the table the field keeps."""
        j = self._labels.get(label)
        if j is None:
            raise ValidationError(f"unknown basis label {label!r} for field {self.roots}")
        return j

    def zero(self) -> FieldScalar:
        return FieldScalar(self, (0,) + self._tail, 1)

    def one(self) -> FieldScalar:
        return FieldScalar(self, (1,) + self._tail, 1)

    def from_rational(self, value: RationalLike) -> FieldScalar:
        if type(value) is int:
            return FieldScalar(self, (value,) + self._tail, 1)
        q = Fraction(value)
        return FieldScalar(self, (q.numerator,) + self._tail, q.denominator)

    def sqrt_root(self, m: int) -> FieldScalar:
        """The element sqrt(m) for one of the declared roots."""
        if m not in self.roots:
            raise ValidationError(f"{m} is not a root of field {self.roots}")
        index = 1 << self.roots.index(m)
        return FieldScalar(self, tuple(int(j == index) for j in range(self.dimension)), 1)

    def from_coeffs(self, coeffs) -> FieldScalar:
        vals = [Fraction(c) for c in coeffs]
        if len(vals) != self.dimension:
            raise ValidationError(
                f"expected {self.dimension} coefficients, got {len(vals)}")
        # over the lcm of the reduced denominators the numerators are coprime to it
        den = math.lcm(*(v.denominator for v in vals))
        return FieldScalar(self, tuple(v.numerator * (den // v.denominator)
                                       for v in vals), den)


def _sign(nums, field: FieldSpec) -> int:
    """Exact sign (-1, 0, 1) of the real embedding of an integer coefficient
    vector of ``field``.  With x = a + b*sqrt(m), m the last root and a, b in
    the subfield ``field._sub``, sign(x) is the common sign of a and b, or
    sign(a) * sign(a^2 - m*b^2) when they differ."""
    sub = field._sub
    if sub is None:
        return (nums[0] > 0) - (nums[0] < 0)
    half = len(nums) // 2
    a, b = nums[:half], nums[half:]
    sa, sb = _sign(a, sub), _sign(b, sub)
    if sa * sb >= 0:
        return sa or sb
    m = field.roots[-1]
    return sa * _sign([p - m * q for p, q in zip(sub._mul(a, a), sub._mul(b, b))], sub)


def _reduced(field: FieldSpec, nums, den: int) -> FieldScalar:
    """The element nums / den (den nonzero) in lowest terms."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = tuple(n // g for n in nums)
        den //= g
    return FieldScalar(field, tuple(nums), den)


class FieldScalar:
    """Immutable element of a FieldSpec; behaves like a number.

    Supports +, -, *, / with other scalars of the same field and with plain
    ints/Fractions (coerced).  Equality and hashing are exact.  There is
    deliberately no __lt__: downstream algorithms only use is_zero.

    ``nums`` / ``den`` is the value in lowest terms (see the module
    docstring); the constructor trusts its arguments, so elements are made
    through ``FieldSpec`` (``from_rational``, ``from_coeffs``, ...).
    """

    __slots__ = ("field", "nums", "den", "_hash")

    def __init__(self, field: FieldSpec, nums: tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients over the basis."""
        nums, den = self.nums, self.den  # Fraction(n) skips the gcd of Fraction(n, 1)
        return tuple(map(Fraction, nums) if den == 1 else (Fraction(n, den) for n in nums))

    # -- construction helpers ------------------------------------------------

    def _coerce(self, other) -> "FieldScalar":
        if isinstance(other, FieldScalar):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"cannot mix fields {self.field.roots} and {other.field.roots}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def is_integer(self) -> bool:
        return self.den == 1 and self.is_rational()

    # -- arithmetic ----------------------------------------------------------

    def _add(self, other, sign: int):
        """self + sign * other, sign = 1 or -1."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, da, b, db = self.nums, self.den, o.nums, o.den
        if len(a) == 1:  # plain Q
            n, d = a[0] * db + sign * b[0] * da, da * db
            g = gcd(n, d)
            return FieldScalar(self.field, (n // g,), d // g)
        # as Fraction does: only a prime of gcd(da, db) can divide the result
        g = gcd(da, db)
        s, t = da // g, db // g
        nums = tuple(x * t + sign * y * s for x, y in zip(a, b))
        den = s * db
        if g != 1:
            g2 = gcd(g, *nums)
            if g2 != 1:
                nums = tuple(n // g2 for n in nums)
                den //= g2
        return FieldScalar(self.field, nums, den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldScalar(self.field, tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, den = self.nums, o.nums, self.den * o.den
        if len(a) == 1:  # plain Q
            n = a[0] * b[0]
            g = gcd(n, den)
            return FieldScalar(self.field, (n // g,), den // g)
        return _reduced(self.field, self.field._mul(a, b), den)

    __rmul__ = __mul__

    def invert(self) -> "FieldScalar":
        """Multiplicative inverse: the product of the other Galois conjugates
        divided by the rational norm (the product of all conjugates).

        The conjugate sigma_s (s a nonzero bitmask of roots) negates every
        root in s, so it flips the sign of coefficient i when i & s has an
        odd number of bits.  Both products run on the integer numerators:
        1/(nums/den) = den * others(nums) / norm(nums).
        """
        nums, den, field = self.nums, self.den, self.field
        if self.is_rational():
            n = nums[0]
            if n == 0:
                raise ZeroDivisionError("cannot invert zero field element")
            if n < 0:
                n, den = -n, -den
            return FieldScalar(field, (den,) + field._tail, n)
        mul, others = field._mul, None
        for s in range(1, field.dimension):
            conj = [-c if (i & s).bit_count() & 1 else c for i, c in enumerate(nums)]
            others = conj if others is None else mul(others, conj)
        # the norm nums * others is rational: its coefficient 0
        return _reduced(field, [den * c for c in others], mul(nums, others)[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.invert() if o == 1 else o * self.invert()

    # -- equality / hashing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldScalar):
            return self.field is other.field and self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.nums[0] == other.numerator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self):
        # rational elements equal their Fraction, so they must hash like it
        if self._hash is None:
            if not self.is_rational():
                self._hash = hash((self.field.roots, self.nums, self.den))
            elif self.den == 1:
                self._hash = hash(self.nums[0])
            else:
                self._hash = hash(Fraction(self.nums[0], self.den))
        return self._hash

    # -- numeric embedding -----------------------------------------------------

    def __float__(self) -> float:
        basis, den = self.field._floats, self.den
        return float(sum(n / den * b for n, b in zip(self.nums, basis)))

    def floor(self) -> int:
        """Integer floor of the real embedding, decided exactly: the floors of
        the t nonzero terms c*sqrt(r), by integer square roots, sum to n with
        n <= floor <= n + t - 1, and at most t - 1 exact sign tests settle it."""
        nums, den = self.nums, self.den
        n = nums[0] // den
        t = int(nums[0] != 0)
        for j in range(1, len(nums)):
            p = nums[j]
            if p == 0:
                continue
            t += 1
            # p*sqrt(r)/den is irrational, so floor(-y) = -floor(y) - 1
            s = math.isqrt(p * p * self.field.basis_radicand(j)) // den
            n += s if p > 0 else -s - 1
        if t < 2:
            return n
        for _ in range(t - 1):
            if _sign((nums[0] - (n + 1) * den,) + nums[1:], self.field) < 0:
                break
            n += 1
        return n

    def frac(self) -> "FieldScalar":
        """Fractional part, in [0, 1): self - floor(self)."""
        return self - self.floor()

    # -- text encoding -----------------------------------------------------------

    def encode(self):
        """Canonical JSON value: plain fraction string if rational, else a
        label->fraction object with zero entries omitted."""
        nums, den = self.nums, self.den
        if self.is_rational():
            return _fraction_text(nums[0], den)
        return {self.field.basis_label(j): _fraction_text(n, den)
                for j, n in enumerate(nums) if n}

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            label = self.field.basis_label(j)
            parts.append(str(c) if label == "1" else f"{c}*{label}")
        return " + ".join(parts)


def _nums_den(x, field: FieldSpec | None) -> tuple[tuple[int, ...], int]:
    """(nums, den) of a rational ``vec_dot`` entry; the FieldScalars of ``field``
    take ``vec_dot``'s inline path, so a FieldScalar here is of another field."""
    if type(x) is FieldScalar:
        raise FieldMismatchError(f"cannot mix fields {x.field.roots} in a dot product")
    q = x if type(x) is int else Fraction(x)
    return (q.numerator,) + (() if field is None else field._tail), q.denominator


def vec_dot(u, v):
    """sum_i u_i * v_i in one pass: each term checks both factors' fields, is
    skipped for a zero factor, or else is added over the running lcm of the
    denominators; the sum is reduced once, and no such term gives a zero.
    Entries are FieldScalars of the field of the first entries (else
    FieldMismatchError), or ints and Fractions on either side, such as an
    integer lattice basis; with no FieldScalar the result is a Fraction."""
    field = u[0].field if type(u[0]) is FieldScalar else \
        v[0].field if type(v[0]) is FieldScalar else None
    spec = QQ if field is None else field
    mul, zero = spec._mul, (0,) + spec._tail
    acc, den = None, 1
    for a, b in zip(u, v, strict=True):
        an, ad = (a.nums, a.den) if type(a) is FieldScalar and a.field is field \
            else _nums_den(a, field)
        bn, bd = (b.nums, b.den) if type(b) is FieldScalar and b.field is field \
            else _nums_den(b, field)
        if an != zero and bn != zero:
            term, d = mul(an, bn), ad * bd
            if acc is None:
                acc, den = term, d
            elif d == den:
                acc = [x + y for x, y in zip(acc, term)]
            else:
                common = math.lcm(den, d)
                sa, sb = common // den, common // d
                acc, den = [x * sa + y * sb for x, y in zip(acc, term)], common
    if acc is None:
        return Fraction(0) if field is None else FieldScalar(field, zero, 1)
    return Fraction(acc[0], den) if field is None else _reduced(field, acc, den)


def promote_scalar(s: FieldScalar, field: FieldSpec) -> FieldScalar:
    """Re-express a scalar in a larger field (matched by basis labels)."""
    if s.field == field:
        return s
    nums = [0] * field.dimension
    for j, n in enumerate(s.nums):
        if n:
            nums[field.label_index(s.field.basis_label(j))] = n
    return FieldScalar(field, tuple(nums), s.den)


_RATIO = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # ASCII digits only


def _fraction_text(n: int, den: int = 1) -> str:
    """str(Fraction(n, den)), den > 0, by one gcd; decimal writes long numbers."""
    g = gcd(n, den)
    try:
        return str(n // g) if den == g else f"{n // g}/{den // g}"
    except ValueError:
        return str(Decimal(n // g)) if den == g else f"{Decimal(n // g)}/{Decimal(den // g)}"


def _parse_fraction(text) -> Fraction:
    """Fraction(text), also past sys.int_max_str_digits: decimal reads a long integer or ratio."""
    try:
        return Fraction(text)
    except ValueError:
        match = isinstance(text, str) and _RATIO.fullmatch(text)
        if not match:
            raise
        return Fraction(int(Decimal(match[1])), int(Decimal(match[2] or 1)))


def _decode_fraction(value) -> Fraction:
    """A rational of a document: a fraction string or an int, not a boolean or a float."""
    if isinstance(value, str):
        return _parse_fraction(value)
    if type(value) is int:
        return Fraction(value)
    raise ValidationError(f"cannot decode a fraction from {value!r}")


def _decode_int(value, what: str) -> int:
    """The one integer rule: a finite real number, not a boolean, equal to its int()."""
    if type(value) is int:
        return value
    if isinstance(value, Real) and not isinstance(value, bool) and abs(value) < math.inf \
            and int(value) == value:  # an integral float or Fraction, a numpy integer
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _decode_float(value, what: str) -> float:
    """The one finite-number rule: a real number, not a boolean, in the float range."""
    try:  # math.isfinite overflows on an int or a Fraction past the float range
        if isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _ratio(value) -> tuple[int, int]:
    """(n, d), d > 0, of the rational n / d of a document: an int or a ``-?[0-9]+(/[0-9]+)?``
    string by ``int``, else (or past sys.int_max_str_digits) by ``_decode_fraction``."""
    if type(value) is int:
        return value, 1
    if type(value) is str and (match := _CANONICAL.fullmatch(value)):
        try:
            if d := int(match[2] or 1):
                return int(match[1]), d
        except ValueError:
            pass
    q = _decode_fraction(value)
    return q.numerator, q.denominator


def decode_scalar(field: FieldSpec, value) -> FieldScalar:
    """Parse the canonical encoding (fraction string or label->fraction map) into
    numerators over the lcm of the denominators, reduced once.  Each rational is
    read by ``_ratio``, so ``+3`` or ``1.5`` reads as ``Fraction`` reads it."""
    try:
        if isinstance(value, dict):
            ratios = {field.label_index(label): _ratio(text) for label, text in value.items()}
            den = math.lcm(*(d for _, d in ratios.values()))
            return _reduced(field, [n * (den // d) for n, d in
                                    (ratios.get(j, (0, 1)) for j in range(field.dimension))], den)
        n, d = _ratio(value)
        return _reduced(field, (n,) + field._tail, d)
    except ZeroDivisionError as exc:
        raise ValidationError(f"zero denominator in scalar {value!r}") from exc


QQ = FieldSpec()
