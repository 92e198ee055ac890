"""Exact arithmetic in real quadratic-radical fields Q(sqrt(m1), ..., sqrt(mk)).

A field is described by a tuple of square-free, pairwise coprime integers
``m1 < m2 < ... < mk`` (all >= 2).  Elements are stored as vectors of 2^k
rationals over the multiplicative basis ``{prod_{i in S} sqrt(m_i) : S subset}``,
indexed by bitmask (index 0 is the rational unit 1).  The only predicates the
rest of the toolkit needs are exact equality with zero and field arithmetic;
no total ordering is exposed.  The one order-dependent operation, ``floor``
(reduction mod 1 on the torus), is exact as well: integer square roots bound
it and exact sign tests down the tower of quadratic extensions settle it.
``float`` is only the embedding the numerical oracle evaluates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import FieldMismatchError, ValidationError

RationalLike = int | Fraction


def _is_square_free(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        if m % d == 0:
            m //= d
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The real field Q(sqrt(m) for m in roots); roots = () is plain Q."""

    roots: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        roots = tuple(self.roots)
        if list(roots) != sorted(set(roots)):
            raise ValidationError(f"roots must be sorted and distinct: {roots}")
        for m in roots:
            if not _is_square_free(m):
                raise ValidationError(f"root {m} is not square-free or is < 2")
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                if math.gcd(a, b) != 1:
                    raise ValidationError(f"roots {a}, {b} are not coprime")
        object.__setattr__(self, "roots", roots)

    @property
    def dimension(self) -> int:
        return 1 << len(self.roots)

    def basis_radicand(self, index: int) -> int:
        """Product of the roots selected by the bitmask ``index``."""
        out = 1
        for i, m in enumerate(self.roots):
            if index >> i & 1:
                out *= m
        return out

    def basis_label(self, index: int) -> str:
        rad = self.basis_radicand(index)
        return "1" if rad == 1 else f"sqrt{rad}"

    def label_index(self, label: str) -> int:
        for j in range(self.dimension):
            if self.basis_label(j) == label:
                return j
        raise ValidationError(f"unknown basis label {label!r} for field {self.roots}")

    def basis_floats(self) -> tuple[float, ...]:
        return _basis_floats(self.roots)

    def zero(self) -> FieldScalar:
        return self.from_rational(0)

    def one(self) -> FieldScalar:
        return self.from_rational(1)

    def from_rational(self, value: RationalLike) -> FieldScalar:
        coeffs = [Fraction(0)] * self.dimension
        coeffs[0] = Fraction(value)
        return FieldScalar(self, tuple(coeffs))

    def sqrt_root(self, m: int) -> FieldScalar:
        """The element sqrt(m) for one of the declared roots."""
        if m not in self.roots:
            raise ValidationError(f"{m} is not a root of field {self.roots}")
        coeffs = [Fraction(0)] * self.dimension
        coeffs[1 << self.roots.index(m)] = Fraction(1)
        return FieldScalar(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> FieldScalar:
        vals = tuple(Fraction(c) for c in coeffs)
        if len(vals) != self.dimension:
            raise ValidationError(
                f"expected {self.dimension} coefficients, got {len(vals)}")
        return FieldScalar(self, vals)


@lru_cache(maxsize=None)
def _basis_floats(roots: tuple[int, ...]) -> tuple[float, ...]:
    dim = 1 << len(roots)
    out = []
    for j in range(dim):
        v = 1.0
        for i, m in enumerate(roots):
            if j >> i & 1:
                v *= math.sqrt(m)
        out.append(v)
    return tuple(out)


def _mul(a, b, roots: tuple[int, ...], zero) -> list:
    """Product of two coefficient vectors over the basis of Q(sqrt roots);
    ``zero`` (0 or Fraction(0)) fills the entries no product reaches."""
    out = [zero] * len(a)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            # sqrt-basis product: shared radicals square to their radicand
            c = x * y
            shared = i & j
            for bit, m in enumerate(roots):
                if shared >> bit & 1:
                    c *= m
            out[i ^ j] += c
    return out


def _sign(coeffs, roots: tuple[int, ...]) -> int:
    """Exact sign (-1, 0, 1) of the real embedding of a coefficient vector.
    With x = a + b*sqrt(m), m the last root and a, b in the subfield, sign(x) is
    the common sign of a and b, or sign(a) * sign(a^2 - m*b^2) when they differ."""
    if not roots:
        return (coeffs[0] > 0) - (coeffs[0] < 0)
    half = len(coeffs) // 2
    a, b, sub = coeffs[:half], coeffs[half:], roots[:-1]
    sa, sb = _sign(a, sub), _sign(b, sub)
    if sa * sb >= 0:
        return sa or sb
    return sa * _sign([p - roots[-1] * q
                       for p, q in zip(_mul(a, a, sub, 0), _mul(b, b, sub, 0))], sub)


class FieldScalar:
    """Immutable element of a FieldSpec; behaves like a number.

    Supports +, -, *, / with other scalars of the same field and with plain
    ints/Fractions (coerced).  Equality and hashing are exact.  There is
    deliberately no __lt__: downstream algorithms only use is_zero.
    """

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: FieldSpec, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != field.dimension:
            raise ValidationError("coefficient vector has wrong length")
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    # -- construction helpers ------------------------------------------------

    def _coerce(self, other) -> "FieldScalar":
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix fields {self.field.roots} and {other.field.roots}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValidationError(f"{self} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldScalar(self.field,
                           tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldScalar(self.field,
                           tuple(_mul(self.coeffs, o.coeffs, self.field.roots, Fraction(0))))

    __rmul__ = __mul__

    def invert(self) -> "FieldScalar":
        """Multiplicative inverse: the product of the other Galois conjugates
        divided by the rational norm (the product of all conjugates).

        The conjugate sigma_s (s a nonzero bitmask of roots) negates every
        root in s, so it flips the sign of coefficient i when i & s has an
        odd number of bits.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero field element")
        if self.is_rational():
            return self.field.from_rational(1 / self.coeffs[0])
        conjugates = [FieldScalar(self.field, tuple(
            -c if (i & s).bit_count() & 1 else c for i, c in enumerate(self.coeffs)))
            for s in range(1, self.field.dimension)]
        others = conjugates[0]
        for conj in conjugates[1:]:
            others = others * conj
        norm = (self * others).coeffs[0]
        return FieldScalar(self.field, tuple(c / norm for c in others.coeffs))

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
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        # rational elements equal their Fraction, so they must hash like it
        if self._hash is None:
            self._hash = hash(self.coeffs[0]) if self.is_rational() \
                else hash((self.field.roots, self.coeffs))
        return self._hash

    # -- numeric embedding -----------------------------------------------------

    def __float__(self) -> float:
        basis = self.field.basis_floats()
        return float(sum(float(c) * b for c, b in zip(self.coeffs, basis)))

    def floor(self) -> int:
        """Integer floor of the real embedding, decided exactly: the floors of
        the t nonzero terms c*sqrt(r), by integer square roots, sum to n with
        n <= floor <= n + t - 1, and at most t - 1 exact sign tests settle it."""
        n = t = 0
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            t += 1
            p, q = c.numerator, c.denominator
            if j == 0:
                n += p // q
            else:
                # c*sqrt(r) is irrational, so floor(-y) = -floor(y) - 1
                s = math.isqrt(p * p * self.field.basis_radicand(j)) // q
                n += s if p > 0 else -s - 1
        if t < 2:
            return n
        # sign tests on integer coefficients over a common denominator
        den = math.lcm(*(c.denominator for c in self.coeffs))
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        for _ in range(t - 1):
            if _sign([nums[0] - (n + 1) * den] + nums[1:], self.field.roots) < 0:
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
        if self.is_rational():
            return str(self.coeffs[0])
        return {self.field.basis_label(j): str(c)
                for j, c in enumerate(self.coeffs) if c != 0}

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


def promote_scalar(s: FieldScalar, field: FieldSpec) -> FieldScalar:
    """Re-express a scalar in a larger field (matched by basis labels)."""
    if s.field == field:
        return s
    coeffs = [Fraction(0)] * field.dimension
    for j, c in enumerate(s.coeffs):
        if c != 0:
            coeffs[field.label_index(s.field.basis_label(j))] = c
    return field.from_coeffs(coeffs)


def decode_scalar(field: FieldSpec, value) -> FieldScalar:
    """Parse the canonical encoding (fraction string or label->fraction map)."""
    try:
        if isinstance(value, str):
            return field.from_rational(Fraction(value))
        if isinstance(value, int):
            return field.from_rational(value)
        if isinstance(value, dict):
            coeffs = [Fraction(0)] * field.dimension
            for label, frac in value.items():
                coeffs[field.label_index(label)] = Fraction(frac)
            return field.from_coeffs(coeffs)
    except ZeroDivisionError as exc:
        raise ValidationError(f"zero denominator in scalar {value!r}") from exc
    raise ValidationError(f"cannot decode scalar from {value!r}")


QQ = FieldSpec()
