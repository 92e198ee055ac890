"""Concrete action models with exact correlation functions.

Each model documents a finite family of observables; for every observable
the exact spectral measure is known in closed form, so the symbolic measure
algebra and the numerical transform can be cross-checked against dynamics:
ft(observable measure, n) must reproduce the correlation (U^n f, f) on
integer grids to machine precision.

Correlations follow (U^n f, f); with the transform convention
ft(sigma, t) = integral e^{-2 pi i a.t} d sigma, the single-observable
measure of an eigenfunction with eigenvalue gamma is the point mass at
-gamma.  Expected (maximal-type) measures are symmetric under negation, so
they carry atoms at the eigenvalues themselves.

The models, their correlations and exact measures use only the standard
library; numpy is imported only inside ``crosscheck``, the one function that
computes float arrays.  Integers (model fields, lattice points, the bound)
and the tolerance are read by ``scalar._decode_int`` and ``_decode_float``.
"""
from __future__ import annotations

import cmath
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import prod

from .errors import (ENUMERATION_BUDGET, UnsupportedConvolutionError, ValidationError,
                     bounded_power, check_enumeration)
from .linalg import (AffineCarrier, FieldVector, Subspace, _int_vector, as_vector,
                     unit_vector, vec_mod1, vec_scale, zero_vector)
from .measure import (TORUS, Atom, AtomGroup, BoxLebesgue, SymbolicMeasure)
from .scalar import FieldScalar, FieldSpec, QQ, _decode_float, _decode_int, decode_scalar

# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bernoulli:
    """Base Z-action: Bernoulli shift, observed through a mean-zero
    norm-one cylinder function at coordinate 0."""

    def encode(self) -> dict:
        return {"kind": "bernoulli"}


@dataclass(frozen=True)
class Rotation1:
    """Base Z-action: circle rotation by ``alpha``."""

    alpha: FieldScalar

    def encode(self) -> dict:
        return {"kind": "rotation1", "alpha": self.alpha.encode()}


@dataclass(frozen=True)
class Rotation:
    """Z^d-action generated by d commuting rotations of one circle."""

    alphas: FieldVector

    def __post_init__(self):
        if not self.alphas:
            raise ValidationError("a rotation needs at least one angle")

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @property
    def field(self) -> FieldSpec:
        return self.alphas[0].field

    def encode(self) -> dict:
        return {"kind": "rotation", "alphas": [a.encode() for a in self.alphas],
                "field_roots": list(self.field.roots)}


@dataclass(frozen=True)
class ProductType:
    """Product Z^d-action of d base Z-actions, acting coordinate-wise."""

    factors: tuple[Bernoulli | Rotation1, ...]

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def field(self) -> FieldSpec:
        for f in self.factors:
            if isinstance(f, Rotation1):
                return f.alpha.field
        return QQ

    def encode(self) -> dict:
        return {"kind": "product_type",
                "factors": [f.encode() for f in self.factors],
                "field_roots": list(self.field.roots)}


@dataclass(frozen=True)
class BergelsonWard:
    """Infinite product of one Bernoulli base along integer frequency
    vectors m_i: factor i moves by n.m_i, so it freezes when n is
    perpendicular to m_i."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        vectors = tuple(_int_vector(v, None, "a frequency vector") for v in self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if len({len(v) for v in vectors}) != 1 or not all(any(v) for v in vectors):
            raise ValidationError("frequency vectors must be nonzero and of one length")
        for a, b in combinations(self.vectors, 2):
            # pairwise non-parallel: all 2x2 minors of the pair vanish iff parallel
            if all(a[i] * b[j] - a[j] * b[i] == 0
                   for i in range(len(a)) for j in range(i + 1, len(a))):
                raise ValidationError(f"frequency vectors {a}, {b} are parallel")

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    @property
    def field(self) -> FieldSpec:
        return QQ

    def encode(self) -> dict:
        return {"kind": "bergelson_ward", "vectors": [list(v) for v in self.vectors]}


@dataclass(frozen=True)
class OdometerEigen:
    """Finite-level stand-in for a d-dimensional q-odometer: its point
    spectrum up to level J in every coordinate."""

    q: int
    level: int
    dim_ambient: int

    def __post_init__(self):
        for name, what in (("q", "q"), ("level", "level"), ("dim_ambient", "dim")):
            object.__setattr__(self, name, _decode_int(getattr(self, name), what))
        if self.q < 2 or self.level < 0 or self.dim_ambient < 1:
            raise ValidationError("an odometer needs q >= 2, level >= 0 and dim >= 1")

    @property
    def dim(self) -> int:
        return self.dim_ambient

    @property
    def field(self) -> FieldSpec:
        return QQ

    def encode(self) -> dict:
        return {"kind": "odometer", "q": self.q, "level": self.level,
                "dim": self.dim_ambient}


ActionModel = Rotation | ProductType | BergelsonWard | OdometerEigen


def decode_model(doc: dict) -> ActionModel:
    if not isinstance(doc, dict):
        raise ValidationError("a model document must be a JSON object")
    kind = doc.get("kind")
    field = FieldSpec(tuple(doc.get("field_roots", ())))
    if kind == "rotation":
        return Rotation(tuple(decode_scalar(field, a) for a in doc["alphas"]))
    if kind == "product_type":
        factors = []
        for f in doc["factors"]:
            if f["kind"] == "bernoulli":
                factors.append(Bernoulli())
            elif f["kind"] == "rotation1":
                factors.append(Rotation1(decode_scalar(field, f["alpha"])))
            else:
                raise ValidationError(f"unknown base model {f['kind']!r}")
        return ProductType(tuple(factors))
    if kind == "bergelson_ward":
        return BergelsonWard(doc["vectors"])
    if kind == "odometer":
        return OdometerEigen(doc["q"], doc["level"], doc["dim"])
    raise ValidationError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# observables and correlations
# ---------------------------------------------------------------------------


def observables(model: ActionModel) -> list[str]:
    """The documented finite observable family of a model."""
    if isinstance(model, Rotation):
        return [f"exp{k}" for k in (1, 2, 3)]
    if isinstance(model, ProductType):
        ids = []
        for r in range(1, model.dim + 1):
            for subset in combinations(range(1, model.dim + 1), r):
                ids.append("factors:" + ",".join(map(str, subset)))
        return ids
    if isinstance(model, BergelsonWard):
        ids = [f"factor:{i + 1}" for i in range(len(model.vectors))]
        ids += [f"pair:{i + 1},{j + 1}"
                for i, j in combinations(range(len(model.vectors)), 2)]
        return ids
    levels = range(model.level + 1)
    return ["level:" + ",".join(map(str, combo))
            for combo in iproduct(levels, repeat=model.dim)
            if any(combo)]


def _phase(theta: float) -> complex:
    return cmath.exp(2j * cmath.pi * theta)


def correlation(model: ActionModel, n, observable: str) -> complex:
    """(U^n f, f) for the documented observable f, n in Z^d."""
    n = _int_vector(n, None, "a lattice point")
    if len(n) != model.dim:
        raise ValidationError("lattice point has wrong dimension")
    return _correlator(model, observable)(n)


def _correlator(model: ActionModel, observable: str) -> Callable[[tuple[int, ...]], complex]:
    """``correlation`` at a checked lattice point n, the observable id parsed once."""
    if isinstance(model, Rotation):
        k = _rotation_harmonic(model, observable)
        alphas = [float(a) for a in model.alphas]
        return lambda n: _phase(k * sum(a * ni for a, ni in zip(alphas, n)))
    if isinstance(model, ProductType):
        subset = _product_subset(model, observable)
        zeros = [i for i in subset if isinstance(model.factors[i], Bernoulli)]
        alphas = [(i, float(model.factors[i].alpha)) for i in subset if i not in zeros]
        return lambda n: complex(0.0) if any(n[i] for i in zeros) else \
            prod((_phase(a * n[i]) for i, a in alphas), start=complex(1.0))
    if isinstance(model, BergelsonWard):
        vectors = [model.vectors[i] for i in _bw_indices(model, observable)]
        return lambda n: complex(0.0) if any(sum(m * ni for m, ni in zip(v, n))
                                             for v in vectors) else complex(1.0)
    # sum n_i / q^j_i = N / q^top: N mod q^top over q^top rounds once, as a Fraction
    levels = _odometer_levels(model, observable)
    top = max(levels)
    den, weights = model.q ** top, [(i, model.q ** (top - j)) for i, j in enumerate(levels) if j]
    return lambda n: _phase(sum(n[i] * w for i, w in weights) % den / den)


def _rotation_harmonic(model: Rotation, observable: str) -> int:
    if not observable.startswith("exp"):
        raise ValidationError(f"unknown observable {observable!r}")
    try:
        return int(observable[3:])
    except ValueError as exc:
        raise ValidationError(f"unknown observable {observable!r}") from exc


def _id_integers(observable: str, heads: tuple[str, ...], low: int,
                 high: int) -> tuple[str, list[int]]:
    """The head and the integers of an observable id ``head:i,j,...``: a head
    of ``heads`` and integers in [low, high], else a ValidationError."""
    head, _, rest = observable.partition(":")
    try:
        ints = [int(s) for s in rest.split(",")] if head in heads else []
    except ValueError:
        ints = []  # as unknown as a foreign head
    if not ints or any(i < low or i > high for i in ints):
        raise ValidationError(f"unknown observable {observable!r}")
    return head, ints


def _product_subset(model: ProductType, observable: str) -> list[int]:
    return [i - 1 for i in _id_integers(observable, ("factors",), 1, model.dim)[1]]


def _bw_indices(model: BergelsonWard, observable: str) -> list[int]:
    head, ints = _id_integers(observable, ("factor", "pair"), 1, len(model.vectors))
    if len(ints) != (1 if head == "factor" else 2):
        raise ValidationError(f"unknown observable {observable!r}")
    return [i - 1 for i in ints]


def _odometer_levels(model: OdometerEigen, observable: str) -> tuple[int, ...]:
    levels = tuple(_id_integers(observable, ("level",), 0, model.level)[1])
    if len(levels) != model.dim or not any(levels):
        raise ValidationError(f"unknown observable {observable!r}")
    return levels


# ---------------------------------------------------------------------------
# expected and per-observable spectral measures
# ---------------------------------------------------------------------------


def observable_measure(model: ActionModel, observable: str) -> SymbolicMeasure:
    """Exact spectral measure of one observable (ft of it equals the
    correlation on Z^d)."""
    field = model.field
    d = model.dim
    if isinstance(model, Rotation):
        k = _rotation_harmonic(model, observable)
        point = vec_mod1(vec_scale(field.from_rational(-k), model.alphas))
        return SymbolicMeasure.make(TORUS, d, field, [Atom(point)])
    if isinstance(model, ProductType):
        subset = _product_subset(model, observable)
        box_coords = [i for i in subset if isinstance(model.factors[i], Bernoulli)]
        rot_coords = [i for i in subset if isinstance(model.factors[i], Rotation1)]
        shift = zero_vector(field, d)
        for i in rot_coords:
            alpha = model.factors[i].alpha
            shift = tuple(x - alpha if j == i else x for j, x in enumerate(shift))
        # no Bernoulli coordinate: the zero-dimensional box, an atom after ``make``
        sub = Subspace.from_vectors(field, d,
                                    [unit_vector(field, d, i) for i in box_coords])
        comp = BoxLebesgue(AffineCarrier.make(sub, shift), sub.basis,
                           center=vec_mod1(shift))
        return SymbolicMeasure.make(TORUS, d, field, [comp])
    if isinstance(model, BergelsonWard):
        idxs = _bw_indices(model, observable)
        gens = [as_vector(field, model.vectors[i]) for i in idxs]
        sub = Subspace.from_vectors(field, d, gens)
        comp = BoxLebesgue(AffineCarrier.make(sub), tuple(gens))
        return SymbolicMeasure.make(TORUS, d, field, [comp])
    levels = _odometer_levels(model, observable)
    point = vec_mod1(as_vector(
        field, [-Fraction(1, model.q ** j) if j else Fraction(0) for j in levels]))
    return SymbolicMeasure.make(TORUS, model.dim, field, [Atom(point)])


def expected_measure(model: ActionModel) -> SymbolicMeasure:
    """The model's reduced spectral class (maximal spectral type off the
    constants), at the resolution the component algebra can express."""
    field = model.field
    d = model.dim
    if isinstance(model, Rotation):
        return SymbolicMeasure.make(
            TORUS, d, field,
            [AtomGroup((model.alphas,), "Z", zero_vector(field, d))])
    if isinstance(model, ProductType):
        kinds = {type(f) for f in model.factors}
        if kinds == {Bernoulli}:
            check_enumeration(_observable_count(model), "the product's box set")
            comps = []
            for r in range(1, d + 1):
                for subset in combinations(range(d), r):
                    sub = Subspace.from_vectors(
                        field, d, [unit_vector(field, d, i) for i in subset])
                    comps.append(BoxLebesgue(AffineCarrier.make(sub), sub.basis))
            return SymbolicMeasure.make(TORUS, d, field, comps)
        if kinds == {Rotation1}:
            gens = tuple(vec_scale(f.alpha, unit_vector(field, d, i))
                         for i, f in enumerate(model.factors))
            return SymbolicMeasure.make(
                TORUS, d, field, [AtomGroup(gens, "Z", zero_vector(field, d))])
        raise UnsupportedConvolutionError(
            "mixed Bernoulli/rotation product measures need atom-group * box "
            "components, which have no finite carrier description")
    if isinstance(model, BergelsonWard):
        comps = []
        for v in model.vectors:
            gen = as_vector(field, v)
            sub = Subspace.from_vectors(field, d, [gen])
            comps.append(BoxLebesgue(AffineCarrier.make(sub), (gen,)))
        # convolution closure truncated at pairwise sums (depth 2)
        for (i, vi), (j, vj) in combinations(enumerate(model.vectors), 2):
            sub = Subspace.from_vectors(field, d, [vi, vj])
            comps.append(BoxLebesgue(AffineCarrier.make(sub), sub.basis))
        return SymbolicMeasure.make(TORUS, d, field, comps)
    check_enumeration(bounded_power(model.q, model.level * model.dim),
                      "the odometer atom set")
    atoms = []
    denom = model.q ** model.level
    for combo in iproduct(range(denom), repeat=model.dim):
        if not any(combo):
            continue
        atoms.append(Atom(as_vector(field, [Fraction(k, denom) for k in combo])))
    return SymbolicMeasure.make(TORUS, model.dim, field, atoms)


# ---------------------------------------------------------------------------
# cross checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosscheckReport:
    passed: bool
    bound: int
    tolerance: float
    max_error: float
    failures: tuple[tuple[str, tuple[int, ...], float], ...]

    def encode(self) -> dict:
        return {"passed": self.passed, "bound": self.bound,
                "tolerance": self.tolerance, "max_error": self.max_error,
                "failures": [{"observable": o, "n": list(n), "error": e}
                             for o, n, e in self.failures]}


def crosscheck(model: ActionModel, bound: int = 10,
               tol: float = 1e-12) -> CrosscheckReport:
    """Assert ft(observable measure, n) == correlation(n) on |n|_inf <= bound."""
    bound = _decode_int(bound, "the crosscheck bound")
    tol = _decode_float(tol, "the crosscheck tolerance")
    if bound < 0 or tol < 0:
        raise ValidationError(f"the crosscheck needs a bound >= 0 and a tolerance >= 0, "
                              f"got {bound} and {tol}")
    d = model.dim
    check_enumeration(_observable_count(model) * bounded_power(2 * bound + 1, d),
                      "the crosscheck (observables x grid points)")
    import numpy as np

    from .fourier import ft_batch

    points = list(iproduct(range(-bound, bound + 1), repeat=d))
    grid = np.array(points, dtype=float)
    max_err = 0.0
    failures = []
    failed = 0
    for obs in observables(model):
        correlate = _correlator(model, obs)
        for n, v in zip(points, ft_batch(observable_measure(model, obs), grid).tolist()):
            err = abs(v - correlate(n))
            if err > max_err:
                max_err = err
            if err >= tol:
                failed += 1
                if len(failures) < 32:  # the report lists the first 32
                    failures.append((obs, n, float(err)))
    return CrosscheckReport(not failed, bound, tol, float(max_err), tuple(failures))


def _observable_count(model: ActionModel) -> int:
    """len(observables(model)), saturated like ``bounded_power``; the 2^d - 1
    resp. (level+1)^d - 1 observables of products and odometers are counted
    without listing them, the power capped at budget + 1 so that the count
    stays saturated at budget + 1."""
    if isinstance(model, (ProductType, OdometerEigen)):
        base = 2 if isinstance(model, ProductType) else model.level + 1
        return bounded_power(base, model.dim, ENUMERATION_BUDGET + 1) - 1
    return len(observables(model))

