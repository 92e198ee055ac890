"""Symbolic finite Borel measures on R^d or T^d up to equivalence of measures.

A measure is a finite list of components over one field:

* ``Atom``        -- a point mass: the zero-dimensional box, read through
                     the same ``carrier``/``generators``/``rep_center``,
* ``BoxLebesgue`` -- the Lebesgue class on an affine carrier K + offset,
                     with a centered-zonotope representative (its Fourier
                     transform is an exact product of sinc factors),
* ``AtomGroup``   -- the purely atomic class supported on offset + module,
                     where the module is the Z- or Q-span of finitely many
                     generators (the zero point of the ambient space is
                     excluded from the atom set).

Classification consumes only the equivalence class; weights exist so the
numerical Fourier oracle has a concrete representative.  A Euclidean measure
can carry a ``periodized`` flag meaning the class of all its lattice
translates with summable positive weights.  Such a class lives mod Z^d like
a torus class (``SymbolicMeasure.class_space``), and all its data is stored
reduced mod Z^d.
"""
from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import cached_property

from .errors import (ClosureBoundError, DimensionMismatchError, FieldMismatchError,
                     UnsupportedConvolutionError, ValidationError, bounded_power, check_enumeration)
from .linalg import (AffineCarrier, CosetLattice, FieldVector,
                     LatticeSubgroup, Subspace, as_vector, flatten, mat_vec,
                     pose_lattice_coset, promote_subspace, promote_vector, unit_vector,
                     vec_add, vec_is_zero, vec_mod1, vec_neg, vec_scale, vec_sub, zero_vector)
from .scalar import (FieldSpec, _decode_fraction, _decode_int, _fraction_text,
                     decode_scalar)

EUCLID = "euclidean"
TORUS = "torus"


def _check_weight(w) -> Fraction:
    w = w if type(w) is Fraction else Fraction(w)  # a decoded weight is one already
    if w <= 0:
        raise ValidationError("component weight must be positive")
    return w


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """The point mass at ``point``: a box on the zero subspace, no generators."""

    point: FieldVector
    weight: Fraction = Fraction(1)

    generators = ()

    @property
    def dim(self) -> int:
        return 0

    @cached_property
    def carrier(self) -> AffineCarrier:
        # cached in the instance dict: no part of ==, hash or repr
        return AffineCarrier(Subspace.zero(self.point[0].field, len(self.point)), self.point)

    def rep_center(self) -> FieldVector:
        return self.point

    def encode(self) -> dict:
        return {"kind": "atom",
                "point": [x.encode() for x in self.point],
                "weight": _fraction_text(*self.weight.as_integer_ratio())}


@dataclass(frozen=True)
class BoxLebesgue:
    """Lebesgue class on carrier.subspace + carrier.offset.

    The carrier offset is the canonical class datum (orthogonal to the
    subspace, lattice-reduced on the torus).  ``center`` locates the
    concrete centered-zonotope representative; it may differ from the
    offset by a vector inside the subspace, which classification ignores
    but the Fourier transform must keep for exact phases.
    """

    carrier: AffineCarrier
    generators: tuple[FieldVector, ...]
    center: FieldVector | None = None
    weight: Fraction = Fraction(1)

    @property
    def dim(self) -> int:
        return self.carrier.dim

    def rep_center(self) -> FieldVector:
        return self.center if self.center is not None else self.carrier.offset

    def encode(self) -> dict:
        d = {"kind": "box",
             "basis": [[x.encode() for x in row] for row in self.carrier.subspace.basis],
             "offset": [x.encode() for x in self.carrier.offset],
             "weight": _fraction_text(*self.weight.as_integer_ratio())}
        if self.generators != self.carrier.subspace.basis:
            d["generators"] = [[x.encode() for x in g] for g in self.generators]
        if self.center is not None and self.center != self.carrier.offset:
            d["center"] = [x.encode() for x in self.center]
        return d


@dataclass(frozen=True)
class AtomGroup:
    generators: tuple[FieldVector, ...]   # canonical module basis (ring-dependent)
    ring: str                             # "Z" | "Q"
    offset: FieldVector
    weight: Fraction = Fraction(1)

    @property
    def dim(self) -> int:
        return 0

    def encode(self) -> dict:
        d = {"kind": "atom_group",
             "generators": [[x.encode() for x in g] for g in self.generators],
             "ring": self.ring,
             "weight": _fraction_text(*self.weight.as_integer_ratio())}
        if not vec_is_zero(self.offset):
            d["offset"] = [x.encode() for x in self.offset]
        return d


Component = Atom | BoxLebesgue | AtomGroup


def _encode_sort_key(comp: Component):
    return (comp.__class__.__name__, comp.dim, json.dumps(comp.encode(), sort_keys=True))


# ---------------------------------------------------------------------------
# canonicalization helpers
# ---------------------------------------------------------------------------


def module_lattice(field: FieldSpec, dim: int, generators, ring: str,
                   space: str) -> CosetLattice:
    """The ring-span of the generators plus Z^d on the torus (atom sets mod 1
    are unchanged), in coordinates flattened over the field basis."""
    gens = [flatten(as_vector(field, g, dim, "atom group generator")) for g in generators]
    units = [flatten(unit_vector(field, dim, j)) for j in range(dim)] \
        if space == TORUS else []
    if ring == "Q":
        return CosetLattice.make(gens, units)
    if ring == "Z":
        return CosetLattice.make([], gens + units)
    raise ValidationError(f"unknown ring {ring!r}")


def coefficient_pool(ring: str, bound: int) -> list[Fraction]:
    """The ring's coefficients of norm at most ``bound``, sorted: the integers
    in [-bound, bound], or for ring Q every p/q with |p|, q <= bound."""
    if ring == "Z":
        return [Fraction(k) for k in range(-bound, bound + 1)]
    return sorted({Fraction(p, q) for p in range(-bound, bound + 1)
                   for q in range(1, bound + 1)})


def coefficient_pool_size(ring: str, bound: int, cap: int) -> int:
    """len(coefficient_pool(ring, bound)) without building it, or just its
    2 * bound + 1 integers when they alone pass ``cap``.  Over Q the pool is
    0 and +-p/q for each reduced p/q with p, q in 1..bound: 4 (phi(1) + ... +
    phi(bound)) - 1 values, with Euler's totient phi sieved."""
    if ring == "Z" or 2 * bound + 1 > cap:
        return 2 * bound + 1
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for j in range(p, bound + 1, p):
                phi[j] -= phi[j] // p
    return 4 * sum(phi[1:]) - 1 if bound else 0


def truncated_atoms(group: AtomGroup, bound: int) -> Iterator[tuple[FieldVector, int]]:
    """The one walk over a group's truncated atoms: (offset + sum_i c_i g_i,
    sum_i (|p_i| + q_i - 1)) for each combination c = (p_i / q_i) of
    ``coefficient_pool(group.ring, bound)`` in ``itertools.product`` order,
    repeated atoms included.  p/q in lowest terms has the least size
    |p| + q - 1 of its representations.  Each c g_i is formed once per pool
    coefficient and each prefix sum over the first generators once, in that
    order; the last generator's terms are added as the atoms are yielded."""
    pool = [(c, abs(c.numerator) + c.denominator - 1)
            for c in coefficient_pool(group.ring, bound)]
    terms = [[(vec_scale(c, g), size) for c, size in pool] for g in group.generators]
    prefixes = [(group.offset, 0)]
    for level in terms[:-1]:
        prefixes = [(vec_add(p, t), ps + s) for p, ps in prefixes for t, s in level]
    for p, ps in prefixes:
        for t, s in terms[-1]:
            yield vec_add(p, t), ps + s


def truncated_atom_count(group: AtomGroup, bound: int, cap: int) -> int:
    """How many atoms ``truncated_atoms(group, bound)`` yields, or cap + 1 if more."""
    return bounded_power(coefficient_pool_size(group.ring, bound, cap),
                         len(group.generators), cap)


def group_element_from_coeffs(group: AtomGroup, coeffs, with_offset: bool) -> FieldVector:
    """offset + sum_i coeffs[i] * generators[i] (offset optional)."""
    combination = mat_vec(tuple(zip(*group.generators)), tuple(coeffs))
    return vec_add(group.offset, combination) if with_offset else combination


def is_identity(space: str, v: FieldVector) -> bool:
    """Is v the group identity of the space: integral on T^d, zero on R^d?"""
    if space == TORUS:
        return all(x.is_integer() for x in v)
    return vec_is_zero(v)


def group_atom_on_coset(space: str, group: AtomGroup, rows, target: FieldVector,
                        shifts, shifts_in_module: bool = False) -> FieldVector | None:
    """A genuine atom a of the group (not ``is_identity(space, a)``) with
    rows·a in target + Z.span(shifts), or None: what wall tests and subgroup
    images ask, posed as one coset system (u_i = rows g_i, l_j = -s_j,
    t = target - rows offset).  Its HNF solution decides (no basis of the
    solution coset changes whether it holds a genuine atom); only a yes runs
    SNF, whose solution names the witness.

    ``shifts_in_module``: the group is a torus group of ring Z with Z^d in its
    module (every canonical one: ``module_lattice`` adds e_j) and the shifts are
    rows·e_j, so the HNF decision drops the shift unknowns.  If a in G has rows·a
    = target + rows·n, then a - n is in G, on the wall with n = 0 and the same
    atom mod Z^d; and for ring Z ``_coset_atom`` finds a genuine atom in a family
    whenever its coset (particular atom + Z-span of its lattice) holds one."""
    solve = pose_lattice_coset(group.ring, [mat_vec(rows, g) for g in group.generators],
                               [vec_neg(s) for s in shifts],
                               vec_sub(target, mat_vec(rows, group.offset)))
    if solve is None:
        return None
    family = solve(smith=False, shifts=not shifts_in_module)
    atom = _coset_atom(space, group, family)
    if atom is None or solve(smith=True) is family:  # no integral equation, no SNF
        return atom
    return _coset_atom(space, group, solve(smith=True))


def _coset_atom(space: str, group: AtomGroup, sol) -> FieldVector | None:
    """The genuine atom in a coset solution, or None: its particular atom, else that
    plus the first lattice direction off the identity, else plus a scaled kernel one."""
    if sol is None:
        return None
    base = group_element_from_coeffs(group, sol.coeffs, True) if any(sol.coeffs) else group.offset
    if not is_identity(space, base):
        return base
    for lam in filter(any, sol.coeff_lattice):
        u = group_element_from_coeffs(group, lam, False)
        if not is_identity(space, u):
            return vec_add(base, u)
    for vk in sol.coeff_kernel:
        v = group_element_from_coeffs(group, vk, False)
        x = next((x for x in v if not x.is_zero()), None)
        if x is None:
            continue
        # scale so that coordinate lands at 1/2 past an integer; an
        # irrational coordinate escapes at scale 1 already
        if x.is_rational():
            return vec_add(base, vec_scale(x.field.from_rational(
                Fraction(1, 2) / x.as_rational()), v))
        return vec_add(base, v)
    return None


def module_member(group: AtomGroup, v: FieldVector, space: str) -> bool:
    """Is v in offset + module (+ Z^d on the torus)?  Exactly when the
    coset key of v - offset is zero."""
    lattice = module_lattice(v[0].field, len(v), group.generators, group.ring, space)
    return not any(lattice.key(*flatten(vec_sub(v, group.offset))))


def _box_key(space: str, sub: Subspace, offset: FieldVector) -> tuple:
    """Class key of the carrier sub + offset, offset perpendicular to sub: on
    R^d that offset, already canonical; on T^d the ``wall_key`` of the offset
    on sub^perp, zero exactly when the offset lies on sub + Z^d."""
    if space == EUCLID:
        return ("box", sub, offset)
    return ("box", sub, sub.orthocomplement().wall_key(offset))


def class_key(space: str, comp: Component) -> tuple:
    """Key of a canonical component's class: two components of a measure
    have the same class exactly when their keys are equal.  Atom: the point;
    box: ``_box_key`` (a ``wall_key`` on T^d, zero exactly when the carrier's
    ``torus_offset`` is); atom group: the ring, the canonical generators and
    the coset key of the offset modulo the module (+ Z^d on the torus)."""
    if isinstance(comp, Atom):
        return ("atom", comp.point)
    if isinstance(comp, BoxLebesgue):
        return _box_key(space, comp.carrier.subspace, comp.carrier.offset)
    offset = comp.offset
    lattice = module_lattice(offset[0].field, len(offset), comp.generators, comp.ring, space)
    return ("group", comp.ring, comp.generators, lattice.key(*flatten(comp.offset)))


# ---------------------------------------------------------------------------
# the measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicMeasure:
    space: str
    dim: int
    field: FieldSpec
    components: tuple[Component, ...]
    periodized: bool = False
    # its concise sets and each direction's eigenvalue families; not part of the value
    memo: dict = dataclass_field(default_factory=dict, init=False, compare=False,
                                 hash=False, repr=False)

    # -- construction --------------------------------------------------------

    @staticmethod
    def make(space: str, dim: int, field: FieldSpec, components,
             periodized: bool = False) -> "SymbolicMeasure":
        if space not in (EUCLID, TORUS):
            raise ValidationError(f"unknown space {space!r}")
        if space == TORUS and periodized:
            raise ValidationError("periodized flag is only valid on euclidean space")
        shell = SymbolicMeasure(space, dim, field, (), periodized)
        canon: dict[tuple, Component] = {}  # first-seen component per key
        for comp in components:
            keyed = _canonicalize_component(shell.class_space, dim, field, comp)
            if keyed is None:
                continue
            c, key = keyed
            prev = canon.get(key)
            canon[key] = c if prev is None else replace(prev, weight=prev.weight + c.weight)
        comps = tuple(canon.values())  # one or none: no encoding to sort by
        return replace(shell, components=comps if len(comps) < 2 else
                       tuple(sorted(comps, key=_encode_sort_key)))

    @property
    def class_space(self) -> str:
        """The space the classes live in: TORUS for torus measures and for
        periodized ones (classes mod Z^d), EUCLID otherwise."""
        return TORUS if self.periodized else self.space

    def is_zero(self) -> bool:
        return not self.components

    def replace_components(self, components) -> "SymbolicMeasure":
        return SymbolicMeasure.make(self.space, self.dim, self.field, components,
                                    self.periodized)

    def _check_compatible(self, other: "SymbolicMeasure") -> None:
        if self.space != other.space or self.dim != other.dim:
            raise DimensionMismatchError("measures on different spaces")
        if self.field != other.field:
            raise FieldMismatchError("measures over different fields")

    # -- class-level equality -------------------------------------------------

    def same_class(self, other: "SymbolicMeasure") -> bool:
        """Equivalence of measure classes: same spaces and the same set of
        component classes (weights, box generators and the number of
        components representing one class are class-irrelevant)."""
        if (self.space, self.dim, self.field) != (other.space, other.dim, other.field):
            return False
        if self.periodized != other.periodized:
            return False
        mine, theirs = ({class_key(m.class_space, c) for c in m.components}
                        for m in (self, other))
        return mine == theirs

    def has_delta_zero(self) -> bool:
        """True if the class contains a point mass at the group identity
        (on periodized Euclidean measures: at any lattice point)."""
        return any(isinstance(c, Atom) and is_identity(self.class_space, c.point)
                   for c in self.components)

    # -- encoding ---------------------------------------------------------------

    def encode(self) -> dict:
        return {"space": self.space,
                "dim": self.dim,
                "field_roots": list(self.field.roots),
                "periodized": self.periodized,
                "zero": self.is_zero(),
                "components": [c.encode() for c in self.components]}

    @staticmethod
    def decode(doc: dict) -> "SymbolicMeasure":
        try:
            space = doc["space"]
            dim = _decode_int(doc["dim"], "dim")
            field = FieldSpec(tuple(doc.get("field_roots", ())))
            periodized = doc.get("periodized", False)
            if type(periodized) is not bool:
                raise ValidationError(f"periodized must be true or false, got {periodized!r}")
            comp_docs = doc["components"]
            if dim < 1:
                raise ValidationError(f"dim must be >= 1, got {dim}")
            check_enumeration(dim, "the dimension of a measure")
            if not isinstance(comp_docs, list) or not all(isinstance(c, dict)
                                                          for c in comp_docs):
                raise ValidationError("components must be a list of objects")
            comps = [decode_component(field, dim, c) for c in comp_docs]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad measure document: {exc}") from exc
        return SymbolicMeasure.make(space, dim, field, comps, periodized)


# ---------------------------------------------------------------------------
# component canonicalization
# ---------------------------------------------------------------------------


def _canonicalize_component(space: str, dim: int, field: FieldSpec,
                            comp: Component) -> tuple[Component, tuple] | None:
    """Canonical form of a component (None for the zero measure) and the key
    ``make`` merges it by: its ``class_key``; a box's subspace, centre, generators.
    A box eliminates generators other than its carrier's RREF basis and
    projects a centre other than the carrier's offset (``AffineCarrier.make``
    projected that).  A torus box keeps its carrier's ``Subspace.torus_offset``."""
    if isinstance(comp, Atom):
        point = as_vector(field, comp.point, dim, "atom point")
        if space == TORUS:
            point = vec_mod1(point)
        return Atom(point, _check_weight(comp.weight)), ("atom", point)

    if isinstance(comp, BoxLebesgue):
        sub = comp.carrier.subspace
        if sub.field != field:
            raise FieldMismatchError("box subspace over a different field")
        if sub.ambient != dim:
            raise DimensionMismatchError("box subspace has wrong ambient dimension")
        center = as_vector(field, comp.rep_center(), dim, "box center")
        if sub.dim == 0:
            # a zero-dimensional box is a point mass
            return _canonicalize_component(space, dim, field, Atom(center, comp.weight))
        gens = tuple(as_vector(field, g) for g in comp.generators) \
            or sub.basis
        if gens != sub.basis and Subspace.from_vectors(field, dim, gens) != sub:
            raise ValidationError("box generators must span exactly the carrier subspace")
        if space == TORUS:
            center = vec_mod1(center)
        offset = center if center == comp.carrier.offset else sub.project_perp(center)
        if space == TORUS:
            offset = sub.torus_offset(offset)
        return (BoxLebesgue(AffineCarrier(sub, offset), gens, center, _check_weight(comp.weight)),
                ("box", sub, center, frozenset(Counter(gens).items())))

    if isinstance(comp, AtomGroup):
        lattice = module_lattice(field, dim, comp.generators, comp.ring, space)
        # the canonical module basis: RREF rows for ring Q, HNF rows for ring Z
        gens = tuple(lattice.vectors(field, dim, comp.ring == "Q"))
        offset = as_vector(field, comp.offset, dim, "atom group offset")
        offset_key = lattice.key(*flatten(offset))
        if not any(offset_key):
            offset = zero_vector(field, dim)
        elif space == TORUS:
            offset = vec_mod1(offset)
        if not gens or comp.ring == "Z" and all(is_identity(space, g) for g in gens):
            # the module is trivial (mod Z^d on the torus): at most one atom
            # survives, none when the offset lies in the module
            if not any(offset_key):
                return None
            return _canonicalize_component(space, dim, field, Atom(offset, comp.weight))
        return (AtomGroup(gens, comp.ring, offset, _check_weight(comp.weight)),
                ("group", comp.ring, gens, offset_key))

    raise ValidationError(f"unknown component {comp!r}")


def decode_component(field: FieldSpec, dim: int, doc: dict) -> Component:
    kind = doc.get("kind")
    weight = _decode_fraction(doc.get("weight", 1))

    def vector(entries) -> FieldVector:
        return tuple(decode_scalar(field, x) for x in entries)

    def optional(key: str) -> FieldVector | None:
        return vector(doc[key]) if doc.get(key) else None

    if kind == "atom":
        return Atom(vector(doc["point"]), weight)
    if kind == "box":
        sub = Subspace.from_vectors(field, dim, [vector(row) for row in doc["basis"]])
        offset = optional("offset") or zero_vector(field, dim)
        gens = tuple(vector(g) for g in doc.get("generators", [])) or sub.basis
        return BoxLebesgue(AffineCarrier.make(sub, offset), gens, optional("center"), weight)
    if kind == "atom_group":
        gens = tuple(vector(g) for g in doc["generators"])
        return AtomGroup(gens, doc["ring"], optional("offset") or zero_vector(field, dim),
                         weight)
    raise ValidationError(f"unknown component kind {kind!r}")


# ---------------------------------------------------------------------------
# measure algebra
# ---------------------------------------------------------------------------


def add(m1: SymbolicMeasure, m2: SymbolicMeasure) -> SymbolicMeasure:
    m1._check_compatible(m2)
    if m1.periodized != m2.periodized:
        raise ValidationError("cannot add periodized and plain measures")
    return m1.replace_components(list(m1.components) + list(m2.components))


def translate(m: SymbolicMeasure, v) -> SymbolicMeasure:
    """m convolved with the unit point mass at v."""
    shift = Atom(as_vector(m.field, v, m.dim, "translation"))
    return m.replace_components([_convolve_pair(shift, c) for c in m.components])


def _convolve_pair(a: Component, b: Component) -> Component:
    """Atoms and boxes add their carriers; a group takes an atom as a shift,
    or another group over the same ring."""
    weight = a.weight * b.weight
    if not isinstance(a, AtomGroup) and not isinstance(b, AtomGroup):
        sub = a.carrier.subspace.sum_with(b.carrier.subspace)
        center = vec_add(a.rep_center(), b.rep_center())
        return BoxLebesgue(AffineCarrier.make(sub, center), a.generators + b.generators,
                           center, weight)
    group, other = (a, b) if isinstance(a, AtomGroup) else (b, a)
    if isinstance(other, Atom):
        return AtomGroup(group.generators, group.ring, vec_add(group.offset, other.point),
                         weight)
    if isinstance(other, BoxLebesgue):
        raise UnsupportedConvolutionError(
            "atom group * box has no finite carrier description")
    if a.ring != b.ring:
        raise UnsupportedConvolutionError(
            "convolution of atom groups over different rings is not representable")
    return AtomGroup(a.generators + b.generators, a.ring, vec_add(a.offset, b.offset), weight)


def convolve(m1: SymbolicMeasure, m2: SymbolicMeasure) -> SymbolicMeasure:
    m1._check_compatible(m2)
    out = [_convolve_pair(a, b) for a in m1.components for b in m2.components]
    return SymbolicMeasure.make(m1.space, m1.dim, m1.field, out,
                                m1.periodized or m2.periodized)


def exp(m: SymbolicMeasure, cap: int = 4096) -> SymbolicMeasure:
    """Class of the convolution exponential delta_0 + sum_n sigma^(n)/n!.

    Computed as the closure of the component set under convolution (carriers
    only; box representatives are re-based on their carrier), with the unit
    point mass added.  The closure is the set of finite sums of base
    components, and the class of a*b depends only on the classes of a and b,
    so each round convolves the new members with the base components other
    than delta_0 only.  Raises ClosureBoundError past ``cap`` (mid-round
    after the first), and ValidationError for a cap < 0.
    """
    cap = _decode_int(cap, "the component cap")
    if cap < 0:
        raise ValidationError(f"the component cap must be >= 0, got {cap}")
    over_cap = f"convolution closure exceeded the component cap {cap}"
    delta0 = Atom(zero_vector(m.field, m.dim))

    def norm(comp: Component) -> Component:
        # carrier-level representative: boxes re-based on the carrier basis
        if isinstance(comp, BoxLebesgue):
            return BoxLebesgue(comp.carrier, comp.carrier.subspace.basis,
                               comp.carrier.offset, Fraction(1))
        if isinstance(comp, Atom):
            return Atom(comp.point, Fraction(1))
        return AtomGroup(comp.generators, comp.ring, comp.offset, Fraction(1))

    base = SymbolicMeasure.make(m.space, m.dim, m.field,
                                [norm(c) for c in m.components] + [delta0],
                                m.periodized)
    pool: list[Component] = list(base.components)
    seen = {class_key(m.class_space, c) for c in pool}
    # delta_0 * b is b, so the unit point mass is no factor
    factors = [c for c in pool if not (isinstance(c, Atom) and vec_is_zero(c.point))]
    frontier = factors
    while frontier:
        new: list[Component] = []
        for a in factors:
            for b in frontier:
                keyed = _canonicalize_component(m.class_space, m.dim, m.field,
                                                norm(_convolve_pair(a, b)))
                if keyed is None:
                    continue
                c = norm(keyed[0])
                key = class_key(m.class_space, c)
                if key not in seen:
                    seen.add(key)
                    new.append(c)
                    # round 1 (all factor pairs) runs whole: unsupported pairs raise first
                    if len(pool) + len(new) > cap and frontier is not factors:
                        raise ClosureBoundError(over_cap)
        if len(pool) + len(new) > cap:
            raise ClosureBoundError(over_cap)
        pool.extend(new)
        frontier = new
    return SymbolicMeasure.make(m.space, m.dim, m.field, pool, m.periodized)


def pushforward_quotient(m: SymbolicMeasure) -> SymbolicMeasure:
    """Push a Euclidean measure to the torus through t -> t mod Z^d."""
    if m.space != EUCLID:
        raise ValidationError("pushforward_quotient expects a euclidean measure")
    return SymbolicMeasure.make(TORUS, m.dim, m.field, m.components, False)


def suspend(m: SymbolicMeasure) -> SymbolicMeasure:
    """Lift a torus measure to the periodized Euclidean class sum_n a_n (m o tau^n).

    The positive weight sequence is never materialized; the class is encoded
    by the ``periodized`` flag.
    """
    if m.space != TORUS:
        raise ValidationError("suspend expects a torus measure")
    return SymbolicMeasure.make(EUCLID, m.dim, m.field, m.components, True)


def pushforward_subgroup(m: SymbolicMeasure, h: LatticeSubgroup
                         ) -> tuple[SymbolicMeasure, tuple[tuple[int, ...], ...]]:
    """Push a torus measure to the dual of a lattice subgroup H of rank e.

    The identification of the dual of H with T^e maps the character a to
    (a.h_1, ..., a.h_e) mod 1 over the HNF basis rows h_i; components map
    through this integer-linear map.  Returns the measure and the e x d
    identification matrix.
    """
    if m.space != TORUS:
        raise ValidationError("pushforward_subgroup expects a torus measure")
    if h.is_trivial():
        raise ValidationError("subgroup must be nontrivial")
    if h.ambient != m.dim:
        raise DimensionMismatchError("subgroup ambient dimension mismatch")
    rows = h.basis
    e = len(rows)
    field = m.field
    units = [unit_vector(field, e, j) for j in range(e)]

    comps: list[Component] = []
    for c in m.components:
        if isinstance(c, AtomGroup):
            # a genuine source atom landing on 0 in the quotient: the pushed class
            # has an explicit point mass there on top of the image group
            if group_atom_on_coset(TORUS, c, rows, zero_vector(field, e), units):
                comps.append(Atom(zero_vector(field, e), c.weight))
            comps.append(AtomGroup(tuple(mat_vec(rows, g) for g in c.generators), c.ring,
                                   mat_vec(rows, c.offset), c.weight))
        else:
            # an atom, or a box collapsing to a point, becomes an atom in ``make``
            image_gens = [mat_vec(rows, g) for g in c.generators]
            image_gens = [g for g in image_gens if not vec_is_zero(g)]
            center = mat_vec(rows, c.rep_center())
            comps.append(BoxLebesgue(
                AffineCarrier.make(Subspace.from_vectors(field, e, image_gens), center),
                tuple(image_gens), center, c.weight))
    return SymbolicMeasure.make(TORUS, e, field, comps, False), rows


def decompose(m: SymbolicMeasure) -> list[SymbolicMeasure]:
    """Split into wall measures by carrier dimension: returns [m_0, ..., m_d].

    Components of equal dimension are merged per identical carrier; the sum
    of the parts is the input class.
    """
    buckets: list[dict[tuple, Component]] = [{} for _ in range(m.dim + 1)]
    for c in m.components:
        bucket = buckets[c.dim]
        key = class_key(m.class_space, c)
        prev = bucket.get(key)
        bucket[key] = c if prev is None else replace(prev, weight=prev.weight + c.weight)
    return [SymbolicMeasure.make(m.space, m.dim, m.field, list(bucket.values()),
                                 m.periodized)
            for bucket in buckets]


def promote_field(m: SymbolicMeasure, field: FieldSpec) -> SymbolicMeasure:
    """Re-express a measure in a larger field containing the current one."""
    if m.field == field:
        return m
    comps: list[Component] = []
    for c in m.components:
        gens = tuple(promote_vector(g, field) for g in c.generators)
        if isinstance(c, AtomGroup):
            comps.append(AtomGroup(gens, c.ring, promote_vector(c.offset, field), c.weight))
        else:  # an atom comes back from ``make`` as an atom
            sub = promote_subspace(c.carrier.subspace, field)
            comps.append(BoxLebesgue(
                AffineCarrier.make(sub, promote_vector(c.carrier.offset, field)),
                gens, promote_vector(c.rep_center(), field), c.weight))
    return SymbolicMeasure.make(m.space, m.dim, field, comps, m.periodized)


def atom_points(m: SymbolicMeasure) -> list[FieldVector]:
    """Points of the plain Atom components (atom groups are reported separately)."""
    return [c.point for c in m.components if isinstance(c, Atom)]


def has_atom_at(m: SymbolicMeasure, point) -> bool:
    """Does the class give positive mass to the single point?  Points are
    compared in ``m.class_space``: mod Z^d on the torus and for periodized
    classes, whose atom points are stored reduced."""
    space = m.class_space
    p = as_vector(m.field, point, m.dim, "point")
    if space == TORUS:
        p = vec_mod1(p)
    for c in m.components:
        if isinstance(c, Atom) and c.point == p:
            return True
        # the identity is never an atom of an atom group
        if isinstance(c, AtomGroup) and not is_identity(space, p) \
                and module_member(c, p, space):
            return True
    return False
