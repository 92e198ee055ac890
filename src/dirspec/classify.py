"""Directional ergodicity / weak mixing / strong mixing from symbolic measures.

The decision rules implement the wall characterizations: a direction L fails
ergodicity iff the measure charges the wall perpendicular to L through the
origin, fails weak mixing iff it charges some perpendicular affine wall, and
fails strong mixing iff some component's transform does not decay along L.
A component charges an affine wall perpendicular to L exactly when it carries
directional eigenvalues along L, so weak mixing is read off the directional
eigenvalues (``_eigenvalue_carriers``), the one place that decides them,
once per (measure, direction): the wall test, the eigenvalue families and the
verdict read one list, and each carrier's ``Subspace.orthogonal_to`` answer
is kept in the direction's memo, where both concise sets read it again.
Where the classes live mod Z^d (``class_space`` TORUS: torus measures and
periodized classes) walls meet all lattice shifts (``Subspace.wall_key``, or a
group's coset system), and the concise sets are torus sets.  ``_check_direction``
checks every direction and eigenvalue candidate against the measure's space.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import (InvalidDirectionSetError, NotReducedError, ValidationError,
                     bounded_power, check_enumeration)
from .linalg import (AffineCarrier, FieldVector, Subspace, as_vector, mat_vec, unit_basis,
                     vec_add, vec_dot, vec_is_zero, vec_neg, vec_sub, zero_vector)
from .measure import (EUCLID, TORUS, Atom, AtomGroup, BoxLebesgue, Component,
                      SymbolicMeasure, atom_points, exp as measure_exp,
                      group_atom_on_coset, has_atom_at, is_identity, translate,
                      truncated_atom_count, truncated_atoms)
from .scalar import FieldSpec, _decode_int

# the most (shifted family or group atom, shift) pairs ``enumerate_members`` may
# list; chair.json at --enumeration-bound 5 lists 39^2 x 11^2 = 184,041
MEMBER_BUDGET = 200_000


# ---------------------------------------------------------------------------
# wall tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WallWitness:
    component_index: int
    component: Component
    eigenvalue: FieldVector | None = None
    atom: FieldVector | None = None   # a concrete atom on the wall, when atomic

    def encode(self) -> dict:
        wall = self.component.encode()
        wall.pop("weight", None)
        out = {"component": self.component_index, "wall": wall}
        if self.eigenvalue is not None:
            out["eigenvalue"] = [x.encode() for x in self.eigenvalue]
        if self.atom is not None:
            out["atom"] = [x.encode() for x in self.atom]
        return out


@dataclass(frozen=True)
class WallTestResult:
    positive: bool
    witnesses: tuple[WallWitness, ...]


def _on_affine_wall(space: str, sub_l: Subspace, point: FieldVector,
                    ell: FieldVector) -> bool:
    """Is ``point`` on L^perp + ell, modulo Z^d when ``space`` is TORUS (a zero
    ``wall_key`` of point - ell)?  For the full L the wall is ell + {0}, and
    point - ell must be the identity: no lattice is built.  Kept in the subspace's
    memo: the central wall test and NE subordination ask the same walls."""
    key = (space, point, ell)
    answer = sub_l.memo.get(key)  # one lookup: a tuple key hashes every scalar again
    if answer is None:
        diff = vec_sub(point, ell)
        answer = sub_l.memo[key] = is_identity(space, diff) if sub_l.is_full() \
            else not any(sub_l.wall_key(diff)) if space == TORUS \
            else all(vec_dot(b, diff).is_zero() for b in sub_l.basis)
    return answer


def _group_meets_wall(space: str, group: AtomGroup, sub_l: Subspace,
                      ell: FieldVector) -> FieldVector | None:
    """A genuine atom of the group on L^perp + ell (mod Z^d on the torus), or
    None: ``group_atom_on_coset`` with the rows B_L, the target B_L ell and,
    on the torus, the shifts B_L e_j, which a canonical torus group of ring Z
    holds in its module (``shifts_in_module``).  The answer depends only on L and the
    key below, so it is kept in the subspace's memo: the central wall test of
    ``classify_direction`` and ``contains_direction`` on the nonergodic
    concise set pose the same system.  For the full L and the identity ell
    the wall holds only the identity, which no genuine atom is: None without
    a system.
    """
    if sub_l.is_full() and is_identity(space, ell):
        return None
    key = (space, group.ring, group.generators, group.offset, ell)
    answer = sub_l.memo.get(key, ...)  # one lookup; None is a kept answer
    if answer is ...:
        rows = sub_l.basis
        shifts = [tuple(b[j] for b in rows) for j in range(sub_l.ambient)] \
            if space == TORUS else ()
        answer = sub_l.memo[key] = group_atom_on_coset(
            space, group, rows, mat_vec(rows, ell), shifts, space == TORUS and group.ring == "Z")
    return answer


def _check_direction(field: FieldSpec, dim: int, direction: Subspace,
                     ell=None) -> FieldVector:
    """Check that L is a subspace of the measure's space R^d over ``field``,
    and return the eigenvalue candidate ell: zero for None, else of length d in L."""
    if direction.field != field or direction.ambient != dim:
        raise ValidationError("direction incompatible with the measure")
    if ell is None:
        return zero_vector(field, dim)
    ell_vec = as_vector(field, ell, dim, "the eigenvalue candidate")
    if not direction.contains(ell_vec):
        raise ValidationError("the eigenvalue candidate must lie in the direction")
    return ell_vec


def wall_test(m: SymbolicMeasure, direction: Subspace, ell) -> WallTestResult:
    """Decide whether L^perp + ell (resp. its torus projection) is a wall.
    Only the eigenvalue carriers of L can charge it: ell is a directional
    eigenvalue exactly when it is."""
    ell_vec = _check_direction(m.field, m.dim, direction, ell)
    space = m.class_space
    witnesses = []
    for i, point, gens in _eigenvalue_carriers(m, direction):
        comp = m.components[i]
        if gens:
            atom = _group_meets_wall(space, comp, direction, ell_vec)
            if atom is None:
                continue
        elif _on_affine_wall(space, direction, point, ell_vec):
            atom = point if isinstance(comp, Atom) else None
        else:
            continue
        witnesses.append(WallWitness(i, comp, ell_vec, atom))
    return WallTestResult(bool(witnesses), tuple(witnesses))


# ---------------------------------------------------------------------------
# per-direction classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionVerdict:
    direction: Subspace
    ergodic: bool
    weak_mixing: bool
    strong_mixing: bool
    witnesses: tuple[tuple[str, WallWitness], ...]

    def encode(self) -> dict:
        return {"direction": self.direction.encode(),
                "ergodic": self.ergodic,
                "weak_mixing": self.weak_mixing,
                "strong_mixing": self.strong_mixing,
                "witnesses": [{"property": prop, **w.encode()}
                              for prop, w in self.witnesses]}


def classify_direction(m: SymbolicMeasure, direction: Subspace) -> DirectionVerdict:
    """Ergodicity, weak mixing and strong mixing of the class in direction L.

    Ergodic iff the central wall test is negative.  Weak mixing is read off
    the directional eigenvalues: it holds iff no component carries one
    (``_eigenvalue_carriers``), and each carrier's witness is the projection
    onto L of one of its eigenvalue points.  Strong mixing additionally
    requires every box transform to decay along L, i.e. L cap K^perp = 0;
    atoms and atom groups never decay.
    """
    if direction.dim < 1:
        raise ValidationError("directions must have dimension >= 1")
    if m.has_delta_zero():
        raise NotReducedError("measure contains delta_0; classify the reduced class")
    ergodic_result = wall_test(m, direction, None)
    witnesses: list[tuple[str, WallWitness]] = [("ergodic", w)
                                                for w in ergodic_result.witnesses]
    families = {f.component_index: f for f in directional_eigenvalues(m, direction)}
    strong = True
    for i, comp in enumerate(m.components):
        family = families.get(i)
        # a box with eigenvalues has L <= K^perp, so L cap K^perp = L: no decay
        decays = family is None and isinstance(comp, BoxLebesgue) \
            and not direction.meets_orthocomplement(comp.carrier.subspace)
        if decays:
            continue
        if family is not None:  # P_L is linear: P_L(point + g_0) = base + P_L g_0
            gens = family.group_generators
            ell = vec_add(family.base, gens[0]) if gens else family.base
            witnesses.append(("weak_mixing", WallWitness(i, comp, ell)))
        if not decays:
            witnesses.append(("strong_mixing", WallWitness(i, comp, None)))
            strong = False
    return DirectionVerdict(direction, not ergodic_result.positive, not families, strong,
                            tuple(witnesses))


# ---------------------------------------------------------------------------
# concise sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConciseSet:
    """Directions by subordination: L is in the set when L lies in a member.
    An explicit member is kept as what it is the orthocomplement of, a pair
    in ``carriers``: (K, None) for K^perp (the full space for K = 0) or
    (K, c) for span(K, c)^perp, c a Euclidean carrier offset.  A carrier in
    ``families`` names the torus family {span(K, offset - n)^perp : n in Z^d}.
    The listed form, built on first access, kept and compared by equality:
    ``subspaces``, the maximal nonzero explicit members in canonical order,
    and ``parametric_families``, the families not subordinate to them."""
    space: str
    dim: int
    fieldspec: FieldSpec
    carriers: tuple[tuple[Subspace, FieldVector | None], ...] = ()
    families: tuple[AffineCarrier, ...] = ()
    group_families: tuple[AtomGroup, ...] = ()

    @cached_property
    def subspaces(self) -> tuple[Subspace, ...]:
        return _concise_hull([k.orthocomplement() if c is None else Subspace.from_vectors(
            self.fieldspec, self.dim, [*k.basis, c]).orthocomplement() for k, c in self.carriers])

    @cached_property
    def parametric_families(self) -> tuple[AffineCarrier, ...]:
        # a family on carrier K is subordinate to an explicit member s when
        # s^perp <= K, tested as K^perp <= s on K's kept perp
        return tuple(fam for fam in self.families
                     if not any(fam.subspace.orthocomplement().leq(s) for s in self.subspaces))

    def _listed(self) -> tuple:
        return (self.space, self.dim, self.fieldspec, self.subspaces,
                self.parametric_families, self.group_families)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConciseSet) and self._listed() == other._listed()

    def __hash__(self) -> int:
        return hash(self._listed())

    def contains_direction(self, direction: Subspace) -> bool:
        """Subordination: is L contained in some member of the set?  L lies in
        K^perp exactly when it is orthogonal to K, and in span(K, c)^perp (or a
        family's member) when c is also on the wall L^perp: no member is built.
        {0} lies in every member, but only nonzero explicit ones are listed."""
        zero = _check_direction(self.fieldspec, self.dim, direction)
        carriers = self.carriers if direction.dim or self.subspaces else ()
        return any(k.orthogonal_to(direction)
                   and (c is None or _on_affine_wall(self.space, direction, c, zero))
                   for k, c in (*carriers, *((f.subspace, f.offset) for f in self.families))) \
            or any(_group_meets_wall(self.space, group, direction, zero)
                   for group in self.group_families)

    def enumerate_members(self, bound: int = 3) -> tuple[Subspace, ...]:
        """Explicit members: the listed subspaces plus family members for
        shift/coefficient norms up to ``bound`` (deduplicated, pruned).  A
        family is a carrier basis and its points, (K, [offset]) for a
        parametric family and ((), its distinct truncated atoms) for a group;
        its members are span(basis, point - n)^perp over the shifts n (n = 0
        off the torus).  Each nonzero point - n is spanned once, by
        ``Subspace.from_vectors``, and each distinct span complemented once.
        The (family or group atom, shift) pairs are counted first: past
        ``MEMBER_BUDGET`` nothing is listed and ClosureBoundError is raised."""
        bound = _decode_int(bound, "the enumeration bound")
        if bound < 0:
            raise ValidationError("the enumeration bound must be >= 0")
        torus = self.space == TORUS
        to_shift = len(self.parametric_families) + sum(
            truncated_atom_count(group, bound, MEMBER_BUDGET) for group in self.group_families)
        n_shifts = bounded_power(2 * bound + 1, self.dim, MEMBER_BUDGET) if torus else 1
        check_enumeration(to_shift * n_shifts, "the member enumeration "
                          "((families + group atoms) x shifts)", MEMBER_BUDGET)
        shifts = [] if not to_shift else [
            as_vector(self.fieldspec, n)
            for n in (product(range(-bound, bound + 1), repeat=self.dim) if torus
                      else [(0,) * self.dim])]
        families = [(fam.subspace.basis, [fam.offset]) for fam in self.parametric_families]
        families += [((), dict.fromkeys(atom for atom, _ in truncated_atoms(group, bound)))
                     for group in self.group_families]
        spans: dict[Subspace, None] = {}
        for basis, points in families:
            for v in dict.fromkeys(vec_sub(p, n) for p in points for n in shifts):
                if not vec_is_zero(v):
                    spans[Subspace.from_vectors(self.fieldspec, self.dim, [*basis, v])] = None
        return _concise_hull(list(self.subspaces)
                             + [span.orthocomplement() for span in spans])

    def encode(self, bound: int = 3) -> dict:
        return {"subspaces": [s.encode() for s in self.subspaces],
                "parametric_families": [f.encode() for f in self.parametric_families],
                "group_families": [{k: v for k, v in g.encode().items()
                                    if k not in ("kind", "weight")}
                                   for g in self.group_families],
                "enumerated_members": [s.encode()
                                       for s in self.enumerate_members(bound)]}


def _concise_hull(members: list[Subspace]) -> tuple[Subspace, ...]:
    """The maximal nonzero members, each once, sorted by (dim, encoding).

    Bases are canonical RREFs and rational scalars hash like their Fraction,
    so equal subspaces are equal dict keys and ``dict.fromkeys`` deduplicates
    without pairwise tests.  s < t forces dim s < dim t, so by transitivity a
    member needs testing only against the higher-dimensional maximal ones:
    members come in non-increasing dimension, so those are the prefix
    ``out[:higher]`` of the kept ones."""
    out: list[Subspace] = []
    higher = 0
    for s in sorted(dict.fromkeys(members), key=lambda s: -s.dim):
        while higher < len(out) and out[higher].dim > s.dim:
            higher += 1
        if s.dim > 0 and not any(s.leq(out[i]) for i in range(higher)):
            out.append(s)
    return canonical_order(out)


def canonical_order(subspaces) -> tuple[Subspace, ...]:
    """Subspaces in the canonical report order: by dimension, then encoding."""
    subspaces = tuple(subspaces)  # one or none: no encoding to sort by
    return subspaces if len(subspaces) < 2 else tuple(
        sorted(subspaces, key=lambda s: (s.dim, str(s.encode()))))


def nonergodic_concise(m: SymbolicMeasure) -> ConciseSet:
    """The concise set generating all non-ergodic directions by subordination:
    the carrier of each box and atom (a family on the torus when affine) and
    each atom group, kept on the measure.  No member is built here."""
    if m.has_delta_zero():
        raise NotReducedError("measure contains delta_0")
    if "nonergodic_concise" in m.memo:
        return m.memo["nonergodic_concise"]
    carriers: list[tuple[Subspace, FieldVector | None]] = []
    parametric: list[AffineCarrier] = []
    groups: list[AtomGroup] = []
    for comp in m.components:
        if isinstance(comp, AtomGroup):
            groups.append(comp)
        elif comp.carrier.is_linear() or m.class_space == EUCLID:
            carriers.append((comp.carrier.subspace,
                             None if comp.carrier.is_linear() else comp.carrier.offset))
        else:  # a torus atom's family is its own carrier
            parametric.append(comp.carrier)
    return m.memo.setdefault("nonergodic_concise", ConciseSet(
        m.class_space, m.dim, m.field, tuple(carriers), tuple(parametric), tuple(groups)))


def nonwm_concise(m: SymbolicMeasure) -> ConciseSet:
    """Concise set for non-weak-mixing directions: the perps of the carrier
    subspaces, kept as those subspaces; an atom's zero carrier, like an atom
    group's, has the full space as its perp."""
    if m.has_delta_zero():
        raise NotReducedError("measure contains delta_0")
    if "nonwm_concise" in m.memo:
        return m.memo["nonwm_concise"]
    carriers = tuple((Subspace.zero(m.field, m.dim) if isinstance(comp, AtomGroup)
                      else comp.carrier.subspace, None) for comp in m.components)
    return m.memo.setdefault("nonwm_concise", ConciseSet(m.class_space, m.dim, m.field, carriers))


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenvalueFamily:
    """Directional eigenvalues contributed by one component, in closed form:
    base + projection of the shift lattice (+ projected group module)."""

    component_index: int
    base: FieldVector
    lattice_images: tuple[FieldVector, ...] = ()
    group_generators: tuple[FieldVector, ...] = ()
    group_ring: str | None = None

    def encode(self) -> dict:
        out = {"component": self.component_index,
               "base": [x.encode() for x in self.base]}
        if self.lattice_images:
            out["lattice_images"] = [[x.encode() for x in v]
                                     for v in self.lattice_images]
        if self.group_generators:
            out["group_generators"] = [[x.encode() for x in v]
                                       for v in self.group_generators]
            out["group_ring"] = self.group_ring
        return out


def _eigenvalue_carriers(m: SymbolicMeasure, direction: Subspace
                         ) -> tuple[tuple[int, FieldVector, tuple[FieldVector, ...]], ...]:
    """The components that carry directional eigenvalues along L, as
    (index, point, generators): each atom at its point, each atom group at
    its offset with its generators, and each box whose carrier subspace lies
    in L^perp at its carrier offset.  The eigenvalues of a carrier are the
    projections onto L of point + (module of the generators) (+ Z^d on the
    torus).  This is the one place that decides which components carry them;
    the list is kept with L in the measure's one slot, which another L replaces."""
    slot = m.memo.get("eigenvalue_carriers")
    if slot is None or slot[0] != direction:
        out = []
        for i, comp in enumerate(m.components):
            if isinstance(comp, AtomGroup):
                out.append((i, comp.offset, comp.generators))
            elif comp.carrier.subspace.orthogonal_to(direction):  # always for an atom
                out.append((i, comp.carrier.offset, ()))
        slot = m.memo["eigenvalue_carriers"] = (direction, tuple(out))
    return slot[1]


def directional_eigenvalues(m: SymbolicMeasure,
                            direction: Subspace) -> tuple[EigenvalueFamily, ...]:
    """All directional eigenvalue families for L, one per eigenvalue carrier:
    kept with L in the measure's one memo slot (another L replaces them), so the
    verdict reads its witnesses off them and a next call for L reads them back."""
    _check_direction(m.field, m.dim, direction)
    slot = m.memo.get("eigenvalues")
    if slot is None or slot[0] != direction:
        columns = direction.projector_columns() if m.class_space == TORUS else []
        lattice_images = tuple(img for img in columns if not vec_is_zero(img))
        carriers = _eigenvalue_carriers(m, direction)
        units = dict(zip(unit_basis(m.field, m.dim), columns)) \
            if columns and any(gens for _, _, gens in carriers) else {}  # P_L e_j = column j
        slot = m.memo["eigenvalues"] = (direction, tuple(
            EigenvalueFamily(i, units and units.get(point) or direction.project(point),
                             lattice_images,
                             tuple(units and units.get(g) or direction.project(g) for g in gens),
                             m.components[i].ring if gens else None)
            for i, point, gens in carriers))
    return slot[1]


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizationReport:
    measure: SymbolicMeasure
    requested: tuple[Subspace, ...]
    realized_nonergodic: ConciseSet
    realized_nonwm: ConciseSet
    carrier_closure: tuple[Subspace, ...]
    verified: bool
    warnings: tuple[str, ...]

    def encode(self) -> dict:
        return {"measure": self.measure.encode(),
                "requested": [s.encode() for s in self.requested],
                "nonergodic": self.realized_nonergodic.encode(),
                "nonwm": self.realized_nonwm.encode(),
                "carrier_closure": [s.encode() for s in self.carrier_closure],
                "verified": self.verified,
                "warnings": list(self.warnings)}


def realize(directions: list[Subspace], cap: int = 4096) -> RealizationReport:
    """Build a weak mixing spectral class whose non-ergodic and non-weak-mixing
    concise sets equal the prescribed finite family.

    The class is the convolution exponential of the sum of Lebesgue classes
    on the perpendicular subspaces, minus the unit mass at the origin.
    """
    if not directions:
        raise InvalidDirectionSetError("empty direction family")
    fieldspec = directions[0].field
    dim = directions[0].ambient
    warnings: list[str] = []
    for s in directions:
        if s.field != fieldspec or s.ambient != dim:
            raise ValidationError("directions must share field and ambient dimension")
        if s.dim == 0:
            raise InvalidDirectionSetError("the zero subspace is not a direction")
    pruned = _concise_hull(list(directions))
    if len(pruned) != len(directions):
        warnings.append("input family was not concise; pruned to maximal members")
    if any(s.is_full() for s in pruned):
        raise InvalidDirectionSetError(
            "the full space cannot be realized: its perpendicular carrier is {0}, "
            "which yields an atom at the origin")
    boxes = []
    for s in pruned:
        k = s.orthocomplement()
        boxes.append(BoxLebesgue(AffineCarrier.make(k), k.basis, weight=Fraction(1)))
    sigma = SymbolicMeasure.make(EUCLID, dim, fieldspec, boxes)
    closure = measure_exp(sigma, cap=cap)
    reduced_comps = [c for c in closure.components
                     if not (isinstance(c, Atom) and vec_is_zero(c.point))]
    reduced = SymbolicMeasure.make(EUCLID, dim, fieldspec, reduced_comps)
    ne = nonergodic_concise(reduced)
    nw = nonwm_concise(reduced)
    requested = canonical_order(pruned)
    verified = (ne.subspaces == requested == nw.subspaces
                and not ne.parametric_families and not ne.group_families)
    carriers = canonical_order(c.carrier.subspace for c in reduced.components
                               if isinstance(c, BoxLebesgue))
    return RealizationReport(reduced, requested, ne, nw, carriers, verified,
                             tuple(warnings))


# ---------------------------------------------------------------------------
# admissibility lints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintWarning:
    code: str
    message: str

    def encode(self) -> dict:
        return {"code": self.code, "message": self.message}


def admissibility_lint(m: SymbolicMeasure) -> list[LintWarning]:
    """Checks that the class could be a reduced spectral measure of an ergodic
    (resp. weak mixing) action; failures are warnings, never errors.

    (a) the plain-atom set must be closed under the group law (sums and
        negations that do not hit the identity must be atoms);
    (b) translating by any eigenvalue must preserve the class -- checked for
        atom points and group generators, and only once (a) holds, since a
        non-closed atom set already fails symmetry for a trivial reason;
    (c) for atom-free measures, no carrier-perpendicular direction may be
        ergodic yet non weak mixing (ergodicity and weak mixing coincide for
        weak mixing actions).

    A periodized class is linted mod Z^d, like a torus class.
    """
    warnings: list[LintWarning] = []
    atoms = atom_points(m)
    closure_ok = True
    if atoms:
        candidates = [vec_add(a, b) for a in atoms for b in atoms]
        candidates += [vec_neg(a) for a in atoms]
        for point in candidates:
            if not is_identity(m.class_space, point) and not has_atom_at(m, point):
                closure_ok = False
                warnings.append(LintWarning(
                    "atom_closure",
                    f"atom set is not closed under the group law: missing {point}"))
                break
    if closure_ok:
        gammas = list(atoms)
        for comp in m.components:
            if isinstance(comp, AtomGroup):
                gammas.extend(comp.generators)
        # symmetry holds for the full spectral class, delta_0 included:
        # translating by gamma trades mass between 0 and -gamma
        full = m.replace_components(
            list(m.components) + [Atom(zero_vector(m.field, m.dim))])
        for gamma in gammas:
            if not translate(full, gamma).same_class(full):
                warnings.append(LintWarning(
                    "translation_symmetry",
                    f"translation by eigenvalue {gamma} does not preserve the class"))
                break
    if all(isinstance(c, BoxLebesgue) for c in m.components):
        # along L = K^perp the carrier K lies in L^perp, so weak mixing fails there
        for direction in (c.carrier.subspace.orthocomplement() for c in m.components
                          if 0 < c.carrier.subspace.dim < m.dim):
            if not wall_test(m, direction, None).positive:
                warnings.append(LintWarning(
                    "ergodic_not_weak_mixing",
                    f"direction {direction} is ergodic but not weak mixing; "
                    "no weak mixing action has such a reduced spectral measure"))
    return warnings
