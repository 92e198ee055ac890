import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import dirspec
from dirspec import classify as C
from dirspec import fourier as FT
from dirspec import measure as M
from dirspec import oracle as O
from dirspec.errors import (DimensionMismatchError, DirspecError, FieldMismatchError,
                            ValidationError)
from dirspec.linalg import AffineCarrier, LatticeSubgroup, Subspace, as_vector
from dirspec.scalar import QQ, FieldSpec


def test_public_names_are_pinned():
    # adding or removing a public name is a reviewed change of this list
    assert sorted(dirspec.__all__) == [
        "AffineCarrier", "Atom", "AtomGroup", "BergelsonWard", "Bernoulli", "BoxLebesgue",
        "ConciseSet", "DirectionVerdict", "EstimatorConfig", "FieldScalar", "FieldSpec",
        "LatticeSubgroup", "OdometerEigen", "ProductType", "QQ", "Rotation", "Rotation1",
        "Subspace", "SymbolicMeasure", "add", "admissibility_lint", "classify",
        "classify_direction", "convolve", "correlation", "crosscheck", "decompose",
        "directional_eigenvalues", "errors", "exp", "expected_measure", "fourier",
        "ft_batch", "linalg", "measure", "nonergodic_concise", "nonwm_concise",
        "observable_measure", "observables", "oracle", "pushforward_quotient",
        "pushforward_subgroup", "rajchman_probe", "rationality", "realize", "saturate",
        "scalar", "suspend", "translate", "wall_test", "wiener_mass"]


class TestLazyImport:
    """``import dirspec`` loads no submodule, and the CLI loads the oracle only
    for its command; each check runs in a fresh interpreter."""

    @staticmethod
    def run(*lines):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_submodule_and_star_binds_every_name(self):
        self.run(
            "import sys, dirspec",
            "assert not [m for m in sys.modules if m.startswith('dirspec.')], sorted(sys.modules)",
            "assert len(dirspec.__all__) == 51",
            "names = {}",
            "exec('from dirspec import *', names)",
            "assert sorted(n for n in names if n != '__builtins__') == sorted(dirspec.__all__)",
            "import dirspec.linalg, dirspec.oracle",
            "assert names['Subspace'] is dirspec.linalg.Subspace is vars(dirspec)['Subspace']",
            "assert names['crosscheck'] is dirspec.oracle.crosscheck",
            "assert names['errors'] is sys.modules['dirspec.errors']",
            "try:",
            "    dirspec.no_such_name",
            "except AttributeError as exc:",
            "    assert 'no_such_name' in str(exc)",
            "else:",
            "    raise AssertionError('no AttributeError')")

    def test_only_the_oracle_command_loads_the_oracle(self, fixtures_dir):
        measure, model = (str(fixtures_dir / f) for f in ("bw8.json", "rotation_model.json"))
        self.run(
            "import contextlib, io, sys, dirspec.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert dirspec.cli.main(['decompose', '--measure', {measure!r}]) == 0",
            "assert 'dirspec.oracle' not in sys.modules",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert dirspec.cli.main(['oracle', '--model', {model!r}, '--bound', '3']) == 0",
            "assert 'dirspec.oracle' in sys.modules")


# ---------------------------------------------------------------------------
# the library's validation branches, called in process
# ---------------------------------------------------------------------------

F2 = FieldSpec((2,))
X = Subspace.from_vectors(QQ, 2, [[1, 0]])


def _torus(field=QQ, dim=2, comps=None):
    return M.SymbolicMeasure.make(M.TORUS, dim, field, comps or [
        M.Atom(as_vector(field, [Fraction(1, 3)] + [0] * (dim - 1)))])


def _euclid(periodized=False):
    return M.SymbolicMeasure.make(M.EUCLID, 2, QQ, [M.Atom(as_vector(QQ, [1, 2]))],
                                  periodized)


def _box(sub):
    return M.BoxLebesgue(AffineCarrier.make(sub), sub.basis)


_GROUP = M.AtomGroup((as_vector(QQ, [Fraction(1, 2), 0]),), "Z", as_vector(QQ, [0, 0]))
_PRODUCT = O.ProductType((O.Bernoulli(), O.Bernoulli()))
_ROTATION = O.Rotation(as_vector(QQ, [Fraction(1, 3)]))
_EVEN = LatticeSubgroup.from_generators(2, [[2, 0]])


VALIDATION = {
    "wall_test/direction-field": (
        lambda: C.wall_test(_torus(), Subspace.from_vectors(F2, 2, [[1, 0]]), None),
        ValidationError),
    "wall_test/direction-ambient": (
        lambda: C.wall_test(_torus(), Subspace.from_vectors(QQ, 3, [[1, 0, 0]]), None),
        ValidationError),
    "realize/mixed-ambients": (
        lambda: C.realize([X, Subspace.from_vectors(QQ, 3, [[1, 0, 0]])]), ValidationError),
    "ft_batch/point-dimension": (
        lambda: FT.ft_batch(_torus(), np.zeros((4, 3))), ValidationError),
    "wiener_mass/ell-off-direction": (
        lambda: FT.wiener_mass(_torus(), X, [0, 1]), ValidationError),
    "wiener_mass/zero-direction": (
        lambda: FT.wiener_mass(_torus(), Subspace.zero(QQ, 2), None), ValidationError),
    "rajchman_probe/zero-direction": (
        lambda: FT.rajchman_probe(_torus(), Subspace.zero(QQ, 2), [1.0]), ValidationError),
    "as_vector/scalar-field": (
        lambda: as_vector(QQ, [F2.sqrt_root(2)]), FieldMismatchError),
    "Subspace.leq/fields": (
        lambda: Subspace.full(QQ, 2).leq(Subspace.full(F2, 2)), FieldMismatchError),
    "LatticeSubgroup.from_generators/length": (
        lambda: LatticeSubgroup.from_generators(2, [[1, 0, 0]]), DimensionMismatchError),
    "convolve/dimensions": (
        lambda: M.convolve(_torus(), _torus(dim=3)), DimensionMismatchError),
    "convolve/fields": (
        lambda: M.convolve(_torus(), _torus(F2)), FieldMismatchError),
    "add/periodized-and-plain": (
        lambda: M.add(_euclid(), _euclid(periodized=True)), ValidationError),
    "pushforward_quotient/torus": (
        lambda: M.pushforward_quotient(_torus()), ValidationError),
    "suspend/euclidean": (lambda: M.suspend(_euclid()), ValidationError),
    "pushforward_subgroup/trivial": (
        lambda: M.pushforward_subgroup(_torus(), LatticeSubgroup.from_generators(2, [])),
        ValidationError),
    "pushforward_subgroup/ambient": (
        lambda: M.pushforward_subgroup(
            _torus(), LatticeSubgroup.from_generators(3, [[1, 0, 0]])),
        DimensionMismatchError),
    "make/box-subspace-field": (
        lambda: _torus(comps=[_box(Subspace.from_vectors(F2, 2, [[1, 0]]))]),
        FieldMismatchError),
    "make/box-subspace-ambient": (
        lambda: _torus(comps=[_box(Subspace.from_vectors(QQ, 3, [[1, 0, 0]]))]),
        DimensionMismatchError),
    "make/group-offset-length": (
        lambda: _torus(comps=[M.AtomGroup((as_vector(QQ, [Fraction(1, 2), 0]),), "Z",
                                          as_vector(QQ, [0, 0, 0]))]),
        DimensionMismatchError),
    "make/box-center-short": (
        lambda: _torus(comps=[M.BoxLebesgue(AffineCarrier.make(X), X.basis,
                                            as_vector(QQ, [Fraction(1, 3)]))]),
        DimensionMismatchError),
    "make/box-center-long": (
        lambda: M.SymbolicMeasure.make(M.EUCLID, 2, QQ, [M.BoxLebesgue(
            AffineCarrier.make(X), X.basis, as_vector(QQ, [Fraction(1, 3), 0, 1]))]),
        DimensionMismatchError),
    "make/unknown-component": (lambda: _torus(comps=[object()]), ValidationError),
    "correlation/half": (lambda: O.correlation(_PRODUCT, (1.5, 0), "factors:1"),
                         ValidationError),
    "correlation/string": (lambda: O.correlation(_PRODUCT, ("2", 0), "factors:1"),
                           ValidationError),
    "correlation/boolean": (lambda: O.correlation(_PRODUCT, (True, 0), "factors:1"),
                            ValidationError),
    "Subspace.contains/short": (lambda: X.contains(as_vector(QQ, [1])), DimensionMismatchError),
    "Subspace.contains/long": (
        lambda: X.contains(as_vector(QQ, [1, 0, 1])), DimensionMismatchError),
    # projections check the length as ``contains`` does, on every kind of subspace
    **{f"Subspace.project/{length}-{name}": (
        lambda sub=sub, v=v: sub.project(as_vector(QQ, v)), DimensionMismatchError)
       for name, sub in [("zero", Subspace.zero(QQ, 3)),
                         ("line", Subspace.from_vectors(QQ, 3, [[1, 2, 0]])),
                         ("full", Subspace.full(QQ, 3))]
       for length, v in [("short", [1, 2]), ("long", [1, 2, 3, 4])]},
    "translate/short": (lambda: M.translate(_torus(), [1]), DimensionMismatchError),
    "translate/long": (lambda: M.translate(_torus(), [1, 0, 0]), DimensionMismatchError),
    "has_atom_at/atoms": (lambda: M.has_atom_at(_torus(), [1]), DimensionMismatchError),
    "has_atom_at/group": (
        lambda: M.has_atom_at(_torus(comps=[_GROUP]), [Fraction(1, 2)]),
        DimensionMismatchError),
    "directional_eigenvalues/direction-ambient": (
        lambda: C.directional_eigenvalues(_torus(), Subspace.from_vectors(QQ, 3, [[1, 0, 0]])),
        ValidationError),
    "directional_eigenvalues/direction-field": (
        lambda: C.directional_eigenvalues(_torus(), Subspace.from_vectors(F2, 2, [[1, 0]])),
        ValidationError),
    # a full box on T^2 charges no wall: its non-ergodic concise set is empty
    "contains_direction/empty-set-ambient": (
        lambda: C.nonergodic_concise(_torus(comps=[_box(Subspace.full(QQ, 2))]))
        .contains_direction(Subspace.from_vectors(QQ, 3, [[1, 0, 0]])),
        ValidationError),
    "contains_direction/empty-set-field": (
        lambda: C.nonergodic_concise(_torus(comps=[_box(Subspace.full(QQ, 2))]))
        .contains_direction(Subspace.from_vectors(F2, 2, [[1, 0]])),
        ValidationError),
    "wiener_mass/ell-short": (lambda: FT.wiener_mass(_torus(), X, [1]), DimensionMismatchError),
    "wiener_mass/ell-long": (
        lambda: FT.wiener_mass(_torus(), X, [1, 0, 0]), DimensionMismatchError),
    "representative_wall_mass/ell-short": (
        lambda: FT.representative_wall_mass(_torus(), X, [1]), DimensionMismatchError),
    "representative_wall_mass/ell-off-direction": (
        lambda: FT.representative_wall_mass(_torus(), X, [0, 1]), ValidationError),
    "representative_wall_mass/direction-ambient": (
        lambda: FT.representative_wall_mass(
            _torus(), Subspace.from_vectors(QQ, 3, [[1, 0, 0]]), None),
        ValidationError),
    "correlation/point-dimension": (
        lambda: O.correlation(_PRODUCT, (0, 0, 0), "factors:1"), ValidationError),
    **{f"FieldSpec/root-{name}": (lambda root=root: FieldSpec((root,)), ValidationError)
       for name, root in [("str", "2"), ("float", 2.5), ("none", None), ("list", [2])]},
    "sqrt_root/non-root": (lambda: F2.sqrt_root(3), ValidationError),
    "from_coeffs/count": (lambda: F2.from_coeffs([1]), ValidationError),
    "as_rational/irrational": (lambda: F2.sqrt_root(2).as_rational(), ValidationError),
    # integers and finite numbers: ``scalar._decode_int`` and ``_decode_float``
    "LatticeSubgroup.contains/half": (lambda: _EVEN.contains([0.5, 0]), ValidationError),
    "LatticeSubgroup.contains/short": (lambda: _EVEN.contains([1]), DimensionMismatchError),
    "LatticeSubgroup.contains/long": (
        lambda: _EVEN.contains([2, 0, 7]), DimensionMismatchError),
    "LatticeSubgroup.contains/boolean": (
        lambda: _EVEN.contains([True, 0]), ValidationError),
    "LatticeSubgroup.from_generators/not-a-list": (
        lambda: LatticeSubgroup.from_generators(2, [5]), ValidationError),
    "BergelsonWard/boolean": (lambda: O.BergelsonWard(((True, 0), (0, 1))), ValidationError),
    "BergelsonWard/half": (lambda: O.BergelsonWard(((1.5, 0), (0, 1))), ValidationError),
    "OdometerEigen/boolean": (lambda: O.OdometerEigen(3, True, 1), ValidationError),
    "OdometerEigen/half": (lambda: O.OdometerEigen(2.5, 1, 1), ValidationError),
    "crosscheck/bound-half": (lambda: O.crosscheck(_ROTATION, 1.5), ValidationError),
    "crosscheck/bound-boolean": (lambda: O.crosscheck(_ROTATION, True), ValidationError),
    "crosscheck/tolerance-negative": (
        lambda: O.crosscheck(_ROTATION, 1, -1.0), ValidationError),
    "enumerate_members/bound-half": (
        lambda: C.nonergodic_concise(_torus()).enumerate_members(1.5), ValidationError),
    "EstimatorConfig/samples-half": (lambda: FT.EstimatorConfig(samples=1.5), ValidationError),
    "EstimatorConfig/radius-infinite": (
        lambda: FT.EstimatorConfig(radius=float("inf")), ValidationError),
    "EstimatorConfig/group-truncation-half": (
        lambda: FT.EstimatorConfig(group_truncation=1.5), ValidationError),
    "exp/cap-half": (lambda: M.exp(_torus(), cap=2.5), ValidationError),
}


@pytest.mark.parametrize("case", sorted(VALIDATION))
def test_validation_branches_raise_their_documented_error(case):
    call, error = VALIDATION[case]
    with pytest.raises(DirspecError) as info:
        call()
    assert info.type is error, info.value
