import cmath
import itertools
import random
from fractions import Fraction

import pytest

import numeric
from dirspec import classify as C
from dirspec import measure as M
from dirspec import oracle as O
from dirspec.errors import (ENUMERATION_BUDGET, ClosureBoundError,
                            UnsupportedConvolutionError, ValidationError, bounded_power)
from dirspec.linalg import Subspace, as_vector
from dirspec.measure import AtomGroup
from dirspec.scalar import QQ, FieldSpec

F2 = FieldSpec((2,))

PRODUCT = O.ProductType((O.Bernoulli(), O.Bernoulli()))
BW = O.BergelsonWard(((1, 0), (0, 1), (1, 1), (1, -1)))
ROT = O.Rotation(tuple(as_vector(F2, [F2.sqrt_root(2) - 1, Fraction(1, 3)])))
ODO = O.OdometerEigen(2, 2, 2)


class TestCorrelation:
    def test_bernoulli_independence(self):
        assert O.correlation(PRODUCT, (0, 7), "factors:1") == 1.0
        assert O.correlation(PRODUCT, (5, 0), "factors:1") == 0.0
        assert O.correlation(PRODUCT, (0, 0), "factors:1,2") == 1.0

    def test_bw_orthogonal_vector(self):
        bw = O.BergelsonWard(((1, 2), (1, 0)))
        assert O.correlation(bw, (2, -1), "factor:1") == 1.0
        assert O.correlation(bw, (1, 1), "factor:1") == 0.0

    def test_rotation_character(self):
        a = float(F2.sqrt_root(2) - 1)
        val = O.correlation(ROT, (3, 0), "exp1")
        assert abs(val - cmath.exp(2j * cmath.pi * 3 * a)) < 1e-12

    def test_unknown_observable(self):
        with pytest.raises(ValidationError):
            O.correlation(PRODUCT, (0, 0), "nope")

    def test_crosscheck_parses_each_observable_once(self, monkeypatch):
        # crosscheck reads its grid through one correlator per observable:
        # its values are correlation's, to the bit, ``correlation`` itself is
        # not called, and each id is parsed twice (its measure, its correlator)
        # however large the grid
        mixed = O.ProductType((O.Rotation1(F2.sqrt_root(2) - 1), O.Bernoulli()))
        parsed = []

        def counted(name):
            original = getattr(O, name)

            def wrapper(*args):
                parsed.append(name)
                return original(*args)
            return wrapper
        for model in (PRODUCT, mixed, BW, ROT, ODO):
            for obs in O.observables(model):
                correlate = O._correlator(model, obs)
                for n in itertools.product(range(-3, 4), repeat=model.dim):
                    assert correlate(n) == O.correlation(model, n, obs)
        monkeypatch.setattr(O, "correlation", None)
        for name in ("_rotation_harmonic", "_id_integers"):
            monkeypatch.setattr(O, name, counted(name))
        for model in (PRODUCT, mixed, BW, ROT, ODO):
            parsed.clear()
            assert O.crosscheck(model, bound=3).passed
            assert len(parsed) == 2 * len(O.observables(model))

    MALFORMED = [(PRODUCT, "factors:"), (PRODUCT, "factors:x"), (PRODUCT, "factors:1,"),
                 (PRODUCT, "factors"), (BW, "pair:1,"), (BW, "factor:"), (BW, "pair:1:2"),
                 (BW, "factor:one"), (ODO, "level:a,1"), (ODO, "level:1,"), (ODO, "level:"),
                 (ODO, "level")]

    @pytest.mark.parametrize("model,observable", MALFORMED,
                             ids=[f"{type(m).__name__}-{o}" for m, o in MALFORMED])
    def test_malformed_observable_ids(self, model, observable):
        # a bad integer in an id is an unknown observable, not a bare ValueError
        with pytest.raises(ValidationError, match="unknown observable"):
            O.correlation(model, (0, 0), observable)
        with pytest.raises(ValidationError, match="unknown observable"):
            O.observable_measure(model, observable)


class TestExpectedMeasure:
    def test_product_carriers(self):
        em = O.expected_measure(PRODUCT)
        carriers = {c.carrier.subspace for c in em.components}
        assert carriers == {Subspace.from_vectors(QQ, 2, [[1, 0]]),
                            Subspace.from_vectors(QQ, 2, [[0, 1]]),
                            Subspace.full(QQ, 2)}

    def test_bw_line_components(self):
        em = O.expected_measure(BW)
        lines = {c.carrier.subspace for c in em.components
                 if c.carrier.subspace.dim == 1}
        assert lines == {Subspace.from_vectors(QQ, 2, [list(v)])
                         for v in BW.vectors}
        assert any(c.carrier.subspace.is_full() for c in em.components)

    def test_rotation_group(self):
        em = O.expected_measure(ROT)
        assert len(em.components) == 1
        assert isinstance(em.components[0], AtomGroup)
        assert em.components[0].ring == "Z"

    def test_odometer_atoms(self):
        em = O.expected_measure(ODO)
        assert len(em.components) == 2 ** (2 * 2) - 1
        assert not em.has_delta_zero()

    def test_product_box_set_budget(self):
        # 2^60 - 1 boxes: refused before the subsets are listed
        with pytest.raises(ClosureBoundError):
            O.expected_measure(O.ProductType((O.Bernoulli(),) * 60))

    def test_rotation_product_group(self):
        # a product of rotations alone: one ring-Z atom group on T^2 that
        # carries every observable's atom
        rotations = O.ProductType((O.Rotation1(F2.sqrt_root(2) - 1),
                                   O.Rotation1(F2.from_rational(Fraction(1, 3)))))
        em = O.expected_measure(rotations)
        assert (em.space, em.dim, em.field) == (M.TORUS, 2, F2)
        assert len(em.components) == 1
        group = em.components[0]
        assert isinstance(group, AtomGroup) and group.ring == "Z"
        for obs in O.observables(rotations):
            om = O.observable_measure(rotations, obs)
            assert [type(c) for c in om.components] == [M.Atom]
            assert M.has_atom_at(em, om.components[0].point), obs
        rep = O.crosscheck(rotations, bound=4)
        assert rep.passed and rep.max_error < 1e-12

    def test_mixed_product_unsupported(self):
        mixed = O.ProductType((O.Bernoulli(), O.Rotation1(F2.sqrt_root(2) - 1)))
        with pytest.raises(UnsupportedConvolutionError):
            O.expected_measure(mixed)

    def test_observable_measures_dominated(self):
        for model in (ROT, ODO):
            em = O.expected_measure(model)
            for obs in O.observables(model)[:5]:
                om = O.observable_measure(model, obs)
                for comp in om.components:
                    assert M.has_atom_at(em, comp.point)


class TestCrosscheck:
    @pytest.mark.parametrize("model", [PRODUCT, BW, ROT, ODO],
                             ids=["product", "bw", "rotation", "odometer"])
    def test_bundled_models(self, model):
        rep = O.crosscheck(model, bound=6)
        assert rep.passed, rep.failures[:3]
        assert rep.max_error < 1e-12

    def test_mixed_product_observables_exact(self):
        mixed = O.ProductType((O.Bernoulli(), O.Rotation1(F2.sqrt_root(2) - 1)))
        rep = O.crosscheck(mixed, bound=5)
        assert rep.passed

    def test_failures_are_counted_and_the_first_32_reported(self):
        # a zero tolerance fails all 3 x 81 points; the report keeps the first 32
        rep = O.crosscheck(ROT, bound=4, tol=0.0)
        grid = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
        assert not rep.passed
        assert [(obs, n) for obs, n, _ in rep.failures] == [("exp1", n) for n in grid[:32]]

    @pytest.mark.parametrize("model", [
        PRODUCT, BW, ROT, ODO, O.OdometerEigen(3, 2, 3), O.BergelsonWard(((1, 2),)),
        O.ProductType((O.Bernoulli(),) * 5)])
    def test_observable_count_without_listing(self, model):
        assert O._observable_count(model) == len(O.observables(model))

    @pytest.mark.parametrize("model,bound", [
        (O.OdometerEigen(2, 10 ** 9, 2), 0),         # (10^9 + 1)^2 - 1 observables
        (O.ProductType((O.Bernoulli(),) * 60), 0),   # 2^60 - 1 observables
        (BW, 50),                                    # 10 x 101^2 points
        (O.OdometerEigen(2, 3, 2), 10 ** 9),         # a grid of (2 * 10^9 + 1)^2
    ], ids=["odometer-levels", "product-factors", "bw-grid", "odometer-grid"])
    def test_budget_is_checked_before_listing(self, model, bound):
        with pytest.raises(ClosureBoundError):
            O.crosscheck(model, bound=bound)

    def test_odometer_count_saturates_at_the_budget(self):
        # (level+1)^dim - 1 just past the budget must not be cut back under it
        over = O.OdometerEigen(2, ENUMERATION_BUDGET + 1, 1)
        assert O._observable_count(over) == ENUMERATION_BUDGET + 1
        at = O.OdometerEigen(2, ENUMERATION_BUDGET, 1)
        assert O._observable_count(at) == ENUMERATION_BUDGET


class TestBoundedPower:
    @pytest.mark.parametrize("base,exponent", [
        (0, 0), (0, 5), (1, 10 ** 12), (2, 16), (2, 17), (3, 10), (3, 11), (10, 5),
        (10, 6), (316, 2), (317, 2), (7, 10 ** 12)])
    def test_matches_the_saturated_power(self, base, exponent):
        exact = base ** exponent if exponent < 100 or base < 2 else ENUMERATION_BUDGET + 2
        assert bounded_power(base, exponent) == min(exact, ENUMERATION_BUDGET + 1)


class TestDirectionalBehavior:
    def test_product_example(self):
        em = O.expected_measure(PRODUCT)
        e1 = Subspace.from_vectors(QQ, 2, [[1, 0]])
        e2 = Subspace.from_vectors(QQ, 2, [[0, 1]])
        ne = C.nonergodic_concise(em)
        assert set(ne.subspaces) == {e1, e2}

    def test_bw_nonergodic_exactly_on_perps(self):
        em = O.expected_measure(BW)
        perps = {Subspace.from_vectors(QQ, 2, [list(v)]).orthocomplement()
                 for v in BW.vectors}
        ne = C.nonergodic_concise(em)
        assert set(ne.subspaces) == perps
        for sub in perps:
            v = C.classify_direction(em, sub)
            assert not v.ergodic and not v.weak_mixing
        # a rational direction away from the family is ergodic
        other = Subspace.from_vectors(QQ, 2, [[5, 1]])
        assert C.classify_direction(em, other).ergodic

    def test_rotation_independent_coordinates_all_rational_ergodic(self):
        # rationally independent 1, alpha_1, alpha_2: no eigenvalue meets a
        # rational wall, so every subgroup action is ergodic
        f23 = FieldSpec((2, 3))
        indep = O.Rotation(tuple(as_vector(
            f23, [f23.sqrt_root(2) - 1, f23.sqrt_root(3) - 1])))
        em = O.expected_measure(indep)
        rng = random.Random(3)
        for _ in range(20):
            vec = [rng.randint(-4, 4), rng.randint(-4, 4)]
            if not any(vec):
                continue
            sub = Subspace.from_vectors(f23, 2, [vec])
            v = C.classify_direction(em, sub)
            assert v.ergodic
            assert not v.weak_mixing  # discrete spectrum

    def test_rotation_with_rational_coordinate_has_nonergodic_direction(self):
        # alpha_2 = 1/3: the atom 3*alpha sits on the wall perpendicular to e2
        em = O.expected_measure(ROT)
        e2 = Subspace.from_vectors(F2, 2, [[0, 1]])
        assert not C.classify_direction(em, e2).ergodic

    def test_odometer_has_nonergodic_rational_directions(self):
        em = O.expected_measure(ODO)
        # eigenvalue (1/4, 0) lies on pi(L^perp) for L = span(e2)
        e2 = Subspace.from_vectors(QQ, 2, [[0, 1]])
        assert not C.classify_direction(em, e2).ergodic


class TestGram:
    @pytest.mark.parametrize("model,obs", [
        (PRODUCT, "factors:1,2"), (BW, "factor:2"), (ROT, "exp1"),
        (ODO, "level:1,2")])
    def test_psd(self, model, obs):
        pts = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        assert numeric.gram_min_eigenvalue(model, obs, pts) > -1e-9


class TestModelCodec:
    def test_round_trip(self):
        for model in (PRODUCT, BW, ROT, ODO,
                      O.ProductType((O.Rotation1(QQ.from_rational(Fraction(1, 5))),
                                     O.Rotation1(QQ.from_rational(Fraction(1, 7)))))):
            assert O.decode_model(model.encode()) == model

    @pytest.mark.parametrize("make", [
        lambda: O.OdometerEigen(1, 2, 2), lambda: O.OdometerEigen(0, 2, 2),
        lambda: O.OdometerEigen(2, -1, 2), lambda: O.OdometerEigen(2, 2, 0),
        lambda: O.Rotation(()), lambda: O.BergelsonWard(()),
        lambda: O.BergelsonWard(((),)), lambda: O.BergelsonWard(((1, 0), (1,))),
    ], ids=["q-one", "q-zero", "negative-level", "dim-zero", "no-alphas", "no-vectors",
            "empty-vector", "unequal-lengths"])
    def test_invariants_rejected(self, make):
        # these used to fail later, with ZeroDivisionError or IndexError
        with pytest.raises(ValidationError):
            make()

    def test_parallel_vectors_rejected(self):
        with pytest.raises(ValidationError):
            O.BergelsonWard(((1, 1), (2, 2)))
        with pytest.raises(ValidationError):
            O.BergelsonWard(((0, 0),))
