import math
import os
import pathlib
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import gen
import numeric
from dirspec import fourier as FT
from dirspec import measure as M
from dirspec.errors import ClosureBoundError, ValidationError
from dirspec.fourier import EstimatorConfig
from dirspec.linalg import (AffineCarrier, Subspace, as_vector, vec_add, vec_mod1, vec_scale,
                            vec_sub, zero_vector)
from dirspec.measure import (EUCLID, TORUS, Atom, AtomGroup, BoxLebesgue,
                             SymbolicMeasure)
from dirspec.scalar import QQ, FieldSpec

F2 = FieldSpec((2,))
E1 = Subspace.from_vectors(QQ, 2, [[1, 0]])
E2 = Subspace.from_vectors(QQ, 2, [[0, 1]])
FULL = Subspace.full(QQ, 2)
CFG = EstimatorConfig(samples=4096, radius=200.0, seed=11)


def box(sub, off=None, w=1):
    return BoxLebesgue(AffineCarrier.make(sub, off), sub.basis, weight=Fraction(w))


def atom(pt, w=1, field=QQ):
    return Atom(as_vector(field, pt), Fraction(w))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            EstimatorConfig(samples=0)
        with pytest.raises(ValidationError):
            EstimatorConfig(radius=-1.0)

    @pytest.mark.parametrize("name", ["seed", "periodization_truncation", "group_truncation"])
    def test_rejects_a_negative_setting_by_name(self, name):
        # a negative seed used to reach numpy, and a negative periodization
        # truncation made ft_batch return 0 at every point
        with pytest.raises(ValidationError, match=name):
            EstimatorConfig(**{name: -1})
        assert getattr(EstimatorConfig(**{name: 0}), name) == 0


class TestFt:
    def test_unit_atom(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [atom([0, 0])])
        assert numeric.ft(m, [0.37, -1.2]) == pytest.approx(1.0)

    def test_segment_analytic_value(self):
        # centered unit segment along e1 at t = (1/2, 0): sinc(1/2) = 2/pi
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(E1)])
        val = numeric.ft(m, [0.5, 0.0])
        assert val == pytest.approx(2 / math.pi, abs=1e-15)
        # against direct quadrature of the uniform segment measure
        import scipy.integrate as si
        re, _ = si.quad(lambda x: math.cos(2 * math.pi * x * 0.5), -0.5, 0.5)
        assert val.real == pytest.approx(re, abs=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_shifted_segment_phase(self):
        # segment from the origin to (1,0) is the centered box at (1/2, 0)
        comp = BoxLebesgue(AffineCarrier.make(E1), E1.basis,
                           center=as_vector(QQ, [Fraction(1, 2), 0]))
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [comp])
        val = numeric.ft(m, [0.5, 0.0])
        expected = np.exp(-1j * np.pi * 0.5) * np.sinc(0.5)
        assert val == pytest.approx(expected, abs=1e-15)

    def test_mass_at_zero(self):
        rng = random.Random(2)
        for _ in range(20):
            m = gen.rand_measure(rng, QQ, 2, rng.choice([EUCLID, TORUS]),
                                 reduced=False)
            assert numeric.ft(m, [0.0, 0.0]) == pytest.approx(
                sum(float(c.weight) for c in m.components), abs=1e-12)

    def test_atom_group_requires_truncation(self):
        g = SymbolicMeasure.make(
            TORUS, 2, F2,
            [AtomGroup((as_vector(F2, [F2.sqrt_root(2) - 1, 0]),), "Z",
                       zero_vector(F2, 2))])
        with pytest.raises(ValidationError):
            numeric.ft(g, [1.0, 0.0])
        cfg = EstimatorConfig(group_truncation=4)
        assert abs(numeric.ft(g, [0.0, 0.0], cfg)
                   - sum(float(c.weight) for c in g.components)) < 1e-12

    def test_bound_by_mass(self):
        rng = random.Random(3)
        for _ in range(20):
            m = gen.rand_measure(rng, QQ, 2, EUCLID, reduced=False)
            t = np.array([rng.uniform(-20, 20) for _ in range(2)])
            assert abs(numeric.ft(m, t)) <= sum(float(c.weight) for c in m.components) + 1e-12


class TestConvolutionTheorem:
    def test_euclid_random_points(self):
        rng = random.Random(5)
        npts = np.random.default_rng(5).normal(scale=8.0, size=(100, 2))
        for _ in range(10):
            m1 = gen.rand_measure(rng, QQ, 2, EUCLID, reduced=False)
            m2 = gen.rand_measure(rng, QQ, 2, EUCLID, reduced=False)
            conv = M.convolve(m1, m2)
            lhs = FT.ft_batch(conv, npts)
            rhs = FT.ft_batch(m1, npts) * FT.ft_batch(m2, npts)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_torus_integer_points(self):
        rng = random.Random(7)
        grid = np.array([[i, j] for i in range(-6, 7) for j in range(-6, 7)],
                        dtype=float)
        for _ in range(10):
            m1 = gen.rand_measure(rng, QQ, 2, TORUS, reduced=False)
            m2 = gen.rand_measure(rng, QQ, 2, TORUS, reduced=False)
            conv = M.convolve(m1, m2)
            lhs = FT.ft_batch(conv, grid)
            rhs = FT.ft_batch(m1, grid) * FT.ft_batch(m2, grid)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestPushforwardIdentity:
    def test_random_measures_at_lattice_points(self):
        rng = random.Random(9)
        h = np.random.default_rng(9).integers(-10, 11, size=(100, 2)).astype(float)
        for _ in range(20):
            field = rng.choice([QQ, F2])
            m = gen.rand_measure(rng, field, 2, EUCLID, reduced=False)
            q = M.pushforward_quotient(m)
            err = np.max(np.abs(FT.ft_batch(m, h) - FT.ft_batch(q, h)))
            assert err < 1e-9


class TestWienerMass:
    def test_atom_on_wall(self):
        m = SymbolicMeasure.make(TORUS, 2, QQ,
                                 [atom([Fraction(1, 3), Fraction(1, 4)])])
        est = FT.wiener_mass(m, E1, [Fraction(1, 3), 0], CFG)
        assert est.estimate == pytest.approx(1.0, abs=0.05)

    def test_atom_off_wall(self):
        m = SymbolicMeasure.make(TORUS, 2, QQ,
                                 [atom([Fraction(1, 3), Fraction(1, 4)])])
        est = FT.wiener_mass(m, E1, None, CFG)
        assert abs(est.estimate) < 0.05

    def test_box_component_mass(self):
        m = SymbolicMeasure.make(TORUS, 2, QQ, [box(E1, w=2), box(E2, w=1)])
        est = FT.wiener_mass(m, E2, None, CFG)
        true = FT.representative_wall_mass(m, E2, None)
        assert true == 2.0
        assert est.estimate == pytest.approx(true, abs=0.05)

    def test_spread_is_small_on_walls(self):
        m = SymbolicMeasure.make(TORUS, 2, QQ, [box(E1)])
        est = FT.wiener_mass(m, E2, None, CFG)
        assert est.spread < 0.05

    def test_random_measures_consistent_with_symbolic(self):
        # seeded random rational measures: the estimate must stay within a
        # generous band of the exact representative mass (directions are
        # kept away from near-parallel carriers, where convergence is slow)
        from dirspec import classify as C
        rng = random.Random(77)
        checked = 0
        while checked < 12:
            m = gen.rand_measure(rng, QQ, 2, TORUS, max_components=2)
            sub = gen.rand_rational_subspace(rng, QQ, 2, 1)
            skip = False
            for comp in m.components:
                if isinstance(comp, BoxLebesgue):
                    k = comp.carrier.subspace
                    if k.dim == 1 and not k.leq(sub.orthocomplement()):
                        # angle between the carrier and the sampling line
                        bk = np.array([float(x) for x in k.basis[0]])
                        bl = np.array([float(x) for x in sub.basis[0]])
                        cosang = abs(bk @ bl) / (np.linalg.norm(bk)
                                                 * np.linalg.norm(bl))
                        if cosang > 0.995:
                            skip = True
            if skip:
                continue
            checked += 1
            true_mass = FT.representative_wall_mass(m, sub, None)
            est = FT.wiener_mass(m, sub, None, CFG)
            assert abs(est.estimate - true_mass) <= 0.25, (m, sub, est, true_mass)
            if true_mass > 0:
                # a charged representative wall certifies the symbolic wall
                assert C.wall_test(m, sub, None).positive


def reference_group_atoms(comp, space, truncation):
    """The truncated atom list of an atom group, written out: offset +
    sum c_i g_i for each coefficient combination in pool order, reduced mod
    Z^d on the torus by subtracting floors, the identity dropped, each point
    kept with 2^-size of its first combination, normalized to the weight."""
    first: dict = {}
    for combo in product(M.coefficient_pool(comp.ring, truncation),
                         repeat=len(comp.generators)):
        pt = list(comp.offset)
        for c, g in zip(combo, comp.generators):
            pt = [x + y * c for x, y in zip(pt, g)]
        if space == TORUS:
            pt = [x - x.floor() for x in pt]
        if all(x.is_zero() for x in pt):
            continue
        size = sum(abs(c.numerator) + c.denominator - 1 for c in combo)
        first.setdefault(tuple(pt), 2.0 ** -size)
    scale = float(comp.weight) / sum(first.values()) if first else 0.0
    return tuple(first), tuple(w * scale for w in first.values())


def reference_representative_wall_mass(m, direction, ell, cfg):
    """The wall mass by the orthocomplement rule: a component counts when
    its carrier K <= L^perp and L^perp contains center - ell; a group counts
    each reference atom p with p - ell in L^perp."""
    ell_vec = as_vector(m.field, ell) if ell is not None else zero_vector(m.field, m.dim)
    perp = direction.orthocomplement()
    mass = 0.0
    for comp in m.components:
        if isinstance(comp, AtomGroup):
            pts, ws = reference_group_atoms(comp, m.space, cfg.group_truncation)
            for p, w in zip(pts, ws):
                if perp.contains(vec_sub(p, ell_vec)):
                    mass += w
        elif comp.carrier.subspace.leq(perp) and \
                perp.contains(vec_sub(comp.rep_center(), ell_vec)):
            mass += float(comp.weight)
    return mass


class TestGroupRepresentative:
    def test_atoms_equal_mod_z2_are_listed_once(self):
        # (1/3, 0) and (2/3, 0) came out twice in floats, at y = 2.2e-16 and
        # at y = 0.9999999999999998, so 40 atoms were listed for 38 points
        half = F2.from_rational(Fraction(1, 2))
        m = SymbolicMeasure.make(TORUS, 2, F2, [AtomGroup(
            (as_vector(F2, [Fraction(1, 3), 0]),
             as_vector(F2, [0, half + F2.sqrt_root(2) / 2])), "Z", zero_vector(F2, 2))])
        comp = m.components[0]
        pts, ws = FT.group_representative(comp, TORUS, 2)
        assert len(pts) == 38
        assert not any(M.is_identity(TORUS, vec_sub(p, q))
                       for i, p in enumerate(pts) for q in pts[:i])
        assert (pts, ws) == reference_group_atoms(comp, TORUS, 2)

    @staticmethod
    def _group(rng, field, space, ring, truncation):
        """A seeded genuine atom group whose truncated list has at most 2,000
        combinations."""
        while True:
            d = rng.choice([2, 3])
            gens = tuple(gen.rand_vector(rng, field, d, irrational_p=0.4)
                         for _ in range(rng.randint(1, 2)))
            offset = gen.rand_vector(rng, field, d) if rng.random() < 0.5 \
                else zero_vector(field, d)
            m = SymbolicMeasure.make(space, d, field, [AtomGroup(gens, ring, offset)])
            comps = [c for c in m.components if isinstance(c, AtomGroup)]
            if comps and len(M.coefficient_pool(ring, truncation)) \
                    ** len(comps[0].generators) <= 2000:
                return comps[0]

    def test_matches_the_reference_enumeration(self):
        rng = random.Random(22)
        for field, space, ring, truncation in product(
                [QQ, F2, FieldSpec((2, 3))], [TORUS, EUCLID], ["Z", "Q"], [1, 2, 3]):
            comp = self._group(rng, field, space, ring, truncation)
            pts, ws = FT.group_representative(comp, space, truncation)
            assert (pts, ws) == reference_group_atoms(comp, space, truncation)
            reduced = {vec_mod1(p) for p in pts} if space == TORUS else set(pts)
            assert len(reduced) == len(pts)
            assert not any(M.is_identity(space, p) for p in pts)
            assert sum(ws) == pytest.approx(float(comp.weight), rel=1e-12)


class TestRepresentativeWallMass:
    @staticmethod
    def _on_wall_measure(rng, field, d, space, direction, ell):
        """Atoms, a box and an atom group put on L^perp + ell on purpose,
        next to random components."""
        perp = direction.orthocomplement()

        def wall_point():
            p = ell
            for b in perp.basis:
                p = vec_add(p, vec_scale(gen.rand_scalar(rng, field), b))
            return p

        comps = [Atom(wall_point(), Fraction(rng.randint(1, 3)))]
        k = Subspace.from_vectors(field, d, [
            vec_scale(gen.rand_scalar(rng, field, nonzero=True), b)
            for b in rng.sample(perp.basis, rng.randint(1, perp.dim))])
        center = wall_point()
        comps.append(BoxLebesgue(AffineCarrier.make(k, center), k.basis, center,
                                 Fraction(rng.randint(1, 3))))
        g = tuple(vec_scale(gen.rand_scalar(rng, field, nonzero=True), b)
                  for b in rng.sample(perp.basis, 1))
        comps.append(AtomGroup(g, rng.choice(["Z", "Q"]), wall_point()))
        comps.append(gen.rand_box(rng, field, d))
        comps.append(gen.rand_atom(rng, field, d))
        return SymbolicMeasure.make(space, d, field, rng.sample(comps, rng.randint(1, 4)))

    def test_matches_the_orthocomplement_rule(self):
        rng = random.Random(2022)
        cfg = EstimatorConfig(group_truncation=2)
        charged = {Atom: 0, BoxLebesgue: 0, AtomGroup: 0}
        for _ in range(120):
            field = rng.choice([QQ, F2])
            space, d = rng.choice([EUCLID, TORUS]), rng.choice([2, 3])
            direction = gen.rand_subspace(rng, field, d, rng.randint(1, d - 1))
            ell = None if rng.random() < 0.3 else vec_scale(
                gen.rand_scalar(rng, field), direction.basis[0])
            try:
                m = self._on_wall_measure(rng, field, d, space, direction,
                                          ell or zero_vector(field, d))
            except ValidationError:
                continue
            if m.is_zero():
                continue
            mass = FT.representative_wall_mass(m, direction, ell, cfg)
            assert mass == reference_representative_wall_mass(m, direction, ell, cfg)
            for comp in m.components:
                one = SymbolicMeasure.make(m.space, d, field, [comp])
                if FT.representative_wall_mass(one, direction, ell, cfg) > 0:
                    charged[type(comp)] += 1
        assert min(charged.values()) >= 10, charged


class TestRajchman:
    def test_full_box_decays(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(FULL)])
        generic = Subspace.from_vectors(QQ, 2, [[1, Fraction(1, 3)]])
        prof = FT.rajchman_probe(m, generic, [10, 100, 1000], CFG)
        assert prof.sup_values[-1] < 0.01
        assert prof.envelope == tuple(sorted(prof.envelope, reverse=True))

    def test_wall_measure_no_decay_along_perp(self):
        # transform of a vertical segment is constant (modulus 1) along e1
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(E2)])
        prof = FT.rajchman_probe(m, E1, [10, 100, 1000], CFG)
        assert all(abs(s - 1.0) < 1e-9 for s in prof.sup_values)
        # and decays along its own carrier
        prof2 = FT.rajchman_probe(m, E2, [10, 100, 1000], CFG)
        assert prof2.sup_values[-1] < 0.01

    def test_atom_profile_constant_one(self):
        m = SymbolicMeasure.make(TORUS, 2, QQ, [atom([Fraction(1, 3), 0])])
        prof = FT.rajchman_probe(m, E1, [10, 100, 1000], CFG)
        assert all(abs(s - 1.0) < 1e-12 for s in prof.sup_values)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_is_refused(self, radius):
        m = SymbolicMeasure.make(TORUS, 2, QQ, [atom([Fraction(1, 3), 0])])
        with pytest.raises(ValidationError, match="finite"):
            FT.rajchman_probe(m, E1, [10.0, radius], CFG)


class TestCosetConstancy:
    def test_subspace_box(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(E1)])
        assert numeric.coset_constancy_check(m, tol=1e-9)

    def test_full_box_vacuous(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(FULL)])
        assert numeric.coset_constancy_check(m)

    def test_atom_rejected(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [atom([0, 0])])
        with pytest.raises(ValidationError):
            numeric.coset_constancy_check(m)

    def test_offset_box_rejected(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(E1, [0, Fraction(1, 2)])])
        with pytest.raises(ValidationError):
            numeric.coset_constancy_check(m)


class TestPeriodized:
    def test_periodized_factor_at_integers(self):
        # at integer points the periodization factor is exactly 1
        t = SymbolicMeasure.make(TORUS, 2, QQ, [atom([Fraction(1, 3), 0])])
        per = M.suspend(t)
        grid = np.array([[1.0, 2.0], [0.0, 0.0], [-3.0, 5.0]])
        base = FT.ft_batch(t, grid)
        lifted = FT.ft_batch(per, grid)
        assert np.max(np.abs(base - lifted)) < 1e-9

    def test_periodized_mass_between_integers(self):
        t = SymbolicMeasure.make(TORUS, 2, QQ, [atom([Fraction(1, 3), 0])])
        per = M.suspend(t)
        v = numeric.ft(per, [0.5, 0.5])
        assert abs(v) <= 1.0 + 1e-9


class TestSobol:
    @pytest.mark.parametrize("d", range(1, FT.SOBOL_DIMS + 1))
    def test_matches_the_reference_engine(self, d):
        # the same bytes as scipy's LMS+shift Sobol engine: a power-of-2
        # count, a non-power-of-2 count and a continuation draw
        qmc = pytest.importorskip("scipy.stats").qmc
        for seed in (0, 7, 20221112):
            for n in (64, 400):
                sampler = qmc.Sobol(d=d, scramble=True, seed=seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # n not a power of 2
                    head, tail = sampler.random(n), sampler.random(2 * n)
                assert FT._sobol(d, seed, 0, n).tobytes() == head.tobytes(), (seed, n)
                assert FT._sobol(d, seed, n, 2 * n).tobytes() == tail.tobytes(), (seed, n)

    def test_too_many_dimensions_is_refused(self):
        with pytest.raises(ClosureBoundError, match="32 dimensions"):
            FT._sobol(FT.SOBOL_DIMS + 1, 0, 0, 8)

    def test_past_the_period_is_refused_before_allocating(self):
        period = 1 << FT.SOBOL_BITS
        with pytest.raises(ClosureBoundError):
            FT._sobol(1, 0, period - 4, 5)
        with pytest.raises(ClosureBoundError):
            FT.wiener_mass(SymbolicMeasure.make(EUCLID, 2, QQ, [atom([0, 0])]), E1, None,
                           EstimatorConfig(samples=period // 4 + 1))
        assert FT._sobol(1, 0, period - 4, 4).shape == (4, 1)


def _ball_points_one_top_up(e, radius, samples, seed):
    """The ball sampler as it was: 4 samples cube points, then 8 samples more
    once, so it returned fewer than ``samples`` points in high dimension."""
    first = max(8, 4 * samples)
    cube = (2.0 * FT._sobol(e, seed, 0, first) - 1.0) * radius
    inside = cube[np.linalg.norm(cube, axis=1) <= radius]
    if inside.shape[0] < samples:
        cube = np.vstack([cube, (2.0 * FT._sobol(e, seed, first, 8 * samples) - 1.0) * radius])
        inside = cube[np.linalg.norm(cube, axis=1) <= radius]
    return inside[:samples]


class TestBallPoints:
    @pytest.mark.parametrize("e,kept", [(1, 4096), (5, 4096), (6, 3970), (8, 777)])
    def test_exactly_samples_points_extending_the_old_ones(self, e, kept):
        old = _ball_points_one_top_up(e, 200.0, 4096, 20221112)
        new = FT._ball_points(e, 200.0, 4096, 20221112)
        assert old.shape[0] == kept and new.shape == (4096, e)
        assert new[:kept].tobytes() == old.tobytes()
        assert np.all(np.linalg.norm(new, axis=1) <= 200.0)

    @pytest.mark.parametrize("e", [3, 8])
    def test_chunks_continue_one_sobol_draw(self, e):
        # the chunks share one engine and continue from their Gray codes: the
        # points are those of one ``_sobol`` call over the same prefix
        sizes = [17, 1, 64, 1000]
        for start in (0, 5):
            whole = FT._sobol(e, 5, start, sum(sizes))
            chunks = list(FT._sobol_chunks(e, 5, start, sizes))
            assert [c.shape[0] for c in chunks] == sizes
            assert np.vstack(chunks).tobytes() == whole.tobytes()
        new = FT._ball_points(e, 200.0, 512, 5)  # several chunks at e = 8
        cube = (2.0 * FT._sobol(e, 5, 0, 40 * 4096) - 1.0) * 200.0
        assert new.tobytes() == cube[np.linalg.norm(cube, axis=1) <= 200.0][:512].tobytes()

    def test_past_the_sequence_is_refused_before_drawing(self, monkeypatch):
        # 4096 points in the 20-ball need about 2**37 cube points; the
        # 16-ball is the first past 2**30 at the default samples
        def no_draw(*args):
            raise AssertionError("no Sobol point may be drawn")

        monkeypatch.setattr(FT, "_sobol_chunks", no_draw)
        for e in (16, 20):
            with pytest.raises(ClosureBoundError, match="2\\*\\*30 points"):
                FT._ball_points(e, 200.0, 4096, 20221112)
        with pytest.raises(AssertionError):
            FT._ball_points(15, 200.0, 4096, 20221112)

    @pytest.mark.parametrize("e", [1, 3, 8])
    def test_first_chunk_past_the_budget_is_refused_before_drawing(self, monkeypatch, e):
        # the first chunk has max(8, 4 samples) points of e coordinates: the
        # first sample count over ``SAMPLE_BUDGET`` is refused, the one below
        # it reaches the draw (here a stub that refuses to draw)
        def no_draw(*args):
            raise AssertionError("no Sobol point may be drawn")

        monkeypatch.setattr(FT, "_sobol_chunks", no_draw)
        refused = FT.SAMPLE_BUDGET // (4 * e) + 1
        assert 4 * 4096 * 32 * 8 <= FT.SAMPLE_BUDGET  # 8x what the default draws at e = 32
        with pytest.raises(ClosureBoundError, match="enumeration budget of 4194304"):
            FT._ball_points(e, 200.0, refused, 20221112)
        with pytest.raises(AssertionError):
            FT._ball_points(e, 200.0, refused - 1, 20221112)


class TestLazyScipy:
    def test_import_leaves_scipy_unloaded(self):
        # the Sobol points are drawn with numpy alone: nothing loads scipy
        code = "\n".join([
            "import sys, dirspec, dirspec.cli",
            "assert 'scipy' not in sys.modules, 'scipy loaded at import'",
            "from dirspec.fourier import EstimatorConfig, rajchman_probe, wiener_mass",
            "from dirspec.linalg import Subspace, as_vector",
            "from dirspec.measure import EUCLID, Atom, SymbolicMeasure",
            "from dirspec.scalar import QQ",
            "m = SymbolicMeasure.make(EUCLID, 2, QQ, [Atom(as_vector(QQ, [0, 0]))])",
            "line = Subspace.from_vectors(QQ, 2, [[1, 0]])",
            "est = wiener_mass(m, line, None, EstimatorConfig(samples=64))",
            "assert abs(est.estimate - 1) < 1e-12, est",
            "assert rajchman_probe(m, line, [10.0]).sup_values == (1.0,)",
            "assert 'scipy' not in sys.modules",
        ])
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    def test_fourier_check_leaves_scipy_unloaded(self, fixtures_dir):
        code = "\n".join([
            "import contextlib, io, sys, dirspec.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert dirspec.cli.main(['fourier-check', '--measure', "
            f"{str(fixtures_dir / 'product_bernoulli.json')!r}, '--directions', "
            f"{str(fixtures_dir / 'axes_and_diagonal.json')!r}, '--samples', '256']) == 0",
            "assert 'numpy' in sys.modules",
            "assert 'scipy' not in sys.modules",
        ])
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    # every CLI subcommand that decides exactly, on the bundled fixtures
    EXACT_COMMANDS = [
        ["classify", "--measure", "product_bernoulli.json",
         "--directions", "axes_and_diagonal.json"],
        ["directions", "--measure", "bw8.json", "--enumeration-bound", "1"],
        ["realize", "--directions", "two_subspaces_r3.json"],
        ["decompose", "--measure", "bw8.json"],
        ["suspend", "--measure", "chair.json"],
        ["restrict", "--measure", "product_bernoulli.json", "--subgroup", "[[1, 1]]"],
        ["lint", "--measure", "broken_symmetry.json"],
        ["exp", "--measure", "product_bernoulli.json"],
        ["convolve", "--measure", "product_bernoulli.json",
         "--other", "lonely_atom.json"],
    ]

    def test_exact_commands_leave_numpy_unloaded(self, fixtures_dir):
        # numpy is imported only where a float is computed
        argvs = [[str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
                 for argv in self.EXACT_COMMANDS]
        code = "\n".join([
            "import contextlib, io, json, sys, dirspec, dirspec.cli",
            "from dirspec.oracle import decode_model",
            f"for argv in {argvs!r}:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert dirspec.cli.main(argv) == 0, argv",
            f"model = decode_model(json.load(open({str(fixtures_dir / 'product_model.json')!r})))",
            "for name in ('numpy', 'scipy'):",
            "    assert name not in sys.modules, name + ' loaded by an exact command'",
            "from dirspec.fourier import ft_batch",
            "from dirspec.linalg import as_vector",
            "from dirspec.measure import EUCLID, Atom, SymbolicMeasure",
            "from dirspec.oracle import crosscheck",
            "from dirspec.scalar import QQ",
            "m = SymbolicMeasure.make(EUCLID, 1, QQ, [Atom(as_vector(QQ, [0]))])",
            "assert abs(ft_batch(m, [[0.25]])[0] - 1) < 1e-12",
            "assert crosscheck(model, bound=2).passed",
            "assert 'numpy' in sys.modules",
        ])
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
