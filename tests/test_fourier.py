import math
import os
import pathlib
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gen
from dirspec import fourier as FT
from dirspec import measure as M
from dirspec.errors import ClosureBoundError, ValidationError
from dirspec.fourier import EstimatorConfig
from dirspec.linalg import AffineCarrier, Subspace, as_vector, zero_vector
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
        assert FT.ft(m, [0.37, -1.2]) == pytest.approx(1.0)

    def test_segment_analytic_value(self):
        # centered unit segment along e1 at t = (1/2, 0): sinc(1/2) = 2/pi
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(E1)])
        val = FT.ft(m, [0.5, 0.0])
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
        val = FT.ft(m, [0.5, 0.0])
        expected = np.exp(-1j * np.pi * 0.5) * np.sinc(0.5)
        assert val == pytest.approx(expected, abs=1e-15)

    def test_mass_at_zero(self):
        rng = random.Random(2)
        for _ in range(20):
            m = gen.rand_measure(rng, QQ, 2, rng.choice([EUCLID, TORUS]),
                                 reduced=False)
            assert FT.ft(m, [0.0, 0.0]) == pytest.approx(
                sum(float(c.weight) for c in m.components), abs=1e-12)

    def test_atom_group_requires_truncation(self):
        g = SymbolicMeasure.make(
            TORUS, 2, F2,
            [AtomGroup((as_vector(F2, [F2.sqrt_root(2) - 1, 0]),), "Z",
                       zero_vector(F2, 2))])
        with pytest.raises(ValidationError):
            FT.ft(g, [1.0, 0.0])
        cfg = EstimatorConfig(group_truncation=4)
        assert abs(FT.ft(g, [0.0, 0.0], cfg)
                   - sum(float(c.weight) for c in g.components)) < 1e-12

    def test_bound_by_mass(self):
        rng = random.Random(3)
        for _ in range(20):
            m = gen.rand_measure(rng, QQ, 2, EUCLID, reduced=False)
            t = np.array([rng.uniform(-20, 20) for _ in range(2)])
            assert abs(FT.ft(m, t)) <= sum(float(c.weight) for c in m.components) + 1e-12


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
        assert FT.coset_constancy_check(m, tol=1e-9)

    def test_full_box_vacuous(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(FULL)])
        assert FT.coset_constancy_check(m)

    def test_atom_rejected(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [atom([0, 0])])
        with pytest.raises(ValidationError):
            FT.coset_constancy_check(m)

    def test_offset_box_rejected(self):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(E1, [0, Fraction(1, 2)])])
        with pytest.raises(ValidationError):
            FT.coset_constancy_check(m)


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
        v = FT.ft(per, [0.5, 0.5])
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
