"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""
import json
import random
from fractions import Fraction

import numpy as np

import gen
import numeric
from dirspec import classify as C
from dirspec import fourier as FT
from dirspec import measure as M
from dirspec import oracle as O
from dirspec.fourier import EstimatorConfig
from dirspec.linalg import AffineCarrier, Subspace, as_vector, vec_add, vec_scale, zero_vector
from dirspec.measure import (EUCLID, TORUS, Atom, AtomGroup, BoxLebesgue,
                             SymbolicMeasure)
from dirspec.scalar import QQ, FieldSpec

F2 = FieldSpec((2,))
F5 = FieldSpec((5,))
E1 = Subspace.from_vectors(QQ, 2, [[1, 0]])
E2 = Subspace.from_vectors(QQ, 2, [[0, 1]])
DIAG = Subspace.from_vectors(QQ, 2, [[1, 1]])
FULL2 = Subspace.full(QQ, 2)

BW_VECTORS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (3, 1), (1, 3))
WIENER_CFG = EstimatorConfig(samples=4096, radius=200.0, seed=20221112,
                             tolerance=0.05)


def box(sub, off=None, w=1):
    return BoxLebesgue(AffineCarrier.make(sub, off), sub.basis, weight=Fraction(w))


def atom(pt, w=1, field=QQ):
    return Atom(as_vector(field, pt), Fraction(w))


def report(n, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}"
    print(line)
    assert ok, line


def verdict_triple(m, sub):
    v = C.classify_direction(m, sub)
    return v.ergodic, v.weak_mixing, v.strong_mixing


def test_criterion_1_product_type_fixture():
    em = O.expected_measure(O.ProductType((O.Bernoulli(), O.Bernoulli())))
    ne = C.nonergodic_concise(em)
    nw = C.nonwm_concise(em)
    ok = (set(ne.subspaces) == {E1, E2} == set(nw.subspaces)
          and not ne.parametric_families and not ne.group_families
          and verdict_triple(em, DIAG) == (True, True, True))
    report(1, ok, "product-Bernoulli: NE = NW = {axes}, diagonal fully mixing")


def test_criterion_2_bergelson_ward_fixture():
    bw = O.BergelsonWard(BW_VECTORS)
    em = O.expected_measure(bw)
    perps = {Subspace.from_vectors(QQ, 2, [list(v)]).orthocomplement()
             for v in BW_VECTORS}
    ok = all(verdict_triple(em, sub)[:2] == (False, False) for sub in perps)
    ne = C.nonergodic_concise(em)
    nw = C.nonwm_concise(em)
    ok = ok and set(ne.subspaces) == perps == set(nw.subspaces) \
        and not ne.parametric_families and not ne.group_families
    em2 = M.promote_field(em, F2)
    irrational = Subspace.from_vectors(F2, 2, [[F2.one(), F2.sqrt_root(2) - 1]])
    v = C.classify_direction(em2, irrational)
    ok = ok and v.weak_mixing and v.ergodic
    report(2, ok, "Bergelson-Ward(8): perp directions non-ergodic/non-wm, "
                  "slope sqrt(2)-1 weak mixing, concise sets exact")


def test_criterion_3_realization_round_trip():
    rng = random.Random(2022)
    done = 0
    failures = 0
    while done < 50:
        d = 2 if done % 2 == 0 else 3
        fam = gen.rand_concise_family(rng, d, rng.randint(1, 2 if d == 2 else 3))
        if fam is None or any(s.dim == d for s in fam):
            continue
        done += 1
        rep = C.realize(fam)
        if not rep.verified:
            failures += 1
    l1 = Subspace.from_vectors(QQ, 3, [[0, 0, 1]])
    l2 = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    gbw = C.realize([l1, l2])
    ok = failures == 0 and gbw.verified \
        and set(gbw.realized_nonergodic.subspaces) == {l1, l2} \
        and set(gbw.realized_nonwm.subspaces) == {l1, l2}
    report(3, ok, f"realization verified on 50 random concise families "
                  f"({failures} failures) and the 1+2-dim R^3 fixture")


def test_criterion_4_pushforward_identity():
    rng = random.Random(4)
    npr = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        field = rng.choice([QQ, F2])
        m = gen.rand_measure(rng, field, 2, EUCLID, reduced=False)
        q = M.pushforward_quotient(m)
        h = npr.integers(-12, 13, size=(100, 2)).astype(float)
        err = float(np.max(np.abs(FT.ft_batch(m, h) - FT.ft_batch(q, h))))
        worst = max(worst, err)
    report(4, worst < 1e-9,
           f"push-forward identity |ft - ft o quotient| = {worst:.2e} < 1e-9")


def test_criterion_5_suspension_consistency():
    rng = random.Random(5)
    mismatches = 0
    for _ in range(50):
        field = rng.choice([QQ, F2])
        d = rng.randint(2, 3)
        m = gen.rand_measure(rng, field, d, TORUS, with_groups=True)
        per = M.suspend(m)
        shift = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        per = M.translate(per, shift)
        for _ in range(20):
            sub = gen.rand_subspace(rng, field, d)
            if verdict_triple(m, sub) != verdict_triple(per, sub):
                mismatches += 1
    report(5, mismatches == 0,
           f"suspension: torus vs periodized verdicts agree "
           f"({mismatches} mismatches in 1000)")


WIENER_SUITE = [
    # (measure, direction, eigenvalue, true representative wall mass)
    (SymbolicMeasure.make(TORUS, 2, QQ, [box(E1), box(E2), box(FULL2)]),
     E1, None, 1.0),
    (SymbolicMeasure.make(TORUS, 2, QQ, [box(E1), box(E2), box(FULL2)]),
     DIAG, None, 0.0),
    (SymbolicMeasure.make(TORUS, 2, QQ, [atom([Fraction(1, 3), Fraction(1, 4)])]),
     E1, [Fraction(1, 3), 0], 1.0),
    (SymbolicMeasure.make(TORUS, 2, QQ, [atom([Fraction(1, 3), Fraction(1, 4)])]),
     E1, None, 0.0),
    (SymbolicMeasure.make(TORUS, 2, QQ, [box(E2, [Fraction(1, 2), 0])]),
     E1, [Fraction(1, 2), 0], 1.0),
    (SymbolicMeasure.make(TORUS, 2, QQ, [box(E2, [Fraction(1, 2), 0])]),
     E1, None, 0.0),
    (SymbolicMeasure.make(TORUS, 2, QQ, [box(E1, w=2), box(E2, w=1)]),
     E2, None, 2.0),
    (SymbolicMeasure.make(EUCLID, 2, QQ, [box(FULL2)]), E1, None, 0.0),
]


def test_criterion_6_wiener_vs_symbolic():
    ok = True
    details = []
    for m, sub, ell, true_mass in WIENER_SUITE:
        assert FT.representative_wall_mass(m, sub, ell) == true_mass
        est = FT.wiener_mass(m, sub, ell, WIENER_CFG)
        good = abs(est.estimate - true_mass) <= 0.05
        if true_mass > 0:
            good = good and est.estimate >= 0.5 * true_mass
        else:
            good = good and abs(est.estimate) <= 0.05
        sym = C.wall_test(m, sub, list(ell) if ell else None)
        good = good and (sym.positive == (true_mass > 0))
        ok = ok and good
        details.append(f"{est.estimate:+.3f}/{true_mass}")
    report(6, ok, "Wiener estimates match symbolic wall masses: "
                  + ", ".join(details))


def test_criterion_7_rajchman_dichotomy():
    cfg = WIENER_CFG
    ok = True
    # wall measures: constant along K^perp cosets, no decay along K^perp
    for sub in (E2, DIAG):
        m = SymbolicMeasure.make(EUCLID, 2, QQ, [box(sub)])
        ok = ok and numeric.coset_constancy_check(m, tol=1e-9, cfg=cfg)
        perp = sub.orthocomplement()
        prof = FT.rajchman_probe(m, perp, [10, 100, 1000], cfg)
        ok = ok and all(abs(s - 1.0) < 1e-9 for s in prof.sup_values)
    # full-dimensional boxes decay along generic rays
    mfull = SymbolicMeasure.make(EUCLID, 2, QQ, [box(FULL2)])
    generic = Subspace.from_vectors(QQ, 2, [[1, Fraction(2, 7)]])
    prof = FT.rajchman_probe(mfull, generic, [10, 100, 1000], cfg)
    ok = ok and prof.sup_values[-1] < 0.01
    mfull3 = SymbolicMeasure.make(EUCLID, 3, QQ, [box(Subspace.full(QQ, 3))])
    ray3 = Subspace.from_vectors(QQ, 3, [[1, Fraction(1, 3), Fraction(2, 5)]])
    prof3 = FT.rajchman_probe(mfull3, ray3, [10, 100, 1000], cfg)
    ok = ok and prof3.sup_values[-1] < 0.01
    report(7, ok, "wall measures: coset-constant transform (<1e-9 variation), "
                  "no decay along K-perp; full boxes < 0.01 by radius 1000")


def test_criterion_8_decomposition():
    rng = random.Random(8)
    ok = True
    for _ in range(200):
        field = rng.choice([QQ, F2])
        d = rng.randint(1, 3)
        space = rng.choice([EUCLID, TORUS])
        m = gen.rand_measure(rng, field, d, space, max_components=4,
                             with_groups=True, reduced=False)
        parts = M.decompose(m)
        ok = ok and len(parts) == d + 1
        for e, p in enumerate(parts):
            ok = ok and all(c.dim == e for c in p.components)
            for i, a in enumerate(p.components):
                for b in p.components[i + 1:]:
                    ok = ok and M.class_key(m.space, a) != M.class_key(m.space, b)
        resum = parts[0]
        for p in parts[1:]:
            resum = M.add(resum, p)
        ok = ok and resum.same_class(m)
        again = M.decompose(resum)
        ok = ok and all(p.same_class(q) for p, q in zip(parts, again))
        if not ok:
            break
    report(8, ok, "decompose: idempotent, dimension-sorted, carrier-distinct, "
                  "re-sums to the input class (200 random measures)")


def test_criterion_9_discrete_spectrum_fixture():
    chair = SymbolicMeasure.make(
        TORUS, 2, QQ,
        [AtomGroup((as_vector(QQ, [1, 0]), as_vector(QQ, [0, 1])), "Q",
                   zero_vector(QQ, 2))])
    nw = C.nonwm_concise(chair)
    ok = nw.subspaces == (FULL2,)          # no weak mixing directions at all
    rational = Subspace.from_vectors(QQ, 2, [[1, 2]])
    ok = ok and not C.classify_direction(chair, rational).ergodic
    chair5 = M.promote_field(chair, F5)
    golden = Subspace.from_vectors(F5, 2, [[F5.one(), (1 + F5.sqrt_root(5)) / 2]])
    v = C.classify_direction(chair5, golden)
    ok = ok and v.ergodic and not v.weak_mixing
    report(9, ok, "chair measure: no wm directions, span{(1,2)} non-ergodic, "
                  "golden-ratio slope ergodic")


def test_criterion_10_oracle_closure():
    models = [O.ProductType((O.Bernoulli(), O.Bernoulli())),
              O.BergelsonWard(BW_VECTORS),
              O.Rotation(tuple(as_vector(F2, [F2.sqrt_root(2) - 1, Fraction(1, 3)]))),
              O.OdometerEigen(2, 2, 2)]
    ok = True
    worst = 0.0
    for model in models:
        rep = O.crosscheck(model, bound=10, tol=1e-12)
        ok = ok and rep.passed
        worst = max(worst, rep.max_error)
        pts = [(i, j) for i in range(-3, 4) for j in range(-3, 4)]
        for obs in O.observables(model)[:4]:
            lam = numeric.gram_min_eigenvalue(model, obs, pts)
            ok = ok and lam > -1e-9
    report(10, ok, f"oracle crosschecks pass at 1e-12 on |n| <= 10 "
                   f"(max err {worst:.1e}); Gram matrices PSD to 1e-9")


def test_criterion_11_lint_suite(fixtures_dir):
    expected = {"lonely_atom.json": ["atom_closure"],
                "broken_symmetry.json": ["translation_symmetry"],
                "ergodic_not_wm.json": ["ergodic_not_weak_mixing"],
                "product_bernoulli.json": [],
                "chair.json": []}
    ok = True
    for name, codes in expected.items():
        doc = json.loads((fixtures_dir / name).read_text())
        warns = C.admissibility_lint(SymbolicMeasure.decode(doc))
        ok = ok and [w.code for w in warns] == codes
    report(11, ok, "lint fixtures fire exactly their designated warnings; "
                   "clean fixtures fire none")


def test_criterion_12_structural_properties():
    rng = random.Random(12)
    ok = True
    # orthocomplement involution, 1000 cases
    for _ in range(1000):
        field = rng.choice(gen.FIELDS)
        d = rng.randint(1, 4)
        sub = gen.rand_subspace(rng, field, d)
        perp = sub.orthocomplement()
        ok = ok and perp.orthocomplement() == sub and sub.dim + perp.dim == d
    report("12a", ok, "orthocomplement involution (1000 cases)")

    # monotonicity along inclusions, 1000 cases
    ok = True
    checked = 0
    while checked < 1000:
        field = rng.choice([QQ, F2])
        d = rng.randint(2, 3)
        m = gen.rand_measure(rng, field, d, rng.choice([EUCLID, TORUS]),
                             max_components=2, with_groups=True)
        big = gen.rand_subspace(rng, field, d)
        if big.dim < 2:
            continue
        vec = zero_vector(field, d)
        for b in big.basis:
            vec = vec_add(vec, vec_scale(gen.rand_scalar(rng, field, 0.2), b))
        small = Subspace.from_vectors(field, d, [vec])
        if small.dim != 1:
            continue
        checked += 1
        vs, vb = C.classify_direction(m, small), C.classify_direction(m, big)
        ok = ok and (not vs.ergodic or vb.ergodic) \
            and (not vs.weak_mixing or vb.weak_mixing) \
            and (not vb.strong_mixing or vs.strong_mixing)
    report("12b", ok, "monotonicity along subspace inclusions (1000 cases)")

    # subordination soundness, 1000 cases
    ok = True
    for _ in range(1000):
        field = rng.choice([QQ, F2])
        d = rng.randint(2, 3)
        m = gen.rand_measure(rng, field, d, rng.choice([EUCLID, TORUS]),
                             max_components=2, with_groups=True)
        sub = gen.rand_subspace(rng, field, d)
        v = C.classify_direction(m, sub)
        ok = ok and v.ergodic == (not C.nonergodic_concise(m).contains_direction(sub))
        ok = ok and v.weak_mixing == (not C.nonwm_concise(m).contains_direction(sub))
    report("12c", ok, "subordination soundness vs concise sets (1000 cases)")
