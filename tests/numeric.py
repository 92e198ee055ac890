"""Numeric checks that only the tests use: a transform at one point, the
constancy of a box's transform along cosets of its orthocomplement, and the
smallest eigenvalue of a correlation Gram matrix."""
from __future__ import annotations

import numpy as np

from dirspec import oracle as O
from dirspec.errors import ValidationError
from dirspec.fourier import DEFAULT_CONFIG, EstimatorConfig, ft_batch
from dirspec.measure import BoxLebesgue, SymbolicMeasure

CONSTANCY_TRIALS = 32  # random points of ``coset_constancy_check``


def ft(m: SymbolicMeasure, point, cfg: EstimatorConfig = DEFAULT_CONFIG) -> complex:
    return complex(ft_batch(m, np.asarray(point, dtype=float)[None, :], cfg)[0])


def coset_constancy_check(m: SymbolicMeasure, tol: float = 1e-9,
                          cfg: EstimatorConfig = DEFAULT_CONFIG) -> bool:
    """For a single zero-offset box component, verify the transform is
    constant along cosets of K^perp (exact for the factorized formula)."""
    if len(m.components) != 1 or not isinstance(m.components[0], BoxLebesgue):
        raise ValidationError("coset constancy applies to a single box component")
    comp = m.components[0]
    if not comp.carrier.is_linear():
        raise ValidationError("coset constancy applies to a zero-offset box")
    perp = comp.carrier.subspace.orthocomplement()
    rng = np.random.default_rng(cfg.seed)
    t = rng.normal(scale=10.0, size=(CONSTANCY_TRIALS, m.dim))
    base = ft_batch(m, t, cfg)
    if perp.dim == 0:
        return True  # only u = 0 is admissible
    pb = np.array([[float(x) for x in row] for row in perp.basis])
    u = rng.normal(scale=5.0, size=(CONSTANCY_TRIALS, perp.dim)) @ pb
    shifted = ft_batch(m, t + u, cfg)
    return bool(np.max(np.abs(shifted - base)) < tol)


def gram_min_eigenvalue(model: O.ActionModel, observable: str,
                        points: list[tuple[int, ...]]) -> float:
    """Minimum eigenvalue of the correlation Gram matrix at the given lattice
    points (positive definiteness check)."""
    g = np.array([[O.correlation(model,
                                 tuple(p - q for p, q in zip(np_, nq)), observable)
                   for nq in points] for np_ in points])
    return float(np.linalg.eigvalsh((g + g.conj().T) / 2).min())
