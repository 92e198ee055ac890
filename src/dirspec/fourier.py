"""Floating-point Fourier oracle for symbolic measure representatives.

Closed-form transforms (boxes: a character times sinc factors for the
centered-zonotope representative; an atom is the box with none), a
quasi-Monte-Carlo directional Wiener estimator for wall masses, and Rajchman
decay probes along directions.  Everything is seeded and deterministic; this
module is the independent numerical check on the exact classifier, so it only
estimates and asks the exact layer every yes/no question: atom groups are
listed in the field, and wall masses use ``classify._on_affine_wall``.  numpy
is imported only inside the functions that compute floats, so importing this
module (and with it the exact commands) loads only the standard library.  The
Sobol points are drawn here with numpy alone (``_sobol``).  ``EstimatorConfig``
reads each setting, and ``rajchman_probe`` each radius, by a ``scalar`` rule.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from collections.abc import Iterable, Iterator
from itertools import chain, repeat

from .classify import _check_direction, _on_affine_wall
from .errors import (ENUMERATION_BUDGET, ClosureBoundError, ValidationError, bounded_power,
                     check_enumeration)
from .linalg import FieldVector, Subspace, vec_is_zero, vec_mod1
from .measure import (EUCLID, TORUS, AtomGroup, SymbolicMeasure, is_identity,
                      truncated_atom_count, truncated_atoms)
from .scalar import _decode_float, _decode_int

DIRECTIONS_PER_RADIUS = 64  # sampled points per radius in ``rajchman_probe``


@dataclass(frozen=True)
class EstimatorConfig:
    """The estimator settings: each field is also a ``DIRSPEC_CONFIG`` key
    and a CLI flag (``--group-truncation`` for ``group_truncation``)."""

    samples: int = 4096
    radius: float = 200.0
    seed: int = 20221112
    tolerance: float = 0.05
    periodization_truncation: int = 8
    group_truncation: int = 0  # 0: reject atom groups in ft

    def __post_init__(self):
        for f in fields(self):  # read by its default's type; samples, radius > 0
            what = f"estimator setting {f.name}"
            decode = _decode_int if type(f.default) is int else _decode_float
            value = decode(getattr(self, f.name), what)
            object.__setattr__(self, f.name, value)
            positive = f.name in ("samples", "radius")
            if value < 0 or positive and not value:
                raise ValidationError(f"{what} must be {'> 0' if positive else '>= 0'}, got {value}")

    def encode(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = EstimatorConfig()


def _floats(v) -> np.ndarray:
    import numpy as np
    return np.array([float(x) for x in v], dtype=float)


def check_truncations(m: SymbolicMeasure, cfg: EstimatorConfig) -> None:
    """Refuse a representative past ENUMERATION_BUDGET before a point is drawn
    or listed: pool^k atoms per k-generator atom group, (2N+1)^d lattice points
    if periodized.  Callers: ``ft_batch``, ``wiener_mass``, ``representative_wall_mass``."""
    for comp in m.components:
        if isinstance(comp, AtomGroup):
            count = truncated_atom_count(comp, cfg.group_truncation, ENUMERATION_BUDGET)
            check_enumeration(count, "the truncated atom list of an atom group")
    if m.periodized:
        check_enumeration(bounded_power(2 * cfg.periodization_truncation + 1, m.dim),
                          "the periodization lattice")


def group_representative(comp: AtomGroup, space: str, truncation: int
                         ) -> tuple[tuple[FieldVector, ...], tuple[float, ...]]:
    """Deterministic truncated atom list for an atom-group component: the
    exact atoms of ``measure.truncated_atoms``, reduced mod Z^d on the torus,
    each once, the identity left out.

    Coefficients range over |c| <= truncation (ring Z) or p/q with
    |p|, q <= truncation (ring Q); weights decay geometrically in the size of
    an atom's first combination and are normalized to the component weight.
    """
    if truncation < 1:
        raise ValidationError("ft of an atom group needs a positive truncation count")
    atoms: dict[FieldVector, float] = {}
    for atom, size in truncated_atoms(comp, truncation):
        if space == TORUS:
            atom = vec_mod1(atom)
        if not is_identity(space, atom):
            atoms.setdefault(atom, 2.0 ** -size)
    if not atoms:
        return (), ()
    scale = float(comp.weight) / sum(atoms.values())
    return tuple(atoms), tuple(w * scale for w in atoms.values())


def _group_atoms(m: SymbolicMeasure, comp: AtomGroup, truncation: int
                 ) -> tuple[tuple[FieldVector, ...], tuple[float, ...]]:
    """``group_representative`` of a component of m, built once in m's memo."""
    key = ("group_representative", comp, truncation)
    if key not in m.memo:
        m.memo[key] = group_representative(comp, m.space, truncation)
    return m.memo[key]


def ft_batch(m: SymbolicMeasure, points: np.ndarray,
             cfg: EstimatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Transform of the concrete representative at an (n, d) array of points.

    Convention: ft(sigma, t) = integral of exp(-2 pi i a.t) d sigma(a).
    """
    import numpy as np
    t = np.atleast_2d(np.asarray(points, dtype=float))
    if t.shape[1] != m.dim:
        raise ValidationError("evaluation points have wrong dimension")
    check_truncations(m, cfg)
    out = np.zeros(t.shape[0], dtype=complex)
    for comp in m.components:
        if isinstance(comp, AtomGroup):
            pts, ws = _group_atoms(m, comp, cfg.group_truncation)
            for p, w in zip(pts, ws):
                out += w * np.exp(-2j * np.pi * (t @ _floats(p)))
            continue
        # an atom is a box with no sinc factors
        val = float(comp.weight) * np.exp(-2j * np.pi * (t @ _floats(comp.rep_center())))
        for g in comp.generators:
            val = val * np.sinc(t @ _floats(g))
        out += val
    if m.periodized:
        out = out * _periodization_factor(m.dim, t, cfg.periodization_truncation)
    return out


def _periodization_factor(dim: int, t: np.ndarray, trunc: int) -> np.ndarray:
    """sum_{|n|_inf <= N} c 2^{-|n|_inf} exp(2 pi i n.t), normalized to 1 at 0.

    Truncation error: the shell |n|_inf = k carries (2k+1)^d - (2k-1)^d
    lattice points of weight 2^-k, so relative to the full geometric series
    the dropped tail sum_{k>N} ((2k+1)^d - (2k-1)^d) 2^-k is, for the
    default N = 8, about 0.3% (d=1), 1.8% (d=2) and 6.5% (d=3) of the
    total -- adequate for the qualitative class-level probes this factor
    feeds, where the weight sequence is arbitrary anyway.
    """
    import numpy as np
    grids = np.meshgrid(*([np.arange(-trunc, trunc + 1)] * dim), indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=1)
    weights = 2.0 ** (-np.max(np.abs(lattice), axis=1))
    weights = weights / weights.sum()
    out = np.zeros(t.shape[0], dtype=complex)
    chunk = max(1, 2 ** 22 // max(t.shape[0], 1))
    for start in range(0, lattice.shape[0], chunk):
        block = lattice[start:start + chunk]
        w = weights[start:start + chunk]
        out += (w[None, :] * np.exp(2j * np.pi * (t @ block.T))).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Wiener wall-mass estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WienerEstimate:
    estimate: float
    spread: float

    def encode(self) -> dict:
        return {"estimate": self.estimate, "spread": self.spread}


def _orthonormal_basis(direction: Subspace) -> np.ndarray:
    if direction.dim < 1:
        raise ValidationError("directions must have dimension >= 1")
    import numpy as np
    b = np.array([[float(x) for x in row] for row in direction.basis], dtype=float)
    q, _ = np.linalg.qr(b.T)
    return q[:, :direction.dim].T  # rows: ON basis of L


# Joe & Kuo (2008) direction numbers of Sobol dimensions 2-32: the code of each primitive
# polynomial, then its initial m_1, ..., m_s (dimension 1 has every m_k = 1)
_JOE_KUO = [tuple(map(int, entry.split())) for entry in """
3 1; 7 1 3; 11 1 3 1; 13 1 1 1; 19 1 1 3 3; 25 1 3 5 13; 37 1 1 5 5 17; 41 1 1 5 5 5;
47 1 1 7 11 19; 55 1 1 5 1 1; 59 1 1 1 3 11; 61 1 3 5 5 31; 67 1 3 3 9 7 49;
91 1 1 1 15 21 21; 97 1 3 1 13 27 49; 103 1 1 1 15 7 5; 109 1 3 1 15 13 25;
115 1 1 5 5 19 61; 131 1 3 7 11 23 15 103; 137 1 3 7 13 13 15 69; 143 1 1 3 13 7 35 63;
145 1 3 5 9 1 25 53; 157 1 3 1 13 9 35 107; 167 1 3 1 5 27 61 31; 171 1 1 5 11 19 41 61;
185 1 3 5 3 3 13 69; 191 1 1 7 13 1 19 1; 193 1 3 7 5 13 19 59; 203 1 1 3 9 25 29 41;
211 1 3 5 13 23 1 55; 213 1 3 7 3 13 59 17""".split(";")]
SOBOL_DIMS = len(_JOE_KUO) + 1
SOBOL_BITS = 30  # the sequence has 2**30 points, each a multiple of 2**-30
SAMPLE_BUDGET = 1 << 22  # coordinates in a first ``_ball_points`` chunk: 8x the default at e = 32


def _sobol(d: int, seed: int, start: int, n: int) -> np.ndarray:
    """Points start, ..., start + n - 1 of the d-dimensional Sobol sequence
    with linear matrix scrambling and a digital shift (Matousek 1998), drawn
    from ``default_rng(seed)``: bit for bit the points of the reference
    engine that ``tests/test_fourier.py`` compares against."""
    return next(_sobol_chunks(d, seed, start, [n]))


def _sobol_chunks(d: int, seed: int, start: int, sizes: Iterable[int]) -> Iterator[np.ndarray]:
    """The ``_sobol`` points from ``start`` on, in chunks of ``sizes`` points:
    the shift and the scrambled direction numbers are built once, and each
    chunk continues from the Gray code of its first point."""
    import numpy as np
    if d > SOBOL_DIMS:
        raise ClosureBoundError(f"the Sobol table has {SOBOL_DIMS} dimensions, not {d}")
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, SOBOL_BITS), dtype=np.uint32) \
        @ (1 << np.arange(SOBOL_BITS, dtype=np.uint32))
    lower = np.tril(rng.integers(2, size=(d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    lower[:, range(SOBOL_BITS), range(SOBOL_BITS)] = 1
    m = np.ones((d, SOBOL_BITS), dtype=np.uint32)
    for i, (poly, *row) in enumerate(_JOE_KUO[:d - 1], start=1):
        s = len(row)  # Bratley & Fox's recurrence for m_j
        for j in range(s, SOBOL_BITS):
            new = row[j - s] ^ (row[j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= row[j - k] << k
            row.append(new)
        m[i] = row
    top = 1 << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # bit 29 - j
    v = m * top  # direction number j is m_j 2^(29 - j)
    # bit 29 - p of scrambled v_j: the parity of v_j and row p of L (column 0 on top)
    parity = np.bitwise_count((lower @ top)[:, :, None] & v[:, None, :]) & 1
    sv = (parity * top[:, None]).sum(axis=1, dtype=np.uint32)
    for n in sizes:
        if start + n > 1 << SOBOL_BITS:
            raise ClosureBoundError(
                f"the Sobol sequence has 2**{SOBOL_BITS} points, not {start + n}")
        # point k: the shift xor each sv_b, b a bit of k's Gray code; k + 1 adds sv_ctz(k + 1)
        gray = (start ^ start >> 1) >> np.arange(SOBOL_BITS) & 1
        first = shift ^ np.bitwise_xor.reduce(sv[:, gray == 1], axis=1)
        k = np.arange(start + 1, start + n, dtype=np.int64)
        steps = sv[:, np.bitwise_count((k & -k) - 1)].T
        yield np.bitwise_xor.accumulate(np.vstack([first, steps]), axis=0) * 2.0 ** -SOBOL_BITS
        start += n


def _ball_points(e: int, radius: float, samples: int, seed: int) -> np.ndarray:
    """The first ``samples`` Sobol points, scaled to the cube [-radius, radius]^e,
    that lie in its inscribed ball.  The prefix is drawn in chunks (max(8,
    4 samples) points, then 8 samples at a time) until enough fall inside.  A
    draw whose expected length, samples over the ball's share
    pi^(e/2) / (Gamma(e/2 + 1) 2^e) of the cube, passes the sequence, or
    whose first chunk has more than ``SAMPLE_BUDGET`` coordinates, is
    refused before any point is drawn."""
    import numpy as np
    log2_need = math.log2(samples) + e + (math.lgamma(e / 2 + 1) - e / 2 * math.log(math.pi)) \
        / math.log(2)
    if log2_need > SOBOL_BITS and e <= SOBOL_DIMS:  # past the table, ``_sobol_chunks`` refuses
        raise ClosureBoundError(f"{samples} points in a {e}-dimensional ball need about "
                                f"2**{log2_need:.1f} Sobol points; the sequence has "
                                f"2**{SOBOL_BITS} points")
    first = max(8, 4 * samples)
    if first <= 1 << SOBOL_BITS:  # past the sequence, ``_sobol_chunks`` refuses first
        check_enumeration(first * e, f"a first chunk of {first} Sobol points in {e} "
                          "dimensions", SAMPLE_BUDGET)
    chunks = _sobol_chunks(e, seed, 0, chain([first], repeat(8 * samples)))
    inside = np.empty((0, e))
    while inside.shape[0] < samples:
        cube = (2.0 * next(chunks) - 1.0) * radius
        inside = np.vstack([inside, cube[np.linalg.norm(cube, axis=1) <= radius]])
    return inside[:samples]


def wiener_mass(m: SymbolicMeasure, direction: Subspace, ell,
                cfg: EstimatorConfig = DEFAULT_CONFIG) -> WienerEstimate:
    """Estimate the representative's mass on the wall L^perp + ell.

    Averages exp(2 pi i ell.t) ft(sigma, t) over quasi-random points t in the
    radius ball of L; characters off the wall average out as the radius grows.
    The spread is the standard deviation across 8 consecutive sub-batches.
    """
    import numpy as np
    ell_vec = _check_direction(m.field, m.dim, direction, ell)
    check_truncations(m, cfg)
    onb = _orthonormal_basis(direction)
    coords = _ball_points(direction.dim, cfg.radius, cfg.samples, cfg.seed)
    t = coords @ onb
    vals = ft_batch(m, t, cfg)
    if not vec_is_zero(ell_vec):
        vals = vals * np.exp(2j * np.pi * (t @ _floats(ell_vec)))
    batches = np.array_split(vals, 8)
    means = [float(np.mean(b.real)) for b in batches if len(b)]
    return WienerEstimate(float(np.mean(vals.real)), float(np.std(means)))


def representative_wall_mass(m: SymbolicMeasure, direction: Subspace, ell,
                             cfg: EstimatorConfig = DEFAULT_CONFIG) -> float:
    """Exact mass the concrete representative puts on the affine wall
    L^perp + ell in R^d (no lattice shifts: this is what the Wiener
    estimator converges to; a box sits at ``rep_center``, from which its
    torus carrier offset may differ by lattice vectors)."""
    check_truncations(m, cfg)  # an oversized truncation is refused first (exit 4)
    if m.periodized:
        raise ValidationError("representative masses are defined for plain measures")
    ell_vec = _check_direction(m.field, m.dim, direction, ell)
    mass = 0.0
    for comp in m.components:
        if isinstance(comp, AtomGroup):
            pts, ws = _group_atoms(m, comp, cfg.group_truncation)
            for p, w in zip(pts, ws):
                if _on_affine_wall(EUCLID, direction, p, ell_vec):
                    mass += w
        elif comp.carrier.subspace.orthogonal_to(direction) and \
                _on_affine_wall(EUCLID, direction, comp.rep_center(), ell_vec):
            mass += float(comp.weight)  # atoms and boxes
    return mass


# ---------------------------------------------------------------------------
# Rajchman decay probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayProfile:
    radii: tuple[float, ...]
    sup_values: tuple[float, ...]
    envelope: tuple[float, ...]

    def encode(self) -> dict:
        return {"radii": list(self.radii), "sup": list(self.sup_values),
                "envelope": list(self.envelope)}


def rajchman_probe(m: SymbolicMeasure, direction: Subspace, radii,
                   cfg: EstimatorConfig = DEFAULT_CONFIG) -> DecayProfile:
    """sup |ft| over sampled points of norm r in L, for each radius r."""
    import numpy as np
    radii = [_decode_float(r, "a decay radius") for r in radii]
    onb = _orthonormal_basis(direction)
    raw = 2.0 * _sobol(direction.dim, cfg.seed, 0, DIRECTIONS_PER_RADIUS) - 1.0
    norms = np.linalg.norm(raw, axis=1)
    unit = raw[norms > 1e-9] / norms[norms > 1e-9, None]
    sups = []
    for r in radii:
        pts = (unit * r) @ onb
        sups.append(float(np.max(np.abs(ft_batch(m, pts, cfg)))))
    env = list(sups)
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    return DecayProfile(tuple(radii), tuple(sups), tuple(env))
