"""dirspec: exact directional ergodicity/mixing classification for Z^d and
R^d actions via wall decompositions of symbolic spectral measures, with a
seeded numerical Fourier oracle."""

__version__ = "0.1.0"

from .scalar import FieldScalar, FieldSpec, QQ
from .linalg import AffineCarrier, LatticeSubgroup, Subspace, rationality, saturate
from .measure import (Atom, AtomGroup, BoxLebesgue, SymbolicMeasure, add,
                      convolve, decompose, exp, pushforward_quotient,
                      pushforward_subgroup, suspend, translate)
from .classify import (ConciseSet, DirectionVerdict, admissibility_lint,
                       classify_direction, directional_eigenvalues,
                       nonergodic_concise, nonwm_concise, realize, wall_test)
from .fourier import EstimatorConfig, ft_batch, rajchman_probe, wiener_mass
from .oracle import (BergelsonWard, Bernoulli, OdometerEigen, ProductType,
                     Rotation, Rotation1, correlation, crosscheck,
                     expected_measure, observable_measure, observables)

__all__ = [name for name in dir() if not name.startswith("_")]
