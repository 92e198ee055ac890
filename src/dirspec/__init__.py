"""dirspec: exact directional ergodicity/mixing classification for Z^d and
R^d actions via wall decompositions of symbolic spectral measures, with a
seeded numerical Fourier oracle.  ``import dirspec`` loads no submodule: a
public name is imported on first access (PEP 562) and then bound here."""

__version__ = "0.1.0"

_HOME = {name: module for module, names in {  # public name -> its submodule
    "scalar": "FieldScalar FieldSpec QQ",
    "linalg": "AffineCarrier LatticeSubgroup Subspace rationality saturate",
    "measure": "Atom AtomGroup BoxLebesgue SymbolicMeasure add convolve decompose exp "
               "pushforward_quotient pushforward_subgroup suspend translate",
    "classify": "ConciseSet DirectionVerdict admissibility_lint classify_direction "
                "directional_eigenvalues nonergodic_concise nonwm_concise realize wall_test",
    "fourier": "EstimatorConfig ft_batch rajchman_probe wiener_mass",
    "oracle": "BergelsonWard Bernoulli OdometerEigen ProductType Rotation Rotation1 "
              "correlation crosscheck expected_measure observable_measure observables",
    "errors": "",
}.items() for name in (module, *names.split())}  # and a submodule's name -> itself
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = module if name == _HOME[name] else getattr(module, name)
    return value
