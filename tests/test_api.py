import dirspec


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
