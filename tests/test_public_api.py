"""The package's public names: one entry point per quantity."""

import depcat

PUBLIC_NAMES = {
    "AxiomViolationError",
    "BUILTIN_KINDS",
    "CategoryIndexError",
    "CrossCovariance",
    "DEFAULT_ENUMERATION_CAP",
    "DepcatError",
    "DependencyCoefficient",
    "DependencyTree",
    "DomainError",
    "EmptyBatchError",
    "EmpiricalMarginal",
    "EnumerationTooLargeError",
    "GeneratorSpec",
    "GeneratorViolation",
    "IncompleteGeneratorError",
    "Marginal",
    "SampleBatch",
    "ValidationReport",
    "VerificationCheck",
    "build_tree",
    "closed_form_covariance_matrix",
    "cross_covariance_closed_form",
    "cross_covariance_enumerated",
    "empirical_cross_covariance",
    "empirical_marginals",
    "endpoint_match_probability",
    "enumerate_outcomes",
    "enumerated_marginals",
    "evaluate",
    "export_dot",
    "joint_distribution",
    "joint_pair_probability",
    "marginal_at",
    "outcome_probability",
    "path_to_root",
    "prime_partition",
    "repeat_probability",
    "sample_batch",
    "sample_sequence",
    "switch_probability",
    "transition_kernel",
    "tree_distance",
    "validate",
    "verification_suite",
}

# Each was a second route to a quantity another public name computes.
REMOVED_NAMES = (
    "PositionMarginal",  # marginal_at returns a Marginal
    "PairProbability",  # joint_pair_probability returns a float
    "endpoint_match_probability_enumerated",  # joint_pair_probability(..., method="enumerate")
    "parent_indices",  # build_tree(spec, N).parents
    "lowest_common_ancestor",  # no caller
    "TransitionKernel",  # transition_kernel returns the array
)


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 44
    assert len(depcat.__all__) == len(set(depcat.__all__))
    assert set(depcat.__all__) == PUBLIC_NAMES
    assert all(hasattr(depcat, name) for name in PUBLIC_NAMES)
    assert not [name for name in REMOVED_NAMES if hasattr(depcat, name)]
