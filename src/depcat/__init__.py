"""Dependent categorical sequences driven by index-to-parent generators.

A sequence of K-category draws where each position conditions on one
earlier position, chosen by a generator function.  The package builds the
induced dependency trees, computes exact marginals and cross-covariance
matrices by both exhaustive enumeration and kernel propagation, and
samples sequences reproducibly.
"""

from .errors import (
    AxiomViolationError,
    CategoryIndexError,
    DepcatError,
    DomainError,
    EmptyBatchError,
    EnumerationTooLargeError,
    IncompleteGeneratorError,
)
from .exact import (
    DEFAULT_ENUMERATION_CAP,
    CrossCovariance,
    VerificationCheck,
    cross_covariance_closed_form,
    cross_covariance_enumerated,
    closed_form_covariance_matrix,
    endpoint_match_probability,
    enumerate_outcomes,
    enumerated_marginals,
    joint_distribution,
    joint_pair_probability,
    marginal_at,
    outcome_probability,
    verification_suite,
)
from .generators import (
    BUILTIN_KINDS,
    GeneratorSpec,
    GeneratorViolation,
    ValidationReport,
    evaluate,
    prime_partition,
    validate,
)
from .graph import (
    DependencyTree,
    build_tree,
    export_dot,
    path_to_root,
    tree_distance,
)
from .kernel import (
    DependencyCoefficient,
    Marginal,
    repeat_probability,
    switch_probability,
    transition_kernel,
)
from .sampler import (
    EmpiricalMarginal,
    SampleBatch,
    empirical_cross_covariance,
    empirical_marginals,
    sample_batch,
)

__version__ = "0.1.0"

__all__ = [
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
    "switch_probability",
    "transition_kernel",
    "tree_distance",
    "validate",
    "verification_suite",
]
