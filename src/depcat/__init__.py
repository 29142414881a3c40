"""Dependent categorical sequences driven by index-to-parent generators.

A sequence of K-category draws where each position conditions on one
earlier position, chosen by a generator function.  The package builds the
induced dependency trees, computes exact marginals and cross-covariance
matrices by both exhaustive enumeration and kernel propagation, and
samples sequences reproducibly.
"""

from .errors import (
    AxiomViolationError,
    DepcatError,
    DomainError,
    EnumerationTooLargeError,
)
from .exact import (
    DEFAULT_ENUMERATION_CAP,
    CrossCovariance,
    VerificationCheck,
    cross_covariance_closed_form,
    cross_covariance_enumerated,
    closed_form_covariance_matrix,
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
    evaluate,
    validate,
)
from .graph import (
    DependencyTree,
    build_tree,
    export_dot,
    tree_distance,
)
from .kernel import (
    Marginal,
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
    "CrossCovariance",
    "DEFAULT_ENUMERATION_CAP",
    "DepcatError",
    "DependencyTree",
    "DomainError",
    "EmpiricalMarginal",
    "EnumerationTooLargeError",
    "GeneratorSpec",
    "GeneratorViolation",
    "Marginal",
    "SampleBatch",
    "VerificationCheck",
    "build_tree",
    "closed_form_covariance_matrix",
    "cross_covariance_closed_form",
    "cross_covariance_enumerated",
    "empirical_cross_covariance",
    "empirical_marginals",
    "enumerate_outcomes",
    "enumerated_marginals",
    "evaluate",
    "export_dot",
    "joint_distribution",
    "joint_pair_probability",
    "marginal_at",
    "outcome_probability",
    "sample_batch",
    "transition_kernel",
    "tree_distance",
    "validate",
    "verification_suite",
]
