"""The package's public names: one entry point per quantity."""

import json

import depcat
import depcat.errors
import depcat.exact
import depcat.generators
import depcat.graph
import depcat.kernel
from depcat import cli

PUBLIC_NAMES = {
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
}

# Each was a second route to a quantity another public name computes.
REMOVED_NAMES = (
    "PositionMarginal",  # marginal_at returns a Marginal
    "PairProbability",  # joint_pair_probability returns a float
    "endpoint_match_probability_enumerated",  # joint_pair_probability(..., method="enumerate")
    "parent_indices",  # build_tree(spec, N).parents
    "lowest_common_ancestor",  # no caller
    "TransitionKernel",  # transition_kernel returns the array
    "sample_sequence",  # sample_batch(..., count=1, first_index=index).outcomes[0]
    "repeat_probability",  # transition_kernel(p, delta)[j - 1, j - 1]
    "switch_probability",  # transition_kernel(p, delta)[i - 1, j - 1] with i != j
    "prime_partition",  # evaluate(GeneratorSpec.builtin("prime_partition"), n)
    "path_to_root",  # DependencyTree.parent_of, tree_distance
    "endpoint_match_probability",  # closed_form_covariance_matrix(p, delta, n - 1), diagonal + p**2
    "CategoryIndexError",  # DomainError: "category index 3 outside 1..2"
    "IncompleteGeneratorError",  # AxiomViolationError: "generator 'table': n=5: no table entry"
    "EmptyBatchError",  # DomainError: "cannot compute marginals of an empty batch"
    "DependencyCoefficient",  # DependencyCoefficient(x).value is depcat.kernel.as_delta(x)
    "ValidationReport",  # validate returns the tuple of GeneratorViolations, empty when valid
)

# The same second routes, where they were defined.
REMOVED_DEFINITIONS = (
    (depcat.kernel, "repeat_probability"),
    (depcat.kernel, "switch_probability"),
    (depcat.Marginal, "probability_of"),  # marginal.probs[j - 1]
    (depcat.generators, "prime_partition"),
    (depcat.generators, "_PRIME_PARTITION"),
    (depcat.graph, "path_to_root"),
    (depcat.DependencyTree, "to_parent_map"),  # dict(tree.edges())
    (depcat.exact, "endpoint_match_probability"),
    (depcat.kernel, "check_category"),  # check_integer(i, "category index", 1, K)
    (depcat.kernel, "DependencyCoefficient"),
    (depcat.errors, "CategoryIndexError"),
    (depcat.errors, "IncompleteGeneratorError"),
    (depcat.errors, "EmptyBatchError"),
    # JSON text is written by the CLI from each object's data view
    (depcat.GeneratorSpec, "to_json"),  # json.dumps(spec.to_dict(), sort_keys=True)
    (depcat.GeneratorSpec, "from_json"),  # GeneratorSpec.from_dict(json.loads(text))
    (depcat.CrossCovariance, "to_json"),  # json.dumps(cov.to_json_dict())
    (depcat.DependencyTree, "to_json"),  # json.dumps({str(n): p for n, p in tree.edges()})
    (depcat.SampleBatch, "metadata_json"),  # json.dumps(batch.metadata(), sort_keys=True, indent=2)
    (depcat.exact, "_pair_joint_propagated"),  # _Propagation(...).pair_joints([(m, n)])
    (depcat.generators, "ValidationReport"),
    (depcat.exact, "_diagonal_marginals"),  # _pair_joints(joint)[0]
)


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 33
    assert len(depcat.__all__) == len(set(depcat.__all__))
    assert set(depcat.__all__) == PUBLIC_NAMES
    assert all(hasattr(depcat, name) for name in PUBLIC_NAMES)
    assert not [name for name in REMOVED_NAMES if hasattr(depcat, name)]


def test_removed_definitions_are_gone():
    assert not [name for owner, name in REMOVED_DEFINITIONS if hasattr(owner, name)]


# One CLI input per error class below DepcatError: its exit code and error text.
FK_ARGS = ["--generator", "fk", "--p", "0.5,0.5", "--n", "4"]
EXIT_CODES = (
    ("DomainError", 2, ["verify", *FK_ARGS, "--delta", "1.5"], "dependency coefficient"),
    (
        "AxiomViolationError", 3,
        ["graph", "--generator", json.dumps({"kind": "table", "table": {"2": 2}}), "--n", "2"],
        "generator 'table' fails validation",
    ),
    (
        "EnumerationTooLargeError", 5,
        ["verify", *FK_ARGS, "--delta", "0.4", "--cap", "1"], "sample space has 2**4",
    ),
)


def test_one_error_class_per_exit_code(capsys):
    exported = {
        name for name in depcat.__all__
        if isinstance(getattr(depcat, name), type) and issubclass(getattr(depcat, name), Exception)
    }
    assert exported == {"DepcatError", *(name for name, _, _, _ in EXIT_CODES)}
    for name, code, argv, text in EXIT_CODES:
        assert cli.main(argv) == code, name
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {text}") and err.count("\n") == 1
