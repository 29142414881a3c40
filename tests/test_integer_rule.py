"""The integer rule: every integer argument of the library, one row each.

Each row calls one public function with one integer argument replaced.
A fractional float, a bool and an integral float must each raise
`DomainError` naming the argument, as int() would truncate the first,
read the second as 1 and accept the third.  A value just outside the
argument's bound must raise as well, naming it.
"""

import re

import numpy as np
import pytest

from depcat import (
    CategoryIndexError,
    CrossCovariance,
    DependencyTree,
    DomainError,
    GeneratorSpec,
    Marginal,
    SampleBatch,
    build_tree,
    closed_form_covariance_matrix,
    cross_covariance_closed_form,
    cross_covariance_enumerated,
    empirical_cross_covariance,
    empirical_marginals,
    endpoint_match_probability,
    enumerate_outcomes,
    enumerated_marginals,
    evaluate,
    joint_distribution,
    joint_pair_probability,
    marginal_at,
    outcome_probability,
    path_to_root,
    prime_partition,
    repeat_probability,
    sample_batch,
    switch_probability,
    tree_distance,
    validate,
    verification_suite,
)
from depcat.rng import stream_keys, uniform_grid

P = [0.5, 0.3, 0.2]
D = 0.4
SEQ = GeneratorSpec.builtin("sequential")
TREE = build_tree(SEQ, 3)
BATCH = sample_batch(P, D, SEQ, 4, 5, seed=1)
ZERO_COVARIANCE = np.zeros((3, 3))


def row(label, call, name, outside=None, error=DomainError, named=None):
    """One argument: `call(value)` passes `value` as it, and errors name it `name`.

    `outside` lies just past the argument's bound (None for a seed, which
    has none); the error it raises is `error`, whose message matches
    `named`, by default a message that starts with `name`.
    """
    return pytest.param(call, name, outside, error, named or f"^{re.escape(name)} ", id=label)


# The m < n check names both positions.
M_PAIR = "^positions must satisfy 1 <= m < n, got m=0, "
N_PAIR = "^positions must satisfy 1 <= m < n, got m=1, n=1$"
CATEGORY = CategoryIndexError

ROWS = [
    # exact
    row("enumerate_outcomes-length", lambda v: enumerate_outcomes(v, 2), "sequence length", 0),
    row(
        "enumerate_outcomes-num_categories",
        lambda v: enumerate_outcomes(2, v), "num_categories", 1,
    ),
    row("enumerate_outcomes-cap", lambda v: enumerate_outcomes(2, 2, v), "enumeration cap", 0),
    row(
        "outcome_probability-entry",
        lambda v: outcome_probability((1, v), P, D, SEQ), "outcome entry", 4,
    ),
    row(
        "joint_distribution-length",
        lambda v: joint_distribution(P, D, SEQ, v), "sequence length", 0,
    ),
    row(
        "joint_distribution-cap",
        lambda v: joint_distribution(P, D, SEQ, 3, v), "enumeration cap", 0,
    ),
    row("marginal_at-position", lambda v: marginal_at(P, D, SEQ, v), "position", 0),
    row(
        "enumerated_marginals-length",
        lambda v: enumerated_marginals(P, D, SEQ, v), "sequence length", 0,
    ),
    row(
        "enumerated_marginals-cap",
        lambda v: enumerated_marginals(P, D, SEQ, 3, v), "enumeration cap", 0,
    ),
    row(
        "joint_pair_probability-m",
        lambda v: joint_pair_probability(P, D, SEQ, v, 1, 3, 1), "m", 0, named=M_PAIR,
    ),
    row(
        "joint_pair_probability-i",
        lambda v: joint_pair_probability(P, D, SEQ, 1, v, 3, 1), "category index", 4, CATEGORY,
    ),
    row(
        "joint_pair_probability-n",
        lambda v: joint_pair_probability(P, D, SEQ, 1, 1, v, 1), "n", 1, named=N_PAIR,
    ),
    row(
        "joint_pair_probability-j",
        lambda v: joint_pair_probability(P, D, SEQ, 1, 1, 3, v), "category index", 0, CATEGORY,
    ),
    row(
        "joint_pair_probability-cap",
        lambda v: joint_pair_probability(P, D, SEQ, 1, 1, 3, 1, method="enumerate", cap=v),
        "enumeration cap", 0,
    ),
    row(
        "CrossCovariance-m",
        lambda v: CrossCovariance(v, 3, ZERO_COVARIANCE, "closed-form"), "m", 0, named=M_PAIR,
    ),
    row(
        "CrossCovariance-n",
        lambda v: CrossCovariance(1, v, ZERO_COVARIANCE, "closed-form"), "n", 1, named=N_PAIR,
    ),
    row(
        "closed_form_covariance_matrix-exponent",
        lambda v: closed_form_covariance_matrix(P, D, v), "exponent", -1,
    ),
    row(
        "cross_covariance_enumerated-m",
        lambda v: cross_covariance_enumerated(P, D, SEQ, v, 3), "m", 0, named=M_PAIR,
    ),
    row(
        "cross_covariance_enumerated-n",
        lambda v: cross_covariance_enumerated(P, D, SEQ, 1, v), "n", 1, named=N_PAIR,
    ),
    row(
        "cross_covariance_enumerated-cap",
        lambda v: cross_covariance_enumerated(P, D, SEQ, 1, 3, v), "enumeration cap", 0,
    ),
    row(
        "cross_covariance_closed_form-m",
        lambda v: cross_covariance_closed_form(P, D, SEQ, v, 3), "m", 0, named=M_PAIR,
    ),
    row(
        "cross_covariance_closed_form-n",
        lambda v: cross_covariance_closed_form(P, D, SEQ, 1, v), "n", 1, named=N_PAIR,
    ),
    row(
        "endpoint_match_probability-length",
        lambda v: endpoint_match_probability(P, D, v, 1), "chain length", 1,
    ),
    row(
        "endpoint_match_probability-category",
        lambda v: endpoint_match_probability(P, D, 3, v), "category index", 0, CATEGORY,
    ),
    row(
        "verification_suite-length",
        lambda v: verification_suite(P, D, SEQ, v), "verification length", 1,
    ),
    row(
        "verification_suite-cap",
        lambda v: verification_suite(P, D, SEQ, 3, v), "enumeration cap", 0,
    ),
    # generators
    row("evaluate-n", lambda v: evaluate(SEQ, v), "index", 1),
    row("prime_partition-n", prime_partition, "index", 1),
    row("validate-max_index", lambda v: validate(SEQ, v), "max_index", 1),
    # graph
    row("DependencyTree-size", lambda v: DependencyTree(v, []), "tree size", 0),
    row("DependencyTree.parent_of-node", TREE.parent_of, "node index", 4),
    row("build_tree-size", lambda v: build_tree(SEQ, v), "tree size", 0),
    row("path_to_root-node", lambda v: path_to_root(TREE, v), "node index", 0),
    row("tree_distance-m", lambda v: tree_distance(TREE, v, 3), "node index", 0),
    row("tree_distance-n", lambda v: tree_distance(TREE, 1, v), "node index", 4),
    # kernel
    row(
        "Marginal.probability_of-category",
        Marginal(P).probability_of, "category index", 4, CATEGORY,
    ),
    row(
        "repeat_probability-category",
        lambda v: repeat_probability(P, D, v), "category index", 0, CATEGORY,
    ),
    row(
        "switch_probability-category",
        lambda v: switch_probability(P, D, v), "category index", 4, CATEGORY,
    ),
    # sampler
    row("sample_batch-length", lambda v: sample_batch(P, D, SEQ, v, 2, 1), "tree size", 0),
    row("sample_batch-count", lambda v: sample_batch(P, D, SEQ, 3, v, 1), "count", -1),
    row("sample_batch-seed", lambda v: sample_batch(P, D, SEQ, 3, 2, v), "seed"),
    row(
        "sample_batch-workers",
        lambda v: sample_batch(P, D, SEQ, 3, 2, 1, workers=v), "workers", 0,
    ),
    row(
        "sample_batch-first_index",
        lambda v: sample_batch(P, D, SEQ, 3, 2, 1, first_index=v), "first_index", -1,
    ),
    row(
        "SampleBatch-seed",
        lambda v: SampleBatch(np.ones((2, 2), dtype=np.int64), v, P, D, SEQ), "seed",
    ),
    row("empirical_marginals-position", lambda v: empirical_marginals(BATCH, v), "position", 5),
    row(
        "empirical_cross_covariance-m",
        lambda v: empirical_cross_covariance(BATCH, v, 3), "m", 0, named=M_PAIR,
    ),
    row(
        "empirical_cross_covariance-n",
        lambda v: empirical_cross_covariance(BATCH, 1, v), "n", 5,
        named=r"^position 5 outside 1\.\.4$",
    ),
    # rng
    row("stream_keys-seed", lambda v: stream_keys(v, 0, 3), "seed"),
    row("stream_keys-first_index", lambda v: stream_keys(1, v, 3), "first_index", -1),
    row("stream_keys-count", lambda v: stream_keys(1, 0, v), "count", -1),
    row("uniform_grid-seed", lambda v: uniform_grid(v, 0, 3, 2), "seed"),
    row("uniform_grid-first_index", lambda v: uniform_grid(1, v, 3, 2), "first_index", -1),
    row("uniform_grid-count", lambda v: uniform_grid(1, 0, v, 2), "count", -1),
    row("uniform_grid-length", lambda v: uniform_grid(1, 0, 3, v), "length", 0),
    row("uniform_grid-first_position", lambda v: uniform_grid(1, 0, 3, 2, v), "first_position", -1),
]


@pytest.mark.parametrize("call, name, outside, error, named", ROWS)
def test_integer_argument(call, name, outside, error, named):
    for value in (1.5, True, 2.0):
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must be an integer, got "):
            call(value)
    if outside is not None:
        with pytest.raises(error, match=named):
            call(outside)
