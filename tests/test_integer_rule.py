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
    CrossCovariance,
    DependencyTree,
    DomainError,
    EmpiricalMarginal,
    GeneratorSpec,
    GeneratorViolation,
    SampleBatch,
    build_tree,
    closed_form_covariance_matrix,
    cross_covariance_closed_form,
    cross_covariance_enumerated,
    empirical_cross_covariance,
    empirical_marginals,
    enumerate_outcomes,
    enumerated_marginals,
    evaluate,
    joint_distribution,
    joint_pair_probability,
    marginal_at,
    outcome_probability,
    sample_batch,
    tree_distance,
    validate,
    verification_suite,
)
from depcat.rng import stream_keys, uniform_grid

P = [0.5, 0.3, 0.2]
D = 0.4
SEQ = GeneratorSpec.builtin("sequential")
FK = GeneratorSpec.builtin("fk")
PRIME = GeneratorSpec.builtin("prime_partition")
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


def unsigned_parents(value):
    """[1, value] as a uint64 array for an int `value`, else as a list the rule reads."""
    return np.array([1, value], dtype=np.uint64) if type(value) is int else [1, value]


def buffered_grid(seed, first_index):
    """`uniform_grid` in its integer form, which takes 4 rows' keys as given."""
    words = np.empty((2, 4), dtype=np.uint64)
    return uniform_grid(
        seed, first_index, 4, 2, keys=stream_keys(7, 0, 4), mantissas=words,
        scratch=np.empty_like(words),
    )


def too_long(count, length):
    """The message of a count whose rows of `length` no array can hold."""
    return f"^count {count} of length {length} is over "


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
        lambda v: joint_pair_probability(P, D, SEQ, 1, v, 3, 1), "category index", 4,
    ),
    row(
        "joint_pair_probability-n",
        lambda v: joint_pair_probability(P, D, SEQ, 1, 1, v, 1), "n", 1, named=N_PAIR,
    ),
    row(
        "joint_pair_probability-j",
        lambda v: joint_pair_probability(P, D, SEQ, 1, 1, 3, v), "category index", 0,
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
        "verification_suite-length",
        lambda v: verification_suite(P, D, SEQ, v), "verification length", 1,
    ),
    row(
        "verification_suite-cap",
        lambda v: verification_suite(P, D, SEQ, 3, v), "enumeration cap", 0,
    ),
    # generators
    row("evaluate-n", lambda v: evaluate(SEQ, v), "index", 1),
    row("prime_partition-n", lambda v: evaluate(PRIME, v), "index", 1),
    row("validate-max_index", lambda v: validate(SEQ, v), "max_index", 1),
    row("GeneratorViolation-index", lambda v: GeneratorViolation(v, 1), "index", 1),
    # a violation's parent may be any integer, or None for a missing table entry
    row("GeneratorViolation-parent", lambda v: GeneratorViolation(5, v), "parent"),
    # both sizes end at 2**53, the end of the generators' domain
    row("validate-max_index-top", lambda v: validate(SEQ, v), "max_index", 2**53 + 1),
    # graph
    row("DependencyTree.parent_of-node", TREE.parent_of, "node index", 4),
    row("build_tree-size", lambda v: build_tree(SEQ, v), "tree size", 0),
    row("build_tree-size-top", lambda v: build_tree(SEQ, v), "tree size", 2**53 + 1),
    # a list entry past int64 is an error, not a numpy OverflowError
    row("DependencyTree-parent", lambda v: DependencyTree([1, v]), "tree parent", 2**63),
    # a uint64 entry past int64 is the same error, where the int64 cast would wrap it to -1
    row(
        "DependencyTree-uint64-parent",
        lambda v: DependencyTree(unsigned_parents(v)), "tree parent", 2**64 - 1,
        named=rf"^tree parent {2**64 - 1} outside -{2**63}\.\.{2**63 - 1}$",
    ),
    row("tree_distance-m", lambda v: tree_distance(TREE, v, 3), "node index", 0),
    row("tree_distance-n", lambda v: tree_distance(TREE, 1, v), "node index", 4),
    # sampler
    row("sample_batch-length", lambda v: sample_batch(P, D, SEQ, v, 2, 1), "tree size", 0),
    row("sample_batch-count", lambda v: sample_batch(P, D, SEQ, 3, v, 1), "count", -1),
    row("sample_batch-count-top", lambda v: sample_batch(P, D, SEQ, 3, v, 1), "count", 2**64 + 1),
    # a count inside the counters whose rows no array can hold
    row(
        "sample_batch-count-size",
        lambda v: sample_batch([0.5, 0.5], D, FK, 3, v, 1), "count", 2**63,
        named=too_long(2**63, 3),
    ),
    row("sample_batch-seed", lambda v: sample_batch(P, D, SEQ, 3, 2, v), "seed"),
    row(
        "sample_batch-workers",
        lambda v: sample_batch(P, D, SEQ, 3, 2, 1, workers=v), "workers", 0,
    ),
    row(
        "sample_batch-first_index",
        lambda v: sample_batch(P, D, SEQ, 3, 2, 1, first_index=v), "first_index", -1,
    ),
    # the last of the count rows would be index 2**64, one past the uint64 counters
    row(
        "sample_batch-first_index-top",
        lambda v: sample_batch(P, D, SEQ, 3, 2, 1, first_index=v), "first_index", 2**64 - 1,
    ),
    row(
        "SampleBatch-seed",
        lambda v: SampleBatch(np.ones((2, 2), dtype=np.int64), v, P, D, SEQ), "seed",
    ),
    row("SampleBatch-entry", lambda v: SampleBatch([[1, v]], 1, P, D, SEQ), "batch entry", 2**63),
    row(
        "SampleBatch-first_index",
        lambda v: SampleBatch(np.ones((2, 2), dtype=np.int64), 1, P, D, SEQ, v), "first_index", -1,
    ),
    row(
        "SampleBatch-first_index-top",
        lambda v: SampleBatch(np.ones((2, 2), dtype=np.int64), 1, P, D, SEQ, v),
        "first_index", 2**64 - 1,
    ),
    row("empirical_marginals-position", lambda v: empirical_marginals(BATCH, v), "position", 5),
    row("EmpiricalMarginal-position", lambda v: EmpiricalMarginal(v, [1, 2]), "position", 0),
    row("EmpiricalMarginal-counts", lambda v: EmpiricalMarginal(1, [1, v]), "counts", -1),
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
    row("stream_keys-first_index-top", lambda v: stream_keys(1, v, 3), "first_index", 2**64 - 2),
    row("stream_keys-count", lambda v: stream_keys(1, 0, v), "count", -1),
    row("stream_keys-count-top", lambda v: stream_keys(1, 0, v), "count", 2**64 + 1),
    row(
        "stream_keys-count-size", lambda v: stream_keys(1, 0, v), "count", 2**63 - 1,
        named=too_long(2**63 - 1, 1),
    ),
    row("uniform_grid-seed", lambda v: uniform_grid(v, 0, 3, 2), "seed"),
    row("uniform_grid-first_index", lambda v: uniform_grid(1, v, 3, 2), "first_index", -1),
    row(
        "uniform_grid-first_index-top",
        lambda v: uniform_grid(1, v, 3, 2), "first_index", 2**64 - 2,
    ),
    # the integer form reads both as well, though it takes its keys as given
    row("uniform_grid-buffers-seed", lambda v: buffered_grid(v, 0), "seed"),
    row("uniform_grid-buffers-first_index", lambda v: buffered_grid(1, v), "first_index", -1),
    row(
        "uniform_grid-buffers-first_index-top",
        lambda v: buffered_grid(1, v), "first_index", 2**64 - 3,
    ),
    row("uniform_grid-count", lambda v: uniform_grid(1, 0, v, 2), "count", -1),
    row(
        "uniform_grid-count-size", lambda v: uniform_grid(1, 0, v, 1), "count", 2**63,
        named=too_long(2**63, 1),
    ),
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


# Array arguments: a list, or an ndarray of any but an integer dtype, is
# read entry by entry, so no entry is truncated, read as 1 or parsed.
NOT_INTEGER_ENTRIES = [
    pytest.param([1, 1.5], "1.5", id="list-float"),
    pytest.param(np.array([1.0, 1.0]), "1.0", id="float-array"),
    pytest.param([1, True], "true", id="list-bool"),
    pytest.param(np.array([True, True]), "true", id="bool-array"),
    pytest.param(["1", "1"], '"1"', id="list-str"),
]


@pytest.mark.parametrize("parents, shown", NOT_INTEGER_ENTRIES)
def test_tree_parents_are_integers(parents, shown):
    named = f"^tree parent must be an integer, got {re.escape(shown)}$"
    with pytest.raises(DomainError, match=named):
        DependencyTree(parents)
    assert DependencyTree([1, np.int64(2)]).parents.tolist() == [1, 2]


@pytest.mark.parametrize("entries, shown", NOT_INTEGER_ENTRIES)
def test_batch_entries_are_integers(entries, shown):
    outcomes = entries[None] if isinstance(entries, np.ndarray) else [entries]
    named = f"^batch entry must be an integer, got {re.escape(shown)}$"
    with pytest.raises(DomainError, match=named):
        SampleBatch(outcomes, 1, P, D, SEQ)
    assert SampleBatch([[1, np.int64(2)]], 1, P, D, SEQ).outcomes.tolist() == [[1, 2]]
