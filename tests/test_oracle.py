"""An exact rational oracle for the exact routes, in fractions.Fraction.

The oracle reads p and delta as the exact rationals of the floats the
routes see (`Fraction(float)`), so it gives the true value of the float
inputs.  From them it builds the joint over the K^N outcomes, every
marginal and pair joint summed from it, and the closed-form covariance
delta^d (diag p - p p^T) at each pair's tree distance d.  Each float route
must lie within ERROR_BOUND of it, entry by entry.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from test_exact import valid_tables

from depcat import (
    GeneratorSpec,
    build_tree,
    closed_form_covariance_matrix,
    joint_distribution,
    tree_distance,
)
from depcat.exact import _pair_joints, _Propagation
from depcat.kernel import as_delta, as_marginal

# A loose bound on every route's absolute error: 2^-44, about 5.7e-14, or
# 512 u with u = 2^-53.  The worst error seen is under 5 u (CHANGES.md).
ERROR_BOUND = 2.0**-44
# Every outcome space the oracle enumerates has at most this many outcomes.
MAX_OUTCOMES = 256


def oracle(p, delta, spec, length):
    """The joint by outcome, the (N, K) marginals, the pair joints and closed forms by (m, n)."""
    probs = [Fraction(value) for value in as_marginal(p).probs.tolist()]
    delta = Fraction(as_delta(delta))
    k = len(probs)
    kernel = [[(1 - delta) * probs[j] + (delta if i == j else 0) for j in range(k)]
              for i in range(k)]
    tree = build_tree(spec, length)
    positions = list(itertools.combinations(range(1, length + 1), 2))
    joint, marginals = {}, [[Fraction(0)] * k for _ in range(length)]
    pairs = {pair: [[Fraction(0)] * k for _ in range(k)] for pair in positions}
    for outcome in itertools.product(range(k), repeat=length):
        value = probs[outcome[0]]
        for n, parent in enumerate(tree.parents.tolist(), start=2):
            value *= kernel[outcome[parent - 1]][outcome[n - 1]]
        joint[outcome] = value
        for a, v in enumerate(outcome):
            marginals[a][v] += value
        for m, n in positions:
            pairs[m, n][outcome[m - 1]][outcome[n - 1]] += value
    closed = {}
    for m, n in positions:
        scale = delta ** tree_distance(tree, m, n)
        closed[m, n] = [[scale * ((probs[i] if i == j else 0) - probs[i] * probs[j])
                         for j in range(k)] for i in range(k)]
    return joint, marginals, pairs, closed


def worst(computed, exact) -> float:
    """The largest |computed - exact| over the entries, computed exactly and then rounded."""
    flat = np.asarray(computed, dtype=np.float64).ravel().tolist()
    exact = list(np.asarray(exact, dtype=object).ravel())
    assert len(flat) == len(exact)
    return float(max(abs(Fraction(value) - truth) for value, truth in zip(flat, exact)))


def route_errors(p, delta, spec, length) -> dict:
    """Each float route's worst absolute error against the oracle."""
    joint, marginals, pairs, closed = oracle(p, delta, spec, length)
    positions = list(pairs)
    enumerated = joint_distribution(p, delta, spec, length)
    enumerated_marginals, enumerated_pairs = _pair_joints(enumerated)
    route = _Propagation(as_marginal(p), delta, build_tree(spec, length))
    propagated_pairs, distances = route.pair_joints(positions)
    first, second = (np.array(positions) - 1).T
    return {
        "joint": worst([enumerated[outcome] for outcome in joint], list(joint.values())),
        "enumerated marginals": worst(enumerated_marginals, marginals),
        "enumerated pairs": worst(enumerated_pairs[first, second], list(pairs.values())),
        "propagated marginals": worst(route.marginals(range(1, length + 1)), marginals),
        "propagated pairs": worst(propagated_pairs, list(pairs.values())),
        "closed form": worst(
            [closed_form_covariance_matrix(p, delta, d) for d in distances], list(closed.values())
        ),
    }


def small(case) -> bool:
    spec, length, p, delta = case
    return len(p) ** length <= MAX_OUTCOMES


ZERO_P = np.array([0.5, 0.0, 0.3, 0.2])
CHAIN = GeneratorSpec.from_table({2: 1, 3: 2, 4: 3})


@settings(max_examples=100, deadline=None)
@given(valid_tables(max_categories=5).filter(small))
@example((CHAIN, 4, ZERO_P, 0.0))
@example((CHAIN, 4, ZERO_P, 1.0))
@example((GeneratorSpec.from_table({2: 1, 3: 1}), 3, np.full(5, 0.2), 0.7))
@example((GeneratorSpec.builtin("floor_sqrt"), 8, np.array([0.6, 0.4]), 0.2))
def test_every_route_is_within_the_bound_of_the_exact_rationals(case):
    spec, length, p, delta = case
    errors = route_errors(p, delta, spec, length)
    assert all(error <= ERROR_BOUND for error in errors.values()), errors
