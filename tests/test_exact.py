"""Exact module: dual-route agreement, published-form goldens, invariants.

Brute-force oracles in this file are deliberately written as plain loops
over explicit weighting arithmetic, independent of the library's tensor
and propagation code paths.
"""

import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depcat.cli
import depcat.exact
import depcat.graph
import depcat.sampler
from depcat import (
    AxiomViolationError,
    CrossCovariance,
    DomainError,
    EnumerationTooLargeError,
    GeneratorSpec,
    Marginal,
    cross_covariance_closed_form,
    cross_covariance_enumerated,
    closed_form_covariance_matrix,
    empirical_cross_covariance,
    enumerate_outcomes,
    enumerated_marginals,
    evaluate,
    joint_distribution,
    joint_pair_probability,
    marginal_at,
    outcome_probability,
    sample_batch,
    transition_kernel,
    verification_suite,
)
from depcat.exact import (
    EXACT_TOL,
    _pair_joints,
    _Propagation,
)
from depcat.graph import build_tree

FK = GeneratorSpec.builtin("fk")
SEQ = GeneratorSpec.builtin("sequential")
FSQRT = GeneratorSpec.builtin("floor_sqrt")
SIN = GeneratorSpec.builtin("sin_drift")
PRIME = GeneratorSpec.builtin("prime_partition")
ALL_BUILTINS = (FK, SEQ, FSQRT, SIN, PRIME)
TABLE = GeneratorSpec.from_table({2: 1, 3: 1, 4: 2})

P3 = [0.5, 0.3, 0.2]


def brute_force_sequence_probability(omega, p, delta, parent_of):
    """Oracle: explicit product of weighting factors, no library calls."""
    prob = p[omega[0] - 1]
    for index in range(2, len(omega) + 1):
        value = omega[index - 1]
        parent_value = omega[parent_of[index] - 1]
        pj = p[value - 1]
        factor = pj + delta * (1.0 - pj) if parent_value == value else pj * (1.0 - delta)
        prob *= factor
    return prob


def endpoint_match(p, delta, length, i):
    """P(draws 1 and `length` of a chain both equal i), by the closed form.

    The pair is at tree distance length - 1, so it is the covariance
    entry (i, i) at that distance plus p_i^2.
    """
    return closed_form_covariance_matrix(p, delta, length - 1)[i - 1, i - 1] + p[i - 1] ** 2


class TestOutcomeProbability:
    def test_sequential_1_2_1(self):
        # p1 * p2_down * p1_down
        expected = 0.5 * (0.3 * 0.6) * (0.5 * 0.6)
        assert outcome_probability((1, 2, 1), P3, 0.4, SEQ) == pytest.approx(
            expected, abs=1e-15
        )

    def test_fk_1_2_1(self):
        # p1 * p2_down * p1_up
        expected = 0.5 * (0.3 * 0.6) * (0.5 + 0.4 * 0.5)
        assert outcome_probability((1, 2, 1), P3, 0.4, FK) == pytest.approx(
            expected, abs=1e-15
        )

    def test_independent_1_2_1(self):
        assert outcome_probability((1, 2, 1), P3, 0.0, SEQ) == pytest.approx(
            0.5 * 0.5 * 0.3, abs=1e-15
        )

    def test_matches_brute_force_everywhere(self):
        for spec in ALL_BUILTINS:
            parent_of = {n: evaluate(spec, n) for n in range(2, 6)}
            for omega in itertools.product((1, 2, 3), repeat=5):
                expected = brute_force_sequence_probability(omega, P3, 0.35, parent_of)
                assert outcome_probability(omega, P3, 0.35, spec) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            outcome_probability((1, 4, 1), P3, 0.4, SEQ)
        with pytest.raises(DomainError):
            outcome_probability((), P3, 0.4, SEQ)

    def test_rejects_non_integer_entries(self):
        # int() would read the outcome (1.5, 2) as (1, 2)
        with pytest.raises(DomainError, match="^outcome entry must be an integer, got 1.5$"):
            outcome_probability((1.5, 2), P3, 0.4, SEQ)


class TestEnumeration:
    def test_lexicographic_prefix_and_count(self):
        outcomes = list(enumerate_outcomes(3, 3))
        assert len(outcomes) == 27
        assert outcomes[:4] == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1)]
        assert outcomes[-1] == (3, 3, 3)

    def test_length_one(self):
        assert list(enumerate_outcomes(1, 2)) == [(1,), (2,)]

    def test_probabilities_sum_to_one_over_stream(self):
        for spec in ALL_BUILTINS:
            total = sum(
                outcome_probability(omega, [0.6, 0.4], 0.7, spec)
                for omega in enumerate_outcomes(4, 2)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_cap_names_the_size(self):
        with pytest.raises(EnumerationTooLargeError) as excinfo:
            enumerate_outcomes(10, 3, cap=1000)
        assert "3**10" in str(excinfo.value)
        assert "59049" in str(excinfo.value)

    @pytest.mark.parametrize("k", [2, 3])
    def test_cap_boundary(self, k):
        # A K**N equal to the cap is accepted and one over it refused: with the
        # cap at K**N and one under it (at K = 2, N is cap.bit_length() - 1 and
        # cap.bit_length() in turn), and at N on each side of the cap's bit
        # length, past which the check stops computing K**N.
        cases = [(n, k**n + under) for n in range(1, 41) for under in (0, -1)]
        cases += [(cap.bit_length() + side, cap) for cap in range(2, 600) for side in (-1, 0)]
        for length, cap in cases:
            if k**length > cap:
                with pytest.raises(EnumerationTooLargeError):
                    enumerate_outcomes(length, k, cap)
            else:
                enumerate_outcomes(length, k, cap)

    def test_joint_distribution_honors_cap(self):
        with pytest.raises(EnumerationTooLargeError):
            joint_distribution(P3, 0.4, SEQ, 20, cap=1000)

    def test_tensor_matches_stream(self):
        # The vectorized joint is the same enumeration, entry for entry.
        for spec in (SEQ, FK, PRIME):
            joint = joint_distribution(P3, 0.45, spec, 4)
            for omega in enumerate_outcomes(4, 3):
                index = tuple(v - 1 for v in omega)
                assert joint[index] == outcome_probability(omega, P3, 0.45, spec)

    def test_normalization_at_desk_scale(self):
        # total probability 1 within 1e-10 for every builtin, up to the
        # largest desk-scale space (4**10 outcomes)
        vectors = {2: [0.7, 0.3], 3: [0.5, 0.3, 0.2], 4: [0.4, 0.3, 0.2, 0.1]}
        for spec in ALL_BUILTINS:
            for p in vectors.values():
                total = float(joint_distribution(p, 0.6, spec, 10).sum())
                assert abs(total - 1.0) <= 1e-10, (spec.kind, len(p))

    def test_prefix_partitioned_sums_agree(self):
        # Associative reduction: summing per first-symbol partition matches
        # the direct total.
        spec = SIN
        total = 0.0
        for first in (1, 2, 3):
            total += sum(
                outcome_probability((first,) + tail, P3, 0.3, spec)
                for tail in itertools.product((1, 2, 3), repeat=4)
            )
        direct = float(joint_distribution(P3, 0.3, spec, 5).sum())
        assert total == pytest.approx(direct, abs=1e-12)


# sha256 of joint_distribution(p, delta, spec, n).tobytes(), concatenated over
# both marginals, delta in (0, 0.45, 1) and n = 1..JOINT_GOLDEN_LENGTH[K], in
# that order; recorded from the one-broadcast-product-per-position build.
JOINT_GOLDEN_MARGINALS = {
    2: ([0.7, 0.3], [0.0, 1.0]),
    3: ([0.5, 0.3, 0.2], [0.6, 0.0, 0.4]),
    4: ([0.4, 0.3, 0.2, 0.1], [0.25, 0.0, 0.5, 0.25]),
    5: ([0.3, 0.25, 0.2, 0.15, 0.1], [0.2, 0.0, 0.3, 0.3, 0.2]),
}
JOINT_GOLDEN_LENGTH = {2: 12, 3: 9, 4: 8, 5: 7}
JOINT_GOLDENS = {
    ("fk", 2): "8b4d75495d1d88e32f21ceb69878d72b143343925976517ab5edff181d57d2cd",
    ("fk", 3): "18280169a300175f98eb9af93d03a1a46ec9189b1b0b96a302fb1f5ae55c5f5f",
    ("fk", 4): "14bcbb9a2c892f91521ec5ddc39fd2181229d94b6557c6c2bb1d44270641ee02",
    ("fk", 5): "e21bad0495d968bb1e048127f2ac7eeb87b6865b17682140c50dfae0c3f2739d",
    ("sequential", 2): "7177891508caf5ec807a50be9a9edaeba66b5c36d2a7da2784be3fcb23493b1c",
    ("sequential", 3): "5792fa907210434618524cc9ff598a4ade103519387ae635acd0d152d209c4d8",
    ("sequential", 4): "80f096d0dde801a4ac74fab827fcf019d0eb20bb8653f4af1b3fcf827ee98774",
    ("sequential", 5): "0cf319ae2e9e05692c76c7361640e4f9770cdee77879478992b65db0887112ba",
    ("floor_sqrt", 2): "5b93b3967911755a818546beadb451cafcab1bb20c72472dbf66cb0550edfe15",
    ("floor_sqrt", 3): "d6787b2c3bc3f566d00542065e1d5dc22fd33d854748dfec15c2258351e1f1a8",
    ("floor_sqrt", 4): "94d89774a23c61983951c566a0d4dc99034aa06543acb168faee75997ef2890d",
    ("floor_sqrt", 5): "c2375476565317ce258fb536515d3331a3a3e6bc7dcf059982f9040e33cf1a95",
    ("sin_drift", 2): "6d20fe60e0b1d7d1227cb62162762fe9747462e50238a630430dbc75466f1222",
    ("sin_drift", 3): "0ec8c4c5375d81ed276fba5d0f96add058bf54e6bb19587970b04af3334e47b6",
    ("sin_drift", 4): "3509a0af78d763cb2c69585c5f2fe10e57a22b8644d3fa509d55217a09227c21",
    ("sin_drift", 5): "636c15b15d7bee13f9400da9e063d0169671b578ec40c5ea1e20c508b26d8e34",
    ("prime_partition", 2): "f626b8e03c2e378eda55bee4dfe1bd40a4a5fd941dddd637f8115e5eacdc428f",
    ("prime_partition", 3): "a3ebca671ac00c32f484ba35ecefb0f2c26518318f8854a4529a766e30409ed3",
    ("prime_partition", 4): "b84d2a2f9bb54f88af07e6e61a5b68efacffca8257ed86a1105ec46ecbd622ae",
    ("prime_partition", 5): "f2de09c032ddcf77bb009ac7fae875d1c66ddef659b9d0b5d7acaa2659379161",
}


@pytest.mark.parametrize("kind, k", sorted(JOINT_GOLDENS))
def test_joint_bits_are_pinned(kind, k):
    spec = GeneratorSpec.builtin(kind)
    digest = hashlib.sha256()
    for p in JOINT_GOLDEN_MARGINALS[k]:
        for delta in (0.0, 0.45, 1.0):
            for n in range(1, JOINT_GOLDEN_LENGTH[k] + 1):
                digest.update(joint_distribution(p, delta, spec, n).tobytes())
    assert digest.hexdigest() == JOINT_GOLDENS[kind, k]


class TestMarginals:
    def test_root_marginal_is_p(self):
        for spec in ALL_BUILTINS:
            assert np.allclose(marginal_at(P3, 0.8, spec, 1).probs, P3, atol=1e-15)

    def test_returns_a_marginal(self):
        # a kernel step rounds this p's first entry an ulp past 1; the
        # Marginal it comes back as holds entries in [0, 1]
        p = [1.0, 1.2e-16]
        result = marginal_at(p, 0.0, SEQ, 2)
        assert isinstance(result, Marginal)
        assert np.max(np.abs(result.probs - np.array(p))) <= 1e-15

    def test_sequential_position_six(self):
        probs = marginal_at(P3, 0.4, SEQ, 6).probs
        assert np.max(np.abs(probs - np.array(P3))) <= 1e-10

    def test_fk_bernoulli_deep_position(self):
        probs = marginal_at([0.7, 0.3], 0.9, FK, 12).probs
        assert np.max(np.abs(probs - np.array([0.7, 0.3]))) <= 1e-10
        enumerated = enumerated_marginals([0.7, 0.3], 0.9, FK, 8)
        assert np.max(np.abs(enumerated - np.array([0.7, 0.3]))) <= 1e-10

    def test_identical_distribution_both_routes(self):
        rng = np.random.default_rng(20)
        deltas = [0.0, 0.25, 0.5, 0.75, 1.0] + list(rng.uniform(0, 1, size=3))
        for spec in ALL_BUILTINS:
            for delta in deltas:
                enumerated = enumerated_marginals(P3, delta, spec, 7)
                assert np.max(np.abs(enumerated - np.array(P3))) <= 1e-10
                for position in range(1, 8):
                    propagated = marginal_at(P3, delta, spec, position).probs
                    assert np.max(np.abs(propagated - np.array(P3))) <= 1e-10


class TestJointPairProbability:
    def test_sequential_endpoint_formula_n4(self):
        # P(first = i, fourth = i) = p_i (p_i + (1 - p_i) delta^3)
        delta = 0.6
        for i in (1, 2, 3):
            pi = P3[i - 1]
            expected = pi * (pi + (1 - pi) * delta**3)
            result = joint_pair_probability(P3, delta, SEQ, 1, i, 4, i, method="enumerate")
            assert result == pytest.approx(expected, abs=1e-12)

    def test_independence_factorizes(self):
        for spec in ALL_BUILTINS:
            result = joint_pair_probability(P3, 0.0, spec, 2, 1, 5, 3)
            assert result == pytest.approx(P3[0] * P3[2], abs=1e-12)

    def test_fk_2_3_against_explicit_sum(self):
        # Oracle: direct sum over the 27 outcomes with explicit weighting.
        delta = 0.4
        parent_of = {2: 1, 3: 1}
        expected = sum(
            brute_force_sequence_probability(omega, P3, delta, parent_of)
            for omega in itertools.product((1, 2, 3), repeat=3)
            if omega[1] == 1 and omega[2] == 2
        )
        result = joint_pair_probability(P3, delta, FK, 2, 1, 3, 2, method="enumerate")
        assert result == pytest.approx(expected, abs=1e-14)

    def test_routes_agree_and_report_method(self):
        for spec in ALL_BUILTINS:
            for m, n in ((1, 2), (2, 5), (3, 7), (1, 7)):
                enum = joint_pair_probability(P3, 0.55, spec, m, 1, n, 2, method="enumerate")
                prop = joint_pair_probability(P3, 0.55, spec, m, 1, n, 2, method="propagate")
                assert enum == pytest.approx(prop, abs=1e-10)

    def test_far_apart_pair_holds_only_a_few_kernel_powers(self):
        # Propagating across 10^5 edges keeps the tree and a few K x K
        # matrices; it never holds one kernel power per edge (3.3 GB here).
        k, n = 64, 100_001
        p = np.full(k, 1.0 / k)
        tracemalloc.start()
        try:
            depcat.exact.build_tree(SEQ, n)
            tree_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            result = joint_pair_probability(p, 0.9, SEQ, 1, 1, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tree_peak + 16 * k * k * 8
        expected = endpoint_match(p, 0.9, n, 1)
        assert result == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("method", ["propagate", "enumerate"])
    def test_non_integer_position(self, method):
        with pytest.raises(DomainError, match="^m must be an integer, got 1.5$"):
            joint_pair_probability(P3, 0.4, SEQ, 1.5, 1, 3, 1, method=method)

    def test_returns_a_float_and_takes_two_methods(self):
        for method in ("propagate", "enumerate"):
            result = joint_pair_probability(P3, 0.4, FSQRT, 2, 1, 5, 2, method=method)
            assert type(result) is float
        for method in ("auto", "closed", ""):
            with pytest.raises(DomainError, match="unknown method"):
                joint_pair_probability(P3, 0.4, FSQRT, 2, 1, 5, 2, method=method)

    def test_enumerate_respects_cap(self):
        with pytest.raises(EnumerationTooLargeError):
            joint_pair_probability(
                P3, 0.5, SEQ, 1, 1, 16, 1, method="enumerate", cap=100
            )

    def test_position_order_enforced(self):
        with pytest.raises(DomainError):
            joint_pair_probability(P3, 0.5, SEQ, 3, 1, 2, 1)


class TestCrossCovariance:
    def test_example_matrix_2_3(self):
        # Lambda^{2,3} for K=3, p=(0.5,0.3,0.2), delta=0.4: the symbolic
        # form evaluated by hand.
        golden = 0.4 * np.array(
            [
                [0.25, -0.15, -0.10],
                [-0.15, 0.21, -0.06],
                [-0.10, -0.06, 0.16],
            ]
        )
        enumerated = cross_covariance_enumerated(P3, 0.4, SEQ, 2, 3)
        closed = cross_covariance_closed_form(P3, 0.4, SEQ, 2, 3)
        assert np.max(np.abs(enumerated.matrix - golden)) <= 1e-12
        assert np.max(np.abs(closed.matrix - golden)) <= 1e-12

    def test_zero_delta_gives_zero_matrix(self):
        for spec in ALL_BUILTINS:
            cov = cross_covariance_enumerated(P3, 0.0, spec, 2, 3)
            assert np.max(np.abs(cov.matrix)) <= 1e-12

    def test_bernoulli_delta_squared(self):
        # two steps apart on the chain: diagonal pq delta^2, off-diagonal negated
        p, delta = 0.5, 0.5
        cov = cross_covariance_enumerated([p, 1 - p], delta, SEQ, 1, 3)
        expected = p * (1 - p) * delta**2
        assert cov.matrix[0, 0] == pytest.approx(expected, abs=1e-12)
        assert cov.matrix[1, 1] == pytest.approx(expected, abs=1e-12)
        assert cov.matrix[0, 1] == pytest.approx(-expected, abs=1e-12)

    def test_sequential_matches_power_formula_all_pairs(self):
        delta = 0.65
        for m in range(1, 6):
            for n in range(m + 1, 7):
                enumerated = cross_covariance_enumerated(P3, delta, SEQ, m, n)
                expected = closed_form_covariance_matrix(P3, delta, n - m)
                assert np.max(np.abs(enumerated.matrix - expected)) <= 1e-10

    def test_fk_exponent_structure(self):
        delta = 0.45
        for n in range(2, 7):
            cov = cross_covariance_enumerated(P3, delta, FK, 1, n)
            assert np.max(
                np.abs(cov.matrix - closed_form_covariance_matrix(P3, delta, 1))
            ) <= 1e-10
        for m in range(2, 6):
            for n in range(m + 1, 7):
                cov = cross_covariance_enumerated(P3, delta, FK, m, n)
                assert np.max(
                    np.abs(cov.matrix - closed_form_covariance_matrix(P3, delta, 2))
                ) <= 1e-10

    def test_general_generators_match_enumeration(self):
        for spec in (FSQRT, SIN, PRIME):
            for m, n in ((2, 4), (3, 8), (2, 7), (5, 6)):
                enumerated = cross_covariance_enumerated([0.6, 0.4], 0.7, spec, m, n)
                closed = cross_covariance_closed_form([0.6, 0.4], 0.7, spec, m, n)
                assert np.max(np.abs(enumerated.matrix - closed.matrix)) <= 1e-10

    def test_row_and_column_sums_vanish(self):
        for spec in ALL_BUILTINS:
            cov = cross_covariance_enumerated(P3, 0.8, spec, 2, 6)
            assert np.max(np.abs(cov.matrix.sum(axis=0))) <= 1e-10
            assert np.max(np.abs(cov.matrix.sum(axis=1))) <= 1e-10
            assert np.max(np.abs(cov.matrix - cov.matrix.T)) <= 1e-10

    def test_exponent_basis_tags(self):
        for spec in (*ALL_BUILTINS, TABLE):
            assert cross_covariance_closed_form(P3, 0.4, spec, 1, 2).exponent_basis == "theorem"

    def test_serialization(self):
        cov = cross_covariance_closed_form(P3, 0.4, FSQRT, 2, 4)
        data = json.loads(json.dumps(cov.to_json_dict()))
        assert data["m"] == 2 and data["n"] == 4
        assert data["exponent_basis"] == "theorem"
        assert list(data) == ["m", "n", "exponent_basis", "method", "matrix"]
        assert np.allclose(np.array(data["matrix"]), cov.matrix, atol=0)
        csv_text = cov.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "category,1,2,3"
        parsed = [float(v) for v in lines[1].split(",")[1:]]
        assert parsed == [float(v) for v in cov.matrix[0]]

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(DomainError, match="^covariance matrix must be square$"):
            CrossCovariance(1, 2, np.zeros((2, 3)), "closed-form")

    def test_rejects_rows_that_do_not_sum_to_zero(self):
        with pytest.raises(
            DomainError, match="^covariance rows/columns must sum to 0; worst deviation 1$"
        ):
            CrossCovariance(1, 2, np.eye(2), "closed-form")

    def test_only_an_empirical_matrix_may_be_asymmetric(self):
        # rows and columns sum to 0, but the matrix is antisymmetric
        matrix = [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]
        with pytest.raises(
            DomainError, match="^exact covariance must be symmetric; worst asymmetry 2$"
        ):
            CrossCovariance(1, 2, matrix, "closed-form")
        cov = CrossCovariance(1, 2, matrix, "empirical")
        assert cov.matrix.tolist() == matrix

    @pytest.mark.parametrize("spec", [*ALL_BUILTINS, TABLE], ids=lambda spec: spec.kind)
    def test_theorem_basis_has_no_conjecture_note(self, spec, capsys):
        batch = sample_batch(P3, 0.4, spec, 4, 200, seed=3)
        for cov in (
            cross_covariance_closed_form(P3, 0.4, spec, 2, 4),
            cross_covariance_enumerated(P3, 0.4, spec, 2, 4),
            empirical_cross_covariance(batch, 2, 4),
        ):
            data = cov.to_json_dict()
            assert data["exponent_basis"] == "theorem" and "note" not in data
            assert "conjecture" not in json.dumps(cov.to_json_dict())
        generator = json.dumps(spec.to_dict(), sort_keys=True)
        for method in ("enumerate", "closed", "both"):
            argv = ["covariance", "2", "4", "--generator", generator,
                    "--p", "0.5,0.3,0.2", "--delta", "0.4", "--n", "4", "--method", method]
            assert depcat.cli.main(argv) == 0
            out = capsys.readouterr().out
            payload = json.loads(out)
            assert payload["exponent_basis"] == "theorem" and "note" not in payload
            assert "conjecture" not in out
        # nor any source file of the package, in any case
        package = Path(depcat.exact.__file__).parent
        noted = [
            path.name for path in package.rglob("*.py") if "conjecture" in path.read_text().lower()
        ]
        assert noted == []


class TestEndpointMatch:
    def test_two_step_is_repeat_probability(self):
        for i in (1, 2, 3):
            pi = P3[i - 1]
            expected = pi * (pi + 0.4 * (1 - pi))
            assert endpoint_match(P3, 0.4, 2, i) == pytest.approx(
                expected, abs=1e-15
            )

    def test_full_delta_keeps_chain_constant(self):
        for i in (1, 2, 3):
            assert endpoint_match(P3, 1.0, 9, i) == pytest.approx(
                P3[i - 1], abs=1e-15
            )

    def test_identity_against_enumeration(self):
        for length in range(2, 9):
            for i in (1, 2, 3):
                enumerated = joint_pair_probability(
                    P3, 0.4, SEQ, 1, i, length, i, method="enumerate"
                )
                closed = endpoint_match(P3, 0.4, length, i)
                assert enumerated == pytest.approx(closed, abs=1e-10)

    def test_six_step_category_two_against_stream(self):
        # Explicit filter-and-sum over the 729 chain outcomes.
        parent_of = {n: n - 1 for n in range(2, 7)}
        expected = sum(
            brute_force_sequence_probability(omega, P3, 0.4, parent_of)
            for omega in itertools.product((1, 2, 3), repeat=6)
            if omega[0] == 2 and omega[5] == 2
        )
        enumerated = joint_pair_probability(P3, 0.4, SEQ, 1, 2, 6, 2, method="enumerate")
        assert enumerated == pytest.approx(expected, abs=1e-14)
        assert endpoint_match(P3, 0.4, 6, 2) == pytest.approx(
            expected, abs=1e-10
        )


class TestVerificationSuite:
    def test_all_checks_pass_sequential(self):
        checks = verification_suite(P3, 0.4, SEQ, 6)
        assert [check.name for check in checks] == [
            "normalization",
            "identical-marginals",
            "covariance-agreement",
            "endpoint-match",
        ]
        assert all(check.passed for check in checks)
        assert all(check.max_error <= 1e-10 for check in checks)

    def test_all_checks_pass_every_builtin(self):
        for spec in ALL_BUILTINS:
            checks = verification_suite([0.6, 0.4], 0.7, spec, 6)
            assert all(check.passed for check in checks), spec.kind

    def test_cap_surfaces(self):
        with pytest.raises(EnumerationTooLargeError):
            verification_suite(P3, 0.4, SEQ, 16, cap=100)


class TestIncompleteTable:
    # No entry for n = 3: every enumeration entry point reads the parents
    # from the validated tree, so the error is the one build_tree raises.
    SPEC = GeneratorSpec.from_table({2: 1, 4: 2})

    def test_joint_and_outcome_raise_axiom_violation(self):
        with pytest.raises(AxiomViolationError, match="n=3: no table entry"):
            joint_distribution(P3, 0.4, self.SPEC, 4)
        with pytest.raises(AxiomViolationError, match="n=3: no table entry"):
            outcome_probability((1, 2, 1, 3), P3, 0.4, self.SPEC)
        with pytest.raises(AxiomViolationError):
            verification_suite(P3, 0.4, self.SPEC, 4)

    def test_enumeration_cap_is_checked_first(self):
        with pytest.raises(EnumerationTooLargeError):
            joint_distribution(P3, 0.4, self.SPEC, 20, cap=1000)

    def test_prefix_below_the_gap_still_enumerates(self):
        assert float(joint_distribution(P3, 0.4, self.SPEC, 2).sum()) == pytest.approx(1.0)


class TestOneEnumerationPerSuite:
    @pytest.mark.parametrize(
        "spec, builds", [(FSQRT, 1), (SEQ, 1)], ids=["floor_sqrt", "sequential"]
    )
    def test_joint_builds(self, spec, builds, monkeypatch):
        lengths = []
        original = depcat.exact.joint_distribution

        def counting(p, delta, generator, length, cap=depcat.exact.DEFAULT_ENUMERATION_CAP):
            lengths.append(length)
            return original(p, delta, generator, length, cap)

        monkeypatch.setattr(depcat.exact, "joint_distribution", counting)
        checks = verification_suite(P3, 0.4, spec, 8)
        assert all(check.passed for check in checks)
        assert lengths == [8] * builds

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda spec: spec.kind)
    def test_tree_builds(self, spec, monkeypatch):
        # One tree for the joint, one for propagation.
        sizes = []
        original = depcat.exact.build_tree

        def counting(generator, size):
            sizes.append(size)
            return original(generator, size)

        monkeypatch.setattr(depcat.exact, "build_tree", counting)
        checks = verification_suite(P3, 0.4, spec, 8)
        assert all(check.passed for check in checks)
        assert sizes == [8, 8]


@st.composite
def valid_tables(draw):
    """A random valid table generator, K, p (zeros allowed) and delta."""
    length = draw(st.integers(2, 7))
    table = {n: draw(st.integers(1, n - 1)) for n in range(2, length + 1)}
    k = draw(st.integers(2, 4))
    weights = np.array(
        draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any)), dtype=float
    )
    delta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return GeneratorSpec.from_table(table), length, weights / weights.sum(), delta


def broadcast_joint(p, delta, spec, length):
    """Oracle: the joint grown by one broadcast product per position."""
    k = len(p)
    kernel = transition_kernel(p, delta)
    joint = np.array(p, dtype=np.float64)
    for parent in build_tree(spec, length).parents:
        joint = joint.reshape(k ** (parent - 1), k, -1, 1) * kernel.reshape(1, k, 1, k)
    return joint.reshape((k,) * length)


class TestJointGrowth:
    @settings(max_examples=150, deadline=None)
    @given(valid_tables())
    def test_bitwise_equal_to_the_broadcast_build(self, case):
        spec, length, p, delta = case
        expected = broadcast_joint(p, delta, spec, length)
        joint = joint_distribution(p, delta, spec, length)
        assert joint.shape == expected.shape
        assert joint.tobytes() == expected.tobytes()
        # every step in the sliced form, however small the joint
        with mock.patch.object(depcat.exact, "_SLICED_MIN_ENTRIES", 0):
            joint = joint_distribution(p, delta, spec, length)
        assert joint.tobytes() == expected.tobytes()


class TestDriftedMarginal:
    """A p accepted off its unit sum is one distribution for every route."""

    @settings(max_examples=100, deadline=None)
    @given(
        valid_tables(),
        st.sampled_from([-0.99e-9, -3e-10, 3e-10, 0.99e-9]) | st.floats(-0.99e-9, 0.99e-9),
    )
    def test_drift_inside_the_input_rule(self, case, drift):
        spec, length, p, delta = case
        drifted = np.minimum(p * (1.0 + drift), 1.0)
        marginal = Marginal(drifted)
        assert abs(marginal.probs.sum() - 1.0) <= len(p) * 2.0**-53
        checks = verification_suite(drifted, delta, spec, length)
        assert all(check.passed for check in checks), checks
        deep = marginal_at(drifted, delta, SEQ, 50).probs
        assert np.max(np.abs(deep - marginal.probs)) <= EXACT_TOL
        # The sampler's base row is the cumulative sum of the same p, up to
        # its forced last cut.
        cuts = depcat.sampler._draw_table(marginal, delta).cuts
        assert cuts[0, :-1].tobytes() == np.cumsum(marginal.probs)[:-1].tobytes()
        assert cuts[0, -1] == 1.0

    def test_the_two_inputs_that_failed_verify(self):
        thirds = [0.3333333333] * 3
        assert all(check.passed for check in verification_suite(thirds, 0.4, FSQRT, 11))
        assert all(
            check.passed
            for check in verification_suite([0.5, 0.3, 0.2000000005], 0.4, FK, 11)
        )
        given = np.array([0.5, 0.3, 0.1999999995])
        deep = marginal_at(given, 0.4, SEQ, 50).probs
        assert np.max(np.abs(deep - given / given.sum())) <= 1e-15


class TestPairJointsProperty:
    @settings(max_examples=150, deadline=None)
    @given(valid_tables())
    def test_all_routes_agree_for_every_valid_table(self, case):
        spec, length, p, delta = case
        joint = joint_distribution(p, delta, spec, length)
        marginals, pairs = _pair_joints(joint)
        independent = np.outer(p, p)
        for a in range(length):
            others = tuple(axis for axis in range(length) if axis != a)
            assert np.max(np.abs(joint.sum(axis=others) - marginals[a])) <= 1e-12
            for b in range(a + 1, length):
                m, n = a + 1, b + 1
                pair = pairs[a, b]
                others = tuple(axis for axis in range(length) if axis not in (a, b))
                assert np.max(np.abs(pair - joint.sum(axis=others))) <= 1e-12
                route = _Propagation(Marginal(p), delta, build_tree(spec, n))
                propagated = route.pair_joints([(m, n)])[0][0]
                assert np.max(np.abs(pair - propagated)) <= EXACT_TOL
                closed = cross_covariance_closed_form(p, delta, spec, m, n).matrix
                assert np.max(np.abs(pair - (closed + independent))) <= EXACT_TOL
        checks = verification_suite(p, delta, spec, length)
        assert all(check.passed for check in checks), checks


def ancestors_of(parents, node):
    """Oracle: the set {node, its parent, ..., 1}, from the parent list alone."""
    chain = {node}
    while node > 1:
        node = parents[node - 2]
        chain.add(node)
    return chain


class TestOneWalk:
    """`DependencyTree._branches`, the tree's one walk, against ancestor sets."""

    @settings(max_examples=150, deadline=None)
    @given(valid_tables())
    def test_every_pair_against_its_ancestor_sets(self, case):
        spec, length, _, _ = case
        tree = build_tree(spec, length)
        parents = tree.parents.tolist()
        nodes = range(1, length + 1)
        pairs = [(m, n) for m in nodes for n in nodes]
        expected = []
        for m, n in pairs:
            above_m, above_n = ancestors_of(parents, m), ancestors_of(parents, n)
            common = max(above_m & above_n)
            depth = len(ancestors_of(parents, common))
            expected.append((common, len(above_m) - depth, len(above_n) - depth))
        assert tree._branches(pairs) == expected
        assert tree._branches([(np.int64(m), np.int64(n)) for m, n in pairs]) == expected
        for (m, n), (common, up, down) in zip(pairs, expected):
            assert tree.branch_lengths(m, n) == (common, up, down)
            assert depcat.graph.tree_distance(tree, m, n) == up + down

    @settings(max_examples=30, deadline=None)
    @given(valid_tables())
    def test_bad_nodes_are_refused_before_any_hop(self, case):
        spec, length, _, _ = case
        tree = build_tree(spec, length)
        # 0 last: a walk from node 0 would never meet its partner
        for bad, shown in ((length + 1, f"{length + 1} outside 1..{length}"),
                           (1.5, "must be an integer, got 1.5"),
                           (True, "must be an integer, got true"),
                           (0, f"0 outside 1..{length}")):
            for pairs in ([(1, 2), (bad, 1)], [(1, 2), (1, bad)], [(bad, bad)]):
                with pytest.raises(DomainError, match=f"^node index {re.escape(shown)}$"):
                    tree._branches(pairs)
            with pytest.raises(DomainError, match=f"^node index {re.escape(shown)}$"):
                tree.branch_lengths(bad, length)


class TestPropagationFromACategory:
    """Route two's one rule, from a root law the kernel does move.

    p is stationary, so a law pushed from p comes back as p even when the
    push is wrong.  From the unit vector e_i at the root, the law reached
    at n is P(draw n | draw 1 = i), which is route one's pair (1, n) joint
    over p_i.
    """

    @settings(max_examples=100, deadline=None)
    @given(valid_tables())
    def test_every_node_is_route_ones_conditional_law(self, case):
        spec, length, p, delta = case
        tree = build_tree(spec, length)
        pairs = _pair_joints(joint_distribution(p, delta, spec, length))[1]

        def seeded(i):
            route = _Propagation(Marginal(p), delta, tree)
            route._marginals[1] = np.eye(len(p))[i]
            return route

        for i in np.flatnonzero(p):
            conditional = pairs[0, :, i] / p[i]
            ascending = seeded(i)  # one step per node
            for n in range(2, length + 1):
                # the fresh route pushes over the node's whole depth
                for route in (ascending, seeded(i)):
                    error = np.max(np.abs(route.marginal(n) - conditional[n - 1]))
                    assert error <= 1e-12, (i, n, error)
