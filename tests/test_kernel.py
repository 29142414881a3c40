"""Kernel construction, weighting identities, and validation guards."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depcat import (
    DomainError,
    GeneratorSpec,
    DependencyTree,
    Marginal,
    build_tree,
    evaluate,
    joint_pair_probability,
    transition_kernel,
    tree_distance,
)
from depcat.errors import check_reals
from depcat.exact import CrossCovariance
from depcat.kernel import as_delta


def normalized(weights):
    vec = np.asarray(weights, dtype=np.float64)
    return vec / vec.sum()


marginals = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6
).map(normalized)
deltas = st.floats(min_value=0.0, max_value=1.0)
SEQ = GeneratorSpec.builtin("sequential")


def repeat_entry(p, delta, j):
    """Kernel entry (j, j), 1-based: the draw repeats its parent's category j."""
    return transition_kernel(p, delta)[j - 1, j - 1]


def switch_entry(p, delta, j):
    """Kernel entry (i, j), 1-based, for a parent category i != j: the draw switches to j."""
    i = 2 if j == 1 else 1
    return transition_kernel(p, delta)[i - 1, j - 1]


class TestWeighting:
    def test_repeat_matches_bernoulli_reading(self):
        # p = q = 0.5, delta = 0.2: weighting toward the outcome gives 0.6
        assert repeat_entry([0.5, 0.5], 0.2, 1) == pytest.approx(0.6, abs=1e-15)

    def test_switch_matches_bernoulli_reading(self):
        # weighting away: 0.5 * (1 - 0.2) = 0.4
        assert switch_entry([0.5, 0.5], 0.2, 2) == pytest.approx(0.4, abs=1e-15)

    def test_repeat_direct_arithmetic(self):
        # 0.3 + 0.4 * 0.7
        value = repeat_entry([0.5, 0.3, 0.2], 0.4, 2)
        assert value == pytest.approx(0.58, abs=1e-15)

    def test_switch_direct_arithmetic(self):
        # 0.2 * 0.6
        value = switch_entry([0.5, 0.3, 0.2], 0.4, 3)
        assert value == pytest.approx(0.12, abs=1e-15)

    def test_zero_delta_is_identity_on_probs(self):
        p = [0.25, 0.25, 0.5]
        for j in (1, 2, 3):
            assert repeat_entry(p, 0.0, j) == pytest.approx(p[j - 1], abs=1e-15)
            assert switch_entry(p, 0.0, j) == pytest.approx(p[j - 1], abs=1e-15)

    def test_full_delta_limits(self):
        p = [0.7, 0.2, 0.1]
        for j in (1, 2, 3):
            assert repeat_entry(p, 1.0, j) == pytest.approx(1.0, abs=1e-15)
            assert switch_entry(p, 1.0, j) == 0.0

    @given(p=marginals, delta=deltas)
    def test_ranges(self, p, delta):
        for j in range(1, len(p) + 1):
            up = repeat_entry(p, delta, j)
            down = switch_entry(p, delta, j)
            assert p[j - 1] - 1e-15 <= up <= 1.0 + 1e-15
            assert -1e-15 <= down <= p[j - 1] + 1e-15

    @given(p=marginals, j=st.integers(min_value=1, max_value=6))
    @settings(max_examples=50)
    def test_monotone_in_delta(self, p, j):
        if j > len(p):
            j = len(p)
        grid = np.linspace(0.0, 1.0, 11)
        ups = [repeat_entry(p, d, j) for d in grid]
        downs = [switch_entry(p, d, j) for d in grid]
        assert all(b >= a - 1e-15 for a, b in zip(ups, ups[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(downs, downs[1:]))

    def test_category_out_of_range(self):
        with pytest.raises(DomainError, match=r"^category index 3 outside 1\.\.2$"):
            joint_pair_probability([0.5, 0.5], 0.2, SEQ, 1, 3, 2, 1)
        with pytest.raises(DomainError, match=r"^category index 0 outside 1\.\.2$"):
            joint_pair_probability([0.5, 0.5], 0.2, SEQ, 1, 1, 2, 0)


class TestTransitionKernel:
    def test_zero_delta_rows_equal_p(self):
        p = np.array([0.5, 0.3, 0.2])
        kernel = transition_kernel(p, 0.0)
        assert np.allclose(kernel, np.tile(p, (3, 1)), atol=1e-15)

    def test_full_delta_is_identity(self):
        kernel = transition_kernel([0.5, 0.3, 0.2], 1.0)
        assert np.array_equal(kernel, np.eye(3))

    def test_first_row_derived_values(self):
        kernel = transition_kernel([0.5, 0.3, 0.2], 0.4)
        assert np.allclose(kernel[0], [0.7, 0.18, 0.12], atol=1e-15)
        assert kernel[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_entries_built_from_weighting_functions(self):
        # the paper's rule: p_j + delta (1 - p_j) to repeat, p_j (1 - delta) to switch
        p, delta = [0.4, 0.35, 0.25], 0.3
        kernel = transition_kernel(p, delta)
        for i in range(1, 4):
            for j in range(1, 4):
                pj = p[j - 1]
                expected = pj + delta * (1 - pj) if i == j else pj * (1 - delta)
                assert kernel[i - 1, j - 1] == pytest.approx(expected, abs=1e-15)

    @given(p=marginals, delta=deltas)
    @settings(max_examples=100)
    def test_rows_stochastic(self, p, delta):
        kernel = transition_kernel(p, delta)
        assert np.max(np.abs(kernel.sum(axis=1) - 1.0)) <= 1e-12

    @given(p=marginals, delta=deltas)
    @settings(max_examples=100)
    def test_affine_form(self, p, delta):
        # kernel == (1 - delta) * (all rows p) + delta * I, entrywise
        kernel = transition_kernel(p, delta)
        k = len(p)
        affine = (1.0 - delta) * np.tile(p, (k, 1)) + delta * np.eye(k)
        assert np.max(np.abs(kernel - affine)) <= 1e-12

    def test_is_a_read_only_array(self):
        kernel = transition_kernel([0.5, 0.5], 0.2)
        assert isinstance(kernel, np.ndarray) and kernel.shape == (2, 2)
        assert np.allclose(kernel[0], [0.6, 0.4], atol=1e-15)
        with pytest.raises(ValueError):
            kernel[0, 0] = 0.9


class TestValidation:
    def test_marginal_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            Marginal(np.array([0.5, 0.6]))

    def test_marginal_rejects_negative(self):
        with pytest.raises(DomainError):
            Marginal(np.array([-0.1, 1.1]))

    def test_marginal_rejects_single_category(self):
        with pytest.raises(DomainError):
            Marginal(np.array([1.0]))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_marginal_rejects_non_finite_entries(self, entry):
        with pytest.raises(DomainError, match="^marginal probabilities must be finite$"):
            Marginal([entry, 0.5])

    def test_marginal_accepts_tiny_sum_error(self):
        Marginal(np.array([0.5, 0.5 + 1e-12]))

    def test_accepted_sum_error_is_divided_out(self):
        # Off by more than rounding (K * 2^-52): divided by the sum, so every
        # route reads one distribution; within rounding: kept as given.
        given = np.array([0.5, 0.3, 0.1999999995])
        assert Marginal(given).probs.tobytes() == (given / given.sum()).tobytes()
        drifted = Marginal([0.3333333333] * 3).probs
        assert abs(drifted.sum() - 1.0) <= 3 * 2.0**-53
        assert Marginal(drifted).probs.tobytes() == drifted.tobytes()
        tenths = [0.1] * 10  # sums to 1 - 2^-53
        assert Marginal(tenths).probs.tolist() == tenths
        with pytest.raises(DomainError, match="^marginal probabilities sum to"):
            Marginal([0.5, 0.3, 0.199999998])

    def test_marginal_is_immutable(self):
        p = Marginal(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_delta_bounds(self):
        assert as_delta(0.0) == 0.0
        assert as_delta(1) == 1.0
        for value, shown in ((-0.01, "-0.01"), (1.01, "1.01"), (float("nan"), "nan")):
            named = rf"^dependency coefficient must lie in \[0, 1\], got {re.escape(shown)}$"
            with pytest.raises(DomainError, match=named):
                as_delta(value)

    @pytest.mark.parametrize(
        "probs", [[True, False], [True, 0.0], ["abc", "x"], "abc", None, [[0.5], [0.5, 0.5]]]
    )
    def test_marginal_rejects_booleans_and_non_numbers(self, probs):
        with pytest.raises(DomainError):
            Marginal(probs)

    def test_marginal_reads_decimal_text(self):
        assert np.array_equal(Marginal(["0.25", ".75"]).probs, [0.25, 0.75])

    @pytest.mark.parametrize("value", [True, np.True_, "abc", " 0.4", "1_0", [0.3], None])
    def test_delta_rejects_booleans_and_non_numbers(self, value):
        with pytest.raises(DomainError, match="^dependency coefficient must be a number, got "):
            as_delta(value)

    def test_delta_reads_decimal_text(self):
        assert as_delta("0.4") == 0.4
        assert as_delta("1e-1") == 0.1

    def test_non_integer_indices(self):
        # one integer rule: category, generator index, tree node
        with pytest.raises(DomainError, match="^category index must be an integer, got 1.5$"):
            joint_pair_probability([0.5, 0.5], 0.2, SEQ, 1, 1.5, 2, 1)
        with pytest.raises(DomainError, match="^index must be an integer, got true$"):
            evaluate(GeneratorSpec.builtin("fk"), True)
        with pytest.raises(DomainError, match="^node index must be an integer, got 2.0$"):
            tree_distance(build_tree(GeneratorSpec.builtin("fk"), 3), 1, 2.0)

    def test_typed_objects_accepted_everywhere(self):
        p = Marginal(np.array([0.5, 0.5]))
        kernel = transition_kernel(p, "0.2")
        assert kernel.shape == (2, 2)
        assert kernel[0, 0] == pytest.approx(0.6, abs=1e-15)
        assert kernel[0, 1] == pytest.approx(0.4, abs=1e-15)


class TestNumberRule:
    """One rule for real entries: `Marginal` and `CrossCovariance` read through `check_reals`."""

    @pytest.mark.parametrize(
        "entry, shown",
        [(True, "true"), (np.True_, '"np.True_"'), ("1_0", '"1_0"'), (" 0.5", '" 0.5"'),
         ("inf", '"inf"'), ("0x1", '"0x1"'), (None, "null"), (0.5 + 0j, '"(0.5+0j)"')],
    )
    def test_marginal_and_covariance_reject_the_same_entries(self, entry, shown):
        got = f"must be a number, got {re.escape(shown)}$"
        with pytest.raises(DomainError, match=f"^marginal probability {got}"):
            Marginal([entry, 0.5])
        named = f"^covariance matrix entries must be numbers: entry {got}"
        with pytest.raises(DomainError, match=named):
            CrossCovariance(1, 2, [[entry, 0.0], [0.0, 0.0]], "empirical")

    @pytest.mark.parametrize("method", ["empirical", "closed-form"])
    def test_boolean_arrays_are_rejected(self, method):
        with pytest.raises(DomainError, match="must be a number, got true$"):
            CrossCovariance(1, 2, np.array([[True, False], [False, True]]), method)
        with pytest.raises(DomainError, match="^marginal probability must be a number, got true$"):
            Marginal(np.array([True, False]))

    def test_decimal_text_reads_alike(self):
        text = [["0.25", "-0.25"], ["-.25", "2.5e-1"]]
        matrix = CrossCovariance(1, 2, text, "closed-form").matrix
        assert matrix.dtype == np.float64 and matrix.tolist() == [[0.25, -0.25], [-0.25, 0.25]]
        assert Marginal(["0.25", ".75"]).probs.tolist() == Marginal([0.25, 0.75]).probs.tolist()

    def test_float64_arrays_pass_without_a_copy(self):
        # CrossCovariance reads every exact and empirical matrix this way.
        values = np.zeros((64, 64))
        assert check_reals(values, "x") is values
        assert check_reals(np.arange(3, dtype=np.uint8), "x").tolist() == [0.0, 1.0, 2.0]
        mixed = [[1, "2"], [0.5, np.float32(3)]]
        assert check_reals(mixed, "x").tolist() == [[1.0, 2.0], [0.5, 3.0]]

    def test_nested_arrays_of_unequal_shapes_are_a_domain_error(self):
        ragged = [np.zeros((2, 2)), np.zeros((2, 3))]
        with pytest.raises(DomainError, match="^covariance matrix entries must be numbers: entry: "):
            CrossCovariance(1, 2, ragged, "empirical")
        with pytest.raises(DomainError, match="^marginal probability: nested entries of unequal"):
            Marginal(ragged)
        with pytest.raises(DomainError, match="^tree parent: nested entries of unequal shapes"):
            DependencyTree(ragged)

    def test_caller_arrays_are_neither_frozen_nor_aliased(self):
        probs, matrix = np.array([0.5, 0.5]), np.zeros((2, 2))
        kept = Marginal(probs).probs, CrossCovariance(1, 2, matrix, "empirical").matrix
        assert probs.flags.writeable and matrix.flags.writeable
        assert not any(np.shares_memory(a, b) for a, b in zip(kept, (probs, matrix)))
