"""Sampler: determinism, degenerate limits, convergence to exact values."""

import hashlib
import json
import os
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import depcat.sampler
from depcat import (
    DomainError,
    EmpiricalMarginal,
    GeneratorSpec,
    cross_covariance_enumerated,
    empirical_cross_covariance,
    empirical_marginals,
    outcome_probability,
    sample_batch,
    transition_kernel,
)
from depcat.generators import _parents
from depcat.graph import build_tree
from depcat.kernel import as_marginal
from depcat.rng import ALGORITHM_ID, stream_keys, uniform_grid
from depcat.sampler import SampleBatch
from test_exact import valid_tables

FK = GeneratorSpec.builtin("fk")
SEQ = GeneratorSpec.builtin("sequential")
FSQRT = GeneratorSpec.builtin("floor_sqrt")
SIN_DRIFT = GeneratorSpec.builtin("sin_drift")
PRIME = GeneratorSpec.builtin("prime_partition")
BLOCK = depcat.sampler._BLOCK_ROWS
PINNED_COUNTS = "911b14c00b837e573b46f7e407274850abb88262f9bc700af9c41491852b62b7"
PINNED_COVARIANCES = "3540ae7913e44919f6d7e13bfdfa0608dd4f945d1cafd3ac434402ee0067436b"


class TestDeterminism:
    def test_identical_inputs_identical_batches(self):
        a = sample_batch([0.5, 0.3, 0.2], 0.4, SEQ, 6, 500, seed=99)
        b = sample_batch([0.5, 0.3, 0.2], 0.4, SEQ, 6, 500, seed=99)
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_worker_count_is_invisible(self):
        kwargs = dict(p=[0.5, 0.3, 0.2], delta=0.4, spec=FSQRT, length=7, count=1003, seed=5)
        single = sample_batch(**kwargs, workers=1)
        for workers in (2, 3, 8):
            assert np.array_equal(
                single.outcomes, sample_batch(**kwargs, workers=workers).outcomes
            )

    def test_workers_start_no_thread(self, monkeypatch):
        # Four CPUs and eight workers: a thread pool would start four threads here.
        kwargs = dict(p=[0.5, 0.3, 0.2], delta=0.4, spec=FSQRT, length=3, count=1000, seed=9)
        single = sample_batch(**kwargs, workers=1)

        def refuse(thread):
            raise AssertionError("sample_batch started a thread")

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert np.array_equal(single.outcomes, sample_batch(**kwargs, workers=8).outcomes)

    def test_sequence_matches_batch_row(self):
        batch = sample_batch([0.4, 0.6], 0.3, FK, 5, 20, seed=77)
        for index in (0, 7, 19):
            row = sample_batch([0.4, 0.6], 0.3, FK, 5, 1, seed=77, first_index=index)
            assert tuple(row.outcomes[0]) == tuple(batch.outcomes[index])

    def test_different_seeds_differ(self):
        a = sample_batch([0.5, 0.5], 0.5, SEQ, 6, 200, seed=1)
        b = sample_batch([0.5, 0.5], 0.5, SEQ, 6, 200, seed=2)
        assert not np.array_equal(a.outcomes, b.outcomes)


class TestDegenerateLimits:
    def test_full_dependence_freezes_the_sequence(self):
        # 64 positions make two tiles, and the rows span two row blocks
        for spec in (SEQ, FK, FSQRT):
            batch = sample_batch([0.5, 0.3, 0.2], 1.0, spec, 64, BLOCK + 17, seed=4)
            assert np.all(batch.outcomes == batch.outcomes[:, :1])
            assert set(batch.outcomes[:, 0].tolist()) == {1, 2, 3}

    def test_full_dependence_marginals_match_first_position(self):
        batch = sample_batch([0.5, 0.3, 0.2], 1.0, SEQ, 6, 1000, seed=12)
        first = empirical_marginals(batch, 1)
        for position in range(2, 7):
            later = empirical_marginals(batch, position)
            assert np.array_equal(first.counts, later.counts)

    def test_zero_dependence_positions_uncorrelated(self):
        batch = sample_batch([0.5, 0.5], 0.0, SEQ, 4, 200_000, seed=31)
        cov = empirical_cross_covariance(batch, 1, 4)
        assert np.max(np.abs(cov.matrix)) < 0.003

    def test_single_draw_marginal_is_one_hot(self):
        batch = sample_batch([0.5, 0.5], 0.2, SEQ, 3, 1, seed=8)
        marginal = empirical_marginals(batch, 2)
        assert marginal.counts.sum() == marginal.total == 1
        assert set(marginal.counts) == {0, 1}

    def test_total_is_the_sum_of_the_counts(self):
        marginal = EmpiricalMarginal(1, np.array([3, 0, 1]))
        assert marginal.total == 4 and type(marginal.total) is int
        assert marginal.frequencies.tolist() == [0.75, 0.0, 0.25]
        # counts of more than one position have no one total
        with pytest.raises(DomainError, match="^counts must be a 1-D array, got 2 dimensions$"):
            EmpiricalMarginal(1, [[3, 0, 1]])


class TestConvergence:
    def test_pair_frequency_matches_exact_probability(self):
        # chain, K=2, p=0.5, delta=0.5: P((1,1)) = 0.5 * 0.75 = 0.375
        batch = sample_batch([0.5, 0.5], 0.5, SEQ, 2, 1_000_000, seed=2024)
        exact = outcome_probability((1, 1), [0.5, 0.5], 0.5, SEQ)
        assert exact == pytest.approx(0.375, abs=1e-15)
        observed = np.mean(
            (batch.outcomes[:, 0] == 1) & (batch.outcomes[:, 1] == 1)
        )
        assert observed == pytest.approx(exact, abs=0.002)

    def test_marginals_converge_to_p_for_every_builtin(self):
        p = np.array([0.5, 0.3, 0.2])
        standard_error = np.sqrt(p * (1 - p) / 1_000_000)
        for offset, spec in enumerate((SEQ, FK, FSQRT, SIN_DRIFT, PRIME)):
            batch = sample_batch(p, 0.4, spec, 7, 1_000_000, seed=555 + offset)
            cells = 0
            within = 0
            for position in range(1, 8):
                freq = empirical_marginals(batch, position).frequencies
                for i in range(3):
                    cells += 1
                    within += abs(freq[i] - p[i]) <= 3 * standard_error[i]
            assert within / cells >= 0.95, spec.kind

    def test_covariance_converges_to_enumerated(self):
        p = [0.5, 0.3, 0.2]
        batch = sample_batch(p, 0.6, FSQRT, 4, 1_000_000, seed=99)
        empirical = empirical_cross_covariance(batch, 2, 4)
        exact = cross_covariance_enumerated(p, 0.6, FSQRT, 2, 4)
        assert np.max(np.abs(empirical.matrix - exact.matrix)) < 0.003

    def test_empirical_covariance_rows_sum_to_zero(self):
        batch = sample_batch([0.5, 0.3, 0.2], 0.5, SEQ, 5, 10_000, seed=3)
        cov = empirical_cross_covariance(batch, 2, 5)
        assert np.max(np.abs(cov.matrix.sum(axis=0))) < 1e-12
        assert np.max(np.abs(cov.matrix.sum(axis=1))) < 1e-12
        assert cov.method == "empirical"


class TestExports:
    def test_csv_layout(self):
        batch = sample_batch([0.5, 0.5], 1.0, SEQ, 3, 2, seed=10)
        lines = batch.to_csv().strip().splitlines()
        assert lines[0] == "e1,e2,e3"
        assert len(lines) == 3
        for line in lines[1:]:
            values = [int(v) for v in line.split(",")]
            assert values[0] == values[1] == values[2]  # delta = 1

    def test_jsonl_layout(self):
        batch = sample_batch([0.5, 0.5], 0.3, SEQ, 4, 3, seed=10)
        lines = batch.to_jsonl().strip().splitlines()
        assert len(lines) == 3
        for line, row in zip(lines, batch.outcomes):
            assert json.loads(line) == [int(v) for v in row]

    def test_metadata_contents(self):
        batch = sample_batch([0.25, 0.75], 0.4, FSQRT, 5, 7, seed=123)
        meta = batch.metadata()
        assert meta["algorithm"] == "splitmix64-2level"
        assert meta["seed"] == 123
        assert meta["count"] == 7
        assert meta["N"] == 5 and meta["K"] == 2
        assert meta["generator"] == {"kind": "floor_sqrt"}
        assert meta["delta"] == 0.4
        round_tripped = json.loads(json.dumps(batch.metadata(), sort_keys=True, indent=2))
        assert round_tripped == json.loads(json.dumps(meta))


class TestOutcomeOwnership:
    def test_caller_array_is_left_untouched(self):
        mine = np.ones((2, 3), dtype=np.int64)
        batch = SampleBatch(mine, 1, as_marginal([0.5, 0.5]), 0.4, SEQ)
        assert mine.flags.writeable
        assert not batch.outcomes.flags.writeable
        mine[0, 0] = 2
        assert batch.outcomes[0, 0] == 1

    def test_sample_batch_keeps_its_outcomes_without_a_copy(self):
        frozen = np.ones((2, 3), dtype=np.int64)
        frozen.flags.writeable = False
        assert SampleBatch(frozen, 1, as_marginal([0.5, 0.5]), 0.4, SEQ).outcomes is frozen
        # A copy of 29 MiB of outcomes would show in the allocation peak.
        tracemalloc.start()
        try:
            batch = sample_batch([0.5, 0.3, 0.2], 0.4, SEQ, 64, 60_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not batch.outcomes.flags.writeable
        assert peak < 1.5 * batch.outcomes.nbytes


class TestOutcomeDtype:
    """Outcomes are kept in the smallest unsigned dtype that holds K."""

    @pytest.mark.parametrize(
        "k, dtype", [(2, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16)]
    )
    def test_batch_dtype_follows_k(self, k, dtype):
        batch = sample_batch(np.full(k, 1 / k), 0.4, FSQRT, 5, 40, seed=3)
        assert batch.outcomes.dtype == dtype
        assert batch.outcomes.flags.c_contiguous
        hashlib.sha256(batch.outcomes)  # hashable as it stands

    @pytest.mark.parametrize("bad", [0, -1, 4, 257, 65537])
    @pytest.mark.parametrize("as_list", [False, True])
    def test_out_of_range_entries_are_rejected_before_narrowing(self, bad, as_list):
        # 257 and 65537 would wrap to 1 in uint8 and uint16.
        outcomes = np.array([[1, 2, 3], [3, bad, 1]], dtype=np.int64)
        given = outcomes.tolist() if as_list else outcomes
        with pytest.raises(DomainError):
            SampleBatch(given, 1, as_marginal([0.5, 0.3, 0.2]), 0.4, SEQ)

    def test_other_input_is_copied_into_the_batch_dtype(self):
        for outcomes in ([[1, 3], [2, 1]], np.asfortranarray(np.array([[1, 3], [2, 1]]))):
            batch = SampleBatch(outcomes, 1, as_marginal([0.5, 0.3, 0.2]), 0.4, SEQ)
            assert batch.outcomes.dtype == np.uint8
            assert batch.outcomes.flags.c_contiguous
            assert batch.outcomes.tolist() == [[1, 3], [2, 1]]

    @pytest.mark.parametrize("kept", [None, np.uint64, np.int32])
    @pytest.mark.parametrize("k", [3, 255, 256, 300])
    def test_empirical_statistics_match_an_int64_oracle(self, k, kept):
        outcomes = oracle_outcomes(k, 600)
        given = outcomes
        if kept is not None:  # read-only: int32 is kept as it is, uint64 copied
            given = outcomes.astype(kept)
            given.flags.writeable = False
        batch = SampleBatch(given, 1, as_marginal(np.full(k, 1 / k)), 0.4, SEQ)
        narrow = kept in (None, np.uint64)  # uint64 does not cast safely to intp
        assert batch.outcomes.dtype == (np.min_scalar_type(k) if narrow else kept)
        assert_empirical_statistics_match_an_int64_oracle(batch, outcomes)

    # Row counts around one and two counting blocks of B rows.  A pair's
    # block is the larger of B and its (K + 1)^2 bins: 16 384 rows at K = 3,
    # 65 536 at K = 255, 66 049 at K = 256 and 90 601 at K = 300, so the
    # last case spans three pair blocks.
    @pytest.mark.parametrize(
        "k, rows",
        [(k, rows) for k in (3, 255, 256, 300) for rows in (BLOCK - 1, BLOCK, BLOCK + 1)]
        + [(k, 2 * BLOCK + 1) for k in (3, 255, 256, 300)]
        + [(300, 2 * 301**2 + 1)],
    )
    def test_counts_across_row_blocks_match_an_int64_oracle(self, k, rows):
        outcomes = oracle_outcomes(k, rows)
        batch = SampleBatch(outcomes, 1, as_marginal(np.full(k, 1 / k)), 0.4, SEQ)
        assert batch.outcomes.dtype == np.min_scalar_type(k)
        assert_empirical_statistics_match_an_int64_oracle(batch, outcomes)

    def test_counts_and_covariances_are_pinned(self):
        # sha256 of every position's counts and every pair's covariance
        # matrix on a 40 000 x 5 batch at K = 64 (three counting blocks),
        # recorded from the whole-column counting that preceded the blocks.
        batch = sample_batch(np.full(64, 1 / 64), 0.6, FSQRT, 5, 40_000, seed=23)
        counts = hashlib.sha256()
        for position in range(1, 6):
            counts.update(empirical_marginals(batch, position).counts.astype("<i8").tobytes())
        matrices = hashlib.sha256()
        for m in range(1, 5):
            for n in range(m + 1, 6):
                matrix = empirical_cross_covariance(batch, m, n).matrix
                matrices.update(matrix.astype("<f8").tobytes())
        assert counts.hexdigest() == PINNED_COUNTS
        assert matrices.hexdigest() == PINNED_COVARIANCES

    @pytest.mark.parametrize(
        "statistic, positions",
        [(empirical_marginals, (2,)), (empirical_cross_covariance, (1, 2))],
        ids=["marginals", "cross_covariance"],
    )
    def test_counting_scratch_does_not_grow_with_the_rows(self, statistic, positions):
        # Widening a whole column to intp would take 1 MiB at 2^17 rows and
        # 8 MiB at 2^20; counting a block at a time takes the same at both,
        # under 1 MiB.
        peaks = []
        for rows in (2**17, 2**20):
            batch = sample_batch([0.5, 0.3, 0.2], 0.4, SEQ, 4, rows, seed=1)
            tracemalloc.start()
            try:
                statistic(batch, *positions)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * 2**20
        assert max(peaks) < 2**20


class TestErrors:
    def test_empty_batch_statistics_raise(self):
        batch = sample_batch([0.5, 0.5], 0.4, SEQ, 3, 0, seed=1)
        with pytest.raises(DomainError, match="^cannot compute marginals of an empty batch$"):
            empirical_marginals(batch, 1)
        with pytest.raises(DomainError, match="^cannot compute covariance of an empty batch$"):
            empirical_cross_covariance(batch, 1, 2)

    def test_position_bounds(self):
        batch = sample_batch([0.5, 0.5], 0.4, SEQ, 3, 5, seed=1)
        with pytest.raises(DomainError):
            empirical_marginals(batch, 4)
        with pytest.raises(DomainError):
            empirical_cross_covariance(batch, 2, 4)

    def test_batch_needs_a_position(self):
        with pytest.raises(DomainError):
            SampleBatch(np.empty((3, 0), dtype=np.int64), 1, as_marginal([0.5, 0.5]), 0.4, SEQ)

    def test_batch_reads_its_metadata_by_the_library_rules(self):
        # The sidecar used to record "seed": true and "delta": 7 as given.
        outcomes = np.ones((2, 2), dtype=np.int64)
        marginal = as_marginal([0.5, 0.5])
        with pytest.raises(DomainError, match="^seed must be an integer, got true$"):
            SampleBatch(outcomes, True, marginal, 0.4, SEQ)
        with pytest.raises(DomainError, match=r"^dependency coefficient must lie in \[0, 1\]"):
            SampleBatch(outcomes, 7, marginal, 7, SEQ)
        with pytest.raises(DomainError, match="^marginal probabilities sum to"):
            SampleBatch(outcomes, 7, [0.5, 0.6], 0.4, SEQ)
        batch = SampleBatch(outcomes, np.int64(7), [0.5, 0.5], "0.4", SEQ)
        assert type(batch.seed) is int and isinstance(batch.marginal, depcat.Marginal)
        assert batch.metadata() == SampleBatch(outcomes, 7, marginal, 0.4, SEQ).metadata()
        assert (batch.metadata()["seed"], batch.metadata()["delta"]) == (7, 0.4)

    def test_invalid_worker_count(self):
        with pytest.raises(DomainError):
            sample_batch([0.5, 0.5], 0.4, SEQ, 3, 5, seed=1, workers=0)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("count", [0, 2])
    def test_non_integer_seed(self, seed, count):
        # An empty batch draws no stream key, so the seed is checked first.
        with pytest.raises(DomainError, match="seed must be an integer"):
            sample_batch([0.5, 0.5], 0.4, FK, 3, count, seed=seed)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("first_index", 0.5, "first_index must be an integer, got 0.5"),
            ("count", 2.5, "count must be an integer, got 2.5"),
            ("workers", 1.5, "workers must be an integer, got 1.5"),
            ("length", 2.5, "tree size must be an integer, got 2.5"),
            ("count", True, "count must be an integer, got true"),
        ],
    )
    def test_non_integer_argument(self, name, value, message):
        # int() would truncate first_index 0.5 to the rows of 0, and a
        # float count or workers used to raise a bare TypeError.
        arguments = dict(p=[0.5, 0.5], delta=0.4, spec=SEQ, length=3, count=2, seed=1)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sample_batch(**{**arguments, name: value})

    def test_non_integer_sequence_index(self):
        with pytest.raises(DomainError, match="^first_index must be an integer, got 2.7$"):
            sample_batch([0.5, 0.5], 0.4, SEQ, 3, 1, seed=1, first_index=2.7)


def compare_count_oracle(p, delta, parents, uniforms):
    """The sampler's rule before guide tables, kept as the reference.

    Position 1 takes a searchsorted over the base cumulative; every later
    position gathers the full cumulative row of its parent's category and
    counts the cuts below the uniform.  It reads p as `Marginal` accepts it,
    divided by its sum when that is off by more than rounding.
    """
    base = np.cumsum(as_marginal(p).probs)
    base[-1] = 1.0
    row_cumulative = np.cumsum(transition_kernel(p, delta), axis=1)
    row_cumulative[:, -1] = 1.0
    count, length = uniforms.shape
    out = np.empty((count, length), dtype=np.int64)
    out[:, 0] = np.searchsorted(base, uniforms[:, 0], side="left") + 1
    for index in range(2, length + 1):
        rows = row_cumulative[out[:, parents[index - 2] - 1] - 1]
        out[:, index - 1] = (rows < uniforms[:, index - 1, None]).sum(axis=1) + 1
    return out


def digest(batch):
    data = np.ascontiguousarray(batch.outcomes, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()


def oracle_outcomes(k, rows):
    """A (rows, 4) int64 array in 1..K: every column holds 1 and K, and row 3 reads K, 1, K, 1."""
    outcomes = np.random.default_rng(k).integers(1, k + 1, size=(rows, 4))
    outcomes[0], outcomes[1] = 1, k
    outcomes[2, ::2], outcomes[2, 1::2] = k, 1
    return outcomes


def assert_empirical_statistics_match_an_int64_oracle(batch, outcomes):
    """Counts and covariances of `batch` against int64 bincounts of `outcomes`."""
    k = batch.num_categories
    zero_based = outcomes.astype(np.int64) - 1
    for position in range(1, 5):
        expected = np.bincount(zero_based[:, position - 1], minlength=k)
        assert np.array_equal(empirical_marginals(batch, position).counts, expected)
    for m, n in [(1, 2), (1, 4), (2, 3), (3, 4)]:
        pairs = zero_based[:, m - 1] * k + zero_based[:, n - 1]
        joint = np.bincount(pairs, minlength=k * k).reshape(k, k) / len(outcomes)
        expected = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))
        got = empirical_cross_covariance(batch, m, n).matrix
        assert np.max(np.abs(got - expected)) <= 1e-15


def kernel_built_table(marginal, delta, buckets):
    """The draw table of G = `buckets` by its definition, with cuts from `transition_kernel`.

    Bucket b of row j holds the cuts in [b/G, (b+1)/G), and bucket G those
    at or above 1.  start[j, b] = 1 + #{c : cuts[j, c] < b/G};
    thresholds[j, b] is floor(c * 2^53) for the row's first cut c not below
    b/G, or _REFINE when the cuts of bucket b < G give floor(c * 2^53) two
    values.
    """
    k = marginal.num_categories
    cuts = np.empty((k + 1, k))
    cuts[0] = np.cumsum(marginal.probs)
    cuts[1:] = np.cumsum(transition_kernel(marginal, delta), axis=1)
    cuts[:, -1] = 1.0
    edges = np.arange(buckets + 1) / buckets
    start = np.empty((k + 1, buckets + 1), dtype=np.min_scalar_type(k))
    thresholds = np.empty((k + 1, buckets + 1), dtype=np.uint64)
    for row, row_start, row_thresholds in zip(cuts, start, thresholds):
        # The cuts before the forced 1.0 rise; 1.0 is below no edge.
        below = np.searchsorted(row[:-1], edges, side="left")
        row_start[:] = below + 1
        scaled = np.floor(np.ldexp(row, 53))
        row_thresholds[:] = scaled[below].astype(np.uint64)
        # One entry per distinct (bucket, floor(c * 2^53)); a bucket below G
        # with two entries refines.
        bucket = np.searchsorted(edges, row, side="right") - 1  # the last edge <= the cut
        order = np.lexsort((scaled, bucket))
        bucket, scaled = bucket[order], scaled[order]
        new = np.append(True, (bucket[1:] != bucket[:-1]) | (scaled[1:] != scaled[:-1]))
        values = np.bincount(bucket[new], minlength=buckets + 1)
        row_thresholds[np.nonzero(values[:buckets] > 1)[0]] = depcat.sampler._REFINE
    return cuts, start, thresholds


def zero_category_marginal():
    weights = np.arange(1, 301, dtype=np.float64)
    weights[149] = 0.0
    return weights / weights.sum()


ORACLE_CASES = dict(
    k=st.integers(min_value=2, max_value=300),
    shape_seed=st.integers(min_value=0, max_value=2**32 - 1),
    zeros=st.integers(min_value=0, max_value=299),
    tiny=st.integers(min_value=0, max_value=299),
    drift=st.sampled_from([-0.99e-9, -3e-10, 0.0, 3e-10, 0.99e-9]),
    delta=st.sampled_from(
        [0.0, 5e-324, 1e-12, 1.0 - 1e-12, float(np.nextafter(1.0, 0.0)), 1.0]
    ) | st.floats(min_value=0.0, max_value=1.0),
    spec=st.sampled_from([FK, SEQ, FSQRT, SIN_DRIFT, PRIME]),
    length=st.integers(min_value=1, max_value=12),
    count=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


def assert_matches_oracle(k, shape_seed, zeros, tiny, drift, delta, spec, length, count, seed):
    # p with zero entries, 1e-13 entries and a sum of 1 +/- 1e-9.
    rng = np.random.default_rng(shape_seed)
    weights = rng.dirichlet(np.ones(k))
    order = rng.permutation(k)
    weights[order[: min(zeros, k - 1)]] = 0.0
    weights[order[k - 1 - min(tiny, k - 1) : k - 1]] = 1e-13
    p = np.minimum(weights / weights.sum() * (1.0 + drift), 1.0)
    batch = sample_batch(p, delta, spec, length, count, seed=seed)
    parents = build_tree(spec, length).parents
    uniforms = uniform_grid(seed, 0, count, length)
    expected = compare_count_oracle(p, delta, parents, uniforms)
    assert np.array_equal(batch.outcomes, expected)


class TestGuideTableExactness:
    """Guide-table draws reproduce right-closed inverse-CDF bucketing bit for bit."""

    # sha256 of the little-endian int64 outcomes, recorded from the
    # full-row compare-count sampler that the guide table replaced.
    @pytest.mark.parametrize(
        "p, delta, spec, length, seed, expected",
        [
            ([0.5, 0.3, 0.2], 0.4, FSQRT, 64, 7,
             "35902276685b541586b36ce71d315f270a97ac3f872c6579b1abac7a7fbf6b0d"),
            (np.full(64, 1 / 64), 0.6, SEQ, 64, 11,
             "4a4327c84c3c97a08dd47f8a6c7a185279d8eefb800acba7959ec7f413457034"),
            (zero_category_marginal(), 0.0, FK, 16, 13,
             "37ad1a583b2edd8bf4ac71b82151be39a6b9496de7fd8f5437302d6b3bf61ada"),
            (zero_category_marginal(), 1.0, FK, 16, 13,
             "c0bd4abbbdd49479e98a6eccab119856bc81c7fa68db49c4756deb18d97f238b"),
        ],
        ids=["k3-floor_sqrt", "k64-sequential", "k300-fk-delta0", "k300-fk-delta1"],
    )
    def test_pinned_batches(self, p, delta, spec, length, seed, expected):
        batch = sample_batch(p, delta, spec, length, 3000, seed=seed)
        assert digest(batch) == expected
        assert batch.metadata()["algorithm"] == ALGORITHM_ID == "splitmix64-2level"

    # Recorded from the float-uniform draw loop, at a count that spans three
    # row blocks.
    @pytest.mark.parametrize(
        "p, delta, spec, seed, expected",
        [
            ([0.5, 0.3, 0.2], 0.4, FSQRT, 7,
             "b8c5dbd91fb4ffcf1d6eabcef5b0b8e34a6e1c2320a853ae4be31e2e0faca66a"),
            (np.full(64, 1 / 64), 0.6, SEQ, 11,
             "b3c535ef27924afc136ffe94f05bd47d29f35f242f5c0d7402e17d8d7ae974d9"),
        ],
        ids=["k3-floor_sqrt", "k64-sequential"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_across_block_and_thread_boundaries(
        self, p, delta, spec, seed, expected, workers
    ):
        count = 2 * 2**14 + 17  # _BLOCK_ROWS is 2**14
        batch = sample_batch(p, delta, spec, 64, count, seed=seed, workers=workers)
        assert digest(batch) == expected

    # Recorded from the draw loop that wrote every position straight into
    # the batch.  N = 100 makes three full 32-position tiles and a partial
    # one, so parents are read both from the tile and from the row block.
    @pytest.mark.parametrize(
        "p, delta, spec, seed, expected",
        [
            (np.full(64, 1 / 64), 0.6, SEQ, 11,
             "7e034ed69ab404bf7bd658582038d5e06f05c1e2d149cea74bbe0c6528a2ecb2"),
            ([0.1, 0.2, 0.3, 0.2, 0.2], 0.7, SIN_DRIFT, 5,
             "36b9547a55d14e1a301dd0f47168b37eca516185cd410e50ba3eec4fa2a11b3e"),
            ([0.4, 0.6], 0.3, PRIME, 17,
             "09ddbb24124c551507ab8c36f170c4e4f81747f9a8c0ab3c3e8b34dd2f925c95"),
        ],
        ids=["k64-sequential", "k5-sin_drift", "k2-prime_partition"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_across_tile_edges(self, p, delta, spec, seed, expected, workers):
        count = 2 * 2**14 + 17
        batch = sample_batch(p, delta, spec, 100, count, seed=seed, workers=workers)
        assert digest(batch) == expected

    @given(**ORACLE_CASES)
    @settings(max_examples=100, deadline=None)
    def test_matches_compare_count_oracle(self, **case):
        assert_matches_oracle(**case)

    # Lengths of at most 12 never cross a 32-position tile; narrow tiles
    # make parents reach back across tile edges into the row block.
    @given(**ORACLE_CASES)
    @settings(max_examples=100, deadline=None)
    @pytest.mark.parametrize("tile", [1, 2, 3, 5])
    def test_matches_compare_count_oracle_in_narrow_tiles(self, tile, **case):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(depcat.sampler, "_TILE", tile)
            assert_matches_oracle(**case)

    @pytest.mark.parametrize(
        "p",
        [
            [0.5, 0.3, 0.2],
            [0.25, 0.0, 0.5, 1e-13, 0.25 - 1e-13],
            [0.3, 0.7 + 1e-10, 1e-12],  # cumulative sum overshoots 1.0
            list(np.full(17, 1 / 17)),
            [0.5, 0.005, 0.495],  # the cuts 0.5 and 0.505 share bucket 32 of G = 64
            [0.4, 0.0, 0.0, 0.6],  # three equal cuts at 0.4
        ],
    )
    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0 - 1e-12, 1.0])
    def test_uniforms_on_cuts_and_bucket_edges(self, p, delta):
        # Uniforms on the 2^-53 grid the RNG draws from, at the mantissas just
        # below and above every cut point and on every bucket edge, one step
        # to either side of each, and at both ends m = 1 and m = 2^53, for
        # every parent category: the hardest inputs for a bucketed lookup.
        table = depcat.sampler._draw_table(as_marginal(p), delta)
        scaled = table.cuts.ravel() * 2.0**53
        edges = np.arange(table.buckets + 1, dtype=np.int64) << table.shift
        mantissas = np.concatenate([np.floor(scaled), np.ceil(scaled)]).astype(np.int64)
        mantissas = np.concatenate([mantissas, edges])
        mantissas = np.concatenate([mantissas - 1, mantissas, mantissas + 1, [1, 2**53]])
        mantissas = np.unique(mantissas[(mantissas >= 1) & (mantissas <= 2**53)])
        # The largest mantissa at or below each base cut reaches every
        # possible category.
        first = np.unique(np.floor(table.cuts[0] * 2.0**53).astype(np.int64))
        first = first[(first >= 1) & (first <= 2**53)]
        grid = np.stack(
            [np.repeat(first, mantissas.size), np.tile(mantissas, first.size)]
        ).astype(np.uint64)
        uniforms = grid.T * 2.0**-53
        parents = np.array([1])
        out = np.empty(uniforms.shape, dtype=np.int64)
        scratch = depcat.sampler._Scratch(grid.size, grid.shape[1], 2, table.start.dtype)
        depcat.sampler._draw_block(table, parents, grid, out, 0, 0, scratch)
        out[:] = scratch.tile.T
        assert np.array_equal(out, compare_count_oracle(p, delta, parents, uniforms))
        assert not np.isin(out, np.flatnonzero(np.array(p) == 0) + 1).any()  # p = 0: never drawn

    @pytest.mark.parametrize("k", [2, 64, 300, 1000])
    def test_table_stays_within_budget(self, k):
        table = depcat.sampler._draw_table(as_marginal(np.full(k, 1 / k)), 0.5)
        assert table.start.nbytes + table.thresholds.nbytes <= depcat.sampler._TABLE_BUDGET
        assert table.buckets & (table.buckets - 1) == 0
        assert table.start.shape == table.thresholds.shape == (k + 1, table.buckets + 1)

    @pytest.mark.parametrize("delta", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("k", [3, 64, 300, 4096])
    def test_row_built_table_equals_the_kernel_built_one(self, k, delta):
        probs = np.random.default_rng(k).random(k)
        marginal = as_marginal(probs / probs.sum())
        table = depcat.sampler._draw_table(marginal, delta)
        cuts, start, thresholds = kernel_built_table(marginal, delta, table.buckets)
        assert table.cuts.tobytes() == cuts.tobytes()
        assert table.start.dtype == start.dtype and np.array_equal(table.start, start)
        assert table.thresholds.tobytes() == thresholds.tobytes()

    def test_sequence_is_the_one_row_case(self):
        p = zero_category_marginal()
        batch = sample_batch(p, 0.7, SIN_DRIFT, 9, 40, seed=2**63 + 5)
        for index in (0, 13, 39):
            row = sample_batch(p, 0.7, SIN_DRIFT, 9, 1, seed=2**63 + 5, first_index=index)
            assert tuple(row.outcomes[0]) == tuple(batch.outcomes[index])


class TestDrawKernel:
    """Integer buckets, bounded refinement, one key mix per block, no per-column arrays."""

    @pytest.mark.parametrize("g", range(54))
    def test_mantissa_shift_is_the_floor_of_u_times_g(self, g):
        # Every g that _draw_table can choose (G from 16 to 8192) and more.
        # Bucket edges b * 2^(53-g): the first and last 1024 of them.
        ends = np.arange(min(2**g, 1024) + 1, dtype=np.int64)
        edges = np.concatenate([ends, 2**g - ends]) << (53 - g)
        mantissas = np.concatenate(
            [edges - 1, edges, edges + 1, [1, 2**53, 2**53 - 1, 2**52, 2**52 + 1]]
        )
        mantissas = np.unique(mantissas[(mantissas >= 1) & (mantissas <= 2**53)])
        shifted = mantissas.astype(np.uint64) >> np.uint64(53 - g)
        scaled = np.floor(mantissas * 2.0**-53 * 2.0**g)
        assert np.array_equal(shifted, scaled.astype(np.uint64))
        assert int(np.uint64(2**53) >> np.uint64(53 - g)) == 2**g  # u = 1.0: bucket G

    @pytest.mark.parametrize("k", [2, 64, 181, 256, 1000])
    def test_tables_share_the_budget_and_shift_matches_buckets(self, k):
        table = depcat.sampler._draw_table(as_marginal(np.full(k, 1 / k)), 0.5)
        assert table.start.nbytes + table.thresholds.nbytes <= depcat.sampler._TABLE_BUDGET
        assert table.start.shape == table.thresholds.shape == (k + 1, table.buckets + 1)
        assert 1 << (53 - table.shift) == table.buckets

    @pytest.mark.parametrize("spec", [FSQRT, SEQ])
    def test_budget_capped_k4096_matches_compare_count_oracle(self, spec):
        # At K = 4096 the budget caps G at 256: every bucket but G of every row
        # holds distinct cuts, so every draw refines, searching the cuts of its bucket.
        k, delta, length, count, seed = 4096, 0.002, 6, 400, 2**64 - 7
        p = np.full(k, 1 / k)
        table = depcat.sampler._draw_table(as_marginal(p), delta)
        assert table.buckets == 256 and np.all(table.thresholds[:, :-1] == depcat.sampler._REFINE)
        assert np.diff(table.start, axis=1).max() > 1  # some bucket holds several cuts
        del table
        # The table is built a kernel row at a time, so the draw peaks at its
        # 128 MiB cut matrix, not at a K x K kernel beside it.
        tracemalloc.start()
        try:
            batch = sample_batch(p, delta, spec, length, count, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20
        parents = build_tree(spec, length).parents
        expected = compare_count_oracle(p, delta, parents, uniform_grid(seed, 0, count, length))
        assert np.array_equal(batch.outcomes, expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_block_mixes_its_keys_once(self, monkeypatch, workers):
        calls = []

        def counting(seed, first_index, count, **buffers):
            calls.append((first_index, count))
            return stream_keys(seed, first_index, count, **buffers)

        monkeypatch.setattr(depcat.sampler, "stream_keys", counting)
        count = 2 * 2**14 + 17
        batch = sample_batch([0.5, 0.3, 0.2], 0.4, FSQRT, 64, count, seed=3, workers=workers)
        # ceil(count / 2**14) blocks, in row order, whatever `workers` is
        assert calls == [(s, min(2**14, count - s)) for s in range(0, count, 2**14)]
        assert np.array_equal(batch.outcomes, sample_batch(
            [0.5, 0.3, 0.2], 0.4, FSQRT, 64, count, seed=3).outcomes)

    def test_every_variate_is_drawn_through_uniform_grid(self, monkeypatch):
        # The public uniform_grid is where a variate is produced and counted.
        drawn = []

        def counting(seed, first_index, count, length, first_position=0, **buffers):
            drawn.append(count * length)
            return uniform_grid(seed, first_index, count, length, first_position, **buffers)

        monkeypatch.setattr(depcat.sampler, "uniform_grid", counting)
        count, length = 2**14 + 17, 9
        sample_batch([0.5, 0.3, 0.2], 0.4, FSQRT, length, count, seed=3, workers=2)
        assert sum(drawn) == count * length

    @pytest.mark.parametrize("k, spec", [(3, FSQRT), (64, SEQ)])
    def test_draw_block_allocates_less_than_one_column(self, k, spec):
        # The parents, bucket indices, draws and refine mask of a column
        # live in the scratch; only refinement makes arrays, the
        # size of its refined draws.
        table = depcat.sampler._draw_table(as_marginal(np.full(k, 1 / k)), 0.4)
        rows, width = 2**14, 8
        parents = build_tree(spec, width).parents
        scratch = depcat.sampler._Scratch(rows * width, rows, width, table.start.dtype)
        group = scratch.mantissas.reshape(width, rows)
        keys, words = stream_keys(5, 0, rows), scratch.words.reshape(width, rows)
        uniform_grid(5, 0, rows, width, keys=keys, mantissas=group, scratch=words)
        expected = compare_count_oracle(
            np.full(k, 1 / k), 0.4, parents, group.T * 2.0**-53
        )
        out = np.empty((rows, width), dtype=table.start.dtype)
        tracemalloc.start()
        try:
            depcat.sampler._draw_block(table, parents, group, out, 0, 0, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[:] = scratch.tile.T
        assert peak < rows * np.dtype(np.intp).itemsize
        assert np.array_equal(out, expected)

    def test_scratch_is_bounded_in_the_length(self):
        # Any buffer of rows x N entries would grow the peak by about 2 MiB
        # per 128 positions here; tiles, groups and keys are the same size
        # at N = 64 and N = 2048.
        peaks = []
        for length in (64, 2048):
            tracemalloc.start()
            try:
                batch = sample_batch([0.5, 0.3, 0.2], 0.4, SEQ, length, 2**14, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1] - batch.outcomes.nbytes)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024

    def test_first_index_draws_any_range_of_rows(self):
        kwargs = dict(p=[0.5, 0.3, 0.2], delta=0.4, spec=FSQRT, length=9, seed=21)
        full = sample_batch(**kwargs, count=2**14 + 40)
        for first, count in ((0, 10), (2**14 - 5, 30), (2**14 + 1, 39)):
            part = sample_batch(**kwargs, count=count, first_index=first)
            assert np.array_equal(part.outcomes, full.outcomes[first : first + count])
        with pytest.raises(DomainError):
            sample_batch(**kwargs, count=3, first_index=-1)
        with pytest.raises(DomainError):
            sample_batch(**kwargs, count=1, first_index=-1)

    def test_batch_is_redrawn_from_its_own_metadata(self):
        spec = SIN_DRIFT
        batch = sample_batch([0.5, 0.3, 0.2], 0.4, spec, 9, 50, seed=21, first_index=100)
        meta = batch.metadata()
        assert meta["first_index"] == batch.first_index == 100
        again = sample_batch(
            meta["p"], meta["delta"], GeneratorSpec.from_dict(meta["generator"]),
            meta["N"], meta["count"], meta["seed"], first_index=meta["first_index"],
        )
        assert np.array_equal(again.outcomes, batch.outcomes)
        assert again.metadata() == meta
        at_zero = sample_batch([0.5, 0.3, 0.2], 0.4, spec, 9, 50, seed=21)
        assert not np.array_equal(at_zero.outcomes, batch.outcomes)
        assert at_zero.metadata() == {**meta, "first_index": 0}

    # Rows of at most 16 bytes, across two row blocks: every tile goes back
    # into the block through the one transposed write.
    @pytest.mark.parametrize("length", [2, 3, 4, 16])
    def test_short_rows_across_row_blocks_match_compare_count_oracle(self, length):
        p, delta, seed, count = [0.5, 0.3, 0.2], 0.4, 9, 2**14 + 17
        for spec in (FK, FSQRT):
            batch = sample_batch(p, delta, spec, length, count, seed=seed)
            parents = build_tree(spec, length).parents
            uniforms = uniform_grid(seed, 0, count, length)
            expected = compare_count_oracle(p, delta, parents, uniforms)
            assert np.array_equal(batch.outcomes, expected)

    def test_first_index_reaches_the_last_counter(self):
        # first_index + count may be 2**64: the rows end at index 2**64 - 1
        kwargs = dict(p=[0.5, 0.3, 0.2], delta=0.4, spec=FSQRT, length=9, seed=21)
        for count in (1, 2, 5):
            first = 2**64 - count
            batch = sample_batch(**kwargs, count=count, first_index=first)
            for row in range(count):
                alone = sample_batch(**kwargs, count=1, first_index=first + row)
                assert np.array_equal(batch.outcomes[row], alone.outcomes[0])
            with pytest.raises(DomainError, match=f"^first_index {first + 1} outside 0..{first}$"):
                sample_batch(**kwargs, count=count, first_index=first + 1)



class TestSiblingsShareOneParentRead:
    """A run of children of one parent widens its draws once; each row block starts afresh."""

    # Recorded at the draw loop that widened the parent's draws for every
    # child.  fk is the star: 62 of its 63 children reuse the first
    # position's rows, across three row blocks.
    @pytest.mark.parametrize(
        "p, delta, seed, expected",
        [
            ([0.5, 0.3, 0.2], 0.4, 7,
             "cf72b2e5da24463883f040c94b8c912aa3e74248677602ef3171df9e53ee489d"),
            ([0.05] * 8 + [0.15] * 4, 0.6, 2,
             "7e5607382e8bc9a03166aef1808940f48f1d9119231396187f962b8d808bf310"),
        ],
        ids=["k3", "k12"],
    )
    def test_fk_pinned_across_row_blocks(self, p, delta, seed, expected):
        batch = sample_batch(p, delta, FK, 64, 2 * BLOCK + 17, seed=seed)
        assert digest(batch) == expected

    # A first_index off the block grid shifts every block's rows, so no
    # block starts where the row counter does.
    @pytest.mark.parametrize("spec", [FK, FSQRT], ids=["fk", "floor_sqrt"])
    @pytest.mark.parametrize("first_index", [1, BLOCK - 5, 2**40 + 3])
    def test_matches_compare_count_oracle_past_a_row_block(self, spec, first_index):
        p, delta, seed, length, count = [0.1, 0.2, 0.3, 0.4], 0.7, 19, 40, BLOCK + 17
        batch = sample_batch(p, delta, spec, length, count, seed=seed, first_index=first_index)
        parents = build_tree(spec, length).parents
        uniforms = uniform_grid(seed, first_index, count, length)
        assert np.array_equal(batch.outcomes, compare_count_oracle(p, delta, parents, uniforms))

    def test_scratch_remembers_the_last_parent_read(self):
        # fk's children all read column 0; sequential's last child reads the
        # column before it.
        table = depcat.sampler._draw_table(as_marginal([0.5, 0.3, 0.2]), 0.4)
        rows, width = 64, 8
        for spec, held in ((FK, 0), (SEQ, width - 2)):
            scratch = depcat.sampler._Scratch(rows * width, rows, width, table.start.dtype)
            assert scratch.parent == -1
            group = np.arange(1, rows * width + 1, dtype=np.uint64).reshape(width, rows) << 40
            out = np.empty((rows, width), dtype=table.start.dtype)
            depcat.sampler._draw_block(
                table, build_tree(spec, width).parents, group, out, 0, 0, scratch
            )
            assert scratch.parent == held


GAPPED = GeneratorSpec.from_table({2: 1, 4: 4, 5: 9, 7: 3})


def oracle_counts(outcomes, k, *positions):
    """Flat int64 bincount of the 0-based values at one position, or of (v_m - 1) K + (v_n - 1)."""
    codes = np.zeros(len(outcomes), dtype=np.int64)
    for position in positions:
        codes = codes * k + outcomes[:, position - 1].astype(np.int64) - 1
    return np.bincount(codes, minlength=k ** len(positions))


def oracle_covariance(outcomes, k, m, n):
    """The empirical covariance formula, on oracle pair counts."""
    joint = oracle_counts(outcomes, k, m, n).reshape(k, k) / len(outcomes)
    return joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))


@st.composite
def tally_runs(draw):
    """A spec, K, outcomes in 1..K, and an interleaved run of marginal and pair calls.

    Table specs reach at most n = 7, so past it they are gapped, as GAPPED is
    throughout; the builtins have tree edges past the 64-position window cap.
    """
    spec = draw(
        valid_tables().map(lambda case: case[0])
        | st.sampled_from([FK, SEQ, FSQRT, SIN_DRIFT, PRIME, GAPPED])
    )
    k = draw(st.integers(2, 5))
    length = draw(st.integers(1, 140))
    rows = draw(st.integers(1, 200))
    outcomes = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        1, k + 1, size=(rows, length)
    )
    calls = [st.integers(1, length).map(lambda n: (n,))]
    if length > 1:
        parents = _parents(spec, np.arange(2, length + 1)).tolist()
        edges = [(m, n) for n, m in enumerate(parents, start=2) if 1 <= m < n]
        if edges:
            calls.append(st.sampled_from(edges))
        calls.append(
            st.integers(2, length).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n)))
        )
    run = draw(st.lists(st.one_of(*calls), min_size=1, max_size=30))
    run += draw(st.lists(st.sampled_from(run), max_size=10))  # repeats
    return spec, k, outcomes, draw(st.permutations(run))


def k300_run():
    """floor_sqrt at K = 300, where a pair's counts outweigh the budget: W = 1."""
    outcomes = np.random.default_rng(300).integers(1, 301, size=(150, 140))
    edges = [(int(np.sqrt(n)), n) for n in range(2, 141)]
    run = [(n,) for n in range(140, 0, -9)] + edges[::7] + [(3, 9), (2, 140), edges[0], (70,)]
    return FSQRT, 300, outcomes, run


class TestTally:
    """A batch counts a window of statistics at a time and keeps one window per arity."""

    @settings(max_examples=120, deadline=None)
    @given(tally_runs())
    @example(k300_run())
    def test_every_call_order_matches_a_flat_oracle(self, case):
        spec, k, outcomes, run = case
        batch = SampleBatch(outcomes, 1, as_marginal(np.full(k, 1 / k)), 0.4, spec)
        for call in run:
            if len(call) == 1:
                counts = empirical_marginals(batch, *call).counts
                assert np.array_equal(counts, oracle_counts(outcomes, k, *call)), call
            else:
                matrix = empirical_cross_covariance(batch, *call).matrix
                assert matrix.tobytes() == oracle_covariance(outcomes, k, *call).tobytes(), call
            for window in batch._tally.windows.values():
                assert 1 <= len(window) <= depcat.sampler._TALLY_POSITIONS
                entries = sum(row.nbytes for row in window.values())
                assert len(window) == 1 or entries <= depcat.sampler._TALLY_BUDGET
                assert not any(row.flags.writeable for row in window.values())

    def test_returned_counts_never_alias_the_held_tally(self):
        batch = sample_batch([0.5, 0.3, 0.2], 0.4, SEQ, 5, 1000, seed=3)
        first = empirical_marginals(batch, 2)
        expected = first.counts.copy()
        first.counts[:] = -1
        assert np.array_equal(empirical_marginals(batch, 2).counts, expected)
        assert first.counts.base is None

    @pytest.fixture
    def counted(self, monkeypatch):
        """The statistics of each `_counts` call, in call order."""
        calls = []
        counts = depcat.sampler._counts

        def spy(batch, statistics):
            calls.append(statistics)
            return counts(batch, statistics)

        monkeypatch.setattr(depcat.sampler, "_counts", spy)
        return calls

    def test_one_pass_counts_every_marginal_at_k64(self, counted):
        batch = sample_batch(np.full(64, 1 / 64), 0.6, SEQ, 64, 500, seed=7)
        for position in [64, *range(1, 65), 1]:  # first the window's last position
            empirical_marginals(batch, position)
        assert counted == [[(n,) for n in range(1, 65)]]

    @pytest.mark.parametrize("backwards", [False, True], ids=["forwards", "backwards"])
    @pytest.mark.parametrize("spec", [SEQ, FK, FSQRT, PRIME], ids=lambda spec: spec.kind)
    def test_edge_windows_are_counted_once_and_a_non_edge_evicts_none(
        self, counted, spec, backwards
    ):
        # At K = 64 a pair window holds 7 edges: 65^2 intp counts take
        # 33 800 bytes of the 256 KiB budget.  Backwards, each window is
        # entered from its last child.
        parents = build_tree(spec, 64).parents.tolist()
        batch = sample_batch(np.full(64, 1 / 64), 0.6, spec, 64, 500, seed=7)
        edges = list(enumerate(parents, start=2))
        expected, held = [], None
        for n, parent in reversed(edges) if backwards else edges:
            empirical_cross_covariance(batch, parent, n)
            first = (n - 1) // 7 * 7 + 1  # the window of child n: [first, first + 7)
            if first != held:
                children = range(max(first, 2), min(first + 7, 65))
                expected.append([(parents[c - 2], c) for c in children])
                held = first
            if n > 2:
                other = 1 if parent != 1 else n - 1  # not a tree edge
                empirical_cross_covariance(batch, other, n)
                expected.append([(other, n)])
        assert counted == expected

    def test_a_full_sweep_stays_bounded_and_its_tally_dies_with_the_batch(self):
        # The mc-chain shape.  The tally holds one window per arity, each
        # within the budget; one block's scratch is its intp codes, a pair's
        # bincount and numpy's cast buffer of 8192 intp entries.
        batch = sample_batch(np.full(64, 1 / 64), 0.6, SEQ, 64, 2**15, seed=7)
        tracemalloc.start()
        try:
            for position in range(1, 65):
                empirical_marginals(batch, position)
            for n in range(2, 65):
                empirical_cross_covariance(batch, n - 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = (BLOCK + 65**2 + 8192) * 8
        assert peak < 2 * depcat.sampler._TALLY_BUDGET + scratch
        tally = weakref.ref(batch._tally)
        del batch
        assert tally() is None
