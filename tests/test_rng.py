"""Counter-based variates against a scalar reference implementation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from depcat.errors import DomainError
from depcat.rng import ALGORITHM_ID, stream_keys, uniform_grid

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_mix(z):
    """Scalar SplitMix64 finalizer in plain Python integers."""
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return (z ^ (z >> 31)) & MASK


def reference_uniform(seed, index, position):
    key = reference_mix((seed + GOLDEN * (index + 1)) & MASK)
    word = reference_mix((key + GOLDEN * (position + 1)) & MASK)
    return ((word >> 11) + 1) * 2.0**-53


def test_algorithm_identifier():
    assert ALGORITHM_ID == "splitmix64-2level"


def test_stream_keys_match_reference():
    keys = stream_keys(12345, 0, 20)
    for index in range(20):
        assert int(keys[index]) == reference_mix(12345 + GOLDEN * (index + 1))


def test_keys_and_grid_reach_the_last_index():
    # first_index + count may be 2**64, the end of the uint64 counters
    first = 2**64 - 3
    keys = stream_keys(12345, first, 3)
    grid = uniform_grid(12345, first, 3, 2)
    for row in range(3):
        assert int(keys[row]) == reference_mix(12345 + GOLDEN * (first + row + 1))
        for col in range(2):
            assert grid[row, col] == reference_uniform(12345, first + row, col)
    with pytest.raises(DomainError, match=f"^first_index {first + 1} outside 0..{first}$"):
        stream_keys(12345, first + 1, 3)


def test_wrapping_arithmetic_warns_nothing():
    # numpy warns on integer overflow in scalar arithmetic only; the mix is on arrays
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys = stream_keys(2**64 - 1, 2**64 - 5, 5)
        grid = uniform_grid(-1, 2**64 - 7, 7, 40, 3)
    assert int(keys[4]) == reference_mix(2**64 - 1 + GOLDEN * 2**64)
    assert grid[6, 39] == reference_uniform(2**64 - 1, 2**64 - 1, 42)


def test_stream_keys_mix_in_a_given_scratch():
    scratch = np.empty(20, dtype=np.uint64)
    assert np.array_equal(stream_keys(12345, 3, 20, scratch=scratch), stream_keys(12345, 3, 20))
    for bad in (scratch[:19], scratch.view(np.int64), [0] * 20):
        with pytest.raises(DomainError):
            stream_keys(12345, 3, 20, scratch=bad)


def test_grid_matches_reference():
    grid = uniform_grid(987654321, 3, 5, 7)
    for row in range(5):
        for col in range(7):
            assert grid[row, col] == reference_uniform(987654321, 3 + row, col)


def test_grid_values_in_half_open_interval():
    grid = uniform_grid(0, 0, 1000, 8)
    assert np.all(grid > 0.0)
    assert np.all(grid <= 1.0)


def test_chunks_reproduce_full_grid():
    full = uniform_grid(42, 0, 100, 4)
    parts = np.vstack(
        [uniform_grid(42, start, 25, 4) for start in (0, 25, 50, 75)]
    )
    assert np.array_equal(full, parts)


def test_determinism_and_seed_sensitivity():
    a = uniform_grid(7, 0, 50, 3)
    b = uniform_grid(7, 0, 50, 3)
    c = uniform_grid(8, 0, 50, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_seed_wraps_mod_2_64():
    assert np.array_equal(uniform_grid(-1, 0, 4, 4), uniform_grid(MASK, 0, 4, 4))


def test_moments_are_plausible():
    grid = uniform_grid(2024, 0, 200_000, 1).ravel()
    assert grid.mean() == pytest.approx(0.5, abs=0.005)
    assert grid.var() == pytest.approx(1.0 / 12.0, abs=0.002)


def test_rejects_bad_arguments():
    with pytest.raises(DomainError):
        uniform_grid(1, -1, 10, 3)
    with pytest.raises(DomainError):
        uniform_grid(1, 0, 10, 0)
    with pytest.raises(DomainError):
        uniform_grid(1.5, 0, 10, 3)


def test_position_chunks_reproduce_full_grid():
    full = uniform_grid(42, 5, 30, 9)
    parts = np.hstack(
        [uniform_grid(42, 5, 30, width, first) for first, width in ((0, 4), (4, 4), (8, 1))]
    )
    assert np.array_equal(full, parts)
    assert uniform_grid(987654321, 3, 5, 2, 6)[4, 1] == reference_uniform(987654321, 7, 7)


def test_each_position_is_contiguous():
    grid = uniform_grid(3, 0, 50, 6)
    assert all(grid[:, c].flags.c_contiguous for c in range(6))


def test_rejects_negative_first_position():
    with pytest.raises(DomainError):
        uniform_grid(1, 0, 10, 3, -1)


def filled_mantissas(seed, first_index, count, width, first_position):
    out = np.empty((width, count), dtype=np.uint64)
    keys = stream_keys(seed, first_index, count)
    return uniform_grid(
        seed, first_index, count, width, first_position,
        keys=keys, mantissas=out, scratch=np.empty_like(out),
    )


@pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 987654321])
@pytest.mark.parametrize("first_index", [0, 2**63 - 3, 2**63 + 11])
@pytest.mark.parametrize("first_position", [0, 5])
def test_mantissas_scaled_are_the_uniform_grid(seed, first_index, first_position):
    mantissas = filled_mantissas(seed, first_index, 40, 6, first_position)
    assert mantissas.min() >= 1 and mantissas.max() <= 2**53
    grid = uniform_grid(seed, first_index, 40, 6, first_position)
    assert np.array_equal(mantissas.T * 2.0**-53, grid)  # bit for bit
    for row, col in ((0, 0), (39, 5), (17, 2)):
        expected = reference_uniform(seed & MASK, first_index + row, first_position + col)
        assert int(mantissas[col, row]) * 2.0**-53 == expected


def test_mantissa_form_allocates_nothing():
    keys = stream_keys(3, 0, 1 << 12)
    out = np.empty((4, keys.size), dtype=np.uint64)
    scratch = np.empty_like(out)
    uniform_grid(3, 0, keys.size, 4, keys=keys, mantissas=out, scratch=scratch)
    tracemalloc.start()
    try:
        uniform_grid(3, 0, keys.size, 4, 7, keys=keys, mantissas=out, scratch=scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096  # the buffers are 128 KiB each
    assert np.array_equal(out, filled_mantissas(3, 0, keys.size, 4, 7))


def test_mantissa_form_rejects_bad_buffers():
    keys = stream_keys(1, 0, 8)
    good = np.empty((2, 8), dtype=np.uint64)
    both = np.empty((2, 2, 8), dtype=np.uint64)
    for out, scratch in [
        (np.empty((2, 8), dtype=np.int64), good),
        (good, np.empty((2, 7), dtype=np.uint64)),
        (np.empty((8, 2), dtype=np.uint64).T, good),
        (good, np.empty((3, 8), dtype=np.uint64)),
        (good, None),
        (good, good),  # the mix would xor each word with itself
        (both[0], both.reshape(4, 8)[1:3]),  # overlapping views of one buffer
    ]:
        with pytest.raises(DomainError):
            uniform_grid(1, 0, 8, 2, keys=keys, mantissas=out, scratch=scratch)
    with pytest.raises(DomainError):  # keys inside the output
        uniform_grid(1, 0, 8, 2, keys=good[1], mantissas=good, scratch=np.empty_like(good))
    for bad_keys in (keys[:7], None):
        with pytest.raises(DomainError):
            uniform_grid(1, 0, 8, 2, keys=bad_keys, mantissas=good, scratch=np.empty_like(good))
    with pytest.raises(DomainError):  # keys alone do not make the in-place form
        uniform_grid(1, 0, 8, 2, keys=keys)
    with pytest.raises(DomainError):
        uniform_grid(1, 0, 8, 2, -1, keys=keys, mantissas=good, scratch=np.empty_like(good))
    # Distinct halves of one buffer do not overlap and are accepted.
    uniform_grid(1, 0, 8, 2, keys=keys, mantissas=both[0], scratch=both[1])
    assert np.array_equal(both[0], filled_mantissas(1, 0, 8, 2, 0))
