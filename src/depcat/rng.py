"""Counter-based uniform variates with two-level key splitting.

Each variate is a pure function of (seed, sequence index, position): the
64-bit seed is split into one stream key per sequence index, and each
stream key is split into one word per position.  Both splits use the
SplitMix64 construction -- add the golden-gamma increment, then apply the
three-round xor-shift/multiply finalizer -- so any sub-grid of variates
can be generated independently, in any order, on any number of workers,
with identical results.

A word maps to the 53-bit integer mantissa m = (word >> 11) + 1 in
1..2^53, and m to the float u = m * 2^-53 in the half-open-from-below
interval (0, 1]; the open left end keeps zero-probability categories
unreachable under right-closed inverse-CDF bucketing.  `uniform_grid`
returns the floats, or, given caller-owned buffers, writes the mantissas
in place and allocates nothing; a caller that fills one block of rows a
group of positions at a time passes the block's `stream_keys` as well, so
they are mixed once.  The float grid is the mantissa grid times 2^-53, an
exact scaling.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_integer

ALGORITHM_ID = "splitmix64-2level"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_ONE = np.uint64(1)
# A word's top _MANTISSA_BITS bits plus one are its mantissa m in 1..2^53; u = m * _UNIT.
_MANTISSA_BITS = 53
_UNIT = 2.0**-_MANTISSA_BITS
_DROPPED = np.uint64(64 - _MANTISSA_BITS)

_U64_MASK = (1 << 64) - 1
# Sequence indices are the uint64 counters 0 .. 2^64 - 1.
_INDEX_LIMIT = 1 << 64


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place (modular arithmetic).

    `scratch` has the shape of `z` and holds the shifted words, so the mix
    allocates nothing.
    """
    np.right_shift(z, _S30, out=scratch)
    z ^= scratch
    z *= _MULT1
    np.right_shift(z, _S27, out=scratch)
    z ^= scratch
    z *= _MULT2
    np.right_shift(z, _S31, out=scratch)
    z ^= scratch
    return z


def _check_array_size(count: int, length: int = 1) -> None:
    """A DomainError unless `count` rows of `length` uint64 entries fit in one array."""
    limit = np.iinfo(np.intp).max // 8
    if count * length > limit:
        raise DomainError(f"count {count} of length {length} is over {limit} array entries")


def stream_keys(seed: int, first_index: int, count: int) -> np.ndarray:
    """One derived key per sequence index in [first_index, first_index+count).

    The indices are uint64 counters, so first_index + count is at most
    2^64.
    """
    count = check_integer(count, "count", 0, _INDEX_LIMIT)
    first_index = check_integer(first_index, "first_index", 0, _INDEX_LIMIT - count)
    _check_array_size(count)
    keys = np.arange(first_index, first_index + count, dtype=np.uint64)
    keys += _ONE
    keys *= _GOLDEN
    keys += np.uint64(check_integer(seed, "seed") & _U64_MASK)
    return _mix64(keys, np.empty_like(keys))


def _fill_mantissas(
    keys: np.ndarray, first_position: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Entry [i, r] of `out` becomes the mantissa of (keys[r], first_position + i)."""
    for offset, row in enumerate(out, start=first_position + 1):
        np.add(keys, np.uint64(int(_GOLDEN) * offset & _U64_MASK), out=row)
    _mix64(out, scratch)
    out >>= _DROPPED
    out += _ONE
    return out


def uniform_grid(
    seed: int,
    first_index: int,
    count: int,
    length: int,
    first_position: int = 0,
    *,
    keys: np.ndarray | None = None,
    mantissas: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(count, length) array of floats in (0, 1], one per (index, position).

    Entry [r, c] depends only on (seed, first_index + r, first_position + c),
    so generating a batch in chunks of rows or of positions reproduces the
    corresponding entries of the full grid.  The grid is laid out
    position-major (the transpose of a C-ordered (length, count) array), so
    the entries of one position are contiguous.

    Given `keys`, which must be `stream_keys(seed, first_index, count)`, and
    `mantissas` and `scratch`, distinct C-contiguous uint64 arrays of shape
    (length, count), the grid is written into `mantissas` in integer form
    instead: entry [c, r] is the m in 1..2^53 whose uniform m * 2^-53 is
    entry [r, c] of the float grid.  `mantissas` is returned, `scratch` is
    overwritten, and nothing is allocated; a caller that fills one block of
    rows a group of positions at a time mixes the block's keys only once.
    `seed` and `first_index` are read by the integer rule in both forms,
    though the integer form takes its keys as given.
    """
    count = check_integer(count, "count", 0, _INDEX_LIMIT)
    check_integer(first_index, "first_index", 0, _INDEX_LIMIT - count)
    check_integer(seed, "seed")
    length = check_integer(length, "length", 1)
    first_position = check_integer(first_position, "first_position", 0)
    _check_array_size(count, length)
    if keys is None and mantissas is None and scratch is None:
        keys = stream_keys(seed, first_index, count)
        words = np.empty((length, count), dtype=np.uint64)
        return (_fill_mantissas(keys, first_position, words, np.empty_like(words)) * _UNIT).T
    if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint64 and keys.shape == (count,)):
        raise DomainError(f"keys must be a uint64 array of {count} stream keys")
    for buffer in (mantissas, scratch):
        if not (
            isinstance(buffer, np.ndarray)
            and buffer.dtype == np.uint64
            and buffer.flags.c_contiguous
            and buffer.shape == (length, count)
        ):
            raise DomainError("mantissas and scratch must be C-contiguous uint64 (length, count)")
    # An overlap would let the mix read words it has already overwritten.
    if np.shares_memory(mantissas, scratch) or np.shares_memory(mantissas, keys):
        raise DomainError("mantissas must not overlap scratch or keys")
    return _fill_mantissas(keys, first_position, mantissas, scratch)
