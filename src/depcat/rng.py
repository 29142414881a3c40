"""Counter-based uniform variates with two-level key splitting.

Each variate is a pure function of (seed, sequence index, position): the
64-bit seed is split into one stream key per sequence index, and each
stream key is split into one word per position.  Both splits use the
SplitMix64 construction -- add the golden-gamma increment, then apply the
three-round xor-shift/multiply finalizer -- so any sub-grid of variates
can be generated independently, in any order, on any number of workers,
with identical results.

Words map to floats in the half-open-from-below interval (0, 1]; the open
left end keeps zero-probability categories unreachable under right-closed
inverse-CDF bucketing.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

ALGORITHM_ID = "splitmix64-2level"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_UNIT = 2.0**-53

_U64_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place (modular arithmetic)."""
    with np.errstate(over="ignore"):
        z ^= z >> _S30
        z *= _MULT1
        z ^= z >> _S27
        z *= _MULT2
        z ^= z >> _S31
    return z


def _as_seed(seed: int) -> np.uint64:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    return np.uint64(int(seed) & _U64_MASK)


def stream_keys(seed: int, first_index: int, count: int) -> np.ndarray:
    """One derived key per sequence index in [first_index, first_index+count)."""
    if first_index < 0 or count < 0:
        raise DomainError("first_index and count must be nonnegative")
    keys = np.arange(first_index, first_index + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys += _ONE
        keys *= _GOLDEN
        keys += _as_seed(seed)
    return _mix64(keys)


def uniform_grid(
    seed: int, first_index: int, count: int, length: int, first_position: int = 0
) -> np.ndarray:
    """(count, length) array of floats in (0, 1], one per (index, position).

    Entry [r, c] depends only on (seed, first_index + r, first_position + c),
    so generating a batch in chunks of rows or of positions reproduces the
    corresponding entries of the full grid.  The grid is laid out
    position-major (the transpose of a C-ordered (length, count) array), so
    the entries of one position are contiguous.
    """
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    if first_position < 0:
        raise DomainError(f"first_position must be >= 0, got {first_position}")
    keys = stream_keys(seed, first_index, count)
    positions = np.arange(first_position, first_position + length, dtype=np.uint64)
    with np.errstate(over="ignore"):
        words = _mix64(keys[None, :] + _GOLDEN * (positions[:, None] + _ONE))
    words >>= _S11
    words += _ONE
    return (words * _UNIT).T
