"""Smallest-prime-factor sieve backing the prime-partition generator.

Each call sieves afresh up to its limit; the module keeps no state.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import DomainError


def smallest_prime_factor_sieve(limit: int) -> np.ndarray:
    """Vectorized SPF table: entry n holds the least prime factor of n.

    Entries 0 and 1 are set to 0.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    spf = np.zeros(limit + 1, dtype=np.int64)
    sieve_range = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]  # a view: writes land in spf
            multiples[multiples == 0] = p
    remaining = (spf == 0) & (sieve_range >= 2)
    spf[remaining] = sieve_range[remaining]
    return spf
