"""Prime-rank table backing the prime-partition generator.

Each call sieves afresh up to its limit; the module keeps no state.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import check_integer


def smallest_prime_factor_ranks(limit: int) -> np.ndarray:
    """Int64 table whose entry n is the rank of n's smallest prime factor.

    The r-th prime marks its unmarked multiples, from itself on, with r; the
    primes above isqrt(limit) take the next ranks in order.  0 and 1 read 0.
    """
    limit = check_integer(limit, "sieve limit", 2)
    ranks = np.zeros(limit + 1, dtype=np.int64)
    rank = 0
    for p in range(2, isqrt(limit) + 1):
        if ranks[p] == 0:
            rank += 1
            multiples = ranks[p::p]  # a view: writes land in ranks
            multiples[multiples == 0] = rank
    large_primes = np.flatnonzero(ranks == 0)[2:]  # past entries 0 and 1
    ranks[large_primes] = np.arange(rank + 1, rank + 1 + large_primes.size)
    return ranks
