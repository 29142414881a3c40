"""The prime-rank table and prime ranks against independent oracles (trial division, sympy)."""

import numpy as np
import pytest
import sympy

from depcat import DomainError, GeneratorSpec, evaluate
from depcat.primes import smallest_prime_factor_ranks

PRIME = GeneratorSpec.builtin("prime_partition")


def spf_by_trial_division(n):
    divisor = 2
    while divisor * divisor <= n:
        if n % divisor == 0:
            return divisor
        divisor += 1
    return n


def test_smallest_prime_factor_vs_trial_division():
    ranks = smallest_prime_factor_ranks(10_000)
    for n in range(2, 10_001):
        assert ranks[n] == sympy.primepi(spf_by_trial_division(n))


def test_sieve_matches_scalar_path():
    # each limit sieves afresh; a short table must be the prefix of a long one,
    # including limits that end on a square or just past one
    full = smallest_prime_factor_ranks(5000)
    assert full[0] == 0 and full[1] == 0
    for limit in [*range(2, 301), 4095, 4096, 4097, 4999, 5000]:
        assert np.array_equal(smallest_prime_factor_ranks(limit), full[: limit + 1])


def test_smallest_prime_factor_vs_sympy_spot():
    ranks = smallest_prime_factor_ranks(2**20)
    for n in (2, 97, 99991, 2**20, 3**11, 101 * 103, 999_983):
        assert ranks[n] == sympy.primepi(min(sympy.primefactors(n)))


def test_prime_index_vs_sympy():
    # the parent of a prime p is its rank
    for p in (2, 3, 5, 7, 97, 541, 7919):
        assert evaluate(PRIME, p) == sympy.primepi(p)


def test_nth_prime_round_trip():
    for rank in (1, 2, 10, 100, 1000):
        assert evaluate(PRIME, sympy.prime(rank)) == rank


def test_sieve_prime_detection():
    # a prime is the first n to take its rank: every earlier n has a smaller one
    ranks = smallest_prime_factor_ranks(1000)
    primes = [n for n in range(2, 1001) if ranks[n] > ranks[:n].max()]
    assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes) == sympy.primepi(1000)
    assert [ranks[p] for p in primes] == list(range(1, len(primes) + 1))


def test_sieve_limit_below_two_is_rejected():
    with pytest.raises(DomainError, match="^sieve limit must be >= 2, got 1$"):
        smallest_prime_factor_ranks(1)
