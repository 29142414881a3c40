"""The kernel algebra that `verify` compares against, checked symbolically.

With P the one-step kernel for base p and coefficient delta:

- diag(p) P is symmetric (P is reversible for p);
- P^d = delta^d I + (1 - delta^d) 1 p^T;
- (P^a)^T diag(p) P^b = diag(p) P^(a+b), the pair joint factored at a
  lowest common ancestor with marginal p, so the covariance at tree
  distance d = a + b is delta^d (diag p - p p^T).

Symbols stand for delta and p_1 .. p_(K-1); p_K = 1 - p_1 - ... - p_(K-1).
"""

import numpy as np
import pytest
import sympy

from depcat import transition_kernel

MAX_POWER = 4


def symbolic_kernel(k):
    """delta, p and P with P built entry by entry from the repeat/switch rule."""
    delta = sympy.Symbol("delta")
    free = sympy.symbols(f"p1:{k}")
    p = sympy.Matrix([*free, 1 - sum(free)])
    kernel = sympy.Matrix(
        k, k, lambda i, j: p[j] + delta * (1 - p[j]) if i == j else p[j] * (1 - delta)
    )
    return delta, p, kernel


def is_zero(matrix):
    return matrix.applyfunc(sympy.expand) == sympy.zeros(*matrix.shape)


@pytest.fixture(params=[2, 3], ids=["k2", "k3"], scope="module")
def algebra(request):
    return symbolic_kernel(request.param)


def test_symbolic_kernel_is_the_library_kernel(algebra):
    delta, p, kernel = algebra
    values = {delta: sympy.Rational(3, 10)}
    values.update(zip(p[:-1], [sympy.Rational(1, 2), sympy.Rational(3, 10)]))
    numeric = np.array(kernel.subs(values), dtype=np.float64)
    probs = np.array(p.subs(values), dtype=np.float64).ravel()
    assert np.max(np.abs(numeric - transition_kernel(probs, 0.3))) <= 1e-15


def test_reversible_for_p(algebra):
    _, p, kernel = algebra
    flow = sympy.diag(*p) * kernel
    assert is_zero(flow - flow.T)


def test_power_identity(algebra):
    delta, p, kernel = algebra
    k = p.rows
    ones_p = sympy.ones(k, 1) * p.T
    power = sympy.eye(k)
    for d in range(MAX_POWER + 1):
        assert is_zero(power - (delta**d * sympy.eye(k) + (1 - delta**d) * ones_p)), d
        power = (power * kernel).applyfunc(sympy.expand)


def test_lowest_common_ancestor_product(algebra):
    _, p, kernel = algebra
    k = p.rows
    powers = [sympy.eye(k)]
    for _ in range(MAX_POWER):
        powers.append((powers[-1] * kernel).applyfunc(sympy.expand))
    base = sympy.diag(*p)
    for a in range(MAX_POWER + 1):
        for b in range(MAX_POWER + 1 - a):
            assert is_zero(powers[a].T * base * powers[b] - base * powers[a + b]), (a, b)
