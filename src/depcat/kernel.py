"""Base probability objects and the one-step conditional weighting.

Every dependency structure in this package reuses the same conditioning
rule: given that the parent draw landed on category i, the child's
probability of i is pulled up to ``p_i + delta*(1 - p_i)`` and the
probability of any other category j is pushed down to ``p_j*(1 - delta)``.
The coefficient delta in [0, 1] interpolates between independence (0) and
deterministic copying of the parent outcome (1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, as_real, check_reals

# Construction guard for user-supplied probability vectors.  Vectors whose
# sum strays further than this are rejected; an accepted vector whose sum is
# off by more than rounding (K * 2^-52) is divided by its sum, so every route
# reads one distribution summing to 1 within K * 2^-53.  The three
# tolerances of the package then each bound a different error:
# - MARGINAL_SUM_TOL (1e-9) bounds the caller's input, which no later
#   result sees once it is divided out;
# - exact.EXACT_TOL (1e-10) bounds the rounding by which the exact routes
#   and the closed form may disagree on such a vector, so `verify` can be
#   tighter than the input rule;
# - CrossCovariance's 1e-8 bound on row and column sums is a shape check on
#   any matrix, empirical ones included, far above the rounding of either.
MARGINAL_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Marginal:
    """Base category distribution: K >= 2 probabilities (numbers or decimal text) summing to 1.

    A sum within MARGINAL_SUM_TOL of 1 is accepted, and `probs` is the input
    divided by its sum when that sum is off by more than K * 2^-52.  The
    divided vector sums to 1 within K * 2^-53, so it is kept as it is when
    read again (from a batch's metadata, say).
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = check_reals(self.probs, "marginal probability").copy()  # never the caller's
        if probs.ndim != 1:
            raise DomainError("marginal probabilities must be a 1-D vector")
        if probs.size < 2:
            raise DomainError(
                f"at least 2 categories required, got {probs.size}"
            )
        if not np.all(np.isfinite(probs)):
            raise DomainError("marginal probabilities must be finite")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise DomainError("marginal probabilities must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > MARGINAL_SUM_TOL:
            raise DomainError(
                f"marginal probabilities sum to {total!r}; expected 1 within "
                f"{MARGINAL_SUM_TOL:g} (renormalize explicitly if intended)"
            )
        if abs(total - 1.0) > probs.size * 2.0**-52:
            probs = probs / total
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def num_categories(self) -> int:
        return int(self.probs.size)


MarginalLike = Union[Marginal, Sequence[float], np.ndarray]
DeltaLike = Union[float, int]


def as_marginal(p: MarginalLike) -> Marginal:
    return p if isinstance(p, Marginal) else Marginal(p)


def as_delta(delta: DeltaLike) -> float:
    """The dependence strength delta in [0, 1]: 0 = independent, 1 = copy the parent."""
    value = as_real(delta, "dependency coefficient")
    if not 0.0 <= value <= 1.0:  # NaN too
        raise DomainError(f"dependency coefficient must lie in [0, 1], got {delta!r}")
    return value


def transition_kernel(p: MarginalLike, delta: DeltaLike) -> np.ndarray:
    """One-step conditional kernel, a read-only K x K array.

    Row i is the distribution of the child given the parent landed on
    category i + 1: entry (i, i) is the repeat probability
    ``p[i] + delta*(1 - p[i])``, entry (i, j) with j != i the switch
    probability ``p[j]*(1 - delta)`` of category j + 1.  With delta = 0
    every row equals p (independence); with delta = 1 the kernel is the
    identity (the child copies the parent).  Algebraically the result
    equals ``(1 - delta) * ones @ p + delta * I`` -- that identity is
    exercised by the test suite as an independent check, not used here.
    A valid p and delta make the rows stochastic, so the kernel is not
    checked again.
    """
    marginal = as_marginal(p)
    switch, repeat = _kernel_parts(marginal, as_delta(delta))
    matrix = np.tile(switch, (marginal.num_categories, 1))
    np.fill_diagonal(matrix, repeat)
    matrix.flags.writeable = False
    return matrix


def _kernel_parts(marginal: Marginal, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's two formulas: the switch row p (1 - delta) and the repeat diagonal.

    Kernel row i is the switch row with entry i replaced by the repeat
    probability p[i] + delta (1 - p[i]); `transition_kernel` and the
    sampler's draw table both build their rows from these two vectors.
    """
    probs = marginal.probs
    return probs * (1.0 - delta), probs + delta * (1.0 - probs)
