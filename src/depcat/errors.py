"""Semantic exception hierarchy for depcat.

Public functions raise these instead of bare ValueError so callers can
distinguish bad inputs from structural problems in a dependency spec.
Each class below `DepcatError` is one exit code of the CLI: a
`DomainError` is 2, an `AxiomViolationError` 3 and an
`EnumerationTooLargeError` 5.
"""

import math


class DepcatError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DepcatError, ValueError):
    """An argument lies outside the documented domain (index, length, probability)."""


class AxiomViolationError(DepcatError):
    """A generator gave no parent, or one outside {1..n-1}, breaking the class axioms."""


class EnumerationTooLargeError(DepcatError):
    """The K**N outcome space exceeds the configured enumeration cap."""

    def __init__(self, num_categories: int, length: int, cap: int):
        self.cap = cap
        # K**N in decimal only while it is short: at K = 3, N = 10**4 it is
        # past the interpreter's int-to-str digit limit.
        size = f"{num_categories}**{length}"
        if length * math.log10(num_categories) < 19:
            size += f" = {num_categories**length}"
        super().__init__(
            f"sample space has {size} outcomes, exceeding the enumeration cap of {cap}"
        )
