"""Dependency generators: maps assigning each sequence index its parent.

A generator alpha sends every index n >= 2 to some earlier index
alpha(n) in {1..n-1}; the draw at n is conditioned on the draw at
alpha(n).  Builtin generators:

    fk               alpha(n) = 1            (every draw conditions on the first)
    sequential       alpha(n) = n - 1        (each draw conditions on its predecessor)
    floor_sqrt       alpha(n) = isqrt(n)
    sin_drift        alpha(n) = floor(sqrt(n)/2 * sin(n) + n/2)   (radians)
    prime_partition  alpha(n) = rank of the smallest prime factor of n
    table            alpha given explicitly as a finite map

``table`` specs may encode invalid maps; ``validate`` reports range
violations as data while ``evaluate`` raises on them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import AxiomViolationError, DomainError, IncompleteGeneratorError
from .primes import prime_index, smallest_prime_factor, smallest_prime_factor_sieve

BUILTIN_KINDS = ("fk", "sequential", "floor_sqrt", "sin_drift", "prime_partition")
TABLE_KIND = "table"
ALL_KINDS = BUILTIN_KINDS + (TABLE_KIND,)


@dataclass(frozen=True)
class GeneratorSpec:
    """A named builtin generator, or an explicit index -> parent table."""

    kind: str
    table: Mapping[int, int] | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise DomainError(
                f"unknown generator kind {self.kind!r}; expected one of {ALL_KINDS}"
            )
        if self.kind == TABLE_KIND:
            if self.table is None:
                raise DomainError("table generators require a table mapping")
            entries = {}
            for key, value in self.table.items():
                n = int(key)
                parent = int(value)
                if n < 2:
                    raise DomainError(f"table keys must be indices >= 2, got {key!r}")
                if parent < 1:
                    raise DomainError(f"table parents must be >= 1, got {value!r}")
                entries[n] = parent
            object.__setattr__(self, "table", MappingProxyType(entries))
        elif self.table is not None:
            raise DomainError(f"generator kind {self.kind!r} does not take a table")

    @classmethod
    def builtin(cls, kind: str) -> "GeneratorSpec":
        if kind not in BUILTIN_KINDS:
            raise DomainError(
                f"unknown builtin generator {kind!r}; expected one of {BUILTIN_KINDS}"
            )
        return cls(kind=kind)

    @classmethod
    def from_table(cls, table: Mapping[int, int]) -> "GeneratorSpec":
        return cls(kind=TABLE_KIND, table=table)

    @classmethod
    def from_dict(cls, data: Mapping) -> "GeneratorSpec":
        if "kind" not in data:
            raise DomainError("generator object needs a 'kind' field")
        kind = data["kind"]
        table = data.get("table")
        if kind == TABLE_KIND:
            if table is None:
                raise DomainError("table generators require a 'table' field")
            return cls.from_table({int(k): int(v) for k, v in table.items()})
        if table is not None:
            raise DomainError(f"generator kind {kind!r} does not take a table")
        return cls.builtin(kind)

    def to_dict(self) -> dict:
        if self.kind == TABLE_KIND:
            assert self.table is not None
            return {
                "kind": self.kind,
                "table": {str(n): self.table[n] for n in sorted(self.table)},
            }
        return {"kind": self.kind}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid generator JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DomainError("generator JSON must be an object")
        return cls.from_dict(data)


def prime_partition(n: int) -> int:
    """Parent index for the prime-partition generator.

    Positive integers split into disjoint blocks: block m holds the
    multiples of the m-th prime not divisible by any smaller prime, i.e.
    the integers whose smallest prime factor is the m-th prime.  The
    parent of n is its block number m.
    """
    if n < 2:
        raise DomainError(f"generator domain starts at n = 2, got {n}")
    return prime_index(smallest_prime_factor(n))


def _raw_parent(spec: GeneratorSpec, n: int) -> int:
    """alpha(n) without the range check; table misses still raise."""
    kind = spec.kind
    if kind == "fk":
        return 1
    if kind == "sequential":
        return n - 1
    if kind == "floor_sqrt":
        return math.isqrt(n)
    if kind == "sin_drift":
        return math.floor((math.sqrt(n) / 2.0) * math.sin(n) + n / 2.0)
    if kind == "prime_partition":
        return prime_partition(n)
    assert spec.table is not None
    try:
        return spec.table[n]
    except KeyError:
        raise IncompleteGeneratorError(
            f"table generator has no entry for n = {n}"
        ) from None


def evaluate(spec: GeneratorSpec, n: int) -> int:
    """Parent index alpha(n), checked to lie in {1..n-1}."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"index must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise DomainError(f"generator domain starts at n = 2, got {n}")
    parent = _raw_parent(spec, n)
    if not 1 <= parent <= n - 1:
        raise AxiomViolationError(
            f"generator {spec.kind!r} maps {n} to {parent}, outside 1..{n - 1}"
        )
    return parent


def parent_indices(spec: GeneratorSpec, max_index: int) -> np.ndarray:
    """Vectorized alpha(n) for n = 2..max_index, without range checks.

    Entry i holds the raw parent of index i + 2.  Matches evaluate()
    entrywise wherever evaluate() does not raise.
    """
    if max_index < 2:
        raise DomainError(f"max_index must be >= 2, got {max_index}")
    indices = np.arange(2, max_index + 1, dtype=np.int64)
    kind = spec.kind
    if kind == "fk":
        return np.ones_like(indices)
    if kind == "sequential":
        return indices - 1
    if kind == "floor_sqrt":
        roots = np.floor(np.sqrt(indices.astype(np.float64))).astype(np.int64)
        # repair the off-by-one that float sqrt can introduce near squares
        roots = np.where((roots + 1) * (roots + 1) <= indices, roots + 1, roots)
        roots = np.where(roots * roots > indices, roots - 1, roots)
        return roots
    if kind == "sin_drift":
        x = indices.astype(np.float64)
        return np.floor((np.sqrt(x) / 2.0) * np.sin(x) + x / 2.0).astype(np.int64)
    if kind == "prime_partition":
        sieve = smallest_prime_factor_sieve(max_index)
        values = np.arange(max_index + 1, dtype=np.int64)
        primes = np.flatnonzero((sieve == values) & (values >= 2))
        return np.searchsorted(primes, sieve[indices]) + 1
    assert spec.table is not None
    parents = np.empty(indices.size, dtype=np.int64)
    for offset, n in enumerate(range(2, max_index + 1)):
        if n not in spec.table:
            raise IncompleteGeneratorError(f"table generator has no entry for n = {n}")
        parents[offset] = spec.table[n]
    return parents


@dataclass(frozen=True)
class GeneratorViolation:
    """One index at which a generator breaks the class axioms."""

    index: int
    parent: int | None
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    """Axiom check over a finite index range; violations are data."""

    kind: str
    max_index: int
    violations: tuple[GeneratorViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(spec: GeneratorSpec, max_index: int) -> ValidationReport:
    """Check 1 <= alpha(n) <= n-1 for every n in {2..max_index}.

    Missing table entries and out-of-range parents are reported, not
    raised.  An empty report means the generator restricted to the range
    is a valid dependency generator.
    """
    return _validated_parents(spec, max_index)[0]


def _validated_parents(
    spec: GeneratorSpec, max_index: int
) -> tuple[ValidationReport, np.ndarray | None]:
    """The `validate` report, and alpha(n) for n = 2..max_index if it is empty.

    A builtin's parents are evaluated once, by `parent_indices`, and the
    report is read from that array; a table is checked entry by entry.
    """
    if max_index < 2:
        raise DomainError(f"max_index must be >= 2, got {max_index}")
    violations: list[GeneratorViolation] = []
    if spec.kind == TABLE_KIND:
        assert spec.table is not None
        parents = []
        for n in range(2, max_index + 1):
            if n not in spec.table:
                violations.append(
                    GeneratorViolation(n, None, f"n={n}: no table entry")
                )
                continue
            parent = spec.table[n]
            parents.append(parent)
            if not 1 <= parent <= n - 1:
                violations.append(
                    GeneratorViolation(
                        n, parent, f"n={n}: alpha={parent} not in 1..{n - 1}"
                    )
                )
    else:
        parents = parent_indices(spec, max_index)
        indices = np.arange(2, max_index + 1, dtype=np.int64)
        bad = np.flatnonzero((parents < 1) | (parents > indices - 1))
        for pos in bad:
            n = int(indices[pos])
            parent = int(parents[pos])
            violations.append(
                GeneratorViolation(n, parent, f"n={n}: alpha={parent} not in 1..{n - 1}")
            )
    report = ValidationReport(spec.kind, max_index, tuple(violations))
    return report, np.asarray(parents, dtype=np.int64) if report.ok else None
