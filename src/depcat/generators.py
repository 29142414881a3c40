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
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import AxiomViolationError, DomainError
from .primes import smallest_prime_factor_ranks

BUILTIN_KINDS = ("fk", "sequential", "floor_sqrt", "sin_drift", "prime_partition")
TABLE_KIND = "table"
ALL_KINDS = BUILTIN_KINDS + (TABLE_KIND,)
_MAX_INDEX = 2**53  # every index up to here is exact in float64


def check_integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value` as an int if it is one (Python or numpy, not a bool), else a DomainError.

    The rule for integer arguments of the library, which int() would
    truncate (1.5) or read as 1 (True).  `low` and `high` are inclusive
    bounds, and a `high` comes with a `low`; a value outside them is a
    DomainError as well.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {json.dumps(value, default=repr)}")
    value = int(value)
    if high is not None and not low <= value <= high:
        raise DomainError(f"{name} {value} outside {low}..{high}")
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return value


def check_integers(values, name: str) -> np.ndarray:
    """`values` as an integer array, each entry by the rule of `check_integer`.

    An ndarray of integer dtype is returned as it is, with no per-entry
    pass.  Any other input (a list, a float or bool array) is read entry
    by entry, so 1.5, 2.0, True, "1" and an entry outside int64 are a
    DomainError naming `name`, and comes back as int64 in its own shape.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    entries = np.array(values, dtype=object)
    checked = [check_integer(value, name, -(2**63), 2**63 - 1) for value in entries.flat]
    return np.array(checked, dtype=np.int64).reshape(entries.shape)


def as_integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value` as an int in low..high, or a DomainError naming `name`.

    The rule for integer settings read from text or JSON: `check_integer`,
    plus integral floats and plain decimal strings with an optional sign,
    so 12.0 and "12" read as 12.  Rejects booleans, fractional floats and
    every other string, where int() would read "1_0" as 10.
    """
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    elif isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        value = int(value)
    return check_integer(value, name, low, high)


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
            if not isinstance(self.table, Mapping):
                raise DomainError(
                    "table generators require a table mapping index -> parent, "
                    f"got {type(self.table).__name__}"
                )
            entries = {}
            for key, value in self.table.items():
                n = as_integer(key, "table key", 2)
                entries[n] = as_integer(value, f"table parent of {n}", 1, _MAX_INDEX)
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
        return cls(kind=data["kind"], table=data.get("table"))

    def to_dict(self) -> dict:
        if self.kind == TABLE_KIND:
            assert self.table is not None
            return {
                "kind": self.kind,
                "table": {str(n): self.table[n] for n in sorted(self.table)},
            }
        return {"kind": self.kind}


def _parents(spec: GeneratorSpec, indices: np.ndarray) -> np.ndarray:
    """alpha(n) for each n >= 2 of an int64 array, without range checks.

    The one evaluator behind `evaluate`, `validate` and `build_tree`.
    A table's missing entries read 0, which no table can hold as a parent.
    """
    kind = spec.kind
    if kind == "fk":
        return np.ones_like(indices)
    if kind == "sequential":
        return indices - 1
    if kind == "floor_sqrt":
        # the sqrt of an exact n rounds correctly: never below isqrt(n), at most one above
        roots = np.sqrt(indices, dtype=np.float64).astype(np.int64)
        roots -= roots * roots > indices
        return roots
    if kind == "sin_drift":
        x = indices.astype(np.float64)
        return np.floor((np.sqrt(x) / 2.0) * np.sin(x) + x / 2.0).astype(np.int64)
    if kind == "prime_partition":
        return smallest_prime_factor_ranks(int(indices.max()))[indices]
    assert spec.table is not None
    return np.array([spec.table.get(n, 0) for n in indices.tolist()], dtype=np.int64)


def evaluate(spec: GeneratorSpec, n: int) -> int:
    """Parent index alpha(n), checked to lie in {1..n-1}.

    The domain is 2 <= n <= 2**53: every index up to there is exact in
    float64, which floor_sqrt and sin_drift evaluate in.  prime_partition
    builds one int64 rank table up to n, so one call costs 8 bytes per index.
    """
    n = check_integer(n, "index", 2, _MAX_INDEX)
    parent = int(_parents(spec, np.array([n], dtype=np.int64))[0])
    if parent == 0:
        raise AxiomViolationError(f"table generator has no entry for n = {n}")
    if not 1 <= parent <= n - 1:
        raise AxiomViolationError(
            f"generator {spec.kind!r} maps {n} to {parent}, outside 1..{n - 1}"
        )
    return parent


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
    is a valid dependency generator.  The parents are evaluated once, by
    `_parents`, and the report is read from that array; a missing table
    entry reads 0.
    """
    max_index = check_integer(max_index, "max_index", 2)
    indices = np.arange(2, max_index + 1, dtype=np.int64)
    parents = _parents(spec, indices)
    violations = []
    for pos in np.flatnonzero((parents < 1) | (parents >= indices)):
        n, parent = int(indices[pos]), int(parents[pos])
        if parent == 0:
            violations.append(GeneratorViolation(n, None, f"n={n}: no table entry"))
        else:
            violations.append(
                GeneratorViolation(n, parent, f"n={n}: alpha={parent} not in 1..{n - 1}")
            )
    return ValidationReport(spec.kind, max_index, tuple(violations))
