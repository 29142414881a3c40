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

import decimal
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .errors import AxiomViolationError, DomainError, as_integer, check_integer
from .primes import smallest_prime_factor_ranks

BUILTIN_KINDS = ("fk", "sequential", "floor_sqrt", "sin_drift", "prime_partition")
TABLE_KIND = "table"
ALL_KINDS = BUILTIN_KINDS + (TABLE_KIND,)
_MAX_INDEX = 2**53  # every index up to here is exact in float64
# sin_drift's float64 pass allows this many ulps of error in np.sin, more
# than any libm or numpy build claims.
_SIN_ULPS = 16
# sin_drift evaluates this many indices at a time: its float temporaries
# (32 KiB each) stay in cache and in the allocator's reused memory, where
# whole-range ones would page in afresh for every pass.
_SIN_BLOCK = 1 << 12
# Digits of the decimal re-evaluation of sin_drift.  Its reduction modulo
# 2*pi works with 20 more, which cover the up to 16 digits of n.
_SIN_DIGITS = 60
# pi to 100 significant digits, correctly rounded.  It is a fixed number, so
# it is written out rather than summed from a series at run time; the
# reduction modulo 2*pi reads the first _SIN_DIGITS + 20 = 80 of them.
_PI = decimal.Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "5820974944592307816406286208998628034825342117068"
)


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
            entries, keys = {}, {}
            for key, value in self.table.items():
                n = as_integer(key, "table key", 2)
                if keys.setdefault(n, key) != key:  # an earlier key names n too
                    raise DomainError(f"table keys {keys[n]!r} and {key!r} both name index {n}")
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
        if not isinstance(data, Mapping):
            raise DomainError(f"generator must be a JSON object, got {type(data).__name__}")
        if "kind" not in data:
            raise DomainError("generator object needs a 'kind' field")
        unknown = sorted(data.keys() - {"kind", "table"}, key=str)
        if unknown:
            raise DomainError(
                f"generator keys other than 'kind' and 'table': {', '.join(map(repr, unknown))}"
            )
        return cls(kind=data["kind"], table=data.get("table"))

    def to_dict(self) -> dict:
        if self.kind == TABLE_KIND:
            assert self.table is not None
            return {
                "kind": self.kind,
                "table": {str(n): self.table[n] for n in sorted(self.table)},
            }
        return {"kind": self.kind}


def _sin_drift(indices: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)/2 * sin(n) + n/2), exact, for each n of an int64 array.

    With u = 2**-53, the float64 value v is off by at most
    u * (n + (_SIN_ULPS + 3) * sqrt(n)) / 2 (to first order): the sqrt, the
    product and the sum each round by u relatively, and sin is off by
    _SIN_ULPS ulps of a number below 1, each at most u.  E(n) below is four
    times that bound, so it also covers the rounding of v - E and v + E.
    Only an n where floor(v - E) != floor(v + E) may have a floor other
    than floor(v); those are evaluated again in decimal.
    """
    x = indices.astype(np.float64)
    half_root = np.sqrt(x) / 2.0
    value = half_root * np.sin(x) + x / 2.0
    error = (x + (2 * _SIN_ULPS + 6) * half_root) * 2.0**-52
    parents = np.floor(value).astype(np.int64)
    for pos in np.flatnonzero(np.floor(value - error) != np.floor(value + error)).tolist():
        parents[pos] = _sin_drift_decimal(int(indices[pos]))
    return parents


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
        parents = np.empty_like(indices)
        for start in range(0, indices.size, _SIN_BLOCK):
            parents[start : start + _SIN_BLOCK] = _sin_drift(indices[start : start + _SIN_BLOCK])
        return parents
    if kind == "prime_partition":
        return smallest_prime_factor_ranks(int(indices.max(initial=2)))[indices]
    assert spec.table is not None
    return np.array([spec.table.get(n, 0) for n in indices.tolist()], dtype=np.int64)


def _sin_drift_decimal(n: int) -> int:
    """floor(sqrt(n)/2 * sin(n) + n/2) evaluated in _SIN_DIGITS-digit decimal.

    The argument is first reduced modulo 2*pi at _SIN_DIGITS + 20 digits
    (Payne and Hanek, 1983), then sin is summed by the `sin` recipe of the
    `decimal` documentation.
    """
    with decimal.localcontext() as context:
        context.prec = _SIN_DIGITS + 20
        index = decimal.Decimal(n)
        two_pi = 2 * _PI
        x = index - (index / two_pi).to_integral_value() * two_pi
        context.prec = _SIN_DIGITS + 2
        i, last, s, fact, num, sign = 1, 0, x, 1, x, 1
        while s != last:
            last = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
        context.prec = _SIN_DIGITS
        value = index.sqrt() / 2 * s + index / 2
        return int(value.to_integral_value(rounding=decimal.ROUND_FLOOR))


def evaluate(spec: GeneratorSpec, n: int) -> int:
    """Parent index alpha(n); outside {1..n-1} it raises `validate`'s reason for n.

    The domain is 2 <= n <= 2**53: every index up to there is exact in
    float64, which floor_sqrt and sin_drift evaluate in, and both give the
    exact parent on all of it.  sin_drift's float64 pass carries an error
    bound, and an n it cannot settle is evaluated again in decimal: none
    below 10**7, about 1 in 40 near 10**13 and nearly all near 2**53.
    prime_partition builds one int64 rank table up to n, so one call costs
    8 bytes per index.
    """
    index = np.array([check_integer(n, "index", 2, _MAX_INDEX)], dtype=np.int64)
    parent = _parents(spec, index)
    first = next(_violations(index, parent), None)
    if first is not None:
        raise AxiomViolationError(f"generator {spec.kind!r}: {first.reason}")
    return int(parent[0])


@dataclass(frozen=True)
class GeneratorViolation:
    """One index at which a generator breaks the class axioms."""

    index: int
    parent: int | None

    @property
    def reason(self) -> str:
        if self.parent is None:
            return f"n={self.index}: no table entry"
        return f"n={self.index}: alpha={self.parent} not in 1..{self.index - 1}"


def validate(spec: GeneratorSpec, max_index: int) -> tuple[GeneratorViolation, ...]:
    """A GeneratorViolation per n in {2..max_index}, ascending, where 1 <= alpha(n) <= n-1 fails.

    The range ends at 2**53 at most, the end of `evaluate`'s domain.
    Missing table entries and out-of-range parents are returned, not
    raised.  An empty tuple means the generator restricted to the range
    is a valid dependency generator.  The parents are evaluated once, by
    `_parents`, and `_violations` reads the violations from that array.
    """
    max_index = check_integer(max_index, "max_index", 2, _MAX_INDEX)
    indices = np.arange(2, max_index + 1, dtype=np.int64)
    return tuple(_violations(indices, _parents(spec, indices)))


def _violations(indices: np.ndarray, parents: np.ndarray) -> Iterator[GeneratorViolation]:
    """The axiom check: one GeneratorViolation per n, ascending, whose parent is not in 1..n-1."""
    for pos in np.flatnonzero((parents < 1) | (parents >= indices)).tolist():
        yield GeneratorViolation(int(indices[pos]), int(parents[pos]) or None)
