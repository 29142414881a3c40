"""Semantic exception hierarchy for depcat, and the input rules that raise `DomainError`.

Public functions raise these instead of bare ValueError so callers can
distinguish bad inputs from structural problems in a dependency spec.
Each class below `DepcatError` is one exit code of the CLI: a
`DomainError` is 2, an `AxiomViolationError` 3 and an
`EnumerationTooLargeError` 5.
"""

import functools
import json
import math
import numbers
import re

import numpy as np

_DECIMAL = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


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


def _read_entries(values, name: str, rule, dtype) -> np.ndarray:
    """`values` in its own shape as a `dtype` array, each entry read by `rule(entry, name)`.

    numpy cannot shape nested arrays of unequal shapes even as objects,
    so those are a DomainError naming `name` as well.
    """
    try:
        entries = np.array(values, dtype=object)
    except ValueError as exc:
        raise DomainError(f"{name}: nested entries of unequal shapes ({exc})") from None
    checked = [rule(value, name) for value in entries.flat]
    return np.array(checked, dtype=dtype).reshape(entries.shape)


def check_integers(values, name: str) -> np.ndarray:
    """`values` as an integer array, each entry by the rule of `check_integer`.

    An ndarray of integer dtype is returned as it is, with no per-entry
    pass.  Any other input (a list, a float or bool array) is read entry
    by entry, so 1.5, 2.0, True, "1" and an entry outside int64 are a
    DomainError naming `name`, and comes back as int64 in its own shape.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    int64 = functools.partial(check_integer, low=-(2**63), high=2**63 - 1)
    return _read_entries(values, name, int64, np.int64)


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


def as_real(value, name: str) -> float:
    """`value` as a float: a real number that is not a bool, or its plain decimal text.

    The rule for real arguments and settings.  So 0.4 and "0.4" read as
    0.4, and true, "abc", "1_0", " 1", "inf" and a list are a DomainError
    naming `name`, where float() would read true as 1.0 and "1_0" as 10.0.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        return float(value)
    raise DomainError(f"{name} must be a number, got {json.dumps(value, default=repr)}")


def check_reals(values, name: str) -> np.ndarray:
    """`values` as a float64 array, each entry by the rule of `as_real`.

    An ndarray of integer or float dtype is cast with no per-entry pass, so
    a float64 one comes back as it is.  Any other input (a list, a bool,
    string or object array) is read entry by entry, so true and "1_0" are a
    DomainError naming `name`, and comes back as float64 in its own shape.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(np.float64, copy=False)
    return _read_entries(values, name, as_real, np.float64)
