"""Generator catalog: parent values, axiom validation, serialization."""

import json
import math
import random
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from depcat import (
    AxiomViolationError,
    DependencyTree,
    DomainError,
    GeneratorSpec,
    GeneratorViolation,
    build_tree,
    evaluate,
    validate,
)
from depcat.errors import as_integer, check_integer
from depcat.generators import _parents

FK = GeneratorSpec.builtin("fk")
SEQ = GeneratorSpec.builtin("sequential")
FSQRT = GeneratorSpec.builtin("floor_sqrt")
SIN = GeneratorSpec.builtin("sin_drift")
PRIME = GeneratorSpec.builtin("prime_partition")
ALL_BUILTINS = (FK, SEQ, FSQRT, SIN, PRIME)

# Golden parents for n = 2..13, frozen from an independent recomputation
# of floor(sqrt(n)/2 * sin(n) + n/2) with sin in radians.
SIN_DRIFT_EDGES = {2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 4, 8: 5, 9: 5, 10: 4, 11: 3, 12: 5, 13: 7}


class TestEvaluate:
    def test_fk_always_one(self):
        assert evaluate(FK, 17) == 1
        assert evaluate(FK, 2) == 1

    def test_sequential_is_predecessor(self):
        assert evaluate(SEQ, 17) == 16

    def test_floor_sqrt(self):
        assert evaluate(FSQRT, 16) == 4
        assert evaluate(FSQRT, 15) == 3

    def test_sin_drift_golden_edges(self):
        for n, parent in SIN_DRIFT_EDGES.items():
            assert evaluate(SIN, n) == parent

    def test_domain_starts_at_two(self):
        for spec in ALL_BUILTINS:
            with pytest.raises(DomainError):
                evaluate(spec, 1)

    def test_floor_sqrt_at_the_domain_end(self):
        assert evaluate(FSQRT, 2**53) == math.isqrt(2**53)
        top = math.isqrt(2**53)
        for n in (r * r + d for r in range(top - 300, top + 1) for d in (-1, 0, 1)):
            assert evaluate(FSQRT, n) == math.isqrt(n), n

    def test_floor_sqrt_next_to_squares(self):
        # the bulk map at k*k - 1, k*k and k*k + 1, for k near 1 and near isqrt(2**53)
        top = math.isqrt(2**53)
        roots = [*range(1, 2001), *range(top - 2000, top + 1)]
        indices = np.array(
            [n for k in roots for n in (k * k - 1, k * k, k * k + 1) if n >= 2], dtype=np.int64
        )
        assert _parents(FSQRT, indices).tolist() == [math.isqrt(n) for n in indices.tolist()]

    def test_matches_math_formulas(self):
        # the scalar math formulas are the reference for the vectorized map
        indices = range(2, BULK_MAX + 1)
        assert build_tree(FSQRT, BULK_MAX).parents.tolist() == [math.isqrt(n) for n in indices]
        assert build_tree(SIN, BULK_MAX).parents.tolist() == [
            math.floor((math.sqrt(n) / 2.0) * math.sin(n) + n / 2.0) for n in indices
        ]

    @pytest.mark.parametrize("n", [2**53 + 1, 2**63 - 1, 2**70])
    def test_domain_ends_at_two_to_the_53(self, n):
        for spec in ALL_BUILTINS:
            with pytest.raises(DomainError):
                evaluate(spec, n)

    def test_table_lookup_and_miss(self):
        spec = GeneratorSpec.from_table({2: 1, 3: 2, 4: 1})
        assert evaluate(spec, 3) == 2
        with pytest.raises(AxiomViolationError, match="^generator 'table': n=5: no table entry$"):
            evaluate(spec, 5)

    def test_table_axiom_violation_raises(self):
        spec = GeneratorSpec.from_table({2: 1, 3: 3})
        with pytest.raises(AxiomViolationError):
            evaluate(spec, 3)


class TestPrimePartition:
    def test_even_numbers_map_to_one(self):
        for n in (2, 4, 6, 100, 2**14):
            assert evaluate(PRIME, n) == 1

    def test_odd_multiples_of_three_map_to_two(self):
        for n in (3, 9, 15, 21, 3**7):
            assert evaluate(PRIME, n) == 2

    def test_twenty_five_maps_to_three(self):
        assert evaluate(PRIME, 25) == 3

    def test_matches_block_construction(self):
        # Direct set construction of the partition: block m holds the
        # multiples of the m-th prime with all earlier blocks removed.
        limit = 10_000
        remaining = set(range(2, limit + 1))
        block_of = {}
        m = 0
        while remaining:
            m += 1
            prime = min(remaining)  # smallest survivor is the next prime
            block = {v for v in remaining if v % prime == 0}
            for v in block:
                block_of[v] = m
            remaining -= block
        for n in range(2, limit + 1):
            assert evaluate(PRIME, n) == block_of[n]

    def test_smallest_prime_factor_semantics(self):
        # evaluate(PRIME, n) = m means the m-th prime divides n and no
        # earlier prime does.
        import sympy

        primes = list(sympy.primerange(2, 1510))
        for n in range(2, 1500):
            m = evaluate(PRIME, n)
            assert n % primes[m - 1] == 0
            assert all(n % primes[i] != 0 for i in range(m - 1))


class TestValidate:
    def test_sequential_clean_to_100(self):
        assert validate(SEQ, 100) == ()

    def test_non_integer_range_is_rejected(self):
        # int() would truncate it and check 2..3
        with pytest.raises(DomainError, match="^max_index must be an integer, got 3.5$"):
            validate(SEQ, 3.5)

    def test_table_violation_is_reported_not_raised(self):
        violations = validate(GeneratorSpec.from_table({2: 1, 3: 3}), 3)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.index == 3
        assert violation.parent == 3
        assert "not in 1..2" in violation.reason

    def test_reason_is_read_from_index_and_parent(self):
        assert GeneratorViolation(3, None).reason == "n=3: no table entry"
        assert GeneratorViolation(3, 3).reason == "n=3: alpha=3 not in 1..2"
        assert GeneratorViolation(5, -1).reason == "n=5: alpha=-1 not in 1..4"

    def test_table_missing_entry_reported(self):
        violations = validate(GeneratorSpec.from_table({2: 1}), 4)
        assert [v.index for v in violations] == [3, 4]
        assert violations[0].parent is None

    def test_table_report_in_index_order(self):
        violations = validate(GeneratorSpec.from_table({2: 1, 4: 4, 5: 9}), 6)
        assert [(v.index, v.parent, v.reason) for v in violations] == [
            (3, None, "n=3: no table entry"),
            (4, 4, "n=4: alpha=4 not in 1..3"),
            (5, 9, "n=5: alpha=9 not in 1..4"),
            (6, None, "n=6: no table entry"),
        ]

    def test_build_tree_names_first_missing_entry(self):
        with pytest.raises(AxiomViolationError, match=r"first: n=3: no table entry\)"):
            build_tree(GeneratorSpec.from_table({2: 1, 4: 4, 5: 9}), 6)

    def test_sin_drift_exhaustive_to_ten_thousand(self):
        assert validate(SIN, 10_000) == ()

    def test_all_builtins_to_one_million(self):
        for spec in ALL_BUILTINS:
            assert validate(spec, 1_000_000) == (), spec.kind

    def test_sin_drift_never_near_floor_boundary(self):
        # Documented determinism guard: no builtin evaluation sits within
        # 1e-9 of an integer boundary below 10^6, so host floor quirks
        # cannot flip a parent.
        n = np.arange(2, 1_000_001, dtype=np.float64)
        value = (np.sqrt(n) / 2.0) * np.sin(n) + n / 2.0
        assert np.min(np.abs(value - np.round(value))) > 1e-9


@st.composite
def gapped_tables(draw):
    """A size N <= 40 and a table over 2..N with some keys missing and parents in 1..2N.

    Only the drawn faulty indices may miss their key or have a parent >= n,
    so that valid tables are drawn too.
    """
    size = draw(st.integers(2, 40))
    faulty = draw(st.sets(st.integers(2, size)))
    entries = {
        n: draw(st.none() | st.integers(1, 2 * size) if n in faulty else st.integers(1, n - 1))
        for n in range(2, size + 1)
    }
    return size, {n: parent for n, parent in entries.items() if parent is not None}


class TestOneAxiomCheck:
    """evaluate, validate, build_tree and DependencyTree read one check of the axiom."""

    @settings(max_examples=200, deadline=None)
    @given(gapped_tables())
    def test_the_four_readers_agree(self, drawn):
        size, table = drawn
        spec = GeneratorSpec.from_table(table)
        violations = validate(spec, size)
        reasons = {violation.index: violation.reason for violation in violations}
        for n in range(2, size + 1):
            if n in reasons:
                with pytest.raises(AxiomViolationError) as raised:
                    evaluate(spec, n)
                assert str(raised.value) == f"generator 'table': {reasons[n]}"
            else:
                assert evaluate(spec, n) == table[n]
        parents = [table.get(n, 0) for n in range(2, size + 1)]
        if not violations:
            assert dict(build_tree(spec, size).edges()) == table
            assert DependencyTree(parents).parents.tolist() == parents
            return
        first = violations[0]
        with pytest.raises(AxiomViolationError) as raised:
            build_tree(spec, size)
        assert str(raised.value) == (
            f"generator 'table' fails validation up to {size} "
            f"({len(violations)} violation(s); first: {first.reason})"
        )
        n = first.index
        with pytest.raises(AxiomViolationError) as raised:
            DependencyTree(parents)
        assert str(raised.value) == f"node {n} has parent {parents[n - 2]}, outside 1..{n - 1}"


BULK_MAX = 10**5


def reference_parent(kind, n):
    """alpha(n) from the generator's definition, apart from the library."""
    if kind == "fk":
        return 1
    if kind == "sequential":
        return n - 1
    if kind == "floor_sqrt":
        return math.isqrt(n)
    if kind == "sin_drift":
        return math.floor((math.sqrt(n) / 2.0) * math.sin(n) + n / 2.0)
    # rank of the smallest prime factor, found by trial division
    factor = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    return int(sympy.primepi(factor))


class TestBulkAgreement:
    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda s: s.kind)
    @settings(max_examples=25, deadline=None)
    @given(drawn=st.lists(st.integers(2, BULK_MAX), min_size=1, max_size=40))
    def test_bulk_matches_scalar(self, spec, drawn):
        # evaluate(spec, n) against the definition up to 10**5: at fixed n,
        # hypothesis-drawn n, and next to every square for floor_sqrt
        cases = [2, 3, 5, 17, 99, 100, 101, 961, 1024, 9999, 10_000] + drawn
        if spec.kind == "floor_sqrt":
            roots = range(1, math.isqrt(BULK_MAX) + 1)
            cases += [r * r + d for r in roots for d in (-1, 0, 1) if 2 <= r * r + d <= BULK_MAX]
        for n in cases:
            assert evaluate(spec, n) == reference_parent(spec.kind, n), n

    def test_bulk_matches_scalar_dense_small_range(self):
        for spec in ALL_BUILTINS:
            for n in range(2, 501):
                assert evaluate(spec, n) == reference_parent(spec.kind, n), (spec.kind, n)


@pytest.mark.parametrize("spec", [FSQRT, PRIME], ids=lambda s: s.kind)
def test_parents_peak_below_20_bytes_per_index(spec):
    # prime_partition reads one int64 rank table, floor_sqrt corrects its root in place
    indices = np.arange(2, 2 * 10**5 + 1, dtype=np.int64)
    tracemalloc.start()
    try:
        _parents(spec, indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / indices.size < 20


class TestSerialization:
    def test_builtin_round_trip(self):
        for spec in ALL_BUILTINS:
            assert GeneratorSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_table_round_trip_uses_string_keys(self):
        spec = GeneratorSpec.from_table({2: 1, 3: 1, 10: 4})
        data = spec.to_dict()
        assert data == {"kind": "table", "table": {"2": 1, "3": 1, "10": 4}}
        assert GeneratorSpec.from_dict(json.loads(json.dumps(data))) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            GeneratorSpec.builtin("fibonacci")
        with pytest.raises(DomainError):
            GeneratorSpec.from_dict({"kind": "mystery"})

    def test_table_parent_beyond_domain_rejected(self):
        assert GeneratorSpec.from_table({2: 2**53}).table == {2: 2**53}
        with pytest.raises(DomainError):
            GeneratorSpec.from_table({2: 2**53 + 1})

    def test_builtin_with_table_rejected(self):
        with pytest.raises(DomainError):
            GeneratorSpec(kind="fk", table={2: 1})

    @pytest.mark.parametrize("table", [[1, 2], "12"], ids=["list", "str"])
    def test_table_that_is_not_a_mapping_rejected(self, table):
        for build in (
            lambda: GeneratorSpec.from_table(table),
            lambda: GeneratorSpec.from_dict({"kind": "table", "table": table}),
            lambda: GeneratorSpec(kind="table", table=table),
        ):
            with pytest.raises(DomainError, match="table generators require a table mapping"):
                build()

    @pytest.mark.parametrize(
        "data, shown",
        [({"kind": "fk", "tabel": {"2": 1}}, "'tabel'"),
         ({"kind": "table", "table": {"2": 1}, "Kind": "fk", "x": 0}, "'Kind', 'x'"),
         ({"kind": "fk", 2: 1}, "2")],
        ids=["misspelt-table", "two-extra", "non-string-key"],
    )
    def test_unknown_keys_rejected(self, data, shown):
        message = f"^generator keys other than 'kind' and 'table': {shown}$"
        with pytest.raises(DomainError, match=message):
            GeneratorSpec.from_dict(data)

    @pytest.mark.parametrize(
        "table, shown",
        [({"3": 1, "03": 2, "2": 1}, "'3' and '03'"),
         ({3: 1, "3": 2, 2: 1}, "3 and '3'"),
         ({"2": 1, "+3": 1, 3.0: 2}, "'+3' and 3.0")],
        ids=["zero-padded", "int-and-str", "signed-and-float"],
    )
    def test_keys_naming_one_index_twice_rejected(self, table, shown):
        # the second key is refused, where the last one would have won
        message = f"^table keys {re.escape(shown)} both name index 3$"
        with pytest.raises(DomainError, match=message):
            GeneratorSpec.from_table(table)
        with pytest.raises(DomainError, match=message):
            GeneratorSpec.from_dict({"kind": "table", "table": table})


class TestIntegerRule:
    @pytest.mark.parametrize(
        "value, expected",
        [(12, 12), (np.int64(12), 12), (np.uint8(3), 3), (12.0, 12), (np.float32(-4.0), -4),
         ("12", 12), ("+12", 12), ("-3", -3), ("007", 7)],
    )
    def test_accepts_ints_integral_floats_and_decimal_strings(self, value, expected):
        result = as_integer(value, "x")
        assert result == expected and type(result) is int

    @pytest.mark.parametrize(
        "value",
        [True, False, np.bool_(True), 1.5, np.float64(2.5), math.nan, math.inf, "2.5", "1_0",
         " 2", "2 ", "", "+", "0x10", "1e3", "\u0661\u0662", None, [1]],
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(DomainError, match="^x must be an integer, got "):
            as_integer(value, "x")

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"2": 1.5}, "table parent of 2 must be an integer, got 1.5"),
            ({"2": True}, "table parent of 2 must be an integer, got true"),
            ({"2.5": 1}, 'table key must be an integer, got "2.5"'),
            ({"1_0": 1}, 'table key must be an integer, got "1_0"'),
            ({2.5: 1}, "table key must be an integer, got 2.5"),
            ({True: 1}, "table key must be an integer, got true"),
        ],
    )
    def test_table_entries_follow_the_rule(self, table, message):
        for build in (
            lambda: GeneratorSpec(kind="table", table=table),
            lambda: GeneratorSpec.from_table(table),
            lambda: GeneratorSpec.from_dict({"kind": "table", "table": table}),
        ):
            with pytest.raises(DomainError) as excinfo:
                build()
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("read", [check_integer, as_integer])
    def test_bounds_are_inclusive_and_named(self, read):
        assert read(np.int64(2), "x", 2) == 2 and read(5, "x", 2, 5) == 5
        with pytest.raises(DomainError, match="^x must be >= 2, got 1$"):
            read(1, "x", 2)
        with pytest.raises(DomainError, match=r"^x 6 outside 2\.\.5$"):
            read(6, "x", 2, 5)
        with pytest.raises(DomainError, match=r"^x 1 outside 2\.\.5$"):
            read(np.uint8(1), "x", 2, 5)
        # the type is checked before the bound: a bool is not 1
        with pytest.raises(DomainError, match="^x must be an integer, got true$"):
            read(True, "x", 2)

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"1": 1}, "table key must be >= 2, got 1"),
            ({-3: 1}, "table key must be >= 2, got -3"),
            ({"2": 0}, "table parent of 2 0 outside 1..9007199254740992"),
            ({2: 2**53 + 1}, "table parent of 2 9007199254740993 outside 1..9007199254740992"),
        ],
    )
    def test_table_entries_out_of_range(self, table, message):
        with pytest.raises(DomainError) as excinfo:
            GeneratorSpec.from_table(table)
        assert str(excinfo.value) == message

    def test_table_entries_read_as_ints(self):
        spec = GeneratorSpec.from_table({"2": 1.0, np.int64(3): "2", 4.0: np.uint8(3)})
        assert dict(spec.table) == {2: 1, 3: 2, 4: 3}
        assert all(type(v) is int for item in spec.table.items() for v in item)


def test_sin_drift_uses_radians():
    # floor(sqrt(13)/2 * sin(13 rad) + 6.5) = 7; the degree reading gives 6.
    assert evaluate(SIN, 13) == 7
    degree_value = math.floor(
        (math.sqrt(13) / 2.0) * math.sin(math.radians(13)) + 6.5
    )
    assert degree_value != 7


def sin_drift_oracle(n):
    """floor(sqrt(n)/2 * sin(n) + n/2) in 60-digit mpmath, apart from the library."""
    with mpmath.workdps(60):
        index = mpmath.mpf(n)
        return int(mpmath.floor(mpmath.sqrt(index) / 2 * mpmath.sin(index) + index / 2))


def decade_sample(k):
    """20 random n in [10**k, 10**(k + 1)), no smaller than 2 and no larger than 2**53."""
    rng = random.Random(k)
    return [rng.randrange(max(2, 10**k), min(10 ** (k + 1), 2**53 + 1)) for _ in range(20)]


SIN_DRIFT_DECADES = {k: decade_sample(k) for k in range(16)}
# The ten n below 10**7 whose float64 value lies nearest an integer, from a
# float scan of every n: 7013135 lies 6.9e-8 above one.
SIN_DRIFT_NEAR_TIES = (
    7013135, 1221695, 5202975, 3411332, 60067, 4279328, 1084673, 4741411, 3315479, 7510863,
)


class TestSinDriftExact:
    """Every sin_drift parent is the exact floor on 2..2**53, checked against mpmath."""

    @pytest.mark.parametrize("decade", sorted(SIN_DRIFT_DECADES))
    def test_random_n_in_every_decade(self, decade):
        for n in SIN_DRIFT_DECADES[decade]:
            assert evaluate(SIN, n) == sin_drift_oracle(n), n

    def test_near_ties_of_a_float_scan(self):
        for n in SIN_DRIFT_NEAR_TIES:
            assert evaluate(SIN, n) == sin_drift_oracle(n), n

    def test_domain_end(self):
        for n in (2**53, 2**53 - 1, 2**52):
            assert evaluate(SIN, n) == sin_drift_oracle(n), n

    def test_array_evaluation_places_each_exact_parent(self):
        # one array mixing n the float pass settles with n it hands to decimal
        indices = sorted({n for sample in SIN_DRIFT_DECADES.values() for n in sample})
        expected = [sin_drift_oracle(n) for n in indices]
        assert _parents(SIN, np.array(indices, dtype=np.int64)).tolist() == expected
