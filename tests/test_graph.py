"""Dependency trees: structure goldens, path queries, distance metric."""

import json

import numpy as np
import pytest

import depcat.generators
from depcat import (
    AxiomViolationError,
    DependencyTree,
    DomainError,
    GeneratorSpec,
    build_tree,
    evaluate,
    export_dot,
    tree_distance,
)

FK = GeneratorSpec.builtin("fk")
SEQ = GeneratorSpec.builtin("sequential")
FSQRT = GeneratorSpec.builtin("floor_sqrt")
SIN = GeneratorSpec.builtin("sin_drift")
PRIME = GeneratorSpec.builtin("prime_partition")
ALL_BUILTINS = (FK, SEQ, FSQRT, SIN, PRIME)

# golden parents for sin_drift, frozen from independent recomputation
SIN_DRIFT_EDGES = {2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 4, 8: 5, 9: 5, 10: 4, 11: 3, 12: 5, 13: 7}


def path_to_root(tree, node):
    """Node indices from `node` up to the root, [n, alpha(n), ..., 1], by `parent_of`."""
    path = [node]
    while node != 1:
        node = tree.parent_of(node)
        path.append(node)
    return path


class TestBuildTree:
    def test_fk_star(self):
        tree = build_tree(FK, 5)
        assert dict(tree.edges()) == {2: 1, 3: 1, 4: 1, 5: 1}

    def test_sequential_chain(self):
        tree = build_tree(SEQ, 4)
        assert dict(tree.edges()) == {2: 1, 3: 2, 4: 3}

    def test_floor_sqrt_nine(self):
        tree = build_tree(FSQRT, 9)
        assert dict(tree.edges()) == {
            2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3,
        }

    def test_single_node_tree(self):
        tree = build_tree(SEQ, 1)
        assert tree.size == 1
        assert dict(tree.edges()) == {}

    def test_invalid_generator_raises(self):
        with pytest.raises(AxiomViolationError):
            build_tree(GeneratorSpec.from_table({2: 1, 3: 3}), 3)

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda spec: spec.kind)
    def test_parents_are_evaluated_once(self, spec, monkeypatch):
        calls = []
        evaluator = depcat.generators._parents

        def counting(spec, indices):
            calls.append(int(indices[-1]))
            return evaluator(spec, indices)

        monkeypatch.setattr(depcat.generators, "_parents", counting)
        tree = build_tree(spec, 11)
        assert calls == [11]
        assert tree.parents.tolist() == [evaluate(spec, n) for n in range(2, 12)]

    def test_a_failing_generator_is_evaluated_once(self, monkeypatch):
        # the violations are read from the parents the tree rejected
        calls = []
        evaluator = depcat.generators._parents

        def counting(spec, indices):
            calls.append(int(indices[-1]))
            return evaluator(spec, indices)

        monkeypatch.setattr(depcat.generators, "_parents", counting)
        expected = (
            r"^generator 'table' fails validation up to 6 "
            r"\(4 violation\(s\); first: n=3: no table entry\)$"
        )
        with pytest.raises(AxiomViolationError, match=expected):
            build_tree(GeneratorSpec.from_table({2: 1, 4: 4, 5: 9}), 6)
        assert calls == [6]

    def test_table_parents_are_its_entries(self):
        table = {2: 1, 3: 1, 4: 2, 5: 4}
        assert dict(build_tree(GeneratorSpec.from_table(table), 5).edges()) == table

    def test_direct_construction_rejects_forward_edges(self):
        with pytest.raises(AxiomViolationError):
            DependencyTree(np.array([1, 3]))

    def test_direct_construction_reads_its_size_from_the_parents(self):
        assert DependencyTree([1, 1, 2]).size == 4
        assert DependencyTree([]).size == 1

    @pytest.mark.parametrize("parents", [1, [[1], [1]]], ids=["scalar", "two-d"])
    def test_direct_construction_rejects_parents_that_are_not_one_sequence(self, parents):
        with pytest.raises(DomainError, match=r"^tree parents must be one sequence, got shape \("):
            DependencyTree(parents)


class TestPaths:
    def test_chain_path(self):
        tree = build_tree(SEQ, 5)
        assert path_to_root(tree, 5) == [5, 4, 3, 2, 1]

    def test_star_path(self):
        tree = build_tree(FK, 5)
        assert path_to_root(tree, 5) == [5, 1]

    def test_floor_sqrt_path_16(self):
        tree = build_tree(FSQRT, 16)
        assert path_to_root(tree, 16) == [16, 4, 2, 1]

    def test_root_path_is_singleton(self):
        tree = build_tree(FK, 3)
        assert path_to_root(tree, 1) == [1]
        assert tree_distance(tree, 1, 1) == 0
        with pytest.raises(DomainError, match="has no parent"):
            tree.parent_of(1)

    def test_paths_strictly_decreasing_and_rooted(self):
        for spec in ALL_BUILTINS:
            tree = build_tree(spec, 200)
            for node in range(1, 201):
                path = path_to_root(tree, node)
                assert path[-1] == 1
                assert all(a > b for a, b in zip(path, path[1:]))
                assert tree_distance(tree, node, 1) == len(path) - 1

    def test_termination_at_ten_thousand(self):
        # Strictly decreasing parents prove termination for every node;
        # spot-check full walks on a deterministic sample.
        rng = np.random.default_rng(7)
        for spec in ALL_BUILTINS:
            tree = build_tree(spec, 10_000)
            children = np.arange(2, 10_001)
            assert np.all(tree.parents < children)
            for node in rng.integers(1, 10_001, size=50):
                path = path_to_root(tree, int(node))
                assert path[-1] == 1
                assert len(path) <= 10_000

    def test_out_of_range(self):
        tree = build_tree(SEQ, 4)
        for node in (5, 0):
            with pytest.raises(DomainError):
                tree.parent_of(node)
            with pytest.raises(DomainError):
                tree_distance(tree, node, 1)


def distance_via_path_sets(tree, m, n):
    """Independent oracle: intersect full root paths, add depths to the LCA."""
    path_m = path_to_root(tree, m)
    path_n = path_to_root(tree, n)
    common = set(path_m) & set(path_n)
    lca = max(common)
    return path_m.index(lca) + path_n.index(lca)


class TestTreeDistance:
    def test_chain_distance(self):
        tree = build_tree(SEQ, 5)
        assert tree_distance(tree, 2, 5) == 3

    def test_star_distance(self):
        tree = build_tree(FK, 7)
        assert tree_distance(tree, 3, 7) == 2
        assert tree_distance(tree, 1, 7) == 1

    def test_floor_sqrt_9_16(self):
        # paths 9 -> 3 -> 1 and 16 -> 4 -> 2 -> 1 meet at the root: 2 + 3 edges
        tree = build_tree(FSQRT, 16)
        assert tree_distance(tree, 9, 16) == 5
        assert distance_via_path_sets(tree, 9, 16) == 5

    def test_matches_path_set_oracle(self):
        rng = np.random.default_rng(11)
        for spec in ALL_BUILTINS:
            tree = build_tree(spec, 300)
            for _ in range(60):
                m, n = rng.integers(1, 301, size=2)
                assert tree_distance(tree, int(m), int(n)) == distance_via_path_sets(
                    tree, int(m), int(n)
                )

    def test_sequential_distance_is_index_gap(self):
        tree = build_tree(SEQ, 40)
        for m in range(1, 41):
            for n in range(1, 41):
                assert tree_distance(tree, m, n) == abs(n - m)

    def test_fk_distances(self):
        tree = build_tree(FK, 30)
        for n in range(2, 31):
            assert tree_distance(tree, 1, n) == 1
        for m in range(2, 30):
            for n in range(m + 1, 31):
                assert tree_distance(tree, m, n) == 2

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(3)
        for spec in ALL_BUILTINS:
            tree = build_tree(spec, 120)
            for _ in range(40):
                a, b, c = (int(v) for v in rng.integers(1, 121, size=3))
                dab = tree_distance(tree, a, b)
                dba = tree_distance(tree, b, a)
                assert dab == dba
                assert (dab == 0) == (a == b)
                assert dab <= tree_distance(tree, a, c) + tree_distance(tree, c, b)


class TestExports:
    def test_dot_fk_three(self):
        dot = export_dot(build_tree(FK, 3))
        assert dot == "digraph dependencies {\n  2 -> 1;\n  3 -> 1;\n}\n"

    def test_dot_sequential_three(self):
        dot = export_dot(build_tree(SEQ, 3))
        assert "2 -> 1;" in dot and "3 -> 2;" in dot

    def test_dot_sin_drift_matches_golden(self):
        dot = export_dot(build_tree(SIN, 13))
        edges = {
            int(line.split("->")[0]): int(line.split("->")[1].rstrip(";"))
            for line in (
                raw.strip() for raw in dot.splitlines() if "->" in raw
            )
        }
        assert edges == SIN_DRIFT_EDGES

    def test_json_dump(self):
        tree = build_tree(SEQ, 4)
        assert json.loads(json.dumps(dict(tree.edges()))) == {"2": 1, "3": 2, "4": 3}

    def test_dot_deterministic(self):
        assert export_dot(build_tree(PRIME, 25)) == export_dot(build_tree(PRIME, 25))
