"""Rooted dependency trees induced by a generator.

Indices {1..N} form the nodes; each n >= 2 points at its parent alpha(n).
Parents are strictly smaller than their children, so every chain of parent
hops terminates at the root (index 1) and the structure is a tree by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import generators
from .errors import AxiomViolationError, DomainError, check_integer, check_integers
from .generators import GeneratorSpec


@dataclass(frozen=True, eq=False)
class DependencyTree:
    """Parent pointers for nodes 2..size; node 1 is the root."""

    parents: np.ndarray  # entry i: parent of node i + 2
    size: int = field(init=False)  # one more than the parents

    def __post_init__(self):
        parents = check_integers(self.parents, "tree parent")
        if parents.ndim != 1:
            raise DomainError(f"tree parents must be one sequence, got shape {parents.shape}")
        if parents.dtype.kind == "u":  # the int64 cast would wrap an entry past 2**63
            check_integer(parents.max(initial=0), "tree parent", -(2**63), 2**63 - 1)
        parents = np.array(parents, dtype=np.int64)
        object.__setattr__(self, "size", len(parents) + 1)
        first = next(generators._violations(np.arange(2, self.size + 1), parents), None)
        if first is not None:
            n = first.index
            raise AxiomViolationError(f"node {n} has parent {parents[n - 2]}, outside 1..{n - 1}")
        parents.flags.writeable = False
        object.__setattr__(self, "parents", parents)

    def parent_of(self, node: int) -> int:
        node = check_integer(node, "node index", 1, self.size)
        if node == 1:
            raise DomainError("the root (node 1) has no parent")
        return int(self.parents[node - 2])

    def edges(self):
        """(child, parent) pairs in ascending child order."""
        for node in range(2, self.size + 1):
            yield node, int(self.parents[node - 2])

    def branch_lengths(self, m: int, n: int) -> tuple[int, int, int]:
        """The lowest common ancestor c of m and n, and the edges c..m and c..n.

        The one-pair case of `_branches`, the tree's one walk, which takes
        a batch of pairs in one step and checks its nodes once.
        """
        return self._branches([(m, n)])[0]

    def _branches(self, pairs) -> list[tuple[int, int, int]]:
        """`branch_lengths` of every (m, n) in `pairs`, in one walk over the batch.

        Every node is checked once, before the first hop: a Python int in
        1..size stands as it is, and any other node goes through
        `check_integer`, which reads a numpy integer or raises.  Each pair
        then walks its larger index up its parent chain until the two meet;
        because parents strictly decrease this converges at c, after
        exactly the edges of the path between m and n.  The hops stay inside
        1..size and read each parent as a Python int.
        """
        size = self.size
        checked = [
            (m, n) if type(m) is type(n) is int and 0 < m <= size and 0 < n <= size
            else (check_integer(m, "node index", 1, size), check_integer(n, "node index", 1, size))
            for m, n in pairs
        ]
        parent = self.parents.item  # parent(i) is the parent of node i + 2
        branches = []
        for m, n in checked:
            up = down = 0
            while m != n:
                if m > n:
                    m, up = parent(m - 2), up + 1
                else:
                    n, down = parent(n - 2), down + 1
            branches.append((m, up, down))
        return branches


def build_tree(spec: GeneratorSpec, size: int) -> DependencyTree:
    """Tree with an edge n -> alpha(n) for every n in {2..size}.

    The size ends at 2**53 at most, the end of the generators' domain.  The
    tree is the one check of the parents; only when it fails are the
    violations read, from the same parents, to report them.
    """
    size = check_integer(size, "tree size", 1, generators._MAX_INDEX)
    indices = np.arange(2, size + 1, dtype=np.int64)
    parents = generators._parents(spec, indices)
    try:
        return DependencyTree(parents)
    except AxiomViolationError:
        violations = list(generators._violations(indices, parents))
        raise AxiomViolationError(
            f"generator {spec.kind!r} fails validation up to {size} "
            f"({len(violations)} violation(s); first: {violations[0].reason})"
        ) from None


def tree_distance(tree: DependencyTree, m: int, n: int) -> int:
    """Edge count of the unique path between m and n."""
    _, up, down = tree.branch_lengths(m, n)
    return up + down


def export_dot(tree: DependencyTree) -> str:
    """DOT digraph with one edge line per node, ascending and layout-free."""
    lines = ["digraph dependencies {"]
    for node, parent in tree.edges():
        lines.append(f"  {node} -> {parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"
