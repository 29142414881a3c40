"""Exact probabilities for dependent categorical sequences, by two routes.

Route one enumerates the full outcome space: every length-N sequence over
{1..K} is assigned the product of its root probability and one kernel
factor per edge of the dependency tree.  Route two never touches the
outcome space and instead propagates distributions through powers of the
transition kernel along tree paths.  The two routes are independent
implementations of the same quantities; their agreement is the package's
main correctness check and is wired into ``verification_suite``.  Every
sum in both routes is a numpy reduction, whose order numpy fixes whatever
BLAS kernel loads; only route two's K x K matrix products use BLAS.

For every valid generator the covariance of positions m and n is
delta^d (diag p - p p^T), with d their tree distance, so every
cross-covariance carries ``exponent_basis`` ``theorem``.  Proof: write
the kernel as P = delta I + (1 - delta) Q with Q = 1 p^T, so row i of P is
delta e_i + (1 - delta) p.

1. Reversibility.  diag(p) P = delta diag(p) + (1 - delta) p p^T is
   symmetric, and p^T P = delta p^T + (1 - delta) (p^T 1) p^T = p^T, so p
   is stationary: by induction down the tree every position has marginal p.
   Symmetry of diag(p) P gives P^T diag(p) = diag(p) P, and so, one factor
   at a time, (P^a)^T diag(p) = diag(p) P^a for every a >= 0.
2. Powers.  Q^2 = 1 (p^T 1) p^T = Q, and Q commutes with I.  If
   P^d = delta^d I + (1 - delta^d) Q, then
   P^(d+1) = delta^(d+1) I + (delta^d (1 - delta) + (1 - delta^d)) Q
           = delta^(d+1) I + (1 - delta^(d+1)) Q,
   so P^d = delta^d I + (1 - delta^d) 1 p^T for every d >= 0.
3. The pair at the lowest common ancestor.  Let c be the lowest common
   ancestor of m < n, with a edges from c down to m and b down to n.
   Given the draw at c the two branches are independent chains of kernel
   steps, so the joint of the draws at m and n is
   (P^a)^T diag(p) P^b = diag(p) P^(a+b) by 1.  With d = a + b and 2 it is
   delta^d diag(p) + (1 - delta^d) p p^T, and subtracting p p^T leaves
   Cov = delta^d (diag p - p p^T).

Nothing above depends on the shape of the tree, only on its being one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Iterator, Sequence

import numpy as np

from .errors import DomainError, EnumerationTooLargeError, check_integer, check_reals
from .generators import GeneratorSpec
from .graph import DependencyTree, build_tree, tree_distance
from .kernel import (
    DeltaLike,
    Marginal,
    MarginalLike,
    as_delta,
    as_marginal,
    transition_kernel,
)

DEFAULT_ENUMERATION_CAP = 10_000_000

# How `joint_distribution` grows a step; the timings behind each cut are in
# BENCH_8.json (`joint_step_by_form`, `joint_build_cuts`).  The K slice
# multiplies beat one broadcast product from about a thousand entries on
# and up to K = 5; at K = 6 neither form wins, and from K = 7 on the
# slices' K-strided writes lose.  Each slice multiply runs inner loops of
# at least _SLICED_RUN entries (32 to 512 time the same).
_SLICED_MIN_ENTRIES = 1024
_SLICED_MAX_CATEGORIES = 5
_SLICED_RUN = 128

# Enumeration-vs-propagation comparisons; kernel-level algebra is tighter.
EXACT_TOL = 1e-10

BASIS_THEOREM = "theorem"


def _check_enumeration_size(num_categories: int, length: int, cap: int) -> None:
    length = check_integer(length, "sequence length", 1)
    cap = check_integer(cap, "enumeration cap", 1)
    # With K >= 2, K**N >= 2**N is over the cap once N reaches the cap's bit
    # length, so K**N itself is only computed while it is short.
    if length >= cap.bit_length() or num_categories**length > cap:
        raise EnumerationTooLargeError(num_categories, length, cap)


def enumerate_outcomes(
    length: int, num_categories: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[int, ...]]:
    """All K**N outcome sequences, exactly once, in lexicographic order."""
    num_categories = check_integer(num_categories, "num_categories", 2)
    _check_enumeration_size(num_categories, length, cap)
    return itertools.product(range(1, num_categories + 1), repeat=length)


def _check_outcome(omega: Sequence[int], num_categories: int) -> tuple[int, ...]:
    values = tuple(check_integer(v, "outcome entry", 1, num_categories) for v in omega)
    if len(values) < 1:
        raise DomainError("outcome must have at least one entry")
    return values


def outcome_probability(
    omega: Sequence[int],
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
) -> float:
    """Probability of one outcome sequence under the dependency structure.

    The first entry is drawn from the base distribution; each later entry
    at index l contributes the kernel factor conditioned on the entry at
    its parent index alpha(l).
    """
    marginal = as_marginal(p)
    values = _check_outcome(omega, marginal.num_categories)
    kernel = transition_kernel(marginal, delta)
    parents = build_tree(spec, len(values)).parents
    probability = marginal.probs[values[0] - 1]
    for index, parent in enumerate(parents, start=2):
        parent_value = values[parent - 1]
        probability *= kernel[parent_value - 1, values[index - 1] - 1]
    return float(probability)


def joint_distribution(
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
    length: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> np.ndarray:
    """Full joint over the outcome space as a (K, ..., K) tensor.

    Entry [w1-1, ..., wN-1] equals outcome_probability((w1, ..., wN)),
    bit for bit.  This is the vectorized form of summing over the
    enumeration; the streaming equivalence is asserted in the test suite.
    The joint of positions 1..n is the joint of 1..n-1 times the kernel
    factor of n, so it grows one axis at a time and multiplies each
    entry's factors in index order, as the product in outcome_probability
    does.

    A step writes the grown (before, K, after, K) tensor -- axes before the
    parent, the parent, after it, the new position -- one new-axis slice
    [..., j] at a time: the (before, K, after) joint times kernel column j.
    Each slice is one multiply with a long inner loop, where a broadcast
    product of the whole step would loop K entries at a time.  When `after`
    is short (on a chain it is empty) the column is repeated along it and
    tiled over a power of K parent rows, so the joint is read as rows of at
    least _SLICED_RUN entries.  Every entry is the same two factors either
    way, so the bits do not depend on the form.  Small steps, and K past a
    few categories, keep the one broadcast product, which is faster there.
    """
    marginal = as_marginal(p)
    k = marginal.num_categories
    _check_enumeration_size(k, length, cap)
    kernel = transition_kernel(marginal, delta)
    parents = build_tree(spec, length).parents
    joint = marginal.probs.copy()
    for size, parent in enumerate(parents, start=1):
        if k > _SLICED_MAX_CATEGORIES or joint.size < _SLICED_MIN_ENTRIES:
            joint = joint.reshape(k ** (parent - 1), k, -1, 1) * kernel.reshape(1, k, 1, k)
            continue
        after = k ** (size - parent)
        repeat = after if after < _SLICED_RUN else 1
        tile = 1
        while k * tile * after < _SLICED_RUN and tile < k ** (parent - 1):
            tile *= k
        # columns[j, t * K + i, a] = kernel[i, j] for every t < tile, a < repeat
        columns = np.empty((k, tile, k, repeat))
        columns[...] = kernel.T[:, None, :, None]
        columns = columns.reshape(k, k * tile, repeat)
        factor = joint.reshape(-1, k * tile, after)
        grown = np.empty(factor.shape + (k,))
        for j in range(k):
            np.multiply(factor, columns[j], out=grown[..., j])
        joint = grown
    return joint.reshape((k,) * length)


def marginal_at(
    p: MarginalLike, delta: DeltaLike, spec: GeneratorSpec, position: int
) -> Marginal:
    """Exact marginal at a position, by propagation through the tree.

    The base distribution times P^d, d the number of edges from the root,
    in O(log d) K x K products.  The result always equals the base
    distribution up to rounding (the base vector is stationary for the
    kernel); computing it this way demonstrates the identity instead of
    assuming it.  Its last bits can differ from `verify`'s marginal at the
    same node, which is reduced from its parent's one edge at a time.
    """
    position = check_integer(position, "position", 1)
    route = _Propagation(as_marginal(p), delta, build_tree(spec, position))
    # the reduction can round an entry of a near-degenerate p one ulp past 1
    return Marginal(np.clip(route.marginal(position), 0.0, 1.0))


def enumerated_marginals(
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
    length: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> np.ndarray:
    """Marginals of every position from the full joint; shape (length, K)."""
    return _pair_joints(joint_distribution(p, delta, spec, length, cap))[0]


def _pair_joints(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every one- and two-position marginal of a (K, ..., K) joint, in one pass.

    Route one's only reader of marginals and pairs: every enumerated
    marginal and pair joint, in the library and the CLI, is an entry of
    this fold.  Returns (marginals, pairs).  Row a of the (N, K) marginals
    is the law of the draw at position a + 1.  Entry [a, b] of the
    (N, N, K, K) pairs, for a < b, is the joint law of the draws at
    positions a + 1 and b + 1: the joint summed over every other axis.
    Entries with a >= b are zero.

    For each a the axes before a are summed once (from the sum for a - 1).
    Then one fold walks b = a + 1 .. N - 1 over the (a, b, after b) block:
    the pair sums the axes after b, and the fold goes on with b summed out.
    Each reduction keeps the long axis contiguous and innermost, and is a
    bare `np.add.reduce` that writes each pair and marginal straight into
    its slot of the output.
    """
    length, k = joint.ndim, joint.shape[0]
    marginals = np.empty((length, k))
    pairs = np.zeros((length, length, k, k), dtype=np.float64)
    add = np.add.reduce
    leading = joint.reshape(k, -1)  # axis a, then every later axis
    for a in range(length):
        rest = leading  # axis a, then the axes from b on
        for b in range(a + 1, length):
            rest = rest.reshape(k, k, -1)
            add(rest, axis=2, out=pairs[a, b])
            rest = add(rest, axis=1)
        add(rest, axis=1, out=marginals[a])
        if a + 1 < length:
            leading = add(leading, axis=0).reshape(k, -1)
    return marginals, pairs


class _Propagation:
    """Route two on one dependency tree: kernel powers, no outcome space.

    One rule moves every law: the draw at a node e edges below another is
    e kernel steps from it, so its law is that node's law times P^e,
    summed over the upper node's axis as a numpy reduction.  Conditioned
    on the value at the lowest common ancestor c of m and n, the branches
    down to m and n are independent, so the joint of the draws at m and n
    is (P^a)^T diag(marginal at c) P^b, where a and b are the depths of m
    and n below c.

    Only what is asked for is kept: the marginal of each node asked for
    and each kernel power used.  A node's marginal is its nearest kept
    ancestor's reduced against one power, so its last bits depend on which
    ancestor is kept: one reduction against P^d can round otherwise than d
    steps by P.  `verification_suite` asks in ascending order, one step per
    node, by P^1, the kernel array itself.  A power is one product from the
    power below it when kept, and repeated squaring otherwise.

    `pair_joints` takes all its pairs in one step: one walk of the tree,
    which checks the nodes once, then each distinct ancestor's law and each
    kernel power in use read once, stacked and gathered for every pair.
    """

    def __init__(self, marginal: Marginal, delta: DeltaLike, tree: DependencyTree):
        self.tree = tree
        self.kernel = transition_kernel(marginal, delta)
        self._marginals = {1: marginal.probs}
        self._powers = {}

    def marginal(self, node: int) -> np.ndarray:
        """Marginal at `node`: its nearest kept ancestor's times P^steps."""
        ancestor, steps = node, 0
        while ancestor not in self._marginals:
            ancestor, steps = self.tree.parent_of(ancestor), steps + 1
        probs = self._marginals[ancestor]
        if steps:
            probs = (probs[:, None] * self.power(steps)).sum(axis=0)
        self._marginals[node] = probs
        return probs

    def power(self, exponent: int) -> np.ndarray:
        """The kernel power P^exponent."""
        power = self._powers.get(exponent)
        if power is None:
            below = self._powers.get(exponent - 1)
            if below is None:
                power = np.linalg.matrix_power(self.kernel, exponent)
            else:
                power = below @ self.kernel
            self._powers[exponent] = power
        return power

    def pair_joints(self, pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, list[int]]:
        """Joint law of each (m, n) in `pairs`, and each pair's tree distance.

        One walk of the tree takes every pair up to its lowest common
        ancestor c and counts the branch lengths a and b; it checks the
        nodes once.  Each distinct c's law and each power in use is read
        once, in the order the pairs first ask for them (a power's bits
        depend on which powers are kept when it is made), and gathered by
        index into the pairs' stacks.  The left stack holds (P^a)^T
        C-contiguous, so one batched product makes every joint.  Returns
        the (len(pairs), K, K) joints and the list of distances a + b.
        """
        ancestors, up, down = zip(*self.tree._branches(pairs))
        laws, at = _stack(ancestors, self.marginal)
        powers, rows = _stack(up + down, self.power)
        left = np.ascontiguousarray(powers.transpose(0, 2, 1)[rows[: len(up)]])
        right = powers[rows[len(up) :]]
        joints = left @ (laws[at][:, :, None] * right)
        return joints, [a + b for a, b in zip(up, down)]


def _stack(keys, read) -> tuple[np.ndarray, list[int]]:
    """`read` of each distinct key once, in first-seen order, stacked; and each key's row."""
    rows = {key: row for row, key in enumerate(dict.fromkeys(keys))}
    return np.array([read(key) for key in rows]), [rows[key] for key in keys]


def joint_pair_probability(
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
    m: int,
    i: int,
    n: int,
    j: int,
    method: str = "propagate",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """P(draw at m equals i and draw at n equals j), for m < n.

    ``method`` selects the route: "propagate" (kernel powers through the
    lowest common ancestor) or "enumerate" (sum over the outcome space,
    subject to the cap).  The two routes agree within 1e-10.
    """
    marginal = as_marginal(p)
    _check_pair_positions(m, n)
    check_integer(i, "category index", 1, marginal.num_categories)
    check_integer(j, "category index", 1, marginal.num_categories)
    if method == "propagate":
        route = _Propagation(marginal, delta, build_tree(spec, n))
        pair = route.pair_joints([(m, n)])[0][0]
    elif method == "enumerate":
        pair = _pair_joints(joint_distribution(marginal, delta, spec, n, cap))[1][m - 1, n - 1]
    else:
        raise DomainError(f"unknown method {method!r}")
    return float(pair[i - 1, j - 1])


def _check_pair_positions(m: int, n: int) -> None:
    if not 1 <= check_integer(m, "m") < check_integer(n, "n"):
        raise DomainError(f"positions must satisfy 1 <= m < n, got m={m}, n={n}")


@dataclass(frozen=True, eq=False)
class CrossCovariance:
    """K x K covariance matrix of outcome indicators at two positions.

    Entry (i, j) is Cov(1[draw_m = i], 1[draw_n = j]).  Rows and columns
    sum to zero because the indicators at one position partition the
    sample space.  Exact-route matrices are symmetric; empirical ones are
    only symmetric up to sampling noise, so symmetry is checked for exact
    methods only.
    """

    m: int
    n: int
    matrix: np.ndarray
    method: str
    exponent_basis: ClassVar[str] = BASIS_THEOREM

    def __post_init__(self):
        _check_pair_positions(self.m, self.n)
        try:
            matrix = check_reals(self.matrix, "entry").copy()  # never the caller's
        except DomainError as exc:
            raise DomainError(f"covariance matrix entries must be numbers: {exc}") from None
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError("covariance matrix must be square")
        if not np.all(np.isfinite(matrix)):
            raise DomainError("covariance matrix entries must be finite")
        sums = np.concatenate([matrix.sum(axis=0), matrix.sum(axis=1)])
        worst = float(np.max(np.abs(sums)))
        if worst > 1e-8:
            raise DomainError(
                f"covariance rows/columns must sum to 0; worst deviation {worst:g}"
            )
        methods = ("enumeration", "closed-form", "empirical")
        if not isinstance(self.method, str) or self.method not in methods:
            raise DomainError(f"covariance method must be one of {methods}, got {self.method!r}")
        if self.method != "empirical":
            asym = float(np.max(np.abs(matrix - matrix.T)))
            if asym > EXACT_TOL:
                raise DomainError(
                    f"exact covariance must be symmetric; worst asymmetry {asym:g}"
                )
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "exponent_basis": self.exponent_basis,
            "method": self.method,
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }

    def to_csv(self) -> str:
        k = self.matrix.shape[0]
        lines = ["category," + ",".join(str(j) for j in range(1, k + 1))]
        for i in range(k):
            lines.append(
                str(i + 1) + "," + ",".join(repr(float(v)) for v in self.matrix[i])
            )
        return "\n".join(lines) + "\n"


def closed_form_covariance_matrix(p: MarginalLike, delta: DeltaLike, exponent: int) -> np.ndarray:
    """delta**exponent times (diag(p) - p p^T): the shared matrix shape."""
    marginal = as_marginal(p)
    d = as_delta(delta)
    exponent = check_integer(exponent, "exponent", 0)
    return _closed_forms(marginal.probs, d, [exponent])[0]


def _closed_forms(probs: np.ndarray, delta: float, exponents) -> np.ndarray:
    """delta**e (diag(p) - p p^T) for each e in `exponents`, stacked: the law, stated once.

    Each delta**e is a Python float power, as a scalar would be.
    """
    scales = np.array([delta**e for e in exponents], dtype=np.float64)
    return scales[:, None, None] * (np.diag(probs) - np.outer(probs, probs))


def cross_covariance_enumerated(
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
    m: int,
    n: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CrossCovariance:
    """Covariance of position indicators, from the enumerated pairwise joint.

    `_pair_joints` sums every pair of the length-n joint, and the (m, n)
    entry is the one returned.
    """
    marginal = as_marginal(p)
    _check_pair_positions(m, n)
    pair = _pair_joints(joint_distribution(marginal, delta, spec, n, cap))[1][m - 1, n - 1]
    matrix = pair - np.outer(marginal.probs, marginal.probs)
    return CrossCovariance(m, n, matrix, "enumeration")


def cross_covariance_closed_form(
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
    m: int,
    n: int,
) -> CrossCovariance:
    """Covariance of position indicators from the delta-power formula.

    The exponent is the tree distance between the positions, which reduces
    to n - m on chains and to 1 or 2 on the star structure.
    """
    marginal = as_marginal(p)
    _check_pair_positions(m, n)
    exponent = tree_distance(build_tree(spec, n), m, n)
    matrix = closed_form_covariance_matrix(marginal, delta, exponent)
    return CrossCovariance(m, n, matrix, "closed-form")


@dataclass(frozen=True)
class VerificationCheck:
    """One named agreement check with its worst observed error."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def verification_suite(
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
    length: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[VerificationCheck]:
    """Cross-route agreement checks at one parameter point.

    normalization        total enumerated probability vs 1
    identical-marginals  per-position marginals, both routes, vs the base p
    covariance-agreement enumerated and propagated pair covariances, every
                         pair, vs the closed form at their tree distance
    endpoint-match       propagated chain endpoint joints vs the closed form

    Each route runs once.  Enumeration builds the length-N joint of
    ``spec`` and reads every marginal and pair joint from it.  Propagation
    builds the tree and the kernel, computes every marginal in one pass
    down the tree and every pair joint at its lowest common ancestor, all
    pairs in one step.  The chain's (1, n) joint is diag(p) P^(n-1), read
    from the same cached kernel powers, since every generator shares the
    one kernel.  The closed form is one stack over the distances 0..N-1,
    read by distance for the pairs and for the chain's endpoints.
    """
    marginal = as_marginal(p)
    length = check_integer(length, "verification length", 2)
    probs = marginal.probs
    joint = joint_distribution(marginal, delta, spec, length, cap)
    total = float(joint.sum())
    marginals, pairs = _pair_joints(joint)
    route = _Propagation(marginal, delta, build_tree(spec, length))
    checks = [VerificationCheck("normalization", abs(total - 1.0), EXACT_TOL)]

    propagated = np.array([route.marginal(n) for n in range(1, length + 1)])
    both = np.stack([marginals, propagated])
    err = float(np.max(np.abs(both - probs)))
    checks.append(VerificationCheck("identical-marginals", err, EXACT_TOL))

    positions = [(m, n) for m in range(1, length) for n in range(m + 1, length + 1)]
    propagated, distances = route.pair_joints(positions)
    closed = _closed_forms(probs, as_delta(delta), range(length))  # row d: distance d
    first, second = (np.array(positions) - 1).T
    both = np.stack([pairs[first, second], propagated])
    err = float(np.max(np.abs(both - np.outer(probs, probs) - closed[distances])))
    checks.append(VerificationCheck("covariance-agreement", err, EXACT_TOL))

    # diagonal of diag(p) P^(n-1), for n = 2..length, against the chain's
    # P(draw_1 = i, draw_n = i), the closed form's Cov_ii + p_i^2
    exponents = range(1, length)
    propagated = probs * np.array([np.diagonal(route.power(e)) for e in exponents])
    closed = np.diagonal(closed[1:], axis1=1, axis2=2) + probs**2
    err = float(np.max(np.abs(propagated - closed)))
    checks.append(VerificationCheck("endpoint-match", err, EXACT_TOL))

    return checks
