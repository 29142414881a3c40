"""Statistical output checks shared by the sampling workloads.

A batch passes when, at every position, the category counts fit `p`, and
on every tree edge the pair counts fit the exact pair joint
(`cross_covariance_closed_form` + p p^T).  Each fit is Pearson's statistic
turned into a normal score by the Wilson-Hilferty transform; a score above
Z_LIMIT fails.  The limit is wide because one op makes about 130 such
tests and the benchmark runs thousands of ops: at 6 the chance that a
correct sampler fails anywhere in those ops stays far below one in a
thousand, while moving 0.02 of probability between the first two
categories at one position of a 25k-sequence batch of p = (0.5, 0.3, 0.2)
still fails.  Expected cell counts stay at 2 or more at every size the
benchmark runs, where the transform holds.
"""

from __future__ import annotations

import math

import numpy as np

Z_LIMIT = 6.0


def fit_score(counts: np.ndarray, probs: np.ndarray) -> float:
    """Wilson-Hilferty normal score of Pearson's statistic for counts ~ probs."""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    probs = np.asarray(probs, dtype=np.float64).ravel()
    total = counts.sum()
    possible = probs > 0
    if np.any(counts[~possible] > 0):
        return math.inf
    expected = probs[possible] * total
    statistic = float((((counts[possible] - expected) ** 2) / expected).sum())
    dof = int(possible.sum()) - 1
    if dof < 1:
        return 0.0
    scale = 2.0 / (9.0 * dof)
    return ((statistic / dof) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)


def exact_edge_joints(depcat, p, delta, spec, length):
    """(parent, child) -> exact pair joint, for every edge of the tree."""
    tree = depcat.build_tree(spec, length)
    outer = np.outer(p, p)
    return {
        (parent, child): depcat.cross_covariance_closed_form(
            p, delta, spec, parent, child
        ).matrix + outer
        for child, parent in tree.edges()
    }


def fit_problems(position_counts, edge_counts, p, edge_joints) -> list[str]:
    """Failed fits: position_counts is (N, K); edge_counts maps edge -> K x K."""
    problems = []
    for position, counts in enumerate(position_counts, start=1):
        score = fit_score(counts, p)
        if score > Z_LIMIT:
            problems.append(f"marginal at {position}: score {score:.2f} > {Z_LIMIT}")
    for edge, joint in edge_joints.items():
        score = fit_score(edge_counts[edge], joint)
        if score > Z_LIMIT:
            problems.append(f"pair joint on edge {edge}: score {score:.2f} > {Z_LIMIT}")
    return problems
