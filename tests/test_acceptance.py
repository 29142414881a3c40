"""Acceptance suite: one test per core distributional claim.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Tolerances are fixed here, not calibrated: 1e-10 for
enumeration-vs-formula agreement, 1e-12 for hand-evaluated goldens, and
3-standard-error windows for Monte Carlo statistics.
"""

import json
import time

import numpy as np

from depcat import (
    GeneratorSpec,
    closed_form_covariance_matrix,
    cross_covariance_closed_form,
    cross_covariance_enumerated,
    empirical_cross_covariance,
    empirical_marginals,
    enumerated_marginals,
    joint_pair_probability,
    sample_batch,
)
from depcat.cli import main as cli_main

FK = GeneratorSpec.builtin("fk")
SEQ = GeneratorSpec.builtin("sequential")
FSQRT = GeneratorSpec.builtin("floor_sqrt")
SIN = GeneratorSpec.builtin("sin_drift")
PRIME = GeneratorSpec.builtin("prime_partition")
ALL_BUILTINS = (FK, SEQ, FSQRT, SIN, PRIME)

DELTA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def report(criterion, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:>2}] {status}  {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def random_marginals(num_categories, count=20, seed=12345):
    rng = np.random.default_rng(seed + num_categories)
    return rng.dirichlet(np.ones(num_categories), size=count)


def test_criterion_1_identical_distribution_at_desk_scale():
    started = time.monotonic()
    worst = 0.0
    for num_categories in (2, 3, 4):
        draws = random_marginals(num_categories)
        for spec in ALL_BUILTINS:
            for length in range(2, 10):
                for delta in DELTA_GRID:
                    for p in draws:
                        marginals = enumerated_marginals(p, delta, spec, length)
                        worst = max(
                            worst, float(np.max(np.abs(marginals - p[None, :])))
                        )
    elapsed = time.monotonic() - started
    report(
        1,
        "every position identically distributed (enumeration path)",
        worst <= 1e-10 and elapsed < 60.0,
        f"max error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_chain_covariance_power_formula():
    worst = 0.0
    for num_categories in (2, 3, 4):
        p = random_marginals(num_categories, count=1)[0]
        for delta in (0.25, 0.6, 0.9):
            for m in range(1, 8):
                for n in range(m + 1, 9):
                    enumerated = cross_covariance_enumerated(p, delta, SEQ, m, n)
                    expected = closed_form_covariance_matrix(p, delta, n - m)
                    worst = max(
                        worst, float(np.max(np.abs(enumerated.matrix - expected)))
                    )
    report(
        2,
        "chain covariance equals delta^(n-m) structure, all pairs to n=8",
        worst <= 1e-10,
        f"max error {worst:.3e}",
    )


def test_criterion_3_bernoulli_pairwise_covariance():
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        for delta in (0.2, 0.5, 0.8):
            for m in range(1, 10):
                for n in range(m + 1, 11):
                    cov = cross_covariance_enumerated([p, 1 - p], delta, SEQ, m, n)
                    expected = p * (1 - p) * delta ** (n - m)
                    worst = max(
                        worst,
                        abs(cov.matrix[0, 0] - expected),
                        abs(cov.matrix[1, 1] - expected),
                        abs(cov.matrix[0, 1] + expected),
                    )
    report(
        3,
        "Bernoulli chain covariance pq*delta^(n-m) up to n=10",
        worst <= 1e-10,
        f"max error {worst:.3e}",
    )


def test_criterion_4_bernoulli_goldens():
    p, delta = 0.5, 0.3
    adjacent = cross_covariance_enumerated([p, 1 - p], delta, SEQ, 2, 3)
    two_apart = cross_covariance_enumerated([p, 1 - p], delta, SEQ, 1, 3)
    err = max(
        abs(adjacent.matrix[0, 0] - p * (1 - p) * delta),
        abs(two_apart.matrix[0, 0] - p * (1 - p) * delta**2),
    )
    report(
        4,
        "Bernoulli goldens pq*delta and pq*delta^2 at p=0.5, delta=0.3",
        err <= 1e-12,
        f"max error {err:.3e}",
    )


def test_criterion_5_three_category_golden_matrix():
    p = np.array([0.5, 0.3, 0.2])
    delta = 0.4
    # symbolic form evaluated independently of the library
    golden = delta * np.array(
        [
            [p[0] * (1 - p[0]), -p[0] * p[1], -p[0] * p[2]],
            [-p[0] * p[1], p[1] * (1 - p[1]), -p[1] * p[2]],
            [-p[0] * p[2], -p[1] * p[2], p[2] * (1 - p[2])],
        ]
    )
    enumerated = cross_covariance_enumerated(p, delta, SEQ, 2, 3)
    err = float(np.max(np.abs(enumerated.matrix - golden)))
    report(
        5,
        "K=3 adjacent-position covariance matrix golden",
        err <= 1e-12,
        f"max error {err:.3e}",
    )


def test_criterion_6_star_covariance_exponents():
    worst = 0.0
    p = np.array([0.5, 0.3, 0.2])
    for delta in (0.25, 0.6, 0.9):
        for n in range(2, 9):
            cov = cross_covariance_enumerated(p, delta, FK, 1, n)
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(cov.matrix - closed_form_covariance_matrix(p, delta, 1))
                    )
                ),
            )
        for m in range(2, 8):
            for n in range(m + 1, 9):
                cov = cross_covariance_enumerated(p, delta, FK, m, n)
                worst = max(
                    worst,
                    float(
                        np.max(
                            np.abs(
                                cov.matrix - closed_form_covariance_matrix(p, delta, 2)
                            )
                        )
                    ),
                )
    report(
        6,
        "star covariance exponent 1 from the root, 2 elsewhere",
        worst <= 1e-10,
        f"max error {worst:.3e}",
    )


def test_criterion_7_endpoint_match_identity():
    worst = 0.0
    for probs in ([0.5, 0.5], [0.7, 0.3], [0.5, 0.3, 0.2], [0.2, 0.45, 0.35]):
        for delta in (0.2, 0.4, 0.8):
            for length in range(2, 11):
                for category in range(1, len(probs) + 1):
                    enumerated = joint_pair_probability(
                        probs, delta, SEQ, 1, category, length, category, method="enumerate"
                    )
                    pi = probs[category - 1]
                    expected = pi * (pi + (1 - pi) * delta ** (length - 1))
                    worst = max(worst, abs(enumerated - expected))
    report(
        7,
        "chain endpoint-match probability p_i(p_i + (1-p_i)delta^(n-1))",
        worst <= 1e-10,
        f"max error {worst:.3e}",
    )


def test_criterion_8_tree_edge_goldens():
    from depcat import build_tree

    # frozen golden: under floor_sqrt, 2..3 attach to 1, 4..8 to 2,
    # 9..15 to 3, 16..24 to 4
    floor_sqrt_golden = {2: 1, 3: 1}
    for n in range(4, 9):
        floor_sqrt_golden[n] = 2
    for n in range(9, 16):
        floor_sqrt_golden[n] = 3
    for n in range(16, 25):
        floor_sqrt_golden[n] = 4
    sin_drift_golden = {
        2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 7: 4, 8: 5, 9: 5, 10: 4, 11: 3, 12: 5, 13: 7,
    }
    ok_floor = dict(build_tree(FSQRT, 24).edges()) == floor_sqrt_golden
    ok_sin = dict(build_tree(SIN, 13).edges()) == sin_drift_golden
    report(
        8,
        "tree edge goldens reproduced (floor_sqrt N=24, sin_drift N=13)",
        ok_floor and ok_sin,
    )


def test_criterion_9_sampler_statistics():
    started = time.monotonic()
    p, delta, length, count = 0.5, 0.5, 5, 1_000_000
    batch = sample_batch([p, 1 - p], delta, SEQ, length, count, seed=20240806)

    marginal_se = np.sqrt(p * (1 - p) / count)
    marginal_ok = True
    worst_marginal = 0.0
    for position in range(1, length + 1):
        freq = empirical_marginals(batch, position).frequencies
        gap = float(np.max(np.abs(freq - p)))
        worst_marginal = max(worst_marginal, gap)
        marginal_ok &= gap <= 3 * marginal_se

    covariance_ok = True
    worst_sigmas = 0.0
    for m in range(1, length):
        for n in range(m + 1, length + 1):
            observed = empirical_cross_covariance(batch, m, n)
            exact = closed_form_covariance_matrix([p, 1 - p], delta, n - m)
            # delta-method standard error per entry from the batch itself
            left = (batch.outcomes[:, m - 1][:, None] == np.array([1, 2])).astype(float)
            right = (batch.outcomes[:, n - 1][:, None] == np.array([1, 2])).astype(float)
            for i in range(2):
                for j in range(2):
                    terms = (left[:, i] - left[:, i].mean()) * (
                        right[:, j] - right[:, j].mean()
                    )
                    se = terms.std() / np.sqrt(count)
                    sigmas = abs(observed.matrix[i, j] - exact[i, j]) / se
                    worst_sigmas = max(worst_sigmas, float(sigmas))
                    covariance_ok &= sigmas <= 3.0

    pinned = empirical_cross_covariance(batch, 3, 5).matrix[0, 0]
    pinned_ok = abs(pinned - 0.0625) <= 0.002
    elapsed = time.monotonic() - started
    report(
        9,
        "sampled marginals/covariances within 3 SE; cov(3,5) = 0.0625 +/- 0.002",
        marginal_ok and covariance_ok and pinned_ok and elapsed < 60.0,
        f"worst marginal gap {worst_marginal:.2e}, worst {worst_sigmas:.2f} SE, "
        f"cov(3,5) {pinned:.5f}, {elapsed:.1f}s",
    )


def test_criterion_10_tree_distance_extrapolation():
    worst = 0.0
    tagged = True
    for spec in (FSQRT, PRIME):
        for probs in ([0.6, 0.4], [0.5, 0.3, 0.2]):
            for delta in (0.3, 0.7):
                for m in range(1, 8):
                    for n in range(m + 1, 9):
                        enumerated = cross_covariance_enumerated(probs, delta, spec, m, n)
                        closed = cross_covariance_closed_form(probs, delta, spec, m, n)
                        worst = max(
                            worst,
                            float(np.max(np.abs(enumerated.matrix - closed.matrix))),
                        )
                        payload = closed.to_json_dict()
                        tagged &= payload["exponent_basis"] == "theorem"
                        tagged &= "note" not in payload
    report(
        10,
        "tree-distance exponent agrees with enumeration and is tagged theorem",
        worst <= 1e-10 and tagged,
        f"max error {worst:.3e}",
    )


def test_criterion_11_sampling_cli_determinism(tmp_path, capsys):
    base = [
        "sample", "--generator", "sequential", "--p", "0.5,0.5", "--delta", "0.5",
        "--n", "6", "--seed", "31337", "--count", "5000",
    ]
    outputs = {}
    for tag, workers in (("run1", "1"), ("run2", "1"), ("run4", "4")):
        prefix = tmp_path / tag
        code = cli_main(base + ["--out-prefix", str(prefix), "--workers", workers])
        assert code == 0
        outputs[tag] = (
            (tmp_path / f"{tag}.csv").read_bytes(),
            (tmp_path / f"{tag}.meta.json").read_bytes(),
        )
    capsys.readouterr()
    identical_reruns = outputs["run1"][0] == outputs["run2"][0]
    identical_workers = outputs["run1"][0] == outputs["run4"][0]
    metadata_fixed = (
        json.loads(outputs["run1"][1])["seed"]
        == json.loads(outputs["run4"][1])["seed"]
        == 31337
    )
    report(
        11,
        "sample command byte-identical across runs and worker counts",
        identical_reruns and identical_workers and metadata_fixed,
    )
