"""Time the exact shapes that no benchmark workload runs, in alternating rounds.

    python3 tools/shapes.py [--rounds R] [--calls C] [--tiny] [--json PATH] [TREE ...]

Each TREE is a checkout whose src/ holds depcat; with none, the checkout
this file is in.  A round starts one fresh process per tree and shape, the
first tree alternating between rounds, so no shape is timed in a process
that another shape has warmed or loaded, such as a BLAS call's thread pool.
The process makes one untimed call of its shape, then C timed calls, and
reports the median call.  The table gives, per tree, the median over the
rounds of those medians and their quartile spread (q3 - q1, as a share
of the median).  For each later tree it gives the median over the rounds
of its time over the first tree's in the same round, and in how many
rounds it was faster.  Its header names the numpy version and the BLAS
kernel, as OpenBLAS reports it with OPENBLAS_VERBOSE=2.  --tiny runs
every shape small, to check the tool itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]

P3 = [0.5, 0.3, 0.2]
P2 = [0.6, 0.4]


def shapes(depcat, tiny: bool) -> dict:
    """Shape name -> a call of it; --tiny shrinks every size."""
    seq = depcat.GeneratorSpec.builtin("sequential")
    fsqrt = depcat.GeneratorSpec.builtin("floor_sqrt")
    p64, p512 = [1 / 64] * 64, [1 / 512] * 512
    depth, near, far, n, suite = (20, (100, 120), 1_000, 5, 5) if tiny else (
        200, (1_000, 1_200), 100_000, 11, 16
    )
    return {
        f"marginal_at k3 depth {depth}": lambda: depcat.marginal_at(P3, 0.6, seq, depth + 1),
        f"marginal_at k64 depth {depth}": lambda: depcat.marginal_at(p64, 0.6, seq, depth + 1),
        f"marginal_at k512 depth {depth}": lambda: depcat.marginal_at(p512, 0.6, seq, depth + 1),
        f"joint_pair_probability propagate k64 {near}": lambda: depcat.joint_pair_probability(
            p64, 0.6, seq, near[0], 1, near[1], 1
        ),
        f"joint_pair_probability propagate k512 {near}": lambda: depcat.joint_pair_probability(
            p512, 0.6, seq, near[0], 1, near[1], 1
        ),
        f"joint_pair_probability enumerate k3 n{n}": lambda: depcat.joint_pair_probability(
            P3, 0.45, fsqrt, 1, 1, n, 1, method="enumerate"
        ),
        f"cross_covariance_closed_form k3 (1, {far})": lambda: depcat.cross_covariance_closed_form(
            P3, 0.6, seq, 1, far
        ),
        f"cross_covariance_enumerated k3 n{n}": lambda: depcat.cross_covariance_enumerated(
            P3, 0.45, fsqrt, 1, n
        ),
        f"verification_suite k2 n{suite}": lambda: depcat.verification_suite(
            P2, 0.45, fsqrt, suite
        ),
    }


def measure(src: str, calls: int, tiny: bool, name: str | None):
    """The median of C timed calls of shape `name` in seconds, with depcat imported
    from `src`; with no name, the names of the shapes."""
    sys.path.insert(0, src)
    import depcat

    timed = shapes(depcat, tiny)
    if name is None:
        return list(timed)
    call = timed[name]
    call()
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def blas_kernel() -> str:
    """The kernel OpenBLAS picks in a fresh process (or is told to, by OPENBLAS_CORETYPE)."""
    env = dict(os.environ, OPENBLAS_VERBOSE="2")
    result = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True,
        check=True,
    )
    cores = [line.split(":", 1)[1].strip() for line in result.stderr.splitlines()
             if line.startswith("Core:")]
    return cores[0] if cores else "not reported"


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return middle, (q3 - q1) / middle


def run(trees: list[Path], rounds: int, calls: int, tiny: bool) -> dict:
    """Per tree, per shape, the per-round medians in ms; rounds alternate the tree order."""

    def child(tree: Path, *shape: str):
        argv = [sys.executable, __file__, "--measure", str(tree / "src"), "--calls", str(calls),
                *(["--tiny"] if tiny else []), *shape]
        return json.loads(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)

    names = child(trees[0])
    runs = {str(tree): {name: [] for name in names} for tree in trees}
    for index in range(rounds):
        order = trees if index % 2 == 0 else trees[::-1]
        for name in names:
            for tree in order:
                runs[str(tree)][name].append(child(tree, "--shape", name) * 1e3)
    return {
        "numpy": numpy.__version__,
        "blas_kernel": blas_kernel(),
        "rounds": rounds,
        "calls_per_round": calls,
        "trees": runs,
    }


def table(record: dict) -> str:
    trees = list(record["trees"])
    lines = [
        f"numpy {record['numpy']}, BLAS kernel {record['blas_kernel']}, "
        f"{record['rounds']} rounds of {record['calls_per_round']} calls",
        *(f"tree {index}: {tree}" for index, tree in enumerate(trees)),
    ]
    header = ["shape"] + [f"tree {i} ms (iqr)" for i in range(len(trees))]
    header += [f"{i}/0 (faster)" for i in range(1, len(trees))]
    rows = [header]
    for name, first in record["trees"][trees[0]].items():
        cells = [name]
        for tree in trees:
            middle, iqr = spread(record["trees"][tree][name])
            cells.append(f"{middle:.3f} ({iqr:.1%})")
        for tree in trees[1:]:
            later = record["trees"][tree][name]
            ratio = statistics.median(b / a for a, b in zip(first, later))
            faster = sum(b < a for a, b in zip(first, later))
            cells.append(f"{ratio:.3f} ({faster}/{len(first)})")
        rows.append(cells)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="checkouts to compare")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--calls", type=int, default=9)
    parser.add_argument("--tiny", action="store_true", help="every shape small")
    parser.add_argument("--json", type=Path, help="also write the record here")
    parser.add_argument("--measure", help=argparse.SUPPRESS)  # one round's process
    parser.add_argument("--shape", help=argparse.SUPPRESS)  # the shape it times
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.calls, args.tiny, args.shape)))
        return 0
    trees = [tree.resolve() for tree in args.trees] or [ROOT]
    record = run(trees, args.rounds, args.calls, args.tiny)
    sys.stdout.write(table(record))
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
