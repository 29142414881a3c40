"""The benchmark's three workloads: what one op runs and how it is checked.

Each workload is a closed loop driven from one process: one op at a time,
op i using seed + i.  `config` returns the op's inputs as plain data, so
the worker count of every op can be inspected without running it.  `run`
is the timed part; `check` (untimed) returns the problems it found, empty
when the op's outputs are correct.  `warm_up` runs before timing, fills
lazy caches and makes the one-off checks.  Each workload puts most of its
time in different modules:

- sample-csv: `depcat sample` through `cli.main`, CSV to a file.  The main
  user path; serialization and the file write are most of the op, so the
  `sampler` writer, `cli` and peak memory show here.
- mc-chain-k64: `sample_batch` on the chain at K=64 with the thread pool,
  then the empirical marginals and edge covariances read back in memory.
  Draw loop and `rng` dominate, nothing is serialized; the outcome grid is
  far larger than L2, so chunking and dtype changes show.
- exact-verify: `depcat verify` through `cli.main` over the five builtin
  generators x two deltas at K=3, N=11.  Exercises `exact`, `graph`,
  `generators`, `kernel` and `primes`, with no `rng`, `sampler` or file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from checks import exact_edge_joints, fit_problems

P3 = (0.5, 0.3, 0.2)


def pool_workers() -> int:
    """Threads for a pooled op: two, never more than os.cpu_count()."""
    return min(2, os.cpu_count() or 1)


def _quiet_main(depcat, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = depcat.cli.main(argv)
    return code, out.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SampleCsv:
    name = "sample-csv"

    def __init__(self, depcat, workdir: Path, count: int = 25_000, length: int = 64):
        self.depcat = depcat
        self.workdir = workdir
        self.count = count
        self.length = length
        self.delta = 0.4
        self.spec = depcat.GeneratorSpec.builtin("floor_sqrt")
        self.edge_joints = exact_edge_joints(depcat, P3, self.delta, self.spec, length)
        self.draws_per_op = count * length

    def config(self, seed: int) -> dict:
        return {
            "seed": seed,
            "workers": 1,
            "argv": [
                "sample", "--generator", "floor_sqrt", "--p", ",".join(map(str, P3)),
                "--delta", str(self.delta), "--n", str(self.length),
                "--count", str(self.count), "--seed", str(seed), "--format", "csv",
                "--workers", "1", "--out-prefix", str(self.workdir / f"batch-{seed}"),
            ],
        }

    def library_call(self, config: dict, workers: int):
        """The op's sampling step alone, for the workers comparison."""
        return self.depcat.sample_batch(
            P3, self.delta, self.spec, self.length, self.count, config["seed"], workers
        )

    def run(self, config: dict):
        return _quiet_main(self.depcat, config["argv"])

    def _paths(self, config: dict) -> tuple[Path, Path]:
        prefix = self.workdir / f"batch-{config['seed']}"
        return Path(f"{prefix}.csv"), Path(f"{prefix}.meta.json")

    def discard(self, config: dict) -> None:
        for path in self._paths(config):
            path.unlink(missing_ok=True)

    def check(self, config: dict, output) -> list[str]:
        code, _ = output
        if code != 0:
            return [f"exit code {code}"]
        data_path, meta_path = self._paths(config)
        problems = self._check_sidecar(config, meta_path)
        outcomes, more = self._parse_csv(data_path)
        problems += more
        if outcomes is not None:
            problems += self._check_statistics(outcomes)
        return problems

    def _check_sidecar(self, config: dict, meta_path: Path) -> list[str]:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        expected = {
            "algorithm": self.depcat.rng.ALGORITHM_ID,
            "seed": config["seed"],
            "count": self.count,
            "N": self.length,
            "K": len(P3),
            "p": list(P3),
            "delta": self.delta,
            "generator": self.spec.to_dict(),
        }
        return [
            f"sidecar {key} is {meta.get(key)!r}, expected {value!r}"
            for key, value in expected.items()
            if meta.get(key) != value
        ]

    def _parse_csv(self, path: Path):
        """Header plus `count` rows of N single-digit fields in 1..K."""
        data = np.fromfile(path, dtype=np.uint8)
        header = (",".join(f"e{i}" for i in range(1, self.length + 1)) + "\n").encode()
        if data[: len(header)].tobytes() != header:
            return None, ["CSV header does not name positions e1..eN"]
        width = 2 * self.length
        body = data[len(header):]
        if body.size != self.count * width:
            return None, [f"CSV body has {body.size} bytes, expected {self.count} rows of {width}"]
        rows = body.reshape(self.count, width)
        separators = np.full(self.length, ord(","), dtype=np.uint8)
        separators[-1] = ord("\n")
        if not np.array_equal(rows[:, 1::2], np.broadcast_to(separators, (self.count, self.length))):
            return None, ["CSV rows are not N comma-separated fields"]
        outcomes = rows[:, 0::2] - ord("0")
        if outcomes.min() < 1 or outcomes.max() > len(P3):
            return None, ["CSV field outside 1..K"]
        return outcomes, []

    def _check_statistics(self, outcomes: np.ndarray) -> list[str]:
        k = len(P3)
        zero_based = outcomes.astype(np.intp) - 1
        position_counts = np.stack(
            [np.bincount(zero_based[:, i], minlength=k) for i in range(self.length)]
        )
        edge_counts = {
            (a, b): np.bincount(zero_based[:, a - 1] * k + zero_based[:, b - 1], minlength=k * k)
            for a, b in self.edge_joints
        }
        return fit_problems(position_counts, edge_counts, P3, self.edge_joints)

    def warm_up(self, seed: int) -> list[str]:
        """Run op `seed` twice: both must pass and write identical bytes."""
        config = self.config(seed)
        digests = []
        problems = []
        for _ in range(2):
            problems += self.check(config, self.run(config))
            digests.append([_digest(path) for path in self._paths(config)])
            self.discard(config)
        if not problems and digests[0] != digests[1]:
            problems.append("the same seed wrote different bytes")
        return problems


class McChainK64:
    name = "mc-chain-k64"

    def __init__(self, depcat, workdir: Path, count: int = 100_000, length: int = 64):
        self.depcat = depcat
        self.count = count
        self.length = length
        self.p = np.full(64, 1.0 / 64)
        self.delta = 0.6
        self.spec = depcat.GeneratorSpec.builtin("sequential")
        self.workers = pool_workers()
        self.edge_joints = exact_edge_joints(depcat, self.p, self.delta, self.spec, length)
        self.draws_per_op = count * length

    def config(self, seed: int) -> dict:
        return {"seed": seed, "workers": self.workers}

    def library_call(self, config: dict, workers: int):
        return self.depcat.sample_batch(
            self.p, self.delta, self.spec, self.length, self.count, config["seed"], workers
        )

    def run(self, config: dict):
        depcat = self.depcat
        batch = self.library_call(config, config["workers"])
        marginals = [depcat.empirical_marginals(batch, i) for i in range(1, self.length + 1)]
        covariances = {
            edge: depcat.empirical_cross_covariance(batch, *edge) for edge in self.edge_joints
        }
        return batch.outcomes.shape, marginals, covariances

    def discard(self, config: dict) -> None:
        pass

    def check(self, config: dict, output) -> list[str]:
        shape, marginals, covariances = output
        if shape != (self.count, self.length):
            return [f"batch shape {shape}, expected {(self.count, self.length)}"]
        position_counts = np.stack([m.counts for m in marginals])
        if np.any(position_counts.sum(axis=1) != self.count):
            return ["marginal counts do not sum to the batch size"]
        frequencies = position_counts / self.count
        edge_counts = {}
        for (a, b), cov in covariances.items():
            joint = cov.matrix + np.outer(frequencies[a - 1], frequencies[b - 1])
            edge_counts[a, b] = np.rint(joint * self.count)
        return fit_problems(position_counts, edge_counts, self.p, self.edge_joints)

    def warm_up(self, seed: int) -> list[str]:
        """One op, plus: workers=1 and the op's worker count give equal outcomes."""
        config = self.config(seed)
        problems = self.check(config, self.run(config))
        digests = {
            hashlib.sha256(self.library_call(config, workers).outcomes).hexdigest()
            for workers in (1, config["workers"])
        }
        if len(digests) != 1:
            problems.append("outcomes differ between worker counts")
        return problems


GENERATORS = ("fk", "sequential", "floor_sqrt", "sin_drift", "prime_partition")
DELTAS = (0.2, 0.7)


class ExactVerify:
    name = "exact-verify"

    def __init__(self, depcat, workdir: Path, length: int = 11):
        self.depcat = depcat
        self.length = length
        self.combos = [(g, d) for g in GENERATORS for d in DELTAS]
        self.draws_per_op = 0

    def config(self, seed: int) -> dict:
        generator, delta = self.combos[seed % len(self.combos)]
        return {
            "seed": seed,
            "workers": 1,
            "argv": [
                "verify", "--generator", generator, "--p", ",".join(map(str, P3)),
                "--delta", str(delta), "--n", str(self.length),
            ],
        }

    library_call = None

    def run(self, config: dict):
        return _quiet_main(self.depcat, config["argv"])

    def discard(self, config: dict) -> None:
        pass

    def check(self, config: dict, output) -> list[str]:
        code, text = output
        lines = text.splitlines()
        problems = [] if code == 0 else [f"exit code {code}"]
        if not lines:
            problems.append("verify printed nothing")
        problems += [f"not PASS: {line}" for line in lines if not line.endswith(" PASS")]
        return problems

    def warm_up(self, seed: int) -> list[str]:
        """One op per generator/delta pair, so lazy caches are filled."""
        problems = []
        for offset in range(len(self.combos)):
            config = self.config(seed + offset)
            problems += self.check(config, self.run(config))
        return problems


WORKLOADS = {cls.name: cls for cls in (SampleCsv, McChainK64, ExactVerify)}
