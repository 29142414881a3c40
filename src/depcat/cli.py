"""Command-line surface: validate, graph, covariance, sample, verify.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  All outputs are deterministic functions of the configuration and
seed; JSON floats use shortest round-trip formatting and human-readable
tables use 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    AxiomViolationError,
    DepcatError,
    DomainError,
    EnumerationTooLargeError,
)
from .exact import (
    BASIS_THEOREM,
    DEFAULT_ENUMERATION_CAP,
    cross_covariance_closed_form,
    cross_covariance_enumerated,
    verification_suite,
)
from .generators import GeneratorSpec, as_integer, validate
from .graph import build_tree, export_dot
from .kernel import Marginal, as_delta
from .sampler import SampleBatch, sample_batch

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_VERIFICATION = 4
EXIT_CAP = 5

# `depcat sample` encodes its file in blocks of about this many cells, so
# the writer's working memory does not grow with `count`.
_WRITE_BLOCK_CELLS = 1 << 16


@dataclass
class RunConfig:
    """Resolved run settings shared by every subcommand."""

    spec: GeneratorSpec
    length: int
    marginal: Marginal | None = None
    delta: float | None = None
    seed: int | None = None
    count: int | None = None
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def require_marginal(self) -> Marginal:
        if self.marginal is None:
            raise DomainError("this command needs a marginal: set \"p\" or --p")
        return self.marginal

    def require_delta(self) -> float:
        if self.delta is None:
            raise DomainError("this command needs a coefficient: set \"delta\" or --delta")
        return self.delta


def _parse_generator(value) -> GeneratorSpec:
    if isinstance(value, dict):
        return GeneratorSpec.from_dict(value)
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("{"):
            return GeneratorSpec.from_json(text)
        return GeneratorSpec.builtin(text)
    raise DomainError(f"cannot interpret generator setting {value!r}")


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the JSON config file (if any) with flag overrides.

    A flag's text and a config value are read by the same library rule:
    `as_integer` for the integer settings, `as_delta` for delta and
    `Marginal` for p, whose text is split at its commas.
    """
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise DomainError(f"cannot read config file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise DomainError("config file must hold a JSON object")

    def pick(flag_value, key):
        return flag_value if flag_value is not None else data.get(key)

    raw_generator = pick(args.generator, "generator")
    raw_length = pick(args.n, "N")
    raw_k = pick(args.k, "K")
    raw_probs = pick(args.p, "p")
    raw_delta = pick(args.delta, "delta")
    raw_seed = pick(args.seed, "seed")
    raw_count = pick(args.count, "count")
    raw_cap = pick(args.cap, "enumeration_cap")

    if raw_generator is None:
        raise DomainError("a generator is required: set \"generator\" or --generator")
    if raw_length is None:
        raise DomainError("a sequence length is required: set \"N\" or --n")

    spec = _parse_generator(raw_generator)
    length = as_integer(raw_length, "N", 1)
    marginal = None
    if raw_probs is not None:
        if isinstance(raw_probs, str):
            raw_probs = [part.strip() for part in raw_probs.split(",") if part.strip()]
        marginal = Marginal(raw_probs)
        k = None if raw_k is None else as_integer(raw_k, "K")
        if k is not None and k != marginal.num_categories:
            raise DomainError(f"K={k} conflicts with a {marginal.num_categories}-entry p")
    elif raw_k is not None:
        raise DomainError("K was given without p; set the marginal explicitly")
    delta = None if raw_delta is None else as_delta(raw_delta)
    seed = None if raw_seed is None else as_integer(raw_seed, "seed")
    count = None if raw_count is None else as_integer(raw_count, "count")
    cap = DEFAULT_ENUMERATION_CAP if raw_cap is None else as_integer(raw_cap, "enumeration_cap", 1)

    return RunConfig(spec, length, marginal, delta, seed, count, cap)


def _write_files(outputs: list[tuple[str, Iterable[bytes]]]) -> None:
    """Write each (path, pieces) pair atomically, the pieces being bytes.

    Every file is first written in full to a temp file in its target
    directory; only then are they moved into place with `os.replace`.  A
    symlink is followed, so its target is replaced and the link kept, and a
    replaced file keeps its permission bits (not its owner).  A file that
    comes later describes earlier ones (a sidecar after its data): its old
    version is removed before, and the new one moved in after, the files it
    describes, so it never sits beside data it does not describe.  On any
    error the temp files are removed; an error while writing them leaves
    every final path as it was.  A path that exists but is not a regular
    file (a device, a FIFO) cannot be replaced and is written directly.
    """
    moves = []
    try:
        for path, pieces in outputs:
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                with open(path, "wb") as handle:
                    handle.writelines(pieces)
                continue
            target = os.path.realpath(path)
            directory, name = os.path.split(target)
            temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
            with open(temp, "xb") as handle:
                moves.append((temp, target))
                handle.writelines(pieces)
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
        for _, target in moves[1:]:
            if os.path.lexists(target):
                os.unlink(target)
        for temp, target in moves:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in moves:
            if os.path.lexists(temp):
                os.unlink(temp)
        raise


def _batch_blocks(batch: SampleBatch, fmt: str) -> Iterator[bytes]:
    """The CSV or JSONL file of `batch` in blocks of about _WRITE_BLOCK_CELLS cells.

    Only one block of rows is encoded at a time, so the memory this takes
    is bounded by the block, not by the batch's count.
    """
    rows = max(1, _WRITE_BLOCK_CELLS // batch.length)
    for start in range(0, max(batch.count, 1), rows):
        if fmt == "csv":
            text = batch.to_csv(start, start + rows, header=start == 0)
        else:
            text = batch.to_jsonl(start, start + rows)
        yield text.encode("ascii")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_files([(out_path, [text.encode("utf-8")])])


def cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    if config.length < 2:
        _emit("generator domain is empty below n = 2; nothing to check\n", args.out)
        return EXIT_OK
    report = validate(config.spec, config.length)
    if report.ok:
        _emit(
            f"generator {config.spec.kind!r} valid for n in 2..{report.max_index}\n",
            args.out,
        )
        return EXIT_OK
    lines = [violation.reason for violation in report.violations]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VALIDATION


def cmd_graph(config: RunConfig, args: argparse.Namespace) -> int:
    tree = build_tree(config.spec, config.length)
    if args.format == "dot":
        _emit(export_dot(tree), args.out)
    else:
        _emit(tree.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_covariance(config: RunConfig, args: argparse.Namespace) -> int:
    marginal = config.require_marginal()
    delta = config.require_delta()
    m, n = as_integer(args.m, "m"), as_integer(args.n_pos, "n", 1, config.length)

    if args.method == "both":
        if args.format == "csv":
            raise DomainError("method 'both' reports two matrices; use --format json")
        enumerated = cross_covariance_enumerated(
            marginal, delta, config.spec, m, n, config.enumeration_cap
        )
        closed = cross_covariance_closed_form(marginal, delta, config.spec, m, n)
        discrepancy = float(np.max(np.abs(enumerated.matrix - closed.matrix)))
        payload = {
            "m": m,
            "n": n,
            "exponent_basis": BASIS_THEOREM,
            "method": "both",
            "enumerated": [[float(v) for v in row] for row in enumerated.matrix],
            "closed_form": [[float(v) for v in row] for row in closed.matrix],
            "max_abs_discrepancy": discrepancy,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK

    if args.method == "enumerate":
        cov = cross_covariance_enumerated(
            marginal, delta, config.spec, m, n, config.enumeration_cap
        )
    else:
        cov = cross_covariance_closed_form(marginal, delta, config.spec, m, n)
    if args.format == "csv":
        _emit(cov.to_csv(), args.out)
    else:
        _emit(json.dumps(cov.to_json_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_sample(config: RunConfig, args: argparse.Namespace) -> int:
    marginal = config.require_marginal()
    delta = config.require_delta()
    if config.seed is None:
        raise DomainError("sampling needs a seed: set \"seed\" or --seed")
    if config.count is None:
        raise DomainError("sampling needs a count: set \"count\" or --count")
    batch = sample_batch(
        marginal,
        delta,
        config.spec,
        config.length,
        config.count,
        config.seed,
        workers=as_integer(args.workers, "workers"),
    )
    suffix = "csv" if args.format == "csv" else "jsonl"
    data_path = f"{args.out_prefix}.{suffix}"
    meta_path = f"{args.out_prefix}.meta.json"
    _write_files(
        [
            (data_path, _batch_blocks(batch, args.format)),
            (meta_path, [batch.metadata_json().encode("utf-8")]),
        ]
    )
    sys.stdout.write(f"wrote {data_path}\nwrote {meta_path}\n")
    return EXIT_OK


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    marginal = config.require_marginal()
    delta = config.require_delta()
    checks = verification_suite(
        marginal, delta, config.spec, config.length, config.enumeration_cap
    )
    lines = []
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"{check.name}: max error {check.max_error:.12g} "
            f"(tolerance {check.tolerance:.12g}) {status}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(check.passed for check in checks) else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override its fields")
    shared.add_argument("--generator", help="builtin kind or generator JSON object")
    shared.add_argument("--n", help="sequence length N")
    shared.add_argument("--k", help="category count K (must match p)")
    shared.add_argument("--p", help="comma-separated marginal probabilities")
    shared.add_argument("--delta", help="dependency coefficient in [0,1]")
    shared.add_argument("--seed", help="64-bit sampling seed")
    shared.add_argument("--count", help="number of sequences to sample")
    shared.add_argument("--cap", help="enumeration cap on K**N")
    shared.add_argument("--out", help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="depcat",
        description="Dependent categorical sequences: validation, exact analysis, sampling.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "validate", parents=[shared], help="check the generator axioms up to N"
    )

    graph = commands.add_parser(
        "graph", parents=[shared], help="emit the dependency tree"
    )
    graph.add_argument("--format", choices=("dot", "json"), default="dot")

    covariance = commands.add_parser(
        "covariance", parents=[shared], help="cross-covariance matrix of two positions"
    )
    covariance.add_argument("m", help="earlier position")
    covariance.add_argument("n_pos", metavar="n", help="later position (m < n <= N)")
    covariance.add_argument(
        "--method", choices=("enumerate", "closed", "both"), default="both"
    )
    covariance.add_argument("--format", choices=("json", "csv"), default="json")

    sample = commands.add_parser(
        "sample", parents=[shared], help="draw a seeded batch and write it to files"
    )
    sample.add_argument(
        "--out-prefix", required=True, help="output path prefix for batch + sidecar"
    )
    sample.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sample.add_argument(
        "--workers",
        default=1,
        help="accepted for compatibility, no effect: batches are drawn on one thread",
    )

    commands.add_parser(
        "verify", parents=[shared], help="run the exact-route agreement checks"
    )

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads with: built on its first call, then kept.

    Building it costs more than a small `verify`, and `parse_args` leaves
    no state in it, so in-process callers pay once.  Not built at import,
    so importing `depcat.cli` stays cheap.
    """
    return build_parser()


_COMMANDS = {
    "validate": cmd_validate,
    "graph": cmd_graph,
    "covariance": cmd_covariance,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config, args)
    except EnumerationTooLargeError as exc:
        print(f"error: {exc}; reduce N or raise the cap", file=sys.stderr)
        return EXIT_CAP
    except AxiomViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DepcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
