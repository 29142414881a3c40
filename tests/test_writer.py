"""Batch files: byte-identical CSV/JSONL, streamed in bounded memory."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depcat.sampler
from depcat import GeneratorSpec, sample_batch
import depcat.cli
from depcat.cli import EXIT_OK, _batch_blocks, _write_files, main
from depcat.kernel import as_marginal
from depcat.sampler import SampleBatch


def per_row_oracle(outcomes, fmt):
    """The writer before the byte encoder, kept as the reference.

    CSV joins `str(int(v))` per cell under an e1..eN header; JSONL writes
    `json.dumps` of each row with compact separators.
    """
    if fmt == "csv":
        lines = [",".join(f"e{i}" for i in range(1, outcomes.shape[1] + 1))]
        lines += [",".join(str(int(v)) for v in row) for row in outcomes]
        return "\n".join(lines) + "\n"
    lines = [json.dumps([int(v) for v in row], separators=(",", ":")) for row in outcomes]
    return "\n".join(lines) + ("\n" if lines else "")


def assert_same_text(actual, expected):
    """Equal texts; a difference is reported by its first differing line.

    pytest's own diff of two long texts whose lines all differ takes minutes.
    """
    if actual != expected:
        got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
        line = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
        )
        pytest.fail(
            f"line {line + 1} of {len(got)} (expected {len(want)}) differs: "
            f"{got[line : line + 1]!r} != {want[line : line + 1]!r}"
        )


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def zero_category_marginal(k):
    weights = np.arange(1, k + 1, dtype=np.float64)
    weights[k // 2] = 0.0
    return list(weights / weights.sum())


def uniform_batch(outcomes, k):
    return SampleBatch(outcomes, 0, as_marginal(np.full(k, 1 / k)), 0.5, GeneratorSpec.builtin("fk"))


# sha256 of the CSV file, the JSONL file and the sidecar, recorded from the
# per-row str/json.dumps writer that the byte encoder replaced.  The sidecar
# values were re-recorded when it gained "first_index": 0, the one key added.
GOLDENS = {
    "k3-n64": (
        ([0.5, 0.3, 0.2], 0.4, "floor_sqrt", 64, 5000, 7),
        "e5e9f9b744cf444f9d552ef97b6cece77fb1aa0c819853982ad1262e8789e27c",
        "6425b5c345c87088958cf1e619b99e1d1d68ef3ee84cea2c13d4268f2b185826",
        "5b28ca83b6aae55fd99977a620b4891ec41e40b9c7f823395e0fc04f2391db98",
    ),
    "k9": (
        (list(np.full(9, 1 / 9)), 0.3, "sequential", 12, 700, 21),
        "11b666df0902290db5d8bb3b6f23a8c927565237ffa092cba41b369b25ade343",
        "21f0e577f3476a19e8828f29f533e8f187fd32643cdc5a9ab98e43049db13b33",
        "1365572a8ab9b68f3ca7c1e596a82bcdfdf4279310a5af70dae429c00db2596c",
    ),
    "k10": (
        (list(np.full(10, 1 / 10)), 0.5, "sin_drift", 12, 700, 22),
        "1dca0e781f793cdfe64834405a065b74209c8188f3ad8fbcdc9d980e0f8367e9",
        "cf223b574ee85d0e55f32a16fdcbed5d77ad4df1dcf4cfdf87b4f571b10b7098",
        "5571986e6f6d3d3b4f7323c08acc2c7ebcc41016b27712ab1981faf367b24632",
    ),
    "k300-zero-category": (
        (zero_category_marginal(300), 0.2, "fk", 16, 400, 23),
        "46f23a3db5fd83e5c76a06088150635fadd0dd6ad34ab2dc88c39ef7b4fb151e",
        "4eaaa6541f291d9e4174080922656e26854ab45254d51229a80d4ac039554c97",
        "9f19441ce46d66774da560b0a8fec1c3b6234727d6be74839721ee0be0360d86",
    ),
    "count0": (
        ([0.5, 0.3, 0.2], 0.4, "floor_sqrt", 8, 0, 24),
        "2dd3d6af63eb6e56a1b31eedd10a9f28110578521e4d368f34e9ad841148f965",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a5005cd3150daf516b1309e4a69122c334f334db13ffbcd7a1109c817e2003ef",
    ),
    "n1": (
        (list(np.full(12, 1 / 12)), 0.7, "sequential", 1, 300, 25),
        "a16325243914383d662b6a69e61b104c4047b99a01fe966d6072bbc6a629e463",
        "ccb46c8a527562f7c40d284add686afa0338d274bdd03895f856161d67d184a1",
        "e69f3e0bbb4aea953f27a8fd207d2a88ec2ba7ec83349942d32dfd809a541893",
    ),
}


class TestGoldens:
    @pytest.mark.parametrize("case", list(GOLDENS))
    def test_library_text(self, case):
        (p, delta, kind, length, count, seed), csv, jsonl, _ = GOLDENS[case]
        batch = sample_batch(p, delta, GeneratorSpec.builtin(kind), length, count, seed)
        assert sha256(batch.to_csv().encode()) == csv
        assert sha256(batch.to_jsonl().encode()) == jsonl

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("case", list(GOLDENS))
    def test_cli_files(self, case, fmt, tmp_path, capsys):
        (p, delta, kind, length, count, seed), csv, jsonl, meta = GOLDENS[case]
        prefix = tmp_path / "batch"
        argv = [
            "sample", "--generator", kind, "--p", ",".join(repr(float(v)) for v in p),
            "--delta", repr(delta), "--n", str(length), "--count", str(count),
            "--seed", str(seed), "--format", fmt, "--out-prefix", str(prefix),
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        data = (tmp_path / f"batch.{fmt}").read_bytes()
        assert sha256(data) == {"csv": csv, "jsonl": jsonl}[fmt]
        assert sha256((tmp_path / "batch.meta.json").read_bytes()) == meta
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"batch.{fmt}", "batch.meta.json"
        ]

    def test_empty_batch(self):
        batch = sample_batch([0.5, 0.3, 0.2], 0.4, GeneratorSpec.builtin("floor_sqrt"), 8, 0, 24)
        assert batch.to_csv() == "e1,e2,e3,e4,e5,e6,e7,e8\n"
        assert batch.to_jsonl() == ""


class TestEncoderAgainstOracle:
    @given(
        k=st.sampled_from([2, 9, 10, 99, 100, 999, 1000, 4096]) | st.integers(2, 1200),
        length=st.integers(min_value=1, max_value=40),
        block_cells=st.sampled_from([1, 7, 64, 1000]),
        rows=st.sampled_from(["block-1", "block", "block+1"]) | st.integers(0, 60),
        fmt=st.sampled_from(["csv", "jsonl"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_rule(self, k, length, block_cells, rows, fmt, seed):
        block = max(1, block_cells // length)
        if isinstance(rows, str):
            rows = max(0, block + {"block-1": -1, "block": 0, "block+1": 1}[rows])
        outcomes = np.random.default_rng(seed).integers(1, k + 1, size=(rows, length))
        if outcomes.size >= 2:
            outcomes.flat[:2] = [1, k]  # the narrowest and the widest token
        batch = uniform_batch(outcomes, k)
        expected = per_row_oracle(outcomes, fmt)
        assert_same_text(batch.to_csv() if fmt == "csv" else batch.to_jsonl(), expected)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(depcat.cli, "_WRITE_BLOCK_CELLS", block_cells)
            streamed = b"".join(_batch_blocks(batch, fmt)).decode("ascii")
        assert_same_text(streamed, expected)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_row_counts_around_the_real_block(self, fmt, offset):
        length = 64
        rows = depcat.cli._WRITE_BLOCK_CELLS // length + offset
        spec = GeneratorSpec.builtin("floor_sqrt")
        batch = sample_batch([0.5, 0.3, 0.2], 0.4, spec, length, rows, 3)
        streamed = b"".join(_batch_blocks(batch, fmt)).decode("ascii")
        assert_same_text(streamed, per_row_oracle(batch.outcomes, fmt))

    def test_row_ranges_and_header(self):
        outcomes = np.arange(1, 13, dtype=np.int64).reshape(4, 3)
        batch = uniform_batch(outcomes, 12)
        assert batch.to_csv(1, 3, header=False) == "4,5,6\n7,8,9\n"
        assert batch.to_csv(3) == "e1,e2,e3\n10,11,12\n"
        assert batch.to_csv(4, header=False) == ""
        assert batch.to_jsonl(stop=1) == "[1,2,3]\n"
        assert batch.to_jsonl(-1) == "[10,11,12]\n"


def test_streaming_write_memory_does_not_grow_with_count(tmp_path):
    peaks = {}
    for rows in (20_000, 200_000):
        outcomes = np.random.default_rng(rows).integers(1, 13, size=(rows, 8))
        batch = uniform_batch(outcomes, 12)
        path = tmp_path / f"rows-{rows}.csv"
        tracemalloc.start()
        try:
            _write_files([(str(path), _batch_blocks(batch, "csv"))])
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if rows == 20_000:
            assert_same_text(path.read_text(), per_row_oracle(outcomes, "csv"))
    # Ten times the rows, and a file ten times larger, but the same peak:
    # only one block of rows is encoded at a time.
    assert peaks[200_000] <= peaks[20_000] + 256 * 1024
    assert peaks[200_000] < (tmp_path / "rows-200000.csv").stat().st_size / 3
