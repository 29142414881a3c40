"""Seeded Monte Carlo generation of dependent sequences.

Every draw is an inverse-CDF lookup.  Position 1 samples the base
distribution; every later position samples the kernel row selected by its
parent's realized category (parents precede children, so one left-to-right
pass suffices).  A row's cut points are its cumulative sums with the last
forced to 1.0, and a uniform u in (0, 1] draws category
1 + #{c : cut[c] < u}: right-closed inverse-CDF bucketing.

The count is read from a guide table (Chen & Asau 1974; Devroye 1986,
section III.2), built once per call.
Its K + 1 rows are the base and the K kernel rows.  Its columns are the
buckets [b/G, (b+1)/G) for b = 0..G, where G = 2^g is a power of two of
about 32 K, capped so that the guide and the bucket-start table together
hold at most a fixed number of entries.  A start entry holds 1 + the
number of the row's cuts below b/G; a guide entry holds the same for a
bucket that holds no cut of the row, and 0 for one that does.

A uniform is u = m * 2^-53 for a 53-bit integer mantissa m in 1..2^53
(see `depcat.rng`), so its bucket floor(u G) is the integer shift
m >> (53 - g), exactly, with no float pass.  A draw reads the guide entry
at its bucket.  Only a 0 refines: the draw starts from the bucket's first
cut, the one at its start entry, and steps forward while that cut lies
below u.

The lookup is exact, not approximate.  b/G <= u < (b+1)/G, so a bucket
that holds no cut holds none in [b/G, u) either, and the count below u
equals the count below b/G.  The refinement is exact because the cuts
below u are a prefix of the row: cuts rise until they pass 1, and every
later cut, the forced last cut 1.0 included, is >= u.  Outcomes are
therefore bit-identical to right-closed inverse-CDF bucketing, also for
zero-probability categories, for rows whose cumulative sum overshoots 1.0,
and for u = 1.0 (bucket G holds the cut at 1.0 and always refines).  A
refined draw steps over at most the cuts its bucket holds, not over K:
while G is about 32 K only the buckets holding a cut refine, about K/G of
the draws; when the budget caps G (G = 256 at K = 4096) every draw may
refine, over about K/G cuts.

Every batch is drawn on the calling thread, a block of 2^14 rows at a
time, in buffers made once per call: the block's stream keys are mixed
once, and each group of positions gets its mantissas, bucket indices and
parent rows, so the loop allocates no array per position or group.  Only
refinement makes arrays, the size of its refined draws.

Draws go into a position-major tile of at most _TILE positions by the
block's rows, so each position's draws are one contiguous tile row.  A
position reads its parent's draws from the parent's tile row when the
parent lies in the current tile, and from the parent's column of the
row-major block otherwise.  A finished tile is written back into the
block with one transposed assignment, or column by column when the
block's rows hold at most _COLUMNS_MAX_ROW_BYTES, where numpy's
transposed copy would iterate the short rows.

Batches are a pure function of (seed, parameters); row blocks and tiles
cannot change the result because the underlying variates are
counter-based.  `workers` is accepted for compatibility and has no
effect.  Outcomes are stored in the smallest unsigned dtype that holds K
(`np.min_scalar_type(K)`: uint8 up to K = 255, uint16 up to K = 65535),
the dtype of the guide table and of the tile; index arithmetic on them is
done in intp, so no narrow value ever wraps.  Batch text is encoded by gathering the bytes of each
outcome from a token table, with the same bytes as formatting each cell
with str().
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyBatchError
from .exact import CrossCovariance, _check_pair_positions
from .generators import GeneratorSpec, check_integer
from .graph import build_tree
from .kernel import DeltaLike, Marginal, MarginalLike, as_delta, as_marginal, transition_kernel
from .rng import _MANTISSA_BITS, _UNIT, ALGORITHM_ID, stream_keys, uniform_grid


# The guide and bucket-start tables hold at most this many entries together,
# whatever K is.
_TABLE_BUDGET = 1 << 22
_BUCKETS_PER_CUT = 32
_MIN_BUCKETS = 1024
# Rows are drawn in blocks of _BLOCK_ROWS, the mantissas of a block are
# generated about _GRID_VARIATES at a time, and its draws go through a tile
# of at most _TILE positions, so the scratch memory is bounded
# whatever `count` and the length are.  The tiles of a block whose rows hold
# at most _COLUMNS_MAX_ROW_BYTES are written back column by column.  Both
# constants are backed by the timings in BENCH_9.json (`tile_width`,
# `write_back`).
_BLOCK_ROWS = 1 << 14
_GRID_VARIATES = 1 << 15
_TILE = 32
_COLUMNS_MAX_ROW_BYTES = 16
# Outcome files: a CSV row is the cells joined by ","; a JSONL row is the
# compact JSON array, so the same cells framed by "[" and "]".
_CSV_FRAME = (b"", b"\n")
_JSONL_FRAME = (b"[", b"]\n")
_PAD = ord(" ")
# No batch is drawn on a thread pool.  The name stays because the
# benchmark's tracer (bench/spans.py) patches it when it installs.
ThreadPoolExecutor = None


@dataclass(frozen=True, eq=False)
class _DrawTable:
    """Row 0 of `cuts` is the base cumulative, row j the cumsum of kernel row j.

    `start[j, b]` is 1 + #{c : cuts[j, c] < b/G} for the bucket [b/G, (b+1)/G);
    `guide[j, b]` is the same for a bucket holding no cut of row j, and 0 for
    a bucket that holds one.
    """

    cuts: np.ndarray  # (K+1, K) float64
    guide: np.ndarray  # (K+1, G+1) smallest unsigned dtype holding K
    start: np.ndarray  # (K+1, G+1), the guide's dtype
    buckets: int  # G, a power of two

    @property
    def shift(self) -> int:
        """floor(m * 2^-53 * G) == m >> shift for every mantissa m."""
        return _MANTISSA_BITS - (self.buckets.bit_length() - 1)


class _Scratch:
    """The draw buffers, made once per `sample_batch` call.

    `mantissas` and `words` hold `variates` entries each, a group of
    positions of one block of `rows` rows; `words` is the mixing scratch
    (of the block's stream keys too) and then, viewed as intp, the group's
    guide-table indices.  Row i of `tile` holds the draws of the tile's
    i-th position.
    """

    def __init__(self, variates: int, rows: int, positions: int, dtype: np.dtype):
        self.mantissas = np.empty(variates, dtype=np.uint64)
        self.words = np.empty(variates, dtype=np.uint64)
        self.offset = np.empty(rows, dtype=np.intp)
        self.held = np.empty(rows, dtype=bool)
        self.tile = np.empty((positions, rows), dtype=dtype)


@functools.lru_cache(maxsize=8)
def _token_table(num_categories: int) -> np.ndarray:
    """Row v: the digits of v right-aligned in W = len(str(K)) bytes, then ","."""
    width = len(str(num_categories))
    text = "".join(f"{v:>{width}}," for v in range(num_categories + 1))
    table = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return table.reshape(num_categories + 1, width + 1)


def _encode_rows(rows: np.ndarray, num_categories: int, frame: tuple[bytes, bytes]) -> str:
    """The text of `rows` (entries in 1..K), each row framed by (prefix, terminator).

    The tokens of a block of rows are gathered from the token table into
    one uint8 buffer, and the terminator is written over each row's last
    separator.  With K <= 9 every token has the same width and the buffer
    is the text as it stands; wider K drops the pad bytes with one mask.
    A prefix, or a terminator of more than one byte (JSONL), costs one more
    pass over the block to frame its rows.
    """
    tokens = _token_table(num_categories)
    prefix, terminator = frame
    count, length = rows.shape
    cells = np.take(tokens, rows, axis=0, mode="clip").reshape(count, length * tokens.shape[1])
    if prefix or len(terminator) > 1:
        cells = np.concatenate(
            [
                np.broadcast_to(np.frombuffer(prefix, dtype=np.uint8), (count, len(prefix))),
                cells,
                np.empty((count, len(terminator) - 1), dtype=np.uint8),
            ],
            axis=1,
        )
    cells[:, cells.shape[1] - len(terminator) :] = np.frombuffer(terminator, dtype=np.uint8)
    if tokens.shape[1] > 2:
        cells = cells[cells != _PAD]
    return cells.tobytes().decode("ascii")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Realized sequences plus everything needed to regenerate them.

    The batch keeps a read-only, C-contiguous array of outcomes whose
    integer dtype casts safely to intp.  One passed in that form (as
    `sample_batch` does, in the smallest unsigned dtype that holds K) is
    kept as it is; any other input is range-checked and then copied into
    that dtype, so a caller's array is never frozen or aliased.  `seed`,
    `marginal` and `delta` are read by the library's rules (`check_integer`,
    `as_marginal`, `as_delta`), so the metadata holds only values they accept.
    """

    outcomes: np.ndarray  # (count, length) np.min_scalar_type(K), entries in 1..K
    seed: int
    marginal: Marginal
    delta: float
    spec: GeneratorSpec

    def __post_init__(self):
        object.__setattr__(self, "seed", check_integer(self.seed, "seed"))
        object.__setattr__(self, "marginal", as_marginal(self.marginal))
        object.__setattr__(self, "delta", as_delta(self.delta))
        k = self.marginal.num_categories
        outcomes = self.outcomes
        if not (isinstance(outcomes, np.ndarray) and outcomes.dtype.kind in "iu"):
            outcomes = np.asarray(outcomes, dtype=np.int64)
        if outcomes.ndim != 2 or outcomes.shape[1] < 1:
            raise DomainError("batch outcomes must be a 2-D array with at least one position")
        # Checked in the input's own dtype: a cast first would wrap 257 to 1.
        if outcomes.size and (outcomes.min() < 1 or outcomes.max() > k):
            raise DomainError("batch entries must lie in 1..K")
        if not (
            outcomes is self.outcomes
            and outcomes.flags.c_contiguous
            and not outcomes.flags.writeable
            and np.can_cast(outcomes.dtype, np.intp)
        ):
            outcomes = outcomes.astype(np.min_scalar_type(k), order="C")
            outcomes.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def count(self) -> int:
        return int(self.outcomes.shape[0])

    @property
    def length(self) -> int:
        return int(self.outcomes.shape[1])

    @property
    def num_categories(self) -> int:
        return self.marginal.num_categories

    def metadata(self) -> dict:
        return {
            "algorithm": ALGORITHM_ID,
            "seed": self.seed,
            "count": self.count,
            "N": self.length,
            "K": self.num_categories,
            "p": [float(v) for v in self.marginal.probs],
            "delta": self.delta,
            "generator": self.spec.to_dict(),
        }

    def to_csv(self, start: int = 0, stop: int | None = None, *, header: bool = True) -> str:
        """One row per sequence; header names the positions e1..eN.

        `start` and `stop` pick rows as a slice does and `header=False` leaves
        the header out, so a large batch can be written a block at a time.
        """
        text = _encode_rows(self.outcomes[start:stop], self.num_categories, _CSV_FRAME)
        if not header:
            return text
        return ",".join(f"e{i}" for i in range(1, self.length + 1)) + "\n" + text

    def to_jsonl(self, start: int = 0, stop: int | None = None) -> str:
        """One compact JSON array per line; `start`/`stop` pick rows as a slice does."""
        return _encode_rows(self.outcomes[start:stop], self.num_categories, _JSONL_FRAME)

    def metadata_json(self) -> str:
        return json.dumps(self.metadata(), sort_keys=True, indent=2) + "\n"


def _draw_table(marginal: Marginal, delta: float) -> _DrawTable:
    """Cut points, bucket starts and guide table, shared read-only by every draw of a call."""
    k = marginal.num_categories
    cuts = np.empty((k + 1, k), dtype=np.float64)
    cuts[0] = np.cumsum(marginal.probs)
    np.cumsum(transition_kernel(marginal, delta), axis=1, out=cuts[1:])
    # Forcing the final cut to 1.0 pairs with uniforms in (0, 1]: every
    # draw lands in exactly one right-closed bucket.
    cuts[:, -1] = 1.0

    buckets = max(_MIN_BUCKETS, 1 << (_BUCKETS_PER_CUT * k - 1).bit_length())
    while buckets > 1 and 2 * (k + 1) * (buckets + 1) > _TABLE_BUDGET:
        buckets //= 2

    # A cut lies below b/G exactly when its bucket floor(cut*G) lies below b;
    # cuts above 1 (a cumulative sum that overshoots) are never below a
    # uniform and join the last bucket, which always holds the cut at 1.0.
    # Cuts are >= 0, so the cast's truncation is the floor; writing straight
    # into the integer holdings makes no (K+1) x K float temporary.
    holding = np.empty((k + 1, k), dtype=np.intp)
    np.multiply(cuts, buckets, out=holding, casting="unsafe")
    np.minimum(holding, buckets, out=holding)
    start = np.empty((k + 1, buckets + 1), dtype=np.min_scalar_type(k))
    guide = np.empty_like(start)
    for row_start, row_guide, held in zip(start, guide, holding):
        counts = np.bincount(held, minlength=buckets + 1)
        row_start[:] = np.cumsum(counts) - counts + 1
        row_guide[:] = np.where(counts, 0, row_start)
    return _DrawTable(cuts, guide, start, buckets)


def _draw_block(
    table: _DrawTable,
    parents: np.ndarray,
    mantissas: np.ndarray,
    block: np.ndarray,
    tile_first: int,
    first_column: int,
    scratch: _Scratch,
) -> None:
    """Positions first_column, first_column + 1, ... of `block`, one per row of `mantissas`.

    `mantissas` is a (width, rows) uint64 group of `uniform_grid` mantissas.
    The tile `scratch.tile` holds positions tile_first, tile_first + 1, ...
    of the block's rows, and the draws of column c go into its row
    c - tile_first.  Draws position by position: a column reads the kernel
    row of its parent's draw, from the tile when the parent's column is
    tile_first or later, else from `block`, which must already hold it.
    """
    width, rows = mantissas.shape
    k = table.cuts.shape[1]
    stride = np.intp(table.buckets + 1)
    guide, start, cuts = table.guide.ravel(), table.start.ravel(), table.cuts.ravel()
    # Bucket b = floor(u*G) = m >> (53 - g) of the whole group in one shift.
    index = scratch.words[: width * rows].reshape(width, rows)
    np.right_shift(mantissas, table.shift, out=index)
    index = index.view(np.intp)
    tile = scratch.tile[:, :rows]
    offset, held = scratch.offset[:rows], scratch.held[:rows]
    for position in range(width):
        column = first_column + position
        bucket = index[position]
        values = tile[column - tile_first]
        if column:  # position 1 reads row 0, the others the row of their parent's draw
            parent = parents[column - 1] - 1
            # Widened by a copy, then scaled in place: a mixed-dtype multiply
            # would allocate a cast buffer on every call.
            offset[:] = tile[parent - tile_first] if parent >= tile_first else block[:, parent]
            offset *= stride
            bucket += offset
        guide.take(bucket, out=values, mode="clip")
        np.equal(values, 0, out=held)
        hit = held.nonzero()[0]
        if hit.size:
            # The cuts below u are a prefix of the row: start from the first
            # cut not below the bucket's start and step past those below u.
            # The forced last cut 1.0 is never below u, so no step leaves the row.
            flat = bucket[hit]
            cut = flat // stride * k
            cut += start[flat]
            cut -= 1
            u = mantissas[position, hit] * _UNIT
            while True:
                below = cuts[cut] < u
                if not below.any():
                    break
                cut += below
            values[hit] = cut % k + 1


def sample_batch(
    p: MarginalLike,
    delta: DeltaLike,
    spec: GeneratorSpec,
    length: int,
    count: int,
    seed: int,
    workers: int = 1,
    first_index: int = 0,
) -> SampleBatch:
    """Draw `count` sequences of the given length, keyed per sequence index.

    The batch holds rows first_index .. first_index + count - 1 of the
    seed's grid, so any range of rows can be drawn on its own.  Rows are
    drawn on the calling thread in blocks of _BLOCK_ROWS, and each block a
    tile of positions at a time: the block's stream keys are mixed once,
    and its mantissas are generated a group of positions at a time into
    buffers made once per call, so the scratch memory depends on neither
    `count` nor the sequence length.  `workers` must be an integer >= 1;
    it is accepted for compatibility and has no effect.
    """
    marginal = as_marginal(p)
    d = as_delta(delta)
    count = check_integer(count, "count", 0)
    first_index = check_integer(first_index, "first_index", 0)
    check_integer(workers, "workers", 1)
    seed = check_integer(seed, "seed")  # before the tree and table are built
    tree = build_tree(spec, length)  # validates the generator up to length
    table = _draw_table(marginal, d)

    outcomes = np.empty((count, length), dtype=table.guide.dtype)
    if count:  # the group width below divides by the block's rows
        rows = min(count, _BLOCK_ROWS)
        variates = rows * min(length, _TILE, max(1, _GRID_VARIATES // rows))
        scratch = _Scratch(variates, rows, min(length, _TILE), table.guide.dtype)
        for start in range(0, count, _BLOCK_ROWS):
            block = outcomes[start : start + _BLOCK_ROWS]
            rows = block.shape[0]
            first = first_index + start
            keys = stream_keys(seed, first, rows, scratch=scratch.words[:rows])
            width = min(_TILE, variates // rows)
            for tile_first in range(0, length, _TILE):
                tile_stop = min(tile_first + _TILE, length)
                for column in range(tile_first, tile_stop, width):
                    size = min(width, tile_stop - column) * rows
                    group = scratch.mantissas[:size].reshape(-1, rows)
                    words = scratch.words[:size].reshape(group.shape)
                    uniform_grid(
                        seed, first, rows, len(group), column,
                        keys=keys, mantissas=group, scratch=words,
                    )
                    _draw_block(table, tree.parents, group, block, tile_first, column, scratch)
                tile = scratch.tile[: tile_stop - tile_first, :rows]
                if block.shape[1] * block.itemsize <= _COLUMNS_MAX_ROW_BYTES:
                    for column, values in enumerate(tile, start=tile_first):
                        block[:, column] = values
                else:
                    block[:, tile_first:tile_stop] = tile.T

    outcomes.flags.writeable = False
    return SampleBatch(outcomes, seed, marginal, d, spec)


@dataclass(frozen=True, eq=False)
class EmpiricalMarginal:
    """Category counts at one position; counts sum to the batch size exactly."""

    position: int
    counts: np.ndarray
    total: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total


def empirical_marginals(batch: SampleBatch, position: int) -> EmpiricalMarginal:
    """Observed category frequencies at a position."""
    if batch.count == 0:
        raise EmptyBatchError("cannot compute marginals of an empty batch")
    position = check_integer(position, "position", 1, batch.length)
    # Counted in intp as they stand (entry v lands in bin v, bin 0 stays
    # empty), so no dtype is ever shifted or wrapped.
    column = batch.outcomes[:, position - 1].astype(np.intp)
    counts = np.bincount(column, minlength=batch.num_categories + 1)[1:]
    return EmpiricalMarginal(position, counts, batch.count)


def empirical_cross_covariance(batch: SampleBatch, m: int, n: int) -> CrossCovariance:
    """Sample covariance of position indicators (population-normalized)."""
    if batch.count == 0:
        raise EmptyBatchError("cannot compute covariance of an empty batch")
    _check_pair_positions(m, n)
    check_integer(n, "position", 1, batch.length)
    # Pair (i, j) lands in bin i (K+1) + j, an index computed in intp.
    width = batch.num_categories + 1
    pairs = batch.outcomes[:, m - 1].astype(np.intp)
    pairs *= width
    pairs += batch.outcomes[:, n - 1]
    counts = np.bincount(pairs, minlength=width * width)
    joint = counts.reshape(width, width)[1:, 1:] / batch.count
    matrix = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))
    return CrossCovariance(m, n, matrix, "empirical")
