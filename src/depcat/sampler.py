"""Seeded Monte Carlo generation of dependent sequences.

Every draw is an inverse-CDF lookup.  Position 1 samples the base
distribution; every later position samples the kernel row selected by its
parent's realized category (parents precede children, so one left-to-right
pass suffices).  A row's cut points are its cumulative sums with the last
forced to 1.0, and a uniform u in (0, 1] draws category
1 + #{c : cut[c] < u}: right-closed inverse-CDF bucketing.

The count is read from a bucket index (Chen & Asau 1974; Devroye 1986,
section III.2), built once per call.  Its K + 1 rows are the base and the
K kernel rows.  Its columns are the buckets [b/G, (b+1)/G) for b = 0..G,
where G = 2^g is the largest power of two up to 4 K, at least 64, and
capped so that the bucket tables take at most _TABLE_BUDGET bytes.  Per
row and bucket it keeps a start, 1 + the number of the row's cuts below
b/G, and a threshold.

A uniform is u = m * 2^-53 for a 53-bit integer mantissa m in 1..2^53
(see `depcat.rng`), so its bucket floor(u G) is the integer shift
m >> (53 - g), exactly, with no float pass.  A cut c is exact after
scaling by 2^53, so c < u exactly when T = floor(c * 2^53) < m: one
integer compare.  A bucket's threshold is the T of the row's first cut
not below b/G.  When every cut of the bucket has that T, the bucket's
J cuts are all below u or none is, so the draw is start[b] + J * [T < m],
and start[b] + J is start[b + 1].  J counts repeated cuts too: those of
zero-probability categories, and the all-0 and all-1 cuts of delta = 1.
An empty bucket's threshold belongs to a cut above it, and bucket G's to
a cut at or above 1, so neither is ever below u.

Only a bucket whose cuts give two values of T below 1 is marked for
refinement, by the threshold _REFINE, which is below no mantissa; a
table without such a bucket never looks for one.  A marked draw searches
its bucket's start[b + 1] - start[b] cuts by halving: the cuts below u
are a prefix of the row (cuts rise until they pass 1, and every later
cut, the forced last cut 1.0 included, is >= u), so a refined draw takes
about log2 of the most cuts in one bucket steps.  That happens for cuts
closer than 1/G, and for every draw when the budget caps G (G = 256 at
K = 4096).  Outcomes are therefore bit-identical to right-closed
inverse-CDF bucketing, also for zero-probability categories, for rows
whose cumulative sum overshoots 1.0, and for u = 1.0.

Every batch is drawn on the calling thread, a block of 2^14 rows at a
time, in buffers made once per call: the block's stream keys are mixed
once, and each group of positions gets its mantissas, bucket indices and
parent rows, so the loop allocates no array per position or group.  Only
refinement makes arrays: one mark per row, and the refined draws.

Draws go into a position-major tile of at most _TILE positions by the
block's rows, so each position's draws are one contiguous tile row.  A
position reads its parent's draws from the parent's tile row when the
parent lies in the current tile, and from the parent's column of the
row-major block otherwise.  A finished tile is written back into the
block with one transposed assignment.

A parent's draws become row offsets into the table once per run of its
children: the scratch remembers which column its offsets were made from,
and a child of that same column adds them as they are.  In first-kind
dependence every child shares one parent, and floor_sqrt's children come
in runs of about 2 sqrt(n).  A row block's draws change the offsets'
source, so each block starts with none.

Batches are a pure function of (seed, parameters); row blocks and tiles
cannot change the result because the underlying variates are
counter-based.  `workers` is accepted for compatibility and has no
effect.  Outcomes are stored in the smallest unsigned dtype that holds K
(`np.min_scalar_type(K)`: uint8 up to K = 255, uint16 up to K = 65535),
the dtype of the start table and of the tile; index arithmetic on them is
done in intp, so no narrow value ever wraps.  Batch text has the bytes of
formatting each cell with str(): with K <= 9 each cell is one
little-endian uint16 add, its digit and ",", and wider K gathers the
bytes of each outcome from a token table.

`empirical_marginals` and `empirical_cross_covariance` read their counts
from a tally the batch makes on first use: one window of statistics per
arity, counted in one pass over the row blocks, so each block is read once
for the whole window, not once per statistic (loop blocking; Wolf & Lam
1991).  A marginal window covers the aligned positions [a, a + W), and a
pair window the tree edges (alpha(c), c) for the aligned children c in
[a, a + W), with a - 1 a multiple of W.  W is the most statistics whose
intp counts fit _TALLY_BUDGET (256 KiB), at most _TALLY_POSITIONS (64) and
at least 1: at K = 64 one window holds all 64 positions, or 7 edges, and
from K = 181 on a pair window holds one edge of (K + 1)^2 counts.  A
statistic outside the held window replaces it; a pair that is not a tree
edge is counted alone and kept nowhere.  So a batch keeps at most one
window per arity, freed with the batch, and a lone call counts up to 64
statistics in place of one.  Each call returns new arrays, never a view of
the held window, which is read-only.  The counts are cached per batch:
outcomes are read-only, and a caller who makes them writeable again and
changes them gets stale statistics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer, check_integers
from .exact import CrossCovariance, _check_pair_positions
from .generators import GeneratorSpec, _check_spec, _parents
from .graph import build_tree
from .kernel import DeltaLike, Marginal, MarginalLike, _kernel_parts, as_delta, as_marginal
from .rng import _INDEX_LIMIT, _MANTISSA_BITS, _UNIT, ALGORITHM_ID, _check_array_size
from .rng import stream_keys, uniform_grid


# The start and threshold tables take at most this many bytes together,
# whatever K is: 16 MiB, so G = 256 at K = 4096.  The bucket constants are
# backed by the timings in BENCH_24.json (`bucket_sizing`).
_TABLE_BUDGET = 1 << 24
_BUCKETS_PER_CUT = 4
_MIN_BUCKETS = 64
# The threshold of a bucket whose cuts give two thresholds: above every
# mantissa and below 2^63, so such a draw keeps its bucket's start until it
# is refined.
_REFINE = np.uint64(2**63 - 1)
# Rows are drawn in blocks of _BLOCK_ROWS, the mantissas of a block are
# generated about _GRID_VARIATES at a time, and its draws go through a tile
# of at most _TILE positions, so the scratch memory is bounded
# whatever `count` and the length are.  _TILE is backed by the timings in
# BENCH_9.json (`tile_width`).
_BLOCK_ROWS = 1 << 14
_GRID_VARIATES = 1 << 15
_TILE = 32
# A batch's window of counts holds at most _TALLY_POSITIONS statistics, and
# as many as fit _TALLY_BUDGET bytes of intp counts (one, when one does not
# fit), so a lone call counts at most _TALLY_POSITIONS statistics.  Backed by
# the timings in BENCH_31.json (`tally_window`).
_TALLY_BUDGET = 1 << 18
_TALLY_POSITIONS = 64
# Outcome files: a CSV row is the cells joined by ","; a JSONL row is the
# compact JSON array, so the same cells framed by "[" and "]".
_CSV_FRAME = (b"", b"\n")
_JSONL_FRAME = (b"[", b"]\n")
_PAD = ord(" ")
# A one-digit cell v is the little-endian uint16 v + _DIGIT_CELL: its digit, then ",".
_DIGIT_CELL = np.uint16(ord("0") + (ord(",") << 8))
# No batch is drawn on a thread pool.  The name stays because the
# benchmark's tracer (bench/spans.py) patches it when it installs.
ThreadPoolExecutor = None


@dataclass(frozen=True, eq=False)
class _DrawTable:
    """Row 0 of `cuts` is the base cumulative, row j the cumsum of kernel row j.

    For the bucket [b/G, (b+1)/G) of row j, `start[j, b]` is
    1 + #{c : cuts[j, c] < b/G}, so bucket b < G holds
    start[j, b + 1] - start[j, b] cuts.  `thresholds[j, b]` is
    floor(c * 2^53) for the row's first cut c not below b/G, or _REFINE
    when the cuts of bucket b < G give floor(c * 2^53) two values.  `depth`
    halving steps resolve the fullest _REFINE bucket; it is 0 when there is
    none.
    """

    cuts: np.ndarray  # (K+1, K) float64
    start: np.ndarray  # (K+1, G+1) smallest unsigned dtype holding K
    thresholds: np.ndarray  # (K+1, G+1) uint64
    buckets: int  # G, a power of two
    depth: int

    @property
    def shift(self) -> int:
        """floor(m * 2^-53 * G) == m >> shift for every mantissa m."""
        return _MANTISSA_BITS - (self.buckets.bit_length() - 1)


class _Scratch:
    """The draw buffers, made once per `sample_batch` call.

    `mantissas` and `words` hold `variates` entries each, a group of
    positions of one block of `rows` rows; `words` is the mixing scratch
    (of the block's stream keys too) and then, viewed as intp, the group's
    table indices.  `offset` and `threshold` hold one position's parent
    rows and gathered thresholds.  `parent` is the 0-based column whose
    rows `offset` holds, or -1 when it holds none; a new block of rows
    resets it.  Row i of `tile` holds the draws of the tile's i-th
    position.
    """

    def __init__(self, variates: int, rows: int, positions: int, dtype: np.dtype):
        self.mantissas = np.empty(variates, dtype=np.uint64)
        self.words = np.empty(variates, dtype=np.uint64)
        self.offset = np.empty(rows, dtype=np.intp)
        self.threshold = np.empty(rows, dtype=np.uint64)
        self.parent = -1
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

    The cells of a block of rows go into one uint8 buffer, and the
    terminator is written over each row's last separator.  With K <= 9 a
    cell is one add, v + _DIGIT_CELL as a little-endian uint16, so the
    buffer is the text as it stands; wider K gathers each cell's token from
    the token table and drops the pad bytes with one mask.  A prefix, or a
    terminator of more than one byte (JSONL), costs one more pass over the
    block to frame its rows.
    """
    prefix, terminator = frame
    count, length = rows.shape
    if num_categories <= 9:
        cells = np.add(rows, _DIGIT_CELL, dtype="<u2", casting="unsafe").view(np.uint8)
    else:
        tokens = _token_table(num_categories)
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
    if num_categories > 9:
        cells = cells[cells != _PAD]
    return cells.tobytes().decode("ascii")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Realized sequences plus everything needed to regenerate them.

    The batch keeps a read-only, C-contiguous array of outcomes whose
    integer dtype casts safely to intp.  One passed in that form (as
    `sample_batch` does, in the smallest unsigned dtype that holds K) is
    kept as it is; any other input is range-checked and then copied into
    that dtype, so a caller's array is never frozen or aliased.  Outcomes,
    `seed`, `marginal`, `delta`, `spec` and `first_index` (the seed's grid
    row of the first outcome row, in 0..2^64 - count) are read by the
    library's rules (`check_integers`, `check_integer`, `as_marginal`,
    `as_delta`, `_check_spec`), so a float or bool entry is an error and
    the metadata holds only values they accept.
    """

    outcomes: np.ndarray  # (count, length) np.min_scalar_type(K), entries in 1..K
    seed: int
    marginal: Marginal
    delta: float
    spec: GeneratorSpec
    first_index: int = 0

    def __post_init__(self):
        _check_spec(self.spec)
        object.__setattr__(self, "seed", check_integer(self.seed, "seed"))
        object.__setattr__(self, "marginal", as_marginal(self.marginal))
        object.__setattr__(self, "delta", as_delta(self.delta))
        k = self.marginal.num_categories
        outcomes = check_integers(self.outcomes, "batch entry")
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
        first_index = check_integer(self.first_index, "first_index", 0, _INDEX_LIMIT - self.count)
        object.__setattr__(self, "first_index", first_index)

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
            "first_index": self.first_index,
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


def _draw_table(marginal: Marginal, delta: float) -> _DrawTable:
    """Cut points, bucket starts and thresholds, shared read-only by every draw of a call.

    Built one row at a time from the kernel's switch row and repeat
    diagonal, so the cut matrix is the table's only (K+1) x K array.
    """
    k = marginal.num_categories
    dtype = np.min_scalar_type(k)
    entry = dtype.itemsize + 8  # a start and a threshold
    buckets = max(_MIN_BUCKETS, 1 << (_BUCKETS_PER_CUT * k).bit_length() - 1)
    while buckets > 1 and (k + 1) * (buckets + 1) * entry > _TABLE_BUDGET:
        buckets //= 2

    cuts = np.empty((k + 1, k), dtype=np.float64)
    start = np.empty((k + 1, buckets + 1), dtype=dtype)
    edges = np.arange(buckets + 1) / buckets  # b/G, exact
    switch, repeat = _kernel_parts(marginal, delta)
    row = switch.copy()
    for j, (row_cuts, row_start) in enumerate(zip(cuts, start)):
        if j:  # kernel row j - 1
            row[j - 1] = repeat[j - 1]
            np.cumsum(row, out=row_cuts)
            row[j - 1] = switch[j - 1]
        else:
            np.cumsum(marginal.probs, out=row_cuts)
        # Forcing the final cut to 1.0 pairs with uniforms in (0, 1]: every
        # draw lands in exactly one right-closed bucket.
        row_cuts[-1] = 1.0
        # The cuts before it rise (a cumulative sum that overshoots 1 only
        # rises further), and 1.0 is below no edge b/G <= 1.
        np.add(row_cuts[:-1].searchsorted(edges), 1, out=row_start, casting="unsafe")

    # c * 2^53 is exact, so c < m * 2^-53 exactly when floor(c * 2^53) < m,
    # and cuts of one threshold are one value to every uniform.  Bucket b
    # holds the row's cuts from entry start[b] - 1 to entry start[b + 1] - 2,
    # so only a bucket of two or more cuts can refine.  Rows go a chunk of
    # about 2^17 entries at a time, so the index scratch stays near 1 MiB.
    thresholds = np.empty(start.shape, dtype=np.uint64)
    fullest = 1
    chunk = max(1, (1 << 17) // (buckets + 1))
    for first in range(0, k + 1, chunk):
        rows = slice(first, first + chunk)
        index = start[rows].astype(np.intp)
        index += np.arange(first, first + len(index), dtype=np.intp)[:, None] * k - 1
        index = index.ravel()  # the row's first cut not below b/G, in `cuts.ravel()`
        chunk_thresholds = thresholds[rows].ravel()
        # The cast truncates a product >= 0, which is its floor.
        np.multiply(cuts.ravel().take(index), 2.0**_MANTISSA_BITS, out=chunk_thresholds, casting="unsafe")
        size = np.diff(index)
        size[buckets :: buckets + 1] = 0  # bucket G, whose next entry starts the next row
        held = np.flatnonzero(size > 1)
        last = cuts.ravel().take(index.take(held + 1) - 1)
        last *= 2.0**_MANTISSA_BITS
        refine = np.floor(last, out=last) != chunk_thresholds.take(held)
        chunk_thresholds[held[refine]] = _REFINE
        fullest = max(fullest, int(size.take(held[refine]).max(initial=1)))
    return _DrawTable(cuts, start, thresholds, buckets, (fullest - 1).bit_length())


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
    A column whose parent is `scratch.parent` reads the rows already in
    `scratch.offset`.
    """
    width, rows = mantissas.shape
    k = table.cuts.shape[1]
    stride = np.intp(table.buckets + 1)
    start, thresholds, cuts = table.start.ravel(), table.thresholds.ravel(), table.cuts.ravel()
    # Bucket b = floor(u*G) = m >> (53 - g) of the whole group in one shift.
    index = scratch.words[: width * rows].reshape(width, rows)
    np.right_shift(mantissas, table.shift, out=index)
    index = index.view(np.intp)
    tile = scratch.tile[:, :rows]
    offset, threshold = scratch.offset[:rows], scratch.threshold[:rows]
    step, depth = threshold.view(np.intp), table.depth
    for position in range(width):
        column = first_column + position
        bucket = index[position]
        values = tile[column - tile_first]
        if column:  # position 1 reads row 0, the others the row of their parent's draw
            parent = parents.item(column - 1) - 1  # a Python int, cheap to compare
            if parent != scratch.parent:  # siblings reuse their parent's rows
                # Widened by a copy, then scaled in place: a mixed-dtype
                # multiply would allocate a cast buffer on every call.
                offset[:] = tile[parent - tile_first] if parent >= tile_first else block[:, parent]
                offset *= stride
                scratch.parent = parent
            bucket += offset
        thresholds.take(bucket, out=threshold, mode="clip")
        # The refined draws, read before the compare overwrites their marks.
        hit = np.flatnonzero(threshold == _REFINE) if depth else ()
        # T - m wraps past 2^63 exactly when T < m (both lie below 2^63), so
        # its top bit steps the draw to start[b + 1] = start[b] + J.
        np.subtract(threshold, mantissas[position], out=threshold)
        np.right_shift(threshold, 63, out=threshold)
        bucket += step
        start.take(bucket, out=values, mode="clip")
        if len(hit):
            # The cuts below u are a prefix of the row, so a halving search
            # over the bucket's cuts counts those below u: each step keeps
            # the half that holds the first cut not below u.
            flat = bucket[hit]
            found = flat // stride * k
            found += start[flat]
            found -= 1
            size = start[flat + 1].astype(np.intp)
            size -= start[flat]
            u = mantissas[position, hit] * _UNIT
            for _ in range(depth):
                half = size >> 1
                size -= half
                half *= cuts[found + half] < u
                found += half
            found += cuts[found] < u
            values[hit] = found % k + 1


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
    seed's grid, so any range of rows can be drawn on its own, up to row
    2^64 - 1.  Rows are drawn on the calling thread in blocks of
    _BLOCK_ROWS, and each block a tile of positions at a time: the block's
    stream keys are mixed once, and its mantissas are generated a group of
    positions at a time into buffers made once per call, so the scratch
    memory depends on neither `count` nor the sequence length.  `workers`
    must be an integer >= 1; it is accepted for compatibility and has no
    effect.
    """
    marginal = as_marginal(p)
    d = as_delta(delta)
    count = check_integer(count, "count", 0, _INDEX_LIMIT)
    first_index = check_integer(first_index, "first_index", 0, _INDEX_LIMIT - count)
    check_integer(workers, "workers", 1)
    seed = check_integer(seed, "seed")  # before the tree and table are built
    _check_array_size(count, check_integer(length, "tree size", 1))
    tree = build_tree(spec, length)  # validates the generator up to length
    table = _draw_table(marginal, d)

    outcomes = np.empty((count, length), dtype=table.start.dtype)
    if count:  # the group width below divides by the block's rows
        rows = min(count, _BLOCK_ROWS)
        variates = rows * min(length, _TILE, max(1, _GRID_VARIATES // rows))
        scratch = _Scratch(variates, rows, min(length, _TILE), table.start.dtype)
        for start in range(0, count, _BLOCK_ROWS):
            block = outcomes[start : start + _BLOCK_ROWS]
            rows = block.shape[0]
            first = first_index + start
            keys = stream_keys(seed, first, rows, scratch=scratch.words[:rows])
            scratch.parent = -1  # the parent rows of the last block are stale
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
                block[:, tile_first:tile_stop] = scratch.tile[: tile_stop - tile_first, :rows].T

    outcomes.flags.writeable = False
    return SampleBatch(outcomes, seed, marginal, d, spec, first_index)


@dataclass(frozen=True, eq=False)
class EmpiricalMarginal:
    """Category counts at one position; counts sum to the batch size exactly.

    `position` (>= 1) and `counts` (1-D, entries >= 0) are read by the
    integer rule (`check_integer`, `check_integers`).  The counts sum to at
    least 1, so the frequencies are defined; an empty array sums to 0.
    """

    position: int
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", check_integer(self.position, "position", 1))
        counts = check_integers(self.counts, "counts")
        if counts.ndim != 1:
            raise DomainError(f"counts must be a 1-D array, got {counts.ndim} dimensions")
        if counts.size and counts.min() < 0:
            raise DomainError(f"counts must be >= 0, got {counts.min()}")
        if not counts.any():
            raise DomainError("counts must sum to at least 1, got 0")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total


def _counts(batch: SampleBatch, statistics: list[tuple[int, ...]]) -> np.ndarray:
    """Row i: rows per value at position statistics[i], or per code v_m (K + 1) + v_n of a pair.

    The statistics share one arity and are counted in one pass over the
    rows, so each block of rows is read once for all of them.  Values and
    codes are counted as they stand, so bin 0 and every bin with a 0 digit
    stay empty and no dtype is ever shifted or wrapped.  Codes are computed
    in intp a block of rows at a time and the blocks' bincounts summed, so
    the scratch is one block's codes whatever the row count.  A block holds
    _BLOCK_ROWS rows, or as many as the counts have bins when that is more,
    so its codes never outweigh one statistic's counts.
    """
    width = batch.num_categories + 1
    bins = width ** len(statistics[0])
    rows = max(_BLOCK_ROWS, bins)
    counts = np.zeros((len(statistics), bins), dtype=np.intp)
    scratch = np.empty(min(rows, batch.count), dtype=np.intp)
    for first in range(0, batch.count, rows):
        block = batch.outcomes[first : first + rows]
        codes = scratch[: len(block)]
        for row, (position, *others) in zip(counts, statistics):
            np.copyto(codes, block[:, position - 1])
            for other in others:
                codes *= width
                codes += block[:, other - 1]
            row += np.bincount(codes, minlength=bins)
    return counts


class _Tally:
    """The counts a batch keeps: one read-only window per arity, and the tree's parents.

    `windows[arity]` maps each statistic of the window last counted at that
    arity to its row of counts.  `parents[c - 2]` is alpha(c) for c in
    2..N, evaluated on the first pair call.
    """

    def __init__(self):
        self.windows: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
        self.parents: np.ndarray | None = None


def _window(batch: SampleBatch, tally: _Tally, statistic: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The statistics counted with `statistic`: positions, or tree edges by their child.

    The window of position or child c covers the aligned c in [a, a + W),
    a = W floor((c - 1) / W) + 1, where W is the most statistics whose
    intp counts fit _TALLY_BUDGET, at most _TALLY_POSITIONS and at least 1.
    A pair window holds the edges (alpha(c), c) whose parent lies in
    1..c-1, so a pair that is not a tree edge is in no window.
    """
    bins = (batch.num_categories + 1) ** len(statistic)
    size = min(_TALLY_POSITIONS, max(1, _TALLY_BUDGET // (bins * np.dtype(np.intp).itemsize)))
    first = (statistic[-1] - 1) // size * size + 1
    stop = min(first + size, batch.length + 1)
    if len(statistic) == 1:
        return [(c,) for c in range(first, stop)]
    if tally.parents is None:
        tally.parents = _parents(batch.spec, np.arange(2, batch.length + 1, dtype=np.int64))
    first = max(first, 2)  # position 1 has no parent
    parents = tally.parents[first - 2 : stop - 2].tolist()
    return [(parent, c) for c, parent in zip(range(first, stop), parents) if 1 <= parent < c]


def _tallied(batch: SampleBatch, statistic: tuple[int, ...]) -> np.ndarray:
    """The counts of one statistic: a read-only row of the batch's window of its arity.

    A statistic outside the held window replaces it with its own window;
    a pair that is not a tree edge is counted alone and leaves the window
    as it is.  The old window is dropped before the new one is counted, so
    a batch holds at most one window per arity.
    """
    tally = getattr(batch, "_tally", None)
    if tally is None:
        tally = _Tally()
        object.__setattr__(batch, "_tally", tally)
    counts = tally.windows.get(len(statistic), {}).get(statistic)
    if counts is not None:
        return counts
    statistics = _window(batch, tally, statistic)
    if statistic not in statistics:
        return _counts(batch, [statistic])[0]
    tally.windows.pop(len(statistic), None)
    counts = _counts(batch, statistics)
    counts.flags.writeable = False
    window = tally.windows[len(statistic)] = dict(zip(statistics, counts))
    return window[statistic]


def empirical_marginals(batch: SampleBatch, position: int) -> EmpiricalMarginal:
    """Observed category frequencies at a position."""
    if batch.count == 0:
        raise DomainError("cannot compute marginals of an empty batch")
    position = check_integer(position, "position", 1, batch.length)
    return EmpiricalMarginal(position, _tallied(batch, (position,))[1:].copy())


def empirical_cross_covariance(batch: SampleBatch, m: int, n: int) -> CrossCovariance:
    """Sample covariance of position indicators (population-normalized)."""
    if batch.count == 0:
        raise DomainError("cannot compute covariance of an empty batch")
    _check_pair_positions(m, n)
    check_integer(n, "position", 1, batch.length)
    width = batch.num_categories + 1
    joint = _tallied(batch, (m, n)).reshape(width, width)[1:, 1:] / batch.count
    matrix = joint - np.outer(joint.sum(axis=1), joint.sum(axis=0))
    return CrossCovariance(m, n, matrix, "empirical")
