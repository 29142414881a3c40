"""In-memory span tracing of the depcat package, installed from outside it.

`Tracer.install` replaces every public function of the eight depcat
modules at each module attribute where a caller looks it up (so
`depcat.exact.evaluate`, `depcat.sampler.uniform_grid` and
`depcat.sampler.build_tree` are all patched), plus the `SampleBatch`
writers and the sampler's thread pool.  No file of the package changes.
Each call then records a span: name, layer, start, end, parent span and
op id.  Spans stay in memory; `attribute` turns one op's spans into
per-layer self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import tracemalloc
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYERS = ("cli", "sampler", "rng", "exact", "graph", "generators", "kernel", "primes")
ROOT = "bench.op"
POOL_TASK = "sampler.pool_task"


class Span:
    __slots__ = ("name", "layer", "parent", "op", "seq", "t0", "t1", "info",
                 "mem_start", "mem_peak")

    def __init__(self, name, layer, parent, op, seq):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.seq = seq
        self.info = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "op": self.op,
            "id": self.seq,
            "parent": None if self.parent is None else self.parent.seq,
            "start": self.t0,
            "end": self.t1,
            "info": self.info,
        }


def _num_categories(p) -> int:
    return int(getattr(p, "num_categories", None) or len(p))


def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


# Counts recorded at the layer boundary, from a call's arguments and result.
def _hooks() -> dict:
    import depcat.exact
    import depcat.rng
    import depcat.sampler

    grid = _bound(depcat.rng.uniform_grid)
    joint = _bound(depcat.exact.joint_distribution)
    batch = _bound(depcat.sampler.sample_batch)

    def on_grid(args, kwargs, result):
        bound = grid(args, kwargs)
        return {"variates": int(bound["count"]) * int(bound["length"])}

    def on_joint(args, kwargs, result):
        bound = joint(args, kwargs)
        return {"outcomes": _num_categories(bound["p"]) ** int(bound["length"])}

    def on_batch(args, kwargs, result):
        bound = batch(args, kwargs)
        return {
            "draws": int(bound["count"]) * int(bound["length"]),
            "outcomes_bytes": int(result.outcomes.nbytes),
        }

    def on_text(args, kwargs, result):
        return {"bytes": len(result)}

    return {
        "rng.uniform_grid": on_grid,
        "exact.joint_distribution": on_joint,
        "sampler.sample_batch": on_batch,
        "sampler.SampleBatch.to_csv": on_text,
        "sampler.SampleBatch.to_jsonl": on_text,
    }


class Tracer:
    """Records spans while installed; `memory=True` adds tracemalloc peaks."""

    def __init__(self):
        self._local = threading.local()
        self._seq = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.op = None
        self.memory = False

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, layer: str) -> Span:
        stack = self._stack()
        span = Span(name, layer, stack[-1] if stack else None, self.op, next(self._seq))
        stack.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if span.parent is not None:
                span.parent.mem_peak = max(span.parent.mem_peak, peak)
            tracemalloc.reset_peak()
            span.mem_start = span.mem_peak = current
        span.t0 = perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.t1 = perf_counter()
        if self.memory:
            span.mem_peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                span.parent.mem_peak = max(span.parent.mem_peak, span.mem_peak)
            tracemalloc.reset_peak()
        self._stack().pop()
        self.spans.append(span)

    def run_op(self, op_id, fn, *args, **kwargs):
        """Call fn under a root span for one op; returns (result, root span)."""
        self.op = op_id
        root = self._enter(ROOT, "bench")
        try:
            return fn(*args, **kwargs), root
        finally:
            self._exit(root)
            self.op = None

    def take_spans(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- patching ---------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import depcat

        modules = {layer: importlib.import_module(f"depcat.{layer}") for layer in LAYERS}
        hooks = _hooks()
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(obj, name, layer, hooks.get(name))
        for owner in (depcat, *modules.values()):
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(owner, attr, wrapped[obj])

        batch_cls = modules["sampler"].SampleBatch
        for method in ("to_csv", "to_jsonl"):
            name = f"sampler.SampleBatch.{method}"
            self._patch(
                batch_cls, method,
                self._wrap(getattr(batch_cls, method), name, "sampler", hooks.get(name)),
            )
        self._patch(modules["sampler"], "ThreadPoolExecutor", self._pool_class())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _pool_class(self):
        """A ThreadPoolExecutor whose tasks are spans parented to the submitter."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def task():
                    tracer._local.stack = [] if parent is None else [parent]
                    span = tracer._enter(POOL_TASK, "sampler")
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._exit(span)
                        tracer._local.stack = []

                return super().submit(task)

        return TracedPool


def attribute(spans: list[Span]) -> dict[Span, float]:
    """Wall time of one op split among its spans; the shares sum to the op.

    At each instant the time goes to the spans that are running and have no
    running child.  Without threads this is the usual self time (duration
    minus the time the children cover); while pool tasks run in parallel,
    the instant is shared equally among them.
    """
    events = []
    for span in spans:
        events.append((span.t0, 1, span.seq, span))
        events.append((span.t1, 0, -span.seq, span))
    # At equal times: ends before starts, later (inner) spans end first,
    # earlier (outer) spans start first.
    events.sort(key=lambda event: event[:3])
    shares: dict[Span, float] = defaultdict(float)
    running_children: dict[Span, int] = {}
    leaves: set[Span] = set()
    previous = None
    for time, is_start, _, span in events:
        if leaves and previous is not None and time > previous:
            share = (time - previous) / len(leaves)
            for leaf in leaves:
                shares[leaf] += share
        previous = time
        parent = span.parent
        if is_start:
            running_children[span] = 0
            leaves.add(span)
            if parent in running_children:
                running_children[parent] += 1
                leaves.discard(parent)
        else:
            del running_children[span]
            leaves.discard(span)
            if parent in running_children:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    leaves.add(parent)
    return shares


def op_totals(spans: list[Span]) -> dict[str, float]:
    """Additive per-layer figures of one traced op: times, counts, bytes."""
    shares = attribute(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(float)
    by_name = defaultdict(float)
    inclusive = defaultdict(float)
    root = None
    for span in spans:
        self_s[span.layer] += shares.get(span, 0.0)
        by_name[span.name] += shares.get(span, 0.0)
        inclusive[span.name] += span.t1 - span.t0
        if span.name == ROOT:
            root = span
        elif span.name != POOL_TASK:
            calls[span.layer] += 1
            calls[span.name] += 1
        for key, value in (span.info or {}).items():
            info[f"{span.name}:{key}"] += value

    op_wall = root.t1 - root.t0
    attributed = sum(value for layer, value in self_s.items() if layer != "bench")
    return {
        "rng.self_s": self_s["rng"],
        "rng.variates": info["rng.uniform_grid:variates"],
        "sampler.draw_s": by_name["sampler.sample_batch"] + by_name[POOL_TASK],
        "sampler.draws": info["sampler.sample_batch:draws"],
        "sampler.serialize_s": (
            by_name["sampler.SampleBatch.to_csv"] + by_name["sampler.SampleBatch.to_jsonl"]
        ),
        "sampler.serialized_bytes": (
            info["sampler.SampleBatch.to_csv:bytes"] + info["sampler.SampleBatch.to_jsonl:bytes"]
        ),
        "sampler.outcomes_mib": info["sampler.sample_batch:outcomes_bytes"] / 2**20,
        "sampler.empirical_s": (
            inclusive["sampler.empirical_marginals"]
            + inclusive["sampler.empirical_cross_covariance"]
        ),
        "cli.self_s": self_s["cli"],
        "exact.self_s": self_s["exact"],
        "exact.joint_builds": calls["exact.joint_distribution"],
        "exact.outcomes_enumerated": info["exact.joint_distribution:outcomes"],
        "graph.calls": calls["graph"],
        "graph.self_s": self_s["graph"],
        "generators.calls": calls["generators"],
        "generators.self_s": self_s["generators"],
        "kernel.calls": calls["kernel"],
        "kernel.self_s": self_s["kernel"],
        "primes.calls": calls["primes"],
        "primes.self_s": self_s["primes"],
        "trace.op_wall_s": op_wall,
        "trace.attributed_s": attributed,
        "trace.unattributed_s": op_wall - attributed,
        "trace.spans": len(spans),
    }


def layer_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-op means of the op totals, and rates taken from their sums.

    Means, not medians: some layers run on a few ops only (primes on the
    prime_partition ops of exact-verify), and means of the self times add
    up to the mean op wall time.
    """
    total = {name: sum(row[name] for row in rows) for name in rows[0]}

    def rate(numerator, denominator, scale=1.0):
        return scale * total[numerator] / total[denominator] if total[denominator] else 0.0

    metrics = {name: value / len(rows) for name, value in total.items()}
    metrics["rng.ns_per_variate"] = rate("rng.self_s", "rng.variates", 1e9)
    metrics["sampler.ns_per_draw"] = rate("sampler.draw_s", "sampler.draws", 1e9)
    metrics["sampler.serialize_mb_per_s"] = rate(
        "sampler.serialized_bytes", "sampler.serialize_s", 1e-6
    )
    del metrics["sampler.draws"], metrics["sampler.serialized_bytes"]
    return metrics


def stage_alloc_peaks(spans: list[Span]) -> dict[str, float]:
    """tracemalloc peak above the stage's starting level, per stage, in MiB."""
    peaks = defaultdict(float)
    for span in spans:
        peaks[span.name] = max(peaks[span.name], (span.mem_peak - span.mem_start) / 2**20)
    return {
        "sampler.alloc_peak_mib": peaks["sampler.sample_batch"],
        "sampler.serialize_alloc_peak_mib": max(
            peaks["sampler.SampleBatch.to_csv"], peaks["sampler.SampleBatch.to_jsonl"]
        ),
    }


PER_LAYER_UNITS = {
    "rng.self_s": "s",
    "rng.variates": "count",
    "rng.ns_per_variate": "ns",
    "sampler.draw_s": "s",
    "sampler.ns_per_draw": "ns",
    "sampler.serialize_s": "s",
    "sampler.serialize_mb_per_s": "MB/s",
    "sampler.outcomes_mib": "MiB",
    "sampler.empirical_s": "s",
    "cli.self_s": "s",
    "exact.self_s": "s",
    "exact.joint_builds": "count",
    "exact.outcomes_enumerated": "count",
    "graph.calls": "count",
    "graph.self_s": "s",
    "generators.calls": "count",
    "generators.self_s": "s",
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "primes.calls": "count",
    "primes.self_s": "s",
    "trace.op_wall_s": "s",
    "trace.attributed_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "sampler.workers1_s": "s",
    "sampler.workers2_s": "s",
    "sampler.workers_speedup": "x",
    "sampler.alloc_peak_mib": "MiB",
    "sampler.serialize_alloc_peak_mib": "MiB",
}
