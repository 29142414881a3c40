"""depcat benchmark: one workload, closed loop, timed end to end or traced.

    python3 bench/run.py --workload sample-csv --seed 1 --seconds 25 --trace 0

Runs the workload (see workloads.py) from the root of a source checkout,
importing depcat from ./src.  Ops run one at a time for --seconds seconds
after an untimed warm-up; op i uses seed + i, and every op's outputs are
checked.  A human-readable report with the environment goes to stderr,
and a record of the run to .bench_out/.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:

    setup_s       median over fresh processes of `import depcat, depcat.cli`,
                  sampled between ops across the run
    op_time_p50   median over ops of the op's wall time divided by the
                  time of the yardstick run just before it (yardstick.py)
    peak_rss_mib  peak resident set of this process (one workload each)

op_time_p50 is measured in yardsticks rather than in ms because the
machine's speed drifts by more than the bound: in five runs of
sample-csv the median op time spread 0.14 (IQR/median) in ms against
0.014 in yardsticks, and the yardstick's own median moved from 30 to
38 ms between runs minutes apart.  On mc-chain-k64, whose pooled ops span
both CPUs, the two spread alike (0.08 raw, 0.09 in yardsticks).  setup_s
must be in seconds and stays raw.  The report prints the raw median (as op_ms_p50,
draws_per_s and verify_ms_p50), and the record keeps every op's wall and
yardstick time.

With --trace 1 each op runs twice, untraced and traced in alternating
order, and the metrics are the per-layer ones (spans.py), means over the
traced ops; trace.overhead_s is the median of traced minus untraced wall
time of the same op.  The report gives that difference's quartiles too:
where they straddle zero, the overhead is within the noise of the run.

--recheck-seed S runs the same workload again in a fresh process under seed
S, reports per metric how far the second result lies from the first, and
exits 1 if either run failed a check or an end-to-end metric moved by more
than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from spans import PER_LAYER_UNITS, Tracer, layer_metrics, op_totals, stage_alloc_peaks
from workloads import WORKLOADS, pool_workers
from yardstick import yardstick_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 16
SPAN_DUMP_OPS = 3
WORKERS_REPEATS = 2

UNITS = {"setup_s": "s", "op_time_p50": "yardsticks", "peak_rss_mib": "MiB"}

SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import depcat, depcat.cli; print(time.perf_counter() - t)"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_depcat():
    if not (SRC / "depcat" / "__init__.py").is_file():
        fail(f"no depcat sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import depcat
    import depcat.cli
    import depcat.rng

    if Path(depcat.__file__).resolve().parent != SRC / "depcat":
        fail(f"imported depcat from {depcat.__file__}, not from {SRC}")
    return depcat


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import depcat and depcat.cli."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        if _read(index / "level").strip() == str(level) and _read(
            index / "type"
        ).strip() in ("Unified", "Data"):
            return _read(index / "size").strip()
    return "unknown"


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref).strip()
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(depcat) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "depcat": depcat.__version__,
        "algorithm_id": depcat.rng.ALGORITHM_ID,
        "git_commit": _git_commit(),
    }


def failure_text() -> str:
    """The exception being handled, on one line."""
    return traceback.format_exc(limit=3).strip().replace("\n", " | ")


class Tally:
    """Ops attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:5])}")

    def guarded(self, label: str, fn, *args):
        """Run fn (which returns problems), counting an exception as a failure."""
        try:
            problems = fn(*args)
        except Exception:
            problems = [failure_text()]
        self.record(label, problems)


def timed_op(wl, config, tracer=None, op_id=None):
    """Run one op; returns (wall seconds, output or None, problems)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            output = wl.run(config)
            return time.perf_counter() - start, output, []
        output, root = tracer.run_op(op_id, wl.run, config)
        return root.t1 - root.t0, output, []
    except Exception:
        return time.perf_counter() - start, None, [failure_text()]


def checked(wl, tally, label, config, tracer=None, op_id=None) -> float:
    """Run, check and discard one op; returns its wall seconds."""
    wall, output, problems = timed_op(wl, config, tracer, op_id)
    if not problems:
        tally.guarded(label, wl.check, config, output)
    else:
        tally.record(label, problems)
    wl.discard(config)
    return wall


def workers_comparison(wl, seed: int) -> dict:
    """Time the op's sampling step alone at workers=1 and at the op's maximum."""
    if wl.library_call is None:
        return {"sampler.workers1_s": 0.0, "sampler.workers2_s": 0.0,
                "sampler.workers_speedup": 0.0}
    config = wl.config(seed)
    most = pool_workers()
    times = {1: [], most: []}
    for _ in range(WORKERS_REPEATS):
        for workers in (1, most):
            start = time.perf_counter()
            wl.library_call(config, workers)
            times[workers].append(time.perf_counter() - start)
    one, many = statistics.median(times[1]), statistics.median(times[most])
    return {"sampler.workers1_s": one, "sampler.workers2_s": many,
            "sampler.workers_speedup": one / many}


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally()
    tally.guarded("warm-up", wl.warm_up, seed)
    tracer = Tracer() if trace else None
    walls, gauges, setups, rows, overheads, dumped = [], [], [], [], [], []
    start = last_setup = time.perf_counter()
    op = 1
    while time.perf_counter() - start < seconds:
        config = wl.config(seed + op)
        if tracer is None:
            # Set-up samples are spread over the run, between ops, so that
            # their median is not taken from one moment of the machine.
            if not setups or time.perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
                setups.append(setup_sample())
                last_setup = time.perf_counter()
            gauges.append(yardstick_s())
            walls.append(checked(wl, tally, f"op {op}", config))
        else:
            pair = {}
            for traced in ((False, True) if op % 2 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    pair[traced] = checked(
                        wl, tally, f"op {op}", config, tracer if traced else None, op
                    )
                finally:
                    tracer.uninstall()
                spans = tracer.take_spans()
                if traced:
                    rows.append(op_totals(spans))
                    if len(dumped) < SPAN_DUMP_OPS:
                        dumped.append(spans)
            walls.append(pair[False])
            overheads.append(pair[True] - pair[False])
        op += 1

    result = {"tally": tally, "walls": walls, "gauges": gauges}
    if tracer is None:
        while len(setups) < SETUP_SAMPLES // 2 + 1:
            setups.append(setup_sample())
        result["setups"] = setups
        result["setup_s"] = statistics.median(setups)
        result["op_time_p50"] = statistics.median(
            wall / gauge for wall, gauge in zip(walls, gauges)
        )
        return result
    layer = layer_metrics(rows)
    layer["trace.overhead_s"] = statistics.median(overheads)
    result["overheads"] = overheads
    layer.update(workers_comparison(wl, seed))
    tracemalloc.start()
    tracer.memory = True
    tracer.install()
    try:
        checked(wl, tally, "memory pass", wl.config(seed), tracer, "memory")
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    layer.update(stage_alloc_peaks(tracer.take_spans()))
    result.update(layer=layer, spans=[s.to_dict() for op_spans in dumped for s in op_spans])
    return result


def percentile_summary(values: list[float]) -> dict:
    """Median and p90 in ms with the sample count; p90 only with 10+ samples beyond."""
    summary = {"n": len(values), "p50_ms": 1e3 * statistics.median(values)}
    if len(values) >= 100:
        summary["p90_ms"] = 1e3 * statistics.quantiles(values, n=10)[-1]
    return summary


def load_bounds() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def report(args, env, wl, result, metrics, units) -> None:
    tally, walls = result["tally"], result["walls"]
    bounds = load_bounds()
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}"]
    lines += [f"  env {key}: {value}" for key, value in env.items()]
    lines.append(f"  ops attempted {tally.attempted}, failed {tally.failed}, "
                 f"failed_frac {tally.failed / tally.attempted:.6g}")
    for name, value in metrics.items():
        bound = bounds.get(name)
        suffix = f"  (bound {bound})" if bound is not None else ""
        lines.append(f"  {name:34s} {value:.6g} {units[name]}{suffix}")
    if result["gauges"]:
        lines.append(f"  raw op_ms_p50 {1e3 * statistics.median(walls):.6g} ms, yardstick "
                     f"median {1e3 * statistics.median(result['gauges']):.6g} ms")
    overheads = result.get("overheads", [])
    if len(overheads) >= 2:
        q1, q2, q3 = statistics.quantiles(overheads, n=4)
        noise = "  (within noise)" if q1 <= 0 <= q3 else ""
        lines.append(f"  trace overhead per op: median {1e3 * q2:.4g} ms, quartiles "
                     f"{1e3 * q1:.4g} .. {1e3 * q3:.4g} ms over {len(overheads)} pairs{noise}")
    summary = percentile_summary(walls) if walls else {"n": 0}
    if wl.draws_per_op:
        rates = [wl.draws_per_op / wall for wall in walls]
        lines.append(f"  draws_per_s {statistics.median(rates):.6g} 1/s "
                     f"(median over {len(rates)} ops)")
    elif walls:
        tail = (f"verify_ms_p90 {summary['p90_ms']:.6g} ms" if "p90_ms" in summary
                else "verify_ms_p90 not reported (fewer than 100 ops)")
        lines.append(f"  verify_ms_p50 {summary['p50_ms']:.6g} ms, {tail}, n={summary['n']}")
    lines += [f"  problem: {problem}" for problem in tally.problems]
    print("\n".join(lines), file=sys.stderr)


def recheck(args, first: dict) -> tuple[bool, bool]:
    """Run again under --recheck-seed in a fresh process and compare metrics.

    Returns whether the second run passed its checks, and whether no metric
    with a bound moved by more than that bound.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.recheck_seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        print(f"recheck under seed {args.recheck_seed} printed no result", file=sys.stderr)
        return False, False
    second = json.loads(lines[-1])
    bounds = load_bounds()
    steady = True
    print(f"recheck: seed {args.seed} against seed {args.recheck_seed}", file=sys.stderr)
    for name, value in first["metrics"].items():
        other = second["metrics"].get(name, {}).get("value")
        if other is None:
            continue
        base = value["value"]
        change = (other - base) / base if base else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            within = abs(change) <= bound
            steady = steady and within
            verdict = "  within bound" if within else f"  OUTSIDE bound {bound}"
        print(f"  {name:34s} {base:.6g} -> {other:.6g} ({change:+.2%}){verdict}",
              file=sys.stderr)
    return bool(second["correct"]), steady


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recheck-seed", type=int)
    args = parser.parse_args()

    depcat = import_depcat()
    env = environment(depcat)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](depcat, workdir)
        result = measure(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, units = result["layer"], PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": result["setup_s"],
            "op_time_p50": result["op_time_p50"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
    report(args, env, wl, result, metrics, units)

    tally = result["tally"]
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  environment=env, problems=tally.problems, op_walls_s=result["walls"],
                  yardstick_s=result["gauges"], setup_samples_s=result.get("setups"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(span) + "\n" for span in result["spans"])
    steady = True
    if args.recheck_seed is not None:
        second_correct, steady = recheck(args, line)
        line["correct"] = line["correct"] and second_correct
    print(json.dumps(line))
    sys.exit(0 if line["correct"] and steady else 1)


if __name__ == "__main__":
    main()
