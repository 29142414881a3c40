"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 bench/spread.py --workload exact-verify
    python3 bench/spread.py --baseline bench/BASELINE.json

Runs bench/run.py for run_seconds (from BENCHMARK.json) once per seed,
seeds 1..10, for each chosen workload, one run at a time, and prints for every end-to-end metric the median and
the quartile spread (Q3 - Q1) as a share of the median, beside a third of
the metric's bound from BENCHMARK.json, the level a steady benchmark
stays under.  With --baseline the medians, quartiles and environment are
written to that file, together with one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    baseline = {"run_seconds": seconds, "seeds": len(SEEDS), "workloads": {}}
    for workload in args.workload or names:
        results = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"{workload}: {entry['attempted']} ops, {entry['failed']} failed")
        for name, bound in bounds.items():
            summary = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = summary
            verdict = "ok" if summary["spread"] < bound / 3 else "WIDE"
            print(f"  {name:14s} median {summary['median']:.6g}  spread "
                  f"{summary['spread']:.4f}  (bound/3 {bound / 3:.4f}) {verdict}")
        if args.baseline:
            traced = run_once(workload, 1, seconds, 1)
            entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry

    if args.baseline:
        record = sorted((ROOT / ".bench_out").glob("*-trace0.json"))[-1]
        baseline["environment"] = json.loads(record.read_text())["environment"]
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
