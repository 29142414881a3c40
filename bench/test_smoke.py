"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs each workload for a fraction of a second with tracing off and on,
checks that the metric names match BENCHMARK.json, and that no op is ever
configured with more workers than os.cpu_count() (by inspecting the op
configurations, which starts no threads).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

depcat = run.import_depcat()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small enough to run in well under a second, large enough that every
# expected cell count of the statistical checks stays at 2 or more.
TINY = {
    "sample-csv": {"count": 2_000, "length": 8},
    "mc-chain-k64": {"count": 20_000, "length": 8},
    "exact-verify": {"length": 5},
}


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, trace, tmp_path):
    wl = workloads.WORKLOADS[name](depcat, tmp_path, **TINY[name])
    result = run.measure(wl, seed=11, seconds=0.2, trace=trace)
    tally = result["tally"]
    assert tally.failed == 0, tally.problems
    assert tally.attempted >= 2 and result["walls"]
    if not trace:
        assert result["setup_s"] > 0
        return
    layer = result["layer"]
    assert set(layer) == set(spans.PER_LAYER_UNITS)
    assert layer["trace.op_wall_s"] > 0
    assert layer["trace.attributed_s"] == pytest.approx(
        layer["trace.op_wall_s"] - layer["trace.unattributed_s"]
    )
    assert 0 <= layer["trace.unattributed_s"] < 0.05 * layer["trace.op_wall_s"]
    busy = {"sample-csv": "sampler.serialize_s", "mc-chain-k64": "rng.self_s",
            "exact-verify": "exact.self_s"}[name]
    assert layer[busy] > 0
    assert (layer["exact.joint_builds"] > 0) == (name == "exact-verify")
    assert (layer["rng.variates"] > 0) == (name != "exact-verify")


def test_a_failing_check_is_counted(tmp_path):
    wl = workloads.WORKLOADS["exact-verify"](depcat, tmp_path, **TINY["exact-verify"])
    wl.check = lambda config, output: ["forced"]
    result = run.measure(wl, seed=0, seconds=0.05, trace=False)
    assert result["tally"].failed == result["tally"].attempted


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_no_op_is_configured_with_more_workers_than_cpus(cpus, monkeypatch, tmp_path):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert 1 <= workloads.pool_workers() <= cpus
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(depcat, tmp_path, **TINY[name])
        for seed in range(40):
            config = wl.config(seed)
            assert 1 <= config["workers"] <= cpus
            argv = config.get("argv", [])
            if "--workers" in argv:
                assert int(argv[argv.index("--workers") + 1]) == config["workers"]


def test_attribution_splits_parallel_time_and_adds_up():
    def span(name, parent, seq, t0, t1):
        s = spans.Span(name, name.split(".")[0], parent, 0, seq)
        s.t0, s.t1 = t0, t1
        return s

    root = span("bench.op", None, 0, 0.0, 10.0)
    call = span("sampler.sample_batch", root, 1, 1.0, 9.0)
    first = span("sampler.pool_task", call, 2, 2.0, 6.0)
    second = span("sampler.pool_task", call, 3, 2.0, 4.0)
    grid = span("rng.uniform_grid", second, 4, 2.0, 3.0)
    shares = spans.attribute([root, call, first, second, grid])
    assert sum(shares.values()) == pytest.approx(10.0)
    assert shares[root] == pytest.approx(2.0)
    assert shares[call] == pytest.approx(1.0 + 3.0)
    assert shares[first] == pytest.approx(0.5 + 0.5 + 2.0)
    assert shares[second] == pytest.approx(0.5)
    assert shares[grid] == pytest.approx(0.5)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
