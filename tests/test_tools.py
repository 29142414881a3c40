"""Smoke tests of the tools under tools/, at tiny sizes."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shapes_times_every_shape_of_this_checkout(tmp_path, capsys):
    shapes = load("shapes")
    record_path = tmp_path / "shapes.json"
    assert shapes.main(["--tiny", "--rounds", "1", "--calls", "1", "--json", str(record_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert record["numpy"] == np.__version__
    assert lines[0].startswith(f"numpy {np.__version__}, BLAS kernel {record['blas_kernel']}, ")
    assert lines[1] == f"tree 0: {ROOT}"
    (timed,) = record["trees"].values()
    names = [line.split("  ")[0] for line in lines[3:]]
    assert names == list(timed) and len(names) == 9
    assert all(len(runs) == 1 and runs[0] > 0 for runs in timed.values())


def test_goldens_writes_every_golden_and_names_the_changed(tmp_path, capsys):
    goldens = load("goldens")
    assert goldens.main(["--out", str(tmp_path)]) == 0
    written = capsys.readouterr().out.split()
    committed = ROOT / "tests" / "goldens"
    assert written == sorted(path.relative_to(committed).as_posix()
                             for path in committed.rglob("*.txt"))
    assert len(written) == 41
    (tmp_path / written[0]).write_text("stale\n", encoding="utf-8")
    assert goldens.main(["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == written[:1]  # only the changed file
