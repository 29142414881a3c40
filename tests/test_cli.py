"""CLI behavior: exit codes, config precedence, deterministic outputs."""

import itertools
import json
import os
import resource
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import depcat
import depcat.cli
import depcat.exact
import depcat.sampler
from depcat.cli import (
    EXIT_CAP,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    build_parser,
    main,
)
from depcat.exact import EXACT_TOL
from depcat.rng import ALGORITHM_ID

SEQ_ARGS = ["--generator", "sequential", "--p", "0.5,0.3,0.2", "--delta", "0.4", "--n", "6"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_generator(self, capsys):
        code, out, _ = run(["validate", "--generator", "sequential", "--n", "100"], capsys)
        assert code == EXIT_OK
        assert "valid" in out

    def test_valid_report_names_the_range(self, capsys):
        code, out, err = run(["validate", "--generator", "sin_drift", "--n", "100"], capsys)
        assert (code, out, err) == (EXIT_OK, "generator 'sin_drift' valid for n in 2..100\n", "")

    def test_violation_exit_and_message(self, capsys):
        spec = json.dumps({"kind": "table", "table": {"2": 1, "3": 5}})
        code, out, _ = run(["validate", "--generator", spec, "--n", "3"], capsys)
        assert code == EXIT_VALIDATION
        assert "n=3" in out and "alpha=5" in out

    def test_table_reasons_in_index_order(self, capsys):
        spec = json.dumps({"kind": "table", "table": {"2": 1, "4": 4, "5": 9}})
        code, out, _ = run(["validate", "--generator", spec, "--n", "6"], capsys)
        assert code == EXIT_VALIDATION
        assert out.splitlines() == [
            "n=3: no table entry",
            "n=4: alpha=4 not in 1..3",
            "n=5: alpha=9 not in 1..4",
            "n=6: no table entry",
        ]

    def test_sin_drift_ten_thousand(self, capsys):
        code, _, _ = run(["validate", "--generator", "sin_drift", "--n", "10000"], capsys)
        assert code == EXIT_OK


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run(
            ["graph", "--generator", "fk", "--n", "3", "--format", "dot"], capsys
        )
        assert code == EXIT_OK
        assert "2 -> 1;" in out and "3 -> 1;" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            ["graph", "--generator", "floor_sqrt", "--n", "9", "--format", "json"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out) == {
            "2": 1, "3": 1, "4": 2, "5": 2, "6": 2, "7": 2, "8": 2, "9": 3,
        }

    def test_table_keys_naming_one_index_twice(self, capsys):
        spec = json.dumps({"kind": "table", "table": {"2": 1, "3": 1, "03": 2}})
        code, out, err = run(["graph", "--generator", spec, "--n", "3", "--format", "json"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: table keys '3' and '03' both name index 3\n"

    def test_invalid_generator_exit(self, capsys):
        spec = json.dumps({"kind": "table", "table": {"2": 2}})
        code, _, err = run(["graph", "--generator", spec, "--n", "2"], capsys)
        assert code == EXIT_VALIDATION
        assert "error" in err


class TestCovariance:
    def test_example_golden_json(self, capsys):
        code, out, _ = run(
            ["covariance", "2", "3", *SEQ_ARGS, "--method", "enumerate"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        golden = 0.4 * np.array(
            [[0.25, -0.15, -0.10], [-0.15, 0.21, -0.06], [-0.10, -0.06, 0.16]]
        )
        assert payload["exponent_basis"] == "theorem"
        assert np.max(np.abs(np.array(payload["matrix"]) - golden)) <= 1e-12

    def test_zero_delta_both_methods(self, capsys):
        argv = [
            "covariance", "2", "3",
            "--generator", "sequential", "--p", "0.5,0.3,0.2",
            "--delta", "0", "--n", "6",
        ]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["method"] == "both"
        assert payload["max_abs_discrepancy"] <= 1e-15
        assert np.max(np.abs(np.array(payload["enumerated"]))) <= 1e-15

    def test_both_discrepancy_on_general_generator(self, capsys):
        argv = [
            "covariance", "2", "4",
            "--generator", "floor_sqrt", "--p", "0.5,0.3,0.2",
            "--delta", "0.5", "--n", "4",
        ]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["max_abs_discrepancy"] < 1e-10
        assert payload["exponent_basis"] == "theorem"
        assert list(payload) == [
            "m", "n", "exponent_basis", "method", "enumerated", "closed_form",
            "max_abs_discrepancy",
        ]

    @pytest.mark.parametrize("generator", ["fk", "sequential", "floor_sqrt",
                                           "sin_drift", "prime_partition"])
    def test_both_is_the_two_library_matrices(self, generator, capsys):
        # The CI point: the report is the two data views' matrices under the
        # enumerated matrix's keys, not a second statement of their schema.
        argv = [
            "covariance", "3", "8", "--generator", generator,
            "--p", "0.4,0.3,0.2,0.1", "--delta", "0.7", "--n", "8", "--method", "both",
        ]
        code, out, err = run(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert list(payload) == [
            "m", "n", "exponent_basis", "method", "enumerated", "closed_form",
            "max_abs_discrepancy",
        ]
        spec = depcat.GeneratorSpec.builtin(generator)
        p = [0.4, 0.3, 0.2, 0.1]
        enumerated = depcat.cross_covariance_enumerated(p, 0.7, spec, 3, 8).to_json_dict()
        closed = depcat.cross_covariance_closed_form(p, 0.7, spec, 3, 8).to_json_dict()
        assert payload["enumerated"] == enumerated["matrix"]
        assert payload["closed_form"] == closed["matrix"]
        assert {key: payload[key] for key in ("m", "n", "exponent_basis")} == {
            key: enumerated[key] for key in ("m", "n", "exponent_basis")
        }
        assert payload["method"] == "both"
        assert payload["max_abs_discrepancy"] <= 1e-12

    @pytest.mark.parametrize(
        "method, routes, reported",
        [("enumerate", ["enumerated"], "enumeration"),
         ("closed", ["closed_form"], "closed-form"),
         ("both", ["enumerated", "closed_form"], "both")],
        ids=["enumerate", "closed", "both"],
    )
    def test_each_route_runs_once_when_asked(self, method, routes, reported, capsys, monkeypatch):
        calls = []
        for route in ("enumerated", "closed_form"):
            library = getattr(depcat.cli, f"cross_covariance_{route}")

            def counted(*args, route=route, library=library):
                calls.append(route)
                return library(*args)

            monkeypatch.setattr(depcat.cli, f"cross_covariance_{route}", counted)
        code, out, _ = run(["covariance", "2", "3", *SEQ_ARGS, "--method", method], capsys)
        assert code == EXIT_OK
        assert calls == routes
        assert json.loads(out)["method"] == reported

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["covariance", "2", "3", *SEQ_ARGS, "--method", "closed", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "category,1,2,3"
        assert len(lines) == 4

    def test_both_with_csv_is_usage_error(self, capsys):
        code, _, err = run(
            ["covariance", "2", "3", *SEQ_ARGS, "--format", "csv"], capsys
        )
        assert code == EXIT_USAGE
        assert "json" in err

    def test_cap_exceeded(self, capsys):
        argv = [
            "covariance", "1", "16",
            "--generator", "sequential", "--p", "0.5,0.3,0.2",
            "--delta", "0.4", "--n", "16", "--cap", "1000",
            "--method", "enumerate",
        ]
        code, _, err = run(argv, capsys)
        assert code == EXIT_CAP
        assert "cap" in err

    def test_position_order_usage_error(self, capsys):
        code, _, _ = run(["covariance", "3", "2", *SEQ_ARGS], capsys)
        assert code == EXIT_USAGE


class TestSample:
    def test_deterministic_across_runs_and_workers(self, capsys, tmp_path):
        base = [
            "sample", "--generator", "sequential", "--p", "0.5,0.5",
            "--delta", "0.5", "--n", "4", "--seed", "42", "--count", "200",
        ]
        paths = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            prefix = str(tmp_path / tag)
            code, _, _ = run(base + ["--out-prefix", prefix, "--workers", workers], capsys)
            assert code == EXIT_OK
            paths.append(prefix)
        reference = (tmp_path / "a.csv").read_bytes()
        assert (tmp_path / "b.csv").read_bytes() == reference
        assert (tmp_path / "c.csv").read_bytes() == reference
        meta = (tmp_path / "a.meta.json").read_bytes()
        assert (tmp_path / "c.meta.json").read_bytes() == meta

    def test_jsonl_format(self, capsys, tmp_path):
        prefix = str(tmp_path / "batch")
        argv = [
            "sample", "--generator", "fk", "--p", "0.5,0.5", "--delta", "1",
            "--n", "3", "--seed", "7", "--count", "5",
            "--out-prefix", prefix, "--format", "jsonl",
        ]
        code, _, _ = run(argv, capsys)
        assert code == EXIT_OK
        lines = (tmp_path / "batch.jsonl").read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            row = json.loads(line)
            assert len(set(row)) == 1  # delta = 1: constant sequences

    def test_metadata_sidecar(self, capsys, tmp_path):
        prefix = str(tmp_path / "m")
        argv = [
            "sample", "--generator", "sequential", "--p", "0.5,0.5",
            "--delta", "0.25", "--n", "3", "--seed", "11", "--count", "4",
            "--out-prefix", prefix,
        ]
        assert run(argv, capsys)[0] == EXIT_OK
        meta = json.loads((tmp_path / "m.meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["algorithm"] == "splitmix64-2level"
        assert meta["generator"] == {"kind": "sequential"}

    def test_out_takes_the_report(self, capsys, tmp_path):
        # `--out` takes the report as for every other command, and the data
        # and sidecar bytes are those of a run without it.
        argv = [
            "sample", "--generator", "floor_sqrt", "--p", "0.5,0.3,0.2",
            "--delta", "0.4", "--n", "9", "--seed", "5", "--count", "50",
        ]
        plain, reported = str(tmp_path / "plain"), str(tmp_path / "reported")
        code, out, _ = run(argv + ["--out-prefix", plain], capsys)
        assert (code, out) == (EXIT_OK, f"wrote {plain}.csv\nwrote {plain}.meta.json\n")
        report = tmp_path / "report.txt"
        code, out, err = run(argv + ["--out-prefix", reported, "--out", str(report)], capsys)
        assert (code, out, err) == (EXIT_OK, "", "")
        assert report.read_text() == f"wrote {reported}.csv\nwrote {reported}.meta.json\n"
        for suffix in ("csv", "meta.json"):
            assert Path(f"{reported}.{suffix}").read_bytes() == Path(f"{plain}.{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "out, named",
        [("x.csv", "x.csv"), ("x.meta.json", "x.meta.json"), ("./x.csv", "x.csv"),
         ("link", "x.csv")],
        ids=["data", "sidecar", "dot-slash", "symlink"],
    )
    def test_out_that_is_a_file_of_the_run_is_refused(self, out, named, capsys, tmp_path):
        # the report would replace the batch, or the sidecar describing it
        argv = ["sample", "--generator", "fk", "--p", "0.5,0.5", "--delta", "0.4", "--n", "3",
                "--count", "2", "--seed", "1", "--out-prefix", str(tmp_path / "x")]
        assert run(argv, capsys)[0] == EXIT_OK
        (tmp_path / "link").symlink_to(tmp_path / "x.csv")
        before = {name: (tmp_path / name).read_bytes() for name in ("x.csv", "x.meta.json")}
        report = os.path.join(str(tmp_path), out)
        code, stdout, err = run([*argv, "--count", "5", "--out", report], capsys)
        assert_one_usage_error(code, stdout, err, tmp_path, ["link", *before])
        assert err == f"error: --out {report} is {tmp_path / named}, a file this run writes\n"
        assert {name: (tmp_path / name).read_bytes() for name in before} == before

    def test_missing_seed_is_usage_error(self, capsys, tmp_path):
        argv = [
            "sample", "--generator", "sequential", "--p", "0.5,0.5",
            "--delta", "0.5", "--n", "4", "--count", "10",
            "--out-prefix", str(tmp_path / "x"),
        ]
        code, _, err = run(argv, capsys)
        assert code == EXIT_USAGE
        assert "seed" in err


def fail_on_call(monkeypatch, owner, name, which):
    """Make owner.name raise an OSError on its call number `which` (from 0)."""
    original = getattr(owner, name)
    calls = itertools.count()

    def failing(*args, **kwargs):
        if next(calls) == which:
            raise OSError(28, "No space left on device")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


FAILURES = {
    # the fourth block of rows fails to encode, partway through the stream
    "mid-stream": (depcat.sampler, "_encode_rows", 3),
    "replace-data": (os, "replace", 0),
    "replace-sidecar": (os, "replace", 1),
}


class TestAtomicWrites:
    """A failed write leaves no temp file and no sidecar beside data it does not describe."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(depcat.cli, "_WRITE_BLOCK_CELLS", 64)  # 16 rows a block

    def sample(self, tmp_path, seed, capsys):
        argv = [
            "sample", "--generator", "floor_sqrt", "--p", "0.5,0.3,0.2", "--delta", "0.4",
            "--n", "4", "--count", "200", "--seed", str(seed),
            "--out-prefix", str(tmp_path / "b"),
        ]
        return run(argv, capsys)[0]

    @pytest.mark.parametrize("failure", list(FAILURES))
    def test_failed_first_write(self, failure, tmp_path, capsys, monkeypatch):
        fail_on_call(monkeypatch, *FAILURES[failure])
        assert self.sample(tmp_path, 1, capsys) == EXIT_ERROR
        left = sorted(path.name for path in tmp_path.iterdir())
        # Only a failed sidecar rename comes after the data is in place.
        assert left == (["b.csv"] if failure == "replace-sidecar" else [])

    @pytest.mark.parametrize("failure", list(FAILURES))
    def test_failed_overwrite_keeps_sidecar_with_its_data(
        self, failure, tmp_path, capsys, monkeypatch
    ):
        assert self.sample(tmp_path, 1, capsys) == EXIT_OK
        old_data = (tmp_path / "b.csv").read_bytes()
        old_meta = (tmp_path / "b.meta.json").read_bytes()
        fail_on_call(monkeypatch, *FAILURES[failure])
        assert self.sample(tmp_path, 2, capsys) == EXIT_ERROR
        left = sorted(path.name for path in tmp_path.iterdir())
        if failure == "mid-stream":
            assert left == ["b.csv", "b.meta.json"]
            assert (tmp_path / "b.csv").read_bytes() == old_data
            assert (tmp_path / "b.meta.json").read_bytes() == old_meta
        else:
            assert left == ["b.csv"]  # data old or new, but no sidecar

    def test_success_leaves_only_the_two_files(self, tmp_path, capsys):
        assert self.sample(tmp_path, 1, capsys) == EXIT_OK
        assert self.sample(tmp_path, 2, capsys) == EXIT_OK
        assert sorted(path.name for path in tmp_path.iterdir()) == ["b.csv", "b.meta.json"]
        assert json.loads((tmp_path / "b.meta.json").read_text())["seed"] == 2

    def test_out_file_is_replaced_atomically(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "tree.dot"
        out_path.write_text("old\n")
        argv = ["graph", "--generator", "fk", "--n", "3", "--out", str(out_path)]
        fail_on_call(monkeypatch, os, "replace", 0)
        assert run(argv, capsys)[0] == EXIT_ERROR
        assert [path.name for path in tmp_path.iterdir()] == ["tree.dot"]
        assert out_path.read_text() == "old\n"
        monkeypatch.undo()
        assert run(argv, capsys)[0] == EXIT_OK
        assert [path.name for path in tmp_path.iterdir()] == ["tree.dot"]
        assert "2 -> 1;" in out_path.read_text()

    GRAPH = ["graph", "--generator", "fk", "--n", "3", "--out"]

    def test_out_file_keeps_its_mode_and_symlink(self, tmp_path, capsys):
        target = tmp_path / "tree.dot"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.dot"
        link.symlink_to(target)
        assert run([*self.GRAPH, str(link)], capsys)[0] == EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert "2 -> 1;" in target.read_text()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.dot", "tree.dot"]

    @pytest.mark.parametrize("through_link", [False, True], ids=["fifo", "link-to-fifo"])
    def test_out_to_a_fifo_is_written_directly(self, through_link, tmp_path, capsys):
        fifo = tmp_path / "tree.fifo"
        os.mkfifo(fifo)
        out_path = fifo
        if through_link:  # as /dev/stdout is a link to the pipe of fd 1
            out_path = tmp_path / "stdout"
            out_path.symlink_to(fifo)
        # A reader opened first, so the writer's open does not block; the
        # output is far smaller than the pipe buffer.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run([*self.GRAPH, str(out_path)], capsys)[0] == EXIT_OK
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert "2 -> 1;" in received
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert out_path.is_symlink() == through_link
        assert len(list(tmp_path.iterdir())) == 1 + through_link


class TestVerify:
    def test_passes_on_chain(self, capsys):
        code, out, _ = run(["verify", *SEQ_ARGS], capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all("PASS" in line for line in lines)
        assert all("max error" in line for line in lines)

    def test_fk_and_zero_delta(self, capsys):
        code, out, _ = run(
            ["verify", "--generator", "fk", "--p", "0.7,0.3", "--delta", "0",
             "--n", "8"],
            capsys,
        )
        assert code == EXIT_OK
        assert "covariance-agreement" in out

    def test_cap_suggests_reduction(self, capsys):
        code, _, err = run(
            ["verify", *SEQ_ARGS[:-2], "--n", "16", "--cap", "100"], capsys
        )
        assert code == EXIT_CAP
        assert "reduce N" in err

    @pytest.mark.parametrize("n", ["10000", "1000000000"])
    def test_cap_at_a_huge_n(self, n, capsys):
        # K**N is never built: at N = 10**4 its decimal is past the
        # int-to-str digit limit, and at N = 10**9 it is a 200 MB number.
        start = time.perf_counter()
        code, out, err = run(
            ["verify", "--generator", "fk", "--p", "0.5,0.3,0.2", "--delta", "0.4",
             "--n", n],
            capsys,
        )
        assert time.perf_counter() - start < 5
        assert (code, out) == (EXIT_CAP, "")
        assert err == (
            f"error: sample space has 3**{n} outcomes, exceeding the enumeration cap "
            "of 10000000; reduce N or raise the cap\n"
        )

    @pytest.mark.parametrize("generator", ["fk", "sequential", "floor_sqrt",
                                           "sin_drift", "prime_partition"])
    @pytest.mark.parametrize("delta", ["0.2", "0.7"])
    def test_report_lines_at_k3_n11(self, generator, delta, capsys):
        code, out, err = run(
            ["verify", "--generator", generator, "--p", "0.5,0.3,0.2",
             "--delta", delta, "--n", "11"],
            capsys,
        )
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        names = ["normalization", "identical-marginals", "covariance-agreement",
                 "endpoint-match"]
        assert len(lines) == len(names)
        for name, line in zip(names, lines):
            prefix, suffix = f"{name}: max error ", " (tolerance 1e-10) PASS"
            assert line.startswith(prefix) and line.endswith(suffix), line
            assert 0.0 <= float(line[len(prefix):-len(suffix)]) <= EXACT_TOL

    def test_p_accepted_off_its_unit_sum_passes(self, capsys):
        # p sums to 0.9999999999: accepted, divided by its sum, and both routes agree
        code, out, err = run(
            ["verify", "--generator", "floor_sqrt", "--p", "0.3333333333,0.3333333333,0.3333333333",
             "--delta", "0.4", "--n", "11"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        assert [line.endswith(" PASS") for line in out.splitlines()] == [True] * 4

    def test_failed_check_maps_to_verification_exit(self, capsys, monkeypatch):
        import depcat.cli as cli_module
        from depcat import VerificationCheck

        monkeypatch.setattr(
            cli_module,
            "verification_suite",
            lambda *args, **kwargs: [VerificationCheck("normalization", 1.0, 1e-10)],
        )
        code, out, _ = run(["verify", *SEQ_ARGS], capsys)
        assert code == EXIT_VERIFICATION
        assert "FAIL" in out

    @pytest.mark.parametrize("generator", ["fk", "sequential", "floor_sqrt",
                                           "sin_drift", "prime_partition"])
    def test_propagation_route_is_compared(self, generator, capsys, monkeypatch):
        # A propagation route that lost the dependence fails the covariance
        # check, though enumeration still agrees with the closed form.
        original = depcat.exact._Propagation.pair_joints

        def independent(self, pairs):
            joints, distances = original(self, pairs)
            p = self.marginal(1)
            return np.broadcast_to(np.outer(p, p), joints.shape), distances

        monkeypatch.setattr(depcat.exact._Propagation, "pair_joints", independent)
        code, out, _ = run(["verify", "--generator", generator, *SEQ_ARGS[2:]], capsys)
        assert code == EXIT_VERIFICATION
        failed = [line.split(":")[0] for line in out.splitlines() if line.endswith("FAIL")]
        assert failed == ["covariance-agreement"]


# Mixed calls in a row, an argparse usage error (an unknown --format) among them.
PARSER_SEQUENCE = [
    ["verify", *SEQ_ARGS],
    ["graph", "--generator", "floor_sqrt", "--n", "9", "--format", "json"],
    ["graph", "--generator", "fk", "--n", "4", "--format", "svg"],
    ["covariance", "2", "4", *SEQ_ARGS, "--method", "closed"],
    ["graph", "--generator", "fk", "--n", "5"],
    ["verify", "--generator", "fk", "--p", "0.7,0.3", "--delta", "0.9", "--n", "8"],
]


def run_or_exit(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneParserPerProcess:
    def test_reuse_is_invisible(self, capsys, monkeypatch):
        reused = [run_or_exit(argv, capsys) for argv in PARSER_SEQUENCE]
        monkeypatch.setattr(depcat.cli, "_parser", build_parser)
        fresh = [run_or_exit(argv, capsys) for argv in PARSER_SEQUENCE]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [
            EXIT_OK, EXIT_OK, ("SystemExit", 2), EXIT_OK, EXIT_OK, EXIT_OK
        ]
        assert "invalid choice: 'svg'" in reused[2][2]

    def test_main_builds_it_once(self, capsys, monkeypatch):
        builds = []

        def counting():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(depcat.cli, "build_parser", counting)
        depcat.cli._parser.cache_clear()
        try:
            for argv in PARSER_SEQUENCE:
                run_or_exit(argv, capsys)
        finally:
            depcat.cli._parser.cache_clear()
        assert len(builds) == 1

    def test_import_builds_none(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import depcat, depcat.cli\n"
            "print(len(built), depcat.cli._parser.cache_info().currsize)\n"
        )
        src = str(Path(depcat.cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        assert done.stdout.split() == ["0", "0"]


# A table with no entry for n = 3, and one whose parent of 3 is out of range.
BAD_TABLES = {
    "incomplete": {"kind": "table", "table": {"2": 1, "4": 2}},
    "axiom-violating": {"kind": "table", "table": {"2": 1, "3": 3, "4": 2}},
}


@pytest.mark.parametrize("table", list(BAD_TABLES))
@pytest.mark.parametrize(
    "command",
    [["verify"], ["covariance", "1", "4", "--method", "enumerate"]],
    ids=["verify", "covariance-enumerate"],
)
def test_bad_table_is_a_validation_error(command, table, capsys):
    code, out, err = run(
        [*command, "--generator", json.dumps(BAD_TABLES[table]), "--p", "0.5,0.5",
         "--delta", "0.4", "--n", "4"],
        capsys,
    )
    assert code == EXIT_VALIDATION
    assert out == "" and err.startswith("error: generator 'table' fails validation")
    assert "n=3" in err


# A generator table must be an object; a list or a string is a usage error.
NON_OBJECT_TABLES = {"list": [1, 2], "str": "12"}
EVERY_COMMAND = {
    "validate": ["validate"],
    "graph": ["graph"],
    "covariance": ["covariance", "1", "2"],
    "sample": ["sample", "--seed", "1", "--count", "3"],
    "verify": ["verify"],
}


@pytest.mark.parametrize("through_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("table", list(NON_OBJECT_TABLES))
@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_non_object_table_is_a_usage_error(command, table, through_config, capsys, tmp_path):
    generator = {"kind": "table", "table": NON_OBJECT_TABLES[table]}
    if through_config:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"generator": generator}))
        source = ["--config", str(config)]
    else:
        source = ["--generator", json.dumps(generator)]
    argv = [*EVERY_COMMAND[command], *source, "--p", "0.5,0.5", "--delta", "0.4", "--n", "4"]
    if command == "sample":
        argv += ["--out-prefix", str(tmp_path / "batch")]
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == "" and "Traceback" not in err
    assert err.splitlines() == [
        f"error: table generators require a table mapping index -> parent, "
        f"got {type(NON_OBJECT_TABLES[table]).__name__}"
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == (
        ["run.json"] if through_config else []
    )


# Table keys and parents follow the package's one integer rule.
NON_INTEGER_TABLES = {
    "fractional-parent": ({"2": 1.5}, "table parent of 2 must be an integer, got 1.5"),
    "boolean-parent": ({"2": True}, "table parent of 2 must be an integer, got true"),
    "fractional-key": ({"2": 1, "2.5": 1}, 'table key must be an integer, got "2.5"'),
    "underscored-key": ({"2": 1, "1_0": 1}, 'table key must be an integer, got "1_0"'),
}


@pytest.mark.parametrize("table", list(NON_INTEGER_TABLES))
@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_non_integer_table_entry_is_a_usage_error(command, table, capsys, tmp_path):
    entries, message = NON_INTEGER_TABLES[table]
    generator = json.dumps({"kind": "table", "table": entries})
    argv = [*EVERY_COMMAND[command], "--generator", generator, "--p", "0.5,0.5",
            "--delta", "0.4", "--n", "4"]
    if command == "sample":
        argv += ["--out-prefix", str(tmp_path / "batch")]
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


# Every setting of a run, valid, as config keys and as the text of their flags.
SETTINGS = {"generator": "fk", "N": 4, "K": 2, "p": [0.5, 0.5], "delta": 0.4, "seed": 1,
            "count": 3, "enumeration_cap": 1000}
FLAGS = {"generator": ("--generator", "fk"), "N": ("--n", "4"), "p": ("--p", "0.5,0.5"),
         "delta": ("--delta", "0.4"), "seed": ("--seed", "1"), "count": ("--count", "3"),
         "enumeration_cap": ("--cap", "1000")}
BAD_INTEGERS = ["1_0", "\uff13", "2.5", True]  # "\uff13" is a fullwidth 3
BAD_NUMBERS = [True, [True, False], "abc", [0.3], None, [[0.5, 0.5]]]


def flag_text(value):
    return value if isinstance(value, str) else json.dumps(value)


def assert_one_usage_error(code, out, err, tmp_path, left=()):
    assert code == EXIT_USAGE
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(left)


def run_settings(key, value, through_config, capsys, tmp_path):
    """`depcat sample` with one setting replaced by `value`, as a flag or a config key."""
    argv = ["sample", "--out-prefix", str(tmp_path / "batch")]
    if through_config:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**SETTINGS, key: value}))
        argv += ["--config", str(config)]
    else:
        for name, (flag, text) in FLAGS.items():
            argv += [flag, flag_text(value) if name == key else text]
    return run(argv, capsys)


@pytest.mark.parametrize(
    "key, value, through_config",
    [
        pytest.param(key, value, through_config, id=f"{key}-{name}-{via}")
        for key in ["N", "K", "seed", "count", "enumeration_cap"]
        for value, name in zip(BAD_INTEGERS, ["underscore", "fullwidth", "fraction", "true"])
        for through_config, via in [(False, "flag"), (True, "config")]
        if key in FLAGS or through_config  # K is p's length: a config key, not a flag
    ],
)
def test_malformed_integer_setting(key, value, through_config, capsys, tmp_path):
    code, out, err = run_settings(key, value, through_config, capsys, tmp_path)
    assert_one_usage_error(code, out, err, tmp_path, ["run.json"] if through_config else [])
    assert err.startswith(f"error: {key} must be an integer, got ")


@pytest.mark.parametrize("through_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize(
    "value", BAD_NUMBERS, ids=["true", "booleans", "text", "one-entry", "null", "nested"]
)
@pytest.mark.parametrize("key", ["delta", "p"])
def test_malformed_delta_or_p(key, value, through_config, capsys, tmp_path):
    code, out, err = run_settings(key, value, through_config, capsys, tmp_path)
    assert_one_usage_error(code, out, err, tmp_path, ["run.json"] if through_config else [])


@pytest.mark.parametrize("through_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("text", ["0.5,,0.5", "0.5,0.5,"], ids=["empty-entry", "trailing-comma"])
def test_p_text_with_an_empty_entry(text, through_config, capsys, tmp_path):
    # the text is split at every comma, so the empty entry reaches Marginal
    code, out, err = run_settings("p", text, through_config, capsys, tmp_path)
    assert_one_usage_error(code, out, err, tmp_path, ["run.json"] if through_config else [])
    assert err == 'error: marginal probability must be a number, got ""\n'


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["verify", "--generator", "fk", "--n", "3", "--delta", "0.4"], None,
         'this command needs a marginal: set "p" or --p'),
        (["validate", "--generator", "fk"], None, 'a sequence length is required: set "N" or --n'),
        (["sample", *SEQ_ARGS, "--seed", "1"], None,
         'sampling needs a count: set "count" or --count'),
        (["validate", "--generator", '{"table": {"2": 1}}', "--n", "2"], None,
         "generator object needs a 'kind' field"),
        (["validate"], '{"generator": 5, "N": 3}', "cannot interpret generator setting 5"),
        (["validate"], "[1]", "config file must hold a JSON object"),
        (["covariance", "2", "3", "--generator", "fk", "--n", "3", "--p", "0.5,0.5"], None,
         'this command needs a coefficient: set "delta" or --delta'),
        (["sample", *SEQ_ARGS, "--count", "2"], None,
         'sampling needs a seed: set "seed" or --seed'),
        # the checks run in one order: marginal, coefficient, seed, count
        (["verify", "--generator", "fk", "--n", "3"], None,
         'this command needs a marginal: set "p" or --p'),
        (["sample", "--generator", "fk", "--n", "3", "--p", "0.5,0.5"], None,
         'this command needs a coefficient: set "delta" or --delta'),
        (["sample", *SEQ_ARGS], None, 'sampling needs a seed: set "seed" or --seed'),
    ],
    ids=[
        "no-p", "no-N", "no-count", "no-kind", "generator-number", "config-list",
        "no-delta", "no-seed", "no-p-or-delta", "sample-only-p", "no-seed-or-count",
    ],
)
def test_missing_or_unusable_setting(argv, config, message, capsys, tmp_path):
    left = []
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv, left = [*argv, "--config", str(tmp_path / "run.json")], ["run.json"]
    if argv[0] == "sample":
        argv = [*argv, "--out-prefix", str(tmp_path / "batch")]
    code, out, err = run(argv, capsys)
    assert_one_usage_error(code, out, err, tmp_path, left)
    assert err == f"error: {message}\n"


def test_missing_config_file(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(["validate", "--config", str(missing)], capsys)
    assert_one_usage_error(code, out, err, tmp_path)
    reason = FileNotFoundError(2, os.strerror(2), str(missing))
    assert err == f"error: cannot read config file: {reason}\n"


def test_generator_text_that_is_not_json(capsys, tmp_path):
    code, out, err = run(["validate", "--generator", "{bad", "--n", "3"], capsys)
    assert_one_usage_error(code, out, err, tmp_path)
    with pytest.raises(json.JSONDecodeError) as reason:
        json.loads("{bad")
    assert err == f"error: invalid generator JSON: {reason.value}\n"


@pytest.mark.parametrize("command", ["validate", "graph", "verify"])
@pytest.mark.parametrize("through_config", [False, True], ids=["flag", "config"])
def test_generator_with_an_unknown_key_is_a_usage_error(command, through_config, capsys, tmp_path):
    generator = {"kind": "fk", "tabel": {"2": 1}}
    argv = [command, "--n", "3", "--p", "0.5,0.5", "--delta", "0.4"]
    if command != "verify":
        argv = argv[:3]
    if through_config:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"generator": generator}))
        argv += ["--config", str(config)]
    else:
        argv += ["--generator", json.dumps(generator)]
    code, out, err = run(argv, capsys)
    assert_one_usage_error(code, out, err, tmp_path, ["run.json"] if through_config else [])
    assert err == "error: generator keys other than 'kind' and 'table': 'tabel'\n"


# JSON text that gives one key twice, as written: `json` alone keeps the last
# value.  Keys that differ as text ("3", "03") are GeneratorSpec's to refuse.
@pytest.mark.parametrize(
    "argv, config, key",
    [
        pytest.param(["graph", "--format", "json"], '{"generator": "fk", "N": 3, "N": 4}', "N",
                     id="config-N"),
        pytest.param(["graph", "--format", "json"],
                     '{"N": 3, "generator": {"kind": "table", "table": {"2": 1, "2": 1}}}', "2",
                     id="config-nested-table"),
        pytest.param(["graph", "--generator",
                      '{"kind": "table", "table": {"2": 1, "3": 1, "3": 2}}',
                      "--n", "3", "--format", "json"], None, "3", id="flag-table"),
        pytest.param(["validate", "--generator", '{"kind": "fk", "kind": "sequential"}',
                      "--n", "3"], None, "kind", id="flag-kind"),
    ],
)
def test_a_repeated_json_key_is_a_usage_error(argv, config, key, capsys, tmp_path):
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "run.json")]
    code, out, err = run(argv, capsys)
    assert_one_usage_error(code, out, err, tmp_path, ["run.json"] if config else [])
    assert err == f"error: JSON object gives the key {key!r} twice\n"


# One past the end of the generators' domain: a usage error naming the bound,
# before any array of that size is asked for.
@pytest.mark.parametrize(
    "command, message",
    [("validate", "max_index 9007199254740993 outside 2..9007199254740992"),
     ("graph", "tree size 9007199254740993 outside 1..9007199254740992")],
)
def test_size_past_the_domain_end_is_a_usage_error(command, message, capsys, tmp_path):
    argv = [command, "--generator", "sin_drift", "--n", str(2**53 + 1)]
    code, out, err = run(argv, capsys)
    assert_one_usage_error(code, out, err, tmp_path)
    assert err == f"error: {message}\n"


def test_validate_below_two_has_nothing_to_check(capsys):
    code, out, err = run(["validate", "--generator", "fk", "--n", "1"], capsys)
    assert (code, out, err) == (
        EXIT_OK, "generator domain is empty below n = 2; nothing to check\n", ""
    )


# Inputs whose first array cannot be allocated (4.00 TiB and 7.28 TiB).  Each runs in a
# child whose address space is capped, so the allocation fails at once: without the cap,
# an overcommitting kernel could grant it and the machine's memory would fill.  One BLAS
# thread keeps numpy's own per-thread buffers from counting against the cap on many cores.
OUT_OF_MEMORY = {
    "sample": ["sample", "--generator", "fk", "--p", "0.5,0.5", "--delta", "0.4", "--n", "4",
               "--seed", "1", "--count", "1099511627776"],
    "validate": ["validate", "--generator", "fk", "--n", "1000000000000"],
    "graph": ["graph", "--generator", "fk", "--n", "1000000000000"],
}
ADDRESS_SPACE_CAP = 2_000_000 * 1024


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.mark.parametrize("command", list(OUT_OF_MEMORY))
def test_out_of_memory_is_a_usage_error(command, tmp_path):
    argv = OUT_OF_MEMORY[command]
    if command == "sample":
        argv = [*argv, "--out-prefix", str(tmp_path / "batch")]
    src = str(Path(depcat.cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from depcat.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert_one_usage_error(done.returncode, done.stdout, done.stderr, tmp_path)
    assert done.stderr.startswith("error: out of memory: Unable to allocate "), done.stderr


@pytest.mark.parametrize("message", ["Unable to allocate 4.00 TiB", ""], ids=["message", "bare"])
def test_out_of_memory_in_process(message, capsys, monkeypatch, tmp_path):
    # the branch of `main` above, reached in this process by a failing draw
    def failing(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(depcat.cli, "sample_batch", failing)
    argv = ["sample", *SEQ_ARGS, "--seed", "1", "--count", "10",
            "--out-prefix", str(tmp_path / "batch")]
    code, out, err = run(argv, capsys)
    assert_one_usage_error(code, out, err, tmp_path)
    assert err == f"error: out of memory: {message or 'an allocation failed'}\n"


@pytest.mark.parametrize("value", BAD_INTEGERS, ids=["underscore", "fullwidth", "fraction", "true"])
@pytest.mark.parametrize("name", ["m", "n", "workers"])
def test_malformed_integer_argument(name, value, capsys, tmp_path):
    text = flag_text(value)
    if name == "workers":
        argv = ["sample", *SEQ_ARGS, "--seed", "1", "--count", "3", "--workers", text,
                "--out-prefix", str(tmp_path / "batch")]
    else:
        m, n = (text, "3") if name == "m" else ("2", text)
        argv = ["covariance", m, n, *SEQ_ARGS, "--out", str(tmp_path / "cov.json")]
    code, out, err = run(argv, capsys)
    assert_one_usage_error(code, out, err, tmp_path)
    assert err.startswith(f"error: {name} must be an integer, got ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", *SEQ_ARGS, "--n", "0"], "N must be >= 1, got 0"),
        (["graph", "--generator", "fk", "--n", "4", "--cap", "0"],
         "enumeration_cap must be >= 1, got 0"),
        (["covariance", "2", "7", *SEQ_ARGS], "n 7 outside 1..6"),
        (["covariance", "2", "2", *SEQ_ARGS],
         "positions must satisfy 1 <= m < n, got m=2, n=2"),
        (["sample", *SEQ_ARGS, "--seed", "1", "--count", "-1"], "count must be >= 0, got -1"),
        (["sample", *SEQ_ARGS, "--seed", "1", "--count", "3", "--workers", "0"],
         "workers must be >= 1, got 0"),
    ],
    ids=["N", "cap", "n-past-N", "m-equals-n", "count", "workers"],
)
def test_out_of_range_integer_setting(argv, message, capsys, tmp_path):
    if argv[0] == "sample":
        argv = [*argv, "--out-prefix", str(tmp_path / "batch")]
    code, out, err = run(argv, capsys)
    assert_one_usage_error(code, out, err, tmp_path)
    assert err == f"error: {message}\n"


def test_flags_and_config_read_integers_alike(capsys, tmp_path):
    # "1_0" was N = 10 as a flag and a usage error as a config key
    code, out, err = run(["graph", "--generator", "fk", "--n", "1_0"], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", 'error: N must be an integer, got "1_0"\n')
    code, out, _ = run(["graph", "--generator", "fk", "--n", "+3", "--format", "json"], capsys)
    assert code == EXIT_OK and json.loads(out) == {"2": 1, "3": 1}


def test_config_file_that_is_not_utf8(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"N": "\xff"}')
    code, out, err = run(["validate", "--config", str(config)], capsys)
    assert_one_usage_error(code, out, err, tmp_path, ["run.json"])
    assert err.startswith("error: config file is not valid JSON")


class TestConfigHandling:
    def test_config_file_supplies_everything(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "K": 3,
                    "N": 5,
                    "p": [0.5, 0.3, 0.2],
                    "delta": 0.4,
                    "generator": {"kind": "sequential"},
                    "enumeration_cap": 10_000_000,
                }
            )
        )
        code, out, _ = run(["verify", "--config", str(config)], capsys)
        assert code == EXIT_OK
        assert "PASS" in out

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"N": 3, "generator": {"kind": "fk"}})
        )
        code, out, _ = run(
            ["graph", "--config", str(config), "--generator", "sequential",
             "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"2": 1, "3": 2}

    def test_table_generator_in_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {"N": 4, "generator": {"kind": "table", "table": {"2": 1, "3": 1, "4": 2}}}
            )
        )
        code, out, _ = run(["graph", "--config", str(config), "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {"2": 1, "3": 1, "4": 2}

    def test_k_p_mismatch(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"K": 4}))
        code, _, err = run(
            ["validate", "--config", str(config), "--generator", "fk", "--n", "3",
             "--p", "0.5,0.5"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err == "error: K=4 conflicts with a 2-entry p\n"

    def test_k_is_not_a_flag(self, capsys):
        # K is p's length; a config may state it, as every sidecar does, and it is checked
        argv = ["verify", "--generator", "fk", "--p", "0.5,0.5", "--delta", "0.4", "--n", "3",
                "--k", "2"]
        code, out, err = run_or_exit(argv, capsys)
        assert (code, out) == (("SystemExit", EXIT_USAGE), "")
        assert err.splitlines()[-1] == "depcat: error: unrecognized arguments: --k 2"

    def test_malformed_config_file(self, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        code, _, err = run(["validate", "--config", str(config)], capsys)
        assert code == EXIT_USAGE
        assert "JSON" in err

    @pytest.mark.parametrize("key", ["N", "K", "seed", "count", "enumeration_cap"])
    def test_integer_settings_reject_floats_and_booleans(self, key, capsys, tmp_path):
        config = tmp_path / "run.json"
        for bad in (6.7, True):
            settings = {"N": 3, "generator": "fk", "p": [0.5, 0.5], "K": 2, key: bad}
            config.write_text(json.dumps(settings))
            code, _, err = run(["validate", "--config", str(config)], capsys)
            assert code == EXIT_USAGE, bad
            assert f"{key} must be an integer, got {json.dumps(bad)}" in err

    def test_integral_float_settings_still_accepted(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"N": 3.0, "generator": "fk", "seed": 5.0}))
        code, _, _ = run(["validate", "--config", str(config)], capsys)
        assert code == EXIT_OK

    def test_missing_generator(self, capsys):
        code, _, err = run(["validate", "--n", "5"], capsys)
        assert code == EXIT_USAGE
        assert "generator" in err

    def test_unread_keys_are_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"generator": "fk", "N": 4, "p": [0.5, 0.5], "delta": 0.4,
                                      "detla": 0.9, "enumeration-cap": 1}))
        code, out, err = run(["verify", "--config", str(config)], capsys)
        assert_one_usage_error(code, out, err, tmp_path, ["run.json"])
        assert err == "error: config keys that no setting reads: 'detla', 'enumeration-cap'\n"

    def sample_a(self, capsys, tmp_path):
        argv = ["sample", *SEQ_ARGS, "--seed", "7", "--count", "40",
                "--out-prefix", str(tmp_path / "a")]
        assert run(argv, capsys)[0] == EXIT_OK

    def test_sidecar_redraws_its_batch(self, capsys, tmp_path):
        self.sample_a(capsys, tmp_path)
        argv = ["sample", "--config", str(tmp_path / "a.meta.json"),
                "--out-prefix", str(tmp_path / "b")]
        assert run(argv, capsys)[0] == EXIT_OK
        for name in ("csv", "meta.json"):
            assert (tmp_path / f"b.{name}").read_bytes() == (tmp_path / f"a.{name}").read_bytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [("algorithm", "philox", f"config algorithm 'philox' is not {ALGORITHM_ID!r}"),
         ("first_index", 100, "config first_index 100 is not 0, the CLI's first row")],
    )
    def test_sidecar_of_another_draw(self, key, value, message, capsys, tmp_path):
        self.sample_a(capsys, tmp_path)
        sidecar = json.loads((tmp_path / "a.meta.json").read_text())
        (tmp_path / "c.json").write_text(json.dumps({**sidecar, key: value}))
        argv = ["sample", "--config", str(tmp_path / "c.json"), "--out-prefix", str(tmp_path / "b")]
        code, out, err = run(argv, capsys)
        assert_one_usage_error(code, out, err, tmp_path, ["a.csv", "a.meta.json", "c.json"])
        assert err == f"error: {message}\n"

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "tree.dot"
        code, out, _ = run(
            ["graph", "--generator", "fk", "--n", "3", "--out", str(out_path)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        assert "2 -> 1;" in out_path.read_text()


def test_verification_failure_exit_code_exists():
    # the constant is part of the CLI contract even though a healthy build
    # never produces it
    assert EXIT_VERIFICATION == 4
