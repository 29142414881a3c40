"""Pinned CLI report bytes, one-node trees, the pi constant and input contracts."""

import contextlib
import difflib
import functools
import io
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from test_writer import GOLDENS as BATCHES, cli_digests

import depcat
from depcat import (
    CrossCovariance,
    DomainError,
    GeneratorSpec,
    build_tree,
    enumerated_marginals,
    verification_suite,
)
from depcat.cli import main
from depcat.generators import BUILTIN_KINDS, _PI

K4 = ["--p", "0.4,0.3,0.2,0.1", "--n", "8", "--delta", "0.7"]
K2 = ["--p", "0.6,0.4", "--n", "12", "--delta", "0.2"]
K3 = ["--p", "0.5,0.3,0.2", "--n", "11"]
GAPPED = json.dumps({"kind": "table", "table": {"2": 1, "4": 4, "5": 9}})
MISSING_3 = json.dumps({"kind": "table", "table": {"2": 1, "4": 2}})


def _invocations() -> dict[str, list[str]]:
    """Named argv lists whose exit code, stdout and stderr are pinned."""
    runs = {}
    for kind in BUILTIN_KINDS:
        g = ["--generator", kind]
        runs[f"verify-{kind}-k4"] = ["verify", *g, *K4]
        runs[f"verify-{kind}-k2"] = ["verify", *g, *K2]
        for delta in ("0.2", "0.7"):
            runs[f"verify-{kind}-k3-{delta}"] = ["verify", *g, *K3, "--delta", delta]
        runs[f"covariance-{kind}"] = ["covariance", *g, *K4, "3", "8", "--method", "both"]
    prime = ["graph", "--generator", "prime_partition", "--n", "60"]
    runs["graph-json"] = [*prime, "--format", "json"]
    runs["graph-dot"] = [*prime, "--format", "dot"]
    runs["validate-gapped"] = ["validate", "--generator", GAPPED, "--n", "6"]
    runs["exit-2"] = ["verify", "--generator", "fk", "--p", "0.5,,0.5", "--delta", "0.4", "--n", "4"]
    runs["exit-3"] = ["verify", "--generator", MISSING_3, "--p", "0.5,0.5", "--delta", "0.4", "--n", "4"]
    runs["exit-5"] = ["verify", "--generator", "fk", "--p", "0.5,0.3,0.2", "--delta", "0.4", "--n", "20"]
    return runs


INVOCATIONS = _invocations()

# The goldens of this module: one text file per pinned report and bit point,
# rewritten from the checkout by `python3 tools/goldens.py`.
GOLDENS = Path(__file__).resolve().parent / "goldens"


def report_golden(argv) -> str:
    """One CLI run as its golden reads: the exit code, then stdout and stderr verbatim."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def assert_golden(name: str, text: str) -> None:
    """`text` is the golden file `name` byte for byte; otherwise fail with a unified diff."""
    expected = (GOLDENS / name).read_bytes()
    if text.encode("utf-8") != expected:
        diff = difflib.unified_diff(
            expected.decode("utf-8").splitlines(keepends=True), text.splitlines(keepends=True),
            f"tests/goldens/{name}", "this checkout",
        )
        pytest.fail("".join(diff) + "(rewrite with: python3 tools/goldens.py)", pytrace=False)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_bytes_are_pinned(name):
    assert_golden(f"reports/{name}.txt", report_golden(INVOCATIONS[name]))


def test_a_wrong_byte_fails_with_a_unified_diff():
    name = "reports/verify-fk-k2.txt"
    golden = (GOLDENS / name).read_text(encoding="utf-8")
    line = golden.splitlines()[3]  # the identical-marginals line
    with pytest.raises(pytest.fail.Exception) as failure:
        assert_golden(name, golden.replace(line, line.replace("PASS", "FAIL")))
    message = str(failure.value)
    assert message.startswith(f"--- tests/goldens/{name}\n+++ this checkout\n@@ ")
    assert f"\n-{line}\n+{line.replace('PASS', 'FAIL')}\n" in message
    assert message.endswith("(rewrite with: python3 tools/goldens.py)")


@pytest.mark.parametrize("kind", BUILTIN_KINDS)
class TestSmallTrees:
    def test_one_node(self, kind):
        tree = build_tree(GeneratorSpec.builtin(kind), 1)
        assert tree.size == 1 and tree.parents.shape == (0,)
        assert list(tree.edges()) == []

    def test_two_nodes(self, kind):
        tree = build_tree(GeneratorSpec.builtin(kind), 2)
        assert tree.size == 2 and list(tree.edges()) == [(2, 1)]
        assert tree.branch_lengths(1, 2) == (1, 0, 1)

    def test_graph_of_one_node_is_empty(self, kind, capsys):
        code = main(["graph", "--generator", kind, "--n", "1", "--format", "json"])
        assert (code, capsys.readouterr().out) == (0, "{}\n")


def test_branch_lengths_count_each_side():
    tree = build_tree(GeneratorSpec.builtin("floor_sqrt"), 16)  # 5 -> 2 -> 1, 16 -> 4 -> 2
    assert tree.branch_lengths(5, 16) == (2, 1, 2)
    assert tree.branch_lengths(16, 5) == (2, 2, 1)


def test_pi_matches_mpmath_to_100_digits():
    with mpmath.workdps(110):
        assert str(_PI) == mpmath.nstr(mpmath.pi, 100, strip_zeros=False)


class TestCrossCovarianceRejects:
    @pytest.mark.parametrize("method", ["empirical", "closed-form"])
    def test_nan(self, method):
        with pytest.raises(DomainError, match="finite"):
            CrossCovariance(1, 2, [[np.nan, 0.0], [0.0, 0.0]], method)

    @pytest.mark.parametrize("method", ["empirical", "closed-form"])
    def test_infinite(self, method):
        with pytest.raises(DomainError, match="finite"):
            CrossCovariance(1, 2, [[np.inf, -np.inf], [-np.inf, np.inf]], method)

    def test_not_a_number(self):
        with pytest.raises(DomainError, match="must be numbers"):
            CrossCovariance(1, 2, "abc", "x")

    @pytest.mark.parametrize(
        "method",
        ["bogus", None, "Empirical", "both", np.array("empirical"), np.array(["empirical"])],
    )
    def test_a_method_the_library_does_not_make(self, method):
        # to_json_dict prints the method, and only "empirical" skips the symmetry check
        methods = re.escape(repr(("enumeration", "closed-form", "empirical")))
        named = f"^covariance method must be one of {methods}, got {re.escape(repr(method))}$"
        with pytest.raises(DomainError, match=named):
            CrossCovariance(1, 2, [[0.25, -0.25], [-0.25, 0.25]], method)


@pytest.mark.parametrize("data", [5, None, ["kind"], "kind"])
def test_generator_from_a_non_mapping(data):
    with pytest.raises(DomainError, match="JSON object"):
        GeneratorSpec.from_dict(data)


# The reports above print 12 significant digits, so these pin every bit, in
# float.hex: enumerated_marginals, one position a line, and the verification
# suite's max errors, at the two CI points.
BIT_POINTS = {
    "k4": ((0.4, 0.3, 0.2, 0.1), 0.7, 8),
    "k2": ((0.6, 0.4), 0.2, 12),
}
BIT_CASES = sorted((kind, point) for kind in BUILTIN_KINDS for point in BIT_POINTS)


def bit_golden(kind: str, point: str) -> str:
    """One bit point as its golden reads."""
    p, delta, length = BIT_POINTS[point]
    spec = GeneratorSpec.builtin(kind)
    marginals = enumerated_marginals(p, delta, spec, length)
    assert marginals.dtype == np.float64 and marginals.shape == (length, len(p))
    lines = ["enumerated_marginals, one position a line"]
    lines += [" ".join(value.hex() for value in row.tolist()) for row in marginals]
    lines.append("verification_suite max errors")
    checks = verification_suite(p, delta, spec, length)
    lines += [f"{check.name} {check.max_error.hex()}" for check in checks]
    return "\n".join(lines) + "\n"


def goldens() -> dict:
    """Every golden file's name under tests/goldens, and the call that renders it."""
    calls = {f"reports/{name}.txt": functools.partial(report_golden, argv)
             for name, argv in INVOCATIONS.items()}
    calls.update({f"bits/{kind}-{point}.txt": functools.partial(bit_golden, kind, point)
                  for kind, point in BIT_CASES})
    return calls


@pytest.mark.parametrize("kind, point", BIT_CASES)
def test_exact_bits_are_pinned(kind, point):
    assert_golden(f"bits/{kind}-{point}.txt", bit_golden(kind, point))


def rendered_goldens(tmp: str) -> dict:
    """Every golden of goldens() and test_writer.GOLDENS, as this process renders it."""
    texts = {name: render() for name, render in goldens().items()}
    for case in BATCHES:
        texts[case] = [*cli_digests(case, "csv", tmp), *cli_digests(case, "jsonl", tmp)]
    return texts


@pytest.mark.parametrize("kernel", ["Haswell", "Zen", "Prescott"])
def test_every_golden_holds_under_each_blas_kernel(kernel, tmp_path):
    # The exact routes and the sampler make no BLAS call, so a child process
    # that makes OpenBLAS load `kernel` renders every golden byte for byte.
    feature = "SSE3" if kernel == "Prescott" else "AVX2"  # as numpy 1 or 2 names it
    cpu = (getattr(np, "_core", None) or np.core)._multiarray_umath.__cpu_features__
    if platform.machine().lower() not in ("x86_64", "amd64") or not cpu[feature]:
        pytest.skip(f"OpenBLAS's {kernel} kernel needs x86-64 with {feature}")
    child = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                           env=dict(os.environ, OPENBLAS_CORETYPE=kernel), timeout=300)
    assert child.returncode == 0, child.stderr.decode()
    rendered = json.loads(child.stdout)
    for name in goldens():
        assert_golden(name, rendered.pop(name))
    assert rendered == {c: [csv, meta, jsonl, meta] for c, (_, csv, jsonl, meta) in BATCHES.items()}


if __name__ == "__main__":  # the child of the test above
    print(json.dumps(rendered_goldens(sys.argv[1])))
