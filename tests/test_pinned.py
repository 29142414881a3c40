"""Pinned CLI report bytes, one-node trees, the pi constant and input contracts."""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

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

# exit code, then sha256 of stdout, a NUL byte and stderr
REPORT_DIGESTS = {
    "covariance-fk": (0, "34c3017136f9fe7bac33ca759fc9356dbdecfb89c9e7e5f52fe871f093fd3929"),
    "covariance-floor_sqrt": (0, "32bf6079f89c2fc99cef95ed54faa3f9338a698486a395bc149a82dc248d7f65"),
    "covariance-prime_partition": (0, "48df432afb08545261a853614556dafc9f5a8f14034f4f400b2273f6cdd793c3"),
    "covariance-sequential": (0, "4acbd93b1ee18755a264a6a2fd669013944560ab9c1a7ba3e883231f508a2edc"),
    "covariance-sin_drift": (0, "fe9d17cdedeb6981cd0523d9de892f5bf5f2d4ac01cec70074d90410cbb55be9"),
    "exit-2": (2, "2bb6b5acf6f5b3f540f698db575c0b1dda5d25c5e90f06306984df632f517ef3"),
    "exit-3": (3, "f9b64824138a92b91295ecb97c21f232a170b0691c463ed50748d7408a4487bb"),
    "exit-5": (5, "b5cd6d734ba3f7aaa4526977377351d9d835b1ec258344bc7dd3b8e0614e28bb"),
    "graph-dot": (0, "92b3a0b9a971672368618d872b811f04228bd656911b8bbf0c8c035315cfa68e"),
    "graph-json": (0, "f9d68f98c5c0a4c88a30271c068acf416332a81665874103e5f1fc87e9b728f4"),
    "validate-gapped": (3, "9bca84d71c71b8eb1411466c4006f4d875d6ed029a73c3f11acce6bd2360d9c7"),
    "verify-fk-k2": (0, "c6a2161e4c99fb7af56a17133073b4a7670c019af2fcf90e5c1aaabdaf938ffb"),
    "verify-fk-k3-0.2": (0, "4fe7da345ee3a6a813f799cae92193af31be57220d051c16d6335fe556d7aaf2"),
    "verify-fk-k3-0.7": (0, "846a2660b8f1679e978f1938c0af0629bfacefd843d2378f29ba73efe42ea3f1"),
    "verify-fk-k4": (0, "264b823d4efd5ddc62586112a4878b816fc3468446642122b389ea4439f0f854"),
    "verify-floor_sqrt-k2": (0, "dca0bab2a49abb10cc0642904e36fb8bd9ad4093bfdd9117be66290c17537ac4"),
    "verify-floor_sqrt-k3-0.2": (0, "a670d80526bb05b92d0fd93b82723a1ba3543b6723a0b49904920e03266a8050"),
    "verify-floor_sqrt-k3-0.7": (0, "db63e448a61f4064c86671625bef2913f744dec0975eb4e4a6b26400adb6654d"),
    "verify-floor_sqrt-k4": (0, "264b823d4efd5ddc62586112a4878b816fc3468446642122b389ea4439f0f854"),
    "verify-prime_partition-k2": (0, "eef5e6774ee7f12776fc0529ce112d26ee8ddbef7792f32e54ace83afc0c5959"),
    "verify-prime_partition-k3-0.2": (0, "4eb8139ee2954f4edd16ab5f3a250100b678f299e7889fe540eb40c4cb50d465"),
    "verify-prime_partition-k3-0.7": (0, "1b026638405ec15d9bad16b9c20805cb8eb95628f73f8e93559eba312197a9b5"),
    "verify-prime_partition-k4": (0, "607fe0b48326c6829e45d75133d413db5139937b450fc5ec49e9e90e89efafb6"),
    "verify-sequential-k2": (0, "f9425cfc2df079ab7e4d4d8b5e6895691bcde2b9a4eda6a0693a15480fa0af27"),
    "verify-sequential-k3-0.2": (0, "7dc367d53b9ed9e6a00f21e22cb322823642009b673a80614114f3111d87047b"),
    "verify-sequential-k3-0.7": (0, "1725a3876568481f9e240ffc7fab6ede0fff729f9b319ea87e20d2a0c141ab80"),
    "verify-sequential-k4": (0, "13092cff41c03249d82209d56cbdcfd32608f860769bc54cfe8f83288aabe9ea"),
    "verify-sin_drift-k2": (0, "dca0bab2a49abb10cc0642904e36fb8bd9ad4093bfdd9117be66290c17537ac4"),
    "verify-sin_drift-k3-0.2": (0, "a6c9a7ee19e97e132415429c941e045346878ad955ba7d956b129892b1421a1b"),
    "verify-sin_drift-k3-0.7": (0, "893b883ddcb6d0040cd41d61624364276f4e234a6aa98058b19f903a7b70f400"),
    "verify-sin_drift-k4": (0, "607fe0b48326c6829e45d75133d413db5139937b450fc5ec49e9e90e89efafb6"),
}


def _report(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    captured = capsys.readouterr()
    text = captured.out + "\0" + captured.err
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_bytes_are_pinned(name, capsys):
    assert _report(INVOCATIONS[name], capsys) == REPORT_DIGESTS[name]


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


# The reports above print 12 significant digits, so these pin every bit: the
# sha256 of enumerated_marginals' float64 bytes, and of the verification
# suite's max errors as reprs, one a line, at the two CI points.
BIT_POINTS = {
    "k4": ((0.4, 0.3, 0.2, 0.1), 0.7, 8),
    "k2": ((0.6, 0.4), 0.2, 12),
}
BIT_DIGESTS = {
    ("fk", "k2"): (
        "8fe9d73bcbdeea11107862d62365951b70aa576817d43e8bcababb8074745b95",
        "b74a6e7e16194cd2be5ebb61e53765251b1ddee61e0e85fe8c42ceca6750a3d6",
    ),
    ("fk", "k4"): (
        "3e602283f89177f9170e6ef5ec7279d49d65ecdcd37ce52f34fce69d429776b5",
        "f5d2b20709a8f991fbc60b88e33203a23659ddc8f740d82333a330e3883576e4",
    ),
    ("floor_sqrt", "k2"): (
        "7738ba40bd122999b022a525cb25e4ba579760dd922cda5630189fe2cde51745",
        "5782f723fa069d4681deb4e2c23f5785445f99ff955caa4a9c00fad0f97b2c32",
    ),
    ("floor_sqrt", "k4"): (
        "b0bcc0c4d2b82e7421a029f5d9489edf37124dcb369a3ad1b0e73f3df978fcf7",
        "f5d2b20709a8f991fbc60b88e33203a23659ddc8f740d82333a330e3883576e4",
    ),
    ("prime_partition", "k2"): (
        "f7a286c2e150d6127fb8e273faa6b3d60ae5a51e4e0045fc316a7b4f5736819b",
        "043f09539eb0e695b0f569b85e7a70fa856f6d047ea351d255e3f9f262d7f02b",
    ),
    ("prime_partition", "k4"): (
        "eb9747d8e150ce3671490f5cf2a35f4e478c6cf8a9b1dc56d3635e2d1f717471",
        "cc46b8244884bcf25026f7fb3e5c94bcaddc2921468afa8594dfe7c5cb68c65a",
    ),
    ("sequential", "k2"): (
        "9bb755ad36bc9a3c9eaec439afbeb2b899e1975a0666e020ef0863789c61f694",
        "0a312fd81b43b538bb94be6d352fc29077244d7bca6c76fcc4f729cd676b7de7",
    ),
    ("sequential", "k4"): (
        "08eca5d5a0de6060d72fc585d8931a4c9b3e4fd5fe456e1673f4917326bf04a8",
        "8f9821744863aab5ee97506b69507cb26cbc5f800004e526e07650cbace7ef02",
    ),
    ("sin_drift", "k2"): (
        "5cc5db5249d6ef1ea27b94c2e0e2e922832551a61789b8f8d0e3657ac2e60931",
        "5782f723fa069d4681deb4e2c23f5785445f99ff955caa4a9c00fad0f97b2c32",
    ),
    ("sin_drift", "k4"): (
        "bee808cf2b4958557b6bd9f96c3a8cb21acb91583fe02ff4fb675920cc029aad",
        "cc46b8244884bcf25026f7fb3e5c94bcaddc2921468afa8594dfe7c5cb68c65a",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind, point", sorted(BIT_DIGESTS))
def test_exact_bits_are_pinned(kind, point):
    p, delta, length = BIT_POINTS[point]
    spec = GeneratorSpec.builtin(kind)
    marginals = enumerated_marginals(p, delta, spec, length)
    assert marginals.dtype == np.float64 and marginals.shape == (length, len(p))
    checks = verification_suite(p, delta, spec, length)
    errors = "\n".join(repr(check.max_error) for check in checks).encode("ascii")
    assert (_sha256(marginals.tobytes()), _sha256(errors)) == BIT_DIGESTS[kind, point]


def _bit_point_bytes(points):
    """Per (kind, p, delta, length): the marginals' bytes in hex, then the max error reprs."""
    out = []
    for kind, p, delta, length in points:
        spec = GeneratorSpec.builtin(kind)
        marginals = enumerated_marginals(p, delta, spec, length).tobytes().hex()
        checks = verification_suite(p, delta, spec, length)
        out.append([marginals, [repr(check.max_error) for check in checks]])
    return out


def _has_cpu_features(*names):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(name, False) for name in names)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _has_cpu_features("AVX2", "FMA3"),
    reason="OpenBLAS's Haswell kernel needs an x86-64 CPU with AVX2 and FMA",
)
def test_exact_bits_do_not_depend_on_the_blas_kernel():
    # Every sum of the exact routes is a numpy reduction, so a child process
    # that makes OpenBLAS load its Haswell kernel gives the bits of this one.
    points = [[kind, *BIT_POINTS[point]] for kind, point in sorted(BIT_DIGESTS)]
    tests, src = os.path.dirname(__file__), os.path.dirname(os.path.dirname(depcat.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from test_pinned import _bit_point_bytes; "
        "print(json.dumps(_bit_point_bytes(json.loads(sys.argv[2]))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, tests, json.dumps(points)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(result.stdout) == _bit_point_bytes(points)
