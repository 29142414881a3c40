"""Pinned CLI report bytes, one-node trees, the pi constant and input contracts."""

import hashlib
import json
import re

import mpmath
import numpy as np
import pytest

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
    "covariance-fk": (0, "58125a0064a840ba205f4298d2d82b44894f3bf0786e39ffea2fb503569e8186"),
    "covariance-floor_sqrt": (0, "165e5572b8c85f21a749c34607f297e90e048eff86637315adbf0ea257a59d3e"),
    "covariance-prime_partition": (0, "074fe97beeb0fce960955271eac322d5b11391628342e6b8d99c368bf4deb41f"),
    "covariance-sequential": (0, "3104cc959877b0e3981158a2597246945996560c0552a2e01bde6cdc86036d7e"),
    "covariance-sin_drift": (0, "232105994255fca9748ffc532998ac96d09ed2cd99ed25abc48ea792adb7b7e7"),
    "exit-2": (2, "2bb6b5acf6f5b3f540f698db575c0b1dda5d25c5e90f06306984df632f517ef3"),
    "exit-3": (3, "f9b64824138a92b91295ecb97c21f232a170b0691c463ed50748d7408a4487bb"),
    "exit-5": (5, "b5cd6d734ba3f7aaa4526977377351d9d835b1ec258344bc7dd3b8e0614e28bb"),
    "graph-dot": (0, "92b3a0b9a971672368618d872b811f04228bd656911b8bbf0c8c035315cfa68e"),
    "graph-json": (0, "f9d68f98c5c0a4c88a30271c068acf416332a81665874103e5f1fc87e9b728f4"),
    "validate-gapped": (3, "9bca84d71c71b8eb1411466c4006f4d875d6ed029a73c3f11acce6bd2360d9c7"),
    "verify-fk-k2": (0, "3e0ef8c1e7a5a8df7a63ed203db45cbe4c3d2eca8be71a62dd65825b5372a624"),
    "verify-fk-k3-0.2": (0, "716377e6bd4f8eabcfb180b2822fa4b650a9ec03fbfee9dedcd7bddb03b538f3"),
    "verify-fk-k3-0.7": (0, "343f1bd802ee3971fc8f2f21f27d915ec57d8f9052e1b1bdb6fc6b17b896a8a9"),
    "verify-fk-k4": (0, "661873413c27b4b15f970c06eaa8ead1c60ed282fc7f7b2da3ae82b3d03e2e7e"),
    "verify-floor_sqrt-k2": (0, "39c120d5eb1e83efd86426d25f98b049e1d8c3337be5bfef52a1a15e308db2ed"),
    "verify-floor_sqrt-k3-0.2": (0, "721b27ba4188c7f69209a52aed7c549f40fe061f52a4f3ed1668d6153884fcbc"),
    "verify-floor_sqrt-k3-0.7": (0, "123cdf57e6064fc65a79c65054ac524bcee4a81c58f50131a5c920c53f7f7cdd"),
    "verify-floor_sqrt-k4": (0, "2202e3887c4e1c54747eb2a432bdda8c2242790f5d0e0ec00c610485ceee4838"),
    "verify-prime_partition-k2": (0, "a951509d74fdf39f0a7e8135a055f98d4201e84e5033f20ba3a35dfee8546533"),
    "verify-prime_partition-k3-0.2": (0, "4f64e2602fb797b187e554dfa35ed47b3a7a00100c065a766283789f00516313"),
    "verify-prime_partition-k3-0.7": (0, "a3cefe87d2a17301e79048161791ecc758a50e6a81905d78fa021004e149031b"),
    "verify-prime_partition-k4": (0, "ac10816db681af13281b4f0427d9812d9445ef61312c069c4533d9d0dc07baa9"),
    "verify-sequential-k2": (0, "18a5c4770298c672e3bba1ce0479dbbf4d644073e6d08e7e8ba14cffefcf6539"),
    "verify-sequential-k3-0.2": (0, "abb036efbec4c073c96ea90631e2af6bc09fb2eb0224cc19682fedcaa7986b0c"),
    "verify-sequential-k3-0.7": (0, "4c22a28d5590c8cf8ecce6aa22047c18caa58c7ef8fa1c40e51df07e3d8c66d6"),
    "verify-sequential-k4": (0, "ff87402ded8d7d729cbb96b4ac24920731bb572ddb533be768742e0c226dfaa2"),
    "verify-sin_drift-k2": (0, "3caa726b0b2d85cc39d754dea696348809891a31cca49d5ec5daf1ffcf790480"),
    "verify-sin_drift-k3-0.2": (0, "61deb0e81f3267370f0937c0327d478bdbc0a292501f0a0713d2e9e5241e30a2"),
    "verify-sin_drift-k3-0.7": (0, "f1b932edceaa89b386a3083bd286b7ed362d96eda265164ec050acda27343b7b"),
    "verify-sin_drift-k4": (0, "5e96260ec40e3005593c9c1d433d395b9355bc51da2125b396f952a4b06d35af"),
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
        "351ca792f6a894dc6edb944307b74bfd2f2361629a4f31849a2da8502a67a9c3",
        "51a47aaf3e2506807e976550a1579d232a37930ec602cfced8c9be0ca557a830",
    ),
    ("fk", "k4"): (
        "887825e7b8fe2480441514c2beba38089d3e7c984a4a5aae748ac9e718115c3a",
        "00efcd677c5914a7bbf999a661830581e526266f801dc50f8c7879d836995799",
    ),
    ("floor_sqrt", "k2"): (
        "dc6e50b8af2e9a3ec19a6f40a951c3e095e7b6529912375c11f09a7f42e06423",
        "02e805b325ee0cbe9326da550f425eb1145a23d244625eceed91e54051ffa5e9",
    ),
    ("floor_sqrt", "k4"): (
        "26316cdfe01c843edc636bf4c1334ec89f6b238ff266395c3020b36633a9e9be",
        "a84531bc3887f45b81be962a42061dcc2f3a6b6ce72846863a3216037bb2ae19",
    ),
    ("prime_partition", "k2"): (
        "298895dbaee2c702ad736cec5171457cc8dc85b9069460c375ee3c15799ec026",
        "4a1532915bd8f8f03b8b0efcc987036d9f3d5f8240fc318293cebb8a2a0289b6",
    ),
    ("prime_partition", "k4"): (
        "61c64351d1587d1d267f444925f32b9e1e1ff5380707ad78891dc28b0f6063dc",
        "0e19cec0e4bfade9f61ac78e0dcd84814551fab8118d332739a6807db346c200",
    ),
    ("sequential", "k2"): (
        "a33f3449d9829db42558c038a136494aaf8d8fa844783357925ae227c57ca67d",
        "b4d81d49700e240232a25896c346dfffdea487c0a3bd756afd9fa461f0e97088",
    ),
    ("sequential", "k4"): (
        "26f924996896985e5180013063ccbd620376d9c822b6adf7ba7c6799679cdc68",
        "db901f20ef8a24fe565f738b7b7f5f0942630c27cb035f60690336394f90ae5a",
    ),
    ("sin_drift", "k2"): (
        "8ad215c0673d990c2e6074b10ca95d41395254e1668218148a54ee6d767a48c1",
        "693bb67f61d97bb4911fe8e94951e4f29b3ee5c26eda98c09b676a40249883fd",
    ),
    ("sin_drift", "k4"): (
        "4387f19b087a9556719bfe072d2f46e29daab5e3c9da5914b7dda8eacbc44f6f",
        "a6b736b0082c47c006bc7dbd656873e3427de10249028613cca80a64ea23058e",
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
