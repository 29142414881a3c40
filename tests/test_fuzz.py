"""Input fuzz: random JSON configs, flags and generator objects through `cli.main`.

Every subcommand gets a config file whose keys and values are drawn from
sensible values and from junk (wrong types, misspelt keys, NaN, nested
lists).  Integers are bounded, so no input asks for a large allocation or
a long enumeration.  Whatever the input, the exit code is a documented
one, a failure writes exactly one `error:` line to stderr and no batch
file, and a generator object that is accepted round-trips through
`to_dict`.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from depcat import DomainError, GeneratorSpec
from depcat.cli import (
    EXIT_CAP,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    main,
)
from depcat.rng import ALGORITHM_ID

EXITS = {EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_VALIDATION, EXIT_VERIFICATION, EXIT_CAP}
KINDS = ["fk", "sequential", "floor_sqrt", "sin_drift", "prime_partition", "table", "bogus"]

# No digits in junk text, so no text reads as a large integer.
junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(alphabet="abx,._ -+e", max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=4,
)
table = st.dictionaries(
    st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "7", "2.5", "x", "-1"]),
    st.integers(-1, 7) | st.just(2**60) | junk,
    max_size=6,
)
generator_object = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS) | junk},
    optional={"table": table | junk, "tabel": junk},
)
generator = (
    st.sampled_from(KINDS)
    | generator_object
    | generator_object.map(json.dumps)
    | st.sampled_from(["{", " {}", "[1]"])
    | junk
)
marginal = st.sampled_from(
    [[0.5, 0.5], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1], [1, 0], [0.5, 0, 0.5], "0.6,0.4"]
)
# Settings a run can use, and what any one of them may be replaced by.
USABLE = {
    "generator": st.sampled_from(KINDS[:5]) | st.just({"kind": "table", "table": {"2": 1, "3": 1}}),
    "N": st.sampled_from(range(1, 8)),
    "p": marginal,
    "delta": st.floats(0, 1),
    "seed": st.integers(-(2**70), 2**70),
    "count": st.integers(0, 30),
}
OPTIONAL = {
    "enumeration_cap": st.integers(1, 5000),
    "algorithm": st.just(ALGORITHM_ID),
    "first_index": st.just(0),
}
ANY = {
    "generator": generator,
    "N": st.integers(-1, 7) | st.sampled_from(["3", "4.0", "1_0", 2.5, 5.0, True]),
    "K": st.integers(0, 5) | junk,
    "p": marginal | st.just("0.5,,0.5") | st.lists(st.floats(-1, 2), max_size=4) | junk,
    "delta": st.floats(-0.5, 1.5) | st.sampled_from([0, 1, "0.4", "1e-1", True]) | junk,
    "seed": junk,
    "count": st.integers(-1, 30) | st.sampled_from(["12", 3.0]) | junk,
    "enumeration_cap": st.integers(0, 5000) | junk,
    "algorithm": st.just("other") | junk,
    "first_index": st.integers(-1, 2) | junk,
    "detla": junk,
}
# A usable config, with at most one setting replaced (None unsets it).
replaced = st.sampled_from(sorted(ANY)).flatmap(lambda key: ANY[key].map(lambda v: {key: v}))
config = st.tuples(
    st.fixed_dictionaries(USABLE, optional=OPTIONAL), st.just({}) | replaced
).map(lambda parts: {**parts[0], **parts[1]})
first = st.sampled_from(["1", "2", "0", "x"])
second = st.sampled_from(["2", "3", "1", "2.0"])
COMMANDS = {
    "validate": st.just([]),
    "graph": st.tuples(st.just("--format"), st.sampled_from(["dot", "json"])),
    "covariance": st.tuples(
        first, second,
        st.just("--method"), st.sampled_from(["enumerate", "closed", "both"]),
        st.just("--format"), st.sampled_from(["json", "csv"]),
    ),
    "sample": st.tuples(
        st.just("--format"), st.sampled_from(["csv", "jsonl"]),
        st.just("--workers"), st.sampled_from(["1", "2", "0", "x"]),
    ),
    "verify": st.just([]),
}
command = st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda name: COMMANDS[name].map(lambda rest: [name, *rest])
)
# A flag overrides its config key; its text is read by the same rule.
flags = st.just({}) | st.fixed_dictionaries(
    {},
    optional={
        "--generator": st.sampled_from(KINDS) | generator_object.map(json.dumps),
        "--n": st.sampled_from(["3", "6", "0", "4.0", "1_0", "x"]),
        "--p": st.sampled_from(["0.5,0.5", "0.5,0.3,0.2", "0.5,,0.5", "x"]),
        "--delta": st.sampled_from(["0.4", "0", "1", "1.5", "nan"]),
        "--seed": st.sampled_from(["1", "-1", "18446744073709551617", "1.5"]),
        "--count": st.sampled_from(["0", "5", "-1", "x"]),
    },
)


def check_generator_round_trip(value):
    """An accepted generator object reads back from its `to_dict` as the same spec."""
    if isinstance(value, str) and value.strip().startswith("{"):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            return
    if not isinstance(value, dict):
        return
    try:
        spec = GeneratorSpec.from_dict(value)
    except DomainError:
        return
    again = GeneratorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec and again.to_dict() == spec.to_dict()


@settings(max_examples=300, deadline=None)
@given(argv=command, data=config, overrides=flags)
def test_any_input_exits_with_a_documented_code(argv, data, overrides):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        argv = [*argv, "--config", path]
        for flag, text in overrides.items():
            argv += [flag, text]
        if argv[0] == "sample":
            argv += ["--out-prefix", os.path.join(directory, "batch")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = sorted(set(os.listdir(directory)) - {"run.json"})
    err = err.getvalue()
    assert code in EXITS, (argv, data, code)
    if err:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, data, err)
    assert bool(err) == (code in (EXIT_ERROR, EXIT_USAGE, EXIT_CAP)) or code == EXIT_VALIDATION
    if argv[0] == "sample":
        suffix = argv[argv.index("--format") + 1]
        assert written == ([f"batch.{suffix}", "batch.meta.json"] if code == EXIT_OK else [])
    check_generator_round_trip(overrides.get("--generator", data.get("generator")))
