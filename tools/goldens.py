"""Rewrite the goldens of tests/test_pinned.py from this checkout.

    python3 tools/goldens.py [--out DIR]

Each file under tests/goldens/ is the text one pinned test compares byte
for byte: reports/NAME.txt is a CLI run's exit code, stdout and stderr,
and bits/KIND-POINT.txt a bit point's enumerated marginals and
verification max errors in float.hex.  The tool renders every golden
with the functions the tests use, writes it under DIR (tests/goldens by
default) and prints the name of each file whose bytes changed, so a
re-record is the git diff of those files.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pinned():
    """tests/test_pinned.py as a module, with depcat imported from this checkout's src/
    and the test modules it imports from tests/."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    spec = importlib.util.spec_from_file_location("test_pinned", ROOT / "tests" / "test_pinned.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write here instead of tests/goldens")
    args = parser.parse_args(argv)
    module = pinned()
    out = args.out or module.GOLDENS
    for name, render in sorted(module.goldens().items()):
        path = out / name
        data = render().encode("utf-8")
        if not path.exists() or path.read_bytes() != data:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
