"""Golden outputs: `gkbench selftest`, and `gkbench reduce` at every
builtin point and at a point no scenario has, compared byte for byte and
with their exit status against the files under tests/golden/.

A change that is meant to alter these outputs regenerates the files from
the source tree, and the diff of tests/golden/ shows what changed:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gkbench.catalog import catalog_names, load_builtin
from gkbench.cli import main

GOLDEN = Path(__file__).parent / "golden"
MISSING_POINT = "nope"


def run_cli(*argv: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def reduce_outputs() -> dict[str, dict]:
    """`reduce` at every point of every builtin scenario and at
    MISSING_POINT, keyed by "scenario point"."""
    return {
        f"{name} {point}": run_cli("reduce", "--scenario", name, "--point", point)
        for name in catalog_names()
        for point in [*load_builtin(name).points, MISSING_POINT]
    }


def test_selftest_matches_golden():
    got = run_cli("selftest")
    assert (got["exit"], got["stderr"]) == (0, "")
    assert got["stdout"] == (GOLDEN / "selftest.json").read_text(encoding="utf-8")


def test_reduce_matches_golden():
    want = json.loads((GOLDEN / "reduce.json").read_text(encoding="utf-8"))
    got = reduce_outputs()
    assert list(got) == list(want)
    for key, expected in want.items():
        assert got[key] == expected, key


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "selftest.json").write_text(run_cli("selftest")["stdout"], encoding="utf-8")
    (GOLDEN / "reduce.json").write_text(
        json.dumps(reduce_outputs(), indent=1) + "\n", encoding="utf-8"
    )
