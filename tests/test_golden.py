"""Golden outputs: `gkbench selftest`, `gkbench check --report text` on
every builtin scenario, and `gkbench reduce` at every builtin point and
at a point no scenario has, compared byte for byte and with their exit
status against the files under tests/golden/.

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


def check_outputs() -> dict[str, dict]:
    """`check --report text` on every builtin scenario, keyed by name."""
    return {
        name: run_cli("check", "--scenario", name, "--report", "text")
        for name in catalog_names()
    }


def matches_golden(got: dict[str, dict], filename: str) -> None:
    want = json.loads((GOLDEN / filename).read_text(encoding="utf-8"))
    assert list(got) == list(want)
    for key, expected in want.items():
        assert got[key] == expected, key


def test_selftest_matches_golden():
    got = run_cli("selftest")
    assert (got["exit"], got["stderr"]) == (0, "")
    assert got["stdout"] == (GOLDEN / "selftest.json").read_text(encoding="utf-8")


def test_check_matches_golden():
    matches_golden(check_outputs(), "check.json")


def test_reduce_matches_golden():
    matches_golden(reduce_outputs(), "reduce.json")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "selftest.json").write_text(run_cli("selftest")["stdout"], encoding="utf-8")
    for filename, outputs in (("check.json", check_outputs), ("reduce.json", reduce_outputs)):
        text = json.dumps(outputs(), indent=1) + "\n"
        (GOLDEN / filename).write_text(text, encoding="utf-8")
