"""Command line entry points.

check     run a scenario's checks and print a report
reduce    print the fiberwise quotient data at one scenario point
catalog   list the builtin scenarios
selftest  seeded identity suite plus every builtin scenario, as JSON

Exit status: 0 when everything passed or was skipped, 1 when a check
failed, 2 when a scenario could not be loaded or validated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import builtin_raw, catalog_names, load_builtin
from .errors import ValidationError
from .linalg import Mat
from .report import build_report, render_json, render_text, report_passed
from .ring import scalar_text
from .runner import Workspace, run_scenario
from .scenario import Scenario, scenario_from_path
from .selftest import run_selftest
from .structures import matrix_type


def _load(spec: str) -> Scenario:
    if os.path.exists(spec):
        return scenario_from_path(spec)
    return load_builtin(spec)


def _fmt_matrix(mat: Mat, indent: str = "  ") -> str:
    if not mat:
        return indent + "(empty)"
    cells = [[scalar_text(entry) for entry in row] for row in mat]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = []
    for row in cells:
        body = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines.append(f"{indent}[ {body} ]")
    return "\n".join(lines)


def _cmd_check(args: argparse.Namespace) -> int:
    scen = _load(args.scenario)
    verdicts, quantities = run_scenario(scen)
    report = build_report(scen, verdicts, quantities)
    if args.report == "json":
        print(render_json(report))
    else:
        print(render_text(report), end="")
    return 0 if report_passed(report) else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    scen = _load(args.scenario)
    if scen.moment is None:
        raise ValidationError("scenario has no moment data and level to reduce at")
    if args.point not in scen.points:
        raise ValidationError(
            f"no point named {args.point!r}; scenario has {sorted(scen.points)}"
        )
    ws = Workspace(scen)
    red = ws.reduced(scen.moment_structure, args.point)
    fiber = red.fiber
    print(f"scenario {scen.name}, point {args.point}")
    print(
        f"ambient dimension {fiber.n}, group rank {fiber.k}, "
        f"quotient dimension {2 * fiber.m}"
    )
    if fiber.m == 0:
        print("the quotient is zero dimensional")
        return 0
    rtype = matrix_type(red.jmat, fiber.point)
    print(f"reduced structure for {scen.moment_structure} (type {rtype}):")
    print(_fmt_matrix(red.jmat))
    other = ws.partner()
    if other is not None:
        gk = ws.gk_reduced(args.point)
        rtype = matrix_type(gk.jmat2, fiber.point)
        print(f"transported partner {other} (type {rtype}):")
        print(_fmt_matrix(gk.jmat2))
        print("product operator:")
        print(_fmt_matrix(gk.g_mat))
    return 0


def _cmd_catalog(_args: argparse.Namespace) -> int:
    width = max(len(n) for n in catalog_names())
    for name in catalog_names():
        raw = builtin_raw(name)
        print(f"{name:<{width}}  {raw.get('title', '')}")
    return 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    doc = run_selftest()
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0 if doc["all_pass"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gkbench",
        description="exact checks for twisted generalized structures on chart models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario's checks")
    p_check.add_argument(
        "--scenario", required=True, help="path to a scenario file, or a builtin name"
    )
    p_check.add_argument(
        "--report", choices=("text", "json"), default="text", help="output format"
    )
    p_check.set_defaults(func=_cmd_check)

    p_reduce = sub.add_parser("reduce", help="print quotient data at a point")
    p_reduce.add_argument(
        "--scenario", required=True, help="path to a scenario file, or a builtin name"
    )
    p_reduce.add_argument("--point", required=True, help="name of a scenario point")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_catalog = sub.add_parser("catalog", help="list builtin scenarios")
    p_catalog.set_defaults(func=_cmd_catalog)

    p_self = sub.add_parser("selftest", help="run the identity suite and the catalog")
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
