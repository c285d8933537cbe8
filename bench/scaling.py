"""One-off scaling table: generated Kahler C^n with the diagonal circle
action at n = 2, 3, 4.  Not part of the repeated runs.

    python3 bench/scaling.py

Each n is run as two instances with the same two seeded level-set points:
the `closure` workload's instance, which runs the closure checks alone,
and the same scenario with every check that passes on it, which adds
reduction and gk_reduction at the points.  Prints a Markdown table:
real dimension, time of one instance (load, checks, report; median of
REPEATS), the Courant brackets it evaluates, the time of the
level_closure check and its share of the instance's time with only that
check timed, and the same share under full tracing, which slows
ring-heavy code more than the rest.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

import run

SEED = 1
REPEATS = 5


def main() -> int:
    gk = run.load_program()
    from generators import CLOSURE_CHECKS, kahler_cn
    from tracing import Tracer
    from workloads import POINT_HEIGHT, scenario_instance

    every_check = CLOSURE_CHECKS + ("reduction", "gk_reduction")
    print(
        "| checks | C^n | real dim | time (s) | brackets | `level_closure` (s) "
        "| `level_closure` share | traced share |"
    )
    print("|---|---|---|---|---|---|---|---|")
    for label, checks in (("closure", CLOSURE_CHECKS), ("every", every_check)):
        for n in (2, 3, 4):
            raw = kahler_cn(n, 1, random.Random(SEED), 2, POINT_HEIGHT, checks, f"c{n}")
            inst = scenario_instance(raw)
            times, closure_times, shares = [], [], []
            for _ in range(REPEATS):
                timer = Tracer()
                registry = gk.runner._REGISTRY
                original = registry["level_closure"]
                registry["level_closure"] = timer.span("level_closure", original)
                try:
                    t0 = time.perf_counter()
                    outcome = run.run_pass(gk, [inst], SEED)
                    times.append(time.perf_counter() - t0)
                finally:
                    registry["level_closure"] = original
                closure_times.append(timer.totals["level_closure"][1])
                shares.append(closure_times[-1] / times[-1])
                if run.wrong_verdicts([inst], outcome, outcome):
                    print(f"C^{n}: verdicts differ from the known answer", file=sys.stderr)
                    return 1
            tracer = Tracer()
            tracer.install()
            try:
                run.run_pass(gk, [inst], SEED)
            finally:
                tracer.uninstall()
            m = tracer.take()
            share = m["runner.check.level_closure_s"] / m["runner.run_scenario_s"]
            print(
                f"| {label} | C^{n} | {2 * n} | {statistics.median(times):.2f} | "
                f"{m['structures.courant_bracket_calls']} | "
                f"{statistics.median(closure_times):.2f} | "
                f"{100 * statistics.median(shares):.0f}% | {100 * share:.0f}% |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
