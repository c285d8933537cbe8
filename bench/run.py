"""gkbench benchmark: one closed-loop client, single process, single thread.

    python3 bench/run.py --workload closure --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The workload is built from the seed (see
workloads.py), then passes run back to back until --seconds have gone by.
Every verdict of every pass is checked against its known answer and every
report's bytes against the first pass.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

The first pass is untimed: it warms the interpreter and gives the
reference bytes.  --trace 0 then reports the end-to-end metrics.  Their
times are rescaled to a fixed nominal host speed, measured by the
reference workload of calibrate.py right before and after each instance
and each set-up; the wall-clock figures are printed too.
--trace 1 runs traced passes instead and reports the per-module metrics
of tracing.py, each a median over the traced passes, plus the tracing
overhead against the untraced first pass; the spans of the first traced
pass are written to bench/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 31

# Runs in a fresh interpreter: what a user of `gkbench check` waits for
# before the first check starts.  The scenario dicts arrive on stdin and
# are read before the clock starts.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
data = sys.stdin.read()
t0 = time.perf_counter()
import json
from gkbench.scenario import load_scenario
t1 = time.perf_counter()
for raw in json.loads(data):
    load_scenario(raw)
t2 = time.perf_counter()
print(repr(t2 - t0), repr(t1 - t0))
"""


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def setup_child(data: str) -> tuple[float, float]:
    """One fresh interpreter: (import + load, import) in seconds."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
        input=data,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    total, imported = proc.stdout.split()
    return float(total), float(imported)


def load_program():
    """Import gkbench from this checkout's sources, never from elsewhere."""
    if not (SRC / "gkbench" / "__init__.py").is_file():
        raise ImportError(f"no gkbench sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import gkbench
    import gkbench.report
    import gkbench.runner
    import gkbench.scenario
    import gkbench.selftest

    if Path(gkbench.__file__).resolve().parent != SRC / "gkbench":
        raise ImportError(f"imported gkbench from {gkbench.__file__}, not from {SRC}")
    return gkbench


class Outcome:
    """What one instance produced in one pass."""

    __slots__ = ("text", "verdicts", "names", "quantities")

    def __init__(self, text: str, verdicts: list[dict], quantities: dict) -> None:
        self.text = text
        self.names = [v["check"] for v in verdicts]
        self.verdicts = {v["check"]: v["status"] for v in verdicts}
        self.quantities = quantities


def run_pass(gk, instances, seed: int) -> list[Outcome]:
    """One pass through the public API.  Functions are looked up on their
    modules at call time, so an installed tracer sees every call."""
    out = []
    for inst in instances:
        if inst.raw is None:
            results = gk.selftest.invariant_results(seed)
            verdicts = [
                {"check": f"invariant:{i}", "status": r["status"]}
                for i, r in enumerate(results)
            ]
            out.append(Outcome(json.dumps(results, sort_keys=True), verdicts, {}))
            continue
        scen = gk.scenario.load_scenario(inst.raw)
        verdicts, quantities = gk.runner.run_scenario(scen)
        report = gk.report.build_report(scen, verdicts, quantities)
        text = gk.report.render_json(report)
        out.append(Outcome(text, report["verdicts"], report["quantities"]))
    return out


def wrong_verdicts(instances, outcomes: list[Outcome], reference: list[Outcome]) -> int:
    """Verdicts that differ from the known answer, plus quantities that
    differ from the formulas, plus reports whose bytes changed."""
    wrong = 0
    for inst, got, ref in zip(instances, outcomes, reference):
        names = set(inst.verdicts) | set(got.verdicts)
        wrong += sum(got.verdicts.get(n) != inst.verdicts.get(n) for n in names)
        wrong += len(got.names) - len(got.verdicts)  # duplicated verdict names
        wrong += sum(got.quantities.get(k) != v for k, v in inst.quantities.items())
        wrong += got.text != ref.text
    return wrong


def tail(times: list[float]) -> tuple[float, float, int]:
    """The pass time at the highest nearest-rank percentile with at least
    ten passes beyond it, but never below the median: with twenty passes
    or fewer no percentile above the median has ten samples beyond it,
    so the upper median stands in.  Returns (seconds, percentile, n)."""
    s = sorted(times)
    n = len(s)
    idx = max(n - 11, n // 2)
    return s[idx], 100.0 * (idx + 1) / n, n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        gkbench = load_program()
    except ImportError as e:
        return fail(str(e))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    instances = workloads.build(args.workload, args.seed)

    t0 = time.perf_counter()
    reference = run_pass(gkbench, instances, args.seed)
    first_pass_s = time.perf_counter() - t0
    attempted = sum(len(i.verdicts) for i in instances)
    failed = wrong_verdicts(instances, reference, reference)

    if args.trace:
        metrics, extra_attempted, extra_failed = traced_run(
            gkbench, instances, reference, args, first_pass_s
        )
    else:
        metrics, extra_attempted, extra_failed = timed_run(gkbench, instances, reference, args)
    attempted += extra_attempted
    failed += extra_failed
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["correct_verdict_ratio"] = (1 - failed / attempted, "ratio")
    print(f"verdicts: {attempted} attempted, {failed} wrong, wrong_verdict_ratio {failed / attempted:.6f}")
    controls = [i.name for i in instances if i.control]
    if controls:
        print(f"known-fail controls checked: {', '.join(controls)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<45} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def timed_run(gk, instances, reference, args):
    """Passes back to back for --seconds; the pass-time metrics.

    Every instance of a pass and every set-up is timed between two
    timings of the reference workload, and its time is rescaled to the
    nominal host speed (calibrate.py); a pass's time is the sum over its
    instances.  Normalizing instance by instance, not the pass as a whole,
    halved the pass-to-pass variation of the catalog's normalized times.  The SETUP_RUNS set-up interpreters run between passes,
    spread evenly over the same time; setup_s is their median."""
    data = json.dumps([i.raw for i in instances if i.raw is not None])
    reports = sum(i.raw is not None for i in instances)
    times: list[float] = []
    walls: list[float] = []
    setups: list[float] = []
    setup_walls: list[tuple[float, float]] = []
    attempted = failed = 0
    verdicts = sum(len(i.verdicts) for i in instances)

    def timed_setup() -> None:
        before = calibrate.round_s(calibrate.SETUP_ROUNDS)
        total, imported = setup_child(data)
        after = calibrate.round_s(calibrate.SETUP_ROUNDS)
        setups.append(calibrate.normalize(total, before, after))
        setup_walls.append((total, imported))

    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        outcomes = []
        wall = normalized = 0.0
        before = calibrate.round_s(calibrate.PASS_ROUNDS)
        for inst in instances:
            t0 = time.perf_counter()
            outcomes += run_pass(gk, [inst], args.seed)
            elapsed = time.perf_counter() - t0
            after = calibrate.round_s(calibrate.PASS_ROUNDS)
            wall += elapsed
            normalized += calibrate.normalize(elapsed, before, after)
            before = after
        walls.append(wall)
        times.append(normalized)
        attempted += verdicts
        failed += wrong_verdicts(instances, outcomes, reference)
        due = math.ceil(SETUP_RUNS * (time.perf_counter() - start) / args.seconds)
        while len(setups) < min(due, SETUP_RUNS):
            timed_setup()
    while len(setups) < SETUP_RUNS:
        timed_setup()
    tail_s, pct, n = tail(times)
    wall_total, wall_import = (statistics.median(w) for w in zip(*setup_walls))
    print(f"workload {args.workload}, seed {args.seed}: {n} passes of {len(instances)} instances")
    print(
        f"setup wall-clock medians of {SETUP_RUNS}: import {wall_import:.4f} s, "
        f"import + load {wall_total:.4f} s"
    )
    print(f"pass_tail_s is the p{pct:.0f} of n={n} passes")
    print("pass wall-clock times (s): " + " ".join(f"{t:.3f}" for t in walls))
    print("pass normalized times (s): " + " ".join(f"{t:.3f}" for t in times))
    metrics = {
        "reports_per_s": (reports * n / sum(times), "1/s"),
        "pass_p50_s": (statistics.median(times), "s"),
        "pass_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, attempted, failed


def traced_run(gk, instances, reference, args, untraced_s: float):
    """Traced passes for --seconds after the untraced first pass; per-module
    metrics as medians over the traced passes."""
    from tracing import LAYER_METRICS, Tracer

    attempted = failed = 0
    verdicts = sum(len(i.verdicts) for i in instances)
    tracer = Tracer()
    per_pass: list[dict[str, float]] = []
    traced_times: list[float] = []
    tracer.install()
    try:
        start = time.perf_counter()
        while not per_pass or time.perf_counter() - start < args.seconds:
            tracer.recording = not per_pass
            t0 = time.perf_counter()
            outcomes = run_pass(gk, instances, args.seed)
            traced_times.append(time.perf_counter() - t0)
            per_pass.append(tracer.take())
            tracer.recording = False
            attempted += verdicts
            failed += wrong_verdicts(instances, outcomes, reference)
    finally:
        tracer.uninstall()
    path = BENCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    count = tracer.write_spans(path)
    overhead = statistics.median(traced_times) / untraced_s
    print(f"workload {args.workload}, seed {args.seed}: {len(per_pass)} traced passes")
    print(f"untraced pass {untraced_s:.3f} s, traced pass median {statistics.median(traced_times):.3f} s")
    print(f"traced verdicts and report bytes equal the untraced first pass: {failed == 0}")
    print(f"{count} spans of the first traced pass written to {path.relative_to(ROOT)}")
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), unit)
        for name, unit in LAYER_METRICS.items()
    }
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
