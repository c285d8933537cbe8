"""Tests of the benchmark itself: generators meet their known answers,
self-time arithmetic, and tracing that changes no result.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import gkbench  # noqa: E402
from gkbench import linalg, runner  # noqa: E402
from gkbench.catalog import builtin_raw  # noqa: E402
from gkbench.report import build_report, render_json  # noqa: E402
from gkbench.ring import Scalar  # noqa: E402
from gkbench.runner import run_scenario  # noqa: E402
from gkbench.scenario import load_scenario  # noqa: E402

import calibrate  # noqa: E402
import generators as gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics, self_times  # noqa: E402


def outcome(raw: dict):
    verdicts, quantities = run_scenario(load_scenario(raw))
    return {v.check: v.status for v in verdicts}, quantities


def small_instances(seed: int) -> list[dict]:
    rng = random.Random(seed)
    return [
        gen.kahler_cn(2, 1, rng, 2, 12, gen.CLOSURE_CHECKS, "c2_circle"),
        gen.kahler_cn(3, 2, rng, 1, 12, gen.FIBER_CHECKS[:2], "c3_t2"),
        gen.kahler_cn(3, 3, rng, 1, 12, ("type", "reduction", "gk_reduction"), "c3_t3"),
        gen.repoint(
            builtin_raw("gamma_cylinder_product"),
            gen.gamma_cylinder_points(rng, 1, 12),
            gen.FIBER_CHECKS,
        ),
        gen.repoint(
            builtin_raw("bihermitian_r4_translation"),
            gen.bihermitian_points(rng, 1, 12),
            gen.FIBER_CHECKS,
        ),
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_instances_meet_their_known_answers(seed):
    for raw in small_instances(seed):
        verdicts, quantities = outcome(raw)
        assert verdicts == gen.expected_verdicts(raw), raw["name"]
        for key, value in gen.expected_quantities(raw).items():
            assert quantities[key] == value, (raw["name"], key)


def test_known_answers_follow_the_formulas():
    raw = gen.kahler_cn(4, 2, random.Random(0), 1, 5, gen.CLOSURE_CHECKS, "c4_t2")
    assert raw["expected"] == {
        "types": {"j1": 0, "j2": 4},
        "reduced_dim": 8,
        "reduced_types": {"j1": 0, "j2": 2},
    }
    assert gen.expected_verdicts(raw)["level_closure:slice"] == "skipped"


def test_points_lie_on_the_level_set():
    rng = random.Random(3)
    raw = gen.kahler_cn(3, 2, rng, 4, 12, ("reduction",), "c3_t2")
    for point in raw["points"]:
        v = {k: gen.Fraction(x) for k, x in point["values"].items()}
        first = (v["x1"] ** 2 + v["y1"] ** 2) / 2
        rest = sum(v[f"x{j}"] ** 2 + v[f"y{j}"] ** 2 for j in (2, 3)) / 2
        assert [first, rest] == [gen.Fraction(x) for x in raw["level"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_seeded_and_load(workload):
    a = workloads.build(workload, 5)
    b = workloads.build(workload, 5)
    assert [i.raw for i in a] == [i.raw for i in b]
    for inst in a:
        if inst.raw is not None:
            load_scenario(inst.raw)
    if workload != "catalog":
        assert sum(i.control for i in a) == 1
        assert [i.raw for i in a] != [i.raw for i in workloads.build(workload, 6)]


def test_controls_fail_exactly_where_expected():
    rng = random.Random(4)
    wrong_type = gen.kahler_cn(3, 1, rng, 1, 12, gen.CONTROL_CHECKS, "control")
    wrong_type["expected"]["types"]["j2"] = 2
    verdicts, _ = outcome(wrong_type)
    assert verdicts == gen.expected_verdicts(wrong_type, ("type:j2",))
    assert [n for n, s in verdicts.items() if s == "fail"] == ["type:j2"]

    wrong_dim = gen.kahler_cn(3, 2, rng, 2, 12, ("reduction",), "control")
    wrong_dim["expected"]["reduced_dim"] += 2
    verdicts, _ = outcome(wrong_dim)
    assert sorted(n for n, s in verdicts.items() if s == "fail") == ["reduction:p0", "reduction:p1"]


def test_the_gate_counts_a_wrong_answer():
    raw = gen.kahler_cn(2, 1, random.Random(5), 1, 12, ("type",), "c2")
    inst = workloads.scenario_instance(raw)
    good = run.run_pass(gkbench, [inst], 0)
    assert run.wrong_verdicts([inst], good, good) == 0
    inst.verdicts["type:j2"] = "fail"
    assert run.wrong_verdicts([inst], good, good) == 1
    inst.verdicts["type:j2"] = "pass"
    altered = copy.copy(good[0])
    altered.text += " "
    assert run.wrong_verdicts([inst], [altered], good) == 1


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        (3, 2, "c", 2.0, 3.0),
        (2, 1, "a", 1.0, 4.0),
        (4, 1, "b", 5.0, 9.0),
        (1, 0, "root", 0.0, 10.0),
    ]
    assert self_times(spans) == {"root": 3.0, "a": 2.0, "b": 4.0, "c": 1.0}


def test_online_self_time_matches_the_span_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    c = tracer.span("mod.c", lambda: None)
    a = tracer.span("mod.a", lambda: c())
    b = tracer.span("other.b", lambda: None)
    root = tracer.span("mod.root", lambda: (a(), b(), a()))
    tracer.recording = True
    root()
    offline = self_times(tracer.spans)
    assert {n: rec[2] for n, rec in tracer.totals.items()} == offline
    assert tracer.totals["mod.a"][0] == 2
    own = layer_metrics(tracer.totals, {})
    assert set(own) == set(LAYER_METRICS)
    total = tracer.spans[-1][4] - tracer.spans[-1][3]
    assert sum(offline.values()) == total


def test_tail_never_reports_a_percentile_without_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3), 3)
    assert run.tail([float(i) for i in range(10)])[0] == 5.0  # never below the median
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, n) == (29.0, 40) and sum(x > value for x in range(40)) == 10


def test_normalization_rescales_to_the_nominal_speed():
    nominal = calibrate.NOMINAL_ROUND_S
    assert calibrate.normalize(3.0, nominal, nominal) == pytest.approx(3.0)
    # A host running at half speed doubles both the pass and the reference.
    assert calibrate.normalize(6.0, 2 * nominal, 2 * nominal) == pytest.approx(3.0)
    assert calibrate.normalize(3.0, nominal, 3 * nominal) == pytest.approx(1.5)


def test_wrapped_functions_return_what_the_originals_return():
    raw = small_instances(7)[3]
    matrix = tuple(tuple(Scalar.of(i * j + 1, i - j) for j in range(4)) for i in range(3))

    def results():
        scen = load_scenario(raw)
        verdicts, quantities = run_scenario(scen)
        return (
            render_json(build_report(scen, verdicts, quantities)),
            linalg.rref(matrix),
            linalg.nullspace(matrix),
        )

    original_rref = linalg.rref
    original_check = runner._REGISTRY["reduction"]
    plain = results()
    tracer = Tracer()
    tracer.install()
    try:
        assert linalg.rref is not original_rref
        traced = results()
        metrics = tracer.take()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert linalg.rref is original_rref and runner._REGISTRY["reduction"] is original_check
    assert metrics["reduction.dirac_reduce_calls"] > metrics["reduction.distinct_points"] > 0
    assert metrics["linalg.rref_calls"] > 0 and metrics["ring.scalar_mul_calls"] > 0
    assert metrics["runner.check.reduction_s"] > 0
