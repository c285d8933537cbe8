"""The benchmark's workloads: which scenario dicts one pass runs, with the
answer each must give.

A pass runs every instance of its workload once.  The inputs come only
from the workload seed, so the same seed gives the same inputs.

catalog      the nine builtin scenarios plus the identity suite at the seed:
             the work of ``gkbench selftest``; the only workload with
             periodic charts, b_flip, gamma and the pullback slice closure.
closure      a generated Kahler C^3 with the diagonal circle action, symbolic
             checks only: ring multiply, partial, d and the Courant bracket,
             almost no elimination.
fiber_sweep  three scenarios moved onto seeded level-set points, pointwise
             checks only: exact elimination at points, almost no brackets.

Each generated workload carries one known-fail control whose expected
answer is deliberately wrong in one place, so that the verdict gate is
seen to catch a wrong answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from gkbench.catalog import builtin_raw, catalog_names

from generators import (
    CLOSURE_CHECKS,
    CONTROL_CHECKS,
    FIBER_CHECKS,
    bihermitian_points,
    expected_quantities,
    expected_verdicts,
    gamma_cylinder_points,
    kahler_cn,
    repoint,
)

WORKLOADS = ("catalog", "closure", "fiber_sweep")

CLOSURE_N = 3
FIBER_POINTS = 2
POINT_HEIGHT = 12
IDENTITY_RESULTS = 10  # results invariant_results returns


@dataclass
class Instance:
    """One unit of work: a scenario dict, or the identity suite when raw is
    None, with the verdicts (name -> status) it must produce."""

    name: str
    raw: dict | None
    verdicts: dict[str, str]
    quantities: dict = field(default_factory=dict)
    control: bool = False


def scenario_instance(raw: dict, failing: tuple[str, ...] = ()) -> Instance:
    return Instance(
        name=raw["name"],
        raw=raw,
        verdicts=expected_verdicts(raw, failing),
        quantities={} if failing else expected_quantities(raw),
        control=bool(failing),
    )


def identity_instance(results: int) -> Instance:
    return Instance(
        name="identity_suite",
        raw=None,
        verdicts={f"invariant:{i}": "pass" for i in range(results)},
    )


def build(workload: str, seed: int) -> list[Instance]:
    """Instances of one pass of the workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        from_catalog = [scenario_instance(builtin_raw(n)) for n in catalog_names()]
        return from_catalog + [identity_instance(IDENTITY_RESULTS)]
    if workload == "closure":
        main = kahler_cn(CLOSURE_N, 1, rng, 2, POINT_HEIGHT, CLOSURE_CHECKS, "kahler_c3_circle")
        control = kahler_cn(
            CLOSURE_N, 1, rng, 2, POINT_HEIGHT, CONTROL_CHECKS, "control_c3_wrong_type"
        )
        control["expected"]["types"]["j2"] = CLOSURE_N - 1
        return [scenario_instance(main), scenario_instance(control, ("type:j2",))]
    if workload == "fiber_sweep":
        gamma = repoint(
            builtin_raw("gamma_cylinder_product"),
            gamma_cylinder_points(rng, FIBER_POINTS, POINT_HEIGHT),
            FIBER_CHECKS,
        )
        biherm = repoint(
            builtin_raw("bihermitian_r4_translation"),
            bihermitian_points(rng, FIBER_POINTS, POINT_HEIGHT),
            FIBER_CHECKS,
        )
        c3 = kahler_cn(3, 2, rng, FIBER_POINTS, POINT_HEIGHT, FIBER_CHECKS[:2], "kahler_c3_t2")
        control = kahler_cn(3, 2, rng, 1, POINT_HEIGHT, ("reduction",), "control_c3_t2_wrong_dim")
        control["expected"]["reduced_dim"] += 2
        return [
            scenario_instance(gamma),
            scenario_instance(biherm),
            scenario_instance(c3),
            scenario_instance(control, ("reduction:p0",)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

