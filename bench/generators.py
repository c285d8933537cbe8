"""Scenario generators and known answers for the benchmark.

Every function here returns plain scenario dicts, the same JSON shape the
catalog ships, so the program under test only ever sees ordinary input.
Known answers are worked out from formulas, never by running the checks:

* flat Kahler C^n with a T^k action: the symplectic structure has type 0,
  the complex one type n; the quotient fiber has dimension 4(n - k) and
  reduced types 0 and n - k; the moment functions are quadratic, so the
  level-slice closure is skipped;
* catalog scenarios keep the answers their own ``expected`` block states.

Points on level sets are exact: circles and spheres are reached by
inverse stereographic projection of seeded rationals, whose numerators
and denominators lie in a band set by a height.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

CLOSURE_CHECKS = (
    "algebraic",
    "integrability",
    "type",
    "gk_pair",
    "moment",
    "equivariant",
    "level_closure",
)
FIBER_CHECKS = ("reduction", "gk_reduction", "b_commute")
CONTROL_CHECKS = ("algebraic", "type", "moment", "equivariant")


def rand_rational(rng: random.Random, height: int) -> Fraction:
    """A nonzero rational of random sign whose numerator and denominator
    are drawn from [height/2, height].  Keeping the height in a narrow
    band keeps the cost of exact arithmetic nearly the same from seed to
    seed, while the values themselves change."""
    low = (height + 1) // 2
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randint(low, height), rng.randint(low, height))


def sphere_point(u: list[Fraction]) -> list[Fraction]:
    """Inverse stereographic projection of u in Q^m onto the unit sphere in
    Q^(m+1): (2u, |u|^2 - 1) / (|u|^2 + 1)."""
    norm = sum(x * x for x in u)
    return [2 * x / (norm + 1) for x in u] + [(norm - 1) / (norm + 1)]


def _rotation_groups(n: int, k: int) -> list[list[int]]:
    """Factor indices (1-based) rotated by each generator: the first k - 1
    rotate one factor each, the last rotates the rest."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    return [[j] for j in range(1, k)] + [list(range(k, n + 1))]


def kahler_cn(
    n: int,
    k: int,
    rng: random.Random,
    points: int,
    height: int,
    checks: tuple[str, ...],
    name: str,
) -> dict:
    """Flat C^n with its standard symplectic and complex structures and the
    T^k action of _rotation_groups, reduced at the level where every
    generator's orbit sphere has radius 1, through `points` seeded
    level-set points."""
    groups = _rotation_groups(n, k)
    chart = []
    for j in range(1, n + 1):
        chart += [[f"x{j}", "affine"], [f"y{j}", "affine"]]
    omega = [{"coeff": "1", "frame": [f"x{j}", f"y{j}"]} for j in range(1, n + 1)]
    jmat = [["0"] * (2 * n) for _ in range(2 * n)]
    for j in range(n):
        jmat[2 * j][2 * j + 1] = "-1"
        jmat[2 * j + 1][2 * j] = "1"
    action = []
    functions = []
    for group in groups:
        comps = ["0"] * (2 * n)
        for j in group:
            comps[2 * (j - 1)] = f"-y{j}"
            comps[2 * (j - 1) + 1] = f"x{j}"
        action.append(comps)
        functions.append(" + ".join(f"1/2*x{j}^2 + 1/2*y{j}^2" for j in group))
    pts = []
    for p in range(points):
        values = {}
        for group in groups:
            u = [rand_rational(rng, height) for _ in range(2 * len(group) - 1)]
            coords = sphere_point(u)
            for idx, j in enumerate(group):
                values[f"x{j}"] = str(coords[2 * idx])
                values[f"y{j}"] = str(coords[2 * idx + 1])
        pts.append({"name": f"p{p}", "values": values})
    return {
        "name": name,
        "title": f"Flat Kahler C^{n} with a T^{k} rotation action",
        "chart": chart,
        "structures": {
            "j1": {"kind": "symplectic", "two_form": omega},
            "j2": {"kind": "complex", "matrix": jmat},
        },
        "pair": ["j1", "j2"],
        "action": action,
        "moment": {"structure": "j1", "functions": functions},
        "level": ["1/2"] * len(groups),
        "points": pts,
        "checks": list(checks),
        "expected": {
            "types": {"j1": 0, "j2": n},
            "reduced_dim": 4 * (n - k),
            "reduced_types": {"j1": 0, "j2": n - k},
        },
    }


def repoint(raw: dict, points: list[dict], checks: tuple[str, ...]) -> dict:
    """A copy of a catalog scenario with new points and only the listed
    checks that the scenario itself runs."""
    out = copy.deepcopy(raw)
    out["points"] = points
    out["checks"] = [c for c in raw["checks"] if c in checks]
    return out


# The quarter turns of the catalog's own two points of gamma_cylinder_product.
# The turn pair alone changes the cost of a point by up to 1.7x, so points
# cycle through these pairs in a fixed order and the seed moves u and v.
GAMMA_TURNS = ((0, 0), (1, 2))


def gamma_cylinder_points(rng: random.Random, count: int, height: int) -> list[dict]:
    """Points of the level t1 = t2 = 1 of gamma_cylinder_product: quarter
    turns from GAMMA_TURNS on the circles, seeded rationals on the plane."""
    pts = []
    for i in range(count):
        x1, x2 = GAMMA_TURNS[i % len(GAMMA_TURNS)]
        values = {"x1": x1, "t1": "1", "x2": x2, "t2": "1"}
        values["u"] = str(rand_rational(rng, height))
        values["v"] = str(rand_rational(rng, height))
        pts.append({"name": f"p{i}", "values": values})
    return pts


def bihermitian_points(rng: random.Random, count: int, height: int) -> list[dict]:
    """Points of the level y1 - x2 = -1 of bihermitian_r4_translation."""
    pts = []
    for i in range(count):
        x2 = rand_rational(rng, height)
        pts.append(
            {
                "name": f"p{i}",
                "values": {
                    "x1": str(rand_rational(rng, height)),
                    "y1": str(x2 - 1),
                    "x2": str(x2),
                    "y2": str(rand_rational(rng, height)),
                },
            }
        )
    return pts


def _quadratic_moment(raw: dict) -> bool:
    """Whether a moment function is written with a square, so that the
    level values cannot be substituted into the chart."""
    return any("^2" in f for f in raw.get("moment", {}).get("functions", []))


def expected_verdicts(raw: dict, failing: tuple[str, ...] = ()) -> dict[str, str]:
    """The verdicts a scenario must produce, by name, with their status.

    Names follow the runner's registry order and naming rules; statuses
    are all pass except the level-slice closure, skipped for quadratic
    moment functions, and the names in `failing` (known-fail controls).
    """
    checks = set(raw["checks"])
    structures = sorted(raw["structures"])
    has_b = "b_field" in raw
    connections = list(raw.get("connections", {}))
    points = [p["name"] for p in raw.get("points", [])]
    expected = raw.get("expected", {})
    moment = raw.get("moment", {})
    needs_potential = has_b or bool(moment.get("one_forms"))
    names: list[str] = []
    for group in ("algebraic", "integrability"):
        if group in checks:
            for s in structures:
                names.append(f"{group}:{s}")
                if has_b:
                    names.append(f"{group}:{s}+b")
    if "type" in checks:
        names += [f"type:{s}" for s in sorted(expected.get("types", {}))]
    names += [c for c in ("gk_pair", "moment", "equivariant") if c in checks]
    if "gamma" in checks:
        names += [f"gamma:{c}" for c in connections]
        if "gamma" in expected:
            names.append("gamma:expected")
        names += [f"gamma:difference({c})" for c in connections[1:]]
    if "level_closure" in checks:
        names += ["level_closure:frame", "level_closure:adapted", "level_closure:slice"]
    if "reduction" in checks:
        names += [f"reduction:{p}" for p in points]
        if needs_potential:
            names += [f"reduction:independence({c})" for c in connections[1:]]
    if "gk_reduction" in checks:
        names += [f"gk_reduction:{p}" for p in points]
    if "b_flip" in checks:
        names.append("b_flip")
    if "b_commute" in checks:
        names += [f"b_commute:{p}" for p in points]
    status = {name: "pass" for name in names}
    if "level_closure" in checks and _quadratic_moment(raw):
        status["level_closure:slice"] = "skipped"
    for name in failing:
        if name not in status:
            raise ValueError(f"control names an unknown verdict {name!r}")
        status[name] = "fail"
    return status


def expected_quantities(raw: dict) -> dict:
    """The quantities block a passing run reports: the expected types and
    reduction data, restricted to the checks the scenario runs."""
    checks = set(raw["checks"])
    expected = raw.get("expected", {})
    out: dict = {}
    if "type" in checks and expected.get("types"):
        out["types"] = dict(expected["types"])
    pointed = bool(raw.get("points"))
    if "reduction" in checks and pointed:
        out["reduced_dim"] = expected["reduced_dim"]
        ms = raw["moment"]["structure"]
        out.setdefault("reduced_types", {})[ms] = expected["reduced_types"][ms]
    if "gk_reduction" in checks and pointed:
        other = [s for s in raw["pair"] if s != raw["moment"]["structure"]][0]
        out.setdefault("reduced_types", {})[other] = expected["reduced_types"][other]
    return out
