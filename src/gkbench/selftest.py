"""Deterministic self-test: seeded algebraic identities plus the catalog.

The identity suite draws random fields, vectors, and forms from a
generator with a fixed seed and checks structural identities of the
calculus and bracket layer by exact symbolic comparison.  Every draw
happens whether or not an earlier instance failed, so a failure shifts
the inputs of no later identity.  It then runs every builtin scenario.
Iteration order is fixed throughout, so the rendered JSON is
byte-identical across runs.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Any

from .calculus import ChartMap, DiffForm, VectorField, lie_bracket, wedge_all
from .catalog import catalog_names, load_builtin
from .report import build_report, report_passed
from .ring import Chart, EvalPoint, RingElement, Scalar, make_chart, parse_expr
from .runner import run_scenario
from .structures import (
    GenSection,
    b_transform_section,
    courant_bracket,
    pairing,
)

SEED = 96225

_PLANE = make_chart(("x", "affine"), ("y", "affine"), ("z", "affine"))
_TUBE = make_chart(("p", "periodic"), ("t", "affine"), ("u", "affine"))

# Parsed once; a draw picks one by index, as it would pick its text.
_MONOMIALS = {
    chart: tuple(parse_expr(text, chart) for text in texts)
    for chart, texts in (
        (_PLANE, ("1", "x", "y", "z", "x*y", "y*z", "x*x")),
        (_TUBE, ("1", "t", "u", "t*u", "sin(p)", "cos(p)", "u*u")),
    )
}

_CHARTS = (_PLANE, _TUBE)


def _rand_field(rng: random.Random, chart: Chart) -> RingElement:
    mons = _MONOMIALS[chart]
    out = RingElement.zero(chart)
    for _ in range(rng.randrange(2, 4)):
        c = rng.randrange(-3, 4)
        out = out + rng.choice(mons).scale(Scalar.of(c))
    return out


def _rand_vector(rng: random.Random, chart: Chart) -> VectorField:
    return VectorField(
        chart, tuple(_rand_field(rng, chart) for _ in range(chart.dim))
    )


def _rand_form(rng: random.Random, chart: Chart, degree: int) -> DiffForm:
    if degree == 0:
        return DiffForm.function(_rand_field(rng, chart))
    out = DiffForm.zero(chart, degree)
    for names in combinations(chart.names, degree):
        basis = wedge_all([DiffForm.d_coord(chart, n) for n in names])
        out = out + basis.scale(_rand_field(rng, chart))
    return out


def _rand_section(rng: random.Random, chart: Chart) -> GenSection:
    return GenSection(_rand_vector(rng, chart), _rand_form(rng, chart, 1))


def _result(name: str, ok: bool, count: int) -> dict[str, str]:
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "detail": f"{count} seeded instances",
    }


def invariant_results(seed: int = SEED) -> list[dict[str, str]]:
    rng = random.Random(seed)
    results = []

    ok, count = True, 0
    for chart in _CHARTS:
        for degree in (0, 1, 2):
            for _ in range(3):
                w = _rand_form(rng, chart, degree)
                ok = ok and w.d().d().is_zero
                count += 1
    results.append(_result("exterior square is zero", ok, count))

    ok, count = True, 0
    for chart in _CHARTS:
        for degree in (1, 2):
            for _ in range(3):
                w = _rand_form(rng, chart, degree)
                x = _rand_vector(rng, chart)
                ok = ok and w.lie(x) == w.interior(x).d() + w.d().interior(x)
                count += 1
    results.append(_result("lie derivative is the homotopy of d", ok, count))

    ok, count = True, 0
    for chart in _CHARTS:
        for _ in range(3):
            a = _rand_form(rng, chart, 1)
            b = _rand_form(rng, chart, 2)
            x = _rand_vector(rng, chart)
            lhs = a.wedge(b).interior(x)
            rhs = a.interior(x).wedge(b) - a.wedge(b.interior(x))
            ok = ok and lhs == rhs
            count += 1
    results.append(_result("contraction is an odd derivation of wedge", ok, count))

    ok, count = True, 0
    for chart in _CHARTS:
        for degree in (2, 3):
            for _ in range(3):
                w = _rand_form(rng, chart, degree)
                x = _rand_vector(rng, chart)
                y = _rand_vector(rng, chart)
                lhs = w.interior(lie_bracket(x, y))
                rhs = w.interior(y).lie(x) - w.lie(x).interior(y)
                ok = ok and lhs == rhs
                count += 1
    results.append(_result("contraction with a bracket is the commutator", ok, count))

    ok, count = True, 0
    for chart in _CHARTS:
        for _ in range(3):
            x = _rand_vector(rng, chart)
            y = _rand_vector(rng, chart)
            z = _rand_vector(rng, chart)
            total = (
                lie_bracket(lie_bracket(x, y), z)
                + lie_bracket(lie_bracket(y, z), x)
                + lie_bracket(lie_bracket(z, x), y)
            )
            ok = ok and total.is_zero
            count += 1
    results.append(_result("vector fields satisfy jacobi", ok, count))

    ok, count = True, 0
    for chart in _CHARTS:
        for _ in range(3):
            u = _rand_section(rng, chart)
            v = _rand_section(rng, chart)
            b = _rand_form(rng, chart, 2)
            lhs = pairing(b_transform_section(b, u), b_transform_section(b, v))
            ok = ok and lhs == pairing(u, v)
            count += 1
    results.append(_result("pairing is invariant under two-form transforms", ok, count))

    ok, count = True, 0
    for chart in _CHARTS:
        for _ in range(3):
            u = _rand_section(rng, chart)
            v = _rand_section(rng, chart)
            h = _rand_form(rng, chart, 3)
            lhs = courant_bracket(u, v, h)
            rhs = -courant_bracket(v, u, h)
            ok = ok and lhs.vector == rhs.vector and lhs.form == rhs.form
            count += 1
    results.append(_result("twisted bracket is antisymmetric", ok, count))

    ok, count = True, 0
    for chart in _CHARTS:
        for _ in range(3):
            u = _rand_section(rng, chart)
            v = _rand_section(rng, chart)
            h = _rand_form(rng, chart, 3)
            b = _rand_form(rng, chart, 2)
            lhs = b_transform_section(b, courant_bracket(u, v, h))
            rhs = courant_bracket(
                b_transform_section(b, u), b_transform_section(b, v), h - b.d()
            )
            ok = ok and lhs.vector == rhs.vector and lhs.form == rhs.form
            count += 1
    results.append(
        _result("two-form transform shifts the twist down by its differential", ok, count)
    )

    maps = [
        ChartMap(
            _TUBE,
            _PLANE,
            {
                "x": parse_expr("t*u", _TUBE),
                "y": parse_expr("t + u", _TUBE),
                "z": parse_expr("sin(p)", _TUBE),
            },
            {},
        ),
        ChartMap(
            _TUBE,
            _TUBE,
            {"t": parse_expr("u", _TUBE), "u": parse_expr("t*t", _TUBE)},
            {"p": ("p", 1)},
        ),
    ]
    ok, count = True, 0
    for cmap in maps:
        for degree in (0, 1, 2):
            for _ in range(3):
                w = _rand_form(rng, cmap.target, degree)
                ok = ok and cmap.pull_form(w.d()) == cmap.pull_form(w).d()
                count += 1
    results.append(_result("pullback commutes with d", ok, count))

    ok, count = True, 0
    points = [
        EvalPoint.at(_PLANE, x=2, y=-1, z=3),
        EvalPoint.at(_TUBE, p=1, t=5, u=-2),
    ]
    for chart, point in zip(_CHARTS, points):
        for _ in range(3):
            f = _rand_field(rng, chart)
            g = _rand_field(rng, chart)
            ok = ok and (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
            ok = ok and (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
            product_rule = (
                DiffForm.function(f * g).d()
                == DiffForm.function(g).d().scale(f)
                + DiffForm.function(f).d().scale(g)
            )
            ok = ok and product_rule
            count += 1
    results.append(_result("evaluation respects the ring operations", ok, count))

    return results


def run_selftest() -> dict[str, Any]:
    invariants = invariant_results()
    scenarios = []
    for name in catalog_names():
        scen = load_builtin(name)
        verdicts, quantities = run_scenario(scen)
        scenarios.append(build_report(scen, verdicts, quantities))
    all_pass = all(r["status"] == "pass" for r in invariants) and all(
        report_passed(r) for r in scenarios
    )
    return {"invariants": invariants, "scenarios": scenarios, "all_pass": all_pass}
