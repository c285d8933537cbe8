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
from itertools import combinations, product
from typing import Any, Callable

from .calculus import ChartMap, DiffForm, VectorField, lie_bracket
from .catalog import catalog_names, load_builtin
from .report import build_report, report_passed
from .ring import Chart, EvalPoint, RingElement, Scalar, make_chart, parse_expr, sum_of_products
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

# The constants -3 to 3, built once; a draw of c picks _CONSTANTS[chart][c + 3].
_CONSTANTS = {
    chart: tuple(RingElement.constant(chart, Scalar.of(c)) for c in range(-3, 4))
    for chart in _CHARTS
}


def _rand_field(rng: random.Random, chart: Chart) -> RingElement:
    """Two or three terms, each a constant from -3 to 3 times a drawn
    monomial, summed in one call."""
    mons = _MONOMIALS[chart]
    consts = _CONSTANTS[chart]
    return sum_of_products(
        chart,
        (
            (1, consts[rng.randrange(-3, 4) + 3], rng.choice(mons))
            for _ in range(rng.randrange(2, 4))
        ),
    )


def _rand_vector(rng: random.Random, chart: Chart) -> VectorField:
    return VectorField(
        chart, tuple(_rand_field(rng, chart) for _ in range(chart.dim))
    )


def _rand_form(rng: random.Random, chart: Chart, degree: int) -> DiffForm:
    """A drawn field on every basis form, in increasing index order."""
    return DiffForm(
        chart,
        degree,
        {idx: _rand_field(rng, chart) for idx in combinations(range(chart.dim), degree)},
    )


def _rand_section(rng: random.Random, chart: Chart) -> GenSection:
    return GenSection(_rand_vector(rng, chart), _rand_form(rng, chart, 1))


def _d_squared(rng: random.Random, chart: Chart, degree: int) -> bool:
    return _rand_form(rng, chart, degree).d().d().is_zero


def _cartan_formula(rng: random.Random, chart: Chart, degree: int) -> bool:
    w = _rand_form(rng, chart, degree)
    x = _rand_vector(rng, chart)
    return w.lie(x) == w.interior(x).d() + w.d().interior(x)


def _odd_derivation(rng: random.Random, chart: Chart) -> bool:
    a = _rand_form(rng, chart, 1)
    b = _rand_form(rng, chart, 2)
    x = _rand_vector(rng, chart)
    return a.wedge(b).interior(x) == a.interior(x).wedge(b) - a.wedge(b.interior(x))


def _bracket_contraction(rng: random.Random, chart: Chart, degree: int) -> bool:
    w = _rand_form(rng, chart, degree)
    x = _rand_vector(rng, chart)
    y = _rand_vector(rng, chart)
    return w.interior(lie_bracket(x, y)) == w.interior(y).lie(x) - w.lie(x).interior(y)


def _jacobi(rng: random.Random, chart: Chart) -> bool:
    x = _rand_vector(rng, chart)
    y = _rand_vector(rng, chart)
    z = _rand_vector(rng, chart)
    total = (
        lie_bracket(lie_bracket(x, y), z)
        + lie_bracket(lie_bracket(y, z), x)
        + lie_bracket(lie_bracket(z, x), y)
    )
    return total.is_zero


def _pairing_invariant(rng: random.Random, chart: Chart) -> bool:
    u = _rand_section(rng, chart)
    v = _rand_section(rng, chart)
    b = _rand_form(rng, chart, 2)
    lhs = pairing(b_transform_section(b, u), b_transform_section(b, v))
    return lhs == pairing(u, v)


def _antisymmetric(rng: random.Random, chart: Chart) -> bool:
    u = _rand_section(rng, chart)
    v = _rand_section(rng, chart)
    h = _rand_form(rng, chart, 3)
    lhs = courant_bracket(u, v, h)
    rhs = -courant_bracket(v, u, h)
    return lhs.vector == rhs.vector and lhs.form == rhs.form


def _twist_shift(rng: random.Random, chart: Chart) -> bool:
    u = _rand_section(rng, chart)
    v = _rand_section(rng, chart)
    h = _rand_form(rng, chart, 3)
    b = _rand_form(rng, chart, 2)
    lhs = b_transform_section(b, courant_bracket(u, v, h))
    rhs = courant_bracket(
        b_transform_section(b, u), b_transform_section(b, v), h - b.d()
    )
    return lhs.vector == rhs.vector and lhs.form == rhs.form


def _pullback_d(rng: random.Random, cmap: ChartMap, degree: int) -> bool:
    w = _rand_form(rng, cmap.target, degree)
    return cmap.pull_form(w.d()) == cmap.pull_form(w).d()


def _evaluation(rng: random.Random, chart: Chart) -> bool:
    point = _POINTS[chart]
    f = _rand_field(rng, chart)
    g = _rand_field(rng, chart)
    product_rule = (
        DiffForm.function(f * g).d()
        == DiffForm.function(g).d().scale(f) + DiffForm.function(f).d().scale(g)
    )
    return (
        (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        and (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
        and product_rule
    )


_MAPS = (
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
)

_POINTS = {
    _PLANE: EvalPoint.at(_PLANE, x=2, y=-1, z=3),
    _TUBE: EvalPoint.at(_TUBE, p=1, t=5, u=-2),
}

# Each identity: its name, the axes whose product gives its cases (three
# seeded instances each, in order), and the test, which takes the
# generator and a case, draws its inputs and compares.
_IDENTITIES: tuple[tuple[str, tuple[tuple, ...], Callable[..., bool]], ...] = (
    ("exterior square is zero", (_CHARTS, (0, 1, 2)), _d_squared),
    ("lie derivative is the homotopy of d", (_CHARTS, (1, 2)), _cartan_formula),
    ("contraction is an odd derivation of wedge", (_CHARTS,), _odd_derivation),
    ("contraction with a bracket is the commutator", (_CHARTS, (2, 3)),
     _bracket_contraction),
    ("vector fields satisfy jacobi", (_CHARTS,), _jacobi),
    ("pairing is invariant under two-form transforms", (_CHARTS,), _pairing_invariant),
    ("twisted bracket is antisymmetric", (_CHARTS,), _antisymmetric),
    ("two-form transform shifts the twist down by its differential", (_CHARTS,),
     _twist_shift),
    ("pullback commutes with d", (_MAPS, (0, 1, 2)), _pullback_d),
    ("evaluation respects the ring operations", (_CHARTS,), _evaluation),
)


def invariant_results(seed: int = SEED) -> list[dict[str, str]]:
    """One result per identity.  Every instance is drawn and tested, so a
    failure shifts the inputs of no later instance."""
    rng = random.Random(seed)
    results = []
    for name, axes, holds in _IDENTITIES:
        cases = [case for case in product(*axes) for _ in range(3)]
        ok = True
        for case in cases:
            ok = holds(rng, *case) and ok
        status = "pass" if ok else "fail"
        results.append(
            {"name": name, "status": status, "detail": f"{len(cases)} seeded instances"}
        )
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
