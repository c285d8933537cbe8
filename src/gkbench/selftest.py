"""Deterministic self-test: seeded algebraic identities plus the catalog.

The identity suite checks structural identities of the calculus and
bracket layer by exact symbolic comparison on random fields, vectors,
and forms.  Each identity is one function, which takes a generator and
a case, draws its inputs and compares on them.  The instances are
numbered in suite order, and instance i draws from its own generator,
seeded with the text f"{seed}:{i}".  A text seed is hashed with
SHA-512, so the draws do not depend on PYTHONHASHSEED, and no instance's
inputs depend on another instance.  It then runs every builtin scenario.
Iteration order is fixed throughout, so the rendered JSON is
byte-identical across runs.

Share s of S draws and judges the instances whose number is s mod S,
and no others.  With S = 2 a forked child judges share 1 and writes one
byte per instance into a shared anonymous mapping while the process
judges share 0.  S is 2 only when the process can fork, runs one thread
and may run on at least two CPUs, and never more: each share costs a
fork, and only two cores were there to show a gain.  Otherwise S = 1:
the same loop, with no child.  When the fork fails or the child exits
nonzero (as it does when its share does not fit the mapping), the
process judges share 1 itself, so a failing check looks as it does in
one process.  When a check raises in either share, the suite walks
again in one process, which raises the exception of the first instance
in suite order, as the one-process suite does.
"""

from __future__ import annotations

import mmap
import os
import random
import signal
import threading
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


# Each identity takes the generator and a case, draws its inputs left to
# right and compares on them.


def _d_squared(rng: random.Random, chart: Chart, degree: int) -> bool:
    return _rand_form(rng, chart, degree).d().d().is_zero


def _cartan_formula(rng: random.Random, chart: Chart, degree: int) -> bool:
    w, x = _rand_form(rng, chart, degree), _rand_vector(rng, chart)
    return w.lie(x) == w.interior(x).d() + w.d().interior(x)


def _odd_derivation(rng: random.Random, chart: Chart) -> bool:
    a, b, x = _rand_form(rng, chart, 1), _rand_form(rng, chart, 2), _rand_vector(rng, chart)
    return a.wedge(b).interior(x) == a.interior(x).wedge(b) - a.wedge(b.interior(x))


def _bracket_contraction(rng: random.Random, chart: Chart, degree: int) -> bool:
    w, x, y = _rand_form(rng, chart, degree), _rand_vector(rng, chart), _rand_vector(rng, chart)
    return w.interior(lie_bracket(x, y)) == w.interior(y).lie(x) - w.lie(x).interior(y)


def _jacobi(rng: random.Random, chart: Chart) -> bool:
    x, y, z = _rand_vector(rng, chart), _rand_vector(rng, chart), _rand_vector(rng, chart)
    total = (
        lie_bracket(lie_bracket(x, y), z)
        + lie_bracket(lie_bracket(y, z), x)
        + lie_bracket(lie_bracket(z, x), y)
    )
    return total.is_zero


def _pairing_invariant(rng: random.Random, chart: Chart) -> bool:
    u, v, b = _rand_section(rng, chart), _rand_section(rng, chart), _rand_form(rng, chart, 2)
    lhs = pairing(b_transform_section(b, u), b_transform_section(b, v))
    return lhs == pairing(u, v)


def _antisymmetric(rng: random.Random, chart: Chart) -> bool:
    u, v, h = _rand_section(rng, chart), _rand_section(rng, chart), _rand_form(rng, chart, 3)
    lhs = courant_bracket(u, v, h)
    rhs = -courant_bracket(v, u, h)
    return lhs.vector == rhs.vector and lhs.form == rhs.form


def _twist_shift(rng: random.Random, chart: Chart) -> bool:
    u, v, h = _rand_section(rng, chart), _rand_section(rng, chart), _rand_form(rng, chart, 3)
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
    point, f, g = _POINTS[chart], _rand_field(rng, chart), _rand_field(rng, chart)
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
# seeded instances each, in order), and the function that draws and checks.
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


def _cases(axes: tuple[tuple, ...]) -> list[tuple]:
    return [case for case in product(*axes) for _ in range(3)]


def _judge(seed: int, share: int, shares: int) -> bytes:
    """The verdicts of one share, b"1" or b"0" per instance whose number
    is share mod shares, in order.  Instance i draws from its own
    generator, seeded with the text f"{seed}:{i}", and no other instance
    is drawn."""
    instances = [(check, case) for _, axes, check in _IDENTITIES for case in _cases(axes)]
    out = bytearray()
    for i in range(share, len(instances), shares):
        check, case = instances[i]
        out += b"1" if check(random.Random(f"{seed}:{i}"), *case) else b"0"
    return bytes(out)


def _shares() -> int:
    """2 when the process can fork, has no second thread (a fork copies
    only the calling thread, and the locks the others hold stay held)
    and may run on two CPUs, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or threading.active_count() > 1:
        return 1
    return 2 if len(affinity(0)) >= 2 else 1


def _judge_in_two(seed: int, instances: int) -> bytes:
    """Every verdict: share 0 here, share 1 in a forked child that writes
    its bytes into a shared anonymous mapping of their length.  The child
    leaves through os._exit, running no atexit handler and flushing no
    stdio buffer, with code 1 on any exception, a share of the wrong length
    among them.  Share 1 is judged here when the fork fails or the child
    exits nonzero.  The child is always reaped, and killed first when this
    process leaves early."""
    with mmap.mmap(-1, instances // 2) as shared:
        try:
            pid = os.fork()
        except OSError:
            return _judge(seed, 0, 1)
        if pid == 0:
            code = 1
            try:
                shared[:] = _judge(seed, 1, 2)
                code = 0
            finally:
                os._exit(code)
        reaped = False
        try:
            even = _judge(seed, 0, 2)
            _, status = os.waitpid(pid, 0)
            reaped = True
            odd = shared[:] if os.waitstatus_to_exitcode(status) == 0 else _judge(seed, 1, 2)
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    out = bytearray(instances)
    out[0::2] = even
    out[1::2] = odd
    return bytes(out)


def _verdicts(seed: int, instances: int) -> bytes:
    """Every verdict, in one share or two."""
    if _shares() == 2:
        try:
            return _judge_in_two(seed, instances)
        except Exception:
            pass  # the walk below raises the first exception in suite order
    return _judge(seed, 0, 1)


def invariant_results(seed: int = SEED) -> list[dict[str, str]]:
    """One result per identity, judged in one or two shares (see the
    module docstring); the results do not depend on the number."""
    counts = [len(_cases(axes)) for _, axes, _ in _IDENTITIES]
    verdicts = _verdicts(seed, sum(counts))
    results = []
    start = 0
    for (name, _, _), count in zip(_IDENTITIES, counts):
        ok = b"0" not in verdicts[start:start + count]
        start += count
        status = "pass" if ok else "fail"
        results.append(
            {"name": name, "status": status, "detail": f"{count} seeded instances"}
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
