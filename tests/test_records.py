"""The package's records are plain classes.  Importing the package loads
neither dataclasses nor inspect, which together took over half of its
start-up time.  The records keep the equality the code relies on: charts
and points compare and hash by value, since both are dict keys; vector
fields, sections, torus actions and certified bases compare by value and
do not hash; every other record compares by identity."""

import copy
import subprocess
import sys
from pathlib import Path

import pytest

import gkbench
from gkbench.calculus import ChartMap, DiffForm, VectorField
from gkbench.catalog import load_builtin
from gkbench.equivariant import TorusAction
from gkbench.reduction import (
    GkReducedFiber,
    ReducedFiber,
    TwoStepResult,
    fiber_data,
)
from gkbench.ring import EvalPoint, RingElement, Scalar, make_chart, parse_expr
from gkbench.runner import Verdict
from gkbench.structures import Basis, GenSection, GenStructure

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import gkbench.scenario, gkbench.cli
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    src = str(Path(gkbench.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"


def _chart():
    return make_chart(("x", "affine"), ("t", "periodic"))


def test_separately_built_equal_charts_are_equal_and_hash_equal():
    a, b = _chart(), _chart()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_chart(("x", "affine"), ("t", "affine"))


def test_an_equal_distinct_point_finds_the_same_structure_at_the_point():
    scen = load_builtin("kahler_c2_circle")
    struct = scen.structures["j1"]
    point = next(iter(scen.points.values()))
    twin = EvalPoint(make_chart(*point.chart.coords), point.values)
    assert twin is not point and twin == point and hash(twin) == hash(point)
    assert hash(point) == hash((point.chart, point.values))
    assert struct.at(twin) is struct.at(point)


def test_a_point_hashes_its_values_once(monkeypatch):
    """A point is immutable, so its hash is taken when it is made: a
    lookup by point hashes none of its affine values, real Scalars."""
    scen = load_builtin("kahler_c2_circle")
    point = next(p for p in scen.points.values() if any(type(v) is Scalar for v in p.values))
    want = hash((point.chart, point.values))
    calls = []
    original = Scalar.__hash__

    def counted(q):
        calls.append(q)
        return original(q)

    monkeypatch.setattr(Scalar, "__hash__", counted)
    assert hash(point) == want and not calls
    scen.structures["j1"].at(point)
    assert not calls


def _field(chart, *texts):
    return VectorField(chart, tuple(parse_expr(t, chart) for t in texts))


def test_fields_sections_actions_and_bases_compare_by_value():
    chart = _chart()
    one_form = DiffForm(chart, 1, {(0,): RingElement.one(chart)})
    built = [
        lambda: _field(chart, "x", "0"),
        lambda: GenSection(_field(chart, "x", "0"), one_form),
        lambda: TorusAction(chart, (_field(chart, "0", "1"),)),
        lambda: Basis("p", (GenSection(_field(chart, "x", "0"), one_form),)),
    ]
    other = [
        _field(chart, "x", "1"),
        GenSection(_field(chart, "x", "1"), one_form),
        TorusAction(chart, (_field(chart, "0", "2"),)),
        Basis("q", (GenSection(_field(chart, "x", "0"), one_form),)),
    ]
    for build, different in zip(built, other):
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        assert a != different
        with pytest.raises(TypeError):
            hash(a)


def test_every_other_record_compares_by_identity():
    scen = load_builtin("kahler_c2_circle")
    chart = scen.chart
    struct = scen.structures["j1"]
    fiber = fiber_data(scen.moment, next(iter(scen.points.values())), scen.level)
    identity_map = ChartMap(
        chart, chart, {name: RingElement.coordinate(chart, name) for name in chart.names}, {}
    )
    records = [
        identity_map,
        GenStructure(chart, struct.matrix, struct.twist),
        scen.moment,
        load_builtin("gamma_cylinder_product").connections["theta"],
        fiber,
        ReducedFiber(fiber, (), ()),
        TwoStepResult((), (), ()),
        GkReducedFiber((), (), ()),
        scen,
        Verdict("moment", "pass", "ok"),
    ]
    for record in records:
        twin = copy.copy(record)
        assert twin is not record and twin != record and record == record, type(record)
