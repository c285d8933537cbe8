"""Tests for the bracket-closure pass: the eigenbundle data a structure
builds once, the one loop over frame pairs, and the level-slice verdict
judged from the same brackets as the chart-wide one."""

from __future__ import annotations

import copy
from math import comb

import pytest

from gkbench import reduction
from gkbench.catalog import builtin_raw, catalog_names, load_builtin
from gkbench.linalg import mat_sub, mat_vec, rmat_identity
from gkbench.reduction import (
    adapted_eigen_frame,
    coisotropic_frame,
    level_substitution,
)
from gkbench.ring import RingElement, Scalar
from gkbench.runner import Workspace, run_scenario
from gkbench.scenario import load_scenario
from gkbench.structures import section_from_column, standard_frame


def catalog_structures():
    """Every builtin structure, and its B-transform where the scenario
    has a B-field."""
    for name in catalog_names():
        scen = load_builtin(name)
        ws = Workspace(scen)
        for sname in sorted(scen.structures):
            yield f"{name}:{sname}", scen.structures[sname]
            if scen.b_field is not None:
                yield f"{name}:{sname}+b", ws.work(sname)


def closure_verdicts(name: str, twist=None) -> list[tuple[str, str, str]]:
    raw = copy.deepcopy(builtin_raw(name))
    raw["checks"] = ["level_closure"]
    if twist is not None:
        raw["twist"] = twist
    verdicts, _ = run_scenario(load_scenario(raw))
    return [(v.check, v.status, v.detail) for v in verdicts]


def test_frame_is_the_projected_standard_frame():
    for label, struct in catalog_structures():
        proj = struct.eigenprojector
        want = tuple(
            section_from_column(struct.chart, mat_vec(proj, e.column()))
            for e in standard_frame(struct.chart)
        )
        assert struct.plus_i_frame == want, label


def test_eigenbundle_is_built_once():
    struct = load_builtin("kahler_c2_circle").structures["j1"]
    ident = rmat_identity(struct.chart, 2 * struct.dim)
    assert struct.eigenprojector is struct.eigenprojector
    assert struct.anti_projector is struct.anti_projector
    assert struct.plus_i_frame is struct.plus_i_frame
    assert struct.anti_projector == mat_sub(ident, struct.eigenprojector)


def test_level_slice_is_the_level_set():
    sliced = []
    for name in catalog_names():
        scen = load_builtin(name)
        if scen.moment is None:
            continue
        sub = level_substitution(scen.moment, scen.level)
        if sub is None:
            continue
        sliced.append(name)
        for f, want in zip(scen.moment.functions, scen.level):
            level = RingElement.constant(sub.source, Scalar.of(want))
            assert sub.pull_function(f) == level, name
    assert "bihermitian_r4_translation" in sliced


def test_level_closure_brackets_each_pair_once(monkeypatch):
    scen = load_builtin("gamma_torus_cylinder")
    ws = Workspace(scen)
    struct, moment = ws.work(scen.moment_structure), ws.moment_w()
    vectors = sum(not s.vector.is_zero for s in coisotropic_frame(moment))
    adapted = len(adapted_eigen_frame(struct, moment))
    calls = []
    for name in ("courant_bracket", "lie_bracket"):
        original = getattr(reduction, name, None)
        if original is None:
            continue

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(reduction, name, counted)
    assert [status for _, status, _ in closure_verdicts(scen.name)] == ["pass"] * 3
    # Only the vector parts of the level frame are bracketed, pairs with a
    # pure covector are skipped, and the slice reuses the chart's brackets.
    assert calls.count("lie_bracket") == comb(vectors, 2)
    assert calls.count("courant_bracket") == comb(adapted, 2)


@pytest.mark.parametrize(
    "name, twist, adapted, on_slice",
    [
        (
            "bihermitian_r4_translation",
            [{"coeff": "1", "frame": ["x1", "y1", "x2"]}],
            ("fail", "bracket of adapted sections 0 and 1 leaves the eigenbundle"),
            ("fail", "bracket of adapted sections 0 and 1 leaves the eigenbundle"),
        ),
        (
            "gamma_cylinder_product",
            [{"coeff": "1", "frame": ["t1", "u", "v"]}],
            ("fail", "bracket of adapted sections 0 and 4 leaves the eigenbundle"),
            ("fail", "bracket of adapted sections 0 and 4 leaves the eigenbundle"),
        ),
        # The residual vanishes where t1 = 1, the level set.
        (
            "gamma_cylinder_product",
            [{"coeff": "t1 - 1", "frame": ["t1", "u", "v"]}],
            ("fail", "bracket of adapted sections 0 and 4 leaves the eigenbundle"),
            ("pass", "all 66 adapted brackets stay in the eigenbundle, on the level slice"),
        ),
        # The first open bracket closes on the slice, a later one does not.
        (
            "gamma_cylinder_product",
            [
                {"coeff": "t1 - 1", "frame": ["t1", "u", "v"]},
                {"coeff": "1", "frame": ["x1", "t1", "u"]},
            ],
            ("fail", "bracket of adapted sections 0 and 4 leaves the eigenbundle"),
            ("fail", "bracket of adapted sections 1 and 4 leaves the eigenbundle"),
        ),
        # The residual vanishes on the level set y1 - x2 = -1, and not on
        # the hyperplane x2 = 1 that a slice keeping only the last degree-one
        # term of the moment function would substitute.
        (
            "bihermitian_r4_translation",
            [{"coeff": "y1 - x2 + 1", "frame": ["x1", "y1", "x2"]}],
            ("fail", "bracket of adapted sections 0 and 1 leaves the eigenbundle"),
            ("pass", "all 45 adapted brackets stay in the eigenbundle, on the level slice"),
        ),
        (
            "bihermitian_r4_translation",
            [{"coeff": "x2 - 1", "frame": ["x1", "y1", "x2"]}],
            ("fail", "bracket of adapted sections 0 and 1 leaves the eigenbundle"),
            ("fail", "bracket of adapted sections 0 and 1 leaves the eigenbundle"),
        ),
    ],
)
def test_failing_closure_verdicts(name, twist, adapted, on_slice):
    frame, got_adapted, got_slice = closure_verdicts(name, twist)
    assert frame[:2] == ("level_closure:frame", "pass")
    assert got_adapted == ("level_closure:adapted", *adapted)
    assert got_slice == ("level_closure:slice", *on_slice)
