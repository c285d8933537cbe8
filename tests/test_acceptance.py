"""Acceptance suite: one test per criterion, each printing a pass line.

Every comparison here is exact; there are no numeric tolerances
anywhere.  The two timed criteria use wall-clock budgets (10 seconds
for the algebraic sweep, 120 seconds for the double selftest run) that
hold with a wide margin on ordinary hardware.
"""

import json
import os
import subprocess
import sys
import time

from gkbench.calculus import DiffForm
from gkbench.catalog import catalog_names, load_builtin
from gkbench.equivariant import (
    EquivariantForm,
    MomentData,
    cartan_d,
    check_moment_map,
    equivariant_three_form,
    gamma_from_connection,
    is_basic,
    is_equivariantly_closed,
    moment_b_transform,
)
from gkbench.linalg import identity, mat, mat_mul, mat_vec, rank, row_space_basis
from gkbench.reduction import (
    check_adapted_closure,
    dirac_reduce,
    fiber_data,
    gk_reduce,
    gk_type_prediction,
    two_step_reduce,
)
from gkbench.ring import Scalar, parse_expr
from gkbench.runner import Workspace
from gkbench.structures import (
    GenStructure,
    b_transform_structure,
    check_integrable,
    matrix_type,
)

ZERO = Scalar.of(0)


def moment_scenarios():
    for name in catalog_names():
        scen = load_builtin(name)
        if scen.moment is not None:
            yield name, scen


def workspace_moment(scen):
    ws = Workspace(scen)
    return ws, ws.work(scen.moment_structure), ws.moment_w()


def pair_down(u, gram, v):
    return sum(
        (a * g * b for a, row in zip(u, gram) for g, b in zip(row, v)),
        start=ZERO,
    )


def test_criterion_1_algebraic_axioms_catalog_wide():
    start = time.monotonic()
    checked = 0
    for name in catalog_names():
        scen = load_builtin(name)
        for sname in sorted(scen.structures):
            ok, detail = scen.structures[sname].algebraic
            assert ok, f"{name}/{sname}: {detail}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"algebraic sweep took {elapsed:.1f}s"
    print(
        f"criterion 1: PASS ({checked} structures, zero residuals, "
        f"{elapsed:.2f}s)"
    )


def test_criterion_2_twisted_integrability_flip():
    scen = load_builtin("btwist_t4")
    base = scen.structures["j"]
    assert base.twist.is_zero
    b = scen.b_field
    db = b.d()
    assert not db.is_zero
    points = scen.points

    moved = b_transform_structure(b, base)
    assert moved.twist == -db
    ok_shifted, detail = check_integrable(moved, points)
    assert ok_shifted, detail

    ok_zero, _ = check_integrable(
        GenStructure(scen.chart, moved.matrix, base.twist), points
    )
    assert not ok_zero, "transform stayed integrable for the unshifted twist"
    ok_up, _ = check_integrable(
        GenStructure(scen.chart, moved.matrix, db), points
    )
    assert not ok_up, "transform stayed integrable for the twist shifted up"

    back = b_transform_structure(-b, base)
    assert back.twist == db
    ok_back, detail = check_integrable(back, points)
    assert ok_back, detail
    print(
        "criterion 2: PASS (transform integrable only against the twist "
        "shifted by the field's differential, inverse transform against "
        "the opposite shift)"
    )


def test_criterion_3_cartan_model_two_paths():
    compared = 0
    for name, scen in moment_scenarios():
        _, struct, moment = workspace_moment(scen)
        action = moment.action
        cochain = equivariant_three_form(struct.twist, moment)
        bullet_path, detail = is_equivariantly_closed(struct.twist, moment)
        cartan_path = cartan_d(cochain, action).is_zero
        assert bullet_path and cartan_path, f"{name}: {detail}"
        assert cartan_d(cartan_d(cochain, action), action).is_zero, name
        compared += 1

        if action.k and scen.chart.names[0] != "p":
            broken_forms = (
                moment.one_forms[0] + DiffForm.d_coord(scen.chart, scen.chart.names[0]),
            ) + moment.one_forms[1:]
            broken = MomentData(action, broken_forms, moment.functions)
            bullet_broken, _ = is_equivariantly_closed(struct.twist, broken)
            cartan_broken = cartan_d(
                equivariant_three_form(struct.twist, broken), action
            ).is_zero
            assert bullet_broken == cartan_broken == False  # noqa: E712

    scen = load_builtin("kahler_c2_circle")
    _, struct, moment = workspace_moment(scen)
    chart = scen.chart
    dc = lambda n: DiffForm.d_coord(chart, n)
    omega = dc("x1").wedge(dc("y1")) + dc("x2").wedge(dc("y2"))
    closed_ext = EquivariantForm(
        chart,
        1,
        {(0,): omega, (1,): DiffForm.function(moment.functions[0].scale(Scalar.of(-1)))},
    )
    assert cartan_d(closed_ext, moment.action).is_zero
    wrong_ext = EquivariantForm(
        chart, 1, {(0,): omega, (1,): DiffForm.function(moment.functions[0])}
    )
    assert not cartan_d(wrong_ext, moment.action).is_zero
    print(
        f"criterion 3: PASS ({compared} scenarios, two code paths agree, "
        "squared differential vanishes on invariant cochains)"
    )


def test_criterion_4_potential_construction():
    scen = load_builtin("gamma_torus_cylinder")
    ws, struct, moment = workspace_moment(scen)
    action = moment.action
    gammas = {}
    for cname, conn in scen.connections.items():
        gamma = gamma_from_connection(moment, conn)
        gammas[cname] = gamma
        for i, xi in enumerate(action.generators):
            assert gamma.interior(xi) == moment.one_forms[i], (cname, i)
        shifted = struct.twist + gamma.d()
        assert is_basic(shifted, action) is None, cname
    names = list(gammas)
    assert len(names) == 2
    diff = gammas[names[0]] - gammas[names[1]]
    assert is_basic(diff, action) is None
    print(
        "criterion 4: PASS (potential contracts to the moment one-forms for "
        "all generators, makes the twist basic, and connection changes "
        "differ by a basic form)"
    )


def test_criterion_5_reduction_with_independent_oracle():
    scen = load_builtin("kahler_c2_circle")
    ws, _, moment = workspace_moment(scen)
    struct, _ = ws.reduction_entry(scen.moment_structure, None)
    assert len(scen.points) >= 5
    for pname, point in scen.points.items():
        fiber = fiber_data(moment, point, scen.level)
        red = dirac_reduce(struct, fiber)
        m = fiber.m
        assert len(red.l_rows) == m, pname
        for u in red.l_rows:
            for v in red.l_rows:
                assert pair_down(u, fiber.gram_q, v) == ZERO, pname
        conj_rows = tuple(tuple(x.conj() for x in row) for row in red.l_rows)
        assert rank(mat(red.l_rows + conj_rows)) == 2 * len(red.l_rows), pname
        assert all(x.im == 0 for row in red.jmat for x in row), pname
        minus_one = tuple(tuple(-x for x in row) for row in identity(2 * m))
        assert mat_mul(red.jmat, red.jmat) == minus_one, pname

        two = two_step_reduce(struct, fiber)
        assert mat_mul(two.comparison, red.jmat) == mat_mul(
            two.jmat, two.comparison
        ), pname
        assert row_space_basis(
            [mat_vec(two.comparison, u) for u in red.l_rows]
        ) == row_space_basis(two.l_rows), pname
    print(
        f"criterion 5: PASS ({len(scen.points)} fibers, reduced bundle "
        "maximal isotropic with trivial conjugate meet, square is minus "
        "identity, two-step oracle agrees)"
    )


def test_criterion_6_type_formulas():
    scen = load_builtin("kahler_c2_circle")
    ws, _, _ = workspace_moment(scen)
    struct1, _ = ws.reduction_entry("j1", None)
    struct2, _ = ws.reduction_entry("j2", None)
    for pname, point in scen.points.items():
        fiber = fiber_data(ws.moment_w(), point, scen.level)
        red1 = dirac_reduce(struct1, fiber)
        assert struct1.at(point).type == 0
        assert matrix_type(red1.jmat, red1.fiber.point) == 0, pname
        gk = gk_reduce(red1, struct1, struct2)
        computed = matrix_type(gk.jmat2, fiber.point)
        predicted, formula = gk_type_prediction(struct2, fiber)
        assert computed == predicted == 1, (pname, formula)
        assert struct2.at(point).type - fiber.k == 1, pname

    scen = load_builtin("bihermitian_r4_translation")
    ws, _, _ = workspace_moment(scen)
    struct1, _ = ws.reduction_entry("j1", ws.primary_connection())
    struct2, _ = ws.reduction_entry("j2", ws.primary_connection())
    for pname, point in scen.points.items():
        fiber = fiber_data(ws.moment_w(), point, scen.level)
        red1 = dirac_reduce(struct1, fiber)
        assert matrix_type(red1.jmat, red1.fiber.point) == struct1.at(point).type == 0, pname
        gk = gk_reduce(red1, struct1, struct2)
        computed = matrix_type(gk.jmat2, fiber.point)
        predicted, formula = gk_type_prediction(struct2, fiber)
        assert computed == predicted == 1, (pname, formula)
        assert "2*1" in formula, formula
    print(
        "criterion 6: PASS (reduced type matches the pointwise type on the "
        "moment side, and the counting formula for the partner holds, "
        "including a case with nonzero orbit overlap)"
    )


def test_criterion_7_moment_map_examples():
    scen = load_builtin("mixed_r4_rotation")
    struct = scen.structures[scen.moment_structure]
    moment = scen.moment
    exact = DiffForm.function(parse_expr("y2", scen.chart)).d()
    assert moment.one_forms[0] == exact
    ok, detail = check_moment_map(struct, moment)
    assert ok, detail

    scen = load_builtin("gamma_torus_cylinder")
    base = scen.structures[scen.moment_structure]
    b = scen.b_field
    moment1 = moment_b_transform(scen.moment, b)
    for i, xi in enumerate(moment1.action.generators):
        assert moment1.one_forms[i] == scen.moment.one_forms[i] + b.interior(xi)
    moved = b_transform_structure(b, base)
    assert moved.twist == base.twist - b.d()
    ok, detail = check_moment_map(moved, moment1)
    assert ok, detail

    chart = scen.chart
    dc = lambda n: DiffForm.d_coord(chart, n)
    second = dc("t1").wedge(dc("t2")) + dc("x2").wedge(dc("t2")).scale(Scalar.of(3))
    moment2 = moment_b_transform(moment1, second)
    moment_sum = moment_b_transform(scen.moment, b + second)
    twist2 = b_transform_structure(second, moved).twist
    assert twist2 == b_transform_structure(b + second, base).twist
    assert moment2.one_forms == moment_sum.one_forms
    assert moment2.functions == moment_sum.functions
    print(
        "criterion 7: PASS (exact one-form example and transformed one-form "
        "example verified, transform group law holds)"
    )


def test_criterion_8_closure_properties():
    scen = load_builtin("gamma_torus_cylinder")
    ws, struct, moment = workspace_moment(scen)
    (ok, detail), _ = check_adapted_closure(struct, moment, points=scen.points)
    assert ok, detail
    assert "certified at" in detail

    names = []
    for name, scen in moment_scenarios():
        ws, struct, moment = workspace_moment(scen)
        (ok, detail), _ = check_adapted_closure(struct, moment)
        assert ok, f"{name}: {detail}"
        names.append(name)
    print(
        f"criterion 8: PASS (adapted frame closes on {len(names)} scenarios "
        "with moment data, certified basis and full frame; the level "
        "distribution closes by df_i([X, Y]) = X(df_i Y) - Y(df_i X))"
    )


def test_criterion_9_selftest_determinism():
    start = time.monotonic()
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "gkbench.cli", "selftest"],
            capture_output=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()[:500]
        outputs.append(proc.stdout)
    elapsed = time.monotonic() - start
    assert outputs[0] == outputs[1], "selftest output differs between runs"
    doc = json.loads(outputs[0])
    assert doc["all_pass"] is True
    assert len(doc["scenarios"]) == len(catalog_names())
    assert elapsed < 120.0, f"double selftest took {elapsed:.1f}s"
    print(
        f"criterion 9: PASS (byte-identical selftest under different hash "
        f"seeds, {elapsed:.1f}s for two runs)"
    )
