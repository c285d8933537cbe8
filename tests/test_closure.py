"""Tests for the bracket-closure pass: the eigenbundle data a structure
builds once, the one loop over frame pairs, the level-slice verdict
judged from the same brackets as the chart-wide one, and the basis
certified at a scenario point that decides the same verdicts as the full
frame.  The level distribution's own closure is an identity, which the
runner states without computing a bracket; the tests here prove it.  The
runner brackets level-tangent sections only when the moment structure
fails integrability, since every subbundle of an involutive eigenbundle
closes, so the adapted pass's own counts and details are tested on
reduction.check_adapted_closure directly, and the implication behind
the skip on every twist variant."""

from __future__ import annotations

import copy
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gkbench import calculus, structures
from gkbench.calculus import DiffForm, lie_bracket
from gkbench.catalog import builtin_raw, catalog_names, load_builtin
from gkbench.linalg import mat, mat_mul, mat_vec, rank, rmat_eval, rmat_identity, transpose
from gkbench.reduction import check_adapted_closure, level_substitution
from gkbench.ring import IMAG, EvalPoint, RingElement, Scalar, make_chart, parse_expr
from gkbench.runner import EIGENBUNDLE_CLOSES, LEVEL_FRAME_CLOSES, Workspace, run_scenario
from gkbench.scenario import load_scenario
from gkbench.structures import (
    GenStructure,
    _cross_eliminate,
    b_transform_structure,
    certified_basis,
    check_integrable,
    section_from_column,
)


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
    # The loader refuses level_closure without a level; mixed_r4_rotation,
    # which has none, gets 1/2, its moment function's value at point unit.
    raw.setdefault("level", ["1/2"])
    if twist is not None:
        raw["twist"] = twist
    verdicts, _ = run_scenario(load_scenario(raw))
    return [(v.check, v.status, v.detail) for v in verdicts]


FRAME_PASS = ("level_closure:frame", "pass", LEVEL_FRAME_CLOSES)


def moment_builtins():
    return [n for n in catalog_names() if "moment" in builtin_raw(n)]


def unit_columns(chart, count):
    """The first count unit columns of length 2n: d_x1 ... d_xn, then
    dx1 ... dxn."""
    return rmat_identity(chart, 2 * chart.dim)[:count]


def test_frame_is_the_projected_standard_frame():
    """The +i frame is Id - iJ applied to the standard frame: twice the
    projection P = (Id - iJ)/2 of each unit column."""
    for label, struct in catalog_structures():
        want = tuple(
            section_from_column(
                struct.chart,
                tuple(x - y.scale(IMAG) for x, y in zip(e, mat_vec(struct.matrix, e))),
            )
            for e in unit_columns(struct.chart, 2 * struct.dim)
        )
        assert struct.plus_i_frame == want, label


def test_eigenbundle_is_built_once():
    scen = load_builtin("kahler_c2_circle")
    struct, p = scen.structures["j1"], next(iter(scen.points.values()))
    assert struct.plus_i_frame is struct.plus_i_frame
    here = struct.at(p)
    assert here.columns is here.columns
    assert here.eigenrows is here.eigenrows
    # Each frame section lies in the eigenbundle: (J - i)u = 0.
    for u in struct.plus_i_frame:
        assert all(r.is_zero for r in struct.residual(u.column()))


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
    calls = []
    inside = []
    courant, lie = structures.courant_bracket, calculus.lie_bracket

    def counted_courant(*args):
        calls.append("courant_bracket")
        inside.append(1)
        try:
            return courant(*args)
        finally:
            inside.pop()

    def counted_lie(*args):
        if not inside:
            calls.append("lie_bracket")
        return lie(*args)

    monkeypatch.setattr(structures, "courant_bracket", counted_courant)
    for module in (calculus, structures):
        monkeypatch.setattr(module, "lie_bracket", counted_lie)
    assert [status for _, status, _ in closure_verdicts(scen.name)] == ["pass"] * 3
    calls.clear()
    outcomes = check_adapted_closure(*closure_inputs(scen.name))
    assert [ok for ok, _ in outcomes] == [True, True]
    # Only a basis certified at a scenario point is bracketed, and the slice
    # reuses the chart's brackets.  The free torus action makes the
    # level-tangent eigenbundle of rank N - k.  The level distribution's
    # closure is an identity: no Lie bracket is taken outside a Courant one.
    rank = scen.chart.dim - len(scen.level)
    assert calls.count("lie_bracket") == 0
    assert calls.count("courant_bracket") == comb(rank, 2)


R4 = make_chart(("a", "affine"), ("b", "affine"), ("c", "affine"), ("e", "affine"))
_MONOMIALS = st.sampled_from(["1", "a", "b", "e", "a*b", "b*c", "c^2", "a*e^2", "a*b*c"])


@st.composite
def polynomials(draw):
    terms = draw(
        st.lists(st.tuples(st.integers(-2, 2), _MONOMIALS), min_size=1, max_size=3)
    )
    return parse_expr(" + ".join(f"({c})*{m}" for c, m in terms), R4)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(polynomials(), min_size=1, max_size=2))
def test_moment_differentials_annihilate_frame_brackets(functions):
    """Why check_adapted_closure computes no tangency residual, and why the
    runner's level_closure:frame verdict computes no bracket: each df_i
    annihilates the cross-eliminated coordinate fields, and so annihilates
    their Lie brackets, df_i([X, Y]) = X(df_i Y) - Y(df_i X) = 0."""
    units = [section_from_column(R4, e) for e in unit_columns(R4, R4.dim)]
    dfs = [DiffForm.function(f).d() for f in functions]
    vectors = [s.vector for s in _cross_eliminate(units, dfs)]
    for i, x in enumerate(vectors):
        assert all(df.apply([x]).is_zero for df in dfs)
        for y in vectors[i + 1 :]:
            bracket = lie_bracket(x, y)
            assert all(df.apply([bracket]).is_zero for df in dfs)


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
    assert frame == FRAME_PASS
    assert got_adapted == ("level_closure:adapted", *adapted)
    assert got_slice == ("level_closure:slice", *on_slice)


def test_frame_verdict_is_the_identity():
    # Every catalog scenario with moment data passes the level distribution
    # by the identity, as every failing twist above does.
    moment_names = moment_builtins()
    assert len(moment_names) >= 4
    for name in moment_names:
        assert closure_verdicts(name)[0] == FRAME_PASS, name


SLICE_SCENARIOS = (
    "bihermitian_r4_translation",
    "gamma_torus_cylinder",
    "gamma_cylinder_product",
)


def closure_verdicts_with_points(name: str, points: list) -> list[tuple[str, str, str]]:
    raw = copy.deepcopy(builtin_raw(name))
    raw["checks"] = ["level_closure"]
    raw["points"] = points
    verdicts, _ = run_scenario(load_scenario(raw))
    return [(v.check, v.status, v.detail) for v in verdicts]


def closure_inputs(name: str, twist=None, points=None):
    """The moment structure, transported moment data, slice map and points
    the runner's level_closure check uses, for a builtin with an optional
    replacement twist and replacement points."""
    raw = copy.deepcopy(builtin_raw(name))
    raw.setdefault("level", ["1/2"])  # as in closure_verdicts
    if twist is not None:
        raw["twist"] = twist
    if points is not None:
        raw["points"] = points
    return scenario_closure_inputs(load_scenario(raw))


def scenario_closure_inputs(scen):
    ws = Workspace(scen)
    moment = ws.moment_w()
    sub = level_substitution(moment, scen.level)
    return ws.work(scen.moment_structure), moment, sub, scen.points


def all_outcomes(struct, moment, sub, points):
    """Chart and slice verdicts of the adapted closure, and integrability."""
    return (
        *check_adapted_closure(struct, moment, sub, points),
        check_integrable(struct, points),
    )


def failing(outcomes):
    return [o for o in outcomes if o is not None and not o[0]]


def twist_variants(name: str):
    """The scenario's own twist, then replacements built from closed terms
    (each coefficient depends only on its own frame's coordinates): a
    constant one, one that vanishes where a coordinate is 1, and that one
    with a second constant term."""
    coords = [c for c, _ in builtin_raw(name)["chart"]]
    first, second = coords[:3], coords[1:4]
    yield None
    yield [{"coeff": "1", "frame": first}]
    yield [{"coeff": f"{first[1]} - 1", "frame": first}]
    yield [
        {"coeff": f"{first[1]} - 1", "frame": first},
        {"coeff": "1", "frame": second},
    ]


def test_certified_basis_decides_as_the_full_frame():
    # Passing no points forces the full frame; the statuses agree, and a
    # failing verdict is the full frame's, byte for byte.
    failures = 0
    for name in SLICE_SCENARIOS:
        for twist in twist_variants(name):
            struct, moment, sub, points = closure_inputs(name, twist)
            certified = all_outcomes(struct, moment, sub, points)
            full = all_outcomes(struct, moment, sub, {})
            assert [o and o[0] for o in certified] == [o and o[0] for o in full]
            assert failing(certified) == failing(full), (name, twist)
            failures += len(failing(full))
    assert failures


def test_full_frame_without_points():
    assert closure_verdicts_with_points("gamma_torus_cylinder", [])[0] == FRAME_PASS
    inputs = closure_inputs("gamma_torus_cylinder", points=[])
    assert check_adapted_closure(*inputs) == (
        (True, "all 15 adapted brackets stay in the eigenbundle, globally"),
        (True, "all 15 adapted brackets stay in the eigenbundle, on the level slice"),
    )


def test_full_frame_without_moment_functions_is_the_plus_i_frame():
    """With no moment function the fallback frame is the +i frame as it
    is, zero sections and numbering included, as check_integrable reads
    it.  J = diag(i, -i, i, -i) is not real, so no basis is certified,
    and P = diag(1, 0, 1, 0) has two zero columns: of the frame's 6
    pairs only (0, 2) is bracketed, and the zero sections keep their
    numbers."""
    diag = ["I", "-I", "I", "-I"]
    raw = {
        "name": "no_moment_functions",
        "chart": [["x", "affine"], ["y", "affine"]],
        "structures": {"j": {"kind": "matrix", "matrix": [
            [diag[r] if r == c else "0" for c in range(4)] for r in range(4)
        ]}},
        "action": [],
        "moment": {"structure": "j", "functions": []},
        "points": [{"name": "o", "values": {"x": "0", "y": "0"}}],
        "checks": ["level_closure"],
    }
    scen = load_scenario(raw)
    struct = scen.structures["j"]
    (ok, detail), _ = check_adapted_closure(struct, scen.moment, points=scen.points)
    assert ok and detail == "all 6 adapted brackets stay in the eigenbundle, globally"
    assert [u.is_zero for u in struct.plus_i_frame] == [False, True, False, True]


def test_full_frame_when_the_point_drops_rank():
    # dF vanishes at the origin of C^2, so the adapted bound there is n,
    # which the level-tangent eigenbundle frame does not reach: no basis is
    # certified.
    origin = {"name": "origin", "values": dict.fromkeys(["x1", "y1", "x2", "y2"], "0")}
    assert closure_verdicts_with_points("kahler_c2_circle", [origin])[0] == FRAME_PASS
    adapted, _ = check_adapted_closure(*closure_inputs("kahler_c2_circle", points=[origin]))
    assert adapted == (
        True,
        "all 276 adapted brackets stay in the eigenbundle, globally",
    )
    pole = {"name": "pole", "values": {**origin["values"], "x1": "1"}}
    points = [origin, pole]
    assert closure_verdicts_with_points("kahler_c2_circle", points)[0] == FRAME_PASS
    adapted, _ = check_adapted_closure(*closure_inputs("kahler_c2_circle", points=points))
    assert adapted == (
        True,
        "all brackets of a 3-section basis certified at pole (3 pairs) stay in "
        "the eigenbundle, globally",
    )


def test_full_frame_when_the_structure_is_not_algebraic(monkeypatch):
    # On (x, y), J squares to -Id, so P is idempotent and the constant
    # eigenbundle is involutive, but J does not preserve the pairing:
    # isotropy, which the certificate needs, is not known.  Under a zero
    # twist a constant frame brackets to zero, so nothing is bracketed.
    # On (u, v) the symplectic structure of du^dv, moved by the closed
    # B = u du^dv, makes the frame non-constant without changing the
    # verdict: its sections are isotropic and meet the (x, y) sections in
    # no coordinate.  Then all frame pairs are bracketed.
    chart = make_chart(("x", "affine"), ("y", "affine"), ("u", "affine"), ("v", "affine"))

    def c(text):
        return RingElement.constant(chart, Scalar.of(Fraction(text)))

    def block(*rows):
        return [tuple(c(x) for x in row.split()) for row in rows]

    matrix = mat(
        block(
            "0 -2 0 0 0 0 0 0",
            "1/2 0 0 0 0 0 0 0",
            "0 0 0 0 0 0 0 1",
            "0 0 0 0 0 0 -1 0",
            "0 0 0 0 0 -2 0 0",
            "0 0 0 0 1/2 0 0 0",
            "0 0 0 1 0 0 0 0",
            "0 0 -1 0 0 0 0 0",
        )
    )
    struct = GenStructure(chart, matrix, DiffForm.zero(chart, 3))
    assert struct.algebraic == (
        False,
        "matrix does not preserve the pairing: entry (0, 5) of G J + J^T G is -3/4",
    )
    calls = []
    original = structures.courant_bracket
    monkeypatch.setattr(
        structures, "courant_bracket", lambda *a: calls.append(1) or original(*a)
    )
    points = {"origin": EvalPoint.at(chart, x=0, y=0, u=0, v=0)}
    involutive = (True, "eigenbundle is involutive for the twisted bracket")
    assert check_integrable(struct, points) == involutive
    assert calls == []
    b_field = DiffForm(chart, 2, {(2, 3): parse_expr("u", chart)})
    moved = b_transform_structure(b_field, struct)
    assert moved.twist.is_zero and moved.matrix != struct.matrix
    assert moved.algebraic == struct.algebraic
    assert check_integrable(moved, points) == involutive
    live = sum(not u.is_zero for u in moved.plus_i_frame)
    assert len(calls) == comb(live, 2) > comb(moved.dim, 2)


def test_full_frame_witness_when_a_basis_bracket_fails():
    twist = [{"coeff": "1", "frame": ["t1", "u", "v"]}]
    struct, moment, sub, points = closure_inputs("gamma_cylinder_product", twist)
    got = check_adapted_closure(struct, moment, sub, points)
    assert got == check_adapted_closure(struct, moment, sub)
    want = (False, "bracket of adapted sections 0 and 4 leaves the eigenbundle")
    assert got == (want, want)
    wrong = struct.with_twist(struct.twist.scale(Scalar.of(2)))
    ok, detail = check_integrable(wrong, points)
    assert not ok
    assert (ok, detail) == check_integrable(wrong, {})
    assert detail.startswith("bracket of frame sections ")


def test_with_twist_keeps_the_matrix_only_values():
    scen = load_builtin("btwist_t4")
    struct = scen.structures["j"]
    struct.plus_i_frame, struct.squares_to_minus_one  # built here, algebraic not
    db = scen.b_field.d()
    other = struct.with_twist(db)
    assert other.twist == db and other.matrix == struct.matrix
    assert other.plus_i_frame is struct.plus_i_frame
    assert other.squares_to_minus_one is struct.squares_to_minus_one
    assert other.supports is struct.supports
    assert "algebraic" not in vars(other)
    # A transform that leaves the matrix alone shares what was built.
    zero = DiffForm.zero(struct.chart, 2)
    same = b_transform_structure(zero, struct)
    assert same.plus_i_frame is struct.plus_i_frame


def test_each_matrix_builds_its_eigenbundle_once_per_run(monkeypatch):
    prop = structures.GenStructure.__dict__["plus_i_frame"]
    built = []

    def counted(struct, _original=prop.func):
        built.append(str(struct.matrix))
        return _original(struct)

    monkeypatch.setattr(prop, "func", counted)
    runs = 0
    for name in catalog_names():
        built.clear()
        run_scenario(load_builtin(name))
        assert len(built) == len(set(built)), name
        runs += bool(built)
    assert runs == len(catalog_names())


def kahler_c3_circle():
    """Flat Kahler C^3 with the diagonal circle action and its moment map
    |z|^2/2, at two points: the origin, where dF vanishes, and a point of
    the level set |z|^2 = 1."""
    names = [f"{axis}{j}" for j in (1, 2, 3) for axis in "xy"]
    origin = dict.fromkeys(names, "0")
    return {
        "name": "kahler_c3_circle",
        "chart": [[name, "affine"] for name in names],
        "structures": {
            "j1": {
                "kind": "symplectic",
                "two_form": [
                    {"coeff": "1", "frame": [f"x{j}", f"y{j}"]} for j in (1, 2, 3)
                ],
            }
        },
        "action": [[c for j in (1, 2, 3) for c in (f"-y{j}", f"x{j}")]],
        "moment": {
            "structure": "j1",
            "functions": [" + ".join(f"1/2*x{j}^2 + 1/2*y{j}^2" for j in (1, 2, 3))],
        },
        "level": ["1/2"],
        "points": [
            {"name": "origin", "values": origin},
            {"name": "p", "values": {**origin, "x1": "3/5", "y2": "4/5"}},
        ],
        "checks": ["level_closure"],
    }


# The point and size of the basis that the old certificate, a greedy pick
# among the evaluated columns of the cross-eliminated frame accepted at the
# bound n - rank(dF.rho.P), certified for the runner's inputs.
CERTIFIED = {
    "kahler_c2_circle": ("pole_x1", 3),
    "gamma_torus_cylinder": ("base", 2),
    "trivial_action": ("origin", 4),
    "mixed_r4_rotation": ("unit", 3),
    "gamma_cylinder_product": ("base", 4),
    "bihermitian_r4_translation": ("first", 3),
    "kahler_c3_circle": ("p", 5),
}


def moment_scenarios():
    for name in moment_builtins():
        yield load_builtin(name)
    yield load_scenario(kahler_c3_circle())


def test_pivoted_basis_certifies_where_the_full_frame_did():
    got = {}
    for scen in moment_scenarios():
        ws = Workspace(scen)
        struct, moment = ws.work(scen.moment_structure), ws.moment_w()
        dfs = [DiffForm.function(f).d() for f in moment.functions]
        basis = certified_basis(struct, scen.points, dfs)
        got[scen.name] = (basis.point, len(basis.sections))
        p = scen.points[basis.point]
        n = struct.dim
        # Every df annihilates each section, and they are independent at p.
        for u in basis.sections:
            assert all(df.apply([u.vector]).is_zero for df in dfs), scen.name
        values = rmat_eval(tuple(u.column() for u in basis.sections), p)
        assert rank(values) == len(basis.sections), scen.name
        # Its size is the old bound, and each section is, up to sign, a
        # section of the cross-eliminated frame.
        if dfs:
            zero = RingElement.zero(struct.chart)
            components = tuple(tuple(df.terms.get((i,), zero) for i in range(n)) for df in dfs)
            dF = rmat_eval(components, p)
            bound = n - rank(mat_mul(dF, transpose(struct.at(p).columns)[:n]))
        else:
            bound = n
        assert len(basis.sections) == bound, scen.name
        frame = _cross_eliminate(struct.plus_i_frame, dfs)
        for u in basis.sections:
            assert u in frame or -u in frame, scen.name
    assert got == CERTIFIED


def test_certified_closure_builds_no_full_frame(monkeypatch):
    scen = load_scenario(kahler_c3_circle())
    calls = []
    courant = structures.courant_bracket

    def counted(*args):
        calls.append(1)
        return courant(*args)

    def refused(*args):
        raise AssertionError("the cross-eliminated frame was built")

    monkeypatch.setattr(structures, "courant_bracket", counted)
    monkeypatch.setattr(structures, "_cross_eliminate", refused)
    verdicts, _ = run_scenario(scen)
    assert [(v.check, v.status) for v in verdicts] == [
        ("level_closure:frame", "pass"),
        ("level_closure:adapted", "pass"),
        ("level_closure:slice", "skipped"),
    ]
    struct, moment, sub, points = scenario_closure_inputs(scen)
    assert sub is None  # the moment map is quadratic: no slice verdict
    calls.clear()
    adapted, on_slice = check_adapted_closure(struct, moment, sub, points)
    assert on_slice is None
    assert adapted == (
        True,
        "all brackets of a 5-section basis certified at p (10 pairs) stay in "
        "the eigenbundle, globally",
    )
    # The rank n - k level-tangent eigenbundle: C^3 has n = 6, the circle k = 1.
    assert len(calls) == comb(scen.chart.dim - 1, 2)


def test_integrable_structures_close_their_level_tangent_part():
    """Why the runner's level_closure reads the integrability judgment:
    every subbundle of an involutive eigenbundle is closed, its
    level-tangent part included, so whenever check_integrable passes, both
    outcomes of the adapted pass do."""
    cases = {
        (name, str(twist)): closure_inputs(name, twist)
        for name in moment_builtins()
        for twist in twist_variants(name)
    }
    cases["kahler_c3_circle"] = scenario_closure_inputs(load_scenario(kahler_c3_circle()))
    judged = []
    for case, (struct, moment, sub, points) in cases.items():
        ok, _ = check_integrable(struct, points)
        judged.append(ok)
        if ok:
            outcomes = check_adapted_closure(struct, moment, sub, points)
            assert not failing(outcomes), case
    assert True in judged and False in judged


def test_level_closure_reads_the_integrability_judgment(monkeypatch):
    # The closed invariant B-field (x1^2 + y1^2) dx1^dy1 moves j1 to a
    # structure with a non-constant frame, which level_closure judges.
    raw = kahler_c3_circle()
    raw["checks"] = ["integrability", "level_closure"]
    raw["b_field"] = [{"coeff": "x1^2 + y1^2", "frame": ["x1", "y1"]}]
    scen = load_scenario(raw)
    calls = []
    courant = structures.courant_bracket
    monkeypatch.setattr(
        structures, "courant_bracket", lambda *a: calls.append(1) or courant(*a)
    )
    verdicts, _ = run_scenario(scen)
    assert [(v.check, v.status) for v in verdicts] == [
        ("integrability:j1", "pass"),
        ("integrability:j1+b", "pass"),
        ("level_closure:frame", "pass"),
        ("level_closure:adapted", "pass"),
        ("level_closure:slice", "skipped"),
    ]
    # Only integrability:j1+b brackets: a 6-section basis of the eigenbundle
    # of C^3.  The constant frame of j1 under a zero twist brackets nothing.
    assert len(calls) == comb(scen.chart.dim, 2)
    calls.clear()
    assert check_integrable(scen.structures["j1"], scen.points)[0]
    assert calls == []
    assert "no bracket is computed" in verdicts[3].detail
    assert verdicts[3].detail.endswith(", globally")


def as_verdict(outcome):
    ok, detail = outcome
    return "pass" if ok else "fail", detail


def test_level_closure_without_integrability_keeps_the_adapted_statuses():
    """A scenario that lists level_closure alone: the runner judges
    integrability itself, and its statuses are the adapted pass's; where
    integrability fails, the details are too, byte for byte."""
    failures = 0
    for name in moment_builtins():
        for twist in twist_variants(name):
            struct, moment, sub, points = closure_inputs(name, twist)
            adapted, on_slice = check_adapted_closure(struct, moment, sub, points)
            want = [FRAME_PASS, ("level_closure:adapted", *as_verdict(adapted))]
            if on_slice is None:
                no_slice = "chart does not admit substituting the level values"
                want.append(("level_closure:slice", "skipped", no_slice))
            else:
                want.append(("level_closure:slice", *as_verdict(on_slice)))
            got = closure_verdicts(name, twist)
            if check_integrable(struct, points)[0]:
                assert [v[:2] for v in got] == [v[:2] for v in want], (name, twist)
            else:
                failures += 1
                assert got == want, (name, twist)
    assert failures


@pytest.mark.parametrize(
    "b_coeff, checks, brackets, adapted",
    [
        (
            "x1^2 + y1^2", ["level_closure"], 10,
            "all brackets of a 5-section basis certified at p (10 pairs) stay in "
            "the eigenbundle, globally",
        ),
        ("x1^2 + y1^2", ["integrability", "level_closure"], 15, f"{EIGENBUNDLE_CLOSES}, globally"),
        ("x2^2 + y2^2", ["level_closure", "b_flip"], 34, f"{EIGENBUNDLE_CLOSES}, globally"),
        (None, ["level_closure"], 0, f"{EIGENBUNDLE_CLOSES}, globally"),
    ],
    ids=["alone", "with-integrability", "with-b_flip", "constant-frame"],
)
def test_level_closure_alone_runs_the_adapted_pass_alone(
    monkeypatch, b_coeff, checks, brackets, adapted
):
    """kahler_c3_circle moved by an invariant B = b_coeff dx1^dy1, whose
    frame is not constant: judging integrability brackets its 6-section
    basis, 15 pairs, and the adapted pass alone its 5-section level-tangent
    basis, 10 pairs, so level_closure judges integrability only where a
    listed check makes that judgment too.  b_flip, on the B that is not
    closed, makes it among its 34 brackets, and level_closure adds none to
    them.  On the constant frame the judgment takes no bracket, and
    level_closure reads it."""
    raw = kahler_c3_circle()
    raw["checks"] = checks
    if b_coeff is not None:
        raw["b_field"] = [{"coeff": b_coeff, "frame": ["x1", "y1"]}]
    calls = []
    courant = structures.courant_bracket

    def counted(*args):
        calls.append(1)
        return courant(*args)

    monkeypatch.setattr(structures, "courant_bracket", counted)
    verdicts, _ = run_scenario(load_scenario(raw))
    assert all(v.status in ("pass", "skipped") for v in verdicts)
    assert {v.check: v.detail for v in verdicts}["level_closure:adapted"] == adapted
    assert len(calls) == brackets
