"""Tests for fiberwise reduction at level-set points.

The worked example is the diagonal circle on C^2 with its radius
function: at points of the unit sphere the quotient fiber is four
dimensional, the symplectic structure reduces to the standard symplectic
model on the remaining pair of coordinates, and the complex structure of
the Kahler pair reduces to the standard complex model.  All matrices
below were computed by hand from the eigenbundle images and frozen.
"""

import copy
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkbench.calculus import DiffForm, VectorField, lie_bracket
from gkbench.catalog import builtin_raw, catalog_names, load_builtin
from gkbench.equivariant import MomentData, TorusAction
from gkbench.errors import ValidationError
from gkbench.linalg import (
    extend_basis,
    identity,
    is_positive_definite,
    mat,
    mat_conj,
    mat_mul,
    mat_neg,
    mat_vec,
    nullspace,
    rank,
    rmat_eval,
    rmat_identity,
    row_space_basis,
    solve,
    transpose,
)
from gkbench.reduction import (
    FiberData,
    TwoStepResult,
    _eigen_matrix,
    _push_down,
    level_substitution,
    check_adapted_closure,
    descend_endomorphism,
    dirac_reduce,
    fiber_data,
    gk_reduce,
    gk_type_prediction,
    two_step_disagreement,
    two_step_reduce,
)
from gkbench.ring import (
    IMAG, ONE, ZERO, EvalPoint, RingElement, Scalar, make_chart, parse_expr
)
from gkbench import runner
from gkbench.runner import Workspace, run_scenario
from gkbench.scenario import load_scenario
from gkbench.structures import (
    GenStructure,
    _cross_eliminate,
    b_exponential,
    b_transform_structure,
    matrix_type,
    section_from_column,
)

from plain_structures import complex_structure, symplectic_structure

R4 = make_chart(("x1", "affine"), ("y1", "affine"), ("x2", "affine"), ("y2", "affine"))
CYL = make_chart(
    ("x1", "periodic"), ("t1", "affine"), ("x2", "periodic"), ("t2", "affine")
)
TUBE = make_chart(
    ("x", "periodic"), ("t", "affine"), ("u", "affine"), ("v", "affine")
)


def fn(text, chart):
    return parse_expr(text, chart)


def d(chart, name):
    return DiffForm.d_coord(chart, name)


def vf(chart, components):
    return VectorField(chart, tuple(fn(c, chart) for c in components))


def S(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def smat(rows):
    return mat(tuple(tuple(S(*x) if isinstance(x, tuple) else S(x) for x in row)
                     for row in rows))


def omega_r4():
    return d(R4, "x1").wedge(d(R4, "y1")) + d(R4, "x2").wedge(d(R4, "y2"))


def sphere_moment():
    xi = vf(R4, ["-y1", "x1", "-y2", "x2"])
    action = TorusAction(R4, (xi,))
    f = fn("1/2*x1^2 + 1/2*y1^2 + 1/2*x2^2 + 1/2*y2^2", R4)
    return MomentData(action, (DiffForm.zero(R4, 1),), (f,))


def complex_r4():
    z = RingElement.zero(R4)
    one = RingElement.one(R4)
    jmat = (
        (z, -one, z, z),
        (one, z, z, z),
        (z, z, z, -one),
        (z, z, one, z),
    )
    return complex_structure(jmat, R4)


SPHERE_LEVEL = (Fraction(1, 2),)

P0 = EvalPoint.at(R4, x1=1, y1=0, x2=0, y2=0)

OTHER_POINTS = [
    EvalPoint.at(R4, x1=0, y1=1, x2=0, y2=0),
    EvalPoint.at(R4, x1=0, y1=0, x2=1, y2=0),
    EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=1),
    EvalPoint.at(R4, x1=Fraction(3, 5), y1=Fraction(4, 5), x2=0, y2=0),
    EvalPoint.at(
        R4,
        x1=Fraction(1, 2),
        y1=Fraction(1, 2),
        x2=Fraction(1, 2),
        y2=Fraction(1, 2),
    ),
]

# Hand-computed reduced matrices at p = (1, 0, 0, 0), quotient basis
# ([d_x2], [d_y2], [dx2], [dy2]).
J1_REDUCED = smat([
    [0, 0, 0, 1],
    [0, 0, -1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
])
J2_REDUCED = smat([
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
])
G_REDUCED = smat([
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
])


class TestFiberData:
    def test_frozen_fiber_at_pole(self):
        fiber = fiber_data(sphere_moment(), P0, SPHERE_LEVEL)
        assert (fiber.n, fiber.k, fiber.m) == (4, 1, 2)
        # W-perp is spanned by the generator d_y1 and the differential dx1.
        assert fiber.wperp == (
            smat([[0, 1, 0, 0, 0, 0, 0, 0]])[0],
            smat([[0, 0, 0, 0, 1, 0, 0, 0]])[0],
        )
        # Adapted lifts: d_x2, d_y2, then dx2, dy2.
        assert fiber.lifts == (
            smat([[0, 0, 1, 0, 0, 0, 0, 0]])[0],
            smat([[0, 0, 0, 1, 0, 0, 0, 0]])[0],
            smat([[0, 0, 0, 0, 0, 0, 1, 0]])[0],
            smat([[0, 0, 0, 0, 0, 0, 0, 1]])[0],
        )
        half = Fraction(1, 2)
        assert fiber.gram_q == smat([
            [0, 0, half, 0],
            [0, 0, 0, half],
            [half, 0, 0, 0],
            [0, half, 0, 0],
        ])

    def test_point_off_level_rejected(self):
        origin_shifted = EvalPoint.at(R4, x1=2, y1=0, x2=0, y2=0)
        with pytest.raises(ValidationError, match="level set"):
            fiber_data(sphere_moment(), origin_shifted, SPHERE_LEVEL)

    def test_fixed_point_rejected(self):
        origin = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        with pytest.raises(ValidationError, match="dependent"):
            fiber_data(sphere_moment(), origin, (Fraction(0),))

    @pytest.mark.parametrize(
        "generators, functions, level, values, message",
        [
            # a level of the wrong length, at a point off the level set
            (
                [["-y1", "x1", "-y2", "x2"]], ["1/2*x1^2 + 1/2*y1^2"],
                ["1/2", "1/2"], (2, 0, 0, 0),
                "level length does not match the number of generators",
            ),
            # off the level set, at a fixed point of the action
            (
                [["-y1", "x1", "-y2", "x2"]], ["1/2*x1^2 + 1/2*y1^2"],
                ["1/2"], (0, 0, 0, 0),
                "point is not on the level set: f_1 = 0, expected 1/2",
            ),
            # a fixed point, where df vanishes too
            (
                [["-y1", "x1", "-y2", "x2"]], ["1/2*x1^2 + 1/2*y1^2"],
                ["0"], (0, 0, 0, 0),
                "action generators are dependent at the point",
            ),
            # df_1 = df_2 = dx1, which is also not zero on the first generator
            (
                [["1", "0", "0", "0"], ["0", "1", "0", "0"]], ["x1", "x1"],
                ["0", "0"], (0, 0, 0, 0),
                "moment map is rank-deficient at the point",
            ),
            # df_1 = dx1 vanishes on the first generator, not the second
            (
                [["0", "1", "0", "0"], ["1", "0", "0", "0"]], ["x1", "y1"],
                ["0", "0"], (0, 0, 0, 0),
                "generator 2 is not tangent to the level set "
                "(df_1 does not vanish on it)",
            ),
        ],
        ids=["level-length", "off-level", "dependent", "rank-deficient", "not-tangent"],
    )
    def test_preconditions_in_order(
        self, generators, functions, level, values, message
    ):
        """Each precondition has its message, and an input breaking two
        of them gets the earlier one's."""
        action = TorusAction(R4, tuple(vf(R4, g) for g in generators))
        moment = MomentData(
            action,
            tuple(DiffForm.zero(R4, 1) for _ in functions),
            tuple(fn(f, R4) for f in functions),
        )
        point = EvalPoint.at(R4, **dict(zip(R4.names, values)))
        with pytest.raises(ValidationError) as err:
            fiber_data(moment, point, tuple(Fraction(x) for x in level))
        assert str(err.value) == message


class TestDiracReduce:
    def test_symplectic_reduces_to_symplectic_model(self):
        fiber = fiber_data(sphere_moment(), P0, SPHERE_LEVEL)
        red = dirac_reduce(symplectic_structure(omega_r4()), fiber)
        assert red.jmat == J1_REDUCED
        assert matrix_type(red.jmat, red.fiber.point) == 0
        want = (
            (S(1), S(0), S(0), S(0, 1)),
            (S(0), S(1), S(0, -1), S(0)),
        )
        assert row_space_basis(red.l_rows) == row_space_basis(want)

    def test_complex_reduces_to_complex_model(self):
        fiber = fiber_data(sphere_moment(), P0, SPHERE_LEVEL)
        red = dirac_reduce(complex_r4(), fiber)
        assert red.jmat == J2_REDUCED
        assert matrix_type(red.jmat, red.fiber.point) == 1

    def test_linear_solve_oracle(self):
        """Rebuild the reduced matrix by solving J a = -b, J b = a on the
        real and imaginary parts of the eigenbundle basis, a different
        route than conjugating a diagonal matrix."""
        fiber = fiber_data(sphere_moment(), P0, SPHERE_LEVEL)
        for struct in (symplectic_structure(omega_r4()), complex_r4()):
            red = dirac_reduce(struct, fiber)
            cols_m, cols_n = [], []
            for u in red.l_rows:
                a = tuple(S(x.re) for x in u)
                b = tuple(S(x.im) for x in u)
                cols_m.extend([a, b])
                cols_n.extend([tuple(-x for x in b), a])
            mm = transpose(mat(cols_m))
            nn = transpose(mat(cols_n))
            assert mat_mul(nn, solve(mm, identity(len(mm)))) == red.jmat

    def test_two_step_factorization_agrees(self):
        fiber = fiber_data(sphere_moment(), P0, SPHERE_LEVEL)
        for struct in (symplectic_structure(omega_r4()), complex_r4()):
            red = dirac_reduce(struct, fiber)
            two = two_step_reduce(struct, fiber)
            phi = two.comparison
            assert mat_mul(phi, red.jmat) == mat_mul(two.jmat, phi)
            mapped = [mat_vec(phi, u) for u in red.l_rows]
            assert row_space_basis(mapped) == row_space_basis(two.l_rows)

    def test_other_sphere_points(self):
        moment = sphere_moment()
        j1 = symplectic_structure(omega_r4())
        j2 = complex_r4()
        for p in OTHER_POINTS:
            fiber = fiber_data(moment, p, SPHERE_LEVEL)
            red1 = dirac_reduce(j1, fiber)
            red2 = dirac_reduce(j2, fiber)
            assert matrix_type(red1.jmat, red1.fiber.point) == 0
            assert matrix_type(red2.jmat, red2.fiber.point) == 1


class TestGkReduce:
    def test_frozen_gk_reduction(self):
        fiber = fiber_data(sphere_moment(), P0, SPHERE_LEVEL)
        j1 = symplectic_structure(omega_r4())
        j2 = complex_r4()
        red1 = dirac_reduce(j1, fiber)
        gk = gk_reduce(red1, j1, j2)
        want_plus = (
            (S(1), S(0), S(1), S(0)),
            (S(0), S(1), S(0), S(1)),
        )
        assert row_space_basis(gk.c_plus_rows) == row_space_basis(want_plus)
        assert gk.g_mat == G_REDUCED
        assert gk.jmat2 == J2_REDUCED
        # Transporting the +1 eigenspace agrees with reducing the second
        # structure directly in the Kahler case.
        assert gk.jmat2 == dirac_reduce(j2, fiber).jmat

    def test_type_arithmetic(self):
        fiber = fiber_data(sphere_moment(), P0, SPHERE_LEVEL)
        j1 = symplectic_structure(omega_r4())
        j2 = complex_r4()
        red1 = dirac_reduce(j1, fiber)
        gk = gk_reduce(red1, j1, j2)
        predicted, detail = gk_type_prediction(j2, fiber)
        assert matrix_type(gk.jmat2, fiber.point) == 1
        assert predicted == 1
        assert "2*0" in detail

    def test_gk_at_other_points(self):
        moment = sphere_moment()
        j1 = symplectic_structure(omega_r4())
        j2 = complex_r4()
        for p in OTHER_POINTS:
            fiber = fiber_data(moment, p, SPHERE_LEVEL)
            red1 = dirac_reduce(j1, fiber)
            gk = gk_reduce(red1, j1, j2)
            predicted, _ = gk_type_prediction(j2, fiber)
            assert matrix_type(gk.jmat2, fiber.point) == predicted == 1


class TestTrivialAction:
    def trivial_moment(self):
        return MomentData(TorusAction(R4, ()), (), ())

    def test_quotient_is_identity(self):
        p = EvalPoint.at(R4, x1=3, y1=0, x2=Fraction(1, 3), y2=2)
        fiber = fiber_data(self.trivial_moment(), p, ())
        assert (fiber.k, fiber.m) == (0, 4)
        j1 = symplectic_structure(omega_r4())
        red = dirac_reduce(j1, fiber)
        assert red.jmat == rmat_eval(j1.matrix, p)
        assert matrix_type(red.jmat, red.fiber.point) == j1.at(p).type == 0

    def test_gk_reduces_to_evaluation(self):
        p = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        fiber = fiber_data(self.trivial_moment(), p, ())
        j1 = symplectic_structure(omega_r4())
        j2 = complex_r4()
        red1 = dirac_reduce(j1, fiber)
        gk = gk_reduce(red1, j1, j2)
        assert gk.jmat2 == rmat_eval(j2.matrix, p)
        predicted, _ = gk_type_prediction(j2, fiber)
        assert predicted == matrix_type(gk.jmat2, p) == 2


class TestZeroDimensionalQuotient:
    def cylinder_moment(self):
        action = TorusAction(
            CYL,
            (vf(CYL, ["1", "0", "0", "0"]), vf(CYL, ["0", "0", "1", "0"])),
        )
        return MomentData(
            action,
            (DiffForm.zero(CYL, 1), DiffForm.zero(CYL, 1)),
            (fn("-t1", CYL), fn("-t2", CYL)),
        )

    def test_everything_collapses(self):
        omega = d(CYL, "x1").wedge(d(CYL, "t1")) + d(CYL, "x2").wedge(d(CYL, "t2"))
        j = symplectic_structure(omega)
        p = EvalPoint.at(CYL, x1=0, t1=1, x2=0, t2=1)
        fiber = fiber_data(self.cylinder_moment(), p, (Fraction(-1), Fraction(-1)))
        assert fiber.m == 0
        red = dirac_reduce(j, fiber)
        assert red.jmat == ()
        assert matrix_type(red.jmat, red.fiber.point) == 0
        two = two_step_reduce(j, fiber)
        assert two.jmat == ()


class TestDescent:
    def tube_moment(self):
        action = TorusAction(TUBE, (vf(TUBE, ["1", "0", "0", "0"]),))
        return MomentData(action, (DiffForm.zero(TUBE, 1),), (fn("-t", TUBE),))

    def tube_fiber(self):
        p = EvalPoint.at(TUBE, x=0, t=1, u=2, v=0)
        return fiber_data(self.tube_moment(), p, (Fraction(-1),)), p

    def test_basic_two_form_descends(self):
        fiber, p = self.tube_fiber()
        b = d(TUBE, "u").wedge(d(TUBE, "v")).scale(fn("u", TUBE))
        big = rmat_eval(b_exponential(b), p)
        small = descend_endomorphism(big, fiber)
        # e^B on the quotient basis (d_u, d_v, du, dv) with B(p) = 2 du^dv.
        assert small == smat([
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, -2, 1, 0],
            [2, 0, 0, 1],
        ])

    def test_reduction_commutes_with_basic_transform(self):
        fiber, p = self.tube_fiber()
        omega = d(TUBE, "x").wedge(d(TUBE, "t")) + d(TUBE, "u").wedge(d(TUBE, "v"))
        j = symplectic_structure(omega)
        b = d(TUBE, "u").wedge(d(TUBE, "v")).scale(fn("u", TUBE))
        moved = b_transform_structure(b, j)
        red_plain = dirac_reduce(j, fiber)
        red_moved = dirac_reduce(moved, fiber)
        small = descend_endomorphism(rmat_eval(b_exponential(b), p), fiber)
        conjugated = mat_mul(small, mat_mul(red_plain.jmat, solve(small, identity(len(small)))))
        assert red_moved.jmat == conjugated


def level_tangent_fields(moment):
    """Vector fields spanning ker dF: the coordinate fields, as unit
    columns, cross-eliminated against each moment function."""
    chart = moment.action.chart
    units = rmat_identity(chart, 2 * chart.dim)[: chart.dim]
    sections = [section_from_column(chart, e) for e in units]
    dfs = [DiffForm.function(f).d() for f in moment.functions]
    return [s.vector for s in _cross_eliminate(sections, dfs)]


class TestLevelClosure:
    def test_sphere_frame_closes(self):
        # The identity the runner's level_closure:frame verdict states:
        # df([X, Y]) = X(df Y) - Y(df X) = 0 for fields tangent to the sphere.
        vectors = level_tangent_fields(sphere_moment())
        df = DiffForm.function(sphere_moment().functions[0]).d()
        for i, x in enumerate(vectors):
            for y in vectors[i + 1 :]:
                assert df.apply([lie_bracket(x, y)]).is_zero

    def test_adapted_eigen_frame_closes(self):
        j = symplectic_structure(omega_r4())
        (ok, detail), _ = check_adapted_closure(j, sphere_moment())
        assert ok, detail

    def test_cross_elimination_spans_the_distribution(self):
        vectors = level_tangent_fields(sphere_moment())
        df = DiffForm.function(sphere_moment().functions[0]).d()
        for x in vectors:
            assert df.apply([x]).is_zero
        # dF has rank 1 at P0, so ker dF has rank 3 there.
        assert rank(rmat_eval(tuple(x.components for x in vectors), P0)) == 3

    def test_level_substitution_on_cylinder(self):
        action = TorusAction(
            CYL,
            (vf(CYL, ["1", "0", "0", "0"]), vf(CYL, ["0", "0", "1", "0"])),
        )
        moment = MomentData(
            action,
            (DiffForm.zero(CYL, 1), DiffForm.zero(CYL, 1)),
            (fn("-t1", CYL), fn("-t2", CYL)),
        )
        sub = level_substitution(moment, (Fraction(-1), Fraction(-2)))
        assert sub is not None
        assert sub.source.names == ("x1", "x2")
        assert sub.pull_function(fn("t1", CYL)) == fn("1", sub.source)
        assert sub.pull_function(fn("t2", CYL)) == fn("2", sub.source)
        omega = d(CYL, "x1").wedge(d(CYL, "t1")) + d(CYL, "x2").wedge(d(CYL, "t2"))
        struct = symplectic_structure(omega)
        _, (ok, detail) = check_adapted_closure(struct, moment, sub)
        assert ok, detail
        assert "slice" in detail

    def test_no_substitution_for_quadratic_moment(self):
        assert level_substitution(sphere_moment(), SPHERE_LEVEL) is None


# --- the quotient at every reducible catalog point ------------------------------


@cache
def catalog_workspaces():
    """(scenario, Workspace) for every catalog scenario with moment data."""
    return tuple(
        (name, Workspace(scen))
        for name in catalog_names()
        if (scen := load_builtin(name)).moment is not None
    )


@cache
def catalog_fibers():
    """(scenario/point, FiberData) at every catalog point where the
    reduction data is valid."""
    out = []
    for name, ws in catalog_workspaces():
        for point in sorted(ws.scen.points):
            try:
                out.append((f"{name}/{point}", ws.fiber(point)))
            except ValidationError:
                continue
    return tuple(out)


@cache
def catalog_reductions():
    """(scenario/structure/point, ReducedFiber) for every catalog
    structure that reduces at a catalog point."""
    out = []
    for name, ws in catalog_workspaces():
        for sname in sorted(ws.scen.structures):
            for point in sorted(ws.scen.points):
                try:
                    out.append((f"{name}/{sname}/{point}", ws.reduced(sname, point)))
                except ValidationError:
                    continue
    return tuple(out)


@cache
def catalog_gk_reductions():
    """(scenario/point, moment structure's ReducedFiber, GkReducedFiber)
    at every catalog point of a generalized Kahler pair."""
    out = []
    for name, ws in catalog_workspaces():
        if ws.partner() is None:
            continue
        for point in sorted(ws.scen.points):
            red1 = ws.reduced(ws.scen.moment_structure, point)
            out.append((f"{name}/{point}", red1, ws.gk_reduced(point)))
    return tuple(out)


def test_catalog_has_reducible_points_of_every_shape():
    shapes = {(f.n, f.k, f.m) for _, f in catalog_fibers()}
    assert len(catalog_fibers()) == 15
    assert {(4, 1, 2), (4, 2, 0), (4, 0, 4), (6, 2, 2)} <= shapes


def test_quotient_has_dimension_2_n_minus_2k():
    """fiber_data does not count its lifts: tangency makes each of its
    two basis extensions add n - 2k."""
    for label, fiber in catalog_fibers():
        assert len(fiber.lifts) == 2 * (fiber.n - 2 * fiber.k), label


def test_quotient_pairing_has_zero_diagonal_blocks():
    """Tangent lifts first, covector lifts second, each kind isotropic:
    gram_q = [[0, X], [X^T, 0]], and it is nondegenerate, which
    fiber_data leaves to the algebra: W-perp is the pairing-orthogonal
    of W and the lifts complement it in W."""
    for label, fiber in catalog_fibers():
        m, g = fiber.m, fiber.gram_q
        assert len(g) == 2 * m, label
        for i in range(2 * m):
            for j in range(2 * m):
                if (i < m) == (j < m):
                    assert g[i][j].is_zero, (label, i, j)
        assert rank(g) == 2 * m, label


def _w_rows(fiber):
    """W = ker(df) (+) ann(A), built from the moment covectors and the
    orbit directions alone, so that it does not depend on the lifts."""
    n = fiber.n
    if not fiber.k:
        return identity(2 * n)
    ker_df = nullspace(mat([row[n:] for row in fiber.d_rows]))
    ann_a = nullspace(mat([row[:n] for row in fiber.a_rows]))
    zero = (ZERO,) * n
    return tuple(v + zero for v in ker_df) + tuple(zero + c for c in ann_a)


def test_lifts_and_wperp_span_w():
    """W-perp sits inside W, and the lifts and W-perp are a basis of it:
    what the change of basis of every quotient assumes."""
    for label, fiber in catalog_fibers():
        w = _w_rows(fiber)
        assert rank(mat(w + fiber.wperp)) == len(w), label
        basis = fiber.lifts + fiber.wperp
        assert len(basis) == len(w), label
        assert row_space_basis(basis) == row_space_basis(w), label


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_SCALARS = st.builds(Scalar, _SMALL, _SMALL)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_coords_round_trip(data):
    """coords(sum x_i lift_i + sum y_j wperp_j) = x, and adding a vector
    outside W makes coords raise."""
    label, fiber = data.draw(st.sampled_from(catalog_fibers()))
    basis = fiber.lifts + fiber.wperp
    x = tuple(data.draw(_SCALARS) for _ in fiber.lifts)
    y = tuple(data.draw(_SCALARS) for _ in fiber.wperp)
    v = mat_vec(transpose(mat(basis)), x + y)
    assert fiber.coords(v) == x, label
    w = _w_rows(fiber)
    outside = next(
        (e for e in identity(2 * fiber.n) if rank(mat(w + (e,))) > len(w)),
        None,
    )
    if outside is None:  # W is the whole fiber: the action is trivial
        assert fiber.k == 0, label
        return
    c = data.draw(_SCALARS.filter(lambda c: not c.is_zero))
    off = tuple(a + c * b for a, b in zip(v, outside))
    with pytest.raises(ValidationError, match="does not lie in the reducible subspace"):
        fiber.coords(off)


def test_coords_refuses_a_dependent_basis():
    """The change of basis needs lifts and W-perp independent; a lift
    repeated in W-perp is refused, not read as coordinates."""
    fiber = next(f for _, f in catalog_fibers() if f.k and f.m)
    bad = FiberData(
        fiber.point, fiber.n, fiber.lifts,
        fiber.a_rows + fiber.lifts[:1], fiber.d_rows, fiber.gram_q,
    )
    with pytest.raises(ValidationError, match="dependent"):
        bad.coords(fiber.lifts[0])


def _meet(rows, w_rows):
    """span(rows) and span(w_rows) meet in the combinations sum s_i rows_i
    with (s, t) in the nullspace of [rows^T | -w_rows^T]."""
    rows_t = transpose(mat(rows))
    system = tuple(
        r + tuple(-x for x in w) for r, w in zip(rows_t, transpose(mat(w_rows)))
    )
    return [mat_vec(rows_t, sol[: len(rows)]) for sol in nullspace(system)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_push_down_matches_the_meet_with_w(data):
    """_push_down reads the meet with W from the change of basis; an
    explicit meet of the spans, pushed through coords, gives the same
    dimension and the same canonical quotient basis."""
    label, fiber = data.draw(st.sampled_from(catalog_fibers()))
    dim = 2 * fiber.n
    w = _w_rows(fiber)
    rows = []
    for _ in range(data.draw(st.integers(1, min(4, dim)))):
        if data.draw(st.booleans()):  # a vector of W
            coeffs = [data.draw(_SCALARS) for _ in w]
            rows.append(mat_vec(transpose(mat(w)), coeffs))
        else:
            rows.append(tuple(data.draw(_SCALARS) for _ in range(dim)))
    assume(rank(mat(rows)) == len(rows))
    meet = _meet(rows, w)
    want = (len(meet), row_space_basis([fiber.coords(v) for v in meet]))
    assert _push_down(rows, fiber) == want, label


@st.composite
def quotients(draw):
    """A FiberData of independent random lifts and W-perp rows in a fiber
    of dimension 2n, n <= 3; _push_down reads nothing else of it."""
    n = draw(st.integers(1, 3))
    rows = [
        tuple(draw(_SCALARS) for _ in range(2 * n))
        for _ in range(draw(st.integers(1, 2 * n)))
    ]
    assume(rank(mat(rows)) == len(rows))
    cut = draw(st.integers(0, len(rows)))
    return FiberData(None, n, tuple(rows[:cut]), tuple(rows[cut:]), (), ())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_push_down_basis_is_canonical(data):
    """two_step_disagreement compares a push-down as built: the basis
    _push_down returns is its own canonical basis, for any rows, in W or
    not, against any quotient."""
    quot = data.draw(quotients())
    dim, basis = 2 * quot.n, quot.lifts + quot.wperp
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):  # a vector of W
            coeffs = [data.draw(_SCALARS) for _ in basis]
            rows.append(mat_vec(transpose(mat(basis)), coeffs))
        else:
            rows.append(tuple(data.draw(_SCALARS) for _ in range(dim)))
    _, heads = _push_down(rows, quot)
    assert heads == row_space_basis(heads)


def test_push_downs_of_the_catalog_are_canonical():
    """At every catalog point, the one-step push-down of each structure's
    eigenbundle and the second stage of its two-step reduction are
    canonical bases."""
    checked = 0
    for name, ws in catalog_workspaces():
        for sname in sorted(ws.scen.structures):
            for point in sorted(ws.scen.points):
                try:
                    red = ws.reduced(sname, point)
                except ValidationError:
                    continue
                struct, _ = ws.reduction_entry(sname, ws.primary_connection())
                two = two_step_reduce(struct, red.fiber)
                label = (name, sname, point)
                assert red.l_rows == row_space_basis(red.l_rows), label
                assert two.l_rows == row_space_basis(two.l_rows), label
                checked += 1
    assert checked == len(catalog_reductions())


# --- facts the reduction's construction guarantees -------------------------------


def test_reduced_structures_are_generalized_complex():
    """dirac_reduce builds J = U diag(i, -i) U^-1 from the pushed-down
    eigenbundle and checks only its isotropy; J is then real, squares to
    -Id and preserves the quotient pairing."""
    reds = [(label, red) for label, red in catalog_reductions() if red.fiber.m]
    assert len(reds) == 26
    for label, red in reds:
        j, g = red.jmat, red.fiber.gram_q
        assert all(x.is_real for row in j for x in row), label
        assert mat_mul(j, j) == mat_neg(identity(2 * red.fiber.m)), label
        assert mat_mul(transpose(j), mat_mul(g, j)) == g, label


def test_reduced_pairs_are_generalized_kahler():
    """gk_reduce checks only J2^2 = -Id and the realness of C+; the two
    reduced structures then commute, their product operator is g_mat,
    and gram_q . g_mat is symmetric and positive definite."""
    gks = catalog_gk_reductions()
    assert len(gks) == 13
    for label, red1, gk in gks:
        j1, j2, g = red1.jmat, gk.jmat2, gk.g_mat
        assert mat_mul(j1, j2) == mat_mul(j2, j1), label
        assert mat_neg(mat_mul(j1, j2)) == g, label
        metric = mat_mul(red1.fiber.gram_q, g)
        assert metric == transpose(metric), label
        assert is_positive_definite(metric)[0], label


def test_reduced_upper_right_blocks_have_even_rank():
    """matrix_type's parity check never fails on a quotient: gram_q J is
    skew and gram_q = [[0, X], [X^T, 0]], so X^T times the upper-right
    block B is skew and B has even rank, and m is even."""
    found = [(label, red.jmat, red.fiber) for label, red in catalog_reductions()]
    found += [(label, gk.jmat2, red1.fiber) for label, red1, gk in catalog_gk_reductions()]
    found = [(label, j, fiber) for label, j, fiber in found if fiber.m]
    assert len(found) == 26 + 13
    for label, j, fiber in found:
        m = fiber.m
        block = tuple(row[m:] for row in j[:m])
        x_t = transpose(tuple(row[m:] for row in fiber.gram_q[:m]))
        skew = mat_mul(x_t, block)
        assert skew == mat_neg(transpose(skew)), label
        assert m % 2 == 0 and rank(block) % 2 == 0, label


# --- a witness for each failure branch of dirac_reduce and gk_reduce -------------

# The fiber of kahler_c2_circle at pole_x1 = (1, 0, 0, 0): W-perp is spanned
# by d_y1 and dx1, W also holds d_x2, d_y2, dx2 and dy2, and W misses d_x1
# and dy1.
_SLOTS = ("x1", "y1", "x2", "y2", "dx1", "dy1", "dx2", "dy2")


def fvec(**parts):
    """A fiber vector: d_x1 ... d_y2, then dx1 ... dy2; a part given as
    (re, im) is complex."""
    return tuple(
        S(*parts[k]) if isinstance(parts.get(k), tuple) else S(parts.get(k, 0))
        for k in _SLOTS
    )


def constant_structure(matrix):
    return GenStructure(
        R4,
        tuple(tuple(RingElement.constant(R4, x) for x in row) for row in matrix),
        DiffForm.zero(R4, 3),
    )


def pole_workspace():
    return dict(catalog_workspaces())["kahler_c2_circle"]


@pytest.mark.parametrize(
    "rows, message",
    [
        (
            # d_y1 + i(dx1 + d_x2) adds the class i d_x2 to the other two
            [fvec(x2=1, dx2=(0, 1)), fvec(y2=1, dy2=(0, 1)),
             fvec(y1=1, dx1=(0, 1), x2=(0, 1)), fvec(x1=1, dy1=(0, 1))],
            "reduced eigenbundle has dimension 3, expected 2",
        ),
        (
            # the image is spanned by the real classes d_x2 and d_y2
            [fvec(x2=1, y1=(0, 1)), fvec(y2=1, dx1=(0, 1)),
             fvec(x1=1, dx2=(0, 1)), fvec(dy1=1, dy2=(0, 1))],
            "reduced eigenbundle meets its conjugate; no real structure exists",
        ),
        (
            # <d_x2 + i dx2, d_x2 + i dx2> = i
            [fvec(x2=1, dx2=(0, 1)), fvec(y2=1, dy2=(0, 1)),
             fvec(x1=1, y1=(0, 1)), fvec(dy1=1, dx1=(0, 1))],
            "reduced eigenbundle is not isotropic",
        ),
    ],
    ids=["dimension", "conjugate", "isotropic"],
)
def test_dirac_reduce_failure_witnesses(rows, message):
    """Each structure is real with J^2 = -Id and +i eigenbundle span(rows),
    but does not preserve the pairing, so its eigenbundle pushes down to
    something that is not a reduced structure."""
    struct = constant_structure(_eigen_matrix(rows, mat_conj(rows), IMAG))
    assert struct.squares_to_minus_one and not struct.algebraic[0]
    fiber = pole_workspace().fiber("pole_x1")
    with pytest.raises(ValidationError) as err:
        dirac_reduce(struct, fiber)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "plus, message",
    [
        (
            None,  # the pair (j1, j1): G = Id
            "the +1 eigenspace of the product operator has dimension 8, expected 4",
        ),
        (
            [fvec(x2=1), fvec(y2=1), fvec(dx2=1), fvec(x1=1)],
            "the +1 eigenspace meets the reducible subspace in dimension 3, "
            "expected 2",
        ),
        (
            [fvec(y1=1), fvec(x2=1), fvec(x1=1), fvec(dy1=1)],
            "reduced +1 eigenspace has the wrong dimension",
        ),
        (
            [fvec(x2=1), fvec(y2=1), fvec(x1=1), fvec(dy1=1)],
            "induced pairing on the reduced +1 eigenspace is not positive "
            "definite (leading minors ['0'])",
        ),
        (
            # positive definite, but J1 moves d_x2 + dx2 out of C+
            [fvec(x2=1, dx2=1), fvec(y2=1, dy2=2), fvec(x1=1), fvec(dy1=1)],
            "reduced second structure does not square to -Id",
        ),
    ],
    ids=["plus-dimension", "meet", "reduced-dimension", "positivity", "square"],
)
def test_gk_reduce_failure_witnesses(plus, message):
    """The partner J2 = J1 G, for G = Id on span(plus) and -Id on unit
    vectors completing it, has product operator -J1 J2 = G."""
    ws = pole_workspace()
    j1, _ = ws.reduction_entry("j1", None)
    red1 = ws.reduced("j1", "pole_x1")
    if plus is None:
        j2 = j1
    else:
        units = identity(8)
        minus = [units[i] for i in extend_basis(plus, units)]
        g_big = _eigen_matrix(plus, minus, ONE)
        j2 = constant_structure(mat_mul(rmat_eval(j1.matrix, red1.fiber.point), g_big))
    with pytest.raises(ValidationError) as err:
        gk_reduce(red1, j1, j2)
    assert str(err.value) == message


def test_two_step_disagreement_names_the_failing_comparison():
    """The two-step oracle agrees at pole_x1.  The opposite two-step
    structure breaks the intertwining.  The conjugate two-step eigenbundle
    keeps both structures, so only the second comparison fails."""
    ws = pole_workspace()
    struct, _ = ws.reduction_entry("j1", None)
    red = ws.reduced("j1", "pole_x1")
    two = two_step_reduce(struct, red.fiber)
    assert two_step_disagreement(red, two) is None
    flipped = TwoStepResult(mat_neg(two.jmat), two.l_rows, two.comparison)
    assert two_step_disagreement(red, flipped) == (
        "two-step factorization disagrees: the comparison map does not "
        "intertwine the reduced structures"
    )
    conjugate = TwoStepResult(two.jmat, mat_conj(two.l_rows), two.comparison)
    assert two_step_disagreement(red, conjugate) == (
        "two-step factorization disagrees: the comparison map does not "
        "carry the reduced eigenbundle onto the two-step one"
    )


def test_eigenbundle_rows_needs_half_rank():
    """J = 0 is no structure: the columns of Id - iJ = Id have rank 2n
    at every point."""
    zero = tuple((Scalar.of(0),) * 8 for _ in range(8))
    fiber = pole_workspace().fiber("pole_x1")
    with pytest.raises(ValidationError) as err:
        dirac_reduce(constant_structure(zero), fiber)
    assert str(err.value) == "eigenbundle rank is not 4 at (x1=1, y1=0, x2=0, y2=0)"


def test_potential_transform_needs_a_basic_twist():
    """A closed twist dt1^dx2^dt2 that contracts with the second generator
    stays unbasic after the potential transform, and the reduction check
    says so."""
    raw = copy.deepcopy(builtin_raw("gamma_torus_cylinder"))
    raw["twist"] = [{"coeff": "1", "frame": ["t1", "x2", "t2"]}]
    ws = Workspace(load_scenario(raw))
    with pytest.raises(ValidationError) as err:
        ws.reduction_entry("j", "theta")
    assert str(err.value) == (
        "twist is not basic after the potential transform: "
        "its contraction with generator 2 is (-1)*dt1^dt2"
    )


def zero_one_form_control(twist, b_field=None):
    """S^1_x x R^3 with coordinates (t, a, b), omega = dx^dt + da^db, the
    action d/dx and the moment -t at level -1: the moment one-forms are
    zero, so the reduction entry applies no potential."""
    raw = {
        "name": "zero_one_form_control",
        "chart": [["x", "periodic"], ["t", "affine"], ["a", "affine"], ["b", "affine"]],
        "structures": {
            "j": {
                "kind": "symplectic",
                "two_form": [{"frame": ["x", "t"]}, {"frame": ["a", "b"]}],
            }
        },
        "action": [["1", "0", "0", "0"]],
        "moment": {"structure": "j", "functions": ["-t"]},
        "level": ["-1"],
        "points": [
            {"name": "origin", "values": {"x": 0, "t": "1", "a": "0", "b": "0"}},
            {"name": "generic", "values": {"x": 1, "t": "1", "a": "2", "b": "-3"}},
        ],
        "checks": ["reduction"],
    }
    if twist is not None:
        raw["twist"] = [{"frame": twist}]
    if b_field is not None:
        raw["b_field"] = b_field
    return load_scenario(raw)


@pytest.mark.parametrize(
    "twist, statuses, detail",
    [
        (
            ["x", "a", "b"],
            ["fail"],
            "twist is not basic: its contraction with generator 1 is da^db",
        ),
        (["t", "a", "b"], ["pass", "pass"], None),
        (None, ["pass", "pass"], None),
    ],
    ids=["contracts-with-the-generator", "basic", "none"],
)
def test_zero_one_forms_still_need_a_basic_twist(monkeypatch, twist, statuses, detail):
    """With zero moment one-forms no potential is applied, and the twist
    must still be basic before anything is reduced.  A zero twist is basic
    with no judgment."""
    calls = []

    def counted_is_basic(form, action):
        calls.append(form)
        return is_basic(form, action)

    is_basic = runner.is_basic
    monkeypatch.setattr(runner, "is_basic", counted_is_basic)
    verdicts, _ = run_scenario(zero_one_form_control(twist))
    assert [v.status for v in verdicts] == statuses
    if detail is not None:
        assert verdicts[0].detail == detail
    assert len(calls) == (twist is not None)


@pytest.mark.parametrize("b_field", [None, [{"coeff": "t", "frame": ["a", "b"]}]])
def test_the_entry_without_a_potential_is_the_work_structure(b_field):
    """work(name) and reduction_entry(name, None) share one memo entry,
    with or without a B-field: the entry is the same object."""
    ws = Workspace(zero_one_form_control(["t", "a", "b"], b_field))
    entry, gamma = ws.reduction_entry("j", None)
    assert gamma is None
    assert entry is ws.work("j") is ws.work("j", None)
