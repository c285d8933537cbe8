"""Tests for sections, the twisted Courant bracket, B-transforms and
generalized structure checks.

The twist bookkeeping of a B-transform is pinned down sharply here: with
the bracket and transform conventions of this package, conjugating an
H-twisted structure by e^B produces an (H - dB)-twisted structure, and
the tests verify both the section-level identity and the fact that the
other candidate signs fail.
"""

import copy
import random
import re
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations

import pytest
from hypothesis import Phase, given, settings, strategies as st

from gkbench import selftest, structures
from gkbench.calculus import DiffForm, VectorField
from gkbench.errors import ValidationError
from gkbench.catalog import builtin_raw, catalog_names, load_builtin
from gkbench.linalg import (
    extend_basis,
    identity,
    mat,
    mat_mul,
    mat_vec,
    rank,
    rmat_eval,
    rmat_identity,
    rmat_mul,
    rmat_scale,
    row_space_basis,
    solve,
    transpose,
)
from gkbench.ring import EvalPoint, RingElement, Scalar, make_chart, parse_expr
from gkbench.runner import run_scenario
from gkbench.scenario import load_scenario
from gkbench.structures import (
    Basis,
    GenSection,
    GenStructure,
    b_exponential,
    b_transform_section,
    b_transform_structure,
    check_gk_pair,
    check_integrable,
    courant_bracket,
    pairing,
    pairing_matrix,
    section_from_column,
)

from plain_structures import complex_structure, pairing_failure, symplectic_structure

R2 = make_chart(("x", "affine"), ("y", "affine"))
R3 = make_chart(("x", "affine"), ("y", "affine"), ("z", "affine"))
T3 = make_chart(("p", "periodic"), ("q", "periodic"), ("r", "periodic"))
R4 = make_chart(("x1", "affine"), ("y1", "affine"), ("x2", "affine"), ("y2", "affine"))


def fn(text, chart):
    return parse_expr(text, chart)


def d(chart, name):
    return DiffForm.d_coord(chart, name)


def coord_vf(chart, name):
    units = (fn("1" if n == name else "0", chart) for n in chart.names)
    return VectorField(chart, tuple(units))


def sec(chart, vector=None, form=None):
    if vector is None:
        vector = VectorField(chart, tuple(RingElement.zero(chart) for _ in chart.names))
    return GenSection(vector, DiffForm.zero(chart, 1) if form is None else form)


def unit_sections(chart):
    """The 2n coordinate sections d_x1 ... d_xn, dx1 ... dxn: unit columns."""
    eye = rmat_identity(chart, 2 * chart.dim)
    return tuple(section_from_column(chart, e) for e in eye)


def omega_r4():
    return d(R4, "x1").wedge(d(R4, "y1")) + d(R4, "x2").wedge(d(R4, "y2"))


def jmat_r2():
    # J d_x = d_y, J d_y = -d_x
    z = RingElement.zero(R2)
    one = RingElement.one(R2)
    return ((z, -one), (one, z))


class TestPairing:
    def test_split_pairing(self):
        u = sec(R2, vector=coord_vf(R2, "x"))
        v = sec(R2, form=d(R2, "x"))
        assert pairing(u, v) == fn("1/2", R2)
        assert pairing(u, u).is_zero
        assert pairing(v, v).is_zero

    def test_matches_gram_matrix(self):
        frame = unit_sections(R2)
        gram = pairing_matrix(2)
        for i, u in enumerate(frame):
            for j, v in enumerate(frame):
                assert pairing(u, v) == RingElement.constant(R2, gram[i][j])


class TestBracket:
    def test_vector_fields_reduce_to_lie_bracket(self):
        u = sec(R2, vector=coord_vf(R2, "x").scale(fn("y", R2)))
        v = sec(R2, vector=coord_vf(R2, "y"))
        w = courant_bracket(u, v, DiffForm.zero(R2, 3))
        assert w.form.is_zero
        assert w.vector == -coord_vf(R2, "x")

    def test_exact_one_form_bracket(self):
        # [d_x, x dx] = d(i_{d_x} x dx)/2 ... with these conventions: 1/2 dx
        u = sec(R2, vector=coord_vf(R2, "x"))
        v = sec(R2, form=d(R2, "x").scale(fn("x", R2)))
        w = courant_bracket(u, v, DiffForm.zero(R2, 3))
        assert w.vector.is_zero
        assert w.form == d(R2, "x").scale(Scalar.of(Fraction(1, 2)))

    def test_twist_term_contracts_first_slot_first(self):
        # On T^3 with H = dp^dq^dr: [d_p, d_q]_H = i_{d_q} i_{d_p} H = dr.
        h = reduce(DiffForm.wedge, [d(T3, "p"), d(T3, "q"), d(T3, "r")])
        u = sec(T3, vector=coord_vf(T3, "p"))
        v = sec(T3, vector=coord_vf(T3, "q"))
        w = courant_bracket(u, v, h)
        assert w.vector.is_zero
        assert w.form == d(T3, "r")

    def test_antisymmetry(self):
        h = reduce(DiffForm.wedge, [d(R3, "x"), d(R3, "y"), d(R3, "z")]).scale(fn("x", R3))
        # the twisted bracket as implemented is antisymmetric in its arguments
        u = sec(R3, vector=coord_vf(R3, "x").scale(fn("y", R3)), form=d(R3, "z"))
        v = sec(R3, vector=coord_vf(R3, "z"), form=d(R3, "x").scale(fn("x*y", R3)))
        lhs = courant_bracket(u, v, h)
        rhs = courant_bracket(v, u, h)
        assert (lhs + rhs).is_zero


class TestBTransform:
    def test_section_transform(self):
        b = d(R3, "y").wedge(d(R3, "z")).scale(fn("x", R3))
        u = sec(R3, vector=coord_vf(R3, "y"))
        out = b_transform_section(b, u)
        assert out.vector == u.vector
        assert out.form == d(R3, "z").scale(fn("x", R3))

    def test_exponential_matrix_agrees_with_sections(self):
        b = d(R3, "x").wedge(d(R3, "y")).scale(fn("z", R3)) + d(R3, "y").wedge(
            d(R3, "z")
        ).scale(fn("x^2", R3))
        big = b_exponential(b)
        for u in unit_sections(R3):
            via_matrix = [
                sum(
                    (entry * comp for entry, comp in zip(row, u.column())),
                    RingElement.zero(R3),
                )
                for row in big
            ]
            expected = b_transform_section(b, u).column()
            assert tuple(via_matrix) == tuple(expected)

    def test_bracket_identity_with_shifted_twist(self):
        """[e^B u, e^B v]_{H - dB} = e^B [u, v]_H for every frame pair."""
        h = reduce(DiffForm.wedge, [d(R3, "x"), d(R3, "y"), d(R3, "z")]).scale(Scalar.of(2))
        b = d(R3, "y").wedge(d(R3, "z")).scale(fn("x", R3))
        shifted = h - b.d()
        frame = unit_sections(R3)
        for i, u in enumerate(frame):
            for v in frame[i + 1 :]:
                lhs = courant_bracket(
                    b_transform_section(b, u), b_transform_section(b, v), shifted
                )
                rhs = b_transform_section(b, courant_bracket(u, v, h))
                assert (lhs - rhs).is_zero

    def test_bracket_identity_fails_with_plus_db(self):
        """The opposite twist shift H + dB breaks the identity, so the
        sign is meaningful and pinned."""
        b = d(R3, "y").wedge(d(R3, "z")).scale(fn("x", R3))
        h = DiffForm.zero(R3, 3)
        wrong = h + b.d()
        u = sec(R3, vector=coord_vf(R3, "y"))
        v = sec(R3, vector=coord_vf(R3, "z"))
        lhs = courant_bracket(
            b_transform_section(b, u), b_transform_section(b, v), wrong
        )
        rhs = b_transform_section(b, courant_bracket(u, v, h))
        assert not (lhs - rhs).is_zero


class TestSymplectic:
    def test_algebraic(self):
        struct = symplectic_structure(omega_r4())
        ok, detail = struct.algebraic
        assert ok, detail

    def test_opposite_sign_convention_is_also_algebraic(self):
        # The mirror convention [[0, -W^{-1}], [W, 0]] passes the algebraic
        # check as well; only eigenvalue bookkeeping distinguishes them.
        struct = symplectic_structure(omega_r4())
        mirrored = GenStructure(
            R4,
            tuple(tuple(-e for e in row) for row in struct.matrix),
            struct.twist,
        )
        ok, detail = mirrored.algebraic
        assert ok, detail

    def test_integrable_and_type_zero(self):
        struct = symplectic_structure(omega_r4())
        origin = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        ok, detail = check_integrable(struct, {"origin": origin})
        assert ok, detail
        assert struct.at(origin).type == 0

    def test_eigenbundle_is_graph_of_i_omega(self):
        # The +i eigenbundle contains X + i i_X omega for coordinate fields.
        struct = symplectic_structure(omega_r4())
        i = Scalar.of(0, 1)
        x = sec(R4, vector=coord_vf(R4, "x1"))
        expected = GenSection(x.vector, d(R4, "y1").scale(i))
        # (J - i) d_x1 = -dy1 - i d_x1, as J(d_x1) = -i_{d_x1} omega = -dy1
        image = section_from_column(R4, struct.residual(x.column()))
        assert image == GenSection(x.vector.scale(-i), -d(R4, "y1"))
        # (J - i) annihilates the section of the graph
        assert all(r.is_zero for r in struct.residual(expected.column()))

    def test_degenerate_form_rejected(self):
        degenerate = d(R4, "x1").wedge(d(R4, "y1"))
        with pytest.raises(ValidationError, match="not invertible"):
            symplectic_structure(degenerate)


class TestComplex:
    def test_r2_complex_structure(self):
        struct = complex_structure(jmat_r2(), R2)
        ok, detail = struct.algebraic
        assert ok, detail
        origin = EvalPoint.at(R2, x=0, y=0)
        ok, detail = check_integrable(struct, {"origin": origin})
        assert ok, detail
        assert struct.at(origin).type == 1

    def test_non_square_root_rejected(self):
        z = RingElement.zero(R2)
        one = RingElement.one(R2)
        with pytest.raises(ValidationError, match="square"):
            complex_structure(((one, z), (z, one)), R2)

    def test_non_square_root_is_not_idempotent(self):
        """P^2 - P = -(J^2 + Id)/4, so integrability reads its idempotence
        verdict from J^2 = -Id, one value per matrix."""
        z = RingElement.zero(R2)
        one = RingElement.one(R2)
        matrix = tuple(tuple(one if i == j else z for j in range(4)) for i in range(4))
        struct = GenStructure(R2, matrix, DiffForm.zero(R2, 3))
        assert check_integrable(struct) == (
            False, "eigenprojector is not idempotent: entry (0, 0) of J^2 + Id is 2"
        )
        assert not struct.algebraic[0]
        assert "squares_to_minus_one" in vars(struct.with_twist(struct.twist))
        good = complex_structure(jmat_r2(), R2)
        for candidate in (struct, good):
            p = _old_projector(candidate)
            assert (mat_mul(p, p) == p) is candidate.squares_to_minus_one


class TestTwistSign:
    """The heart of the sign bookkeeping: transforming the standard
    symplectic structure by a non-closed B must produce a structure that
    is integrable against H - dB and against nothing else nearby."""

    POINTS = {
        "origin": EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0),
        "off": EvalPoint.at(R4, x1=1, y1=0, x2=0, y2=Fraction(1, 2)),
    }

    def b_field(self):
        return d(R4, "x2").wedge(d(R4, "y2")).scale(fn("x1", R4))

    def test_transform_carries_twist_minus_db(self):
        struct = symplectic_structure(omega_r4())
        b = self.b_field()
        moved = b_transform_structure(b, struct)
        assert moved.twist == -b.d()
        ok, detail = moved.algebraic
        assert ok, detail
        ok, detail = check_integrable(moved, self.POINTS)
        assert ok, detail

    def test_wrong_twists_fail_integrability(self):
        struct = symplectic_structure(omega_r4())
        b = self.b_field()
        moved = b_transform_structure(b, struct)
        for wrong in (DiffForm.zero(R4, 3), b.d()):
            candidate = GenStructure(R4, moved.matrix, wrong)
            ok, _ = check_integrable(candidate, self.POINTS)
            assert not ok

    def test_transform_by_minus_b_raises_twist(self):
        struct = symplectic_structure(omega_r4())
        b = self.b_field()
        moved = b_transform_structure(-b, struct)
        assert moved.twist == b.d()
        ok, detail = check_integrable(moved, self.POINTS)
        assert ok, detail

    def test_transforms_compose(self):
        struct = symplectic_structure(omega_r4())
        b = self.b_field()
        there_and_back = b_transform_structure(-b, b_transform_structure(b, struct))
        assert there_and_back.matrix == struct.matrix
        assert there_and_back.twist == struct.twist


class TestGkPair:
    def kahler_pair(self):
        j_omega = symplectic_structure(omega_r4())
        z = RingElement.zero(R4)
        one = RingElement.one(R4)
        jmat = (
            (z, -one, z, z),
            (one, z, z, z),
            (z, z, z, -one),
            (z, z, one, z),
        )
        j_complex = complex_structure(jmat, R4)
        return j_omega, j_complex

    def test_kahler_pair_passes(self):
        j1, j2 = self.kahler_pair()
        origin = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        ok, detail = check_gk_pair(j1, j2, [origin])
        assert ok, detail

    def test_verdict_claims_only_what_was_checked(self):
        j1, j2 = self.kahler_pair()
        points = [
            EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0),
            EvalPoint.at(R4, x1=1, y1=2, x2=0, y2=1),
        ]
        ok, detail = check_gk_pair(j1, j2, points[:1])
        assert ok and detail.endswith("chart-wide (the metric is constant)")
        b = d(R4, "x1").wedge(d(R4, "x2")).scale(fn("y1", R4))
        moved = (b_transform_structure(b, j1), b_transform_structure(b, j2))
        ok, detail = check_gk_pair(*moved, points)
        assert ok and detail.endswith("metric, at 2 points")
        ok, detail = check_gk_pair(*moved, points[:1])
        assert ok and detail.endswith("metric, at 1 point")

    def test_pair_with_itself_fails_positivity(self):
        j1, _ = self.kahler_pair()
        origin = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        ok, detail = check_gk_pair(j1, j1, [origin])
        assert not ok
        assert "non-positive" in detail

    @pytest.mark.parametrize(
        "scales, which",
        [((2, 1), "first"), ((1, 2), "second"), ((2, Fraction(1, 2)), "first")],
        ids=["first", "second", "product-squares-to-id"],
    )
    def test_member_must_square_to_minus_one(self, scales, which):
        """A scaled member commutes with its partner but is no structure.
        Scaled by 2 and 1/2, the product still squares to Id and the
        metric is the Kahler one, so only the members' squares see it."""
        pair = [
            GenStructure(R4, rmat_scale(j.matrix, Scalar.of(c)), j.twist)
            for j, c in zip(self.kahler_pair(), scales)
        ]
        origin = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        assert check_gk_pair(*pair, [origin]) == (
            False,
            f"the {which} structure of the pair does not square to minus the identity",
        )

    def test_failing_details_name_their_first_witness(self):
        """J^2 + Id, G J + J^T G, the commutator and the metric less its
        transpose are read on row supports, and each failing detail names
        the first nonzero entry of its residual in row-major order, as ring
        text; a non-real J names its first non-real entry."""
        j1, j2 = self.kahler_pair()
        origin = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        doubled = GenStructure(R4, rmat_scale(j1.matrix, Scalar.of(2)), j1.twist)
        assert doubled.algebraic == (
            False,
            "matrix does not square to minus the identity: entry (0, 0) of J^2 + Id is -3",
        )
        bent = [list(row) for row in j2.matrix]
        bent[2][3] = bent[2][3] + fn("x1", R4)
        bent = GenStructure(R4, tuple(map(tuple, bent)), j2.twist)
        assert bent.algebraic == (
            False,
            "matrix does not square to minus the identity: entry (2, 2) of J^2 + Id is -x1",
        )
        # A closed B-field with a non-constant coefficient keeps the twist
        # and moves the complex member off the symplectic one.
        b = d(R4, "x1").wedge(d(R4, "x2")).scale(fn("x1", R4))
        assert check_gk_pair(j1, b_transform_structure(b, j2), [origin]) == (
            False,
            "structures do not commute: entry (0, 2) of J1 J2 - J2 J1 is -x1",
        )
        # A shear of the vector components alone does not preserve the
        # pairing: both members conjugated by it still commute and square
        # to -Id, but their metric is no longer symmetric.
        shear, unshear = ([list(row) for row in rmat_identity(R4, 8)] for _ in range(2))
        shear[0][2] = RingElement.one(R4)
        unshear[0][2] = -RingElement.one(R4)
        sheared = [
            GenStructure(R4, rmat_mul(mat(shear), rmat_mul(j.matrix, mat(unshear))), j.twist)
            for j in (j1, j2)
        ]
        assert all(j.squares_to_minus_one for j in sheared)
        assert check_gk_pair(*sheared, [origin]) == (
            False,
            "product metric is not symmetric: entry (0, 2) of the metric minus "
            "its transpose is -1/2",
        )
        # Neither sheared member preserves the pairing: the detail names
        # the first nonzero entry of G J + J^T G, as the dense oracle does.
        details = [j.algebraic for j in sheared]
        assert details == [
            (False, "matrix does not preserve the pairing: entry (1, 2) of G J + J^T G is 1/2"),
            (False, "matrix does not preserve the pairing: entry (2, 5) of G J + J^T G is 1/2"),
        ]
        assert [d for _, d in details] == [pairing_failure(j.matrix) for j in sheared]
        # Two imaginary entries: the first in row-major order is named.
        tinted = [list(row) for row in j2.matrix]
        tinted[5][6] = tinted[5][6] + RingElement.constant(R4, Scalar.of(0, 1))
        tinted[3][1] = fn("x1", R4).scale(Scalar.of(0, 1))
        tinted = GenStructure(R4, tuple(map(tuple, tinted)), j2.twist)
        assert tinted.algebraic == (
            False, "matrix has a non-real entry: entry (3, 1) of J is I*x1"
        )

    def test_a_constant_metric_is_tested_at_the_first_point_alone(self, monkeypatch):
        j1, j2 = self.kahler_pair()
        points = [
            EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0),
            EvalPoint.at(R4, x1=1, y1=2, x2=0, y2=1),
            EvalPoint.at(R4, x1=-1, y1=0, x2=3, y2=0),
        ]
        tested = []
        real = structures.is_positive_definite
        monkeypatch.setattr(
            structures, "is_positive_definite", lambda m: tested.append(m) or real(m)
        )
        assert check_gk_pair(j1, j2, points) == (
            True,
            "commuting pair with positive definite product metric, chart-wide "
            "(the metric is constant)",
        )
        assert len(tested) == 1

    def test_a_non_constant_metric_is_tested_at_every_point(self, monkeypatch):
        """A B-field with a non-constant coefficient makes the metric
        non-constant; a positivity test that fails only at the second point
        fails the pair there, with the detail it always had."""
        j1, j2 = self.kahler_pair()
        b = d(R4, "x1").wedge(d(R4, "x2")).scale(fn("y1", R4))
        moved = (b_transform_structure(b, j1), b_transform_structure(b, j2))
        points = [
            EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0),
            EvalPoint.at(R4, x1=1, y1=2, x2=0, y2=1),
            EvalPoint.at(R4, x1=-1, y1=0, x2=3, y2=0),
        ]
        tested = []
        real = structures.is_positive_definite

        def second_fails(m):
            tested.append(m)
            return (False, (Scalar.of(1), Scalar.of(-1))) if len(tested) == 2 else real(m)

        monkeypatch.setattr(structures, "is_positive_definite", second_fails)
        assert check_gk_pair(*moved, points) == (
            False,
            "product metric not positive definite at (x1=1, y1=2, x2=0, y2=1): "
            "leading minor 2 is -1 (non-positive)",
        )
        assert len(tested) == 2 and tested[0] != tested[1]

    def test_mismatched_twists_fail(self):
        j1, j2 = self.kahler_pair()
        b = d(R4, "x1").wedge(d(R4, "x2")).scale(fn("y1", R4))
        moved = b_transform_structure(b, j2)
        origin = EvalPoint.at(R4, x1=0, y1=0, x2=0, y2=0)
        ok, detail = check_gk_pair(j1, moved, [origin])
        assert not ok
        assert "twist" in detail


# --- property layer --------------------------------------------------------

texts = st.sampled_from(["0", "1", "x", "y", "x*y", "x^2", "y - x", "2*x"])


@st.composite
def sections(draw):
    vec = VectorField(R2, (fn(draw(texts), R2), fn(draw(texts), R2)))
    form = d(R2, "x").scale(fn(draw(texts), R2)) + d(R2, "y").scale(fn(draw(texts), R2))
    return GenSection(vec, form)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(sections(), sections())
def test_pairing_is_invariant_under_b_transform(u, v):
    b = d(R2, "x").wedge(d(R2, "y")).scale(fn("x*y", R2))
    lhs = pairing(b_transform_section(b, u), b_transform_section(b, v))
    assert lhs == pairing(u, v)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(sections(), sections())
def test_bracket_is_antisymmetric(u, v):
    w_plus = courant_bracket(u, v, DiffForm.zero(R2, 3))
    w_minus = courant_bracket(v, u, DiffForm.zero(R2, 3))
    assert (w_plus + w_minus).is_zero


# --- the twisted Courant algebroid axioms -----------------------------------
#
# Drawn as the identity suite draws: a seed, one of its two 3-dimensional
# charts, and its random sections, fields and forms.  A 3-form on a
# 3-dimensional chart is closed, so H = d(beta) + 3 vol is a closed twist.

seeds = st.integers(0, 2**32 - 1)
THIRD = Scalar.of(Fraction(1, 3))
# A smaller seed draws unrelated sections, so shrinking one only spends
# minutes before a failure is reported.
NO_SHRINK = (Phase.explicit, Phase.generate)


def _volume(chart):
    return reduce(DiffForm.wedge, [DiffForm.d_coord(chart, n) for n in chart.names])


def _covector(form):
    """The section with zero vector part and the given 1-form."""
    chart = form.chart
    return GenSection(VectorField(chart, tuple(RingElement.zero(chart) for _ in chart.names)), form)


def _jacobiator(u, v, w, twist):
    def br(a, b):
        return courant_bracket(a, b, twist)

    return br(br(u, v), w) + br(br(v, w), u) + br(br(w, u), v)


def _nijenhuis_d(u, v, w, twist):
    """d N for N = (<[u,v],w> + <[v,w],u> + <[w,u],v>)/3."""
    total = (
        pairing(courant_bracket(u, v, twist), w)
        + pairing(courant_bracket(v, w, twist), u)
        + pairing(courant_bracket(w, u, twist), v)
    )
    return DiffForm.function(total.scale(THIRD)).d()


def _suite_draw(seed):
    rng = random.Random(seed)
    return rng, selftest._CHARTS[rng.randrange(2)]


@settings(max_examples=15, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(seeds)
def test_bracket_jacobiator_is_exact(seed):
    """The Courant bracket fails Jacobi by an exact term: under a closed
    twist the jacobiator is (0, d N), whose vector part is the Lie-bracket
    Jacobi identity."""
    rng, chart = _suite_draw(seed)
    u, v, w = (selftest._rand_section(rng, chart) for _ in range(3))
    twist = selftest._rand_form(rng, chart, 2).d() + _volume(chart).scale(Scalar.of(3))
    jac = _jacobiator(u, v, w, twist)
    assert jac.vector.is_zero
    assert jac.form == _nijenhuis_d(u, v, w, twist)


@settings(max_examples=15, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(seeds)
def test_bracket_leibniz_rule(seed):
    """[u, f v] = f [u, v] + (rho(u) f) v - <u, v> df."""
    rng, chart = _suite_draw(seed)
    u, v = (selftest._rand_section(rng, chart) for _ in range(2))
    f = selftest._rand_field(rng, chart)
    twist = selftest._rand_form(rng, chart, 3)
    df = DiffForm.function(f).d()
    want = (
        courant_bracket(u, v, twist).scale(f)
        + v.scale(u.vector.apply(f))
        - _covector(df.scale(pairing(u, v)))
    )
    assert courant_bracket(u, v.scale(f), twist) == want


@settings(max_examples=15, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(seeds)
def test_pairing_is_invariant_under_the_dorfman_bracket(seed):
    """rho(u)<v, w> = <u o v, w> + <v, u o w> for the Dorfman bracket
    u o v = [u, v] + d<u, v>, under a random twist."""
    rng, chart = _suite_draw(seed)
    u, v, w = (selftest._rand_section(rng, chart) for _ in range(3))
    twist = selftest._rand_form(rng, chart, 3)

    def dorfman(a, b):
        return courant_bracket(a, b, twist) + _covector(DiffForm.function(pairing(a, b)).d())

    assert u.vector.apply(pairing(v, w)) == pairing(dorfman(u, v), w) + pairing(v, dorfman(u, w))


C4 = make_chart(("p", "periodic"), ("t", "affine"), ("u", "affine"), ("s", "affine"))
C4_MONOMIALS = tuple(
    parse_expr(text, C4) for text in ("1", "t", "u", "s", "t*s", "cos(p)", "sin(p)*u")
)


def _field4(rng):
    out = RingElement.zero(C4)
    for _ in range(rng.randrange(2, 4)):
        out = out + rng.choice(C4_MONOMIALS).scale(Scalar.of(rng.randrange(-3, 4)))
    return out


def _form4(rng, degree):
    out = DiffForm.zero(C4, degree)
    for names in combinations(C4.names, degree):
        basis = reduce(DiffForm.wedge, [DiffForm.d_coord(C4, n) for n in names])
        out = out + basis.scale(_field4(rng))
    return out


@settings(max_examples=10, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(seeds)
def test_jacobiator_under_a_twist_that_is_not_closed(seed):
    """On a 4-dimensional chart the jacobiator's form part is
    d N - i_w i_v i_u dH.  The term s^3 dp^dt^du keeps dH nonzero: its
    differential 3s^2 ds^dp^dt^du meets no partial derivative of the
    drawn terms, which have degree at most one in s."""
    rng = random.Random(seed)
    u, v, w = (
        GenSection(VectorField(C4, tuple(_field4(rng) for _ in range(4))), _form4(rng, 1))
        for _ in range(3)
    )
    volume = reduce(DiffForm.wedge, [d(C4, "p"), d(C4, "t"), d(C4, "u")])
    twist = _form4(rng, 3) + volume.scale(fn("s^3", C4))
    dh = twist.d()
    assert not dh.is_zero
    jac = _jacobiator(u, v, w, twist)
    assert jac.vector.is_zero
    assert jac.form == _nijenhuis_d(u, v, w, twist) - dh.interior(u.vector).interior(
        v.vector
    ).interior(w.vector)


# --- the pairing test of GenStructure.algebraic ---------------------------------


def _preserves_pairing_by_product(matrix, chart):
    """J^T G J = G with G the pairing matrix as ring constants: the triple
    product that GenStructure.algebraic replaced by a skew test."""
    gram = tuple(
        tuple(RingElement.constant(chart, x) for x in row)
        for row in pairing_matrix(chart.dim)
    )
    return mat_mul(transpose(matrix), mat_mul(gram, matrix)) == gram


def _catalog_structures():
    out = []
    for name in catalog_names():
        scen = load_builtin(name)
        for sname in sorted(scen.structures):
            out.append((f"{name}/{sname}", scen.structures[sname]))
    return out


CATALOG_STRUCTURES = _catalog_structures()


def test_skew_pairing_test_matches_the_product_on_the_catalog():
    for label, struct in CATALOG_STRUCTURES:
        assert struct.squares_to_minus_one, label
        by_product = _preserves_pairing_by_product(struct.matrix, struct.chart)
        assert struct.algebraic[0] == by_product, label


_ENTRIES = st.integers(-2, 2).map(Scalar.of)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_skew_pairing_test_matches_the_product_on_conjugates(data):
    """S J S^-1, for a catalog structure J and a rational invertible S
    (unit upper triangular times a diagonal of nonzero entries), is real
    and squares to -Id but usually does not preserve the pairing; the
    verdict of algebraic agrees with the product J^T G J = G either way."""
    label, struct = data.draw(st.sampled_from(CATALOG_STRUCTURES))
    chart, size = struct.chart, 2 * struct.chart.dim
    entries = {
        (i, j): data.draw(_ENTRIES) for i in range(size) for j in range(i + 1, size)
        if data.draw(st.integers(0, 3)) == 0
    }
    diag = [data.draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])) for _ in range(size)]
    s = tuple(
        tuple(
            Scalar.of(diag[i]) if i == j else entries.get((i, j), Scalar.of(0))
            for j in range(size)
        )
        for i in range(size)
    )

    def ring(m):
        return tuple(tuple(RingElement.constant(chart, x) for x in row) for row in m)

    moved = mat_mul(ring(s), mat_mul(struct.matrix, ring(solve(s, identity(size)))))
    conjugate = GenStructure(chart, moved, struct.twist)
    assert conjugate.squares_to_minus_one, label
    ok, detail = conjugate.algebraic
    assert ok == _preserves_pairing_by_product(moved, chart), label
    if not ok:
        assert detail == pairing_failure(moved), label


# --- the structure at a point -----------------------------------------------------


def _block_type(struct, point):
    """The type as it was read before GenStructure.at: half the corank of
    the upper-right block, evaluated alone."""
    n = struct.dim
    block = tuple(
        tuple(struct.matrix[i][n + j].evaluate(point) for j in range(n))
        for i in range(n)
    )
    corank = n - rank(block)
    assert corank % 2 == 0
    return corank // 2


def _catalog_structures_with_b():
    """Every catalog structure, and its B-transform when the scenario has
    a B-field, with the scenario's points."""
    out = []
    for name in catalog_names():
        scen = load_builtin(name)
        for sname in sorted(scen.structures):
            struct = scen.structures[sname]
            out.append((f"{name}/{sname}", struct, scen.points))
            if scen.b_field is not None:
                moved = b_transform_structure(scen.b_field, struct)
                out.append((f"{name}/{sname}+b", moved, scen.points))
    return out


def test_point_values_match_the_ring_projector_and_the_block_rule():
    """At every point, J(p) and the columns of Id - iJ(p) are the values
    of J and of the ring frame's columns, and the eigenbundle basis is
    the greedy pick among those columns."""
    checked = 0
    for label, struct, points in _catalog_structures_with_b():
        frame = tuple(u.column() for u in struct.plus_i_frame)
        for pname, p in points.items():
            here = struct.at(p)
            columns = rmat_eval(frame, p)
            picked = extend_basis((), columns)
            assert here.matrix == rmat_eval(struct.matrix, p), (label, pname)
            assert here.columns == columns, (label, pname)
            assert here.eigenrows == tuple(columns[i] for i in picked), (label, pname)
            assert row_space_basis(here.eigenrows) == row_space_basis(columns), (label, pname)
            assert here.type == _block_type(struct, p), (label, pname)
            checked += 1
    assert checked == 46


HALF, MINUS_HALF_I = Scalar.of(Fraction(1, 2)), Scalar.of(0, Fraction(-1, 2))


def _difference(a, b):
    """The entrywise difference a - b of two ring matrices."""
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _old_projector(struct):
    """The eigenprojector P = (Id - iJ)/2 as a ring matrix, which this
    package built until the columns of Id - iJ took its place."""
    ident = rmat_identity(struct.chart, 2 * struct.dim)
    return rmat_scale(_difference(ident, rmat_scale(struct.matrix, Scalar.of(0, 1))), HALF)


def _old_point_projector(jp):
    """P(p) = (Id - iJ(p))/2, written out from the values of J(p)."""
    return tuple(
        tuple(x * MINUS_HALF_I + (HALF if i == j else Scalar.of(0)) for j, x in enumerate(row))
        for i, row in enumerate(jp)
    )


def _old_pick(columns):
    """The greedy column pick: keep each column that raises the rank."""
    picked = []
    for j, col in enumerate(columns):
        if rank([columns[i] for i in picked] + [col]) > len(picked):
            picked.append(j)
    return tuple(picked)


def _frame_brackets(struct):
    """Every bracket of two live sections of the +i frame, under the
    structure's own twist, which closes, and, on a chart of dimension 3
    or more, under the twist of its first three coordinates, which mostly
    does not."""
    chart = struct.chart
    twists = [struct.twist]
    if chart.dim >= 3:
        frame = [DiffForm.d_coord(chart, x) for x in chart.names[:3]]
        twists.append(reduce(DiffForm.wedge, frame))
    live = [u for u in struct.plus_i_frame if not u.is_zero]
    for twist in twists:
        for a, u in enumerate(live):
            for v in live[a + 1 :]:
                yield courant_bracket(u, v, twist)


def test_eigenbundle_follows_the_old_projector_rule():
    """The old rule as the oracle: P = (Id - iJ)/2, the greedy pick among
    the columns of P(p) and the anti-projector residual (Id - P)w.  The
    columns of Id - iJ are twice those of P, (J - i)(Id - iJ) is
    -i(J^2 + Id) and J - i is -2i(Id - P)."""
    i, two, minus_two_i = Scalar.of(0, 1), Scalar.of(2), Scalar.of(0, -2)
    z, one = RingElement.zero(R2), RingElement.one(R2)
    not_a_root = GenStructure(
        R2, tuple(tuple(one if r == c else z for c in range(4)) for r in range(4)),
        DiffForm.zero(R2, 3),
    )
    points = 0
    for label, struct, named in _catalog_structures_with_b() + [("J = Id", not_a_root, {})]:
        for pname, p in named.items():
            here = struct.at(p)
            columns = transpose(_old_point_projector(here.matrix))
            picked = _old_pick(columns)
            assert here.basis == picked, (label, pname)
            assert here.eigenrows == tuple(
                tuple(x * two for x in columns[c]) for c in picked
            ), (label, pname)
            points += 1
        annihilated = all(
            (x - y.scale(i)).is_zero
            for col in (u.column() for u in struct.plus_i_frame)
            for x, y in zip(mat_vec(struct.matrix, col), col)
        )
        assert annihilated is struct.squares_to_minus_one, label
    assert points == 46
    moved = 0
    for label, struct, _ in _catalog_structures_with_b():
        anti = _difference(rmat_identity(struct.chart, 2 * struct.dim), _old_projector(struct))
        for w in _frame_brackets(struct):
            old = mat_vec(anti, w.column())
            assert struct.residual(w.column()) == tuple(r.scale(minus_two_i) for r in old), label
            moved += any(not r.is_zero for r in old)
    assert moved > 0


def test_failing_integrability_names_the_residual_of_id_minus_ij():
    """The residual component a failing integrability verdict names is an
    entry of (J - i)w for the bracket w of two columns of Id - iJ: -8i
    times the entry of (Id - P)w for the bracket of two columns of P."""
    cases = [
        ("bihermitian_r4_translation", ["x1", "y1", "x2"], "integrability:j1", "1/4"),
        ("gamma_torus_cylinder", ["x1", "t1", "x2"], "integrability:j+b", "t2^2 - 2*I*t2 - 1"),
    ]
    for name, frame, check, residual in cases:
        raw = copy.deepcopy(builtin_raw(name))
        raw["twist"] = [{"coeff": "1", "frame": frame}]
        raw["checks"] = ["integrability"]
        verdicts, _ = run_scenario(load_scenario(raw))
        detail = next(v.detail for v in verdicts if v.check == check)
        assert detail == (
            "bracket of frame sections 0 and 1 leaves the eigenbundle "
            f"(residual component {residual})"
        ), name


def _old_integrability_basis(struct, points):
    """The basis check_integrable bracketed when a certificate searched
    the +i frame: greedy over the live columns of P evaluated at each
    point, at the first point whose pick has n elements."""
    if not struct.algebraic[0]:
        return None
    frame = struct.plus_i_frame
    live = [i for i, u in enumerate(frame) if not u.is_zero]
    for name, p in points.items():
        values = [tuple(c.evaluate(p) for c in frame[i].column()) for i in live]
        picked = extend_basis((), values)
        if len(picked) == struct.dim:
            return Basis(name, tuple(frame[live[i]] for i in picked))
    return None


def test_integrability_brackets_the_basis_the_old_rule_picks(monkeypatch):
    bracketed = []
    real = structures.certified_basis

    def certified(*args):
        bracketed.append(real(*args))
        return bracketed[-1]

    monkeypatch.setattr(structures, "certified_basis", certified)
    checked = 0
    for label, struct, points in _catalog_structures_with_b():
        bracketed.clear()
        check_integrable(struct, points)
        want = _old_integrability_basis(struct, points)
        # Every catalog structure is algebraic, so some point certifies.
        assert want is not None, label
        assert bracketed == [want], label
        checked += 1
    assert checked == 17


def test_non_real_structure_fails_the_eigenbundle_rank():
    """J = I.Id squares to -Id but is not real, and Id - iJ = 2 Id has rank 2n:
    check_integrable and the runner's verdict stop at the rank test."""
    want = "eigenbundle rank is not 2 at (x=0, y=0)"
    entries = [["I" if r == c else "0" for c in range(4)] for r in range(4)]
    raw = {
        "name": "imaginary_identity",
        "chart": [["x", "affine"], ["y", "affine"]],
        "structures": {"j": {"kind": "matrix", "matrix": entries}},
        "points": [{"name": "origin", "values": {"x": "0", "y": "0"}}],
        "checks": ["integrability"],
    }
    scen = load_scenario(raw)
    struct = scen.structures["j"]
    assert struct.squares_to_minus_one
    assert struct.at(scen.points["origin"]).basis == (0, 1, 2, 3)
    assert check_integrable(struct, scen.points) == (False, want)
    verdicts, _ = run_scenario(scen)
    assert [v.as_dict() for v in verdicts] == [
        {"check": "integrability:j", "status": "fail", "detail": want}
    ]


def test_point_value_is_built_once_and_holds_no_structure():
    scen = load_builtin("kahler_c2_circle")
    struct, p = scen.structures["j1"], next(iter(scen.points.values()))
    here = struct.at(p)
    assert struct.at(p) is here
    assert not any(isinstance(v, GenStructure) for v in vars(here).values())


def test_with_twist_shares_the_point_values():
    struct = symplectic_structure(omega_r4())
    p = EvalPoint.at(R4, x1=1, y1=0, x2=2, y2=-1)
    q = EvalPoint.at(R4, x1=0, y1=3, x2=0, y2=1)
    twist = d(R4, "x1").wedge(d(R4, "x2")).wedge(d(R4, "y2"))
    before = struct.at(p)
    other = struct.with_twist(twist)
    assert other.at(p) is before
    # A value built through either structure after the split is shared too.
    assert struct.at(q) is other.at(q)
    # J is constant, so both points share one elimination, through either.
    assert other.at(p).basis is struct.at(q).basis
    assert len(struct._bases) == 1


def test_a_basis_memo_miss_hashes_no_scalar(monkeypatch):
    """The memo of picked bases is keyed by the integers of J(p)'s nonzero
    entries: a miss hashes no Scalar, and two points where J takes one
    value still share one elimination."""
    struct = symplectic_structure(omega_r4())
    p = EvalPoint.at(R4, x1=1, y1=0, x2=2, y2=-1)
    q = EvalPoint.at(R4, x1=0, y1=3, x2=0, y2=1)
    here, there = struct.at(p), struct.at(q)
    assert here.matrix == there.matrix and here.point != there.point
    hashed, eliminations = [], []
    real_hash, real_extend = Scalar.__hash__, structures.extend_basis
    monkeypatch.setattr(Scalar, "__hash__", lambda x: hashed.append(x) or real_hash(x))
    monkeypatch.setattr(
        structures, "extend_basis",
        lambda rows, candidates: eliminations.append(1) or real_extend(rows, candidates),
    )
    assert here.basis is there.basis
    assert hashed == [] and len(eliminations) == 1 and len(struct._bases) == 1


def test_a_constant_structure_is_typed_once(monkeypatch):
    """The type is memoized by the value J(p), like the basis: a constant
    structure is typed by one elimination at any number of points and
    through its with_twist copies.  A parity violation is not kept, so it
    names each point where it is met."""
    struct = symplectic_structure(omega_r4())
    points = [
        EvalPoint.at(R4, x1=1, y1=0, x2=2, y2=-1),
        EvalPoint.at(R4, x1=0, y1=3, x2=0, y2=1),
        EvalPoint.at(R4, x1=5, y1=5, x2=5, y2=5),
    ]
    typed = []
    real_type = structures.matrix_type
    monkeypatch.setattr(
        structures, "matrix_type", lambda m, p: typed.append(p) or real_type(m, p)
    )
    other = struct.with_twist(d(R4, "x1").wedge(d(R4, "x2")).wedge(d(R4, "y2")))
    assert [struct.at(p).type for p in points[:2]] + [other.at(points[2]).type] == [0, 0, 0]
    assert typed == points[:1] and len(struct._types) == 1
    one, zero = RingElement.one(R2), RingElement.zero(R2)
    odd = GenStructure(
        R2,
        tuple(tuple(one if (i, j) == (0, 2) else zero for j in range(4)) for i in range(4)),
        DiffForm.zero(R2, 3),
    )
    for p in (EvalPoint.at(R2, x=0, y=0), EvalPoint.at(R2, x=1, y=2)):
        with pytest.raises(ValidationError, match=re.escape(f"violated at {p}: corank 1")):
            odd.at(p).type


def test_a_run_eliminates_each_eigenbundle_once(monkeypatch):
    """integrability, reduction with its two-step oracle, level closure and
    gk_reduction all read eigenbundles at the scenario's points; none is
    read twice for the same matrix and point, and within a matrix family
    (a structure and its with_twist copies) each value of J(p) is
    eliminated once.  No run of a builtin evaluates a zero ring element."""
    owners, eliminated, zeros = {}, [], []
    families, reading, eliminations = [], [], []
    real_at = GenStructure.at
    plain_basis = structures.StructureAt.basis.func
    real_extend = structures.extend_basis
    real_evaluate = RingElement.evaluate

    def at(struct, point):
        here = real_at(struct, point)
        owners[id(here)] = (tuple(map(str, chain(*struct.matrix))), point)
        return here

    def counted_basis(here):
        eliminated.append(owners[id(here)])
        if not any(f is here._bases for f in families):
            families.append(here._bases)
        family = next(i for i, f in enumerate(families) if f is here._bases)
        reading.append((family, tuple(map(str, chain(*here.matrix)))))
        try:
            return plain_basis(here)
        finally:
            reading.pop()

    def counted_extend(rows, candidates):
        eliminations.append(reading[-1])
        return real_extend(rows, candidates)

    def evaluate(element, point):
        if element.is_zero:
            zeros.append(point)
        return real_evaluate(element, point)

    basis = cached_property(counted_basis)
    basis.__set_name__(structures.StructureAt, "basis")
    monkeypatch.setattr(GenStructure, "at", at)
    monkeypatch.setattr(structures.StructureAt, "basis", basis)
    monkeypatch.setattr(structures, "extend_basis", counted_extend)
    monkeypatch.setattr(RingElement, "evaluate", evaluate)
    scen = load_builtin("bihermitian_r4_translation")
    assert {"integrability", "reduction", "gk_reduction"} <= set(scen.checks)
    verdicts, _ = run_scenario(scen)
    assert all(v.status == "pass" for v in verdicts)
    # j1 and j2 as given, and each after the potential transform, at 3 points.
    assert len(eliminated) == 12
    assert len(set(eliminated)) == len(eliminated)
    # Each of the four matrices takes one value at the three points.
    assert len(families) == 4
    assert len(set(eliminations)) == len(eliminations) == 4
    for name in catalog_names():
        run_scenario(load_builtin(name))
    assert zeros == []


# --- the block B-transform ----------------------------------------------------


def _dense_b_transform(b_field, struct):
    """e^B J e^-B as the two dense products that the block form replaced."""
    return rmat_mul(b_exponential(b_field), rmat_mul(struct.matrix, b_exponential(-b_field)))


def test_block_b_transform_is_the_dense_product_on_the_catalog():
    """Every builtin structure moved by its scenario's B-field and by its
    negative, and every structure of a builtin with no B-field by a closed
    and a non-closed one of its chart."""
    moved_any = 0
    for name in catalog_names():
        scen = load_builtin(name)
        chart = scen.chart
        plane = d(chart, chart.names[0]).wedge(d(chart, chart.names[1]))
        last = chart.names[-1]
        bend = fn(last if chart.is_affine(chart.dim - 1) else f"cos({last})", chart)
        b_fields = (
            [scen.b_field, -scen.b_field]
            if scen.b_field is not None
            else [plane, plane.scale(bend)]
        )
        for sname, struct in sorted(scen.structures.items()):
            for b in b_fields:
                moved = b_transform_structure(b, struct)
                assert moved.matrix == _dense_b_transform(b, struct), (name, sname)
                assert moved.twist == struct.twist - b.d()
                moved_any += moved.matrix != struct.matrix
    assert moved_any


@settings(max_examples=15, derandomize=True, deadline=None, phases=NO_SHRINK)
@given(seeds)
def test_block_b_transform_is_the_dense_product_for_closed_b_fields(seed):
    """A closed B = dA, A a drawn 1-form over C4, moving the symplectic
    structure of dp^dt + du^ds and its transform by a drawn 2-form, whose
    matrix is not constant."""
    rng = random.Random(seed)
    base = symplectic_structure(d(C4, "p").wedge(d(C4, "t")) + d(C4, "u").wedge(d(C4, "s")))
    for struct in (base, b_transform_structure(_form4(rng, 2), base)):
        b = _form4(rng, 1).d()
        moved = b_transform_structure(b, struct)
        assert moved.matrix == _dense_b_transform(b, struct)
        assert moved.twist == struct.twist


def test_a_b_field_that_cancels_shares_the_structure():
    """On R^2 every 2-form is of type (1,1), so e^B J e^-B = J for the
    complex structure: the moved structure is J under the new twist, and
    shares what J has built."""
    struct = complex_structure(jmat_r2(), R2)
    b = d(R2, "x").wedge(d(R2, "y")).scale(fn("x*y + 3", R2))
    assert struct.algebraic[0]
    moved = b_transform_structure(b, struct)
    assert moved.matrix is struct.matrix
    assert moved.twist == -b.d()
    assert moved.__dict__["algebraic"] is struct.__dict__["algebraic"]
    assert moved._points is struct._points
