"""Tests for the Cartan model, moment data, B-transforms of moment data,
and the connection-to-potential construction."""

import pytest
from hypothesis import given, settings, strategies as st

from gkbench.calculus import DiffForm, VectorField
from gkbench.equivariant import (
    Connection,
    EquivariantForm,
    MomentData,
    TorusAction,
    cartan_d,
    check_moment_map,
    equivariant_three_form,
    gamma_from_connection,
    is_basic,
    is_equivariantly_closed,
    is_invariant,
    moment_b_transform,
)
from gkbench.errors import ValidationError
from gkbench.ring import RingElement, make_chart, parse_expr
from gkbench.structures import b_transform_structure

from plain_structures import symplectic_structure

R4 = make_chart(("x1", "affine"), ("y1", "affine"), ("x2", "affine"), ("y2", "affine"))
CYL = make_chart(("x1", "periodic"), ("t1", "affine"), ("x2", "periodic"), ("t2", "affine"))


def fn(text, chart):
    return parse_expr(text, chart)


def d(chart, name):
    return DiffForm.d_coord(chart, name)


def vf(chart, components):
    return VectorField(chart, tuple(fn(c, chart) for c in components))


def rotation_action():
    # Diagonal circle on C^2: xi = x1 d_y1 - y1 d_x1 + x2 d_y2 - y2 d_x2
    xi = vf(R4, ["-y1", "x1", "-y2", "x2"])
    return TorusAction(R4, (xi,))


def omega_r4():
    return d(R4, "x1").wedge(d(R4, "y1")) + d(R4, "x2").wedge(d(R4, "y2"))


def cylinder_action():
    return TorusAction(
        CYL,
        (vf(CYL, ["1", "0", "0", "0"]), vf(CYL, ["0", "0", "1", "0"])),
    )


def cylinder_b_total():
    return d(CYL, "x1").wedge(d(CYL, "x2")).scale(fn("t1", CYL)) + d(CYL, "x1").wedge(
        d(CYL, "t1")
    ).scale(fn("t2", CYL))


def cylinder_moment_after_transform():
    """Moment data of the cylinder scenario after the B-transform:
    alpha_1 = t1 dx2 + t2 dt1, alpha_2 = -t1 dx1, f = (-t1, -t2)."""
    action = cylinder_action()
    a1 = d(CYL, "x2").scale(fn("t1", CYL)) + d(CYL, "t1").scale(fn("t2", CYL))
    a2 = d(CYL, "x1").scale(fn("-t1", CYL))
    return MomentData(action, (a1, a2), (fn("-t1", CYL), fn("-t2", CYL)))


class TestTorusAction:
    def test_commuting_required(self):
        a = vf(R4, ["0", "x1", "0", "0"])
        b = vf(R4, ["1", "0", "0", "0"])
        with pytest.raises(ValidationError, match="commute"):
            TorusAction(R4, (a, b))

    def test_rotation_is_fine(self):
        assert rotation_action().k == 1

    def test_invariance_predicates(self):
        action = cylinder_action()
        assert is_invariant(cylinder_b_total(), action)
        assert is_basic(cylinder_b_total(), action) is not None
        basic = d(CYL, "t1").wedge(d(CYL, "t2")).scale(fn("t2", CYL))
        assert is_basic(basic, action) is None

    def test_basicness_names_its_first_witness(self):
        """The contractions are judged before the Lie derivatives, each in
        generator order, and the failing form is named as ring text."""
        action = cylinder_action()
        dt1, dt2 = d(CYL, "t1"), d(CYL, "t2")
        turning = dt1.wedge(dt2).scale(fn("cos(x1)", CYL))
        assert is_basic(turning, action) == (
            "its Lie derivative along generator 1 is (1/2*I*E(x1;1) - 1/2*I*E(x1;-1))*dt1^dt2"
        )
        contracting = turning + d(CYL, "x2").wedge(dt1).scale(fn("t2", CYL))
        assert is_basic(contracting, action) == "its contraction with generator 2 is (t2)*dt1"
        assert is_basic(DiffForm.function(fn("cos(x2)", CYL)), action) == (
            "its Lie derivative along generator 2 is 1/2*I*E(x2;1) - 1/2*I*E(x2;-1)"
        )


class TestCartanModel:
    def test_squares_to_zero_on_invariant_cochains(self):
        action = cylinder_action()
        three_form = (
            d(CYL, "x1").wedge(d(CYL, "t1")).wedge(d(CYL, "x2")).scale(fn("t1", CYL))
        )
        w = EquivariantForm(
            CYL,
            2,
            {
                (0, 0): three_form,
                (1, 0): d(CYL, "t2").scale(fn("t1", CYL)),
                (0, 1): d(CYL, "t1"),
            },
        )
        dd = cartan_d(cartan_d(w, action), action)
        assert dd.is_zero

    def test_mixed_total_degree_rejected(self):
        with pytest.raises(ValidationError, match="total degree"):
            EquivariantForm(
                CYL, 2, {(0, 0): cylinder_b_total(), (1, 0): d(CYL, "t1")}
            )

    def test_detects_non_invariance(self):
        # d_G^2 = -sum_i u_i L_{xi_i}, nonzero on a non-invariant cochain.
        action = cylinder_action()
        w = EquivariantForm(CYL, 2, {(0, 0): d(CYL, "t1").scale(fn("cos(x1)", CYL))})
        dd = cartan_d(cartan_d(w, action), action)
        assert not dd.is_zero

    def test_closedness_bullets_match_cartan_differential(self):
        """The three componentwise equations hold exactly when the Cartan
        differential of (twist + moment one-forms) vanishes."""
        action = cylinder_action()
        moment = cylinder_moment_after_transform()
        twist = -cylinder_b_total().d()
        ok, detail = is_equivariantly_closed(twist, moment)
        assert ok, detail
        assembled = equivariant_three_form(twist, moment)
        assert cartan_d(assembled, action).is_zero
        # Break bullet two (the non-closed perturbation t1 dt2 changes
        # d alpha_1 but not the twist) and watch both paths fail together.
        bad = MomentData(
            action,
            (
                moment.one_forms[0] + d(CYL, "t2").scale(fn("t1", CYL)),
                moment.one_forms[1],
            ),
            moment.functions,
        )
        ok, _ = is_equivariantly_closed(twist, bad)
        assert not ok
        assert not cartan_d(equivariant_three_form(twist, bad), action).is_zero


class TestMomentMap:
    def test_pinned_rotation_example(self):
        """Diagonal rotation on C^2 with f = |z|^2 / 2 is a moment map for
        the symplectic structure."""
        struct = symplectic_structure(omega_r4())
        f = fn("1/2*x1^2 + 1/2*y1^2 + 1/2*x2^2 + 1/2*y2^2", R4)
        moment = MomentData(
            rotation_action(),
            (DiffForm.zero(R4, 1),),
            (f,),
        )
        ok, detail = check_moment_map(struct, moment)
        assert ok, detail

    def test_wrong_sign_fails(self):
        struct = symplectic_structure(omega_r4())
        f = fn("-1/2*x1^2 - 1/2*y1^2 - 1/2*x2^2 - 1/2*y2^2", R4)
        moment = MomentData(rotation_action(), (DiffForm.zero(R4, 1),), (f,))
        ok, detail = check_moment_map(struct, moment)
        assert not ok
        assert "eigenvector" in detail

    def test_noninvariant_function_fails(self):
        struct = symplectic_structure(omega_r4())
        # df = -i_xi omega fails and invariance fails; use a function that
        # satisfies neither.
        moment = MomentData(rotation_action(), (DiffForm.zero(R4, 1),), (fn("x1", R4),))
        ok, detail = check_moment_map(struct, moment)
        assert not ok

    def test_cylinder_moment_data(self):
        """On the cylinder, the transformed structure with twist -dB and
        the transformed moment data pass the moment check."""
        omega = d(CYL, "x1").wedge(d(CYL, "t1")) + d(CYL, "x2").wedge(d(CYL, "t2"))
        base = symplectic_structure(omega)
        moved = b_transform_structure(cylinder_b_total(), base)
        moment = cylinder_moment_after_transform()
        ok, detail = check_moment_map(moved, moment)
        assert ok, detail
        ok, detail = is_equivariantly_closed(moved.twist, moment)
        assert ok, detail


class TestMomentTransform:
    def base_moment(self):
        omega = d(CYL, "x1").wedge(d(CYL, "t1")) + d(CYL, "x2").wedge(d(CYL, "t2"))
        action = cylinder_action()
        return MomentData(
            action,
            (DiffForm.zero(CYL, 1), DiffForm.zero(CYL, 1)),
            (fn("-t1", CYL), fn("-t2", CYL)),
        ), omega

    def test_transform_matches_frozen_values(self):
        moment, omega = self.base_moment()
        new_moment = moment_b_transform(moment, cylinder_b_total())
        assert new_moment.functions == moment.functions
        assert new_moment.one_forms[0] == d(CYL, "x2").scale(fn("t1", CYL)) + d(
            CYL, "t1"
        ).scale(fn("t2", CYL))
        assert new_moment.one_forms[1] == d(CYL, "x1").scale(fn("-t1", CYL))

    def test_exact_pair_is_equivariantly_closed(self):
        """(-dB, i_xi B) with invariant B is equivariantly closed: it is
        the Cartan differential of -B."""
        moment, _ = self.base_moment()
        new_twist = DiffForm.zero(CYL, 3) - cylinder_b_total().d()
        new_moment = moment_b_transform(moment, cylinder_b_total())
        zero_data = MomentData(
            moment.action,
            new_moment.one_forms,
            (RingElement.zero(CYL), RingElement.zero(CYL)),
        )
        ok, detail = is_equivariantly_closed(new_twist, zero_data)
        assert ok, detail

    def test_group_law(self):
        moment, _ = self.base_moment()
        b1 = cylinder_b_total()
        b2 = d(CYL, "t1").wedge(d(CYL, "t2")).scale(fn("t1", CYL))
        m12 = moment_b_transform(moment_b_transform(moment, b1), b2)
        m_sum = moment_b_transform(moment, b1 + b2)
        assert m12.one_forms == m_sum.one_forms

    def test_noninvariant_b_rejected(self):
        moment, _ = self.base_moment()
        bad = d(CYL, "t1").wedge(d(CYL, "t2")).scale(fn("cos(x1)", CYL))
        with pytest.raises(ValidationError, match="invariant"):
            moment_b_transform(moment, bad)


class TestConnection:
    def test_axioms_enforced(self):
        action = cylinder_action()
        with pytest.raises(ValidationError, match="theta_1"):
            Connection(action, (d(CYL, "t1"), d(CYL, "x2")))
        noninvariant = d(CYL, "x1") + d(CYL, "t1").scale(fn("cos(x1)", CYL))
        with pytest.raises(ValidationError, match="invariant"):
            Connection(action, (noninvariant, d(CYL, "x2")))

    def test_gamma_frozen_values(self):
        """With theta = (dx1, dx2) the potential reproduces the original
        B-field exactly; with theta' = (dx1 + dt2, dx2) it differs from it
        by the basic form t2 dt1^dt2."""
        action = cylinder_action()
        moment = cylinder_moment_after_transform()
        theta = Connection(action, (d(CYL, "x1"), d(CYL, "x2")))
        gamma = gamma_from_connection(moment, theta)
        assert gamma == cylinder_b_total()

        theta_prime = Connection(action, (d(CYL, "x1") + d(CYL, "t2"), d(CYL, "x2")))
        gamma_prime = gamma_from_connection(moment, theta_prime)
        diff = gamma - gamma_prime
        assert diff == d(CYL, "t1").wedge(d(CYL, "t2")).scale(fn("t2", CYL))
        assert is_basic(diff, action) is None

    def test_gamma_postconditions(self):
        """i_xi Gamma = alpha, Gamma invariant, twist + d Gamma basic."""
        action = cylinder_action()
        moment = cylinder_moment_after_transform()
        twist = -cylinder_b_total().d()
        for conn in (
            Connection(action, (d(CYL, "x1"), d(CYL, "x2"))),
            Connection(action, (d(CYL, "x1") + d(CYL, "t2"), d(CYL, "x2"))),
        ):
            gamma = gamma_from_connection(moment, conn)
            for i, g in enumerate(action.generators):
                assert gamma.interior(g) == moment.one_forms[i]
            assert is_invariant(gamma, action)
            assert is_basic(twist + gamma.d(), action) is None

    def test_antisymmetry_required(self):
        action = cylinder_action()
        # alpha_1(xi_2) = 1 but alpha_2(xi_1) = 0: no potential can exist.
        bad = MomentData(
            action,
            (d(CYL, "x2"), DiffForm.zero(CYL, 1)),
            (RingElement.zero(CYL), RingElement.zero(CYL)),
        )
        conn = Connection(action, (d(CYL, "x1"), d(CYL, "x2")))
        with pytest.raises(ValidationError, match="antisymmetric"):
            gamma_from_connection(bad, conn)


# --- property layer -----------------------------------------------------

basic_texts = st.sampled_from(["0", "1", "t1", "t2", "t1*t2", "t1^2", "2*t2"])


@st.composite
def invariant_two_forms(draw):
    frames = [
        ("x1", "x2"),
        ("x1", "t1"),
        ("x1", "t2"),
        ("t1", "x2"),
        ("t1", "t2"),
        ("x2", "t2"),
    ]
    out = DiffForm.zero(CYL, 2)
    for a, b in frames:
        out = out + d(CYL, a).wedge(d(CYL, b)).scale(fn(draw(basic_texts), CYL))
    return out


@settings(max_examples=25, derandomize=True, deadline=None)
@given(invariant_two_forms())
def test_cartan_differential_of_invariant_b_is_closed(b):
    """d_G(B) for invariant B is always equivariantly closed: this is the
    statement that exact pairs (-dB, i_xi B) pass the closedness check."""
    action = cylinder_action()
    moment = MomentData(
        action,
        tuple(b.interior(g) for g in action.generators),
        (RingElement.zero(CYL), RingElement.zero(CYL)),
    )
    ok, detail = is_equivariantly_closed(-b.d(), moment)
    assert ok, detail


def t_form(draw, texts):
    """p dt1 + q dt2 with p, q drawn from the given texts."""
    return d(CYL, "t1").scale(fn(draw(texts), CYL)) + d(CYL, "t2").scale(
        fn(draw(texts), CYL)
    )


@st.composite
def connections(draw):
    """theta_i = dx_i + p_i dt1 + q_i dt2, with p_i and q_i functions of
    t alone: invariant, and theta_i(xi_j) = delta_ij."""
    action = cylinder_action()
    return Connection(
        action, tuple(d(CYL, x) + t_form(draw, basic_texts) for x in ("x1", "x2"))
    )


free_texts = st.sampled_from(["0", "1", "t1", "cos(x1)", "t2*sin(x2)", "t1*cos(x2)"])


@st.composite
def antisymmetric_one_forms(draw):
    """alpha_1 = a dx2 + ..., alpha_2 = -a dx1 + ..., the rest along dt:
    alpha_i(xi_l) is antisymmetric, and the coefficients may depend on
    the orbit coordinates, so the forms need not be invariant."""
    a = fn(draw(free_texts), CYL)
    return (
        d(CYL, "x2").scale(a) + t_form(draw, free_texts),
        d(CYL, "x1").scale(-a) + t_form(draw, free_texts),
    )


@settings(max_examples=50, derandomize=True, deadline=None)
@given(invariant_two_forms(), connections(), antisymmetric_one_forms())
def test_gamma_contracts_to_moment_forms(b, conn, extra):
    """i_{xi_j} Gamma = alpha_j for every connection and every
    antisymmetric moment one-forms, invariant or not, so the gamma check
    needs no contraction test."""
    action = cylinder_action()
    moment = MomentData(
        action,
        tuple(b.interior(g) + e for g, e in zip(action.generators, extra)),
        (RingElement.zero(CYL), RingElement.zero(CYL)),
    )
    gamma = gamma_from_connection(moment, conn)
    for i, g in enumerate(action.generators):
        assert gamma.interior(g) == moment.one_forms[i]
