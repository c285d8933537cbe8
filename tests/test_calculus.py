"""Tests for forms, vector fields, chart maps and the classical identities
relating d, the interior product, the wedge and the Lie derivative."""

from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gkbench import linalg
from gkbench.calculus import ChartMap, DiffForm, VectorField, lie_bracket
from gkbench.errors import ValidationError
from gkbench.ring import RingElement, Scalar, make_chart, parse_expr

CHART = make_chart(("x", "affine"), ("y", "periodic"), ("t", "affine"))


def fn(text, chart=CHART):
    return parse_expr(text, chart)


def one_form(pairs, chart=CHART):
    """Build sum of f * d(name) from (text, name) pairs."""
    out = DiffForm.zero(chart, 1)
    for text, name in pairs:
        out = out + DiffForm.d_coord(chart, name).scale(fn(text, chart))
    return out


def vf(components, chart=CHART):
    return VectorField(chart, tuple(fn(c, chart) for c in components))


class TestBasics:
    def test_d_of_function(self):
        df = DiffForm.function(fn("x^2*t")).d()
        assert df == one_form([("2*x*t", "x"), ("x^2", "t")])

    def test_d_squared_zero_example(self):
        f = DiffForm.function(fn("x*t + cos(y)*x"))
        assert f.d().d().is_zero

    def test_wedge_antisymmetry(self):
        dx = DiffForm.d_coord(CHART, "x")
        dt = DiffForm.d_coord(CHART, "t")
        assert dx.wedge(dt) == -(dt.wedge(dx))
        assert dx.wedge(dx).is_zero

    def test_wedge_top_degree_vanishes(self):
        dx = DiffForm.d_coord(CHART, "x")
        dy = DiffForm.d_coord(CHART, "y")
        dt = DiffForm.d_coord(CHART, "t")
        top = reduce(DiffForm.wedge, [dx, dy, dt])
        assert not top.is_zero
        assert top.wedge(dx).is_zero

    def test_interior_first_slot(self):
        dx = DiffForm.d_coord(CHART, "x")
        dt = DiffForm.d_coord(CHART, "t")
        x = vf(["1", "0", "0"])
        assert dx.wedge(dt).interior(x) == dt
        t = vf(["0", "0", "1"])
        assert dx.wedge(dt).interior(t) == -dx

    def test_apply_is_determinant(self):
        dx = DiffForm.d_coord(CHART, "x")
        dt = DiffForm.d_coord(CHART, "t")
        omega = dx.wedge(dt)
        u = vf(["x", "0", "2"])
        v = vf(["1", "0", "t"])
        assert omega.apply([u, v]) == fn("x*t - 2")

    def test_no_zero_operand_is_multiplied(self, monkeypatch):
        """scale keeps a zero component as it is, and apply, contracting
        one field at a time, skips every zero component."""
        operands = []
        real = RingElement.__mul__

        def mul(a, b):
            operands.append((a, b))
            return real(a, b)

        monkeypatch.setattr(RingElement, "__mul__", mul)
        u = vf(["x", "0", "2"])
        scaled = u.scale(fn("t + 1"))
        assert scaled.components[1] is u.components[1]
        assert len(operands) == 2 and not any(a.is_zero or b.is_zero for a, b in operands)
        omega = DiffForm(CHART, 2, {(0, 2): fn("x*t")})
        assert omega.apply([u, vf(["2*x", "1", "4"])]).is_zero
        assert not any(a.is_zero or b.is_zero for a, b in operands)

    def test_lie_bracket_example(self):
        # [x d_t, d_x] = -d_t
        a = vf(["0", "0", "x"])
        b = vf(["1", "0", "0"])
        assert lie_bracket(a, b) == vf(["0", "0", "-1"])

    def test_lie_derivative_of_function_form(self):
        x = vf(["x", "0", "0"])
        f = DiffForm.function(fn("x^2"))
        assert x.apply(fn("x^2")) == fn("2*x^2")
        assert f.lie(x) == DiffForm.function(fn("2*x^2"))

    def test_lie_derivative_rescales_frame(self):
        # L_{x d_x} dx = dx
        x = vf(["x", "0", "0"])
        dx = DiffForm.d_coord(CHART, "x")
        assert dx.lie(x) == dx

    def test_degree_errors(self):
        with pytest.raises(ValidationError):
            DiffForm.function(fn("x")) + DiffForm.d_coord(CHART, "x")
        with pytest.raises(ValidationError):
            DiffForm.function(fn("x")).interior(vf(["1", "0", "0"]))


class TestChartMap:
    SRC = make_chart(("s", "affine"), ("u", "affine"))

    def phi(self):
        # x = s + u, t = s - u, y held at the angle pi/2.
        return ChartMap(
            self.SRC,
            CHART,
            {
                "x": parse_expr("s + u", self.SRC),
                "t": parse_expr("s - u", self.SRC),
            },
            {"y": (None, 1)},
        )

    def test_pull_function(self):
        phi = self.phi()
        assert phi.pull_function(fn("x*t")) == parse_expr("s^2 - u^2", self.SRC)
        # E(y;1) at the fixed angle pi/2 becomes the constant i.
        assert phi.pull_function(fn("E(y;1)")) == parse_expr("I", self.SRC)

    def test_pull_two_form(self):
        phi = self.phi()
        dx_dt = DiffForm.d_coord(CHART, "x").wedge(DiffForm.d_coord(CHART, "t"))
        ds_du = DiffForm.d_coord(self.SRC, "s").wedge(DiffForm.d_coord(self.SRC, "u"))
        # (ds+du)^(ds-du) = -2 ds^du
        assert phi.pull_form(dx_dt) == ds_du.scale(Scalar.of(-2))

    def test_pull_commutes_with_d_example(self):
        phi = self.phi()
        form = DiffForm.function(fn("x^2*t")).d()
        lhs = phi.pull_form(DiffForm.function(fn("x^2*t"))).d()
        assert lhs == phi.pull_form(form)

    def test_periodic_shift(self):
        src = make_chart(("p", "periodic"))
        tgt = make_chart(("q", "periodic"))
        phi = ChartMap(src, tgt, {}, {"q": ("p", 2)})  # q = p + pi
        pulled = phi.pull_function(parse_expr("E(q;1)", tgt))
        assert pulled == parse_expr("-E(p;1)", src)

    def test_missing_assignment(self):
        with pytest.raises(ValidationError, match="no assignment"):
            ChartMap(self.SRC, CHART, {"x": parse_expr("s", self.SRC)}, {"y": (None, 0)})


# --- property layer ------------------------------------------------------

coeff_text = st.sampled_from(
    ["0", "1", "x", "t", "x*t", "x^2", "cos(y)", "sin(y)", "E(y;1)", "x - t", "2*t"]
)


@st.composite
def functions(draw):
    return fn(draw(coeff_text))


@st.composite
def one_forms(draw):
    return one_form(
        [(draw(coeff_text), name) for name in ("x", "y", "t")]
    )


@st.composite
def two_forms(draw):
    dx = DiffForm.d_coord(CHART, "x")
    dy = DiffForm.d_coord(CHART, "y")
    dt = DiffForm.d_coord(CHART, "t")
    return (
        dx.wedge(dy).scale(draw(functions()))
        + dy.wedge(dt).scale(draw(functions()))
        + dx.wedge(dt).scale(draw(functions()))
    )


@st.composite
def vector_fields(draw):
    return vf([draw(coeff_text) for _ in range(3)])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(two_forms())
def test_d_squared_is_zero(w):
    assert w.d().d().is_zero


@settings(max_examples=40, derandomize=True, deadline=None)
@given(one_forms())
def test_d_squared_is_zero_on_one_forms(w):
    assert w.d().d().is_zero


@settings(max_examples=30, derandomize=True, deadline=None)
@given(vector_fields(), two_forms())
def test_cartan_magic_formula(x, w):
    lhs = w.lie(x)
    rhs = w.d().interior(x) + w.interior(x).d()
    assert lhs == rhs


@settings(max_examples=30, derandomize=True, deadline=None)
@given(vector_fields(), one_forms(), two_forms())
def test_interior_is_a_graded_derivation(x, a, b):
    # i_X(a ^ b) = (i_X a) ^ b - a ^ (i_X b) for a of degree 1.
    lhs = a.wedge(b).interior(x)
    rhs = b.scale(a.interior(x).terms.get((), RingElement.zero(CHART))) - a.wedge(
        b.interior(x)
    )
    assert lhs == rhs


@settings(max_examples=30, derandomize=True, deadline=None)
@given(vector_fields(), vector_fields(), two_forms())
def test_interior_of_bracket(x, y, w):
    # i_[X,Y] = [L_X, i_Y] on forms.
    lhs = w.interior(lie_bracket(x, y))
    rhs = w.interior(y).lie(x) - w.lie(x).interior(y)
    assert lhs == rhs


@settings(max_examples=20, derandomize=True, deadline=None)
@given(vector_fields(), vector_fields(), vector_fields())
def test_jacobi_identity(x, y, z):
    total = (
        lie_bracket(lie_bracket(x, y), z)
        + lie_bracket(lie_bracket(y, z), x)
        + lie_bracket(lie_bracket(z, x), y)
    )
    assert total.is_zero


@settings(max_examples=25, derandomize=True, deadline=None)
@given(one_forms(), one_forms())
def test_leibniz_for_d(a, b):
    lhs = a.wedge(b).d()
    rhs = a.d().wedge(b) - a.wedge(b.d())
    assert lhs == rhs


SRC = make_chart(("s", "affine"), ("u", "affine"))
PHI = ChartMap(
    SRC,
    CHART,
    {"x": parse_expr("s*u", SRC), "t": parse_expr("s + 2*u", SRC)},
    {"y": (None, 0)},
)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(one_forms())
def test_pullback_commutes_with_d(w):
    assert PHI.pull_form(w).d() == PHI.pull_form(w.d())


@settings(max_examples=30, derandomize=True, deadline=None)
@given(one_forms(), one_forms())
def test_pullback_respects_wedge(a, b):
    assert PHI.pull_form(a.wedge(b)) == PHI.pull_form(a).wedge(PHI.pull_form(b))


# A polynomial chart and a periodic one, each with its own coefficients.
EVAL_CHARTS = {
    make_chart(*((n, "affine") for n in "abcd")): (
        "0", "0", "1", "a", "b - c", "a*d", "c^2", "2*b*d + 1", "-d",
    ),
    make_chart(("p", "periodic"), ("q", "periodic"), ("r", "periodic")): (
        "0", "0", "1", "cos(p)", "sin(q)", "E(r;1)", "cos(p)*sin(r)", "E(q;-1) + 2",
    ),
}


@st.composite
def form_with_fields(draw):
    """A form of degree 1 to 3 with every coefficient drawn, and as many
    fields, over one of EVAL_CHARTS."""
    chart = draw(st.sampled_from(list(EVAL_CHARTS)))
    texts = st.sampled_from(EVAL_CHARTS[chart])
    k = draw(st.integers(1, 3))
    terms = {
        idx: fn(draw(texts), chart) for idx in combinations(range(chart.dim), k)
    }
    fields = [vf([draw(texts) for _ in range(chart.dim)], chart) for _ in range(k)]
    return DiffForm(chart, k, terms), fields


@settings(max_examples=60, derandomize=True, deadline=None)
@given(form_with_fields())
def test_apply_is_the_determinant_formula(case):
    """Contraction, one field at a time, evaluates a form as
    sum_I c_I det(v_j^(i_l)), the determinant formula it replaced."""
    w, vs = case
    want = RingElement.zero(w.chart)
    for idx, coeff in w.terms.items():
        minor = linalg.mat([[v.components[i] for i in idx] for v in vs])
        want = want + coeff * linalg._det_and_adjugate(minor)[0]
    assert w.apply(vs) == want


def assert_canonical_function(c):
    """No zero coefficient is stored, and the validating constructor
    rebuilds an equal element from the stored terms."""
    assert all(not x.is_zero for x in c.terms.values())
    assert RingElement(c.chart, dict(c.terms)) == c


def assert_canonical_form(w):
    """The same for a form, at both levels: no zero coefficient function,
    and the validating constructors rebuild an equal form."""
    for c in w.terms.values():
        assert not c.is_zero
        assert_canonical_function(c)
    assert DiffForm(w.chart, w.degree, dict(w.terms)) == w


def assert_canonical_field(v):
    for c in v.components:
        assert_canonical_function(c)
    assert VectorField(v.chart, v.components) == v


@settings(max_examples=30, derandomize=True, deadline=None)
@given(one_forms(), one_forms(), two_forms(), vector_fields(), vector_fields(), functions())
def test_operation_results_are_canonical(a, b, w, x, y, f):
    """Results of the form and field operations are built without the
    constructors' checks; the cases include sums and wedges that cancel
    (a - a, a ^ a) and scaling by zero."""
    zero = RingElement.zero(CHART)
    forms = [
        a + b, a - b, a - a, (a + b) - b, -a,
        a.scale(f), a.scale(zero), a.scale(Scalar.of(3, -1)), a.scale(Scalar()),
        a.wedge(b), a.wedge(a), a.wedge(b) + b.wedge(a), a.wedge(w),
        a.d(), w.d(), DiffForm.function(f).d(),
        a.interior(x), w.interior(x), w.interior(x).interior(x),
        a.lie(x), w.lie(x), w.lie(x) - w.d().interior(x) - w.interior(x).d(),
    ]
    for form in forms:
        assert_canonical_form(form)
    fields = [
        x + y, x - y, x - x, -x, x.scale(f), x.scale(zero),
        x.scale(Scalar.of(0, 2)), lie_bracket(x, y), lie_bracket(x, x),
    ]
    for field in fields:
        assert_canonical_field(field)
    assert_canonical_function(x.apply(f))
