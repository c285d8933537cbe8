"""The ring and calculus kernels against the plain formulas they replace.

Each kernel builds its canonical result without intermediate objects:
a ring element stores its coefficients as normalized (a, b, d) triples,
the ring multiply sums them per exponent, `partial` scales the triple
itself, `is_real` compares each term with its conjugate exponent's, a
ring difference builds no negated copy and the Courant bracket uses its
Cartan form.  `terms`, the Scalar view of the triples, must round-trip.  Each oracle here is the older construction written out
in full, and each comparison is of canonical terms, so an unnormalized
triple, a wrong sign or a lost factor fails it.  Every case is drawn
over a polynomial chart and a periodic one.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gkbench import ring
from gkbench.calculus import DiffForm, VectorField, lie_bracket
from gkbench.errors import ChartMismatchError
from gkbench.ring import ZERO, RingElement, Scalar, make_chart
from gkbench.structures import HALF, GenSection, courant_bracket

POLY = make_chart(*((n, "affine") for n in "abcd"))
TRIG = make_chart(*((n, "periodic") for n in "pqrs"))
CHARTS = (POLY, TRIG)

# Denominators and units that meet: 1/2 * 2 and I * I need normalizing.
COEFFS = tuple(
    Scalar.of(re, im)
    for re, im in (
        (1, 0), (-1, 0), (2, 0), (6, 0), (Fraction(1, 2), 0), (Fraction(-3, 4), 0),
        (0, 1), (0, Fraction(-1, 2)), (Fraction(2, 3), 1), (Fraction(1, 6), Fraction(5, 6)),
    )
)


@st.composite
def elements(draw, chart, max_terms=3):
    """An element of at most max_terms terms, exponents in a small box so
    that products of two elements often meet on an exponent."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, 2) if aff else st.integers(-2, 2)) for aff in chart.affine)
        terms[expo] = draw(st.sampled_from(COEFFS))
    return RingElement(chart, terms)


@st.composite
def singles(draw, chart):
    """A single-term element, sometimes constant."""
    expo = tuple(
        draw(st.sampled_from((0, 0, 1, 2)) if aff else st.sampled_from((0, 0, -1, 1)))
        for aff in chart.affine
    )
    return RingElement(chart, {expo: draw(st.sampled_from(COEFFS))})


@st.composite
def fields(draw, chart):
    return VectorField(chart, tuple(draw(elements(chart, 2)) for _ in range(chart.dim)))


@st.composite
def forms(draw, chart, degree):
    idx = list(combinations(range(chart.dim), degree))
    picked = draw(st.lists(st.sampled_from(idx), max_size=3, unique=True))
    return DiffForm(chart, degree, {i: draw(elements(chart, 2)) for i in picked})


charts = st.sampled_from(CHARTS)


# --- the older formulas, written out --------------------------------------


def scalar_loop_product(f, g):
    """The terms of f * g, one Scalar product and sum per pair of terms."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            out[expo] = out.get(expo, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c}


def scalar_partial(f, i):
    """The terms of d f / d x_i, each coefficient times a Scalar."""
    out = {}
    for expo, coeff in f.terms.items():
        e = expo[i]
        if not e:
            continue
        if f.chart.is_affine(i):
            out[expo[:i] + (e - 1,) + expo[i + 1 :]] = coeff * Scalar.of(e)
        else:
            out[expo] = coeff * Scalar.of(0, e)
    return out


def assert_canonical(f):
    assert all(c and c == Scalar.of(c.re, c.im) for c in f.terms.values())


# --- ring ------------------------------------------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_product_is_the_scalar_loop(data):
    chart = data.draw(charts)
    f, g = data.draw(elements(chart)), data.draw(elements(chart))
    for product, (p, q) in ((f * g, (f, g)), ((f + g) * (f - g), (f + g, f - g))):
        # (f + g)(f - g): the cross terms f*g - g*f cancel.
        assert product.terms == scalar_loop_product(p, q)
        assert_canonical(product)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_single_term_product_is_the_scalar_loop(data):
    chart = data.draw(charts)
    f, s = data.draw(elements(chart)), data.draw(singles(chart))
    one = RingElement.one(chart)
    for p, q in ((f, s), (s, f), (s, s), (f, one), (one, f), (one, s)):
        product = p * q
        assert product.terms == scalar_loop_product(p, q)
        assert_canonical(product)


def test_cancelling_products():
    chart = POLY
    a = RingElement.coordinate(chart, "a")
    half = RingElement.constant(chart, Scalar.of(Fraction(1, 2)))
    i = RingElement.constant(chart, Scalar.of(0, 1))
    assert ((a + half) * (a - half)).terms == scalar_loop_product(a + half, a - half)
    assert (a.scale(Scalar.of(2)) * half) == a
    assert (i * i + RingElement.one(chart)).is_zero
    assert ((a + i) * (a - i)).terms == {(2, 0, 0, 0): Scalar.of(1), (0,) * 4: Scalar.of(1)}


def test_denominators_sharing_a_large_factor_meet_over_their_lcm(monkeypatch):
    """Forty pair products land on a^40 with denominators P*m, m = 1..40,
    for a 201-digit P.  Summed over the lcm, the triple handed to the
    normalizer `_norm` has a denominator of about 220 digits; multiplied
    out, it would have about 8000 and the final gcd would run on those."""
    chart = POLY
    big = 10**200 + 357
    f = RingElement(chart, {(m, 0, 0, 0): Scalar.of(Fraction(1, big * m)) for m in range(1, 41)})
    g = RingElement(chart, {(40 - m, 0, 0, 0): Scalar.of(1) for m in range(1, 41)})
    denominators = []
    real_norm = ring._norm

    def norm(a, b, d):
        denominators.append(d)
        return real_norm(a, b, d)

    monkeypatch.setattr(ring, "_norm", norm)
    product = f * g
    monkeypatch.undo()
    assert product.terms == scalar_loop_product(f, g)
    assert_canonical(product)
    assert max(len(str(d)) for d in denominators) < 2 * len(str(big))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_partial_is_the_scalar_product(data):
    chart = data.draw(charts)
    f = data.draw(elements(chart, 4))
    for i, name in enumerate(chart.names):
        derivative = f.partial(name)
        assert derivative.terms == scalar_partial(f, i)
        assert_canonical(derivative)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_ring_difference_is_adding_the_negation(data):
    chart = data.draw(charts)
    f, g = data.draw(elements(chart)), data.draw(elements(chart))
    for p, q in ((f, g), (g, f), (f, f), (f, RingElement.zero(chart)), (RingElement.zero(chart), g)):
        assert (p - q).terms == (p + (-q)).terms
        assert_canonical(p - q)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_is_real_is_equality_with_the_conjugate(data):
    """`is_real` decides from the triples; the oracle builds the conjugate.
    f + conj(f) is real, and an imaginary constant, whose exponent is its
    own conjugate, makes it not real."""
    chart = data.draw(charts)
    f = data.draw(elements(chart, 4))
    real = f + f.conj()
    i = RingElement.constant(chart, Scalar.of(0, 1))
    half_i = RingElement.constant(chart, Scalar.of(Fraction(1, 2), Fraction(1, 3)))
    for x in (f, real, real + i, real + half_i, real * i, f * f.conj(), i):
        assert x.is_real == (x == x.conj())
    assert real.is_real and (f * f.conj()).is_real
    assert not (real + i).is_real and not (real + half_i).is_real


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_negation(data):
    chart = data.draw(charts)
    f = data.draw(elements(chart))
    assert (-RingElement.zero(chart)).is_zero
    assert -(-f) == f
    assert (f + (-f)).is_zero
    assert_canonical(-f)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_terms_view_round_trips(data):
    """`terms` holds canonical Scalars, and building from it gives the
    element back."""
    chart = data.draw(charts)
    f, g = data.draw(elements(chart)), data.draw(elements(chart))
    derived = (f, f * g, f + g, f - g, f.conj(), f.partial(chart.names[0]), f.scale(COEFFS[9]))
    for x in derived:
        assert_canonical(x)
        assert RingElement(chart, x.terms) == x


def test_ring_difference_refuses_another_chart():
    with pytest.raises(ChartMismatchError):
        RingElement.one(POLY) - RingElement.one(TRIG)


# --- the Courant bracket ---------------------------------------------------


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_courant_bracket_is_the_lie_derivative_formula(data):
    """The Cartan form against L_X b - L_Y a - d(i_X b - i_Y a)/2 + i_Y i_X H,
    with `lie` computed from the derivation rule."""
    chart = data.draw(charts)
    x, y = data.draw(fields(chart)), data.draw(fields(chart))
    a, b = data.draw(forms(chart, 1)), data.draw(forms(chart, 1))
    twist = data.draw(forms(chart, 3))
    got = courant_bracket(GenSection(x, a), GenSection(y, b), twist)
    want = (
        b.lie(x)
        - a.lie(y)
        - (b.interior(x) - a.interior(y)).d().scale(HALF)
        + twist.interior(x).interior(y)
    )
    assert got.form.terms == want.terms
    assert got.vector == lie_bracket(x, y)
