"""The ring, calculus and reduction kernels against the plain formulas they replace.

Each kernel builds its canonical result without intermediate objects:
a ring element stores its coefficients as normalized (a, b, d) triples,
one sum-of-products loop serves the ring multiply and every sum of
products above it (X(f), the Lie bracket, interior and wedge products,
the eigen-residual (J - i)u), `partial` scales the triple itself and is
never asked for the derivative of a constant, `is_real` compares each
term with its conjugate exponent's, a ring difference builds no negated
copy and the Courant bracket uses its Cartan form.  `terms`, the Scalar
view of the triples, must round-trip.  Each oracle here is the older
construction written out in full with plain ring `*`, `+` and `-`, and
each comparison is of canonical terms, so an unnormalized triple, a
wrong sign or a lost factor fails it.  Every case is drawn over a
polynomial chart and a periodic one.  The bracket of a constant frame,
which open_brackets takes as the twist term alone, is held to the
general Courant bracket on drawn sections and on every builtin
structure's integrability verdict.  The product of ring matrices and
the support product under it are held to the row-support product with
ring `*` and `+`, the first differing entry of two supports to a dense
scan of the difference, and the inverse of a constant ring matrix, one
elimination, to the Faddeev-LeVerrier adjugate over the determinant.

The reduction's kernels are held to their older constructions the same
way: a push-down against a nullspace, a product and a canonical basis,
`solve` and each reduced structure against a formed inverse, the
basic-transform test against conjugation by the inverse, the matrix
comparisons against negated matrices, a form difference against adding
the negation, the identity suite's drawn forms against the wedges and
sums it once built them from, and its results in two processes against
its results in one.  The reduction oracles run on drawn
inputs and on every call a catalog pass makes.

The one pivot loop, `linalg._eliminate`, works on sparse rows of
integer triples; its oracle is the dense Scalar loop it replaced, held
to all four of its outputs and to the readers built on them.
"""

import os
import random
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkbench import linalg, reduction, ring, runner, selftest, structures
from gkbench.calculus import DiffForm, VectorField, lie_bracket
from gkbench.catalog import catalog_names, load_builtin
from gkbench.errors import ChartMismatchError, ValidationError
from gkbench.linalg import (
    identity,
    is_positive_definite,
    is_scalar_matrix,
    mat,
    mat_add,
    mat_mul,
    mat_neg,
    mat_vec,
    nullspace,
    rank,
    rmat_eval,
    rmat_identity,
    rmat_mul,
    rmat_zeros,
    row_space_basis,
    row_supports,
    rref,
    solve,
    support_mul,
    transpose,
)
from gkbench.reduction import _push_down, descend_endomorphism, dirac_reduce
from gkbench.ring import (
    IMAG,
    MAX_COORDS,
    ONE,
    ZERO,
    RingElement,
    Scalar,
    make_chart,
    sum_of_products,
)
from gkbench.runner import Workspace, run_scenario
from gkbench.scenario import load_scenario
from gkbench.structures import (
    HALF,
    GenSection,
    GenStructure,
    b_exponential,
    check_integrable,
    courant_bracket,
)
from plain_structures import pairing_failure

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


# --- exponent keys ------------------------------------------------------------
#
# The kernel keys each term by one int, the sum of e_i * 2^(32 i), with a
# signed 32-bit field per coordinate.  Each operation is held here to the
# tuple-keyed formula it had before, written out on the `terms` view, over
# drawn charts of up to MAX_COORDS coordinates: a negative periodic
# exponent borrows from the field above it, and exponents of 2^29 - 1 and
# -2^29 set the high bits of their fields, while a sum of two stays inside
# the kernel's range.

_AFFINE_DRAWS = (0, 0, 0, 1, 2, 2**29 - 1)
_PERIODIC_DRAWS = (0, 0, 0, 1, -1, -2, 2**29 - 1, -(2**29))
# Exponents that a point with any affine values can be raised to.
_SMALL_AFFINE, _SMALL_PERIODIC = (0, 0, 1, 2), (0, 0, 1, -1, -2, 3)


@st.composite
def wide_charts(draw):
    kinds = draw(st.lists(st.sampled_from(("affine", "periodic")), min_size=1, max_size=MAX_COORDS))
    return make_chart(*((f"c{i}", kind) for i, kind in enumerate(kinds)))


@st.composite
def wide_terms(draw, chart, max_terms=4, small=False):
    """Terms over the chart, mostly zero in each coordinate so that
    products meet on an exponent."""
    affine, periodic = (_SMALL_AFFINE, _SMALL_PERIODIC) if small else (_AFFINE_DRAWS, _PERIODIC_DRAWS)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.sampled_from(affine if aff else periodic)) for aff in chart.affine)
        terms[expo] = draw(st.sampled_from(COEFFS))
    return terms


@st.composite
def wide_elements(draw, chart, max_terms=4, small=False):
    return RingElement(chart, draw(wide_terms(chart, max_terms, small)))


def tuple_signed_sum(f, g, sign):
    """f + sign * g on exponent tuples."""
    out = dict(f.terms)
    for expo, c in g.terms.items():
        cur = out.get(expo, ZERO)
        out[expo] = cur + c if sign > 0 else cur - c
    return {e: c for e, c in out.items() if c}


def tuple_mirror(chart, expo):
    return tuple(e if aff else -e for e, aff in zip(expo, chart.affine))


def tuple_conj(f):
    return {tuple_mirror(f.chart, expo): c.conj() for expo, c in f.terms.items()}


def tuple_is_real(f):
    terms = f.terms
    return all(terms.get(tuple_mirror(f.chart, expo)) == c.conj() for expo, c in terms.items())


def tuple_is_constant(f):
    return not any(map(any, f.terms))


def scalar_power(s, e):
    out = ONE
    while e:
        if e & 1:
            out = out * s
        s = s * s
        e >>= 1
    return out


def tuple_evaluate(f, point):
    """Each term's coefficient times each affine value to its degree and
    each periodic quarter-turn phase, summed with Scalar `+`."""
    total = ZERO
    for expo, c in f.terms.items():
        for e, aff, v in zip(expo, f.chart.affine, point.values):
            c = c * (scalar_power(v, e) if aff else ring.quarter_phase(e * v))
        total = total + c
    return total


def tuple_text(f):
    """The text of an element from its exponent tuples: terms in
    decreasing order of their tuples, each its coefficient and factors."""
    terms = f.terms
    if not terms:
        return "0"
    out = ""
    for expo in sorted(terms, reverse=True):
        coeff = terms[expo]
        factors = []
        for name, aff, e in zip(f.chart.names, f.chart.affine, expo):
            if e:
                factors.append((name if e == 1 else f"{name}^{e}") if aff else f"E({name};{e})")
        mono = "*".join(factors)
        a, b, d = coeff._a, coeff._b, coeff._d
        if a and b:
            negative, body = False, ring.scalar_text(coeff)
        else:
            negative = a + b < 0
            body = ring.scalar_text(Scalar.of(Fraction(abs(a), d), Fraction(abs(b), d)))
        body = body if not mono else mono if body == "1" else f"{body}*{mono}"
        out += (" - " if negative else " + ") + body
    return out[3:] if out[1] == "+" else "-" + out[3:]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_keyed_terms_round_trip(data):
    """The constructor encodes each exponent and `terms` decodes it: the
    view is the input less its zero coefficients."""
    chart = data.draw(wide_charts())
    terms = data.draw(wide_terms(chart, 6))
    terms[tuple(0 for _ in chart.affine)] = data.draw(st.sampled_from(COEFFS + (ZERO,)))
    f = RingElement(chart, terms)
    assert f.terms == {e: c for e, c in terms.items() if c}
    assert RingElement(chart, f.terms) == f
    assert f.is_constant() == tuple_is_constant(f)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_keyed_products_are_the_tuple_loop(data):
    """sum_of_products and `*`, the general loop and the monomial shift."""
    chart = data.draw(wide_charts())
    f, g = data.draw(wide_elements(chart)), data.draw(wide_elements(chart))
    mono = data.draw(wide_elements(chart, 1))
    for p, q in ((f, g), (f, mono), (mono, g), (mono, mono)):
        assert (p * q).terms == scalar_loop_product(p, q)
        assert_canonical(p * q)
    pairs = [(1, f, g), (-1, mono, f), (1, g, g)]
    assert sum_of_products(chart, pairs).terms == scalar_loop_sum(chart, pairs)
    assert sum_of_products(chart, pairs + [(-s, y, x) for s, x, y in pairs]).is_zero


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_keyed_sums_partials_and_conjugates_are_the_tuple_formulas(data):
    chart = data.draw(wide_charts())
    f, g = data.draw(wide_elements(chart)), data.draw(wide_elements(chart))
    assert (f + g).terms == tuple_signed_sum(f, g, 1)
    assert (f - g).terms == tuple_signed_sum(f, g, -1)
    assert (-f).terms == tuple_signed_sum(RingElement.zero(chart), f, -1)
    for i, name in enumerate(chart.names):
        assert f.partial(name).terms == scalar_partial(f, i)
    assert f.conj().terms == tuple_conj(f)
    real = f + f.conj()
    for x in (f, g, real, real + RingElement.constant(chart, IMAG), f * f.conj()):
        assert x.is_real == tuple_is_real(x)
        assert x.is_constant() == tuple_is_constant(x)
    assert real.is_real


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_keyed_evaluation_is_the_tuple_formula(data):
    """Small exponents at any point, and the high-bit draws at points
    whose affine values are 0, 1 or -1, which any degree keeps small."""
    chart = data.draw(wide_charts())
    small = data.draw(st.booleans())
    f = data.draw(wide_elements(chart, small=small))
    values = (0, 1, -1, 2, Fraction(-1, 2), Fraction(3, 4)) if small else (0, 1, -1)
    named = {
        name: data.draw(st.sampled_from(values if aff else (0, 1, 2, 3, -1, 5)))
        for name, aff in zip(chart.names, chart.affine)
    }
    point = ring.EvalPoint.from_mapping(chart, named)
    assert f.evaluate(point) == tuple_evaluate(f, point)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_keyed_text_is_the_tuple_text(data):
    """The text sorts terms by their exponent tuples, never by keys."""
    chart = data.draw(wide_charts())
    f = data.draw(wide_elements(chart, 5))
    assert str(f) == tuple_text(f)
    assert str(f.conj()) == tuple_text(f.conj())


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


# --- brackets of a constant frame --------------------------------------------


@st.composite
def constant_sections(draw, chart):
    """A section whose vector components and form coefficients are all
    constants, zeros included."""
    values = st.sampled_from((ZERO,) + COEFFS)
    vector = VectorField(
        chart, tuple(RingElement.constant(chart, draw(values)) for _ in range(chart.dim))
    )
    form = DiffForm(
        chart, 1, {(i,): RingElement.constant(chart, draw(values)) for i in range(chart.dim)}
    )
    return GenSection(vector, form)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_constant_sections_bracket_to_the_twist_term(data):
    """Why open_brackets takes no derivative on a constant frame: for
    constant sections the general bracket is (0, i_Y i_X H).  H is drawn
    closed, an exact form plus a constant one, with coefficients that need
    not be constant."""
    chart = data.draw(charts)
    u, v = data.draw(constant_sections(chart)), data.draw(constant_sections(chart))
    idx = list(combinations(range(chart.dim), 3))
    picked = data.draw(st.lists(st.sampled_from(idx), max_size=2, unique=True))
    constant = DiffForm(
        chart, 3, {i: RingElement.constant(chart, data.draw(st.sampled_from(COEFFS))) for i in picked}
    )
    twist = data.draw(forms(chart, 2)).d() + constant
    assert twist.d().is_zero
    got = courant_bracket(u, v, twist)
    assert got.vector.is_zero
    assert got.form.terms == twist.interior(u.vector).interior(v.vector).terms


def twisted_catalog_structures():
    """Every builtin structure and its B-transform, each against its own
    twist and, on a chart of three or more coordinates, against that twist
    plus the constant closed one on the first three."""
    for name in catalog_names():
        scen = load_builtin(name)
        ws = Workspace(scen)
        for sname in sorted(scen.structures):
            moved = [ws.work(sname)] if scen.b_field is not None else []
            for struct in [scen.structures[sname]] + moved:
                yield f"{name}:{sname}", struct, scen.points
                chart = struct.chart
                if chart.dim >= 3:
                    h = DiffForm(chart, 3, {(0, 1, 2): RingElement.one(chart)})
                    yield f"{name}:{sname} + h", struct.with_twist(struct.twist + h), scen.points


def test_constant_frames_judge_as_the_general_bracket(monkeypatch):
    """check_integrable's verdict and detail on every builtin structure,
    with each frame bracketed as open_brackets chooses and with every
    frame sent through courant_bracket."""
    cases = list(twisted_catalog_structures())
    fast = [check_integrable(struct, points) for _, struct, points in cases]
    constant = sum(
        all(structures._is_constant(u) for u in struct.plus_i_frame)
        for _, struct, _ in cases
    )
    monkeypatch.setattr(structures, "_is_constant", lambda u: False)
    for (label, struct, points), want in zip(cases, fast):
        assert check_integrable(struct, points) == want, label
    assert 0 < constant < len(cases)
    assert {ok for ok, _ in fast} == {True, False}


@pytest.mark.parametrize(
    "name, sname, frame, detail",
    [
        (
            "kahler_c2_circle",
            "j1",
            ["y1", "x2", "y2"],
            "bracket of frame sections 1 and 2 leaves the eigenbundle "
            "(residual component 1)",
        ),
        (
            "bihermitian_r4_translation",
            "j1",
            ["x1", "y1", "y2"],
            "bracket of frame sections 0 and 1 leaves the eigenbundle "
            "(residual component 1/4*I)",
        ),
    ],
)
def test_a_constant_frame_fails_on_its_twist_term(monkeypatch, name, sname, frame, detail):
    """A constant structure against a constant twist that breaks its
    integrability: no Courant bracket is taken, and the detail names the
    pair and the residual component that the general bracket named."""
    scen = load_builtin(name)
    chart = scen.chart
    twist = DiffForm(
        chart, 3, {tuple(chart.index(c) for c in frame): RingElement.one(chart)}
    )
    struct = scen.structures[sname].with_twist(twist)
    assert all(structures._is_constant(u) for u in struct.plus_i_frame)
    calls = []
    original = structures.courant_bracket
    monkeypatch.setattr(
        structures, "courant_bracket", lambda *a: calls.append(1) or original(*a)
    )
    assert check_integrable(struct, scen.points) == (False, detail)
    assert calls == []


# --- the one sum of products -------------------------------------------------


@st.composite
def signed_pairs(draw, chart):
    """Up to four (sign, x, y) triples whose factors meet on exponents."""
    count = draw(st.integers(0, 4))
    return [
        (draw(st.sampled_from((1, -1))), draw(elements(chart)), draw(elements(chart)))
        for _ in range(count)
    ]


def scalar_loop_sum(chart, pairs):
    """The terms of the sum of sign * x * y, each pair's product taken by
    the Scalar loop and the products summed with Scalar `+` and `-`."""
    out = {}
    for sign, x, y in pairs:
        for expo, c in scalar_loop_product(x, y).items():
            cur = out.get(expo, ZERO)
            out[expo] = cur + c if sign > 0 else cur - c
    return {e: c for e, c in out.items() if c}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_sum_of_products_is_the_scalar_loop(data):
    """Drawn pairs, then the same pairs with each product cancelled by its
    negation, which must leave nothing."""
    chart = data.draw(charts)
    pairs = data.draw(signed_pairs(chart))
    total = sum_of_products(chart, pairs)
    assert total.terms == scalar_loop_sum(chart, pairs)
    assert_canonical(total)
    assert sum_of_products(chart, pairs + [(-s, y, x) for s, x, y in pairs]).is_zero


def test_sum_of_products_cancels_across_mixed_denominators():
    chart = POLY
    a, b = RingElement.coordinate(chart, "a"), RingElement.coordinate(chart, "b")

    def const(re, im=0):
        return RingElement.constant(chart, Scalar.of(re, im))

    half, third, sixth = const(Fraction(1, 2)), const(Fraction(1, 3)), const(Fraction(5, 6))
    # a^2/2 + a^2/3 - 5a^2/6 = 0, though no two denominators agree.
    pairs = [(1, half * a, a), (1, third * a, a), (-1, sixth * a, a)]
    assert sum_of_products(chart, pairs).is_zero
    # (a + i/2)(a - i/2) - a^2 = 1/4, and the i*a terms cancel between pairs.
    i_half = const(0, Fraction(1, 2))
    total = sum_of_products(chart, [(1, a + i_half, a - i_half), (-1, a, a)])
    assert total.terms == {(0,) * 4: Scalar.of(Fraction(1, 4))}
    # 3/4 * 2/3 b + 1/6 * 3 b = b: the unnormalized 6/12 b and 3/6 b meet
    # over the lcm 12, and 12/12 normalizes to 1.
    pairs = [
        (1, const(Fraction(3, 4)), const(Fraction(2, 3)) * b),
        (1, const(Fraction(1, 6)), b.scale(Scalar.of(3))),
    ]
    total = sum_of_products(chart, pairs)
    assert total == b
    assert_canonical(total)
    assert sum_of_products(chart, []) == RingElement.zero(chart)
    with pytest.raises(ChartMismatchError):
        sum_of_products(chart, [(1, a, RingElement.one(TRIG))])


# --- the calculus and the residual, written with ring *, + and - -------------


def plain_apply(x, f):
    """X(f) as the sum over i of X^i * d_i f."""
    total = RingElement.zero(x.chart)
    for name, comp in zip(x.chart.names, x.components):
        total = total + comp * f.partial(name)
    return total


def accumulate(out, idx, coeff):
    cur = out.get(idx)
    total = coeff if cur is None else cur + coeff
    if total.is_zero:
        out.pop(idx, None)
    else:
        out[idx] = total


def loop_interior(form, x):
    """i_X w, one product and one sum per term and slot; slot pos of the
    index carries the sign (-1)^pos."""
    out = {}
    for idx, coeff in form.terms.items():
        for pos, i in enumerate(idx):
            piece = x.components[i] * coeff
            if not piece.is_zero:
                accumulate(out, idx[:pos] + idx[pos + 1 :], -piece if pos % 2 else piece)
    return out


def sorted_sign(left, right):
    """The sorted union of two disjoint increasing indices and the sign of
    the shuffle, (-1) to the number of pairs out of order; None when they
    share an index."""
    if set(left) & set(right):
        return None, 0
    inversions = sum(1 for i in left for j in right if i > j)
    return tuple(sorted(left + right)), -1 if inversions % 2 else 1


def loop_wedge(v, w):
    out = {}
    for i1, c1 in v.terms.items():
        for i2, c2 in w.terms.items():
            merged, sign = sorted_sign(i1, i2)
            if merged is not None:
                piece = c1 * c2
                accumulate(out, merged, piece if sign > 0 else -piece)
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_apply_is_the_sum_over_coordinates(data):
    chart = data.draw(charts)
    x = data.draw(fields(chart))
    for f in (data.draw(elements(chart, 4)), data.draw(singles(chart)), RingElement.one(chart)):
        got = x.apply(f)
        assert got.terms == plain_apply(x, f).terms
        assert_canonical(got)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_lie_bracket_is_the_difference_of_derivatives(data):
    chart = data.draw(charts)
    x, y = data.draw(fields(chart)), data.draw(fields(chart))
    got = lie_bracket(x, y)
    for c, xc, yc in zip(got.components, x.components, y.components):
        assert c.terms == (x.apply(yc) - y.apply(xc)).terms
        assert_canonical(c)


def composed_lie(form, x):
    """The derivation rule as composed forms: X(f) dx_I, plus for each
    slot of I the wedge of f dx_{I before the slot}, d(X^i) and
    dx_{I after the slot}, all summed with form `+`."""
    chart = form.chart
    one = RingElement.one(chart)
    out = DiffForm.zero(chart, form.degree)
    for idx, coeff in form.terms.items():
        out = out + DiffForm(chart, form.degree, {idx: x.apply(coeff)})
        for pos, i in enumerate(idx):
            dcomp = DiffForm.function(x.components[i]).d()
            left = DiffForm(chart, pos, {idx[:pos]: coeff})
            right = DiffForm(chart, form.degree - pos - 1, {idx[pos + 1 :]: one})
            out = out + left.wedge(dcomp).wedge(right)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_lie_is_the_composed_derivation_rule(seed):
    """Forms of every degree from 0 to 3 and fields drawn as the identity
    suite draws them, over both of its charts."""
    rng = random.Random(seed)
    for chart in selftest._CHARTS:
        x = selftest._rand_vector(rng, chart)
        for degree in range(4):
            form = selftest._rand_form(rng, chart, degree)
            got = form.lie(x)
            assert got == composed_lie(form, x)
            assert all(c.terms for c in got.terms.values())


def test_lie_differentiates_each_component_once_per_coordinate(monkeypatch):
    """On a 2-form whose terms share their indices, each component of the
    field is differentiated at most once in each coordinate, where the
    composed rule differentiated it once per term and slot."""
    chart = selftest._PLANE
    x = VectorField(chart, tuple(ring.parse_expr(t, chart) for t in ("x*y", "y^2 + z", "x*z")))
    coeffs = (ring.parse_expr(t, chart) for t in ("z", "x + 1", "y"))
    form = DiffForm(chart, 2, dict(zip(((0, 1), (0, 2), (1, 2)), coeffs)))
    seen = []
    partial = RingElement.partial
    monkeypatch.setattr(
        RingElement, "partial", lambda f, name: seen.append((id(f), name)) or partial(f, name)
    )
    form.lie(x)
    component_calls = [(i, name) for i, c in enumerate(x.components) for f, name in seen if f == id(c)]
    assert len(component_calls) == len(set(component_calls)) == 3 * 3
    seen.clear()
    composed_lie(form, x)
    assert len([f for f, _ in seen if any(f == id(c) for c in x.components)]) == 2 * 3 * 3


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_interior_is_the_product_loop(data):
    chart = data.draw(charts)
    x = data.draw(fields(chart))
    for degree in (1, 2, 3):
        form = data.draw(forms(chart, degree))
        got = form.interior(x)
        assert got.degree == degree - 1
        assert got.terms == loop_interior(form, x)
        for c in got.terms.values():
            assert not c.is_zero
            assert_canonical(c)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_wedge_is_the_product_loop(data):
    chart = data.draw(charts)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        v, w = data.draw(forms(chart, p)), data.draw(forms(chart, q))
        got = v.wedge(w)
        assert got.degree == p + q
        assert got.terms == loop_wedge(v, w)
        for c in got.terms.values():
            assert not c.is_zero
            assert_canonical(c)


@st.composite
def entries(draw, chart):
    """A ring entry that is zero half of the time."""
    return draw(st.one_of(st.just(RingElement.zero(chart)), elements(chart, 2)))


def plain_residual(struct, column):
    """(J - i)u as J times u, less i times u."""
    return tuple(r - u.scale(IMAG) for r, u in zip(mat_vec(struct.matrix, column), column))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_residual_is_the_matrix_product_less_i_u(data):
    """Over a two-coordinate chart, with any matrix and column (the
    residual reads nothing of J's algebra), and a column of zeros."""
    kinds = data.draw(st.sampled_from(("affine", "periodic")))
    chart = make_chart(("s", kinds), ("t", kinds))
    size = 2 * chart.dim
    matrix = tuple(tuple(data.draw(entries(chart)) for _ in range(size)) for _ in range(size))
    struct = GenStructure(chart, matrix, DiffForm.zero(chart, 3))
    zero = RingElement.zero(chart)
    for column in (tuple(data.draw(entries(chart)) for _ in range(size)), (zero,) * size):
        got = struct.residual(column)
        assert [r.terms for r in got] == [r.terms for r in plain_residual(struct, column)]
        for r in got:
            assert_canonical(r)


def test_residual_on_catalog_frames():
    """Every builtin structure's +i frame has zero residual, and i times a
    frame column, which lies in the -i eigenbundle when J is real, has
    the residual the plain product gives."""
    runs = 0
    for name in catalog_names():
        for struct in load_builtin(name).structures.values():
            for u in struct.plus_i_frame:
                column = u.column()
                assert all(r.is_zero for r in struct.residual(column))
                conj = tuple(c.conj() for c in column)
                want = plain_residual(struct, conj)
                assert [r.terms for r in struct.residual(conj)] == [r.terms for r in want]
                runs += 1
    assert runs


# --- no constant is differentiated ---------------------------------------------


def kahler_c3_circle():
    """Flat Kahler C^3 with its symplectic and complex structures and the
    diagonal circle action, reduced at |z|^2 = 1, with every check a
    symbolic closure pass runs."""
    names = [f"{axis}{j}" for j in (1, 2, 3) for axis in "xy"]
    jmat = [["0"] * 6 for _ in range(6)]
    for j in range(3):
        jmat[2 * j][2 * j + 1], jmat[2 * j + 1][2 * j] = "-1", "1"
    point = dict.fromkeys(names, "0")
    return {
        "name": "kahler_c3_circle",
        "chart": [[name, "affine"] for name in names],
        "structures": {
            "j1": {
                "kind": "symplectic",
                "two_form": [{"coeff": "1", "frame": [f"x{j}", f"y{j}"]} for j in (1, 2, 3)],
            },
            "j2": {"kind": "complex", "matrix": jmat},
        },
        "pair": ["j1", "j2"],
        "action": [[c for j in (1, 2, 3) for c in (f"-y{j}", f"x{j}")]],
        "moment": {
            "structure": "j1",
            "functions": [" + ".join(f"1/2*x{j}^2 + 1/2*y{j}^2" for j in (1, 2, 3))],
        },
        "level": ["1/2"],
        "points": [{"name": "p", "values": {**point, "x1": "3/5", "y2": "4/5"}}],
        "checks": [
            "algebraic", "integrability", "type", "gk_pair", "moment", "equivariant",
            "level_closure",
        ],
        "expected": {"types": {"j1": 0, "j2": 3}},
    }


def test_matrix_readers_visit_each_nonzero_entry_once(monkeypatch):
    """On Kahler C^3's symplectic structure, whose J has 12 nonzero entries
    of 144, at(p) evaluates and plus_i_frame scales each nonzero entry
    once and no zero."""
    scen = load_scenario(kahler_c3_circle())
    j1 = scen.structures["j1"]
    struct = GenStructure(j1.chart, j1.matrix, j1.twist)
    nonzero = sum(not x.is_zero for row in struct.matrix for x in row)
    assert nonzero == 12
    calls = {"evaluate": 0, "scale": 0}
    for name in calls:
        def counted(self, arg, _name=name, _original=getattr(RingElement, name)):
            calls[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(RingElement, name, counted)
    here = struct.at(scen.points["p"])
    assert calls == {"evaluate": nonzero, "scale": 0}
    struct.plus_i_frame
    assert calls == {"evaluate": nonzero, "scale": nonzero}
    monkeypatch.undo()
    assert here.matrix == rmat_eval(struct.matrix, scen.points["p"])


def test_no_constant_is_differentiated(monkeypatch):
    """Across every builtin scenario and a Kahler C^3 closure pass, loading
    included, `partial` is asked for no derivative of a constant."""
    real = RingElement.partial
    calls, constants = [0], []

    def partial(self, name):
        calls[0] += 1
        if self.is_constant():
            constants.append(str(self))
        return real(self, name)

    monkeypatch.setattr(RingElement, "partial", partial)
    scenarios = [load_builtin(name) for name in catalog_names()]
    for scen in scenarios + [load_scenario(kahler_c3_circle())]:
        verdicts, _ = run_scenario(scen)
        assert all(v.status in ("pass", "skipped") for v in verdicts), scen.name
    assert calls[0] > 0
    assert constants == []


# --- the form difference -----------------------------------------------------------


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_form_difference_is_adding_the_negation(data):
    """`DiffForm.__sub__` merges with a sign and negates only the
    coefficients that meet nothing; the oracle negates the whole form
    first.  The pairs include a form less itself, less a form sharing
    some of its terms, and less zero, so keys cancel and survive."""
    chart = data.draw(charts)
    degree = data.draw(st.integers(0, 3))
    a, b = data.draw(forms(chart, degree)), data.draw(forms(chart, degree))
    zero = DiffForm.zero(chart, degree)
    for p, q in ((a, b), (b, a), (a, a), (a + b, a), (a, a + b), (a, zero), (zero, b)):
        got = p - q
        assert got == p + (-q)
        for coeff in got.terms.values():
            assert not coeff.is_zero
            assert_canonical(coeff)
    assert (a - a).is_zero


def test_form_difference_cancels_key_by_key():
    dx, dy = (DiffForm.d_coord(POLY, n) for n in "ab")
    f = RingElement.coordinate(POLY, "c")
    a = dx.scale(f) + dy
    b = dx.scale(f) - dy.scale(Scalar.of(2))
    got = a - b
    assert got.terms == {(1,): RingElement.constant(POLY, Scalar.of(3))}
    assert got == a + (-b)


# --- entrywise matrix comparisons ----------------------------------------------------


@st.composite
def square_scalar_matrices(draw):
    """A small square matrix over Gaussian integers, often a multiple of
    the identity, so that the test sees both verdicts."""
    size = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    m = [[Scalar.of(draw(small), draw(small)) for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        c = m[0][0]
        m = [[c if i == j else ZERO for j in range(size)] for i in range(size)]
    if draw(st.booleans()):  # one entry moved off the pattern
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        m[i][j] = m[i][j] + Scalar.of(draw(st.sampled_from((1, -1))), draw(small))
    return tuple(tuple(row) for row in m)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_entrywise_tests_are_comparison_with_negated_matrices(data):
    """`is_scalar_matrix` reads the entries; the oracle builds the scaled
    identity and compares, over Scalar entries and over constant ring
    entries."""
    m = data.draw(square_scalar_matrices())
    n = len(m)
    value = data.draw(st.sampled_from((ONE, -ONE, IMAG, m[0][0])))
    eye = identity(n)
    scaled = tuple(tuple(x * value for x in row) for row in eye)
    assert is_scalar_matrix(m, value) == (m == scaled)
    chart = data.draw(charts)

    def ring(a):
        return tuple(tuple(RingElement.constant(chart, x) for x in row) for row in a)

    assert is_scalar_matrix(ring(m), RingElement.constant(chart, value)) == (
        ring(m) == ring(scaled)
    )


# Two-coordinate charts, so that a structure matrix is 4 x 4.
PLANES = (
    make_chart(("a", "affine"), ("b", "affine")),
    make_chart(("p", "periodic"), ("q", "periodic")),
)


@st.composite
def swapped_halves(draw, chart):
    """A real 2n x 2n ring matrix, skew half the time, then with a nonzero
    diagonal entry, or an entry whose mirror is zero, or neither."""
    size = 2 * chart.dim

    def real():
        x = draw(elements(chart, 2))
        return x + x.conj()

    m = [[real() for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        m = [[m[i][j] - m[j][i] for j in range(size)] for i in range(size)]
    defect = draw(st.sampled_from(("none", "diagonal", "unmirrored")))
    i = draw(st.integers(0, size - 1))
    j = (i + draw(st.integers(1, size - 1))) % size
    one = RingElement.one(chart)
    if defect == "diagonal" and m[i][i].is_zero:
        m[i][i] = one
    elif defect == "unmirrored":
        m[j][i] = RingElement.zero(chart)
        if m[i][j].is_zero:
            m[i][j] = one
    return tuple(tuple(row) for row in m), defect


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_pairing_verdict_is_comparison_with_the_negated_transpose(data):
    """`GenStructure.algebraic` reads the pairing test on the nonzero
    entries of J; the oracle swaps J's row halves, the matrix S of G J up
    to a factor, and compares S with its negated transpose."""
    chart = data.draw(st.sampled_from(PLANES))
    swapped, defect = data.draw(swapped_halves(chart))
    n = chart.dim
    struct = GenStructure(chart, swapped[n:] + swapped[:n], DiffForm.zero(chart, 3))
    # The pairing is tested only once J^2 = -Id holds, which a drawn
    # matrix almost never does, so that verdict is fixed here.
    struct.__dict__["squares_to_minus_one"] = True
    skew = swapped == mat_neg(transpose(swapped))
    assert not (skew and defect != "none")
    if skew:
        assert struct.algebraic == (True, "real, squares to -Id, preserves the pairing")
    else:
        assert struct.algebraic == (False, pairing_failure(struct.matrix))


# --- the ring-matrix product ---------------------------------------------------------


@st.composite
def ring_matrices(draw, chart, rows, cols):
    return tuple(tuple(draw(elements(chart, 2)) for _ in range(cols)) for _ in range(rows))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_ring_matrix_product_is_mat_mul(data):
    """`rmat_mul` hands each entry's pairs to one sum of products; the
    oracle is the row-support product with ring `*` and `+`.  Half the
    time the factors are [a | a] and [b ; -b], so every entry cancels."""
    chart = data.draw(charts)
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(ring_matrices(chart, r, k))
    b = data.draw(ring_matrices(chart, k, c))
    cancel = data.draw(st.booleans())
    if cancel:
        a = tuple(row + row for row in a)
        b = b + mat_neg(b)
    product = rmat_mul(a, b)
    assert product == mat_mul(a, b)
    for row in product:
        for x in row:
            assert x.chart is chart
            assert_canonical(x)
    # The support product under it is the dense product's supports, with
    # no entry that cancelled.
    supports = support_mul(row_supports(a), row_supports(b))
    assert supports == row_supports(product)
    if cancel:
        assert all(x.is_zero for row in product for x in row)
        assert supports == tuple({} for _ in a)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_first_difference_is_the_first_nonzero_entry_of_the_difference(data):
    """`first_difference` reads two matrices' row supports; the oracle
    scans a - b densely in row-major order.  Half the time b is a with one
    entry moved, so the matrices differ in one place or not at all."""
    chart = data.draw(charts)
    size = data.draw(st.integers(1, 3))
    a = data.draw(ring_matrices(chart, size, size))
    if data.draw(st.booleans()):
        b = [list(row) for row in a]
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        b[i][j] = b[i][j] + data.draw(elements(chart, 1))
        b = mat(b)
    else:
        b = data.draw(ring_matrices(chart, size, size))
    dense = [
        (r, c, x)
        for r, row in enumerate(mat_add(a, mat_neg(b)))
        for c, x in enumerate(row)
        if not x.is_zero
    ]
    assert linalg.first_difference(row_supports(a), row_supports(b)) == (
        dense[0] if dense else None
    )
    assert linalg.support_transpose(row_supports(a)) == row_supports(transpose(a))


# --- the ring inverse --------------------------------------------------------------


@st.composite
def constant_matrices(draw, chart):
    """A square matrix of Gaussian-rational constants, n <= 6, made
    singular by a repeated or a zero row a third of the time."""
    size = draw(st.integers(1, 6))
    small = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    m = [
        [RingElement.constant(chart, Scalar.of(draw(small), draw(small))) for _ in range(size)]
        for _ in range(size)
    ]
    defect = draw(st.sampled_from(("none", "none", "repeated", "zero")))
    if defect == "repeated" and size > 1:
        m[-1] = list(m[0])
    elif defect == "zero":
        m[-1] = [RingElement.zero(chart)] * size
    return mat(m)


REFUSAL = "matrix determinant is not an invertible constant; no chart-wide inverse"


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_constant_ring_inverse_is_the_adjugate_over_the_determinant(data):
    """A matrix of constants is inverted by solve at its value, never by
    Faddeev-LeVerrier; the oracle is that loop's adjugate divided by its
    determinant, and a singular matrix is refused with the message the
    loop's zero determinant gives."""
    chart = data.draw(charts)
    m = data.draw(constant_matrices(chart))
    det, adjugate = linalg._det_and_adjugate(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_det_and_adjugate", None)  # not reached
        if det.is_zero:
            with pytest.raises(ValidationError) as refused:
                linalg.ring_inverse(m)
            assert str(refused.value) == REFUSAL
            return
        inverse = linalg.ring_inverse(m)
    assert inverse == linalg.rmat_scale(adjugate, det.constant_value().inverse())
    assert all(x.chart is chart and x.is_constant() for row in inverse for x in row)
    assert rmat_mul(m, inverse) == rmat_identity(chart, len(m))


def test_non_constant_ring_inverse_is_faddeev_leverrier(monkeypatch):
    """A matrix with a non-constant entry has no pivot loop over the ring:
    [[1, x], [0, 1]] goes through Faddeev-LeVerrier, and no solve runs."""
    one, x = RingElement.one(POLY), RingElement.coordinate(POLY, "a")
    zero = RingElement.zero(POLY)
    loops = []
    real = linalg._det_and_adjugate
    monkeypatch.setattr(linalg, "_det_and_adjugate", lambda m: loops.append(m) or real(m))
    monkeypatch.setattr(linalg, "solve", None)
    assert linalg.ring_inverse(((one, x), (zero, one))) == ((one, -x), (zero, one))
    assert len(loops) == 1
    with pytest.raises(ValidationError) as refused:
        linalg.ring_inverse(((x, zero), (zero, one)))
    assert str(refused.value) == REFUSAL


def test_ring_matrix_product_shapes():
    two = rmat_identity(POLY, 2)
    with pytest.raises(ValidationError, match="shapes do not compose"):
        rmat_mul(two, rmat_zeros(POLY, 3, 2))
    assert rmat_mul(((), ()), ()) == ((), ())
    assert rmat_mul((), two) == ()
    assert rmat_mul(two, rmat_zeros(POLY, 2, 0)) == ((), ())
    assert rmat_mul(two, two) == two


# --- one elimination per push-down, one solve per reduced structure ----------------


def inverse_by_rref(m):
    """The inverse as one elimination of [m | Id], as linalg once had it."""
    n = len(m)
    reduced, pivots = rref(tuple(row + e for row, e in zip(m, identity(n))))
    if pivots != tuple(range(n)):
        raise ValidationError("matrix is singular")
    return tuple(row[n:] for row in reduced)


def push_down_by_nullspace(rows, quot):
    """The meet with W and its image as three steps: the combinations of
    the rows whose outside coordinates vanish (a nullspace), their lift
    coordinates (a product), and the canonical basis of those."""
    lead = len(quot.lifts)
    cut = lead + len(quot.wperp)
    xs = [mat_vec(quot._change_of_basis, v) for v in rows]
    heads = mat([x[:lead] for x in xs])
    outside = transpose(mat([x[cut:] for x in xs]))
    if outside:
        heads = mat_mul(nullspace(outside), heads)
    return len(heads), row_space_basis(heads)


def eigen_matrix_by_inverse(plus, minus, value):
    """U D U^-1, with the rows of plus and minus as the columns of U."""
    u_cols = transpose(mat(tuple(plus) + tuple(minus)))
    values = [value] * len(plus) + [-value] * len(minus)
    scaled = tuple(tuple(x * v for x, v in zip(row, values)) for row in u_cols)
    return mat_mul(scaled, inverse_by_rref(u_cols))


def commutes_by_conjugation(moved, beta, red):
    """The reduction of moved against red conjugated by the descended
    e^beta, its inverse formed."""
    fiber = red.fiber
    reduced = dirac_reduce(moved, fiber).jmat
    if not fiber.m:
        return not reduced
    carrier = descend_endomorphism(rmat_eval(b_exponential(beta), fiber.point), fiber)
    return reduced == mat_mul(carrier, mat_mul(red.jmat, inverse_by_rref(carrier)))


GAUSSIAN = st.builds(Scalar.of, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def scalar_matrices(draw, rows, cols):
    return tuple(tuple(draw(GAUSSIAN) for _ in range(cols)) for _ in range(rows))


@cache
def catalog_fibers():
    """(scenario/point, FiberData) at every catalog point whose reduction
    data is valid."""
    out = []
    for name in catalog_names():
        ws = Workspace(load_builtin(name))
        for point in sorted(ws.scen.points):
            try:
                out.append((f"{name}/{point}", ws.fiber(point)))
            except ValidationError:
                continue
    return tuple(out)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_push_down_is_the_nullspace_product_on_drawn_rows(data):
    """Independent rows, some of them in W, over every catalog fiber."""
    label, fiber = data.draw(st.sampled_from(catalog_fibers()))
    dim = 2 * fiber.n
    w = fiber.lifts + fiber.wperp
    rows = []
    for _ in range(data.draw(st.integers(1, min(4, dim)))):
        if data.draw(st.booleans()):
            rows.append(mat_vec(transpose(mat(w)), [data.draw(GAUSSIAN) for _ in w]))
        else:
            rows.append(tuple(data.draw(GAUSSIAN) for _ in range(dim)))
    assume(rank(mat(rows)) == len(rows))
    assert _push_down(rows, fiber) == push_down_by_nullspace(rows, fiber), label


def run_catalog_comparing(monkeypatch, module, name, oracle):
    """Run every builtin scenario with module.name replaced by a wrapper
    that asserts the oracle's answer on each call; returns the calls."""
    real = getattr(module, name)
    seen = []

    def compared(*args):
        got = real(*args)
        assert got == oracle(*args)
        seen.append(got)
        return got

    monkeypatch.setattr(module, name, compared)
    for scen in catalog_names():
        verdicts, _ = run_scenario(load_builtin(scen))
        assert verdicts
    return seen


def test_push_down_is_the_nullspace_product_on_the_catalog(monkeypatch):
    """Every push-down a catalog pass makes: each eigenbundle through the
    one-step quotient and both two-step stages, and each C+ of a pair."""
    seen = run_catalog_comparing(monkeypatch, reduction, "_push_down", push_down_by_nullspace)
    assert len(seen) > 50
    assert any(meet > len(basis) for meet, basis in seen)  # a meet with kernel


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_solve_is_the_inverse_times_b(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(scalar_matrices(n, n))
    if data.draw(st.booleans()):  # a repeated row: singular
        a = a[:-1] + a[:1]
    b = data.draw(scalar_matrices(n, data.draw(st.integers(1, 5))))
    try:
        want = mat_mul(inverse_by_rref(a), b)
    except ValidationError:
        with pytest.raises(ValidationError, match="matrix is singular"):
            solve(a, b)
        return
    assert solve(a, b) == want
    assert solve(a, identity(n)) == inverse_by_rref(a)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_eigen_matrix_is_u_d_u_inverse(data):
    """Drawn eigenvectors, independent or not: the same matrix, or the
    same refusal."""
    size = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, size))
    rows = data.draw(scalar_matrices(size, size))
    value = data.draw(st.sampled_from((ONE, IMAG, Scalar.of(2, -1))))
    plus, minus = rows[:k], rows[k:]
    try:
        want = eigen_matrix_by_inverse(plus, minus, value)
    except ValidationError:
        with pytest.raises(ValidationError, match="matrix is singular"):
            reduction._eigen_matrix(plus, minus, value)
        return
    assert reduction._eigen_matrix(plus, minus, value) == want


def test_eigen_matrix_is_u_d_u_inverse_on_the_catalog(monkeypatch):
    """Every reduced structure and every G~ of a catalog pass."""
    seen = run_catalog_comparing(monkeypatch, reduction, "_eigen_matrix", eigen_matrix_by_inverse)
    assert len(seen) > 20


def test_reduction_commutes_is_conjugation_on_the_catalog(monkeypatch):
    """Every point that b_commute or reduction:independence judges."""
    seen = run_catalog_comparing(
        monkeypatch, runner, "_reduction_commutes", commutes_by_conjugation
    )
    assert len(seen) >= 5


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_commuting_with_c_is_conjugating_by_c(data):
    """For an invertible C, R C = C J exactly when R = C J C^-1: drawn C
    and J, with R the conjugate or the conjugate with one entry moved."""
    n = data.draw(st.integers(1, 4))
    c = data.draw(scalar_matrices(n, n))
    assume(rank(c) == n)
    j = data.draw(scalar_matrices(n, n))
    conjugate = mat_mul(c, mat_mul(j, inverse_by_rref(c)))
    r = [list(row) for row in conjugate]
    if data.draw(st.booleans()):
        r[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += ONE
    r = mat(r)
    assert (mat_mul(r, c) == mat_mul(c, j)) == (r == conjugate)


# --- identity-suite draws --------------------------------------------------------------


def rand_field_by_adding(rng, chart):
    """A drawn field as the suite once built it: one ring sum per term."""
    mons = selftest._MONOMIALS[chart]
    out = RingElement.zero(chart)
    for _ in range(rng.randrange(2, 4)):
        c = rng.randrange(-3, 4)
        out = out + rng.choice(mons).scale(Scalar.of(c))
    return out


def rand_form_by_wedging(rng, chart, degree):
    """A drawn form as the suite once built it: each basis form a wedge of
    coordinate differentials, scaled by a drawn field and added."""
    if degree == 0:
        return DiffForm.function(rand_field_by_adding(rng, chart))
    out = DiffForm.zero(chart, degree)
    for names in combinations(chart.names, degree):
        basis = reduce(DiffForm.wedge, [DiffForm.d_coord(chart, n) for n in names])
        out = out + basis.scale(rand_field_by_adding(rng, chart))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 39, selftest.SEED])
def test_identity_suite_draws_are_the_wedged_sums(seed):
    """The same forms and fields, the same text, and the generator left
    in the same state, so every later draw is the same too."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for chart in selftest._CHARTS:
        for degree in range(4):
            got = selftest._rand_form(ours, chart, degree)
            want = rand_form_by_wedging(theirs, chart, degree)
            assert got == want and str(got) == str(want)
            f, g = selftest._rand_field(ours, chart), rand_field_by_adding(theirs, chart)
            assert f == g and str(f) == str(g)
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", [5, 23])
def test_identity_suite_results_match_the_wedged_sums(monkeypatch, seed):
    got = selftest.invariant_results(seed)
    monkeypatch.setattr(selftest, "_rand_field", rand_field_by_adding)
    monkeypatch.setattr(selftest, "_rand_form", rand_form_by_wedging)
    assert got == selftest.invariant_results(seed)


# --- the identity suite in two shares --------------------------------------------------


def usable_cpus(monkeypatch, cpus):
    """The number of CPUs the suite sees, hence its number of shares."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def counted_forks(monkeypatch):
    """A list that gains one entry per os.fork call in this process."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def results_in(monkeypatch, seed, cpus):
    """The suite's results when it sees `cpus` CPUs; checks that it forked
    once for two shares and never for one, and left no child behind."""
    forks = counted_forks(monkeypatch)
    usable_cpus(monkeypatch, cpus)
    try:
        return selftest.invariant_results(seed)
    finally:
        assert len(forks) == (cpus >= 2)
        assert_no_child_left()


def first_of_parity(identity, parity):
    """The number of the first instance of an identity with that parity."""
    start = sum(len(selftest._cases(axes)) for _, axes, _ in selftest._IDENTITIES[:identity])
    return start + (start % 2 != parity)


def numbered_generators(monkeypatch):
    """Make the suite draw from generators that keep their instance's
    number, read from the seed text f"{seed}:{number}"; returns the list
    of the numbers of the generators made in this process, in order."""
    made = []

    class Numbered(random.Random):
        def __init__(self, text):
            super().__init__(text)
            self.number = int(text.rpartition(":")[2])
            made.append(self.number)

    monkeypatch.setattr(selftest, "random", SimpleNamespace(Random=Numbered))
    return made


def plant(monkeypatch, effects):
    """Replace the check of each instance numbered in `effects` by its
    effect.  The planted check knows its instance by the number that its
    generator was seeded with, which is the same in every share."""
    numbered_generators(monkeypatch)

    def planted(name, axes, check):
        def judged(rng, *case):
            effect = effects.get(rng.number)
            return effect() if effect else check(rng, *case)

        return name, axes, judged

    monkeypatch.setattr(
        selftest, "_IDENTITIES", tuple(planted(*identity) for identity in selftest._IDENTITIES)
    )


@pytest.mark.parametrize("share", [0, 1])
@pytest.mark.parametrize("seed", [1, 2, 3, 17, 39, selftest.SEED])
def test_a_share_draws_and_judges_only_its_instances(monkeypatch, seed, share):
    """Share s of two gives the one-process verdicts of the instances
    numbered s mod 2, and makes the generators of those instances alone."""
    whole = selftest._judge(seed, 0, 1)
    made = numbered_generators(monkeypatch)
    assert selftest._judge(seed, share, 2) == whole[share::2]
    assert made == list(range(share, len(whole), 2))


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 39, selftest.SEED])
def test_identity_suite_results_do_not_depend_on_the_shares(monkeypatch, seed):
    assert results_in(monkeypatch, seed, 1) == results_in(monkeypatch, seed, 2)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_planted_failure_of_either_parity_fails_only_its_identity(monkeypatch, cpus):
    want = selftest.invariant_results(5)
    assert all(r["status"] == "pass" for r in want)

    def fail():
        return False

    plant(monkeypatch, {first_of_parity(2, 0): fail, first_of_parity(7, 1): fail})
    got = results_in(monkeypatch, 5, cpus)
    for i, r in enumerate(want):
        if i in (2, 7):
            r = dict(r, status="fail")
        assert got[i] == r


def test_a_failed_fork_gives_the_same_results(monkeypatch):
    want = results_in(monkeypatch, 3, 1)
    usable_cpus(monkeypatch, 2)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    assert selftest.invariant_results(3) == want
    assert_no_child_left()


class Planted(Exception):
    pass


class PlantedEarlier(Exception):
    pass


def test_an_exception_in_the_child_alone_gives_the_same_results(monkeypatch):
    """The child exits nonzero and the parent judges its share itself."""
    want = results_in(monkeypatch, 3, 1)
    parent = os.getpid()

    def raise_in_child():
        if os.getpid() != parent:
            raise Planted
        return True

    plant(monkeypatch, {first_of_parity(4, 1): raise_in_child})
    assert results_in(monkeypatch, 3, 2) == want


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("cpus", [1, 2])
def test_an_exception_in_a_check_reaches_the_caller(monkeypatch, parity, cpus):
    """A check that raises in either share raises the sequential suite's
    exception, and the child is reaped, killed first when the parent
    leaves early."""

    def raise_planted():
        raise Planted

    plant(monkeypatch, {first_of_parity(6, parity): raise_planted})
    with pytest.raises(Planted):
        results_in(monkeypatch, 3, cpus)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("cpus", [1, 2])
def test_the_first_exception_in_suite_order_reaches_the_caller(monkeypatch, parity, cpus):
    """Checks that raise in both shares: the caller sees the exception of
    the earlier instance, as in one process, whichever share judges it."""

    def raise_earlier():
        raise PlantedEarlier

    def raise_planted():
        raise Planted

    plant(
        monkeypatch,
        {first_of_parity(3, parity): raise_earlier, first_of_parity(6, 1 - parity): raise_planted},
    )
    with pytest.raises(PlantedEarlier):
        results_in(monkeypatch, 3, cpus)


# --- the pivot loop on sparse triples ----------------------------------------------------


def dense_eliminate(m):
    """Oracle: the dense Scalar Gauss-Jordan loop that `_eliminate`
    replaced.  It scales the whole support of each pivot row, the pivot
    included, and clears every other row at that support with Scalar
    products and differences."""
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots, values, swapped = [], [], []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c]), None)
        if pivot is None:
            continue
        swapped.append(pivot != r)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        value = rows[r][c]
        inv = value.inverse()
        pivot_row = rows[r]
        support = [(j, pivot_row[j] * inv) for j in range(c, nc) if pivot_row[j]]
        for j, y in support:
            pivot_row[j] = y
        for i in range(nr):
            row = rows[i]
            factor = row[c]
            if i != r and factor:
                for j, y in support:
                    row[j] = row[j] - factor * y
        pivots.append(c)
        values.append(value)
        r += 1
        if r == nr:
            break
    return rows, pivots, values, swapped


# Numerators near 2^50 over denominators near 2^25: the heights a
# fiber_sweep pass reaches (its linalg.max_height_bits is about 50).
HIGH = st.builds(
    Fraction, st.integers(-(1 << 50), 1 << 50), st.integers(1, 1 << 25)
)
PIVOT_ENTRIES = st.one_of(
    st.just(ZERO),
    st.sampled_from((ONE, -ONE, IMAG, Scalar.of(2, -1), Scalar.of(Fraction(1, 3)))),
    GAUSSIAN,
    st.builds(Scalar.of, HIGH, st.one_of(st.just(0), HIGH)),
)


@st.composite
def elimination_inputs(draw, rows, cols):
    """A rows x cols matrix over PIVOT_ENTRIES, mostly zeros, with a drawn
    row and a drawn column sometimes zeroed out."""
    m = [
        [draw(PIVOT_ENTRIES) if draw(st.booleans()) else ZERO for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [ZERO] * cols
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = ZERO
    return tuple(tuple(row) for row in m)


def assert_canonical_entries(rows):
    for row in rows:
        for x in row:
            a, b, d = x._a, x._b, x._d
            assert d > 0 and gcd(a, b, d) == 1 and (a or b or d == 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_eliminate_is_the_dense_scalar_loop(data):
    """All four outputs, on wide, tall and square shapes."""
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
    m = data.draw(elimination_inputs(rows, cols))
    got = linalg._eliminate(m)
    assert got == dense_eliminate(m)
    assert_canonical_entries(got[0])
    assert all(type(x) is Scalar for row in got[0] for x in row)
    assert all(type(v) is Scalar for v in got[2])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_elimination_readers_are_the_dense_scalar_loop(data):
    """rref, solve and Sylvester's test read the same answers from the
    sparse loop as from the dense one."""
    n = data.draw(st.integers(1, 4))
    wide = data.draw(elimination_inputs(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))))
    a = data.draw(elimination_inputs(n, n))
    b = data.draw(elimination_inputs(n, data.draw(st.integers(1, 3))))
    real = tuple(tuple(Scalar.of(x.re) for x in row) for row in a)

    def answers():
        try:
            solved = solve(a, b)
        except ValidationError as exc:
            solved = str(exc)
        return rref(wide), solved, is_positive_definite(real)

    got = answers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", dense_eliminate)
        want = answers()
    assert got == want
