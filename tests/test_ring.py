"""Tests for the exact function ring: parsing, arithmetic, derivatives,
conjugation, evaluation and canonical printing."""

from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from gkbench import ring
from gkbench.errors import ChartMismatchError, ParseError, ValidationError
from gkbench.ring import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_TERMS,
    EvalPoint,
    RingElement,
    Scalar,
    make_chart,
    parse_expr,
)

MIXED = make_chart(("x", "affine"), ("y", "periodic"), ("t", "affine"))
TORUS = make_chart(("p", "periodic"), ("q", "periodic"))


def elem(text, chart=MIXED):
    return parse_expr(text, chart)


class TestScalar:
    def test_arithmetic(self):
        a = Scalar.of(Fraction(1, 2), 3)
        b = Scalar.of(2, Fraction(-1, 3))
        assert a + b == Scalar.of(Fraction(5, 2), Fraction(8, 3))
        assert a * b == Scalar.of(2, Fraction(35, 6))

    def test_inverse(self):
        a = Scalar.of(3, 4)
        assert a * a.inverse() == Scalar.of(1)
        with pytest.raises(ZeroDivisionError):
            Scalar.of(0).inverse()

    def test_conj(self):
        assert Scalar.of(1, 2).conj() == Scalar.of(1, -2)


class TestParsing:
    def test_polynomial(self):
        e = elem("2*x^2 + I*E(y;1)")
        assert e.terms == {
            (2, 0, 0): Scalar.of(2),
            (0, 1, 0): Scalar.of(0, 1),
        }

    def test_cancellation(self):
        assert elem("x - x").is_zero

    def test_fourier_inverse_pair(self):
        assert elem("E(y;1)*E(y;-1)") == RingElement.one(MIXED)

    def test_rational_coefficients(self):
        e = elem("3/4*x - 1/4*x")
        assert e == elem("1/2*x")

    def test_leading_sign(self):
        assert elem("-x + x").is_zero
        assert elem("+t") == elem("t")

    def test_cos_sin_expand(self):
        c = elem("cos(y)")
        s = elem("sin(y)")
        # cos^2 + sin^2 = 1 must hold exactly.
        assert c * c + s * s == RingElement.one(MIXED)
        # Euler: E(y;1) = cos(y) + I*sin(y).
        assert c + s.scale(Scalar.of(0, 1)) == elem("E(y;1)")

    def test_power(self):
        assert elem("(x + 1)^2") == elem("x^2 + 2*x + 1")

    def test_nested_parens(self):
        assert elem("x*(t - (x - t))") == elem("2*x*t - x^2")

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            elem("x + @")
        assert exc.value.position == 4

    def test_unknown_coordinate(self):
        with pytest.raises(ParseError, match="unknown coordinate 'z'"):
            elem("z + 1")

    def test_periodic_as_polynomial_rejected(self):
        with pytest.raises(ParseError, match="polynomial degree"):
            elem("y + 1")

    def test_fourier_on_affine_rejected(self):
        with pytest.raises(ParseError, match="affine, not periodic"):
            elem("E(x;1)")

    def test_cos_on_affine_rejected(self):
        with pytest.raises(ParseError, match="affine, not periodic"):
            elem("cos(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            elem("x 2")

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            elem("1/0")

    def test_exponents_are_bounded(self):
        top = MAX_EXPONENT
        assert elem(f"x^{top}").terms == {(top, 0, 0): Scalar.of(1)}
        assert elem(f"E(y;-{top})").terms == {(0, -top, 0): Scalar.of(1)}
        too_big = (f"x^{top + 1}", f"E(y;{top + 1})", f"E(y;-{top + 1})")
        for text in too_big + ("x^" + "9" * 5000,):
            with pytest.raises(ParseError, match="exceeds the bound"):
                elem(text)

    def test_products_and_powers_are_bounded(self):
        top = MAX_EXPONENT
        assert elem(f"x^{top // 2}*x^{top // 2}").terms == {(top, 0, 0): Scalar.of(1)}
        assert elem(f"E(y;{top})*E(y;-{top})") == elem("1")
        hostile = (
            "(((x^16)^16)^16)^2",
            "*".join(["x"] * (top + 1)),
            f"x^{top // 2}*x^{top // 2 + 1}",
            f"E(y;{top // 2 + 1})^2",
            f"(x + t)^{top}*t",
        )
        for text in hostile:
            with pytest.raises(ParseError, match="exponent exceeds the bound"):
                elem(text)

    def test_bound_edges_keep_their_messages_and_positions(self):
        """Both sides of each bound, by text: a product whose factors'
        largest exponents sum past MAX_EXPONENT on different coordinates
        is accepted, on one coordinate it is refused at its '*' or '^'."""
        assert MAX_EXPONENT == 16 and MAX_TERMS == 1000
        accepted = {
            "x^16": "x^16",
            "x^16*t": "x^16*t",
            "x^8*x^8": "x^16",
            "E(y;-16)": "E(y;-16)",
            "E(y;-16)*E(y;16)": "1",
            "E(y;-8)^2": "E(y;-16)",
            "E(y;-1)^16": "E(y;-16)",
            "x^16*(t + E(y;-16))": "x^16*t + x^16*E(y;-16)",
            "00012/0008*x^16": "3/2*x^16",
            "0/5": "0",
        }
        for text, printed in accepted.items():
            assert str(elem(text)) == printed, text
        assert len(elem("(1 + x + t + x*t + E(y;1))^9").terms) == 385
        refused = {
            "x^17": ("integer exceeds the bound 16", 2),
            "x^16*x": ("exponent exceeds the bound 16", 4),
            "x*x^16": ("exponent exceeds the bound 16", 1),
            "x^8*x^9": ("exponent exceeds the bound 16", 3),
            "E(y;-17)": ("integer exceeds the bound 16", 5),
            "E(y;-16)*E(y;-1)": ("exponent exceeds the bound 16", 8),
            "E(y;-8)^3": ("exponent exceeds the bound 16", 8),
            "(x^16 + t)^2": ("exponent exceeds the bound 16", 11),
            "(1 + x + t + x*t + E(y;1))^10": (
                "product or power could exceed 1000 terms",
                27,
            ),
        }
        for text, (message, position) in refused.items():
            with pytest.raises(ParseError) as info:
                elem(text)
            assert (str(info.value), info.value.position) == (
                f"{message} (at position {position})",
                position,
            ), text

    def test_product_terms_are_bounded(self):
        # (x + y + t + 1)^p has comb(p + 3, 3) terms, the bound the parser
        # judges from the four operand terms before building the power.
        assert len(elem("(x + t + E(y;1) + 1)^8").terms) == comb(11, 3)
        assert len(elem("(x + t + 1)^2*(x + t + 2)^2").terms) == 15
        for text in (
            "(x + t + E(y;1) + x*t + 1)^16",
            f"({' + '.join(['x^2', 'x', 't', 't^2', 'x*t', '1'])})^8",
            "(x + t + E(y;1) + x*t + 1)^4*(x + t + E(y;-1) + x*t + 2)^4",
        ):
            with pytest.raises(ParseError, match=f"exceed {MAX_TERMS} terms"):
                elem(text)

    def test_numerals_are_bounded(self):
        assert elem("0" * 5000 + "7") == elem("7")
        for text in ("1" * (MAX_DIGITS + 1), "1/" + "3" * 5000):
            with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
                elem(text)

    def test_only_ascii_digits_are_numerals(self):
        with pytest.raises(ParseError, match="unexpected character"):
            elem("x^\u00b2")


def per_coordinate_check(factors, pos):
    """The parser's bound check in its per-coordinate form, one pass over
    a factor's terms per coordinate and per bound: the oracle for
    `ring._check_product`, which walks the coordinates only when the
    factors' largest |exponent|s, each times its power, sum past the
    bound."""
    if all(f.terms for f, _ in factors):
        for i in range(factors[0][0].chart.dim):
            for pick in (max, min):
                reach = sum(p * pick(e[i] for e in f.terms) for f, p in factors)
                if abs(reach) > MAX_EXPONENT:
                    raise ParseError(f"exponent exceeds the bound {MAX_EXPONENT}", pos)
    terms = prod(comb(max(len(f.terms) + p - 1, 0), p) for f, p in factors)
    if terms > MAX_TERMS:
        raise ParseError(f"product or power could exceed {MAX_TERMS} terms", pos)


def bound_verdict(check, factors, pos=7):
    """None when the check accepts, else its message and position."""
    try:
        check(factors, pos)
    except ParseError as exc:
        return str(exc), exc.position
    return None


def monomials(chart, exponents):
    return RingElement(chart, {e: Scalar.of(1) for e in exponents})


@st.composite
def bound_factors(draw):
    """One factor to a power, or two factors to the first power, over the
    mixed chart, sometimes a zero factor.  Exponents reach up to 1, so
    that many-term powers meet the term bound, or near MAX_EXPONENT, so
    that sums of exponents meet the exponent bound; a periodic exponent
    takes either sign."""
    reach = draw(st.sampled_from((1, MAX_EXPONENT // 2 + 1, MAX_EXPONENT)))
    slot = (st.integers(0, reach), st.integers(-reach, reach), st.integers(0, reach))

    def factor():
        count = draw(st.integers(0, 6))
        exponents = draw(st.lists(st.tuples(*slot), min_size=count, max_size=count, unique=True))
        return monomials(MIXED, exponents)

    if draw(st.booleans()):
        return ((factor(), draw(st.integers(0, MAX_EXPONENT))),)
    return ((factor(), 1), (factor(), 1))


class TestBoundCheck:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(bound_factors())
    def test_is_the_per_coordinate_check(self, factors):
        assert bound_verdict(ring._check_product, factors) == bound_verdict(
            per_coordinate_check, factors
        )

    def test_boundaries(self):
        top = MAX_EXPONENT
        exponent_over = (f"exponent exceeds the bound {top} (at position 7)", 7)
        terms_over = (f"product or power could exceed {MAX_TERMS} terms (at position 7)", 7)

        def one(*exponents):
            return monomials(MIXED, exponents)

        at_top = (
            ((one((top, 0, 0)), 1),),
            ((one((0, -1, 0)), top),),
            ((one((0, -top, 0), (0, 3, 0)), 1),),
            ((one((0, 2, 0)), 1), (one((0, top - 2, 0)), 1)),
            ((one((0, -2, 0)), 1), (one((0, 2 - top, 0)), 1)),
        )
        over = (
            ((one((top, 0, 0)), 1), (one((1, 0, 0)), 1)),
            ((one((0, -1, 0)), top + 1),),
            ((one((0, 1, 0), (0, -3, 0)), 6),),
            ((one((0, -2, 0)), 1), (one((0, 1 - top, 0)), 1)),
        )
        for factors in at_top:
            assert bound_verdict(ring._check_product, factors) is None
        for factors in over:
            assert bound_verdict(ring._check_product, factors) == exponent_over
        # A factor with no terms bounds no exponent.
        assert bound_verdict(ring._check_product, ((one(), 1), (one((top + 5, 0, 0)), 1))) is None
        # Factors of 40 and 25 terms reach MAX_TERMS exactly; 40 and 26
        # pass it.
        grid = [(a, 0, b) for a in range(8) for b in range(8)]
        forty = one(*grid[:40])
        assert bound_verdict(ring._check_product, ((forty, 1), (one(*grid[:25]), 1))) is None
        assert bound_verdict(ring._check_product, ((forty, 1), (one(*grid[:26]), 1))) == terms_over
        # A five-term factor to the power p has comb(p + 4, 4) terms: 715
        # at p = 9 and 1001 at p = 10.
        five = one((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 0))
        assert comb(9 + 4, 4) < MAX_TERMS < comb(10 + 4, 4)
        assert bound_verdict(ring._check_product, ((five, 9),)) is None
        assert bound_verdict(ring._check_product, ((five, 10),)) == terms_over


class TestExponentKeys:
    """Inside the kernel an exponent is one int with a signed 32-bit field
    per coordinate.  The constructor takes |e| < 2^30, and every key a
    product makes must keep each field in [-2^30, 2^30): a product that
    leaves the range raises, and one at its edge decodes to its exponent."""

    TOP = 2**30

    def test_constructor_refuses_exponents_of_2_to_the_30(self):
        for expo in ((self.TOP, 0, 0), (0, -self.TOP, 0), (0, 0, self.TOP + 5)):
            with pytest.raises(ValidationError, match="2\\^30"):
                RingElement(MIXED, {expo: Scalar.of(1)})
        edge = {(self.TOP - 1, 1 - self.TOP, self.TOP - 1): Scalar.of(2)}
        assert RingElement(MIXED, edge).terms == edge

    def test_products_at_the_edge_round_trip(self):
        x = RingElement(MIXED, {(self.TOP - 2, 0, 0): Scalar.of(1)})
        y = RingElement(MIXED, {(0, 1 - self.TOP, 1): Scalar.of(3)})
        one = RingElement.one(MIXED)
        assert (x * elem("x")).terms == {(self.TOP - 1, 0, 0): Scalar.of(1)}
        assert ((x + one) * (elem("x") + one)).terms[(self.TOP - 1, 0, 0)] == Scalar.of(1)
        # -2^30 is the low end of the range a product may reach; its
        # conjugate, 2^30, still decodes, and the fields beside it keep
        # their values.
        low = y * elem("E(y;-1)*t")
        assert low.terms == {(0, -self.TOP, 2): Scalar.of(3)}
        assert low.conj().terms == {(0, self.TOP, 2): Scalar.of(3)}
        assert (low + elem("x")).partial("t").terms == {(0, -self.TOP, 1): Scalar.of(6)}

    def test_products_past_the_edge_raise(self):
        x = RingElement(MIXED, {(self.TOP - 1, 0, 0): Scalar.of(1)})
        y = RingElement(MIXED, {(0, 1 - self.TOP, 0): Scalar.of(1)})
        t = RingElement(MIXED, {(0, 0, self.TOP - 1): Scalar.of(1)})
        one = RingElement.one(MIXED)
        for product in (
            lambda: x * elem("x"),  # the monomial shift
            lambda: elem("x") * x,
            lambda: (x + one) * (elem("x") + one),  # the product loop
            lambda: y * elem("E(y;-2)"),  # a field below -2^30
            lambda: (y + one) * (elem("E(y;-2)") + one),
            lambda: t * t,  # the top field
            lambda: RingElement(MIXED, {(2**15, 0, 0): Scalar.of(1)}) ** (2**15),
            lambda: ring.sum_of_products(MIXED, ((1, x, elem("x")), (-1, x, elem("x")))),
        ):
            with pytest.raises(ValidationError, match="leaves the range"):
                product()


class TestChart:
    def test_reserved_names_rejected(self):
        for bad in ("I", "E", "cos", "sin"):
            with pytest.raises(ValidationError):
                make_chart((bad, "affine"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            make_chart(("x", "affine"), ("x", "periodic"))

    def test_built_once_and_compared_by_coordinates(self):
        again = make_chart(("x", "affine"), ("y", "periodic"), ("t", "affine"))
        assert again is not MIXED and again == MIXED and hash(again) == hash(MIXED)
        assert MIXED.names == ("x", "y", "t")
        assert MIXED.affine == (True, False, True)
        assert [MIXED.index(n) for n in MIXED.names] == [0, 1, 2]
        assert make_chart(("x", "affine")) != make_chart(("x", "periodic"))
        for bad in ("z", ["x"], None):
            with pytest.raises(ValidationError, match="unknown coordinate"):
                MIXED.index(bad)

    def test_chart_mismatch(self):
        other = make_chart(("x", "affine"))
        with pytest.raises(ChartMismatchError):
            elem("x") + parse_expr("x", other)


class TestCalculus:
    def test_partial_affine(self):
        assert elem("x^3").partial("x") == elem("3*x^2")
        assert elem("t").partial("x").is_zero

    def test_partial_periodic(self):
        # d/dy e^{iky} = i k e^{iky}
        assert elem("E(y;2)").partial("y") == elem("2*I*E(y;2)")
        assert elem("cos(y)").partial("y") == elem("-sin(y)")
        assert elem("sin(y)").partial("y") == elem("cos(y)")

    def test_partials_commute(self):
        e = elem("x^2*E(y;1) + t*x*E(y;-2)")
        assert e.partial("x").partial("y") == e.partial("y").partial("x")

    def test_conj(self):
        e = elem("I*x + E(y;1)")
        assert e.conj() == elem("-I*x + E(y;-1)")
        assert elem("cos(y)").is_real
        assert elem("sin(y)").is_real
        assert not elem("I*x").is_real


class TestEvaluation:
    def test_polynomial_point(self):
        p = EvalPoint.at(MIXED, x=Fraction(3, 2), y=0, t=0)
        assert elem("x^2").evaluate(p) == Scalar.of(Fraction(9, 4))

    def test_quarter_turns(self):
        # E(y;1) at y = pi/2 (q=1) is i; at pi (q=2) is -1.
        p1 = EvalPoint.at(MIXED, x=0, y=1, t=0)
        p2 = EvalPoint.at(MIXED, x=0, y=2, t=0)
        assert elem("E(y;1)").evaluate(p1) == Scalar.of(0, 1)
        assert elem("E(y;1)").evaluate(p2) == Scalar.of(-1)
        assert elem("cos(y)").evaluate(p1) == Scalar.of(0)
        assert elem("sin(y)").evaluate(p1) == Scalar.of(1)

    def test_point_validation(self):
        with pytest.raises(ValidationError, match="quarter turns"):
            EvalPoint.at(MIXED, x=0, y=Fraction(1, 2), t=0)
        with pytest.raises(ValidationError, match="missing"):
            EvalPoint.at(MIXED, x=0, y=0)


# --- property tests ----------------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def ring_elements(draw, chart=MIXED):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        expo = []
        for _, kind in chart.coords:
            if kind == "affine":
                expo.append(draw(st.integers(0, 3)))
            else:
                expo.append(draw(st.integers(-2, 2)))
        terms[tuple(expo)] = Scalar(draw(coeffs), draw(coeffs))
    return RingElement(chart, terms)


@st.composite
def points(draw, chart=MIXED):
    named = {}
    for name, kind in chart.coords:
        if kind == "affine":
            named[name] = draw(coeffs)
        else:
            named[name] = draw(st.integers(-3, 3))
    return EvalPoint.from_mapping(chart, named)


@settings(max_examples=60, derandomize=True)
@given(ring_elements(), ring_elements(), points())
def test_evaluation_is_a_homomorphism(a, b, p):
    assert (a * b).evaluate(p) == a.evaluate(p) * b.evaluate(p)
    assert (a + b).evaluate(p) == a.evaluate(p) + b.evaluate(p)


@settings(max_examples=60, derandomize=True)
@given(ring_elements(), ring_elements())
def test_product_rule(a, b):
    for name in ("x", "y", "t"):
        lhs = (a * b).partial(name)
        rhs = a.partial(name) * b + a * b.partial(name)
        assert lhs == rhs


@settings(max_examples=60, derandomize=True)
@given(ring_elements())
def test_conj_is_an_involution(a):
    assert a.conj().conj() == a


@settings(max_examples=80, derandomize=True)
@given(ring_elements())
def test_print_parse_round_trip(a):
    assert parse_expr(str(a), MIXED) == a


@settings(max_examples=40, derandomize=True)
@given(ring_elements(TORUS), ring_elements(TORUS))
def test_torus_multiplication_commutes(a, b):
    assert a * b == b * a



def assert_canonical(r):
    """No zero coefficient is stored, and the validating constructor
    rebuilds an equal element from the stored terms."""
    assert all(not c.is_zero for c in r.terms.values())
    assert RingElement(r.chart, dict(r.terms)) == r


@settings(max_examples=60, derandomize=True)
@given(ring_elements(), ring_elements(), coeffs, coeffs)
def test_operation_results_are_canonical(a, b, re, im):
    """Results of the ring operations are built without a final filter;
    the cases include sums and products whose terms cancel (a - a, and
    the cross terms of (a + b) * (a - b)) and scaling by zero."""
    s = Scalar(re, im)
    results = [
        a + b, a - b, a - a, (a + b) - b, a * b, (a + b) * (a - b), a * b - b * a,
        -a, a.scale(s), a.scale(Scalar()), a.conj(), a - a.conj(),
    ]
    results += [a.partial(name) for name in MIXED.names]
    results += [(a * b).partial(name) - a.partial(name) * b for name in MIXED.names]
    for r in results:
        assert_canonical(r)

def test_printing_examples():
    assert str(elem("0")) == "0"
    assert str(elem("-x")) == "-x"
    assert str(elem("x - t")) == "x - t"
    assert str(elem("1/2*x^2 - I*E(y;-1)")) == "1/2*x^2 - I*E(y;-1)"
    assert str(elem("(1 + 2*I)*x")) == "(1+2*I)*x"


# Texts the one-pass lexer must read as the per-character lexer did: each
# to its printed element, or to its message and position.  Non-ASCII
# letters and digits, spaces inside a rational, leading zeros, the
# MAX_DIGITS edge, zero denominators and trailing input.
ONE_PASS_TEXTS = {
    "x²": ("unknown coordinate 'x²'", 0),
    "²": ("unexpected character '²'", 0),
    "x^²": ("unexpected character '²'", 2),
    "2²": ("unexpected character '²'", 1),
    "١": ("unexpected character '١'", 0),
    "1١": ("unexpected character '١'", 1),
    "x١": ("unknown coordinate 'x١'", 0),
    "é": ("unknown coordinate 'é'", 0),
    "xé": ("unknown coordinate 'xé'", 0),
    "١/2": ("unexpected character '١'", 0),
    "1 / 2": "1/2",
    " 1/2 ": "1/2",
    "1/ 2": "1/2",
    "1 /2": "1/2",
    "1/ x": ("expected 'num', found 'x'", 3),
    "1/": ("expected 'num', found ''", 2),
    "/2": ("unexpected token '/'", 0),
    "1//2": ("expected 'num', found '/'", 2),
    "1/2/3": ("unexpected trailing input '/'", 3),
    "1/2*x": "1/2*x",
    "1/2x": ("unexpected trailing input 'x'", 3),
    "007": "7",
    "007*x": "7*x",
    "00/1": "0",
    "1/00": ("zero denominator", 2),
    "0/0": ("zero denominator", 2),
    "1/0": ("zero denominator", 2),
    "1/000": ("zero denominator", 2),
    "0001/0002": "1/2",
    "1" * MAX_DIGITS: "1" * MAX_DIGITS,
    "1" * (MAX_DIGITS + 1): (f"numeral has more than {MAX_DIGITS} digits", 0),
    "0" * 5 + "1" * MAX_DIGITS: "1" * MAX_DIGITS,
    "1/" + "2" * MAX_DIGITS: "1/" + "2" * MAX_DIGITS,
    "1/" + "2" * (MAX_DIGITS + 1): (f"numeral has more than {MAX_DIGITS} digits", 2),
    "9" * (MAX_DIGITS + 1) + "/0": (f"numeral has more than {MAX_DIGITS} digits", 0),
    "1" * MAX_DIGITS + "/0": ("zero denominator", MAX_DIGITS + 1),
    "1 2": ("unexpected trailing input '2'", 2),
    "x y": ("unexpected trailing input 'y'", 2),
    "1/2 3": ("unexpected trailing input '3'", 4),
    "1)": ("unexpected trailing input ')'", 1),
    "x)": ("unexpected trailing input ')'", 1),
    "(x": ("expected ')', found ''", 2),
    "1;": ("unexpected trailing input ';'", 1),
    "x @": ("unexpected character '@'", 2),
    "@": ("unexpected character '@'", 0),
    "": ("unexpected token ''", 0),
    " ": ("unexpected token ''", 1),
    "\t1\n": "1",
    "1\xa0": "1",
    "1\u2003/\u20032": "1/2",
    "-": ("unexpected token ''", 1),
    "+-1": ("unexpected token '-'", 1),
    "--1": ("unexpected token '-'", 1),
    "- 1": "-1",
    "-1/2": "-1/2",
    "-(1/2)": "-1/2",
    "E(y;1١)": ("unexpected character '١'", 5),
    "E(y; ١)": ("unexpected character '١'", 5),
    "x^0١": ("unexpected character '١'", 3),
    "x^01": "x",
    "_": ("unknown coordinate '_'", 0),
    "_x": ("unknown coordinate '_x'", 0),
    "x_1": ("unknown coordinate 'x_1'", 0),
    "x.5": ("unexpected character '.'", 1),
    "1.5": ("unexpected character '.'", 1),
    "1e3": ("unexpected trailing input 'e3'", 1),
    "x^-1": ("exponent must be a nonnegative integer", 2),
    "E(y;-0)": "1",
    "E(y;+2)": "E(y;2)",
    "cos(y)*1/2": "1/4*E(y;1) + 1/4*E(y;-1)",
    "2x": ("unexpected trailing input 'x'", 1),
    "x2": ("unknown coordinate 'x2'", 0),
    "1/2/0": ("unexpected trailing input '/'", 3),
}

# The same for parse_rational.
RATIONAL_TEXTS = {
    "1": "1",
    "-1": "-1",
    "+1": "1",
    "1/2": "1/2",
    "-3/4": "-3/4",
    " 1/2": "1/2",
    "1 / 2": "1/2",
    "1/ 2": "1/2",
    "-  5": "-5",
    "1/0": ("zero denominator", 2),
    "0/0": ("zero denominator", 2),
    "00": "0",
    "007/010": "7/10",
    "1/-2": ("expected 'num', found '-'", 2),
    "1.5": ("unexpected character '.'", 1),
    "1e3": ("unexpected trailing input 'e3'", 1),
    "x": ("expected 'num', found 'x'", 0),
    "": ("expected 'num', found ''", 0),
    "-": ("expected 'num', found ''", 1),
    "+": ("expected 'num', found ''", 1),
    "1/": ("expected 'num', found ''", 2),
    "/2": ("expected 'num', found '/'", 0),
    "1 2": ("unexpected trailing input '2'", 2),
    "1/2/3": ("unexpected trailing input '/'", 3),
    "²": ("unexpected character '²'", 0),
    "١": ("unexpected character '١'", 0),
    "1١": ("unexpected character '١'", 1),
    "1" * MAX_DIGITS: "1" * MAX_DIGITS,
    "1" * (MAX_DIGITS + 1): (f"numeral has more than {MAX_DIGITS} digits", 0),
    "1/" + "1" * (MAX_DIGITS + 1): (f"numeral has more than {MAX_DIGITS} digits", 2),
    "1/0 ²": ("unexpected character '²'", 4),
    "1²/0": ("unexpected character '²'", 1),
    "+-1": ("expected 'num', found '-'", 1),
    "--1": ("expected 'num', found '-'", 1),
    "1/2 ": "1/2",
    "\xa01": "1",
    "(1)": ("expected 'num', found '('", 0),
    "-0": "0",
    "1١/2": ("unexpected character '١'", 1),
}


def read_outcome(read, text):
    """What a reader makes of a text: the element or value as text, or
    the message and position of its ParseError."""
    try:
        return str(read(text))
    except ParseError as exc:
        message = str(exc)
        suffix = f" (at position {exc.position})"
        assert message.endswith(suffix)
        return message[: -len(suffix)], exc.position


@pytest.mark.parametrize(
    "reader, table",
    [(elem, ONE_PASS_TEXTS), (ring.parse_rational, RATIONAL_TEXTS)],
    ids=["parse_expr", "parse_rational"],
)
def test_texts_keep_their_elements_messages_and_positions(reader, table):
    got = {text: read_outcome(reader, text) for text in table}
    assert got == table


def per_character_tokens(src):
    """The reference lexer: one character at a time, digits ASCII only,
    an identifier led by a letter or underscore."""
    items, i = [], 0
    while i < len(src):
        ch = src[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if "0" <= ch <= "9":
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            items.append(("num", src[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            items.append(("ident", src[i:j], i))
        elif ch in "+-*^();/":
            items.append((ch, ch, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i = j
    return items + [("end", "", len(src))]


LEXER_PIECES = st.sampled_from(
    list("0123456789xyE_+-*^();/.@é²١Ⅻǅ")
    + [" ", "\t", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "e\u0301", "\u203f", "x1", "007"]
)


@settings(max_examples=400, derandomize=True)
@given(st.lists(LEXER_PIECES, max_size=12).map("".join))
def test_one_pass_lexer_matches_the_per_character_reference(src):
    assert read_outcome(ring._lex, src) == read_outcome(per_character_tokens, src)
