"""Property tests of the integer-triple Scalar against a reference that
keeps a Gaussian rational as a (Fraction, Fraction) pair."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gkbench import ring
from gkbench.errors import ValidationError
from gkbench.ring import (
    IMAG,
    MAX_DIGITS,
    ONE,
    ZERO,
    EvalPoint,
    RingElement,
    Scalar,
    make_chart,
    parse_rational,
    quarter_phase,
    scalar_text,
)

parts = st.fractions(min_value=-50, max_value=50, max_denominator=12)
pairs = st.tuples(parts, parts)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def pair(s):
    return (s.re, s.im)


def triple(s):
    return (s._a, s._b, s._d)


def assert_canonical(s):
    a, b, d = triple(s)
    assert d > 0
    assert gcd(a, b, d) == 1
    if a == b == 0:
        assert d == 1


@settings(max_examples=200, derandomize=True)
@given(pairs, pairs)
def test_field_operations_match_fraction_pairs(x, y):
    sx, sy = Scalar(*x), Scalar(*y)
    results = {
        "add": (sx + sy, (x[0] + y[0], x[1] + y[1])),
        "sub": (sx - sy, (x[0] - y[0], x[1] - y[1])),
        "mul": (sx * sy, ref_mul(x, y)),
        "neg": (-sx, (-x[0], -x[1])),
        "conj": (sx.conj(), (x[0], -x[1])),
    }
    if y != (0, 0):
        results["inverse"] = (sy.inverse(), ref_inverse(y))
        results["div"] = (sx / sy, ref_mul(x, ref_inverse(y)))
    for name, (got, want) in results.items():
        assert pair(got) == want, name
        assert_canonical(got)
    assert bool(sx) == (x != (0, 0)) == (not sx.is_zero)
    assert sx.is_real == (x[1] == 0)


@settings(max_examples=200, derandomize=True)
@given(pairs, pairs)
def test_equal_values_have_equal_triples(x, y):
    sx, sy = Scalar(*x), Scalar(*y)
    assert (sx == sy) == (x == y) == (triple(sx) == triple(sy))
    # Equal values reached by different routes share one triple.
    assert triple((sx + sy) - sy) == triple(sx)
    if y != (0, 0):
        assert triple((sx * sy) / sy) == triple(sx)
        assert triple(sy.inverse().inverse()) == triple(sy)


@settings(max_examples=200, derandomize=True)
@given(pairs)
def test_parts_round_trip_and_hash(x):
    s = Scalar(*x)
    assert_canonical(s)
    assert pair(s) == x
    assert isinstance(s.re, Fraction) and isinstance(s.im, Fraction)
    again = Scalar(s.re, s.im)
    assert again == s and triple(again) == triple(s)
    assert Scalar.of(*x) == s
    # Equal values hash equal, and the hash reads the canonical triple.
    assert hash(again) == hash(s) == hash(triple(s))


def test_integer_arguments_and_constants():
    assert triple(Scalar()) == triple(ZERO) == (0, 0, 1)
    assert triple(Scalar(-6, 4)) == (-6, 4, 1)
    assert triple(Scalar(Fraction(-6, 4), Fraction(1, 6))) == (-9, 1, 6)
    assert ONE == Scalar(1) and IMAG == Scalar(0, 1)
    assert [quarter_phase(k) for k in range(-1, 4)] == [
        -IMAG, ONE, IMAG, -ONE, -IMAG
    ]
    assert str(Scalar(Fraction(1, 2), -1)) == "(1/2-I)"
    assert repr(Scalar(1, Fraction(2, 3))) == (
        "Scalar(re=Fraction(1, 1), im=Fraction(2, 3))"
    )


def test_contract_edges():
    with pytest.raises(ValidationError):
        Scalar.of(True)
    with pytest.raises(ValidationError):
        Scalar.of(0, 0.5)
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    assert Scalar(1).__eq__(1) is NotImplemented
    assert Scalar(1) != 1
    s = Scalar(1, 2)
    with pytest.raises(AttributeError):
        s.re = Fraction(3)
    with pytest.raises(AttributeError):
        s.extra = 1


# x * 1, 1 * x, x * 0, x + 0, x - 0, 0 + x and x - x return an operand
# (or ZERO) without building a Scalar; each must still be the canonical
# triple of the general formula.
units_and_zeros = st.sampled_from(
    ((ONE, (1, 0)), (Scalar(1), (1, 0)), (Scalar(Fraction(3, 3)), (1, 0)),
     (ZERO, (0, 0)), (Scalar(), (0, 0)), (IMAG - IMAG, (0, 0)))
)
operands = st.one_of(
    pairs,
    st.tuples(st.just(Fraction(0)), parts),
    st.tuples(parts, parts.filter(bool)),
    st.just((Fraction(0), Fraction(0))),
)


@settings(max_examples=200, derandomize=True)
@given(operands, units_and_zeros)
def test_shortcuts_match_fraction_pairs(x, unit):
    sx = Scalar(*x)
    su, u = unit
    results = [
        (sx * su, ref_mul(x, u), (sx, su)),
        (su * sx, ref_mul(u, x), (sx, su)),
    ]
    if u == (0, 0):
        results += [
            (sx + su, x, (sx, su)),
            (su + sx, x, (sx, su)),
            (sx - su, x, (sx, su)),
        ]
    for got, want, operand in results:
        assert pair(got) == want
        assert_canonical(got)
        assert triple(got) == triple(Scalar(*want))
        assert any(got is o for o in operand)
    # A nonzero x - x is ZERO itself, whichever object holds the second x.
    for diff in (sx - sx, sx - Scalar(*x)):
        assert triple(diff) == (0, 0, 1)
        assert diff is ZERO or x == (0, 0)


def test_real_scalars_ints_and_fractions_are_the_rationals():
    """Scalar(re, im), EvalPoint and fiber_data's level read an int, a
    Fraction or a real Scalar as one value; bool, float, str and a
    non-real Scalar are refused."""
    half = Scalar(Fraction(1, 2))
    assert Scalar(half, Scalar(-3)) == Scalar(Fraction(1, 2), -3) == Scalar(half, -3)
    assert triple(Scalar(Scalar(Fraction(2, 3)), Fraction(1, 2))) == (4, 3, 6)
    chart = make_chart(("x", "affine"), ("y", "periodic"))
    point = EvalPoint.at(chart, x=half, y=1)
    assert point == EvalPoint.at(chart, x=Fraction(1, 2), y=1)
    assert point.values == (half, 1) and str(point) == "(x=1/2, y=1)"
    assert EvalPoint.at(chart, x=3, y=0).values == (Scalar(3), 0)
    for bad in (True, 0.5, "1/2", IMAG, Scalar(1, 1), None):
        with pytest.raises(ValidationError, match="expected an exact rational"):
            Scalar.of(bad)
        with pytest.raises(ValidationError, match="expected an exact rational"):
            EvalPoint.at(chart, x=bad, y=0)


# Numerators and denominators from small to the parser's MAX_DIGITS edge.
EDGE = 10**MAX_DIGITS - 1
numerators = st.one_of(
    st.sampled_from((0, 1, -1, EDGE, -EDGE)),
    st.integers(-30, 30),
    st.integers(-EDGE, EDGE),
)
denominators = st.one_of(
    st.sampled_from((1, 2, EDGE)), st.integers(1, 30), st.integers(1, EDGE)
)


def fraction_scalar_text(re, im):
    """The text of re + im*I from the Fraction parts: the oracle."""
    if im == 0:
        return str(re)
    imag = "I" if im == 1 else "-I" if im == -1 else f"{im}*I"
    if re == 0:
        return imag
    return f"({re}{'' if im < 0 else '+'}{imag})"


def fraction_element_text(chart, terms):
    """The text of a ring element from its (exponent, (re, im)) terms, each
    coefficient a pair of Fractions: the oracle."""
    pieces = []
    for expo in sorted(terms, reverse=True):
        re, im = terms[expo]
        mono = "*".join(
            (name if e == 1 else f"{name}^{e}") if affine else f"E({name};{e})"
            for name, affine, e in zip(chart.names, chart.affine, expo)
            if e
        )
        if re and im:
            body = fraction_scalar_text(re, im)
            pieces.append((1, f"{body}*{mono}" if mono else body))
        elif not im:
            mag = abs(re)
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
            pieces.append((1 if re > 0 else -1, body))
        else:
            mag = abs(im)
            head = "I" if mag == 1 else f"{mag}*I"
            pieces.append((1 if im > 0 else -1, f"{head}*{mono}" if mono else head))
    if not pieces:
        return "0"
    out = ("-" if pieces[0][0] < 0 else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


TEXT_CHART = make_chart(("x", "affine"), ("y", "periodic"))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 2), st.integers(-2, 2)), numerators, numerators, denominators
        ),
        max_size=4,
    ),
    numerators,
    denominators,
    st.integers(-5, 5),
)
def test_text_from_the_triple_matches_the_fraction_oracle(terms, p, q, turns):
    """scalar_text, str(RingElement), str(EvalPoint) and parse_rational
    read and print the triple; each agrees with the text and value that
    Fraction gives, from zero and +-1 to numerals of MAX_DIGITS digits."""
    coeffs = {}
    for expo, a, b, d in terms:
        re, im = Fraction(a, d), Fraction(b, d)
        s = Scalar(re, im)
        assert triple(s) == triple(ring._make(a, b, d))
        assert scalar_text(s) == str(s) == fraction_scalar_text(re, im)
        if s:
            coeffs[expo] = (re, im)
    element = RingElement(TEXT_CHART, {e: Scalar(*c) for e, c in coeffs.items()})
    assert str(element) == fraction_element_text(TEXT_CHART, coeffs)
    value = Fraction(p, q)
    point = EvalPoint.at(TEXT_CHART, x=value, y=turns)
    assert str(point) == f"(x={value}, y={turns})"
    assert point == EvalPoint.at(TEXT_CHART, x=Scalar(value), y=turns)
    for text in (f"{p}/{q}", f"{value}", f"+{abs(p)}/{q}", f"-{abs(p)}/{q}"):
        got = parse_rational(text)
        want = Fraction(text.replace("+", ""))
        assert got == Scalar(want) and got.is_real
        assert str(got) == str(want)
