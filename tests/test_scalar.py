"""Property tests of the integer-triple Scalar against a reference that
keeps a Gaussian rational as a (Fraction, Fraction) pair."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gkbench.errors import ValidationError
from gkbench.ring import IMAG, ONE, ZERO, Scalar, quarter_phase

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
    assert hash(s) == hash((s.re, s.im)) == hash(x)


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
