"""Differential oracle: the exact Gaussian-rational linear algebra of
gkbench.linalg against sympy on hypothesis-drawn matrices, and the ring's
partial derivatives, exterior derivative and evaluation against sympy on
hypothesis-drawn ring elements, with E(y; k) read as exp(i k y).

sympy is not a dependency of gkbench; without it this module is skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from gkbench.calculus import DiffForm  # noqa: E402
from gkbench.errors import ValidationError  # noqa: E402
from gkbench.linalg import (  # noqa: E402
    _det_and_adjugate,
    identity,
    is_positive_definite,
    mat,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve,
    transpose,
)
from gkbench.ring import ZERO, EvalPoint, RingElement, Scalar, make_chart  # noqa: E402

# Zero is drawn often so that singular and rank-deficient matrices are common.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
gaussians = st.builds(Scalar, rationals, rationals)
reals = st.builds(Scalar, rationals)


@st.composite
def matrices(draw, entries=gaussians, square=False):
    r = draw(st.integers(1, 4))
    c = r if square else draw(st.integers(1, 4))
    m = mat([[draw(entries) for _ in range(c)] for _ in range(r)])
    if draw(st.booleans()):
        # A product through an inner dimension k has rank at most k:
        # rank-deficient matrices without zero rows or columns, which
        # plain draws rarely give.
        k = draw(st.integers(1, min(r, c)))
        left = mat([[draw(entries) for _ in range(k)] for _ in range(r)])
        right = mat([[draw(entries) for _ in range(c)] for _ in range(k)])
        m = mat_mul(left, right)
    return m


@st.composite
def split_blocks(draw):
    """[[0, X], [X^T, 0]] for a real square X: the shape of the pairing a
    fiber quotient induces on its tangent lifts followed by its
    covector lifts."""
    x = draw(matrices(entries=reals, square=True))
    zero = ((ZERO,) * len(x),) * len(x)
    return mat(
        [z + row for z, row in zip(zero, x)]
        + [row + z for row, z in zip(transpose(x), zero)]
    )


def to_sympy(x):
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator
    )


def sym_matrix(m):
    return sympy.Matrix([[to_sympy(x) for x in row] for row in m])


def sym_vector(v):
    return sympy.Matrix([to_sympy(x) for x in v])


def descartes_inertia(m):
    """(positive, negative, zero) eigenvalue counts of a real symmetric
    matrix from its characteristic polynomial.  Every root is real, so
    Descartes' rule of signs counts the positive and negative roots
    exactly, with multiplicity."""
    lam = sympy.Symbol("lam")
    coeffs = m.charpoly(lam).all_coeffs()  # highest degree first
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    degree = len(coeffs) - 1

    def variations(seq):
        signs = [sympy.sign(c) for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    flipped = [c * (-1) ** (degree - i) for i, c in enumerate(coeffs)]
    return variations(coeffs), variations(flipped), zero


@settings(max_examples=80, derandomize=True, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_sympy(m):
    sm = sym_matrix(m)
    assert rank(m) == sm.rank()
    ours = nullspace(m)
    assert len(ours) == len(sm.nullspace()) == len(m[0]) - rank(m)
    for v in ours:
        assert sympy.expand(sm * sym_vector(v)) == sympy.zeros(len(m), 1)
    if ours:
        # Independent vectors inside the nullspace, as many as its
        # dimension: the same span.
        assert sympy.Matrix.hstack(*[sym_vector(v) for v in ours]).rank() == len(ours)


def check_det_and_inverse(m):
    """solve refuses exactly the matrices of determinant zero and
    otherwise gives sympy's inverse."""
    sm = sym_matrix(m)
    if sympy.expand(sm.det()) == 0:
        with pytest.raises(ValidationError, match="singular"):
            solve(m, identity(len(m)))
    else:
        assert sym_matrix(solve(m, identity(len(m)))) == sympy.expand(sm.inv())


@settings(max_examples=80, derandomize=True, deadline=None)
@given(matrices(square=True))
def test_det_and_inverse_match_sympy(m):
    check_det_and_inverse(m)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_solve_matches_sympy(data):
    """X with A X = B for a drawn square A and a B of any width: sympy's
    A^-1 B, or the same refusal when A is singular."""
    a = data.draw(st.one_of(matrices(square=True), sparse_matrices(square=True)))
    width = data.draw(st.integers(1, 3))
    b = mat([[data.draw(gaussians) for _ in range(width)] for _ in a])
    sa = sym_matrix(a)
    if sympy.expand(sa.det()) == 0:
        with pytest.raises(ValidationError, match="singular"):
            solve(a, b)
    else:
        assert sym_matrix(solve(a, b)) == sympy.expand(sa.inv() * sym_matrix(b))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(split_blocks())
def test_symmetric_signature_matches_sympy(m):
    """The rank rule fiber_data reads the quotient pairing's signature
    from: [[0, X], [X^T, 0]] has inertia (r/2, r/2, 2m - r), r its rank."""
    r = rank(m)
    assert descartes_inertia(sym_matrix(m)) == (r // 2, r // 2, len(m) - r)


def test_descartes_inertia_of_a_diagonal():
    # The reference itself: diag(1, -2, 0) has one eigenvalue of each sign.
    m = mat([[Scalar(1), ZERO, ZERO], [ZERO, Scalar(-2), ZERO], [ZERO] * 3])
    assert descartes_inertia(sym_matrix(m)) == (1, 1, 1)


@st.composite
def sparse_matrices(draw, square=False, entries=gaussians):
    """About one entry in five nonzero, with a row and a column often
    blanked outright.  A square draw may instead put its nonzeros on a random
    permutation, so that sparse nonsingular matrices are common too."""
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    nonzero = entries.filter(lambda x: not x.is_zero)
    if square and draw(st.booleans()):
        perm = draw(st.permutations(range(r)))
        return mat([[draw(nonzero) if j == perm[i] else ZERO for j in range(c)]
                    for i in range(r)])
    blank_rows = draw(st.sets(st.integers(0, r - 1), max_size=1))
    blank_cols = draw(st.sets(st.integers(0, c - 1), max_size=1))

    def entry(i, j):
        if i in blank_rows or j in blank_cols or draw(st.integers(0, 4)):
            return ZERO
        return draw(nonzero)

    return mat([[entry(i, j) for j in range(c)] for i in range(r)])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(sparse_matrices())
def test_sparse_rref_and_nullspace_match_sympy(m):
    """The reduced row echelon form is unique, and so is the nullspace
    basis read from it (each free column set to one): both equal sympy's."""
    sm = sym_matrix(m)
    reduced, pivots = rref(m)
    want, want_pivots = sm.rref()
    assert sym_matrix(reduced) == want and pivots == want_pivots
    assert [sym_vector(v) for v in nullspace(m)] == sm.nullspace()


@settings(max_examples=80, derandomize=True, deadline=None)
@given(sparse_matrices(square=True))
def test_sparse_det_and_inverse_match_sympy(m):
    check_det_and_inverse(m)


def symmetric(m):
    return mat([[m[min(i, j)][max(i, j)] for j in range(len(m))] for i in range(len(m))])


real_squares = st.one_of(
    matrices(reals, square=True), sparse_matrices(square=True, entries=reals)
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.one_of(real_squares, real_squares.map(symmetric)))
def test_leading_minors_match_sympy(m):
    """Sylvester's test: positive definite exactly when every sympy
    leading minor is positive, with sympy's minors as witnesses up to
    the first that is not."""
    want = [sympy.expand(sym_matrix(m)[: k + 1, : k + 1].det()) for k in range(len(m))]
    failing = next((k for k, x in enumerate(want) if not x > 0), None)
    ok, minors = is_positive_definite(m)
    assert ok == (failing is None)
    assert [to_sympy(x) for x in minors] == (want if ok else want[: failing + 1])


# --- the function ring ----------------------------------------------------

CHART = make_chart(("x", "affine"), ("y", "periodic"), ("t", "affine"))
SYMBOLS = sympy.symbols("x y t", real=True)


@st.composite
def ring_elements(draw, max_terms=5):
    exponents = st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exponents, gaussians, max_size=max_terms))
    return RingElement(CHART, terms)


def sym_function(f):
    """The element as a sympy expression: E(y; k) is exp(i k y)."""
    x, y, t = SYMBOLS
    return sum(
        (to_sympy(c) * x**a * sympy.exp(sympy.I * k * y) * t**b
         for (a, k, b), c in f.terms.items()),
        sympy.Integer(0),
    )


def same(a, b):
    return sympy.expand(a - b) == 0


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ring_elements())
def test_partial_and_d_match_sympy(f):
    expr = sym_function(f)
    df = DiffForm.function(f).d()
    for i, (name, sym) in enumerate(zip(CHART.names, SYMBOLS)):
        want = sympy.diff(expr, sym)
        assert same(sym_function(f.partial(name)), want)
        assert same(sym_function(df.terms.get((i,), RingElement.zero(CHART))), want)
    assert df.d().is_zero


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(ring_elements(), min_size=3, max_size=3))
def test_d_of_a_one_form_matches_sympy(coeffs):
    form = DiffForm(CHART, 1, {(i,): c for i, c in enumerate(coeffs)})
    exprs = [sym_function(c) for c in coeffs]
    two = form.d()
    for i in range(3):
        for j in range(i + 1, 3):
            want = sympy.diff(exprs[j], SYMBOLS[i]) - sympy.diff(exprs[i], SYMBOLS[j])
            got = two.terms.get((i, j), RingElement.zero(CHART))
            assert same(sym_function(got), want)
    assert two.d().is_zero


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    ring_elements(),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_evaluate_matches_sympy_at_quarter_turns(f, xv, turns, tv):
    x, y, t = SYMBOLS
    point = EvalPoint.at(CHART, x=xv, y=turns, t=tv)
    at = {x: sympy.Rational(xv.numerator, xv.denominator),
          y: turns * sympy.pi / 2,
          t: sympy.Rational(tv.numerator, tv.denominator)}
    assert same(to_sympy(f.evaluate(point)), sym_function(f).subs(at))


def sym_laurent(f):
    """The element as a sympy Laurent polynomial, with z standing for
    E(y; 1): products of E terms multiply as powers of z, which sympy
    expands without rewriting exponentials."""
    x, _, t = SYMBOLS
    z = sympy.Symbol("z")
    return sum(
        (to_sympy(c) * x**a * z**k * t**b for (a, k, b), c in f.terms.items()),
        sympy.Integer(0),
    )


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(ring_elements(max_terms=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_ring_det_matches_sympy(rows):
    m = mat(rows)
    want = sympy.Matrix([[sym_laurent(x) for x in row] for row in m]).det(
        method="berkowitz"
    )
    assert same(sym_laurent(_det_and_adjugate(m)[0]), want)
