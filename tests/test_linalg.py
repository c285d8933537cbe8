"""Tests for exact linear algebra: elimination, subspaces, the Sylvester
test, and ring-matrix inversion."""

import ast
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gkbench import linalg
from gkbench.errors import ValidationError
from gkbench.linalg import (
    extend_basis,
    identity,
    is_positive_definite,
    mat,
    mat_add,
    mat_mul,
    mat_neg,
    mat_vec,
    nullspace,
    rank,
    ring_inverse,
    rmat_eval,
    rmat_identity,
    rmat_zeros,
    row_space_basis,
    rref,
    solve,
    transpose,
)
from gkbench.ring import ZERO, EvalPoint, RingElement, Scalar, make_chart, parse_expr


def s(re, im=0):
    return Scalar.of(Fraction(re), Fraction(im))


def m(rows):
    return mat([[s(x) if not isinstance(x, Scalar) else x for x in row] for row in rows])


class TestElimination:
    def test_rref_pivots(self):
        reduced, pivots = rref(m([[1, 2, 3], [2, 4, 7]]))
        assert pivots == (0, 2)
        assert reduced == m([[1, 2, 0], [0, 0, 1]])

    def test_rank(self):
        assert rank(m([[1, 2], [2, 4]])) == 1
        assert rank(identity(3)) == 3
        assert rank(m([[0] * 5] * 2)) == 0

    def test_nullspace_annihilates(self):
        a = m([[1, 2, 3], [4, 5, 6]])
        basis = nullspace(a)
        assert len(basis) == 1
        assert all(x.is_zero for x in mat_vec(a, basis[0]))

    def test_complex_inverse(self):
        a = mat([[Scalar.of(0, 1), Scalar.of(1)], [Scalar.of(0), Scalar.of(0, -1)]])
        assert mat_mul(a, solve(a, identity(2))) == identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValidationError, match="singular"):
            solve(m([[1, 1], [1, 1]]), identity(2))


class TestSubspaces:
    def test_row_space_basis_is_canonical(self):
        a = [tuple(r) for r in m([[1, 1, 0], [0, 1, 1]])]
        b = [tuple(r) for r in m([[1, 0, -1], [1, 2, 1]])]
        assert row_space_basis(a) == row_space_basis(b)

    def test_extend_basis(self):
        start = [tuple(m([[1, 0, 0]])[0])]
        cands = [tuple(r) for r in m([[2, 0, 0], [0, 0, 5], [0, 1, 0]])]
        assert extend_basis(start, cands) == (1, 2)


class TestSymmetric:
    def test_positive_definite(self):
        ok, minors = is_positive_definite(m([[2, 1], [1, 2]]))
        assert ok and minors == (s(2), s(3))
        ok, minors = is_positive_definite(m([[1, 0], [0, 0]]))
        assert not ok and minors == (s(1), s(0))
        # The witnesses stop at the first minor that is not positive.
        assert is_positive_definite(m([[-1, 0], [0, 1]])) == (False, (s(-1),))
        assert is_positive_definite(m([[1, 2], [2, 1]])) == (False, (s(1), s(-3)))
        assert is_positive_definite(()) == (True, ())

    def test_minors_across_a_swap(self):
        """A zero pivot with a nonzero entry below it is swapped into place,
        and the minor it closes is zero; so is a singular middle block, and
        so is the minor at a pivot that lands right of the diagonal
        unswapped."""
        assert is_positive_definite(m([[0, 1], [1, 0]])) == (False, (s(0),))
        assert is_positive_definite(m([[1, 2, 3], [2, 4, 5], [3, 5, 6]])) == (
            False, (s(1), s(0)),
        )
        assert linalg._eliminate(m([[1, 2, 0], [1, 2, 1], [0, 0, 0]]))[1:] == (
            [0, 2], [s(1), s(1)], [False, False],
        )
        assert is_positive_definite(m([[1, 2, 0], [1, 2, 1], [0, 0, 0]])) == (
            False, (s(1), s(0)),
        )

    def test_rejects_nonreal(self):
        with pytest.raises(ValidationError, match="not real"):
            is_positive_definite(mat([[Scalar.of(0, 1)]]))


class TestRingMatrices:
    CHART = make_chart(("x", "affine"), ("y", "periodic"))

    def test_constant_det_inverse(self):
        e = lambda t: parse_expr(t, self.CHART)
        a = mat([[e("1"), e("x")], [e("0"), e("1")]])
        inv = ring_inverse(a)
        assert mat_mul(a, inv) == rmat_identity(self.CHART, 2)
        assert inv[0][1] == e("-x")

    def test_nonconstant_det_refused(self):
        e = lambda t: parse_expr(t, self.CHART)
        a = mat([[e("x"), e("0")], [e("0"), e("1")]])
        with pytest.raises(ValidationError, match="invertible constant"):
            ring_inverse(a)

    def test_ring_det_matches_scalar(self):
        e = lambda t: parse_expr(t, self.CHART)
        a = mat([[e("2"), e("3")], [e("1"), e("4")]])
        assert linalg._det_and_adjugate(a)[0] == e("5")


class TestSharedToolkit:
    """The arithmetic helpers serve scalar and ring entries alike."""

    CHART = TestRingMatrices.CHART

    def e(self, text):
        return parse_expr(text, self.CHART)

    def test_ring_arithmetic(self):
        e = self.e
        a = mat([[e("x"), e("1")], [e("0"), e("E(y;1)")]])
        b = mat([[e("1"), e("x")], [e("E(y;-1)"), e("0")]])
        assert mat_mul(a, b) == mat([[e("x + E(y;-1)"), e("x^2")], [e("1"), e("0")]])
        assert mat_vec(a, (e("E(y;-1)"), e("x"))) == (
            e("x*E(y;-1) + x"),
            e("x*E(y;1)"),
        )
        assert transpose(a) == mat([[e("x"), e("0")], [e("1"), e("E(y;1)")]])
        assert mat_add(a, mat_neg(b)) == mat(
            [[e("x - 1"), e("1 - x")], [e("-E(y;-1)"), e("E(y;1)")]]
        )
        assert mat_neg(a) == mat([[e("-x"), e("-1")], [e("0"), e("-E(y;1)")]])

    def test_ring_zero_row_and_zero_matrix(self):
        e = self.e
        zero = RingElement.zero(self.CHART)
        a = mat([[e("0"), e("0")], [e("x"), e("1")]])
        b = mat([[e("1"), e("x")], [e("E(y;1)"), e("2")]])
        z = rmat_zeros(self.CHART, 2, 2)
        assert mat_mul(a, b)[0] == (zero, zero)
        assert mat_mul(a, z) == z
        assert mat_mul(z, b) == z
        assert mat_vec(z, (e("x"), e("1"))) == (zero, zero)
        assert mat_vec(a, (e("0"), e("0"))) == (zero, zero)
        for row in mat_mul(z, b) + mat_mul(a, b):
            assert all(isinstance(x, RingElement) for x in row)
            assert all(x.chart == self.CHART for x in row)

    def test_scalar_zero_row_and_zero_matrix(self):
        a = m([[0, 0], [1, 2]])
        b = m([[1, 2], [3, 4]])
        z = m([[0, 0], [0, 0]])
        assert mat_mul(a, b) == m([[0, 0], [7, 10]])
        assert mat_mul(z, b) == z
        assert mat_mul(b, z) == z
        assert mat_vec(z, (s(1), s(2))) == (s(0), s(0))
        for row in mat_mul(a, b) + mat_mul(z, b):
            assert all(isinstance(x, Scalar) for x in row)


# --- property layer ------------------------------------------------------

scalars = st.fractions(min_value=-6, max_value=6, max_denominator=3).map(
    lambda q: Scalar.of(q)
)


@st.composite
def square(draw, n=3):
    return mat([[draw(scalars) for _ in range(n)] for _ in range(n)])


@settings(max_examples=40, derandomize=True)
@given(square())
def test_rank_plus_nullity(a):
    assert rank(a) + len(nullspace(a)) == 3


@settings(max_examples=30, derandomize=True)
@given(square())
def test_transpose_preserves_rank(a):
    assert rank(a) == rank(transpose(a))


def _fraction_names(source: str) -> set[str]:
    """The names of the fractions module and its Fraction type that a
    source imports, reads or reaches as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found & {"Fraction", "fractions"}


def test_linalg_uses_no_fraction():
    """Every elimination runs on Scalar triples."""
    assert _fraction_names(Path(linalg.__file__).read_text(encoding="utf-8")) == set()
    seen = "from fractions import Fraction\nimport fractions\nx = fractions.Fraction(1)\n"
    assert _fraction_names(seen) == {"Fraction", "fractions"}


_RING_CHART = TestRingMatrices.CHART


@st.composite
def ring_elements(draw):
    """Sums of up to three terms c * x^a * E(y; k), zero included."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        expo = (draw(st.integers(0, 2)), draw(st.integers(-2, 2)))
        re, im = draw(small), draw(small)
        terms[expo] = Scalar.of(re, im)
    return RingElement(_RING_CHART, terms)


@st.composite
def ring_matrices(draw, rows, cols):
    return mat([[draw(ring_elements()) for _ in range(cols)] for _ in range(rows)])


ring_points = st.builds(
    lambda x, y: EvalPoint.at(_RING_CHART, x=x, y=y),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3),
)


@settings(max_examples=40, derandomize=True)
@given(ring_matrices(2, 3), ring_matrices(3, 2), ring_points)
def test_evaluation_commutes_with_products(a, b, p):
    assert rmat_eval(mat_mul(a, b), p) == mat_mul(rmat_eval(a, p), rmat_eval(b, p))
    col = tuple(row[0] for row in b)
    assert tuple(x.evaluate(p) for x in mat_vec(a, col)) == mat_vec(
        rmat_eval(a, p), tuple(x.evaluate(p) for x in col)
    )


@settings(max_examples=40, derandomize=True)
@given(ring_matrices(3, 3), ring_points)
def test_evaluation_skips_zero_entries(a, p):
    """rmat_eval gives every entry its value and evaluates only the nonzero
    entries."""
    evaluated = []
    real = RingElement.evaluate

    def counted(x, point):
        evaluated.append(x)
        return real(x, point)

    RingElement.evaluate = counted
    try:
        value = rmat_eval(a, p)
    finally:
        RingElement.evaluate = real
    assert value == tuple(tuple(x.evaluate(p) for x in row) for row in a)
    assert len(evaluated) == sum(not x.is_zero for row in a for x in row)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: ring_matrices(n, n)))
def test_adjugate_times_matrix_is_det_times_identity(a):
    """The Faddeev-LeVerrier loop's adjugate and determinant satisfy
    adj A . A = A . adj A = det A . Id."""
    d, adj = linalg._det_and_adjugate(a)
    zero = RingElement.zero(_RING_CHART)
    scaled = tuple(
        tuple(d if i == j else zero for j in range(len(a))) for i in range(len(a))
    )
    assert mat_mul(adj, a) == scaled
    assert mat_mul(a, adj) == scaled


def _greedy_extension(rows, candidates):
    """extend_basis by its definition: a candidate is chosen when it raises
    the rank of everything chosen so far."""
    current = list(rows)
    chosen = []
    for i, v in enumerate(candidates):
        before = rank(mat(current)) if current else 0
        if rank(mat(current + [v])) > before:
            current.append(v)
            chosen.append(i)
    return tuple(chosen)


# Few distinct small entries, so that dependent vectors are common.
sparse_vectors = st.lists(
    st.sampled_from([0, 0, 0, 1, -1, 2]).map(Scalar.of), min_size=4, max_size=4
).map(tuple)


@settings(max_examples=80, derandomize=True)
@given(
    st.lists(sparse_vectors, max_size=3),
    st.lists(sparse_vectors, max_size=6),
    st.booleans(),
)
def test_extend_basis_is_the_greedy_rank_rule(rows, candidates, repeat):
    if repeat and rows:
        rows = rows + [rows[0]]  # dependent rows
    assert extend_basis(rows, candidates) == _greedy_extension(rows, candidates)


def _leibniz_det(a):
    """The determinant as the signed sum over permutations."""
    total = Scalar.of(0)
    for perm in permutations(range(len(a))):
        inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :])
        term = Scalar.of(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * a[i][j]
        total = total + term
    return total


def _symmetric(a):
    return mat([[a[min(i, j)][max(i, j)] for j in range(len(a))] for i in range(len(a))])


sparse_squares = st.lists(sparse_vectors, min_size=4, max_size=4).map(mat)


@settings(max_examples=80, derandomize=True)
@given(st.one_of(sparse_squares, sparse_squares.map(_symmetric), square(4)))
def test_leading_minors_are_the_leading_determinants(a):
    """Sylvester's test from one pivot pass: the witnesses are the
    determinants of the leading blocks up to the first that is not
    positive, across zero, swapped and off-diagonal pivots, and the
    verdict is that every one of them is positive."""
    minors = tuple(_leibniz_det(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(4))
    failing = next((k for k, x in enumerate(minors) if x.re <= 0), None)
    ok, witnesses = is_positive_definite(a)
    assert ok == (failing is None)
    assert witnesses == (minors if ok else minors[: failing + 1])


# --- the sparse kernel ----------------------------------------------------------


@st.composite
def sparse_matrices(draw, rows, cols, entries, zero):
    """rows x cols matrices with about one entry in five nonzero; with
    some rows and columns blanked outright, all-zero rows and columns
    are common."""
    blank_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    blank_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))

    def entry(i, j):
        if i in blank_rows or j in blank_cols or draw(st.integers(0, 4)):
            return zero
        return draw(entries)

    return mat([[entry(i, j) for j in range(cols)] for i in range(rows)])


_NONZERO_SCALARS = scalars.filter(lambda x: not x.is_zero)
_NONZERO_RING = ring_elements().filter(lambda x: not x.is_zero)
_RING_ZERO = RingElement.zero(_RING_CHART)


@st.composite
def sparse_products(draw):
    """(a, b, zero): a is r x k and b is k x c, over Scalar or over the
    ring; r = 0 gives a with no rows, k = 0 gives b with no rows."""
    entries, zero = draw(
        st.sampled_from([(_NONZERO_SCALARS, ZERO), (_NONZERO_RING, _RING_ZERO)])
    )
    r, k, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 4))
    a = draw(sparse_matrices(r, k, entries, zero))
    b = draw(sparse_matrices(k, c, entries, zero))
    return a, b, zero


def _dense_product(a, b, zero):
    """Every term, zero factors included, summed from the entry type's zero."""
    width = len(b[0]) if b else 0
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(b))), zero) for j in range(width))
        for row in a
    )


def _keeps_entry_type(m, zero):
    return all(
        type(x) is type(zero) and getattr(x, "chart", None) == getattr(zero, "chart", None)
        for row in m
        for x in row
    )


@settings(max_examples=80, derandomize=True, deadline=None)
@given(sparse_products())
def test_sparse_products_match_the_dense_reference(case):
    """mat_mul and mat_vec equal the sum over every (i, k, j), and their
    zero entries are zeros of the operands' type and chart."""
    a, b, zero = case
    product = mat_mul(a, b)
    assert product == _dense_product(a, b, zero)
    assert len(product) == len(a) and _keeps_entry_type(product, zero)
    if b:
        column = tuple(row[0] for row in b)
        got = mat_vec(a, column)
        assert got == tuple(row[0] for row in _dense_product(a, b, zero))
        assert _keeps_entry_type((got,), zero)


def test_products_with_no_rows():
    """A product with a row-less b has an empty row for each row of a;
    a row-less a gives no rows; shapes that do not compose are refused."""
    assert mat_mul(((), ()), ()) == ((), ())
    assert mat_mul((), m([[1, 2]])) == ()
    assert mat_vec((), (s(1),)) == ()
    with pytest.raises(ValidationError, match="do not compose"):
        mat_mul(m([[1, 2]]), m([[1, 2]]))


def _counting_mul(monkeypatch):
    """Record the factors of every Scalar product from here on."""
    calls = []
    original = Scalar.__mul__

    def mul(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(Scalar, "__mul__", mul)
    return calls


def _counting_zero_tests(monkeypatch):
    """Count every read of Scalar.is_zero from here on."""
    reads = []
    original = Scalar.is_zero

    def is_zero(x):
        reads.append(x)
        return original.fget(x)

    monkeypatch.setattr(Scalar, "is_zero", property(is_zero))
    return reads


def test_product_multiplies_exactly_its_live_triples(monkeypatch):
    """A sparse product multiplies a[i][k] * b[k][j] for the (i, k, j) with
    both factors nonzero, once each and in row, then k, then j order; a
    dense loop would multiply all 3 * 4 * 3 = 36 triples.  It tests each
    entry of either operand for zero once, where a loop over the pairs
    of each (i, j) would test 36 entries of a alone."""
    a = m([[1, 0, 0, 2], [0, 0, 0, 0], [0, 3, 0, 7]])
    b = m([[0, 1, 0], [0, 0, 0], [4, 0, 0], [0, 5, 6]])
    live = [
        (a[i][k], b[k][j])
        for i in range(3)
        for k in range(4)
        for j in range(3)
        if a[i][k] and b[k][j]
    ]
    want = m([[0, 11, 12], [0, 0, 0], [0, 35, 42]])
    calls = _counting_mul(monkeypatch)
    reads = _counting_zero_tests(monkeypatch)
    product = mat_mul(a, b)
    assert calls == live and len(live) == 5
    assert len(reads) == 3 * 4 + 4 * 3
    calls.clear()
    reads.clear()
    column = mat_vec(a, (s(0), s(1), s(0), s(2)))
    assert calls == [(s(2), s(2)), (s(3), s(1)), (s(7), s(2))]
    # the column's 4 entries, then each row at the column's 2 nonzeros
    assert len(reads) == 4 + 3 * 2
    monkeypatch.undo()
    assert product == want and column == (s(4), s(0), s(17))


def _counting_norms(monkeypatch):
    """Record every triple the pivot loop normalizes from here on."""
    calls = []
    original = linalg._norm

    def norm(a, b, d):
        calls.append((a, b, d))
        return original(a, b, d)

    monkeypatch.setattr(linalg, "_norm", norm)
    return calls


def test_elimination_multiplies_only_pivot_row_support(monkeypatch):
    """The pivot loop forms each entry it updates as ints and normalizes
    it once, and it updates only the pivot row's support.  On a scaled
    permutation matrix each pivot row is its pivot alone, so nothing is
    normalized: the pivot column is set to one, not computed.  A pivot 2
    whose row has two more entries costs its inverse and those two
    products, three normalizations in all, where a dense loop would
    update all 15 entries; the pivot 1 below it costs none.  A row
    cleared by a pivot 1 is updated at the pivot row's one other entry,
    and the pivot it then holds has nothing else in its row."""
    a = m([[0, 0, 2, 0], [5, 0, 0, 0], [0, 0, 0, -1], [0, 3, 0, 0]])
    b = m([[0, 2, 0, 4, 6], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]])
    calls = _counting_norms(monkeypatch)
    reduced, pivots = rref(a)
    assert reduced == identity(4) and pivots == (0, 1, 2, 3)
    assert calls == []
    reduced, pivots = rref(b)
    assert reduced == m([[0, 1, 0, 2, 3], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]])
    assert pivots == (1, 2)
    assert len(calls) == 3
    calls.clear()
    reduced, pivots = rref(m([[1, 0, 3, 0], [2, 0, 0, 0]]))
    assert reduced == m([[1, 0, 0, 0], [0, 0, 1, 0]]) and pivots == (0, 2)
    assert calls == [(-6, 0, 1)]
