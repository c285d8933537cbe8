"""Exact linear algebra over Gaussian rationals and over the function ring.

A matrix is a tuple of row tuples.  The helpers mat, transpose, mat_add,
mat_neg, mat_vec and is_scalar_matrix serve both entry types: Scalar
entries at a point and RingElement entries over a chart.  They use only
+, -, *, unary minus and is_zero, so no helper branches on the entry
type.  Matrix identities are stated with ==, since both entry types are
canonical, or entrywise (is_scalar_matrix) where the other side would be
a scaled identity built only to be compared.

The matrices of a reduction are mostly zeros (padded vectors, the
pairing, [B | Id], diagonal eigenvalue matrices), and so are the
structure matrices of a chart, so the kernel works on supports: the
pairs (j, x) of a row or column with x nonzero.  mat_mul, the product of
point matrices, is the row-support product (Gustavson, ACM TOMS 4(3),
1978): it reads each row of b as its support once, and row i of the
result adds a[i][k] * b[k][j] over the nonzero a[i][k] in increasing k,
at the j of row k's support; mat_vec reads the column's support once.
A result entry that no term reaches is a zero taken from the operands,
so it keeps their entry type, and every sum runs in increasing k.
support_mul, the one product of ring matrices, takes row supports, read
once by row_supports, and returns row supports: it gathers the pairs of
each result entry and hands them to ring.sum_of_products in one call,
the ring's one product loop, so no intermediate product or partial sum
is built, and an entry that cancels is absent.  rmat_mul densifies it,
and support_add sums two matrices given by their row supports.
A constant structure matrix has a few nonzero entries per row, so the
structure tests (J^2 = -Id, J1 J2 = J2 J1, the symmetry of the GK
metric) read the support product directly, and first_difference names
the first entry, in row-major order, where two of them differ.

Scalar matrices also get the elimination toolkit, built on one
Gauss-Jordan pivot loop that scales the pivot row and clears the other
rows only at the pivot row's support, which lies right of the pivot.
The loop holds each row sparse, as the integer triples of its nonzero
entries keyed by column, so it never touches a zero: it scales a pivot
row only when its pivot is not 1, sets the pivot column rather than
computing it, and forms each updated entry as plain ints, normalized
once by the ring's normalizer.  rref, rank, nullspace and solve read
its reduced rows and pivot columns, and the subspace helpers (canonical
bases, greedy extension) sit on those.  The pivot values and row-swap
flags have one reader, the Sylvester test on real symmetric matrices,
whose leading minors are running products of the pivot values while
each pivot sits on the diagonal unswapped.  Everything is exact; no
pivot thresholds exist.

Ring matrices add what needs a chart or has no pivots: the chart-bound
constructors, the product, scaling, evaluation at a point, and the
inverse, which exists chart-wide only when the determinant is an
invertible constant, as the inversion of a symplectic form requires.  A matrix of constants is inverted at its value by solve, the
one pivot loop, and lifted back as constants.  A matrix with a
non-constant entry has no pivot loop over the ring, so its determinant
and adjugate come from one Faddeev-LeVerrier loop -- n - 1 matrix
products and division by integers, so a dense n x n form costs O(n^4)
ring products where cofactor expansion would cost n!.  Scaling and
evaluation pass a zero entry through untouched.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .errors import ValidationError
from .ring import (
    Chart,
    EvalPoint,
    ONE,
    RingElement,
    Scalar,
    ZERO,
    _norm,
    _triple,
    sum_of_products,
)

Vec = tuple[Scalar, ...]
Mat = tuple[Vec, ...]
RMat = tuple[tuple[RingElement, ...], ...]
Supports = tuple[dict[int, RingElement], ...]

Entry = TypeVar("Entry", Scalar, RingElement)
Matrix = tuple[tuple[Entry, ...], ...]


# --- construction and arithmetic, for either entry type --------------------


def mat(rows: Sequence[Sequence[Entry]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def is_scalar_matrix(m: Matrix, value: Entry) -> bool:
    """Whether the square matrix m is value times the identity."""
    return all(
        x == value if i == j else x.is_zero
        for i, row in enumerate(m)
        for j, x in enumerate(row)
    )


def _support(v: Sequence[Entry]) -> tuple[Entry | None, list[tuple[int, Entry]]]:
    """The pairs (j, v[j]) with v[j] nonzero, and one zero entry of v
    (None when v has none)."""
    zero = None
    support = []
    for j, x in enumerate(v):
        if x.is_zero:
            zero = x
        else:
            support.append((j, x))
    return zero, support


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The row-support product of point matrices.  An entry that no term
    reaches had a zero factor in each of its terms, and the last zero
    seen stands for them."""
    if a and b and len(a[0]) != len(b):
        raise ValidationError("matrix shapes do not compose")
    if not b:
        return tuple(() for _ in a)
    zero = None
    supports = []
    for row in b:
        row_zero, support = _support(row)
        if row_zero is not None:
            zero = row_zero
        supports.append(support)
    width = len(b[0])
    out = []
    for row in a:
        sums: list = [None] * width
        for x, support in zip(row, supports):
            if x.is_zero:
                zero = x
                continue
            for j, y in support:
                term = x * y
                total = sums[j]
                sums[j] = term if total is None else total + term
        out.append(tuple(zero if total is None else total for total in sums))
    return tuple(out)


def mat_vec(a: Matrix, v: Sequence[Entry]) -> tuple[Entry, ...]:
    """A matrix times a column, over the column's support."""
    zero, support = _support(v)
    out = []
    for row in a:
        total = None
        for k, y in support:
            x = row[k]
            if x.is_zero:
                zero = x
            elif total is None:
                total = x * y
            else:
                total = total + x * y
        if total is None:
            if zero is None:
                raise ValidationError("an empty sum has no entry to take its zero from")
            total = zero
        out.append(total)
    return tuple(out)


def mat_conj(a: Mat) -> Mat:
    return tuple(tuple(x.conj() for x in row) for row in a)


# --- elimination --------------------------------------------------------


def _eliminate(
    m: Mat,
) -> tuple[list[list[Scalar]], list[int], list[Scalar], list[bool]]:
    """The one Gauss-Jordan pivot loop: the reduced rows, the pivot
    columns, the pivot values as found (before their rows are scaled to
    one) and, per pivot, whether its row was swapped into place.

    Each row is a dict from a column to the (a, b, d) triple of its
    nonzero entry, read from the Scalar once on the way in, so a pivot
    is found by membership and no zero is ever touched.  The pivot row
    is scaled only when its pivot is not 1 and it holds other entries,
    and the pivot column is never computed: it is dropped from every
    other row and set to ONE in the pivot row on the way out.  Each
    updated entry, the product and the difference together, is formed
    as plain ints and normalized once by the ring's normalizer; one
    that cancels is deleted.  On the way out each entry left becomes a
    Scalar again and every other entry is ZERO."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    rows = [
        {j: (x._a, x._b, x._d) for j, x in enumerate(row) if x._a or x._b}
        for row in m
    ]
    pivots: list[int] = []
    values: list[Scalar] = []
    swapped: list[bool] = []
    r = 0
    for c in range(nc):
        for pivot in range(r, nr):
            if c in rows[pivot]:
                break
        else:
            continue
        swapped.append(pivot != r)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # Left of c the pivot row is zero: each earlier pivot column was
        # cleared in it, and each earlier non-pivot column was zero in
        # every row from the pivot row down.
        pivot_row = rows[r]
        t = pivot_row.pop(c)
        if t == (1, 0, 1):
            values.append(ONE)
        else:
            values.append(_triple(*t))
            if pivot_row:
                a, b, d = t
                p, q, s = _norm(d * a, -d * b, a * a + b * b)  # 1 / pivot
                rows[r] = pivot_row = {
                    j: _norm(x * p - y * q, x * q + y * p, z * s)
                    for j, (x, y, z) in pivot_row.items()
                }
        for row in rows:
            factor = row.pop(c, None)
            if factor is None:
                continue
            fa, fb, fd = factor
            for j, (x, y, z) in pivot_row.items():
                # the factor times the pivot row's entry, (u + v*I)/w
                if fb or y:
                    u, v, w = fa * x - fb * y, fa * y + fb * x, fd * z
                else:
                    u, v, w = fa * x, 0, fd * z
                cur = row.get(j)
                if cur is None:
                    row[j] = _norm(-u, -v, w)
                    continue
                ca, cb, cd = cur
                if cd == w:
                    u, v = ca - u, cb - v
                else:
                    u, v, w = ca * w - u * cd, cb * w - v * cd, cd * w
                if u or v:
                    row[j] = _norm(u, v, w)
                else:
                    del row[j]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    out = []
    for row in rows:
        dense = [ZERO] * nc
        for j, (a, b, d) in row.items():
            dense[j] = _triple(a, b, d)
        out.append(dense)
    for k, c in enumerate(pivots):
        out[k][c] = ONE
    return out, pivots, values, swapped


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form with its pivot columns."""
    rows, pivots, _, _ = _eliminate(m)
    return mat(rows), tuple(pivots)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def nullspace(m: Mat) -> tuple[Vec, ...]:
    """Basis of the right nullspace {v : m v = 0}."""
    if not m:
        return ()
    reduced, pivots = rref(m)
    nc = len(m[0])
    free = [c for c in range(nc) if c not in pivots]
    basis: list[Vec] = []
    for f in free:
        v = [ZERO] * nc
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a: Mat, b: Mat) -> Mat:
    """The X with a X = b, for a square nonsingular a: one elimination
    of [a | b], whose pivots are the columns of a exactly when a is
    nonsingular, leaves X as the right half."""
    n = len(a)
    reduced, pivots = rref(tuple(ra + rb for ra, rb in zip(a, b)))
    if pivots[:n] != tuple(range(n)):
        raise ValidationError("matrix is singular")
    return tuple(row[n:] for row in reduced)


# --- subspaces ----------------------------------------------------------


def row_space_basis(rows: Sequence[Vec]) -> tuple[Vec, ...]:
    """Canonical basis of the span of the given vectors (rref rows).

    Two spans are equal exactly when their canonical bases are equal.
    """
    if not rows:
        return ()
    reduced, pivots = rref(mat(rows))
    return tuple(reduced[i] for i in range(len(pivots)))


def extend_basis(rows: Sequence[Vec], candidates: Sequence[Vec]) -> tuple[int, ...]:
    """Indices of candidates that extend rows to a larger independent set,
    greedily in order, until no candidate adds rank.

    One elimination decides it: with the rows and then the candidates as
    columns, a column is a pivot exactly when it lies outside the span
    of the columns before it, which is the greedy rule.
    """
    _, pivots = rref(transpose(mat(tuple(rows) + tuple(candidates))))
    return tuple(c - len(rows) for c in pivots if c >= len(rows))


# --- real symmetric forms ------------------------------------------------


def is_positive_definite(m: Mat) -> tuple[bool, tuple[Scalar, ...]]:
    """Sylvester's test on a real symmetric matrix: the verdict, with the
    leading principal minors up to and including the first that is not
    positive (all n of them when the verdict holds) as witnesses.

    One pivot pass gives them: while the pivots sit on the diagonal and
    no row was swapped, each row operation either scales a row by a
    pivot's inverse or adds a multiple of one row of a leading block to
    another, so the minor of order k + 1 is the running product of the
    first k + 1 pivot values.  At the first pivot that is swapped or off
    the diagonal, or is missing, that minor is zero.
    """
    if not all(x.is_real for row in m for x in row):
        raise ValidationError("matrix entry is not real")
    _, pivots, values, swapped = _eliminate(m)
    minors: list[Scalar] = []
    running = ONE
    for k, (c, value, moved) in enumerate(zip(pivots, values, swapped)):
        if c != k or moved:
            break
        running = running * value
        minors.append(running)
        if running._a <= 0:
            return False, tuple(minors)
    if len(minors) < len(m):
        return False, tuple(minors) + (ZERO,)
    return True, tuple(minors)


# --- matrices over the function ring -------------------------------------


def rmat_identity(chart: Chart, n: int) -> RMat:
    one = RingElement.one(chart)
    zero = RingElement.zero(chart)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def rmat_zeros(chart: Chart, r: int, c: int) -> RMat:
    zero = RingElement.zero(chart)
    return tuple((zero,) * c for _ in range(r))


def row_supports(m: RMat) -> Supports:
    """Each row's nonzero entries, column -> entry in increasing column
    order, read in one pass."""
    return tuple({j: x for j, x in enumerate(row) if x._terms} for row in m)


def support_mul(a: Supports, b: Supports) -> Supports:
    """The row supports of the product of two ring matrices given by
    theirs: for row i of a, each a[i][k] of its support, in its order,
    contributes the pair (a[i][k], b[k][j]) to entry j for each j of row
    k's support, and
    each entry is one sum_of_products over its pairs.  An entry that no
    pair reaches, or whose sum cancels, is absent; a row's columns come in
    the order first reached."""
    out = []
    for row in a:
        pairs: dict[int, list] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                got = pairs.get(j)
                if got is None:
                    pairs[j] = [(1, x, y)]
                else:
                    got.append((1, x, y))
        entries = {}
        for j, got in pairs.items():
            total = sum_of_products(got[0][1].chart, got)
            if total._terms:
                entries[j] = total
        out.append(entries)
    return tuple(out)


def support_add(a: Supports, b: Supports, sign: int = 1) -> Supports:
    """The row supports of a + sign * b, sign 1 or -1, for two matrices of
    one shape given by theirs.  An entry that cancels is absent; a row's
    columns come in a's order, then b's new ones."""
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for j, y in rb.items():
            x = row.get(j)
            if x is None:
                row[j] = y if sign > 0 else -y
                continue
            total = x + y if sign > 0 else x - y
            if total._terms:
                row[j] = total
            else:
                del row[j]
        out.append(row)
    return tuple(out)


def support_transpose(m: Supports) -> Supports:
    """The row supports of the transpose of a square matrix given by its
    row supports."""
    out: list[dict[int, RingElement]] = [{} for _ in m]
    for i, row in enumerate(m):
        for j, x in row.items():
            out[j][i] = x
    return tuple(out)


def first_difference(a: Supports, b: Supports) -> tuple[int, int, RingElement] | None:
    """The first entry, in row-major order, where two matrices given by
    their row supports differ, as (row, column, a[r][c] - b[r][c]); None
    when they are equal.  Equal rows are passed over by one comparison."""
    for r, (ra, rb) in enumerate(zip(a, b)):
        if ra == rb:
            continue
        for c in sorted(ra.keys() | rb.keys()):
            x, y = ra.get(c), rb.get(c)
            if y is None:
                return r, c, x
            if x is None:
                return r, c, -y
            if x != y:
                return r, c, x - y
    return None


def densify(m: Supports, width: int, zero: RingElement) -> RMat:
    """The ring matrix of the given row supports, zero elsewhere."""
    out = []
    for row in m:
        entries = [zero] * width
        for j, x in row.items():
            entries[j] = x
        out.append(tuple(entries))
    return tuple(out)


def rmat_mul(a: RMat, b: RMat) -> RMat:
    """The product of ring matrices: the support product of their row
    supports, densified with the zero of b's chart."""
    if a and b and len(a[0]) != len(b):
        raise ValidationError("matrix shapes do not compose")
    if not b or not b[0]:
        return tuple(() for _ in a)
    zero = RingElement.zero(b[0][0].chart)
    return densify(support_mul(row_supports(a), row_supports(b)), len(b[0]), zero)


def rmat_scale(a: RMat, s: Scalar) -> RMat:
    return tuple(tuple(x if x.is_zero else x.scale(s) for x in row) for row in a)


def rmat_eval(m: RMat, point: EvalPoint) -> Mat:
    """The matrix at a point; a zero entry is ZERO there, unevaluated."""
    return tuple(
        tuple(ZERO if x.is_zero else x.evaluate(point) for x in row) for row in m
    )


def _det_and_adjugate(m: RMat) -> tuple[RingElement, RMat]:
    """The determinant and the adjugate of a square ring matrix A, by the
    Faddeev-LeVerrier loop: M_1 = Id, c_k = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_k Id; after n steps det A = (-1)^n c_n and
    adj A = (-1)^(n+1) M_n.  It takes n - 1 matrix products and divides
    only by integers, which the coefficient field allows."""
    n = len(m)
    if n == 0:
        raise ValidationError("determinant of an empty matrix")
    step = rmat_identity(m[0][0].chart, n)
    product = m  # A M_1
    for k in range(1, n + 1):
        trace = sum((product[i][i] for i in range(1, n)), product[0][0])
        c = trace.scale(Scalar.of(-k).inverse())
        if k < n:
            step = tuple(
                tuple(x + c if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(product)
            )
            product = rmat_mul(m, step)
    if n % 2:
        return -c, step
    return c, mat_neg(step)


def ring_inverse(m: RMat) -> RMat:
    """Inverse of a ring matrix whose determinant is a nonzero constant.

    A chart-wide inverse only exists when the determinant is a unit; this
    workbench needs the constant-determinant case (symplectic forms given
    by constant-coefficient matrices) and refuses anything else.  A matrix
    of constants is inverted at its value by solve, the one Gauss-Jordan
    loop, and lifted back as constants; Faddeev-LeVerrier runs only on a
    matrix with a non-constant entry, where the ring has no pivot loop.
    """
    refusal = "matrix determinant is not an invertible constant; no chart-wide inverse"
    if m and all(x.is_constant() for row in m for x in row):
        chart = m[0][0].chart
        value = tuple(tuple(x.constant_value() for x in row) for row in m)
        try:
            inverse = solve(value, identity(len(m)))
        except ValidationError:
            raise ValidationError(refusal) from None
        return tuple(tuple(RingElement.constant(chart, x) for x in row) for row in inverse)
    d, adjugate = _det_and_adjugate(m)
    if not d.is_constant() or d.is_zero:
        raise ValidationError(refusal)
    return rmat_scale(adjugate, d.constant_value().inverse())
