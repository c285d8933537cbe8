"""Generalized tangent bundle machinery on a chart.

Sections are pairs X + a of a vector field and a 1-form.  The natural
split-signature pairing, the twisted Courant bracket, B-field transforms,
and generalized (almost) complex structures as 2n x 2n ring matrices all
live here, together with the algebraic, integrability, type and
generalized Kahler pair checks.

The +i eigenbundle L = ker(J - i) has one form: the columns of Id - iJ,
which (J - i)(Id - iJ) = -i(J^2 + Id) puts in L once J^2 = -Id, and
(J - i)u is the one test of membership (GenStructure.residual).  A
GenStructure builds its row supports, the nonzero entries of each row
of J keyed by column, once, and every reader of the matrix alone reads
them, so none visits a zero: at(p) evaluates only the nonzero entries,
the residual pairs a row with a column where both are nonzero, and the
+i frame and the algebraic verdict are built from them.  It builds its
+i frame, the columns of Id - iJ as sections, and its algebraic verdict
once; with_twist hands them and the supports to the same matrix under
another twist, together with the values of at(p): J(p), the
columns of Id - iJ(p), those of them picked greedily by one elimination
as a basis of the +i eigenbundle, and the type, built once per matrix
and point; the basis and the type are kept by the value J(p) too, so a
constant structure eliminates once for each, at any number of points.
No other module evaluates a structure, and one upper-right-block rule,
matrix_type, types J(p) and the reduced structures.  J^2 + Id, the
commutator J1 J2 - J2 J1 and the GK metric are read on the support
product of the row supports (linalg.support_mul), and each failing
detail names the first nonzero entry of its residual, and the
B-transform e^B J e^-B is formed by n x n blocks on the same supports.
GenStructure(...) checks its matrix and twist; the trusted
GenStructure._of_valid serves the loader, which judges its one twist
once, and the B-transform.  open_brackets is the one loop over frame pairs; on a frame
of constant sections every derivative term of the bracket vanishes, so
it takes each bracket as the twist term alone, and under a zero twist
brackets nothing.
closing_brackets is the one "certified basis, else full frame" pass over
it, for check_integrable here (no 1-form) and the adapted level-set
closure check of reduction (the moment differentials).  A certified
basis is a set of sections, independent at a named point, that spans
the frame's span over the fraction field of the coefficient ring; when
every bracket of it closes, the whole frame closes.  certified_basis
picks the n sections whose columns at(p) picks and pivots them against
each 1-form.  Only when no point certifies a basis or a basis bracket
fails does the pass build the full frame, the +i frame cross-eliminated
against the same 1-forms (_cross_eliminate; with none, the +i frame as
it is), and bracket it, so every failing detail names a pair in its
numbering.

Sign conventions, fixed once and used everywhere:

  * pairing:  <X+a, Y+b> = (b(X) + a(Y)) / 2
  * bracket:  [X+a, Y+b]_H = [X,Y] + L_X b - L_Y a - d(i_X b - i_Y a)/2
              + i_Y i_X H          (contract H with X first, then Y)
              computed in its Cartan form, equal by L_X = i_X d + d i_X:
              [X,Y] + i_X db - i_Y da + d(i_X b - i_Y a)/2 + i_Y i_X H;
              the identity suite still tests L_X against Cartan's formula
  * transform: e^B (X+a) = X + a + i_X B

With these choices a B-transform carries an H-twisted structure to an
(H - dB)-twisted one; the identity
  [e^B u, e^B v]_{H - dB} = e^B [u, v]_H
is exact and is pinned down by tests.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .calculus import DiffForm, VectorField, lie_bracket
from .errors import ChartMismatchError, ValidationError
from .linalg import (
    Mat,
    RMat,
    Supports,
    Vec,
    densify,
    extend_basis,
    first_difference,
    is_positive_definite,
    mat,
    mat_neg,
    rank,
    ring_inverse,
    rmat_eval,
    rmat_identity,
    rmat_zeros,
    row_supports,
    support_add,
    support_mul,
    support_transpose,
    transpose,
)
from .ring import Chart, EvalPoint, HALF, IMAG, ONE, RingElement, Scalar, ZERO, sum_of_products

MINUS_I = -IMAG


class GenSection:
    """A section X + a of the generalized tangent bundle."""

    __slots__ = ("vector", "form")

    def __init__(self, vector: VectorField, form: DiffForm) -> None:
        if form.degree != 1:
            raise ValidationError("the form part of a section must be a 1-form")
        if vector.chart != form.chart:
            raise ChartMismatchError("vector and form parts live on different charts")
        self.vector = vector
        self.form = form

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenSection):
            return NotImplemented
        return self.vector == other.vector and self.form == other.form

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "GenSection") -> "GenSection":
        return GenSection(self.vector + other.vector, self.form + other.form)

    def __sub__(self, other: "GenSection") -> "GenSection":
        return GenSection(self.vector - other.vector, self.form - other.form)

    def __neg__(self) -> "GenSection":
        return GenSection(-self.vector, -self.form)

    def scale(self, f) -> "GenSection":
        return GenSection(self.vector.scale(f), self.form.scale(f))

    @property
    def is_zero(self) -> bool:
        return self.vector.is_zero and self.form.is_zero

    def column(self) -> tuple[RingElement, ...]:
        """Components as a length-2n column: vector entries, then covector
        entries in the coordinate coframe."""
        return tuple(self.vector.components) + self.form.covector()

    def __str__(self) -> str:
        return f"{self.vector} (+) {self.form}"


def section_from_column(chart: Chart, col: Sequence[RingElement]) -> GenSection:
    n = chart.dim
    if len(col) != 2 * n:
        raise ValidationError("column length is not twice the chart dimension")
    vector = VectorField(chart, tuple(col[:n]))
    form = DiffForm(chart, 1, {(i,): col[n + i] for i in range(n)})
    return GenSection(vector, form)


def pairing(u: GenSection, v: GenSection) -> RingElement:
    """The split-signature pairing <X+a, Y+b> = (b(X) + a(Y))/2."""
    left = v.form.apply([u.vector])
    right = u.form.apply([v.vector])
    return (left + right).scale(HALF)


def pairing_matrix(n: int) -> Mat:
    """Gram matrix of the pairing in the standard frame: off-diagonal
    identity blocks scaled by one half."""
    rows = []
    for i in range(2 * n):
        row = [ZERO] * (2 * n)
        j = i + n if i < n else i - n
        row[j] = HALF
        rows.append(tuple(row))
    return tuple(rows)


def courant_bracket(u: GenSection, v: GenSection, twist: DiffForm) -> GenSection:
    """The twisted Courant bracket of two sections, in the Cartan form
    of the module's convention."""
    if twist.degree != 3:
        raise ValidationError("twist must be a 3-form")
    x, a = u.vector, u.form
    y, b = v.vector, v.form
    form = (
        b.d().interior(x)
        - a.d().interior(y)
        + (b.interior(x) - a.interior(y)).d().scale(HALF)
        + twist.interior(x).interior(y)
    )
    return GenSection(lie_bracket(x, y), form)


def b_transform_section(b_field: DiffForm, u: GenSection) -> GenSection:
    """e^B (X + a) = X + a + i_X B."""
    if b_field.degree != 2:
        raise ValidationError("a B-field is a 2-form")
    return GenSection(u.vector, u.form + b_field.interior(u.vector))


# --- matrices of geometric operators --------------------------------------


def interior_operator(b_field: DiffForm) -> RMat:
    """Matrix of X -> i_X B on components: its (j, i) entry is B(d_i, d_j)."""
    if b_field.degree != 2:
        raise ValidationError("expected a 2-form")
    chart = b_field.chart
    n = chart.dim
    grid = [[RingElement.zero(chart) for _ in range(n)] for _ in range(n)]
    for (i, j), coeff in b_field.terms.items():
        grid[j][i] = coeff
        grid[i][j] = -coeff
    return mat(grid)


def _block(ul: RMat, ur: RMat, ll: RMat, lr: RMat) -> RMat:
    top = tuple(ul[i] + ur[i] for i in range(len(ul)))
    bottom = tuple(ll[i] + lr[i] for i in range(len(ll)))
    return top + bottom


def b_exponential(b_field: DiffForm) -> RMat:
    """The 2n x 2n matrix of e^B in the standard frame."""
    chart = b_field.chart
    n = chart.dim
    return _block(
        rmat_identity(chart, n),
        rmat_zeros(chart, n, n),
        interior_operator(b_field),
        rmat_identity(chart, n),
    )


# --- generalized structures ------------------------------------------------


def matrix_type(jmat: Mat, point: EvalPoint) -> int:
    """Type of a structure matrix at a point, in the standard frame or a
    quotient's adapted basis: half the corank of the upper-right block,
    which takes a covector to the tangent part of its image.  Parity is
    enforced; on a quotient it always holds, gram_q J being skew."""
    n = len(jmat) // 2
    corank = n - rank(tuple(row[n:] for row in jmat[:n])) if n else 0
    if corank % 2:
        raise ValidationError(f"type parity violated at {point}: corank {corank}")
    return corank // 2


# The value J(p) as the integer tuples (r, j, a, b, d) of its nonzero
# entries (a + bi)/d, so a lookup hashes no Scalar.
ValueKey = tuple[tuple[int, ...], ...]


class StructureAt:
    """A structure at a point p: J(p) and its nonzero entries, then the
    columns of Id - iJ(p), a basis of the +i eigenbundle picked from them
    and the type, each built on first use.  It holds no reference to its
    structure, only the dicts of picked bases and of types that its
    matrix family shares, both keyed by the value J(p)."""

    def __init__(
        self,
        matrix: Mat,
        entries: tuple[tuple[int, int, Scalar], ...],
        point: EvalPoint,
        bases: dict[ValueKey, tuple[int, ...]],
        types: dict[ValueKey, int],
    ) -> None:
        self.matrix = matrix
        self._entries = entries
        self.point = point
        self._bases = bases
        self._types = types

    @cached_property
    def _key(self) -> ValueKey:
        return tuple((r, j, x._a, x._b, x._d) for r, j, x in self._entries)

    @cached_property
    def columns(self) -> tuple[Vec, ...]:
        """The columns of Id - i J(p), from the nonzero entries (r, j, x)
        of J(p): -i x at row r of column j, plus one on the diagonal."""
        size = len(self.matrix)
        cols = [[ZERO] * size for _ in range(size)]
        for r, j, x in self._entries:
            cols[j][r] = x * MINUS_I
        for j, col in enumerate(cols):
            col[j] = col[j] + ONE if col[j] else ONE
        return tuple(map(tuple, cols))

    @cached_property
    def basis(self) -> tuple[int, ...]:
        """The indices of the columns picked greedily, in order, by one
        elimination: the first columns that span the +i eigenbundle.  Two
        points where J takes one value share the elimination."""
        picked = self._bases.get(self._key)
        if picked is None:
            picked = self._bases[self._key] = extend_basis((), self.columns)
        return picked

    @property
    def rank_defect(self) -> str | None:
        """Why the picked columns are no basis of a structure's +i
        eigenbundle, which has half rank n; None when they are."""
        n = len(self.matrix) // 2
        return None if len(self.basis) == n else f"eigenbundle rank is not {n} at {self.point}"

    @cached_property
    def eigenrows(self) -> tuple[Vec, ...]:
        """A basis of the +i eigenbundle, the picked columns; raises when
        they do not have half rank."""
        if self.rank_defect is not None:
            raise ValidationError(self.rank_defect)
        return tuple(self.columns[i] for i in self.basis)

    @cached_property
    def type(self) -> int:
        """matrix_type of J(p); two points where J takes one value share
        the elimination.  A parity violation is not kept, so it names
        each point where it is met."""
        found = self._types.get(self._key)
        if found is None:
            found = self._types[self._key] = matrix_type(self.matrix, self.point)
        return found


class GenStructure:
    """A generalized almost complex structure with its background twist.

    The matrix acts on columns (vector components, covector components).
    The twist is a real closed 3-form; closedness and realness are
    enforced here so every downstream check may rely on them.
    """

    def __init__(self, chart: Chart, matrix: RMat, twist: DiffForm) -> None:
        n = chart.dim
        if len(matrix) != 2 * n or any(len(r) != 2 * n for r in matrix):
            raise ValidationError("structure matrix must be 2n x 2n")
        if any(e.chart is not chart and e.chart != chart for row in matrix for e in row):
            raise ChartMismatchError("matrix entry over a different chart")
        check_twist(twist, chart)
        self._take(chart, matrix, twist)

    @staticmethod
    def _of_valid(chart: Chart, matrix: RMat, twist: DiffForm) -> "GenStructure":
        """A structure from a 2n x 2n matrix over the chart and a real closed
        3-form over it, taken unchecked: for the loader, which builds every
        matrix over its chart and judges its one twist once, and for
        b_transform_structure, whose H - dB is real and closed when H is."""
        out = object.__new__(GenStructure)
        out._take(chart, matrix, twist)
        return out

    def _take(self, chart: Chart, matrix: RMat, twist: DiffForm) -> None:
        self.chart = chart
        self.matrix = matrix
        self.twist = twist
        # The values at(p) has built, by point, and the bases they picked
        # and their types, by the value J(p); with_twist shares the dicts.
        self._points: dict[EvalPoint, StructureAt] = {}
        self._bases: dict[ValueKey, tuple[int, ...]] = {}
        self._types: dict[ValueKey, int] = {}

    @property
    def dim(self) -> int:
        return self.chart.dim

    # Built on first use and kept in the instance __dict__, so the class
    # has no __slots__.
    @cached_property
    def supports(self) -> Supports:
        """The nonzero entries of each row of J, column -> entry: what
        every reader of the matrix alone visits, so none touches a zero."""
        return row_supports(self.matrix)

    def residual(self, column: Sequence[RingElement]) -> tuple[RingElement, ...]:
        """(J - i)u on a column u: zero exactly when u lies in the +i
        eigenbundle.  Entry r is one sum of products: J[r][k] * u[k] on
        the k where both are nonzero, and -i * u[r] in the same sum.  A
        zero column is its own residual."""
        chart = self.chart
        support = {k: u for k, u in enumerate(column) if not u.is_zero}
        if not support:
            return tuple(column)
        imag = RingElement.constant(chart, IMAG)
        return tuple(
            sum_of_products(
                chart,
                [(1, x, support[k]) for k, x in row.items() if k in support]
                + ([(-1, imag, support[r])] if r in support else []),
            )
            for r, row in enumerate(self.supports)
        )

    def at(self, point: EvalPoint) -> StructureAt:
        """The structure at a point, built once per matrix and point from
        the values of J's nonzero entries."""
        here = self._points.get(point)
        if here is None:
            size = len(self.matrix)
            rows = []
            entries = []
            for r, row in enumerate(self.supports):
                values = [ZERO] * size
                for j, x in row.items():
                    v = values[j] = x.evaluate(point)
                    if v:
                        entries.append((r, j, v))
                rows.append(tuple(values))
            here = self._points[point] = StructureAt(
                tuple(rows), tuple(entries), point, self._bases, self._types
            )
        return here

    @cached_property
    def plus_i_frame(self) -> tuple[GenSection, ...]:
        """The columns of Id - iJ as sections, which span the +i
        eigenbundle: -i J[r][j] at each nonzero entry, plus one on the
        diagonal, built as valid fields and forms."""
        chart = self.chart
        n = self.dim
        zero, one = RingElement.zero(chart), RingElement.one(chart)
        cols = [[zero] * (2 * n) for _ in range(2 * n)]
        for r, row in enumerate(self.supports):
            for j, x in row.items():
                cols[j][r] = x.scale(MINUS_I)
        frame = []
        for j, col in enumerate(cols):
            col[j] = one + col[j]
            vector = VectorField._of_valid(chart, tuple(col[:n]))
            form = DiffForm._of_valid(
                chart, 1, {(i,): c for i, c in enumerate(col[n:]) if not c.is_zero}
            )
            frame.append(GenSection(vector, form))
        return tuple(frame)

    @cached_property
    def is_constant(self) -> bool:
        """Every entry of J is a constant, so its +i frame is constant."""
        return all(x.is_constant() for row in self.supports for x in row.values())

    @cached_property
    def square_witness(self) -> tuple[int, int, RingElement] | None:
        """The first nonzero entry of J^2 + Id, None when J^2 = -Id."""
        return _square_witness(self.supports, self.chart)

    @cached_property
    def squares_to_minus_one(self) -> bool:
        """J^2 = -Id, which is also P^2 = P for P = (Id - iJ)/2:
        P^2 - P = -(J^2 + Id)/4."""
        return self.square_witness is None

    @cached_property
    def algebraic(self) -> tuple[bool, str]:
        """Real, squares to -Id, and preserves the pairing: the algebraic
        verdict, which reads only the matrix.

        The pairing is tested once J^2 = -Id holds, and then J^T G J = G
        says G J = J^-T G = -J^T G, that is, G J is skew.  With G the
        pairing matrix, G J is half of J with its two row halves swapped,
        so no product is formed: G J is skew when those rows equal minus
        their transpose, on the nonzero entries.  A failing detail names
        the first non-real entry of J, or nonzero entry of the residual."""
        rows = self.supports
        for r, row in enumerate(rows):
            for c, x in sorted(row.items()):
                if not x.is_real:
                    return False, "matrix has a non-real entry: " + _entry_text("J", (r, c, x))
        if not self.squares_to_minus_one:
            return False, "matrix does not square to minus the identity: " + _entry_text(
                "J^2 + Id", self.square_witness
            )
        n = self.dim
        swapped = rows[n:] + rows[:n]
        minus_t = tuple({j: -x for j, x in row.items()} for row in support_transpose(swapped))
        witness = first_difference(swapped, minus_t)
        if witness is not None:
            r, c, x = witness
            residual = _entry_text("G J + J^T G", (r, c, x.scale(HALF)))
            return False, "matrix does not preserve the pairing: " + residual
        return True, "real, squares to -Id, preserves the pairing"

    def with_twist(self, twist: DiffForm) -> "GenStructure":
        """The same matrix against another twist, keeping whatever of the
        matrix-only values this structure has already built."""
        other = GenStructure(self.chart, self.matrix, twist)
        other.__dict__.update(
            (k, v) for k, v in self.__dict__.items() if k in _MATRIX_ONLY
        )
        return other


# The cached values of a GenStructure that depend on its matrix alone.
_MATRIX_ONLY = (
    "_points",
    "_bases",
    "_types",
    "supports",
    "is_constant",
    "plus_i_frame",
    "square_witness",
    "squares_to_minus_one",
    "algebraic",
)


def _square_witness(
    rows: Supports, chart: Chart
) -> tuple[int, int, RingElement] | None:
    """The first nonzero entry of J^2 + Id, in row-major order, for J given
    by its row supports, from their support product; None when J^2 = -Id."""
    minus_one = -RingElement.one(chart)
    return first_difference(
        support_mul(rows, rows), tuple({i: minus_one} for i in range(len(rows)))
    )


def _entry_text(name: str, witness: tuple[int, int, RingElement]) -> str:
    r, c, x = witness
    return f"entry ({r}, {c}) of {name} is {x}"


def check_twist(twist: DiffForm, chart: Chart) -> None:
    """Raise unless the twist is a real closed 3-form over the chart: what
    every structure may rely on."""
    if twist.degree != 3:
        raise ValidationError("twist must be a 3-form")
    if twist.chart != chart:
        raise ChartMismatchError("twist over a different chart")
    if not twist.is_real:
        raise ValidationError("twist must be real")
    if not twist.d().is_zero:
        raise ValidationError("twist is not closed")


def symplectic_matrix(omega: DiffForm) -> RMat:
    """The generalized structure of a symplectic form, as its matrix:
    X + a  ->  omega^{-1}(a) - i_X omega.  The form must be real, closed
    and have an exactly invertible coefficient matrix."""
    if omega.degree != 2:
        raise ValidationError("a symplectic form is a 2-form")
    if not omega.is_real:
        raise ValidationError("symplectic form must be real")
    if not omega.d().is_zero:
        raise ValidationError("symplectic form is not closed")
    chart = omega.chart
    op = interior_operator(omega)
    try:
        op_inv = ring_inverse(op)
    except ValidationError as exc:
        raise ValidationError(f"symplectic form is not invertible: {exc}") from exc
    n = chart.dim
    return _block(
        rmat_zeros(chart, n, n),
        op_inv,
        mat_neg(op),
        rmat_zeros(chart, n, n),
    )


def complex_matrix(jmat: RMat, chart: Chart) -> RMat:
    """The generalized structure of an almost complex structure J on the
    tangent bundle, as its matrix:  X + a  ->  -J X + J^T a."""
    n = chart.dim
    if len(jmat) != n or any(len(r) != n for r in jmat):
        raise ValidationError("J must be n x n")
    if _square_witness(row_supports(jmat), chart) is not None:
        raise ValidationError("J does not square to minus the identity")
    return _block(
        mat_neg(jmat),
        rmat_zeros(chart, n, n),
        rmat_zeros(chart, n, n),
        transpose(jmat),
    )


def b_transform_structure(b_field: DiffForm, struct: GenStructure) -> GenStructure:
    """Conjugate by e^B.  The twist drops by dB: an H-twisted structure
    becomes (H - dB)-twisted, matching the bracket identity
    [e^B u, e^B v]_{H-dB} = e^B [u,v]_H.

    With J = [[A, P], [Q, D]] in n x n blocks and B^ the matrix of
    X -> i_X B, e^B = [[1, 0], [B^, 1]], so
    e^B J e^-B = [[A - P B^, P], [B^ (A - P B^) + Q - D B^, D + B^ P]]:
    four support products of J's row supports with B^'s, and none with an
    identity block.  Where every B^ term cancels, the structure is J
    itself under the new twist, sharing what J has built."""
    if b_field.chart != struct.chart:
        raise ChartMismatchError("B-field over a different chart")
    if not b_field.is_real:
        raise ValidationError("B-field must be real")
    chart, n = struct.chart, struct.dim
    twist = struct.twist - b_field.d()
    bhat = row_supports(interior_operator(b_field))
    rows = struct.supports
    a, p = _split_columns(rows[:n], n)
    q, d = _split_columns(rows[n:], n)
    top_left = support_add(a, support_mul(p, bhat), -1)
    bottom_left = support_add(
        q, support_add(support_mul(bhat, top_left), support_mul(d, bhat), -1)
    )
    bottom_right = support_add(d, support_mul(bhat, p))
    moved = tuple(
        {**left, **{n + j: x for j, x in right.items()}}
        for left, right in zip(top_left + bottom_left, p + bottom_right)
    )
    if moved == rows:
        return struct.with_twist(twist)
    zero = RingElement.zero(chart)
    return GenStructure._of_valid(chart, densify(moved, 2 * n, zero), twist)


def _split_columns(rows: Supports, n: int) -> tuple[Supports, Supports]:
    """Row supports split at column n: the left block's, and the right
    block's with its columns counted from n."""
    left = tuple({j: x for j, x in row.items() if j < n} for row in rows)
    right = tuple({j - n: x for j, x in row.items() if j >= n} for row in rows)
    return left, right


# --- checks -----------------------------------------------------------------


def open_brackets(
    struct: GenStructure, frame: Sequence[GenSection]
) -> Iterator[tuple[int, int, RingElement]]:
    """Bracket each pair a < b of nonzero sections of a frame of the +i
    eigenbundle once, in order, under the structure's twisted Courant
    bracket, and yield (a, b, r) for each nonzero entry r of the
    bracket's residual (J - i)w, which is -2i times its -i part.  The
    brackets stay in the eigenbundle exactly when nothing is yielded;
    pairs are bracketed lazily, so stopping at the first yield brackets
    no further pair.

    Whether every live section has constant coefficients, vector
    components and form coefficients alike, is decided once per frame.
    For such sections every derivative term of the bracket's Cartan form
    vanishes, [X, Y], i_X db, i_Y da and d(i_X b - i_Y a)/2, so the
    bracket is the twist term i_Y i_X H alone, with a zero vector part:
    under a zero twist nothing is bracketed, and otherwise each pair's
    residual is taken of that term.  Any other frame is bracketed by
    courant_bracket, the one general formula."""
    live = [i for i, u in enumerate(frame) if not u.is_zero]
    twist = struct.twist
    constant = all(_is_constant(frame[i]) for i in live)
    if constant and twist.is_zero:
        return
    zeros = (RingElement.zero(struct.chart),) * struct.dim
    for a, b in combinations(live, 2):
        u, v = frame[a], frame[b]
        if constant:
            w = zeros + twist.interior(u.vector).interior(v.vector).covector()
        else:
            w = courant_bracket(u, v, twist).column()
        for r in struct.residual(w):
            if not r.is_zero:
                yield a, b, r


def _is_constant(u: GenSection) -> bool:
    """Every vector component and every form coefficient is a constant."""
    return all(c.is_constant() for c in u.column())


class Basis:
    """Sections certified at a named point to be a basis, over the
    fraction field of the coefficient ring, of the span of a frame."""

    __slots__ = ("point", "sections")

    def __init__(self, point: str, sections: tuple[GenSection, ...]) -> None:
        self.point = point
        self.sections = sections

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Basis):
            return NotImplemented
        return self.point == other.point and self.sections == other.sections

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        k = len(self.sections)
        pairs = comb(k, 2)
        return (
            f"all brackets of a {k}-section basis certified at {self.point} "
            f"({pairs} pair{'' if pairs == 1 else 's'})"
        )


# Scenario points by name, in order.
Points = Mapping[str, EvalPoint]
NO_POINTS: Points = MappingProxyType({})


def certified_basis(
    struct: GenStructure, points: Points, forms: Sequence[DiffForm] = ()
) -> Basis | None:
    """A basis, over the fraction field of the coefficient ring, of the +i
    eigenbundle sections whose vector parts the given 1-forms annihilate
    (with none, the eigenbundle; with the moment differentials, its
    level-tangent part), certified at the first named point that can, or
    None, as always for a structure that is not algebraic.

    At a point p it starts from the n sections of the +i frame whose
    columns at(p) picks and takes each form df in turn, with
    c_i = df(rho u_i).  When every c_i is zero the sections stay;
    otherwise it pivots on the first u_q with c_q(p) != 0 and keeps, for
    i != q, u_i where c_i = 0 and c_q u_i - c_i u_q elsewhere; when no
    c_q(p) is nonzero, the next point is tried.  Each step is triangular
    at p with diagonal c_q(p) or 1, so the sections stay independent at p,
    df annihilates each new one, and the elimination is exact over the
    fraction field: the result is a basis of the annihilated subbundle, of
    its generic rank n - rank(dF.rho.(Id - iJ)).  Up to sign each section
    is one of the frame that _cross_eliminate builds from the +i frame.

    Why a basis S decides the same verdicts as the full frame: the ring
    Q(i)[x][E(y)^+-1] is an integral domain, so Cramer's rule gives
    delta.v = sum_s r_s s for every frame section v, with delta a nonzero
    minor of S and ring elements r_s.  Each residual map is ring-linear
    and vanishes on the frame, and on an isotropic subbundle (the
    structure is algebraic) the Courant bracket obeys the Leibniz rule
    [u, f v] = f [u, v] + (rho(u) f) v with no pairing term.  So delta^2
    times the residual of any frame pair is a ring combination of those of
    the S-pairs: all vanish exactly when the S-pairs' do, and then so does
    every pullback to a level slice, wherever the certifying point lies.
    """
    if not struct.algebraic[0]:
        return None
    frame = struct.plus_i_frame
    for name, p in points.items():
        # A real J(p) squaring to -Id has an n-dimensional +i eigenspace.
        sections = [frame[i] for i in struct.at(p).basis]
        for df in forms:
            coeffs = [df.apply([u.vector]) for u in sections]
            moving = [i for i, c in enumerate(coeffs) if not c.is_zero]
            if not moving:
                continue
            q = next((i for i in moving if coeffs[i].evaluate(p)), None)
            if q is None:
                break
            cq, uq = coeffs[q], sections[q]
            sections = [
                u if c.is_zero else u.scale(cq) - uq.scale(c)
                for i, (u, c) in enumerate(zip(sections, coeffs))
                if i != q
            ]
        else:
            return Basis(name, tuple(sections))
    return None


def _cross_eliminate(
    sections: Sequence[GenSection], forms: Sequence[DiffForm]
) -> tuple[GenSection, ...]:
    """Cross-elimination against each 1-form df in turn: keep the sections
    whose vector part df annihilates, add c_b u_a - c_a u_b for every
    pair with nonzero coefficients c_a = df(u_a), c_b = df(u_b), and drop
    the zero sections.  With no form the sections come back as they are."""
    for df in forms:
        coeffs = [df.apply([u.vector]) for u in sections]
        kept = [u for u, c in zip(sections, coeffs) if c.is_zero]
        moving = [a for a, c in enumerate(coeffs) if not c.is_zero]
        kept += [
            sections[a].scale(coeffs[b]) - sections[b].scale(coeffs[a])
            for a, b in combinations(moving, 2)
        ]
        sections = [u for u in kept if not u.is_zero]
    return tuple(sections)


def closing_brackets(
    struct: GenStructure, points: Points, forms: Sequence[DiffForm] = ()
) -> tuple[Basis | None, Sequence[GenSection], Iterator[tuple]]:
    """The one "certified basis, else full frame" closure pass over the +i
    eigenbundle sections that the 1-forms annihilate.

    Returns the certified_basis, its sections and no open brackets when
    every bracket of the basis closes (certified_basis argues why that
    settles the full frame); otherwise None, the +i frame cross-eliminated
    against the forms, built only then, and its open_brackets, so a
    failure is reported in the full frame's numbering, exactly as
    without a certificate."""
    basis = certified_basis(struct, points, forms)
    if basis is not None and next(open_brackets(struct, basis.sections), None) is None:
        return basis, basis.sections, iter(())
    frame = _cross_eliminate(struct.plus_i_frame, forms)
    return None, frame, open_brackets(struct, frame)


def check_integrable(
    struct: GenStructure, points: Points = NO_POINTS
) -> tuple[bool, str]:
    """Courant involutivity of the +i eigenbundle against the twist.

    J^2 = -Id is checked first; it is also the idempotence of the
    eigenprojector P = (Id - iJ)/2, as P^2 - P = -(J^2 + Id)/4, which is
    what the failing verdict names, with the first nonzero entry of
    J^2 + Id.  The eigenbundle rank is checked at the
    sample points (the number of columns of Id - iJ(p) that at(p) picks),
    and every bracket of spanning sections is required to stay inside the
    eigenbundle (zero residual (J - i)w).  For an isotropic subbundle this
    spanning-set computation settles involutivity for all sections; when
    the structure is algebraic, the brackets of the n columns of Id - iJ
    picked at the first point, a basis over the fraction field, settle it
    (certified_basis).  A frame of constant sections brackets to the
    twist term alone (open_brackets): under a zero twist it closes with
    no bracket computed, and a failing detail names the same pair and
    residual component as the general bracket.
    """
    if not struct.squares_to_minus_one:
        return False, "eigenprojector is not idempotent: " + _entry_text(
            "J^2 + Id", struct.square_witness
        )
    for p in points.values():
        defect = struct.at(p).rank_defect
        if defect is not None:
            return False, defect
    basis, _, hits = closing_brackets(struct, points)
    hit = next(hits, None)
    if hit is not None:
        a, b, total = hit
        return (
            False,
            f"bracket of frame sections {a} and {b} leaves the "
            f"eigenbundle (residual component {total})",
        )
    if basis is None:
        return True, "eigenbundle is involutive for the twisted bracket"
    return True, f"eigenbundle is involutive for the twisted bracket: {basis} close"


def check_gk_pair(
    j1: GenStructure, j2: GenStructure, points: Sequence[EvalPoint]
) -> tuple[bool, str]:
    """Commuting structures with a positive definite product metric.

    The commutator and the metric are read on row supports: J1 J2 and
    J2 J1 are support products of the members' supports, and a failing
    detail names the first nonzero entry of J1 J2 - J2 J1, or of the
    metric minus its transpose.  Each member must square to -Id, a test
    the algebraic verdict has already cached; commuting members then give
    (J1 J2)^2 = J1^2 J2^2 = Id, so G = -J1 J2 squares to Id.
    Positivity of the pairing restricted to the +1 eigenbundle of G is
    equivalent to positive definiteness of (gram . G), which is tested
    through its leading principal minors; a zero minor is reported as
    non-positive.  A metric whose entries are all constant is tested at
    the first point alone, and the verdict claims positivity chart-wide;
    any other metric is tested at every sample point, and the verdict
    claims positivity there alone.
    """
    if j1.chart != j2.chart:
        return False, "structures live on different charts"
    if j1.twist != j2.twist:
        return False, "structures carry different twists"
    prod = support_mul(j1.supports, j2.supports)
    witness = first_difference(prod, support_mul(j2.supports, j1.supports))
    if witness is not None:
        return False, "structures do not commute: " + _entry_text("J1 J2 - J2 J1", witness)
    for which, struct in (("first", j1), ("second", j2)):
        if not struct.squares_to_minus_one:
            return False, (
                f"the {which} structure of the pair does not square to minus "
                "the identity"
            )
    # The pairing matrix times G: half of G with its row halves swapped.
    n = j1.chart.dim
    metric = tuple(
        {j: x.scale(-HALF) for j, x in row.items()} for row in prod[n:] + prod[:n]
    )
    witness = first_difference(metric, support_transpose(metric))
    if witness is not None:
        return False, "product metric is not symmetric: " + _entry_text(
            "the metric minus its transpose", witness
        )
    if not points:
        return False, "positivity needs at least one sample point"
    constant = all(x.is_constant() for row in metric for x in row.values())
    dense = densify(metric, 2 * n, RingElement.zero(j1.chart))
    for p in points[:1] if constant else points:
        ok, minors = is_positive_definite(rmat_eval(dense, p))
        if not ok:
            return (
                False,
                f"product metric not positive definite at {p}: leading minor "
                f"{len(minors)} is {minors[-1]} (non-positive)",
            )
    if constant:
        scope = "chart-wide (the metric is constant)"
    else:
        scope = f"at {len(points)} point" + ("s" if len(points) != 1 else "")
    return True, f"commuting pair with positive definite product metric, {scope}"
