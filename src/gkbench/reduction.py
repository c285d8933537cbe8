"""Fiberwise reduction of generalized structures at points of a level set.

Everything here happens in the 2n-dimensional fiber of the generalized
tangent bundle at a chosen point p of a level set of the moment
functions.  With A the span of the action generators at p and D the span
of the moment differentials, the reducible subspace is

    W = ker(df) (+) ann(A),        W-perp = A (+) D,

and the reduced fiber is the quotient Q = W / W-perp of dimension
2(n - 2k).  The quotient basis is adapted: first lifts of tangent
directions extending A inside ker(df), then lifts of covectors extending
D inside ann(A).  With that ordering the upper-right block of a reduced
structure matrix plays the same role as on the chart, so reduced types
read off the same way.

FiberData is the one quotient type: lifts of a quotient basis, the
subspace W-perp it is divided by and the induced pairing.  W is never
built: it is the span of the lifts and W-perp.  There is one change of
basis per quotient -- a single elimination giving the inverse of the
lifts and W-perp completed to a basis of the fiber -- which decides
membership in W and gives every quotient coordinate as one product,
and one elimination per push-down, which meets a subspace with W and
gives the canonical basis of its image.  A reduced structure is one
solve of its eigenvector equations.  The one-step quotient at a point
and both stages of the two-step factorization are FiberData values.

The one-step Dirac quotient, an independent two-step factorization
(first the moment directions, then the group directions) with an explicit
comparison isomorphism, the induced second structure of a generalized
Kahler pair, the reduced-type arithmetic, closure of the level-tangent
eigenbundle, and descent of basic B-fields all live here.

No structure is evaluated here: J(p), the +i eigenbundle (the columns
of Id - iJ(p) that GenStructure.at picks, eigenrows, of half rank or a
ValidationError, a basis that every reader here canonicalizes or only
spans) and the type at p come from GenStructure.at, and reduced types
from the same rule, structures.matrix_type.  The two-step oracle reads
the eigenbundle the one-step quotient reads; its independence lies in
its own quotient.

Each function checks what some input can break and leaves what its own
construction guarantees to a one-line comment.  fiber_data checks the
level, the independence of the generators and of the moment
differentials, and tangency; the quotient then has dimension 2(n - 2k)
and a nondegenerate pairing.  dirac_reduce checks the dimension and the
isotropy of the pushed-down eigenbundle and that it misses its
conjugate; the matrix built from it is then real, squares to -Id and
preserves the pairing.  gk_reduce checks the +1 eigenspace C+ of -J1 J2
(its dimension, its meet with W, its image and positivity there),
J2^2 = -Id and a real C+; that the reduced pair commutes with a positive
definite product metric follows.  The two-step oracle keeps all its
checks, and two_step_disagreement names which of its two comparisons
with the one-step quotient fails.  A failed check raises
ValidationError with a sharp message, which the scenario runner turns
into a failing verdict.

The level distribution ker dF is involutive for every moment map, since
df_i([X, Y]) = X(df_i Y) - Y(df_i X) vanishes for fields X, Y tangent to
the level sets; that is an identity, so no bracket of tangent fields is
computed for it.  What can fail is closure of the level-tangent part of
the eigenbundle, and check_adapted_closure judges it in one pass through
structures.closing_brackets, handed the scenario's named points and the
moment differentials, derived once: the brackets of the
n - rank(dF.rho.(Id - iJ)) sections that structures.certified_basis
pivots out of the eigenbundle basis picked at one of them against dF,
and the cross-eliminated frame's pairs, which that pass builds only when
no point certifies a basis or a basis bracket fails.  It also judges the
level slice from the same pass: a certified chart-wide pass is a slice
pass, and a full-frame pass pulls back only the residuals that did not
vanish on the chart.  The runner calls it only when check_integrable
fails on the structure: every subbundle of an involutive eigenbundle
closes.  level_substitution returns a slice map only when every moment
function pulls back to its level constant.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from math import comb
from typing import Sequence

from .calculus import ChartMap
from .equivariant import MomentData
from .errors import ValidationError
from .linalg import (
    Mat,
    Vec,
    extend_basis,
    identity,
    is_positive_definite,
    is_scalar_matrix,
    mat,
    mat_add,
    mat_conj,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rmat_eval,
    row_space_basis,
    rref,
    solve,
    transpose,
)
from .ring import EvalPoint, IMAG, ONE, RationalLike, RingElement, Scalar, ZERO, make_chart
from .structures import (
    NO_POINTS,
    GenStructure,
    Points,
    closing_brackets,
    pairing_matrix,
)


def _embed_vector(n: int, comps: Sequence[Scalar]) -> Vec:
    return tuple(comps) + (ZERO,) * n


def _embed_covector(n: int, comps: Sequence[Scalar]) -> Vec:
    return (ZERO,) * n + tuple(comps)


def _gram(rows: Sequence[Vec], g: Mat) -> Mat:
    """The Gram matrix rows . g . rows^T of a bilinear form g."""
    return mat_mul(mat(rows), mat_mul(g, transpose(mat(rows))))


class FiberData:
    """A quotient W / W-perp of a 2n-dimensional fiber at a point.

    The quotient is its lifts and W-perp: W-perp is the span of the k
    orbit directions a_rows and the moment covectors d_rows, the
    quotient basis is the classes of the lifts, with gram_q the pairing
    induced on them, and 2m is the quotient dimension.  W itself is the
    span of the lifts and W-perp, which are independent, so one change
    of basis per quotient, made on first use, decides membership in W
    and gives every coordinate.  fiber_data builds the one-step quotient
    of a rank-k action; the two stages of the two-step factorization are
    quotients of the same type, by d_rows alone and then by a_rows alone.
    """

    def __init__(
        self, point: EvalPoint, n: int, lifts: tuple[Vec, ...], a_rows: tuple[Vec, ...],
        d_rows: tuple[Vec, ...], gram_q: Mat,
    ) -> None:
        self.point = point
        self.n = n
        self.lifts = lifts
        self.a_rows = a_rows
        self.d_rows = d_rows
        self.gram_q = gram_q

    @property
    def k(self) -> int:
        return len(self.a_rows)

    @property
    def m(self) -> int:
        return len(self.lifts) // 2

    @property
    def wperp(self) -> tuple[Vec, ...]:
        return self.a_rows + self.d_rows

    @cached_property
    def _change_of_basis(self) -> Mat:
        """The inverse of the basis lifts + W-perp + unit vectors of the
        fiber.  One elimination of [B | Id], with the lifts and W-perp as
        the columns of B, gives it: the pivot columns past B are the unit
        vectors that extend_basis would add, and the right half of the
        reduced matrix is the inverse of B completed by them."""
        basis = self.lifts + self.wperp
        eye = identity(2 * self.n)
        reduced, pivots = rref(
            tuple(col + e for col, e in zip(transpose(mat(basis)), eye))
        )
        if pivots[: len(basis)] != tuple(range(len(basis))):
            raise ValidationError("quotient lifts and W-perp are dependent")
        return tuple(row[len(basis) :] for row in reduced)

    def coords(self, v: Vec) -> Vec:
        """Quotient coordinates of a fiber vector lying in W: its first
        coordinates in the completed basis, whose unit-vector
        coordinates vanish exactly when the vector lies in W."""
        x = mat_vec(self._change_of_basis, v)
        if any(not c.is_zero for c in x[len(self.lifts) + len(self.wperp) :]):
            raise ValidationError("vector does not lie in the reducible subspace")
        return x[: len(self.lifts)]


def _push_down(rows: Sequence[Vec], quot: FiberData) -> tuple[int, tuple[Vec, ...]]:
    """The dimension of the meet of span(rows) with W, for independent
    rows, and the canonical basis of its image in the quotient: one
    change of basis per quotient, one elimination per push-down.

    A combination of the rows lies in W exactly when the same
    combination of their unit-vector coordinates (outside W) vanishes,
    and its quotient image is the same combination of their lift
    coordinates (the heads).  One elimination of the rows written as
    outside coordinates, then heads, decides both: the pivots in the
    outside columns span the outside part, so the meet has dimension the
    number of rows less theirs, and the reduced rows pivoting in the
    head columns vanish outside W and span the meet's image, their heads
    in reduced form, which is the canonical basis of that image.  When W
    is the whole fiber there are no outside columns.
    """
    lead = len(quot.lifts)
    cut = lead + len(quot.wperp)
    width = 2 * quot.n - cut  # the number of outside coordinates
    # The W-perp coordinates take no part, so they are not computed.
    picked = quot._change_of_basis[cut:] + quot._change_of_basis[:lead]
    reduced, pivots = rref(tuple(mat_vec(picked, v) for v in rows))
    outside = sum(1 for c in pivots if c < width)
    heads = tuple(reduced[r][width:] for r in range(outside, len(pivots)))
    return len(rows) - outside, heads


def fiber_data(
    moment: MomentData, point: EvalPoint, level: Sequence[RationalLike]
) -> FiberData:
    """Extract and validate the reduction data at one point.

    The nullspaces ann(A) and ker(df) come first, and their dimensions
    say whether the generators and the moment differentials are
    independent; the lifts then extend A inside ker(df) and D inside
    ann(A).  Tangency, df_i(xi_j) = 0, is what puts A in ker(df) and D
    in ann(A), so W-perp sits inside W once it holds.
    """
    action = moment.action
    chart = action.chart
    n = chart.dim
    k = action.k
    if len(level) != k:
        raise ValidationError("level length does not match the number of generators")
    for i, f in enumerate(moment.functions):
        value = f.evaluate(point)
        want = Scalar.of(level[i])
        if value != want:
            raise ValidationError(
                f"point is not on the level set: f_{i + 1} = {value}, "
                f"expected {want}"
            )
    xi_rows = rmat_eval(tuple(g.components for g in action.generators), point)
    df_rows = rmat_eval(tuple(df.covector() for df in moment.differentials), point)
    if k == 0:
        ann_a = ker_df = tuple(identity(n))
    else:
        ann_a = nullspace(mat(xi_rows))
        ker_df = nullspace(mat(df_rows))
    if n - len(ann_a) != k:
        raise ValidationError("action generators are dependent at the point")
    if n - len(ker_df) != k:
        raise ValidationError("moment map is rank-deficient at the point")
    tangency = mat_mul(mat(df_rows), transpose(mat(xi_rows)))
    for i, row in enumerate(tangency):
        for j, value in enumerate(row):
            if not value.is_zero:
                raise ValidationError(
                    f"generator {j + 1} is not tangent to the level set "
                    f"(df_{i + 1} does not vanish on it)"
                )

    # Tangency puts xi in ker(df) and df in ann(A), so each extension adds n - 2k.
    t_idx = extend_basis(xi_rows, ker_df)
    tstar_idx = extend_basis(df_rows, ann_a)
    lifts = tuple(_embed_vector(n, ker_df[i]) for i in t_idx) + tuple(
        _embed_covector(n, ann_a[i]) for i in tstar_idx
    )
    a_rows = tuple(_embed_vector(n, row) for row in xi_rows)
    d_rows = tuple(_embed_covector(n, row) for row in df_rows)
    # gram_q is nondegenerate: W-perp is W's orthogonal, and the lifts complement it.
    gram_q = _gram(lifts, pairing_matrix(n))
    return FiberData(point, n, lifts, a_rows, d_rows, gram_q)


class ReducedFiber:
    """A reduced structure on the quotient fiber."""

    __slots__ = ("fiber", "jmat", "l_rows")

    def __init__(self, fiber: FiberData, jmat: Mat, l_rows: tuple[Vec, ...]) -> None:
        self.fiber = fiber
        self.jmat = jmat
        self.l_rows = l_rows


def dirac_reduce(struct: GenStructure, fiber: FiberData) -> ReducedFiber:
    """Push the +i eigenbundle through the quotient and rebuild the
    structure matrix from the reduced eigenbundle."""
    m = fiber.m
    _, lq_rows = _push_down(struct.at(fiber.point).eigenrows, fiber)
    if len(lq_rows) != m:
        raise ValidationError(
            f"reduced eigenbundle has dimension {len(lq_rows)}, expected {m}"
        )
    if m == 0:
        return ReducedFiber(fiber, (), ())
    if not all(x.is_zero for row in _gram(lq_rows, fiber.gram_q) for x in row):
        raise ValidationError("reduced eigenbundle is not isotropic")
    # U diag(i, -i) U^-1, U = [L | conj L], is real, squares to -Id and, with L
    # and (gram_q being real) conj L isotropic, preserves gram_q.
    jmat = _structure_from_eigenrows(lq_rows)
    return ReducedFiber(fiber, jmat, tuple(lq_rows))


# --- two-step factorization --------------------------------------------------


def _eigen_matrix(plus: Sequence[Vec], minus: Sequence[Vec], value: Scalar) -> Mat:
    """The matrix J acting as value on span(plus) and as -value on
    span(minus): with the rows of plus and minus as the columns of U and
    D the diagonal of values, J U = U D, so J^T is the solution X of
    U^T X = (U D)^T, whose rows are the given rows, scaled."""
    rows = mat(tuple(plus) + tuple(minus))
    values = [value] * len(plus) + [-value] * len(minus)
    scaled = tuple(tuple(x * v for x in row) for row, v in zip(rows, values))
    return transpose(solve(rows, scaled))


def _structure_from_eigenrows(rows: Sequence[Vec]) -> Mat:
    """The matrix with +i eigenspace span(rows) and -i eigenspace their
    conjugate.  The rows are independent and so are their conjugates,
    so the eigenvector matrix is singular exactly when the two spans
    meet."""
    try:
        return _eigen_matrix(rows, mat_conj(rows), IMAG)
    except ValidationError:
        raise ValidationError(
            "reduced eigenbundle meets its conjugate; no real structure exists"
        ) from None


class TwoStepResult:
    __slots__ = ("jmat", "l_rows", "comparison")

    def __init__(self, jmat: Mat, l_rows: tuple[Vec, ...], comparison: Mat) -> None:
        self.jmat = jmat
        self.l_rows = l_rows
        self.comparison = comparison  # one-step quotient coords -> two-step quotient coords


def two_step_reduce(struct: GenStructure, fiber: FiberData) -> TwoStepResult:
    """Reduce in two stages: first by the moment covectors (restrict to
    ker(df), quotient by D), then inside that quotient by the group
    directions (restrict to the pairing-orthogonal of the orbit classes,
    quotient by them).  Returns the reduced structure in its own quotient
    basis plus the comparison isomorphism from the one-step coordinates.
    """
    n, k, m = fiber.n, fiber.k, fiber.m
    point = fiber.point
    gram = pairing_matrix(n)

    # Stage one: W1 = ker(df) (+) T*, perp = D.
    if k == 0:
        ker_df = tuple(identity(n))
        covector_ext = tuple(range(n))
    else:
        df_rows_plain = tuple(row[n:] for row in fiber.d_rows)
        ker_df = nullspace(mat(df_rows_plain))
        covector_ext = extend_basis(df_rows_plain, tuple(identity(n)))
    lifts1 = tuple(_embed_vector(n, v) for v in ker_df) + tuple(
        _embed_covector(n, identity(n)[i]) for i in covector_ext
    )
    quot1 = FiberData(point, n, lifts1, (), fiber.d_rows, _gram(lifts1, gram))

    _, l1_rows = _push_down(struct.at(point).eigenrows, quot1)
    if len(l1_rows) != n - k:
        raise ValidationError(
            f"stage-one eigenbundle has dimension {len(l1_rows)}, "
            f"expected {n - k}"
        )

    # Stage two inside Q1: perp = orbit classes, domain = their orthogonal.
    a1_rows = tuple(quot1.coords(row) for row in fiber.a_rows)
    dim1 = len(lifts1)
    if k == 0:
        lifts2 = tuple(identity(dim1))
    else:
        constraint = mat(tuple(mat_vec(quot1.gram_q, a) for a in a1_rows))
        a1_perp = nullspace(constraint)
        chosen = extend_basis(a1_rows, a1_perp)
        lifts2 = tuple(a1_perp[i] for i in chosen)
    if len(lifts2) != 2 * m:
        raise ValidationError("stage-two quotient has the wrong dimension")
    gram2 = _gram(lifts2, quot1.gram_q)
    quot2 = FiberData(point, n - k, lifts2, a1_rows, (), gram2)
    _, l2_rows = _push_down(l1_rows, quot2)
    if len(l2_rows) != m:
        raise ValidationError(
            f"stage-two eigenbundle has dimension {len(l2_rows)}, expected {m}"
        )

    jmat = _structure_from_eigenrows(l2_rows) if m else ()

    comparison = transpose(
        mat(tuple(quot2.coords(quot1.coords(b)) for b in fiber.lifts))
    ) if m else ()
    if m and rank(comparison) != 2 * m:
        raise ValidationError("factorization comparison map is singular")
    return TwoStepResult(jmat=jmat, l_rows=tuple(l2_rows), comparison=comparison)


def two_step_disagreement(red: ReducedFiber, two: TwoStepResult) -> str | None:
    """The first comparison on which the two-step factorization disagrees
    with the one-step reduction, or None when both hold: the comparison
    map must intertwine the reduced structures and carry the reduced
    eigenbundle onto the two-step one."""
    if not red.fiber.m:
        return None
    phi = two.comparison
    if mat_mul(phi, red.jmat) != mat_mul(two.jmat, phi):
        return (
            "two-step factorization disagrees: the comparison map does not "
            "intertwine the reduced structures"
        )
    # two.l_rows is _push_down's canonical basis: only phi's image is reduced.
    if row_space_basis([mat_vec(phi, u) for u in red.l_rows]) != two.l_rows:
        return (
            "two-step factorization disagrees: the comparison map does not "
            "carry the reduced eigenbundle onto the two-step one"
        )
    return None


# --- generalized Kahler reduction ---------------------------------------------


class GkReducedFiber:
    __slots__ = ("jmat2", "g_mat", "c_plus_rows")

    def __init__(self, jmat2: Mat, g_mat: Mat, c_plus_rows: tuple[Vec, ...]) -> None:
        self.jmat2 = jmat2
        self.g_mat = g_mat
        self.c_plus_rows = c_plus_rows


def gk_reduce(
    red1: ReducedFiber, j1: GenStructure, j2: GenStructure
) -> GkReducedFiber:
    """Reduce the second structure of a generalized Kahler pair by
    transporting the +1 eigenspace of the product metric operator."""
    fiber = red1.fiber
    point = fiber.point
    n, m = fiber.n, fiber.m
    if m == 0:
        return GkReducedFiber((), (), ())
    # C+, where -J1 J2 = Id, is the kernel of J1 J2 + Id.
    c_plus = nullspace(
        mat_add(mat_mul(j1.at(point).matrix, j2.at(point).matrix), identity(2 * n))
    )
    if len(c_plus) != n:
        raise ValidationError(
            f"the +1 eigenspace of the product operator has dimension "
            f"{len(c_plus)}, expected {n}"
        )
    meet, c_rows = _push_down(c_plus, fiber)
    if meet != n - 2 * fiber.k:
        raise ValidationError(
            f"the +1 eigenspace meets the reducible subspace in dimension "
            f"{meet}, expected {n - 2 * fiber.k}"
        )
    if len(c_rows) != m:
        raise ValidationError("reduced +1 eigenspace has the wrong dimension")
    ok, minors = is_positive_definite(_gram(c_rows, fiber.gram_q))
    if not ok:
        raise ValidationError(
            "induced pairing on the reduced +1 eigenspace is not positive "
            f"definite (leading minors {[str(x) for x in minors]})"
        )
    # C- has dimension m: the m rows of c_rows are independent, gram_q invertible.
    c_minus = nullspace(mat(tuple(mat_vec(fiber.gram_q, c) for c in c_rows)))
    g_tilde = _eigen_matrix(c_rows, c_minus, ONE)
    jmat2 = mat_mul(red1.jmat, g_tilde)
    # As J1^2 = -Id and G~^2 = Id, J2^2 = -Id says J1 G~ = G~ J1, which gives
    # J1 J2 = J2 J1 and -J1 J2 = G~; G~ is gram_q-self-adjoint, C- being C+-perp.
    if not is_scalar_matrix(mat_mul(jmat2, jmat2), -ONE):
        raise ValidationError("reduced second structure does not square to -Id")
    # A real C+ is positive, so C- is negative (gram_q has signature (m, m)) and
    # the metric gram_q.G~ positive definite; a non-real partner may break it.
    if not all(x.is_real for row in c_rows for x in row):
        raise ValidationError("reduced +1 eigenspace is not real")
    return GkReducedFiber(jmat2=jmat2, g_mat=g_tilde, c_plus_rows=tuple(c_rows))


def gk_type_prediction(j2: GenStructure, fiber: FiberData) -> tuple[int, str]:
    """The reduced-type arithmetic for the second structure: type at the
    point, minus half the group and stabilizer dimensions (equal here,
    the torus acts on its level set), plus twice the complex overlap of
    the orbit directions with the tangent projection of the eigenbundle.
    """
    point = fiber.point
    n, k = fiber.n, fiber.k
    base_type = j2.at(point).type
    l_rows = j2.at(point).eigenrows
    pi_rows = row_space_basis([row[:n] for row in l_rows])
    a_plain = tuple(row[:n] for row in fiber.a_rows)
    if not a_plain:
        overlap = 0
    else:
        joint = rank(mat(tuple(a_plain) + tuple(pi_rows)))
        overlap = len(a_plain) + len(pi_rows) - joint
    predicted = base_type - k + 2 * overlap
    detail = (
        f"type {base_type} at the point, minus {k} for the group and "
        f"stabilizer halves, plus 2*{overlap} for the orbit overlap"
    )
    return predicted, detail


# --- level-set closure ---------------------------------------------------------


def level_substitution(
    moment: MomentData, level: Sequence[RationalLike]
) -> ChartMap | None:
    """A chart map onto the level slice, when the moment functions are
    affine in the affine coordinates: one elimination solves f_i = level_i
    for one coordinate per function (the pivots), as an affine expression
    in the kept ones.  Returns None unless every moment function pulls
    back to its level constant and some coordinate is kept."""
    chart = moment.action.chart
    if len(level) != len(moment.functions):
        return None
    affine = [i for i in range(chart.dim) if chart.is_affine(i)]
    targets = [Scalar.of(want) for want in level]
    rows = []
    for f, target in zip(moment.functions, targets):
        row = dict.fromkeys(affine, ZERO)
        const = ZERO
        for exps, coeff in f.terms.items():
            moved = [i for i, e in enumerate(exps) if e != 0]
            if not moved:
                const = coeff
            elif len(moved) == 1 and exps[moved[0]] == 1 and moved[0] in row:
                row[moved[0]] = coeff
            else:
                return None
        rows.append(tuple(row.values()) + (target - const,))
    reduced, pivots = rref(mat(rows))
    dropped = {affine[c]: reduced[r] for r, c in enumerate(pivots) if c < len(affine)}
    kept = [(n, chart.kind(i)) for i, n in enumerate(chart.names) if i not in dropped]
    if not kept:
        return None
    sub = make_chart(*kept)
    free = [(c, chart.names[j]) for c, j in enumerate(affine) if j not in dropped]
    values = {name: RingElement.coordinate(sub, name) for _, name in free}
    for j, row in dropped.items():
        values[chart.names[j]] = sum(
            (values[name].scale(-row[c]) for c, name in free),
            RingElement.constant(sub, row[-1]),
        )
    periodic = {n: (n, 0) for i, n in enumerate(chart.names) if not chart.is_affine(i)}
    restrict = ChartMap(sub, chart, values, periodic)
    for f, target in zip(moment.functions, targets):
        if restrict.pull_function(f) != RingElement.constant(sub, target):
            return None
    return restrict


Outcome = tuple[bool, str]


def check_adapted_closure(
    struct: GenStructure,
    moment: MomentData,
    restrict: ChartMap | None = None,
    points: Points = NO_POINTS,
) -> tuple[Outcome, Outcome | None]:
    """Brackets of level-tangent eigenbundle sections stay in the
    eigenbundle, and so stay tangent: the vector part of a Courant bracket
    is the Lie bracket of the vector parts.  Only the certified_basis
    annihilated by dF is bracketed when it closes; the cross-eliminated
    frame is built otherwise.  Returns the verdict on the chart and, given a slice map,
    on the level slice (otherwise None): the first open bracket whose
    residual survives the pullback, as a residual zero on the chart is
    zero on the slice, so no bracket is computed twice."""
    basis, frame, hits = closing_brackets(struct, points, moment.differentials)
    # No tangency residual: df_i([X, Y]) = X(df_i Y) - Y(df_i X) = 0 for tangent X, Y.
    done = basis or f"all {comb(len(frame), 2)} adapted brackets"

    def verdict(hit: tuple | None, where: str) -> Outcome:
        if hit is None:
            return True, f"{done} stay in the eigenbundle, {where}"
        a, b, _ = hit
        return False, f"bracket of adapted sections {a} and {b} leaves the eigenbundle"

    first = next(hits, None)
    if restrict is None:
        return verdict(first, "globally"), None
    rest = () if first is None else chain([first], hits)
    bad = next((h for h in rest if not restrict.pull_function(h[2]).is_zero), None)
    return verdict(first, "globally"), verdict(bad, "on the level slice")


# --- descent of endomorphisms ---------------------------------------------------


def descend_endomorphism(big: Mat, fiber: FiberData) -> Mat:
    """Push a 2n x 2n fiber endomorphism that preserves W and W-perp down
    to the quotient, in the adapted basis."""
    return transpose(mat([fiber.coords(mat_vec(big, b)) for b in fiber.lifts]))
