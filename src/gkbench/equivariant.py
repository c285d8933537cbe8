"""Torus actions, the Cartan model, moment data, and connections.

A k-torus acts through k commuting vector fields.  Equivariant forms are
polynomials in k dual variables with differential-form coefficients,
stored by multidegree; the Cartan differential adds the exterior
derivative of each component and subtracts contractions one multidegree
up.  Moment data for a generalized structure is a list of one-forms and
invariant functions, one pair per generator, tied to the structure by an
eigen-section condition.  The connection-to-potential construction turns
a choice of connection one-forms into a single 2-form whose contraction
recovers the moment one-forms, making the shifted twist basic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from .calculus import DiffForm, VectorField, lie_bracket
from .errors import ChartMismatchError, ValidationError
from .ring import Chart, RingElement, Scalar
from .structures import GenSection, GenStructure, section_from_column

MultiDegree = tuple[int, ...]


class TorusAction:
    """k commuting real vector fields generating a torus action."""

    __slots__ = ("chart", "generators")

    def __init__(self, chart: Chart, generators: tuple[VectorField, ...]) -> None:
        for g in generators:
            if g.chart != chart:
                raise ChartMismatchError("generator over a different chart")
            if any(not c.is_real for c in g.components):
                raise ValidationError("generators must be real vector fields")
        for i, a in enumerate(generators):
            for b in generators[i + 1 :]:
                if not lie_bracket(a, b).is_zero:
                    raise ValidationError("generators do not commute")
        self.chart = chart
        self.generators = generators

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusAction):
            return NotImplemented
        return self.chart == other.chart and self.generators == other.generators

    __hash__ = None  # type: ignore[assignment]

    @property
    def k(self) -> int:
        return len(self.generators)


def is_invariant(form: DiffForm, action: TorusAction) -> bool:
    return all(form.lie(g).is_zero for g in action.generators)


def is_basic(form: DiffForm, action: TorusAction) -> str | None:
    """None when the form is basic: no contraction with any generator, and
    invariant.  Otherwise its first failure as its witness, the
    contractions judged before the Lie derivatives and each in generator
    order, with the nonzero form as ring text."""
    if form.degree > 0:
        for i, g in enumerate(action.generators, 1):
            contracted = form.interior(g)
            if not contracted.is_zero:
                return f"its contraction with generator {i} is {contracted}"
    for i, g in enumerate(action.generators, 1):
        moved = form.lie(g)
        if not moved.is_zero:
            return f"its Lie derivative along generator {i} is {moved}"
    return None


class EquivariantForm:
    """A Cartan-model cochain: multidegree -> differential form."""

    __slots__ = ("chart", "k", "components")

    def __init__(
        self, chart: Chart, k: int, components: Mapping[MultiDegree, DiffForm]
    ) -> None:
        clean: dict[MultiDegree, DiffForm] = {}
        total: int | None = None
        for deg, form in components.items():
            if len(deg) != k or any(d < 0 for d in deg):
                raise ValidationError("bad multidegree")
            if form.chart != chart:
                raise ChartMismatchError("component over a different chart")
            if form.is_zero:
                continue
            # The model is graded: each dual variable counts for two.
            m = form.degree + 2 * sum(deg)
            if total is None:
                total = m
            elif m != total:
                raise ValidationError(
                    "components do not share one total degree"
                )
            clean[deg] = form
        self.chart = chart
        self.k = k
        self.components = clean

    @property
    def is_zero(self) -> bool:
        return not self.components


def cartan_d(eform: EquivariantForm, action: TorusAction) -> EquivariantForm:
    """The Cartan differential: component at m picks up d(omega_m) and
    -i_{xi_i} omega_{m - e_i}."""
    if action.k != eform.k or action.chart != eform.chart:
        raise ValidationError("action does not match the equivariant form")
    out: dict[MultiDegree, list[DiffForm]] = {}

    def push(deg: MultiDegree, form: DiffForm) -> None:
        out.setdefault(deg, []).append(form)

    for deg, form in eform.components.items():
        push(deg, form.d())
        if form.degree == 0:
            continue
        for i, g in enumerate(action.generators):
            bumped = tuple(d + (1 if j == i else 0) for j, d in enumerate(deg))
            push(bumped, -form.interior(g))

    collected: dict[MultiDegree, DiffForm] = {}
    for deg, forms in out.items():
        total = forms[0]
        for f in forms[1:]:
            total = total + f
        collected[deg] = total
    return EquivariantForm(eform.chart, eform.k, collected)


# --- moment data -------------------------------------------------------------


class MomentData:
    """One real one-form and one real invariant function per generator,
    with the functions' differentials dF derived once, on first use (kept
    in the instance __dict__, so the class has no __slots__);
    moment_b_transform hands them to its copy, which has the same functions."""

    def __init__(
        self, action: TorusAction, one_forms: tuple[DiffForm, ...],
        functions: tuple[RingElement, ...],
    ) -> None:
        k = action.k
        if len(one_forms) != k or len(functions) != k:
            raise ValidationError("moment data length does not match the action")
        for a in one_forms:
            if a.degree != 1:
                raise ValidationError("moment one-forms must have degree 1")
            if a.chart != action.chart:
                raise ChartMismatchError("moment one-form over a different chart")
            if not a.is_real:
                raise ValidationError("moment one-forms must be real")
        for f in functions:
            if f.chart != action.chart:
                raise ChartMismatchError("moment function over a different chart")
            if not f.is_real:
                raise ValidationError("moment functions must be real")
        self.action = action
        self.one_forms = one_forms
        self.functions = functions

    @cached_property
    def differentials(self) -> tuple[DiffForm, ...]:
        """dF: the differential d f_i of each moment function."""
        return tuple(DiffForm.function(f).d() for f in self.functions)

    def section(self, i: int) -> GenSection:
        """The eigen-section candidate xi_i + alpha_i - i d f_i."""
        xi = self.action.generators[i]
        form = self.one_forms[i] - self.differentials[i].scale(Scalar.of(0, 1))
        return GenSection(xi, form)


def equivariant_three_form(twist: DiffForm, moment: MomentData) -> EquivariantForm:
    """H at multidegree zero plus the moment one-forms one step up."""
    k = moment.action.k
    chart = moment.action.chart
    components: dict[MultiDegree, DiffForm] = {(0,) * k: twist}
    for i, a in enumerate(moment.one_forms):
        deg = tuple(1 if j == i else 0 for j in range(k))
        components[deg] = a
    return EquivariantForm(chart, k, components)


def is_equivariantly_closed(
    twist: DiffForm, moment: MomentData
) -> tuple[bool, str]:
    """The three component equations of closedness in the Cartan model:
    the twist is closed, each contraction i_{xi_i} H equals d alpha_i,
    and the matrix alpha_j(xi_i) is antisymmetric.  A failing detail
    names the first nonzero component of its residual."""
    action = moment.action
    dh = twist.d()
    if not dh.is_zero:
        return False, "twist is not closed: " + _first_component("dH", dh)
    for i, g in enumerate(action.generators):
        contracted, dalpha = twist.interior(g), moment.one_forms[i].d()
        if contracted != dalpha:
            residual = _first_component(
                f"i_xi_{i + 1} H - d(alpha_{i + 1})", contracted - dalpha
            )
            return (
                False,
                f"contraction of the twist with generator {i + 1} does not "
                f"match d(alpha_{i + 1}): {residual}",
            )
    for i, gi in enumerate(action.generators):
        for j in range(i, action.k):
            gj = action.generators[j]
            total = moment.one_forms[j].apply([gi]) + moment.one_forms[i].apply([gj])
            if not total.is_zero:
                return (
                    False,
                    f"alpha_{j + 1}(xi_{i + 1}) + alpha_{i + 1}(xi_{j + 1}) "
                    f"is {total}, not zero",
                )
    return True, "equivariantly closed"


def _first_component(name: str, form: DiffForm) -> str:
    """The first nonzero component of a nonzero form of positive degree,
    in index order, as text."""
    idx = min(form.terms)
    frame = "^".join(f"d{form.chart.names[i]}" for i in idx)
    return f"component {frame} of {name} is {form.terms[idx]}"


def check_moment_map(
    struct: GenStructure, moment: MomentData
) -> tuple[bool, str]:
    """Eigen-section condition Jv = iv for v = xi + alpha - i df, plus
    invariance of the moment functions under the whole action."""
    if struct.chart != moment.action.chart:
        return False, "structure and action live on different charts"
    for i in range(moment.action.k):
        residual = struct.residual(moment.section(i).column())
        if any(not r.is_zero for r in residual):
            section = section_from_column(struct.chart, residual)
            return (
                False,
                f"section {i + 1} is not a +i eigenvector (residual {section})",
            )
    for j, g in enumerate(moment.action.generators):
        for i, f in enumerate(moment.functions):
            if not g.apply(f).is_zero:
                return (
                    False,
                    f"moment function {i + 1} is not invariant along "
                    f"generator {j + 1}",
                )
    return True, "moment sections are +i eigenvectors and functions are invariant"


def moment_b_transform(moment: MomentData, b_field: DiffForm) -> MomentData:
    """Transform moment data by an invariant B-field: each one-form gains
    i_{xi} B and the functions are untouched.  The twist drops by dB,
    which b_transform_structure carries."""
    if b_field.degree != 2:
        raise ValidationError("a B-field is a 2-form")
    if not b_field.is_real:
        raise ValidationError("B-field must be real")
    if not is_invariant(b_field, moment.action):
        raise ValidationError("B-field is not invariant under the action")
    new_forms = tuple(
        a + b_field.interior(g)
        for a, g in zip(moment.one_forms, moment.action.generators)
    )
    out = MomentData(moment.action, new_forms, moment.functions)
    # The same functions have the same differentials: hand them over.
    out.differentials = moment.differentials
    return out


# --- connections and the potential -------------------------------------------


class Connection:
    """Invariant one-forms theta_i with theta_i(xi_j) = delta_ij."""

    __slots__ = ("action", "one_forms")

    def __init__(self, action: TorusAction, one_forms: tuple[DiffForm, ...]) -> None:
        if len(one_forms) != action.k:
            raise ValidationError("connection length does not match the action")
        chart = action.chart
        for i, theta in enumerate(one_forms):
            if theta.degree != 1:
                raise ValidationError("connection forms must have degree 1")
            if theta.chart != chart:
                raise ChartMismatchError("connection form over a different chart")
            if not theta.is_real:
                raise ValidationError("connection forms must be real")
            for j, g in enumerate(action.generators):
                want = RingElement.one(chart) if i == j else RingElement.zero(chart)
                got = theta.apply([g])
                if got != want:
                    raise ValidationError(
                        f"theta_{i + 1}(xi_{j + 1}) must be "
                        f"{'1' if i == j else '0'}, found {got}"
                    )
        for theta in one_forms:
            for g in action.generators:
                if not theta.lie(g).is_zero:
                    raise ValidationError("connection forms must be invariant")
        self.action = action
        self.one_forms = one_forms


def gamma_from_connection(moment: MomentData, conn: Connection) -> DiffForm:
    """The potential Gamma = -sum_i alpha_i ^ theta_i + beta, where beta
    feeds both slots back through the connection:
    beta = sum_{l<i} alpha_i(xi_l) theta_l ^ theta_i.

    Antisymmetry of the coefficient matrix alpha_i(xi_l) is required
    (it is one of the closedness equations) and is checked here, since
    otherwise no single 2-form has the right contractions.

    i_{xi_j} Gamma = alpha_j holds by construction, for any connection
    and any antisymmetric one-forms, invariant or not: theta_i(xi_j) =
    delta_ij and antisymmetry give i_{xi_j} Gamma = alpha_j -
    alpha_j(xi_j) theta_j, and alpha_j(xi_j) = 0; tests pin it.  For
    invariant moment data, Gamma is invariant and H + d Gamma is basic,
    which the caller's checks verify.
    """
    if moment.action is not conn.action and moment.action != conn.action:
        raise ValidationError("moment data and connection use different actions")
    action = moment.action
    chart = action.chart
    k = action.k
    c = [[alpha.apply([g]) for alpha in moment.one_forms] for g in action.generators]
    for l in range(k):
        for i in range(l, k):
            if not (c[l][i] + c[i][l]).is_zero:
                raise ValidationError(
                    "moment one-forms are not antisymmetric on the generators; "
                    "no potential exists"
                )
    gamma = DiffForm.zero(chart, 2)
    for i in range(k):
        gamma = gamma - moment.one_forms[i].wedge(conn.one_forms[i])
    for l in range(k):
        for i in range(l + 1, k):
            if c[l][i].is_zero:
                continue
            gamma = gamma + conn.one_forms[l].wedge(conn.one_forms[i]).scale(c[l][i])
    return gamma
