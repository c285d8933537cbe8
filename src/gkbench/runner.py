"""Run the checks a scenario asks for and collect verdicts.

Checks run in a fixed registry order regardless of how the scenario
lists them.  Every verdict is pass, fail, or skipped, with a human
readable detail; a ValidationError raised by library code becomes a
failing verdict rather than an exception.  All comparisons are exact.

When a scenario carries a B-field, the moment-map, equivariance, gamma,
closure, and reduction checks operate on the transformed structure and
transported moment data; when the transported moment one-forms are not
zero, reduction first applies the potential of the scenario's first
connection to remove them.

The Workspace reduces each point once per run: `fiber` builds the
quotient data at a named point and `reduced` the Dirac reduction of a
structure there, and the reduction, gk_reduction and b_commute checks
and the `reduce` command all read them.  Only successes are cached: a
point whose reduction raises ValidationError is recomputed by the next
check that asks and raises the same message again, so each check
reports its own failing verdict for it.  The two-step factorization
stays an independent oracle, computed once per point by the reduction
check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .calculus import DiffForm
from .equivariant import (
    MomentData,
    gamma_from_connection,
    is_basic,
    is_equivariantly_closed,
    check_moment_map,
    moment_b_transform,
)
from .errors import ValidationError
from .linalg import Mat, inverse, mat_mul, rmat_eval
from .reduction import (
    FiberData,
    GkReducedFiber,
    ReducedFiber,
    check_adapted_closure,
    check_level_closure,
    descend_endomorphism,
    dirac_reduce,
    fiber_data,
    gk_reduce,
    gk_type_prediction,
    level_substitution,
    reduced_type,
    reduced_type_of_matrix,
    two_step_disagreement,
    two_step_reduce,
)
from .scenario import KNOWN_CHECKS, Scenario, form_from_terms
from .structures import (
    GenStructure,
    b_exponential,
    b_transform_structure,
    check_algebraic,
    check_gk_pair,
    check_integrable,
    type_at,
)


@dataclass
class Verdict:
    check: str
    status: str
    detail: str

    def as_dict(self) -> dict[str, str]:
        return {"check": self.check, "status": self.status, "detail": self.detail}


def _bad(check: str, detail: str) -> Verdict:
    return Verdict(check, "fail", detail)


def _skip(check: str, detail: str) -> Verdict:
    return Verdict(check, "skipped", detail)


def _judged(check: str, ok: bool, detail: str) -> Verdict:
    return Verdict(check, "pass" if ok else "fail", detail)


def _listed(check: str, problems: list[str], passed: str) -> Verdict:
    """Fails naming every problem, or passes with the given detail."""
    return _judged(check, not problems, "; ".join(problems) or passed)


class Workspace:
    """Shared derived objects for one scenario run."""

    def __init__(self, scen: Scenario):
        self.scen = scen
        self.quantities: dict[str, Any] = {}
        self._work: dict[str, GenStructure] = {}
        self._moment_w: MomentData | None = None
        self._reduction: dict[str | None, tuple] = {}
        self._fibers: dict[str, FiberData] = {}
        self._reduced: dict[tuple[str, str], ReducedFiber] = {}

    def work(self, name: str) -> GenStructure:
        """The structure after the scenario's B-field, if any."""
        if name not in self._work:
            base = self.scen.structures[name]
            if self.scen.b_field is None:
                self._work[name] = base
            else:
                self._work[name] = b_transform_structure(self.scen.b_field, base)
        return self._work[name]

    def moment_w(self) -> MomentData:
        """Moment data transported through the scenario's B-field."""
        if self.scen.moment is None:
            raise ValidationError("this check needs moment data")
        if self._moment_w is None:
            if self.scen.b_field is None:
                self._moment_w = self.scen.moment
            else:
                base = self.scen.structures[self.scen.moment_structure]
                _, self._moment_w = moment_b_transform(
                    self.scen.moment, self.scen.b_field, base.twist
                )
        return self._moment_w

    def reduction_entry(
        self, structure_name: str, connection: str | None
    ) -> tuple[GenStructure, MomentData, DiffForm | None]:
        """Structure and moment data ready for fiber reduction: one-forms
        removed by the named connection's potential when necessary."""
        key = (structure_name, connection)
        if key in self._reduction:
            return self._reduction[key]
        moment = self.moment_w()
        struct = self.work(structure_name)
        gamma = None
        if any(not a.is_zero for a in moment.one_forms):
            if connection is None:
                raise ValidationError(
                    "moment one-forms are nonzero and the scenario lists no "
                    "connection to remove them"
                )
            conn = self.scen.connections[connection]
            gamma = gamma_from_connection(moment, conn)
            # e^-gamma e^B = e^(B - gamma): one transform of the scenario's
            # structure, which keeps its matrix, and so its eigenbundle,
            # when the potential equals the B-field.
            b_field = self.scen.b_field
            shift = -gamma if b_field is None else b_field - gamma
            struct = b_transform_structure(shift, self.scen.structures[structure_name])
            # i_{xi_j} Gamma = alpha_j - alpha_j(xi_j) theta_j = alpha_j, as
            # gamma_from_connection's antisymmetry check makes alpha_j(xi_j) = 0.
            _, moment = moment_b_transform(moment, -gamma, self.work(structure_name).twist)
            if not is_basic(struct.twist, moment.action):
                raise ValidationError(
                    "twist is not basic after the potential transform"
                )
        self._reduction[key] = (struct, moment, gamma)
        return self._reduction[key]

    def primary_connection(self) -> str | None:
        names = list(self.scen.connections)
        return names[0] if names else None

    def partner(self) -> str | None:
        """The member of the pair that is not the moment structure, or
        None when the pair does not contain the moment structure."""
        pair, name = self.scen.pair, self.scen.moment_structure
        if pair is None or name not in pair:
            return None
        return pair[1] if pair[0] == name else pair[0]

    def fiber(self, point_name: str) -> FiberData:
        """Reduction data at a named point.  A B-field or potential leaves
        the moment functions and the action unchanged, so the moment data
        of the moment structure's reduction entry serves every structure."""
        if point_name not in self._fibers:
            _, moment, _ = self.reduction_entry(
                self.scen.moment_structure, self.primary_connection()
            )
            self._fibers[point_name] = fiber_data(
                moment, self.scen.points[point_name], self.scen.level
            )
        return self._fibers[point_name]

    def reduced(self, structure_name: str, point_name: str) -> ReducedFiber:
        """A structure's reduction entry for the primary connection,
        reduced at a named point."""
        key = (structure_name, point_name)
        if key not in self._reduced:
            struct, _, _ = self.reduction_entry(
                structure_name, self.primary_connection()
            )
            self._reduced[key] = dirac_reduce(struct, self.fiber(point_name))
        return self._reduced[key]

    def gk_reduced(self, point_name: str) -> GkReducedFiber:
        """The partner transported through the moment structure's
        reduction at a named point; needs a partner."""
        primary = self.primary_connection()
        struct1, _, _ = self.reduction_entry(self.scen.moment_structure, primary)
        struct2, _, _ = self.reduction_entry(self.partner(), primary)
        red1 = self.reduced(self.scen.moment_structure, point_name)
        return gk_reduce(red1, struct1, struct2)


def _conjugate_by_descended(b_field: DiffForm, red: ReducedFiber) -> Mat:
    """The reduced structure conjugated by the B-transform of a basic
    two-form, descended to the quotient."""
    fiber = red.fiber
    if not fiber.m:
        return ()
    carrier = descend_endomorphism(
        rmat_eval(b_exponential(b_field), fiber.point), fiber
    )
    return mat_mul(carrier, mat_mul(red.jmat, inverse(carrier)))


def _each_structure(
    ws: Workspace, label: str, check: Callable[[GenStructure], tuple[bool, str]]
) -> list[Verdict]:
    """A check of every structure, and of its B-transform when the
    scenario has a B-field."""
    out = []
    for name in sorted(ws.scen.structures):
        out.append(_judged(f"{label}:{name}", *check(ws.scen.structures[name])))
        if ws.scen.b_field is not None:
            out.append(_judged(f"{label}:{name}+b", *check(ws.work(name))))
    return out


def _check_algebraic(ws: Workspace) -> list[Verdict]:
    return _each_structure(ws, "algebraic", check_algebraic)


def _check_integrability(ws: Workspace) -> list[Verdict]:
    return _each_structure(
        ws, "integrability", lambda struct: check_integrable(struct, ws.scen.points)
    )


def _check_type(ws: Workspace) -> list[Verdict]:
    want = ws.scen.expected.get("types", {})
    if not want:
        return [_bad("type", "scenario lists the type check but expects no types")]
    out = []
    types_seen: dict[str, int] = {}
    for name in sorted(want):
        if name not in ws.scen.structures:
            out.append(_bad(f"type:{name}", "no such structure"))
            continue
        struct = ws.scen.structures[name]
        values = {
            pname: type_at(struct, p) for pname, p in ws.scen.points.items()
        }
        ok = all(v == want[name] for v in values.values())
        if ok:
            types_seen[name] = want[name]
        out.append(_judged(f"type:{name}", ok, (
            f"type {want[name]} at all {len(values)} points" if ok
            else f"expected type {want[name]}, computed {values}"
        )))
    if types_seen:
        ws.quantities["types"] = types_seen
    return out


def _check_gk_pair(ws: Workspace) -> list[Verdict]:
    if ws.scen.pair is None:
        return [_bad("gk_pair", "scenario lists gk_pair but names no pair")]
    a, b = ws.scen.pair
    points = list(ws.scen.points.values())
    return [_judged("gk_pair", *check_gk_pair(ws.work(a), ws.work(b), points))]


def _check_moment(ws: Workspace) -> list[Verdict]:
    moment = ws.moment_w()
    struct = ws.work(ws.scen.moment_structure)
    return [_judged("moment", *check_moment_map(struct, moment))]


def _check_equivariant(ws: Workspace) -> list[Verdict]:
    moment = ws.moment_w()
    struct = ws.work(ws.scen.moment_structure)
    closed = is_equivariantly_closed(struct.twist, moment)
    return [_judged("equivariant", *closed)]


def _check_gamma(ws: Workspace) -> list[Verdict]:
    scen = ws.scen
    if not scen.connections:
        return [_bad("gamma", "scenario lists gamma but has no connections")]
    moment = ws.moment_w()
    struct = ws.work(scen.moment_structure)
    action = moment.action
    out = []
    gammas: dict[str, DiffForm] = {}
    for cname, conn in scen.connections.items():
        check = f"gamma:{cname}"
        try:
            gamma = gamma_from_connection(moment, conn)
        except ValidationError as e:
            out.append(_bad(check, str(e)))
            continue
        gammas[cname] = gamma
        problems = []
        for i, xi in enumerate(action.generators):
            if gamma.interior(xi) != moment.one_forms[i]:
                problems.append(f"contraction with generator {i + 1} is off")
            if not gamma.lie(xi).is_zero:
                problems.append(f"not invariant under generator {i + 1}")
        shifted = struct.twist + gamma.d()
        if not is_basic(shifted, action):
            problems.append("twist plus d(potential) is not basic")
        out.append(
            _listed(
                check,
                problems,
                "potential contracts to the moment one-forms, is "
                "invariant, and makes the twist basic",
            )
        )
    if gammas:
        first = next(iter(gammas))
        ws.quantities["gamma"] = str(gammas[first])
        if "gamma" in scen.expected:
            want = form_from_terms(
                scen.chart, scen.expected["gamma"], 2, "expected gamma"
            )
            same = gammas[first] == want
            out.append(_judged("gamma:expected", same, (
                f"potential equals {want}" if same
                else f"potential {gammas[first]} differs from expected {want}"
            )))
    names = list(gammas)
    for other in names[1:]:
        basic = is_basic(gammas[other] - gammas[names[0]], action)
        out.append(_judged(
            f"gamma:difference({other})",
            basic,
            f"potentials {'' if basic else 'do not '}differ by a basic two-form",
        ))
    return out


def _check_level_closure(ws: Workspace) -> list[Verdict]:
    moment = ws.moment_w()
    struct = ws.work(ws.scen.moment_structure)
    sub = level_substitution(moment, ws.scen.level)
    points = ws.scen.points
    frame, frame_slice = check_level_closure(moment, sub, points)
    adapted, adapted_slice = check_adapted_closure(struct, moment, sub, points)
    out = [
        _judged("level_closure:frame", *frame),
        _judged("level_closure:adapted", *adapted),
    ]
    if sub is None:
        out.append(
            _skip(
                "level_closure:slice",
                "chart does not admit substituting the level values",
            )
        )
    else:
        (ok1, d1), (ok2, d2) = frame_slice, adapted_slice
        out.append(_judged("level_closure:slice", ok1 and ok2, d2 if ok1 else d1))
    return out


def _check_reduction(ws: Workspace) -> list[Verdict]:
    scen = ws.scen
    out = []
    primary = ws.primary_connection()
    struct, moment, gamma = ws.reduction_entry(scen.moment_structure, primary)
    want_dim = scen.expected.get("reduced_dim")
    want_type = scen.expected.get("reduced_types", {}).get(scen.moment_structure)
    reds = {}
    for pname in scen.points:
        check = f"reduction:{pname}"
        try:
            fiber = ws.fiber(pname)
            red = ws.reduced(scen.moment_structure, pname)
            two = two_step_reduce(struct, fiber)
        except ValidationError as e:
            out.append(_bad(check, str(e)))
            continue
        reds[pname] = (fiber, red)
        disagreement = two_step_disagreement(red, two)
        problems = [disagreement] if disagreement else []
        dim = 2 * fiber.m
        if want_dim is not None and dim != want_dim:
            problems.append(f"quotient dimension {dim}, expected {want_dim}")
        rtype = reduced_type(red)
        if want_type is not None and rtype != want_type:
            problems.append(f"reduced type {rtype}, expected {want_type}")
        out.append(
            _listed(
                check,
                problems,
                f"quotient dimension {dim}, reduced type {rtype}, "
                "two-step factorization agrees",
            )
        )
    if reds:
        some = next(iter(reds.values()))
        ws.quantities["reduced_dim"] = 2 * some[0].m
        ws.quantities.setdefault("reduced_types", {})[scen.moment_structure] = (
            reduced_type(some[1])
        )
    if gamma is not None:
        for cname in list(scen.connections)[1:]:
            check = f"reduction:independence({cname})"
            try:
                struct_alt, moment_alt, gamma_alt = ws.reduction_entry(
                    scen.moment_structure, cname
                )
            except ValidationError as e:
                out.append(_bad(check, str(e)))
                continue
            diff = gamma - gamma_alt
            if not is_basic(diff, moment.action):
                out.append(_bad(check, "connection change is not basic"))
                continue
            problems = []
            for pname, (fiber, red) in reds.items():
                try:
                    red_alt = dirac_reduce(struct_alt, fiber)
                    moved = _conjugate_by_descended(diff, red)
                except ValidationError as e:
                    problems.append(f"{pname}: {e}")
                    continue
                if red_alt.jmat != moved:
                    problems.append(
                        f"{pname}: reduced structures differ by more than "
                        "the descended transform"
                    )
            out.append(
                _listed(
                    check,
                    problems,
                    "reduced structures agree up to the descended "
                    "basic transform at all points",
                )
            )
    return out


def _check_gk_reduction(ws: Workspace) -> list[Verdict]:
    scen = ws.scen
    if scen.pair is None:
        return [_bad("gk_reduction", "scenario names no pair")]
    if scen.moment_structure not in scen.pair:
        return [
            _bad("gk_reduction", "moment structure is not part of the pair")
        ]
    other = ws.partner()
    struct2, _, _ = ws.reduction_entry(other, ws.primary_connection())
    want = scen.expected.get("reduced_types", {}).get(other)
    out = []
    seen_type = None
    for pname in scen.points:
        check = f"gk_reduction:{pname}"
        try:
            fiber = ws.fiber(pname)
            gk = ws.gk_reduced(pname)
        except ValidationError as e:
            out.append(_bad(check, str(e)))
            continue
        rtype = reduced_type_of_matrix(gk.jmat2, fiber.m)
        predicted, formula = gk_type_prediction(struct2, fiber)
        problems = []
        if rtype != predicted:
            problems.append(
                f"reduced type {rtype} does not match the prediction "
                f"{predicted} ({formula})"
            )
        if want is not None and rtype != want:
            problems.append(f"reduced type {rtype}, expected {want}")
        if not problems:
            seen_type = rtype
        out.append(
            _listed(check, problems, f"reduced type {rtype} matches the count: {formula}")
        )
    if seen_type is not None:
        ws.quantities.setdefault("reduced_types", {})[other] = seen_type
    return out


def _check_b_flip(ws: Workspace) -> list[Verdict]:
    scen = ws.scen
    if scen.b_field is None:
        return [_bad("b_flip", "scenario lists b_flip but has no b_field")]
    if not scen.structures:
        return [_bad("b_flip", "scenario lists b_flip but has no structure")]
    name = scen.moment_structure or sorted(scen.structures)[0]
    base = scen.structures[name]
    b = scen.b_field
    db = b.d()
    if db.is_zero:
        return [
            _bad("b_flip", "b_field is closed, the twist shift would be zero")
        ]
    points = scen.points
    moved = ws.work(name)
    ok_shifted, detail = check_integrable(moved, points)
    legs = [f"with twist shifted down: {'pass' if ok_shifted else detail}"]
    ok_same, _ = check_integrable(moved.with_twist(base.twist), points)
    legs.append(f"with the original twist: {'fails' if not ok_same else 'PASSES'}")
    ok_up, _ = check_integrable(moved.with_twist(base.twist + db), points)
    legs.append(f"with twist shifted up: {'fails' if not ok_up else 'PASSES'}")
    back = b_transform_structure(-b, base)
    ok_back, detail_back = check_integrable(back, points)
    legs.append(
        f"inverse transform against twist shifted up: "
        f"{'pass' if ok_back else detail_back}"
    )
    good = ok_shifted and not ok_same and not ok_up and ok_back
    return [_judged("b_flip", good, "; ".join(legs))]


def _check_b_commute(ws: Workspace) -> list[Verdict]:
    scen = ws.scen
    if scen.basic_field is None:
        return [_bad("b_commute", "scenario lists b_commute but no basic_field")]
    primary = ws.primary_connection()
    struct, moment, _ = ws.reduction_entry(scen.moment_structure, primary)
    basic = scen.basic_field
    if not is_basic(basic, moment.action):
        return [_bad("b_commute", "basic_field is not basic for the action")]
    moved = b_transform_structure(basic, struct)
    out = []
    for pname in scen.points:
        check = f"b_commute:{pname}"
        try:
            fiber = ws.fiber(pname)
            red = ws.reduced(scen.moment_structure, pname)
            red_moved = dirac_reduce(moved, fiber)
            conjugated = _conjugate_by_descended(basic, red)
        except ValidationError as e:
            out.append(_bad(check, str(e)))
            continue
        commutes = red_moved.jmat == conjugated
        verb = "commutes" if commutes else "does not commute"
        out.append(_judged(check, commutes, f"reduction {verb} with the basic transform"))
    return out


_REGISTRY: dict[str, Callable[[Workspace], list[Verdict]]] = {
    "algebraic": _check_algebraic,
    "integrability": _check_integrability,
    "type": _check_type,
    "gk_pair": _check_gk_pair,
    "moment": _check_moment,
    "equivariant": _check_equivariant,
    "gamma": _check_gamma,
    "level_closure": _check_level_closure,
    "reduction": _check_reduction,
    "gk_reduction": _check_gk_reduction,
    "b_flip": _check_b_flip,
    "b_commute": _check_b_commute,
}

assert tuple(_REGISTRY) == KNOWN_CHECKS


def run_scenario(scen: Scenario) -> tuple[list[Verdict], dict[str, Any]]:
    ws = Workspace(scen)
    verdicts: list[Verdict] = []
    for check in KNOWN_CHECKS:
        if check not in scen.checks:
            continue
        try:
            verdicts.extend(_REGISTRY[check](ws))
        except ValidationError as e:
            verdicts.append(_bad(check, str(e)))
    return verdicts, ws.quantities
