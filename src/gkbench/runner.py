"""Run the checks a scenario asks for and collect verdicts.

Checks run in a fixed registry order regardless of how the scenario
lists them.  Every verdict is pass, fail, or skipped, with a human
readable detail; a ValidationError raised by library code becomes a
failing verdict rather than an exception.  All comparisons are exact.
A check that judges items one at a time (each structure, level-set
point or connection) does so in one loop, `_per_item`: a ValidationError
fails only the item it was raised for, with its message as the detail,
and the other items are still judged.  Raised outside the items, it
fails the whole check.  The pointwise checks (type, reduction,
gk_reduction, b_commute) need at least one point: on a scenario without
points each fails once, named after the check.

The Workspace's one memoized transform, `work`, moves a structure by
e^(B - Gamma): B the scenario's B-field, Gamma a connection's potential,
each zero when absent.  The moment-map, equivariance, gamma and closure
checks read the transform by B and the moment data transported through
B; reduction adds the potential of the first connection when the
transported moment one-forms are nonzero, and on either path reduces
only once the shifted twist H - dB + dGamma is basic.  The Workspace
judges each premise once per run, and every check that needs it reads
that judgment: a connection's potential and its invariance, the shifted
twist and each connection change being basic (the twist's failure named
by its witness, is_basic), and a structure's integrability (the
integrability check, the first leg of b_flip, and level_closure, which
brackets nothing once the moment structure passes; where neither of
the first two is listed and the structure is not constant,
level_closure runs the adapted pass alone, which brackets less).

The Workspace reduces each point once per run: `fiber` builds the
quotient data at a named point and `reduced` the Dirac reduction of a
structure there, and the reduction, gk_reduction and b_commute checks
and the `reduce` command all read them.  Its derived objects share one
memo, which keeps only successes: a point whose reduction raises
ValidationError is recomputed by the next check that asks and raises the
same message again, so each check reports its own failing verdict for
it.  The two-step factorization stays an independent oracle, computed
once per point by the reduction check.
"""

from __future__ import annotations

from functools import wraps
from typing import Any, Callable, Iterable

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
from .linalg import mat_mul, rmat_eval
from .reduction import (
    FiberData,
    GkReducedFiber,
    ReducedFiber,
    check_adapted_closure,
    descend_endomorphism,
    dirac_reduce,
    fiber_data,
    gk_reduce,
    gk_type_prediction,
    level_substitution,
    two_step_disagreement,
    two_step_reduce,
)
from .scenario import KNOWN_CHECKS, Scenario
from .structures import (
    GenStructure,
    b_exponential,
    b_transform_structure,
    check_gk_pair,
    check_integrable,
    matrix_type,
)


class Verdict:
    __slots__ = ("check", "status", "detail")

    def __init__(self, check: str, status: str, detail: str) -> None:
        self.check = check
        self.status = status
        self.detail = detail

    def as_dict(self) -> dict[str, str]:
        return {"check": self.check, "status": self.status, "detail": self.detail}


def _bad(check: str, detail: str) -> Verdict:
    return Verdict(check, "fail", detail)


def _skip(check: str, detail: str) -> Verdict:
    return Verdict(check, "skipped", detail)


def _judged(check: str, ok: bool, detail: str) -> Verdict:
    return Verdict(check, "pass" if ok else "fail", detail)


def _listed(problems: list[str], passed: str) -> tuple[bool, str]:
    """Fails naming every problem, or passes with the given detail."""
    return not problems, "; ".join(problems) or passed


def _per_item(
    items: Iterable[tuple[str, Any]], judge: Callable[[Any], tuple[bool, str]]
) -> list[Verdict]:
    """One verdict per (verdict name, item) pair, judged by judge(item);
    a ValidationError fails only the item it was raised for."""
    out = []
    for check, item in items:
        try:
            out.append(_judged(check, *judge(item)))
        except ValidationError as e:
            out.append(_bad(check, str(e)))
    return out


def _memoized(method: Callable) -> Callable:
    """A Workspace method computed once per arguments, omitted defaults
    filled in, in the instance's memo; a call that raises leaves nothing."""
    defaults = method.__defaults__ or ()
    width = method.__code__.co_argcount - 1

    @wraps(method)
    def once(self: Workspace, *args: Any) -> Any:
        key = (method.__name__, *args, *defaults[len(defaults) + len(args) - width:])
        if key not in self._memo:
            self._memo[key] = method(self, *key[1:])
        return self._memo[key]

    return once


class Workspace:
    """Shared derived objects for one scenario run."""

    def __init__(self, scen: Scenario):
        self.scen = scen
        self.quantities: dict[str, Any] = {}
        self._memo: dict[tuple, Any] = {}

    @_memoized
    def work(self, name: str, connection: str | None = None) -> GenStructure:
        """The structure moved by e^(B - Gamma) in one transform, B the
        scenario's B-field and Gamma the named connection's potential, each
        zero when absent; its twist is H - dB + dGamma."""
        shift = self.scen.b_field
        if connection is not None:
            gamma, _ = self.potential(connection)
            shift = -gamma if shift is None else shift - gamma
        base = self.scen.structures[name]
        return base if shift is None else b_transform_structure(shift, base)

    @_memoized
    def moment_w(self) -> MomentData:
        """Moment data transported through the scenario's B-field."""
        scen = self.scen
        if scen.moment is None:
            raise ValidationError("this check needs moment data")
        if scen.b_field is None:
            return scen.moment
        return moment_b_transform(scen.moment, scen.b_field)

    @_memoized
    def potential(self, connection: str) -> tuple[DiffForm, list[str]]:
        """The named connection's potential Gamma on moment_w(), and one
        problem per generator it is not invariant under."""
        moment = self.moment_w()
        gamma = gamma_from_connection(moment, self.scen.connections[connection])
        return gamma, [
            f"not invariant under generator {i + 1}"
            for i, xi in enumerate(moment.action.generators)
            if not gamma.lie(xi).is_zero
        ]

    @_memoized
    def twist_witness(self, connection: str | None) -> str | None:
        """Why H - dB + dGamma is not basic (is_basic), Gamma zero for None,
        judged on the moment structure's work entry: the loader gives every
        structure the scenario's twist; None when it is basic.  A zero
        twist is basic with no judgment."""
        twist = self.work(self.scen.moment_structure, connection).twist
        return None if twist.is_zero else is_basic(twist, self.moment_w().action)

    @_memoized
    def connection_change(self, connection: str) -> tuple[DiffForm, bool]:
        """Gamma - Gamma', Gamma' the named connection's potential and Gamma
        the primary connection's, and whether it is basic; where any potential
        exists, all do, since gamma_from_connection fails alike for each."""
        gamma, _ = self.potential(self.primary_connection())
        change = gamma - self.potential(connection)[0]
        return change, is_basic(change, self.moment_w().action) is None

    @_memoized
    def integrable(self, struct: GenStructure) -> tuple[bool, str]:
        """check_integrable at the scenario's points, once per structure object."""
        return check_integrable(struct, self.scen.points)

    def reduction_entry(
        self, structure_name: str, connection: str | None
    ) -> tuple[GenStructure, DiffForm | None]:
        """work(structure_name, connection), ready for fiber reduction once
        its twist is basic, and the potential that removed the moment
        one-forms; with zero one-forms the connection and potential are None."""
        if all(a.is_zero for a in self.moment_w().one_forms):
            connection = None
        elif connection is None:
            raise ValidationError(
                "moment one-forms are nonzero and the scenario lists no "
                "connection to remove them"
            )
        gamma, problems = (None, []) if connection is None else self.potential(connection)
        if problems:
            raise ValidationError(f"potential of connection {connection}: {'; '.join(problems)}")
        witness = self.twist_witness(connection)
        if witness is not None:
            after = "" if gamma is None else " after the potential transform"
            raise ValidationError(f"twist is not basic{after}: {witness}")
        return self.work(structure_name, connection), gamma

    def primary_connection(self) -> str | None:
        return next(iter(self.scen.connections), None)

    def partner(self) -> str | None:
        """The member of the pair that is not the moment structure, or
        None when the pair does not contain the moment structure."""
        pair, name = self.scen.pair, self.scen.moment_structure
        if pair is None or name not in pair:
            return None
        return pair[1] if pair[0] == name else pair[0]

    @_memoized
    def fiber(self, point_name: str) -> FiberData:
        """Reduction data at a named point; fiber_data reads only the action
        and moment functions, which neither a B-field nor a potential
        changes, so moment_w() serves all."""
        return fiber_data(self.moment_w(), self.scen.points[point_name], self.scen.level)

    @_memoized
    def reduced(self, structure_name: str, point_name: str) -> ReducedFiber:
        """A structure's reduction entry for the primary connection,
        reduced at a named point."""
        struct, _ = self.reduction_entry(structure_name, self.primary_connection())
        return dirac_reduce(struct, self.fiber(point_name))

    def gk_reduced(self, point_name: str) -> GkReducedFiber:
        """The partner transported through the moment structure's
        reduction at a named point; needs a partner."""
        primary = self.primary_connection()
        struct1, _ = self.reduction_entry(self.scen.moment_structure, primary)
        struct2, _ = self.reduction_entry(self.partner(), primary)
        red1 = self.reduced(self.scen.moment_structure, point_name)
        return gk_reduce(red1, struct1, struct2)


def _reduction_commutes(moved: GenStructure, beta: DiffForm, red: ReducedFiber) -> bool:
    """For a basic two-form beta and moved = e^beta J: whether the
    reduction of moved equals red, the reduction of J, conjugated by
    e^beta descended to the quotient."""
    fiber = red.fiber
    reduced = dirac_reduce(moved, fiber).jmat
    if not fiber.m:
        return not reduced
    carrier = descend_endomorphism(rmat_eval(b_exponential(beta), fiber.point), fiber)
    # carrier is invertible (the descent of e^-beta inverts it), so no inverse is formed.
    return mat_mul(reduced, carrier) == mat_mul(carrier, red.jmat)


def _each_structure(
    ws: Workspace, label: str, check: Callable[[GenStructure], tuple[bool, str]]
) -> list[Verdict]:
    """A check of every structure, and of its B-transform when the
    scenario has a B-field."""
    items = []
    for name in sorted(ws.scen.structures):
        items.append((f"{label}:{name}", lambda name=name: ws.scen.structures[name]))
        if ws.scen.b_field is not None:
            items.append((f"{label}:{name}+b", lambda name=name: ws.work(name)))
    return _per_item(items, lambda get: check(get()))


def _check_algebraic(ws: Workspace) -> list[Verdict]:
    return _each_structure(ws, "algebraic", lambda struct: struct.algebraic)


def _check_integrability(ws: Workspace) -> list[Verdict]:
    return _each_structure(ws, "integrability", ws.integrable)


def _check_type(ws: Workspace) -> list[Verdict]:
    want = ws.scen.expected.get("types", {})
    if not want:
        return [_bad("type", "scenario lists the type check but expects no types")]

    def judge(name: str) -> tuple[bool, str]:
        struct = ws.scen.structures[name]
        values = {pname: struct.at(p).type for pname, p in ws.scen.points.items()}
        if any(v != want[name] for v in values.values()):
            return False, f"expected type {want[name]}, computed {values}"
        ws.quantities.setdefault("types", {})[name] = want[name]
        return True, f"type {want[name]} at all {len(values)} points"

    return _per_item(((f"type:{name}", name) for name in sorted(want)), judge)


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
    ws.moment_w()  # without moment data the whole check fails
    gammas: dict[str, DiffForm] = {}

    # The potential contracts to the moment one-forms by construction,
    # so only invariance and basicness are left to check.
    def judge(cname: str) -> tuple[bool, str]:
        gammas[cname], invariance = ws.potential(cname)
        basic = [] if ws.twist_witness(cname) is None else ["twist plus d(potential) is not basic"]
        return _listed(
            invariance + basic,
            "potential contracts to the moment one-forms, is "
            "invariant, and makes the twist basic",
        )

    out = _per_item(((f"gamma:{cname}", cname) for cname in scen.connections), judge)
    names = list(gammas)
    if names:
        first = names[0]
        ws.quantities["gamma"] = str(gammas[first])
        if "gamma" in scen.expected:
            want = scen.expected["gamma"]
            same = gammas[first] == want
            out.append(_judged("gamma:expected", same, (
                f"potential equals {want}" if same
                else f"potential {gammas[first]} differs from expected {want}"
            )))
    for other in names[1:]:
        _, basic = ws.connection_change(other)
        out.append(_judged(
            f"gamma:difference({other})",
            basic,
            f"potentials {'' if basic else 'do not '}differ by a basic two-form",
        ))
    return out


# The level distribution ker dF of any moment map is involutive.
LEVEL_FRAME_CLOSES = (
    "fields tangent to the level sets bracket to tangent fields, globally: "
    "df_i([X, Y]) = X(df_i Y) - Y(df_i X), an identity, so no bracket is computed"
)


# Every subbundle of an involutive eigenbundle is closed, the level-tangent one too.
EIGENBUNDLE_CLOSES = (
    "the eigenbundle of this structure is judged involutive, so brackets of its "
    "level-tangent sections stay in it and no bracket is computed"
)


def _check_level_closure(ws: Workspace) -> list[Verdict]:
    moment = ws.moment_w()
    struct = ws.work(ws.scen.moment_structure)
    sub = level_substitution(moment, ws.scen.level)
    # Judging integrability brackets the whole eigenbundle basis, more than
    # the adapted pass does, unless the frame is constant, where it takes
    # no Courant bracket; so it is read only where a listed check makes it
    # anyway, or where it is free.
    judged = struct.is_constant or not _JUDGE_INTEGRABILITY.isdisjoint(ws.scen.checks)
    if judged and ws.integrable(struct)[0]:
        adapted = (True, f"{EIGENBUNDLE_CLOSES}, globally")
        adapted_slice = (True, f"{EIGENBUNDLE_CLOSES}, on the level slice")
    else:
        adapted, adapted_slice = check_adapted_closure(struct, moment, sub, ws.scen.points)
    out = [
        Verdict("level_closure:frame", "pass", LEVEL_FRAME_CLOSES),
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
        out.append(_judged("level_closure:slice", *adapted_slice))
    return out


def _check_reduction(ws: Workspace) -> list[Verdict]:
    scen = ws.scen
    name = scen.moment_structure
    struct, gamma = ws.reduction_entry(name, ws.primary_connection())
    want_dim = scen.expected.get("reduced_dim")
    want_type = scen.expected.get("reduced_types", {}).get(name)
    reds: dict[str, ReducedFiber] = {}

    def judge(pname: str) -> tuple[bool, str]:
        red = ws.reduced(name, pname)
        disagreement = two_step_disagreement(red, two_step_reduce(struct, red.fiber))
        reds[pname] = red
        problems = [disagreement] if disagreement else []
        dim, rtype = 2 * red.fiber.m, matrix_type(red.jmat, red.fiber.point)
        # The first point reduced gives the quantities.
        ws.quantities.setdefault("reduced_dim", dim)
        ws.quantities.setdefault("reduced_types", {}).setdefault(name, rtype)
        if want_dim is not None and dim != want_dim:
            problems.append(f"quotient dimension {dim}, expected {want_dim}")
        if want_type is not None and rtype != want_type:
            problems.append(f"reduced type {rtype}, expected {want_type}")
        return _listed(
            problems,
            f"quotient dimension {dim}, reduced type {rtype}, "
            "two-step factorization agrees",
        )

    def independent(cname: str) -> tuple[bool, str]:
        struct_alt, _ = ws.reduction_entry(name, cname)
        diff, basic = ws.connection_change(cname)
        if not basic:
            return False, "connection change is not basic"
        problems = []
        for pname, red in reds.items():
            try:
                if not _reduction_commutes(struct_alt, diff, red):
                    problems.append(
                        f"{pname}: reduced structures differ by more than "
                        "the descended transform"
                    )
            except ValidationError as e:
                problems.append(f"{pname}: {e}")
        return _listed(
            problems,
            "reduced structures agree up to the descended "
            "basic transform at all points",
        )

    out = _per_item(((f"reduction:{pname}", pname) for pname in scen.points), judge)
    if gamma is not None:
        alternatives = list(scen.connections)[1:]
        out += _per_item(
            ((f"reduction:independence({c})", c) for c in alternatives), independent
        )
    return out


def _check_gk_reduction(ws: Workspace) -> list[Verdict]:
    scen = ws.scen
    if scen.pair is None:
        return [_bad("gk_reduction", "scenario names no pair")]
    if scen.moment_structure not in scen.pair:
        return [_bad("gk_reduction", "moment structure is not part of the pair")]
    other = ws.partner()
    struct2, _ = ws.reduction_entry(other, ws.primary_connection())
    want = scen.expected.get("reduced_types", {}).get(other)

    def judge(pname: str) -> tuple[bool, str]:
        fiber = ws.fiber(pname)
        rtype = matrix_type(ws.gk_reduced(pname).jmat2, fiber.point)
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
            # The last passing point gives the quantity.
            ws.quantities.setdefault("reduced_types", {})[other] = rtype
        return _listed(problems, f"reduced type {rtype} matches the count: {formula}")

    return _per_item(((f"gk_reduction:{pname}", pname) for pname in scen.points), judge)


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
    ok_shifted, detail = ws.integrable(moved)
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
    name = scen.moment_structure
    struct, _ = ws.reduction_entry(name, ws.primary_connection())
    basic = scen.basic_field
    witness = is_basic(basic, ws.moment_w().action)
    if witness is not None:
        return [_bad("b_commute", f"basic_field is not basic for the action: {witness}")]
    moved = b_transform_structure(basic, struct)

    def judge(pname: str) -> tuple[bool, str]:
        commutes = _reduction_commutes(moved, basic, ws.reduced(name, pname))
        verb = "commutes" if commutes else "does not commute"
        return commutes, f"reduction {verb} with the basic transform"

    return _per_item(((f"b_commute:{pname}", pname) for pname in scen.points), judge)


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

# The checks that judge Workspace.integrable on the moment structure moved
# by the B-field, which level_closure then reads from the memo.
_JUDGE_INTEGRABILITY = frozenset({"integrability", "b_flip"})

# Checks judged point by point, which on no points would pass or say nothing.
_POINTWISE = ("type", "reduction", "gk_reduction", "b_commute")


def run_scenario(scen: Scenario) -> tuple[list[Verdict], dict[str, Any]]:
    ws = Workspace(scen)
    verdicts: list[Verdict] = []
    for check in KNOWN_CHECKS:
        if check not in scen.checks:
            continue
        if check in _POINTWISE and not scen.points:
            verdicts.append(_bad(check, "needs at least one point"))
            continue
        try:
            verdicts.extend(_REGISTRY[check](ws))
        except ValidationError as e:
            verdicts.append(_bad(check, str(e)))
    return verdicts, ws.quantities
