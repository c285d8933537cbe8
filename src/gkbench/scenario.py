"""Scenario files: JSON descriptions of a chart, structures, action and
moment data, plus the list of checks to run and the expected exact
quantities; the expected potential, expected.gamma, is parsed here.

All numeric payloads are strings parsed by the exact expression parser
(coefficients, functions) or as rationals, real Scalars (levels, affine
point values); periodic point values are integer quarter turns.  Loading
is strict: an unknown key, a malformed expression, or data violating a
constructor invariant raises ValidationError naming the problem.

Each text is parsed once per load.  A form is summed into one dict, each
term's frame sorted into its index with the sign of the sort.  Every
structure matrix is built over the chart, and the scenario's one twist
is judged real and closed once, with the first structure in name order,
where the public GenStructure(...) would judge it; so every structure
takes the trusted constructor, GenStructure._of_valid, and each message
is raised where the public constructor raised it.  The report's digest
is SHA-256 from the interpreter's built-in module, bound when a digest
is taken, so importing the loader loads no OpenSSL.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping

from .calculus import DiffForm, VectorField
from .equivariant import Connection, MomentData, TorusAction
from .errors import ParseError, ValidationError
from .linalg import RMat
from .ring import Chart, EvalPoint, RingElement, Scalar, make_chart, parse_expr, parse_rational
from .structures import (
    GenStructure,
    check_twist,
    complex_matrix,
    symplectic_matrix,
)

KNOWN_CHECKS = (
    "algebraic",
    "integrability",
    "type",
    "gk_pair",
    "moment",
    "equivariant",
    "gamma",
    "level_closure",
    "reduction",
    "gk_reduction",
    "b_flip",
    "b_commute",
)

_TOP_KEYS = {
    "name",
    "title",
    "chart",
    "twist",
    "structures",
    "pair",
    "action",
    "moment",
    "connections",
    "level",
    "points",
    "b_field",
    "basic_field",
    "checks",
    "expected",
}


# Texts parsed so far in one load_scenario call, each to its element.
Parsed = dict[str, RingElement]


def _expr(text: str, chart: Chart, where: str, parsed: Parsed) -> RingElement:
    """The element a text denotes, parsed once per load: a repeated text,
    such as a "0" matrix entry, shares its element.  A text that fails to
    parse is not kept, so each bad entry raises with its own where."""
    if not isinstance(text, str):
        raise ValidationError(
            f"{where}: expression must be a string, got {type(text).__name__}"
        )
    element = parsed.get(text)
    if element is None:
        try:
            element = parsed[text] = parse_expr(text, chart)
        except ParseError as e:
            raise ValidationError(f"{where}: {e}") from e
    return element


def form_from_terms(
    chart: Chart, terms: list, degree: int, where: str, parsed: Parsed
) -> DiffForm:
    """The sum of the terms, each coeff * d(frame[0]) ^ d(frame[1]) ^ ...,
    built as one dict: each term's frame is sorted into its index, with
    the sign of the sorting permutation, and a frame that repeats a
    coordinate adds nothing."""
    if not isinstance(terms, list):
        raise ValidationError(f"{where}: terms must be a list")
    total: dict[tuple[int, ...], RingElement] = {}
    for item in terms:
        if not isinstance(item, dict):
            raise ValidationError(f"{where}: every term must be an object")
        extra = set(item) - {"coeff", "frame"}
        if extra:
            raise ValidationError(f"{where}: unknown term keys {sorted(extra)}")
        frame = _field(item, "frame", list, [])
        if len(frame) != degree:
            raise ValidationError(
                f"{where}: term frame {frame} does not have degree {degree}"
            )
        coeff = _expr(item.get("coeff", "1"), chart, where, parsed)
        try:
            index = [chart.index(name) for name in frame]
        except ValidationError as e:  # an unknown coordinate name
            raise ValidationError(f"{where}: {e}") from e
        ordered = tuple(sorted(index))
        if coeff.is_zero or len(set(ordered)) < degree:
            continue
        inversions = sum(a > b for i, a in enumerate(index) for b in index[i + 1 :])
        if inversions % 2:
            coeff = -coeff
        cur = total.get(ordered)
        if cur is None:
            total[ordered] = coeff
        elif (cur := cur + coeff).is_zero:
            del total[ordered]
        else:
            total[ordered] = cur
    return DiffForm._of_valid(chart, degree, total)


def _rational(raw: Any, where: str) -> Scalar:
    """A JSON integer, or a string holding an integer or p/q, by the
    parser's rule for rational literals (ring.parse_rational)."""
    try:
        return parse_rational(str(raw))
    except ParseError as e:
        raise ValidationError(f"{where}: {raw}") from e


def _field(data: Mapping[str, Any], key: str, kind: type, default: Any) -> Any:
    """data[key], or default when the key is absent; the value must be a
    JSON list (kind list) or a JSON object (kind dict)."""
    value = data.get(key, default)
    if not isinstance(value, kind):
        raise ValidationError(
            f"{key} must be {'a list' if kind is list else 'an object'}"
        )
    return value


def _point(chart: Chart, values: Any, where: str) -> EvalPoint:
    """Parse the affine values as rationals; EvalPoint judges the rest
    (unknown, missing and periodic values), its message prefixed by
    where."""
    if not isinstance(values, dict):
        raise ValidationError(f"{where}: values must be an object")
    affine = {name for name, flag in zip(chart.names, chart.affine) if flag}
    converted = {
        name: _rational(raw, f"{where}: bad value for {name}") if name in affine else raw
        for name, raw in values.items()
    }
    try:
        return EvalPoint.from_mapping(chart, converted)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from e


def _matrix(chart: Chart, spec: Mapping[str, Any], where: str, parsed: Parsed) -> RMat:
    """The 2n x 2n matrix a structure spec describes, every check on the
    spec itself made; the twist is the loader's to judge."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: must be an object")
    kind = spec.get("kind")
    wanted = {"kind", "two_form"} if kind == "symplectic" else {"kind", "matrix"}
    extra = set(spec) - wanted
    if extra:
        raise ValidationError(f"{where}: unknown structure keys {sorted(extra)}")
    if kind == "symplectic":
        return symplectic_matrix(
            form_from_terms(chart, spec.get("two_form", []), 2, where, parsed)
        )
    if kind in ("complex", "matrix"):
        # an n x n J on the tangent bundle, or the 2n x 2n structure itself
        size = chart.dim if kind == "complex" else 2 * chart.dim
        rows = _field(spec, "matrix", list, [])
        if len(rows) != size or any(
            not isinstance(r, list) or len(r) != size for r in rows
        ):
            raise ValidationError(f"{where}: matrix must be {size} x {size}")
        entries = tuple(
            tuple(_expr(entry, chart, where, parsed) for entry in row) for row in rows
        )
        return complex_matrix(entries, chart) if kind == "complex" else entries
    raise ValidationError(f"{where}: unknown structure kind {kind!r}")


class Scenario:
    __slots__ = (
        "name", "title", "chart", "twist", "structures", "pair", "action", "moment",
        "moment_structure", "connections", "level", "points", "b_field", "basic_field",
        "checks", "expected", "raw",
    )

    def __init__(
        self, name: str, title: str, chart: Chart, twist: DiffForm,
        structures: dict[str, GenStructure], pair: tuple[str, str] | None,
        action: TorusAction | None, moment: MomentData | None, moment_structure: str | None,
        connections: dict[str, Connection], level: tuple[Scalar, ...],
        points: dict[str, EvalPoint], b_field: DiffForm | None, basic_field: DiffForm | None,
        checks: tuple[str, ...], expected: dict[str, Any] | None = None,
        raw: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.title = title
        self.chart = chart
        self.twist = twist
        self.structures = structures
        self.pair = pair
        self.action = action
        self.moment = moment
        self.moment_structure = moment_structure
        self.connections = connections
        self.level = level
        self.points = points
        self.b_field = b_field
        self.basic_field = basic_field
        self.checks = checks
        self.expected = {} if expected is None else expected
        self.raw = {} if raw is None else raw


def load_scenario(data: Mapping[str, Any]) -> Scenario:
    extra = set(data) - _TOP_KEYS
    if extra:
        raise ValidationError(f"unknown scenario keys {sorted(extra)}")
    for key in ("name", "chart", "structures", "checks"):
        if key not in data:
            raise ValidationError(f"scenario is missing the {key!r} key")
    name = data["name"]

    try:
        chart = make_chart(*[tuple(c) for c in data["chart"]])
    except (ValidationError, TypeError, ValueError) as e:
        raise ValidationError(f"chart: {e}") from e

    parsed: Parsed = {}
    twist = form_from_terms(chart, data.get("twist", []), 3, "twist", parsed)

    # Every matrix is built over the chart, and the one twist is judged
    # once, with the first structure, where GenStructure(...) would judge
    # it; so each structure takes the trusted constructor.
    structures: dict[str, GenStructure] = {}
    specs = _field(data, "structures", dict, {})
    for sname in sorted(specs):
        try:
            matrix = _matrix(chart, specs[sname], f"structure {sname}", parsed)
            if not structures:
                check_twist(twist, chart)
            structures[sname] = GenStructure._of_valid(chart, matrix, twist)
        except ValidationError as e:
            if str(e).startswith(f"structure {sname}"):
                raise
            raise ValidationError(f"structure {sname}: {e}") from e

    pair = None
    if "pair" in data:
        pair_names = tuple(_field(data, "pair", list, []))
        if len(pair_names) != 2 or any(
            not isinstance(p, str) or p not in structures for p in pair_names
        ):
            raise ValidationError("pair must name two defined structures")
        pair = pair_names

    action = None
    if "action" in data:
        gens = []
        for i, comps in enumerate(_field(data, "action", list, [])):
            where = f"action generator {i + 1}"
            if not isinstance(comps, list) or len(comps) != chart.dim:
                raise ValidationError(f"{where} needs {chart.dim} components")
            gens.append(
                VectorField(chart, tuple(_expr(c, chart, where, parsed) for c in comps))
            )
        try:
            action = TorusAction(chart, tuple(gens))
        except ValidationError as e:
            raise ValidationError(f"action: {e}") from e

    moment = None
    moment_structure = None
    if "moment" in data:
        if action is None:
            raise ValidationError("moment data requires an action")
        mdata = _field(data, "moment", dict, {})
        moment_structure = mdata.get("structure")
        if (
            not isinstance(moment_structure, str)
            or moment_structure not in structures
        ):
            raise ValidationError("moment data must name one of the defined structures")
        k = action.k
        if "one_forms" not in mdata:
            one_forms = tuple(DiffForm.zero(chart, 1) for _ in range(k))
        else:
            one_forms = tuple(
                form_from_terms(chart, terms, 1, f"moment one-form {i + 1}", parsed)
                for i, terms in enumerate(_field(mdata, "one_forms", list, []))
            )
        functions = tuple(
            _expr(text, chart, f"moment function {i + 1}", parsed)
            for i, text in enumerate(_field(mdata, "functions", list, []))
        )
        try:
            moment = MomentData(action, one_forms, functions)
        except ValidationError as e:
            raise ValidationError(f"moment: {e}") from e

    connections: dict[str, Connection] = {}
    for cname, terms_list in _field(data, "connections", dict, {}).items():
        if action is None:
            raise ValidationError("connections require an action")
        if not isinstance(terms_list, list):
            raise ValidationError(f"connection {cname} must be a list of one-forms")
        forms = tuple(
            form_from_terms(chart, terms, 1, f"connection {cname}", parsed)
            for terms in terms_list
        )
        try:
            connections[cname] = Connection(action, forms)
        except ValidationError as e:
            raise ValidationError(f"connection {cname}: {e}") from e

    level = tuple(
        _rational(x, "level: bad value") for x in _field(data, "level", list, [])
    )

    points: dict[str, EvalPoint] = {}
    for item in _field(data, "points", list, []):
        if not isinstance(item, dict):
            raise ValidationError("every point must be an object")
        pname = item.get("name")
        if not isinstance(pname, str) or not pname or pname in points:
            raise ValidationError("every point needs a distinct name")
        points[pname] = _point(chart, item.get("values", {}), f"point {pname}")

    b_field = None
    if "b_field" in data:
        b_field = form_from_terms(chart, data["b_field"], 2, "b_field", parsed)
        if not b_field.is_real:
            raise ValidationError("b_field must be real")
    basic_field = None
    if "basic_field" in data:
        basic_field = form_from_terms(
            chart, data["basic_field"], 2, "basic_field", parsed
        )

    checks = tuple(_field(data, "checks", list, []))
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ValidationError(f"unknown check {c!r}")
    # A given level, and one that a check reduces or slices at, has one value per generator.
    k = 0 if action is None else action.k
    at_level = {"level_closure", "reduction", "gk_reduction", "b_commute"} & set(checks)
    if ("level" in data or at_level) and len(level) != k:
        raise ValidationError(f"level length {len(level)} is not the number of generators, {k}")

    expected = dict(_field(data, "expected", dict, {}))
    extra = set(expected) - {"types", "reduced_types", "reduced_dim", "gamma"}
    if extra:
        raise ValidationError(f"unknown expected keys {sorted(extra)}")
    counts = [("reduced_dim", expected["reduced_dim"])] if "reduced_dim" in expected else []
    for key in ("types", "reduced_types"):
        counts += (
            (f"{key} {name}", value) for name, value in _field(expected, key, dict, {}).items()
        )
    for where, value in counts:
        # A JSON true or false is a Python bool, which is an int.
        if type(value) is not int or value < 0:
            raise ValidationError(
                f"expected {where}: {json.dumps(value)} is not a non-negative integer"
            )
    for key in ("types", "reduced_types"):
        for sname in _field(expected, key, dict, {}):
            if sname not in structures:
                raise ValidationError(f"expected {key} {sname}: no such structure")
    if "gamma" in expected:
        expected["gamma"] = form_from_terms(
            chart, expected["gamma"], 2, "expected gamma", parsed
        )

    return Scenario(
        name=name,
        title=data.get("title", name),
        chart=chart,
        twist=twist,
        structures=structures,
        pair=pair,
        action=action,
        moment=moment,
        moment_structure=moment_structure,
        connections=connections,
        level=level,
        points=points,
        b_field=b_field,
        basic_field=basic_field,
        checks=checks,
        expected=expected,
        raw=dict(data),
    )


def scenario_from_path(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as e:
        raise ValidationError(f"cannot read scenario file: {e}") from e
    except ValueError as e:  # a JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"scenario file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ValidationError("scenario file must contain a JSON object")
    return load_scenario(data)


def scenario_digest(raw: Mapping[str, Any]) -> str:
    """SHA-256 of the scenario's canonical JSON, as hex, from the built-in
    module as random takes its SHA-512 (hashlib, which loads OpenSSL, only
    where it is not built), bound here so that loading binds none."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()
