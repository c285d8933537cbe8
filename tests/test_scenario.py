"""Tests for the scenario loader, the check runner, reports, and the CLI."""

import copy
import hashlib
import importlib.util
import json
import subprocess
import sys
import time
from datetime import timedelta
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gkbench.calculus import DiffForm
from gkbench.catalog import builtin_raw, catalog_names, load_builtin
from gkbench import runner, structures
from gkbench.cli import main
from gkbench.errors import ParseError, ValidationError
from gkbench.report import build_report, render_json, render_text, report_passed
from gkbench.ring import MAX_COORDS, MAX_DIGITS, parse_expr
from gkbench.runner import run_scenario
from gkbench.scenario import load_scenario, scenario_digest, scenario_from_path
from gkbench.selftest import invariant_results


# gamma_torus_cylinder's base point with JSON true for a periodic value.
_TRUE_QUARTER_TURN = [
    {"name": "base", "values": {"x1": True, "t1": "1", "x2": 0, "t2": "1"}}
]


def _base_point(t1):
    """gamma_torus_cylinder's base point with the value t1 for t1."""
    return [{"name": "base", "values": {"x1": 0, "t1": t1, "x2": 0, "t2": "1"}}]


def dense_symplectic(n, checks):
    """A scenario with a constant two-form holding every dx_i ^ dx_j
    term on n affine coordinates."""
    names = [f"x{i}" for i in range(1, n + 1)]
    return {
        "name": "dense",
        "chart": [[name, "affine"] for name in names],
        "structures": {
            "j": {
                "kind": "symplectic",
                "two_form": [
                    {"coeff": "1", "frame": [a, b]}
                    for a, b in combinations(names, 2)
                ],
            }
        },
        "checks": checks,
    }


# A scenario on four affine coordinates that each case below patches, and
# the load each must give: its message, or its twist and B-field as text.
# The forms are built in one pass and the twist is judged once, with the
# first structure in name order; the messages, and which comes first, are
# those of a term-by-term build that judges the twist per structure.
_R4 = {
    "name": "r4",
    "chart": [[name, "affine"] for name in ("x", "y", "z", "w")],
    "structures": {},
    "checks": [],
}
_OMEGA = {"kind": "symplectic", "two_form": [{"frame": ["x", "y"]}, {"frame": ["z", "w"]}]}
_NOT_CLOSED = [{"coeff": "w", "frame": ["x", "y", "z"]}]
FORM_LOADS = {
    "twist bad name": (
        {"twist": [{"frame": ["x", "q", "y"]}]}, "twist: unknown coordinate 'q'"
    ),
    "twist first bad name": (
        {"twist": [{"frame": ["x", "q", "r"]}]}, "twist: unknown coordinate 'q'"
    ),
    "twist name not a string": (
        {"twist": [{"frame": [1, "x", "y"]}]}, "twist: unknown coordinate 1"
    ),
    "coefficient before names": (
        {"twist": [{"coeff": "1/0", "frame": ["x", "q", "y"]}]},
        "twist: zero denominator (at position 2)",
    ),
    "wrong degree before names": (
        {"twist": [{"frame": ["x", "q"]}]},
        "twist: term frame ['x', 'q'] does not have degree 3",
    ),
    "frame not a list": ({"twist": [{"frame": "x"}]}, "frame must be a list"),
    "term not an object": ({"twist": ["x"]}, "twist: every term must be an object"),
    "unknown term key": (
        {"twist": [{"frame": ["x", "y", "z"], "sign": 1}]},
        "twist: unknown term keys ['sign']",
    ),
    "repeated name": ({"twist": [{"frame": ["x", "x", "y"]}]}, ("0", None)),
    "symplectic bad name": (
        {"structures": {"a": {"kind": "symplectic", "two_form": [{"frame": ["x", "q"]}]}}},
        "structure a: unknown coordinate 'q'",
    ),
    "matrix bad entry": (
        {"structures": {"a": {"kind": "matrix", "matrix": [["0"] * 7 + ["q"]] + [["0"] * 8] * 7}}},
        "structure a: unknown coordinate 'q' (at position 0)",
    ),
    "b_field bad name": (
        {"b_field": [{"coeff": "x", "frame": ["y", "v"]}]}, "b_field: unknown coordinate 'v'"
    ),
    "b_field terms cancel": (
        {"b_field": [
            {"coeff": "x", "frame": ["y", "z"]},
            {"coeff": "x", "frame": ["z", "y"]},
            {"frame": ["x", "w"]},
        ]},
        ("0", "dx^dw"),
    ),
    "twist not closed": (
        {"twist": _NOT_CLOSED, "structures": {"b": _OMEGA, "a": _OMEGA}},
        "structure a: twist is not closed",
    ),
    "twist not real": (
        {
            "twist": [{"coeff": "I", "frame": ["x", "y", "z"]}],
            "structures": {"b": _OMEGA, "a": _OMEGA},
        },
        "structure a: twist must be real",
    ),
    "twist not closed, no structure": ({"twist": _NOT_CLOSED}, ("(w)*dx^dy^dz", None)),
    "first structure's own message first": (
        {
            "twist": _NOT_CLOSED,
            "structures": {
                "a": {"kind": "symplectic", "two_form": [{"frame": ["x", "y"]}]},
                "b": _OMEGA,
            },
        },
        "structure a: symplectic form is not invertible: matrix determinant is not "
        "an invertible constant; no chart-wide inverse",
    ),
    "twist not closed, complex": (
        {"twist": _NOT_CLOSED, "structures": {"a": {"kind": "complex", "matrix": [
            ["0", "-1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"],
        ]}}},
        "structure a: twist is not closed",
    ),
    "twist not closed, matrix": (
        {"twist": _NOT_CLOSED, "structures": {"a": {"kind": "matrix", "matrix": [["0"] * 8] * 8}}},
        "structure a: twist is not closed",
    ),
}


@pytest.mark.parametrize("patch, want", FORM_LOADS.values(), ids=FORM_LOADS.keys())
def test_form_and_twist_loads_keep_their_messages(patch, want):
    try:
        scen = load_scenario({**_R4, **patch})
    except ValidationError as exc:
        assert str(exc) == want
        return
    b_field = None if scen.b_field is None else str(scen.b_field)
    assert (str(scen.twist), b_field) == want


def test_forms_are_the_wedge_of_their_frames():
    """Each term is coeff * d(frame[0]) ^ ..., in the frame's order, so a
    frame out of order carries the sign of its sorting permutation."""
    chart = load_scenario(_R4).chart
    d = {name: DiffForm.d_coord(chart, name) for name in chart.names}
    for frame in combinations_with_replacement("xyzw", 3):
        for order in {frame, frame[::-1], frame[1:] + frame[:1]}:
            raw = {**_R4, "twist": [{"coeff": "x - 2*y", "frame": list(order)}]}
            wedge = d[order[0]].wedge(d[order[1]]).wedge(d[order[2]])
            want = wedge.scale(parse_expr("x - 2*y", chart))
            assert load_scenario(raw).twist == want, order


def run_builtin(name):
    scen = load_builtin(name)
    verdicts, quantities = run_scenario(scen)
    return build_report(scen, verdicts, quantities)


class TestLoader:
    def test_all_builtins_load(self):
        for name in catalog_names():
            scen = load_builtin(name)
            assert scen.name == name
            assert scen.checks

    def test_catalog_has_nine_scenarios(self):
        assert len(catalog_names()) == 9

    def test_unknown_builtin(self):
        with pytest.raises(ValidationError, match="no builtin scenario"):
            builtin_raw("definitely_not_there")

    def test_unknown_top_level_key(self):
        raw = copy.deepcopy(builtin_raw("complex_r2"))
        raw["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown scenario keys"):
            load_scenario(raw)

    def test_unknown_structure_key(self):
        raw = copy.deepcopy(builtin_raw("kahler_c2_circle"))
        raw["structures"]["j1"]["form"] = raw["structures"]["j1"]["two_form"]
        with pytest.raises(ValidationError, match="unknown structure keys"):
            load_scenario(raw)

    def test_unknown_check_name(self):
        raw = copy.deepcopy(builtin_raw("complex_r2"))
        raw["checks"].append("spectral_flow")
        with pytest.raises(ValidationError, match="unknown check"):
            load_scenario(raw)

    def test_point_missing_coordinate(self):
        raw = copy.deepcopy(builtin_raw("complex_r2"))
        del raw["points"][0]["values"]["y"]
        with pytest.raises(ValidationError, match="missing"):
            load_scenario(raw)

    def test_dense_symplectic_form_loads(self):
        """A constant two-form with every dx_i ^ dx_j term on ten
        coordinates: inverting its 10 x 10 matrix of constants takes one
        elimination, not a factorial cofactor expansion."""
        start = time.perf_counter()
        scen = load_scenario(dense_symplectic(10, ["algebraic"]))
        assert time.perf_counter() - start < 10
        assert scen.structures["j"].chart.dim == 10

    def test_largest_chart_loads_and_checks(self):
        """MAX_COORDS coordinates with a dense form (120 terms on 16)
        load and pass the algebraic and integrability checks well inside
        the budget; the work grows about as the chart size to the 4.5."""
        raw = dense_symplectic(MAX_COORDS, ["algebraic", "integrability"])
        start = time.perf_counter()
        verdicts, _ = run_scenario(load_scenario(raw))
        assert time.perf_counter() - start < 10
        assert [v.status for v in verdicts] == ["pass", "pass"]

    def test_periodic_point_needs_integer(self):
        raw = copy.deepcopy(builtin_raw("symplectic_t4"))
        raw["points"][0]["values"]["p"] = "1/2"
        with pytest.raises(ValidationError, match="quarter turns"):
            load_scenario(raw)

    def test_twist_must_be_closed(self):
        raw = copy.deepcopy(builtin_raw("complex_r2"))
        raw["chart"] = [
            ["x1", "affine"], ["y1", "affine"], ["x2", "affine"], ["y2", "affine"],
        ]
        raw["structures"]["j"] = {
            "kind": "symplectic",
            "two_form": [
                {"coeff": "1", "frame": ["x1", "y1"]},
                {"coeff": "1", "frame": ["x2", "y2"]},
            ],
        }
        raw["twist"] = [{"coeff": "y1", "frame": ["x1", "x2", "y2"]}]
        raw["points"] = [
            {
                "name": "origin",
                "values": {"x1": "0", "y1": "0", "x2": "0", "y2": "0"},
            }
        ]
        del raw["expected"]["types"]
        raw["checks"] = ["algebraic"]
        with pytest.raises(ValidationError, match="closed"):
            load_scenario(raw)

    def test_pair_must_name_structures(self):
        raw = copy.deepcopy(builtin_raw("kahler_c2_circle"))
        raw["pair"] = ["j1", "j3"]
        with pytest.raises(ValidationError, match="pair"):
            load_scenario(raw)

    def test_b_field_must_be_real(self):
        raw = copy.deepcopy(builtin_raw("btwist_t4"))
        raw["b_field"] = [{"coeff": "I", "frame": ["t1", "t2"]}]
        with pytest.raises(ValidationError, match="real"):
            load_scenario(raw)

    def test_expected_gamma_is_parsed_by_the_loader(self):
        """The gamma check compares with the loaded form and parses nothing;
        a bad expected potential stops the load under its own name."""
        raw = copy.deepcopy(builtin_raw("gamma_torus_cylinder"))
        scen = load_scenario(raw)
        assert isinstance(scen.expected["gamma"], DiffForm)
        assert raw["expected"]["gamma"] == scen.raw["expected"]["gamma"]
        raw["expected"]["gamma"] = [{"coeff": "1", "frame": ["zz", "x1"]}]
        with pytest.raises(ValidationError) as err:
            load_scenario(raw)
        assert str(err.value) == "expected gamma: unknown coordinate 'zz'"

    def test_repeated_texts_share_one_element_per_load(self):
        """Each text is parsed once per load: equal entries of a matrix
        structure are one element, and a second load of the same scenario
        shares no element with the first."""
        raw = builtin_raw("mixed_r4_rotation")
        texts = [text for row in raw["structures"]["j"]["matrix"] for text in row]

        def entries(scen):
            return [x for row in scen.structures["j"].matrix for x in row]

        first, second = entries(load_scenario(raw)), entries(load_scenario(raw))
        by_text = {}
        for text, element in zip(texts, first):
            assert by_text.setdefault(text, element) is element, text
        assert len({id(x) for x in first}) == len(set(texts)) == 3
        assert not {id(x) for x in first} & {id(x) for x in second}

    def test_a_repeated_text_is_judged_at_each_entry(self):
        """A text parsed before does not hide a later entry's own fault,
        and a text that fails is not kept: each error names its entry."""
        raw = copy.deepcopy(builtin_raw("mixed_r4_rotation"))
        raw["action"][0][2] = 0
        with pytest.raises(ValidationError) as err:
            load_scenario(raw)
        assert str(err.value) == (
            "action generator 1: expression must be a string, got int"
        )
        raw = copy.deepcopy(builtin_raw("mixed_r4_rotation"))
        raw["action"][0][2] = raw["moment"]["functions"][0] = "x1 +"
        with pytest.raises(ValidationError, match="^action generator 1: "):
            load_scenario(raw)
        raw["action"][0][2] = "0"
        with pytest.raises(ValidationError, match="^moment function 1: "):
            load_scenario(raw)

    def test_digest_tracks_content(self):
        raw = builtin_raw("complex_r2")
        d1 = scenario_digest(raw)
        assert len(d1) == 64 and d1 == scenario_digest(builtin_raw("complex_r2"))
        changed = copy.deepcopy(raw)
        changed["title"] = "renamed"
        assert scenario_digest(changed) != d1

    def test_digest_is_sha256_of_the_canonical_json(self):
        """The built-in SHA-256 module gives hashlib's digest bytes."""
        for name in catalog_names():
            raw = builtin_raw(name)
            canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
            want = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            assert scenario_digest(raw) == want, name

    @pytest.mark.skipif(
        importlib.util.find_spec("_sha2" if sys.version_info >= (3, 12) else "_sha256") is None,
        reason="this interpreter has no built-in SHA-256 module",
    )
    def test_loading_and_reporting_load_no_openssl(self):
        """hashlib binds OpenSSL (_hashlib), most of the cost of importing
        the loader; a fresh interpreter that imports it and reports on a
        builtin never imports _hashlib."""
        src = str(Path(scenario_digest.__code__.co_filename).parents[1])
        program = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import gkbench.scenario\n"
            "from gkbench.catalog import load_builtin\n"
            "from gkbench.report import build_report\n"
            "from gkbench.runner import run_scenario\n"
            "scen = load_builtin('complex_r2')\n"
            "build_report(scen, *run_scenario(scen))\n"
            "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-c", program],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout == "[]\n"

    def test_loading_and_reporting_load_no_fractions(self):
        """Scalar is the one exact rational from the parser to the report
        text, so a fresh interpreter that checks and renders every builtin
        (levels such as 1/2, rational and periodic point values among them)
        never imports fractions, nor the decimal and numbers modules it
        brings."""
        src = str(Path(scenario_digest.__code__.co_filename).parents[1])
        program = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import gkbench.scenario\n"
            "from gkbench.catalog import catalog_names, load_builtin\n"
            "from gkbench.report import build_report, render_json\n"
            "from gkbench.runner import run_scenario\n"
            "for name in catalog_names():\n"
            "    scen = load_builtin(name)\n"
            "    render_json(build_report(scen, *run_scenario(scen)))\n"
            "print(sorted(m for m in ('fractions', 'decimal', '_decimal', 'numbers')"
            " if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-c", program],
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout == "[]\n"

    def test_path_loading(self, tmp_path):
        target = tmp_path / "scen.json"
        target.write_text(json.dumps(builtin_raw("complex_r2")))
        scen = scenario_from_path(str(target))
        assert scen.name == "complex_r2"
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        with pytest.raises(ValidationError, match="JSON"):
            scenario_from_path(str(bad))
        with pytest.raises(ValidationError, match="read"):
            scenario_from_path(str(tmp_path / "missing.json"))


class TestRunner:
    def test_every_builtin_passes(self):
        for name in catalog_names():
            report = run_builtin(name)
            failed = [v for v in report["verdicts"] if v["status"] == "fail"]
            assert not failed, f"{name}: {failed}"

    def test_verdicts_follow_registry_order(self):
        report = run_builtin("bihermitian_r4_translation")
        checks = [v["check"].split(":")[0] for v in report["verdicts"]]
        order = list(dict.fromkeys(checks))
        assert order == [
            "algebraic", "integrability", "type", "gk_pair", "moment",
            "equivariant", "gamma", "level_closure", "reduction",
            "gk_reduction",
        ]

    def test_kahler_quantities(self):
        report = run_builtin("kahler_c2_circle")
        assert report["quantities"] == {
            "types": {"j1": 0, "j2": 2},
            "reduced_dim": 4,
            "reduced_types": {"j1": 0, "j2": 1},
        }

    def test_kahler_slice_is_skipped(self):
        report = run_builtin("kahler_c2_circle")
        slice_verdicts = [
            v for v in report["verdicts"] if v["check"] == "level_closure:slice"
        ]
        assert [v["status"] for v in slice_verdicts] == ["skipped"]

    def test_bihermitian_overlap_is_nonzero(self):
        report = run_builtin("bihermitian_r4_translation")
        gk = [
            v for v in report["verdicts"] if v["check"].startswith("gk_reduction:")
        ]
        assert gk and all("plus 2*1" in v["detail"] for v in gk)
        assert report["quantities"]["reduced_types"] == {"j1": 0, "j2": 1}

    def test_wrong_expected_type_fails(self):
        raw = copy.deepcopy(builtin_raw("complex_r2"))
        raw["expected"]["types"]["j"] = 0
        scen = load_scenario(raw)
        verdicts, _ = run_scenario(scen)
        by_name = {v.check: v.status for v in verdicts}
        assert by_name["type:j"] == "fail"

    def test_broken_moment_fails_not_raises(self):
        raw = copy.deepcopy(builtin_raw("kahler_c2_circle"))
        raw["moment"]["functions"] = ["x1"]
        scen = load_scenario(raw)
        verdicts, _ = run_scenario(scen)
        statuses = {v.check: v.status for v in verdicts}
        assert statuses["moment"] == "fail"

    def test_checks_without_moment_data_fail_not_raise(self):
        """Each moment-based check names the missing moment data before
        it looks up the moment structure."""
        raw = copy.deepcopy(builtin_raw("trivial_action"))
        del raw["moment"]
        raw["checks"].append("level_closure")
        verdicts, _ = run_scenario(load_scenario(raw))
        details = {v.check: v.detail for v in verdicts if v.status == "fail"}
        assert details == {
            check: "this check needs moment data"
            for check in ("moment", "equivariant", "level_closure", "reduction")
        } | {"gk_reduction": "moment structure is not part of the pair"}

    def test_b_flip_without_structures_fails_not_raises(self):
        raw = copy.deepcopy(builtin_raw("btwist_t4"))
        raw["structures"] = {}
        raw["checks"] = ["b_flip"]
        del raw["expected"]  # its types name a structure, which the loader now needs
        verdicts, _ = run_scenario(load_scenario(raw))
        assert [(v.status, v.detail) for v in verdicts] == [
            ("fail", "scenario lists b_flip but has no structure")
        ]

    def test_off_level_point_fails_reduction(self):
        raw = copy.deepcopy(builtin_raw("kahler_c2_circle"))
        raw["points"].append(
            {"name": "outside", "values": {"x1": "2", "y1": "0", "x2": "0", "y2": "0"}}
        )
        scen = load_scenario(raw)
        verdicts, _ = run_scenario(scen)
        statuses = {v.check: v.status for v in verdicts}
        assert statuses["reduction:outside"] == "fail"
        assert statuses["reduction:pole_x1"] == "pass"

    @staticmethod
    def bent_j2(entries, checks):
        """bihermitian_r4_translation with some entries of j2's first row
        replaced, running only the given checks."""
        raw = copy.deepcopy(builtin_raw("bihermitian_r4_translation"))
        for column, value in entries.items():
            raw["structures"]["j2"]["matrix"][0][column] = value
        raw["checks"] = checks
        verdicts, _ = run_scenario(load_scenario(raw))
        return [(v.check, v.status, v.detail) for v in verdicts]

    def test_type_failure_names_its_structure(self):
        """A structure whose type cannot be read fails alone; the other
        structure still gets its verdict."""
        assert self.bent_j2({5: "0", 6: "0"}, ["type"]) == [
            ("type:j1", "pass", "type 0 at all 3 points"),
            (
                "type:j2",
                "fail",
                "type parity violated at (x1=0, y1=1, x2=2, y2=3): corank 1",
            ),
        ]

    def test_gk_reduction_failure_names_each_point(self):
        """A type prediction that raises fails the point it was made for,
        not the whole check."""
        assert self.bent_j2({3: "-1/2", 7: "1/2"}, ["gk_reduction"]) == [
            (f"gk_reduction:{point}", "fail", f"eigenbundle rank is not 4 at {where}")
            for point, where in (
                ("first", "(x1=0, y1=1, x2=2, y2=3)"),
                ("second", "(x1=5, y1=0, x2=1, y2=-2)"),
                ("third", "(x1=-1, y1=-3, x2=-2, y2=7)"),
            )
        ]

    def test_non_invariant_potential_is_named_by_the_reduction_checks(self):
        """A moment one-form (1 + x1) dy2 gives the potential
        (1 + x1) dx1^dy2, which the translation d_x1 moves: the gamma
        verdict and the reductions that read it name the connection and
        the generator, and no B-field, which the scenario does not have."""
        raw = copy.deepcopy(builtin_raw("bihermitian_r4_translation"))
        raw["moment"]["one_forms"] = [[{"coeff": "1 + x1", "frame": ["y2"]}]]
        raw["checks"] = ["gamma", "reduction", "gk_reduction"]
        verdicts, _ = run_scenario(load_scenario(raw))
        details = {v.check: v.detail for v in verdicts if v.status == "fail"}
        named = "potential of connection theta: not invariant under generator 1"
        assert details == {
            "gamma:theta": "not invariant under generator 1",
            "gamma:expected": (
                "potential (x1 + 1)*dx1^dy2 differs from expected dx1^dy2"
            ),
            "reduction": named,
            "gk_reduction": named,
        }

    @pytest.mark.parametrize(
        "name, checks, edit, want",
        [
            (
                "complex_r2", ["type"], lambda raw: raw.update(expected={}),
                ("type", "scenario lists the type check but expects no types"),
            ),
            (
                "complex_r2", ["gk_pair"], lambda raw: None,
                ("gk_pair", "scenario lists gk_pair but names no pair"),
            ),
            (
                "kahler_c2_circle", ["gk_pair"],
                lambda raw: raw.update(pair=["j1", "j3"], structures={
                    **raw["structures"],
                    "j3": builtin_raw("bihermitian_r4_translation")["structures"]["j1"],
                }),
                (
                    "gk_pair",
                    "structures do not commute: entry (0, 3) of J1 J2 - J2 J1 is -1",
                ),
            ),
            (
                "kahler_c2_circle", ["gk_pair"], lambda raw: raw.update(points=[]),
                ("gk_pair", "positivity needs at least one sample point"),
            ),
            (
                "kahler_c2_circle", ["gamma"], lambda raw: None,
                ("gamma", "scenario lists gamma but has no connections"),
            ),
            (
                "kahler_c2_circle", ["reduction"],
                lambda raw: raw.update(
                    points=raw["points"][:1], expected={"reduced_types": {"j1": 1}}
                ),
                ("reduction:pole_x1", "reduced type 0, expected 1"),
            ),
            (
                "kahler_c2_circle", ["gk_reduction"], lambda raw: raw.pop("pair"),
                ("gk_reduction", "scenario names no pair"),
            ),
            (
                "kahler_c2_circle", ["gk_reduction"],
                lambda raw: raw.update(
                    points=raw["points"][:1], expected={"reduced_types": {"j2": 0}}
                ),
                ("gk_reduction:pole_x1", "reduced type 1, expected 0"),
            ),
            (
                "complex_r2", ["b_flip"], lambda raw: None,
                ("b_flip", "scenario lists b_flip but has no b_field"),
            ),
            (
                "btwist_t4", ["b_flip"],
                lambda raw: raw.update(b_field=[{"coeff": "1", "frame": ["t2", "t3"]}]),
                ("b_flip", "b_field is closed, the twist shift would be zero"),
            ),
            (
                "kahler_c2_circle", ["b_commute"], lambda raw: None,
                ("b_commute", "scenario lists b_commute but no basic_field"),
            ),
            (
                "gamma_cylinder_product", ["b_commute"],
                lambda raw: raw.update(basic_field=[{"coeff": "1", "frame": ["x1", "u"]}]),
                (
                    "b_commute",
                    "basic_field is not basic for the action: "
                    "its contraction with generator 1 is du",
                ),
            ),
        ],
        ids=[
            "type-expects-no-types", "gk_pair-no-pair", "gk_pair-not-commuting",
            "gk_pair-no-points", "gamma-no-connections", "reduction-type-mismatch",
            "gk_reduction-no-pair", "gk_reduction-type-mismatch",
            "b_flip-no-b_field", "b_flip-closed-b_field",
            "b_commute-no-basic_field", "b_commute-field-not-basic",
        ],
    )
    def test_failing_verdicts_name_their_problem(self, name, checks, edit, want):
        """Each failing verdict that the builtins never reach, on a builtin
        edited to reach it, running only the check under test."""
        raw = copy.deepcopy(builtin_raw(name))
        raw["checks"] = checks
        edit(raw)
        verdicts, _ = run_scenario(load_scenario(raw))
        check, detail = want
        assert [(v.check, v.status, v.detail) for v in verdicts] == [(check, "fail", detail)]

    @pytest.mark.parametrize(
        "name, checks",
        [
            ("kahler_c2_circle", ["reduction", "gk_reduction"]),
            ("kahler_c2_circle", ["type"]),
            ("gamma_cylinder_product", ["reduction", "b_commute"]),
        ],
    )
    def test_pointwise_checks_need_a_point(self, name, checks):
        """On no points a pointwise check fails once, named after the
        check, instead of saying nothing or passing on no points."""
        raw = copy.deepcopy(builtin_raw(name))
        raw["points"] = []
        raw["checks"] = checks
        scen = load_scenario(raw)
        verdicts, quantities = run_scenario(scen)
        assert [(v.check, v.status, v.detail) for v in verdicts] == [
            (check, "fail", "needs at least one point") for check in checks
        ]
        assert quantities == {}
        assert not report_passed(build_report(scen, verdicts, quantities))

    def test_every_structure_carries_the_scenario_twist(self):
        """The loader gives every structure the scenario's twist, so one
        judgment of the shifted twist serves every structure."""
        for name in catalog_names():
            scen = load_builtin(name)
            for sname, struct in scen.structures.items():
                assert struct.twist == scen.twist, (name, sname)

    def test_a_pair_judges_its_shifted_twist_once(self, monkeypatch):
        """bihermitian_r4_translation with the closed twist dx1^dy1^dx2,
        which contracts with the translation d_x1: the potential dx1^dy2
        is closed, so the shifted twist is the twist itself, judged once
        for the gamma check and both structures of the pair."""
        raw = copy.deepcopy(builtin_raw("bihermitian_r4_translation"))
        raw["twist"] = [{"coeff": "1", "frame": ["x1", "y1", "x2"]}]
        scen = load_scenario(raw)
        judged, is_basic = [], runner.is_basic
        monkeypatch.setattr(
            runner, "is_basic", lambda form, act: judged.append(form) or is_basic(form, act)
        )
        verdicts, _ = run_scenario(scen)
        details = {v.check: v.detail for v in verdicts if v.status == "fail"}
        unbasic = (
            "twist is not basic after the potential transform: "
            "its contraction with generator 1 is dy1^dx2"
        )
        assert details["gamma:theta"] == "twist plus d(potential) is not basic"
        assert details["reduction"] == details["gk_reduction"] == unbasic
        assert details["equivariant"] == (
            "contraction of the twist with generator 1 does not match d(alpha_1)"
        )
        assert judged.count(scen.twist) == 1

    def test_integrability_is_checked_once_per_structure(self, monkeypatch):
        """On btwist_t4, b_flip's first leg reads integrability:j+b's
        check of e^B J instead of bracketing its frame again.  J's own
        frame is constant and its twist zero, so integrability:j brackets
        nothing, and every bracket counted is of a frame moved by the
        non-closed B = cos(t1) dt2^dt3."""
        brackets, checks = [], []
        courant, check = structures.courant_bracket, runner.check_integrable
        monkeypatch.setattr(
            structures, "courant_bracket", lambda *a: brackets.append(1) or courant(*a)
        )
        monkeypatch.setattr(
            runner, "check_integrable", lambda *a: checks.append(1) or check(*a)
        )
        scen = load_builtin("btwist_t4")
        verdicts, _ = run_scenario(scen)
        assert [v.status for v in verdicts] == ["pass"] * 6
        assert (len(brackets), len(checks)) == (16, 5)
        brackets.clear()
        assert structures.check_integrable(scen.structures["j"], scen.points)[0]
        assert brackets == []

    def test_each_point_is_reduced_once(self, monkeypatch):
        points, reductions = [], []

        def counted_fiber_data(moment, point, level):
            points.append(point)
            return fiber_data(moment, point, level)

        def counted_dirac_reduce(struct, fiber):
            reductions.append((struct, fiber.point))
            return dirac_reduce(struct, fiber)

        fiber_data, dirac_reduce = runner.fiber_data, runner.dirac_reduce
        monkeypatch.setattr(runner, "fiber_data", counted_fiber_data)
        monkeypatch.setattr(runner, "dirac_reduce", counted_dirac_reduce)
        scen = load_builtin("gamma_cylinder_product")
        verdicts, _ = run_scenario(scen)
        assert all(v.status == "pass" for v in verdicts)
        assert len(points) == len(set(points)) == len(scen.points)
        distinct = []
        for pair in reductions:
            if pair not in distinct:
                distinct.append(pair)
        assert len(reductions) == len(distinct) == 6


class TestReport:
    def test_json_rendering_is_deterministic(self):
        a = render_json(run_builtin("gamma_cylinder_product"))
        b = render_json(run_builtin("gamma_cylinder_product"))
        assert a == b

    def test_report_carries_conventions(self):
        report = run_builtin("symplectic_t4")
        assert "twist" in report["conventions"]["b_transform"]
        assert "split pairing" in report["conventions"]["pairing"]

    def test_text_rendering_counts(self):
        report = run_builtin("symplectic_t4")
        text = render_text(report)
        assert "3 passed, 0 failed, 0 skipped" in text

    def test_report_passed(self):
        report = run_builtin("complex_r2")
        assert report_passed(report)
        report["verdicts"][0]["status"] = "fail"
        assert not report_passed(report)


class TestCli:
    def test_check_passing_builtin(self, capsys):
        assert main(["check", "--scenario", "complex_r2"]) == 0
        out = capsys.readouterr().out
        assert "type:j" in out and "PASS" in out

    def test_check_json_report(self, capsys):
        assert main(["check", "--scenario", "complex_r2", "--report", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "complex_r2"

    def test_check_failing_scenario(self, tmp_path, capsys):
        raw = copy.deepcopy(builtin_raw("complex_r2"))
        raw["expected"]["types"]["j"] = 0
        target = tmp_path / "wrong.json"
        target.write_text(json.dumps(raw))
        assert main(["check", "--scenario", str(target)]) == 1

    def test_check_unloadable_scenario(self, tmp_path, capsys):
        target = tmp_path / "broken.json"
        target.write_text("{oops")
        assert main(["check", "--scenario", str(target)]) == 2
        assert main(["check", "--scenario", "no_such_builtin"]) == 2

    def test_catalog_lists_builtins(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for name in catalog_names():
            assert name in out

    def test_reduce_prints_quotient(self, capsys):
        code = main(
            ["reduce", "--scenario", "kahler_c2_circle", "--point", "pythagorean"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quotient dimension 4" in out
        assert "type 0" in out and "type 1" in out

    def test_reduce_unknown_point(self, capsys):
        code = main(["reduce", "--scenario", "kahler_c2_circle", "--point", "nope"])
        assert code == 2

    def test_reduce_zero_generator_action(self, capsys):
        code = main(["reduce", "--scenario", "trivial_action", "--point", "origin"])
        assert code == 0
        assert "quotient dimension 8" in capsys.readouterr().out

    def test_reduce_names_the_reduction_check_problem(self, capsys):
        # mixed_r4_rotation has moment data whose one-forms no connection
        # removes: reduce reports what the reduction check reports.  The
        # check needs a level to load; the command does not read it first.
        raw = copy.deepcopy(builtin_raw("mixed_r4_rotation"))
        raw["checks"] = ["reduction"]
        raw["level"] = ["1/2"]
        verdicts, _ = run_scenario(load_scenario(raw))
        code = main(["reduce", "--scenario", "mixed_r4_rotation", "--point", "unit"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {verdicts[0].detail}\n"
        assert "one-forms are nonzero" in verdicts[0].detail

    def test_reduce_level_of_wrong_length(self, tmp_path, capsys):
        raw = copy.deepcopy(builtin_raw("kahler_c2_circle"))
        raw["level"] = ["1", "2"]
        target = tmp_path / "two_levels.json"
        target.write_text(json.dumps(raw))
        code = main(["reduce", "--scenario", str(target), "--point", "pythagorean"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: level length 2 is not the number of generators, 1\n"

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("mixed_r4_rotation", {"checks": ["level_closure"]}),
            ("mixed_r4_rotation", {"checks": ["reduction"]}),
            ("mixed_r4_rotation", {"checks": ["gk_reduction"]}),
            ("mixed_r4_rotation", {"checks": ["b_commute"]}),
            ("kahler_c2_circle", {"level": []}),
            ("kahler_c2_circle", {"level": ["1/2", "1/2"], "checks": ["moment"]}),
            ("trivial_action", {"level": ["0"]}),
        ],
    )
    def test_level_needs_one_value_per_generator(self, tmp_path, capsys, name, edit):
        """A given level has one value per generator, and so does the level
        of a scenario that lists a check reducing or slicing at it: a
        mismatch exits 2 at load, naming both counts."""
        raw = copy.deepcopy(builtin_raw(name))
        raw.update(edit)
        target = tmp_path / "level.json"
        target.write_text(json.dumps(raw))
        assert main(["check", "--scenario", str(target)]) == 2
        got, want = len(raw.get("level", [])), len(raw["action"])
        assert capsys.readouterr().err == (
            f"error: level length {got} is not the number of generators, {want}\n"
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("level", ["nan"]),
            ("level", ["abc"]),
            ("points", 5),
            ("moment", [{"structure": "j"}]),
            ("connections", [[]]),
            ("checks", "reduction"),
            ("points", [5]),
            ("pair", 5),
            ("action", 5),
            ("structures", [1]),
            ("connections", {"theta": 5}),
            ("points", [{"name": "a", "values": 5}]),
            ("b_field", [{"coeff": 5, "frame": ["x1", "x2"]}]),
            ("structures", {"j": {"kind": "complex", "matrix": [[0] * 4] * 4}}),
            ("action", [[1, "0", "0", "0"]]),
            ("moment", {"structure": "j", "functions": [5, "-t2"]}),
            ("b_field", [{"coeff": "t1", "frame": 5}]),
            ("b_field", 5),
            ("twist", 5),
            ("moment", {"structure": "j", "functions": ["-t1", "-t2"], "one_forms": 5}),
            ("expected", 5),
            ("expected", {"types": 5}),
            ("expected", {"reduced_types": 5}),
            ("moment", {"structure": ["j"], "functions": ["-t1", "-t2"]}),
            ("moment", {"structure": "j", "functions": ["t1^200000", "-t2"]}),
            ("b_field", [{"coeff": "E(x2; 17) + E(x2; -17)", "frame": ["x1", "x2"]}]),
            ("b_field", [{"coeff": "1" * 5000, "frame": ["x1", "x2"]}]),
            ("moment", {"structure": "j", "functions": ["(((t1^16)^16)^16)^2", "-t2"]}),
            ("moment", {"structure": "j", "functions": ["*".join(["t1"] * 3000), "-t2"]}),
            ("moment", {"structure": "j", "functions": ["(t1+t2+t1*t2+E(x1;1)+1)^16", "-t2"]}),
            ("points", _TRUE_QUARTER_TURN),
            (
                "chart",
                [[None, "periodic"], ["t1", "affine"],
                 ["x2", "periodic"], ["t2", "affine"]],
            ),
            ("structures", {"j": {"kind": [1], "two_form": []}}),
            ("expected", {"gamma": [{"coeff": "1", "frame": ["zz", "x1"]}]}),
            ("expected", {"gamma": 5}),
            ("level", ["1e5000", "-1"]),
            ("points", _base_point("1e5000")),
            ("points", _base_point("1e1000000")),
        ],
    )
    def test_hostile_field_exits_2(self, tmp_path, capsys, key, value):
        raw = copy.deepcopy(builtin_raw("gamma_torus_cylinder"))
        raw[key] = value
        target = tmp_path / "hostile.json"
        target.write_text(json.dumps(raw))
        assert main(["check", "--scenario", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if value is _TRUE_QUARTER_TURN:
            # JSON true is a Python bool, which is an int: refused once,
            # by EvalPoint, with the point's name in front.
            assert err == (
                "error: point base: periodic coordinate 'x1' takes integer "
                "quarter turns\n"
            )
        if isinstance(value, dict) and "gamma" in value:
            # Parsed once, by the loader, under its own name.
            assert err.startswith("error: expected gamma: ")


    @pytest.mark.parametrize(
        "key, value, err",
        [
            ("level", [0.5, "-1"], "level: bad value: 0.5"),
            ("points", _base_point("0.5"), "point base: bad value for t1: 0.5"),
            (
                "points",
                _base_point("1" * (MAX_DIGITS + 1)),
                "point base: bad value for t1: " + "1" * (MAX_DIGITS + 1),
            ),
        ],
    )
    def test_rational_fields_take_integers_and_fractions_only(
        self, tmp_path, capsys, key, value, err
    ):
        """Level and affine point values are read by the parser's rule for
        rational literals: decimals, exponents and numerals over
        MAX_DIGITS digits are refused under the field's name."""
        raw = copy.deepcopy(builtin_raw("gamma_torus_cylinder"))
        raw[key] = value
        target = tmp_path / "rational.json"
        target.write_text(json.dumps(raw))
        assert main(["check", "--scenario", str(target)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "expected, err",
        [
            ({"types": {"j": 1.0}}, "expected types j: 1.0 is not a non-negative integer"),
            ({"types": {"j": True}}, "expected types j: true is not a non-negative integer"),
            ({"types": {"j": "1"}}, 'expected types j: "1" is not a non-negative integer'),
            ({"types": {"j": -1}}, "expected types j: -1 is not a non-negative integer"),
            (
                {"types": {"j": 1}, "reduced_types": {"j": False}},
                "expected reduced_types j: false is not a non-negative integer",
            ),
            (
                {"types": {"j": 1}, "reduced_dim": 2.5},
                "expected reduced_dim: 2.5 is not a non-negative integer",
            ),
            ({"types": {"j": 1}, "type": {"j": 1}}, "unknown expected keys ['type']"),
            (
                {"types": {"j": 1}, "reduced_types": {"j": 0, "jx": 5}},
                "expected reduced_types jx: no such structure",
            ),
            ({"types": {"j": 1, "jx": 1}}, "expected types jx: no such structure"),
        ],
    )
    def test_expected_counts_are_non_negative_integers(self, tmp_path, capsys, expected, err):
        """An expected type or quotient dimension is a JSON integer of at
        least zero, the expected block has no other keys than the loader
        reads, and an expected reduced type names a structure of the
        scenario: each mistake exits 2, naming the key, before a float
        could reach the report as a type, true pass as type 1, or a
        reduced type go uncompared."""
        raw = copy.deepcopy(builtin_raw("complex_r2"))
        raw["expected"] = expected
        target = tmp_path / "expected.json"
        target.write_text(json.dumps(raw))
        assert main(["check", "--scenario", str(target)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize(
        "edit, err",
        [
            (lambda raw: raw.update(twist=[5]), "twist: every term must be an object"),
            (
                lambda raw: raw.update(twist=[{"frame": ["x1", "t1", "x2"], "sign": 1}]),
                "twist: unknown term keys ['sign']",
            ),
            (
                lambda raw: raw.update(twist=[{"frame": ["x1"]}]),
                "twist: term frame ['x1'] does not have degree 3",
            ),
            (
                lambda raw: raw.update(structures={"j": {"kind": "quaternionic"}}),
                "structure j: unknown structure kind 'quaternionic'",
            ),
            (
                lambda raw: raw.update(action=[["1", "0"]]),
                "action generator 1 needs 4 components",
            ),
            (
                lambda raw: raw.update(action=[["I", "0", "0", "0"]]),
                "action: generators must be real vector fields",
            ),
            (lambda raw: raw.pop("action"), "moment data requires an action"),
            (
                lambda raw: raw["moment"].update(functions=["-t1"]),
                "moment: moment data length does not match the action",
            ),
            (
                lambda raw: [raw.pop("action"), raw.pop("moment")],
                "connections require an action",
            ),
            (
                lambda raw: raw["connections"].update(theta=[[{"frame": ["x1"]}]]),
                "connection theta: connection length does not match the action",
            ),
            (
                lambda raw: raw.update(points=raw["points"][:1] * 2),
                "every point needs a distinct name",
            ),
            (lambda raw: raw.clear(), "scenario file must contain a JSON object"),
        ],
        ids=[
            "term-not-object", "unknown-term-key", "frame-degree",
            "structure-kind", "generator-length", "complex-generator",
            "moment-without-action", "moment-length", "connection-without-action",
            "connection-length", "repeated-point-name", "not-an-object",
        ],
    )
    def test_loader_errors_exit_2(self, tmp_path, capsys, edit, err):
        """A gamma_torus_cylinder file edited to break one loader rule exits
        2 with that rule's error line and nothing else on stderr.  The
        edit that empties the object writes an empty JSON list instead."""
        raw = copy.deepcopy(builtin_raw("gamma_torus_cylinder"))
        edit(raw)
        target = tmp_path / "broken.json"
        target.write_text(json.dumps(raw or []))
        assert main(["check", "--scenario", str(target)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_chart_over_max_coords_exits_2(self, tmp_path, capsys):
        target = tmp_path / "wide.json"
        raw = dense_symplectic(MAX_COORDS + 1, ["algebraic"])
        target.write_text(json.dumps(raw))
        assert main(["check", "--scenario", str(target)]) == 2
        assert capsys.readouterr().err == (
            "error: chart: chart has 17 coordinates, at most 16 are allowed\n"
        )

    def test_overlong_integer_literal_exits_2(self, tmp_path, capsys):
        text = json.dumps(builtin_raw("gamma_torus_cylinder"))
        target = tmp_path / "long_integer.json"
        target.write_text(text.replace('"x1": 0', '"x1": ' + "1" * 5000, 1))
        assert main(["check", "--scenario", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: scenario file is not valid JSON")


def _paths(node, path=()):
    """The path (keys and indices) to every node of a JSON value."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


# Replacement values: every JSON type, expressions that parse, do not
# parse or name no coordinate, and numbers as levels and point values.
_HOSTILE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(
        ["", "(", "x1", "t1", "y1*t1", "x1^2 - 1", "1/0", "2*", "E(x1; 1)",
         "I", "1/2", "-1", "nope", "affine", "periodic", "1e5000", "0.5"]
    ),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(
        st.sampled_from(["x1", "t1", "coeff"]), st.integers(0, 2), max_size=2
    ),
)


@st.composite
def mutated_catalog_json(draw):
    """A builtin scenario with one to three of its nodes dropped or
    replaced."""
    raw = copy.deepcopy(builtin_raw(draw(st.sampled_from(catalog_names()))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(raw))[1:]))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_HOSTILE)
    return raw


@settings(max_examples=40, derandomize=True, deadline=timedelta(seconds=2))
@given(mutated_catalog_json())
def test_mutated_catalog_json_fails_only_with_workbench_messages(raw):
    """Loading and running a mutated builtin gives a report or a
    ValidationError or ParseError, never another exception, and within
    two seconds: an example takes milliseconds, so one that runs for
    seconds is an input the loader should have bounded."""
    try:
        run_scenario(load_scenario(raw))
    except (ValidationError, ParseError):
        pass


class TestSelftest:
    def test_invariants_pass_and_are_deterministic(self):
        first = invariant_results()
        assert all(r["status"] == "pass" for r in first)
        assert first == invariant_results()
