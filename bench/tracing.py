"""Per-module tracing from outside the program.

`Tracer.install()` replaces every public function of each gkbench module
with a wrapper that records a span, both in the defining module and at
every import site (``from .linalg import rref`` binds the name again in
the importing module), and wraps the methods of the module's classes the
same way.  The twelve registry checks of the runner are wrapped as
``runner.check.<name>``.  `Scalar` multiply and add are counted without
spans, because a span per scalar operation would cost more than the
operation.  `Tracer.uninstall()` puts every original back.

A span's self time is its duration minus the time its child spans cover;
a module's self time is the sum over its spans.  Both are accumulated as
spans close, so memory stays flat however long the run; the spans
themselves, with their parent ids, are kept only while `recording` is
set, and only above the ring level, whose calls number in the millions.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from types import FunctionType
from typing import Callable

from gkbench.scenario import KNOWN_CHECKS as CHECKS

MODULES = (
    "ring",
    "linalg",
    "calculus",
    "structures",
    "equivariant",
    "reduction",
    "scenario",
    "runner",
    "report",
    "selftest",
)

# Methods left unwrapped: construction, text, equality and the methods a
# dataclass generates; their time counts toward the calling span.
_SKIP_METHODS = {
    "__init__", "__repr__", "__str__", "__eq__", "__hash__", "__setattr__", "__delattr__",
}
# Classes whose methods are not spans: Scalar is counted instead, and the
# rest are plain records or parser internals.
_SKIP_CLASSES = {"Scalar", "Chart", "EvalPoint", "_Tokens"}
_UNRECORDED_PREFIX = "ring.RingElement."


class Tracer:
    """Span wrappers, per-name totals and counters for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # open spans: [id, child seconds]
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, int] = defaultdict(int)
        self.max_height_bits = 0
        self.reduced: dict[tuple, object] = {}  # (id(structure), point) -> structure
        self.points: set = set()
        self.recording = False
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def open(self) -> list:
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        frame = [self._next_id, 0.0, parent]
        self.stack.append(frame)
        return frame

    def close(self, name: str, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        rec = self.totals.get(name)
        if rec is None:
            rec = self.totals[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if self.recording and not name.startswith(_UNRECORDED_PREFIX):
            self.spans.append((frame[0], frame[2], name, start, end))

    def exclude(self, seconds: float) -> None:
        """Keep probe time out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1][1] += seconds

    def span(self, name: str, fn: Callable, probe: Callable | None = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.open()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(name, frame, start, tracer.clock())
            if probe is not None:
                t0 = tracer.clock()
                probe(args, result)
                tracer.exclude(tracer.clock() - t0)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    # --- probes ----------------------------------------------------------------

    def _probe_rref(self, args, result) -> None:
        bits = max(_height_bits(args[0]), _height_bits(result[0]))
        if bits > self.max_height_bits:
            self.max_height_bits = bits

    def _probe_bracket(self, args, result) -> None:
        u, v = args[0], args[1]
        if u.vector.is_zero or v.vector.is_zero:
            self.counts["covector_pair"] += 1

    def _probe_dirac(self, args, result) -> None:
        struct, fiber = args[0], args[1]
        self.reduced[(id(struct), fiber.point)] = struct

    def _probe_fiber(self, args, result) -> None:
        self.points.add(args[1])

    # --- installation ----------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        probes = {
            "linalg.rref": self._probe_rref,
            "structures.courant_bracket": self._probe_bracket,
            "reduction.dirac_reduce": self._probe_dirac,
            "reduction.fiber_data": self._probe_fiber,
        }
        wrapped: dict[FunctionType, Callable] = {}
        for short in MODULES:
            mod = importlib.import_module(f"gkbench.{short}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType) and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.span(name, obj, probes.get(name))
                elif isinstance(obj, type) and attr not in _SKIP_CLASSES:
                    if issubclass(obj, BaseException):
                        continue
                    for mname, meth in list(vars(obj).items()):
                        if isinstance(meth, FunctionType) and mname not in _SKIP_METHODS:
                            self._set(obj, mname, self.span(f"{short}.{attr}.{mname}", meth))
        for modname, mod in list(sys.modules.items()):
            if modname != "gkbench" and not modname.startswith("gkbench."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        scalar = importlib.import_module("gkbench.ring").Scalar
        self._set(scalar, "__mul__", self.counter("scalar_mul", scalar.__mul__))
        self._set(scalar, "__add__", self.counter("scalar_add", scalar.__add__))
        self._set(scalar, "__sub__", self.counter("scalar_add", scalar.__sub__))
        registry = importlib.import_module("gkbench.runner")._REGISTRY
        for check, fn in list(registry.items()):
            self._patched.append((registry, check, fn))
            registry[check] = self.span(f"runner.check.{check}", fn)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # --- results ---------------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Per-layer metrics of everything since the last call, then reset."""
        out = layer_metrics(
            self.totals,
            self.counts,
            max_height_bits=self.max_height_bits,
            distinct_reductions=len(self.reduced),
            distinct_points=len(self.points),
        )
        self.totals = {}
        self.counts.clear()
        self.max_height_bits = 0
        self.reduced = {}
        self.points = set()
        return out

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzipped JSON lines; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps({"id": sid, "parent": parent, "name": name,
                                "start": start, "end": end}) + "\n"
                )
        return len(self.spans)


def _height_bits(matrix) -> int:
    best = 0
    for row in matrix:
        for x in row:
            for q in (x.re, x.im):
                b = max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                if b > best:
                    best = b
    return best


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per span name from a list of (id, parent, name, start, end):
    each span's duration minus the durations of its direct children."""
    child = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end in spans:
        out[name] += (end - start) - child[sid]
    return dict(out)


# name -> unit, in the order they are printed
LAYER_METRICS = {
    "ring.self_s": "s",
    "ring.ring_mul_calls": "count",
    "ring.partial_calls": "count",
    "ring.evaluate_calls": "count",
    "ring.parse_expr_s": "s",
    "ring.scalar_mul_calls": "count",
    "ring.scalar_add_calls": "count",
    "linalg.self_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.inverse_s": "s",
    "linalg.mat_mul_s": "s",
    "linalg.rmat_eval_s": "s",
    "linalg.max_height_bits": "bits",
    "calculus.self_s": "s",
    "calculus.lie_bracket_calls": "count",
    "calculus.d_calls": "count",
    "calculus.pull_function_calls": "count",
    "structures.self_s": "s",
    "structures.courant_bracket_calls": "count",
    "structures.courant_bracket_s": "s",
    "structures.check_integrable_s": "s",
    "structures.b_transform_structure_calls": "count",
    "structures.bracket_covector_pair_ratio": "ratio",
    "equivariant.self_s": "s",
    "equivariant.gamma_from_connection_calls": "count",
    "equivariant.is_basic_calls": "count",
    "reduction.self_s": "s",
    "reduction.fiber_data_calls": "count",
    "reduction.dirac_reduce_calls": "count",
    "reduction.distinct_points": "count",
    "reduction.two_step_reduce_s": "s",
    "reduction.gk_reduce_s": "s",
    "reduction.check_level_closure_s": "s",
    "reduction.check_adapted_closure_s": "s",
    "reduction.fiber_reuse_ratio": "ratio",
    "scenario.load_s": "s",
    "runner.run_scenario_s": "s",
    **{f"runner.check.{c}_s": "s" for c in CHECKS},
    "report.build_report_s": "s",
    "report.render_json_s": "s",
    "selftest.invariant_results_s": "s",
}


def layer_metrics(
    totals: dict[str, list],
    counts: dict[str, int],
    max_height_bits: int = 0,
    distinct_reductions: int = 0,
    distinct_points: int = 0,
) -> dict[str, float]:
    """The per-layer metrics of LAYER_METRICS from span totals and counters."""

    def calls(name: str) -> int:
        return totals[name][0] if name in totals else 0

    def seconds(name: str) -> float:
        return totals[name][1] if name in totals else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    own = defaultdict(float)
    for name, rec in totals.items():
        own[name.split(".", 1)[0]] += rec[2]
    out = {
        "ring.self_s": own["ring"],
        "ring.ring_mul_calls": calls("ring.RingElement.__mul__"),
        "ring.partial_calls": calls("ring.RingElement.partial"),
        "ring.evaluate_calls": calls("ring.RingElement.evaluate"),
        "ring.parse_expr_s": seconds("ring.parse_expr"),
        "ring.scalar_mul_calls": counts.get("scalar_mul", 0),
        "ring.scalar_add_calls": counts.get("scalar_add", 0),
        "linalg.self_s": own["linalg"],
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_s": seconds("linalg.rref"),
        "linalg.nullspace_s": seconds("linalg.nullspace"),
        "linalg.inverse_s": seconds("linalg.inverse"),
        "linalg.mat_mul_s": seconds("linalg.mat_mul"),
        "linalg.rmat_eval_s": seconds("linalg.rmat_eval"),
        "linalg.max_height_bits": max_height_bits,
        "calculus.self_s": own["calculus"],
        "calculus.lie_bracket_calls": calls("calculus.lie_bracket"),
        "calculus.d_calls": calls("calculus.DiffForm.d"),
        "calculus.pull_function_calls": calls("calculus.ChartMap.pull_function"),
        "structures.self_s": own["structures"],
        "structures.courant_bracket_calls": calls("structures.courant_bracket"),
        "structures.courant_bracket_s": seconds("structures.courant_bracket"),
        "structures.check_integrable_s": seconds("structures.check_integrable"),
        "structures.b_transform_structure_calls": calls("structures.b_transform_structure"),
        "structures.bracket_covector_pair_ratio": ratio(
            counts.get("covector_pair", 0), calls("structures.courant_bracket")
        ),
        "equivariant.self_s": own["equivariant"],
        "equivariant.gamma_from_connection_calls": calls("equivariant.gamma_from_connection"),
        "equivariant.is_basic_calls": calls("equivariant.is_basic"),
        "reduction.self_s": own["reduction"],
        "reduction.fiber_data_calls": calls("reduction.fiber_data"),
        "reduction.dirac_reduce_calls": calls("reduction.dirac_reduce"),
        "reduction.distinct_points": distinct_points,
        "reduction.two_step_reduce_s": seconds("reduction.two_step_reduce"),
        "reduction.gk_reduce_s": seconds("reduction.gk_reduce"),
        "reduction.check_level_closure_s": seconds("reduction.check_level_closure"),
        "reduction.check_adapted_closure_s": seconds("reduction.check_adapted_closure"),
        "reduction.fiber_reuse_ratio": ratio(
            distinct_reductions, calls("reduction.dirac_reduce")
        ),
        "scenario.load_s": seconds("scenario.load_scenario"),
        "runner.run_scenario_s": seconds("runner.run_scenario"),
        **{f"runner.check.{c}_s": seconds(f"runner.check.{c}") for c in CHECKS},
        "report.build_report_s": seconds("report.build_report"),
        "report.render_json_s": seconds("report.render_json"),
        "selftest.invariant_results_s": seconds("selftest.invariant_results"),
    }
    assert list(out) == list(LAYER_METRICS)
    return out
