"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` replaces each traced public function at every module
attribute that binds it (``invariants`` imports ``count_solutions`` by
name, so the wrapper must also go on ``quandlecolor.invariants``).  Each
call records a span (name, start, end, parent, op id); spans stay in
memory until ``write``.  Counters are read from arguments and results
after the span has ended; that work is recorded as a ``trace.counters``
child of the caller, so no layer's self time includes it.  Span times
inside an op are scaled by that op's host-speed factor (``hostspeed``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("", ".catalog", ".cli", ".diagram", ".invariants", ".presentation",
           ".quandle", ".smith", ".solver")

# span name -> (defining module, function name)
TRACED = {
    "smith.smith_normal_form": ("smith", "smith_normal_form"),
    "solver.build_system": ("solver", "build_system"),
    "solver.count_solutions": ("solver", "count_solutions"),
    "solver.enumerate_solutions": ("solver", "enumerate_solutions"),
    "solver.brute_force_colorings": ("solver", "brute_force_colorings"),
    "invariants.counting_invariant": ("invariants", "counting_invariant"),
    "invariants.phi_polynomial": ("invariants", "phi_polynomial"),
    "invariants.compare": ("invariants", "compare"),
    "quandle.alexander": ("quandle", "alexander"),
    "quandle.parse_quandle_file": ("quandle", "parse_quandle_file"),
    "quandle.validate": ("quandle", "validate"),
    "cli.main": ("cli", "main"),
    "diagram.parse_relations_file": ("diagram", "parse_relations_file"),
    "diagram.parse_pd_code": ("diagram", "parse_pd_code"),
    "presentation.extract": ("presentation", "extract"),
    "diagram.reidemeister_r1": ("diagram", "reidemeister_r1"),
    "diagram.reidemeister_r2": ("diagram", "reidemeister_r2"),
    "diagram.connected_sum": ("diagram", "connected_sum"),
}
COUNTED = ("smith.smith_normal_form", "solver.enumerate_solutions",
           "solver.brute_force_colorings", "quandle.validate",
           "diagram.parse_relations_file", "diagram.parse_pd_code")
SURGERY = ("diagram.reidemeister_r1", "diagram.reidemeister_r2", "diagram.connected_sum")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.counts: dict[str, float] = {}
        self.op: int | None = None
        self.systems: set = set()  # distinct coefficient matrices of the current op
        self.scale: dict[int, float] = {}  # op id -> host-speed factor
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def start_op(self, op_id: int) -> None:
        self.op = op_id
        self.systems = set()

    def end_op(self, op, result, factor: float = 1.0) -> None:
        self.scale[self.op] = factor
        self.add("smith.systems", len(self.systems))
        if not isinstance(result, Exception):
            self.add("cli.output_bytes", op.output_bytes(result))
        self.op = None

    def _count(self, name: str, args, result) -> None:
        if name == "smith.smith_normal_form":
            matrix = tuple(tuple(row) for row in args[0])
            self.systems.add(matrix)
            self.add("smith.calls", 1)
            self.add("smith.matrix_cells", result.rows * result.cols)
            bits = max((abs(v).bit_length() for row in result.col_transform for v in row), default=0)
            self.counts["smith.max_coeff_bits"] = max(self.counts.get("smith.max_coeff_bits", 0), bits)
        elif name == "solver.enumerate_solutions":
            self.add("solver.colorings_enumerated", len(result))
        elif name == "solver.brute_force_colorings":
            self.add("solver.brute_force.colorings_found", len(result))
        elif name == "quandle.validate":
            self.add("quandle.validate.triples", result.order**3)
        elif name in ("diagram.parse_relations_file", "diagram.parse_pd_code"):
            self.add("diagram.arcs_parsed", result.arc_count)

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if name in COUNTED and self.op is not None:
                # a child span of the caller, so that no layer's self time includes it
                start = time.perf_counter()
                self._count(name, args, result)
                spans.append(("trace.counters", start, time.perf_counter(), parent, self.op))
            return result

        return traced

    def install(self, package: str = "quandlecolor") -> None:
        modules = [importlib.import_module(package + suffix) for suffix in MODULES]
        for name, (module, attr) in TRACED.items():
            original = getattr(importlib.import_module(f"{package}.{module}"), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Inclusive and self seconds per span name, over spans inside ops, at reference speed."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            factor = self.scale.get(op, 1.0)
            totals[name + ".s"] = totals.get(name + ".s", 0.0) + (end - start) * factor
            totals[name + ".self_s"] = (totals.get(name + ".self_s", 0.0)
                                        + (end - start - child_time[i]) * factor)
        return totals

    def layer_spans(self) -> int:
        """Spans recorded inside ops, not counting the counters' own."""
        return sum(1 for name, *_, op in self.spans if op is not None and name != "trace.counters")

    def surgery_seconds(self) -> float:
        return sum(end - start for name, start, end, _, op in self.spans
                   if op is None and name in SURGERY)

    def write(self, path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
