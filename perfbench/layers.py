"""Per-layer tracing for the sweep benchmark, from outside the program.

The traced run wraps each layer's public callable (see :data:`LAYERS`) for
the length of one pass, records one span per call (name, start, end,
parent span, cell id, phase) plus counts at the same boundaries, and
rolls them up when the run ends.  Nothing under ``src/`` is touched: the
wrappers are installed by replacing the callable where the program looks
it up -- the defining module, every already-imported ``repro`` module
that bound it with ``from ... import``, the class for methods, and the
registry instance for ``Binding.run`` / ``OracleSpec.compute`` -- and are
removed again after the pass, so untraced passes of the same process run
the program as shipped.

A name ending in ``_s`` is inclusive span time (a span nested in a span
of the same name is not counted twice) unless it ends in ``self_s``,
which is the span's time minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BINDING_NAMES = ("apsp-unweighted", "apsp-weighted", "bfs-collection",
                 "cover", "matching", "ldc", "mpx-cover", "ldc-spanner",
                 "bs-hierarchy")

MATRIX, APSP, PIPELINE = "matrix-cold", "apsp-n128", "pipeline-resweep"
ALL = (MATRIX, APSP, PIPELINE)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric (README.md says what it reads and should move)."""

    name: str
    unit: str
    better: str = "lower"
    fires_on: Tuple[str, ...] = ()  # workloads where zero means a bad wrapper


def _layers() -> Tuple[Layer, ...]:
    both = (MATRIX, APSP)
    staged = (MATRIX, PIPELINE)
    rows = [
        ("runner.self_s", "s", ALL), ("runner.record_write_s", "s", ALL),
        ("telemetry.emit_s", "s", ALL), ("telemetry.events", "count", ALL),
        ("testing.self_s", "s", ALL),
        ("graph_cache.resolve_s", "s", ALL),
        ("graph_cache.hit_ratio", "ratio", ALL),
        ("oracle_cache.resolve_s", "s", ALL),
        ("oracle_cache.hit_ratio", "ratio", (APSP, PIPELINE)),
        ("decomposition_cache.resolve_s", "s", ALL),
        ("decomposition_cache.hit_ratio", "ratio", (PIPELINE,)),
        ("store.open_s", "s", ALL), ("store.opens", "count", ALL),
        ("store.publish_s", "s", ALL), ("store.publishes", "count", ALL),
        ("store.fsyncs", "count", ALL), ("store.quarantined", "count", ()),
        ("graphs.build_s", "s", ALL), ("graphs.builds", "count", ALL),
        ("baselines.compute_s", "s", ALL),
        ("baselines.computes", "count", ALL),
        ("decomposition.compute_s", "s", staged),
        ("decomposition.computes", "count", staged),
    ]
    for name in BINDING_NAMES:
        fires = (both if name.startswith("apsp-") else
                 staged if name in ("ldc", "mpx-cover", "ldc-spanner") else
                 (MATRIX,))
        rows.append((f"bindings.{name}_s", "s", fires))
    rows += [
        ("core.bcongest_s", "s", both), ("core.bcongest_calls", "count", both),
        ("primitives.route_packets_s", "s", both),
        ("primitives.route_packets_calls", "count", both),
        ("primitives.packets", "count", both),
        ("primitives.global_tree_s", "s", both),
        ("congest.run_self_s", "s", ALL), ("congest.runs", "count", ALL),
        ("congest.node_infos", "count", both),
        ("congest.us_per_msg", "us/msg", ALL),
        ("kernels.calls", "count", ()),
        ("kernels.coverage_ratio", "ratio", ()),
        ("warmup.excess_s", "s", ()), ("trace.overhead_ratio", "ratio", ()),
    ]
    higher = ("graph_cache.hit_ratio", "oracle_cache.hit_ratio",
              "decomposition_cache.hit_ratio", "kernels.calls",
              "kernels.coverage_ratio")
    return tuple(Layer(name, unit, "higher" if name in higher else "lower",
                       fires) for name, unit, fires in rows)


# The metrics of a traced run, in BENCHMARK.json's per_layer order.
# Every figure covers the workload's setup plus one pass (the median of
# the traced passes); the rollup shows the two parts separately.
LAYERS = _layers()

# Printed by the rollup but left out of the JSON result: it reads 0.0 on
# every workload until the kernels are on by default.
EXTRA_TIMES = ("kernels.run_s",)


class Tracer:
    """In-memory spans and counts, grouped by phase (setup, pass-N)."""

    def __init__(self) -> None:
        # [name, start, end, parent index, cell id, phase, nested]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.active: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.phase = "setup"
        self.cell: Optional[str] = None
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.phase][name] += n

    def spanned(self, name: str, fn: Callable,
                after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` counts."""
        tracer = self
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.cell, tracer.phase, active[name] > 0]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any,
             frozen: bool = False) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), frozen))
        if frozen:
            object.__setattr__(owner, attr, value)
        else:
            setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Replace a module function everywhere ``repro`` has bound it."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapped = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "repro"
                                     or name.startswith("repro.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, wrapped)

    def patch_method(self, cls: type, attr: str,
                     make: Callable[[Callable], Callable]) -> None:
        self._set(cls, attr, make(vars(cls)[attr]))

    def install(self) -> None:
        """Wrap every layer callable (see :data:`LAYERS`)."""
        from repro.baselines import oracles
        from repro.congest.network import Network
        from repro.runner.store import Run
        from repro.scenarios import bindings
        from repro.scenarios.registry import Scenario
        from repro.store.artifacts import ArtifactStore
        from repro.telemetry.events import RunTelemetry

        # Modules whose import-time ``from ... import`` bindings must be
        # in sys.modules before the scan in patch_function.
        for module in ("repro.core", "repro.primitives", "repro.kernels",
                       "repro.kernels.wavefront", "repro.kernels.relaxation",
                       "repro.runner.executor", "repro.testing.differential",
                       "repro.decomposition.baswana_sen",
                       "repro.baselines.apsp_direct"):
            importlib.import_module(module)

        span, fn = self.spanned, self.patch_function

        def set_cell(args, kwargs, result) -> None:
            self.cell = None

        def cell_span(original):
            inner = span("cell", original, set_cell)

            @functools.wraps(original)
            def wrapper(spec, *args, **kwargs):
                self.cell = spec.key
                return inner(spec, *args, **kwargs)

            return wrapper

        fn("repro.runner.engine", "run_sweep",
           lambda f: span("runner.run_sweep", f))
        fn("repro.runner.executor", "execute_cell", cell_span)
        self.patch_method(Run, "append",
                          lambda f: span("runner.record_write", f))
        self.patch_method(Run, "update_manifest",
                          lambda f: span("runner.record_write", f))
        self.patch_method(RunTelemetry, "emit", lambda f: span(
            "telemetry.emit", f,
            lambda a, k, r: self.count("telemetry.events")))
        fn("repro.testing.differential", "run_differential",
           lambda f: span("testing.run_differential", f))

        def resolved(prefix: str, none_counts: bool):
            def after(args, kwargs, result) -> None:
                source = result[1]
                if source == "none" and not none_counts:
                    return
                self.count(f"{prefix}.attempts")
                if source in ("lru", "store"):
                    self.count(f"{prefix}.hits")
            return after

        fn("repro.runner.graph_cache", "scenario_graph_source",
           lambda f: span("graph_cache.resolve", f,
                          resolved("graph_cache", True)))
        fn("repro.runner.oracle_cache", "binding_oracle_source",
           lambda f: span("oracle_cache.resolve", f,
                          resolved("oracle_cache", False)))
        fn("repro.runner.decomposition_cache", "binding_decomposition_source",
           lambda f: span("decomposition_cache.resolve", f,
                          resolved("decomposition_cache", False)))
        self.patch_method(ArtifactStore, "open", lambda f: span(
            "store.open", f, lambda a, k, r: self.count("store.opens")))
        self.patch_method(ArtifactStore, "publish", lambda f: span(
            "store.publish", f, lambda a, k, r: self.count("store.publishes")))
        real_fsync = os.fsync

        def fsync(fd):
            if self.stack and self.spans[self.stack[-1]][0] == "store.publish":
                self.count("store.fsyncs")
            return real_fsync(fd)

        self._set(os, "fsync", fsync)
        self.patch_method(Scenario, "graph", lambda f: span(
            "graphs.build", f, lambda a, k, r: self.count("graphs.builds")))
        for spec in oracles.ORACLES.values():
            revision = oracles.oracle_revision(spec)
            self._set(spec, "compute", span(
                "baselines.compute", spec.compute,
                lambda a, k, r: self.count("baselines.computes")), frozen=True)
            if oracles.oracle_revision(spec) != revision:
                raise RuntimeError(
                    f"wrapping {spec.name}.compute changed its oracle "
                    f"revision; traced passes would miss the store")
        fn("repro.runner.decomposition_cache", "compute_snapshot",
           lambda f: span("decomposition.compute", f,
                          lambda a, k, r: self.count(
                              "decomposition.computes")))
        for binding in bindings.BINDINGS.values():
            self._set(binding, "run",
                      span(f"bindings.{binding.name}", binding.run),
                      frozen=True)
        fn("repro.core.bcongest_sim", "simulate_bcongest", lambda f: span(
            "core.bcongest", f,
            lambda a, k, r: self.count("core.bcongest_calls")))

        def routed(args, kwargs, result) -> None:
            self.count("primitives.route_packets_calls")
            packets = kwargs["packets"] if "packets" in kwargs else args[1]
            self.count("primitives.packets", len(packets))

        fn("repro.primitives.transport", "route_packets",
           lambda f: span("primitives.route_packets", f, routed))
        for attr in ("build_global_tree", "disseminate"):
            fn("repro.primitives.global_tree", attr,
               lambda f: span("primitives.global_tree", f))

        original_run = vars(Network)["run"]

        def network_run(net, *args, **kwargs):
            before = net.metrics.messages
            try:
                return traced_run(net, *args, **kwargs)
            finally:
                self.count("congest.runs")
                self.count("congest.messages", net.metrics.messages - before)

        traced_run = span("congest.run", original_run)
        self._set(Network, "run", functools.wraps(original_run)(network_run))
        fn("repro.congest.network", "make_node_info",
           lambda f: self.counted("congest.node_infos", f))

        def kernel_calls(args, kwargs, result) -> None:
            self.count("kernels.calls")

        for module, attr in (("repro.kernels.wavefront", "direct_execution"),
                             ("repro.kernels.wavefront", "star_report"),
                             ("repro.kernels.wavefront", "bcongest_plan"),
                             ("repro.kernels.relaxation", "bcongest_plan")):
            fn(module, attr, lambda f: span("kernels.run", f, kernel_calls))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, frozen = self._undo.pop()
            if frozen:
                object.__setattr__(owner, attr, value)
            else:
                setattr(owner, attr, value)

    # -- rollup ------------------------------------------------------------
    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Per phase: inclusive and self seconds per span name, and counts."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[3] >= 0:
                child_time[record[3]] += record[2] - record[1]
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for index, (name, start, end, _parent, _cell, phase,
                    nested) in enumerate(self.spans):
            if not nested:
                totals[phase][name + ":incl"] += end - start
            totals[phase][name + ":self"] += end - start - child_time[index]
        for phase, counts in self.counts.items():
            for name, value in counts.items():
                totals[phase][name] += value
        return totals

    def covered(self, phase: str, names: Sequence[str]) -> float:
        """Seconds of ``phase`` inside at least one span named in ``names``."""
        wanted = set(names)
        total = 0.0
        for name, start, end, parent, _cell, span_phase, _n in self.spans:
            if span_phase != phase or name not in wanted:
                continue
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] not in wanted:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                total += end - start
        return total

    def write(self, path: str) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, cell, phase,
                        _nested) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "cell": cell,
                                     "phase": phase}) + "\n")


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


def layer_values(totals: Dict[str, float]) -> Dict[str, float]:
    """The :data:`LAYERS` figures (minus the run-level ones) from totals."""
    get = totals.get
    values = {
        "runner.self_s": get("runner.run_sweep:self", 0.0),
        "runner.record_write_s": get("runner.record_write:incl", 0.0),
        "telemetry.emit_s": get("telemetry.emit:incl", 0.0),
        "telemetry.events": get("telemetry.events", 0.0),
        "testing.self_s": get("testing.run_differential:self", 0.0),
        "store.open_s": get("store.open:incl", 0.0),
        "store.opens": get("store.opens", 0.0),
        "store.publish_s": get("store.publish:incl", 0.0),
        "store.publishes": get("store.publishes", 0.0),
        "store.fsyncs": get("store.fsyncs", 0.0),
        "graphs.build_s": get("graphs.build:incl", 0.0),
        "graphs.builds": get("graphs.builds", 0.0),
        "baselines.compute_s": get("baselines.compute:incl", 0.0),
        "baselines.computes": get("baselines.computes", 0.0),
        "decomposition.compute_s": get("decomposition.compute:incl", 0.0),
        "decomposition.computes": get("decomposition.computes", 0.0),
        "core.bcongest_s": get("core.bcongest:incl", 0.0),
        "core.bcongest_calls": get("core.bcongest_calls", 0.0),
        "primitives.route_packets_s": get("primitives.route_packets:incl",
                                          0.0),
        "primitives.route_packets_calls": get(
            "primitives.route_packets_calls", 0.0),
        "primitives.packets": get("primitives.packets", 0.0),
        "primitives.global_tree_s": get("primitives.global_tree:incl", 0.0),
        "congest.run_self_s": get("congest.run:self", 0.0),
        "congest.runs": get("congest.runs", 0.0),
        "congest.node_infos": get("congest.node_infos", 0.0),
        "kernels.calls": get("kernels.calls", 0.0),
        "kernels.run_s": get("kernels.run:incl", 0.0),
    }
    for chain in ("graph_cache", "oracle_cache", "decomposition_cache"):
        values[f"{chain}.resolve_s"] = get(f"{chain}.resolve:incl", 0.0)
        values[f"{chain}.hits"] = get(f"{chain}.hits", 0.0)
        values[f"{chain}.attempts"] = get(f"{chain}.attempts", 0.0)
    for name in BINDING_NAMES:
        values[f"bindings.{name}_s"] = get(f"bindings.{name}:incl", 0.0)
    values["congest.messages"] = get("congest.messages", 0.0)
    return values


def rollup(tracer: Tracer, traced_passes: Sequence[str],
           pass_times: Sequence[float], *, quarantined: int,
           kernel_cells: int, cells_run: int, warmup_excess: float,
           overhead_ratio: float) -> Tuple[Dict[str, float],
                                           List[List[str]]]:
    """Per-layer metrics (setup + median traced pass) and the table rows."""
    totals = tracer.phase_totals()
    setup = layer_values(totals.get("setup", {}))
    per_pass = [layer_values(totals.get(phase, {}))
                for phase in traced_passes]
    median = {key: statistics.median(p[key] for p in per_pass)
              for key in setup}
    value = {key: setup[key] + median[key] for key in setup}
    for chain in ("graph_cache", "oracle_cache", "decomposition_cache"):
        value[f"{chain}.hit_ratio"] = _ratio(value[f"{chain}.hits"],
                                             value[f"{chain}.attempts"])
    messages = value["congest.messages"]
    value["congest.us_per_msg"] = (value["congest.run_self_s"] / messages
                                   * 1e6 if messages else 0.0)
    value["store.quarantined"] = float(quarantined)
    value["kernels.coverage_ratio"] = _ratio(kernel_cells, cells_run)
    value["warmup.excess_s"] = warmup_excess
    value["trace.overhead_ratio"] = overhead_ratio

    pass_s = statistics.median(pass_times)
    bases = {
        "graph_cache.hit_ratio": "{:.0f}/{:.0f} resolves".format(
            value["graph_cache.hits"], value["graph_cache.attempts"]),
        "oracle_cache.hit_ratio": "{:.0f}/{:.0f} resolves".format(
            value["oracle_cache.hits"], value["oracle_cache.attempts"]),
        "decomposition_cache.hit_ratio": "{:.0f}/{:.0f} resolves".format(
            value["decomposition_cache.hits"],
            value["decomposition_cache.attempts"]),
        "congest.us_per_msg": "{:.0f} msgs".format(messages),
        "kernels.coverage_ratio": f"{kernel_cells}/{cells_run} cells",
        "trace.overhead_ratio": "untraced passes",
    }
    rows = []
    for layer in LAYERS:
        name = layer.name
        split = name in setup
        share = (f"{median[name] / pass_s:6.1%}"
                 if split and layer.unit == "s" and pass_s else "")
        rows.append([name, layer.unit,
                     _fmt(setup[name]) if split else "",
                     _fmt(median[name]) if split else "",
                     _fmt(value[name]), share, bases.get(name, "")])
    for name in EXTRA_TIMES:
        rows.append([name, "s", _fmt(setup[name]), _fmt(median[name]),
                     _fmt(value[name]), "", "not in the JSON result"])
    return value, rows


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.6g}"


def zero_wrappers(workload: str, value: Dict[str, float]) -> List[str]:
    """Metrics that must fire on ``workload`` but read zero."""
    return [layer.name for layer in LAYERS
            if workload in layer.fires_on and not value[layer.name]]
