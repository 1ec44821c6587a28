"""The benchmark registry behind ``repro bench``: one stable schema.

Perf PRs keep inventing ad-hoc JSON shapes for their before/after
numbers; this module pins one schema and one entry point so every
``BENCH_*.json`` in the repository reads the same way:

``{"benchmark": <name>, "scenario": <workload description>,
"timings_seconds": {<label>: seconds}, "speedup": {<label>: ratio},
"metadata": {"python": ..., "revision": ..., "extra": {...}}}``

A benchmark is a callable taking ``smoke`` and returning a
:class:`BenchReport`; ``repro bench`` runs the requested (or all)
registered benchmarks and writes ``BENCH_<name>.json`` next to the
repository root (or ``--out``).
Timing labels are dotted paths (``sweep_construction.cold_store``) so nested
comparisons stay flat and diffable; speedup keys name the comparison
they summarize.

Registered today:

* ``simulator-fastpath`` -- the PR-1 round-loop benchmark (scalar vs.
  vectorized broadcast delivery) re-expressed in the shared schema;
  ``--smoke`` runs it on a smaller graph with one rep.
* ``kernels`` -- the array-native round engines (:mod:`repro.kernels`):
  a multi-root BFS wavefront execution under the vectorized per-machine
  round loop vs. the whole-execution numpy kernel, outputs and full
  metering verified identical before any timing.  The full run is the
  ``>= 10x on the metered hot loop`` evidence (n >= 1000); ``--smoke``
  shrinks the workload for the CI ``>= 3x`` gate.  Writes
  ``BENCH_kernels.json``.
* ``graph-store``, ``oracle-store`` and ``decomposition-pipeline`` --
  one registration per artifact chain (:data:`STORE_BENCHMARKS`, in
  :data:`repro.runner.chain.CHAINS` order: scenario graphs, sequential
  baselines, the staged pipeline's LDC snapshots), all measured by the
  one :func:`bench_store` body.  Per distinct artifact of the family's
  cases: cold compute vs. store load vs. in-process LRU hit
  (``<setting>.<artifact>.{cold_compute,store_load,lru_hit}``, ratios
  ``load_vs_compute.<artifact>`` / ``lru_vs_compute.<artifact>``),
  after checking that the published value loads back equal.  Then a
  sweep's whole per-cell bill for the family under a cold store
  (compute + publish every key) vs. a warm one (load every key), whose
  ratio is the headline: ``sweep_construction_warm_vs_cold`` (graph
  LRU on, as in a sweep), ``sweep_baselines_warm_vs_cold`` and
  ``pipeline_inputs_warm_vs_cold`` (LRU off, so the disk path is what
  is measured).  CI runs the three under ``--smoke`` and checks the
  emitted JSON, not its timings.  Write
  ``BENCH_graph_store.json``, ``BENCH_oracle_store.json`` and
  ``BENCH_decomposition_pipeline.json``.
"""

from __future__ import annotations

import functools
import json
import pathlib
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class BenchReport:
    """One benchmark's measurements in the shared schema."""

    name: str
    scenario: str
    timings: Dict[str, float]            # label -> seconds
    speedups: Dict[str, float]           # comparison -> ratio (>1 = faster)
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        from repro.runner.store import git_revision

        return {
            "benchmark": self.name,
            "scenario": self.scenario,
            "timings_seconds": {k: round(v, 4)
                                for k, v in self.timings.items()},
            "speedup": {k: round(v, 2) for k, v in self.speedups.items()},
            "metadata": {
                "python": platform.python_version(),
                "revision": git_revision(),
                "extra": self.extra,
            },
        }

    @property
    def json_name(self) -> str:
        return f"BENCH_{self.name.replace('-', '_')}.json"


BENCHMARKS: Dict[str, Callable[..., BenchReport]] = {}


def register_benchmark(name: str):
    """Decorator adding a benchmark factory to the registry."""
    def wrap(fn: Callable[..., BenchReport]) -> Callable[..., BenchReport]:
        if name in BENCHMARKS:
            raise ValueError(f"benchmark {name!r} already registered")
        BENCHMARKS[name] = fn
        return fn
    return wrap


def benchmark_names() -> List[str]:
    return sorted(BENCHMARKS)


def run_benchmark(name: str, smoke: bool = False) -> BenchReport:
    """Run one registered benchmark.

    ``smoke=True`` asks for the fast-CI variant: every benchmark
    shrinks its workloads and reps and stamps ``smoke: true`` into its
    extras.
    """
    try:
        fn = BENCHMARKS[name]
    except KeyError:
        known = ", ".join(benchmark_names())
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None
    return fn(smoke=smoke)


def write_report(report: BenchReport,
                 out_dir: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` (into cwd by default); return its path."""
    if out_dir is None:
        out_dir = pathlib.Path.cwd()
    out = pathlib.Path(out_dir) / report.json_name
    out.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return out


def best_of(fn: Callable[[], Any], reps: int = 3) -> float:
    """Best-of-``reps`` wall time of ``fn`` (min damps scheduler noise)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# ---------------------------------------------------------------------------
# Store benchmarks: one per artifact chain (graph-store, oracle-store,
# decomposition-pipeline)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoreBench:
    """What one artifact chain's store benchmark measures.

    ``cases`` / ``smoke_cases`` are the ``(scenario, size)`` workloads;
    ``bill`` names the sweep pass (its headline speedup is
    ``<bill>_warm_vs_cold``); ``sweep_lru`` keeps the chain's LRU on
    during the sweep pass.
    """

    name: str
    cases: Tuple[Tuple[str, int], ...]
    smoke_cases: Tuple[Tuple[str, int], ...]
    bill: str
    sweep_lru: bool


# Chain store kind -> its benchmark, in chain order.
STORE_BENCHMARKS: Dict[str, StoreBench] = {
    # Scenarios spanning the snapshot formats: dense/sparse unweighted
    # CSR and a weighted graph (CSR + ordered weight arrays).  Sizes are
    # large enough that generator work dominates the fixed per-load
    # costs (manifest parse, file headers) the mmap path pays.  The
    # sweep pass keeps the LRU on: a sweep's same-scenario cells share
    # one graph, so only each key's first touch reaches the store.
    "graphs": StoreBench(
        "graph-store",
        (("dense-gnp", 192), ("sparse-gnp", 512), ("grid-weighted", 400)),
        (("dense-gnp", 24), ("sparse-gnp", 48), ("grid-weighted", 36)),
        "sweep_construction", sweep_lru=True),
    # Scenarios spanning the oracle shapes: the shared unweighted-apsp
    # matrix (+ the LDC reference realization) on a dense graph, a
    # weighted distance matrix, and the Hopcroft-Karp matching size.
    # Sizes are large enough that the baseline computation dominates
    # the fixed per-load costs (manifest parse, mmap, decode) by a wide
    # margin.  LRU off in the sweep pass, so the disk path is what is
    # measured.
    "oracles": StoreBench(
        "oracle-store",
        (("dense-gnp", 64), ("grid-weighted", 64),
         ("bipartite-balanced", 72)),
        (("dense-gnp", 16), ("grid-weighted", 12),
         ("bipartite-balanced", 14)),
        "sweep_baselines", sweep_lru=False),
    # Scenarios carrying decomposition-consuming bindings (the staged
    # cover / spanner / hierarchy cells).  Sizes where the metered
    # MPX/LDC construction dominates the fixed per-load costs (manifest
    # parse, mmap, dict reassembly); the smoke sizes are the smallest
    # where that still holds (at the scenarios' tier-1 defaults a store
    # load costs about as much as rebuilding, which would make the CI
    # gate meaningless).  LRU off in the sweep pass, as for oracles.
    "decompositions": StoreBench(
        "decomposition-pipeline",
        (("dense-gnp", 64), ("grid", 100), ("sparse-gnp", 128)),
        (("dense-gnp", 28), ("grid", 36), ("sparse-gnp", 40)),
        "pipeline_inputs", sweep_lru=False),
}


def _require(ok: Any, message: str) -> None:
    """Explicit check, not an assert: must survive ``python -O``."""
    if not ok:
        raise RuntimeError(message)


def _artifact_label(key) -> str:
    # A chain key is (scenario, size, derived seed, *detail); the first
    # detail field (oracle name, decomposition algorithm) names the
    # artifact within its case, and a graph is its case.
    return ".".join(str(part) for part in (key[0], *key[3:4]))


def bench_store(kind: str, smoke: bool = False) -> BenchReport:
    """One chain's store benchmark (``STORE_BENCHMARKS[kind]``).

    Per distinct artifact of the cases: cold compute vs. store load vs.
    in-process LRU hit, after checking that the published value loads
    back equal.  Then a fresh sweep invocation's whole per-cell bill for
    this family -- every cell resolves its artifact through the chain
    -- under a cold store (compute + publish every key) vs. a warm one
    (load every key).
    """
    import shutil
    import tempfile

    from repro.runner import config
    from repro.runner.chain import all_chains
    from repro.scenarios import get_binding, get_scenario
    from repro.store import FamilyStore

    spec = STORE_BENCHMARKS[kind]
    chain = all_chains()[kind]
    cases = spec.smoke_cases if smoke else spec.cases
    reps = 1 if smoke else 3
    lru_size = getattr(config.SweepConfig(), chain.size_field)
    timings: Dict[str, float] = {}
    speedups: Dict[str, float] = {}
    extra: Dict[str, Any] = {"smoke": smoke}

    with config.preserved(), tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        store = FamilyStore(chain.family, root / "warm")

        # Build each case's graph once, outside every timed region (for
        # the graph chain the sweep pass still resolves its own), and
        # collect the cells that resolve an artifact of this family.
        prepared = []
        artifacts: Dict[Any, Tuple[Any, ...]] = {}  # key -> compute args
        for name, size in cases:
            scenario = get_scenario(name)
            graph = scenario.graph(size)
            cells = []
            for algorithm in scenario.algorithms:
                binding = get_binding(algorithm)
                request = chain.request(scenario, size, 0, binding, graph)
                if request is not None:
                    cells.append(binding)
                    artifacts.setdefault(*request)
            prepared.append((scenario, size, graph, cells))
            extra[name] = {"n": graph.n, "m": graph.m, "size": size,
                           "weighted": graph.is_weighted,
                           "cells": [binding.name for binding in cells]}

        # -- per artifact: cold compute vs store load vs LRU hit -------
        for key, args in artifacts.items():
            label = _artifact_label(key)
            coords = chain.coords(key, *args)
            value = chain.compute(*args)
            # Load-bearing: the publish populates the warm store every
            # later measurement reads.
            _require(store.publish(*coords, value),
                     f"{label}: publish failed")
            _require(store.load(*coords) == value,
                     f"{label}: published value diverged from compute")

            compute = best_of(lambda: chain.compute(*args), reps)
            load = best_of(lambda: store.load(*coords), reps)
            chain.configure(lru_size)
            chain.configure_store(None)
            chain.resolve(key, *args)  # warm the LRU
            lru_hit = best_of(lambda: chain.resolve(key, *args), reps)
            prefix = f"{chain.setting}.{label}"
            timings[f"{prefix}.cold_compute"] = compute
            timings[f"{prefix}.store_load"] = load
            timings[f"{prefix}.lru_hit"] = lru_hit
            speedups[f"load_vs_compute.{label}"] = compute / load
            speedups[f"lru_vs_compute.{label}"] = compute / lru_hit

        # -- per-cell sweep bill: cold store vs warm store -------------
        # Models a fresh `repro sweep` invocation: every cell asks the
        # chain for its artifact and the LRU starts empty.  Cold: the
        # store is empty too, so the first resolution of every key
        # computes and publishes.  Warm: it loads the published value.
        def sweep_pass(store_dir):
            chain.configure(lru_size if spec.sweep_lru else 0)
            chain.configure_store(store_dir)
            start = time.perf_counter()
            for scenario, size, graph, cells in prepared:
                for binding in cells:
                    chain.cell_source(scenario, size, 0, binding, graph)
            return time.perf_counter() - start

        cold_times, warm_times = [], []
        for rep in range(reps):
            cold_root = root / f"cold-{rep}"
            cold_times.append(sweep_pass(cold_root))
            shutil.rmtree(cold_root)
            warm_times.append(sweep_pass(store.root))
        cold_sweep, warm_sweep = min(cold_times), min(warm_times)
        timings[f"{spec.bill}.cold_store"] = cold_sweep
        timings[f"{spec.bill}.warm_store"] = warm_sweep
        speedups[f"{spec.bill}_warm_vs_cold"] = cold_sweep / warm_sweep
        extra[spec.bill] = {
            "cells": sum(len(cells) for *_rest, cells in prepared),
            "cases": [f"{name}@{size}" for name, size in cases],
        }
        extra["store"] = store.stat()
        extra["store"].pop("root", None)  # tempdir path: not reproducible

    return BenchReport(
        name=spec.name,
        scenario=" + ".join(f"{name}(size={size})" for name, size in cases)
                 + f" {kind}; cold vs warm {spec.bill.replace('_', ' ')}",
        timings=timings, speedups=speedups, extra=extra)


for _kind, _spec in STORE_BENCHMARKS.items():
    register_benchmark(_spec.name)(functools.partial(bench_store, _kind))


# ---------------------------------------------------------------------------
# kernels: the array-native round engines vs. the vectorized round loop
# ---------------------------------------------------------------------------

# The hot loop being measured is the direct multi-root BFS execution:
# the vectorized path steps every BFSCollectionMachine every round
# (Python-level per-node, per-message work); the kernel computes the
# whole execution in one hop-aligned numpy sweep over all roots and
# replays the metering in closed form.  Sizes: the full workload is
# n >= 1000 (the 10x claim's floor), sparse so round count, not density,
# dominates; smoke is CI-sized (the 3x gate leaves room for slow runners).
_KERNEL_FULL = {"n": 1200, "p": 0.008, "roots": 256, "reps": 3}
_KERNEL_SMOKE = {"n": 300, "p": 0.03, "roots": 64, "reps": 1}


@register_benchmark("kernels")
def bench_kernels(smoke: bool = False) -> BenchReport:
    from repro.congest.machine import run_machines
    from repro.congest.scheduler import random_delays
    from repro.graphs import gnp_streaming
    from repro.kernels import wavefront
    from repro.primitives.bfs import BFSCollectionMachine, message_budget

    params = _KERNEL_SMOKE if smoke else _KERNEL_FULL
    n, n_roots = params["n"], params["roots"]
    reps = params["reps"]
    graph = gnp_streaming(n, params["p"], seed=11)
    delays = random_delays(range(n_roots), "bfs-delays", 11)
    budget = message_budget(graph.n)

    def vectorized():
        return run_machines(
            graph, lambda info: BFSCollectionMachine(info, delays),
            word_limit=budget, seed=7)

    def kernel():
        return wavefront.direct_execution(graph, delays, word_limit=budget)

    # Exactness first, timing second: the speedup claim is only worth
    # reporting for a kernel that reproduces the vectorized execution
    # bit for bit.  Explicit checks (not asserts) so `python -O` cannot
    # silently skip them.
    base = vectorized()
    fast = kernel()
    _require(fast.outputs == base.outputs,
             "kernel outputs diverged from the vectorized path")
    _require(fast.metrics.as_dict() == base.metrics.as_dict()
             and dict(fast.metrics.edge_congestion)
             == dict(base.metrics.edge_congestion),
             "kernel metering diverged from the vectorized path")

    t_vec = best_of(vectorized, reps)
    t_kernel = best_of(kernel, reps)
    return BenchReport(
        name="kernels",
        scenario=(f"gnp_streaming(n={n},p={params['p']},seed=11), "
                  f"{n_roots}-root BFS wavefront, word budget {budget}"),
        timings={"bfs_wavefront.vectorized_round_loop": t_vec,
                 "bfs_wavefront.kernel": t_kernel},
        speedups={"wavefront_kernel_vs_vectorized": t_vec / t_kernel},
        extra={"smoke": smoke, "n": graph.n, "m": graph.m,
               "roots": n_roots, "rounds": base.metrics.rounds,
               "messages": base.metrics.messages})


# ---------------------------------------------------------------------------
# simulator-fastpath: the PR-1 round-loop benchmark, shared schema
# ---------------------------------------------------------------------------

# The full workload is the original dense graph; smoke is CI-sized.
_FASTPATH_FULL = {"n": 200, "reps": 3}
_FASTPATH_SMOKE = {"n": 60, "reps": 1}


@register_benchmark("simulator-fastpath")
def bench_simulator_fastpath(smoke: bool = False) -> BenchReport:
    from repro.congest.cell import cell_context
    from repro.congest.machine import run_machines
    from repro.graphs import gnp
    from repro.primitives import BFSMachine, LubyMISMachine

    params = _FASTPATH_SMOKE if smoke else _FASTPATH_FULL
    reps = params["reps"]
    graph = gnp(params["n"], 0.5, seed=7)
    timings: Dict[str, float] = {}
    speedups: Dict[str, float] = {}

    def scalar(factory):
        with cell_context(engine="reference"):
            return run_machines(graph, factory, seed=7)

    for label, factory in (("bfs_flood", lambda info: BFSMachine(info, root=0)),
                           ("luby_mis", LubyMISMachine)):
        fast = run_machines(graph, factory, seed=7)
        slow = scalar(factory)
        _require(fast.outputs == slow.outputs
                 and fast.metrics.as_dict() == slow.metrics.as_dict()
                 and fast.metrics.edge_congestion
                 == slow.metrics.edge_congestion,
                 f"{label}: fast path diverged from the scalar path")
        t_fast = best_of(lambda: run_machines(graph, factory, seed=7), reps)
        t_slow = best_of(lambda: scalar(factory), reps)
        timings[f"{label}.seed_scalar_path"] = t_slow
        timings[f"{label}.vectorized_fast_path"] = t_fast
        speedups[label] = t_slow / t_fast
    return BenchReport(
        name="simulator-fastpath",
        scenario=f"dense gnp (n={graph.n}, p=0.5, seed=7)",
        timings=timings, speedups=speedups,
        extra={"smoke": smoke, "n": graph.n, "m": graph.m})
