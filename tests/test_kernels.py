"""The array-native kernel plane (src/repro/kernels/).

The contract under test is *exact metering replication*: for every
eligible binding, a cell executed on a kernel engine produces a
canonical differential record byte-identical to the vectorized
per-machine path, with identical Metrics down to the per-edge
congestion multiset -- kernels are a perf tier, never a semantics tier.
Everything ineligible (unlisted bindings, active fault plans, attached
profilers, plan builders that decline) must fall through to the
vectorized path and say why in ``engine_source``.  The reference half
of every comparison runs under ``cell_context(engine="reference")``.
"""

import json
import sys

import numpy as np
import pytest

from repro.congest.cell import cell_context
from repro.congest.errors import AlgorithmError
from repro.congest.faults import FaultPlan
from repro.congest.machine import run_machines
from repro.congest.profile import RoundProfiler
from repro.congest.scheduler import random_delays
from repro.core import bcongest_sim
from repro.core.bcongest_sim import output_words, simulate_bcongest
from repro.core.tradeoff_sim_star import simulate_aggregation_star
from repro.decomposition.pruning import build_pruned_hierarchy
from repro.core.weighted_apsp import weighted_apsp
from repro.graphs import gnp_streaming, uniform_weights
from repro.kernels import REGISTRY, wavefront
from repro.kernels import config as kernels_config
from repro.kernels import relaxation
from repro.kernels.plan import CollectionResult
from repro.primitives.bellman_ford import (
    BellmanFordCollectionMachine, message_budget as bellman_ford_budget)
from repro.primitives.bfs import BFSCollectionMachine, message_budget
from repro.runner.engine import provenance_counts, run_sweep
from repro.runner.jobs import build_specs
from repro.scenarios import get_scenario
from repro.testing import run_differential

# Eligible (scenario, algorithm) cells spanning all three registry
# entries and >= 6 scenarios: unweighted BFS/APSP on sparse,
# high-diameter, dense, and random shapes; weighted APSP over integer,
# Johnson-reweighted (negative-safe), per-direction asymmetric, and
# heavy-tailed *float* weights.
ELIGIBLE_CELLS = [
    ("path", "apsp-unweighted"),
    ("path", "bfs-collection"),
    ("cycle", "apsp-unweighted"),
    ("grid", "bfs-collection"),
    ("random-tree", "apsp-unweighted"),
    ("dense-gnp", "bfs-collection"),
    ("expander-regular", "apsp-unweighted"),
    ("huge-sparse-gnp", "apsp-unweighted"),
    ("grid-weighted", "apsp-weighted"),
    ("dense-gnp-negative", "apsp-weighted"),
    ("dense-gnp-asymmetric", "apsp-weighted"),
    ("heavy-tail-gnp", "apsp-weighted"),
]


def _canonical(record):
    return json.dumps(record.canonical_dict(), sort_keys=True)


def _kernel_vs_vectorized(name, algorithm, size=None, seed=0):
    with cell_context(engine="reference"):
        off = run_differential(name, algorithm, size=size, seed=seed)
    assert off.engine_source == "none"
    assert "engine_source" not in off.as_dict()
    on = run_differential(name, algorithm, size=size, seed=seed)
    return off, on


# ---------------------------------------------------------------------------
# Byte-identity of canonical records, kernel vs reference engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,algorithm", ELIGIBLE_CELLS,
                         ids=[f"{n}-{a}" for n, a in ELIGIBLE_CELLS])
def test_eligible_cell_is_byte_identical_and_kernel_served(name, algorithm):
    off, on = _kernel_vs_vectorized(name, algorithm)
    assert on.engine_source.startswith("kernel:"), on.engine_source
    assert on.engine_source == f"kernel:{REGISTRY[algorithm]}"
    assert _canonical(off) == _canonical(on)
    assert off.metrics == on.metrics  # exact, not approximate
    assert on.ok, on.failure_message()


@pytest.mark.parametrize("name,algorithm", ELIGIBLE_CELLS[:4],
                         ids=[f"{n}-{a}" for n, a in ELIGIBLE_CELLS[:4]])
def test_byte_identity_holds_across_seeds(name, algorithm):
    for seed in (1, 2):
        off, on = _kernel_vs_vectorized(name, algorithm, seed=seed)
        assert _canonical(off) == _canonical(on)
        assert on.engine_source.startswith("kernel:")


@pytest.mark.slow
@pytest.mark.parametrize("name,algorithm", ELIGIBLE_CELLS,
                         ids=[f"{n}-{a}" for n, a in ELIGIBLE_CELLS])
def test_byte_identity_at_requested_size(name, algorithm, scenario_size):
    """Tier 2: the same identity at ``--scenario-size N`` (e.g. 32)."""
    off, on = _kernel_vs_vectorized(name, algorithm, size=scenario_size)
    assert _canonical(off) == _canonical(on)
    assert on.engine_source.startswith("kernel:")


# ---------------------------------------------------------------------------
# Engine-level exactness: full Metrics equality, not just the record
# ---------------------------------------------------------------------------

def test_direct_engine_replicates_run_machines_exactly():
    graph = get_scenario("sparse-gnp").graph(24)
    delays = random_delays(range(graph.n), "bfs-delays", 3)
    budget = message_budget(graph.n)
    base = run_machines(
        graph, lambda info: BFSCollectionMachine(info, delays),
        word_limit=budget, seed=5)
    fast = wavefront.direct_execution(graph, delays, word_limit=budget)
    assert fast.outputs == base.outputs
    assert fast.metrics.as_dict() == base.metrics.as_dict()
    assert dict(fast.metrics.edge_congestion) \
        == dict(base.metrics.edge_congestion)
    assert dict(fast.metrics.message_sizes) \
        == dict(base.metrics.message_sizes)


def test_oversize_broadcast_error_is_identical_stepped_and_replayed():
    """One oversize check: the stepped star driver and the star kernel,
    and the stepped Theorem 2.1 loop and its plan replay (BFS and
    Bellman-Ford, every delay 1), raise the same text for the same
    first offender."""
    graph = get_scenario("sparse-gnp").graph(24)
    hierarchy = build_pruned_hierarchy(graph, 1.0, seed=13)
    delays = {j: 1 for j in range(graph.n)}
    assert wavefront.star_report(graph, hierarchy, delays,
                                 message_words=10**6) is not None

    def factory(info):
        return BFSCollectionMachine(info, delays)

    with pytest.raises(AlgorithmError) as stepped:
        simulate_aggregation_star(
            graph, hierarchy, factory, message_words=8)
    with pytest.raises(AlgorithmError) as kernel:
        wavefront.star_report(graph, hierarchy, delays, message_words=8)
    assert str(kernel.value) == str(stepped.value)
    assert str(stepped.value).startswith("simulated algorithm broadcast ")
    assert str(stepped.value).endswith(" words > 8")

    weighted = get_scenario("grid-weighted").graph(24)
    ones = {j: 1 for j in weighted.nodes()}

    def bellman_ford(info):
        return BellmanFordCollectionMachine(info, ones)

    for g, machines, plan, want in (
            (graph, factory, wavefront.bcongest_plan(graph, delays),
             str(stepped.value)),
            (weighted, bellman_ford, relaxation.bcongest_plan(weighted, ones),
             "simulated algorithm broadcast 9 words > 8")):
        assert plan is not None
        with pytest.raises(AlgorithmError) as looped:
            simulate_bcongest(g, machines, message_words=8)
        with pytest.raises(AlgorithmError) as replayed:
            simulate_bcongest(g, machines, message_words=8, plan=plan)
        assert str(replayed.value) == str(looped.value) == want


def _windows(report):
    return [(m.as_dict(), list(m.edge_congestion.items()),
             list(m.message_sizes.items()), m.max_message_words)
            for m in (report.preprocessing, report.simulation,
                      report.output_delivery)]


def test_replay_meters_contended_cells_like_the_stepped_loop():
    """Cells whose phases queue hard on shared links: the plan replay's
    batched transport meters every window as the stepped loop does,
    ordered congestion and size histogram included.  The BFS cell is
    the message-optimal APSP's at grid@100, seed 1 (1,765 simulation
    rounds, 6,366 transport messages); the Bellman-Ford one is weighted
    APSP's at grid-weighted@100."""
    graph = get_scenario("grid").graph(100)
    delays = random_delays(graph.nodes(), "bfs-delays", 1)

    def bfs(info):
        return BFSCollectionMachine(info, delays)

    kwargs = {"seed": 1, "message_words": message_budget(graph.n)}
    stepped = simulate_bcongest(graph, bfs, **kwargs)
    replayed = simulate_bcongest(
        graph, bfs, plan=wavefront.bcongest_plan(graph, delays),
        **kwargs)
    assert _windows(replayed) == _windows(stepped)
    assert (stepped.simulation.rounds, stepped.simulation.messages) \
        == (1765, 6366)

    graph = get_scenario("grid-weighted").graph(100)
    delays = random_delays(range(graph.n), "delays", 1)

    def bellman_ford(info):
        return BellmanFordCollectionMachine(info, delays)

    kwargs = {"seed": 1, "message_words": bellman_ford_budget(graph.n)}
    stepped = simulate_bcongest(graph, bellman_ford, **kwargs)
    replayed = simulate_bcongest(
        graph, bellman_ford, plan=relaxation.bcongest_plan(graph, delays),
        **kwargs)
    assert _windows(replayed) == _windows(stepped)
    assert stepped.simulation.messages > 6000


def _apsp_replay_cells():
    """Every tier-1 APSP cell, and the six apsp-n128 cells."""
    cells = [(spec.scenario, spec.algorithm, spec.size, spec.seed)
             for spec in build_specs()
             if spec.algorithm in ("apsp-weighted", "apsp-unweighted")]
    return cells + [(name, algorithm, 128, seed)
                    for name, algorithm in (("grid-weighted", "apsp-weighted"),
                                            ("sparse-gnp", "apsp-unweighted"))
                    for seed in (1, 2, 3)]


def test_plan_output_sizes_equal_output_words(monkeypatch):
    """A plan's per-node output sizes, counted from its result arrays,
    are ``output_words`` of the outputs built from them, on every
    tier-1 replay cell and on the six apsp-n128 cells."""
    original = bcongest_sim.simulate_bcongest
    plans = []

    def recording(*args, **kwargs):
        report = original(*args, **kwargs)
        plan = kwargs.get("plan")
        if plan is not None:
            plans.append(plan)
            assert report.output_words == sum(plan.result.output_words())
        return report

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "simulate_bcongest", None) is original):
            monkeypatch.setattr(module, "simulate_bcongest", recording)
    cells = _apsp_replay_cells()
    for name, algorithm, size, seed in cells:
        assert run_differential(name, algorithm, size=size,
                                seed=seed).passed
    assert len(plans) == len(cells)
    for plan in plans:
        outputs = plan.result.outputs
        assert plan.result.output_words() == [output_words(outputs[v])
                                              for v in range(len(outputs))]


def test_kernel_apsp_cells_build_no_output_dict(monkeypatch):
    """A kernel-served APSP cell takes its distance matrix (and the
    weighted parent map) from the plan's result arrays: with the one
    writer of the machines' ``{v: {j: (dist, parent)}}`` shape made to
    raise, every tier-1 APSP cell and a 128-node cell of each binding
    still pass, each served by a kernel."""

    def no_dict(_result):
        raise AssertionError("a collection output dict was built")

    monkeypatch.setattr(CollectionResult, "outputs", property(no_dict))
    cells = [cell for cell in _apsp_replay_cells()
             if cell[2] != 128 or cell[3] == 1]
    assert len(cells) > 2
    for name, algorithm, size, seed in cells:
        record = run_differential(name, algorithm, size=size, seed=seed)
        assert record.passed, record.failure_message()
        assert record.engine_source.startswith("kernel:"), (
            name, algorithm, record.engine_source)


def test_weighted_apsp_metrics_identical_kernels_on_and_off():
    graph = uniform_weights(get_scenario("grid-weighted").graph(12),
                            w_max=8, seed=9)
    with cell_context(engine="reference") as cell:
        off = weighted_apsp(graph, seed=2)
    assert cell.engine_note is None
    with cell_context() as cell:
        on = weighted_apsp(graph, seed=2)
    assert cell.engine_note == "kernel:bellman-ford"
    assert on.dist == off.dist
    assert on.parents == off.parents
    assert on.metrics.as_dict() == off.metrics.as_dict()
    assert dict(on.metrics.edge_congestion) \
        == dict(off.metrics.edge_congestion)
    assert on.detail == off.detail


# ---------------------------------------------------------------------------
# Fallbacks: everything ineligible goes vectorized, with the reason
# ---------------------------------------------------------------------------

FALLBACK_CONTEXTS = {
    "reference": lambda: {"engine": "reference"},
    "faults": lambda: {"faults": FaultPlan(drop=0.2, seed=1)},
    "profile": lambda: {"profiler": RoundProfiler()},
}


def _entry_points():
    """Each kernel entry point on an eligible input, with the label it
    leaves when it serves (the direct replay leaves none)."""
    graph = get_scenario("sparse-gnp").graph(24)
    hierarchy = build_pruned_hierarchy(graph, 1.0, seed=13)
    weighted = get_scenario("grid-weighted").graph(24)
    delays = random_delays(range(graph.n), "bfs-delays", 0)
    budget = message_budget(graph.n)
    return {
        "direct_execution": (lambda: wavefront.direct_execution(
            graph, delays, word_limit=budget), None),
        "star_report": (lambda: wavefront.star_report(
            graph, hierarchy, delays, message_words=budget),
            "kernel:bfs-wavefront"),
        "wavefront.bcongest_plan": (lambda: wavefront.bcongest_plan(
            graph, delays), "kernel:bfs-wavefront"),
        "relaxation.bcongest_plan": (lambda: relaxation.bcongest_plan(
            weighted, random_delays(range(weighted.n), "delays", 0)),
            "kernel:bellman-ford"),
    }


def test_kernel_entry_points_gate_and_label_themselves():
    """Under each fallback reason every kernel entry point declines
    (returns None) and notes nothing; outside them each one serves, and
    the plan builders and the star replay leave their label."""
    for name, (call, label) in _entry_points().items():
        for reason, fields in FALLBACK_CONTEXTS.items():
            with cell_context(**fields()) as cell:
                assert call() is None, (name, reason)
            assert cell.engine_note is None, (name, reason)
        with cell_context() as cell:
            assert call() is not None, name
        assert cell.engine_note == label, name


def test_unlisted_binding_reports_ineligible():
    record = run_differential("bipartite-balanced", "matching")
    assert record.engine_source == "vectorized:ineligible"
    assert record.ok, record.failure_message()


def test_profiled_transport_does_not_relabel_an_ineligible_cell():
    """The matching binding routes packets; under a profiler the
    transport falls back without noting ``vectorized:profile``."""
    record = run_differential("bipartite-balanced", "matching",
                              profiler=RoundProfiler())
    assert record.engine_source == "vectorized:ineligible"
    assert record.ok, record.failure_message()


def test_faulted_cell_falls_back_to_vectorized():
    record = run_differential("random-tree", "apsp-unweighted",
                              faults="lossy-light", fault_seed=7)
    assert record.engine_source == "vectorized:faults"


def test_active_profiler_falls_back_to_vectorized():
    with cell_context(profiler=RoundProfiler()):
        assert kernels_config.fallback_reason() == "vectorized:profile"
        assert kernels_config.cell_engine_source("apsp-unweighted") \
            == "vectorized:profile"


@pytest.mark.parametrize("scenario,faults,verdict", [
    ("path", "reorder-heavy", "correct-under-faults"),
    ("random-tree", "lossy-light", "diverged"),
])
def test_profiled_and_faulted_cell_reads_faults(scenario, faults, verdict):
    """The one ordered label rule: a non-null fault plan outranks the
    profiler, whether the execution completed or crashed before a
    kernel stage was reached."""
    record = run_differential(scenario, "apsp-unweighted", faults=faults,
                              fault_seed=7, profiler=RoundProfiler())
    assert record.fault_verdict == verdict
    assert record.engine_source == "vectorized:faults"


def test_oversized_int_weights_decline_the_plan():
    graph = uniform_weights(get_scenario("grid-weighted").graph(12),
                            w_max=8, seed=9)
    huge = {key: w * (2 ** 60) for key, w in graph.weights.items()}
    graph = graph.reweighted(huge)
    delays = {j: 1 for j in range(graph.n)}
    assert relaxation.bcongest_plan(graph, delays) is None
    # Through the driver: eligible binding, no kernel note -> fallback.
    with cell_context():
        weighted_apsp(graph, seed=0)
        assert kernels_config.cell_engine_source("apsp-weighted") \
            == "vectorized:fallback"


def test_disabled_plane_reports_none_and_omits_the_field():
    with cell_context(engine="reference"):
        record = run_differential("path", "apsp-unweighted")
    assert record.engine_source == "none"
    assert "engine_source" not in record.as_dict()


# ---------------------------------------------------------------------------
# Sweep integration: summary counts, nondeterministic-field handling
# ---------------------------------------------------------------------------

def test_sweep_summary_counts_engine_sources():
    outcome = run_sweep(["path", "cycle"], seeds=(0,))
    summary = outcome.summary()
    counts = summary["engine_sources"]
    assert sum(counts.values()) == len(
        [r for r in outcome.results
         if r.spec.algorithm in REGISTRY])
    assert all(source.startswith("kernel:") for source in counts)
    # The shared helper drops "none" rows, mirroring oracle sources.
    assert "none" not in provenance_counts(outcome.results)["engines"]


def test_sweep_canonical_records_identical_kernels_on_and_off():
    with cell_context(engine="reference"):
        off = run_sweep(["path", "cycle"], seeds=(0,))
    on = run_sweep(["path", "cycle"], seeds=(0,))
    assert [r.canonical_record() for r in off.results] \
        == [r.canonical_record() for r in on.results]
    assert off.summary()["engine_sources"] == {}


# ---------------------------------------------------------------------------
# Kernel-scale (tier 2): n = 10^5 under the streaming builder
# ---------------------------------------------------------------------------

def _reference_bfs(graph, root):
    from collections import deque

    dist = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.mark.slow
@pytest.mark.parametrize("name", ["huge-sparse-gnp", "huge-grid"])
def test_kernel_scale_scenarios_build_and_solve(name):
    scenario = get_scenario(name)
    graph = scenario.graph(100000)
    assert graph.is_connected() and graph.n >= 90000
    roots = [0, graph.n // 2]
    dist, _parent, _events = relaxation.hop_sweep(
        graph, np.array(roots), np.ones(len(roots), dtype=np.int64))
    for row, root in zip(dist, roots):
        reference = _reference_bfs(graph, root)
        assert len(reference) == graph.n  # connected
        assert all(int(row[v]) == d for v, d in reference.items())


@pytest.mark.slow
def test_direct_engine_runs_at_kernel_scale():
    graph = get_scenario("huge-sparse-gnp").graph(100000)
    delays = random_delays([0, 1, 2, 3], "bfs-delays", 0)
    execution = wavefront.direct_execution(
        graph, delays, word_limit=message_budget(graph.n))
    assert execution.metrics.messages > graph.n
    assert execution.metrics.rounds > 0
    reference = _reference_bfs(graph, 0)
    for v in (1, graph.n // 2, graph.n - 1):
        d, _parent = execution.outputs[v][0]
        assert d == reference[v]


# ---------------------------------------------------------------------------
# The streaming G(n, p) sampler
# ---------------------------------------------------------------------------

def test_gnp_streaming_is_deterministic_and_connected():
    a = gnp_streaming(200, 0.05, seed=4)
    b = gnp_streaming(200, 0.05, seed=4)
    assert a.adj == b.adj
    assert a.is_connected()
    assert a.adj != gnp_streaming(200, 0.05, seed=5).adj


def test_gnp_streaming_edge_count_tracks_expectation():
    n, p = 400, 0.03
    expected = p * n * (n - 1) / 2
    ms = [gnp_streaming(n, p, seed=s).m for s in range(8)]
    mean = sum(ms) / len(ms)
    assert 0.7 * expected < mean < 1.4 * expected


def test_gnp_streaming_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        gnp_streaming(1, 0.5)
    with pytest.raises(ValueError):
        gnp_streaming(10, 0.0)
    with pytest.raises(ValueError):
        gnp_streaming(10, 1.0)
