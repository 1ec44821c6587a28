"""Theorem 2.1 simulation: correctness (Lemma 2.5) and cost shape."""

import sys

import pytest

from repro.baselines.reference import (
    bfs_distances,
    unweighted_apsp,
    weighted_apsp as ref_weighted_apsp,
)
from repro.congest import cell_context, run_machines
from repro.core import bcongest_sim
from repro.core.bcongest_sim import output_words, simulate_bcongest
from repro.congest.scheduler import random_delays
from repro.core.weighted_apsp import weighted_apsp
from repro.graphs import complete, dumbbell, gnp, grid, path, uniform_weights
from repro.graphs.weights import asymmetric_weights, negative_safe_weights
from repro.primitives import (
    BFSCollectionMachine,
    BFSMachine,
    BellmanFordCollectionMachine,
    LubyMISMachine,
)
from repro.primitives import transport
from repro.runner.jobs import build_specs
from repro.testing.differential import run_differential


def test_flatten_and_chunk():
    assert output_words({1: (2, 3)}) == 3
    assert output_words(None) == 0
    assert output_words(((1, None), [2.5, "x"], {3, 4}, {5: {6: 7}})) == 8


def test_simulated_bfs_equals_direct_run():
    """Lemma 2.5: the simulation reproduces A's outputs exactly."""
    g = gnp(24, 0.2, seed=11)
    factory = lambda info: BFSMachine(info, root=3)
    direct = run_machines(g, factory, seed=5)
    sim = simulate_bcongest(g, factory, seed=5)
    assert sim.outputs == direct.outputs
    # Broadcast complexity is preserved: every node broadcasts once.
    assert sim.broadcasts_simulated == direct.metrics.broadcasts == g.n


def test_simulated_luby_equals_direct_run():
    """A randomized simulated algorithm: identical coin flips, identical MIS."""
    g = gnp(30, 0.15, seed=12)
    direct = run_machines(g, LubyMISMachine, seed=9)
    sim = simulate_bcongest(g, LubyMISMachine, seed=9)
    assert sim.outputs == direct.outputs


def test_simulated_bfs_collection_apsp():
    g = grid(4, 5)
    delays = random_delays(range(g.n), "delays", 3)
    factory = lambda info: BFSCollectionMachine(info, delays)
    sim = simulate_bcongest(g, factory, seed=3, message_words=6 * g.n)
    ref = unweighted_apsp(g)
    for v in g.nodes():
        for j in g.nodes():
            assert sim.outputs[v][j][0] == ref[j][v]


def test_message_complexity_tracks_broadcasts_not_messages():
    """The point of Theorem 2.1: on dense graphs, simulated message cost
    is governed by B_A, while the direct run pays deg(v) per broadcast."""
    g = complete(28)
    factory = lambda info: BFSMachine(info, root=0)
    direct = run_machines(g, factory, seed=1)
    sim = simulate_bcongest(g, factory, seed=1)
    assert sim.outputs == direct.outputs
    # Direct: n broadcasts * (n-1) neighbors ~ n^2 messages.
    assert direct.metrics.messages == g.n * (g.n - 1)
    # Simulated: the per-phase traffic (excluding one-off preprocessing,
    # which is O(m log n) ~ In) tracks B_A up to polylog factors.
    assert sim.simulation.messages < direct.metrics.messages


def test_weighted_apsp_theorem_1_1_positive():
    g = uniform_weights(gnp(16, 0.3, seed=13), w_max=9, seed=13)
    result = weighted_apsp(g, seed=2)
    ref = ref_weighted_apsp(g)
    assert result.dist == ref


def test_weighted_apsp_theorem_1_1_negative_and_directed():
    g = negative_safe_weights(gnp(12, 0.35, seed=14), w_max=6, seed=14)
    result = weighted_apsp(g, seed=4)
    ref = ref_weighted_apsp(g)
    assert result.dist == ref


def test_weighted_apsp_asymmetric():
    g = asymmetric_weights(gnp(12, 0.3, seed=15), w_max=9, seed=15)
    result = weighted_apsp(g, seed=6)
    ref = ref_weighted_apsp(g)
    assert result.dist == ref


def test_simulation_on_dumbbell():
    """The lower-bound-style topology: dense blobs, thin bridge."""
    g = dumbbell(8, 3, seed=16)
    factory = lambda info: BFSMachine(info, root=0)
    direct = run_machines(g, factory, seed=7)
    sim = simulate_bcongest(g, factory, seed=7)
    assert sim.outputs == direct.outputs


def test_simulation_on_path_edge_case():
    g = path(9)
    factory = lambda info: BFSMachine(info, root=4)
    sim = simulate_bcongest(g, factory, seed=8)
    ref = bfs_distances(g, 4)
    for v in g.nodes():
        assert sim.outputs[v][0] == ref[v]


def test_report_accounting_consistent():
    g = gnp(20, 0.25, seed=17)
    factory = lambda info: BFSMachine(info, root=0)
    sim = simulate_bcongest(g, factory, seed=1)
    assert sim.total.messages == (sim.preprocessing.messages
                                  + sim.simulation.messages
                                  + sim.output_delivery.messages)
    assert sim.input_words >= 2 * g.m  # every edge described twice
    assert sim.phases >= 1
    assert sim.ldc_stats["clusters"] >= 1


def test_output_delivery_is_a_full_metrics_window():
    """Regression: ``output_delivery`` was hand-built from three counters
    and dropped the congestion map and the size histogram."""
    g = gnp(20, 0.25, seed=17)
    sim = simulate_bcongest(g, lambda info: BFSMachine(info, root=0), seed=1)
    out = sim.output_delivery
    assert out.messages > 0
    assert sum(out.edge_congestion.values()) == out.messages
    assert sum(out.message_sizes.values()) == out.messages
    assert out.max_message_words == max(out.message_sizes)
    assert out.words == sum(size * count
                            for size, count in out.message_sizes.items())
    assert out.broadcasts == 0
    assert sim.total.rounds == (sim.preprocessing.rounds
                                + sim.simulation.rounds + out.rounds)


# Bindings whose cells route packets.
_ROUTING = ("apsp-weighted", "apsp-unweighted", "matching", "bfs-collection")


def test_declared_packet_sizes_equal_computed_sizes(monkeypatch):
    """Every size a caller declares on a packet that carries a payload
    is the one ``route_packets`` would compute, over the tier-1 routing
    cells: kernel-plan replays (the APSP cells), whose packets go to
    ``route_phases`` as arrays of ``2 + words`` sizes, and the stepped
    branch (the matching cells) of ``simulate_bcongest``.  A
    payload-free packet (``route_upcast``, a downcast's fallback) is
    sized by its route, which no payload can be checked against."""
    original = transport.route_packets
    declared = [0]
    replayed = [0]  # packets route_phases got, sized as checked
    broadcasts = [0]  # replayed broadcasts

    def checking(graph, packets, **kwargs):
        for packet in packets:
            if packet.words is not None and packet.payload is not None:
                assert packet.words == transport._packet_words(packet), \
                    packet
                declared[0] += 1
        return original(graph, packets, **kwargs)

    # A replayed broadcast's packets are (origin, payload) plus the
    # destination: 2 + words (test_property's
    # test_kernel_plan_schedules_match_the_machines checks the words
    # against the machines' payloads).  Every size route_phases gets
    # must be a broadcaster's in that packet's phase.
    plans = []
    original_phases = transport.route_phases

    def checking_phases(graph, paths, route, phase, words, **kwargs):
        plan = plans[-1]
        sized = set(zip(plan.phase.tolist(), (2 + plan.words).tolist()))
        for packet in zip(phase.tolist(), words.tolist()):
            assert packet in sized
        replayed[0] += len(words)
        return original_phases(graph, paths, route, phase, words, **kwargs)

    original_sim = bcongest_sim.simulate_bcongest

    def replaying(*args, plan=None, **kwargs):
        if plan is not None:
            plans.append(plan)
            broadcasts[0] += len(plan.node)
        return original_sim(*args, plan=plan, **kwargs)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for name, fn, wrapper in (
                ("route_packets", original, checking),
                ("route_phases", original_phases, checking_phases),
                ("simulate_bcongest", original_sim, replaying)):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    engines = set()
    for spec in build_specs():
        if spec.algorithm not in _ROUTING:
            continue
        before = broadcasts[0]
        record = run_differential(spec.scenario, spec.algorithm,
                                  size=spec.size, seed=spec.seed)
        assert record.passed, spec
        assert (broadcasts[0] > before) \
            == spec.algorithm.startswith("apsp"), spec
        engines.add(record.engine_source)
    assert declared[0] > 0 and replayed[0] > 0
    assert engines == {"kernel:bellman-ford", "kernel:bfs-wavefront",
                       "vectorized:ineligible"}


def _window(m):
    return (m.as_dict(), list(m.edge_congestion.items()),
            list(m.message_sizes.items()), m.max_message_words)


def test_output_delivery_matches_network_reference(monkeypatch):
    """The closed-form output downcast meters what the ``Network`` loop
    does, ordered congestion and size histogram included, over the
    tier-1 cells that run ``simulate_bcongest``."""
    original = bcongest_sim.simulate_bcongest
    windows = []

    def recording(*args, **kwargs):
        report = original(*args, **kwargs)
        windows.append((_window(report.output_delivery),
                        report.output_words))
        return report

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "simulate_bcongest", None) is original):
            monkeypatch.setattr(module, "simulate_bcongest", recording)
    cells = 0
    for spec in build_specs():
        if spec.algorithm not in ("apsp-weighted", "apsp-unweighted",
                                  "matching"):
            continue
        got = []
        for engine in ("auto", "reference"):
            del windows[:]
            with cell_context(engine=engine):
                record = run_differential(spec.scenario, spec.algorithm,
                                          size=spec.size, seed=spec.seed)
            assert record.passed, spec
            got.append(list(windows))
        exact, reference = got
        assert exact == reference, spec
        cells += bool(exact)
        assert all(window[0]["messages"] > 0 for window, _words in exact)
    assert cells >= 8
