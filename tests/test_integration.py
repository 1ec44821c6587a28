"""Cross-module integration: the simulation frameworks driving other
workloads than the benches use, on other topologies, plus failure paths."""

import pytest

from repro.baselines.reference import unweighted_apsp, weighted_apsp as ref_apsp
from repro.congest import run_machines
from repro.congest.errors import AlgorithmError
from repro.core import (
    apsp_tradeoff,
    simulate_aggregation,
    simulate_aggregation_star,
    simulate_bcongest,
    weighted_apsp,
)
from repro.decomposition import build_pruned_hierarchy
from repro.graphs import (
    complete,
    dumbbell,
    from_edges,
    gnp,
    grid,
    random_tree,
    uniform_weights,
)
from repro.primitives import BellmanFordCollectionMachine, Packet, route_packets
from repro.primitives.bfs import BFSCollectionMachine


def test_bellman_ford_under_general_tradeoff_sim():
    """Weighted SSSP collections are aggregation-based too (Def. 3.1):
    the Section 3 machinery is not BFS-specific."""
    g = uniform_weights(gnp(18, 0.3, seed=101), w_max=6, seed=101)
    delays = {j: 1 + (j % 4) for j in range(0, g.n, 3)}

    def factory(info):
        return BellmanFordCollectionMachine(info, delays)

    hierarchy = build_pruned_hierarchy(g, 0.5, seed=101)
    direct = run_machines(g, factory, word_limit=12 * g.n, seed=6)
    sim = simulate_aggregation(
        g, hierarchy, factory, seed=6, message_words=12 * g.n)
    assert sim.outputs == direct.outputs
    ref = ref_apsp(g)
    for v in g.nodes():
        for j in delays:
            assert sim.outputs[v][j][0] == ref[j][v]


def test_bellman_ford_under_star_sim():
    g = uniform_weights(gnp(16, 0.35, seed=102), w_max=5, seed=102)
    delays = {j: 1 + (j % 3) for j in range(0, g.n, 2)}

    def factory(info):
        return BellmanFordCollectionMachine(info, delays)

    hierarchy = build_pruned_hierarchy(g, 0.5, seed=102)
    direct = run_machines(g, factory, word_limit=12 * g.n, seed=7)
    sim = simulate_aggregation_star(
        g, hierarchy, factory, seed=7, message_words=12 * g.n)
    assert sim.outputs == direct.outputs


def test_weighted_apsp_on_tree_and_dumbbell():
    for g0 in (random_tree(12, seed=103), dumbbell(5, 2, seed=103)):
        g = uniform_weights(g0, w_max=4, seed=103)
        result = weighted_apsp(g, seed=8)
        assert result.dist == ref_apsp(g)


def test_tradeoff_apsp_on_dumbbell():
    g = dumbbell(8, 4, seed=104)
    ref = unweighted_apsp(g)
    for eps in (0.0, 0.4, 0.75):
        assert apsp_tradeoff(g, eps, seed=104).dist == ref


def test_tradeoff_apsp_on_complete_graph():
    g = complete(14)
    ref = unweighted_apsp(g)
    for eps in (0.3, 0.6):
        assert apsp_tradeoff(g, eps, seed=105).dist == ref


def test_simulation_word_budget_violation_raises():
    g = gnp(12, 0.4, seed=106)
    delays = {j: 1 for j in g.nodes()}  # no spreading: fat messages

    def factory(info):
        return BFSCollectionMachine(info, delays)

    with pytest.raises(AlgorithmError):
        simulate_bcongest(g, factory, seed=9, message_words=2)


def test_transport_rejects_bad_paths():
    g = from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(AlgorithmError):
        route_packets(g, [Packet(path=(0, 2), payload="x")])
    with pytest.raises(AlgorithmError):
        route_packets(g, [Packet(path=(0, 1), payload=tuple(range(99)))],
                      word_limit=8)


def test_transport_rejects_empty_path():
    with pytest.raises(AlgorithmError):
        Packet(path=(), payload="x")


def test_star_sim_on_grid_depth_capped():
    g = grid(4, 6)
    delays = {j: 1 + (j % 6) for j in g.nodes()}

    def factory(info):
        return BFSCollectionMachine(info, delays, max_depth=3)

    hierarchy = build_pruned_hierarchy(g, 0.6, seed=107)
    direct = run_machines(g, factory, word_limit=12 * g.n, seed=10)
    sim = simulate_aggregation_star(
        g, hierarchy, factory, seed=10, message_words=12 * g.n)
    assert sim.outputs == direct.outputs


def test_simulation_metrics_are_all_positive_sections():
    g = gnp(20, 0.3, seed=108)
    factory = lambda info: BFSCollectionMachine(info, {0: 1, 1: 2})
    report = simulate_bcongest(g, factory, seed=11, message_words=16)
    assert report.preprocessing.messages > 0
    assert report.simulation.messages > 0
    assert report.total.rounds >= report.preprocessing.rounds
    assert report.broadcasts_simulated >= g.n  # two BFS reach all nodes


@pytest.mark.parametrize("seed", range(3))
def test_tradeoff_eps_zero_matches_direct_on_random_graphs(seed):
    g = gnp(18, 0.25, seed=110 + seed)
    ref = unweighted_apsp(g)
    result = apsp_tradeoff(g, 0.0, seed=seed)
    assert result.dist == ref
