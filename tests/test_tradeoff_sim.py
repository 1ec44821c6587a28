"""Theorems 3.9 / 3.10: simulation equivalence (Lemmas 3.14 / 3.20) and
congestion structure (Lemmas 3.12 / 3.15 / 3.18)."""

import pytest

from repro.baselines.reference import bfs_distances, unweighted_apsp
from repro.congest import LocalRunner, run_machines
from repro.core.aggregation import check_idempotent, get_aggregator
from repro.core.tradeoff_sim import simulate_aggregation
from repro.core.tradeoff_sim_star import simulate_aggregation_star
from repro.decomposition.pruning import build_pruned_hierarchy
from repro.graphs import complete, dumbbell, from_edges, gnp, grid, path
from repro.primitives.bfs import BFSCollectionMachine, aggregate_keyed_min


def _bfs_factory(graph, delays=None, max_depth=None):
    delays = delays or {j: 1 + (j % 5) for j in graph.nodes()}

    def factory(info):
        return BFSCollectionMachine(info, delays, max_depth=max_depth)
    return factory


@pytest.mark.parametrize("eps", [0.34, 0.5, 1.0])
def test_general_sim_equals_direct(eps):
    g = gnp(26, 0.22, seed=31)
    factory = _bfs_factory(g)
    hierarchy = build_pruned_hierarchy(g, eps, seed=31)
    direct = run_machines(g, factory, word_limit=10 * g.n, seed=2)
    sim = simulate_aggregation(g, hierarchy, factory, seed=2,
                               message_words=10 * g.n)
    assert sim.outputs == direct.outputs


@pytest.mark.parametrize("eps", [0.5, 0.67, 1.0])
def test_star_sim_equals_direct(eps):
    g = gnp(26, 0.22, seed=32)
    factory = _bfs_factory(g)
    hierarchy = build_pruned_hierarchy(g, eps, seed=32)
    direct = run_machines(g, factory, word_limit=10 * g.n, seed=3)
    sim = simulate_aggregation_star(g, hierarchy, factory, seed=3,
                                    message_words=10 * g.n)
    assert sim.outputs == direct.outputs
    assert sim.mode == "star"


def test_star_sim_rejects_deep_hierarchy():
    g = gnp(15, 0.3, seed=33)
    hierarchy = build_pruned_hierarchy(g, 0.3, seed=33)
    with pytest.raises(ValueError):
        simulate_aggregation_star(g, hierarchy, _bfs_factory(g))


@pytest.mark.parametrize("maker,kwargs", [
    (path, {}), (grid, {"rows": 4, "cols": 5}), (complete, {})])
def test_general_sim_structured_graphs(maker, kwargs):
    if maker is path:
        g = path(12)
    elif maker is complete:
        g = complete(12)
    else:
        g = grid(**kwargs)
    factory = _bfs_factory(g)
    hierarchy = build_pruned_hierarchy(g, 0.5, seed=34)
    direct = run_machines(g, factory, word_limit=10 * g.n, seed=4)
    sim = simulate_aggregation(g, hierarchy, factory, seed=4,
                               message_words=10 * g.n)
    assert sim.outputs == direct.outputs


def test_depth_capped_collection_under_simulation():
    g = grid(5, 5)
    cap = 4
    factory = _bfs_factory(g, max_depth=cap)
    hierarchy = build_pruned_hierarchy(g, 0.4, seed=35)
    sim = simulate_aggregation(g, hierarchy, factory, seed=5,
                               message_words=10 * g.n)
    for v in g.nodes():
        out = sim.outputs[v]
        for j in g.nodes():
            ref = bfs_distances(g, j, max_depth=cap)
            if v in ref:
                assert out[j][0] == ref[v]
            else:
                assert j not in out


def test_simulation_solves_apsp():
    g = gnp(22, 0.25, seed=36)
    factory = _bfs_factory(g)
    hierarchy = build_pruned_hierarchy(g, 0.5, seed=36)
    sim = simulate_aggregation_star(g, hierarchy, factory, seed=6,
                                    message_words=10 * g.n)
    ref = unweighted_apsp(g)
    for v in g.nodes():
        for j in g.nodes():
            assert sim.outputs[v][j][0] == ref[j][v]


def test_congestion_split_reported():
    g = dumbbell(7, 2, seed=37)
    factory = _bfs_factory(g)
    hierarchy = build_pruned_hierarchy(g, 0.5, seed=37)
    sim = simulate_aggregation(g, hierarchy, factory, seed=7,
                               message_words=10 * g.n)
    assert sim.cluster_edge_congestion >= 0
    assert sim.non_cluster_edge_congestion >= 0
    assert sim.simulation.messages > 0
    assert sim.total.messages == (sim.preprocessing.messages
                                  + sim.simulation.messages)


def test_aggregator_is_idempotent():
    msgs = [(1, {0: (3, 1)}), (2, {0: (2, 2), 5: (7, 2)}),
            (4, {5: (6, 4), 0: (2, 1)})]
    assert check_idempotent(aggregate_keyed_min, msgs)
    assert aggregate_keyed_min([]) == []
    merged = aggregate_keyed_min(msgs)
    assert merged == [(-1, {0: (2, 1), 5: (6, 4)})]


def test_get_aggregator_rejects_non_aggregation_machines():
    class Plain:
        pass
    with pytest.raises(TypeError):
        get_aggregator(Plain())


@pytest.mark.parametrize("simulate", [simulate_aggregation,
                                      simulate_aggregation_star])
def test_aggregation_sims_accept_an_empty_graph(simulate):
    g = from_edges(0, [])
    hierarchy = build_pruned_hierarchy(g, 0.5, seed=1)
    sim = simulate(g, hierarchy, _bfs_factory(g))
    assert sim.outputs == {}
    assert (sim.phases, sim.broadcasts_simulated) == (1, 0)
