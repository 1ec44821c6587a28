"""Tests for BFS/Bellman-Ford machines, transport, and the global tree."""

import pytest

from repro.baselines.reference import bfs_distances, unweighted_apsp, weighted_apsp
from repro.congest import (
    FaultPlan,
    LocalRunner,
    Network,
    RoundProfiler,
    cell_context,
    run_machines,
)
from repro.graphs import cycle, gnp, grid, path, random_tree, uniform_weights
from repro.graphs.weights import negative_safe_weights
from repro.primitives import (
    BFSCollectionMachine,
    BFSMachine,
    BellmanFordCollectionMachine,
    LubyMISMachine,
    Packet,
    build_global_tree,
    disseminate,
    path_to_root,
    route_packets,
    route_upcast,
    tree_depths,
)
from repro.testing.differential import run_differential


def test_single_bfs_matches_reference():
    g = gnp(30, 0.15, seed=1)
    execution = run_machines(
        g, lambda info: BFSMachine(info, root=0), word_limit=8)
    ref = bfs_distances(g, 0)
    for v in g.nodes():
        dist, parent = execution.outputs[v]
        assert dist == ref[v]
        if v != 0:
            assert parent in g.neighbors(v)
            assert ref[parent] == dist - 1
    # Standard BFS: n broadcasts, one per node.
    assert execution.metrics.broadcasts == g.n


def test_bfs_dilation_is_eccentricity():
    g = path(10)
    execution = run_machines(g, lambda info: BFSMachine(info, root=0))
    # Node at distance d broadcasts in round d+1; last is round 10.
    assert execution.rounds == g.n


def test_bfs_depth_limit():
    g = path(10)
    execution = run_machines(
        g, lambda info: BFSMachine(info, root=0, max_depth=3))
    for v in g.nodes():
        out = execution.outputs[v]
        if v <= 3:
            assert out == (v, v - 1 if v else None)
        else:
            assert out is None


def test_bfs_collection_all_sources():
    g = gnp(25, 0.2, seed=2)
    delays = {j: 1 + (j % 5) for j in g.nodes()}
    execution = run_machines(
        g, lambda info: BFSCollectionMachine(info, delays),
        word_limit=6 * g.n,  # combined payloads; size checked separately
    )
    ref = unweighted_apsp(g)
    for v in g.nodes():
        out = execution.outputs[v]
        for j in g.nodes():
            assert out[j][0] == ref[j][v]


def test_bfs_collection_depth_cap_and_delays():
    g = grid(5, 6)
    delays = {j: 1 + (j % 7) for j in g.nodes()}
    cap = 4
    execution = run_machines(
        g, lambda info: BFSCollectionMachine(info, delays, max_depth=cap),
        word_limit=6 * g.n)
    for v in g.nodes():
        out = execution.outputs[v]
        for j in g.nodes():
            ref = bfs_distances(g, j, max_depth=cap)
            if v in ref:
                assert out[j][0] == ref[v]
            else:
                assert j not in out


def test_bfs_collection_local_runner_agrees_with_network():
    g = gnp(20, 0.25, seed=3)
    delays = {j: 1 + (j * 3) % 6 for j in g.nodes()}

    def factory(info):
        return BFSCollectionMachine(info, delays)

    net = run_machines(g, factory, word_limit=6 * g.n)
    local = LocalRunner(g, factory).run()
    assert net.outputs == local


def test_bellman_ford_weighted():
    g = uniform_weights(gnp(20, 0.25, seed=4), w_max=9, seed=4)
    delays = {j: 1 + j % 4 for j in g.nodes()}
    execution = run_machines(
        g, lambda info: BellmanFordCollectionMachine(info, delays),
        word_limit=8 * g.n)
    ref = weighted_apsp(g)
    for v in g.nodes():
        out = execution.outputs[v]
        for j in g.nodes():
            assert out[j][0] == ref[j][v]


def test_bellman_ford_negative_weights():
    g = negative_safe_weights(gnp(14, 0.3, seed=5), w_max=8, seed=5)
    delays = {j: 1 for j in g.nodes()}
    execution = run_machines(
        g, lambda info: BellmanFordCollectionMachine(info, delays),
        word_limit=8 * g.n)
    ref = weighted_apsp(g)
    for v in g.nodes():
        for j in g.nodes():
            assert execution.outputs[v][j][0] == ref[j][v]


def test_luby_mis_is_independent_and_maximal():
    g = gnp(40, 0.2, seed=6)
    execution = run_machines(g, LubyMISMachine, seed=6)
    mis = {v for v in g.nodes() if execution.outputs[v]}
    assert mis, "MIS must be non-empty on a non-empty graph"
    for u, v in g.edges():
        assert not (u in mis and v in mis), "MIS not independent"
    for v in g.nodes():
        assert v in mis or any(u in mis for u in g.neighbors(v)), \
            "MIS not maximal"


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------

def test_route_packets_delivers_and_meters():
    g = path(5)
    packets = [Packet(path=(0, 1, 2, 3, 4), payload="x"),
               Packet(path=(4, 3, 2), payload="y", tag="t")]
    deliveries, metrics = route_packets(g, packets)
    assert len(deliveries) == 2
    assert metrics.messages == 4 + 2
    got = {(d.origin, d.dest, d.payload, d.tag) for d in deliveries}
    assert (0, 4, "x", None) in got
    assert (4, 2, "y", "t") in got


def test_route_packets_pipelining():
    # 10 packets over the same 4-edge path: rounds ~ length + count - 1.
    g = path(5)
    packets = [Packet(path=(0, 1, 2, 3, 4), payload=i) for i in range(10)]
    deliveries, metrics = route_packets(g, packets)
    assert len(deliveries) == 10
    assert metrics.messages == 40
    assert metrics.rounds <= 4 + 10  # Lemma 1.5/1.6 pipelining bound
    assert metrics.edge_congestion[(0, 1)] == 10


def test_upcast_costs_match_lemma_1_5():
    # Upcast over a path-tree of depth d: item from node v costs depth(v).
    g = path(6)
    parent = {0: None, 1: 0, 2: 1, 3: 2, 4: 3, 5: 4}
    metrics = route_upcast(g, [(path_to_root(parent, v), 1, 3)
                               for v in range(1, 6)])
    assert metrics.messages == sum(range(1, 6))  # sum of depths
    assert metrics.edge_congestion[(0, 1)] == 5  # every item enters the root


def test_tree_depths():
    parent = {0: None, 1: 0, 2: 0, 3: 1, 4: 3}
    assert tree_depths(parent) == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}


# ----------------------------------------------------------------------
# Global tree / dissemination
# ----------------------------------------------------------------------

def test_global_tree_structure():
    g = gnp(30, 0.15, seed=7)
    tree = build_global_tree(g, seed=7)
    assert tree.root == 0  # min-ID leader
    assert tree.n == g.n
    ref = bfs_distances(g, tree.root)
    for v in g.nodes():
        assert tree.depth[v] == ref[v], "tree must be a BFS tree"
        if v != tree.root:
            assert tree.parent[v] in g.neighbors(v)
            assert v in tree.children[tree.parent[v]]


def test_global_tree_on_cycle_and_tree():
    for g in (cycle(9), random_tree(17, seed=8)):
        tree = build_global_tree(g)
        assert tree.root == 0
        assert sum(len(c) for c in tree.children.values()) == g.n - 1


def test_disseminate_stream():
    g = gnp(20, 0.2, seed=9)
    tree = build_global_tree(g)
    stream = [("w", i) for i in range(15)]
    received, metrics = disseminate(g, tree, stream)
    for v in g.nodes():
        assert list(received[v]) == stream
    # Pipelined: one message per tree edge per word.
    assert metrics.messages == (g.n - 1) * len(stream)
    assert metrics.rounds <= len(stream) + tree.height + 2


def test_global_tree_memo_is_per_graph_instance_and_seed():
    g = gnp(20, 0.2, seed=9)
    tree = build_global_tree(g, seed=4)
    assert build_global_tree(g, seed=4) is tree
    assert build_global_tree(g, seed=5) is not tree
    # A fresh instance of the same graph builds its own, equal tree.
    twin = gnp(20, 0.2, seed=9)
    twin_tree = build_global_tree(twin, seed=4)
    assert twin_tree is not tree
    assert (twin_tree.parent, twin_tree.children) == (tree.parent,
                                                      tree.children)
    assert twin_tree.metrics.as_dict() == tree.metrics.as_dict()
    # A derived graph shares the topology but not the memo.
    weighted = uniform_weights(g, w_max=5, seed=1)
    assert not weighted._global_tree_cache
    assert build_global_tree(weighted, seed=4) is not tree


_FALLBACK_CONTEXTS = {
    "profiler": lambda g: cell_context(profiler=RoundProfiler()),
    # Non-null, but its one link failure lies past any round this runs.
    "faults": lambda g: cell_context(
        faults=FaultPlan(link_failures={next(g.edges()): 10**9})),
    "reference": lambda g: cell_context(engine="reference"),
}


@pytest.mark.parametrize("name", sorted(_FALLBACK_CONTEXTS))
def test_fallback_cells_build_and_disseminate_on_the_network(name,
                                                             monkeypatch):
    runs = []
    original = Network.run

    def counted(net, *args, **kwargs):
        runs.append(net)
        return original(net, *args, **kwargs)

    monkeypatch.setattr(Network, "run", counted)
    g = gnp(20, 0.2, seed=9)
    with _FALLBACK_CONTEXTS[name](g):
        first = build_global_tree(g, seed=4)
        second = build_global_tree(g, seed=4)
        assert len(runs) == 4  # flood + count, twice
        received, metrics = disseminate(g, first, [1, (2, 3)])
        assert len(runs) == 5
    assert first is not second
    assert not g._global_tree_cache
    # Outside the context the tree is built once more, in closed form,
    # and stored, and dissemination needs no Network either; both agree
    # with the runs above.
    assert build_global_tree(g, seed=4).metrics.as_dict() == \
        first.metrics.as_dict()
    assert len(runs) == 5 and len(g._global_tree_cache) == 1
    assert disseminate(g, first, [1, (2, 3)]) == (received, metrics)
    assert len(runs) == 5


def test_profiled_weighted_apsp_keeps_every_network_segment():
    """Under a profiler the tree builds, the dissemination and the
    transport all run on the Network, one segment per run: as many as
    before the tree memo and exact dissemination existed."""
    profiler = RoundProfiler()
    record = run_differential("grid-weighted", "apsp-weighted", seed=0,
                              profiler=profiler)
    assert record.passed
    assert len(profiler.profile().segments) == 23
