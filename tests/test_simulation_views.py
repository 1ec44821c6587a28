"""Internals of the trade-off simulations: cluster views, incident-F
tables, preprocessing gather accounting, and network corner semantics."""

import pytest

from repro.congest import Algorithm, run_algorithm
from repro.congest.errors import AlgorithmError
from repro.core.tradeoff_sim import build_cluster_views, preprocess_gather
from repro.decomposition import build_pruned_hierarchy
from repro.graphs import gnp, path


def test_build_cluster_views_consistency():
    g = gnp(26, 0.25, seed=330)
    h = build_pruned_hierarchy(g, 0.34, seed=330)
    views, clusters_of_node, incident_f = build_cluster_views(g, h)

    # Every view's members match the hierarchy level's clustering.
    for (level_idx, center), view in views.items():
        level = h.levels[level_idx]
        assert set(view.members) == {
            v for v, c in level.cluster_of.items() if c == center}
        assert view.center == center
        # Incoming F endpoints really are members; the outside node is not.
        for outside, endpoint in view.incoming_f.items():
            assert endpoint in view.member_set
            assert outside not in view.member_set
            assert endpoint in g.neighbors(outside)

    # clusters_of_node agrees with the hierarchy (levels >= 1).
    for v in g.nodes():
        expected = [(lvl, c) for lvl, c in h.clusters_of_node(v) if lvl >= 1]
        assert clusters_of_node[v] == expected

    # incident_f is symmetric and edge-valid.
    for v, nbrs in incident_f.items():
        for u in nbrs:
            assert u in g.neighbors(v)
            assert v in incident_f[u]


def test_incident_f_covers_all_f_edges():
    g = gnp(20, 0.3, seed=331)
    h = build_pruned_hierarchy(g, 0.5, seed=331)
    _views, _con, incident_f = build_cluster_views(g, h)
    for level in h.levels:
        for (u, w) in level.f_edges:
            assert w in incident_f[u] and u in incident_f[w]


def test_preprocess_gather_cost_scales_with_degree_sum():
    g = gnp(24, 0.3, seed=332)
    h = build_pruned_hierarchy(g, 0.5, seed=332)
    metrics = preprocess_gather(g, h)
    # One item per (member, incident edge) per nontrivial level, each
    # traveling <= level-radius hops: bounded by kappa * 2m * radius.
    assert metrics.messages <= h.kappa * 2 * g.m * (h.kappa + 1)


# ----------------------------------------------------------------------
# Network corner semantics
# ----------------------------------------------------------------------

def test_wake_at_past_raises():
    class Bad(Algorithm):
        def on_round(self, api, rnd, inbox):
            api.wake_at(rnd)  # not in the future

    with pytest.raises(AlgorithmError):
        run_algorithm(path(2), Bad)


def test_halted_nodes_ignore_messages():
    log = []

    class Talker(Algorithm):
        def on_round(self, api, rnd, inbox):
            if self.info.id == 0:
                if rnd <= 3:
                    api.send(1, rnd)
                    api.wake_at(rnd + 1)
            else:
                log.append((rnd, [m for _s, m in inbox]))
                api.halt("done-early")

    execution = run_algorithm(path(2), Talker)
    # Node 1 halts in round 1 (empty inbox) and never sees the sends.
    assert log == [(1, [])]
    assert execution.outputs[1] == "done-early"
    assert execution.metrics.messages == 3  # sends still cost


def test_max_rounds_guard():
    class Spinner(Algorithm):
        def on_round(self, api, rnd, inbox):
            api.wake_at(rnd + 1)

    with pytest.raises(AlgorithmError):
        run_algorithm(path(2), Spinner, max_rounds=50)


def test_node_rng_streams_are_private_and_stable():
    draws = {}

    class Draw(Algorithm):
        def on_round(self, api, rnd, inbox):
            draws[self.info.id] = api.rng.random()
            api.halt()

    run_algorithm(path(3), Draw, seed=9)
    first = dict(draws)
    draws.clear()
    run_algorithm(path(3), Draw, seed=9)
    assert draws == first
    assert len(set(first.values())) == 3  # distinct per-node streams
