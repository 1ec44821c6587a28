"""Graph substrate: generator invariants and Graph structure checks."""

import pytest

from repro.baselines.reference import bellman_ford
from repro.graphs import (
    Graph,
    augmenting_chain,
    complete,
    cycle,
    dumbbell,
    from_edges,
    gnp,
    grid,
    path,
    random_bipartite,
    random_tree,
)
from repro.graphs.weights import (
    asymmetric_weights,
    negative_safe_weights,
    poly_range_weights,
    uniform_weights,
)


@pytest.mark.parametrize("seed", range(6))
def test_gnp_connected_and_simple(seed):
    g = gnp(30, 0.05, seed=seed)  # sparse: connectivity patch must kick in
    assert g.is_connected()
    for u in g.nodes():
        assert u not in g.neighbors(u)
        assert g.neighbors(u) == tuple(sorted(set(g.neighbors(u))))


def test_complete_and_path_shapes():
    assert complete(6).m == 15
    assert path(6).m == 5
    assert cycle(6).m == 6
    assert grid(3, 4).m == 3 * 3 + 2 * 4


def test_random_tree_is_tree():
    for seed in range(4):
        g = random_tree(25, seed=seed)
        assert g.m == g.n - 1
        assert g.is_connected()


def test_dumbbell_shape():
    g = dumbbell(5, 3)
    assert g.n == 13
    assert g.is_connected()
    # Two cliques worth of edges plus the bridge path.
    assert g.m == 2 * 10 + 4


@pytest.mark.parametrize("seed", range(6))
def test_random_bipartite_invariants(seed):
    g = random_bipartite(7, 5, 0.2, seed=seed)
    assert g.is_connected()
    sides = g.is_bipartite()
    assert sides is not None
    left, right = sides
    assert len(left) + len(right) == g.n


def test_augmenting_chain_is_path():
    g = augmenting_chain(3)
    assert g.n == 8 and g.m == 7
    assert g.is_bipartite() is not None


def test_uniform_and_poly_weights():
    g = uniform_weights(gnp(15, 0.3, seed=1), w_max=5, seed=1)
    for u, v in g.edges():
        assert 1 <= g.weight(u, v) <= 5
        assert g.weight(u, v) == g.weight(v, u)
    g2 = poly_range_weights(gnp(10, 0.4, seed=2), exponent=1.5, seed=2)
    assert all(g2.weight(u, v) >= 1 for u, v in g2.edges())


def test_negative_safe_weights_have_no_negative_cycle():
    g = negative_safe_weights(gnp(14, 0.3, seed=3), w_max=10, seed=3)
    assert any(g.weight(u, v) < 0
               for u in g.nodes() for v in g.neighbors(u)), \
        "the generator should actually produce negative edges"
    # bellman_ford raises on negative cycles.
    for source in range(0, g.n, 5):
        bellman_ford(g, source)


def test_asymmetric_weights_differ_per_direction():
    g = asymmetric_weights(gnp(14, 0.4, seed=4), w_max=20, seed=4)
    assert any(g.weight(u, v) != g.weight(v, u) for u, v in g.edges())


def test_graph_validation_errors():
    with pytest.raises(ValueError):
        Graph(adj={0: (0,)})  # self loop
    with pytest.raises(ValueError):
        Graph(adj={0: (1,), 1: ()})  # asymmetric adjacency
    with pytest.raises(ValueError):
        Graph(adj={0: (), 2: ()})  # not 0..n-1
    with pytest.raises(ValueError):
        Graph(adj={0: (1,), 1: (0,)}, weights={(0, 2): 1})  # non-edge weight


def test_from_edges_symmetrizes_weights():
    g = from_edges(3, [(0, 1), (1, 2)], weights={(0, 1): 4, (1, 2): 7})
    assert g.weight(1, 0) == 4
    assert g.weight(2, 1) == 7


def test_odd_cycle_not_bipartite():
    assert cycle(5).is_bipartite() is None
    assert cycle(6).is_bipartite() is not None
