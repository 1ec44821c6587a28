"""Shortest-path reconstruction, plus randomized end-to-end equivalence
properties of both simulation frameworks (hypothesis-driven versions of
Lemmas 2.5 / 3.14 / 3.20)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import weighted_apsp as ref_apsp
from repro.congest import run_machines
from repro.core import simulate_aggregation, simulate_aggregation_star, \
    simulate_bcongest, weighted_apsp
from repro.decomposition import build_pruned_hierarchy
from repro.graphs import gnp, uniform_weights
from repro.primitives import BFSMachine
from repro.primitives.bfs import BFSCollectionMachine


# ----------------------------------------------------------------------
# Path reconstruction
# ----------------------------------------------------------------------

def test_shortest_path_reconstruction():
    g = uniform_weights(gnp(14, 0.3, seed=340), w_max=7, seed=340)
    result = weighted_apsp(g, seed=1)
    ref = ref_apsp(g)
    for source in (0, 5, 13):
        for target in g.nodes():
            path = result.shortest_path(source, target)
            assert path is not None
            assert path[0] == source and path[-1] == target
            # The path is edge-valid and its weight equals the distance.
            total = 0
            for a, b in zip(path, path[1:]):
                assert b in g.neighbors(a)
                total += g.weight(a, b)
            assert total == ref[source][target]


def test_shortest_path_trivial_and_directed():
    from repro.graphs.weights import asymmetric_weights
    g = asymmetric_weights(gnp(10, 0.4, seed=341), w_max=9, seed=341)
    result = weighted_apsp(g, seed=2)
    assert result.shortest_path(3, 3) == [3]
    ref = ref_apsp(g)
    path = result.shortest_path(0, 7)
    total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
    assert total == ref[0][7]


# ----------------------------------------------------------------------
# Randomized simulation-equivalence properties
# ----------------------------------------------------------------------

@settings(max_examples=8, deadline=None)
@given(st.integers(8, 20), st.integers(0, 1000))
def test_theorem_2_1_equivalence_random(n, seed):
    g = gnp(n, 0.3, seed=seed)
    factory = lambda info: BFSMachine(info, root=seed % n)
    direct = run_machines(g, factory, seed=seed)
    sim = simulate_bcongest(g, factory, seed=seed)
    assert sim.outputs == direct.outputs


@settings(max_examples=6, deadline=None)
@given(st.integers(10, 18), st.integers(0, 500),
       st.sampled_from([0.34, 0.5, 1.0]))
def test_theorem_3_9_equivalence_random(n, seed, eps):
    g = gnp(n, 0.35, seed=seed + 1)
    delays = {j: 1 + (j + seed) % 4 for j in range(0, n, 2)}
    factory = lambda info: BFSCollectionMachine(info, delays)
    hierarchy = build_pruned_hierarchy(g, eps, seed=seed)
    direct = run_machines(g, factory, word_limit=8 * n, seed=seed)
    sim = simulate_aggregation(g, hierarchy, factory, seed=seed,
                               message_words=8 * n)
    assert sim.outputs == direct.outputs


@settings(max_examples=6, deadline=None)
@given(st.integers(10, 18), st.integers(0, 500),
       st.sampled_from([0.5, 0.75, 1.0]))
def test_theorem_3_10_equivalence_random(n, seed, eps):
    g = gnp(n, 0.35, seed=seed + 2)
    delays = {j: 1 + (j + seed) % 4 for j in range(0, n, 2)}
    factory = lambda info: BFSCollectionMachine(info, delays)
    hierarchy = build_pruned_hierarchy(g, eps, seed=seed)
    direct = run_machines(g, factory, word_limit=8 * n, seed=seed)
    sim = simulate_aggregation_star(g, hierarchy, factory, seed=seed,
                                    message_words=8 * n)
    assert sim.outputs == direct.outputs
