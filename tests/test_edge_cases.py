"""Degenerate and adversarial inputs: tiny graphs, extreme weights,
always-broadcasting workloads, and accounting invariants under stress."""

import pytest

from repro.baselines.reference import (
    unweighted_apsp,
    weighted_apsp as ref_weighted,
)
from repro.congest import Machine, run_machines
from repro.core import apsp_tradeoff, simulate_bcongest, weighted_apsp
from repro.core.bcongest_sim import gather_member_inputs
from repro.decomposition import build_ldc, build_pruned_hierarchy, verify_ldc
from repro.graphs import Graph, from_edges, gnp, path
from repro.graphs.weights import poly_range_weights
from repro.primitives import BFSMachine, build_global_tree


def test_single_node_graph():
    g = Graph(adj={0: ()})
    tree = build_global_tree(g)
    assert tree.root == 0 and tree.n == 1
    execution = run_machines(g, lambda info: BFSMachine(info, root=0))
    assert execution.outputs[0] == (0, None)


def test_two_node_weighted_apsp():
    g = from_edges(2, [(0, 1)], weights={(0, 1): 5})
    result = weighted_apsp(g, seed=1)
    assert result.dist == [[0, 5], [5, 0]]


def test_polynomial_range_weights_apsp():
    g = poly_range_weights(gnp(10, 0.4, seed=300), exponent=2.0, seed=300)
    result = weighted_apsp(g, seed=2)
    assert result.dist == ref_weighted(g)


def test_tradeoff_on_two_nodes():
    g = path(2)
    for eps in (0.0, 0.5, 1.0):
        assert apsp_tradeoff(g, eps, seed=3).dist == [[0, 1], [1, 0]]


def test_ldc_on_tiny_graphs():
    for g in (path(2), path(3)):
        ldc = build_ldc(g, seed=4)
        verify_ldc(g, ldc)


def test_pruned_hierarchy_on_tiny_graphs():
    from repro.decomposition import verify_hierarchy
    for g in (path(2), path(4)):
        for eps in (0.5, 1.0):
            h = build_pruned_hierarchy(g, eps, seed=5)
            verify_hierarchy(g, h)


class ChattyMachine(Machine):
    """Broadcasts every round for `k` rounds: worst-case B_A = k * n."""

    K = 6

    def on_round(self, rnd, inbox):
        if rnd > self.K:
            self.set_output(sum(1 for _ in inbox))
            self.halted = True
            return None
        return ("noise", rnd)


def test_chatty_workload_direct_vs_simulated():
    g = gnp(16, 0.4, seed=301)
    direct = run_machines(g, ChattyMachine, seed=6)
    sim = simulate_bcongest(g, ChattyMachine, seed=6)
    assert sim.outputs == direct.outputs
    assert direct.metrics.broadcasts == g.n * ChattyMachine.K
    assert sim.broadcasts_simulated == g.n * ChattyMachine.K


def test_gather_accounting_counts_both_edge_directions():
    g = gnp(14, 0.3, seed=302)
    ldc = build_ldc(g, seed=302)
    input_words, metrics = gather_member_inputs(g, ldc)
    # Every edge is described from both endpoints, 2 words each, plus
    # the F annotations.
    assert input_words >= 4 * g.m
    assert metrics.messages >= 0


def test_simulation_output_words_match_flattened_outputs():
    g = gnp(12, 0.35, seed=303)
    factory = lambda info: BFSMachine(info, root=0)
    sim = simulate_bcongest(g, factory, seed=7)
    from repro.core.bcongest_sim import output_words
    # BFS outputs are (distance, parent) pairs; the root's parent is None.
    expected = sum(2 - (sim.outputs[v][1] is None) for v in g.nodes())
    assert expected == sum(output_words(sim.outputs[v]) for v in g.nodes())
    assert sim.output_words == expected


def test_metrics_rounds_monotone_across_report_sections():
    g = gnp(14, 0.3, seed=304)
    factory = lambda info: BFSMachine(info, root=2)
    sim = simulate_bcongest(g, factory, seed=8)
    assert 0 < sim.preprocessing.rounds <= sim.total.rounds
    assert sim.simulation.rounds >= 0
    assert sim.total.rounds == (sim.preprocessing.rounds
                                + sim.simulation.rounds
                                + sim.output_delivery.rounds)


def test_disconnected_graph_rejected_by_global_tree():
    g = Graph(adj={0: (1,), 1: (0,), 2: (3,), 3: (2,)})
    with pytest.raises(RuntimeError):
        build_global_tree(g)


def test_zero_eps_and_one_eps_hierarchies_degenerate_correctly():
    g = gnp(12, 0.4, seed=305)
    h1 = build_pruned_hierarchy(g, 1.0, seed=305)
    assert h1.kappa == 1
    assert not h1.cluster_edges()  # no join level => no cluster edges
    h3 = build_pruned_hierarchy(g, 0.34, seed=305)
    assert h3.kappa == 3
