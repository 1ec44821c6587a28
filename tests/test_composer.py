"""The literal Theorem 1.3 composer: output equivalence with isolated
runs, shared-capacity enforcement, and the congestion + dilation round
bound measured on real concurrent executions."""

import math

import pytest

from repro.baselines.reference import bfs_distances
from repro.congest import run_machines
from repro.congest.composer import compose_machines
from repro.graphs import gnp, grid, path
from repro.primitives import BFSMachine
from repro.primitives.luby import LubyMISMachine

from test_machine import SleeperMachine


def _bfs_factory(root):
    return lambda info: BFSMachine(info, root=root)


def test_composed_bfs_outputs_equal_isolated_runs():
    g = gnp(24, 0.25, seed=310)
    roots = [0, 5, 11, 17]
    composed = compose_machines(
        g, [_bfs_factory(r) for r in roots], seed=1)
    for idx, root in enumerate(roots):
        isolated = run_machines(g, _bfs_factory(root), seed=1)
        assert composed.outputs[idx] == isolated.outputs
        ref = bfs_distances(g, root)
        for v in g.nodes():
            assert composed.outputs[idx][v][0] == ref[v]


def test_composed_capacity_is_shared():
    """Total congestion equals the sum of the components' loads: the
    network is genuinely shared, not replicated."""
    g = path(6)
    roots = [0, 5]
    composed = compose_machines(g, [_bfs_factory(r) for r in roots],
                                seed=2)
    # Each BFS crosses every path edge exactly twice (both directions
    # combined); two BFS -> 4 messages on some edge in the undirected
    # counter.
    assert composed.congestion >= 2
    assert composed.metrics.messages == 2 * 2 * g.m


def test_composed_rounds_within_congestion_plus_dilation():
    g = grid(5, 5)
    roots = list(range(0, g.n, 3))
    composed = compose_machines(g, [_bfs_factory(r) for r in roots],
                                seed=3)
    log_n = math.log2(g.n)
    bound = composed.congestion + composed.dilation * log_n
    assert composed.completion_round <= 3 * bound + 10, (
        f"completed in {composed.completion_round}, "
        f"Theorem 1.3 scale is {bound:.0f}")


def test_composed_heterogeneous_components():
    """BFS, Luby MIS and a message-driven machine that wakes itself at
    round 10,
    running concurrently on one network."""
    g = gnp(18, 0.3, seed=311)
    composed = compose_machines(
        g, [_bfs_factory(4), LubyMISMachine, SleeperMachine], seed=4)
    bfs_isolated = run_machines(g, _bfs_factory(4), seed=4)
    mis_isolated = run_machines(g, LubyMISMachine, seed=4)
    assert composed.outputs[0] == bfs_isolated.outputs
    assert composed.outputs[1] == mis_isolated.outputs
    assert composed.outputs[2] == run_machines(g, SleeperMachine).outputs
    assert set(composed.outputs[2].values()) == {10}
    assert composed.component_rounds[2] == 10
    mis = {v for v, in_mis in composed.outputs[1].items() if in_mis}
    for u, v in g.edges():
        assert not (u in mis and v in mis)


def test_composed_delays_recorded_and_deterministic():
    g = path(4)
    a = compose_machines(g, [_bfs_factory(0), _bfs_factory(3)], seed=5)
    b = compose_machines(g, [_bfs_factory(0), _bfs_factory(3)], seed=5)
    assert a.delays == b.delays
    assert a.completion_round == b.completion_round
    assert len(a.delays) == 2


def test_composed_requires_components():
    with pytest.raises(ValueError):
        compose_machines(path(3), [])


def test_many_components_stress():
    g = gnp(20, 0.3, seed=312)
    roots = list(range(10))
    composed = compose_machines(g, [_bfs_factory(r) for r in roots],
                                seed=6)
    for idx, root in enumerate(roots):
        ref = bfs_distances(g, root)
        for v in g.nodes():
            assert composed.outputs[idx][v][0] == ref[v]
    assert composed.dilation <= 6
